//! Catalog: tables, rows, secondary indexes and the function registry.
//!
//! Storage is deliberately simple — heap tables as `Vec<Row>` — because the
//! paper's claims are about *executor lifecycle* costs, not storage. Single-
//! column secondary indexes (btree for point + range, hash for point only)
//! give the planner selective access paths for the paper's embedded queries
//! (`WHERE location = p.loc` style), which keeps large workloads honest: the
//! interpreted and compiled variants use the same access paths, and a
//! selective loop over a 10⁵-row table stays O(matching) instead of
//! O(table).
//!
//! Every access path returns row positions in ascending heap order (like a
//! PostgreSQL bitmap heap scan), so an index plan's output row order is
//! byte-identical to the seq-scan-plus-filter plan it replaces — that is
//! the invariant the force-on/force-off differential sweep pins.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use plaway_common::{Error, Result, Type, Value};
use plaway_sql::ast::Language;

/// A table row.
pub type Row = Vec<Value>;

/// A column of a table schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: String,
    pub ty: Type,
}

/// Index access method: ordered (btree) or equality-only (hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// Ordered index: point lookups and range scans. The default.
    #[default]
    Btree,
    /// Hash index: point lookups only.
    Hash,
}

/// `Value` ordered by [`Value::total_cmp`] so it can key an ordered map
/// (`Value` itself deliberately has no `Ord`: SQL comparison is 3-valued).
/// NULLs sort last, which `Index::range` exploits to exclude them.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OrdValue(Value);

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Key → posting-list storage for one index.
#[derive(Debug, Clone)]
enum IndexStore {
    Hash(HashMap<Value, Vec<usize>>),
    Btree(BTreeMap<OrdValue, Vec<usize>>),
}

/// A single-column secondary index. Posting lists hold row positions in
/// ascending heap order (inserts append, rebuilds enumerate in order), so
/// lookups need no sort and range scans only merge already-sorted runs.
#[derive(Debug, Clone)]
pub struct Index {
    pub name: String,
    /// Indexed column position.
    pub column: usize,
    pub kind: IndexKind,
    store: IndexStore,
}

impl Index {
    fn build(name: String, column: usize, kind: IndexKind, rows: &[Row]) -> Self {
        let store = match kind {
            IndexKind::Hash => {
                let mut map: HashMap<Value, Vec<usize>> = HashMap::with_capacity(rows.len());
                for (i, row) in rows.iter().enumerate() {
                    map.entry(row[column].clone()).or_default().push(i);
                }
                IndexStore::Hash(map)
            }
            IndexKind::Btree => {
                let mut map: BTreeMap<OrdValue, Vec<usize>> = BTreeMap::new();
                for (i, row) in rows.iter().enumerate() {
                    map.entry(OrdValue(row[column].clone()))
                        .or_default()
                        .push(i);
                }
                IndexStore::Btree(map)
            }
        };
        Index {
            name,
            column,
            kind,
            store,
        }
    }

    /// Incremental maintenance for an appended row (`pos` is strictly
    /// larger than every position already present, keeping postings sorted).
    fn add(&mut self, key: Value, pos: usize) {
        match &mut self.store {
            IndexStore::Hash(map) => map.entry(key).or_default().push(pos),
            IndexStore::Btree(map) => map.entry(OrdValue(key)).or_default().push(pos),
        }
    }

    /// Number of distinct keys — the planner's selectivity denominator.
    pub fn distinct_keys(&self) -> usize {
        match &self.store {
            IndexStore::Hash(map) => map.len(),
            IndexStore::Btree(map) => map.len(),
        }
    }

    /// Point lookup: positions (ascending) of rows whose key equals `key`.
    pub fn lookup(&self, key: &Value) -> &[usize] {
        match &self.store {
            IndexStore::Hash(map) => map.get(key).map(|v| v.as_slice()).unwrap_or(&[]),
            IndexStore::Btree(map) => map
                .get(&OrdValue(key.clone()))
                .map(|v| v.as_slice())
                .unwrap_or(&[]),
        }
    }

    /// Translate optional `(value, inclusive)` bounds into `BTreeMap` range
    /// bounds, detecting the inverted ranges `BTreeMap::range` panics on.
    fn btree_bounds(
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> Option<(Bound<OrdValue>, Bound<OrdValue>)> {
        if let (Some((l, li)), Some((h, hi_inc))) = (lo, hi) {
            match l.total_cmp(h) {
                Ordering::Greater => return None,
                Ordering::Equal if !(li && hi_inc) => return None,
                _ => {}
            }
        }
        let to_bound = |b: Option<(&Value, bool)>| match b {
            Some((v, true)) => Bound::Included(OrdValue(v.clone())),
            Some((v, false)) => Bound::Excluded(OrdValue(v.clone())),
            None => Bound::Unbounded,
        };
        Some((to_bound(lo), to_bound(hi)))
    }

    /// Range scan (btree only): positions of rows whose key lies between the
    /// bounds, returned in ascending heap order. NULL keys never match (SQL
    /// comparisons against NULL are never true). Returns `None` for a hash
    /// index, which cannot answer range predicates.
    pub fn range(
        &self,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> Option<Vec<usize>> {
        let IndexStore::Btree(map) = &self.store else {
            return None;
        };
        let Some(bounds) = Self::btree_bounds(lo, hi) else {
            return Some(Vec::new());
        };
        let mut positions: Vec<usize> = map
            .range(bounds)
            .filter(|(k, _)| !k.0.is_null())
            .flat_map(|(_, p)| p.iter().copied())
            .collect();
        // Each posting list is sorted; the concatenation across keys is not.
        positions.sort_unstable();
        Some(positions)
    }

    /// Plan-time row-count estimate for a range with *literal* bounds: the
    /// exact number of matching rows, read off the ordered map. Costs
    /// O(matching keys) once per prepare (plans are cached).
    pub fn estimate_range(&self, lo: Option<(&Value, bool)>, hi: Option<(&Value, bool)>) -> usize {
        let IndexStore::Btree(map) = &self.store else {
            return 0;
        };
        let Some(bounds) = Self::btree_bounds(lo, hi) else {
            return 0;
        };
        map.range(bounds)
            .filter(|(k, _)| !k.0.is_null())
            .map(|(_, p)| p.len())
            .sum()
    }
}

/// A heap table with schema, rows and optional secondary indexes.
///
/// Rows and indexes sit behind `Arc` so cloning a [`Catalog`] (the
/// copy-on-write commit path of [`crate::Database`]) is O(#tables), not
/// O(#rows): a snapshot shares the row storage of the committed catalog,
/// and a writer's `Arc::make_mut` only copies the tables it touches. Index
/// structures ride the same snapshot: a reader's catalog pins rows *and*
/// indexes from the same committed state, so the two can never disagree.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub name: String,
    pub columns: Vec<Column>,
    pub rows: Arc<Vec<Row>>,
    pub indexes: Arc<Vec<Index>>,
}

impl Table {
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Find an index on the given column, if any (any kind: both answer
    /// point lookups).
    pub fn index_on(&self, column: usize) -> Option<&Index> {
        self.indexes.iter().find(|i| i.column == column)
    }

    /// Find an *ordered* index on the given column — the only kind that can
    /// answer range predicates.
    pub fn btree_index_on(&self, column: usize) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|i| i.column == column && i.kind == IndexKind::Btree)
    }

    fn check_row(&self, row: &Row) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(Error::exec(format!(
                "table {}: row has {} values, expected {}",
                self.name,
                row.len(),
                self.columns.len()
            )));
        }
        for (v, c) in row.iter().zip(&self.columns) {
            if !c.ty.admits(v) {
                return Err(Error::exec(format!(
                    "table {}: value {v} does not fit column {} of type {}",
                    self.name, c.name, c.ty
                )));
            }
        }
        Ok(())
    }

    /// Append rows, maintaining indexes.
    pub fn insert(&mut self, rows: Vec<Row>) -> Result<usize> {
        let base = self.rows.len();
        for row in &rows {
            self.check_row(row)?;
        }
        let store = Arc::make_mut(&mut self.rows);
        let indexes = Arc::make_mut(&mut self.indexes);
        for (off, row) in rows.into_iter().enumerate() {
            for idx in indexes.iter_mut() {
                idx.add(row[idx.column].clone(), base + off);
            }
            store.push(row);
        }
        Ok(store.len() - base)
    }

    /// Rebuild all indexes (after UPDATE / DELETE).
    fn reindex(&mut self) {
        let rows = Arc::clone(&self.rows);
        for idx in Arc::make_mut(&mut self.indexes).iter_mut() {
            *idx = Index::build(idx.name.clone(), idx.column, idx.kind, &rows);
        }
    }
}

/// A registered function: SQL-language bodies are compiled lazily by the
/// session; PL/pgSQL bodies are consumed by the interpreter / compiler.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    pub name: String,
    pub params: Vec<(String, Type)>,
    pub returns: Type,
    pub language: Language,
    /// Raw body text, exactly as written between the dollar quotes.
    pub body: String,
}

/// The schema: tables + functions. Owned by a [`crate::Session`].
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    functions: HashMap<String, Arc<FunctionDef>>,
    /// Bumped by every mutation, DDL and DML alike: snapshot identity.
    pub version: u64,
    /// Bumped by DDL only; see [`Catalog::schema_version`].
    schema_version: u64,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The stamp every cache of compiled artefacts checks: shared plans,
    /// SQL-UDF body plans and the interpreter's compiled functions. Only
    /// the five DDL methods bump it, so data commits keep those caches.
    /// That is safe because no plan holds data: scans and probes look
    /// tables up by name in the executing snapshot. The one data-dependent
    /// planning choice, the `Auto` range estimate, picks between two
    /// access paths whose outputs are byte-identical, so a stale estimate
    /// can cost speed but never change an answer.
    pub fn schema_version(&self) -> u64 {
        self.schema_version
    }

    /// Called by every DDL method; DML bumps `version` alone.
    fn bump_schema(&mut self) {
        self.version += 1;
        self.schema_version += 1;
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::plan(format!("relation {name:?} does not exist")))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    pub fn create_table(&mut self, name: &str, columns: Vec<Column>) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(Error::plan(format!("relation {name:?} already exists")));
        }
        self.bump_schema();
        self.tables.insert(
            name.to_string(),
            Table {
                name: name.to_string(),
                columns,
                rows: Arc::new(Vec::new()),
                indexes: Arc::new(Vec::new()),
            },
        );
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<()> {
        self.bump_schema();
        if self.tables.remove(name).is_none() && !if_exists {
            return Err(Error::plan(format!("relation {name:?} does not exist")));
        }
        Ok(())
    }

    pub fn create_index(
        &mut self,
        index_name: &str,
        table: &str,
        column: &str,
        kind: IndexKind,
    ) -> Result<()> {
        self.bump_schema();
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| Error::plan(format!("relation {table:?} does not exist")))?;
        let col = t
            .column_index(column)
            .ok_or_else(|| Error::plan(format!("column {column:?} of {table:?} does not exist")))?;
        if t.indexes.iter().any(|i| i.name == index_name) {
            return Err(Error::plan(format!("index {index_name:?} already exists")));
        }
        let idx = Index::build(index_name.to_string(), col, kind, &t.rows);
        Arc::make_mut(&mut t.indexes).push(idx);
        Ok(())
    }

    /// Bulk insert used by workload generators (skips SQL parsing).
    pub fn bulk_insert(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        self.version += 1;
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| Error::plan(format!("relation {table:?} does not exist")))?;
        t.insert(rows)
    }

    /// Replace rows wholesale (UPDATE/DELETE execution path).
    pub fn replace_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        self.version += 1;
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| Error::plan(format!("relation {table:?} does not exist")))?;
        t.rows = Arc::new(rows);
        t.reindex();
        Ok(())
    }

    pub fn function(&self, name: &str) -> Option<&Arc<FunctionDef>> {
        self.functions.get(name)
    }

    pub fn create_function(&mut self, def: FunctionDef, or_replace: bool) -> Result<()> {
        if !or_replace && self.functions.contains_key(&def.name) {
            return Err(Error::plan(format!(
                "function {:?} already exists",
                def.name
            )));
        }
        self.bump_schema();
        self.functions.insert(def.name.clone(), Arc::new(def));
        Ok(())
    }

    pub fn drop_function(&mut self, name: &str, if_exists: bool) -> Result<()> {
        self.bump_schema();
        if self.functions.remove(name).is_none() && !if_exists {
            return Err(Error::plan(format!("function {name:?} does not exist")));
        }
        Ok(())
    }
}

/// Derive the output column names of a query without planning it.
///
/// The PL/pgSQL front end needs the names to bind a `FOR rec IN <query>`
/// loop variable's fields (`rec.name`), both in the interpreter and in the
/// compiled row-loop desugaring. Every select item must therefore have a
/// determinable name: a column reference, an aliased expression, or a
/// wildcard over a FROM item whose columns the catalog (or an explicit
/// alias list) names.
pub fn query_output_columns(q: &plaway_sql::ast::Query, catalog: &Catalog) -> Result<Vec<String>> {
    use plaway_sql::ast::{SelectItem, SetExpr, TableRef};

    fn from_columns(t: &TableRef, catalog: &Catalog, out: &mut Vec<String>) -> Result<()> {
        match t {
            TableRef::Table { name, alias } => {
                if let Some(a) = alias {
                    if !a.columns.is_empty() {
                        out.extend(a.columns.iter().cloned());
                        return Ok(());
                    }
                }
                let table = catalog.table(name)?;
                out.extend(table.columns.iter().map(|c| c.name.clone()));
                Ok(())
            }
            TableRef::Derived { alias, query, .. } => {
                if !alias.columns.is_empty() {
                    out.extend(alias.columns.iter().cloned());
                    Ok(())
                } else {
                    out.extend(query_output_columns(query, catalog)?);
                    Ok(())
                }
            }
            TableRef::Join { left, right, .. } => {
                from_columns(left, catalog, out)?;
                from_columns(right, catalog, out)
            }
        }
    }

    fn set_columns(s: &SetExpr, catalog: &Catalog) -> Result<Vec<String>> {
        match s {
            SetExpr::Select(sel) => {
                let mut out = Vec::with_capacity(sel.items.len());
                for item in &sel.items {
                    match item {
                        SelectItem::Expr { alias: Some(a), .. } => out.push(a.clone()),
                        SelectItem::Expr {
                            expr: plaway_sql::ast::Expr::Column { name, .. },
                            alias: None,
                        } => out.push(name.clone()),
                        SelectItem::Expr { expr, alias: None } => {
                            return Err(Error::plan(format!(
                                "cannot derive a column name for {expr}; \
                                 add an alias (`{expr} AS name`) so the row \
                                 variable's field can be referenced"
                            )))
                        }
                        SelectItem::Wildcard => {
                            for t in &sel.from {
                                from_columns(t, catalog, &mut out)?;
                            }
                        }
                        SelectItem::QualifiedWildcard(q) => {
                            let t = sel
                                .from
                                .iter()
                                .find(|t| match t {
                                    TableRef::Table { name, alias } => {
                                        alias.as_ref().map(|a| a.name.as_str()).unwrap_or(name) == q
                                    }
                                    TableRef::Derived { alias, .. } => alias.name == *q,
                                    TableRef::Join { .. } => false,
                                })
                                .ok_or_else(|| {
                                    Error::plan(format!("unknown wildcard qualifier {q:?}"))
                                })?;
                            from_columns(t, catalog, &mut out)?;
                        }
                    }
                }
                Ok(out)
            }
            SetExpr::SetOp { left, .. } => set_columns(left, catalog),
            SetExpr::Query(q) => query_output_columns(q, catalog),
            SetExpr::Values(rows) => Ok((1..=rows.first().map_or(0, Vec::len))
                .map(|i| format!("column{i}"))
                .collect()),
        }
    }

    set_columns(&q.body, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols(spec: &[(&str, Type)]) -> Vec<Column> {
        spec.iter()
            .map(|(n, t)| Column {
                name: n.to_string(),
                ty: t.clone(),
            })
            .collect()
    }

    #[test]
    fn create_insert_lookup() {
        let mut cat = Catalog::new();
        cat.create_table("t", cols(&[("a", Type::Int), ("b", Type::Text)]))
            .unwrap();
        cat.bulk_insert(
            "t",
            vec![
                vec![Value::Int(1), Value::text("x")],
                vec![Value::Int(2), Value::text("y")],
            ],
        )
        .unwrap();
        assert_eq!(cat.table("t").unwrap().rows.len(), 2);
        assert!(cat.table("missing").is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut cat = Catalog::new();
        cat.create_table("t", cols(&[("a", Type::Int)])).unwrap();
        assert!(cat.create_table("t", cols(&[("a", Type::Int)])).is_err());
    }

    #[test]
    fn type_checking_on_insert() {
        let mut cat = Catalog::new();
        cat.create_table("t", cols(&[("a", Type::Int)])).unwrap();
        assert!(cat.bulk_insert("t", vec![vec![Value::text("no")]]).is_err());
        // NULL always fits.
        assert!(cat.bulk_insert("t", vec![vec![Value::Null]]).is_ok());
        // Arity mismatch.
        assert!(cat
            .bulk_insert("t", vec![vec![Value::Int(1), Value::Int(2)]])
            .is_err());
    }

    #[test]
    fn hash_index_lookup_and_maintenance() {
        let mut cat = Catalog::new();
        cat.create_table("t", cols(&[("k", Type::Int), ("v", Type::Text)]))
            .unwrap();
        cat.bulk_insert(
            "t",
            vec![
                vec![Value::Int(1), Value::text("a")],
                vec![Value::Int(2), Value::text("b")],
            ],
        )
        .unwrap();
        cat.create_index("t_k", "t", "k", IndexKind::Hash).unwrap();
        // Insert after index creation must be visible through the index.
        cat.bulk_insert("t", vec![vec![Value::Int(2), Value::text("c")]])
            .unwrap();
        let t = cat.table("t").unwrap();
        let idx = t.index_on(0).unwrap();
        assert_eq!(idx.kind, IndexKind::Hash);
        assert_eq!(idx.lookup(&Value::Int(2)), &[1, 2]);
        assert_eq!(idx.lookup(&Value::Int(9)), &[] as &[usize]);
        // Hash indexes cannot answer range predicates.
        assert!(idx.range(Some((&Value::Int(1), true)), None).is_none());
        assert!(t.btree_index_on(0).is_none());
    }

    #[test]
    fn btree_index_point_range_and_maintenance() {
        let mut cat = Catalog::new();
        cat.create_table("t", cols(&[("k", Type::Int)])).unwrap();
        // Out-of-key-order inserts, duplicates, and a NULL key.
        for k in [5, 2, 9, 2, 7] {
            cat.bulk_insert("t", vec![vec![Value::Int(k)]]).unwrap();
        }
        cat.create_index("t_k", "t", "k", IndexKind::Btree).unwrap();
        cat.bulk_insert("t", vec![vec![Value::Null], vec![Value::Int(3)]])
            .unwrap();
        let t = cat.table("t").unwrap();
        let idx = t.btree_index_on(0).unwrap();
        assert_eq!(idx.lookup(&Value::Int(2)), &[1, 3]);
        // Range scans return heap (row-position) order, not key order, so
        // the output matches a filtered seq scan byte-for-byte.
        let r = idx
            .range(Some((&Value::Int(2), true)), Some((&Value::Int(7), true)))
            .unwrap();
        assert_eq!(r, vec![0, 1, 3, 4, 6]);
        // Exclusive bounds and open ends.
        let r = idx
            .range(Some((&Value::Int(2), false)), Some((&Value::Int(7), false)))
            .unwrap();
        assert_eq!(r, vec![0, 6]);
        // NULL keys never match, even with one end open.
        let r = idx.range(Some((&Value::Int(8), true)), None).unwrap();
        assert_eq!(r, vec![2]);
        // Inverted and empty ranges are empty, not a panic.
        assert!(idx
            .range(Some((&Value::Int(9), true)), Some((&Value::Int(1), true)))
            .unwrap()
            .is_empty());
        assert!(idx
            .range(Some((&Value::Int(4), false)), Some((&Value::Int(4), true)))
            .unwrap()
            .is_empty());
        // Plan-time estimates are exact for literal bounds.
        assert_eq!(
            idx.estimate_range(Some((&Value::Int(2), true)), Some((&Value::Int(7), true))),
            5
        );
        assert_eq!(idx.estimate_range(None, None), 6); // NULL excluded
        assert_eq!(idx.distinct_keys(), 6); // 2,3,5,7,9,NULL
    }

    #[test]
    fn reindex_after_replace() {
        let mut cat = Catalog::new();
        cat.create_table("t", cols(&[("k", Type::Int)])).unwrap();
        cat.bulk_insert("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
        cat.create_index("t_k", "t", "k", IndexKind::Btree).unwrap();
        cat.replace_rows("t", vec![vec![Value::Int(7)]]).unwrap();
        let t = cat.table("t").unwrap();
        assert_eq!(t.index_on(0).unwrap().lookup(&Value::Int(7)), &[0]);
        assert!(t.index_on(0).unwrap().lookup(&Value::Int(1)).is_empty());
        assert_eq!(
            t.btree_index_on(0)
                .unwrap()
                .range(Some((&Value::Int(0), true)), None)
                .unwrap(),
            vec![0]
        );
    }

    #[test]
    fn functions_register_and_replace() {
        let mut cat = Catalog::new();
        let def = FunctionDef {
            name: "f".into(),
            params: vec![("a".into(), Type::Int)],
            returns: Type::Int,
            language: Language::Sql,
            body: "SELECT a".into(),
        };
        cat.create_function(def.clone(), false).unwrap();
        assert!(cat.create_function(def.clone(), false).is_err());
        cat.create_function(def.clone(), true).unwrap();
        assert_eq!(cat.function("f").unwrap().body, "SELECT a");
        cat.drop_function("f", false).unwrap();
        assert!(cat.drop_function("f", false).is_err());
        assert!(cat.drop_function("f", true).is_ok());
    }

    #[test]
    fn version_counts_every_mutation_and_schema_version_only_ddl() {
        fn step(cat: &mut Catalog, ddl: bool, f: impl FnOnce(&mut Catalog) -> Result<()>) {
            let (v, s) = (cat.version, cat.schema_version());
            f(cat).unwrap();
            assert_eq!(cat.version, v + 1);
            assert_eq!(cat.schema_version(), s + u64::from(ddl), "ddl={ddl}");
        }
        let def = FunctionDef {
            name: "f".into(),
            params: vec![("a".into(), Type::Int)],
            returns: Type::Int,
            language: Language::Sql,
            body: "SELECT a".into(),
        };
        let mut cat = Catalog::new();
        step(&mut cat, true, |c| {
            c.create_table("t", cols(&[("a", Type::Int)]))
        });
        step(&mut cat, true, |c| {
            c.create_index("t_a", "t", "a", IndexKind::Btree)
        });
        step(&mut cat, false, |c| {
            c.bulk_insert("t", vec![vec![Value::Int(1)]]).map(drop)
        });
        step(&mut cat, false, |c| {
            c.replace_rows("t", vec![vec![Value::Int(2)]])
        });
        step(&mut cat, true, |c| c.create_function(def, false));
        step(&mut cat, true, |c| c.drop_function("f", false));
        step(&mut cat, true, |c| c.drop_table("t", false));
    }
}
