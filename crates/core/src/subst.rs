//! Capture-aware variable substitution in SQL expressions.
//!
//! PL/pgSQL variables appear inside embedded queries as bare identifiers
//! (`WHERE location = p.loc` — `location` is a variable, `loc` a column).
//! Whenever the compiler renames variables (SSA), redirects them to the
//! recursive CTE's row (`r.location1`), or inlines arguments, it must
//! substitute *only* identifiers that are not captured by a column of an
//! enclosing query scope. This module implements that substitution with
//! catalog-assisted column-visibility tracking — the same preference the
//! engine's planner applies (columns win over parameters).
//!
//! Substitution rewrites the tree in place: only the replaced identifiers
//! allocate. The replacements come from a lookup, so callers that already
//! index their names (SSA rename stacks, a callee's parameter list) never
//! build a map per expression.

use plaway_engine::Catalog;
use plaway_sql::ast::{
    Cte, Expr, Query, Select, SelectItem, SetExpr, TableRef, WindowRef, WindowSpec,
};

/// Names a free variable's replacement (`None`: leave it as it is).
pub type Lookup<'a> = &'a dyn Fn(&str) -> Option<Expr>;

/// Substitute free variables in an expression, in place. A bare
/// identifier is free unless a column of an enclosing query scope inside
/// `e` captures it.
pub fn subst_expr(e: &mut Expr, lookup: Lookup, catalog: &Catalog) {
    Subst { lookup, catalog }.expr(e, &Scope::default())
}

/// Substitute free variables in a whole query (descending into FROM,
/// WHERE, windows, CTEs, set operations), in place.
pub fn subst_query(q: &mut Query, lookup: Lookup, catalog: &Catalog) {
    Subst { lookup, catalog }.query(q, &Scope::default())
}

/// What one position in a query can see: the columns of enclosing FROM
/// clauses (a name among them is a column and is never substituted) and
/// the CTEs of enclosing WITH clauses, innermost last.
#[derive(Default)]
struct Scope<'p> {
    parent: Option<&'p Scope<'p>>,
    columns: Vec<String>,
    /// `(name, columns)` of CTEs in scope; a later binding shadows an
    /// earlier one of the same name.
    ctes: Vec<(String, Vec<String>)>,
}

impl Scope<'_> {
    fn child(&self) -> Scope<'_> {
        Scope {
            parent: Some(self),
            ..Scope::default()
        }
    }

    fn sees_column(&self, name: &str) -> bool {
        self.columns.iter().any(|c| c == name) || self.parent.is_some_and(|p| p.sees_column(name))
    }

    fn cte_columns(&self, name: &str) -> Option<&[String]> {
        match self.ctes.iter().rev().find(|(n, _)| n == name) {
            Some((_, cols)) => Some(cols),
            None => self.parent?.cte_columns(name),
        }
    }
}

struct Subst<'a> {
    lookup: Lookup<'a>,
    catalog: &'a Catalog,
}

impl Subst<'_> {
    fn expr(&self, e: &mut Expr, scope: &Scope) {
        e.rewrite(&mut |node| match node {
            Expr::Column {
                qualifier: None,
                name,
            } if !scope.sees_column(name) => {
                if let Some(replacement) = (self.lookup)(name) {
                    *node = replacement;
                }
            }
            Expr::Subquery(q) | Expr::Exists(q) | Expr::InSubquery { query: q, .. } => {
                self.query(q, scope)
            }
            Expr::WindowFunc {
                window: WindowRef::Inline(spec),
                ..
            } => self.window_spec(spec, scope),
            _ => {}
        })
    }

    fn query(&self, q: &mut Query, scope: &Scope) {
        // CTE columns contribute nothing to *expression* scopes directly
        // (they are table-like): they are what a FROM item naming the CTE
        // brings into scope. As in the planner, a CTE is visible to the
        // CTEs after it and to the body, and a fixpoint CTE also to its own
        // recursive arm; CTE bodies see the same outer columns.
        let mut with_scope = scope.child();
        if let Some(with) = &mut q.with {
            let fixpoint = with.recursive || with.iterate || with.retire;
            for cte in &mut with.ctes {
                if fixpoint {
                    with_scope.ctes.push(cte_binding(cte));
                }
                self.query(&mut cte.query, &with_scope);
                // Rebind with the substituted query's output columns.
                with_scope.ctes.push(cte_binding(cte));
            }
        }
        self.set_expr(&mut q.body, &with_scope);
        // ORDER BY / LIMIT of the outer query see the query's own columns
        // too; approximating with the body's visibility is safe (output
        // columns stem from the select list which is already substituted).
        let mut outer = with_scope.child();
        outer.columns = set_expr_output_columns(&q.body);
        for oi in &mut q.order_by {
            self.expr(&mut oi.expr, &outer);
        }
        for e in q.limit.iter_mut().chain(&mut q.offset) {
            self.expr(e, &outer);
        }
    }

    fn set_expr(&self, body: &mut SetExpr, scope: &Scope) {
        match body {
            SetExpr::Select(sel) => self.select(sel, scope),
            SetExpr::SetOp { left, right, .. } => {
                self.set_expr(left, scope);
                self.set_expr(right, scope);
            }
            SetExpr::Values(rows) => {
                for e in rows.iter_mut().flatten() {
                    self.expr(e, scope);
                }
            }
            SetExpr::Query(q) => self.query(q, scope),
        }
    }

    fn select(&self, sel: &mut Select, scope: &Scope) {
        // Columns brought into scope by this SELECT's FROM clause.
        let mut inner = scope.child();
        for t in &sel.from {
            self.collect_table_columns(t, scope, &mut inner.columns);
        }

        // FROM items are substituted left to right: a LATERAL subquery sees
        // the outer scope plus the columns of *preceding* items only — never
        // its own alias columns (a let named like an outer variable must
        // still have its right-hand side substituted) and never following
        // items'.
        let mut preceding = scope.child();
        for t in &mut sel.from {
            self.table_ref(t, scope, &mut preceding, false);
        }
        for item in &mut sel.items {
            if let SelectItem::Expr { expr, .. } = item {
                self.expr(expr, &inner);
            }
        }
        for e in sel
            .where_
            .iter_mut()
            .chain(&mut sel.group_by)
            .chain(&mut sel.having)
        {
            self.expr(e, &inner);
        }
        for (_, spec) in &mut sel.windows {
            self.window_spec(spec, &inner);
        }
    }

    fn window_spec(&self, spec: &mut WindowSpec, scope: &Scope) {
        for e in &mut spec.partition_by {
            self.expr(e, scope);
        }
        for oi in &mut spec.order_by {
            self.expr(&mut oi.expr, scope);
        }
    }

    /// `preceding` accumulates the columns of FROM items already processed
    /// (in join order); on return it additionally holds this item's
    /// columns. `outer` is the enclosing SELECT's scope.
    fn table_ref(
        &self,
        t: &mut TableRef,
        outer: &Scope,
        preceding: &mut Scope,
        parent_lateral: bool,
    ) {
        match t {
            TableRef::Table { .. } => {}
            TableRef::Derived { lateral, query, .. } => {
                // LATERAL subqueries additionally see the columns of items
                // to their left; non-lateral ones see only the outer scope.
                // Neither sees its own alias columns. The LATERAL marker may
                // sit on the Derived itself (comma-list item) or on the
                // enclosing Join (`JOIN LATERAL`).
                let vis: &Scope = if *lateral || parent_lateral {
                    preceding
                } else {
                    outer
                };
                self.query(query, vis);
            }
            TableRef::Join {
                left,
                right,
                lateral,
                on,
                ..
            } => {
                self.table_ref(left, outer, preceding, false);
                self.table_ref(right, outer, preceding, *lateral);
                // ON sees both sides (now accumulated in `preceding`).
                if let Some(on) = on {
                    self.expr(on, preceding);
                }
                return;
            }
        }
        self.collect_table_columns(t, outer, &mut preceding.columns);
    }

    /// Column names a FROM item contributes to the enclosing SELECT's
    /// scope. A table name resolves to a CTE in `scope` before the catalog.
    fn collect_table_columns(&self, t: &TableRef, scope: &Scope, out: &mut Vec<String>) {
        match t {
            TableRef::Table { name, alias } => {
                if let Some(a) = alias {
                    if !a.columns.is_empty() {
                        out.extend(a.columns.iter().cloned());
                        return;
                    }
                }
                if let Some(cols) = scope.cte_columns(name) {
                    out.extend(cols.iter().cloned());
                } else if let Ok(table) = self.catalog.table(name) {
                    out.extend(table.columns.iter().map(|c| c.name.clone()));
                }
                // Unknown tables contribute nothing.
            }
            TableRef::Derived { query, alias, .. } => {
                if !alias.columns.is_empty() {
                    out.extend(alias.columns.iter().cloned());
                } else {
                    out.extend(set_expr_output_columns(&query.body));
                }
            }
            TableRef::Join { left, right, .. } => {
                self.collect_table_columns(left, scope, out);
                self.collect_table_columns(right, scope, out);
            }
        }
    }
}

/// A CTE's columns: its alias list, or else its query's output columns.
fn cte_binding(cte: &Cte) -> (String, Vec<String>) {
    let columns = if cte.columns.is_empty() {
        set_expr_output_columns(&cte.query.body)
    } else {
        cte.columns.clone()
    };
    (cte.name.clone(), columns)
}

fn set_expr_output_columns(body: &SetExpr) -> Vec<String> {
    match body {
        SetExpr::Select(sel) => sel
            .items
            .iter()
            .filter_map(|i| match i {
                SelectItem::Expr { alias: Some(a), .. } => Some(a.clone()),
                SelectItem::Expr {
                    expr: Expr::Column { name, .. },
                    ..
                } => Some(name.clone()),
                _ => None,
            })
            .collect(),
        SetExpr::SetOp { left, .. } => set_expr_output_columns(left),
        SetExpr::Values(_) => Vec::new(),
        SetExpr::Query(q) => set_expr_output_columns(&q.body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaway_engine::Session;
    use plaway_sql::{parse_expr, parse_query};

    fn catalog_with_policy() -> Catalog {
        let mut s = Session::default();
        s.run("CREATE TABLE policy (loc int, action text)").unwrap();
        s.run("CREATE TABLE actions (here int, action text, there int, prob float8)")
            .unwrap();
        (*s.catalog).clone()
    }

    /// A lookup from `(variable, replacement SQL)` pairs.
    fn m(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<Expr> {
        let pairs: Vec<(String, Expr)> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), parse_expr(v).unwrap()))
            .collect();
        move |name| {
            pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        }
    }

    fn subst_in_expr(sql: &str, pairs: &[(&str, &str)], cat: &Catalog) -> String {
        let mut e = parse_expr(sql).unwrap();
        subst_expr(&mut e, &m(pairs), cat);
        e.to_string()
    }

    fn subst_in_query(sql: &str, pairs: &[(&str, &str)], cat: &Catalog) -> String {
        let mut q = parse_query(sql).unwrap();
        subst_query(&mut q, &m(pairs), cat);
        q.to_string()
    }

    #[test]
    fn substitutes_free_variable_not_column() {
        let cat = catalog_with_policy();
        // `location` is free (a PL/SQL variable), `loc`/`action` are columns.
        let printed = subst_in_expr(
            "(SELECT p.action FROM policy AS p WHERE location = p.loc)",
            &[("location", "r.location1")],
            &cat,
        );
        assert!(printed.contains("r.location1 = p.loc"), "{printed}");
    }

    #[test]
    fn column_of_scanned_table_is_not_captured() {
        let cat = catalog_with_policy();
        // `action` IS a column of actions: must NOT be substituted.
        let printed = subst_in_expr(
            "(SELECT a.there FROM actions AS a WHERE action = 'up')",
            &[("action", "r.movement1")],
            &cat,
        );
        assert!(
            printed.contains("action = 'up'") && !printed.contains("r.movement1"),
            "{printed}"
        );
    }

    #[test]
    fn qualified_references_never_substituted() {
        let cat = Catalog::new();
        let printed = subst_in_expr("q.location + location", &[("location", "9")], &cat);
        assert_eq!(printed, "q.location + 9");
    }

    #[test]
    fn derived_table_alias_columns_shadow() {
        let cat = Catalog::new();
        // `lo` is bound by the derived table alias; must not be replaced.
        let printed = subst_in_expr(
            "(SELECT m.loc FROM (SELECT 1, 2, 3) AS m(loc, lo, hi) WHERE roll BETWEEN lo AND hi)",
            &[("roll", "0.5"), ("lo", "999"), ("hi", "999")],
            &cat,
        );
        assert!(printed.contains("0.5 BETWEEN lo AND hi"), "{printed}");
    }

    #[test]
    fn nested_subqueries_accumulate_visibility() {
        let cat = catalog_with_policy();
        // `loc` is visible from the inner policy scan -> column; `outer_var`
        // is free -> substituted.
        let printed = subst_in_query(
            "SELECT (SELECT p.action FROM policy AS p WHERE loc = outer_var) FROM actions",
            &[("outer_var", "42"), ("loc", "13")],
            &cat,
        );
        assert!(printed.contains("loc = 42"), "{printed}");
        assert!(!printed.contains("13"), "{printed}");
    }

    #[test]
    fn cte_columns_capture_like_table_columns() {
        let cat = Catalog::new();
        // `x` is a column of `c` in the body; the CTE's own body and a
        // later CTE reading `c` under an alias list see their own scopes.
        let printed = subst_in_expr(
            "(WITH c(x) AS (SELECT x), d AS (SELECT y FROM c AS cc(y)) \
             SELECT x + y FROM c, d)",
            &[("x", "100"), ("y", "200")],
            &cat,
        );
        assert!(printed.contains("c(x) AS (SELECT 100)"), "{printed}");
        assert!(printed.contains("SELECT y FROM c AS cc(y)"), "{printed}");
        assert!(printed.contains("SELECT x + y FROM"), "{printed}");
        // Without an alias list, the CTE's output columns count.
        let printed = subst_in_expr(
            "(WITH c AS (SELECT 7 AS x) SELECT x + z FROM c)",
            &[("x", "100"), ("z", "300")],
            &cat,
        );
        assert!(printed.contains("SELECT x + 300 FROM c"), "{printed}");
    }

    #[test]
    fn recursive_cte_sees_itself_in_its_recursive_arm() {
        let cat = Catalog::new();
        let printed = subst_in_expr(
            "(WITH RECURSIVE r(i) AS (SELECT i UNION ALL SELECT i + 1 FROM r WHERE i < n) \
             SELECT max(i) FROM r)",
            &[("i", "0"), ("n", "5")],
            &cat,
        );
        assert!(
            printed.contains("SELECT 0 UNION ALL SELECT i + 1"),
            "{printed}"
        );
        assert!(printed.contains("WHERE i < 5"), "{printed}");
        assert!(printed.contains("SELECT max(i) FROM r"), "{printed}");
    }

    #[test]
    fn window_clause_expressions_are_substituted() {
        let cat = catalog_with_policy();
        let printed = subst_in_query(
            "SELECT SUM(a.prob) OVER w FROM actions AS a \
             WINDOW w AS (PARTITION BY freevar ORDER BY a.there)",
            &[("freevar", "7")],
            &cat,
        );
        assert!(printed.contains("PARTITION BY 7"), "{printed}");
    }

    #[test]
    fn substitution_inside_paper_q2_touches_only_variables() {
        let cat = catalog_with_policy();
        let printed = subst_in_expr(
            "(SELECT move.loc \
              FROM (SELECT a.there AS loc, \
                           COALESCE(SUM(a.prob) OVER lt, 0.0) AS lo, \
                           SUM(a.prob) OVER leq AS hi \
                    FROM actions AS a \
                    WHERE location = a.here AND movement = a.action \
                    WINDOW leq AS (ORDER BY a.there), \
                           lt AS (leq ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW) \
                   ) AS move(loc, lo, hi) \
              WHERE roll BETWEEN move.lo AND move.hi)",
            &[
                ("location", "r.location1"),
                ("movement", "movement2"),
                ("roll", "roll"),
            ],
            &cat,
        );
        assert!(printed.contains("r.location1 = a.here"), "{printed}");
        assert!(printed.contains("movement2 = a.action"), "{printed}");
        // Columns of the derived alias survive untouched.
        assert!(printed.contains("move.lo"), "{printed}");
    }
}
