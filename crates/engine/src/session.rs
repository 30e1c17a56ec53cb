//! The session: plan cache, executor lifecycle, DDL/DML, statistics.
//!
//! This is where the paper's cost model lives. A prepared query is planned
//! once and cached; every *evaluation* then pays
//!
//! 1. `ExecutorStart` — instantiate runtime state from the cached plan.
//!    The plan itself is immutable and shared by `Arc` (re-instantiation
//!    must not re-pay planning); PostgreSQL's measured per-evaluation
//!    instantiation cost is injected via the profile's calibrated
//!    `start_penalty_ns` (see [`EngineConfig::postgres_like`]),
//! 2. `ExecutorRun` — evaluate,
//! 3. `ExecutorEnd` — tear the state down (drop).
//!
//! The PL/pgSQL interpreter drives these phases for every embedded query
//! evaluation — that is the `f→Qi` context switch the paper measures.
//! A compiled `WITH RECURSIVE` query pays them exactly once per invocation,
//! iterating inside `ExecutorRun`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use plaway_common::{Error, Result, SessionRng, Type, Value};
use plaway_sql::ast::{InsertSource, Language, Stmt};

use crate::catalog::{Catalog, Column, FunctionDef, IndexKind, Row};
use crate::config::{EngineConfig, IndexMode};
use crate::database::Database;
use crate::exec::{eval, exec, EvalEnv, FnPlanCache, Runtime, RuntimeStats};
use crate::explain::AnalyzeState;
use crate::ir::ExprIr;
use crate::metrics::SessionMetrics;
use crate::planner::{
    plan_expr, plan_printed_query, plan_query, plan_udf_body, ParamScope, PreparedPlan,
};
use crate::profile::{Phase, Profiler};
use crate::tuplestore::BufferStats;

/// Result of running a statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl QueryResult {
    pub fn empty() -> Self {
        QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Exactly one row, one column.
    pub fn scalar(&self) -> Result<Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Ok(self.rows[0][0].clone())
        } else {
            Err(Error::exec(format!(
                "expected a single scalar, got {} row(s) of width {}",
                self.rows.len(),
                self.rows.first().map(Vec::len).unwrap_or(0)
            )))
        }
    }

    /// psql-style rendering for examples.
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:^w$}", w = widths[i]))
            .collect();
        out.push_str(&format!(" {}\n", header.join(" | ")));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(w + 2)).collect();
        out.push_str(&format!("{}\n", sep.join("+")));
        for row in &cells {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(0)))
                .collect();
            out.push_str(&format!(" {}\n", line.join(" | ")));
        }
        out.push_str(&format!(
            "({} row{})\n",
            self.rows.len(),
            if self.rows.len() == 1 { "" } else { "s" }
        ));
        out
    }
}

/// Instantiated executor state for one evaluation (the product of
/// `ExecutorStart`, consumed by `ExecutorRun`/`ExecutorEnd`).
pub struct ExecHandle {
    /// Shared reference to the cached plan. Earlier revisions deep-copied
    /// the whole plan tree here, which charged every compiled-query
    /// invocation a planner-shaped allocation storm; the calibrated
    /// `start_penalty_ns` already models PostgreSQL's instantiation cost,
    /// so the copy was pure loss.
    plan: Arc<PreparedPlan>,
    params: Vec<Value>,
}

/// Per-query phase totals (Figure 3's per-`Qi` profile bars).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryPhaseStats {
    pub start_ns: u128,
    pub run_ns: u128,
    pub end_ns: u128,
    pub count: u64,
}

impl QueryPhaseStats {
    pub fn total_ns(&self) -> u128 {
        self.start_ns + self.run_ns + self.end_ns
    }

    /// The `f→Qi` context-switch share of this query's time.
    pub fn switch_pct(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        (self.start_ns + self.end_ns) as f64 / total as f64 * 100.0
    }
}

/// A database session: private execution state over a shared [`Database`].
///
/// The catalog itself lives in the `Database`; the session holds an
/// `Arc` *snapshot* of it, replaced at statement boundaries (prepare,
/// commit), so every read call site keeps working off `&self.catalog`
/// while concurrent sessions commit freely. Everything else — RNG,
/// profiler, buffer/runtime stats, UDF plan cache — is session-private,
/// which is what makes `Session: Send` and lets N sessions run on N
/// threads against one `Database`.
pub struct Session {
    db: Arc<Database>,
    /// Database-unique session id; trace events are tagged with it.
    pub id: u64,
    /// Snapshot of the committed catalog this session's statements read.
    /// Refreshed by [`Session::refresh`] (called from `prepare`) and, after
    /// each of this session's commits, set to the snapshot that commit
    /// installed; immutable in between — a concurrent writer swaps the
    /// committed pointer but can never mutate rows this snapshot holds.
    pub catalog: Arc<Catalog>,
    pub config: EngineConfig,
    pub rng: SessionRng,
    pub profiler: Profiler,
    pub buffers: BufferStats,
    pub stats: RuntimeStats,
    fn_plans: FnPlanCache,
    /// Session-local plan-cache statistics (this session's hits vs misses
    /// against the shared cache; `Database::plan_cache_stats` has the
    /// cross-session totals).
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    /// When set, `execute_prepared` also attributes phase times per query
    /// text (used by the Figure 3 profile harness).
    pub track_queries: bool,
    pub query_stats: HashMap<String, QueryPhaseStats>,
    /// Plain mirror of everything this session folded into the shared
    /// [`crate::metrics::MetricsRegistry`]. Cumulative for the session's
    /// lifetime — deliberately *not* cleared by
    /// [`Session::reset_instrumentation`], so summing mirrors across
    /// sessions always reconciles with `Database::metrics()`.
    pub metrics: SessionMetrics,
    /// In-flight EXPLAIN ANALYZE observation sink; set for the duration of
    /// one instrumented execution and threaded into the runtime.
    analyze: Option<AnalyzeState>,
    /// The VM's value stack, lent to the runtime of each simple expression
    /// ([`Session::eval_expr`]) so that none allocates its own.
    vm_stack: Vec<Value>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new(EngineConfig::postgres_like())
    }
}

impl Session {
    /// A session over its own private database (the single-threaded
    /// embedded use). For concurrent serving, create one [`Database`] and
    /// attach N sessions via [`Database::session`].
    pub fn new(config: EngineConfig) -> Self {
        Database::new(config).session()
    }

    /// Attach a new session to a shared database.
    pub fn attach(db: &Arc<Database>) -> Session {
        Session {
            catalog: db.snapshot(),
            config: db.config.clone(),
            id: db.allocate_session_id(),
            db: Arc::clone(db),
            rng: SessionRng::default(),
            profiler: Profiler::default(),
            buffers: BufferStats::default(),
            stats: RuntimeStats::default(),
            fn_plans: FnPlanCache::default(),
            plan_cache_hits: 0,
            plan_cache_misses: 0,
            track_queries: false,
            query_stats: HashMap::new(),
            metrics: SessionMetrics::default(),
            analyze: None,
            vm_stack: Vec::new(),
        }
    }

    /// The shared database this session is attached to.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Re-snapshot the committed catalog. Statement entry points call this
    /// themselves; it is public for drivers that read `self.catalog`
    /// directly and want to observe other sessions' commits.
    pub fn refresh(&mut self) {
        self.catalog = self.db.snapshot();
    }

    /// Run a copy-on-write commit against the shared database (see
    /// [`Database::commit`]) and move this session's snapshot to the state
    /// that commit installed — not to the latest committed state, which a
    /// concurrent writer may already have moved past. On error nothing is
    /// committed and the snapshot is left untouched.
    pub fn commit<R>(&mut self, f: impl FnOnce(&mut Catalog) -> Result<R>) -> Result<R> {
        let db = Arc::clone(&self.db);
        let (out, snapshot) = db.commit(f)?;
        self.committed(snapshot);
        Ok(out)
    }

    /// Adopt the snapshot this session's own commit installed.
    fn committed(&mut self, snapshot: Arc<Catalog>) {
        self.catalog = snapshot;
        if self.config.trace {
            self.emit_trace("commit", "");
        }
    }

    pub fn set_seed(&mut self, seed: u64) {
        self.rng = SessionRng::new(seed);
    }

    /// Zero every session-local counter: all four profiler phase buckets
    /// and their lifecycle counts, buffer-page accounting, the full
    /// [`RuntimeStats`] set (scan/subplan/UDF/snapshot/penalty/batch
    /// counters), plan-cache hit/miss counts and the per-query phase
    /// attribution. `tests::reset_instrumentation_zeroes_every_counter`
    /// pins this against the field lists, so a counter added to any of
    /// these structs cannot silently survive a reset again.
    pub fn reset_instrumentation(&mut self) {
        self.profiler.reset();
        self.buffers.reset();
        self.stats.reset();
        self.plan_cache_hits = 0;
        self.plan_cache_misses = 0;
        self.query_stats.clear();
    }

    // --------------------------------------------------------- statements

    /// Parse and run one SQL statement.
    pub fn run(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = plaway_sql::parse_statement(sql)?;
        self.run_stmt(&stmt, sql)
    }

    /// Convenience: run a query and return its single scalar result.
    pub fn query_scalar(&mut self, sql: &str) -> Result<Value> {
        self.run(sql)?.scalar()
    }

    fn run_stmt(&mut self, stmt: &Stmt, sql: &str) -> Result<QueryResult> {
        // Statement-boundary metrics: queries (and the execution inside
        // EXPLAIN ANALYZE) are recorded by `execute_prepared`; everything
        // else — DDL, DML, plain EXPLAIN — is recorded here, so each
        // statement lands in the registry exactly once.
        let records_inside =
            matches!(stmt, Stmt::Query(_)) || matches!(stmt, Stmt::Explain { analyze: true, .. });
        let t0 = Instant::now();
        let before = self.stats;
        let result = match stmt {
            Stmt::Query(q) => {
                let key = q.to_string();
                self.refresh();
                let prepared = self.prepare_query_text(&key, q, &ParamScope::default())?;
                self.execute_prepared(&prepared, Vec::new())
            }
            Stmt::Explain { analyze, stmt } => self.run_explain(*analyze, stmt),
            Stmt::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                let cols = columns
                    .iter()
                    .map(|(n, t)| {
                        Ok(Column {
                            name: n.clone(),
                            ty: Type::from_sql_name(t)?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                let if_not_exists = *if_not_exists;
                self.commit(|cat| {
                    if if_not_exists && cat.has_table(name) {
                        return Ok(());
                    }
                    cat.create_table(name, cols)
                })?;
                Ok(QueryResult::empty())
            }
            Stmt::CreateIndex {
                name,
                table,
                column,
                using,
            } => {
                // Default to btree: it serves both point and range
                // predicates. `USING hash` opts into equality-only.
                let kind = match using {
                    Some(plaway_sql::ast::IndexMethod::Hash) => IndexKind::Hash,
                    Some(plaway_sql::ast::IndexMethod::Btree) | None => IndexKind::Btree,
                };
                self.commit(|cat| cat.create_index(name, table, column, kind))?;
                Ok(QueryResult::empty())
            }
            Stmt::CreateFunction(cf) => {
                let def = FunctionDef {
                    name: cf.name.clone(),
                    params: cf
                        .params
                        .iter()
                        .map(|(n, t)| Ok((n.clone(), Type::from_sql_name(t)?)))
                        .collect::<Result<Vec<_>>>()?,
                    returns: Type::from_sql_name(&cf.returns)?,
                    language: cf.language,
                    body: cf.body.clone(),
                };
                let or_replace = cf.or_replace;
                let index_mode = self.config.index_mode;
                self.commit(move |cat| {
                    if def.language == Language::Sql {
                        if !or_replace && cat.function(&def.name).is_some() {
                            return Err(Error::plan(format!(
                                "function {:?} already exists",
                                def.name
                            )));
                        }
                        // Validate eagerly; recursive bodies may
                        // legitimately reference the function being
                        // created, so register it first — a body that
                        // does not plan fails the commit and the
                        // registration is discarded with it.
                        cat.create_function(def.clone(), true)?;
                        plan_udf_body(cat, &def, index_mode)?;
                        Ok(())
                    } else {
                        cat.create_function(def, or_replace)
                    }
                })?;
                Ok(QueryResult::empty())
            }
            Stmt::Insert {
                table,
                columns,
                source,
            } => self.run_insert(table, columns, source),
            Stmt::Update {
                table,
                sets,
                where_,
            } => self.run_update(table, sets, where_.as_ref()),
            Stmt::Delete { table, where_ } => self.run_delete(table, where_.as_ref()),
            Stmt::DropTable { name, if_exists } => {
                self.commit(|cat| cat.drop_table(name, *if_exists))?;
                Ok(QueryResult::empty())
            }
            Stmt::DropFunction { name, if_exists } => {
                self.commit(|cat| cat.drop_function(name, *if_exists))?;
                Ok(QueryResult::empty())
            }
        }
        .map_err(|e| match e {
            // Attach statement context to planning errors for usability.
            Error::Plan(msg) if !msg.contains(" in statement ") => {
                Error::Plan(format!("{msg} in statement {sql:?}"))
            }
            other => other,
        });
        if !records_inside {
            self.record_statement(t0.elapsed().as_nanos() as u64, &before);
        }
        result
    }

    /// `EXPLAIN [ANALYZE] <query>`: render the plan tree as one text row
    /// per line. Under ANALYZE the query is *executed* with per-node
    /// instrumentation and the tree is annotated with loops / rows /
    /// cumulative and self time, plus one summary line per recursive
    /// fixpoint. Only queries can be explained; DDL/DML plans are built
    /// inside their commit closures and have no stable tree to render.
    fn run_explain(&mut self, analyze: bool, inner: &Stmt) -> Result<QueryResult> {
        let q = match inner {
            Stmt::Query(q) => q,
            other => {
                return Err(Error::unsupported(format!(
                    "EXPLAIN supports queries only (SELECT / VALUES / WITH), got {}",
                    other.to_string().split_whitespace().next().unwrap_or("?")
                )))
            }
        };
        let key = q.to_string();
        self.refresh();
        let prepared = self.prepare_query_text(&key, q, &ParamScope::default())?;
        let lines: Vec<String> = if analyze {
            self.explain_analyze_prepared(&prepared, Vec::new())?
                .render(&prepared.plan)
        } else {
            prepared
                .plan
                .explain()
                .lines()
                .map(str::to_string)
                .collect()
        };
        Ok(QueryResult {
            columns: vec!["QUERY PLAN".into()],
            rows: lines.into_iter().map(|l| vec![Value::text(l)]).collect(),
        })
    }

    /// Execute a prepared plan under EXPLAIN ANALYZE instrumentation and
    /// return the raw observations (render with
    /// [`AnalyzeState::render`]). This is the programmatic face of
    /// `EXPLAIN ANALYZE`: parameterized artifacts — the compiled kernels —
    /// can be analyzed with bound arguments, which the SQL surface (no
    /// parameter binding in `EXPLAIN`) cannot express.
    pub fn explain_analyze_prepared(
        &mut self,
        prepared: &Arc<PreparedPlan>,
        params: Vec<Value>,
    ) -> Result<AnalyzeState> {
        self.analyze = Some(AnalyzeState::default());
        let before = self.stats;
        let run = self.execute_prepared(prepared, params);
        let mut state = self.analyze.take().unwrap_or_default();
        run?; // take the sink first so an execution error cannot leak it
        let delta = self.stats.delta_since(&before);
        state.record_memo(delta.memo_hits, delta.memo_misses);
        Ok(state)
    }

    fn run_insert(
        &mut self,
        table: &str,
        columns: &[String],
        source: &InsertSource,
    ) -> Result<QueryResult> {
        let query = match source {
            InsertSource::Query(q) => (**q).clone(),
            InsertSource::Values(rows) => plaway_sql::ast::Query {
                with: None,
                body: plaway_sql::ast::SetExpr::Values(rows.clone()),
                order_by: vec![],
                limit: None,
                offset: None,
            },
        };
        // The whole read-compute-write runs inside one commit, so the
        // source query sees the same catalog state the insert lands in and
        // a failing row leaves the table untouched.
        let db = Arc::clone(&self.db);
        let (n, snapshot) = db.commit(|cat| {
            let prepared = plan_query(cat, &query, None, self.config.index_mode)?;
            let rows = {
                let mut rt = self.runtime_for(cat);
                exec(&prepared.plan, &EvalEnv::EMPTY, &mut rt)?
            };

            let t = cat.table(table)?;
            let schema: Vec<(String, Type)> = t
                .columns
                .iter()
                .map(|c| (c.name.clone(), c.ty.clone()))
                .collect();
            // Map provided columns to positions.
            let positions: Vec<usize> = if columns.is_empty() {
                (0..schema.len()).collect()
            } else {
                columns
                    .iter()
                    .map(|c| {
                        schema.iter().position(|(n, _)| n == c).ok_or_else(|| {
                            Error::plan(format!("column {c:?} of {table:?} does not exist"))
                        })
                    })
                    .collect::<Result<Vec<_>>>()?
            };
            let mut shaped = Vec::with_capacity(rows.len());
            for row in rows {
                if row.len() != positions.len() {
                    return Err(Error::exec(format!(
                        "INSERT has {} expressions but {} target columns",
                        row.len(),
                        positions.len()
                    )));
                }
                let mut full: Row = vec![Value::Null; schema.len()];
                for (value, &pos) in row.into_iter().zip(&positions) {
                    let ty = &schema[pos].1;
                    full[pos] = if ty.admits(&value) {
                        value
                    } else {
                        value.cast(ty)?
                    };
                }
                shaped.push(full);
            }
            cat.bulk_insert(table, shaped)
        })?;
        self.committed(snapshot);
        Ok(QueryResult {
            columns: vec!["inserted".into()],
            rows: vec![vec![Value::Int(n as i64)]],
        })
    }

    fn run_update(
        &mut self,
        table: &str,
        sets: &[(String, plaway_sql::ast::Expr)],
        where_: Option<&plaway_sql::ast::Expr>,
    ) -> Result<QueryResult> {
        // Compile SET expressions and the predicate against the table scope
        // by planning a synthetic `SELECT <set-exprs>, <pred> FROM table`.
        let mut sel = plaway_sql::ast::Select {
            items: sets
                .iter()
                .map(|(_, e)| plaway_sql::ast::SelectItem::Expr {
                    expr: e.clone(),
                    alias: None,
                })
                .collect(),
            from: vec![plaway_sql::ast::TableRef::Table {
                name: table.to_string(),
                alias: None,
            }],
            ..Default::default()
        };
        if let Some(w) = where_ {
            sel.items.push(plaway_sql::ast::SelectItem::Expr {
                expr: w.clone(),
                alias: None,
            });
        }
        let query = plaway_sql::ast::Query::simple(sel);
        // Read-modify-write under one commit: the rows the predicate was
        // evaluated against are exactly the rows being replaced, even with
        // concurrent writers.
        let db = Arc::clone(&self.db);
        let (updated, snapshot) = db.commit(|cat| {
            let t = cat.table(table)?;
            let set_positions: Vec<usize> = sets
                .iter()
                .map(|(c, _)| {
                    t.column_index(c).ok_or_else(|| {
                        Error::plan(format!("column {c:?} of {table:?} does not exist"))
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            let types: Vec<Type> = t.columns.iter().map(|c| c.ty.clone()).collect();

            let prepared = plan_query(cat, &query, None, self.config.index_mode)?;
            let computed = {
                let mut rt = self.runtime_for(cat);
                exec(&prepared.plan, &EvalEnv::EMPTY, &mut rt)?
            };

            let old_rows: Vec<Row> = cat.table(table)?.rows.as_ref().clone();
            let mut updated = 0usize;
            let mut new_rows = Vec::with_capacity(old_rows.len());
            for (mut row, mut vals) in old_rows.into_iter().zip(computed) {
                let hit = match where_ {
                    None => true,
                    Some(_) => vals.pop().map(|v| v.is_true()).unwrap_or(false),
                };
                if hit {
                    updated += 1;
                    for (&pos, val) in set_positions.iter().zip(vals.drain(..)) {
                        let ty = &types[pos];
                        row[pos] = if ty.admits(&val) { val } else { val.cast(ty)? };
                    }
                }
                new_rows.push(row);
            }
            cat.replace_rows(table, new_rows)?;
            Ok(updated)
        })?;
        self.committed(snapshot);
        Ok(QueryResult {
            columns: vec!["updated".into()],
            rows: vec![vec![Value::Int(updated as i64)]],
        })
    }

    fn run_delete(
        &mut self,
        table: &str,
        where_: Option<&plaway_sql::ast::Expr>,
    ) -> Result<QueryResult> {
        let db = Arc::clone(&self.db);
        let (deleted, snapshot) = db.commit(|cat| {
            let keep: Vec<bool> = match where_ {
                None => vec![false; cat.table(table)?.rows.len()],
                Some(w) => {
                    let sel = plaway_sql::ast::Select {
                        items: vec![plaway_sql::ast::SelectItem::Expr {
                            expr: w.clone(),
                            alias: None,
                        }],
                        from: vec![plaway_sql::ast::TableRef::Table {
                            name: table.to_string(),
                            alias: None,
                        }],
                        ..Default::default()
                    };
                    let query = plaway_sql::ast::Query::simple(sel);
                    let prepared = plan_query(cat, &query, None, self.config.index_mode)?;
                    let rows = {
                        let mut rt = self.runtime_for(cat);
                        exec(&prepared.plan, &EvalEnv::EMPTY, &mut rt)?
                    };
                    rows.into_iter().map(|r| !r[0].is_true()).collect()
                }
            };
            let old_rows: Vec<Row> = cat.table(table)?.rows.as_ref().clone();
            let total = old_rows.len();
            let new_rows: Vec<Row> = old_rows
                .into_iter()
                .zip(&keep)
                .filter_map(|(r, &k)| k.then_some(r))
                .collect();
            let deleted = total - new_rows.len();
            cat.replace_rows(table, new_rows)?;
            Ok(deleted)
        })?;
        self.committed(snapshot);
        Ok(QueryResult {
            columns: vec!["deleted".into()],
            rows: vec![vec![Value::Int(deleted as i64)]],
        })
    }

    // ----------------------------------------------- prepared statements

    /// Prepare (or fetch from the shared cache) a query with a parameter
    /// scope. This is the interpreter's entry point for embedded queries:
    /// the first evaluation — by *any* session attached to this database —
    /// plans and caches; subsequent evaluations re-use the plan. Preparing
    /// refreshes the catalog snapshot, so a plan another session
    /// invalidated with DDL is re-planned here rather than served stale.
    pub fn prepare(&mut self, sql: &str, params: &ParamScope) -> Result<Arc<PreparedPlan>> {
        self.refresh();
        self.cached_or_planned(sql, None, params)
    }

    /// Prepare an already-parsed query under `key`, its printed text: a
    /// cache miss plans `query` itself instead of parsing `key`. The shared
    /// cache is keyed by text and other sessions preparing `key` parse it,
    /// so `plaway_sql::parse_query(key)` must equal `query`.
    ///
    /// Unlike [`Session::prepare`] this does not refresh: it plans against
    /// the snapshot this session already holds. A caller that has just
    /// committed its own input and executes next (the batch trampoline
    /// stages its rows this way) reads exactly the state its commit
    /// installed, never a later one in which another session replaced
    /// those rows.
    pub fn prepare_query_text(
        &mut self,
        key: &str,
        query: &plaway_sql::ast::Query,
        params: &ParamScope,
    ) -> Result<Arc<PreparedPlan>> {
        self.cached_or_planned(key, Some(query), params)
    }

    /// The shared-cache lookup behind every prepare: a hit needs a plan
    /// stamped with this snapshot's schema version; a miss plans `query`
    /// (parsed from `text` when not given) and publishes it.
    fn cached_or_planned(
        &mut self,
        text: &str,
        query: Option<&plaway_sql::ast::Query>,
        params: &ParamScope,
    ) -> Result<Arc<PreparedPlan>> {
        let key = cache_key(text, params, self.config.index_mode);
        if let Some(p) = self.db.cached_plan(&key, self.catalog.schema_version()) {
            self.plan_cache_hits += 1;
            if self.config.trace {
                self.emit_trace("prepare", "\"cache\":\"hit\"");
            }
            return Ok(p);
        }
        self.plan_cache_misses += 1;
        let parsed;
        let (query, printed) = match query {
            Some(q) => (q, text.to_string()),
            None => {
                parsed = plaway_sql::parse_query(text)?;
                (&parsed, parsed.to_string())
            }
        };
        let prepared = Arc::new(plan_printed_query(
            &self.catalog,
            query,
            printed,
            Some(params),
            self.config.index_mode,
        )?);
        self.db.store_plan(key, Arc::clone(&prepared));
        if self.config.trace {
            self.emit_trace("prepare", "\"cache\":\"miss\"");
        }
        Ok(prepared)
    }

    /// Full instrumented lifecycle: Start → Run → End. Each call is one
    /// statement execution for the metrics registry: wall time and the
    /// [`RuntimeStats`] delta are folded into the shared totals (and this
    /// session's [`SessionMetrics`] mirror) on both success and error.
    pub fn execute_prepared(
        &mut self,
        prepared: &Arc<PreparedPlan>,
        params: Vec<Value>,
    ) -> Result<QueryResult> {
        let t0 = Instant::now();
        let before = self.stats;
        let result = self.execute_prepared_inner(prepared, params);
        self.record_statement(t0.elapsed().as_nanos() as u64, &before);
        result
    }

    fn execute_prepared_inner(
        &mut self,
        prepared: &Arc<PreparedPlan>,
        params: Vec<Value>,
    ) -> Result<QueryResult> {
        if !self.track_queries {
            let handle = self.executor_start(prepared, params);
            let rows = self.executor_run(&handle);
            self.executor_end(handle);
            return Ok(QueryResult {
                columns: prepared.columns.clone(),
                rows: rows?,
            });
        }
        // Tracked: attribute each phase to this query's text as well.
        let before = self.profiler;
        let handle = self.executor_start(prepared, params);
        let rows = self.executor_run(&handle);
        self.executor_end(handle);
        let after = self.profiler;
        let entry = self.query_stats.entry(prepared.sql.clone()).or_default();
        entry.start_ns += after.exec_start_ns - before.exec_start_ns;
        entry.run_ns += after.exec_run_ns - before.exec_run_ns;
        entry.end_ns += after.exec_end_ns - before.exec_end_ns;
        entry.count += 1;
        Ok(QueryResult {
            columns: prepared.columns.clone(),
            rows: rows?,
        })
    }

    // ------------------------------------------------- catalog mutation

    /// Bulk insert used by workload generators (skips SQL parsing).
    pub fn bulk_insert(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        self.commit(|cat| cat.bulk_insert(table, rows))
    }

    /// Replace a table's rows wholesale (batch-input staging).
    pub fn replace_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        self.commit(|cat| cat.replace_rows(table, rows))
    }

    /// Create a table, erroring if it exists.
    pub fn create_table(&mut self, name: &str, columns: Vec<Column>) -> Result<()> {
        self.commit(|cat| cat.create_table(name, columns))
    }

    /// Create a table unless a concurrent session already has — the
    /// check and the create run inside one commit, so racing sessions
    /// cannot fail each other.
    pub fn ensure_table(&mut self, name: &str, columns: Vec<Column>) -> Result<()> {
        self.commit(|cat| {
            if cat.has_table(name) {
                return Ok(());
            }
            cat.create_table(name, columns)
        })
    }

    /// `ExecutorStart`: instantiate executor state from the cached plan.
    /// PostgreSQL copies the cached plan tree and runs `ExecInitNode` over
    /// it; that cost is injected as the profile's calibrated start penalty,
    /// while the plan itself stays shared — repeated `execute_prepared`
    /// calls never re-copy or re-plan.
    pub fn executor_start(
        &mut self,
        prepared: &Arc<PreparedPlan>,
        params: Vec<Value>,
    ) -> ExecHandle {
        let t0 = Instant::now();
        let plan = Arc::clone(prepared);
        crate::penalty::charge_start_penalty(&self.config, &mut self.stats);
        self.profiler.add(Phase::ExecStart, t0.elapsed());
        if self.config.trace {
            self.emit_trace("start", "");
        }
        ExecHandle { plan, params }
    }

    /// `ExecutorRun`: evaluate the instantiated plan.
    pub fn executor_run(&mut self, handle: &ExecHandle) -> Result<Vec<Row>> {
        let t0 = Instant::now();
        let result = {
            let mut rt = self.runtime();
            let env = EvalEnv {
                scopes: None,
                params: &handle.params,
            };
            exec(&handle.plan.plan, &env, &mut rt)
        };
        let elapsed = t0.elapsed();
        self.profiler.add(Phase::ExecRun, elapsed);
        if self.config.trace {
            match &result {
                Ok(rows) => self.emit_trace(
                    "run",
                    &format!("\"ns\":{},\"rows\":{}", elapsed.as_nanos(), rows.len()),
                ),
                Err(Error::Raised { condition, .. }) => self.emit_trace(
                    "raise_unwind",
                    &format!("\"condition\":{}", json_string(condition)),
                ),
                Err(_) => self.emit_trace("run", "\"error\":true"),
            }
        }
        result
    }

    /// `ExecutorEnd`: tear down the executor state.
    pub fn executor_end(&mut self, handle: ExecHandle) {
        let t0 = Instant::now();
        drop(handle);
        crate::penalty::charge_end_penalty(&self.config, &mut self.stats);
        self.profiler.add(Phase::ExecEnd, t0.elapsed());
        if self.config.trace {
            self.emit_trace("end", "");
        }
    }

    // ------------------------------------------------------ observability

    /// Fold one finished statement into the shared metrics registry and
    /// this session's mirror. `before` is the [`RuntimeStats`] copy taken
    /// at statement entry.
    fn record_statement(&mut self, ns: u64, before: &RuntimeStats) {
        let delta = self.stats.delta_since(before);
        self.metrics.record_statement(ns, &delta);
        self.db.record_statement(ns, &delta);
    }

    /// Append one structured trace event (callers gate on `config.trace`).
    /// Every event carries the session id and the catalog version the
    /// session currently reads; `extra` is pre-rendered `"key":value`
    /// JSON, comma-joined into the object.
    fn emit_trace(&self, event: &str, extra: &str) {
        let mut line = format!(
            "{{\"event\":{},\"session\":{},\"catalog_version\":{}",
            json_string(event),
            self.id,
            self.catalog.version
        );
        if !extra.is_empty() {
            line.push(',');
            line.push_str(extra);
        }
        line.push('}');
        self.db.trace_event(line);
    }

    // ---------------------------------------------- expression fast path

    /// Compile a bare scalar expression against a parameter scope (the
    /// PL/pgSQL "simple expression" path), lowered for the VM like every
    /// planned expression.
    pub fn compile_expr(
        &mut self,
        expr: &plaway_sql::ast::Expr,
        params: &ParamScope,
    ) -> Result<ExprIr> {
        let mut ir = plan_expr(&self.catalog, expr, Some(params), self.config.index_mode)?;
        crate::vm::lower(&mut ir);
        Ok(ir)
    }

    /// Evaluate a compiled expression with bound parameters. Timing is the
    /// caller's business (the interpreter buckets this under Exec·Run, like
    /// PostgreSQL's `exec_eval_simple_expr`). The VM stack is the session's
    /// own, so a simple expression allocates none per call.
    pub fn eval_expr(&mut self, ir: &ExprIr, params: &[Value]) -> Result<Value> {
        let stack = std::mem::take(&mut self.vm_stack);
        let (result, stack) = {
            let mut rt = self.runtime();
            rt.vm_stack = stack;
            let env = EvalEnv {
                scopes: None,
                params,
            };
            (eval(ir, &env, &mut rt), std::mem::take(&mut rt.vm_stack))
        };
        self.vm_stack = stack;
        result
    }

    pub(crate) fn runtime(&mut self) -> Runtime<'_> {
        Runtime {
            catalog: &self.catalog,
            rng: &mut self.rng,
            buffers: &mut self.buffers,
            stats: &mut self.stats,
            fn_plans: &mut self.fn_plans,
            config: &self.config,
            ctes: HashMap::new(),
            working: HashMap::new(),
            udf_depth: 0,
            vm_stack: Vec::new(),
            memo: crate::memo::MemoCache::default(),
            snapshots: crate::tuplestore::SnapshotStore::default(),
            analyze: self.analyze.as_mut(),
        }
    }

    /// Like [`Session::runtime`] but reading an explicit catalog — the
    /// in-flight clone inside a [`Database::commit`] closure, so DML
    /// source queries see their own commit's state.
    fn runtime_for<'a>(&'a mut self, catalog: &'a Catalog) -> Runtime<'a> {
        Runtime {
            catalog,
            rng: &mut self.rng,
            buffers: &mut self.buffers,
            stats: &mut self.stats,
            fn_plans: &mut self.fn_plans,
            config: &self.config,
            ctes: HashMap::new(),
            working: HashMap::new(),
            udf_depth: 0,
            vm_stack: Vec::new(),
            memo: crate::memo::MemoCache::default(),
            snapshots: crate::tuplestore::SnapshotStore::default(),
            // DML source queries run inside commit closures; EXPLAIN
            // ANALYZE rejects DML, so there is never a sink to thread here.
            analyze: None,
        }
    }
}

fn cache_key(sql: &str, params: &ParamScope, index_mode: IndexMode) -> String {
    // Plans depend on the access-path policy; sessions running a force mode
    // (the differential harness) must not share cache entries with Auto
    // sessions attached to the same database. Auto keys stay unchanged.
    let mode_tag = match index_mode {
        IndexMode::Auto => "",
        IndexMode::ForceOn => "\u{2}idx+",
        IndexMode::ForceOff => "\u{2}idx-",
    };
    // The tier mode needs no tag: plans carry the same recognized
    // transitions in every mode, and only the fixpoint driver reads it.
    if params.names.is_empty() {
        format!("{sql}{mode_tag}")
    } else {
        format!("{sql}\u{1}{}{mode_tag}", params.names.join("\u{1}"))
    }
}

/// Minimal JSON string encoder for trace events (no serde in the tree).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        let mut s = Session::default();
        s.run("CREATE TABLE t (a int, b text, c float8)").unwrap();
        s.run("INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5), (3, 'three', 3.5)")
            .unwrap();
        s
    }

    #[test]
    fn select_constant() {
        let mut s = Session::default();
        assert_eq!(s.query_scalar("SELECT 1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(
            s.query_scalar("SELECT 'a' || 'b' || 'c'").unwrap(),
            Value::text("abc")
        );
    }

    #[test]
    fn select_where_order_limit() {
        let mut s = session();
        let r = s
            .run("SELECT b FROM t WHERE a >= 2 ORDER BY a DESC LIMIT 1")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::text("three")]]);
    }

    #[test]
    fn qualified_and_aliased() {
        let mut s = session();
        let r = s
            .run("SELECT x.a + 10 AS shifted FROM t AS x WHERE x.b = 'two'")
            .unwrap();
        assert_eq!(r.columns, vec!["shifted"]);
        assert_eq!(r.rows, vec![vec![Value::Int(12)]]);
    }

    #[test]
    fn cross_and_inner_join() {
        let mut s = session();
        s.run("CREATE TABLE u (a int, d text)").unwrap();
        s.run("INSERT INTO u VALUES (2, 'x'), (3, 'y')").unwrap();
        let r = s
            .run("SELECT t.b, u.d FROM t JOIN u ON t.a = u.a ORDER BY t.a")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::text("two"), Value::text("x")],
                vec![Value::text("three"), Value::text("y")],
            ]
        );
        let cross = s.run("SELECT count(*) FROM t, u").unwrap();
        assert_eq!(cross.rows[0][0], Value::Int(6));
    }

    #[test]
    fn left_join_pads_nulls() {
        let mut s = session();
        s.run("CREATE TABLE u (a int, d text)").unwrap();
        s.run("INSERT INTO u VALUES (1, 'x')").unwrap();
        let r = s
            .run("SELECT t.a, u.d FROM t LEFT JOIN u ON t.a = u.a ORDER BY t.a")
            .unwrap();
        assert_eq!(r.rows[0], vec![Value::Int(1), Value::text("x")]);
        assert_eq!(r.rows[1], vec![Value::Int(2), Value::Null]);
        assert_eq!(r.rows[2], vec![Value::Int(3), Value::Null]);
    }

    #[test]
    fn lateral_sees_left_row() {
        let mut s = session();
        let r = s
            .run(
                "SELECT t.a, s.double FROM t, LATERAL (SELECT t.a * 2) AS s(double) \
                 ORDER BY t.a",
            )
            .unwrap();
        assert_eq!(r.rows[2], vec![Value::Int(3), Value::Int(6)]);
    }

    #[test]
    fn left_join_lateral_chain_like_figure7() {
        // The compiler's `let` chains produce exactly this shape.
        let mut s = Session::default();
        let r = s
            .run(
                "SELECT x, y, z FROM (SELECT 1) AS _0(x) \
                 LEFT JOIN LATERAL (SELECT x + 1) AS _1(y) ON true \
                 LEFT JOIN LATERAL (SELECT x + y) AS _2(z) ON true",
            )
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::Int(1), Value::Int(2), Value::Int(3)]]
        );
    }

    #[test]
    fn scalar_subquery_correlated() {
        let mut s = session();
        s.run("CREATE TABLE u (a int, d int)").unwrap();
        s.run("INSERT INTO u VALUES (1, 100), (2, 200)").unwrap();
        let r = s
            .run("SELECT t.a, (SELECT u.d FROM u WHERE u.a = t.a) FROM t ORDER BY t.a")
            .unwrap();
        assert_eq!(r.rows[0][1], Value::Int(100));
        assert_eq!(r.rows[1][1], Value::Int(200));
        assert_eq!(r.rows[2][1], Value::Null); // no match -> NULL
    }

    /// `big(k, v)`: 50 rows, `k` from 0 to 49 and `v = 10 * k`.
    fn add_big(s: &mut Session) {
        s.run("CREATE TABLE big (k int, v int)").unwrap();
        let rows = (0..50).map(|k| vec![Value::Int(k), Value::Int(k * 10)]);
        s.bulk_insert("big", rows.collect()).unwrap();
    }

    #[test]
    fn subquery_multiple_rows_errors() {
        let mut s = session();
        let err = s.run("SELECT (SELECT a FROM t)").unwrap_err();
        assert!(err.to_string().contains("more than one row"), "{err}");
        // PostgreSQL's text, raised at the second row: the sub-plan never
        // reaches `k = 3`, which divides by zero.
        add_big(&mut s);
        let err = s.run("SELECT (SELECT 10 / (3 - k) FROM big)").unwrap_err();
        assert_eq!(
            err.to_string(),
            Error::exec("more than one row returned by a subquery used as an expression")
                .to_string()
        );
    }

    #[test]
    fn aggregates_scalar_and_grouped() {
        let mut s = session();
        let r = s
            .run("SELECT count(*), sum(a), min(b), max(c), avg(a) FROM t")
            .unwrap();
        assert_eq!(
            r.rows[0],
            vec![
                Value::Int(3),
                Value::Int(6),
                Value::text("one"),
                Value::Float(3.5),
                Value::Float(2.0),
            ]
        );
        // Scalar aggregation over an empty input still yields one row.
        let r = s
            .run("SELECT count(*), sum(a) FROM t WHERE a > 100")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(0), Value::Null]]);

        s.run("CREATE TABLE g (k int, v int)").unwrap();
        s.run("INSERT INTO g VALUES (1, 10), (1, 20), (2, 30)")
            .unwrap();
        let r = s
            .run("SELECT k, sum(v) FROM g GROUP BY k ORDER BY k")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::Int(30)],
                vec![Value::Int(2), Value::Int(30)],
            ]
        );
        let r = s
            .run("SELECT k FROM g GROUP BY k HAVING count(*) > 1")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn group_by_expression_reuse() {
        let mut s = session();
        let r = s
            .run("SELECT a % 2, count(*) FROM t GROUP BY a % 2 ORDER BY 1")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(0), Value::Int(1)],
                vec![Value::Int(1), Value::Int(2)],
            ]
        );
    }

    #[test]
    fn ungrouped_column_is_an_error() {
        let mut s = session();
        let err = s.run("SELECT b, count(*) FROM t GROUP BY a").unwrap_err();
        assert!(err.to_string().contains("does not exist"), "{err}");
    }

    #[test]
    fn window_running_sum_with_exclusion() {
        // The paper's Q2 shape: cumulative distribution via two windows.
        let mut s = Session::default();
        s.run("CREATE TABLE p (k text, prob float8)").unwrap();
        s.run("INSERT INTO p VALUES ('a', 0.8), ('b', 0.1), ('c', 0.1)")
            .unwrap();
        let r = s
            .run(
                "SELECT k, COALESCE(SUM(prob) OVER lt, 0.0) AS lo, SUM(prob) OVER leq AS hi \
                 FROM p \
                 WINDOW leq AS (ORDER BY k), \
                        lt AS (leq ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW) \
                 ORDER BY k",
            )
            .unwrap();
        let get = |i: usize, j: usize| r.rows[i][j].as_float().unwrap();
        assert!((get(0, 1) - 0.0).abs() < 1e-9);
        assert!((get(0, 2) - 0.8).abs() < 1e-9);
        assert!((get(1, 1) - 0.8).abs() < 1e-9);
        assert!((get(1, 2) - 0.9).abs() < 1e-9);
        assert!((get(2, 1) - 0.9).abs() < 1e-9);
        assert!((get(2, 2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn window_rank_family_and_partitions() {
        let mut s = Session::default();
        s.run("CREATE TABLE w (p int, v int)").unwrap();
        s.run("INSERT INTO w VALUES (1, 10), (1, 10), (1, 20), (2, 5)")
            .unwrap();
        let r = s
            .run(
                "SELECT p, v, row_number() OVER win, rank() OVER win, dense_rank() OVER win \
                 FROM w WINDOW win AS (PARTITION BY p ORDER BY v) ORDER BY p, v",
            )
            .unwrap();
        // partition 1: (10: rn1 rank1 dr1), (10: rn2 rank1 dr1), (20: rn3 rank3 dr2)
        assert_eq!(
            r.rows[0][2..],
            [Value::Int(1), Value::Int(1), Value::Int(1)]
        );
        assert_eq!(
            r.rows[1][2..],
            [Value::Int(2), Value::Int(1), Value::Int(1)]
        );
        assert_eq!(
            r.rows[2][2..],
            [Value::Int(3), Value::Int(3), Value::Int(2)]
        );
        assert_eq!(
            r.rows[3][2..],
            [Value::Int(1), Value::Int(1), Value::Int(1)]
        );
    }

    #[test]
    fn range_frame_includes_peers() {
        // Default RANGE frame: peers of the current row are in the frame.
        let mut s = Session::default();
        s.run("CREATE TABLE w (v int)").unwrap();
        s.run("INSERT INTO w VALUES (1), (1), (2)").unwrap();
        let r = s
            .run("SELECT v, sum(v) OVER (ORDER BY v) FROM w ORDER BY v")
            .unwrap();
        // Rows with v=1 are peers: both see sum 2.
        assert_eq!(r.rows[0][1], Value::Int(2));
        assert_eq!(r.rows[1][1], Value::Int(2));
        assert_eq!(r.rows[2][1], Value::Int(4));
    }

    #[test]
    fn window_lag_lead_first_last() {
        let mut s = Session::default();
        s.run("CREATE TABLE w (v int)").unwrap();
        s.run("INSERT INTO w VALUES (10), (20), (30)").unwrap();
        let r = s
            .run(
                "SELECT v, lag(v) OVER win, lead(v) OVER win,                         first_value(v) OVER win, last_value(v) OVER full                  FROM w                  WINDOW win AS (ORDER BY v),                         full AS (ORDER BY v ROWS BETWEEN UNBOUNDED PRECEDING                                  AND UNBOUNDED FOLLOWING)                  ORDER BY v",
            )
            .unwrap();
        assert_eq!(
            r.rows[0],
            vec![
                Value::Int(10),
                Value::Null,
                Value::Int(20),
                Value::Int(10),
                Value::Int(30)
            ]
        );
        assert_eq!(
            r.rows[1],
            vec![
                Value::Int(20),
                Value::Int(10),
                Value::Int(30),
                Value::Int(10),
                Value::Int(30)
            ]
        );
        assert_eq!(r.rows[2][2], Value::Null, "lead at the end is NULL");
    }

    #[test]
    fn window_bounded_rows_frame() {
        let mut s = Session::default();
        s.run("CREATE TABLE w (v int)").unwrap();
        s.run("INSERT INTO w VALUES (1), (2), (3), (4), (5)")
            .unwrap();
        let r = s
            .run(
                "SELECT v, sum(v) OVER (ORDER BY v ROWS BETWEEN 1 PRECEDING                  AND 1 FOLLOWING) FROM w ORDER BY v",
            )
            .unwrap();
        let sums: Vec<i64> = r.rows.iter().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(sums, vec![3, 6, 9, 12, 9], "sliding 3-row sums");
    }

    #[test]
    fn distinct_and_set_ops() {
        let mut s = session();
        let r = s.run("SELECT DISTINCT a % 2 FROM t ORDER BY 1").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(0)], vec![Value::Int(1)]]);
        let r = s
            .run("SELECT 1 UNION SELECT 1 UNION SELECT 2 ORDER BY 1")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = s.run("SELECT 1 UNION ALL SELECT 1").unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = s.run("SELECT a FROM t EXCEPT SELECT 2 ORDER BY a").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
        let r = s.run("SELECT a FROM t INTERSECT SELECT 2").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn exists_and_in() {
        let mut s = session();
        assert_eq!(
            s.query_scalar("SELECT EXISTS (SELECT 1 FROM t WHERE a = 2)")
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            s.query_scalar("SELECT 2 IN (SELECT a FROM t)").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            s.query_scalar("SELECT 99 IN (SELECT a FROM t)").unwrap(),
            Value::Bool(false)
        );
        // NULL semantics of NOT IN.
        s.run("INSERT INTO t VALUES (NULL, 'n', 0.0)").unwrap();
        assert_eq!(
            s.query_scalar("SELECT 99 NOT IN (SELECT a FROM t)")
                .unwrap(),
            Value::Null
        );
        // EXISTS stops its sub-plan at the first row, as PostgreSQL does:
        // `k = 3` would divide by zero.
        add_big(&mut s);
        assert_eq!(
            s.query_scalar("SELECT EXISTS (SELECT 10 / (3 - k) FROM big)")
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            s.query_scalar("SELECT NOT EXISTS (SELECT 10 / (3 - k) FROM big)")
                .unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn recursive_cte_counts_to_five() {
        let mut s = Session::default();
        let r = s
            .run(
                "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c WHERE x < 5) \
                 SELECT sum(x) FROM c",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(15));
    }

    #[test]
    fn recursive_union_dedups() {
        // UNION (not ALL) terminates cycles by deduplication.
        let mut s = Session::default();
        let r = s
            .run(
                "WITH RECURSIVE c(x) AS (SELECT 1 UNION SELECT (x % 3) + 1 FROM c) \
                 SELECT count(*) FROM c",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn with_iterate_keeps_only_final_rows() {
        // Only the last non-empty working table survives: for a pipeline
        // arm, for a self-join arm (the general plan over the whole working
        // table), and under UNION, whose dedup drops the repeat that closes
        // the cycle 1 → 2 → 3 → 1.
        for (arm, last) in [
            ("UNION ALL SELECT x + 1 FROM c WHERE x < 5", 5),
            ("UNION ALL SELECT c.x + d.x FROM c, c AS d WHERE c.x < 8", 8),
            ("UNION SELECT (x % 3) + 1 FROM c", 3),
        ] {
            let mut s = Session::default();
            let r = s
                .run(&format!(
                    "WITH ITERATE c(x) AS (SELECT 1 {arm}) SELECT x FROM c"
                ))
                .unwrap();
            assert_eq!(r.rows, vec![vec![Value::Int(last)]], "{arm}");
        }
    }

    #[test]
    fn with_retire_retires_each_row_when_it_finishes() {
        // Three activations with different lifetimes: each leaves the
        // working set the iteration its own filter fails, and the final
        // result is the union of the retired rows — not just the last
        // working table. Under UNION the duplicate seed (3, 5) is
        // deduplicated before the first iteration, so the same three
        // activations run.
        for (seeds, union) in [
            ("(1, 1), (2, 3), (3, 5)", "UNION ALL"),
            ("(1, 1), (2, 3), (3, 5), (3, 5)", "UNION"),
        ] {
            let mut s = Session::default();
            s.run("CREATE TABLE seeds (id int, lim int)").unwrap();
            s.run(&format!("INSERT INTO seeds VALUES {seeds}")).unwrap();
            let r = s
                .run(&format!(
                    "WITH RETIRE c(id, lim, x) AS (SELECT id, lim, 0 FROM seeds \
                     {union} SELECT id, lim, x + 1 FROM c WHERE x < lim) \
                     SELECT id, x FROM c ORDER BY id"
                ))
                .unwrap();
            assert_eq!(
                r.rows,
                vec![
                    vec![Value::Int(1), Value::Int(1)],
                    vec![Value::Int(2), Value::Int(3)],
                    vec![Value::Int(3), Value::Int(5)],
                ],
                "{union}"
            );
            // The retire driver's working-set accounting saw all three in
            // flight at the high-water mark, and all three retire.
            assert_eq!(s.stats.batch.batch_rows_in_flight, 3, "{union}");
            assert_eq!(s.stats.batch.batch_rows_retired, 3, "{union}");
        }
    }

    #[test]
    fn with_retire_rejects_non_pipeline_recursive_arm() {
        // A self-join in the recursive arm has no single working row to
        // retire; the driver must refuse rather than guess.
        let mut s = session();
        let err = s
            .run(
                "WITH RETIRE c(x) AS (SELECT 1 \
                 UNION ALL SELECT c.x + d.x FROM c, c AS d WHERE c.x < 3) \
                 SELECT x FROM c",
            )
            .unwrap_err();
        assert!(
            err.to_string().contains("pipeline-shaped"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn iterate_writes_no_buffer_pages_recursive_does() {
        let mut s = Session::default();
        s.config.work_mem_bytes = 1024; // force early spill
        let sql_rec = "WITH RECURSIVE c(x, pad) AS (SELECT 1, repeat('x', 100) \
                       UNION ALL SELECT x + 1, pad FROM c WHERE x < 200) \
                       SELECT count(*) FROM c";
        s.run(sql_rec).unwrap();
        assert!(s.buffers.page_writes > 0, "RECURSIVE must spill");
        let pages_rec = s.buffers.page_writes;
        s.reset_instrumentation();
        let sql_iter = sql_rec.replace("WITH RECURSIVE", "WITH ITERATE");
        s.run(&sql_iter).unwrap();
        assert_eq!(s.buffers.page_writes, 0, "ITERATE must not spill");
        assert!(pages_rec > 0);
    }

    #[test]
    fn plain_cte_materializes_once() {
        let mut s = session();
        let r = s
            .run("WITH big (v) AS (SELECT a * 10 FROM t) SELECT sum(v) FROM big")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(60));
    }

    #[test]
    fn sql_udf_simple_and_nested() {
        let mut s = session();
        s.run("CREATE FUNCTION double(x int) RETURNS int AS $$ SELECT x * 2 $$ LANGUAGE SQL")
            .unwrap();
        assert_eq!(s.query_scalar("SELECT double(21)").unwrap(), Value::Int(42));
        s.run("CREATE FUNCTION quad(x int) RETURNS int AS $$ SELECT double(double(x)) $$ LANGUAGE SQL")
            .unwrap();
        assert_eq!(s.query_scalar("SELECT quad(1)").unwrap(), Value::Int(4));
        // UDFs work inside queries over tables.
        let r = s.run("SELECT double(a) FROM t ORDER BY a").unwrap();
        assert_eq!(r.rows[2][0], Value::Int(6));
    }

    #[test]
    fn recursive_sql_udf_runs_and_hits_depth_limit() {
        let mut s = Session::default();
        s.run(
            "CREATE FUNCTION fact(n int) RETURNS int AS $$ \
             SELECT CASE WHEN n <= 1 THEN 1 ELSE n * fact(n - 1) END $$ LANGUAGE SQL",
        )
        .unwrap();
        assert_eq!(
            s.query_scalar("SELECT fact(10)").unwrap(),
            Value::Int(3628800)
        );
        // The paper: "we quickly hit default stack depth limits".
        s.config.max_udf_depth = 32;
        let err = s.query_scalar("SELECT fact(100)").unwrap_err();
        assert!(err.to_string().contains("stack depth"), "{err}");
    }

    #[test]
    fn plpgsql_function_cannot_run_in_sql() {
        let mut s = Session::default();
        s.run("CREATE FUNCTION f(n int) RETURNS int AS $$ BEGIN RETURN n; END $$ LANGUAGE PLPGSQL")
            .unwrap();
        let err = s.query_scalar("SELECT f(1)").unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err}");
    }

    #[test]
    fn plan_cache_hits_and_invalidation() {
        let mut s = session();
        let ps = ParamScope::default();
        s.prepare("SELECT count(*) FROM t", &ps).unwrap();
        assert_eq!(s.plan_cache_misses, 1);
        s.prepare("SELECT count(*) FROM t", &ps).unwrap();
        assert_eq!(s.plan_cache_hits, 1);
        // DDL invalidates.
        s.run("CREATE TABLE zz (x int)").unwrap();
        s.prepare("SELECT count(*) FROM t", &ps).unwrap();
        assert_eq!(s.plan_cache_misses, 2, "DDL must invalidate and re-plan");
    }

    #[test]
    fn params_bind_plpgsql_style() {
        let mut s = session();
        let ps = ParamScope::new(vec!["needle".into()]);
        // `needle` is not a column of t -> resolves as a parameter.
        let plan = s.prepare("SELECT b FROM t WHERE a = needle", &ps).unwrap();
        let r = s.execute_prepared(&plan, vec![Value::Int(2)]).unwrap();
        assert_eq!(r.rows, vec![vec![Value::text("two")]]);
        let r = s.execute_prepared(&plan, vec![Value::Int(3)]).unwrap();
        assert_eq!(r.rows, vec![vec![Value::text("three")]]);
    }

    #[test]
    fn columns_shadow_params() {
        let mut s = session();
        // `a` is a column of t; the parameter of the same name loses.
        let ps = ParamScope::new(vec!["a".into()]);
        let plan = s
            .prepare("SELECT count(*) FROM t WHERE a = 2", &ps)
            .unwrap();
        let r = s.execute_prepared(&plan, vec![Value::Int(999)]).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1));
    }

    #[test]
    fn profiler_accumulates_lifecycle_phases() {
        let mut s = session();
        s.reset_instrumentation();
        let ps = ParamScope::default();
        let plan = s.prepare("SELECT count(*) FROM t", &ps).unwrap();
        for _ in 0..10 {
            s.execute_prepared(&plan, vec![]).unwrap();
        }
        assert_eq!(s.profiler.start_count, 10);
        assert_eq!(s.profiler.end_count, 10);
        assert!(s.profiler.exec_start_ns > 0);
        assert!(s.profiler.exec_run_ns > 0);
    }

    #[test]
    fn index_lookup_used_for_point_queries() {
        let mut s = Session::default();
        s.run("CREATE TABLE big (k int, v int)").unwrap();
        let rows: Vec<Row> = (0..1000)
            .map(|i| vec![Value::Int(i), Value::Int(i * i)])
            .collect();
        s.bulk_insert("big", rows).unwrap();
        s.run("CREATE INDEX big_k ON big (k)").unwrap();
        let ps = ParamScope::new(vec!["needle".into()]);
        let plan = s
            .prepare("SELECT v FROM big WHERE k = needle", &ps)
            .unwrap();
        assert!(
            plan.plan.explain().contains("IndexLookup"),
            "expected index plan, got:\n{}",
            plan.plan.explain()
        );
        s.stats.reset();
        let r = s.execute_prepared(&plan, vec![Value::Int(31)]).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(961)]]);
        assert!(
            s.stats.rows_scanned < 10,
            "index lookup should not scan the table ({} rows scanned)",
            s.stats.rows_scanned
        );
    }

    #[test]
    fn limit_offset_bounds_the_scan() {
        let mut s = Session::default();
        s.run("CREATE TABLE big (k int, v int)").unwrap();
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|k| vec![Value::Int(k), Value::Int(k * 10)])
            .collect();
        s.bulk_insert("big", rows).unwrap();
        s.stats.reset();
        let r = s
            .run("SELECT q.v FROM (SELECT big.v AS v FROM big) AS q LIMIT 1 OFFSET 3")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(30)]]);
        assert!(
            s.stats.rows_scanned <= 4,
            "LIMIT 1 OFFSET 3 must stop the scan after 4 rows ({} scanned)",
            s.stats.rows_scanned
        );
        // Rows past the limit are never projected: `k = 3` divides by zero.
        let r = s.run("SELECT 10 / (3 - k) FROM big LIMIT 3").unwrap();
        let want: Vec<Row> = [3, 5, 10].map(|v| vec![Value::Int(v)]).into();
        assert_eq!(r.rows, want);
        // Sanity: without the limit the whole table is scanned.
        s.stats.reset();
        s.run("SELECT q.v FROM (SELECT big.v AS v FROM big) AS q")
            .unwrap();
        assert_eq!(s.stats.rows_scanned, 500);
    }

    #[test]
    fn insert_with_column_list_and_select() {
        let mut s = session();
        s.run("CREATE TABLE copy (b text, a int)").unwrap();
        s.run("INSERT INTO copy (a, b) SELECT a, b FROM t").unwrap();
        let r = s.run("SELECT b, a FROM copy ORDER BY a").unwrap();
        assert_eq!(r.rows[0], vec![Value::text("one"), Value::Int(1)]);
        // Unlisted columns become NULL.
        s.run("INSERT INTO copy (a) VALUES (9)").unwrap();
        let r = s.run("SELECT b FROM copy WHERE a = 9").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Null]]);
    }

    #[test]
    fn update_and_delete() {
        let mut s = session();
        let r = s.run("UPDATE t SET a = a + 10 WHERE b = 'two'").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1));
        assert_eq!(
            s.query_scalar("SELECT a FROM t WHERE b = 'two'").unwrap(),
            Value::Int(12)
        );
        let r = s.run("DELETE FROM t WHERE a > 10").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1));
        assert_eq!(
            s.query_scalar("SELECT count(*) FROM t").unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn random_is_seeded_and_in_range() {
        let mut a = Session::default();
        let mut b = Session::default();
        a.set_seed(7);
        b.set_seed(7);
        let va = a.query_scalar("SELECT random()").unwrap();
        let vb = b.query_scalar("SELECT random()").unwrap();
        assert_eq!(va, vb);
        let f = va.as_float().unwrap();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn values_and_rows() {
        let mut s = Session::default();
        let r = s.run("VALUES (1, 'a'), (2, 'b')").unwrap();
        assert_eq!(r.columns, vec!["column1", "column2"]);
        assert_eq!(r.rows.len(), 2);
        let v = s.query_scalar("SELECT ROW(1, 'x', NULL)").unwrap();
        assert_eq!(
            v,
            Value::record(vec![Value::Int(1), Value::text("x"), Value::Null])
        );
        assert_eq!(
            s.query_scalar("SELECT row_field(ROW(7, 8), 2)").unwrap(),
            Value::Int(8)
        );
    }

    #[test]
    fn order_by_hidden_column() {
        let mut s = session();
        // ORDER BY an expression not in the select list.
        let r = s.run("SELECT b FROM t ORDER BY a * -1").unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::text("three")],
                vec![Value::text("two")],
                vec![Value::text("one")],
            ]
        );
        // Hidden columns must not leak into the output.
        assert_eq!(r.columns, vec!["b"]);
        assert_eq!(r.rows[0].len(), 1);
    }

    #[test]
    fn nulls_ordering_defaults() {
        let mut s = Session::default();
        s.run("CREATE TABLE n (v int)").unwrap();
        s.run("INSERT INTO n VALUES (2), (NULL), (1)").unwrap();
        let r = s.run("SELECT v FROM n ORDER BY v").unwrap();
        assert_eq!(r.rows[2][0], Value::Null, "NULLS LAST for ASC");
        let r = s.run("SELECT v FROM n ORDER BY v DESC").unwrap();
        assert_eq!(r.rows[0][0], Value::Null, "NULLS FIRST for DESC");
        let r = s.run("SELECT v FROM n ORDER BY v NULLS FIRST").unwrap();
        assert_eq!(r.rows[0][0], Value::Null);
    }

    #[test]
    fn table_string_rendering() {
        let mut s = session();
        let r = s.run("SELECT a, b FROM t WHERE a = 1").unwrap();
        let text = r.to_table_string();
        assert!(text.contains('a') && text.contains("one"), "{text}");
        assert!(text.contains("(1 row)"), "{text}");
    }

    #[test]
    fn reset_instrumentation_zeroes_every_counter() {
        let mut s = session();
        s.track_queries = true;
        s.config.work_mem_bytes = 1024; // force buffer spills
        s.run("CREATE FUNCTION dbl(x int) RETURNS int AS $$ SELECT x * 2 $$ LANGUAGE SQL")
            .unwrap();
        // Recursive CTE with a fat pad: recursive_iterations + spills.
        s.run(
            "WITH RECURSIVE c(x, pad) AS (SELECT 1, repeat('x', 100) \
             UNION ALL SELECT x + 1, pad FROM c WHERE x < 50) \
             SELECT count(*) FROM c",
        )
        .unwrap();
        // UDF call, correlated subplan, base-table scan; run twice for a
        // plan-cache hit on top of the misses.
        s.run("SELECT dbl(a), (SELECT t.a) FROM t").unwrap();
        s.run("SELECT dbl(a), (SELECT t.a) FROM t").unwrap();
        // Counters only the PL/pgSQL layers drive (compiled row-loop
        // snapshots, the retire trampoline, interpreter time) are poked
        // directly — this test is about the reset, not the sources.
        s.profiler
            .add(Phase::Interp, std::time::Duration::from_nanos(5));
        s.stats.snapshots_materialized += 1;
        s.stats.snapshots_released += 1;
        s.stats.index_probes += 1;
        s.stats.batch.batch_rows_in_flight += 1;
        s.stats.batch.batch_rows_retired += 1;
        s.stats.tier.tier_promotions += 1;
        s.stats.tier.tier_mono_rows += 1;
        s.stats.memo_hits += 1;
        s.stats.memo_misses += 1;

        // Sanity: every counter group is hot before the reset.
        assert!(s.profiler.exec_start_ns > 0 && s.profiler.start_count > 0);
        assert!(s.profiler.exec_run_ns > 0 && s.profiler.interp_ns > 0);
        assert!(s.buffers.page_writes > 0 && s.buffers.peak_bytes > 0);
        assert!(s.stats.recursive_iterations > 0 && s.stats.rows_scanned > 0);
        assert!(s.stats.udf_calls > 0 && s.stats.subplan_evals > 0);
        assert!(s.stats.max_udf_depth > 0);
        assert!(s.stats.start_penalty_charges > 0 && s.stats.end_penalty_charges > 0);
        assert!(s.plan_cache_hits > 0 && s.plan_cache_misses > 0);
        assert!(!s.query_stats.is_empty());

        s.reset_instrumentation();

        // Exhaustive `..`-free destructuring: adding a counter to any of
        // these structs refuses to compile until this test (and with it
        // the reset audit) is updated.
        let Profiler {
            exec_start_ns,
            exec_run_ns,
            exec_end_ns,
            interp_ns,
            start_count,
            run_count,
            end_count,
        } = s.profiler;
        assert_eq!(
            (exec_start_ns, exec_run_ns, exec_end_ns, interp_ns),
            (0, 0, 0, 0)
        );
        assert_eq!((start_count, run_count, end_count), (0, 0, 0));
        let BufferStats {
            page_writes,
            spilled_bytes,
            peak_bytes,
        } = s.buffers;
        assert_eq!((page_writes, spilled_bytes, peak_bytes), (0, 0, 0));
        let RuntimeStats {
            recursive_iterations,
            subplan_evals,
            udf_calls,
            rows_scanned,
            index_probes,
            max_udf_depth,
            snapshots_materialized,
            snapshots_released,
            start_penalty_charges,
            end_penalty_charges,
            vm_ops_executed,
            fused_transition_rows,
            batch,
            tier,
            memo_hits,
            memo_misses,
        } = s.stats;
        assert_eq!(
            (recursive_iterations, subplan_evals, udf_calls, rows_scanned),
            (0, 0, 0, 0)
        );
        assert_eq!(max_udf_depth, 0);
        assert_eq!((snapshots_materialized, snapshots_released), (0, 0));
        assert_eq!(index_probes, 0);
        assert_eq!((start_penalty_charges, end_penalty_charges), (0, 0));
        assert_eq!((vm_ops_executed, fused_transition_rows), (0, 0));
        assert_eq!((memo_hits, memo_misses), (0, 0));
        let crate::profile::BatchCounters {
            batch_rows_in_flight,
            batch_rows_retired,
        } = batch;
        assert_eq!((batch_rows_in_flight, batch_rows_retired), (0, 0));
        let crate::profile::TierCounters {
            tier_promotions,
            tier_mono_rows,
        } = tier;
        assert_eq!((tier_promotions, tier_mono_rows), (0, 0));
        assert_eq!((s.plan_cache_hits, s.plan_cache_misses), (0, 0));
        assert!(s.query_stats.is_empty());
    }

    #[test]
    fn sessions_share_plans_and_see_commits() {
        // Two sessions over one database: B reuses A's plan via the shared
        // cache and reads rows A committed.
        let db = Database::new(EngineConfig::raw());
        let mut a = db.session();
        let mut b = db.session();
        a.run("CREATE TABLE t (x int)").unwrap();
        a.run("INSERT INTO t VALUES (1), (2)").unwrap();
        let ps = ParamScope::default();
        a.prepare("SELECT count(*) FROM t", &ps).unwrap();
        let hits0 = db.plan_cache_stats().hits;
        b.prepare("SELECT count(*) FROM t", &ps).unwrap();
        assert_eq!(b.plan_cache_hits, 1, "B must reuse A's cached plan");
        assert!(db.plan_cache_stats().hits > hits0);
        assert_eq!(
            b.query_scalar("SELECT count(*) FROM t").unwrap(),
            Value::Int(2),
            "B sees A's committed rows"
        );
    }

    #[test]
    fn error_mentions_statement() {
        let mut s = Session::default();
        let err = s.run("SELECT nope FROM nowhere").unwrap_err();
        assert!(err.to_string().contains("nowhere"), "{err}");
    }

    fn plan_text(r: &QueryResult) -> String {
        assert_eq!(r.columns, vec!["QUERY PLAN"]);
        r.rows
            .iter()
            .map(|row| match &row[0] {
                Value::Text(t) => t.to_string(),
                other => panic!("plan rows must be text, got {other:?}"),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn explain_renders_the_plan_tree() {
        let mut s = session();
        let r = s.run("EXPLAIN SELECT a FROM t WHERE a = 2").unwrap();
        let text = plan_text(&r);
        assert!(text.contains("SeqScan on t"), "{text}");
        // Byte-identical to the plan's own rendering.
        let plan = s
            .prepare("SELECT a FROM t WHERE a = 2", &ParamScope::default())
            .unwrap();
        assert_eq!(text, plan.plan.explain().trim_end());
    }

    #[test]
    fn explain_analyze_reports_per_node_stats() {
        let mut s = session();
        let r = s
            .run("EXPLAIN ANALYZE SELECT a FROM t WHERE a >= 2")
            .unwrap();
        let text = plan_text(&r);
        // Executed: every dispatched node carries loops/rows/time/self.
        assert!(text.contains("rows=2"), "filter output rows:\n{text}");
        assert!(text.contains("loops=1"), "{text}");
        assert!(text.contains("time="), "{text}");
        assert!(text.contains("self="), "{text}");
        // The sink must not leak into the next (plain) execution.
        assert!(s.run("SELECT a FROM t").is_ok());
        assert!(s.analyze.is_none());
    }

    #[test]
    fn explain_analyze_surfaces_fixpoint_internals() {
        let mut s = Session::default();
        let r = s
            .run(
                "EXPLAIN ANALYZE WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL \
                 SELECT x + 1 FROM c WHERE x < 10) SELECT count(*) FROM c",
            )
            .unwrap();
        let text = plan_text(&r);
        assert!(text.contains("Fixpoint cte#0 [recursive]"), "{text}");
        assert!(text.contains("iterations=10"), "{text}");
        assert!(text.contains("working-set peak="), "{text}");
    }

    #[test]
    fn explain_analyze_execution_errors_propagate() {
        let mut s = session();
        let err = s.run("EXPLAIN ANALYZE SELECT 1 / (a - a) FROM t");
        assert!(err.is_err());
        assert!(s.analyze.is_none(), "sink must be cleared on error");
    }

    #[test]
    fn explain_rejects_non_queries() {
        let mut s = session();
        let err = s
            .run("EXPLAIN INSERT INTO t VALUES (9, 'x', 0.0)")
            .unwrap_err();
        assert!(
            err.to_string().contains("EXPLAIN supports queries only"),
            "{err}"
        );
    }

    #[test]
    fn statement_metrics_mirror_matches_registry_single_session() {
        let db = Database::new(EngineConfig::raw());
        let mut s = db.session();
        s.run("CREATE TABLE m (v int)").unwrap();
        s.run("INSERT INTO m VALUES (1), (2), (3)").unwrap();
        s.run("SELECT sum(v) FROM m").unwrap();
        s.run("SELECT count(*) FROM m WHERE v > 1").unwrap();
        let snap = db.metrics();
        assert_eq!(snap.statements, s.metrics.statements);
        assert_eq!(snap.statement_ns_total, s.metrics.statement_ns_total);
        assert_eq!(snap.rows_scanned, s.metrics.rows_scanned);
        assert_eq!(snap.vm_ops_executed, s.metrics.vm_ops_executed);
        assert_eq!(snap.latency.count(), s.metrics.latency.count());
        assert!(snap.statements >= 4, "DDL, DML and queries all count");
        assert_eq!(snap.commits, 2, "CREATE TABLE and INSERT each commit once");
        assert_eq!(snap.catalog_version, db.snapshot().version);
        // JSON round-trip straight off the live registry.
        let json = snap.to_json();
        assert_eq!(
            crate::metrics::MetricsSnapshot::from_json(&json),
            Some(snap)
        );
    }

    #[test]
    fn trace_mode_emits_structured_events() {
        let mut config = EngineConfig::raw();
        config.trace = true;
        let db = Database::new(config);
        let mut s = db.session();
        s.run("CREATE TABLE tr (v int)").unwrap();
        s.run("INSERT INTO tr VALUES (1)").unwrap();
        s.run("SELECT v FROM tr").unwrap();
        s.run("SELECT v FROM tr").unwrap(); // cache hit
        let events = db.take_trace();
        assert!(!events.is_empty());
        let all = events.join("\n");
        for needle in [
            "\"event\":\"prepare\"",
            "\"cache\":\"miss\"",
            "\"cache\":\"hit\"",
            "\"event\":\"start\"",
            "\"event\":\"run\"",
            "\"event\":\"end\"",
            "\"event\":\"commit\"",
        ] {
            assert!(all.contains(needle), "missing {needle} in:\n{all}");
        }
        for line in &events {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains(&format!("\"session\":{}", s.id)), "{line}");
            assert!(line.contains("\"catalog_version\":"), "{line}");
        }
        // Drained: a second take returns nothing.
        assert!(db.take_trace().is_empty());
    }

    #[test]
    fn trace_off_buffers_nothing() {
        let db = Database::new(EngineConfig::raw());
        let mut s = db.session();
        s.run("CREATE TABLE q (v int)").unwrap();
        s.run("SELECT count(*) FROM q").unwrap();
        assert!(db.take_trace().is_empty());
    }

    #[test]
    fn trace_records_raise_unwind() {
        let mut config = EngineConfig::raw();
        config.trace = true;
        let db = Database::new(config);
        let mut s = db.session();
        s.run("CREATE TABLE e (v int)").unwrap();
        s.run("INSERT INTO e VALUES (0)").unwrap();
        let _ = s.run("SELECT raise_error('division by zero', 'boom') FROM e");
        let all = db.take_trace().join("\n");
        // Whichever way the engine surfaces the raise, the run must not be
        // reported as a clean success.
        assert!(
            all.contains("\"event\":\"raise_unwind\"") || all.contains("\"error\":true"),
            "{all}"
        );
    }
}
