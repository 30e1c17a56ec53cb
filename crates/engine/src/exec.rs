//! Plan execution and expression evaluation.
//!
//! The executor is push-based: `exec_into` runs a node, which hands each
//! row to a `Sink` until the sink answers `Flow::Stop`. Scans pass rows
//! borrowed from their table, CTE, working table or memo entry; the rows
//! that nodes build are owned and flow by value. Blocking nodes (sort,
//! window, set operations, a memo miss) collect their input first. [`exec`]
//! is the sink that collects everything, and the scalar, `EXISTS`, `IN`
//! and `LIMIT` sinks stop as soon as they know their answer. The runtime
//! scope stack ([`Scopes`]) carries outer rows into correlated subqueries
//! and `LATERAL` join arms, mirroring how the planner assigned
//! `(depth, index)` slots.
//!
//! Recursive CTEs are evaluated with PostgreSQL's working-table algorithm;
//! the accumulated union goes through the accounting [`Tuplestore`] so that
//! Table 2's buffer page writes fall out of ordinary execution.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use plaway_common::{Error, Result, SessionRng, Value};
use plaway_sql::ast::{BinOp, JoinKind, Language, SetOp};

use crate::catalog::{Catalog, Row};
use crate::config::{EngineConfig, TierMode};
use crate::functions::like_match;
use crate::ir::{
    AggFn, AggSpec, CtePlan, ExprIr, FusedTransition, PlanNode, RecursionMode, SnapshotOp, SortKey,
};
use crate::memo::{MemoCache, MemoKey};
use crate::planner::{plan_udf_body, PreparedPlan};
use crate::tier::MonoRows;
use crate::tuplestore::{BufferStats, SnapshotStore, Tuplestore};
use crate::vm::Access;
use crate::window::exec_window;

/// Linked list of outer rows; `depth` 0 is the innermost row.
#[derive(Clone, Copy)]
pub struct Scopes<'a> {
    pub row: &'a [Value],
    pub parent: Option<&'a Scopes<'a>>,
}

impl<'a> Scopes<'a> {
    pub(crate) fn at_depth(&self, depth: usize) -> Result<&'a [Value]> {
        let mut cur = self;
        for _ in 0..depth {
            cur = cur
                .parent
                .ok_or_else(|| Error::exec("scope stack underflow (planner bug)"))?;
        }
        Ok(cur.row)
    }
}

/// Expression evaluation environment: scope stack + statement parameters.
#[derive(Clone, Copy)]
pub struct EvalEnv<'a> {
    pub scopes: Option<&'a Scopes<'a>>,
    pub params: &'a [Value],
}

impl<'a> EvalEnv<'a> {
    pub const EMPTY: EvalEnv<'static> = EvalEnv {
        scopes: None,
        params: &[],
    };

    /// Environment with `row` pushed as the innermost scope.
    fn with_row(&self, scopes: &'a Scopes<'a>) -> EvalEnv<'a> {
        EvalEnv {
            scopes: Some(scopes),
            params: self.params,
        }
    }
}

/// Execution counters (beyond buffer accounting).
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeStats {
    pub recursive_iterations: u64,
    pub subplan_evals: u64,
    pub udf_calls: u64,
    pub rows_scanned: u64,
    /// Index access-path probes (point lookups and range scans). Together
    /// with `rows_scanned` this attributes the index win: a selective query
    /// that probes shows `index_probes` up and `rows_scanned` bounded by
    /// the matching rows instead of the table size.
    pub index_probes: u64,
    pub max_udf_depth: usize,
    /// Row-loop snapshots materialized (one per compiled loop *entry* —
    /// the counter the materialize-once tests assert on).
    pub snapshots_materialized: u64,
    /// Snapshots explicitly released (loop exit, EXIT/CONTINUE past the
    /// loop, RETURN inside the loop, or exception unwind). On a normally
    /// completed execution this equals `snapshots_materialized`.
    pub snapshots_released: u64,
    /// `ExecutorStart` penalties charged (top-level statements and
    /// recursive SQL-UDF calls). A batched execution charges exactly one.
    pub start_penalty_charges: u64,
    /// `ExecutorEnd` penalties charged.
    pub end_penalty_charges: u64,
    /// Compiled expression-VM opcodes dispatched ([`crate::vm`]). Counted
    /// on both success and error paths, so EXPLAIN ANALYZE deltas are
    /// meaningful even when an expression raises.
    pub vm_ops_executed: u64,
    /// Rows the fused fixpoint transition kept (the splat-program fast path
    /// that bypasses the per-node executor); a row its filter drops is not
    /// counted.
    pub fused_transition_rows: u64,
    /// Batch-trampoline working-set counters (the `WITH RETIRE` driver).
    pub batch: crate::profile::BatchCounters,
    /// Tiered-execution counters (the `crate::tier` mono tier).
    pub tier: crate::profile::TierCounters,
    /// `Memoize` executions answered from the per-execution memo.
    pub memo_hits: u64,
    /// `Memoize` executions that ran their input (errors included).
    pub memo_misses: u64,
}

impl RuntimeStats {
    pub fn reset(&mut self) {
        *self = RuntimeStats::default();
    }

    /// Field-wise difference since a `before` copy (statement-boundary
    /// metrics). Monotonic counters subtract saturating (a mid-interval
    /// `reset` yields zeros, not wrap-around garbage); the gauges
    /// (`max_udf_depth`, `batch_rows_in_flight`) carry the later value.
    pub fn delta_since(&self, before: &RuntimeStats) -> RuntimeStats {
        RuntimeStats {
            recursive_iterations: self
                .recursive_iterations
                .saturating_sub(before.recursive_iterations),
            subplan_evals: self.subplan_evals.saturating_sub(before.subplan_evals),
            udf_calls: self.udf_calls.saturating_sub(before.udf_calls),
            rows_scanned: self.rows_scanned.saturating_sub(before.rows_scanned),
            index_probes: self.index_probes.saturating_sub(before.index_probes),
            max_udf_depth: self.max_udf_depth,
            snapshots_materialized: self
                .snapshots_materialized
                .saturating_sub(before.snapshots_materialized),
            snapshots_released: self
                .snapshots_released
                .saturating_sub(before.snapshots_released),
            start_penalty_charges: self
                .start_penalty_charges
                .saturating_sub(before.start_penalty_charges),
            end_penalty_charges: self
                .end_penalty_charges
                .saturating_sub(before.end_penalty_charges),
            vm_ops_executed: self.vm_ops_executed.saturating_sub(before.vm_ops_executed),
            fused_transition_rows: self
                .fused_transition_rows
                .saturating_sub(before.fused_transition_rows),
            batch: crate::profile::BatchCounters {
                batch_rows_in_flight: self.batch.batch_rows_in_flight,
                batch_rows_retired: self
                    .batch
                    .batch_rows_retired
                    .saturating_sub(before.batch.batch_rows_retired),
            },
            tier: crate::profile::TierCounters {
                tier_promotions: self
                    .tier
                    .tier_promotions
                    .saturating_sub(before.tier.tier_promotions),
                tier_mono_rows: self
                    .tier
                    .tier_mono_rows
                    .saturating_sub(before.tier.tier_mono_rows),
            },
            memo_hits: self.memo_hits.saturating_sub(before.memo_hits),
            memo_misses: self.memo_misses.saturating_sub(before.memo_misses),
        }
    }
}

/// Cache of lazily planned SQL UDF bodies (name -> prepared body plan),
/// valid for one [`Catalog::schema_version`].
#[derive(Default)]
pub struct FnPlanCache {
    plans: HashMap<String, Arc<PreparedPlan>>,
    schema_version: u64,
}

impl FnPlanCache {
    pub fn invalidate(&mut self) {
        self.plans.clear();
    }
}

/// Everything execution needs, split-borrowed from the session.
pub struct Runtime<'s> {
    pub catalog: &'s Catalog,
    pub rng: &'s mut SessionRng,
    pub buffers: &'s mut BufferStats,
    pub stats: &'s mut RuntimeStats,
    pub fn_plans: &'s mut FnPlanCache,
    pub config: &'s EngineConfig,
    /// Materialized CTE results, keyed by plan-local CTE index (With nodes
    /// save/restore entries, so recursion through UDFs is safe).
    pub ctes: HashMap<usize, Arc<Vec<Row>>>,
    /// Recursive working tables.
    pub working: HashMap<usize, Arc<Vec<Row>>>,
    pub udf_depth: usize,
    /// Scratch value stack for compiled expression programs ([`crate::vm`]);
    /// reentrant via base offsets, reused across evaluations.
    pub vm_stack: Vec<Value>,
    /// Per-execution sub-plan memo: `Memoize` rows per distinct key, and
    /// closed sub-plans' scalars under the empty key. The catalog cannot
    /// change mid-statement, so a pure sub-plan's result is computed once
    /// per key instead of once per fixpoint row.
    pub memo: MemoCache,
    /// Materialized row-loop sources (the compiled cursor operator), scoped
    /// to this execution: handles die with the runtime, which is what makes
    /// snapshot expressions safe to exclude from memoization.
    pub snapshots: SnapshotStore,
    /// Per-node observation sink for EXPLAIN ANALYZE. `None` (the default)
    /// keeps the hot path free of instrumentation; `Some` makes the
    /// executor wrap every node it dispatches with row/loop/ns accounting.
    pub analyze: Option<&'s mut crate::explain::AnalyzeState>,
}

impl<'s> Runtime<'s> {
    fn fn_plan(&mut self, name: &str) -> Result<Arc<PreparedPlan>> {
        let schema = self.catalog.schema_version();
        if self.fn_plans.schema_version != schema {
            self.fn_plans.invalidate();
            self.fn_plans.schema_version = schema;
        }
        if let Some(p) = self.fn_plans.plans.get(name) {
            return Ok(Arc::clone(p));
        }
        let def = self
            .catalog
            .function(name)
            .ok_or_else(|| Error::plan(format!("function {name:?} does not exist")))?
            .clone();
        if def.language != Language::Sql {
            return Err(Error::unsupported(format!(
                "function {name:?} is PL/pgSQL; evaluate it with the interpreter or compile it \
                 away (the engine executes SQL-language functions only)"
            )));
        }
        let plan = Arc::new(plan_udf_body(self.catalog, &def, self.config.index_mode)?);
        self.fn_plans
            .plans
            .insert(name.to_string(), Arc::clone(&plan));
        Ok(plan)
    }
}

// ---------------------------------------------------------------------------
// Expression evaluation

/// Evaluate a planned expression: a leaf read, or a lowered program on the
/// VM ([`crate::vm`]). Planning lowers every other expression, so any other
/// variant reaching here is a planner bug.
pub fn eval(ir: &ExprIr, env: &EvalEnv<'_>, rt: &mut Runtime<'_>) -> Result<Value> {
    match ir {
        ExprIr::Const(v) => Ok(v.clone()),
        ExprIr::Slot { depth, index } => {
            let scopes = env
                .scopes
                .ok_or_else(|| Error::exec("no row context for column reference"))?;
            let row = scopes.at_depth(*depth)?;
            row.get(*index)
                .cloned()
                .ok_or_else(|| Error::exec("column slot out of range (planner bug)"))
        }
        ExprIr::Param(i) => env
            .params
            .get(*i)
            .cloned()
            .ok_or_else(|| Error::exec(format!("parameter ${i} not bound"))),
        ExprIr::Vm(prog) => crate::vm::run(prog, env, rt),
        _ => Err(Error::exec(
            "expression evaluated without being lowered (planner bug)",
        )),
    }
}

/// Evaluate `exprs` left to right into a new row.
pub(crate) fn eval_all(exprs: &[ExprIr], env: &EvalEnv<'_>, rt: &mut Runtime<'_>) -> Result<Row> {
    let mut row = Vec::with_capacity(exprs.len());
    for e in exprs {
        row.push(eval(e, env, rt)?);
    }
    Ok(row)
}

/// Append `exprs` to `row`, each evaluated over the row built so far (the
/// `Extend` let-chain step).
fn extend_row(
    row: &mut Row,
    exprs: &[ExprIr],
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<()> {
    row.reserve(exprs.len());
    for e in exprs {
        let scopes = Scopes {
            row,
            parent: env.scopes,
        };
        let v = eval(e, &env.with_row(&scopes), rt)?;
        row.push(v);
    }
    Ok(())
}

/// One output row of a projection: `exprs` evaluated with `row` pushed as
/// the innermost scope.
fn project_row(
    exprs: &[ExprIr],
    row: &[Value],
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Row> {
    let scopes = Scopes {
        row,
        parent: env.scopes,
    };
    eval_all(exprs, &env.with_row(&scopes), rt)
}

/// Evaluate a row-loop source exactly once into the execution's snapshot
/// store (through the accounting tuplestore, so cursor materialization is
/// charged to the buffer statistics like PostgreSQL's portal tuplestore)
/// and return its handle.
pub(crate) fn materialize_snapshot(
    plan: &PlanNode,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Value> {
    let mut store = Tuplestore::new(rt.config.work_mem_bytes);
    exec_into(plan, env, rt, &mut |row, _| {
        store.push(row.into_owned());
        Ok(Flow::More)
    })?;
    let rows = store.finish(rt.buffers);
    rt.stats.snapshots_materialized += 1;
    Ok(Value::Int(rt.snapshots.register(rows)))
}

/// Apply a snapshot accessor to already-evaluated arguments: the VM's
/// [`crate::vm::Op::Snapshot`] instruction.
pub(crate) fn eval_snapshot_op(
    op: SnapshotOp,
    args: &[Value],
    rt: &mut Runtime<'_>,
) -> Result<Value> {
    let handle = args
        .first()
        .ok_or_else(|| Error::exec("snapshot accessor without a handle (planner bug)"))?
        .as_int()
        .map_err(|_| Error::exec(format!("{}: snapshot handle must be an integer", op.name())))?;
    match op {
        SnapshotOp::Rows => {
            let n = rt.snapshots.len(handle).map_err(Error::exec)?;
            Ok(Value::Int(n as i64))
        }
        SnapshotOp::Fetch => {
            let pos = args[1].as_int()?;
            let row = rt.snapshots.row(handle, pos).map_err(Error::exec)?;
            match args.get(2) {
                // 3-argument form: one field, no intermediate record.
                Some(f) => {
                    let i = f.as_int()?;
                    usize::try_from(i - 1)
                        .ok()
                        .and_then(|i| row.get(i))
                        .cloned()
                        .ok_or_else(|| {
                            Error::exec(format!(
                                "fetch_row: field {i} out of bounds for row of width {}",
                                row.len()
                            ))
                        })
                }
                None => Ok(Value::record(row.to_vec())),
            }
        }
        SnapshotOp::Release => {
            rt.snapshots.release(handle).map_err(Error::exec)?;
            rt.stats.snapshots_released += 1;
            Ok(Value::Null)
        }
    }
}

// The three-valued operator rules, one copy each: the VM's ops and the
// mono tier's closures both call them, and differ only in control flow.

/// A three-valued boolean as a value: unknown is NULL.
#[inline]
pub(crate) fn bool_value(b: Option<bool>) -> Value {
    b.map_or(Value::Null, Value::Bool)
}

/// Three-valued AND over already-evaluated operands.
#[inline]
pub(crate) fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// Three-valued OR over already-evaluated operands.
#[inline]
pub(crate) fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// `NOT v`: NULL stays NULL, and a value that is not a boolean errors.
#[inline]
pub(crate) fn not3(v: &Value) -> Result<Value> {
    Ok(bool_value(v.as_bool()?.map(|b| !b)))
}

/// `v [NOT] BETWEEN lo AND hi`: both comparisons, then their AND.
#[inline]
pub(crate) fn between3(v: &Value, lo: &Value, hi: &Value, negated: bool) -> Result<Value> {
    use std::cmp::Ordering;
    let ge = v.sql_cmp(lo)?.map(|o| o != Ordering::Less);
    let le = v.sql_cmp(hi)?.map(|o| o != Ordering::Greater);
    Ok(bool_value(and3(ge, le).map(|b| b != negated)))
}

/// `v [NOT] LIKE pattern`: NULL when either side is NULL.
#[inline]
pub(crate) fn like3(v: &Value, pattern: &Value, negated: bool) -> Result<Value> {
    if v.is_null() || pattern.is_null() {
        return Ok(Value::Null);
    }
    Ok(Value::Bool(
        like_match(v.as_text()?, pattern.as_text()?) != negated,
    ))
}

/// Fold one candidate of `v [NOT] IN (...)` into `found`, which starts as
/// `Some(false)`: `Some(true)` on a match, where the candidates stop;
/// unknown once a comparison was NULL.
#[inline]
pub(crate) fn in_step(found: Option<bool>, v: &Value, item: &Value) -> Result<Option<bool>> {
    Ok(match v.sql_eq(item)? {
        Some(true) => Some(true),
        Some(false) => found,
        None => None,
    })
}

/// The `[NOT] IN` verdict once the candidates are folded into `found`.
#[inline]
pub(crate) fn in_verdict(found: Option<bool>, negated: bool) -> Value {
    bool_value(found.map(|f| f != negated))
}

/// Apply a non-short-circuit binary operator to evaluated operands (the
/// VM's binary ops, past their integer fast path).
pub(crate) fn apply_bin(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    match op {
        BinOp::Add => l.add(r),
        BinOp::Sub => l.sub(r),
        BinOp::Mul => l.mul(r),
        BinOp::Div => l.div(r),
        BinOp::Mod => l.rem(r),
        BinOp::Concat => l.concat(r),
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            let cmp = l.sql_cmp(r)?;
            Ok(match cmp {
                None => Value::Null,
                Some(ord) => {
                    use std::cmp::Ordering::*;
                    let b = match op {
                        BinOp::Eq => ord == Equal,
                        BinOp::NotEq => ord != Equal,
                        BinOp::Lt => ord == Less,
                        BinOp::LtEq => ord != Greater,
                        BinOp::Gt => ord == Greater,
                        BinOp::GtEq => ord != Less,
                        _ => unreachable!(),
                    };
                    Value::Bool(b)
                }
            })
        }
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops handled by the caller"),
    }
}

/// PostgreSQL's error for a scalar sub-query that returns a second row.
pub(crate) fn second_row_error() -> Error {
    Error::exec("more than one row returned by a subquery used as an expression")
}

/// Run a scalar sub-query: NULL when it returns no row, the one column of
/// its one row otherwise. A second row fails at once, with PostgreSQL's
/// text, without running the sub-plan further.
pub(crate) fn exec_scalar(
    plan: &PlanNode,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Value> {
    let mut value = None;
    exec_into(plan, env, rt, &mut |row, _| {
        if value.is_some() {
            return Err(second_row_error());
        }
        if row.len() != 1 {
            return Err(Error::exec(format!(
                "subquery must return one column, returned {}",
                row.len()
            )));
        }
        value = Some(match row {
            Cow::Owned(mut row) => row.pop().expect("a one-column row"),
            Cow::Borrowed(row) => row[0].clone(),
        });
        Ok(Flow::More)
    })?;
    Ok(value.unwrap_or(Value::Null))
}

/// Does the sub-plan return a row? It stops at the first one.
pub(crate) fn exec_exists(
    plan: &PlanNode,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<bool> {
    let mut found = false;
    exec_into(plan, env, rt, &mut |_, _| {
        found = true;
        Ok(Flow::Stop)
    })?;
    Ok(found)
}

pub(crate) fn call_sql_udf(name: &str, args: Vec<Value>, rt: &mut Runtime<'_>) -> Result<Value> {
    rt.stats.udf_calls += 1;
    rt.udf_depth += 1;
    rt.stats.max_udf_depth = rt.stats.max_udf_depth.max(rt.udf_depth);
    if rt.udf_depth > rt.config.max_udf_depth {
        rt.udf_depth -= 1;
        return Err(Error::exec(format!(
            "stack depth limit exceeded ({} nested function calls); \
             recursive SQL UDFs are bounded — compile to WITH RECURSIVE instead",
            rt.config.max_udf_depth
        )));
    }
    let plan = match rt.fn_plan(name) {
        Ok(p) => p,
        Err(e) => {
            rt.udf_depth -= 1;
            return Err(e);
        }
    };
    // Every UDF invocation instantiates executor state for the body plan —
    // PostgreSQL prepares and tears down the cached plan per call, which is
    // exactly why §2 finds direct recursive UDF evaluation disappointing.
    // (Boxed: the instantiated state must not grow the native stack, which
    // recursion through deep UDF chains would otherwise exhaust.)
    let state = Box::new(plan.plan.clone());
    crate::penalty::charge_start_penalty(rt.config, rt.stats);
    let env = EvalEnv {
        scopes: None,
        params: &args,
    };
    let result = exec_scalar(&state, &env, rt);
    drop(state);
    crate::penalty::charge_end_penalty(rt.config, rt.stats);
    rt.udf_depth -= 1;
    result
}

// ---------------------------------------------------------------------------
// Plan execution

/// A sink's answer to a row: send the next one, or stop producing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    More,
    Stop,
}

/// The consumer a plan node hands its rows to ([`exec_into`]). A row is
/// borrowed from a table, a CTE, the working table or a memo entry, or
/// owned, built by the node; a consumer copies a borrowed row only when it
/// keeps or modifies it.
pub(crate) type Sink<'k> = dyn FnMut(Cow<'_, [Value]>, &mut Runtime<'_>) -> Result<Flow> + 'k;

/// Run `plan` to completion and collect its rows: for the session, CTE and
/// memo materialization, and the fixpoint's base case and general arm.
pub fn exec(plan: &PlanNode, env: &EvalEnv<'_>, rt: &mut Runtime<'_>) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    exec_into(plan, env, rt, &mut |row, _| {
        rows.push(row.into_owned());
        Ok(Flow::More)
    })?;
    Ok(rows)
}

/// Run `plan`, pushing each row into `sink` until the sink or the plan
/// stops. Returns [`Flow::Stop`] when a sink downstream stopped it.
pub(crate) fn exec_into(
    plan: &PlanNode,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
    sink: &mut Sink<'_>,
) -> Result<Flow> {
    if rt.analyze.is_none() {
        return exec_node(plan, env, rt, sink);
    }
    // ANALYZE path: bracket the node with wall-clock and counter deltas,
    // less the work its consumers did on the rows it pushed. The map is
    // keyed by plan-node address, which is stable for the whole execution
    // (the plan sits behind an `Arc` and is never mutated).
    let vm_ops_before = rt.stats.vm_ops_executed;
    let fused_before = rt.stats.fused_transition_rows;
    let started = std::time::Instant::now();
    let (mut rows, mut down_ns, mut down_ops, mut down_fused) = (0, 0, 0, 0);
    let result = exec_node(plan, env, rt, &mut |row, rt| {
        rows += 1;
        let (t, ops, fused) = (
            std::time::Instant::now(),
            rt.stats.vm_ops_executed,
            rt.stats.fused_transition_rows,
        );
        let flow = sink(row, rt);
        down_ns += t.elapsed().as_nanos() as u64;
        down_ops += rt.stats.vm_ops_executed - ops;
        down_fused += rt.stats.fused_transition_rows - fused;
        flow
    });
    let ns = (started.elapsed().as_nanos() as u64).saturating_sub(down_ns);
    let vm_ops = rt.stats.vm_ops_executed - vm_ops_before - down_ops;
    let fused_rows = rt.stats.fused_transition_rows - fused_before - down_fused;
    if let Some(state) = rt.analyze.as_deref_mut() {
        state.record_node(plan, rows, ns, vm_ops, fused_rows);
    }
    result
}

/// Hand borrowed rows to `sink` until it stops; `scanned` counts each one
/// handed out in `rows_scanned`.
fn push_rows<'r>(
    rows: impl Iterator<Item = &'r Row>,
    scanned: bool,
    rt: &mut Runtime<'_>,
    sink: &mut Sink<'_>,
) -> Result<Flow> {
    for row in rows {
        rt.stats.rows_scanned += u64::from(scanned);
        if sink(Cow::Borrowed(row), rt)? == Flow::Stop {
            return Ok(Flow::Stop);
        }
    }
    Ok(Flow::More)
}

/// Hand rows a node built to `sink` until it stops.
fn push_owned(rows: Vec<Row>, rt: &mut Runtime<'_>, sink: &mut Sink<'_>) -> Result<Flow> {
    for row in rows {
        if sink(Cow::Owned(row), rt)? == Flow::Stop {
            return Ok(Flow::Stop);
        }
    }
    Ok(Flow::More)
}

/// `row` as an owned row with room for `extra` more fields, copying it
/// only when it is borrowed.
fn owned_row(row: Cow<'_, [Value]>, extra: usize) -> Row {
    match row {
        Cow::Owned(row) => row,
        Cow::Borrowed(row) => {
            let mut owned = Vec::with_capacity(row.len() + extra);
            owned.extend_from_slice(row);
            owned
        }
    }
}

fn exec_node(
    plan: &PlanNode,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
    sink: &mut Sink<'_>,
) -> Result<Flow> {
    let catalog = rt.catalog;
    match plan {
        PlanNode::SeqScan { table } => push_rows(catalog.table(table)?.rows.iter(), true, rt, sink),
        PlanNode::IndexLookup { table, column, key } => {
            let k = eval(key, env, rt)?;
            if k.is_null() {
                return Ok(Flow::More); // NULL = x is never true
            }
            let t = catalog.table(table)?;
            let idx = t.index_on(*column).ok_or_else(|| {
                Error::exec(format!(
                    "index on {table}.{column} vanished (plan is stale)"
                ))
            })?;
            rt.stats.index_probes += 1;
            let rows = idx.lookup(&k).iter().map(|&i| &t.rows[i]);
            push_rows(rows, true, rt, sink)
        }
        PlanNode::IndexRange {
            table,
            column,
            lo,
            hi,
        } => {
            // Evaluate bounds first: a NULL bound makes the comparison
            // three-valued-false for every row, exactly like the Filter
            // this node replaced.
            let bound = |b: &Option<(ExprIr, bool)>,
                         env: &EvalEnv<'_>,
                         rt: &mut Runtime<'_>|
             -> Result<Option<Option<(Value, bool)>>> {
                match b {
                    None => Ok(Some(None)),
                    Some((e, incl)) => {
                        let v = eval(e, env, rt)?;
                        if v.is_null() {
                            return Ok(None); // empty result
                        }
                        Ok(Some(Some((v, *incl))))
                    }
                }
            };
            let Some(lo_v) = bound(lo, env, rt)? else {
                return Ok(Flow::More);
            };
            let Some(hi_v) = bound(hi, env, rt)? else {
                return Ok(Flow::More);
            };
            let t = catalog.table(table)?;
            // Reject bound types the replaced Filter's `sql_cmp` would have
            // errored on, so both access paths fail identically instead of
            // the index silently returning no rows.
            let col_ty = &t.columns[*column].ty;
            for (v, _) in lo_v.iter().chain(hi_v.iter()) {
                let comparable = matches!(
                    (col_ty, v),
                    (
                        plaway_common::Type::Int | plaway_common::Type::Float,
                        Value::Int(_) | Value::Float(_)
                    ) | (plaway_common::Type::Text, Value::Text(_))
                        | (plaway_common::Type::Bool, Value::Bool(_))
                        | (plaway_common::Type::Unknown, _)
                );
                if !comparable {
                    return Err(Error::exec(format!(
                        "cannot compare {col_ty} column {table}.{column} with {v}"
                    )));
                }
            }
            let idx = t.btree_index_on(*column).ok_or_else(|| {
                Error::exec(format!(
                    "ordered index on {table}.{column} vanished (plan is stale)"
                ))
            })?;
            let positions = idx
                .range(
                    lo_v.as_ref().map(|(v, i)| (v, *i)),
                    hi_v.as_ref().map(|(v, i)| (v, *i)),
                )
                .expect("btree_index_on returned an ordered index");
            rt.stats.index_probes += 1;
            push_rows(positions.iter().map(|&i| &t.rows[i]), true, rt, sink)
        }
        PlanNode::Values { rows } => {
            for row in rows {
                let row = eval_all(row, env, rt)?;
                if sink(Cow::Owned(row), rt)? == Flow::Stop {
                    return Ok(Flow::Stop);
                }
            }
            Ok(Flow::More)
        }
        PlanNode::Result { exprs } => sink(Cow::Owned(eval_all(exprs, env, rt)?), rt),
        PlanNode::Filter { input, pred } => {
            // A compiled query's outer `WHERE NOT call?` tests one boolean
            // column of every trace row to keep one: test the slot directly
            // instead of running the evaluator.
            let slot = bool_slot_test(pred);
            exec_into(input, env, rt, &mut |row, rt| {
                if keeps(pred, slot, &row, env, rt)? {
                    sink(row, rt)
                } else {
                    Ok(Flow::More)
                }
            })
        }
        PlanNode::Extend { input, exprs } => exec_into(input, env, rt, &mut |row, rt| {
            let mut row = owned_row(row, exprs.len());
            extend_row(&mut row, exprs, env, rt)?;
            sink(Cow::Owned(row), rt)
        }),
        PlanNode::Project { input, exprs } => exec_into(input, env, rt, &mut |row, rt| {
            let row = project_row(exprs, &row, env, rt)?;
            sink(Cow::Owned(row), rt)
        }),
        PlanNode::ProjectUnpack { input, src, width } => {
            exec_into(input, env, rt, &mut |row, rt| {
                let row = unpack_row(row, *src, *width)?;
                sink(Cow::Owned(row), rt)
            })
        }
        PlanNode::NestLoop { .. } => exec_nestloop(plan, env, rt, sink),
        PlanNode::Agg {
            input,
            keys,
            aggs,
            scalar,
        } => exec_agg(input, keys, aggs, *scalar, env, rt, sink),
        PlanNode::WindowAgg { input, windows } => {
            let rows = exec(input, env, rt)?;
            push_owned(exec_window(rows, windows, env, rt)?, rt, sink)
        }
        PlanNode::Sort { input, keys } => {
            let rows = exec(input, env, rt)?;
            push_owned(sort_rows(rows, keys, env, rt)?, rt, sink)
        }
        PlanNode::Distinct { input } => {
            let mut seen = std::collections::HashSet::new();
            exec_into(input, env, rt, &mut |row, rt| {
                if seen.contains(row.as_ref()) {
                    return Ok(Flow::More);
                }
                seen.insert(row.to_vec());
                sink(row, rt)
            })
        }
        PlanNode::Limit {
            input,
            limit,
            offset,
        } => {
            let mut skip = eval_opt_count(offset.as_ref(), env, rt)?.unwrap_or(0);
            let mut left = eval_opt_count(limit.as_ref(), env, rt)?;
            if left == Some(0) {
                return Ok(Flow::More);
            }
            // Stop the input at `offset + limit` rows: the rows past it are
            // never produced, projected or evaluated (SQL's LIMIT contract).
            let mut flow = Flow::More;
            exec_into(input, env, rt, &mut |row, rt| {
                if skip > 0 {
                    skip -= 1;
                    return Ok(Flow::More);
                }
                flow = sink(row, rt)?;
                match left.as_mut() {
                    Some(n) => {
                        *n -= 1;
                        Ok(if *n == 0 { Flow::Stop } else { flow })
                    }
                    None => Ok(flow),
                }
            })?;
            Ok(flow)
        }
        PlanNode::Append { inputs } => {
            for i in inputs {
                if exec_into(i, env, rt, sink)? == Flow::Stop {
                    return Ok(Flow::Stop);
                }
            }
            Ok(Flow::More)
        }
        PlanNode::SetOpNode {
            op,
            all,
            left,
            right,
        } => {
            let l = exec(left, env, rt)?;
            let r = exec(right, env, rt)?;
            push_owned(exec_setop(*op, *all, l, r), rt, sink)
        }
        PlanNode::With { ctes, body } => exec_with(ctes, body, env, rt, sink),
        PlanNode::CteScan { index } => {
            let rows = rt.ctes.get(index).cloned().ok_or_else(|| {
                Error::exec(format!("CTE #{index} not materialized (planner bug)"))
            })?;
            push_rows(rows.iter(), false, rt, sink)
        }
        PlanNode::WorkingScan { index } => {
            let rows = rt.working.get(index).cloned().ok_or_else(|| {
                Error::exec(format!(
                    "recursive reference #{index} outside recursion (planner bug)"
                ))
            })?;
            push_rows(rows.iter(), false, rt, sink)
        }
        PlanNode::Memoize { input, key } => {
            let site = rt.memo.site(Arc::as_ptr(input) as usize);
            if rt.memo.is_cold(site) {
                rt.stats.memo_misses += 1;
                return exec_into(input, env, rt, sink);
            }
            let key = MemoKey::new(site, eval_all(key, env, rt)?);
            let rows = match rt.memo.lookup(&key) {
                Some(rows) => {
                    rt.stats.memo_hits += 1;
                    rows
                }
                None => {
                    rt.stats.memo_misses += 1;
                    // An error returns before the store: the next call with
                    // this key runs (and fails) again.
                    let rows = Arc::new(exec(input, env, rt)?);
                    rt.memo
                        .store(key, Arc::clone(&rows), rt.config.work_mem_bytes);
                    rows
                }
            };
            push_rows(rows.iter(), false, rt, sink)
        }
    }
}

/// Does `pred` hold on `row`, pushed as the innermost scope?
fn holds(pred: &ExprIr, row: &[Value], env: &EvalEnv<'_>, rt: &mut Runtime<'_>) -> Result<bool> {
    let scopes = Scopes {
        row,
        parent: env.scopes,
    };
    Ok(eval(pred, &env.with_row(&scopes), rt)?.is_true())
}

/// A filter predicate that is a bare depth-0 column (`Some((i, true))`) or
/// its negation (`Some((i, false))`), which [`keeps`] tests on the row
/// without running the evaluator.
pub(crate) fn bool_slot_test(pred: &ExprIr) -> Option<(usize, bool)> {
    match pred {
        ExprIr::Slot { depth: 0, index } => Some((*index, true)),
        ExprIr::Vm(prog) => prog.negated_slot().map(|i| (i, false)),
        _ => None,
    }
}

/// The `call?` flag of a fused transition, which the retire policy reads:
/// the bare depth-0 column of its filter's [`bool_slot_test`].
pub(crate) fn retire_flag(test: Option<(usize, bool)>) -> Option<usize> {
    test.and_then(|(i, plain)| plain.then_some(i))
}

/// Does the filter predicate keep `row`? `slot` is its
/// [`bool_slot_test`]: a bare slot test is `is_true()` (false on
/// non-booleans); NOT of a non-boolean errors — both exactly as the
/// evaluator would.
fn keeps(
    pred: &ExprIr,
    slot: Option<(usize, bool)>,
    row: &[Value],
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<bool> {
    let Some((i, want)) = slot else {
        return holds(pred, row, env, rt);
    };
    match row.get(i) {
        Some(Value::Bool(b)) => Ok(*b == want),
        Some(other) if !want && !other.is_null() => Err(Error::exec(format!(
            "expected boolean, got {}",
            other.type_of()
        ))),
        _ => Ok(false),
    }
}

/// The first `width` fields of the record in column `src` as a row,
/// reusing an owned row's allocation. Errors mirror the unfused
/// `row_field(slot, i)` projection exactly.
fn unpack_row(row: Cow<'_, [Value]>, src: usize, width: usize) -> Result<Row> {
    let v = row
        .get(src)
        .cloned()
        .ok_or_else(|| Error::exec("column slot out of range (planner bug)"))?;
    let rec = take_record(v, width)?;
    let mut out = match row {
        Cow::Owned(mut row) => {
            row.clear();
            row
        }
        Cow::Borrowed(_) => Vec::with_capacity(width),
    };
    out.extend(rec.iter().take(width).cloned());
    Ok(out)
}

/// Extract a record of at least `width` fields, with the exact errors the
/// unfused `row_field(x, i)` projection would raise — shared by every
/// unpack path so they cannot drift.
pub(crate) fn take_record(v: Value, width: usize) -> Result<Arc<[Value]>> {
    let rec = match v {
        Value::Record(rec) => rec,
        other => return Err(other.as_record().unwrap_err()),
    };
    if rec.len() < width {
        return Err(Error::exec(format!(
            "row_field: index {} out of bounds for record of width {}",
            rec.len() + 1,
            rec.len()
        )));
    }
    Ok(rec)
}

/// Nested-loop join: streams its left side. A lateral right side runs per
/// left row; any other runs once, at the first left row (an empty left side
/// never runs it, as in PostgreSQL), and is borrowed for every later row.
fn exec_nestloop(
    plan: &PlanNode,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
    sink: &mut Sink<'_>,
) -> Result<Flow> {
    let PlanNode::NestLoop {
        left,
        right,
        kind,
        lateral,
        on,
        right_width,
    } = plan
    else {
        unreachable!("only nested loops reach the join executor");
    };
    let mut fixed_right: Option<Vec<Row>> = None;
    exec_into(left, env, rt, &mut |lrow, rt| {
        let mut matched = false;
        let mut join = |rrow: &[Value], rt: &mut Runtime<'_>| -> Result<Flow> {
            let mut combined = Vec::with_capacity(lrow.len() + rrow.len());
            combined.extend_from_slice(&lrow);
            combined.extend_from_slice(rrow);
            if let Some(pred) = on {
                if !holds(pred, &combined, env, rt)? {
                    return Ok(Flow::More);
                }
            }
            matched = true;
            sink(Cow::Owned(combined), rt)
        };
        let flow = if *lateral {
            let scopes = Scopes {
                row: &lrow,
                parent: env.scopes,
            };
            exec_into(right, &env.with_row(&scopes), rt, &mut |rrow, rt| {
                join(&rrow, rt)
            })?
        } else {
            if fixed_right.is_none() {
                fixed_right = Some(exec(right, env, rt)?);
            }
            let mut flow = Flow::More;
            for rrow in fixed_right.as_deref().unwrap_or_default() {
                flow = join(rrow, rt)?;
                if flow == Flow::Stop {
                    break;
                }
            }
            flow
        };
        if flow == Flow::Stop || matched || *kind != JoinKind::Left {
            return Ok(flow);
        }
        let mut combined = owned_row(lrow, *right_width);
        combined.extend(std::iter::repeat_with(|| Value::Null).take(*right_width));
        sink(Cow::Owned(combined), rt)
    })
}

// ---------------------------------------------------------------------------
// Aggregation

/// One accumulator instance.
#[derive(Debug, Clone)]
struct AggAcc {
    func: AggFn,
    distinct: bool,
    seen: std::collections::HashSet<Value>,
    count: i64,
    sum: Option<Value>,
    extreme: Option<Value>,
    bool_acc: Option<bool>,
}

impl AggAcc {
    fn new(spec: &AggSpec) -> Self {
        AggAcc {
            func: spec.func,
            distinct: spec.distinct,
            seen: std::collections::HashSet::new(),
            count: 0,
            sum: None,
            extreme: None,
            bool_acc: None,
        }
    }

    fn update(&mut self, v: Option<Value>) -> Result<()> {
        // COUNT(*) counts rows regardless of values.
        if self.func == AggFn::CountStar {
            self.count += 1;
            return Ok(());
        }
        let Some(v) = v else {
            return Err(Error::exec("aggregate missing its argument (planner bug)"));
        };
        if v.is_null() {
            return Ok(()); // all remaining aggregates ignore NULL
        }
        if self.distinct && !self.seen.insert(v.clone()) {
            return Ok(());
        }
        match self.func {
            AggFn::Count => self.count += 1,
            AggFn::Sum | AggFn::Avg => {
                self.count += 1;
                self.sum = Some(match self.sum.take() {
                    None => v,
                    Some(acc) => acc.add(&v)?,
                });
            }
            AggFn::Min => {
                self.extreme = Some(match self.extreme.take() {
                    None => v,
                    Some(cur) => match v.sql_cmp(&cur)? {
                        Some(std::cmp::Ordering::Less) => v,
                        _ => cur,
                    },
                });
            }
            AggFn::Max => {
                self.extreme = Some(match self.extreme.take() {
                    None => v,
                    Some(cur) => match v.sql_cmp(&cur)? {
                        Some(std::cmp::Ordering::Greater) => v,
                        _ => cur,
                    },
                });
            }
            AggFn::BoolAnd => {
                let b = v.as_bool()?.unwrap_or(false);
                self.bool_acc = Some(self.bool_acc.map_or(b, |acc| acc && b));
            }
            AggFn::BoolOr => {
                let b = v.as_bool()?.unwrap_or(false);
                self.bool_acc = Some(self.bool_acc.map_or(b, |acc| acc || b));
            }
            AggFn::CountStar => unreachable!(),
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self.func {
            AggFn::Count | AggFn::CountStar => Value::Int(self.count),
            AggFn::Sum => self.sum.unwrap_or(Value::Null),
            AggFn::Avg => match self.sum {
                None => Value::Null,
                Some(s) => {
                    let total = s.as_float().unwrap_or(0.0);
                    Value::Float(total / self.count as f64)
                }
            },
            AggFn::Min | AggFn::Max => self.extreme.unwrap_or(Value::Null),
            AggFn::BoolAnd | AggFn::BoolOr => self.bool_acc.map(Value::Bool).unwrap_or(Value::Null),
        }
    }
}

fn exec_agg(
    input: &PlanNode,
    keys: &[ExprIr],
    aggs: &[AggSpec],
    scalar: bool,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
    sink: &mut Sink<'_>,
) -> Result<Flow> {
    if scalar {
        let mut accs: Vec<AggAcc> = aggs.iter().map(AggAcc::new).collect();
        exec_into(input, env, rt, &mut |row, rt| {
            update_accs(&mut accs, aggs, &row, env, rt)?;
            Ok(Flow::More)
        })?;
        let row = accs.into_iter().map(AggAcc::finish).collect();
        return sink(Cow::Owned(row), rt);
    }

    // Grouped: preserve first-seen group order for deterministic output.
    // The key is evaluated into a reusable scratch buffer and only cloned
    // when a new group is born — `Vec<Value>: Borrow<[Value]>` lets the map
    // probe by slice, so group hits allocate nothing.
    let mut group_of: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<AggAcc>)> = Vec::new();
    let mut key_scratch: Vec<Value> = Vec::with_capacity(keys.len());
    exec_into(input, env, rt, &mut |row, rt| {
        let scopes = Scopes {
            row: &row,
            parent: env.scopes,
        };
        let inner = env.with_row(&scopes);
        key_scratch.clear();
        for k in keys {
            key_scratch.push(eval(k, &inner, rt)?);
        }
        let gi = match group_of.get(key_scratch.as_slice()) {
            Some(&gi) => gi,
            None => {
                let gi = groups.len();
                group_of.insert(key_scratch.clone(), gi);
                groups.push((key_scratch.clone(), aggs.iter().map(AggAcc::new).collect()));
                gi
            }
        };
        update_accs(&mut groups[gi].1, aggs, &row, env, rt)?;
        Ok(Flow::More)
    })?;
    let rows = groups
        .into_iter()
        .map(|(mut key, accs)| {
            key.extend(accs.into_iter().map(AggAcc::finish));
            key
        })
        .collect();
    push_owned(rows, rt, sink)
}

/// Feed one input row to each aggregate's accumulator.
fn update_accs(
    accs: &mut [AggAcc],
    aggs: &[AggSpec],
    row: &[Value],
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<()> {
    let scopes = Scopes {
        row,
        parent: env.scopes,
    };
    let inner = env.with_row(&scopes);
    for (acc, spec) in accs.iter_mut().zip(aggs) {
        let v = match &spec.arg {
            Some(e) => Some(eval(e, &inner, rt)?),
            None => None,
        };
        acc.update(v)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Sorting

/// Compare two rows under the given keys (keys pre-evaluated per row).
pub fn cmp_key_vectors(a: &[Value], b: &[Value], keys: &[SortKey]) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    for (i, k) in keys.iter().enumerate() {
        let (x, y) = (&a[i], &b[i]);
        let ord = match (x.is_null(), y.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => {
                if k.nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if k.nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, false) => {
                let o = x.total_cmp(y);
                if k.desc {
                    o.reverse()
                } else {
                    o
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn sort_rows(
    rows: Vec<Row>,
    keys: &[SortKey],
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Vec<Row>> {
    // Evaluate all sort keys first (they may contain subqueries, random()...).
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
    for row in rows {
        let scopes = Scopes {
            row: &row,
            parent: env.scopes,
        };
        let inner = env.with_row(&scopes);
        let mut kv = Vec::with_capacity(keys.len());
        for k in keys {
            kv.push(eval(&k.expr, &inner, rt)?);
        }
        keyed.push((kv, row));
    }
    keyed.sort_by(|(ka, _), (kb, _)| cmp_key_vectors(ka, kb, keys));
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

fn eval_opt_count(
    e: Option<&ExprIr>,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Option<usize>> {
    match e {
        None => Ok(None),
        Some(e) => {
            let v = eval(e, env, rt)?;
            if v.is_null() {
                return Ok(None);
            }
            let n = v.as_int()?;
            if n < 0 {
                return Err(Error::exec("LIMIT/OFFSET must not be negative"));
            }
            Ok(Some(n as usize))
        }
    }
}

// ---------------------------------------------------------------------------
// Set operations

fn exec_setop(op: SetOp, all: bool, left: Vec<Row>, right: Vec<Row>) -> Vec<Row> {
    use std::collections::hash_map::Entry;
    match op {
        SetOp::Union => {
            let mut out = left;
            out.extend(right);
            if all {
                out
            } else {
                let mut seen = std::collections::HashSet::with_capacity(out.len());
                out.into_iter().filter(|r| seen.insert(r.clone())).collect()
            }
        }
        SetOp::Intersect => {
            let mut counts: HashMap<Row, usize> = HashMap::new();
            for r in right {
                *counts.entry(r).or_insert(0) += 1;
            }
            let mut out = Vec::new();
            let mut emitted: std::collections::HashSet<Row> = std::collections::HashSet::new();
            for r in left {
                match counts.entry(r.clone()) {
                    Entry::Occupied(mut e) if *e.get() > 0 => {
                        if all {
                            *e.get_mut() -= 1;
                            out.push(r);
                        } else if emitted.insert(r.clone()) {
                            out.push(r);
                        }
                    }
                    _ => {}
                }
            }
            out
        }
        SetOp::Except => {
            let mut counts: HashMap<Row, usize> = HashMap::new();
            for r in &right {
                *counts.entry(r.clone()).or_insert(0) += 1;
            }
            let mut out = Vec::new();
            let mut emitted: std::collections::HashSet<Row> = std::collections::HashSet::new();
            for r in left {
                let blocked = match counts.get_mut(&r) {
                    Some(c) if *c > 0 => {
                        if all {
                            *c -= 1;
                            true
                        } else {
                            true
                        }
                    }
                    _ => false,
                };
                if !blocked && (all || emitted.insert(r.clone())) {
                    out.push(r);
                }
            }
            out
        }
    }
}

// ---------------------------------------------------------------------------
// CTEs (incl. the paper's WITH RECURSIVE / WITH ITERATE machinery)

/// A shadowed CTE binding: `(index, previous materialization, previous
/// working table)`, restored when the enclosing `WITH` scope exits.
type SavedCteBinding = (usize, Option<Arc<Vec<Row>>>, Option<Arc<Vec<Row>>>);

fn exec_with(
    ctes: &[CtePlan],
    body: &PlanNode,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
    sink: &mut Sink<'_>,
) -> Result<Flow> {
    // Save shadowed entries so recursive re-entry (e.g. through a UDF that
    // runs the same prepared plan) is safe.
    let mut saved: Vec<SavedCteBinding> = Vec::new();
    let result = (|| -> Result<Flow> {
        for cte in ctes {
            let index = cte.index();
            saved.push((
                index,
                rt.ctes.get(&index).cloned(),
                rt.working.get(&index).cloned(),
            ));
            match cte {
                CtePlan::Plain { plan, .. } => {
                    let rows = exec(plan, env, rt)?;
                    rt.ctes.insert(index, Arc::new(rows));
                }
                CtePlan::Recursive { .. } => {
                    let rows = exec_recursive_cte(cte, env, rt)?;
                    rt.ctes.insert(index, Arc::new(rows));
                }
            }
        }
        exec_into(body, env, rt, sink)
    })();
    // Restore shadowed entries (in reverse, though indexes are unique here).
    for (index, cte_prev, work_prev) in saved.into_iter().rev() {
        match cte_prev {
            Some(v) => {
                rt.ctes.insert(index, v);
            }
            None => {
                rt.ctes.remove(&index);
            }
        }
        match work_prev {
            Some(v) => {
                rt.working.insert(index, v);
            }
            None => {
                rt.working.remove(&index);
            }
        }
    }
    result
}

/// Does the expression (or any plan nested inside it) read the working table
/// of the given CTE index?
pub(crate) fn expr_uses_working(e: &ExprIr, index: usize) -> bool {
    let mut found = false;
    walk_expr_plans(e, &mut |p| found = found || plan_uses_working(p, index));
    found
}

/// Does the plan (or an expression inside it) read working table `index`?
fn plan_uses_working(p: &PlanNode, index: usize) -> bool {
    let mut found = matches!(p, PlanNode::WorkingScan { index: i } if *i == index);
    p.for_each_child(&mut |c| found = found || plan_uses_working(c, index));
    p.for_each_expr(&mut |e| found = found || expr_uses_working(e, index));
    found
}

/// Visit every plan held inside an expression: its sub-plans, also those
/// run by the ops of a lowered program. A let-chain flattened into a
/// program is no longer a plan, and holds no node these analyses look for.
pub(crate) fn walk_expr_plans(e: &ExprIr, f: &mut impl FnMut(&PlanNode)) {
    match e {
        ExprIr::Subplan(p)
        | ExprIr::Exists { plan: p }
        | ExprIr::Materialize { plan: p }
        | ExprIr::InPlan { plan: p, .. } => f(p),
        ExprIr::Vm(prog) => prog.for_each_access(&mut |a| {
            if let Access::Plan(p) | Access::Materialize(p) = a {
                f(p)
            }
        }),
        _ => {}
    }
    e.for_each_child(&mut |c| walk_expr_plans(c, f));
}

/// Does the predicate tree only read row columns below `limit` (plus outer
/// scopes and parameters)? Sub-plans and UDFs are rejected — they could
/// reach the appended column indirectly — and so is a lowered program: the
/// fused transition is recognized before its arm is lowered.
pub(crate) fn pred_reads_below(e: &ExprIr, limit: usize) -> bool {
    match e {
        ExprIr::Slot { depth, index } => *depth > 0 || *index < limit,
        ExprIr::UdfCall { .. }
        | ExprIr::Subplan(_)
        | ExprIr::Exists { .. }
        | ExprIr::InPlan { .. }
        | ExprIr::Materialize { .. }
        | ExprIr::SnapshotFn { .. }
        | ExprIr::Vm(_) => false,
        _ => e.all_children(|c| pred_reads_below(c, limit)),
    }
}

/// Run the fused transition's body and filter on one working row, leaving
/// the row as it was. When the filter keeps it, the successor's values stay
/// on the VM stack above the returned mark for [`write_successor`]; `None`
/// when the filter drops the row.
fn run_transition_row(
    t: &FusedTransition,
    row: &Row,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Option<usize>> {
    let base = rt.vm_stack.len();
    let scopes = Scopes {
        row,
        parent: env.scopes,
    };
    let inner = env.with_row(&scopes);
    // Body first (matching Extend-then-Filter evaluation order), values
    // parked on the VM stack.
    crate::vm::run_splat(&t.body, &inner, rt)?;
    match keeps(&t.pred, t.test, row, env, rt) {
        Ok(true) => Ok(Some(base)),
        Ok(false) => {
            rt.vm_stack.truncate(base);
            Ok(None)
        }
        Err(e) => {
            rt.vm_stack.truncate(base);
            Err(e)
        }
    }
}

/// Replace `out` with the successor [`run_transition_row`] left on the VM
/// stack above `base`: `width` splatted values, or one record to unpack.
fn write_successor(
    t: &FusedTransition,
    base: usize,
    out: &mut Row,
    rt: &mut Runtime<'_>,
) -> Result<()> {
    if rt.vm_stack.len() - base == t.width {
        out.clear();
        out.extend(rt.vm_stack.drain(base..));
    } else {
        debug_assert_eq!(rt.vm_stack.len() - base, 1);
        let v = rt.vm_stack.pop().unwrap();
        let rec = take_record(v, t.width)?;
        out.clear();
        out.extend(rec.iter().take(t.width).cloned());
    }
    Ok(())
}

fn iteration_limit_error(mode: RecursionMode, limit: u64) -> Error {
    Error::exec(format!(
        "{} CTE exceeded {} iterations (possible infinite recursion)",
        match mode {
            RecursionMode::Accumulate => "recursive",
            RecursionMode::IterateOnly => "iterative",
            RecursionMode::Retire => "retiring",
        },
        limit
    ))
}

// ---------------------------------------------------------------------------
// Fixpoint driver

/// A fixpoint's row buffers, shared by both execution tiers. An iteration
/// consumes `cur` and produces `next`; `prev` holds the last consumed
/// working set (kept only by `WITH ITERATE`), and `pool` recycles spent
/// rows as output buffers. Rows rotate between the four instead of being
/// copied.
pub(crate) struct Rotation {
    pub(crate) cur: Vec<Row>,
    pub(crate) next: Vec<Row>,
    pub(crate) prev: Vec<Row>,
    pub(crate) pool: Vec<Row>,
}

impl Rotation {
    pub(crate) fn new(cur: Vec<Row>) -> Self {
        Rotation {
            cur,
            next: Vec::new(),
            prev: Vec::new(),
            pool: Vec::new(),
        }
    }
}

/// What a fixpoint keeps of each iteration: its [`RecursionMode`], as the
/// one policy both execution tiers run under.
pub(crate) enum Retention {
    /// `WITH RECURSIVE`: every iteration's output joins the result.
    Accumulate(Tuplestore),
    /// `WITH ITERATE`: only the last working set the fixpoint consumed
    /// survives, kept by rotating buffers.
    IterateOnly,
    /// `WITH RETIRE`: a working row that fails the filter leaves the
    /// working set into the result instead of being discarded. The batch
    /// trampoline leans on this: one in-flight activation per input row,
    /// each leaving the moment its own iteration count is up.
    Retire { retired: Vec<Row>, union_all: bool },
}

impl Retention {
    fn new(mode: RecursionMode, union_all: bool, base: &[Row], work_mem: usize) -> Self {
        match mode {
            RecursionMode::Accumulate => {
                let mut store = Tuplestore::new(work_mem);
                store.extend(base.iter().cloned());
                Retention::Accumulate(store)
            }
            RecursionMode::IterateOnly => Retention::IterateOnly,
            RecursionMode::Retire => Retention::Retire {
                retired: Vec::new(),
                union_all,
            },
        }
    }

    /// Run one iteration's working rows through `apply`, which returns a
    /// row's successor (built in place or in a buffer from the pool) when
    /// the filter keeps it; successors go to `bufs.next`. Under `Retire` a
    /// row the filter drops retires instead of vanishing. When the filter
    /// is a bare column `flag` ([`retire_flag`]) and the arms are joined by
    /// UNION ALL, a successor whose flag the transition just cleared
    /// retires at once rather than being re-scanned next pass (plain UNION
    /// must first pass it through the dedup set). Rows retire by move.
    /// Returns how many rows `apply` kept; an error fails the fixpoint.
    pub(crate) fn step_rows<E>(
        &mut self,
        bufs: &mut Rotation,
        flag: Option<usize>,
        mut apply: impl FnMut(&mut Row, &mut Vec<Row>) -> std::result::Result<Option<Row>, E>,
    ) -> std::result::Result<u64, E> {
        let (mut retired, post) = match self {
            Retention::Retire { retired, union_all } => {
                (Some(retired), flag.filter(|_| *union_all))
            }
            _ => (None, None),
        };
        let mut kept = 0;
        for row in &mut bufs.cur {
            match apply(row, &mut bufs.pool)? {
                Some(out) => {
                    kept += 1;
                    match (post, retired.as_deref_mut()) {
                        (Some(i), Some(r)) if !out[i].is_true() => r.push(out),
                        _ => bufs.next.push(out),
                    }
                }
                None => {
                    if let Some(r) = retired.as_deref_mut() {
                        r.push(std::mem::take(row));
                    }
                }
            }
        }
        Ok(kept)
    }

    /// Hand an iteration's output to the policy, then rotate: the output
    /// becomes the next working set.
    pub(crate) fn keep(&mut self, bufs: &mut Rotation) {
        match self {
            Retention::IterateOnly => {
                bufs.pool.append(&mut bufs.prev);
                std::mem::swap(&mut bufs.prev, &mut bufs.cur);
            }
            _ => {
                if let Retention::Accumulate(store) = self {
                    store.extend(bufs.next.iter().cloned());
                }
                bufs.pool.append(&mut bufs.cur);
            }
        }
        // The next iteration draws at most one buffer per working row.
        bufs.pool.truncate(bufs.next.len());
        std::mem::swap(&mut bufs.cur, &mut bufs.next);
    }

    /// The fixpoint's result; `last` is the last consumed working set.
    fn finish(self, last: Vec<Row>, peak: usize, rt: &mut Runtime<'_>) -> Vec<Row> {
        match self {
            Retention::Accumulate(store) => store.finish(rt.buffers),
            Retention::IterateOnly => last,
            Retention::Retire { retired, .. } => {
                let batch = &mut rt.stats.batch;
                batch.batch_rows_in_flight = batch.batch_rows_in_flight.max(peak as u64);
                batch.batch_rows_retired += retired.len() as u64;
                retired
            }
        }
    }
}

/// Run one iteration of the fused transition on the VM, from `bufs.cur`
/// into `bufs.next`, and return the rows it kept. `WITH ITERATE` keeps
/// every input row as its last iteration, so a successor goes to a
/// recycled buffer; otherwise it overwrites its input in place.
fn fused_step(
    t: &FusedTransition,
    bufs: &mut Rotation,
    retention: &mut Retention,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<u64> {
    let keep_last = matches!(retention, Retention::IterateOnly);
    retention.step_rows(bufs, retire_flag(t.test), |row, pool| {
        let Some(base) = run_transition_row(t, row, env, rt)? else {
            return Ok(None);
        };
        if !keep_last {
            write_successor(t, base, row, rt)?;
            return Ok(Some(std::mem::take(row)));
        }
        let mut out = pool.pop().unwrap_or_default();
        write_successor(t, base, &mut out, rt)?;
        Ok(Some(out))
    })
}

/// Run one iteration of the general plan `arm` over working table `index`,
/// from `bufs.cur` into `bufs.next`: PostgreSQL's algorithm, for every arm
/// that is not a fused transition. `table` is the working table's buffer,
/// reused by every iteration. Under `WITH RETIRE` the plan runs once per
/// working row, so that a row it maps to nothing retires; the planner
/// admits only arms that map each row on its own there.
fn plan_step(
    arm: &PlanNode,
    index: usize,
    table: &mut Arc<Vec<Row>>,
    bufs: &mut Rotation,
    retention: &mut Retention,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<()> {
    let scan = |table: &Arc<Vec<Row>>, out: &mut Vec<Row>, rt: &mut Runtime<'_>| {
        rt.working.insert(index, Arc::clone(table));
        let run = exec_into(arm, env, rt, &mut |row, _| {
            out.push(row.into_owned());
            Ok(Flow::More)
        });
        rt.working.remove(&index);
        run.map(drop)
    };
    let Retention::Retire { retired, .. } = retention else {
        // The consumed rows come back: ITERATE keeps them as its last
        // iteration.
        std::mem::swap(Arc::make_mut(table), &mut bufs.cur);
        let run = scan(table, &mut bufs.next, rt);
        std::mem::swap(Arc::make_mut(table), &mut bufs.cur);
        return run;
    };
    for row in bufs.cur.drain(..) {
        Arc::make_mut(table).push(row);
        let before = bufs.next.len();
        let run = scan(table, &mut bufs.next, rt);
        let row = Arc::make_mut(table).pop().expect("the working row");
        run?;
        if bufs.next.len() == before {
            retired.push(row);
        }
    }
    Ok(())
}

/// How a fixpoint runs its recursive arm: one of three ways, chosen once,
/// at entry, from what prepare recognized.
enum Running<'p, 'c> {
    /// The fused transition in the mono tier.
    Mono(MonoRows<'p, 'c>),
    /// The fused transition on the VM.
    Fused(&'p FusedTransition),
    /// The general plan, with its working table's buffer.
    Plan(Arc<Vec<Row>>),
}

/// Run a recursive CTE to its fixpoint, one loop for every recursion mode
/// and every way of running the arm. The way is chosen once, before the
/// loop: a fused transition runs in the mono tier from its first iteration
/// unless `tier_mode` is `ForceOff`, prepare found it outside the closure
/// grammar, or its captures or probe targets do not bind, and on the VM
/// otherwise; every other arm runs as the general plan. Nothing is
/// recognized, compiled or cloned here: prepare did that once. Each
/// iteration stops on an empty working set, counts itself against
/// `max_recursive_iterations`, tracks the working-set peak, runs one step
/// over the shared [`Rotation`], deduplicates under UNION, and hands its
/// output to the [`Retention`] policy.
fn exec_recursive_cte(cte: &CtePlan, env: &EvalEnv<'_>, rt: &mut Runtime<'_>) -> Result<Vec<Row>> {
    let CtePlan::Recursive {
        index,
        base,
        recursive,
        mode,
        union_all,
        fused,
    } = cte
    else {
        unreachable!("only recursive CTEs reach the fixpoint driver");
    };
    let (index, mode, union_all) = (*index, *mode, *union_all);
    let mut working = exec(base, env, rt)?;
    let mut seen: std::collections::HashSet<Row> = std::collections::HashSet::new();
    if !union_all {
        working.retain(|r| seen.insert(r.clone()));
    }
    let limit = rt.config.max_recursive_iterations;
    let mut retention = Retention::new(mode, union_all, &working, rt.config.work_mem_bytes);
    // Working-set high-water mark, reported by EXPLAIN ANALYZE (and folded
    // into the batch counters for Retire).
    let mut peak = working.len();
    let mut bufs = Rotation::new(working);
    // An empty base runs no iteration, so it does not promote. The catalog
    // reference is copied out so the bound probes' borrows stay disjoint
    // from the runtime's mutable state.
    let catalog = rt.catalog;
    let mut running = match fused {
        Some(t) => t
            .mono
            .as_deref()
            .filter(|_| rt.config.tier_mode == TierMode::Auto && !bufs.cur.is_empty())
            .and_then(|prog| {
                MonoRows::enter(prog, retire_flag(t.test), env, catalog, &bufs.cur, rt.stats)
            })
            .map_or(Running::Fused(t), Running::Mono),
        None => Running::Plan(Arc::default()),
    };
    let mut iters: u64 = 0;
    loop {
        let len = bufs.cur.len();
        if len == 0 {
            break;
        }
        iters += 1;
        if iters > limit {
            return Err(iteration_limit_error(mode, limit));
        }
        peak = peak.max(len);
        let kept = match &mut running {
            Running::Mono(m) => m.step(&mut bufs, &mut retention, rt.stats)?,
            Running::Fused(t) => fused_step(t, &mut bufs, &mut retention, env, rt)?,
            Running::Plan(table) => {
                plan_step(recursive, index, table, &mut bufs, &mut retention, env, rt)?;
                0
            }
        };
        if !union_all {
            bufs.next.retain(|r| seen.insert(r.clone()));
        }
        retention.keep(&mut bufs);
        // Rows the transition kept, counted once for whichever tier ran it.
        let counter = match running {
            Running::Mono(_) => &mut rt.stats.tier.tier_mono_rows,
            _ => &mut rt.stats.fused_transition_rows,
        };
        *counter += kept;
    }
    // The tier that ran this fixpoint.
    let tier_label = match running {
        Running::Mono(_) => "mono",
        _ => "vm",
    };
    let result = retention.finish(std::mem::take(&mut bufs.prev), peak, rt);
    rt.stats.recursive_iterations += iters;
    if let Some(state) = rt.analyze.as_deref_mut() {
        let retired = match mode {
            RecursionMode::Retire => result.len() as u64,
            _ => 0,
        };
        state.record_fixpoint(
            index,
            mode_label(mode),
            iters,
            peak as u64,
            retired,
            tier_label,
        );
    }
    Ok(result)
}

fn mode_label(mode: RecursionMode) -> &'static str {
    match mode {
        RecursionMode::Accumulate => "recursive",
        RecursionMode::IterateOnly => "iterate",
        RecursionMode::Retire => "retire",
    }
}
