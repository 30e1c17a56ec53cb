//! Compiled expression IR and physical plan nodes.
//!
//! The planner translates the SQL AST into these types once per prepared
//! statement; execution then never touches names again. Column references
//! become [`ExprIr::Slot`] — `(depth, index)` into the runtime scope stack,
//! where depth 0 is the row of the node evaluating the expression and outer
//! depths are pushed by LATERAL joins and correlated subqueries. This mirrors
//! PostgreSQL's Var nodes with `varlevelsup`.

use std::sync::Arc;

use plaway_common::{Type, Value};
use plaway_sql::ast::{BinOp, JoinKind, SetOp};

/// Compiled scalar expression.
#[derive(Debug, Clone)]
pub enum ExprIr {
    Const(Value),
    /// Scope-stack reference: `depth` levels up, column `index`.
    Slot {
        depth: usize,
        index: usize,
    },
    /// Prepared-statement parameter (PL/pgSQL variable or UDF argument).
    Param(usize),
    Neg(Box<ExprIr>),
    Not(Box<ExprIr>),
    Binary {
        op: BinOp,
        left: Box<ExprIr>,
        right: Box<ExprIr>,
    },
    IsNull {
        expr: Box<ExprIr>,
        negated: bool,
    },
    Between {
        expr: Box<ExprIr>,
        low: Box<ExprIr>,
        high: Box<ExprIr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<ExprIr>>,
        branches: Vec<(ExprIr, ExprIr)>,
        else_: Option<Box<ExprIr>>,
    },
    /// Lazily evaluated COALESCE (first non-NULL argument).
    Coalesce(Vec<ExprIr>),
    /// Built-in scalar function (fixed at plan time).
    Scalar {
        func: ScalarFn,
        args: Vec<ExprIr>,
    },
    /// SQL-language UDF call, resolved to its body plan at runtime through
    /// the session's function-plan cache (this indirection is what permits
    /// recursive UDFs).
    UdfCall {
        name: String,
        args: Vec<ExprIr>,
    },
    /// Scalar subquery: must yield at most one row, one column.
    Subplan(Arc<PlanNode>),
    /// Materialize-once cursor source (`materialize(<subquery>)`): evaluate
    /// the plan exactly once, register the full row set in the runtime's
    /// execution-scoped [`crate::tuplestore::SnapshotStore`], and yield the
    /// integer snapshot handle. The compiled `FOR rec IN <query>` loop binds
    /// this at loop entry and addresses rows positionally afterwards —
    /// turning the trampoline's row loop from O(n²) re-scans into O(n).
    /// Never pure, never memoized: the handle names execution-local state.
    Materialize {
        plan: Arc<PlanNode>,
    },
    /// Snapshot accessor (`snapshot_rows` / `fetch_row` / `snapshot_release`)
    /// over a handle produced by [`ExprIr::Materialize`]. Kept apart from
    /// [`ScalarFn`] because evaluation needs the runtime's snapshot store,
    /// not just argument values.
    SnapshotFn {
        op: SnapshotOp,
        args: Vec<ExprIr>,
    },
    Exists {
        plan: Arc<PlanNode>,
    },
    InList {
        expr: Box<ExprIr>,
        list: Vec<ExprIr>,
        negated: bool,
    },
    InPlan {
        expr: Box<ExprIr>,
        plan: Arc<PlanNode>,
        negated: bool,
    },
    Like {
        expr: Box<ExprIr>,
        pattern: Box<ExprIr>,
        negated: bool,
    },
    Row(Vec<ExprIr>),
    Cast {
        expr: Box<ExprIr>,
        ty: Type,
    },
    /// Lowered flat program (see [`crate::vm`]): every planned expression
    /// other than a leaf is lowered to one, once per prepared plan, and runs
    /// on a reusable value stack. The executor evaluates nothing else.
    Vm(Arc<crate::vm::ExprProgram>),
}

/// The one match behind both child visitors: the binding modes make it
/// serve `&ExprIr` and `&mut ExprIr` alike.
macro_rules! expr_children {
    ($e:expr, $f:expr) => {
        match $e {
            ExprIr::Const(_)
            | ExprIr::Slot { .. }
            | ExprIr::Param(_)
            | ExprIr::Subplan(_)
            | ExprIr::Materialize { .. }
            | ExprIr::Exists { .. }
            | ExprIr::Vm(_) => {}
            ExprIr::Neg(x)
            | ExprIr::Not(x)
            | ExprIr::IsNull { expr: x, .. }
            | ExprIr::Cast { expr: x, .. }
            | ExprIr::InPlan { expr: x, .. } => $f(x),
            ExprIr::Binary { left, right, .. }
            | ExprIr::Like {
                expr: left,
                pattern: right,
                ..
            } => {
                $f(left);
                $f(right);
            }
            ExprIr::Between {
                expr, low, high, ..
            } => {
                $f(expr);
                $f(low);
                $f(high);
            }
            ExprIr::Case {
                operand,
                branches,
                else_,
            } => {
                if let Some(o) = operand {
                    $f(o);
                }
                for (w, t) in branches {
                    $f(w);
                    $f(t);
                }
                if let Some(x) = else_ {
                    $f(x);
                }
            }
            ExprIr::Coalesce(args)
            | ExprIr::Row(args)
            | ExprIr::Scalar { args, .. }
            | ExprIr::UdfCall { args, .. }
            | ExprIr::SnapshotFn { args, .. } => {
                for a in args {
                    $f(a);
                }
            }
            ExprIr::InList { expr, list, .. } => {
                $f(expr);
                for x in list {
                    $f(x);
                }
            }
        }
    };
}

impl ExprIr {
    pub fn slot(index: usize) -> ExprIr {
        ExprIr::Slot { depth: 0, index }
    }

    /// Visit the direct sub-expressions, left to right. Sub-plans are not
    /// children, and neither is a lowered program's content.
    pub fn for_each_child(&self, f: &mut impl FnMut(&ExprIr)) {
        expr_children!(self, f);
    }

    /// [`ExprIr::for_each_child`] over mutable children.
    pub fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut ExprIr)) {
        expr_children!(self, f);
    }

    /// Does `pred` hold for every direct sub-expression?
    pub(crate) fn all_children(&self, mut pred: impl FnMut(&ExprIr) -> bool) -> bool {
        let mut all = true;
        self.for_each_child(&mut |c| all = all && pred(c));
        all
    }
}

/// Operations over registered row snapshots (see [`ExprIr::SnapshotFn`]).
/// All three are volatile by construction: they read or mutate the
/// execution's snapshot store, so folding, hoisting, memoization and
/// dead-code elimination must leave them alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotOp {
    /// `snapshot_rows(handle)` — row count of the snapshot.
    Rows,
    /// `fetch_row(handle, pos)` — row `pos` (1-based) as a record value;
    /// `fetch_row(handle, pos, field)` — field `field` (1-based) of that row
    /// directly, skipping the intermediate record allocation.
    Fetch,
    /// `snapshot_release(handle)` — drop the snapshot, recycle its slot,
    /// yield NULL. Double release is an executor error (compiler bug).
    Release,
}

impl SnapshotOp {
    /// Resolve a snapshot accessor by SQL function name.
    pub fn from_name(name: &str) -> Option<SnapshotOp> {
        Some(match name {
            "snapshot_rows" => SnapshotOp::Rows,
            "fetch_row" => SnapshotOp::Fetch,
            "snapshot_release" => SnapshotOp::Release,
            _ => return None,
        })
    }

    /// Accepted argument counts.
    pub fn arity_ok(self, argc: usize) -> bool {
        match self {
            SnapshotOp::Rows | SnapshotOp::Release => argc == 1,
            SnapshotOp::Fetch => argc == 2 || argc == 3,
        }
    }

    /// The SQL-visible function name.
    pub fn name(self) -> &'static str {
        match self {
            SnapshotOp::Rows => "snapshot_rows",
            SnapshotOp::Fetch => "fetch_row",
            SnapshotOp::Release => "snapshot_release",
        }
    }
}

/// Built-in scalar functions. Dispatch is a plain enum match — no dynamic
/// lookup at evaluation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFn {
    Abs,
    Sign,
    Floor,
    Ceil,
    Round,
    Trunc,
    Sqrt,
    Power,
    Exp,
    Ln,
    Mod,
    Random,
    Length,
    Lower,
    Upper,
    Substr,
    Concat,
    Replace,
    Trim,
    Ltrim,
    Rtrim,
    Strpos,
    LeftStr,
    RightStr,
    Repeat,
    Reverse,
    Chr,
    Ascii,
    Nullif,
    Greatest,
    Least,
    /// Engine extension: positional field access into a record value,
    /// `row_field(rec, i)` (1-based) — used by the packed-arguments CTE
    /// layout the paper's Figure 8 template implies.
    RowField,
    /// Engine extension: `raise_error(condition, message)` aborts the query
    /// with a catchable [`plaway_common::Error::Raised`]. The compiler emits
    /// it for PL/pgSQL conditions that escape every `EXCEPTION` handler, so
    /// an uncaught `RAISE EXCEPTION` behaves identically under
    /// interpretation and under the compiled trampoline. Volatile: never
    /// constant-folded, hoisted or eliminated.
    RaiseError,
}

impl ScalarFn {
    /// Resolve a function name; returns `None` for names that are not
    /// built-ins (candidate UDF calls).
    pub fn from_name(name: &str) -> Option<ScalarFn> {
        Some(match name {
            "abs" => ScalarFn::Abs,
            "sign" => ScalarFn::Sign,
            "floor" => ScalarFn::Floor,
            "ceil" | "ceiling" => ScalarFn::Ceil,
            "round" => ScalarFn::Round,
            "trunc" => ScalarFn::Trunc,
            "sqrt" => ScalarFn::Sqrt,
            "power" | "pow" => ScalarFn::Power,
            "exp" => ScalarFn::Exp,
            "ln" => ScalarFn::Ln,
            "mod" => ScalarFn::Mod,
            "random" => ScalarFn::Random,
            "length" | "char_length" => ScalarFn::Length,
            "lower" => ScalarFn::Lower,
            "upper" => ScalarFn::Upper,
            "substr" | "substring" => ScalarFn::Substr,
            "concat" => ScalarFn::Concat,
            "replace" => ScalarFn::Replace,
            "trim" | "btrim" => ScalarFn::Trim,
            "ltrim" => ScalarFn::Ltrim,
            "rtrim" => ScalarFn::Rtrim,
            "strpos" | "position" => ScalarFn::Strpos,
            "left" => ScalarFn::LeftStr,
            "right" => ScalarFn::RightStr,
            "repeat" => ScalarFn::Repeat,
            "reverse" => ScalarFn::Reverse,
            "chr" => ScalarFn::Chr,
            "ascii" => ScalarFn::Ascii,
            "nullif" => ScalarFn::Nullif,
            "greatest" => ScalarFn::Greatest,
            "least" => ScalarFn::Least,
            "row_field" => ScalarFn::RowField,
            "raise_error" => ScalarFn::RaiseError,
            _ => return None,
        })
    }

    /// Volatile functions must be re-evaluated at every call site: they are
    /// excluded from constant folding, memoization and dead-code elimination.
    pub fn is_volatile(self) -> bool {
        matches!(self, ScalarFn::Random | ScalarFn::RaiseError)
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    Count,
    CountStar,
    Sum,
    Avg,
    Min,
    Max,
    BoolAnd,
    BoolOr,
}

impl AggFn {
    pub fn from_name(name: &str) -> Option<AggFn> {
        Some(match name {
            "count" => AggFn::Count,
            "sum" => AggFn::Sum,
            "avg" => AggFn::Avg,
            "min" => AggFn::Min,
            "max" => AggFn::Max,
            "bool_and" | "every" => AggFn::BoolAnd,
            "bool_or" => AggFn::BoolOr,
            _ => return None,
        })
    }
}

/// Window functions: either an aggregate over a frame, or a rank-family
/// function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WinFn {
    Agg(AggFn),
    RowNumber,
    Rank,
    DenseRank,
    Lag,
    Lead,
    FirstValue,
    LastValue,
}

impl WinFn {
    pub fn from_name(name: &str) -> Option<WinFn> {
        Some(match name {
            "row_number" => WinFn::RowNumber,
            "rank" => WinFn::Rank,
            "dense_rank" => WinFn::DenseRank,
            "lag" => WinFn::Lag,
            "lead" => WinFn::Lead,
            "first_value" => WinFn::FirstValue,
            "last_value" => WinFn::LastValue,
            other => WinFn::Agg(AggFn::from_name(other)?),
        })
    }
}

/// One aggregate in an [`PlanNode::Agg`] node.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFn,
    /// `None` for `COUNT(*)`.
    pub arg: Option<ExprIr>,
    pub distinct: bool,
}

/// Sort key, already compiled.
#[derive(Debug, Clone)]
pub struct SortKey {
    pub expr: ExprIr,
    pub desc: bool,
    /// Resolved (PostgreSQL default applied at plan time).
    pub nulls_first: bool,
}

/// Compiled window frame.
#[derive(Debug, Clone)]
pub struct FrameIr {
    pub units: plaway_sql::ast::FrameUnits,
    pub start: plaway_sql::ast::FrameBound,
    pub end: plaway_sql::ast::FrameBound,
    pub exclude_current_row: bool,
}

/// One window expression computed by a [`PlanNode::WindowAgg`].
#[derive(Debug, Clone)]
pub struct WindowExprIr {
    pub func: WinFn,
    pub args: Vec<ExprIr>,
    pub partition_by: Vec<ExprIr>,
    pub order_by: Vec<SortKey>,
    pub frame: Option<FrameIr>,
}

/// How a recursive CTE accumulates rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecursionMode {
    /// `WITH RECURSIVE`: the union of all iterations survives (a trace of
    /// the whole call history — the paper's §3 complaint).
    Accumulate,
    /// `WITH ITERATE` (Passing et al.): only the final iteration survives;
    /// nothing accumulates, nothing spills.
    IterateOnly,
    /// `WITH RETIRE`: no trace either, but a working row that fails the
    /// recursive arm's filter is *retired* into the final result instead of
    /// being dropped. One fixpoint drives a whole batch of activations,
    /// each finishing on its own iteration.
    Retire,
}

/// A planned common table expression.
#[derive(Debug, Clone)]
pub enum CtePlan {
    /// Materialized once before the body runs.
    Plain { index: usize, plan: PlanNode },
    /// Fixpoint evaluation: `base UNION [ALL] recursive`.
    Recursive {
        index: usize,
        base: PlanNode,
        recursive: PlanNode,
        mode: RecursionMode,
        /// `UNION ALL` (true) vs deduplicating `UNION` (false).
        union_all: bool,
        /// The recursive arm as a fused transition, recognized once at
        /// prepare by [`crate::vm::precompile_plan`]; `None` runs the
        /// general plan.
        fused: Option<Box<FusedTransition>>,
    },
}

/// A recursive arm of the shape every compiled fixpoint has (Figure 8's
/// `run`): `ProjectUnpack ∘ Filter ∘ Extend[body] ∘ WorkingScan`, with
/// `src == width ≥ 2`, a filter that reads only columns below `src`, and
/// no other read of the working table. `exec_recursive_cte` runs it row by
/// row from these parts, never through the arm's plan.
#[derive(Debug, Clone)]
pub struct FusedTransition {
    /// The body, lowered and splat-transformed ([`crate::vm`]) in place:
    /// the program the arm's `Extend` node holds, shared, not copied.
    pub(crate) body: Arc<crate::vm::ExprProgram>,
    /// The filter, lowered, as the arm's `Filter` node holds it.
    pub(crate) pred: ExprIr,
    /// The filter's slot test ([`crate::exec::bool_slot_test`]): a plain
    /// column is the retire flag.
    pub(crate) test: Option<(usize, bool)>,
    /// Columns of a working row and of its successor.
    pub(crate) width: usize,
    /// The transition compiled for the mono tier, when the arms are joined
    /// by `UNION ALL` and the closure grammar admits it, whatever the
    /// `tier_mode`. `Arc`-shared so plan clones do not copy its closures.
    pub(crate) mono: Option<Arc<crate::tier::TierProgram>>,
}

impl CtePlan {
    pub fn index(&self) -> usize {
        match self {
            CtePlan::Plain { index, .. } | CtePlan::Recursive { index, .. } => *index,
        }
    }
}

/// Physical plan operators. Execution materializes each node's full output
/// (rows are small; the paper's workloads iterate, they don't build big
/// intermediate relations).
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Full scan of a base table.
    SeqScan {
        table: String,
    },
    /// Index point lookup: rows of `table` where `column = key`. Served by
    /// either index kind; rows come back in heap order, matching the
    /// filtered seq scan it replaces byte-for-byte.
    IndexLookup {
        table: String,
        column: usize,
        key: ExprIr,
    },
    /// Ordered-index range scan: rows of `table` where `column` lies between
    /// the bounds (`bool` = inclusive). At least one bound is present; rows
    /// come back in heap order (bitmap-scan style), matching the filtered
    /// seq scan it replaces byte-for-byte.
    IndexRange {
        table: String,
        column: usize,
        lo: Option<(ExprIr, bool)>,
        hi: Option<(ExprIr, bool)>,
    },
    /// Literal rows.
    Values {
        rows: Vec<Vec<ExprIr>>,
    },
    /// Table-less one-row SELECT (`SELECT 1 + 2`).
    Result {
        exprs: Vec<ExprIr>,
    },
    Filter {
        input: Box<PlanNode>,
        pred: ExprIr,
    },
    Project {
        input: Box<PlanNode>,
        exprs: Vec<ExprIr>,
    },
    /// Fused record-unpacking projection: each output row is the first
    /// `width` fields of the record in column `src` of the input row.
    /// Replaces the `SELECT row_field(x, 1), ..., row_field(x, n)` shape the
    /// PL/SQL compiler's recursive arm emits (Figure 8's row decoding),
    /// avoiding one slot lookup + function dispatch + record clone per
    /// column per iteration.
    ProjectUnpack {
        input: Box<PlanNode>,
        src: usize,
        width: usize,
    },
    /// Fused LATERAL let-chain: for each input row, evaluate `exprs` left to
    /// right, each seeing the row extended so far (depth 0). Replaces the
    /// `LEFT JOIN LATERAL (SELECT e) ...` chains the PL/SQL compiler emits,
    /// avoiding per-level row rebuilding.
    Extend {
        input: Box<PlanNode>,
        exprs: Vec<ExprIr>,
    },
    /// Nested-loop join. With `lateral`, the right side is re-executed per
    /// left row with the left row pushed onto the scope stack.
    NestLoop {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        kind: JoinKind,
        lateral: bool,
        on: Option<ExprIr>,
        /// Width of the right side, needed to pad NULLs for LEFT joins.
        right_width: usize,
    },
    /// Grouped or scalar aggregation. Output: group keys then aggregates.
    Agg {
        input: Box<PlanNode>,
        keys: Vec<ExprIr>,
        aggs: Vec<AggSpec>,
        /// No GROUP BY: always exactly one output row.
        scalar: bool,
    },
    /// Appends one column per window expression to each input row.
    WindowAgg {
        input: Box<PlanNode>,
        windows: Vec<WindowExprIr>,
    },
    Sort {
        input: Box<PlanNode>,
        keys: Vec<SortKey>,
    },
    Distinct {
        input: Box<PlanNode>,
    },
    Limit {
        input: Box<PlanNode>,
        limit: Option<ExprIr>,
        offset: Option<ExprIr>,
    },
    /// UNION ALL of independently planned inputs.
    Append {
        inputs: Vec<PlanNode>,
    },
    /// Deduplicating / bag set operations other than UNION ALL.
    SetOpNode {
        op: SetOp,
        all: bool,
        left: Box<PlanNode>,
        right: Box<PlanNode>,
    },
    /// CTE scope: materialize/iterate each CTE, then run the body.
    With {
        ctes: Vec<CtePlan>,
        body: Box<PlanNode>,
    },
    /// Scan of a materialized CTE result.
    CteScan {
        index: usize,
    },
    /// Scan of the recursive working table (inside a recursive arm).
    WorkingScan {
        index: usize,
    },
    /// Per-execution memo over a pure subtree that can run many times per
    /// statement (placed by [`crate::vm::precompile_plan`]). `key` holds
    /// the outer slots and parameters the subtree reads; a repeated key
    /// returns the stored rows without running `input`. The `Arc`'s address
    /// names the memo site, so clones of one plan share their entries.
    Memoize {
        input: Arc<PlanNode>,
        key: Vec<ExprIr>,
    },
}

/// The one match behind both child visitors of [`PlanNode`]. `Memoize`
/// holds its input in an `Arc`, so each visitor says how to reach it.
macro_rules! plan_children {
    ($node:expr, $f:expr, $memo:ident => $visit_memo:expr) => {
        match $node {
            PlanNode::SeqScan { .. }
            | PlanNode::IndexLookup { .. }
            | PlanNode::IndexRange { .. }
            | PlanNode::Values { .. }
            | PlanNode::Result { .. }
            | PlanNode::CteScan { .. }
            | PlanNode::WorkingScan { .. } => {}
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::ProjectUnpack { input, .. }
            | PlanNode::Extend { input, .. }
            | PlanNode::Agg { input, .. }
            | PlanNode::WindowAgg { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Limit { input, .. } => $f(input),
            PlanNode::Memoize { input: $memo, .. } => $visit_memo,
            PlanNode::NestLoop { left, right, .. } | PlanNode::SetOpNode { left, right, .. } => {
                $f(left);
                $f(right);
            }
            PlanNode::Append { inputs } => {
                for i in inputs {
                    $f(i);
                }
            }
            PlanNode::With { ctes, body } => {
                for c in ctes {
                    match c {
                        CtePlan::Plain { plan, .. } => $f(plan),
                        CtePlan::Recursive {
                            base, recursive, ..
                        } => {
                            $f(base);
                            $f(recursive);
                        }
                    }
                }
                $f(body);
            }
        }
    };
}

/// The one match behind both expression visitors of [`PlanNode`], like
/// `expr_children!` for [`ExprIr`].
macro_rules! plan_exprs {
    ($node:expr, $f:expr) => {
        match $node {
            PlanNode::SeqScan { .. }
            | PlanNode::ProjectUnpack { .. }
            | PlanNode::Distinct { .. }
            | PlanNode::Append { .. }
            | PlanNode::SetOpNode { .. }
            | PlanNode::CteScan { .. }
            | PlanNode::WorkingScan { .. }
            | PlanNode::With { .. } => {}
            PlanNode::IndexLookup { key: e, .. } | PlanNode::Filter { pred: e, .. } => $f(e),
            PlanNode::IndexRange { lo, hi, .. } => {
                for (e, _) in lo.into_iter().chain(hi) {
                    $f(e);
                }
            }
            PlanNode::Values { rows } => {
                for e in rows.into_iter().flatten() {
                    $f(e);
                }
            }
            PlanNode::Result { exprs }
            | PlanNode::Project { exprs, .. }
            | PlanNode::Extend { exprs, .. }
            | PlanNode::Memoize { key: exprs, .. } => {
                for e in exprs {
                    $f(e);
                }
            }
            PlanNode::NestLoop { on, .. } => {
                if let Some(e) = on {
                    $f(e);
                }
            }
            PlanNode::Limit { limit, offset, .. } => {
                for e in limit.into_iter().chain(offset) {
                    $f(e);
                }
            }
            PlanNode::Agg { keys, aggs, .. } => {
                for e in keys {
                    $f(e);
                }
                for AggSpec { arg, .. } in aggs {
                    if let Some(e) = arg {
                        $f(e);
                    }
                }
            }
            PlanNode::WindowAgg { windows, .. } => {
                for WindowExprIr {
                    args,
                    partition_by,
                    order_by,
                    ..
                } in windows
                {
                    for e in args.into_iter().chain(partition_by) {
                        $f(e);
                    }
                    for SortKey { expr, .. } in order_by {
                        $f(expr);
                    }
                }
            }
            PlanNode::Sort { keys, .. } => {
                for SortKey { expr, .. } in keys {
                    $f(expr);
                }
            }
        }
    };
}

impl PlanNode {
    /// Count plan nodes — a proxy for "plan size" used in instrumentation
    /// assertions and EXPLAIN-style output.
    pub fn node_count(&self) -> usize {
        let mut n = 1;
        self.for_each_child(&mut |c| n += c.node_count());
        n
    }

    /// Visit the direct child plans, inputs before bodies.
    pub(crate) fn for_each_child(&self, f: &mut impl FnMut(&PlanNode)) {
        plan_children!(self, f, input => f(input));
    }

    /// [`PlanNode::for_each_child`] over mutable children. A `Memoize`
    /// input is visited only while its `Arc` is unshared, as
    /// [`crate::vm::precompile_plan`] does.
    pub(crate) fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut PlanNode)) {
        plan_children!(self, f, input => {
            if let Some(p) = Arc::get_mut(input) {
                f(p)
            }
        });
    }

    /// Visit the expressions held directly by this node (not by children).
    pub(crate) fn for_each_expr(&self, f: &mut impl FnMut(&ExprIr)) {
        plan_exprs!(self, f);
    }

    /// [`PlanNode::for_each_expr`] over mutable expressions.
    pub(crate) fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut ExprIr)) {
        plan_exprs!(self, f);
    }

    /// One-line operator name for EXPLAIN output.
    pub fn op_name(&self) -> &'static str {
        match self {
            PlanNode::SeqScan { .. } => "SeqScan",
            PlanNode::IndexLookup { .. } => "IndexLookup",
            PlanNode::IndexRange { .. } => "IndexRange",
            PlanNode::Values { .. } => "Values",
            PlanNode::Result { .. } => "Result",
            PlanNode::Filter { .. } => "Filter",
            PlanNode::Project { .. } => "Project",
            PlanNode::ProjectUnpack { .. } => "ProjectUnpack",
            PlanNode::Extend { .. } => "Extend",
            PlanNode::NestLoop { .. } => "NestLoop",
            PlanNode::Agg { .. } => "Aggregate",
            PlanNode::WindowAgg { .. } => "WindowAgg",
            PlanNode::Sort { .. } => "Sort",
            PlanNode::Distinct { .. } => "Distinct",
            PlanNode::Limit { .. } => "Limit",
            PlanNode::Append { .. } => "Append",
            PlanNode::SetOpNode { .. } => "SetOp",
            PlanNode::With { .. } => "With",
            PlanNode::CteScan { .. } => "CteScan",
            PlanNode::WorkingScan { .. } => "WorkingScan",
            PlanNode::Memoize { .. } => "Memoize",
        }
    }

    /// `Memoize` nodes in this plan, including those inside expression
    /// sub-plans (also the plans run by lowered programs' ops).
    pub(crate) fn memo_nodes(&self) -> usize {
        let mut n = usize::from(matches!(self, PlanNode::Memoize { .. }));
        self.for_each_child(&mut |c| n += c.memo_nodes());
        self.for_each_expr(&mut |e| {
            crate::exec::walk_expr_plans(e, &mut |p| n += p.memo_nodes());
        });
        n
    }

    /// Is this one of the operators that must consume their whole input
    /// before emitting a row? These are the memoization candidates.
    pub(crate) fn is_blocking(&self) -> bool {
        matches!(
            self,
            PlanNode::WindowAgg { .. }
                | PlanNode::Sort { .. }
                | PlanNode::Agg { .. }
                | PlanNode::Distinct { .. }
                | PlanNode::SetOpNode { .. }
        )
    }

    /// Indented EXPLAIN-style rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    /// One-line per-node EXPLAIN header (no indentation, no newline).
    /// Shared between the plain [`PlanNode::explain`] rendering and the
    /// EXPLAIN ANALYZE renderer, so the two stay byte-identical per node.
    pub fn explain_line(&self) -> String {
        match self {
            PlanNode::SeqScan { table } => format!("SeqScan on {table}"),
            PlanNode::IndexLookup { table, column, .. } => {
                format!("IndexLookup on {table} (col #{column})")
            }
            PlanNode::IndexRange {
                table,
                column,
                lo,
                hi,
            } => {
                let mut bounds = Vec::new();
                if let Some((_, incl)) = lo {
                    bounds.push(if *incl { ">= ?" } else { "> ?" });
                }
                if let Some((_, incl)) = hi {
                    bounds.push(if *incl { "<= ?" } else { "< ?" });
                }
                format!(
                    "IndexRange on {table} (col #{column} {})",
                    bounds.join(" AND ")
                )
            }
            PlanNode::NestLoop { kind, lateral, .. } => {
                format!(
                    "NestLoop {:?}{}",
                    kind,
                    if *lateral { " LATERAL" } else { "" }
                )
            }
            PlanNode::With { ctes, .. } => {
                let kinds: Vec<&str> = ctes
                    .iter()
                    .map(|c| match c {
                        CtePlan::Plain { .. } => "plain",
                        CtePlan::Recursive {
                            mode: RecursionMode::Accumulate,
                            ..
                        } => "recursive",
                        CtePlan::Recursive {
                            mode: RecursionMode::IterateOnly,
                            ..
                        } => "iterate",
                        CtePlan::Recursive {
                            mode: RecursionMode::Retire,
                            ..
                        } => "retire",
                    })
                    .collect();
                format!("With [{}]", kinds.join(", "))
            }
            PlanNode::Memoize { key, .. } => format!("Memoize (key: {} columns)", key.len()),
            other => other.op_name().to_string(),
        }
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let _ = writeln!(out, "{pad}{}", self.explain_line());
        self.for_each_child(&mut |c| c.explain_into(out, depth + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_fn_name_resolution() {
        assert_eq!(ScalarFn::from_name("abs"), Some(ScalarFn::Abs));
        assert_eq!(ScalarFn::from_name("ceiling"), Some(ScalarFn::Ceil));
        assert_eq!(ScalarFn::from_name("no_such_fn"), None);
    }

    #[test]
    fn win_fn_covers_aggregates() {
        assert_eq!(WinFn::from_name("sum"), Some(WinFn::Agg(AggFn::Sum)));
        assert_eq!(WinFn::from_name("row_number"), Some(WinFn::RowNumber));
        assert_eq!(WinFn::from_name("nope"), None);
    }

    #[test]
    fn node_count_and_explain() {
        let plan = PlanNode::Project {
            input: Box::new(PlanNode::Filter {
                input: Box::new(PlanNode::SeqScan { table: "t".into() }),
                pred: ExprIr::Const(Value::Bool(true)),
            }),
            exprs: vec![ExprIr::slot(0)],
        };
        assert_eq!(plan.node_count(), 3);
        let text = plan.explain();
        assert!(text.contains("Project"));
        assert!(text.contains("SeqScan on t"));
    }
}
