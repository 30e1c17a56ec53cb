//! Tiered execution: monomorphized closure pipelines for fixpoint
//! transitions.
//!
//! The expression VM, the engine's one evaluator, runs the fused
//! `Extend → Filter → Unpack` transition as bytecode: every operand goes
//! through its value stack and every opcode pays one dispatch branch. This
//! module removes both for the common shape. At prepare time the one
//! recognizer, `vm::fuse_transition`, finds the fused transition and hands
//! its body and filter trees to `compile`, which turns the whole per-row
//! transition into Rust closures that read their operands in place and
//! write the successor row directly.
//!
//! The tier has no value type and no operator semantics of its own. Its
//! cells are the VM's [`Value`]s, and it computes every operator with the
//! functions the VM calls: `fast_int_bin`, then `apply_bin`, the
//! three-valued rules beside `and3` (`or3`, `not3`, `between3`, `like3`,
//! `in_step`, `in_verdict`), `Value::sql_eq`, `as_bool` and `cast`, and
//! [`eval_scalar`]. The two tiers can differ only in control flow.
//!
//! Promotion happens once, at fixpoint entry (see `DESIGN.md` §7). The
//! costly compile already ran at prepare time, so a later promotion would
//! defer only a bind. Under `tier_mode = Auto` a
//! recognized transition whose captures and probe targets bind runs in the
//! mono tier from its first iteration; `ForceOff` keeps it in the VM for
//! the differential harness and the benchmarks.
//!
//! The tier owns no loop and no rows. The one fixpoint driver
//! (`exec_recursive_cte`) runs every iteration over its row buffers
//! (`Rotation`), and once `MonoRows::enter` has promoted the fixpoint it
//! runs each iteration as a `MonoRows::step` under the same retention
//! policy (`Retention`) as the VM.
//!
//! An error in the tier is the statement's error. An operator error comes
//! from the function the VM would call at the same point; a second probe
//! match and a kept row whose body is not a row raise the executor's texts
//! (`second_row_error`, `take_record`). The tier evaluates in the VM's
//! order, so it fails on the same row with the same error.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use plaway_common::{Error, SessionRng, Value};
use plaway_sql::ast::BinOp;

use crate::catalog::{Catalog, Index, Row};
use crate::exec::{
    and3, apply_bin, between3, bool_value, in_step, in_verdict, like3, not3, or3, second_row_error,
    take_record, EvalEnv, Retention, Rotation, RuntimeStats, Scopes,
};
use crate::functions::eval_scalar;
use crate::ir::{ExprIr, PlanNode};
use crate::vm::{chain_flattenable, chain_shape, fast_int_bin, plan_free_scopes};

/// Let-chain register ceiling; compiled kernels use a handful of cells.
const MAX_CHAIN: usize = 16;

// ---------------------------------------------------------------------------
// Runtime frames

/// A closure's result. The error is boxed so that the result of a hot
/// closure is no larger than a [`Value`].
type TResult<T = Value> = std::result::Result<T, Box<Error>>;

/// The error for a frame or slot the compiler proved present: like the
/// VM's, it can only mean a planner bug.
fn planner_bug(what: &str) -> Box<Error> {
    Box::new(Error::exec(format!("{what} (planner bug)")))
}

/// Iteration-local counters, flushed into [`RuntimeStats`] at the end of
/// each iteration.
#[derive(Debug, Clone, Copy, Default)]
struct TierRowStats {
    subplan_evals: u64,
    index_probes: u64,
    rows_scanned: u64,
}

// ---------------------------------------------------------------------------
// Compiled closures

/// A compiled operand. Its [`Scopes`] hold only the compiled frames: depth
/// 0 is the innermost (the working row, a chain's registers or a probed
/// base-table row), and outer scopes are captured as binds at promotion.
type TExpr =
    Box<dyn for<'a> Fn(&Scopes<'a>, &TierBound<'a>, &mut TierRowStats) -> TResult + Send + Sync>;

/// Coerce a closure to the boxed HRTB signature in one place.
fn texpr(
    f: impl for<'a> Fn(&Scopes<'a>, &TierBound<'a>, &mut TierRowStats) -> TResult
        + Send
        + Sync
        + 'static,
) -> TExpr {
    Box::new(f)
}

/// A leaf operand: a slot load, a constant, or a promotion-time bind.
#[derive(Clone)]
enum Leaf {
    /// Column `index` of the frame `depth` levels up (0: the current
    /// working row or the enclosing chain's registers).
    Slot {
        depth: usize,
        index: usize,
    },
    Const(Value),
    /// A cell captured at promotion time (statement param / outer scope).
    Bind(usize),
}

/// A cell as an operand returns it: borrowed from a frame, constant or
/// bind wherever the consumer only inspects it (comparisons, scalar
/// arguments, CASE whens), owned when an operator computed it. A borrow
/// saves a clone, which for a `Text` cell is an atomic refcount round trip.
type TCResult<'r> = TResult<Cow<'r, Value>>;

impl Leaf {
    #[inline(always)]
    fn eval_c<'r>(&'r self, f: &Scopes<'r>, b: &'r TierBound<'_>) -> TResult<&'r Value> {
        let cell = match self {
            Leaf::Slot { depth, index } => f.at_depth(*depth)?.get(*index),
            Leaf::Const(c) => Some(c),
            Leaf::Bind(i) => b.binds.get(*i),
        };
        cell.ok_or_else(|| planner_bug("column slot out of range"))
    }
}

/// Apply a strict binary operator exactly as the VM's binary ops do: the
/// integer fast path first, then the `Value` operator and its error
/// (overflow, a zero divisor, incomparable operands).
#[inline(always)]
fn binary(op: BinOp, x: &Value, y: &Value) -> TResult {
    match fast_int_bin(op, x, y) {
        Some(v) => Ok(v),
        None => Ok(apply_bin(op, x, y)?),
    }
}

/// `AND` and `OR` must short-circuit lazily, so they stay in the closure
/// compiler; every other operator evaluates both operands.
fn strict(op: &BinOp) -> bool {
    !matches!(op, BinOp::And | BinOp::Or)
}

/// An expression of depth ≤ 1: a leaf, or one strict operator over leaves.
enum Node {
    Leaf(Leaf),
    Prim { op: BinOp, l: Leaf, r: Leaf },
}

impl Node {
    #[inline(always)]
    fn eval_c<'r>(&'r self, f: &Scopes<'r>, b: &'r TierBound<'_>) -> TCResult<'r> {
        match self {
            Node::Leaf(l) => Ok(Cow::Borrowed(l.eval_c(f, b)?)),
            Node::Prim { op, l, r } => {
                let v = binary(*op, l.eval_c(f, b)?, r.eval_c(f, b)?)?;
                Ok(Cow::Owned(v))
            }
        }
    }
}

/// A compiled operand. The shapes the kernels overwhelmingly evaluate —
/// leaves and up to two levels of strict operators over them (`a + b`,
/// `(a + b) % m`, `i <= n`) — are enum arms matched inline at the use site
/// instead of paying a boxed indirect call each; anything deeper falls
/// back to a boxed closure whose own operands are again `Atom`s, so
/// nesting costs one indirection per *three* levels, not per node.
/// Deliberately non-recursive: the small `eval` bodies inline into the row
/// loops, which is where the mono tier earns its keep over the expression
/// VM's per-opcode dispatch.
enum Atom {
    Node(Node),
    /// One strict operator over depth-≤1 operands (depth-2 trees, inline).
    Prim2 {
        op: BinOp,
        l: Node,
        r: Node,
    },
    Expr(TExpr),
}

impl Atom {
    #[inline(always)]
    fn eval_c<'r>(
        &'r self,
        f: &Scopes<'r>,
        b: &'r TierBound<'_>,
        s: &mut TierRowStats,
    ) -> TCResult<'r> {
        match self {
            Atom::Node(n) => n.eval_c(f, b),
            Atom::Prim2 { op, l, r } => {
                let lv = l.eval_c(f, b)?;
                let rv = r.eval_c(f, b)?;
                Ok(Cow::Owned(binary(*op, &lv, &rv)?))
            }
            Atom::Expr(e) => Ok(Cow::Owned(e(f, b, s)?)),
        }
    }

    #[inline(always)]
    fn eval(&self, f: &Scopes<'_>, b: &TierBound<'_>, s: &mut TierRowStats) -> TResult {
        Ok(self.eval_c(f, b, s)?.into_owned())
    }
}

/// A value captured at promotion time: statement parameters and outer-scope
/// cells are invariant for the whole fixpoint, so they bind once instead of
/// walking the scope stack per row.
#[derive(PartialEq, Eq)]
enum BindSpec {
    Param(usize),
    /// `depth` levels above the compiled frame stack, column `index`.
    Outer {
        depth: usize,
        index: usize,
    },
}

/// An index probe the program performs; resolved to concrete row storage
/// and index at bind time.
struct ProbeTarget {
    table: String,
    column: usize,
}

struct BoundProbe<'a> {
    rows: &'a [Row],
    index: &'a Index,
}

/// Per-promotion bindings: captured outer cells plus resolved probe
/// targets. Borrows the catalog, which is frozen for the statement.
pub(crate) struct TierBound<'a> {
    binds: Vec<Value>,
    probes: Vec<BoundProbe<'a>>,
}

/// One chain's register file, preallocated per fixpoint (not per row) and
/// indexed by chain nesting depth. Only the written prefix is ever exposed
/// through a frame, so stale cells from earlier rows are never read.
type TRegs = [Value; MAX_CHAIN];

/// The row constructor of the transition body. `Cases` mirrors CASE
/// dispatch over whole-row branches; `Chain` mirrors a flattened let-chain
/// whose final expression builds the row.
enum RowProducer {
    /// Every output cell is a leaf (slot copy, constant, bind): one tight
    /// loop, no per-cell operand match.
    LeafRow(Vec<Leaf>),
    Row(Vec<Atom>),
    Cases {
        operand: Option<Atom>,
        branches: Vec<(Atom, RowProducer)>,
        els: Option<Box<RowProducer>>,
    },
    Chain {
        first_n: usize,
        setters: Vec<Atom>,
        inner: Box<RowProducer>,
        /// Mirror the VM's `subplan_evals` accounting: flattened chains
        /// never count as sub-plan evaluations, `Op::Subplan` ones do.
        bump: bool,
    },
}

/// Whether a CASE branch fires: the operand equals the `WHEN` value, or,
/// without an operand, the `WHEN` condition is true.
#[inline(always)]
fn case_fires(operand: Option<&Cow<'_, Value>>, when: &Value) -> TResult<bool> {
    Ok(match operand {
        Some(v) => v.sql_eq(when)? == Some(true),
        None => when.is_true(),
    })
}

impl RowProducer {
    /// Build the output row into `out`, which is cleared and refilled by
    /// `push`: a cell written over an old one went through a stack copy
    /// that stalled on store forwarding and cost the let-chain kernels
    /// about a third of their per-iteration time. `Ok(true)` means `out`
    /// holds the row; `Ok(false)` means a CASE with no ELSE fell through —
    /// the body's value is the scalar NULL, not a record. Whether that is
    /// an error depends on the predicate: the VM only unpacks (and only
    /// raises) for rows the filter keeps, so the caller decides after
    /// evaluating it. `scratch` holds one register file per chain nesting
    /// level.
    fn run(
        &self,
        f: &Scopes<'_>,
        b: &TierBound<'_>,
        s: &mut TierRowStats,
        out: &mut Row,
        scratch: &mut [TRegs],
    ) -> TResult<bool> {
        match self {
            RowProducer::LeafRow(leaves) => {
                out.clear();
                for l in leaves {
                    out.push(l.eval_c(f, b)?.clone());
                }
                Ok(true)
            }
            RowProducer::Row(exprs) => {
                out.clear();
                for e in exprs {
                    out.push(e.eval_c(f, b, s)?.into_owned());
                }
                Ok(true)
            }
            RowProducer::Cases {
                operand,
                branches,
                els,
            } => {
                let ov = match operand {
                    Some(o) => Some(o.eval_c(f, b, s)?),
                    None => None,
                };
                for (when, then) in branches {
                    if case_fires(ov.as_ref(), &*when.eval_c(f, b, s)?)? {
                        return then.run(f, b, s, out, scratch);
                    }
                }
                match els {
                    Some(e) => e.run(f, b, s, out, scratch),
                    None => Ok(false),
                }
            }
            RowProducer::Chain {
                first_n,
                setters,
                inner,
                bump,
            } => {
                if *bump {
                    s.subplan_evals += 1;
                }
                let (regs, rest) = scratch
                    .split_first_mut()
                    .ok_or_else(|| planner_bug("let-chain registers missing"))?;
                fill_chain(regs, *first_n, setters, f, b, s)?;
                let cf = Scopes {
                    row: &regs[..setters.len()],
                    parent: Some(f),
                };
                inner.run(&cf, b, s, out, rest)
            }
        }
    }

    /// Deepest chain nesting — sizes the per-fixpoint scratch.
    fn chain_depth(&self) -> usize {
        match self {
            RowProducer::LeafRow(_) | RowProducer::Row(_) => 0,
            RowProducer::Cases { branches, els, .. } => branches
                .iter()
                .map(|(_, t)| t.chain_depth())
                .chain(els.iter().map(|e| e.chain_depth()))
                .max()
                .unwrap_or(0),
            RowProducer::Chain { inner, .. } => 1 + inner.chain_depth(),
        }
    }
}

/// Evaluate a let-chain's setters into `regs`. Seed bindings (`Result`
/// exprs) evaluate in the outer env — the chain frame is NOT pushed for
/// them; each extend expr sees the row-so-far as depth 0. Always inlined:
/// as an out-of-line call it made a hand-built let-chain transition about
/// 1.6× slower per iteration.
#[inline(always)]
fn fill_chain(
    regs: &mut TRegs,
    first_n: usize,
    setters: &[Atom],
    f: &Scopes<'_>,
    b: &TierBound<'_>,
    s: &mut TierRowStats,
) -> TResult<()> {
    for (i, setter) in setters.iter().enumerate() {
        regs[i] = if i < first_n {
            setter.eval_c(f, b, s)?.into_owned()
        } else {
            let cf = Scopes {
                row: &regs[..i],
                parent: Some(f),
            };
            setter.eval_c(&cf, b, s)?.into_owned()
        };
    }
    Ok(())
}

/// A fresh register file.
fn new_regs() -> TRegs {
    std::array::from_fn(|_| Value::Null)
}

// ---------------------------------------------------------------------------
// Compilation

/// Compile-time frame model, innermost first. `Row(w)` is a working row or
/// a chain's registers with `w` visible cells; `Probed` is a base-table row
/// read during an index probe, whose width is checked per access.
#[derive(Clone, Copy)]
enum CFrame {
    Row(usize),
    Probed,
}

#[derive(Default)]
struct Compiler {
    binds: Vec<BindSpec>,
    probes: Vec<ProbeTarget>,
}

impl Compiler {
    fn bind(&mut self, spec: BindSpec) -> usize {
        if let Some(i) = self.binds.iter().position(|s| *s == spec) {
            return i;
        }
        self.binds.push(spec);
        self.binds.len() - 1
    }

    /// Compile a leaf operand, or `None` if `e` is not a leaf or reads a
    /// slot beyond its frame's width. Bounds are checked here, at compile
    /// time.
    fn leaf(&mut self, e: &ExprIr, frames: &[CFrame]) -> Option<Leaf> {
        Some(match e {
            ExprIr::Const(v) => Leaf::Const(v.clone()),
            ExprIr::Slot { depth, index } if *depth < frames.len() => {
                if let CFrame::Row(w) = frames[*depth] {
                    if *index >= w {
                        return None;
                    }
                }
                Leaf::Slot {
                    depth: *depth,
                    index: *index,
                }
            }
            ExprIr::Slot { depth, index } => Leaf::Bind(self.bind(BindSpec::Outer {
                depth: depth - frames.len(),
                index: *index,
            })),
            ExprIr::Param(i) => Leaf::Bind(self.bind(BindSpec::Param(*i))),
            _ => return None,
        })
    }

    /// Compile a depth-≤1 operand: a leaf, or one strict operator over
    /// leaves.
    fn node(&mut self, e: &ExprIr, frames: &[CFrame]) -> Option<Node> {
        if let Some(l) = self.leaf(e, frames) {
            return Some(Node::Leaf(l));
        }
        if let ExprIr::Binary { op, left, right } = e {
            if strict(op) {
                if let Some(l) = self.leaf(left, frames) {
                    if let Some(r) = self.leaf(right, frames) {
                        return Some(Node::Prim { op: *op, l, r });
                    }
                }
            }
        }
        None
    }

    /// Compile an operand position. Trees of depth ≤ 2 built from leaves
    /// and strict operators become inline [`Atom`] arms (no boxed call);
    /// anything deeper falls back to the closure compiler wrapped in
    /// [`Atom::Expr`], whose operands are again atoms.
    fn atom(&mut self, e: &ExprIr, frames: &[CFrame]) -> Option<Atom> {
        if let Some(n) = self.node(e, frames) {
            return Some(Atom::Node(n));
        }
        if let ExprIr::Binary { op, left, right } = e {
            if strict(op) {
                if let Some(l) = self.node(left, frames) {
                    if let Some(r) = self.node(right, frames) {
                        return Some(Atom::Prim2 { op: *op, l, r });
                    }
                }
            }
        }
        Some(Atom::Expr(self.scalar(e, frames)?))
    }

    /// Compile a scalar expression, or `None` when the shape is outside the
    /// tier grammar (the transition then simply never promotes). Leaves
    /// reach this only after [`Compiler::leaf`] refused them, so they fail
    /// here too.
    fn scalar(&mut self, e: &ExprIr, frames: &[CFrame]) -> Option<TExpr> {
        Some(match e {
            ExprIr::Neg(x) => {
                let x = self.atom(x, frames)?;
                texpr(move |f, b, s| Ok(x.eval_c(f, b, s)?.neg()?))
            }
            ExprIr::Not(x) => {
                let x = self.atom(x, frames)?;
                texpr(move |f, b, s| Ok(not3(&*x.eval_c(f, b, s)?)?))
            }
            ExprIr::IsNull { expr, negated } => {
                let x = self.atom(expr, frames)?;
                let negated = *negated;
                texpr(move |f, b, s| Ok(Value::Bool(x.eval_c(f, b, s)?.is_null() != negated)))
            }
            ExprIr::Binary { op, left, right } => {
                let l = self.atom(left, frames)?;
                let r = self.atom(right, frames)?;
                match *op {
                    BinOp::And => texpr(move |f, b, s| {
                        let lv = l.eval_c(f, b, s)?.as_bool()?;
                        if lv == Some(false) {
                            return Ok(Value::Bool(false));
                        }
                        let rv = r.eval_c(f, b, s)?.as_bool()?;
                        Ok(bool_value(and3(lv, rv)))
                    }),
                    BinOp::Or => texpr(move |f, b, s| {
                        let lv = l.eval_c(f, b, s)?.as_bool()?;
                        if lv == Some(true) {
                            return Ok(Value::Bool(true));
                        }
                        let rv = r.eval_c(f, b, s)?.as_bool()?;
                        Ok(bool_value(or3(lv, rv)))
                    }),
                    op => texpr(move |f, b, s| {
                        let lv = l.eval_c(f, b, s)?;
                        let rv = r.eval_c(f, b, s)?;
                        binary(op, &lv, &rv)
                    }),
                }
            }
            ExprIr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let x = self.atom(expr, frames)?;
                let lo = self.atom(low, frames)?;
                let hi = self.atom(high, frames)?;
                let negated = *negated;
                texpr(move |f, b, s| {
                    // All three operands first, then both comparisons, in
                    // the VM's order.
                    let v = x.eval_c(f, b, s)?;
                    let lo = lo.eval_c(f, b, s)?;
                    let hi = hi.eval_c(f, b, s)?;
                    Ok(between3(&v, &lo, &hi, negated)?)
                })
            }
            ExprIr::Case {
                operand,
                branches,
                else_,
            } => {
                let op_c = match operand {
                    Some(o) => Some(self.atom(o, frames)?),
                    None => None,
                };
                let mut br: Vec<(Atom, Atom)> = Vec::with_capacity(branches.len());
                for (w, t) in branches {
                    br.push((self.atom(w, frames)?, self.atom(t, frames)?));
                }
                let els = match else_ {
                    Some(e) => Some(self.atom(e, frames)?),
                    None => None,
                };
                texpr(move |f, b, s| {
                    let ov = match &op_c {
                        Some(o) => Some(o.eval_c(f, b, s)?),
                        None => None,
                    };
                    for (when, then) in &br {
                        if case_fires(ov.as_ref(), &*when.eval_c(f, b, s)?)? {
                            return then.eval(f, b, s);
                        }
                    }
                    match &els {
                        Some(e) => e.eval(f, b, s),
                        None => Ok(Value::Null),
                    }
                })
            }
            ExprIr::Coalesce(args) => {
                let cs: Vec<Atom> = args
                    .iter()
                    .map(|a| self.atom(a, frames))
                    .collect::<Option<_>>()?;
                texpr(move |f, b, s| {
                    for c in &cs {
                        let v = c.eval(f, b, s)?;
                        if !v.is_null() {
                            return Ok(v);
                        }
                    }
                    Ok(Value::Null)
                })
            }
            ExprIr::InList {
                expr,
                list,
                negated,
            } => {
                let x = self.atom(expr, frames)?;
                let items: Vec<Atom> = list
                    .iter()
                    .map(|i| self.atom(i, frames))
                    .collect::<Option<_>>()?;
                let negated = *negated;
                texpr(move |f, b, s| {
                    let v = x.eval_c(f, b, s)?;
                    let mut found = Some(false);
                    for item in &items {
                        found = in_step(found, &v, &*item.eval_c(f, b, s)?)?;
                        if found == Some(true) {
                            break;
                        }
                    }
                    Ok(in_verdict(found, negated))
                })
            }
            ExprIr::Like {
                expr,
                pattern,
                negated,
            } => {
                let x = self.atom(expr, frames)?;
                let p = self.atom(pattern, frames)?;
                let negated = *negated;
                texpr(move |f, b, s| {
                    let v = x.eval_c(f, b, s)?;
                    let pattern = p.eval_c(f, b, s)?;
                    Ok(like3(&v, &pattern, negated)?)
                })
            }
            ExprIr::Cast { expr, ty } => {
                let x = self.atom(expr, frames)?;
                let ty = ty.clone();
                texpr(move |f, b, s| Ok(x.eval_c(f, b, s)?.cast(&ty)?))
            }
            ExprIr::Scalar { func, args } => {
                // Volatile builtins (random, raise_error) must go through
                // the session RNG / the real error path: VM only.
                if func.is_volatile() {
                    return None;
                }
                let cs: Vec<Atom> = args
                    .iter()
                    .map(|a| self.atom(a, frames))
                    .collect::<Option<_>>()?;
                let func = *func;
                // Builtins take at most a handful of arguments; a stack
                // buffer keeps the per-row call allocation-free.
                const MAX_ARGS: usize = 4;
                if cs.len() > MAX_ARGS {
                    return None;
                }
                texpr(move |f, b, s| {
                    let mut vals: [Value; MAX_ARGS] = std::array::from_fn(|_| Value::Null);
                    for (slot, c) in vals.iter_mut().zip(&cs) {
                        *slot = c.eval(f, b, s)?;
                    }
                    // Non-volatile builtins never touch the RNG; a dummy
                    // keeps `eval_scalar`'s exact semantics reachable here.
                    let mut rng = SessionRng::new(1);
                    Ok(eval_scalar(func, &vals[..cs.len()], &mut rng)?)
                })
            }
            ExprIr::Subplan(p) => return self.subplan(p, frames),
            // Rows, UDF calls, EXISTS/IN sub-plans, snapshot state and
            // pre-compiled programs: VM only.
            ExprIr::Const(_)
            | ExprIr::Slot { .. }
            | ExprIr::Param(_)
            | ExprIr::Row(_)
            | ExprIr::UdfCall { .. }
            | ExprIr::Exists { .. }
            | ExprIr::InPlan { .. }
            | ExprIr::Materialize { .. }
            | ExprIr::SnapshotFn { .. }
            | ExprIr::Vm(_) => return None,
        })
    }

    /// A scalar sub-query: either a let-chain (inlined into registers) or
    /// an index probe (`Project [Filter] IndexLookup`).
    fn subplan(&mut self, p: &Arc<PlanNode>, frames: &[CFrame]) -> Option<TExpr> {
        // Closed sub-plans are memoized per execution by the VM
        // (`Op::Subplan { cached: true }`); re-evaluating them per row would
        // diverge on both stats and cost. The VM already handles them best.
        if plan_free_scopes(p) == Some(0) {
            return None;
        }
        if let Some((_, _, final_expr)) = chain_shape(p) {
            let (first_n, setters, chain_frames, bump) = self.chain_setters(p, frames)?;
            let final_c = self.atom(final_expr, &chain_frames)?;
            return Some(texpr(move |f, b, s| {
                if bump {
                    s.subplan_evals += 1;
                }
                let mut regs = new_regs();
                fill_chain(&mut regs, first_n, &setters, f, b, s)?;
                let cf = Scopes {
                    row: &regs[..setters.len()],
                    parent: Some(f),
                };
                final_c.eval(&cf, b, s)
            }));
        }
        self.probe(p, frames)
    }

    /// Compile the seed + extend expressions of a let-chain. Returns the
    /// setter closures, the frame stack for the final expression, and
    /// whether evaluation must count as a `subplan_evals` (mirroring
    /// whether the VM flattens it or runs it as an [`crate::vm::Op::Subplan`]).
    #[allow(clippy::type_complexity)]
    fn chain_setters(
        &mut self,
        p: &PlanNode,
        frames: &[CFrame],
    ) -> Option<(usize, Vec<Atom>, Vec<CFrame>, bool)> {
        let (first, extends, _) = chain_shape(p)?;
        let mut setters: Vec<Atom> = Vec::new();
        for e in first {
            setters.push(self.atom(e, frames)?);
        }
        let first_n = setters.len();
        let mut n = first_n;
        for group in &extends {
            for e in *group {
                let mut inner = vec![CFrame::Row(n)];
                inner.extend_from_slice(frames);
                setters.push(self.atom(e, &inner)?);
                n += 1;
            }
        }
        if n > MAX_CHAIN {
            return None;
        }
        let mut chain_frames = vec![CFrame::Row(n)];
        chain_frames.extend_from_slice(frames);
        Some((first_n, setters, chain_frames, !chain_flattenable(p)))
    }

    /// `Project [out] ∘ (Filter)? ∘ IndexLookup`: the compiled per-row index
    /// probe (the fsa/parse shape). Mirrors the executor arm exactly: a NULL
    /// key yields NULL without touching the probe counters, and a second
    /// surviving row raises `exec_scalar`'s error once its output is
    /// evaluated.
    fn probe(&mut self, plan: &PlanNode, frames: &[CFrame]) -> Option<TExpr> {
        let PlanNode::Project { input, exprs } = plan else {
            return None;
        };
        let [out_e] = exprs.as_slice() else {
            return None;
        };
        let (lookup, pred_e) = match input.as_ref() {
            PlanNode::Filter { input, pred } => (input.as_ref(), Some(pred)),
            n => (n, None),
        };
        let PlanNode::IndexLookup { table, column, key } = lookup else {
            return None;
        };
        // Key in the enclosing env (probe row NOT pushed), filter and
        // output with the probed row pushed at depth 0.
        let key_c = self.atom(key, frames)?;
        let mut inner = vec![CFrame::Probed];
        inner.extend_from_slice(frames);
        let pred_c = match pred_e {
            Some(p) => Some(self.atom(p, &inner)?),
            None => None,
        };
        let out_c = self.atom(out_e, &inner)?;
        let pi = self.probes.len();
        self.probes.push(ProbeTarget {
            table: table.clone(),
            column: *column,
        });
        Some(texpr(move |f, b, s| {
            s.subplan_evals += 1;
            let k = key_c.eval_c(f, b, s)?;
            if k.is_null() {
                return Ok(Value::Null);
            }
            let probe = &b.probes[pi];
            let positions = probe.index.lookup(&k);
            s.index_probes += 1;
            s.rows_scanned += positions.len() as u64;
            let mut hit: Option<Value> = None;
            for &pos in positions {
                let row: &[Value] = probe
                    .rows
                    .get(pos)
                    .ok_or_else(|| planner_bug("index position out of range"))?;
                let pf = Scopes {
                    row,
                    parent: Some(f),
                };
                let keep = match &pred_c {
                    Some(pred) => pred.eval_c(&pf, b, s)?.is_true(),
                    None => true,
                };
                if keep {
                    let v = out_c.eval(&pf, b, s)?;
                    if hit.is_some() {
                        return Err(Box::new(second_row_error()));
                    }
                    hit = Some(v);
                }
            }
            Ok(hit.unwrap_or(Value::Null))
        }))
    }

    /// Compile the transition body as a whole-row producer.
    fn produce(&mut self, e: &ExprIr, frames: &[CFrame], width: usize) -> Option<RowProducer> {
        match e {
            ExprIr::Row(items) if items.len() == width => {
                let cs: Vec<Atom> = items
                    .iter()
                    .map(|i| self.atom(i, frames))
                    .collect::<Option<_>>()?;
                let leaves: Option<Vec<Leaf>> = cs
                    .iter()
                    .map(|c| match c {
                        Atom::Node(Node::Leaf(l)) => Some(l.clone()),
                        _ => None,
                    })
                    .collect();
                Some(match leaves {
                    Some(leaves) => RowProducer::LeafRow(leaves),
                    None => RowProducer::Row(cs),
                })
            }
            ExprIr::Case {
                operand,
                branches,
                else_,
            } => {
                let op_c = match operand {
                    Some(o) => Some(self.atom(o, frames)?),
                    None => None,
                };
                let mut br = Vec::with_capacity(branches.len());
                for (w, t) in branches {
                    br.push((self.atom(w, frames)?, self.produce(t, frames, width)?));
                }
                let els = match else_ {
                    Some(e) => Some(Box::new(self.produce(e, frames, width)?)),
                    None => None,
                };
                Some(RowProducer::Cases {
                    operand: op_c,
                    branches: br,
                    els,
                })
            }
            ExprIr::Subplan(p) => {
                if plan_free_scopes(p) == Some(0) {
                    return None;
                }
                let (_, _, final_expr) = chain_shape(p)?;
                let (first_n, setters, chain_frames, bump) = self.chain_setters(p, frames)?;
                let inner = self.produce(final_expr, &chain_frames, width)?;
                Some(RowProducer::Chain {
                    first_n,
                    setters,
                    inner: Box::new(inner),
                    bump,
                })
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// The compiled program, recognition, and binding

/// A monomorphized fixpoint transition, attached to a
/// [`crate::ir::FusedTransition`] at prepare time and shared through the
/// plan cache. It holds no execution state: every run binds its own.
pub struct TierProgram {
    width: usize,
    produce: RowProducer,
    pred: Atom,
    binds: Vec<BindSpec>,
    probes: Vec<ProbeTarget>,
}

impl fmt::Debug for TierProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TierProgram")
            .field("width", &self.width)
            .field("binds", &self.binds.len())
            .field("probes", &self.probes.len())
            .finish_non_exhaustive()
    }
}

/// Compile a fused transition's body and filter, as expression trees over
/// a working row of `width` columns, for the mono tier. `None` when an
/// expression is outside the closure grammar. The shape itself is
/// recognized by the caller, `vm::precompile_plan`.
pub(crate) fn compile(body: &ExprIr, pred: &ExprIr, width: usize) -> Option<TierProgram> {
    let mut c = Compiler::default();
    let frames = [CFrame::Row(width)];
    let produce = c.produce(body, &frames, width)?;
    let pred_c = c.atom(pred, &frames)?;
    Some(TierProgram {
        width,
        produce,
        pred: pred_c,
        binds: c.binds,
        probes: c.probes,
    })
}

/// Resolve bind-time state: captured outer cells and probe targets. `None`
/// (a capture with no value, a vanished table or index) leaves the
/// transition in the VM for this statement.
fn bind<'c>(prog: &TierProgram, env: &EvalEnv<'_>, catalog: &'c Catalog) -> Option<TierBound<'c>> {
    let binds = prog
        .binds
        .iter()
        .map(|spec| match spec {
            BindSpec::Param(i) => env.params.get(*i).cloned(),
            BindSpec::Outer { depth, index } => env
                .scopes
                .and_then(|s| s.at_depth(*depth).ok())
                .and_then(|row| row.get(*index))
                .cloned(),
        })
        .collect::<Option<_>>()?;
    let probes = prog
        .probes
        .iter()
        .map(|target| {
            let table = catalog.table(&target.table).ok()?;
            Some(BoundProbe {
                rows: &table.rows,
                index: table.index_on(target.column)?,
            })
        })
        .collect::<Option<_>>()?;
    Some(TierBound { binds, probes })
}

// ---------------------------------------------------------------------------
// The mono step

/// A fixpoint running in the mono tier: its program, the captures and
/// probe targets bound for this execution, and its let-chain register
/// scratch. The rows stay in the driver's [`Rotation`].
pub(crate) struct MonoRows<'p, 'c> {
    prog: &'p TierProgram,
    /// The retire policy's flag ([`crate::exec::retire_flag`]).
    flag: Option<usize>,
    bound: TierBound<'c>,
    scratch: Vec<TRegs>,
}

impl<'p, 'c> MonoRows<'p, 'c> {
    /// Promote a fixpoint at entry: bind the program's captures and probe
    /// targets. `None` (a capture or probe target that does not bind, a
    /// base row of another width) leaves the fixpoint in the VM for the
    /// statement.
    pub(crate) fn enter(
        prog: &'p TierProgram,
        flag: Option<usize>,
        env: &EvalEnv<'_>,
        catalog: &'c Catalog,
        base: &[Row],
        stats: &mut RuntimeStats,
    ) -> Option<Self> {
        if base.iter().any(|r| r.len() != prog.width) {
            return None;
        }
        let bound = bind(prog, env, catalog)?;
        stats.tier.tier_promotions += 1;
        Some(MonoRows {
            prog,
            flag,
            bound,
            scratch: (0..prog.produce.chain_depth())
                .map(|_| new_regs())
                .collect(),
        })
    }

    /// Run one iteration from `bufs.cur` into `bufs.next` under the
    /// retention policy and return the rows the transition kept.
    pub(crate) fn step(
        &mut self,
        bufs: &mut Rotation,
        retention: &mut Retention,
        stats: &mut RuntimeStats,
    ) -> plaway_common::Result<u64> {
        let mut local = TierRowStats::default();
        let (prog, bound, scratch) = (self.prog, &self.bound, &mut self.scratch);
        // The error stays boxed per row, so that a row's result is no
        // larger than the row.
        let kept = retention
            .step_rows(bufs, self.flag, |row, pool| {
                mono_row(prog, bound, row, pool, &mut local, scratch)
            })
            .map_err(|e| *e)?;
        stats.subplan_evals += local.subplan_evals;
        stats.index_probes += local.index_probes;
        stats.rows_scanned += local.rows_scanned;
        Ok(kept)
    }
}

/// Run one input row: body first (matching Extend-then-Filter order), then
/// the keep decision on the *input* row. The successor goes into a pooled
/// row. `Ok(None)` = dropped.
fn mono_row(
    prog: &TierProgram,
    bound: &TierBound<'_>,
    row: &[Value],
    pool: &mut Vec<Row>,
    local: &mut TierRowStats,
    scratch: &mut [TRegs],
) -> TResult<Option<Row>> {
    let frames = Scopes { row, parent: None };
    // The producer clears the row before it fills it, so any pooled row
    // will do.
    let mut out = pool.pop().unwrap_or_else(|| Vec::with_capacity(prog.width));
    let filled = prog.produce.run(&frames, bound, local, &mut out, scratch)?;
    if !prog.pred.eval_c(&frames, bound, local)?.is_true() {
        // Filter drops the row before the unpack — a CASE fallthrough on a
        // dropped row is not an error, exactly as in the VM.
        pool.push(out);
        return Ok(None);
    }
    if !filled {
        // Kept, but the body fell through to scalar NULL: the VM's unpack
        // error.
        let err = take_record(Value::Null, prog.width).expect_err("NULL is not a record");
        return Err(Box::new(err));
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::retire_flag;
    use crate::ir::FusedTransition;
    use crate::vm::fuse_transition;

    /// `ProjectUnpack{src, width} ∘ Filter(pred) ∘ Extend[body] ∘
    /// WorkingScan` over working table 0.
    fn arm(body: ExprIr, pred: ExprIr, src: usize, width: usize) -> PlanNode {
        PlanNode::ProjectUnpack {
            input: Box::new(PlanNode::Filter {
                input: Box::new(PlanNode::Extend {
                    input: Box::new(PlanNode::WorkingScan { index: 0 }),
                    exprs: vec![body],
                }),
                pred,
            }),
            src,
            width,
        }
    }

    fn transition_plan(body: ExprIr, pred: ExprIr) -> PlanNode {
        arm(body, pred, 2, 2)
    }

    /// Recognize the transition of working table 0 as prepare does.
    fn fuse(body: ExprIr, pred: ExprIr, union_all: bool) -> Option<Box<FusedTransition>> {
        fuse_transition(0, &mut transition_plan(body, pred), union_all)
    }

    /// The fused transition with a mono program, filtered on column 1.
    fn fused_with_mono(body: ExprIr) -> Box<FusedTransition> {
        let t = fuse(body, ExprIr::slot(1), true).expect("the transition fuses");
        assert!(t.mono.is_some(), "the body is in the tier grammar");
        t
    }

    fn counter_body() -> ExprIr {
        // ROW(c + 1, c < 10): counts up, flag drops at 10.
        ExprIr::Row(vec![
            ExprIr::Binary {
                op: BinOp::Add,
                left: Box::new(ExprIr::slot(0)),
                right: Box::new(ExprIr::Const(Value::Int(1))),
            },
            ExprIr::Binary {
                op: BinOp::Lt,
                left: Box::new(ExprIr::slot(0)),
                right: Box::new(ExprIr::Const(Value::Int(10))),
            },
        ])
    }

    /// Drive the mono step under `WITH ITERATE` the way the fixpoint
    /// driver does (one step per iteration, kept rows counted as
    /// `tier_mono_rows`) until the working set drains or a row fails.
    /// Returns how the run ended and the last iteration it consumed.
    fn drive_iterate(
        t: &FusedTransition,
        working: Vec<Row>,
        iters: &mut u64,
        stats: &mut RuntimeStats,
    ) -> (plaway_common::Result<()>, Vec<Row>) {
        let catalog = Catalog::new();
        let mut bufs = Rotation::new(working);
        let mut retention = Retention::IterateOnly;
        let prog = t.mono.as_deref().expect("a mono program");
        let flag = retire_flag(t.test);
        let mut mono = MonoRows::enter(prog, flag, &EvalEnv::EMPTY, &catalog, &bufs.cur, stats)
            .expect("the test programs bind");
        while !bufs.cur.is_empty() {
            let kept = match mono.step(&mut bufs, &mut retention, stats) {
                Ok(kept) => kept,
                Err(e) => return (Err(e), bufs.prev),
            };
            retention.keep(&mut bufs);
            *iters += 1;
            stats.tier.tier_mono_rows += kept;
        }
        (Ok(()), bufs.prev)
    }

    /// The one recognizer, `vm::fuse_transition`, has three outcomes: a
    /// fused transition with a mono program, one without, and an arm left
    /// to the general plan.
    #[test]
    fn recognizes_only_the_fused_transition_shape() {
        // Fused, with a mono program: the counter, and a float constant,
        // which is an ordinary cell. The body is lowered and splat in
        // place: the plan holds the transition's one program.
        let mut plan = transition_plan(counter_body(), ExprIr::slot(1));
        let t = fuse_transition(0, &mut plan, true).expect("the counter fuses");
        assert!(t.mono.is_some());
        assert_eq!((t.width, t.test), (2, Some((1, true))));
        let PlanNode::ProjectUnpack { input, .. } = &plan else {
            unreachable!()
        };
        let PlanNode::Filter { input, .. } = input.as_ref() else {
            unreachable!()
        };
        let PlanNode::Extend { exprs, .. } = input.as_ref() else {
            unreachable!()
        };
        assert!(matches!(&exprs[..], [ExprIr::Vm(p)] if Arc::ptr_eq(p, &t.body)));
        let floaty = ExprIr::Row(vec![
            ExprIr::Const(Value::Float(1.5)),
            ExprIr::Const(Value::Bool(false)),
        ]);
        fused_with_mono(floaty);

        // Fused, on the VM only: UNION dedup stays on the VM, and a
        // volatile call or a body row narrower than the working row is
        // outside the closure grammar.
        let no_mono = |body: ExprIr, union_all: bool| {
            let t = fuse(body, ExprIr::slot(1), union_all).expect("the arm fuses");
            assert!(t.mono.is_none());
        };
        no_mono(counter_body(), false);
        let raise = ExprIr::Row(vec![
            ExprIr::Scalar {
                func: crate::ir::ScalarFn::RaiseError,
                args: vec![
                    ExprIr::Const(Value::Text("x".into())),
                    ExprIr::Const(Value::Text("y".into())),
                ],
            },
            ExprIr::Const(Value::Bool(false)),
        ]);
        no_mono(raise, true);
        no_mono(ExprIr::Row(vec![ExprIr::Const(Value::Bool(false))]), true);

        // Not fused: another working table, a one-column row, a body that
        // reads the working table again, and `src != width`.
        let mut plan = transition_plan(counter_body(), ExprIr::slot(1));
        assert!(fuse_transition(1, &mut plan, true).is_none());
        let narrow = ExprIr::Row(vec![ExprIr::Binary {
            op: BinOp::Add,
            left: Box::new(ExprIr::slot(0)),
            right: Box::new(ExprIr::Const(Value::Int(1))),
        }]);
        let mut plan = arm(narrow, ExprIr::Const(Value::Bool(true)), 1, 1);
        assert!(fuse_transition(0, &mut plan, true).is_none());
        let rescan = PlanNode::Project {
            input: Box::new(PlanNode::WorkingScan { index: 0 }),
            exprs: vec![ExprIr::slot(0)],
        };
        let reads_working = ExprIr::Row(vec![
            ExprIr::Subplan(Arc::new(rescan)),
            ExprIr::Const(Value::Bool(false)),
        ]);
        assert!(fuse(reads_working, ExprIr::slot(1), true).is_none());
        let mut plan = arm(counter_body(), ExprIr::slot(1), 3, 2);
        assert!(fuse_transition(0, &mut plan, true).is_none());
    }

    #[test]
    fn mono_iterate_runs_the_counter_to_its_fixpoint() {
        let prog = fused_with_mono(counter_body());
        let (mut iters, mut stats) = (0u64, RuntimeStats::default());
        let (end, prev) = drive_iterate(
            &prog,
            vec![vec![Value::Int(0), Value::Bool(true)]],
            &mut iters,
            &mut stats,
        );
        end.unwrap();
        // 0→1→…→10 keeps the flag true; row [11, false] fails the filter
        // next pass, so the last surviving iteration holds it.
        assert_eq!(prev, vec![vec![Value::Int(11), Value::Bool(false)]]);
        assert_eq!(iters, 12);
        // The transition kept 11 rows; the row the filter drops on the
        // last iteration is not counted, exactly like the VM's
        // `fused_transition_rows`.
        assert_eq!(stats.tier.tier_mono_rows, 11);
    }

    /// ROW(c + 1, 10 / (3 - c) < 100): divides by zero once c reaches 3.
    fn zero_divisor_body() -> ExprIr {
        ExprIr::Row(vec![
            ExprIr::Binary {
                op: BinOp::Add,
                left: Box::new(ExprIr::slot(0)),
                right: Box::new(ExprIr::Const(Value::Int(1))),
            },
            ExprIr::Binary {
                op: BinOp::Lt,
                left: Box::new(ExprIr::Binary {
                    op: BinOp::Div,
                    left: Box::new(ExprIr::Const(Value::Int(10))),
                    right: Box::new(ExprIr::Binary {
                        op: BinOp::Sub,
                        left: Box::new(ExprIr::Const(Value::Int(3))),
                        right: Box::new(ExprIr::slot(0)),
                    }),
                }),
                right: Box::new(ExprIr::Const(Value::Int(100))),
            },
        ])
    }

    #[test]
    fn a_zero_divisor_raises_the_vms_error() {
        let prog = fused_with_mono(zero_divisor_body());
        let (mut iters, mut stats) = (0u64, RuntimeStats::default());
        let (end, _) = drive_iterate(
            &prog,
            vec![vec![Value::Int(0), Value::Bool(true)]],
            &mut iters,
            &mut stats,
        );
        // 0 → 1 → 2 → 3 ran; the fourth iteration divides by zero and
        // fails with the error of the VM's division.
        let vm = apply_bin(BinOp::Div, &Value::Int(10), &Value::Int(0)).unwrap_err();
        assert_eq!(end.unwrap_err(), vm);
        assert_eq!(iters, 3);
        assert_eq!(stats.tier.tier_mono_rows, 3);
    }

    #[test]
    fn integer_overflow_raises_the_vms_error() {
        // ROW(c + max_int, true): overflows on the second iteration.
        let body = ExprIr::Row(vec![
            ExprIr::Binary {
                op: BinOp::Add,
                left: Box::new(ExprIr::slot(0)),
                right: Box::new(ExprIr::Const(Value::Int(i64::MAX))),
            },
            ExprIr::Const(Value::Bool(true)),
        ]);
        let prog = fused_with_mono(body);
        let (mut iters, mut stats) = (0u64, RuntimeStats::default());
        let (end, _) = drive_iterate(
            &prog,
            vec![vec![Value::Int(1), Value::Bool(true)]],
            &mut iters,
            &mut stats,
        );
        // 1 + MAX overflows on the first iteration.
        let vm = apply_bin(BinOp::Add, &Value::Int(1), &Value::Int(i64::MAX)).unwrap_err();
        assert_eq!(end.unwrap_err(), vm);
        assert_eq!((iters, stats.tier.tier_mono_rows), (0, 0));
    }

    #[test]
    fn three_valued_logic_matches_the_evaluator() {
        // Pred: (c < 10) AND flag — NULL flag must drop the row (and not
        // error), exactly like the VM's three-valued AND.
        let pred = ExprIr::Binary {
            op: BinOp::And,
            left: Box::new(ExprIr::Binary {
                op: BinOp::Lt,
                left: Box::new(ExprIr::slot(0)),
                right: Box::new(ExprIr::Const(Value::Int(10))),
            }),
            right: Box::new(ExprIr::slot(1)),
        };
        let prog = fuse(counter_body(), pred, true).unwrap();
        let (mut iters, mut stats) = (0u64, RuntimeStats::default());
        let (end, prev) = drive_iterate(
            &prog,
            vec![vec![Value::Int(0), Value::Null]],
            &mut iters,
            &mut stats,
        );
        end.unwrap();
        // The single row is dropped by the NULL predicate on iteration 1
        // (AND with NULL is NULL, not an error), so the last *consumed*
        // working set — what `WITH ITERATE` returns — is the input row.
        assert_eq!(prev, vec![vec![Value::Int(0), Value::Null]]);
        assert_eq!(iters, 1);
    }

    /// Run `WITH RECURSIVE r AS (base UNION ALL transition) SELECT * FROM
    /// r` through the real fixpoint driver, planned the way `prepare` plans
    /// it, and return the rows (or the error) and the counters it added.
    fn run_fixpoint(
        body: ExprIr,
        base: Vec<Value>,
        params: &[Value],
        mode: crate::config::TierMode,
    ) -> (plaway_common::Result<Vec<Row>>, RuntimeStats) {
        let base = PlanNode::Values {
            rows: vec![base.into_iter().map(ExprIr::Const).collect()],
        };
        let mut plan = PlanNode::With {
            ctes: vec![crate::ir::CtePlan::Recursive {
                index: 0,
                base,
                recursive: transition_plan(body, ExprIr::slot(1)),
                mode: crate::ir::RecursionMode::Accumulate,
                union_all: true,
                fused: None,
            }],
            body: Box::new(PlanNode::CteScan { index: 0 }),
        };
        crate::vm::precompile_plan(&mut plan, false);
        let mut config = crate::EngineConfig::raw();
        config.tier_mode = mode;
        let mut session = crate::Session::new(config);
        let env = EvalEnv {
            scopes: None,
            params,
        };
        let rows = crate::exec::exec(&plan, &env, &mut session.runtime());
        (rows, session.stats)
    }

    #[test]
    fn fixpoints_promote_at_entry_or_stay_in_the_vm() {
        use crate::config::TierMode;
        let start = || vec![Value::Int(0), Value::Bool(true)];

        // A recognized program promotes before iteration 1: the mono tier
        // keeps every transition row, the VM none. `ForceOff` is the
        // reference.
        let (want, vm) = run_fixpoint(counter_body(), start(), &[], TierMode::ForceOff);
        assert_eq!((vm.tier.tier_promotions, vm.fused_transition_rows), (0, 11));
        let (got, mono) = run_fixpoint(counter_body(), start(), &[], TierMode::Auto);
        assert_eq!(got.unwrap(), want.unwrap());
        assert_eq!(mono.recursive_iterations, vm.recursive_iterations);
        assert_eq!(mono.tier.tier_promotions, 1);
        assert_eq!(
            (mono.tier.tier_mono_rows, mono.fused_transition_rows),
            (11, 0)
        );

        // A float capture promotes and computes with `Value`'s arithmetic.
        let add_param = ExprIr::Row(vec![
            ExprIr::Binary {
                op: BinOp::Add,
                left: Box::new(ExprIr::slot(0)),
                right: Box::new(ExprIr::Param(0)),
            },
            ExprIr::Binary {
                op: BinOp::Lt,
                left: Box::new(ExprIr::slot(0)),
                right: Box::new(ExprIr::Const(Value::Int(10))),
            },
        ]);
        let float = [Value::Float(2.5)];
        let (want, _) = run_fixpoint(add_param.clone(), start(), &float, TierMode::ForceOff);
        let (got, stats) = run_fixpoint(add_param, start(), &float, TierMode::Auto);
        let got = got.unwrap();
        assert_eq!(got.len(), 6);
        assert_eq!(format!("{got:?}"), format!("{:?}", want.unwrap()));
        assert_eq!(stats.tier.tier_promotions, 1);
        assert_eq!(
            (stats.tier.tier_mono_rows, stats.fused_transition_rows),
            (5, 0)
        );

        // A failed bind pins the VM: the probe's table has vanished. The
        // probe sits in a branch that never fires, so the VM never reads
        // it. ROW(c + 1, CASE WHEN c < 0 THEN (SELECT x FROM gone WHERE
        // key = c) ELSE c < 10 END).
        let probe = PlanNode::Project {
            input: Box::new(PlanNode::IndexLookup {
                table: "gone".into(),
                column: 0,
                key: ExprIr::slot(0),
            }),
            exprs: vec![ExprIr::slot(0)],
        };
        let below = |n: i64| ExprIr::Binary {
            op: BinOp::Lt,
            left: Box::new(ExprIr::slot(0)),
            right: Box::new(ExprIr::Const(Value::Int(n))),
        };
        let vanished = ExprIr::Row(vec![
            ExprIr::Binary {
                op: BinOp::Add,
                left: Box::new(ExprIr::slot(0)),
                right: Box::new(ExprIr::Const(Value::Int(1))),
            },
            ExprIr::Case {
                operand: None,
                branches: vec![(below(0), ExprIr::Subplan(Arc::new(probe)))],
                else_: Some(Box::new(below(10))),
            },
        ]);
        fused_with_mono(vanished.clone());
        let (rows, stats) = run_fixpoint(vanished, start(), &[], TierMode::Auto);
        assert_eq!(rows.unwrap().len(), 12);
        assert_eq!(stats.tier.tier_promotions, 0);
        assert_eq!(
            (stats.tier.tier_mono_rows, stats.fused_transition_rows),
            (0, 11)
        );

        // An operator error in mono is the error `ForceOff` raises: 0 → 1
        // → 2 → 3 in mono, then a zero divisor.
        let (want, vm) = run_fixpoint(zero_divisor_body(), start(), &[], TierMode::ForceOff);
        let (got, stats) = run_fixpoint(zero_divisor_body(), start(), &[], TierMode::Auto);
        assert_eq!(got.unwrap_err(), want.unwrap_err());
        assert_eq!(vm.fused_transition_rows, 3);
        assert_eq!(stats.tier.tier_promotions, 1);
        assert_eq!(
            (stats.tier.tier_mono_rows, stats.fused_transition_rows),
            (3, 0)
        );

        // A kept row whose body falls through a CASE without ELSE raises
        // the VM's unpack error: ROW(c + 1, true) while c < 3, then NULL.
        let fallthrough = ExprIr::Case {
            operand: None,
            branches: vec![(
                below(3),
                ExprIr::Row(vec![
                    ExprIr::Binary {
                        op: BinOp::Add,
                        left: Box::new(ExprIr::slot(0)),
                        right: Box::new(ExprIr::Const(Value::Int(1))),
                    },
                    ExprIr::Const(Value::Bool(true)),
                ]),
            )],
            else_: None,
        };
        let (want, _) = run_fixpoint(fallthrough.clone(), start(), &[], TierMode::ForceOff);
        let (got, stats) = run_fixpoint(fallthrough, start(), &[], TierMode::Auto);
        let want = want.unwrap_err();
        assert!(want.to_string().contains("expected record"), "{want}");
        assert_eq!(got.unwrap_err(), want);
        assert_eq!(
            (stats.tier.tier_promotions, stats.tier.tier_mono_rows),
            (1, 3)
        );
    }
}
