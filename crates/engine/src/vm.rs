//! Flat expression programs: the engine's one expression evaluator.
//!
//! A tree walker re-dispatches on every [`ExprIr`] node for every row of
//! every fixpoint iteration — exactly the per-iteration interpretive
//! overhead the paper compiles away at the PL/SQL level, paid again one
//! layer down. This module lowers every planned expression *once per
//! prepared plan* into a flat postfix [`ExprProgram`] executed on a
//! reusable value stack:
//!
//! * no recursion and no per-node `match` over 20 variants — one linear op
//!   array with absolute jumps,
//! * short-circuiting constructs (`AND`/`OR`/`CASE`/`COALESCE`/`IN`) become
//!   jump instructions, preserving three-valued-logic evaluation order
//!   bit-for-bit (including which sub-expressions are *not* evaluated),
//! * let-chain scalar sub-queries flatten into the program; every other
//!   sub-plan (scalar, `EXISTS`, `IN`, `materialize`) and every SQL-UDF
//!   call is one op that calls the executor directly. Sub-plans that
//!   provably reference no outer row, no parameter and no volatile function
//!   are *invariant* within one execution and are memoized per [`Runtime`]
//!   — hoisting them out of recursive-CTE fixpoint loops.
//!
//! [`precompile_plan`] walks a freshly planned tree and lowers every
//! expression to [`ExprIr::Vm`] except the leaves (constants, slots,
//! parameters), which the executor reads directly; [`lower`] does the same
//! for one bare expression (PL/pgSQL's simple expressions). On the way down
//! the pass also wraps every pure blocking subtree that can run more than
//! once per statement in a [`PlanNode::Memoize`], keyed by the outer slots
//! and parameters it reads, so correlated sub-plans are memoized too: once
//! per distinct key. Closed sub-plans are the empty-key case of the same
//! per-execution memo ([`crate::memo::MemoCache`]).
//!
//! The plan analyses that run on lowered plans (hoisting, memo keys) see
//! through a lowered expression with [`ExprProgram::for_each_access`] and
//! answer as on the tree it came from. A fixpoint's fused transition is
//! recognized on the trees, before its arm is lowered
//! ([`precompile_plan`]).

use std::sync::Arc;

use plaway_common::{Error, Result, Type, Value};
use plaway_sql::ast::BinOp;

use crate::exec::{
    and3, apply_bin, between3, bool_value, call_sql_udf, eval_snapshot_op, exec_exists, exec_into,
    exec_scalar, in_step, in_verdict, like3, materialize_snapshot, not3, or3, EvalEnv, Flow,
    Runtime,
};
use crate::functions::eval_scalar;
use crate::ir::{CtePlan, ExprIr, FusedTransition, PlanNode, ScalarFn, SnapshotOp};
use crate::memo::MemoKey;

/// A directly addressable operand: resolved inline by superinstructions so
/// common leaf reads never pay a separate dispatch + stack round-trip.
#[derive(Debug, Clone)]
pub enum Operand {
    Const(Value),
    /// Scope-stack slot (`depth` levels up, column `index`).
    Slot {
        depth: u32,
        index: u32,
    },
    /// Program-stack cell at `base + offset`: a flattened let binding.
    Stack(u32),
    /// Statement parameter.
    Param(u32),
}

/// One instruction of a flat expression program. Operands are evaluated
/// left-to-right onto the value stack; jump targets are absolute op indexes.
#[derive(Debug, Clone)]
pub enum Op {
    /// Push one operand.
    Push(Operand),
    /// Push a run of operands (one dispatch for consecutive leaf pushes).
    PushN(Box<[Operand]>),
    PushNull,
    Neg,
    Not,
    IsNull {
        negated: bool,
    },
    /// Binary operator over two stacked values (fallback form).
    Bin(BinOp),
    /// Binary operator with both operands addressed directly.
    Bin2 {
        op: BinOp,
        l: Operand,
        r: Operand,
    },
    /// Fused compare-and-branch: jump unless `l op r` is `true` (NULL and
    /// `false` both jump — the `CASE WHEN`/filter rule).
    CmpNotJump {
        op: BinOp,
        l: Operand,
        r: Operand,
        target: u32,
    },
    /// `AND`: left value is on top. `false` short-circuits (jump), anything
    /// else stays for [`Op::AndCombine`] after the right operand runs.
    AndProbe(u32),
    AndCombine,
    /// `OR`: `true` short-circuits.
    OrProbe(u32),
    OrCombine,
    /// Pop high, low, expr (in that order) and push the BETWEEN verdict.
    Between {
        negated: bool,
    },
    Like {
        negated: bool,
    },
    /// Pop `n` values and push them as one record.
    Row(u32),
    Cast(Type),
    /// Pop `argc` values (left at the stack tail, passed as a slice).
    Scalar {
        func: ScalarFn,
        argc: u32,
    },
    /// Pop `argc` values and apply a snapshot accessor (row-loop cursor
    /// reads). It addresses no plan, so the per-iteration `fetch_row` of a
    /// compiled row loop stays inside flattened let-chain frames.
    Snapshot {
        op: SnapshotOp,
        argc: u32,
    },
    /// Fused field-direct fetch — `fetch_row(handle, pos, <const field>)`
    /// with operand-addressed handle and position, the exact shape the
    /// row-loop lowering emits once per used column per iteration. Skips
    /// the push/pop round-trip and the arity dispatch of the generic form:
    /// this op *is* the compiled loop's inner-row read, so it is as hot as
    /// the trampoline gets.
    FetchField {
        handle: Operand,
        pos: Operand,
        /// 0-based field index (the SQL surface is 1-based).
        field: u32,
    },
    Jump(u32),
    /// Pop the condition; jump unless it is `true`.
    JumpIfNotTrue(u32),
    /// Simple `CASE <operand>`: pop the WHEN value, compare to the operand
    /// left on top of the stack; jump unless SQL-equal.
    CaseCmpJump(u32),
    Pop,
    /// Drop a finished let-chain frame: remove the `drop` stack cells ending
    /// at static offset `below` (relative to the program base), keeping
    /// everything above them. Statically addressed so splat-mode programs
    /// (which leave several values above the frame) collapse correctly too.
    Collapse {
        below: u32,
        drop: u32,
    },
    /// `COALESCE` step: jump if the top is non-NULL, else pop and continue.
    JumpIfNotNull(u32),
    /// `IN`-list step over stack `[.., expr, acc]`: pop the candidate,
    /// fold it into `acc` (three-valued), jump to the finish op on a match.
    InStep(u32),
    /// Pop `acc` and `expr`, push the final `IN` verdict.
    InFinish {
        negated: bool,
    },
    /// Scalar sub-query the executor runs (one that does not flatten).
    /// `cached`: the plan is closed, so its value is memoized per runtime.
    Subplan {
        plan: Arc<PlanNode>,
        cached: bool,
    },
    /// `EXISTS (plan)`; `cached` as for [`Op::Subplan`].
    Exists {
        plan: Arc<PlanNode>,
        cached: bool,
    },
    /// `[NOT] IN (plan)` over the probed value on top of the stack.
    InPlan {
        plan: Arc<PlanNode>,
        negated: bool,
    },
    /// SQL-UDF call: pop `argc` arguments and run the function's body plan.
    UdfCall {
        name: Box<str>,
        argc: u32,
    },
    /// `materialize(plan)`: register the plan's rows as a snapshot and push
    /// its handle.
    Materialize(Arc<PlanNode>),
}

/// A compiled expression: flat ops, built once per prepared plan and shared
/// via `Arc`.
#[derive(Debug, Clone)]
pub struct ExprProgram {
    ops: Vec<Op>,
    /// A let-chain sub-query was flattened into `ops`. Its plan leaves no
    /// op behind, yet analyses that treat any sub-query as opaque must
    /// still see one.
    chains: bool,
}

/// What a program reaches beyond its own stack cells, as the plan analyses
/// see it through [`ExprProgram::for_each_access`].
#[derive(Debug, Clone, Copy)]
pub enum Access<'p> {
    /// Scope-stack read, `depth` counted from the program's environment.
    Slot {
        depth: usize,
        index: usize,
    },
    Param(usize),
    /// A volatile built-in (`random()`, `raise_error`).
    Volatile,
    /// A sub-plan the executor runs in the program's environment: a scalar
    /// sub-query, `EXISTS` or `IN`.
    Plan(&'p PlanNode),
    /// A `materialize` cursor source.
    Materialize(&'p PlanNode),
    /// A SQL-UDF call.
    Udf,
    /// A snapshot accessor (execution-local cursor state).
    Snapshot,
    /// A let-chain sub-query flattened into the program; its reads are
    /// reported as slots and parameters of the program itself.
    Chain,
}

impl ExprProgram {
    /// Visit everything the program reads or runs outside its own stack:
    /// the one view through which analyses answer on a lowered expression
    /// as on its source tree.
    pub fn for_each_access<'p>(&'p self, f: &mut impl FnMut(Access<'p>)) {
        fn read<'p>(o: &Operand, f: &mut impl FnMut(Access<'p>)) {
            match *o {
                Operand::Slot { depth, index } => f(Access::Slot {
                    depth: depth as usize,
                    index: index as usize,
                }),
                Operand::Param(i) => f(Access::Param(i as usize)),
                Operand::Const(_) | Operand::Stack(_) => {}
            }
        }
        if self.chains {
            f(Access::Chain);
        }
        for op in &self.ops {
            match op {
                Op::Push(o) => read(o, f),
                Op::PushN(os) => {
                    for o in os.iter() {
                        read(o, f);
                    }
                }
                Op::Bin2 { l, r, .. } | Op::CmpNotJump { l, r, .. } => {
                    read(l, f);
                    read(r, f);
                }
                Op::FetchField { handle, pos, .. } => {
                    read(handle, f);
                    read(pos, f);
                    f(Access::Snapshot);
                }
                Op::Snapshot { .. } => f(Access::Snapshot),
                Op::Scalar { func, .. } if func.is_volatile() => f(Access::Volatile),
                Op::Subplan { plan, .. } | Op::Exists { plan, .. } | Op::InPlan { plan, .. } => {
                    f(Access::Plan(plan))
                }
                Op::Materialize(plan) => f(Access::Materialize(plan)),
                Op::UdfCall { .. } => f(Access::Udf),
                _ => {}
            }
        }
    }

    /// The program `NOT <depth-0 slot>`: the outer `WHERE NOT call?` of a
    /// compiled query, which the executor tests on the row directly.
    pub(crate) fn negated_slot(&self) -> Option<usize> {
        match self.ops.as_slice() {
            [Op::Push(Operand::Slot { depth: 0, index }), Op::Not] => Some(*index as usize),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Compilation

struct Compiler {
    ops: Vec<Op>,
    /// Set once a let-chain sub-query flattens ([`ExprProgram::chains`]).
    chains: bool,
    /// Statically tracked runtime stack depth (relative to the program base)
    /// at the current emission point. Exact by stack discipline: every
    /// `emit` nets +1, all merge points agree.
    depth: usize,
    /// Bases of active flattened let-chain frames, innermost last.
    frames: Vec<usize>,
}

impl Compiler {
    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn placeholder(&mut self) -> usize {
        self.ops.push(Op::Jump(u32::MAX));
        self.ops.len() - 1
    }

    fn patch(&mut self, at: usize, op: Op) {
        self.ops[at] = op;
    }

    /// Resolve a scope-stack reference against the active let-chain frames:
    /// depths inside flattened chains address frame cells, deeper depths
    /// shift down to the real scope stack.
    fn resolve_slot(&self, depth: usize, index: usize) -> Operand {
        if depth < self.frames.len() {
            let base = self.frames[self.frames.len() - 1 - depth];
            Operand::Stack((base + index) as u32)
        } else {
            Operand::Slot {
                depth: (depth - self.frames.len()) as u32,
                index: index as u32,
            }
        }
    }

    /// Leaf expressions addressable directly by superinstructions.
    fn as_operand(&self, e: &ExprIr) -> Option<Operand> {
        match e {
            ExprIr::Const(v) => Some(Operand::Const(v.clone())),
            ExprIr::Slot { depth, index } => Some(self.resolve_slot(*depth, *index)),
            ExprIr::Param(i) => Some(Operand::Param(*i as u32)),
            _ => None,
        }
    }

    fn emit_push(&mut self, o: Operand) {
        self.ops.push(Op::Push(o));
        self.depth += 1;
    }

    /// Emit `items` so each leaves one value, batching consecutive
    /// operand-addressable items into a single [`Op::PushN`].
    fn emit_values(&mut self, items: &[ExprIr]) {
        let mut run: Vec<Operand> = Vec::new();
        for e in items {
            if let Some(o) = self.as_operand(e) {
                run.push(o);
                continue;
            }
            self.flush_run(&mut run);
            self.emit(e);
        }
        self.flush_run(&mut run);
    }

    fn flush_run(&mut self, run: &mut Vec<Operand>) {
        match run.len() {
            0 => {}
            1 => self.emit_push(run.pop().unwrap()),
            n => {
                self.ops
                    .push(Op::PushN(std::mem::take(run).into_boxed_slice()));
                self.depth += n;
            }
        }
    }

    /// Push an op that leaves one new value on the stack.
    fn emit_value_op(&mut self, op: Op) {
        self.ops.push(op);
        self.depth += 1;
    }

    /// Emit a condition followed by "jump unless true", fusing simple
    /// comparisons into one [`Op::CmpNotJump`]. Returns the placeholder
    /// index to patch with the target.
    fn emit_cond_not_jump(&mut self, cond: &ExprIr) -> usize {
        if let ExprIr::Binary { op, left, right } = cond {
            if matches!(
                op,
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
            ) {
                if let (Some(l), Some(r)) = (self.as_operand(left), self.as_operand(right)) {
                    let at = self.ops.len();
                    self.ops.push(Op::CmpNotJump {
                        op: *op,
                        l,
                        r,
                        target: u32::MAX,
                    });
                    return at;
                }
            }
        }
        self.emit(cond);
        self.depth -= 1;
        let at = self.ops.len();
        self.ops.push(Op::JumpIfNotTrue(u32::MAX));
        at
    }

    fn patch_cond(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::CmpNotJump { target: t, .. } => *t = target,
            Op::JumpIfNotTrue(t) => *t = target,
            other => unreachable!("patch_cond on {other:?}"),
        }
    }

    /// Emit one expression; leaves exactly one value on the stack (+1 depth).
    fn emit(&mut self, e: &ExprIr) {
        let entry = self.depth;
        match e {
            ExprIr::Const(_) | ExprIr::Slot { .. } | ExprIr::Param(_) => {
                let o = self.as_operand(e).unwrap();
                self.emit_push(o);
            }
            ExprIr::Neg(x) => {
                self.emit(x);
                self.ops.push(Op::Neg);
            }
            ExprIr::Not(x) => {
                self.emit(x);
                self.ops.push(Op::Not);
            }
            ExprIr::Binary { op, left, right } => match op {
                BinOp::And => {
                    self.emit(left);
                    let probe = self.placeholder();
                    self.emit(right);
                    self.ops.push(Op::AndCombine);
                    let end = self.here();
                    self.patch(probe, Op::AndProbe(end));
                    self.depth = entry + 1;
                }
                BinOp::Or => {
                    self.emit(left);
                    let probe = self.placeholder();
                    self.emit(right);
                    self.ops.push(Op::OrCombine);
                    let end = self.here();
                    self.patch(probe, Op::OrProbe(end));
                    self.depth = entry + 1;
                }
                other => match (self.as_operand(left), self.as_operand(right)) {
                    (Some(l), Some(r)) => {
                        self.ops.push(Op::Bin2 { op: *other, l, r });
                        self.depth += 1;
                    }
                    _ => {
                        self.emit(left);
                        self.emit(right);
                        self.ops.push(Op::Bin(*other));
                        self.depth -= 1;
                    }
                },
            },
            ExprIr::IsNull { expr, negated } => {
                self.emit(expr);
                self.ops.push(Op::IsNull { negated: *negated });
            }
            ExprIr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                self.emit(expr);
                self.emit(low);
                self.emit(high);
                self.ops.push(Op::Between { negated: *negated });
                self.depth = entry + 1;
            }
            ExprIr::Case {
                operand,
                branches,
                else_,
            } => {
                let has_operand = operand.is_some();
                if let Some(o) = operand {
                    self.emit(o);
                }
                let branch_entry = self.depth;
                let mut end_jumps = Vec::with_capacity(branches.len());
                for (when, then) in branches {
                    self.depth = branch_entry;
                    let miss = if has_operand {
                        self.emit(when);
                        self.depth -= 1;
                        let at = self.ops.len();
                        self.ops.push(Op::CaseCmpJump(u32::MAX));
                        at
                    } else {
                        self.emit_cond_not_jump(when)
                    };
                    if has_operand {
                        self.ops.push(Op::Pop); // drop the operand
                        self.depth -= 1;
                    }
                    self.emit(then);
                    end_jumps.push(self.placeholder());
                    let next = self.here();
                    if has_operand {
                        self.patch(miss, Op::CaseCmpJump(next));
                    } else {
                        self.patch_cond(miss, next);
                    }
                }
                self.depth = branch_entry;
                if has_operand {
                    self.ops.push(Op::Pop);
                    self.depth -= 1;
                }
                match else_ {
                    Some(e) => self.emit(e),
                    None => {
                        self.ops.push(Op::PushNull);
                        self.depth += 1;
                    }
                }
                let end = self.here();
                for j in end_jumps {
                    self.patch(j, Op::Jump(end));
                }
                self.depth = entry + 1;
            }
            ExprIr::Coalesce(args) => {
                if args.is_empty() {
                    self.ops.push(Op::PushNull);
                    self.depth += 1;
                    return;
                }
                let mut jumps = Vec::with_capacity(args.len() - 1);
                for (i, a) in args.iter().enumerate() {
                    self.depth = entry;
                    self.emit(a);
                    if i + 1 < args.len() {
                        jumps.push(self.placeholder());
                    }
                }
                let end = self.here();
                for j in jumps {
                    self.patch(j, Op::JumpIfNotNull(end));
                }
                self.depth = entry + 1;
            }
            ExprIr::Scalar { func, args } => {
                self.emit_values(args);
                self.ops.push(Op::Scalar {
                    func: *func,
                    argc: args.len() as u32,
                });
                self.depth = entry + 1;
            }
            ExprIr::InList {
                expr,
                list,
                negated,
            } => {
                self.emit(expr);
                self.emit_push(Operand::Const(Value::Bool(false))); // acc
                let mut steps = Vec::with_capacity(list.len());
                for item in list {
                    self.emit(item);
                    self.depth -= 1;
                    let at = self.ops.len();
                    self.ops.push(Op::InStep(u32::MAX));
                    steps.push(at);
                }
                let finish = self.here();
                for s in steps {
                    self.patch(s, Op::InStep(finish));
                }
                self.ops.push(Op::InFinish { negated: *negated });
                self.depth = entry + 1;
            }
            ExprIr::Like {
                expr,
                pattern,
                negated,
            } => {
                self.emit(expr);
                self.emit(pattern);
                self.ops.push(Op::Like { negated: *negated });
                self.depth = entry + 1;
            }
            ExprIr::Row(items) => {
                self.emit_values(items);
                self.ops.push(Op::Row(items.len() as u32));
                self.depth = entry + 1;
            }
            ExprIr::Cast { expr, ty } => {
                self.emit(expr);
                self.ops.push(Op::Cast(ty.clone()));
            }
            // Scalar sub-queries with the compiler's let-chain shape flatten
            // straight into the program; every other sub-plan is one op that
            // runs the executor.
            ExprIr::Subplan(p) => {
                if !self.try_emit_chain(p) {
                    let cached = plan_free_scopes(p) == Some(0);
                    self.emit_value_op(Op::Subplan {
                        plan: Arc::clone(p),
                        cached,
                    });
                }
            }
            ExprIr::Exists { plan } => {
                let cached = plan_free_scopes(plan) == Some(0);
                self.emit_value_op(Op::Exists {
                    plan: Arc::clone(plan),
                    cached,
                });
            }
            ExprIr::InPlan {
                expr,
                plan,
                negated,
            } => {
                self.emit(expr);
                self.ops.push(Op::InPlan {
                    plan: Arc::clone(plan),
                    negated: *negated,
                });
            }
            ExprIr::UdfCall { name, args } => {
                self.emit_values(args);
                self.ops.push(Op::UdfCall {
                    name: name.as_str().into(),
                    argc: args.len() as u32,
                });
                self.depth = entry + 1;
            }
            // Never cached: the handle names execution-local state.
            ExprIr::Materialize { plan } => self.emit_value_op(Op::Materialize(Arc::clone(plan))),
            ExprIr::SnapshotFn { op, args } => {
                // Fuse the hot per-iteration shape: field-direct fetch with
                // addressable handle/position and a constant field index.
                if *op == SnapshotOp::Fetch {
                    if let [h, p, ExprIr::Const(Value::Int(field))] = args.as_slice() {
                        if *field >= 1 {
                            if let (Some(handle), Some(pos)) =
                                (self.as_operand(h), self.as_operand(p))
                            {
                                self.ops.push(Op::FetchField {
                                    handle,
                                    pos,
                                    field: (*field - 1) as u32,
                                });
                                self.depth = entry + 1;
                                return;
                            }
                        }
                    }
                }
                self.emit_values(args);
                self.ops.push(Op::Snapshot {
                    op: *op,
                    argc: args.len() as u32,
                });
                self.depth = entry + 1;
            }
            ExprIr::Vm(_) => unreachable!("expression lowered twice (planner bug)"),
        }
        debug_assert_eq!(self.depth, entry + 1, "emit must net one value: {e:?}");
    }

    /// Flatten a `Project[final] ∘ Extend* ∘ Result` scalar sub-query — the
    /// compiled `let` chain — into the current program: binding values live
    /// in a statically addressed stack frame, evaluation stays eager, and
    /// the sub-plan executor is never entered.
    fn try_emit_chain(&mut self, plan: &PlanNode) -> bool {
        if !chain_flattenable(plan) {
            return false;
        }
        let Some((first, extends, final_expr)) = chain_shape(plan) else {
            return false;
        };
        let base = self.depth;
        // The seed bindings see the enclosing environment (Result semantics:
        // no pushed row), so the new frame is not yet active.
        for e in first {
            self.emit(e);
        }
        self.frames.push(base);
        for group in &extends {
            for e in *group {
                self.emit(e);
            }
        }
        self.emit(final_expr);
        self.frames.pop();
        self.chains = true;
        let drop = (self.depth - base - 1) as u32;
        if drop > 0 {
            self.ops.push(Op::Collapse {
                below: (self.depth - 1) as u32,
                drop,
            });
            self.depth -= drop as usize;
        }
        true
    }
}

/// The decomposed let-chain shape: seed bindings, extension groups
/// (innermost first), and the final projected expression.
type ChainShape<'p> = (&'p [ExprIr], Vec<&'p [ExprIr]>, &'p ExprIr);

/// Match the let-chain plan shape: `Project { [final] }` over zero or more
/// `Extend` over `Result`.
pub(crate) fn chain_shape(plan: &PlanNode) -> Option<ChainShape<'_>> {
    let PlanNode::Project { input, exprs } = plan else {
        return None;
    };
    let [final_expr] = exprs.as_slice() else {
        return None;
    };
    let mut extends: Vec<&[ExprIr]> = Vec::new();
    let mut cur: &PlanNode = input;
    loop {
        match cur {
            PlanNode::Extend { input, exprs } => {
                extends.push(exprs);
                cur = input;
            }
            PlanNode::Result { exprs } => {
                extends.reverse();
                return Some((exprs, extends, final_expr));
            }
            _ => return None,
        }
    }
}

/// Can this expression be emitted inside a flattened chain frame? Plans
/// the executor runs are out (the executor cannot see frame cells), except
/// nested sub-queries that flatten themselves. Snapshot accessors run as a
/// VM op with operand-addressed args, so they live happily inside a frame;
/// Materialize's plan does not.
fn expr_flattenable(e: &ExprIr) -> bool {
    match e {
        ExprIr::Subplan(p) => chain_flattenable(p),
        ExprIr::UdfCall { .. }
        | ExprIr::Exists { .. }
        | ExprIr::InPlan { .. }
        | ExprIr::Materialize { .. }
        | ExprIr::Vm(_) => false,
        _ => e.all_children(expr_flattenable),
    }
}

/// Is this plan a let-chain whose expressions can all live inside a
/// flattened frame?
pub(crate) fn chain_flattenable(plan: &PlanNode) -> bool {
    match chain_shape(plan) {
        Some((first, extends, final_expr)) => {
            first.iter().all(expr_flattenable)
                && extends.iter().all(|g| g.iter().all(expr_flattenable))
                && expr_flattenable(final_expr)
        }
        None => false,
    }
}

/// Lower one expression tree into a flat program.
pub fn compile(e: &ExprIr) -> ExprProgram {
    let mut c = Compiler {
        ops: Vec::new(),
        chains: false,
        depth: 0,
        frames: Vec::new(),
    };
    c.emit(e);
    ExprProgram {
        ops: c.ops,
        chains: c.chains,
    }
}

// ---------------------------------------------------------------------------
// Plan pre-compilation pass

/// Lower every expression of a freshly planned tree (see [`lower`]), and
/// memoize repeated blocking subtrees. Runs once per `plan_query`.
///
/// `repeated` says the node can run more than once per statement: inside
/// an expression sub-plan, on the inner side of a lateral nested loop, or
/// in a recursive arm. There, a pure blocking subtree is wrapped in a
/// [`PlanNode::Memoize`] before its expressions are lowered.
pub fn precompile_plan(plan: &mut PlanNode, repeated: bool) {
    if repeated && try_memoize(plan) {
        // The memoized subtree runs once per distinct key.
        precompile_plan(plan, false);
        return;
    }
    match plan {
        PlanNode::SeqScan { .. }
        | PlanNode::IndexLookup { .. }
        | PlanNode::IndexRange { .. }
        | PlanNode::Values { .. }
        | PlanNode::Result { .. }
        | PlanNode::CteScan { .. }
        | PlanNode::WorkingScan { .. } => {}
        PlanNode::Memoize { input, .. } => {
            if let Some(p) = Arc::get_mut(input) {
                precompile_plan(p, false);
            }
        }
        PlanNode::Filter { input, .. }
        | PlanNode::Project { input, .. }
        | PlanNode::ProjectUnpack { input, .. }
        | PlanNode::Extend { input, .. }
        | PlanNode::Agg { input, .. }
        | PlanNode::WindowAgg { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Distinct { input }
        | PlanNode::Limit { input, .. } => precompile_plan(input, repeated),
        PlanNode::NestLoop {
            left,
            right,
            lateral,
            ..
        } => {
            precompile_plan(left, repeated);
            precompile_plan(right, repeated || *lateral);
        }
        PlanNode::Append { inputs } => {
            for i in inputs {
                precompile_plan(i, repeated);
            }
        }
        PlanNode::SetOpNode { left, right, .. } => {
            precompile_plan(left, repeated);
            precompile_plan(right, repeated);
        }
        PlanNode::With { ctes, body } => {
            for c in ctes {
                match c {
                    CtePlan::Plain { plan, .. } => precompile_plan(plan, repeated),
                    CtePlan::Recursive {
                        index,
                        base,
                        recursive,
                        union_all,
                        fused,
                        ..
                    } => {
                        precompile_plan(base, repeated);
                        *fused = fuse_transition(*index, recursive, *union_all);
                        precompile_plan(recursive, true);
                    }
                }
            }
            precompile_plan(body, repeated);
        }
    }
    plan.for_each_expr_mut(&mut lower);
}

/// Recognize a recursive arm as a [`FusedTransition`]: the one place that
/// decides how its fixpoint runs. The shape is matched on the expression
/// trees, which the mono tier's compiler reads too; then the body is
/// lowered and splat-transformed in place and the filter lowered, so the
/// plan and the transition share one program. `None`: the general plan.
pub(crate) fn fuse_transition(
    index: usize,
    recursive: &mut PlanNode,
    union_all: bool,
) -> Option<Box<FusedTransition>> {
    let PlanNode::ProjectUnpack { input, src, width } = recursive else {
        return None;
    };
    let PlanNode::Filter { input, pred } = input.as_mut() else {
        return None;
    };
    let PlanNode::Extend { input, exprs } = input.as_mut() else {
        return None;
    };
    let (PlanNode::WorkingScan { index: scanned }, [body]) = (input.as_ref(), exprs.as_mut_slice())
    else {
        return None;
    };
    // Width 1 would make "one splatted value" and "one record to unpack"
    // indistinguishable; compiled fixpoints are always wider. The filter
    // holds no sub-plan, so only the body can read the working table again.
    let width = *width;
    if (*scanned, *src) != (index, width)
        || width < 2
        || !crate::exec::pred_reads_below(pred, width)
        || crate::exec::expr_uses_working(body, index)
    {
        return None;
    }
    // UNION dedup hashes whole rows between iterations, on the VM only.
    let mono = union_all.then(|| crate::tier::compile(body, pred, width));
    let mono = mono.flatten().map(Arc::new);
    precompile_nested_plans(body);
    let program = Arc::new(splat_transform(compile(body), width));
    *body = ExprIr::Vm(Arc::clone(&program));
    lower(pred);
    Some(Box::new(FusedTransition {
        body: program,
        test: crate::exec::bool_slot_test(pred),
        pred: pred.clone(),
        width,
        mono,
    }))
}

/// Lower one planned expression in place: the plans it holds first, then
/// the expression itself to a program. Leaves stay as they are: the
/// executor reads a constant, slot or parameter directly.
pub fn lower(e: &mut ExprIr) {
    if matches!(
        e,
        ExprIr::Const(_) | ExprIr::Slot { .. } | ExprIr::Param(_) | ExprIr::Vm(_)
    ) {
        return;
    }
    precompile_nested_plans(e);
    *e = ExprIr::Vm(Arc::new(compile(e)));
}

/// Recurse into sub-plans held by an expression so their own expressions are
/// lowered too (the `Arc`s are freshly planned, so `get_mut` succeeds).
fn precompile_nested_plans(e: &mut ExprIr) {
    match e {
        // Let-chain sub-queries are flattened into the enclosing program
        // by `compile` — lowering their expressions here would wrap them
        // in `Vm` and defeat the flattening.
        ExprIr::Subplan(p) if chain_flattenable(p) => {}
        ExprIr::Subplan(plan)
        | ExprIr::Exists { plan }
        | ExprIr::Materialize { plan }
        | ExprIr::InPlan { plan, .. } => {
            if let Some(p) = Arc::get_mut(plan) {
                precompile_plan(p, true);
            }
        }
        _ => {}
    }
    e.for_each_child_mut(&mut precompile_nested_plans);
}

// ---------------------------------------------------------------------------
// Outer-reference analysis (sub-plan hoisting and memoization)

/// What a plan reads from outside itself: enclosing-scope slots as
/// `(depth, index)` relative to the environment the plan runs in, and
/// statement parameters. Both lists are sorted and free of duplicates.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct OuterRefs {
    pub slots: Vec<(usize, usize)>,
    pub params: Vec<usize>,
}

/// Collect the outer references of `e`, evaluated with `pushed` rows on top
/// of the analysed plan's environment. `None` when the expression is unsafe
/// to hoist or memoize: a volatile function, a UDF call or snapshot state.
///
/// Snapshot state is execution-local: a materialize (or any accessor over
/// its handle) must never be hoisted out of the fixpoint loop or memoized
/// across rows — the whole point of the operator is that it runs exactly
/// once *per loop entry*, not once per execution.
fn expr_refs(e: &ExprIr, pushed: usize, out: &mut OuterRefs) -> Option<()> {
    match e {
        ExprIr::Slot { depth, index } => out.read_slot(*depth, *index, pushed),
        ExprIr::Param(i) => out.params.push(*i),
        ExprIr::Scalar { func, .. } if func.is_volatile() => return None,
        // Sub-plans run in the environment of the expression holding them.
        ExprIr::Subplan(p) | ExprIr::Exists { plan: p } | ExprIr::InPlan { plan: p, .. } => {
            plan_refs(p, pushed, out)?
        }
        ExprIr::UdfCall { .. } | ExprIr::Materialize { .. } | ExprIr::SnapshotFn { .. } => {
            return None
        }
        // A flattened chain's reads are the program's own slot and
        // parameter operands, at depths already relative to its
        // environment.
        ExprIr::Vm(prog) => {
            let mut ok = Some(());
            prog.for_each_access(&mut |a| {
                ok = ok.and_then(|()| {
                    match a {
                        Access::Slot { depth, index } => out.read_slot(depth, index, pushed),
                        Access::Param(i) => out.params.push(i),
                        Access::Plan(p) => plan_refs(p, pushed, out)?,
                        Access::Chain => {}
                        Access::Volatile
                        | Access::Materialize(_)
                        | Access::Udf
                        | Access::Snapshot => return None,
                    }
                    Some(())
                })
            });
            ok?
        }
        _ => {}
    }
    let mut ok = Some(());
    e.for_each_child(&mut |c| ok = ok.and_then(|()| expr_refs(c, pushed, out)));
    ok
}

impl OuterRefs {
    /// Record a slot read with `pushed` rows on top of the analysed root's
    /// environment: only deeper scopes are outer.
    fn read_slot(&mut self, depth: usize, index: usize, pushed: usize) {
        if depth >= pushed {
            self.slots.push((depth - pushed, index));
        }
    }
}

/// Collect the outer references of plan `p`, run with `pushed` rows on top
/// of the analysed root's environment. `None` when any expression is unsafe
/// or the plan reads a CTE or working table (`With` binds CTEs its body
/// reads back, so it is vetoed as a whole).
fn plan_refs(p: &PlanNode, pushed: usize, out: &mut OuterRefs) -> Option<()> {
    // Expressions evaluated per input row see that row pushed.
    let row = pushed + 1;
    match p {
        PlanNode::CteScan { .. } | PlanNode::WorkingScan { .. } | PlanNode::With { .. } => {
            return None
        }
        PlanNode::NestLoop {
            left,
            right,
            lateral,
            on,
            ..
        } => {
            plan_refs(left, pushed, out)?;
            plan_refs(right, if *lateral { row } else { pushed }, out)?;
            return match on {
                Some(e) => expr_refs(e, row, out),
                None => Some(()),
            };
        }
        _ => {}
    }
    let per_row = !matches!(
        p,
        PlanNode::IndexLookup { .. }
            | PlanNode::IndexRange { .. }
            | PlanNode::Values { .. }
            | PlanNode::Result { .. }
            | PlanNode::Limit { .. }
            | PlanNode::Memoize { .. }
    );
    let at = if per_row { row } else { pushed };
    let mut ok = Some(());
    p.for_each_expr(&mut |e| {
        if ok.is_some() {
            ok = expr_refs(e, at, out);
        }
    });
    p.for_each_child(&mut |c| {
        if ok.is_some() {
            ok = plan_refs(c, pushed, out);
        }
    });
    ok
}

/// Outer references of a plan, or `None` when it is unsafe to hoist or
/// memoize (see [`plan_refs`]).
pub(crate) fn plan_outer_refs(p: &PlanNode) -> Option<OuterRefs> {
    let mut refs = OuterRefs::default();
    plan_refs(p, 0, &mut refs)?;
    refs.slots.sort_unstable();
    refs.slots.dedup();
    refs.params.sort_unstable();
    refs.params.dedup();
    Some(refs)
}

/// Free-scope count of a plan: how many scopes of the *enclosing* evaluation
/// environment it can reference. `Some(0)` means the plan is closed — its
/// result depends only on catalog contents, which cannot change within one
/// statement execution. Parameters make a plan unsafe to hoist (`None`): a
/// SQL UDF body runs many times per execution with different arguments.
pub(crate) fn plan_free_scopes(p: &PlanNode) -> Option<usize> {
    let refs = plan_outer_refs(p)?;
    if !refs.params.is_empty() {
        return None;
    }
    Some(
        refs.slots
            .iter()
            .map(|&(depth, _)| depth + 1)
            .max()
            .unwrap_or(0),
    )
}

/// Outer references of `plan` if it is a memo site: a pure blocking node,
/// or a projection, filter or limit over a memo site that reads nothing the
/// site below does not. Growing the site upward that way lets a hit skip
/// the row-wise work too and store its (narrower) output, without adding a
/// key column that could only lower the hit rate.
fn memo_site_refs(plan: &PlanNode) -> Option<OuterRefs> {
    let input = match plan {
        p if p.is_blocking() => return plan_outer_refs(p),
        PlanNode::Project { input, .. }
        | PlanNode::ProjectUnpack { input, .. }
        | PlanNode::Extend { input, .. }
        | PlanNode::Filter { input, .. }
        | PlanNode::Limit { input, .. } => input,
        _ => return None,
    };
    let below = memo_site_refs(input)?;
    let refs = plan_outer_refs(plan)?;
    (refs == below).then_some(refs)
}

/// Wrap a memo site (see [`memo_site_refs`]) in a [`PlanNode::Memoize`]
/// keyed by every outer slot and parameter it reads (parameters too, unlike
/// hoisting: the memo is keyed, so a UDF body called with new arguments
/// simply misses). Returns whether it wrapped.
fn try_memoize(plan: &mut PlanNode) -> bool {
    let Some(refs) = memo_site_refs(plan) else {
        return false;
    };
    let key = refs
        .slots
        .into_iter()
        .map(|(depth, index)| ExprIr::Slot { depth, index })
        .chain(refs.params.into_iter().map(ExprIr::Param))
        .collect();
    let input = std::mem::replace(plan, PlanNode::Values { rows: Vec::new() });
    *plan = PlanNode::Memoize {
        input: Arc::new(input),
        key,
    };
    true
}

// ---------------------------------------------------------------------------
// Execution

/// Fast path for `int ⊕ int` in the binary ops of both tiers. `None` falls
/// back to [`apply_bin`], which also produces the overflow /
/// division-by-zero errors (so returning `None` on overflow is correct, not
/// just safe).
#[inline(always)]
pub(crate) fn fast_int_bin(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    let (Value::Int(a), Value::Int(b)) = (l, r) else {
        return None;
    };
    Some(match op {
        BinOp::Add => Value::Int(a.checked_add(*b)?),
        BinOp::Sub => Value::Int(a.checked_sub(*b)?),
        BinOp::Mul => Value::Int(a.checked_mul(*b)?),
        BinOp::Mod => {
            if *b == 0 {
                return None;
            }
            Value::Int(a.wrapping_rem(*b))
        }
        BinOp::Eq => Value::Bool(a == b),
        BinOp::NotEq => Value::Bool(a != b),
        BinOp::Lt => Value::Bool(a < b),
        BinOp::LtEq => Value::Bool(a <= b),
        BinOp::Gt => Value::Bool(a > b),
        BinOp::GtEq => Value::Bool(a >= b),
        _ => return None,
    })
}

/// Resolve a direct operand. `base` is the program's stack base (for
/// flattened let-chain frame cells).
#[inline(always)]
fn operand_value(o: &Operand, base: usize, env: &EvalEnv<'_>, rt: &Runtime<'_>) -> Result<Value> {
    match o {
        Operand::Const(v) => Ok(v.clone()),
        Operand::Slot { depth, index } => {
            let scopes = env
                .scopes
                .ok_or_else(|| Error::exec("no row context for column reference"))?;
            let row = scopes.at_depth(*depth as usize)?;
            row.get(*index as usize)
                .cloned()
                .ok_or_else(|| Error::exec("column slot out of range (planner bug)"))
        }
        Operand::Stack(k) => Ok(rt.vm_stack[base + *k as usize].clone()),
        Operand::Param(i) => env
            .params
            .get(*i as usize)
            .cloned()
            .ok_or_else(|| Error::exec(format!("parameter ${i} not bound"))),
    }
}

/// A sub-plan's value; a `cached` (closed) one is computed once per
/// runtime: the empty-key case of the per-execution memo, stored as a
/// one-row, one-column result.
fn memoized<'r>(
    plan: &Arc<PlanNode>,
    cached: bool,
    rt: &mut Runtime<'r>,
    run: impl FnOnce(&mut Runtime<'r>) -> Result<Value>,
) -> Result<Value> {
    if !cached {
        return run(rt);
    }
    let key = MemoKey::new(rt.memo.site(Arc::as_ptr(plan) as usize), Vec::new());
    if let Some(rows) = rt.memo.lookup(&key) {
        return Ok(rows[0][0].clone());
    }
    let v = run(rt)?;
    let limit = rt.config.work_mem_bytes;
    rt.memo.store(key, Arc::new(vec![vec![v.clone()]]), limit);
    Ok(v)
}

/// Run a compiled program. Reentrant: nested programs (run by the plans its
/// ops execute) share the runtime's stack via a base offset.
pub fn run(prog: &ExprProgram, env: &EvalEnv<'_>, rt: &mut Runtime<'_>) -> Result<Value> {
    let base = rt.vm_stack.len();
    let result = exec_ops(prog, base, env, rt).map(|()| rt.vm_stack.pop().unwrap());
    rt.vm_stack.truncate(base);
    result
}

/// Run a splat-transformed program (see [`splat_transform`]): terminal
/// `ROW(width)` constructions are elided, so a successful run leaves either
/// `width` values (a splatted row) or a single value on the stack above the
/// entry point. Returns how many values were produced; the caller owns them
/// (and must truncate on its own error paths).
pub(crate) fn run_splat(
    prog: &ExprProgram,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<usize> {
    let base = rt.vm_stack.len();
    match exec_ops(prog, base, env, rt) {
        Ok(()) => Ok(rt.vm_stack.len() - base),
        Err(e) => {
            rt.vm_stack.truncate(base);
            Err(e)
        }
    }
}

/// Is `p` a "terminal" position: does control reaching it run straight to
/// the end of the program (through unconditional jumps and frame collapses)
/// without touching the produced value?
fn terminal_at(ops: &[Op], mut p: usize) -> bool {
    loop {
        if p >= ops.len() {
            return true;
        }
        match &ops[p] {
            Op::Jump(t) => p = *t as usize, // jumps are always forward
            Op::Collapse { .. } => p += 1,
            _ => return false,
        }
    }
}

/// Derive the splat variant of a program: every `Row(width)` whose record
/// would flow unchanged to the program result is elided, leaving its fields
/// on the stack. Frame collapses keep working because they address stack
/// cells statically.
fn splat_transform(mut prog: ExprProgram, width: usize) -> ExprProgram {
    for pc in 0..prog.ops.len() {
        if matches!(prog.ops[pc], Op::Row(n) if n as usize == width)
            && terminal_at(&prog.ops, pc + 1)
        {
            prog.ops[pc] = Op::Jump(pc as u32 + 1);
        }
    }
    prog
}

fn exec_ops(
    prog: &ExprProgram,
    base: usize,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<()> {
    // Count dispatched opcodes in a local and flush once, so the hot loop
    // pays one add per op and error paths (`?` inside the arms) still
    // record the work done before the failure.
    let mut steps: u64 = 0;
    let result = exec_ops_loop(prog, base, env, rt, &mut steps);
    rt.stats.vm_ops_executed += steps;
    result
}

fn exec_ops_loop(
    prog: &ExprProgram,
    base: usize,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
    steps: &mut u64,
) -> Result<()> {
    let ops = &prog.ops;
    let mut pc = 0usize;
    while pc < ops.len() {
        *steps += 1;
        match &ops[pc] {
            Op::Push(o) => {
                let v = operand_value(o, base, env, rt)?;
                rt.vm_stack.push(v);
            }
            Op::PushN(os) => {
                rt.vm_stack.reserve(os.len());
                for o in os.iter() {
                    let v = operand_value(o, base, env, rt)?;
                    rt.vm_stack.push(v);
                }
            }
            Op::PushNull => rt.vm_stack.push(Value::Null),
            Op::Neg => {
                let v = rt.vm_stack.pop().unwrap().neg()?;
                rt.vm_stack.push(v);
            }
            Op::Not => {
                let v = not3(&rt.vm_stack.pop().unwrap())?;
                rt.vm_stack.push(v);
            }
            Op::IsNull { negated } => {
                let v = rt.vm_stack.pop().unwrap();
                rt.vm_stack.push(Value::Bool(v.is_null() != *negated));
            }
            Op::Bin(op) => {
                let r = rt.vm_stack.pop().unwrap();
                let l = rt.vm_stack.pop().unwrap();
                let v = match fast_int_bin(*op, &l, &r) {
                    Some(v) => v,
                    None => apply_bin(*op, &l, &r)?,
                };
                rt.vm_stack.push(v);
            }
            Op::Bin2 { op, l, r } => {
                let lv = operand_value(l, base, env, rt)?;
                let rv = operand_value(r, base, env, rt)?;
                let v = match fast_int_bin(*op, &lv, &rv) {
                    Some(v) => v,
                    None => apply_bin(*op, &lv, &rv)?,
                };
                rt.vm_stack.push(v);
            }
            Op::CmpNotJump { op, l, r, target } => {
                let lv = operand_value(l, base, env, rt)?;
                let rv = operand_value(r, base, env, rt)?;
                let hit = match fast_int_bin(*op, &lv, &rv) {
                    Some(v) => v.is_true(),
                    None => apply_bin(*op, &lv, &rv)?.is_true(),
                };
                if !hit {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::AndProbe(end) => {
                let l = rt.vm_stack.last().unwrap().as_bool()?;
                if l == Some(false) {
                    *rt.vm_stack.last_mut().unwrap() = Value::Bool(false);
                    pc = *end as usize;
                    continue;
                }
            }
            Op::AndCombine => {
                let r = rt.vm_stack.pop().unwrap().as_bool()?;
                let l = rt.vm_stack.pop().unwrap().as_bool()?;
                rt.vm_stack.push(bool_value(and3(l, r)));
            }
            Op::OrProbe(end) => {
                let l = rt.vm_stack.last().unwrap().as_bool()?;
                if l == Some(true) {
                    *rt.vm_stack.last_mut().unwrap() = Value::Bool(true);
                    pc = *end as usize;
                    continue;
                }
            }
            Op::OrCombine => {
                let r = rt.vm_stack.pop().unwrap().as_bool()?;
                let l = rt.vm_stack.pop().unwrap().as_bool()?;
                rt.vm_stack.push(bool_value(or3(l, r)));
            }
            Op::Between { negated } => {
                let hi = rt.vm_stack.pop().unwrap();
                let lo = rt.vm_stack.pop().unwrap();
                let v = rt.vm_stack.pop().unwrap();
                let verdict = between3(&v, &lo, &hi, *negated)?;
                rt.vm_stack.push(verdict);
            }
            Op::Like { negated } => {
                let p = rt.vm_stack.pop().unwrap();
                let v = rt.vm_stack.pop().unwrap();
                rt.vm_stack.push(like3(&v, &p, *negated)?);
            }
            Op::Row(n) => {
                // Drain straight into the shared buffer: `Arc<[T]>` collects
                // from an exact-size iterator in a single allocation.
                let k = rt.vm_stack.len() - *n as usize;
                let rec: Arc<[Value]> = rt.vm_stack.drain(k..).collect();
                rt.vm_stack.push(Value::Record(rec));
            }
            Op::Cast(ty) => {
                let v = rt.vm_stack.pop().unwrap().cast(ty)?;
                rt.vm_stack.push(v);
            }
            Op::Scalar { func, argc } => {
                let k = rt.vm_stack.len() - *argc as usize;
                let v = eval_scalar(*func, &rt.vm_stack[k..], rt.rng)?;
                rt.vm_stack.truncate(k);
                rt.vm_stack.push(v);
            }
            Op::Snapshot { op, argc } => {
                // Pop into a fixed frame first: `eval_snapshot_op` needs the
                // runtime mutably, which forbids borrowing the stack tail.
                let mut argv = [Value::Null, Value::Null, Value::Null];
                let k = rt.vm_stack.len() - *argc as usize;
                for (i, v) in rt.vm_stack.drain(k..).enumerate() {
                    argv[i] = v;
                }
                let v = eval_snapshot_op(*op, &argv[..*argc as usize], rt)?;
                rt.vm_stack.push(v);
            }
            Op::FetchField { handle, pos, field } => {
                let h = operand_value(handle, base, env, rt)?.as_int()?;
                let p = operand_value(pos, base, env, rt)?.as_int()?;
                let row = rt.snapshots.row(h, p).map_err(Error::exec)?;
                let v = row.get(*field as usize).cloned().ok_or_else(|| {
                    Error::exec(format!(
                        "fetch_row: field {} out of bounds for row of width {}",
                        field + 1,
                        row.len()
                    ))
                })?;
                rt.vm_stack.push(v);
            }
            Op::Jump(t) => {
                pc = *t as usize;
                continue;
            }
            Op::JumpIfNotTrue(t) => {
                let v = rt.vm_stack.pop().unwrap();
                if !v.is_true() {
                    pc = *t as usize;
                    continue;
                }
            }
            Op::CaseCmpJump(t) => {
                let when = rt.vm_stack.pop().unwrap();
                let operand = rt.vm_stack.last().unwrap();
                if operand.sql_eq(&when)? != Some(true) {
                    pc = *t as usize;
                    continue;
                }
            }
            Op::Pop => {
                rt.vm_stack.pop();
            }
            Op::Collapse { below, drop } => {
                let hi = base + *below as usize;
                rt.vm_stack.drain(hi - *drop as usize..hi);
            }
            Op::JumpIfNotNull(t) => {
                if !rt.vm_stack.last().unwrap().is_null() {
                    pc = *t as usize;
                    continue;
                }
                rt.vm_stack.pop();
            }
            Op::InStep(finish) => {
                let item = rt.vm_stack.pop().unwrap();
                let n = rt.vm_stack.len();
                let found = in_step(rt.vm_stack[n - 1].as_bool()?, &rt.vm_stack[n - 2], &item)?;
                rt.vm_stack[n - 1] = bool_value(found);
                if found == Some(true) {
                    pc = *finish as usize;
                    continue;
                }
            }
            Op::InFinish { negated } => {
                let found = rt.vm_stack.pop().unwrap().as_bool()?;
                rt.vm_stack.pop(); // the probed expression
                rt.vm_stack.push(in_verdict(found, *negated));
            }
            Op::Subplan { .. }
            | Op::Exists { .. }
            | Op::InPlan { .. }
            | Op::UdfCall { .. }
            | Op::Materialize(_) => {
                let v = run_plan_op(&ops[pc], env, rt)?;
                rt.vm_stack.push(v);
            }
        }
        pc += 1;
    }
    Ok(())
}

/// Run an op that calls the executor and return the value it pushes. Out
/// of line and cold: each runs a whole plan, and inlining them would grow
/// the dispatch loop that every other op runs in.
#[cold]
#[inline(never)]
fn run_plan_op(op: &Op, env: &EvalEnv<'_>, rt: &mut Runtime<'_>) -> Result<Value> {
    match op {
        Op::Subplan { plan, cached } => memoized(plan, *cached, rt, |rt| {
            rt.stats.subplan_evals += 1;
            exec_scalar(plan, env, rt)
        }),
        Op::Exists { plan, cached } => memoized(plan, *cached, rt, |rt| {
            exec_exists(plan, env, rt).map(Value::Bool)
        }),
        Op::InPlan { plan, negated } => {
            let v = rt.vm_stack.pop().expect("IN probe value on the stack");
            let mut found = Some(false);
            exec_into(plan, env, rt, &mut |row, _| {
                found = in_step(found, &v, &row[0])?;
                Ok(if found == Some(true) {
                    Flow::Stop
                } else {
                    Flow::More
                })
            })?;
            Ok(in_verdict(found, *negated))
        }
        Op::UdfCall { name, argc } => {
            let args = rt.vm_stack.split_off(rt.vm_stack.len() - *argc as usize);
            call_sql_udf(name, args, rt)
        }
        Op::Materialize(plan) => materialize_snapshot(plan, env, rt),
        other => unreachable!("{other:?} calls no plan"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{eval, Scopes};
    use crate::planner::{plan_expr, ParamScope};
    use crate::session::Session;
    use Value::{Bool, Float, Int, Null};

    /// Plan and lower a SQL expression over parameters `p0, p1, …` the way
    /// the interpreter does, and evaluate it.
    fn eval_sql(sql: &str, params: &[Value]) -> Result<Value> {
        let mut s = Session::default();
        let names = (0..params.len()).map(|i| format!("p{i}")).collect();
        let ast = plaway_sql::parse_expr(sql).unwrap();
        let ir = s.compile_expr(&ast, &ParamScope::new(names)).unwrap();
        s.eval_expr(&ir, params)
    }

    fn assert_value(sql: &str, params: &[Value], want: Value) {
        match eval_sql(sql, params) {
            Ok(got) => assert_eq!(got, want, "{sql}"),
            Err(e) => panic!("{sql}: {e}"),
        }
    }

    fn assert_error(sql: &str, want: &str) {
        match eval_sql(sql, &[]) {
            Ok(v) => panic!("{sql}: expected an error, got {v:?}"),
            Err(e) => assert_eq!(e.to_string(), want, "{sql}"),
        }
    }

    #[test]
    fn arithmetic_and_comparisons() {
        assert_value("1 + 2 * 3 - 4 / 2", &[], Int(5));
        assert_value("7 % 3 = 1", &[], Bool(true));
        assert_value("1.5 < 2", &[], Bool(true));
        assert_value("'a' || 'b' || 3", &[], Value::text("ab3"));
        assert_value("-p0 + 1", &[Int(41)], Int(-40));
    }

    #[test]
    fn three_valued_logic() {
        assert_value("NULL AND true", &[], Null);
        assert_value("NULL AND false", &[], Bool(false));
        assert_value("NULL OR true", &[], Bool(true));
        assert_value("NULL OR false", &[], Null);
        assert_value("NOT NULL", &[], Null);
        assert_value("NULL IS NULL", &[], Bool(true));
        assert_value("1 IS NOT NULL", &[], Bool(true));
    }

    #[test]
    fn short_circuit_skips_errors() {
        // The right operand would divide by zero; AND/OR must not reach it.
        assert_value("false AND 1 / 0 = 1", &[], Bool(false));
        assert_value("true OR 1 / 0 = 1", &[], Bool(true));
        assert_value("CASE WHEN true THEN 1 ELSE 1 / 0 END", &[], Int(1));
        assert_value("COALESCE(5, 1 / 0)", &[], Int(5));
        assert_value("2 IN (2, 1 / 0)", &[], Bool(true));
    }

    #[test]
    fn case_forms() {
        assert_value(
            "CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' ELSE 'c' END",
            &[],
            Value::text("b"),
        );
        assert_value("CASE WHEN false THEN 'a' END", &[], Null);
        assert_value(
            "CASE p0 WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END",
            &[Int(2)],
            Value::text("two"),
        );
        assert_value("CASE p0 WHEN 1 THEN 'one' END", &[Null], Null);
    }

    #[test]
    fn in_list_and_between_null_semantics() {
        assert_value("1 IN (1, 2)", &[], Bool(true));
        assert_value("3 IN (1, 2)", &[], Bool(false));
        assert_value("3 NOT IN (1, 2)", &[], Bool(true));
        assert_value("3 IN (1, NULL)", &[], Null);
        assert_value("3 NOT IN (1, NULL)", &[], Null);
        assert_value("NULL IN (1, 2)", &[], Null);
        assert_value("1 BETWEEN 0 AND 2", &[], Bool(true));
        assert_value("NULL BETWEEN 0 AND 2", &[], Null);
        assert_value("5 NOT BETWEEN 0 AND 2", &[], Bool(true));
    }

    #[test]
    fn scalar_functions_rows_and_casts() {
        assert_value("abs(-5) + length('abc')", &[], Int(8));
        assert_value("row_field(ROW(1, 'x', 2.5), 2)", &[], Value::text("x"));
        assert_value("CAST('42' AS int) + 1", &[], Int(43));
        assert_value("coalesce(NULL, NULL, 7)", &[], Int(7));
        assert_value("greatest(1, 2, 3) * least(4, 5)", &[], Int(12));
        assert_value("'hello' LIKE 'h%'", &[], Bool(true));
        assert_value("'hello' NOT LIKE '_x%'", &[], Bool(true));
        assert_value("NULL LIKE 'h%'", &[], Null);
    }

    #[test]
    fn error_texts() {
        assert_error("1 / 0", "execution error: division by zero");
        assert_error(
            "1 + 'x'",
            "execution error: +: expected numeric operands, got int and text",
        );
        assert_error(
            "substr('abc', 'x')",
            "execution error: expected int, got text (x)",
        );
    }

    /// How an operand reaches a binary operator.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Form {
        Const,
        /// Column of the row the expression is evaluated over.
        Slot,
        Param,
        /// Cell of a flattened let-chain frame ([`Operand::Stack`]).
        Frame,
        /// A value the program computed onto its stack (`COALESCE(v)`).
        Computed,
    }

    const FORMS: [Form; 5] = [
        Form::Const,
        Form::Slot,
        Form::Param,
        Form::Frame,
        Form::Computed,
    ];

    const OPS: [BinOp; 12] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Concat,
        BinOp::Eq,
        BinOp::NotEq,
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
    ];

    /// The expected result, from the `Value` operators alone.
    fn reference(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
        use std::cmp::Ordering::{self, Equal, Greater, Less};
        let cmp = |holds: fn(Ordering) -> bool| Ok(l.sql_cmp(r)?.map_or(Null, |o| Bool(holds(o))));
        match op {
            BinOp::Add => l.add(r),
            BinOp::Sub => l.sub(r),
            BinOp::Mul => l.mul(r),
            BinOp::Div => l.div(r),
            BinOp::Mod => l.rem(r),
            BinOp::Concat => l.concat(r),
            BinOp::Eq => cmp(|o| o == Equal),
            BinOp::NotEq => cmp(|o| o != Equal),
            BinOp::Lt => cmp(|o| o == Less),
            BinOp::LtEq => cmp(|o| o != Greater),
            BinOp::Gt => cmp(|o| o == Greater),
            BinOp::GtEq => cmp(|o| o != Less),
            BinOp::And | BinOp::Or => unreachable!("not in the table"),
        }
    }

    /// `l op r` with each operand in its form, wrapped as `CASE WHEN … THEN
    /// 'y' ELSE 'n' END` when `branch` (the compare-and-branch shape).
    /// Slots read column 0 (`l`) or 1 (`r`) of the evaluation row, and
    /// parameters `$0` and `$1`; frame operands are bound by a let-chain
    /// around the whole expression, under which that row is one level up.
    fn build(op: BinOp, forms: [Form; 2], values: [&Value; 2], branch: bool) -> ExprIr {
        let framed = forms.contains(&Form::Frame);
        let mut seeds = Vec::new();
        let mut side = |i: usize| match forms[i] {
            Form::Const => ExprIr::Const(values[i].clone()),
            Form::Slot => ExprIr::Slot {
                depth: usize::from(framed),
                index: i,
            },
            Form::Param => ExprIr::Param(i),
            Form::Frame => {
                seeds.push(ExprIr::Const(values[i].clone()));
                ExprIr::Slot {
                    depth: 0,
                    index: seeds.len() - 1,
                }
            }
            Form::Computed => ExprIr::Coalesce(vec![ExprIr::Const(values[i].clone())]),
        };
        let (left, right) = (side(0), side(1));
        let mut e = ExprIr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        };
        if branch {
            e = ExprIr::Case {
                operand: None,
                branches: vec![(e, ExprIr::Const(Value::text("y")))],
                else_: Some(Box::new(ExprIr::Const(Value::text("n")))),
            };
        }
        if framed {
            e = ExprIr::Subplan(Arc::new(PlanNode::Project {
                input: Box::new(PlanNode::Result { exprs: seeds }),
                exprs: vec![e],
            }));
        }
        e
    }

    /// Lower `e` and evaluate it over `row`, which also binds `$0` and `$1`.
    /// Returns the ops it ran and its result, rendered.
    fn run_lowered(s: &mut Session, mut e: ExprIr, row: &[Value]) -> (Vec<Op>, String) {
        lower(&mut e);
        let mut rt = s.runtime();
        let scopes = Scopes { row, parent: None };
        let env = EvalEnv {
            scopes: Some(&scopes),
            params: row,
        };
        let got = render(&eval(&e, &env, &mut rt));
        let ExprIr::Vm(prog) = e else {
            panic!("a binary expression lowers to a program")
        };
        (prog.ops.clone(), got)
    }

    fn render(r: &Result<Value>) -> String {
        match r {
            Ok(v) => format!("{v:?}"),
            Err(e) => e.to_string(),
        }
    }

    /// Every binary operator over every pair of operand types (int, float,
    /// text, bool, NULL) and every pair of operand forms, against the
    /// `Value` operators: the VM's integer fast path, its fused binary ops
    /// (`Bin2`, `CmpNotJump`) and the generic `Bin` each carry a check of
    /// their own.
    #[test]
    fn binary_operator_table_matches_value_semantics() {
        let values = [
            Int(7),
            Int(-1),
            Int(0),
            Int(i64::MAX),
            Int(i64::MIN),
            Float(2.5),
            Float(0.0),
            Value::text("ab"),
            Value::text("7"),
            Bool(true),
            Bool(false),
            Null,
        ];
        let mut s = Session::default();
        let mut seen = [false; 3]; // Bin, Bin2, CmpNotJump
        for op in OPS {
            let comparison = !matches!(
                op,
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod | BinOp::Concat
            );
            for l in &values {
                for r in &values {
                    let want = reference(op, l, r);
                    let want_branch = want
                        .as_ref()
                        .map(|v| Value::text(if v.is_true() { "y" } else { "n" }))
                        .map_err(Clone::clone);
                    let row = [l.clone(), r.clone()];
                    for lf in FORMS {
                        for rf in FORMS {
                            let mut shapes = vec![(false, render(&want))];
                            if comparison {
                                shapes.push((true, render(&want_branch)));
                            }
                            for (branch, want) in shapes {
                                let e = build(op, [lf, rf], [l, r], branch);
                                let (ops, got) = run_lowered(&mut s, e, &row);
                                assert_eq!(
                                    got, want,
                                    "{l:?} {op:?} {r:?} as {lf:?}/{rf:?} (branch: {branch}): {ops:?}"
                                );
                                for op in &ops {
                                    match op {
                                        Op::Bin(_) => seen[0] = true,
                                        Op::Bin2 { .. } => seen[1] = true,
                                        Op::CmpNotJump { .. } => seen[2] = true,
                                        _ => {}
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(seen, [true; 3], "every binary op shape was exercised");
    }

    /// The integer edge cases, written out: overflow, division by zero and
    /// `i64::MIN % -1`, through every pair of operand forms.
    #[test]
    fn integer_edge_cases_in_every_form() {
        let cases = [
            (
                BinOp::Add,
                i64::MAX,
                1,
                "execution error: integer overflow in +",
            ),
            (
                BinOp::Sub,
                i64::MIN,
                1,
                "execution error: integer overflow in -",
            ),
            (
                BinOp::Mul,
                i64::MAX,
                2,
                "execution error: integer overflow in *",
            ),
            (
                BinOp::Div,
                i64::MIN,
                -1,
                "execution error: integer overflow in /",
            ),
            (BinOp::Div, 7, 0, "execution error: division by zero"),
            (BinOp::Mod, 7, 0, "execution error: division by zero in %"),
            (BinOp::Mod, i64::MIN, -1, "Int(0)"),
            (BinOp::Mod, -7, 3, "Int(-1)"),
        ];
        let mut s = Session::default();
        for (op, l, r, want) in cases {
            let (l, r) = (Int(l), Int(r));
            for lf in FORMS {
                for rf in FORMS {
                    let e = build(op, [lf, rf], [&l, &r], false);
                    let (_, got) = run_lowered(&mut s, e, &[l.clone(), r.clone()]);
                    assert_eq!(got, want, "{l:?} {op:?} {r:?} as {lf:?}/{rf:?}");
                }
            }
        }
    }

    #[test]
    fn closed_subplans_are_detected_invariant() {
        let mut s = Session::default();
        s.run("CREATE TABLE t (a int)").unwrap();
        s.run("INSERT INTO t VALUES (1), (2)").unwrap();
        // Closed: depends only on the catalog.
        let ast = plaway_sql::parse_expr("(SELECT count(*) FROM t)").unwrap();
        let ir = plan_expr(&s.catalog, &ast, None, crate::config::IndexMode::Auto).unwrap();
        let ExprIr::Subplan(p) = &ir else { panic!() };
        assert_eq!(plan_free_scopes(p), Some(0));
        // Parameterized: not hoistable.
        let ast = plaway_sql::parse_expr("(SELECT count(*) FROM t WHERE a = x)").unwrap();
        let scope = ParamScope::new(vec!["x".into()]);
        let ir = plan_expr(
            &s.catalog,
            &ast,
            Some(&scope),
            crate::config::IndexMode::Auto,
        )
        .unwrap();
        let ExprIr::Subplan(p) = &ir else { panic!() };
        assert_eq!(plan_free_scopes(p), None);
    }
}
