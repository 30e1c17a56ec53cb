//! Tiered execution: monomorphized typed pipelines for fixpoint
//! transitions.
//!
//! The expression VM, the engine's one evaluator, runs the fused
//! `Extend → Filter → Unpack` transition without tree-walking dispatch, but
//! every cell still travels as a boxed [`Value`] and every opcode still
//! pays one dispatch branch. This module removes both for the common
//! *typed* shape: at prepare time [`recognize`] inspects the recursive arm
//! and, when it matches, compiles the whole per-row transition into
//! statically-typed Rust closures over `TCell` — a four-variant cell
//! (NULL / bool / int / text) with no float, no record, and no per-op
//! dispatch loop.
//!
//! Promotion happens once, at fixpoint entry (see `DESIGN.md` §7).
//! Recognition, the costly compile, already ran at prepare time, so a
//! later promotion would defer only a bind and a working-set conversion.
//! Under `tier_mode = Auto` a recognized transition whose captures bind
//! and whose base rows are typed runs in the mono tier from its first
//! iteration; `ForceOff` keeps it in the VM for the differential harness
//! and the benchmarks.
//!
//! The tier owns no loop of its own. The one fixpoint driver
//! (`exec_recursive_cte`) runs every iteration, and once `MonoRows::enter`
//! has promoted it, it runs each one as a `MonoRows::step` over typed rows
//! under the same retention policy (`Retention`) as the VM.
//!
//! Fallback is total: any situation the typed tier cannot reproduce
//! bit-for-bit — a float or record cell, integer overflow, division by
//! zero, a scalar error, more than one probe match — raises `Demote`,
//! the in-flight iteration is discarded, and the *same* iteration re-runs
//! in the VM, which reproduces the exact value or error. A demoted
//! transition stays in the VM for the rest of the statement.

use std::fmt;
use std::sync::Arc;

use plaway_common::{SessionRng, Value};
use plaway_sql::ast::BinOp;

use crate::catalog::{Catalog, Index, Row};
use crate::exec::{EvalEnv, FixCell, Retention, Rotation, RuntimeStats};
use crate::functions::{eval_scalar, like_match};
use crate::ir::{ExprIr, PlanNode};
use crate::vm::{chain_flattenable, chain_shape, plan_free_scopes};

/// Let-chain register ceiling; compiled kernels use a handful of cells.
const MAX_CHAIN: usize = 16;

// ---------------------------------------------------------------------------
// Typed cells and runtime frames

/// A typed cell: the value domain the mono tier handles natively. Floats
/// and records are deliberately absent — rows carrying them never promote
/// (or demote on first contact), keeping every closure a two-or-three-arm
/// match instead of a full `Value` dispatch.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) enum TCell {
    #[default]
    Null,
    Bool(bool),
    Int(i64),
    Text(Arc<str>),
}

/// The mono tier cannot (or must not) continue: re-run this iteration in
/// the VM, which reproduces the exact value or error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Demote;

type TResult = std::result::Result<TCell, Demote>;

fn tcell_of(v: &Value) -> Option<TCell> {
    match v {
        Value::Null => Some(TCell::Null),
        Value::Bool(b) => Some(TCell::Bool(*b)),
        Value::Int(i) => Some(TCell::Int(*i)),
        Value::Text(t) => Some(TCell::Text(Arc::clone(t))),
        Value::Float(_) | Value::Record(_) => None,
    }
}

fn value_of(c: &TCell) -> Value {
    match c {
        TCell::Null => Value::Null,
        TCell::Bool(b) => Value::Bool(*b),
        TCell::Int(i) => Value::Int(*i),
        TCell::Text(t) => Value::Text(Arc::clone(t)),
    }
}

type TRow = Vec<TCell>;

fn row_of(r: &[TCell]) -> Row {
    r.iter().map(value_of).collect()
}

fn to_typed(rows: &[Row], width: usize) -> Option<Vec<TRow>> {
    rows.iter()
        .map(|r| {
            if r.len() != width {
                return None;
            }
            r.iter().map(tcell_of).collect()
        })
        .collect()
}

/// One runtime frame: either a typed row owned by the mono driver, or a raw
/// base-table row borrowed during an index probe (converted per access).
#[derive(Clone, Copy)]
enum FrameRef<'a> {
    Typed(&'a [TCell]),
    Raw(&'a [Value]),
}

/// Linked frame stack, mirroring [`crate::exec::Scopes`]: depth 0 is the
/// innermost frame. Outer scopes beyond the compiled stack never appear
/// here — they are captured as constants at bind time.
struct TFrames<'a> {
    cur: FrameRef<'a>,
    parent: Option<&'a TFrames<'a>>,
}

impl<'a> TFrames<'a> {
    fn at_depth(&self, depth: usize) -> std::result::Result<FrameRef<'a>, Demote> {
        let mut cur = self;
        for _ in 0..depth {
            cur = cur.parent.ok_or(Demote)?;
        }
        Ok(cur.cur)
    }
}

/// Iteration-local counters, flushed into [`RuntimeStats`] only when the
/// iteration commits — a demoted iteration re-runs in the VM, which then
/// does its own counting.
#[derive(Debug, Clone, Copy, Default)]
struct TierRowStats {
    subplan_evals: u64,
    index_probes: u64,
    rows_scanned: u64,
}

// ---------------------------------------------------------------------------
// Compiled closures

type TExpr =
    Box<dyn for<'a> Fn(&TFrames<'a>, &TierBound<'a>, &mut TierRowStats) -> TResult + Send + Sync>;

/// Coerce a closure to the boxed HRTB signature in one place.
fn texpr(
    f: impl for<'a> Fn(&TFrames<'a>, &TierBound<'a>, &mut TierRowStats) -> TResult
        + Send
        + Sync
        + 'static,
) -> TExpr {
    Box::new(f)
}

/// A leaf operand: a slot load, a constant, or a promotion-time bind.
#[derive(Clone)]
enum Leaf {
    /// Column `index` of the innermost frame (the hot case: the current
    /// working row or the enclosing chain registers).
    Slot0(usize),
    /// Column `index` of the frame `depth` levels up.
    SlotN {
        depth: usize,
        index: usize,
    },
    Const(TCell),
    /// A cell captured at promotion time (statement param / outer scope).
    Bind(usize),
}

/// A borrowed-or-owned cell: the borrow-based evaluation path hands out
/// references into frames / consts / binds wherever the consumer only
/// inspects the value (comparisons, scalar-arg conversion, CASE whens),
/// avoiding a clone — which for `Text` cells is an atomic refcount
/// round-trip — per operand touch.
enum CellRef<'r> {
    Ref(&'r TCell),
    Owned(TCell),
}

impl CellRef<'_> {
    #[inline(always)]
    fn get(&self) -> &TCell {
        match self {
            CellRef::Ref(r) => r,
            CellRef::Owned(c) => c,
        }
    }

    #[inline(always)]
    fn into_owned(self) -> TCell {
        match self {
            CellRef::Ref(r) => r.clone(),
            CellRef::Owned(c) => c,
        }
    }
}

type TCResult<'r> = std::result::Result<CellRef<'r>, Demote>;

impl Leaf {
    #[inline(always)]
    fn eval_c<'r>(&'r self, f: &TFrames<'r>, b: &'r TierBound<'_>) -> TCResult<'r> {
        #[inline(always)]
        fn slot(fr: FrameRef<'_>, index: usize) -> TCResult<'_> {
            match fr {
                FrameRef::Typed(cells) => cells.get(index).map(CellRef::Ref).ok_or(Demote),
                FrameRef::Raw(row) => tcell_of(row.get(index).ok_or(Demote)?)
                    .map(CellRef::Owned)
                    .ok_or(Demote),
            }
        }
        match self {
            Leaf::Slot0(i) => slot(f.cur, *i),
            Leaf::SlotN { depth, index } => slot(f.at_depth(*depth)?, *index),
            Leaf::Const(c) => Ok(CellRef::Ref(c)),
            Leaf::Bind(i) => Ok(CellRef::Ref(&b.binds[*i])),
        }
    }

    #[inline(always)]
    fn eval(&self, f: &TFrames<'_>, b: &TierBound<'_>) -> TResult {
        Ok(self.eval_c(f, b)?.into_owned())
    }
}

/// Checked integer arithmetic; `None` (overflow, zero divisor) demotes,
/// and the VM re-raises the exact error.
#[derive(Clone, Copy)]
enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl ArithOp {
    #[inline(always)]
    fn apply(self, x: i64, y: i64) -> Option<i64> {
        match self {
            ArithOp::Add => x.checked_add(y),
            ArithOp::Sub => x.checked_sub(y),
            ArithOp::Mul => x.checked_mul(y),
            ArithOp::Div => x.checked_div(y),
            ArithOp::Mod => {
                if y == 0 {
                    None
                } else {
                    Some(x.wrapping_rem(y))
                }
            }
        }
    }
}

#[derive(Clone, Copy)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    #[inline(always)]
    fn test(self, o: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering as O;
        match self {
            CmpOp::Eq => o == O::Equal,
            CmpOp::Ne => o != O::Equal,
            CmpOp::Lt => o == O::Less,
            CmpOp::Le => o != O::Greater,
            CmpOp::Gt => o == O::Greater,
            CmpOp::Ge => o != O::Less,
        }
    }
}

/// A strict binary primitive: checked NULL-propagating arithmetic or a
/// three-valued comparison. Both operands are always evaluated, so only
/// operators without short-circuit semantics qualify (`AND`/`OR` stay in
/// the closure compiler).
#[derive(Clone, Copy)]
enum Prim {
    Arith(ArithOp),
    Cmp(CmpOp),
}

impl Prim {
    #[inline(always)]
    fn apply(self, x: &TCell, y: &TCell) -> TResult {
        match self {
            Prim::Arith(op) => match (x, y) {
                (TCell::Int(a), TCell::Int(b)) => op.apply(*a, *b).map(TCell::Int).ok_or(Demote),
                (TCell::Null, _) | (_, TCell::Null) => Ok(TCell::Null),
                _ => Err(Demote),
            },
            Prim::Cmp(op) => Ok(match tcell_cmp(x, y)? {
                Some(o) => TCell::Bool(op.test(o)),
                None => TCell::Null,
            }),
        }
    }
}

/// An expression of depth ≤ 1: a leaf, or one primitive over leaves.
enum Node {
    Leaf(Leaf),
    Prim { op: Prim, l: Leaf, r: Leaf },
}

impl Node {
    #[inline(always)]
    fn eval_c<'r>(&'r self, f: &TFrames<'r>, b: &'r TierBound<'_>) -> TCResult<'r> {
        match self {
            Node::Leaf(l) => l.eval_c(f, b),
            Node::Prim { op, l, r } => {
                let lv = l.eval_c(f, b)?;
                let rv = r.eval_c(f, b)?;
                Ok(CellRef::Owned(op.apply(lv.get(), rv.get())?))
            }
        }
    }
}

/// A compiled operand. The shapes the kernels overwhelmingly evaluate —
/// leaves and up to two levels of arithmetic / comparison over them
/// (`a + b`, `(a + b) % m`, `i <= n`) — are enum arms matched inline at
/// the use site instead of paying a boxed indirect call each; anything
/// deeper falls back to a boxed closure whose own operands are again
/// `Atom`s, so nesting costs one indirection per *three* levels, not per
/// node. Deliberately non-recursive: the small `eval` bodies inline into
/// the row loops, which is where the mono tier earns its keep over the
/// expression VM's per-opcode dispatch.
enum Atom {
    Node(Node),
    /// One primitive over depth-≤1 operands (depth-2 trees, inline).
    Prim2 {
        op: Prim,
        l: Node,
        r: Node,
    },
    Expr(TExpr),
}

impl Atom {
    #[inline(always)]
    fn eval_c<'r>(
        &'r self,
        f: &TFrames<'r>,
        b: &'r TierBound<'_>,
        s: &mut TierRowStats,
    ) -> TCResult<'r> {
        match self {
            Atom::Node(n) => n.eval_c(f, b),
            Atom::Prim2 { op, l, r } => {
                let lv = l.eval_c(f, b)?;
                let rv = r.eval_c(f, b)?;
                Ok(CellRef::Owned(op.apply(lv.get(), rv.get())?))
            }
            Atom::Expr(e) => Ok(CellRef::Owned(e(f, b, s)?)),
        }
    }

    #[inline(always)]
    fn eval(&self, f: &TFrames<'_>, b: &TierBound<'_>, s: &mut TierRowStats) -> TResult {
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
    binds: Vec<TCell>,
    probes: Vec<BoundProbe<'a>>,
}

/// The row constructor of the transition body. `Cases` mirrors CASE
/// dispatch over whole-row branches; `Chain` mirrors a flattened let-chain
/// whose final expression builds the row.
/// One chain's register file, preallocated per fixpoint (not per row) and
/// indexed by chain nesting depth. Only the written prefix is ever exposed
/// through a frame, so stale cells from earlier rows are never read.
type TRegs = [TCell; MAX_CHAIN];

enum RowProducer {
    /// The fast path: every output cell is a leaf (slot copy, constant,
    /// bind) — one tight loop, no per-cell operand dispatch.
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

impl RowProducer {
    /// Build the output row into `out`. `Ok(true)` means `out` was filled;
    /// `Ok(false)` means a CASE with no ELSE fell through — the body's
    /// value is the scalar NULL, not a record. Whether that is an error
    /// depends on the predicate: the VM only unpacks (and only raises) for
    /// rows the filter keeps, so the caller decides after evaluating it.
    /// `scratch` holds one register file per chain nesting level.
    fn run(
        &self,
        f: &TFrames<'_>,
        b: &TierBound<'_>,
        s: &mut TierRowStats,
        out: &mut [TCell],
        scratch: &mut [TRegs],
    ) -> std::result::Result<bool, Demote> {
        match self {
            RowProducer::LeafRow(leaves) => {
                for (slot, l) in out.iter_mut().zip(leaves) {
                    *slot = l.eval(f, b)?;
                }
                Ok(true)
            }
            RowProducer::Row(exprs) => {
                for (slot, e) in out.iter_mut().zip(exprs) {
                    *slot = e.eval(f, b, s)?;
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
                    let wv = when.eval_c(f, b, s)?;
                    let fire = match &ov {
                        Some(v) => tcell_eq(v.get(), wv.get())? == Some(true),
                        None => matches!(wv.get(), TCell::Bool(true)),
                    };
                    if fire {
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
                let (regs, rest) = scratch.split_first_mut().ok_or(Demote)?;
                for (i, setter) in setters.iter().enumerate() {
                    // Seed bindings (`Result` exprs) evaluate in the outer
                    // env — the chain frame is NOT pushed for them; each
                    // extend expr sees the row-so-far as depth 0.
                    regs[i] = if i < *first_n {
                        setter.eval(f, b, s)?
                    } else {
                        let cf = TFrames {
                            cur: FrameRef::Typed(&regs[..i]),
                            parent: Some(f),
                        };
                        setter.eval(&cf, b, s)?
                    };
                }
                let cf = TFrames {
                    cur: FrameRef::Typed(&regs[..setters.len()]),
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

/// Allocate the chain scratch for one fixpoint run of `produce`.
fn chain_scratch(produce: &RowProducer) -> Vec<TRegs> {
    (0..produce.chain_depth())
        .map(|_| std::array::from_fn(|_| TCell::Null))
        .collect()
}

// ---------------------------------------------------------------------------
// Typed primitive semantics (exact mirrors of `Value` / `eval`)

fn t_as_bool(c: &TCell) -> std::result::Result<Option<bool>, Demote> {
    match c {
        TCell::Null => Ok(None),
        TCell::Bool(b) => Ok(Some(*b)),
        _ => Err(Demote),
    }
}

fn and3(l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (l, r) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// Mirror of `Value::sql_cmp` over the typed domain; mixed or unordered
/// pairs (which the VM reports as comparison errors) demote.
fn tcell_cmp(a: &TCell, b: &TCell) -> std::result::Result<Option<std::cmp::Ordering>, Demote> {
    match (a, b) {
        (TCell::Int(x), TCell::Int(y)) => Ok(Some(x.cmp(y))),
        (TCell::Null, _) | (_, TCell::Null) => Ok(None),
        (TCell::Bool(x), TCell::Bool(y)) => Ok(Some(x.cmp(y))),
        (TCell::Text(x), TCell::Text(y)) => Ok(Some(x.as_ref().cmp(y.as_ref()))),
        _ => Err(Demote),
    }
}

fn tcell_eq(a: &TCell, b: &TCell) -> std::result::Result<Option<bool>, Demote> {
    Ok(tcell_cmp(a, b)?.map(|o| o == std::cmp::Ordering::Equal))
}

fn push_plain(out: &mut String, c: &TCell) {
    use std::fmt::Write;
    match c {
        TCell::Null => {}
        TCell::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        TCell::Int(i) => {
            let _ = write!(out, "{i}");
        }
        TCell::Text(t) => out.push_str(t),
    }
}

/// The binary operators the [`Atom`] walk evaluates without a boxed
/// closure (when the operand tree is shallow enough). `Concat` allocates,
/// and `And`/`Or` must short-circuit lazily, so they stay in the closure
/// compiler.
fn prim_of(op: &BinOp) -> Option<Prim> {
    Some(match op {
        BinOp::Add => Prim::Arith(ArithOp::Add),
        BinOp::Sub => Prim::Arith(ArithOp::Sub),
        BinOp::Mul => Prim::Arith(ArithOp::Mul),
        // `checked_div(x, 0)` is `None`, so the zero-divisor error lands on
        // the same Demote path as overflow — the VM re-raises it exactly.
        BinOp::Div => Prim::Arith(ArithOp::Div),
        BinOp::Mod => Prim::Arith(ArithOp::Mod),
        BinOp::Eq => Prim::Cmp(CmpOp::Eq),
        BinOp::NotEq => Prim::Cmp(CmpOp::Ne),
        BinOp::Lt => Prim::Cmp(CmpOp::Lt),
        BinOp::LtEq => Prim::Cmp(CmpOp::Le),
        BinOp::Gt => Prim::Cmp(CmpOp::Gt),
        BinOp::GtEq => Prim::Cmp(CmpOp::Ge),
        BinOp::And | BinOp::Or | BinOp::Concat => return None,
    })
}

fn arith(l: Atom, r: Atom, op: ArithOp) -> TExpr {
    texpr(move |f, b, s| {
        let lv = l.eval_c(f, b, s)?;
        let rv = r.eval_c(f, b, s)?;
        Prim::Arith(op).apply(lv.get(), rv.get())
    })
}

// ---------------------------------------------------------------------------
// Compilation

/// Compile-time frame model, innermost first. `Typed(w)` is a mono row
/// with `w` visible cells; `Raw` is a probed base-table row.
#[derive(Clone, Copy)]
enum CFrame {
    Typed(usize),
    Raw,
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

    /// Compile a leaf operand, or `None` if `e` is not a leaf (or is a
    /// leaf the typed domain cannot carry — a float constant, an
    /// out-of-width slot; those also fail in `scalar`, so falling through
    /// to it changes nothing). Bounds are checked here, at compile time.
    fn leaf(&mut self, e: &ExprIr, frames: &[CFrame]) -> Option<Leaf> {
        Some(match e {
            ExprIr::Const(v) => Leaf::Const(tcell_of(v)?),
            ExprIr::Slot { depth, index } if *depth < frames.len() => {
                if let CFrame::Typed(w) = frames[*depth] {
                    if *index >= w {
                        return None;
                    }
                }
                if *depth == 0 {
                    Leaf::Slot0(*index)
                } else {
                    Leaf::SlotN {
                        depth: *depth,
                        index: *index,
                    }
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

    /// Compile a depth-≤1 operand: a leaf, or one primitive over leaves.
    fn node(&mut self, e: &ExprIr, frames: &[CFrame]) -> Option<Node> {
        if let Some(l) = self.leaf(e, frames) {
            return Some(Node::Leaf(l));
        }
        if let ExprIr::Binary { op, left, right } = e {
            if let Some(op) = prim_of(op) {
                if let Some(l) = self.leaf(left, frames) {
                    if let Some(r) = self.leaf(right, frames) {
                        return Some(Node::Prim { op, l, r });
                    }
                }
            }
        }
        None
    }

    /// Compile an operand position. Trees of depth ≤ 2 built from leaves,
    /// arithmetic and comparisons become inline [`Atom`] arms (no boxed
    /// call); anything deeper falls back to the closure compiler wrapped
    /// in [`Atom::Expr`], whose operands are again atoms.
    fn atom(&mut self, e: &ExprIr, frames: &[CFrame]) -> Option<Atom> {
        if let Some(n) = self.node(e, frames) {
            return Some(Atom::Node(n));
        }
        if let ExprIr::Binary { op, left, right } = e {
            if let Some(op) = prim_of(op) {
                if let Some(l) = self.node(left, frames) {
                    if let Some(r) = self.node(right, frames) {
                        return Some(Atom::Prim2 { op, l, r });
                    }
                }
            }
        }
        Some(Atom::Expr(self.scalar(e, frames)?))
    }

    /// Compile a scalar expression, or `None` when the shape is outside the
    /// tier grammar (the transition then simply never promotes).
    fn scalar(&mut self, e: &ExprIr, frames: &[CFrame]) -> Option<TExpr> {
        Some(match e {
            ExprIr::Const(v) => {
                let c = tcell_of(v)?;
                texpr(move |_, _, _| Ok(c.clone()))
            }
            ExprIr::Slot { depth, index } => {
                let (depth, index) = (*depth, *index);
                if depth < frames.len() {
                    if let CFrame::Typed(w) = frames[depth] {
                        if index >= w {
                            return None;
                        }
                    }
                    texpr(move |f, _, _| match f.at_depth(depth)? {
                        FrameRef::Typed(cells) => cells.get(index).cloned().ok_or(Demote),
                        FrameRef::Raw(row) => tcell_of(row.get(index).ok_or(Demote)?).ok_or(Demote),
                    })
                } else {
                    let bi = self.bind(BindSpec::Outer {
                        depth: depth - frames.len(),
                        index,
                    });
                    texpr(move |_, b, _| Ok(b.binds[bi].clone()))
                }
            }
            ExprIr::Param(i) => {
                let bi = self.bind(BindSpec::Param(*i));
                texpr(move |_, b, _| Ok(b.binds[bi].clone()))
            }
            ExprIr::Neg(x) => {
                let x = self.atom(x, frames)?;
                texpr(move |f, b, s| match x.eval_c(f, b, s)?.get() {
                    TCell::Null => Ok(TCell::Null),
                    TCell::Int(i) => i.checked_neg().map(TCell::Int).ok_or(Demote),
                    _ => Err(Demote),
                })
            }
            ExprIr::Not(x) => {
                let x = self.atom(x, frames)?;
                texpr(move |f, b, s| {
                    Ok(match t_as_bool(x.eval_c(f, b, s)?.get())? {
                        Some(v) => TCell::Bool(!v),
                        None => TCell::Null,
                    })
                })
            }
            ExprIr::IsNull { expr, negated } => {
                let x = self.atom(expr, frames)?;
                let negated = *negated;
                texpr(move |f, b, s| {
                    let is_null = matches!(x.eval_c(f, b, s)?.get(), TCell::Null);
                    Ok(TCell::Bool(is_null != negated))
                })
            }
            ExprIr::Binary { op, left, right } => {
                let l = self.atom(left, frames)?;
                let r = self.atom(right, frames)?;
                match op {
                    BinOp::Add => arith(l, r, ArithOp::Add),
                    BinOp::Sub => arith(l, r, ArithOp::Sub),
                    BinOp::Mul => arith(l, r, ArithOp::Mul),
                    BinOp::Div => arith(l, r, ArithOp::Div),
                    BinOp::Mod => arith(l, r, ArithOp::Mod),
                    BinOp::And => texpr(move |f, b, s| {
                        let lv = t_as_bool(l.eval_c(f, b, s)?.get())?;
                        if lv == Some(false) {
                            return Ok(TCell::Bool(false));
                        }
                        let rv = t_as_bool(r.eval_c(f, b, s)?.get())?;
                        Ok(match and3(lv, rv) {
                            Some(v) => TCell::Bool(v),
                            None => TCell::Null,
                        })
                    }),
                    BinOp::Or => texpr(move |f, b, s| {
                        let lv = t_as_bool(l.eval_c(f, b, s)?.get())?;
                        if lv == Some(true) {
                            return Ok(TCell::Bool(true));
                        }
                        let rv = t_as_bool(r.eval_c(f, b, s)?.get())?;
                        Ok(match (lv, rv) {
                            (_, Some(true)) => TCell::Bool(true),
                            (Some(false), Some(false)) => TCell::Bool(false),
                            _ => TCell::Null,
                        })
                    }),
                    BinOp::Concat => texpr(move |f, b, s| {
                        let lv = l.eval_c(f, b, s)?;
                        let rv = r.eval_c(f, b, s)?;
                        match (lv.get(), rv.get()) {
                            (TCell::Null, _) | (_, TCell::Null) => Ok(TCell::Null),
                            (x, y) => {
                                let mut out = String::new();
                                push_plain(&mut out, x);
                                push_plain(&mut out, y);
                                Ok(TCell::Text(Arc::from(out)))
                            }
                        }
                    }),
                    BinOp::Eq
                    | BinOp::NotEq
                    | BinOp::Lt
                    | BinOp::LtEq
                    | BinOp::Gt
                    | BinOp::GtEq => {
                        let test = match op {
                            BinOp::Eq => CmpOp::Eq,
                            BinOp::NotEq => CmpOp::Ne,
                            BinOp::Lt => CmpOp::Lt,
                            BinOp::LtEq => CmpOp::Le,
                            BinOp::Gt => CmpOp::Gt,
                            BinOp::GtEq => CmpOp::Ge,
                            _ => unreachable!(),
                        };
                        texpr(move |f, b, s| {
                            let lv = l.eval_c(f, b, s)?;
                            let rv = r.eval_c(f, b, s)?;
                            Ok(match tcell_cmp(lv.get(), rv.get())? {
                                Some(o) => TCell::Bool(test.test(o)),
                                None => TCell::Null,
                            })
                        })
                    }
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
                    use std::cmp::Ordering as O;
                    let v = x.eval_c(f, b, s)?;
                    let ge = tcell_cmp(v.get(), lo.eval_c(f, b, s)?.get())?.map(|o| o != O::Less);
                    let le =
                        tcell_cmp(v.get(), hi.eval_c(f, b, s)?.get())?.map(|o| o != O::Greater);
                    Ok(match and3(ge, le) {
                        Some(v) => TCell::Bool(v != negated),
                        None => TCell::Null,
                    })
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
                        let wv = when.eval_c(f, b, s)?;
                        let fire = match &ov {
                            Some(v) => tcell_eq(v.get(), wv.get())? == Some(true),
                            None => matches!(wv.get(), TCell::Bool(true)),
                        };
                        if fire {
                            return then.eval(f, b, s);
                        }
                    }
                    match &els {
                        Some(e) => e.eval(f, b, s),
                        None => Ok(TCell::Null),
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
                        if !matches!(v, TCell::Null) {
                            return Ok(v);
                        }
                    }
                    Ok(TCell::Null)
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
                    let mut any_null = false;
                    for item in &items {
                        match tcell_eq(v.get(), item.eval_c(f, b, s)?.get())? {
                            Some(true) => return Ok(TCell::Bool(!negated)),
                            Some(false) => {}
                            None => any_null = true,
                        }
                    }
                    Ok(if any_null {
                        TCell::Null
                    } else {
                        TCell::Bool(negated)
                    })
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
                    let xv = x.eval_c(f, b, s)?;
                    let pv = p.eval_c(f, b, s)?;
                    match (xv.get(), pv.get()) {
                        (TCell::Null, _) | (_, TCell::Null) => Ok(TCell::Null),
                        (TCell::Text(v), TCell::Text(pat)) => {
                            Ok(TCell::Bool(like_match(v, pat) != negated))
                        }
                        _ => Err(Demote),
                    }
                })
            }
            ExprIr::Cast { expr, ty } => {
                let x = self.atom(expr, frames)?;
                let ty = ty.clone();
                texpr(
                    move |f, b, s| match value_of(x.eval_c(f, b, s)?.get()).cast(&ty) {
                        Ok(v) => tcell_of(&v).ok_or(Demote),
                        Err(_) => Err(Demote),
                    },
                )
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
                        *slot = value_of(c.eval_c(f, b, s)?.get());
                    }
                    // Non-volatile builtins never touch the RNG; a dummy
                    // keeps `eval_scalar`'s exact semantics reachable here.
                    let mut rng = SessionRng::new(1);
                    match eval_scalar(func, &vals[..cs.len()], &mut rng) {
                        Ok(v) => tcell_of(&v).ok_or(Demote),
                        Err(_) => Err(Demote),
                    }
                })
            }
            ExprIr::Subplan(p) => return self.subplan(p, frames),
            // Rows, UDF calls, EXISTS/IN sub-plans, snapshot state and
            // pre-compiled programs: VM only.
            ExprIr::Row(_)
            | ExprIr::UdfCall { .. }
            | ExprIr::Exists { .. }
            | ExprIr::InPlan { .. }
            | ExprIr::Materialize { .. }
            | ExprIr::SnapshotFn { .. }
            | ExprIr::Vm(_) => return None,
        })
    }

    /// A scalar sub-query: either a let-chain (inlined into typed
    /// registers) or an index probe (`Project [Filter] IndexLookup`).
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
                let mut regs: [TCell; MAX_CHAIN] = std::array::from_fn(|_| TCell::Null);
                for (i, setter) in setters.iter().enumerate() {
                    regs[i] = if i < first_n {
                        setter.eval(f, b, s)?
                    } else {
                        let cf = TFrames {
                            cur: FrameRef::Typed(&regs[..i]),
                            parent: Some(f),
                        };
                        setter.eval(&cf, b, s)?
                    };
                }
                let cf = TFrames {
                    cur: FrameRef::Typed(&regs[..setters.len()]),
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
                let mut inner = vec![CFrame::Typed(n)];
                inner.extend_from_slice(frames);
                setters.push(self.atom(e, &inner)?);
                n += 1;
            }
        }
        if n > MAX_CHAIN {
            return None;
        }
        let mut chain_frames = vec![CFrame::Typed(n)];
        chain_frames.extend_from_slice(frames);
        Some((first_n, setters, chain_frames, !chain_flattenable(p)))
    }

    /// `Project [out] ∘ (Filter)? ∘ IndexLookup`: the compiled per-row index
    /// probe (the fsa/parse shape). Mirrors the executor arm exactly: a NULL
    /// key yields NULL without touching the probe counters; more than one
    /// surviving row is a runtime error, so it demotes.
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
        let mut inner = vec![CFrame::Raw];
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
            let k = key_c.eval(f, b, s)?;
            if matches!(k, TCell::Null) {
                return Ok(TCell::Null);
            }
            let probe = &b.probes[pi];
            let kv = value_of(&k);
            let positions = probe.index.lookup(&kv);
            s.index_probes += 1;
            s.rows_scanned += positions.len() as u64;
            let mut hit: Option<TCell> = None;
            for &pos in positions {
                let row: &[Value] = probe.rows.get(pos).ok_or(Demote)?;
                let pf = TFrames {
                    cur: FrameRef::Raw(row),
                    parent: Some(f),
                };
                let keep = match &pred_c {
                    Some(pred) => matches!(pred.eval_c(&pf, b, s)?.get(), TCell::Bool(true)),
                    None => true,
                };
                if keep {
                    if hit.is_some() {
                        // "more than one row returned by a subquery" — a
                        // real error; the VM raises it.
                        return Err(Demote);
                    }
                    hit = Some(out_c.eval(&pf, b, s)?);
                }
            }
            Ok(hit.unwrap_or(TCell::Null))
        }))
    }

    /// Compile the transition body as a whole-row producer.
    fn produce(&mut self, e: &ExprIr, frames: &[CFrame], width: usize) -> Option<RowProducer> {
        match e {
            ExprIr::Row(items) if items.len() == width => {
                let mut cs = Vec::with_capacity(items.len());
                for i in items {
                    cs.push(self.atom(i, frames)?);
                }
                if cs.iter().all(|c| matches!(c, Atom::Node(Node::Leaf(_)))) {
                    let leaves = cs
                        .into_iter()
                        .map(|c| match c {
                            Atom::Node(Node::Leaf(l)) => l,
                            _ => unreachable!("all-leaf checked above"),
                        })
                        .collect();
                    return Some(RowProducer::LeafRow(leaves));
                }
                Some(RowProducer::Row(cs))
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

/// A monomorphized fixpoint transition, attached to
/// [`crate::ir::CtePlan::Recursive`] at prepare time and shared through
/// the plan cache. It holds no execution state: every run binds its own.
pub struct TierProgram {
    width: usize,
    produce: RowProducer,
    pred: Atom,
    pred_slot: Option<usize>,
    binds: Vec<BindSpec>,
    probes: Vec<ProbeTarget>,
}

impl fmt::Debug for TierProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TierProgram")
            .field("width", &self.width)
            .field("pred_slot", &self.pred_slot)
            .field("binds", &self.binds.len())
            .field("probes", &self.probes.len())
            .finish_non_exhaustive()
    }
}

/// Recognize a fused fixpoint transition and compile it for the mono tier.
/// The shape is the one `try_transition` fuses — a single-scan
/// `Extend[1] → Filter → Unpack` over the working table with `src == width`
/// — restricted further to expressions the typed grammar covers.
pub fn recognize(index: usize, recursive: &PlanNode, union_all: bool) -> Option<TierProgram> {
    // UNION dedup hashes whole rows between iterations; keep that in the
    // VM driver.
    if !union_all {
        return None;
    }
    let PlanNode::ProjectUnpack { input, src, width } = recursive else {
        return None;
    };
    let (src, width) = (*src, *width);
    if width < 2 || src != width {
        return None;
    }
    let PlanNode::Filter { input: f_in, pred } = input.as_ref() else {
        return None;
    };
    let PlanNode::Extend { input: e_in, exprs } = f_in.as_ref() else {
        return None;
    };
    let PlanNode::WorkingScan { index: wi } = e_in.as_ref() else {
        return None;
    };
    if *wi != index {
        return None;
    }
    let [body] = exprs.as_slice() else {
        return None;
    };
    if !crate::exec::pred_reads_below(pred, src)
        || crate::exec::expr_uses_working(body, index)
        || crate::exec::expr_uses_working(pred, index)
    {
        return None;
    }
    let mut c = Compiler::default();
    let frames = [CFrame::Typed(src)];
    let produce = c.produce(body, &frames, width)?;
    let pred_c = c.atom(pred, &frames)?;
    let pred_slot = match pred {
        ExprIr::Slot { depth: 0, index } => Some(*index),
        _ => None,
    };
    Some(TierProgram {
        width,
        produce,
        pred: pred_c,
        pred_slot,
        binds: c.binds,
        probes: c.probes,
    })
}

/// Resolve bind-time state: captured outer cells and probe targets. `None`
/// (an unconvertible outer value, a vanished index) leaves the transition
/// in the VM for this statement.
fn bind<'c>(prog: &TierProgram, env: &EvalEnv<'_>, catalog: &'c Catalog) -> Option<TierBound<'c>> {
    let mut binds = Vec::with_capacity(prog.binds.len());
    for spec in &prog.binds {
        let v: Option<TCell> = match spec {
            BindSpec::Param(i) => env.params.get(*i).and_then(tcell_of),
            BindSpec::Outer { depth, index } => env
                .scopes
                .and_then(|s| s.at_depth(*depth).ok())
                .and_then(|row| row.get(*index))
                .and_then(tcell_of),
        };
        binds.push(v?);
    }
    let mut probes = Vec::with_capacity(prog.probes.len());
    for target in &prog.probes {
        let table = catalog.table(&target.table).ok()?;
        let index = table.index_on(target.column)?;
        probes.push(BoundProbe {
            rows: &table.rows,
            index,
        });
    }
    Some(TierBound { binds, probes })
}

// ---------------------------------------------------------------------------
// The mono step

impl FixCell for TCell {
    fn is_true(&self) -> bool {
        matches!(self, TCell::Bool(true))
    }
    fn to_row(row: &[TCell]) -> Row {
        row_of(row)
    }
}

/// A fixpoint running in the mono tier: its program, the captures and
/// probe targets bound for this execution, and the typed working set with
/// its let-chain register scratch. Rows stay typed from fixpoint entry
/// until the working set drains or a row demotes.
pub(crate) struct MonoRows<'p, 'c> {
    prog: &'p TierProgram,
    bound: TierBound<'c>,
    pub(crate) bufs: Rotation<TCell>,
    scratch: Vec<TRegs>,
}

impl<'p, 'c> MonoRows<'p, 'c> {
    /// Promote a fixpoint at entry: bind the program's captures and take
    /// over the VM's base working set. `None` (a capture or base cell
    /// outside the typed domain, a vanished index) leaves the fixpoint in
    /// the VM for the statement.
    pub(crate) fn enter(
        prog: &'p TierProgram,
        env: &EvalEnv<'_>,
        catalog: &'c Catalog,
        vm: &mut Rotation<Value>,
        stats: &mut RuntimeStats,
    ) -> Option<Self> {
        let bound = bind(prog, env, catalog)?;
        let cur = to_typed(&vm.cur, prog.width)?;
        vm.cur.clear();
        stats.tier.tier_promotions += 1;
        Some(MonoRows {
            prog,
            bound,
            bufs: Rotation::new(cur),
            scratch: chain_scratch(&prog.produce),
        })
    }

    /// Hand the working set and the last consumed iteration back to the
    /// VM: on demotion, or once the fixpoint drains.
    pub(crate) fn leave(self, vm: &mut Rotation<Value>) {
        vm.cur = self.bufs.cur.iter().map(|r| row_of(r)).collect();
        vm.prev = self.bufs.prev.iter().map(|r| row_of(r)).collect();
    }

    /// Run one iteration in the typed tier under the retention policy and
    /// return the rows the transition kept. `Err(Demote)` leaves the working
    /// set as it was, for the VM to re-run the iteration.
    pub(crate) fn step(
        &mut self,
        retention: &mut Retention,
        stats: &mut RuntimeStats,
    ) -> std::result::Result<u64, Demote> {
        let mut local = TierRowStats::default();
        let (prog, bound, scratch) = (self.prog, &self.bound, &mut self.scratch);
        let kept = retention.step_rows(&mut self.bufs, prog.pred_slot, |row, pool| {
            mono_row(prog, bound, row, pool, &mut local, scratch)
        })?;
        stats.subplan_evals += local.subplan_evals;
        stats.index_probes += local.index_probes;
        stats.rows_scanned += local.rows_scanned;
        Ok(kept)
    }
}

/// Run one input row: body first (matching Extend-then-Filter order), then
/// the keep decision on the *input* row. `Ok(None)` = dropped.
fn mono_row(
    prog: &TierProgram,
    bound: &TierBound<'_>,
    trow: &[TCell],
    pool: &mut Vec<TRow>,
    local: &mut TierRowStats,
    scratch: &mut [TRegs],
) -> std::result::Result<Option<TRow>, Demote> {
    let frames = TFrames {
        cur: FrameRef::Typed(trow),
        parent: None,
    };
    // Pooled rows always carry `width` cells (they were produced by this
    // function or width-checked by `to_typed`), and a filled row writes
    // every slot, so recycling needs no re-null.
    let mut out = pool.pop().unwrap_or_else(|| vec![TCell::Null; prog.width]);
    debug_assert_eq!(out.len(), prog.width);
    let filled = match prog.produce.run(&frames, bound, local, &mut out, scratch) {
        Ok(filled) => filled,
        Err(e) => {
            pool.push(out);
            return Err(e);
        }
    };
    let keep = match prog.pred_slot {
        Some(i) => matches!(trow[i], TCell::Bool(true)),
        None => matches!(
            prog.pred.eval_c(&frames, bound, local)?.get(),
            TCell::Bool(true)
        ),
    };
    if !keep {
        // Filter drops the row before the unpack — a CASE fallthrough on a
        // dropped row is not an error, exactly as in the VM.
        pool.push(out);
        return Ok(None);
    }
    if !filled {
        // Kept but the body fell through to scalar NULL: the VM raises the
        // row_field unpack error here, so re-run the iteration there.
        pool.push(out);
        return Err(Demote);
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transition_plan(body: ExprIr, pred: ExprIr) -> PlanNode {
        PlanNode::ProjectUnpack {
            input: Box::new(PlanNode::Filter {
                input: Box::new(PlanNode::Extend {
                    input: Box::new(PlanNode::WorkingScan { index: 0 }),
                    exprs: vec![body],
                }),
                pred,
            }),
            src: 2,
            width: 2,
        }
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

    fn recognized() -> TierProgram {
        recognize(0, &transition_plan(counter_body(), ExprIr::slot(1)), true)
            .expect("counter transition is in the tier grammar")
    }

    /// How a mono run ended.
    enum MonoOutcome {
        /// The working set drained.
        Finished,
        /// A row demoted; the VM holds the restored working set.
        Demoted,
    }

    /// Drive the mono step under `WITH ITERATE` the way the fixpoint
    /// driver does (one step per iteration, kept rows counted as
    /// `tier_mono_rows`) until the working set drains or a row demotes.
    /// Returns the outcome plus the VM's working set and last iteration
    /// after the hand-back.
    fn drive_iterate(
        prog: &TierProgram,
        working: Vec<Row>,
        iters: &mut u64,
        stats: &mut RuntimeStats,
    ) -> (MonoOutcome, Vec<Row>, Vec<Row>) {
        let catalog = Catalog::new();
        let mut vm = Rotation::new(working);
        let mut retention = Retention::IterateOnly;
        let Some(mut mono) = MonoRows::enter(prog, &EvalEnv::EMPTY, &catalog, &mut vm, stats)
        else {
            return (MonoOutcome::Demoted, vm.cur, vm.prev);
        };
        let outcome = loop {
            if mono.bufs.cur.is_empty() {
                break MonoOutcome::Finished;
            }
            let Ok(kept) = mono.step(&mut retention, stats) else {
                break MonoOutcome::Demoted;
            };
            retention.keep(&mut mono.bufs);
            *iters += 1;
            stats.tier.tier_mono_rows += kept;
        };
        mono.leave(&mut vm);
        (outcome, vm.cur, vm.prev)
    }

    #[test]
    fn recognizes_only_the_fused_transition_shape() {
        let plan = transition_plan(counter_body(), ExprIr::slot(1));
        assert!(recognize(0, &plan, true).is_some());
        // UNION dedup stays in the VM.
        assert!(recognize(0, &plan, false).is_none());
        // Wrong working-table index.
        assert!(recognize(1, &plan, true).is_none());
        // A volatile call in the body keeps the whole transition in the VM.
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
        assert!(recognize(0, &transition_plan(raise, ExprIr::slot(1)), true).is_none());
        // A float constant is outside the typed cell domain.
        let floaty = ExprIr::Row(vec![
            ExprIr::Const(Value::Float(1.5)),
            ExprIr::Const(Value::Bool(false)),
        ]);
        assert!(recognize(0, &transition_plan(floaty, ExprIr::slot(1)), true).is_none());
    }

    #[test]
    fn mono_iterate_runs_the_counter_to_its_fixpoint() {
        let prog = recognized();
        let (mut iters, mut stats) = (0u64, RuntimeStats::default());
        let (outcome, working, prev) = drive_iterate(
            &prog,
            vec![vec![Value::Int(0), Value::Bool(true)]],
            &mut iters,
            &mut stats,
        );
        assert!(matches!(outcome, MonoOutcome::Finished));
        // 0→1→…→10 keeps the flag true; row [11, false] fails the filter
        // next pass, so the last surviving iteration holds it.
        assert_eq!(prev, vec![vec![Value::Int(11), Value::Bool(false)]]);
        assert!(working.is_empty());
        assert_eq!(iters, 12);
        // The transition kept 11 rows; the row the filter drops on the
        // last iteration is not counted, exactly like the VM's
        // `fused_transition_rows`.
        assert_eq!(stats.tier.tier_mono_rows, 11);
    }

    #[test]
    fn unconvertible_rows_demote_without_consuming_the_working_set() {
        let prog = recognized();
        let snapshot: Vec<Row> = vec![vec![Value::Float(0.5), Value::Bool(true)]];
        let (mut iters, mut stats) = (0u64, RuntimeStats::default());
        let (outcome, working, _) = drive_iterate(&prog, snapshot.clone(), &mut iters, &mut stats);
        assert!(matches!(outcome, MonoOutcome::Demoted));
        assert_eq!(working, snapshot);
        assert_eq!(iters, 0, "no iteration committed");
        assert_eq!(stats.tier.tier_mono_rows, 0);
    }

    #[test]
    fn integer_overflow_demotes_and_restores_the_iteration_input() {
        // ROW(c + max_int, true): overflows on the second iteration.
        let body = ExprIr::Row(vec![
            ExprIr::Binary {
                op: BinOp::Add,
                left: Box::new(ExprIr::slot(0)),
                right: Box::new(ExprIr::Const(Value::Int(i64::MAX))),
            },
            ExprIr::Const(Value::Bool(true)),
        ]);
        let prog = recognize(0, &transition_plan(body, ExprIr::slot(1)), true).unwrap();
        let (mut iters, mut stats) = (0u64, RuntimeStats::default());
        let (outcome, working, _) = drive_iterate(
            &prog,
            vec![vec![Value::Int(1), Value::Bool(true)]],
            &mut iters,
            &mut stats,
        );
        assert!(matches!(outcome, MonoOutcome::Demoted));
        // Iteration 1 committed ([1+MAX] overflows? No: 1 + MAX overflows
        // immediately), so nothing committed and the input row survives.
        assert_eq!(working, vec![vec![Value::Int(1), Value::Bool(true)]]);
        assert_eq!(stats.tier.tier_mono_rows, 0);
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
        let prog = recognize(0, &transition_plan(counter_body(), pred), true).unwrap();
        let (mut iters, mut stats) = (0u64, RuntimeStats::default());
        let (outcome, _, prev) = drive_iterate(
            &prog,
            vec![vec![Value::Int(0), Value::Null]],
            &mut iters,
            &mut stats,
        );
        assert!(matches!(outcome, MonoOutcome::Finished));
        // The single row is dropped by the NULL predicate on iteration 1
        // (AND with NULL is NULL, not an error), so the last *consumed*
        // working set — what `WITH ITERATE` returns — is the input row.
        assert_eq!(prev, vec![vec![Value::Int(0), Value::Null]]);
        assert_eq!(iters, 1);
    }

    /// Run `WITH RECURSIVE r AS (base UNION ALL transition) SELECT * FROM
    /// r` through the real fixpoint driver, planned the way `prepare` plans
    /// it, and return the rows and the counters it added.
    fn run_fixpoint(
        body: ExprIr,
        base: Vec<Value>,
        params: &[Value],
        mode: crate::config::TierMode,
    ) -> (Vec<Row>, RuntimeStats) {
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
                tier: None,
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
        let rows = crate::exec::exec(&plan, &env, &mut session.runtime()).unwrap();
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
        assert_eq!(got, want);
        assert_eq!(mono.recursive_iterations, vm.recursive_iterations);
        assert_eq!(mono.tier.tier_promotions, 1);
        assert_eq!(
            (mono.tier.tier_mono_rows, mono.fused_transition_rows),
            (11, 0)
        );

        // A failed bind pins the VM: a float parameter has no typed cell.
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
        let (rows, stats) = run_fixpoint(add_param.clone(), start(), &float, TierMode::Auto);
        assert_eq!(rows.len(), 6);
        assert_eq!(stats.tier.tier_promotions, 0);
        assert_eq!(
            (stats.tier.tier_mono_rows, stats.fused_transition_rows),
            (0, 5)
        );
        // The same program promotes once its capture binds.
        let (_, stats) = run_fixpoint(add_param, start(), &[Value::Int(2)], TierMode::Auto);
        assert_eq!(stats.tier.tier_promotions, 1);

        // A demotion pins the VM. ROW(c + CAST(CASE WHEN c = 3 THEN
        // sqrt(c + 1) ELSE 1 END AS int), c < 10) meets its one float on
        // iteration 4, which the VM re-runs; every later row is typed
        // again, yet the fixpoint never re-promotes.
        let detour = ExprIr::Row(vec![
            ExprIr::Binary {
                op: BinOp::Add,
                left: Box::new(ExprIr::slot(0)),
                right: Box::new(ExprIr::Cast {
                    expr: Box::new(ExprIr::Case {
                        operand: None,
                        branches: vec![(
                            ExprIr::Binary {
                                op: BinOp::Eq,
                                left: Box::new(ExprIr::slot(0)),
                                right: Box::new(ExprIr::Const(Value::Int(3))),
                            },
                            ExprIr::Scalar {
                                func: crate::ir::ScalarFn::Sqrt,
                                args: vec![ExprIr::Binary {
                                    op: BinOp::Add,
                                    left: Box::new(ExprIr::slot(0)),
                                    right: Box::new(ExprIr::Const(Value::Int(1))),
                                }],
                            },
                        )],
                        else_: Some(Box::new(ExprIr::Const(Value::Int(1)))),
                    }),
                    ty: plaway_common::Type::Int,
                }),
            },
            ExprIr::Binary {
                op: BinOp::Lt,
                left: Box::new(ExprIr::slot(0)),
                right: Box::new(ExprIr::Const(Value::Int(10))),
            },
        ]);
        let (want, vm) = run_fixpoint(detour.clone(), start(), &[], TierMode::ForceOff);
        let (got, stats) = run_fixpoint(detour, start(), &[], TierMode::Auto);
        assert_eq!(got, want);
        // 0 → 1 → 2 → 3 in mono; 3 → 5 → … → 11 in the VM.
        assert_eq!(stats.tier.tier_promotions, 1);
        assert_eq!(stats.tier.tier_mono_rows, 3);
        assert_eq!(stats.fused_transition_rows, vm.fused_transition_rows - 3);
        assert_eq!(stats.recursive_iterations, vm.recursive_iterations);
    }
}
