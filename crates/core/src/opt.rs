//! SSA-level simplifications.
//!
//! The paper (§2): "The SSA invariant facilitates a wide range of code
//! simplifications, among these the tracking of redundant code, constant
//! propagation, or strength reduction." We implement the passes that pay
//! off for the generated SQL:
//!
//! * constant folding (with SQL three-valued semantics; exprs that would
//!   error at runtime are left untouched),
//! * constant / copy propagation,
//! * trivial-φ removal,
//! * dead code elimination (side-effect aware: embedded queries and
//!   `random()` survive),
//! * constant branch simplification, unreachable-block removal,
//! * straight-line block merging and empty-block jump threading,
//! * strength reduction (`x * 2^k` → shifts are pointless in SQL, but
//!   `x * 1`, `x + 0`, `x::τ` of τ-typed literals and friends are folded).

use std::collections::{HashMap, HashSet};

use plaway_common::Value;
use plaway_engine::Catalog;
use plaway_sql::ast::{BinOp, Expr, UnOp};

use crate::cfg::Term;
use crate::ssa::{PhiArg, SsaProgram};
use crate::subst::subst_expr;

/// Statistics of one optimization run (used in tests and EXPLAIN output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Constant sub-expressions replaced by their value.
    pub constants_folded: usize,
    /// Single-definition copies propagated to their uses.
    pub copies_propagated: usize,
    /// Trivial φ nodes (one distinct argument) removed.
    pub phis_removed: usize,
    /// Dead pure assignments removed.
    pub stmts_removed: usize,
    /// Constant branches rewritten to jumps.
    pub branches_simplified: usize,
    /// Unreachable blocks dropped.
    pub blocks_removed: usize,
    /// Straight-line blocks merged / empty jumps threaded.
    pub blocks_merged: usize,
}

/// Run all passes to a fixpoint (bounded).
pub fn optimize(prog: &mut SsaProgram, catalog: &Catalog) -> OptStats {
    let mut stats = OptStats::default();
    for _ in 0..16 {
        let mut changed = false;
        changed |= fold_constants(prog, &mut stats);
        changed |= propagate_defs(prog, catalog, &mut stats);
        changed |= remove_trivial_phis(prog, catalog, &mut stats);
        changed |= simplify_branches(prog, &mut stats);
        changed |= remove_unreachable(prog, &mut stats);
        changed |= merge_straightline(prog, &mut stats);
        changed |= thread_jumps(prog, &mut stats);
        changed |= eliminate_dead_code(prog, &mut stats);
        if !changed {
            break;
        }
    }
    stats
}

// ---------------------------------------------------------------------------
// Purity & constant evaluation

/// Syntactic purity: safe to remove if unused / safe to duplicate.
pub fn is_pure_expr(e: &Expr) -> bool {
    const PURE_FUNCS: &[&str] = &[
        "abs",
        "sign",
        "floor",
        "ceil",
        "ceiling",
        "round",
        "trunc",
        "sqrt",
        "power",
        "pow",
        "exp",
        "ln",
        "mod",
        "length",
        "char_length",
        "lower",
        "upper",
        "substr",
        "substring",
        "concat",
        "replace",
        "trim",
        "btrim",
        "ltrim",
        "rtrim",
        "strpos",
        "left",
        "right",
        "repeat",
        "reverse",
        "chr",
        "ascii",
        "nullif",
        "greatest",
        "least",
        "coalesce",
        "row_field",
    ];
    let mut pure = true;
    e.walk(&mut |sub| match sub {
        Expr::Subquery(_) | Expr::Exists(_) | Expr::InSubquery { .. } => pure = false,
        Expr::Func { name, .. } if !PURE_FUNCS.contains(&name.as_str()) => pure = false,
        Expr::WindowFunc { .. } | Expr::CountStar => pure = false,
        _ => {}
    });
    pure
}

/// Evaluate a constant expression, if it is one and evaluation cannot fail.
/// Returns `None` for anything non-constant or error-prone (division by
/// zero must remain a runtime error, not a compile-time one).
pub(crate) fn const_value(e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Unary { op, expr } => {
            let v = const_value(expr)?;
            match op {
                UnOp::Neg => v.neg().ok(),
                UnOp::Not => match v.as_bool().ok()? {
                    Some(b) => Some(Value::Bool(!b)),
                    None => Some(Value::Null),
                },
            }
        }
        Expr::Binary { op, left, right } => {
            // AND/OR shortcut with one constant side even if the other is
            // dynamic is handled in `fold_expr`; here both must be const.
            let l = const_value(left)?;
            let r = const_value(right)?;
            match op {
                BinOp::Add => l.add(&r).ok(),
                BinOp::Sub => l.sub(&r).ok(),
                BinOp::Mul => l.mul(&r).ok(),
                BinOp::Div => l.div(&r).ok(),
                BinOp::Mod => l.rem(&r).ok(),
                BinOp::Concat => l.concat(&r).ok(),
                BinOp::And => match (l.as_bool().ok()?, r.as_bool().ok()?) {
                    (Some(false), _) | (_, Some(false)) => Some(Value::Bool(false)),
                    (Some(true), Some(true)) => Some(Value::Bool(true)),
                    _ => Some(Value::Null),
                },
                BinOp::Or => match (l.as_bool().ok()?, r.as_bool().ok()?) {
                    (Some(true), _) | (_, Some(true)) => Some(Value::Bool(true)),
                    (Some(false), Some(false)) => Some(Value::Bool(false)),
                    _ => Some(Value::Null),
                },
                _ => {
                    let ord = l.sql_cmp(&r).ok()?;
                    Some(match ord {
                        None => Value::Null,
                        Some(o) => {
                            use std::cmp::Ordering::*;
                            Value::Bool(match op {
                                BinOp::Eq => o == Equal,
                                BinOp::NotEq => o != Equal,
                                BinOp::Lt => o == Less,
                                BinOp::LtEq => o != Greater,
                                BinOp::Gt => o == Greater,
                                BinOp::GtEq => o != Less,
                                _ => unreachable!(),
                            })
                        }
                    })
                }
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = const_value(expr)?;
            Some(Value::Bool(v.is_null() != *negated))
        }
        Expr::Cast { expr, ty } => {
            let v = const_value(expr)?;
            let t = plaway_common::Type::from_sql_name(ty).ok()?;
            // NULL casts are kept so τ information survives to the CTE
            // template (CAST(NULL AS τ) in Figure 8).
            if v.is_null() {
                return None;
            }
            v.cast(&t).ok()
        }
        _ => None,
    }
}

/// Bottom-up folding with algebraic identities, in place. Subqueries are
/// opaque here and left untouched.
fn fold_expr(e: &mut Expr, n_folded: &mut usize) {
    e.rewrite(&mut |e| {
        if matches!(e, Expr::Literal(_)) {
            return;
        }
        if let Some(v) = const_value(e) {
            *n_folded += 1;
            *e = Expr::Literal(v);
            return;
        }
        match e {
            // x + 0, 0 + x, x - 0, x * 1, 1 * x, x / 1 (pure x only —
            // dropping an impure duplicate would lose effects).
            Expr::Binary { op, left, right } => {
                let lit = |e: &Expr| match e {
                    Expr::Literal(v) => Some(v.clone()),
                    _ => None,
                };
                // Which operand the whole expression reduces to, if any.
                let keep_left = match (*op, lit(left), lit(right)) {
                    (BinOp::Add, Some(Value::Int(0)), _) if is_pure_expr(right) => false,
                    (BinOp::Add, _, Some(Value::Int(0))) | (BinOp::Sub, _, Some(Value::Int(0)))
                        if is_pure_expr(left) =>
                    {
                        true
                    }
                    (BinOp::Mul, Some(Value::Int(1)), _) if is_pure_expr(right) => false,
                    (BinOp::Mul, _, Some(Value::Int(1))) | (BinOp::Div, _, Some(Value::Int(1)))
                        if is_pure_expr(left) =>
                    {
                        true
                    }
                    // true AND x -> x ; false OR x -> x (x boolean).
                    (BinOp::And, Some(Value::Bool(true)), _) => false,
                    (BinOp::And, _, Some(Value::Bool(true))) => true,
                    (BinOp::Or, Some(Value::Bool(false)), _) => false,
                    (BinOp::Or, _, Some(Value::Bool(false))) => true,
                    _ => return,
                };
                *n_folded += 1;
                *e = take(if keep_left { left } else { right });
            }
            // CASE with a constant guard in first position.
            Expr::Case {
                operand: None,
                branches,
                else_,
            } if matches!(branches.first(), Some((Expr::Literal(_), _))) => {
                let (first_cond, first_then) = branches.remove(0);
                let Expr::Literal(v) = first_cond else {
                    unreachable!()
                };
                *n_folded += 1;
                if v.is_true() {
                    *e = first_then;
                } else if branches.is_empty() {
                    *e = else_.take().map_or(Expr::null(), |b| *b);
                }
            }
            _ => {}
        }
    })
}

/// Move an expression out, leaving a NULL literal (which allocates
/// nothing) in its place.
fn take(e: &mut Expr) -> Expr {
    std::mem::replace(e, Expr::null())
}

/// Apply `f` to every expression of the program: statements, φ
/// arguments and terminators.
fn for_each_expr(prog: &mut SsaProgram, mut f: impl FnMut(&mut Expr)) {
    for b in &mut prog.blocks {
        for (_, e) in &mut b.stmts {
            f(e);
        }
        for phi in &mut b.phis {
            for (_, arg) in &mut phi.args {
                f(&mut arg.0);
            }
        }
        match &mut b.term {
            Term::Branch { cond, .. } => f(cond),
            Term::Return(e) => f(e),
            _ => {}
        }
    }
}

fn fold_constants(prog: &mut SsaProgram, stats: &mut OptStats) -> bool {
    let mut n = 0;
    for_each_expr(prog, |e| fold_expr(e, &mut n));
    stats.constants_folded += n;
    n > 0
}

// ---------------------------------------------------------------------------
// Constant / copy propagation

/// Propagate defs of the form `v := literal` and `v := w`.
fn propagate_defs(prog: &mut SsaProgram, catalog: &Catalog, stats: &mut OptStats) -> bool {
    let mut map = HashMap::new();
    for b in &prog.blocks {
        for (v, e) in &b.stmts {
            match e {
                Expr::Literal(_) => {
                    map.insert(v.clone(), e.clone());
                }
                Expr::Column {
                    qualifier: None, ..
                } => {
                    map.insert(v.clone(), e.clone());
                }
                _ => {}
            }
        }
    }
    if map.is_empty() {
        return false;
    }
    resolve_chains(&mut map);
    let n = map.len();
    apply_subst(prog, &map, catalog);
    // Drop the now-redundant copy statements.
    for b in &mut prog.blocks {
        b.stmts.retain(|(v, _)| !map.contains_key(v));
    }
    stats.copies_propagated += n;
    true
}

/// Resolve substitution chains (`v -> w`, `w -> 3`  =>  `v -> 3`), bounded.
/// Both propagation and trivial-φ removal substitute in a single pass, so a
/// map with internal references would otherwise leave dangling names. Each
/// round replaces every target that names a key by that key's target as
/// of the round's start; only those entries are copied.
fn resolve_chains(map: &mut HashMap<String, Expr>) {
    for _ in 0..map.len() {
        let updates: Vec<(String, Expr)> = map
            .iter()
            .filter_map(|(v, target)| match target {
                Expr::Column {
                    qualifier: None,
                    name,
                } => map.get(name).map(|next| (v.clone(), next.clone())),
                _ => None,
            })
            .collect();
        if updates.is_empty() {
            break;
        }
        map.extend(updates);
    }
}

fn apply_subst(prog: &mut SsaProgram, map: &HashMap<String, Expr>, catalog: &Catalog) {
    let lookup = |name: &str| map.get(name).cloned();
    for_each_expr(prog, |e| subst_expr(e, &lookup, catalog));
}

// ---------------------------------------------------------------------------
// Trivial φ removal

fn remove_trivial_phis(prog: &mut SsaProgram, catalog: &Catalog, stats: &mut OptStats) -> bool {
    let mut map = HashMap::new();
    for b in &mut prog.blocks {
        b.phis.retain(|phi| {
            let is_self_ref =
                |a: &Expr| matches!(a, Expr::Column { qualifier: None, name } if *name == phi.target);
            let mut distinct: Vec<&Expr> = Vec::new();
            for (_, PhiArg(a)) in &phi.args {
                if !is_self_ref(a) && !distinct.contains(&a) {
                    distinct.push(a);
                }
            }
            match distinct.len() {
                0 => {
                    // Only self-references: the value is undefined -> NULL.
                    map.insert(phi.target.clone(), Expr::null());
                    false
                }
                1 if is_pure_expr(distinct[0]) => {
                    map.insert(phi.target.clone(), distinct[0].clone());
                    false
                }
                _ => true,
            }
        });
    }
    if map.is_empty() {
        return false;
    }
    resolve_chains(&mut map);
    stats.phis_removed += map.len();
    apply_subst(prog, &map, catalog);
    true
}

// ---------------------------------------------------------------------------
// Dead code elimination

fn eliminate_dead_code(prog: &mut SsaProgram, stats: &mut OptStats) -> bool {
    let mut removed_any = false;
    loop {
        let mut used: HashSet<String> = HashSet::new();
        let mut collect = |e: &Expr| {
            crate::ssa::for_each_free_name(e, &mut |name| {
                if !used.contains(name) {
                    used.insert(name.to_owned());
                }
            })
        };
        for b in &prog.blocks {
            for (_, e) in &b.stmts {
                collect(e);
            }
            for phi in &b.phis {
                for (_, arg) in &phi.args {
                    collect(&arg.0);
                }
            }
            match &b.term {
                Term::Branch { cond, .. } => collect(cond),
                Term::Return(e) => collect(e),
                _ => {}
            }
        }
        let mut removed = 0;
        for b in &mut prog.blocks {
            b.stmts.retain(|(v, e)| {
                if !used.contains(v) && is_pure_expr(e) {
                    removed += 1;
                    false
                } else {
                    true
                }
            });
            b.phis.retain(|phi| {
                if !used.contains(&phi.target) {
                    removed += 1;
                    false
                } else {
                    true
                }
            });
        }
        if removed == 0 {
            break;
        }
        stats.stmts_removed += removed;
        removed_any = true;
    }
    removed_any
}

// ---------------------------------------------------------------------------
// Control-flow cleanup

fn simplify_branches(prog: &mut SsaProgram, stats: &mut OptStats) -> bool {
    let mut changed = false;
    for b in 0..prog.blocks.len() {
        if let Term::Branch { cond, then_, else_ } = &prog.blocks[b].term {
            let (taken, dropped) = match cond {
                Expr::Literal(v) if v.is_true() => (*then_, *else_),
                Expr::Literal(Value::Bool(false)) | Expr::Literal(Value::Null) => (*else_, *then_),
                _ => continue,
            };
            prog.blocks[b].term = Term::Jump(taken);
            stats.branches_simplified += 1;
            changed = true;
            if dropped != taken {
                // Remove the dead edge's φ contributions.
                for phi in &mut prog.blocks[dropped].phis {
                    phi.args.retain(|(p, _)| *p != b);
                }
            }
        }
    }
    changed
}

fn remove_unreachable(prog: &mut SsaProgram, stats: &mut OptStats) -> bool {
    let n = prog.blocks.len();
    let mut reachable = vec![false; n];
    let mut stack = vec![prog.entry];
    reachable[prog.entry] = true;
    while let Some(b) = stack.pop() {
        for s in prog.blocks[b].term.successors() {
            if !reachable[s] {
                reachable[s] = true;
                stack.push(s);
            }
        }
    }
    if reachable.iter().all(|&r| r) {
        return false;
    }
    let mut remap = vec![usize::MAX; n];
    let mut blocks = Vec::new();
    for (i, b) in std::mem::take(&mut prog.blocks).into_iter().enumerate() {
        if reachable[i] {
            remap[i] = blocks.len();
            blocks.push(b);
        } else {
            stats.blocks_removed += 1;
        }
    }
    for b in &mut blocks {
        b.term.map_targets(|t| remap[t]);
        for phi in &mut b.phis {
            phi.args.retain(|(p, _)| reachable[*p]);
            for (p, _) in &mut phi.args {
                *p = remap[*p];
            }
        }
    }
    prog.entry = remap[prog.entry];
    prog.blocks = blocks;
    true
}

/// Merge `b -> s` when `b` jumps to `s`, `s` has exactly one predecessor and
/// no φs.
fn merge_straightline(prog: &mut SsaProgram, stats: &mut OptStats) -> bool {
    let mut changed = false;
    loop {
        let preds = prog.predecessors();
        let mut merged = false;
        for b in 0..prog.blocks.len() {
            let Term::Jump(s) = prog.blocks[b].term else {
                continue;
            };
            if s == b || preds[s].len() != 1 || !prog.blocks[s].phis.is_empty() {
                continue;
            }
            // Move s's statements into b; adopt s's terminator.
            let s_block = std::mem::take(&mut prog.blocks[s]);
            prog.blocks[b].stmts.extend(s_block.stmts);
            prog.blocks[b].term = s_block.term;
            // φ args in s's successors refer to s: relabel to b.
            for t in prog.blocks[b].term.successors() {
                for phi in &mut prog.blocks[t].phis {
                    for (p, _) in &mut phi.args {
                        if *p == s {
                            *p = b;
                        }
                    }
                }
            }
            // s is now an empty, unreachable husk.
            prog.blocks[s].term = Term::Return(Expr::null());
            // Disconnect: nothing points at s anymore.
            stats.blocks_merged += 1;
            merged = true;
            changed = true;
            break; // predecessor sets changed; recompute
        }
        if !merged {
            break;
        }
        // Clean up the disconnected husk.
        remove_unreachable(prog, stats);
    }
    changed
}

/// Redirect jumps through empty blocks (`P -> E -> T` becomes `P -> T`).
fn thread_jumps(prog: &mut SsaProgram, stats: &mut OptStats) -> bool {
    let mut changed = false;
    let n = prog.blocks.len();
    for e in 0..n {
        let Term::Jump(t) = prog.blocks[e].term else {
            continue;
        };
        if t == e || !prog.blocks[e].stmts.is_empty() || !prog.blocks[e].phis.is_empty() {
            continue;
        }
        if e == prog.entry {
            continue;
        }
        let preds = prog.predecessors();
        // Never create duplicate edges (φ args must stay unambiguous by
        // predecessor id).
        let t_preds = &preds[t];
        if preds[e].iter().any(|p| t_preds.contains(p) || *p == e) {
            continue;
        }
        // Value flowing from E into T's φs.
        let phi_args_via_e: Vec<Expr> = prog.blocks[t]
            .phis
            .iter()
            .map(|phi| {
                phi.args
                    .iter()
                    .find(|(p, _)| *p == e)
                    .map(|(_, a)| a.0.clone())
                    .unwrap_or_else(Expr::null)
            })
            .collect();
        let e_preds = preds[e].clone();
        if e_preds.is_empty() {
            continue;
        }
        for &p in &e_preds {
            prog.blocks[p]
                .term
                .map_targets(|x| if x == e { t } else { x });
            for (pi, phi_val) in phi_args_via_e.iter().enumerate() {
                prog.blocks[t].phis[pi]
                    .args
                    .push((p, PhiArg(phi_val.clone())));
            }
        }
        // Remove E's contribution (E becomes unreachable).
        for phi in &mut prog.blocks[t].phis {
            phi.args.retain(|(p, _)| *p != e);
        }
        changed = true;
    }
    if changed {
        remove_unreachable(prog, stats);
    }
    changed
}

/// How many φ-carrying blocks (loop headers / joins) remain — a quality
/// metric used by tests and ablations.
pub fn count_phis(prog: &SsaProgram) -> usize {
    prog.blocks.iter().map(|b| b.phis.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaway_plsql::parse_create_function;

    fn optimized(body: &str) -> (SsaProgram, OptStats) {
        let sql = format!("CREATE FUNCTION f(n int) RETURNS int AS $$ {body} $$ LANGUAGE plpgsql");
        let f = parse_create_function(&sql).unwrap();
        let cat = Catalog::new();
        let cfg = crate::cfg::lower(&f, &cat).unwrap();
        let mut prog = crate::ssa::build(&cfg, &cat).unwrap();
        let stats = optimize(&mut prog, &cat);
        prog.validate().expect("optimized program stays valid SSA");
        (prog, stats)
    }

    #[test]
    fn constant_folding_collapses_arithmetic() {
        let (prog, stats) = optimized("BEGIN RETURN 1 + 2 * 3 + n * 1 + 0; END");
        assert!(stats.constants_folded > 0);
        let text = prog.to_text();
        assert!(text.contains("return 7 + n"), "{text}");
    }

    #[test]
    fn copies_and_constants_propagate() {
        let (prog, _) = optimized(
            "DECLARE a int := 5; b int; c int; \
             BEGIN b := a; c := b + n; RETURN c; END",
        );
        let text = prog.to_text();
        // a and b disappear entirely; only 5 + n remains (possibly through
        // one final let-bound name).
        assert!(text.contains("5 + n"), "{text}");
        assert!(!text.contains("b1"), "{text}");
        assert_eq!(prog.blocks.len(), 1);
    }

    #[test]
    fn dead_pure_code_removed_impure_kept() {
        let (prog, stats) = optimized(
            "DECLARE unused int; r float8; \
             BEGIN unused := n * 99; r := random(); RETURN n; END",
        );
        assert!(stats.stmts_removed > 0);
        let text = prog.to_text();
        assert!(!text.contains("99"), "dead pure def must vanish: {text}");
        assert!(
            text.contains("random()"),
            "impure def must survive DCE: {text}"
        );
    }

    #[test]
    fn constant_branch_becomes_jump_and_dead_arm_vanishes() {
        let (prog, stats) =
            optimized("BEGIN IF 1 > 2 THEN RETURN 111; ELSE RETURN 222; END IF; END");
        assert!(stats.branches_simplified >= 1);
        let text = prog.to_text();
        assert!(!text.contains("111"), "{text}");
        assert!(text.contains("return 222"), "{text}");
        assert_eq!(prog.blocks.len(), 1, "{text}");
    }

    #[test]
    fn straightline_blocks_merge() {
        let (prog, _) = optimized(
            "DECLARE a int; \
             BEGIN \
               IF n > 0 THEN a := 1; ELSE a := 2; END IF; \
               RETURN a; \
             END",
        );
        // diamond: entry + 2 arms + join = 4 blocks max after cleanup.
        assert!(
            prog.blocks.len() <= 4,
            "expected compact CFG, got {} blocks:\n{}",
            prog.blocks.len(),
            prog.to_text()
        );
    }

    #[test]
    fn loops_survive_optimization() {
        let (prog, _) = optimized(
            "DECLARE s int := 0; \
             BEGIN FOR i IN 1..n LOOP s := s + i; END LOOP; RETURN s; END",
        );
        assert!(
            count_phis(&prog) >= 2,
            "loop carries s and i:\n{}",
            prog.to_text()
        );
        // There must still be a back edge.
        let preds = prog.predecessors();
        assert!(preds.iter().any(|p| p.len() >= 2));
    }

    #[test]
    fn division_by_zero_is_not_folded() {
        let (prog, _) = optimized("BEGIN RETURN 1 / 0; END");
        let text = prog.to_text();
        assert!(
            text.contains("1 / 0"),
            "folding must not turn runtime errors into compile errors: {text}"
        );
    }

    #[test]
    fn trivial_phi_removed_after_constant_branch() {
        let (prog, _) = optimized(
            "DECLARE a int := 0; \
             BEGIN IF true THEN a := 1; END IF; RETURN a + n; END",
        );
        let text = prog.to_text();
        assert_eq!(count_phis(&prog), 0, "{text}");
        assert!(text.contains("return 1 + n"), "{text}");
    }

    #[test]
    fn subqueries_never_removed_or_duplicated() {
        let mut session = plaway_engine::Session::default();
        session.run("CREATE TABLE t (v int)").unwrap();
        let sql = "CREATE FUNCTION f(n int) RETURNS int AS $$ \
                   DECLARE a int; \
                   BEGIN a := (SELECT max(v) FROM t); RETURN n; END \
                   $$ LANGUAGE plpgsql";
        let f = parse_create_function(sql).unwrap();
        let cfg = crate::cfg::lower(&f, &session.catalog).unwrap();
        let mut prog = crate::ssa::build(&cfg, &session.catalog).unwrap();
        optimize(&mut prog, &session.catalog);
        let text = prog.to_text();
        assert!(
            text.matches("SELECT max(v)").count() == 1,
            "query must survive exactly once: {text}"
        );
    }

    #[test]
    fn walk_like_control_flow_compacts() {
        let (prog, _) = optimized(
            "DECLARE reward int := 0; \
             BEGIN \
               FOR step IN 1..n LOOP \
                 reward := reward + step; \
                 IF reward >= 100 OR reward <= -100 THEN \
                   RETURN step * sign(reward); \
                 END IF; \
               END LOOP; \
               RETURN 0; \
             END",
        );
        // Figure 5 keeps 3 labelled blocks plus the goto-only entry; allow a
        // little slack but reject explosion.
        assert!(
            prog.blocks.len() <= 6,
            "{} blocks:\n{}",
            prog.blocks.len(),
            prog.to_text()
        );
    }
}
