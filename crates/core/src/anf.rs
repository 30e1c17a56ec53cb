//! SSA → administrative normal form (§2 ANF of the paper).
//!
//! Following Chakravarty, Keller & Zadarnowski ("A Functional Perspective on
//! SSA Optimisation Algorithms"): every block becomes a function whose
//! parameters are the block's φ targets (plus lambda-lifted free variables);
//! `goto` becomes a tail call whose arguments are the φ operands for that
//! edge. Loops thereby turn into **tail recursion** — the property the final
//! `WITH RECURSIVE` translation banks on.
//!
//! The original function's parameters stay free here (bound by the enclosing
//! function, as in Figure 6); the UDF stage threads them explicitly.

use std::collections::{HashMap, HashSet};

use plaway_common::{Error, Result, Type, Value};
use plaway_sql::ast::Expr;

use crate::cfg::{BlockId, Term};
use crate::ssa::SsaProgram;
use crate::subst::{subst_expr, Lookup};

/// Tail position of an ANF body: nested conditionals bottoming out in tail
/// calls or returns.
#[derive(Debug, Clone, PartialEq)]
pub enum AnfTail {
    /// `if cond then tail else tail` in tail position.
    If {
        /// Branch condition.
        cond: Expr,
        /// Tail taken when the condition is true.
        then_: Box<AnfTail>,
        /// Tail taken when the condition is false or NULL.
        else_: Box<AnfTail>,
    },
    /// `let v1 = e1 in ... in tail` nested in tail position — produced when
    /// a single-use block function is inlined into its caller (Figure 7's
    /// `WHEN fn = L2 THEN (SELECT ... FROM lets...)` shape).
    LetChain {
        /// `(name, value)` bindings, evaluated in order.
        lets: Vec<(String, Expr)>,
        /// Tail evaluated under the bindings.
        body: Box<AnfTail>,
    },
    /// Tail call to block-function `target` (index into `AnfProgram::funcs`).
    Call {
        /// Callee index into [`AnfProgram::funcs`].
        target: usize,
        /// Positional arguments for the callee's parameters.
        args: Vec<Expr>,
    },
    /// Base case: the function's result.
    Ret(Expr),
}

impl AnfTail {
    /// All calls in this tail (they are the only calls in the program —
    /// tail position by construction).
    pub fn calls(&self) -> Vec<(usize, &[Expr])> {
        let mut v = Vec::new();
        self.for_each_call(&mut |target, args| v.push((target, args)));
        v
    }

    /// Visit every call in this tail, in order, without collecting them.
    pub fn for_each_call<'a>(&'a self, f: &mut impl FnMut(usize, &'a [Expr])) {
        match self {
            AnfTail::If { then_, else_, .. } => {
                then_.for_each_call(f);
                else_.for_each_call(f);
            }
            AnfTail::LetChain { body, .. } => body.for_each_call(f),
            AnfTail::Call { target, args } => f(*target, args),
            AnfTail::Ret(_) => {}
        }
    }

    /// How many calls to `target` this tail makes.
    pub fn calls_to(&self, target: usize) -> usize {
        let mut n = 0;
        self.for_each_call(&mut |t, _| n += usize::from(t == target));
        n
    }

    /// All base-case result expressions in this tail.
    pub fn returns(&self) -> Vec<&Expr> {
        match self {
            AnfTail::If { then_, else_, .. } => {
                let mut v = then_.returns();
                v.extend(else_.returns());
                v
            }
            AnfTail::LetChain { body, .. } => body.returns(),
            AnfTail::Call { .. } => vec![],
            AnfTail::Ret(e) => vec![e],
        }
    }
}

/// One block-function: `name(params) = let v₁ = e₁ in ... in tail`.
#[derive(Debug, Clone)]
pub struct AnfFunction {
    /// Display name (`L<block id>`).
    pub name: String,
    /// φ-derived parameters first, lambda-lifted free variables after.
    pub params: Vec<String>,
    /// How many of `params` are φ-derived (the rest are lifted).
    pub phi_params: usize,
    /// `(name, value)` bindings evaluated before the tail.
    pub lets: Vec<(String, Expr)>,
    /// The function's tail position.
    pub tail: AnfTail,
}

impl AnfFunction {
    /// An empty function that holds a slot while the real one is moved out.
    fn placeholder() -> AnfFunction {
        AnfFunction {
            name: String::new(),
            params: Vec::new(),
            phi_params: 0,
            lets: Vec::new(),
            tail: AnfTail::Ret(Expr::null()),
        }
    }
}

/// The whole program: mutually tail-recursive block functions plus the entry
/// call.
#[derive(Debug, Clone)]
pub struct AnfProgram {
    /// The source function's name.
    pub fn_name: String,
    /// The source function's parameters (they stay free in the block
    /// functions, as in the paper's Figure 6).
    pub fn_params: Vec<(String, Type)>,
    /// Declared return type.
    pub returns: Type,
    /// One block function per CFG block (same indices).
    pub funcs: Vec<AnfFunction>,
    /// The original invocation (a call into `funcs`).
    pub entry: AnfTail,
    /// SSA name → type, carried through for the UDF signature.
    pub var_types: HashMap<String, Type>,
}

/// Translate an SSA program to ANF.
pub fn from_ssa(prog: &SsaProgram) -> Result<AnfProgram> {
    let preds = prog.predecessors();
    if !preds[prog.entry].is_empty() || !prog.blocks[prog.entry].phis.is_empty() {
        return Err(Error::compile(
            "entry block must have no predecessors and no phis (compiler bug)",
        ));
    }

    let n = prog.blocks.len();
    // φ-derived parameters.
    let phi_params: Vec<Vec<String>> = prog
        .blocks
        .iter()
        .map(|b| b.phis.iter().map(|p| p.target.clone()).collect())
        .collect();

    // Lambda lifting: fixpoint of free-variable sets. A name is a candidate
    // when it is an SSA variable (not an original parameter — those stay
    // free, Figure 6) and not defined locally.
    let fn_param_names: HashSet<String> = prog.params.iter().map(|(n, _)| n.clone()).collect();
    let is_var = |name: &str| prog.var_types.contains_key(name);
    let mut lifted: Vec<Vec<String>> = vec![Vec::new(); n];
    loop {
        let mut changed = false;
        for b in 0..n {
            let block = &prog.blocks[b];
            let mut defined: HashSet<&str> = phi_params[b].iter().map(|s| s.as_str()).collect();
            let mut need: Vec<String> = Vec::new();
            let uses = |e: &Expr, defined: &HashSet<&str>, need: &mut Vec<String>| {
                crate::ssa::for_each_free_name(e, &mut |name| {
                    if is_var(name)
                        && !fn_param_names.contains(name)
                        && !defined.contains(name)
                        && !need.iter().any(|n| n == name)
                    {
                        need.push(name.to_owned());
                    }
                })
            };
            for (v, e) in &block.stmts {
                uses(e, &defined, &mut need);
                defined.insert(v);
            }
            match &block.term {
                Term::Branch { cond, .. } => uses(cond, &defined, &mut need),
                Term::Return(e) => uses(e, &defined, &mut need),
                _ => {}
            }
            for s in block.term.successors() {
                // φ operands for the edge b -> s.
                for phi in &prog.blocks[s].phis {
                    for (p, arg) in &phi.args {
                        if *p == b {
                            uses(&arg.0, &defined, &mut need);
                        }
                    }
                }
                // The callee's lifted parameters are passed by name.
                for l in &lifted[s].clone() {
                    if is_var(l)
                        && !fn_param_names.contains(l)
                        && !defined.contains(l.as_str())
                        && !need.contains(l)
                    {
                        need.push(l.clone());
                    }
                }
            }
            for name in need {
                if !lifted[b].contains(&name) && !phi_params[b].contains(&name) {
                    lifted[b].push(name);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Emit functions.
    let make_call = |b: BlockId, s: BlockId| -> Result<AnfTail> {
        let mut args = Vec::new();
        for phi in &prog.blocks[s].phis {
            let matching: Vec<&Expr> = phi
                .args
                .iter()
                .filter(|(p, _)| *p == b)
                .map(|(_, a)| &a.0)
                .collect();
            match matching.as_slice() {
                [one] => args.push((*one).clone()),
                [] => {
                    return Err(Error::compile(format!(
                        "phi {:?} lacks an argument for edge L{b} -> L{s}",
                        phi.target
                    )))
                }
                _ => {
                    return Err(Error::compile(format!(
                        "ambiguous phi arguments on duplicate edge L{b} -> L{s}"
                    )))
                }
            }
        }
        for l in &lifted[s] {
            args.push(Expr::col(l.clone()));
        }
        Ok(AnfTail::Call { target: s, args })
    };

    let mut funcs = Vec::with_capacity(n);
    for b in 0..n {
        let block = &prog.blocks[b];
        let tail = match &block.term {
            Term::Jump(t) => make_call(b, *t)?,
            Term::Branch { cond, then_, else_ } => AnfTail::If {
                cond: cond.clone(),
                then_: Box::new(make_call(b, *then_)?),
                else_: Box::new(make_call(b, *else_)?),
            },
            Term::Return(e) => AnfTail::Ret(e.clone()),
            Term::Unfinished => {
                return Err(Error::compile(
                    "unfinished block reached ANF (compiler bug)",
                ))
            }
        };
        let mut params = phi_params[b].clone();
        let phi_count = params.len();
        params.extend(lifted[b].iter().cloned());
        funcs.push(AnfFunction {
            name: format!("L{b}"),
            params,
            phi_params: phi_count,
            lets: block.stmts.clone(),
            tail,
        });
    }

    // Entry invocation: lifted params at entry would be undefined values.
    if let Some(l) = lifted[prog.entry].first() {
        return Err(Error::compile(format!(
            "entry block must not need lifted variable {l:?} (undefined at entry)"
        )));
    }
    let entry = AnfTail::Call {
        target: prog.entry,
        args: Vec::new(),
    };

    let anf = AnfProgram {
        fn_name: prog.name.clone(),
        fn_params: prog.params.clone(),
        returns: prog.returns.clone(),
        funcs,
        entry,
        var_types: prog.var_types.clone(),
    };
    anf.validate()?;
    Ok(anf)
}

/// Substitute expressions for parameter names inside a tail, in place.
fn subst_tail(tail: &mut AnfTail, lookup: Lookup, catalog: &plaway_engine::Catalog) {
    match tail {
        AnfTail::If { cond, then_, else_ } => {
            subst_expr(cond, lookup, catalog);
            subst_tail(then_, lookup, catalog);
            subst_tail(else_, lookup, catalog);
        }
        AnfTail::LetChain { lets, body } => {
            // Let-bound names are globally unique SSA names: the lookup's
            // names (callee parameters) can never collide with them.
            for (_, e) in lets {
                subst_expr(e, lookup, catalog);
            }
            subst_tail(body, lookup, catalog);
        }
        AnfTail::Call { args, .. } => {
            for a in args {
                subst_expr(a, lookup, catalog);
            }
        }
        AnfTail::Ret(e) => subst_expr(e, lookup, catalog),
    }
}

fn tail_size(tail: &AnfTail) -> usize {
    match tail {
        AnfTail::If { then_, else_, .. } => 1 + tail_size(then_) + tail_size(else_),
        AnfTail::LetChain { lets, body } => 1 + lets.len() + tail_size(body),
        _ => 1,
    }
}

/// Inline every call to `target` in `tail`, in place: each becomes the
/// callee's body (under its lets) with the call's arguments substituted for
/// the callee's parameters.
fn replace_calls(
    tail: &mut AnfTail,
    target: usize,
    callee: &AnfFunction,
    catalog: &plaway_engine::Catalog,
) {
    match tail {
        AnfTail::If { then_, else_, .. } => {
            replace_calls(then_, target, callee, catalog);
            replace_calls(else_, target, callee, catalog);
        }
        AnfTail::LetChain { body, .. } => replace_calls(body, target, callee, catalog),
        AnfTail::Call { target: t, args } if *t == target => {
            let arg = |name: &str| {
                let i = callee.params.iter().position(|p| p == name)?;
                args.get(i).cloned()
            };
            let mut inlined = callee.tail.clone();
            subst_tail(&mut inlined, &arg, catalog);
            if !callee.lets.is_empty() {
                let mut lets = callee.lets.clone();
                for (_, e) in &mut lets {
                    subst_expr(e, &arg, catalog);
                }
                inlined = AnfTail::LetChain {
                    lets,
                    body: Box::new(inlined),
                };
            }
            *tail = inlined;
        }
        AnfTail::Call { .. } | AnfTail::Ret(_) => {}
    }
}

/// Fold conditionals whose condition is a compile-time constant — these
/// arise when inlining substitutes literal arguments into a handler
/// dispatch test (`if 'not_a_digit' = 'overflow' then ...`). SQL 3VL: a
/// NULL condition takes the else branch.
fn fold_constant_tails(tail: &mut AnfTail) -> bool {
    let mut changed = false;
    match tail {
        AnfTail::If { then_, else_, .. } => {
            changed |= fold_constant_tails(then_);
            changed |= fold_constant_tails(else_);
        }
        AnfTail::LetChain { body, .. } => changed |= fold_constant_tails(body),
        _ => {}
    }
    let replacement = if let AnfTail::If { cond, then_, else_ } = tail {
        crate::opt::const_value(cond).map(|v| {
            let taken = if matches!(v, Value::Bool(true)) {
                &mut **then_
            } else {
                &mut **else_
            };
            std::mem::replace(taken, AnfTail::Ret(Expr::null()))
        })
    } else {
        None
    };
    if let Some(r) = replacement {
        *tail = r;
        changed = true;
    }
    changed
}

/// Is this expression a row-loop `snapshot_release` call? Impure (it must
/// never be dropped or hoisted) but safe to *inline* into several call
/// sites: each dynamic path still evaluates it exactly once, and inlining
/// the row loop's exit block erases one CTE column (the result φ) and one
/// fixpoint iteration per loop exit.
fn is_release_call(e: &Expr) -> bool {
    matches!(e, Expr::Func { name, .. } if name == "snapshot_release")
}

/// Is every argument of every (reachable) call to `idx` a bare column or
/// literal? Such arguments can be substituted into a callee that mentions a
/// parameter more than once without duplicating work.
fn all_call_args_simple(prog: &AnfProgram, idx: usize, reachable: &[bool]) -> bool {
    let mut simple = true;
    for (j, g) in prog.funcs.iter().enumerate() {
        if reachable[j] && j != idx {
            g.tail.for_each_call(&mut |t, args| {
                simple &= t != idx
                    || args
                        .iter()
                        .all(|a| matches!(a, Expr::Column { .. } | Expr::Literal(_)));
            });
        }
    }
    simple
}

/// Inline trivial block functions (no `let`s, small tails, not
/// self-recursive) into their callers. The decisive case is the loop
/// *condition* block: inlining it into the loop body's tail means one CTE
/// iteration per source-loop iteration instead of two — the shape Figure 7
/// shows for `walk*` (L2 jumps straight back into L2 via L1's test).
///
/// Three inlining shapes (see the call-site comment below): trivial
/// everywhere, single-use with lets, and — new with the exception
/// machinery — multi-use functions with a couple of *pure* lets and simple
/// arguments, which is exactly the handled-block join/increment shape that
/// would otherwise cost an extra CTE iteration per loop pass.
pub fn inline_trivial(prog: &mut AnfProgram, catalog: &plaway_engine::Catalog) {
    for _round in 0..prog.funcs.len() {
        let mut any = false;
        for f in &mut prog.funcs {
            any |= fold_constant_tails(&mut f.tail);
        }
        any |= fold_constant_tails(&mut prog.entry);
        for idx in 0..prog.funcs.len() {
            let reachable = prog.reachable();
            let f = &prog.funcs[idx];
            if !reachable[idx] || f.tail.calls_to(idx) > 0 {
                continue;
            }
            // Three inlining shapes:
            //  (a) trivial: no lets, small tail — inline everywhere;
            //  (b) single-use with lets — inline at its one call site,
            //      producing a LetChain (arguments are SSA names/literals,
            //      so duplication-by-substitution cannot re-run effects);
            //  (c) multi-use with few *pure* lets, a small tail and simple
            //      (column/literal) arguments at every call site — the
            //      handled-block join/increment shape. Duplicating pure
            //      lets is safe and buys one CTE iteration per loop pass.
            let entry_calls = prog.entry.calls_to(idx);
            let call_sites: usize = prog
                .funcs
                .iter()
                .enumerate()
                .filter(|(j, _)| reachable[*j] && *j != idx)
                .map(|(_, g)| g.tail.calls_to(idx))
                .sum::<usize>()
                + entry_calls;
            let trivial = f.lets.is_empty() && tail_size(&f.tail) <= 8;
            let single_use = call_sites == 1 && tail_size(&f.tail) <= 16 && entry_calls == 0;
            let small_pure = (2..=4).contains(&call_sites)
                && f.lets.len() <= 2
                && tail_size(&f.tail) <= 8
                && f.lets.iter().all(|(_, e)| crate::opt::is_pure_expr(e))
                && entry_calls == 0
                && all_call_args_simple(prog, idx, &reachable);
            // (d) the row-loop exit-block shape: only `snapshot_release`
            //     lets and a small tail. Inlining it at every exit edge
            //     removes the loop-result φ column from the trace and one
            //     CTE iteration per loop exit; per-path evaluation counts
            //     are unchanged (each site runs its own copy at most once).
            let release_block = call_sites >= 2
                && !f.lets.is_empty()
                && f.lets.iter().all(|(_, e)| is_release_call(e))
                && tail_size(&f.tail) <= 8
                && entry_calls == 0
                && all_call_args_simple(prog, idx, &reachable);
            if !(trivial || single_use || small_pure || release_block) {
                continue;
            }
            // Lift the callee out while its callers are rewritten (it is
            // not self-recursive, so none of them is the callee itself).
            let callee = std::mem::replace(&mut prog.funcs[idx], AnfFunction::placeholder());
            for (j, g) in prog.funcs.iter_mut().enumerate() {
                if j != idx && g.tail.calls_to(idx) > 0 {
                    replace_calls(&mut g.tail, idx, &callee, catalog);
                    any = true;
                }
            }
            // The program entry must remain a bare call (the original
            // invocation); only forwarders may be inlined there.
            if matches!(callee.tail, AnfTail::Call { .. }) && entry_calls > 0 {
                replace_calls(&mut prog.entry, idx, &callee, catalog);
                any = true;
            }
            prog.funcs[idx] = callee;
        }
        if !any {
            break;
        }
    }
}

impl AnfProgram {
    /// Functions reachable from the entry call.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.funcs.len()];
        let mut stack: Vec<usize> = Vec::new();
        let mut visit = |t: usize, stack: &mut Vec<usize>| {
            if !seen[t] {
                seen[t] = true;
                stack.push(t);
            }
        };
        self.entry.for_each_call(&mut |t, _| visit(t, &mut stack));
        while let Some(f) = stack.pop() {
            self.funcs[f]
                .tail
                .for_each_call(&mut |t, _| visit(t, &mut stack));
        }
        seen
    }

    /// Well-formedness: every call passes exactly the callee's arity.
    pub fn validate(&self) -> Result<()> {
        for (caller_name, tail) in std::iter::once(("<entry>".to_string(), &self.entry))
            .chain(self.funcs.iter().map(|f| (f.name.clone(), &f.tail)))
        {
            for (target, args) in tail.calls() {
                let callee = self.funcs.get(target).ok_or_else(|| {
                    Error::compile(format!("{caller_name} calls unknown function L{target}"))
                })?;
                if args.len() != callee.params.len() {
                    return Err(Error::compile(format!(
                        "{caller_name} calls {} with {} args, expected {}",
                        callee.name,
                        args.len(),
                        callee.params.len()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Is any block function (transitively) recursive? Iterative source
    /// functions always are after this translation; loop-free ones never.
    pub fn has_recursion(&self) -> bool {
        let n = self.funcs.len();
        #[derive(Clone, Copy, PartialEq)]
        enum St {
            White,
            Grey,
            Black,
        }
        fn dfs(f: usize, funcs: &[AnfFunction], state: &mut [St]) -> bool {
            state[f] = St::Grey;
            for (t, _) in funcs[f].tail.calls() {
                match state[t] {
                    St::Grey => return true,
                    St::White => {
                        if dfs(t, funcs, state) {
                            return true;
                        }
                    }
                    St::Black => {}
                }
            }
            state[f] = St::Black;
            false
        }
        let mut state = vec![St::White; n];
        for (t, _) in self.entry.calls() {
            if state[t] == St::White && dfs(t, &self.funcs, &mut state) {
                return true;
            }
        }
        false
    }

    /// Figure 6-style pretty printer.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let params: Vec<&str> = self.fn_params.iter().map(|(n, _)| n.as_str()).collect();
        let _ = writeln!(out, "function {}({}) =", self.fn_name, params.join(", "));
        let reachable = self.reachable();
        let mut first = true;
        for (i, f) in self.funcs.iter().enumerate() {
            if !reachable[i] {
                continue;
            }
            let kw = if first { "letrec" } else { "and" };
            first = false;
            let _ = writeln!(out, "  {kw} {}({}) =", f.name, f.params.join(", "));
            for (v, e) in &f.lets {
                let _ = writeln!(out, "    let {v} = {e} in");
            }
            write_tail(&mut out, &f.tail, &self.funcs, 4);
        }
        out.push_str("  in\n");
        write_tail(&mut out, &self.entry, &self.funcs, 4);
        out
    }
}

fn write_tail(out: &mut String, tail: &AnfTail, funcs: &[AnfFunction], indent: usize) {
    use std::fmt::Write;
    let pad = " ".repeat(indent);
    match tail {
        AnfTail::If { cond, then_, else_ } => {
            let _ = writeln!(out, "{pad}if {cond} then");
            write_tail(out, then_, funcs, indent + 2);
            let _ = writeln!(out, "{pad}else");
            write_tail(out, else_, funcs, indent + 2);
        }
        AnfTail::LetChain { lets, body } => {
            for (v, e) in lets {
                let _ = writeln!(out, "{pad}let {v} = {e} in");
            }
            write_tail(out, body, funcs, indent);
        }
        AnfTail::Call { target, args } => {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let _ = writeln!(out, "{pad}{}({})", funcs[*target].name, args.join(", "));
        }
        AnfTail::Ret(e) => {
            let _ = writeln!(out, "{pad}{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaway_engine::Catalog;
    use plaway_plsql::parse_create_function;

    fn anf_of(body: &str) -> AnfProgram {
        let sql = format!("CREATE FUNCTION f(n int) RETURNS int AS $$ {body} $$ LANGUAGE plpgsql");
        let f = parse_create_function(&sql).unwrap();
        let cat = Catalog::new();
        let cfg = crate::cfg::lower(&f, &cat).unwrap();
        let mut prog = crate::ssa::build(&cfg, &cat).unwrap();
        crate::opt::optimize(&mut prog, &cat);
        from_ssa(&prog).unwrap()
    }

    #[test]
    fn straight_line_is_single_ret_function() {
        let anf = anf_of("BEGIN RETURN n * 2; END");
        assert!(!anf.has_recursion());
        let reachable: Vec<&AnfFunction> = anf
            .funcs
            .iter()
            .zip(anf.reachable())
            .filter_map(|(f, r)| r.then_some(f))
            .collect();
        assert_eq!(reachable.len(), 1);
        assert!(matches!(reachable[0].tail, AnfTail::Ret(_)));
    }

    #[test]
    fn loop_becomes_tail_recursion() {
        let anf = anf_of(
            "DECLARE s int := 0; \
             BEGIN FOR i IN 1..n LOOP s := s + i; END LOOP; RETURN s; END",
        );
        assert!(anf.has_recursion(), "{}", anf.to_text());
        let head = anf
            .funcs
            .iter()
            .find(|f| f.phi_params >= 2)
            .unwrap_or_else(|| panic!("no phi-parameterized function:\n{}", anf.to_text()));
        assert!(head.params.len() >= 2);
    }

    #[test]
    fn call_arities_check_out_on_nested_control_flow() {
        let anf = anf_of(
            "DECLARE s int := 0; \
             BEGIN \
               FOR i IN 1..n LOOP \
                 IF i % 2 = 0 THEN s := s + i; ELSE s := s - i; END IF; \
                 EXIT WHEN s > 100; \
               END LOOP; \
               RETURN s; END",
        );
        anf.validate().unwrap();
        assert!(anf.has_recursion());
    }

    #[test]
    fn branch_has_calls_in_both_arms() {
        let anf = anf_of(
            "DECLARE s int := 0; \
             BEGIN WHILE s < n LOOP s := s + 1; END LOOP; RETURN s; END",
        );
        let head = anf
            .funcs
            .iter()
            .find(|f| matches!(f.tail, AnfTail::If { .. }))
            .expect("loop head has a conditional tail");
        let AnfTail::If { then_, else_, .. } = &head.tail else {
            unreachable!()
        };
        let sides = [then_.as_ref(), else_.as_ref()];
        assert!(sides.iter().any(|s| matches!(s, AnfTail::Call { .. })));
    }

    #[test]
    fn fn_params_stay_free() {
        // `n` must not be lambda-lifted into block function params
        // (Figure 6: win/loose/steps are free in L1/L2).
        let anf = anf_of(
            "DECLARE s int := 0; \
             BEGIN WHILE s < n LOOP s := s + 1; END LOOP; RETURN s; END",
        );
        for f in &anf.funcs {
            assert!(
                !f.params.contains(&"n".to_string()),
                "fn param leaked into {}: {:?}",
                f.name,
                f.params
            );
        }
    }

    #[test]
    fn lifted_variables_flow_to_users() {
        // `a` is defined before the branch and used after it without
        // reassignment: no φ merges it, so the join function receives it
        // through lambda lifting.
        let anf = anf_of(
            "DECLARE a int; r int; \
             BEGIN \
               a := n * 3; \
               IF n > 0 THEN r := 1; ELSE r := 2; END IF; \
               RETURN a + r; \
             END",
        );
        anf.validate().unwrap();
        let text = anf.to_text();
        assert!(
            anf.funcs
                .iter()
                .zip(anf.reachable())
                .any(|(f, r)| r && f.params.iter().any(|p| p.starts_with('a'))),
            "{text}"
        );
    }

    #[test]
    fn printer_shows_letrec_shape() {
        let anf = anf_of(
            "DECLARE s int := 0; \
             BEGIN WHILE s < n LOOP s := s + 1; END LOOP; RETURN s; END",
        );
        let text = anf.to_text();
        assert!(text.contains("letrec"), "{text}");
        assert!(text.contains("if "), "{text}");
        assert!(text.contains("in\n"), "{text}");
    }
}
