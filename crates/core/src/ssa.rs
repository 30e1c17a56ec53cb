//! Static single assignment form (§2 SSA of the paper).
//!
//! Construction is textbook: dominator tree via Cooper–Harvey–Kennedy
//! ("A Simple, Fast Dominance Algorithm"), dominance frontiers, φ placement
//! à la Cytron et al., then renaming along the dominator tree. Variable
//! references *inside embedded SQL queries* are renamed with the
//! capture-aware substitution of [`crate::subst`] — the step that turns
//! `Q1[location]` into `Q1[location1]` (Figure 5).

use std::collections::{HashMap, HashSet};

use plaway_common::{Error, Result, Type};
use plaway_engine::Catalog;
use plaway_sql::ast::Expr;

use crate::cfg::{BlockId, Cfg, Term};
use crate::subst::subst_expr;

/// A φ argument: an SSA variable reference or a literal (constants may flow
/// into φs after optimization; an undefined path contributes NULL).
#[derive(Debug, Clone, PartialEq)]
pub struct PhiArg(pub Expr);

/// One φ node: `target ← φ(pred₁: arg₁, ..., predₙ: argₙ)`.
#[derive(Debug, Clone)]
pub struct Phi {
    /// The SSA name this φ defines.
    pub target: String,
    /// One argument per predecessor edge.
    pub args: Vec<(BlockId, PhiArg)>,
}

/// A block in SSA form.
#[derive(Debug, Clone, Default)]
pub struct SsaBlock {
    /// φ nodes, defined before the block's statements.
    pub phis: Vec<Phi>,
    /// `(ssa name, value)` assignments, in order.
    pub stmts: Vec<(String, Expr)>,
    /// The block's terminator.
    pub term: Term,
}

/// A function in SSA form.
#[derive(Debug, Clone)]
pub struct SsaProgram {
    /// The source function's name.
    pub name: String,
    /// Parameters keep their names (they are version 0 of themselves).
    pub params: Vec<(String, Type)>,
    /// Declared return type.
    pub returns: Type,
    /// SSA name → type (propagated from the underlying CFG variable).
    pub var_types: HashMap<String, Type>,
    /// Blocks, indexed by [`BlockId`].
    pub blocks: Vec<SsaBlock>,
    /// Entry block.
    pub entry: BlockId,
}

impl SsaProgram {
    /// Predecessor lists, indexed like [`SsaProgram::blocks`].
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (b, block) in self.blocks.iter().enumerate() {
            for s in block.term.successors() {
                preds[s].push(b);
            }
        }
        preds
    }

    /// Figure 5-style pretty printer.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let params: Vec<&str> = self.params.iter().map(|(n, _)| n.as_str()).collect();
        let _ = writeln!(out, "function {}({})", self.name, params.join(", "));
        out.push_str("{\n");
        for (i, b) in self.blocks.iter().enumerate() {
            let _ = write!(out, "L{i}: ");
            let mut first = true;
            let line = |out: &mut String, first: &mut bool, text: String| {
                if *first {
                    *first = false;
                    let _ = writeln!(out, "{text}");
                } else {
                    let _ = writeln!(out, "     {text}");
                }
            };
            for phi in &b.phis {
                let args: Vec<String> = phi
                    .args
                    .iter()
                    .map(|(p, a)| format!("L{p}:{}", a.0))
                    .collect();
                line(
                    &mut out,
                    &mut first,
                    format!("{} <- phi({});", phi.target, args.join(", ")),
                );
            }
            for (v, e) in &b.stmts {
                line(&mut out, &mut first, format!("{v} <- {e};"));
            }
            match &b.term {
                Term::Jump(t) => line(&mut out, &mut first, format!("goto L{t};")),
                Term::Branch { cond, then_, else_ } => line(
                    &mut out,
                    &mut first,
                    format!("if {cond} then goto L{then_} else goto L{else_};"),
                ),
                Term::Return(e) => line(&mut out, &mut first, format!("return {e};")),
                Term::Unfinished => line(&mut out, &mut first, "<unfinished>;".to_string()),
            }
        }
        out.push_str("}\n");
        out
    }

    /// Check the SSA invariants; used by unit and property tests.
    ///
    /// * every name is defined at most once,
    /// * φ nodes have exactly one argument per predecessor,
    /// * definitions dominate uses (φ uses checked at the predecessor edge).
    pub fn validate(&self) -> Result<()> {
        let preds = self.predecessors();
        // Single assignment.
        let mut def_block: HashMap<&str, BlockId> = HashMap::new();
        for (name, _) in &self.params {
            if def_block.insert(name, self.entry).is_some() {
                return Err(Error::compile(format!("duplicate parameter {name:?}")));
            }
        }
        for (i, b) in self.blocks.iter().enumerate() {
            for phi in &b.phis {
                if def_block.insert(&phi.target, i).is_some() {
                    return Err(Error::compile(format!(
                        "SSA violation: {:?} defined twice",
                        phi.target
                    )));
                }
            }
            for (v, _) in &b.stmts {
                if def_block.insert(v, i).is_some() {
                    return Err(Error::compile(format!(
                        "SSA violation: {v:?} defined twice"
                    )));
                }
            }
        }
        // φ arity.
        for (i, b) in self.blocks.iter().enumerate() {
            for phi in &b.phis {
                let mut arg_blocks: Vec<BlockId> = phi.args.iter().map(|(p, _)| *p).collect();
                arg_blocks.sort_unstable();
                let mut expect = preds[i].clone();
                expect.sort_unstable();
                if arg_blocks != expect {
                    return Err(Error::compile(format!(
                        "phi {:?} in L{i} has args from {arg_blocks:?}, preds are {expect:?}",
                        phi.target
                    )));
                }
            }
        }
        // Dominance of uses.
        let dom = Dominators::compute(self.blocks.len(), self.entry, &preds);
        for (i, b) in self.blocks.iter().enumerate() {
            // Uses within the block: conservatively require the def's block
            // to dominate this block (or be this block, earlier position —
            // we skip intra-block ordering, the builder emits in order).
            let check = |name: &str, use_block: BlockId| -> Result<()> {
                if let Some(&db) = def_block.get(name) {
                    if db != use_block && !dom.dominates(db, use_block) {
                        return Err(Error::compile(format!(
                            "SSA violation: use of {name:?} in L{use_block} not dominated \
                             by its definition in L{db}"
                        )));
                    }
                } else if self.var_types.contains_key(name) {
                    // The name is an SSA variable (not a table column) but
                    // has no definition anywhere: a pass dropped a live def.
                    return Err(Error::compile(format!(
                        "SSA violation: use of undefined variable {name:?} in L{use_block}"
                    )));
                }
                Ok(())
            };
            // Every free name of `e` is a use in `use_block`; report the
            // first violation.
            let check_uses = |e: &Expr, use_block: BlockId| -> Result<()> {
                let mut result = Ok(());
                for_each_free_name(e, &mut |name| {
                    if result.is_ok() {
                        result = check(name, use_block);
                    }
                });
                result
            };
            for (_, e) in &b.stmts {
                check_uses(e, i)?;
            }
            match &b.term {
                Term::Branch { cond: e, .. } | Term::Return(e) => check_uses(e, i)?,
                _ => {}
            }
            for phi in &b.phis {
                for (p, arg) in &phi.args {
                    check_uses(&arg.0, *p)?;
                }
            }
        }
        Ok(())
    }
}

/// Visit every free (unqualified, outside-subquery-scope-agnostic)
/// identifier of `e`: SSA names are always bare columns, so a syntactic walk
/// is enough for validation purposes (names bound inside subqueries may
/// shadow — the validator tolerates unknown names by ignoring them).
pub(crate) fn for_each_free_name<'a>(e: &'a Expr, out: &mut impl FnMut(&'a str)) {
    e.walk(&mut |sub| {
        if let Expr::Column {
            qualifier: None,
            name,
        } = sub
        {
            out(name);
        }
        // Subqueries: harvest shallowly too (SSA vars can appear there).
        match sub {
            Expr::Subquery(q) | Expr::Exists(q) => collect_names_query(q, out),
            Expr::InSubquery { query, .. } => collect_names_query(query, out),
            _ => {}
        }
    });
}

fn collect_names_query<'a>(q: &'a plaway_sql::ast::Query, out: &mut impl FnMut(&'a str)) {
    use plaway_sql::ast::{SelectItem, SetExpr, TableRef};
    fn walk_table<'a>(t: &'a TableRef, out: &mut impl FnMut(&'a str)) {
        match t {
            TableRef::Table { .. } => {}
            // SSA variables reach derived tables too (the row-loop fetch
            // query nests the whole loop source under `(q) AS __rows`).
            TableRef::Derived { query, .. } => collect_names_query(query, out),
            TableRef::Join {
                left, right, on, ..
            } => {
                walk_table(left, out);
                walk_table(right, out);
                if let Some(e) = on {
                    for_each_free_name(e, out);
                }
            }
        }
    }
    fn walk_set<'a>(s: &'a SetExpr, out: &mut impl FnMut(&'a str)) {
        match s {
            SetExpr::Select(sel) => {
                for item in &sel.items {
                    if let SelectItem::Expr { expr, .. } = item {
                        for_each_free_name(expr, out);
                    }
                }
                for t in &sel.from {
                    walk_table(t, out);
                }
                if let Some(w) = &sel.where_ {
                    for_each_free_name(w, out);
                }
                for g in &sel.group_by {
                    for_each_free_name(g, out);
                }
                if let Some(h) = &sel.having {
                    for_each_free_name(h, out);
                }
                for (_, spec) in &sel.windows {
                    for e in &spec.partition_by {
                        for_each_free_name(e, out);
                    }
                    for o in &spec.order_by {
                        for_each_free_name(&o.expr, out);
                    }
                }
            }
            SetExpr::SetOp { left, right, .. } => {
                walk_set(left, out);
                walk_set(right, out);
            }
            SetExpr::Values(rows) => {
                for r in rows.iter().flatten() {
                    for_each_free_name(r, out);
                }
            }
            SetExpr::Query(q) => collect_names_query(q, out),
        }
    }
    if let Some(with) = &q.with {
        for cte in &with.ctes {
            collect_names_query(&cte.query, out);
        }
    }
    walk_set(&q.body, out);
    for o in &q.order_by {
        for_each_free_name(&o.expr, out);
    }
    // LIMIT/OFFSET expressions: the row-loop fetch paginates on an SSA
    // variable (`OFFSET pos - 1`).
    if let Some(l) = &q.limit {
        for_each_free_name(l, out);
    }
    if let Some(o) = &q.offset {
        for_each_free_name(o, out);
    }
}

// ---------------------------------------------------------------------------
// Dominators (Cooper–Harvey–Kennedy)

/// Dominator tree of a CFG (Cooper–Harvey–Kennedy).
pub struct Dominators {
    /// Immediate dominator per block (entry's is itself).
    pub idom: Vec<Option<BlockId>>,
    /// Reverse post-order index per block.
    pub rpo_index: Vec<usize>,
    /// Blocks in reverse post-order.
    pub rpo: Vec<BlockId>,
}

impl Dominators {
    /// Compute immediate dominators from predecessor lists.
    pub fn compute(n: usize, entry: BlockId, preds: &[Vec<BlockId>]) -> Dominators {
        // Build successor lists from preds for the DFS.
        let mut succs = vec![Vec::new(); n];
        for (b, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p].push(b);
            }
        }
        // Iterative post-order DFS from entry.
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        visited[entry] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b].len() {
                let s = succs[b][*i];
                *i += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b] = i;
        }

        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[entry] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b] {
                    if idom[p].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => Self::intersect(cur, p, &idom, &rpo_index),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b] != Some(ni) {
                        idom[b] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        Dominators {
            idom,
            rpo_index,
            rpo,
        }
    }

    fn intersect(
        mut a: BlockId,
        mut b: BlockId,
        idom: &[Option<BlockId>],
        rpo_index: &[usize],
    ) -> BlockId {
        while a != b {
            while rpo_index[a] > rpo_index[b] {
                a = idom[a].expect("processed block must have idom");
            }
            while rpo_index[b] > rpo_index[a] {
                b = idom[b].expect("processed block must have idom");
            }
        }
        a
    }

    /// Does `a` dominate `b`? (Reflexive.)
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur] {
                Some(i) if i != cur => cur = i,
                _ => return false,
            }
        }
    }

    /// Dominance frontiers.
    pub fn frontiers(&self, preds: &[Vec<BlockId>]) -> Vec<Vec<BlockId>> {
        let n = preds.len();
        let mut df = vec![Vec::new(); n];
        for (b, b_preds) in preds.iter().enumerate() {
            if b_preds.len() >= 2 {
                for &p in b_preds {
                    if self.idom[p].is_none() {
                        continue; // unreachable
                    }
                    let mut runner = p;
                    while runner != self.idom[b].expect("reachable join has idom") {
                        if !df[runner].contains(&b) {
                            df[runner].push(b);
                        }
                        runner = self.idom[runner].expect("runner has idom");
                    }
                }
            }
        }
        df
    }

    /// Dominator-tree children.
    pub fn children(&self) -> Vec<Vec<BlockId>> {
        let mut ch = vec![Vec::new(); self.idom.len()];
        for (b, &i) in self.idom.iter().enumerate() {
            if let Some(i) = i {
                if i != b {
                    ch[i].push(b);
                }
            }
        }
        ch
    }
}

// ---------------------------------------------------------------------------
// SSA construction

/// Build SSA form from a CFG.
pub fn build(cfg: &Cfg, catalog: &Catalog) -> Result<SsaProgram> {
    let mut cfg = compact_reachable(cfg);
    let preds = cfg.predecessors();
    let n = cfg.blocks.len();
    let dom = Dominators::compute(n, cfg.entry, &preds);
    let df = dom.frontiers(&preds);

    // Definition sites per variable. Parameters count as entry definitions.
    let mut def_sites: HashMap<String, Vec<BlockId>> = HashMap::new();
    for (p, _) in &cfg.params {
        def_sites.entry(p.clone()).or_default().push(cfg.entry);
    }
    for (i, b) in cfg.blocks.iter().enumerate() {
        for (v, _) in &b.stmts {
            def_sites.entry(v.clone()).or_default().push(i);
        }
    }

    // φ placement (iterated dominance frontier).
    let mut phi_vars: Vec<HashSet<String>> = vec![HashSet::new(); n];
    for (var, sites) in &def_sites {
        let mut work: Vec<BlockId> = sites.clone();
        let mut placed: HashSet<BlockId> = HashSet::new();
        while let Some(b) = work.pop() {
            for &f in &df[b] {
                if placed.insert(f) {
                    phi_vars[f].insert(var.clone());
                    work.push(f); // φ is itself a definition
                }
            }
        }
    }

    // Renaming, in place: the blocks take over the CFG's statements and
    // terminators, and the walk renames each right-hand side before its
    // definition gets a fresh name.
    let mut namer = Namer::new(&cfg);
    let mut blocks: Vec<SsaBlock> = cfg
        .blocks
        .iter_mut()
        .map(|b| SsaBlock {
            phis: Vec::new(),
            stmts: std::mem::take(&mut b.stmts),
            term: std::mem::take(&mut b.term),
        })
        .collect();
    // Pre-create φ nodes (targets renamed during the walk).
    for (i, vars) in phi_vars.iter().enumerate() {
        let mut sorted: Vec<&String> = vars.iter().collect();
        sorted.sort(); // determinism
        for v in sorted {
            blocks[i].phis.push(Phi {
                target: v.clone(), // base name placeholder
                args: Vec::new(),
            });
        }
    }
    // Track which base each φ belongs to (parallel to blocks[i].phis).
    let phi_bases: Vec<Vec<String>> = blocks
        .iter()
        .map(|b| b.phis.iter().map(|p| p.target.clone()).collect())
        .collect();

    let mut var_types: HashMap<String, Type> = HashMap::new();
    let children = dom.children();

    // Iterative DFS over the dominator tree with explicit save/restore.
    enum Step {
        Enter(BlockId),
        Leave(Vec<(String, usize)>), // (base, stack length to restore)
    }
    let mut stacks: HashMap<String, Vec<Expr>> = HashMap::new();
    // Parameters: version 0 is the parameter itself.
    for (p, ty) in &cfg.params {
        stacks.insert(p.clone(), vec![Expr::col(p.clone())]);
        var_types.insert(p.clone(), ty.clone());
    }
    let mut work = vec![Step::Enter(cfg.entry)];
    while let Some(step) = work.pop() {
        match step {
            Step::Leave(saved) => {
                for (base, len) in saved {
                    if let Some(st) = stacks.get_mut(&base) {
                        st.truncate(len);
                    }
                }
            }
            Step::Enter(b) => {
                let mut saved: Vec<(String, usize)> = Vec::new();
                let push_def = |base: &str,
                                namer: &mut Namer,
                                stacks: &mut HashMap<String, Vec<Expr>>,
                                saved: &mut Vec<(String, usize)>,
                                var_types: &mut HashMap<String, Type>|
                 -> String {
                    let fresh = namer.fresh(base);
                    let st = stacks.entry(base.to_string()).or_default();
                    saved.push((base.to_string(), st.len()));
                    st.push(Expr::col(fresh.clone()));
                    let ty = cfg.var_types.get(base).cloned().unwrap_or(Type::Unknown);
                    var_types.insert(fresh.clone(), ty);
                    fresh
                };

                // φ targets define first.
                for (pi, base) in phi_bases[b].iter().enumerate() {
                    let fresh = push_def(base, &mut namer, &mut stacks, &mut saved, &mut var_types);
                    blocks[b].phis[pi].target = fresh;
                }
                // Statements: rewrite RHS with current names, then define.
                for (name, e) in &mut blocks[b].stmts {
                    rename_expr(e, &stacks, catalog);
                    *name = push_def(name, &mut namer, &mut stacks, &mut saved, &mut var_types);
                }
                // Terminator expressions.
                match &mut blocks[b].term {
                    Term::Branch { cond: e, .. } | Term::Return(e) => {
                        rename_expr(e, &stacks, catalog)
                    }
                    _ => {}
                }
                // Fill φ args of successors for the edge b -> s.
                for s in blocks[b].term.successors() {
                    for (pi, base) in phi_bases[s].iter().enumerate() {
                        let arg = stacks
                            .get(base)
                            .and_then(|st| st.last().cloned())
                            .unwrap_or_else(Expr::null);
                        blocks[s].phis[pi].args.push((b, PhiArg(arg)));
                    }
                }
                work.push(Step::Leave(saved));
                for &c in children[b].iter().rev() {
                    work.push(Step::Enter(c));
                }
            }
        }
    }

    let prog = SsaProgram {
        name: cfg.name.clone(),
        params: cfg.params.clone(),
        returns: cfg.returns.clone(),
        var_types,
        blocks,
        entry: cfg.entry,
    };
    prog.validate()?;
    Ok(prog)
}

/// Apply the current top-of-stack names to an expression, in place.
fn rename_expr(e: &mut Expr, stacks: &HashMap<String, Vec<Expr>>, catalog: &Catalog) {
    // Names without a stack are not variables: the planner resolves them
    // (genuine columns). Lowering records every variable, so each one has a
    // stack.
    let current = |base: &str| match stacks.get(base)?.last() {
        // Identity mappings (param version 0) can be skipped.
        Some(Expr::Column {
            qualifier: None,
            name,
        }) if name == base => None,
        Some(top) => Some(top.clone()),
        // Variable exists but has no definition on this path: reading it
        // yields NULL (PL/pgSQL initializes to NULL).
        None => Some(Expr::null()),
    };
    subst_expr(e, &current, catalog)
}

/// Generates unique SSA names in the paper's style (`reward1`, `step2`).
struct Namer {
    counters: HashMap<String, u32>,
    used: HashSet<String>,
}

impl Namer {
    fn new(cfg: &Cfg) -> Namer {
        Namer {
            counters: HashMap::new(),
            used: cfg.var_types.keys().cloned().collect(),
        }
    }

    fn fresh(&mut self, base: &str) -> String {
        loop {
            let c = self.counters.entry(base.to_string()).or_insert(0);
            *c += 1;
            // `reward` -> `reward1`; guard against bases ending in digits
            // (`x1` + version 1 would collide with `x11`).
            let candidate = if base.ends_with(|ch: char| ch.is_ascii_digit()) {
                format!("{base}_{c}")
            } else {
                format!("{base}{c}")
            };
            if self.used.insert(candidate.clone()) {
                return candidate;
            }
        }
    }
}

/// Drop unreachable blocks and remap ids.
fn compact_reachable(cfg: &Cfg) -> Cfg {
    let n = cfg.blocks.len();
    let mut reachable = vec![false; n];
    let mut stack = vec![cfg.entry];
    reachable[cfg.entry] = true;
    while let Some(b) = stack.pop() {
        for s in cfg.blocks[b].term.successors() {
            if !reachable[s] {
                reachable[s] = true;
                stack.push(s);
            }
        }
    }
    if reachable.iter().all(|&r| r) {
        return cfg.clone();
    }
    let mut remap = vec![usize::MAX; n];
    let mut blocks = Vec::new();
    for (i, b) in cfg.blocks.iter().enumerate() {
        if reachable[i] {
            remap[i] = blocks.len();
            blocks.push(b.clone());
        }
    }
    for b in &mut blocks {
        b.term.map_targets(|t| remap[t]);
    }
    Cfg {
        name: cfg.name.clone(),
        params: cfg.params.clone(),
        returns: cfg.returns.clone(),
        var_types: cfg.var_types.clone(),
        blocks,
        entry: remap[cfg.entry],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaway_plsql::parse_create_function;

    fn ssa_of(body: &str) -> SsaProgram {
        let sql = format!("CREATE FUNCTION f(n int) RETURNS int AS $$ {body} $$ LANGUAGE plpgsql");
        let f = parse_create_function(&sql).unwrap();
        let cat = Catalog::new();
        let cfg = crate::cfg::lower(&f, &cat).unwrap();
        build(&cfg, &cat).unwrap()
    }

    #[test]
    fn straight_line_gets_versions() {
        let p = ssa_of("DECLARE a int := 0; BEGIN a := a + 1; a := a + n; RETURN a; END");
        p.validate().unwrap();
        let text = p.to_text();
        assert!(text.contains("a1 <- 0"), "{text}");
        assert!(text.contains("a2 <- a1 + 1"), "{text}");
        assert!(text.contains("a3 <- a2 + n"), "{text}");
        assert!(text.contains("return a3"), "{text}");
    }

    #[test]
    fn loop_introduces_phi() {
        let p = ssa_of(
            "DECLARE i int := 0; \
             BEGIN WHILE i < n LOOP i := i + 1; END LOOP; RETURN i; END",
        );
        p.validate().unwrap();
        let text = p.to_text();
        assert!(text.contains("phi("), "loop head must carry a phi:\n{text}");
        // The phi merges the init (i1) and the increment (i3 or similar).
        let phis: usize = p.blocks.iter().map(|b| b.phis.len()).sum();
        assert!(phis >= 1);
    }

    #[test]
    fn diamond_join_phi_has_two_args() {
        let p = ssa_of(
            "DECLARE r int := 0; \
             BEGIN IF n > 0 THEN r := 1; ELSE r := 2; END IF; RETURN r; END",
        );
        p.validate().unwrap();
        let join_phi = p
            .blocks
            .iter()
            .flat_map(|b| &b.phis)
            .find(|phi| phi.target.starts_with('r'))
            .expect("join must merge r");
        assert_eq!(join_phi.args.len(), 2);
    }

    #[test]
    fn embedded_query_variables_are_renamed() {
        // Reproduces the Figure 5 effect: Q1[location] -> Q1[location1].
        let mut session = plaway_engine::Session::default();
        session
            .run("CREATE TABLE policy (loc int, action text)")
            .unwrap();
        let sql = "CREATE FUNCTION f(n int) RETURNS int AS $$ \
                   DECLARE location int := n; movement text; \
                   BEGIN \
                     location := location + 1; \
                     movement := (SELECT p.action FROM policy AS p WHERE location = p.loc); \
                     RETURN length(movement); \
                   END $$ LANGUAGE plpgsql";
        let f = parse_create_function(sql).unwrap();
        let cfg = crate::cfg::lower(&f, &session.catalog).unwrap();
        let p = build(&cfg, &session.catalog).unwrap();
        let text = p.to_text();
        assert!(
            text.contains("location2 = p.loc"),
            "embedded query must see the renamed variable:\n{text}"
        );
    }

    #[test]
    fn uninitialized_path_reads_null() {
        let p = ssa_of(
            "DECLARE x int; \
             BEGIN IF n > 0 THEN x := 1; END IF; RETURN x; END",
        );
        p.validate().unwrap();
        let text = p.to_text();
        // One φ arg for x along the untaken path must be the declared NULL
        // initializer (decls lower to x <- NULL in the entry block).
        assert!(text.contains("x1 <- NULL"), "{text}");
    }

    #[test]
    fn nested_loops_validate() {
        let p = ssa_of(
            "DECLARE s int := 0; \
             BEGIN \
               FOR i IN 1..n LOOP \
                 FOR j IN 1..i LOOP \
                   s := s + j; \
                   EXIT WHEN s > 100; \
                 END LOOP; \
                 CONTINUE WHEN s % 2 = 0; \
                 s := s + 1; \
               END LOOP; \
               RETURN s; END",
        );
        p.validate().unwrap();
    }

    #[test]
    fn dominators_on_diamond() {
        //     0
        //    / \
        //   1   2
        //    \ /
        //     3
        let preds = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let dom = Dominators::compute(4, 0, &preds);
        assert_eq!(dom.idom[0], Some(0));
        assert_eq!(dom.idom[1], Some(0));
        assert_eq!(dom.idom[2], Some(0));
        assert_eq!(dom.idom[3], Some(0), "join is dominated by the fork");
        assert!(dom.dominates(0, 3));
        assert!(!dom.dominates(1, 3));
        let df = dom.frontiers(&preds);
        assert_eq!(df[1], vec![3]);
        assert_eq!(df[2], vec![3]);
        assert!(df[0].is_empty());
    }

    #[test]
    fn dominators_on_loop() {
        // 0 -> 1 -> 2 -> 1, 1 -> 3
        let preds = vec![vec![], vec![0, 2], vec![1], vec![1]];
        let dom = Dominators::compute(4, 0, &preds);
        assert_eq!(dom.idom[1], Some(0));
        assert_eq!(dom.idom[2], Some(1));
        assert_eq!(dom.idom[3], Some(1));
        let df = dom.frontiers(&preds);
        assert!(df[2].contains(&1), "back edge source has head in frontier");
        assert!(df[1].contains(&1), "loop head is in its own frontier");
    }

    #[test]
    fn unreachable_code_is_dropped() {
        let p = ssa_of("BEGIN RETURN 1; END");
        // Lowering may create trailing blocks; SSA must only keep reachable.
        for (i, b) in p.blocks.iter().enumerate() {
            assert!(
                !matches!(b.term, Term::Unfinished),
                "block L{i} left unfinished"
            );
        }
        p.validate().unwrap();
    }

    #[test]
    fn name_collision_guard() {
        // A variable literally named `a1` must not collide with versions
        // of `a`.
        let p = ssa_of(
            "DECLARE a int := 1; a1 int := 2; \
             BEGIN a := a + a1; RETURN a; END",
        );
        p.validate().unwrap();
        let names: HashSet<&String> = p.var_types.keys().collect();
        assert!(names.len() >= 4, "all SSA names unique: {names:?}");
    }

    #[test]
    fn fall_through_if_without_else() {
        let p = ssa_of(
            "DECLARE r int := 0; \
             BEGIN IF n > 5 THEN r := 1; END IF; RETURN r; END",
        );
        p.validate().unwrap();
        let phi = p
            .blocks
            .iter()
            .flat_map(|b| &b.phis)
            .find(|phi| phi.target.starts_with('r'))
            .expect("phi for r");
        // One arm keeps r1 (the initializer), the other brings r2.
        let args: Vec<String> = phi.args.iter().map(|(_, a)| a.0.to_string()).collect();
        assert_eq!(args.len(), 2, "{args:?}");
        assert!(args.contains(&"r1".to_string()), "{args:?}");
    }
}
