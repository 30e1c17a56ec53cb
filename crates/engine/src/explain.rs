//! EXPLAIN ANALYZE instrumentation: per-plan-node observations collected
//! while a statement runs, and the renderer that folds them back onto the
//! plan tree.
//!
//! The collection side lives in `crate::exec::exec_into`: when the
//! runtime carries an [`AnalyzeState`], every dispatched node is bracketed
//! with a wall clock and counter deltas, less the time and VM ops its
//! consumers spent on the rows it pushed them, so a node's figures include
//! its children and exclude its consumers. The map is keyed by plan-node
//! *address*, which is stable for the duration of one execution because
//! plans are immutable behind an `Arc`. Only a fixpoint's recursive arm,
//! which the fixpoint loop runs row by row without dispatching its
//! nodes, has no entry and renders as `(never executed)`; its work is
//! visible through the `fused_rows` and VM-op counters of the `With` node
//! that ran it, and through the fixpoint summary lines.

use std::collections::{BTreeMap, HashMap};

use crate::ir::PlanNode;

/// Observations for one plan node, accumulated across loops (a node under
/// a nest-loop inner side or a recursive arm executes many times).
#[derive(Debug, Default, Clone, Copy)]
pub struct NodeObs {
    /// Times the node was dispatched through the executor.
    pub loops: u64,
    /// Total rows handed to the consumer across all loops.
    pub rows: u64,
    /// Cumulative wall time (includes children, excludes the consumer),
    /// summed across loops.
    pub ns: u64,
    /// Expression-VM opcodes dispatched while this subtree ran (cumulative,
    /// like `ns`).
    pub vm_ops: u64,
    /// Rows driven through the fused fixpoint transition under this subtree.
    pub fused_rows: u64,
}

/// One recursive CTE's fixpoint internals, merged across executions of the
/// same plan-local CTE index.
#[derive(Debug, Default, Clone, Copy)]
pub struct FixpointObs {
    /// Fixpoint executions merged into this entry (re-entry via UDFs or
    /// repeated prepared-statement runs within one ANALYZE).
    pub executions: u64,
    /// Driver iterations until the working set drained.
    pub iterations: u64,
    /// Working-set high-water mark (rows), maxed across executions.
    pub peak: u64,
    /// Rows retired into the result (`WITH RETIRE` only; zero otherwise).
    pub retired: u64,
    /// Did any merged execution finish in the monomorphized tier?
    pub mono: bool,
}

/// Sink for one EXPLAIN ANALYZE execution.
#[derive(Debug, Default)]
pub struct AnalyzeState {
    nodes: HashMap<usize, NodeObs>,
    /// Keyed by plan-local CTE index; BTreeMap for deterministic rendering.
    fixpoints: BTreeMap<usize, (&'static str, FixpointObs)>,
    /// `Memoize` hits and misses over the whole execution.
    memo: (u64, u64),
}

fn key(plan: &PlanNode) -> usize {
    plan as *const PlanNode as usize
}

impl AnalyzeState {
    pub(crate) fn record_node(
        &mut self,
        plan: &PlanNode,
        rows: u64,
        ns: u64,
        vm_ops: u64,
        fused_rows: u64,
    ) {
        let obs = self.nodes.entry(key(plan)).or_default();
        obs.loops += 1;
        obs.rows += rows;
        obs.ns += ns;
        obs.vm_ops += vm_ops;
        obs.fused_rows += fused_rows;
    }

    pub(crate) fn record_fixpoint(
        &mut self,
        index: usize,
        mode: &'static str,
        iterations: u64,
        peak: u64,
        retired: u64,
        tier: &'static str,
    ) {
        let (_, fx) = self
            .fixpoints
            .entry(index)
            .or_insert((mode, FixpointObs::default()));
        fx.executions += 1;
        fx.iterations += iterations;
        fx.peak = fx.peak.max(peak);
        fx.retired += retired;
        fx.mono |= tier == "mono";
    }

    pub(crate) fn record_memo(&mut self, hits: u64, misses: u64) {
        self.memo = (hits, misses);
    }

    /// Total wall time observed at the plan root — the cumulative ns of the
    /// tree's top node (zero when the root never ran).
    pub fn root_ns(&self, plan: &PlanNode) -> u64 {
        self.nodes.get(&key(plan)).map(|o| o.ns).unwrap_or(0)
    }

    /// Render the annotated plan: one line per node in `PlanNode::explain`
    /// order carrying loops / rows / cumulative / self time, followed by
    /// one summary line per recursive fixpoint and, when the plan holds
    /// `Memoize` nodes (most sit in expression sub-plans, which are not
    /// rendered as tree nodes), one memo summary line.
    pub fn render(&self, plan: &PlanNode) -> Vec<String> {
        let mut out = Vec::new();
        self.render_node(plan, 0, &mut out);
        for (index, (mode, fx)) in &self.fixpoints {
            let tier = if fx.mono { "mono" } else { "vm" };
            out.push(format!(
                "Fixpoint cte#{index} [{mode}]: executions={} iterations={} \
                 working-set peak={} retired={} tier={tier}",
                fx.executions, fx.iterations, fx.peak, fx.retired
            ));
        }
        let nodes = plan.memo_nodes();
        if nodes > 0 {
            let (hits, misses) = self.memo;
            out.push(format!(
                "Memoize: nodes={nodes} hits={hits} misses={misses}"
            ));
        }
        out
    }

    fn render_node(&self, plan: &PlanNode, depth: usize, out: &mut Vec<String>) {
        let pad = "  ".repeat(depth);
        let line = match self.nodes.get(&key(plan)) {
            Some(obs) => {
                let mut child_ns: u64 = 0;
                plan.for_each_child(&mut |c| {
                    child_ns += self.nodes.get(&key(c)).map(|o| o.ns).unwrap_or(0);
                });
                let self_ns = obs.ns.saturating_sub(child_ns);
                let mut extra = String::new();
                if obs.vm_ops > 0 {
                    extra.push_str(&format!(" vm_ops={}", obs.vm_ops));
                }
                if obs.fused_rows > 0 {
                    extra.push_str(&format!(" fused_rows={}", obs.fused_rows));
                }
                format!(
                    "{pad}{} (loops={} rows={} time={}ns self={}ns{extra})",
                    plan.explain_line(),
                    obs.loops,
                    obs.rows,
                    obs.ns,
                    self_ns
                )
            }
            None => format!("{pad}{} (never executed)", plan.explain_line()),
        };
        out.push(line);
        plan.for_each_child(&mut |c| self.render_node(c, depth + 1, out));
    }
}
