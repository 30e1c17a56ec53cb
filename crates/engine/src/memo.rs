//! Per-execution sub-plan memo.
//!
//! One [`MemoCache`] lives on each [`crate::exec::Runtime`], so entries die
//! with the execution that made them and serving threads share nothing.
//! Two producers feed it:
//!
//! * [`crate::ir::PlanNode::Memoize`] stores the rows of a pure blocking
//!   subtree under the values of the outer slots and parameters it reads
//!   (walk's Q2 window runs once per distinct `(location, action)`);
//! * the VM's [`crate::vm::Op::Subplan`] and [`crate::vm::Op::Exists`]
//!   store a closed sub-plan's value under the empty key.
//!
//! Keys compare by variant and bit pattern, not by [`Value`]'s `Eq`, which
//! equates `Int(3)` with `Float(3.0)`: a float caller must never receive an
//! int caller's rows. Each site's entries are bounded by `work_mem` in the
//! tuplestore's byte accounting; a full site stops inserting and keeps
//! serving what it has. A site whose keys never repeat goes *cold* (see
//! `COLD_MISSES`) and stops memoizing for the rest of the execution.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use plaway_common::Value;

use crate::catalog::Row;
use crate::tuplestore::Tuplestore;

/// Misses a site may take without a single hit before it stops memoizing
/// for the rest of the execution. A key stream that never repeats (graph's
/// hop-by-hop frontier) then stops paying for hashing and copying, while a
/// site whose keys do repeat (walk's ~7 keys over 60–140 steps) has long
/// had its first hit by then.
pub(crate) const COLD_MISSES: u64 = 16;

/// A memo site (see [`MemoCache::site`]) and the key values it was reached
/// with.
pub(crate) struct MemoKey {
    site: usize,
    values: Vec<Value>,
}

impl MemoKey {
    pub(crate) fn new(site: usize, values: Vec<Value>) -> MemoKey {
        MemoKey { site, values }
    }
}

/// Type- and bit-exact equality.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Text(x), Value::Text(y)) => x == y,
        (Value::Record(x), Value::Record(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(a, b)| same(a, b))
        }
        _ => false,
    }
}

/// Hash consistent with [`same`].
fn hash_exact<H: Hasher>(v: &Value, h: &mut H) {
    std::mem::discriminant(v).hash(h);
    match v {
        Value::Null => {}
        Value::Bool(b) => b.hash(h),
        Value::Int(i) => i.hash(h),
        Value::Float(f) => f.to_bits().hash(h),
        Value::Text(s) => s.hash(h),
        Value::Record(fields) => {
            fields.len().hash(h);
            for f in fields.iter() {
                hash_exact(f, h);
            }
        }
    }
}

impl PartialEq for MemoKey {
    fn eq(&self, other: &Self) -> bool {
        self.site == other.site
            && self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| same(a, b))
    }
}

impl Eq for MemoKey {}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.site.hash(h);
        for v in &self.values {
            hash_exact(v, h);
        }
    }
}

/// Per-site bookkeeping of one execution.
#[derive(Default)]
struct Site {
    /// Address of the memoized plan's `Arc` (shared by plan clones).
    addr: usize,
    /// Keys plus rows stored, in tuplestore accounting.
    bytes: usize,
    hits: u64,
    misses: u64,
}

/// The memo of one execution.
#[derive(Default)]
pub struct MemoCache {
    entries: HashMap<MemoKey, Arc<Vec<Row>>>,
    sites: Vec<Site>,
}

impl MemoCache {
    /// The site whose plan sits at `addr`, registered on first use. An
    /// execution meets a handful of sites, so a scan beats hashing.
    pub(crate) fn site(&mut self, addr: usize) -> usize {
        match self.sites.iter().position(|s| s.addr == addr) {
            Some(i) => i,
            None => {
                self.sites.push(Site {
                    addr,
                    ..Site::default()
                });
                self.sites.len() - 1
            }
        }
    }

    /// Has the site missed [`COLD_MISSES`] times without a single hit?
    pub(crate) fn is_cold(&self, site: usize) -> bool {
        let s = &self.sites[site];
        s.hits == 0 && s.misses >= COLD_MISSES
    }

    /// The rows stored under `key`, shared rather than copied; counts a
    /// hit or a miss for its site.
    pub(crate) fn lookup(&mut self, key: &MemoKey) -> Option<Arc<Vec<Row>>> {
        let rows = self.entries.get(key).cloned();
        let site = &mut self.sites[key.site];
        match rows {
            Some(_) => site.hits += 1,
            None => site.misses += 1,
        }
        rows
    }

    /// Remember `rows` under `key`, unless that would take the site's
    /// entries past `limit` bytes.
    pub(crate) fn store(&mut self, key: MemoKey, rows: Arc<Vec<Row>>, limit: usize) {
        let size = Tuplestore::row_bytes(&key.values)
            + rows.iter().map(|r| Tuplestore::row_bytes(r)).sum::<usize>();
        let used = &mut self.sites[key.site].bytes;
        if *used + size > limit {
            return;
        }
        *used += size;
        if self.entries.capacity() == 0 {
            // Room for a cold site's worth of misses without regrowing.
            self.entries.reserve(COLD_MISSES as usize);
        }
        self.entries.insert(key, rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::exec::{exec, walk_expr_plans, EvalEnv, Scopes};
    use crate::ir::PlanNode;
    use crate::planner::ParamScope;
    use crate::session::Session;

    fn session() -> Session {
        let mut s = Session::new(EngineConfig::raw());
        s.run("CREATE TABLE kv (k int, v int)").unwrap();
        s.run("INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)")
            .unwrap();
        s
    }

    fn memo_nodes(s: &mut Session, sql: &str) -> usize {
        s.prepare(sql, &ParamScope::default())
            .unwrap()
            .plan
            .memo_nodes()
    }

    /// The first `Memoize` node in `p`, searching expression sub-plans too.
    /// (A clone shares the memo site: the input sits behind the same `Arc`.)
    fn find_memo(p: &PlanNode) -> Option<PlanNode> {
        if matches!(p, PlanNode::Memoize { .. }) {
            return Some(p.clone());
        }
        let mut found = None;
        p.for_each_child(&mut |c| found = found.take().or_else(|| find_memo(c)));
        p.for_each_expr(&mut |e| {
            walk_expr_plans(e, &mut |q| found = found.take().or_else(|| find_memo(q)));
        });
        found
    }

    #[test]
    fn each_key_type_gets_its_own_result() {
        let mut s = session();
        // 3 and 3.0 are equal under `Value`'s `Eq`, but the sub-plan's text
        // output tells them apart; NULL is a key of its own.
        let r = s
            .run(
                "SELECT (SELECT max(CAST(o.x AS text)) FROM kv) \
                 FROM (VALUES (3), (3.0), (NULL), (3), (3.0), (NULL)) AS o(x)",
            )
            .unwrap();
        let got: Vec<Value> = r.rows.into_iter().map(|mut row| row.remove(0)).collect();
        let (int, float) = (Value::text("3"), Value::text("3.0"));
        let want = [
            int.clone(),
            float.clone(),
            Value::Null,
            int,
            float,
            Value::Null,
        ];
        assert_eq!(got, want);
        assert_eq!((s.stats.memo_hits, s.stats.memo_misses), (3, 3));
    }

    #[test]
    fn volatile_subtrees_are_not_memoized() {
        let mut s = session();
        let pure = "SELECT (SELECT max(kv.v + o.x) FROM kv) FROM (VALUES (1), (1)) AS o(x)";
        assert_eq!(memo_nodes(&mut s, pure), 1);
        let volatile =
            "SELECT (SELECT max(kv.v + o.x + random()) FROM kv) FROM (VALUES (1), (1)) AS o(x)";
        assert_eq!(memo_nodes(&mut s, volatile), 0);
    }

    #[test]
    fn cte_and_working_table_readers_are_not_memoized() {
        let mut s = session();
        let cte = "WITH w AS (SELECT k FROM kv) \
                   SELECT (SELECT max(w.k) FROM w WHERE w.k <= o.x) \
                   FROM (VALUES (1), (2)) AS o(x)";
        assert_eq!(memo_nodes(&mut s, cte), 0);
        let working = "WITH RECURSIVE c(n) AS (SELECT 1 UNION ALL \
                       SELECT n + 1 FROM c WHERE n < (SELECT count(*) FROM c)) \
                       SELECT max(n) FROM c";
        assert_eq!(memo_nodes(&mut s, working), 0);
        // A closed aggregate in the same recursive arm is memoized under
        // the empty key.
        let closed = "WITH RECURSIVE c(n) AS (SELECT 1 UNION ALL \
                      SELECT n + 1 FROM c, (SELECT max(v) AS m FROM kv) AS mm WHERE n < mm.m) \
                      SELECT max(n) FROM c";
        assert_eq!(memo_nodes(&mut s, closed), 1);
        assert_eq!(s.query_scalar(closed).unwrap(), Value::Int(30));
        assert_eq!(s.stats.memo_misses, 1);
    }

    #[test]
    fn a_failing_key_fails_on_every_call() {
        let mut s = session();
        let plan = s
            .prepare(
                "SELECT (SELECT max(100 / (kv.k - o.x)) FROM kv) FROM (VALUES (2)) AS o(x)",
                &ParamScope::default(),
            )
            .unwrap();
        let memo = find_memo(&plan.plan).expect("correlated aggregate is memoized");
        let mut rt = s.runtime();
        let mut run = |x: i64| {
            let row = [Value::Int(x)];
            let scopes = Scopes {
                row: &row,
                parent: None,
            };
            let env = EvalEnv {
                scopes: Some(&scopes),
                params: &[],
            };
            exec(&memo, &env, &mut rt).map_err(|e| e.to_string())
        };
        // One execution: the key 2 divides by zero twice, the key 0 runs
        // once and is then served from the memo.
        let first = run(2);
        assert!(first.is_err(), "{first:?}");
        assert_eq!(run(2), first);
        assert_eq!(run(0), run(0));
        drop(rt);
        assert_eq!((s.stats.memo_hits, s.stats.memo_misses), (1, 3));
    }

    #[test]
    fn keys_are_type_and_bit_exact() {
        let mut m = MemoCache::default();
        let site = m.site(0x10);
        let key = |values| MemoKey::new(site, values);
        let int_rows = Arc::new(vec![vec![Value::text("int")]]);
        m.store(key(vec![Value::Int(3)]), Arc::clone(&int_rows), 1 << 20);
        assert!(m.lookup(&key(vec![Value::Float(3.0)])).is_none());
        assert!(m.lookup(&key(vec![Value::Null])).is_none());
        m.store(key(vec![Value::Float(0.0)]), Arc::default(), 1 << 20);
        assert!(m.lookup(&key(vec![Value::Float(-0.0)])).is_none());
        assert!(m.lookup(&key(vec![Value::Float(0.0)])).is_some());
        assert_eq!(m.lookup(&key(vec![Value::Int(3)])).unwrap(), int_rows);
        // Records compare field by field, exactly.
        m.store(key(vec![Value::coord(1, 2)]), Arc::default(), 1 << 20);
        assert!(m.lookup(&key(vec![Value::coord(1, 2)])).is_some());
        let floaty = Value::record(vec![Value::Int(1), Value::Float(2.0)]);
        assert!(m.lookup(&key(vec![floaty])).is_none());
    }

    #[test]
    fn sites_are_separate() {
        let mut m = MemoCache::default();
        let (a, b) = (m.site(0x10), m.site(0x20));
        assert_eq!(m.site(0x10), a);
        let rows = Arc::new(vec![vec![Value::Int(1)]]);
        m.store(MemoKey::new(a, vec![]), rows, 1 << 20);
        assert!(m.lookup(&MemoKey::new(b, vec![])).is_none());
    }

    #[test]
    fn a_full_site_stops_inserting() {
        let mut m = MemoCache::default();
        let (a, b) = (m.site(0x10), m.site(0x20));
        // Site a: 24 (empty key row) + 32 (one int row) = 56 bytes a store.
        // Site b: key rows cost 32 too, so a second entry (2 * 64) would
        // pass the limit.
        for i in 0..4 {
            let rows = Arc::new(vec![vec![Value::Int(i)]]);
            m.store(MemoKey::new(a, vec![]), Arc::clone(&rows), 100);
            m.store(MemoKey::new(b, vec![Value::Int(i)]), rows, 100);
        }
        assert!(m.lookup(&MemoKey::new(a, vec![])).is_some());
        assert!(m.lookup(&MemoKey::new(b, vec![Value::Int(0)])).is_some());
        assert!(m.lookup(&MemoKey::new(b, vec![Value::Int(1)])).is_none());
        assert!(m.lookup(&MemoKey::new(b, vec![Value::Int(3)])).is_none());
    }

    #[test]
    fn a_site_without_hits_goes_cold() {
        let mut m = MemoCache::default();
        let (never, once) = (m.site(0x10), m.site(0x20));
        m.store(
            MemoKey::new(once, vec![Value::Int(0)]),
            Arc::default(),
            1 << 20,
        );
        for i in 0..COLD_MISSES as i64 {
            assert!(!m.is_cold(never));
            let fresh = MemoKey::new(never, vec![Value::Int(i)]);
            assert!(m.lookup(&fresh).is_none());
            m.lookup(&MemoKey::new(once, vec![Value::Int(i)]));
        }
        assert!(m.is_cold(never));
        assert!(!m.is_cold(once), "one hit keeps a site warm");
    }
}
