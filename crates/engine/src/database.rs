//! Shared database state: the committed catalog and the cross-session
//! plan cache.
//!
//! A [`Database`] is what N concurrent sessions attach to. The committed
//! [`Catalog`] lives behind `RwLock<Arc<Catalog>>` (an `ArcSwap` built from
//! std parts): readers take the read lock just long enough to clone the
//! `Arc`, so a snapshot is two atomic ops and never waits on a writer's
//! *compute*. Writers run copy-on-write — clone the committed catalog
//! (cheap: table rows and indexes are `Arc`-shared, see
//! [`crate::catalog::Table`]), mutate the private clone, then swap it in
//! under the brief write lock. A failed mutation commits nothing, which
//! gives DDL/DML statement-level atomicity for free.
//!
//! The plan cache is keyed by statement text (plus parameter-scope shape)
//! and shared across sessions; entries carry the
//! [`Catalog::schema_version`] they were planned against, so any DDL
//! commit — in *another* session included — invalidates them on next
//! lookup rather than serving a stale plan. Data commits keep them: no
//! plan holds rows.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use plaway_common::Result;

use crate::catalog::Catalog;
use crate::config::EngineConfig;
use crate::metrics::{MetricsRegistry, MetricsSnapshot, PlanCacheStats};
use crate::planner::PreparedPlan;
use crate::session::Session;

/// Soft cap on shared plan-cache entries; on overflow, entries planned
/// against superseded schema versions are evicted first.
const PLAN_CACHE_CAP: usize = 4096;

/// Shared, thread-safe database state. See the module docs for the
/// concurrency model; `DESIGN.md` has the full write-up.
#[derive(Debug)]
pub struct Database {
    /// The committed catalog. `read → Arc::clone → drop guard` is the only
    /// reader protocol; the guard must never be held across user code.
    state: RwLock<Arc<Catalog>>,
    /// Serializes writers so every commit's read-modify-write sees the
    /// latest committed state (no lost updates between concurrent commits).
    writer: Mutex<()>,
    /// Statement text (+ param scope) -> prepared plan, shared by all
    /// sessions. Entries are validated against the schema version at
    /// lookup time.
    plans: RwLock<HashMap<String, Arc<PreparedPlan>>>,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    plan_cache_evictions: AtomicU64,
    /// Cross-session execution counters, folded in at statement boundaries
    /// (see [`crate::metrics`]).
    metrics: MetricsRegistry,
    /// Monotonic session-id source; ids tag trace events.
    next_session_id: AtomicU64,
    /// Buffered structured trace events (JSON lines), only written to when
    /// [`EngineConfig::trace`] is on.
    trace: Mutex<Vec<String>>,
    /// Engine cost model every attached session inherits.
    pub config: EngineConfig,
}

impl Database {
    pub fn new(config: EngineConfig) -> Arc<Database> {
        Arc::new(Database {
            state: RwLock::new(Arc::new(Catalog::new())),
            writer: Mutex::new(()),
            plans: RwLock::new(HashMap::new()),
            plan_cache_hits: AtomicU64::new(0),
            plan_cache_misses: AtomicU64::new(0),
            plan_cache_evictions: AtomicU64::new(0),
            metrics: MetricsRegistry::default(),
            next_session_id: AtomicU64::new(1),
            trace: Mutex::new(Vec::new()),
            config,
        })
    }

    /// Open a new session against this database.
    pub fn session(self: &Arc<Database>) -> Session {
        Session::attach(self)
    }

    /// The committed catalog, as a shared snapshot. Readers work off this
    /// `Arc` for the remainder of their statement: a concurrent commit
    /// swaps the committed pointer but can never mutate rows the snapshot
    /// holds.
    pub fn snapshot(&self) -> Arc<Catalog> {
        Arc::clone(&read_lock(&self.state))
    }

    /// Run a copy-on-write commit: `f` gets a private clone of the latest
    /// committed catalog; if it succeeds the clone becomes the committed
    /// state, if it errs nothing changes. Writers are serialized; readers
    /// are only blocked for the final pointer swap. Returns `f`'s result
    /// and the snapshot this commit installed: a concurrent writer may
    /// already have superseded it, so a session that must read its own
    /// commit keeps this `Arc` rather than re-reading the committed
    /// pointer.
    pub fn commit<R>(
        &self,
        f: impl FnOnce(&mut Catalog) -> Result<R>,
    ) -> Result<(R, Arc<Catalog>)> {
        let _writer: MutexGuard<'_, ()> = lock(&self.writer);
        let mut next: Catalog = (*self.snapshot()).clone();
        let out = f(&mut next)?;
        let next = Arc::new(next);
        *write_lock(&self.state) = Arc::clone(&next);
        self.metrics.record_commit();
        Ok((out, next))
    }

    /// Look up a cached plan. Returns it only if it was planned against
    /// `schema_version`; a stale entry counts as a miss (the caller
    /// replans and [`Database::store_plan`] replaces it).
    pub fn cached_plan(&self, key: &str, schema_version: u64) -> Option<Arc<PreparedPlan>> {
        let hit = read_lock(&self.plans)
            .get(key)
            .filter(|p| p.schema_version == schema_version)
            .map(Arc::clone);
        match hit {
            Some(p) => {
                self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
                Some(p)
            }
            None => {
                self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publish a freshly prepared plan for other sessions to reuse.
    pub fn store_plan(&self, key: String, plan: Arc<PreparedPlan>) {
        let mut plans = write_lock(&self.plans);
        if plans.len() >= PLAN_CACHE_CAP && !plans.contains_key(&key) {
            let before = plans.len();
            let live = plan.schema_version;
            plans.retain(|_, p| p.schema_version == live);
            if plans.len() >= PLAN_CACHE_CAP {
                plans.clear();
            }
            self.plan_cache_evictions
                .fetch_add((before - plans.len()) as u64, Ordering::Relaxed);
        }
        plans.insert(key, plan);
    }

    /// Cumulative shared plan-cache counters across all sessions.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.plan_cache_hits.load(Ordering::Relaxed),
            misses: self.plan_cache_misses.load(Ordering::Relaxed),
            evictions: self.plan_cache_evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of live entries in the shared plan cache.
    pub fn plan_cache_len(&self) -> usize {
        read_lock(&self.plans).len()
    }

    /// Point-in-time view of the engine-wide metrics: the registry's
    /// statement totals, the plan-cache counters, and the committed catalog
    /// version. See [`MetricsSnapshot::to_json`] for the JSON form.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics
            .snapshot(self.plan_cache_stats(), self.snapshot().version)
    }

    /// Fold one finished statement into the shared registry (called by
    /// sessions at statement boundaries).
    pub(crate) fn record_statement(&self, ns: u64, delta: &crate::exec::RuntimeStats) {
        self.metrics.record_statement(ns, delta);
    }

    /// Next session id (trace events are tagged with it).
    pub(crate) fn allocate_session_id(&self) -> u64 {
        self.next_session_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Append one structured trace event. Callers must gate on
    /// [`EngineConfig::trace`]; the buffer itself is always present so the
    /// accessor works (and returns nothing) with tracing off.
    pub(crate) fn trace_event(&self, line: String) {
        lock(&self.trace).push(line);
    }

    /// Drain and return the buffered trace events (JSON lines, in arrival
    /// order across all sessions).
    pub fn take_trace(&self) -> Vec<String> {
        std::mem::take(&mut *lock(&self.trace))
    }
}

// Lock poisoning only happens when a thread panics while holding the
// guard; the protected data here (an Arc pointer, a plan map) is never
// left half-written across a panic point, so recovering the inner value
// is sound and keeps the serving loop alive after a worker dies.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Column;
    use plaway_common::{Error, Type, Value};

    fn int_col(name: &str) -> Column {
        Column {
            name: name.to_string(),
            ty: Type::Int,
        }
    }

    #[test]
    fn snapshots_are_immutable_under_commit() {
        let db = Database::new(EngineConfig::raw());
        db.commit(|cat| cat.create_table("t", vec![int_col("a")]))
            .unwrap();
        let before = db.snapshot();
        let (_, installed) = db
            .commit(|cat| cat.bulk_insert("t", vec![vec![Value::Int(1)]]))
            .unwrap();
        assert!(Arc::ptr_eq(&installed, &db.snapshot()));
        // The old snapshot still sees zero rows; the new one sees the insert.
        assert_eq!(before.table("t").unwrap().rows.len(), 0);
        assert_eq!(db.snapshot().table("t").unwrap().rows.len(), 1);
        assert!(db.snapshot().version > before.version);
    }

    #[test]
    fn failed_commit_changes_nothing() {
        let db = Database::new(EngineConfig::raw());
        db.commit(|cat| cat.create_table("t", vec![int_col("a")]))
            .unwrap();
        let v = db.snapshot().version;
        let err: Result<((), _)> = db.commit(|cat| {
            cat.bulk_insert("t", vec![vec![Value::Int(7)]])?;
            Err(Error::exec("boom"))
        });
        assert!(err.is_err());
        // The partial bulk_insert inside the failed commit is discarded.
        assert_eq!(db.snapshot().table("t").unwrap().rows.len(), 0);
        assert_eq!(db.snapshot().version, v);
    }

    #[test]
    fn stale_plans_count_as_misses() {
        let db = Database::new(EngineConfig::raw());
        let plan = Arc::new(PreparedPlan::test_stub("SELECT 1", 1));
        db.store_plan("SELECT 1".into(), Arc::clone(&plan));
        assert!(db.cached_plan("SELECT 1", 1).is_some());
        assert!(db.cached_plan("SELECT 1", 2).is_none());
        assert!(db.cached_plan("SELECT 2", 1).is_none());
        assert_eq!(
            db.plan_cache_stats(),
            PlanCacheStats {
                hits: 1,
                misses: 2,
                evictions: 0
            }
        );
    }

    #[test]
    fn plan_cache_evicts_stale_versions_at_cap() {
        let db = Database::new(EngineConfig::raw());
        for i in 0..PLAN_CACHE_CAP {
            db.store_plan(
                format!("SELECT {i}"),
                Arc::new(PreparedPlan::test_stub(&format!("SELECT {i}"), 1)),
            );
        }
        assert_eq!(db.plan_cache_len(), PLAN_CACHE_CAP);
        // Everything in the cache is stale relative to schema version 2,
        // so the next insert sweeps the lot.
        db.store_plan(
            "fresh".into(),
            Arc::new(PreparedPlan::test_stub("fresh", 2)),
        );
        assert_eq!(db.plan_cache_len(), 1);
        assert_eq!(
            db.plan_cache_stats().evictions,
            PLAN_CACHE_CAP as u64,
            "the capacity sweep must count every discarded entry"
        );
    }
}
