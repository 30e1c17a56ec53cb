//! Plan-cache correctness: a plan prepared once and executed N times must
//! behave exactly like N fresh prepares — including across catalog
//! mutation, where DDL must invalidate and re-plan rather than serve stale
//! plans, and DML must keep the plan without changing any answer. These
//! tests pin down the `Arc`-shared executor-state redesign (ExecutorStart
//! no longer deep-copies the plan tree).

use std::sync::Arc;

use plaway_common::Value;
use plaway_engine::{Database, EngineConfig, IndexMode, ParamScope, QueryResult, Session};

fn seeded_session() -> Session {
    let mut s = Session::default();
    s.run("CREATE TABLE kv (k int, v int)").unwrap();
    s.run("INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
        .unwrap();
    s
}

/// Execute `sql` through one cached prepare + N executions and through N
/// fresh sessions, and require identical results.
fn assert_cached_matches_fresh(sql: &str, params: &ParamScope, binds: &[Vec<Value>]) {
    let mut cached = seeded_session();
    let plan = cached.prepare(sql, params).unwrap();
    let cached_results: Vec<QueryResult> = binds
        .iter()
        .map(|b| cached.execute_prepared(&plan, b.clone()).unwrap())
        .collect();

    for (bind, cached_result) in binds.iter().zip(&cached_results) {
        let mut fresh = seeded_session();
        let plan = fresh.prepare(sql, params).unwrap();
        let fresh_result = fresh.execute_prepared(&plan, bind.clone()).unwrap();
        assert_eq!(
            &fresh_result, cached_result,
            "cached plan diverged from fresh prepare for {sql:?} with {bind:?}"
        );
    }
}

#[test]
fn repeated_execution_matches_fresh_prepares() {
    let ps = ParamScope::new(vec!["needle".into()]);
    let binds: Vec<Vec<Value>> = (0..6).map(|i| vec![Value::Int(i % 5)]).collect();
    assert_cached_matches_fresh("SELECT v FROM kv WHERE k = needle", &ps, &binds);
    assert_cached_matches_fresh("SELECT sum(v) FROM kv WHERE k <= needle", &ps, &binds);
}

#[test]
fn recursive_plans_are_reexecutable() {
    // The fixpoint pipeline must leave no state behind between executions.
    let mut s = Session::default();
    let ps = ParamScope::new(vec!["n".into()]);
    let plan = s
        .prepare(
            "WITH RECURSIVE c(x, acc) AS (SELECT 1, 0 UNION ALL \
             SELECT x + 1, acc + x FROM c WHERE x <= n) \
             SELECT max(acc) FROM c",
            &ps,
        )
        .unwrap();
    for n in [1i64, 5, 10, 5, 1] {
        let r = s.execute_prepared(&plan, vec![Value::Int(n)]).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(n * (n + 1) / 2), "n={n}");
    }
}

#[test]
fn plan_cache_hits_are_counted_and_reused() {
    let mut s = seeded_session();
    let ps = ParamScope::default();
    let (h0, m0) = (s.plan_cache_hits, s.plan_cache_misses);
    for _ in 0..5 {
        let plan = s.prepare("SELECT count(*) FROM kv", &ps).unwrap();
        s.execute_prepared(&plan, vec![]).unwrap();
    }
    assert_eq!(s.plan_cache_misses - m0, 1, "only the first prepare plans");
    assert_eq!(s.plan_cache_hits - h0, 4, "the rest are cache hits");
}

#[test]
fn dml_keeps_the_plan_and_ddl_replans() {
    let mut s = seeded_session();
    let ps = ParamScope::default();
    let sql = "SELECT count(*) FROM kv";
    let before = s.prepare(sql, &ps).unwrap();
    assert_eq!(
        s.execute_prepared(&before, vec![]).unwrap().rows[0][0],
        Value::Int(4)
    );

    // DML leaves the schema version alone: the re-prepare is a hit on the
    // very same plan, which reads the new rows from the new snapshot.
    s.run("INSERT INTO kv VALUES (5, 50)").unwrap();
    let misses = s.plan_cache_misses;
    let after = s.prepare(sql, &ps).unwrap();
    assert!(
        Arc::ptr_eq(&before, &after),
        "DML must keep the cached plan"
    );
    assert_eq!(s.plan_cache_misses, misses, "DML must not cost a re-plan");
    assert_eq!(
        s.execute_prepared(&after, vec![]).unwrap().rows[0][0],
        Value::Int(5)
    );

    // DDL that changes plan shape: an index turns the scan into a lookup,
    // results must stay identical to pre-index execution.
    let ps_n = ParamScope::new(vec!["needle".into()]);
    let point = "SELECT v FROM kv WHERE k = needle";
    let scan_plan = s.prepare(point, &ps_n).unwrap();
    let scan_result = s.execute_prepared(&scan_plan, vec![Value::Int(3)]).unwrap();
    s.run("CREATE INDEX kv_k ON kv (k)").unwrap();
    let misses = s.plan_cache_misses;
    let index_plan = s.prepare(point, &ps_n).unwrap();
    assert_eq!(s.plan_cache_misses, misses + 1, "CREATE INDEX must re-plan");
    assert!(
        index_plan.plan.explain().contains("IndexLookup"),
        "re-plan after CREATE INDEX must use the index:\n{}",
        index_plan.plan.explain()
    );
    let index_result = s
        .execute_prepared(&index_plan, vec![Value::Int(3)])
        .unwrap();
    assert_eq!(scan_result, index_result);
}

#[test]
fn create_or_replace_in_one_session_invalidates_the_other() {
    // The plan cache is shared across sessions, so DDL in session A must
    // invalidate — not corrupt — a plan session B cached. The hit/miss
    // counters are pinned across the invalidation on both sessions and on
    // the shared database totals.
    let db = Database::new(EngineConfig::raw());
    let mut a = db.session();
    let mut b = db.session();
    a.run("CREATE FUNCTION f(x int) RETURNS int AS $$ SELECT x + 1 $$ LANGUAGE SQL")
        .unwrap();

    let ps = ParamScope::new(vec!["n".into()]);
    let sql = "SELECT f(n)";
    let plan_b = b.prepare(sql, &ps).unwrap();
    assert_eq!(
        b.execute_prepared(&plan_b, vec![Value::Int(41)])
            .unwrap()
            .rows[0][0],
        Value::Int(42)
    );
    assert_eq!((b.plan_cache_hits, b.plan_cache_misses), (0, 1));

    // B re-prepares before any DDL: a pure hit, same plan.
    b.prepare(sql, &ps).unwrap();
    assert_eq!((b.plan_cache_hits, b.plan_cache_misses), (1, 1));

    // Session A redefines f. Session B's next prepare must miss (the
    // cached plan was built against the old schema version) and the
    // re-planned query must see the new body.
    a.run("CREATE OR REPLACE FUNCTION f(x int) RETURNS int AS $$ SELECT x * 10 $$ LANGUAGE SQL")
        .unwrap();
    let before = db.plan_cache_stats();
    let plan_b2 = b.prepare(sql, &ps).unwrap();
    assert_eq!(
        (b.plan_cache_hits, b.plan_cache_misses),
        (1, 2),
        "A's CREATE OR REPLACE must invalidate B's cached plan"
    );
    let after = db.plan_cache_stats();
    assert_eq!(after.hits, before.hits, "no shared hit across the DDL");
    assert_eq!(after.misses, before.misses + 1);
    assert_eq!(
        b.execute_prepared(&plan_b2, vec![Value::Int(41)])
            .unwrap()
            .rows[0][0],
        Value::Int(410),
        "B's re-planned query must run the replaced body"
    );

    // The *old* Arc'd plan handle stays safely executable — invalidation
    // must never corrupt a plan already handed out. UDF bodies bind by
    // name at execution time against the session's current snapshot, so
    // the stale handle also runs the replaced body.
    assert_eq!(
        b.execute_prepared(&plan_b, vec![Value::Int(41)])
            .unwrap()
            .rows[0][0],
        Value::Int(410),
        "a stale plan handle must execute cleanly against the new catalog"
    );
}

#[test]
fn invariant_subplans_are_hoisted_out_of_the_fixpoint() {
    // A closed scalar sub-query inside a recursive arm depends only on the
    // catalog, which cannot change mid-statement: it must be evaluated once
    // per execution, not once per iteration.
    let mut s = seeded_session();
    let ps = ParamScope::default();
    let plan = s
        .prepare(
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL \
             SELECT x + (SELECT count(*) FROM kv) FROM c WHERE x < 400) \
             SELECT max(x) FROM c",
            &ps,
        )
        .unwrap();
    s.stats.reset();
    let r = s.execute_prepared(&plan, vec![]).unwrap();
    assert_eq!(r.rows[0][0], Value::Int(401), "1 + 100 * count(4)");
    assert!(
        s.stats.recursive_iterations >= 100,
        "sanity: the fixpoint iterated ({})",
        s.stats.recursive_iterations
    );
    assert!(
        s.stats.subplan_evals <= 2,
        "closed sub-plan must be memoized per execution, got {} evals over {} iterations",
        s.stats.subplan_evals,
        s.stats.recursive_iterations
    );

    // The same holds when the sub-plan's own filter is large enough to be
    // lowered to a VM program before the sub-plan is judged closed.
    let plan = s
        .prepare(
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL \
             SELECT x + (SELECT v FROM kv WHERE k = 3 AND v > 0 AND v <> 7) \
             FROM c WHERE x < 400) \
             SELECT max(x) FROM c",
            &ps,
        )
        .unwrap();
    s.stats.reset();
    let r = s.execute_prepared(&plan, vec![]).unwrap();
    assert_eq!(r.rows[0][0], Value::Int(421), "1 + 14 * 30");
    assert!(
        s.stats.subplan_evals <= 2,
        "closed sub-plan with a compiled filter must be memoized per execution, \
         got {} evals over {} iterations",
        s.stats.subplan_evals,
        s.stats.recursive_iterations
    );

    // Correlated sub-queries must NOT be memoized.
    let plan = s
        .prepare(
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL \
             SELECT x + (SELECT max(k) FROM kv WHERE k <= x) FROM c WHERE x < 20) \
             SELECT count(*) FROM c",
            &ps,
        )
        .unwrap();
    s.stats.reset();
    s.execute_prepared(&plan, vec![]).unwrap();
    assert!(
        s.stats.subplan_evals > 2,
        "correlated sub-plan must re-evaluate per row, got {}",
        s.stats.subplan_evals
    );
}

#[test]
fn create_index_invalidates_shared_cache_and_modes_key_separately() {
    use plaway_engine::IndexMode;

    let db = Database::new(EngineConfig::raw());
    let mut a = db.session();
    a.run("CREATE TABLE t (k int, v int)").unwrap();
    a.run("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();

    let ps = ParamScope::default();
    let sql = "SELECT v FROM t WHERE k = 2";
    let scan = a.prepare(sql, &ps).unwrap();
    assert!(
        scan.plan.explain().contains("SeqScan"),
        "no index yet:\n{}",
        scan.plan.explain()
    );
    let want = a.execute_prepared(&scan, vec![]).unwrap();
    let warm = db.plan_cache_stats();
    a.prepare(sql, &ps).unwrap();
    assert_eq!(
        db.plan_cache_stats().misses,
        warm.misses,
        "re-prepare before DDL must be a pure hit"
    );

    // CREATE INDEX commits a new schema version: the cached plan is stale,
    // so the next prepare must MISS and re-plan into an index probe — with
    // identical results.
    a.run("CREATE INDEX t_k ON t (k)").unwrap();
    let before = db.plan_cache_stats();
    let probe = a.prepare(sql, &ps).unwrap();
    let after = db.plan_cache_stats();
    assert_eq!(
        after.misses,
        before.misses + 1,
        "CREATE INDEX must invalidate the cached plan"
    );
    assert_eq!(after.hits, before.hits, "no stale hit across CREATE INDEX");
    assert!(
        probe.plan.explain().contains("IndexLookup"),
        "re-plan after CREATE INDEX must probe the index:\n{}",
        probe.plan.explain()
    );
    assert_eq!(a.execute_prepared(&probe, vec![]).unwrap(), want);

    // The planner mode is part of the cache key: a ForceOff session asking
    // for the same SQL must not be served the indexed plan.
    let mut off = db.session();
    off.config.index_mode = IndexMode::ForceOff;
    let b1 = db.plan_cache_stats();
    let off_plan = off.prepare(sql, &ps).unwrap();
    let b2 = db.plan_cache_stats();
    assert_eq!(
        b2.misses,
        b1.misses + 1,
        "a different index mode must miss, not share the Auto plan"
    );
    assert!(
        off_plan.plan.explain().contains("SeqScan"),
        "ForceOff must plan a sequential scan:\n{}",
        off_plan.plan.explain()
    );
    assert_eq!(off.execute_prepared(&off_plan, vec![]).unwrap(), want);

    // Same mode, same SQL: a pure hit against the mode-tagged entry.
    off.prepare(sql, &ps).unwrap();
    let b3 = db.plan_cache_stats();
    assert_eq!((b3.hits, b3.misses), (b2.hits + 1, b2.misses));
}

/// Build a btree-indexed `t(k)` holding `keys` and prepare a range query
/// on it twice, around bulk-inserting `rows`. The second prepare must hit
/// the first plan, whose access path (`path`) was chosen on the old data;
/// its `count` rows must equal those of a session in `twin` mode, which
/// ignores the estimate. Only DDL re-plans, and on the new data the
/// estimate then picks the other path.
fn stale_estimate_keeps_answers(
    keys: impl Iterator<Item = i64>,
    path: &str,
    rows: Vec<Vec<Value>>,
    count: usize,
    twin: IndexMode,
) {
    let db = Database::new(EngineConfig::raw());
    let mut s = db.session();
    s.run("CREATE TABLE t (k int)").unwrap();
    s.run("CREATE INDEX t_k ON t (k)").unwrap();
    s.bulk_insert("t", keys.map(|k| vec![Value::Int(k)]).collect())
        .unwrap();

    let sql = "SELECT k FROM t WHERE k >= 3 AND k <= 4";
    let ps = ParamScope::default();
    let planned = s.prepare(sql, &ps).unwrap();
    assert!(
        planned.plan.explain().contains(path),
        "expected {path} on the original data:\n{}",
        planned.plan.explain()
    );
    s.bulk_insert("t", rows).unwrap();
    let misses = s.plan_cache_misses;
    let kept = s.prepare(sql, &ps).unwrap();
    assert!(Arc::ptr_eq(&planned, &kept), "DML must keep the plan");
    assert_eq!(s.plan_cache_misses, misses);
    let got = s.execute_prepared(&kept, vec![]).unwrap();
    assert_eq!(got.rows.len(), count);

    let mut other = db.session();
    other.config.index_mode = twin;
    let twin_plan = other.prepare(sql, &ps).unwrap();
    assert!(!twin_plan.plan.explain().contains(path));
    let want = other.execute_prepared(&twin_plan, vec![]).unwrap();
    assert_eq!(got, want, "a stale estimate must not change the answer");

    s.run("CREATE TABLE unrelated (x int)").unwrap();
    let replanned = s.prepare(sql, &ps).unwrap();
    assert!(
        !replanned.plan.explain().contains(path),
        "after DDL the estimate must see the new data:\n{}",
        replanned.plan.explain()
    );
    assert_eq!(s.execute_prepared(&replanned, vec![]).unwrap(), want);
}

/// The `Auto` range estimate is read at plan time, and a data commit does
/// not re-plan: a range chosen as selective stays an index range after
/// the data makes it unselective, with the seq scan's rows in its order.
#[test]
fn stale_selective_estimate_keeps_index_range_answers() {
    stale_estimate_keeps_answers(
        0..10,
        "IndexRange",
        vec![vec![Value::Int(3)]; 1000],
        1002,
        IndexMode::ForceOff,
    );
}

/// The reverse: a range planned as a seq scan (it covered the whole
/// table) stays one after inserts make it selective, and matches the
/// index range a `ForceOn` session runs.
#[test]
fn stale_unselective_estimate_keeps_seq_scan_answers() {
    stale_estimate_keeps_answers(
        std::iter::repeat_n(3, 10),
        "SeqScan",
        (0..1000)
            .map(|i| vec![Value::Int(if i % 10 == 0 { 4 } else { 100 + i })])
            .collect(),
        110,
        IndexMode::ForceOn,
    );
}
