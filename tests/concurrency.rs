//! Multi-session concurrency: many threads, one shared `Database`.
//!
//! These tests are the CI concurrency lane (and the nightly
//! ThreadSanitizer target). They are **seeded and deterministic**: every
//! thread's request stream is derived from a test seed, so a failure
//! reproduces by re-running with the same seed — no wall-clock or
//! scheduler dependence in the asserted values. The scheduler only decides
//! *interleaving*, which must never change any result; that is exactly
//! the property under test.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use plsql_away::engine::Database;
use plsql_away::prelude::*;
use plsql_away::workloads::fib;

const READER_THREADS: usize = 4;
const STRESS_ITERS: usize = 50;

/// Deterministic per-thread request stream (splitmix64 over seed+thread).
struct Stream(u64);

impl Stream {
    fn new(seed: u64, thread: usize) -> Self {
        Stream(seed.wrapping_mul(0x9e3779b97f4a7c15) ^ thread as u64)
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// A shared database with the `fibonacci` workload installed, a compiled
/// artifact for it, and a `churn` table for writer noise.
fn fib_database() -> (Arc<Database>, Compiled) {
    let db = Database::new(EngineConfig::raw());
    let mut s = db.session();
    let w = fib::fib_workload();
    w.install(&mut s).unwrap();
    s.run("CREATE TABLE churn (k int, v int)").unwrap();
    let compiled = compile_sql(&s.catalog, &w.source, CompileOptions::default()).unwrap();
    (db, compiled)
}

/// One reader's differential run: `iters` requests with seeded arguments,
/// each evaluated compiled AND interpreted, both checked against the Rust
/// reference. Returns the request stream so runs can be compared.
fn differential_reader(
    db: &Arc<Database>,
    compiled: &Compiled,
    seed: u64,
    thread: usize,
    iters: usize,
) -> Vec<i64> {
    let mut session = db.session();
    let mut interp = Interpreter::new();
    let mut stream = Stream::new(seed, thread);
    let mut requests = Vec::with_capacity(iters);
    for _ in 0..iters {
        let n = (stream.next() % 30) as i64;
        let args = vec![Value::Int(n)];
        let want = Value::Int(fib::fib_reference(n));
        let c = compiled.run(&mut session, &args).unwrap();
        assert_eq!(c, want, "compiled fib({n}) diverged under concurrency");
        let i = interp.call(&mut session, "fibonacci", &args).unwrap();
        assert_eq!(i, want, "interpreted fib({n}) diverged under concurrency");
        requests.push(n);
    }
    requests
}

/// DDL/DML churn until stopped: every commit publishes a new catalog
/// snapshot under the readers, and every `CREATE OR REPLACE` also
/// invalidates the shared plan cache, while the DML keeps the readers'
/// plans across snapshots.
fn churn(db: &Arc<Database>, stop: &AtomicBool) -> u64 {
    let mut session = db.session();
    let mut i = 0i64;
    while !stop.load(Ordering::Relaxed) {
        i += 1;
        session
            .run(&format!(
                "CREATE OR REPLACE FUNCTION churn_noise(x int) RETURNS int \
                 AS $$ SELECT x + {i} $$ LANGUAGE SQL"
            ))
            .unwrap();
        session
            .run(&format!("INSERT INTO churn VALUES ({i}, {i})"))
            .unwrap();
        if i % 8 == 0 {
            session
                .run(&format!("DELETE FROM churn WHERE k <= {}", i - 8))
                .unwrap();
        }
        std::thread::yield_now();
    }
    i as u64
}

/// One full stress round: 4 differential readers racing 1 churn writer.
/// Returns each thread's request stream.
fn stress_round(seed: u64) -> Vec<Vec<i64>> {
    let (db, compiled) = fib_database();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| churn(&db, &stop));
        let readers: Vec<_> = (0..READER_THREADS)
            .map(|t| {
                let db = &db;
                let compiled = &compiled;
                scope.spawn(move || differential_reader(db, compiled, seed, t, STRESS_ITERS))
            })
            .collect();
        let streams: Vec<Vec<i64>> = readers.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        let commits = writer.join().unwrap();
        assert!(commits > 0, "the churn writer never committed");
        streams
    })
}

/// Compiled and interpreted execution agree with the reference on every
/// request of every thread, while a writer churns the catalog — across a
/// sweep of seeds, and with bit-identical request streams on a repeat run
/// (the scheduler must have no way into the results).
#[test]
fn seeded_differential_stress_sweep() {
    for seed in [11, 42, 77] {
        let first = stress_round(seed);
        let second = stress_round(seed);
        assert_eq!(
            first, second,
            "seed {seed}: request streams must be deterministic"
        );
    }
}

/// Readers must never observe a torn write: the writer keeps `acct`
/// balanced (sum = 0) in every committed snapshot, so ANY snapshot a
/// reader gets — mid-rewrite or not — must sum to 0.
#[test]
fn readers_never_observe_torn_writes() {
    let db = Database::new(EngineConfig::raw());
    let mut s = db.session();
    s.run("CREATE TABLE acct (k int, v int)").unwrap();
    s.run("INSERT INTO acct VALUES (1, 0), (2, 0)").unwrap();

    let base_version = s.catalog.version;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut s = db.session();
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                // One commit per rebalance: +i on one account, -i on the
                // other. A reader seeing only half of it would sum to ±i.
                s.replace_rows(
                    "acct",
                    vec![
                        vec![Value::Int(1), Value::Int(i)],
                        vec![Value::Int(2), Value::Int(-i)],
                    ],
                )
                .unwrap();
                std::thread::yield_now();
            }
            i
        });
        let readers: Vec<_> = (0..READER_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    // Read until this thread has personally observed 10
                    // distinct committed rebalances (bounded: 50k reads is
                    // far more scheduling opportunity than the writer
                    // needs to land 10 commits on any machine).
                    let mut s = db.session();
                    let mut versions = std::collections::BTreeSet::new();
                    for _ in 0..50_000 {
                        let before = s.catalog.version;
                        let r = s.run("SELECT sum(v) FROM acct").unwrap();
                        assert_eq!(r.rows[0][0], Value::Int(0), "torn write observed");
                        versions.insert(s.catalog.version);
                        if versions.range(base_version + 1..).count() >= 10 {
                            break;
                        }
                        if s.catalog.version == before {
                            // Same snapshot as last read: cede the core so
                            // the writer can publish (matters on 1-core
                            // runners, where spinning readers starve it).
                            std::thread::yield_now();
                        }
                    }
                    versions.range(base_version + 1..).count()
                })
            })
            .collect();
        let observed: Vec<usize> = readers.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        let commits = writer.join().unwrap();
        assert!(commits > 0, "the rebalance writer never committed");
        for (t, n) in observed.iter().enumerate() {
            assert!(
                *n >= 10,
                "reader {t} observed only {n} of the writer's {commits} commits"
            );
        }
    });
}

/// Statement-level atomicity at the SQL surface: a multi-row INSERT that
/// fails at runtime on a later row must leave the table exactly as it was
/// — in this session's next snapshot and in every other session's.
#[test]
fn failed_insert_commits_nothing_across_sessions() {
    let db = Database::new(EngineConfig::raw());
    let mut a = db.session();
    let mut b = db.session();
    a.run("CREATE TABLE t (k int, v int)").unwrap();
    a.run("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();

    let err = a.run("INSERT INTO t VALUES (3, 30), (4, 1 / 0)");
    assert!(err.is_err(), "division by zero must fail the INSERT");

    for s in [&mut a, &mut b] {
        let r = s.run("SELECT count(*), sum(v) FROM t").unwrap();
        assert_eq!(
            r.rows[0],
            vec![Value::Int(2), Value::Int(30)],
            "a failed INSERT must commit none of its rows"
        );
    }
}

/// The lock-free metrics registry loses nothing under contention: M racing
/// sessions each keep a plain-u64 mirror of what they contributed, and
/// after the race the registry's merged counters must EXACTLY equal the
/// sum of the per-session mirrors — field by field, latency histogram
/// bucket by bucket. Not "approximately": relaxed atomic adds are still
/// adds, so a single lost update is a bug. (`commits` is excluded: it is
/// counted at the database commit point, not attributed to sessions.)
#[test]
fn racing_sessions_metrics_merge_exactly() {
    use plsql_away::engine::metrics::LATENCY_BUCKETS;
    use plsql_away::engine::SessionMetrics;

    let (db, compiled) = fib_database();
    let base = db.metrics();
    let mirrors: Vec<SessionMetrics> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READER_THREADS)
            .map(|t| {
                let db = &db;
                let compiled = &compiled;
                scope.spawn(move || {
                    let mut s = db.session();
                    let mut stream = Stream::new(7, t);
                    for _ in 0..STRESS_ITERS {
                        // A compiled fixpoint run (vm ops, iterations,
                        // snapshots) plus a plain recursive SELECT whose
                        // arm runs a correlated aggregate keyed by the
                        // parity column (memo hits and misses), so every
                        // registry field the statement path feeds is
                        // exercised with non-trivial values.
                        let n = (stream.next() % 25) as i64;
                        compiled.run(&mut s, &[Value::Int(n)]).unwrap();
                        let k = 1 + (stream.next() % 16);
                        s.run(&format!(
                            "WITH RECURSIVE c(x, m) AS (SELECT 1, 1 UNION ALL \
                             SELECT x + 1, (x + 1) % 2 FROM c WHERE x < {k} AND \
                             (SELECT count(*) FROM (VALUES (0), (1)) AS v(y) \
                             WHERE v.y = c.m) > 0) \
                             SELECT count(*) FROM c"
                        ))
                        .unwrap();
                    }
                    s.metrics
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let after = db.metrics();

    let mut sum = SessionMetrics::default();
    for m in &mirrors {
        sum.statements += m.statements;
        sum.statement_ns_total += m.statement_ns_total;
        sum.snapshots_materialized += m.snapshots_materialized;
        sum.snapshots_released += m.snapshots_released;
        sum.batch_rows_retired += m.batch_rows_retired;
        sum.udf_calls += m.udf_calls;
        sum.rows_scanned += m.rows_scanned;
        sum.index_probes += m.index_probes;
        sum.recursive_iterations += m.recursive_iterations;
        sum.vm_ops_executed += m.vm_ops_executed;
        sum.tier_promotions += m.tier_promotions;
        sum.memo_hits += m.memo_hits;
        sum.memo_misses += m.memo_misses;
        sum.latency.merge(&m.latency);
    }
    assert_eq!(
        sum.statements,
        (READER_THREADS * STRESS_ITERS * 2) as u64,
        "sanity: every thread ran 2 statements per iteration"
    );
    // The fixpoints must have executed somewhere: in the VM, or in the
    // mono tier, where no VM ops run at all.
    assert!(sum.recursive_iterations > 0);
    assert!(sum.vm_ops_executed > 0 || sum.tier_promotions > 0);
    assert!(sum.memo_hits > 0 && sum.memo_misses > 0);

    let merged = [
        (
            "statements",
            after.statements - base.statements,
            sum.statements,
        ),
        (
            "statement_ns_total",
            after.statement_ns_total - base.statement_ns_total,
            sum.statement_ns_total,
        ),
        (
            "snapshots_materialized",
            after.snapshots_materialized - base.snapshots_materialized,
            sum.snapshots_materialized,
        ),
        (
            "snapshots_released",
            after.snapshots_released - base.snapshots_released,
            sum.snapshots_released,
        ),
        (
            "batch_rows_retired",
            after.batch_rows_retired - base.batch_rows_retired,
            sum.batch_rows_retired,
        ),
        ("udf_calls", after.udf_calls - base.udf_calls, sum.udf_calls),
        (
            "rows_scanned",
            after.rows_scanned - base.rows_scanned,
            sum.rows_scanned,
        ),
        (
            "index_probes",
            after.index_probes - base.index_probes,
            sum.index_probes,
        ),
        (
            "recursive_iterations",
            after.recursive_iterations - base.recursive_iterations,
            sum.recursive_iterations,
        ),
        (
            "vm_ops_executed",
            after.vm_ops_executed - base.vm_ops_executed,
            sum.vm_ops_executed,
        ),
        (
            "tier_promotions",
            after.tier_promotions - base.tier_promotions,
            sum.tier_promotions,
        ),
        ("memo_hits", after.memo_hits - base.memo_hits, sum.memo_hits),
        (
            "memo_misses",
            after.memo_misses - base.memo_misses,
            sum.memo_misses,
        ),
    ];
    for (field, registry, mirror) in merged {
        assert_eq!(
            registry, mirror,
            "registry {field} diverged from the summed session mirrors"
        );
    }
    for i in 0..LATENCY_BUCKETS {
        assert_eq!(
            after.latency.buckets[i] - base.latency.buckets[i],
            sum.latency.buckets[i],
            "latency bucket {i} diverged"
        );
    }
}

/// Concurrent writers serialize through the commit mutex without losing
/// updates: 4 threads × 25 single-row inserts into one table, every row
/// present afterwards.
#[test]
fn concurrent_writers_lose_no_commits() {
    let db = Database::new(EngineConfig::raw());
    db.session().run("CREATE TABLE log (w int, i int)").unwrap();
    std::thread::scope(|scope| {
        for w in 0..4i64 {
            let db = &db;
            scope.spawn(move || {
                let mut s = db.session();
                for i in 0..25i64 {
                    s.run(&format!("INSERT INTO log VALUES ({w}, {i})"))
                        .unwrap();
                }
            });
        }
    });
    let mut s = db.session();
    let r = s.run("SELECT count(*) FROM log").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(100), "lost commits");
    for w in 0..4 {
        let r = s
            .run(&format!("SELECT count(*), sum(i) FROM log WHERE w = {w}"))
            .unwrap();
        assert_eq!(r.rows[0], vec![Value::Int(25), Value::Int(300)]);
    }
}

/// Index maintenance is transactional with the heap: a committed INSERT
/// becomes visible to the index access path and the sequential path
/// *atomically*, and a failed INSERT surfaces in neither. Readers race a
/// writer and evaluate both paths inside ONE statement — one catalog
/// snapshot — where `t.k = 5` plans through the btree probe while
/// `t.k + 0 = 5` defeats predicate extraction and seq-scans. Their
/// difference must be 0 in every snapshot any reader ever observes.
#[test]
fn index_and_seq_scan_visibility_is_atomic() {
    let db = Database::new(EngineConfig::raw());
    let mut s = db.session();
    s.run("CREATE TABLE t (k int, v int)").unwrap();
    s.run("CREATE INDEX t_k ON t (k)").unwrap();
    for i in 0..64i64 {
        s.run(&format!("INSERT INTO t VALUES ({}, {i})", i % 16))
            .unwrap();
    }

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut s = db.session();
            let mut committed = 0i64;
            while !stop.load(Ordering::Relaxed) {
                committed += 1;
                s.run(&format!("INSERT INTO t VALUES (5, {committed})"))
                    .unwrap();
                // A statement that fails on its second row: statement-level
                // atomicity means no heap row AND no index posting may land.
                let err = s.run("INSERT INTO t VALUES (5, 77), (5, 1 / 0)");
                assert!(err.is_err(), "division by zero must fail the INSERT");
                std::thread::yield_now();
            }
            committed
        });
        let readers: Vec<_> = (0..READER_THREADS)
            .map(|_| {
                let db = &db;
                scope.spawn(move || {
                    let mut s = db.session();
                    for _ in 0..STRESS_ITERS * 4 {
                        let r = s
                            .run(
                                "SELECT (SELECT count(*) FROM t WHERE t.k = 5) - \
                                 (SELECT count(*) FROM t WHERE t.k + 0 = 5)",
                            )
                            .unwrap();
                        assert_eq!(
                            r.rows[0][0],
                            Value::Int(0),
                            "index and seq scan disagreed within one snapshot"
                        );
                        std::thread::yield_now();
                    }
                    assert!(
                        s.metrics.index_probes > 0,
                        "the reader's point predicate never took the index path"
                    );
                })
            })
            .collect();
        for h in readers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let committed = writer.join().unwrap();
        assert!(committed > 0, "the writer never committed");

        // Post-race ground truth: the seed planted 4 rows with k = 5 and
        // each committed INSERT added one; the failed statements added none
        // — on both access paths.
        let mut s = db.session();
        let via_index = s.run("SELECT count(*) FROM t WHERE t.k = 5").unwrap();
        let via_seq = s.run("SELECT count(*) FROM t WHERE t.k + 0 = 5").unwrap();
        assert_eq!(via_index.rows[0][0], Value::Int(4 + committed));
        assert_eq!(via_index.rows[0], via_seq.rows[0]);
    });
}

/// Sessions sharing one `Compiled` stage their batches into the same
/// `batch#fibonacci` table, each with inputs of its own but all of one
/// length. Every batch must run over the rows its own staging commit
/// installed: a session that re-read the latest committed catalog between
/// staging and executing would compute another session's inputs and
/// scatter their results into its own, with no error raised. The race
/// window is a few instructions wide, so this is a stress test: with the
/// re-read in place, a release build on a 2-vCPU machine hit it within
/// each session's first 300 batches.
#[test]
fn concurrent_batches_run_on_their_own_staged_rows() {
    const ROWS: usize = 64;
    let batches = if cfg!(debug_assertions) { 300 } else { 3_000 };
    let (db, _) = fib_database();
    let compiled = compile_sql(
        &db.snapshot(),
        &fib::fib_workload().source,
        CompileOptions::iterate(),
    )
    .unwrap();
    let start = std::sync::Barrier::new(READER_THREADS);
    std::thread::scope(|scope| {
        for t in 0..READER_THREADS {
            let db = &db;
            let compiled = &compiled;
            let start = &start;
            scope.spawn(move || {
                let mut s = db.session();
                let mut stream = Stream::new(0xBA7C, t);
                start.wait();
                for b in 0..batches {
                    let ns: Vec<i64> = (0..ROWS).map(|_| (stream.next() % 30) as i64).collect();
                    let calls: Vec<Vec<Value>> = ns.iter().map(|&n| vec![Value::Int(n)]).collect();
                    let want: Vec<Value> = ns
                        .iter()
                        .map(|&n| Value::Int(fib::fib_reference(n)))
                        .collect();
                    let got = compiled.run_batch(&mut s, &calls).unwrap();
                    assert_eq!(got, want, "session {t}, batch {b}: wrong input rows");
                }
            });
        }
    });
}
