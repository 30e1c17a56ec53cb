//! Fast smoke benchmark seeding the `BENCH_*.json` perf trajectory.
//!
//! Runs six small kernels — `walk` (query-per-step, the paper's headline),
//! `fibonacci` (query-less), `graph` (digraph traversal), `fsa`
//! (string-consuming automaton), `checked` (RAISE + EXCEPTION recovery per
//! iteration) and `settle` (FOR-over-query ledger fold) — in all three
//! execution modes:
//!
//! * `interpreter` — statement-by-statement PL/pgSQL interpretation,
//! * `with_recursive` — the compiled `WITH RECURSIVE` query,
//! * `with_iterate` — the compiled `WITH ITERATE` variant (Passing et al.).
//!
//! plus the batch-invocation throughput pairs
//! `batch.{fibonacci,checked}.{compiled,interp}_ns_per_call` — one
//! `WITH RETIRE` fixpoint over 10⁵ invocations vs a loop of independent
//! interpreted calls (each paying the modeled executor lifecycle) —
//! and the access-path pairs `index.{point,range,settle_top}.{indexed,seq}_ns`
//! — the same statement over a 10⁵-row indexed ledger in an `Auto` session
//! (index scans on) vs a `ForceOff` twin (always seq scan) — and the
//! tiered-execution pairs `tier.{fibonacci,fsa}.{vm,mono}_ns_per_iter`:
//! the two shape-recognized fixpoints per iteration, in the VM
//! (`TierMode::ForceOff`) vs the mono pipeline (the default `Auto`).
//!
//! Writes `BENCH_smoke.json` ({kernel.mode → median ns}, keys sorted so
//! baseline diffs are stable) to the current directory; CI's `bench-gate`
//! job compares the fresh numbers against the committed baseline.
//!
//! Usage: `cargo run --release -p plaway-bench --bin bench_smoke`

use std::time::Instant;

use plaway_bench::{
    batch_checked_calls, batch_fib_calls, checked_args, fib_args, parse_args, settle_args,
    setup_checked, setup_fib, setup_index_sessions, setup_parse, setup_settle, setup_settle_top,
    setup_traverse, setup_walk, traverse_args, walk_args, BenchSetup,
};
use plaway_common::Value;
use plaway_core::CompileOptions;
use plaway_engine::{EngineConfig, IndexMode, ParamScope, TierMode};

const WARMUP_RUNS: usize = 3;
const MEASURED_RUNS: usize = 15;

/// Invocations per batch-throughput query (the ≥ 10⁵ regime the batch
/// trampoline targets).
const BATCH_ROWS: usize = 100_000;
/// The interpreted loop is ~7× slower per call, so it is sampled.
const BATCH_INTERP_SAMPLE: usize = 10_000;

/// Median of per-run wall times, in nanoseconds.
fn median_ns(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Time a closure over warmup + measured runs; returns median ns.
fn time_runs(mut f: impl FnMut()) -> u128 {
    for _ in 0..WARMUP_RUNS {
        f();
    }
    let samples = (0..MEASURED_RUNS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    median_ns(samples)
}

/// All three modes for one kernel. Every compiled mode goes through the
/// normalized `Compiled::prepare` + `Session::execute_prepared` path.
fn smoke_kernel(
    kernel: &str,
    b: &mut BenchSetup,
    args: &[Value],
    results: &mut Vec<(String, u128)>,
) {
    let interp_args = args.to_vec();
    let ns = time_runs(|| {
        b.session.set_seed(1);
        b.run_interp(&interp_args).unwrap();
    });
    results.push((format!("{kernel}.interpreter"), ns));

    for (mode, options) in [
        ("with_recursive", CompileOptions::default()),
        ("with_iterate", CompileOptions::iterate()),
    ] {
        let compiled = b.compile(options).unwrap();
        let plan = compiled.prepare(&mut b.session).unwrap();
        let ns = time_runs(|| {
            b.session.set_seed(1);
            b.session.execute_prepared(&plan, args.to_vec()).unwrap();
        });
        results.push((format!("{kernel}.{mode}"), ns));
    }
}

/// Batch throughput: one `WITH RETIRE` fixpoint driving all `calls`
/// (compiled) vs a loop of independent interpreted calls, each paying the
/// modeled executor lifecycle. The batch input table is loaded and the
/// plan cached before timing — the paper's scenario of applying a UDF to
/// a table that already exists — so the timed region is exactly the per-
/// query work each architecture repeats. Keys are integer ns *per call*.
fn smoke_batch(
    kernel: &str,
    b: &mut BenchSetup,
    calls: &[Vec<Value>],
    results: &mut Vec<(String, u128)>,
) {
    let compiled = b.compile(CompileOptions::iterate()).unwrap();
    let plan = compiled.prepare_batch(&mut b.session, calls).unwrap();
    let ns = time_runs(|| {
        b.session.execute_prepared(&plan, Vec::new()).unwrap();
    });
    results.push((
        format!("batch.{kernel}.compiled_ns_per_call"),
        ns / calls.len() as u128,
    ));

    let sample = &calls[..BATCH_INTERP_SAMPLE.min(calls.len())];
    let ns = time_runs(|| {
        b.interp_loop(sample).unwrap();
    });
    results.push((
        format!("batch.{kernel}.interp_ns_per_call"),
        ns / sample.len() as u128,
    ));
}

/// Cost-based access paths: the same prepared aggregate over the 10⁵-row
/// indexed ledger, planned in an `Auto` session (index access paths on)
/// and a `ForceOff` twin sharing the same database (always seq scan).
/// Both modes must return identical rows — a wrong-but-fast probe would
/// poison the trajectory. `bench_gate` enforces the ≥ 5× win on the
/// point and range pairs; the `settle_top` kernel pair is trajectory-only
/// (its fixpoint fold dominates the scan, so the ratio is modest).
fn smoke_index(results: &mut Vec<(String, u128)>) {
    let (mut indexed, mut seq) = setup_index_sessions(EngineConfig::postgres_like());
    for (probe, sql) in [
        (
            "point",
            "SELECT count(*), sum(l.kind) FROM ledger AS l WHERE l.amount = 37",
        ),
        (
            "range",
            "SELECT count(*), sum(l.kind) FROM ledger AS l \
             WHERE l.amount >= 90 AND l.amount < 96",
        ),
    ] {
        let mut reference = None;
        for (mode, s) in [("indexed", &mut indexed), ("seq", &mut seq)] {
            let plan = s.prepare(sql, &ParamScope::new(Vec::new())).unwrap();
            let got = s.execute_prepared(&plan, Vec::new()).unwrap().rows;
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "index.{probe}: access paths disagree"),
            }
            let ns = time_runs(|| {
                s.execute_prepared(&plan, Vec::new()).unwrap();
            });
            results.push((format!("index.{probe}.{mode}_ns"), ns));
        }
    }

    // The selective settle kernel at the same scale, compiled, both modes.
    for (mode, index_mode) in [("indexed", IndexMode::Auto), ("seq", IndexMode::ForceOff)] {
        let mut b = setup_settle_top(EngineConfig::postgres_like());
        b.session.config.index_mode = index_mode;
        let compiled = b.compile(CompileOptions::default()).unwrap();
        let plan = compiled.prepare(&mut b.session).unwrap();
        let args = settle_args();
        let ns = time_runs(|| {
            b.session.execute_prepared(&plan, args.clone()).unwrap();
        });
        results.push((format!("index.settle_top.{mode}_ns"), ns));
    }
}

/// Tiered execution: the two shape-recognized kernels per iteration, in
/// each tier. `ForceOff` keeps every fixpoint in the VM; the default
/// `Auto` promotes the transition to the mono pipeline before the first
/// iteration. Per-iteration ns (total wall time over the fixpoint's
/// `recursive_iterations` delta) is the honest unit — both tiers run the
/// same number of iterations on the same inputs, so the ratio isolates
/// exactly the operand-stack traffic and dispatch the mono tier
/// removes. Both tiers must return identical rows, and `Auto` must
/// actually promote — an unpromoted "mono" number would gate nothing.
fn smoke_tier(results: &mut Vec<(String, u128)>) {
    type TierCase = (&'static str, fn(EngineConfig) -> BenchSetup, Vec<Value>);
    let cases: [TierCase; 2] = [
        ("fibonacci", setup_fib, fib_args(500)),
        ("fsa", setup_parse, parse_args(150)),
    ];
    for (name, setup, args) in cases {
        let mut reference = None;
        for (tier, mode) in [("vm", TierMode::ForceOff), ("mono", TierMode::Auto)] {
            let mut config = EngineConfig::postgres_like();
            config.tier_mode = mode;
            let mut b = setup(config);
            let compiled = b.compile(CompileOptions::iterate()).unwrap();
            let plan = compiled.prepare(&mut b.session).unwrap();
            b.session.set_seed(1);
            let before = b.session.stats.recursive_iterations;
            let got = b.session.execute_prepared(&plan, args.clone()).unwrap();
            let iters = ((b.session.stats.recursive_iterations - before) as u128).max(1);
            match &reference {
                None => reference = Some(got.rows),
                Some(want) => assert_eq!(&got.rows, want, "tier.{name}: tiers disagree"),
            }
            if tier == "mono" {
                assert!(
                    b.session.metrics.tier_promotions > 0,
                    "tier.{name}: Auto never promoted — the mono number would be a lie"
                );
            }
            let ns = time_runs(|| {
                b.session.set_seed(1);
                b.session.execute_prepared(&plan, args.clone()).unwrap();
            });
            results.push((format!("tier.{name}.{tier}_ns_per_iter"), ns / iters));
        }
    }
}

fn main() {
    let mut results: Vec<(String, u128)> = Vec::new();

    let mut walk = setup_walk(EngineConfig::postgres_like());
    smoke_kernel("walk", &mut walk, &walk_args(100), &mut results);

    let mut fib = setup_fib(EngineConfig::postgres_like());
    smoke_kernel("fibonacci", &mut fib, &fib_args(500), &mut results);

    let mut graph = setup_traverse(EngineConfig::postgres_like());
    smoke_kernel("graph", &mut graph, &traverse_args(40), &mut results);

    let mut fsa = setup_parse(EngineConfig::postgres_like());
    smoke_kernel("fsa", &mut fsa, &parse_args(150), &mut results);

    let mut checked = setup_checked(EngineConfig::postgres_like());
    smoke_kernel("checked", &mut checked, &checked_args(200), &mut results);

    let mut settle = setup_settle(EngineConfig::postgres_like());
    smoke_kernel("settle", &mut settle, &settle_args(), &mut results);

    // Batch throughput (the calls/sec story): 10⁵ invocations per query.
    smoke_batch(
        "fibonacci",
        &mut fib,
        &batch_fib_calls(BATCH_ROWS),
        &mut results,
    );
    smoke_batch(
        "checked",
        &mut checked,
        &batch_checked_calls(BATCH_ROWS),
        &mut results,
    );

    // Index access paths (the seq-vs-index story): 10⁵-row indexed ledger.
    smoke_index(&mut results);

    // Tiered execution (the VM-vs-mono story): per-iteration ns, both tiers.
    smoke_tier(&mut results);

    // Deterministic key order so baseline diffs (and the CI gate) are stable.
    results.sort_by(|(a, _), (b, _)| a.cmp(b));

    let mut json = String::from("{\n");
    for (i, (key, ns)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!("  \"{key}\": {ns}{comma}\n"));
    }
    json.push_str("}\n");

    std::fs::write("BENCH_smoke.json", &json).expect("write BENCH_smoke.json");
    print!("{json}");
    eprintln!(
        "wrote BENCH_smoke.json ({} entries, median ns)",
        results.len()
    );
}
