//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. execution mode: interpreter vs recursive SQL UDF (Figure 7, §2's
//!    "disappointing performance characteristics") vs WITH RECURSIVE vs
//!    WITH ITERATE,
//! 2. argument layout: flattened columns vs packed ROW (Figure 8),
//! 3. SSA optimization passes on/off,
//!
//! and closes with the per-iteration cost of each kernel's fixpoint in each
//! tier and of its loop in the interpreter (the slopes DESIGN.md's
//! fast-path table cites).
//!
//! Usage: `cargo run --release -p plaway-bench --bin ablation [-- udf | slopes [batches]]`

use std::time::Instant;

use plaway_bench::*;
use plaway_common::Value;
use plaway_core::{ArgsLayout, CompileOptions, CteMode};
use plaway_engine::{EngineConfig, ParamScope, Session, TierMode};

fn time_ms(f: impl FnMut()) -> f64 {
    let mut f = f;
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

fn main() {
    if std::env::args().any(|a| a == "slopes") {
        slopes();
        return;
    }
    let only_udf = std::env::args().any(|a| a == "udf");
    let steps = 2_000i64;
    let runs = 3;

    // ---- mode ablation on walk -----------------------------------------
    let mut b = setup_walk(EngineConfig::postgres_like());
    let args = walk_args(steps);
    let rec = b.compile(CompileOptions::default()).unwrap();
    let iter = b.compile(CompileOptions::iterate()).unwrap();
    let packed = b.compile(CompileOptions::packed()).unwrap();
    let raw = b
        .compile(CompileOptions {
            optimize: false,
            ..Default::default()
        })
        .unwrap();

    println!("ablation: walk(), {steps} steps, avg of {runs} runs (postgres profile)\n");

    let report = |name: &str, ms: f64, baseline: f64| {
        if baseline > 0.0 {
            println!(
                "{name:<34} {ms:>9.1} ms   ({:>4.0}% of interpreter)",
                ms / baseline * 100.0
            );
        } else {
            println!("{name:<34} {ms:>9.1} ms   (baseline)");
        }
    };

    b.session.set_seed(1);
    b.run_interp(&args).unwrap();
    b.session.set_seed(1);
    let interp_ms = {
        let samples = b.time_interp(&args, runs).unwrap();
        stats_ms(&samples).0
    };
    let baseline = interp_ms;
    report("PL/pgSQL interpreter", interp_ms, 0.0);

    // Recursive SQL UDF (Figure 7): pays Start/End per recursive call and
    // runs against the engine's call-depth limit, so measure fewer steps
    // and scale. The paper: "the direct evaluation of these UDFs has
    // disappointing performance characteristics".
    let udf_steps = 300i64;
    b.session.config.max_udf_depth = 2_000;
    rec.install_udfs(&mut b.session).unwrap();
    let call = format!("SELECT walk(ROW(2, 2), 1000000, -1000000, {udf_steps})");
    b.session.set_seed(1);
    b.session.run(&call).unwrap();
    b.session.set_seed(1);
    let udf_ms = time_ms(|| {
        for _ in 0..runs {
            b.session.run(&call).unwrap();
        }
    }) / runs as f64;
    let udf_scaled = udf_ms * (steps as f64 / udf_steps as f64);
    report(
        &format!("recursive SQL UDF (scaled from {udf_steps})"),
        udf_scaled,
        baseline,
    );

    for (name, compiled) in [
        ("WITH RECURSIVE (flattened args)", &rec),
        ("WITH ITERATE (flattened args)", &iter),
        ("WITH RECURSIVE (packed ROW args)", &packed),
        ("WITH RECURSIVE (unoptimized SSA)", &raw),
    ] {
        b.session.set_seed(1);
        let samples = b.time_compiled(compiled, &args, runs).unwrap();
        report(name, stats_ms(&samples).0, baseline);
    }

    if only_udf {
        return;
    }

    // ---- stack depth limit (the §2 claim) -------------------------------
    println!("\nrecursive SQL UDF vs the engine's stack depth limit:");
    b.session.config.max_udf_depth = 256; // back to the default
    let deep_call = "SELECT walk(ROW(2, 2), 1000000, -1000000, 5000)";
    match b.session.run(deep_call) {
        Err(e) => println!("  5000 steps via UDF: {e}"),
        Ok(_) => println!("  5000 steps via UDF: unexpectedly succeeded"),
    }
    b.session.set_seed(1);
    let v = rec.run(&mut b.session, &walk_args(5_000)).unwrap();
    println!("  5000 steps via WITH RECURSIVE: ok (result {v})");

    // ---- layout ablation on parse ---------------------------------------
    println!("\nablation: parse(), argument layouts (2000-char input):");
    let mut b = setup_parse(EngineConfig::postgres_like());
    let args = parse_args(2_000);
    for (name, options) in [
        ("flattened columns", CompileOptions::default()),
        ("packed ROW column", CompileOptions::packed()),
        (
            "packed + ITERATE",
            CompileOptions {
                layout: ArgsLayout::Packed,
                mode: CteMode::Iterate,
                ..Default::default()
            },
        ),
    ] {
        let compiled = b.compile(options).unwrap();
        let samples = b.time_compiled(&compiled, &args, runs).unwrap();
        println!("  {name:<28} {:>9.1} ms", stats_ms(&samples).0);
    }

    // ---- batch trampoline working set ------------------------------------
    // One WITH RETIRE fixpoint drives every call; the counters show the
    // working-set story: peak in-flight activations vs total retired.
    println!("\nbatch trampoline: fibonacci, 100000 calls through one fixpoint:");
    let mut b = setup_fib(EngineConfig::postgres_like());
    let compiled = b.compile(CompileOptions::iterate()).unwrap();
    let calls = batch_fib_calls(100_000);
    b.session.stats.batch = Default::default();
    let ms = time_ms(|| {
        compiled.run_batch(&mut b.session, &calls).unwrap();
    });
    let counters = b.session.stats.batch;
    println!(
        "  wall clock                   {ms:>9.1} ms   ({:.0} calls/sec)",
        calls.len() as f64 / (ms / 1e3)
    );
    println!(
        "  batch_rows_in_flight (peak)  {:>9}",
        counters.batch_rows_in_flight
    );
    println!(
        "  batch_rows_retired           {:>9}",
        counters.batch_rows_retired
    );

    slopes();
}

/// One kernel the per-iteration section times: its label, a session holding
/// its tables at `size`, and its arguments at `size`.
struct SlopeCase {
    name: &'static str,
    setup: fn(EngineConfig, i64) -> BenchSetup,
    args: Box<dyn Fn(i64) -> Vec<Value>>,
    sizes: [i64; 2],
    modes: &'static [(&'static str, TierMode)],
}

const BOTH_TIERS: &[(&str, TierMode)] = &[("vm", TierMode::ForceOff), ("mono", TierMode::Auto)];
const VM_ONLY: &[(&str, TierMode)] = &[("vm", TierMode::ForceOff)];

/// The first start node whose traversal of the bench graph runs `hops`
/// hops without reaching a sink, so that its iterations scale with `hops`.
fn long_traversal_start(hops: i64) -> i64 {
    let mut b = setup_traverse(EngineConfig::raw());
    let plan = b
        .compile(CompileOptions::iterate())
        .unwrap()
        .prepare(&mut b.session)
        .unwrap();
    (1..5_000)
        .find(|&start| {
            let before = b.session.stats.recursive_iterations;
            let args = vec![Value::Int(start), Value::Int(hops)];
            b.session.execute_prepared(&plan, args).unwrap();
            b.session.stats.recursive_iterations - before > hops as u64
        })
        .expect("the bench graph has a sink-free cycle")
}

/// `settle` over a generated ledger of `rows` entries: its loop runs once
/// per row.
fn setup_settle_rows(config: EngineConfig, rows: i64) -> BenchSetup {
    let mut b = setup_settle(config);
    plaway_workloads::rowagg::Ledger::generate(rows as usize, 7)
        .install(&mut b.session)
        .unwrap();
    b
}

/// Best time of one `call` over `batches` batches of at least ~2 ms each,
/// so timer resolution does not matter.
fn best_ns(batches: usize, mut call: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    call();
    let reps = (2_000_000 / t0.elapsed().as_nanos().max(1)).clamp(1, 1_000) as u32;
    let mut best = f64::MAX;
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..reps {
            call();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / reps as f64);
    }
    best
}

/// Best time of one `execute_prepared` on `args` over `batches` batches,
/// and the iterations it runs.
fn best_call_ns(b: &mut BenchSetup, size: i64, case: &SlopeCase, batches: usize) -> (f64, u64) {
    let plan = b
        .compile(CompileOptions::iterate())
        .unwrap()
        .prepare(&mut b.session)
        .unwrap();
    let args = (case.args)(size);
    let before = b.session.stats.recursive_iterations;
    b.session.set_seed(1);
    b.session.execute_prepared(&plan, args.clone()).unwrap();
    let iters = b.session.stats.recursive_iterations - before;
    let best = best_ns(batches, || {
        b.session.set_seed(1);
        b.session.execute_prepared(&plan, args.clone()).unwrap();
    });
    (best, iters)
}

/// Per-iteration cost of the fixpoint under `EngineConfig::raw` (no
/// modeled executor cost), as the slope of the best call time between two
/// sizes: a whole call divided by its iterations would fold the fixed cost
/// of a call into every iteration. Every kernel runs `WITH ITERATE`; the
/// three the mono tier recognizes run in both tiers. The same three then
/// run in the interpreter, whose simple expressions the VM evaluates: one
/// loop iteration per unit of size, with the VM ops each one executes.
/// Last come two hand-written fixpoints, `SELECT x + 1 FROM c WHERE x < n`
/// under `WITH ITERATE` and `WITH RETIRE`, whose arm is not a fused
/// transition.
///
/// Usage: `cargo run --release -p plaway-bench --bin ablation -- slopes [batches]`
fn slopes() {
    let batches: usize = std::env::args()
        .skip_while(|a| a != "slopes")
        .nth(1)
        .and_then(|n| n.parse().ok())
        .unwrap_or(7);
    let start = long_traversal_start(1_100);
    println!("\nper-iteration slopes, raw config, WITH ITERATE, best of {batches} batches:");
    let cases = [
        SlopeCase {
            name: "fibonacci",
            setup: |c, _| setup_fib(c),
            args: Box::new(fib_args),
            sizes: [50, 1_050],
            modes: BOTH_TIERS,
        },
        SlopeCase {
            name: "parse",
            setup: |c, _| setup_parse(c),
            args: Box::new(|n| parse_args(n as usize)),
            sizes: [50, 1_050],
            modes: BOTH_TIERS,
        },
        SlopeCase {
            name: "checked_sum",
            setup: |c, _| setup_checked(c),
            args: Box::new(|n| checked_args(n as usize)),
            sizes: [50, 1_050],
            modes: BOTH_TIERS,
        },
        SlopeCase {
            name: "walk",
            setup: |c, _| setup_walk(c),
            args: Box::new(walk_args),
            sizes: [50, 550],
            modes: VM_ONLY,
        },
        SlopeCase {
            name: "traverse",
            setup: |c, _| setup_traverse(c),
            args: Box::new(move |n| vec![Value::Int(start), Value::Int(n)]),
            sizes: [50, 1_050],
            modes: VM_ONLY,
        },
        SlopeCase {
            name: "settle",
            setup: setup_settle_rows,
            args: Box::new(|_| settle_args()),
            sizes: [100, 1_100],
            modes: VM_ONLY,
        },
    ];
    for case in &cases {
        for &(tier, mode) in case.modes {
            let mut points = [(0.0, 0u64); 2];
            for (point, &size) in points.iter_mut().zip(&case.sizes) {
                let config = EngineConfig {
                    tier_mode: mode,
                    ..EngineConfig::raw()
                };
                let mut b = (case.setup)(config, size);
                *point = best_call_ns(&mut b, size, case, batches);
                if mode == TierMode::Auto {
                    assert!(
                        b.session.metrics.tier_promotions > 0,
                        "{}: Auto never promoted",
                        case.name
                    );
                }
            }
            let [(small, i0), (large, i1)] = points;
            println!(
                "  {:<12} {tier:<5} {:>9.1} ns/iter   ({i0}..{i1} iterations)",
                case.name,
                (large - small) / (i1 - i0) as f64
            );
        }
    }
    for case in cases.iter().filter(|c| c.modes == BOTH_TIERS) {
        let mut points = [(0.0, 0u64); 2];
        for (point, &size) in points.iter_mut().zip(&case.sizes) {
            let mut b = (case.setup)(EngineConfig::raw(), size);
            let args = (case.args)(size);
            let before = b.session.stats.vm_ops_executed;
            b.run_interp(&args).unwrap();
            let ops = b.session.stats.vm_ops_executed - before;
            let best = best_ns(batches, || {
                b.run_interp(&args).unwrap();
            });
            *point = (best, ops);
        }
        let [(small, o0), (large, o1)] = points;
        let iters = (case.sizes[1] - case.sizes[0]) as f64;
        println!(
            "  {:<12} interp {:>8.1} ns/iter   ({:.1} vm ops/iter)",
            case.name,
            (large - small) / iters,
            (o1 - o0) as f64 / iters
        );
    }
    for construct in ["ITERATE", "RETIRE"] {
        let mut points = [(0.0, 0u64); 2];
        for (point, n) in points.iter_mut().zip([50, 1_050]) {
            let mut s = Session::new(EngineConfig::raw());
            let sql = format!(
                "WITH {construct} c(x) AS (SELECT 0 UNION ALL \
                 SELECT x + 1 FROM c WHERE x < {n}) SELECT x FROM c"
            );
            let plan = s.prepare(&sql, &ParamScope::default()).unwrap();
            let before = s.stats.recursive_iterations;
            s.execute_prepared(&plan, Vec::new()).unwrap();
            let iters = s.stats.recursive_iterations - before;
            let best = best_ns(batches, || {
                s.execute_prepared(&plan, Vec::new()).unwrap();
            });
            *point = (best, iters);
        }
        let [(small, i0), (large, i1)] = points;
        println!(
            "  {:<12} vm    {:>9.1} ns/iter   ({i0}..{i1} iterations)",
            format!("x+1 {}", construct.to_lowercase()),
            (large - small) / (i1 - i0) as f64
        );
    }
}
