//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. execution mode: interpreter vs recursive SQL UDF (Figure 7, §2's
//!    "disappointing performance characteristics") vs WITH RECURSIVE vs
//!    WITH ITERATE,
//! 2. argument layout: flattened columns vs packed ROW (Figure 8),
//! 3. SSA optimization passes on/off.
//!
//! Usage: `cargo run --release -p plaway-bench --bin ablation [-- udf]`

use std::time::Instant;

use plaway_bench::*;
use plaway_common::Value;
use plaway_core::{ArgsLayout, CompileOptions, CteMode};
use plaway_engine::{EngineConfig, TierMode};

fn time_ms(f: impl FnMut()) -> f64 {
    let mut f = f;
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

fn main() {
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

    // ---- execution tier per-iteration cost -------------------------------
    // The fused fixpoint transition in the VM vs the mono pipeline, on the
    // two shape-recognized kernels. Total wall time over the
    // `recursive_iterations` delta gives ns per iteration — both tiers run
    // the same iterations on the same inputs, so the ratio is exactly the
    // operand-stack traffic and dispatch the mono tier removes.
    println!("\ntiered execution: ns per fixpoint iteration, VM vs mono:");
    type TierCase = (&'static str, fn(EngineConfig) -> BenchSetup, Vec<Value>);
    let tier_cases: [TierCase; 2] = [
        ("fibonacci(500)", setup_fib, fib_args(500)),
        ("parse(150)", setup_parse, parse_args(150)),
    ];
    for (name, setup, args) in tier_cases {
        let mut per_iter = [0u128; 2];
        for (t, mode) in [TierMode::ForceOff, TierMode::Auto].into_iter().enumerate() {
            let mut config = EngineConfig::postgres_like();
            config.tier_mode = mode;
            let mut b = setup(config);
            let compiled = b.compile(CompileOptions::iterate()).unwrap();
            let plan = compiled.prepare(&mut b.session).unwrap();
            b.session.set_seed(1);
            let before = b.session.stats.recursive_iterations;
            b.session.execute_prepared(&plan, args.clone()).unwrap();
            let iters = ((b.session.stats.recursive_iterations - before) as u128).max(1);
            let mut best = u128::MAX;
            for _ in 0..5 {
                b.session.set_seed(1);
                let t0 = Instant::now();
                b.session.execute_prepared(&plan, args.clone()).unwrap();
                best = best.min(t0.elapsed().as_nanos());
            }
            per_iter[t] = best / iters;
        }
        println!(
            "  {name:<28} vm {:>6} ns/iter   mono {:>6} ns/iter   ({:.1}x)",
            per_iter[0],
            per_iter[1],
            per_iter[0] as f64 / per_iter[1] as f64
        );
    }
}
