//! `plaway_bench`: the end-to-end benchmark of the PL/SQL compiler and the
//! engine that runs its output, with a per-layer breakdown from a traced
//! run.
//!
//! ```text
//! cargo run --release --manifest-path plaway_bench/Cargo.toml -- \
//!     --workload <kernels_hot|batch_apply|compile_cold|serve_churn|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--spans DIR]
//! ```
//!
//! The benchmark drives the system only through public APIs, on
//! `EngineConfig::raw()` with default policies. It prints every figure as
//! `name value unit`, then one JSON line: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). A wrong answer or a failed call counts in
//! `failed` and makes the exit code 1. `--workload all` runs each workload
//! in a child process of its own.
//!
//! # Workloads
//!
//! Inputs come from `--seed` (default 1). Each workload uses one thread
//! except `serve_churn`, which uses two. Requests are timed for `--seconds`
//! (default 20) after a set-up that is itself timed five times.
//!
//! * `kernels_hot`: one session runs the six kernels (walk, fibonacci,
//!   graph, fsa, checked, settle) in shuffled rounds, each request drawn
//!   from a seeded pool of 256 argument vectors per kernel. Every request
//!   is `Compiled::prepare` (a plan-cache hit) and `execute_prepared`.
//!   Why: the paper's headline regime; plans are cached, so the fixpoint
//!   executor, the VM and the tier do nearly all the work.
//! * `batch_apply`: `Compiled::run_batch` statements (`WITH ITERATE`),
//!   two fibonacci batches of 512 rows for each checked_sum batch of 256.
//!   Why: `SELECT f(t.x) FROM t`; the same fixpoint layer in retire mode
//!   with many short activations, plus a staging commit and a re-plan per
//!   statement, so a change that helps one retention mode and hurts
//!   another shows.
//! * `compile_cold`: each request compiles a distinct generated program
//!   (`genprog`, default configuration), prepares it (always a miss) and
//!   executes it once. Why: the first call of a newly deployed function;
//!   compile passes, SQL parsing and planning do nearly all the work.
//! * `serve_churn`: one `Database`; a reader thread runs a closed loop of
//!   short fibonacci, checked, graph and walk requests (prepare by SQL text
//!   through the shared cache, then execute) while a writer thread issues
//!   an INSERT, every 8th a `CREATE OR REPLACE FUNCTION`, every 16th a
//!   DELETE, in an open loop at 100 statements/s timed from their due
//!   time. Why: every commit flushes every cached plan, so the commit,
//!   snapshot and plan-cache layers carry the load and the reader's tail
//!   shows it.
//!
//! Every result is checked against a reference the compiler did not
//! produce: the `*_reference` functions of `plaway-workloads` (which the
//! interpreter must also match on a sample), and the interpreter itself
//! for `walk` (under the request's RNG seed) and for every generated
//! program, each on a database of its own. The inputs are hashed (FNV-1a);
//! seed 1 must hash to the value pinned in each workload, so a change to
//! the generators in `plaway-workloads` stops the benchmark instead of
//! silently changing what it measures.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Every workload reports all of them. `setup_s` is the median of five
//! set-ups (generate, install, compile, compute references, warm up). The
//! others are computed per block of 1 000 consecutive requests and
//! reported as the median over blocks, so a few seconds of contention from
//! other tenants of the machine move one block, not the result.
//! `calls_per_s` counts PL/SQL invocations per second: a kernel request, a
//! batch row, a generated program and a reader request each count as one.
//! Latencies are per statement. `geomean_p50_us` is the geometric mean of
//! each request class's median (the six kernels on `kernels_hot`).
//! `peak_rss_mb` is the process's `VmHWM` after the first 2 000 measured
//! requests, so it does not grow with throughput (the shared plan cache
//! keeps every `compile_cold` plan). Per-class medians and ns/iteration
//! over the whole run, and the writer's latency on `serve_churn`, are
//! printed but not bounded.
//!
//! On a two-core shared VM, ten seeds of one workload spread by 2 to 8%
//! while the machine is quiet, but other tenants can slow every run by a
//! quarter for minutes at a time; so every bound in BENCHMARK.json is 0.25.
//!
//! The tail, `latency_p99_us`, is the block's 99th percentile, which has
//! ten samples beyond it (a run of fewer than 1 000 requests is one block
//! and reports the highest of p95, p90, p75 and p50 that keeps ten beyond,
//! as `latency.tail_pct` says). Over ten seeds it spreads by 12 to 17% on
//! `compile_cold` and `serve_churn` on that machine, too much for a bound,
//! so it is a per-layer metric, taken from the untraced half of the traced
//! run.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The traced run sets up once, measures half of `--seconds` untraced and
//! half traced, and writes the spans to `<spans>/<workload>.spans.jsonl`
//! (default `bench_spans/`). A span wraps each public call; the traced path
//! calls the compiler passes one by one (byte-identical to `compile_sql`)
//! and the executor phases one by one. `sql.parse` and `engine.plan` come
//! from parsing and planning the compiled SQL again outside any request.
//! Times are mean self times per call (per compile for the passes), from
//! the measured phase, or from set-up for a layer the measured phase does
//! not enter. Counts are per PL/SQL call of the measured phase. The
//! modeled PostgreSQL busy-wait is not timed: `raw` charges none, and
//! `engine.start_penalty_charges_per_stmt` counts the charges the
//! `postgres_like` profile would make (2.85 us each, Start plus End).
//!
//! Which end-to-end metric each layer should move (a workload that
//! bypasses the layer should not move):
//!
//! | layer metrics | should move |
//! |---|---|
//! | `plsql.parse_us`, `core.*` | `compile_cold` latency and `calls_per_s`; not `kernels_hot` |
//! | `sql.print_us`, `sql.parse_us`, `engine.plan_us` | `compile_cold`; `batch_apply` (a re-plan per statement); `serve_churn` `latency_p99_us` |
//! | `engine.prepare_us`, `engine.plan_cache_*` | `serve_churn` `latency_p99_us`; the hit ratio stays 1 on `kernels_hot` |
//! | `engine.exec_*`, `engine.*_per_call`, `engine.ns_per_iter`, `engine.*_ratio`, `engine.tier_promotions`, `kernel.*` | `kernels_hot` latencies and `geomean_p50_us`; barely `compile_cold` |
//! | `engine.run_ns_per_call`, `batch.*` | `batch_apply` `calls_per_s` |
//! | `engine.commit_us` | `serve_churn` writer and reader tails; `batch_apply` staging |
//! | `interp.call_us` | `compile_cold` `setup_s` |
//!
//! `trace_overhead_pct` compares the traced half's throughput with the
//! untraced half's; `trace.unattributed_pct` is the share of request time
//! no layer span covers.
//!
//! CI still gates on `bench_smoke`, `serve_bench` and `bench_gate`; this
//! benchmark does not replace them yet.

mod batch_apply;
mod bench;
mod calls;
mod compile_cold;
mod kernels;
mod kernels_hot;
mod serve_churn;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use bench::{Options, Report, FULL};

const WORKLOADS: [&str; 4] = ["kernels_hot", "batch_apply", "compile_cold", "serve_churn"];

fn run_workload(name: &str, o: &Options) -> plaway_common::Result<Report> {
    match name {
        "kernels_hot" => bench::run::<kernels_hot::KernelsHot>(o),
        "batch_apply" => bench::run::<batch_apply::BatchApply>(o),
        "compile_cold" => bench::run::<compile_cold::CompileCold>(o),
        "serve_churn" => bench::run::<serve_churn::ServeChurn>(o),
        _ => unreachable!("checked by the argument parser"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        spans: PathBuf::from("bench_spans"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--spans" => args.spans = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// `--workload all`: each workload in a child process of its own.
fn run_all() -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running executable");
    let passed: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    for w in WORKLOADS {
        let mut args = passed.clone();
        let at = args.iter().position(|a| a == "--workload").expect("parsed") + 1;
        args[at] = w.to_string();
        let status = Command::new(&exe).args(&args).status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print(report: &Report) {
    for (name, value, unit) in &report.info {
        println!("{name} {value} {unit}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("plaway_bench: {e}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("PLAWAY_TIER_MODE").is_some() {
        eprintln!("plaway_bench: PLAWAY_TIER_MODE is set; the benchmark measures the default policies only");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all();
    }
    let options = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: FULL,
        check_fingerprint: args.seed == 1,
        span_dir: args.trace.then_some(args.spans),
    };
    match run_workload(&args.workload, &options) {
        Ok(report) => {
            print(&report);
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("plaway_bench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{Scale, Workload};
    use crate::trace::Tracer;
    use plaway_core::{compile_sql, CompileOptions, Compiled};
    use plaway_engine::{Database, EngineConfig};
    use plaway_workloads::genprog;

    const SHORT: Scale = Scale {
        pool: 16,
        warmup: 4,
    };

    fn assert_same(a: &Compiled, b: &Compiled) {
        assert_eq!(a.sql, b.sql);
        assert_eq!(a.batch_sql, b.batch_sql);
        assert_eq!(a.udf_sql, b.udf_sql);
        assert_eq!(a.goto_text, b.goto_text);
        assert_eq!(a.ssa_text, b.ssa_text);
        assert_eq!(a.anf_text, b.anf_text);
        assert_eq!(a.batch_table, b.batch_table);
        assert_eq!(a.param_names, b.param_names);
        assert_eq!(a.opt_stats, b.opt_stats);
    }

    #[test]
    fn traced_compile_matches_compile_sql() {
        let mut t = Tracer::new(true, 0);
        let db = Database::new(EngineConfig::raw());
        let mut s = db.session();
        let world = kernels::World::generate();
        world.install(&mut Tracer::off(), &mut s).unwrap();
        genprog::install_fixture(&mut s).unwrap();
        let mut sources: Vec<String> = (0..kernels::NAMES.len())
            .map(|k| kernels::function(k).source)
            .collect();
        sources.extend((0..200).map(|seed| genprog::generate(seed, Default::default()).source));
        for source in &sources {
            for options in [CompileOptions::default(), CompileOptions::iterate()] {
                let plain = compile_sql(&s.catalog, source, options).unwrap();
                let traced = calls::compile(&mut t, &s, source, options).unwrap();
                assert_same(&plain, &traced);
            }
        }
        assert_eq!(t.compiles.len(), 2 * sources.len());
    }

    fn short(trace: bool) -> Options {
        Options {
            seed: 3,
            seconds: 0.4,
            trace,
            scale: SHORT,
            check_fingerprint: false,
            span_dir: None,
        }
    }

    #[test]
    fn every_workload_runs_short_without_failures() {
        for name in WORKLOADS {
            for trace in [false, true] {
                let report = run_workload(name, &short(trace)).unwrap();
                assert!(report.attempted > 0, "{name}");
                assert_eq!(report.failed, 0, "{name} trace={trace}");
                let expected = if trace {
                    bench::PER_LAYER.len()
                } else {
                    bench::END_TO_END.len()
                };
                assert_eq!(report.metrics.len(), expected, "{name}");
            }
        }
    }

    fn fingerprint<W: Workload>(seed: u64) -> u64 {
        W::fingerprint(&W::generate(seed, &FULL))
    }

    fn fingerprint_is_pinned<W: Workload>() {
        let one = fingerprint::<W>(1);
        assert_eq!(one, fingerprint::<W>(1), "{}: stable", W::NAME);
        assert_ne!(one, fingerprint::<W>(2), "{}: seeded", W::NAME);
        assert_eq!(
            one,
            W::SEED1_FINGERPRINT,
            "{}: seed 1 hashes to {one:016x}",
            W::NAME
        );
    }

    #[test]
    fn input_fingerprints_are_stable_seeded_and_pinned() {
        fingerprint_is_pinned::<kernels_hot::KernelsHot>();
        fingerprint_is_pinned::<batch_apply::BatchApply>();
        fingerprint_is_pinned::<compile_cold::CompileCold>();
        fingerprint_is_pinned::<serve_churn::ServeChurn>();
    }
}
