//! Golden snapshot of the engine's deterministic work counters.
//!
//! Rows scanned, index probes, iterations, sub-plan evaluations, VM ops and
//! the rest of [`RuntimeStats`] are exact for a fixed input: they do not
//! depend on the machine. This suite runs the six paper kernels under both
//! fixpoint constructs on fixed arguments, plus one `fibonacci` and one
//! `checked_sum` batch through `run_batch`, each on a fresh session, and
//! pins every counter of every run. A change that is meant to leave the
//! engine's work alone must leave this file alone; one that moves a counter
//! regenerates it and names each changed line.
//!
//! Under the default tier policy, `Auto`, the eight sections that run a
//! recognized transition (`parse`, `fibonacci` and `checked_sum` in both
//! constructs, and both batches) run it in the mono tier from the first
//! iteration, so their kept rows show as `tier_mono_rows`.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test engine_counters
//! ```

use std::fmt::Write;
use std::path::PathBuf;

use plaway_bench::{
    batch_checked_calls, batch_fib_calls, checked_args, fib_args, parse_args, settle_args,
    setup_checked, setup_fib, setup_parse, setup_settle, setup_traverse, setup_walk, traverse_args,
    walk_args, BenchSetup,
};
use plsql_away::engine::RuntimeStats;
use plsql_away::prelude::*;

const GOLDEN: &str = "engine_counters.snap";

type Kernel = (&'static str, fn(EngineConfig) -> BenchSetup, Vec<Value>);

fn kernels() -> Vec<Kernel> {
    vec![
        ("walk", setup_walk, walk_args(200)),
        ("parse", setup_parse, parse_args(200)),
        ("traverse", setup_traverse, traverse_args(200)),
        ("fibonacci", setup_fib, fib_args(60)),
        ("checked_sum", setup_checked, checked_args(200)),
        ("settle", setup_settle, settle_args()),
    ]
}

/// One section of the snapshot: the run's label, its result, and the
/// counters it added, one field per line.
fn section(out: &mut String, label: &str, result: &str, stats: &RuntimeStats) {
    writeln!(out, "== {label}").unwrap();
    writeln!(out, "result: {result}").unwrap();
    writeln!(out, "{stats:#?}").unwrap();
}

fn snapshot() -> String {
    let mut out = String::new();
    for (name, setup, args) in kernels() {
        for (mode, options) in [
            ("recursive", CompileOptions::default()),
            ("iterate", CompileOptions::iterate()),
        ] {
            let mut b = setup(EngineConfig::raw());
            b.session.set_seed(1);
            let compiled = b.compile(options).unwrap();
            let before = b.session.stats;
            let got = compiled
                .run(&mut b.session, &args)
                .unwrap_or_else(|e| panic!("{name} {mode}: {e}"));
            let stats = b.session.stats.delta_since(&before);
            section(
                &mut out,
                &format!("{name} {mode}"),
                &format!("{got:?}"),
                &stats,
            );
        }
    }
    for (name, setup, calls) in [
        (
            "fibonacci",
            setup_fib as fn(EngineConfig) -> BenchSetup,
            batch_fib_calls(64),
        ),
        ("checked_sum", setup_checked, batch_checked_calls(64)),
    ] {
        let mut b = setup(EngineConfig::raw());
        b.session.set_seed(1);
        let compiled = b.compile(CompileOptions::iterate()).unwrap();
        let before = b.session.stats;
        let got = compiled
            .run_batch(&mut b.session, &calls)
            .unwrap_or_else(|e| panic!("{name} batch: {e}"));
        let stats = b.session.stats.delta_since(&before);
        section(
            &mut out,
            &format!("{name} batch"),
            &format!("{got:?}"),
            &stats,
        );
    }
    out
}

#[test]
fn engine_counters_match_snapshot() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(GOLDEN);
    let actual = snapshot();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1 to create it")
    });
    if want != actual {
        let diff: Vec<String> = want
            .lines()
            .zip(actual.lines())
            .enumerate()
            .filter(|(_, (w, a))| w != a)
            .map(|(i, (w, a))| format!("line {}: want `{w}`, got `{a}`", i + 1))
            .collect();
        panic!(
            "engine counters diverged from {GOLDEN} ({} lines differ, lengths {} vs {}):\n{}\n\
             if the change is intentional, regenerate with UPDATE_GOLDEN=1",
            diff.len(),
            want.lines().count(),
            actual.lines().count(),
            diff.join("\n")
        );
    }
}
