//! Golden snapshot of the engine's deterministic work counters.
//!
//! Rows scanned, index probes, iterations, sub-plan evaluations, VM ops and
//! the rest of [`RuntimeStats`] are exact for a fixed input: they do not
//! depend on the machine. This suite runs the six paper kernels under both
//! fixpoint constructs on fixed arguments, plus one `fibonacci` and one
//! `checked_sum` batch through `run_batch`, each on a fresh session, and
//! pins every counter of every run. Three hand-written fixpoints of the
//! form `SELECT x + 1 FROM c WHERE x < n`, one per construct (`WITH
//! RECURSIVE`, `ITERATE` and `RETIRE`), pin the recursive arms that are not
//! a fused transition. A change that is meant to leave the engine's work
//! alone must leave this file alone; one that moves a counter regenerates
//! it and names each changed line.
//!
//! Under the default tier policy, `Auto`, the eight sections that run a
//! recognized transition (`parse`, `fibonacci` and `checked_sum` in both
//! constructs, and both batches) run it in the mono tier from the first
//! iteration, so their kept rows show as `tier_mono_rows`.
//!
//! Allocations are exact too. The closing `== allocations` block counts
//! the heap allocations (`alloc`, `alloc_zeroed` and `realloc` calls) of
//! one warm `execute_prepared` per kernel, construct and tier mode. A
//! counting global allocator keeps its count per thread, so tests running
//! in parallel do not mix.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test engine_counters
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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

thread_local! {
    /// Heap allocations made by this thread. `const`-initialized and
    /// without a destructor, so the allocator can touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation on its thread.
struct Counting;

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the caller; counting touches only a
// `const`-initialized thread-local `Cell` without a destructor, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

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

/// A hand-written fixpoint per construct, counting to 100 in an arm that
/// is not a fused transition.
fn counters() -> [(&'static str, String); 3] {
    ["recursive", "iterate", "retire"].map(|mode| {
        let sql = format!(
            "WITH {} c(x) AS (SELECT 0 UNION ALL SELECT x + 1 FROM c WHERE x < 100) \
             SELECT count(*), max(x) FROM c",
            mode.to_uppercase()
        );
        (mode, sql)
    })
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
    for (mode, sql) in counters() {
        let mut session = Session::new(EngineConfig::raw());
        let before = session.stats;
        let got = session
            .run(&sql)
            .unwrap_or_else(|e| panic!("counter {mode}: {e}"));
        let stats = session.stats.delta_since(&before);
        section(
            &mut out,
            &format!("counter {mode}"),
            &format!("{:?}", got.rows),
            &stats,
        );
    }
    allocation_block(&mut out);
    out
}

/// The allocations of one warm `execute_prepared` (after one untimed
/// execute of the same plan) for every kernel × construct × tier mode, and
/// for each hand-written fixpoint.
fn allocation_block(out: &mut String) {
    writeln!(out, "== allocations").unwrap();
    for (name, setup, args) in kernels() {
        for (mode, options) in [
            ("recursive", CompileOptions::default()),
            ("iterate", CompileOptions::iterate()),
        ] {
            for (tier, tier_mode) in [("auto", TierMode::Auto), ("force_off", TierMode::ForceOff)] {
                let mut b = setup(EngineConfig {
                    tier_mode,
                    ..EngineConfig::raw()
                });
                let plan = b.compile(options).unwrap().prepare(&mut b.session).unwrap();
                b.session.set_seed(1);
                b.session.execute_prepared(&plan, args.clone()).unwrap();
                b.session.set_seed(1);
                let params = args.clone();
                let before = allocations();
                let got = b.session.execute_prepared(&plan, params);
                let n = allocations() - before;
                got.unwrap_or_else(|e| panic!("{name} {mode} {tier}: {e}"));
                writeln!(out, "{name} {mode} {tier}: {n}").unwrap();
            }
        }
    }
    for (mode, sql) in counters() {
        let mut session = Session::new(EngineConfig::raw());
        let plan = session.prepare(&sql, &ParamScope::default()).unwrap();
        session.execute_prepared(&plan, Vec::new()).unwrap();
        let before = allocations();
        let got = session.execute_prepared(&plan, Vec::new());
        let n = allocations() - before;
        got.unwrap_or_else(|e| panic!("counter {mode}: {e}"));
        writeln!(out, "counter {mode}: {n}").unwrap();
    }
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
