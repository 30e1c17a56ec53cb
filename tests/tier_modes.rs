//! Tiered-execution differential sweep — the correctness contract of the
//! monomorphized tier (DESIGN.md §7):
//!
//! > For any program, executing its fixpoint transitions in the mono
//! > tier wherever one was recognized (`Auto`, the default) or in the VM
//! > only (`ForceOff`) produces *bit-identical* results.
//!
//! The sweep covers generated programs (`genprog`, same seed space as the
//! other differential suites), all six paper kernels, and hand-written
//! functions that exercise the edges: NULL- and float-carrying rows the
//! mono tier must run natively, and a builtin error mid-execution that
//! every tier raises with the interpreter's text.
//!
//! Bit-identical is pinned by comparing the `Debug` rendering of results
//! (which distinguishes float bit patterns `PartialEq` may conflate), and
//! the sweep is only evidence if `Auto` actually promoted — the
//! promotion counters are asserted alongside the results.

use std::sync::Arc;

use plsql_away::prelude::*;
use plsql_away::workloads::genprog::{self, GenConfig};

/// A session whose engine runs fixpoints under the given tier policy,
/// over its own private database.
fn session_with_tier(mode: TierMode) -> Session {
    let mut config = EngineConfig::postgres_like();
    config.tier_mode = mode;
    Session::new(config)
}

/// `ForceOff` first: it is the reference every sweep compares `Auto` to.
const MODES: [TierMode; 2] = [TierMode::ForceOff, TierMode::Auto];

/// Tier modes on every generated program: interpretation is the reference,
/// and the compiled fixpoint must agree with it — and with itself across
/// both tier policies — bit for bit.
#[test]
fn tier_modes_are_bit_identical_on_generated_programs() {
    let mut rng = SessionRng::new(0x71E5);
    let seeds: Vec<u64> = (0..24).map(|_| rng.next_range(0, 99_999) as u64).collect();
    let mut auto_promotions = 0u64;
    for seed in seeds {
        let mut reference: Option<String> = None;
        for mode in MODES {
            let mut session = session_with_tier(mode);
            genprog::install_fixture(&mut session).unwrap();
            let prog = genprog::generate(seed, GenConfig::default());
            session
                .run(&prog.source)
                .unwrap_or_else(|e| panic!("seed {seed}: install: {e}\n{}", prog.source));

            let mut interp = Interpreter::new();
            interp.max_statements = 5_000_000;
            let interp_val = interp
                .call(&mut session, &prog.name, &prog.args)
                .unwrap_or_else(|e| {
                    panic!("seed {seed} mode {mode:?}: interp: {e}\n{}", prog.source)
                });
            for options in [CompileOptions::default(), CompileOptions::iterate()] {
                let compiled = compile_sql(&session.catalog, &prog.source, options).unwrap();
                let got = compiled.run(&mut session, &prog.args).unwrap_or_else(|e| {
                    panic!(
                        "seed {seed} tier {mode:?} cte {options:?}: {e}\n--- source ---\n{}\n--- sql ---\n{}",
                        prog.source, compiled.sql
                    )
                });
                assert_eq!(
                    format!("{got:?}"),
                    format!("{interp_val:?}"),
                    "seed {seed} tier {mode:?} cte {options:?}: compiled vs interp\n{}",
                    prog.source
                );
            }

            let rendering = format!("{interp_val:?}");
            match &reference {
                None => reference = Some(rendering),
                Some(want) => assert_eq!(
                    &rendering, want,
                    "seed {seed}: {mode:?} diverged from ForceOff\n{}",
                    prog.source
                ),
            }
            match mode {
                TierMode::ForceOff => assert_eq!(
                    session.metrics.tier_promotions, 0,
                    "seed {seed}: ForceOff must never promote"
                ),
                TierMode::Auto => auto_promotions += session.metrics.tier_promotions,
            }
        }
    }
    // The sweep is only evidence if the mono tier actually ran.
    assert!(
        auto_promotions > 0,
        "Auto sweep never promoted a generated transition"
    );
}

/// Tier modes on all six paper kernels, in both CTE modes. `walk` draws
/// from `random()` — a volatile transition the recognizer must refuse —
/// so its sessions are re-seeded before every run. Iteration counts and
/// kept transition rows must match too, whichever tier ran each
/// iteration.
#[test]
fn tier_modes_are_bit_identical_on_all_kernels() {
    use plaway_bench::{
        checked_args, fib_args, parse_args, settle_args, setup_checked, setup_fib, setup_parse,
        setup_settle, setup_traverse, setup_walk, traverse_args, walk_args, BenchSetup,
    };

    type Kernel = (fn(EngineConfig) -> BenchSetup, Vec<Value>);
    let kernels: Vec<Kernel> = vec![
        (setup_fib, fib_args(90)),
        (setup_walk, walk_args(60)),
        (setup_traverse, traverse_args(40)),
        (setup_parse, parse_args(120)),
        (setup_checked, checked_args(80)),
        (setup_settle, settle_args()),
    ];
    for (setup, args) in kernels {
        for options in [CompileOptions::default(), CompileOptions::iterate()] {
            let mut reference: Option<(String, [u64; 4])> = None;
            let mut name = "";
            for mode in MODES {
                let mut config = EngineConfig::postgres_like();
                config.tier_mode = mode;
                let mut b = setup(config);
                name = b.fn_name;
                let compiled = b.compile(options).unwrap();
                b.session.set_seed(1);
                let before = b.session.stats;
                let got = compiled
                    .run(&mut b.session, &args)
                    .unwrap_or_else(|e| panic!("{name} tier {mode:?} cte {options:?}: {e}"));
                let rendering = format!("{got:?}");
                let counters = tier_free_counters(&b.session, &before);
                match &reference {
                    None => reference = Some((rendering, counters)),
                    Some((want, want_counters)) => {
                        assert_eq!(
                            &rendering, want,
                            "{name} cte {options:?}: {mode:?} diverged from ForceOff"
                        );
                        assert_eq!(
                            &counters, want_counters,
                            "{name} cte {options:?}: {mode:?} counters diverged from ForceOff"
                        );
                    }
                }
                match mode {
                    TierMode::ForceOff => assert_eq!(
                        b.session.metrics.tier_promotions, 0,
                        "{name}: ForceOff must never promote"
                    ),
                    TierMode::Auto => {
                        // The two gated bench kernels must actually run mono
                        // here — otherwise the bench claim has no witness.
                        if matches!(name, "fibonacci" | "parse") {
                            assert!(
                                b.session.metrics.tier_promotions > 0,
                                "{name} cte {options:?}: Auto never promoted"
                            );
                        }
                    }
                }
            }
            assert!(!name.is_empty());
        }
    }
}

/// The cell kinds beyond integers, hand-written:
///
/// * `nully` drives a NULL through the accumulator mid-fixpoint — the
///   mono tier must reproduce exact 3VL;
/// * `floaty` makes the working set carry a float column, which the mono
///   tier computes with the VM's own `Value` arithmetic.
///
/// Both promote under `Auto`.
#[test]
fn null_and_float_rows_match_the_vm_bit_for_bit() {
    const NULLY: &str = "CREATE FUNCTION nully(n int) RETURNS int AS $$
        DECLARE i int := 0; acc int := 0;
        BEGIN
          WHILE i < n LOOP
            i := i + 1;
            acc := acc + nullif(i, 7);
          END LOOP;
          RETURN coalesce(acc, -1);
        END $$ LANGUAGE plpgsql";
    const FLOATY: &str = "CREATE FUNCTION floaty(n int) RETURNS int AS $$
        DECLARE i int := 0; acc float := 0.0;
        BEGIN
          WHILE i < n LOOP
            i := i + 1;
            acc := acc + 1;
          END LOOP;
          RETURN cast(acc AS int);
        END $$ LANGUAGE plpgsql";
    for (source, name) in [(NULLY, "nully"), (FLOATY, "floaty")] {
        let mut reference: Option<String> = None;
        for mode in MODES {
            let mut session = session_with_tier(mode);
            session.run(source).unwrap();
            let mut interp = Interpreter::new();
            let interp_val = interp
                .call(&mut session, name, &[Value::Int(20)])
                .unwrap_or_else(|e| panic!("{name}: interp: {e}"));
            for options in [CompileOptions::default(), CompileOptions::iterate()] {
                let compiled = compile_sql(&session.catalog, source, options).unwrap();
                let got = compiled.run(&mut session, &[Value::Int(20)]).unwrap();
                assert_eq!(
                    format!("{got:?}"),
                    format!("{interp_val:?}"),
                    "{name} tier {mode:?} cte {options:?}"
                );
            }
            let rendering = format!("{interp_val:?}");
            match &reference {
                None => reference = Some(rendering),
                Some(want) => assert_eq!(&rendering, want, "{name}: {mode:?} diverged"),
            }
            if mode == TierMode::Auto {
                assert!(
                    session.metrics.tier_promotions > 0,
                    "{name}: Auto never promoted"
                );
            }
        }
    }
}

/// A builtin that fails mid-fixpoint: the mono tier and the VM raise the
/// `repeat` error exactly as the interpreter does.
#[test]
fn builtin_errors_reraise_in_every_tier() {
    const PADDED: &str = "CREATE FUNCTION padded(n int) RETURNS int AS $$
        DECLARE i int := 0; acc int := 0;
        BEGIN
          WHILE i < 20 LOOP
            i := i + 1;
            acc := acc + length(repeat('ab', CASE WHEN i = 12 THEN n ELSE i END));
          END LOOP;
          RETURN acc;
        END $$ LANGUAGE plpgsql";
    for mode in MODES {
        let mut session = session_with_tier(mode);
        session.run(PADDED).unwrap();
        let mut interp = Interpreter::new();
        for n in [3, 2_000_000_000, i64::MAX] {
            let args = [Value::Int(n)];
            let want = interp
                .call(&mut session, "padded", &args)
                .map_err(|e| e.to_string());
            if n != 3 {
                let err = want.as_ref().unwrap_err();
                assert!(err.contains("requested length too large"), "{n}: {err}");
            }
            for options in [CompileOptions::default(), CompileOptions::iterate()] {
                let compiled = compile_sql(&session.catalog, PADDED, options).unwrap();
                let got = compiled.run(&mut session, &args).map_err(|e| e.to_string());
                assert_eq!(got, want, "n {n} tier {mode:?} cte {options:?}");
            }
        }
        if mode == TierMode::Auto {
            assert!(session.metrics.tier_promotions > 0, "Auto never promoted");
        }
    }
}

/// EXPLAIN ANALYZE reports the executing tier per fixpoint: `Auto`
/// promotes at fixpoint entry, so even the first run of a fresh plan
/// renders `tier=mono`; `ForceOff` stays `tier=vm`.
#[test]
fn explain_analyze_renders_the_executing_tier() {
    use plaway_bench::{fib_args, setup_fib};
    for (mode, needle, forbidden) in [
        (TierMode::Auto, "tier=mono", "tier=vm"),
        (TierMode::ForceOff, "tier=vm", "tier=mono"),
    ] {
        let mut config = EngineConfig::postgres_like();
        config.tier_mode = mode;
        let mut b = setup_fib(config);
        let compiled = b.compile(CompileOptions::iterate()).unwrap();
        let plan = compiled.prepare(&mut b.session).unwrap();
        let state = b
            .session
            .explain_analyze_prepared(&plan, fib_args(90))
            .unwrap();
        let lines = state.render(&plan.plan).join("\n");
        let fixpoint = lines
            .lines()
            .find(|l| l.starts_with("Fixpoint cte#"))
            .unwrap_or_else(|| panic!("{mode:?}: no fixpoint line in\n{lines}"));
        assert!(
            fixpoint.contains(needle),
            "{mode:?}: fixpoint line must report {needle:?}: {fixpoint}"
        );
        assert!(
            !fixpoint.contains(forbidden),
            "{mode:?}: fixpoint line must not report {forbidden:?}: {fixpoint}"
        );
    }
}

/// The fixpoint counters that must not depend on the executing tier: the
/// iteration count, the batch working-set counters, and the rows the
/// transition kept — counted by the VM as `fused_transition_rows` and by
/// the mono tier as `tier_mono_rows`. Each fixpoint counts them in the one
/// tier that ran it, so only their sum is tier-independent.
fn tier_free_counters(session: &Session, before: &plsql_away::engine::RuntimeStats) -> [u64; 4] {
    let d = session.stats.delta_since(before);
    [
        d.recursive_iterations,
        d.batch.batch_rows_retired,
        d.batch.batch_rows_in_flight,
        d.fused_transition_rows + d.tier.tier_mono_rows,
    ]
}

/// The batch trampoline (under `CteMode::Iterate`, one `WITH RETIRE`
/// fixpoint over a whole input table) under both tier policies, three
/// statements per session. Staging a batch is a data commit, so
/// statements 2 and 3 hit the plan statement 1 cached. Under `Auto` every
/// statement of both kernels promotes at fixpoint entry and runs its
/// whole fixpoint on the mono retire path; under `ForceOff` none does.
/// Results are bit-identical and the fixpoint counters equal across
/// policies, statement by statement.
#[test]
fn batch_trampoline_is_bit_identical_across_tiers() {
    use plaway_bench::{checked_args, setup_checked, setup_fib};
    let fib_calls: Vec<Vec<Value>> = (1..=8).map(|n| vec![Value::Int(n)]).collect();
    let checked_calls: Vec<Vec<Value>> = (1..=6).map(checked_args).collect();
    type Case<'a> = (
        fn(EngineConfig) -> plaway_bench::BenchSetup,
        &'a [Vec<Value>],
        Option<[u64; 4]>,
    );
    let cases: [Case; 2] = [
        // fib over 1..=8: 9 iterations, all 8 activations in flight at the
        // start and all 8 retired, 44 transition rows kept in total.
        (setup_fib, &fib_calls, Some([9, 8, 8, 44])),
        (setup_checked, &checked_calls, None),
    ];
    for (setup, calls, expected) in cases {
        let mut reference: Option<Vec<(String, [u64; 4])>> = None;
        for mode in MODES {
            let mut config = EngineConfig::postgres_like();
            config.tier_mode = mode;
            let mut b = setup(config);
            let name = b.fn_name;
            let compiled = b.compile(CompileOptions::iterate()).unwrap();
            let mut statements = Vec::new();
            for stmt in 1..=3 {
                let s = &mut b.session;
                let before = s.stats;
                let hits = s.plan_cache_hits;
                let got = compiled
                    .run_batch(s, calls)
                    .unwrap_or_else(|e| panic!("{name} batch tier {mode:?} #{stmt}: {e}"));
                let counters = tier_free_counters(s, &before);
                if stmt > 1 {
                    assert_eq!(
                        s.plan_cache_hits,
                        hits + 1,
                        "{name} batch tier {mode:?} #{stmt}: staging must not re-plan"
                    );
                }
                let d = s.stats.delta_since(&before);
                match mode {
                    TierMode::Auto => assert!(
                        d.tier.tier_promotions == 1 && d.fused_transition_rows == 0,
                        "{name} batch #{stmt}: Auto must run the whole fixpoint in mono ({d:?})"
                    ),
                    TierMode::ForceOff => assert!(
                        d.tier.tier_promotions == 0 && d.tier.tier_mono_rows == 0,
                        "{name} batch #{stmt}: ForceOff must stay in the VM ({d:?})"
                    ),
                }
                if let Some(want) = expected {
                    assert_eq!(counters, want, "{name} batch tier {mode:?} #{stmt}");
                }
                statements.push((format!("{got:?}"), counters));
            }
            let promotions = b.session.metrics.tier_promotions;
            match (name, mode) {
                ("fibonacci" | "checked_sum", TierMode::Auto) => {
                    assert_eq!(
                        promotions, 3,
                        "{name} batch: Auto must promote every statement"
                    )
                }
                (_, TierMode::ForceOff) => {
                    assert_eq!(promotions, 0, "{name} batch tier {mode:?} promoted")
                }
                _ => panic!("{name}: no promotion expectation for this kernel"),
            }
            match &reference {
                None => reference = Some(statements),
                Some(want) => assert_eq!(
                    &statements, want,
                    "{name} batch: {mode:?} results or counters diverged"
                ),
            }
        }
    }
}

/// The iteration limit holds in the mono tier exactly as in the VM, with
/// the VM's error text.
#[test]
fn mono_tier_enforces_the_iteration_limit() {
    use plaway_bench::{fib_args, setup_fib};
    for (options, word) in [
        (CompileOptions::default(), "recursive"),
        (CompileOptions::iterate(), "iterative"),
    ] {
        for mode in MODES {
            let mut config = EngineConfig::postgres_like();
            config.tier_mode = mode;
            config.max_recursive_iterations = 10;
            let mut b = setup_fib(config);
            let compiled = b.compile(options).unwrap();
            let err = compiled.run(&mut b.session, &fib_args(20)).unwrap_err();
            let want = format!("{word} CTE exceeded 10 iterations (possible infinite recursion)");
            assert!(
                err.to_string().contains(&want),
                "tier {mode:?} cte {options:?}: {err}"
            );
            if mode == TierMode::Auto {
                assert!(b.session.metrics.tier_promotions > 0, "cte {options:?}");
            }
        }
    }
}

/// Plans do not depend on the tier mode: a default session and a
/// `ForceOff` session attached to one database share the compiled
/// fibonacci plan, the second prepare hitting the cache. Each session's
/// tier mode alone decides where the fixpoint runs, and the results and
/// tier-free counters agree.
#[test]
fn one_plan_serves_both_tier_modes() {
    use plaway_bench::{fib_args, setup_fib};
    let mut b = setup_fib(EngineConfig::postgres_like());
    let mut off = Session::attach(b.session.database());
    off.config.tier_mode = TierMode::ForceOff;
    let compiled = b.compile(CompileOptions::iterate()).unwrap();
    let auto_plan = compiled.prepare(&mut b.session).unwrap();
    let off_plan = compiled.prepare(&mut off).unwrap();
    assert!(
        Arc::ptr_eq(&auto_plan, &off_plan),
        "the ForceOff session must reuse the default session's plan"
    );
    assert_eq!((off.plan_cache_hits, off.plan_cache_misses), (1, 0));

    let mut runs = Vec::new();
    for (session, plan) in [(&mut b.session, &auto_plan), (&mut off, &off_plan)] {
        let before = session.stats;
        let got = session.execute_prepared(plan, fib_args(90)).unwrap();
        runs.push((
            format!("{:?}", got.rows),
            tier_free_counters(session, &before),
        ));
    }
    assert_eq!(runs[0], runs[1], "tier modes diverged on one shared plan");
    assert_eq!(b.session.metrics.tier_promotions, 1);
    assert_eq!(off.metrics.tier_promotions, 0);
}
