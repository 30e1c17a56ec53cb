//! CI bench-regression gate.
//!
//! Compares a freshly produced `BENCH_smoke.json` against the committed
//! baseline and fails (exit code 1) when any shared key regressed beyond
//! the tolerance, when a baseline key disappeared, or when the paper's
//! headline property — compiled fibonacci beating the interpreter — no
//! longer holds in the fresh numbers. Fresh numbers are normalized by the
//! median fresh/baseline ratio first, so a uniformly slower or faster
//! machine (CI runner vs the baseline's container) does not trip the gate;
//! only keys that move against the pack do.
//!
//! Usage:
//! `bench_gate <baseline.json> <fresh.json> [tolerance-pct]`
//! (default tolerance 25%).

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Parse the flat `{"key": int, ...}` JSON that `bench_smoke` emits.
/// Hand-rolled on purpose: the container has no serde, and the format is
/// fixed by our own writer.
fn parse_bench_json(text: &str) -> Result<BTreeMap<String, u128>, String> {
    let mut out = BTreeMap::new();
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    for line in body.split(',') {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad entry {line:?}"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("bad key {key:?}"))?;
        let value: u128 = value
            .trim()
            .parse()
            .map_err(|_| format!("bad value for {key:?}: {value:?}"))?;
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

/// Median ratio fresh/baseline across shared keys: a hardware-speed
/// calibration factor. CI runners are not the machine the baseline was
/// committed from; a uniformly slower (or faster) machine scales every
/// key alike, while a real regression moves individual keys against the
/// pack. Normalizing by the median cancels the former and keeps the
/// latter.
fn scale_factor(baseline: &BTreeMap<String, u128>, fresh: &BTreeMap<String, u128>) -> f64 {
    let mut ratios: Vec<f64> = baseline
        .iter()
        .filter(|(k, _)| !k.starts_with("serve."))
        .filter_map(|(k, &b)| fresh.get(k).map(|&f| f as f64 / b as f64))
        .collect();
    if ratios.is_empty() {
        return 1.0;
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// One gate violation, human-readable.
fn check(
    baseline: &BTreeMap<String, u128>,
    fresh: &BTreeMap<String, u128>,
    tolerance_pct: u128,
) -> Vec<String> {
    let mut failures = Vec::new();
    let scale = scale_factor(baseline, fresh);
    for (key, &base) in baseline {
        // `serve.*` keys are throughput/ratio numbers (higher is better)
        // with machine-dependent thread counts; the dedicated serve checks
        // below gate them, not the lower-is-better ns comparison.
        if key.starts_with("serve.") {
            continue;
        }
        match fresh.get(key) {
            None => failures.push(format!("key {key:?} missing from fresh results")),
            Some(&now) => {
                let normalized = now as f64 / scale;
                let limit = (base + base * tolerance_pct / 100) as f64;
                if normalized > limit {
                    failures.push(format!(
                        "{key}: {now} ns ({normalized:.0} ns at machine scale {scale:.2}) vs \
                         baseline {base} ns (> +{tolerance_pct}% limit {limit:.0})"
                    ));
                }
            }
        }
    }
    // The paper's thesis, enforced: the compiled fibonacci modes must beat
    // the interpreter in the fresh numbers — and, since the EXCEPTION
    // machinery landed, so must the compiled `checked` error-handling
    // kernel (ITERATE mode; its margin is the widest). With the
    // materialize-once row-loop operator, `settle` flipped too: both
    // compiled modes must now beat the interpreter's one-shot cursor.
    let flips: &[(&str, &[&str])] = &[
        (
            "fibonacci.interpreter",
            &["fibonacci.with_recursive", "fibonacci.with_iterate"],
        ),
        ("checked.interpreter", &["checked.with_iterate"]),
        (
            "settle.interpreter",
            &["settle.with_recursive", "settle.with_iterate"],
        ),
    ];
    for (interp_key, modes) in flips {
        let Some(&interp) = fresh.get(*interp_key) else {
            continue;
        };
        for mode in *modes {
            if let Some(&compiled) = fresh.get(*mode) {
                if compiled >= interp {
                    failures.push(format!(
                        "{mode} ({compiled} ns) must be faster than {interp_key} \
                         ({interp} ns) — the compiled path lost its win"
                    ));
                }
            }
        }
    }
    // The batch trampoline's acceptance bar. Both per-call throughput pairs
    // must exist — a bench refactor silently dropping them must not pass —
    // and the single-fixpoint batch must beat N independent interpreted
    // calls by the kernel's factor: 5× for the dispatch-bound fibonacci
    // batch (per-call lifecycle dominates, amortization is the whole win),
    // 1.5× for the text-heavy checked batch (its per-call body work dwarfs
    // the lifecycle, so the honest margin is smaller).
    let batch_gates: &[(&str, f64)] = &[("fibonacci", 5.0), ("checked", 1.5)];
    for (kernel, factor) in batch_gates {
        let compiled_key = format!("batch.{kernel}.compiled_ns_per_call");
        let interp_key = format!("batch.{kernel}.interp_ns_per_call");
        match (fresh.get(&compiled_key), fresh.get(&interp_key)) {
            (Some(&compiled), Some(&interp)) => {
                let ratio = interp as f64 / compiled as f64;
                if ratio < *factor {
                    failures.push(format!(
                        "batch.{kernel}: compiled {compiled} ns/call vs interpreted \
                         {interp} ns/call is only {ratio:.2}x, need >= {factor}x — \
                         the batch trampoline lost its amortization win"
                    ));
                }
            }
            _ => failures.push(format!(
                "batch throughput keys {compiled_key:?} / {interp_key:?} \
                 missing from fresh results"
            )),
        }
    }
    // The cost-based access-path acceptance bar: on the 10⁵-row indexed
    // ledger, the Auto planner's probe must beat the ForceOff sequential
    // scan by ≥ 5× on both the point and the range predicate. Both keys of
    // each pair must exist — a bench refactor silently dropping the index
    // section must not pass. (`index.settle_top.*` is trajectory-only: the
    // kernel's fixpoint fold dominates the scan, so no ratio is enforced.)
    let index_gates: &[(&str, f64)] = &[("point", 5.0), ("range", 5.0)];
    for (probe, factor) in index_gates {
        let indexed_key = format!("index.{probe}.indexed_ns");
        let seq_key = format!("index.{probe}.seq_ns");
        match (fresh.get(&indexed_key), fresh.get(&seq_key)) {
            (Some(&indexed), Some(&seq)) => {
                let ratio = seq as f64 / indexed as f64;
                if ratio < *factor {
                    failures.push(format!(
                        "index.{probe}: indexed {indexed} ns vs seq scan {seq} ns is \
                         only {ratio:.2}x, need >= {factor}x — the index access path \
                         lost its win"
                    ));
                }
            }
            _ => failures.push(format!(
                "index access-path keys {indexed_key:?} / {seq_key:?} \
                 missing from fresh results"
            )),
        }
    }
    // The tiered-execution acceptance bar: on both shape-recognized
    // kernels the mono pipeline must run each fixpoint iteration
    // ≥ 1.5× faster than the VM. Both keys of each pair
    // must exist — a bench refactor silently dropping the tier section
    // must not pass. Per-iteration ns makes the ratio machine-portable:
    // both tiers run the same iterations on the same inputs, so dispatch
    // and boxing overhead is the only thing the quotient can measure.
    for kernel in ["fibonacci", "fsa"] {
        let vm_key = format!("tier.{kernel}.vm_ns_per_iter");
        let mono_key = format!("tier.{kernel}.mono_ns_per_iter");
        match (fresh.get(&vm_key), fresh.get(&mono_key)) {
            (Some(&vm), Some(&mono)) => {
                let ratio = vm as f64 / mono as f64;
                if ratio < TIER_SPEEDUP_MIN {
                    failures.push(format!(
                        "tier.{kernel}: mono {mono} ns/iter vs vm {vm} ns/iter is \
                         only {ratio:.2}x, need >= {TIER_SPEEDUP_MIN}x — the mono \
                         tier lost its win"
                    ));
                }
            }
            _ => failures.push(format!(
                "tier keys {vm_key:?} / {mono_key:?} missing from fresh results"
            )),
        }
    }
    failures.extend(check_serve(fresh));
    failures
}

/// The mono tier's per-iteration win over the VM, on both recognized
/// kernels.
const TIER_SPEEDUP_MIN: f64 = 1.5;

/// Concurrent-serving acceptance. Read scaling must be ≥ 2.5× at 4 reader
/// threads — but only on runners that actually have ≥ 4 hardware threads
/// (`serve.threads_available`, recorded by `serve_bench` itself). On
/// smaller machines the threads time-slice one core and the honest bar is
/// a no-collapse floor: 4 contending threads must still reach ≥ 0.5× of
/// single-thread throughput, i.e. the shared catalog/plan-cache locks must
/// not serialize readers into losing most of their standalone speed.
const SERVE_SCALING_MIN_X100: u128 = 250;
const SERVE_NO_COLLAPSE_MIN_X100: u128 = 50;
/// Warm plan-cache hit rate over the mixed workload's steady state. The
/// serve loop prepares each statement once and replays it, so after the
/// warmup pass nearly every execution must be a cache hit; a rate below
/// 90% means the shared plan cache is thrashing (bad keying, eviction
/// churn) and sessions are silently re-planning.
const SERVE_WARM_HIT_RATE_MIN_X100: u128 = 90;

fn check_serve(fresh: &BTreeMap<String, u128>) -> Vec<String> {
    let mut failures = Vec::new();
    let required = [
        "serve.threads_available",
        "serve.read.rps_1t",
        "serve.read.rps_4t",
        "serve.read.scaling_x100",
        "serve.read.p50_ns",
        "serve.read.p95_ns",
        "serve.read.p99_ns",
        "serve.mixed.rps_4t",
        "serve.mixed.p50_ns",
        "serve.mixed.p95_ns",
        "serve.mixed.p99_ns",
        "serve.cache.warm_hit_rate_x100",
    ];
    let missing: Vec<&str> = required
        .iter()
        .filter(|k| !fresh.contains_key(**k))
        .copied()
        .collect();
    if !missing.is_empty() {
        failures.push(format!(
            "serve keys missing from fresh results: {missing:?} — \
             run serve_bench before gating"
        ));
        return failures;
    }
    let threads = fresh["serve.threads_available"];
    let scaling = fresh["serve.read.scaling_x100"];
    let min = if threads >= 4 {
        SERVE_SCALING_MIN_X100
    } else {
        SERVE_NO_COLLAPSE_MIN_X100
    };
    if scaling < min {
        failures.push(format!(
            "serve.read.scaling_x100 = {scaling} (rps {} -> {} at 4 threads, \
             {threads} hw threads): need >= {min} — concurrent readers \
             {}",
            fresh["serve.read.rps_1t"],
            fresh["serve.read.rps_4t"],
            if threads >= 4 {
                "must scale >= 2.5x on a >= 4-core runner"
            } else {
                "collapsed under contention on a small machine"
            }
        ));
    }
    for key in ["serve.read.p99_ns", "serve.mixed.p99_ns"] {
        if fresh[key] == 0 {
            failures.push(format!("{key} is 0 — latency sampling is broken"));
        }
    }
    let hit_rate = fresh["serve.cache.warm_hit_rate_x100"];
    if hit_rate < SERVE_WARM_HIT_RATE_MIN_X100 {
        failures.push(format!(
            "serve.cache.warm_hit_rate_x100 = {hit_rate}: need >= \
             {SERVE_WARM_HIT_RATE_MIN_X100} — the shared plan cache is \
             re-planning prepared statements in steady state"
        ));
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (baseline_path, fresh_path) = match (args.get(1), args.get(2)) {
        (Some(b), Some(f)) => (b, f),
        _ => {
            eprintln!("usage: bench_gate <baseline.json> <fresh.json> [tolerance-pct]");
            return ExitCode::from(2);
        }
    };
    let tolerance_pct: u128 = args
        .get(3)
        .map(|t| t.parse().expect("tolerance must be an integer percent"))
        .unwrap_or(25);

    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|t| parse_bench_json(&t).map_err(|e| format!("{path}: {e}")))
    };
    let baseline = match read(baseline_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };
    let fresh = match read(fresh_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };

    for (key, &now) in &fresh {
        match baseline.get(key) {
            Some(&base) => {
                let delta = now as f64 / base as f64 - 1.0;
                println!("{key}: {base} -> {now} ns ({:+.1}%)", delta * 100.0);
            }
            None => println!("{key}: {now} ns (new, no baseline)"),
        }
    }

    let failures = check(&baseline, &fresh, tolerance_pct);
    if failures.is_empty() {
        println!(
            "bench-gate OK ({} keys, tolerance {tolerance_pct}%)",
            baseline.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench-gate FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: &[(&str, u128)]) -> BTreeMap<String, u128> {
        entries.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    /// A fresh map with batch throughput keys that satisfy the batch gate,
    /// so tests about the *other* checks aren't polluted by it.
    fn batch_ok(mut m: BTreeMap<String, u128>) -> BTreeMap<String, u128> {
        for (k, v) in [
            ("batch.fibonacci.compiled_ns_per_call", 700u128),
            ("batch.fibonacci.interp_ns_per_call", 4500),
            ("batch.checked.compiled_ns_per_call", 4000),
            ("batch.checked.interp_ns_per_call", 9500),
        ] {
            m.insert(k.to_string(), v);
        }
        tier_ok(index_ok(serve_ok(m)))
    }

    /// A fresh map with tier keys that satisfy the ≥ 1.5× mono gate
    /// (fibonacci at ~2.3×, fsa at ~1.7× — the measured margins).
    fn tier_ok(mut m: BTreeMap<String, u128>) -> BTreeMap<String, u128> {
        for (k, v) in [
            ("tier.fibonacci.vm_ns_per_iter", 280u128),
            ("tier.fibonacci.mono_ns_per_iter", 120),
            ("tier.fsa.vm_ns_per_iter", 1800),
            ("tier.fsa.mono_ns_per_iter", 1080),
        ] {
            m.entry(k.to_string()).or_insert(v);
        }
        m
    }

    /// A fresh map with index access-path keys that satisfy the ≥ 5× gate
    /// (point at 50×, range at ~20×, settle_top trajectory-only).
    fn index_ok(mut m: BTreeMap<String, u128>) -> BTreeMap<String, u128> {
        for (k, v) in [
            ("index.point.indexed_ns", 60_000u128),
            ("index.point.seq_ns", 3_000_000),
            ("index.range.indexed_ns", 150_000),
            ("index.range.seq_ns", 3_100_000),
            ("index.settle_top.indexed_ns", 8_000_000),
            ("index.settle_top.seq_ns", 9_000_000),
        ] {
            m.entry(k.to_string()).or_insert(v);
        }
        m
    }

    /// A fresh map with serve keys that satisfy the concurrency gate
    /// (8 hardware threads, 3.0× read scaling, nonzero tails).
    fn serve_ok(mut m: BTreeMap<String, u128>) -> BTreeMap<String, u128> {
        for (k, v) in [
            ("serve.threads_available", 8u128),
            ("serve.read.rps_1t", 1000),
            ("serve.read.rps_4t", 3000),
            ("serve.read.scaling_x100", 300),
            ("serve.read.p50_ns", 200_000),
            ("serve.read.p95_ns", 400_000),
            ("serve.read.p99_ns", 900_000),
            ("serve.mixed.rps_4t", 800),
            ("serve.mixed.p50_ns", 300_000),
            ("serve.mixed.p95_ns", 2_000_000),
            ("serve.mixed.p99_ns", 9_000_000),
            ("serve.cache.warm_hit_rate_x100", 99),
        ] {
            m.entry(k.to_string()).or_insert(v);
        }
        m
    }

    #[test]
    fn parses_bench_smoke_format() {
        let text = "{\n  \"walk.interpreter\": 1699912,\n  \"fibonacci.with_iterate\": 639418\n}\n";
        let m = parse_bench_json(text).unwrap();
        assert_eq!(m["walk.interpreter"], 1699912);
        assert_eq!(m["fibonacci.with_iterate"], 639418);
        assert!(parse_bench_json("not json").is_err());
    }

    #[test]
    fn within_tolerance_passes() {
        let base = map(&[("k.a", 1000), ("k.b", 2000)]);
        let fresh = batch_ok(map(&[("k.a", 1200), ("k.b", 1500)]));
        assert!(check(&base, &fresh, 25).is_empty());
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        // Three stable keys pin the machine-scale median at 1.0; the
        // fourth regresses against the pack.
        let base = map(&[("k.a", 1000), ("k.b", 1000), ("k.c", 1000), ("k.d", 1000)]);
        let fresh = batch_ok(map(&[
            ("k.a", 1300),
            ("k.b", 1000),
            ("k.c", 1000),
            ("k.d", 1000),
        ]));
        let failures = check(&base, &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("k.a"));
    }

    #[test]
    fn uniformly_slower_machine_passes() {
        // Everything 2x slower (different hardware): the median scale
        // cancels it, no false regressions.
        let base = map(&[("k.a", 1000), ("k.b", 2000), ("k.c", 3000)]);
        let fresh = batch_ok(map(&[("k.a", 2000), ("k.b", 4000), ("k.c", 6000)]));
        assert!(check(&base, &fresh, 25).is_empty());
        // ... but a key regressing on top of the uniform slowdown fails.
        let fresh = batch_ok(map(&[("k.a", 2900), ("k.b", 4000), ("k.c", 6000)]));
        let failures = check(&base, &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
    }

    #[test]
    fn missing_key_fails_new_key_passes() {
        let base = map(&[("k.a", 1000)]);
        let fresh = map(&[("k.b", 1000)]);
        assert!(
            !check(&base, &fresh, 25).is_empty(),
            "missing key must fail"
        );
        let base = map(&[("k.a", 1000)]);
        let fresh = batch_ok(map(&[("k.a", 1000), ("k.new", 5)]));
        assert!(check(&base, &fresh, 25).is_empty(), "new keys are fine");
    }

    #[test]
    fn compiled_fibonacci_must_beat_interpreter() {
        let base = map(&[]);
        let fresh = batch_ok(map(&[
            ("fibonacci.interpreter", 1000),
            ("fibonacci.with_recursive", 1100),
            ("fibonacci.with_iterate", 900),
        ]));
        let failures = check(&base, &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("with_recursive"));
    }

    #[test]
    fn compiled_checked_must_beat_interpreter_in_iterate_mode() {
        let base = map(&[]);
        let fresh = batch_ok(map(&[
            ("checked.interpreter", 1000),
            ("checked.with_iterate", 1200),
            // with_recursive is allowed to lose (not enforced).
            ("checked.with_recursive", 1500),
        ]));
        let failures = check(&base, &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("checked.with_iterate"));
        let fresh = batch_ok(map(&[
            ("checked.interpreter", 1000),
            ("checked.with_iterate", 800),
        ]));
        assert!(check(&base, &fresh, 25).is_empty());
    }

    #[test]
    fn missing_batch_throughput_keys_fail() {
        // A bench refactor that silently drops the batch section must not
        // pass the gate, even with an empty baseline.
        let base = map(&[]);
        let fresh = tier_ok(index_ok(serve_ok(map(&[("fibonacci.interpreter", 1000)]))));
        let failures = check(&base, &fresh, 25);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("batch.fibonacci"));
        assert!(failures[1].contains("batch.checked"));
        // Half a pair missing is still a failure.
        let fresh = batch_ok(map(&[]));
        let mut fresh = fresh;
        fresh.remove("batch.checked.interp_ns_per_call");
        let failures = check(&base, &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("batch.checked"));
    }

    #[test]
    fn batch_amortization_factors_enforced() {
        let base = map(&[]);
        // fibonacci at 4.5x (needs 5x) fails; checked at 2.4x passes.
        let fresh = tier_ok(index_ok(serve_ok(map(&[
            ("batch.fibonacci.compiled_ns_per_call", 1000),
            ("batch.fibonacci.interp_ns_per_call", 4500),
            ("batch.checked.compiled_ns_per_call", 4000),
            ("batch.checked.interp_ns_per_call", 9600),
        ]))));
        let failures = check(&base, &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("batch.fibonacci"));
        assert!(failures[0].contains("4.50x"));
        // checked below its own 1.5x bar fails too.
        let fresh = tier_ok(index_ok(serve_ok(map(&[
            ("batch.fibonacci.compiled_ns_per_call", 700),
            ("batch.fibonacci.interp_ns_per_call", 4500),
            ("batch.checked.compiled_ns_per_call", 4000),
            ("batch.checked.interp_ns_per_call", 5000),
        ]))));
        let failures = check(&base, &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("batch.checked"));
        // Both at their measured margins pass.
        assert!(check(&base, &batch_ok(map(&[])), 25).is_empty());
    }

    #[test]
    fn compiled_settle_must_beat_interpreter_in_both_modes() {
        // The materialize-once row loop flipped `settle`; the gate keeps it
        // flipped in both compiled modes.
        let base = map(&[]);
        let fresh = batch_ok(map(&[
            ("settle.interpreter", 1000),
            ("settle.with_recursive", 1100),
            ("settle.with_iterate", 900),
        ]));
        let failures = check(&base, &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("settle.with_recursive"));
        let fresh = batch_ok(map(&[
            ("settle.interpreter", 1000),
            ("settle.with_recursive", 950),
            ("settle.with_iterate", 900),
        ]));
        assert!(check(&base, &fresh, 25).is_empty());
    }

    #[test]
    fn index_access_path_speedup_enforced() {
        let base = map(&[]);
        // point at 4x (needs 5x) fails; range stays at its 20x margin.
        let mut fresh = batch_ok(map(&[]));
        fresh.insert("index.point.indexed_ns".into(), 200_000);
        fresh.insert("index.point.seq_ns".into(), 800_000);
        let failures = check(&base, &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("index.point"));
        assert!(failures[0].contains("4.00x"));
        // Half a pair missing is a failure — the index section must not be
        // droppable by a silent bench refactor.
        let mut fresh = batch_ok(map(&[]));
        fresh.remove("index.range.seq_ns");
        let failures = check(&base, &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("index.range"));
        // settle_top is trajectory-only: a near-1x ratio there passes.
        let mut fresh = batch_ok(map(&[]));
        fresh.insert("index.settle_top.indexed_ns".into(), 8_900_000);
        assert!(check(&base, &fresh, 25).is_empty());
        // All pairs at their measured margins pass.
        assert!(check(&base, &batch_ok(map(&[])), 25).is_empty());
    }

    #[test]
    fn missing_serve_keys_fail() {
        // A run that skipped serve_bench must not pass the gate.
        let mut fresh = batch_ok(map(&[]));
        fresh.retain(|k, _| !k.starts_with("serve."));
        let failures = check(&map(&[]), &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("run serve_bench before gating"));
    }

    #[test]
    fn read_scaling_enforced_on_multicore_runners() {
        // 4 hardware threads and only 1.8x scaling: readers are contending
        // on shared state — fail.
        let mut fresh = batch_ok(map(&[]));
        fresh.insert("serve.threads_available".into(), 4);
        fresh.insert("serve.read.scaling_x100".into(), 180);
        let failures = check(&map(&[]), &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("serve.read.scaling_x100 = 180"));
        // Exactly at the bar passes.
        fresh.insert("serve.read.scaling_x100".into(), 250);
        assert!(check(&map(&[]), &fresh, 25).is_empty());
    }

    #[test]
    fn small_machines_get_the_no_collapse_floor() {
        // 1 hardware thread: 1.09x "scaling" is expected time-slicing, not
        // a contention bug — pass.
        let mut fresh = batch_ok(map(&[]));
        fresh.insert("serve.threads_available".into(), 1);
        fresh.insert("serve.read.scaling_x100".into(), 109);
        assert!(check(&map(&[]), &fresh, 25).is_empty());
        // But collapsing to 0.3x of single-thread throughput means the
        // locks serialize everything — fail even on one core.
        fresh.insert("serve.read.scaling_x100".into(), 30);
        let failures = check(&map(&[]), &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("collapsed under contention"));
    }

    #[test]
    fn tier_speedup_enforced() {
        let base = map(&[]);
        // fibonacci at 1.4x (needs 1.5x) fails; fsa stays at its margin.
        let mut fresh = batch_ok(map(&[]));
        fresh.insert("tier.fibonacci.vm_ns_per_iter".into(), 280);
        fresh.insert("tier.fibonacci.mono_ns_per_iter".into(), 200);
        let failures = check(&base, &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("tier.fibonacci"));
        assert!(failures[0].contains("1.40x"));
        // Half a pair missing is a failure — the tier section must not be
        // droppable by a silent bench refactor.
        let mut fresh = batch_ok(map(&[]));
        fresh.remove("tier.fsa.mono_ns_per_iter");
        let failures = check(&base, &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("tier.fsa"));
        // Both pairs at their measured margins pass.
        assert!(check(&base, &batch_ok(map(&[])), 25).is_empty());
    }

    #[test]
    fn warm_cache_hit_rate_floor_enforced() {
        // A thrashing plan cache (hit rate below 90% in steady state)
        // fails even when throughput and latency look fine.
        let mut fresh = batch_ok(map(&[]));
        fresh.insert("serve.cache.warm_hit_rate_x100".into(), 62);
        let failures = check(&map(&[]), &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("serve.cache.warm_hit_rate_x100 = 62"));
        // Exactly at the floor passes.
        fresh.insert("serve.cache.warm_hit_rate_x100".into(), 90);
        assert!(check(&map(&[]), &fresh, 25).is_empty());
    }

    #[test]
    fn zero_p99_is_a_broken_bench() {
        let mut fresh = batch_ok(map(&[]));
        fresh.insert("serve.mixed.p99_ns".into(), 0);
        let failures = check(&map(&[]), &fresh, 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("serve.mixed.p99_ns"));
    }

    #[test]
    fn serve_keys_stay_out_of_the_ns_regression_loop() {
        // serve.* numbers are higher-is-better and machine-dependent: a
        // baseline with a higher rps than fresh must NOT trip the generic
        // lower-is-better comparison, and serve ratios must not skew the
        // machine-scale median.
        let base = map(&[
            ("k.a", 1000),
            ("serve.read.rps_4t", 50_000),
            ("serve.read.scaling_x100", 390),
        ]);
        let mut fresh = batch_ok(map(&[("k.a", 1000)]));
        fresh.insert("serve.read.rps_4t".into(), 3000);
        fresh.insert("serve.read.scaling_x100".into(), 300);
        assert!(check(&base, &fresh, 25).is_empty());
        assert!(
            (scale_factor(&base, &fresh) - 1.0).abs() < 1e-9,
            "serve ratios must not move the machine-scale median"
        );
    }
}
