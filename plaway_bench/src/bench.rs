//! The measurement driver the four workloads share: set-up, the measured
//! phase, and the metrics computed from them.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use plaway_common::{Error, Result};
use plaway_engine::{EngineConfig, Session};

use crate::calls::Work;
use crate::stats::{geomean, median, percentile, tail_pct};
use crate::trace::{Tracer, REQUEST};

/// End-to-end metrics, reported with tracing off. BENCHMARK.json lists the
/// same names and units (`tests::benchmark_json_lists_every_metric`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("calls_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("geomean_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, computed from a traced run. The first is not a
/// layer's: the p99 varies too much from run to run on a shared machine to
/// carry a bound, so it is reported here, from the untraced half.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("latency_p99_us", "us"),
    ("plsql.parse_us", "us"),
    ("core.cfg_us", "us"),
    ("core.ssa_us", "us"),
    ("core.opt_us", "us"),
    ("core.anf_us", "us"),
    ("core.inline_us", "us"),
    ("core.udf_us", "us"),
    ("core.cte_us", "us"),
    ("core.compile_us", "us"),
    ("sql.print_us", "us"),
    ("core.cfg_blocks", "count"),
    ("core.ssa_blocks", "count"),
    ("core.opt_rewrites", "count"),
    ("core.anf_funcs", "count"),
    ("core.sql_bytes", "bytes"),
    ("sql.parse_us", "us"),
    ("engine.plan_us", "us"),
    ("engine.prepare_us", "us"),
    ("engine.plan_cache_hit_ratio", "ratio"),
    ("engine.plan_cache_evictions", "count"),
    ("engine.exec_start_us", "us"),
    ("engine.exec_run_us", "us"),
    ("engine.exec_end_us", "us"),
    ("engine.start_penalty_charges_per_stmt", "count"),
    ("engine.iterations_per_call", "count"),
    ("engine.vm_ops_per_call", "count"),
    ("engine.rows_scanned_per_call", "count"),
    ("engine.index_probes_per_call", "count"),
    ("engine.subplan_evals_per_call", "count"),
    ("engine.ns_per_iter", "ns"),
    ("engine.run_ns_per_call", "ns"),
    ("engine.fused_rows_ratio", "ratio"),
    ("engine.mono_rows_ratio", "ratio"),
    ("engine.tier_promotions", "count"),
    ("engine.commit_us", "us"),
    ("batch.peak_in_flight", "count"),
    ("batch.retired_per_stmt", "count"),
    ("interp.call_us", "us"),
    ("kernel.walk.iters_per_call", "count"),
    ("kernel.walk.vm_ops_per_call", "count"),
    ("kernel.fibonacci.iters_per_call", "count"),
    ("kernel.fibonacci.vm_ops_per_call", "count"),
    ("kernel.graph.iters_per_call", "count"),
    ("kernel.graph.vm_ops_per_call", "count"),
    ("kernel.fsa.iters_per_call", "count"),
    ("kernel.fsa.vm_ops_per_call", "count"),
    ("kernel.checked.iters_per_call", "count"),
    ("kernel.checked.vm_ops_per_call", "count"),
    ("kernel.settle.iters_per_call", "count"),
    ("kernel.settle.vm_ops_per_call", "count"),
    ("trace_overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// How many set-ups a run times; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Input sizes. The command always runs at [`FULL`]; tests run smaller.
pub struct Scale {
    /// Argument vectors per kernel pool (other workloads scale from it).
    pub pool: usize,
    /// Warm-up rounds of `kernels_hot` (other workloads scale from it).
    pub warmup: usize,
}

pub const FULL: Scale = Scale {
    pool: 256,
    warmup: 200,
};

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Threads the workload runs on (at most `nproc` = 2).
    const THREADS: usize;
    /// [`Workload::fingerprint`] of the seed-1 inputs at [`FULL`] scale.
    const SEED1_FINGERPRINT: u64;
    type Inputs;

    /// Generate every input from the seed; the system is not involved.
    fn generate(seed: u64, scale: &Scale) -> Self::Inputs;
    /// FNV-1a over the generated inputs and the function sources.
    fn fingerprint(inputs: &Self::Inputs) -> u64;
    /// Install, compile, compute references and warm up.
    fn setup(inputs: Self::Inputs, scale: &Scale, t: &mut Tracer) -> Result<Self>;
    /// Run requests for `budget` and check every result.
    fn measure(&mut self, t: &mut Tracer, budget: Duration) -> Result<Run>;
}

/// Per request class: what the engine did for it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Class {
    pub calls: u64,
    pub iters: u64,
    pub vm_ops: u64,
    pub run_ns: u128,
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    class: usize,
    ns: u64,
    /// Invocations it completed (0 if it failed).
    calls: u64,
    /// When it ended, in measured time since the phase began.
    end_ns: u64,
}

/// One measured phase: its timed requests, the engine work behind them,
/// and the measuring session's counters over the phase.
pub struct Run {
    pub classes: Vec<&'static str>,
    samples: Vec<Sample>,
    pub per_class: Vec<Class>,
    pub attempted: u64,
    pub failed: u64,
    /// Engine counters of the measuring session over the phase.
    pub work: Work,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
    /// Workload-specific figures, printed but not part of the contract.
    pub notes: Vec<(String, f64, &'static str)>,
    /// `VmHWM` once [`RSS_AFTER`] requests completed.
    rss_mb: Option<f64>,
    start: Instant,
    paused: Duration,
    before: (Work, u64, u64, u64),
}

/// The end-to-end figures are computed per block of this many consecutive
/// requests and reported as the median over blocks: a few seconds of
/// contention from other tenants of the machine then move one block, not
/// the result. A block leaves ten samples beyond its p99.
const BLOCK: usize = 1_000;

/// `peak_rss_mb` is read after this many requests (or at the end of a
/// shorter phase), so it does not grow with throughput where the engine
/// keeps state per request: `compile_cold` caches every plan, and its
/// plans differ in size from seed to seed, which 2 000 of them average.
const RSS_AFTER: usize = 2_000;

impl Run {
    /// Start the phase clock and remember `s`'s counters.
    pub fn begin(classes: &[&'static str], s: &Session) -> Run {
        Run {
            classes: classes.to_vec(),
            samples: Vec::new(),
            per_class: vec![Class::default(); classes.len()],
            attempted: 0,
            failed: 0,
            work: Work::default(),
            cache_hits: 0,
            cache_misses: 0,
            evictions: 0,
            notes: Vec::new(),
            rss_mb: None,
            start: Instant::now(),
            paused: Duration::ZERO,
            before: (
                Work::of(s),
                s.plan_cache_hits,
                s.plan_cache_misses,
                s.database().plan_cache_stats().evictions,
            ),
        }
    }

    /// Measured time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed() - self.paused
    }

    /// Leave `f`'s time out of the phase (benchmark-side preparation).
    pub fn pause<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.paused += t0.elapsed();
        out
    }

    /// One timed request of `class` that made `calls` invocations.
    pub fn record(&mut self, class: usize, elapsed: Duration, calls: u64, ok: bool, work: &Work) {
        self.samples.push(Sample {
            class,
            ns: elapsed.as_nanos() as u64,
            calls: if ok { calls } else { 0 },
            end_ns: self.elapsed().as_nanos() as u64,
        });
        if self.samples.len() == RSS_AFTER {
            self.rss_mb = peak_rss_mb().ok();
        }
        self.check(ok);
        let c = &mut self.per_class[class];
        c.calls += calls;
        c.iters += work.stats.recursive_iterations;
        c.vm_ops += work.stats.vm_ops_executed;
        c.run_ns += work.run_ns;
    }

    /// One attempted operation; `ok` is false on an error or wrong answer.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Set-up fails if its warm-up did.
    pub fn ensure_clean(&self, what: &str) -> Result<()> {
        if self.failed > 0 {
            return Err(Error::exec(format!(
                "{what}: {} of {} requests failed",
                self.failed, self.attempted
            )));
        }
        Ok(())
    }

    /// Take `s`'s counter deltas over the phase.
    pub fn finish(&mut self, s: &Session) {
        let (work, hits, misses, evictions) = &self.before;
        self.work = Work::since(s, work);
        self.cache_hits = s.plan_cache_hits - hits;
        self.cache_misses = s.plan_cache_misses - misses;
        self.evictions = s.database().plan_cache_stats().evictions - evictions;
    }

    /// The samples in blocks of [`BLOCK`] (one short block if fewer).
    fn blocks(&self) -> Vec<&[Sample]> {
        if self.samples.len() < BLOCK {
            return vec![&self.samples[..]];
        }
        self.samples.chunks_exact(BLOCK).collect()
    }

    /// Median over blocks of each block's throughput, p50, tail and
    /// geometric mean of per-class p50s.
    fn block_medians(&self) -> Result<BlockMedians> {
        if self.samples.is_empty() {
            return Err(Error::exec("the measured phase completed no request"));
        }
        let (mut cps, mut p50, mut tail, mut geo) = (vec![], vec![], vec![], vec![]);
        let mut prev_end = 0;
        for block in self.blocks() {
            let end = block.last().expect("non-empty").end_ns;
            let calls: u64 = block.iter().map(|s| s.calls).sum();
            cps.push(calls as f64 / ((end - prev_end) as f64 / 1e9));
            prev_end = end;
            let sorted = sorted_ns(block, None);
            p50.push(percentile(&sorted, 50.0) as f64 / 1e3);
            tail.push(percentile(&sorted, tail_pct(block.len())) as f64 / 1e3);
            let class_p50: Vec<f64> = (0..self.classes.len())
                .map(|c| sorted_ns(block, Some(c)))
                .filter(|v| !v.is_empty())
                .map(|v| percentile(&v, 50.0) as f64 / 1e3)
                .collect();
            geo.push(geomean(&class_p50));
        }
        Ok(BlockMedians {
            blocks: cps.len(),
            calls_per_s: median(cps),
            p50_us: median(p50),
            tail_us: median(tail),
            geomean_p50_us: median(geo),
        })
    }
}

struct BlockMedians {
    blocks: usize,
    calls_per_s: f64,
    p50_us: f64,
    tail_us: f64,
    geomean_p50_us: f64,
}

/// Ascending latencies of `samples`, of one class or all.
fn sorted_ns(samples: &[Sample], class: Option<usize>) -> Vec<u64> {
    let mut v: Vec<u64> = samples
        .iter()
        .filter(|s| class.is_none_or(|c| c == s.class))
        .map(|s| s.ns)
        .collect();
    v.sort_unstable();
    v
}

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Abort unless the inputs hash to [`Workload::SEED1_FINGERPRINT`].
    pub check_fingerprint: bool,
    /// Where a traced run writes `<workload>.spans.jsonl`.
    pub span_dir: Option<PathBuf>,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Contract metrics: end-to-end or per-layer, by `--trace`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth printing, as `name value unit`.
    pub info: Vec<(String, String, &'static str)>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn generate_checked<W: Workload>(o: &Options) -> Result<(W::Inputs, u64)> {
    let inputs = W::generate(o.seed, &o.scale);
    let fingerprint = W::fingerprint(&inputs);
    if o.check_fingerprint && fingerprint != W::SEED1_FINGERPRINT {
        return Err(Error::exec(format!(
            "{}: seed-1 inputs hash to {fingerprint:016x}, expected {:016x}; \
             the generators in plaway-workloads changed",
            W::NAME,
            W::SEED1_FINGERPRINT
        )));
    }
    Ok((inputs, fingerprint))
}

pub fn run<W: Workload>(o: &Options) -> Result<Report> {
    let budget = Duration::from_secs_f64(o.seconds);
    let mut info = vec![
        env(
            "env.nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        ),
        env("env.threads_used", W::THREADS),
        env("env.profile", EngineConfig::raw().name),
        env(
            "env.build",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        ),
        env("env.seed", o.seed),
    ];
    if !o.trace {
        let mut setups = Vec::new();
        let mut state = None;
        let mut fingerprint = 0;
        for _ in 0..SETUP_REPS {
            drop(state.take()); // free the previous set-up before timing the next
            let t0 = Instant::now();
            let inputs;
            (inputs, fingerprint) = generate_checked::<W>(o)?;
            state = Some(W::setup(inputs, &o.scale, &mut Tracer::off())?);
            setups.push(t0.elapsed().as_secs_f64());
        }
        info.push(env("input.fingerprint", format!("{fingerprint:016x}")));
        let mut w = state.expect("at least one set-up");
        let run = w.measure(&mut Tracer::off(), budget)?;
        let metrics = end_to_end(&run, median(setups), &mut info)?;
        return Ok(Report {
            attempted: run.attempted,
            failed: run.failed,
            metrics,
            info,
        });
    }

    let mut t = Tracer::new(true, 0);
    let (inputs, fingerprint) = generate_checked::<W>(o)?;
    info.push(env("input.fingerprint", format!("{fingerprint:016x}")));
    let mut w = W::setup(inputs, &o.scale, &mut t)?;
    let plain = w.measure(&mut Tracer::off(), budget / 2)?;
    t.start_measuring();
    let traced = w.measure(&mut t, budget / 2)?;
    if let Some(dir) = &o.span_dir {
        std::fs::create_dir_all(dir)
            .and_then(|()| t.write_jsonl(&dir.join(format!("{}.spans.jsonl", W::NAME))))
            .map_err(|e| Error::exec(format!("writing spans: {e}")))?;
    }
    Ok(Report {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics: per_layer(&t, &plain, &traced)?,
        info,
    })
}

fn env(name: &str, value: impl ToString) -> (String, String, &'static str) {
    (name.to_string(), value.to_string(), "-")
}

/// Emit `values` in the order and with the units of `list`.
fn ordered(
    list: &[(&'static str, &'static str)],
    mut values: BTreeMap<String, f64>,
) -> Vec<(&'static str, f64, &'static str)> {
    let out = list
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .remove(name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            assert!(v.is_finite(), "metric {name} is {v}");
            (name, v, unit)
        })
        .collect();
    assert!(values.is_empty(), "unlisted metrics: {:?}", values.keys());
    out
}

fn end_to_end(
    run: &Run,
    setup_s: f64,
    info: &mut Vec<(String, String, &'static str)>,
) -> Result<Vec<(&'static str, f64, &'static str)>> {
    let m = run.block_medians()?;
    info.push((
        "latency.samples".into(),
        run.samples.len().to_string(),
        "count",
    ));
    info.push(("latency.blocks".into(), m.blocks.to_string(), "count"));
    let first = run.blocks()[0].len();
    info.push(("latency.tail_pct".into(), tail_pct(first).to_string(), "%"));
    for (i, name) in run.classes.iter().enumerate() {
        let sorted = sorted_ns(&run.samples, Some(i));
        if sorted.is_empty() {
            continue;
        }
        let p50 = percentile(&sorted, 50.0) as f64 / 1e3;
        let c = &run.per_class[i];
        info.push((format!("{name}.p50_us"), p50.to_string(), "us"));
        info.push((
            format!("{name}.ns_per_iter"),
            ratio(c.run_ns as f64, c.iters as f64).to_string(),
            "ns",
        ));
    }
    for (name, v, unit) in &run.notes {
        info.push((name.clone(), v.to_string(), unit));
    }
    let values = BTreeMap::from([
        ("setup_s".into(), setup_s),
        ("calls_per_s".into(), m.calls_per_s),
        ("latency_p50_us".into(), m.p50_us),
        ("geomean_p50_us".into(), m.geomean_p50_us),
        (
            "peak_rss_mb".into(),
            run.rss_mb.map_or_else(peak_rss_mb, Ok)?,
        ),
    ]);
    Ok(ordered(&END_TO_END, values))
}

fn per_layer(
    t: &Tracer,
    plain: &Run,
    traced: &Run,
) -> Result<Vec<(&'static str, f64, &'static str)>> {
    let plain_m = plain.block_medians()?;
    let traced_cps = traced.block_medians()?.calls_per_s;
    let l = t.layers();
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    v.insert("latency_p99_us".into(), plain_m.tail_us);
    for pass in [
        "plsql.parse",
        "core.cfg",
        "core.ssa",
        "core.opt",
        "core.anf",
        "core.inline",
        "core.udf",
        "core.cte",
        "sql.print",
    ] {
        v.insert(format!("{pass}_us"), l.self_us_per(pass, "core.compile"));
    }
    for layer in [
        "core.compile",
        "sql.parse",
        "engine.plan",
        "engine.prepare",
        "engine.exec_start",
        "engine.exec_run",
        "engine.exec_end",
        "engine.commit",
        "interp.call",
    ] {
        v.insert(format!("{layer}_us"), l.self_us(layer));
    }

    // IR sizes: from measured compiles if there were any, else set-up's.
    let any_measured = t.compiles.iter().any(|(m, _)| *m);
    let sizes: Vec<_> = t
        .compiles
        .iter()
        .filter(|(m, _)| *m == any_measured)
        .map(|(_, s)| s)
        .collect();
    let n = sizes.len() as f64;
    let mean = |f: fn(&crate::trace::CompileSizes) -> u64| {
        ratio(sizes.iter().map(|s| f(s) as f64).sum(), n)
    };
    v.insert("core.cfg_blocks".into(), mean(|s| s.cfg_blocks));
    v.insert("core.ssa_blocks".into(), mean(|s| s.ssa_blocks));
    v.insert("core.opt_rewrites".into(), mean(|s| s.opt_rewrites));
    v.insert("core.anf_funcs".into(), mean(|s| s.anf_funcs));
    v.insert("core.sql_bytes".into(), mean(|s| s.sql_bytes));

    let w = &traced.work.stats;
    let calls = traced.per_class.iter().map(|c| c.calls).sum::<u64>() as f64;
    let stmts = traced.work.statements as f64;
    let run_ns = traced.work.run_ns as f64;
    let iters = w.recursive_iterations as f64;
    let hits = traced.cache_hits as f64;
    v.insert(
        "engine.plan_cache_hit_ratio".into(),
        ratio(hits, hits + traced.cache_misses as f64),
    );
    v.insert(
        "engine.plan_cache_evictions".into(),
        traced.evictions as f64,
    );
    v.insert(
        "engine.start_penalty_charges_per_stmt".into(),
        ratio(w.start_penalty_charges as f64, stmts),
    );
    for (name, count) in [
        ("iterations", w.recursive_iterations),
        ("vm_ops", w.vm_ops_executed),
        ("rows_scanned", w.rows_scanned),
        ("index_probes", w.index_probes),
        ("subplan_evals", w.subplan_evals),
    ] {
        v.insert(
            format!("engine.{name}_per_call"),
            ratio(count as f64, calls),
        );
    }
    v.insert("engine.ns_per_iter".into(), ratio(run_ns, iters));
    v.insert("engine.run_ns_per_call".into(), ratio(run_ns, calls));
    // Rows through the fused VM transition and through the mono tier, per
    // fixpoint iteration (a batch iteration moves many rows).
    v.insert(
        "engine.fused_rows_ratio".into(),
        ratio(w.fused_transition_rows as f64, iters),
    );
    v.insert(
        "engine.mono_rows_ratio".into(),
        ratio(w.tier.tier_mono_rows as f64, iters),
    );
    v.insert(
        "engine.tier_promotions".into(),
        w.tier.tier_promotions as f64,
    );
    v.insert(
        "batch.peak_in_flight".into(),
        w.batch.batch_rows_in_flight as f64,
    );
    v.insert(
        "batch.retired_per_stmt".into(),
        ratio(w.batch.batch_rows_retired as f64, stmts),
    );
    for kernel in crate::kernels::NAMES {
        let c = traced
            .classes
            .iter()
            .position(|&name| name == kernel)
            .map(|i| traced.per_class[i])
            .unwrap_or_default();
        let per_call = |x: u64| ratio(x as f64, c.calls as f64);
        v.insert(format!("kernel.{kernel}.iters_per_call"), per_call(c.iters));
        v.insert(
            format!("kernel.{kernel}.vm_ops_per_call"),
            per_call(c.vm_ops),
        );
    }
    v.insert(
        "trace_overhead_pct".into(),
        (ratio(plain_m.calls_per_s, traced_cps) - 1.0) * 100.0,
    );
    let (req, _) = l.get(REQUEST);
    v.insert(
        "trace.unattributed_pct".into(),
        ratio(req.self_ns as f64, req.total_ns as f64) * 100.0,
    );
    Ok(ordered(&PER_LAYER, v))
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| Error::exec(format!("reading /proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Error::exec("no VmHWM line in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
