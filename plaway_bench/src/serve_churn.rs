//! `serve_churn`: one shared `Database`, a reader thread running a closed
//! loop of short kernel requests, and a writer thread issuing statements in
//! an open loop at 100 per second. Every writer commit flushes every cached
//! plan, so the reader keeps re-planning.

use std::sync::Arc;
use std::time::{Duration, Instant};

use plaway_common::{Result, Value};
use plaway_core::{CompileOptions, Compiled};
use plaway_engine::{Database, EngineConfig, Session};

use crate::bench::{Run, Scale, Workload};
use crate::calls::{commit, compile_and_shadow};
use crate::kernels::{self, Request, Sizes, World, CHECKED, FIB, GRAPH, WALK};
use crate::stats::{percentile, tail_pct, Fnv, Rng};
use crate::trace::Tracer;

const KERNELS: [usize; 4] = [FIB, CHECKED, GRAPH, WALK];
const CLASSES: [&str; 4] = ["fibonacci", "checked", "graph", "walk"];

const SIZES: Sizes = Sizes {
    fib_n: (10, 20),
    checked_len: (16, 32),
    graph_hops: (5, 15),
    walk_steps: (20, 40),
    // No fsa or settle requests in this workload.
    fsa_len: (0, 0),
    settle_lim: (0, 0),
};

/// The writer's schedule: one statement every 10 ms.
const WRITE_EVERY: Duration = Duration::from_millis(10);

/// Writer statement `k` (from 1): an INSERT into `churn`, every 8th a
/// `CREATE OR REPLACE FUNCTION`, every 16th a DELETE.
fn write_sql(k: u64) -> String {
    if k.is_multiple_of(16) {
        format!("DELETE FROM churn WHERE k <= {}", k - 16)
    } else if k.is_multiple_of(8) {
        format!(
            "CREATE OR REPLACE FUNCTION churn_noise(x int) RETURNS int \
             AS $$ SELECT x + {k} $$ LANGUAGE SQL"
        )
    } else {
        format!("INSERT INTO churn VALUES ({k}, {k})")
    }
}

/// `count(*)` and `sum(k)` of `churn` after writer statements `1..=n`.
fn churn_after(n: u64) -> (Value, Value) {
    let mut keys: Vec<u64> = Vec::new();
    for k in 1..=n {
        if k.is_multiple_of(16) {
            keys.retain(|&x| x + 16 > k);
        } else if !k.is_multiple_of(8) {
            keys.push(k);
        }
    }
    let sum = if keys.is_empty() {
        Value::Null
    } else {
        Value::Int(keys.iter().sum::<u64>() as i64)
    };
    (Value::Int(keys.len() as i64), sum)
}

pub struct Inputs {
    world: World,
    pools: Vec<Vec<Request>>,
    pick_seed: u64,
}

pub struct ServeChurn {
    _db: Arc<Database>,
    reader: Session,
    writer: Session,
    compiled: Vec<Compiled>,
    pools: Vec<Vec<Request>>,
    rng: Rng,
    /// Writer statements issued so far.
    writes: u64,
}

struct Reader<'a> {
    s: &'a mut Session,
    compiled: &'a [Compiled],
    pools: &'a [Vec<Request>],
    rng: &'a mut Rng,
}

impl Reader<'_> {
    /// One request: a random kernel, prepared by SQL text through the
    /// shared cache, then executed.
    fn request(&mut self, t: &mut Tracer, run: &mut Run) {
        let i = self.rng.range(0, KERNELS.len() as i64 - 1) as usize;
        let pool = &self.pools[i];
        let req = &pool[self.rng.range(0, pool.len() as i64 - 1) as usize];
        kernels::request(t, self.s, &self.compiled[i], req, i, run);
    }
}

/// One writer statement's timing, from its due time.
struct Write {
    lag: Duration,
    latency: Duration,
    ok: bool,
}

/// Issue statements `first + 1, ...` on schedule until `start + budget`.
fn write_loop(
    s: &mut Session,
    t: &mut Tracer,
    first: u64,
    start: Instant,
    budget: Duration,
) -> Vec<Write> {
    let mut out = Vec::new();
    for i in 0u32.. {
        let due = start + WRITE_EVERY * i;
        if due >= start + budget {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let began = Instant::now();
        let root = t.begin("write");
        let ok = commit(t, s, &write_sql(first + u64::from(i) + 1)).is_ok();
        t.end(root);
        out.push(Write {
            lag: began.saturating_duration_since(due),
            latency: due.elapsed(),
            ok,
        });
    }
    out
}

impl Workload for ServeChurn {
    const NAME: &'static str = "serve_churn";
    const THREADS: usize = 2;
    const SEED1_FINGERPRINT: u64 = 0xafdc_469b_b7b0_da17;
    type Inputs = Inputs;

    fn generate(seed: u64, scale: &Scale) -> Inputs {
        let mut rng = Rng::new(seed);
        let world = World::generate();
        let pools = KERNELS
            .iter()
            .map(|&k| kernels::pool(&world, k, &SIZES, scale.pool, &mut rng))
            .collect();
        Inputs {
            world,
            pools,
            pick_seed: rng.next_u64(),
        }
    }

    fn fingerprint(inputs: &Inputs) -> u64 {
        let mut h = Fnv::default();
        inputs.world.hash(&mut h);
        inputs
            .pools
            .iter()
            .for_each(|p| kernels::hash_pool(&mut h, p));
        h.int(inputs.pick_seed as i64);
        h.finish()
    }

    fn setup(inputs: Inputs, scale: &Scale, t: &mut Tracer) -> Result<Self> {
        let Inputs {
            world,
            mut pools,
            pick_seed,
        } = inputs;
        let db = Database::new(EngineConfig::raw());
        let mut reader = db.session();
        world.install(t, &mut reader)?;
        commit(t, &mut reader, "CREATE TABLE churn (k int, v int)")?;
        let compiled = KERNELS
            .iter()
            .map(|&k| {
                let source = kernels::function(k).source;
                compile_and_shadow(t, &reader, &source, CompileOptions::default())
            })
            .collect::<Result<Vec<_>>>()?;
        kernels::references(&world, &KERNELS, &mut pools, t)?;
        let mut me = ServeChurn {
            writer: db.session(),
            _db: db,
            reader,
            compiled,
            pools,
            rng: Rng::new(pick_seed),
            writes: 0,
        };
        let mut warm = Run::begin(&CLASSES, &me.reader);
        let mut r = Reader {
            s: &mut me.reader,
            compiled: &me.compiled,
            pools: &me.pools,
            rng: &mut me.rng,
        };
        for _ in 0..4 * scale.warmup {
            r.request(t, &mut warm);
        }
        warm.ensure_clean("serve_churn warm-up")?;
        Ok(me)
    }

    fn measure(&mut self, t: &mut Tracer, budget: Duration) -> Result<Run> {
        let mut run = Run::begin(&CLASSES, &self.reader);
        let start = Instant::now();
        let mut wt = t.sibling(1);
        let mut r = Reader {
            s: &mut self.reader,
            compiled: &self.compiled,
            pools: &self.pools,
            rng: &mut self.rng,
        };
        let (writer, first) = (&mut self.writer, self.writes);
        let writes = std::thread::scope(|scope| {
            let w = scope.spawn(|| write_loop(writer, &mut wt, first, start, budget));
            while run.elapsed() < budget {
                r.request(t, &mut run);
            }
            w.join().expect("the writer thread panicked")
        });
        run.finish(&self.reader);
        t.absorb(wt);

        self.writes += writes.len() as u64;
        writes.iter().for_each(|w| run.check(w.ok));
        let (count, sum) = churn_after(self.writes);
        let state = self
            .reader
            .run("SELECT count(*), sum(c.k) FROM churn AS c")
            .map(|r| r.rows);
        run.check(matches!(state, Ok(rows) if rows == vec![vec![count, sum]]));

        let mut lag: Vec<u64> = writes.iter().map(|w| w.lag.as_nanos() as u64).collect();
        let mut latency: Vec<u64> = writes.iter().map(|w| w.latency.as_nanos() as u64).collect();
        lag.sort_unstable();
        latency.sort_unstable();
        if !latency.is_empty() {
            let tail = tail_pct(latency.len());
            run.notes = vec![
                ("serve.writes".into(), latency.len() as f64, "count"),
                (
                    "serve.write_p50_us".into(),
                    percentile(&latency, 50.0) as f64 / 1e3,
                    "us",
                ),
                (
                    "serve.write_p99_us".into(),
                    percentile(&latency, tail) as f64 / 1e3,
                    "us",
                ),
                (
                    "serve.writer_lag_p99_us".into(),
                    percentile(&lag, tail) as f64 / 1e3,
                    "us",
                ),
            ];
        }
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_simulation_matches_the_engine() {
        let db = Database::new(EngineConfig::raw());
        let mut s = db.session();
        s.run("CREATE TABLE churn (k int, v int)").unwrap();
        for k in 1..=50 {
            s.run(&write_sql(k)).unwrap();
            let rows = s
                .run("SELECT count(*), sum(c.k) FROM churn AS c")
                .unwrap()
                .rows;
            let (count, sum) = churn_after(k);
            assert_eq!(rows, vec![vec![count, sum]], "after statement {k}");
        }
        assert_eq!(
            s.query_scalar("SELECT churn_noise(0)").unwrap(),
            Value::Int(40)
        );
    }
}
