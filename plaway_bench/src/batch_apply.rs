//! `batch_apply`: `SELECT f(t.x) FROM t` through `Compiled::run_batch`:
//! fibonacci and checked_sum batches on one session.

use std::sync::Arc;
use std::time::{Duration, Instant};

use plaway_common::{Result, Value};
use plaway_core::{CompileOptions, Compiled};
use plaway_engine::{Database, EngineConfig, Session};
use plaway_interp::Interpreter;
use plaway_workloads::{checked, fib};

use crate::bench::{Run, Scale, Workload};
use crate::calls::{commit, compile_and_shadow, interp_call, run_batch, Work};
use crate::stats::{Fnv, Rng};
use crate::trace::{Tracer, REQUEST};

const CLASSES: [&str; 2] = ["fibonacci", "checked"];

struct Batch {
    class: usize,
    calls: Vec<Vec<Value>>,
    expected: Vec<Value>,
}

pub struct Inputs {
    batches: Vec<Batch>,
}

pub struct BatchApply {
    _db: Arc<Database>,
    session: Session,
    compiled: Vec<Compiled>,
    batches: Vec<Batch>,
    next: usize,
}

fn function(class: usize) -> plaway_workloads::Workload {
    match class {
        0 => fib::fib_workload(),
        _ => checked::checked_workload(),
    }
}

impl BatchApply {
    fn statement(&mut self, t: &mut Tracer, run: &mut Run) {
        let b = &self.batches[self.next % self.batches.len()];
        self.next += 1;
        let s = &mut self.session;
        let before = Work::of(s);
        let t0 = Instant::now();
        let root = t.begin(REQUEST);
        let out = run_batch(t, s, &self.compiled[b.class], &b.calls);
        t.end(root);
        let elapsed = t0.elapsed();
        let ok = matches!(out, Ok(v) if v == b.expected);
        let work = Work::since(s, &before);
        run.record(b.class, elapsed, b.calls.len() as u64, ok, &work);
    }
}

impl Workload for BatchApply {
    const NAME: &'static str = "batch_apply";
    const THREADS: usize = 1;
    const SEED1_FINGERPRINT: u64 = 0x43b0_0418_be81_2db8;
    type Inputs = Inputs;

    /// `pool / 4` rounds of two fibonacci batches (`2 * pool` rows, n in
    /// 0..=32) and one checked_sum batch (`pool` rows of 4-character inputs,
    /// cap 50), run in that order. Two to one, so that the median statement
    /// falls inside one class rather than in the gap between the two; many
    /// distinct batches, so that no single batch sets a percentile.
    fn generate(seed: u64, scale: &Scale) -> Inputs {
        let mut rng = Rng::new(seed);
        let mut batches = Vec::new();
        for _ in 0..scale.pool / 4 {
            for _ in 0..2 {
                let calls: Vec<Vec<Value>> = (0..2 * scale.pool)
                    .map(|_| vec![Value::Int(rng.range(0, 32))])
                    .collect();
                let expected = calls
                    .iter()
                    .map(|c| Value::Int(fib::fib_reference(c[0].as_int().expect("int"))))
                    .collect();
                batches.push(Batch {
                    class: 0,
                    calls,
                    expected,
                });
            }
            let inputs: Vec<String> = (0..scale.pool)
                .map(|_| checked::generate_input(4, rng.next_u64()))
                .collect();
            batches.push(Batch {
                class: 1,
                expected: inputs
                    .iter()
                    .map(|s| Value::Int(checked::checked_reference(s, 50)))
                    .collect(),
                calls: inputs
                    .into_iter()
                    .map(|s| vec![Value::text(s), Value::Int(50)])
                    .collect(),
            });
        }
        Inputs { batches }
    }

    fn fingerprint(inputs: &Inputs) -> u64 {
        let mut h = Fnv::default();
        for class in 0..CLASSES.len() {
            h.str(&function(class).source);
        }
        for b in &inputs.batches {
            h.int(b.class as i64);
            b.calls.iter().for_each(|c| h.values(c));
            h.values(&b.expected);
        }
        h.finish()
    }

    fn setup(inputs: Inputs, scale: &Scale, t: &mut Tracer) -> Result<Self> {
        let db = Database::new(EngineConfig::raw());
        let mut session = db.session();
        let ref_db = Database::new(EngineConfig::raw());
        let mut ref_session = ref_db.session();
        let mut interp = Interpreter::new();
        let mut compiled = Vec::new();
        for (class, name) in CLASSES.iter().enumerate() {
            let f = function(class);
            commit(t, &mut session, &f.source)?;
            let c = compile_and_shadow(t, &session, &f.source, CompileOptions::iterate())?;
            let first = inputs
                .batches
                .iter()
                .find(|b| b.class == class)
                .expect("a batch per class");
            // The references must agree with the interpreter.
            commit(t, &mut ref_session, &f.source)?;
            for (args, want) in first.calls.iter().zip(&first.expected).take(2) {
                let got = interp_call(t, &mut interp, &mut ref_session, f.name, args)?;
                if &got != want {
                    return Err(plaway_common::Error::exec(format!(
                        "{name}: the interpreter returned {got:?} but the reference says {want:?}"
                    )));
                }
            }
            // Creates the batch table the traced path stages into.
            c.prepare_batch(&mut session, &first.calls[..1])?;
            compiled.push(c);
        }
        let mut me = BatchApply {
            _db: db,
            session,
            compiled,
            batches: inputs.batches,
            next: 0,
        };
        let mut warm = Run::begin(&CLASSES, &me.session);
        for _ in 0..(scale.warmup / 50).max(2) {
            me.statement(t, &mut warm);
        }
        warm.ensure_clean("batch_apply warm-up")?;
        Ok(me)
    }

    fn measure(&mut self, t: &mut Tracer, budget: Duration) -> Result<Run> {
        let mut run = Run::begin(&CLASSES, &self.session);
        while run.elapsed() < budget {
            self.statement(t, &mut run);
        }
        run.finish(&self.session);
        Ok(run)
    }
}
