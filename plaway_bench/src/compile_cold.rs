//! `compile_cold`: the first call of a newly deployed function. Every
//! request compiles a distinct generated program, prepares it (a plan-cache
//! miss) and executes it once.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use plaway_common::{Result, Value};
use plaway_core::CompileOptions;
use plaway_engine::{Database, EngineConfig, Session};
use plaway_interp::Interpreter;
use plaway_workloads::genprog::{self, GenConfig, GenProgram};

use crate::bench::{Run, Scale, Workload};
use crate::calls::{commit, compile, execute, interp_call, prepare, scalar, shadow_plan, Work};
use crate::stats::Fnv;
use crate::trace::{Tracer, REQUEST};

const CLASSES: [&str; 1] = ["program"];

/// Program `i` of a run; its seed, and so its function name, is unique
/// within the run.
fn program(seed: u64, i: u64) -> GenProgram {
    genprog::generate(
        seed.wrapping_mul(1_000_003).wrapping_add(i),
        GenConfig::default(),
    )
}

pub struct Inputs {
    seed: u64,
    /// The programs set-up checks; later ones are made while measuring,
    /// outside the measured time.
    first: Vec<GenProgram>,
}

pub struct CompileCold {
    _db: Arc<Database>,
    session: Session,
    /// The interpreter's own database, for reference results.
    reference: Session,
    seed: u64,
    made: u64,
    chunk: usize,
    ready: VecDeque<(GenProgram, Value)>,
}

impl CompileCold {
    /// The interpreter's result for `p`, on its own database. A fresh
    /// interpreter each time, so its cache of compiled functions does not
    /// grow the process's memory with every program.
    fn reference(&mut self, t: &mut Tracer, p: GenProgram) -> Result<(GenProgram, Value)> {
        commit(t, &mut self.reference, &p.source)?;
        let mut interp = Interpreter::new();
        interp.max_statements = 5_000_000;
        let want = interp_call(t, &mut interp, &mut self.reference, &p.name, &p.args)?;
        commit(t, &mut self.reference, &format!("DROP FUNCTION {}", p.name))?;
        Ok((p, want))
    }

    /// Make the next chunk of programs, untraced: the reference database's
    /// commits are not the measured system's.
    fn refill(&mut self) -> Result<()> {
        for _ in 0..self.chunk {
            let p = program(self.seed, self.made);
            self.made += 1;
            let ready = self.reference(&mut Tracer::off(), p)?;
            self.ready.push_back(ready);
        }
        Ok(())
    }

    fn request(&mut self, t: &mut Tracer, run: &mut Run) {
        let (p, want) = self.ready.pop_front().expect("refilled by the caller");
        let s = &mut self.session;
        let args = p.args.clone();
        let before = Work::of(s);
        let t0 = Instant::now();
        let root = t.begin(REQUEST);
        let out = compile(t, s, &p.source, CompileOptions::default()).and_then(|c| {
            let plan = prepare(t, s, &c)?;
            Ok((c, execute(t, s, &plan, args)?))
        });
        t.end(root);
        let elapsed = t0.elapsed();
        let got = out.and_then(|(c, rows)| {
            shadow_plan(t, s, &c)?;
            scalar(rows)
        });
        let ok = matches!(got, Ok(v) if v == want);
        run.record(0, elapsed, 1, ok, &Work::since(s, &before));
    }
}

impl Workload for CompileCold {
    const NAME: &'static str = "compile_cold";
    const THREADS: usize = 1;
    const SEED1_FINGERPRINT: u64 = 0x0629_850c_c9ea_a0ee;
    type Inputs = Inputs;

    fn generate(seed: u64, scale: &Scale) -> Inputs {
        Inputs {
            seed,
            first: (0..4 * scale.pool as u64)
                .map(|i| program(seed, i))
                .collect(),
        }
    }

    fn fingerprint(inputs: &Inputs) -> u64 {
        let mut h = Fnv::default();
        for p in &inputs.first {
            h.str(&p.name);
            h.str(&p.source);
            h.values(&p.args);
        }
        h.finish()
    }

    fn setup(inputs: Inputs, scale: &Scale, t: &mut Tracer) -> Result<Self> {
        let db = Database::new(EngineConfig::raw());
        let mut session = db.session();
        t.span("engine.commit", || genprog::install_fixture(&mut session))?;
        let mut reference = Database::new(EngineConfig::raw()).session();
        t.span("engine.commit", || genprog::install_fixture(&mut reference))?;
        let mut me = CompileCold {
            _db: db,
            session,
            reference,
            seed: inputs.seed,
            made: inputs.first.len() as u64,
            chunk: inputs.first.len(),
            ready: VecDeque::new(),
        };
        for p in inputs.first {
            let ready = me.reference(t, p)?;
            me.ready.push_back(ready);
        }
        let mut warm = Run::begin(&CLASSES, &me.session);
        for _ in 0..(scale.warmup / 10).max(2) {
            me.request(t, &mut warm);
        }
        warm.ensure_clean("compile_cold warm-up")?;
        Ok(me)
    }

    fn measure(&mut self, t: &mut Tracer, budget: Duration) -> Result<Run> {
        let mut run = Run::begin(&CLASSES, &self.session);
        while run.elapsed() < budget {
            if self.ready.is_empty() {
                run.pause(|| self.refill())?;
            }
            self.request(t, &mut run);
        }
        run.finish(&self.session);
        Ok(run)
    }
}
