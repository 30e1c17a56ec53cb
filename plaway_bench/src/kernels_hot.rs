//! `kernels_hot`: the six compiled kernels in a closed loop on one session,
//! every plan a cache hit.

use std::sync::Arc;
use std::time::Duration;

use plaway_common::Result;
use plaway_core::{CompileOptions, Compiled};
use plaway_engine::{Database, EngineConfig, Session};

use crate::bench::{Run, Scale, Workload};
use crate::calls::compile_and_shadow;
use crate::kernels::{self, Request, Sizes, World, NAMES};
use crate::stats::{Fnv, Rng};
use crate::trace::Tracer;

const SIZES: Sizes = Sizes {
    fib_n: (300, 700),
    fsa_len: (100, 200),
    walk_steps: (60, 140),
    graph_hops: (20, 60),
    checked_len: (150, 250),
    settle_lim: (200, 6_000),
};

pub struct Inputs {
    world: World,
    pools: Vec<Vec<Request>>,
    order_seed: u64,
}

pub struct KernelsHot {
    _db: Arc<Database>,
    session: Session,
    compiled: Vec<Compiled>,
    pools: Vec<Vec<Request>>,
    rng: Rng,
}

impl KernelsHot {
    /// One round: every kernel once, in shuffled order, each with a
    /// request drawn from its pool.
    fn round(&mut self, t: &mut Tracer, run: &mut Run) {
        let mut order: Vec<usize> = (0..NAMES.len()).collect();
        self.rng.shuffle(&mut order);
        for k in order {
            let pool = &self.pools[k];
            let req = &pool[self.rng.range(0, pool.len() as i64 - 1) as usize];
            kernels::request(t, &mut self.session, &self.compiled[k], req, k, run);
        }
    }
}

impl Workload for KernelsHot {
    const NAME: &'static str = "kernels_hot";
    const THREADS: usize = 1;
    const SEED1_FINGERPRINT: u64 = 0x0de5_17b4_e799_1ac5;
    type Inputs = Inputs;

    fn generate(seed: u64, scale: &Scale) -> Inputs {
        let mut rng = Rng::new(seed);
        let world = World::generate();
        let pools = (0..NAMES.len())
            .map(|k| kernels::pool(&world, k, &SIZES, scale.pool, &mut rng))
            .collect();
        Inputs {
            world,
            pools,
            order_seed: rng.next_u64(),
        }
    }

    fn fingerprint(inputs: &Inputs) -> u64 {
        let mut h = Fnv::default();
        inputs.world.hash(&mut h);
        inputs
            .pools
            .iter()
            .for_each(|p| kernels::hash_pool(&mut h, p));
        h.int(inputs.order_seed as i64);
        h.finish()
    }

    fn setup(inputs: Inputs, scale: &Scale, t: &mut Tracer) -> Result<Self> {
        let Inputs {
            world,
            mut pools,
            order_seed,
        } = inputs;
        let db = Database::new(EngineConfig::raw());
        let mut session = db.session();
        world.install(t, &mut session)?;
        let compiled = (0..NAMES.len())
            .map(|k| {
                let source = kernels::function(k).source;
                compile_and_shadow(t, &session, &source, CompileOptions::default())
            })
            .collect::<Result<Vec<_>>>()?;
        let all: Vec<usize> = (0..NAMES.len()).collect();
        kernels::references(&world, &all, &mut pools, t)?;
        let mut me = KernelsHot {
            _db: db,
            session,
            compiled,
            pools,
            rng: Rng::new(order_seed),
        };
        let mut warm = Run::begin(&NAMES, &me.session);
        for _ in 0..scale.warmup {
            me.round(t, &mut warm);
        }
        warm.ensure_clean("kernels_hot warm-up")?;
        Ok(me)
    }

    fn measure(&mut self, t: &mut Tracer, budget: Duration) -> Result<Run> {
        let mut run = Run::begin(&NAMES, &self.session);
        while run.elapsed() < budget {
            self.round(t, &mut run);
        }
        run.finish(&self.session);
        Ok(run)
    }
}
