//! The six paper kernels, shared by `kernels_hot` and `serve_churn`: the
//! tables they read, seeded argument pools, and the expected result
//! of every pooled request from a source other than the compiler.

use std::time::Instant;

use plaway_common::{Error, Result, Value};
use plaway_core::Compiled;
use plaway_engine::{Database, EngineConfig, Session};
use plaway_interp::Interpreter;
use plaway_workloads::{checked, fib, fsa, graph, grid, rowagg, Workload};

use crate::bench::Run;
use crate::calls::{commit, execute, interp_call, prepare, scalar, Work};
use crate::stats::{Fnv, Rng};
use crate::trace::{Tracer, REQUEST};

pub const NAMES: [&str; 6] = ["walk", "fibonacci", "graph", "fsa", "checked", "settle"];
pub const WALK: usize = 0;
pub const FIB: usize = 1;
pub const GRAPH: usize = 2;
pub const FSA: usize = 3;
pub const CHECKED: usize = 4;
pub const SETTLE: usize = 5;

/// The PL/pgSQL function of kernel `k`.
pub fn function(k: usize) -> Workload {
    match k {
        WALK => grid::walk_workload(),
        FIB => fib::fib_workload(),
        GRAPH => graph::traverse_workload(),
        FSA => fsa::parse_workload(),
        CHECKED => checked::checked_workload(),
        SETTLE => rowagg::settle_workload(),
        _ => unreachable!("kernel {k}"),
    }
}

/// The tables the kernels read. They are the same for every `--seed`
/// (only the requests vary): a seeded grid or graph changes what a walk or
/// a traversal costs, which would spread the results across seeds.
pub struct World {
    pub grid: grid::GridWorld,
    pub graph: graph::Digraph,
    pub ledger: rowagg::Ledger,
}

impl World {
    pub fn generate() -> World {
        World {
            grid: grid::GridWorld::generate(5, 5, 42),
            graph: graph::Digraph::generate(5_000, 11),
            ledger: rowagg::Ledger::generate(480, 7),
        }
    }

    /// Create and fill every table and register all six functions.
    pub fn install(&self, t: &mut Tracer, s: &mut Session) -> Result<()> {
        t.span("engine.commit", || self.grid.install(s))?;
        t.span("engine.commit", || fsa::install_fsa(s))?;
        t.span("engine.commit", || self.graph.install(s))?;
        t.span("engine.commit", || self.ledger.install(s))?;
        for k in 0..NAMES.len() {
            commit(t, s, &function(k).source)?;
        }
        Ok(())
    }

    pub fn hash(&self, h: &mut Fnv) {
        for (rewards, policy) in self.grid.rewards.iter().zip(&self.grid.policy) {
            rewards.iter().for_each(|&r| h.int(r));
            policy.iter().for_each(|d| h.str(d.arrow()));
        }
        for &(src, dst, w) in &self.graph.edges {
            h.int(src);
            h.int(dst);
            h.int(w.to_bits() as i64);
        }
        for &(amount, kind) in &self.ledger.rows {
            h.int(amount);
            h.int(kind);
        }
        for k in 0..NAMES.len() {
            h.str(&function(k).source);
        }
    }
}

/// Inclusive ranges the argument pools draw sizes from.
pub struct Sizes {
    pub fib_n: (i64, i64),
    pub fsa_len: (i64, i64),
    pub walk_steps: (i64, i64),
    pub graph_hops: (i64, i64),
    pub checked_len: (i64, i64),
    pub settle_lim: (i64, i64),
}

/// One pooled call and the result it must return.
pub struct Request {
    pub args: Vec<Value>,
    /// The session RNG seed set before the call (`walk` draws from it).
    pub rng_seed: u64,
    /// `Null` until [`references`] fills it for `walk`.
    pub expected: Value,
}

/// `n` seeded requests for kernel `k`, with the `plaway-workloads`
/// reference result where one exists.
pub fn pool(world: &World, k: usize, sizes: &Sizes, n: usize, rng: &mut Rng) -> Vec<Request> {
    let mut draw = |(lo, hi): (i64, i64)| rng.range(lo, hi);
    (0..n)
        .map(|_| {
            let (args, expected) = match k {
                WALK => {
                    let steps = draw(sizes.walk_steps);
                    // Unreachable win/lose bounds: exactly `steps` steps.
                    let args = vec![
                        Value::coord(2, 2),
                        Value::Int(1_000_000),
                        Value::Int(-1_000_000),
                        Value::Int(steps),
                    ];
                    (args, Value::Null)
                }
                FIB => {
                    let n = draw(sizes.fib_n);
                    (vec![Value::Int(n)], Value::Int(fib::fib_reference(n)))
                }
                GRAPH => {
                    let start = draw((1, world.graph.nodes - 1));
                    let hops = draw(sizes.graph_hops);
                    let end = world.graph.traverse_reference(start, hops);
                    (vec![Value::Int(start), Value::Int(hops)], Value::Int(end))
                }
                FSA => {
                    let input = fsa::generate_input(
                        draw(sizes.fsa_len) as usize,
                        draw((0, 1 << 40)) as u64,
                    );
                    let consumed = fsa::parse_reference(&input);
                    (vec![Value::text(input)], Value::Int(consumed))
                }
                CHECKED => {
                    let len = draw(sizes.checked_len);
                    let input = checked::generate_input(len as usize, draw((0, 1 << 40)) as u64);
                    let cap = draw((len, 4 * len));
                    let total = checked::checked_reference(&input, cap);
                    (vec![Value::text(input), Value::Int(cap)], Value::Int(total))
                }
                SETTLE => {
                    let lim = draw(sizes.settle_lim);
                    (
                        vec![Value::Int(lim)],
                        Value::Int(world.ledger.settle_reference(lim)),
                    )
                }
                _ => unreachable!("kernel {k}"),
            };
            Request {
                args,
                rng_seed: draw((0, 1 << 40)) as u64,
                expected,
            }
        })
        .collect()
}

/// One timed request of `class`: `Compiled::prepare` (through the shared
/// plan cache) and execute under the request's RNG seed, then check.
pub fn request(
    t: &mut Tracer,
    s: &mut Session,
    c: &Compiled,
    req: &Request,
    class: usize,
    run: &mut Run,
) {
    s.set_seed(req.rng_seed);
    let args = req.args.clone();
    let before = Work::of(s);
    let t0 = Instant::now();
    let root = t.begin(REQUEST);
    let out = prepare(t, s, c).and_then(|plan| execute(t, s, &plan, args));
    t.end(root);
    let elapsed = t0.elapsed();
    let ok = matches!(out.and_then(scalar), Ok(v) if v == req.expected);
    run.record(class, elapsed, 1, ok, &Work::since(s, &before));
}

pub fn hash_pool(h: &mut Fnv, pool: &[Request]) {
    for r in pool {
        h.values(&r.args);
        h.int(r.rng_seed as i64);
        h.value(&r.expected);
    }
}

/// Run the interpreter on a database of its own: it supplies every `walk`
/// result (under the request's RNG seed) and must agree with the Rust
/// reference on the first two requests of every other pool.
/// `pools[i]` holds requests for kernel `kernels[i]`.
pub fn references(
    world: &World,
    kernels: &[usize],
    pools: &mut [Vec<Request>],
    t: &mut Tracer,
) -> Result<()> {
    let db = Database::new(EngineConfig::raw());
    let mut s = db.session();
    world.install(t, &mut s)?;
    let mut interp = Interpreter::new();
    for (&k, pool) in kernels.iter().zip(pools.iter_mut()) {
        let name = function(k).name;
        for (i, r) in pool.iter_mut().enumerate() {
            if k != WALK && i >= 2 {
                break;
            }
            s.set_seed(r.rng_seed);
            let got = interp_call(t, &mut interp, &mut s, name, &r.args)?;
            if k == WALK {
                r.expected = got;
            } else if got != r.expected {
                return Err(Error::exec(format!(
                    "{name}: the interpreter returned {got:?} but the reference says {:?}",
                    r.expected
                )));
            }
        }
    }
    Ok(())
}
