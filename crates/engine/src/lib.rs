//! `plaway-engine` — the instrumented relational engine substrate.
//!
//! The paper ("Compiling PL/SQL Away", CIDR 2020) attributes the slowness of
//! interpreted PL/SQL to *executor lifecycle* costs: every evaluation of an
//! embedded query pays `ExecutorStart` (plan instantiation) and
//! `ExecutorEnd` (teardown) around the productive `ExecutorRun`. This crate
//! provides a query engine whose lifecycle has exactly that shape, so the
//! paper's experiments can be reproduced with *real* costs rather than
//! injected sleeps:
//!
//! * [`session::Session`] — plan cache + instrumented Start/Run/End API,
//! * [`planner`] — rule-based planning with PL/pgSQL-style parameter
//!   resolution (free identifiers become plan parameters),
//! * [`exec`] — push-based executor with LATERAL nested loops, window
//!   frames, correlated subqueries and recursive UDF calls; scalar,
//!   `EXISTS`, `IN` and `LIMIT` consumers stop their input early,
//! * [`exec`]'s recursive-CTE fixpoint with [`tuplestore`] buffer-page
//!   accounting (Table 2), including the `WITH ITERATE` mode of Passing
//!   et al. (EDBT 2017) that the paper patches into PostgreSQL 11.3,
//! * [`profile::Profiler`] — the four cost buckets of Table 1.

pub mod catalog;
pub mod config;
pub mod database;
pub mod exec;
pub mod explain;
pub mod functions;
pub mod ir;
pub mod memo;
pub mod metrics;
pub(crate) mod penalty;
pub mod planner;
pub mod profile;
pub mod session;
pub mod tier;
pub mod tuplestore;
pub mod vm;
pub mod window;

pub use catalog::{
    query_output_columns, Catalog, Column, FunctionDef, Index, IndexKind, Row, Table,
};
pub use config::{EngineConfig, IndexMode, TierMode};
pub use database::Database;
pub use exec::RuntimeStats;
pub use explain::AnalyzeState;
pub use ir::{ExprIr, PlanNode};
pub use metrics::{LatencyHistogram, MetricsSnapshot, PlanCacheStats, SessionMetrics};
pub use planner::{ParamScope, PreparedPlan};
pub use profile::{BatchCounters, Phase, Profiler, TierCounters};
pub use session::{QueryResult, Session};
pub use tuplestore::{BufferStats, PAGE_SIZE, TUPLE_HEADER_BYTES};

// Compile-time concurrency contracts: a `Database` (and everything a
// session shares through it — catalog snapshots, cached plans) must be
// freely shareable across threads, and a `Session` must be movable onto a
// worker thread. A `RefCell`/`Rc` sneaking into the plan tree or catalog
// turns these into build errors instead of runtime races.
const _: () = {
    const fn shared<T: Send + Sync>() {}
    const fn sendable<T: Send>() {}
    shared::<Database>();
    shared::<Catalog>();
    shared::<PreparedPlan>();
    shared::<std::sync::Arc<PreparedPlan>>();
    sendable::<Session>();
};
