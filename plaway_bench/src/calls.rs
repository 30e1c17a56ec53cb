//! The benchmark's calls into the system, each behind one branch: with the
//! tracer off they are the plain public entry points (`compile_sql`,
//! `execute_prepared`, ...); with it on they make the same calls one layer
//! at a time, with a span around each.

use std::sync::Arc;

use plaway_common::{Error, Result, Value};
use plaway_core::{cte, CompileOptions, Compiled};
use plaway_engine::{ParamScope, PreparedPlan, RuntimeStats, Session};
use plaway_interp::Interpreter;

use crate::trace::{CompileSizes, Tracer};

/// `compile_sql`, or, traced, its passes one by one. The traced path must
/// build the same artifact: `tests::traced_compile_matches_compile_sql`
/// pins it byte for byte.
pub fn compile(
    t: &mut Tracer,
    session: &Session,
    source: &str,
    options: CompileOptions,
) -> Result<Compiled> {
    if !t.on() {
        return plaway_core::compile_sql(&session.catalog, source, options);
    }
    let catalog = &*session.catalog;
    let root = t.begin("core.compile");
    let out = (|| {
        let function = t.span("plsql.parse", || {
            plaway_plsql::parse_create_function(source)
        })?;
        let (cfg, goto_text) = t.span("core.cfg", || {
            plaway_core::cfg::lower(&function, catalog).map(|cfg| {
                let text = cfg.to_text();
                (cfg, text)
            })
        })?;
        let mut ssa = t.span("core.ssa", || plaway_core::ssa::build(&cfg, catalog))?;
        let opt_stats = if options.optimize {
            t.span("core.opt", || plaway_core::opt::optimize(&mut ssa, catalog))
        } else {
            Default::default()
        };
        let ssa_text = t.span("core.ssa", || ssa.validate().map(|()| ssa.to_text()))?;
        let mut anf = t.span("core.anf", || plaway_core::anf::from_ssa(&ssa))?;
        if options.optimize {
            t.span("core.inline", || {
                plaway_core::anf::inline_trivial(&mut anf, catalog);
                anf.validate()
            })?;
        }
        let anf_text = t.span("core.anf", || anf.to_text());
        let (udf, udf_sql) = t.span("core.udf", || {
            plaway_core::udf::from_anf(&anf).map(|udf| {
                let sql = udf.to_sql();
                (udf, sql)
            })
        })?;
        let query = t.span("core.cte", || {
            cte::build_query(&anf, &udf, catalog, options.layout, options.mode)
        })?;
        let sql = t.span("sql.print", || query.to_string());
        let batch_table = format!("batch#{}", udf.fn_name);
        let batch_query = t.span("core.cte", || {
            cte::build_batch_query(
                &anf,
                &udf,
                catalog,
                options.layout,
                options.mode,
                &batch_table,
            )
        })?;
        let batch_sql = t.span("sql.print", || batch_query.to_string());
        let o = &opt_stats;
        t.record_compile(CompileSizes {
            cfg_blocks: cfg.blocks.len() as u64,
            ssa_blocks: ssa.blocks.len() as u64,
            opt_rewrites: (o.constants_folded
                + o.copies_propagated
                + o.phis_removed
                + o.stmts_removed
                + o.branches_simplified
                + o.blocks_removed
                + o.blocks_merged) as u64,
            anf_funcs: anf.reachable().iter().filter(|&&r| r).count() as u64,
            sql_bytes: sql.len() as u64,
        });
        Ok(Compiled {
            options,
            param_names: function.params.iter().map(|(n, _)| n.clone()).collect(),
            source: function,
            goto_text,
            ssa,
            ssa_text,
            anf,
            anf_text,
            udf,
            udf_sql,
            query,
            sql,
            batch_query,
            batch_sql,
            batch_table,
            opt_stats,
        })
    })();
    t.end(root);
    out
}

/// Traced only: parse and plan the compiled SQL again, outside any
/// request, so SQL parsing and planning get times of their own (inside a
/// request both hide in `Session::prepare`).
pub fn shadow_plan(t: &mut Tracer, session: &Session, compiled: &Compiled) -> Result<()> {
    if !t.on() {
        return Ok(());
    }
    let root = t.begin("shadow");
    let out = (|| {
        let query = t.span("sql.parse", || plaway_sql::parse_query(&compiled.sql))?;
        let scope = ParamScope::new(compiled.param_names.clone());
        t.span("engine.plan", || {
            plaway_engine::planner::plan_query(
                &session.catalog,
                &query,
                Some(&scope),
                session.config.index_mode,
            )
        })?;
        Ok(())
    })();
    t.end(root);
    out
}

/// [`compile`] followed by [`shadow_plan`].
pub fn compile_and_shadow(
    t: &mut Tracer,
    session: &Session,
    source: &str,
    options: CompileOptions,
) -> Result<Compiled> {
    let compiled = compile(t, session, source, options)?;
    shadow_plan(t, session, &compiled)?;
    Ok(compiled)
}

pub fn prepare(t: &mut Tracer, s: &mut Session, c: &Compiled) -> Result<Arc<PreparedPlan>> {
    t.span("engine.prepare", || c.prepare(s))
}

/// `execute_prepared`, or, traced, its three executor phases.
pub fn execute(
    t: &mut Tracer,
    s: &mut Session,
    plan: &Arc<PreparedPlan>,
    args: Vec<Value>,
) -> Result<Vec<Vec<Value>>> {
    if !t.on() {
        return Ok(s.execute_prepared(plan, args)?.rows);
    }
    let handle = t.span("engine.exec_start", || s.executor_start(plan, args));
    let rows = t.span("engine.exec_run", || s.executor_run(&handle));
    t.span("engine.exec_end", || s.executor_end(handle));
    rows
}

/// `Compiled::run_batch`, or, traced, its steps: stage the calls (a
/// commit), plan the batch query, execute, and put results in call order.
/// The batch table must exist already (set-up creates it).
pub fn run_batch(
    t: &mut Tracer,
    s: &mut Session,
    c: &Compiled,
    calls: &[Vec<Value>],
) -> Result<Vec<Value>> {
    if !t.on() {
        return c.run_batch(s, calls);
    }
    t.span("engine.commit", || {
        let rows = calls
            .iter()
            .enumerate()
            .map(|(i, args)| {
                std::iter::once(Value::Int(i as i64))
                    .chain(args.iter().cloned())
                    .collect()
            })
            .collect();
        s.replace_rows(&c.batch_table, rows)
    })?;
    let plan = t.span("engine.prepare", || {
        s.prepare(&c.batch_sql, &ParamScope::new(Vec::new()))
    })?;
    let mut out = vec![Value::Null; calls.len()];
    for row in execute(t, s, &plan, Vec::new())? {
        let [rid, value] = <[Value; 2]>::try_from(row)
            .map_err(|row| Error::exec(format!("batch row of {} columns", row.len())))?;
        *usize::try_from(rid.as_int()?)
            .ok()
            .and_then(|i| out.get_mut(i))
            .ok_or_else(|| Error::exec(format!("batch row id {rid:?} out of range")))? = value;
    }
    // A missing or repeated row id leaves a NULL, which the check catches.
    Ok(out)
}

/// The single value of a one-row, one-column result.
pub fn scalar(rows: Vec<Vec<Value>>) -> Result<Value> {
    match <[Vec<Value>; 1]>::try_from(rows) {
        Ok([row]) => match <[Value; 1]>::try_from(row) {
            Ok([v]) => Ok(v),
            Err(row) => Err(Error::exec(format!("expected 1 column, got {}", row.len()))),
        },
        Err(rows) => Err(Error::exec(format!("expected 1 row, got {}", rows.len()))),
    }
}

/// Run one DDL/DML statement as a commit.
pub fn commit(t: &mut Tracer, s: &mut Session, sql: &str) -> Result<()> {
    t.span("engine.commit", || s.run(sql).map(drop))
}

pub fn interp_call(
    t: &mut Tracer,
    interp: &mut Interpreter,
    s: &mut Session,
    name: &str,
    args: &[Value],
) -> Result<Value> {
    t.span("interp.call", || interp.call(s, name, args))
}

/// Engine counters a request moved, read from the session before and
/// after it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    pub stats: RuntimeStats,
    pub run_ns: u128,
    pub statements: u64,
}

impl Work {
    pub fn of(s: &Session) -> Work {
        Work {
            stats: s.stats,
            run_ns: s.profiler.exec_run_ns,
            statements: s.profiler.start_count,
        }
    }

    pub fn since(s: &Session, before: &Work) -> Work {
        Work {
            stats: s.stats.delta_since(&before.stats),
            run_ns: s.profiler.exec_run_ns - before.run_ns,
            statements: s.profiler.start_count - before.statements,
        }
    }
}
