//! `plaway-interp` — the statement-by-statement PL/pgSQL interpreter.
//!
//! This is the **baseline the paper compiles away**: functions execute one
//! statement at a time; every expression that touches a table runs through
//! the engine's full prepared-statement lifecycle (plan-cache lookup,
//! `ExecutorStart`, `ExecutorRun`, `ExecutorEnd`) — the `f→Qi` context
//! switches of §1. Simple expressions use a fast path that skips Start/End,
//! mirroring PostgreSQL's `exec_eval_simple_expr` (that is why `fibonacci`
//! in Table 1 shows no Start/End cost).
//!
//! Profiling: the session's [`plaway_engine::Profiler`] accumulates the four
//! Table 1 buckets. The interpreter attributes its own dispatch overhead to
//! `Interp` by subtracting the executor phases from wall-clock time.

pub mod compile;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use plaway_common::{Error, Result, Type, Value};
use plaway_engine::{Phase, Session};
use plaway_plsql::ast::RaiseLevel;
use plaway_sql::ast::Language;

use compile::{CExpr, CStmt, PlCompiled};

/// Control flow outcome of statement execution.
#[derive(Debug, Clone)]
enum Flow {
    Normal,
    Return(Value),
    Exit(Option<String>),
    Continue(Option<String>),
}

/// The PL/pgSQL interpreter. Holds a per-function compilation cache (like
/// PostgreSQL's plpgsql function cache) and collects `RAISE` output.
pub struct Interpreter {
    /// Function name -> (schema version compiled against, compilation).
    compiled: HashMap<String, (u64, Arc<PlCompiled>)>,
    /// Messages produced by `RAISE NOTICE` etc. (drained by the caller).
    pub notices: Vec<String>,
    /// Statement budget per call — guards against runaway loops in tests.
    pub max_statements: u64,
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter {
            compiled: HashMap::new(),
            notices: Vec::new(),
            max_statements: u64::MAX,
        }
    }
}

impl Interpreter {
    pub fn new() -> Self {
        Interpreter::default()
    }

    /// Call a PL/pgSQL function registered in the session's catalog.
    pub fn call(&mut self, session: &mut Session, name: &str, args: &[Value]) -> Result<Value> {
        let compiled = self.compiled_for(session, name)?;
        self.run_compiled(session, &compiled, args)
    }

    /// Compile (with caching) a catalog function. A compilation stays
    /// valid until the next DDL: it holds no data, only slots, simple
    /// expressions and the text of its embedded queries.
    pub fn compiled_for(&mut self, session: &mut Session, name: &str) -> Result<Arc<PlCompiled>> {
        let schema = session.catalog.schema_version();
        if let Some((version, c)) = self.compiled.get(name) {
            if *version == schema {
                return Ok(Arc::clone(c));
            }
        }
        let def = session
            .catalog
            .function(name)
            .ok_or_else(|| Error::plan(format!("function {name:?} does not exist")))?
            .clone();
        if def.language != Language::PlPgSql {
            return Err(Error::plan(format!(
                "function {name:?} is not LANGUAGE plpgsql"
            )));
        }
        let cf = plaway_sql::ast::CreateFunction {
            or_replace: true,
            name: def.name.clone(),
            params: def
                .params
                .iter()
                .map(|(n, t)| (n.clone(), t.sql_name()))
                .collect(),
            returns: def.returns.sql_name(),
            language: Language::PlPgSql,
            body: def.body.clone(),
        };
        let parsed = plaway_plsql::parse_function(&cf)?;
        let compiled = Arc::new(compile::compile(session, &parsed)?);
        self.compiled
            .insert(name.to_string(), (schema, Arc::clone(&compiled)));
        Ok(compiled)
    }

    /// Execute a compiled function. Wall-clock time not spent in executor
    /// phases is attributed to `Interp`.
    pub fn run_compiled(
        &mut self,
        session: &mut Session,
        compiled: &PlCompiled,
        args: &[Value],
    ) -> Result<Value> {
        if args.len() != compiled.nparams {
            return Err(Error::exec(format!(
                "function {} expects {} arguments, got {}",
                compiled.name,
                compiled.nparams,
                args.len()
            )));
        }
        let t0 = Instant::now();
        let before = session.profiler;

        let mut cx = CallCtx {
            session,
            notices: &mut self.notices,
            slots: Vec::with_capacity(compiled.slot_types.len()),
            budget: self.max_statements,
        };
        // Parameters first, everything else NULL until initialized.
        cx.slots.extend(args.iter().cloned());
        cx.slots.resize(compiled.slot_types.len(), Value::Null);
        for (slot, init) in &compiled.decl_inits {
            let v = match init {
                Some(e) => cx.eval(e)?,
                None => Value::Null,
            };
            cx.assign(*slot, &compiled.slot_types[*slot], v)?;
        }

        let result = match cx.exec_stmts(&compiled.body)? {
            Flow::Return(v) => v,
            Flow::Normal => {
                // Raised (not a plain Exec error): the compiled trampoline
                // reports the identical condition via raise_error.
                return Err(Error::raised(
                    plaway_plsql::ast::NO_RETURN_CONDITION,
                    format!(
                        "control reached end of function {:?} without RETURN",
                        compiled.name
                    ),
                ));
            }
            Flow::Exit(_) | Flow::Continue(_) => {
                return Err(Error::exec(
                    "EXIT/CONTINUE outside of any loop (compiler bug)",
                ))
            }
        };
        let result = if compiled.returns.admits(&result) {
            result
        } else {
            result.cast(&compiled.returns)?
        };

        // Interp = wall time minus whatever the executor phases consumed
        // during this call (including nested interpretation, already booked).
        let wall = t0.elapsed().as_nanos();
        let after = session.profiler;
        let executor = (after.exec_start_ns - before.exec_start_ns)
            + (after.exec_run_ns - before.exec_run_ns)
            + (after.exec_end_ns - before.exec_end_ns)
            + (after.interp_ns - before.interp_ns);
        session.profiler.add(
            Phase::Interp,
            std::time::Duration::from_nanos(wall.saturating_sub(executor) as u64),
        );
        Ok(result)
    }
}

/// Per-call execution context.
struct CallCtx<'a> {
    session: &'a mut Session,
    notices: &'a mut Vec<String>,
    slots: Vec<Value>,
    budget: u64,
}

impl<'a> CallCtx<'a> {
    fn eval(&mut self, e: &CExpr) -> Result<Value> {
        match e {
            CExpr::Simple(ir) => {
                // Fast path: a leaf read or one VM program, the evaluator
                // compiled queries use too; time booked as Exec·Run
                // (PostgreSQL evaluates simple expressions through the
                // executor's expression machinery without Start/End).
                let t0 = Instant::now();
                let v = self.session.eval_expr(ir, &self.slots);
                self.session.profiler.add(Phase::ExecRun, t0.elapsed());
                v
            }
            CExpr::Query { sql, scope } => {
                // Full lifecycle: plan-cache lookup + Start/Run/End.
                let plan = self.session.prepare(sql, scope)?;
                let result = self.session.execute_prepared(&plan, self.slots.clone())?;
                match result.rows.len() {
                    0 => Ok(Value::Null),
                    1 => {
                        let row = &result.rows[0];
                        if row.len() != 1 {
                            return Err(Error::exec("embedded query must return a single column"));
                        }
                        Ok(row[0].clone())
                    }
                    n => Err(Error::exec(format!(
                        "embedded query returned {n} rows (expected at most one)"
                    ))),
                }
            }
        }
    }

    fn eval_bool(&mut self, e: &CExpr) -> Result<bool> {
        Ok(self.eval(e)?.is_true())
    }

    fn assign(&mut self, slot: usize, ty: &Type, v: Value) -> Result<()> {
        self.slots[slot] = if ty.admits(&v) { v } else { v.cast(ty)? };
        Ok(())
    }

    fn charge(&mut self) -> Result<()> {
        if self.budget == 0 {
            return Err(Error::exec(
                "statement budget exhausted (possible infinite loop)",
            ));
        }
        self.budget -= 1;
        Ok(())
    }

    fn exec_stmts(&mut self, stmts: &[CStmt]) -> Result<Flow> {
        for s in stmts {
            match self.exec_stmt(s)? {
                Flow::Normal => continue,
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &CStmt) -> Result<Flow> {
        self.charge()?;
        match s {
            CStmt::Assign { slot, ty, expr } => {
                let v = self.eval(expr)?;
                self.assign(*slot, ty, v)?;
                Ok(Flow::Normal)
            }
            CStmt::If { branches, else_ } => {
                for (cond, body) in branches {
                    if self.eval_bool(cond)? {
                        return self.exec_stmts(body);
                    }
                }
                self.exec_stmts(else_)
            }
            CStmt::CaseStmt {
                operand,
                branches,
                else_,
            } => {
                let op_val = operand.as_ref().map(|e| self.eval(e)).transpose()?;
                for (vals, body) in branches {
                    for v in vals {
                        let matched = match &op_val {
                            Some(op) => {
                                let w = self.eval(v)?;
                                op.sql_eq(&w)? == Some(true)
                            }
                            None => self.eval_bool(v)?,
                        };
                        if matched {
                            return self.exec_stmts(body);
                        }
                    }
                }
                match else_ {
                    Some(body) => self.exec_stmts(body),
                    // PostgreSQL raises case_not_found when nothing matches;
                    // raised conditions are catchable by EXCEPTION handlers.
                    None => Err(Error::raised(
                        plaway_plsql::ast::CASE_NOT_FOUND_CONDITION,
                        "case not found in CASE statement",
                    )),
                }
            }
            CStmt::Loop { label, body } => loop {
                self.charge()?;
                match self.loop_body_step(label.as_deref(), body)? {
                    LoopStep::Continue => {}
                    LoopStep::Break => return Ok(Flow::Normal),
                    LoopStep::Propagate(flow) => return Ok(flow),
                }
            },
            CStmt::While { label, cond, body } => loop {
                self.charge()?;
                if !self.eval_bool(cond)? {
                    return Ok(Flow::Normal);
                }
                match self.loop_body_step(label.as_deref(), body)? {
                    LoopStep::Continue => {}
                    LoopStep::Break => return Ok(Flow::Normal),
                    LoopStep::Propagate(flow) => return Ok(flow),
                }
            },
            CStmt::ForRange {
                label,
                slot,
                from,
                to,
                by,
                reverse,
                body,
            } => {
                let from_v = self.eval(from)?;
                let to_v = self.eval(to)?;
                if from_v.is_null() || to_v.is_null() {
                    return Err(Error::exec("lower/upper bound of FOR loop cannot be null"));
                }
                let mut i = from_v.as_int()?;
                let to_i = to_v.as_int()?;
                let step = match by {
                    Some(e) => {
                        let v = self.eval(e)?.as_int()?;
                        if v <= 0 {
                            return Err(Error::exec("BY value of FOR loop must be positive"));
                        }
                        v
                    }
                    None => 1,
                };
                loop {
                    self.charge()?;
                    let done = if *reverse { i < to_i } else { i > to_i };
                    if done {
                        return Ok(Flow::Normal);
                    }
                    self.slots[*slot] = Value::Int(i);
                    match self.loop_body_step(label.as_deref(), body)? {
                        LoopStep::Continue => {}
                        LoopStep::Break => return Ok(Flow::Normal),
                        LoopStep::Propagate(flow) => return Ok(flow),
                    }
                    i = if *reverse { i - step } else { i + step };
                }
            }
            CStmt::Exit { label, when } => {
                let fire = match when {
                    Some(c) => self.eval_bool(c)?,
                    None => true,
                };
                Ok(if fire {
                    Flow::Exit(label.clone())
                } else {
                    Flow::Normal
                })
            }
            CStmt::Continue { label, when } => {
                let fire = match when {
                    Some(c) => self.eval_bool(c)?,
                    None => true,
                };
                Ok(if fire {
                    Flow::Continue(label.clone())
                } else {
                    Flow::Normal
                })
            }
            CStmt::Return(expr) => {
                let v = match expr {
                    Some(e) => self.eval(e)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            CStmt::Null => Ok(Flow::Normal),
            CStmt::Raise {
                level,
                format,
                args,
                condition,
            } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                let msg = format_raise(format, &vals);
                if *level == RaiseLevel::Exception {
                    let condition = condition
                        .as_deref()
                        .unwrap_or(plaway_plsql::ast::RAISE_EXCEPTION_CONDITION);
                    return Err(Error::raised(condition, msg));
                }
                self.notices.push(msg);
                Ok(Flow::Normal)
            }
            CStmt::Perform(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            CStmt::ForQuery {
                label,
                rec_slot,
                field_slots,
                sql,
                scope,
                body,
            } => {
                // Cursor semantics: the query runs exactly once, at loop
                // entry, through the full prepared-statement lifecycle.
                let plan = self.session.prepare(sql, scope)?;
                let result = self.session.execute_prepared(&plan, self.slots.clone())?;
                for row in &result.rows {
                    self.charge()?;
                    if row.len() != field_slots.len() {
                        return Err(Error::exec(format!(
                            "FOR-over-query row has {} columns, expected {}",
                            row.len(),
                            field_slots.len()
                        )));
                    }
                    self.slots[*rec_slot] = Value::record(row.clone());
                    for (k, fs) in field_slots.iter().enumerate() {
                        self.slots[*fs] = row[k].clone();
                    }
                    match self.loop_body_step(label.as_deref(), body)? {
                        LoopStep::Continue => {}
                        LoopStep::Break => return Ok(Flow::Normal),
                        LoopStep::Propagate(flow) => return Ok(flow),
                    }
                }
                Ok(Flow::Normal)
            }
            CStmt::Block {
                decl_inits,
                body,
                handlers,
            } => {
                // Declarations re-initialize at every entry, outside handler
                // protection (as in PostgreSQL, where an error in the
                // declarations is not caught by this block's handlers).
                for (slot, ty, init) in decl_inits {
                    let v = match init {
                        Some(e) => self.eval(e)?,
                        None => Value::Null,
                    };
                    self.assign(*slot, ty, v)?;
                }
                match self.exec_stmts(body) {
                    Err(Error::Raised { condition, message }) => {
                        for (conditions, hbody) in handlers {
                            if plaway_plsql::ast::condition_matches(conditions, &condition) {
                                // First matching arm wins; handler bodies
                                // run outside this block's protection.
                                return self.exec_stmts(hbody);
                            }
                        }
                        Err(Error::Raised { condition, message })
                    }
                    other => other,
                }
            }
        }
    }

    fn loop_body_step(&mut self, label: Option<&str>, body: &[CStmt]) -> Result<LoopStep> {
        Ok(match self.exec_stmts(body)? {
            Flow::Normal => LoopStep::Continue,
            Flow::Return(v) => LoopStep::Propagate(Flow::Return(v)),
            Flow::Exit(None) => LoopStep::Break,
            Flow::Exit(Some(l)) => {
                if Some(l.as_str()) == label {
                    LoopStep::Break
                } else {
                    LoopStep::Propagate(Flow::Exit(Some(l)))
                }
            }
            Flow::Continue(None) => LoopStep::Continue,
            Flow::Continue(Some(l)) => {
                if Some(l.as_str()) == label {
                    LoopStep::Continue
                } else {
                    LoopStep::Propagate(Flow::Continue(Some(l)))
                }
            }
        })
    }
}

enum LoopStep {
    Continue,
    Break,
    Propagate(Flow),
}

/// PostgreSQL-style `%` substitution for RAISE (with `%%` escape).
fn format_raise(fmt: &str, args: &[Value]) -> String {
    let mut out = String::with_capacity(fmt.len() + 16);
    let mut arg_i = 0;
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '%' {
            if chars.peek() == Some(&'%') {
                chars.next();
                out.push('%');
            } else if arg_i < args.len() {
                out.push_str(&args[arg_i].to_string());
                arg_i += 1;
            } else {
                out.push('%');
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaway_engine::EngineConfig;

    fn setup() -> (Session, Interpreter) {
        let mut s = Session::new(EngineConfig::postgres_like());
        s.run("CREATE TABLE kv (k int, v int)").unwrap();
        s.run("INSERT INTO kv VALUES (1, 100), (2, 200), (3, 300)")
            .unwrap();
        (s, Interpreter::new())
    }

    fn install(s: &mut Session, body: &str) {
        let sql = format!(
            "CREATE OR REPLACE FUNCTION f(n int) RETURNS int AS $$ {body} $$ LANGUAGE plpgsql"
        );
        s.run(&sql).unwrap();
    }

    fn call(s: &mut Session, i: &mut Interpreter, n: i64) -> Value {
        i.call(s, "f", &[Value::Int(n)]).unwrap()
    }

    #[test]
    fn trivial_return() {
        let (mut s, mut i) = setup();
        install(&mut s, "BEGIN RETURN n * 2; END");
        assert_eq!(call(&mut s, &mut i, 21), Value::Int(42));
    }

    #[test]
    fn declarations_and_assignment() {
        let (mut s, mut i) = setup();
        install(
            &mut s,
            "DECLARE a int := 10; b int; BEGIN b := a + n; a := a + b; RETURN a; END",
        );
        assert_eq!(call(&mut s, &mut i, 5), Value::Int(25));
    }

    #[test]
    fn embedded_query_reads_table() {
        let (mut s, mut i) = setup();
        install(
            &mut s,
            "DECLARE x int; BEGIN x := (SELECT v FROM kv WHERE k = n); RETURN x; END",
        );
        assert_eq!(call(&mut s, &mut i, 2), Value::Int(200));
        // Missing key -> NULL.
        assert_eq!(call(&mut s, &mut i, 99), Value::Null);
    }

    #[test]
    fn while_loop_computes() {
        let (mut s, mut i) = setup();
        install(
            &mut s,
            "DECLARE total int := 0; k int := 1; \
             BEGIN WHILE k <= n LOOP total := total + k; k := k + 1; END LOOP; \
             RETURN total; END",
        );
        assert_eq!(call(&mut s, &mut i, 10), Value::Int(55));
    }

    #[test]
    fn for_loop_with_exit_and_continue() {
        let (mut s, mut i) = setup();
        install(
            &mut s,
            "DECLARE total int := 0; \
             BEGIN \
               FOR k IN 1..100 LOOP \
                 CONTINUE WHEN k % 2 = 0; \
                 EXIT WHEN k > n; \
                 total := total + k; \
               END LOOP; \
               RETURN total; END",
        );
        // Sum of odd numbers 1..=9 = 25 (k=11 exits).
        assert_eq!(call(&mut s, &mut i, 10), Value::Int(25));
    }

    #[test]
    fn for_reverse_by_two() {
        let (mut s, mut i) = setup();
        install(
            &mut s,
            "DECLARE total int := 0; \
             BEGIN FOR k IN REVERSE 10..1 BY 2 LOOP total := total + k; END LOOP; \
             RETURN total; END",
        );
        // 10 + 8 + 6 + 4 + 2 = 30
        assert_eq!(call(&mut s, &mut i, 0), Value::Int(30));
    }

    #[test]
    fn labeled_nested_loops() {
        let (mut s, mut i) = setup();
        install(
            &mut s,
            "DECLARE hits int := 0; \
             BEGIN \
               <<outer>> FOR a IN 1..10 LOOP \
                 FOR b IN 1..10 LOOP \
                   hits := hits + 1; \
                   EXIT outer WHEN a * b >= n; \
                 END LOOP; \
               END LOOP; \
               RETURN hits; END",
        );
        // a=1: 10 inner iterations (product max 10 < 12); a=2, b=6 -> exit.
        assert_eq!(call(&mut s, &mut i, 12), Value::Int(16));
    }

    #[test]
    fn loop_variable_shadows_outer() {
        let (mut s, mut i) = setup();
        install(
            &mut s,
            "DECLARE k int := 1000; total int := 0; \
             BEGIN \
               FOR k IN 1..3 LOOP total := total + k; END LOOP; \
               RETURN total + k; END",
        );
        assert_eq!(call(&mut s, &mut i, 0), Value::Int(1006));
    }

    #[test]
    fn case_statement_dispatch() {
        let (mut s, mut i) = setup();
        install(
            &mut s,
            "BEGIN CASE n WHEN 1, 2 THEN RETURN 12; WHEN 3 THEN RETURN 3; \
             ELSE RETURN 0; END CASE; END",
        );
        assert_eq!(call(&mut s, &mut i, 2), Value::Int(12));
        assert_eq!(call(&mut s, &mut i, 3), Value::Int(3));
        assert_eq!(call(&mut s, &mut i, 9), Value::Int(0));
    }

    #[test]
    fn case_not_found_errors() {
        let (mut s, mut i) = setup();
        install(&mut s, "BEGIN CASE n WHEN 1 THEN RETURN 1; END CASE; END");
        let err = i.call(&mut s, "f", &[Value::Int(9)]).unwrap_err();
        assert!(err.to_string().contains("case not found"), "{err}");
    }

    #[test]
    fn missing_return_errors() {
        let (mut s, mut i) = setup();
        install(&mut s, "BEGIN NULL; END");
        let err = i.call(&mut s, "f", &[Value::Int(1)]).unwrap_err();
        assert!(err.to_string().contains("without RETURN"), "{err}");
    }

    #[test]
    fn raise_notice_and_exception() {
        let (mut s, mut i) = setup();
        install(
            &mut s,
            "BEGIN RAISE NOTICE 'n is % and doubled is %', n, n * 2; RETURN n; END",
        );
        call(&mut s, &mut i, 4);
        assert_eq!(i.notices.pop().unwrap(), "n is 4 and doubled is 8");

        install(&mut s, "BEGIN RAISE EXCEPTION 'boom %', n; RETURN 0; END");
        let err = i.call(&mut s, "f", &[Value::Int(7)]).unwrap_err();
        assert!(err.to_string().contains("boom 7"), "{err}");
    }

    #[test]
    fn statement_budget_stops_infinite_loops() {
        let (mut s, mut i) = setup();
        i.max_statements = 10_000;
        install(&mut s, "BEGIN LOOP NULL; END LOOP; RETURN 0; END");
        let err = i.call(&mut s, "f", &[Value::Int(1)]).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
    }

    #[test]
    fn profiler_buckets_query_vs_simple() {
        let (mut s, mut i) = setup();
        // Query-heavy function: Start/End must be populated.
        install(
            &mut s,
            "DECLARE t int := 0; \
             BEGIN FOR k IN 1..50 LOOP \
               t := t + (SELECT v FROM kv WHERE k = 1 + k % 3); \
             END LOOP; RETURN t; END",
        );
        s.reset_instrumentation();
        call(&mut s, &mut i, 0);
        assert!(
            s.profiler.exec_start_ns > 0,
            "queries must pay ExecutorStart"
        );
        assert!(s.profiler.exec_end_ns > 0);
        assert!(s.profiler.interp_ns > 0);
        assert_eq!(s.profiler.start_count, 50, "one Start per query evaluation");

        // Pure arithmetic function: no Start/End at all (the fibonacci row
        // of Table 1).
        install(
            &mut s,
            "DECLARE a int := 0; b int := 1; t int; \
             BEGIN FOR k IN 1..n LOOP t := a + b; a := b; b := t; END LOOP; \
             RETURN a; END",
        );
        s.reset_instrumentation();
        i.call(&mut s, "f", &[Value::Int(30)]).unwrap();
        assert_eq!(s.profiler.start_count, 0, "simple exprs skip Start/End");
        assert_eq!(s.profiler.exec_start_ns, 0);
        assert!(s.profiler.exec_run_ns > 0, "simple eval books Exec·Run");
        assert!(s.profiler.interp_ns > 0);
    }

    #[test]
    fn fibonacci_value_correct() {
        let (mut s, mut i) = setup();
        install(
            &mut s,
            "DECLARE a int := 0; b int := 1; t int; \
             BEGIN FOR k IN 1..n LOOP t := a + b; a := b; b := t; END LOOP; \
             RETURN a; END",
        );
        assert_eq!(call(&mut s, &mut i, 10), Value::Int(55));
        assert_eq!(call(&mut s, &mut i, 1), Value::Int(1));
        assert_eq!(call(&mut s, &mut i, 0), Value::Int(0));
    }

    #[test]
    fn plan_cache_reused_across_calls() {
        let (mut s, mut i) = setup();
        install(&mut s, "BEGIN RETURN (SELECT v FROM kv WHERE k = n); END");
        s.reset_instrumentation();
        call(&mut s, &mut i, 1);
        call(&mut s, &mut i, 2);
        call(&mut s, &mut i, 3);
        assert_eq!(s.plan_cache_misses, 1, "first call plans");
        assert_eq!(s.plan_cache_hits, 2, "subsequent calls hit the cache");
    }

    #[test]
    fn variable_substitution_inside_query() {
        // The paper's Q1 pattern: `location` is a variable, `loc` a column.
        let (mut s, mut i) = setup();
        s.run("CREATE TABLE policy (loc int, action text)").unwrap();
        s.run("INSERT INTO policy VALUES (1, 'up'), (2, 'down')")
            .unwrap();
        s.run(
            "CREATE FUNCTION mv(location int) RETURNS text AS $$ \
             DECLARE movement text; \
             BEGIN \
               movement := (SELECT p.action FROM policy AS p WHERE location = p.loc); \
               RETURN movement; \
             END $$ LANGUAGE plpgsql",
        )
        .unwrap();
        assert_eq!(
            i.call(&mut s, "mv", &[Value::Int(2)]).unwrap(),
            Value::text("down")
        );
    }

    #[test]
    fn assignment_casts_to_declared_type() {
        let (mut s, mut i) = setup();
        install(
            &mut s,
            "DECLARE x float8; BEGIN x := n; RETURN CAST(x * 2.5 AS int); END",
        );
        assert_eq!(call(&mut s, &mut i, 2), Value::Int(5));
    }

    #[test]
    fn perform_discards_but_runs() {
        let (mut s, mut i) = setup();
        install(
            &mut s,
            "BEGIN PERFORM (SELECT count(*) FROM kv); RETURN 1; END",
        );
        s.reset_instrumentation();
        call(&mut s, &mut i, 0);
        assert_eq!(s.profiler.start_count, 1, "PERFORM runs the query");
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let (mut s, mut i) = setup();
        install(&mut s, "BEGIN RETURN n; END");
        assert!(i.call(&mut s, "f", &[]).is_err());
    }

    #[test]
    fn compiled_cache_survives_dml_and_recompiles_on_ddl() {
        let (mut s, mut i) = setup();
        install(&mut s, "BEGIN RETURN (SELECT count(*) FROM kv); END");
        assert_eq!(call(&mut s, &mut i, 0), Value::Int(3));
        let compiled = i.compiled_for(&mut s, "f").unwrap();

        // DML: the same compilation, and its embedded query hits the plan
        // cache yet reads the new row.
        s.run("INSERT INTO kv VALUES (4, 400)").unwrap();
        assert!(Arc::ptr_eq(
            &compiled,
            &i.compiled_for(&mut s, "f").unwrap()
        ));
        let (hits, misses) = (s.plan_cache_hits, s.plan_cache_misses);
        assert_eq!(call(&mut s, &mut i, 0), Value::Int(4));
        assert_eq!((s.plan_cache_hits, s.plan_cache_misses), (hits + 1, misses));

        // DDL: a new body must be recompiled and run.
        install(&mut s, "BEGIN RETURN (SELECT count(*) FROM kv) * 10; END");
        assert!(!Arc::ptr_eq(
            &compiled,
            &i.compiled_for(&mut s, "f").unwrap()
        ));
        assert_eq!(call(&mut s, &mut i, 0), Value::Int(40));
    }

    #[test]
    fn query_expr_count_matches_paper_shape() {
        let (mut s, mut i) = setup();
        install(
            &mut s,
            "DECLARE a int; b int; \
             BEGIN \
               a := (SELECT v FROM kv WHERE k = 1); \
               b := a + (SELECT v FROM kv WHERE k = 2); \
               RETURN a + b + n; \
             END",
        );
        let c = i.compiled_for(&mut s, "f").unwrap();
        assert_eq!(c.query_expr_count, 2);
    }
}
