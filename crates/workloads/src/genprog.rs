//! Random PL/pgSQL program generator for differential testing.
//!
//! Programs are generated so that they *always terminate* (loops carry
//! explicit bounds) and *never error* (division only by positive constants,
//! most arithmetic range-bounded by `%`). Assignments can still grow a
//! variable across loop trips (`v := v + v` doubles it), so each program is
//! checked against an upper bound on every value it can compute (see
//! `Mag`) and drawn again in the rare case that bound could overflow.
//! Embedded queries over the `kv` fixture add genuine `f→Qi` traffic,
//! including NULL results for missing keys.
//!
//! The headline correctness property of the whole repository:
//!
//! > interpreting a generated function and running its compiled
//! > `WITH RECURSIVE` / `WITH ITERATE` form produce the same value.

use std::collections::HashMap;

use plaway_common::{Result, SessionRng, Value};
use plaway_engine::Session;

/// Generation knobs.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum statement nesting depth.
    pub max_depth: usize,
    /// Statements per block (upper bound).
    pub max_stmts: usize,
    /// Allow embedded queries over the `kv` fixture.
    pub allow_queries: bool,
    /// Also emit correlated queries that end in a blocking operator
    /// (aggregate, `ORDER BY … LIMIT 1`, window), keyed by a variable
    /// modulo a small constant so keys repeat. Off by default: turning it
    /// on changes every generated program.
    pub blocking_queries: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_depth: 3,
            max_stmts: 4,
            allow_queries: true,
            blocking_queries: false,
        }
    }
}

/// A generated program plus arguments to call it with.
#[derive(Debug, Clone)]
pub struct GenProgram {
    pub name: String,
    pub source: String,
    pub args: Vec<Value>,
}

/// Install the table the generated queries read.
pub fn install_fixture(session: &mut Session) -> Result<()> {
    session.run("DROP TABLE IF EXISTS kv")?;
    session.run("CREATE TABLE kv (k int, v int)")?;
    let rows: Vec<Vec<Value>> = (0..10)
        .map(|k| vec![Value::Int(k), Value::Int((k * k * 7 + 3) % 100)])
        .collect();
    session.bulk_insert("kv", rows)?;
    session.run("CREATE INDEX kv_k ON kv (k)")?;
    Ok(())
}

struct Gen {
    rng: SessionRng,
    cfg: GenConfig,
    /// Integer variables currently in scope (v0, v1, ... + params).
    int_vars: Vec<String>,
    /// Loop labels in scope (for labelled EXIT/CONTINUE).
    labels: Vec<String>,
    /// Variables that must not be assigned (WHILE counters).
    protected: Vec<String>,
    counter: usize,
    out: String,
    indent: usize,
    /// What the statements generated so far compute, innermost loop body
    /// last: the input of the overflow check.
    effects: Vec<Vec<Eff>>,
}

/// An upper bound on the magnitude of an integer expression, given upper
/// bounds on its variables' magnitudes. Evaluating it fails where the
/// expression could overflow on the way.
#[derive(Debug, Clone)]
enum Mag {
    Var(String),
    Const(f64),
    /// `a + b` or `a - b`.
    Sum(Box<Mag>, Box<Mag>),
    /// `a * b`.
    Product(Box<Mag>, Box<Mag>),
    /// Evaluates the inner expression; the result is at most the constant
    /// (`% m`, a `kv` lookup, a boolean).
    Capped(Box<Mag>, f64),
    /// Either of two results (`CASE`).
    Max(Box<Mag>, Box<Mag>),
}

/// What one generated statement computes, for the overflow check.
#[derive(Debug)]
enum Eff {
    /// `var := e`, on some paths.
    Assign(String, Mag),
    /// An expression evaluated for its value (conditions, `RETURN`).
    Eval(Mag),
    /// A loop body run at most this many times.
    Loop(u32, Vec<Eff>),
}

impl Mag {
    fn sum(a: Mag, b: Mag) -> Mag {
        Mag::Sum(Box::new(a), Box::new(b))
    }

    fn capped(a: Mag, cap: f64) -> Mag {
        Mag::Capped(Box::new(a), cap)
    }

    fn max(a: Mag, b: Mag) -> Mag {
        Mag::Max(Box::new(a), Box::new(b))
    }

    /// The bound, or `None` if the expression could overflow.
    fn eval(&self, bounds: &HashMap<String, f64>) -> Option<f64> {
        // Half of i64::MAX leaves slack for float rounding.
        const LIMIT: f64 = (i64::MAX / 2) as f64;
        let v = match self {
            Mag::Var(v) => bounds.get(v).copied().unwrap_or(0.0),
            Mag::Const(c) => *c,
            Mag::Sum(a, b) => a.eval(bounds)? + b.eval(bounds)?,
            Mag::Product(a, b) => a.eval(bounds)? * b.eval(bounds)?,
            Mag::Capped(a, cap) => {
                a.eval(bounds)?;
                *cap
            }
            Mag::Max(a, b) => a.eval(bounds)?.max(b.eval(bounds)?),
        };
        (v <= LIMIT).then_some(v)
    }
}

/// Can the program whose statements compute `effects` overflow? Every
/// statement counts as run or skipped (an assignment only raises its
/// variable's bound), and every loop as run for its full trip count, so
/// the answer errs towards yes.
fn may_overflow(effects: &[Eff], bounds: &mut HashMap<String, f64>) -> bool {
    effects.iter().any(|e| match e {
        Eff::Assign(var, m) => match m.eval(bounds) {
            Some(v) => {
                let b = bounds.entry(var.clone()).or_insert(0.0);
                *b = b.max(v);
                false
            }
            None => true,
        },
        Eff::Eval(m) => m.eval(bounds).is_none(),
        Eff::Loop(trips, body) => (0..*trips).any(|_| may_overflow(body, bounds)),
    })
}

/// Generate one program from a seed.
pub fn generate(seed: u64, cfg: GenConfig) -> GenProgram {
    // Attempt 0 draws from the seed's own stream; the rare program that
    // could overflow is drawn again from a derived one, under its name.
    (0u64..)
        .find_map(|attempt| generate_attempt(seed, attempt, cfg.clone()))
        .expect("some attempt yields a program that cannot overflow")
}

/// One draw of `generate`, or `None` if the program could overflow.
fn generate_attempt(seed: u64, attempt: u64, cfg: GenConfig) -> Option<GenProgram> {
    let stream = seed
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(seed)
        .wrapping_add(attempt.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut g = Gen {
        rng: SessionRng::new(stream),
        cfg,
        int_vars: vec!["p0".into(), "p1".into()],
        labels: Vec::new(),
        protected: Vec::new(),
        counter: 0,
        out: String::new(),
        indent: 2,
        effects: vec![Vec::new()],
    };
    // Arguments are drawn last, from -20..20 and 0..30.
    let mut bounds: HashMap<String, f64> =
        [("p0".to_string(), 20.0), ("p1".to_string(), 30.0)].into();
    let n_vars = g.rng.next_range(2, 4);
    let mut decls = String::new();
    for i in 0..n_vars {
        let name = format!("v{i}");
        let init = g.rng.next_range(-5, 9);
        decls.push_str(&format!("  {name} int := {init};\n"));
        bounds.insert(name.clone(), init.unsigned_abs() as f64);
        g.int_vars.push(name);
    }

    let n_stmts = g.rng.next_range(2, g.cfg.max_stmts as i64);
    for _ in 0..n_stmts {
        g.gen_stmt(g.cfg.max_depth);
    }
    // Final return mixes all variables.
    let mix = g
        .int_vars
        .clone()
        .iter()
        .enumerate()
        .map(|(i, v)| format!("{v} * {}", 2 * i + 1))
        .collect::<Vec<_>>()
        .join(" + ");
    g.line(&format!("RETURN ({mix}) % 10007;"));
    let mix_mag = g
        .int_vars
        .iter()
        .enumerate()
        .fold(Mag::Const(0.0), |acc, (i, v)| {
            let term = Mag::Product(
                Box::new(Mag::Var(v.clone())),
                Box::new(Mag::Const((2 * i + 1) as f64)),
            );
            Mag::sum(acc, term)
        });
    g.effect(Eff::Eval(mix_mag));
    let effects = g.effects.pop().expect("the top-level effect list");
    if may_overflow(&effects, &mut bounds) {
        return None;
    }

    let name = format!("gen{seed}");
    let source = format!(
        "CREATE OR REPLACE FUNCTION {name}(p0 int, p1 int) RETURNS int AS $$\nDECLARE\n{decls}BEGIN\n{}END;\n$$ LANGUAGE PLPGSQL;",
        g.out
    );
    let args = vec![
        Value::Int(g.rng.next_range(-20, 20)),
        Value::Int(g.rng.next_range(0, 30)),
    ];
    Some(GenProgram { name, source, args })
}

impl Gen {
    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push(' ');
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn effect(&mut self, e: Eff) {
        self.effects
            .last_mut()
            .expect("an open effect list")
            .push(e);
    }

    /// Start collecting a loop body's effects.
    fn begin_loop(&mut self) {
        self.effects.push(Vec::new());
    }

    /// Close the body opened by `begin_loop`; it runs at most `trips` times.
    fn end_loop(&mut self, trips: i64) {
        let body = self.effects.pop().expect("begin_loop opened a body");
        let trips = u32::try_from(trips).expect("loop trip counts are small");
        self.effect(Eff::Loop(trips, body));
    }

    fn fresh(&mut self, hint: &str) -> String {
        self.counter += 1;
        format!("{hint}{}", self.counter)
    }

    fn pick_var(&mut self) -> String {
        let i = self.rng.next_range(0, self.int_vars.len() as i64 - 1) as usize;
        self.int_vars[i].clone()
    }

    /// Assignable variables (not parameters — PL/pgSQL allows assigning
    /// parameters, but keeping them immutable matches more styles).
    fn pick_assignable(&mut self) -> Option<String> {
        let assignable: Vec<&String> = self
            .int_vars
            .iter()
            .filter(|v| !v.starts_with('p') && !self.protected.contains(v))
            .collect();
        if assignable.is_empty() {
            return None;
        }
        let i = self.rng.next_range(0, assignable.len() as i64 - 1) as usize;
        Some(assignable[i].clone())
    }

    /// An integer expression and the bound on its magnitude (values stay
    /// small where `%` keeps them so).
    fn gen_int_expr(&mut self, depth: usize) -> (String, Mag) {
        if depth == 0 {
            return match self.rng.next_range(0, 2) {
                0 => {
                    let v = self.pick_var();
                    (v.clone(), Mag::Var(v))
                }
                1 => (self.rng.next_range(-9, 9).to_string(), Mag::Const(9.0)),
                _ => {
                    let v = self.pick_var();
                    (format!("({v} % 13)"), Mag::capped(Mag::Var(v), 12.0))
                }
            };
        }
        let choices = if self.cfg.blocking_queries { 10 } else { 7 };
        match self.rng.next_range(0, choices) {
            0 | 1 => {
                let (a, ma) = self.gen_int_expr(depth - 1);
                let (b, mb) = self.gen_int_expr(depth - 1);
                (format!("({a} + {b})"), Mag::sum(ma, mb))
            }
            2 => {
                let (a, ma) = self.gen_int_expr(depth - 1);
                let (b, mb) = self.gen_int_expr(depth - 1);
                (format!("({a} - {b})"), Mag::sum(ma, mb))
            }
            3 => {
                let (a, ma) = self.gen_int_expr(depth - 1);
                let (b, mb) = self.gen_int_expr(depth - 1);
                let product = Mag::Product(Box::new(ma), Box::new(mb));
                (format!("(({a} * {b}) % 97)"), Mag::capped(product, 96.0))
            }
            4 => {
                let (a, ma) = self.gen_int_expr(depth - 1);
                let k = self.rng.next_range(2, 9);
                (format!("({a} / {k})"), ma)
            }
            5 => {
                let (a, ma) = self.gen_int_expr(depth - 1);
                (format!("abs({a} % 23)"), Mag::capped(ma, 22.0))
            }
            6 if self.cfg.allow_queries => {
                let (a, ma) = self.gen_int_expr(depth - 1);
                // May hit no row (negative keys) -> NULL, exercising NULL
                // propagation through both execution regimes.
                (
                    format!("COALESCE((SELECT kv.v FROM kv WHERE kv.k = ({a}) % 12), -1)"),
                    Mag::capped(ma, 99.0),
                )
            }
            form @ 8..=10 if self.cfg.allow_queries => self.gen_blocking_query(form - 8),
            _ => {
                let (c, mc) = self.gen_bool_expr(depth - 1);
                let (a, ma) = self.gen_int_expr(depth - 1);
                let (b, mb) = self.gen_int_expr(depth - 1);
                (
                    format!("(CASE WHEN {c} THEN {a} ELSE {b} END)"),
                    Mag::max(Mag::capped(mc, 0.0), Mag::max(ma, mb)),
                )
            }
        }
    }

    /// A correlated embedded query whose plan ends in a blocking operator.
    /// It reads one variable modulo a small constant, so within a loop the
    /// same key recurs (always for parameters and unchanged locals).
    fn gen_blocking_query(&mut self, form: i64) -> (String, Mag) {
        let var = self.pick_var();
        let m = self.rng.next_range(2, 5);
        let key = format!("({var} % {m})");
        let sql = match form {
            0 => format!("COALESCE((SELECT max(kv.v) FROM kv WHERE kv.k <= {key} + 3), -1)"),
            1 => format!(
                "COALESCE((SELECT kv.v FROM kv WHERE kv.k >= {key} \
                 ORDER BY kv.v DESC, kv.k LIMIT 1), -1)"
            ),
            _ => format!(
                "COALESCE((SELECT w.s FROM (SELECT kv.k AS k, sum(kv.v) OVER \
                 (ORDER BY kv.k ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW) AS s \
                 FROM kv WHERE kv.k <= {key} + 4) AS w WHERE w.k = {key} + 1), -1)"
            ),
        };
        // At most the sum of all ten `kv.v` values.
        (sql, Mag::Const(990.0))
    }

    /// A boolean expression and the bound of its integer operands (it
    /// counts only for the overflow check; at depth 0 a variable is
    /// compared with a literal, which computes nothing).
    fn gen_bool_expr(&mut self, depth: usize) -> (String, Mag) {
        let cmp = ["<", "<=", "=", "<>", ">", ">="];
        if depth == 0 {
            let a = self.pick_var();
            let b = self.rng.next_range(-9, 9);
            let op = cmp[self.rng.next_range(0, cmp.len() as i64 - 1) as usize];
            return (format!("{a} {op} {b}"), Mag::Const(0.0));
        }
        match self.rng.next_range(0, 3) {
            0 => {
                let (a, ma) = self.gen_int_expr(depth - 1);
                let (b, mb) = self.gen_int_expr(depth - 1);
                let op = cmp[self.rng.next_range(0, cmp.len() as i64 - 1) as usize];
                (format!("({a}) {op} ({b})"), Mag::max(ma, mb))
            }
            1 => {
                let (a, ma) = self.gen_bool_expr(depth - 1);
                let (b, mb) = self.gen_bool_expr(depth - 1);
                (format!("({a} AND {b})"), Mag::max(ma, mb))
            }
            2 => {
                let (a, ma) = self.gen_bool_expr(depth - 1);
                let (b, mb) = self.gen_bool_expr(depth - 1);
                (format!("({a} OR {b})"), Mag::max(ma, mb))
            }
            _ => {
                let (a, ma) = self.gen_bool_expr(depth - 1);
                (format!("(NOT {a})"), ma)
            }
        }
    }

    fn gen_stmt(&mut self, depth: usize) {
        let choice = if depth == 0 {
            0
        } else {
            self.rng.next_range(0, 12)
        };
        match choice {
            // Assignment (weighted heaviest).
            0..=3 => {
                if let Some(var) = self.pick_assignable() {
                    let (e, m) = self.gen_int_expr(2.min(depth + 1));
                    self.line(&format!("{var} := {e};"));
                    self.effect(Eff::Assign(var, m));
                }
            }
            4 | 5 => {
                // IF / ELSIF / ELSE.
                let (c, mc) = self.gen_bool_expr(1);
                self.effect(Eff::Eval(mc));
                self.line(&format!("IF {c} THEN"));
                self.indent += 2;
                let n = self.rng.next_range(1, 2);
                for _ in 0..n {
                    self.gen_stmt(depth - 1);
                }
                self.indent -= 2;
                if self.rng.next_bool(0.5) {
                    let c2 = self.gen_bool_expr(0).0;
                    self.line(&format!("ELSIF {c2} THEN"));
                    self.indent += 2;
                    self.gen_stmt(depth - 1);
                    self.indent -= 2;
                }
                if self.rng.next_bool(0.6) {
                    self.line("ELSE");
                    self.indent += 2;
                    self.gen_stmt(depth - 1);
                    self.indent -= 2;
                }
                self.line("END IF;");
            }
            6 | 7 => {
                // Bounded FOR loop with optional EXIT/CONTINUE.
                let loop_var = self.fresh("i");
                let label = if self.rng.next_bool(0.3) {
                    let l = self.fresh("lbl");
                    self.line(&format!("<<{l}>>"));
                    Some(l)
                } else {
                    None
                };
                let lo = self.rng.next_range(0, 3);
                let hi = lo + self.rng.next_range(0, 5);
                let reverse = self.rng.next_bool(0.2);
                if reverse {
                    self.line(&format!("FOR {loop_var} IN REVERSE {hi}..{lo} LOOP"));
                } else {
                    self.line(&format!("FOR {loop_var} IN {lo}..{hi} LOOP"));
                }
                self.effect(Eff::Assign(loop_var.clone(), Mag::Const(hi as f64)));
                self.begin_loop();
                self.indent += 2;
                self.int_vars.push(loop_var.clone());
                if let Some(l) = &label {
                    self.labels.push(l.clone());
                }
                if self.rng.next_bool(0.3) {
                    let c = self.gen_bool_expr(0).0;
                    self.line(&format!("CONTINUE WHEN {c};"));
                }
                let n = self.rng.next_range(1, 2);
                for _ in 0..n {
                    self.gen_stmt(depth - 1);
                }
                if self.rng.next_bool(0.3) {
                    let c = self.gen_bool_expr(0).0;
                    let target = if !self.labels.is_empty() && self.rng.next_bool(0.5) {
                        let i = self.rng.next_range(0, self.labels.len() as i64 - 1) as usize;
                        format!("{} ", self.labels[i])
                    } else {
                        String::new()
                    };
                    self.line(&format!("EXIT {target}WHEN {c};"));
                }
                if label.is_some() {
                    self.labels.pop();
                }
                self.int_vars.pop();
                self.indent -= 2;
                self.line("END LOOP;");
                self.end_loop(hi - lo + 1);
            }
            8 => {
                // Bounded WHILE: an assignable variable becomes the loop
                // counter, guaranteeing termination.
                if let Some(var) = self.pick_assignable() {
                    let bound = self.rng.next_range(2, 6);
                    self.line(&format!("{var} := 0;"));
                    let c = self.gen_bool_expr(0).0;
                    self.line(&format!("WHILE {var} < {bound} AND ({c} OR true) LOOP"));
                    self.indent += 2;
                    self.line(&format!("{var} := {var} + 1;"));
                    self.effect(Eff::Assign(var.clone(), Mag::Const(bound as f64)));
                    self.begin_loop();
                    self.protected.push(var.clone());
                    self.gen_stmt(depth - 1);
                    self.protected.pop();
                    self.indent -= 2;
                    self.line("END LOOP;");
                    self.end_loop(bound);
                }
            }
            9 => {
                // Early RETURN behind a condition.
                let c = self.gen_bool_expr(0).0;
                let (e, m) = self.gen_int_expr(1);
                self.effect(Eff::Eval(m));
                self.line(&format!("IF {c} THEN RETURN {e}; END IF;"));
            }
            10 => {
                // Nested block with EXCEPTION handlers; every raise is
                // caught by construction (named arm or OTHERS), so the
                // generated program still never errors.
                let cond = self.fresh("cond");
                self.line("BEGIN");
                self.indent += 2;
                self.gen_stmt(depth - 1);
                let c = self.gen_bool_expr(0).0;
                if self.rng.next_bool(0.5) {
                    self.line(&format!("IF {c} THEN RAISE {cond}; END IF;"));
                } else {
                    let (arg, m) = self.gen_int_expr(0);
                    self.effect(Eff::Eval(m));
                    self.line(&format!(
                        "IF {c} THEN RAISE EXCEPTION 'gen %', {arg}; END IF;"
                    ));
                }
                if self.rng.next_bool(0.5) {
                    self.gen_stmt(depth - 1);
                }
                self.indent -= 2;
                self.line("EXCEPTION");
                self.indent += 2;
                self.line(&format!("WHEN {cond} THEN"));
                self.indent += 2;
                self.gen_stmt(0);
                self.indent -= 2;
                self.line("WHEN OTHERS THEN");
                self.indent += 2;
                self.gen_stmt(0);
                self.indent -= 2;
                self.indent -= 2;
                self.line("END;");
            }
            11 => {
                // Row loop whose body RAISEs into an *enclosing* handler:
                // the raise unwinds out of the loop (abandoning its snapshot
                // mid-iteration), the handler recovers, execution continues.
                // Every raise is caught by construction. Falls back to an
                // assignment when queries are disabled.
                if !self.cfg.allow_queries {
                    if let Some(var) = self.pick_assignable() {
                        let (e, m) = self.gen_int_expr(1);
                        self.line(&format!("{var} := {e};"));
                        self.effect(Eff::Assign(var, m));
                    }
                    return;
                }
                let Some(var) = self.pick_assignable() else {
                    return;
                };
                let cond = self.fresh("cond");
                let rec = self.fresh("r");
                let bound = self.rng.next_range(1, 9);
                self.line("BEGIN");
                self.indent += 2;
                self.line(&format!(
                    "FOR {rec} IN SELECT kv.k AS k, kv.v AS v FROM kv \
                     WHERE kv.k <= {bound} LOOP"
                ));
                self.begin_loop();
                self.indent += 2;
                self.line(&format!("{var} := ({var} + {rec}.v) % 61;"));
                let grown = Mag::sum(Mag::Var(var.clone()), Mag::Const(99.0));
                self.effect(Eff::Assign(var.clone(), Mag::capped(grown, 60.0)));
                let c = self.gen_bool_expr(0).0;
                if self.rng.next_bool(0.5) {
                    self.line(&format!("IF {c} THEN RAISE {cond}; END IF;"));
                } else {
                    self.line(&format!(
                        "IF {c} THEN RAISE EXCEPTION 'row %', {rec}.k; END IF;"
                    ));
                }
                self.indent -= 2;
                self.line("END LOOP;");
                self.end_loop(bound + 1);
                self.indent -= 2;
                self.line("EXCEPTION");
                self.indent += 2;
                self.line(&format!("WHEN {cond} THEN"));
                self.indent += 2;
                self.gen_stmt(0);
                self.indent -= 2;
                self.line("WHEN OTHERS THEN");
                self.indent += 2;
                self.gen_stmt(0);
                self.indent -= 2;
                self.indent -= 2;
                self.line("END;");
            }
            _ => {
                // FOR-over-query against the kv fixture (bounded: the
                // fixture has ten rows), optionally with a *nested* row loop
                // so snapshot re-entry is exercised — the inner source must
                // re-materialize once per outer row. Falls back to an
                // assignment when queries are disabled.
                if !self.cfg.allow_queries {
                    if let Some(var) = self.pick_assignable() {
                        let (e, m) = self.gen_int_expr(1);
                        self.line(&format!("{var} := {e};"));
                        self.effect(Eff::Assign(var, m));
                    }
                    return;
                }
                let Some(var) = self.pick_assignable() else {
                    return;
                };
                let rec = self.fresh("r");
                let bound = self.rng.next_range(0, 9);
                self.line(&format!(
                    "FOR {rec} IN SELECT kv.k AS k, kv.v AS v FROM kv \
                     WHERE kv.k <= {bound} LOOP"
                ));
                self.begin_loop();
                self.indent += 2;
                self.line(&format!("{var} := ({var} + {rec}.v - {rec}.k) % 53;"));
                let grown = Mag::sum(Mag::Var(var.clone()), Mag::Const(99.0 + 9.0));
                self.effect(Eff::Assign(var.clone(), Mag::capped(grown, 52.0)));
                if depth > 0 && self.rng.next_bool(0.35) {
                    // Nested row loop; the inner source may read the outer
                    // record (a correlated, re-materialized-per-entry case).
                    let inner = self.fresh("r");
                    let ib = self.rng.next_range(0, 4);
                    self.line(&format!(
                        "FOR {inner} IN SELECT kv.v AS v FROM kv \
                         WHERE kv.k <= {ib} + ({rec}.k % 3) LOOP"
                    ));
                    self.begin_loop();
                    self.indent += 2;
                    self.line(&format!("{var} := ({var} + {inner}.v) % 47;"));
                    let grown = Mag::sum(Mag::Var(var.clone()), Mag::Const(99.0));
                    self.effect(Eff::Assign(var.clone(), Mag::capped(grown, 46.0)));
                    if self.rng.next_bool(0.3) {
                        let c = self.gen_bool_expr(0).0;
                        self.line(&format!("EXIT WHEN {c};"));
                    }
                    self.indent -= 2;
                    self.line("END LOOP;");
                    // The fixture has ten rows.
                    self.end_loop(10);
                }
                if self.rng.next_bool(0.3) {
                    let c = self.gen_bool_expr(0).0;
                    self.line(&format!("EXIT WHEN {c};"));
                }
                self.indent -= 2;
                self.line("END LOOP;");
                self.end_loop(bound + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaway_core::{compile_sql, CompileOptions};
    use plaway_interp::Interpreter;

    /// The centerpiece differential test: interpreter == compiled SQL, for
    /// many random programs, in both CTE modes.
    #[test]
    fn interpreter_and_compiler_agree_on_random_programs() {
        let mut s = Session::default();
        install_fixture(&mut s).unwrap();
        let mut interp = Interpreter::new();
        interp.max_statements = 5_000_000;
        let mut checked = 0;
        for seed in 0..60u64 {
            let prog = generate(seed, GenConfig::default());
            s.run(&prog.source)
                .unwrap_or_else(|e| panic!("generated source must parse: {e}\n{}", prog.source));
            let reference = interp
                .call(&mut s, &prog.name, &prog.args)
                .unwrap_or_else(|e| panic!("interp failed: {e}\n{}", prog.source));
            for options in [CompileOptions::default(), CompileOptions::iterate()] {
                let compiled = compile_sql(&s.catalog, &prog.source, options)
                    .unwrap_or_else(|e| panic!("compile failed: {e}\n{}", prog.source));
                let got = compiled.run(&mut s, &prog.args).unwrap_or_else(|e| {
                    panic!(
                        "compiled run failed: {e}\n{}\n{}",
                        prog.source, compiled.sql
                    )
                });
                assert_eq!(
                    got, reference,
                    "seed {seed}, options {options:?}\n--- source ---\n{}\n--- sql ---\n{}",
                    prog.source, compiled.sql
                );
            }
            checked += 1;
        }
        assert_eq!(checked, 60);
    }

    /// Seed 55012092's first draw doubles `v1` in a 4×4×4 loop nest, which
    /// overflows; the program is drawn again and runs.
    #[test]
    fn programs_that_could_overflow_are_drawn_again() {
        let seed = 55_012_092;
        assert!(generate_attempt(seed, 0, GenConfig::default()).is_none());
        let prog = generate(seed, GenConfig::default());
        assert_eq!(prog.name, "gen55012092");
        let mut s = Session::default();
        install_fixture(&mut s).unwrap();
        s.run(&prog.source).unwrap();
        let mut interp = Interpreter::new();
        interp.max_statements = 5_000_000;
        interp.call(&mut s, &prog.name, &prog.args).unwrap();
    }

    #[test]
    fn generated_programs_parse_and_terminate() {
        let mut s = Session::default();
        install_fixture(&mut s).unwrap();
        let mut interp = Interpreter::new();
        interp.max_statements = 5_000_000;
        for seed in 100..120u64 {
            let prog = generate(
                seed,
                GenConfig {
                    max_depth: 4,
                    max_stmts: 6,
                    allow_queries: false,
                    blocking_queries: false,
                },
            );
            s.run(&prog.source).unwrap();
            interp.call(&mut s, &prog.name, &prog.args).unwrap();
        }
    }
}
