//! PL/pgSQL function compilation (name → slot resolution, expression
//! classification).
//!
//! Mirrors what PostgreSQL's plpgsql does on first call: variables become
//! numbered datums, every expression is classified as either
//!
//! * **simple** — no table access, no subquery, no UDF call: evaluated
//!   directly by the expression evaluator (PostgreSQL's
//!   `exec_eval_simple_expr` fast path that skips ExecutorStart/End), or
//! * **query** — wrapped as `SELECT (expr)` and driven through the full
//!   prepared-statement lifecycle. These are the `f→Qi` context switches
//!   the paper measures.

use std::collections::HashMap;

use plaway_common::{Error, Result, Type};
use plaway_engine::vm::Access;
use plaway_engine::{ExprIr, ParamScope, Session};
use plaway_plsql::ast::{PlFunction, PlStmt, RaiseLevel, VarDecl};
use plaway_sql::ast::Expr;

/// A compiled expression, classified by evaluation regime.
#[derive(Debug, Clone)]
pub enum CExpr {
    /// Fast path: direct evaluation, no executor lifecycle.
    Simple(ExprIr),
    /// Full lifecycle: prepared `SELECT (expr)` with the variable scope.
    Query { sql: String, scope: ParamScope },
}

/// Compiled statements with slot-resolved variables.
#[derive(Debug, Clone)]
pub enum CStmt {
    Assign {
        slot: usize,
        ty: Type,
        expr: CExpr,
    },
    If {
        branches: Vec<(CExpr, Vec<CStmt>)>,
        else_: Vec<CStmt>,
    },
    CaseStmt {
        operand: Option<CExpr>,
        branches: Vec<(Vec<CExpr>, Vec<CStmt>)>,
        else_: Option<Vec<CStmt>>,
    },
    Loop {
        label: Option<String>,
        body: Vec<CStmt>,
    },
    While {
        label: Option<String>,
        cond: CExpr,
        body: Vec<CStmt>,
    },
    ForRange {
        label: Option<String>,
        slot: usize,
        from: CExpr,
        to: CExpr,
        by: Option<CExpr>,
        reverse: bool,
        body: Vec<CStmt>,
    },
    Exit {
        label: Option<String>,
        when: Option<CExpr>,
    },
    Continue {
        label: Option<String>,
        when: Option<CExpr>,
    },
    Return(Option<CExpr>),
    Null,
    Raise {
        level: RaiseLevel,
        format: String,
        args: Vec<CExpr>,
        /// Condition name for `RAISE <condition>;`; the format-string form
        /// raises `raise_exception`.
        condition: Option<String>,
    },
    Perform(CExpr),
    /// `FOR rec IN <query> LOOP ...` — the query runs once (cursor
    /// semantics); each row binds the record slot plus one slot per output
    /// column.
    ForQuery {
        label: Option<String>,
        rec_slot: usize,
        field_slots: Vec<usize>,
        sql: String,
        scope: ParamScope,
        body: Vec<CStmt>,
    },
    /// Nested block: declarations re-initialize at every entry; handler arms
    /// `(conditions, body)` catch raised conditions from the body.
    Block {
        decl_inits: Vec<(usize, Type, Option<CExpr>)>,
        body: Vec<CStmt>,
        handlers: Vec<(Vec<String>, Vec<CStmt>)>,
    },
}

/// A fully compiled PL/pgSQL function.
#[derive(Debug, Clone)]
pub struct PlCompiled {
    pub name: String,
    pub nparams: usize,
    pub returns: Type,
    /// Type of each slot (parameters first, then declarations, then loop
    /// variables in encounter order).
    pub slot_types: Vec<Type>,
    /// Declaration initializers, in order: `(slot, init)`.
    pub decl_inits: Vec<(usize, Option<CExpr>)>,
    pub body: Vec<CStmt>,
    /// How many expressions took the query (full lifecycle) path — `walk`
    /// has 3, `fibonacci` 0.
    pub query_expr_count: usize,
}

struct Compiler<'s> {
    session: &'s mut Session,
    /// Slot table: (source name, type). Slot index = position.
    slots: Vec<(String, Type)>,
    /// Scope stack of name -> slot bindings.
    scopes: Vec<HashMap<String, usize>>,
    query_expr_count: usize,
}

/// Compile a parsed function against the session's catalog.
pub fn compile(session: &mut Session, f: &PlFunction) -> Result<PlCompiled> {
    let mut c = Compiler {
        session,
        slots: Vec::new(),
        scopes: vec![HashMap::new()],
        query_expr_count: 0,
    };
    for (name, ty) in &f.params {
        c.declare(name, ty.clone())?;
    }
    let mut decl_inits = Vec::with_capacity(f.decls.len());
    for VarDecl { name, ty, init } in &f.decls {
        // Initializers may reference parameters and earlier declarations,
        // so compile before declaring the variable itself (PostgreSQL's
        // behaviour: `x int := x` refers to an outer x, or errors).
        let compiled_init = init.as_ref().map(|e| c.compile_expr(e)).transpose()?;
        let slot = c.declare(name, ty.clone())?;
        decl_inits.push((slot, compiled_init));
    }
    let body = c.compile_stmts(&f.body)?;
    Ok(PlCompiled {
        name: f.name.clone(),
        nparams: f.params.len(),
        returns: f.returns.clone(),
        slot_types: c.slots.iter().map(|(_, t)| t.clone()).collect(),
        decl_inits,
        body,
        query_expr_count: c.query_expr_count,
    })
}

impl<'s> Compiler<'s> {
    fn declare(&mut self, name: &str, ty: Type) -> Result<usize> {
        let slot = self.slots.len();
        self.slots.push((name.to_string(), ty));
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if scope.insert(name.to_string(), slot).is_some() {
            return Err(Error::compile(format!(
                "variable {name:?} declared twice in the same scope"
            )));
        }
        Ok(slot)
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        self.scopes
            .iter()
            .rev()
            .find_map(|scope| scope.get(name).copied())
    }

    /// Build the parameter scope for expression compilation: position i maps
    /// to slot i. Shadowed slots get placeholder names that can never be
    /// referenced from SQL text, so name lookup always finds the innermost
    /// binding.
    fn param_scope(&self) -> ParamScope {
        let mut names: Vec<String> = (0..self.slots.len())
            .map(|i| format!("\u{2}shadowed{i}"))
            .collect();
        for scope in &self.scopes {
            for (name, &slot) in scope {
                names[slot] = name.clone();
            }
        }
        // Inner scopes win: apply again in stack order (later = inner).
        for scope in self.scopes.iter() {
            for (name, &slot) in scope {
                // Clear any outer slot currently claiming this name.
                for (i, n) in names.iter_mut().enumerate() {
                    if i != slot && n == name {
                        *n = format!("\u{2}shadowed{i}");
                    }
                }
                names[slot] = name.clone();
            }
        }
        ParamScope::new(names)
    }

    fn compile_expr(&mut self, e: &Expr) -> Result<CExpr> {
        let scope = self.param_scope();
        let ir = self.session.compile_expr(e, &scope)?;
        if needs_full_executor(&ir) {
            self.query_expr_count += 1;
            Ok(CExpr::Query {
                sql: format!("SELECT ({e})"),
                scope,
            })
        } else {
            Ok(CExpr::Simple(ir))
        }
    }

    fn compile_stmts(&mut self, stmts: &[PlStmt]) -> Result<Vec<CStmt>> {
        stmts.iter().map(|s| self.compile_stmt(s)).collect()
    }

    fn compile_stmt(&mut self, s: &PlStmt) -> Result<CStmt> {
        Ok(match s {
            PlStmt::Assign { var, expr } => {
                let slot = self.lookup(var).ok_or_else(|| {
                    Error::compile(format!("assignment to undeclared variable {var:?}"))
                })?;
                let ty = self.slots[slot].1.clone();
                CStmt::Assign {
                    slot,
                    ty,
                    expr: self.compile_expr(expr)?,
                }
            }
            PlStmt::If { branches, else_ } => CStmt::If {
                branches: branches
                    .iter()
                    .map(|(c, body)| Ok((self.compile_expr(c)?, self.compile_stmts(body)?)))
                    .collect::<Result<_>>()?,
                else_: self.compile_stmts(else_)?,
            },
            PlStmt::CaseStmt {
                operand,
                branches,
                else_,
            } => CStmt::CaseStmt {
                operand: operand.as_ref().map(|e| self.compile_expr(e)).transpose()?,
                branches: branches
                    .iter()
                    .map(|(vals, body)| {
                        let cvals = vals
                            .iter()
                            .map(|v| self.compile_expr(v))
                            .collect::<Result<Vec<_>>>()?;
                        Ok((cvals, self.compile_stmts(body)?))
                    })
                    .collect::<Result<_>>()?,
                else_: else_
                    .as_ref()
                    .map(|body| self.compile_stmts(body))
                    .transpose()?,
            },
            PlStmt::Loop { label, body } => CStmt::Loop {
                label: label.clone(),
                body: self.compile_stmts(body)?,
            },
            PlStmt::While { label, cond, body } => CStmt::While {
                label: label.clone(),
                cond: self.compile_expr(cond)?,
                body: self.compile_stmts(body)?,
            },
            PlStmt::ForRange {
                label,
                var,
                from,
                to,
                by,
                reverse,
                body,
            } => {
                // Bounds are evaluated in the enclosing scope, the loop
                // variable lives in a fresh block scope.
                let from = self.compile_expr(from)?;
                let to = self.compile_expr(to)?;
                let by = by.as_ref().map(|e| self.compile_expr(e)).transpose()?;
                self.scopes.push(HashMap::new());
                let slot = self.declare(var, Type::Int)?;
                let body = self.compile_stmts(body)?;
                self.scopes.pop();
                CStmt::ForRange {
                    label: label.clone(),
                    slot,
                    from,
                    to,
                    by,
                    reverse: *reverse,
                    body,
                }
            }
            PlStmt::Exit { label, when } => CStmt::Exit {
                label: label.clone(),
                when: when.as_ref().map(|e| self.compile_expr(e)).transpose()?,
            },
            PlStmt::Continue { label, when } => CStmt::Continue {
                label: label.clone(),
                when: when.as_ref().map(|e| self.compile_expr(e)).transpose()?,
            },
            PlStmt::Return { expr } => {
                CStmt::Return(expr.as_ref().map(|e| self.compile_expr(e)).transpose()?)
            }
            PlStmt::Null => CStmt::Null,
            PlStmt::Raise {
                level,
                format,
                args,
                condition,
            } => CStmt::Raise {
                level: *level,
                format: format.clone(),
                args: args
                    .iter()
                    .map(|a| self.compile_expr(a))
                    .collect::<Result<_>>()?,
                condition: condition.clone(),
            },
            PlStmt::Perform { expr } => CStmt::Perform(self.compile_expr(expr)?),
            PlStmt::ForQuery {
                label,
                var,
                query,
                body,
            } => {
                // The query sees the enclosing scope (loop-entry values);
                // the record variable and its fields live in a fresh block
                // scope under names no source text can collide with.
                let scope = self.param_scope();
                let sql = query.to_string();
                let cols = plaway_engine::query_output_columns(query, &self.session.catalog)?;
                self.scopes.push(HashMap::new());
                let rec_slot = self.declare(&record_slot_name(var, None), Type::Unknown)?;
                let mut field_slots = Vec::with_capacity(cols.len());
                for c in &cols {
                    field_slots.push(self.declare(&record_slot_name(var, Some(c)), Type::Unknown)?);
                }
                let mut unknown: Vec<String> = Vec::new();
                let body = plaway_plsql::record::rewrite_stmts(body.clone(), var, &mut |r| {
                    use plaway_plsql::record::RecordRef;
                    match r {
                        RecordRef::Field(f) => {
                            if !cols.iter().any(|c| c == f) {
                                unknown.push(f.to_string());
                            }
                            Expr::col(record_slot_name(var, Some(f)))
                        }
                        RecordRef::Whole => Expr::col(record_slot_name(var, None)),
                    }
                });
                if let Some(f) = unknown.first() {
                    return Err(Error::compile(format!(
                        "record variable {var:?} has no field {f:?}; the loop query \
                         provides columns {cols:?}"
                    )));
                }
                let body = self.compile_stmts(&body)?;
                self.scopes.pop();
                CStmt::ForQuery {
                    label: label.clone(),
                    rec_slot,
                    field_slots,
                    sql,
                    scope,
                    body,
                }
            }
            PlStmt::Block {
                decls,
                body,
                handlers,
            } => {
                self.scopes.push(HashMap::new());
                let mut decl_inits = Vec::with_capacity(decls.len());
                for VarDecl { name, ty, init } in decls {
                    let compiled_init = init.as_ref().map(|e| self.compile_expr(e)).transpose()?;
                    let slot = self.declare(name, ty.clone())?;
                    decl_inits.push((slot, ty.clone(), compiled_init));
                }
                let body = self.compile_stmts(body)?;
                // Handler bodies see the block's variables (PostgreSQL
                // keeps the block scope alive for its handlers).
                let handlers = handlers
                    .iter()
                    .map(|h| Ok((h.conditions.clone(), self.compile_stmts(&h.body)?)))
                    .collect::<Result<_>>()?;
                self.scopes.pop();
                CStmt::Block {
                    decl_inits,
                    body,
                    handlers,
                }
            }
        })
    }
}

/// Internal slot name for a FOR-over-query record (`#` cannot appear in a
/// lexed identifier, so these names never collide with source variables;
/// the SQL printer quotes them, and quoted identifiers re-lex verbatim).
fn record_slot_name(var: &str, field: Option<&str>) -> String {
    match field {
        Some(f) => format!("{var}#{f}"),
        None => format!("{var}#"),
    }
}

/// Does the compiled expression require the full executor lifecycle?
/// (Anything touching tables, subqueries or UDFs. `random()` stays simple —
/// PostgreSQL's fast path handles stable-free functions the same way, which
/// is why Table 1 shows zero Start/End cost for `fibonacci`.) Snapshot
/// expressions are the compiled trampoline's cursor machinery; the
/// interpreter's own cursor never emits them, but a hand-written
/// expression could — run it with the full executor. `Session::compile_expr`
/// returns a leaf or a lowered program, so only a program can need it.
fn needs_full_executor(ir: &ExprIr) -> bool {
    let ExprIr::Vm(prog) = ir else {
        return false;
    };
    let mut full = false;
    prog.for_each_access(&mut |a| {
        full |= !matches!(a, Access::Slot { .. } | Access::Param(_) | Access::Volatile)
    });
    full
}
