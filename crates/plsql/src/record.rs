//! Rewriting references to a `FOR rec IN <query>` loop variable.
//!
//! The row variable of a query-driven FOR loop is not a scalar: its fields
//! are reached as `rec.field` (a qualified column in SQL syntax) and the
//! whole record as bare `rec`. Neither back end keeps a record variable
//! around at runtime — the interpreter binds fields to numbered slots, the
//! compiler to fresh temporaries — so both rewrite the loop body up front
//! with [`rewrite_stmts`], substituting every reference through a caller
//! supplied mapping.
//!
//! The rewrite is shadowing-aware on two levels:
//!
//! * a nested `FOR` loop or block declaration reusing the variable name
//!   shadows it for the nested statements, and
//! * a (sub)query whose FROM clause binds the name as a table or alias
//!   captures it — references inside that query are table columns, not
//!   record fields, and are left alone.

use plaway_sql::ast::{Expr, Query, SelectItem, SetExpr, TableRef, WindowSpec};

use crate::ast::{ExceptionHandler, PlStmt, VarDecl};

/// One reference to the loop variable `rec`: a field (`rec.f`) or the whole
/// record (bare `rec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordRef<'a> {
    /// `rec.field`.
    Field(&'a str),
    /// Bare `rec`.
    Whole,
}

/// The caller's mapping from a reference to its replacement.
type Mk<'a> = dyn FnMut(RecordRef) -> Expr + 'a;

/// Rewrite every reference to the record variable `var` in a statement
/// list. `mk` maps each reference to its replacement expression.
pub fn rewrite_stmts(stmts: Vec<PlStmt>, var: &str, mk: &mut Mk) -> Vec<PlStmt> {
    rw_stmts(stmts, var, mk)
}

/// Rewrite record references inside one expression (descending into
/// subqueries that do not capture the name).
pub fn rewrite_expr(e: Expr, var: &str, mk: &mut Mk) -> Expr {
    rw_expr(e, var, mk)
}

/// Rewrite record references inside a full query (the loop source of a
/// nested `FOR rec IN <query>`, which may correlate on the outer record).
pub fn rewrite_query(mut q: Query, var: &str, mk: &mut Mk) -> Query {
    rw_query(&mut q, var, mk);
    q
}

fn rw_stmts(stmts: Vec<PlStmt>, var: &str, mk: &mut Mk) -> Vec<PlStmt> {
    stmts
        .into_iter()
        .map(|s| rewrite_stmt(s, var, mk))
        .collect()
}

fn rewrite_stmt(s: PlStmt, var: &str, mk: &mut Mk) -> PlStmt {
    match s {
        PlStmt::Assign { var: v, expr } => PlStmt::Assign {
            var: v,
            expr: rw_expr(expr, var, mk),
        },
        PlStmt::If { branches, else_ } => PlStmt::If {
            branches: branches
                .into_iter()
                .map(|(c, b)| (rw_expr(c, var, mk), rw_stmts(b, var, mk)))
                .collect(),
            else_: rw_stmts(else_, var, mk),
        },
        PlStmt::CaseStmt {
            operand,
            branches,
            else_,
        } => PlStmt::CaseStmt {
            operand: operand.map(|o| rw_expr(o, var, mk)),
            branches: branches
                .into_iter()
                .map(|(vals, b)| {
                    (
                        vals.into_iter().map(|v| rw_expr(v, var, mk)).collect(),
                        rw_stmts(b, var, mk),
                    )
                })
                .collect(),
            else_: else_.map(|b| rw_stmts(b, var, mk)),
        },
        PlStmt::Loop { label, body } => PlStmt::Loop {
            label,
            body: rw_stmts(body, var, mk),
        },
        PlStmt::While { label, cond, body } => PlStmt::While {
            label,
            cond: rw_expr(cond, var, mk),
            body: rw_stmts(body, var, mk),
        },
        PlStmt::ForRange {
            label,
            var: v,
            from,
            to,
            by,
            reverse,
            body,
        } => {
            let from = rw_expr(from, var, mk);
            let to = rw_expr(to, var, mk);
            let by = by.map(|b| rw_expr(b, var, mk));
            // An inner loop variable reusing the name shadows the record.
            let body = if v == var {
                body
            } else {
                rw_stmts(body, var, mk)
            };
            PlStmt::ForRange {
                label,
                var: v,
                from,
                to,
                by,
                reverse,
                body,
            }
        }
        PlStmt::ForQuery {
            label,
            var: v,
            query,
            body,
        } => {
            // The nested loop's query still sees the outer record; its body
            // does only when the inner variable does not shadow it.
            let mut query = query;
            rw_query(&mut query, var, mk);
            let body = if v == var {
                body
            } else {
                rw_stmts(body, var, mk)
            };
            PlStmt::ForQuery {
                label,
                var: v,
                query,
                body,
            }
        }
        PlStmt::Exit { label, when } => PlStmt::Exit {
            label,
            when: when.map(|w| rw_expr(w, var, mk)),
        },
        PlStmt::Continue { label, when } => PlStmt::Continue {
            label,
            when: when.map(|w| rw_expr(w, var, mk)),
        },
        PlStmt::Return { expr } => PlStmt::Return {
            expr: expr.map(|x| rw_expr(x, var, mk)),
        },
        PlStmt::Null => PlStmt::Null,
        PlStmt::Raise {
            level,
            format,
            args,
            condition,
        } => PlStmt::Raise {
            level,
            format,
            args: args.into_iter().map(|a| rw_expr(a, var, mk)).collect(),
            condition,
        },
        PlStmt::Perform { expr } => PlStmt::Perform {
            expr: rw_expr(expr, var, mk),
        },
        PlStmt::Block {
            decls,
            body,
            handlers,
        } => {
            let shadowed = decls.iter().any(|d| d.name == var);
            let decls: Vec<VarDecl> = decls
                .into_iter()
                .map(|d| VarDecl {
                    init: d.init.map(|i| rw_expr(i, var, mk)),
                    ..d
                })
                .collect();
            let (body, handlers) = if shadowed {
                (body, handlers)
            } else {
                (
                    rw_stmts(body, var, mk),
                    handlers
                        .into_iter()
                        .map(|h| ExceptionHandler {
                            conditions: h.conditions,
                            body: rw_stmts(h.body, var, mk),
                        })
                        .collect(),
                )
            };
            PlStmt::Block {
                decls,
                body,
                handlers,
            }
        }
    }
}

fn rw_expr(mut e: Expr, var: &str, mk: &mut Mk) -> Expr {
    rw_expr_in_place(&mut e, var, mk);
    e
}

fn rw_expr_in_place(e: &mut Expr, var: &str, mk: &mut Mk) {
    e.rewrite(&mut |sub| match sub {
        Expr::Column {
            qualifier: Some(q),
            name,
        } if q == var => *sub = mk(RecordRef::Field(name)),
        Expr::Column {
            qualifier: None,
            name,
        } if name == var => *sub = mk(RecordRef::Whole),
        Expr::Subquery(q) | Expr::Exists(q) | Expr::InSubquery { query: q, .. } => {
            rw_query(q, var, mk)
        }
        _ => {}
    })
}

fn rw_query(q: &mut Query, var: &str, mk: &mut Mk) {
    if query_binds_name(q, var) {
        // A FROM item claims the name: references inside this query are
        // columns of that table, not record fields.
        return;
    }
    // CTE bodies are self-contained scopes; left alone.
    rw_set_expr(&mut q.body, var, mk);
    for o in &mut q.order_by {
        rw_expr_in_place(&mut o.expr, var, mk);
    }
    for e in q.limit.iter_mut().chain(&mut q.offset) {
        rw_expr_in_place(e, var, mk);
    }
}

fn rw_set_expr(s: &mut SetExpr, var: &str, mk: &mut Mk) {
    match s {
        SetExpr::Select(sel) => {
            for item in &mut sel.items {
                if let SelectItem::Expr { expr, .. } = item {
                    rw_expr_in_place(expr, var, mk);
                }
            }
            for t in &mut sel.from {
                rw_table(t, var, mk);
            }
            for e in sel
                .where_
                .iter_mut()
                .chain(&mut sel.group_by)
                .chain(&mut sel.having)
            {
                rw_expr_in_place(e, var, mk);
            }
            for (_, spec) in &mut sel.windows {
                rw_window(spec, var, mk);
            }
        }
        SetExpr::SetOp { left, right, .. } => {
            rw_set_expr(left, var, mk);
            rw_set_expr(right, var, mk);
        }
        SetExpr::Values(rows) => {
            for e in rows.iter_mut().flatten() {
                rw_expr_in_place(e, var, mk);
            }
        }
        SetExpr::Query(q) => rw_query(q, var, mk),
    }
}

fn rw_table(t: &mut TableRef, var: &str, mk: &mut Mk) {
    match t {
        TableRef::Table { .. } => {}
        TableRef::Derived { query, .. } => rw_query(query, var, mk),
        TableRef::Join {
            left, right, on, ..
        } => {
            rw_table(left, var, mk);
            rw_table(right, var, mk);
            if let Some(e) = on {
                rw_expr_in_place(e, var, mk);
            }
        }
    }
}

fn rw_window(spec: &mut WindowSpec, var: &str, mk: &mut Mk) {
    for e in &mut spec.partition_by {
        rw_expr_in_place(e, var, mk);
    }
    for o in &mut spec.order_by {
        rw_expr_in_place(&mut o.expr, var, mk);
    }
}

/// Does any FROM item of the query's top-level selects bind `name` as a
/// table, table alias or derived-table alias?
fn query_binds_name(q: &Query, name: &str) -> bool {
    fn table_binds(t: &TableRef, name: &str) -> bool {
        match t {
            TableRef::Table { name: n, alias } => {
                alias.as_ref().map(|a| a.name.as_str()).unwrap_or(n) == name
            }
            TableRef::Derived { alias, .. } => alias.name == name,
            TableRef::Join { left, right, .. } => {
                table_binds(left, name) || table_binds(right, name)
            }
        }
    }
    fn set_binds(s: &SetExpr, name: &str) -> bool {
        match s {
            SetExpr::Select(sel) => sel.from.iter().any(|t| table_binds(t, name)),
            SetExpr::SetOp { left, right, .. } => set_binds(left, name) || set_binds(right, name),
            SetExpr::Values(_) => false,
            SetExpr::Query(q) => set_binds(&q.body, name),
        }
    }
    set_binds(&q.body, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaway_sql::ast::BinOp;

    fn sub(e: &str, var: &str) -> String {
        let parsed = plaway_sql::parse_expr(e).unwrap();
        rewrite_expr(parsed, var, &mut |r| match r {
            RecordRef::Field(f) => Expr::col(format!("f_{f}")),
            RecordRef::Whole => Expr::col("whole"),
        })
        .to_string()
    }

    #[test]
    fn fields_and_whole_record_rewrite() {
        assert_eq!(sub("rec.a + rec.b", "rec"), "f_a + f_b");
        assert_eq!(sub("rec", "rec"), "whole");
        assert_eq!(sub("other.a", "rec"), "other.a");
    }

    #[test]
    fn subquery_alias_captures_the_name() {
        // `rec` is a table alias inside the subquery: left alone there,
        // rewritten outside.
        let got = sub(
            "rec.a + (SELECT rec.x FROM t AS rec WHERE rec.x > 0)",
            "rec",
        );
        assert_eq!(got, "f_a + (SELECT rec.x FROM t AS rec WHERE rec.x > 0)");
    }

    #[test]
    fn correlated_subquery_rewrites() {
        let got = sub("(SELECT t.v FROM t WHERE t.k = rec.key)", "rec");
        assert_eq!(got, "(SELECT t.v FROM t WHERE t.k = f_key)");
    }

    #[test]
    fn nested_for_same_name_shadows_body_not_query() {
        let inner_query =
            plaway_sql::parse_query("SELECT t.v AS v FROM t WHERE t.k = r.key").unwrap();
        let body = vec![PlStmt::Assign {
            var: "x".into(),
            expr: Expr::qcol("r", "v"),
        }];
        let stmts = vec![PlStmt::ForQuery {
            label: None,
            var: "r".into(),
            query: inner_query,
            body,
        }];
        let out = rewrite_stmts(stmts, "r", &mut |r| match r {
            RecordRef::Field(f) => Expr::col(format!("up_{f}")),
            RecordRef::Whole => Expr::col("up"),
        });
        let PlStmt::ForQuery { query, body, .. } = &out[0] else {
            panic!()
        };
        // Outer `r.key` in the nested query was rewritten...
        assert!(query.to_string().contains("up_key"), "{query}");
        // ...but the inner body's `r.v` belongs to the inner loop variable.
        let PlStmt::Assign { expr, .. } = &body[0] else {
            panic!()
        };
        assert_eq!(
            *expr,
            Expr::qcol("r", "v"),
            "shadowed body must be untouched"
        );
    }

    #[test]
    fn statement_shapes_rewrite() {
        let stmts = vec![PlStmt::If {
            branches: vec![(
                Expr::binary(BinOp::Gt, Expr::qcol("rec", "v"), Expr::int(0)),
                vec![PlStmt::Return {
                    expr: Some(Expr::qcol("rec", "v")),
                }],
            )],
            else_: vec![],
        }];
        let out = rewrite_stmts(stmts, "rec", &mut |_| Expr::col("x"));
        let PlStmt::If { branches, .. } = &out[0] else {
            panic!()
        };
        assert_eq!(branches[0].0.to_string(), "x > 0");
    }
}
