//! Call-site inlining (§2 "Finalization").
//!
//! "A merge of body(f*, r) with the SQL code template yields a pure SQL
//! expression which may be inlined at f's call sites in the embracing
//! query Q." This module performs that splice: every `f(args)` call in Q
//! becomes a scalar subquery holding the compiled `WITH RECURSIVE` query
//! with `args` substituted for the function's parameters.

use plaway_common::Result;
use plaway_engine::Catalog;
use plaway_sql::ast::{Expr, Query, Select, SelectItem, SetExpr, TableRef};

use crate::cte::bind_args;
use crate::pipeline::Compiled;

/// Inline all calls to `compiled`'s function inside `query`.
pub fn inline_into_query(
    mut query: Query,
    compiled: &Compiled,
    catalog: &Catalog,
) -> Result<Query> {
    let mut failure = None;
    rewrite_query(&mut query, &mut |e| {
        let Expr::Func { name, args } = e else {
            return;
        };
        if *name != compiled.source.name {
            return;
        }
        match bind_args(&compiled.query, &compiled.param_names, args, catalog) {
            Ok(bound) => *e = Expr::Subquery(Box::new(bound)),
            Err(err) => failure = Some(err),
        }
    });
    match failure {
        Some(err) => Err(err),
        None => Ok(query),
    }
}

/// Structural expression rewriter over a whole query, bottom-up and in
/// place, descending into subqueries, FROM items, CTEs and set-operation
/// arms.
fn rewrite_query(q: &mut Query, f: &mut impl FnMut(&mut Expr)) {
    if let Some(with) = &mut q.with {
        for cte in &mut with.ctes {
            rewrite_query(&mut cte.query, f);
        }
    }
    rewrite_set_expr(&mut q.body, f);
    for oi in &mut q.order_by {
        rewrite_expr(&mut oi.expr, f);
    }
    for e in q.limit.iter_mut().chain(&mut q.offset) {
        rewrite_expr(e, f);
    }
}

fn rewrite_set_expr(body: &mut SetExpr, f: &mut impl FnMut(&mut Expr)) {
    match body {
        SetExpr::Select(sel) => rewrite_select(sel, f),
        SetExpr::SetOp { left, right, .. } => {
            rewrite_set_expr(left, f);
            rewrite_set_expr(right, f);
        }
        SetExpr::Values(rows) => {
            for e in rows.iter_mut().flatten() {
                rewrite_expr(e, f);
            }
        }
        SetExpr::Query(q) => rewrite_query(q, f),
    }
}

fn rewrite_select(sel: &mut Select, f: &mut impl FnMut(&mut Expr)) {
    for item in &mut sel.items {
        if let SelectItem::Expr { expr, .. } = item {
            rewrite_expr(expr, f);
        }
    }
    for t in &mut sel.from {
        rewrite_table_ref(t, f);
    }
    for e in sel
        .where_
        .iter_mut()
        .chain(&mut sel.group_by)
        .chain(&mut sel.having)
    {
        rewrite_expr(e, f);
    }
}

fn rewrite_table_ref(t: &mut TableRef, f: &mut impl FnMut(&mut Expr)) {
    match t {
        TableRef::Table { .. } => {}
        TableRef::Derived { query, .. } => rewrite_query(query, f),
        TableRef::Join {
            left, right, on, ..
        } => {
            rewrite_table_ref(left, f);
            rewrite_table_ref(right, f);
            if let Some(e) = on {
                rewrite_expr(e, f);
            }
        }
    }
}

/// [`Expr::rewrite`] with `f`, descending into subqueries with `f` too.
fn rewrite_expr(e: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    e.rewrite(&mut |node| {
        if let Expr::Subquery(q) | Expr::Exists(q) | Expr::InSubquery { query: q, .. } = node {
            rewrite_query(q, f);
        }
        f(node)
    })
}
