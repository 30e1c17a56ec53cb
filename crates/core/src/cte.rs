//! The `WITH RECURSIVE` simulation of the tail-recursive UDF
//! (§2 SQL — Figures 8 and 9 of the paper).
//!
//! The CTE `run` tracks the evaluation of `f*`:
//!
//! * `call?` — does this row encode a pending recursive call?
//! * `fn` + the argument columns — which block function, with what values,
//! * `result` — the function result once a base case is reached.
//!
//! Recursive calls in the body become `(true, fn, args..., NULL)` rows and
//! base cases `(false, NULL..., result)` rows; the body is evaluated once
//! per iteration via `LATERAL`, and the final answer is the single row with
//! `NOT call?`.
//!
//! Two argument layouts are provided:
//!
//! * [`ArgsLayout::Flattened`] — one CTE column per argument (what Figure 9's
//!   `r.step1` accesses suggest); the row value produced by the body is
//!   unpacked with the engine's `row_field`.
//! * [`ArgsLayout::Packed`] — a single record-valued `args` column, literally
//!   the `run("call?", args, result)` of Figure 8.
//!
//! [`CteMode::Iterate`] emits `WITH ITERATE` instead of `WITH RECURSIVE` —
//! the Passing et al. construct the paper adds to PostgreSQL in §3, which
//! keeps only the final iteration and therefore needs no trace space
//! (Table 2).

use std::collections::HashMap;

use plaway_common::{Error, Result, Type};
use plaway_engine::Catalog;
use plaway_sql::ast::{
    Cte, Expr, Query, Select, SelectItem, SetExpr, SetOp, TableAlias, TableRef, UnOp, With,
};

use crate::anf::AnfProgram;
use crate::subst::{subst_expr, subst_query};
use crate::udf::{build_case, LeafStyle, UdfProgram};

/// How the recursive CTE carries the argument vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArgsLayout {
    /// One column per argument (default; which layout is faster is
    /// workload-dependent — see the ablation bench).
    #[default]
    Flattened,
    /// One record-valued `args` column (the paper's Figure 8 shape).
    Packed,
}

/// Which fixpoint construct evaluates the CTE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CteMode {
    /// Standard SQL:1999 `WITH RECURSIVE` (accumulates the full trace).
    #[default]
    Recursive,
    /// `WITH ITERATE`: only the final iteration survives (no trace).
    Iterate,
}

/// Build the pure-SQL query for a compiled function. The original function's
/// parameters appear as free identifiers — bind them via the engine's
/// `ParamScope` or substitute literals with [`bind_args`].
pub fn build_query(
    anf: &AnfProgram,
    udf: &UdfProgram,
    catalog: &Catalog,
    layout: ArgsLayout,
    mode: CteMode,
) -> Result<Query> {
    build_query_impl(anf, udf, catalog, layout, mode, None)
}

/// Name of the batch row-id column. `#` is not a plain-identifier character,
/// so the name can never collide with a function parameter or SSA variable
/// (it pairs with the similarly quoted `"call?"`).
pub const BATCH_RID: &str = "call#";

/// Build the *batched* query: one in-flight activation per row of
/// `input_table` (columns `"call#" int` + one per function parameter), all
/// driven through a single fixpoint. Every leaf record is prefixed with the
/// activation's row id, so the working table interleaves the steps of every
/// invocation and the outer query returns `("call#", result)` pairs.
///
/// [`CteMode::Iterate`] maps to `WITH RETIRE` here, not `WITH ITERATE`:
/// ITERATE keeps only the *last* iteration's working table, which would drop
/// activations that finish early. RETIRE keeps no trace either, but moves a
/// row into the result the moment it fails the recursive arm's filter —
/// exactly the per-activation finish line.
pub fn build_batch_query(
    anf: &AnfProgram,
    udf: &UdfProgram,
    catalog: &Catalog,
    layout: ArgsLayout,
    mode: CteMode,
    input_table: &str,
) -> Result<Query> {
    build_query_impl(anf, udf, catalog, layout, mode, Some(input_table))
}

fn build_query_impl(
    anf: &AnfProgram,
    udf: &UdfProgram,
    catalog: &Catalog,
    layout: ArgsLayout,
    mode: CteMode,
    batch_input: Option<&str>,
) -> Result<Query> {
    let k = udf.rec_vars.len();

    // Parameter pruning: parameters used only to *initialize* state (e.g.
    // `parse`'s input string, consumed into `rest` at entry) need not be
    // carried through the trace — that is precisely what makes Table 2's
    // WITH RECURSIVE footprint n²/2 instead of 1.5·n².
    let used = used_identifiers(anf);
    let kept_params: Vec<(String, Type)> = udf
        .fn_params
        .iter()
        .filter(|(p, _)| used.contains(p))
        .cloned()
        .collect();
    let kept_names: Vec<String> = kept_params.iter().map(|(p, _)| p.clone()).collect();

    // Column list of the CTE. Batched trampolines carry the activation's
    // row id in front of everything else.
    let mut columns: Vec<String> = Vec::new();
    if batch_input.is_some() {
        columns.push(BATCH_RID.into());
    }
    columns.push("call?".into());
    columns.push("fn".into());
    match layout {
        ArgsLayout::Flattened => {
            columns.extend(udf.rec_vars.iter().map(|(v, _)| v.clone()));
            columns.extend(kept_names.iter().cloned());
        }
        ArgsLayout::Packed => columns.push("args".into()),
    }
    columns.push("result".into());
    let width = columns.len();

    // ---- body(f*, r): re-render leaves as row constructions, then redirect
    // all variable/parameter references to the CTE row `r`.
    let encoded = build_case(
        anf,
        &udf.rec_vars,
        &udf.tags,
        udf.entry_tag,
        &LeafStyle::RowEncode {
            packed: layout == ArgsLayout::Packed,
            params: kept_names.clone(),
            rid: batch_input.map(|_| Expr::qcol("r", BATCH_RID)),
        },
    )?;
    let mut map = HashMap::new();
    map.insert("fn".to_string(), Expr::qcol("r", "fn"));
    match layout {
        ArgsLayout::Flattened => {
            for (v, _) in &udf.rec_vars {
                map.insert(v.clone(), Expr::qcol("r", v.clone()));
            }
            for p in &kept_names {
                map.insert(p.clone(), Expr::qcol("r", p.clone()));
            }
        }
        ArgsLayout::Packed => {
            for (i, (v, _)) in udf.rec_vars.iter().enumerate() {
                map.insert(
                    v.clone(),
                    Expr::func(
                        "row_field",
                        vec![Expr::qcol("r", "args"), Expr::int(i as i64 + 1)],
                    ),
                );
            }
            for (j, p) in kept_names.iter().enumerate() {
                map.insert(
                    p.clone(),
                    Expr::func(
                        "row_field",
                        vec![Expr::qcol("r", "args"), Expr::int((k + j) as i64 + 1)],
                    ),
                );
            }
        }
    }
    let mut body = encoded;
    subst_expr(&mut body, &|name| map.get(name).cloned(), catalog);

    // ---- base arm: the original invocation (Figure 8 line 3). In batch
    // mode there is one seed row per input row: parameters come from the
    // input table's columns instead of free identifiers, and the row id
    // rides in front.
    let mut base_items: Vec<Expr> = vec![Expr::bool(true), Expr::int(udf.entry_tag)];
    match layout {
        ArgsLayout::Flattened => {
            base_items.extend(entry_vals_padded(udf));
            base_items.extend(kept_names.iter().map(|p| Expr::col(p.clone())));
        }
        ArgsLayout::Packed => {
            let mut packed = entry_vals_padded(udf);
            packed.extend(kept_names.iter().map(|p| Expr::col(p.clone())));
            base_items.push(Expr::Row(packed));
        }
    }
    base_items.push(Expr::Cast {
        expr: Box::new(Expr::null()),
        ty: cast_type_name(&udf.returns),
    });
    let mut base_from: Vec<TableRef> = Vec::new();
    if let Some(input) = batch_input {
        let input_column = |name: &str| {
            udf.fn_params
                .iter()
                .any(|(p, _)| p == name)
                .then(|| Expr::qcol("inp", name))
        };
        for e in &mut base_items {
            subst_expr(e, &input_column, catalog);
        }
        base_items.insert(0, Expr::qcol("inp", BATCH_RID));
        base_from.push(TableRef::Table {
            name: input.into(),
            alias: Some(TableAlias::named("inp")),
        });
    }
    let base_select = Select {
        items: base_items
            .into_iter()
            .map(|expr| SelectItem::Expr { expr, alias: None })
            .collect(),
        from: base_from,
        ..Default::default()
    };

    // ---- recursive arm (Figure 8 lines 6–9): evaluate the body once per
    // pending call, unpack the produced row into the CTE columns.
    let rec_items: Vec<SelectItem> = (1..=width)
        .map(|i| SelectItem::Expr {
            expr: Expr::func(
                "row_field",
                vec![Expr::qcol("iter", "x"), Expr::int(i as i64)],
            ),
            alias: None,
        })
        .collect();
    let rec_select = Select {
        items: rec_items,
        from: vec![
            TableRef::Table {
                name: "run".into(),
                alias: Some(TableAlias::named("r")),
            },
            TableRef::Derived {
                lateral: true,
                query: Box::new(Query::simple(Select {
                    items: vec![SelectItem::Expr {
                        expr: body,
                        alias: None,
                    }],
                    ..Default::default()
                })),
                alias: TableAlias {
                    name: "iter".into(),
                    columns: vec!["x".into()],
                },
            },
        ],
        where_: Some(Expr::qcol("r", "call?")),
        ..Default::default()
    };

    let cte_query = Query {
        with: None,
        body: SetExpr::SetOp {
            op: SetOp::Union,
            all: true,
            left: Box::new(SetExpr::Select(Box::new(base_select))),
            right: Box::new(SetExpr::Select(Box::new(rec_select))),
        },
        order_by: vec![],
        limit: None,
        offset: None,
    };

    // ---- outer query (Figure 8 lines 12–14). Batch mode returns
    // `("call#", result)` pairs — the caller scatters results back to the
    // input rows by id (retirement order is not input order).
    let mut outer_items: Vec<SelectItem> = Vec::new();
    if batch_input.is_some() {
        outer_items.push(SelectItem::Expr {
            expr: Expr::qcol("r", BATCH_RID),
            alias: None,
        });
    }
    outer_items.push(SelectItem::Expr {
        expr: Expr::qcol("r", "result"),
        alias: Some("result".into()),
    });
    let outer = Select {
        items: outer_items,
        from: vec![TableRef::Table {
            name: "run".into(),
            alias: Some(TableAlias::named("r")),
        }],
        where_: Some(Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(Expr::qcol("r", "call?")),
        }),
        ..Default::default()
    };

    let batch = batch_input.is_some();
    Ok(Query {
        with: Some(With {
            recursive: mode == CteMode::Recursive,
            iterate: !batch && mode == CteMode::Iterate,
            retire: batch && mode == CteMode::Iterate,
            ctes: vec![Cte {
                name: "run".into(),
                columns,
                query: cte_query,
            }],
        }),
        body: SetExpr::Select(Box::new(outer)),
        order_by: vec![],
        limit: None,
        offset: None,
    })
}

/// Entry values padded over the full `rec_vars` vector.
fn entry_vals_padded(udf: &UdfProgram) -> Vec<Expr> {
    debug_assert_eq!(udf.entry_vals.len(), udf.rec_vars.len());
    udf.entry_vals.clone()
}

/// Every identifier appearing in the *bodies* of reachable ANF functions
/// (lets, conditions, returns, call arguments). Computed by re-lexing the
/// printed expressions — deliberately over-approximate, so pruning can never
/// drop a parameter that is actually referenced.
fn used_identifiers(anf: &AnfProgram) -> std::collections::HashSet<String> {
    use plaway_sql::token::TokenKind;
    let mut text = String::new();
    let reachable = anf.reachable();
    let add_tail = |t: &crate::anf::AnfTail, text: &mut String| {
        fn rec(t: &crate::anf::AnfTail, text: &mut String) {
            match t {
                crate::anf::AnfTail::If { cond, then_, else_ } => {
                    text.push_str(&format!(" {cond} "));
                    rec(then_, text);
                    rec(else_, text);
                }
                crate::anf::AnfTail::Call { args, .. } => {
                    for a in args {
                        text.push_str(&format!(" {a} "));
                    }
                }
                crate::anf::AnfTail::LetChain { lets, body } => {
                    for (_, e) in lets {
                        text.push_str(&format!(" {e} "));
                    }
                    rec(body, text);
                }
                crate::anf::AnfTail::Ret(e) => text.push_str(&format!(" {e} ")),
            }
        }
        rec(t, text);
    };
    for (i, f) in anf.funcs.iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        for (_, e) in &f.lets {
            text.push_str(&format!(" {e} "));
        }
        add_tail(&f.tail, &mut text);
    }
    let mut out = std::collections::HashSet::new();
    if let Ok(tokens) = plaway_sql::Lexer::new(&text).tokenize() {
        for t in tokens {
            match t.kind {
                TokenKind::Ident(s) | TokenKind::QuotedIdent(s) => {
                    out.insert(s);
                }
                _ => {}
            }
        }
    }
    out
}

/// Substitute literal/argument expressions for the function's parameters —
/// used when inlining the compiled query at a call site or running it with
/// constant arguments.
pub fn bind_args(
    query: &Query,
    param_names: &[String],
    args: &[Expr],
    catalog: &Catalog,
) -> Result<Query> {
    if param_names.len() != args.len() {
        return Err(Error::compile(format!(
            "expected {} arguments, got {}",
            param_names.len(),
            args.len()
        )));
    }
    let arg = |name: &str| {
        let i = param_names.iter().position(|p| p == name)?;
        Some(args[i].clone())
    };
    let mut bound = query.clone();
    subst_query(&mut bound, &arg, catalog);
    Ok(bound)
}

fn cast_type_name(ty: &Type) -> String {
    match ty {
        Type::Unknown => "text".into(),
        other => other.sql_name(),
    }
}

/// The equality test used by unit tests: the outer query must filter on
/// `NOT call?` (tail recursion needs no ascent — §2's closing discussion).
#[allow(dead_code)]
fn is_final_filter(e: &Expr) -> bool {
    matches!(e, Expr::Unary { op: UnOp::Not, .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaway_common::Value;
    use plaway_engine::{ParamScope, Session};
    use plaway_plsql::parse_create_function;

    fn compile_to_query(
        session: &Session,
        src: &str,
        layout: ArgsLayout,
        mode: CteMode,
    ) -> (Query, Vec<String>) {
        let _ = parse_create_function(src).unwrap();
        let compiled = crate::pipeline::compile_sql(
            &session.catalog,
            src,
            crate::pipeline::CompileOptions {
                optimize: true,
                layout,
                mode,
            },
        )
        .unwrap();
        (compiled.query, compiled.param_names)
    }

    const SUM_SRC: &str = "CREATE FUNCTION sumto(n int) RETURNS int AS $$ \
         DECLARE s int := 0; i int := 1; \
         BEGIN \
           WHILE i <= n LOOP s := s + i; i := i + 1; END LOOP; \
           RETURN s; \
         END $$ LANGUAGE plpgsql";

    fn run_compiled(
        session: &mut Session,
        q: &Query,
        params: &[String],
        args: Vec<Value>,
    ) -> Value {
        let sql = q.to_string();
        let ps = ParamScope::new(params.to_vec());
        let plan = session.prepare(&sql, &ps).unwrap();
        let result = session.execute_prepared(&plan, args).unwrap();
        result.scalar().unwrap()
    }

    #[test]
    fn compiled_loop_computes_in_pure_sql() {
        let mut s = Session::default();
        let (q, params) = compile_to_query(&s, SUM_SRC, ArgsLayout::Flattened, CteMode::Recursive);
        let text = q.to_string();
        assert!(text.starts_with("WITH RECURSIVE run("), "{text}");
        assert!(text.contains("\"call?\""), "{text}");
        assert!(text.contains("UNION ALL"), "{text}");
        assert!(text.contains("NOT r.\"call?\""), "{text}");
        let v = run_compiled(&mut s, &q, &params, vec![Value::Int(10)]);
        assert_eq!(v, Value::Int(55), "sum 1..10 via WITH RECURSIVE\n{text}");
    }

    #[test]
    fn packed_layout_matches_figure8_and_computes() {
        let mut s = Session::default();
        let (q, params) = compile_to_query(&s, SUM_SRC, ArgsLayout::Packed, CteMode::Recursive);
        let text = q.to_string();
        assert!(text.contains("run(\"call?\", fn, args, result)"), "{text}");
        assert!(text.contains("row_field"), "{text}");
        let v = run_compiled(&mut s, &q, &params, vec![Value::Int(10)]);
        assert_eq!(v, Value::Int(55));
    }

    #[test]
    fn iterate_mode_computes_without_buffer_writes() {
        let mut s = Session::default();
        s.config.work_mem_bytes = 256; // tiny: force RECURSIVE to spill
        let (qr, params) = compile_to_query(&s, SUM_SRC, ArgsLayout::Flattened, CteMode::Recursive);
        let (qi, _) = compile_to_query(&s, SUM_SRC, ArgsLayout::Flattened, CteMode::Iterate);
        assert!(qi.to_string().starts_with("WITH ITERATE"));

        s.reset_instrumentation();
        let v = run_compiled(&mut s, &qr, &params, vec![Value::Int(200)]);
        assert_eq!(v, Value::Int(20100));
        assert!(s.buffers.page_writes > 0, "RECURSIVE accumulates a trace");

        s.reset_instrumentation();
        let v = run_compiled(&mut s, &qi, &params, vec![Value::Int(200)]);
        assert_eq!(v, Value::Int(20100));
        assert_eq!(s.buffers.page_writes, 0, "ITERATE keeps no trace");
    }

    #[test]
    fn early_return_takes_base_case() {
        let mut s = Session::default();
        let src = "CREATE FUNCTION f(n int) RETURNS int AS $$ \
             DECLARE i int := 0; \
             BEGIN \
               LOOP \
                 i := i + 1; \
                 IF i * i >= n THEN RETURN i; END IF; \
               END LOOP; \
             END $$ LANGUAGE plpgsql";
        let (q, params) = compile_to_query(&s, src, ArgsLayout::Flattened, CteMode::Recursive);
        // ceil(sqrt(50)) = 8
        let v = run_compiled(&mut s, &q, &params, vec![Value::Int(50)]);
        assert_eq!(v, Value::Int(8));
    }

    #[test]
    fn straight_line_function_terminates_after_one_step() {
        let mut s = Session::default();
        let src = "CREATE FUNCTION f(n int) RETURNS int AS $$ \
                   BEGIN RETURN n * 2 + 1; END $$ LANGUAGE plpgsql";
        let (q, params) = compile_to_query(&s, src, ArgsLayout::Flattened, CteMode::Recursive);
        s.reset_instrumentation();
        let v = run_compiled(&mut s, &q, &params, vec![Value::Int(20)]);
        assert_eq!(v, Value::Int(41));
        assert!(
            s.stats.recursive_iterations <= 2,
            "loop-free function must not iterate: {}",
            s.stats.recursive_iterations
        );
    }

    #[test]
    fn embedded_queries_work_inside_cte() {
        let mut s = Session::default();
        s.run("CREATE TABLE kv (k int, v int)").unwrap();
        s.run("INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)")
            .unwrap();
        let src = "CREATE FUNCTION f(n int) RETURNS int AS $$ \
             DECLARE total int := 0; i int := 1; \
             BEGIN \
               WHILE i <= n LOOP \
                 total := total + (SELECT v FROM kv WHERE k = i); \
                 i := i + 1; \
               END LOOP; \
               RETURN total; \
             END $$ LANGUAGE plpgsql";
        let (q, params) = compile_to_query(&s, src, ArgsLayout::Flattened, CteMode::Recursive);
        let v = run_compiled(&mut s, &q, &params, vec![Value::Int(3)]);
        assert_eq!(v, Value::Int(60));
    }

    #[test]
    fn generated_sql_reparses() {
        let s = Session::default();
        for layout in [ArgsLayout::Flattened, ArgsLayout::Packed] {
            for mode in [CteMode::Recursive, CteMode::Iterate] {
                let (q, _) = compile_to_query(&s, SUM_SRC, layout, mode);
                let text = q.to_string();
                let reparsed = plaway_sql::parse_query(&text)
                    .unwrap_or_else(|e| panic!("generated SQL must re-parse: {e}\n{text}"));
                assert_eq!(reparsed, q);
            }
        }
    }

    #[test]
    fn init_only_parameters_are_pruned_from_the_trace() {
        // `seed` only initializes state; it must not become a CTE column.
        let mut s = Session::default();
        let src = "CREATE FUNCTION f(seed int, bound int) RETURNS int AS $$ \
             DECLARE acc int := seed; \
             BEGIN \
               WHILE acc < bound LOOP acc := acc * 2 + 1; END LOOP; \
               RETURN acc; \
             END $$ LANGUAGE plpgsql";
        let (q, params) = compile_to_query(&s, src, ArgsLayout::Flattened, CteMode::Recursive);
        let text = q.to_string();
        let header = text.split(" AS ").next().unwrap();
        assert!(
            !header.contains("seed"),
            "init-only param must be pruned from the CTE columns: {header}"
        );
        assert!(
            header.contains("bound"),
            "loop-condition param must stay: {header}"
        );
        let v = run_compiled(&mut s, &q, &params, vec![Value::Int(1), Value::Int(100)]);
        assert_eq!(v, Value::Int(127)); // 1,3,7,15,31,63,127
    }

    #[test]
    fn loops_take_one_cte_iteration_per_source_iteration() {
        let mut s = Session::default();
        let (q, params) = compile_to_query(&s, SUM_SRC, ArgsLayout::Flattened, CteMode::Recursive);
        s.reset_instrumentation();
        let v = run_compiled(&mut s, &q, &params, vec![Value::Int(100)]);
        assert_eq!(v, Value::Int(5050));
        assert!(
            s.stats.recursive_iterations <= 103,
            "ANF inlining must give ~1 CTE step per loop iteration, got {}",
            s.stats.recursive_iterations
        );
    }

    #[test]
    fn bind_args_substitutes_literals() {
        let s = Session::default();
        let (q, params) = compile_to_query(&s, SUM_SRC, ArgsLayout::Flattened, CteMode::Recursive);
        let bound = bind_args(&q, &params, &[Expr::int(10)], &s.catalog).unwrap();
        let text = bound.to_string();
        // The base arm must now carry the literal argument (free `n` gone;
        // the CTE *column* may still be named n — that is a column, not a
        // parameter).
        assert!(text.contains("10"), "literal argument expected: {text}");
        // Bound query runs without any ParamScope.
        let mut s = Session::default();
        let result = s.run(&text).unwrap();
        assert_eq!(result.scalar().unwrap(), Value::Int(55));
    }
}
