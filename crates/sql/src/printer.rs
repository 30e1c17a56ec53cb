//! SQL pretty printer.
//!
//! Produces text that re-parses to the same AST (property-tested). Used for
//! the compiler's generated queries (Figures 7–9 of the paper), error
//! messages, and the examples that show intermediate forms.

use std::borrow::Cow;
use std::fmt::Write;

use crate::ast::*;

/// Operator precedence used to decide parenthesization; mirrors the parser.
fn prec_of(e: &Expr) -> u8 {
    match e {
        Expr::Binary { op, .. } => match op {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 5,
            BinOp::Concat => 7,
            BinOp::Add | BinOp::Sub => 8,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 9,
        },
        Expr::Unary { op: UnOp::Not, .. } => 3,
        Expr::IsNull { .. } => 4,
        Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::InSubquery { .. }
        | Expr::Like { .. } => 6,
        Expr::Unary { op: UnOp::Neg, .. } => 10,
        Expr::Cast { .. } => 11,
        _ => 12,
    }
}

/// Quote an identifier if it is not a plain lowercase name (or would clash
/// with syntax). Quoted form always re-lexes to the same identifier; a
/// plain name is returned as it is, without copying.
pub fn quote_ident(name: &str) -> Cow<'_, str> {
    let plain = !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    // A handful of words the parser treats specially even in ident position.
    const NEEDS_QUOTES: &[&str] = &[
        "select",
        "from",
        "where",
        "group",
        "having",
        "order",
        "limit",
        "offset",
        "union",
        "except",
        "intersect",
        "case",
        "when",
        "then",
        "else",
        "end",
        "null",
        "true",
        "false",
        "and",
        "or",
        "not",
        "as",
        "on",
        "join",
        "left",
        "cross",
        "lateral",
        "exists",
        "row",
        "cast",
        "between",
        "in",
        "like",
        "is",
        "with",
        "values",
        "window",
        "over",
    ];
    if plain && !NEEDS_QUOTES.contains(&name) {
        Cow::Borrowed(name)
    } else {
        Cow::Owned(format!("\"{}\"", name.replace('"', "\"\"")))
    }
}

/// Render an expression, parenthesizing children of lower precedence.
fn write_expr(out: &mut String, e: &Expr, min_prec: u8) {
    let p = prec_of(e);
    let need_parens = p < min_prec;
    if need_parens {
        out.push('(');
    }
    match e {
        Expr::Literal(v) => {
            let _ = v.write_sql_literal(out);
        }
        Expr::Column { qualifier, name } => {
            if let Some(q) = qualifier {
                let _ = write!(out, "{}.{}", quote_ident(q), quote_ident(name));
            } else {
                let _ = write!(out, "{}", quote_ident(name));
            }
        }
        Expr::Param(name) => {
            // Parameters have no surface syntax; print as a column so the
            // text stays parseable (resolution re-creates the Param).
            let _ = write!(out, "{}", quote_ident(name));
        }
        Expr::Unary { op, expr } => match op {
            UnOp::Neg => {
                out.push('-');
                write_expr(out, expr, 10);
            }
            UnOp::Not => {
                out.push_str("NOT ");
                write_expr(out, expr, 3);
            }
        },
        Expr::Binary { op, left, right } => {
            // Left-assoc: left child may be same precedence, right must be
            // strictly higher.
            write_expr(out, left, p);
            let _ = write!(out, " {} ", op.sql());
            write_expr(out, right, p + 1);
        }
        Expr::IsNull { expr, negated } => {
            write_expr(out, expr, 5);
            out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            write_expr(out, expr, 7);
            out.push_str(if *negated {
                " NOT BETWEEN "
            } else {
                " BETWEEN "
            });
            write_expr(out, low, 7);
            out.push_str(" AND ");
            write_expr(out, high, 7);
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            write_expr(out, expr, 7);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            for (i, item) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, item, 0);
            }
            out.push(')');
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            write_expr(out, expr, 7);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            let _ = write!(out, "{query}");
            out.push(')');
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            write_expr(out, expr, 7);
            out.push_str(if *negated { " NOT LIKE " } else { " LIKE " });
            write_expr(out, pattern, 7);
        }
        Expr::Case {
            operand,
            branches,
            else_,
        } => {
            out.push_str("CASE");
            if let Some(op) = operand {
                out.push(' ');
                write_expr(out, op, 0);
            }
            for (when, then) in branches {
                out.push_str(" WHEN ");
                write_expr(out, when, 0);
                out.push_str(" THEN ");
                write_expr(out, then, 0);
            }
            if let Some(els) = else_ {
                out.push_str(" ELSE ");
                write_expr(out, els, 0);
            }
            out.push_str(" END");
        }
        Expr::Func { name, args } => {
            let _ = write!(out, "{}(", quote_ident(name));
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a, 0);
            }
            out.push(')');
        }
        Expr::CountStar => out.push_str("count(*)"),
        Expr::WindowFunc { name, args, window } => {
            if name == "count" && args.is_empty() {
                out.push_str("count(*)");
            } else {
                let _ = write!(out, "{}(", quote_ident(name));
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_expr(out, a, 0);
                }
                out.push(')');
            }
            out.push_str(" OVER ");
            match window {
                WindowRef::Named(n) => {
                    let _ = write!(out, "{}", quote_ident(n));
                }
                WindowRef::Inline(spec) => {
                    out.push('(');
                    write_window_spec(out, spec);
                    out.push(')');
                }
            }
        }
        Expr::Subquery(q) => {
            let _ = write!(out, "({q})");
        }
        Expr::Exists(q) => {
            let _ = write!(out, "EXISTS ({q})");
        }
        Expr::Row(items) => {
            out.push_str("ROW(");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, item, 0);
            }
            out.push(')');
        }
        Expr::Cast { expr, ty } => {
            // Always use CAST() form: `::` on complex operands needs parens
            // anyway and CAST is unambiguous.
            out.push_str("CAST(");
            write_expr(out, expr, 0);
            let _ = write!(out, " AS {ty})");
        }
    }
    if need_parens {
        out.push(')');
    }
}

fn write_window_spec(out: &mut String, spec: &WindowSpec) {
    let mut first = true;
    let space = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(' ');
        }
        *first = false;
    };
    if let Some(base) = &spec.base {
        space(out, &mut first);
        let _ = write!(out, "{}", quote_ident(base));
    }
    if !spec.partition_by.is_empty() {
        space(out, &mut first);
        out.push_str("PARTITION BY ");
        for (i, e) in spec.partition_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, e, 0);
        }
    }
    if !spec.order_by.is_empty() {
        space(out, &mut first);
        out.push_str("ORDER BY ");
        write_order_items(out, &spec.order_by);
    }
    if let Some(frame) = &spec.frame {
        space(out, &mut first);
        out.push_str(match frame.units {
            FrameUnits::Rows => "ROWS",
            FrameUnits::Range => "RANGE",
        });
        let _ = write!(
            out,
            " BETWEEN {} AND {}",
            frame_bound(&frame.start),
            frame_bound(&frame.end)
        );
        if frame.exclude_current_row {
            out.push_str(" EXCLUDE CURRENT ROW");
        }
    }
}

fn frame_bound(b: &FrameBound) -> String {
    match b {
        FrameBound::UnboundedPreceding => "UNBOUNDED PRECEDING".into(),
        FrameBound::Preceding(n) => format!("{n} PRECEDING"),
        FrameBound::CurrentRow => "CURRENT ROW".into(),
        FrameBound::Following(n) => format!("{n} FOLLOWING"),
        FrameBound::UnboundedFollowing => "UNBOUNDED FOLLOWING".into(),
    }
}

fn write_order_items(out: &mut String, items: &[OrderItem]) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_expr(out, &item.expr, 0);
        if item.desc {
            out.push_str(" DESC");
        }
        match item.nulls_first {
            Some(true) => out.push_str(" NULLS FIRST"),
            Some(false) => out.push_str(" NULLS LAST"),
            None => {}
        }
    }
}

fn write_table_ref(out: &mut String, t: &TableRef) {
    match t {
        TableRef::Table { name, alias } => {
            let _ = write!(out, "{}", quote_ident(name));
            if let Some(a) = alias {
                write_alias(out, a);
            }
        }
        TableRef::Derived {
            lateral,
            query,
            alias,
        } => {
            if *lateral {
                out.push_str("LATERAL ");
            }
            let _ = write!(out, "({query})");
            write_alias(out, alias);
        }
        TableRef::Join {
            left,
            right,
            kind,
            lateral,
            on,
        } => {
            write_table_ref(out, left);
            out.push_str(match kind {
                JoinKind::Inner => " JOIN ",
                JoinKind::Left => " LEFT JOIN ",
                JoinKind::Cross => " CROSS JOIN ",
            });
            if *lateral {
                out.push_str("LATERAL ");
            }
            // Parenthesize nested joins on the right to keep associativity.
            if matches!(**right, TableRef::Join { .. }) {
                out.push('(');
                write_table_ref(out, right);
                out.push(')');
            } else {
                write_table_ref(out, right);
            }
            if let Some(on) = on {
                out.push_str(" ON ");
                write_expr(out, on, 0);
            }
        }
    }
}

fn write_alias(out: &mut String, a: &TableAlias) {
    let _ = write!(out, " AS {}", quote_ident(&a.name));
    if !a.columns.is_empty() {
        out.push('(');
        for (i, c) in a.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", quote_ident(c));
        }
        out.push(')');
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        write_expr(&mut s, self, 0);
        f.write_str(&s)
    }
}

impl std::fmt::Display for Select {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        out.push_str("SELECT ");
        if self.distinct {
            out.push_str("DISTINCT ");
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match item {
                SelectItem::Wildcard => out.push('*'),
                SelectItem::QualifiedWildcard(q) => {
                    let _ = write!(out, "{}.*", quote_ident(q));
                }
                SelectItem::Expr { expr, alias } => {
                    write_expr(&mut out, expr, 0);
                    if let Some(a) = alias {
                        let _ = write!(out, " AS {}", quote_ident(a));
                    }
                }
            }
        }
        if !self.from.is_empty() {
            out.push_str(" FROM ");
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_table_ref(&mut out, t);
            }
        }
        if let Some(w) = &self.where_ {
            out.push_str(" WHERE ");
            write_expr(&mut out, w, 0);
        }
        if !self.group_by.is_empty() {
            out.push_str(" GROUP BY ");
            for (i, e) in self.group_by.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(&mut out, e, 0);
            }
        }
        if let Some(h) = &self.having {
            out.push_str(" HAVING ");
            write_expr(&mut out, h, 0);
        }
        if !self.windows.is_empty() {
            out.push_str(" WINDOW ");
            for (i, (name, spec)) in self.windows.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{} AS (", quote_ident(name));
                write_window_spec(&mut out, spec);
                out.push(')');
            }
        }
        f.write_str(&out)
    }
}

impl std::fmt::Display for SetExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetExpr::Select(s) => write!(f, "{s}"),
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let opname = match op {
                    SetOp::Union => "UNION",
                    SetOp::Except => "EXCEPT",
                    SetOp::Intersect => "INTERSECT",
                };
                write!(
                    f,
                    "{left} {opname}{} {right}",
                    if *all { " ALL" } else { "" }
                )
            }
            SetExpr::Values(rows) => {
                let mut out = String::from("VALUES ");
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('(');
                    for (j, e) in row.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        write_expr(&mut out, e, 0);
                    }
                    out.push(')');
                }
                f.write_str(&out)
            }
            SetExpr::Query(q) => write!(f, "({q})"),
        }
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        if let Some(with) = &self.with {
            out.push_str("WITH ");
            if with.recursive {
                out.push_str("RECURSIVE ");
            } else if with.iterate {
                out.push_str("ITERATE ");
            } else if with.retire {
                out.push_str("RETIRE ");
            }
            for (i, cte) in with.ctes.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}", quote_ident(&cte.name));
                if !cte.columns.is_empty() {
                    out.push('(');
                    for (j, c) in cte.columns.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "{}", quote_ident(c));
                    }
                    out.push(')');
                }
                let _ = write!(out, " AS ({})", cte.query);
            }
            out.push(' ');
        }
        let _ = write!(out, "{}", self.body);
        if !self.order_by.is_empty() {
            out.push_str(" ORDER BY ");
            write_order_items(&mut out, &self.order_by);
        }
        if let Some(l) = &self.limit {
            out.push_str(" LIMIT ");
            write_expr(&mut out, l, 0);
        }
        if let Some(o) = &self.offset {
            out.push_str(" OFFSET ");
            write_expr(&mut out, o, 0);
        }
        f.write_str(&out)
    }
}

impl std::fmt::Display for Stmt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stmt::Query(q) => write!(f, "{q}"),
            Stmt::Explain { analyze, stmt } => write!(
                f,
                "EXPLAIN {}{}",
                if *analyze { "ANALYZE " } else { "" },
                stmt
            ),
            Stmt::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                let cols: Vec<String> = columns
                    .iter()
                    .map(|(c, t)| format!("{} {}", quote_ident(c), t))
                    .collect();
                write!(
                    f,
                    "CREATE TABLE {}{} ({})",
                    if *if_not_exists { "IF NOT EXISTS " } else { "" },
                    quote_ident(name),
                    cols.join(", ")
                )
            }
            Stmt::CreateIndex {
                name,
                table,
                column,
                using,
            } => write!(
                f,
                "CREATE INDEX {} ON {}{} ({})",
                quote_ident(name),
                quote_ident(table),
                using
                    .map(|m| format!(" USING {}", m.sql()))
                    .unwrap_or_default(),
                quote_ident(column)
            ),
            Stmt::CreateFunction(cf) => {
                let params: Vec<String> = cf
                    .params
                    .iter()
                    .map(|(p, t)| format!("{} {}", quote_ident(p), t))
                    .collect();
                // Choose a dollar-quote tag that does not occur in the body,
                // and print the body verbatim so CREATE FUNCTION round-trips.
                let mut tag = String::new();
                while cf.body.contains(&format!("${tag}$")) {
                    tag.push('q');
                }
                write!(
                    f,
                    "CREATE {}FUNCTION {}({}) RETURNS {} AS ${tag}${}${tag}$ LANGUAGE {}",
                    if cf.or_replace { "OR REPLACE " } else { "" },
                    quote_ident(&cf.name),
                    params.join(", "),
                    cf.returns,
                    cf.body,
                    match cf.language {
                        Language::Sql => "SQL",
                        Language::PlPgSql => "PLPGSQL",
                    }
                )
            }
            Stmt::Insert {
                table,
                columns,
                source,
            } => {
                let mut out = format!("INSERT INTO {}", quote_ident(table));
                if !columns.is_empty() {
                    let cols: Vec<_> = columns.iter().map(|c| quote_ident(c)).collect();
                    let _ = write!(out, " ({})", cols.join(", "));
                }
                match source {
                    InsertSource::Values(rows) => {
                        out.push_str(" VALUES ");
                        for (i, row) in rows.iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            out.push('(');
                            for (j, e) in row.iter().enumerate() {
                                if j > 0 {
                                    out.push_str(", ");
                                }
                                write_expr(&mut out, e, 0);
                            }
                            out.push(')');
                        }
                    }
                    InsertSource::Query(q) => {
                        let _ = write!(out, " {q}");
                    }
                }
                f.write_str(&out)
            }
            Stmt::Update {
                table,
                sets,
                where_,
            } => {
                let mut out = format!("UPDATE {} SET ", quote_ident(table));
                for (i, (c, e)) in sets.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{} = ", quote_ident(c));
                    write_expr(&mut out, e, 0);
                }
                if let Some(w) = where_ {
                    out.push_str(" WHERE ");
                    write_expr(&mut out, w, 0);
                }
                f.write_str(&out)
            }
            Stmt::Delete { table, where_ } => {
                let mut out = format!("DELETE FROM {}", quote_ident(table));
                if let Some(w) = where_ {
                    out.push_str(" WHERE ");
                    write_expr(&mut out, w, 0);
                }
                f.write_str(&out)
            }
            Stmt::DropTable { name, if_exists } => write!(
                f,
                "DROP TABLE {}{}",
                if *if_exists { "IF EXISTS " } else { "" },
                quote_ident(name)
            ),
            Stmt::DropFunction { name, if_exists } => write!(
                f,
                "DROP FUNCTION {}{}",
                if *if_exists { "IF EXISTS " } else { "" },
                quote_ident(name)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{parse_expr, parse_query, parse_statement};

    /// Print → parse must reproduce the same AST.
    fn roundtrip_expr(sql: &str) {
        let ast = parse_expr(sql).unwrap();
        let printed = ast.to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|e| panic!("printed form {printed:?} does not re-parse: {e}"));
        assert_eq!(ast, reparsed, "round trip changed AST for {printed:?}");
    }

    fn roundtrip_query(sql: &str) {
        let ast = parse_query(sql).unwrap();
        let printed = ast.to_string();
        let reparsed = parse_query(&printed)
            .unwrap_or_else(|e| panic!("printed form {printed:?} does not re-parse: {e}"));
        assert_eq!(ast, reparsed, "round trip changed AST for {printed:?}");
    }

    #[test]
    fn exprs_round_trip() {
        for sql in [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "-x + 1",
            "NOT a AND b OR c",
            "a || b || 'x'",
            "x BETWEEN 1 AND 2 OR y",
            "x NOT IN (1, 2, 3)",
            "CASE WHEN a THEN 1 ELSE 2 END",
            "CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' END",
            "COALESCE(SUM(a.prob), 0.0)",
            "roll BETWEEN move.lo AND move.hi",
            "CAST(NULL AS int)",
            "x::float8::text",
            "ROW(true, ROW(1, 2), NULL)",
            "a IS NOT NULL",
            "(SELECT 1)",
            "EXISTS (SELECT 1 FROM t WHERE t.a = x)",
            "f(g(1), h())",
            "step * sign(reward)",
            "s LIKE 'a%'",
        ] {
            roundtrip_expr(sql);
        }
    }

    #[test]
    fn queries_round_trip() {
        for sql in [
            "SELECT 1",
            "SELECT a, b AS c FROM t WHERE a > 1 ORDER BY b DESC NULLS FIRST LIMIT 2 OFFSET 1",
            "SELECT DISTINCT x FROM t GROUP BY x HAVING COUNT(*) > 1",
            "SELECT * FROM a, b WHERE a.x = b.y",
            "SELECT t.* FROM t LEFT JOIN s ON t.a = s.a",
            "SELECT * FROM (SELECT 1) AS q(one) CROSS JOIN t",
            "SELECT * FROM run AS r, LATERAL (SELECT r.x) AS s(y)",
            "WITH RECURSIVE run(a, b) AS (SELECT 1, 2 UNION ALL SELECT a+1, b FROM run WHERE a < 3) SELECT * FROM run",
            "WITH ITERATE go(x) AS (SELECT 0 UNION ALL SELECT x+1 FROM go WHERE x < 9) SELECT x FROM go",
            "WITH RETIRE go(id, x) AS (SELECT 1, 0 UNION ALL SELECT id, x+1 FROM go WHERE x < 9) SELECT id, x FROM go",
            "VALUES (1, 'a'), (2, 'b')",
            "SELECT 1 UNION ALL SELECT 2",
            "SELECT sum(x) OVER w FROM t WINDOW w AS (ORDER BY y ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW EXCLUDE CURRENT ROW)",
            "SELECT count(*) OVER (PARTITION BY a ORDER BY b) FROM t",
        ] {
            roundtrip_query(sql);
        }
    }

    #[test]
    fn walk_q2_round_trips() {
        // The gnarliest query in the paper (Q2 of Figure 3).
        roundtrip_query(
            "SELECT move.loc \
             FROM (SELECT a.there AS loc, \
                          COALESCE(SUM(a.prob) OVER lt, 0.0) AS lo, \
                          SUM(a.prob) OVER leq AS hi \
                   FROM actions AS a \
                   WHERE location = a.here AND movement = a.action \
                   WINDOW leq AS (ORDER BY a.there), \
                          lt AS (leq ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW) \
                  ) AS move(loc, lo, hi) \
             WHERE roll BETWEEN move.lo AND move.hi",
        );
    }

    #[test]
    fn statements_round_trip() {
        for sql in [
            "CREATE TABLE t (a int, b text)",
            "INSERT INTO t (a, b) VALUES (1, 'x')",
            "INSERT INTO t SELECT * FROM s",
            "UPDATE t SET a = a + 1 WHERE b = 'x'",
            "DELETE FROM t WHERE a = 1",
            "DROP TABLE IF EXISTS t",
            "CREATE INDEX i ON t (a)",
            "CREATE INDEX i ON t USING btree (a)",
            "CREATE INDEX i ON t USING hash (a)",
            "EXPLAIN SELECT a FROM t WHERE a = 1",
            "EXPLAIN ANALYZE SELECT count(*) FROM t",
            "EXPLAIN ANALYZE INSERT INTO t (a, b) VALUES (1, 'x')",
        ] {
            let ast = parse_statement(sql).unwrap();
            let printed = ast.to_string();
            let reparsed = parse_statement(&printed)
                .unwrap_or_else(|e| panic!("{printed:?} does not re-parse: {e}"));
            assert_eq!(ast, reparsed);
        }
    }

    #[test]
    fn quoted_idents_round_trip() {
        roundtrip_query(r#"SELECT r."call?" FROM run AS r WHERE NOT r."call?""#);
        let ast = parse_statement(
            r#"CREATE FUNCTION "walk*"(n int) RETURNS int AS $$ SELECT n $$ LANGUAGE SQL"#,
        )
        .unwrap();
        let printed = ast.to_string();
        assert!(printed.contains("\"walk*\""));
        assert_eq!(parse_statement(&printed).unwrap(), ast);
    }

    #[test]
    fn precedence_parens_only_when_needed() {
        let e = parse_expr("(a + b) * c").unwrap();
        assert_eq!(e.to_string(), "(a + b) * c");
        let e = parse_expr("a + b * c").unwrap();
        assert_eq!(e.to_string(), "a + b * c");
    }
}
