//! Abstract syntax for the SQL dialect.
//!
//! Coverage is driven by what the paper's compilation scheme emits and what
//! its workloads contain: scalar subqueries, `LEFT JOIN LATERAL` chains,
//! window functions with explicit frames (including `EXCLUDE CURRENT ROW`),
//! named windows with inheritance (`lt AS (leq ROWS ...)`), recursive CTEs,
//! and the `WITH ITERATE` variant. DDL/DML cover what the workloads need to
//! set up their tables.

use plaway_common::Value;

/// Binary operators, in SQL spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Concat,
}

impl BinOp {
    pub fn sql(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Concat => "||",
        }
    }

    /// Is this a comparison returning boolean?
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value (`NULL`, numbers, strings, booleans).
    Literal(Value),
    /// Column reference `name` or `qualifier.name`.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    /// A named parameter. Never produced by the parser; the planner turns
    /// unresolvable columns into parameters when a parameter scope is given
    /// (that is how PL/pgSQL variables appear inside embedded queries).
    Param(String),
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSubquery {
        expr: Box<Expr>,
        query: Box<Query>,
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (SQL `%`/`_` wildcards).
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_: Option<Box<Expr>>,
    },
    /// Function call: scalar builtin, user-defined function, or aggregate —
    /// the planner decides from the name and context.
    Func {
        name: String,
        args: Vec<Expr>,
    },
    /// `COUNT(*)`.
    CountStar,
    /// `func(args) OVER window`.
    WindowFunc {
        name: String,
        args: Vec<Expr>,
        window: WindowRef,
    },
    /// Scalar subquery `(SELECT ...)` — the paper's embedded queries `Qi`.
    Subquery(Box<Query>),
    /// `EXISTS (SELECT ...)`.
    Exists(Box<Query>),
    /// `ROW(e1, ..., en)` record constructor.
    Row(Vec<Expr>),
    /// `CAST(expr AS type)` / `expr::type`. The type is kept as source text
    /// and resolved by the planner.
    Cast {
        expr: Box<Expr>,
        ty: String,
    },
}

impl Expr {
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    pub fn bool(v: bool) -> Expr {
        Expr::Literal(Value::Bool(v))
    }

    pub fn str(v: impl AsRef<str>) -> Expr {
        Expr::Literal(Value::text(v))
    }

    pub fn null() -> Expr {
        Expr::Literal(Value::Null)
    }

    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    pub fn func(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Func {
            name: name.into(),
            args,
        }
    }

    /// Fold a conjunction; `AND` of an empty list is `true`.
    pub fn and_all(mut exprs: Vec<Expr>) -> Expr {
        match exprs.len() {
            0 => Expr::bool(true),
            1 => exprs.pop().unwrap(),
            _ => {
                let mut it = exprs.into_iter();
                let first = it.next().unwrap();
                it.fold(first, |acc, e| Expr::binary(BinOp::And, acc, e))
            }
        }
    }
}

/// Reference to a window: inline spec or a named window from the `WINDOW`
/// clause.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowRef {
    Named(String),
    Inline(WindowSpec),
}

/// A window specification. `base` implements named-window inheritance:
/// `lt AS (leq ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW)` copies
/// partition/order from `leq` and overrides the frame (paper Figure 3).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WindowSpec {
    pub base: Option<String>,
    pub partition_by: Vec<Expr>,
    pub order_by: Vec<OrderItem>,
    pub frame: Option<FrameSpec>,
}

/// One `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
    /// `NULLS FIRST` / `NULLS LAST`; `None` means the PostgreSQL default
    /// (nulls last when ascending, nulls first when descending).
    pub nulls_first: Option<bool>,
}

impl OrderItem {
    pub fn asc(expr: Expr) -> Self {
        OrderItem {
            expr,
            desc: false,
            nulls_first: None,
        }
    }
}

/// Window frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSpec {
    pub units: FrameUnits,
    pub start: FrameBound,
    pub end: FrameBound,
    /// `EXCLUDE CURRENT ROW` (the only exclusion the paper needs).
    pub exclude_current_row: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameUnits {
    Rows,
    /// `RANGE` with peer-row semantics (the SQL default frame).
    Range,
}

#[derive(Debug, Clone, PartialEq)]
pub enum FrameBound {
    UnboundedPreceding,
    Preceding(u64),
    CurrentRow,
    Following(u64),
    UnboundedFollowing,
}

/// A full query: optional WITH prefix, body, final ordering/limit.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub with: Option<With>,
    pub body: SetExpr,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<Expr>,
    pub offset: Option<Expr>,
}

impl Query {
    /// Wrap a bare SELECT into a Query with no WITH / ORDER BY / LIMIT.
    pub fn simple(select: Select) -> Query {
        Query {
            with: None,
            body: SetExpr::Select(Box::new(select)),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }
}

/// `WITH [RECURSIVE | ITERATE | RETIRE] name (cols) AS (query), ...`.
///
/// `ITERATE` is the engine extension from Passing et al. (EDBT 2017) that §3
/// of the paper implements: like RECURSIVE but only the rows of the *last*
/// iteration survive, so tail recursion needs no working-table trace.
///
/// `RETIRE` is the batch-invocation variant: like ITERATE it keeps no
/// trace, but a working row that fails the recursive arm's filter is
/// *retired* into the CTE's result instead of being discarded. One fixpoint
/// can then drive many independent activations, each finishing on its own
/// iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct With {
    pub recursive: bool,
    pub iterate: bool,
    pub retire: bool,
    pub ctes: Vec<Cte>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    pub name: String,
    pub columns: Vec<String>,
    pub query: Query,
}

/// Query body: plain select, set operation, or VALUES.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    Select(Box<Select>),
    SetOp {
        op: SetOp,
        all: bool,
        left: Box<SetExpr>,
        right: Box<SetExpr>,
    },
    Values(Vec<Vec<Expr>>),
    /// Parenthesized sub-query (keeps ORDER BY / LIMIT of the inner query).
    Query(Box<Query>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    Union,
    Except,
    Intersect,
}

/// A SELECT block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    /// `WINDOW name AS (spec), ...`.
    pub windows: Vec<(String, WindowSpec)>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `expr [AS alias]`.
    Expr { expr: Expr, alias: Option<String> },
    /// `*`.
    Wildcard,
    /// `alias.*`.
    QualifiedWildcard(String),
}

/// Table alias with optional column aliases: `AS t(a, b, c)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TableAlias {
    pub name: String,
    pub columns: Vec<String>,
}

impl TableAlias {
    pub fn named(name: impl Into<String>) -> Self {
        TableAlias {
            name: name.into(),
            columns: Vec::new(),
        }
    }
}

/// FROM-clause items.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table or CTE reference.
    Table {
        name: String,
        alias: Option<TableAlias>,
    },
    /// Derived table `(SELECT ...) AS a(cols)`, possibly `LATERAL`.
    Derived {
        lateral: bool,
        query: Box<Query>,
        alias: TableAlias,
    },
    /// Join; `lateral` marks `JOIN LATERAL` (right side sees left columns).
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        lateral: bool,
        on: Option<Expr>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Cross,
}

/// Index access method named in `CREATE INDEX ... USING <method>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMethod {
    /// Ordered index: point and range predicates.
    Btree,
    /// Hash index: equality predicates only.
    Hash,
}

impl IndexMethod {
    pub fn sql(&self) -> &'static str {
        match self {
            IndexMethod::Btree => "btree",
            IndexMethod::Hash => "hash",
        }
    }
}

/// Top-level statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Query(Query),
    /// `EXPLAIN [ANALYZE] <statement>`: render (and under ANALYZE, execute
    /// and instrument) the inner statement's plan.
    Explain {
        analyze: bool,
        stmt: Box<Stmt>,
    },
    CreateTable {
        name: String,
        /// (column name, type name as written).
        columns: Vec<(String, String)>,
        if_not_exists: bool,
    },
    /// `CREATE INDEX name ON table [USING btree|hash] (column)`. Without a
    /// USING clause the engine picks its default method (btree).
    CreateIndex {
        name: String,
        table: String,
        column: String,
        using: Option<IndexMethod>,
    },
    CreateFunction(CreateFunction),
    Insert {
        table: String,
        columns: Vec<String>,
        source: InsertSource,
    },
    Update {
        table: String,
        sets: Vec<(String, Expr)>,
        where_: Option<Expr>,
    },
    Delete {
        table: String,
        where_: Option<Expr>,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    DropFunction {
        name: String,
        if_exists: bool,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Query(Box<Query>),
}

/// `CREATE FUNCTION`: the body stays raw text (as in PostgreSQL's pg_proc) —
/// SQL bodies are parsed by the engine at registration, PL/pgSQL bodies by
/// the `plaway-plsql` front end.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateFunction {
    pub or_replace: bool,
    pub name: String,
    /// (param name, type name as written).
    pub params: Vec<(String, String)>,
    pub returns: String,
    pub language: Language,
    pub body: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Language {
    Sql,
    PlPgSql,
}

// --------------------------------------------------------------------------
// Visitors / helpers used by the planner and the compiler.

impl Expr {
    /// Visit every sub-expression (pre-order), including those inside
    /// subqueries' SELECT items is NOT done here — subqueries are opaque to
    /// this walker (callers decide whether to descend into [`Query`]).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column { .. } | Expr::Param(_) | Expr::CountStar => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                expr.walk(f)
            }
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk(f),
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::Case {
                operand,
                branches,
                else_,
            } => {
                if let Some(o) = operand {
                    o.walk(f);
                }
                for (w, t) in branches {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_ {
                    e.walk(f);
                }
            }
            Expr::Func { args, .. } | Expr::WindowFunc { args, .. } | Expr::Row(args) => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Subquery(_) | Expr::Exists(_) => {}
        }
    }

    /// Apply `f` to every sub-expression bottom-up, in place: children
    /// first, then the node itself. Like [`Expr::walk`], this does not
    /// descend into subqueries: `f` sees each `Subquery` / `Exists` /
    /// `InSubquery` node and rewrites its query itself if it wants to.
    pub fn rewrite(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::Param(_)
            | Expr::CountStar
            | Expr::Subquery(_)
            | Expr::Exists(_) => {}
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::InSubquery { expr, .. } => expr.rewrite(f),
            Expr::Binary { left, right, .. } => {
                left.rewrite(f);
                right.rewrite(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.rewrite(f);
                low.rewrite(f);
                high.rewrite(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.rewrite(f);
                for e in list {
                    e.rewrite(f);
                }
            }
            Expr::Like { expr, pattern, .. } => {
                expr.rewrite(f);
                pattern.rewrite(f);
            }
            Expr::Case {
                operand,
                branches,
                else_,
            } => {
                if let Some(o) = operand {
                    o.rewrite(f);
                }
                for (w, t) in branches {
                    w.rewrite(f);
                    t.rewrite(f);
                }
                if let Some(e) = else_ {
                    e.rewrite(f);
                }
            }
            Expr::Func { args, .. } | Expr::WindowFunc { args, .. } | Expr::Row(args) => {
                for a in args {
                    a.rewrite(f);
                }
            }
        }
        f(self)
    }

    /// Does the expression contain a subquery or `EXISTS`/`IN (SELECT)`?
    /// Such expressions cannot take the PL/pgSQL "simple expression" fast
    /// path.
    pub fn has_subquery(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(
                e,
                Expr::Subquery(_) | Expr::Exists(_) | Expr::InSubquery { .. }
            ) {
                found = true;
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_all_folds() {
        assert_eq!(Expr::and_all(vec![]), Expr::bool(true));
        assert_eq!(Expr::and_all(vec![Expr::col("a")]), Expr::col("a"));
        let e = Expr::and_all(vec![Expr::col("a"), Expr::col("b"), Expr::col("c")]);
        // ((a AND b) AND c)
        match e {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                assert_eq!(*right, Expr::col("c"));
                assert!(matches!(*left, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn walk_visits_all_nodes() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::func("abs", vec![Expr::col("x")]),
            Expr::int(1),
        );
        let mut n = 0;
        e.walk(&mut |_| n += 1);
        assert_eq!(n, 4); // binary, func, col, literal
    }

    #[test]
    fn has_subquery_detects_nested() {
        let q = Query::simple(Select::default());
        let e = Expr::binary(
            BinOp::Add,
            Expr::int(1),
            Expr::Subquery(Box::new(q.clone())),
        );
        assert!(e.has_subquery());
        assert!(!Expr::int(1).has_subquery());
        let in_sub = Expr::InSubquery {
            expr: Box::new(Expr::col("x")),
            query: Box::new(q),
            negated: false,
        };
        assert!(in_sub.has_subquery());
    }

    #[test]
    fn rewrite_replaces_columns() {
        let mut e = Expr::binary(BinOp::Add, Expr::col("x"), Expr::col("y"));
        e.rewrite(&mut |e| {
            if matches!(e, Expr::Column { name, .. } if name == "x") {
                *e = Expr::int(9);
            }
        });
        assert_eq!(e, Expr::binary(BinOp::Add, Expr::int(9), Expr::col("y")));
    }
}
