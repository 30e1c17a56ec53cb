//! Recursive-descent parser for the SQL dialect.
//!
//! Expression parsing follows PostgreSQL's operator precedence:
//!
//! ```text
//!   OR < AND < NOT < IS < comparison < BETWEEN/IN/LIKE < || < +,- < *,/,% < unary < ::
//! ```
//!
//! The parser is shared with the PL/pgSQL front end, which calls back into
//! [`Parser::parse_expr`] for expressions and into [`Parser::parse_query`]
//! for embedded `(SELECT ...)` scalar subqueries and `FOR rec IN <query>`
//! loop sources.

use plaway_common::{Error, Result, Value};

use crate::ast::*;
use crate::lexer::Lexer;
use crate::token::{Sym, Token, TokenKind};

/// Identifiers that terminate an expression / cannot be a bare column alias.
const RESERVED: &[&str] = &[
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
    "on",
    "join",
    "left",
    "right",
    "full",
    "inner",
    "outer",
    "cross",
    "lateral",
    "as",
    "window",
    "values",
    "when",
    "then",
    "else",
    "end",
    "and",
    "or",
    "not",
    "asc",
    "desc",
    "nulls",
    "using",
    "returning",
    "with",
    "recursive",
    "iterate",
    "retire",
    "set",
    "into",
    "loop",
    "if",
    "elsif",
    "while",
    "for",
    "exit",
    "continue",
    "return",
    "begin",
    "declare",
    "case",
];

pub struct Parser {
    toks: Vec<Token>,
    at: usize,
}

impl Parser {
    pub fn new(text: &str) -> Result<Self> {
        Ok(Parser {
            toks: Lexer::new(text).tokenize()?,
            at: 0,
        })
    }

    // ------------------------------------------------------------ plumbing

    pub fn peek(&self) -> &TokenKind {
        &self.toks[self.at].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        self.toks
            .get(self.at + n)
            .map(|t| &t.kind)
            .unwrap_or(&TokenKind::Eof)
    }

    pub fn pos(&self) -> plaway_common::error::Pos {
        self.toks[self.at].pos
    }

    /// Index into the token stream — lets callers snapshot/restore.
    pub fn mark(&self) -> usize {
        self.at
    }

    pub fn reset(&mut self, mark: usize) {
        self.at = mark;
    }

    pub fn advance(&mut self) -> TokenKind {
        let t = self.toks[self.at].kind.clone();
        if self.at + 1 < self.toks.len() {
            self.at += 1;
        }
        t
    }

    pub fn err_here(&self, msg: impl Into<String>) -> Error {
        let pos = self.pos();
        Error::parse(
            format!("{} (found {})", msg.into(), self.peek()),
            pos.line,
            pos.col,
        )
    }

    /// Consume the keyword if present.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    pub fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected {}", kw.to_ascii_uppercase())))
        }
    }

    pub fn eat_sym(&mut self, sym: Sym) -> bool {
        if self.peek().is_sym(sym) {
            self.advance();
            true
        } else {
            false
        }
    }

    pub fn expect_sym(&mut self, sym: Sym) -> Result<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected '{sym}'")))
        }
    }

    pub fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    /// Any identifier (bare or quoted); bare ones come back lowercased.
    pub fn expect_ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            TokenKind::QuotedIdent(s) => {
                self.advance();
                Ok(s)
            }
            _ => Err(self.err_here("expected identifier")),
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err_here("unexpected trailing input"))
        }
    }

    // ------------------------------------------------------- entry points

    pub fn parse_statement_eof(&mut self) -> Result<Stmt> {
        let stmt = self.parse_statement()?;
        self.eat_sym(Sym::Semi);
        self.expect_eof()?;
        Ok(stmt)
    }

    pub fn parse_statements_eof(&mut self) -> Result<Vec<Stmt>> {
        let mut out = Vec::new();
        loop {
            while self.eat_sym(Sym::Semi) {}
            if self.at_eof() {
                return Ok(out);
            }
            out.push(self.parse_statement()?);
            if !self.peek().is_sym(Sym::Semi) && !self.at_eof() {
                return Err(self.err_here("expected ';' between statements"));
            }
        }
    }

    pub fn parse_query_eof(&mut self) -> Result<Query> {
        let q = self.parse_query()?;
        self.eat_sym(Sym::Semi);
        self.expect_eof()?;
        Ok(q)
    }

    pub fn parse_expr_eof(&mut self) -> Result<Expr> {
        let e = self.parse_expr()?;
        self.expect_eof()?;
        Ok(e)
    }

    // --------------------------------------------------------- statements

    pub fn parse_statement(&mut self) -> Result<Stmt> {
        match self.peek() {
            k if k.is_kw("select") || k.is_kw("with") || k.is_kw("values") => {
                Ok(Stmt::Query(self.parse_query()?))
            }
            TokenKind::Sym(Sym::LParen) => Ok(Stmt::Query(self.parse_query()?)),
            k if k.is_kw("explain") => self.parse_explain(),
            k if k.is_kw("create") => self.parse_create(),
            k if k.is_kw("insert") => self.parse_insert(),
            k if k.is_kw("update") => self.parse_update(),
            k if k.is_kw("delete") => self.parse_delete(),
            k if k.is_kw("drop") => self.parse_drop(),
            _ => Err(self.err_here("expected a statement")),
        }
    }

    fn parse_explain(&mut self) -> Result<Stmt> {
        self.expect_kw("explain")?;
        let analyze = self.eat_kw("analyze");
        if self.peek().is_kw("explain") {
            return Err(self.err_here("EXPLAIN cannot be nested"));
        }
        let stmt = self.parse_statement()?;
        Ok(Stmt::Explain {
            analyze,
            stmt: Box::new(stmt),
        })
    }

    fn parse_create(&mut self) -> Result<Stmt> {
        self.expect_kw("create")?;
        let or_replace = if self.eat_kw("or") {
            self.expect_kw("replace")?;
            true
        } else {
            false
        };
        if self.eat_kw("table") {
            if or_replace {
                return Err(self.err_here("OR REPLACE is not valid for CREATE TABLE"));
            }
            return self.parse_create_table();
        }
        if self.eat_kw("index") {
            if or_replace {
                return Err(self.err_here("OR REPLACE is not valid for CREATE INDEX"));
            }
            return self.parse_create_index();
        }
        if self.eat_kw("function") {
            return self.parse_create_function(or_replace);
        }
        Err(self.err_here("expected TABLE, INDEX or FUNCTION after CREATE"))
    }

    fn parse_create_table(&mut self) -> Result<Stmt> {
        let if_not_exists = if self.eat_kw("if") {
            self.expect_kw("not")?;
            self.expect_kw("exists")?;
            true
        } else {
            false
        };
        let name = self.expect_ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.expect_ident()?;
            let ty = self.expect_ident()?;
            columns.push((col, ty));
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok(Stmt::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    fn parse_create_index(&mut self) -> Result<Stmt> {
        let name = self.expect_ident()?;
        self.expect_kw("on")?;
        let table = self.expect_ident()?;
        let using = if self.eat_kw("using") {
            let method = self.expect_ident()?;
            Some(match method.to_ascii_lowercase().as_str() {
                "btree" => crate::ast::IndexMethod::Btree,
                "hash" => crate::ast::IndexMethod::Hash,
                other => {
                    return Err(self.err_here(format!(
                        "unknown index method {other:?} (expected btree or hash)"
                    )))
                }
            })
        } else {
            None
        };
        self.expect_sym(Sym::LParen)?;
        let column = self.expect_ident()?;
        self.expect_sym(Sym::RParen)?;
        Ok(Stmt::CreateIndex {
            name,
            table,
            column,
            using,
        })
    }

    fn parse_create_function(&mut self, or_replace: bool) -> Result<Stmt> {
        let name = self.expect_ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut params = Vec::new();
        if !self.peek().is_sym(Sym::RParen) {
            loop {
                let pname = self.expect_ident()?;
                let ptype = self.expect_ident()?;
                params.push((pname, ptype));
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        self.expect_sym(Sym::RParen)?;
        self.expect_kw("returns")?;
        let returns = self.expect_ident()?;

        // AS $$..$$ LANGUAGE x — in either order.
        let mut body: Option<String> = None;
        let mut language: Option<Language> = None;
        for _ in 0..2 {
            if self.eat_kw("as") {
                match self.peek().clone() {
                    TokenKind::DollarStr(s) => {
                        self.advance();
                        body = Some(s);
                    }
                    TokenKind::Str(s) => {
                        self.advance();
                        body = Some(s);
                    }
                    _ => return Err(self.err_here("expected function body after AS")),
                }
            } else if self.eat_kw("language") {
                let lang = self.expect_ident()?;
                language = Some(match lang.as_str() {
                    "sql" => Language::Sql,
                    "plpgsql" => Language::PlPgSql,
                    other => return Err(self.err_here(format!("unsupported language {other:?}"))),
                });
            }
        }
        let body = body.ok_or_else(|| self.err_here("missing AS body in CREATE FUNCTION"))?;
        let language =
            language.ok_or_else(|| self.err_here("missing LANGUAGE in CREATE FUNCTION"))?;
        Ok(Stmt::CreateFunction(CreateFunction {
            or_replace,
            name,
            params,
            returns,
            language,
            body,
        }))
    }

    fn parse_insert(&mut self) -> Result<Stmt> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.expect_ident()?;
        let mut columns = Vec::new();
        if self.peek().is_sym(Sym::LParen) {
            // Could be a column list or a parenthesized query; column list
            // is `(ident, ident, ...)` followed by VALUES/SELECT.
            let mark = self.mark();
            self.advance();
            let mut ok = true;
            let mut cols = Vec::new();
            loop {
                match self.peek().clone() {
                    TokenKind::Ident(s) | TokenKind::QuotedIdent(s) => {
                        self.advance();
                        cols.push(s);
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
                if self.eat_sym(Sym::Comma) {
                    continue;
                }
                ok &= self.eat_sym(Sym::RParen);
                break;
            }
            if ok {
                columns = cols;
            } else {
                self.reset(mark);
            }
        }
        let source = if self.peek().is_kw("values") {
            self.advance();
            let mut rows = Vec::new();
            loop {
                self.expect_sym(Sym::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat_sym(Sym::Comma) {
                        break;
                    }
                }
                self.expect_sym(Sym::RParen)?;
                rows.push(row);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else {
            InsertSource::Query(Box::new(self.parse_query()?))
        };
        Ok(Stmt::Insert {
            table,
            columns,
            source,
        })
    }

    fn parse_update(&mut self) -> Result<Stmt> {
        self.expect_kw("update")?;
        let table = self.expect_ident()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.expect_ident()?;
            self.expect_sym(Sym::Eq)?;
            sets.push((col, self.parse_expr()?));
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let where_ = if self.eat_kw("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Stmt::Update {
            table,
            sets,
            where_,
        })
    }

    fn parse_delete(&mut self) -> Result<Stmt> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.expect_ident()?;
        let where_ = if self.eat_kw("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Stmt::Delete { table, where_ })
    }

    fn parse_drop(&mut self) -> Result<Stmt> {
        self.expect_kw("drop")?;
        let is_table = if self.eat_kw("table") {
            true
        } else if self.eat_kw("function") {
            false
        } else {
            return Err(self.err_here("expected TABLE or FUNCTION after DROP"));
        };
        let if_exists = if self.eat_kw("if") {
            self.expect_kw("exists")?;
            true
        } else {
            false
        };
        let name = self.expect_ident()?;
        Ok(if is_table {
            Stmt::DropTable { name, if_exists }
        } else {
            Stmt::DropFunction { name, if_exists }
        })
    }

    // -------------------------------------------------------------- query

    pub fn parse_query(&mut self) -> Result<Query> {
        let with = if self.peek().is_kw("with") {
            Some(self.parse_with()?)
        } else {
            None
        };
        let body = self.parse_set_expr()?;
        let order_by = if self.eat_kw("order") {
            self.expect_kw("by")?;
            self.parse_order_items()?
        } else {
            Vec::new()
        };
        let limit = if self.eat_kw("limit") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let offset = if self.eat_kw("offset") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Query {
            with,
            body,
            order_by,
            limit,
            offset,
        })
    }

    fn parse_with(&mut self) -> Result<With> {
        self.expect_kw("with")?;
        let recursive = self.eat_kw("recursive");
        let iterate = !recursive && self.eat_kw("iterate");
        let retire = !recursive && !iterate && self.eat_kw("retire");
        let mut ctes = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let mut columns = Vec::new();
            if self.eat_sym(Sym::LParen) {
                loop {
                    columns.push(self.expect_ident()?);
                    if !self.eat_sym(Sym::Comma) {
                        break;
                    }
                }
                self.expect_sym(Sym::RParen)?;
            }
            self.expect_kw("as")?;
            self.expect_sym(Sym::LParen)?;
            let query = self.parse_query()?;
            self.expect_sym(Sym::RParen)?;
            ctes.push(Cte {
                name,
                columns,
                query,
            });
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        Ok(With {
            recursive,
            iterate,
            retire,
            ctes,
        })
    }

    fn parse_set_expr(&mut self) -> Result<SetExpr> {
        let mut left = self.parse_set_term()?;
        loop {
            let op = if self.peek().is_kw("union") {
                SetOp::Union
            } else if self.peek().is_kw("except") {
                SetOp::Except
            } else if self.peek().is_kw("intersect") {
                SetOp::Intersect
            } else {
                return Ok(left);
            };
            self.advance();
            let all = self.eat_kw("all");
            if !all {
                self.eat_kw("distinct");
            }
            let right = self.parse_set_term()?;
            left = SetExpr::SetOp {
                op,
                all,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn parse_set_term(&mut self) -> Result<SetExpr> {
        if self.peek().is_kw("select") {
            Ok(SetExpr::Select(Box::new(self.parse_select()?)))
        } else if self.peek().is_kw("values") {
            self.advance();
            let mut rows = Vec::new();
            loop {
                self.expect_sym(Sym::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat_sym(Sym::Comma) {
                        break;
                    }
                }
                self.expect_sym(Sym::RParen)?;
                rows.push(row);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            Ok(SetExpr::Values(rows))
        } else if self.eat_sym(Sym::LParen) {
            let q = self.parse_query()?;
            self.expect_sym(Sym::RParen)?;
            Ok(SetExpr::Query(Box::new(q)))
        } else {
            Err(self.err_here("expected SELECT, VALUES or subquery"))
        }
    }

    fn parse_select(&mut self) -> Result<Select> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        if !distinct {
            self.eat_kw("all");
        }
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let from = if self.eat_kw("from") {
            let mut refs = Vec::new();
            loop {
                refs.push(self.parse_table_ref()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            refs
        } else {
            Vec::new()
        };
        let where_ = if self.eat_kw("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let group_by = if self.eat_kw("group") {
            self.expect_kw("by")?;
            let mut g = vec![self.parse_expr()?];
            while self.eat_sym(Sym::Comma) {
                g.push(self.parse_expr()?);
            }
            g
        } else {
            Vec::new()
        };
        let having = if self.eat_kw("having") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut windows = Vec::new();
        if self.eat_kw("window") {
            loop {
                let name = self.expect_ident()?;
                self.expect_kw("as")?;
                self.expect_sym(Sym::LParen)?;
                let spec = self.parse_window_spec()?;
                self.expect_sym(Sym::RParen)?;
                windows.push((name, spec));
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        Ok(Select {
            distinct,
            items,
            from,
            where_,
            group_by,
            having,
            windows,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.peek().is_sym(Sym::Star) {
            self.advance();
            return Ok(SelectItem::Wildcard);
        }
        // alias.*
        if let TokenKind::Ident(name) | TokenKind::QuotedIdent(name) = self.peek().clone() {
            if self.peek_at(1).is_sym(Sym::Dot) && self.peek_at(2).is_sym(Sym::Star) {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_opt_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_opt_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("as") {
            return Ok(Some(self.expect_ident()?));
        }
        match self.peek().clone() {
            TokenKind::Ident(s) if !RESERVED.contains(&s.as_str()) => {
                self.advance();
                Ok(Some(s))
            }
            TokenKind::QuotedIdent(s) => {
                self.advance();
                Ok(Some(s))
            }
            _ => Ok(None),
        }
    }

    // ---------------------------------------------------------- FROM items

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.parse_table_primary()?;
        loop {
            let (kind, needs_on) = if self.eat_kw("cross") {
                self.expect_kw("join")?;
                (JoinKind::Cross, false)
            } else if self.eat_kw("inner") {
                self.expect_kw("join")?;
                (JoinKind::Inner, true)
            } else if self.peek().is_kw("join") {
                self.advance();
                (JoinKind::Inner, true)
            } else if self.peek().is_kw("left") {
                self.advance();
                self.eat_kw("outer");
                self.expect_kw("join")?;
                (JoinKind::Left, true)
            } else {
                return Ok(left);
            };
            let lateral = self.eat_kw("lateral");
            // The Join node carries the LATERAL marker; the inner Derived
            // keeps false so printing does not duplicate the keyword.
            let right = self.parse_table_primary_inner(false, lateral)?;
            let on = if needs_on {
                self.expect_kw("on")?;
                Some(self.parse_expr()?)
            } else {
                None
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                lateral,
                on,
            };
        }
    }

    fn parse_table_primary(&mut self) -> Result<TableRef> {
        let lateral = self.eat_kw("lateral");
        self.parse_table_primary_inner(lateral, lateral)
    }

    /// `mark_lateral`: record LATERAL on the Derived node itself;
    /// `scope_lateral` only affects planning context and is currently the
    /// same thing for comma-list items.
    fn parse_table_primary_inner(
        &mut self,
        mark_lateral: bool,
        _scope_lateral: bool,
    ) -> Result<TableRef> {
        let lateral = mark_lateral;
        if self.eat_sym(Sym::LParen) {
            // Subquery or parenthesized join.
            if self.peek().is_kw("select")
                || self.peek().is_kw("with")
                || self.peek().is_kw("values")
            {
                let query = self.parse_query()?;
                self.expect_sym(Sym::RParen)?;
                let alias = self
                    .parse_table_alias()?
                    .unwrap_or_else(|| TableAlias::named("unnamed_subquery"));
                Ok(TableRef::Derived {
                    lateral,
                    query: Box::new(query),
                    alias,
                })
            } else {
                let inner = self.parse_table_ref()?;
                self.expect_sym(Sym::RParen)?;
                Ok(inner)
            }
        } else {
            let name = self.expect_ident()?;
            let alias = self.parse_table_alias()?;
            Ok(TableRef::Table { name, alias })
        }
    }

    fn parse_table_alias(&mut self) -> Result<Option<TableAlias>> {
        let name = if self.eat_kw("as") {
            self.expect_ident()?
        } else {
            match self.peek().clone() {
                TokenKind::Ident(s) if !RESERVED.contains(&s.as_str()) => {
                    self.advance();
                    s
                }
                TokenKind::QuotedIdent(s) => {
                    self.advance();
                    s
                }
                _ => return Ok(None),
            }
        };
        let mut columns = Vec::new();
        if self.eat_sym(Sym::LParen) {
            loop {
                columns.push(self.expect_ident()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
        }
        Ok(Some(TableAlias { name, columns }))
    }

    // ------------------------------------------------------------- window

    fn parse_order_items(&mut self) -> Result<Vec<OrderItem>> {
        let mut items = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let desc = if self.eat_kw("desc") {
                true
            } else {
                self.eat_kw("asc");
                false
            };
            let nulls_first = if self.eat_kw("nulls") {
                if self.eat_kw("first") {
                    Some(true)
                } else {
                    self.expect_kw("last")?;
                    Some(false)
                }
            } else {
                None
            };
            items.push(OrderItem {
                expr,
                desc,
                nulls_first,
            });
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn parse_window_spec(&mut self) -> Result<WindowSpec> {
        let mut spec = WindowSpec::default();
        // Optional base window name (inheritance): an identifier that is not
        // PARTITION / ORDER / ROWS / RANGE.
        if let TokenKind::Ident(s) = self.peek().clone() {
            if !["partition", "order", "rows", "range"].contains(&s.as_str()) {
                self.advance();
                spec.base = Some(s);
            }
        }
        if self.eat_kw("partition") {
            self.expect_kw("by")?;
            let mut list = vec![self.parse_expr()?];
            while self.eat_sym(Sym::Comma) {
                list.push(self.parse_expr()?);
            }
            spec.partition_by = list;
        }
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            spec.order_by = self.parse_order_items()?;
        }
        let units = if self.eat_kw("rows") {
            Some(FrameUnits::Rows)
        } else if self.eat_kw("range") {
            Some(FrameUnits::Range)
        } else {
            None
        };
        if let Some(units) = units {
            let (start, end) = if self.eat_kw("between") {
                let start = self.parse_frame_bound()?;
                self.expect_kw("and")?;
                let end = self.parse_frame_bound()?;
                (start, end)
            } else {
                (self.parse_frame_bound()?, FrameBound::CurrentRow)
            };
            let mut exclude_current_row = false;
            if self.eat_kw("exclude") {
                if self.eat_kw("current") {
                    self.expect_kw("row")?;
                    exclude_current_row = true;
                } else {
                    self.expect_kw("no")?;
                    self.expect_kw("others")?;
                }
            }
            spec.frame = Some(FrameSpec {
                units,
                start,
                end,
                exclude_current_row,
            });
        } else if self.eat_kw("exclude") {
            // EXCLUDE without explicit frame applies to the default frame.
            self.expect_kw("current")?;
            self.expect_kw("row")?;
            spec.frame = Some(FrameSpec {
                units: FrameUnits::Range,
                start: FrameBound::UnboundedPreceding,
                end: FrameBound::CurrentRow,
                exclude_current_row: true,
            });
        }
        Ok(spec)
    }

    fn parse_frame_bound(&mut self) -> Result<FrameBound> {
        if self.eat_kw("unbounded") {
            if self.eat_kw("preceding") {
                Ok(FrameBound::UnboundedPreceding)
            } else {
                self.expect_kw("following")?;
                Ok(FrameBound::UnboundedFollowing)
            }
        } else if self.eat_kw("current") {
            self.expect_kw("row")?;
            Ok(FrameBound::CurrentRow)
        } else {
            let n = match self.peek().clone() {
                TokenKind::Number(s) => {
                    self.advance();
                    s.parse::<u64>()
                        .map_err(|_| self.err_here("frame offset must be a non-negative integer"))?
                }
                _ => return Err(self.err_here("expected frame bound")),
            };
            if self.eat_kw("preceding") {
                Ok(FrameBound::Preceding(n))
            } else {
                self.expect_kw("following")?;
                Ok(FrameBound::Following(n))
            }
        }
    }

    // -------------------------------------------------------- expressions

    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw("or") {
            let right = self.parse_and()?;
            left = Expr::binary(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_kw("and") {
            let right = self.parse_not()?;
            left = Expr::binary(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            let inner = self.parse_not()?;
            Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(inner),
            })
        } else {
            self.parse_is()
        }
    }

    fn parse_is(&mut self) -> Result<Expr> {
        let mut expr = self.parse_comparison()?;
        while self.peek().is_kw("is") {
            self.advance();
            let negated = self.eat_kw("not");
            if self.eat_kw("null") {
                expr = Expr::IsNull {
                    expr: Box::new(expr),
                    negated,
                };
            } else if self.eat_kw("true") {
                let cmp = Expr::binary(BinOp::Eq, expr, Expr::bool(true));
                // IS TRUE is never NULL: wrap in COALESCE(.., false).
                let test = Expr::func("coalesce", vec![cmp, Expr::bool(false)]);
                expr = if negated {
                    Expr::Unary {
                        op: UnOp::Not,
                        expr: Box::new(test),
                    }
                } else {
                    test
                };
            } else if self.eat_kw("false") {
                let cmp = Expr::binary(BinOp::Eq, expr, Expr::bool(false));
                let test = Expr::func("coalesce", vec![cmp, Expr::bool(false)]);
                expr = if negated {
                    Expr::Unary {
                        op: UnOp::Not,
                        expr: Box::new(test),
                    }
                } else {
                    test
                };
            } else {
                return Err(self.err_here("expected NULL, TRUE or FALSE after IS"));
            }
        }
        Ok(expr)
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_membership()?;
        let op = match self.peek() {
            TokenKind::Sym(Sym::Eq) => BinOp::Eq,
            TokenKind::Sym(Sym::NotEq) => BinOp::NotEq,
            TokenKind::Sym(Sym::Lt) => BinOp::Lt,
            TokenKind::Sym(Sym::LtEq) => BinOp::LtEq,
            TokenKind::Sym(Sym::Gt) => BinOp::Gt,
            TokenKind::Sym(Sym::GtEq) => BinOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.parse_membership()?;
        Ok(Expr::binary(op, left, right))
    }

    /// BETWEEN / IN / LIKE level.
    fn parse_membership(&mut self) -> Result<Expr> {
        let expr = self.parse_concat()?;
        let negated = if self.peek().is_kw("not")
            && (self.peek_at(1).is_kw("between")
                || self.peek_at(1).is_kw("in")
                || self.peek_at(1).is_kw("like"))
        {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw("between") {
            let low = self.parse_concat()?;
            self.expect_kw("and")?;
            let high = self.parse_concat()?;
            return Ok(Expr::Between {
                expr: Box::new(expr),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("in") {
            self.expect_sym(Sym::LParen)?;
            if self.peek().is_kw("select") || self.peek().is_kw("with") {
                let q = self.parse_query()?;
                self.expect_sym(Sym::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(expr),
                    query: Box::new(q),
                    negated,
                });
            }
            let mut list = vec![self.parse_expr()?];
            while self.eat_sym(Sym::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(expr),
                list,
                negated,
            });
        }
        if self.eat_kw("like") {
            let pattern = self.parse_concat()?;
            return Ok(Expr::Like {
                expr: Box::new(expr),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(self.err_here("expected BETWEEN, IN or LIKE after NOT"));
        }
        Ok(expr)
    }

    fn parse_concat(&mut self) -> Result<Expr> {
        let mut left = self.parse_additive()?;
        while self.eat_sym(Sym::Concat) {
            let right = self.parse_additive()?;
            left = Expr::binary(BinOp::Concat, left, right);
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Sym(Sym::Plus) => BinOp::Add,
                TokenKind::Sym(Sym::Minus) => BinOp::Sub,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::binary(op, left, right);
        }
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Sym(Sym::Star) => BinOp::Mul,
                TokenKind::Sym(Sym::Slash) => BinOp::Div,
                TokenKind::Sym(Sym::Percent) => BinOp::Mod,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::binary(op, left, right);
        }
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_sym(Sym::Minus) {
            let inner = self.parse_unary()?;
            // Fold negation of numeric literals immediately so `-1` is a
            // literal, which matters for constant detection downstream.
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::int(-i),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                other => Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat_sym(Sym::Plus) {
            return self.parse_unary();
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        let mut expr = self.parse_primary()?;
        while self.eat_sym(Sym::DoubleColon) {
            let ty = self.expect_ident()?;
            expr = Expr::Cast {
                expr: Box::new(expr),
                ty,
            };
        }
        Ok(expr)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Number(s) => {
                self.advance();
                self.number_literal(&s)
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::str(s))
            }
            TokenKind::Sym(Sym::LParen) => {
                self.advance();
                // Scalar subquery?
                if self.peek().is_kw("select") || self.peek().is_kw("with") {
                    let q = self.parse_query()?;
                    self.expect_sym(Sym::RParen)?;
                    return Ok(Expr::Subquery(Box::new(q)));
                }
                let first = self.parse_expr()?;
                if self.eat_sym(Sym::Comma) {
                    // (a, b, ...) row constructor.
                    let mut items = vec![first];
                    loop {
                        items.push(self.parse_expr()?);
                        if !self.eat_sym(Sym::Comma) {
                            break;
                        }
                    }
                    self.expect_sym(Sym::RParen)?;
                    Ok(Expr::Row(items))
                } else {
                    self.expect_sym(Sym::RParen)?;
                    Ok(first)
                }
            }
            TokenKind::Ident(_) | TokenKind::QuotedIdent(_) => self.parse_ident_expr(),
            other => Err(self.err_here(format!("unexpected token {other} in expression"))),
        }
    }

    fn number_literal(&self, s: &str) -> Result<Expr> {
        if s.contains(['.', 'e', 'E']) {
            s.parse::<f64>()
                .map(|f| Expr::Literal(Value::Float(f)))
                .map_err(|_| self.err_here(format!("bad float literal {s}")))
        } else {
            s.parse::<i64>()
                .map(Expr::int)
                .map_err(|_| self.err_here(format!("integer literal {s} out of range")))
        }
    }

    fn parse_ident_expr(&mut self) -> Result<Expr> {
        // Keyword-led expression forms first (only for unquoted idents).
        if let TokenKind::Ident(word) = self.peek().clone() {
            // Truly reserved words cannot start an operand. This keeps
            // `SELECT FROM t` a syntax error and lets the PL/pgSQL grammar's
            // terminators (THEN, LOOP, ...) end embedded expressions cleanly.
            const PRIMARY_RESERVED: &[&str] = &[
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
                "on",
                "join",
                "as",
                "when",
                "then",
                "else",
                "end",
                "and",
                "or",
                "window",
                "values",
                "with",
                "loop",
                "if",
                "elsif",
                "while",
                "for",
                "exit",
                "continue",
                "return",
                "begin",
                "declare",
                "into",
                "set",
                "using",
                "select",
            ];
            if PRIMARY_RESERVED.contains(&word.as_str()) {
                return Err(self.err_here(format!(
                    "unexpected keyword {} in expression",
                    word.to_ascii_uppercase()
                )));
            }
            match word.as_str() {
                "null" => {
                    self.advance();
                    return Ok(Expr::null());
                }
                "true" => {
                    self.advance();
                    return Ok(Expr::bool(true));
                }
                "false" => {
                    self.advance();
                    return Ok(Expr::bool(false));
                }
                "case" => return self.parse_case(),
                "cast" => {
                    self.advance();
                    self.expect_sym(Sym::LParen)?;
                    let inner = self.parse_expr()?;
                    self.expect_kw("as")?;
                    let ty = self.expect_ident()?;
                    self.expect_sym(Sym::RParen)?;
                    return Ok(Expr::Cast {
                        expr: Box::new(inner),
                        ty,
                    });
                }
                "exists" => {
                    self.advance();
                    self.expect_sym(Sym::LParen)?;
                    let q = self.parse_query()?;
                    self.expect_sym(Sym::RParen)?;
                    return Ok(Expr::Exists(Box::new(q)));
                }
                "row" if self.peek_at(1).is_sym(Sym::LParen) => {
                    self.advance();
                    self.advance();
                    let mut items = Vec::new();
                    if !self.peek().is_sym(Sym::RParen) {
                        loop {
                            items.push(self.parse_expr()?);
                            if !self.eat_sym(Sym::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_sym(Sym::RParen)?;
                    return Ok(Expr::Row(items));
                }
                _ => {}
            }
        }

        let name = self.expect_ident()?;

        // Function call?
        if self.peek().is_sym(Sym::LParen) {
            self.advance();
            // COUNT(*)
            if name == "count" && self.peek().is_sym(Sym::Star) {
                self.advance();
                self.expect_sym(Sym::RParen)?;
                return self.maybe_over("count_star", Vec::new(), true);
            }
            let mut args = Vec::new();
            if !self.peek().is_sym(Sym::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.eat_sym(Sym::Comma) {
                        break;
                    }
                }
            }
            self.expect_sym(Sym::RParen)?;
            return self.maybe_over(&name, args, false);
        }

        // Qualified column?
        if self.eat_sym(Sym::Dot) {
            let col = self.expect_ident()?;
            return Ok(Expr::qcol(name, col));
        }

        Ok(Expr::col(name))
    }

    /// After a function call, check for `OVER (...)` / `OVER name`.
    fn maybe_over(&mut self, name: &str, args: Vec<Expr>, star: bool) -> Result<Expr> {
        if self.eat_kw("over") {
            let window = if self.eat_sym(Sym::LParen) {
                let spec = self.parse_window_spec()?;
                self.expect_sym(Sym::RParen)?;
                WindowRef::Inline(spec)
            } else {
                WindowRef::Named(self.expect_ident()?)
            };
            let fname = if star {
                "count".to_string()
            } else {
                name.to_string()
            };
            return Ok(Expr::WindowFunc {
                name: fname,
                args,
                window,
            });
        }
        if star {
            return Ok(Expr::CountStar);
        }
        Ok(Expr::Func {
            name: name.to_string(),
            args,
        })
    }

    fn parse_case(&mut self) -> Result<Expr> {
        self.expect_kw("case")?;
        let operand = if self.peek().is_kw("when") {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_kw("when") {
            let when = self.parse_expr()?;
            self.expect_kw("then")?;
            let then = self.parse_expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(self.err_here("CASE requires at least one WHEN branch"));
        }
        let else_ = if self.eat_kw("else") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_kw("end")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_expr, parse_query, parse_statement};

    #[test]
    fn parses_simple_select() {
        let q =
            parse_query("SELECT a, b AS two FROM t WHERE a > 1 ORDER BY b DESC LIMIT 3").unwrap();
        let SetExpr::Select(sel) = &q.body else {
            panic!("not a select")
        };
        assert_eq!(sel.items.len(), 2);
        assert!(sel.where_.is_some());
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.limit, Some(Expr::int(3)));
    }

    #[test]
    fn precedence_and_or_cmp_arith() {
        // a + b * 2 = c OR d AND NOT e
        let e = parse_expr("a + b * 2 = c OR d AND NOT e").unwrap();
        // top must be OR
        let Expr::Binary {
            op: BinOp::Or,
            left,
            right,
        } = e
        else {
            panic!("top not OR")
        };
        assert!(matches!(*left, Expr::Binary { op: BinOp::Eq, .. }));
        assert!(matches!(*right, Expr::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn concat_binds_looser_than_plus() {
        let e = parse_expr("'a' || 1 + 2").unwrap();
        let Expr::Binary {
            op: BinOp::Concat,
            right,
            ..
        } = e
        else {
            panic!("top not ||")
        };
        assert!(matches!(*right, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn between_keeps_and_for_itself() {
        let e = parse_expr("roll BETWEEN move.lo AND move.hi").unwrap();
        assert!(matches!(e, Expr::Between { .. }));
        // NOT BETWEEN
        let e = parse_expr("x NOT BETWEEN 1 AND 2 AND y").unwrap();
        let Expr::Binary {
            op: BinOp::And,
            left,
            ..
        } = e
        else {
            panic!("top not AND")
        };
        assert!(matches!(*left, Expr::Between { negated: true, .. }));
    }

    #[test]
    fn scalar_subquery_and_exists() {
        let e = parse_expr("(SELECT p.action FROM policy AS p WHERE location = p.loc)").unwrap();
        assert!(matches!(e, Expr::Subquery(_)));
        let e = parse_expr("EXISTS (SELECT 1 FROM t)").unwrap();
        assert!(matches!(e, Expr::Exists(_)));
    }

    #[test]
    fn case_with_and_without_operand() {
        let e = parse_expr("CASE WHEN a THEN 1 WHEN b THEN 2 ELSE 3 END").unwrap();
        let Expr::Case {
            operand, branches, ..
        } = e
        else {
            panic!()
        };
        assert!(operand.is_none());
        assert_eq!(branches.len(), 2);

        let e = parse_expr("CASE x WHEN 1 THEN 'one' END").unwrap();
        let Expr::Case { operand, else_, .. } = e else {
            panic!()
        };
        assert!(operand.is_some());
        assert!(else_.is_none());
    }

    #[test]
    fn window_function_with_named_windows() {
        let q = parse_query(
            "SELECT a.there, COALESCE(SUM(a.prob) OVER lt, 0.0) AS lo, \
             SUM(a.prob) OVER leq AS hi \
             FROM actions AS a \
             WINDOW leq AS (ORDER BY a.there), \
                    lt AS (leq ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW)",
        )
        .unwrap();
        let SetExpr::Select(sel) = &q.body else {
            panic!()
        };
        assert_eq!(sel.windows.len(), 2);
        assert_eq!(sel.windows[1].1.base.as_deref(), Some("leq"));
        let frame = sel.windows[1].1.frame.as_ref().unwrap();
        assert!(frame.exclude_current_row);
        assert_eq!(frame.units, FrameUnits::Rows);
        assert_eq!(frame.start, FrameBound::UnboundedPreceding);
    }

    #[test]
    fn left_join_lateral_chain() {
        let q = parse_query(
            "SELECT * FROM (SELECT 1) AS _0(movement2) \
             LEFT JOIN LATERAL (SELECT random()) AS _1(roll) ON true \
             LEFT JOIN LATERAL (SELECT 2) AS _2(location2) ON true",
        )
        .unwrap();
        let SetExpr::Select(sel) = &q.body else {
            panic!()
        };
        assert_eq!(sel.from.len(), 1);
        let TableRef::Join {
            kind,
            lateral,
            left,
            ..
        } = &sel.from[0]
        else {
            panic!("not a join")
        };
        assert_eq!(*kind, JoinKind::Left);
        assert!(lateral);
        assert!(matches!(**left, TableRef::Join { .. }));
    }

    #[test]
    fn with_recursive_and_iterate() {
        let q = parse_query(
            "WITH RECURSIVE run(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM run WHERE x < 5) \
             SELECT x FROM run",
        )
        .unwrap();
        let with = q.with.unwrap();
        assert!(with.recursive);
        assert!(!with.iterate);
        assert_eq!(with.ctes[0].columns, vec!["x"]);

        let q = parse_query(
            "WITH ITERATE run(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM run WHERE x < 5) \
             SELECT x FROM run",
        )
        .unwrap();
        assert!(q.with.unwrap().iterate);

        let q = parse_query(
            "WITH RETIRE run(id, x) AS (SELECT 1, 0 UNION ALL SELECT id, x+1 FROM run WHERE x < 5) \
             SELECT id, x FROM run",
        )
        .unwrap();
        let with = q.with.unwrap();
        assert!(with.retire);
        assert!(!with.recursive && !with.iterate);
    }

    #[test]
    fn create_function_both_clause_orders() {
        for sql in [
            "CREATE FUNCTION f(a int) RETURNS int AS $$ SELECT a $$ LANGUAGE SQL",
            "CREATE FUNCTION f(a int) RETURNS int LANGUAGE SQL AS $$ SELECT a $$",
        ] {
            let Stmt::CreateFunction(cf) = parse_statement(sql).unwrap() else {
                panic!()
            };
            assert_eq!(cf.name, "f");
            assert_eq!(cf.params, vec![("a".into(), "int".into())]);
            assert_eq!(cf.language, Language::Sql);
            assert_eq!(cf.body.trim(), "SELECT a");
        }
    }

    #[test]
    fn create_or_replace_plpgsql_function() {
        let Stmt::CreateFunction(cf) = parse_statement(
            "CREATE OR REPLACE FUNCTION walk(origin coord, win int) RETURNS int \
             AS $$ BEGIN RETURN 0; END; $$ LANGUAGE PLPGSQL",
        )
        .unwrap() else {
            panic!()
        };
        assert!(cf.or_replace);
        assert_eq!(cf.language, Language::PlPgSql);
        assert_eq!(cf.params[0], ("origin".into(), "coord".into()));
    }

    #[test]
    fn insert_values_and_select() {
        let Stmt::Insert { table, source, .. } =
            parse_statement("INSERT INTO t VALUES (1, 'a'), (2, 'b')").unwrap()
        else {
            panic!()
        };
        assert_eq!(table, "t");
        assert!(matches!(source, InsertSource::Values(rows) if rows.len() == 2));

        let Stmt::Insert {
            columns, source, ..
        } = parse_statement("INSERT INTO t (a, b) SELECT x, y FROM s").unwrap()
        else {
            panic!()
        };
        assert_eq!(columns, vec!["a", "b"]);
        assert!(matches!(source, InsertSource::Query(_)));
    }

    #[test]
    fn update_delete_drop() {
        assert!(matches!(
            parse_statement("UPDATE t SET a = 1, b = 2 WHERE c").unwrap(),
            Stmt::Update { sets, .. } if sets.len() == 2
        ));
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE a = 1").unwrap(),
            Stmt::Delete { .. }
        ));
        assert!(matches!(
            parse_statement("DROP TABLE IF EXISTS t").unwrap(),
            Stmt::DropTable {
                if_exists: true,
                ..
            }
        ));
    }

    #[test]
    fn quoted_identifiers_preserve_case_and_symbols() {
        let e = parse_expr(r#"r."call?""#).unwrap();
        assert_eq!(e, Expr::qcol("r", "call?"));
        let Stmt::CreateFunction(cf) = parse_statement(
            r#"CREATE FUNCTION "walk*"(n int) RETURNS int AS $$ SELECT n $$ LANGUAGE SQL"#,
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(cf.name, "walk*");
    }

    #[test]
    fn casts_both_syntaxes() {
        assert_eq!(
            parse_expr("CAST(NULL AS int)").unwrap(),
            Expr::Cast {
                expr: Box::new(Expr::null()),
                ty: "int".into()
            }
        );
        assert_eq!(
            parse_expr("x::float8").unwrap(),
            Expr::Cast {
                expr: Box::new(Expr::col("x")),
                ty: "float8".into()
            }
        );
    }

    #[test]
    fn row_constructors() {
        let e = parse_expr("ROW(true, ROW(1, 2), NULL)").unwrap();
        let Expr::Row(items) = e else { panic!() };
        assert_eq!(items.len(), 3);
        assert!(matches!(items[1], Expr::Row(_)));
        // Parenthesized tuple sugar.
        assert!(matches!(parse_expr("(1, 2)").unwrap(), Expr::Row(_)));
    }

    #[test]
    fn in_list_and_in_subquery() {
        assert!(matches!(
            parse_expr("x IN (1, 2, 3)").unwrap(),
            Expr::InList { list, .. } if list.len() == 3
        ));
        assert!(matches!(
            parse_expr("x NOT IN (SELECT y FROM t)").unwrap(),
            Expr::InSubquery { negated: true, .. }
        ));
    }

    #[test]
    fn values_and_union_all() {
        let q = parse_query("SELECT 1 UNION ALL SELECT 2 UNION ALL SELECT 3").unwrap();
        // Left-assoc: ((1 U 2) U 3)
        let SetExpr::SetOp { left, all, .. } = &q.body else {
            panic!()
        };
        assert!(all);
        assert!(matches!(**left, SetExpr::SetOp { .. }));

        let q = parse_query("VALUES (1, 'x'), (2, 'y')").unwrap();
        assert!(matches!(q.body, SetExpr::Values(rows) if rows.len() == 2));
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse_expr("-5").unwrap(), Expr::int(-5));
        assert_eq!(
            parse_expr("-2.5").unwrap(),
            Expr::Literal(Value::Float(-2.5))
        );
        // Folding must not break double negation of non-literals.
        assert!(matches!(parse_expr("-x").unwrap(), Expr::Unary { .. }));
    }

    #[test]
    fn count_star_and_count_over() {
        assert_eq!(parse_expr("COUNT(*)").unwrap(), Expr::CountStar);
        let e = parse_expr("COUNT(*) OVER (PARTITION BY a)").unwrap();
        assert!(matches!(e, Expr::WindowFunc { name, .. } if name == "count"));
    }

    #[test]
    fn is_null_postfix() {
        let e = parse_expr("a + 1 IS NOT NULL").unwrap();
        assert!(
            matches!(e, Expr::IsNull { negated: true, .. }),
            "IS binds looser than +"
        );
    }

    #[test]
    fn table_less_select_parses() {
        let q = parse_query("SELECT 1 + 2 AS three").unwrap();
        let SetExpr::Select(sel) = &q.body else {
            panic!()
        };
        assert!(sel.from.is_empty());
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_query("SELECT FROM").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }), "{err}");
    }

    #[test]
    fn multi_statement_parsing() {
        let stmts = crate::parse_statements(
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1); SELECT * FROM t;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn from_comma_lateral() {
        let q = parse_query("SELECT * FROM run AS r, LATERAL (SELECT r.x + 1) AS s(y)").unwrap();
        let SetExpr::Select(sel) = &q.body else {
            panic!()
        };
        assert_eq!(sel.from.len(), 2);
        assert!(matches!(
            &sel.from[1],
            TableRef::Derived { lateral: true, .. }
        ));
    }
}
