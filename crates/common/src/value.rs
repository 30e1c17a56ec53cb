//! Runtime values with SQL semantics.
//!
//! One dynamically tagged value type serves the whole stack: table cells,
//! PL/pgSQL variables, query parameters and the `ROW(...)` records the
//! compiler uses to encode recursive-call frames (Figure 9 of the paper).
//!
//! Semantics follow PostgreSQL where it matters for the reproduction:
//! three-valued logic (`NULL` propagates through operators and comparisons),
//! `int / int` is integer division, integer overflow is an error rather than
//! a wraparound, and `text` concatenation uses `||`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::types::Type;

/// A dynamically typed SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(Arc<str>),
    /// Composite value: `ROW(v1, ..., vn)`. Cheap to clone (shared buffer).
    Record(Arc<[Value]>),
}

impl Value {
    /// Convenience `text` constructor.
    pub fn text(s: impl AsRef<str>) -> Value {
        Value::Text(Arc::from(s.as_ref()))
    }

    /// Convenience record constructor.
    pub fn record(fields: Vec<Value>) -> Value {
        Value::Record(Arc::from(fields))
    }

    /// The paper's `coord` composite `(x, y)`.
    pub fn coord(x: i64, y: i64) -> Value {
        Value::record(vec![Value::Int(x), Value::Int(y)])
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Runtime type tag. `Null` reports [`Type::Unknown`].
    pub fn type_of(&self) -> Type {
        match self {
            Value::Null => Type::Unknown,
            Value::Bool(_) => Type::Bool,
            Value::Int(_) => Type::Int,
            Value::Float(_) => Type::Float,
            Value::Text(_) => Type::Text,
            Value::Record(fs) => Type::Record(Arc::new(fs.iter().map(Value::type_of).collect())),
        }
    }

    /// Interpret as a WHERE-clause condition: `NULL` counts as not-true.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Extract a bool, treating `NULL` as `None`.
    pub fn as_bool(&self) -> Result<Option<bool>> {
        match self {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(*b)),
            other => Err(Error::exec(format!(
                "expected boolean, got {}",
                other.type_of()
            ))),
        }
    }

    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(Error::exec(format!(
                "expected int, got {} ({other})",
                other.type_of()
            ))),
        }
    }

    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            other => Err(Error::exec(format!(
                "expected float, got {} ({other})",
                other.type_of()
            ))),
        }
    }

    pub fn as_text(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(Error::exec(format!(
                "expected text, got {} ({other})",
                other.type_of()
            ))),
        }
    }

    pub fn as_record(&self) -> Result<&[Value]> {
        match self {
            Value::Record(fs) => Ok(fs),
            other => Err(Error::exec(format!(
                "expected record, got {} ({other})",
                other.type_of()
            ))),
        }
    }

    // ---------------------------------------------------------------- logic

    /// SQL equality under three-valued logic: `NULL = x` is `NULL` (`None`).
    #[inline]
    pub fn sql_eq(&self, other: &Value) -> Result<Option<bool>> {
        Ok(self.sql_cmp(other)?.map(|o| o == Ordering::Equal))
    }

    /// SQL comparison under three-valued logic. `None` when either side is
    /// `NULL`; an error when the operand types are incomparable.
    #[inline]
    pub fn sql_cmp(&self, other: &Value) -> Result<Option<Ordering>> {
        if let (Value::Int(a), Value::Int(b)) = (self, other) {
            return Ok(Some(a.cmp(b)));
        }
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => Some(a.total_cmp(b)),
            (Int(a), Float(b)) => Some((*a as f64).total_cmp(b)),
            (Float(a), Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Text(a), Text(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Record(a), Record(b)) => {
                if a.len() != b.len() {
                    return Err(Error::exec(format!(
                        "cannot compare records of width {} and {}",
                        a.len(),
                        b.len()
                    )));
                }
                // Row comparison: first NULL field makes the whole
                // comparison NULL (SQL row comparison semantics).
                let mut result = Ordering::Equal;
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.sql_cmp(y)? {
                        None => return Ok(None),
                        Some(Ordering::Equal) => continue,
                        Some(o) => {
                            result = o;
                            break;
                        }
                    }
                }
                Some(result)
            }
            (a, b) => {
                return Err(Error::exec(format!(
                    "cannot compare {} with {}",
                    a.type_of(),
                    b.type_of()
                )))
            }
        })
    }

    /// Total order for `ORDER BY`, grouping and index keys. `NULL` sorts
    /// last (PostgreSQL's default for ascending order); incomparable types
    /// order by type tag so sorting never fails.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Bool(_) => 0,
                Int(_) | Float(_) => 1,
                Text(_) => 2,
                Record(_) => 3,
                Null => 4,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.as_ref().cmp(b.as_ref()),
            (Record(a), Record(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.total_cmp(y) {
                        Ordering::Equal => continue,
                        o => return o,
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    // ----------------------------------------------------------- arithmetic

    /// `self + other` with numeric coercion; `||`-style text concat is NOT
    /// folded in here (see [`Value::concat`]). The int/int case is matched
    /// directly (not via `Value::numeric_binop`'s function pointers) so
    /// hot evaluation loops can inline it.
    #[inline]
    pub fn add(&self, other: &Value) -> Result<Value> {
        if let (Value::Int(a), Value::Int(b)) = (self, other) {
            return a
                .checked_add(*b)
                .map(Value::Int)
                .ok_or_else(|| Error::exec("integer overflow in +"));
        }
        self.numeric_binop(other, "+", i64::checked_add, |a, b| a + b)
    }

    #[inline]
    pub fn sub(&self, other: &Value) -> Result<Value> {
        if let (Value::Int(a), Value::Int(b)) = (self, other) {
            return a
                .checked_sub(*b)
                .map(Value::Int)
                .ok_or_else(|| Error::exec("integer overflow in -"));
        }
        self.numeric_binop(other, "-", i64::checked_sub, |a, b| a - b)
    }

    #[inline]
    pub fn mul(&self, other: &Value) -> Result<Value> {
        if let (Value::Int(a), Value::Int(b)) = (self, other) {
            return a
                .checked_mul(*b)
                .map(Value::Int)
                .ok_or_else(|| Error::exec("integer overflow in *"));
        }
        self.numeric_binop(other, "*", i64::checked_mul, |a, b| a * b)
    }

    /// SQL division: `int / int` is integer division, division by zero is an
    /// error (not NULL), floats divide as floats.
    pub fn div(&self, other: &Value) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(_), Int(0)) => Err(Error::exec("division by zero")),
            (Int(a), Int(b)) => a
                .checked_div(*b)
                .map(Int)
                .ok_or_else(|| Error::exec("integer overflow in /")),
            _ => {
                let b = other.as_float()?;
                if b == 0.0 {
                    return Err(Error::exec("division by zero"));
                }
                Ok(Float(self.as_float()? / b))
            }
        }
    }

    /// SQL modulo (`%` / `mod`), defined for integers.
    pub fn rem(&self, other: &Value) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(_), Int(0)) => Err(Error::exec("division by zero in %")),
            (Int(a), Int(b)) => Ok(Int(a.wrapping_rem(*b))),
            (a, b) => Err(Error::exec(format!(
                "%: expected int operands, got {} and {}",
                a.type_of(),
                b.type_of()
            ))),
        }
    }

    pub fn neg(&self) -> Result<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| Error::exec("integer overflow in unary -")),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(Error::exec(format!("cannot negate {}", other.type_of()))),
        }
    }

    /// `||` string concatenation; NULL-propagating.
    pub fn concat(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (a, b) => {
                let mut s = String::new();
                a.write_plain(&mut s)?;
                b.write_plain(&mut s)?;
                Ok(Value::text(s))
            }
        }
    }

    fn numeric_binop(
        &self,
        other: &Value,
        op: &str,
        int_op: fn(i64, i64) -> Option<i64>,
        float_op: fn(f64, f64) -> f64,
    ) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(a), Int(b)) => int_op(*a, *b)
                .map(Int)
                .ok_or_else(|| Error::exec(format!("integer overflow in {op}"))),
            (Int(_) | Float(_), Int(_) | Float(_)) => {
                Ok(Float(float_op(self.as_float()?, other.as_float()?)))
            }
            (a, b) => Err(Error::exec(format!(
                "{op}: expected numeric operands, got {} and {}",
                a.type_of(),
                b.type_of()
            ))),
        }
    }

    // ----------------------------------------------------------------- cast

    /// `CAST(self AS ty)` with PostgreSQL-flavoured conversions.
    pub fn cast(&self, ty: &Type) -> Result<Value> {
        use Value::*;
        if self.is_null() {
            return Ok(Null);
        }
        Ok(match (self, ty) {
            (v, Type::Unknown) => v.clone(),
            (Bool(_), Type::Bool)
            | (Int(_), Type::Int)
            | (Float(_), Type::Float)
            | (Text(_), Type::Text) => self.clone(),
            (Int(i), Type::Float) => Float(*i as f64),
            (Float(f), Type::Int) => {
                // PostgreSQL rounds half away from zero for float -> int.
                let r = f.round();
                if r < i64::MIN as f64 || r > i64::MAX as f64 {
                    return Err(Error::exec("float out of int range in cast"));
                }
                Int(r as i64)
            }
            (Bool(b), Type::Int) => Int(i64::from(*b)),
            (Int(i), Type::Bool) => Bool(*i != 0),
            (Text(s), Type::Int) => Int(s
                .trim()
                .parse::<i64>()
                .map_err(|_| Error::exec(format!("invalid int literal {s:?}")))?),
            (Text(s), Type::Float) => Float(
                s.trim()
                    .parse::<f64>()
                    .map_err(|_| Error::exec(format!("invalid float literal {s:?}")))?,
            ),
            (Text(s), Type::Bool) => match s.trim().to_ascii_lowercase().as_str() {
                "t" | "true" | "yes" | "on" | "1" => Bool(true),
                "f" | "false" | "no" | "off" | "0" => Bool(false),
                _ => return Err(Error::exec(format!("invalid bool literal {s:?}"))),
            },
            (v, Type::Text) => {
                let mut s = String::new();
                v.write_plain(&mut s)?;
                Value::text(s)
            }
            (Record(fs), Type::Record(tys)) => {
                if tys.is_empty() {
                    self.clone()
                } else if tys.len() == fs.len() {
                    let cast: Result<Vec<Value>> =
                        fs.iter().zip(tys.iter()).map(|(v, t)| v.cast(t)).collect();
                    Value::record(cast?)
                } else {
                    return Err(Error::exec(format!(
                        "cannot cast record of width {} to width {}",
                        fs.len(),
                        tys.len()
                    )));
                }
            }
            (v, t) => return Err(Error::exec(format!("cannot cast {} to {}", v.type_of(), t))),
        })
    }

    // ------------------------------------------------------------- printing

    /// Write the value the way `psql` displays it (no quotes around text).
    fn write_plain(&self, out: &mut String) -> Result<()> {
        use fmt::Write;
        match self {
            Value::Null => {} // empty, like psql's default null display
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => write!(out, "{i}").unwrap(),
            Value::Float(f) => write!(out, "{}", format_float(*f)).unwrap(),
            Value::Text(s) => out.push_str(s),
            Value::Record(fs) => {
                out.push('(');
                for (i, f) in fs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    f.write_plain(out)?;
                }
                out.push(')');
            }
        }
        Ok(())
    }

    /// Render as a SQL literal that re-parses to the same value.
    pub fn to_sql_literal(&self) -> String {
        let mut out = String::new();
        self.write_sql_literal(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// [`Value::to_sql_literal`], written into `out` without building the
    /// literal first.
    pub fn write_sql_literal(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        match self {
            Value::Null => out.write_str("NULL"),
            Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Value::Int(i) => write!(out, "{i}"),
            Value::Float(f) => out.write_str(&format_float(*f)),
            Value::Text(s) => {
                out.write_char('\'')?;
                for (i, part) in s.split('\'').enumerate() {
                    if i > 0 {
                        out.write_str("''")?;
                    }
                    out.write_str(part)?;
                }
                out.write_char('\'')
            }
            Value::Record(fs) => {
                out.write_str("ROW(")?;
                for (i, f) in fs.iter().enumerate() {
                    if i > 0 {
                        out.write_str(", ")?;
                    }
                    f.write_sql_literal(out)?;
                }
                out.write_char(')')
            }
        }
    }

    /// Approximate on-page size in bytes, used by the tuplestore to account
    /// buffer page writes (Table 2 of the paper). Mirrors PostgreSQL datum
    /// sizes: 1 for bool, 8 for int/float, `len + 4` for varlena text.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Text(s) => s.len() + 4,
            Value::Record(fs) => fs.iter().map(Value::size_bytes).sum::<usize>() + 8,
        }
    }
}

/// Render a float the way PostgreSQL does: integral values keep no trailing
/// `.0`... actually PostgreSQL prints `1` as `1`, but Rust's `{}` prints
/// `1` too; we force a decimal point so the literal re-parses as a float.
fn format_float(f: f64) -> String {
    if f.is_nan() {
        "'NaN'::float8".into()
    } else if f.is_infinite() {
        if f > 0.0 {
            "'Infinity'::float8".into()
        } else {
            "'-Infinity'::float8".into()
        }
    } else if f == f.trunc() && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        // Ryu-style shortest representation via Rust's Display.
        format!("{f}")
    }
}

/// Equality for tests/grouping: delegates to the total order, so `NaN == NaN`
/// and `NULL == NULL` hold *here* (but not under SQL `=`).
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

/// Hash consistent with [`Value::total_cmp`]-equality, so values can key
/// group-by hash tables.
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and floats that compare equal must hash equal.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Record(fs) => {
                4u8.hash(state);
                for f in fs.iter() {
                    f.hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            _ => {
                let mut s = String::new();
                self.write_plain(&mut s).map_err(|_| fmt::Error)?;
                f.write_str(&s)
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_through_arithmetic() {
        let n = Value::Null;
        let one = Value::Int(1);
        assert!(n.add(&one).unwrap().is_null());
        assert!(one.mul(&n).unwrap().is_null());
        assert!(n.neg().unwrap().is_null());
        assert!(n.concat(&one).unwrap().is_null());
    }

    #[test]
    fn integer_division_truncates() {
        assert_eq!(
            Value::Int(7).div(&Value::Int(2)).unwrap(),
            Value::Int(3),
            "int/int must be integer division"
        );
        assert_eq!(
            Value::Int(7).div(&Value::Float(2.0)).unwrap(),
            Value::Float(3.5)
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert!(Value::Float(1.0).div(&Value::Float(0.0)).is_err());
        assert!(Value::Int(1).rem(&Value::Int(0)).is_err());
    }

    #[test]
    fn overflow_is_an_error_not_wraparound() {
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
        assert!(Value::Int(i64::MIN).neg().is_err());
        assert!(Value::Int(i64::MAX).mul(&Value::Int(2)).is_err());
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)).unwrap(),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)).unwrap(),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_comparison_with_null_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)).unwrap(), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null).unwrap(), None);
    }

    #[test]
    fn record_comparison_is_lexicographic() {
        let a = Value::coord(1, 5);
        let b = Value::coord(2, 0);
        assert_eq!(a.sql_cmp(&b).unwrap(), Some(Ordering::Less));
        assert_eq!(a.sql_eq(&Value::coord(1, 5)).unwrap(), Some(true));
    }

    #[test]
    fn record_comparison_null_field_is_unknown() {
        let a = Value::record(vec![Value::Int(1), Value::Null]);
        let b = Value::coord(1, 5);
        assert_eq!(a.sql_cmp(&b).unwrap(), None);
        // But a differing leading field decides before the NULL is reached.
        let c = Value::record(vec![Value::Int(0), Value::Null]);
        assert_eq!(c.sql_cmp(&b).unwrap(), Some(Ordering::Less));
    }

    #[test]
    fn incomparable_types_error() {
        assert!(Value::Int(1).sql_cmp(&Value::text("x")).is_err());
        assert!(Value::Bool(true).sql_cmp(&Value::Int(1)).is_err());
    }

    #[test]
    fn total_order_sorts_nulls_last() {
        let mut vs = vec![Value::Null, Value::Int(2), Value::Int(1)];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vs, vec![Value::Int(1), Value::Int(2), Value::Null]);
    }

    #[test]
    fn casts_round_trip_via_text() {
        for v in [
            Value::Int(42),
            Value::Float(2.5),
            Value::Bool(true),
            Value::text("hello"),
        ] {
            let t = v.type_of();
            let through_text = v.cast(&Type::Text).unwrap().cast(&t).unwrap();
            assert_eq!(through_text, v, "{v:?} did not survive text round trip");
        }
    }

    #[test]
    fn float_to_int_rounds() {
        assert_eq!(
            Value::Float(2.5).cast(&Type::Int).unwrap(),
            Value::Int(3),
            "PostgreSQL rounds, not truncates"
        );
        assert_eq!(Value::Float(-2.5).cast(&Type::Int).unwrap(), Value::Int(-3));
    }

    #[test]
    fn sql_literals_reparse_semantics() {
        assert_eq!(Value::text("it's").to_sql_literal(), "'it''s'");
        assert_eq!(Value::Float(1.0).to_sql_literal(), "1.0");
        assert_eq!(Value::coord(3, 2).to_sql_literal(), "ROW(3, 2)");
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
    }

    #[test]
    fn hash_consistent_with_eq_for_mixed_numerics() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        let i = Value::Int(3);
        let f = Value::Float(3.0);
        assert_eq!(i, f);
        assert_eq!(h(&i), h(&f));
    }

    #[test]
    fn size_bytes_tracks_text_length() {
        let short = Value::text("ab");
        let long = Value::text("a".repeat(100));
        assert!(long.size_bytes() > short.size_bytes());
        assert_eq!(long.size_bytes(), 104);
    }

    #[test]
    fn concat_behaves_like_pg() {
        assert_eq!(
            Value::text("ab").concat(&Value::Int(3)).unwrap(),
            Value::text("ab3")
        );
        assert!(Value::text("ab").concat(&Value::Null).unwrap().is_null());
    }
}
