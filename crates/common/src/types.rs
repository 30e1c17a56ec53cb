//! Static SQL types.
//!
//! The engine is dynamically typed at runtime ([`crate::Value`] carries its
//! own tag) but function signatures, `CAST` targets and catalog schemas need a
//! static mirror. The paper's running example uses a composite `coord` type
//! for grid cells; we model composites as [`Type::Record`] and let the catalog
//! register `coord` as a named alias for `record(int, int)`.

use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::value::Value;

/// Static SQL type used in schemas, signatures and casts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    Bool,
    Int,
    Float,
    Text,
    /// Composite / `ROW` type. Empty field list means "record of unknown
    /// shape" (PostgreSQL's anonymous `record`).
    Record(Arc<Vec<Type>>),
    /// Placeholder for expressions whose type is not pinned down
    /// (e.g. a bare `NULL` literal).
    Unknown,
}

impl Type {
    /// Anonymous record of unknown shape.
    pub fn any_record() -> Type {
        Type::Record(Arc::new(Vec::new()))
    }

    /// The paper's `coord` composite: `(x int, y int)`.
    pub fn coord() -> Type {
        Type::Record(Arc::new(vec![Type::Int, Type::Int]))
    }

    /// Resolve a SQL type name as it appears in source text.
    ///
    /// `coord` is accepted here (rather than via a catalog lookup) because it
    /// is the one composite the paper's workloads need; everything else goes
    /// through the standard names.
    pub fn from_sql_name(name: &str) -> Result<Type> {
        let lower = name.to_ascii_lowercase();
        Ok(match lower.as_str() {
            "bool" | "boolean" => Type::Bool,
            "int" | "integer" | "int4" | "int8" | "bigint" | "smallint" => Type::Int,
            "float" | "float4" | "float8" | "real" | "double" | "numeric" | "decimal" => {
                Type::Float
            }
            "text" | "varchar" | "char" | "character" | "string" => Type::Text,
            "record" => Type::any_record(),
            "coord" => Type::coord(),
            _ => return Err(Error::plan(format!("unknown type name {name:?}"))),
        })
    }

    /// SQL spelling of the type (used by the pretty printer and `CAST`).
    pub fn sql_name(&self) -> String {
        match self {
            Type::Bool => "boolean".into(),
            Type::Int => "int".into(),
            Type::Float => "float8".into(),
            Type::Text => "text".into(),
            Type::Record(fields) if fields.len() == 2 && fields.iter().all(|t| *t == Type::Int) => {
                // Print the paper's well-known composite under its alias.
                "coord".into()
            }
            Type::Record(_) => "record".into(),
            Type::Unknown => "unknown".into(),
        }
    }

    /// Does a runtime value conform to this type? `Null` conforms to every
    /// type (SQL nullability), `Unknown` accepts everything.
    pub fn admits(&self, v: &Value) -> bool {
        match (self, v) {
            (_, Value::Null) | (Type::Unknown, _) => true,
            (Type::Bool, Value::Bool(_)) => true,
            (Type::Int, Value::Int(_)) => true,
            (Type::Float, Value::Float(_)) => true,
            // Ints are acceptable wherever floats are expected (implicit
            // numeric widening, as in PostgreSQL assignment casts).
            (Type::Float, Value::Int(_)) => true,
            (Type::Text, Value::Text(_)) => true,
            (Type::Record(fields), Value::Record(vals)) => {
                fields.is_empty()
                    || (fields.len() == vals.len()
                        && fields.iter().zip(vals.iter()).all(|(t, v)| t.admits(v)))
            }
            _ => false,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.sql_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_standard_names() {
        assert_eq!(Type::from_sql_name("INT").unwrap(), Type::Int);
        assert_eq!(Type::from_sql_name("Boolean").unwrap(), Type::Bool);
        assert_eq!(Type::from_sql_name("float8").unwrap(), Type::Float);
        assert_eq!(Type::from_sql_name("TEXT").unwrap(), Type::Text);
        assert_eq!(Type::from_sql_name("coord").unwrap(), Type::coord());
        assert!(Type::from_sql_name("blob").is_err());
    }

    #[test]
    fn coord_round_trips_through_name() {
        let t = Type::coord();
        assert_eq!(t.sql_name(), "coord");
        assert_eq!(Type::from_sql_name(&t.sql_name()).unwrap(), t);
    }

    #[test]
    fn null_admits_everywhere() {
        for t in [
            Type::Bool,
            Type::Int,
            Type::Float,
            Type::Text,
            Type::coord(),
        ] {
            assert!(t.admits(&Value::Null));
        }
    }

    #[test]
    fn admits_checks_record_shape() {
        let t = Type::coord();
        assert!(t.admits(&Value::record(vec![Value::Int(1), Value::Int(2)])));
        assert!(!t.admits(&Value::record(vec![Value::Int(1)])));
        assert!(!t.admits(&Value::Int(3)));
        // Anonymous record admits any record.
        assert!(Type::any_record().admits(&Value::record(vec![Value::Bool(true)])));
    }

    #[test]
    fn int_widens_to_float() {
        assert!(Type::Float.admits(&Value::Int(7)));
        assert!(!Type::Int.admits(&Value::Float(7.0)));
    }
}
