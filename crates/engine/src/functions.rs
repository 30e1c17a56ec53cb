//! Built-in scalar function evaluation.
//!
//! All functions follow PostgreSQL's NULL convention (strict: any NULL input
//! yields NULL) except the ones documented otherwise (`concat`, `coalesce` —
//! which is handled lazily in the evaluator — `greatest`/`least` skip NULLs).

use plaway_common::{Error, Result, SessionRng, Type, Value};

use crate::ir::ScalarFn;

fn arity(name: &str, args: &[Value], expect: std::ops::RangeInclusive<usize>) -> Result<()> {
    if expect.contains(&args.len()) {
        Ok(())
    } else {
        Err(Error::exec(format!(
            "{name}: expected {expect:?} arguments, got {}",
            args.len()
        )))
    }
}

/// Do any of the arguments make a strict function return NULL?
fn any_null(args: &[Value]) -> bool {
    args.iter().any(Value::is_null)
}

/// PostgreSQL's `MaxAllocSize` (1 GB - 1): no text value, its 4-byte
/// varlena header (`VARHDRSZ`) included, may be longer, so `repeat` refuses
/// a result of more than `MAX_ALLOC_SIZE - VARHDRSZ` bytes before allocating
/// anything, as PostgreSQL's `repeat` does.
const MAX_ALLOC_SIZE: usize = 0x3fff_ffff;
const VARHDRSZ: usize = 4;

/// The characters of `s` at 1-based positions `start..end` (end exclusive),
/// clipped to `1..=n`: PostgreSQL's substring rule, which `substr`, `left`
/// and `right` all reduce to. Any `i64` bounds are valid. A `char_indices`
/// walk maps the range to bytes and stops at its end.
fn char_slice(s: &str, start: i64, end: i64) -> &str {
    let start = start.max(1);
    if end <= start {
        return "";
    }
    // Both positions are >= 1 here, so the 0-based offsets cannot overflow.
    let offset = |pos: i64| usize::try_from(pos - 1).unwrap_or(usize::MAX);
    let (from, to) = (offset(start), offset(end));
    let byte_at = |t: &str, chars: usize| t.char_indices().nth(chars).map_or(t.len(), |(i, _)| i);
    let lo = byte_at(s, from);
    &s[lo..lo + byte_at(&s[lo..], to - from)]
}

/// Evaluate a built-in scalar function over already-evaluated arguments.
pub fn eval_scalar(func: ScalarFn, args: &[Value], rng: &mut SessionRng) -> Result<Value> {
    use ScalarFn::*;
    // random() is the one zero-arg impure builtin; handle before the strict
    // NULL check (it has no args anyway).
    if func == Random {
        arity("random", args, 0..=0)?;
        return Ok(Value::Float(rng.next_f64()));
    }
    // raise_error never returns; evaluated lazily inside CASE branches, it
    // is how a compiled query aborts with a catchable PL/pgSQL condition.
    // Non-strict: a NULL condition/message must still raise.
    if func == RaiseError {
        arity("raise_error", args, 2..=2)?;
        let text_of = |v: &Value| match v {
            Value::Null => Ok(String::new()),
            other => Ok(other.cast(&Type::Text)?.as_text()?.to_string()),
        };
        return Err(Error::raised(text_of(&args[0])?, text_of(&args[1])?));
    }
    // Non-strict functions first.
    match func {
        Concat => {
            // concat ignores NULL inputs entirely (PostgreSQL semantics).
            let mut out = String::new();
            for a in args {
                if !a.is_null() {
                    let txt = a.cast(&Type::Text)?;
                    out.push_str(txt.as_text()?);
                }
            }
            return Ok(Value::text(out));
        }
        Greatest | Least => {
            let mut best: Option<Value> = None;
            for a in args {
                if a.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => a.clone(),
                    Some(b) => {
                        let keep_a = match a.sql_cmp(&b)? {
                            Some(ord) => {
                                (func == Greatest && ord == std::cmp::Ordering::Greater)
                                    || (func == Least && ord == std::cmp::Ordering::Less)
                            }
                            None => false,
                        };
                        if keep_a {
                            a.clone()
                        } else {
                            b
                        }
                    }
                });
            }
            return Ok(best.unwrap_or(Value::Null));
        }
        Nullif => {
            arity("nullif", args, 2..=2)?;
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            return Ok(match args[0].sql_eq(&args[1])? {
                Some(true) => Value::Null,
                _ => args[0].clone(),
            });
        }
        _ => {}
    }

    if any_null(args) {
        return Ok(Value::Null);
    }

    match func {
        Abs => {
            arity("abs", args, 1..=1)?;
            match &args[0] {
                Value::Int(i) => i
                    .checked_abs()
                    .map(Value::Int)
                    .ok_or_else(|| Error::exec("integer overflow in abs")),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(Error::exec(format!("abs: bad argument {other}"))),
            }
        }
        Sign => {
            arity("sign", args, 1..=1)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(i.signum())),
                Value::Float(f) => Ok(Value::Float(if *f > 0.0 {
                    1.0
                } else if *f < 0.0 {
                    -1.0
                } else {
                    0.0
                })),
                other => Err(Error::exec(format!("sign: bad argument {other}"))),
            }
        }
        Floor => {
            arity("floor", args, 1..=1)?;
            Ok(Value::Float(args[0].as_float()?.floor()))
        }
        Ceil => {
            arity("ceil", args, 1..=1)?;
            Ok(Value::Float(args[0].as_float()?.ceil()))
        }
        Round => {
            arity("round", args, 1..=2)?;
            let x = args[0].as_float()?;
            if args.len() == 2 {
                let digits = args[1].as_int()?;
                let mul = 10f64.powi(digits as i32);
                Ok(Value::Float((x * mul).round() / mul))
            } else {
                Ok(Value::Float(x.round()))
            }
        }
        Trunc => {
            arity("trunc", args, 1..=1)?;
            Ok(Value::Float(args[0].as_float()?.trunc()))
        }
        Sqrt => {
            arity("sqrt", args, 1..=1)?;
            let x = args[0].as_float()?;
            if x < 0.0 {
                return Err(Error::exec("cannot take square root of a negative number"));
            }
            Ok(Value::Float(x.sqrt()))
        }
        Power => {
            arity("power", args, 2..=2)?;
            Ok(Value::Float(args[0].as_float()?.powf(args[1].as_float()?)))
        }
        Exp => {
            arity("exp", args, 1..=1)?;
            Ok(Value::Float(args[0].as_float()?.exp()))
        }
        Ln => {
            arity("ln", args, 1..=1)?;
            let x = args[0].as_float()?;
            if x <= 0.0 {
                return Err(Error::exec(
                    "cannot take logarithm of a non-positive number",
                ));
            }
            Ok(Value::Float(x.ln()))
        }
        Mod => {
            arity("mod", args, 2..=2)?;
            args[0].rem(&args[1])
        }
        Length => {
            arity("length", args, 1..=1)?;
            Ok(Value::Int(args[0].as_text()?.chars().count() as i64))
        }
        Lower => {
            arity("lower", args, 1..=1)?;
            Ok(Value::text(args[0].as_text()?.to_lowercase()))
        }
        Upper => {
            arity("upper", args, 1..=1)?;
            Ok(Value::text(args[0].as_text()?.to_uppercase()))
        }
        Substr => {
            arity("substr", args, 2..=3)?;
            let s = args[0].as_text()?;
            let start = args[1].as_int()?; // 1-based, may be <= 0 like PG
            let end = if args.len() == 3 {
                let len = args[2].as_int()?;
                if len < 0 {
                    return Err(Error::exec("negative substring length not allowed"));
                }
                start.saturating_add(len)
            } else {
                i64::MAX
            };
            Ok(Value::text(char_slice(s, start, end)))
        }
        Replace => {
            arity("replace", args, 3..=3)?;
            Ok(Value::text(
                args[0]
                    .as_text()?
                    .replace(args[1].as_text()?, args[2].as_text()?),
            ))
        }
        Trim => {
            arity("trim", args, 1..=1)?;
            Ok(Value::text(args[0].as_text()?.trim()))
        }
        Ltrim => {
            arity("ltrim", args, 1..=1)?;
            Ok(Value::text(args[0].as_text()?.trim_start()))
        }
        Rtrim => {
            arity("rtrim", args, 1..=1)?;
            Ok(Value::text(args[0].as_text()?.trim_end()))
        }
        Strpos => {
            arity("strpos", args, 2..=2)?;
            let hay = args[0].as_text()?;
            let needle = args[1].as_text()?;
            Ok(Value::Int(match hay.find(needle) {
                Some(byte_pos) => hay[..byte_pos].chars().count() as i64 + 1,
                None => 0,
            }))
        }
        LeftStr => {
            arity("left", args, 2..=2)?;
            let s = args[0].as_text()?;
            let n = args[1].as_int()?;
            // A negative count keeps all but the last |n| characters.
            let keep = if n >= 0 {
                n
            } else {
                (s.chars().count() as i64).saturating_sub_unsigned(n.unsigned_abs())
            };
            Ok(Value::text(char_slice(s, 1, keep.saturating_add(1))))
        }
        RightStr => {
            arity("right", args, 2..=2)?;
            let s = args[0].as_text()?;
            let n = args[1].as_int()?;
            // A negative count drops the first |n| characters.
            let start = if n >= 0 {
                s.chars().count() as i64 - n + 1
            } else {
                1i64.saturating_add_unsigned(n.unsigned_abs())
            };
            Ok(Value::text(char_slice(s, start, i64::MAX)))
        }
        Repeat => {
            arity("repeat", args, 2..=2)?;
            let s = args[0].as_text()?;
            let n = usize::try_from(args[1].as_int()?.max(0)).unwrap_or(usize::MAX);
            match s.len().checked_mul(n) {
                Some(bytes) if bytes <= MAX_ALLOC_SIZE - VARHDRSZ => Ok(Value::text(s.repeat(n))),
                _ => Err(Error::exec("requested length too large")),
            }
        }
        Reverse => {
            arity("reverse", args, 1..=1)?;
            Ok(Value::text(
                args[0].as_text()?.chars().rev().collect::<String>(),
            ))
        }
        Chr => {
            arity("chr", args, 1..=1)?;
            let code = args[0].as_int()?;
            let c = u32::try_from(code)
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(|| Error::exec(format!("chr: invalid code point {code}")))?;
            Ok(Value::text(c.to_string()))
        }
        Ascii => {
            arity("ascii", args, 1..=1)?;
            let s = args[0].as_text()?;
            Ok(match s.chars().next() {
                Some(c) => Value::Int(c as i64),
                None => Value::Int(0),
            })
        }
        RowField => {
            arity("row_field", args, 2..=2)?;
            let rec = args[0].as_record()?;
            let i = args[1].as_int()?;
            if i < 1 || i as usize > rec.len() {
                return Err(Error::exec(format!(
                    "row_field: index {i} out of bounds for record of width {}",
                    rec.len()
                )));
            }
            Ok(rec[(i - 1) as usize].clone())
        }
        Random | RaiseError | Concat | Nullif | Greatest | Least => unreachable!("handled above"),
    }
}

/// SQL `LIKE` pattern matching (`%` any run, `_` single char).
pub fn like_match(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    // Iterative two-pointer with backtracking on the last `%`.
    let (mut ti, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            ti += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SessionRng {
        SessionRng::new(1)
    }

    fn call(f: ScalarFn, args: &[Value]) -> Value {
        eval_scalar(f, args, &mut rng()).unwrap()
    }

    #[test]
    fn strict_null_propagation() {
        assert!(call(ScalarFn::Abs, &[Value::Null]).is_null());
        assert!(call(ScalarFn::Substr, &[Value::text("ab"), Value::Null]).is_null());
    }

    #[test]
    fn sign_matches_paper_usage() {
        // walk() returns `step * sign(reward)`.
        assert_eq!(call(ScalarFn::Sign, &[Value::Int(-7)]), Value::Int(-1));
        assert_eq!(call(ScalarFn::Sign, &[Value::Int(0)]), Value::Int(0));
        assert_eq!(call(ScalarFn::Sign, &[Value::Int(3)]), Value::Int(1));
        assert_eq!(
            call(ScalarFn::Sign, &[Value::Float(-0.5)]),
            Value::Float(-1.0)
        );
    }

    /// The oracle for the slicing builtins: the characters at 1-based
    /// positions `[start, end)` intersected with `[1, n]`, over a
    /// `Vec<char>` and in `i128`, where no bound can overflow.
    fn reference_slice(s: &str, start: i128, end: i128) -> Value {
        let chars: Vec<char> = s.chars().collect();
        let n = chars.len() as i128;
        let lo = start.clamp(1, n + 1);
        let hi = end.clamp(lo, n + 1);
        Value::text(
            chars[(lo - 1) as usize..(hi - 1) as usize]
                .iter()
                .collect::<String>(),
        )
    }

    /// PostgreSQL's substring rule on a few literal cases, then `substr`
    /// (both arities), `left` and `right` against the oracle on empty,
    /// ASCII and 2-, 3- and 4-byte text, at every boundary position and at
    /// both ends of `i64`.
    #[test]
    fn substr_pg_semantics() {
        let s = Value::text("hello");
        assert_eq!(
            call(ScalarFn::Substr, &[s.clone(), Value::Int(2)]),
            Value::text("ello")
        );
        assert_eq!(
            call(ScalarFn::Substr, &[s.clone(), Value::Int(2), Value::Int(2)]),
            Value::text("el")
        );
        // Start before the string: PG keeps the overlap.
        assert_eq!(
            call(
                ScalarFn::Substr,
                &[s.clone(), Value::Int(-1), Value::Int(4)]
            ),
            Value::text("he")
        );
        // Past the end.
        assert_eq!(
            call(ScalarFn::Substr, &[s, Value::Int(10)]),
            Value::text("")
        );

        for s in ["", "hello", "héllo", "日本語", "a😀b", "abc😀"] {
            let n = s.chars().count() as i64;
            let text = Value::text(s);
            let positions = [i64::MIN, -100, -1, 0, 1, 2, n, n + 1, i64::MAX];
            for p in positions {
                let (p_wide, n_wide) = (p as i128, n as i128);
                let at = |f: ScalarFn, args: &[Value]| {
                    eval_scalar(f, args, &mut rng())
                        .unwrap_or_else(|e| panic!("{f:?}({s:?}, {args:?}): {e}"))
                };
                assert_eq!(
                    at(ScalarFn::Substr, &[text.clone(), Value::Int(p)]),
                    reference_slice(s, p_wide, n_wide + 1),
                    "substr({s:?}, {p})"
                );
                for len in [0, 1, 2, n, i64::MAX] {
                    assert_eq!(
                        at(
                            ScalarFn::Substr,
                            &[text.clone(), Value::Int(p), Value::Int(len)]
                        ),
                        reference_slice(s, p_wide, p_wide + len as i128),
                        "substr({s:?}, {p}, {len})"
                    );
                }
                for len in [-1, i64::MIN] {
                    let err = eval_scalar(
                        ScalarFn::Substr,
                        &[text.clone(), Value::Int(p), Value::Int(len)],
                        &mut rng(),
                    )
                    .unwrap_err();
                    assert!(
                        err.to_string()
                            .contains("negative substring length not allowed"),
                        "substr({s:?}, {p}, {len}): {err}"
                    );
                }
                // A negative count means "all but |p|" for both.
                let keep = if p >= 0 { p_wide } else { n_wide + p_wide };
                assert_eq!(
                    at(ScalarFn::LeftStr, &[text.clone(), Value::Int(p)]),
                    reference_slice(s, 1, keep + 1),
                    "left({s:?}, {p})"
                );
                assert_eq!(
                    at(ScalarFn::RightStr, &[text.clone(), Value::Int(p)]),
                    reference_slice(s, n_wide - keep + 1, n_wide + 1),
                    "right({s:?}, {p})"
                );
            }
        }
    }

    #[test]
    fn concat_skips_nulls() {
        assert_eq!(
            call(
                ScalarFn::Concat,
                &[Value::text("a"), Value::Null, Value::Int(3)]
            ),
            Value::text("a3")
        );
    }

    #[test]
    fn greatest_least_skip_nulls() {
        assert_eq!(
            call(
                ScalarFn::Greatest,
                &[Value::Null, Value::Int(2), Value::Int(5)]
            ),
            Value::Int(5)
        );
        assert_eq!(
            call(ScalarFn::Least, &[Value::Int(2), Value::Float(1.5)]),
            Value::Float(1.5)
        );
        assert!(call(ScalarFn::Greatest, &[Value::Null]).is_null());
    }

    #[test]
    fn nullif_basic() {
        assert!(call(ScalarFn::Nullif, &[Value::Int(1), Value::Int(1)]).is_null());
        assert_eq!(
            call(ScalarFn::Nullif, &[Value::Int(1), Value::Int(2)]),
            Value::Int(1)
        );
    }

    #[test]
    fn random_uses_session_rng_deterministically() {
        let mut r1 = SessionRng::new(99);
        let mut r2 = SessionRng::new(99);
        let a = eval_scalar(ScalarFn::Random, &[], &mut r1).unwrap();
        let b = eval_scalar(ScalarFn::Random, &[], &mut r2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn row_field_is_one_based() {
        let rec = Value::coord(3, 2);
        assert_eq!(
            call(ScalarFn::RowField, &[rec.clone(), Value::Int(1)]),
            Value::Int(3)
        );
        assert_eq!(
            call(ScalarFn::RowField, &[rec.clone(), Value::Int(2)]),
            Value::Int(2)
        );
        assert!(eval_scalar(ScalarFn::RowField, &[rec, Value::Int(3)], &mut rng()).is_err());
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            call(ScalarFn::Length, &[Value::text("héllo")]),
            Value::Int(5)
        );
        assert_eq!(
            call(ScalarFn::Strpos, &[Value::text("hello"), Value::text("ll")]),
            Value::Int(3)
        );
        assert_eq!(
            call(ScalarFn::LeftStr, &[Value::text("hello"), Value::Int(2)]),
            Value::text("he")
        );
        assert_eq!(
            call(ScalarFn::RightStr, &[Value::text("hello"), Value::Int(-2)]),
            Value::text("llo")
        );
        assert_eq!(
            call(ScalarFn::Reverse, &[Value::text("abc")]),
            Value::text("cba")
        );
        let ab = Value::text("ab");
        assert_eq!(
            call(ScalarFn::Repeat, &[ab.clone(), Value::Int(3)]),
            Value::text("ababab")
        );
        // Past the allocation limit `repeat` fails before allocating; the
        // last count is the smallest one rejected, one byte past the limit.
        let first_rejected = (MAX_ALLOC_SIZE - VARHDRSZ + 1) as i64 / 2;
        for n in [i64::MAX, 2_000_000_000, first_rejected] {
            let err = eval_scalar(ScalarFn::Repeat, &[ab.clone(), Value::Int(n)], &mut rng())
                .unwrap_err();
            assert!(
                err.to_string().contains("requested length too large"),
                "repeat('ab', {n}): {err}"
            );
        }
        assert_eq!(
            call(ScalarFn::Repeat, &[Value::text(""), Value::Int(i64::MAX)]),
            Value::text("")
        );
        assert_eq!(
            call(ScalarFn::Repeat, &[ab, Value::Int(i64::MIN)]),
            Value::text("")
        );
    }

    #[test]
    fn math_edge_cases() {
        assert!(eval_scalar(ScalarFn::Sqrt, &[Value::Int(-1)], &mut rng()).is_err());
        assert!(eval_scalar(ScalarFn::Ln, &[Value::Int(0)], &mut rng()).is_err());
        assert!(eval_scalar(ScalarFn::Abs, &[Value::Int(i64::MIN)], &mut rng()).is_err());
        assert_eq!(
            call(ScalarFn::Round, &[Value::Float(2.345), Value::Int(2)]),
            Value::Float(2.35)
        );
        assert_eq!(
            call(ScalarFn::Mod, &[Value::Int(7), Value::Int(3)]),
            Value::Int(1)
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "h_"));
        assert!(!like_match("hello", "x%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b")); // literal text still matches itself
        assert!(like_match("axxxb", "a%b"));
    }
}
