//! The `parse()` workload: a table-driven finite state automaton.
//!
//! Table 1 row 2 profiles it, Figure 11b runs it on the Oracle-like profile,
//! and Table 2 uses it to expose the quadratic space appetite of
//! `WITH RECURSIVE`: the function "receives its input text as an argument"
//! and each iteration carries the **residual string** — so the accumulated
//! trace holds `n + (n-1) + ... + 1` characters.
//!
//! The automaton tokenizes identifier/number/whitespace soup:
//!
//! ```text
//! state 0 (gap)    --letter--> 1   --digit--> 2   --space--> 0
//! state 1 (ident)  --letter/digit--> 1          --space--> 0
//! state 2 (number) --digit--> 2                 --space--> 0
//! ```
//!
//! Transitions live in `fsa(s, c, nxt)`; a missing transition rejects the
//! input. The function returns the number of processed characters.

use plaway_common::{Result, SessionRng, Value};
use plaway_engine::Session;

use crate::Workload;

/// Characters the generator draws from (also defines the FSA alphabet).
const LETTERS: &str = "abcdefgh";
const DIGITS: &str = "01234567";

/// Install the `fsa` transition table (with a hash index on the state
/// column, mirroring the composite lookup a real engine would index).
pub fn install_fsa(session: &mut Session) -> Result<()> {
    session.run("DROP TABLE IF EXISTS fsa")?;
    session.run("CREATE TABLE fsa (s int, c text, nxt int)")?;
    let mut rows = Vec::new();
    let mut add = |s: i64, c: char, nxt: i64| {
        rows.push(vec![
            Value::Int(s),
            Value::text(c.to_string()),
            Value::Int(nxt),
        ]);
    };
    for ch in LETTERS.chars() {
        add(0, ch, 1); // gap -> ident
        add(1, ch, 1); // ident continues
    }
    for ch in DIGITS.chars() {
        add(0, ch, 2); // gap -> number
        add(1, ch, 1); // digits allowed inside identifiers
        add(2, ch, 2); // number continues
    }
    for s in 0..=2 {
        add(s, ' ', 0); // whitespace ends any token
    }
    session.bulk_insert("fsa", rows)?;
    session.run("CREATE INDEX fsa_c ON fsa (c)")?;
    Ok(())
}

/// A random token soup of exactly `len` characters, always accepted by the
/// automaton (generation walks the automaton, only emitting characters with
/// a valid transition from the current state).
pub fn generate_input(len: usize, seed: u64) -> String {
    let mut rng = SessionRng::new(seed);
    let letters: Vec<char> = LETTERS.chars().collect();
    let digits: Vec<char> = DIGITS.chars().collect();
    let mut out = String::with_capacity(len);
    let mut state = 0u8;
    while out.len() < len {
        let c = match (state, rng.next_range(0, 3)) {
            // In a number, letters are not a legal continuation.
            (2, 0 | 1) => digits[rng.next_range(0, digits.len() as i64 - 1) as usize],
            (2, _) => ' ',
            (_, 0 | 1) => letters[rng.next_range(0, letters.len() as i64 - 1) as usize],
            (_, 2) => digits[rng.next_range(0, digits.len() as i64 - 1) as usize],
            _ => ' ',
        };
        state = match (state, c) {
            (_, ' ') => 0,
            (0, c) if c.is_ascii_digit() => 2,
            (2, _) => 2,
            _ => 1,
        };
        out.push(c);
    }
    out
}

/// The `parse()` function: consume the residual string one character per
/// iteration, drive the FSA through embedded lookups.
pub fn parse_workload() -> Workload {
    Workload {
        name: "parse",
        source: r#"
CREATE OR REPLACE FUNCTION parse(input text) RETURNS int AS $$
DECLARE
  rest text := input;   -- residual string: shrinks by one char per step
  state int := 0;
  ch text;
  nxt int;
  consumed int := 0;
BEGIN
  WHILE length(rest) > 0 LOOP
    ch := substr(rest, 1, 1);
    -- automaton step: table-driven transition
    nxt := (SELECT f.nxt FROM fsa AS f WHERE f.s = state AND f.c = ch);
    IF nxt IS NULL THEN
      RETURN -consumed;   -- reject: position of the offending character
    END IF;
    state := nxt;
    rest := substr(rest, 2);
    consumed := consumed + 1;
  END LOOP;
  RETURN consumed;
END;
$$ LANGUAGE PLPGSQL;
"#
        .to_string(),
    }
}

/// Reference implementation (plain Rust) for equivalence tests.
pub fn parse_reference(input: &str) -> i64 {
    let mut state = 0i64;
    let mut consumed = 0i64;
    for ch in input.chars() {
        let next = match (state, ch) {
            (0, c) if LETTERS.contains(c) => 1,
            (0, c) if DIGITS.contains(c) => 2,
            (1, c) if LETTERS.contains(c) || DIGITS.contains(c) => 1,
            (2, c) if DIGITS.contains(c) => 2,
            (_, ' ') => 0,
            _ => return -consumed,
        };
        state = next;
        consumed += 1;
    }
    consumed
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaway_interp::Interpreter;

    fn setup() -> (Session, Interpreter) {
        let mut s = Session::default();
        install_fsa(&mut s).unwrap();
        parse_workload().install(&mut s).unwrap();
        (s, Interpreter::new())
    }

    #[test]
    fn accepts_token_soup() {
        let (mut s, mut i) = setup();
        let v = i
            .call(&mut s, "parse", &[Value::text("abc 123 a1b2")])
            .unwrap();
        assert_eq!(v, Value::Int(12));
    }

    #[test]
    fn rejects_number_followed_by_letter() {
        let (mut s, mut i) = setup();
        // '1a' is not a token: number state has no letter transition.
        let v = i.call(&mut s, "parse", &[Value::text("12a")]).unwrap();
        assert_eq!(v, Value::Int(-2), "rejects after consuming '12'");
        assert_eq!(parse_reference("12a"), -2);
    }

    #[test]
    fn generated_inputs_are_accepted_and_match_reference() {
        let (mut s, mut i) = setup();
        for seed in [1u64, 2, 3] {
            let input = generate_input(200, seed);
            let expect = parse_reference(&input);
            assert_eq!(expect, 200, "generator only emits valid soup");
            let v = i
                .call(&mut s, "parse", &[Value::text(input.clone())])
                .unwrap();
            assert_eq!(v, Value::Int(expect), "input {input:?}");
        }
    }

    #[test]
    fn compiled_parse_agrees_with_interpreter() {
        let (mut s, mut interp) = setup();
        let w = parse_workload();
        // The automaton rejects the first multi-byte character, but every
        // step before it slices a residual string that is not ASCII.
        let inputs = [
            "",
            "abc",
            "abc 123",
            "9 9 9",
            "12a",
            "a b c d e f",
            "ab 12 cd 😀",
            "a1ä2",
            "€12",
            "ab c1 日本 d",
        ];
        for options in [
            plaway_core::CompileOptions::default(),
            plaway_core::CompileOptions::iterate(),
        ] {
            let compiled = plaway_core::compile_sql(&s.catalog, &w.source, options).unwrap();
            for input in inputs {
                let reference = interp.call(&mut s, "parse", &[Value::text(input)]).unwrap();
                assert_eq!(reference, Value::Int(parse_reference(input)), "{input:?}");
                let compiled_v = compiled.run(&mut s, &[Value::text(input)]).unwrap();
                assert_eq!(compiled_v, reference, "input {input:?} {options:?}");
            }
        }
    }

    #[test]
    fn recursive_trace_grows_quadratically_iterate_stays_flat() {
        // The Table 2 mechanism in miniature.
        let (mut s, _) = setup();
        let w = parse_workload();
        let rec = plaway_core::compile_sql(
            &s.catalog,
            &w.source,
            plaway_core::CompileOptions::default(),
        )
        .unwrap();
        let iter = plaway_core::compile_sql(
            &s.catalog,
            &w.source,
            plaway_core::CompileOptions::iterate(),
        )
        .unwrap();
        s.config.work_mem_bytes = 8 * 1024;

        let input = Value::text(generate_input(600, 5));
        s.reset_instrumentation();
        rec.run(&mut s, std::slice::from_ref(&input)).unwrap();
        let rec_pages = s.buffers.page_writes;
        assert!(rec_pages > 0, "recursive trace must spill");

        s.reset_instrumentation();
        iter.run(&mut s, &[input]).unwrap();
        assert_eq!(s.buffers.page_writes, 0, "WITH ITERATE keeps no trace");
    }
}
