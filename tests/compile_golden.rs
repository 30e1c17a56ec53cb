//! Golden snapshots of the compiler's own output.
//!
//! Every intermediate form the pipeline keeps — goto text, SSA text, the
//! optimizer's statistics, ANF text, the Figure 7 UDFs and both final
//! queries — is pinned byte for byte: for the six benchmark kernels as
//! readable snapshots, and for a generated corpus as one FNV-1a
//! fingerprint. A pass that is only meant to get faster must leave all of
//! them unchanged.
//!
//! The same sweep checks the print/parse round trip that planning from the
//! AST relies on: `Compiled::prepare` plans `Compiled::query` under the key
//! `Compiled::sql`, while any other session preparing that text parses it.
//! Both must arrive at the same tree.
//!
//! To regenerate after an intentional change to the compiler's output:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test compile_golden
//! ```

use std::path::PathBuf;
use std::sync::OnceLock;

use plaway_bench::{
    setup_checked, setup_fib, setup_parse, setup_settle, setup_traverse, setup_walk, BenchSetup,
};
use plsql_away::prelude::*;
use plsql_away::workloads::genprog::{self, GenConfig};

/// Programs per generator configuration in the fingerprinted corpus.
const CORPUS_SEEDS: u64 = 300;

/// Both fixpoint constructs the compiler emits.
fn modes() -> [(&'static str, CompileOptions); 2] {
    [
        ("recursive", CompileOptions::default()),
        ("iterate", CompileOptions::iterate()),
    ]
}

/// Compare against (or with `UPDATE_GOLDEN=1`, rewrite) the committed
/// snapshot in `tests/golden/`.
fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let actual = format!("{}\n", actual.trim_end());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        want, actual,
        "compiler output diverged from {name}; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

/// The pinned fields of one compile, in pipeline order.
fn sections(c: &Compiled) -> [(&'static str, String); 7] {
    [
        ("goto_text", c.goto_text.clone()),
        ("ssa_text", c.ssa_text.clone()),
        ("opt_stats", format!("{:?}", c.opt_stats)),
        ("anf_text", c.anf_text.clone()),
        ("udf_sql", c.udf_sql.clone()),
        ("sql", c.sql.clone()),
        ("batch_sql", c.batch_sql.clone()),
    ]
}

/// Why `c`'s printed queries do not parse back to the trees it holds, if
/// they do not.
fn round_trip_error(c: &Compiled) -> Option<String> {
    for (field, text, tree) in [
        ("sql", &c.sql, &c.query),
        ("batch_sql", &c.batch_sql, &c.batch_query),
    ] {
        match plsql_away::sql::parse_query(text) {
            Ok(parsed) if parsed == *tree => {}
            Ok(_) => return Some(format!("{field} parses to a different tree:\n{text}")),
            Err(e) => return Some(format!("{field} does not parse: {e}\n{text}")),
        }
    }
    None
}

fn kernels() -> Vec<(&'static str, BenchSetup)> {
    let config = EngineConfig::raw;
    vec![
        ("walk", setup_walk(config())),
        ("fibonacci", setup_fib(config())),
        ("traverse", setup_traverse(config())),
        ("parse", setup_parse(config())),
        ("checked_sum", setup_checked(config())),
        ("settle", setup_settle(config())),
    ]
}

#[test]
fn kernel_compiles_match_snapshots() {
    for (kernel, b) in kernels() {
        for (mode, options) in modes() {
            let c = compile_sql(&b.session.catalog, &b.source, options)
                .unwrap_or_else(|e| panic!("{kernel} {mode}: {e}"));
            let text: String = sections(&c)
                .iter()
                .map(|(name, body)| format!("-- {name}\n{}\n", body.trim_end()))
                .collect();
            assert_golden(&format!("compile_{kernel}_{mode}.snap"), &text);
        }
    }
}

#[test]
fn kernel_queries_round_trip_through_the_printer() {
    for (kernel, b) in kernels() {
        for (mode, options) in modes() {
            let c = compile_sql(&b.session.catalog, &b.source, options).unwrap();
            if let Some(err) = round_trip_error(&c) {
                panic!("{kernel} {mode}: {err}");
            }
        }
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hash `s` followed by a terminator, so field boundaries count.
    fn str(&mut self, s: &str) {
        for &b in s.as_bytes().iter().chain([0xff].iter()) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One sweep over the generated corpus, shared by the tests below.
struct CorpusReport {
    compiles: usize,
    fingerprint: u64,
    round_trip_failures: Vec<String>,
}

fn corpus() -> &'static CorpusReport {
    static REPORT: OnceLock<CorpusReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let mut session = Session::new(EngineConfig::raw());
        genprog::install_fixture(&mut session).unwrap();
        let mut report = CorpusReport {
            compiles: 0,
            fingerprint: 0,
            round_trip_failures: Vec::new(),
        };
        let mut h = Fnv::new();
        for blocking_queries in [false, true] {
            let cfg = GenConfig {
                blocking_queries,
                ..GenConfig::default()
            };
            for seed in 0..CORPUS_SEEDS {
                let prog = genprog::generate(seed, cfg.clone());
                for (mode, options) in modes() {
                    let c =
                        compile_sql(&session.catalog, &prog.source, options).unwrap_or_else(|e| {
                            panic!("seed {seed} {cfg:?} {mode}: {e}\n{}", prog.source)
                        });
                    for (_, body) in sections(&c) {
                        h.str(&body);
                    }
                    if let Some(err) = round_trip_error(&c) {
                        report
                            .round_trip_failures
                            .push(format!("seed {seed} {cfg:?} {mode}: {err}"));
                    }
                    report.compiles += 1;
                }
            }
        }
        report.fingerprint = h.0;
        report
    })
}

#[test]
fn corpus_fingerprint_is_pinned() {
    let r = corpus();
    assert_golden(
        "compile_corpus.snap",
        &format!("compiles {}\nfnv1a {:016x}", r.compiles, r.fingerprint),
    );
}

#[test]
fn corpus_queries_round_trip_through_the_printer() {
    let r = corpus();
    assert!(
        r.round_trip_failures.is_empty(),
        "{} of {} compiles do not round-trip; first: {}",
        r.round_trip_failures.len(),
        r.compiles,
        r.round_trip_failures[0]
    );
}
