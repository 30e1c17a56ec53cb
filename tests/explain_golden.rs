//! Golden-file snapshots of EXPLAIN rendering.
//!
//! Plain `EXPLAIN` output is fully deterministic (plan shape only) and is
//! compared byte-for-byte. `EXPLAIN ANALYZE` output is deterministic in
//! everything except wall time, so the nanosecond fields (`time=`, `self=`)
//! are masked to `N` before comparison — loops, row counts, VM-op counts
//! and fixpoint internals stay pinned exactly.
//!
//! To regenerate after an intentional plan or renderer change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test explain_golden
//! ```

use std::path::PathBuf;

use plsql_away::prelude::*;

/// A seeded session with a small, fixed schema: an indexed key/value table
/// and enough rows that plans have non-trivial row counts.
fn seeded_session() -> Session {
    let mut s = Session::new(EngineConfig::raw());
    s.run("CREATE TABLE kv (k int, v int)").unwrap();
    s.run("INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50)")
        .unwrap();
    s.run("CREATE INDEX kv_k ON kv (k)").unwrap();
    s
}

/// Run an EXPLAIN statement and join the QUERY PLAN rows into one string.
fn run_explain(s: &mut Session, sql: &str) -> String {
    let r = s.run(sql).unwrap();
    assert_eq!(r.columns, vec!["QUERY PLAN".to_string()]);
    r.rows
        .iter()
        .map(|row| match &row[0] {
            Value::Text(t) => t.to_string(),
            other => panic!("QUERY PLAN row is not text: {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Replace the digit run after every `time=` / `self=` with `N`: wall time
/// is the only nondeterministic part of EXPLAIN ANALYZE output.
fn mask_times(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    loop {
        let hit = ["time=", "self="]
            .iter()
            .filter_map(|p| rest.find(p).map(|i| (i, p.len())))
            .min();
        match hit {
            Some((i, plen)) => {
                out.push_str(&rest[..i + plen]);
                rest = &rest[i + plen..];
                let digits = rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                assert!(digits > 0, "no digits after time=/self= in {rest:?}");
                out.push('N');
                rest = &rest[digits..];
            }
            None => {
                out.push_str(rest);
                break;
            }
        }
    }
    out
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
        "EXPLAIN output diverged from {name}; if the plan or renderer \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_explain_index_point_lookup() {
    let mut s = seeded_session();
    let out = run_explain(&mut s, "EXPLAIN SELECT v FROM kv WHERE k = 3");
    assert_golden("explain_index_point_lookup.snap", &out);
}

#[test]
fn golden_explain_filtered_aggregate() {
    let mut s = seeded_session();
    let out = run_explain(
        &mut s,
        "EXPLAIN SELECT count(*), sum(v) FROM kv WHERE v >= 20",
    );
    assert_golden("explain_filtered_aggregate.snap", &out);
}

#[test]
fn golden_explain_recursive_cte() {
    let mut s = seeded_session();
    let out = run_explain(
        &mut s,
        "EXPLAIN WITH RECURSIVE c(x, acc) AS (SELECT 1, 0 UNION ALL \
         SELECT x + 1, acc + x FROM c WHERE x <= 10) SELECT max(acc) FROM c",
    );
    assert_golden("explain_recursive_cte.snap", &out);
}

#[test]
fn golden_explain_analyze_filtered_aggregate() {
    let mut s = seeded_session();
    let out = run_explain(
        &mut s,
        "EXPLAIN ANALYZE SELECT count(*), sum(v) FROM kv WHERE v >= 20",
    );
    assert_golden("explain_analyze_filtered_aggregate.snap", &mask_times(&out));
}

#[test]
fn golden_explain_analyze_recursive_cte() {
    let mut s = seeded_session();
    let out = run_explain(
        &mut s,
        "EXPLAIN ANALYZE WITH RECURSIVE c(x, acc) AS (SELECT 1, 0 UNION ALL \
         SELECT x + 1, acc + x FROM c WHERE x <= 10) SELECT max(acc) FROM c",
    );
    assert_golden("explain_analyze_recursive_cte.snap", &mask_times(&out));
}

#[test]
fn mask_replaces_only_time_digits() {
    assert_eq!(
        mask_times("Filter (loops=1 rows=4 time=1234ns self=56ns vm_ops=9)"),
        "Filter (loops=1 rows=4 time=Nns self=Nns vm_ops=9)"
    );
    assert_eq!(mask_times("SeqScan on kv"), "SeqScan on kv");
}

#[test]
fn golden_explain_index_range_scan() {
    // `k >= 2 AND k < 4` selects 2 of 5 rows: the exact plan-time estimate
    // (both bounds are constants) satisfies `est * 2 <= n`, so the cost
    // model picks the btree range scan without any forcing.
    let mut s = seeded_session();
    let out = run_explain(&mut s, "EXPLAIN SELECT v FROM kv WHERE k >= 2 AND k < 4");
    assert_golden("explain_index_range_scan.snap", &out);
}

#[test]
fn golden_explain_indexed_inner_join() {
    // Inner join whose right side is a base-table scan with a btree on the
    // join column: the planner turns the right side into a per-left-row
    // index probe (a lateral IndexLookup) and keeps the residual ON
    // conjunct as the join predicate.
    let mut s = seeded_session();
    let out = run_explain(
        &mut s,
        "EXPLAIN SELECT a.k, b.v FROM kv AS a JOIN kv AS b \
         ON b.k = a.v / 10 AND b.v > 15",
    );
    assert_golden("explain_indexed_inner_join.snap", &out);
}

#[test]
fn golden_explain_analyze_index_point_lookup() {
    let mut s = seeded_session();
    let out = run_explain(&mut s, "EXPLAIN ANALYZE SELECT v FROM kv WHERE k = 3");
    assert_golden("explain_analyze_index_point_lookup.snap", &mask_times(&out));
}

#[test]
fn golden_explain_analyze_index_range_scan() {
    let mut s = seeded_session();
    let out = run_explain(
        &mut s,
        "EXPLAIN ANALYZE SELECT v FROM kv WHERE k >= 2 AND k < 4",
    );
    assert_golden("explain_analyze_index_range_scan.snap", &mask_times(&out));
}

#[test]
fn golden_explain_analyze_indexed_inner_join() {
    let mut s = seeded_session();
    let out = run_explain(
        &mut s,
        "EXPLAIN ANALYZE SELECT a.k, b.v FROM kv AS a JOIN kv AS b \
         ON b.k = a.v / 10 AND b.v > 15",
    );
    assert_golden("explain_analyze_indexed_inner_join.snap", &mask_times(&out));
}

#[test]
fn golden_explain_analyze_correlated_window() {
    // The window sub-query reads the outer `o.x`: five outer rows carry two
    // distinct keys, so the memoized window runs twice and answers three
    // calls from the memo. Expression sub-plans are not rendered as tree
    // nodes; the summary line reports them.
    let mut s = seeded_session();
    let out = run_explain(
        &mut s,
        "EXPLAIN ANALYZE SELECT o.x, (SELECT w.s FROM (SELECT kv.k, \
         sum(kv.v) OVER (ORDER BY kv.k) AS s FROM kv WHERE kv.k <= o.x) AS w \
         WHERE w.k = o.x) FROM (VALUES (1), (2), (1), (2), (1)) AS o(x)",
    );
    assert_golden("explain_analyze_correlated_window.snap", &mask_times(&out));
}

/// `seeded_session` plus `big(k, v)`: 50 rows, `k` from 0 to 49.
fn big_session() -> Session {
    let mut s = seeded_session();
    s.run("CREATE TABLE big (k int, v int)").unwrap();
    let rows = (0..50).map(|k| vec![Value::Int(k), Value::Int(k * 10)]);
    s.bulk_insert("big", rows.collect()).unwrap();
    s
}

#[test]
fn golden_explain_analyze_limit_over_projected_scan() {
    // LIMIT stops its input at the second row: the projection and the scan
    // each report the two rows they produced.
    let mut s = big_session();
    let out = run_explain(&mut s, "EXPLAIN ANALYZE SELECT big.v + 1 FROM big LIMIT 2");
    assert_golden(
        "explain_analyze_limit_over_projected_scan.snap",
        &mask_times(&out),
    );
}

#[test]
fn golden_explain_analyze_projected_scan() {
    let mut s = big_session();
    let out = run_explain(&mut s, "EXPLAIN ANALYZE SELECT big.v + 1 FROM big");
    assert_golden("explain_analyze_projected_scan.snap", &mask_times(&out));
}

#[test]
fn golden_explain_analyze_compiled_outer_query() {
    // The outer query of every compiled kernel: keep the one trace row
    // whose `call?` flag is off. Every node renders as executed: this
    // recursive arm is not a fused transition, so it runs as the general
    // plan. Only a fused arm, which `exec_recursive_cte` runs from its parts,
    // renders as never executed.
    let mut s = big_session();
    let out = run_explain(
        &mut s,
        "EXPLAIN ANALYZE WITH RECURSIVE c(x, d) AS (SELECT 1, true UNION ALL \
         SELECT c.x + 1, c.x + 1 < 5 FROM c WHERE c.d) \
         SELECT c.x FROM c WHERE NOT c.d",
    );
    assert_golden(
        "explain_analyze_compiled_outer_query.snap",
        &mask_times(&out),
    );
}
