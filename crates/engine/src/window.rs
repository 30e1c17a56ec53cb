//! Window function evaluation.
//!
//! The paper's `walk()` builds a cumulative probability distribution with
//! two windows over the `actions` table:
//!
//! ```sql
//! WINDOW leq AS (ORDER BY a.there),                                   -- RANGE UP/CURRENT (peers!)
//!        lt  AS (leq ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW)
//! ```
//!
//! so we implement `ROWS` frames with all bounds, `RANGE` frames with
//! UNBOUNDED / CURRENT ROW bounds (peer-group semantics), and the
//! `EXCLUDE CURRENT ROW` exclusion, plus the rank family and lag/lead.

use plaway_common::{Error, Result, Value};
use plaway_sql::ast::{FrameBound, FrameUnits};

use crate::catalog::Row;
use crate::exec::{cmp_key_vectors, eval, eval_all, EvalEnv, Runtime, Scopes};
use crate::ir::{AggFn, FrameIr, SortKey, WinFn, WindowExprIr};

/// Evaluate all window expressions; returns the input rows with one extra
/// column appended per window expression (in input order).
pub fn exec_window(
    rows: Vec<Row>,
    windows: &[WindowExprIr],
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Vec<Row>> {
    let n = rows.len();
    let mut extra: Vec<Vec<Value>> = vec![Vec::with_capacity(windows.len()); n];
    for w in windows {
        let col = eval_one_window(&rows, w, env, rt)?;
        for (i, v) in col.into_iter().enumerate() {
            extra[i].push(v);
        }
    }
    Ok(rows
        .into_iter()
        .zip(extra)
        .map(|(mut row, mut ex)| {
            row.append(&mut ex);
            row
        })
        .collect())
}

fn eval_one_window(
    rows: &[Row],
    w: &WindowExprIr,
    env: &EvalEnv<'_>,
    rt: &mut Runtime<'_>,
) -> Result<Vec<Value>> {
    let n = rows.len();

    // Evaluate partition keys, order keys and arguments once per row.
    let mut part_keys: Vec<Vec<Value>> = Vec::with_capacity(n);
    let mut order_keys: Vec<Vec<Value>> = Vec::with_capacity(n);
    let mut args: Vec<Vec<Value>> = Vec::with_capacity(n);
    for row in rows {
        let scopes = Scopes {
            row,
            parent: env.scopes,
        };
        let inner = EvalEnv {
            scopes: Some(&scopes),
            params: env.params,
        };
        part_keys.push(eval_all(&w.partition_by, &inner, rt)?);
        let mut ok = Vec::with_capacity(w.order_by.len());
        for k in &w.order_by {
            ok.push(eval(&k.expr, &inner, rt)?);
        }
        order_keys.push(ok);
        args.push(eval_all(&w.args, &inner, rt)?);
    }

    // Partition: group row indices by partition key (first-seen order).
    let mut partitions: Vec<Vec<usize>> = Vec::new();
    {
        let mut by_key: std::collections::HashMap<&[Value], usize> =
            std::collections::HashMap::new();
        for (i, part_key) in part_keys.iter().enumerate() {
            let key = part_key.as_slice();
            match by_key.get(key) {
                Some(&p) => partitions[p].push(i),
                None => {
                    by_key.insert(key, partitions.len());
                    partitions.push(vec![i]);
                }
            }
        }
    }

    let mut out: Vec<Value> = vec![Value::Null; n];
    for partition in &mut partitions {
        // Sort the partition by the window's ORDER BY (stable).
        partition.sort_by(|&a, &b| cmp_key_vectors(&order_keys[a], &order_keys[b], &w.order_by));
        eval_partition(partition, &order_keys, &args, w, &mut out)?;
    }
    Ok(out)
}

/// Peer group bounds: `[peer_start[i], peer_end[i])` positions within the
/// sorted partition that share row i's order keys.
fn peer_bounds(
    sorted: &[usize],
    order_keys: &[Vec<Value>],
    keys: &[SortKey],
) -> (Vec<usize>, Vec<usize>) {
    let p = sorted.len();
    let mut start = vec![0usize; p];
    let mut end = vec![0usize; p];
    let mut i = 0;
    while i < p {
        let mut j = i + 1;
        while j < p
            && cmp_key_vectors(&order_keys[sorted[i]], &order_keys[sorted[j]], keys)
                == std::cmp::Ordering::Equal
        {
            j += 1;
        }
        for k in i..j {
            start[k] = i;
            end[k] = j;
        }
        i = j;
    }
    (start, end)
}

fn eval_partition(
    sorted: &[usize],
    order_keys: &[Vec<Value>],
    args: &[Vec<Value>],
    w: &WindowExprIr,
    out: &mut [Value],
) -> Result<()> {
    let p = sorted.len();
    match w.func {
        WinFn::RowNumber => {
            for (pos, &row) in sorted.iter().enumerate() {
                out[row] = Value::Int(pos as i64 + 1);
            }
            Ok(())
        }
        WinFn::Rank | WinFn::DenseRank => {
            let (peer_start, _) = peer_bounds(sorted, order_keys, &w.order_by);
            let mut dense = 0i64;
            let mut last_start = usize::MAX;
            for (pos, &row) in sorted.iter().enumerate() {
                if peer_start[pos] != last_start {
                    dense += 1;
                    last_start = peer_start[pos];
                }
                out[row] = match w.func {
                    WinFn::Rank => Value::Int(peer_start[pos] as i64 + 1),
                    _ => Value::Int(dense),
                };
            }
            Ok(())
        }
        WinFn::Lag | WinFn::Lead => {
            for (pos, &row) in sorted.iter().enumerate() {
                let target = if w.func == WinFn::Lag {
                    pos.checked_sub(1)
                } else {
                    (pos + 1 < p).then_some(pos + 1)
                };
                out[row] = match target {
                    Some(t) => args[sorted[t]]
                        .first()
                        .cloned()
                        .ok_or_else(|| Error::exec("lag/lead needs an argument"))?,
                    None => args[row].get(1).cloned().unwrap_or(Value::Null),
                };
            }
            Ok(())
        }
        WinFn::FirstValue | WinFn::LastValue => {
            let frames = compute_frames(sorted, order_keys, w)?;
            for (pos, &row) in sorted.iter().enumerate() {
                let (s, e, excl) = frames[pos];
                let pick = if w.func == WinFn::FirstValue {
                    (s..e).find(|&i| !(excl && i == pos))
                } else {
                    (s..e).rev().find(|&i| !(excl && i == pos))
                };
                out[row] = match pick {
                    Some(i) => args[sorted[i]]
                        .first()
                        .cloned()
                        .ok_or_else(|| Error::exec("first/last_value needs an argument"))?,
                    None => Value::Null,
                };
            }
            Ok(())
        }
        WinFn::Agg(agg) => eval_frame_aggregate(sorted, order_keys, args, w, agg, out),
    }
}

/// Frame `[start, end)` positions (within the sorted partition) per row,
/// plus whether the current row is excluded.
fn compute_frames(
    sorted: &[usize],
    order_keys: &[Vec<Value>],
    w: &WindowExprIr,
) -> Result<Vec<(usize, usize, bool)>> {
    let p = sorted.len();
    // Default frame: RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW when
    // ORDER BY is present, else the whole partition.
    let default_frame = FrameIr {
        units: FrameUnits::Range,
        start: FrameBound::UnboundedPreceding,
        end: if w.order_by.is_empty() {
            FrameBound::UnboundedFollowing
        } else {
            FrameBound::CurrentRow
        },
        exclude_current_row: false,
    };
    let frame = w.frame.as_ref().unwrap_or(&default_frame);

    let (peer_start, peer_end) = peer_bounds(sorted, order_keys, &w.order_by);
    let mut frames = Vec::with_capacity(p);
    for pos in 0..p {
        let (s, e) = match frame.units {
            FrameUnits::Rows => {
                let s = match &frame.start {
                    FrameBound::UnboundedPreceding => 0,
                    FrameBound::Preceding(k) => pos.saturating_sub(*k as usize),
                    FrameBound::CurrentRow => pos,
                    FrameBound::Following(k) => (pos + *k as usize).min(p),
                    FrameBound::UnboundedFollowing => {
                        return Err(Error::plan("frame start cannot be UNBOUNDED FOLLOWING"))
                    }
                };
                let e = match &frame.end {
                    FrameBound::UnboundedPreceding => {
                        return Err(Error::plan("frame end cannot be UNBOUNDED PRECEDING"))
                    }
                    FrameBound::Preceding(k) => (pos + 1).saturating_sub(*k as usize),
                    FrameBound::CurrentRow => pos + 1,
                    FrameBound::Following(k) => (pos + 1 + *k as usize).min(p),
                    FrameBound::UnboundedFollowing => p,
                };
                (s, e.max(s))
            }
            FrameUnits::Range => {
                // Peer-group semantics; offset RANGE bounds are not needed by
                // the paper and are rejected at plan time.
                let s = match &frame.start {
                    FrameBound::UnboundedPreceding => 0,
                    FrameBound::CurrentRow => peer_start[pos],
                    other => {
                        return Err(Error::unsupported(format!(
                            "RANGE frame bound {other:?} not supported"
                        )))
                    }
                };
                let e = match &frame.end {
                    FrameBound::CurrentRow => peer_end[pos],
                    FrameBound::UnboundedFollowing => p,
                    other => {
                        return Err(Error::unsupported(format!(
                            "RANGE frame bound {other:?} not supported"
                        )))
                    }
                };
                (s, e.max(s))
            }
        };
        frames.push((s, e, frame.exclude_current_row));
    }
    Ok(frames)
}

fn eval_frame_aggregate(
    sorted: &[usize],
    order_keys: &[Vec<Value>],
    args: &[Vec<Value>],
    w: &WindowExprIr,
    agg: AggFn,
    out: &mut [Value],
) -> Result<()> {
    let frames = compute_frames(sorted, order_keys, w)?;
    // Recompute each frame's aggregate.
    for (pos, &(s, e, excl)) in frames.iter().enumerate() {
        let mut count: i64 = 0;
        let mut sum: Option<Value> = None;
        let mut extreme: Option<Value> = None;
        let mut bool_acc: Option<bool> = None;
        for (i, &row) in sorted.iter().enumerate().take(e).skip(s) {
            if excl && i == pos {
                continue;
            }
            let v = arg_value(args, row, agg)?;
            match (agg, v) {
                (AggFn::CountStar, _) => count += 1,
                (_, Some(v)) if !v.is_null() => match agg {
                    AggFn::Count => count += 1,
                    AggFn::Sum | AggFn::Avg => {
                        count += 1;
                        sum = Some(match sum.take() {
                            None => v,
                            Some(acc) => acc.add(&v)?,
                        });
                    }
                    AggFn::Min | AggFn::Max => {
                        extreme = Some(match extreme.take() {
                            None => v,
                            Some(cur) => {
                                let keep_new = match v.sql_cmp(&cur)? {
                                    Some(std::cmp::Ordering::Less) => agg == AggFn::Min,
                                    Some(std::cmp::Ordering::Greater) => agg == AggFn::Max,
                                    _ => false,
                                };
                                if keep_new {
                                    v
                                } else {
                                    cur
                                }
                            }
                        });
                    }
                    AggFn::BoolAnd => {
                        let b = v.as_bool()?.unwrap_or(false);
                        bool_acc = Some(bool_acc.map_or(b, |a| a && b));
                    }
                    AggFn::BoolOr => {
                        let b = v.as_bool()?.unwrap_or(false);
                        bool_acc = Some(bool_acc.map_or(b, |a| a || b));
                    }
                    AggFn::CountStar => unreachable!(),
                },
                _ => {}
            }
        }
        out[sorted[pos]] = match agg {
            AggFn::Min | AggFn::Max => extreme.unwrap_or(Value::Null),
            AggFn::BoolAnd | AggFn::BoolOr => bool_acc.map(Value::Bool).unwrap_or(Value::Null),
            AggFn::Count | AggFn::CountStar => Value::Int(count),
            AggFn::Sum => sum.unwrap_or(Value::Null),
            AggFn::Avg => match sum {
                None => Value::Null,
                Some(s) => Value::Float(s.as_float().unwrap_or(0.0) / count as f64),
            },
        };
    }
    Ok(())
}

fn arg_value(args: &[Vec<Value>], row: usize, agg: AggFn) -> Result<Option<Value>> {
    if agg == AggFn::CountStar {
        return Ok(None);
    }
    args[row]
        .first()
        .cloned()
        .map(Some)
        .ok_or_else(|| Error::exec("window aggregate needs an argument"))
}

#[cfg(test)]
mod tests {
    use plaway_common::Value;

    use crate::session::Session;

    /// `sum(x) OVER (ORDER BY x <dir> ROWS BETWEEN UNBOUNDED PRECEDING AND
    /// <end>)` over a one-column table, in `ORDER BY x <dir>` order.
    fn running(values: &str, ty: &str, dir: &str, end: &str) -> Result<Vec<Value>, String> {
        let mut s = Session::default();
        s.run(&format!("CREATE TABLE t (x {ty})")).unwrap();
        s.run(&format!("INSERT INTO t VALUES {values}")).unwrap();
        let sql = format!(
            "SELECT sum(x) OVER (ORDER BY x {dir} ROWS BETWEEN UNBOUNDED PRECEDING AND {end}) \
             FROM t ORDER BY x {dir}"
        );
        s.run(&sql)
            .map(|r| r.rows.into_iter().map(|mut row| row.remove(0)).collect())
            .map_err(|e| e.to_string())
    }

    const EXCLUDED: &str = "CURRENT ROW EXCLUDE CURRENT ROW";

    #[test]
    fn excluded_empty_frame_sums_to_null() {
        let got = running("(0.1), (0.2), (0.3), (0.7)", "float", "", EXCLUDED).unwrap();
        assert!(got[0].is_null(), "{got:?}");
        // The same frames, written without an exclusion.
        assert_eq!(
            got,
            running("(0.1), (0.2), (0.3), (0.7)", "float", "", "1 PRECEDING").unwrap()
        );
    }

    #[test]
    fn excluded_float_sums_are_exact() {
        let got = running("(0.1), (0.2), (0.3), (0.7)", "float", "", EXCLUDED).unwrap();
        let Value::Float(f) = got[1] else {
            panic!("{got:?}")
        };
        assert_eq!(f.to_bits(), 0.1f64.to_bits());
        let Value::Float(f) = got[3] else {
            panic!("{got:?}")
        };
        assert_eq!(f.to_bits(), (0.1f64 + 0.2 + 0.3).to_bits());
    }

    #[test]
    fn excluded_int_sums_never_add_the_current_row() {
        // Row i64::MAX's frame is empty and row 1's is {i64::MAX}: nothing
        // overflows unless the current row is added and then subtracted.
        let max = i64::MAX;
        let got = running(&format!("({max}), (1)"), "int", "DESC", EXCLUDED).unwrap();
        assert_eq!(got, vec![Value::Null, Value::Int(max)]);
        // With -5 added, row -5's frame {i64::MAX, 1} really does overflow,
        // exactly as the same frames written without an exclusion report.
        let values = format!("({max}), (1), (-5)");
        let excluded = running(&values, "int", "DESC", EXCLUDED);
        let written_out = running(&values, "int", "DESC", "1 PRECEDING");
        assert!(excluded.is_err(), "{excluded:?}");
        assert_eq!(excluded, written_out);
    }
}
