//! Engine-wide metrics: a lock-free registry on [`crate::Database`]
//! aggregating per-session execution counters at statement boundaries.
//!
//! Sessions fold each statement's [`crate::RuntimeStats`] delta and wall
//! time into the shared registry with relaxed atomic adds — no locks, no
//! contention beyond cache-line traffic — and keep an identical plain-u64
//! mirror ([`SessionMetrics`]) so tests can assert that the merged totals
//! exactly equal the sum of the per-session views. [`Database::metrics`]
//! snapshots the registry (plus the plan-cache counters and committed
//! catalog version) into a [`MetricsSnapshot`], which serializes to JSON
//! with a fixed, deterministic key order and parses back losslessly.
//!
//! [`Database::metrics`]: crate::Database::metrics

use std::sync::atomic::{AtomicU64, Ordering};

use crate::exec::RuntimeStats;

/// Log2 latency buckets: bucket `i` counts statements whose wall time in
/// nanoseconds has `i` significant bits, i.e. `ns in [2^(i-1), 2^i)` for
/// `i > 0` and `ns == 0` in bucket 0. 64 buckets cover the full `u64` range.
pub const LATENCY_BUCKETS: usize = 64;

/// Shared plan-cache counters, cumulative across all sessions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the shared cache at the current schema version.
    pub hits: u64,
    /// Lookups that missed (including stale-version entries).
    pub misses: u64,
    /// Entries discarded by the capacity sweep in `store_plan`.
    pub evictions: u64,
}

/// A mergeable log2-bucketed latency histogram (plain counters; the
/// registry keeps the atomic twin and converts on snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

/// Bucket index for a nanosecond measurement: its significant-bit count,
/// clamped so the top bucket absorbs everything from `2^62` ns (~146
/// years) up.
pub fn latency_bucket(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

impl LatencyHistogram {
    pub fn record(&mut self, ns: u64) {
        self.buckets[latency_bucket(ns)] += 1;
    }

    /// Fold another histogram into this one (buckets are independent
    /// counters, so merging is a per-bucket add).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Total recorded measurements.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound (ns) of the bucket containing the `q`-quantile
    /// measurement (0.0 ..= 1.0), or 0 when empty. Log-bucketed, so this
    /// is an order-of-magnitude answer — exactly what tail-latency
    /// attribution needs, at 64 words of state.
    pub fn approx_quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        u64::MAX
    }
}

/// Plain-u64 mirror of everything one session contributed to the shared
/// registry. Kept by [`crate::Session`] purely so concurrency tests can
/// prove the lock-free merge loses nothing: summed across sessions, every
/// field must equal the registry's total.
#[derive(Debug, Default, Clone, Copy)]
pub struct SessionMetrics {
    pub statements: u64,
    pub statement_ns_total: u64,
    pub snapshots_materialized: u64,
    pub snapshots_released: u64,
    pub batch_rows_retired: u64,
    pub udf_calls: u64,
    pub rows_scanned: u64,
    pub index_probes: u64,
    pub recursive_iterations: u64,
    pub vm_ops_executed: u64,
    pub tier_promotions: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub latency: LatencyHistogram,
}

impl SessionMetrics {
    pub(crate) fn record_statement(&mut self, ns: u64, delta: &RuntimeStats) {
        self.statements += 1;
        self.statement_ns_total += ns;
        self.snapshots_materialized += delta.snapshots_materialized;
        self.snapshots_released += delta.snapshots_released;
        self.batch_rows_retired += delta.batch.batch_rows_retired;
        self.udf_calls += delta.udf_calls;
        self.rows_scanned += delta.rows_scanned;
        self.index_probes += delta.index_probes;
        self.recursive_iterations += delta.recursive_iterations;
        self.vm_ops_executed += delta.vm_ops_executed;
        self.tier_promotions += delta.tier.tier_promotions;
        self.memo_hits += delta.memo_hits;
        self.memo_misses += delta.memo_misses;
        self.latency.record(ns);
    }
}

/// The lock-free registry living on [`crate::Database`]. Every field is a
/// relaxed atomic: totals are exact (adds never race away), only
/// cross-field consistency is unsynchronized — fine for monitoring.
#[derive(Debug)]
pub struct MetricsRegistry {
    statements: AtomicU64,
    statement_ns_total: AtomicU64,
    commits: AtomicU64,
    snapshots_materialized: AtomicU64,
    snapshots_released: AtomicU64,
    batch_rows_retired: AtomicU64,
    udf_calls: AtomicU64,
    rows_scanned: AtomicU64,
    index_probes: AtomicU64,
    recursive_iterations: AtomicU64,
    vm_ops_executed: AtomicU64,
    tier_promotions: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            statements: AtomicU64::new(0),
            statement_ns_total: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            snapshots_materialized: AtomicU64::new(0),
            snapshots_released: AtomicU64::new(0),
            batch_rows_retired: AtomicU64::new(0),
            udf_calls: AtomicU64::new(0),
            rows_scanned: AtomicU64::new(0),
            index_probes: AtomicU64::new(0),
            recursive_iterations: AtomicU64::new(0),
            vm_ops_executed: AtomicU64::new(0),
            tier_promotions: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl MetricsRegistry {
    /// Fold one finished statement into the shared totals.
    pub(crate) fn record_statement(&self, ns: u64, delta: &RuntimeStats) {
        let r = Ordering::Relaxed;
        self.statements.fetch_add(1, r);
        self.statement_ns_total.fetch_add(ns, r);
        self.snapshots_materialized
            .fetch_add(delta.snapshots_materialized, r);
        self.snapshots_released
            .fetch_add(delta.snapshots_released, r);
        self.batch_rows_retired
            .fetch_add(delta.batch.batch_rows_retired, r);
        self.udf_calls.fetch_add(delta.udf_calls, r);
        self.rows_scanned.fetch_add(delta.rows_scanned, r);
        self.index_probes.fetch_add(delta.index_probes, r);
        self.recursive_iterations
            .fetch_add(delta.recursive_iterations, r);
        self.vm_ops_executed.fetch_add(delta.vm_ops_executed, r);
        self.tier_promotions
            .fetch_add(delta.tier.tier_promotions, r);
        self.memo_hits.fetch_add(delta.memo_hits, r);
        self.memo_misses.fetch_add(delta.memo_misses, r);
        self.latency[latency_bucket(ns)].fetch_add(1, r);
    }

    pub(crate) fn record_commit(&self) {
        self.commits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(
        &self,
        plan_cache: PlanCacheStats,
        catalog_version: u64,
    ) -> MetricsSnapshot {
        let r = Ordering::Relaxed;
        let mut latency = LatencyHistogram::default();
        for (b, a) in latency.buckets.iter_mut().zip(self.latency.iter()) {
            *b = a.load(r);
        }
        MetricsSnapshot {
            batch_rows_retired: self.batch_rows_retired.load(r),
            catalog_version,
            commits: self.commits.load(r),
            index_probes: self.index_probes.load(r),
            latency,
            memo_hits: self.memo_hits.load(r),
            memo_misses: self.memo_misses.load(r),
            plan_cache,
            recursive_iterations: self.recursive_iterations.load(r),
            rows_scanned: self.rows_scanned.load(r),
            snapshots_materialized: self.snapshots_materialized.load(r),
            snapshots_released: self.snapshots_released.load(r),
            statement_ns_total: self.statement_ns_total.load(r),
            statements: self.statements.load(r),
            tier_promotions: self.tier_promotions.load(r),
            udf_calls: self.udf_calls.load(r),
            vm_ops_executed: self.vm_ops_executed.load(r),
        }
    }
}

/// A point-in-time view of the registry, plus the plan-cache counters and
/// the committed catalog version. Serializes to flat JSON with keys in
/// fixed alphabetical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub batch_rows_retired: u64,
    pub catalog_version: u64,
    pub commits: u64,
    pub index_probes: u64,
    pub latency: LatencyHistogram,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub plan_cache: PlanCacheStats,
    pub recursive_iterations: u64,
    pub rows_scanned: u64,
    pub snapshots_materialized: u64,
    pub snapshots_released: u64,
    pub statement_ns_total: u64,
    pub statements: u64,
    pub tier_promotions: u64,
    pub udf_calls: u64,
    pub vm_ops_executed: u64,
}

impl MetricsSnapshot {
    /// Deterministic JSON: one flat object, keys in alphabetical order,
    /// `latency_buckets` as a 64-element array. Hand-rolled because the
    /// container has no serde; `from_json` is the inverse.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(512);
        out.push('{');
        let _ = write!(out, "\"batch_rows_retired\":{}", self.batch_rows_retired);
        let _ = write!(out, ",\"catalog_version\":{}", self.catalog_version);
        let _ = write!(out, ",\"commits\":{}", self.commits);
        let _ = write!(out, ",\"index_probes\":{}", self.index_probes);
        out.push_str(",\"latency_buckets\":[");
        for (i, b) in self.latency.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push(']');
        let _ = write!(out, ",\"memo_hits\":{}", self.memo_hits);
        let _ = write!(out, ",\"memo_misses\":{}", self.memo_misses);
        let _ = write!(
            out,
            ",\"plan_cache_evictions\":{}",
            self.plan_cache.evictions
        );
        let _ = write!(out, ",\"plan_cache_hits\":{}", self.plan_cache.hits);
        let _ = write!(out, ",\"plan_cache_misses\":{}", self.plan_cache.misses);
        let _ = write!(
            out,
            ",\"recursive_iterations\":{}",
            self.recursive_iterations
        );
        let _ = write!(out, ",\"rows_scanned\":{}", self.rows_scanned);
        let _ = write!(
            out,
            ",\"snapshots_materialized\":{}",
            self.snapshots_materialized
        );
        let _ = write!(out, ",\"snapshots_released\":{}", self.snapshots_released);
        let _ = write!(out, ",\"statement_ns_total\":{}", self.statement_ns_total);
        let _ = write!(out, ",\"statements\":{}", self.statements);
        let _ = write!(out, ",\"tier_promotions\":{}", self.tier_promotions);
        let _ = write!(out, ",\"udf_calls\":{}", self.udf_calls);
        let _ = write!(out, ",\"vm_ops_executed\":{}", self.vm_ops_executed);
        out.push('}');
        out
    }

    /// Parse the output of [`MetricsSnapshot::to_json`]. Tolerates
    /// whitespace and key reordering; returns `None` on malformed input or
    /// missing keys.
    pub fn from_json(s: &str) -> Option<MetricsSnapshot> {
        let body = s.trim().strip_prefix('{')?.strip_suffix('}')?;
        let mut scalars = std::collections::HashMap::new();
        let mut buckets: Option<[u64; LATENCY_BUCKETS]> = None;
        let mut rest = body.trim();
        while !rest.is_empty() {
            rest = rest.trim_start_matches(',').trim_start();
            if rest.is_empty() {
                break;
            }
            let rest2 = rest.strip_prefix('"')?;
            let quote = rest2.find('"')?;
            let key = &rest2[..quote];
            let rest3 = rest2[quote + 1..].trim_start().strip_prefix(':')?;
            let rest3 = rest3.trim_start();
            if let Some(arr) = rest3.strip_prefix('[') {
                let close = arr.find(']')?;
                let mut parsed = [0u64; LATENCY_BUCKETS];
                let mut n = 0;
                for part in arr[..close].split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        continue;
                    }
                    if n >= LATENCY_BUCKETS {
                        return None;
                    }
                    parsed[n] = part.parse().ok()?;
                    n += 1;
                }
                if key == "latency_buckets" && n == LATENCY_BUCKETS {
                    buckets = Some(parsed);
                } else {
                    return None;
                }
                rest = arr[close + 1..].trim_start();
            } else {
                let end = rest3
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest3.len());
                if end == 0 {
                    return None;
                }
                let value: u64 = rest3[..end].parse().ok()?;
                scalars.insert(key.to_string(), value);
                rest = rest3[end..].trim_start();
            }
        }
        let get = |k: &str| scalars.get(k).copied();
        Some(MetricsSnapshot {
            batch_rows_retired: get("batch_rows_retired")?,
            catalog_version: get("catalog_version")?,
            commits: get("commits")?,
            index_probes: get("index_probes")?,
            latency: LatencyHistogram { buckets: buckets? },
            memo_hits: get("memo_hits")?,
            memo_misses: get("memo_misses")?,
            plan_cache: PlanCacheStats {
                hits: get("plan_cache_hits")?,
                misses: get("plan_cache_misses")?,
                evictions: get("plan_cache_evictions")?,
            },
            recursive_iterations: get("recursive_iterations")?,
            rows_scanned: get("rows_scanned")?,
            snapshots_materialized: get("snapshots_materialized")?,
            snapshots_released: get("snapshots_released")?,
            statement_ns_total: get("statement_ns_total")?,
            statements: get("statements")?,
            tier_promotions: get("tier_promotions")?,
            udf_calls: get("udf_calls")?,
            vm_ops_executed: get("vm_ops_executed")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_are_log2() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 1);
        assert_eq!(latency_bucket(2), 2);
        assert_eq!(latency_bucket(3), 2);
        assert_eq!(latency_bucket(4), 3);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn histogram_merge_and_quantile() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        for ns in [10, 20, 30] {
            a.record(ns);
        }
        for ns in [1_000_000, 2_000_000] {
            b.record(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        // Median lands in the small-ns buckets, p99 in the millisecond ones.
        assert!(a.approx_quantile_ns(0.5) <= 64);
        assert!(a.approx_quantile_ns(0.99) >= 1_000_000);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut latency = LatencyHistogram::default();
        latency.record(0);
        latency.record(1500);
        latency.record(u64::MAX);
        let snap = MetricsSnapshot {
            batch_rows_retired: 1,
            catalog_version: 2,
            commits: 3,
            index_probes: 15,
            latency,
            memo_hits: 17,
            memo_misses: 18,
            plan_cache: PlanCacheStats {
                hits: 4,
                misses: 5,
                evictions: 6,
            },
            recursive_iterations: 7,
            rows_scanned: 8,
            snapshots_materialized: 9,
            snapshots_released: 10,
            statement_ns_total: 11,
            statements: 12,
            tier_promotions: 16,
            udf_calls: 13,
            vm_ops_executed: 14,
        };
        let json = snap.to_json();
        assert_eq!(MetricsSnapshot::from_json(&json), Some(snap));
        // Deterministic: serializing twice yields the identical string.
        assert_eq!(json, snap.to_json());
        // Keys appear in fixed alphabetical order.
        let keys: Vec<usize> = [
            "batch_rows_retired",
            "catalog_version",
            "commits",
            "index_probes",
            "latency_buckets",
            "memo_hits",
            "memo_misses",
            "plan_cache_evictions",
            "plan_cache_hits",
            "plan_cache_misses",
        ]
        .iter()
        .map(|k| json.find(k).unwrap())
        .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{json}");
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert_eq!(MetricsSnapshot::from_json(""), None);
        assert_eq!(MetricsSnapshot::from_json("{}"), None);
        assert_eq!(MetricsSnapshot::from_json("{\"statements\":true}"), None);
    }
}
