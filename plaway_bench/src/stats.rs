//! Small numeric helpers: percentiles, the input fingerprint and the
//! benchmark's own random source (kept here so argument pools do not move
//! when an engine crate changes its RNG).

use plaway_common::Value;

/// 1-based nearest rank of percentile `pct` in a sample of `n`, computed
/// in integer per-mille so that e.g. p90 of 100 samples is exactly rank 90.
fn rank(n: usize, pct: f64) -> usize {
    let permille = (pct * 10.0).round() as usize;
    (n * permille).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `pct` percent of the sample at or below it.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

/// The tail percentile reported for `n` samples: 99 when at least ten
/// samples lie beyond it, otherwise the highest of 95, 90 and 75 that
/// keeps ten samples beyond (50 for tiny samples).
pub fn tail_pct(n: usize) -> f64 {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n >= 10 && n - rank(n, p) >= 10)
        .unwrap_or(50.0)
}

/// Median (the mean of the middle two for an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    (values[(n - 1) / 2] + values[n / 2]) / 2.0
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// 64-bit FNV-1a over everything the benchmark generates, so drift in the
/// generators (which live outside the benchmark) is caught.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length-prefixed, so `("ab", "c")` and `("a", "bc")` differ.
    pub fn str(&mut self, s: &str) {
        self.int(s.len() as i64);
        self.bytes(s.as_bytes());
    }

    pub fn int(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(b"N"),
            Value::Bool(b) => self.bytes(&[b'B', u8::from(*b)]),
            Value::Int(i) => {
                self.bytes(b"I");
                self.int(*i);
            }
            Value::Float(f) => {
                self.bytes(b"F");
                self.bytes(&f.to_bits().to_le_bytes());
            }
            Value::Text(s) => {
                self.bytes(b"T");
                self.str(s);
            }
            Value::Record(fields) => {
                self.bytes(b"R");
                self.values(fields);
            }
        }
    }

    pub fn values(&mut self, vs: &[Value]) {
        self.int(vs.len() as i64);
        vs.iter().for_each(|v| self.value(v));
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's source for argument pools and orderings.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as i64) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 50.0), 50);
        assert_eq!(percentile(&sample, 99.0), 99);
        assert_eq!(percentile(&sample, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[1, 2, 3], 0.0), 1);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_pct(1000), 99.0);
        assert_eq!(tail_pct(999), 95.0);
        assert_eq!(tail_pct(200), 95.0);
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(40), 75.0);
        assert_eq!(tail_pct(39), 50.0);
        assert_eq!(tail_pct(3), 50.0);
        for n in [40, 100, 200, 1000, 54_321] {
            let beyond = n - rank(n, tail_pct(n));
            assert!(beyond >= 10, "n={n}");
        }
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
