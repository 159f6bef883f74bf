//! Order statistics over timing samples, and the FNV fingerprint that
//! pins a workload's generated inputs to its seed.

/// The percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 3] = [90.0, 99.0, 99.9];

/// The median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so spreads printed here match ones computed from the JSON.
/// A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return [s[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative at the ends of small samples, where Python extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// The `p`-th percentile by nearest rank: the smallest sample with at
/// least `p`% of the sample at or below it. `p` is resolved to 0.1%.
///
/// # Panics
///
/// Panics on an empty sample or a `p` outside `0..=100`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let s = sorted(xs);
    assert!(!s.is_empty(), "percentile of an empty sample");
    s[rank(s.len(), p).max(1) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples, in
/// integer per-mille arithmetic so that e.g. p99.9 of 10 000 is exactly
/// rank 9 990.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000)
}

/// The highest percentile of [`TAIL_LADDER`] that has at least ten of
/// `n` samples above it, or `None` when even p90 has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - rank(n, p) >= 10)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// An FNV-1a fold over a stream of input descriptions: two generated
/// input sets are the same exactly when their fingerprints agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds one input (its text, then a separator) into the print.
    pub fn add(&mut self, item: &str) {
        for b in item.bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The print, as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([7, 1, 4], n=4) == [1.0, 4.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0]), [1.0, 4.0, 7.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Few samples: the tail degenerates to the maximum.
        assert_eq!(percentile(&[2.0, 9.0, 4.0], 90.0), 9.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(108), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn fingerprint_separates_items_and_orders() {
        let print = |items: &[&str]| {
            let mut f = Fingerprint::default();
            items.iter().for_each(|i| f.add(i));
            f.hex()
        };
        assert_eq!(print(&["a", "b"]), print(&["a", "b"]));
        assert_ne!(print(&["a", "b"]), print(&["b", "a"]));
        assert_ne!(print(&["ab"]), print(&["a", "b"]));
        assert_eq!(print(&[]).len(), 16);
    }
}
