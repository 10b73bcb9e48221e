//! Order statistics for latency samples and repeats.
//!
//! Percentiles use the nearest-rank definition: the `q` percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(q * n)`. A tail
//! percentile is only *supported* when at least [`MIN_BEYOND`] samples lie
//! above that rank; with fewer, one outlier decides the value.

/// Samples that must lie beyond a tail percentile's rank for it to count
/// as measured rather than as a single outlier.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` (in `[0, 1]`) among `n` samples.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "rank of an empty sample");
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile of `sorted` (ascending). `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// Whether `n` samples support quantile `q`: at least [`MIN_BEYOND`]
/// samples lie beyond its nearest rank.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - nearest_rank(n, q) >= MIN_BEYOND
}

/// The smallest sample count that supports quantile `q`.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| supported(n, q))
        .expect("some n supports q < 1")
}

/// A latency sample reduced to the numbers the benchmark reports.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank); 0 when empty.
    pub p50: f64,
    /// 95th percentile (nearest rank); 0 when empty.
    pub p95: f64,
    /// Whether the sample supports the 95th percentile.
    pub p95_supported: bool,
}

impl Summary {
    /// Summarizes an unsorted sample.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 0.50).unwrap_or(0.0),
            p95: percentile(&sorted, 0.95).unwrap_or(0.0),
            p95_supported: supported(sorted.len(), 0.95),
        }
    }
}

/// Median and quartiles of repeats, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them,
/// so in-run spreads read the same way as the spread across runs.
/// Returns `(q1, median, q3)`; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        1 => Some((v[0], v[0], v[0])),
        ld => {
            // CPython's exclusive method, integer arithmetic included (it
            // extrapolates slightly for tiny samples, and so do we).
            let at = |i: i64| -> f64 {
                let (ld, m) = (ld as i64, ld as i64 + 1);
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = i * m - j * 4;
                let (lo, hi) = (v[j as usize - 1], v[j as usize]);
                (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0
            };
            Some((at(1), at(2), at(3)))
        }
    }
}

/// Total length of the union of `[start, end)` intervals: how much of a
/// parent span its (possibly overlapping) children cover.
pub fn covered(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Odd count: the median is the middle sample, never an average.
        assert_eq!(percentile(&[1.0, 2.0, 10.0], 0.5), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p95 of n samples sits at rank ceil(0.95 n); 200 leaves exactly 10.
        assert!(!supported(199, 0.95));
        assert!(supported(200, 0.95));
        assert_eq!(samples_needed(0.95), 200);
        assert_eq!(samples_needed(0.50), 20);
        assert!(!supported(0, 0.5));
        let s = Summary::of(&(0..150).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.n, 150);
        assert!(!s.p95_supported);
        let s = Summary::of(&(0..400).rev().map(f64::from).collect::<Vec<_>>());
        assert!(s.p95_supported);
        assert_eq!(s.p50, 199.0);
        assert_eq!(s.p95, 379.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn covered_merges_overlaps() {
        let mut iv = vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)];
        assert_eq!(covered(&mut iv), 4.0);
        assert_eq!(covered(&mut []), 0.0);
        let mut nested = vec![(0.0, 10.0), (2.0, 3.0)];
        assert_eq!(covered(&mut nested), 10.0);
    }
}
