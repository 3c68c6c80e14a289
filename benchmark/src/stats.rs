//! The estimator: medians, quartiles and the reportable top percentile.
//!
//! Every timing the benchmark reports is the median over the reps of one
//! run, printed with its sample count, its quartiles, and the highest
//! percentile that still has at least [`MIN_BEYOND`] samples beyond it
//! (a p99 over 40 samples would be the maximum under another name).

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder [`Summary::top_pct`] is chosen from, in
/// permille so that rank arithmetic stays in integers (`100 * (1 - 0.9)`
/// is not 10 in floating point).
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Cut points dividing `sorted` into `n` equal-probability intervals —
/// Python's `statistics.quantiles(values, n=n)` (the default "exclusive"
/// method), so spreads computed here match the acceptance driver's.
/// Needs at least two samples.
pub fn quantiles(sorted: &[f64], n: usize) -> Vec<f64> {
    assert!(sorted.len() >= 2, "quantiles need at least two samples");
    let ld = sorted.len();
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
        })
        .collect()
}

/// Median of `sorted` (mean of the middle pair for even counts).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `sorted`, `permille` in 1..=1000.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (permille * sorted.len()).div_ceil(1000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest ladder percentile (in permille) with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, if any.
pub fn top_percentile(n: usize) -> Option<usize> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|pm| n * (1000 - pm) / 1000 >= MIN_BEYOND)
}

/// Sort a sample set ascending (timings are never NaN; `total_cmp` keeps
/// the sort total anyway).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The distribution summary printed beside every timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// The reported estimate.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Highest percentile with >= [`MIN_BEYOND`] samples beyond it.
    pub top_pct: Option<f64>,
    /// Its value.
    pub top_value: Option<f64>,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none. One sample is
    /// its own quartiles.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let s = sorted(samples.to_vec());
        let (q1, q3) = if s.len() >= 2 {
            let q = quantiles(&s, 4);
            (q[0], q[2])
        } else {
            (s[0], s[0])
        };
        let top = top_percentile(s.len());
        Some(Summary {
            n: s.len(),
            min: s[0],
            q1,
            median: median(&s),
            q3,
            max: s[s.len() - 1],
            top_pct: top.map(|pm| pm as f64 / 10.0),
            top_value: top.map(|pm| percentile(&s, pm)),
        })
    }

    /// Interquartile distance as a share of the median — the spread the
    /// repeat check and the acceptance driver both use.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of an unsorted sample set; 0 for none (a layer the workload
/// does not exercise reports 0).
pub fn median_of(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(&sorted(samples.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&v, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quantiles(&[3.0, 7.0], 4), vec![2.0, 5.0, 8.0]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quantiles(&[1.0, 2.0, 4.0, 8.0, 16.0], 4),
            vec![1.5, 4.0, 12.0]
        );
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 5.0, 9.0]), 5.0);
        assert_eq!(median(&[1.0, 5.0, 7.0, 9.0]), 6.0);
        assert_eq!(median_of(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median_of(&[]), 0.0);
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(500));
        assert_eq!(top_percentile(40), Some(750));
        assert_eq!(top_percentile(100), Some(900));
        assert_eq!(top_percentile(200), Some(950));
        assert_eq!(top_percentile(1000), Some(990));
        assert_eq!(top_percentile(10_000), Some(999));
        assert_eq!(Summary::of(&[1.0; 100]).unwrap().top_pct, Some(90.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&[4.0], 990), 4.0);
    }

    #[test]
    fn summary_reports_spread_as_a_share_of_the_median() {
        let s = Summary::of(&[10.0, 9.0, 11.0, 10.0, 10.0]).unwrap();
        assert_eq!((s.n, s.min, s.median, s.max), (5, 9.0, 10.0, 11.0));
        assert_eq!((s.q1, s.q3), (9.5, 10.5));
        assert!((s.iqr_share() - 0.1).abs() < 1e-12);
        assert_eq!(s.top_pct, None);
        assert!(Summary::of(&[]).is_none());
        let one = Summary::of(&[3.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (3.0, 3.0, 3.0));
    }
}
