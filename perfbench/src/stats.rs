//! Summary statistics for the benchmark's samples and its failure tally.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least [`TAIL_MIN_BEYOND`] samples beyond it, always with the
//! sample count. Quartiles follow Python's `statistics.quantiles(data,
//! n=4)` (the default "exclusive" method) so that spreads computed here and
//! by an outside script over the same values agree.

/// Percentiles a tail may be reported at, in tenths of a percent, lowest
/// first (integers, so ranks are exact).
const TAIL_LADDER: [usize; 5] = [750, 900, 950, 990, 999];

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// On an empty slice: a metric with no samples is a bug in the workload.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `values`.
///
/// # Panics
/// On an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// First, second and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them.
///
/// # Panics
/// On an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let data = sorted(values);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    // Python's integer arithmetic, clamp included.
    let (n, m, ld) = (4i64, ld as i64 + 1, ld as i64);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, and its nearest-rank value.
/// `None` when there are too few samples for any tail.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let p = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n - nearest_rank(n, *p) >= TAIL_MIN_BEYOND)?;
    Some((p as f64 / 10.0, sorted(values)[nearest_rank(n, p) - 1]))
}

/// 1-based nearest rank of the percentile `p_tenths / 10` among `n`
/// samples.
fn nearest_rank(n: usize, p_tenths: usize) -> usize {
    (p_tenths * n).div_ceil(1000).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Operations attempted and failed. A failed output check counts as a
/// failed operation, so `failed ≤ attempted` does not hold by construction:
/// every check is also counted as an attempt.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation that succeeded or failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records the outcome of a fallible operation and passes its value on.
    pub fn take<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.record(r.is_ok());
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    /// Records an output check; a failed check prints its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.record(ok);
        if !ok {
            eprintln!("perfbench: output check failed: {}", what());
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A named sample series (one end-to-end or per-layer timing).
#[derive(Debug, Clone, Default)]
pub struct Series {
    pub values: Vec<f64>,
}

impl Series {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    pub fn mean(&self) -> f64 {
        mean(&self.values)
    }

    /// Median, tail (when there are enough samples), mean and quartiles,
    /// with the sample count, for the human report.
    pub fn describe(&self, unit: &str) -> String {
        if self.is_empty() {
            return "no samples".to_string();
        }
        let [q1, med, q3] = quartiles(&self.values);
        let spread = format!("mean {:.4}, quartiles {q1:.4}..{q3:.4}", self.mean());
        match tail(&self.values) {
            Some((p, v)) => format!(
                "p50 {med:.4} {unit}, p{p} {v:.4} {unit}, {spread} (n={})",
                self.len()
            ),
            None => format!(
                "p50 {med:.4} {unit}, {spread} (n={}, too few for a tail)",
                self.len()
            ),
        }
    }
}

/// The end-to-end samples of a timed loop, shared by every workload.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    pub setup_s: Series,
    pub repair_s: Series,
    pub first_s: Series,
    pub spectrum_s: Series,
    /// Calls (or requests) completed inside the timed region.
    pub calls: u64,
    /// Seconds spent inside timed calls.
    pub busy_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[4.5]), 4.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[2.0]), [2.0, 2.0, 2.0]);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let series = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // Too few samples: 39 samples leave only 9 beyond p75.
        assert_eq!(tail(&series(39)), None);
        // 40 samples: p75 has exactly 10 beyond it, p90 only 4.
        assert_eq!(tail(&series(40)), Some((75.0, 30.0)));
        // 100 samples: p90 has 10 beyond, p95 only 5.
        assert_eq!(tail(&series(100)), Some((90.0, 90.0)));
        // 199 samples: p95 would leave 9, so still p90.
        assert_eq!(tail(&series(199)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&series(200)), Some((95.0, 190.0)));
        assert_eq!(tail(&series(1000)).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&series(10_000)).map(|t| t.0), Some(99.9));
        for n in [40, 100, 150, 200, 1000, 10_000] {
            let (p, v) = tail(&series(n)).expect("enough samples");
            let beyond = series(n).iter().filter(|x| **x > v).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} p{p}: {beyond} beyond");
        }
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        t.record(true);
        t.record(true);
        t.record(false);
        t.check(false, || "mismatch".into());
        assert_eq!(t.take("op", Ok::<u8, String>(1)), Some(1));
        assert_eq!(t.take("op", Err::<u8, String>("boom".into())), None);
        assert_eq!(
            t,
            Tally {
                attempted: 6,
                failed: 3
            }
        );
        assert_eq!(t.error_rate(), 0.5);
    }

    #[test]
    fn series_describe_names_the_tail_only_when_it_exists() {
        let mut s = Series::default();
        for i in 0..100 {
            s.push(i as f64);
        }
        assert!(s.describe("ms").contains("p90"));
        let short = Series {
            values: vec![1.0, 2.0],
        };
        assert!(short.describe("ms").contains("too few"));
    }
}
