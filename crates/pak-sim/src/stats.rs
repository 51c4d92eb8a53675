//! Statistics for Monte-Carlo estimates.
//!
//! The simulator cross-validates exact pps analyses, so its primary output
//! is a proportion with a confidence interval: the exact value must fall
//! inside the interval (at the chosen confidence) for the cross-check to
//! pass.

use core::fmt;

/// A Bernoulli proportion estimate: `successes / trials`.
///
/// # Examples
///
/// ```
/// use pak_sim::stats::Proportion;
///
/// let p = Proportion::new(99, 100);
/// assert_eq!(p.point(), 0.99);
/// let (lo, hi) = p.wilson(2.576); // 99% confidence
/// assert!(lo < 0.99 && 0.99 < hi);
/// assert!(p.contains(0.985, 2.576));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Proportion {
    /// Number of successes.
    pub successes: u64,
    /// Number of trials.
    pub trials: u64,
}

impl Proportion {
    /// Creates a proportion.
    ///
    /// # Panics
    ///
    /// Panics if `successes > trials`.
    #[must_use]
    pub fn new(successes: u64, trials: u64) -> Self {
        assert!(successes <= trials, "successes cannot exceed trials");
        Proportion { successes, trials }
    }

    /// The point estimate `successes / trials` (`NaN` for zero trials).
    #[must_use]
    pub fn point(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.trials == 0 {
            f64::NAN
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// The Wilson score interval at critical value `z` (e.g. `1.96` for
    /// 95%, `2.576` for 99%). Returns `(0, 1)` for zero trials.
    ///
    /// The interval always contains the point estimate: the bounds are
    /// clamped to `[0, p]` and `[p, 1]`, so rounding can never exclude `p`
    /// (at `n` successes of `n` the upper bound is exactly `1`, at zero
    /// successes the lower bound is exactly `0`).
    #[must_use]
    pub fn wilson(&self, z: f64) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        #[allow(clippy::cast_precision_loss)]
        let n = self.trials as f64;
        let p = self.point();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
        ((center - half).clamp(0.0, p), (center + half).clamp(p, 1.0))
    }

    /// Whether `value` lies inside the Wilson interval at critical value
    /// `z` — the cross-validation criterion.
    #[must_use]
    pub fn contains(&self, value: f64, z: f64) -> bool {
        let (lo, hi) = self.wilson(z);
        (lo..=hi).contains(&value)
    }

    /// The standard error of the point estimate.
    #[must_use]
    pub fn stderr(&self) -> f64 {
        if self.trials == 0 {
            return f64::NAN;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = self.trials as f64;
        let p = self.point();
        (p * (1.0 - p) / n).sqrt()
    }
}

impl fmt::Display for Proportion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} ≈ {:.6}",
            self.successes,
            self.trials,
            self.point()
        )
    }
}

/// A conditional estimate `P(success | conditioning event)` from sampling:
/// trials outside the conditioning event are recorded but excluded from the
/// proportion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConditionalEstimate {
    /// The conditional proportion (over conditioning hits only).
    pub proportion: Proportion,
    /// Total trials sampled, including misses.
    pub total_trials: u64,
}

impl ConditionalEstimate {
    /// The estimated probability of the conditioning event itself.
    #[must_use]
    pub fn conditioning_rate(&self) -> f64 {
        Proportion::new(self.proportion.trials, self.total_trials).point()
    }
}

impl fmt::Display for ConditionalEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (conditioned on {}/{} trials)",
            self.proportion, self.proportion.trials, self.total_trials
        )
    }
}

/// A running mean/variance accumulator (Welford's algorithm) for
/// real-valued observables such as sampled beliefs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningMean {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningMean {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        #[allow(clippy::cast_precision_loss)]
        let n = self.n as f64;
        let delta = x - self.mean;
        self.mean += delta / n;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The sample mean (`NaN` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// The sample variance (unbiased; `NaN` for fewer than two samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.m2 / (self.n - 1) as f64
            }
        }
    }

    /// The standard error of the mean.
    #[must_use]
    pub fn stderr(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.n < 2 {
            f64::NAN
        } else {
            (self.variance() / self.n as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_and_stderr() {
        let p = Proportion::new(50, 200);
        assert_eq!(p.point(), 0.25);
        assert!((p.stderr() - (0.25f64 * 0.75 / 200.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn wilson_interval_basic_properties() {
        let p = Proportion::new(99, 100);
        let (lo, hi) = p.wilson(1.96);
        assert!(0.0 <= lo && lo < hi && hi <= 1.0);
        assert!(lo < 0.99 && 0.99 < hi);
        // Extreme proportions stay in [0, 1].
        let all = Proportion::new(100, 100);
        let (lo, hi) = all.wilson(1.96);
        assert!(lo > 0.9 && hi == 1.0);
        let none = Proportion::new(0, 100);
        let (lo, hi) = none.wilson(1.96);
        assert!(lo < 1e-9 && hi < 0.1);
    }

    #[test]
    fn wilson_interval_contains_its_point_estimate() {
        for n in 1..=5000u64 {
            for z in [1.96, 2.576] {
                for k in [0, 1, n / 2, n - 1, n] {
                    let p = Proportion::new(k, n);
                    let (lo, hi) = p.wilson(z);
                    assert!(
                        lo <= p.point() && p.point() <= hi,
                        "{k}/{n}, z = {z}: ({lo}, {hi})"
                    );
                }
                assert_eq!(Proportion::new(n, n).wilson(z).1, 1.0, "{n}/{n}, z = {z}");
                assert_eq!(Proportion::new(0, n).wilson(z).0, 0.0, "0/{n}, z = {z}");
                assert!(Proportion::new(n, n).contains(1.0, z), "{n}/{n}, z = {z}");
            }
        }
    }

    #[test]
    fn wilson_narrows_with_samples() {
        let small = Proportion::new(50, 100).wilson(1.96);
        let large = Proportion::new(5000, 10000).wilson(1.96);
        assert!((large.1 - large.0) < (small.1 - small.0));
    }

    #[test]
    fn zero_trials_degenerate() {
        let p = Proportion::new(0, 0);
        assert!(p.point().is_nan());
        assert_eq!(p.wilson(1.96), (0.0, 1.0));
        assert!(p.contains(0.5, 1.96));
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn bad_proportion_rejected() {
        let _ = Proportion::new(5, 4);
    }

    #[test]
    fn conditional_estimate_rates() {
        let e = ConditionalEstimate {
            proportion: Proportion::new(45, 50),
            total_trials: 100,
        };
        assert_eq!(e.conditioning_rate(), 0.5);
        assert_eq!(e.proportion.point(), 0.9);
        assert!(e.to_string().contains("50/100"));
    }

    #[test]
    fn running_mean_matches_direct_computation() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut acc = RunningMean::new();
        for x in xs {
            acc.push(x);
        }
        assert_eq!(acc.count(), 5);
        assert!((acc.mean() - 3.0).abs() < 1e-12);
        assert!((acc.variance() - 2.5).abs() < 1e-12);
        assert!((acc.stderr() - (2.5f64 / 5.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn running_mean_empty_is_nan() {
        let acc = RunningMean::new();
        assert!(acc.mean().is_nan());
        assert!(acc.variance().is_nan());
    }
}
