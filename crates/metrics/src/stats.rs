//! Summary statistics over samples of routing metrics.

/// Nearest-rank percentile of an **ascending-sorted** sample slice:
/// the smallest element such that at least a fraction `q` of the
/// population is at or below it. Empty input yields 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary of a sample: the aggregates the paper's figures report (mean
/// for Figs. 6–7, max for Fig. 5) plus dispersion for our extended
/// reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (lower-middle for even sizes).
    pub median: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
}

impl Summary {
    /// Computes a summary; returns the zero summary for an empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        let n = samples.len();
        if n == 0 {
            return Summary {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p95: 0.0,
            };
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: sorted[(n - 1) / 2],
            p95: percentile(&sorted, 0.95),
        }
    }

    /// Half-width of the normal-approximation 95% confidence interval of
    /// the mean (`1.96·σ/√n`; 0 for n < 2).
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.std_dev / (self.n as f64).sqrt()
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3}±{:.3} min={:.3} med={:.3} p95={:.3} max={:.3}",
            self.n,
            self.mean,
            self.ci95(),
            self.min,
            self.median,
            self.p95,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.p95, 5.0);
        assert!((s.std_dev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.ci95(), 0.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[7.5]);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.5);
        assert_eq!(s.ci95(), 0.0);
    }

    #[test]
    fn median_even_sample_is_lower_middle() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.95), 95.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn p95_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.p95, 95.0);
    }

    #[test]
    fn ci_shrinks_with_n() {
        let a = Summary::of(&[1.0, 3.0]);
        let many: Vec<f64> = std::iter::repeat_n([1.0, 3.0], 50).flatten().collect();
        let b = Summary::of(&many);
        assert!(b.ci95() < a.ci95());
    }

    #[test]
    fn display_mentions_all_fields() {
        let text = Summary::of(&[1.0, 2.0]).to_string();
        assert!(text.contains("n=2") && text.contains("mean="));
    }
}
