//! Exact order statistics over the samples a run records.
//!
//! Every percentile the benchmark prints is computed here from the full,
//! sorted sample set (nearest-rank definition) — never from a bucketed
//! histogram — and is printed next to its sample count and the number of
//! samples beyond it.

/// Samples a tail percentile needs beyond it before it is trusted.
pub const MIN_BEYOND: usize = 10;

/// A sorted set of samples.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sort `samples` (IEEE total order) into a distribution.
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank `pct`-th percentile: the smallest sample with at least
    /// `pct`% of all samples at or below it. `0.0` for an empty set.
    pub fn percentile(&self, pct: u32) -> f64 {
        match rank(self.sorted.len(), pct) {
            0 => 0.0,
            r => self.sorted[r - 1],
        }
    }

    /// Samples strictly after the `pct`-th percentile's rank.
    pub fn beyond(&self, pct: u32) -> usize {
        self.sorted.len() - rank(self.sorted.len(), pct)
    }

    /// The median (nearest rank).
    pub fn median(&self) -> f64 {
        self.percentile(50)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// Arithmetic mean, `0.0` for an empty set.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sum() / self.sorted.len() as f64
        }
    }

    /// The highest of p99, p95, p90 and p75 with at least [`MIN_BEYOND`]
    /// samples beyond it (p50 when none has), as `(percentile, value)`.
    pub fn tail(&self) -> (u32, f64) {
        let pct = [99, 95, 90, 75]
            .into_iter()
            .find(|&p| self.beyond(p) >= MIN_BEYOND)
            .unwrap_or(50);
        (pct, self.percentile(pct))
    }

    /// `"n=…"` for a median, `"n=…, k beyond"` for a tail percentile, with
    /// a warning when fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn note(&self, pct: u32) -> String {
        if pct == 50 {
            return format!("n={}", self.len());
        }
        let beyond = self.beyond(pct);
        let warn = if beyond < MIN_BEYOND {
            " UNDER-SAMPLED"
        } else {
            ""
        };
        format!("n={}, {beyond} beyond{warn}", self.len())
    }
}

/// 1-based nearest rank of the `pct`-th percentile among `n` samples
/// (`0` only when `n == 0`), in exact integer arithmetic.
fn rank(n: usize, pct: u32) -> usize {
    let pct = pct.clamp(1, 100) as usize;
    (pct * n).div_ceil(100).clamp(usize::from(n > 0), n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: the smallest sample `x` with
    /// `count(v <= x) * 100 >= pct * n`.
    fn reference(samples: &[f64], pct: u32) -> f64 {
        let n = samples.len();
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        *sorted
            .iter()
            .find(|&&x| samples.iter().filter(|&&v| v <= x).count() * 100 >= pct as usize * n)
            .expect("the maximum always qualifies")
    }

    fn lcg_samples(n: usize, seed: u64, distinct: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((s >> 33) % distinct) as f64
            })
            .collect()
    }

    #[test]
    fn percentiles_match_a_sorted_reference() {
        for (n, distinct) in [
            (1, 5),
            (2, 5),
            (7, 3),
            (100, 1000),
            (1000, 50),
            (1013, 100_000),
        ] {
            for seed in 0..5 {
                let samples = lcg_samples(n, seed, distinct);
                let dist = Dist::new(samples.clone());
                for pct in [1, 10, 25, 50, 75, 90, 99, 100] {
                    assert_eq!(
                        dist.percentile(pct),
                        reference(&samples, pct),
                        "n={n} seed={seed} p{pct}"
                    );
                }
            }
        }
    }

    #[test]
    fn beyond_counts_samples_after_the_rank() {
        let dist = Dist::new((1..=1000).map(f64::from).collect());
        assert_eq!(dist.percentile(99), 990.0);
        assert_eq!(dist.beyond(99), 10);
        assert_eq!(dist.median(), 500.0);
        assert_eq!(dist.beyond(50), 500);
        let small = Dist::new((1..=999).map(f64::from).collect());
        assert_eq!(small.beyond(99), 9);
        assert!(small.note(99).ends_with("UNDER-SAMPLED"));
        assert!(!dist.note(99).ends_with("UNDER-SAMPLED"));
        assert_eq!(dist.tail(), (99, 990.0));
        assert_eq!(small.tail(), (95, 950.0));
        assert_eq!(Dist::new(vec![1.0; 12]).tail(), (50, 1.0));
    }

    #[test]
    fn empty_set_reads_zero() {
        let dist = Dist::new(Vec::new());
        assert_eq!(dist.percentile(99), 0.0);
        assert_eq!(dist.beyond(99), 0);
        assert_eq!(dist.mean(), 0.0);
    }
}
