//! Order statistics for the reported latencies.
//!
//! Tails follow one rule everywhere: a workload reports a fixed percentile
//! (recorded per workload in `BENCHMARK.json`), taken by nearest rank, and
//! only when at least [`MIN_BEYOND`] samples lie strictly beyond it. The
//! measured phase keeps running until every latency series has enough
//! samples for its percentile ([`Percentile::min_samples`]).

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile in basis points (`9900` = p99), so ranks are computed in
/// exact integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentile(pub u32);

impl Percentile {
    /// p50.
    pub const P50: Percentile = Percentile(5000);
    /// p90.
    pub const P90: Percentile = Percentile(9000);
    /// p99.
    pub const P99: Percentile = Percentile(9900);

    /// The 1-based nearest rank of this percentile among `n` samples:
    /// `⌈p·n⌉`, at least 1.
    pub fn rank(self, n: usize) -> usize {
        ((u64::from(self.0) * n as u64).div_ceil(10_000) as usize).max(1)
    }

    /// Samples strictly beyond the percentile's rank among `n`.
    pub fn beyond(self, n: usize) -> usize {
        n.saturating_sub(self.rank(n))
    }

    /// The fewest samples for which [`MIN_BEYOND`] lie beyond this
    /// percentile.
    pub fn min_samples(self) -> usize {
        (1..).find(|&n| self.beyond(n) >= MIN_BEYOND).unwrap()
    }

    /// A label such as `p99` or `p99.9`.
    pub fn label(self) -> String {
        format!("p{}", f64::from(self.0) / 100.0)
    }
}

/// The nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: Percentile) -> f64 {
    sorted[p.rank(sorted.len()) - 1]
}

/// The tail value at `p`, or an error when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (the tail would then rest on too few samples).
pub fn tail(sorted: &[f64], p: Percentile) -> Result<f64, String> {
    let beyond = p.beyond(sorted.len());
    if sorted.is_empty() || beyond < MIN_BEYOND {
        return Err(format!(
            "{} of {} samples leaves {beyond} beyond it (need {MIN_BEYOND})",
            p.label(),
            sorted.len()
        ));
    }
    Ok(percentile(sorted, p))
}

/// Sorts a sample in place (total order; the benchmark never produces NaN).
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(f64::total_cmp);
}

/// The median of a non-empty sample (mean of the two middle values for an
/// even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}
