//! Order statistics for latency samples.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice: the
/// smallest sample with at least `p`% of the samples at or below it.
///
/// Panics on an empty slice; callers check the sample count first.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail may be reported at, highest first. p99 needs
/// 1,000 samples and p90 needs 100 under [`tail_percentile`]'s rule.
pub const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten samples
/// beyond it among `n` samples (p50 when even p90 has fewer).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Runs `f` `times` times; the median wall time in milliseconds.
pub fn median_ms<E>(times: usize, mut f: impl FnMut() -> Result<(), E>) -> Result<f64, E> {
    let mut samples = Vec::with_capacity(times);
    for _ in 0..times {
        let t0 = std::time::Instant::now();
        f()?;
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&samples))
}

/// Latency summary of one request class: nearest-rank p50 and the tail
/// percentile the sample count supports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median latency.
    pub p50: f64,
    /// Which percentile `tail` is.
    pub tail_p: f64,
    /// Latency at `tail_p`.
    pub tail: f64,
    /// Mean latency.
    pub mean: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). `None` for no samples.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(sorted.len());
        Some(Summary {
            n: sorted.len(),
            p50: nearest_rank(&sorted, 50.0),
            tail_p,
            tail: nearest_rank(&sorted, tail_p),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        })
    }
}
