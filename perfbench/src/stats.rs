//! Order statistics for latency samples.
//!
//! A tail percentile is only reported when the sample supports it: at
//! least [`MIN_BEYOND`] samples must lie beyond it. The tail reported is
//! the highest of [`TAIL_CANDIDATES`] that qualifies, falling back to the
//! median when none does; the name of the percentile used travels with
//! the value.

/// Samples that must lie strictly beyond a tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The `p`-th percentile (0..=100) of `sorted` by the nearest-rank
/// method: the smallest value with at least `p`% of samples at or below.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// The highest tail percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or the median when the sample is too small for any tail.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median, tail value and tail percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at [`Summary::tail_p`].
    pub tail: f64,
    /// The percentile the tail value was taken at.
    pub tail_p: f64,
    /// Windows the tail is a median over (1: the whole sample).
    pub windows: usize,
}

/// Summarises `samples` (any order).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_p = tail_percentile(sorted.len());
    Summary {
        n: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail: percentile(&sorted, tail_p),
        tail_p,
        windows: 1,
    }
}

/// Median of `samples` (any order); NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// Per-window figures of a timed sequence, as medians over its windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Full windows.
    pub windows: usize,
    /// Median of the samples in the full windows.
    pub p50: f64,
    /// Median over windows of each window's `p`-th percentile.
    pub tail: f64,
    /// Median over windows of samples completed per second.
    pub rate: f64,
}

/// Splits `samples` into consecutive windows of `window` samples (a
/// trailing partial window is dropped; a sample shorter than one window
/// is one window) and returns medians over them. `ends[i]` is when
/// sample `i` completed, in seconds from the start of the sequence.
pub fn windowed(samples: &[f64], ends: &[f64], window: usize, p: f64) -> Windowed {
    let window = window.clamp(1, samples.len().max(1));
    let chunks: Vec<(&[f64], &[f64])> = samples
        .chunks_exact(window)
        .zip(ends.chunks_exact(window))
        .collect();
    let mut kept = Vec::new();
    let mut tails = Vec::new();
    let mut rates = Vec::new();
    for (i, &(chunk, chunk_ends)) in chunks.iter().enumerate() {
        let start = if i == 0 {
            0.0
        } else {
            chunks[i - 1].1[window - 1]
        };
        let mut sorted = chunk.to_vec();
        sorted.sort_by(f64::total_cmp);
        tails.push(percentile(&sorted, p));
        rates.push(window as f64 / (chunk_ends[window - 1] - start));
        kept.extend_from_slice(chunk);
    }
    Windowed {
        windows: chunks.len(),
        p50: median(&kept),
        tail: median(&tails),
        rate: median(&rates),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, ten beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), 99.0);
        // 999 samples: p99 is rank 990, nine beyond -> fall to p95.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999), 95.0);
        // 200 samples: p95 has ten beyond.
        assert_eq!(tail_percentile(200), 95.0);
        // 100 samples: p90 has ten beyond.
        assert_eq!(tail_percentile(100), 90.0);
        // 40 samples: p75 has ten beyond.
        assert_eq!(tail_percentile(40), 75.0);
        // 20 samples: only the median has ten beyond.
        assert_eq!(tail_percentile(20), 50.0);
        // Too few for any tail: the median is reported.
        assert_eq!(tail_percentile(12), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn windows_take_medians_of_tails_and_rates() {
        // Three windows of 4: the middle one is slow and has a spike.
        let samples = [
            1.0, 1.0, 1.0, 2.0, 5.0, 5.0, 5.0, 50.0, 1.0, 1.0, 1.0, 3.0, 9.0,
        ];
        let ends: Vec<f64> = (1..=13).map(|i| f64::from(i) * 0.5).collect();
        let w = windowed(&samples, &ends, 4, 99.0);
        assert_eq!(w.windows, 3);
        // Window maxima 2, 50, 3 -> median 3; each window is 2 s long.
        assert_eq!(w.tail, 3.0);
        assert_eq!(w.rate, 2.0);
        assert_eq!(w.p50, 1.0);
        // Shorter than a window: one window of everything.
        let short = windowed(&[4.0, 2.0], &[1.0, 4.0], 10, 50.0);
        assert_eq!((short.windows, short.tail, short.rate), (1, 2.0, 0.5));
    }

    #[test]
    fn summary_reports_the_tail_it_used() {
        let v: Vec<f64> = (0..1500).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 1500);
        assert_eq!(s.tail_p, 99.0);
        assert_eq!(s.tail, 1484.0);
        assert_eq!(s.p50, 749.0);
        let small = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((small.p50, small.tail, small.tail_p), (2.0, 2.0, 50.0));
    }
}
