//! Percentiles from raw samples.
//!
//! Every timing is kept as its raw samples and summarised here, never
//! through a bucketed histogram, so a reported percentile is a value
//! that was actually observed.

/// The tail percentiles a timing may report, from the lowest.
pub const TAIL_CANDIDATES: [f64; 3] = [0.90, 0.95, 0.99];

/// Nearest-rank percentile (`q` in `[0, 1]`) of raw samples: the
/// smallest sample with at least `q · n` samples at or below it. NaN
/// for no samples, which marks the run incorrect.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of raw samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Samples strictly beyond percentile `q` of `n` samples under the
/// nearest-rank rule.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The highest of [`TAIL_CANDIDATES`] that still has at least ten of `n`
/// samples beyond it; `None` when even the lowest lacks them.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&q| beyond(n, q) >= 10)
}

/// The tail of `samples` (in the order taken) as the median, over
/// consecutive windows of at least `window` samples each, of each
/// window's percentile `q`. One stall then moves one window, not the
/// reported figure.
pub fn windowed_tail(samples: &[f64], window: usize, q: f64) -> f64 {
    let windows = (samples.len() / window.max(1)).max(1);
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let (lo, hi) = (
                w * samples.len() / windows,
                (w + 1) * samples.len() / windows,
            );
            percentile(&samples[lo..hi], q)
        })
        .collect();
    median(&tails)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_tail_is_the_median_window() {
        // Three windows of ten, 0..=9 each; the middle one holds two
        // stalls, which lift its p90 but not the median window's.
        let mut s: Vec<f64> = (0..30).map(|i| f64::from(i % 10)).collect();
        s[14] = 1000.0;
        s[15] = 1000.0;
        assert_eq!(windowed_tail(&s, 10, 0.9), 8.0);
        assert_eq!(percentile(&s[10..20], 0.9), 1000.0);
        // Too few samples for a second window: one window of all.
        assert_eq!(windowed_tail(&s[..19], 10, 0.95), 1000.0);
        assert_eq!(windowed_tail(&[4.0], 10, 0.9), 4.0);
        assert!(windowed_tail(&[], 10, 0.9).is_nan());
    }

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.99), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        // Order of the input does not matter.
        let mut rev = s.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 0.9), 9.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(50_000), Some(0.99));
    }
}
