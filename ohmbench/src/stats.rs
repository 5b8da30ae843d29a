//! Order statistics: medians and the tail-percentile rule.
//!
//! A tail is reported at the highest percentile of [`TAIL_LADDER`] that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, so a tail
//! value never rests on a handful of outliers. With too few samples for
//! any ladder step the tail is the maximum, and it is labelled so.

use std::time::Duration;

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` among `n` samples.
/// Counted in permille, so `99.9 x 10000` is exactly rank 9990.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n.max(1)) - 1
}

/// Number of samples strictly beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest ladder percentile with at least ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// Median (mean of the middle pair for an even count). Empty input is 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Arithmetic mean. Empty input is 0.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Element-wise median over repeated runs of the same operation schedule:
/// `out[i]` is the median of `runs[r][i]` over every run long enough to
/// have an `i`-th sample.
pub fn medians(runs: &[Vec<Duration>]) -> Vec<Duration> {
    let len = runs.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .map(|i| {
            let v: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get(i))
                .map(Duration::as_secs_f64)
                .collect();
            Duration::from_secs_f64(median(&v))
        })
        .collect()
}

/// Median and tail of one latency population, in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Tail value at [`Latency::tail_label`].
    pub tail: f64,
    /// `p99`, `p95`, ... or `max` when no ladder step has ten samples
    /// beyond it.
    pub tail_label: String,
}

impl Latency {
    /// Summarises durations.
    pub fn of(samples: &[Duration]) -> Latency {
        let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let n = ms.len();
        let (tail, tail_label) = match tail_percentile(n) {
            Some(p) => (percentile(&ms, p), format!("p{p}")),
            None => (ms.last().copied().unwrap_or(0.0), "max".to_string()),
        };
        Latency {
            n,
            p50: median(&ms),
            tail,
            tail_label,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 40 samples: p75 is rank 30, ten beyond it.
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        // p99 needs a thousand samples; one fewer falls back to p95.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn every_chosen_tail_has_ten_beyond_and_the_next_step_does_not() {
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
                let higher = TAIL_LADDER.iter().take_while(|&&q| q > p);
                for &q in higher {
                    assert!(beyond(n, q) < TAIL_MIN_BEYOND, "n={n} q={q}");
                }
            }
        }
    }

    #[test]
    fn latency_summary_labels_its_tail() {
        let ms = |v: u64| Duration::from_millis(v);
        let few: Vec<Duration> = (1..=9).map(ms).collect();
        let s = Latency::of(&few);
        assert_eq!(
            (s.n, s.p50, s.tail, s.tail_label.as_str()),
            (9, 5.0, 9.0, "max")
        );

        let many: Vec<Duration> = (1..=1000).map(ms).collect();
        let s = Latency::of(&many);
        assert_eq!(s.tail_label, "p99");
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.p50, 500.5);
    }

    #[test]
    fn medians_line_up_runs_sample_by_sample() {
        let ms = Duration::from_millis;
        let runs = vec![vec![ms(1), ms(10)], vec![ms(3), ms(30)], vec![ms(2)]];
        assert_eq!(medians(&runs), vec![ms(2), ms(20)]);
        assert!(medians(&[]).is_empty());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
