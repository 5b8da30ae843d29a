//! Statistics collection for simulation reports.
//!
//! These are deliberately simple accumulators: the figures in the paper are
//! averages, fractions and breakdowns, so we track exact sums rather than
//! approximate sketches.

use std::fmt;

use crate::time::Ps;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use ohm_sim::Counter;
/// let mut c = Counter::new();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Running count/sum/mean over `f64` samples.
///
/// # Example
///
/// ```
/// use ohm_sim::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0] { s.push(x); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.sum(), 6.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStats {
    count: u64,
    sum: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats::default()
    }

    /// Adds a sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
    }

    /// Adds a [`Ps`] duration sample, in nanoseconds.
    #[inline]
    pub fn push_ps(&mut self, t: Ps) {
        self.push(t.as_ns_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A power-of-two bucketed latency histogram.
///
/// Bucket `i` counts samples `x` with `2^i <= x < 2^(i+1)` (bucket 0 also
/// absorbs `x == 0`). Useful for tail-latency inspection in examples and
/// debugging; the paper's figures use means.
///
/// # Example
///
/// ```
/// use ohm_sim::Histogram;
/// let mut h = Histogram::new();
/// h.record(5);
/// h.record(6);
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.bucket_count(2), 2); // both fall in [4, 8)
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
        }
    }

    /// Records a sample.
    #[inline]
    pub fn record(&mut self, x: u64) {
        let idx = if x == 0 {
            0
        } else {
            63 - x.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += x as u128;
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Number of samples in bucket `i` (`[2^i, 2^(i+1))`).
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Number of buckets (fixed at 64: one per power of two of `u64`).
    pub const fn buckets() -> usize {
        64
    }

    /// Inclusive lower bound of bucket `i` (bucket 0 also absorbs 0).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    pub fn bucket_lower_bound(i: usize) -> u64 {
        assert!(i < 64, "bucket index out of range: {i}");
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Exclusive upper bound of bucket `i` (`u64::MAX` for the last bucket,
    /// whose true bound does not fit).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        assert!(i < 64, "bucket index out of range: {i}");
        if i == 63 {
            u64::MAX
        } else {
            1u64 << (i + 1)
        }
    }

    /// Iterates `(bucket_index, lower_bound, count)` over non-empty buckets.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, Self::bucket_lower_bound(i), c))
    }

    /// Approximate quantile: the lower bound of the bucket containing the
    /// `q`-quantile sample (`q` in `[0, 1]`). Returns 0 when empty.
    pub fn quantile_lower_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        1u64 << 63
    }
}

/// A windowed busy-time accumulator for "utilization over time" series.
///
/// A `Timeline` accounts *intervals*: each `[start, end)` busy interval
/// is split across fixed-width windows, so every window ends up with the
/// busy time that actually fell inside it. Dividing by the window width gives a
/// utilization-over-time curve for one resource (a controller pipeline, an
/// optical virtual channel, a DRAM module).
///
/// Intervals recorded on one timeline are expected to come from one
/// single-server resource and therefore not overlap; utilization values
/// are clamped to `[0, 1]` regardless.
///
/// # Example
///
/// ```
/// use ohm_sim::{Ps, Timeline};
///
/// let mut tl = Timeline::new(Ps::from_ns(100));
/// tl.record_busy(Ps::from_ns(50), Ps::from_ns(150)); // spans two windows
/// assert_eq!(tl.busy_in(0), Ps::from_ns(50));
/// assert_eq!(tl.busy_in(1), Ps::from_ns(50));
/// assert!((tl.utilization_in(0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    window: Ps,
    busy: Vec<Ps>,
}

impl Timeline {
    /// Creates a timeline with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if the window width is zero.
    pub fn new(window: Ps) -> Self {
        assert!(window > Ps::ZERO, "window width must be positive");
        Timeline {
            window,
            busy: Vec::new(),
        }
    }

    /// Accounts a busy interval `[start, end)`, splitting it across the
    /// windows it overlaps. Empty or inverted intervals are ignored.
    pub fn record_busy(&mut self, start: Ps, end: Ps) {
        if end <= start {
            return;
        }
        let w = self.window.as_ps();
        let first = (start.as_ps() / w) as usize;
        let last = ((end.as_ps() - 1) / w) as usize;
        if last >= self.busy.len() {
            self.busy.resize(last + 1, Ps::ZERO);
        }
        for (i, slot) in self.busy.iter_mut().enumerate().take(last + 1).skip(first) {
            let ws = Ps::from_ps(i as u64 * w);
            let we = ws + self.window;
            *slot += end.min(we) - start.max(ws);
        }
    }

    /// Number of windows observed so far.
    pub fn len(&self) -> usize {
        self.busy.len()
    }

    /// Whether no busy time has been recorded.
    pub fn is_empty(&self) -> bool {
        self.busy.is_empty()
    }

    /// Busy time that fell inside window `i` (zero for unseen windows).
    pub fn busy_in(&self, i: usize) -> Ps {
        self.busy.get(i).copied().unwrap_or(Ps::ZERO)
    }

    /// Busy fraction of window `i`, clamped to `[0, 1]`.
    pub fn utilization_in(&self, i: usize) -> f64 {
        (self.busy_in(i).as_ps() as f64 / self.window.as_ps() as f64).clamp(0.0, 1.0)
    }

    /// The utilization curve, one value per window, each in `[0, 1]`.
    pub fn utilizations(&self) -> Vec<f64> {
        (0..self.busy.len())
            .map(|i| self.utilization_in(i))
            .collect()
    }

    /// Total busy time across all windows.
    pub fn total_busy(&self) -> Ps {
        self.busy.iter().copied().sum()
    }

    /// Peak per-window utilization (0 when empty).
    pub fn peak_utilization(&self) -> f64 {
        (0..self.busy.len())
            .map(|i| self.utilization_in(i))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.add(10);
        c.incr();
        assert_eq!(c.get(), 11);
        assert_eq!(c.to_string(), "11");
    }

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 6.0, 8.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 20.0);
        assert_eq!(s.mean(), 5.0);
    }

    #[test]
    fn running_stats_empty_is_zero() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn running_stats_push_ps() {
        let mut s = RunningStats::new();
        s.push_ps(Ps::from_ns(10));
        assert_eq!(s.mean(), 10.0);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.bucket_count(0), 2); // 0 and 1
        assert_eq!(h.bucket_count(1), 2); // 2 and 3
        assert_eq!(h.bucket_count(10), 1); // 1024
        assert!((h.mean() - 206.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantile() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(4);
        }
        h.record(1 << 20);
        assert_eq!(h.quantile_lower_bound(0.5), 4);
        assert_eq!(h.quantile_lower_bound(1.0), 1 << 20);
        assert_eq!(Histogram::new().quantile_lower_bound(0.5), 0);
    }

    #[test]
    fn histogram_bucket_bounds() {
        assert_eq!(Histogram::bucket_lower_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(0), 2);
        assert_eq!(Histogram::bucket_lower_bound(10), 1024);
        assert_eq!(Histogram::bucket_upper_bound(10), 2048);
        assert_eq!(Histogram::bucket_lower_bound(63), 1u64 << 63);
        assert_eq!(Histogram::bucket_upper_bound(63), u64::MAX);
        // Every recorded sample lands inside its bucket's bounds.
        let mut h = Histogram::new();
        for x in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            h.record(x);
        }
        for (i, lo, _) in h.nonzero_buckets() {
            assert!(lo == Histogram::bucket_lower_bound(i));
        }
    }

    #[test]
    fn timeline_splits_intervals_across_windows() {
        let mut tl = Timeline::new(Ps::from_ns(100));
        tl.record_busy(Ps::from_ns(50), Ps::from_ns(250));
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.busy_in(0), Ps::from_ns(50));
        assert_eq!(tl.busy_in(1), Ps::from_ns(100));
        assert_eq!(tl.busy_in(2), Ps::from_ns(50));
        assert_eq!(tl.total_busy(), Ps::from_ns(200));
        assert!((tl.utilization_in(1) - 1.0).abs() < 1e-12);
        assert_eq!(tl.peak_utilization(), 1.0);
    }

    #[test]
    fn timeline_window_boundaries_are_half_open() {
        let mut tl = Timeline::new(Ps::from_ns(10));
        // Ends exactly on a boundary: nothing spills into the next window.
        tl.record_busy(Ps::ZERO, Ps::from_ns(10));
        assert_eq!(tl.len(), 1);
        // Starts exactly on a boundary.
        tl.record_busy(Ps::from_ns(10), Ps::from_ns(11));
        assert_eq!(tl.busy_in(1), Ps::from_ns(1));
    }

    #[test]
    fn timeline_ignores_empty_and_inverted_intervals() {
        let mut tl = Timeline::new(Ps::from_ns(10));
        tl.record_busy(Ps::from_ns(5), Ps::from_ns(5));
        tl.record_busy(Ps::from_ns(9), Ps::from_ns(2));
        assert!(tl.is_empty());
        assert_eq!(tl.total_busy(), Ps::ZERO);
        assert_eq!(tl.utilization_in(7), 0.0);
        assert_eq!(tl.peak_utilization(), 0.0);
    }

    #[test]
    #[should_panic(expected = "window width")]
    fn timeline_zero_window_rejected() {
        let _ = Timeline::new(Ps::ZERO);
    }
}
