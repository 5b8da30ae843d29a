//! Randomized-property tests for the simulation kernel invariants.
//!
//! The workspace builds offline, so these use the crate's own
//! deterministic [`SplitMix64`] to drive many random cases per property
//! instead of an external property-testing framework.

use ohm_sim::{Calendar, EventQueue, Ps, SplitMix64, TaggedCalendar};

/// The event queue always delivers events in nondecreasing time order,
/// and FIFO among equal timestamps.
#[test]
fn event_queue_is_time_ordered() {
    let mut rng = SplitMix64::new(0xE1);
    for _case in 0..64 {
        let n = 1 + rng.next_below(200) as usize;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(Ps::from_ps(rng.next_below(1_000)), i);
        }
        let mut last_time = Ps::ZERO;
        let mut last_seq_at_time: Option<usize> = None;
        while let Some((t, seq)) = q.pop() {
            assert!(t >= last_time);
            if t == last_time {
                if let Some(prev) = last_seq_at_time {
                    assert!(seq > prev, "FIFO violated at equal timestamps");
                }
            }
            last_time = t;
            last_seq_at_time = Some(seq);
        }
    }
}

/// A calendar never grants overlapping intervals and never lets a
/// booking start before the client is ready.
#[test]
fn calendar_never_double_books() {
    let mut rng = SplitMix64::new(0xCA1);
    for _case in 0..64 {
        let n = 1 + rng.next_below(200) as usize;
        let reqs: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.next_below(10_000), 1 + rng.next_below(499)))
            .collect();
        let mut cal = Calendar::new();
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for &(ready, dur) in &reqs {
            let (start, end) = cal.book(Ps::from_ps(ready), Ps::from_ps(dur));
            assert!(start >= Ps::from_ps(ready));
            assert_eq!(end - start, Ps::from_ps(dur));
            for &(s, e) in &intervals {
                let (ns, ne) = (start.as_ps(), end.as_ps());
                assert!(ne <= s || ns >= e, "overlap: [{ns},{ne}) vs [{s},{e})");
            }
            intervals.push((start.as_ps(), end.as_ps()));
        }
        // Busy time equals the sum of requested durations.
        let total: u64 = reqs.iter().map(|&(_, d)| d).sum();
        assert_eq!(cal.busy_time(), Ps::from_ps(total));
    }
}

/// The linear first-fit calendar `Calendar::book` must agree with: the
/// same 64-gap bound, eviction order and splits, but every backfill
/// scans from the oldest gap and nothing skips ahead.
#[derive(Default)]
struct LinearCalendar {
    next_free: u64,
    /// Idle gaps `[start, end)`, oldest first.
    gaps: Vec<(u64, u64)>,
    busy: u64,
}

impl LinearCalendar {
    /// `Calendar`'s private `MAX_GAPS`.
    const MAX_GAPS: usize = 64;

    fn book(&mut self, ready: u64, dur: u64) -> (u64, u64) {
        self.busy += dur;
        for i in 0..self.gaps.len() {
            let (gs, ge) = self.gaps[i];
            let start = ready.max(gs);
            let end = start + dur;
            if end <= ge {
                match (start > gs, end < ge) {
                    (false, false) => {
                        self.gaps.remove(i);
                    }
                    (false, true) => self.gaps[i] = (end, ge),
                    (true, false) => self.gaps[i] = (gs, start),
                    (true, true) => {
                        self.gaps[i] = (gs, start);
                        self.gaps.insert(i + 1, (end, ge));
                        self.trim();
                    }
                }
                return (start, end);
            }
        }
        let start = ready.max(self.next_free);
        if start > self.next_free {
            self.gaps.push((self.next_free, start));
            self.trim();
        }
        self.next_free = start + dur;
        (start, self.next_free)
    }

    fn block_until(&mut self, until: u64) {
        self.next_free = self.next_free.max(until);
    }

    /// Forgets the oldest gap once the bound is exceeded.
    fn trim(&mut self) {
        if self.gaps.len() > Self::MAX_GAPS {
            self.gaps.remove(0);
        }
    }
}

/// `Calendar::book` grants, booking for booking, the interval the
/// linear first-fit scan grants. Most requests are ready behind the
/// tail, so the 64-gap ring stays full and backfill scans run deep, and
/// `block_until` calls are interleaved.
#[test]
fn calendar_backfill_matches_the_linear_first_fit_scan() {
    let mut rng = SplitMix64::new(0xBAC);
    let (mut booked, mut full, mut backfilled) = (0u64, 0u64, 0u64);
    for case in 0..64 {
        let mut cal = Calendar::new();
        let mut lin = LinearCalendar::default();
        for n in 0..5_000 {
            let tail = lin.next_free;
            let (ready, dur) = match rng.next_below(20) {
                0 => {
                    let until = tail + rng.next_below(2_000);
                    cal.block_until(Ps::from_ps(until));
                    lin.block_until(until);
                    continue;
                }
                // Ready past the tail: appends, leaving a gap behind.
                1..=7 => (tail + rng.next_below(1_000), 1 + rng.next_below(200)),
                // Ready behind the tail: a backfill attempt.
                _ => (
                    tail.saturating_sub(rng.next_below(60_000)),
                    1 + rng.next_below(400),
                ),
            };
            full += u64::from(lin.gaps.len() == LinearCalendar::MAX_GAPS);
            let (start, end) = cal.book(Ps::from_ps(ready), Ps::from_ps(dur));
            let want = lin.book(ready, dur);
            assert_eq!((start.as_ps(), end.as_ps()), want, "case {case} #{n}");
            assert_eq!(cal.next_free().as_ps(), lin.next_free, "case {case} #{n}");
            booked += 1;
            backfilled += u64::from(want.0 < tail);
        }
        assert_eq!(cal.busy_time().as_ps(), lin.busy, "case {case}");
    }
    // The cases exercise what they are meant to: a full ring and deep
    // backfill scans.
    assert!(full * 4 >= booked * 3, "ring full for {full} of {booked}");
    assert!(
        backfilled * 2 >= booked,
        "{backfilled} of {booked} backfilled"
    );
}

/// Tagged busy times always sum to the calendar's total busy time.
#[test]
fn tagged_calendar_tags_partition_busy() {
    let mut rng = SplitMix64::new(0x7A6);
    for _case in 0..64 {
        let n = 1 + rng.next_below(100) as usize;
        let mut cal = TaggedCalendar::new(4);
        for _ in 0..n {
            let ready = rng.next_below(10_000);
            let dur = 1 + rng.next_below(499);
            let tag = rng.next_below(4) as usize;
            cal.book(Ps::from_ps(ready), Ps::from_ps(dur), tag);
        }
        let sum: u64 = (0..4).map(|t| cal.busy_by_tag(t).as_ps()).sum();
        assert_eq!(sum, cal.busy_time().as_ps());
        let frac_sum: f64 = (0..4).map(|t| cal.tag_fraction(t)).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }
}

/// SplitMix64 streams are reproducible and next_below respects bounds.
#[test]
fn rng_reproducible_and_bounded() {
    let mut meta = SplitMix64::new(0x5EED);
    for _case in 0..64 {
        let seed = meta.next_u64();
        let bound = 1 + meta.next_below(1_000_000);
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..50 {
            let x = a.next_below(bound);
            assert_eq!(x, b.next_below(bound));
            assert!(x < bound);
        }
    }
}

/// Ps arithmetic: (a + b) - b == a (with saturating subtraction this
/// holds whenever a + b does not overflow, which the ranges guarantee).
#[test]
fn ps_add_sub_roundtrip() {
    let mut rng = SplitMix64::new(0xADD);
    for _case in 0..10_000 {
        let a = rng.next_below(u32::MAX as u64);
        let b = rng.next_below(u32::MAX as u64);
        let pa = Ps::from_ps(a);
        let pb = Ps::from_ps(b);
        assert_eq!((pa + pb) - pb, pa);
    }
}
