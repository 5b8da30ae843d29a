//! Calendar-based resource models.
//!
//! The simulator models contended hardware — buses, optical virtual
//! channels, DRAM banks, controllers — as *single-server calendars*: a
//! resource grants exclusive `[start, end)` intervals. Because the event
//! loop resolves a request's whole timing chain synchronously, a booking
//! may carry a `ready` time far in the future (e.g. a response burst that
//! can only start once the device has the data); such a booking leaves an
//! *idle gap* behind it, and later bookings with earlier ready times are
//! allowed to **backfill** those gaps. Without backfill, one in-flight
//! request per resource would artificially serialise the whole system;
//! with it, the calendar behaves like a FCFS server that stays
//! work-conserving.
//!
//! [`TaggedCalendar`] additionally attributes busy time to small integer
//! tags, which is how the paper's "effective vs. wasted (migration)
//! bandwidth" breakdowns (Figures 8 and 18) are measured.

use crate::time::Ps;

/// Maximum number of idle gaps remembered for backfill. Old gaps beyond
/// this bound are forgotten (a conservative approximation: the resource
/// just stays idle there).
const MAX_GAPS: usize = 64;

/// A single-server resource with FCFS booking and gap backfill.
///
/// # Example
///
/// ```
/// use ohm_sim::{Calendar, Ps};
///
/// let mut bus = Calendar::new();
/// // A response burst booked far in the future leaves a gap...
/// assert_eq!(bus.book(Ps::from_ns(100), Ps::from_ns(10)), (Ps::from_ns(100), Ps::from_ns(110)));
/// // ...which an earlier-ready transfer backfills.
/// assert_eq!(bus.book(Ps::ZERO, Ps::from_ns(10)), (Ps::ZERO, Ps::from_ns(10)));
/// assert_eq!(bus.busy_time(), Ps::from_ns(20));
/// ```
#[derive(Debug, Clone)]
pub struct Calendar {
    /// Free time after the last scheduled interval.
    next_free: Ps,
    /// Idle gaps `[start, end)` before `next_free`, oldest first, stored
    /// as a ring: `gaps_head` indexes the oldest live entry and
    /// `gaps_len` counts live entries. An inline ring makes both the
    /// hot-path append and the oldest-gap eviction O(1) with no heap
    /// traffic (`MAX_GAPS` is a power of two, so indices wrap by mask).
    gaps: [(Ps, Ps); MAX_GAPS],
    gaps_head: u32,
    gaps_len: u32,
    busy: Ps,
    bookings: u64,
}

impl Default for Calendar {
    fn default() -> Self {
        Calendar {
            next_free: Ps::ZERO,
            gaps: [(Ps::ZERO, Ps::ZERO); MAX_GAPS],
            gaps_head: 0,
            gaps_len: 0,
            busy: Ps::ZERO,
            bookings: 0,
        }
    }
}

impl Calendar {
    /// Creates an idle resource, free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `i`-th live gap, oldest first.
    #[inline]
    fn gap(&self, i: u32) -> (Ps, Ps) {
        self.gaps[((self.gaps_head + i) as usize) & (MAX_GAPS - 1)]
    }

    /// Overwrites the `i`-th live gap.
    #[inline]
    fn set_gap(&mut self, i: u32, g: (Ps, Ps)) {
        self.gaps[((self.gaps_head + i) as usize) & (MAX_GAPS - 1)] = g;
    }

    /// Books an exclusive interval of length `dur`, starting no earlier
    /// than `ready`. The earliest idle gap that fits is used; otherwise
    /// the booking is appended at the tail (recording any idle gap it
    /// leaves behind it).
    ///
    /// Returns the `(start, end)` of the granted interval.
    pub fn book(&mut self, ready: Ps, dur: Ps) -> (Ps, Ps) {
        self.bookings += 1;
        self.busy += dur;

        // Fast path: every gap ends at or before `next_free`, so a
        // booking ready at the tail (the common case in a synchronous
        // timing chain, which books forward in time) can never backfill
        // — append directly without scanning the gap list.
        if ready >= self.next_free {
            if ready > self.next_free {
                self.push_gap(self.next_free, ready);
            }
            let end = ready + dur;
            self.next_free = end;
            return (ready, end);
        }

        // Gap end times are non-decreasing along the list (tail appends
        // start at the previous `next_free`; splits only shrink a gap in
        // place), so the last gap's end bounds every gap's end. A booking
        // that cannot fit before that bound can never backfill — skip
        // the scan outright. This makes the tight same-calendar booking
        // chains of page operations (swaps book 32 lines back-to-back)
        // O(1) per line instead of a full stale-gap scan.
        let can_backfill = self.gaps_len > 0 && ready + dur <= self.gap(self.gaps_len - 1).1;
        if can_backfill {
            // The same ordering lets a binary search skip every gap that
            // ends before `ready + dur`: none of them can hold the
            // booking, so the first fit lies at or after the partition
            // point. Backfill the earliest fitting gap from there,
            // editing the split in place (only the both-sides-remain
            // split grows the list).
            for i in self.first_gap_ending_at_or_after(ready + dur)..self.gaps_len {
                let (gs, ge) = self.gap(i);
                let start = ready.max(gs);
                let end = start + dur;
                if end <= ge {
                    match (start > gs, end < ge) {
                        (false, false) => self.remove_gap(i),
                        (false, true) => self.set_gap(i, (end, ge)),
                        (true, false) => self.set_gap(i, (gs, start)),
                        (true, true) => {
                            self.set_gap(i, (gs, start));
                            self.split_gap(i, (end, ge));
                        }
                    }
                    return (start, end);
                }
            }
        }

        // Append at the tail.
        let start = ready.max(self.next_free);
        if start > self.next_free {
            self.push_gap(self.next_free, start);
        }
        let end = start + dur;
        self.next_free = end;
        (start, end)
    }

    /// Index of the first live gap whose end is at or after `t` (the
    /// partition point of the non-decreasing gap ends); `gaps_len` when
    /// every gap ends before `t`.
    #[inline]
    fn first_gap_ending_at_or_after(&self, t: Ps) -> u32 {
        let (mut lo, mut hi) = (0, self.gaps_len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.gap(mid).1 < t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Appends a gap, forgetting the oldest one once the bound is hit.
    #[inline]
    fn push_gap(&mut self, start: Ps, end: Ps) {
        if self.gaps_len as usize == MAX_GAPS {
            self.gaps_head = (self.gaps_head + 1) & (MAX_GAPS as u32 - 1);
            self.gaps_len -= 1;
        }
        let tail = ((self.gaps_head + self.gaps_len) as usize) & (MAX_GAPS - 1);
        self.gaps[tail] = (start, end);
        self.gaps_len += 1;
    }

    /// Removes the `i`-th live gap, preserving order.
    fn remove_gap(&mut self, i: u32) {
        if i == 0 {
            self.gaps_head = (self.gaps_head + 1) & (MAX_GAPS as u32 - 1);
        } else {
            for j in i..self.gaps_len - 1 {
                let next = self.gap(j + 1);
                self.set_gap(j, next);
            }
        }
        self.gaps_len -= 1;
    }

    /// Inserts the right half of a split immediately after gap `i`,
    /// forgetting the oldest gap if the ring is already full (matching
    /// the eviction order of a plain append-then-trim list).
    fn split_gap(&mut self, mut i: u32, right: (Ps, Ps)) {
        if self.gaps_len as usize == MAX_GAPS {
            if i == 0 {
                // The evicted oldest gap *is* the left half of this
                // split: the right half simply replaces it in front.
                self.set_gap(0, right);
                return;
            }
            self.gaps_head = (self.gaps_head + 1) & (MAX_GAPS as u32 - 1);
            self.gaps_len -= 1;
            i -= 1;
        }
        for j in (i + 1..self.gaps_len).rev() {
            let cur = self.gap(j);
            self.set_gap(j + 1, cur);
        }
        self.set_gap(i + 1, right);
        self.gaps_len += 1;
    }

    /// When the resource is next free *at the tail* (ignoring gaps).
    pub fn next_free(&self) -> Ps {
        self.next_free
    }

    /// The instant a booking of unknown length would start at the tail for
    /// a client ready at `ready` — an estimate that ignores backfill.
    pub fn earliest_start(&self, ready: Ps) -> Ps {
        ready.max(self.next_free)
    }

    /// Pushes the tail free time forward to at least `until`, consuming
    /// (not gapping) the interim — models a resource being *held* (e.g. a
    /// controller owning a bank in a stable state). Earlier gaps remain
    /// backfillable.
    pub fn block_until(&mut self, until: Ps) {
        self.next_free = self.next_free.max(until);
    }

    /// Total booked (busy) time.
    pub fn busy_time(&self) -> Ps {
        self.busy
    }

    /// Number of bookings granted.
    pub fn bookings(&self) -> u64 {
        self.bookings
    }

    /// Busy fraction over an observation window ending at `horizon`,
    /// always a finite value in `[0, 1]`.
    ///
    /// Returns 0 for an empty window; bookings extending past `horizon`
    /// (their busy time is counted in full) are clamped to 1 rather than
    /// reporting an over-unity fraction.
    pub fn utilization(&self, horizon: Ps) -> f64 {
        if horizon == Ps::ZERO {
            0.0
        } else {
            (self.busy.as_ps() as f64 / horizon.as_ps() as f64).clamp(0.0, 1.0)
        }
    }
}

/// A [`Calendar`] that attributes busy time to integer tags.
///
/// Tags are small dense indices (e.g. `0 = demand request`, `1 =
/// migration`) chosen by the caller; the per-tag busy times drive
/// bandwidth-breakdown figures.
///
/// # Example
///
/// ```
/// use ohm_sim::{TaggedCalendar, Ps};
///
/// const DEMAND: usize = 0;
/// const MIGRATION: usize = 1;
///
/// let mut ch = TaggedCalendar::new(2);
/// ch.book(Ps::ZERO, Ps::from_ns(6), DEMAND);
/// ch.book(Ps::ZERO, Ps::from_ns(4), MIGRATION);
/// assert_eq!(ch.busy_by_tag(MIGRATION), Ps::from_ns(4));
/// assert!((ch.tag_fraction(MIGRATION) - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct TaggedCalendar {
    inner: Calendar,
    by_tag: Vec<Ps>,
}

impl TaggedCalendar {
    /// Creates an idle resource tracking `tags` distinct busy-time classes.
    pub fn new(tags: usize) -> Self {
        TaggedCalendar {
            inner: Calendar::new(),
            by_tag: vec![Ps::ZERO; tags],
        }
    }

    /// Books an exclusive interval, attributing its duration to `tag`.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is out of range.
    pub fn book(&mut self, ready: Ps, dur: Ps, tag: usize) -> (Ps, Ps) {
        self.by_tag[tag] += dur;
        self.inner.book(ready, dur)
    }

    /// When the resource is next free at the tail.
    pub fn next_free(&self) -> Ps {
        self.inner.next_free()
    }

    /// See [`Calendar::earliest_start`].
    pub fn earliest_start(&self, ready: Ps) -> Ps {
        self.inner.earliest_start(ready)
    }

    /// Total booked time across all tags.
    pub fn busy_time(&self) -> Ps {
        self.inner.busy_time()
    }

    /// Booked time attributed to `tag` (zero for out-of-range tags).
    pub fn busy_by_tag(&self, tag: usize) -> Ps {
        self.by_tag.get(tag).copied().unwrap_or(Ps::ZERO)
    }

    /// Fraction of total busy time attributed to `tag` (0 if never busy).
    pub fn tag_fraction(&self, tag: usize) -> f64 {
        let total = self.inner.busy_time().as_ps();
        if total == 0 {
            0.0
        } else {
            self.busy_by_tag(tag).as_ps() as f64 / total as f64
        }
    }

    /// Number of bookings granted.
    pub fn bookings(&self) -> u64 {
        self.inner.bookings()
    }

    /// Busy fraction over a window ending at `horizon`.
    pub fn utilization(&self, horizon: Ps) -> f64 {
        self.inner.utilization(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_serialises_overlapping_requests() {
        let mut c = Calendar::new();
        let (s1, e1) = c.book(Ps::ZERO, Ps::from_ns(10));
        let (s2, e2) = c.book(Ps::from_ns(2), Ps::from_ns(5));
        assert_eq!((s1, e1), (Ps::ZERO, Ps::from_ns(10)));
        assert_eq!((s2, e2), (Ps::from_ns(10), Ps::from_ns(15)));
    }

    #[test]
    fn calendar_backfills_gaps() {
        let mut c = Calendar::new();
        // Far-future booking leaves [0, 100 ns) idle.
        c.book(Ps::from_ns(100), Ps::from_ns(10));
        // An earlier-ready booking fills the gap instead of queueing.
        let (s, e) = c.book(Ps::from_ns(5), Ps::from_ns(20));
        assert_eq!((s, e), (Ps::from_ns(5), Ps::from_ns(25)));
        // The gap remainder [25, 100) is still available.
        let (s2, e2) = c.book(Ps::from_ns(30), Ps::from_ns(70));
        assert_eq!((s2, e2), (Ps::from_ns(30), Ps::from_ns(100)));
        // Remaining gaps are [0,5) and [25,30): too small for 10 ns, so
        // the next booking queues at the tail.
        let (s3, _) = c.book(Ps::ZERO, Ps::from_ns(10));
        assert_eq!(s3, Ps::from_ns(110));
        // But a 5 ns booking backfills the leading gap exactly.
        let (s4, e4) = c.book(Ps::ZERO, Ps::from_ns(5));
        assert_eq!((s4, e4), (Ps::ZERO, Ps::from_ns(5)));
    }

    #[test]
    fn calendar_gap_too_small_is_skipped() {
        let mut c = Calendar::new();
        c.book(Ps::from_ns(10), Ps::from_ns(10)); // gap [0, 10)
        let (s, _) = c.book(Ps::ZERO, Ps::from_ns(15)); // does not fit the gap
        assert_eq!(s, Ps::from_ns(20));
        // The small gap is still there for a fitting booking.
        let (s2, e2) = c.book(Ps::ZERO, Ps::from_ns(10));
        assert_eq!((s2, e2), (Ps::ZERO, Ps::from_ns(10)));
    }

    #[test]
    fn calendar_idle_gap_is_not_busy() {
        let mut c = Calendar::new();
        c.book(Ps::ZERO, Ps::from_ns(1));
        c.book(Ps::from_ns(100), Ps::from_ns(1));
        assert_eq!(c.busy_time(), Ps::from_ns(2));
        assert_eq!(c.next_free(), Ps::from_ns(101));
        assert_eq!(c.bookings(), 2);
    }

    #[test]
    fn calendar_block_until_reserves_without_busy() {
        let mut c = Calendar::new();
        c.block_until(Ps::from_ns(50));
        assert_eq!(c.busy_time(), Ps::ZERO);
        let (start, _) = c.book(Ps::ZERO, Ps::from_ns(1));
        assert_eq!(start, Ps::from_ns(50));
    }

    #[test]
    fn calendar_utilization() {
        let mut c = Calendar::new();
        c.book(Ps::ZERO, Ps::from_ns(25));
        assert!((c.utilization(Ps::from_ns(100)) - 0.25).abs() < 1e-12);
        assert_eq!(c.utilization(Ps::ZERO), 0.0);
    }

    #[test]
    fn tagged_calendar_breakdown() {
        let mut c = TaggedCalendar::new(3);
        c.book(Ps::ZERO, Ps::from_ns(3), 0);
        c.book(Ps::ZERO, Ps::from_ns(6), 1);
        c.book(Ps::ZERO, Ps::from_ns(1), 2);
        assert_eq!(c.busy_time(), Ps::from_ns(10));
        assert!((c.tag_fraction(1) - 0.6).abs() < 1e-12);
        assert_eq!(c.busy_by_tag(7), Ps::ZERO);
    }

    #[test]
    fn tagged_calendar_empty_fraction_is_zero() {
        let c = TaggedCalendar::new(2);
        assert_eq!(c.tag_fraction(0), 0.0);
    }

    #[test]
    #[should_panic]
    fn tagged_calendar_rejects_bad_tag_on_book() {
        let mut c = TaggedCalendar::new(1);
        c.book(Ps::ZERO, Ps::from_ns(1), 5);
    }
}
