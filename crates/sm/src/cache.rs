//! Set-associative write-back caches.
//!
//! Models the GPU's private L1D (Table I: 48 KB, 6-way) and shared L2
//! (6 MB, 8-way). Timing is not kept here — the cache answers *what*
//! happened (hit, miss, dirty eviction) and the system model charges the
//! appropriate latencies.

use ohm_sim::Addr;

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// The paper's L1D: 48 KB, 6-way, 128 B lines.
    pub fn l1d_table1() -> Self {
        CacheConfig {
            size_bytes: 48 * 1024,
            ways: 6,
            line_bytes: 128,
        }
    }

    /// The paper's shared L2: 6 MB, 8-way, 128 B lines.
    pub fn l2_table1() -> Self {
        CacheConfig {
            size_bytes: 6 * 1024 * 1024,
            ways: 8,
            line_bytes: 128,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.line_bytes) as usize / self.ways
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// Whether the line was present.
    pub hit: bool,
    /// A dirty line evicted to make room (write-back required).
    pub writeback: Option<Addr>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// A set-associative, write-back, write-allocate cache with LRU
/// replacement.
///
/// # Example
///
/// ```
/// use ohm_sm::{Cache, CacheConfig};
/// use ohm_sim::Addr;
///
/// let mut c = Cache::new(CacheConfig::l1d_table1());
/// let first = c.access(Addr::new(0x1000), false);
/// assert!(!first.hit);
/// let second = c.access(Addr::new(0x1000), false);
/// assert!(second.hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// All lines in one flat allocation, `num_sets` rows of `cfg.ways`
    /// each — one cache-friendly slab instead of a Vec per set. Empty
    /// until the first [`Cache::access`]: a cache the run never reaches
    /// holds no slab, and every set reads as invalid lines.
    lines: Vec<Line>,
    num_sets: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, non-power-of-two
    /// line size, or capacity not divisible into sets).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways > 0, "cache must have at least one way");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = cfg.sets();
        assert!(sets > 0, "cache capacity too small for its geometry");
        assert_eq!(
            sets as u64 * cfg.ways as u64 * cfg.line_bytes,
            cfg.size_bytes,
            "capacity must equal sets * ways * line size"
        );
        Cache {
            lines: Vec::new(),
            num_sets: sets,
            cfg,
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The ways of one set as a slice of the flat line slab; empty
    /// before the slab is materialized.
    fn set(&self, set_idx: usize) -> &[Line] {
        let ways = self.cfg.ways;
        self.lines
            .get(set_idx * ways..(set_idx + 1) * ways)
            .unwrap_or(&[])
    }

    fn set_mut(&mut self, set_idx: usize) -> &mut [Line] {
        let ways = self.cfg.ways;
        self.lines
            .get_mut(set_idx * ways..(set_idx + 1) * ways)
            .unwrap_or(&mut [])
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn index(&self, addr: Addr) -> (usize, u64) {
        let line = addr.block_index(self.cfg.line_bytes);
        let set = (line % self.num_sets as u64) as usize;
        let tag = line / self.num_sets as u64;
        (set, tag)
    }

    fn line_addr(&self, set: usize, tag: u64) -> Addr {
        Addr::from_block(tag * self.num_sets as u64 + set as u64, self.cfg.line_bytes)
    }

    /// Allocates the line slab with every line invalid; the first
    /// access calls it.
    #[cold]
    #[inline(never)]
    fn materialize(&mut self) {
        self.lines = vec![Line::default(); self.num_sets * self.cfg.ways];
    }

    /// Accesses the line containing `addr`; on a miss the line is
    /// allocated (write-allocate) and the LRU victim evicted.
    pub fn access(&mut self, addr: Addr, is_write: bool) -> Lookup {
        if self.lines.is_empty() {
            self.materialize();
        }
        self.tick += 1;
        let tick = self.tick;
        let (set_idx, tag) = self.index(addr);
        let ways = self.cfg.ways;
        // Borrow the set directly from the slab so the counter fields
        // stay independently writable.
        let set = &mut self.lines[set_idx * ways..(set_idx + 1) * ways];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            line.dirty |= is_write;
            self.hits += 1;
            return Lookup {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("non-empty set");
        let victim = set[victim_idx];
        set[victim_idx] = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: tick,
        };
        let writeback = (victim.valid && victim.dirty).then(|| {
            self.writebacks += 1;
            self.line_addr(set_idx, victim.tag)
        });
        Lookup {
            hit: false,
            writeback,
        }
    }

    /// Whether the line containing `addr` is present (no LRU update).
    pub fn contains(&self, addr: Addr) -> bool {
        let (set, tag) = self.index(addr);
        self.set(set).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates the line containing `addr`, returning its address if it
    /// was present and dirty (write-back required).
    pub fn invalidate(&mut self, addr: Addr) -> Option<Addr> {
        let (set_idx, tag) = self.index(addr);
        let line_addr = self.line_addr(set_idx, tag);
        let set = self.set_mut(set_idx);
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            let was_dirty = line.dirty;
            line.valid = false;
            line.dirty = false;
            return was_dirty.then_some(line_addr);
        }
        None
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions performed.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Hit rate over all accesses so far (0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn geometry_of_table1_caches() {
        assert_eq!(CacheConfig::l1d_table1().sets(), 64);
        assert_eq!(CacheConfig::l2_table1().sets(), 6144);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(Addr::new(0), false).hit);
        assert!(c.access(Addr::new(0), false).hit);
        assert!(c.access(Addr::new(63), false).hit); // same line
        assert!(!c.access(Addr::new(64), false).hit); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Set 0 is addressed by lines 0, 4, 8, ... (4 sets).
        let line = |i: u64| Addr::new(i * 4 * 64);
        c.access(line(0), false);
        c.access(line(1), false);
        c.access(line(0), false); // refresh line 0
        c.access(line(2), false); // evicts line 1
        assert!(c.contains(line(0)));
        assert!(!c.contains(line(1)));
        assert!(c.contains(line(2)));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = tiny();
        let line = |i: u64| Addr::new(i * 4 * 64);
        c.access(line(0), true); // dirty
        c.access(line(1), false);
        let l = c.access(line(2), false); // evicts dirty line 0
        assert_eq!(l.writeback, Some(line(0)));
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        let line = |i: u64| Addr::new(i * 4 * 64);
        c.access(line(0), false);
        c.access(line(1), false);
        let l = c.access(line(2), false);
        assert_eq!(l.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        let line = |i: u64| Addr::new(i * 4 * 64);
        c.access(line(0), false); // clean fill
        c.access(line(0), true); // write hit dirties it
        c.access(line(1), false);
        // Line 0 (last touched before line 1) is the LRU victim and must
        // be written back because the write hit marked it dirty.
        let l = c.access(line(2), false);
        assert_eq!(l.writeback, Some(line(0)));
    }

    #[test]
    fn invalidate_returns_dirty_address() {
        let mut c = tiny();
        c.access(Addr::new(0), true);
        assert_eq!(c.invalidate(Addr::new(0)), Some(Addr::new(0)));
        assert!(!c.contains(Addr::new(0)));
        assert_eq!(c.invalidate(Addr::new(0)), None);
    }

    #[test]
    fn an_untouched_cache_answers_without_a_slab() {
        let mut c = Cache::new(CacheConfig::l2_table1());
        assert!(!c.contains(Addr::new(0x1000)));
        assert_eq!(c.invalidate(Addr::new(0x1000)), None);
        assert_eq!(c.lines.capacity(), 0);
        assert_eq!(c.clone().lines.capacity(), 0);
        // The first access materializes every set.
        c.access(Addr::new(0x1000), true);
        assert_eq!(c.lines.len(), 6144 * 8);
        assert!(c.contains(Addr::new(0x1000)));
        assert_eq!(c.invalidate(Addr::new(0x1000)), Some(Addr::new(0x1000)));
    }

    #[test]
    fn hit_rate() {
        let mut c = tiny();
        assert_eq!(c.hit_rate(), 0.0);
        c.access(Addr::new(0), false);
        c.access(Addr::new(0), false);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must equal")]
    fn inconsistent_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 500,
            ways: 2,
            line_bytes: 64,
        });
    }
}
