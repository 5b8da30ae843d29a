//! Randomized-property tests for the GPU front-end components, driven by
//! the workspace's own deterministic [`SplitMix64`] generator.

use ohm_sim::{Addr, Ps, SplitMix64};
use ohm_sm::{Cache, CacheConfig, Sm, SmConfig};

/// An access to a line always hits if the line was accessed within the
/// last `ways` distinct-line accesses to its set (LRU guarantee).
#[test]
fn cache_lru_recency_guarantee() {
    let mut meta = SplitMix64::new(0x18D);
    for _case in 0..16 {
        let cfg = CacheConfig {
            size_bytes: 4096,
            ways: 4,
            line_bytes: 64,
        };
        let mut cache = Cache::new(cfg);
        let mut rng = SplitMix64::new(meta.next_u64());
        for _ in 0..500 {
            let line = rng.next_below(256);
            let a = Addr::new(line * 64);
            cache.access(a, rng.chance(0.3));
            // Immediate re-access must hit: the line is MRU.
            assert!(cache.access(a, false).hit, "MRU line evicted");
        }
    }
}

/// The cache never reports more lines resident than its capacity.
#[test]
fn cache_capacity_respected() {
    let mut rng = SplitMix64::new(0xCAB);
    for _case in 0..48 {
        let n = 1 + rng.next_below(300) as usize;
        let cfg = CacheConfig {
            size_bytes: 2048,
            ways: 2,
            line_bytes: 64,
        };
        let mut cache = Cache::new(cfg);
        for _ in 0..n {
            cache.access(Addr::new(rng.next_below(512) * 64), false);
        }
        let resident = (0..512)
            .filter(|&l| cache.contains(Addr::new(l * 64)))
            .count();
        assert!(resident as u64 <= cfg.size_bytes / cfg.line_bytes);
    }
}

/// Hits + misses always equals total accesses, and writebacks never
/// exceed misses (only evictions produce them).
#[test]
fn cache_accounting_identities() {
    let mut rng = SplitMix64::new(0xACC);
    for _case in 0..48 {
        let n = 1 + rng.next_below(200) as usize;
        let cfg = CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
        };
        let mut cache = Cache::new(cfg);
        for _ in 0..n {
            cache.access(Addr::new(rng.next_below(128) * 64), rng.chance(0.5));
        }
        assert_eq!(cache.hits() + cache.misses(), n as u64);
        assert!(cache.writebacks() <= cache.misses());
    }
}

/// SM issue pipeline: total busy time equals instructions issued times
/// the cycle time, and bookings never overlap.
#[test]
fn sm_issue_accounting() {
    let mut rng = SplitMix64::new(0x155);
    for _case in 0..48 {
        let n = 1 + rng.next_below(100) as usize;
        let cfg = SmConfig::default();
        let mut sm = Sm::new(cfg);
        let mut total = 0u64;
        let mut now = Ps::ZERO;
        for _ in 0..n {
            let warp = rng.next_below(8) as usize;
            let insts = 1 + rng.next_below(199);
            let end = sm.issue_compute(now, warp, insts);
            assert!(end >= now);
            total += insts;
            now += Ps::from_ps(100);
        }
        assert_eq!(sm.retired(), total);
        // Busy time within rounding of the per-instruction cycle time.
        let expect = cfg.freq.cycles(total);
        let busy = sm.busy_time();
        let diff = busy.as_ps().abs_diff(expect.as_ps());
        assert!(diff <= n as u64, "busy {busy} vs {expect}");
    }
}
