//! The Origin platform's policy backend: a discrete GPU whose DRAM only
//! holds part of the footprint, with overflow staged over the host/SSD
//! path (the baseline the paper's Figure 3 breakdown motivates).

use std::collections::HashSet;

use ohm_mem::MemKind;
use ohm_sim::{Addr, FastBuildHasher, FastMap, Ps};
use ohm_workloads::{HostStorage, HostStorageConfig, WorkloadSpec};

use crate::config::SystemConfig;
use crate::metrics::HostReport;

use super::backend::MemoryBackend;
use super::memory::MemEnv;

/// Origin's resident-set manager: FIFO replacement at *segment*
/// granularity (applications stage whole buffers with cudaMemcpy-style
/// transfers, not single pages) over the scaled 24 GB GPU memory,
/// backed by the host/SSD path.
#[derive(Debug)]
struct ResidentSet {
    capacity_segments: usize,
    segment_bytes: u64,
    /// segment -> last-touch stamp (LRU replacement). Only segments
    /// touched since launch are materialized; the pre-warmed remainder
    /// is represented analytically by `virgin_count`, so the set costs
    /// O(touched segments), not O(footprint).
    resident: FastMap<u64, u64>,
    /// Pre-warmed segments (ids below capacity) not yet touched or
    /// evicted: conceptually resident with stamp 0 (older than any
    /// touched segment) and clean.
    virgin_count: u64,
    /// Former pre-warmed ids that were touched or evicted — the holes in
    /// the virgin range.
    virgin_gone: HashSet<u64, FastBuildHasher>,
    /// Low-water cursor for finding the smallest remaining virgin id;
    /// only ever advances, so victim scans are amortized O(1).
    virgin_scan: u64,
    dirty: HashSet<u64, FastBuildHasher>,
    clock: u64,
}

impl ResidentSet {
    /// Creates a resident set pre-warmed with the first `capacity`
    /// segments: the initial input staging happens before the kernel
    /// launches (a cudaMemcpy ahead of the timed region), so the kernel
    /// only pays for capacity misses — the thrashing the paper's
    /// breakdown attributes to the too-small GPU memory. The pre-warm is
    /// lazy: nothing is allocated until segments are touched.
    fn new(capacity_segments: usize, segment_bytes: u64) -> Self {
        let capacity = capacity_segments.max(1);
        ResidentSet {
            capacity_segments: capacity,
            segment_bytes,
            resident: FastMap::default(),
            virgin_count: capacity as u64,
            virgin_gone: HashSet::default(),
            virgin_scan: 0,
            dirty: HashSet::default(),
            clock: 0,
        }
    }

    /// Removes `seg` from the virgin range.
    fn depart_virgin(&mut self, seg: u64) {
        self.virgin_gone.insert(seg);
        self.virgin_count -= 1;
    }

    /// Picks the LRU victim deterministically: virgin segments (stamp 0)
    /// are always older than touched ones and are evicted lowest-id
    /// first; among touched segments, stamps are unique (one per clock
    /// tick) with the segment id as a formal tie-break, so the choice
    /// never depends on map iteration order.
    fn pop_victim(&mut self) -> u64 {
        if self.virgin_count > 0 {
            while self.virgin_gone.contains(&self.virgin_scan) {
                self.virgin_scan += 1;
            }
            let victim = self.virgin_scan;
            self.depart_virgin(victim);
            self.virgin_scan += 1;
            return victim;
        }
        let victim = self
            .resident
            .iter()
            .map(|(&s, &stamp)| (stamp, s))
            .min()
            .expect("resident set non-empty at capacity")
            .1;
        self.resident.remove(&victim);
        victim
    }

    /// Returns whether the access faulted, plus the evicted segment (and
    /// whether it was dirty) when an eviction was needed.
    fn touch(&mut self, addr: Addr, is_write: bool) -> (bool, Option<(u64, bool)>) {
        let seg = addr.block_index(self.segment_bytes);
        self.clock += 1;
        if let Some(stamp) = self.resident.get_mut(&seg) {
            *stamp = self.clock;
            if is_write {
                self.dirty.insert(seg);
            }
            return (false, None);
        }
        if seg < self.capacity_segments as u64 && !self.virgin_gone.contains(&seg) {
            // Pre-warmed and untouched: promote into the materialized
            // set without a fault.
            self.depart_virgin(seg);
            self.resident.insert(seg, self.clock);
            if is_write {
                self.dirty.insert(seg);
            }
            return (false, None);
        }
        let occupied = self.resident.len() as u64 + self.virgin_count;
        let evicted = if occupied >= self.capacity_segments as u64 {
            let victim = self.pop_victim();
            let was_dirty = self.dirty.remove(&victim);
            Some((victim, was_dirty))
        } else {
            None
        };
        self.resident.insert(seg, self.clock);
        if is_write {
            self.dirty.insert(seg);
        }
        (true, evicted)
    }
}

/// Origin: check global residency (staging over the host path on a
/// fault), then serve from GPU DRAM.
pub(crate) struct OriginBackend {
    residents: ResidentSet,
    host: HostStorage,
    seg_bytes: u64,
}

impl OriginBackend {
    /// Sizes the resident set and the (scaled) host path around `spec`.
    pub(crate) fn build(cfg: &SystemConfig, spec: &WorkloadSpec) -> Self {
        let base = HostStorageConfig::default();
        let k = cfg.memory.host_scale.max(1.0);
        let host = HostStorage::new(HostStorageConfig {
            ssd_read_latency: base.ssd_read_latency.scale(1.0 / k),
            ssd_write_latency: base.ssd_write_latency.scale(1.0 / k),
            ssd_bandwidth_bps: (base.ssd_bandwidth_bps as f64 * k) as u64,
            dma_bandwidth_bps: (base.dma_bandwidth_bps as f64 * k) as u64,
            dma_setup: base.dma_setup.scale(1.0 / k),
        });
        let seg = cfg.memory.origin_segment_bytes;
        let capacity_bytes =
            (spec.footprint_bytes as f64 * cfg.memory.origin_resident_fraction) as u64;
        OriginBackend {
            residents: ResidentSet::new(((capacity_bytes / seg) as usize).max(2), seg),
            host,
            seg_bytes: seg,
        }
    }
}

impl MemoryBackend for OriginBackend {
    fn service(
        &mut self,
        env: &mut MemEnv<'_>,
        now: Ps,
        mc: usize,
        ga: Addr,
        la: Addr,
        kind: MemKind,
    ) -> Ps {
        let (fault, evicted) = self.residents.touch(ga, matches!(kind, MemKind::Write));
        let mut ready = now;
        if fault {
            if let Some((_victim, true)) = evicted {
                self.host.stage_out(now, self.seg_bytes);
            }
            ready = self.host.stage_in(now, self.seg_bytes).transfer_done;
        }
        env.stats.record_service(!fault);
        env.dram_line_rt(ready, mc, la, kind)
    }

    fn host_report(&self) -> Option<HostReport> {
        Some(HostReport {
            storage_busy: self.host.storage_busy(),
            dma_busy: self.host.dma_busy(),
            staged_in: self.host.staged_in(),
            staged_out: self.host.staged_out(),
            bytes_moved: self.host.bytes_moved(),
        })
    }
}
