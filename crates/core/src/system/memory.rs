//! The memory subsystem: controllers, their devices, and the shared
//! round-trip plumbing every backend services requests through.
//!
//! A [`MemoryController`] owns the hardware blocks behind one channel:
//! the controller pipeline calendar, the DRAM module, the optional XPoint
//! controller, the conflict detector tracking in-flight migrations, and
//! the DDR sequence generator / DDR monitor engines of the delegated
//! migration machinery. Capacity-management *policy* lives one layer up,
//! in a [`MemoryBackend`]; the wiring between the two is a [`MemEnv`],
//! which also carries the [`Fabric`] and the run's [`RunStats`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ohm_hetero::{ConflictDetector, Platform};
use ohm_mem::{
    DdrMonitor, DdrSequenceGenerator, DramModule, MemKind, XPointController, XpLifecycleEventKind,
};
use ohm_optic::{OperationalMode, TrafficClass};
use ohm_sim::{Addr, FastDiv, FastMap, Ps, SplitMix64};
use ohm_workloads::WorkloadSpec;

use crate::config::SystemConfig;
use crate::metrics::HostReport;

use crate::fault::RecoveryEvent;

use super::backend::build_backend;
use super::fabric::{build_fabric, Fabric};
use super::stats::{Stage, StageEvent};
use super::{MemoryBackend, RunStats};

/// Command/address bits preceding each data burst on the channel.
pub(crate) const CMD_BITS: u64 = 64;
/// Device indices on a virtual channel, for demux-arbitration tracking.
pub(crate) const DEV_DRAM: usize = 0;
pub(crate) const DEV_XPOINT: usize = 1;

/// One memory controller and the hardware blocks behind it.
#[derive(Debug)]
pub struct MemoryController {
    /// Controller pipeline occupancy.
    pub(crate) ctrl: ohm_sim::Calendar,
    /// The DRAM module on this channel.
    pub(crate) dram: DramModule,
    /// The XPoint controller (heterogeneous platforms only).
    pub(crate) xpoint: Option<XPointController>,
    /// In-flight migration tracking (stale-copy redirects).
    pub(crate) conflicts: ConflictDetector,
    /// DDR sequence generator (swap function, in the XPoint controller).
    pub(crate) ddr_seq: DdrSequenceGenerator,
    /// DDR monitor (reverse write, in the memory controller).
    pub(crate) ddr_monitor: DdrMonitor,
    /// Completion times of in-flight misses (MSHR occupancy).
    pub(crate) outstanding: BinaryHeap<Reverse<u64>>,
}

/// A deferred migration-completion notice `(when, controller, id)`;
/// the warp engine turns these into events on the global queue.
pub(crate) type PendingRelease = (Ps, usize, u64);

/// Everything a backend needs to service one request: the controllers,
/// the fabric, the run's counters, and a buffer for migration releases.
pub struct MemEnv<'a> {
    /// The system configuration.
    pub cfg: &'a SystemConfig,
    /// Every memory controller, indexed by controller number.
    pub mcs: &'a mut [MemoryController],
    /// The channel fabric requests travel over.
    pub fabric: &'a mut dyn Fabric,
    /// The run's counters.
    pub stats: &'a mut RunStats,
    /// Migration releases to schedule on the event queue.
    pub(crate) pending: &'a mut Vec<PendingRelease>,
    /// Whether the per-stage collector in `stats` is on (sampled once per
    /// request, so the hot path skips batching entirely when it is off).
    pub(crate) stages_on: bool,
    /// Stage intervals batched during one request and recorded into
    /// `stats` once `service` returns; the buffer's capacity is reused.
    pub(crate) stage_batch: &'a mut Vec<StageEvent>,
}

impl MemEnv<'_> {
    /// The controller at index `mc`.
    #[inline]
    pub fn mc(&mut self, mc: usize) -> &mut MemoryController {
        &mut self.mcs[mc]
    }

    /// Batches one request-path stage interval (recorded into `stats`
    /// after the backend returns, preserving per-request recording order).
    #[inline]
    pub(crate) fn stage(&mut self, stage: Stage, res: usize, start: Ps, end: Ps) {
        if self.stages_on {
            self.stage_batch.push(StageEvent {
                stage,
                res: res as u32,
                start,
                end,
            });
        }
    }
    /// Round-trip of one line to the DRAM device: command, bank access,
    /// and (for reads) the data burst back.
    pub(crate) fn dram_line_rt(&mut self, now: Ps, mc: usize, la: Addr, kind: MemKind) -> Ps {
        let line_bits = self.cfg.line_bytes * 8;
        match kind {
            MemKind::Read => {
                let (_, cmd_done) =
                    self.fabric
                        .xfer(now, mc, CMD_BITS, TrafficClass::Demand, DEV_DRAM);
                let acc = self.mc(mc).dram.access(cmd_done, la, kind);
                self.stage(Stage::DeviceDram, mc, acc.start, acc.data_at);
                let (_, data_done) =
                    self.fabric
                        .xfer(acc.data_at, mc, line_bits, TrafficClass::Demand, DEV_DRAM);
                data_done
            }
            MemKind::Write => {
                let (_, xfer_done) = self.fabric.xfer(
                    now,
                    mc,
                    CMD_BITS + line_bits,
                    TrafficClass::Demand,
                    DEV_DRAM,
                );
                let acc = self.mc(mc).dram.access(xfer_done, la, kind);
                self.stage(Stage::DeviceDram, mc, acc.start, acc.data_at);
                acc.data_at
            }
        }
    }

    /// Round-trip of one line to the XPoint device.
    pub(crate) fn xpoint_line_rt(&mut self, now: Ps, mc: usize, la: Addr, kind: MemKind) -> Ps {
        let line_bits = self.cfg.line_bytes * 8;
        match kind {
            MemKind::Read => {
                let (_, cmd_done) =
                    self.fabric
                        .xfer(now, mc, CMD_BITS, TrafficClass::Demand, DEV_XPOINT);
                let c = {
                    let xp = self.mc(mc).xpoint.as_mut().expect("heterogeneous platform");
                    xp.read(cmd_done, la)
                };
                self.stage(Stage::DeviceXPoint, mc, c.accepted_at, c.media_done);
                if c.retries > 0 {
                    self.stage(Stage::MediaRetry, mc, c.accepted_at, c.media_done);
                }
                let (_, data_done) =
                    self.fabric
                        .xfer(c.ready_at, mc, line_bits, TrafficClass::Demand, DEV_XPOINT);
                data_done
            }
            MemKind::Write => {
                let (_, xfer_done) = self.fabric.xfer(
                    now,
                    mc,
                    CMD_BITS + line_bits,
                    TrafficClass::Demand,
                    DEV_XPOINT,
                );
                let c = {
                    let xp = self.mc(mc).xpoint.as_mut().expect("heterogeneous platform");
                    xp.write(xfer_done, la)
                };
                self.stage(Stage::DeviceXPoint, mc, c.accepted_at, c.media_done);
                if c.retries > 0 {
                    self.stage(Stage::MediaRetry, mc, c.accepted_at, c.media_done);
                }
                c.ready_at
            }
        }
    }

    /// Books the DRAM side of a page copy: `lines` consecutive line
    /// accesses (mostly row hits), returning the last completion.
    pub(crate) fn dram_page_op(&mut self, start: Ps, mc: usize, base: Addr, kind: MemKind) -> Ps {
        let lines = self.cfg.memory.page_bytes / self.cfg.line_bytes;
        let line_bytes = self.cfg.line_bytes;
        let stages_on = self.stages_on;
        let mut done = start;
        for i in 0..lines {
            let acc = self
                .mc(mc)
                .dram
                .access(start, base.offset(i * line_bytes), kind);
            if stages_on {
                self.stage(Stage::DeviceDram, mc, acc.start, acc.data_at);
            }
            done = done.max(acc.data_at);
        }
        done
    }

    /// Registers the two pages of a swap with *independent* release
    /// times: the promoted page is DRAM-served once the promote leg's
    /// DRAM write completes, regardless of how long the (cold) demoted
    /// page's XPoint write stays buffered.
    pub(crate) fn register_swap_pages(
        &mut self,
        mc: usize,
        dram_addr: Addr,
        xpoint_addr: Addr,
        promote_done: Ps,
        demote_done: Ps,
    ) {
        let id1 = self
            .mc(mc)
            .conflicts
            .register_dram_page(dram_addr, xpoint_addr, promote_done);
        self.pending.push((promote_done, mc, id1));
        let id2 = self
            .mc(mc)
            .conflicts
            .register_xpoint_page(xpoint_addr, dram_addr, demote_done);
        self.pending.push((demote_done, mc, id2));
    }
}

/// One controller's MSHR merge table: the completion time of each line
/// fill that a later read of the same line may still merge with. Keyed
/// by line index, so the seedless [`FastMap`] hasher is safe and shaves
/// SipHash off the per-read path.
///
/// A fill that completed at or before the current event time can never
/// merge again: every later read arrives at or after that time, and a
/// read treats a completed fill like a missing one. The table drops
/// such entries whenever it has doubled since its last prune, so it
/// stays proportional to the fills in flight — at most one per waiting
/// warp — at amortized O(1) per insert.
#[derive(Debug, Default)]
struct MergeTable {
    fills: FastMap<u64, Ps>,
    /// Size at which the next insert prunes first.
    prune_at: usize,
}

impl MergeTable {
    /// The completion time of the outstanding fill of `line` that a read
    /// at `now` merges with, if any.
    #[inline]
    fn merge(&self, line: u64, now: Ps) -> Option<Ps> {
        self.fills.get(&line).copied().filter(|&done| done > now)
    }

    /// Records a fill of `line` completing at `done`; `floor` is the
    /// current event time, before which no later read arrives.
    fn insert(&mut self, line: u64, done: Ps, floor: Ps) {
        if self.fills.len() >= self.prune_at {
            self.fills.retain(|_, &mut d| d > floor);
            self.prune_at = 2 * self.fills.len().max(1);
            // Give back the buckets of a drained burst, so the next
            // prune's scan stays proportional to what is live.
            if self.fills.capacity() > 2 * self.prune_at {
                self.fills.shrink_to(self.prune_at);
            }
        }
        self.fills.insert(line, done);
    }

    /// Live entries (fills not yet pruned).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.fills.len()
    }

    /// Heap bytes held by the table: one `(line, done)` slot plus one
    /// control byte per bucket of capacity.
    fn heap_bytes(&self) -> usize {
        self.fills.capacity() * (std::mem::size_of::<(u64, Ps)>() + 1)
    }
}

/// The assembled memory side of a platform: controllers, fabric, and the
/// platform/mode-specific [`MemoryBackend`].
pub(crate) struct MemorySubsystem {
    pub(crate) mcs: Vec<MemoryController>,
    pub(crate) fabric: Box<dyn Fabric + Send>,
    pub(crate) backend: Box<dyn MemoryBackend + Send>,
    /// Per-controller MSHR merge tables of in-flight line fills.
    in_flight: Vec<MergeTable>,
    /// Migration releases awaiting transfer onto the event queue.
    pending: Vec<PendingRelease>,
    /// Reusable buffer for stage intervals batched during one request.
    stage_batch: Vec<StageEvent>,
    /// Reusable buffer for fabric recovery events drained per request.
    recovery_scratch: Vec<RecoveryEvent>,
    /// Total DRAM capacity across controllers.
    pub(crate) dram_capacity: u64,
    /// Total XPoint capacity across controllers.
    pub(crate) xpoint_capacity: u64,
    /// Reciprocal of the controller count for per-access interleave decode.
    ctrl_div: FastDiv,
}

impl MemorySubsystem {
    /// Sizes and assembles the memory side of `platform` around `spec`.
    pub(crate) fn build(
        cfg: &SystemConfig,
        platform: Platform,
        mode: OperationalMode,
        spec: &WorkloadSpec,
    ) -> Self {
        let controllers = cfg.memory.controllers;
        let page = cfg.memory.page_bytes;
        let footprint_pages = (spec.footprint_bytes / page).max(1);
        let pages_per_mc = footprint_pages.div_ceil(controllers as u64);

        // Per-MC capacities, preserving the mode's capacity ratios.
        let (dram_local, xp_local) = match (platform.is_heterogeneous(), mode) {
            (true, OperationalMode::Planar) => {
                let group = cfg.memory.planar_ratio as u64 + 1;
                let groups = pages_per_mc.div_ceil(group);
                (
                    groups * page,
                    groups * cfg.memory.planar_ratio as u64 * page,
                )
            }
            (true, OperationalMode::TwoLevel) => {
                let span = pages_per_mc * page;
                let dram = (span / (cfg.memory.two_level_ratio as u64 + 1))
                    .next_power_of_two()
                    .max(cfg.line_bytes);
                (dram, span)
            }
            (false, _) => match platform {
                Platform::Origin => {
                    let span = pages_per_mc * page;
                    let dram =
                        ((span as f64 * cfg.memory.origin_resident_fraction) as u64).max(page);
                    (dram, 0)
                }
                _ => (pages_per_mc * page, 0), // Oracle: all-DRAM
            },
        };

        // Every platform presents the same per-channel DRAM interface
        // (dual-rank modules); capacity differences change how much data
        // fits, not the pin-side bank parallelism.
        let dram_cfg = ohm_mem::DramConfig {
            timing: cfg.memory.dram_timing,
            banks: cfg.memory.dram_banks,
            ranks: cfg.memory.dram_ranks,
            row_bytes: 2048,
            capacity_bytes: dram_local.max(2048),
            refresh_enabled: true,
        };
        let xp_cfg = ohm_mem::xpoint_ctrl::XpCtrlConfig {
            media: ohm_mem::XPointConfig {
                capacity_bytes: xp_local.max(page),
                line_bytes: cfg.line_bytes,
                ..cfg.memory.xpoint.media
            },
            ..cfg.memory.xpoint
        };

        let mcs = (0..controllers)
            .map(|mc| MemoryController {
                ctrl: ohm_sim::Calendar::new(),
                dram: DramModule::new(dram_cfg),
                xpoint: platform.is_heterogeneous().then(|| {
                    let mut xp = XPointController::new(xp_cfg);
                    // Arm media stall injection with a per-MC RNG stream
                    // forked from the plan seed (determinism contract:
                    // DESIGN.md §"Fault & recovery model").
                    if let Some(plan) = cfg.faults.as_ref().filter(|p| p.xpoint.stall_ppm > 0) {
                        let mut root = SplitMix64::new(plan.seed);
                        xp.inject_faults(plan.xpoint, root.fork(mc as u64));
                    }
                    // Arm the wear-out lifecycle the same way: one RNG
                    // stream per MC forked from the plan seed. A quiescent
                    // plan is never armed, so it draws nothing and stays
                    // bit-identical to a plan-free run.
                    if let Some(plan) = cfg.lifecycle.as_ref().filter(|p| !p.is_quiescent()) {
                        let mut root = SplitMix64::new(plan.seed);
                        xp.arm_lifecycle(plan.xpoint, root.fork(mc as u64));
                    }
                    xp
                }),
                conflicts: ConflictDetector::new(page),
                ddr_seq: DdrSequenceGenerator::new(cfg.line_bytes),
                ddr_monitor: DdrMonitor::new(),
                outstanding: BinaryHeap::new(),
            })
            .collect();

        let caps = platform.migration_caps();
        let fabric = build_fabric(cfg, platform, mode, &caps);
        let backend = build_backend(cfg, platform, mode, spec, caps, dram_local, xp_local);

        MemorySubsystem {
            mcs,
            fabric,
            backend,
            in_flight: (0..controllers).map(|_| MergeTable::default()).collect(),
            pending: Vec::new(),
            stage_batch: Vec::new(),
            recovery_scratch: Vec::new(),
            dram_capacity: dram_local * controllers as u64,
            xpoint_capacity: xp_local * controllers as u64,
            ctrl_div: FastDiv::new(controllers as u64),
        }
    }

    /// The controller owning a global address under the interleaving.
    #[inline]
    pub(crate) fn mc_of(&self, cfg: &SystemConfig, addr: Addr) -> usize {
        self.ctrl_div
            .rem(addr.block_index(cfg.memory.interleave_bytes)) as usize
    }

    /// A demand read reaching memory controller `mc` at `now`; returns
    /// when data is back at the controller. `floor` is the time of the
    /// event being handled: no read of this run arrives before it.
    pub(crate) fn read(
        &mut self,
        cfg: &SystemConfig,
        stats: &mut RunStats,
        floor: Ps,
        now: Ps,
        mc: usize,
        addr: Addr,
    ) -> Ps {
        let line = addr.block_index(cfg.line_bytes);
        if let Some(done) = self.in_flight[mc].merge(line, now) {
            return done; // MSHR merge with the outstanding fill
        }
        stats.record_mem_request();
        // MSHR file: a full set of outstanding misses delays this one
        // until the earliest in-flight miss completes.
        let now = {
            let m = &mut self.mcs[mc];
            while m
                .outstanding
                .peek()
                .is_some_and(|&Reverse(t)| t <= now.as_ps())
            {
                m.outstanding.pop();
            }
            if m.outstanding.len() >= cfg.memory.mshr_per_mc {
                match m.outstanding.pop() {
                    Some(Reverse(t)) => now.max(Ps::from_ps(t)),
                    None => now,
                }
            } else {
                now
            }
        };
        let (_, t0) = self.mcs[mc].ctrl.book(now, cfg.memory.mc_overhead);
        stats.record_stage(Stage::CtrlQueue, mc, now, t0);
        let done = self.service(cfg, stats, t0, mc, addr, MemKind::Read);
        self.mcs[mc].outstanding.push(Reverse(done.as_ps()));
        stats.record_mem_latency(done - now);
        self.in_flight[mc].insert(line, done, floor);
        done
    }

    /// A write reaching memory controller `mc` (stores, L2 writebacks).
    pub(crate) fn write(
        &mut self,
        cfg: &SystemConfig,
        stats: &mut RunStats,
        now: Ps,
        mc: usize,
        addr: Addr,
    ) {
        let (_, t0) = self.mcs[mc].ctrl.book(now, cfg.memory.mc_overhead);
        stats.record_stage(Stage::CtrlQueue, mc, now, t0);
        let _ = self.service(cfg, stats, t0, mc, addr, MemKind::Write);
    }

    /// Platform/mode-dependent service of one line request at one MC,
    /// delegated to the backend. `ga` is the global line address.
    fn service(
        &mut self,
        cfg: &SystemConfig,
        stats: &mut RunStats,
        now: Ps,
        mc: usize,
        ga: Addr,
        kind: MemKind,
    ) -> Ps {
        // The controller-local address: the interleave chunk index
        // divided down by the controller count, same offset within it.
        let il = cfg.memory.interleave_bytes;
        let la =
            Addr::from_block(self.ctrl_div.div(ga.block_index(il)), il).offset(ga.offset_in(il));
        let stages_on = stats.stages_enabled();
        let done = {
            let mut env = MemEnv {
                cfg,
                mcs: &mut self.mcs,
                fabric: self.fabric.as_mut(),
                stats,
                pending: &mut self.pending,
                stages_on,
                stage_batch: &mut self.stage_batch,
            };
            self.backend.service(&mut env, now, mc, ga, la, kind)
        };
        // Drain the stage intervals the request batched, in recording
        // order, before the recovery and lifecycle stages below — the
        // same per-request order as recording each hop inline.
        for ev in self.stage_batch.drain(..) {
            stats.record_stage(ev.stage, ev.res as usize, ev.start, ev.end);
        }
        // Surface the fabric's recovery actions (retransmissions,
        // re-arbitrations, electrical fallbacks) as first-class stages.
        self.fabric.drain_recovery_into(&mut self.recovery_scratch);
        for ev in self.recovery_scratch.drain(..) {
            stats.record_stage(ev.stage, ev.vc, ev.start, ev.end);
        }
        // Surface the XPoint controller's lifecycle actions the same way,
        // and feed permanently lost lines back into the capacity planner
        // (detect → correct → retire → re-plan). An unarmed or quiescent
        // lifecycle produces no events, so nothing is recorded.
        let mut dead_lines = Vec::new();
        if let Some(xp) = self.mcs[mc].xpoint.as_mut() {
            if xp.lifecycle_armed() {
                for ev in xp.drain_lifecycle_events() {
                    let stage = match ev.kind {
                        XpLifecycleEventKind::EccCorrect => Stage::EccCorrect,
                        XpLifecycleEventKind::LineRetire => Stage::LineRetire,
                        XpLifecycleEventKind::RemapSpare => Stage::RemapSpare,
                    };
                    stats.record_stage(stage, mc, ev.start, ev.end);
                }
                dead_lines = xp.drain_dead_notices();
            }
        }
        for line in dead_lines {
            self.backend
                .retire_xpoint_line(mc, Addr::from_block(line, cfg.line_bytes));
        }
        done
    }

    /// A delegated migration released its pages.
    pub(crate) fn complete_migration(&mut self, mc: usize, id: u64) {
        self.mcs[mc].conflicts.complete(id);
    }

    /// Drains the migration releases produced since the last call into
    /// `out` (cleared first); both buffers keep their capacity, so the
    /// steady state allocates nothing.
    pub(crate) fn take_pending_into(&mut self, out: &mut Vec<PendingRelease>) {
        out.clear();
        std::mem::swap(out, &mut self.pending);
    }

    /// The host-staging breakdown, if this platform stages over a host.
    pub(crate) fn host_report(&self) -> Option<HostReport> {
        self.backend.host_report()
    }

    /// Heap bytes held by footprint-proportional-looking metadata across
    /// the subsystem: the policy backend's planner state, every XPoint
    /// controller's wear-tracking map, and the MSHR merge tables. The
    /// first two are sparse, so they scale with pages/buckets actually
    /// touched; the merge tables scale with fills in flight. The
    /// bounded-memory tier-1 test asserts this stays flat as the
    /// simulated footprint grows.
    pub(crate) fn state_bytes(&self) -> usize {
        let wear: usize = self
            .mcs
            .iter()
            .filter_map(|mc| mc.xpoint.as_ref())
            .map(|xp| xp.wear_map().state_bytes())
            .sum();
        let merge: usize = self.in_flight.iter().map(MergeTable::heap_bytes).sum();
        self.backend.state_bytes() + wear + merge
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;
    use ohm_workloads::workload_by_name;

    #[test]
    fn a_read_of_a_line_in_flight_merges_with_its_fill() {
        let cfg = SystemConfig::quick_test();
        let spec = workload_by_name("pagerank").unwrap();
        let mut mem =
            MemorySubsystem::build(&cfg, Platform::OhmBase, OperationalMode::Planar, &spec);
        let mut stats = RunStats::default();
        let addr = Addr::from_block(1234, cfg.line_bytes);
        let mc = mem.mc_of(&cfg, addr);

        let done = mem.read(&cfg, &mut stats, Ps::ZERO, Ps::ZERO, mc, addr);
        assert!(done > Ps::ZERO);
        assert_eq!(stats.mem_requests, 1);

        // A second read while the fill is outstanding merges: same
        // completion, no new request.
        let just_before = done - Ps::from_ps(1);
        let merged = mem.read(&cfg, &mut stats, Ps::ZERO, just_before, mc, addr);
        assert_eq!(merged, done);
        assert_eq!(stats.mem_requests, 1);

        // Once the fill has completed, a read of the line is a new miss.
        let again = mem.read(&cfg, &mut stats, done, done, mc, addr);
        assert!(again > done);
        assert_eq!(stats.mem_requests, 2);
    }

    #[test]
    fn merge_tables_stay_bounded_by_the_warps() {
        let cfg = SystemConfig::quick_test();
        let warps = cfg.gpu.sms * cfg.gpu.sm.warps;
        let spec = workload_by_name("pagerank").unwrap();
        for platform in Platform::ALL {
            let mut sys = System::new(&cfg, platform, OperationalMode::Planar, &spec);
            sys.run();
            let held: usize = sys.mem.in_flight.iter().map(MergeTable::len).sum();
            assert!(
                held <= 2 * warps,
                "{platform:?}: {held} merge entries for {warps} warps"
            );
        }
    }
}
