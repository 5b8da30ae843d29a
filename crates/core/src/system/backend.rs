//! The backend layer: platform-specific capacity-management policy.
//!
//! A [`MemoryBackend`] decides *where* a line request is served and what
//! migration machinery runs as a side effect; the mechanics of getting
//! bits to devices stay in the [`memory`](super::memory) layer, reached
//! through the [`MemEnv`] handed to every call. One backend exists per
//! system (policy state that is per-controller, like the planar mapping,
//! is a `Vec` indexed by `mc`):
//!
//! - `OracleBackend` — all-DRAM upper bound, no policy at all.
//! - `OriginBackend` — discrete GPU memory with host/SSD staging (in
//!   the private `origin` module).
//! - `PlanarBackend` — hot-page promotion by DRAM/XPoint page swaps.
//! - `TwoLevelBackend` — DRAM as a direct-mapped cache over XPoint.

use ohm_hetero::{
    MigrationCaps, PlanarConfig, PlanarLocation, PlanarMapping, Platform, SwapRequest,
    TwoLevelCache, TwoLevelConfig, TwoLevelOutcome,
};
use ohm_mem::protocol::SwapCmd;
use ohm_mem::MemKind;
use ohm_optic::{OperationalMode, TrafficClass};
use ohm_sim::{Addr, Ps};
use ohm_workloads::WorkloadSpec;

use crate::config::SystemConfig;
use crate::metrics::{HostReport, PlannerWear};

use super::memory::{MemEnv, CMD_BITS, DEV_DRAM, DEV_XPOINT};
use super::origin::OriginBackend;
use super::stats::Stage;

/// Platform policy for servicing one line request at one controller.
///
/// `ga` is the global line address, `la` the controller-local one;
/// implementations return when the request's data is back at the MC.
pub trait MemoryBackend {
    /// Services one request, booking all machinery it sets in motion
    /// (migrations, host staging, evictions) through `env`.
    fn service(
        &mut self,
        env: &mut MemEnv<'_>,
        now: Ps,
        mc: usize,
        ga: Addr,
        la: Addr,
        kind: MemKind,
    ) -> Ps;

    /// The host-staging breakdown, for platforms that stage over a host.
    fn host_report(&self) -> Option<HostReport> {
        None
    }

    /// Tells the backend that the XPoint line at `xpoint_addr` on
    /// controller `mc` is permanently lost (wear retirement past the
    /// spare budget, or an injected-fault poison under an armed
    /// lifecycle): the page containing it must vanish from future
    /// swap/migration targets. Default: ignore (platforms without an
    /// XPoint tier, or without capacity planning).
    fn retire_xpoint_line(&mut self, _mc: usize, _xpoint_addr: Addr) {}

    /// Planner-side capacity-degradation view, for backends that track
    /// one (see [`PlannerWear`]).
    fn planner_wear(&self) -> Option<PlannerWear> {
        None
    }

    /// Heap bytes the backend's planner/metadata state occupies right
    /// now. For sparse backends this scales with touched pages, not with
    /// the simulated footprint — bounded-memory tests assert on it.
    /// Default: zero (stateless backends).
    fn state_bytes(&self) -> usize {
        0
    }
}

/// Builds the policy backend for `platform`, sized like the devices in
/// [`MemorySubsystem::build`](super::memory::MemorySubsystem::build).
pub(crate) fn build_backend(
    cfg: &SystemConfig,
    platform: Platform,
    mode: OperationalMode,
    spec: &WorkloadSpec,
    caps: MigrationCaps,
    dram_local: u64,
    xp_local: u64,
) -> Box<dyn MemoryBackend + Send> {
    let page = cfg.memory.page_bytes;
    let footprint_pages = (spec.footprint_bytes / page).max(1);
    let pages_per_mc = footprint_pages.div_ceil(cfg.memory.controllers as u64);

    match platform {
        Platform::Oracle => Box::new(OracleBackend),
        Platform::Origin => Box::new(OriginBackend::build(cfg, spec)),
        _ => match mode {
            OperationalMode::Planar => Box::new(PlanarBackend {
                maps: (0..cfg.memory.controllers)
                    .map(|_| {
                        PlanarMapping::new(PlanarConfig {
                            page_bytes: page,
                            ratio: cfg.memory.planar_ratio,
                            hot_threshold: cfg.memory.hot_threshold,
                            capacity_bytes: pages_per_mc
                                .div_ceil(cfg.memory.planar_ratio as u64 + 1)
                                * (cfg.memory.planar_ratio as u64 + 1)
                                * page,
                        })
                    })
                    .collect(),
                caps,
            }),
            OperationalMode::TwoLevel => Box::new(TwoLevelBackend {
                caches: (0..cfg.memory.controllers)
                    .map(|_| {
                        TwoLevelCache::new(TwoLevelConfig {
                            dram_bytes: dram_local.max(cfg.line_bytes),
                            xpoint_bytes: xp_local.max(page),
                            line_bytes: cfg.line_bytes,
                        })
                    })
                    .collect(),
                caps,
            }),
        },
    }
}

/// Oracle: every access is a local DRAM hit — the all-DRAM upper bound.
struct OracleBackend;

impl MemoryBackend for OracleBackend {
    fn service(
        &mut self,
        env: &mut MemEnv<'_>,
        now: Ps,
        mc: usize,
        _ga: Addr,
        la: Addr,
        kind: MemKind,
    ) -> Ps {
        env.stats.record_service(true);
        env.dram_line_rt(now, mc, la, kind)
    }
}

/// Planar mode: DRAM and XPoint side by side in one flat space, with
/// hot XPoint pages promoted by swapping against cold DRAM pages.
struct PlanarBackend {
    /// Per-controller page mapping and hotness tracking.
    maps: Vec<PlanarMapping>,
    caps: MigrationCaps,
}

/// Books one page swap's machinery and commits the remap.
fn planar_swap(
    map: &mut PlanarMapping,
    caps: MigrationCaps,
    env: &mut MemEnv<'_>,
    now: Ps,
    mc: usize,
    req: SwapRequest,
) {
    let page_bits = req.page_bytes * 8;
    let lines = req.page_bytes / env.cfg.line_bytes;
    env.stats.record_migration();

    if caps.swap {
        // SWAP-CMD metadata on the data route; the copy itself rides
        // the memory route under the XPoint controller's DDR sequence
        // generator (Figures 10a and 11).
        let (_, cmd_done) = env.fabric.xfer(
            now,
            mc,
            SwapCmd::METADATA_BITS,
            TrafficClass::Migration,
            DEV_XPOINT,
        );
        let preset = env.mc(mc).dram.preset_row(cmd_done, req.dram_addr);
        let promote_read = {
            let xp = env.mc(mc).xpoint.as_mut().expect("planar");
            xp.read_page(cmd_done, req.xpoint_addr, lines).ready_at
        };
        let (_, to_dram) = env
            .fabric
            .memory_route(promote_read.max(preset), mc, page_bits);
        // The XPoint controller's DDR sequence generator drives the
        // DRAM transactions directly (Figure 11, steps 3-4).
        let dram_written = {
            let m = env.mc(mc);
            m.ddr_seq.execute_page(
                &mut m.dram,
                to_dram,
                req.dram_addr,
                req.page_bytes,
                MemKind::Write,
            )
        };
        let dram_read = {
            let m = env.mc(mc);
            m.ddr_seq.execute_page(
                &mut m.dram,
                preset,
                req.dram_addr,
                req.page_bytes,
                MemKind::Read,
            )
        };
        let (_, to_xp) = env.fabric.memory_route(dram_read, mc, page_bits);
        let xp_written = {
            let xp = env.mc(mc).xpoint.as_mut().expect("planar");
            xp.write_page(to_xp, req.xpoint_addr, lines).ready_at
        };
        env.stage(Stage::Migration, mc, now, dram_written);
        env.register_swap_pages(mc, req.dram_addr, req.xpoint_addr, dram_written, xp_written);
    } else if caps.auto_rw {
        // Reads before writes: the XPoint controller prioritises
        // latency-critical reads over buffered write drains, so the
        // promote leg's page read is booked first.
        //
        // Promote leg runs through the controller: XP -> MC -> DRAM.
        let promote_read = {
            let xp = env.mc(mc).xpoint.as_mut().expect("planar");
            xp.read_page(now, req.xpoint_addr, lines).ready_at
        };
        let (_, up) = env.fabric.xfer(
            promote_read,
            mc,
            page_bits,
            TrafficClass::Migration,
            DEV_XPOINT,
        );
        let (_, down) = env
            .fabric
            .xfer(up, mc, page_bits, TrafficClass::Migration, DEV_DRAM);
        let dram_written = env.dram_page_op(down, mc, req.dram_addr, MemKind::Write);
        // Demote leg: the MC reads the DRAM page over the data route;
        // the XPoint controller snarfs it - no second transfer.
        let dram_read = env.dram_page_op(now, mc, req.dram_addr, MemKind::Read);
        let (_, demote_xfer) =
            env.fabric
                .xfer(dram_read, mc, page_bits, TrafficClass::Migration, DEV_DRAM);
        {
            let line_bytes = env.cfg.line_bytes;
            let xp = env.mc(mc).xpoint.as_mut().expect("planar");
            for i in 0..lines {
                xp.snarf_write(demote_xfer, req.xpoint_addr.offset(i * line_bytes));
            }
        }
        // The MC is not held for the copy: it keeps issuing demand
        // requests to devices that are not busy (Figure 7a, step 1);
        // the migration's cost is the channel and device occupancy.
        env.stage(Stage::Migration, mc, now, dram_written);
        env.register_swap_pages(
            mc,
            req.dram_addr,
            req.xpoint_addr,
            dram_written,
            demote_xfer,
        );
    } else {
        // Via-controller: both legs are two full transfers each, and
        // the MC is occupied for the duration (Hetero / Ohm-base).
        let promote_read = {
            let xp = env.mc(mc).xpoint.as_mut().expect("planar");
            xp.read_page(now, req.xpoint_addr, lines).ready_at
        };
        let (_, up) = env.fabric.xfer(
            promote_read,
            mc,
            page_bits,
            TrafficClass::Migration,
            DEV_XPOINT,
        );
        let (_, down) = env
            .fabric
            .xfer(up, mc, page_bits, TrafficClass::Migration, DEV_DRAM);
        let dram_written = env.dram_page_op(down, mc, req.dram_addr, MemKind::Write);
        let dram_read = env.dram_page_op(now, mc, req.dram_addr, MemKind::Read);
        let (_, up2) = env
            .fabric
            .xfer(dram_read, mc, page_bits, TrafficClass::Migration, DEV_DRAM);
        let (_, down2) = env
            .fabric
            .xfer(up2, mc, page_bits, TrafficClass::Migration, DEV_XPOINT);
        let xp_written = {
            let xp = env.mc(mc).xpoint.as_mut().expect("planar");
            xp.write_page(down2, req.xpoint_addr, lines).ready_at
        };
        env.stage(Stage::Migration, mc, now, dram_written);
        env.register_swap_pages(mc, req.dram_addr, req.xpoint_addr, dram_written, xp_written);
    }
    map.commit_swap(&req);
}

impl MemoryBackend for PlanarBackend {
    fn service(
        &mut self,
        env: &mut MemEnv<'_>,
        now: Ps,
        mc: usize,
        _ga: Addr,
        la: Addr,
        kind: MemKind,
    ) -> Ps {
        let map = &mut self.maps[mc];
        if let Some(req) = map.record_access(la) {
            planar_swap(map, self.caps, env, now, mc, req);
        }
        match map.lookup(la) {
            PlanarLocation::Dram(pa) => {
                // While the page's swap is still in flight the data lives
                // at its old XPoint location; serve from the stale copy
                // rather than stalling (the remap commits at swap end).
                if let Some(r) = env.mc(mc).conflicts.redirect_dram(pa) {
                    let paired = r.paired;
                    env.stats.record_service(false);
                    return env.xpoint_line_rt(now, mc, paired, kind);
                }
                env.stats.record_service(true);
                env.dram_line_rt(now, mc, pa, kind)
            }
            PlanarLocation::XPoint(pa) => {
                if let Some(r) = env.mc(mc).conflicts.redirect_xpoint(pa) {
                    let paired = r.paired;
                    env.stats.record_service(true);
                    return env.dram_line_rt(now, mc, paired, kind);
                }
                env.stats.record_service(false);
                env.xpoint_line_rt(now, mc, pa, kind)
            }
        }
    }

    fn retire_xpoint_line(&mut self, mc: usize, xpoint_addr: Addr) {
        self.maps[mc].retire_xpoint_page(xpoint_addr);
    }

    fn planner_wear(&self) -> Option<PlannerWear> {
        let n = self.maps.len().max(1) as f64;
        Some(PlannerWear {
            pinned: self.maps.iter().map(|m| m.pinned_swaps()).sum(),
            usable_fraction: self
                .maps
                .iter()
                .map(|m| m.usable_xpoint_fraction())
                .sum::<f64>()
                / n,
            effective_ratio: self.maps.iter().map(|m| m.effective_ratio()).sum::<f64>() / n,
        })
    }

    fn state_bytes(&self) -> usize {
        self.maps.iter().map(|m| m.state_bytes()).sum()
    }
}

/// Two-level mode: the DRAM module is a direct-mapped, line-grained
/// cache in front of the XPoint capacity.
struct TwoLevelBackend {
    /// Per-controller tag/dirty state.
    caches: Vec<TwoLevelCache>,
    caps: MigrationCaps,
}

impl MemoryBackend for TwoLevelBackend {
    fn service(
        &mut self,
        env: &mut MemEnv<'_>,
        now: Ps,
        mc: usize,
        _ga: Addr,
        la: Addr,
        kind: MemKind,
    ) -> Ps {
        let cache = &mut self.caches[mc];
        let line_bits = env.cfg.line_bytes * 8;
        let is_write = matches!(kind, MemKind::Write);
        let span = cache.config().xpoint_bytes;
        let la = Addr::new(la.get() % span);
        match cache.access(la, is_write) {
            TwoLevelOutcome::Hit { dram_addr } => {
                env.stats.record_service(true);
                let stall = env
                    .mc(mc)
                    .conflicts
                    .stall_until(dram_addr)
                    .unwrap_or(Ps::ZERO);
                env.dram_line_rt(now.max(stall), mc, dram_addr, kind)
            }
            TwoLevelOutcome::Miss {
                dram_addr,
                xpoint_addr,
                evict_to,
            } => {
                env.stats.record_service(false);
                env.stats.record_migration();
                // 1. Tag-check read: the MC always reads the DRAM line (tag
                //    travels with data in the ECC bits).
                let tag_read = env.dram_line_rt(now, mc, dram_addr, MemKind::Read);
                // 2. Fetch the missing line from XPoint (demand-critical:
                //    the read is booked before the victim's buffered write
                //    so it is not queued behind a 763 ns drain). With
                //    reverse write, the XPoint->DRAM fill transfer itself
                //    delivers the data: the MC's DDR monitor snarfs the
                //    memory-route burst (Figure 12), so nothing but the
                //    command uses the data route.
                let data_at_mc = if self.caps.reverse_write {
                    let (_, cmd_done) =
                        env.fabric
                            .xfer(tag_read, mc, CMD_BITS, TrafficClass::Demand, DEV_XPOINT);
                    let ready = {
                        let xp = env.mc(mc).xpoint.as_mut().expect("two-level");
                        xp.read(cmd_done, xpoint_addr).ready_at
                    };
                    env.mc(mc).ddr_monitor.arm(cmd_done, xpoint_addr);
                    let (fill_start, fill_done) = env.fabric.memory_route(ready, mc, line_bits);
                    let m = env.mc(mc);
                    m.ddr_monitor.begin_snarf(fill_start);
                    m.ddr_monitor.complete(fill_done);
                    m.dram.access(fill_done, dram_addr, MemKind::Write);
                    fill_done
                } else {
                    env.xpoint_line_rt(tag_read, mc, xpoint_addr, MemKind::Read)
                };
                // 3. Dirty victim eviction.
                if let Some(victim) = evict_to {
                    if self.caps.auto_rw {
                        // The XPoint controller snarfed the tag-read burst
                        // and takes over the eviction (Figure 9b).
                        let xp = env.mc(mc).xpoint.as_mut().expect("two-level");
                        xp.snarf_write(tag_read, victim);
                    } else {
                        let (_, evict_xfer) = env.fabric.xfer(
                            tag_read,
                            mc,
                            CMD_BITS + line_bits,
                            TrafficClass::Migration,
                            DEV_XPOINT,
                        );
                        let xp = env.mc(mc).xpoint.as_mut().expect("two-level");
                        xp.write(evict_xfer, victim);
                    }
                }
                // 4. Fill the DRAM cacheline (reverse write already filled
                //    it from the snarfed burst above).
                if !self.caps.reverse_write {
                    let (_, fill_xfer) = env.fabric.xfer(
                        data_at_mc,
                        mc,
                        CMD_BITS + line_bits,
                        TrafficClass::Migration,
                        DEV_DRAM,
                    );
                    env.mc(mc).dram.access(fill_xfer, dram_addr, MemKind::Write);
                }
                env.stage(Stage::Migration, mc, now, data_at_mc);
                data_at_mc
            }
            TwoLevelOutcome::Bypass { xpoint_addr } => {
                // Retired-backed line (or a slot pinned by one): served
                // straight from the best-effort XPoint path, never filled
                // into DRAM — a fill would strand the only durable copy
                // on dead media at eviction time.
                env.stats.record_service(false);
                env.xpoint_line_rt(now, mc, xpoint_addr, kind)
            }
        }
    }

    fn retire_xpoint_line(&mut self, mc: usize, xpoint_addr: Addr) {
        self.caches[mc].retire_line(xpoint_addr);
    }

    fn planner_wear(&self) -> Option<PlannerWear> {
        let n = self.caches.len().max(1) as f64;
        let usable = self
            .caches
            .iter()
            .map(|c| c.usable_xpoint_fraction())
            .sum::<f64>()
            / n;
        // The two-level "ratio" is XPoint capacity over DRAM cache
        // capacity; retirement shrinks the usable numerator.
        let cfg = self.caches.first().map(|c| *c.config());
        let ratio = cfg.map_or(0.0, |c| c.xpoint_bytes as f64 / c.dram_bytes.max(1) as f64);
        Some(PlannerWear {
            pinned: self.caches.iter().map(|c| c.bypasses()).sum(),
            usable_fraction: usable,
            effective_ratio: ratio * usable,
        })
    }

    fn state_bytes(&self) -> usize {
        self.caches.iter().map(|c| c.state_bytes()).sum()
    }
}
