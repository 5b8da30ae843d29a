//! Component kernels: each crate's public hot function timed outside the
//! simulator, on the workload's own `KernelWorkload` address stream, at
//! the workload configuration's geometry.
//!
//! The simulator's real call sequence interleaves these components; a
//! kernel runs one of them alone over the same addresses, so its ns per
//! call is a floor on the component's in-simulator cost. Multiplied by
//! the number of calls a run makes, it gives the component's share of
//! `System::run`; the ledger keeps what these shares do not explain as
//! `core.run.unattributed_share`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ohm_core::checkpoint::{CellSpec, FsyncPolicy, Journal};
use ohm_core::{SimReport, SystemConfig};
use ohm_hetero::{PlanarConfig, PlanarMapping, TwoLevelCache, TwoLevelConfig};
use ohm_mem::xpoint_ctrl::XpCtrlConfig;
use ohm_mem::{DramConfig, DramModule, MemKind, XPointConfig, XPointController};
use ohm_optic::{OpticalChannel, TrafficClass};
use ohm_sim::{Addr, EventQueue, Ps};
use ohm_sm::{AccessKind, Cache, InstructionStream, Interconnect};
use ohm_workloads::WorkloadSpec;

use crate::sim::kernel_stream;
use crate::stats::median;

/// Memory accesses taken from each workload row's stream.
const ACCESSES_PER_SPEC: usize = 60_000;
/// Timed repetitions of each kernel over the whole access trace.
const BATCHES: usize = 5;
/// Simulated time between two requests reaching a kernel's component.
const ARRIVAL: Ps = Ps::from_ps(1_000);
/// Journal appends timed by the checkpoint kernel.
const APPENDS: usize = 24;

/// One access of the trace: the issuing SM, the compute slice before it,
/// and the access itself.
#[derive(Debug, Clone, Copy)]
struct Access {
    sm: usize,
    compute: u64,
    addr: Addr,
    kind: AccessKind,
}

/// Host ns per call of each component kernel.
#[derive(Debug, Clone)]
pub struct KernelCosts {
    /// `EventQueue` push + pop at a depth of SMs x warps.
    pub queue: f64,
    /// `Cache::access` on the L1s (loads).
    pub l1: f64,
    /// `Cache::access` on the L2 (L1 misses and stores).
    pub l2: f64,
    /// `Interconnect::traverse`.
    pub xbar: f64,
    /// `DramModule::access`.
    pub dram: f64,
    /// `XPointController::read`.
    pub xpoint_read: f64,
    /// `XPointController::write`.
    pub xpoint_write: f64,
    /// `PlanarMapping::lookup` + `record_access` (+ `commit_swap` when a
    /// swap is requested).
    pub planar: f64,
    /// `TwoLevelCache::access`.
    pub two_level: f64,
    /// `OpticalChannel::transfer`.
    pub optic: f64,
}

/// Per-controller geometry, sized like `MemorySubsystem::build` sizes it.
struct Geometry {
    controllers: u64,
    interleave: u64,
    line: u64,
    span: u64,
    planar_dram: u64,
    planar_xpoint: u64,
    planar_capacity: u64,
    two_level_dram: u64,
}

impl Geometry {
    fn of(cfg: &SystemConfig, footprint: u64) -> Geometry {
        let page = cfg.memory.page_bytes;
        let controllers = cfg.memory.controllers as u64;
        let pages_per_mc = (footprint / page).max(1).div_ceil(controllers);
        let ratio = cfg.memory.planar_ratio as u64;
        let groups = pages_per_mc.div_ceil(ratio + 1);
        let span = pages_per_mc * page;
        Geometry {
            controllers,
            interleave: cfg.memory.interleave_bytes,
            line: cfg.line_bytes,
            span,
            planar_dram: groups * page,
            planar_xpoint: groups * ratio * page,
            planar_capacity: groups * (ratio + 1) * page,
            two_level_dram: (span / (cfg.memory.two_level_ratio as u64 + 1))
                .next_power_of_two()
                .max(cfg.line_bytes),
        }
    }

    /// Controller of a global address.
    fn mc(&self, a: Addr) -> usize {
        (a.block_index(self.interleave) % self.controllers) as usize
    }

    /// Line-aligned controller-local address.
    fn local(&self, a: Addr) -> u64 {
        let block = a.block_index(self.interleave);
        let local = (block / self.controllers) * self.interleave + a.offset_in(self.interleave);
        (local % self.span) / self.line * self.line
    }
}

/// Times `f` over the whole trace `BATCHES` times; median ns per call.
fn time_per_call(calls_per_batch: usize, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / calls_per_batch.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Collects up to [`ACCESSES_PER_SPEC`] accesses from each row's stream,
/// lanes visited round-robin as the warp engine would first visit them.
fn access_trace(cfg: &SystemConfig, specs: &[WorkloadSpec]) -> Vec<Access> {
    let mut trace = Vec::new();
    for spec in specs {
        let mut stream = kernel_stream(cfg, spec);
        let mut taken = 0;
        'rounds: loop {
            let mut progressed = false;
            for sm in 0..cfg.gpu.sms {
                for warp in 0..cfg.gpu.sm.warps {
                    let Some(slice) = stream.next_slice(sm, warp) else {
                        continue;
                    };
                    progressed = true;
                    if let Some((addr, kind)) = slice.access {
                        trace.push(Access {
                            sm,
                            compute: slice.compute_insts,
                            addr: addr.align_down(cfg.line_bytes),
                            kind,
                        });
                        taken += 1;
                        if taken == ACCESSES_PER_SPEC {
                            break 'rounds;
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
        }
    }
    trace
}

/// Runs every component kernel on the rows' address streams.
pub fn measure(cfg: &SystemConfig, specs: &[WorkloadSpec]) -> KernelCosts {
    let trace = access_trace(cfg, specs);
    let footprint = specs.iter().map(|s| s.footprint_bytes).max().unwrap_or(0);
    let geo = Geometry::of(cfg, footprint);
    let period = cfg.gpu.sm.freq.period();

    // The streams below the L1s, computed once untimed: what reaches the
    // L2, and what the L2 sends to memory.
    let mut l1s: Vec<Cache> = (0..cfg.gpu.sms).map(|_| Cache::new(cfg.gpu.l1)).collect();
    let mut l2 = Cache::new(cfg.gpu.l2);
    let mut to_l2 = Vec::new();
    let mut to_mem = Vec::new();
    for a in &trace {
        if a.kind.is_load() && l1s[a.sm].access(a.addr, false).hit {
            continue;
        }
        to_l2.push(*a);
        let lookup = l2.access(a.addr, !a.kind.is_load());
        if let Some(victim) = lookup.writeback {
            to_mem.push((victim, false));
        }
        if !lookup.hit {
            to_mem.push((a.addr, a.kind.is_load()));
        }
    }
    let loads = trace.iter().filter(|a| a.kind.is_load()).count();

    let depth = cfg.gpu.sms * cfg.gpu.sm.warps;
    let queue = {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(depth);
        for i in 0..depth {
            q.push(period * (i as u64 % 64), i as u32);
        }
        time_per_call(trace.len(), || {
            for a in &trace {
                let (t, e) = q.pop().expect("queue stays at full depth");
                q.push(t + period * (a.compute + 1), black_box(e));
            }
        })
    };

    let l1 = {
        let mut l1s: Vec<Cache> = (0..cfg.gpu.sms).map(|_| Cache::new(cfg.gpu.l1)).collect();
        time_per_call(loads, || {
            for a in trace.iter().filter(|a| a.kind.is_load()) {
                black_box(l1s[a.sm].access(a.addr, false));
            }
        })
    };

    let l2 = {
        let mut l2 = Cache::new(cfg.gpu.l2);
        time_per_call(to_l2.len(), || {
            for a in &to_l2 {
                black_box(l2.access(a.addr, !a.kind.is_load()));
            }
        })
    };

    let xbar = {
        let mut xbar = Interconnect::new(cfg.gpu.xbar);
        let ports = cfg.gpu.xbar.ports;
        let mut now = Ps::ZERO;
        time_per_call(to_l2.len(), || {
            for a in &to_l2 {
                now += ARRIVAL;
                black_box(xbar.traverse(now, geo.mc(a.addr) % ports, cfg.line_bytes));
            }
        })
    };

    let mem_calls = to_mem.len();
    let dram = {
        let mut dram = DramModule::new(DramConfig {
            timing: cfg.memory.dram_timing,
            banks: cfg.memory.dram_banks,
            ranks: cfg.memory.dram_ranks,
            row_bytes: 2048,
            capacity_bytes: geo.planar_dram.max(2048),
            refresh_enabled: true,
        });
        let mut now = Ps::ZERO;
        time_per_call(mem_calls, || {
            for &(a, is_load) in &to_mem {
                now += ARRIVAL;
                let la = Addr::new(geo.local(a) % geo.planar_dram.max(2048));
                let kind = if is_load {
                    MemKind::Read
                } else {
                    MemKind::Write
                };
                black_box(dram.access(now, la, kind));
            }
        })
    };

    let xpoint = || {
        XPointController::new(XpCtrlConfig {
            media: XPointConfig {
                capacity_bytes: geo.planar_xpoint.max(cfg.memory.page_bytes),
                line_bytes: cfg.line_bytes,
                ..cfg.memory.xpoint.media
            },
            ..cfg.memory.xpoint
        })
    };
    let xp_addr = |a: Addr| Addr::new(geo.local(a) % geo.planar_xpoint.max(cfg.memory.page_bytes));
    let xpoint_read = {
        let mut xp = xpoint();
        let mut now = Ps::ZERO;
        time_per_call(mem_calls, || {
            for &(a, _) in &to_mem {
                now += ARRIVAL;
                black_box(xp.read(now, xp_addr(a)));
            }
        })
    };
    let xpoint_write = {
        let mut xp = xpoint();
        let mut now = Ps::ZERO;
        time_per_call(mem_calls, || {
            for &(a, _) in &to_mem {
                now += ARRIVAL;
                black_box(xp.write(now, xp_addr(a)));
            }
        })
    };

    let planar = {
        let mut map = PlanarMapping::new(PlanarConfig {
            page_bytes: cfg.memory.page_bytes,
            ratio: cfg.memory.planar_ratio,
            hot_threshold: cfg.memory.hot_threshold,
            capacity_bytes: geo.planar_capacity,
        });
        time_per_call(mem_calls, || {
            for &(a, _) in &to_mem {
                let la = Addr::new(geo.local(a) % geo.planar_capacity);
                black_box(map.lookup(la));
                if let Some(req) = map.record_access(la) {
                    map.commit_swap(&req);
                }
            }
        })
    };

    let two_level = {
        let mut cache = TwoLevelCache::new(TwoLevelConfig {
            dram_bytes: geo.two_level_dram,
            xpoint_bytes: geo.span.max(cfg.memory.page_bytes),
            line_bytes: cfg.line_bytes,
        });
        time_per_call(mem_calls, || {
            for &(a, is_load) in &to_mem {
                black_box(cache.access(Addr::new(geo.local(a)), !is_load));
            }
        })
    };

    let optic = {
        let mut channel = OpticalChannel::new(cfg.optical);
        let vcs = channel.vc_count();
        let bits = cfg.line_bytes * 8;
        let mut now = Ps::ZERO;
        time_per_call(mem_calls, || {
            for &(a, _) in &to_mem {
                now += ARRIVAL;
                black_box(channel.transfer(now, geo.mc(a) % vcs, bits, TrafficClass::Demand, 0));
            }
        })
    };

    KernelCosts {
        queue,
        l1,
        l2,
        xbar,
        dram,
        xpoint_read,
        xpoint_write,
        planar,
        two_level,
        optic,
    }
}

/// Median host time of one `Journal::append` under
/// [`FsyncPolicy::Always`], appending the workload's own reports to a
/// fresh journal at `path` (removed afterwards).
pub fn journal_append(path: &std::path::Path, cells: &[(CellSpec, SimReport)]) -> Duration {
    let _ = std::fs::remove_file(path);
    let mut journal = Journal::open_with(path, FsyncPolicy::Always).expect("open a fresh journal");
    let mut samples: Vec<f64> = Vec::with_capacity(APPENDS);
    for i in 0..APPENDS {
        let (cell, report) = &cells[i % cells.len()];
        // Distinct keys, so every append is a new record.
        let key = cell.key() ^ (i as u64).rotate_left(32);
        let t = Instant::now();
        journal.append(key, report).expect("journal append");
        samples.push(t.elapsed().as_secs_f64());
    }
    drop(journal);
    let _ = std::fs::remove_file(path);
    Duration::from_secs_f64(median(&samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_addresses_stay_inside_the_controller_span() {
        let cfg = SystemConfig::evaluation();
        let geo = Geometry::of(&cfg, SystemConfig::EVALUATION_FOOTPRINT);
        for raw in [0u64, 4095, 1 << 20, (512 << 20) - 128, 3 << 30] {
            let a = Addr::new(raw);
            assert!(geo.local(a) < geo.span);
            assert_eq!(geo.local(a) % cfg.line_bytes, 0);
            assert!(geo.mc(a) < cfg.memory.controllers);
        }
        assert!(geo.planar_dram * cfg.memory.planar_ratio as u64 == geo.planar_xpoint);
    }
}
