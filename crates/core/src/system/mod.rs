//! The event-driven full-system model, decomposed into layers.
//!
//! [`System`] assembles one of the seven evaluated platforms around a
//! Table II workload and runs it to completion. Warps are the units of
//! progress: each warp alternates compute segments (booked on its SM's
//! issue pipeline) and memory accesses (resolved through L1 → L2 → memory
//! controller → channel → device, with platform-specific migration
//! machinery). Timing is resolved synchronously through calendar
//! resources; the event queue only carries warp resumptions and migration
//! completions, which keeps runs fast while preserving FCFS contention at
//! every shared resource.
//!
//! # Layers
//!
//! What used to be a single monolith is now four layers with explicit
//! boundaries, each in its own module:
//!
//! - `warp` — the `WarpEngine`: event loop, warp scheduling, SM issue.
//!   Knows nothing about memory.
//! - this module — the cache glue (`System::memory_access`: L1, the
//!   crossbar, L2, writebacks) connecting warps to memory.
//! - [`memory`] — the `MemorySubsystem`: controllers, MSHR files,
//!   devices, and the shared round-trip plumbing, behind one [`Fabric`].
//! - [`backend`] — a [`MemoryBackend`] per platform: *where* a request
//!   is served and what migration machinery runs as a side effect.
//!
//! Every layer records into one [`RunStats`], so counters are collected
//! uniformly instead of scattered over ad-hoc fields.

pub mod backend;
pub mod fabric;
pub mod memory;
mod origin;
mod report;
pub mod stats;
mod warp;

pub use backend::MemoryBackend;
pub use fabric::Fabric;
pub use stats::{RunStats, Stage};

use ohm_hetero::Platform;
use ohm_optic::OperationalMode;
use ohm_sim::{Addr, Ps};
use ohm_sm::{AccessKind, Cache, InstructionStream, Interconnect, WarpId};
use ohm_workloads::{KernelWorkload, PhasedWorkload, WorkloadSpec};

use crate::config::SystemConfig;
use crate::metrics::SimReport;

use memory::{MemorySubsystem, CMD_BITS};
use warp::{Event, SliceOutcome, WarpEngine};

/// The assembled full system.
///
/// # Example
///
/// ```
/// use ohm_core::config::SystemConfig;
/// use ohm_core::system::System;
/// use ohm_hetero::Platform;
/// use ohm_optic::OperationalMode;
/// use ohm_workloads::workload_by_name;
///
/// let cfg = SystemConfig::quick_test();
/// let spec = workload_by_name("lud").unwrap();
/// let mut sys = System::new(&cfg, Platform::OhmBase, OperationalMode::TwoLevel, &spec);
/// let report = sys.run();
/// assert!(report.instructions > 0);
/// ```
pub struct System {
    cfg: SystemConfig,
    platform: Platform,
    mode: OperationalMode,
    spec: WorkloadSpec,
    /// Event loop, warp scheduling, SM issue.
    engine: WarpEngine,
    /// Cache glue between the warps and the memory subsystem.
    l1s: Vec<Cache>,
    l2: Cache,
    xbar: Interconnect,
    /// Controllers, devices, fabric, and the platform's policy backend.
    mem: MemorySubsystem,
    /// Uniform per-layer counters.
    stats: RunStats,
    /// Reusable buffer for migration releases drained per warp step.
    pending_scratch: Vec<memory::PendingRelease>,
}

/// The instruction stream a configuration's own run uses: the spec's
/// synthetic kernel, or — when the configuration carries a
/// [`ohm_workloads::PhasePlan`] — a phased workload over the spec's
/// footprint. [`System::new`] and the recording runner both build their
/// stream here so a recorded run captures exactly what an unrecorded
/// run executes.
pub(crate) fn base_stream(cfg: &SystemConfig, spec: &WorkloadSpec) -> Box<dyn InstructionStream> {
    match &cfg.phases {
        Some(plan) => Box::new(PhasedWorkload::new(
            plan.clone(),
            cfg.gpu.sms,
            cfg.gpu.sm.warps,
            cfg.insts_per_warp,
            spec.footprint_bytes,
            cfg.seed,
        )),
        None => Box::new(KernelWorkload::new(
            *spec,
            cfg.gpu.sms,
            cfg.gpu.sm.warps,
            cfg.insts_per_warp,
            cfg.seed,
        )),
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("platform", &self.platform)
            .field("mode", &self.mode)
            .field("workload", &self.spec.name)
            .field("sms", &self.engine.sms.len())
            .field("now", &self.engine.queue.now())
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds a platform around a workload.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero controllers, footprint
    /// smaller than one page per controller, mismatched line sizes).
    pub fn new(
        cfg: &SystemConfig,
        platform: Platform,
        mode: OperationalMode,
        spec: &WorkloadSpec,
    ) -> Self {
        Self::with_stream(cfg, platform, mode, spec, base_stream(cfg, spec))
    }

    /// Builds a platform around an arbitrary instruction stream (e.g. a
    /// replayed [`ohm_workloads::TraceReplay`]); `spec` still provides
    /// the footprint (for capacity sizing) and the report's name.
    ///
    /// Streams with a non-empty
    /// [`phase_names`](InstructionStream::phase_names) vocabulary arm
    /// per-phase accounting: the report gains a
    /// [`crate::metrics::PhaseSummary`]. Note a replayed trace is
    /// *unphased* — the v1 format does not carry phase identity — so a
    /// replay of a phased run reproduces its timing bit-identically but
    /// reports `phases: None`.
    pub fn with_stream(
        cfg: &SystemConfig,
        platform: Platform,
        mode: OperationalMode,
        spec: &WorkloadSpec,
        stream: Box<dyn InstructionStream>,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid system configuration: {e}");
        }
        if let Err(e) = cfg.validate_footprint(spec.footprint_bytes) {
            panic!("invalid workload footprint: {e}");
        }
        let mem = MemorySubsystem::build(cfg, platform, mode, spec);
        let engine = WarpEngine::new(cfg.gpu.sms, cfg.gpu.sm, stream);
        let mut stats = RunStats::default();
        if let Some(track) = engine.phase_track.as_ref() {
            stats.enable_phases(track.names.clone());
        }
        System {
            platform,
            mode,
            spec: *spec,
            engine,
            l1s: (0..cfg.gpu.sms).map(|_| Cache::new(cfg.gpu.l1)).collect(),
            l2: Cache::new(cfg.gpu.l2),
            xbar: Interconnect::new(cfg.gpu.xbar),
            mem,
            stats,
            cfg: cfg.clone(),
            pending_scratch: Vec::new(),
        }
    }

    /// Turns on the observability layer for this run: per-stage latency
    /// histograms, busy-interval logging on the fabric, utilization
    /// timelines, and Chrome-trace export via [`System::chrome_trace`].
    ///
    /// Call before [`System::run`]. Recording is passive — it never
    /// affects timing, so the report's numbers are bit-identical to a
    /// run without observability (modulo the extra `stages` field).
    pub fn enable_observability(&mut self) {
        self.stats.enable_observability();
        self.mem.fabric.set_interval_logging(true);
    }

    /// Chrome trace-event JSON (`{"traceEvents": [...]}`) of the
    /// intervals recorded since [`System::enable_observability`];
    /// loadable in `chrome://tracing` or Perfetto. `None` when
    /// observability is disabled. Call after [`System::run`].
    pub fn chrome_trace(&mut self) -> Option<String> {
        let intervals = self.mem.fabric.drain_intervals();
        let obs = self.stats.obs.as_mut()?;
        obs.absorb_channel_intervals(intervals);
        Some(crate::trace::chrome_trace_json(obs))
    }

    /// Heap bytes currently held by the memory subsystem's planner and
    /// wear metadata. The memory stack stores this state sparsely
    /// (DESIGN.md §3.7), so the number scales with pages actually
    /// touched, not with the configured footprint — tier-1's
    /// bounded-memory test asserts a 16 GiB-footprint cell stays flat.
    pub fn memory_state_bytes(&self) -> usize {
        self.mem.state_bytes()
    }

    /// Runs the kernel to completion and reports.
    pub fn run(&mut self) -> SimReport {
        self.engine.seed();
        while let Some((t, ev)) = self.engine.queue.pop() {
            match ev {
                Event::Resume(w) => self.step_warp(t, w),
                Event::MigrationDone { mc, id } => self.mem.complete_migration(mc, id),
            }
        }
        self.report()
    }

    fn step_warp(&mut self, now: Ps, w: WarpId) {
        let outcome = self.engine.step(now, w);
        if self.stats.phases.is_some() && !matches!(outcome, SliceOutcome::Finished) {
            self.stats.set_phase(self.engine.last_phase(w));
        }
        match outcome {
            SliceOutcome::Finished => {}
            SliceOutcome::Compute { resume_at } => {
                self.engine.resume(resume_at, w);
            }
            SliceOutcome::Memory {
                after_compute,
                addr,
                kind,
            } => {
                let resume_at = self.memory_access(after_compute, w, addr, kind);
                // Migrations triggered by this access schedule their
                // completions before the warp's resume — the same queue
                // insertion order as resolving them inline, which FIFO
                // tie-breaking at equal timestamps depends on.
                self.mem.take_pending_into(&mut self.pending_scratch);
                for &(at, mc, id) in &self.pending_scratch {
                    self.engine.push_migration_done(at, mc, id);
                }
                self.stats.record_slice_latency(resume_at - now);
                self.engine.resume(resume_at, w);
            }
        }
    }

    /// Resolves one warp memory access, returning when the warp resumes.
    fn memory_access(&mut self, now: Ps, w: WarpId, addr: Addr, kind: AccessKind) -> Ps {
        let line_addr = addr.align_down(self.cfg.line_bytes);
        let one_cycle = self.cfg.gpu.sm.freq.period();

        if kind.is_load() && self.l1s[w.sm].access(line_addr, false).hit {
            let done = now + self.cfg.gpu.l1_hit_latency;
            self.stats.record_stage(Stage::L1Hit, w.sm, now, done);
            return done;
        }

        // To L2 over the crossbar.
        let mc = self.mem.mc_of(&self.cfg, line_addr);
        let at_l2 = self
            .xbar
            .traverse(now + self.cfg.gpu.l1_hit_latency, mc, CMD_BITS / 8);
        let l2_done = at_l2 + self.cfg.gpu.l2_hit_latency;
        let lookup = self.l2.access(line_addr, !kind.is_load());

        // Dirty L2 victim: background write to memory.
        if let Some(victim) = lookup.writeback {
            let vmc = self.mem.mc_of(&self.cfg, victim);
            self.mem
                .write(&self.cfg, &mut self.stats, l2_done, vmc, victim);
        }

        if lookup.hit {
            self.stats.record_stage(Stage::L2Hit, mc, now, l2_done);
            return if kind.is_load() {
                self.xbar.traverse(l2_done, mc, self.cfg.line_bytes)
            } else {
                now + one_cycle
            };
        }

        // L2 miss: go to memory (loads block; stores write through the fill).
        if kind.is_load() {
            // The popped event's time bounds every later read's arrival,
            // which lets the controller prune fills no read can merge with.
            let floor = self.engine.queue.now();
            let data_at_mc =
                self.mem
                    .read(&self.cfg, &mut self.stats, floor, l2_done, mc, line_addr);
            self.xbar.traverse(data_at_mc, mc, self.cfg.line_bytes)
        } else {
            self.mem
                .write(&self.cfg, &mut self.stats, l2_done, mc, line_addr);
            now + one_cycle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohm_workloads::workload_by_name;

    fn run(platform: Platform, mode: OperationalMode, workload: &str) -> SimReport {
        let cfg = SystemConfig::quick_test();
        let spec = workload_by_name(workload).unwrap();
        System::new(&cfg, platform, mode, &spec).run()
    }

    #[test]
    fn oracle_runs_and_retires_everything() {
        let cfg = SystemConfig::quick_test();
        let r = run(Platform::Oracle, OperationalMode::Planar, "lud");
        assert_eq!(
            r.instructions,
            (cfg.gpu.sms * cfg.gpu.sm.warps) as u64 * cfg.insts_per_warp
        );
        assert!(r.ipc > 0.0);
        assert!(r.makespan > Ps::ZERO);
        assert_eq!(r.migrations, 0);
    }

    #[test]
    fn planar_migrates_and_pays_for_it() {
        let base = run(Platform::OhmBase, OperationalMode::Planar, "pagerank");
        assert!(
            base.migrations > 0,
            "skewed workload must trigger promotions"
        );
        assert!(base.migration_channel_fraction > 0.0);
        let oracle = run(Platform::Oracle, OperationalMode::Planar, "pagerank");
        assert!(base.avg_mem_latency_ns > oracle.avg_mem_latency_ns);
    }

    #[test]
    fn two_level_misses_produce_migrations() {
        let r = run(Platform::OhmBase, OperationalMode::TwoLevel, "pagerank");
        assert!(r.migrations > 0);
        assert!(r.hetero_dram_hit_rate < 1.0);
        assert!(r.hetero_dram_hit_rate > 0.0);
    }

    #[test]
    fn swap_function_frees_the_data_route() {
        let base = run(Platform::OhmBase, OperationalMode::Planar, "pagerank");
        let wom = run(Platform::OhmWom, OperationalMode::Planar, "pagerank");
        assert!(
            wom.migration_channel_fraction < base.migration_channel_fraction,
            "wom {} vs base {}",
            wom.migration_channel_fraction,
            base.migration_channel_fraction
        );
    }

    #[test]
    fn reverse_write_eliminates_two_level_migration_traffic() {
        let wom = run(Platform::OhmWom, OperationalMode::TwoLevel, "pagerank");
        assert!(
            wom.migration_channel_fraction < 0.02,
            "got {}",
            wom.migration_channel_fraction
        );
    }

    #[test]
    fn origin_pays_for_host_staging() {
        // At an unscaled host path (host_scale = 1) the staging cost must
        // dominate and push Origin below Hetero, as in the paper's
        // Figure 3 / Figure 16; the scaled default is calibrated against
        // the evaluation configuration instead (see EXPERIMENTS.md).
        let mut cfg = SystemConfig::quick_test();
        cfg.memory.host_scale = 1.0;
        let spec = ohm_workloads::workload_by_name("pagerank").unwrap();
        let origin = System::new(&cfg, Platform::Origin, OperationalMode::Planar, &spec).run();
        let host = origin.host.expect("origin reports host staging");
        assert!(host.staged_in > 0);
        assert!(host.storage_busy > Ps::ZERO && host.dma_busy > Ps::ZERO);
        let hetero = System::new(&cfg, Platform::Hetero, OperationalMode::Planar, &spec).run();
        assert!(
            origin.ipc < hetero.ipc,
            "origin {} vs hetero {}",
            origin.ipc,
            hetero.ipc
        );
    }

    #[test]
    fn platform_ordering_on_a_skewed_workload() {
        // quick_test runs carry per-run noise from reordered swap
        // triggers, so the ordering is asserted with slack; the full
        // evaluation config (fig16 harness) reproduces the paper's chain.
        let base = run(Platform::OhmBase, OperationalMode::Planar, "pagerank");
        let bw = run(Platform::OhmBw, OperationalMode::Planar, "pagerank");
        let oracle = run(Platform::Oracle, OperationalMode::Planar, "pagerank");
        assert!(
            bw.ipc >= base.ipc * 0.95,
            "bw {} vs base {}",
            bw.ipc,
            base.ipc
        );
        assert!(
            oracle.ipc >= bw.ipc,
            "oracle {} vs bw {}",
            oracle.ipc,
            bw.ipc
        );
    }

    #[test]
    fn deterministic_repeat_runs() {
        let a = run(Platform::AutoRw, OperationalMode::Planar, "FDTD");
        let b = run(Platform::AutoRw, OperationalMode::Planar, "FDTD");
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.mem_requests, b.mem_requests);
    }
}
