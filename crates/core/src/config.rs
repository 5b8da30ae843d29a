//! System configuration (the paper's Table I).
//!
//! All defaults follow Table I; capacities are scaled by a configurable
//! factor for simulation speed, exactly as the paper scales its own
//! footprints 12× (Section VI, citing the common practice of [Alian et
//! al.]). The footprint : DRAM : XPoint ratios are what the experiments
//! depend on, and those are preserved at every scale.

use ohm_mem::dram::{DramConfig, DramTiming};
use ohm_mem::xpoint::XPointConfig;
use ohm_mem::xpoint_ctrl::XpCtrlConfig;
use ohm_optic::{ChannelDivision, ElectricalConfig, OperationalMode, OpticalChannelConfig};
#[cfg(test)]
use ohm_sim::Freq;
use ohm_sim::Ps;
use ohm_sm::{CacheConfig, InterconnectConfig, SmConfig};
use ohm_workloads::PhasePlan;

use crate::fault::{FaultPlan, LifecyclePlan};

/// GPU front-end configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (Table I: 16).
    pub sms: usize,
    /// Per-SM configuration (1.2 GHz, resident warps).
    pub sm: SmConfig,
    /// Private L1D geometry (48 KB, 6-way).
    pub l1: CacheConfig,
    /// Shared L2 geometry (6 MB, 8-way).
    pub l2: CacheConfig,
    /// L1 hit latency.
    pub l1_hit_latency: Ps,
    /// L2 hit latency (on top of interconnect traversal).
    pub l2_hit_latency: Ps,
    /// SM↔L2 interconnect.
    pub xbar: InterconnectConfig,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            sms: 16,
            sm: SmConfig::default(),
            l1: CacheConfig::l1d_table1(),
            l2: CacheConfig::l2_table1(),
            l1_hit_latency: Ps::from_ns(4),
            l2_hit_latency: Ps::from_ns(25),
            xbar: InterconnectConfig::default(),
        }
    }
}

/// Memory-system configuration shared by all platforms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Number of memory controllers / channels (Table I: 6).
    pub controllers: usize,
    /// DRAM timing (Table I).
    pub dram_timing: DramTiming,
    /// DRAM banks per module (total across ranks).
    pub dram_banks: usize,
    /// DRAM ranks per module (per-rank tRRD/tFAW domains).
    pub dram_ranks: usize,
    /// XPoint controller configuration (media timing from Table I).
    pub xpoint: XpCtrlConfig,
    /// Per-request memory-controller occupancy.
    pub mc_overhead: Ps,
    /// Outstanding-miss (MSHR) entries per memory controller; a full file
    /// delays further misses until an in-flight one completes.
    pub mshr_per_mc: usize,
    /// Address-interleave granularity across controllers.
    pub interleave_bytes: u64,
    /// Migration page size (planar mode).
    pub page_bytes: u64,
    /// DRAM:XPoint capacity ratio in planar mode (Table I: 1:8).
    pub planar_ratio: usize,
    /// DRAM:XPoint capacity ratio in two-level mode (Table I: 1:64).
    pub two_level_ratio: usize,
    /// Planar hot-page promotion threshold (accesses). Calibrated against
    /// Figures 8/16: 16 puts the migration share of channel bandwidth and
    /// the Ohm-BW : Oracle performance ratio at the paper's operating
    /// point (see `ablation_threshold`).
    pub hot_threshold: u32,
    /// Fraction of the workload footprint resident in Origin's DRAM.
    /// Calibrated so the resident memory sits below the workloads' active
    /// region (frontier window + cold stream span), recreating the
    /// capacity pressure the paper's Origin suffers against working sets
    /// larger than its 24 GB.
    pub origin_resident_fraction: f64,
    /// Granularity of Origin's host<->GPU staging transfers (applications
    /// move whole buffers, not single pages).
    pub origin_segment_bytes: u64,
    /// Host-path speed multiplier for Origin. Our kernels execute ~1000x
    /// fewer instructions over ~16x smaller footprints than the paper's
    /// full runs, so bytes-staged-per-instruction is inflated; scaling the
    /// host path keeps Origin's staging : compute ratio at the level the
    /// paper measures (Figure 3). Documented in DESIGN.md as a
    /// substitution.
    pub host_scale: f64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            controllers: 6,
            dram_timing: DramTiming::default(),
            dram_banks: 32,
            dram_ranks: 2,
            xpoint: XpCtrlConfig::default(),
            mc_overhead: Ps::from_ns(2),
            mshr_per_mc: 128,
            interleave_bytes: 4096,
            page_bytes: 4096,
            planar_ratio: 8,
            two_level_ratio: 64,
            hot_threshold: 16,
            origin_resident_fraction: 0.25,
            origin_segment_bytes: 4 << 20,
            host_scale: 64.0,
        }
    }
}

/// The full system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// GPU front end.
    pub gpu: GpuConfig,
    /// Memory system.
    pub memory: MemoryConfig,
    /// Optical channel (Ohm platforms).
    pub optical: OpticalChannelConfig,
    /// Electrical channel (Origin / Hetero).
    pub electrical: ElectricalConfig,
    /// Instructions per warp lane per run.
    pub insts_per_warp: u64,
    /// Cache-line / memory access granularity in bytes.
    pub line_bytes: u64,
    /// RNG seed for workload generation.
    pub seed: u64,
    /// Optional fault-injection plan. `None` (the default) runs the
    /// fault-free fast path; see [`crate::fault`] for the model.
    pub faults: Option<FaultPlan>,
    /// Optional wear-out lifecycle plan for the XPoint tier. `None` (the
    /// default) runs the lifecycle-free fast path; see
    /// [`crate::fault::LifecyclePlan`].
    pub lifecycle: Option<LifecyclePlan>,
    /// Optional phase-structured workload plan. When set,
    /// [`crate::System::new`] drives the run with a
    /// [`ohm_workloads::PhasedWorkload`] over the workload's footprint
    /// instead of the spec's synthetic kernel, and the resulting
    /// [`crate::SimReport`] carries a per-phase breakdown. `None` (the
    /// default) runs the spec's kernel unchanged.
    pub phases: Option<PhasePlan>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            gpu: GpuConfig::default(),
            memory: MemoryConfig::default(),
            optical: OpticalChannelConfig::default(),
            electrical: ElectricalConfig::default(),
            insts_per_warp: 4000,
            line_bytes: 128,
            seed: 0x07_4D_67_50,
            faults: None,
            lifecycle: None,
            phases: None,
        }
    }
}

/// A configuration problem detected by [`SystemConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The memory system needs at least one controller.
    NoControllers,
    /// More memory controllers than the fabric has lanes for: each
    /// controller needs its own crossbar port, electrical channel and
    /// optical virtual channel.
    TooManyControllers {
        /// Controllers configured.
        controllers: usize,
        /// The fewest of crossbar ports, electrical channels and
        /// optical virtual channels.
        limit: usize,
    },
    /// L1 line size must match the system access granularity.
    LineSizeMismatch {
        /// L1 line size configured.
        l1: u64,
        /// System access granularity configured.
        system: u64,
    },
    /// A size parameter that must be a power of two is not.
    NotPowerOfTwo(&'static str),
    /// The GPU needs at least one SM and one warp per SM.
    EmptyGpu,
    /// More SMs than [`SystemConfig::MAX_SMS`], or more warps in total
    /// than [`SystemConfig::MAX_WARPS`]: `System::new` allocates state
    /// per SM and per warp up front.
    GpuTooLarge {
        /// SMs configured.
        sms: usize,
        /// Resident warps per SM configured.
        warps_per_sm: usize,
    },
    /// A capacity ratio must be positive.
    ZeroRatio(&'static str),
    /// The per-warp instruction budget must be positive.
    ZeroBudget,
    /// Origin's resident fraction must be finite and in `(0, 1]`.
    BadResidentFraction(f64),
    /// A fault-plan field is outside its valid range.
    BadFaultPlan(&'static str),
    /// A lifecycle-plan field is outside its valid range.
    BadLifecyclePlan(&'static str),
    /// A phase-plan field is outside its valid range.
    BadPhasePlan(&'static str),
    /// A workload footprint is incompatible with the memory geometry.
    BadFootprint {
        /// The offending footprint in bytes.
        bytes: u64,
        /// The constraint it violates.
        why: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoControllers => write!(f, "need at least one memory controller"),
            ConfigError::TooManyControllers { controllers, limit } => write!(
                f,
                "memory.controllers = {controllers} exceeds {limit}, the fewest of crossbar \
                 ports, electrical channels and optical virtual channels"
            ),
            ConfigError::LineSizeMismatch { l1, system } => {
                write!(
                    f,
                    "L1 line size {l1} does not match system granularity {system}"
                )
            }
            ConfigError::NotPowerOfTwo(what) => write!(f, "{what} must be a power of two"),
            ConfigError::EmptyGpu => write!(f, "need at least one SM and one warp per SM"),
            ConfigError::GpuTooLarge { sms, warps_per_sm } => write!(
                f,
                "{sms} SMs x {warps_per_sm} warps per SM exceeds the limit of {} SMs and {} \
                 warps in total",
                SystemConfig::MAX_SMS,
                SystemConfig::MAX_WARPS
            ),
            ConfigError::ZeroRatio(what) => write!(f, "{what} must be positive"),
            ConfigError::ZeroBudget => write!(f, "instructions per warp must be positive"),
            ConfigError::BadResidentFraction(v) => {
                write!(f, "origin resident fraction {v} must be in (0, 1]")
            }
            ConfigError::BadFaultPlan(what) => write!(f, "fault plan: {what}"),
            ConfigError::BadLifecyclePlan(what) => write!(f, "lifecycle plan: {what}"),
            ConfigError::BadPhasePlan(what) => write!(f, "phase plan: {what}"),
            ConfigError::BadFootprint { bytes, why } => {
                write!(f, "footprint of {bytes} bytes: {why}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl SystemConfig {
    /// Checks the configuration for the problems [`crate::System`] would
    /// otherwise panic on, returning the first one found.
    ///
    /// # Errors
    ///
    /// Returns the specific [`ConfigError`] describing the inconsistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.memory.controllers == 0 {
            return Err(ConfigError::NoControllers);
        }
        let limit = self
            .gpu
            .xbar
            .ports
            .min(self.electrical.channels)
            .min(self.optical.grid.channels() as usize);
        if self.memory.controllers > limit {
            return Err(ConfigError::TooManyControllers {
                controllers: self.memory.controllers,
                limit,
            });
        }
        if self.gpu.sms == 0 || self.gpu.sm.warps == 0 {
            return Err(ConfigError::EmptyGpu);
        }
        let warps = self.gpu.sms.checked_mul(self.gpu.sm.warps);
        if self.gpu.sms > Self::MAX_SMS || warps.is_none_or(|w| w > Self::MAX_WARPS) {
            return Err(ConfigError::GpuTooLarge {
                sms: self.gpu.sms,
                warps_per_sm: self.gpu.sm.warps,
            });
        }
        if self.insts_per_warp == 0 {
            return Err(ConfigError::ZeroBudget);
        }
        if self.gpu.l1.line_bytes != self.line_bytes {
            return Err(ConfigError::LineSizeMismatch {
                l1: self.gpu.l1.line_bytes,
                system: self.line_bytes,
            });
        }
        for (what, v) in [
            ("line size", self.line_bytes),
            ("page size", self.memory.page_bytes),
            ("interleave granularity", self.memory.interleave_bytes),
            ("origin segment size", self.memory.origin_segment_bytes),
        ] {
            if !v.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo(what));
            }
        }
        if self.memory.planar_ratio == 0 {
            return Err(ConfigError::ZeroRatio("planar DRAM:XPoint ratio"));
        }
        if self.memory.two_level_ratio == 0 {
            return Err(ConfigError::ZeroRatio("two-level DRAM:XPoint ratio"));
        }
        let frac = self.memory.origin_resident_fraction;
        if !(frac.is_finite() && frac > 0.0 && frac <= 1.0) {
            return Err(ConfigError::BadResidentFraction(frac));
        }
        if let Some(plan) = &self.faults {
            if !plan.q_derate.is_finite() || plan.q_derate < 1.0 {
                return Err(ConfigError::BadFaultPlan(
                    "q_derate must be finite and >= 1.0",
                ));
            }
            if plan.mrr_fault_ppm > 1_000_000 {
                return Err(ConfigError::BadFaultPlan(
                    "mrr_fault_ppm must be <= 1,000,000",
                ));
            }
            if plan.xpoint.stall_ppm > 1_000_000 {
                return Err(ConfigError::BadFaultPlan(
                    "xpoint stall_ppm must be <= 1,000,000",
                ));
            }
        }
        if let Some(plan) = &self.lifecycle {
            let xp = &plan.xpoint;
            if !xp.ecc_onset.is_finite() || !(0.0..1.0).contains(&xp.ecc_onset) {
                return Err(ConfigError::BadLifecyclePlan(
                    "ecc_onset must be finite and in [0, 1)",
                ));
            }
            if xp.ecc_correctable_ppm > 1_000_000 || xp.ecc_uncorrectable_ppm > 1_000_000 {
                return Err(ConfigError::BadLifecyclePlan(
                    "ECC rates must be <= 1,000,000 ppm",
                ));
            }
            if xp.endurance_jitter_pct >= 100 {
                return Err(ConfigError::BadLifecyclePlan(
                    "endurance_jitter_pct must be < 100",
                ));
            }
        }
        if let Some(plan) = &self.phases {
            plan.validate().map_err(ConfigError::BadPhasePlan)?;
        }
        Ok(())
    }

    /// A small configuration for unit/integration tests: fewer SMs and
    /// warps, short instruction budgets — runs in milliseconds.
    pub fn quick_test() -> Self {
        let mut cfg = SystemConfig::default();
        cfg.gpu.sms = 4;
        cfg.gpu.sm.warps = 8;
        cfg.insts_per_warp = 800;
        cfg.gpu.l2 = CacheConfig {
            size_bytes: 768 * 1024,
            ways: 8,
            line_bytes: 128,
        };
        cfg.memory.hot_threshold = 8;
        cfg.memory.origin_segment_bytes = 1 << 20;
        cfg
    }

    /// The configuration used by the figure harnesses: full Table I GPU
    /// with a moderate instruction budget.
    /// The L2 is scaled with the same factor as the workload footprints
    /// (DESIGN.md: footprints shrink from the paper's 8 GB to 512 MB, so
    /// the 6 MB L2 shrinks to 768 KB to preserve the cache : footprint
    /// ratio the paper's memory system operates under).
    pub fn evaluation() -> Self {
        let mut cfg = SystemConfig {
            insts_per_warp: 3000,
            ..SystemConfig::default()
        };
        cfg.gpu.l2 = CacheConfig {
            size_bytes: 768 * 1024,
            ways: 8,
            line_bytes: 128,
        };
        // K80-class (GK210) SMs hold up to 64 resident warps; the full
        // occupancy is what loads the memory channel to the paper's
        // operating point.
        cfg.gpu.sm.warps = 64;
        cfg
    }

    /// The footprint used by the figure harnesses (512 MB; see
    /// [`SystemConfig::evaluation`]).
    pub const EVALUATION_FOOTPRINT: u64 = 512 << 20;

    /// The most SMs [`SystemConfig::validate`] admits: 64× Table I's 16.
    pub const MAX_SMS: usize = 1024;

    /// The most warps, summed over every SM, that
    /// [`SystemConfig::validate`] admits: 64× the 16 × 64 of
    /// [`SystemConfig::evaluation`].
    pub const MAX_WARPS: usize = 1 << 16;

    /// DRAM capacity (bytes) for a heterogeneous platform covering
    /// `footprint` in the given mode, preserving the Table I ratios.
    pub fn dram_capacity_for(&self, mode: OperationalMode, footprint: u64) -> u64 {
        let ratio = match mode {
            OperationalMode::Planar => self.memory.planar_ratio as u64 + 1,
            OperationalMode::TwoLevel => self.memory.two_level_ratio as u64 + 1,
        };
        (footprint / ratio).max(self.memory.page_bytes)
    }

    /// Per-controller DRAM device configuration for a total capacity.
    pub fn dram_config(&self, total_capacity: u64) -> DramConfig {
        DramConfig {
            timing: self.memory.dram_timing,
            banks: self.memory.dram_banks,
            ranks: 1,
            row_bytes: 2048,
            capacity_bytes: (total_capacity / self.memory.controllers as u64).max(2048),
            refresh_enabled: true,
        }
    }

    /// Per-controller XPoint configuration for a total capacity.
    pub fn xpoint_config(&self, total_capacity: u64) -> XPointConfig {
        XPointConfig {
            capacity_bytes: (total_capacity / self.memory.controllers as u64).max(4096),
            ..self.memory.xpoint.media
        }
    }

    /// Checks that a workload footprint is compatible with this
    /// configuration's memory geometry: at least one line, and a whole
    /// number of migration pages (partial pages would leave planner
    /// groups half-backed by nothing).
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadFootprint`] naming the violated constraint.
    pub fn validate_footprint(&self, bytes: u64) -> Result<(), ConfigError> {
        if bytes < self.line_bytes {
            return Err(ConfigError::BadFootprint {
                bytes,
                why: "smaller than one line",
            });
        }
        if !bytes.is_multiple_of(self.memory.page_bytes) {
            return Err(ConfigError::BadFootprint {
                bytes,
                why: "not a multiple of the page size",
            });
        }
        Ok(())
    }

    /// The canonical content form of this configuration — the string
    /// the checkpoint journal hashes cells by (see
    /// [`crate::checkpoint::cell_key`]).
    ///
    /// This is the complete derived `Debug` rendering: every field of
    /// every nested config appears (none of the config types hold maps
    /// or other order-unstable containers, so the rendering is
    /// deterministic), and any structural change to the configuration —
    /// a new field, a renamed knob — changes the canonical form. That
    /// is the conservative property a result cache needs: a config
    /// whose meaning may have shifted between builds re-simulates
    /// instead of replaying a stale record.
    pub fn canonical(&self) -> String {
        format!("{self:?}")
    }

    /// Starts a [`SystemConfigBuilder`] from the Table I defaults.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfig::default().to_builder()
    }

    /// Starts a [`SystemConfigBuilder`] from this configuration — the
    /// idiom for experiment harnesses that sweep one knob of a named
    /// base configuration (e.g. [`SystemConfig::evaluation`]).
    pub fn to_builder(self) -> SystemConfigBuilder {
        SystemConfigBuilder {
            cfg: self,
            footprint: None,
        }
    }
}

/// Fluent, validating constructor for [`SystemConfig`].
///
/// Setters cover the knobs the experiment harnesses sweep; [`build`]
/// runs [`SystemConfig::validate`] so an inconsistent configuration is
/// reported as a [`ConfigError`] at construction instead of a panic
/// deep inside [`crate::System`].
///
/// [`build`]: SystemConfigBuilder::build
///
/// # Example
///
/// ```
/// use ohm_core::SystemConfig;
///
/// let cfg = SystemConfig::evaluation()
///     .to_builder()
///     .planar_ratio(16)
///     .hot_threshold(32)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.memory.planar_ratio, 16);
/// ```
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
    /// Workload footprint the configuration will drive, if declared —
    /// checked against the memory geometry at [`build`] time.
    ///
    /// [`build`]: SystemConfigBuilder::build
    footprint: Option<u64>,
}

impl SystemConfigBuilder {
    /// Number of streaming multiprocessors.
    pub fn sms(mut self, sms: usize) -> Self {
        self.cfg.gpu.sms = sms;
        self
    }

    /// Resident warps per SM.
    pub fn warps_per_sm(mut self, warps: usize) -> Self {
        self.cfg.gpu.sm.warps = warps;
        self
    }

    /// Instruction budget per warp lane.
    pub fn insts_per_warp(mut self, insts: u64) -> Self {
        self.cfg.insts_per_warp = insts;
        self
    }

    /// Number of memory controllers / channels.
    pub fn controllers(mut self, controllers: usize) -> Self {
        self.cfg.memory.controllers = controllers;
        self
    }

    /// Address-interleave granularity across controllers.
    pub fn interleave_bytes(mut self, bytes: u64) -> Self {
        self.cfg.memory.interleave_bytes = bytes;
        self
    }

    /// DRAM:XPoint capacity ratio in planar mode.
    pub fn planar_ratio(mut self, ratio: usize) -> Self {
        self.cfg.memory.planar_ratio = ratio;
        self
    }

    /// DRAM:XPoint capacity ratio in two-level mode.
    pub fn two_level_ratio(mut self, ratio: usize) -> Self {
        self.cfg.memory.two_level_ratio = ratio;
        self
    }

    /// Planar hot-page promotion threshold (accesses).
    pub fn hot_threshold(mut self, threshold: u32) -> Self {
        self.cfg.memory.hot_threshold = threshold;
        self
    }

    /// Fraction of the footprint resident in Origin's DRAM, in `(0, 1]`.
    pub fn origin_resident_fraction(mut self, fraction: f64) -> Self {
        self.cfg.memory.origin_resident_fraction = fraction;
        self
    }

    /// Number of optical waveguides.
    pub fn optical_waveguides(mut self, waveguides: u32) -> Self {
        self.cfg.optical.waveguides = waveguides;
        self
    }

    /// Optical channel-division strategy.
    pub fn optical_division(mut self, division: ChannelDivision) -> Self {
        self.cfg.optical.division = division;
        self
    }

    /// RNG seed for workload generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Fault-injection plan (`None` disables injection).
    pub fn faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.cfg.faults = plan;
        self
    }

    /// XPoint wear-out lifecycle plan (`None` disables the lifecycle).
    pub fn lifecycle(mut self, plan: Option<LifecyclePlan>) -> Self {
        self.cfg.lifecycle = plan;
        self
    }

    /// Phase-structured workload plan (`None` runs the spec's kernel).
    pub fn phases(mut self, plan: Option<PhasePlan>) -> Self {
        self.cfg.phases = plan;
        self
    }

    /// Escape hatch for fields without a dedicated setter.
    pub fn tweak(mut self, f: impl FnOnce(&mut SystemConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Declares the workload footprint this configuration will drive
    /// (e.g. the value passed to `WorkloadSpec::with_footprint`), so
    /// [`build`](Self::build) rejects footprints the memory geometry
    /// cannot express — smaller than one line, or not a whole number of
    /// migration pages — with a typed [`ConfigError::BadFootprint`]
    /// instead of a panic deep inside workload generation.
    pub fn footprint(mut self, bytes: u64) -> Self {
        self.footprint = Some(bytes);
        self
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found by
    /// [`SystemConfig::validate`], or [`ConfigError::BadFootprint`] when
    /// a declared [`footprint`](Self::footprint) does not fit the memory
    /// geometry.
    pub fn build(self) -> Result<SystemConfig, ConfigError> {
        self.cfg.validate()?;
        if let Some(bytes) = self.footprint {
            self.cfg.validate_footprint(bytes)?;
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.gpu.sms, 16);
        assert_eq!(cfg.gpu.sm.freq, Freq::from_ghz(1.2));
        assert_eq!(cfg.memory.controllers, 6);
        assert_eq!(cfg.memory.dram_timing.trcd, Ps::from_ns(25));
        assert_eq!(cfg.memory.dram_timing.trp, Ps::from_ns(10));
        assert_eq!(cfg.memory.dram_timing.tcl, Ps::from_ns(11));
        assert_eq!(cfg.memory.dram_timing.trrd, Ps::from_ns(5));
        assert_eq!(cfg.memory.xpoint.media.read_latency, Ps::from_ns(190));
        assert_eq!(cfg.memory.xpoint.media.write_latency, Ps::from_ns(763));
        assert_eq!(cfg.optical.grid.channels(), 6);
        assert_eq!(cfg.optical.grid.bits_per_channel(), 16);
        assert_eq!(cfg.optical.freq, Freq::from_ghz(30.0));
        assert_eq!(cfg.electrical.channels, 6);
        assert_eq!(cfg.electrical.width_bits, 32);
        assert_eq!(cfg.electrical.freq, Freq::from_ghz(15.0));
        assert_eq!(cfg.memory.planar_ratio, 8);
        assert_eq!(cfg.memory.two_level_ratio, 64);
    }

    #[test]
    fn capacity_ratios_preserved() {
        let cfg = SystemConfig::default();
        let fp = 288 << 20;
        let planar = cfg.dram_capacity_for(OperationalMode::Planar, fp);
        assert_eq!(planar, fp / 9);
        let two = cfg.dram_capacity_for(OperationalMode::TwoLevel, fp);
        assert_eq!(two, fp / 65);
    }

    #[test]
    fn per_controller_split() {
        let cfg = SystemConfig::default();
        let d = cfg.dram_config(6 << 20);
        assert_eq!(d.capacity_bytes, 1 << 20);
        let x = cfg.xpoint_config(12 << 20);
        assert_eq!(x.capacity_bytes, 2 << 20);
    }

    #[test]
    fn footprint_validation_rejects_bad_geometry() {
        let cfg = SystemConfig::default();
        // Smaller than one line.
        assert_eq!(
            cfg.validate_footprint(64),
            Err(ConfigError::BadFootprint {
                bytes: 64,
                why: "smaller than one line",
            })
        );
        // Not a whole number of pages.
        assert_eq!(
            cfg.validate_footprint(4096 + 128),
            Err(ConfigError::BadFootprint {
                bytes: 4096 + 128,
                why: "not a multiple of the page size",
            })
        );
        assert!(cfg.validate_footprint(256 << 20).is_ok());
        assert!(cfg.validate_footprint(16 << 30).is_ok());
        // The error names the value and constraint.
        let msg = cfg.validate_footprint(64).unwrap_err().to_string();
        assert!(msg.contains("64") && msg.contains("line"), "{msg}");
    }

    #[test]
    fn builder_validates_declared_footprints() {
        let err = SystemConfig::builder()
            .footprint(4096 + 128)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::BadFootprint { .. }));
        let cfg = SystemConfig::builder()
            .footprint(256 << 20)
            .build()
            .expect("whole-page footprint is valid");
        assert_eq!(cfg.memory.page_bytes, 4096);
    }

    #[test]
    fn validate_accepts_defaults_and_names_problems() {
        assert_eq!(SystemConfig::default().validate(), Ok(()));
        assert_eq!(SystemConfig::quick_test().validate(), Ok(()));
        assert_eq!(SystemConfig::evaluation().validate(), Ok(()));

        let mut cfg = SystemConfig::default();
        cfg.memory.controllers = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoControllers));

        // L1 still 128
        let cfg = SystemConfig {
            line_bytes: 256,
            ..Default::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::LineSizeMismatch { .. })
        ));

        let mut cfg = SystemConfig::default();
        cfg.memory.page_bytes = 3000;
        assert_eq!(cfg.validate(), Err(ConfigError::NotPowerOfTwo("page size")));

        let cfg = SystemConfig {
            insts_per_warp: 0,
            ..Default::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroBudget));
        assert!(ConfigError::ZeroBudget.to_string().contains("positive"));
    }

    #[test]
    fn controllers_beyond_the_fabric_are_rejected() {
        // Each controller owns a crossbar port, an electrical channel and
        // an optical virtual channel (six of each by default); a seventh
        // used to pass validation and then panic in every cell.
        for n in 1..=6 {
            let built = SystemConfig::quick_test()
                .to_builder()
                .controllers(n)
                .build();
            assert!(built.is_ok(), "{n} controllers: {built:?}");
        }
        let err = SystemConfig::quick_test()
            .to_builder()
            .controllers(7)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooManyControllers {
                controllers: 7,
                limit: 6
            }
        );
        assert!(err.to_string().contains("controllers"), "{err}");
    }

    #[test]
    fn validate_bounds_the_gpu_size() {
        let gpu = |sms, warps| SystemConfig::builder().sms(sms).warps_per_sm(warps).build();
        let too_large = |sms, warps_per_sm| Err(ConfigError::GpuTooLarge { sms, warps_per_sm });
        assert!(gpu(SystemConfig::MAX_SMS, 64).is_ok());
        assert!(gpu(1, SystemConfig::MAX_WARPS).is_ok());
        assert_eq!(gpu(SystemConfig::MAX_SMS + 1, 1), too_large(1025, 1));
        assert_eq!(gpu(16, 4097), too_large(16, 4097));
        // A product past usize is rejected, not wrapped.
        assert_eq!(gpu(2, usize::MAX), too_large(2, usize::MAX));
        let err = gpu(1 << 40, 64).unwrap_err().to_string();
        assert!(err.contains("limit of 1024 SMs and 65536 warps"), "{err}");
    }

    #[test]
    fn validate_checks_fault_plans() {
        let mut cfg = SystemConfig::quick_test();
        cfg.faults = Some(FaultPlan::at_severity(7, 0.5));
        assert_eq!(cfg.validate(), Ok(()));

        let mut bad = cfg.clone();
        bad.faults.as_mut().unwrap().q_derate = 0.5;
        assert!(matches!(bad.validate(), Err(ConfigError::BadFaultPlan(_))));

        let mut bad = cfg.clone();
        bad.faults.as_mut().unwrap().mrr_fault_ppm = 2_000_000;
        assert!(matches!(bad.validate(), Err(ConfigError::BadFaultPlan(_))));

        let mut bad = cfg;
        bad.faults.as_mut().unwrap().xpoint.stall_ppm = 2_000_000;
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("fault plan"), "{err}");
    }

    #[test]
    fn validate_checks_lifecycle_plans() {
        let mut cfg = SystemConfig::quick_test();
        cfg.lifecycle = Some(LifecyclePlan::accelerated(7, 10_000));
        assert_eq!(cfg.validate(), Ok(()));
        cfg.lifecycle = Some(LifecyclePlan::quiescent(7));
        assert_eq!(cfg.validate(), Ok(()));

        let mut bad = cfg.clone();
        bad.lifecycle.as_mut().unwrap().xpoint.ecc_onset = 1.5;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::BadLifecyclePlan(_))
        ));

        let mut bad = cfg.clone();
        bad.lifecycle.as_mut().unwrap().xpoint.ecc_correctable_ppm = 2_000_000;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::BadLifecyclePlan(_))
        ));

        let mut bad = cfg;
        bad.lifecycle.as_mut().unwrap().xpoint.endurance_jitter_pct = 100;
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("lifecycle plan"), "{err}");
    }

    #[test]
    fn validate_checks_phase_plans() {
        let mut cfg = SystemConfig::quick_test();
        cfg.phases = Some(PhasePlan::llm_inference());
        assert_eq!(cfg.validate(), Ok(()));

        let mut bad = cfg.clone();
        bad.phases.as_mut().unwrap().phases.clear();
        assert!(matches!(bad.validate(), Err(ConfigError::BadPhasePlan(_))));

        let mut bad = cfg;
        bad.phases.as_mut().unwrap().phases[0].read_ratio = -0.5;
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("phase plan"), "{err}");

        let built = SystemConfig::quick_test()
            .to_builder()
            .phases(Some(PhasePlan::llm_inference()))
            .build()
            .expect("reference plan is valid");
        assert_eq!(built.phases.unwrap().phases.len(), 5);
    }

    #[test]
    fn builder_sets_and_validates() {
        let cfg = SystemConfig::builder()
            .sms(4)
            .warps_per_sm(8)
            .insts_per_warp(500)
            .planar_ratio(16)
            .two_level_ratio(32)
            .hot_threshold(32)
            .seed(7)
            .build()
            .expect("valid");
        assert_eq!(cfg.gpu.sms, 4);
        assert_eq!(cfg.gpu.sm.warps, 8);
        assert_eq!(cfg.insts_per_warp, 500);
        assert_eq!(cfg.memory.planar_ratio, 16);
        assert_eq!(cfg.memory.two_level_ratio, 32);
        assert_eq!(cfg.memory.hot_threshold, 32);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn builder_rejects_invalid() {
        assert_eq!(
            SystemConfig::builder().controllers(0).build(),
            Err(ConfigError::NoControllers)
        );
        assert_eq!(
            SystemConfig::builder().sms(0).build(),
            Err(ConfigError::EmptyGpu)
        );
        assert_eq!(
            SystemConfig::builder().interleave_bytes(3000).build(),
            Err(ConfigError::NotPowerOfTwo("interleave granularity"))
        );
        assert_eq!(
            SystemConfig::builder().planar_ratio(0).build(),
            Err(ConfigError::ZeroRatio("planar DRAM:XPoint ratio"))
        );
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let err = SystemConfig::builder()
                .origin_resident_fraction(bad)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, ConfigError::BadResidentFraction(_)),
                "{bad}: {err}"
            );
        }
        assert!(ConfigError::BadResidentFraction(1.5)
            .to_string()
            .contains("(0, 1]"));
    }

    #[test]
    fn builder_tweak_reaches_any_field() {
        let cfg = SystemConfig::quick_test()
            .to_builder()
            .tweak(|c| c.memory.mshr_per_mc = 64)
            .build()
            .expect("valid");
        assert_eq!(cfg.memory.mshr_per_mc, 64);
    }

    #[test]
    fn quick_test_is_smaller() {
        let q = SystemConfig::quick_test();
        let d = SystemConfig::default();
        assert!(q.gpu.sms < d.gpu.sms);
        assert!(q.insts_per_warp < d.insts_per_warp);
    }
}
