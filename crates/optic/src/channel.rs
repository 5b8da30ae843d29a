//! The optical memory channel with virtual channels and dual routes.
//!
//! One waveguide carries all six virtual channels (Table I). Each VC is a
//! 16-bit-wide, 30 GHz serial link between one memory controller and the
//! memory devices behind it. A photonic demultiplexer arbitrates which
//! device's detectors are enabled on a VC; switching targets costs an MRR
//! retune.
//!
//! The *dual routes* (Section IV-B) coexist in the same VC:
//!
//! * the **data route** connects the memory controller and the devices —
//!   all demand traffic and any controller-driven migration use it;
//! * the **memory route** connects two devices directly (DRAM↔XPoint) —
//!   auto-read/write snarfs, swap-function copies and reverse-writes ride
//!   it without occupying the data route.
//!
//! How the two routes share light depends on [`DualRouteMode`]: with WOM
//! coding the data route pays the 2/3 bandwidth factor while a migration
//! is in flight; with half-coupled-MRR transmitters it runs at full speed.
//!
//! # Degraded operation
//!
//! The fault-injection subsystem (`ohm-core`) can declare a VC *faulty*
//! for a window of simulated time — modelling a stuck or drifting demux
//! ring that can no longer select targets reliably. The channel itself
//! stays policy-free: it only records the health window
//! ([`OpticalChannel::mark_vc_faulty`]) and answers queries
//! ([`OpticalChannel::vc_faulty`], [`OpticalChannel::healthiest_vc`]);
//! the fabric layer decides whether to re-arbitrate a transfer onto a
//! healthy wavelength or fall back to the electrical path.

use ohm_sim::{Freq, Ps, TaggedCalendar};

use crate::wavelength::WdmGrid;
use crate::wom::Wom22;

/// What a channel transfer is carrying, for bandwidth breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Demand memory requests from the GPU kernels.
    Demand = 0,
    /// Data-migration traffic between DRAM and XPoint.
    Migration = 1,
}

/// How the wavelength grid is divided among the memory controllers.
///
/// The paper evaluates the *static* division (Table I); the dynamic
/// policy of [Li et al., HPCA'13] — reassigning idle wavelengths to busy
/// controllers at a retuning cost — is implemented as an extension and
/// explored by `reproduce ablation_division`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelDivision {
    /// Each controller owns a fixed virtual channel (Table I).
    #[default]
    Static,
    /// A transfer may borrow the earliest-available virtual channel,
    /// paying a wavelength-regrouping retune when it leaves its home VC.
    Dynamic {
        /// Retune latency paid when borrowing a foreign VC.
        reallocation: Ps,
    },
}

/// How migration traffic coexists with demand traffic in a virtual channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DualRouteMode {
    /// No dual routes: every transfer serialises on the data route
    /// (`Ohm-base` and the electrical `Hetero` platform).
    #[default]
    Serialized,
    /// Dual routes via WOM coding: the memory route is independent, but
    /// demand transfers run at 2/3 bandwidth while it is busy (`Ohm-WOM`).
    Wom,
    /// Dual routes via half-coupled-MRR transmitters: both routes run at
    /// full bandwidth (`Ohm-BW`), at the cost of 4× laser power.
    HalfCoupled,
}

impl DualRouteMode {
    /// Whether an independent device↔device route exists at all.
    pub fn has_memory_route(self) -> bool {
        !matches!(self, DualRouteMode::Serialized)
    }

    /// Laser-power multiplier needed to keep detector sensing margins
    /// (Section VI: 1× / 2× / 4× for base / WOM / half-coupled).
    pub fn laser_power_scale(self) -> f64 {
        match self {
            DualRouteMode::Serialized => 1.0,
            DualRouteMode::Wom => 2.0,
            DualRouteMode::HalfCoupled => 4.0,
        }
    }
}

/// Static configuration of the optical channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpticalChannelConfig {
    /// Parallel waveguides (Table I default 1; Figure 20a sweeps to 8).
    pub waveguides: u32,
    /// Wavelength grid and virtual-channel division.
    pub grid: WdmGrid,
    /// Optical clock (Table I: 30 GHz).
    pub freq: Freq,
    /// Dual-route capability.
    pub dual_route: DualRouteMode,
    /// Photonic-demux retune latency when a VC switches target device.
    pub demux_switch: Ps,
    /// Wavelength-division strategy.
    pub division: ChannelDivision,
}

impl Default for OpticalChannelConfig {
    fn default() -> Self {
        OpticalChannelConfig {
            waveguides: 1,
            grid: WdmGrid::new(96, 6),
            freq: Freq::from_ghz(30.0),
            dual_route: DualRouteMode::Serialized,
            demux_switch: Ps::from_ps(100),
            division: ChannelDivision::Static,
        }
    }
}

impl OpticalChannelConfig {
    /// Effective parallel width of one virtual channel in bits.
    pub fn vc_width_bits(&self) -> u64 {
        self.grid.bits_per_channel() as u64 * self.waveguides as u64
    }

    /// Aggregate raw bandwidth of the channel in GB/s.
    pub fn total_bandwidth_gbps(&self) -> f64 {
        self.freq
            .bandwidth_gbps(self.grid.total_wavelengths() as u64 * self.waveguides as u64)
    }
}

/// One recorded busy window on a channel resource.
///
/// Interval logging is off by default (zero overhead); when enabled via
/// `set_interval_logging(true)` every booked transfer appends one of
/// these, and the observability layer drains them into per-resource
/// utilization timelines and Chrome-trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyInterval {
    /// Virtual channel (optical) or lane (electrical) index.
    pub vc: usize,
    /// When the resource became busy.
    pub start: Ps,
    /// When the resource freed up (exclusive).
    pub end: Ps,
    /// Traffic class carried during the window.
    pub class: TrafficClass,
    /// Whether the window was on the device↔device memory route rather
    /// than the data route. Always `false` for electrical channels.
    pub memory_route: bool,
}

#[derive(Debug, Clone)]
struct VirtualChannel {
    data_route: TaggedCalendar,
    memory_route: TaggedCalendar,
    current_target: Option<usize>,
    target_switches: u64,
    faulty_until: Ps,
}

impl VirtualChannel {
    fn new() -> Self {
        VirtualChannel {
            data_route: TaggedCalendar::new(2),
            memory_route: TaggedCalendar::new(2),
            current_target: None,
            target_switches: 0,
            faulty_until: Ps::ZERO,
        }
    }
}

/// The optical channel: per-VC data routes, optional memory routes, demux
/// arbitration and traffic accounting.
///
/// # Example
///
/// ```
/// use ohm_optic::{OpticalChannel, OpticalChannelConfig, TrafficClass};
/// use ohm_sim::Ps;
///
/// let mut ch = OpticalChannel::new(OpticalChannelConfig::default());
/// // A 32-byte read response from device 0 on VC 2:
/// let (start, end) = ch.transfer(Ps::ZERO, 2, 32 * 8, TrafficClass::Demand, 0);
/// assert!(end > start);
/// ```
#[derive(Debug, Clone)]
pub struct OpticalChannel {
    cfg: OpticalChannelConfig,
    vcs: Vec<VirtualChannel>,
    bits_transferred: [u64; 2],
    borrows: u64,
    interval_log: Option<Vec<BusyInterval>>,
}

impl OpticalChannel {
    /// Creates an idle channel.
    pub fn new(cfg: OpticalChannelConfig) -> Self {
        OpticalChannel {
            vcs: (0..cfg.grid.channels())
                .map(|_| VirtualChannel::new())
                .collect(),
            cfg,
            bits_transferred: [0; 2],
            borrows: 0,
            interval_log: None,
        }
    }

    /// Enables or disables busy-interval logging. Disabling drops any
    /// intervals collected so far.
    pub fn set_interval_logging(&mut self, enabled: bool) {
        self.interval_log = if enabled { Some(Vec::new()) } else { None };
    }

    /// Takes every busy interval logged since the last drain. Empty when
    /// logging is disabled.
    pub fn drain_intervals(&mut self) -> Vec<BusyInterval> {
        self.interval_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Channel configuration.
    pub fn config(&self) -> &OpticalChannelConfig {
        &self.cfg
    }

    /// Number of virtual channels.
    pub fn vc_count(&self) -> usize {
        self.vcs.len()
    }

    /// Transfers `bits` on the data route of virtual channel `vc`,
    /// to/from `target_device`. Returns the `(start, end)` of the transfer.
    ///
    /// If the VC's demux was pointed at a different device, the transfer
    /// pays the retune latency first. In [`DualRouteMode::Wom`], a demand
    /// transfer that overlaps memory-route activity is stretched by the
    /// WOM bandwidth factor.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range or `bits` is zero.
    pub fn transfer(
        &mut self,
        now: Ps,
        vc: usize,
        bits: u64,
        class: TrafficClass,
        target_device: usize,
    ) -> (Ps, Ps) {
        assert!(bits > 0, "cannot transfer zero bits");

        // Dynamic division: borrow whichever VC frees up first, paying a
        // wavelength-regrouping retune away from home.
        let (vc, borrow_penalty) = match self.cfg.division {
            ChannelDivision::Static => (vc, Ps::ZERO),
            ChannelDivision::Dynamic { reallocation } => {
                // Fast path: an idle home VC always wins the arbitration
                // outright — its key is `now`, strictly below every
                // foreign key (at least `now + reallocation`) — so the
                // full scan below can only reach the same answer. Only
                // valid when borrowing actually costs something; at zero
                // reallocation ties break toward the lowest index.
                if reallocation > Ps::ZERO && self.vcs[vc].data_route.next_free() <= now {
                    return self.transfer_on(now, vc, Ps::ZERO, bits, class, target_device);
                }
                let best = (0..self.vcs.len())
                    .min_by_key(|&i| {
                        let penalty = if i == vc { Ps::ZERO } else { reallocation };
                        self.vcs[i].data_route.earliest_start(now + penalty)
                    })
                    .unwrap_or(vc);
                if best == vc {
                    (vc, Ps::ZERO)
                } else {
                    self.borrows += 1;
                    (best, reallocation)
                }
            }
        };
        self.transfer_on(now, vc, borrow_penalty, bits, class, target_device)
    }

    /// The committed leg of [`OpticalChannel::transfer`], after VC
    /// arbitration has chosen `vc` and its `borrow_penalty`: demux
    /// retune, WOM stretch, booking and bit accounting.
    fn transfer_on(
        &mut self,
        now: Ps,
        vc: usize,
        borrow_penalty: Ps,
        bits: u64,
        class: TrafficClass,
        target_device: usize,
    ) -> (Ps, Ps) {
        let cfg = &self.cfg;
        let ch = &mut self.vcs[vc];
        // Retargeting the photonic demux costs an MRR retune, but the
        // retune pipelines behind any queued transfers ([Li et al.]), so
        // it only delays the transfer when the data route is idle.
        let mut ready = now + borrow_penalty;
        if ch.current_target != Some(target_device) {
            if ch.data_route.next_free() <= now {
                ready += cfg.demux_switch;
            }
            ch.current_target = Some(target_device);
            ch.target_switches += 1;
        }

        let base = cfg.freq.transfer_time(bits, cfg.vc_width_bits());
        let start_estimate = ch.data_route.earliest_start(ready);
        let dur = if cfg.dual_route == DualRouteMode::Wom
            && ch.memory_route.next_free() > start_estimate
        {
            base.scale(1.0 / Wom22::BANDWIDTH_FACTOR)
        } else {
            base
        };
        self.bits_transferred[class as usize] += bits;
        let (start, end) = ch.data_route.book(ready, dur, class as usize);
        if let Some(log) = self.interval_log.as_mut() {
            log.push(BusyInterval {
                vc,
                start,
                end,
                class,
                memory_route: false,
            });
        }
        (start, end)
    }

    /// Transfers `bits` on the independent memory route (device↔device) of
    /// `vc`. Only available when the channel has dual routes.
    ///
    /// # Panics
    ///
    /// Panics if the channel is [`DualRouteMode::Serialized`], `vc` is out
    /// of range, or `bits` is zero.
    pub fn memory_route_transfer(&mut self, now: Ps, vc: usize, bits: u64) -> (Ps, Ps) {
        assert!(
            self.cfg.dual_route.has_memory_route(),
            "memory route requires dual-route support"
        );
        assert!(bits > 0, "cannot transfer zero bits");
        let width = self.cfg.vc_width_bits();
        let dur = self.cfg.freq.transfer_time(bits, width);
        self.bits_transferred[TrafficClass::Migration as usize] += bits;
        let (start, end) =
            self.vcs[vc]
                .memory_route
                .book(now, dur, TrafficClass::Migration as usize);
        if let Some(log) = self.interval_log.as_mut() {
            log.push(BusyInterval {
                vc,
                start,
                end,
                class: TrafficClass::Migration,
                memory_route: true,
            });
        }
        (start, end)
    }

    /// When the data route of `vc` next becomes free.
    pub fn data_route_free_at(&self, vc: usize) -> Ps {
        self.vcs[vc].data_route.next_free()
    }

    /// Declares `vc` faulty until `until` (exclusive): its demux cannot
    /// be trusted to select targets during that window. Extends any
    /// existing window rather than shrinking it.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn mark_vc_faulty(&mut self, vc: usize, until: Ps) {
        let w = &mut self.vcs[vc].faulty_until;
        *w = (*w).max(until);
    }

    /// Whether `vc` is inside a declared fault window at `now`.
    pub fn vc_faulty(&self, vc: usize, now: Ps) -> bool {
        now < self.vcs[vc].faulty_until
    }

    /// The healthy VC whose data route frees up earliest at `now`
    /// (lowest index wins ties), or `None` if every VC is faulty.
    pub fn healthiest_vc(&self, now: Ps) -> Option<usize> {
        (0..self.vcs.len())
            .filter(|&i| !self.vc_faulty(i, now))
            .min_by_key(|&i| (self.vcs[i].data_route.next_free(), i))
    }

    /// When the memory route of `vc` next becomes free.
    pub fn memory_route_free_at(&self, vc: usize) -> Ps {
        self.vcs[vc].memory_route.next_free()
    }

    /// Fraction of *data-route* busy time spent on migration traffic —
    /// the paper's Figure 8/18 metric. Dual-route migrations do not count
    /// because they leave the data route available for demand requests.
    pub fn migration_fraction(&self) -> f64 {
        let total: u64 = self
            .vcs
            .iter()
            .map(|c| c.data_route.busy_time().as_ps())
            .sum();
        if total == 0 {
            return 0.0;
        }
        let migration: u64 = self
            .vcs
            .iter()
            .map(|c| {
                c.data_route
                    .busy_by_tag(TrafficClass::Migration as usize)
                    .as_ps()
            })
            .sum();
        migration as f64 / total as f64
    }

    /// Total data-route busy time across VCs.
    pub fn data_route_busy(&self) -> Ps {
        self.vcs.iter().map(|c| c.data_route.busy_time()).sum()
    }

    /// Total memory-route busy time across VCs.
    pub fn memory_route_busy(&self) -> Ps {
        self.vcs.iter().map(|c| c.memory_route.busy_time()).sum()
    }

    /// Bits transferred so far, by traffic class.
    pub fn bits_by_class(&self, class: TrafficClass) -> u64 {
        self.bits_transferred[class as usize]
    }

    /// Transfers that borrowed a foreign VC under dynamic division.
    pub fn vc_borrows(&self) -> u64 {
        self.borrows
    }

    /// Total demux target switches across VCs.
    pub fn target_switches(&self) -> u64 {
        self.vcs.iter().map(|c| c.target_switches).sum()
    }

    /// Mean data-route utilisation over a window ending at `horizon`.
    ///
    /// Always a finite value in `[0, 1]`: an empty channel or zero-length
    /// window reports 0, and per-VC fractions are clamped so bookings
    /// extending past `horizon` cannot push the mean over unity.
    pub fn utilization(&self, horizon: Ps) -> f64 {
        if self.vcs.is_empty() {
            return 0.0;
        }
        self.vcs
            .iter()
            .map(|c| c.data_route.utilization(horizon))
            .sum::<f64>()
            / self.vcs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(mode: DualRouteMode) -> OpticalChannel {
        OpticalChannel::new(OpticalChannelConfig {
            dual_route: mode,
            ..OpticalChannelConfig::default()
        })
    }

    #[test]
    fn transfer_time_matches_width_and_freq() {
        let mut ch = chan(DualRouteMode::Serialized);
        // 256 bits over 16-bit VC at 30 GHz = 16 cycles ≈ 533 ps + demux.
        let (start, end) = ch.transfer(Ps::ZERO, 0, 256, TrafficClass::Demand, 0);
        assert_eq!(start, Ps::from_ps(100)); // first demux acquisition
        assert_eq!(end - start, Ps::from_ps(533));
    }

    #[test]
    fn same_target_skips_demux_switch() {
        let mut ch = chan(DualRouteMode::Serialized);
        ch.transfer(Ps::ZERO, 0, 256, TrafficClass::Demand, 3);
        let free = ch.data_route_free_at(0);
        let (start, _) = ch.transfer(free, 0, 256, TrafficClass::Demand, 3);
        assert_eq!(start, free);
        assert_eq!(ch.target_switches(), 1);
    }

    #[test]
    fn switching_targets_pays_retune() {
        let mut ch = chan(DualRouteMode::Serialized);
        ch.transfer(Ps::ZERO, 0, 256, TrafficClass::Demand, 0);
        let free = ch.data_route_free_at(0);
        let (start, _) = ch.transfer(free, 0, 256, TrafficClass::Demand, 1);
        assert_eq!(start, free + Ps::from_ps(100));
        assert_eq!(ch.target_switches(), 2);
    }

    #[test]
    fn vcs_are_independent() {
        let mut ch = chan(DualRouteMode::Serialized);
        let (_, e0) = ch.transfer(Ps::ZERO, 0, 1 << 16, TrafficClass::Demand, 0);
        let (s1, _) = ch.transfer(Ps::ZERO, 1, 256, TrafficClass::Demand, 0);
        assert!(s1 < e0, "VC 1 must not queue behind VC 0");
    }

    #[test]
    #[should_panic(expected = "dual-route")]
    fn serialized_channel_has_no_memory_route() {
        let mut ch = chan(DualRouteMode::Serialized);
        ch.memory_route_transfer(Ps::ZERO, 0, 256);
    }

    #[test]
    fn wom_stretches_demand_during_migration() {
        let mut ch = chan(DualRouteMode::Wom);
        // Occupy the memory route for a long migration.
        ch.memory_route_transfer(Ps::ZERO, 0, 1 << 16);
        let (s, e) = ch.transfer(Ps::ZERO, 0, 256, TrafficClass::Demand, 0);
        // 533 ps stretched by 3/2 = 800 ps.
        assert_eq!(e - s, Ps::from_ps(800));
    }

    #[test]
    fn half_coupled_keeps_full_bandwidth_during_migration() {
        let mut ch = chan(DualRouteMode::HalfCoupled);
        ch.memory_route_transfer(Ps::ZERO, 0, 1 << 16);
        let (s, e) = ch.transfer(Ps::ZERO, 0, 256, TrafficClass::Demand, 0);
        assert_eq!(e - s, Ps::from_ps(533));
    }

    #[test]
    fn wom_full_speed_when_memory_route_idle() {
        let mut ch = chan(DualRouteMode::Wom);
        let (s, e) = ch.transfer(Ps::ZERO, 0, 256, TrafficClass::Demand, 0);
        assert_eq!(e - s, Ps::from_ps(533));
    }

    #[test]
    fn migration_fraction_counts_data_route_only() {
        let mut ch = chan(DualRouteMode::HalfCoupled);
        ch.transfer(Ps::ZERO, 0, 1000, TrafficClass::Demand, 0);
        ch.memory_route_transfer(Ps::ZERO, 0, 100_000);
        assert_eq!(ch.migration_fraction(), 0.0);
        ch.transfer(Ps::ZERO, 0, 1000, TrafficClass::Migration, 1);
        assert!(ch.migration_fraction() > 0.4);
    }

    #[test]
    fn more_waveguides_speed_up_transfers() {
        let cfg8 = OpticalChannelConfig {
            waveguides: 8,
            ..OpticalChannelConfig::default()
        };
        let mut ch1 = OpticalChannel::new(OpticalChannelConfig::default());
        let mut ch8 = OpticalChannel::new(cfg8);
        let (s1, e1) = ch1.transfer(Ps::ZERO, 0, 4096, TrafficClass::Demand, 0);
        let (s8, e8) = ch8.transfer(Ps::ZERO, 0, 4096, TrafficClass::Demand, 0);
        assert!((e8 - s8).as_ps() * 7 < (e1 - s1).as_ps() * 8u64);
        assert!((e8 - s8) < (e1 - s1));
    }

    #[test]
    fn bandwidth_matches_table1() {
        let cfg = OpticalChannelConfig::default();
        assert!((cfg.total_bandwidth_gbps() - 360.0).abs() < 1e-9);
        assert_eq!(cfg.vc_width_bits(), 16);
    }

    #[test]
    fn dynamic_division_borrows_idle_vcs() {
        let mut ch = OpticalChannel::new(OpticalChannelConfig {
            division: ChannelDivision::Dynamic {
                reallocation: Ps::from_ps(500),
            },
            ..OpticalChannelConfig::default()
        });
        // Saturate VC 0 far into the future.
        ch.transfer(Ps::ZERO, 0, 1 << 20, TrafficClass::Demand, 0);
        // A second transfer homed on VC 0 should borrow an idle VC and
        // finish long before VC 0 frees up.
        let (_, end) = ch.transfer(Ps::ZERO, 0, 256, TrafficClass::Demand, 0);
        assert!(end < ch.data_route_free_at(0));
        assert_eq!(ch.vc_borrows(), 1);
    }

    #[test]
    fn dynamic_division_prefers_home_when_idle() {
        let mut ch = OpticalChannel::new(OpticalChannelConfig {
            division: ChannelDivision::Dynamic {
                reallocation: Ps::from_ps(500),
            },
            ..OpticalChannelConfig::default()
        });
        let (start, _) = ch.transfer(Ps::ZERO, 3, 256, TrafficClass::Demand, 0);
        // No borrow penalty: only the demux acquisition delay applies.
        assert_eq!(start, Ps::from_ps(100));
        assert_eq!(ch.vc_borrows(), 0);
    }

    #[test]
    fn static_division_never_borrows() {
        let mut ch = chan(DualRouteMode::Serialized);
        ch.transfer(Ps::ZERO, 0, 1 << 20, TrafficClass::Demand, 0);
        let (start, _) = ch.transfer(Ps::ZERO, 0, 256, TrafficClass::Demand, 0);
        assert!(start >= ch.data_route_free_at(0) - Ps::from_ps(533));
        assert_eq!(ch.vc_borrows(), 0);
    }

    #[test]
    fn idle_channel_ratios_are_finite_zero() {
        let ch = chan(DualRouteMode::Serialized);
        // Zero-denominator cases: no traffic and/or an empty window must
        // report exactly 0, never NaN or ∞.
        assert_eq!(ch.migration_fraction(), 0.0);
        assert_eq!(ch.utilization(Ps::ZERO), 0.0);
        assert_eq!(ch.utilization(Ps::from_us(1)), 0.0);
    }

    #[test]
    fn utilization_zero_horizon_with_traffic_is_zero() {
        let mut ch = chan(DualRouteMode::Serialized);
        ch.transfer(Ps::ZERO, 0, 4096, TrafficClass::Demand, 0);
        assert_eq!(ch.utilization(Ps::ZERO), 0.0);
    }

    #[test]
    fn utilization_clamped_to_unity() {
        let mut ch = chan(DualRouteMode::Serialized);
        // Saturate every VC far beyond a tiny horizon.
        for vc in 0..ch.vc_count() {
            ch.transfer(Ps::ZERO, vc, 1 << 20, TrafficClass::Demand, 0);
        }
        let u = ch.utilization(Ps::from_ps(1));
        assert!(u.is_finite());
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        assert_eq!(u, 1.0);
    }

    #[test]
    fn interval_logging_records_both_routes() {
        let mut ch = chan(DualRouteMode::HalfCoupled);
        // Disabled by default: nothing recorded.
        ch.transfer(Ps::ZERO, 0, 256, TrafficClass::Demand, 0);
        assert!(ch.drain_intervals().is_empty());

        ch.set_interval_logging(true);
        let (ds, de) = ch.transfer(Ps::ZERO, 1, 256, TrafficClass::Demand, 0);
        let (ms, me) = ch.memory_route_transfer(Ps::ZERO, 2, 512);
        let log = ch.drain_intervals();
        assert_eq!(log.len(), 2);
        assert_eq!(
            log[0],
            BusyInterval {
                vc: 1,
                start: ds,
                end: de,
                class: TrafficClass::Demand,
                memory_route: false,
            }
        );
        assert_eq!(
            log[1],
            BusyInterval {
                vc: 2,
                start: ms,
                end: me,
                class: TrafficClass::Migration,
                memory_route: true,
            }
        );
        // Drain empties the log.
        assert!(ch.drain_intervals().is_empty());
    }

    #[test]
    fn fault_windows_expire_and_extend() {
        let mut ch = chan(DualRouteMode::Serialized);
        assert!(!ch.vc_faulty(2, Ps::ZERO));
        ch.mark_vc_faulty(2, Ps::from_ns(5));
        assert!(ch.vc_faulty(2, Ps::from_ns(4)));
        assert!(!ch.vc_faulty(2, Ps::from_ns(5)));
        // Extending forward works; shrinking is ignored.
        ch.mark_vc_faulty(2, Ps::from_ns(8));
        ch.mark_vc_faulty(2, Ps::from_ns(1));
        assert!(ch.vc_faulty(2, Ps::from_ns(7)));
    }

    #[test]
    fn healthiest_vc_skips_faulty_and_busy() {
        let mut ch = chan(DualRouteMode::Serialized);
        // Idle channel: lowest index wins.
        assert_eq!(ch.healthiest_vc(Ps::ZERO), Some(0));
        // Make VC 0 faulty and VC 1 busy: VC 2 is next best.
        ch.mark_vc_faulty(0, Ps::from_us(1));
        ch.transfer(Ps::ZERO, 1, 1 << 16, TrafficClass::Demand, 0);
        assert_eq!(ch.healthiest_vc(Ps::ZERO), Some(2));
        // All VCs faulty: no candidate.
        for vc in 0..ch.vc_count() {
            ch.mark_vc_faulty(vc, Ps::from_us(1));
        }
        assert_eq!(ch.healthiest_vc(Ps::ZERO), None);
        // Windows expire: after the window everything is healthy again.
        assert_eq!(ch.healthiest_vc(Ps::from_us(1)), Some(0));
    }

    #[test]
    fn bits_accounting_by_class() {
        let mut ch = chan(DualRouteMode::Wom);
        ch.transfer(Ps::ZERO, 0, 100, TrafficClass::Demand, 0);
        ch.memory_route_transfer(Ps::ZERO, 0, 50);
        assert_eq!(ch.bits_by_class(TrafficClass::Demand), 100);
        assert_eq!(ch.bits_by_class(TrafficClass::Migration), 50);
    }
}
