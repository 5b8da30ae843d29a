//! The fabric layer: a uniform transfer interface over either channel
//! technology.
//!
//! [`Fabric`] absorbs what used to be an ad-hoc `Channel::Optical /
//! Channel::Electrical` enum dispatch inside the system monolith. The
//! memory subsystem talks to one trait object; which physics sits behind
//! it is decided once, at construction, from the platform.
//!
//! When a [`FaultPlan`] is armed, optical platforms get a
//! `ResilientFabric`: the same optical channel wrapped with CRC
//! detection + bounded retransmission, MRR stick/drift injection with
//! re-arbitration onto healthy wavelengths, and degradation onto an
//! electrical fallback path when no healthy wavelength remains.

use ohm_hetero::migration::ChannelTech;
use ohm_hetero::{MigrationCaps, Platform};
use ohm_optic::mrr::FINE_TUNE;
use ohm_optic::{
    BusyInterval, CouplingState, DualRouteMode, ElectricalChannel, MicroRing, MrrKind,
    OperationalMode, OpticalChannel, OpticalChannelConfig, RingHealth, TrafficClass,
};
use ohm_sim::{Ps, SplitMix64};

use crate::config::SystemConfig;
use crate::fault::{FaultCounters, FaultPlan, RecoveryEvent};
use crate::reliability;
use crate::system::Stage;

/// A memory channel behind a uniform transfer interface.
///
/// Implementations book wire occupancy on a per-virtual-channel data
/// route; optical fabrics additionally expose the dedicated memory route
/// (dual-route platforms) used by delegated migrations.
pub trait Fabric {
    /// Books `bits` on virtual channel `ch`'s data route toward `device`,
    /// returning the transfer's `(start, end)`.
    fn xfer(
        &mut self,
        now: Ps,
        ch: usize,
        bits: u64,
        class: TrafficClass,
        device: usize,
    ) -> (Ps, Ps);

    /// Books `bits` on the dedicated memory route (device-to-device
    /// copies that bypass the data route).
    ///
    /// # Panics
    ///
    /// Panics on fabrics without a memory route (electrical platforms
    /// never delegate migrations).
    fn memory_route(&mut self, now: Ps, ch: usize, bits: u64) -> (Ps, Ps);

    /// Fraction of data-route busy time carrying migration traffic.
    fn migration_fraction(&self) -> f64;

    /// Mean per-channel utilization over `horizon`.
    fn utilization(&self, horizon: Ps) -> f64;

    /// Total bits moved, split `(demand, migration)`.
    fn bits(&self) -> (u64, u64);

    /// Enables or disables per-transfer busy-interval logging (used by the
    /// observability layer; off by default, zero overhead when off).
    fn set_interval_logging(&mut self, enabled: bool);

    /// Takes the busy intervals logged since the last drain. Empty when
    /// logging is disabled.
    fn drain_intervals(&mut self) -> Vec<BusyInterval>;

    /// Appends the recovery events accumulated since the last drain to
    /// `out`, whose capacity the caller reuses across requests.
    /// Fault-free fabrics never produce any.
    fn drain_recovery_into(&mut self, _out: &mut Vec<RecoveryEvent>) {}

    /// Snapshot of the fabric's fault/recovery counters. All-zero on
    /// fault-free fabrics.
    fn fault_counters(&self) -> FaultCounters {
        FaultCounters::default()
    }
}

impl Fabric for OpticalChannel {
    fn xfer(
        &mut self,
        now: Ps,
        ch: usize,
        bits: u64,
        class: TrafficClass,
        device: usize,
    ) -> (Ps, Ps) {
        self.transfer(now, ch, bits, class, device)
    }

    fn memory_route(&mut self, now: Ps, ch: usize, bits: u64) -> (Ps, Ps) {
        self.memory_route_transfer(now, ch, bits)
    }

    fn migration_fraction(&self) -> f64 {
        OpticalChannel::migration_fraction(self)
    }

    fn utilization(&self, horizon: Ps) -> f64 {
        OpticalChannel::utilization(self, horizon)
    }

    fn bits(&self) -> (u64, u64) {
        (
            self.bits_by_class(TrafficClass::Demand),
            self.bits_by_class(TrafficClass::Migration),
        )
    }

    fn set_interval_logging(&mut self, enabled: bool) {
        OpticalChannel::set_interval_logging(self, enabled);
    }

    fn drain_intervals(&mut self) -> Vec<BusyInterval> {
        OpticalChannel::drain_intervals(self)
    }
}

impl Fabric for ElectricalChannel {
    fn xfer(
        &mut self,
        now: Ps,
        ch: usize,
        bits: u64,
        class: TrafficClass,
        _device: usize,
    ) -> (Ps, Ps) {
        self.transfer(now, ch, bits, class)
    }

    fn memory_route(&mut self, _now: Ps, _ch: usize, _bits: u64) -> (Ps, Ps) {
        unreachable!("electrical platforms never use the memory route")
    }

    fn migration_fraction(&self) -> f64 {
        ElectricalChannel::migration_fraction(self)
    }

    fn utilization(&self, horizon: Ps) -> f64 {
        ElectricalChannel::utilization(self, horizon)
    }

    fn bits(&self) -> (u64, u64) {
        (
            self.bits_by_class(TrafficClass::Demand),
            self.bits_by_class(TrafficClass::Migration),
        )
    }

    fn set_interval_logging(&mut self, enabled: bool) {
        ElectricalChannel::set_interval_logging(self, enabled);
    }

    fn drain_intervals(&mut self) -> Vec<BusyInterval> {
        ElectricalChannel::drain_intervals(self)
    }
}

/// An optical fabric hardened against injected faults (the tentpole of
/// the fault-injection subsystem; see [`crate::fault`]).
///
/// Wraps the platform's [`OpticalChannel`] with the three recovery
/// mechanisms a degraded link needs:
///
/// * **CRC detect + bounded retransmission.** Each transfer is corrupted
///   with probability `1 - (1 - BER)^bits` at the fault plan's derated
///   operating point ([`reliability::degraded_ber`]). A corrupted
///   transfer is retransmitted after an exponential backoff; when the
///   retransmission budget runs out, the payload is escalated onto the
///   electrical fallback path.
/// * **MRR re-arbitration.** Each transfer can stick or drift the VC's
///   demux ring ([`RingHealth`]); detection is the failed corrective
///   retune. The VC is marked untrusted for the plan's repair window and
///   traffic re-arbitrates (paying a [`FINE_TUNE`] retune) onto the
///   healthiest remaining wavelength.
/// * **Electrical degradation.** When every wavelength is untrusted, the
///   transfer moves to the electrical fallback channel entirely — the
///   system stays alive at electrical bandwidth (the paper's Origin
///   substrate) instead of wedging.
///
/// At `q_derate <= 1.0` the analytical BER (≈7.2e-16/bit, Figure 20b) is
/// below any rate observable in simulated transfer counts, so corruption
/// is treated as exactly zero — together with ppm-gated MRR draws this
/// keeps a quiescent plan on a draw-free path, bit-identical to running
/// with no plan at all.
pub(crate) struct ResilientFabric {
    optical: OpticalChannel,
    fallback: ElectricalChannel,
    /// One demux detector ring per VC — the components stick/drift
    /// faults land on.
    demux_rings: Vec<MicroRing>,
    /// When each faulted ring's thermal recalibration completes.
    ring_repair_at: Vec<Ps>,
    rng: SplitMix64,
    /// Per-bit corruption probability at the derated operating point.
    ber: f64,
    plan: FaultPlan,
    counters: FaultCounters,
    recovery: Vec<RecoveryEvent>,
}

impl ResilientFabric {
    fn new(
        optical: OpticalChannel,
        fallback: ElectricalChannel,
        plan: FaultPlan,
        ber: f64,
    ) -> Self {
        let vcs = optical.vc_count();
        let mut root = SplitMix64::new(plan.seed);
        ResilientFabric {
            optical,
            fallback,
            demux_rings: (0..vcs)
                .map(|_| MicroRing::new(MrrKind::Detector))
                .collect(),
            ring_repair_at: vec![Ps::ZERO; vcs],
            rng: root.fork(0xFAB),
            ber,
            plan,
            counters: FaultCounters::default(),
            recovery: Vec::new(),
        }
    }

    /// Probability that a `bits`-long transfer fails CRC.
    fn corruption_p(&self, bits: u64) -> f64 {
        if self.ber <= 0.0 {
            return 0.0;
        }
        1.0 - (1.0 - self.ber).powf(bits as f64)
    }

    /// Repairs `ch`'s ring if its recalibration window has elapsed, then
    /// rolls for a new stick/drift fault. Returns without drawing when the
    /// plan's MRR rate is zero.
    fn roll_mrr_fault(&mut self, now: Ps, ch: usize) {
        if self.demux_rings[ch].health() != RingHealth::Healthy && now >= self.ring_repair_at[ch] {
            self.demux_rings[ch].repair();
        }
        if self.plan.mrr_fault_ppm == 0 || self.demux_rings[ch].health() != RingHealth::Healthy {
            return;
        }
        if self.rng.next_below(1_000_000) >= self.plan.mrr_fault_ppm as u64 {
            return;
        }
        self.counters.mrr_faults += 1;
        let stick = self.rng.next_below(2) == 0;
        if stick {
            self.demux_rings[ch].inject_stick();
        } else {
            self.demux_rings[ch].inject_drift();
        }
        // Detection: the corrective retune. A stuck ring ignores it and
        // its VC stays untrusted for the full repair window; a drifted
        // ring heals after one fine-granule retune, so only the current
        // transfer sees an untrusted VC.
        let done = self.demux_rings[ch].retune(now, CouplingState::Coupled);
        let until = if self.demux_rings[ch].health() == RingHealth::Stuck {
            self.ring_repair_at[ch] = now + self.plan.mrr_repair;
            now + self.plan.mrr_repair
        } else {
            done.max(now + FINE_TUNE)
        };
        self.optical.mark_vc_faulty(ch, until);
    }

    /// Runs the CRC detect → retransmit → escalate loop for a transfer
    /// that completed at `end` on VC `ch`. Returns the final completion.
    fn crc_and_retransmit(
        &mut self,
        ch: usize,
        bits: u64,
        class: TrafficClass,
        device: Option<usize>,
        end: Ps,
    ) -> Ps {
        let p = self.corruption_p(bits);
        if p <= 0.0 {
            return end;
        }
        let first_end = end;
        let mut end = end;
        let mut attempt = 0u32;
        let mut retx = 0u32;
        while self.rng.chance(p) {
            attempt += 1;
            if attempt == 1 {
                self.counters.corrupted_transfers += 1;
            }
            if attempt > self.plan.max_retransmissions {
                self.counters.retx_exhausted += 1;
                if device.is_some() {
                    // Data-route payloads escalate to the electrical path.
                    let (_, e) = self.fallback.transfer(end, ch, bits, class);
                    self.counters.electrical_fallbacks += 1;
                    self.recovery.push(RecoveryEvent {
                        stage: Stage::FallbackElectrical,
                        vc: ch,
                        start: end,
                        end: e,
                    });
                    end = e;
                }
                // Memory-route copies have no electrical twin; the final
                // (declared-good) replica stands and the wear-leveling
                // scrub owns any residual error.
                break;
            }
            retx += 1;
            self.counters.retransmissions += 1;
            let retry_at = end + self.plan.retx_backoff.delay(attempt);
            let (_, e) = match device {
                Some(dev) => self.optical.transfer(retry_at, ch, bits, class, dev),
                None => self.optical.memory_route_transfer(retry_at, ch, bits),
            };
            end = e;
        }
        if retx > 0 {
            self.recovery.push(RecoveryEvent {
                stage: Stage::Retransmit,
                vc: ch,
                start: first_end,
                end,
            });
        }
        end
    }
}

impl Fabric for ResilientFabric {
    fn xfer(
        &mut self,
        now: Ps,
        ch: usize,
        bits: u64,
        class: TrafficClass,
        device: usize,
    ) -> (Ps, Ps) {
        self.roll_mrr_fault(now, ch);
        if self.optical.vc_faulty(ch, now) {
            match self.optical.healthiest_vc(now) {
                Some(alt) => {
                    // Re-arbitrate onto a healthy wavelength; the borrowed
                    // detector pays a fine-granule retune first.
                    self.counters.rearbitrations += 1;
                    let (start, end) =
                        self.optical
                            .transfer(now + FINE_TUNE, alt, bits, class, device);
                    self.recovery.push(RecoveryEvent {
                        stage: Stage::Rearbitrate,
                        vc: ch,
                        start: now,
                        end,
                    });
                    let end = self.crc_and_retransmit(alt, bits, class, Some(device), end);
                    return (start, end);
                }
                None => {
                    // Whole optical plane untrusted: degrade to electrical.
                    self.counters.electrical_fallbacks += 1;
                    let (start, end) = self.fallback.transfer(now, ch, bits, class);
                    self.recovery.push(RecoveryEvent {
                        stage: Stage::FallbackElectrical,
                        vc: ch,
                        start: now,
                        end,
                    });
                    return (start, end);
                }
            }
        }
        let (start, end) = self.optical.transfer(now, ch, bits, class, device);
        let end = self.crc_and_retransmit(ch, bits, class, Some(device), end);
        (start, end)
    }

    fn memory_route(&mut self, now: Ps, ch: usize, bits: u64) -> (Ps, Ps) {
        let (start, end) = self.optical.memory_route_transfer(now, ch, bits);
        let end = self.crc_and_retransmit(ch, bits, TrafficClass::Migration, None, end);
        (start, end)
    }

    fn migration_fraction(&self) -> f64 {
        // Busy-time-weighted blend of the two substrates. Exact
        // pass-through when one side is idle, so a quiescent plan stays
        // bit-identical to the unwrapped fabric.
        let ob = (self.optical.data_route_busy() + self.optical.memory_route_busy()).as_ps() as f64;
        let eb = self.fallback.busy_time().as_ps() as f64;
        if eb == 0.0 {
            return self.optical.migration_fraction();
        }
        if ob == 0.0 {
            return self.fallback.migration_fraction();
        }
        (self.optical.migration_fraction() * ob + self.fallback.migration_fraction() * eb)
            / (ob + eb)
    }

    fn utilization(&self, horizon: Ps) -> f64 {
        self.optical
            .utilization(horizon)
            .max(self.fallback.utilization(horizon))
    }

    fn bits(&self) -> (u64, u64) {
        (
            self.optical.bits_by_class(TrafficClass::Demand)
                + self.fallback.bits_by_class(TrafficClass::Demand),
            self.optical.bits_by_class(TrafficClass::Migration)
                + self.fallback.bits_by_class(TrafficClass::Migration),
        )
    }

    fn set_interval_logging(&mut self, enabled: bool) {
        self.optical.set_interval_logging(enabled);
        self.fallback.set_interval_logging(enabled);
    }

    fn drain_intervals(&mut self) -> Vec<BusyInterval> {
        let mut v = self.optical.drain_intervals();
        v.extend(self.fallback.drain_intervals());
        v
    }

    fn drain_recovery_into(&mut self, out: &mut Vec<RecoveryEvent>) {
        out.append(&mut self.recovery);
    }

    fn fault_counters(&self) -> FaultCounters {
        self.counters
    }
}

/// Builds the fabric a platform runs on, from its
/// [`channel_tech`](Platform::channel_tech): an electrical channel, or an
/// optical one with the platform's dual-route capability.
///
/// WOM coding exists to share a light between the memory controller and
/// the swap function (Section V-B) — planar mode only. The two-level
/// mode's auto-read/write + reverse-write use half-coupled MRR
/// *receivers* (Figure 15b) and carry no coding penalty.
pub(crate) fn build_fabric(
    cfg: &SystemConfig,
    platform: Platform,
    mode: OperationalMode,
    caps: &MigrationCaps,
) -> Box<dyn Fabric + Send> {
    let dual_route = if caps.swap || caps.reverse_write || caps.auto_rw {
        if caps.wom_coding && mode == OperationalMode::Planar {
            DualRouteMode::Wom
        } else {
            DualRouteMode::HalfCoupled
        }
    } else {
        DualRouteMode::Serialized
    };

    match platform.channel_tech() {
        ChannelTech::Electrical => Box::new(ElectricalChannel::new(cfg.electrical)),
        ChannelTech::Optical => {
            let optical = OpticalChannel::new(OpticalChannelConfig {
                dual_route,
                ..cfg.optical
            });
            match &cfg.faults {
                Some(plan) => {
                    // At unit derate the analytical BER (~7.2e-16) is
                    // unobservable at simulated transfer counts; treat it
                    // as zero so quiescent plans stay draw-free.
                    let ber = if plan.q_derate > 1.0 {
                        reliability::degraded_ber(platform, plan.q_derate)
                            .expect("optical platform has light paths")
                    } else {
                        0.0
                    };
                    Box::new(ResilientFabric::new(
                        optical,
                        ElectricalChannel::new(cfg.electrical),
                        plan.clone(),
                        ber,
                    ))
                }
                None => Box::new(optical),
            }
        }
    }
}
