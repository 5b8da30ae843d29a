//! Electrical memory channel baseline.
//!
//! The `Origin` and `Hetero` platforms use the traditional electrical
//! memory bus: six independent 32-bit channels clocked at 15 GHz
//! (Table I). Each channel serialises every transfer — demand or
//! migration — on its single set of lanes, which is exactly the contention
//! Ohm-GPU's optical design removes.

use ohm_sim::{Freq, Ps, TaggedCalendar};

use crate::channel::{BusyInterval, TrafficClass};

/// Configuration of the electrical channel array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElectricalConfig {
    /// Number of independent channels (Table I: 6).
    pub channels: usize,
    /// Lane width of one channel in bits (Table I: 32).
    pub width_bits: u64,
    /// Channel clock (Table I: 15 GHz).
    pub freq: Freq,
}

impl Default for ElectricalConfig {
    fn default() -> Self {
        ElectricalConfig {
            channels: 6,
            width_bits: 32,
            freq: Freq::from_ghz(15.0),
        }
    }
}

impl ElectricalConfig {
    /// Aggregate raw bandwidth in GB/s.
    pub fn total_bandwidth_gbps(&self) -> f64 {
        self.channels as f64 * self.freq.bandwidth_gbps(self.width_bits)
    }
}

/// An array of electrical memory channels.
///
/// # Example
///
/// ```
/// use ohm_optic::{ElectricalChannel, ElectricalConfig, TrafficClass};
/// use ohm_sim::Ps;
///
/// let mut ch = ElectricalChannel::new(ElectricalConfig::default());
/// let (start, end) = ch.transfer(Ps::ZERO, 0, 32 * 8, TrafficClass::Demand);
/// assert!(end > start);
/// ```
#[derive(Debug, Clone)]
pub struct ElectricalChannel {
    cfg: ElectricalConfig,
    lanes: Vec<TaggedCalendar>,
    bits_transferred: [u64; 2],
    interval_log: Option<Vec<BusyInterval>>,
}

impl ElectricalChannel {
    /// Creates an idle channel array.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels.
    pub fn new(cfg: ElectricalConfig) -> Self {
        assert!(cfg.channels > 0, "need at least one channel");
        ElectricalChannel {
            lanes: (0..cfg.channels).map(|_| TaggedCalendar::new(2)).collect(),
            cfg,
            bits_transferred: [0; 2],
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
    pub fn config(&self) -> &ElectricalConfig {
        &self.cfg
    }

    /// Transfers `bits` on channel `ch`; all traffic classes serialise.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range or `bits` is zero.
    pub fn transfer(&mut self, now: Ps, ch: usize, bits: u64, class: TrafficClass) -> (Ps, Ps) {
        assert!(bits > 0, "cannot transfer zero bits");
        let dur = self.cfg.freq.transfer_time(bits, self.cfg.width_bits);
        self.bits_transferred[class as usize] += bits;
        let (start, end) = self.lanes[ch].book(now, dur, class as usize);
        if let Some(log) = self.interval_log.as_mut() {
            log.push(BusyInterval {
                vc: ch,
                start,
                end,
                class,
                memory_route: false,
            });
        }
        (start, end)
    }

    /// When channel `ch` next becomes free.
    pub fn free_at(&self, ch: usize) -> Ps {
        self.lanes[ch].next_free()
    }

    /// Fraction of busy time spent on migration traffic.
    pub fn migration_fraction(&self) -> f64 {
        let total: u64 = self.lanes.iter().map(|l| l.busy_time().as_ps()).sum();
        if total == 0 {
            return 0.0;
        }
        let mig: u64 = self
            .lanes
            .iter()
            .map(|l| l.busy_by_tag(TrafficClass::Migration as usize).as_ps())
            .sum();
        mig as f64 / total as f64
    }

    /// Total busy time across channels.
    pub fn busy_time(&self) -> Ps {
        self.lanes.iter().map(|l| l.busy_time()).sum()
    }

    /// Mean per-lane utilisation over a window ending at `horizon`.
    ///
    /// Always a finite value in `[0, 1]`: a zero-length window reports 0
    /// and per-lane fractions are clamped, mirroring
    /// `OpticalChannel::utilization`.
    pub fn utilization(&self, horizon: Ps) -> f64 {
        if self.lanes.is_empty() {
            return 0.0;
        }
        self.lanes
            .iter()
            .map(|l| l.utilization(horizon))
            .sum::<f64>()
            / self.lanes.len() as f64
    }

    /// Bits transferred so far, by class.
    pub fn bits_by_class(&self, class: TrafficClass) -> u64 {
        self.bits_transferred[class as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_matches_table1() {
        let cfg = ElectricalConfig::default();
        assert!((cfg.total_bandwidth_gbps() - 360.0).abs() < 1e-9);
    }

    #[test]
    fn transfers_serialise_per_channel() {
        let mut ch = ElectricalChannel::new(ElectricalConfig::default());
        let (_, e1) = ch.transfer(Ps::ZERO, 0, 256, TrafficClass::Demand);
        let (s2, _) = ch.transfer(Ps::ZERO, 0, 256, TrafficClass::Migration);
        assert_eq!(s2, e1);
        // Other channels stay free.
        assert_eq!(ch.free_at(1), Ps::ZERO);
    }

    #[test]
    fn transfer_duration_matches_width() {
        let mut ch = ElectricalChannel::new(ElectricalConfig::default());
        // 256 bits over 32 lanes at 15 GHz = 8 cycles ≈ 533 ps.
        let (s, e) = ch.transfer(Ps::ZERO, 0, 256, TrafficClass::Demand);
        assert_eq!(e - s, Ps::from_ps(533));
    }

    #[test]
    fn migration_fraction_counts_all_traffic() {
        let mut ch = ElectricalChannel::new(ElectricalConfig::default());
        ch.transfer(Ps::ZERO, 0, 3000, TrafficClass::Demand);
        ch.transfer(Ps::ZERO, 0, 1000, TrafficClass::Migration);
        let f = ch.migration_fraction();
        assert!(f > 0.2 && f < 0.3, "fraction {f}");
        assert_eq!(ch.bits_by_class(TrafficClass::Migration), 1000);
    }

    #[test]
    fn idle_channel_ratios_are_finite_zero() {
        let ch = ElectricalChannel::new(ElectricalConfig::default());
        assert_eq!(ch.migration_fraction(), 0.0);
        assert_eq!(ch.utilization(Ps::ZERO), 0.0);
        assert_eq!(ch.utilization(Ps::from_us(1)), 0.0);
    }

    #[test]
    fn utilization_clamped_to_unity() {
        let mut ch = ElectricalChannel::new(ElectricalConfig::default());
        for lane in 0..ch.config().channels {
            ch.transfer(Ps::ZERO, lane, 1 << 20, TrafficClass::Demand);
        }
        let u = ch.utilization(Ps::from_ps(1));
        assert!(u.is_finite());
        assert_eq!(u, 1.0);
    }

    #[test]
    fn interval_logging_records_lane_windows() {
        let mut ch = ElectricalChannel::new(ElectricalConfig::default());
        ch.transfer(Ps::ZERO, 0, 256, TrafficClass::Demand);
        assert!(ch.drain_intervals().is_empty());

        ch.set_interval_logging(true);
        let (s, e) = ch.transfer(Ps::ZERO, 3, 256, TrafficClass::Migration);
        let log = ch.drain_intervals();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].vc, 3);
        assert_eq!((log[0].start, log[0].end), (s, e));
        assert_eq!(log[0].class, TrafficClass::Migration);
        assert!(!log[0].memory_route);
        assert!(ch.drain_intervals().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = ElectricalChannel::new(ElectricalConfig {
            channels: 0,
            ..ElectricalConfig::default()
        });
    }
}
