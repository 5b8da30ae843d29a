//! Optical power budget.
//!
//! The paper's optical power model (Table I, after [Li et al., HPCA'13])
//! charges each component in a light path a fixed insertion loss in dB:
//! filter drop 1.5 dB, waveguide 0.3 dB/cm, splitter 0.2 dB, detector
//! 0.1 dB, modulator 0–1 dB. The half-coupled MRRs of the dual routes
//! additionally split the light itself: a tap that absorbs fraction `a`
//! leaves `1-a` of the power for downstream devices. The received power at
//! a detector (laser power minus path loss) drives the BER model, and the
//! laser must be scaled up (2×/4×) when dual routes lengthen the path.

/// Builder for the total insertion loss along one light path.
///
/// # Example
///
/// ```
/// use ohm_optic::OpticalPathLoss;
///
/// // The nominal Ohm-base path: modulator, 2 cm of waveguide, filter, detector.
/// let path = OpticalPathLoss::new()
///     .modulator(0.5)
///     .waveguide_cm(2.0)
///     .filter_drop()
///     .detector();
/// assert!((path.total_db() - 2.7).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpticalPathLoss {
    total_db: f64,
}

impl OpticalPathLoss {
    /// Filter drop loss (Table I).
    pub const FILTER_DROP_DB: f64 = 1.5;
    /// Waveguide propagation loss per centimetre (Table I).
    pub const WAVEGUIDE_DB_PER_CM: f64 = 0.3;
    /// Splitter insertion loss (Table I).
    pub const SPLITTER_DB: f64 = 0.2;
    /// Detector insertion loss (Table I).
    pub const DETECTOR_DB: f64 = 0.1;

    /// An empty (lossless) path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a modulator with the given insertion loss (Table I: 0–1 dB).
    ///
    /// # Panics
    ///
    /// Panics if the loss is outside the Table I range `[0, 1]` dB.
    pub fn modulator(mut self, db: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&db),
            "modulator loss must be within 0..=1 dB"
        );
        self.total_db += db;
        self
    }

    /// Adds `cm` centimetres of waveguide.
    ///
    /// # Panics
    ///
    /// Panics if `cm` is negative.
    pub fn waveguide_cm(mut self, cm: f64) -> Self {
        assert!(cm >= 0.0, "waveguide length cannot be negative");
        self.total_db += cm * Self::WAVEGUIDE_DB_PER_CM;
        self
    }

    /// Adds a filter drop.
    pub fn filter_drop(mut self) -> Self {
        self.total_db += Self::FILTER_DROP_DB;
        self
    }

    /// Adds a splitter insertion loss.
    pub fn splitter(mut self) -> Self {
        self.total_db += Self::SPLITTER_DB;
        self
    }

    /// Adds the terminal detector.
    pub fn detector(mut self) -> Self {
        self.total_db += Self::DETECTOR_DB;
        self
    }

    /// Light continues past a half-coupled MRR that absorbs fraction
    /// `absorb` of the power. The ring's own insertion loss is part of its
    /// modulator/detector budget, so only the split is charged here —
    /// which is what makes the paper's 2×/4× laser scaling able to restore
    /// both arms' sensing margins.
    ///
    /// # Panics
    ///
    /// Panics if `absorb` is not within `(0, 1)`.
    pub fn half_couple_pass(mut self, absorb: f64) -> Self {
        assert!(
            absorb > 0.0 && absorb < 1.0,
            "absorb fraction must be in (0, 1)"
        );
        self.total_db += -10.0 * (1.0 - absorb).log10();
        self
    }

    /// Light is tapped *into* a half-coupled MRR that absorbs fraction
    /// `absorb`: the tap branch receives that fraction.
    ///
    /// # Panics
    ///
    /// Panics if `absorb` is not within `(0, 1)`.
    pub fn half_couple_tap(mut self, absorb: f64) -> Self {
        assert!(
            absorb > 0.0 && absorb < 1.0,
            "absorb fraction must be in (0, 1)"
        );
        self.total_db += -10.0 * absorb.log10();
        self
    }

    /// Total path loss in dB.
    pub fn total_db(self) -> f64 {
        self.total_db
    }

    /// Fraction of launched power that reaches the end of the path.
    pub fn transmission(self) -> f64 {
        10f64.powf(-self.total_db / 10.0)
    }
}

/// The laser/energy side of the optical channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticalPowerModel {
    /// Laser power launched per wavelength, in milliwatts.
    pub laser_mw_per_wavelength: f64,
    /// Laser power multiplier (dual-route platforms use 2× or 4×).
    pub laser_scale: f64,
    /// MRR tuning energy per bit, femtojoules (Table I: 200 fJ/bit).
    pub tuning_fj_per_bit: f64,
    /// Wall-plug efficiency of the laser source.
    pub laser_efficiency: f64,
}

impl Default for OpticalPowerModel {
    fn default() -> Self {
        OpticalPowerModel {
            laser_mw_per_wavelength: 0.73,
            laser_scale: 1.0,
            tuning_fj_per_bit: 200.0,
            laser_efficiency: 0.3,
        }
    }
}

impl OpticalPowerModel {
    /// Received power (mW) at the end of `path`.
    pub fn received_mw(&self, path: OpticalPathLoss) -> f64 {
        self.laser_mw_per_wavelength * self.laser_scale * path.transmission()
    }

    /// Static laser wall power (W) for `wavelengths` active wavelengths.
    pub fn laser_wall_power_w(&self, wavelengths: u32) -> f64 {
        self.laser_mw_per_wavelength * self.laser_scale * wavelengths as f64
            / 1000.0
            / self.laser_efficiency
    }

    /// Dynamic modulation/detection energy (J) for moving `bits` bits
    /// (each bit is tuned once at the modulator and once at the detector).
    pub fn tuning_energy_j(&self, bits: u64) -> f64 {
        2.0 * bits as f64 * self.tuning_fj_per_bit * 1e-15
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_path_loss() {
        let p = OpticalPathLoss::new()
            .modulator(0.5)
            .waveguide_cm(2.0)
            .filter_drop()
            .detector();
        assert!((p.total_db() - 2.7).abs() < 1e-9);
        assert!((p.transmission() - 10f64.powf(-0.27)).abs() < 1e-12);
    }

    #[test]
    fn half_couple_pass_costs_the_split() {
        let p = OpticalPathLoss::new().half_couple_pass(0.5);
        assert!((p.total_db() - 3.0103).abs() < 1e-3);
    }

    #[test]
    fn tap_and_pass_conserve_energy() {
        let tap = OpticalPathLoss::new().half_couple_tap(0.4).transmission();
        let pass = OpticalPathLoss::new().half_couple_pass(0.4).transmission();
        assert!((tap + pass - 1.0).abs() < 1e-9);
        assert!((tap - 0.4).abs() < 1e-9 && (pass - 0.6).abs() < 1e-9);
    }

    #[test]
    fn received_power_scales_with_laser() {
        let path = OpticalPathLoss::new().filter_drop().detector();
        let base = OpticalPowerModel::default();
        let boosted = OpticalPowerModel {
            laser_scale: 4.0,
            ..base
        };
        assert!((boosted.received_mw(path) / base.received_mw(path) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn laser_wall_power() {
        let m = OpticalPowerModel::default();
        // 96 wavelengths at 0.73 mW / 30% efficiency ≈ 0.2336 W.
        let w = m.laser_wall_power_w(96);
        assert!((w - 0.73e-3 * 96.0 / 0.3).abs() < 1e-9);
    }

    #[test]
    fn tuning_energy_counts_both_ends() {
        let m = OpticalPowerModel::default();
        let j = m.tuning_energy_j(1_000_000);
        assert!((j - 2.0 * 1e6 * 200e-15).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "modulator loss")]
    fn modulator_loss_range_enforced() {
        let _ = OpticalPathLoss::new().modulator(1.5);
    }
}
