//! The platform capability matrix: channel technology and migration
//! capabilities.
//!
//! The seven evaluated GPU platforms (Section VI, "Heterogeneous memory
//! platforms") differ in two dimensions: the channel technology and which
//! migration mechanisms the memory system supports. This module encodes
//! that matrix; the timing consequences are applied by the system model.

/// Channel technology of a platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelTech {
    /// Six 32-bit electrical channels at 15 GHz.
    Electrical,
    /// One optical waveguide with six 16-bit virtual channels at 30 GHz.
    Optical,
}

/// Which migration mechanisms a platform may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrationCaps {
    /// Auto-read/write snarf available.
    pub auto_rw: bool,
    /// SWAP-CMD + DDR sequence generator available.
    pub swap: bool,
    /// Reverse-write available.
    pub reverse_write: bool,
    /// Swap-function light sharing uses WOM coding (2/3 data-route
    /// bandwidth while active) rather than half-coupled transmitters.
    pub wom_coding: bool,
}

/// The seven evaluated GPU platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// DRAM-only GPU (24 GB class); overflow pages in from host/SSD.
    Origin,
    /// Electrical-channel heterogeneous memory, controller-driven copies.
    Hetero,
    /// Optical-channel heterogeneous memory, controller-driven copies.
    OhmBase,
    /// Ohm-base + the auto-read/write function.
    AutoRw,
    /// Auto-read/write + reverse-write + swap with WOM coding.
    OhmWom,
    /// Like Ohm-WOM but half-coupled-MRR transmitters (no WOM penalty).
    OhmBw,
    /// All-DRAM memory of the full heterogeneous capacity (upper bound).
    Oracle,
}

impl Platform {
    /// All seven platforms in the paper's presentation order.
    pub const ALL: [Platform; 7] = [
        Platform::Origin,
        Platform::Hetero,
        Platform::OhmBase,
        Platform::AutoRw,
        Platform::OhmWom,
        Platform::OhmBw,
        Platform::Oracle,
    ];

    /// The platform's display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Platform::Origin => "Origin",
            Platform::Hetero => "Hetero",
            Platform::OhmBase => "Ohm-base",
            Platform::AutoRw => "Auto-rw",
            Platform::OhmWom => "Ohm-WOM",
            Platform::OhmBw => "Ohm-BW",
            Platform::Oracle => "Oracle",
        }
    }

    /// Looks up a platform by its display name, case-insensitively.
    pub fn by_name(name: &str) -> Option<Platform> {
        Platform::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(name))
    }

    /// Channel technology.
    pub fn channel_tech(self) -> ChannelTech {
        match self {
            Platform::Origin | Platform::Hetero => ChannelTech::Electrical,
            _ => ChannelTech::Optical,
        }
    }

    /// Whether the platform has heterogeneous (DRAM+XPoint) memory.
    pub fn is_heterogeneous(self) -> bool {
        !matches!(self, Platform::Origin | Platform::Oracle)
    }

    /// Migration capabilities.
    pub fn migration_caps(self) -> MigrationCaps {
        match self {
            Platform::Origin | Platform::Oracle | Platform::Hetero | Platform::OhmBase => {
                MigrationCaps::default()
            }
            Platform::AutoRw => MigrationCaps {
                auto_rw: true,
                ..MigrationCaps::default()
            },
            Platform::OhmWom => MigrationCaps {
                auto_rw: true,
                swap: true,
                reverse_write: true,
                wom_coding: true,
            },
            Platform::OhmBw => MigrationCaps {
                auto_rw: true,
                swap: true,
                reverse_write: true,
                wom_coding: false,
            },
        }
    }

    /// Laser power multiplier required for the platform's optical
    /// infrastructure (Section VI: 1× base, 2× Auto-rw and Ohm-WOM, 4×
    /// Ohm-BW). Electrical platforms report 0.
    pub fn laser_power_scale(self) -> f64 {
        match self {
            Platform::Origin | Platform::Hetero => 0.0,
            Platform::OhmBase | Platform::Oracle => 1.0,
            Platform::AutoRw | Platform::OhmWom => 2.0,
            Platform::OhmBw => 4.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_platforms() {
        assert_eq!(Platform::ALL.len(), 7);
        let names: Vec<_> = Platform::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["Origin", "Hetero", "Ohm-base", "Auto-rw", "Ohm-WOM", "Ohm-BW", "Oracle"]
        );
        for p in Platform::ALL {
            assert_eq!(Platform::by_name(&p.name().to_uppercase()), Some(p));
        }
        assert_eq!(Platform::by_name("Ohm"), None);
    }

    #[test]
    fn channel_tech_assignment() {
        assert_eq!(Platform::Hetero.channel_tech(), ChannelTech::Electrical);
        assert_eq!(Platform::OhmBase.channel_tech(), ChannelTech::Optical);
        assert_eq!(Platform::Oracle.channel_tech(), ChannelTech::Optical);
    }

    #[test]
    fn heterogeneity() {
        assert!(!Platform::Origin.is_heterogeneous());
        assert!(!Platform::Oracle.is_heterogeneous());
        for p in [
            Platform::Hetero,
            Platform::OhmBase,
            Platform::AutoRw,
            Platform::OhmWom,
        ] {
            assert!(p.is_heterogeneous());
        }
    }

    #[test]
    fn capability_matrix_is_monotone() {
        // Each successive Ohm platform only adds capabilities.
        let base = Platform::OhmBase.migration_caps();
        let auto = Platform::AutoRw.migration_caps();
        let wom = Platform::OhmWom.migration_caps();
        assert!(!base.auto_rw && !base.swap && !base.reverse_write);
        assert!(auto.auto_rw && !auto.swap);
        assert!(wom.auto_rw && wom.swap && wom.reverse_write && wom.wom_coding);
        assert!(!Platform::OhmBw.migration_caps().wom_coding);
    }

    #[test]
    fn laser_scaling_matches_section6() {
        assert_eq!(Platform::OhmBase.laser_power_scale(), 1.0);
        assert_eq!(Platform::AutoRw.laser_power_scale(), 2.0);
        assert_eq!(Platform::OhmWom.laser_power_scale(), 2.0);
        assert_eq!(Platform::OhmBw.laser_power_scale(), 4.0);
        assert_eq!(Platform::Hetero.laser_power_scale(), 0.0);
    }
}
