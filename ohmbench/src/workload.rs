//! The four workloads and the cells each one simulates.
//!
//! Every input is derived from the workload seed, which goes into
//! `SystemConfig::builder().seed(..)`; nothing else varies between seeds.

use ohm_core::{OperationalMode, Platform, SystemConfig};
use ohm_sim::SplitMix64;
use ohm_workloads::{workload_by_name, WorkloadSpec};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Memory-bound graph kernels, planar mode, evaluation scale.
    EvalGraph,
    /// Compute-bound kernels, planar mode, evaluation scale, four seeds.
    EvalCompute,
    /// Streaming kernels with 30% writes, two-level mode.
    TwolevelWrites,
    /// A closed-loop client driving an in-process `ohm-serve` daemon.
    ServeSweep,
}

/// Seeds eval-compute runs per pass: one seed's grid is under a second
/// of host time, too short to time steadily on its own.
pub const COMPUTE_SEEDS: usize = 4;

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::EvalGraph,
        Workload::EvalCompute,
        Workload::TwolevelWrites,
        Workload::ServeSweep,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalGraph => "eval-graph",
            Workload::EvalCompute => "eval-compute",
            Workload::TwolevelWrites => "twolevel-writes",
            Workload::ServeSweep => "serve-sweep",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The mode, platform columns and workload rows of this workload's
    /// grid(s). serve-sweep has none of its own: it submits jobs built by
    /// [`crate::serve::SweepPlan`].
    pub fn shape(self) -> (OperationalMode, Vec<Platform>, Vec<&'static str>) {
        use Platform::*;
        match self {
            Workload::EvalGraph => (
                OperationalMode::Planar,
                vec![Hetero, OhmBase, OhmBw],
                vec!["pagerank", "betw", "bfsdata"],
            ),
            Workload::EvalCompute => (
                OperationalMode::Planar,
                vec![Origin, OhmBase, OhmBw],
                vec!["lud", "backp", "bfstopo"],
            ),
            Workload::TwolevelWrites => (
                OperationalMode::TwoLevel,
                vec![Hetero, OhmBase, OhmWom],
                vec!["GRAMS", "FDTD"],
            ),
            Workload::ServeSweep => (OperationalMode::Planar, Vec::new(), Vec::new()),
        }
    }

    /// The seeds this workload's grids use: the workload seed itself, or
    /// for eval-compute [`COMPUTE_SEEDS`] seeds derived from it.
    fn seeds(self, seed: u64) -> Vec<u64> {
        match self {
            Workload::EvalCompute => {
                let mut rng = SplitMix64::new(seed);
                (0..COMPUTE_SEEDS).map(|_| rng.next_u64()).collect()
            }
            _ => vec![seed],
        }
    }

    /// Builds this workload's grids at the evaluation configuration and
    /// footprint. Empty for serve-sweep.
    pub fn grids(self, seed: u64) -> Vec<Grid> {
        let (mode, platforms, names) = self.shape();
        if names.is_empty() {
            return Vec::new();
        }
        let footprint = SystemConfig::EVALUATION_FOOTPRINT;
        self.seeds(seed)
            .into_iter()
            .map(|s| Grid {
                cfg: SystemConfig::evaluation()
                    .to_builder()
                    .seed(s)
                    .footprint(footprint)
                    .build()
                    .expect("the evaluation configuration is valid"),
                mode,
                platforms: platforms.clone(),
                specs: names
                    .iter()
                    .map(|n| {
                        workload_by_name(n)
                            .expect("Table II workload")
                            .with_footprint(footprint)
                    })
                    .collect(),
            })
            .collect()
    }
}

/// One grid: every platform column over every workload row, in one mode
/// at one configuration.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Configuration shared by every cell.
    pub cfg: SystemConfig,
    /// Operational mode shared by every cell.
    pub mode: OperationalMode,
    /// Platform columns.
    pub platforms: Vec<Platform>,
    /// Workload rows.
    pub specs: Vec<WorkloadSpec>,
}

impl Grid {
    /// Cells in `GridRun`'s row-major order (workload-major), which is
    /// the order its digest is taken in.
    pub fn cells(&self) -> impl Iterator<Item = (Platform, &WorkloadSpec)> + '_ {
        self.specs
            .iter()
            .flat_map(move |s| self.platforms.iter().map(move |&p| (p, s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }

    #[test]
    fn the_seed_reaches_every_config() {
        let g = Workload::EvalGraph.grids(7);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].cfg.seed, 7);
        assert_eq!(g[0].cells().count(), 9);
        assert!(g[0]
            .specs
            .iter()
            .all(|s| s.footprint_bytes == SystemConfig::EVALUATION_FOOTPRINT));

        let c = Workload::EvalCompute.grids(7);
        assert_eq!(c.len(), COMPUTE_SEEDS);
        let seeds: Vec<u64> = c.iter().map(|g| g.cfg.seed).collect();
        assert_eq!(seeds, Workload::EvalCompute.seeds(7));
        assert_ne!(seeds, Workload::EvalCompute.seeds(8));
        assert!(Workload::ServeSweep.grids(7).is_empty());
    }

    #[test]
    fn cells_are_row_major() {
        let g = &Workload::TwolevelWrites.grids(1)[0];
        let cells: Vec<(Platform, &str)> = g.cells().map(|(p, s)| (p, s.name)).collect();
        assert_eq!(cells[0], (Platform::Hetero, "GRAMS"));
        assert_eq!(cells[2], (Platform::OhmWom, "GRAMS"));
        assert_eq!(cells[3], (Platform::Hetero, "FDTD"));
    }
}
