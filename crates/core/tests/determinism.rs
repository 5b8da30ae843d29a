//! Regression tests for the parallel harness: fanning simulation cells
//! out over worker threads must not change a single bit of any report.
//!
//! Every cell builds its own `System` from a cloned config, so the only
//! way parallelism could leak into results is shared state introduced by
//! accident — which is exactly what these tests guard against. They run
//! an explicit 4-thread pool (the host may expose fewer cores) against
//! the single-thread reference.

use ohm_core::config::SystemConfig;
use ohm_core::runner::GridRun;
use ohm_hetero::Platform;
use ohm_optic::OperationalMode;
use ohm_workloads::workload_by_name;

const PLATFORMS: [Platform; 4] = [
    Platform::Hetero,
    Platform::OhmBase,
    Platform::AutoRw,
    Platform::OhmWom,
];
const WORKLOADS: [&str; 4] = ["lud", "pagerank", "bfsdata", "FDTD"];

#[test]
fn parallel_grid_matches_serial_bit_for_bit() {
    let cfg = SystemConfig::quick_test();
    let specs: Vec<_> = WORKLOADS
        .iter()
        .map(|w| workload_by_name(w).unwrap())
        .collect();
    for mode in [OperationalMode::Planar, OperationalMode::TwoLevel] {
        let serial = GridRun::serial().run(&cfg, &PLATFORMS, mode, &specs).rows;
        let threaded = GridRun::new()
            .threads(4)
            .run(&cfg, &PLATFORMS, mode, &specs)
            .rows;
        assert_eq!(
            serial, threaded,
            "thread count changed {mode:?} grid results"
        );
        // Shape sanity: results[workload][platform] in input order.
        assert_eq!(threaded.len(), WORKLOADS.len());
        for (row, spec) in threaded.iter().zip(&specs) {
            assert_eq!(row.len(), PLATFORMS.len());
            for (report, &platform) in row.iter().zip(&PLATFORMS) {
                assert_eq!(report.workload, spec.name);
                assert_eq!(report.platform, platform);
            }
        }
    }
}

#[test]
fn parallel_grid_is_stable_across_thread_counts() {
    // An odd worker count that does not divide the cell count exercises
    // the index-scatter path; the results must still be identical.
    let cfg = SystemConfig::quick_test();
    let specs: Vec<_> = WORKLOADS
        .iter()
        .map(|w| workload_by_name(w).unwrap())
        .collect();
    let reference = GridRun::serial()
        .run(&cfg, &PLATFORMS, OperationalMode::Planar, &specs)
        .rows;
    for threads in [2, 3, 5] {
        let got = GridRun::new()
            .threads(threads)
            .run(&cfg, &PLATFORMS, OperationalMode::Planar, &specs)
            .rows;
        assert_eq!(reference, got, "{threads} threads diverged from serial");
    }
}
