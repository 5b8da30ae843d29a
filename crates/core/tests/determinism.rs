//! Regression tests for the parallel harness: fanning simulation cells
//! out over worker threads must not change a single bit of any report.
//!
//! Every cell builds its own `System` from a cloned config, so the only
//! way parallelism could leak into results is shared state introduced by
//! accident — which is exactly what these tests guard against. They run
//! an explicit 4-thread pool (the host may expose fewer cores) against
//! the single-thread reference.

use ohm_core::config::SystemConfig;
use ohm_core::fault::{FaultPlan, LifecyclePlan};
use ohm_core::runner::GridRun;
use ohm_core::system::System;
use ohm_core::SimReport;
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

fn report_at(
    cfg: &SystemConfig,
    platform: Platform,
    workload: &str,
    threads: usize,
) -> (SimReport, bool) {
    let spec = workload_by_name(workload).unwrap();
    let mut sys = System::new(cfg, platform, OperationalMode::Planar, &spec);
    sys.set_cell_threads(threads);
    let report = sys.run();
    let engaged = sys.used_cell_parallelism();
    (report, engaged)
}

/// The intra-cell sharding contract (DESIGN.md §3.8): strict mode is
/// bit-identical to the serial event loop at every thread count — for a
/// plain cell, for an armed wear-out lifecycle that actively retires
/// lines mid-run (per-controller RNG state rides along with the shard),
/// and for an armed optical fault plan, which cannot be partitioned and
/// must fall back to the serial loop rather than approximate.
#[test]
fn cell_threads_strict_mode_is_bit_identical() {
    let plain = SystemConfig::quick_test();
    let mut lifecycle = SystemConfig::quick_test();
    lifecycle.lifecycle = Some(LifecyclePlan::accelerated(0x11FE, 4));
    let mut faulty = SystemConfig::quick_test();
    faulty.faults = Some(FaultPlan::at_severity(0xFA17, 0.75));
    for (name, cfg, platform, must_shard) in [
        ("plain", &plain, Platform::OhmBase, true),
        ("lifecycle", &lifecycle, Platform::OhmWom, true),
        ("faulty", &faulty, Platform::OhmBase, false),
    ] {
        let (reference, engaged) = report_at(cfg, platform, "pagerank", 1);
        assert!(!engaged, "{name}: one thread must run serially");
        for threads in [2, 8] {
            let (got, engaged) = report_at(cfg, platform, "pagerank", threads);
            assert_eq!(
                engaged, must_shard,
                "{name}@{threads}: unexpected scheduler choice"
            );
            assert_eq!(
                reference, got,
                "{name}@{threads}: strict mode diverged from serial"
            );
        }
    }
}

/// The Origin host model owns cross-controller staging state, so its
/// backend refuses to split and the run must fall back to serial (and
/// still match, trivially).
#[test]
fn origin_falls_back_to_serial() {
    let cfg = SystemConfig::quick_test();
    let (reference, _) = report_at(&cfg, Platform::Origin, "lud", 1);
    let (got, engaged) = report_at(&cfg, Platform::Origin, "lud", 4);
    assert!(!engaged, "origin must not shard");
    assert_eq!(reference, got);
}
