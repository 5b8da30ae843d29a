//! Golden `SimReport` snapshots — the bit-identity gate for hot-path
//! optimisations.
//!
//! Every cell here runs with a fixed seed and snapshots its report
//! through the checkpoint journal's codec
//! ([`encode_report`](ohm_core::checkpoint::encode_report)), which
//! covers every field and carries every `f64` as its exact bit
//! pattern, then compares against `tests/golden/simreports.txt`. Any
//! "optimisation" that changes a single bit of any field — timing,
//! energy, fault tallies, wear curves, stage histograms, phase rows —
//! fails the diff. The cells cover both memory modes, quiescent *and*
//! armed fault/lifecycle plans, one observability-enabled run so the
//! stage-recording path is pinned too, and one phase-structured run.
//!
//! To rebless after an intentional behaviour change:
//!
//! ```text
//! OHM_BLESS=1 cargo test -p ohm-core --test golden
//! ```
//!
//! and commit the rewritten snapshot with an explanation of why the
//! behaviour moved.

use ohm_core::checkpoint::encode_report;
use ohm_core::config::SystemConfig;
use ohm_core::fault::{FaultPlan, LifecyclePlan};
use ohm_core::metrics::SimReport;
use ohm_core::system::System;
use ohm_hetero::Platform;
use ohm_optic::OperationalMode;
use ohm_workloads::{workload_by_name, PhasePlan};

/// Seed for the armed plans (distinct from the config seed so the
/// streams visibly fork).
const PLAN_SEED: u64 = 0xA5;

struct GoldenCell {
    label: &'static str,
    platform: Platform,
    mode: OperationalMode,
    workload: &'static str,
    faults: Option<FaultPlan>,
    lifecycle: Option<LifecyclePlan>,
    phases: Option<PhasePlan>,
    observability: bool,
}

fn cells() -> Vec<GoldenCell> {
    vec![
        GoldenCell {
            label: "planar-plain",
            platform: Platform::OhmWom,
            mode: OperationalMode::Planar,
            workload: "pagerank",
            faults: None,
            lifecycle: None,
            phases: None,
            observability: false,
        },
        GoldenCell {
            label: "twolevel-plain",
            platform: Platform::OhmBase,
            mode: OperationalMode::TwoLevel,
            workload: "bfsdata",
            faults: None,
            lifecycle: None,
            phases: None,
            observability: false,
        },
        // Quiescent plans must stay bit-identical to plan-free runs in
        // every headline field; pinning them separately catches a fast
        // path that forgets the is-quiescent check.
        GoldenCell {
            label: "planar-quiescent-plans",
            platform: Platform::OhmWom,
            mode: OperationalMode::Planar,
            workload: "pagerank",
            faults: Some(FaultPlan::quiescent(PLAN_SEED)),
            lifecycle: Some(LifecyclePlan::quiescent(PLAN_SEED)),
            phases: None,
            observability: false,
        },
        GoldenCell {
            label: "planar-armed",
            platform: Platform::OhmBw,
            mode: OperationalMode::Planar,
            workload: "lud",
            faults: Some(FaultPlan::at_severity(PLAN_SEED, 0.7)),
            lifecycle: Some(LifecyclePlan::accelerated(PLAN_SEED, 2)),
            phases: None,
            observability: false,
        },
        GoldenCell {
            label: "twolevel-armed",
            platform: Platform::OhmBase,
            mode: OperationalMode::TwoLevel,
            workload: "gctopo",
            faults: Some(FaultPlan::at_severity(PLAN_SEED, 0.7)),
            lifecycle: Some(LifecyclePlan::accelerated(PLAN_SEED, 2)),
            phases: None,
            observability: false,
        },
        // Observability on: pins the stage-recording path (batched
        // drains must not change a histogram bucket).
        GoldenCell {
            label: "planar-observed",
            platform: Platform::OhmBase,
            mode: OperationalMode::Planar,
            workload: "FDTD",
            faults: None,
            lifecycle: None,
            phases: None,
            observability: true,
        },
        // A phase plan: pins the per-phase rows of `SimReport.phases`.
        GoldenCell {
            label: "twolevel-phased",
            platform: Platform::OhmWom,
            mode: OperationalMode::TwoLevel,
            workload: "gctopo",
            faults: None,
            lifecycle: None,
            phases: Some(PhasePlan::llm_inference()),
            observability: false,
        },
    ]
}

fn run_cell(cell: &GoldenCell) -> SimReport {
    let mut cfg = SystemConfig::quick_test();
    cfg.faults = cell.faults.clone();
    cfg.lifecycle = cell.lifecycle.clone();
    cfg.phases = cell.phases.clone();
    let spec = workload_by_name(cell.workload)
        .unwrap()
        .with_footprint(SystemConfig::EVALUATION_FOOTPRINT / 8);
    let mut sys = System::new(&cfg, cell.platform, cell.mode, &spec);
    if cell.observability {
        sys.enable_observability();
    }
    sys.run()
}

fn cell(label: &str) -> GoldenCell {
    cells().into_iter().find(|c| c.label == label).unwrap()
}

#[test]
fn reports_match_golden_snapshots() {
    let mut digest = String::new();
    for cell in cells() {
        digest.push_str(&format!("[{}]\n", cell.label));
        digest.push_str(&encode_report(&run_cell(&cell)));
        digest.push('\n');
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/simreports.txt");
    if std::env::var("OHM_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, &digest).unwrap();
        eprintln!("blessed {path}");
        return;
    }

    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {path} ({e}); run with OHM_BLESS=1"));
    if digest != golden {
        let mismatch = digest
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((i, (got, want))) => panic!(
                "SimReport drifted from golden snapshot at line {}:\n  golden: {want}\n  \
                 got:    {got}\nIf the change is intentional, rebless with OHM_BLESS=1 \
                 and explain the behaviour change in the commit.",
                i + 1
            ),
            None => panic!(
                "SimReport digest length changed ({} vs {} golden lines); rebless with \
                 OHM_BLESS=1 if intentional",
                digest.lines().count(),
                golden.lines().count()
            ),
        }
    }
}

#[test]
fn armed_cells_actually_exercise_the_plans() {
    // The golden file only gates what the runs *produce*; this guards
    // what they *cover* — if a future change makes the armed plans
    // no-ops, the snapshots would still match while the bit-identity
    // gate silently stopped covering the fault/lifecycle paths.
    let report = run_cell(&cell("planar-armed"));
    let faults = report.faults.expect("fault plan armed");
    let wear = report.wear.expect("lifecycle plan armed");
    assert!(
        faults.total_recoveries() > 0,
        "armed fault plan injected nothing: {faults:?}"
    );
    assert!(
        wear.ecc_corrected + wear.retired_lines > 0,
        "armed lifecycle plan aged nothing: {wear:?}"
    );
}

#[test]
fn phased_cell_actually_pins_phase_rows() {
    // Same guard for the phase plan: every phase of the plan must have
    // issued work and reached memory, or the snapshot pins empty rows.
    let plan = PhasePlan::llm_inference();
    let report = run_cell(&cell("twolevel-phased"));
    let summary = report.phases.expect("phase plan set");
    assert_eq!(summary.phases.len(), plan.phases.len());
    for row in &summary.phases {
        assert!(
            row.instructions > 0 && row.mem_requests > 0,
            "phase {} did no work: {row:?}",
            row.name
        );
    }
}
