//! Crash-recovery and fault-isolation integration tests for the
//! durable sweep layer (DESIGN.md §3.10).
//!
//! The headline scenario: a checkpointed grid is killed mid-write (a
//! torn tail record, exactly what `SIGKILL` leaves behind), reopened,
//! and resumed — and the resumed `GridResult` must be bit-identical
//! (golden content digest) to an uninterrupted run's, with the
//! journalled cells replayed rather than re-simulated.

use ohm_core::config::SystemConfig;
use ohm_core::runner::{CellOutcome, GridRun};
use ohm_core::Journal;
use ohm_hetero::Platform;
use ohm_optic::OperationalMode;
use ohm_workloads::{workload_by_name, WorkloadSpec};

/// Tier-1-speed grid inputs: two platforms × two workloads at the
/// golden-test footprint.
fn grid_inputs() -> (SystemConfig, Vec<Platform>, Vec<WorkloadSpec>) {
    let cfg = SystemConfig::quick_test();
    let platforms = vec![Platform::OhmBase, Platform::Hetero];
    let specs = ["lud", "pagerank"]
        .into_iter()
        .map(|name| {
            workload_by_name(name)
                .unwrap()
                .with_footprint(SystemConfig::EVALUATION_FOOTPRINT / 8)
        })
        .collect();
    (cfg, platforms, specs)
}

fn scratch_journal(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ohm-checkpoint-it-{}-{name}.ohmj",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn kill_resume_is_bit_identical_to_uninterrupted_run() {
    let (cfg, platforms, specs) = grid_inputs();
    let path = scratch_journal("kill-resume");

    // The golden reference: an uninterrupted, checkpoint-free run.
    let fresh = GridRun::serial().run(&cfg, &platforms, OperationalMode::Planar, &specs);
    let golden = fresh.digest();
    assert!(fresh.outcomes.iter().all(|o| *o == CellOutcome::Completed));

    // First checkpointed run: journals every cell, digest already equal.
    let first =
        GridRun::serial()
            .checkpoint(&path)
            .run(&cfg, &platforms, OperationalMode::Planar, &specs);
    assert_eq!(first.digest(), golden, "checkpointing perturbed results");

    // "SIGKILL mid-write": tear the journal inside its final record.
    let bytes = std::fs::read(&path).expect("journal exists");
    std::fs::write(&path, &bytes[..bytes.len() - 37]).unwrap();

    // Resume. The torn cell must be re-simulated, the intact ones
    // replayed, and the result bit-identical to the golden run.
    let resumed =
        GridRun::serial()
            .checkpoint(&path)
            .run(&cfg, &platforms, OperationalMode::Planar, &specs);
    assert_eq!(
        resumed.digest(),
        golden,
        "resumed run diverged from the uninterrupted reference"
    );
    let cached = resumed
        .outcomes
        .iter()
        .filter(|o| **o == CellOutcome::Cached)
        .count();
    let completed = resumed
        .outcomes
        .iter()
        .filter(|o| **o == CellOutcome::Completed)
        .count();
    assert!(cached >= 1, "no cell was replayed from the journal");
    assert!(completed >= 1, "the torn cell was not re-simulated");
    assert_eq!(cached + completed, resumed.outcomes.len());

    // After the resume the journal is whole again: a third run replays
    // everything.
    let third =
        GridRun::serial()
            .checkpoint(&path)
            .run(&cfg, &platforms, OperationalMode::Planar, &specs);
    assert_eq!(third.digest(), golden);
    assert!(third.outcomes.iter().all(|o| *o == CellOutcome::Cached));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_ignores_harness_knobs_but_not_config() {
    let (cfg, platforms, specs) = grid_inputs();
    let path = scratch_journal("knobs");

    let first =
        GridRun::serial()
            .checkpoint(&path)
            .run(&cfg, &platforms, OperationalMode::Planar, &specs);

    // Worker counts and profiling are harness knobs — strict-mode
    // results are bit-identical across them, so they are deliberately
    // outside the cell key and the journal still hits.
    let resumed = GridRun::new()
        .threads(2)
        .profile(true)
        .checkpoint(&path)
        .run(&cfg, &platforms, OperationalMode::Planar, &specs);
    assert_eq!(resumed.digest(), first.digest());
    assert!(resumed.outcomes.iter().all(|o| *o == CellOutcome::Cached));

    // A config change invalidates every cell.
    let mut other = cfg.clone();
    other.seed ^= 1;
    let other_run = GridRun::serial().checkpoint(&path).run(
        &other,
        &platforms,
        OperationalMode::Planar,
        &specs,
    );
    assert!(
        other_run
            .outcomes
            .iter()
            .all(|o| *o == CellOutcome::Completed),
        "a changed config must not hit the cache"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn repeated_cells_simulate_once_and_read_cached() {
    let (cfg, _, specs) = grid_inputs();
    let platforms = [Platform::OhmBase];
    let repeated = vec![specs[0], specs[1], specs[0]];
    let path = scratch_journal("repeated");

    let result = GridRun::new().threads(2).checkpoint(&path).run(
        &cfg,
        &platforms,
        OperationalMode::Planar,
        &repeated,
    );
    assert_eq!(
        result.outcomes,
        [
            CellOutcome::Completed,
            CellOutcome::Completed,
            CellOutcome::Cached
        ],
        "the repeated cell must park behind its first occurrence"
    );
    // One `REC` per unique key.
    let journal = std::fs::read_to_string(&path).unwrap();
    assert_eq!(journal.lines().filter(|l| l.starts_with("REC ")).count(), 2);
    // Coalescing is invisible in the results, and a run without a
    // journal resolves the repeat the same way.
    let plain = GridRun::serial().run(&cfg, &platforms, OperationalMode::Planar, &repeated);
    assert_eq!(result.digest(), plain.digest());
    assert_eq!(plain.outcomes, result.outcomes);

    let _ = std::fs::remove_file(&path);
}

/// A workload whose footprint is not a whole number of pages —
/// `System::new` rejects it with a deterministic panic, the test
/// vehicle for quarantine.
fn poison_spec() -> WorkloadSpec {
    workload_by_name("lud").unwrap().with_footprint(4096 + 128)
}

#[test]
fn quarantined_cell_does_not_abort_isolated_grid() {
    let (cfg, _, mut specs) = grid_inputs();
    specs.insert(1, poison_spec()); // [good, poison, good]
    let platforms = [Platform::OhmBase];

    let result =
        GridRun::serial()
            .isolate(true)
            .run(&cfg, &platforms, OperationalMode::Planar, &specs);

    assert_eq!(result.rows.len(), 3, "grid shape must survive quarantine");
    assert_eq!(result.outcomes.len(), 3);
    assert_eq!(result.outcomes[0], CellOutcome::Completed);
    assert_eq!(result.outcomes[2], CellOutcome::Completed);
    let e = match &result.outcomes[1] {
        CellOutcome::Quarantined(e) => e,
        other => panic!("expected quarantine, got {other:?}"),
    };
    assert_eq!(e.index, 1);
    assert!(e.payload.contains("footprint"), "{e}");
    assert_eq!(result.failures().count(), 1);

    // The quarantined slot is a zeroed placeholder, not a report.
    assert_eq!(result.rows[1][0].ipc, 0.0);
    assert_eq!(result.rows[1][0].instructions, 0);
    // Healthy neighbours are bit-identical to a strict run of theirs.
    let healthy: Vec<WorkloadSpec> = vec![specs[0], specs[2]];
    let reference = GridRun::serial().run(&cfg, &platforms, OperationalMode::Planar, &healthy);
    assert_eq!(result.rows[0][0], reference.rows[0][0]);
    assert_eq!(result.rows[2][0], reference.rows[1][0]);
}

#[test]
fn strict_mode_still_rethrows() {
    let (cfg, _, mut specs) = grid_inputs();
    specs[0] = poison_spec();
    let platforms = [Platform::OhmBase];
    let panicked = std::panic::catch_unwind(|| {
        GridRun::serial().run(&cfg, &platforms, OperationalMode::Planar, &specs)
    });
    assert!(
        panicked.is_err(),
        "strict mode must preserve the rethrow contract"
    );
}

#[test]
fn isolated_checkpoint_journals_only_completed_cells() {
    let (cfg, _, mut specs) = grid_inputs();
    // The poison cell twice: its repeat is quarantined with it.
    specs.extend([poison_spec(), poison_spec()]);
    let platforms = [Platform::OhmBase];
    let path = scratch_journal("quarantine");

    let result = GridRun::serial().isolate(true).checkpoint(&path).run(
        &cfg,
        &platforms,
        OperationalMode::Planar,
        &specs,
    );
    let failed: Vec<usize> = result.failures().map(|e| e.index).collect();
    assert_eq!(failed, [specs.len() - 2, specs.len() - 1]);

    // Quarantined cells must never be journalled as results.
    let journal = Journal::open(&path).unwrap();
    assert_eq!(journal.len(), specs.len() - 2);

    // A resume replays the healthy cells and re-attempts the poison one
    // (it is not silently dropped).
    let resumed = GridRun::serial().isolate(true).checkpoint(&path).run(
        &cfg,
        &platforms,
        OperationalMode::Planar,
        &specs,
    );
    assert_eq!(
        resumed
            .outcomes
            .iter()
            .filter(|o| **o == CellOutcome::Cached)
            .count(),
        specs.len() - 2
    );
    assert_eq!(resumed.failures().count(), 2);
    assert_eq!(resumed.digest(), result.digest());

    let _ = std::fs::remove_file(&path);
}
