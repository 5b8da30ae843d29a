//! Observability guarantees: enabling the stage/trace sinks must never
//! change simulated results, and the Chrome-trace export must be valid
//! trace-event JSON.

use ohm_core::config::SystemConfig;
use ohm_core::system::System;
use ohm_hetero::Platform;
use ohm_optic::OperationalMode;
use ohm_workloads::workload_by_name;

fn cell(platform: Platform, mode: OperationalMode, workload: &str, observe: bool) -> System {
    let cfg = SystemConfig::quick_test();
    let spec = workload_by_name(workload).unwrap();
    let mut sys = System::new(&cfg, platform, mode, &spec);
    if observe {
        sys.enable_observability();
    }
    sys
}

/// Turning the sinks on must not perturb a single simulated number:
/// the reports differ only in the `stages` summary itself.
#[test]
fn enabling_observability_is_timing_neutral() {
    for (platform, mode) in [
        (Platform::OhmBase, OperationalMode::Planar),
        (Platform::OhmWom, OperationalMode::Planar),
        (Platform::Hetero, OperationalMode::TwoLevel),
        (Platform::Origin, OperationalMode::Planar),
    ] {
        let baseline = cell(platform, mode, "pagerank", false).run();
        let mut observed = cell(platform, mode, "pagerank", true).run();
        assert!(baseline.stages.is_none());
        let stages = observed
            .stages
            .take()
            .unwrap_or_else(|| panic!("{platform:?}: observability enabled but no stage summary"));
        // Every migration (planar swap or two-level fill) records exactly
        // one migration-stage interval.
        let migration = stages
            .stages
            .iter()
            .find(|s| s.name == "migration")
            .expect("migration stage row");
        assert_eq!(
            migration.count, observed.migrations,
            "{platform:?}/{mode:?}: migration stage count"
        );
        assert_eq!(
            baseline, observed,
            "{platform:?}/{mode:?}: observability changed simulated results"
        );
    }
}

#[test]
fn stage_summary_covers_the_request_path() {
    let mut sys = cell(Platform::OhmBase, OperationalMode::Planar, "bfsdata", true);
    let report = sys.run();
    let summary = report.stages.expect("enabled");
    let by_name = |name: &str| {
        summary
            .stages
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing stage row {name}"))
    };
    // A heterogeneous planar run exercises every stage.
    for name in [
        "l1-hit",
        "l2-hit",
        "ctrl-queue",
        "channel-xfer",
        "dram-access",
        "xpoint-access",
        "migration",
    ] {
        let row = by_name(name);
        assert!(row.count > 0, "{name}: no samples recorded");
        assert!(row.mean_ns.is_finite() && row.mean_ns >= 0.0);
        assert!(row.p50_ns <= row.p99_ns, "{name}: p50 > p99");
    }
    assert!(!summary.utilization.is_empty());
    for util in &summary.utilization {
        assert!(
            (0.0..=1.0).contains(&util.mean_utilization),
            "{}: mean utilization {} out of range",
            util.name,
            util.mean_utilization
        );
        assert!((0.0..=1.0).contains(&util.peak_utilization));
    }
    let table = summary.format_table();
    assert!(table.contains("xpoint-access"));
    assert!(table.contains("peak_util"));
}

/// The export is Chrome trace-event JSON: an object with a
/// `traceEvents` array of "X" (complete) spans carrying `ts`/`dur`/
/// `pid`/`tid`, plus "M" metadata naming the tracks.
#[test]
fn chrome_trace_has_trace_event_shape() {
    let mut sys = cell(Platform::OhmBase, OperationalMode::Planar, "pagerank", true);
    sys.run();
    let json = sys.chrome_trace().expect("enabled");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("}\n") || json.ends_with('}'));
    for needle in [
        "\"ph\":\"X\"",
        "\"ts\":",
        "\"dur\":",
        "\"pid\":",
        "\"tid\":",
        "\"ph\":\"M\"",
        "\"name\":\"thread_name\"",
        "\"name\":\"process_name\"",
        "\"displayTimeUnit\":\"ns\"",
    ] {
        assert!(json.contains(needle), "trace JSON missing {needle}");
    }
    // Stage spans and channel spans both land in the trace.
    assert!(json.contains("\"name\":\"l1-hit\""));
    assert!(json.contains("\"name\":\"dram-access\""));
    assert!(json.contains("data-route"));
    // Balanced brackets — cheap structural check without a JSON parser.
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "unbalanced braces in trace JSON");
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

/// Without `enable_observability` the trace hook reports nothing and
/// the report omits the stage summary — the zero-overhead default.
#[test]
fn disabled_sinks_produce_no_trace() {
    let mut sys = cell(
        Platform::OhmBase,
        OperationalMode::Planar,
        "pagerank",
        false,
    );
    let report = sys.run();
    assert!(report.stages.is_none());
    assert!(sys.chrome_trace().is_none());
}

/// `report()` and `chrome_trace()` both drain the fabric's interval log;
/// calling them in either order must not double-count or lose spans.
#[test]
fn trace_after_report_still_contains_channel_spans() {
    let mut sys = cell(Platform::OhmBase, OperationalMode::Planar, "pagerank", true);
    let report = sys.run(); // report() drains intervals into the collector
    let json = sys.chrome_trace().expect("enabled");
    assert!(json.contains("data-route"));
    let summary = report.stages.expect("enabled");
    let xfer = summary
        .stages
        .iter()
        .find(|s| s.name == "channel-xfer")
        .unwrap();
    assert!(xfer.count > 0);
}
