//! Simulation-throughput baseline — events/sec over the tier-1 grid.
//!
//! Not a paper figure: this harness measures the *simulator itself*.
//! It runs the tier-1 grid (quick-test configuration, the ten Table II
//! workloads at the tier-1 footprint, all seven platforms, planar mode)
//! with per-cell wall-clock profiling, and writes the result as
//! `BENCH_throughput.json` — the committed perf trajectory of the repo.
//!
//! ```text
//! perf_baseline [--smoke] [--reps N] [--out PATH] [--no-compare]
//!               [--footprint LIST]
//! ```
//!
//! Cells run serially (the grid runner's `threads = 1`) so per-cell wall
//! clocks are not polluted by core contention; each cell keeps the best
//! (fastest) of `--reps` repetitions. `--smoke` shrinks the grid to a
//! 3 platform × 2 workload corner with one repetition for CI.
//!
//! `--footprint 256M,1G,4G,16G` additionally sweeps a small fixed grid
//! across workload footprints, recording geomean events/sec *and* the
//! process peak RSS after each point — the committed evidence that
//! simulation throughput and resident memory are footprint-independent
//! (the memory stack stores its state sparsely, DESIGN.md §3.7). Full
//! runs sweep that default list even without the flag; smoke runs sweep
//! only what the flag names. Points run in ascending footprint order
//! because `VmHWM` is a monotonic high-water mark: a flat `peak_rss_kb`
//! column across ascending points is exactly the bounded-memory claim.
//!
//! If a previous baseline already exists at the output path, the new
//! measurement is compared against it cell-by-cell (matched on
//! platform × workload, so a smoke run compares only the cells it ran)
//! before the file is rewritten. A >20% geomean regression prints a
//! GitHub `::warning::` annotation — advisory, never an exit failure,
//! because shared CI runners are noisy.
//!
//! See DESIGN.md §3.6 for the format and the rebaselining procedure.

use std::time::Duration;

use ohm_core::config::SystemConfig;
use ohm_core::json::escape_json;
use ohm_core::runner::{self, CellProfile, GridRun};
use ohm_hetero::Platform;
use ohm_optic::OperationalMode;
use ohm_workloads::{all_workloads, WorkloadSpec};

/// Regression threshold for the advisory CI warning.
const REGRESSION_WARN: f64 = 0.20;

/// Geomean events/sec of the tier-1 grid measured at the
/// pre-optimisation seed (commit 23a125a) on the reference dev host —
/// the denominator of the JSON's `speedup_vs_reference` field. The
/// number is host-specific: update it alongside the committed baseline
/// when rebaselining on new hardware (DESIGN.md §3.6).
const PRE_OPT_GEOMEAN: f64 = 10.69e6;

/// Footprints a full (non-smoke) run sweeps when `--footprint` is not
/// given: tier-1's 256 MiB up to the tens-of-GiB regime the sparse
/// memory-system state exists for.
const DEFAULT_FOOTPRINTS: &str = "256M,1G,4G,16G";

/// Advisory threshold for the footprint sweep: warn when throughput at a
/// larger footprint drops below this fraction of the smallest point's
/// (footprint-independent simulation should stay roughly flat).
const FOOTPRINT_WARN_FRACTION: f64 = 0.5;

struct Args {
    smoke: bool,
    reps: usize,
    out: String,
    compare: bool,
    /// Footprint sweep points in bytes (ascending); empty to skip.
    footprints: Vec<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf_baseline [--smoke] [--reps N] [--out PATH] [--no-compare] \
         [--footprint LIST]  (LIST e.g. 256M,1G,16G)"
    );
    std::process::exit(2);
}

/// Parses a size with an optional K/M/G suffix (`256M`, `16G`, `4096`).
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.char_indices().find(|(_, c)| !c.is_ascii_digit()) {
        None => (s, 1u64),
        Some((i, _)) => {
            let mult = match s[i..].to_ascii_uppercase().as_str() {
                "K" | "KIB" => 1u64 << 10,
                "M" | "MIB" => 1 << 20,
                "G" | "GIB" => 1 << 30,
                _ => return None,
            };
            (&s[..i], mult)
        }
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

fn parse_footprint_list(list: &str) -> Option<Vec<u64>> {
    let mut points = list
        .split(',')
        .map(parse_size)
        .collect::<Option<Vec<u64>>>()?;
    points.sort_unstable();
    points.dedup();
    Some(points)
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        reps: 3,
        out: "BENCH_throughput.json".to_string(),
        compare: true,
        footprints: Vec::new(),
    };
    let mut explicit_footprints = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--no-compare" => args.compare = false,
            "--reps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => args.reps = n,
                _ => usage(),
            },
            "--out" => match it.next() {
                Some(p) => args.out = p,
                None => usage(),
            },
            "--footprint" => match it.next().as_deref().and_then(parse_footprint_list) {
                Some(points) => {
                    args.footprints = points;
                    explicit_footprints = true;
                }
                None => usage(),
            },
            _ => usage(),
        }
    }
    if args.smoke {
        args.reps = 1;
    }
    if !args.smoke && !explicit_footprints {
        args.footprints = parse_footprint_list(DEFAULT_FOOTPRINTS).unwrap();
    }
    let cfg = SystemConfig::quick_test();
    for &f in &args.footprints {
        if let Err(e) = cfg.validate_footprint(f) {
            eprintln!("perf_baseline: {e}");
            usage();
        }
    }
    args
}

/// The tier-1 grid: quick-test configuration at the integration-test
/// footprint (half the evaluation footprint, as `tests/platform_chain.rs`
/// uses), planar mode.
fn tier1_specs() -> Vec<WorkloadSpec> {
    all_workloads()
        .into_iter()
        .map(|w| w.with_footprint(SystemConfig::EVALUATION_FOOTPRINT / 2))
        .collect()
}

fn measured_grid(smoke: bool) -> (Vec<Platform>, Vec<WorkloadSpec>) {
    let specs = tier1_specs();
    if smoke {
        let platforms = vec![Platform::Hetero, Platform::OhmBase, Platform::OhmBw];
        let specs = specs
            .into_iter()
            .filter(|s| s.name == "lud" || s.name == "pagerank")
            .collect();
        (platforms, specs)
    } else {
        (Platform::ALL.to_vec(), specs)
    }
}

/// One measured cell: best-of-reps wall clock and the derived rate.
struct Cell {
    platform: &'static str,
    workload: String,
    events: u64,
    wall: Duration,
    events_per_sec: f64,
}

/// Measures the grid `reps` times; returns each cell's best rep.
fn measure(platforms: &[Platform], specs: &[WorkloadSpec], reps: usize) -> Vec<Cell> {
    let cfg = SystemConfig::quick_test();
    let mut best: Vec<Option<CellProfile>> = vec![None; platforms.len() * specs.len()];
    for rep in 0..reps {
        let result =
            GridRun::serial()
                .profile(true)
                .run(&cfg, platforms, OperationalMode::Planar, specs);
        let profiles = result.profiles.expect("profiling was requested");
        for (slot, p) in best.iter_mut().zip(profiles) {
            let faster = slot.as_ref().is_none_or(|b| p.wall < b.wall);
            if faster {
                *slot = Some(p);
            }
        }
        eprintln!("rep {}/{} done", rep + 1, reps);
    }
    best.into_iter()
        .map(|p| {
            let p = p.expect("every cell measured");
            let events = (p.events_per_sec * p.wall.as_secs_f64()).round() as u64;
            Cell {
                platform: p.platform.name(),
                workload: p.workload,
                events,
                wall: p.wall,
                events_per_sec: p.events_per_sec,
            }
        })
        .collect()
}

/// One measured footprint-sweep point.
struct FootprintPoint {
    bytes: u64,
    geomean_events_per_sec: f64,
    /// Process peak RSS (`VmHWM`) after the point completed, in KiB.
    /// Monotonic across the sweep — see the module docs. 0 when the
    /// platform exposes no `/proc/self/status`.
    peak_rss_kb: u64,
}

/// Human label for a footprint byte count (`256M`, `16G`, `1536K`, ...).
fn size_label(bytes: u64) -> String {
    for (shift, suffix) in [(30u32, "G"), (20, "M"), (10, "K")] {
        if bytes >= 1 << shift && bytes.is_multiple_of(1 << shift) {
            return format!("{}{suffix}", bytes >> shift);
        }
    }
    format!("{bytes}")
}

/// The process's peak resident set size (`VmHWM`) in KiB; 0 where
/// `/proc/self/status` is unavailable (non-Linux hosts).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Counts the CPUs in a `/sys/devices/system/cpu/online` range list
/// (`0-11`, `0,2-5`, ...).
fn count_cpu_list(list: &str) -> Option<u64> {
    let mut n = 0u64;
    for part in list.trim().split(',') {
        match part.split_once('-') {
            None => {
                part.parse::<u64>().ok()?;
                n += 1;
            }
            Some((lo, hi)) => {
                let (lo, hi): (u64, u64) = (lo.parse().ok()?, hi.parse().ok()?);
                n += hi.checked_sub(lo)? + 1;
            }
        }
    }
    Some(n)
}

/// CPUs physically online on the machine, regardless of this process's
/// affinity mask. Falls back to the affinity-visible count where sysfs
/// is unavailable. Recorded separately from `cpus_available` because CI
/// containers routinely pin the process to a subset (historically this
/// file claimed `"cpus": 1` on a many-core machine).
fn online_cpus() -> u64 {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .ok()
        .and_then(|s| count_cpu_list(&s))
        .unwrap_or_else(available_cpus)
}

/// CPUs this process may schedule on (its affinity mask) — what the
/// serial measurement actually had available.
fn available_cpus() -> u64 {
    std::thread::available_parallelism().map_or(0, |n| n.get() as u64)
}

/// Runs the footprint sweep: a small fixed grid (the smoke corner) per
/// point, one rep, ascending footprints.
fn measure_footprints(points: &[u64]) -> Vec<FootprintPoint> {
    let cfg = SystemConfig::quick_test();
    let platforms = [Platform::Hetero, Platform::OhmBase, Platform::OhmBw];
    points
        .iter()
        .map(|&bytes| {
            let specs: Vec<WorkloadSpec> = all_workloads()
                .into_iter()
                .filter(|s| s.name == "lud" || s.name == "pagerank")
                .map(|w| w.with_footprint(bytes))
                .collect();
            let result = GridRun::serial().profile(true).run(
                &cfg,
                &platforms,
                OperationalMode::Planar,
                &specs,
            );
            let profiles = result.profiles.expect("profiling was requested");
            let rates: Vec<f64> = profiles.iter().map(|p| p.events_per_sec).collect();
            let point = FootprintPoint {
                bytes,
                geomean_events_per_sec: runner::geomean(&rates),
                peak_rss_kb: peak_rss_kb(),
            };
            eprintln!(
                "footprint {}: geomean {:.0} events/sec, peak rss {} kB",
                size_label(bytes),
                point.geomean_events_per_sec,
                point.peak_rss_kb
            );
            point
        })
        .collect()
}

/// Renders the measurement as the committed JSON document (hand-rolled,
/// like `trace.rs`: the workspace is dependency-free). One cell per line
/// with a fixed key order — `parse_baseline` below relies on that shape.
/// Free-form strings (host facts, workload names) go through
/// [`escape_json`] so an exotic value cannot corrupt the document.
fn render_json(cells: &[Cell], footprints: &[FootprintPoint], reps: usize, geomean: f64) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 2,\n");
    let _ = writeln!(
        out,
        "  \"grid\": \"quick_test x Table II (256 MiB footprint) x Planar, serial cells\","
    );
    let _ = writeln!(
        out,
        "  \"host\": {{ \"os\": \"{}\", \"arch\": \"{}\", \"cpus_available\": {}, \
         \"cpus_online\": {} }},",
        escape_json(std::env::consts::OS),
        escape_json(std::env::consts::ARCH),
        available_cpus(),
        online_cpus()
    );
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(out, "  \"geomean_events_per_sec\": {geomean:.1},");
    let _ = writeln!(
        out,
        "  \"reference\": {{ \"label\": \"pre-optimisation seed (23a125a)\", \
         \"geomean_events_per_sec\": {PRE_OPT_GEOMEAN:.1}, \
         \"speedup_vs_reference\": {:.3} }},",
        geomean / PRE_OPT_GEOMEAN
    );
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"platform\": \"{}\", \"workload\": \"{}\", \"events\": {}, \
             \"wall_ms\": {:.3}, \"events_per_sec\": {:.1} }}",
            escape_json(c.platform),
            escape_json(&c.workload),
            c.events,
            c.wall.as_secs_f64() * 1e3,
            c.events_per_sec
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    if footprints.is_empty() {
        out.push_str("  ]\n}\n");
        return out;
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"footprint_grid\": \"quick_test x {{lud, pagerank}} x {{Hetero, Ohm-base, \
         Ohm-bw}} x Planar, serial cells, 1 rep; peak_rss_kb is the process VmHWM after \
         the point (monotonic across the ascending sweep)\","
    );
    out.push_str("  \"footprints\": [\n");
    for (i, p) in footprints.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"footprint\": \"{}\", \"bytes\": {}, \"geomean_events_per_sec\": {:.1}, \
             \"peak_rss_kb\": {} }}",
            size_label(p.bytes),
            p.bytes,
            p.geomean_events_per_sec,
            p.peak_rss_kb
        );
        out.push_str(if i + 1 < footprints.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts `(platform, workload) -> events_per_sec` from a baseline
/// file previously written by `render_json` (line-oriented scan; no JSON
/// dependency in the workspace).
fn parse_baseline(text: &str) -> Vec<(String, String, f64)> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let pat = format!("\"{key}\": ");
        let start = line.find(&pat)? + pat.len();
        let rest = &line[start..];
        let rest = rest.strip_prefix('"').unwrap_or(rest);
        let end = rest.find(['"', ',', ' ', '}']).unwrap_or(rest.len());
        Some(&rest[..end])
    }
    text.lines()
        .filter(|l| l.contains("\"platform\"") && l.contains("\"events_per_sec\""))
        .filter_map(|l| {
            let p = field(l, "platform")?.to_string();
            let w = field(l, "workload")?.to_string();
            let eps: f64 = field(l, "events_per_sec")?.parse().ok()?;
            Some((p, w, eps))
        })
        .collect()
}

/// Compares the new cells against a prior baseline over the matched
/// subset, returning `(speedup, matched_cells)`.
fn compare(cells: &[Cell], baseline: &[(String, String, f64)]) -> Option<(f64, usize)> {
    let ratios: Vec<f64> = cells
        .iter()
        .filter_map(|c| {
            baseline
                .iter()
                .find(|(p, w, _)| p == c.platform && w == &c.workload)
                .map(|(_, _, base)| c.events_per_sec / base.max(1e-9))
        })
        .collect();
    if ratios.is_empty() {
        None
    } else {
        Some((runner::geomean(&ratios), ratios.len()))
    }
}

fn main() {
    let args = parse_args();
    let (platforms, specs) = measured_grid(args.smoke);
    eprintln!(
        "perf_baseline: {} platforms x {} workloads, {} rep(s){}",
        platforms.len(),
        specs.len(),
        args.reps,
        if args.smoke { " (smoke)" } else { "" }
    );

    let cells = measure(&platforms, &specs, args.reps);
    let rates: Vec<f64> = cells.iter().map(|c| c.events_per_sec).collect();
    let geomean = runner::geomean(&rates);

    println!(
        "{:<10} {:<10} {:>10} {:>10} {:>14}",
        "platform", "workload", "events", "wall_ms", "events/sec"
    );
    for c in &cells {
        println!(
            "{:<10} {:<10} {:>10} {:>10.3} {:>14.0}",
            c.platform,
            c.workload,
            c.events,
            c.wall.as_secs_f64() * 1e3,
            c.events_per_sec
        );
    }
    println!("geomean events/sec: {geomean:.0}");

    if args.compare {
        if let Ok(prev) = std::fs::read_to_string(&args.out) {
            match compare(&cells, &parse_baseline(&prev)) {
                Some((speedup, n)) => {
                    println!("vs committed baseline ({n} matched cells): {speedup:.3}x");
                    if speedup < 1.0 - REGRESSION_WARN {
                        println!(
                            "::warning title=perf regression::geomean events/sec is \
                             {speedup:.3}x the committed baseline (threshold {:.2}x); \
                             rebaseline with `cargo run --release -p ohm-bench --bin \
                             perf_baseline` if intended",
                            1.0 - REGRESSION_WARN
                        );
                    }
                }
                None => eprintln!("no matching cells in {}; skipping comparison", args.out),
            }
        }
    }

    let footprints = if args.footprints.is_empty() {
        Vec::new()
    } else {
        eprintln!(
            "footprint sweep: {}",
            args.footprints
                .iter()
                .map(|&b| size_label(b))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let points = measure_footprints(&args.footprints);
        println!("{:<10} {:>16} {:>14}", "footprint", "events/sec", "rss_kb");
        for p in &points {
            println!(
                "{:<10} {:>16.0} {:>14}",
                size_label(p.bytes),
                p.geomean_events_per_sec,
                p.peak_rss_kb
            );
        }
        warn_on_footprint_degradation(&points);
        points
    };

    let json = render_json(&cells, &footprints, args.reps, geomean);
    std::fs::write(&args.out, &json).expect("write baseline JSON");
    eprintln!("wrote {}", args.out);
}

/// Advisory check that throughput stays roughly flat across the
/// footprint sweep. Returns the offending point for testability.
fn warn_on_footprint_degradation(points: &[FootprintPoint]) -> Option<u64> {
    let first = points.first()?;
    let floor = first.geomean_events_per_sec * FOOTPRINT_WARN_FRACTION;
    let bad = points.iter().find(|p| p.geomean_events_per_sec < floor)?;
    println!(
        "::warning title=superlinear footprint degradation::geomean events/sec at {} \
         ({:.0}) is below {FOOTPRINT_WARN_FRACTION}x the {} point ({:.0}); simulation \
         throughput should be footprint-independent (DESIGN.md section 3.7)",
        size_label(bad.bytes),
        bad.geomean_events_per_sec,
        size_label(first.bytes),
        first.geomean_events_per_sec
    );
    Some(bad.bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_roundtrip() {
        let cells = vec![
            Cell {
                platform: "Ohm-base",
                workload: "lud".into(),
                events: 100,
                wall: Duration::from_millis(2),
                events_per_sec: 50_000.0,
            },
            Cell {
                platform: "Oracle",
                workload: "pagerank".into(),
                events: 300,
                wall: Duration::from_millis(3),
                events_per_sec: 100_000.0,
            },
        ];
        let footprints = vec![
            FootprintPoint {
                bytes: 256 << 20,
                geomean_events_per_sec: 1e6,
                peak_rss_kb: 50_000,
            },
            FootprintPoint {
                bytes: 16 << 30,
                geomean_events_per_sec: 0.9e6,
                peak_rss_kb: 52_000,
            },
        ];
        let json = render_json(&cells, &footprints, 3, 70_710.7);
        assert!(json.contains("\"footprint\": \"16G\""));
        // The footprint lines may not confuse the cell-oriented parser.
        let parsed = parse_baseline(&json);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "Ohm-base");
        assert_eq!(parsed[0].1, "lud");
        assert!((parsed[0].2 - 50_000.0).abs() < 0.1);
        let (speedup, n) = compare(&cells, &parsed).unwrap();
        assert_eq!(n, 2);
        assert!((speedup - 1.0).abs() < 1e-9);
        // A sweep-free document keeps the schema-1 shape.
        let plain = render_json(&cells, &[], 3, 70_710.7);
        assert!(!plain.contains("footprints"));
        assert!(plain.trim_end().ends_with('}'));
        assert_eq!(parse_baseline(&plain).len(), 2);
    }

    #[test]
    fn size_parsing_round_trips() {
        assert_eq!(parse_size("256M"), Some(256 << 20));
        assert_eq!(parse_size("16G"), Some(16u64 << 30));
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("1KiB"), Some(1024));
        assert_eq!(parse_size("12X"), None);
        assert_eq!(parse_size(""), None);
        assert_eq!(
            parse_footprint_list("1G,256M,1G"),
            Some(vec![256 << 20, 1 << 30])
        );
        assert_eq!(size_label(256 << 20), "256M");
        assert_eq!(size_label(16u64 << 30), "16G");
        assert_eq!(size_label(4096), "4K");
        assert_eq!(size_label(3000), "3000");
    }

    #[test]
    fn cpu_list_counting() {
        assert_eq!(count_cpu_list("0-11\n"), Some(12));
        assert_eq!(count_cpu_list("0"), Some(1));
        assert_eq!(count_cpu_list("0,2-5,7"), Some(6));
        assert_eq!(count_cpu_list("garbage"), None);
    }

    #[test]
    fn footprint_degradation_warning_triggers_on_slowdown() {
        let point = |bytes: u64, eps: f64| FootprintPoint {
            bytes,
            geomean_events_per_sec: eps,
            peak_rss_kb: 0,
        };
        let flat = vec![point(256 << 20, 1e6), point(16 << 30, 0.8e6)];
        assert_eq!(warn_on_footprint_degradation(&flat), None);
        let degraded = vec![point(256 << 20, 1e6), point(16 << 30, 0.4e6)];
        assert_eq!(warn_on_footprint_degradation(&degraded), Some(16 << 30));
        assert_eq!(warn_on_footprint_degradation(&[]), None);
    }
}
