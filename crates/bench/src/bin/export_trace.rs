//! Chrome-trace exporter — runs one platform/workload cell with the
//! observability sinks enabled and writes the request-path timeline as a
//! Chrome trace-event JSON file (loadable in Perfetto / `chrome://tracing`).
//!
//! ```text
//! export_trace [--workload NAME] [--platform NAME] [--mode planar|two-level]
//!              [--out PATH] [--eval]
//! ```
//!
//! Defaults: pagerank on Ohm-base in planar mode with the quick-test
//! configuration, written to `trace.json`. `--eval` switches to the full
//! evaluation configuration and footprint (slower, paper-scale).

use ohm_core::config::SystemConfig;
use ohm_core::system::System;
use ohm_hetero::Platform;
use ohm_optic::OperationalMode;
use ohm_workloads::workload_by_name;

struct Args {
    workload: String,
    platform: Platform,
    mode: OperationalMode,
    out: String,
    eval: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: export_trace [--workload NAME] [--platform NAME] \
         [--mode planar|two-level] [--out PATH] [--eval]"
    );
    eprintln!(
        "platforms: {}",
        Platform::ALL
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: "pagerank".to_string(),
        platform: Platform::OhmBase,
        mode: OperationalMode::Planar,
        out: "trace.json".to_string(),
        eval: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = it.next().unwrap_or_else(|| usage()),
            "--platform" => {
                let name = it.next().unwrap_or_else(|| usage());
                args.platform = Platform::by_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown platform {name:?}");
                    usage()
                });
            }
            "--mode" => {
                args.mode = match it.next().as_deref() {
                    Some("planar") => OperationalMode::Planar,
                    Some("two-level") => OperationalMode::TwoLevel,
                    _ => usage(),
                }
            }
            "--out" => args.out = it.next().unwrap_or_else(|| usage()),
            "--eval" => args.eval = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let cfg = if args.eval {
        SystemConfig::evaluation()
    } else {
        SystemConfig::quick_test()
    };
    let mut spec = workload_by_name(&args.workload).unwrap_or_else(|| {
        eprintln!("unknown workload {:?}", args.workload);
        usage()
    });
    if args.eval {
        spec = spec.with_footprint(SystemConfig::EVALUATION_FOOTPRINT);
    }

    let wall = std::time::Instant::now();
    let mut sys = System::new(&cfg, args.platform, args.mode, &spec);
    sys.enable_observability();
    let report = sys.run();
    let trace = sys
        .chrome_trace()
        .expect("observability was enabled before the run");
    let wall = wall.elapsed();

    std::fs::write(&args.out, &trace).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    });

    println!(
        "{} / {} / {:?}: makespan {}, {} instructions, {} memory requests",
        args.platform.name(),
        spec.name,
        args.mode,
        report.makespan,
        report.instructions,
        report.mem_requests,
    );
    println!();
    let stages = report.stages.as_ref().expect("observability enabled");
    print!("{}", stages.format_table());
    println!();
    println!(
        "wrote {} ({} bytes) in {:.2}s — open in https://ui.perfetto.dev",
        args.out,
        trace.len(),
        wall.as_secs_f64()
    );
}
