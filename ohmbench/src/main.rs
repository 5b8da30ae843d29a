//! ohmbench — the repository benchmark for the Ohm-GPU simulator and the
//! `ohm-serve` daemon.
//!
//! ```text
//! ohmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer ledger. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Everything before it is for people: host facts, digests,
//! sample counts and the percentile each tail was taken at. See
//! `README.md` next to this crate for the workloads and every metric.

mod host;
mod kernels;
mod serve;
mod sim;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ohm_core::checkpoint::{grid_digest, report_digest, CellSpec};
use ohm_core::metrics::StageSummary;
use ohm_core::{OperationalMode, Platform, SimReport};

use crate::host::HostFacts;
use crate::kernels::KernelCosts;
use crate::serve::{Sweep, SweepPlan};
use crate::sim::{HitProbe, Pass, Reference};
use crate::stats::{mean, median, medians, Latency};
use crate::workload::{Grid, Workload};

/// Set-up-only repetitions behind `setup_s`.
const SETUP_REPS: usize = 25;
/// Fewest timed passes of a simulation workload, whatever the budget.
const MIN_PASSES: usize = 2;
/// Checkpoint-replay lookups per simulation pass (p99 needs 1000).
const HIT_SAMPLES: usize = 1000;
/// Back-to-back tries of each lookup per pass: with eval-graph's two
/// passes, one try each would leave a median of two.
const HIT_TRIES: usize = 3;
/// Fewest timed sweeps of serve-sweep, whatever the budget.
const MIN_SWEEPS: usize = 3;
/// Where runs keep journals and daemon state, relative to the working
/// directory; removed when the run ends.
const SCRATCH: &str = ".ohmbench-scratch";

/// Command-line arguments.
#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} ({})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts `n` operations, `bad` of which failed.
    fn check(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The final JSON line.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A per-run scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = Path::new(SCRATCH).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(SCRATCH);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Reports whose digest differs from the reference, cell by cell.
fn mismatches(pass: &Pass, reference: &[SimReport]) -> u64 {
    pass.cells
        .iter()
        .zip(reference)
        .filter(|(c, r)| report_digest(&c.report) != report_digest(r))
        .count() as u64
        + (pass.cells.len() as u64).abs_diff(reference.len() as u64)
}

/// Keeps running passes until the budget is spent (at least `min`),
/// stopping early when one more would overrun it.
fn until_budget<T>(budget: Duration, min: usize, mut one: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let n = out.len();
        if n >= min {
            let per = start.elapsed() / n as u32;
            if start.elapsed() + per > budget {
                return out;
            }
        }
        out.push(one(n));
    }
}

fn print_latency(what: &str, l: &Latency) {
    println!(
        "latency {what}: n={} p50={:.4} ms {}={:.4} ms",
        l.n, l.p50, l.tail_label, l.tail
    );
}

/// The end-to-end metrics every workload prints, in BENCHMARK.json order.
///
/// A run repeats one schedule of operations in passes. Each operation's
/// time is its median over the passes, so a burst of host noise in one
/// pass moves only the operations it hit; totals and percentiles are
/// taken over those medians.
struct EndToEnd {
    /// Set-up samples.
    setup: Vec<Duration>,
    /// `units[pass][u]`: the timed units (cells, or jobs) of each pass.
    /// They run back to back, so their medians sum to a pass wall.
    units: Vec<Vec<Duration>>,
    /// Simulated events one pass accounts for.
    events: f64,
    /// Cells one pass resolves.
    cells: f64,
    /// `fresh[pass][i]`: latency of the pass's `i`-th fresh cell.
    fresh: Vec<Vec<Duration>>,
    /// `hits[pass][i]`: latency of the pass's `i`-th cache hit.
    hits: Vec<Vec<Duration>>,
}

impl EndToEnd {
    fn report(&self, out: &mut Outcome) {
        let fresh = Latency::of(&medians(&self.fresh));
        let hits = Latency::of(&medians(&self.hits));
        let wall: f64 = medians(&self.units).iter().map(|&d| d.as_secs_f64()).sum();
        println!(
            "median pass: {} units x {} passes, wall {wall:.4} s; setup samples n={}",
            self.units.first().map_or(0, Vec::len),
            self.units.len(),
            self.setup.len()
        );
        print_latency("cell (fresh)", &fresh);
        print_latency("hit (cached)", &hits);
        let setup: Vec<f64> = self.setup.iter().map(|&d| d.as_secs_f64()).collect();
        out.metric("setup_s", median(&setup), "s");
        out.metric("wall_s", wall, "s");
        out.metric("events_per_sec", self.events / wall, "1/s");
        out.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
        out.metric("cells_per_sec", self.cells / wall, "1/s");
        out.metric("cell_latency_p50_ms", fresh.p50, "ms");
        out.metric("cell_latency_p99_ms", fresh.tail, "ms");
        out.metric("hit_latency_p50_ms", hits.p50, "ms");
        out.metric("hit_latency_p99_ms", hits.tail, "ms");
    }
}

/// Runs the GridRun reference for a simulation workload and prints it.
fn sim_reference(
    w: Workload,
    seed: u64,
    scratch: &Path,
    out: &mut Outcome,
) -> (Vec<Grid>, Reference) {
    let grids = w.grids(seed);
    let t = Instant::now();
    let reference = sim::reference(&grids, scratch);
    out.check(reference.reports.len() as u64, 0);
    println!(
        "reference GridRun::serial: {} cells in {:.2} s, grid_digest={:016x}",
        reference.reports.len(),
        t.elapsed().as_secs_f64(),
        grid_digest(reference.reports.iter())
    );
    (grids, reference)
}

/// Runs one pass, prints it and checks it against the reference.
fn checked_pass(
    make: &dyn Fn() -> Vec<Grid>,
    traced: bool,
    label: &str,
    reference: &[SimReport],
    out: &mut Outcome,
    between: &mut dyn FnMut(usize),
) -> Pass {
    let pass = sim::run_pass(make, traced, between);
    let bad = mismatches(&pass, reference);
    out.check(pass.cells.len() as u64, bad);
    println!(
        "{label}: setup {:.3} ms, wall {:.3} s, {:.0} events/s, grid_digest={:016x}{}",
        ms(pass.setup),
        pass.wall.as_secs_f64(),
        pass.events() as f64 / pass.run_time().as_secs_f64(),
        pass.digest(),
        if bad == 0 { "" } else { " MISMATCH" }
    );
    pass
}

/// `--trace 0` for eval-graph, eval-compute and twolevel-writes.
fn sim_end_to_end(args: &Args, scratch: &Path, out: &mut Outcome) {
    let (w, seed) = (args.workload, args.seed);
    let make = || w.grids(seed);
    // Set-up first, in a fresh process: the allocator's state, and so
    // the set-up time, then depends on nothing the run did before.
    let setup: Vec<Duration> = (0..SETUP_REPS).map(|_| sim::setup_only(&make)).collect();
    let (grids, reference) = sim_reference(w, seed, scratch, out);

    // Checkpoint replays run between cells, the same ones after the same
    // cell in every pass, so their samples spread over the whole run and
    // line up across passes.
    let n = reference.reports.len();
    let per_cell = HIT_SAMPLES.div_ceil(n);
    let probe = HitProbe::new(&grids, scratch, &reference.reports);
    let mut hits: Vec<Vec<Duration>> = Vec::new();
    let mut bad_hits = 0u64;
    let passes = until_budget(Duration::from_secs(args.seconds), MIN_PASSES, |i| {
        let label = format!("pass {}", i + 1);
        let mut tries = vec![Vec::new(); HIT_TRIES];
        let pass = checked_pass(&make, false, &label, &reference.reports, out, &mut |c| {
            for t in &mut tries {
                for (d, ok) in probe.lookup(c * per_cell, per_cell) {
                    t.push(d);
                    bad_hits += u64::from(!ok);
                }
            }
        });
        hits.extend(tries);
        pass
    });
    let lookups: usize = hits.iter().map(Vec::len).sum();
    out.check(lookups as u64, bad_hits);
    println!("checkpoint replays: {lookups} lookups, {bad_hits} mismatched");

    // The reference run is one more pass: its cells are `System::new` +
    // `run` (+ a journal append), against `with_stream` + `run` in the
    // timed passes.
    let units = std::iter::once(reference.walls.clone())
        .chain(
            passes
                .iter()
                .map(|p| p.cells.iter().map(|c| c.run).collect()),
        )
        .collect();
    let fresh = std::iter::once(reference.walls.clone())
        .chain(
            passes
                .iter()
                .map(|p| p.cells.iter().map(|c| c.setup + c.run).collect()),
        )
        .collect();
    EndToEnd {
        setup,
        units,
        events: reference
            .reports
            .iter()
            .map(|r| (r.instructions + r.mem_requests) as f64)
            .sum(),
        cells: n as f64,
        fresh,
        hits,
    }
    .report(out);
}

/// Runs `plan`'s reference and prints it.
fn serve_reference(plan: &SweepPlan) -> Vec<Vec<Vec<SimReport>>> {
    let t = Instant::now();
    let rows = serve::reference(plan);
    println!(
        "reference GridRun::serial: {} segments, {} cells in {:.2} s",
        rows.len(),
        rows.iter().flatten().flatten().count(),
        t.elapsed().as_secs_f64()
    );
    rows
}

/// Runs one sweep, prints it and counts its checks.
fn checked_sweep(
    plan: &SweepPlan,
    rows: &[Vec<Vec<SimReport>>],
    dir: &Path,
    workers: usize,
    traced: bool,
    label: &str,
    out: &mut Outcome,
) -> Sweep {
    let sweep = serve::run_sweep(plan, rows, dir, workers, traced);
    out.check(sweep.attempted, sweep.failed);
    println!(
        "{label}: start {:.3} ms, wall {:.3} s, {} cells ({} fresh, {} cached), jobs_digest={:016x}{}",
        ms(sweep.setup),
        sweep.wall.as_secs_f64(),
        sweep.cells,
        sweep.fresh.len(),
        sweep.hits.len(),
        sweep.digest,
        if sweep.failed == 0 { "" } else { " FAILED" }
    );
    sweep
}

/// `--trace 0` for serve-sweep.
fn serve_end_to_end(args: &Args, workers: usize, scratch: &Path, out: &mut Outcome) {
    let setup: Vec<Duration> = (0..SETUP_REPS)
        .map(|i| serve::start_only(&scratch.join(format!("start-{i}")), workers))
        .collect();
    let plan = SweepPlan::serve_sweep(args.seed);
    let rows = serve_reference(&plan);
    let sweeps = until_budget(Duration::from_secs(args.seconds), MIN_SWEEPS, |i| {
        let dir = scratch.join(format!("state-{i}"));
        checked_sweep(
            &plan,
            &rows,
            &dir,
            workers,
            false,
            &format!("sweep {}", i + 1),
            out,
        )
    });
    if sweeps.iter().any(|s| s.digest != sweeps[0].digest) {
        println!("sweeps disagree on their job digests");
        out.check(0, 1);
    }
    EndToEnd {
        setup,
        units: sweeps.iter().map(|s| s.jobs.clone()).collect(),
        events: sweeps[0].fresh_events as f64,
        cells: sweeps[0].cells as f64,
        fresh: sweeps.iter().map(|s| s.fresh.clone()).collect(),
        hits: sweeps.iter().map(|s| s.hits.clone()).collect(),
    }
    .report(out);
}

/// How many times a traced pass called each component, estimated from
/// its reports, stage counts and stream tallies.
#[derive(Debug, Default)]
struct Calls {
    queue: f64,
    l1: f64,
    l2: f64,
    xbar: f64,
    dram: f64,
    xpoint_read: f64,
    xpoint_write: f64,
    planar: f64,
    two_level: f64,
    optic: f64,
}

fn stage_count(s: Option<&StageSummary>, name: &str) -> f64 {
    s.and_then(|s| s.stages.iter().find(|r| r.name == name))
        .map_or(0.0, |r| r.count as f64)
}

impl Calls {
    fn of(pass: &Pass) -> Calls {
        let mut c = Calls::default();
        for cell in &pass.cells {
            let r = &cell.report;
            let st = cell.stages.as_ref();
            let tally = cell.stream.clone().unwrap_or_default();
            let l1_misses = tally.loads as f64 * (1.0 - r.l1_hit_rate);
            let ctrl = stage_count(st, "ctrl-queue");
            let xpoint = stage_count(st, "xpoint-access");
            let read_share = if ctrl > 0.0 {
                (r.mem_requests as f64 / ctrl).min(1.0)
            } else {
                0.0
            };
            c.queue += (tally.slices + r.migrations) as f64;
            c.l1 += tally.loads as f64;
            c.l2 += l1_misses + tally.stores as f64;
            c.xbar += 2.0 * l1_misses + tally.stores as f64;
            c.dram += stage_count(st, "dram-access");
            c.xpoint_read += xpoint * read_share;
            c.xpoint_write += xpoint * (1.0 - read_share);
            if r.platform.is_heterogeneous() {
                match r.mode {
                    OperationalMode::Planar => c.planar += ctrl,
                    OperationalMode::TwoLevel => c.two_level += ctrl,
                }
            }
            // Origin and Hetero use the electrical channel.
            if !matches!(r.platform, Platform::Origin | Platform::Hetero) {
                c.optic += stage_count(st, "channel-xfer");
            }
        }
        c
    }
}

/// The simulated work and wait of a traced pass (deterministic).
fn sim_counters(pass: &Pass, out: &mut Outcome) {
    let reports: Vec<&SimReport> = pass.cells.iter().map(|c| &c.report).collect();
    let sum = |name: &str| -> f64 {
        pass.cells
            .iter()
            .map(|c| stage_count(c.stages.as_ref(), name))
            .sum()
    };
    let ctrl_mean = {
        let rows: Vec<(f64, f64)> = pass
            .cells
            .iter()
            .filter_map(|c| c.stages.as_ref())
            .filter_map(|s| s.stages.iter().find(|r| r.name == "ctrl-queue"))
            .map(|r| (r.count as f64, r.mean_ns))
            .collect();
        let n: f64 = rows.iter().map(|r| r.0).sum();
        if n > 0.0 {
            rows.iter().map(|r| r.0 * r.1).sum::<f64>() / n
        } else {
            0.0
        }
    };
    let per =
        |f: &dyn Fn(&SimReport) -> f64| mean(&reports.iter().map(|r| f(r)).collect::<Vec<_>>());
    let hetero: Vec<f64> = reports
        .iter()
        .filter(|r| r.platform.is_heterogeneous())
        .map(|r| r.hetero_dram_hit_rate)
        .collect();
    out.metric("sim.events", pass.events() as f64, "count");
    out.metric(
        "sim.mem_requests",
        reports.iter().map(|r| r.mem_requests as f64).sum(),
        "count",
    );
    out.metric("sim.l1_hit_rate", per(&|r| r.l1_hit_rate), "ratio");
    out.metric("sim.l2_hit_rate", per(&|r| r.l2_hit_rate), "ratio");
    out.metric("sim.stage.ctrl-queue.count", sum("ctrl-queue"), "count");
    out.metric("sim.stage.ctrl-queue.mean_ns", ctrl_mean, "ns");
    out.metric("sim.stage.channel-xfer.count", sum("channel-xfer"), "count");
    out.metric("sim.stage.dram-access.count", sum("dram-access"), "count");
    out.metric(
        "sim.stage.xpoint-access.count",
        sum("xpoint-access"),
        "count",
    );
    out.metric("sim.stage.migration.count", sum("migration"), "count");
    out.metric("sim.hetero_dram_hit_rate", mean(&hetero), "ratio");
    out.metric(
        "sim.migration_channel_fraction",
        per(&|r| r.migration_channel_fraction),
        "ratio",
    );
    out.metric(
        "sim.channel_utilization",
        per(&|r| r.channel_utilization),
        "ratio",
    );
}

/// The per-layer ledger of one workload.
struct Ledger<'a> {
    untraced: &'a Pass,
    traced: &'a Pass,
    costs: KernelCosts,
    append: Duration,
    sweep: &'a Sweep,
    overhead: f64,
}

impl Ledger<'_> {
    fn report(&self, out: &mut Outcome) {
        let run_ns = self.untraced.run_time().as_nanos() as f64;
        let events = self.untraced.events() as f64;
        out.metric(
            "core.setup.ms_per_cell",
            ms(self.traced.setup) / self.traced.cells.len() as f64,
            "ms",
        );
        out.metric("core.run.ns_per_event", run_ns / events, "ns");

        let tallies: Vec<_> = self
            .traced
            .cells
            .iter()
            .filter_map(|c| c.stream.clone())
            .collect();
        let sampled: f64 = tallies.iter().map(|t| t.sampled as f64).sum();
        let sampled_ns: f64 = tallies
            .iter()
            .map(|t| t.sampled_time.as_nanos() as f64)
            .sum();
        let stream_ns: f64 = tallies
            .iter()
            .map(|t| t.ns_per_slice() * t.slices as f64)
            .sum();
        out.metric(
            "workloads.stream.ns_per_slice",
            sampled_ns / sampled.max(1.0),
            "ns",
        );
        let stream_share = stream_ns / run_ns;
        out.metric("workloads.stream.share", stream_share, "ratio");

        let k = &self.costs;
        let calls = Calls::of(self.traced);
        let rows: [(&'static str, &'static str, f64, f64); 10] = [
            (
                "sim.queue.ns_per_op",
                "sim.queue.share",
                k.queue,
                calls.queue,
            ),
            ("sm.l1.ns_per_access", "sm.l1.share", k.l1, calls.l1),
            ("sm.l2.ns_per_access", "sm.l2.share", k.l2, calls.l2),
            (
                "sm.xbar.ns_per_traverse",
                "sm.xbar.share",
                k.xbar,
                calls.xbar,
            ),
            (
                "mem.dram.ns_per_access",
                "mem.dram.share",
                k.dram,
                calls.dram,
            ),
            (
                "mem.xpoint.ns_per_read",
                "mem.xpoint.read_share",
                k.xpoint_read,
                calls.xpoint_read,
            ),
            (
                "mem.xpoint.ns_per_write",
                "mem.xpoint.write_share",
                k.xpoint_write,
                calls.xpoint_write,
            ),
            (
                "hetero.planar.ns_per_access",
                "hetero.planar.share",
                k.planar,
                calls.planar,
            ),
            (
                "hetero.two_level.ns_per_access",
                "hetero.two_level.share",
                k.two_level,
                calls.two_level,
            ),
            (
                "optic.channel.ns_per_transfer",
                "optic.channel.share",
                k.optic,
                calls.optic,
            ),
        ];
        let mut attributed = stream_share;
        println!(
            "{:<32} {:>10} {:>14} {:>8}",
            "layer", "ns/call", "calls", "share"
        );
        for (cost, share, ns, n) in rows {
            let s = ns * n / run_ns;
            attributed += s;
            println!("{cost:<32} {ns:>10.2} {n:>14.0} {s:>8.4}");
            out.metric(cost, ns, "ns");
            out.metric(share, s, "ratio");
        }
        out.metric("core.run.unattributed_share", 1.0 - attributed, "ratio");

        sim_counters(self.traced, out);

        let sw = self.sweep;
        let submit: Vec<f64> = sw.submit.iter().map(|&d| ms(d)).collect();
        let first: Vec<f64> = sw.first_event.iter().map(|&d| ms(d)).collect();
        out.metric("serve.submit_ms", median(&submit), "ms");
        out.metric("serve.first_event_ms", median(&first), "ms");
        out.metric(
            "checkpoint.append_us",
            self.append.as_secs_f64() * 1e6,
            "us",
        );
        let st = sw.stats.unwrap_or_default();
        out.metric(
            "serve.cache.hit_ratio",
            st.hits as f64 / (st.hits + st.misses).max(1) as f64,
            "ratio",
        );
        out.metric("serve.cache.coalesced", st.coalesced as f64, "count");
        out.metric("serve.pool.busy_ratio", mean(&sw.busy), "ratio");
        out.metric("trace.overhead_ratio", self.overhead, "ratio");
    }
}

/// The (cell, report) pairs of a simulation workload's reference, for the
/// journal-append kernel.
fn reference_cells(grids: &[Grid], reference: &[SimReport]) -> Vec<(CellSpec, SimReport)> {
    grids
        .iter()
        .flat_map(|g| {
            g.cells()
                .map(move |(p, s)| CellSpec::new(g.cfg.clone(), p, g.mode, *s))
        })
        .zip(reference.iter().cloned())
        .collect()
}

/// `--trace 1` for eval-graph, eval-compute and twolevel-writes.
fn sim_layers(args: &Args, workers: usize, scratch: &Path, out: &mut Outcome) {
    let (w, seed) = (args.workload, args.seed);
    let (grids, reference) = sim_reference(w, seed, scratch, out);
    let make = || w.grids(seed);
    let untraced = checked_pass(
        &make,
        false,
        "untraced pass",
        &reference.reports,
        out,
        &mut |_| {},
    );
    let traced = checked_pass(
        &make,
        true,
        "traced pass",
        &reference.reports,
        out,
        &mut |_| {},
    );
    let costs = kernels::measure(&grids[0].cfg, &grids[0].specs);
    let append = kernels::journal_append(
        &scratch.join("append.ohmj"),
        &reference_cells(&grids, &reference.reports),
    );
    let (mode, platforms, names) = w.shape();
    let plan = SweepPlan::probe(seed, mode, platforms, names);
    let rows = serve_reference(&plan);
    let sweep = checked_sweep(
        &plan,
        &rows,
        &scratch.join("probe"),
        workers,
        true,
        "daemon probe (quick_test)",
        out,
    );
    Ledger {
        overhead: traced.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0,
        untraced: &untraced,
        traced: &traced,
        costs,
        append,
        sweep: &sweep,
    }
    .report(out);
}

/// `--trace 1` for serve-sweep.
fn serve_layers(args: &Args, workers: usize, scratch: &Path, out: &mut Outcome) {
    let plan = SweepPlan::serve_sweep(args.seed);
    let rows = serve_reference(&plan);
    let untraced = checked_sweep(
        &plan,
        &rows,
        &scratch.join("untraced"),
        workers,
        false,
        "untraced sweep",
        out,
    );
    let traced = checked_sweep(
        &plan,
        &rows,
        &scratch.join("traced"),
        workers,
        true,
        "traced sweep",
        out,
    );

    // The simulator layers, on the cells of the sweep's first two
    // segments (one planar, one two-level).
    let make = || {
        plan.segments[..2]
            .iter()
            .map(|s| s.grid())
            .collect::<Vec<_>>()
    };
    let reference: Vec<SimReport> = rows[..2].iter().flatten().flatten().cloned().collect();
    let untraced_pass = checked_pass(
        &make,
        false,
        "untraced pass (first two segments)",
        &reference,
        out,
        &mut |_| {},
    );
    let traced_pass = checked_pass(
        &make,
        true,
        "traced pass (first two segments)",
        &reference,
        out,
        &mut |_| {},
    );
    let grids = make();
    let costs = kernels::measure(&grids[0].cfg, &grids[0].specs);
    let append = kernels::journal_append(
        &scratch.join("append.ohmj"),
        &reference_cells(&grids, &reference),
    );
    Ledger {
        overhead: traced.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0,
        untraced: &untraced_pass,
        traced: &traced_pass,
        costs,
        append,
        sweep: &traced,
    }
    .report(out);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ohmbench: {e}");
            eprintln!("usage: ohmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let facts = HostFacts::probe();
    println!(
        "ohmbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", facts.to_json());
    if facts.cpus_available < 2 {
        println!("note: one CPU available; no result of this run speaks to multi-core behaviour");
    }
    // The daemon never gets more workers than the host has CPUs.
    let workers = facts.nproc.max(1);

    let scratch = Scratch::new();
    let mut out = Outcome::default();
    let started = Instant::now();
    match (args.workload, args.trace) {
        (Workload::ServeSweep, false) => serve_end_to_end(&args, workers, &scratch.0, &mut out),
        (Workload::ServeSweep, true) => serve_layers(&args, workers, &scratch.0, &mut out),
        (_, false) => sim_end_to_end(&args, &scratch.0, &mut out),
        (_, true) => sim_layers(&args, workers, &scratch.0, &mut out),
    }
    drop(scratch);

    println!(
        "failed_ratio {:.6} ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("run took {:.1} s", started.elapsed().as_secs_f64());
    for m in &out.metrics {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload eval-graph --seed 42 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::EvalGraph);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 12, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload serve-sweep --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload serve-sweep --seconds")).is_err());
    }

    #[test]
    fn the_result_line_has_the_four_keys() {
        let mut out = Outcome::default();
        out.check(3, 0);
        out.metric("wall_s", 1.25, "s");
        let line = out.to_json();
        let doc = ohm_core::json::parse_json(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(3));
        let m = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
