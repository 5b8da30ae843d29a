//! In-process simulation passes, timed from outside the simulator.
//!
//! A pass builds every cell of a workload's grids with
//! `System::with_stream` over the cell's own `KernelWorkload` (the set-up
//! the benchmark times), then runs them one after another on this thread.
//! A traced pass wraps each stream in a [`TimedStream`] and switches the
//! simulator's observability on; neither may change a report.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use ohm_core::checkpoint::{grid_digest, report_digest};
use ohm_core::runner::CellOutcome;
use ohm_core::{FsyncPolicy, GridRun, Platform, SimReport, System, SystemConfig};
use ohm_sm::{InstructionStream, WarpSlice};
use ohm_workloads::{KernelWorkload, WorkloadSpec};

use crate::workload::Grid;

/// One in every `STREAM_SAMPLE_EVERY` stream calls is timed in a traced
/// pass; the rest are only counted.
const STREAM_SAMPLE_EVERY: u64 = 16;

/// The stream a cell runs on: exactly what `System::new` would build for
/// a configuration without a phase plan.
pub fn kernel_stream(cfg: &SystemConfig, spec: &WorkloadSpec) -> KernelWorkload {
    KernelWorkload::new(
        *spec,
        cfg.gpu.sms,
        cfg.gpu.sm.warps,
        cfg.insts_per_warp,
        cfg.seed,
    )
}

/// Stream calls counted (and sampled) by a [`TimedStream`].
#[derive(Debug, Clone, Default)]
pub struct StreamTally {
    /// `next_slice` calls that returned a slice.
    pub slices: u64,
    /// Slices ending in a load.
    pub loads: u64,
    /// Slices ending in a store.
    pub stores: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Host time of the timed calls.
    pub sampled_time: Duration,
}

impl StreamTally {
    /// Mean host time of one `next_slice` call, from the sampled calls.
    pub fn ns_per_slice(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.sampled_time.as_nanos() as f64 / self.sampled as f64
        }
    }
}

/// A `KernelWorkload` that counts its slices and times a sample of its
/// `next_slice` calls. The simulator owns the stream, so the tally is
/// shared through an `Rc`.
pub struct TimedStream {
    inner: KernelWorkload,
    calls: u64,
    tally: Rc<RefCell<StreamTally>>,
}

impl TimedStream {
    /// Wraps `inner`; read the tally through the returned handle after
    /// the run.
    pub fn new(inner: KernelWorkload) -> (TimedStream, Rc<RefCell<StreamTally>>) {
        let tally = Rc::new(RefCell::new(StreamTally::default()));
        let stream = TimedStream {
            inner,
            calls: 0,
            tally: Rc::clone(&tally),
        };
        (stream, tally)
    }
}

impl InstructionStream for TimedStream {
    fn next_slice(&mut self, sm: usize, warp: usize) -> Option<WarpSlice> {
        self.calls += 1;
        let slice = if self.calls.is_multiple_of(STREAM_SAMPLE_EVERY) {
            let t = Instant::now();
            let slice = self.inner.next_slice(sm, warp);
            let dt = t.elapsed();
            let mut tally = self.tally.borrow_mut();
            tally.sampled += 1;
            tally.sampled_time += dt;
            slice
        } else {
            self.inner.next_slice(sm, warp)
        };
        if let Some(s) = &slice {
            let mut tally = self.tally.borrow_mut();
            tally.slices += 1;
            match s.access {
                Some((_, kind)) if kind.is_load() => tally.loads += 1,
                Some(_) => tally.stores += 1,
                None => {}
            }
        }
        slice
    }
}

/// What one cell of a pass cost and produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Host time of its `System::with_stream`.
    pub setup: Duration,
    /// Host time of its `System::run`.
    pub run: Duration,
    /// The report (observability section removed, so traced and
    /// untraced reports compare bit for bit).
    pub report: SimReport,
    /// The simulator's stage summary, when the pass was traced.
    pub stages: Option<ohm_core::metrics::StageSummary>,
    /// The stream tally, when the pass was traced.
    pub stream: Option<StreamTally>,
}

impl CellRun {
    /// Simulated events: retired instructions plus memory requests.
    pub fn events(&self) -> u64 {
        self.report.instructions + self.report.mem_requests
    }
}

/// One timed pass over every cell.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Config building plus `System::with_stream` for every cell.
    pub setup: Duration,
    /// First cell start to last cell end (set-up excluded).
    pub wall: Duration,
    /// Per-cell results in grid order.
    pub cells: Vec<CellRun>,
}

impl Pass {
    /// Simulated events of the whole pass.
    pub fn events(&self) -> u64 {
        self.cells.iter().map(CellRun::events).sum()
    }

    /// Host time inside `System::run`, summed over cells.
    pub fn run_time(&self) -> Duration {
        self.cells.iter().map(|c| c.run).sum()
    }

    /// `grid_digest` over the pass's reports in grid order.
    pub fn digest(&self) -> u64 {
        grid_digest(self.cells.iter().map(|c| &c.report))
    }
}

/// A built, not yet run, cell.
struct Built {
    setup: Duration,
    system: System,
    tally: Option<Rc<RefCell<StreamTally>>>,
}

/// Builds the grids and every cell's system. Returns the systems and the
/// set-up time (config building included).
fn build(make_grids: &dyn Fn() -> Vec<Grid>, traced: bool) -> (Vec<Built>, Duration) {
    let t0 = Instant::now();
    let grids = make_grids();
    let mut built = Vec::new();
    for grid in &grids {
        for (platform, spec) in grid.cells() {
            let t = Instant::now();
            let stream = kernel_stream(&grid.cfg, spec);
            let (boxed, tally): (Box<dyn InstructionStream>, _) = if traced {
                let (s, tally) = TimedStream::new(stream);
                (Box::new(s), Some(tally))
            } else {
                (Box::new(stream), None)
            };
            let mut system = System::with_stream(&grid.cfg, platform, grid.mode, spec, boxed);
            if traced {
                system.enable_observability();
            }
            built.push(Built {
                setup: t.elapsed(),
                system,
                tally,
            });
        }
    }
    (built, t0.elapsed())
}

/// Set-up only: builds every cell and drops it; returns the set-up time.
pub fn setup_only(make_grids: &dyn Fn() -> Vec<Grid>) -> Duration {
    let (built, setup) = build(make_grids, false);
    drop(built);
    setup
}

/// Builds and runs every cell once, calling `between` with the cell's
/// index after each cell (outside the cell's timing).
pub fn run_pass(
    make_grids: &dyn Fn() -> Vec<Grid>,
    traced: bool,
    between: &mut dyn FnMut(usize),
) -> Pass {
    let (built, setup) = build(make_grids, traced);
    let start = Instant::now();
    let mut cells = Vec::with_capacity(built.len());
    for (i, mut b) in built.into_iter().enumerate() {
        let t = Instant::now();
        let mut report = b.system.run();
        let run = t.elapsed();
        let stages = report.stages.take();
        cells.push(CellRun {
            setup: b.setup,
            run,
            report,
            stages,
            stream: b.tally.map(|t| t.borrow().clone()),
        });
        between(i);
    }
    Pass {
        setup,
        wall: start.elapsed(),
        cells,
    }
}

/// The reference the passes are checked against.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Reports in grid order.
    pub reports: Vec<SimReport>,
    /// Each cell's wall time inside the `GridRun` (`System::new` + `run`
    /// + a journal append).
    pub walls: Vec<Duration>,
}

/// Runs a plain serial `GridRun` per grid, journalled to
/// `dir/grid<i>.ohmj` so [`HitProbe`] can replay it.
pub fn reference(grids: &[Grid], dir: &Path) -> Reference {
    let mut out = Reference {
        reports: Vec::new(),
        walls: Vec::new(),
    };
    for (g, grid) in grids.iter().enumerate() {
        let result = GridRun::serial()
            .checkpoint(journal_path(dir, g))
            .profile(true)
            .run(&grid.cfg, &grid.platforms, grid.mode, &grid.specs);
        assert!(
            result.outcomes.iter().all(|o| *o == CellOutcome::Completed),
            "reference cells must simulate fresh"
        );
        let profiles = result.profiles.expect("profiled run");
        out.walls.extend(profiles.iter().map(|p| p.wall));
        out.reports.extend(result.rows.into_iter().flatten());
    }
    out
}

fn journal_path(dir: &Path, grid: usize) -> std::path::PathBuf {
    dir.join(format!("grid{grid}.ohmj"))
}

/// Resolves cells from the reference journals, one single-cell `GridRun`
/// each: the checkpoint resume path.
pub struct HitProbe<'a> {
    grids: &'a [Grid],
    dir: &'a Path,
    reference: &'a [SimReport],
    /// (grid, platform, workload) of every cell, in grid order.
    cells: Vec<(usize, Platform, WorkloadSpec)>,
}

impl<'a> HitProbe<'a> {
    /// A probe over the journals [`reference`] wrote to `dir`.
    pub fn new(grids: &'a [Grid], dir: &'a Path, reference: &'a [SimReport]) -> HitProbe<'a> {
        let cells = grids
            .iter()
            .enumerate()
            .flat_map(|(g, grid)| grid.cells().map(move |(p, s)| (g, p, *s)))
            .collect();
        HitProbe {
            grids,
            dir,
            reference,
            cells,
        }
    }

    /// Resolves `n` cells starting at cell `first`, wrapping around.
    /// Returns each lookup's latency and whether it was a verified hit
    /// equal to the reference bit for bit.
    pub fn lookup(&self, first: usize, n: usize) -> Vec<(Duration, bool)> {
        (first..first + n)
            .map(|i| {
                let i = i % self.cells.len();
                let (g, platform, spec) = &self.cells[i];
                let grid = &self.grids[*g];
                let t = Instant::now();
                let result = GridRun::serial()
                    .checkpoint(journal_path(self.dir, *g))
                    .fsync(FsyncPolicy::Always)
                    .run(
                        &grid.cfg,
                        &[*platform],
                        grid.mode,
                        std::slice::from_ref(spec),
                    );
                let dt = t.elapsed();
                let ok = result.outcomes == [CellOutcome::Cached]
                    && report_digest(&result.rows[0][0]) == report_digest(&self.reference[i]);
                (dt, ok)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// The eval-graph grid shrunk so a debug build runs it in moments.
    fn tiny(seed: u64) -> Vec<Grid> {
        let mut grids = Workload::EvalGraph.grids(seed);
        for g in &mut grids {
            g.cfg = g
                .cfg
                .clone()
                .to_builder()
                .sms(2)
                .warps_per_sm(4)
                .insts_per_warp(60)
                .build()
                .unwrap();
            g.specs.truncate(1);
            g.platforms.truncate(2);
        }
        grids
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let a = run_pass(&|| tiny(3), false, &mut |_| {}).digest();
        let b = run_pass(&|| tiny(3), false, &mut |_| {}).digest();
        let c = run_pass(&|| tiny(4), false, &mut |_| {}).digest();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn wrapped_traced_and_reference_paths_agree() {
        let dir = std::env::temp_dir().join(format!("ohmbench-sim-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let grids = tiny(5);
        let reference = reference(&grids, &dir);
        let plain = run_pass(&|| tiny(5), false, &mut |_| {});
        let traced = run_pass(&|| tiny(5), true, &mut |_| {});
        assert_eq!(plain.digest(), grid_digest(reference.reports.iter()));
        assert_eq!(reference.walls.len(), reference.reports.len());
        assert_eq!(traced.digest(), plain.digest());
        assert!(traced.cells.iter().all(|c| c.stages.is_some()));
        let tally = traced.cells[0].stream.as_ref().unwrap();
        assert!(tally.slices > 0 && tally.loads + tally.stores > 0);
        let hits = HitProbe::new(&grids, &dir, &reference.reports).lookup(1, 3);
        assert!(hits.iter().all(|&(_, ok)| ok));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
