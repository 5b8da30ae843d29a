//! Experiment run helpers.
//!
//! Two entry points cover every way the workspace executes simulations:
//! [`Run`] is the fluent single-cell builder (plain, trace-recorded, or
//! trace-replayed execution of one platform/mode/workload cell), and
//! [`GridRun`] runs many cells — an options struct selecting worker
//! counts, per-cell wall-clock profiling, checkpointing and fault
//! isolation. The `reproduce` harness in `ohm-bench` and the
//! `ohm-serve` daemon both run cells through these and nothing else.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

use ohm_hetero::Platform;
use ohm_optic::OperationalMode;
use ohm_sim::Ps;
use ohm_workloads::trace::{TraceError, TraceRecorder, TraceReplay};
use ohm_workloads::WorkloadSpec;

use crate::checkpoint::{self, CellSpec, Claim, FsyncPolicy, ResultCache};
use crate::config::SystemConfig;
use crate::metrics::{EnergyReport, SimReport};
use crate::par::{self, default_threads, CellError, Policy};
use crate::system::System;

/// Fluent builder for one simulation cell — the single-run counterpart
/// of [`GridRun`].
///
/// Defaults: [`Platform::OhmBase`] and [`OperationalMode::Planar`]. The
/// workload has no sensible default and must be set before executing.
///
/// ```
/// use ohm_core::config::SystemConfig;
/// use ohm_core::runner::Run;
/// use ohm_core::{OperationalMode, Platform};
/// use ohm_workloads::workload_by_name;
///
/// let cfg = SystemConfig::quick_test();
/// let spec = workload_by_name("bfsdata").unwrap();
/// let report = Run::new(&cfg)
///     .platform(Platform::OhmBase)
///     .mode(OperationalMode::Planar)
///     .workload(&spec)
///     .execute();
/// assert!(report.ipc > 0.0);
/// ```
///
/// Recording and replay attach through [`Run::record`] / [`Run::replay`],
/// which return mode-specific builders whose `execute` carries the
/// matching result type (the extra writer/reader state and the
/// [`TraceError`] paths don't exist on a plain run).
#[derive(Debug, Clone)]
pub struct Run<'a> {
    cfg: &'a SystemConfig,
    platform: Platform,
    mode: OperationalMode,
    workload: Option<&'a WorkloadSpec>,
}

impl<'a> Run<'a> {
    /// A run of `cfg` with the default platform/mode and no workload
    /// selected yet.
    pub fn new(cfg: &'a SystemConfig) -> Run<'a> {
        Run {
            cfg,
            platform: Platform::OhmBase,
            mode: OperationalMode::Planar,
            workload: None,
        }
    }

    /// Selects the platform (default [`Platform::OhmBase`]).
    pub fn platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Selects the memory mode (default [`OperationalMode::Planar`]).
    pub fn mode(mut self, mode: OperationalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the workload. Required before any `execute`.
    pub fn workload(mut self, spec: &'a WorkloadSpec) -> Self {
        self.workload = Some(spec);
        self
    }

    /// The configured workload, or the documented panic.
    fn spec_or_panic(&self) -> &'a WorkloadSpec {
        self.workload
            .expect("Run: no workload selected — call .workload(spec) before executing")
    }

    /// The [`CellSpec`] identity of this run — the content-addressed
    /// cache key contract shared with [`GridRun::checkpoint`] and the
    /// `ohm-serve` result cache. Recording and replay deliberately do
    /// not perturb it: a replayed run is the *same cell* (bit-identical
    /// report), so it must hit the same cache slot.
    ///
    /// # Panics
    ///
    /// If no workload was selected.
    pub fn spec(&self) -> CellSpec {
        CellSpec::new(
            self.cfg.clone(),
            self.platform,
            self.mode,
            *self.spec_or_panic(),
        )
    }

    /// Runs the cell.
    ///
    /// # Panics
    ///
    /// If no workload was selected.
    pub fn execute(&self) -> SimReport {
        System::new(self.cfg, self.platform, self.mode, self.spec_or_panic()).run()
    }

    /// Captures the run's instruction stream to `out` in the
    /// `ohm-trace v1` format (`docs/TRACE_FORMAT.md`). The recorder is a
    /// pass-through, so the recorded run's report is bit-identical to
    /// [`Run::execute`]'s; replaying the captured trace via
    /// [`Run::replay`] reproduces it bit-identically in turn.
    pub fn record<W: std::io::Write + 'static>(self, out: W) -> RecordedRun<'a, W> {
        RecordedRun { run: self, out }
    }

    /// Drives the run from a recorded trace, streaming records from
    /// `reader` (never materialising the trace) instead of generating
    /// the workload.
    pub fn replay<R: std::io::BufRead + 'static>(self, reader: R) -> ReplayRun<'a, R> {
        ReplayRun { run: self, reader }
    }
}

/// A [`Run`] that records its instruction stream — see [`Run::record`].
#[derive(Debug)]
pub struct RecordedRun<'a, W> {
    run: Run<'a>,
    out: W,
}

impl<W: std::io::Write + 'static> RecordedRun<'_, W> {
    /// Runs the cell, returning its report and the writer with the
    /// complete trace flushed into it.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the writer fails (header, any record, or
    /// the final flush).
    ///
    /// # Panics
    ///
    /// If no workload was selected.
    pub fn execute(self) -> Result<(SimReport, W), TraceError> {
        let spec = self.run.spec_or_panic();
        let base = crate::system::base_stream(self.run.cfg, spec);
        let (recorder, handle) =
            TraceRecorder::new(base, self.out, self.run.cfg.line_bytes as u32)?;
        let mut sys = System::with_stream(
            self.run.cfg,
            self.run.platform,
            self.run.mode,
            spec,
            Box::new(recorder),
        );
        let report = sys.run();
        drop(sys); // releases the recorder so the handle can finish
        Ok((report, handle.finish()?))
    }
}

/// A [`Run`] driven by a recorded trace — see [`Run::replay`].
#[derive(Debug)]
pub struct ReplayRun<'a, R> {
    run: Run<'a>,
    reader: R,
}

impl<R: std::io::BufRead + 'static> ReplayRun<'_, R> {
    /// Runs the cell against the trace. A trace captured by
    /// [`Run::record`] replayed under the same configuration produces a
    /// bit-identical [`SimReport`], with one exception: trace records
    /// carry no phase identity, so a replayed phase-structured run
    /// reports `phases: None` (every other field matches).
    ///
    /// # Errors
    ///
    /// The header errors of
    /// [`TraceReader::new`](ohm_workloads::trace::TraceReader::new)
    /// before the run, or the [`TraceError`] of the first malformed
    /// record hit mid-replay (the run completes on the records before
    /// it).
    ///
    /// # Panics
    ///
    /// If no workload was selected.
    pub fn execute(self) -> Result<SimReport, TraceError> {
        let spec = self.run.spec_or_panic();
        let replay = TraceReplay::new(self.reader)?;
        let errors = replay.error_handle();
        let mut sys = System::with_stream(
            self.run.cfg,
            self.run.platform,
            self.run.mode,
            spec,
            Box::new(replay),
        );
        let report = sys.run();
        match errors.take() {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }
}

/// Options for one grid run — the single entry point for running
/// simulation cells in bulk.
///
/// [`GridRun::run_cells`] runs any list of [`CellSpec`]s;
/// [`GridRun::run`] is its platform × workload cross product.
///
/// ```no_run
/// # use ohm_core::config::SystemConfig;
/// # use ohm_core::runner::GridRun;
/// # use ohm_hetero::Platform;
/// # use ohm_optic::OperationalMode;
/// # let specs = Vec::new();
/// let result = GridRun::new()
///     .profile(true)
///     .run(
///         &SystemConfig::quick_test(),
///         &Platform::ALL,
///         OperationalMode::Planar,
///         &specs,
///     );
/// let grid = result.rows; // grid[workload][platform]
/// ```
#[derive(Debug, Clone)]
pub struct GridRun {
    /// Worker count; `None` means every available core, resolved when a
    /// run starts.
    threads: Option<usize>,
    profile: bool,
    checkpoint: Option<PathBuf>,
    fsync: FsyncPolicy,
    isolate: bool,
}

impl Default for GridRun {
    fn default() -> Self {
        GridRun::new()
    }
}

impl GridRun {
    /// A grid run over all available cores, without profiling —
    /// strict mode, no checkpoint.
    pub fn new() -> Self {
        GridRun {
            threads: None,
            profile: false,
            checkpoint: None,
            fsync: FsyncPolicy::OnClose,
            isolate: false,
        }
    }

    /// A single-threaded grid run — the reference the parallel path is
    /// checked against, and the right choice when cells are being
    /// wall-clock timed (no core contention).
    pub fn serial() -> Self {
        GridRun::new().threads(1)
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Requests per-cell wall-clock profiles ([`GridResult::profiles`]).
    pub fn profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Runs the cells through a [`ResultCache`] journalled at `path`
    /// (DESIGN.md §3.10): every completed cell is appended as it
    /// finishes, and a later run with the same path replays verified
    /// records instead of re-simulating. Cells are keyed by
    /// [`CellSpec::key`] — config, platform, mode, and workload content;
    /// worker counts and profiling flags deliberately excluded — so a
    /// resumed run is bit-identical to an uninterrupted one. Replayed
    /// cells are reported as [`CellOutcome::Cached`].
    ///
    /// The journal is opened (or created) when the run starts; the run
    /// panics with the [`JournalError`](crate::JournalError) if the file
    /// exists but is not a valid journal, rather than silently
    /// overwriting it.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Durability policy for checkpoint journal appends (default
    /// [`FsyncPolicy::OnClose`], the historical behaviour). Use
    /// [`FsyncPolicy::Always`] when at most one record may be lost to a
    /// host crash — the `ohm-serve` daemon's setting.
    pub fn fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Switches per-cell fault isolation on: a panicking cell is
    /// quarantined as a [`CellOutcome::Quarantined`] while every other
    /// cell completes. Off (strict mode, the default), a panicking cell
    /// rethrows and tears down the whole run.
    pub fn isolate(mut self, isolate: bool) -> Self {
        self.isolate = isolate;
        self
    }

    /// Runs `platforms` over `specs` in `mode`, returning
    /// `rows[workload][platform]` in input order — the row-major cross
    /// product handed to [`GridRun::run_cells`], whose contract it
    /// shares.
    ///
    /// # Panics
    ///
    /// As [`GridRun::run_cells`].
    pub fn run(
        &self,
        cfg: &SystemConfig,
        platforms: &[Platform],
        mode: OperationalMode,
        specs: &[WorkloadSpec],
    ) -> GridResult {
        let cells: Vec<CellSpec> = specs
            .iter()
            .flat_map(|spec| {
                platforms
                    .iter()
                    .map(move |&p| CellSpec::new(cfg.clone(), p, mode, *spec))
            })
            .collect();
        let mut result = self.run_cells(&cells);
        let reports = result.rows.pop().unwrap_or_default();
        result.rows = chunk_rows(reports, platforms.len());
        result
    }

    /// Runs `cells`, returning their reports as the single row of the
    /// result, in input order.
    ///
    /// Cells run in parallel across the configured workers; each cell
    /// builds its own [`System`], so the reports are bit-identical to a
    /// serial run's regardless of the worker count. Each distinct
    /// [`CellSpec::key`] is simulated at most once per run: a repeated
    /// key takes its first occurrence's report and reads
    /// [`CellOutcome::Cached`]. With [`GridRun::checkpoint`] set, keys
    /// with a verified journal record are replayed instead of
    /// simulated; with [`GridRun::isolate`] set, failing cells are
    /// quarantined (their slot holds a zeroed placeholder report —
    /// check [`GridResult::outcomes`] before trusting a cell).
    ///
    /// # Panics
    ///
    /// Rethrows a cell panic in strict mode (the default), and panics
    /// if the checkpoint journal cannot be opened or appended to.
    pub fn run_cells(&self, cells: &[CellSpec]) -> GridResult {
        let n = cells.len();
        let cache = self.checkpoint.as_ref().map(|p| {
            ResultCache::open(p, self.fsync)
                .unwrap_or_else(|e| panic!("GridRun::checkpoint({}): {e}", p.display()))
        });
        let keys: Vec<u64> = cells.iter().map(CellSpec::key).collect();

        // Claim every distinct key before spinning up workers: a resumed
        // run only pays for what is missing, and a repeated key parks
        // behind its first occurrence instead of re-simulating.
        let mut owners: HashMap<u64, usize> = HashMap::with_capacity(n);
        let mut slots: Vec<Option<SimReport>> = (0..n).map(|_| None).collect();
        let mut outcomes: Vec<CellOutcome> = vec![CellOutcome::Completed; n];
        let mut todo: Vec<usize> = Vec::with_capacity(n);
        let mut parked: Vec<(usize, usize)> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            if let Some(&owner) = owners.get(&key) {
                parked.push((i, owner));
                continue;
            }
            owners.insert(key, i);
            match cache.as_ref().map(|c| c.claim(key, i)) {
                Some(Claim::Hit(r)) => {
                    slots[i] = Some(*r);
                    outcomes[i] = CellOutcome::Cached;
                }
                Some(Claim::Parked) => unreachable!("a run claims each key once"),
                Some(Claim::Owner) | None => todo.push(i),
            }
        }

        let job = |j: usize| {
            let i = todo[j];
            let report = cells[i].run().execute();
            // Publish inside the job, not after the run: a run killed
            // midway keeps every cell that finished.
            if let Some(c) = &cache {
                let (_, appended) = c.complete(keys[i], &report);
                appended.unwrap_or_else(|e| panic!("checkpoint journal append: {e}"));
            }
            report
        };
        let policy = if self.isolate {
            Policy::Isolate
        } else {
            Policy::Strict
        };
        let threads = self.threads.unwrap_or_else(default_threads);
        let mut walls = vec![Duration::ZERO; n];
        for (j, res) in par::map(todo.len(), threads, policy, job)
            .into_iter()
            .enumerate()
        {
            let i = todo[j];
            match res {
                Ok((report, wall)) => {
                    walls[i] = wall;
                    slots[i] = Some(report);
                }
                Err(e) => {
                    // The map reported the todo-local index; callers
                    // want the cell's index in `cells`.
                    outcomes[i] = CellOutcome::Quarantined(CellError { index: i, ..e });
                }
            }
        }
        // A repeated key takes its first occurrence's report, or shares
        // its failure.
        for (i, owner) in parked {
            outcomes[i] = match outcomes[owner].error() {
                Some(e) => CellOutcome::Quarantined(CellError {
                    index: i,
                    ..e.clone()
                }),
                None => {
                    slots[i] = slots[owner].clone();
                    CellOutcome::Cached
                }
            };
        }
        // Failed cells hold a zeroed placeholder.
        let reports: Vec<SimReport> = slots
            .into_iter()
            .zip(cells)
            .map(|(s, cell)| s.unwrap_or_else(|| tombstone(cell)))
            .collect();
        // Cached and failed cells carry zero wall time: nothing was
        // simulated for them this run.
        let profiles = self.profile.then(|| {
            reports
                .iter()
                .zip(&walls)
                .map(|(r, &w)| CellProfile::new(r, w))
                .collect()
        });
        GridResult {
            rows: vec![reports],
            profiles,
            outcomes,
        }
    }
}

/// Placeholder report occupying the row slot of a quarantined cell:
/// identity fields set, every measurement zero, every optional section
/// absent. Consumers that care must consult [`GridResult::outcomes`];
/// the zeros keep downstream arithmetic finite (`normalize_ipc` already
/// guards zero baselines).
fn tombstone(cell: &CellSpec) -> SimReport {
    SimReport {
        platform: cell.platform,
        mode: cell.mode,
        workload: cell.workload.name.to_string(),
        makespan: Ps::ZERO,
        instructions: 0,
        ipc: 0.0,
        mem_requests: 0,
        avg_mem_latency_ns: 0.0,
        l1_hit_rate: 0.0,
        l2_hit_rate: 0.0,
        hetero_dram_hit_rate: 0.0,
        migration_channel_fraction: 0.0,
        migrations: 0,
        channel_utilization: 0.0,
        channel_bits: (0, 0),
        energy: EnergyReport {
            dma_j: 0.0,
            dram_static_j: 0.0,
            dram_dynamic_j: 0.0,
            xpoint_j: 0.0,
        },
        host: None,
        wear_imbalance: 0.0,
        stages: None,
        faults: None,
        wear: None,
        phases: None,
    }
}

/// How one grid cell reached its row slot.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// Simulated to completion this run.
    Completed,
    /// Not simulated: replayed from the checkpoint journal, or a repeat
    /// of a key an earlier cell of the same run resolved.
    Cached,
    /// Panicked under [`GridRun::isolate`]; the row slot holds a zeroed
    /// placeholder.
    Quarantined(CellError),
}

impl CellOutcome {
    /// The failure behind a quarantined cell, if any.
    pub fn error(&self) -> Option<&CellError> {
        match self {
            CellOutcome::Completed | CellOutcome::Cached => None,
            CellOutcome::Quarantined(e) => Some(e),
        }
    }

    /// `true` for the cells whose row slot is a placeholder, not a
    /// simulated result.
    pub fn is_failure(&self) -> bool {
        self.error().is_some()
    }
}

/// The outcome of a [`GridRun`].
#[derive(Debug, Clone)]
pub struct GridResult {
    /// `rows[workload][platform]` in input order from [`GridRun::run`];
    /// one row holding every report in input order from
    /// [`GridRun::run_cells`].
    pub rows: Vec<Vec<SimReport>>,
    /// Per-cell wall-clock profiles in row-major cell order; `Some`
    /// only when [`GridRun::profile`] was requested.
    pub profiles: Option<Vec<CellProfile>>,
    /// Per-cell outcomes in row-major cell order — how each row slot
    /// was produced. All [`CellOutcome::Completed`] for a plain strict
    /// run whose cells are distinct.
    pub outcomes: Vec<CellOutcome>,
}

impl GridResult {
    /// Order-sensitive content digest over every report in the grid —
    /// the golden value behind the resume-bit-identity guarantee: a
    /// resumed run's digest equals an uninterrupted run's.
    pub fn digest(&self) -> u64 {
        checkpoint::grid_digest(self.rows.iter().flatten())
    }

    /// The quarantined cells, in row-major order.
    pub fn failures(&self) -> impl Iterator<Item = &CellError> {
        self.outcomes.iter().filter_map(CellOutcome::error)
    }
}

/// Splits a flat row-major cell vector into `rows[workload][platform]`.
fn chunk_rows(cells: Vec<SimReport>, cols: usize) -> Vec<Vec<SimReport>> {
    if cols == 0 {
        return Vec::new();
    }
    let mut rows: Vec<Vec<SimReport>> = Vec::with_capacity(cells.len() / cols);
    let mut cells = cells.into_iter();
    loop {
        let row: Vec<SimReport> = cells.by_ref().take(cols).collect();
        if row.is_empty() {
            return rows;
        }
        rows.push(row);
    }
}

/// Wall-clock profile of one grid cell — harness-side reporting only;
/// the [`SimReport`] itself never carries wall-clock time, so simulated
/// results stay deterministic.
#[derive(Debug, Clone)]
pub struct CellProfile {
    /// Platform simulated in this cell.
    pub platform: Platform,
    /// Workload name.
    pub workload: String,
    /// Host wall-clock time the cell's simulation took.
    pub wall: std::time::Duration,
    /// Simulated makespan of the cell.
    pub sim_makespan: ohm_sim::Ps,
    /// Simulation throughput: retired instructions + memory requests
    /// processed per host second.
    pub events_per_sec: f64,
}

impl CellProfile {
    fn new(report: &SimReport, wall: std::time::Duration) -> Self {
        let events = report.instructions + report.mem_requests;
        CellProfile {
            platform: report.platform,
            workload: report.workload.clone(),
            wall,
            sim_makespan: report.makespan,
            events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        }
    }
}

/// Geometric mean of a positive series (0 for an empty one).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Normalises each row of a grid to the column `baseline` (e.g. IPC
/// normalised to Ohm-base, as in Figure 16).
///
/// A stalled baseline cell (IPC ≤ 0, or non-finite) yields `0.0` for
/// its whole row rather than Inf/NaN — the ratio-metric policy
/// throughout the workspace is that degenerate denominators report a
/// finite zero, so [`column_geomeans`] stays finite.
pub fn normalize_ipc(grid: &[Vec<SimReport>], baseline: usize) -> Vec<Vec<f64>> {
    grid.iter()
        .map(|row| {
            let base = row[baseline].ipc;
            if base <= 0.0 || !base.is_finite() {
                return vec![0.0; row.len()];
            }
            row.iter().map(|r| r.ipc / base).collect()
        })
        .collect()
}

/// Per-column geometric mean across workloads of a normalised grid.
pub fn column_geomeans(normalized: &[Vec<f64>]) -> Vec<f64> {
    if normalized.is_empty() {
        return Vec::new();
    }
    let cols = normalized[0].len();
    (0..cols)
        .map(|c| {
            let col: Vec<f64> = normalized.iter().map(|row| row[c]).collect();
            geomean(&col)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohm_workloads::workload_by_name;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn grid_shape_and_normalisation() {
        let cfg = SystemConfig::quick_test();
        let specs = vec![workload_by_name("lud").unwrap()];
        let platforms = [Platform::OhmBase, Platform::Oracle];
        let grid = GridRun::new()
            .run(&cfg, &platforms, OperationalMode::Planar, &specs)
            .rows;
        assert_eq!(grid.len(), 1);
        assert_eq!(grid[0].len(), 2);
        let norm = normalize_ipc(&grid, 0);
        assert!((norm[0][0] - 1.0).abs() < 1e-12);
        let means = column_geomeans(&norm);
        assert_eq!(means.len(), 2);
        assert!((means[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grid_profile_matches_rows() {
        let cfg = SystemConfig::quick_test();
        let specs = vec![workload_by_name("lud").unwrap()];
        let platforms = [Platform::OhmBase, Platform::Oracle];
        let result =
            GridRun::serial()
                .profile(true)
                .run(&cfg, &platforms, OperationalMode::Planar, &specs);
        let profiles = result.profiles.expect("profiles requested");
        assert_eq!(profiles.len(), 2);
        for (p, r) in profiles.iter().zip(&result.rows[0]) {
            assert_eq!(p.platform, r.platform);
            assert_eq!(p.workload, r.workload);
            assert_eq!(p.sim_makespan, r.makespan);
            assert!(p.events_per_sec > 0.0);
        }
        // Unprofiled runs carry no profiles.
        let plain = GridRun::serial().run(&cfg, &platforms, OperationalMode::Planar, &specs);
        assert!(plain.profiles.is_none());
    }

    #[test]
    fn normalize_ipc_guards_zero_baseline() {
        let cfg = SystemConfig::quick_test();
        let spec = workload_by_name("lud").unwrap();
        let proto = Run::new(&cfg).workload(&spec).execute();
        let report = |ipc: f64| {
            let mut r = proto.clone();
            r.ipc = ipc;
            r
        };
        let grid = vec![
            vec![report(2.0), report(1.0)],
            vec![report(3.0), report(0.0)],
        ];
        let norm = normalize_ipc(&grid, 1);
        assert_eq!(norm[0], vec![2.0, 1.0]);
        // Zero baseline: whole row reports finite zero, not Inf/NaN.
        assert_eq!(norm[1], vec![0.0, 0.0]);
        let means = column_geomeans(&norm);
        assert!(means.iter().all(|m| m.is_finite()));
    }

    #[test]
    fn chunking_handles_empty_grids() {
        assert!(chunk_rows(Vec::new(), 3).is_empty());
        assert!(chunk_rows(Vec::new(), 0).is_empty());
    }
}
