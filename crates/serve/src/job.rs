//! Sweep-job specs and per-job progress state.
//!
//! A job arrives as one JSON document (`POST /jobs`), is validated into
//! a [`JobSpec`] — configuration knobs through
//! [`SystemConfig::builder`], platform/mode/workload names against the
//! simulator's own tables — and expands into row-major
//! [`CellSpec`]s in exactly `GridRun`'s cell order, so a job's digest
//! is directly comparable to a serial grid run of the same grid.
//!
//! ```json
//! {
//!   "config": {"base": "quick_test", "insts_per_warp": 400, "seed": 7},
//!   "platforms": ["Ohm-base", "Hetero"],
//!   "mode": "planar",
//!   "workloads": ["lud", "pagerank"],
//!   "footprint": 67108864
//! }
//! ```

use std::sync::{Condvar, Mutex};

use ohm_core::checkpoint::{grid_digest, report_digest, CellSpec};
use ohm_core::json::{escape_json, parse_json, JsonValue};
use ohm_core::{OperationalMode, Platform, SimReport, SystemConfig};
use ohm_workloads::{workload_by_name, WorkloadSpec};

/// A validated sweep job: the full grid a client asked for.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// System configuration shared by every cell.
    pub config: SystemConfig,
    /// Platform columns, in request order.
    pub platforms: Vec<Platform>,
    /// Operational mode shared by every cell.
    pub mode: OperationalMode,
    /// Workload rows, in request order (footprint already applied).
    pub workloads: Vec<WorkloadSpec>,
}

impl JobSpec {
    /// Number of cells in the grid.
    pub fn total(&self) -> usize {
        self.platforms.len() * self.workloads.len()
    }

    /// Cell `i` in row-major order: platform `i % platforms.len()` of
    /// workload `i / platforms.len()`, the exact order `GridRun` rows
    /// flatten to, which is what makes the job digest comparable to a
    /// serial grid run's.
    pub fn cell(&self, i: usize) -> CellSpec {
        let cols = self.platforms.len();
        CellSpec::new(
            self.config.clone(),
            self.platforms[i % cols],
            self.mode,
            self.workloads[i / cols],
        )
    }

    /// The grid's cells in row-major order — [`JobSpec::cell`] for
    /// every index.
    pub fn cells(&self) -> Vec<CellSpec> {
        (0..self.total()).map(|i| self.cell(i)).collect()
    }
}

/// The `u64` payload of `key` in `obj`, or a named error.
fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
}

/// Parses and validates one job body.
///
/// # Errors
///
/// A human-readable message naming the first invalid field — malformed
/// JSON, an unknown key, an unknown platform/workload/mode name, or a
/// configuration [`SystemConfig::builder`] rejects.
pub fn parse_job(body: &str) -> Result<JobSpec, String> {
    let doc = parse_json(body)?;
    let obj = doc.as_obj().ok_or("job body must be a JSON object")?;

    let mut builder = SystemConfig::quick_test().to_builder();
    let mut footprint: Option<u64> = None;
    let mut platforms: Option<Vec<Platform>> = None;
    let mut mode = OperationalMode::Planar;
    let mut workload_names: Option<Vec<String>> = None;

    for (key, value) in obj {
        match key.as_str() {
            "config" => {
                let members = value.as_obj().ok_or("`config` must be an object")?;
                // `base` selects the starting configuration, so apply
                // it first regardless of its textual position.
                if let Some(base) = value.get("base") {
                    let base = base.as_str().ok_or("`base` must be a string")?;
                    let cfg = match base {
                        "quick_test" => SystemConfig::quick_test(),
                        "evaluation" => SystemConfig::evaluation(),
                        other => {
                            return Err(format!(
                                "unknown base config {other:?} (quick_test, evaluation)"
                            ))
                        }
                    };
                    builder = cfg.to_builder();
                }
                for (k, v) in members {
                    builder = match k.as_str() {
                        "base" => builder, // handled above
                        "sms" => builder.sms(u64_field(v, k)? as usize),
                        "warps_per_sm" => builder.warps_per_sm(u64_field(v, k)? as usize),
                        "insts_per_warp" => builder.insts_per_warp(u64_field(v, k)?),
                        "controllers" => builder.controllers(u64_field(v, k)? as usize),
                        "interleave_bytes" => builder.interleave_bytes(u64_field(v, k)?),
                        "planar_ratio" => builder.planar_ratio(u64_field(v, k)? as usize),
                        "two_level_ratio" => builder.two_level_ratio(u64_field(v, k)? as usize),
                        "hot_threshold" => builder.hot_threshold(
                            u32::try_from(u64_field(v, k)?)
                                .map_err(|_| format!("`{k}` must fit in 32 bits"))?,
                        ),
                        "seed" => builder.seed(u64_field(v, k)?),
                        other => return Err(format!("unknown config key {other:?}")),
                    };
                }
            }
            "platforms" => {
                let names = value.as_arr().ok_or("`platforms` must be an array")?;
                let mut list = Vec::with_capacity(names.len());
                for n in names {
                    let n = n.as_str().ok_or("platform names must be strings")?;
                    list.push(
                        Platform::by_name(n).ok_or_else(|| format!("unknown platform {n:?}"))?,
                    );
                }
                platforms = Some(list);
            }
            "mode" => {
                let m = value.as_str().ok_or("`mode` must be a string")?;
                mode = match m.to_ascii_lowercase().as_str() {
                    "planar" => OperationalMode::Planar,
                    "two-level" | "twolevel" => OperationalMode::TwoLevel,
                    other => return Err(format!("unknown mode {other:?} (planar, two-level)")),
                };
            }
            "workloads" => {
                let names = value.as_arr().ok_or("`workloads` must be an array")?;
                let mut list = Vec::with_capacity(names.len());
                for n in names {
                    let n = n.as_str().ok_or("workload names must be strings")?;
                    // Resolve the footprint after the whole body parses.
                    workload_by_name(n).ok_or_else(|| format!("unknown workload {n:?}"))?;
                    list.push(n.to_string());
                }
                workload_names = Some(list);
            }
            "footprint" => footprint = Some(u64_field(value, key)?),
            other => return Err(format!("unknown job key {other:?}")),
        }
    }

    let platforms = platforms.ok_or("job must name at least one platform")?;
    let names = workload_names.ok_or("job must name at least one workload")?;
    if platforms.is_empty() || names.is_empty() {
        return Err("`platforms` and `workloads` must be non-empty".to_string());
    }
    if let Some(bytes) = footprint {
        builder = builder.footprint(bytes);
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let workloads = names
        .iter()
        .map(|n| {
            let spec = workload_by_name(n).expect("validated above");
            match footprint {
                Some(bytes) => spec.with_footprint(bytes),
                None => spec,
            }
        })
        .collect();
    Ok(JobSpec {
        config,
        platforms,
        mode,
        workloads,
    })
}

/// How one cell of a job was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellResolution {
    /// Simulated by this job (it owned the cache slot).
    Completed,
    /// Served from the shared result cache (stored earlier, by another
    /// job, or by an in-flight owner this cell coalesced onto).
    Cached,
    /// The simulation panicked; the cell carries no report and the job
    /// has no digest.
    Quarantined,
}

impl CellResolution {
    /// The event-stream rendering of this resolution.
    pub fn name(self) -> &'static str {
        match self {
            CellResolution::Completed => "completed",
            CellResolution::Cached => "cached",
            CellResolution::Quarantined => "quarantined",
        }
    }
}

/// Mutable progress of one job.
struct Progress {
    reports: Vec<Option<SimReport>>,
    resolved: usize,
    quarantined: u64,
    events: Vec<String>,
    done: bool,
    digest: Option<u64>,
}

/// One submitted job: its immutable spec plus concurrently-updated
/// progress (worker threads record cells; connection threads stream
/// events and read status).
pub struct Job {
    /// Server-assigned id (`j1`, `j2`, …), stable across restarts.
    pub id: String,
    /// The raw spec body as submitted — persisted verbatim to the jobs
    /// log so a restarted server re-parses the identical job.
    pub body: String,
    /// The validated spec.
    pub spec: JobSpec,
    /// The cells' content keys, in cell order.
    pub keys: Vec<u64>,
    progress: Mutex<Progress>,
    cv: Condvar,
}

/// Renders an `f64` for an event line: Rust's shortest round-trip form,
/// or `null` for the non-finite values JSON cannot carry.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl Job {
    /// A freshly submitted (or restart-recovered) job with no cells
    /// resolved.
    pub fn new(id: String, body: String, spec: JobSpec) -> Job {
        let total = spec.total();
        let keys = spec.cells().iter().map(CellSpec::key).collect();
        Job {
            id,
            body,
            spec,
            keys,
            progress: Mutex::new(Progress {
                reports: vec![None; total],
                resolved: 0,
                quarantined: 0,
                events: Vec::new(),
                done: false,
                digest: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Records cell `index` as resolved, appends its event line, and —
    /// when it was the last cell — finalizes the job: the digest is
    /// [`grid_digest`] over the reports in cell order (defined only
    /// when no cell is quarantined), and a terminal `done` line closes
    /// every event stream. Returns `true` exactly once per job — for
    /// the call that resolved the final cell — so the caller can take
    /// job-completion actions (the daemon's durable `DONE` log line)
    /// without a second lock-and-check race.
    pub fn record(
        &self,
        index: usize,
        resolution: CellResolution,
        report: Option<&SimReport>,
    ) -> bool {
        let cell = self.spec.cell(index);
        let mut line = format!(
            "{{\"cell\":{index},\"key\":\"{:016x}\",\"platform\":\"{}\",\"workload\":\"{}\",\"outcome\":\"{}\"",
            self.keys[index],
            escape_json(cell.platform.name()),
            escape_json(cell.workload.name),
            resolution.name(),
        );
        if let Some(r) = report {
            line.push_str(&format!(
                ",\"ipc\":{},\"makespan_ps\":{},\"report_digest\":\"{:016x}\"",
                json_f64(r.ipc),
                r.makespan.as_ps(),
                report_digest(r)
            ));
        }
        line.push('}');

        let mut p = self.progress.lock().expect("job lock");
        debug_assert!(p.reports[index].is_none(), "cell resolved twice");
        p.reports[index] = report.cloned();
        p.resolved += 1;
        if resolution == CellResolution::Quarantined {
            p.quarantined += 1;
        }
        p.events.push(line);
        let finished = p.resolved == self.spec.total();
        if finished {
            p.digest = (p.quarantined == 0)
                .then(|| grid_digest(p.reports.iter().map(|r| r.as_ref().expect("all resolved"))));
            p.done = true;
            let digest = match p.digest {
                Some(d) => format!("\"{d:016x}\""),
                None => "null".to_string(),
            };
            p.events
                .push(format!("{{\"done\":true,\"digest\":{digest}}}"));
        }
        self.cv.notify_all();
        finished
    }

    /// Blocks until the job has more than `from` event lines (or is
    /// done), then returns the new lines and whether the job finished.
    pub fn wait_events(&self, from: usize) -> (Vec<String>, bool) {
        let mut p = self.progress.lock().expect("job lock");
        while p.events.len() <= from && !p.done {
            p = self.cv.wait(p).expect("job lock");
        }
        (p.events[from.min(p.events.len())..].to_vec(), p.done)
    }

    /// Blocks until the job finishes; returns its digest (`None` when
    /// any cell quarantined).
    pub fn wait_done(&self) -> Option<u64> {
        let mut p = self.progress.lock().expect("job lock");
        while !p.done {
            p = self.cv.wait(p).expect("job lock");
        }
        p.digest
    }

    /// Whether every cell is resolved.
    pub fn is_done(&self) -> bool {
        self.progress.lock().expect("job lock").done
    }

    /// Cells quarantined so far.
    pub fn quarantined(&self) -> u64 {
        self.progress.lock().expect("job lock").quarantined
    }

    /// The `GET /jobs/<id>` status document.
    pub fn status_json(&self) -> String {
        let p = self.progress.lock().expect("job lock");
        let digest = match p.digest {
            Some(d) => format!("\"{d:016x}\""),
            None => "null".to_string(),
        };
        format!(
            "{{\"job\":\"{}\",\"state\":\"{}\",\"resolved\":{},\"cells\":{},\"quarantined\":{},\"digest\":{digest}}}",
            escape_json(&self.id),
            if p.done { "done" } else { "running" },
            p.resolved,
            self.spec.total(),
            p.quarantined,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohm_core::checkpoint::cell_key;

    fn smoke_body() -> &'static str {
        r#"{
            "config": {"base": "quick_test", "insts_per_warp": 200, "seed": 11},
            "platforms": ["Ohm-base", "Hetero"],
            "mode": "planar",
            "workloads": ["lud", "pagerank"]
        }"#
    }

    #[test]
    fn parses_a_full_job_spec() {
        let spec = parse_job(smoke_body()).unwrap();
        assert_eq!(spec.platforms, vec![Platform::OhmBase, Platform::Hetero]);
        assert_eq!(spec.mode, OperationalMode::Planar);
        assert_eq!(spec.workloads.len(), 2);
        assert_eq!(spec.config.insts_per_warp, 200);
        assert_eq!(spec.config.seed, 11);
        assert_eq!(spec.total(), 4);
        // Cell order is GridRun's row-major order, keyed identically.
        let cells = spec.cells();
        assert_eq!(cells[1].platform, Platform::Hetero);
        assert_eq!(cells[2].workload.name, "pagerank");
        assert_eq!(
            cells[3].key(),
            cell_key(
                &spec.config,
                Platform::Hetero,
                OperationalMode::Planar,
                &spec.workloads[1]
            )
        );
        assert_eq!(spec.cell(3).key(), cells[3].key());
    }

    #[test]
    fn footprint_applies_to_every_workload() {
        let body =
            r#"{"platforms": ["Oracle"], "workloads": ["lud", "betw"], "footprint": 8388608}"#;
        let spec = parse_job(body).unwrap();
        assert!(spec.workloads.iter().all(|w| w.footprint_bytes == 8 << 20));
    }

    #[test]
    fn rejects_invalid_specs_with_named_errors() {
        for (body, needle) in [
            ("not json", "expected"),
            ("[1,2]", "object"),
            (r#"{"platforms": ["Ohm-base"]}"#, "workload"),
            (r#"{"workloads": ["lud"]}"#, "platform"),
            (
                r#"{"platforms": ["GeForce"], "workloads": ["lud"]}"#,
                "unknown platform",
            ),
            (
                r#"{"platforms": ["Ohm-base"], "workloads": ["doom"]}"#,
                "unknown workload",
            ),
            (
                r#"{"platforms": ["Ohm-base"], "workloads": ["lud"], "mode": "diagonal"}"#,
                "unknown mode",
            ),
            (
                r#"{"platforms": ["Ohm-base"], "workloads": ["lud"], "config": {"warp_drive": 9}}"#,
                "unknown config key",
            ),
            (
                r#"{"platforms": ["Ohm-base"], "workloads": ["lud"], "turbo": true}"#,
                "unknown job key",
            ),
            (
                r#"{"platforms": ["Ohm-base"], "workloads": ["lud"], "config": {"sms": 0}}"#,
                "one sm",
            ),
            (
                r#"{"platforms": ["Ohm-base"], "workloads": ["lud"], "footprint": 3}"#,
                "footprint",
            ),
        ] {
            let err = parse_job(body).expect_err(body);
            assert!(
                err.to_ascii_lowercase().contains(needle),
                "{body}: {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn hot_threshold_past_32_bits_is_rejected_not_truncated() {
        // 2^32 + 1 used to wrap to 1, aliasing the cache key of
        // `hot_threshold: 1` and so another request's cached report.
        let body = r#"{"config": {"hot_threshold": 4294967297},
                       "platforms": ["Ohm-base"], "workloads": ["lud"]}"#;
        let err = parse_job(body).expect_err("out-of-range threshold accepted");
        assert_eq!(err, "`hot_threshold` must fit in 32 bits");
        let max = r#"{"config": {"hot_threshold": 4294967295},
                      "platforms": ["Ohm-base"], "workloads": ["lud"]}"#;
        assert_eq!(
            parse_job(max).unwrap().config.memory.hot_threshold,
            u32::MAX
        );
    }

    #[test]
    fn controllers_past_the_fabric_are_rejected() {
        // Seven controllers used to parse, then quarantine every cell.
        let body = r#"{"config": {"controllers": 7},
                       "platforms": ["Ohm-base"], "workloads": ["lud"]}"#;
        let err = parse_job(body).expect_err("7 controllers accepted");
        assert!(err.contains("controllers"), "{err}");
        let six = r#"{"config": {"controllers": 6},
                      "platforms": ["Ohm-base"], "workloads": ["lud"]}"#;
        assert_eq!(parse_job(six).unwrap().config.memory.controllers, 6);
    }

    #[test]
    fn an_oversized_gpu_is_rejected_before_a_worker_allocates_it() {
        // 2^40 SMs, or warps per SM, used to parse; the worker then
        // aborted the whole daemon allocating per-SM state.
        for knob in ["sms", "warps_per_sm"] {
            let body = format!(
                r#"{{"config": {{"{knob}": 1099511627776}},
                    "platforms": ["Ohm-base"], "workloads": ["lud"]}}"#
            );
            let err = parse_job(&body).expect_err(&body);
            assert!(err.contains("limit of 1024 SMs"), "{knob}: {err}");
        }
    }

    #[test]
    fn job_records_events_and_finalizes_digest() {
        let spec = parse_job(smoke_body()).unwrap();
        let reports: Vec<SimReport> = spec.cells().iter().map(|c| c.run().execute()).collect();
        let expected = grid_digest(reports.iter());

        let job = Job::new("j1".into(), smoke_body().into(), spec);
        assert!(!job.is_done());
        for (i, r) in reports.iter().enumerate() {
            let res = if i == 0 {
                CellResolution::Completed
            } else {
                CellResolution::Cached
            };
            job.record(i, res, Some(r));
        }
        assert!(job.is_done());
        assert_eq!(job.wait_done(), Some(expected));
        let (events, done) = job.wait_events(0);
        assert!(done);
        assert_eq!(events.len(), 5, "4 cells + terminal done line");
        assert!(events[0].contains("\"outcome\":\"completed\""));
        assert!(events[1].contains("\"outcome\":\"cached\""));
        assert!(events[4].contains(&format!("\"digest\":\"{expected:016x}\"")));
        assert!(job.status_json().contains("\"state\":\"done\""));
    }

    #[test]
    fn quarantined_cell_voids_the_digest() {
        let spec = parse_job(
            r#"{"platforms": ["Ohm-base"], "workloads": ["lud"], "config": {"insts_per_warp": 50}}"#,
        )
        .unwrap();
        let job = Job::new("j9".into(), String::new(), spec);
        job.record(0, CellResolution::Quarantined, None);
        assert!(job.is_done());
        assert_eq!(job.wait_done(), None);
        assert_eq!(job.quarantined(), 1);
        assert!(job.status_json().contains("\"digest\":null"));
    }
}
