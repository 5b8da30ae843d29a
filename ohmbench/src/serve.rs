//! The serve-sweep workload: one closed-loop client driving an in-process
//! `ohm-serve` daemon over HTTP, exactly as `ohm_client run` and sweep
//! scripts use it — submit a job, read its NDJSON events until the `done`
//! line, then submit the next.
//!
//! A [`SweepPlan`] is a list of segments. Each segment fixes a config
//! seed, a mode, the platform columns and an ordered list of workload
//! rows; its jobs are the consecutive row pairs, so every job after a
//! segment's first repeats one row of the previous job (cache hits) and
//! adds one new row (fresh simulations).

use std::path::Path;
use std::time::{Duration, Instant};

use ohm_core::checkpoint::{grid_digest, report_digest};
use ohm_core::json::{parse_json, JsonValue};
use ohm_core::{FsyncPolicy, GridRun, OperationalMode, Platform, SimReport, SystemConfig};
use ohm_serve::{Client, ServeOptions, Server};
use ohm_sim::SplitMix64;
use ohm_workloads::{all_workloads, workload_by_name};

use crate::workload::Grid;

/// Segments of the serve-sweep plan: 18 segments x 9 jobs = 162 jobs,
/// so both fresh cells (1260) and cache hits (1008) reach p99.
const SWEEP_SEGMENTS: usize = 18;

/// Seeds must survive the job body's JSON numbers (f64).
const JSON_SEED_MASK: u64 = (1 << 52) - 1;

/// One segment of a sweep plan.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Config seed of every job in the segment.
    pub seed: u64,
    /// Operational mode.
    pub mode: OperationalMode,
    /// Platform columns.
    pub platforms: Vec<Platform>,
    /// Workload rows, in job order.
    pub workloads: Vec<&'static str>,
}

impl Segment {
    /// The segment's configuration: `quick_test` with its seed, as
    /// `parse_job` builds it.
    pub fn config(&self) -> SystemConfig {
        SystemConfig::quick_test()
            .to_builder()
            .seed(self.seed)
            .build()
            .expect("quick_test is valid")
    }

    /// The segment's whole grid, every row at once.
    pub fn grid(&self) -> Grid {
        Grid {
            cfg: self.config(),
            mode: self.mode,
            platforms: self.platforms.clone(),
            specs: self
                .workloads
                .iter()
                .map(|n| workload_by_name(n).expect("Table II workload"))
                .collect(),
        }
    }

    /// The job body for rows `row` and `row + 1`.
    pub fn job_body(&self, row: usize) -> String {
        let quoted = |names: Vec<&str>| {
            names
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"config\":{{\"base\":\"quick_test\",\"seed\":{}}},\"platforms\":[{}],\"mode\":\"{}\",\"workloads\":[{}]}}",
            self.seed,
            quoted(self.platforms.iter().map(|p| p.name()).collect()),
            match self.mode {
                OperationalMode::Planar => "planar",
                OperationalMode::TwoLevel => "two-level",
            },
            quoted(self.workloads[row..row + 2].to_vec()),
        )
    }
}

/// A fixed sequence of jobs.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// The segments, in submission order.
    pub segments: Vec<Segment>,
}

impl SweepPlan {
    /// The serve-sweep plan for a workload seed: segments alternate
    /// planar and two-level mode over all seven platforms, each with the
    /// ten Table II workloads in a seed-shuffled order.
    pub fn serve_sweep(seed: u64) -> SweepPlan {
        let mut rng = SplitMix64::new(seed);
        let segments = (0..SWEEP_SEGMENTS)
            .map(|s| {
                let mut names: Vec<&'static str> = all_workloads().iter().map(|w| w.name).collect();
                for i in (1..names.len()).rev() {
                    names.swap(i, rng.next_below(i as u64 + 1) as usize);
                }
                Segment {
                    seed: rng.next_u64() & JSON_SEED_MASK,
                    mode: if s % 2 == 0 {
                        OperationalMode::Planar
                    } else {
                        OperationalMode::TwoLevel
                    },
                    platforms: Platform::ALL.to_vec(),
                    workloads: names,
                }
            })
            .collect();
        SweepPlan { segments }
    }

    /// A one-segment plan over a simulation workload's own grid shape at
    /// quick-test scale: how the daemon's layers fare on that cell mix.
    pub fn probe(
        seed: u64,
        mode: OperationalMode,
        platforms: Vec<Platform>,
        workloads: Vec<&'static str>,
    ) -> SweepPlan {
        SweepPlan {
            segments: vec![Segment {
                seed: seed & JSON_SEED_MASK,
                mode,
                platforms,
                workloads,
            }],
        }
    }

    /// Every job as (segment, first row).
    pub fn jobs(&self) -> Vec<(usize, usize)> {
        self.segments
            .iter()
            .enumerate()
            .flat_map(|(s, seg)| (0..seg.workloads.len().saturating_sub(1)).map(move |r| (s, r)))
            .collect()
    }
}

/// The plan's reference results: one plain serial `GridRun` per segment,
/// `rows[segment][row][platform]`.
pub fn reference(plan: &SweepPlan) -> Vec<Vec<Vec<SimReport>>> {
    plan.segments
        .iter()
        .map(|seg| {
            let g = seg.grid();
            GridRun::serial()
                .run(&g.cfg, &g.platforms, g.mode, &g.specs)
                .rows
        })
        .collect()
}

/// One NDJSON line of a job's event stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A resolved cell.
    Cell {
        /// Row-major cell index within the job.
        index: usize,
        /// `completed` (simulated for this job), `cached` or `quarantined`.
        outcome: String,
        /// Digest of the cell's report; absent for a quarantined cell.
        report_digest: Option<u64>,
    },
    /// The terminal line; `digest` is absent when a cell quarantined.
    Done {
        /// The job's `grid_digest`.
        digest: Option<u64>,
    },
}

fn hex(v: Option<&JsonValue>) -> Option<u64> {
    v.and_then(JsonValue::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
}

/// Parses one event-stream line.
pub fn parse_event(line: &str) -> Option<Event> {
    let doc = parse_json(line).ok()?;
    if doc.get("done").and_then(JsonValue::as_bool) == Some(true) {
        return Some(Event::Done {
            digest: hex(doc.get("digest")),
        });
    }
    Some(Event::Cell {
        index: doc.get("cell")?.as_u64()? as usize,
        outcome: doc.get("outcome")?.as_str()?.to_string(),
        report_digest: hex(doc.get("report_digest")),
    })
}

/// The job id of a `POST /jobs` reply.
pub fn parse_job_id(body: &str) -> Option<String> {
    Some(parse_json(body).ok()?.get("job")?.as_str()?.to_string())
}

/// The fields of `GET /stats` the benchmark reads.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerStats {
    /// Pool workers.
    pub workers: u64,
    /// Workers running a cell.
    pub busy: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (cells simulated).
    pub misses: u64,
    /// Claims that parked behind an in-flight owner.
    pub coalesced: u64,
}

/// Parses a `GET /stats` document.
pub fn parse_stats(body: &str) -> Option<ServerStats> {
    let doc = parse_json(body).ok()?;
    let cache = doc.get("cache")?;
    Some(ServerStats {
        workers: doc.get("workers")?.as_u64()?,
        busy: doc.get("busy")?.as_u64()?,
        hits: cache.get("hits")?.as_u64()?,
        misses: cache.get("misses")?.as_u64()?,
        coalesced: cache.get("coalesced")?.as_u64()?,
    })
}

/// Daemon options: `workers` pool threads, `FsyncPolicy::Always`.
fn options(workers: usize) -> ServeOptions {
    ServeOptions {
        workers,
        cell_threads: 1,
        fsync: FsyncPolicy::Always,
    }
}

/// Times one `Server::start` on a fresh state directory, then stops the
/// daemon and removes the directory.
pub fn start_only(state_dir: &Path, workers: usize) -> Duration {
    let _ = std::fs::remove_dir_all(state_dir);
    let t = Instant::now();
    let server =
        Server::start("127.0.0.1:0", state_dir, options(workers)).expect("start ohm-serve");
    let took = t.elapsed();
    drop(server);
    let _ = std::fs::remove_dir_all(state_dir);
    took
}

/// Everything one sweep measured.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    /// `Server::start` on a fresh state directory.
    pub setup: Duration,
    /// First submit to the last `done` line.
    pub wall: Duration,
    /// Each job's submit to its `done` line, in job order.
    pub jobs: Vec<Duration>,
    /// Cells resolved.
    pub cells: u64,
    /// Simulated events of the cells the daemon simulated.
    pub fresh_events: u64,
    /// Submit to NDJSON line, per freshly simulated cell, in plan order
    /// (job, then cell index), so sweeps line up cell by cell.
    pub fresh: Vec<Duration>,
    /// Submit to NDJSON line, per cell served from the cache, in plan
    /// order.
    pub hits: Vec<Duration>,
    /// `Client::submit` round trips.
    pub submit: Vec<Duration>,
    /// Submit to the first NDJSON line, per job.
    pub first_event: Vec<Duration>,
    /// Busy / workers from `GET /stats`, once per job (traced sweeps).
    pub busy: Vec<f64>,
    /// `GET /stats` after the last job (traced sweeps).
    pub stats: Option<ServerStats>,
    /// Operations attempted: HTTP requests and cells.
    pub attempted: u64,
    /// Failed operations: non-200 replies, quarantined cells, digests
    /// that differ from the reference.
    pub failed: u64,
    /// `grid_digest` over every job's done digest, in job order.
    pub digest: u64,
}

/// Runs the plan once against a fresh daemon in `state_dir`, checking
/// every cell and job digest against `rows` (from [`reference`]).
/// A traced sweep also samples `GET /stats` once per job.
pub fn run_sweep(
    plan: &SweepPlan,
    rows: &[Vec<Vec<SimReport>>],
    state_dir: &Path,
    workers: usize,
    traced: bool,
) -> Sweep {
    let _ = std::fs::remove_dir_all(state_dir);
    let t = Instant::now();
    let mut server =
        Server::start("127.0.0.1:0", state_dir, options(workers)).expect("start ohm-serve");
    let mut out = Sweep {
        setup: t.elapsed(),
        ..Sweep::default()
    };
    let client = Client::new(server.local_addr().to_string());
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let start = Instant::now();
    for (s, row) in plan.jobs() {
        let seg = &plan.segments[s];
        let cols = seg.platforms.len();
        let expected: Vec<&SimReport> = rows[s][row].iter().chain(&rows[s][row + 1]).collect();
        let submitted = Instant::now();
        out.attempted += 1;
        let id = match client.submit(&seg.job_body(row)) {
            Ok(r) if r.status == 200 => parse_job_id(&r.body),
            _ => None,
        };
        out.submit.push(submitted.elapsed());
        let Some(id) = id else {
            out.failed += 1;
            out.jobs.push(submitted.elapsed());
            continue;
        };
        let mut first = true;
        let mut done = None;
        let mut resolved: Vec<(usize, bool, Duration)> = Vec::new();
        let mut cell_failures = 0u64;
        let mut busy_sample = None;
        out.attempted += 1;
        let streamed = client.stream_events(&id, |line| {
            let at = submitted.elapsed();
            if first {
                out.first_event.push(at);
                first = false;
                if traced {
                    busy_sample = client.stats().ok().and_then(|r| parse_stats(&r.body));
                }
            }
            match parse_event(line) {
                Some(Event::Cell {
                    index,
                    outcome,
                    report_digest: d,
                }) => {
                    out.cells += 1;
                    let want = expected.get(index).map(|r| report_digest(r));
                    let good = d.is_some() && d == want;
                    match outcome.as_str() {
                        "completed" if good => {
                            resolved.push((index, false, at));
                            let r = expected[index];
                            out.fresh_events += r.instructions + r.mem_requests;
                        }
                        "cached" if good => resolved.push((index, true, at)),
                        _ => cell_failures += 1,
                    }
                }
                Some(Event::Done { digest: d }) => done = Some(d),
                None => cell_failures += 1,
            }
        });
        resolved.sort_by_key(|&(index, _, _)| index);
        for (_, cached, at) in resolved {
            if cached {
                out.hits.push(at);
            } else {
                out.fresh.push(at);
            }
        }
        out.attempted += 2 * cols as u64;
        out.failed += cell_failures;
        let want = grid_digest(expected.iter().copied());
        out.jobs.push(submitted.elapsed());
        match (streamed, done) {
            (Ok(()), Some(Some(d))) if d == want => {
                digest = (digest ^ d).wrapping_mul(0x0000_0100_0000_01b3);
            }
            _ => out.failed += 1,
        }
        if let Some(st) = busy_sample {
            out.busy.push(st.busy as f64 / st.workers.max(1) as f64);
        }
    }
    out.wall = start.elapsed();
    if traced {
        out.attempted += 1;
        out.stats = client.stats().ok().and_then(|r| parse_stats(&r.body));
        if out.stats.is_none() {
            out.failed += 1;
        }
    }
    out.digest = digest;
    server.stop();
    drop(server);
    let _ = std::fs::remove_dir_all(state_dir);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cell_done_and_stats_lines() {
        let cell = r#"{"cell":3,"key":"00ff00ff00ff00ff","platform":"Ohm-BW","workload":"lud","outcome":"cached","ipc":1.25,"makespan_ps":123456,"report_digest":"0123456789abcdef"}"#;
        assert_eq!(
            parse_event(cell),
            Some(Event::Cell {
                index: 3,
                outcome: "cached".to_string(),
                report_digest: Some(0x0123_4567_89ab_cdef),
            })
        );
        let quarantined =
            r#"{"cell":0,"key":"1","platform":"Oracle","workload":"lud","outcome":"quarantined"}"#;
        assert!(matches!(
            parse_event(quarantined),
            Some(Event::Cell {
                report_digest: None,
                ..
            })
        ));
        assert_eq!(
            parse_event(r#"{"done":true,"digest":"00000000000000ff"}"#),
            Some(Event::Done { digest: Some(255) })
        );
        assert_eq!(
            parse_event(r#"{"done":true,"digest":null}"#),
            Some(Event::Done { digest: None })
        );
        assert_eq!(parse_event("not json"), None);

        let stats = r#"{"workers":2,"busy":1,"cell_threads":1,"jobs":4,"jobs_done":3,"quarantined":0,"cache":{"entries":9,"hits":5,"misses":9,"coalesced":2,"recovered":0,"truncated_bytes":0}}"#;
        assert_eq!(
            parse_stats(stats),
            Some(ServerStats {
                workers: 2,
                busy: 1,
                hits: 5,
                misses: 9,
                coalesced: 2,
            })
        );
        assert_eq!(parse_stats(r#"{"workers":2}"#), None);
        assert_eq!(
            parse_job_id(r#"{"job":"j7","cells":14}"#),
            Some("j7".to_string())
        );
    }

    #[test]
    fn job_bodies_parse_and_repeat_one_row() {
        let plan = SweepPlan::serve_sweep(11);
        assert_eq!(plan.jobs().len(), 162);
        let seg = &plan.segments[1];
        let spec = ohm_serve::parse_job(&seg.job_body(3)).expect("valid job body");
        assert_eq!(spec.config.seed, seg.seed);
        assert_eq!(spec.mode, OperationalMode::TwoLevel);
        assert_eq!(spec.platforms, Platform::ALL.to_vec());
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name).collect();
        assert_eq!(names, seg.workloads[3..5].to_vec());
        assert_eq!(
            spec.cells()[0].key(),
            ohm_core::CellSpec::new(seg.config(), Platform::Origin, seg.mode, spec.workloads[0])
                .key()
        );
        // Consecutive jobs share a row.
        let next = ohm_serve::parse_job(&seg.job_body(4)).unwrap();
        assert_eq!(next.workloads[0].name, spec.workloads[1].name);
    }

    #[test]
    fn the_seed_drives_the_plan() {
        let a = SweepPlan::serve_sweep(1);
        let b = SweepPlan::serve_sweep(1);
        let c = SweepPlan::serve_sweep(2);
        let key = |p: &SweepPlan| {
            p.segments
                .iter()
                .map(|s| (s.seed, s.workloads.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
    }

    #[test]
    fn a_probe_sweep_matches_its_reference() {
        let plan = SweepPlan::probe(
            5,
            OperationalMode::Planar,
            vec![Platform::OhmBase, Platform::Oracle],
            vec!["lud", "bfsdata", "backp"],
        );
        let rows = reference(&plan);
        let dir = std::env::temp_dir().join(format!("ohmbench-serve-test-{}", std::process::id()));
        let sweep = run_sweep(&plan, &rows, &dir, 2, true);
        assert_eq!(sweep.failed, 0, "{sweep:?}");
        assert_eq!(sweep.cells, 8);
        // The second job repeats the first job's second row.
        assert_eq!(sweep.hits.len(), 2);
        assert_eq!(sweep.fresh.len(), 6);
        let stats = sweep.stats.unwrap();
        assert_eq!((stats.hits, stats.misses), (2, 6));
    }
}
