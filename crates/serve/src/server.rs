//! The `ohm-serve` daemon: endpoints, scheduling, and restart resume.
//!
//! One [`Server`] owns the shared [`ResultCache`], the resident
//! [`WorkerPool`], the job table, and the append-only jobs log that
//! makes submissions durable. The HTTP surface is four endpoints:
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /jobs` | Submit a sweep job (body: [`parse_job`] spec) → `{"job": id}` |
//! | `GET /jobs/<id>` | Status/digest document |
//! | `GET /jobs/<id>/events` | NDJSON stream, one line per resolved cell |
//! | `GET /stats` | Cache hit-rate, quarantines, worker occupancy |
//!
//! # Restart resume
//!
//! Two files in the state directory carry everything: `cache.ohmj` (the
//! result journal) and `jobs.log` (`JOB <id> <escaped-spec>` on submit,
//! `DONE <id>` on completion). After a `SIGKILL`, reopening the state
//! directory replays the cache and re-enqueues every job without a
//! `DONE` line under its original id; cells already journaled resolve
//! as cache hits, the rest re-simulate, and the deterministic engine
//! plus the bit-exact codec make the resumed digest equal the
//! uninterrupted one.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use ohm_core::checkpoint::{Claim, FsyncPolicy, ResultCache};
use ohm_core::json::escape_json;
use ohm_core::par::default_threads;

use crate::http::{read_request, write_response, write_stream_header, HttpError, Request};
use crate::job::{parse_job, CellResolution, Job};
use crate::pool::WorkerPool;

/// Tunables for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads in the cell pool (default: all cores).
    pub workers: usize,
    /// Has no effect: every cell runs on one event loop. Kept only so
    /// existing struct literals still compile; the next change to the
    /// benchmark harness drops its last use and removes the field.
    pub cell_threads: usize,
    /// Durability policy for the result journal and the jobs log.
    /// Daemons default to [`FsyncPolicy::Always`]: the cache outlives
    /// any one process, so a host crash should lose at most the record
    /// being written.
    pub fsync: FsyncPolicy,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: default_threads(),
            cell_threads: 1,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// A parked claim's ticket: which job, which cell.
type Ticket = (Arc<Job>, usize);

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    cache: ResultCache<Ticket>,
    pool: WorkerPool,
    jobs: Mutex<JobTable>,
    quarantined: AtomicU64,
    stopping: AtomicBool,
}

/// The job table plus its durable log.
struct JobTable {
    by_id: HashMap<String, Arc<Job>>,
    /// Submission order, for deterministic listings.
    order: Vec<String>,
    log: BufWriter<std::fs::File>,
    fsync: FsyncPolicy,
    next_seq: u64,
}

impl JobTable {
    /// Appends one line to the jobs log, flushed (and synced under
    /// [`FsyncPolicy::Always`]) before returning.
    fn log_line(&mut self, line: &str) -> std::io::Result<()> {
        writeln!(self.log, "{line}")?;
        self.log.flush()?;
        if self.fsync == FsyncPolicy::Always {
            self.log.get_ref().sync_data()?;
        }
        Ok(())
    }
}

/// A running daemon. Binds on construction; [`Server::stop`] (or drop)
/// shuts down the accept loop and the worker pool.
pub struct Server {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), opens the state
    /// directory (created if missing), resumes every unfinished job
    /// from the jobs log, and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Bind/IO failures, or a corrupt state directory (a cache journal
    /// or jobs log the formats reject).
    pub fn start(
        addr: &str,
        state_dir: impl AsRef<Path>,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        let state_dir = state_dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&state_dir)?;
        let cache = ResultCache::open(state_dir.join("cache.ohmj"), opts.fsync)
            .map_err(|e| std::io::Error::other(format!("cache journal: {e}")))?;
        let (resume, next_seq) = recover_jobs_log(&jobs_log_path(&state_dir))?;
        let log = BufWriter::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(jobs_log_path(&state_dir))?,
        );

        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache,
            pool: WorkerPool::new(opts.workers),
            jobs: Mutex::new(JobTable {
                by_id: HashMap::new(),
                order: Vec::new(),
                log,
                fsync: opts.fsync,
                next_seq,
            }),
            quarantined: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
        });

        // Re-enqueue every job that was submitted but never finished —
        // under its original id, so clients can keep polling across the
        // restart. Specs that no longer parse (an incompatible upgrade)
        // are skipped with a warning rather than wedging startup, and
        // retired with a `DONE` line so no later start replays them.
        for (id, body) in resume {
            match parse_job(&body) {
                Ok(spec) => {
                    let job = Arc::new(Job::new(id, body, spec));
                    let mut jobs = shared.jobs.lock().expect("jobs lock");
                    jobs.by_id.insert(job.id.clone(), Arc::clone(&job));
                    jobs.order.push(job.id.clone());
                    drop(jobs);
                    enqueue_job(&shared, &job);
                }
                Err(e) => {
                    eprintln!("ohm-serve: skipping unresumable job {id}: {e}");
                    let mut jobs = shared.jobs.lock().expect("jobs lock");
                    if let Err(e) = jobs.log_line(&format!("DONE {id}")) {
                        eprintln!("ohm-serve: jobs log: {e}");
                    }
                }
            }
        }

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ohm-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept loop")
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Blocks until job `id` finishes; `None` when the id is unknown,
    /// `Some(digest)` otherwise (digest `None` when a cell
    /// quarantined). Test and embedding convenience — remote clients
    /// poll `GET /jobs/<id>` instead.
    pub fn wait_job(&self, id: &str) -> Option<Option<u64>> {
        let job = {
            let jobs = self.shared.jobs.lock().expect("jobs lock");
            jobs.by_id.get(id).cloned()
        }?;
        Some(job.wait_done())
    }

    /// Stops accepting connections, discards queued work, and joins the
    /// pool — the graceful sibling of `SIGKILL` (a job interrupted here
    /// resumes on the next start exactly like a killed one).
    pub fn stop(&mut self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.pool.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Path of the durable submissions log inside `state_dir`.
fn jobs_log_path(state_dir: &Path) -> PathBuf {
    state_dir.join("jobs.log")
}

/// Replays a jobs log: returns the unfinished jobs (id, spec body) in
/// submission order plus the next free id sequence number. Only complete
/// lines count: a torn tail (a kill mid-append) is cut back to the last
/// `\n`, as the journal does with torn frames, so the next append starts
/// a fresh line instead of being glued onto the fragment. Unparsable
/// complete lines are ignored.
fn recover_jobs_log(path: &Path) -> std::io::Result<(Vec<(String, String)>, u64)> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    if complete < bytes.len() {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(complete as u64)?;
    }
    let text = std::str::from_utf8(&bytes[..complete])
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut pending: Vec<(String, String)> = Vec::new();
    let mut max_seq = 0u64;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("JOB ") {
            let Some((id, escaped)) = rest.split_once(' ') else {
                continue;
            };
            let Some(body) = ohm_core::json::unescape_json(escaped) else {
                continue;
            };
            if let Some(seq) = id.strip_prefix('j').and_then(|s| s.parse::<u64>().ok()) {
                max_seq = max_seq.max(seq);
            }
            pending.push((id.to_string(), body));
        } else if let Some(id) = line.strip_prefix("DONE ") {
            pending.retain(|(p, _)| p != id.trim());
        }
    }
    Ok((pending, max_seq + 1))
}

/// Submits every cell of `job` to the pool.
fn enqueue_job(shared: &Arc<Shared>, job: &Arc<Job>) {
    for i in 0..job.spec.total() {
        submit_cell(shared, Arc::clone(job), i);
    }
}

/// Queues one (job, cell) task.
fn submit_cell(shared: &Arc<Shared>, job: Arc<Job>, index: usize) {
    let shared_for_task = Arc::clone(shared);
    shared
        .pool
        .submit(Box::new(move || run_cell(&shared_for_task, &job, index)));
}

/// Resolves one cell: cache hit, parked behind an in-flight owner, or
/// owned simulation. Exactly one `job.record` happens per cell — parked
/// tasks record nothing and are re-submitted by the owner's completion.
fn run_cell(shared: &Arc<Shared>, job: &Arc<Job>, index: usize) {
    let key = job.keys[index];
    match shared.cache.claim(key, (Arc::clone(job), index)) {
        Claim::Hit(report) => {
            finish_cell(shared, job, index, CellResolution::Cached, Some(&report));
        }
        Claim::Parked => {}
        Claim::Owner => {
            let cell = job.spec.cell(index);
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cell.run().execute()));
            match result {
                Ok(report) => {
                    let (parked, appended) = shared.cache.complete(key, &report);
                    if let Err(e) = appended {
                        eprintln!("ohm-serve: cache append for {key:016x} failed: {e}");
                    }
                    finish_cell(shared, job, index, CellResolution::Completed, Some(&report));
                    for (pjob, pi) in parked {
                        submit_cell(shared, pjob, pi);
                    }
                }
                Err(_) => {
                    let parked = shared.cache.abandon(key);
                    shared.quarantined.fetch_add(1, Ordering::Relaxed);
                    finish_cell(shared, job, index, CellResolution::Quarantined, None);
                    // The first re-claim becomes the next owner; a
                    // deterministic panic quarantines per job, a
                    // transient one can still converge.
                    for (pjob, pi) in parked {
                        submit_cell(shared, pjob, pi);
                    }
                }
            }
        }
    }
}

/// Records a resolution and, when it finished the job, logs `DONE`.
fn finish_cell(
    shared: &Arc<Shared>,
    job: &Arc<Job>,
    index: usize,
    resolution: CellResolution,
    report: Option<&ohm_core::SimReport>,
) {
    if job.record(index, resolution, report) {
        let mut jobs = shared.jobs.lock().expect("jobs lock");
        if let Err(e) = jobs.log_line(&format!("DONE {}", job.id)) {
            eprintln!("ohm-serve: jobs log: {e}");
        }
    }
}

/// The accept loop: one thread per connection, until stop.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let conn = listener.accept();
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("ohm-serve-conn".to_string())
                    .spawn(move || handle_connection(stream, &shared));
            }
            Err(e) => eprintln!("ohm-serve: accept: {e}"),
        }
    }
}

/// Reads one request and routes it.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let req = match read_request(&mut stream) {
        Ok(req) => req,
        Err(HttpError::TooLarge) => {
            let _ = write_response(&mut stream, 413, "text/plain", "body too large\n");
            return;
        }
        Err(HttpError::Bad(why)) => {
            let _ = write_response(&mut stream, 400, "text/plain", &format!("{why}\n"));
            return;
        }
        Err(HttpError::Io(_)) => return,
    };
    let _ = route(&mut stream, shared, &req);
}

/// Dispatches one request; all responses (including the event stream)
/// go through here.
fn route(stream: &mut TcpStream, shared: &Arc<Shared>, req: &Request) -> std::io::Result<()> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => match submit_job(shared, &req.body) {
            Ok(body) => write_response(stream, 200, "application/json", &body),
            Err(why) => write_response(
                stream,
                400,
                "application/json",
                &format!("{{\"error\":\"{}\"}}", escape_json(&why)),
            ),
        },
        ("GET", ["jobs", id]) => match lookup(shared, id) {
            Some(job) => write_response(stream, 200, "application/json", &job.status_json()),
            None => write_response(stream, 404, "text/plain", "no such job\n"),
        },
        ("GET", ["jobs", id, "events"]) => match lookup(shared, id) {
            Some(job) => stream_events(stream, &job),
            None => write_response(stream, 404, "text/plain", "no such job\n"),
        },
        ("GET", ["stats"]) => write_response(stream, 200, "application/json", &stats_json(shared)),
        ("GET" | "POST", _) => write_response(stream, 404, "text/plain", "no such endpoint\n"),
        _ => write_response(stream, 405, "text/plain", "method not allowed\n"),
    }
}

/// The job for `id`, if submitted (now or before a restart).
fn lookup(shared: &Shared, id: &str) -> Option<Arc<Job>> {
    shared
        .jobs
        .lock()
        .expect("jobs lock")
        .by_id
        .get(id)
        .cloned()
}

/// Validates, persists, registers and enqueues one submission.
fn submit_job(shared: &Arc<Shared>, body: &str) -> Result<String, String> {
    let spec = parse_job(body)?;
    let total = spec.total();
    let job = {
        let mut jobs = shared.jobs.lock().expect("jobs lock");
        let id = format!("j{}", jobs.next_seq);
        jobs.next_seq += 1;
        let job = Arc::new(Job::new(id, body.to_string(), spec));
        // Durable before visible: the JOB line hits the log (synced
        // under `Always`) before any worker can resolve a cell, so a
        // kill at any later point leaves a resumable record.
        jobs.log_line(&format!("JOB {} {}", job.id, escape_json(body)))
            .map_err(|e| format!("jobs log: {e}"))?;
        jobs.by_id.insert(job.id.clone(), Arc::clone(&job));
        jobs.order.push(job.id.clone());
        job
    };
    enqueue_job(shared, &job);
    Ok(format!(
        "{{\"job\":\"{}\",\"cells\":{total}}}",
        escape_json(&job.id)
    ))
}

/// Streams a job's NDJSON event lines as cells land, closing the
/// connection after the terminal `done` line.
fn stream_events(stream: &mut TcpStream, job: &Arc<Job>) -> std::io::Result<()> {
    write_stream_header(stream)?;
    let mut sent = 0usize;
    loop {
        let (lines, done) = job.wait_events(sent);
        sent += lines.len();
        for line in lines {
            stream.write_all(line.as_bytes())?;
            stream.write_all(b"\n")?;
        }
        stream.flush()?;
        if done {
            return Ok(());
        }
    }
}

/// The `GET /stats` document.
fn stats_json(shared: &Shared) -> String {
    let cache = shared.cache.stats();
    let jobs = shared.jobs.lock().expect("jobs lock");
    let (total, done) = jobs.order.iter().fold((0u64, 0u64), |(t, d), id| {
        let finished = jobs.by_id.get(id).map(|j| j.is_done()).unwrap_or(false);
        (t + 1, d + u64::from(finished))
    });
    format!(
        "{{\"workers\":{},\"busy\":{},\"jobs\":{total},\"jobs_done\":{done},\
         \"quarantined\":{},\"cache\":{{\"entries\":{},\"hits\":{},\"misses\":{},\"coalesced\":{},\
         \"recovered\":{},\"truncated_bytes\":{}}}}}",
        shared.pool.workers(),
        shared.pool.busy(),
        shared.quarantined.load(Ordering::Relaxed),
        shared.cache.len(),
        cache.hits,
        cache.misses,
        cache.coalesced,
        cache.recovered,
        cache.truncated_bytes,
    )
}
