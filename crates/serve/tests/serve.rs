//! End-to-end daemon tests over real sockets.
//!
//! The acceptance properties from the serve design: overlapping sweeps
//! from concurrent clients share the content-addressed cache with zero
//! re-simulation and bit-identical digests against serial references,
//! and a server restarted over a half-finished state directory resumes
//! the job bit-identically. (The ungraceful-kill variant of the second
//! property is exercised by `tools/serve_chaos.sh`, which `SIGKILL`s a
//! real daemon process; here the half-finished state is constructed
//! directly, which is both deterministic and exactly what a killed
//! server leaves behind.)

use std::path::PathBuf;

use ohm_core::checkpoint::{grid_digest, report_digest, FsyncPolicy, Journal};
use ohm_core::json::{escape_json, parse_json};
use ohm_core::SimReport;
use ohm_serve::{parse_job, Client, JobSpec, ServeOptions, Server};

/// A fresh per-test state directory under the system temp dir.
fn state_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ohm-serve-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn opts(workers: usize) -> ServeOptions {
    ServeOptions {
        workers,
        fsync: FsyncPolicy::Always,
        ..ServeOptions::default()
    }
}

/// Serial reference: every cell of `spec` simulated in-process, in cell
/// order.
fn serial_reports(spec: &JobSpec) -> Vec<SimReport> {
    spec.cells().iter().map(|c| c.run().execute()).collect()
}

/// Extracts the string field `key` from a JSON response body.
fn json_str(body: &str, key: &str) -> String {
    parse_json(body)
        .unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
        .get(key)
        .and_then(|v| v.as_str().map(str::to_string))
        .unwrap_or_else(|| panic!("no string {key:?} in {body:?}"))
}

/// Extracts the number field `key` from a JSON response body.
fn json_u64(body: &str, key: &str) -> u64 {
    parse_json(body)
        .unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
        .get(key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("no number {key:?} in {body:?}"))
}

const JOB_A: &str = r#"{
    "config": {"base": "quick_test", "insts_per_warp": 200, "seed": 3},
    "platforms": ["Ohm-base", "Hetero"],
    "workloads": ["lud", "pagerank"]
}"#;

/// Shares the Hetero×pagerank cell with [`JOB_A`] (same config).
const JOB_B: &str = r#"{
    "config": {"base": "quick_test", "insts_per_warp": 200, "seed": 3},
    "platforms": ["Hetero", "Oracle"],
    "workloads": ["pagerank", "betw"]
}"#;

#[test]
fn concurrent_overlapping_jobs_share_the_cache() {
    let dir = state_dir("overlap");
    let server = Server::start("127.0.0.1:0", &dir, opts(3)).unwrap();
    let client = Client::new(server.local_addr().to_string());

    // References, computed serially before the daemon touches anything.
    let spec_a = parse_job(JOB_A).unwrap();
    let spec_b = parse_job(JOB_B).unwrap();
    let expect_a = grid_digest(serial_reports(&spec_a).iter());
    let expect_b = grid_digest(serial_reports(&spec_b).iter());
    let unique: std::collections::HashSet<u64> = spec_a
        .cells()
        .iter()
        .chain(spec_b.cells().iter())
        .map(|c| c.key())
        .collect();
    assert_eq!(unique.len(), 7, "4 + 4 cells minus 1 overlapping");

    // Submit both jobs from concurrent clients and stream both event
    // feeds to completion.
    let submit = |body: &str| {
        let resp = client.submit(body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        json_str(&resp.body, "job")
    };
    let id_a = submit(JOB_A);
    let id_b = submit(JOB_B);
    let streamer = |id: String| {
        let client = client.clone();
        std::thread::spawn(move || {
            let mut lines = Vec::new();
            client
                .stream_events(&id, |l| lines.push(l.to_string()))
                .unwrap();
            lines
        })
    };
    let (events_a, events_b) = (streamer(id_a.clone()), streamer(id_b.clone()));
    let events_a = events_a.join().unwrap();
    let events_b = events_b.join().unwrap();

    // Both digests match the serial references bit-for-bit.
    let digest_a = server.wait_job(&id_a).unwrap().expect("no quarantine");
    let digest_b = server.wait_job(&id_b).unwrap().expect("no quarantine");
    assert_eq!(digest_a, expect_a);
    assert_eq!(digest_b, expect_b);

    // Event streams: one line per cell plus the terminal done line
    // carrying the digest.
    assert_eq!(events_a.len(), 5);
    assert_eq!(events_b.len(), 5);
    assert!(events_a[4].contains(&format!("\"digest\":\"{expect_a:016x}\"")));
    assert!(events_b[4].contains(&format!("\"digest\":\"{expect_b:016x}\"")));

    // Zero re-simulation: exactly one cache miss (= one simulation) per
    // unique cell, however the claims interleaved.
    let stats = client.stats().unwrap();
    assert_eq!(stats.status, 200);
    let misses: u64 = {
        let doc = parse_json(&stats.body).unwrap();
        doc.get("cache")
            .and_then(|c| c.get("misses"))
            .and_then(|v| v.as_u64())
            .unwrap()
    };
    assert_eq!(misses, 7, "one simulation per unique cell: {}", stats.body);

    // A third, fully-overlapping submission is served entirely from the
    // cache: the miss counter does not move and the digest is identical.
    let id_c = submit(JOB_A);
    assert_eq!(server.wait_job(&id_c).unwrap(), Some(expect_a));
    let stats = client.stats().unwrap();
    let doc = parse_json(&stats.body).unwrap();
    let misses = doc
        .get("cache")
        .and_then(|c| c.get("misses"))
        .and_then(|v| v.as_u64())
        .unwrap();
    let hits = doc
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert_eq!(misses, 7, "resubmission simulated nothing");
    assert!(hits >= 4, "resubmission was served cached: {}", stats.body);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_resumes_a_half_finished_job_bit_identically() {
    let dir = state_dir("resume");
    std::fs::create_dir_all(&dir).unwrap();

    // Construct exactly the state a SIGKILLed server leaves behind: a
    // JOB line with no DONE, and a cache journal holding a strict
    // subset of the job's cells.
    let spec = parse_job(JOB_A).unwrap();
    let cells = spec.cells();
    let reports = serial_reports(&spec);
    let expected = grid_digest(reports.iter());
    {
        let mut journal = Journal::open_with(dir.join("cache.ohmj"), FsyncPolicy::Always).unwrap();
        for i in [0usize, 2] {
            journal.append(cells[i].key(), &reports[i]).unwrap();
        }
    }
    std::fs::write(
        dir.join("jobs.log"),
        format!("JOB j5 {}\n", escape_json(JOB_A)),
    )
    .unwrap();

    // The restarted server resumes j5 under its original id: the two
    // journaled cells come back as cache hits, the other two simulate,
    // and the digest equals the uninterrupted serial reference.
    let server = Server::start("127.0.0.1:0", &dir, opts(2)).unwrap();
    let client = Client::new(server.local_addr().to_string());
    assert_eq!(
        server.wait_job("j5").expect("resumed under original id"),
        Some(expected),
        "resumed digest must be bit-identical"
    );
    let status = client.status("j5").unwrap();
    assert_eq!(status.status, 200);
    assert_eq!(json_str(&status.body, "digest"), format!("{expected:016x}"));
    assert_eq!(json_u64(&status.body, "resolved"), 4);

    let stats = client.stats().unwrap();
    let doc = parse_json(&stats.body).unwrap();
    let cache = doc.get("cache").unwrap();
    assert_eq!(cache.get("recovered").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(cache.get("hits").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(cache.get("misses").and_then(|v| v.as_u64()), Some(2));

    // Ids keep counting from the resumed job, so a restarted server
    // never reuses an id a client may still be polling.
    let resp = client.submit(JOB_B).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(json_str(&resp.body, "job"), "j6");
    server.wait_job("j6").unwrap();

    // The jobs log now carries DONE lines for both, so a further
    // restart resumes nothing but still serves the cache.
    drop(server);
    let server = Server::start("127.0.0.1:0", &dir, opts(2)).unwrap();
    let client = Client::new(server.local_addr().to_string());
    assert_eq!(
        client.status("j5").unwrap().status,
        404,
        "done jobs are not resumed"
    );
    let stats = client.stats().unwrap();
    let doc = parse_json(&stats.body).unwrap();
    assert_eq!(
        doc.get("cache")
            .and_then(|c| c.get("recovered"))
            .and_then(|v| v.as_u64()),
        Some(7),
        "every unique result survived: {}",
        stats.body
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_jobs_log_tail_does_not_swallow_later_lines() {
    let dir = state_dir("torn-log");
    std::fs::create_dir_all(&dir).unwrap();
    // A kill mid-append left j6's JOB line without its newline.
    std::fs::write(
        dir.join("jobs.log"),
        format!("JOB j5 {}\nJOB j6 {{\"plat", escape_json(JOB_A)),
    )
    .unwrap();

    // j5 resumes and finishes; its DONE line must land on a line of its
    // own rather than be glued onto the fragment.
    let mut server = Server::start("127.0.0.1:0", &dir, opts(2)).unwrap();
    server.wait_job("j5").expect("j5 resumes");
    server.stop();
    drop(server);

    let server = Server::start("127.0.0.1:0", &dir, opts(2)).unwrap();
    let client = Client::new(server.local_addr().to_string());
    assert_eq!(
        client.status("j5").unwrap().status,
        404,
        "a finished job must not resume again"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_stop_then_restart_finishes_the_job() {
    let dir = state_dir("stop");
    let body = JOB_B;
    let spec = parse_job(body).unwrap();
    let expected = grid_digest(serial_reports(&spec).iter());

    // Submit and stop immediately: whatever cells were still queued are
    // discarded, exactly like a kill.
    let mut server = Server::start("127.0.0.1:0", &dir, opts(1)).unwrap();
    let client = Client::new(server.local_addr().to_string());
    let resp = client.submit(body).unwrap();
    assert_eq!(resp.status, 200);
    let id = json_str(&resp.body, "job");
    server.stop();
    drop(server);

    // On restart the job either resumes (it was half-finished) or was
    // already done pre-stop; either way the content digest of its cells
    // is the serial reference.
    let server = Server::start("127.0.0.1:0", &dir, opts(2)).unwrap();
    match server.wait_job(&id) {
        Some(digest) => assert_eq!(digest, Some(expected), "resumed digest"),
        None => {
            // Finished before the stop: verify straight from the cache.
            let journal = Journal::open_with(dir.join("cache.ohmj"), FsyncPolicy::OnClose).unwrap();
            let digest = grid_digest(
                spec.cells()
                    .iter()
                    .map(|c| journal.get(c.key()).expect("cell journaled")),
            );
            assert_eq!(digest, expected);
        }
    }

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn http_surface_validates_and_reports_errors() {
    let dir = state_dir("http");
    let server = Server::start("127.0.0.1:0", &dir, opts(1)).unwrap();
    let client = Client::new(server.local_addr().to_string());

    // Invalid specs come back as 400 with the validator's message.
    for (body, needle) in [
        ("{", "expected"),
        (
            r#"{"platforms": ["GeForce"], "workloads": ["lud"]}"#,
            "unknown platform",
        ),
        (
            r#"{"platforms": ["Ohm-base"], "workloads": ["lud"], "config": {"sms": 0}}"#,
            "SM",
        ),
    ] {
        let resp = client.submit(body).unwrap();
        assert_eq!(resp.status, 400, "{body}");
        assert!(
            json_str(&resp.body, "error").contains(needle),
            "{body}: {}",
            resp.body
        );
    }

    // Unknown jobs and routes.
    assert_eq!(client.status("j999").unwrap().status, 404);
    assert_eq!(client.request("GET", "/teapot", "").unwrap().status, 404);
    assert_eq!(
        client.request("DELETE", "/jobs/j1", "").unwrap().status,
        405
    );
    assert!(client
        .stream_events("j999", |_| panic!("no events for unknown job"))
        .is_err());

    // A valid tiny job round-trips end to end through the client API.
    let resp = client
        .submit(r#"{"platforms": ["Ohm-base"], "workloads": ["lud"]}"#)
        .unwrap();
    assert_eq!(resp.status, 200);
    let id = json_str(&resp.body, "job");
    let digest = server.wait_job(&id).unwrap().expect("one healthy cell");
    let cell = &parse_job(r#"{"platforms": ["Ohm-base"], "workloads": ["lud"]}"#)
        .unwrap()
        .cells()[0];
    assert_eq!(digest, grid_digest([cell.run().execute()].iter()));
    let report = cell.run().execute();
    assert!(client.status(&id).unwrap().body.contains(&format!(
        "\"digest\":\"{:016x}\"",
        grid_digest([report.clone()].iter())
    )));
    assert_eq!(report_digest(&report), report_digest(&cell.run().execute()));

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
