//! `ohm-serve`: the Ohm-GPU simulation-as-a-service daemon.
//!
//! A long-lived process that accepts sweep jobs over HTTP/JSON,
//! schedules their cells onto a resident worker pool, and
//! streams per-cell results back as NDJSON the moment each cell lands.
//! The centerpiece is a **shared content-addressed result cache**
//! ([`ResultCache`], the same store `GridRun::checkpoint` runs
//! through): every result is stored once, keyed by [`CellSpec::key`],
//! and backed by the `ohm-journal v1` format on disk. Overlapping sweeps from
//! concurrent clients therefore share work (the overlap is served
//! cached or coalesced onto an in-flight simulation, with zero
//! re-simulation), and a `SIGKILL`ed server resumes every half-finished
//! job bit-identically on restart, because the engine is deterministic
//! and the journal codec is bit-exact.
//!
//! The stack is deliberately std-only — no async runtime, no HTTP
//! dependency — matching the workspace's offline-build constraint:
//! blocking [`std::net::TcpListener`] accept loop, thread-per-connection
//! framing in [`http`], and the resident [`pool::WorkerPool`] for
//! simulation work, one cell per worker at a time.
//!
//! ```no_run
//! use ohm_serve::{Client, ServeOptions, Server};
//!
//! let server = Server::start("127.0.0.1:0", "/tmp/ohm-serve", ServeOptions::default())?;
//! let client = Client::new(server.local_addr().to_string());
//! let resp = client.submit(
//!     r#"{"platforms": ["Ohm-base", "Hetero"], "workloads": ["lud"]}"#,
//! )?;
//! assert_eq!(resp.status, 200);
//! # std::io::Result::Ok(())
//! ```
//!
//! [`CellSpec::key`]: ohm_core::checkpoint::CellSpec::key
//! [`ResultCache`]: ohm_core::checkpoint::ResultCache

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod job;
pub mod pool;
pub mod server;

pub use client::{Client, Response};
pub use job::{parse_job, CellResolution, Job, JobSpec};
pub use server::{ServeOptions, Server};
