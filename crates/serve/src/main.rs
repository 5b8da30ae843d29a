//! The `ohm-serve` daemon binary.
//!
//! Boots a [`Server`] and blocks until killed. The bound address is
//! printed (flushed) as the first stdout line so wrappers that bind
//! port 0 — the chaos script, CI — can scrape the ephemeral port:
//!
//! ```text
//! ohm-serve [--addr HOST:PORT] [--state-dir DIR] [--workers N]
//!           [--fsync always|on-close]
//! ```
//!
//! Defaults: `127.0.0.1:7716`, state in `.ohm-serve/`, one worker per
//! core (each runs one cell at a time on one event loop), `fsync
//! always` (a daemon's cache outlives any one process, so durability is
//! the default).

use std::io::Write;

use ohm_core::checkpoint::FsyncPolicy;
use ohm_serve::{ServeOptions, Server};

fn usage() -> ! {
    eprintln!(
        "usage: ohm-serve [--addr HOST:PORT] [--state-dir DIR] [--workers N] \
         [--fsync always|on-close]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7716".to_string();
    let mut state_dir = ".ohm-serve".to_string();
    let mut opts = ServeOptions::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v,
                None => usage(),
            },
            "--state-dir" => match it.next() {
                Some(v) => state_dir = v,
                None => usage(),
            },
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.workers = n,
                _ => usage(),
            },
            "--fsync" => match it.next().as_deref().and_then(FsyncPolicy::parse) {
                Some(p) => opts.fsync = p,
                None => usage(),
            },
            _ => usage(),
        }
    }

    let server = match Server::start(&addr, &state_dir, opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ohm-serve: {e}");
            std::process::exit(1);
        }
    };
    println!("ohm-serve listening on {}", server.local_addr());
    std::io::stdout().flush().expect("flush stdout");
    // Serve until killed; resume comes from the state directory, not
    // from anything held here.
    loop {
        std::thread::park();
    }
}
