//! Discrete-event simulation kernel for the Ohm-GPU reproduction.
//!
//! This crate contains the domain-independent machinery that every other
//! crate in the workspace builds on:
//!
//! * [`time`] — picosecond-resolution simulated time ([`Ps`]) and clock
//!   domains ([`Freq`]). The paper's clocks (1.2 GHz streaming
//!   multiprocessors, 15 GHz electrical lanes, 30 GHz optical virtual
//!   channels) are all expressible.
//! * [`event`] — a deterministic event queue ([`EventQueue`]) with stable
//!   FIFO ordering among events scheduled for the same instant.
//! * [`resource`] — calendar-based single-server resources ([`Calendar`])
//!   used to model buses, banks, controllers and optical routes, with
//!   per-tag busy-time accounting for bandwidth breakdowns.
//! * [`stats`] — counters, running means, histograms and utilization
//!   timelines used to produce the paper's figures.
//! * [`rng`] — a small deterministic random number generator
//!   ([`SplitMix64`]) so simulations are exactly reproducible.
//!
//! # Example
//!
//! ```
//! use ohm_sim::{EventQueue, Ps, Calendar};
//!
//! let mut q = EventQueue::new();
//! q.push(Ps::from_ns(5), "late");
//! q.push(Ps::from_ns(1), "early");
//!
//! let mut bus = Calendar::new();
//! let (start, end) = bus.book(Ps::ZERO, Ps::from_ns(2));
//! assert_eq!((start, end), (Ps::ZERO, Ps::from_ns(2)));
//!
//! assert_eq!(q.pop(), Some((Ps::from_ns(1), "early")));
//! assert_eq!(q.pop(), Some((Ps::from_ns(5), "late")));
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod backoff;
pub mod div;
pub mod event;
pub mod hash;
pub mod resource;
pub mod rng;
pub mod sparse;
pub mod stats;
pub mod time;

pub use addr::Addr;
pub use backoff::ExponentialBackoff;
pub use div::FastDiv;
pub use event::EventQueue;
pub use hash::{FastBuildHasher, FastHasher, FastMap};
pub use resource::{Calendar, TaggedCalendar};
pub use rng::SplitMix64;
pub use sparse::SparseState;
pub use stats::{Counter, Histogram, RunningStats, Timeline};
pub use time::{Freq, Ps};

/// Iteration budget for randomized property tests and soak runs.
///
/// Returns `default` unless the `OHM_SOAK_ITERS` environment variable is
/// set to a positive integer, in which case that value wins. CI's
/// scheduled job exports a large value to reach full soak coverage while
/// the default `cargo test` run stays fast.
pub fn soak_iters(default: u64) -> u64 {
    std::env::var("OHM_SOAK_ITERS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}
