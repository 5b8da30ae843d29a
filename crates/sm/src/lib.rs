//! GPU streaming-multiprocessor model for the Ohm-GPU reproduction.
//!
//! This crate is the "MacSim-lite" substitute for the paper's GPU
//! simulator substrate (see DESIGN.md for the substitution argument). It
//! models the parts of the GPU that shape memory traffic:
//!
//! * [`sm`] — streaming multiprocessors executing warps in an event-driven
//!   fashion: a warp alternates compute segments (booked on the SM's issue
//!   pipeline) and blocking memory operations, so memory latency is hidden
//!   exactly to the extent that other warps have issueable work — the same
//!   mechanism a cycle-level GPU model captures.
//! * [`cache`] — set-associative write-back caches for the private L1D
//!   (48 KB, 6-way) and shared L2 (6 MB, 8-way) of Table I.
//! * [`interconnect`] — the SM↔L2 crossbar with per-bank ports.
//! * [`types`] — the warp instruction-stream vocabulary shared with the
//!   workload generators.

#![warn(missing_docs)]

pub mod cache;
pub mod interconnect;
pub mod sm;
pub mod types;

pub use cache::{Cache, CacheConfig, Lookup};
pub use interconnect::{Interconnect, InterconnectConfig};
pub use sm::{Sm, SmConfig, Warp, WarpId, WarpState};
pub use types::{AccessKind, InstructionStream, WarpSlice};
