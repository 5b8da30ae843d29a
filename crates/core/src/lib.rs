//! Full-system assembly for the Ohm-GPU reproduction.
//!
//! This crate wires the substrates together into the seven evaluated GPU
//! platforms and runs the paper's experiments:
//!
//! * [`config`] — Table I system configurations and scaling helpers.
//! * [`system`] — the event-driven full-system model: SMs and warps on
//!   top of L1/L2 caches, six memory controllers, an electrical or
//!   optical channel, DRAM/XPoint devices, and the platform-specific
//!   migration machinery.
//! * [`metrics`] — the [`SimReport`] produced by every run: IPC, memory
//!   latency, bandwidth breakdown, energy breakdown.
//! * [`energy`] — the energy model (GPUWattch-style DRAM numbers, Optane
//!   measurements for XPoint, the Table I optical power model).
//! * [`reliability`] — per-platform optical BER evaluation (Figure 20b).
//! * [`fault`] — deterministic fault injection and the graceful-
//!   degradation machinery (retransmission, re-arbitration, electrical
//!   fallback, media retry).
//! * [`cost`] — the Table III component-cost model and the
//!   cost-performance analysis of Figure 21.
//! * [`runner`] — the two execution surfaces: the single-cell
//!   [`runner::Run`] builder and the [`runner::GridRun`] sweep that
//!   produces the rows printed by the figure harnesses.
//! * [`checkpoint`] — the durable-sweep substrate: an append-only,
//!   CRC-checked journal of per-cell results keyed by the
//!   [`checkpoint::CellSpec`] content hash, and the
//!   [`checkpoint::ResultCache`] over it shared by
//!   [`runner::GridRun::checkpoint`] and the `ohm-serve` daemon.
//! * [`par`] — [`par::map`], the deterministic scoped-thread fan-out
//!   behind [`runner::GridRun`].
//!
//! The system model itself is layered (see [`system`]): a warp engine
//! over cache glue over a memory subsystem whose platform policy is a
//! [`system::MemoryBackend`] and whose channel is a [`system::Fabric`],
//! all recording into one [`system::RunStats`].
//!
//! # Quickstart
//!
//! ```
//! use ohm_core::config::SystemConfig;
//! use ohm_core::runner::Run;
//! use ohm_hetero::Platform;
//! use ohm_optic::OperationalMode;
//! use ohm_workloads::workload_by_name;
//!
//! let cfg = SystemConfig::quick_test();
//! let spec = workload_by_name("bfsdata").unwrap();
//! let report = Run::new(&cfg)
//!     .platform(Platform::OhmBase)
//!     .mode(OperationalMode::Planar)
//!     .workload(&spec)
//!     .execute();
//! assert!(report.ipc > 0.0);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod cost;
pub mod energy;
pub mod fault;
pub mod json;
pub mod metrics;
pub mod par;
pub mod reliability;
pub mod runner;
pub mod system;
mod trace;

pub use checkpoint::{CellSpec, FsyncPolicy, Journal, JournalError};
pub use config::{ConfigError, SystemConfig, SystemConfigBuilder};
pub use fault::{FaultCounters, FaultPlan, LifecyclePlan, RecoveryEvent};
pub use metrics::{FaultReport, PhaseRow, PhaseStageRow, PhaseSummary, SimReport, WearReport};
pub use runner::{GridRun, Run};
pub use system::System;

// Re-export the vocabulary types users need alongside this crate.
pub use ohm_hetero::Platform;
pub use ohm_optic::OperationalMode;
