//! Memory device models for the Ohm-GPU reproduction.
//!
//! This crate implements the heterogeneous-memory substrate the paper
//! builds on (its Section II-C and Figure 4):
//!
//! * [`dram`] — a banked DRAM module with row buffers and the Table I
//!   timing parameters (tRCD 25 ns, tRP 10 ns, tCL 11 ns, tRRD 5 ns) plus
//!   periodic refresh.
//! * [`xpoint`] — the 3D XPoint media model: 190 ns reads, 763 ns writes,
//!   per-partition service, a read buffer and a persistent write buffer
//!   (the asymmetric-frequency decoupling of the XPoint controller).
//! * [`wear`] — Start-Gap wear leveling [Qureshi et al., MICRO'09], the
//!   scheme the paper adopts to avoid a DRAM-resident mapping table, plus
//!   endurance accounting.
//! * [`lifecycle`] — the media end-of-life model: per-bucket endurance
//!   budgets with process variation, wear-ramped ECC error rates, and the
//!   classification (healthy / corrected / uncorrectable / worn-out) the
//!   controller acts on.
//! * [`xpoint_ctrl`] — the XPoint controller: address translation through
//!   Start-Gap, buffering, the DDR-T asynchronous handshake, the *snarf*
//!   capability used by auto-read/write, and the DDR sequence generator
//!   used by the swap function.
//! * [`protocol`] — DDR command vocabulary, including the paper's new
//!   `SWAP-CMD`.
//! * [`ddr_seq`] — the DDR sequence generator (swap function) and the DDR
//!   monitor (reverse write) of Section V-A.

#![warn(missing_docs)]

pub mod ddr_seq;
pub mod dram;
pub mod lifecycle;
pub mod protocol;
pub mod wear;
pub mod xpoint;
pub mod xpoint_ctrl;

pub use ddr_seq::{DdrMonitor, DdrSequenceGenerator, MonitorState};
pub use dram::{DramAccess, DramConfig, DramModule, DramTiming};
pub use lifecycle::{
    LifecycleOutcome, LineLifecycle, XpLifecycleConfig, XpLifecycleEvent, XpLifecycleEventKind,
};
pub use protocol::{DdrCommand, MemKind, SwapCmd};
pub use wear::{StartGap, WearError, WearStats};
pub use xpoint::{XPointConfig, XPointMedia};
pub use xpoint_ctrl::{XPointController, XpCompletion, XpFaultConfig};
