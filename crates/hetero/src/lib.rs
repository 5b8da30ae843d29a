//! Heterogeneous-memory management for the Ohm-GPU reproduction.
//!
//! This crate holds the *policy* layer of the Ohm memory system — which
//! data lives where, when it migrates, and which mechanism performs the
//! migration. The timing orchestration (channels, device calendars) lives
//! in `ohm-core`; keeping the policies passive makes them independently
//! testable.
//!
//! * [`planar`] — the planar memory mode (Section III-B): DRAM and XPoint
//!   form one flat address space partitioned into groups of one DRAM page
//!   plus N XPoint pages; hot XPoint pages swap into the group's DRAM slot
//!   under an OS-transparent remap table.
//! * [`two_level`] — the two-level memory mode: DRAM as a direct-mapped
//!   inclusive cache of XPoint with tag/valid/dirty metadata carried in
//!   the ECC bits of each DRAM cacheline (single-access tag check).
//! * [`migration`] — the migration-mechanism capability matrix across the
//!   seven evaluated platforms (via-controller copies, auto-read/write
//!   snarfs, the SWAP-CMD function, reverse-write).
//! * [`conflict`] — the conflict-detection logic that keeps the memory
//!   controller and the XPoint controller from racing on a DRAM bank
//!   while a delegated migration is in flight.

#![warn(missing_docs)]

pub mod conflict;
pub mod migration;
pub mod planar;
pub mod two_level;

pub use conflict::{ConflictDetector, Redirect};
pub use migration::{MigrationCaps, Platform};
pub use planar::{PlanarConfig, PlanarLocation, PlanarMapping, SwapRequest};
pub use two_level::{TwoLevelCache, TwoLevelConfig, TwoLevelOutcome};
