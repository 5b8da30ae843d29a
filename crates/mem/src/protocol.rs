//! Memory communication protocol vocabulary.
//!
//! The heterogeneous memory controller speaks deterministic **DDR** to
//! DRAM (paper, Section II-C); the asynchronous DDR-T handshake to the
//! XPoint controller is modelled by
//! [`XPointController`](crate::XPointController)'s completion times.
//! Ohm-GPU additionally introduces the `SWAP-CMD` message (Section IV-B)
//! that delegates a whole migration to the XPoint controller's DDR
//! sequence generator.

use ohm_sim::Addr;

/// Whether a memory request reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// A load: latency-critical, the warp blocks on the response.
    Read,
    /// A store: acknowledged once buffered.
    Write,
}

impl MemKind {
    /// True for [`MemKind::Read`].
    pub fn is_read(self) -> bool {
        matches!(self, MemKind::Read)
    }
}

/// Deterministic DDR commands issued to a DRAM module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DdrCommand {
    /// Open a row into the bank's row buffer (tRCD).
    Activate {
        /// Target bank.
        bank: usize,
        /// Row to open.
        row: u64,
    },
    /// Close the open row (tRP).
    Precharge {
        /// Target bank.
        bank: usize,
    },
    /// Column read from the open row (tCL + burst).
    Read {
        /// Target bank.
        bank: usize,
        /// Column within the open row.
        col: u64,
    },
    /// Column write to the open row (tCL + burst).
    Write {
        /// Target bank.
        bank: usize,
        /// Column within the open row.
        col: u64,
    },
    /// Refresh all banks (tRFC).
    Refresh,
}

/// The paper's new `SWAP-CMD` (Figure 10a / Figure 11): asks the XPoint
/// controller to migrate `size_bytes` between a DRAM page and an XPoint
/// page using its DDR sequence generator, over the memory route.
///
/// The memory controller pre-activates the DRAM bank (it alone knows bank
/// state) and stalls only requests that conflict with the migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwapCmd {
    /// Migration identifier.
    pub id: u64,
    /// DRAM-side page address.
    pub dram_addr: Addr,
    /// XPoint-side page address.
    pub xpoint_addr: Addr,
    /// Number of bytes to exchange.
    pub size_bytes: u64,
}

impl SwapCmd {
    /// Size of the command metadata on the data route, in bits.
    ///
    /// DRAM address + XPoint address + size + id, as serialised on the
    /// optical channel. The paper reuses the data route for this metadata.
    pub const METADATA_BITS: u64 = 4 * 64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_kind_predicates() {
        assert!(MemKind::Read.is_read());
        assert!(!MemKind::Write.is_read());
    }

    #[test]
    fn ddr_commands_are_comparable() {
        let a = DdrCommand::Activate { bank: 1, row: 7 };
        let b = DdrCommand::Activate { bank: 1, row: 7 };
        assert_eq!(a, b);
        assert_ne!(a, DdrCommand::Refresh);
    }

    #[test]
    fn swap_cmd_metadata_size() {
        assert_eq!(SwapCmd::METADATA_BITS, 256);
        let cmd = SwapCmd {
            id: 1,
            dram_addr: Addr::new(0x1000),
            xpoint_addr: Addr::new(0x8000),
            size_bytes: 4096,
        };
        assert_eq!(cmd.size_bytes, 4096);
    }
}
