//! SM ↔ L2 interconnect.
//!
//! The baseline GPU connects its SMs, shared L2 banks and memory
//! controllers through an on-chip network (paper, Figure 2). We model it
//! as a crossbar: a fixed traversal latency plus per-destination-port
//! serialisation at the network's flit bandwidth.

use ohm_sim::{Calendar, Freq, Ps};

/// Interconnect parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterconnectConfig {
    /// One-way traversal latency (wire + router pipeline).
    pub hop_latency: Ps,
    /// Number of destination ports (L2 banks / memory partitions).
    pub ports: usize,
    /// Port clock.
    pub freq: Freq,
    /// Port width in bits.
    pub width_bits: u64,
}

impl Default for InterconnectConfig {
    fn default() -> Self {
        InterconnectConfig {
            hop_latency: Ps::from_ns(5),
            ports: 6,
            freq: Freq::from_ghz(1.2),
            // Wide enough (~460 GB/s aggregate) that the on-chip network
            // is never the bottleneck ahead of the 360 GB/s memory
            // channel, matching the paper's bottleneck ordering.
            width_bits: 512,
        }
    }
}

/// A crossbar with per-port serialisation.
///
/// # Example
///
/// ```
/// use ohm_sm::{Interconnect, InterconnectConfig};
/// use ohm_sim::Ps;
///
/// let mut xbar = Interconnect::new(InterconnectConfig::default());
/// let arrival = xbar.traverse(Ps::ZERO, 0, 128);
/// assert!(arrival > Ps::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct Interconnect {
    cfg: InterconnectConfig,
    ports: Vec<Calendar>,
    messages: u64,
}

impl Interconnect {
    /// Creates an idle crossbar.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero ports.
    pub fn new(cfg: InterconnectConfig) -> Self {
        assert!(cfg.ports > 0, "interconnect needs at least one port");
        Interconnect {
            ports: vec![Calendar::new(); cfg.ports],
            cfg,
            messages: 0,
        }
    }

    /// The interconnect configuration.
    pub fn config(&self) -> &InterconnectConfig {
        &self.cfg
    }

    /// Sends `bytes` to destination `port`, returning the arrival time.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn traverse(&mut self, now: Ps, port: usize, bytes: u64) -> Ps {
        let serialise = self.cfg.freq.transfer_time(bytes * 8, self.cfg.width_bits);
        let (_, sent) = self.ports[port].book(now, serialise);
        self.messages += 1;
        sent + self.cfg.hop_latency
    }

    /// Messages sent so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total serialisation busy time across ports.
    pub fn busy_time(&self) -> Ps {
        self.ports.iter().map(|p| p.busy_time()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traversal_includes_hop_latency() {
        let cfg = InterconnectConfig::default();
        let mut x = Interconnect::new(cfg);
        let arrival = x.traverse(Ps::ZERO, 0, 32);
        // 256 bits over 512-bit port = 1 cycle at 1.2 GHz ≈ 833 ps + 5 ns.
        assert_eq!(arrival, Ps::from_ps(833) + Ps::from_ns(5));
    }

    #[test]
    fn same_port_serialises() {
        let mut x = Interconnect::new(InterconnectConfig::default());
        let a = x.traverse(Ps::ZERO, 0, 1024);
        let b = x.traverse(Ps::ZERO, 0, 1024);
        assert!(b > a);
        assert_eq!(x.messages(), 2);
    }

    #[test]
    fn different_ports_parallel() {
        let mut x = Interconnect::new(InterconnectConfig::default());
        let a = x.traverse(Ps::ZERO, 0, 1024);
        let b = x.traverse(Ps::ZERO, 1, 1024);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        let _ = Interconnect::new(InterconnectConfig {
            ports: 0,
            ..Default::default()
        });
    }
}
