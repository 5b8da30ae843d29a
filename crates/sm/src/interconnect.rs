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

    /// Folds message counts accumulated by [`PortShard`]s back into the
    /// crossbar-wide counter after a parallel phase.
    pub fn add_messages(&mut self, n: u64) {
        self.messages += n;
    }

    /// The minimum traversal time for a `bytes`-sized message on an idle
    /// port: serialisation plus the hop latency. This is the crossbar's
    /// contribution to the conservative-parallelism lookahead floor — no
    /// traversal can complete sooner.
    pub fn min_latency(&self, bytes: u64) -> Ps {
        self.cfg.freq.transfer_time(bytes * 8, self.cfg.width_bits) + self.cfg.hop_latency
    }

    /// Total serialisation busy time across ports.
    pub fn busy_time(&self) -> Ps {
        self.ports.iter().map(|p| p.busy_time()).sum()
    }

    /// Splits the ports into disjoint contiguous groups, one per entry in
    /// `counts`, for use by per-shard workers. `counts` must sum to the
    /// port count. Each shard books its ports through global port indices
    /// and tallies messages locally; the caller folds the tallies back
    /// with [`Interconnect::add_messages`] once the shards are dropped.
    pub fn split_ports(&mut self, counts: &[usize]) -> Vec<PortShard<'_>> {
        assert_eq!(
            counts.iter().sum::<usize>(),
            self.ports.len(),
            "shard counts must cover every port"
        );
        let cfg = self.cfg;
        let mut shards = Vec::with_capacity(counts.len());
        let mut rest: &mut [Calendar] = &mut self.ports;
        let mut base = 0;
        for &n in counts {
            let (head, tail) = rest.split_at_mut(n);
            shards.push(PortShard {
                cfg,
                ports: head,
                base,
                messages: 0,
            });
            rest = tail;
            base += n;
        }
        shards
    }
}

/// A contiguous group of crossbar ports owned by one shard worker.
///
/// Behaves exactly like [`Interconnect::traverse`] restricted to the
/// owned ports; message counts accumulate locally and are merged back by
/// the coordinator, so the whole crossbar's count matches a serial run.
#[derive(Debug)]
pub struct PortShard<'a> {
    cfg: InterconnectConfig,
    ports: &'a mut [Calendar],
    base: usize,
    /// Messages sent through this shard since the split.
    pub messages: u64,
}

impl PortShard<'_> {
    /// Sends `bytes` to destination `port` (a *global* port index, which
    /// must fall inside this shard's range), returning the arrival time.
    pub fn traverse(&mut self, now: Ps, port: usize, bytes: u64) -> Ps {
        let serialise = self.cfg.freq.transfer_time(bytes * 8, self.cfg.width_bits);
        let (_, sent) = self.ports[port - self.base].book(now, serialise);
        self.messages += 1;
        sent + self.cfg.hop_latency
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
    fn shards_book_the_same_ports_as_the_whole() {
        let mut whole = Interconnect::new(InterconnectConfig::default());
        let mut split = Interconnect::new(InterconnectConfig::default());
        let a1 = whole.traverse(Ps::ZERO, 1, 1024);
        let a4 = whole.traverse(Ps::ZERO, 4, 256);
        let msgs = {
            let mut shards = split.split_ports(&[3, 3]);
            let (lo, hi) = {
                let (l, h) = shards.split_at_mut(1);
                (&mut l[0], &mut h[0])
            };
            assert_eq!(lo.traverse(Ps::ZERO, 1, 1024), a1);
            assert_eq!(hi.traverse(Ps::ZERO, 4, 256), a4);
            lo.messages + hi.messages
        };
        assert_eq!(msgs, 2);
        split.add_messages(msgs);
        assert_eq!(split.messages(), whole.messages());
        assert_eq!(split.busy_time(), whole.busy_time());
    }

    #[test]
    fn min_latency_matches_idle_traverse() {
        let mut x = Interconnect::new(InterconnectConfig::default());
        assert_eq!(x.min_latency(32), x.traverse(Ps::ZERO, 2, 32));
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
