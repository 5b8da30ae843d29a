//! The stats layer: one collector gathers per-layer counters uniformly.
//!
//! Every layer of the decomposed system (warp engine, cache glue, memory
//! controllers, backends, fabric round-trips) records into the run's
//! [`RunStats`] instead of poking ad-hoc fields on the monolith. The
//! [`System`](super::System) owns it; the report reads it back out.

use ohm_optic::BusyInterval;
use ohm_sim::{Histogram, Ps, RunningStats};

use crate::metrics::{ResourceUtil, StageRow, StageSummary};

/// A request-path stage the observability layer attributes latency to.
///
/// The taxonomy follows the paper's request path: SM → L1 → L2 →
/// controller → channel → device, plus the migration machinery that runs
/// as a side effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Load served by the SM's L1 data cache.
    L1Hit = 0,
    /// Request resolved at L2 (crossbar traversal + L2 lookup).
    L2Hit = 1,
    /// Memory-controller queue: MC arrival to pipeline-slot grant.
    CtrlQueue = 2,
    /// Wire occupancy of one channel transfer (data or memory route).
    ChannelXfer = 3,
    /// DRAM device access (bank access, row activation included).
    DeviceDram = 4,
    /// XPoint device access (ingress grant to media completion).
    DeviceXPoint = 5,
    /// Migration machinery: swap blocking window / two-level fill.
    Migration = 6,
    /// Recovery: corrupted optical transfer re-sent after CRC detect,
    /// spanning the original transfer's end to the successful resend.
    Retransmit = 7,
    /// Recovery: a transfer moved off a faulty VC onto a healthy one
    /// (fine-granule retune included).
    Rearbitrate = 8,
    /// Recovery: a transfer degraded onto the electrical fallback path
    /// because no healthy optical VC was available (or retransmission
    /// was exhausted).
    FallbackElectrical = 9,
    /// Recovery: an XPoint media op reissued after a DDR-T timeout.
    MediaRetry = 10,
    /// Lifecycle: a correctable ECC error fixed in flight, spanning the
    /// detection to the end of the background scrub write.
    EccCorrect = 11,
    /// Lifecycle: a worn-out or uncorrectable line retired by the XPoint
    /// controller.
    LineRetire = 12,
    /// Lifecycle: a retired line remapped into the spare region, spanning
    /// the retirement to the end of the rebuild write.
    RemapSpare = 13,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 14;

    /// Every stage, in display order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::L1Hit,
        Stage::L2Hit,
        Stage::CtrlQueue,
        Stage::ChannelXfer,
        Stage::DeviceDram,
        Stage::DeviceXPoint,
        Stage::Migration,
        Stage::Retransmit,
        Stage::Rearbitrate,
        Stage::FallbackElectrical,
        Stage::MediaRetry,
        Stage::EccCorrect,
        Stage::LineRetire,
        Stage::RemapSpare,
    ];

    /// Short stable name used in tables and trace tracks.
    pub fn name(self) -> &'static str {
        match self {
            Stage::L1Hit => "l1-hit",
            Stage::L2Hit => "l2-hit",
            Stage::CtrlQueue => "ctrl-queue",
            Stage::ChannelXfer => "channel-xfer",
            Stage::DeviceDram => "dram-access",
            Stage::DeviceXPoint => "xpoint-access",
            Stage::Migration => "migration",
            Stage::Retransmit => "retransmit",
            Stage::Rearbitrate => "rearbitrate",
            Stage::FallbackElectrical => "fallback-electrical",
            Stage::MediaRetry => "media-retry",
            Stage::EccCorrect => "ecc-correct",
            Stage::LineRetire => "line-retire",
            Stage::RemapSpare => "remap-spare",
        }
    }
}

/// One recorded stage interval, kept for trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StageEvent {
    pub(crate) stage: Stage,
    /// Resource index: SM for [`Stage::L1Hit`], controller otherwise.
    pub(crate) res: u32,
    pub(crate) start: Ps,
    pub(crate) end: Ps,
}

/// Trace events kept before the collector starts counting drops instead
/// (bounds memory on long runs; histograms keep recording regardless).
pub(crate) const MAX_TRACE_EVENTS: usize = 1 << 20;

/// The optional per-stage collector behind [`RunStats`].
///
/// Owned as `Option<Box<..>>`: a disabled run pays one branch per hook
/// and allocates nothing, keeping baseline timing numbers bit-identical.
#[derive(Debug)]
pub(crate) struct Observability {
    /// Latency histogram per stage (picoseconds).
    pub(crate) stage_hist: [Histogram; Stage::COUNT],
    /// Raw intervals for trace export, capped at [`MAX_TRACE_EVENTS`].
    pub(crate) events: Vec<StageEvent>,
    /// Intervals dropped after the cap.
    pub(crate) dropped: u64,
    /// Channel busy windows drained from the fabric at report time.
    pub(crate) channel_intervals: Vec<BusyInterval>,
}

impl Observability {
    pub(crate) fn new() -> Self {
        Observability {
            stage_hist: std::array::from_fn(|_| Histogram::new()),
            // Pre-size well below MAX_TRACE_EVENTS: enough to absorb a
            // quick-test run without regrowth, small enough that short
            // runs don't waste memory.
            events: Vec::with_capacity(4096),
            dropped: 0,
            channel_intervals: Vec::new(),
        }
    }

    pub(crate) fn record(&mut self, stage: Stage, res: usize, start: Ps, end: Ps) {
        self.stage_hist[stage as usize].record((end - start).as_ps());
        if self.events.len() < MAX_TRACE_EVENTS {
            self.events.push(StageEvent {
                stage,
                res: res as u32,
                start,
                end,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Folds the fabric's drained busy windows in: they feed the
    /// channel-transfer histogram and the per-VC trace tracks.
    pub(crate) fn absorb_channel_intervals(&mut self, intervals: Vec<BusyInterval>) {
        for iv in &intervals {
            self.stage_hist[Stage::ChannelXfer as usize].record((iv.end - iv.start).as_ps());
        }
        self.channel_intervals.extend(intervals);
    }

    /// Builds the per-stage latency table and per-resource utilization
    /// rows over a run of length `makespan`.
    pub(crate) fn summary(&self, makespan: Ps) -> StageSummary {
        let stages = Stage::ALL
            .iter()
            .map(|&s| {
                let h = &self.stage_hist[s as usize];
                StageRow {
                    name: s.name(),
                    count: h.count(),
                    mean_ns: h.mean() / 1000.0,
                    p50_ns: h.quantile_lower_bound(0.50) as f64 / 1000.0,
                    p99_ns: h.quantile_lower_bound(0.99) as f64 / 1000.0,
                }
            })
            .collect();

        // Utilization timelines: 64 windows across the makespan.
        let window = Ps::from_ps((makespan.as_ps() / 64).max(1));
        let mut utils: Vec<ResourceUtil> = Vec::new();
        {
            use std::collections::BTreeMap;
            let mut tracks: BTreeMap<String, ohm_sim::Timeline> = BTreeMap::new();
            for iv in &self.channel_intervals {
                let route = if iv.memory_route { "memory" } else { "data" };
                tracks
                    .entry(format!("vc{} {route}-route", iv.vc))
                    .or_insert_with(|| ohm_sim::Timeline::new(window))
                    .record_busy(iv.start, iv.end);
            }
            for ev in &self.events {
                let name = match ev.stage {
                    Stage::DeviceDram => format!("mc{} dram", ev.res),
                    Stage::DeviceXPoint => format!("mc{} xpoint", ev.res),
                    _ => continue,
                };
                tracks
                    .entry(name)
                    .or_insert_with(|| ohm_sim::Timeline::new(window))
                    .record_busy(ev.start, ev.end);
            }
            for (name, tl) in tracks {
                let n = tl.len().max(1) as f64;
                utils.push(ResourceUtil {
                    name,
                    busy_us: tl.total_busy().as_us_f64(),
                    mean_utilization: tl.utilizations().iter().sum::<f64>() / n,
                    peak_utilization: tl.peak_utilization(),
                });
            }
        }

        StageSummary {
            stages,
            utilization: utils,
            dropped_events: self.dropped,
        }
    }
}

/// Per-phase tallies behind [`RunStats`], armed only for
/// phase-structured runs (see
/// [`System::with_stream`](super::System::with_stream)).
///
/// The collector carries a *current phase* context, set by the system each
/// time a warp issues a slice; every record between two context switches
/// is attributed to that phase. Work a phase *triggers* that completes
/// later (migration completions, background writebacks) is attributed to
/// the phase whose context is live when it is recorded — attribution by
/// trigger, documented in DESIGN.md §3.9.
#[derive(Debug)]
pub(crate) struct PhaseStats {
    /// Phase names, in phase-index order.
    pub(crate) names: Vec<String>,
    /// Phase subsequent records are attributed to.
    cur: usize,
    /// Demand requests reaching the controllers, per phase.
    pub(crate) mem_requests: Vec<u64>,
    /// Controller services satisfied by the DRAM side, per phase.
    pub(crate) dram_hits: Vec<u64>,
    /// Controller services total, per phase.
    pub(crate) service_total: Vec<u64>,
    /// Demand read round-trip latency, per phase.
    pub(crate) mem_latency: Vec<RunningStats>,
    /// Warp slice latency, per phase.
    pub(crate) slice_latency: Vec<RunningStats>,
    /// Stage-interval counts, per phase × stage.
    pub(crate) stage_count: Vec<[u64; Stage::COUNT]>,
    /// Stage-interval latency sums (ps), per phase × stage.
    pub(crate) stage_total_ps: Vec<[u64; Stage::COUNT]>,
}

impl PhaseStats {
    pub(crate) fn new(names: Vec<String>) -> Self {
        let n = names.len();
        PhaseStats {
            names,
            cur: 0,
            mem_requests: vec![0; n],
            dram_hits: vec![0; n],
            service_total: vec![0; n],
            mem_latency: vec![RunningStats::new(); n],
            slice_latency: vec![RunningStats::new(); n],
            stage_count: vec![[0; Stage::COUNT]; n],
            stage_total_ps: vec![[0; Stage::COUNT]; n],
        }
    }
}

/// The per-run collector every layer records measurements into: the
/// counters [`SimReport`](crate::SimReport) reads, plus the opt-in stage
/// and phase collectors.
///
/// Recording is fire-and-forget and never affects timing.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Mean memory access latency accumulator.
    pub(crate) mem_latency: RunningStats,
    /// Demand memory requests that reached the controllers.
    pub(crate) mem_requests: u64,
    /// Migrations started.
    pub(crate) migrations: u64,
    /// Services satisfied by the DRAM side.
    pub(crate) dram_service_hits: u64,
    /// Serviced requests.
    pub(crate) service_total: u64,
    /// Per-stage collector; `None` (the default) disables recording.
    pub(crate) obs: Option<Box<Observability>>,
    /// Per-phase tallies; `None` (the default) for unphased runs.
    pub(crate) phases: Option<Box<PhaseStats>>,
}

impl RunStats {
    /// Switches the per-stage collector on.
    pub(crate) fn enable_observability(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(Box::new(Observability::new()));
        }
    }

    /// Arms per-phase accounting with the stream's phase vocabulary.
    pub(crate) fn enable_phases(&mut self, names: Vec<String>) {
        if self.phases.is_none() && !names.is_empty() {
            self.phases = Some(Box::new(PhaseStats::new(names)));
        }
    }

    /// Sets the phase subsequent records are attributed to.
    pub(crate) fn set_phase(&mut self, phase: usize) {
        if let Some(ph) = self.phases.as_mut() {
            ph.cur = phase.min(ph.names.len() - 1);
        }
    }

    /// Latency of one warp slice (issue to resume); only phase rows
    /// read it.
    pub(crate) fn record_slice_latency(&mut self, latency: Ps) {
        if let Some(ph) = self.phases.as_mut() {
            ph.slice_latency[ph.cur].push_ps(latency);
        }
    }

    /// A demand read reached a memory controller.
    pub(crate) fn record_mem_request(&mut self) {
        self.mem_requests += 1;
        if let Some(ph) = self.phases.as_mut() {
            ph.mem_requests[ph.cur] += 1;
        }
    }

    /// End-to-end latency of one demand read (MC arrival to data at MC).
    pub(crate) fn record_mem_latency(&mut self, latency: Ps) {
        self.mem_latency.push_ps(latency);
        if let Some(ph) = self.phases.as_mut() {
            ph.mem_latency[ph.cur].push_ps(latency);
        }
    }

    /// A controller started a page/line migration.
    pub(crate) fn record_migration(&mut self) {
        self.migrations += 1;
    }

    /// A controller serviced a request; `dram` says whether the DRAM
    /// side satisfied it (residency/cache hit).
    pub(crate) fn record_service(&mut self, dram: bool) {
        self.service_total += 1;
        self.dram_service_hits += u64::from(dram);
        if let Some(ph) = self.phases.as_mut() {
            ph.service_total[ph.cur] += 1;
            ph.dram_hits[ph.cur] += u64::from(dram);
        }
    }

    /// One request-path stage interval on resource `res` (the SM index
    /// for [`Stage::L1Hit`], the controller index otherwise). Records
    /// nothing unless the stage or phase collector is on.
    pub(crate) fn record_stage(&mut self, stage: Stage, res: usize, start: Ps, end: Ps) {
        if let Some(obs) = self.obs.as_mut() {
            obs.record(stage, res, start, end);
        }
        if let Some(ph) = self.phases.as_mut() {
            ph.stage_count[ph.cur][stage as usize] += 1;
            ph.stage_total_ps[ph.cur][stage as usize] += (end - start).as_ps();
        }
    }

    /// Whether [`RunStats::record_stage`] currently records anything.
    /// Layers that batch stage intervals consult this once per request
    /// and skip collection entirely when it is `false`.
    pub(crate) fn stages_enabled(&self) -> bool {
        self.obs.is_some() || self.phases.is_some()
    }
}
