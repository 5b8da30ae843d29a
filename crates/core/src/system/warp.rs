//! The warp layer: event loop, warp scheduling, and SM issue.
//!
//! [`WarpEngine`] owns the event queue, the instruction stream, and the
//! SMs. It decides *which* warp does *what* next; resolving how long a
//! memory access takes is the job of the layers below, so a stepped
//! slice is reported back to the [`System`](super::System) as a
//! [`SliceOutcome`] for the cache/memory glue to finish.

use ohm_sim::{EventQueue, Ps};
use ohm_sm::{AccessKind, InstructionStream, Sm, SmConfig, WarpId, WarpState};

#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A warp is ready to fetch its next slice.
    Resume(WarpId),
    /// A delegated migration released its pages.
    MigrationDone { mc: usize, id: u64 },
}

/// What happened when a warp stepped one slice.
pub(crate) enum SliceOutcome {
    /// The warp retired its last instruction.
    Finished,
    /// A pure-compute slice; the warp resumes when the SM's issue
    /// pipeline drains it.
    Compute { resume_at: Ps },
    /// The slice ends in a memory access (the warp is already blocked);
    /// compute drains at `after_compute`.
    Memory {
        after_compute: Ps,
        addr: ohm_sim::Addr,
        kind: AccessKind,
    },
}

/// Per-phase issue accounting, allocated only for phase-structured
/// streams (those whose [`InstructionStream::phase_names`] is
/// non-empty).
#[derive(Debug, Clone)]
pub(crate) struct PhaseTrack {
    /// Phase names, from the stream.
    pub(crate) names: Vec<String>,
    /// Instructions issued per phase (summed over lanes).
    pub(crate) insts: Vec<u64>,
    /// First issue time seen per phase.
    pub(crate) first: Vec<Option<Ps>>,
    /// Last compute-drain time seen per phase.
    pub(crate) last: Vec<Ps>,
}

impl PhaseTrack {
    fn new(names: Vec<String>) -> Self {
        let n = names.len();
        PhaseTrack {
            names,
            insts: vec![0; n],
            first: vec![None; n],
            last: vec![Ps::ZERO; n],
        }
    }
}

/// The event loop and warp scheduler.
///
/// Events at equal timestamps pop in push order ([`EventQueue`]'s FIFO
/// tie-break), so the system pushes a step's migration notices before
/// the warp's resume.
pub(crate) struct WarpEngine {
    pub(crate) queue: EventQueue<Event>,
    stream: Box<dyn InstructionStream>,
    pub(crate) sms: Vec<Sm>,
    /// When the last warp retired its final instruction (the kernel's
    /// completion time; bookkeeping events may trail it).
    pub(crate) kernel_end: Ps,
    /// Per-phase issue tallies; `None` for unphased streams.
    pub(crate) phase_track: Option<Box<PhaseTrack>>,
}

impl WarpEngine {
    pub(crate) fn new(sms: usize, sm_cfg: SmConfig, stream: Box<dyn InstructionStream>) -> Self {
        let names = stream.phase_names();
        WarpEngine {
            queue: EventQueue::with_capacity(sms * sm_cfg.warps),
            stream,
            sms: (0..sms).map(|_| Sm::new(sm_cfg)).collect(),
            kernel_end: Ps::ZERO,
            phase_track: (!names.is_empty()).then(|| Box::new(PhaseTrack::new(names))),
        }
    }

    /// Phase of the slice most recently issued on lane `w` (0 for
    /// unphased streams).
    pub(crate) fn last_phase(&self, w: WarpId) -> usize {
        self.stream.last_phase(w.sm, w.warp)
    }

    /// Seeds the queue with every warp's initial resume at time zero.
    pub(crate) fn seed(&mut self) {
        for sm in 0..self.sms.len() {
            for warp in 0..self.sms[sm].config().warps {
                self.queue
                    .push(Ps::ZERO, Event::Resume(WarpId { sm, warp }));
            }
        }
    }

    /// Steps warp `w` one slice at `now`: unblocks it, fetches the next
    /// slice, and books the compute portion on the SM's issue pipeline.
    pub(crate) fn step(&mut self, now: Ps, w: WarpId) -> SliceOutcome {
        if self.sms[w.sm].warp_state(w.warp) == WarpState::Blocked {
            self.sms[w.sm].unblock(w.warp);
        }
        let Some(slice) = self.stream.next_slice(w.sm, w.warp) else {
            self.sms[w.sm].finish(w.warp);
            self.kernel_end = self.kernel_end.max(now);
            return SliceOutcome::Finished;
        };
        let after_compute = self.sms[w.sm].issue_compute(now, w.warp, slice.compute_insts);
        if let Some(track) = self.phase_track.as_mut() {
            let p = self
                .stream
                .last_phase(w.sm, w.warp)
                .min(track.names.len() - 1);
            track.insts[p] += slice.instructions();
            track.first[p].get_or_insert(now);
            track.last[p] = track.last[p].max(after_compute);
        }
        match slice.access {
            None => SliceOutcome::Compute {
                resume_at: after_compute,
            },
            Some((addr, kind)) => {
                self.sms[w.sm].block_on_memory(w.warp);
                SliceOutcome::Memory {
                    after_compute,
                    addr,
                    kind,
                }
            }
        }
    }

    /// Schedules warp `w` to resume at `at`.
    pub(crate) fn resume(&mut self, at: Ps, w: WarpId) {
        self.queue.push(at, Event::Resume(w));
    }

    /// Schedules a migration-completion notice.
    pub(crate) fn push_migration_done(&mut self, at: Ps, mc: usize, id: u64) {
        self.queue.push(at, Event::MigrationDone { mc, id });
    }

    /// Instructions retired across all SMs.
    pub(crate) fn retired(&self) -> u64 {
        self.sms.iter().map(|s| s.retired()).sum()
    }
}
