//! The epoch scheduler: deterministic intra-cell parallelism.
//!
//! One simulated cell normally runs on one core: the event loop pops one
//! event at a time and resolves its whole memory round-trip synchronously.
//! This module shards that work by *memory-controller cluster* — each
//! worker owns a contiguous range of controllers together with their
//! devices, fabric channels, crossbar ports and backend policy state —
//! and commits events in epochs bounded by the minimum latency any
//! SM-side event needs before it can reach a controller (L1 lookup +
//! crossbar command traversal + L2 lookup). Inside that lookahead window
//! events are popped and their cache-content decisions made serially on
//! the coordinator (phase A), the per-controller work executes in
//! parallel on the shard workers (phase B), and the results — statistics
//! and queue pushes — are committed in pop order (phase C).
//!
//! # Serial equivalence
//!
//! The result is *bit-identical* to the serial loop at every thread
//! count:
//!
//! - Phase A mirrors the serial loop's pop order exactly: the
//!   `(time, entry, slot)` keys of [`EpochQueue`] reproduce the serial
//!   queue's FIFO tie-breaking, and every push that can land inside the
//!   current epoch (compute resumes, L1 hits, store acks) is made
//!   immediately at its serial position.
//! - Every deferred effect of an event popped at `t` lands at or after
//!   `t + floor` (the window floor is a lower bound on the L1, crossbar
//!   and L2 leg every memory op crosses first), so deferring it past
//!   the epoch barrier cannot change which events pop inside the epoch.
//!   The epoch closes strictly before `t_first + floor`, where
//!   `t_first` is the first event in the epoch with deferred work.
//! - Per-controller resources are only ever touched by their owning
//!   shard, in pop order, so every calendar booking sees the same queue
//!   state as in the serial run. The one cross-shard interaction — a
//!   dirty L2 victim writing back to a controller on another shard —
//!   synchronises on the producing access's L2-completion time through
//!   an atomic slot, preserving both orders.
//! - Statistics are not recorded by the workers: each op logs its stat
//!   calls and phase C replays them in pop order, so the mean-latency
//!   accumulator sees the exact serial sequence of `f64` additions.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use ohm_sim::{Addr, EntryId, FastDiv, Ps, SpinBarrier};
use ohm_sm::{Cache, PortShard, WarpId};

use crate::config::SystemConfig;

use super::memory::{mc_of_addr, parts_read, parts_write, McShard, PendingRelease, CMD_BITS};
use super::stats::{RunStats, StatsSink};
use super::warp::{Event, SliceOutcome, WarpEngine};

/// Hard cap on events popped per epoch. Purely a scheduling knob:
/// results are order-exact wherever the epoch boundary falls.
const BATCH_CAP: usize = 1024;

/// Splits `total` controllers into `parts` contiguous, near-equal
/// cluster sizes.
pub(crate) fn balanced_counts(total: usize, parts: usize) -> Vec<usize> {
    let base = total / parts;
    let extra = total % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

/// One recorded stats-sink call, replayed in pop order by phase C so the
/// collector sees the exact serial sequence (its mean latency is
/// order-sensitive in floating point).
#[derive(Debug, Clone, Copy)]
enum StatCall {
    MemRequest,
    MemLatency(Ps),
    Migration,
    Service(bool),
}

/// A recording [`StatsSink`] handed to the request path on a worker.
/// Stage recording stays at the no-op default, matching the serial
/// collector with observability off (sharded runs never enable it).
#[derive(Debug, Default)]
struct StatLog(Vec<StatCall>);

impl StatsSink for StatLog {
    fn record_mem_request(&mut self) {
        self.0.push(StatCall::MemRequest);
    }
    fn record_mem_latency(&mut self, latency: Ps) {
        self.0.push(StatCall::MemLatency(latency));
    }
    fn record_migration(&mut self) {
        self.0.push(StatCall::Migration);
    }
    fn record_service(&mut self, dram: bool) {
        self.0.push(StatCall::Service(dram));
    }
}

/// Replays a worker's stat log into the real collector.
fn replay(calls: &[StatCall], stats: &mut RunStats) {
    for &c in calls {
        match c {
            StatCall::MemRequest => stats.record_mem_request(),
            StatCall::MemLatency(l) => stats.record_mem_latency(l),
            StatCall::Migration => stats.record_migration(),
            StatCall::Service(dram) => stats.record_service(dram),
        }
    }
}

/// One deferred unit of per-controller work, staged by phase A.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// The controller-side remainder of one warp memory access: the
    /// crossbar command leg, an optional same-shard victim writeback,
    /// and the L2-hit data leg or the memory round-trip.
    Main {
        /// The access's issue time (compute drained).
        now: Ps,
        mc: usize,
        line: Addr,
        load: bool,
        l2_hit: bool,
        /// Dirty L2 victim whose home controller lives on *this* shard:
        /// written back inline between the command leg and the main
        /// access, exactly as the serial loop orders it.
        inline_victim: Option<(usize, Addr)>,
        /// Publication slot for this access's L2-completion time, when a
        /// victim on another shard is waiting for it.
        publish: Option<u32>,
    },
    /// A dirty L2 victim writing back to a controller on a different
    /// shard than its producing access: waits on the producer's
    /// published L2-completion time, then books the write.
    Victim { vmc: usize, victim: Addr, wait: u32 },
    /// A migration released its pages (popped `MigrationDone`).
    MigComplete { mc: usize, id: u64 },
}

/// Per-op outputs, pooled across epochs.
#[derive(Debug, Default)]
struct OpOut {
    log: StatLog,
    pendings: Vec<PendingRelease>,
    resume_at: Ps,
}

impl OpOut {
    fn clear(&mut self) {
        self.log.0.clear();
        self.pendings.clear();
        self.resume_at = Ps::ZERO;
    }
}

/// One worker's slice of the system plus its op staging area.
struct ShardCell<'a> {
    mem: McShard<'a>,
    xbar: PortShard<'a>,
    ops: Vec<Op>,
    outs: Vec<OpOut>,
}

/// Stages `op` on `cell`, returning its index.
fn push_op(cell: &mut ShardCell<'_>, op: Op) -> u32 {
    let j = cell.ops.len();
    if cell.outs.len() <= j {
        cell.outs.push(OpOut::default());
    }
    cell.outs[j].clear();
    cell.ops.push(op);
    j as u32
}

/// One staged memory access's phase-C obligations, in pop order:
/// replay the victim's and the main op's stat logs, then push migration
/// notices and the warp resume under the entry's deferred-slot keys.
struct EntryRec {
    entry: EntryId,
    warp: WarpId,
    main: (u32, u32),
    victim: Option<(u32, u32)>,
    /// Stores acknowledge immediately; the resume was already pushed in
    /// phase A.
    store: bool,
}

/// Spins until `slot` publishes a time (stored as `ps + 1`; 0 = empty).
fn spin_slot(slot: &AtomicU64) -> Ps {
    let budget = ohm_sim::spins_before_yield();
    let mut spins = 0usize;
    loop {
        let v = slot.load(Ordering::Acquire);
        if v != 0 {
            return Ps::from_ps(v - 1);
        }
        if spins < budget {
            std::hint::spin_loop();
            spins += 1;
        } else {
            std::thread::yield_now();
        }
    }
}

/// Executes every staged op on one shard, in staged (= pop) order.
fn exec_shard(cell: &mut ShardCell<'_>, cfg: &SystemConfig, slots: &[AtomicU64]) {
    let line_bytes = cfg.line_bytes;
    let l1_lat = cfg.gpu.l1_hit_latency;
    let l2_lat = cfg.gpu.l2_hit_latency;
    let one_cycle = cfg.gpu.sm.freq.period();
    for i in 0..cell.ops.len() {
        let op = cell.ops[i];
        let out = &mut cell.outs[i];
        match op {
            Op::MigComplete { mc, id } => {
                let base = cell.mem.mc_base;
                cell.mem.mcs[mc - base].conflicts.complete(id);
            }
            Op::Victim { vmc, victim, wait } => {
                let l2_done = spin_slot(&slots[wait as usize]);
                let mut parts = cell.mem.parts(cfg);
                parts_write(
                    &mut parts,
                    &mut out.log,
                    &mut out.pendings,
                    l2_done,
                    vmc,
                    victim,
                );
            }
            Op::Main {
                now,
                mc,
                line,
                load,
                l2_hit,
                inline_victim,
                publish,
            } => {
                // The command leg to L2 over the crossbar, then the L2
                // lookup latency — identical to the serial cache glue.
                let at_l2 = cell.xbar.traverse(now + l1_lat, mc, CMD_BITS / 8);
                let l2_done = at_l2 + l2_lat;
                if let Some(s) = publish {
                    // Publish before any device work so a waiting victim
                    // shard never spins longer than the command leg.
                    slots[s as usize].store(l2_done.as_ps() + 1, Ordering::Release);
                }
                let mut parts = cell.mem.parts(cfg);
                if let Some((vmc, victim)) = inline_victim {
                    parts_write(
                        &mut parts,
                        &mut out.log,
                        &mut out.pendings,
                        l2_done,
                        vmc,
                        victim,
                    );
                }
                out.resume_at = if l2_hit {
                    if load {
                        cell.xbar.traverse(l2_done, mc, line_bytes)
                    } else {
                        now + one_cycle
                    }
                } else if load {
                    let data = parts_read(
                        &mut parts,
                        &mut out.log,
                        &mut out.pendings,
                        l2_done,
                        mc,
                        line,
                    );
                    cell.xbar.traverse(data, mc, line_bytes)
                } else {
                    parts_write(
                        &mut parts,
                        &mut out.log,
                        &mut out.pendings,
                        l2_done,
                        mc,
                        line,
                    );
                    now + one_cycle
                };
            }
        }
    }
}

/// Runs the event loop to completion across `shards`, returning the
/// accumulated fabric bit tallies and crossbar message count to fold
/// back into the whole structures.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sharded(
    cfg: &SystemConfig,
    engine: &mut WarpEngine,
    l1s: &mut [Cache],
    l2: &mut Cache,
    stats: &mut RunStats,
    ctrl_div: FastDiv,
    shards: Vec<McShard<'_>>,
    ports: Vec<PortShard<'_>>,
    floor: Ps,
) -> ([u64; 2], u64) {
    let nsh = shards.len();
    debug_assert_eq!(nsh, ports.len());
    // Controller -> shard lookup (contiguous clusters).
    let mut shard_of = vec![0u32; cfg.memory.controllers];
    for (s, shard) in shards.iter().enumerate() {
        for owner in &mut shard_of[shard.mc_base..shard.mc_base + shard.mcs.len()] {
            *owner = s as u32;
        }
    }
    let cells: Vec<Mutex<ShardCell<'_>>> = shards
        .into_iter()
        .zip(ports)
        .map(|(mem, xbar)| {
            Mutex::new(ShardCell {
                mem,
                xbar,
                ops: Vec::new(),
                outs: Vec::new(),
            })
        })
        .collect();
    let slots: Vec<AtomicU64> = (0..BATCH_CAP).map(|_| AtomicU64::new(0)).collect();
    let barrier_a = SpinBarrier::new(nsh);
    let barrier_b = SpinBarrier::new(nsh);
    let quit = AtomicBool::new(false);

    let l1_lat = cfg.gpu.l1_hit_latency;
    let one_cycle = cfg.gpu.sm.freq.period();
    let line_bytes = cfg.line_bytes;

    let mut records: Vec<EntryRec> = Vec::new();
    let mut used_slots = 0usize;

    std::thread::scope(|scope| {
        for i in 1..nsh {
            let cells = &cells;
            let slots = &slots[..];
            let barrier_a = &barrier_a;
            let barrier_b = &barrier_b;
            let quit = &quit;
            scope.spawn(move || loop {
                barrier_a.wait();
                if quit.load(Ordering::Acquire) {
                    break;
                }
                {
                    let mut cell = cells[i].lock().unwrap();
                    exec_shard(&mut cell, cfg, slots);
                }
                barrier_b.wait();
            });
        }

        loop {
            if engine.queue.is_empty() {
                quit.store(true, Ordering::Release);
                barrier_a.wait();
                break;
            }
            // Reset the publication slots the previous epoch used (the
            // barriers order these stores before any worker reads).
            for s in &slots[..used_slots] {
                s.store(0, Ordering::Relaxed);
            }
            used_slots = 0;
            records.clear();
            let mut any_ops = false;
            let mut needs_workers = false;

            // ---- Phase A: pop inside the window, stage per-shard ops.
            {
                let mut guards: Vec<_> = cells.iter().map(|c| c.lock().unwrap()).collect();
                for g in guards.iter_mut() {
                    g.ops.clear();
                }
                let mut bound: Option<Ps> = None;
                let mut popped = 0usize;
                while popped < BATCH_CAP {
                    let Some(next) = engine.queue.peek_time() else {
                        break;
                    };
                    if bound.is_some_and(|b| next >= b) {
                        break;
                    }
                    let (t, ev) = engine.queue.pop().expect("peeked");
                    popped += 1;
                    match ev {
                        Event::MigrationDone { mc, id } => {
                            let s = shard_of[mc] as usize;
                            push_op(&mut guards[s], Op::MigComplete { mc, id });
                            any_ops = true;
                        }
                        Event::Resume(w) => match engine.step(t, w) {
                            SliceOutcome::Finished => {}
                            SliceOutcome::Compute { resume_at } => {
                                engine.resume(resume_at, w);
                            }
                            SliceOutcome::Memory {
                                after_compute,
                                addr,
                                kind,
                            } => {
                                let line_addr = addr.align_down(line_bytes);
                                let load = kind.is_load();
                                if load && l1s[w.sm].access(line_addr, false).hit {
                                    engine.resume(after_compute + l1_lat, w);
                                    continue;
                                }
                                let entry = engine.queue.current_entry();
                                let mc = mc_of_addr(ctrl_div, cfg, line_addr);
                                let ms = shard_of[mc];
                                let lookup = l2.access(line_addr, !load);
                                let mut inline_victim = None;
                                let mut publish = None;
                                let mut victim_ref = None;
                                if let Some(victim) = lookup.writeback {
                                    let vmc = mc_of_addr(ctrl_div, cfg, victim);
                                    if shard_of[vmc] == ms {
                                        inline_victim = Some((vmc, victim));
                                    } else {
                                        let slot = used_slots as u32;
                                        used_slots += 1;
                                        publish = Some(slot);
                                        let vs = shard_of[vmc];
                                        let j = push_op(
                                            &mut guards[vs as usize],
                                            Op::Victim {
                                                vmc,
                                                victim,
                                                wait: slot,
                                            },
                                        );
                                        victim_ref = Some((vs, j));
                                    }
                                }
                                let store = !load;
                                if store {
                                    // Stores acknowledge after one cycle
                                    // regardless of the memory path; push
                                    // now so the warp can pop inside this
                                    // epoch, as it would serially.
                                    engine.resume(after_compute + one_cycle, w);
                                }
                                let j = push_op(
                                    &mut guards[ms as usize],
                                    Op::Main {
                                        now: after_compute,
                                        mc,
                                        line: line_addr,
                                        load,
                                        l2_hit: lookup.hit,
                                        inline_victim,
                                        publish,
                                    },
                                );
                                records.push(EntryRec {
                                    entry,
                                    warp: w,
                                    main: (ms, j),
                                    victim: victim_ref,
                                    store,
                                });
                                any_ops = true;
                                if bound.is_none() {
                                    bound = Some(t + floor);
                                }
                            }
                        },
                    }
                }
                if any_ops {
                    // A sparse epoch whose ops all live on one shard
                    // needs no fan-out: execute inline (identical order,
                    // and a cross-shard victim implies two active shards,
                    // so no publication waits) and skip the barriers.
                    let mut active = (0..nsh).filter(|&s| !guards[s].ops.is_empty());
                    let first = active.next().expect("ops were staged");
                    needs_workers = active.next().is_some();
                    if !needs_workers {
                        exec_shard(&mut guards[first], cfg, &slots);
                    }
                }
            }

            // ---- Phase B: workers drain their op lists in parallel.
            if needs_workers {
                barrier_a.wait();
                {
                    let mut c0 = cells[0].lock().unwrap();
                    exec_shard(&mut c0, cfg, &slots);
                }
                barrier_b.wait();
            }

            // ---- Phase C: commit stats and deferred pushes in pop order.
            {
                let guards: Vec<_> = cells.iter().map(|c| c.lock().unwrap()).collect();
                for &EntryRec {
                    entry,
                    warp,
                    main,
                    victim,
                    store,
                } in &records
                {
                    let vo = victim.map(|(s, j)| &guards[s as usize].outs[j as usize]);
                    if let Some(vo) = vo {
                        replay(&vo.log.0, stats);
                    }
                    let mo = &guards[main.0 as usize].outs[main.1 as usize];
                    replay(&mo.log.0, stats);
                    // Victim releases first, then the main op's: the
                    // serial loop's queue-insertion order.
                    let pendings = vo.into_iter().flat_map(|vo| &vo.pendings);
                    for (slot, &(at, mc, id)) in pendings.chain(&mo.pendings).enumerate() {
                        debug_assert!(at >= engine.queue.now());
                        engine.queue.push_deferred(
                            entry,
                            slot as u32,
                            at,
                            Event::MigrationDone { mc, id },
                        );
                    }
                    if !store {
                        debug_assert!(mo.resume_at >= engine.queue.now());
                        engine
                            .queue
                            .push_deferred_final(entry, mo.resume_at, Event::Resume(warp));
                    }
                }
            }
        }
    });

    // Fold the shard-local counters back for the report.
    let mut bits = [0u64; 2];
    let mut msgs = 0u64;
    for cell in cells {
        let cell = cell.into_inner().unwrap();
        let d = cell.mem.fabric.bits_delta();
        bits[0] += d[0];
        bits[1] += d[1];
        msgs += cell.xbar.messages;
    }
    (bits, msgs)
}
