//! Report generation: folding the layers' counters into a [`SimReport`].

use ohm_sim::Ps;

use crate::energy::{energy_report, EnergyInputs};
use crate::metrics::{FaultReport, PhaseRow, PhaseStageRow, PhaseSummary, SimReport, WearReport};

use super::stats::Stage;
use super::System;

impl System {
    pub(crate) fn report(&mut self) -> SimReport {
        // Migration-completion bookkeeping may trail the last warp; the
        // kernel's makespan is when the warps finished.
        let makespan = if self.engine.kernel_end > Ps::ZERO {
            self.engine.kernel_end
        } else {
            self.engine.queue.now()
        };
        let instructions = self.engine.retired();
        let cycles = self.cfg.gpu.sm.freq.cycles_in(makespan).max(1);
        let l1_hits: u64 = self.l1s.iter().map(|c| c.hits()).sum();
        let l1_total: u64 = self.l1s.iter().map(|c| c.hits() + c.misses()).sum();

        let (demand_bits, migration_bits) = self.mem.fabric.bits();
        let dram_activations: u64 = self.mem.mcs.iter().map(|m| m.dram.activations()).sum();
        let dram_accesses: u64 = self
            .mem
            .mcs
            .iter()
            .map(|m| m.dram.reads() + m.dram.writes())
            .sum();
        let (xp_reads, xp_writes) = self.mem.mcs.iter().fold((0, 0), |(r, w), m| {
            m.xpoint
                .as_ref()
                .map(|x| (r + x.media().reads(), w + x.media().writes()))
                .unwrap_or((r, w))
        });

        let energy = energy_report(
            self.platform,
            &EnergyInputs {
                makespan,
                channel_bits: demand_bits + migration_bits,
                dram_capacity_bytes: self.mem.dram_capacity,
                dram_activations,
                dram_accesses,
                dram_access_bits: self.cfg.line_bytes * 8,
                xpoint_capacity_bytes: self.mem.xpoint_capacity,
                xpoint_reads: xp_reads,
                xpoint_writes: xp_writes,
                xpoint_line_bits: self.cfg.line_bytes * 8,
                wavelengths: self.cfg.optical.grid.total_wavelengths()
                    * self.cfg.optical.waveguides,
            },
        );

        // Fold the fabric's busy windows into the observability collector
        // (when enabled) and derive the per-stage summary. Reading the
        // collector never affects timing, so everything above this point
        // is bit-identical with observability off.
        let stages = self.stats.obs.as_mut().map(|obs| {
            obs.absorb_channel_intervals(self.mem.fabric.drain_intervals());
            obs.summary(makespan)
        });

        // Fault/recovery tallies: fabric counters plus the per-MC XPoint
        // controllers' media counters. Only reported when a plan was armed.
        let faults = self.cfg.faults.as_ref().map(|_| {
            let fc = self.mem.fabric.fault_counters();
            let (stalls, retries, poisoned) = self.mem.mcs.iter().fold((0, 0, 0), |acc, m| {
                m.xpoint.as_ref().map_or(acc, |x| {
                    (
                        acc.0 + x.media_stalls(),
                        acc.1 + x.media_retries(),
                        acc.2 + x.poisoned_lines(),
                    )
                })
            });
            FaultReport {
                corrupted_transfers: fc.corrupted_transfers,
                retransmissions: fc.retransmissions,
                retx_exhausted: fc.retx_exhausted,
                mrr_faults: fc.mrr_faults,
                rearbitrations: fc.rearbitrations,
                electrical_fallbacks: fc.electrical_fallbacks,
                media_stalls: stalls,
                media_retries: retries,
                poisoned_lines: poisoned,
            }
        });

        // Wear-out lifecycle tallies: controller counters summed across
        // MCs, the merged effective-capacity curve, and the planner-side
        // degradation view. Only reported when a plan was configured.
        let wear_report = self.cfg.lifecycle.as_ref().map(|_| {
            let mut r = WearReport::default();
            let mut total_lines = 0u64;
            let mut escalations: Vec<Ps> = Vec::new();
            for m in &self.mem.mcs {
                let Some(x) = m.xpoint.as_ref() else { continue };
                r.retired_lines += x.retired_lines();
                r.spares_used += x.spares_used();
                r.spares_total += x.spares_total();
                r.ecc_corrected += x.ecc_corrected();
                r.ecc_uncorrectable += x.ecc_uncorrectable();
                r.dead_lines += x.dead_lines();
                total_lines += x.wear_map().lines();
                escalations.extend(x.capacity_log().iter().map(|&(t, _)| t));
            }
            r.usable_capacity = if total_lines == 0 {
                1.0
            } else {
                1.0 - r.dead_lines as f64 / total_lines as f64
            };
            // Merge the per-controller escalation instants into one
            // monotone capacity curve, downsampled to a bounded number of
            // samples (the last — final capacity — always kept).
            escalations.sort_unstable();
            let n = escalations.len();
            let stride = n.div_ceil(64).max(1);
            r.capacity_curve = escalations
                .iter()
                .enumerate()
                .filter(|(i, _)| (i + 1) % stride == 0 || *i == n - 1)
                .map(|(i, &t)| (t, 1.0 - (i as u64 + 1) as f64 / total_lines.max(1) as f64))
                .collect();
            r.planner = self.mem.backend.planner_wear();
            r
        });

        // Per-phase breakdown: join the engine's issue tallies (insts,
        // spans) with the run stats' attributed memory counters.
        let phases = self.stats.phases.as_ref().map(|ph| {
            let track = self
                .engine
                .phase_track
                .as_ref()
                .expect("phase stats imply an engine phase track");
            let freq = self.cfg.gpu.sm.freq;
            let rows = ph
                .names
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let span = match track.first[i] {
                        Some(first) => (first, track.last[i].max(first)),
                        None => (Ps::ZERO, Ps::ZERO),
                    };
                    let cycles = freq.cycles_in(span.1 - span.0).max(1);
                    let served = ph.service_total[i];
                    let stages = Stage::ALL
                        .iter()
                        .filter(|&&s| ph.stage_count[i][s as usize] > 0)
                        .map(|&s| {
                            let count = ph.stage_count[i][s as usize];
                            PhaseStageRow {
                                name: s.name(),
                                count,
                                mean_ns: ph.stage_total_ps[i][s as usize] as f64
                                    / count as f64
                                    / 1000.0,
                            }
                        })
                        .collect();
                    PhaseRow {
                        name: name.clone(),
                        instructions: track.insts[i],
                        ipc: track.insts[i] as f64 / cycles as f64,
                        span,
                        mem_requests: ph.mem_requests[i],
                        avg_mem_latency_ns: ph.mem_latency[i].mean(),
                        avg_slice_latency_ns: ph.slice_latency[i].mean(),
                        dram_served: ph.dram_hits[i],
                        xpoint_served: served - ph.dram_hits[i],
                        dram_hit_rate: if served == 0 {
                            1.0
                        } else {
                            ph.dram_hits[i] as f64 / served as f64
                        },
                        stages,
                    }
                })
                .collect();
            PhaseSummary { phases: rows }
        });

        let host = self.mem.host_report();
        let wear = {
            let stats: Vec<f64> = self
                .mem
                .mcs
                .iter()
                .filter_map(|m| m.xpoint.as_ref().map(|x| x.wear_stats().imbalance))
                .collect();
            if stats.is_empty() {
                1.0
            } else {
                stats.iter().sum::<f64>() / stats.len() as f64
            }
        };

        SimReport {
            platform: self.platform,
            mode: self.mode,
            workload: self.spec.name.to_string(),
            makespan,
            instructions,
            ipc: instructions as f64 / cycles as f64,
            mem_requests: self.stats.mem_requests,
            avg_mem_latency_ns: self.stats.mem_latency.mean(),
            l1_hit_rate: if l1_total == 0 {
                0.0
            } else {
                l1_hits as f64 / l1_total as f64
            },
            l2_hit_rate: self.l2.hit_rate(),
            hetero_dram_hit_rate: if self.stats.service_total == 0 {
                1.0
            } else {
                self.stats.dram_service_hits as f64 / self.stats.service_total as f64
            },
            migration_channel_fraction: self.mem.fabric.migration_fraction(),
            migrations: self.stats.migrations,
            channel_utilization: self.mem.fabric.utilization(makespan),
            channel_bits: (demand_bits, migration_bits),
            energy,
            host,
            wear_imbalance: wear,
            stages,
            faults,
            wear: wear_report,
            phases,
        }
    }
}
