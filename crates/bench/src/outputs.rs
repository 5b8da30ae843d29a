//! The evaluation's outputs: one entry per file under `results/`.
//!
//! Each [`Output`] names its file, declares the simulation cells it
//! reads as [`CellSpec`]s, and renders the file's exact bytes from those
//! cells' reports. Renderers read their sweep parameters (waveguides,
//! ratios, thresholds, division, severity, endurance) back from the
//! cells, so every sweep is written down once, in its cell list.
//!
//! The `reproduce` binary concatenates the selected outputs' cells,
//! runs them through one
//! [`GridRun::run_cells`](ohm_core::runner::GridRun::run_cells) — which
//! simulates each distinct key once — and hands every renderer its own
//! slice of reports, in the order it declared its cells.

use std::fmt::{self, Write};

use ohm_core::checkpoint::CellSpec;
use ohm_core::config::{SystemConfig, SystemConfigBuilder};
use ohm_core::cost::{cost_breakdown, cost_performance, ring_counts, GPU_BASE_USD};
use ohm_core::fault::{FaultPlan, LifecyclePlan};
use ohm_core::metrics::{EnergyReport, PlannerWear, SimReport, StageSummary};
use ohm_core::reliability::{platform_ber, worst_ber};
use ohm_core::runner::{column_geomeans, geomean, normalize_ipc};
use ohm_core::system::System;
use ohm_hetero::Platform;
use ohm_mem::StartGap;
use ohm_optic::cost::{MrrLayout, VCSEL_COST_USD};
use ohm_optic::{BerModel, ChannelDivision, OperationalMode, OpticalPathLoss};
use ohm_sim::{Ps, SplitMix64};
use ohm_sm::InstructionStream;
use ohm_workloads::{
    all_workloads, workload_by_name, AccessPattern, KernelWorkload, PhasePlan, WorkloadSpec,
};

use crate::{bar, evaluation_workloads, f2, f3, header, pct, row, sci};

/// Writes one file's contents from its cells and their reports, index
/// for index.
type Renderer = fn(&mut String, &[CellSpec], &[SimReport]) -> fmt::Result;

/// One file under `results/`.
pub struct Output {
    /// File name under `results/`; its stem is the output's name.
    pub file: &'static str,
    /// The cells the renderer reads, in the order it reads them. Empty
    /// for outputs rendered from analytical models alone.
    pub cells: fn() -> Vec<CellSpec>,
    render: Renderer,
}

impl Output {
    /// The name `reproduce` selects the output by: the file stem.
    pub fn name(&self) -> &'static str {
        self.file
            .split_once('.')
            .map_or(self.file, |(stem, _)| stem)
    }

    /// Renders the file from [`Output::cells`] and their reports, in the
    /// same order.
    pub fn render(&self, cells: &[CellSpec], reports: &[SimReport]) -> String {
        let mut out = String::new();
        (self.render)(&mut out, cells, reports).expect("formatting into a String cannot fail");
        out
    }
}

const fn output(file: &'static str, cells: fn() -> Vec<CellSpec>, render: Renderer) -> Output {
    Output {
        file,
        cells,
        render,
    }
}

/// Every output, in the order `reproduce` runs them by default.
pub static OUTPUTS: [Output; 20] = [
    output("table1.txt", Vec::new, table1),
    output("table2.txt", Vec::new, table2),
    output("table3.txt", Vec::new, table3),
    output(
        "fig03.txt",
        || grid(&FIG03, &[OperationalMode::Planar]),
        fig03,
    ),
    output("fig08.txt", || grid(&FIG08, &MODES), fig08),
    output("fig16.txt", || grid(&Platform::ALL, &MODES), fig16),
    output("fig17.txt", || grid(&FIG17, &MODES), fig17),
    output("fig18.txt", || grid(&OPTICAL, &MODES), fig18),
    output("fig19.txt", || grid(&FIG19, &MODES), fig19),
    output("fig20a.txt", fig20a_cells, fig20a),
    output("fig20b.txt", Vec::new, fig20b),
    output("fig21.txt", || grid(&FIG21, &MODES), fig21),
    output("ablation_division.txt", division_cells, division),
    output("ablation_psi.txt", Vec::new, psi),
    output("ablation_ratio.txt", ratio_cells, ratio),
    output("ablation_threshold.txt", threshold_cells, threshold),
    output("fig_lifetime.txt", lifetime_cells, lifetime),
    output("fig_llm_phases.txt", llm_cells, llm_phases),
    output("fig_resilience.txt", resilience_cells, resilience),
    output("grid.csv", || grid(&Platform::ALL, &MODES), grid_csv),
];

/// The output named `name` (a file stem such as `fig16` or `grid`).
pub fn find(name: &str) -> Option<&'static Output> {
    OUTPUTS.iter().find(|o| o.name() == name)
}

// ---------------------------------------------------------------------
// Cell lists
// ---------------------------------------------------------------------

/// Both memory modes, in the order every two-mode figure prints them.
const MODES: [OperationalMode; 2] = [OperationalMode::Planar, OperationalMode::TwoLevel];

const FIG03: [Platform; 2] = [Platform::Origin, Platform::Oracle];
const FIG08: [Platform; 2] = [Platform::OhmBase, Platform::OhmBw];
const FIG17: [Platform; 6] = [
    Platform::Hetero,
    Platform::OhmBase,
    Platform::AutoRw,
    Platform::OhmWom,
    Platform::OhmBw,
    Platform::Oracle,
];
/// The four optical platforms (Fig 18's columns, Fig 20b's rows).
const OPTICAL: [Platform; 4] = [
    Platform::OhmBase,
    Platform::AutoRw,
    Platform::OhmWom,
    Platform::OhmBw,
];
const FIG19: [Platform; 5] = [
    Platform::Hetero,
    Platform::OhmBase,
    Platform::AutoRw,
    Platform::OhmWom,
    Platform::OhmBw,
];
const FIG21: [Platform; 3] = [Platform::Origin, Platform::OhmBw, Platform::Oracle];
/// Fig 20a's memory-intensive subset, which keeps the sweep quick.
const FIG20A_WORKLOADS: [&str; 4] = ["pagerank", "bfsdata", "GRAMS", "betw"];

/// Seed for `fig_resilience`'s fault plans (fixed: reruns are
/// bit-identical).
const FAULT_SEED: u64 = 0xFA17;
/// Seed for `fig_lifetime`'s lifecycle plans.
const LIFECYCLE_SEED: u64 = 0x11FE;

/// `platforms` over the ten evaluation workloads at the evaluation
/// configuration, mode by mode: `[mode][workload][platform]`, flattened.
fn grid(platforms: &[Platform], modes: &[OperationalMode]) -> Vec<CellSpec> {
    let cfg = SystemConfig::evaluation();
    let mut cells = Vec::new();
    for &mode in modes {
        for w in evaluation_workloads() {
            for &p in platforms {
                cells.push(CellSpec::new(cfg.clone(), p, mode, w));
            }
        }
    }
    cells
}

/// One mode's block of a [`grid`]: `rows[workload][platform]`.
struct Table {
    mode: OperationalMode,
    rows: Vec<Vec<SimReport>>,
}

/// Splits a [`grid`]'s reports into one [`Table`] per mode.
fn tables(cells: &[CellSpec], reports: &[SimReport], cols: usize) -> Vec<Table> {
    let per_mode = evaluation_workloads().len() * cols;
    cells
        .chunks(per_mode)
        .zip(reports.chunks(per_mode))
        .map(|(c, r)| Table {
            mode: c[0].mode,
            rows: r.chunks(cols).map(<[SimReport]>::to_vec).collect(),
        })
        .collect()
}

/// A config derived from the evaluation one by `edit`.
fn evaluation_with(edit: impl FnOnce(SystemConfigBuilder) -> SystemConfigBuilder) -> SystemConfig {
    edit(SystemConfig::evaluation().to_builder())
        .build()
        .expect("valid sweep config")
}

/// A Table II workload at the evaluation footprint.
fn evaluation_workload(name: &str) -> WorkloadSpec {
    workload_by_name(name)
        .unwrap()
        .with_footprint(SystemConfig::EVALUATION_FOOTPRINT)
}

/// A sweep on one workload and mode: each config, then each platform.
fn sweep(
    configs: impl IntoIterator<Item = SystemConfig>,
    platforms: &[Platform],
    mode: OperationalMode,
    spec: WorkloadSpec,
) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for cfg in configs {
        for &p in platforms {
            cells.push(CellSpec::new(cfg.clone(), p, mode, spec));
        }
    }
    cells
}

/// Runs `cell` with observability on, outside any grid. Its report
/// carries stage rows a plain run leaves empty, so it must never be
/// journalled: it would alias the plain cell's key.
fn observed(cell: &CellSpec) -> SimReport {
    let mut sys = System::new(&cell.config, cell.platform, cell.mode, &cell.workload);
    sys.enable_observability();
    sys.run()
}

/// Hetero on the subset, then Ohm-base and Ohm-BW on it per waveguide
/// count.
fn fig20a_cells() -> Vec<CellSpec> {
    let mode = OperationalMode::Planar;
    let workloads: Vec<_> = evaluation_workloads()
        .into_iter()
        .filter(|w| FIG20A_WORKLOADS.contains(&w.name))
        .collect();
    let hetero = SystemConfig::evaluation();
    let mut cells: Vec<CellSpec> = workloads
        .iter()
        .map(|w| CellSpec::new(hetero.clone(), Platform::Hetero, mode, *w))
        .collect();
    for waveguides in [1u32, 2, 4, 8] {
        let cfg = evaluation_with(|b| b.optical_waveguides(waveguides));
        for p in FIG08 {
            for w in &workloads {
                cells.push(CellSpec::new(cfg.clone(), p, mode, *w));
            }
        }
    }
    cells
}

fn division_cells() -> Vec<CellSpec> {
    let dynamic = |reallocation| ChannelDivision::Dynamic { reallocation };
    let divisions = [
        ChannelDivision::Static,
        dynamic(Ps::from_ps(500)),
        dynamic(Ps::from_ns(5)),
    ];
    let mut cells = Vec::new();
    for w in ["pagerank", "bfsdata", "GRAMS"] {
        let configs = divisions.map(|d| evaluation_with(|b| b.optical_division(d)));
        let spec = evaluation_workload(w);
        cells.extend(sweep(
            configs,
            &[Platform::OhmBase],
            OperationalMode::Planar,
            spec,
        ));
    }
    cells
}

fn ratio_cells() -> Vec<CellSpec> {
    let spec = evaluation_workload("bfsdata");
    let planar = [4usize, 8, 16, 32].map(|r| evaluation_with(|b| b.planar_ratio(r)));
    let two_level = [16usize, 32, 64, 128].map(|r| evaluation_with(|b| b.two_level_ratio(r)));
    let mut cells = sweep(planar, &[Platform::OhmBw], OperationalMode::Planar, spec);
    cells.extend(sweep(
        two_level,
        &[Platform::OhmBw],
        OperationalMode::TwoLevel,
        spec,
    ));
    cells
}

fn threshold_cells() -> Vec<CellSpec> {
    let configs = [8u32, 16, 32, 64, 128].map(|t| evaluation_with(|b| b.hot_threshold(t)));
    let spec = evaluation_workload("pagerank");
    sweep(configs, &FIG08, OperationalMode::Planar, spec)
}

/// Endurance budgets per wear bucket, fresh device first. Shrinking the
/// budget compresses more aging into the run: 64 writes/bucket outlives
/// this kernel untouched, 16 starts eating spares, 8 and 4 push past
/// spare exhaustion into best-effort dead lines. (Below ~4 the planner
/// has pinned so much of the hot set in DRAM that migration savings
/// offset the media penalty and IPC plateaus; the sweep stops where
/// degradation is still monotone.)
fn lifetime_cells() -> Vec<CellSpec> {
    let configs = [0u64, 64, 16, 8, 4].map(|e| {
        let plan = (e > 0).then(|| LifecyclePlan::accelerated(LIFECYCLE_SEED, e));
        evaluation_with(|b| b.lifecycle(plan))
    });
    let spec = workload_by_name("pagerank").unwrap();
    sweep(configs, &[Platform::OhmWom], OperationalMode::Planar, spec)
}

/// The reference LLM plan on gctopo's footprint, the largest graph
/// footprint in Table II (the spec only contributes the footprint the
/// plan's slices divide up).
fn llm_cells() -> Vec<CellSpec> {
    let cfg = evaluation_with(|b| b.phases(Some(PhasePlan::llm_inference())));
    let platforms = [Platform::Hetero, Platform::OhmBase, Platform::OhmWom];
    let spec = workload_by_name("gctopo").unwrap();
    sweep([cfg], &platforms, OperationalMode::TwoLevel, spec)
}

fn resilience_cells() -> Vec<CellSpec> {
    let configs = [0.0, 0.25, 0.5, 0.75, 1.0]
        .map(|s| evaluation_with(|b| b.faults(Some(FaultPlan::at_severity(FAULT_SEED, s)))));
    let spec = workload_by_name("pagerank").unwrap();
    sweep(configs, &[Platform::OhmWom], OperationalMode::Planar, spec)
}

/// The severity a [`FaultPlan::at_severity`] plan was built with,
/// recovered from its Q derate (`1 + 2 × severity`).
fn severity(cell: &CellSpec) -> f64 {
    let plan = cell.config.faults.as_ref().expect("fault plan armed");
    (plan.q_derate - 1.0) / 2.0
}

/// A lifetime cell's endurance budget; 0 for the fresh device.
fn endurance(cell: &CellSpec) -> u64 {
    let plan = cell.config.lifecycle.as_ref();
    plan.map_or(0, |plan| plan.xpoint.endurance_writes)
}

// ---------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------

/// Table I — the simulated system's configuration in the paper's
/// layout, straight from the live config structs.
fn table1(out: &mut String, _: &[CellSpec], _: &[SimReport]) -> fmt::Result {
    let cfg = SystemConfig::evaluation();
    let (gpu, mem, timing) = (&cfg.gpu, &cfg.memory, &cfg.memory.dram_timing);
    let (optical, electrical) = (&cfg.optical, &cfg.electrical);
    let fp = SystemConfig::EVALUATION_FOOTPRINT;
    let dram_mb = |mode| cfg.dram_capacity_for(mode, fp) >> 20;
    writeln!(
        out,
        "Table I: system configurations (values as simulated)

GPU configuration
  SM / freq.            {}/{}
  L1 cache              {} KB, {}-way, private
  L2 cache              {} KB, {}-way, shared (scaled with footprints; Table I: 6 MB)
  Electrical channels   {} channels / {}-bit / {}

Optical channel configuration
  Channel width         {} bits
  Frequency             {}
  Strategy              Static channel division
  Virtual channels      {}
  Aggregate bandwidth   {:.0} GB/s (matches {:.0} GB/s electrical)

Memory configuration
  tRCD (DRAM)           {}
  tRP  (DRAM)           {}
  tCL  (DRAM)           {}
  tRRD                  {}
  PRAM read             {}
  PRAM write            {}

DRAM : XPoint capacity (per mode)
  Planar memory       1:{}, footprint {} MB -> DRAM {} MB (paper: 108/390 GB unscaled)
  Two-level memory    1:{}, footprint {} MB -> DRAM {} MB (paper: 108/390 GB unscaled)

Optical power model
  MRR tuning power      200 fJ/bit
  Filter drop           {} dB
  Waveguide loss        {} dB/cm
  Optical splitter      {} dB
  Detector loss         {} dB
  Modulator loss        0~1 dB",
        gpu.sms,
        gpu.sm.freq,
        gpu.l1.size_bytes / 1024,
        gpu.l1.ways,
        gpu.l2.size_bytes / 1024,
        gpu.l2.ways,
        electrical.channels,
        electrical.width_bits,
        electrical.freq,
        optical.grid.total_wavelengths(),
        optical.freq,
        optical.grid.channels(),
        optical.total_bandwidth_gbps(),
        electrical.total_bandwidth_gbps(),
        timing.trcd,
        timing.trp,
        timing.tcl,
        timing.trrd,
        mem.xpoint.media.read_latency,
        mem.xpoint.media.write_latency,
        mem.planar_ratio,
        fp >> 20,
        dram_mb(OperationalMode::Planar),
        mem.two_level_ratio,
        fp >> 20,
        dram_mb(OperationalMode::TwoLevel),
        OpticalPathLoss::FILTER_DROP_DB,
        OpticalPathLoss::WAVEGUIDE_DB_PER_CM,
        OpticalPathLoss::SPLITTER_DB,
        OpticalPathLoss::DETECTOR_DB,
    )
}

/// Table II — each synthetic kernel drained, its measured APKI and read
/// ratio next to the Table II targets.
fn table2(out: &mut String, _: &[CellSpec], _: &[SimReport]) -> fmt::Result {
    writeln!(
        out,
        "Table II: workload characteristics (target vs measured)\n"
    )?;
    let widths = [9, 6, 12, 10, 12, 10, 10];
    let cols = [
        "app",
        "APKI",
        "APKI(meas)",
        "read",
        "read(meas)",
        "suite",
        "pattern",
    ];
    header(out, &cols, &widths)?;
    for spec in all_workloads() {
        let mut k = KernelWorkload::new(spec, 4, 8, 20_000, 42);
        for sm in 0..4 {
            for w in 0..8 {
                while k.next_slice(sm, w).is_some() {}
            }
        }
        let pattern = match spec.pattern {
            AccessPattern::Streaming => "stream",
            AccessPattern::Blocked { .. } => "blocked",
            AccessPattern::Graph { .. } => "graph",
            AccessPattern::Uniform => "uniform",
        };
        let cells = [
            spec.name.to_string(),
            spec.apki.to_string(),
            format!("{:.1}", k.measured_apki()),
            f2(spec.read_ratio),
            f2(k.measured_read_ratio()),
            spec.suite.to_string(),
            pattern.to_string(),
        ];
        row(out, &cells, &widths)?;
    }
    Ok(())
}

/// Table III — cost estimation of the Ohm memories, plus the Figure 15
/// MRR-layout reductions.
fn table3(out: &mut String, _: &[CellSpec], _: &[SimReport]) -> fmt::Result {
    writeln!(
        out,
        "Table III: cost estimation of different Ohm memories\n"
    )?;
    let widths = [9, 11, 11, 11, 14, 14, 8];
    let cols = [
        "platform",
        "mode",
        "DRAM $",
        "XPoint $",
        "modulators",
        "detectors",
        "VCSEL",
    ];
    header(out, &cols, &widths)?;
    for mode in MODES {
        for p in FIG08 {
            let c = cost_breakdown(p, mode);
            let (m, d) = ring_counts(p, mode);
            let cells = [
                p.name().to_string(),
                format!("{mode:?}"),
                format!("${:.0}", c.dram_usd),
                format!("${:.0}", c.xpoint_usd),
                format!("{m}/${:.0}", c.modulators_usd.ceil()),
                format!("{d}/${:.0}", c.detectors_usd.ceil()),
                format!("${VCSEL_COST_USD:.0}"),
            ];
            row(out, &cells, &widths)?;
        }
    }

    writeln!(
        out,
        "\nTotal platform cost over the ${GPU_BASE_USD:.0} GPU:"
    )?;
    for mode in MODES {
        let c = cost_breakdown(Platform::OhmBw, mode);
        writeln!(
            out,
            "  Ohm-BW {mode:?}: +${:.0} = +{:.1}% (paper: +7.6% planar, +13.5% two-level)",
            c.memory_system_usd(),
            100.0 * c.memory_system_usd() / GPU_BASE_USD
        )?;
    }

    let general = MrrLayout::general();
    writeln!(
        out,
        "\nFigure 15: MRR layout per device pair (general vs mode-specialised)\n  \
         general design: {} rings ({}T + {}R)",
        general.total(),
        general.transmitters(),
        general.receivers()
    )?;
    for mode in MODES {
        let l = MrrLayout::for_mode(mode);
        writeln!(
            out,
            "  {mode:?}: {} rings -> {:.0}% reduction (paper: 58% planar / 42% two-level)",
            l.total(),
            100.0 * l.reduction_vs_general()
        )?;
    }
    Ok(())
}

/// Figure 3 — execution breakdown of GPU applications on the GPU + SSD
/// system (Origin), and the staging path's impact against an Oracle
/// whose working set fits (no staging).
fn fig03(out: &mut String, _: &[CellSpec], reports: &[SimReport]) -> fmt::Result {
    writeln!(
        out,
        "Figure 3a: execution breakdown on the GPU+SSD platform (Origin)\n"
    )?;
    let widths = [9, 10, 10, 10, 12];
    header(
        out,
        &["app", "compute", "transfer", "storage", "makespan"],
        &widths,
    )?;
    let mut sums = (0.0, 0.0, 0.0);
    let mut slowdowns = Vec::new();
    for pair in reports.chunks(FIG03.len()) {
        let (origin, oracle) = (&pair[0], &pair[1]);
        let host = origin.host.as_ref().expect("origin reports staging");
        let total = origin.makespan.as_secs_f64();
        let storage = host.storage_busy.as_secs_f64().min(total);
        let transfer = host.dma_busy.as_secs_f64().min(total - storage);
        let compute = (total - storage - transfer).max(0.0);
        let (c, t, s) = (compute / total, transfer / total, storage / total);
        sums.0 += c;
        sums.1 += t;
        sums.2 += s;
        let makespan = origin.makespan.to_string();
        row(
            out,
            &[origin.workload.clone(), pct(c), pct(t), pct(s), makespan],
            &widths,
        )?;
        slowdowns.push((
            &origin.workload,
            origin.makespan.as_secs_f64() / oracle.makespan.as_secs_f64(),
            origin.energy.total_j() / oracle.energy.total_j(),
        ));
    }
    let n = slowdowns.len() as f64;
    writeln!(
        out,
        "\naverage: compute {} transfer {} storage {}  (paper: 34% / 45% / 21%)",
        pct(sums.0 / n),
        pct(sums.1 / n),
        pct(sums.2 / n)
    )?;

    writeln!(
        out,
        "\nFigure 3b: staging impact vs an in-memory (Oracle) run\n"
    )?;
    let widths = [9, 16, 16];
    header(out, &["app", "time x", "energy x"], &widths)?;
    let (mut gt, mut ge) = (1.0f64, 1.0f64);
    for (name, t, e) in &slowdowns {
        row(
            out,
            &[name.to_string(), format!("{t:.2}"), format!("{e:.2}")],
            &widths,
        )?;
        gt *= t;
        ge *= e;
    }
    writeln!(
        out,
        "\ngeomean: time {:.2}x energy {:.2}x (paper: staging degrades time 31% / energy 19% at the memory level)",
        gt.powf(1.0 / n),
        ge.powf(1.0 / n)
    )
}

/// Figure 8 — effective vs migration share of the channel's consumed
/// bandwidth, and Ohm-base's memory latency against Ohm-BW, whose
/// migrations ride the independent memory route.
fn fig08(out: &mut String, cells: &[CellSpec], reports: &[SimReport]) -> fmt::Result {
    for t in tables(cells, reports, FIG08.len()) {
        let mode = t.mode;
        writeln!(
            out,
            "Figure 8 ({mode:?}): effective vs migration bandwidth; latency vs Oracle\n"
        )?;
        let widths = [9, 11, 11, 14];
        header(
            out,
            &["app", "effective", "migration", "lat/oracle"],
            &widths,
        )?;
        let (mut mig_sum, mut lat_sum) = (0.0, 0.0);
        for r in &t.rows {
            let (base, oracle) = (&r[0], &r[1]);
            let mig = base.migration_channel_fraction;
            let lat = base.avg_mem_latency_ns / oracle.avg_mem_latency_ns;
            mig_sum += mig;
            lat_sum += lat;
            let cells = [
                base.workload.clone(),
                pct(1.0 - mig),
                pct(mig),
                format!("{lat:.2}x"),
            ];
            row(out, &cells, &widths)?;
        }
        let n = t.rows.len() as f64;
        let paper = match mode {
            OperationalMode::Planar => "39% migration, +54% latency",
            OperationalMode::TwoLevel => "26% migration, +47% latency",
        };
        writeln!(
            out,
            "\naverage: migration {} of consumed bandwidth, latency {:.2}x vs dedicated-channel oracle (paper: {paper})\n",
            pct(mig_sum / n),
            lat_sum / n
        )?;
    }
    Ok(())
}

/// Writes the `app` column header followed by the platform names.
fn platform_header(out: &mut String, platforms: &[Platform], widths: &[usize]) -> fmt::Result {
    let mut cols = vec!["app"];
    cols.extend(platforms.iter().map(|p| p.name()));
    header(out, &cols, widths)
}

/// Writes one row per workload plus a geomean row of `normalized`.
fn normalized_rows(
    out: &mut String,
    rows: &[Vec<SimReport>],
    normalized: &[Vec<f64>],
    widths: &[usize],
) -> fmt::Result {
    for (r, values) in rows.iter().zip(normalized) {
        let mut cells = vec![r[0].workload.clone()];
        cells.extend(values.iter().map(|&v| f3(v)));
        row(out, &cells, widths)?;
    }
    let mut cells = vec!["geomean".to_string()];
    cells.extend(column_geomeans(normalized).iter().map(|&v| f3(v)));
    row(out, &cells, widths)
}

/// Figure 16 — IPC of the evaluated platforms, normalised to Ohm-base.
fn fig16(out: &mut String, cells: &[CellSpec], reports: &[SimReport]) -> fmt::Result {
    let platforms = Platform::ALL;
    let baseline = 2; // Ohm-base
    for t in tables(cells, reports, platforms.len()) {
        writeln!(
            out,
            "Figure 16 ({:?}): IPC normalised to Ohm-base\n",
            t.mode
        )?;
        let widths = [9, 8, 8, 9, 8, 8, 8, 8];
        platform_header(out, &platforms, &widths)?;
        let normalized = normalize_ipc(&t.rows, baseline);
        normalized_rows(out, &t.rows, &normalized, &widths)?;
        let means = column_geomeans(&normalized);

        let max = means.iter().copied().fold(0.0, f64::max);
        writeln!(out)?;
        for (p, &m) in platforms.iter().zip(&means) {
            writeln!(out, "{:>9} {:<40} {}", p.name(), bar(m, max, 40), f3(m))?;
        }
        writeln!(
            out,
            "\nspeedups (geomean): Ohm-BW vs Origin {:.2}x (paper ~2.8x), vs Ohm-base {:.2}x (paper ~1.27x), vs Oracle {:.0}% (paper 88%)\n",
            means[5] / means[0],
            means[5],
            100.0 * means[5] / means[6]
        )?;
    }
    Ok(())
}

/// Figure 17 — average memory access latency normalised to Ohm-base.
/// Origin's latency includes host staging and is not comparable; the
/// paper plots the heterogeneous platforms plus Oracle.
fn fig17(out: &mut String, cells: &[CellSpec], reports: &[SimReport]) -> fmt::Result {
    for t in tables(cells, reports, FIG17.len()) {
        let mode = t.mode;
        writeln!(
            out,
            "Figure 17 ({mode:?}): memory access latency normalised to Ohm-base\n"
        )?;
        let widths = [9, 8, 9, 8, 8, 8, 8];
        platform_header(out, &FIG17, &widths)?;
        let latency = |row: &Vec<SimReport>| -> Vec<f64> {
            let base = row[1].avg_mem_latency_ns;
            row.iter().map(|r| r.avg_mem_latency_ns / base).collect()
        };
        let normalized: Vec<Vec<f64>> = t.rows.iter().map(latency).collect();
        normalized_rows(out, &t.rows, &normalized, &widths)?;
        let means = column_geomeans(&normalized);
        writeln!(
            out,
            "\nreductions (geomean): Auto-rw {:.0}% vs Ohm-base; Ohm-WOM {:.0}% vs Auto-rw; Ohm-BW {:.0}% vs Ohm-WOM\n",
            100.0 * (1.0 - means[2]),
            100.0 * (1.0 - means[3] / means[2]),
            100.0 * (1.0 - means[4] / means[3]),
        )?;
    }
    Ok(())
}

/// Figure 18 — fraction of the optical channel's data route consumed by
/// data migration.
fn fig18(out: &mut String, cells: &[CellSpec], reports: &[SimReport]) -> fmt::Result {
    for t in tables(cells, reports, OPTICAL.len()) {
        let mode = t.mode;
        writeln!(
            out,
            "Figure 18 ({mode:?}): migration share of data-route bandwidth\n"
        )?;
        let widths = [9, 9, 9, 9, 9];
        platform_header(out, &OPTICAL, &widths)?;
        let mut sums = vec![0.0; OPTICAL.len()];
        for r in &t.rows {
            let mut cells = vec![r[0].workload.clone()];
            for (i, report) in r.iter().enumerate() {
                sums[i] += report.migration_channel_fraction;
                cells.push(pct(report.migration_channel_fraction));
            }
            row(out, &cells, &widths)?;
        }
        let n = t.rows.len() as f64;
        let mut cells = vec!["average".to_string()];
        cells.extend(sums.iter().map(|s| pct(s / n)));
        row(out, &cells, &widths)?;
        let paper = match mode {
            OperationalMode::Planar => "paper: base ~39%, WOM cuts most of it",
            OperationalMode::TwoLevel => "paper: base ~26%, WOM eliminates it",
        };
        writeln!(out, "\n({paper})\n")?;
    }
    Ok(())
}

/// Figure 19 — memory-system energy breakdown: channel/DMA, DRAM
/// static, DRAM dynamic, XPoint.
fn fig19(out: &mut String, cells: &[CellSpec], reports: &[SimReport]) -> fmt::Result {
    for t in tables(cells, reports, FIG19.len()) {
        let mode = t.mode;
        writeln!(
            out,
            "Figure 19 ({mode:?}): memory-system energy, mJ summed over Table II\n"
        )?;
        let widths = [9, 10, 12, 12, 10, 10];
        header(
            out,
            &[
                "platform",
                "DMA",
                "DRAM stat",
                "DRAM dyn",
                "XPoint",
                "total",
            ],
            &widths,
        )?;
        let mut dma = Vec::new();
        for (i, p) in FIG19.iter().enumerate() {
            let mut sum = EnergyReport::default();
            for r in &t.rows {
                let e = r[i].energy;
                sum.dma_j += e.dma_j;
                sum.dram_static_j += e.dram_static_j;
                sum.dram_dynamic_j += e.dram_dynamic_j;
                sum.xpoint_j += e.xpoint_j;
            }
            dma.push(sum.dma_j);
            let joules = [
                sum.dma_j,
                sum.dram_static_j,
                sum.dram_dynamic_j,
                sum.xpoint_j,
                sum.total_j(),
            ];
            let mut cells = vec![p.name().to_string()];
            cells.extend(joules.iter().map(|j| format!("{:.3}", j * 1e3)));
            row(out, &cells, &widths)?;
        }
        writeln!(
            out,
            "\nDMA energy: Ohm-base is {:.0}% below Hetero (paper: 57%)\n",
            100.0 * (1.0 - dma[1] / dma[0])
        )?;
    }
    Ok(())
}

/// Figure 20a — IPC against the optical waveguide count, normalised to
/// the electrical Hetero.
fn fig20a(out: &mut String, cells: &[CellSpec], reports: &[SimReport]) -> fmt::Result {
    let n = FIG20A_WORKLOADS.len();
    let ipc = |rs: &[SimReport]| geomean(&rs.iter().map(|r| r.ipc).collect::<Vec<_>>());
    writeln!(
        out,
        "Figure 20a: IPC vs waveguide count (geomean over memory-intensive apps),\n\
         normalised to Hetero (electrical)\n"
    )?;
    let widths = [11, 10, 10];
    header(out, &["waveguides", "Ohm-base", "Ohm-BW"], &widths)?;
    let hetero = ipc(&reports[..n]);
    for (c, r) in cells[n..].chunks(2 * n).zip(reports[n..].chunks(2 * n)) {
        let waveguides = c[0].config.optical.waveguides.to_string();
        let (base, bw) = (f3(ipc(&r[..n]) / hetero), f3(ipc(&r[n..]) / hetero));
        row(out, &[waveguides, base, bw], &widths)?;
    }
    writeln!(
        out,
        "\n(paper: Ohm-base with 8 waveguides ~1.41x Hetero; Ohm-BW gains a further ~17%)"
    )
}

/// Figure 20b — end-to-end bit error rate per optical platform path.
fn fig20b(out: &mut String, _: &[CellSpec], _: &[SimReport]) -> fmt::Result {
    writeln!(out, "Figure 20b: end-to-end BER per platform light path\n")?;
    let widths = [9, 22, 8, 12, 12, 6];
    header(
        out,
        &["platform", "path", "laser", "rx power", "BER", "ok"],
        &widths,
    )?;
    for p in OPTICAL {
        for pt in platform_ber(p) {
            let cells = [
                p.name().to_string(),
                pt.function.to_string(),
                format!("{:.0}x", p.laser_power_scale()),
                format!("{:.3} mW", pt.received_mw),
                sci(pt.ber),
                if pt.meets_requirement { "yes" } else { "NO" }.to_string(),
            ];
            row(out, &cells, &widths)?;
        }
    }
    writeln!(out, "\nrequirement: BER < {:.0e}", BerModel::REQUIREMENT)?;
    for p in [Platform::OhmBase, Platform::OhmWom, Platform::OhmBw] {
        if let Ok(w) = worst_ber(p) {
            writeln!(out, "worst {}: {}", p.name(), sci(w))?;
        }
    }
    writeln!(
        out,
        "\n(paper: base 7.2e-16; WOM 6.1e-16 / 9.9e-16; BW worst 9.3e-16)"
    )
}

/// Figure 21 — cost-performance of Origin, Ohm-BW and Oracle.
fn fig21(out: &mut String, cells: &[CellSpec], reports: &[SimReport]) -> fmt::Result {
    for t in tables(cells, reports, FIG21.len()) {
        let mode = t.mode;
        writeln!(
            out,
            "Figure 21 ({mode:?}): cost-performance (normalised perf per $, x1e4)\n"
        )?;
        let widths = [9, 10, 12, 10];
        header(out, &["platform", "perf", "cost $", "CP"], &widths)?;
        let perf = column_geomeans(&normalize_ipc(&t.rows, 0)); // vs Origin
        let mut cps = Vec::new();
        for (i, p) in FIG21.iter().enumerate() {
            let cost = cost_breakdown(*p, mode).total_usd();
            let cp = cost_performance(perf[i], cost);
            cps.push(cp);
            let cells = [
                p.name().to_string(),
                f3(perf[i]),
                format!("{cost:.0}"),
                f3(cp),
            ];
            row(out, &cells, &widths)?;
        }
        writeln!(
            out,
            "\nOhm-BW CP is {:+.0}% vs Origin (paper +155%) and {:+.0}% vs Oracle (paper +24%)\n",
            100.0 * (cps[1] / cps[0] - 1.0),
            100.0 * (cps[1] / cps[2] - 1.0)
        )?;
    }
    Ok(())
}

/// Ablation — static vs dynamic wavelength division (Ohm-base, planar):
/// what Ohm-GPU left on the table by choosing static.
fn division(out: &mut String, cells: &[CellSpec], reports: &[SimReport]) -> fmt::Result {
    writeln!(
        out,
        "Ablation: wavelength-division strategy (Ohm-base, planar)\n"
    )?;
    let widths = [9, 26, 9, 11, 9];
    header(out, &["app", "strategy", "IPC", "lat(ns)", "util"], &widths)?;
    for (cell, r) in cells.iter().zip(reports) {
        let strategy = match cell.config.optical.division {
            ChannelDivision::Static => "static".to_string(),
            ChannelDivision::Dynamic { reallocation } => {
                format!("dynamic ({} ns retune)", reallocation.as_ns_f64())
            }
        };
        let latency = format!("{:.0}", r.avg_mem_latency_ns);
        let cells = [
            r.workload.clone(),
            strategy,
            f3(r.ipc),
            latency,
            f3(r.channel_utilization),
        ];
        row(out, &cells, &widths)?;
    }
    writeln!(
        out,
        "\nBorrowing helps when per-controller load is skewed and the retune\n\
         is cheap; the paper's static division avoids the arbitration cost."
    )
}

/// Ablation — Start-Gap rotation period (psi) vs wear and lifetime under
/// skewed writes: smaller psi flattens wear (longer media lifetime) at
/// the cost of more leveling copies.
fn psi(out: &mut String, _: &[CellSpec], _: &[SimReport]) -> fmt::Result {
    const LINES: u64 = 1024;
    const WRITES: u64 = 2_000_000;
    writeln!(
        out,
        "Ablation: Start-Gap rotation period under skewed writes\n"
    )?;
    let widths = [8, 12, 12, 14, 16];
    header(
        out,
        &[
            "psi",
            "gap moves",
            "imbalance",
            "overhead",
            "lifetime (rel)",
        ],
        &widths,
    )?;
    let mut baseline_life = None;
    for psi in [4096u32, 512, 128, 32, 8] {
        let mut sg = StartGap::new(LINES, psi);
        let mut rng = SplitMix64::new(11);
        for _ in 0..WRITES {
            // 90% of writes hammer a single pathological line.
            let line = if rng.chance(0.9) {
                7
            } else {
                rng.next_below(LINES)
            };
            sg.record_write(line);
        }
        let stats = sg.wear_stats();
        let overhead = stats.gap_moves as f64 / WRITES as f64;
        let life = sg.lifetime_secs(1.0, 10_000_000).expect("writes observed");
        let base = *baseline_life.get_or_insert(life);
        let cells = [
            psi.to_string(),
            stats.gap_moves.to_string(),
            f3(stats.imbalance),
            format!("{:.2}%", overhead * 100.0),
            format!("{:.2}x", life / base),
        ];
        row(out, &cells, &widths)?;
    }
    writeln!(
        out,
        "\nSmaller psi means more full rotations over the run, so a hammered\n\
         line's writes spread over more physical slots (longer lifetime) at\n\
         the cost of more leveling copies. Start-Gap only migrates a hot\n\
         line one slot per full rotation, so the knee sits where rotation\n\
         overhead is still a few percent — the paper's mid-range choice."
    )
}

/// Ablation — DRAM : XPoint capacity ratio around Table I's 1:8 planar
/// and 1:64 two-level points (bfsdata, Ohm-BW).
fn ratio(out: &mut String, cells: &[CellSpec], reports: &[SimReport]) -> fmt::Result {
    let name = cells[0].workload.name;
    writeln!(
        out,
        "Ablation: DRAM:XPoint capacity ratio ({name}, Ohm-BW)\n"
    )?;
    let widths = [8, 11, 9, 11, 12, 12];
    header(
        out,
        &[
            "mode",
            "ratio",
            "IPC",
            "lat(ns)",
            "DRAM share",
            "migrations",
        ],
        &widths,
    )?;
    for (cell, r) in cells.iter().zip(reports) {
        let (label, ratio) = match cell.mode {
            OperationalMode::Planar => ("planar", cell.config.memory.planar_ratio),
            OperationalMode::TwoLevel => ("2-level", cell.config.memory.two_level_ratio),
        };
        let cells = [
            label.to_string(),
            format!("1:{ratio}"),
            f3(r.ipc),
            format!("{:.0}", r.avg_mem_latency_ns),
            pct(r.hetero_dram_hit_rate),
            r.migrations.to_string(),
        ];
        row(out, &cells, &widths)?;
    }
    writeln!(
        out,
        "\nMore DRAM per group (smaller ratio) buys hit rate; the paper's\n\
         1:8 / 1:64 points trade that against capacity and cost (Table III)."
    )
}

/// Ablation — the planar hot-page promotion threshold on a skewed
/// workload, Ohm-base (migrations on the channel) against Ohm-BW (dual
/// routes).
fn threshold(out: &mut String, cells: &[CellSpec], reports: &[SimReport]) -> fmt::Result {
    let name = cells[0].workload.name;
    writeln!(out, "Ablation: planar hot-page threshold ({name})\n")?;
    let widths = [10, 10, 9, 12, 12, 12];
    header(
        out,
        &[
            "threshold",
            "platform",
            "IPC",
            "migrations",
            "DRAM share",
            "mig-channel",
        ],
        &widths,
    )?;
    for (cell, r) in cells.iter().zip(reports) {
        let cells = [
            cell.config.memory.hot_threshold.to_string(),
            r.platform.name().to_string(),
            f3(r.ipc),
            r.migrations.to_string(),
            pct(r.hetero_dram_hit_rate),
            pct(r.migration_channel_fraction),
        ];
        row(out, &cells, &widths)?;
    }
    writeln!(
        out,
        "\nDual routes (Ohm-BW) tolerate aggressive thresholds that would\n\
         swamp Ohm-base's data route with migration traffic."
    )
}

/// Writes the latency row of each stage in `names` that `summary`
/// recorded, the name padded to `width`.
fn stage_rows(
    out: &mut String,
    summary: &StageSummary,
    names: &[&str],
    width: usize,
) -> fmt::Result {
    for name in names {
        if let Some(row) = summary.stages.iter().find(|r| r.name == *name) {
            writeln!(
                out,
                "  {:<width$} count {:>8}  mean {:>9.1} ns  p99 {:>9.1} ns",
                row.name, row.count, row.mean_ns, row.p99_ns
            )?;
        }
    }
    Ok(())
}

/// Lifetime sweep (not a paper figure) — IPC, latency, the ECC and
/// retirement tallies and the effective XPoint capacity as the
/// accelerated-aging endurance budget shrinks, then the lifecycle stage
/// rows of an observed run of the oldest point.
fn lifetime(out: &mut String, cells: &[CellSpec], reports: &[SimReport]) -> fmt::Result {
    writeln!(
        out,
        "Lifetime: Ohm-WOM planar / pagerank under accelerated XPoint aging\n"
    )?;
    let widths = [9, 7, 8, 9, 8, 8, 9, 7, 8, 9, 8];
    let cols = [
        "endurance",
        "ipc",
        "lat_ns",
        "ecc_corr",
        "ecc_unc",
        "retired",
        "spares",
        "dead",
        "usable",
        "eff_ratio",
        "pinned",
    ];
    header(out, &cols, &widths)?;
    for (cell, report) in cells.iter().zip(reports) {
        let e = endurance(cell);
        let w = report.wear.clone().unwrap_or_default();
        let planner = w.planner.unwrap_or(PlannerWear {
            pinned: 0,
            usable_fraction: 1.0,
            effective_ratio: cell.config.memory.planar_ratio as f64,
        });
        let cells = [
            if e == 0 {
                "fresh".to_string()
            } else {
                e.to_string()
            },
            f3(report.ipc),
            format!("{:.1}", report.avg_mem_latency_ns),
            w.ecc_corrected.to_string(),
            w.ecc_uncorrectable.to_string(),
            w.retired_lines.to_string(),
            format!("{}/{}", w.spares_used, w.spares_total),
            w.dead_lines.to_string(),
            format!("{:.4}", if e == 0 { 1.0 } else { w.usable_capacity }),
            format!("{:.3}", planner.effective_ratio),
            planner.pinned.to_string(),
        ];
        row(out, &cells, &widths)?;
    }

    // The lifecycle actions as first-class stages at the oldest point.
    let last = cells.last().expect("a sweep point");
    let oldest = observed(last);
    writeln!(out, "\nlifecycle stages at endurance {}:", endurance(last))?;
    let summary = oldest.stages.as_ref().expect("observability enabled");
    stage_rows(
        out,
        summary,
        &["ecc-correct", "line-retire", "remap-spare"],
        14,
    )?;
    if let Some(w) = &oldest.wear {
        if let (Some(first), Some(last)) = (w.capacity_curve.first(), w.capacity_curve.last()) {
            writeln!(
                out,
                "\neffective-capacity curve: {} samples, first escalation at {} \
                 (usable {:.4}), final at {} (usable {:.4})",
                w.capacity_curve.len(),
                first.0,
                first.1,
                last.0,
                last.1
            )?;
        }
    }
    writeln!(
        out,
        "\n(endurance is the accelerated-aging write budget per wear bucket; \
         'fresh' disables the lifecycle — the day-one device of Figure 16. \
         Retired lines remap into spares until 'spares' exhausts, then die \
         best-effort and shrink usable capacity; the planar planner pins \
         hot pages in DRAM instead of demoting onto dead media.)"
    )
}

/// LLM inference phases (not a paper figure) — whole-run numbers per
/// platform, then each platform's per-phase breakdown. The KV-cache
/// phases walk the top 37.5% of the footprint, beyond the planar DRAM
/// slice, so `kv-scan` lives or dies by the channel's migration
/// throughput.
fn llm_phases(out: &mut String, _: &[CellSpec], reports: &[SimReport]) -> fmt::Result {
    writeln!(
        out,
        "LLM phases: prefill/softmax/decode/KV plan on gctopo's footprint\n"
    )?;
    let widths = [9, 7, 8, 10, 9, 9, 9];
    header(
        out,
        &[
            "platform", "ipc", "lat_ns", "mem_reqs", "dram_hit", "migr", "chan_use",
        ],
        &widths,
    )?;
    for r in reports {
        let cells = [
            format!("{:?}", r.platform),
            f3(r.ipc),
            format!("{:.1}", r.avg_mem_latency_ns),
            r.mem_requests.to_string(),
            f3(r.hetero_dram_hit_rate),
            r.migrations.to_string(),
            f3(r.channel_utilization),
        ];
        row(out, &cells, &widths)?;
    }
    for r in reports {
        let summary = r.phases.as_ref().expect("phased config");
        writeln!(out, "\n{:?} per-phase breakdown:", r.platform)?;
        out.push_str(&summary.format_table());
    }
    writeln!(
        out,
        "\n(phases progress per-lane by instruction budget; 'dram'/'xpoint' \
         count requests served by each tier, attributed to the phase that \
         issued them. prefill/softmax/decode walk the lower half of the \
         footprint and mostly hit migrated DRAM; kv-append/kv-scan walk \
         the top 37.5% — beyond the planar DRAM slice — so their split is \
         the direct read of how well each platform migrates the KV cache.)"
    )
}

/// Resilience sweep (not a paper figure) — IPC, latency and every
/// recovery tally as one fault-severity scalar rises from the
/// fault-free operating point, then the recovery stage rows of an
/// observed run at full severity.
fn resilience(out: &mut String, cells: &[CellSpec], reports: &[SimReport]) -> fmt::Result {
    writeln!(
        out,
        "Resilience: Ohm-WOM planar / pagerank under injected fault severity\n"
    )?;
    let widths = [8; 9];
    let cols = [
        "severity", "ipc", "lat_ns", "corrupt", "retx", "rearb", "fallback", "media_rt", "poisoned",
    ];
    header(out, &cols, &widths)?;
    for (cell, report) in cells.iter().zip(reports) {
        let f = report.faults.expect("plan armed");
        let cells = [
            format!("{:.2}", severity(cell)),
            f3(report.ipc),
            format!("{:.1}", report.avg_mem_latency_ns),
            f.corrupted_transfers.to_string(),
            f.retransmissions.to_string(),
            f.rearbitrations.to_string(),
            f.electrical_fallbacks.to_string(),
            f.media_retries.to_string(),
            f.poisoned_lines.to_string(),
        ];
        row(out, &cells, &widths)?;
    }

    // The recovery paths as first-class stages at full severity.
    let last = cells.last().expect("a sweep point");
    let worst = observed(last);
    writeln!(out, "\nrecovery stages at severity {:.2}:", severity(last))?;
    let summary = worst.stages.as_ref().expect("observability enabled");
    let stages = [
        "retransmit",
        "rearbitrate",
        "fallback-electrical",
        "media-retry",
    ];
    stage_rows(out, summary, &stages, 20)?;
    writeln!(
        out,
        "\n(severity maps onto Q-derate, MRR fault ppm and XPoint stall ppm \
         together; 0.00 is the fault-free operating point of Figure 20b)"
    )
}

/// The full evaluation grid (7 platforms × 2 modes × 10 Table II
/// workloads) as CSV, for plotting with external tools.
fn grid_csv(out: &mut String, _: &[CellSpec], reports: &[SimReport]) -> fmt::Result {
    let header: String = SimReport::csv_header().split_whitespace().collect();
    writeln!(out, "{header}")?;
    reports
        .iter()
        .try_for_each(|r| writeln!(out, "{}", r.csv_row()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn committed(file: &str) -> String {
        let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn render_only_outputs_match_their_committed_files() {
        for name in ["table1", "table2", "table3", "fig20b", "ablation_psi"] {
            let output = find(name).unwrap();
            assert!((output.cells)().is_empty(), "{name} declares cells");
            assert!(
                output.render(&[], &[]) == committed(output.file),
                "{name} drifted from results/{}",
                output.file
            );
        }
    }

    #[test]
    fn outputs_request_776_cells_of_which_197_are_distinct() {
        let cells: Vec<CellSpec> = OUTPUTS.iter().flat_map(|o| (o.cells)()).collect();
        let distinct: HashSet<u64> = cells.iter().map(CellSpec::key).collect();
        assert_eq!(cells.len(), 776);
        assert_eq!(distinct.len(), 197);
    }

    #[test]
    fn names_are_unique_file_stems() {
        let names: HashSet<&str> = OUTPUTS.iter().map(Output::name).collect();
        assert_eq!(names.len(), OUTPUTS.len());
        assert_eq!(find("grid").unwrap().file, "grid.csv");
        assert!(find("export_csv").is_none());
    }

    #[test]
    fn sweep_parameters_read_back_from_cells() {
        let severities: Vec<f64> = resilience_cells().iter().map(severity).collect();
        assert_eq!(severities, [0.0, 0.25, 0.5, 0.75, 1.0]);
        let budgets: Vec<u64> = lifetime_cells().iter().map(endurance).collect();
        assert_eq!(budgets, [0, 64, 16, 8, 4]);
    }
}
