//! Regenerates the evaluation's result files in one pass.
//!
//! ```text
//! reproduce [--checkpoint PATH] [NAME...]
//! ```
//!
//! Writes `results/<file>` (relative to the working directory) for each
//! named output of [`ohm_bench::outputs::OUTPUTS`] — every one of them
//! when no NAME is given. A NAME is the file stem: `fig16`, `table2`,
//! `grid` for `grid.csv`.
//!
//! The selected outputs' cells are concatenated and run through one
//! [`GridRun::run_cells`] on every core, so each distinct cell is
//! simulated once however many outputs read it. `--checkpoint PATH`
//! journals every finished cell to `PATH` (DESIGN.md §3.10): a killed
//! run resumes from the journal, and a second run over a complete
//! journal simulates nothing. Runs are strict — a panicking cell aborts
//! the run with a non-zero exit.
//!
//! Prints one summary line:
//!
//! ```text
//! reproduce: 776 cells requested, 197 distinct, 197 simulated, 0 quarantined, 74.4 s
//! ```
//!
//! A distinct cell that was not simulated was replayed from the journal.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use ohm_bench::outputs::{self, Output, OUTPUTS};
use ohm_core::checkpoint::CellSpec;
use ohm_core::par::{self, Policy};
use ohm_core::runner::{CellOutcome, GridRun};

fn usage() -> ! {
    let names: Vec<&str> = OUTPUTS.iter().map(Output::name).collect();
    eprintln!(
        "usage: reproduce [--checkpoint PATH] [NAME...]\n  NAME: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut checkpoint = None;
    let mut selected: Vec<&Output> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--checkpoint" => checkpoint = Some(args.next().unwrap_or_else(|| usage())),
            name => selected.push(outputs::find(name).unwrap_or_else(|| usage())),
        }
    }
    if selected.is_empty() {
        selected = OUTPUTS.iter().collect();
    }

    let start = Instant::now();
    let per_output: Vec<Vec<CellSpec>> = selected.iter().map(|o| (o.cells)()).collect();
    let cells = per_output.concat();
    let mut run = GridRun::new();
    if let Some(path) = &checkpoint {
        run = run.checkpoint(path);
    }
    let result = run.run_cells(&cells);
    let reports = result.rows.concat();

    // Each renderer reads its own slice, in the order it declared it.
    let mut offsets = vec![0];
    for c in &per_output {
        offsets.push(offsets.last().unwrap() + c.len());
    }
    let render = |i: usize| {
        let slice = offsets[i]..offsets[i + 1];
        selected[i].render(&per_output[i], &reports[slice])
    };
    // Two renderers each run one observed cell; spread them over cores.
    let rendered = par::map(
        selected.len(),
        par::default_threads(),
        Policy::Strict,
        render,
    );

    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results/");
    for (output, text) in selected.iter().zip(rendered) {
        let (text, _) = text.expect("strict map returns every cell");
        let path = dir.join(output.file);
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }

    let distinct = cells
        .iter()
        .map(CellSpec::key)
        .collect::<HashSet<_>>()
        .len();
    let simulated = result
        .outcomes
        .iter()
        .filter(|o| **o == CellOutcome::Completed)
        .count();
    println!(
        "reproduce: {} cells requested, {distinct} distinct, {simulated} simulated, \
         {} quarantined, {:.1} s",
        cells.len(),
        result.failures().count(),
        start.elapsed().as_secs_f64()
    );
}
