//! Deterministic scoped-thread fan-out for embarrassingly parallel jobs.
//!
//! Simulation cells (platform × workload) share no state: each builds
//! its own [`System`](crate::system::System) from a cloned config.
//! Running them on scoped threads therefore produces *bit-identical*
//! results to a serial run — every job computes the same `SimReport`
//! regardless of which worker runs it or when — and [`map`] returns
//! results in input order.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Index of the most recently reported panicked cell, offset by one so 0
/// means "none yet". Diagnostic only — read by tests to assert the
/// failing-cell report fires at every thread count.
static LAST_PANICKED_CELL: AtomicUsize = AtomicUsize::new(0);

/// Reports a panicking cell on stderr before it is rethrown (strict) or
/// converted into a [`CellError`] (isolate).
fn report_cell_panic(i: usize, action: &str) {
    LAST_PANICKED_CELL.store(i + 1, Ordering::Relaxed);
    eprintln!("par::map: job for cell {i} panicked; {action}");
}

/// Renders a caught panic payload as a message: the `&str` / `String`
/// payloads `panic!` produces pass through verbatim, anything else
/// becomes a placeholder.
fn payload_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

#[cfg(test)]
fn last_panicked_cell() -> Option<usize> {
    LAST_PANICKED_CELL.load(Ordering::Relaxed).checked_sub(1)
}

/// A cell whose job panicked.
///
/// Produced by [`map`] under [`Policy::Isolate`]; surfaced by the runner
/// as a quarantined [`CellOutcome`](crate::runner::CellOutcome).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// The cell's index in `0..n` (row-major grid order in the runner).
    pub index: usize,
    /// The panic payload rendered as text.
    pub payload: String,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell {} panicked: {}", self.index, self.payload)
    }
}

impl std::error::Error for CellError {}

/// What [`map`] does with a panicking cell. Either way each cell runs
/// once: the simulator is deterministic, so a cell that panicked would
/// panic the same way again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Workers stop taking new cells after the first panic and the map
    /// rethrows: the job's original payload for a single failure, one
    /// message naming every failed cell for several. A strict map
    /// therefore never returns an `Err`.
    Strict,
    /// A panicking cell is returned as a [`CellError`] while every other
    /// cell completes.
    Isolate,
}

/// A result plus the wall-clock time of the job that produced it.
type Timed<R> = (R, Duration);

/// Maps `job` over `0..n` on up to `threads` workers, returning one
/// `Result` per cell in index order, each `Ok` carrying the wall-clock
/// time of the job that produced it.
///
/// Workers pull the next index from a shared counter (dynamic load
/// balancing — simulation cells vary widely in cost) and tag each result
/// with its index; the tags scatter results back into input order, so
/// the output is independent of scheduling. The workers are scoped
/// threads, so `job` may borrow the caller's data. With `threads <= 1`
/// (which includes `n <= 1`) the map runs inline on the caller's thread
/// and spawns no worker.
///
/// # Panics
///
/// Under [`Policy::Strict`], if a job panics: every failing cell index
/// is reported on stderr and, after the remaining workers wind down,
/// the job's *original* payload is rethrown (`resume_unwind`) — or, when
/// several cells panicked in the same window, one message naming each.
pub fn map<R, F>(
    n: usize,
    threads: usize,
    policy: Policy,
    job: F,
) -> Vec<Result<Timed<R>, CellError>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    // Under the strict policy a panicked cell flips this so the other
    // workers stop pulling new indices instead of burning through the
    // rest of the grid.
    let poisoned = AtomicBool::new(false);
    let worker = || {
        let mut local = Vec::new();
        while !poisoned.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let r = catch_unwind(AssertUnwindSafe(|| {
                let t0 = Instant::now();
                let r = job(i);
                (r, t0.elapsed())
            }));
            if r.is_err() {
                match policy {
                    Policy::Strict => poisoned.store(true, Ordering::Relaxed),
                    Policy::Isolate => report_cell_panic(i, "quarantining"),
                }
            }
            local.push((i, r));
        }
        local
    };

    let threads = threads.clamp(1, n.max(1));
    let tagged = if threads <= 1 {
        worker()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker thread itself panicked"))
                .collect()
        })
    };

    let mut slots: Vec<Option<Result<Timed<R>, CellError>>> = (0..n).map(|_| None).collect();
    let mut panics: Vec<(usize, Box<dyn Any + Send>)> = Vec::new();
    for (i, r) in tagged {
        debug_assert!(slots[i].is_none(), "index {i} produced twice");
        match r {
            Ok(v) => slots[i] = Some(Ok(v)),
            Err(p) => panics.push((i, p)),
        }
    }
    if policy == Policy::Strict && !panics.is_empty() {
        rethrow(panics);
    }
    for (i, p) in panics {
        slots[i] = Some(Err(CellError {
            index: i,
            payload: payload_message(p.as_ref()),
        }));
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index produces exactly one result"))
        .collect()
}

/// The strict policy's rethrow. Several workers can panic in the same
/// scheduling window; every failing index is reported, not just
/// whichever worker was joined first.
fn rethrow(mut panics: Vec<(usize, Box<dyn Any + Send>)>) -> ! {
    panics.sort_by_key(|(i, _)| *i);
    for (i, _) in &panics {
        report_cell_panic(*i, "rethrowing");
    }
    if panics.len() == 1 {
        // Single failure: rethrow the job's original payload so the
        // caller sees the real panic, not a wrapper.
        resume_unwind(panics.pop().expect("non-empty").1);
    }
    let detail: Vec<String> = panics
        .iter()
        .map(|(i, p)| format!("cell {i}: {}", payload_message(p.as_ref())))
        .collect();
    resume_unwind(Box::new(format!(
        "{} cells panicked — {}",
        panics.len(),
        detail.join("; ")
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the panic-protocol tests: they share the global
    /// LAST_PANICKED_CELL marker and would race under the parallel test
    /// runner.
    static PANIC_TEST_LOCK: Mutex<()> = Mutex::new(());

    /// The values of a strict map (which never returns an `Err`).
    fn values<R>(out: Vec<Result<Timed<R>, CellError>>) -> Vec<R> {
        out.into_iter().map(|r| r.unwrap().0).collect()
    }

    #[test]
    fn preserves_input_order() {
        for threads in [1, 2, 4, 7] {
            let out = values(map(13, threads, Policy::Strict, |i| i * i));
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn job_may_borrow_the_callers_data() {
        let data: Vec<u64> = (0..10).map(|i| i * 7).collect();
        let out = values(map(data.len(), 3, Policy::Strict, |i| data[i] + 1));
        assert_eq!(out, data.iter().map(|d| d + 1).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert!(map(0, 4, Policy::Strict, |i| i).is_empty());
        assert_eq!(values(map(1, 4, Policy::Strict, |i| i + 1)), vec![1]);
    }

    #[test]
    fn strict_panic_rethrows_original_payload_and_reports_cell() {
        let _guard = PANIC_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1, 2] {
            LAST_PANICKED_CELL.store(0, Ordering::Relaxed);
            let caught = std::panic::catch_unwind(|| {
                map(8, threads, Policy::Strict, |i| {
                    if i == 5 {
                        panic!("cell five exploded");
                    }
                    i
                })
            })
            .expect_err("panic must propagate");
            assert_eq!(
                last_panicked_cell(),
                Some(5),
                "report did not fire at threads={threads}"
            );
            let msg = caught
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| caught.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            assert!(
                msg.contains("cell five exploded"),
                "original payload lost at threads={threads}: {msg:?}"
            );
        }
    }

    #[test]
    fn concurrent_panics_all_reported() {
        // Two workers, two cells, both panic in the same window (a
        // barrier guarantees neither worker sees the poison flag before
        // pulling its index). The rethrown payload must name BOTH cells.
        let _guard = PANIC_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let started = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            map(2, 2, Policy::Strict, |i| {
                started.fetch_add(1, Ordering::SeqCst);
                while started.load(Ordering::SeqCst) < 2 {
                    std::hint::spin_loop();
                }
                panic!("cell {i} exploded");
            })
        }))
        .expect_err("panic must propagate");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("2 cells panicked"), "got: {msg:?}");
        assert!(
            msg.contains("cell 0: cell 0 exploded") && msg.contains("cell 1: cell 1 exploded"),
            "a concurrent panic was dropped: {msg:?}"
        );
    }

    #[test]
    fn isolate_quarantines_without_killing_the_map() {
        for threads in [1, 3] {
            let out = map(8, threads, Policy::Isolate, |i| {
                if i == 5 {
                    panic!("cell five exploded");
                }
                i * 10
            });
            assert_eq!(out.len(), 8);
            for (i, r) in out.iter().enumerate() {
                if i == 5 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, 5);
                    assert!(e.payload.contains("cell five exploded"), "{e}");
                } else {
                    assert_eq!(r.as_ref().unwrap().0, i * 10, "healthy cell {i} lost");
                }
            }
        }
    }

    #[test]
    fn every_ok_cell_carries_its_wall_time() {
        for policy in [Policy::Strict, Policy::Isolate] {
            let out = map(4, 2, policy, |i| {
                std::thread::sleep(Duration::from_millis(2));
                i
            });
            for (i, r) in out.iter().enumerate() {
                let (v, wall) = r.as_ref().unwrap();
                assert_eq!(*v, i);
                assert!(*wall >= Duration::from_millis(2), "{policy:?}: {wall:?}");
            }
        }
    }

    #[test]
    fn balances_uneven_jobs() {
        // Jobs of wildly different cost still land in order.
        let spin = |i: usize| {
            let n = if i.is_multiple_of(3) { 20_000 } else { 10 };
            (0..n).fold(i as u64, |acc, _| acc.wrapping_mul(31).wrapping_add(7))
        };
        let out = values(map(8, 3, Policy::Strict, spin));
        let serial: Vec<u64> = (0..8).map(spin).collect();
        assert_eq!(out, serial);
    }
}
