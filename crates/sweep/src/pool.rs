//! The scoped worker pool.
//!
//! Workers claim cells from a shared atomic cursor, execute them, and keep
//! `(index, result)` pairs thread-local; the merge sorts by index after the
//! scope closes. Determinism therefore never depends on scheduling: the
//! only shared mutable state is the claim cursor, and it influences *which
//! thread* runs a cell, never what the cell computes or where its result
//! lands.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::observer::{CellReport, SweepObserver, SweepSummary};
use crate::plan::{CellCtx, RunPlan};

pub(crate) fn execute<C, R, F>(
    plan: &RunPlan<C>,
    observer: &(impl SweepObserver + ?Sized),
    run_cell: F,
) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&mut CellCtx<'_, C>) -> R + Sync,
{
    let total = plan.cells.len();
    let workers = plan.workers.get().min(total.max(1));
    #[expect(
        clippy::disallowed_methods,
        reason = "host wall clock for observability only: never feeds simulation state, \
                  RNG streams, or merged results"
    )]
    let sweep_start = Instant::now();

    let mut indexed: Vec<(usize, R, u64)> = if workers <= 1 {
        run_span(plan, observer, &run_cell, &AtomicUsize::new(0))
    } else {
        let cursor = AtomicUsize::new(0);
        let mut collected: Vec<(usize, R, u64)> = Vec::with_capacity(total);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                // Blessed claim-cursor seam: workers share only the atomic
                // cursor, which hands out each cell index exactly once.
                .map(|_| scope.spawn(|| run_span(plan, observer, &run_cell, &cursor)))
                .collect();
            for handle in handles {
                match handle.join() {
                    // Blessed ordered-merge seam: spans arrive in join
                    // order, but every entry carries its cell index and
                    // the sort below restores cell order.
                    Ok(local) => collected.extend(local),
                    // Re-raise the first worker panic on the caller thread
                    // so a failing cell fails the sweep loudly.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        collected
    };

    // The determinism contract: results in cell order, always.
    indexed.sort_by_key(|&(index, ..)| index);
    debug_assert!(indexed.iter().enumerate().all(|(i, &(idx, ..))| i == idx));

    let sim_events = indexed.iter().map(|&(.., events)| events).sum();
    observer.sweep_completed(&SweepSummary {
        name: plan.name.clone(),
        cells: total,
        workers,
        wall: sweep_start.elapsed(),
        sim_events,
    });
    indexed.into_iter().map(|(_, result, _)| result).collect()
}

/// One worker's claim loop: grab the next unclaimed cell index, run it,
/// report it, keep the result local.
fn run_span<C, R, F>(
    plan: &RunPlan<C>,
    observer: &(impl SweepObserver + ?Sized),
    run_cell: &F,
    cursor: &AtomicUsize,
) -> Vec<(usize, R, u64)>
where
    C: Sync,
    F: Fn(&mut CellCtx<'_, C>) -> R + Sync,
{
    let total = plan.cells.len();
    let mut local = Vec::new();
    loop {
        // Blessed claim-cursor idiom: Relaxed is enough because the only
        // property used is fetch_add uniqueness — each index is claimed
        // exactly once regardless of ordering, and results are re-sorted
        // by index at the merge.
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        if index >= total {
            return local;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "per-cell wall time: host-side observability only, as in `execute`"
        )]
        let cell_start = Instant::now();
        let mut ctx = CellCtx::new(&plan.cells[index], index, total, plan.master_seed);
        let result = run_cell(&mut ctx);
        let sim_events = ctx.sim_events;
        observer.cell_completed(&CellReport {
            index,
            total,
            wall: cell_start.elapsed(),
            sim_events,
        });
        local.push((index, result, sim_events));
    }
}

#[cfg(test)]
mod tests {
    use crate::{CountingObserver, ExperimentSpec, Workers};

    #[test]
    fn observer_sees_every_cell_and_the_summary() {
        let observer = CountingObserver::new();
        let plan = ExperimentSpec::new("obs")
            .cells(0u64..10)
            .workers(Workers::new(3))
            .build();
        let out = plan.run_observed(&observer, |ctx| {
            ctx.record_sim_events(5);
            *ctx.cell()
        });
        assert_eq!(out.len(), 10);
        assert_eq!(observer.cells_completed(), 10);
        assert_eq!(observer.sim_events(), 50);
        assert_eq!(observer.sweeps_completed(), 1);
    }

    #[test]
    fn serial_path_reports_identically() {
        let observer = CountingObserver::new();
        let plan = ExperimentSpec::new("serial-obs")
            .cells(0u64..4)
            .workers(Workers::SERIAL)
            .build();
        plan.run_observed(&observer, |ctx| {
            ctx.record_sim_events(2);
        });
        assert_eq!(observer.cells_completed(), 4);
        assert_eq!(observer.sim_events(), 8);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            ExperimentSpec::new("boom")
                .cells(0u32..8)
                .workers(Workers::new(2))
                .build()
                .run(|ctx| {
                    assert!(*ctx.cell() != 5, "cell 5 exploded");
                    *ctx.cell()
                })
        });
        assert!(result.is_err(), "the cell panic must surface");
    }
}
