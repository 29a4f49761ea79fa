//! The scoped worker pool.
//!
//! Workers claim cells from a shared atomic cursor, execute them, and keep
//! `(index, result)` pairs thread-local; the merge sorts by index after the
//! scope closes. Determinism therefore never depends on scheduling: the
//! only shared mutable state is the claim cursor, and it influences *which
//! thread* runs a cell, never what the cell computes or where its result
//! lands.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::plan::{CellCtx, RunPlan};

pub(crate) fn execute<C, R, F>(plan: &RunPlan<C>, run_cell: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&mut CellCtx<'_, C>) -> R + Sync,
{
    let total = plan.cells.len();
    let workers = plan.workers.get().min(total.max(1));

    let mut indexed: Vec<(usize, R)> = if workers <= 1 {
        run_span(plan, &run_cell, &AtomicUsize::new(0))
    } else {
        let cursor = AtomicUsize::new(0);
        let mut collected: Vec<(usize, R)> = Vec::with_capacity(total);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                // Blessed claim-cursor seam: workers share only the atomic
                // cursor, which hands out each cell index exactly once.
                .map(|_| scope.spawn(|| run_span(plan, &run_cell, &cursor)))
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
    indexed.sort_by_key(|&(index, _)| index);
    debug_assert!(indexed.iter().enumerate().all(|(i, &(idx, _))| i == idx));
    indexed.into_iter().map(|(_, result)| result).collect()
}

/// One worker's claim loop: grab the next unclaimed cell index, run it,
/// keep the result local.
fn run_span<C, R, F>(
    plan: &RunPlan<C>,
    run_cell: &F,
    cursor: &AtomicUsize,
) -> Vec<(usize, R)>
where
    C: Sync,
    F: Fn(&mut CellCtx<'_, C>) -> R + Sync,
{
    let mut local = Vec::new();
    loop {
        // Blessed claim-cursor idiom: Relaxed is enough because the only
        // property used is fetch_add uniqueness — each index is claimed
        // exactly once regardless of ordering, and results are re-sorted
        // by index at the merge.
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(cell) = plan.cells.get(index) else {
            return local;
        };
        let mut ctx = CellCtx::new(cell, index, plan.master_seed);
        local.push((index, run_cell(&mut ctx)));
    }
}

#[cfg(test)]
mod tests {
    use crate::{ExperimentSpec, Workers};

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
