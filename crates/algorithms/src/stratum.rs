//! The scoped-thread chunk runner the parallel searches share, and the
//! chunked stratum check that Samarati's parallel probe and the level-wise
//! parallel sweep build on it.

use crate::request::Setup;
use crate::stats::SearchStats;
use psens_core::budget::BudgetState;
use psens_core::evaluator::EvalContext;
use psens_core::SearchObserver;
use psens_hierarchy::Node;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `run(index, chunk)` over every chunk on `workers` scoped threads and
/// returns the per-chunk results in chunk order, `None` for a chunk whose
/// worker panicked. What to do with a lost chunk is the caller's policy.
pub(crate) fn run_chunks<R: Send>(
    chunks: &[&[Node]],
    workers: usize,
    run: &(impl Fn(usize, &[Node]) -> R + Sync),
) -> Vec<Option<R>> {
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut claimed = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = chunks.get(index) else {
                            break;
                        };
                        // Fault isolation: a panic (from a poisoned chunk, a
                        // broken observer, ...) is caught at the chunk
                        // boundary, so sibling chunks and the caller keep
                        // going. `AssertUnwindSafe` is sound here because a
                        // panicking chunk's entire result is discarded — no
                        // partially-updated state crosses the boundary.
                        let partial = catch_unwind(AssertUnwindSafe(|| run(index, chunk))).ok();
                        claimed.push((index, partial));
                    }
                    claimed
                })
            })
            .collect();
        // Every chunk is claimed by exactly one executor; re-assemble the
        // per-chunk results in node order so downstream merging stays
        // deterministic regardless of which executor ran which chunk.
        let mut slots: Vec<Option<R>> = (0..chunks.len()).map(|_| None).collect();
        for handle in handles {
            for (index, partial) in handle.join().expect("worker panics are caught inside") {
                slots[index] = partial;
            }
        }
        slots
    })
}

/// One worker's chunk: stratum indices of its satisfying nodes, whether the
/// budget tripped mid-chunk, and the worker's private stats.
type Chunk = Result<(Vec<usize>, bool, SearchStats), psens_hierarchy::Error>;

/// Checks `nodes` on `tuning.threads` scoped workers, one contiguous chunk
/// each, sharing the budget, the observer and (when present) the verdict
/// store. Returns the indices of the satisfying nodes in ascending order and
/// whether the budget refused an admission. With `first_only` each worker
/// stops at its chunk's first satisfier; the smallest index returned is then
/// still the stratum's first satisfier, which is all a probe needs.
///
/// A panicked chunk is re-run serially on the calling thread (counted in
/// `worker_failures`), so a deterministic panic propagates the second time.
/// Dropping the chunk instead could hide a satisfier, which would make a
/// probe's height bound or the sweep's `completed_height` unsound.
pub(crate) fn check_stratum<O: SearchObserver>(
    setup: &Setup<'_>,
    ectx: &EvalContext,
    nodes: &[Node],
    state: &BudgetState,
    first_only: bool,
    stats: &mut SearchStats,
    observer: &O,
) -> Result<(Vec<usize>, bool), psens_hierarchy::Error> {
    let tuning = setup.req.tuning;
    let check_stats = &*setup.check_stats;
    let chunk_size = nodes.len().div_ceil(tuning.effective_threads()).max(1);
    let run_chunk = |ci: usize, chunk: &[Node]| -> Chunk {
        let start = ci * chunk_size;
        let mut eval = ectx.evaluator();
        let mut part = SearchStats::default();
        let mut hits = Vec::new();
        let mut tripped = false;
        for (i, node) in chunk.iter().enumerate() {
            match eval.check_cached(node, check_stats, state, tuning.cache, true, observer)? {
                ControlFlow::Break(_) => {
                    tripped = true;
                    break;
                }
                ControlFlow::Continue(cc) => {
                    part.record_cached(&cc);
                    if cc.satisfied {
                        hits.push(start + i);
                        if first_only {
                            break;
                        }
                    }
                }
            }
        }
        Ok((hits, tripped, part))
    };

    let chunks: Vec<&[Node]> = nodes.chunks(chunk_size).collect();
    let partials = run_chunks(&chunks, chunks.len(), &run_chunk);

    // Chunks are contiguous and each reports ascending indices, so the
    // concatenation is already in stratum node order.
    let mut hits = Vec::new();
    let mut any_tripped = false;
    for (ci, partial) in partials.into_iter().enumerate() {
        let outcome = match partial {
            Some(outcome) => outcome,
            None => {
                stats.worker_failures += 1;
                run_chunk(ci, chunks[ci])
            }
        };
        let (chunk_hits, tripped, part) = outcome?;
        stats.merge(&part);
        any_tripped |= tripped;
        hits.extend(chunk_hits);
    }
    Ok((hits, any_tripped))
}
