//! Execution tuning shared by the lattice searches: worker-thread count and
//! an optional shared [`VerdictStore`].
//!
//! The defaults reproduce the untuned behaviour exactly — one thread, no
//! cache — so a [`crate::SearchRequest`] that leaves `tuning` alone keeps
//! the historical semantics, including bit-identical
//! [`crate::stats::SearchStats`].

use psens_core::verdict::VerdictStore;
use psens_microdata::resolve_threads;

/// Execution knobs of a [`crate::SearchRequest`]: they change how fast a
/// search runs, never what it returns.
#[derive(Debug, Clone, Copy)]
pub struct Tuning<'a> {
    /// Worker threads for per-stratum evaluation. `1` means serial (the
    /// historical code path, bit-identical stats); `0` means one worker per
    /// available core ([`std::thread::available_parallelism`], the same
    /// convention as the CLI's `--threads 0`); with more threads each
    /// lattice stratum is chunked across scoped workers.
    pub threads: usize,
    /// Shared verdict store consulted before every kernel check and updated
    /// with every fresh verdict. The store must have been built for the
    /// same `(table, QI space, p, k, ts)` configuration; sharing one store
    /// across runs (or across strategies) is what makes verdicts reusable.
    pub cache: Option<&'a VerdictStore>,
    /// Has no effect. It remains only because the out-of-workspace
    /// benchmark builds `Tuning` as a struct literal; it is deleted with
    /// the `pk_minimal_generalization_model_with_stats` forwarder the next
    /// time the benchmark changes. Build tunings with `..Tuning::default()`.
    #[doc(hidden)]
    pub chunk_rows: usize,
}

impl Default for Tuning<'_> {
    fn default() -> Self {
        Tuning {
            threads: 1,
            cache: None,
            chunk_rows: 0,
        }
    }
}

impl Tuning<'_> {
    /// Effective worker count: at least one; `0` resolves to the available
    /// parallelism (see [`resolve_threads`]).
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads).max(1)
    }
}
