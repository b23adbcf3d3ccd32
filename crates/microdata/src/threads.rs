//! Worker-count resolution shared by every parallel path in the workspace.

/// Resolves a requested thread count: `0` means "one worker per available
/// core" via [`std::thread::available_parallelism`] (1 if the parallelism
/// cannot be queried); any other value is clamped to the available
/// parallelism. Every `threads` parameter in the workspace — CLI
/// `--threads`, `Tuning::threads` — is resolved
/// through this function so `0` and oversubscribed requests behave
/// identically everywhere.
///
/// The clamp exists because oversubscription is a measured regression, not a
/// no-op: BENCH_6 recorded `--threads 8` on a 1-core host running group-by
/// at 0.60–0.74x of `threads=1` (eight workers time-slicing one core pay
/// for partitioning and merge without any parallel build). Requests beyond
/// the hardware degrade gracefully to the widest useful worker count; the
/// requested figure is still reported alongside the effective one in
/// `SearchStats`, so a clamped run is visible in reports rather than
/// silent.
pub fn resolve_threads(requested: usize) -> usize {
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    match requested {
        0 => available,
        n => n.min(available),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_zero_means_available_parallelism() {
        let available = std::thread::available_parallelism().map_or(1, usize::from);
        let resolved = resolve_threads(0);
        assert!(resolved >= 1);
        assert_eq!(resolved, available);
        assert_eq!(resolve_threads(3), 3.min(available));
    }

    #[test]
    fn resolve_threads_clamps_oversubscription_to_available_cores() {
        let available = std::thread::available_parallelism().map_or(1, usize::from);
        // Requests within the hardware are taken literally; requests beyond
        // it degrade to the widest useful worker count instead of
        // oversubscribing (the BENCH_6 `--threads 8` on 1 core regression).
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(available), available);
        assert_eq!(resolve_threads(available + 1), available);
        assert_eq!(resolve_threads(usize::MAX), available);
        // Clamping is idempotent: re-resolving an already-resolved count
        // (the CLI resolves before Tuning resolves again) changes nothing.
        assert_eq!(
            resolve_threads(resolve_threads(1024)),
            resolve_threads(1024)
        );
    }
}
