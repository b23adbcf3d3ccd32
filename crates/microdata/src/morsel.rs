//! Morsel-driven, hash-partitioned parallel group-by executor.
//!
//! The executor serves the node evaluator's chunked partition
//! (`EvalContext::with_chunked_partition`): it groups rows by the key a
//! [`KeyKernel`] produces, in the two phases used by morsel-driven engines:
//!
//! 1. **Partition.** Workers pull fixed-size row-range *morsels* from a
//!    shared atomic cursor — no static chunk-per-thread assignment, so a
//!    slow worker never strands work. Each row's key is reduced to either a
//!    dense fused code (when the product of per-column domains fits
//!    [`DENSE_CAP`]) or a seeded multiply-shift hash, and the row is written
//!    into a per-worker, per-partition buffer. With `P =
//!    next_pow2(threads)` partitions chosen by high hash bits, no two
//!    workers ever touch the same buffer: zero cross-thread contention.
//! 2. **Build.** Each partition now holds *all* rows of every group that
//!    hashes into it, scattered across the per-worker buffers. Workers each
//!    claim a disjoint set of partitions and build that partition's group
//!    table locally (a dense radix table or a hash map with exact-key
//!    verification). The "merge" is a trivial concatenation of per-partition
//!    group counts.
//!
//! A final serial pass restores the *canonical* ids: every group records the
//! minimum global row index among its members, and groups are ranked by that
//! first appearance. Because group membership depends only on exact key
//! equality and a minimum is order-independent, the output is byte-identical
//! to the serial single-pass group-by for **any** thread count and morsel
//! size — the differential oracle in `tests/morsel_equivalence.rs` pins
//! this.
//!
//! Fault isolation: each morsel runs under `catch_unwind`; a panicking
//! morsel's partial buffer writes are rolled back and the morsel re-runs
//! serially after the parallel phase (a second panic propagates). Phases 2
//! and 3 inherit the same contract from `chunk_parallel_map`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::hash::{fmix64, FxHashMap};

/// Upper bound on the product of per-column key domains for the dense radix
/// path. Below this, every distinct key fuses injectively into one `u32` and
/// the per-partition group table is a flat array; above it, keys are hashed
/// and verified by exact comparison. 2^20 entries × 4 bytes = 4 MiB per
/// in-flight partition table.
pub const DENSE_CAP: u64 = 1 << 20;

/// Default number of rows per morsel. Small enough that 8 workers get
/// hundreds of steal opportunities on a 10M-row table, large enough that the
/// atomic cursor `fetch_add` is noise (one per 16Ki rows).
const DEFAULT_MORSEL_ROWS: usize = 16_384;

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

/// A source of per-row grouping keys for the morsel executor.
///
/// The executor is generic over *where* keys come from — the evaluator's
/// mapped per-node code columns, or test harnesses that inject faults.
/// Implementations must be deterministic: the same row must always
/// produce the same key, and `rows_equal` must be
/// the exact key-equality relation (hash collisions across unequal rows are
/// handled by the executor; disagreement between `fill_*` on equal rows is
/// not).
pub trait KeyKernel: Sync {
    /// Total number of rows.
    fn n_rows(&self) -> usize;

    /// When every distinct key fuses injectively into a `u32` below
    /// [`DENSE_CAP`], the (exclusive) bound on fused codes; `None` selects
    /// the hashed path.
    fn dense_product(&self) -> Option<u32>;

    /// Writes the fused dense code of rows `start..start + out.len()` into
    /// `out`. Only called when [`Self::dense_product`] is `Some`.
    fn fill_dense(&self, start: usize, out: &mut [u32]);

    /// Writes a well-mixed 64-bit key hash of rows `start..start +
    /// out.len()` into `out`. Equal rows must hash equal; unequal rows may
    /// collide (the executor verifies with [`Self::rows_equal`]).
    fn fill_hashed(&self, start: usize, out: &mut [u64]);

    /// Exact key equality between two rows. Only called on the hashed path.
    fn rows_equal(&self, a: usize, b: usize) -> bool;
}

/// One partitioned row: its global index and its key (dense code or hash).
type Entry<K> = (u32, K);

/// One worker's output: a buffer of entries per partition.
type Bufs<K> = Vec<Vec<Entry<K>>>;

/// Computes the canonical group assignment of every row under `kernel`'s
/// key relation: `(assignment, n_groups)` where ids are dense and ordered
/// by first appearance, exactly as the serial group-by numbers them.
///
/// `threads` is resolved through [`resolve_threads`]; `morsel_rows == 0`
/// selects the default of 16 384 rows.
pub fn group_codes<K: KeyKernel + ?Sized>(
    kernel: &K,
    threads: usize,
    morsel_rows: usize,
) -> (Vec<u32>, u32) {
    let n = kernel.n_rows();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let threads = resolve_threads(threads).max(1);
    let morsel_rows = if morsel_rows == 0 {
        DEFAULT_MORSEL_ROWS
    } else {
        morsel_rows
    };
    let p_count = threads.next_power_of_two();
    match kernel.dense_product() {
        Some(product) => execute(
            n,
            threads,
            p_count,
            morsel_rows,
            |start, out: &mut [u32]| kernel.fill_dense(start, out),
            |key| ((fmix64(u64::from(key)) >> 32) as usize) & (p_count - 1),
            |entries| build_dense(product, entries),
        ),
        None => execute(
            n,
            threads,
            p_count,
            morsel_rows,
            |start, out: &mut [u64]| kernel.fill_hashed(start, out),
            |hash| ((hash >> 32) as usize) & (p_count - 1),
            |entries| build_hashed(kernel, entries),
        ),
    }
}

/// One partition's local group table: per-entry group ids (aligned with the
/// concatenation of the partition's buffers) and each group's minimum global
/// row index.
struct LocalGroups {
    gids: Vec<u32>,
    first_rows: Vec<u32>,
}

/// The three-phase executor, generic over key type and build strategy.
fn execute<K, F, P, B>(
    n: usize,
    threads: usize,
    p_count: usize,
    morsel_rows: usize,
    fill: F,
    part_of: P,
    build: B,
) -> (Vec<u32>, u32)
where
    K: Copy + Default + Send + Sync,
    F: Fn(usize, &mut [K]) + Sync,
    P: Fn(K) -> usize + Sync,
    B: Fn(&[Vec<Entry<K>>]) -> LocalGroups + Sync,
{
    // Phase 1: morsel-driven radix partition.
    let worker_sets = partition_phase(n, threads, p_count, morsel_rows, &fill, &part_of);
    // Transpose worker-major buffers to partition-major without copying.
    let mut parts: Vec<Vec<Vec<Entry<K>>>> = (0..p_count).map(|_| Vec::new()).collect();
    for set in worker_sets {
        for (p, buf) in set.into_iter().enumerate() {
            if !buf.is_empty() {
                parts[p].push(buf);
            }
        }
    }

    // Phase 2: per-partition local group tables, partitions spread across
    // workers with the same fault-isolation contract as morsels.
    let locals = chunk_parallel_map(p_count, threads, |p| build(&parts[p]));

    // Canonical re-ordering: concatenate per-partition groups, rank them by
    // first appearance, then scatter the canonical ids. Ranking is serial
    // (O(G log G) in the number of groups, not rows); the scatter is
    // parallel over partitions — each row belongs to exactly one partition,
    // so the writes are disjoint.
    let mut offsets = Vec::with_capacity(p_count + 1);
    offsets.push(0usize);
    for local in &locals {
        offsets.push(offsets.last().expect("seeded") + local.first_rows.len());
    }
    let n_groups = *offsets.last().expect("seeded");
    let mut first_all: Vec<u32> = Vec::with_capacity(n_groups);
    for local in &locals {
        first_all.extend_from_slice(&local.first_rows);
    }
    let mut order: Vec<u32> = (0..n_groups as u32).collect();
    // Two distinct groups can never share a first row, so the unstable sort
    // is deterministic.
    order.sort_unstable_by_key(|&g| first_all[g as usize]);
    let mut canon = vec![0u32; n_groups];
    for (rank, &g) in order.iter().enumerate() {
        canon[g as usize] = rank as u32;
    }
    let out: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    chunk_parallel_map(p_count, threads, |p| {
        let base = offsets[p];
        let mut i = 0usize;
        for buf in &parts[p] {
            for &(row, _) in buf {
                let gid = locals[p].gids[i] as usize;
                // Disjoint rows; Relaxed stores compile to plain stores.
                out[row as usize].store(canon[base + gid], Ordering::Relaxed);
                i += 1;
            }
        }
    });
    let assignment: Vec<u32> = out.into_iter().map(AtomicU32::into_inner).collect();
    (assignment, n_groups as u32)
}

/// Phase 1: workers pull morsels from a shared cursor and scatter each row
/// into the per-worker buffer of its key's partition. Returns one buffer
/// set per worker (plus one extra set if any morsel panicked and was
/// re-run serially).
fn partition_phase<K, F, P>(
    n: usize,
    threads: usize,
    p_count: usize,
    morsel_rows: usize,
    fill: &F,
    part_of: &P,
) -> Vec<Bufs<K>>
where
    K: Copy + Default + Send,
    F: Fn(usize, &mut [K]) + Sync,
    P: Fn(K) -> usize + Sync,
{
    let n_morsels = n.div_ceil(morsel_rows);
    let workers = threads.min(n_morsels).max(1);
    let cursor = AtomicUsize::new(0);
    let poisoned: Mutex<Vec<usize>> = Mutex::new(Vec::new());

    let run_worker = |bufs: &mut Bufs<K>, keys: &mut Vec<K>, saved: &mut Vec<usize>| loop {
        let m = cursor.fetch_add(1, Ordering::Relaxed);
        if m >= n_morsels {
            break;
        }
        let start = m * morsel_rows;
        let len = morsel_rows.min(n - start);
        saved.clear();
        saved.extend(bufs.iter().map(Vec::len));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            keys.resize(len, K::default());
            fill(start, &mut keys[..len]);
            for (i, &key) in keys[..len].iter().enumerate() {
                bufs[part_of(key)].push(((start + i) as u32, key));
            }
        }));
        if outcome.is_err() {
            roll_back(bufs, saved);
            poisoned
                .lock()
                .expect("partition workers never panic while holding the poison list")
                .push(m);
        }
    };

    let mut sets: Vec<Bufs<K>> = if workers <= 1 {
        let mut bufs: Bufs<K> = (0..p_count).map(|_| Vec::new()).collect();
        run_worker(&mut bufs, &mut Vec::new(), &mut Vec::new());
        vec![bufs]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut bufs: Bufs<K> = (0..p_count).map(|_| Vec::new()).collect();
                        run_worker(&mut bufs, &mut Vec::new(), &mut Vec::new());
                        bufs
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panics are caught per morsel"))
                .collect()
        })
    };

    let mut poisoned = poisoned
        .into_inner()
        .expect("all workers joined before draining the poison list");
    if !poisoned.is_empty() {
        sets.push(rerun_poisoned(
            n,
            p_count,
            morsel_rows,
            &mut poisoned,
            fill,
            part_of,
        ));
    }
    sets
}

/// Discards a panicked morsel's partial buffer writes by truncating each
/// partition buffer back to its length before the morsel started.
#[cold]
fn roll_back<K>(bufs: &mut Bufs<K>, saved: &[usize]) {
    for (buf, &len) in bufs.iter_mut().zip(saved) {
        buf.truncate(len);
    }
}

/// Serial second attempt at every poisoned morsel, in ascending order, into
/// a fresh buffer set. A panic here propagates: the fault-isolation
/// contract retries once, it does not mask deterministic failures.
#[cold]
fn rerun_poisoned<K, F, P>(
    n: usize,
    p_count: usize,
    morsel_rows: usize,
    poisoned: &mut [usize],
    fill: &F,
    part_of: &P,
) -> Bufs<K>
where
    K: Copy + Default,
    F: Fn(usize, &mut [K]),
    P: Fn(K) -> usize,
{
    poisoned.sort_unstable();
    let mut bufs: Bufs<K> = (0..p_count).map(|_| Vec::new()).collect();
    let mut keys: Vec<K> = Vec::new();
    for &m in poisoned.iter() {
        let start = m * morsel_rows;
        let len = morsel_rows.min(n - start);
        keys.resize(len, K::default());
        fill(start, &mut keys[..len]);
        for (i, &key) in keys[..len].iter().enumerate() {
            bufs[part_of(key)].push(((start + i) as u32, key));
        }
    }
    bufs
}

/// Dense build: the partition's group table is a flat `product`-sized radix
/// array mapping fused code → local group id.
fn build_dense(product: u32, entries: &[Vec<Entry<u32>>]) -> LocalGroups {
    let mut table = vec![u32::MAX; product as usize];
    let mut first_rows: Vec<u32> = Vec::new();
    let total: usize = entries.iter().map(Vec::len).sum();
    let mut gids = Vec::with_capacity(total);
    for buf in entries {
        for &(row, key) in buf {
            let slot = &mut table[key as usize];
            let gid = if *slot == u32::MAX {
                let g = first_rows.len() as u32;
                *slot = g;
                first_rows.push(row);
                g
            } else {
                let g = *slot;
                let first = &mut first_rows[g as usize];
                if row < *first {
                    *first = row;
                }
                g
            };
            gids.push(gid);
        }
    }
    LocalGroups { gids, first_rows }
}

/// Hashed build: candidate group ids per 64-bit hash, exactness restored by
/// comparing against each candidate group's recorded member row. Collisions
/// between unequal keys cost an extra `rows_equal`, never correctness.
fn build_hashed<K: KeyKernel + ?Sized>(kernel: &K, entries: &[Vec<Entry<u64>>]) -> LocalGroups {
    let mut map: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let mut first_rows: Vec<u32> = Vec::new();
    let total: usize = entries.iter().map(Vec::len).sum();
    let mut gids = Vec::with_capacity(total);
    for buf in entries {
        for &(row, hash) in buf {
            let candidates = map.entry(hash).or_default();
            let known = candidates
                .iter()
                .copied()
                .find(|&g| kernel.rows_equal(first_rows[g as usize] as usize, row as usize));
            let gid = match known {
                Some(g) => {
                    let first = &mut first_rows[g as usize];
                    if row < *first {
                        *first = row;
                    }
                    g
                }
                None => {
                    let g = first_rows.len() as u32;
                    first_rows.push(row);
                    candidates.push(g);
                    g
                }
            };
            gids.push(gid);
        }
    }
    LocalGroups { gids, first_rows }
}

/// Runs `job(0..n_chunks)` across `threads` scoped workers and returns the
/// results in chunk order.
///
/// Workers are fault-isolated: each chunk's job runs under
/// [`std::panic::catch_unwind`], and a chunk whose job panicked is re-run
/// serially after the parallel phase (a second panic propagates to the
/// caller). `AssertUnwindSafe` is sound because a panicked job's entire
/// result is discarded and recomputed from scratch. With `threads <= 1` (or
/// a single chunk) the jobs run inline on the caller's thread with no
/// spawning and no unwind guard — the zero-overhead serial path.
fn chunk_parallel_map<T, F>(n_chunks: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n_chunks.max(1));
    if threads <= 1 {
        return (0..n_chunks).map(&job).collect();
    }
    let slots: Vec<Option<T>> = std::thread::scope(|scope| {
        let job = &job;
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    // Round-robin chunk assignment: worker w owns chunks
                    // w, w + threads, w + 2·threads, ...
                    (w..n_chunks)
                        .step_by(threads)
                        .map(|c| (c, catch_unwind(AssertUnwindSafe(|| job(c))).ok()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n_chunks).collect();
        for handle in handles {
            for (c, result) in handle.join().expect("worker panics are caught inside") {
                slots[c] = result;
            }
        }
        slots
    });
    // Serial re-run for chunks whose job panicked keeps the result total; a
    // deterministic panic reproduces here, on the caller's thread.
    slots
        .into_iter()
        .enumerate()
        .map(|(c, slot)| slot.unwrap_or_else(|| job(c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::table_from_str_rows;
    use crate::groupby::GroupBy;
    use crate::hash::{mix64, KEY_HASH_SEED};
    use crate::schema::{Attribute, Schema};
    use crate::table::Table;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::cat_key("X"),
            Attribute::int_key("A"),
            Attribute::cat_confidential("S"),
        ])
        .unwrap()
    }

    fn sample() -> Table {
        table_from_str_rows(
            schema(),
            &[
                &["x0", "5", "s0"],
                &["x1", "", "s1"],
                &["x0", "5", "s0"],
                &["x2", "7", ""],
                &["x1", "5", "s2"],
                &["x0", "", "s1"],
                &["x2", "7", "s0"],
                &["x0", "5", "s1"],
                &["x3", "9", "s0"],
                &["x1", "5", "s2"],
                &["x2", "8", "s1"],
            ],
        )
        .unwrap()
    }

    /// A [`KeyKernel`] over the dense codes of a table's `by` columns;
    /// `hashed` hides the dense product to force the hashed path.
    struct DenseCodes {
        n_rows: usize,
        cols: Vec<(Vec<u32>, u32)>,
        hashed: bool,
    }

    impl DenseCodes {
        fn new(t: &Table, by: &[usize], hashed: bool) -> DenseCodes {
            DenseCodes {
                n_rows: t.n_rows(),
                cols: by.iter().map(|&c| t.column(c).dense_codes()).collect(),
                hashed,
            }
        }
    }

    impl KeyKernel for DenseCodes {
        fn n_rows(&self) -> usize {
            self.n_rows
        }
        fn dense_product(&self) -> Option<u32> {
            let product = self.cols.iter().map(|(_, n)| n.max(&1)).product();
            (!self.hashed).then_some(product)
        }
        fn fill_dense(&self, start: usize, out: &mut [u32]) {
            out.fill(0);
            for (codes, n) in &self.cols {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = *slot * (*n).max(1) + codes[start + i];
                }
            }
        }
        fn fill_hashed(&self, start: usize, out: &mut [u64]) {
            out.fill(KEY_HASH_SEED);
            for (codes, _) in &self.cols {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = mix64(*slot, u64::from(codes[start + i]));
                }
            }
            for slot in out.iter_mut() {
                *slot = fmix64(*slot);
            }
        }
        fn rows_equal(&self, a: usize, b: usize) -> bool {
            self.cols.iter().all(|(codes, _)| codes[a] == codes[b])
        }
    }

    #[test]
    fn kernel_matches_serial_for_all_morsels_and_threads() {
        let t = sample();
        let serial = GroupBy::compute(&t, &[0, 1]);
        let kernel = DenseCodes::new(&t, &[0, 1], false);
        for threads in [1, 2, 8] {
            for morsel_rows in [1, 2, 7, 4096] {
                let (assignment, n_groups) = group_codes(&kernel, threads, morsel_rows);
                assert_eq!(assignment.as_slice(), serial.assignments());
                assert_eq!(n_groups as usize, serial.n_groups());
            }
        }
    }

    #[test]
    fn hashed_path_matches_dense_path() {
        let t = sample();
        let serial = GroupBy::compute(&t, &[0, 1]);
        let kernel = DenseCodes::new(&t, &[0, 1], true);
        for threads in [1, 2, 8] {
            for morsel_rows in [1, 3, 4096] {
                let (assignment, n_groups) = group_codes(&kernel, threads, morsel_rows);
                assert_eq!(assignment.as_slice(), serial.assignments());
                assert_eq!(n_groups as usize, serial.n_groups());
            }
        }
    }

    #[test]
    fn empty_by_produces_one_group() {
        let kernel = DenseCodes::new(&sample(), &[], false);
        let (assignment, n_groups) = group_codes(&kernel, 4, 3);
        assert_eq!(n_groups, 1);
        assert!(assignment.iter().all(|&g| g == 0));
    }

    #[test]
    fn empty_table_produces_no_groups() {
        let t = table_from_str_rows(schema(), &[]).unwrap();
        let kernel = DenseCodes::new(&t, &[0, 1], false);
        let (assignment, n_groups) = group_codes(&kernel, 4, 3);
        assert!(assignment.is_empty());
        assert_eq!(n_groups, 0);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let results = chunk_parallel_map(17, 4, |c| c * c);
        assert_eq!(results, (0..17).map(|c| c * c).collect::<Vec<_>>());
        // Degenerate thread counts clamp.
        assert_eq!(chunk_parallel_map(3, 0, |c| c), vec![0, 1, 2]);
        assert!(chunk_parallel_map(0, 8, |c| c).is_empty());
    }

    #[test]
    fn panicked_chunk_is_rerun_serially() {
        // The first attempt at chunk 2 panics; the serial re-run succeeds,
        // so the caller still sees a complete, ordered result.
        let attempts = AtomicUsize::new(0);
        let results = chunk_parallel_map(5, 2, |c| {
            if c == 2 && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected chunk failure");
            }
            c + 10
        });
        assert_eq!(results, vec![10, 11, 12, 13, 14]);
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "chunk 2 ran twice");
    }

    #[test]
    #[should_panic(expected = "injected chunk failure")]
    fn deterministic_panic_propagates_from_serial_rerun() {
        chunk_parallel_map(3, 2, |c| {
            if c == 1 {
                panic!("injected chunk failure");
            }
            c
        });
    }

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
