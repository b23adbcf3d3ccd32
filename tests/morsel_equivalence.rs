//! Differential oracles for the group-by kernels.
//!
//! - `GroupBy::compute`, which refines categorical columns on raw
//!   dictionary codes, must equal the dense-code reference
//!   `GroupBy::from_code_slices` — including on tables whose dictionaries
//!   hold unused or out-of-order entries, and on missing cells.
//! - The morsel executor (`group_codes`), which serves the evaluator's
//!   chunked partition, must be byte-identical to the serial group-by for
//!   every morsel size and thread count, on both its dense and hashed
//!   paths, and must survive an injected worker panic.
//! - End to end, routing node checks through that partition
//!   (`Tuning::chunk_rows > 0`) must not change any search verdict.

use proptest::prelude::*;
use psens::algorithms::{pk_minimal_generalization, SearchRequest, Tuning};
use psens::core::NoopObserver;
use psens::microdata::hash::{fmix64, mix64, KEY_HASH_SEED};
use psens::microdata::{group_codes, KeyKernel};
use psens::prelude::*;
use psens_testkit::spaces::narrow_qi_space;
use psens_testkit::tables::{arb_narrow_row, build_narrow_table, NarrowRow};

/// One-row morsels (maximum cursor contention), a ragged prime, and a size
/// larger than any generated table (a single morsel, so one worker does
/// everything).
const MORSEL_ROWS: [usize; 3] = [1, 7, 4096];
const THREADS: [usize; 3] = [1, 2, 8];

/// Key subsets of the narrow schema (categorical X, integer A with missing
/// cells, categorical S with missing cells), the empty key included.
const BY_SETS: [&[usize]; 6] = [&[0, 1], &[1, 0], &[0], &[1], &[2], &[]];

/// A [`KeyKernel`] over the dense codes of a table's `by` columns. With
/// `hashed` it hides its dense product, forcing the executor's hashed path.
struct DenseKernel {
    n_rows: usize,
    cols: Vec<(Vec<u32>, u32)>,
    hashed: bool,
}

impl DenseKernel {
    fn new(t: &Table, by: &[usize], hashed: bool) -> DenseKernel {
        DenseKernel {
            n_rows: t.n_rows(),
            cols: by.iter().map(|&c| t.column(c).dense_codes()).collect(),
            hashed,
        }
    }
}

impl KeyKernel for DenseKernel {
    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn dense_product(&self) -> Option<u32> {
        let product = self.cols.iter().map(|(_, n)| (*n).max(1)).product();
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

/// The dense-code reference grouping of `t` by `by`.
fn reference(t: &Table, by: &[usize]) -> GroupBy {
    let slices: Vec<(Vec<u32>, u32)> = by.iter().map(|&c| t.column(c).dense_codes()).collect();
    GroupBy::from_code_slices(
        t.n_rows(),
        slices.iter().map(|(codes, n)| (codes.as_slice(), *n)),
        by.to_vec(),
    )
}

fn assert_same_grouping(got: &GroupBy, want: &GroupBy, setting: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        got.assignments(),
        want.assignments(),
        "assignments: {}",
        setting
    );
    prop_assert_eq!(got.sizes(), want.sizes(), "sizes: {}", setting);
    prop_assert_eq!(
        got.representatives(),
        want.representatives(),
        "representatives: {}",
        setting
    );
    prop_assert_eq!(got.by(), want.by(), "by: {}", setting);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `compute` refines categorical columns on raw dictionary codes plus
    /// one missing code; the reference densifies first. `take` over an
    /// arbitrary pick of rows keeps the source dictionaries, so they hold
    /// entries no row uses and entries whose code order differs from their
    /// first appearance.
    #[test]
    fn compute_equals_dense_code_reference(
        rows in prop::collection::vec(arb_narrow_row(), 1..60),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..60),
    ) {
        let source = build_narrow_table(&rows);
        let indices: Vec<usize> = picks.iter().map(|i| i.index(rows.len())).collect();
        for t in [source.clone(), source.take(&indices)] {
            for by in BY_SETS {
                let setting = format!("by={by:?} rows={}", t.n_rows());
                assert_same_grouping(&GroupBy::compute(&t, by), &reference(&t, by), &setting)?;
            }
        }
    }

    /// Morsel-executor differential oracle: for every morsel size × thread
    /// count × key path, the executor's group ids, sizes, and
    /// representatives must be byte-identical to the serial group-by — the
    /// canonical re-ordering pass makes first-appearance ids independent of
    /// how rows were partitioned.
    #[test]
    fn morsel_executor_equals_serial(
        rows in prop::collection::vec(arb_narrow_row(), 1..80),
    ) {
        let t = build_narrow_table(&rows);
        for by in BY_SETS {
            let serial = GroupBy::compute(&t, by);
            for hashed in [false, true] {
                let kernel = DenseKernel::new(&t, by, hashed);
                for threads in THREADS {
                    for morsel_rows in MORSEL_ROWS {
                        let (assignment, n_groups) = group_codes(&kernel, threads, morsel_rows);
                        let gb = GroupBy::from_assignment(assignment, n_groups, by.to_vec());
                        let setting = format!(
                            "by={by:?} hashed={hashed} threads={threads} morsel_rows={morsel_rows}"
                        );
                        assert_same_grouping(&gb, &serial, &setting)?;
                    }
                }
            }
        }
    }
}

mod injected_panic {
    //! Fault isolation: a worker whose morsel panics must not corrupt the
    //! result — the poisoned morsel's partial writes are rolled back and it
    //! re-runs serially, still yielding the byte-identical serial answer.

    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Wraps a real kernel; the first `fill_*` call panics (simulating a
    /// worker fault mid-morsel), every later call delegates.
    struct PanicOnce {
        inner: DenseKernel,
        fired: AtomicBool,
    }

    impl PanicOnce {
        fn trip(&self) {
            if !self.fired.swap(true, Ordering::SeqCst) {
                panic!("injected morsel failure");
            }
        }
    }

    impl KeyKernel for PanicOnce {
        fn n_rows(&self) -> usize {
            self.inner.n_rows()
        }
        fn dense_product(&self) -> Option<u32> {
            self.inner.dense_product()
        }
        fn fill_dense(&self, start: usize, out: &mut [u32]) {
            self.trip();
            self.inner.fill_dense(start, out);
        }
        fn fill_hashed(&self, start: usize, out: &mut [u64]) {
            self.trip();
            self.inner.fill_hashed(start, out);
        }
        fn rows_equal(&self, a: usize, b: usize) -> bool {
            self.inner.rows_equal(a, b)
        }
    }

    #[test]
    fn panicked_morsel_is_rerun_and_result_is_byte_identical() {
        let rows: Vec<NarrowRow> = (0..200)
            .map(|i| {
                (
                    i as u8 % 4,
                    i64::from(i % 5),
                    i % 7 == 0,
                    i as u8 % 3,
                    i % 11 == 0,
                )
            })
            .collect();
        let t = build_narrow_table(&rows);
        let serial = GroupBy::compute(&t, &[0, 1]);
        for threads in [2, 8] {
            for morsel_rows in MORSEL_ROWS {
                for hashed in [false, true] {
                    let kernel = PanicOnce {
                        inner: DenseKernel::new(&t, &[0, 1], hashed),
                        fired: AtomicBool::new(false),
                    };
                    let (assignment, n_groups) = group_codes(&kernel, threads, morsel_rows);
                    assert!(
                        kernel.fired.load(Ordering::SeqCst),
                        "the injected panic must actually fire"
                    );
                    assert_eq!(
                        assignment.as_slice(),
                        serial.assignments(),
                        "threads={threads} morsel_rows={morsel_rows} hashed={hashed}"
                    );
                    assert_eq!(n_groups as usize, serial.n_groups());
                }
            }
        }
    }

    /// A morsel that panics on the serial retry too is a deterministic
    /// failure; the contract propagates it instead of masking it.
    struct AlwaysPanic {
        rows: usize,
    }

    impl KeyKernel for AlwaysPanic {
        fn n_rows(&self) -> usize {
            self.rows
        }
        fn dense_product(&self) -> Option<u32> {
            Some(4)
        }
        fn fill_dense(&self, _start: usize, _out: &mut [u32]) {
            panic!("deterministic kernel failure");
        }
        fn fill_hashed(&self, _start: usize, _out: &mut [u64]) {
            panic!("deterministic kernel failure");
        }
        fn rows_equal(&self, _a: usize, _b: usize) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(expected = "deterministic kernel failure")]
    fn persistent_panic_propagates() {
        group_codes(&AlwaysPanic { rows: 100 }, 4, 7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End to end: routing the node-evaluation kernel through the morsel
    /// partition (`Tuning::chunk_rows`) must not change any search verdict —
    /// winning node, proven height bound, or suppression count.
    #[test]
    fn search_verdicts_survive_chunked_evaluation(
        rows in prop::collection::vec(arb_narrow_row(), 1..40),
        p in 1u32..4,
        k in 1u32..5,
        ts in 0usize..6,
    ) {
        let t = build_narrow_table(&rows);
        let qi = narrow_qi_space();
        let noop = NoopObserver;
        let req = SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts);
        let oracle = pk_minimal_generalization(&t, &qi, &req, &noop).unwrap();
        for chunk_rows in MORSEL_ROWS {
            for threads in THREADS {
                let tuning = Tuning { threads, cache: None, chunk_rows };
                let chunked = SearchRequest { tuning, ..req.clone() };
                let outcome = pk_minimal_generalization(&t, &qi, &chunked, &noop).unwrap();
                let setting = format!(
                    "p={p} k={k} ts={ts} chunk_rows={chunk_rows} threads={threads}"
                );
                prop_assert_eq!(&outcome.node, &oracle.node, "node: {}", &setting);
                prop_assert_eq!(
                    outcome.proven_min_height, oracle.proven_min_height,
                    "height bound: {}", &setting
                );
                prop_assert_eq!(
                    outcome.suppressed, oracle.suppressed,
                    "suppressed: {}", &setting
                );
            }
        }
    }
}
