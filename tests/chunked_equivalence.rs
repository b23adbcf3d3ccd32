//! Differential oracle for the chunked data layer: every chunked operator
//! must be byte-identical to its serial counterpart, for every chunk size
//! and thread count, and agree with the independent SQL backend.
//!
//! Chunked tables are exercised in both of their real-world forms — slices
//! of a buffered table (shared dictionaries) and independently interned
//! chunks exactly as streaming CSV ingest produces them (per-chunk
//! dictionaries that the merge pass must unify).

use proptest::prelude::*;
use psens::algorithms::{pk_minimal_generalization, SearchRequest, Tuning};
use psens::core::NoopObserver;
use psens::hierarchy::QiSpace;
use psens::prelude::*;
use psens::sql::{execute, Catalog};
use psens_testkit::spaces::narrow_qi_space;
use psens_testkit::tables::{arb_narrow_row, build_narrow_table, NarrowRow};

/// The chunk sizes the acceptance gate names: degenerate one-row chunks, a
/// ragged prime, and a size larger than any generated table (single chunk).
const CHUNK_SIZES: [usize; 3] = [1, 7, 4096];
const THREADS: [usize; 3] = [1, 2, 8];

/// The narrow testkit schema: categorical key X, integer key A, categorical
/// confidential S; the maskable cells can be missing (missing compares
/// equal to missing).
type Row = NarrowRow;

fn arb_row() -> impl Strategy<Value = Row> {
    arb_narrow_row()
}

fn build_table(rows: &[Row]) -> Table {
    build_narrow_table(rows)
}

/// The two ways chunked tables arise: sliced from a buffered table (chunks
/// share the source dictionaries) and built chunk by chunk with independent
/// interning, as `csv::read_chunked` produces them.
fn chunked_variants(t: &Table, rows: &[Row], chunk_rows: usize) -> [ChunkedTable; 2] {
    let sliced = ChunkedTable::from_table(t, chunk_rows);
    let mut interned = ChunkedTable::new(t.schema().clone(), chunk_rows);
    for slab in rows.chunks(chunk_rows.max(1)) {
        interned.push_chunk(build_table(slab));
    }
    [sliced, interned]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Group ids, sizes, and representatives: `compute_chunked` must equal
    /// the serial grouping for every chunk size × thread count × chunk
    /// provenance, on every key subset.
    #[test]
    fn chunked_groupby_equals_serial(
        rows in prop::collection::vec(arb_row(), 1..80),
    ) {
        let t = build_table(&rows);
        let by_sets: &[&[usize]] = &[&[0, 1], &[1, 0], &[0], &[1], &[2], &[]];
        for &by in by_sets {
            let serial = GroupBy::compute(&t, by);
            for chunk_rows in CHUNK_SIZES {
                for chunked in chunked_variants(&t, &rows, chunk_rows) {
                    for threads in THREADS {
                        let gb = GroupBy::compute_chunked(&chunked, by, threads);
                        let setting = format!(
                            "by={by:?} chunk_rows={chunk_rows} threads={threads}"
                        );
                        prop_assert_eq!(
                            gb.assignments(), serial.assignments(),
                            "assignments: {}", &setting
                        );
                        prop_assert_eq!(gb.sizes(), serial.sizes(), "sizes: {}", &setting);
                        prop_assert_eq!(
                            gb.representatives(), serial.representatives(),
                            "representatives: {}", &setting
                        );
                    }
                }
            }
        }
    }

    /// Frequencies and the Condition 1/2 precomputation: `of_chunked` /
    /// `compute_chunked` reports must equal the serial structs field by
    /// field (both derive `PartialEq`).
    #[test]
    fn chunked_frequencies_and_stats_equal_serial(
        rows in prop::collection::vec(arb_row(), 1..60),
    ) {
        let t = build_table(&rows);
        let fs = FrequencySet::of(&t, &[0, 1]);
        let cs = ConfidentialStats::compute(&t, &[2]);
        for chunk_rows in CHUNK_SIZES {
            for chunked in chunked_variants(&t, &rows, chunk_rows) {
                for threads in THREADS {
                    prop_assert_eq!(
                        &FrequencySet::of_chunked(&chunked, &[0, 1], threads), &fs,
                        "frequencies: chunk_rows={} threads={}", chunk_rows, threads
                    );
                    prop_assert_eq!(
                        &ConfidentialStats::compute_chunked(&chunked, &[2], threads), &cs,
                        "confidential stats: chunk_rows={} threads={}", chunk_rows, threads
                    );
                }
            }
        }
    }

    /// The full p-sensitivity report — per-group verdicts, violation lists,
    /// max_k and max_p — must not depend on chunking or thread count.
    #[test]
    fn chunked_p_sensitivity_report_equals_serial(
        rows in prop::collection::vec(arb_row(), 1..60),
        p in 1u32..4,
        k in 1u32..4,
    ) {
        let t = build_table(&rows);
        let report = check_p_sensitivity(&t, &[0, 1], &[2], p, k);
        let maxk = max_k(&t, &[0, 1]);
        let maxp = max_p_of_masked(&t, &[0, 1], &[2]);
        for chunk_rows in CHUNK_SIZES {
            for chunked in chunked_variants(&t, &rows, chunk_rows) {
                for threads in THREADS {
                    let setting = format!("chunk_rows={chunk_rows} threads={threads}");
                    prop_assert_eq!(
                        &check_p_sensitivity_chunked(&chunked, &[0, 1], &[2], p, k, threads),
                        &report,
                        "report: {}", &setting
                    );
                    prop_assert_eq!(
                        max_k_chunked(&chunked, &[0, 1], threads), maxk,
                        "max_k: {}", &setting
                    );
                    prop_assert_eq!(
                        max_p_of_masked_chunked(&chunked, &[0, 1], &[2], threads), maxp,
                        "max_p: {}", &setting
                    );
                }
            }
        }
    }

    /// Cross-backend: the SQL engine's `COUNT(*)` / `COUNT(DISTINCT S)`
    /// per group agree with the chunked group-by and the chunked dense
    /// codes. Missing cells are excluded — SQL NULL semantics differ from
    /// the checker's missing-equals-missing convention by design.
    #[test]
    fn sql_backend_agrees_with_chunked_groupby(
        rows in prop::collection::vec((0u8..4, 0i64..4, 0u8..4), 1..60),
    ) {
        let solid: Vec<Row> = rows.iter().map(|&(x, a, s)| (x, a, false, s, false)).collect();
        let t = build_table(&solid);
        let mut catalog = Catalog::new();
        catalog.register("T", &t);
        let counts = execute(&catalog, "SELECT COUNT(*) FROM T GROUP BY X, A").unwrap();
        let distinct = execute(
            &catalog,
            "SELECT COUNT(DISTINCT S) FROM T GROUP BY X, A",
        )
        .unwrap();
        for chunk_rows in CHUNK_SIZES {
            for chunked in chunked_variants(&t, &solid, chunk_rows) {
                for threads in THREADS {
                    let gb = GroupBy::compute_chunked(&chunked, &[0, 1], threads);
                    prop_assert_eq!(counts.n_rows(), gb.n_groups());
                    let mut sql_counts: Vec<i64> = (0..counts.n_rows())
                        .map(|r| counts.value(r, 0).as_int().unwrap())
                        .collect();
                    let mut native_counts: Vec<i64> =
                        gb.sizes().iter().map(|&s| i64::from(s)).collect();
                    sql_counts.sort_unstable();
                    native_counts.sort_unstable();
                    prop_assert_eq!(sql_counts, native_counts);

                    let (codes, n_codes) = chunked.dense_codes(2, threads);
                    let mut native_distinct: Vec<i64> = gb
                        .distinct_codes_per_group(&codes, n_codes)
                        .iter()
                        .map(|&d| i64::from(d))
                        .collect();
                    let mut sql_distinct: Vec<i64> = (0..distinct.n_rows())
                        .map(|r| distinct.value(r, 0).as_int().unwrap())
                        .collect();
                    native_distinct.sort_unstable();
                    sql_distinct.sort_unstable();
                    prop_assert_eq!(sql_distinct, native_distinct);
                }
            }
        }
    }
}

/// The morsel sizes the acceptance gate names: one-row morsels (maximum
/// cursor contention), a ragged prime, and a size larger than any generated
/// table (a single morsel, so one worker does everything).
const MORSEL_ROWS: [usize; 3] = [1, 7, 4096];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Morsel-executor differential oracle: for every morsel size × thread
    /// count × chunk provenance, the executor's group ids, sizes, and
    /// representatives must be byte-identical to the serial group-by —
    /// the canonical re-ordering pass makes first-appearance ids
    /// independent of how rows were partitioned.
    #[test]
    fn morsel_executor_equals_serial(
        rows in prop::collection::vec(arb_row(), 1..80),
    ) {
        let t = build_table(&rows);
        let by_sets: &[&[usize]] = &[&[0, 1], &[1], &[]];
        for &by in by_sets {
            let serial = GroupBy::compute(&t, by);
            for chunk_rows in CHUNK_SIZES {
                for chunked in chunked_variants(&t, &rows, chunk_rows) {
                    for threads in THREADS {
                        for morsel_rows in MORSEL_ROWS {
                            let gb = GroupBy::compute_chunked_morsels(
                                &chunked, by, threads, morsel_rows,
                            );
                            let setting = format!(
                                "by={by:?} chunk_rows={chunk_rows} \
                                 threads={threads} morsel_rows={morsel_rows}"
                            );
                            prop_assert_eq!(
                                gb.assignments(), serial.assignments(),
                                "assignments: {}", &setting
                            );
                            prop_assert_eq!(gb.sizes(), serial.sizes(), "sizes: {}", &setting);
                            prop_assert_eq!(
                                gb.representatives(), serial.representatives(),
                                "representatives: {}", &setting
                            );
                        }
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
    use psens::microdata::{group_codes, ChunkedKeyKernel, ChunkedTable, KeyKernel};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Wraps a real kernel; the first `fill_*` call panics (simulating a
    /// worker fault mid-morsel), every later call delegates.
    struct PanicOnce<'a> {
        inner: ChunkedKeyKernel<'a>,
        fired: AtomicBool,
    }

    impl<'a> PanicOnce<'a> {
        fn new(inner: ChunkedKeyKernel<'a>) -> PanicOnce<'a> {
            PanicOnce {
                inner,
                fired: AtomicBool::new(false),
            }
        }

        fn trip(&self) {
            if !self.fired.swap(true, Ordering::SeqCst) {
                panic!("injected morsel failure");
            }
        }
    }

    impl KeyKernel for PanicOnce<'_> {
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
        let rows: Vec<Row> = (0..200)
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
        let t = build_table(&rows);
        let serial = GroupBy::compute(&t, &[0, 1]);
        for threads in [2, 8] {
            for morsel_rows in MORSEL_ROWS {
                let chunked = ChunkedTable::from_table(&t, 64);
                let kernel = PanicOnce::new(ChunkedKeyKernel::new(&chunked, &[0, 1], threads));
                let (assignment, n_groups) = group_codes(&kernel, threads, morsel_rows);
                assert!(
                    kernel.fired.load(Ordering::SeqCst),
                    "the injected panic must actually fire"
                );
                assert_eq!(
                    assignment.as_slice(),
                    serial.assignments(),
                    "threads={threads} morsel_rows={morsel_rows}"
                );
                assert_eq!(n_groups as usize, serial.n_groups());
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

/// QI space over X (3 levels) and A (2 levels): a 6-node lattice the
/// search-verdict oracle can walk quickly.
fn qi_space() -> QiSpace {
    narrow_qi_space()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End to end: routing the node-evaluation kernel through the chunked
    /// partition (`Tuning::chunk_rows`) must not change any search verdict —
    /// winning node, proven height bound, or suppression count.
    #[test]
    fn search_verdicts_survive_chunked_evaluation(
        rows in prop::collection::vec(arb_row(), 1..40),
        p in 1u32..4,
        k in 1u32..5,
        ts in 0usize..6,
    ) {
        let t = build_table(&rows);
        let qi = qi_space();
        let noop = NoopObserver;
        let req = SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts);
        let oracle = pk_minimal_generalization(&t, &qi, &req, &noop).unwrap();
        for chunk_rows in CHUNK_SIZES {
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
