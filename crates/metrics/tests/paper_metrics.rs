//! Utility metrics on the paper's worked examples, and their invariance
//! under dictionary re-interning: the same rows over dictionaries built in
//! a different order must score exactly like the original.

use psens_datasets::paper;
use psens_metrics::{avg_class_size, discernibility, suppression_ratio};
use psens_microdata::{GroupBy, Table, TableBuilder};

/// Table 1 splits into three groups of two on its key attributes, so each
/// tuple is charged 2: DM = 3 · 2² = 12.
#[test]
fn discernibility_of_table1_is_twelve() {
    let t = paper::table1_patients();
    let keys = t.schema().key_indices();
    assert_eq!(discernibility(&t, &keys, 0, t.n_rows()), 12);
    // Suppressing one tuple charges it the whole table instead.
    assert_eq!(discernibility(&t, &keys, 1, t.n_rows()), 18);
}

/// Table 1 is exactly 2-anonymous: its groups are as small as k = 2 allows,
/// so C_avg = 6 / (3 · 2) = 1. Judged against k = 1 the same grouping is
/// twice as coarse as necessary.
#[test]
fn avg_class_size_of_table1_is_optimal_for_k2() {
    let t = paper::table1_patients();
    let keys = t.schema().key_indices();
    assert!((avg_class_size(&t, &keys, 2) - 1.0).abs() < 1e-12);
    assert!((avg_class_size(&t, &keys, 1) - 2.0).abs() < 1e-12);
}

/// Table 3 groups 3 + 4 on the key attributes: DM = 9 + 16 = 25. The
/// amended Table 3 changes only a confidential value, so its utility cost
/// is identical — p-sensitivity improved for free.
#[test]
fn discernibility_of_table3_is_unchanged_by_the_amendment() {
    let t = paper::table3_psensitive_example();
    let keys = t.schema().key_indices();
    assert_eq!(discernibility(&t, &keys, 0, t.n_rows()), 25);
    let fixed = paper::table3_fixed();
    assert_eq!(discernibility(&fixed, &keys, 0, fixed.n_rows()), 25);
}

/// The paper's Table 4 walkthrough suppresses 2 of Figure 3's 10 tuples at
/// the ⟨1,1⟩ masking (TS = 2).
#[test]
fn suppression_ratio_of_the_table4_walkthrough() {
    let n = paper::figure3_microdata().n_rows();
    assert!((suppression_ratio(2, n) - 0.2).abs() < 1e-12);
    assert_eq!(suppression_ratio(0, n), 0.0);
    assert_eq!(suppression_ratio(3, 0), 0.0, "empty initial table");
}

/// The same rows as `t` over freshly interned dictionaries whose entries
/// run in reverse first-appearance order: the rows are interned last to
/// first, then gathered back into their original order.
fn reinterned(t: &Table) -> Table {
    let mut builder = TableBuilder::new(t.schema().clone());
    for r in (0..t.n_rows()).rev() {
        builder.push_row(t.row(r).unwrap()).unwrap();
    }
    let reversed: Vec<usize> = (0..t.n_rows()).rev().collect();
    builder.finish().take(&reversed)
}

/// The loss metrics see identical numbers whichever order a table's
/// dictionaries were built in, and the group-by feeds the same group sizes
/// the discernibility sum is built from.
#[test]
fn metrics_are_invariant_under_reinterned_dictionaries() {
    for t in [
        paper::table1_patients(),
        paper::table3_psensitive_example(),
        paper::figure3_microdata(),
    ] {
        let keys = t.schema().key_indices();
        let dm = discernibility(&t, &keys, 1, t.n_rows());
        let cavg = avg_class_size(&t, &keys, 2);
        let rebuilt = reinterned(&t);
        assert_eq!(t.n_rows(), rebuilt.n_rows());
        for r in 0..t.n_rows() {
            assert_eq!(t.row(r).unwrap(), rebuilt.row(r).unwrap());
        }
        assert_eq!(discernibility(&rebuilt, &keys, 1, rebuilt.n_rows()), dm);
        assert!((avg_class_size(&rebuilt, &keys, 2) - cavg).abs() < 1e-12);
        let gb = GroupBy::compute(&rebuilt, &keys);
        assert_eq!(gb.assignments(), GroupBy::compute(&t, &keys).assignments());
        let grouped: u64 = gb
            .sizes()
            .iter()
            .map(|&s| u64::from(s) * u64::from(s))
            .sum();
        assert_eq!(grouped + t.n_rows() as u64, dm);
    }
}
