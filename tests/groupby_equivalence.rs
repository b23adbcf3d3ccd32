//! Differential oracle for the group-by kernel: `GroupBy::compute`, which
//! refines categorical columns on raw dictionary codes, must equal the
//! dense-code reference `GroupBy::from_code_slices` — including on tables
//! whose dictionaries hold unused or out-of-order entries, and on missing
//! cells.

use proptest::prelude::*;
use psens::prelude::*;
use psens_testkit::tables::{arb_narrow_row, build_narrow_table};

/// Key subsets of the narrow schema (categorical X, integer A with missing
/// cells, categorical S with missing cells), the empty key included.
const BY_SETS: [&[usize]; 6] = [&[0, 1], &[1, 0], &[0], &[1], &[2], &[]];

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
}
