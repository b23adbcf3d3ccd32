//! Tuple suppression (paper Section 3).
//!
//! > *After generalization is performed, we can identify the number of tuples
//! > that have a frequency of key attribute values less than k. If this
//! > number is below a defined threshold we apply suppression, and these
//! > tuples will be removed from the resulting masked microdata.*

use psens_microdata::{GroupBy, Table};

/// Result of suppressing undersized QI-groups.
#[derive(Debug, Clone)]
pub struct SuppressionResult {
    /// The table with offending tuples removed.
    pub table: Table,
    /// Number of tuples removed.
    pub removed: usize,
}

/// Removes every tuple living in a QI-group of size `< k`.
///
/// The result always satisfies k-anonymity over `keys`: removing whole
/// undersized groups leaves the remaining groups untouched.
pub fn suppress_to_k(table: &Table, keys: &[usize], k: u32) -> SuppressionResult {
    let groups = GroupBy::compute(table, keys);
    remove_small_groups(table, &groups, k)
}

/// Like [`suppress_to_k`] but refuses to remove more than `ts` tuples:
/// returns `None` when the number of violating tuples exceeds the threshold
/// (the masking at this lattice node is not acceptable). The grouping is
/// computed once and shared by the threshold test and the removal.
pub fn suppress_within_threshold(
    table: &Table,
    keys: &[usize],
    k: u32,
    ts: usize,
) -> Option<SuppressionResult> {
    let groups = GroupBy::compute(table, keys);
    let violating = groups.rows_in_small_groups(k);
    if violating > ts {
        return None;
    }
    Some(remove_small_groups(table, &groups, k))
}

/// Removes the rows of every group of size `< k`, given an already-computed
/// grouping over the key attributes.
fn remove_small_groups(table: &Table, groups: &GroupBy, k: u32) -> SuppressionResult {
    let doomed = groups.small_group_rows(k);
    if doomed.is_empty() {
        return SuppressionResult {
            table: table.clone(),
            removed: 0,
        };
    }
    let doomed_set: std::collections::HashSet<usize> = doomed.iter().copied().collect();
    let kept = table.filter(|row| !doomed_set.contains(&row));
    SuppressionResult {
        removed: doomed.len(),
        table: kept,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kanonymity::is_k_anonymous;
    use psens_microdata::{table_from_str_rows, Attribute, Schema, Value};

    /// The paper's Figure 3 microdata: 10 (Sex, ZipCode) tuples.
    fn figure3() -> Table {
        let schema = Schema::new(vec![
            Attribute::cat_key("Sex"),
            Attribute::cat_key("ZipCode"),
        ])
        .unwrap();
        table_from_str_rows(
            schema,
            &[
                &["M", "41076"],
                &["F", "41099"],
                &["M", "41099"],
                &["M", "41076"],
                &["F", "43102"],
                &["M", "43102"],
                &["M", "43102"],
                &["F", "43103"],
                &["M", "48202"],
                &["M", "48201"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn suppressing_bottom_node_removes_everything_below_3() {
        // Figure 3 annotates <S0, Z0> with 10: all tuples violate 3-anonymity.
        let t = figure3();
        let result = suppress_to_k(&t, &[0, 1], 3);
        assert_eq!(result.removed, 10);
        assert!(result.table.is_empty());
    }

    #[test]
    fn suppression_yields_k_anonymity() {
        // Group (M, 43102) has 2 tuples; everything else is smaller. For
        // k = 2, suppression keeps exactly (M, 41076) x2 and (M, 43102) x2.
        let t = figure3();
        let result = suppress_to_k(&t, &[0, 1], 2);
        assert_eq!(result.removed, 6);
        assert_eq!(result.table.n_rows(), 4);
        assert!(is_k_anonymous(&result.table, &[0, 1], 2));
    }

    #[test]
    fn no_op_when_already_anonymous() {
        let t = figure3();
        let result = suppress_to_k(&t, &[0, 1], 1);
        assert_eq!(result.removed, 0);
        assert_eq!(result.table.n_rows(), 10);
    }

    #[test]
    fn threshold_gates_suppression() {
        let t = figure3();
        // 6 tuples violate 2-anonymity: TS = 5 refuses, TS = 6 accepts.
        assert!(suppress_within_threshold(&t, &[0, 1], 2, 5).is_none());
        let ok = suppress_within_threshold(&t, &[0, 1], 2, 6).unwrap();
        assert_eq!(ok.removed, 6);
        assert!(is_k_anonymous(&ok.table, &[0, 1], 2));
    }

    #[test]
    fn surviving_tuples_are_unchanged() {
        let t = figure3();
        let result = suppress_to_k(&t, &[0, 1], 2);
        for row in 0..result.table.n_rows() {
            let sex = result.table.value(row, 0);
            let zip = result.table.value(row, 1);
            assert!(
                (sex == Value::Text("M".into())
                    && (zip == Value::Text("41076".into()) || zip == Value::Text("43102".into()))),
                "unexpected survivor {sex} {zip}"
            );
        }
    }
}
