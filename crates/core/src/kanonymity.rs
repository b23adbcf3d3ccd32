//! k-anonymity (paper Definition 1).
//!
//! > *The k-anonymity property for a masked microdata (MM) is satisfied if
//! > every combination of key attribute values in MM occurs k or more times.*

use psens_microdata::{GroupBy, Table};
use serde::Serialize;

/// Result of checking k-anonymity for one table and key-attribute set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct KAnonymityReport {
    /// The `k` that was checked.
    pub k: u32,
    /// Number of distinct key-attribute combinations (QI-groups).
    pub n_groups: usize,
    /// Size of the smallest QI-group (`None` for an empty table).
    pub min_group_size: Option<u32>,
    /// Number of tuples living in groups smaller than `k` — the per-node
    /// annotation of the paper's Figure 3, compared against the suppression
    /// threshold TS.
    pub violating_tuples: usize,
}

impl KAnonymityReport {
    /// True when the table satisfies k-anonymity (no violating tuples).
    pub fn satisfied(&self) -> bool {
        self.violating_tuples == 0
    }

    /// True when suppressing at most `ts` tuples would make the table
    /// k-anonymous.
    pub fn satisfiable_with_suppression(&self, ts: usize) -> bool {
        self.violating_tuples <= ts
    }
}

/// Checks Definition 1 for `table` grouped by the attributes at `keys`.
///
/// An empty table is vacuously k-anonymous (every — i.e. no — combination
/// occurs at least `k` times).
pub fn check_k_anonymity(table: &Table, keys: &[usize], k: u32) -> KAnonymityReport {
    let groups = GroupBy::compute(table, keys);
    report_from_groups(&groups, k)
}

/// Same as [`check_k_anonymity`] but reuses an existing grouping.
pub fn report_from_groups(groups: &GroupBy, k: u32) -> KAnonymityReport {
    KAnonymityReport {
        k,
        n_groups: groups.n_groups(),
        min_group_size: groups.min_group_size(),
        violating_tuples: groups.rows_in_small_groups(k),
    }
}

/// Convenience wrapper: does `table` satisfy k-anonymity over `keys`?
pub fn is_k_anonymous(table: &Table, keys: &[usize], k: u32) -> bool {
    check_k_anonymity(table, keys, k).satisfied()
}

/// Maximum `k` for which the table is k-anonymous: the minimum QI-group size
/// (`0` for an empty table, by convention).
pub fn max_k(table: &Table, keys: &[usize]) -> u32 {
    GroupBy::compute(table, keys).min_group_size().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_microdata::{table_from_str_rows, Attribute, Schema};

    /// Paper Table 1: patient masked microdata satisfying 2-anonymity.
    fn table1() -> Table {
        let schema = Schema::new(vec![
            Attribute::int_key("Age"),
            Attribute::cat_key("ZipCode"),
            Attribute::cat_key("Sex"),
            Attribute::cat_confidential("Illness"),
        ])
        .unwrap();
        table_from_str_rows(
            schema,
            &[
                &["50", "43102", "M", "Colon Cancer"],
                &["30", "43102", "F", "Breast Cancer"],
                &["30", "43102", "F", "HIV"],
                &["20", "43102", "M", "Diabetes"],
                &["20", "43102", "M", "Diabetes"],
                &["50", "43102", "M", "Heart Disease"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn table1_satisfies_2_anonymity() {
        let t = table1();
        let keys = t.schema().key_indices();
        let report = check_k_anonymity(&t, &keys, 2);
        assert!(report.satisfied());
        assert_eq!(report.n_groups, 3);
        assert_eq!(report.min_group_size, Some(2));
        assert!(is_k_anonymous(&t, &keys, 2));
        assert!(is_k_anonymous(&t, &keys, 1));
    }

    #[test]
    fn table1_fails_3_anonymity() {
        let t = table1();
        let keys = t.schema().key_indices();
        let report = check_k_anonymity(&t, &keys, 3);
        assert!(!report.satisfied());
        assert_eq!(report.violating_tuples, 6);
        assert!(report.satisfiable_with_suppression(6));
        assert!(!report.satisfiable_with_suppression(5));
    }

    #[test]
    fn max_k_is_min_group_size() {
        let t = table1();
        let keys = t.schema().key_indices();
        assert_eq!(max_k(&t, &keys), 2);
    }

    #[test]
    fn empty_table_is_vacuously_anonymous() {
        let t = table1().filter(|_| false);
        let keys = t.schema().key_indices();
        let report = check_k_anonymity(&t, &keys, 5);
        assert!(report.satisfied());
        assert_eq!(report.min_group_size, None);
        assert_eq!(max_k(&t, &keys), 0);
    }

    #[test]
    fn probability_interpretation() {
        // "the probability to identify correctly an individual is at most
        // 1/k": the smallest group bounds the linkage probability.
        let t = table1();
        let keys = t.schema().key_indices();
        let k = max_k(&t, &keys);
        assert!(1.0 / f64::from(k) <= 0.5);
    }
}
