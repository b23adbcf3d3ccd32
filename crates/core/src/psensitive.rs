//! p-sensitive k-anonymity (paper Definition 2) and the basic checker
//! (paper Algorithm 1).
//!
//! > *The masked microdata (MM) satisfies p-sensitive k-anonymity property if
//! > it satisfies k-anonymity, and for each group of tuples with the
//! > identical combination of key attribute values that exists in MM, the
//! > number of distinct values for each confidential attribute occurs at
//! > least p times within the same group.*

use crate::kanonymity::report_from_groups;
use psens_microdata::{GroupBy, Table, Value};
use serde::Serialize;

/// One p-sensitivity violation: a QI-group in which some confidential
/// attribute takes fewer than `p` distinct values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SensitivityViolation {
    /// Group id in the grouping that produced this report.
    pub group: u32,
    /// Size of the offending group.
    pub group_size: u32,
    /// Index (into the schema) of the offending confidential attribute.
    pub attribute: usize,
    /// Name of the offending confidential attribute.
    pub attribute_name: String,
    /// Distinct values that attribute takes within the group.
    pub distinct: u32,
}

/// Result of checking p-sensitive k-anonymity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PSensitivityReport {
    /// The `p` that was checked.
    pub p: u32,
    /// The `k` that was checked.
    pub k: u32,
    /// Whether k-anonymity holds.
    pub k_anonymous: bool,
    /// Number of QI-groups.
    pub n_groups: usize,
    /// All `(group, attribute)` pairs violating p-sensitivity. Empty when
    /// the sensitivity half of the property holds.
    pub violations: Vec<SensitivityViolation>,
}

impl PSensitivityReport {
    /// True when the table satisfies p-sensitive k-anonymity.
    pub fn satisfied(&self) -> bool {
        self.k_anonymous && self.violations.is_empty()
    }
}

/// Checks Definition 2 for `table`: k-anonymity over `keys` plus at least `p`
/// distinct values of every confidential attribute inside every QI-group.
///
/// This is the paper's **Algorithm 1** (basic test), except that instead of
/// breaking at the first failing group it collects every violation, which the
/// experiments (Table 8) need for disclosure counting. Use
/// [`is_p_sensitive_k_anonymous`] for the early-exit boolean form.
pub fn check_p_sensitivity(
    table: &Table,
    keys: &[usize],
    confidential: &[usize],
    p: u32,
    k: u32,
) -> PSensitivityReport {
    let groups = GroupBy::compute(table, keys);
    let k_report = report_from_groups(&groups, k);
    let mut violations = Vec::new();
    for &attr in confidential {
        let distinct = groups.distinct_per_group(table.column(attr));
        for (g, &d) in distinct.iter().enumerate() {
            if d < p {
                violations.push(SensitivityViolation {
                    group: g as u32,
                    group_size: groups.sizes()[g],
                    attribute: attr,
                    attribute_name: table.schema().attribute(attr).name().to_owned(),
                    distinct: d,
                });
            }
        }
    }
    violations.sort_by_key(|v| (v.group, v.attribute));
    PSensitivityReport {
        p,
        k,
        k_anonymous: k_report.satisfied(),
        n_groups: groups.n_groups(),
        violations,
    }
}

/// The paper's Algorithm 1 with its early exit: returns as soon as
/// k-anonymity fails or any group/attribute pair has fewer than `p` distinct
/// values.
pub fn is_p_sensitive_k_anonymous(
    table: &Table,
    keys: &[usize],
    confidential: &[usize],
    p: u32,
    k: u32,
) -> bool {
    let groups = GroupBy::compute(table, keys);
    if groups.rows_in_small_groups(k) > 0 {
        return false;
    }
    for &attr in confidential {
        let distinct = groups.distinct_per_group(table.column(attr));
        if distinct.iter().any(|&d| d < p) {
            return false;
        }
    }
    true
}

/// The largest `p` such that the sensitivity half of Definition 2 holds:
/// the minimum, over QI-groups and confidential attributes, of the per-group
/// distinct-value count. Returns 0 for an empty table.
///
/// In the paper's Table 3 walkthrough this is the "value of p" found by
/// analyzing each group.
pub fn max_p_of_masked(table: &Table, keys: &[usize], confidential: &[usize]) -> u32 {
    let groups = GroupBy::compute(table, keys);
    if groups.n_groups() == 0 {
        return 0;
    }
    confidential
        .iter()
        .map(|&attr| {
            groups
                .distinct_per_group(table.column(attr))
                .into_iter()
                .min()
                .unwrap_or(0)
        })
        .min()
        .unwrap_or(0)
}

/// Per-group sensitivity profile: for each QI-group, its key, size, and the
/// distinct-value count of each confidential attribute. Used by examples and
/// the experiment harness to render the paper's walkthroughs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GroupProfile {
    /// Key-attribute values identifying the group.
    pub key: Vec<Value>,
    /// Number of tuples in the group.
    pub size: u32,
    /// Distinct count per confidential attribute, in `confidential` order.
    pub distinct: Vec<u32>,
}

/// Computes [`GroupProfile`]s for every QI-group.
pub fn group_profiles(table: &Table, keys: &[usize], confidential: &[usize]) -> Vec<GroupProfile> {
    let groups = GroupBy::compute(table, keys);
    let per_attr: Vec<Vec<u32>> = confidential
        .iter()
        .map(|&attr| groups.distinct_per_group(table.column(attr)))
        .collect();
    (0..groups.n_groups())
        .map(|g| GroupProfile {
            key: groups.key_of_group(table, g),
            size: groups.sizes()[g],
            distinct: per_attr.iter().map(|d| d[g]).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_microdata::{table_from_str_rows, Attribute, Schema};

    /// Paper Table 3: masked microdata satisfying 1-sensitive 3-anonymity.
    fn table3() -> Table {
        let schema = Schema::new(vec![
            Attribute::int_key("Age"),
            Attribute::cat_key("ZipCode"),
            Attribute::cat_key("Sex"),
            Attribute::cat_confidential("Illness"),
            Attribute::int_confidential("Income"),
        ])
        .unwrap();
        table_from_str_rows(
            schema,
            &[
                &["20", "43102", "F", "AIDS", "50000"],
                &["20", "43102", "F", "AIDS", "50000"],
                &["20", "43102", "F", "Diabetes", "50000"],
                &["30", "43102", "M", "Diabetes", "30000"],
                &["30", "43102", "M", "Diabetes", "40000"],
                &["30", "43102", "M", "Heart Disease", "30000"],
                &["30", "43102", "M", "Heart Disease", "40000"],
            ],
        )
        .unwrap()
    }

    /// Table 3 with the paper's suggested fix: first tuple's income becomes
    /// 40,000, making the microdata 2-sensitive.
    fn table3_fixed() -> Table {
        let schema = table3().schema().clone();
        table_from_str_rows(
            schema,
            &[
                &["20", "43102", "F", "AIDS", "40000"],
                &["20", "43102", "F", "AIDS", "50000"],
                &["20", "43102", "F", "Diabetes", "50000"],
                &["30", "43102", "M", "Diabetes", "30000"],
                &["30", "43102", "M", "Diabetes", "40000"],
                &["30", "43102", "M", "Heart Disease", "30000"],
                &["30", "43102", "M", "Heart Disease", "40000"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn table3_is_1_sensitive_3_anonymous() {
        let t = table3();
        let keys = t.schema().key_indices();
        let conf = t.schema().confidential_indices();
        // 3-anonymous: groups of size 3 and 4.
        assert!(is_p_sensitive_k_anonymous(&t, &keys, &conf, 1, 3));
        // But only 1-sensitive: the first group has a single income.
        assert!(!is_p_sensitive_k_anonymous(&t, &keys, &conf, 2, 3));
        assert_eq!(max_p_of_masked(&t, &keys, &conf), 1);
    }

    #[test]
    fn table3_violation_details() {
        let t = table3();
        let keys = t.schema().key_indices();
        let conf = t.schema().confidential_indices();
        let report = check_p_sensitivity(&t, &keys, &conf, 2, 3);
        assert!(!report.satisfied());
        assert!(report.k_anonymous);
        assert_eq!(report.n_groups, 2);
        // Exactly one violation: the (20, 43102, F) group's Income.
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.attribute_name, "Income");
        assert_eq!(v.distinct, 1);
        assert_eq!(v.group_size, 3);
    }

    #[test]
    fn table3_fixed_is_2_sensitive() {
        // "If the first tuple would have a different value for income (such
        // as 40,000) then both groups would have two different illnesses and
        // two different incomes, and the value of p would be 2."
        let t = table3_fixed();
        let keys = t.schema().key_indices();
        let conf = t.schema().confidential_indices();
        assert_eq!(max_p_of_masked(&t, &keys, &conf), 2);
        assert!(is_p_sensitive_k_anonymous(&t, &keys, &conf, 2, 3));
        assert!(check_p_sensitivity(&t, &keys, &conf, 2, 3).satisfied());
    }

    #[test]
    fn p_cannot_exceed_k() {
        // p <= k always: a group of size k holds at most k distinct values.
        let t = table3_fixed();
        let keys = t.schema().key_indices();
        let conf = t.schema().confidential_indices();
        let p = max_p_of_masked(&t, &keys, &conf);
        let k = crate::kanonymity::max_k(&t, &keys);
        assert!(p <= k);
    }

    #[test]
    fn k_failure_means_property_fails() {
        let t = table3();
        let keys = t.schema().key_indices();
        let conf = t.schema().confidential_indices();
        // 4-anonymity fails (one group has 3 tuples), so any p fails with it.
        assert!(!is_p_sensitive_k_anonymous(&t, &keys, &conf, 1, 4));
        let report = check_p_sensitivity(&t, &keys, &conf, 1, 4);
        assert!(!report.satisfied());
        assert!(!report.k_anonymous);
    }

    #[test]
    fn group_profiles_match_paper_walkthrough() {
        let t = table3();
        let keys = t.schema().key_indices();
        let conf = t.schema().confidential_indices();
        let profiles = group_profiles(&t, &keys, &conf);
        assert_eq!(profiles.len(), 2);
        // First group (20, 43102, F): 2 illnesses, 1 income.
        let g1 = &profiles[0];
        assert_eq!(g1.size, 3);
        assert_eq!(g1.distinct, vec![2, 1]);
        // Second group (30, 43102, M): 2 illnesses, 2 incomes.
        let g2 = &profiles[1];
        assert_eq!(g2.size, 4);
        assert_eq!(g2.distinct, vec![2, 2]);
    }

    #[test]
    fn empty_table_edge_cases() {
        let t = table3().filter(|_| false);
        let keys = t.schema().key_indices();
        let conf = t.schema().confidential_indices();
        assert_eq!(max_p_of_masked(&t, &keys, &conf), 0);
        // Vacuously satisfied: no group violates anything.
        assert!(is_p_sensitive_k_anonymous(&t, &keys, &conf, 3, 3));
        assert!(group_profiles(&t, &keys, &conf).is_empty());
    }

    #[test]
    fn no_confidential_attributes_is_plain_k_anonymity() {
        let t = table3();
        let keys = t.schema().key_indices();
        assert!(is_p_sensitive_k_anonymous(&t, &keys, &[], 99, 3));
        assert!(!is_p_sensitive_k_anonymous(&t, &keys, &[], 2, 4));
    }
}
