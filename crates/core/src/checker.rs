//! The improved p-sensitive k-anonymity test (paper Algorithm 2).
//!
//! Algorithm 2 front-loads the two necessary conditions so that hopeless
//! maskings are rejected before the expensive per-group scan:
//!
//! 1. Condition 1 — `p <= maxP`;
//! 2. Condition 2 — `noGroups <= maxGroups`;
//! 3. k-anonymity;
//! 4. only then the detailed per-group, per-attribute distinct scan.
//!
//! Per Theorems 1 and 2, steps 1–2 may reuse statistics computed on the
//! *initial* microdata even when the masked microdata was produced by
//! generalization followed by suppression.

use crate::conditions::ConfidentialStats;
use psens_microdata::{GroupBy, Table};
use serde::Serialize;

/// The stage at which Algorithm 2 settled the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CheckStage {
    /// Rejected by Condition 1 (`p > maxP`) — no grouping was computed.
    Condition1,
    /// Rejected by Condition 2 (`noGroups > maxGroups`).
    Condition2,
    /// Rejected because k-anonymity fails.
    KAnonymity,
    /// Rejected by the detailed per-group scan.
    DetailedScan,
    /// All stages passed: the property holds.
    Passed,
}

/// Outcome of the improved check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ImprovedCheckOutcome {
    /// Whether p-sensitive k-anonymity holds.
    pub satisfied: bool,
    /// The stage that settled the answer.
    pub stage: CheckStage,
    /// QI-group count, when grouping was reached (`None` after a
    /// Condition 1 rejection).
    pub n_groups: Option<usize>,
}

/// Runs Algorithm 2 on `table`.
///
/// `stats` are the confidential-attribute statistics to use for the two
/// necessary conditions. Passing statistics computed from the *initial*
/// microdata is sound for any masked microdata derived by generalization and
/// suppression (Theorems 1 and 2) and is the intended, cheap usage; pass
/// `ConfidentialStats::compute(&table, confidential)` to check a standalone
/// table.
pub fn check_improved(
    table: &Table,
    keys: &[usize],
    confidential: &[usize],
    p: u32,
    k: u32,
    stats: &ConfidentialStats,
) -> ImprovedCheckOutcome {
    // Stage 1: Condition 1.
    if !stats.condition1(p) {
        return ImprovedCheckOutcome {
            satisfied: false,
            stage: CheckStage::Condition1,
            n_groups: None,
        };
    }
    // Stage 2: Condition 2 (needs only the group count).
    let groups = GroupBy::compute(table, keys);
    let n_groups = groups.n_groups();
    if !stats.condition2(p, n_groups) {
        return ImprovedCheckOutcome {
            satisfied: false,
            stage: CheckStage::Condition2,
            n_groups: Some(n_groups),
        };
    }
    // Stage 3: k-anonymity.
    if groups.rows_in_small_groups(k) > 0 {
        return ImprovedCheckOutcome {
            satisfied: false,
            stage: CheckStage::KAnonymity,
            n_groups: Some(n_groups),
        };
    }
    // Stage 4: detailed scan, with Algorithm 1's early exit.
    for &attr in confidential {
        let distinct = groups.distinct_per_group(table.column(attr));
        if distinct.iter().any(|&d| d < p) {
            return ImprovedCheckOutcome {
                satisfied: false,
                stage: CheckStage::DetailedScan,
                n_groups: Some(n_groups),
            };
        }
    }
    ImprovedCheckOutcome {
        satisfied: true,
        stage: CheckStage::Passed,
        n_groups: Some(n_groups),
    }
}

/// Whether a release that suppressed `suppressed` of `n` tuples must fail
/// the k-anonymity stage because it is empty. An empty release has no group
/// to violate but carries no confidential value either, so it satisfies
/// nothing past plain k-anonymity: it fails whenever the necessary-condition
/// `p` exceeds 1. At `p = 1` the request reduces to k-anonymity, where
/// Samarati's Table 4 does accept it (⟨S0,Z0⟩ at TS = 10). Without this
/// rule an unpruned search would accept the empty release exactly when
/// Condition 1 fails and TS ≥ n, while the pruned search calls the same
/// instance unsatisfiable.
pub(crate) fn empty_release_fails(suppressed: usize, n: usize, p: u32) -> bool {
    n > 0 && suppressed == n && p > 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psensitive::is_p_sensitive_k_anonymous;
    use psens_microdata::{table_from_str_rows, Attribute, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::cat_key("Zip"),
            Attribute::cat_key("Sex"),
            Attribute::cat_confidential("Illness"),
            Attribute::cat_confidential("Pay"),
        ])
        .unwrap()
    }

    /// Two groups of 3; Illness has >=2 distinct per group, Pay varies.
    fn good_table() -> Table {
        table_from_str_rows(
            schema(),
            &[
                &["41076", "M", "Flu", "Low"],
                &["41076", "M", "HIV", "High"],
                &["41076", "M", "Flu", "High"],
                &["43102", "F", "Asthma", "Low"],
                &["43102", "F", "HIV", "High"],
                &["43102", "F", "HIV", "Low"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn passes_all_stages() {
        let t = good_table();
        let keys = [0, 1];
        let conf = [2, 3];
        let stats = ConfidentialStats::compute(&t, &conf);
        let outcome = check_improved(&t, &keys, &conf, 2, 3, &stats);
        assert!(outcome.satisfied);
        assert_eq!(outcome.stage, CheckStage::Passed);
        assert_eq!(outcome.n_groups, Some(2));
    }

    #[test]
    fn condition1_rejects_without_grouping() {
        let t = good_table();
        let conf = [2, 3];
        let stats = ConfidentialStats::compute(&t, &conf);
        // Pay has only 2 distinct values, so p = 3 violates Condition 1.
        let outcome = check_improved(&t, &[0, 1], &conf, 3, 2, &stats);
        assert!(!outcome.satisfied);
        assert_eq!(outcome.stage, CheckStage::Condition1);
        assert_eq!(outcome.n_groups, None);
    }

    #[test]
    fn condition2_rejects_on_group_count() {
        // One Pay value occurring 5 of 6 times: maxGroups for p = 2 is 1,
        // so any masking with 2 groups is rejected at stage 2.
        let t = table_from_str_rows(
            schema(),
            &[
                &["41076", "M", "Flu", "Low"],
                &["41076", "M", "HIV", "Low"],
                &["41076", "M", "Flu", "Low"],
                &["43102", "F", "Asthma", "Low"],
                &["43102", "F", "HIV", "Low"],
                &["43102", "F", "HIV", "High"],
            ],
        )
        .unwrap();
        let conf = [2, 3];
        let stats = ConfidentialStats::compute(&t, &conf);
        let outcome = check_improved(&t, &[0, 1], &conf, 2, 2, &stats);
        assert!(!outcome.satisfied);
        assert_eq!(outcome.stage, CheckStage::Condition2);
        assert_eq!(outcome.n_groups, Some(2));
    }

    #[test]
    fn k_anonymity_stage_rejects() {
        let t = good_table();
        let conf = [2, 3];
        let stats = ConfidentialStats::compute(&t, &conf);
        let outcome = check_improved(&t, &[0, 1], &conf, 2, 4, &stats);
        assert!(!outcome.satisfied);
        assert_eq!(outcome.stage, CheckStage::KAnonymity);
    }

    #[test]
    fn detailed_scan_rejects() {
        // Conditions pass globally (Pay is 2/2 Low/High so maxGroups = 2)
        // but each group is homogeneous in Pay.
        let t = table_from_str_rows(
            schema(),
            &[
                &["41076", "M", "Flu", "Low"],
                &["41076", "M", "HIV", "Low"],
                &["43102", "F", "Asthma", "High"],
                &["43102", "F", "HIV", "High"],
            ],
        )
        .unwrap();
        let conf = [2, 3];
        let stats = ConfidentialStats::compute(&t, &conf);
        let outcome = check_improved(&t, &[0, 1], &conf, 2, 2, &stats);
        assert!(!outcome.satisfied);
        assert_eq!(outcome.stage, CheckStage::DetailedScan);
    }

    #[test]
    fn agrees_with_basic_algorithm() {
        // Algorithm 2 must accept exactly what Algorithm 1 accepts.
        let tables = vec![
            good_table(),
            table_from_str_rows(
                schema(),
                &[
                    &["41076", "M", "Flu", "Low"],
                    &["41076", "M", "Flu", "Low"],
                    &["43102", "F", "HIV", "High"],
                    &["43102", "F", "HIV", "High"],
                ],
            )
            .unwrap(),
        ];
        for t in &tables {
            let conf = [2usize, 3];
            let stats = ConfidentialStats::compute(t, &conf);
            for p in 1..=3u32 {
                for k in 1..=4u32 {
                    let basic = is_p_sensitive_k_anonymous(t, &[0, 1], &conf, p, k);
                    let improved = check_improved(t, &[0, 1], &conf, p, k, &stats);
                    assert_eq!(basic, improved.satisfied, "disagreement at p={p}, k={k}");
                }
            }
        }
    }
}
