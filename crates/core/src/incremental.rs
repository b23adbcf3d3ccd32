//! Incremental maintenance of the paper's frequency statistics under live
//! row updates, and the delta classifier that decides how much of a cached
//! verdict pool each update invalidates.
//!
//! [`LiveTable`] wraps a materialized [`Table`] together with hash-multiset
//! trackers for the row multiset, the ground QI-group sizes, and each
//! confidential attribute's frequency set. Applying a [`DeltaBatch`] updates
//! all of them in `O(|delta|)` and reports a [`DeltaEffect`] — the facts the
//! invalidation classifier needs. [`LiveTable::stats`] then reproduces
//! [`ConfidentialStats::compute`] byte-for-byte (both funnel through
//! [`ConfidentialStats::assemble`] on the same descending counts), so
//! Conditions 1/2 can be re-judged without touching the table.
//!
//! [`invalidation_for`] maps a [`DeltaEffect`] to the strongest sound
//! [`Invalidation`] policy (see DESIGN.md §17 for the full argument):
//!
//! * **net-zero** batches (the row multiset ends where it started) keep
//!   every verdict — each `NodeCheck` field is a function of that multiset;
//! * **sterile appends** — append-only, every row an exact duplicate whose
//!   ground QI-group already holds `>= k` tuples — leave every partition-
//!   derived quantity unchanged at every lattice node (node groups are
//!   coarser than ground groups, so each receiving group was already
//!   `>= k`); only the confidential statistics move, and distinct-count
//!   models can re-judge cached entries against the new statistics;
//! * anything else drops the pool.

use crate::conditions::{AttributeFrequencyStats, ConfidentialStats};
use crate::model::{GroupCheckMode, ModelSpec};
use crate::verdict::Invalidation;
use psens_microdata::{DeltaBatch, Error, IncrementalFrequency, Result, RowMultiset, Table};
use std::collections::HashMap;

/// A table plus the incremental counters that survive delta batches.
#[derive(Debug, Clone)]
pub struct LiveTable {
    table: Table,
    qi: Vec<usize>,
    confidential: Vec<usize>,
    rows: RowMultiset,
    groups: IncrementalFrequency,
    freqs: Vec<IncrementalFrequency>,
    deltas_applied: u64,
}

/// What one applied [`DeltaBatch`] did, in the terms the invalidation
/// classifier cares about. All pre-batch quantities are measured against the
/// table as it stood *before* the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaEffect {
    /// Rows appended.
    pub appended: usize,
    /// Rows deleted.
    pub deleted: usize,
    /// The row multiset after the batch equals the one before it.
    pub net_zero: bool,
    /// The batch deleted nothing.
    pub append_only: bool,
    /// Every appended row was an exact duplicate of a pre-batch row.
    pub all_duplicates: bool,
    /// Smallest pre-batch ground QI-group size among the appended rows'
    /// host groups (`None` when nothing was appended).
    pub min_host_group: Option<usize>,
}

impl DeltaEffect {
    /// True when the batch qualifies as a *sterile append* for pools with
    /// `k <= min_host_group`: partition-derived check fields are unchanged
    /// at every node and only the confidential statistics moved.
    pub fn sterile_for(&self, k: usize) -> bool {
        self.append_only && self.all_duplicates && self.min_host_group.is_some_and(|g| g >= k)
    }
}

impl LiveTable {
    /// Wraps `table` with trackers over ground QI columns `qi` and
    /// confidential columns `confidential`.
    pub fn new(table: Table, qi: Vec<usize>, confidential: Vec<usize>) -> Result<LiveTable> {
        let n_cols = table.schema().len();
        for &c in qi.iter().chain(&confidential) {
            if c >= n_cols {
                return Err(Error::Io(format!(
                    "column index {c} out of range for a {n_cols}-column schema"
                )));
            }
        }
        let rows = RowMultiset::of(&table);
        let groups = IncrementalFrequency::of(&table, &qi);
        let freqs = confidential
            .iter()
            .map(|&c| IncrementalFrequency::of(&table, &[c]))
            .collect();
        Ok(LiveTable {
            table,
            qi,
            confidential,
            rows,
            groups,
            freqs,
            deltas_applied: 0,
        })
    }

    /// The current materialized table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Number of delta batches applied so far.
    pub fn deltas_applied(&self) -> u64 {
        self.deltas_applied
    }

    /// Confidential statistics of the *current* table, rebuilt from the
    /// incremental trackers — `==` to [`ConfidentialStats::compute`] on
    /// [`Self::table`] by construction (same descending counts, same
    /// assembly).
    pub fn stats(&self) -> ConfidentialStats {
        let per_attribute = self
            .confidential
            .iter()
            .zip(&self.freqs)
            .map(|(&attr, freq)| {
                AttributeFrequencyStats::from_descending(
                    attr,
                    self.table.schema().attribute(attr).name().to_owned(),
                    freq.descending_counts(),
                )
            })
            .collect();
        ConfidentialStats::assemble(self.table.n_rows(), per_attribute)
    }

    /// Applies `batch`, updating the table and every tracker, and reports
    /// what changed. On error nothing is modified.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<DeltaEffect> {
        batch.validate(&self.table)?;
        // Classify against the pre-batch state before any tracker moves.
        let mut all_duplicates = true;
        let mut min_host_group: Option<usize> = None;
        for row in &batch.appends {
            if self.rows.count(row) == 0 {
                all_duplicates = false;
            }
            let key: Vec<_> = self.qi.iter().map(|&c| row[c].clone()).collect();
            let host = self.groups.count_of(&key);
            min_host_group = Some(min_host_group.map_or(host, |m| m.min(host)));
        }
        // Net-zero detection: signed count per touched row.
        let mut signed: HashMap<Vec<psens_microdata::Value>, i64> = HashMap::new();
        let deleted_rows: Vec<Vec<psens_microdata::Value>> = batch
            .deletes
            .iter()
            .map(|&ix| self.table.row(ix).expect("validated in-bounds"))
            .collect();
        for row in &deleted_rows {
            *signed.entry(row.clone()).or_insert(0) -= 1;
        }
        for row in &batch.appends {
            *signed.entry(row.clone()).or_insert(0) += 1;
        }
        let net_zero = signed.values().all(|&d| d == 0);
        // Materialize first: if apply() rejects the batch (e.g. a value-kind
        // mismatch validate() cannot see), no tracker has moved yet.
        let next = batch.apply(&self.table)?;
        for row in &deleted_rows {
            self.rows.remove(row);
            self.groups.remove_row(row);
            for freq in &mut self.freqs {
                freq.remove_row(row);
            }
        }
        for row in &batch.appends {
            self.rows.insert(row.clone());
            self.groups.insert_row(row);
            for freq in &mut self.freqs {
                freq.insert_row(row);
            }
        }
        self.table = next;
        self.deltas_applied += 1;
        Ok(DeltaEffect {
            appended: batch.appends.len(),
            deleted: batch.deletes.len(),
            net_zero,
            append_only: batch.is_append_only(),
            all_duplicates,
            min_host_group,
        })
    }
}

/// The strongest invalidation policy `effect` soundly admits for a pool
/// keyed by (`spec`, `k`): [`Invalidation::KeepAll`] for net-zero batches
/// (any model), [`Invalidation::Conditions`] for sterile appends under a
/// distinct-count model, [`Invalidation::DropAll`] otherwise. `stats` must
/// be the statistics of the table *after* the batch.
pub fn invalidation_for<'a>(
    effect: &DeltaEffect,
    stats: &'a ConfidentialStats,
    spec: &ModelSpec,
    k: usize,
) -> Invalidation<'a> {
    if effect.net_zero {
        return Invalidation::KeepAll;
    }
    let distinct_mode = matches!(spec.mode(), GroupCheckMode::Distinct { .. });
    if effect.sterile_for(k) && distinct_mode {
        return Invalidation::Conditions {
            stats,
            p: spec.conditions_p(),
        };
    }
    Invalidation::DropAll
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_microdata::{table_from_str_rows, Attribute, Schema, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::cat_key("Sex"),
            Attribute::int_key("Age"),
            Attribute::cat_confidential("Illness"),
        ])
        .unwrap()
    }

    /// Two fat ground groups of 3 rows each.
    fn base() -> Table {
        table_from_str_rows(
            schema(),
            &[
                &["M", "30", "Flu"],
                &["M", "30", "Cold"],
                &["M", "30", "HIV"],
                &["F", "40", "Flu"],
                &["F", "40", "HIV"],
                &["F", "40", "Asthma"],
            ],
        )
        .unwrap()
    }

    fn live() -> LiveTable {
        LiveTable::new(base(), vec![0, 1], vec![2]).unwrap()
    }

    fn row(sex: &str, age: i64, illness: &str) -> Vec<Value> {
        vec![
            Value::Text(sex.into()),
            Value::Int(age),
            Value::Text(illness.into()),
        ]
    }

    #[test]
    fn stats_stay_byte_identical_across_a_mixed_sequence() {
        let mut live = live();
        let batches = [
            DeltaBatch::append_rows(vec![row("M", 30, "Flu"), row("F", 20, "Measles")]),
            DeltaBatch::delete_rows(vec![0, 4]),
            DeltaBatch {
                appends: vec![row("F", 40, "HIV"), row("M", 30, "Cold")],
                deletes: vec![1, 2],
            },
            DeltaBatch::delete_rows(vec![5]),
        ];
        for (i, batch) in batches.iter().enumerate() {
            live.apply(batch).unwrap();
            let scratch = ConfidentialStats::compute(live.table(), &[2]);
            assert_eq!(live.stats(), scratch, "batch {i}");
        }
        assert_eq!(live.deltas_applied(), 4);
        // The materialized table equals the scratch delta chain.
        let mut scratch = base();
        for batch in &batches {
            scratch = batch.apply(&scratch).unwrap();
        }
        assert_eq!(live.table(), &scratch);
    }

    #[test]
    fn effect_classifies_sterile_appends() {
        let mut live = live();
        // Exact duplicate into a 3-row group: sterile for k <= 3.
        let effect = live
            .apply(&DeltaBatch::append_rows(vec![row("M", 30, "Flu")]))
            .unwrap();
        assert!(effect.append_only && effect.all_duplicates);
        assert_eq!(effect.min_host_group, Some(3));
        assert!(effect.sterile_for(3) && !effect.sterile_for(4));
        assert!(!effect.net_zero);
        // A fresh row is never sterile, even into a big group.
        let effect = live
            .apply(&DeltaBatch::append_rows(vec![row("M", 30, "Measles")]))
            .unwrap();
        assert!(!effect.all_duplicates);
        assert!(!effect.sterile_for(1));
        // Deletes disqualify wholesale.
        let effect = live
            .apply(&DeltaBatch {
                appends: vec![row("F", 40, "Flu")],
                deletes: vec![0],
            })
            .unwrap();
        assert!(!effect.append_only && !effect.sterile_for(0));
    }

    #[test]
    fn effect_detects_net_zero_churn() {
        let mut live = live();
        // Delete a row and append an identical copy: net-zero.
        let effect = live
            .apply(&DeltaBatch {
                appends: vec![row("M", 30, "Flu")],
                deletes: vec![0],
            })
            .unwrap();
        assert!(effect.net_zero);
        assert_eq!(live.table().n_rows(), 6);
        assert_eq!(live.stats(), ConfidentialStats::compute(live.table(), &[2]));
        // Same rows, different multiplicities: not net-zero.
        let effect = live
            .apply(&DeltaBatch {
                appends: vec![row("M", 30, "Flu"), row("M", 30, "Flu")],
                deletes: vec![0],
            })
            .unwrap();
        assert!(!effect.net_zero);
    }

    #[test]
    fn classifier_picks_the_strongest_sound_policy() {
        let mut live = live();
        let stats = live.stats();
        let psens = ModelSpec::PSensitiveK { p: 2 };
        let entropy = ModelSpec::EntropyL { l: 2 };
        // Net-zero: keep-all for every model.
        let churn = DeltaEffect {
            appended: 1,
            deleted: 1,
            net_zero: true,
            append_only: false,
            all_duplicates: true,
            min_host_group: Some(3),
        };
        assert!(matches!(
            invalidation_for(&churn, &stats, &entropy, 2),
            Invalidation::KeepAll
        ));
        // Sterile append: conditions re-judge for distinct models only.
        let effect = live
            .apply(&DeltaBatch::append_rows(vec![row("F", 40, "HIV")]))
            .unwrap();
        let stats = live.stats();
        match invalidation_for(&effect, &stats, &psens, 2) {
            Invalidation::Conditions { p, .. } => assert_eq!(p, 2),
            other => panic!("expected Conditions, got {other:?}"),
        }
        assert!(matches!(
            invalidation_for(&effect, &stats, &entropy, 2),
            Invalidation::DropAll
        ));
        // Same batch against a pool with k above the host group: drop.
        assert!(matches!(
            invalidation_for(&effect, &stats, &psens, 5),
            Invalidation::DropAll
        ));
    }

    #[test]
    fn failed_apply_modifies_nothing() {
        let mut live = live();
        let before_stats = live.stats();
        let before_table = live.table().clone();
        assert!(live.apply(&DeltaBatch::delete_rows(vec![99])).is_err());
        assert!(live
            .apply(&DeltaBatch::append_rows(vec![vec![Value::Missing]]))
            .is_err());
        assert_eq!(live.table(), &before_table);
        assert_eq!(live.stats(), before_stats);
        assert_eq!(live.deltas_applied(), 0);
    }

    #[test]
    fn new_rejects_out_of_range_columns() {
        assert!(LiveTable::new(base(), vec![0, 7], vec![2]).is_err());
        assert!(LiveTable::new(base(), vec![0], vec![9]).is_err());
    }
}
