//! Instrumentation shared by the lattice-search algorithms.

use psens_core::evaluator::{CacheCheck, VerdictSource};
use psens_core::CheckStage;
use psens_microdata::JsonValue;
use serde::Serialize;

/// Counters describing how much work a lattice search performed — the
/// quantities the paper's future-work experiment compares ("the running time
/// of these modified algorithms against the existing algorithms").
///
/// The five per-stage counters partition the evaluated nodes:
/// `rejected_condition1 + rejected_condition2 + rejected_k +
/// rejected_detailed + nodes_passed == nodes_evaluated` — every check settles
/// in exactly one Algorithm 2 stage.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct SearchStats {
    /// Total nodes in the searched lattice (the denominator for pruning
    /// efficiency; 0 when the search is not lattice-based).
    pub lattice_nodes: usize,
    /// Lattice heights probed by the search, in probe order.
    pub heights_probed: Vec<usize>,
    /// Nodes the kernel checked afresh (no table is materialized for a
    /// check; verdicts replayed or inferred from a store are not counted).
    pub nodes_evaluated: usize,
    /// Node checks settled by Condition 1 (`p > maxP`).
    pub rejected_condition1: usize,
    /// Candidate nodes skipped because Condition 2 rejected their group
    /// count before the detailed scan.
    pub rejected_condition2: usize,
    /// Candidate maskings rejected at the k-anonymity stage.
    pub rejected_k: usize,
    /// Candidate maskings rejected by the detailed per-group scan.
    pub rejected_detailed: usize,
    /// Node checks that passed every stage.
    pub nodes_passed: usize,
    /// True when Condition 1 proved the whole search unsatisfiable up front.
    pub aborted_condition1: bool,
    /// Parallel-scan workers that panicked and were isolated (their chunk's
    /// results are lost; the scan completed on the survivors). Always 0 for
    /// serial searches.
    pub worker_failures: usize,
    /// Node verdicts replayed exactly from a shared verdict store. Outside
    /// the stage partition: no kernel check ran and no budget was consumed.
    pub cache_hits: usize,
    /// Node verdicts served as k-failures inferred by the store.
    pub cache_inferred: usize,
    /// Worker threads the caller requested (`Tuning::threads`, CLI
    /// `--threads`); `0` means "auto" (one per available core).
    pub requested_threads: usize,
    /// Worker threads actually used after resolving `0` and clamping
    /// oversubscribed requests to the available parallelism
    /// ([`psens_microdata::resolve_threads`]). A report showing
    /// `requested_threads: 8, effective_threads: 1` documents that the
    /// clamp fired rather than hiding it.
    pub effective_threads: usize,
}

impl SearchStats {
    /// Tallies one settled node check into the matching stage counter.
    pub fn record(&mut self, stage: CheckStage) {
        match stage {
            CheckStage::Condition1 => {
                self.rejected_condition1 += 1;
                self.aborted_condition1 = true;
            }
            CheckStage::Condition2 => self.rejected_condition2 += 1,
            CheckStage::KAnonymity => self.rejected_k += 1,
            CheckStage::DetailedScan => self.rejected_detailed += 1,
            CheckStage::Passed => self.nodes_passed += 1,
        }
    }

    /// Tallies one cache-aware check: a fresh check lands in the stage
    /// partition (and in `nodes_evaluated`); replayed and inferred verdicts
    /// land in their own counters, keeping the partition invariant
    /// `total_rejections() + nodes_passed == nodes_evaluated` intact.
    pub fn record_cached(&mut self, cc: &CacheCheck) {
        match cc.source {
            VerdictSource::Fresh => {
                self.nodes_evaluated += 1;
                self.record(
                    cc.check
                        .as_ref()
                        .expect("fresh checks carry a NodeCheck")
                        .stage,
                );
            }
            VerdictSource::Cached => self.cache_hits += 1,
            VerdictSource::Inferred => self.cache_inferred += 1,
        }
    }

    /// Folds another worker's counters into this one (parallel scans).
    pub fn merge(&mut self, other: &SearchStats) {
        self.lattice_nodes = self.lattice_nodes.max(other.lattice_nodes);
        self.heights_probed.extend(&other.heights_probed);
        self.nodes_evaluated += other.nodes_evaluated;
        self.rejected_condition1 += other.rejected_condition1;
        self.rejected_condition2 += other.rejected_condition2;
        self.rejected_k += other.rejected_k;
        self.rejected_detailed += other.rejected_detailed;
        self.nodes_passed += other.nodes_passed;
        self.aborted_condition1 |= other.aborted_condition1;
        self.worker_failures += other.worker_failures;
        self.cache_hits += other.cache_hits;
        self.cache_inferred += other.cache_inferred;
        // Run-level settings, set once at the entry point: worker partials
        // carry zeros, so `max` keeps the run's values through a merge.
        self.requested_threads = self.requested_threads.max(other.requested_threads);
        self.effective_threads = self.effective_threads.max(other.effective_threads);
    }

    /// Total rejections across all stages.
    pub fn total_rejections(&self) -> usize {
        self.rejected_condition1
            + self.rejected_condition2
            + self.rejected_k
            + self.rejected_detailed
    }

    /// Renders the counters as a JSON object (the `search` field of a
    /// `RunReport`; schema documented in DESIGN.md).
    pub fn to_json(&self) -> JsonValue {
        let mut out = JsonValue::object();
        out.set("lattice_nodes", JsonValue::Int(self.lattice_nodes as i64));
        out.set(
            "heights_probed",
            JsonValue::Array(
                self.heights_probed
                    .iter()
                    .map(|&h| JsonValue::Int(h as i64))
                    .collect(),
            ),
        );
        out.set(
            "nodes_evaluated",
            JsonValue::Int(self.nodes_evaluated as i64),
        );
        out.set(
            "rejected_condition1",
            JsonValue::Int(self.rejected_condition1 as i64),
        );
        out.set(
            "rejected_condition2",
            JsonValue::Int(self.rejected_condition2 as i64),
        );
        out.set("rejected_k", JsonValue::Int(self.rejected_k as i64));
        out.set(
            "rejected_detailed",
            JsonValue::Int(self.rejected_detailed as i64),
        );
        out.set("nodes_passed", JsonValue::Int(self.nodes_passed as i64));
        out.set(
            "aborted_condition1",
            JsonValue::Bool(self.aborted_condition1),
        );
        out.set(
            "worker_failures",
            JsonValue::Int(self.worker_failures as i64),
        );
        out.set("cache_hits", JsonValue::Int(self.cache_hits as i64));
        out.set("cache_inferred", JsonValue::Int(self.cache_inferred as i64));
        out.set(
            "requested_threads",
            JsonValue::Int(self.requested_threads as i64),
        );
        out.set(
            "effective_threads",
            JsonValue::Int(self.effective_threads as i64),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let stats = SearchStats {
            lattice_nodes: 96,
            heights_probed: vec![4, 2, 1],
            nodes_evaluated: 10,
            rejected_condition1: 0,
            rejected_condition2: 3,
            rejected_k: 4,
            rejected_detailed: 2,
            nodes_passed: 1,
            aborted_condition1: false,
            worker_failures: 0,
            cache_hits: 5,
            cache_inferred: 2,
            requested_threads: 8,
            effective_threads: 1,
        };
        assert_eq!(stats.total_rejections(), 9);
        assert_eq!(
            stats.total_rejections() + stats.nodes_passed,
            stats.nodes_evaluated
        );
    }

    #[test]
    fn default_is_zeroed() {
        let stats = SearchStats::default();
        assert_eq!(stats.nodes_evaluated, 0);
        assert!(stats.heights_probed.is_empty());
        assert!(!stats.aborted_condition1);
    }

    #[test]
    fn record_partitions_by_stage() {
        let mut stats = SearchStats::default();
        for stage in [
            CheckStage::Condition1,
            CheckStage::Condition2,
            CheckStage::KAnonymity,
            CheckStage::DetailedScan,
            CheckStage::Passed,
        ] {
            stats.nodes_evaluated += 1;
            stats.record(stage);
        }
        assert_eq!(stats.rejected_condition1, 1);
        assert_eq!(stats.rejected_condition2, 1);
        assert_eq!(stats.rejected_k, 1);
        assert_eq!(stats.rejected_detailed, 1);
        assert_eq!(stats.nodes_passed, 1);
        assert!(stats.aborted_condition1);
        assert_eq!(
            stats.total_rejections() + stats.nodes_passed,
            stats.nodes_evaluated
        );
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = SearchStats {
            lattice_nodes: 96,
            nodes_evaluated: 3,
            nodes_passed: 1,
            rejected_k: 2,
            ..Default::default()
        };
        let b = SearchStats {
            lattice_nodes: 96,
            nodes_evaluated: 2,
            rejected_condition2: 2,
            aborted_condition1: true,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.lattice_nodes, 96);
        assert_eq!(a.nodes_evaluated, 5);
        assert_eq!(a.total_rejections() + a.nodes_passed, a.nodes_evaluated);
        assert!(a.aborted_condition1);
    }

    #[test]
    fn merge_keeps_run_level_thread_counts() {
        let mut run = SearchStats {
            requested_threads: 8,
            effective_threads: 2,
            ..Default::default()
        };
        // Worker partials are zeroed; merging them must not erase the run's
        // settings.
        run.merge(&SearchStats::default());
        assert_eq!(run.requested_threads, 8);
        assert_eq!(run.effective_threads, 2);
    }

    #[test]
    fn json_has_all_stage_counters() {
        let stats = SearchStats {
            lattice_nodes: 6,
            nodes_evaluated: 6,
            nodes_passed: 2,
            rejected_k: 4,
            ..Default::default()
        };
        let parsed = JsonValue::parse(&stats.to_json().to_json()).unwrap();
        assert_eq!(
            parsed.require("lattice_nodes").unwrap().as_u64().unwrap(),
            6
        );
        assert_eq!(parsed.require("nodes_passed").unwrap().as_u64().unwrap(), 2);
        assert_eq!(parsed.require("rejected_k").unwrap().as_u64().unwrap(), 4);
    }
}
