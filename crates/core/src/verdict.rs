//! A shared, concurrent verdict store with k-failure closure.
//!
//! Each search strategy checks lattice nodes one by one; without a store
//! nothing would be shared across Samarati's probe heights, across
//! strategies, or across worker threads. [`VerdictStore`] is a sharded map
//! from lattice [`Node`] to [`Verdict`] that any number of threads may read
//! and write concurrently.
//!
//! Recording an exact check also records the one inference that holds for
//! every privacy model: a check whose `violating_tuples` exceeds the
//! suppression threshold marks every strict descendant
//! [`Verdict::InferredFailK`]. A descendant refines the node's QI-groups,
//! and a group of fewer than `k` tuples only splits into groups of fewer
//! than `k`, so the descendant has at least as many violating tuples and
//! fails k-anonymity whatever the model says about its groups.
//!
//! A pass proves nothing about ancestors. An ancestor merges groups, but it
//! also re-admits tuples the node suppressed as undersized, and with
//! `ts > 0` those tuples can form or join groups that fail the model: a
//! merged group of suppressed tuples may hold one distinct value, or a
//! lower entropy, or a larger EMD (see DESIGN.md §11). Failures with
//! `violating_tuples <= ts` condemn nothing either.
//!
//! A store is only meaningful for one `(table, QI space, model, k, ts)`
//! configuration; callers must not share a store across configurations.
//! Inferred verdicts are served without consuming node budget — budget
//! admission happens strictly after a cache miss (see
//! `NodeEvaluator::check_cached`).

use crate::checker::CheckStage;
use crate::conditions::ConfidentialStats;
use crate::evaluator::NodeCheck;
use psens_hierarchy::{Lattice, Node};
use psens_microdata::hash::FxHashMap;
use std::sync::Mutex;

/// Number of independently locked shards. Sixteen keeps lock contention
/// negligible for the worker counts the searches spawn while staying cheap
/// to allocate per run.
const N_SHARDS: usize = 16;

/// A cached answer for one lattice node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The node was checked by the kernel; the full [`NodeCheck`] is kept so
    /// a hit can replay everything a fresh evaluation would have returned.
    Exact(NodeCheck),
    /// Failure inferred downward from a strict ancestor whose
    /// `violating_tuples` exceeded the suppression threshold.
    InferredFailK,
}

impl Verdict {
    /// Whether this verdict says the node satisfies the property.
    pub fn satisfied(&self) -> bool {
        match self {
            Verdict::Exact(check) => check.satisfied,
            Verdict::InferredFailK => false,
        }
    }

    /// True for the inference-derived variant.
    pub fn is_inferred(&self) -> bool {
        matches!(self, Verdict::InferredFailK)
    }
}

/// Sharded concurrent map from lattice node to verdict, with k-failure
/// closure on every recorded exact check. See the module docs for the
/// soundness argument and the single-configuration caveat.
#[derive(Debug)]
pub struct VerdictStore {
    max_levels: Vec<u8>,
    ts: usize,
    shards: Vec<Mutex<FxHashMap<Node, Verdict>>>,
}

/// How a delta batch invalidates a store's cached verdicts. Produced by the
/// incremental layer's classifier (`psens-core::incremental`) from what the
/// batch actually changed, consumed by
/// [`VerdictStore::invalidated_successor`].
#[derive(Debug, Clone, Copy)]
pub enum Invalidation<'a> {
    /// The batch is net-zero on the row multiset: every `NodeCheck` field is
    /// a function of that multiset, so every verdict stands.
    KeepAll,
    /// No soundness argument applies: drop everything.
    DropAll,
    /// The batch was *sterile* — append-only, every appended row an exact
    /// duplicate of an existing row whose ground QI-group already had `>= k`
    /// tuples, under a distinct-count model. Partitions, violation counts,
    /// and per-group distinct sets are then unchanged at every node; only
    /// the confidential frequency statistics moved. Each entry is re-judged
    /// against the *new* statistics and kept iff Conditions 1/2 still settle
    /// it the same way (see DESIGN.md §17 for the full argument).
    Conditions {
        /// Confidential statistics of the table *after* the batch.
        stats: &'a ConfidentialStats,
        /// The model's sensitivity requirement (`p`, or `l` for the
        /// distinct-`l` model).
        p: u32,
    },
}

/// What a [`VerdictStore::invalidated_successor`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvalidationOutcome {
    /// Entries retained because the delta provably cannot flip them.
    pub kept: u64,
    /// Entries dropped for re-derivation.
    pub invalidated: u64,
}

impl VerdictStore {
    /// Creates an empty store for `lattice` under suppression threshold
    /// `ts`. The threshold is captured here so [`record`](Self::record) can
    /// decide descendant condemnation without the caller restating it.
    pub fn new(lattice: &Lattice, ts: usize) -> Self {
        VerdictStore {
            max_levels: lattice.max_levels().to_vec(),
            ts,
            shards: (0..N_SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
        }
    }

    /// [`Self::new`]; `monotone` has no effect. Kept only because the
    /// benchmark crate calls it.
    #[doc(hidden)]
    pub fn for_model(lattice: &Lattice, ts: usize, _monotone: bool) -> Self {
        Self::new(lattice, ts)
    }

    fn shard_of(&self, node: &Node) -> &Mutex<FxHashMap<Node, Verdict>> {
        let ix = node.levels().iter().fold(0usize, |acc, &l| {
            acc.wrapping_mul(31).wrapping_add(l as usize)
        });
        &self.shards[ix % N_SHARDS]
    }

    /// Looks up `node`. With `allow_inferred = false` an inferred entry is
    /// treated as a miss — callers that need `violating_tuples` (e.g. the
    /// exhaustive scan's annotations) can only use exact entries.
    pub fn lookup(&self, node: &Node, allow_inferred: bool) -> Option<Verdict> {
        let found = self
            .shard_of(node)
            .lock()
            .expect("verdict shard lock poisoned")
            .get(node)
            .cloned();
        found.filter(|verdict| allow_inferred || !verdict.is_inferred())
    }

    /// Records an exact check and closes it over descendants:
    ///
    /// * the node itself gets [`Verdict::Exact`] (an inferred entry is
    ///   upgraded; an existing exact entry is left alone — checks are
    ///   deterministic, so both writers hold the same value);
    /// * `violating_tuples > ts` marks every strict descendant
    ///   [`Verdict::InferredFailK`], regardless of the stage that settled
    ///   the check (the count alone is the certificate). These entries never
    ///   overwrite anything already present.
    pub fn record(&self, check: &NodeCheck) {
        debug_assert!(
            check.node.levels().len() == self.max_levels.len()
                && check
                    .node
                    .levels()
                    .iter()
                    .zip(&self.max_levels)
                    .all(|(l, max)| l <= max),
            "node {} outside the store's lattice",
            check.node
        );
        {
            let mut shard = self
                .shard_of(&check.node)
                .lock()
                .expect("verdict shard lock poisoned");
            if !matches!(shard.get(&check.node), Some(Verdict::Exact(_))) {
                shard.insert(check.node.clone(), Verdict::Exact(check.clone()));
            }
        }
        if check.violating_tuples > self.ts {
            self.condemn_descendants(check.node.levels());
        }
    }

    /// Marks every strict descendant of `pivot` (levels in `0..=pivot[i]`)
    /// [`Verdict::InferredFailK`] where nothing is recorded yet. An
    /// odometer walks the box, least-significant axis first; the pivot is
    /// its last corner, so the walk stops there.
    fn condemn_descendants(&self, pivot: &[u8]) {
        let mut cur = vec![0u8; pivot.len()];
        while cur.as_slice() != pivot {
            let node = Node(cur.clone());
            self.shard_of(&node)
                .lock()
                .expect("verdict shard lock poisoned")
                .entry(node)
                .or_insert(Verdict::InferredFailK);
            let axis = cur
                .iter()
                .zip(pivot)
                .position(|(c, p)| c < p)
                .expect("a corner short of the pivot has an axis to advance");
            cur[axis] += 1;
            cur[..axis].fill(0);
        }
    }

    /// Builds a detached successor store holding exactly the entries that
    /// survive `policy`, leaving `self` untouched, and counts both sides.
    /// The successor inherits the lattice bounds and suppression threshold.
    ///
    /// The server replaces the pooled `Arc` with the successor *under the
    /// dataset's write lock*, so an in-flight search that acquired the old
    /// store against the pre-delta table keeps recording into the detached
    /// instance — its stale verdicts die with that `Arc` instead of
    /// poisoning post-delta lookups.
    ///
    /// Soundness rests on the policy's precondition, not on anything checked
    /// here — the incremental layer only emits [`Invalidation::Conditions`]
    /// for batches where the partition-derived fields of every cached
    /// [`NodeCheck`] are unchanged (see [`Invalidation`] and DESIGN.md §17),
    /// in which case an entry survives iff a fresh evaluation against the
    /// new statistics would reproduce it byte-for-byte:
    ///
    /// * [`Verdict::InferredFailK`] is kept: the ancestor's
    ///   `violating_tuples > ts` certificate is partition-derived.
    /// * [`Verdict::Exact`] entries are re-judged per stage: a Condition-1
    ///   failure stands iff the new statistics still refuse `p`; a
    ///   Condition-2 failure stands iff Condition 1 passes and the recorded
    ///   group count is still over the new `maxGroups`; any later stage
    ///   (whose scan outcome is partition-derived) stands iff both
    ///   conditions still admit it. Entries carrying a histogram `detail`
    ///   are always dropped — their metrics quote frequencies, which moved.
    pub fn invalidated_successor(
        &self,
        policy: Invalidation<'_>,
    ) -> (VerdictStore, InvalidationOutcome) {
        let mut outcome = InvalidationOutcome::default();
        // Entries keep their shard: the shard function depends only on the
        // node.
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                let map = shard.lock().expect("verdict shard lock poisoned");
                let survivors: FxHashMap<Node, Verdict> = map
                    .iter()
                    .filter(|(_, verdict)| match policy {
                        Invalidation::KeepAll => true,
                        Invalidation::DropAll => false,
                        Invalidation::Conditions { stats, p } => {
                            survives_conditions(verdict, stats, p)
                        }
                    })
                    .map(|(node, verdict)| (node.clone(), verdict.clone()))
                    .collect();
                outcome.kept += survivors.len() as u64;
                outcome.invalidated += (map.len() - survivors.len()) as u64;
                Mutex::new(survivors)
            })
            .collect();
        let successor = VerdictStore {
            max_levels: self.max_levels.clone(),
            ts: self.ts,
            shards,
        };
        (successor, outcome)
    }

    /// Every entry in the store — exact *and* inferred — sorted by node
    /// levels. Intended for tests and diagnostics (e.g. rebuilding a store
    /// to cross-check [`approx_bytes`](Self::approx_bytes)).
    pub fn snapshot_entries(&self) -> Vec<(Node, Verdict)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.lock().expect("verdict shard lock poisoned");
            for (node, verdict) in map.iter() {
                out.push((node.clone(), verdict.clone()));
            }
        }
        out.sort_by(|a, b| a.0.levels().cmp(b.0.levels()));
        out
    }

    /// Inserts a raw entry without closure. Test support for reconstructing
    /// a store from [`Self::snapshot_entries`]; not part of the serving
    /// path.
    #[doc(hidden)]
    pub fn insert_raw(&self, node: Node, verdict: Verdict) {
        self.shard_of(&node)
            .lock()
            .expect("verdict shard lock poisoned")
            .insert(node, verdict);
    }

    /// Number of nodes with a recorded verdict (exact or inferred).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("verdict shard lock poisoned").len())
            .sum()
    }

    /// Approximate heap footprint of the recorded verdicts, in bytes. This
    /// backs memory-pressure accounting (a pool of stores evicted LRU once
    /// the sum crosses a budget), so it only needs to be a monotone,
    /// consistent estimate — per entry: the hash-map slot, the key's level
    /// vector, and (exact entries) the retained [`NodeCheck`].
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let slot = size_of::<Node>() + size_of::<Verdict>() + 16;
        let mut total = 0u64;
        for shard in &self.shards {
            let map = shard.lock().expect("verdict shard lock poisoned");
            for (node, verdict) in map.iter() {
                let levels = node.levels().len();
                let exact_extra = match verdict {
                    // The check clones the node again; count its levels too.
                    Verdict::Exact(_) => levels,
                    Verdict::InferredFailK => 0,
                };
                total += (slot + levels + exact_extra) as u64;
            }
        }
        total
    }

    /// Every exact verdict in the store, sorted by node levels so the export
    /// is deterministic (two exports of equally-filled stores are
    /// byte-identical once serialized). Inferred entries are omitted: the
    /// k-failure closure re-derives them for free when the exact checks
    /// are replayed through [`record`](Self::record).
    pub fn export_exact(&self) -> Vec<NodeCheck> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.lock().expect("verdict shard lock poisoned");
            for verdict in map.values() {
                if let Verdict::Exact(check) = verdict {
                    out.push(check.clone());
                }
            }
        }
        out.sort_by(|a, b| a.node.levels().cmp(b.node.levels()));
        out
    }

    /// True when no verdict has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The per-entry keep rule of [`Invalidation::Conditions`]. See
/// [`VerdictStore::invalidated_successor`] for the stage-by-stage argument.
fn survives_conditions(verdict: &Verdict, stats: &ConfidentialStats, p: u32) -> bool {
    let check = match verdict {
        Verdict::InferredFailK => return true,
        Verdict::Exact(check) => check,
    };
    if check.detail.is_some() {
        return false; // histogram details quote frequencies, which moved
    }
    let c1 = stats.condition1(p);
    match check.stage {
        CheckStage::Condition1 => !c1,
        CheckStage::Condition2 => {
            c1 && matches!(check.n_groups, Some(g) if !stats.condition2(p, g))
        }
        CheckStage::KAnonymity | CheckStage::DetailedScan | CheckStage::Passed => {
            c1 && matches!(check.n_groups, Some(g) if stats.condition2(p, g))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CheckStage;

    /// The paper's Figure 2 lattice: Sex (max 1) x ZipCode (max 2).
    fn figure2() -> Lattice {
        Lattice::new(vec![1, 2])
    }

    fn check(levels: &[u8], satisfied: bool, violating: usize) -> NodeCheck {
        NodeCheck {
            node: Node(levels.to_vec()),
            violating_tuples: violating,
            suppressed: 0,
            satisfied,
            stage: if satisfied {
                CheckStage::Passed
            } else {
                CheckStage::KAnonymity
            },
            n_groups: Some(4),
            detail: None,
        }
    }

    fn get(store: &VerdictStore, levels: &[u8]) -> Option<Verdict> {
        store.lookup(&Node(levels.to_vec()), true)
    }

    #[test]
    fn a_pass_closes_nothing() {
        let store = VerdictStore::new(&figure2(), 0);
        store.record(&check(&[1, 1], true, 0));
        assert_eq!(
            get(&store, &[1, 1]),
            Some(Verdict::Exact(check(&[1, 1], true, 0)))
        );
        // Ancestors, descendants and incomparable nodes stay unknown.
        for levels in [[1u8, 2], [0, 0], [1, 0], [0, 1], [0, 2]] {
            assert_eq!(get(&store, &levels), None, "{levels:?}");
        }
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn a_k_failure_closes_downward_only() {
        let store = VerdictStore::new(&figure2(), 3);
        store.record(&check(&[1, 1], false, 4)); // violating 4 > ts 3
        assert_eq!(get(&store, &[0, 0]), Some(Verdict::InferredFailK));
        assert_eq!(get(&store, &[1, 0]), Some(Verdict::InferredFailK));
        assert_eq!(get(&store, &[0, 1]), Some(Verdict::InferredFailK));
        assert_eq!(get(&store, &[1, 2]), None);
        assert_eq!(get(&store, &[0, 2]), None);
    }

    #[test]
    fn a_suppressible_k_failure_condemns_nothing() {
        // violating_tuples within ts: suppression may still rescue
        // descendants' ancestors... the node itself failed (say detailed
        // scan), but the count alone is no certificate against descendants.
        let store = VerdictStore::new(&figure2(), 5);
        store.record(&NodeCheck {
            stage: CheckStage::DetailedScan,
            ..check(&[1, 1], false, 2)
        });
        assert_eq!(store.len(), 1, "no closure for a non-k failure");
    }

    #[test]
    fn exact_upgrades_inferred_but_never_the_reverse() {
        let store = VerdictStore::new(&figure2(), 0);
        store.record(&check(&[1, 1], false, 1)); // infers <0,1> FailK
        assert_eq!(get(&store, &[0, 1]), Some(Verdict::InferredFailK));
        // A fresh exact check of <0,1> replaces the inferred entry.
        store.record(&check(&[0, 1], false, 2));
        assert_eq!(
            get(&store, &[0, 1]),
            Some(Verdict::Exact(check(&[0, 1], false, 2)))
        );
        // Re-recording the failure at <1,1> must not demote it back.
        store.record(&check(&[1, 1], false, 1));
        assert_eq!(
            get(&store, &[0, 1]),
            Some(Verdict::Exact(check(&[0, 1], false, 2)))
        );
    }

    #[test]
    fn lookup_declines_inferred_entries_on_request() {
        let store = VerdictStore::new(&figure2(), 0);
        store.record(&check(&[1, 1], false, 1)); // FailK below <1,1>
        let exact = Some(Verdict::Exact(check(&[1, 1], false, 1)));
        assert_eq!(store.lookup(&Node(vec![1, 1]), false), exact);
        assert_eq!(store.lookup(&Node(vec![1, 1]), true), exact);
        assert_eq!(
            store.lookup(&Node(vec![0, 1]), true),
            Some(Verdict::InferredFailK)
        );
        assert_eq!(store.lookup(&Node(vec![0, 1]), false), None, "declined");
        assert_eq!(store.lookup(&Node(vec![1, 2]), true), None, "unknown");
    }

    #[test]
    fn export_is_exact_only_sorted_and_replayable() {
        let store = VerdictStore::new(&figure2(), 0);
        store.record(&check(&[1, 1], false, 1)); // also infers 3 FailK below
        store.record(&check(&[0, 2], true, 0));
        let exported = store.export_exact();
        assert_eq!(exported.len(), 2, "inferred entries are not exported");
        let nodes: Vec<&[u8]> = exported.iter().map(|c| c.node.levels()).collect();
        assert_eq!(nodes, vec![&[0u8, 2][..], &[1, 1][..]], "sorted by levels");
        // Replaying the export into a fresh store reconstructs everything,
        // including the closure-inferred entries.
        let rebuilt = VerdictStore::new(&figure2(), 0);
        for c in &exported {
            rebuilt.record(c);
        }
        assert_eq!(rebuilt.len(), store.len());
        assert_eq!(get(&rebuilt, &[0, 0]), Some(Verdict::InferredFailK));
        assert_eq!(rebuilt.export_exact(), exported);
    }

    #[test]
    fn approx_bytes_grows_with_recorded_verdicts() {
        let store = VerdictStore::new(&figure2(), 0);
        assert_eq!(store.approx_bytes(), 0);
        store.record(&check(&[0, 1], false, 1));
        let one = store.approx_bytes();
        assert!(one > 0);
        store.record(&check(&[1, 1], true, 0));
        assert!(store.approx_bytes() > one, "more entries, more bytes");
    }

    /// Statistics with one confidential attribute of descending frequencies
    /// `descending` — `maxP = len(descending)`, `maxGroups(2) = n - f_1`.
    fn stats_of(descending: &[usize]) -> crate::conditions::ConfidentialStats {
        use crate::conditions::{AttributeFrequencyStats, ConfidentialStats};
        let n = descending.iter().sum();
        ConfidentialStats::assemble(
            n,
            vec![AttributeFrequencyStats::from_descending(
                1,
                "S".into(),
                descending.to_vec(),
            )],
        )
    }

    #[test]
    fn keep_all_and_drop_all_count_every_entry() {
        let store = VerdictStore::new(&figure2(), 0);
        store.record(&check(&[1, 1], false, 1)); // + FailK at <0,0>, <1,0>, <0,1>
        assert_eq!(store.len(), 4);
        let before = store.snapshot_entries();
        let (kept, outcome) = store.invalidated_successor(Invalidation::KeepAll);
        assert_eq!(
            outcome,
            InvalidationOutcome {
                kept: 4,
                invalidated: 0
            }
        );
        assert_eq!(kept.snapshot_entries(), before, "keep-all drops nothing");
        let (dropped, outcome) = store.invalidated_successor(Invalidation::DropAll);
        assert_eq!(
            outcome,
            InvalidationOutcome {
                kept: 0,
                invalidated: 4
            }
        );
        assert!(dropped.is_empty());
        assert_eq!(
            store.snapshot_entries(),
            before,
            "the original is untouched"
        );
    }

    #[test]
    fn conditions_policy_rejudges_each_stage() {
        // New statistics after a sterile append: maxP = 3, maxGroups(2) = 3.
        let stats = stats_of(&[3, 2, 1]);
        assert!(stats.condition1(2) && !stats.condition1(4));
        assert!(stats.condition2(2, 3) && !stats.condition2(2, 4));
        let lattice = Lattice::new(vec![3, 3]);
        let entry = |stage, satisfied, n_groups, levels: &[u8]| NodeCheck {
            stage,
            satisfied,
            n_groups,
            ..check(levels, satisfied, 0)
        };
        let survivors = [
            // Passed with 3 groups: both conditions still admit it.
            entry(CheckStage::Passed, true, Some(3), &[0, 0]),
            // Condition-2 failure with 4 groups: still over the bound.
            entry(CheckStage::Condition2, false, Some(4), &[0, 1]),
        ];
        let casualties = [
            // Passed with 4 groups: Condition 2 now rejects it.
            entry(CheckStage::Passed, true, Some(4), &[1, 0]),
            // Condition-2 failure with 3 groups: the bound now admits it.
            entry(CheckStage::Condition2, false, Some(3), &[1, 1]),
            // Condition-1 failure at p = 2: the new stats accept p = 2.
            entry(CheckStage::Condition1, false, None, &[2, 0]),
            // Histogram detail: metrics quote frequencies, always dropped.
            NodeCheck {
                detail: Some(crate::model::ModelDetail::MinEntropyMicroNats(7)),
                ..entry(CheckStage::Passed, true, Some(3), &[2, 1])
            },
        ];
        let store = VerdictStore::new(&lattice, 0); // violating 0: no closure
        for c in survivors.iter().chain(&casualties) {
            store.record(c);
        }
        let (successor, outcome) = store.invalidated_successor(Invalidation::Conditions {
            stats: &stats,
            p: 2,
        });
        assert_eq!(
            outcome,
            InvalidationOutcome {
                kept: 2,
                invalidated: 4
            }
        );
        for c in &survivors {
            assert_eq!(
                successor.lookup(&c.node, true),
                Some(Verdict::Exact(c.clone())),
                "{}",
                c.node
            );
        }
        for c in &casualties {
            assert_eq!(successor.lookup(&c.node, true), None, "{}", c.node);
        }
        // A Condition-1 failure survives when the new stats still refuse p.
        let store = VerdictStore::new(&lattice, 0);
        store.record(&entry(CheckStage::Condition1, false, None, &[0, 0]));
        let (_, outcome) = store.invalidated_successor(Invalidation::Conditions {
            stats: &stats,
            p: 4,
        });
        assert_eq!(
            outcome,
            InvalidationOutcome {
                kept: 1,
                invalidated: 0
            }
        );
    }

    #[test]
    fn conditions_policy_keeps_fail_k() {
        let stats = stats_of(&[3, 2, 1]);
        let store = VerdictStore::new(&figure2(), 0);
        store.record(&check(&[0, 1], false, 1)); // violating 1 > ts 0: FailK below
        assert_eq!(get(&store, &[0, 0]), Some(Verdict::InferredFailK));
        let (successor, _) = store.invalidated_successor(Invalidation::Conditions {
            stats: &stats,
            p: 2,
        });
        assert_eq!(
            get(&successor, &[0, 0]),
            Some(Verdict::InferredFailK),
            "the k-violation certificate is partition-derived and stands"
        );
    }

    #[test]
    fn snapshot_and_raw_insert_round_trip_approx_bytes() {
        let store = VerdictStore::new(&figure2(), 0);
        store.record(&check(&[1, 1], true, 0));
        store.record(&check(&[0, 1], false, 1));
        let rebuilt = VerdictStore::new(&figure2(), 0);
        for (node, verdict) in store.snapshot_entries() {
            rebuilt.insert_raw(node, verdict);
        }
        assert_eq!(rebuilt.len(), store.len());
        assert_eq!(rebuilt.approx_bytes(), store.approx_bytes());
        assert_eq!(rebuilt.snapshot_entries(), store.snapshot_entries());
    }

    #[test]
    fn store_is_sync_and_send() {
        fn assert_bounds<T: Sync + Send>() {}
        assert_bounds::<VerdictStore>();
    }

    /// A pass at a node that suppresses tuples says nothing about its
    /// ancestors, which re-admit those tuples. In each setup the kernel
    /// passes ⟨0⟩ by suppressing an undersized group and fails ⟨1⟩;
    /// recording the pass must leave ⟨1⟩ unknown rather than contradict the
    /// kernel there.
    #[test]
    fn recording_a_pass_never_contradicts_the_kernel_at_an_ancestor() {
        use crate::masking::MaskingContext;
        use crate::model::ModelSpec;
        use crate::EvalContext;
        use psens_hierarchy::builders::{flat_hierarchy, prefix_hierarchy};
        use psens_hierarchy::{Hierarchy, QiSpace};
        use psens_microdata::{table_from_str_rows, Attribute, Schema, Table};

        fn zip_table(rows: &[(&str, &str)]) -> Table {
            let schema = Schema::new(vec![
                Attribute::cat_key("Zip"),
                Attribute::cat_confidential("S"),
            ])
            .unwrap();
            let rows: Vec<[&str; 2]> = rows.iter().map(|&(zip, s)| [zip, s]).collect();
            let rows: Vec<&[&str]> = rows.iter().map(|row| &row[..]).collect();
            table_from_str_rows(schema, &rows).unwrap()
        }
        let zip_space = |hierarchy| QiSpace::new(vec![("Zip".into(), hierarchy)]).unwrap();
        let prefixes = || {
            zip_space(Hierarchy::Cat(
                prefix_hierarchy(vec!["41076", "41099", "43102"], &[2, 0]).unwrap(),
            ))
        };

        // Setup 1, entropy-l: ⟨0⟩ suppresses z2 and keeps z1 = {a, b}; ⟨1⟩
        // merges everything into {a, a, b}, whose entropy is below ln 2.
        let entropy = (
            zip_table(&[("z1", "a"), ("z1", "b"), ("z2", "a")]),
            zip_space(flat_hierarchy(vec!["z1", "z2"]).unwrap()),
            ModelSpec::EntropyL { l: 2 },
            1,
        );
        // Setup 2, t-closeness: ⟨0⟩ suppresses 41099 = {a}; ⟨1⟩ puts it back
        // into 41*** = {a, a, b}, at EMD 1/6 > 0.1 from the table's
        // (1/2, 1/2).
        let mut rows = vec![("41076", "a"), ("41076", "b"), ("41099", "a")];
        rows.extend([("43102", "a"); 5]);
        rows.extend([("43102", "b"); 6]);
        let closeness = (
            zip_table(&rows),
            prefixes(),
            ModelSpec::TCloseness { t_ppm: 100_000 },
            1,
        );
        // Setup 3, psens-k: ⟨0⟩ suppresses 41076 and 41099; ⟨1⟩ merges them
        // into 41*** = {a, a}, a second group the statistics cannot make
        // 2-sensitive (Condition 2).
        let psens = (
            zip_table(&[
                ("41076", "a"),
                ("41099", "a"),
                ("43102", "a"),
                ("43102", "b"),
            ]),
            prefixes(),
            ModelSpec::PSensitiveK { p: 2 },
            2,
        );
        for (table, qi, spec, ts) in [entropy, closeness, psens] {
            let ctx = MaskingContext {
                initial: &table,
                qi: &qi,
                k: 2,
                p: spec.conditions_p(),
                ts,
            };
            let stats = ctx.initial_stats();
            let ectx = EvalContext::build(&ctx).unwrap().with_model(spec);
            let mut eval = ectx.evaluator();
            let store = VerdictStore::new(&qi.lattice(), ts);
            let bottom = eval.check(&Node(vec![0]), &stats).unwrap();
            assert!(bottom.satisfied && bottom.suppressed > 0, "{spec:?}");
            store.record(&bottom);
            let parent = Node(vec![1]);
            assert!(!eval.check(&parent, &stats).unwrap().satisfied, "{spec:?}");
            assert_eq!(store.lookup(&parent, true), None, "{spec:?}");
        }
    }

    /// The concurrency stress test: 16 threads hammer one store with
    /// passes and k-failures recorded in conflicting orders. Ground truth
    /// is the predicate `height >= 3` on a 3-D lattice, whose failures all
    /// carry `violating_tuples > ts`, so closure can never produce a
    /// pass/fail contradiction — the test asserts the store preserves that.
    #[test]
    fn sixteen_threads_recording_in_conflicting_orders_stay_consistent() {
        let lattice = Lattice::new(vec![2, 2, 2]);
        let ts = 1;
        let truth = |node: &Node| node.height() >= 3;
        let checks: Vec<NodeCheck> = lattice
            .all_nodes()
            .into_iter()
            .map(|node| {
                let satisfied = truth(&node);
                NodeCheck {
                    violating_tuples: if satisfied { 0 } else { ts + 1 },
                    ..check(node.levels(), satisfied, 0)
                }
            })
            .collect();
        let store = VerdictStore::new(&lattice, ts);
        let n_threads = 16;
        std::thread::scope(|scope| {
            for t in 0..n_threads {
                let checks = &checks;
                let store = &store;
                scope.spawn(move || {
                    // Each thread records every verdict in a different
                    // rotation (even threads forward, odd reversed), so
                    // passes and failures interleave in conflicting orders.
                    let n = checks.len();
                    for i in 0..n {
                        let ix = if t % 2 == 0 {
                            (i + t) % n
                        } else {
                            n - 1 - ((i + t) % n)
                        };
                        store.record(&checks[ix]);
                        let probe = &checks[(ix * 7 + t) % n].node;
                        if let Some(verdict) = store.lookup(probe, true) {
                            assert_eq!(verdict.satisfied(), truth(probe), "{probe}");
                        }
                    }
                });
            }
        });
        // Closure invariant: no node holds a verdict contradicting the
        // ground truth (in particular, none is both pass and fail).
        for node in lattice.all_nodes() {
            let verdict = store.lookup(&node, true).expect("every node recorded");
            assert_eq!(verdict.satisfied(), truth(&node), "{node}");
            assert!(
                !verdict.is_inferred(),
                "exact records upgrade inferred entries: {node}"
            );
        }
        assert_eq!(store.len(), lattice.node_count());
    }
}
