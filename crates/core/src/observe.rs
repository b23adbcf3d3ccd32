//! Zero-cost search observability: the [`SearchObserver`] trait and its two
//! stock implementations.
//!
//! The paper's experiments (Tables 7–8) are about *how much work each stage
//! of Algorithm 2 avoids* — Condition 1 aborts, Condition 2 skips,
//! k-anonymity rejects, detailed scans. [`crate::evaluator::NodeEvaluator`]
//! and the lattice searches report flat end-of-run counters; this module adds
//! the per-stage timings, per-height node counts, kernel cache-build cost,
//! and suppression totals behind them, without taxing the hot path:
//!
//! - [`NoopObserver`] sets the associated const [`SearchObserver::ENABLED`]
//!   to `false`. Every instrumentation site is gated on that const, so after
//!   monomorphization the un-observed kernel contains no `Instant::now()`
//!   calls and no branches — the `*_observed` entry points compile to the
//!   exact code the plain ones always had.
//! - [`RecordingObserver`] accumulates everything into atomics (it is handed
//!   by `&` to every worker of a parallel scan), and renders the totals as an
//!   owned [`Telemetry`] value at the end of the search.
//!
//! Observer methods take `&self` and the trait requires `Sync`: one observer
//! instance is shared by all search threads.

use crate::checker::CheckStage;
use psens_microdata::JsonValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// All five Algorithm 2 stages, in check order. Index with [`stage_index`].
pub const STAGES: [CheckStage; 5] = [
    CheckStage::Condition1,
    CheckStage::Condition2,
    CheckStage::KAnonymity,
    CheckStage::DetailedScan,
    CheckStage::Passed,
];

/// Dense index of a stage in [`STAGES`] (check order).
pub fn stage_index(stage: CheckStage) -> usize {
    match stage {
        CheckStage::Condition1 => 0,
        CheckStage::Condition2 => 1,
        CheckStage::KAnonymity => 2,
        CheckStage::DetailedScan => 3,
        CheckStage::Passed => 4,
    }
}

/// Stable lowercase name of a stage, used in report JSON.
pub fn stage_name(stage: CheckStage) -> &'static str {
    match stage {
        CheckStage::Condition1 => "condition1",
        CheckStage::Condition2 => "condition2",
        CheckStage::KAnonymity => "k_anonymity",
        CheckStage::DetailedScan => "detailed_scan",
        CheckStage::Passed => "passed",
    }
}

/// Receives search events. All methods default to no-ops; implementations
/// override what they care about. `Sync` because one observer is shared by
/// every thread of a parallel search.
pub trait SearchObserver: Sync {
    /// Whether instrumentation sites should measure at all. When `false`
    /// (only [`NoopObserver`]), call sites skip timing entirely and the
    /// whole layer monomorphizes away.
    const ENABLED: bool = true;

    /// The node-invariant kernel cache ([`crate::EvalContext`]) was built.
    fn cache_built(&self, elapsed: Duration) {
        let _ = elapsed;
    }

    /// A search moved to a new lattice height (samarati probes, levelwise
    /// sweeps). Purely informational; node counts come from `node_checked`.
    fn height_entered(&self, height: usize) {
        let _ = height;
    }

    /// One node check settled: at lattice height `height`, in `stage`, with
    /// `suppressed` tuples removed by suppression simulation.
    fn node_checked(&self, height: usize, stage: CheckStage, suppressed: usize, elapsed: Duration) {
        let _ = (height, stage, suppressed, elapsed);
    }

    /// A node's verdict was served from the shared
    /// [`crate::verdict::VerdictStore`] instead of a fresh kernel check: an
    /// exact replay (`inferred == false`) or a k-failure inferred from a
    /// recorded ancestor (`inferred == true`). Reused verdicts never fire
    /// [`Self::node_checked`] and never consume node budget.
    fn verdict_reused(&self, height: usize, inferred: bool) {
        let _ = (height, inferred);
    }

    /// A full generalized table was materialized
    /// ([`crate::MaskingContext::evaluate`] — the expensive path the kernel
    /// exists to avoid).
    fn table_materialized(&self, elapsed: Duration) {
        let _ = elapsed;
    }

    /// A partition-style algorithm (mondrian, greedy clustering) finalized
    /// one output group of `rows` rows.
    fn partition_finalized(&self, rows: usize, elapsed: Duration) {
        let _ = (rows, elapsed);
    }
}

/// Starts a timer only when `O` records; `None` costs nothing.
pub fn start_timer<O: SearchObserver + ?Sized>() -> Option<Instant> {
    if O::ENABLED {
        Some(Instant::now())
    } else {
        None
    }
}

/// Elapsed time since [`start_timer`], zero when the timer was disabled.
pub fn elapsed_since(start: Option<Instant>) -> Duration {
    start.map(|t| t.elapsed()).unwrap_or(Duration::ZERO)
}

/// The do-nothing observer: `ENABLED = false`, so every instrumentation
/// site gated on the const compiles out.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl SearchObserver for NoopObserver {
    const ENABLED: bool = false;
}

/// Per-stage accumulator: settled-node count and total check time.
#[derive(Debug, Default)]
struct StageCell {
    nodes: AtomicU64,
    ns: AtomicU64,
}

/// Thread-safe recording observer: accumulates counts and wall-clock totals
/// into atomics, rendered by [`Self::telemetry`].
#[derive(Debug, Default)]
pub struct RecordingObserver {
    cache_build_ns: AtomicU64,
    stages: [StageCell; 5],
    /// Per-height (nodes, ns); heights are small and sparse, so a map under
    /// a mutex beats sizing an array for an unknown lattice.
    heights: Mutex<std::collections::BTreeMap<usize, (u64, u64)>>,
    heights_entered: Mutex<Vec<usize>>,
    cache_hits: AtomicU64,
    cache_inferred: AtomicU64,
    tables_materialized: AtomicU64,
    materialize_ns: AtomicU64,
    suppressed_total: AtomicU64,
    partitions_finalized: AtomicU64,
    partition_rows: AtomicU64,
    partition_ns: AtomicU64,
}

impl RecordingObserver {
    /// A fresh observer with all counters at zero.
    pub fn new() -> RecordingObserver {
        RecordingObserver::default()
    }

    /// Snapshots the accumulated counters.
    pub fn telemetry(&self) -> Telemetry {
        let stages = STAGES
            .iter()
            .map(|&stage| {
                let cell = &self.stages[stage_index(stage)];
                StageTelemetry {
                    stage,
                    nodes: cell.nodes.load(Ordering::Relaxed),
                    ns: cell.ns.load(Ordering::Relaxed),
                }
            })
            .collect();
        let heights = self
            .heights
            .lock()
            .expect("observer mutex")
            .iter()
            .map(|(&height, &(nodes, ns))| HeightTelemetry { height, nodes, ns })
            .collect();
        Telemetry {
            cache_build_ns: self.cache_build_ns.load(Ordering::Relaxed),
            stages,
            heights,
            heights_entered: self.heights_entered.lock().expect("observer mutex").clone(),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_inferred: self.cache_inferred.load(Ordering::Relaxed),
            tables_materialized: self.tables_materialized.load(Ordering::Relaxed),
            materialize_ns: self.materialize_ns.load(Ordering::Relaxed),
            suppressed_total: self.suppressed_total.load(Ordering::Relaxed),
            partitions_finalized: self.partitions_finalized.load(Ordering::Relaxed),
            partition_rows: self.partition_rows.load(Ordering::Relaxed),
            partition_ns: self.partition_ns.load(Ordering::Relaxed),
        }
    }
}

impl SearchObserver for RecordingObserver {
    fn cache_built(&self, elapsed: Duration) {
        self.cache_build_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    fn height_entered(&self, height: usize) {
        self.heights_entered
            .lock()
            .expect("observer mutex")
            .push(height);
    }

    fn node_checked(&self, height: usize, stage: CheckStage, suppressed: usize, elapsed: Duration) {
        let ns = elapsed.as_nanos() as u64;
        let cell = &self.stages[stage_index(stage)];
        cell.nodes.fetch_add(1, Ordering::Relaxed);
        cell.ns.fetch_add(ns, Ordering::Relaxed);
        self.suppressed_total
            .fetch_add(suppressed as u64, Ordering::Relaxed);
        let mut heights = self.heights.lock().expect("observer mutex");
        let entry = heights.entry(height).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += ns;
    }

    fn verdict_reused(&self, _height: usize, inferred: bool) {
        if inferred {
            self.cache_inferred.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn table_materialized(&self, elapsed: Duration) {
        self.tables_materialized.fetch_add(1, Ordering::Relaxed);
        self.materialize_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    fn partition_finalized(&self, rows: usize, elapsed: Duration) {
        self.partitions_finalized.fetch_add(1, Ordering::Relaxed);
        self.partition_rows
            .fetch_add(rows as u64, Ordering::Relaxed);
        self.partition_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// One Algorithm 2 stage's share of the search: how many node checks it
/// settled and their total wall-clock time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTelemetry {
    /// The settling stage.
    pub stage: CheckStage,
    /// Node checks this stage settled.
    pub nodes: u64,
    /// Total check time of those nodes, nanoseconds.
    pub ns: u64,
}

/// One lattice height's share of the search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeightTelemetry {
    /// Lattice height (sum of node levels).
    pub height: usize,
    /// Node checks at this height.
    pub nodes: u64,
    /// Total check time of those nodes, nanoseconds.
    pub ns: u64,
}

/// Snapshot of everything a [`RecordingObserver`] accumulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Telemetry {
    /// Time to build the node-invariant kernel cache, nanoseconds.
    pub cache_build_ns: u64,
    /// Per-stage node counts and timings, in check order (all five stages,
    /// zeros included, so consumers can sum without guessing).
    pub stages: Vec<StageTelemetry>,
    /// Per-height node counts and timings, ascending height.
    pub heights: Vec<HeightTelemetry>,
    /// Lattice heights in the order the search visited them.
    pub heights_entered: Vec<usize>,
    /// Node verdicts replayed exactly from the shared verdict store (these
    /// are *not* in [`Self::nodes_checked`] — no kernel check ran).
    pub cache_hits: u64,
    /// Node verdicts served as k-failures inferred by the store.
    pub cache_inferred: u64,
    /// Full generalized tables materialized.
    pub tables_materialized: u64,
    /// Total table materialization time, nanoseconds.
    pub materialize_ns: u64,
    /// Total tuples removed by suppression simulation across all node checks.
    pub suppressed_total: u64,
    /// Output groups finalized by partition-style algorithms.
    pub partitions_finalized: u64,
    /// Rows across those finalized groups.
    pub partition_rows: u64,
    /// Total partition build time, nanoseconds.
    pub partition_ns: u64,
}

impl Telemetry {
    /// Total node checks, summed over stages.
    pub fn nodes_checked(&self) -> u64 {
        self.stages.iter().map(|s| s.nodes).sum()
    }

    /// Total node-check time, nanoseconds, summed over stages.
    pub fn check_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.ns).sum()
    }

    /// Renders the telemetry as a JSON object (the `telemetry` field of a
    /// `RunReport`; schema documented in DESIGN.md).
    pub fn to_json(&self) -> JsonValue {
        let mut out = JsonValue::object();
        out.set("cache_build_ns", JsonValue::Int(self.cache_build_ns as i64));
        out.set(
            "stages",
            JsonValue::Array(
                self.stages
                    .iter()
                    .map(|s| {
                        let mut entry = JsonValue::object();
                        entry.set("stage", JsonValue::Str(stage_name(s.stage).into()));
                        entry.set("nodes", JsonValue::Int(s.nodes as i64));
                        entry.set("ns", JsonValue::Int(s.ns as i64));
                        entry
                    })
                    .collect(),
            ),
        );
        out.set(
            "heights",
            JsonValue::Array(
                self.heights
                    .iter()
                    .map(|h| {
                        let mut entry = JsonValue::object();
                        entry.set("height", JsonValue::Int(h.height as i64));
                        entry.set("nodes", JsonValue::Int(h.nodes as i64));
                        entry.set("ns", JsonValue::Int(h.ns as i64));
                        entry
                    })
                    .collect(),
            ),
        );
        out.set(
            "heights_entered",
            JsonValue::Array(
                self.heights_entered
                    .iter()
                    .map(|&h| JsonValue::Int(h as i64))
                    .collect(),
            ),
        );
        out.set("nodes_checked", JsonValue::Int(self.nodes_checked() as i64));
        out.set("check_ns", JsonValue::Int(self.check_ns() as i64));
        out.set("cache_hits", JsonValue::Int(self.cache_hits as i64));
        out.set("cache_inferred", JsonValue::Int(self.cache_inferred as i64));
        out.set(
            "tables_materialized",
            JsonValue::Int(self.tables_materialized as i64),
        );
        out.set("materialize_ns", JsonValue::Int(self.materialize_ns as i64));
        out.set(
            "suppressed_total",
            JsonValue::Int(self.suppressed_total as i64),
        );
        out.set(
            "partitions_finalized",
            JsonValue::Int(self.partitions_finalized as i64),
        );
        out.set("partition_rows", JsonValue::Int(self.partition_rows as i64));
        out.set("partition_ns", JsonValue::Int(self.partition_ns as i64));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NoopObserver must opt out of instrumentation entirely; checked at
    // compile time.
    const _: () = assert!(!NoopObserver::ENABLED);

    #[test]
    fn noop_is_disabled_and_costless_to_time() {
        let t = start_timer::<NoopObserver>();
        assert!(t.is_none());
        assert_eq!(elapsed_since(t), Duration::ZERO);
    }

    #[test]
    fn recording_accumulates_by_stage_and_height() {
        let obs = RecordingObserver::new();
        obs.cache_built(Duration::from_nanos(10));
        obs.height_entered(2);
        obs.node_checked(2, CheckStage::Passed, 0, Duration::from_nanos(5));
        obs.node_checked(2, CheckStage::Condition2, 3, Duration::from_nanos(7));
        obs.node_checked(1, CheckStage::Condition1, 0, Duration::from_nanos(2));
        obs.table_materialized(Duration::from_nanos(100));
        obs.partition_finalized(4, Duration::from_nanos(20));
        obs.verdict_reused(2, false);
        obs.verdict_reused(3, true);
        obs.verdict_reused(3, true);
        let t = obs.telemetry();
        assert_eq!(t.cache_build_ns, 10);
        assert_eq!(t.nodes_checked(), 3);
        assert_eq!(t.check_ns(), 14);
        assert_eq!(t.suppressed_total, 3);
        assert_eq!(t.heights_entered, vec![2]);
        assert_eq!(
            t.heights,
            vec![
                HeightTelemetry {
                    height: 1,
                    nodes: 1,
                    ns: 2
                },
                HeightTelemetry {
                    height: 2,
                    nodes: 2,
                    ns: 12
                },
            ]
        );
        assert_eq!(t.stages[stage_index(CheckStage::Condition1)].nodes, 1);
        assert_eq!(t.stages[stage_index(CheckStage::Condition2)].nodes, 1);
        assert_eq!(t.stages[stage_index(CheckStage::KAnonymity)].nodes, 0);
        assert_eq!(t.stages[stage_index(CheckStage::Passed)].nodes, 1);
        assert_eq!(t.tables_materialized, 1);
        assert_eq!(t.materialize_ns, 100);
        assert_eq!(t.partitions_finalized, 1);
        assert_eq!(t.partition_rows, 4);
        assert_eq!(t.partition_ns, 20);
        // Reused verdicts land in their own counters, never in the stage
        // partition (nodes_checked stays the fresh-check count).
        assert_eq!(t.cache_hits, 1);
        assert_eq!(t.cache_inferred, 2);
        assert_eq!(t.nodes_checked(), 3);
    }

    #[test]
    fn telemetry_json_is_valid_and_sums() {
        let obs = RecordingObserver::new();
        obs.node_checked(0, CheckStage::Passed, 1, Duration::from_nanos(5));
        let t = obs.telemetry();
        let json = t.to_json().to_json();
        let parsed = JsonValue::parse(&json).unwrap();
        assert_eq!(
            parsed.require("nodes_checked").unwrap().as_u64().unwrap(),
            1
        );
        let stage_sum: u64 = parsed
            .require("stages")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.require("nodes").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(stage_sum, 1);
    }

    #[test]
    fn observers_are_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<NoopObserver>();
        assert_sync::<RecordingObserver>();
    }
}
