//! The dataset registry: parse and intern a dataset once, serve many
//! requests against it.
//!
//! Each registered dataset keeps a pool of warm [`VerdictStore`]s keyed by
//! `(model, k, ts)`. A store's verdicts are only sound for one privacy
//! model and parameter configuration (see `psens_core::verdict`), so the
//! pool never shares a store across configurations — but repeated
//! `anonymize` requests with the *same* model and parameters replay each
//! other's node verdicts instead of re-running the kernel, which is where a
//! long-running daemon earns its keep over one-shot CLI invocations.
//! A pooled store infers only k-failures, which hold for every model, so it
//! never serves a later request a verdict the kernel would not reproduce.

use crate::state::{SnapshotEntry, StateDir};
use psens_core::{
    invalidation_for, ConfidentialStats, DeltaEffect, Invalidation, LiveTable, ModelSpec,
    VerdictStore,
};
use psens_datasets::Spec;
use psens_hierarchy::QiSpace;
use psens_microdata::csv::read_table_str;
use psens_microdata::{DeltaBatch, JsonValue, Kind, Schema, Table, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A warm-pool key: `(dataset, model, k, ts)`.
pub type PoolKey = (String, ModelSpec, u32, usize);

/// Everything one [`Dataset::apply_delta`] call did, computed under a
/// single hold of the live write lock so every field describes the same
/// table version — the post-batch one. Pairing the effect with statistics
/// read after the lock dropped would let a racing second batch leak into
/// the invalidation judgement.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// How the batch changed the row multiset.
    pub effect: DeltaEffect,
    /// Confidential statistics of the table *after* the batch.
    pub stats: ConfidentialStats,
    /// Row count after the batch.
    pub rows: usize,
    /// Deltas applied since registration, after this batch.
    pub deltas_applied: u64,
    /// Verdicts kept across every warm pool by the invalidation pass.
    pub kept: u64,
    /// Verdicts dropped across every warm pool.
    pub invalidated: u64,
}

/// One `watch` registration: a spec to re-verify after every delta, plus
/// the last verdict published for it (serialized JSON, so "changed" is a
/// plain string compare on the exact bytes a client would receive).
#[derive(Debug, Clone)]
pub struct WatchEntry {
    /// Watched privacy model (with its parameter).
    pub model: ModelSpec,
    /// Watched k.
    pub k: u32,
    /// Watched suppression threshold.
    pub ts: usize,
    /// Serialized verdict last published for this spec (`None` until the
    /// baseline search runs).
    pub last: Option<String>,
}

/// One registered dataset: the live table (mutated only through
/// [`Dataset::apply_delta`]), its spec, the warm verdict-store pool, and
/// any active watches.
pub struct Dataset {
    /// Registry name.
    pub name: String,
    /// The parsed, interned table plus its incrementally-maintained
    /// confidential statistics. Columns are `Arc`-shared, so snapshot
    /// clones handed to requests are cheap.
    live: RwLock<LiveTable>,
    /// The spec the dataset was registered with.
    pub spec: Spec,
    /// QI space built once from the spec's key hierarchies.
    pub qi: QiSpace,
    stores: Mutex<HashMap<(ModelSpec, u32, usize), Arc<VerdictStore>>>,
    watches: Mutex<Vec<WatchEntry>>,
    warm_hits: AtomicU64,
    cold_misses: AtomicU64,
}

impl Dataset {
    /// A snapshot clone of the current table. Cheap (columns are shared);
    /// requests work against the snapshot so a concurrent `update` never
    /// mutates a table mid-search.
    pub fn table(&self) -> Table {
        self.live
            .read()
            .expect("live table poisoned")
            .table()
            .clone()
    }

    /// Current row count.
    pub fn n_rows(&self) -> usize {
        self.live
            .read()
            .expect("live table poisoned")
            .table()
            .n_rows()
    }

    /// Deltas applied since registration (journal replay included).
    pub fn deltas_applied(&self) -> u64 {
        self.live
            .read()
            .expect("live table poisoned")
            .deltas_applied()
    }

    /// The incrementally-maintained confidential statistics.
    pub fn stats(&self) -> ConfidentialStats {
        self.live.read().expect("live table poisoned").stats()
    }

    /// Table and statistics under one read lock — the pair is guaranteed
    /// consistent even while `update`s race, which is what `anonymize`
    /// needs to reuse the stats as a precomputed search input.
    pub fn snapshot(&self) -> (Table, ConfidentialStats) {
        let live = self.live.read().expect("live table poisoned");
        (live.table().clone(), live.stats())
    }

    /// Validates and applies a delta batch under the write lock, journaling
    /// it write-ahead when a state dir is configured. Journal order equals
    /// apply order because both happen under the same lock hold; a journal
    /// append failure fails the update (fail-closed, like `register`).
    /// `batch.validate` refuses empty-text cells, so the rendered journal
    /// encoding (`"" = Missing`) round-trips injectively on replay.
    ///
    /// Warm-pool invalidation also happens here, **before the write lock
    /// drops**, so delta apply and invalidation are one atomic step with
    /// respect to every search that acquires its `(store, table, stats)`
    /// through [`Registry::snapshot_with_store`]'s read-lock hold. Pools
    /// whose verdicts the batch could flip are *swapped* for a detached
    /// successor ([`VerdictStore::invalidated_successor`]) rather than
    /// pruned in place: an in-flight search still holding the pre-delta
    /// `Arc` keeps recording into the detached store, whose stale verdicts
    /// die with it instead of poisoning the pool the next request gets. A
    /// net-zero batch keeps the same `Arc` — the row multiset is unchanged,
    /// so pre-delta verdicts (including ones recorded late by in-flight
    /// searches) remain exactly right.
    pub fn apply_delta(
        &self,
        batch: &DeltaBatch,
        journal: Option<&StateDir>,
    ) -> Result<DeltaOutcome, String> {
        let mut live = self.live.write().expect("live table poisoned");
        batch.validate(live.table()).map_err(|e| e.to_string())?;
        if let Some(state) = journal {
            let appends: Vec<Vec<String>> = batch
                .appends
                .iter()
                .map(|row| row.iter().map(|v| v.render().into_owned()).collect())
                .collect();
            state
                .log_delta(&self.name, &appends, &batch.deletes)
                .map_err(|e| format!("state journal append failed: {e}"))?;
        }
        let effect = live.apply(batch).map_err(|e| e.to_string())?;
        let stats = live.stats();
        let mut kept = 0u64;
        let mut invalidated = 0u64;
        {
            // Lock order live → stores, same as `snapshot_with_store`.
            let mut stores = self.stores.lock().expect("store pool poisoned");
            for (&(model, k, _ts), store) in stores.iter_mut() {
                match invalidation_for(&effect, &stats, &model, k as usize) {
                    Invalidation::KeepAll => kept += store.len() as u64,
                    policy => {
                        let (successor, outcome) = store.invalidated_successor(policy);
                        *store = Arc::new(successor);
                        kept += outcome.kept;
                        invalidated += outcome.invalidated;
                    }
                }
            }
        }
        Ok(DeltaOutcome {
            effect,
            stats,
            rows: live.table().n_rows(),
            deltas_applied: live.deltas_applied(),
            kept,
            invalidated,
        })
    }

    /// Registers a watch for `(model, k, ts)`. Returns `false` when the
    /// spec was already watched (the existing entry, and its last verdict,
    /// are kept).
    pub fn register_watch(&self, model: ModelSpec, k: u32, ts: usize) -> bool {
        let mut watches = self.watches.lock().expect("watches poisoned");
        if watches
            .iter()
            .any(|w| (w.model, w.k, w.ts) == (model, k, ts))
        {
            return false;
        }
        watches.push(WatchEntry {
            model,
            k,
            ts,
            last: None,
        });
        true
    }

    /// A snapshot of the active watches (registration order).
    pub fn watch_snapshot(&self) -> Vec<WatchEntry> {
        self.watches.lock().expect("watches poisoned").clone()
    }

    /// Records the verdict just published for a watched spec.
    pub fn set_watch_verdict(&self, model: ModelSpec, k: u32, ts: usize, verdict: String) {
        let mut watches = self.watches.lock().expect("watches poisoned");
        if let Some(entry) = watches
            .iter_mut()
            .find(|w| (w.model, w.k, w.ts) == (model, k, ts))
        {
            entry.last = Some(verdict);
        }
    }

    /// The warm store for `(model, k, ts)`, creating it on first use. The
    /// bool is `true` when the store already existed (a warm hit):
    /// subsequent searches replay its verdicts instead of re-checking
    /// nodes.
    pub fn store(&self, model: ModelSpec, k: u32, ts: usize) -> (Arc<VerdictStore>, bool) {
        let mut stores = self.stores.lock().expect("store pool poisoned");
        match stores.get(&(model, k, ts)) {
            Some(store) => {
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
                (Arc::clone(store), true)
            }
            None => {
                self.cold_misses.fetch_add(1, Ordering::Relaxed);
                let store = Arc::new(VerdictStore::new(&self.qi.lattice(), ts));
                stores.insert((model, k, ts), Arc::clone(&store));
                (store, false)
            }
        }
    }

    /// Pool counters: `(warm_hits, cold_misses, live_stores)`.
    pub fn store_counters(&self) -> (u64, u64, usize) {
        let live = self.stores.lock().expect("store pool poisoned").len();
        (
            self.warm_hits.load(Ordering::Relaxed),
            self.cold_misses.load(Ordering::Relaxed),
            live,
        )
    }

    /// Drops the warm store for `(model, k, ts)` (memory-pressure
    /// eviction). In-flight searches holding the `Arc` finish unaffected;
    /// the next request for this key rebuilds the pool cold with identical
    /// verdicts.
    pub fn remove_store(&self, model: ModelSpec, k: u32, ts: usize) -> Option<Arc<VerdictStore>> {
        self.stores
            .lock()
            .expect("store pool poisoned")
            .remove(&(model, k, ts))
    }

    /// Every live pool, sorted by key — deterministic snapshot order.
    pub fn pools(&self) -> Vec<((ModelSpec, u32, usize), Arc<VerdictStore>)> {
        let stores = self.stores.lock().expect("store pool poisoned");
        let mut out: Vec<_> = stores
            .iter()
            .map(|(key, store)| (*key, Arc::clone(store)))
            .collect();
        out.sort_by_key(|(key, _)| *key);
        out
    }

    /// Approximate heap bytes held by this dataset's warm stores.
    pub fn pool_bytes(&self) -> u64 {
        self.pools()
            .iter()
            .map(|(_, store)| store.approx_bytes())
            .sum()
    }
}

/// Parses rendered cell strings back into typed values against `schema`
/// (`""` decodes to `Missing`, integers kind-aware) — shared by the
/// `update` op and journal replay so both construct identical rows.
pub fn parse_cells(schema: &Schema, rows: &[Vec<String>]) -> Result<Vec<Vec<Value>>, String> {
    let width = schema.attributes().len();
    rows.iter()
        .enumerate()
        .map(|(r, row)| {
            if row.len() != width {
                return Err(format!(
                    "append row {r} has {} cells, schema has {width}",
                    row.len()
                ));
            }
            row.iter()
                .enumerate()
                .map(|(c, cell)| {
                    let attr = schema.attribute(c);
                    if cell.is_empty() {
                        return Ok(Value::Missing);
                    }
                    Ok(match attr.kind() {
                        Kind::Int => Value::Int(cell.parse::<i64>().map_err(|_| {
                            format!(
                                "append row {r}, column `{}`: `{cell}` is not an integer",
                                attr.name()
                            )
                        })?),
                        Kind::Cat => Value::Text(cell.clone()),
                    })
                })
                .collect()
        })
        .collect()
}

/// What a journal+snapshot replay reconstructed, reported by `stats` and
/// the boot banner.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Datasets re-interned from the journal.
    pub datasets: usize,
    /// Warm pools re-created from the journal.
    pub pools: usize,
    /// Update batches re-applied from the journal.
    pub deltas: usize,
    /// Exact verdicts replayed from the snapshot.
    pub verdicts: usize,
    /// Skipped-line / mismatch notes from the replay (fail-closed skips).
    pub warnings: Vec<String>,
}

/// Thread-safe name → dataset map shared by all connection handlers, plus
/// the write-ahead journal hook and the warm-pool byte budget.
#[derive(Default)]
pub struct Registry {
    datasets: Mutex<HashMap<String, Arc<Dataset>>>,
    state: Option<Arc<StateDir>>,
    /// 0 = unlimited.
    max_pool_bytes: u64,
    /// Pool keys in least-recently-used order (front = coldest).
    lru: Mutex<Vec<PoolKey>>,
    evictions: AtomicU64,
}

impl Registry {
    /// An empty registry with no persistence and no pool budget.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A registry that journals to `state` (when set) and evicts warm pools
    /// LRU once their combined footprint exceeds `max_pool_bytes` (0 =
    /// unlimited).
    pub fn with_state(state: Option<Arc<StateDir>>, max_pool_bytes: u64) -> Registry {
        Registry {
            state,
            max_pool_bytes,
            ..Registry::default()
        }
    }

    /// Parses `csv` against `spec` and registers it under `name`. Errors if
    /// the name is taken (re-registration would invalidate warm stores other
    /// requests may be using) or the CSV does not parse against the spec.
    /// With a state dir, the registration is journaled write-ahead: if the
    /// journal append fails the registration fails (fail-closed — never an
    /// in-memory dataset that a restart silently forgets).
    pub fn register(&self, name: &str, csv: &str, spec: Spec) -> Result<Arc<Dataset>, String> {
        self.register_inner(name, csv, spec, true)
    }

    fn register_inner(
        &self,
        name: &str,
        csv: &str,
        spec: Spec,
        journal: bool,
    ) -> Result<Arc<Dataset>, String> {
        let schema = spec.schema().map_err(|e| e.to_string())?;
        let table = read_table_str(csv, schema, true).map_err(|e| e.to_string())?;
        let qi = spec.qi_space()?;
        let mut datasets = self.datasets.lock().expect("registry poisoned");
        if datasets.contains_key(name) {
            return Err(format!("dataset `{name}` is already registered"));
        }
        if journal {
            if let Some(state) = &self.state {
                state
                    .log_register(name, csv, &spec)
                    .map_err(|e| format!("state journal append failed: {e}"))?;
            }
        }
        let qi_cols = table.schema().key_indices();
        let conf_cols = table.schema().confidential_indices();
        let live = LiveTable::new(table, qi_cols, conf_cols).map_err(|e| e.to_string())?;
        let dataset = Arc::new(Dataset {
            name: name.to_owned(),
            live: RwLock::new(live),
            spec,
            qi,
            stores: Mutex::new(HashMap::new()),
            watches: Mutex::new(Vec::new()),
            warm_hits: AtomicU64::new(0),
            cold_misses: AtomicU64::new(0),
        });
        datasets.insert(name.to_owned(), Arc::clone(&dataset));
        Ok(dataset)
    }

    /// The warm store for `(model, k, ts)` on `dataset`, journaling pool
    /// creation and maintaining the LRU byte budget. All server request
    /// paths go through here; `Dataset::store` alone skips persistence.
    pub fn store_for(
        &self,
        dataset: &Arc<Dataset>,
        model: ModelSpec,
        k: u32,
        ts: usize,
    ) -> (Arc<VerdictStore>, bool) {
        let (store, warm) = dataset.store(model, k, ts);
        self.note_pool_use(dataset, model, k, ts, warm);
        (store, warm)
    }

    /// Store, table, and statistics acquired under **one** hold of the
    /// dataset's live read lock, so the triple is fully pre-delta or fully
    /// post-delta with respect to any concurrent update — never a stale
    /// store paired with a fresh table (which would replay unsound
    /// verdicts) or the reverse. [`Dataset::apply_delta`] swaps invalidated
    /// pools while holding the write lock, which is what makes this
    /// guarantee hold. Pool bookkeeping (journal line, LRU touch, byte
    /// budget) runs after the lock drops.
    pub fn snapshot_with_store(
        &self,
        dataset: &Arc<Dataset>,
        model: ModelSpec,
        k: u32,
        ts: usize,
    ) -> (Arc<VerdictStore>, bool, Table, ConfidentialStats) {
        let (store, warm, table, stats) = {
            let live = dataset.live.read().expect("live table poisoned");
            // Lock order live → stores, same as `Dataset::apply_delta`.
            let (store, warm) = dataset.store(model, k, ts);
            (store, warm, live.table().clone(), live.stats())
        };
        self.note_pool_use(dataset, model, k, ts, warm);
        (store, warm, table, stats)
    }

    /// The persistence + LRU tail shared by [`Self::store_for`] and
    /// [`Self::snapshot_with_store`].
    fn note_pool_use(
        &self,
        dataset: &Arc<Dataset>,
        model: ModelSpec,
        k: u32,
        ts: usize,
        warm: bool,
    ) {
        if !warm {
            if let Some(state) = &self.state {
                // A lost pool line only costs a cold rebuild after restart
                // (verdicts are pure functions of the key), so journal
                // failure here degrades warm-up, never correctness.
                let _ = state.log_pool(&dataset.name, model, k, ts);
            }
        }
        let key: PoolKey = (dataset.name.clone(), model, k, ts);
        {
            let mut lru = self.lru.lock().expect("lru lock poisoned");
            lru.retain(|entry| entry != &key);
            lru.push(key.clone());
        }
        self.enforce_pool_budget(&key);
    }

    /// Evicts least-recently-used pools until the combined footprint fits
    /// the budget. The just-touched key is exempt so the request that
    /// triggered enforcement keeps its store.
    fn enforce_pool_budget(&self, keep: &PoolKey) {
        if self.max_pool_bytes == 0 {
            return;
        }
        while self.pool_bytes() > self.max_pool_bytes {
            let victim = {
                let mut lru = self.lru.lock().expect("lru lock poisoned");
                let at = lru.iter().position(|entry| entry != keep);
                match at {
                    Some(at) => lru.remove(at),
                    None => return,
                }
            };
            let (name, model, k, ts) = victim;
            if let Some(dataset) = self.get(&name) {
                if dataset.remove_store(model, k, ts).is_some() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Applies a delta batch to `dataset`, journaling it write-ahead when
    /// persistence is on. All server update paths go through here;
    /// `Dataset::apply_delta` with `None` skips persistence (journal
    /// replay uses that so recovery doesn't re-journal its own input).
    pub fn apply_delta(
        &self,
        dataset: &Dataset,
        batch: &DeltaBatch,
    ) -> Result<DeltaOutcome, String> {
        dataset.apply_delta(batch, self.state.as_deref())
    }

    /// Approximate heap bytes across every dataset's warm pools.
    pub fn pool_bytes(&self) -> u64 {
        let datasets: Vec<Arc<Dataset>> = {
            let map = self.datasets.lock().expect("registry poisoned");
            map.values().cloned().collect()
        };
        datasets.iter().map(|d| d.pool_bytes()).sum()
    }

    /// Pools evicted under memory pressure since boot.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Replays the state dir's journal and snapshot into this registry:
    /// re-interns verified datasets, re-creates their warm pools, and
    /// replays snapshot verdicts (each validated against the dataset's
    /// lattice before `record`). Unverifiable pieces are skipped with a
    /// warning — recovery can shrink state, never corrupt it.
    pub fn recover(&self) -> RecoveryStats {
        let Some(state) = self.state.clone() else {
            return RecoveryStats::default();
        };
        let mut stats = RecoveryStats::default();
        let recovered = state.replay();
        stats.warnings = recovered.warnings;
        for dataset in recovered.registrations {
            match self.register_inner(&dataset.name, &dataset.csv, dataset.spec, false) {
                Ok(_) => stats.datasets += 1,
                Err(e) => stats.warnings.push(format!(
                    "dataset `{}` failed to re-intern: {e}",
                    dataset.name
                )),
            }
        }
        for (name, model, k, ts) in recovered.pools {
            if let Some(dataset) = self.get(&name) {
                // Warm the pool without re-journaling its creation.
                let (_, warm) = dataset.store(model, k, ts);
                if !warm {
                    stats.pools += 1;
                    let mut lru = self.lru.lock().expect("lru lock poisoned");
                    lru.push((name.clone(), model, k, ts));
                }
            }
        }
        for delta in recovered.deltas {
            let Some(dataset) = self.get(&delta.dataset) else {
                // replay() already drops deltas of unrecovered datasets;
                // this only triggers when the dataset failed to re-intern.
                stats.warnings.push(format!(
                    "delta for unrecovered dataset `{}`; skipped",
                    delta.dataset
                ));
                continue;
            };
            let replayed = (|| -> Result<(), String> {
                let table = dataset.table();
                let appends = parse_cells(table.schema(), &delta.appends)?;
                let batch = DeltaBatch {
                    appends,
                    deletes: delta.deletes.clone(),
                };
                dataset.apply_delta(&batch, None).map(|_| ())
            })();
            match replayed {
                Ok(()) => stats.deltas += 1,
                Err(e) => stats.warnings.push(format!(
                    "delta for `{}` failed to replay: {e}",
                    delta.dataset
                )),
            }
        }
        if let Some(entries) = state.load_snapshot() {
            for entry in entries {
                let Some(dataset) = self.get(&entry.dataset) else {
                    stats.warnings.push(format!(
                        "snapshot verdict for unknown dataset `{}`; skipped",
                        entry.dataset
                    ));
                    continue;
                };
                if entry.deltas != dataset.deltas_applied() {
                    // The snapshot predates deltas journaled after it was
                    // written (clean shutdown, restart, updates, crash):
                    // its verdicts describe an older table. Skip — the
                    // pool rebuilds cold against the current table.
                    stats.warnings.push(format!(
                        "snapshot verdict for `{}` is stale (snapshot at {} delta(s), table at {}); skipped",
                        entry.dataset,
                        entry.deltas,
                        dataset.deltas_applied()
                    ));
                    continue;
                }
                if !dataset.qi.lattice().contains(&entry.check.node) {
                    stats.warnings.push(format!(
                        "snapshot verdict outside `{}`'s lattice; skipped",
                        entry.dataset
                    ));
                    continue;
                }
                let (store, _) = dataset.store(entry.model, entry.k, entry.ts);
                store.record(&entry.check);
                stats.verdicts += 1;
            }
        }
        stats
    }

    /// Every exact verdict across every warm pool, ordered by dataset name
    /// then pool key then node — the deterministic snapshot export.
    pub fn snapshot_entries(&self) -> Vec<SnapshotEntry> {
        let datasets: Vec<Arc<Dataset>> = {
            let map = self.datasets.lock().expect("registry poisoned");
            let mut v: Vec<Arc<Dataset>> = map.values().cloned().collect();
            v.sort_by(|a, b| a.name.cmp(&b.name));
            v
        };
        let mut out = Vec::new();
        for dataset in datasets {
            let deltas = dataset.deltas_applied();
            for ((model, k, ts), store) in dataset.pools() {
                for check in store.export_exact() {
                    out.push(SnapshotEntry {
                        dataset: dataset.name.clone(),
                        deltas,
                        model,
                        k,
                        ts,
                        check,
                    });
                }
            }
        }
        out
    }

    /// Writes the verdict snapshot if a state dir is configured. Returns
    /// the stats on success, `None` when persistence is off.
    pub fn write_snapshot(&self) -> Option<crate::state::SnapshotStats> {
        let state = self.state.clone()?;
        state.write_snapshot(&self.snapshot_entries()).ok()
    }

    /// Looks up a dataset by name.
    pub fn get(&self, name: &str) -> Option<Arc<Dataset>> {
        self.datasets
            .lock()
            .expect("registry poisoned")
            .get(name)
            .cloned()
    }

    /// Registered dataset names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .datasets
            .lock()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Registry-wide JSON summary for the `stats` op: per-dataset row counts
    /// and store-pool counters.
    pub fn to_json(&self) -> JsonValue {
        let mut out = JsonValue::object();
        let datasets: Vec<Arc<Dataset>> = {
            let map = self.datasets.lock().expect("registry poisoned");
            let mut v: Vec<Arc<Dataset>> = map.values().cloned().collect();
            v.sort_by(|a, b| a.name.cmp(&b.name));
            v
        };
        let entries = datasets
            .iter()
            .map(|d| {
                let (warm, cold, live) = d.store_counters();
                let mut e = JsonValue::object();
                e.set("name", JsonValue::Str(d.name.clone()));
                e.set("rows", JsonValue::Int(d.n_rows() as i64));
                e.set("deltas_applied", JsonValue::Int(d.deltas_applied() as i64));
                e.set("watches", JsonValue::Int(d.watch_snapshot().len() as i64));
                e.set(
                    "lattice_nodes",
                    JsonValue::Int(d.qi.lattice().node_count() as i64),
                );
                e.set("store_warm_hits", JsonValue::Int(warm as i64));
                e.set("store_cold_misses", JsonValue::Int(cold as i64));
                e.set("live_stores", JsonValue::Int(live as i64));
                e
            })
            .collect();
        out.set("datasets", JsonValue::Array(entries));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_datasets::fixtures::adult_fixture;

    fn registered() -> (Registry, Arc<Dataset>) {
        let registry = Registry::new();
        let fixture = adult_fixture(5, 60);
        let dataset = registry
            .register("adult", &fixture.csv, fixture.spec)
            .unwrap();
        (registry, dataset)
    }

    #[test]
    fn register_then_get() {
        let (registry, dataset) = registered();
        assert_eq!(dataset.n_rows(), 60);
        assert!(registry.get("adult").is_some());
        assert!(registry.get("missing").is_none());
        assert_eq!(registry.names(), vec!["adult".to_owned()]);
    }

    #[test]
    fn duplicate_name_is_refused() {
        let (registry, _) = registered();
        let fixture = adult_fixture(5, 10);
        let err = registry
            .register("adult", &fixture.csv, fixture.spec)
            .err()
            .expect("duplicate register must fail");
        assert!(err.contains("already registered"), "{err}");
    }

    #[test]
    fn store_pool_is_keyed_by_parameters() {
        let (_, dataset) = registered();
        let psens2 = ModelSpec::PSensitiveK { p: 2 };
        let (a1, warm1) = dataset.store(psens2, 3, 5);
        let (a2, warm2) = dataset.store(psens2, 3, 5);
        let (b, warm_b) = dataset.store(psens2, 4, 5);
        assert!(!warm1, "first request is a cold miss");
        assert!(warm2, "same parameters hit the warm store");
        assert!(!warm_b, "different k gets its own store");
        assert!(Arc::ptr_eq(&a1, &a2));
        assert!(!Arc::ptr_eq(&a1, &b));
        // A different model with the same numeric parameter never shares a
        // store — distinct-l(2) verdicts must not leak into psens-k(2).
        let (c, warm_c) = dataset.store(ModelSpec::DistinctL { l: 2 }, 3, 5);
        assert!(!warm_c, "different model gets its own store");
        assert!(!Arc::ptr_eq(&a1, &c));
        let (warm, cold, live) = dataset.store_counters();
        assert_eq!((warm, cold, live), (1, 3, 3));
    }

    #[test]
    fn pool_budget_evicts_lru_and_rebuilds_cold() {
        let registry = Registry::with_state(None, 1); // any pool busts 1 byte
        let fixture = adult_fixture(5, 60);
        let dataset = registry
            .register("adult", &fixture.csv, fixture.spec)
            .unwrap();
        let psens1 = ModelSpec::PSensitiveK { p: 1 };
        let (store_a, _) = registry.store_for(&dataset, psens1, 2, 0);
        store_a.record(&psens_core::NodeCheck {
            node: dataset.qi.lattice().bottom(),
            violating_tuples: 3,
            suppressed: 0,
            satisfied: false,
            stage: psens_core::CheckStage::KAnonymity,
            n_groups: None,
            detail: None,
        });
        // Touching a second pool pushes total bytes over budget; the first
        // (LRU) pool is evicted, the just-touched one survives.
        let (_store_b, _) = registry.store_for(&dataset, ModelSpec::PSensitiveK { p: 2 }, 3, 0);
        assert!(registry.evictions() >= 1);
        let (rebuilt, warm) = registry.store_for(&dataset, psens1, 2, 0);
        assert!(!warm, "evicted pool rebuilds cold");
        assert_eq!(rebuilt.len(), 0, "rebuilt store starts empty");
        // The Arc handed out before eviction still works.
        assert_eq!(store_a.len(), 1);
    }

    #[test]
    fn journal_recovery_reinterns_datasets_and_rewarms_pools() {
        let root =
            std::env::temp_dir().join(format!("psens_registry_recover_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let state = Arc::new(crate::state::StateDir::open(&root).unwrap());
        let fixture = adult_fixture(5, 60);

        let registry = Registry::with_state(Some(Arc::clone(&state)), 0);
        let dataset = registry
            .register("adult", &fixture.csv, fixture.spec.clone())
            .unwrap();
        let psens2 = ModelSpec::PSensitiveK { p: 2 };
        let (store, _) = registry.store_for(&dataset, psens2, 3, 5);
        store.record(&psens_core::NodeCheck {
            node: dataset.qi.lattice().bottom(),
            violating_tuples: 7,
            suppressed: 0,
            satisfied: false,
            stage: psens_core::CheckStage::KAnonymity,
            n_groups: Some(4),
            detail: None,
        });
        registry.write_snapshot().expect("snapshot written");

        // A fresh registry over the same state dir recovers everything.
        let rebooted = Registry::with_state(Some(state), 0);
        let stats = rebooted.recover();
        assert_eq!(
            (stats.datasets, stats.pools, stats.verdicts),
            (1, 1, 1),
            "warnings: {:?}",
            stats.warnings
        );
        let dataset = rebooted.get("adult").expect("dataset recovered");
        let (store, warm) = dataset.store(psens2, 3, 5);
        assert!(warm, "recovered pool is already live");
        assert_eq!(store.len(), 1, "snapshot verdict replayed");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn delta_replay_reconstructs_table_and_guards_stale_snapshots() {
        let root =
            std::env::temp_dir().join(format!("psens_registry_delta_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let state = Arc::new(crate::state::StateDir::open(&root).unwrap());
        let fixture = adult_fixture(5, 60);
        let registry = Registry::with_state(Some(Arc::clone(&state)), 0);
        let dataset = registry
            .register("adult", &fixture.csv, fixture.spec.clone())
            .unwrap();
        let batch = DeltaBatch {
            appends: vec![],
            deletes: vec![0, 7],
        };
        registry.apply_delta(&dataset, &batch).unwrap();
        assert_eq!((dataset.n_rows(), dataset.deltas_applied()), (58, 1));
        let psens2 = ModelSpec::PSensitiveK { p: 2 };
        let (store, _) = registry.store_for(&dataset, psens2, 3, 5);
        store.record(&psens_core::NodeCheck {
            node: dataset.qi.lattice().bottom(),
            violating_tuples: 7,
            suppressed: 0,
            satisfied: false,
            stage: psens_core::CheckStage::KAnonymity,
            n_groups: Some(4),
            detail: None,
        });
        registry.write_snapshot().expect("snapshot written");

        // Reboot: the journaled delta replays, so the table matches and the
        // snapshot verdict (written at the same delta count) is accepted.
        let rebooted = Registry::with_state(Some(Arc::clone(&state)), 0);
        let stats = rebooted.recover();
        assert_eq!(
            (stats.datasets, stats.deltas, stats.verdicts),
            (1, 1, 1),
            "warnings: {:?}",
            stats.warnings
        );
        let recovered = rebooted.get("adult").expect("dataset recovered");
        assert_eq!(recovered.n_rows(), 58);
        assert_eq!(
            recovered.table(),
            dataset.table(),
            "replayed table identical"
        );
        let (store, warm) = recovered.store(psens2, 3, 5);
        assert!(warm);
        assert_eq!(store.len(), 1);

        // One more journaled delta, then a crash (no fresh snapshot): the
        // old snapshot now describes a table one delta behind and must not
        // seed its verdicts.
        rebooted
            .apply_delta(
                &recovered,
                &DeltaBatch {
                    appends: vec![],
                    deletes: vec![3],
                },
            )
            .unwrap();
        let reboot2 = Registry::with_state(Some(state), 0);
        let stats = reboot2.recover();
        assert_eq!(stats.deltas, 2, "warnings: {:?}", stats.warnings);
        assert_eq!(stats.verdicts, 0, "stale snapshot verdicts must not replay");
        assert!(stats.warnings.iter().any(|w| w.contains("stale")));
        assert_eq!(reboot2.get("adult").unwrap().n_rows(), 57);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// An exact check at the lattice bottom; `violating` stays within ts so
    /// no closure entries muddy the length assertions.
    fn bottom_check(dataset: &Dataset, violating: usize) -> psens_core::NodeCheck {
        psens_core::NodeCheck {
            node: dataset.qi.lattice().bottom(),
            violating_tuples: violating,
            suppressed: 0,
            satisfied: false,
            stage: psens_core::CheckStage::KAnonymity,
            n_groups: Some(4),
            detail: None,
        }
    }

    #[test]
    fn apply_delta_swaps_stores_and_quarantines_stale_recordings() {
        let (registry, dataset) = registered();
        let psens2 = ModelSpec::PSensitiveK { p: 2 };
        let (store, warm, table, _stats) = registry.snapshot_with_store(&dataset, psens2, 3, 5);
        assert!(!warm);
        store.record(&bottom_check(&dataset, 3));
        assert_eq!(store.len(), 1);

        // A bare delete: no soundness argument applies (DropAll), so the
        // pool entry is swapped for a detached, emptied successor.
        let outcome = registry
            .apply_delta(&dataset, &DeltaBatch::delete_rows(vec![0]))
            .unwrap();
        assert_eq!((outcome.kept, outcome.invalidated), (0, 1));
        assert_eq!((outcome.rows, outcome.deltas_applied), (59, 1));
        assert_eq!(outcome.stats, dataset.stats(), "stats are post-batch");

        // An in-flight search that acquired the store pre-delta finishes
        // late and records a pre-delta verdict into its (now detached) Arc.
        let top = psens_hierarchy::Node(dataset.qi.lattice().max_levels().to_vec());
        store.record(&psens_core::NodeCheck {
            node: top.clone(),
            ..bottom_check(&dataset, 3)
        });
        assert_eq!(
            store.len(),
            2,
            "the detached store absorbs the stale record"
        );

        // A fresh acquisition sees the successor: same pool key (warm), a
        // different instance, and none of the stale verdicts.
        let (fresh, warm, table_after, _stats) =
            registry.snapshot_with_store(&dataset, psens2, 3, 5);
        assert!(warm, "the successor stays pooled under the same key");
        assert!(
            !Arc::ptr_eq(&store, &fresh),
            "the pre-delta Arc was detached"
        );
        assert_eq!(fresh.len(), 0, "no stale verdict reaches the new pool");
        assert!(fresh.lookup(&top, true).is_none());
        assert_eq!(table_after.n_rows(), table.n_rows() - 1);
    }

    #[test]
    fn net_zero_delta_keeps_the_pooled_store_instance() {
        let (registry, dataset) = registered();
        let psens2 = ModelSpec::PSensitiveK { p: 2 };
        let (store, _, table, _) = registry.snapshot_with_store(&dataset, psens2, 3, 5);
        store.record(&bottom_check(&dataset, 3));
        // Delete row 0 and append an identical copy: the row multiset is
        // unchanged, so pre-delta verdicts stay valid and the same Arc may
        // keep serving (and absorbing) in-flight searches.
        let batch = DeltaBatch {
            appends: vec![table.row(0).unwrap()],
            deletes: vec![0],
        };
        let outcome = registry.apply_delta(&dataset, &batch).unwrap();
        assert!(outcome.effect.net_zero);
        assert_eq!((outcome.kept, outcome.invalidated), (1, 0));
        let (same, warm, _, _) = registry.snapshot_with_store(&dataset, psens2, 3, 5);
        assert!(warm);
        assert!(Arc::ptr_eq(&store, &same), "net-zero keeps the same Arc");
        assert_eq!(same.len(), 1);
    }

    #[test]
    fn bad_csv_is_reported() {
        let registry = Registry::new();
        let fixture = adult_fixture(5, 10);
        assert!(registry
            .register("broken", "not,a,valid\nheader", fixture.spec)
            .is_err());
    }
}
