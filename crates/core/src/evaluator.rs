//! The code-mapped node-evaluation kernel: checks a lattice node end to end
//! on `u32` code vectors, without materializing a generalized table.
//!
//! [`crate::masking::MaskingContext::evaluate`] clones every column, recodes
//! cell-by-cell through string labels, and rebuilds a hash partition from
//! scratch — per node. A lattice search repeats that hundreds of times over
//! the *same* initial microdata. The kernel hoists everything node-invariant
//! into an [`EvalContext`] built once per search:
//!
//! - per-(attribute, level) generalization **code maps**
//!   ([`psens_hierarchy::QiCodeMaps`]),
//! - dense codes of key attributes outside the QI space (node-invariant),
//! - dense codes of the confidential attributes.
//!
//! Per node, a [`NodeEvaluator`] then runs the whole of Algorithm 2 —
//! Condition 1 → Condition 2 → k-anonymity → per-group
//! `COUNT(DISTINCT S_j)` — plus suppression simulation as integer passes:
//! the QI partition is a [`CodeCombiner`] refinement over mapped codes, and
//! suppression needs no row removal at all, because deleting the rows of
//! undersized groups leaves every surviving group untouched (the fact
//! [`crate::suppress::suppress_to_k`]'s doc comment records). The outcome is
//! field-for-field identical to the materializing pipeline; materialize a
//! `Table` (via `MaskingContext::evaluate`) only for the winning node.
//!
//! `EvalContext` is immutable and `Sync`: a parallel scan builds it once and
//! hands `&EvalContext` to every worker, each of which owns its own
//! (cheap, reusable) `NodeEvaluator` scratch.

use crate::budget::{BudgetState, Termination};
use crate::checker::{empty_release_fails, CheckStage};
use crate::conditions::ConfidentialStats;
use crate::masking::{MaskingContext, Result};
use crate::model::{CodeDistribution, GroupCheckMode, ModelDetail, ModelSpec, PrivacyModel};
use crate::observe::{elapsed_since, start_timer, SearchObserver};
use crate::verdict::{Verdict, VerdictStore};
use psens_hierarchy::{Error, Node, QiCodeMaps};
use psens_microdata::{CodeCombiner, Role};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Where a confidential attribute's per-row codes come from.
#[derive(Debug, Clone)]
enum ConfSource {
    /// Outside the QI space: node-invariant dense codes.
    Static(Vec<u32>, u32),
    /// Inside the QI space (index into the code maps): the column is
    /// generalized with the node, so its codes go through the level map.
    Mapped(usize),
}

/// Everything node-invariant about one (table, QI space, k, p, TS) search —
/// built once, shared (it is `Sync`) by every node check.
#[derive(Debug, Clone)]
pub struct EvalContext {
    n_rows: usize,
    k: u32,
    p: u32,
    ts: usize,
    maps: QiCodeMaps,
    /// Whether the `i`-th QI attribute has the `Key` role (participates in
    /// the QI grouping; a QI-space attribute with another role is
    /// generalized but not grouped on, matching `Schema::key_indices`).
    qi_is_key: Vec<bool>,
    /// Dense codes of key attributes outside the QI space (always grouped
    /// at ground level).
    static_keys: Vec<(Vec<u32>, u32)>,
    /// Confidential attributes, in masked-schema order.
    conf: Vec<ConfSource>,
    /// The privacy model the detailed scan enforces. Defaults to
    /// p-sensitive k-anonymity with the context's `p`, which reproduces
    /// the historical checker verdict-for-verdict; [`Self::with_model`]
    /// swaps in another model.
    model: Arc<dyn PrivacyModel>,
    /// Whole-table code distribution per confidential attribute, computed
    /// only when the model needs it (t-closeness) and only for static
    /// sources — a QI-mapped confidential column's distribution depends on
    /// the node and is tallied per check.
    globals: Vec<Option<CodeDistribution>>,
}

/// The kernel's verdict on one lattice node: the same fields as
/// [`crate::masking::MaskOutcome`] minus the materialized table, plus the
/// QI-group count Algorithm 2 reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeCheck {
    /// The node that was checked.
    pub node: Node,
    /// Tuples violating k-anonymity after generalization alone.
    pub violating_tuples: usize,
    /// Number of tuples suppression would remove (0 when not applicable).
    pub suppressed: usize,
    /// Whether the masked microdata satisfies the requested property.
    pub satisfied: bool,
    /// Stage of Algorithm 2 that settled the check.
    pub stage: CheckStage,
    /// QI-group count after suppression, when grouping was reached (`None`
    /// after a Condition 1 rejection).
    pub n_groups: Option<usize>,
    /// Model-specific payload from the detailed scan: the extremal
    /// per-group metric observed. `None` before the scan stage, for empty
    /// tables, and for distinct-count models (whose early-exit scan never
    /// learns the true minimum) — so p-sensitive verdicts are bit-for-bit
    /// what they were before models existed.
    pub detail: Option<ModelDetail>,
}

/// How [`NodeEvaluator::check_cached`] settled a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictSource {
    /// A fresh kernel check ran (and was recorded if a store was supplied).
    Fresh,
    /// An exact verdict was replayed from the shared [`VerdictStore`].
    Cached,
    /// The store inferred a k-failure from a recorded ancestor; only the
    /// satisfaction boolean is known.
    Inferred,
}

/// Outcome of a cache-aware node check: the satisfaction verdict, the full
/// [`NodeCheck`] when one exists (always for [`VerdictSource::Fresh`] and
/// [`VerdictSource::Cached`], never for [`VerdictSource::Inferred`]), and
/// where it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheCheck {
    /// Whether the node satisfies the requested property.
    pub satisfied: bool,
    /// The full check, absent only for inferred verdicts.
    pub check: Option<NodeCheck>,
    /// Provenance of the verdict; only `Fresh` consumed node budget.
    pub source: VerdictSource,
}

impl EvalContext {
    /// Precomputes the kernel inputs for `ctx`. Fails exactly where
    /// `ctx.evaluate` would fail for table/hierarchy reasons (unknown QI
    /// attribute, kind mismatch, value outside a hierarchy's domain) — so a
    /// successful build means every in-lattice node check succeeds.
    pub fn build(ctx: &MaskingContext<'_>) -> Result<EvalContext> {
        let schema = ctx.initial.schema();
        let qi_names = ctx.qi.names();
        let maps = ctx.qi.code_maps(ctx.initial)?;
        let mut qi_is_key = Vec::with_capacity(qi_names.len());
        for &name in &qi_names {
            let idx = schema.index_of(name).map_err(Error::from)?;
            qi_is_key.push(schema.attribute(idx).role() == Role::Key);
        }
        let static_keys = schema
            .key_indices()
            .into_iter()
            .filter(|&i| !qi_names.contains(&schema.attribute(i).name()))
            .map(|i| ctx.initial.column(i).dense_codes())
            .collect();
        let conf: Vec<ConfSource> = schema
            .confidential_indices()
            .into_iter()
            .map(|i| {
                let name = schema.attribute(i).name();
                match qi_names.iter().position(|&q| q == name) {
                    Some(qi_idx) => ConfSource::Mapped(qi_idx),
                    None => {
                        let (codes, n_codes) = ctx.initial.column(i).dense_codes();
                        ConfSource::Static(codes, n_codes)
                    }
                }
            })
            .collect();
        let n_conf = conf.len();
        Ok(EvalContext {
            n_rows: ctx.initial.n_rows(),
            k: ctx.k,
            p: ctx.p,
            ts: ctx.ts,
            maps,
            qi_is_key,
            static_keys,
            conf,
            model: ModelSpec::PSensitiveK { p: ctx.p }.instantiate(),
            globals: vec![None; n_conf],
        })
    }

    /// Swaps the detailed-scan model for `spec`'s checker. The context's
    /// `p` becomes the model's [`ModelSpec::conditions_p`], so Conditions
    /// 1–2 keep acting as necessary conditions for the new model, and —
    /// when the model compares distributions — the whole-table code
    /// distribution of every static confidential attribute is tallied
    /// once here.
    pub fn with_model(mut self, spec: ModelSpec) -> EvalContext {
        let model = spec.instantiate();
        self.p = model.conditions_p();
        let needs_global = matches!(
            model.mode(),
            GroupCheckMode::Histogram { needs_global: true }
        );
        self.globals = self
            .conf
            .iter()
            .map(|source| match source {
                ConfSource::Static(codes, n_codes) if needs_global => Some(
                    CodeDistribution::from_codes(codes.iter().copied(), *n_codes),
                ),
                _ => None,
            })
            .collect();
        self.model = model;
        self
    }

    /// The model the detailed scan enforces.
    pub fn model(&self) -> &Arc<dyn PrivacyModel> {
        &self.model
    }

    /// [`Self::build`], reporting the cache-build cost to `observer`. With a
    /// [`crate::observe::NoopObserver`] this monomorphizes to exactly
    /// [`Self::build`] — no timing code survives.
    pub fn build_observed<O: SearchObserver>(
        ctx: &MaskingContext<'_>,
        observer: &O,
    ) -> Result<EvalContext> {
        let timer = start_timer::<O>();
        let built = Self::build(ctx)?;
        if O::ENABLED {
            observer.cache_built(elapsed_since(timer));
        }
        Ok(built)
    }

    /// A fresh per-thread evaluator borrowing this context.
    pub fn evaluator(&self) -> NodeEvaluator<'_> {
        NodeEvaluator {
            ctx: self,
            combiner: CodeCombiner::new(),
            current: Vec::new(),
            sizes: Vec::new(),
            offsets: Vec::new(),
            cursor: Vec::new(),
            ordered: Vec::new(),
            stamp: Vec::new(),
            hist: Vec::new(),
            counts_buf: Vec::new(),
        }
    }

    /// Mirrors `QiSpace::validate_node`'s check and error.
    fn validate(&self, node: &Node) -> Result<()> {
        let m = self.maps.len();
        let ok = node.levels().len() == m
            && node
                .levels()
                .iter()
                .enumerate()
                .all(|(i, &level)| (level as usize) < self.maps.attr(i).n_levels());
        if ok {
            Ok(())
        } else {
            Err(Error::Invalid(format!(
                "node {node} is outside the {m}-attribute lattice"
            )))
        }
    }
}

/// Per-thread scratch for checking nodes against one [`EvalContext`].
/// Reuses every buffer (partition ids, group sizes, counting-sort order,
/// distinct stamps) across nodes, so steady-state checks allocate nothing.
#[derive(Debug)]
pub struct NodeEvaluator<'a> {
    ctx: &'a EvalContext,
    combiner: CodeCombiner,
    /// `current[r]`: row r's dense QI-group id.
    current: Vec<u32>,
    /// Group sizes, indexed by group id.
    sizes: Vec<u32>,
    /// Counting-sort offsets: group g's rows live at `ordered[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<usize>,
    cursor: Vec<usize>,
    /// Row indices sorted by group id (groups are contiguous blocks).
    ordered: Vec<u32>,
    /// `stamp[code] == g` ⇔ group g already counted `code` (valid because
    /// groups are scanned as contiguous blocks).
    stamp: Vec<u32>,
    /// Per-code counts of the group currently scanned (histogram-mode
    /// models only); reset lazily through `stamp`.
    hist: Vec<u32>,
    /// The current group's `(code, count)` pairs handed to
    /// [`PrivacyModel::check_group`], sorted by code.
    counts_buf: Vec<(u32, u32)>,
}

impl NodeEvaluator<'_> {
    /// Checks `node` with Algorithm 2 over codes — same verdict, stage, and
    /// counts as `MaskingContext::evaluate`, no table materialized.
    ///
    /// `stats` are the confidential statistics for the necessary conditions
    /// (initial-microdata stats per Theorems 1–2, or disabled stats for an
    /// unpruned baseline).
    pub fn check(&mut self, node: &Node, stats: &ConfidentialStats) -> Result<NodeCheck> {
        let ctx = self.ctx;
        ctx.validate(node)?;
        let n_groups = self.partition(node);

        self.sizes.clear();
        self.sizes.resize(n_groups as usize, 0);
        for &g in &self.current {
            self.sizes[g as usize] += 1;
        }
        let violating_tuples: usize = self
            .sizes
            .iter()
            .filter(|&&s| s < ctx.k)
            .map(|&s| s as usize)
            .sum();
        // Suppression drops whole undersized groups; survivors are exactly
        // the groups of size >= k, each untouched, so no re-grouping is
        // needed: post-suppression quantities read off the same partition.
        let suppression = violating_tuples > 0 && violating_tuples <= ctx.ts;
        let suppressed = if suppression { violating_tuples } else { 0 };
        let n_groups_eff = if suppression {
            self.sizes.iter().filter(|&&s| s >= ctx.k).count()
        } else {
            n_groups as usize
        };

        let check = |satisfied, stage, n_groups, detail| NodeCheck {
            node: node.clone(),
            violating_tuples,
            suppressed,
            satisfied,
            stage,
            n_groups,
            detail,
        };
        if !stats.condition1(ctx.p) {
            return Ok(check(false, CheckStage::Condition1, None, None));
        }
        if !stats.condition2(ctx.p, n_groups_eff) {
            return Ok(check(
                false,
                CheckStage::Condition2,
                Some(n_groups_eff),
                None,
            ));
        }
        // k-anonymity: after suppression the table is k-anonymous by
        // construction; otherwise any violating tuple fails the stage.
        if (!suppression && violating_tuples > 0)
            || empty_release_fails(suppressed, ctx.n_rows, ctx.p)
        {
            return Ok(check(
                false,
                CheckStage::KAnonymity,
                Some(n_groups_eff),
                None,
            ));
        }
        let (scan_ok, detail) = match ctx.model.mode() {
            GroupCheckMode::Distinct { target } => (
                self.detailed_scan_passes(node, n_groups, suppression, target),
                None,
            ),
            GroupCheckMode::Histogram { needs_global } => {
                self.histogram_scan(node, n_groups, suppression, needs_global)
            }
        };
        if !scan_ok {
            return Ok(check(
                false,
                CheckStage::DetailedScan,
                Some(n_groups_eff),
                detail,
            ));
        }
        Ok(check(true, CheckStage::Passed, Some(n_groups_eff), detail))
    }

    /// [`Self::check`], reporting the settled stage, suppression count, and
    /// wall-clock time to `observer` (keyed by the node's lattice height).
    /// With a [`crate::observe::NoopObserver`] this monomorphizes to exactly
    /// [`Self::check`].
    pub fn check_observed<O: SearchObserver>(
        &mut self,
        node: &Node,
        stats: &ConfidentialStats,
        observer: &O,
    ) -> Result<NodeCheck> {
        let timer = start_timer::<O>();
        let verdict = self.check(node, stats)?;
        if O::ENABLED {
            let height = node.levels().iter().map(|&l| l as usize).sum();
            observer.node_checked(
                height,
                verdict.stage,
                verdict.suppressed,
                elapsed_since(timer),
            );
        }
        Ok(verdict)
    }

    /// [`Self::check_observed`] under a [`BudgetState`]: asks the budget to
    /// admit the node first, and returns `Break(cause)` — *without checking
    /// the node* — once the budget has tripped. This is the searches' single
    /// budget checkpoint: the admission is one relaxed atomic op, with the
    /// clock and cancel flag polled every
    /// [`crate::budget::SearchBudget::check_interval`] nodes, so an
    /// unlimited budget stays within the kernel's 2% overhead gate
    /// (BENCH_3.json).
    pub fn check_budgeted<O: SearchObserver>(
        &mut self,
        node: &Node,
        stats: &ConfidentialStats,
        budget: &BudgetState,
        observer: &O,
    ) -> Result<ControlFlow<Termination, NodeCheck>> {
        match budget.admit() {
            Err(cause) => Ok(ControlFlow::Break(cause)),
            Ok(()) => self
                .check_observed(node, stats, observer)
                .map(ControlFlow::Continue),
        }
    }

    /// [`Self::check_budgeted`] backed by an optional shared
    /// [`VerdictStore`]. The cache is consulted *before* budget admission,
    /// so replayed and inferred verdicts never consume node budget — a
    /// fully warm store lets a search complete under a zero node budget.
    ///
    /// * An exact hit replays the stored [`NodeCheck`] and fires
    ///   [`SearchObserver::verdict_reused`] (`inferred = false`).
    /// * An inferred hit (only when `allow_inferred`; the exhaustive scans
    ///   decline because their annotations need `violating_tuples`) yields
    ///   just the satisfaction boolean and fires `verdict_reused`
    ///   (`inferred = true`).
    /// * A miss admits against the budget, runs the kernel, and records the
    ///   fresh check back into the store (upgrading an inferred entry).
    ///
    /// With `cache = None` this is exactly [`Self::check_budgeted`].
    pub fn check_cached<O: SearchObserver>(
        &mut self,
        node: &Node,
        stats: &ConfidentialStats,
        budget: &BudgetState,
        cache: Option<&VerdictStore>,
        allow_inferred: bool,
        observer: &O,
    ) -> Result<ControlFlow<Termination, CacheCheck>> {
        if let Some(store) = cache {
            match store.lookup(node, allow_inferred) {
                Some(Verdict::Exact(check)) => {
                    if O::ENABLED {
                        observer.verdict_reused(node.height(), false);
                    }
                    return Ok(ControlFlow::Continue(CacheCheck {
                        satisfied: check.satisfied,
                        check: Some(check),
                        source: VerdictSource::Cached,
                    }));
                }
                Some(inferred) => {
                    if O::ENABLED {
                        observer.verdict_reused(node.height(), true);
                    }
                    return Ok(ControlFlow::Continue(CacheCheck {
                        satisfied: inferred.satisfied(),
                        check: None,
                        source: VerdictSource::Inferred,
                    }));
                }
                None => {}
            }
        }
        match self.check_budgeted(node, stats, budget, observer)? {
            ControlFlow::Break(cause) => Ok(ControlFlow::Break(cause)),
            ControlFlow::Continue(check) => {
                if let Some(store) = cache {
                    store.record(&check);
                }
                Ok(ControlFlow::Continue(CacheCheck {
                    satisfied: check.satisfied,
                    check: Some(check),
                    source: VerdictSource::Fresh,
                }))
            }
        }
    }

    /// Refines the QI partition for `node`; returns the group count.
    fn partition(&mut self, node: &Node) -> u32 {
        let ctx = self.ctx;
        let n = ctx.n_rows;
        self.current.clear();
        self.current.resize(n, 0);
        let mut n_groups = u32::from(n > 0);
        for (i, &level) in node.levels().iter().enumerate() {
            if !ctx.qi_is_key[i] {
                continue;
            }
            let attr = ctx.maps.attr(i);
            let lm = attr.level(level as usize);
            n_groups = self.combiner.refine_mapped(
                &mut self.current,
                n_groups,
                attr.base(),
                lm.map(),
                lm.n_codes(),
            );
        }
        for (codes, n_codes) in &ctx.static_keys {
            n_groups = self
                .combiner
                .refine(&mut self.current, n_groups, codes, *n_codes);
        }
        n_groups
    }

    /// Counting sort once per node: rows ordered by group id, each group
    /// a contiguous block (the same trick as `GroupBy::distinct_per_group`,
    /// amortized over all confidential attributes).
    fn order_rows(&mut self, n_groups: u32) {
        self.offsets.clear();
        self.offsets.resize(n_groups as usize + 1, 0);
        for &g in &self.current {
            self.offsets[g as usize + 1] += 1;
        }
        for i in 1..self.offsets.len() {
            self.offsets[i] += self.offsets[i - 1];
        }
        self.cursor.clear();
        self.cursor
            .extend_from_slice(&self.offsets[..n_groups as usize]);
        self.ordered.clear();
        self.ordered.resize(self.ctx.n_rows, 0);
        for (row, &g) in self.current.iter().enumerate() {
            self.ordered[self.cursor[g as usize]] = row as u32;
            self.cursor[g as usize] += 1;
        }
    }

    /// Stage 4 for distinct-count models: per-group
    /// `COUNT(DISTINCT S_j) >= target` for every confidential attribute,
    /// over the groups surviving suppression.
    fn detailed_scan_passes(
        &mut self,
        node: &Node,
        n_groups: u32,
        suppression: bool,
        target: u32,
    ) -> bool {
        let ctx = self.ctx;
        if ctx.conf.is_empty() || n_groups == 0 {
            return true;
        }
        self.order_rows(n_groups);
        for source in &ctx.conf {
            let passes = match source {
                ConfSource::Static(codes, n_codes) => Self::attr_passes(
                    &self.ordered,
                    &self.offsets,
                    &self.sizes,
                    &mut self.stamp,
                    ctx.k,
                    target,
                    suppression,
                    *n_codes,
                    |row| codes[row],
                ),
                ConfSource::Mapped(qi_idx) => {
                    let attr = ctx.maps.attr(*qi_idx);
                    let lm = attr.level(node.levels()[*qi_idx] as usize);
                    let base = attr.base();
                    let map = lm.map();
                    Self::attr_passes(
                        &self.ordered,
                        &self.offsets,
                        &self.sizes,
                        &mut self.stamp,
                        ctx.k,
                        target,
                        suppression,
                        lm.n_codes(),
                        |row| map[base[row] as usize],
                    )
                }
            };
            if !passes {
                return false;
            }
        }
        true
    }

    /// Stage 4 for histogram models: builds each surviving group's code
    /// histogram and asks [`PrivacyModel::check_group`] for the verdict.
    /// Scans every group of an attribute (no early exit) so the folded
    /// [`ModelDetail`] is deterministic; a failing attribute still stops
    /// the remaining attributes. Returns the stage verdict plus the detail
    /// payload folded over everything scanned.
    fn histogram_scan(
        &mut self,
        node: &Node,
        n_groups: u32,
        suppression: bool,
        needs_global: bool,
    ) -> (bool, Option<ModelDetail>) {
        let ctx = self.ctx;
        if ctx.conf.is_empty() || n_groups == 0 {
            return (true, None);
        }
        self.order_rows(n_groups);
        let mut min_metric = u64::MAX;
        let mut max_metric = 0u64;
        let mut any = false;
        for (ci, source) in ctx.conf.iter().enumerate() {
            // A QI-mapped confidential column's code space depends on the
            // node's level, so its whole-table distribution is tallied
            // here; static columns were tallied once in `with_model`.
            let mapped_global: Option<CodeDistribution> = match source {
                ConfSource::Mapped(qi_idx) if needs_global => {
                    let attr = ctx.maps.attr(*qi_idx);
                    let lm = attr.level(node.levels()[*qi_idx] as usize);
                    let map = lm.map();
                    Some(CodeDistribution::from_codes(
                        attr.base().iter().map(|&b| map[b as usize]),
                        lm.n_codes(),
                    ))
                }
                _ => None,
            };
            let global = mapped_global.as_ref().or(ctx.globals[ci].as_ref());
            let passes = match source {
                ConfSource::Static(codes, n_codes) => Self::attr_histograms(
                    &self.ordered,
                    &self.offsets,
                    &self.sizes,
                    &mut self.stamp,
                    &mut self.hist,
                    &mut self.counts_buf,
                    ctx.k,
                    suppression,
                    *n_codes,
                    |row| codes[row],
                    ctx.model.as_ref(),
                    global,
                    &mut min_metric,
                    &mut max_metric,
                    &mut any,
                ),
                ConfSource::Mapped(qi_idx) => {
                    let attr = ctx.maps.attr(*qi_idx);
                    let lm = attr.level(node.levels()[*qi_idx] as usize);
                    let base = attr.base();
                    let map = lm.map();
                    Self::attr_histograms(
                        &self.ordered,
                        &self.offsets,
                        &self.sizes,
                        &mut self.stamp,
                        &mut self.hist,
                        &mut self.counts_buf,
                        ctx.k,
                        suppression,
                        lm.n_codes(),
                        |row| map[base[row] as usize],
                        ctx.model.as_ref(),
                        global,
                        &mut min_metric,
                        &mut max_metric,
                        &mut any,
                    )
                }
            };
            if !passes {
                return (
                    false,
                    any.then(|| ctx.model.node_detail(min_metric, max_metric)),
                );
            }
        }
        (
            true,
            any.then(|| ctx.model.node_detail(min_metric, max_metric)),
        )
    }

    /// Does every surviving group see at least `p` distinct codes?
    #[allow(clippy::too_many_arguments)]
    fn attr_passes(
        ordered: &[u32],
        offsets: &[usize],
        sizes: &[u32],
        stamp: &mut Vec<u32>,
        k: u32,
        p: u32,
        suppression: bool,
        n_codes: u32,
        code_of_row: impl Fn(usize) -> u32,
    ) -> bool {
        stamp.clear();
        stamp.resize(n_codes as usize, u32::MAX);
        for (g, &size) in sizes.iter().enumerate() {
            if suppression && size < k {
                continue; // group suppressed: its rows are gone
            }
            let mut distinct = 0u32;
            for &row in &ordered[offsets[g]..offsets[g + 1]] {
                let code = code_of_row(row as usize);
                if stamp[code as usize] != g as u32 {
                    stamp[code as usize] = g as u32;
                    distinct += 1;
                    if distinct >= p {
                        break; // this group already satisfies p
                    }
                }
            }
            if distinct < p {
                return false;
            }
        }
        true
    }

    /// Histogram-mode scan of one confidential attribute: per surviving
    /// group, tallies `(code, count)` pairs (codes in ascending order —
    /// the stamp doubles as a lazy reset, and the pairs are sorted before
    /// the model sees them) and folds the model's per-group metrics into
    /// `min_metric`/`max_metric`. Returns whether every group passed.
    #[allow(clippy::too_many_arguments)]
    fn attr_histograms(
        ordered: &[u32],
        offsets: &[usize],
        sizes: &[u32],
        stamp: &mut Vec<u32>,
        hist: &mut Vec<u32>,
        counts_buf: &mut Vec<(u32, u32)>,
        k: u32,
        suppression: bool,
        n_codes: u32,
        code_of_row: impl Fn(usize) -> u32,
        model: &dyn PrivacyModel,
        global: Option<&CodeDistribution>,
        min_metric: &mut u64,
        max_metric: &mut u64,
        any: &mut bool,
    ) -> bool {
        stamp.clear();
        stamp.resize(n_codes as usize, u32::MAX);
        hist.clear();
        hist.resize(n_codes as usize, 0);
        let mut all_pass = true;
        for (g, &size) in sizes.iter().enumerate() {
            if suppression && size < k {
                continue; // group suppressed: its rows are gone
            }
            counts_buf.clear();
            for &row in &ordered[offsets[g]..offsets[g + 1]] {
                let code = code_of_row(row as usize);
                if stamp[code as usize] != g as u32 {
                    stamp[code as usize] = g as u32;
                    hist[code as usize] = 0;
                    counts_buf.push((code, 0));
                }
                hist[code as usize] += 1;
            }
            counts_buf.sort_unstable_by_key(|&(code, _)| code);
            for entry in counts_buf.iter_mut() {
                entry.1 = hist[entry.0 as usize];
            }
            let verdict = model.check_group(counts_buf, size, global);
            *any = true;
            *min_metric = (*min_metric).min(verdict.metric);
            *max_metric = (*max_metric).max(verdict.metric);
            if !verdict.passes {
                all_pass = false;
            }
        }
        all_pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_hierarchy::builders::{flat_hierarchy, prefix_hierarchy};
    use psens_hierarchy::{Hierarchy, QiSpace};
    use psens_microdata::{table_from_str_rows, Attribute, Schema, Table};

    /// Figure 3's microdata with an identifier and a confidential attribute.
    fn table() -> Table {
        let schema = Schema::new(vec![
            Attribute::cat_identifier("Name"),
            Attribute::cat_key("Sex"),
            Attribute::cat_key("ZipCode"),
            Attribute::cat_confidential("Illness"),
        ])
        .unwrap();
        table_from_str_rows(
            schema,
            &[
                &["n0", "M", "41076", "Flu"],
                &["n1", "F", "41099", "HIV"],
                &["n2", "M", "41099", "Asthma"],
                &["n3", "M", "41076", "HIV"],
                &["n4", "F", "43102", "Flu"],
                &["n5", "M", "43102", "Asthma"],
                &["n6", "M", "43102", "HIV"],
                &["n7", "F", "43103", "Flu"],
                &["n8", "M", "48202", "Asthma"],
                &["n9", "M", "48201", "Flu"],
            ],
        )
        .unwrap()
    }

    fn qi() -> QiSpace {
        QiSpace::new(vec![
            ("Sex".into(), flat_hierarchy(vec!["M", "F"]).unwrap()),
            (
                "ZipCode".into(),
                Hierarchy::Cat(
                    prefix_hierarchy(
                        vec!["41076", "41099", "43102", "43103", "48201", "48202"],
                        &[2, 0],
                    )
                    .unwrap(),
                ),
            ),
        ])
        .unwrap()
    }

    /// The kernel's verdict must match the materializing pipeline on every
    /// node of the Figure 2 lattice, across (k, p, TS) settings.
    #[test]
    fn agrees_with_materializing_evaluate() {
        let t = table();
        let qi = qi();
        for k in [1u32, 2, 3, 11] {
            for p in [1u32, 2, 4] {
                for ts in [0usize, 2, 7, 10] {
                    let ctx = MaskingContext {
                        initial: &t,
                        qi: &qi,
                        k,
                        p,
                        ts,
                    };
                    let stats = ctx.initial_stats();
                    let ectx = EvalContext::build(&ctx).unwrap();
                    let mut eval = ectx.evaluator();
                    for node in qi.lattice().all_nodes() {
                        let slow = ctx.evaluate(&node, &stats).unwrap();
                        let fast = eval.check(&node, &stats).unwrap();
                        let setting = format!("k={k} p={p} ts={ts} node={node}");
                        assert_eq!(fast.satisfied, slow.satisfied, "{setting}");
                        assert_eq!(fast.stage, slow.stage, "{setting}");
                        assert_eq!(fast.suppressed, slow.suppressed, "{setting}");
                        assert_eq!(fast.violating_tuples, slow.violating_tuples, "{setting}");
                        assert_eq!(fast.n_groups, slow.n_groups, "{setting}");
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_nodes_rejected_like_apply() {
        let t = table();
        let qi = qi();
        let ctx = MaskingContext {
            initial: &t,
            qi: &qi,
            k: 2,
            p: 1,
            ts: 0,
        };
        let ectx = EvalContext::build(&ctx).unwrap();
        let stats = ctx.initial_stats();
        let mut eval = ectx.evaluator();
        assert!(eval.check(&Node(vec![9, 0]), &stats).is_err());
        assert!(eval.check(&Node(vec![0]), &stats).is_err());
        assert!(eval.check(&Node(vec![0, 0, 0]), &stats).is_err());
    }

    #[test]
    fn context_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<EvalContext>();
    }

    #[test]
    fn cached_checks_replay_exactly_and_skip_the_budget() {
        use crate::budget::SearchBudget;
        use crate::observe::NoopObserver;
        use crate::verdict::VerdictStore;

        let t = table();
        let qi = qi();
        let ctx = MaskingContext {
            initial: &t,
            qi: &qi,
            k: 2,
            p: 1,
            ts: 2,
        };
        let stats = ctx.initial_stats();
        let ectx = EvalContext::build(&ctx).unwrap();
        let mut eval = ectx.evaluator();
        let store = VerdictStore::new(&qi.lattice(), 2);

        // Warm the store with fresh checks under an unlimited budget.
        // `allow_inferred = false` so closure-inferred entries (a k-failure
        // marks its descendants) are upgraded to exact records.
        let unlimited = SearchBudget::unlimited().start();
        for node in qi.lattice().all_nodes() {
            let got = eval
                .check_cached(
                    &node,
                    &stats,
                    &unlimited,
                    Some(&store),
                    false,
                    &NoopObserver,
                )
                .unwrap();
            let ControlFlow::Continue(cc) = got else {
                panic!("unlimited budget never breaks")
            };
            assert_eq!(cc.source, VerdictSource::Fresh, "{node}");
            assert_eq!(cc.check.unwrap(), eval.check(&node, &stats).unwrap());
        }

        // A zero node budget trips immediately without the cache ...
        let zero_cold = SearchBudget::unlimited().with_max_nodes(0).start();
        let cold = eval
            .check_budgeted(&qi.lattice().bottom(), &stats, &zero_cold, &NoopObserver)
            .unwrap();
        assert!(matches!(cold, ControlFlow::Break(_)));

        // ... but the warm store answers every node without admission.
        let zero_warm = SearchBudget::unlimited().with_max_nodes(0).start();
        for node in qi.lattice().all_nodes() {
            let got = eval
                .check_cached(&node, &stats, &zero_warm, Some(&store), true, &NoopObserver)
                .unwrap();
            let ControlFlow::Continue(cc) = got else {
                panic!("warm store must bypass the tripped budget at {node}")
            };
            assert_eq!(cc.source, VerdictSource::Cached, "{node}");
            assert_eq!(cc.check.unwrap(), eval.check(&node, &stats).unwrap());
        }
    }

    #[test]
    fn model_kernel_agrees_with_table_level_check() {
        use crate::model::{check_table_model, ModelSpec};

        let t = table();
        let qi = qi();
        let specs = [
            ModelSpec::PSensitiveK { p: 2 },
            ModelSpec::DistinctL { l: 2 },
            ModelSpec::EntropyL { l: 2 },
            ModelSpec::TCloseness { t_ppm: 350_000 },
        ];
        for spec in specs {
            for k in [1u32, 2, 3] {
                let ctx = MaskingContext {
                    initial: &t,
                    qi: &qi,
                    k,
                    p: spec.conditions_p(),
                    ts: 0,
                };
                let stats = ctx.initial_stats();
                let ectx = EvalContext::build(&ctx).unwrap().with_model(spec);
                let mut eval = ectx.evaluator();
                for node in qi.lattice().all_nodes() {
                    let fast = eval.check(&node, &stats).unwrap();
                    // Materialize the generalized table (ts = 0: no
                    // suppression) and run the slow table-level oracle.
                    let masked = qi.apply(&t, &node).unwrap().drop_identifiers();
                    let slow = check_table_model(
                        &masked,
                        &masked.schema().key_indices(),
                        &masked.schema().confidential_indices(),
                        spec.instantiate().as_ref(),
                        k,
                    );
                    assert_eq!(
                        fast.satisfied,
                        slow.satisfied(),
                        "{} k={k} node={node}",
                        spec.describe()
                    );
                }
            }
        }
    }

    #[test]
    fn empty_table_passes_vacuously() {
        let t = table().filter(|_| false);
        let qi = qi();
        let ctx = MaskingContext {
            initial: &t,
            qi: &qi,
            k: 3,
            p: 1,
            ts: 0,
        };
        let stats = ctx.initial_stats();
        let ectx = EvalContext::build(&ctx).unwrap();
        let mut eval = ectx.evaluator();
        let slow = ctx.evaluate(&Node(vec![0, 0]), &stats).unwrap();
        let fast = eval.check(&Node(vec![0, 0]), &stats).unwrap();
        assert_eq!(fast.satisfied, slow.satisfied);
        assert_eq!(fast.stage, slow.stage);
    }
}
