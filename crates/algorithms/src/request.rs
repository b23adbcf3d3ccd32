//! The one request every lattice search takes, and the set-up they share.
//!
//! [`crate::samarati::pk_minimal_generalization`],
//! [`crate::exhaustive::exhaustive_scan`] and
//! [`crate::levelwise::levelwise_minimal`] each have a single entry point
//! `(table, qi, &SearchRequest, &observer)`. A request names the privacy
//! model, `k` and the suppression threshold, and carries the optional knobs
//! with defaults that reproduce the paper's Algorithm 3: necessary-condition
//! pruning, no budget, one thread, no verdict store, statistics computed from
//! the table. Every search first checks that the QI space names key
//! attributes of the table only, whatever the request.

use crate::samarati::Pruning;
use crate::stats::SearchStats;
use crate::tuning::Tuning;
use psens_core::conditions::ConfidentialStats;
use psens_core::evaluator::EvalContext;
use psens_core::masking::MaskingContext;
use psens_core::{ModelSpec, SearchBudget, SearchObserver};
use psens_hierarchy::{Lattice, QiSpace};
use psens_microdata::Table;
use std::borrow::Cow;

/// What a lattice search should find and how to run it.
///
/// Build one with [`SearchRequest::new`] and override fields with struct
/// update syntax:
///
/// ```
/// use psens_algorithms::{Pruning, SearchRequest};
/// use psens_core::{ModelSpec, SearchBudget};
///
/// let req = SearchRequest {
///     pruning: Pruning::None,
///     budget: SearchBudget::unlimited().with_max_nodes(100),
///     ..SearchRequest::new(ModelSpec::PSensitiveK { p: 2 }, 3, 0)
/// };
/// assert_eq!(req.k, 3);
/// ```
#[derive(Debug, Clone)]
pub struct SearchRequest<'a> {
    /// The property every surviving QI-group must satisfy.
    /// `ModelSpec::PSensitiveK { p: 1 }` is plain k-anonymity.
    pub model: ModelSpec,
    /// Minimum QI-group size.
    pub k: u32,
    /// Suppression threshold: at most this many tuples may be removed.
    pub ts: usize,
    /// Whether Conditions 1–2 prune candidates (Algorithm 3) or every node
    /// gets the full check. Verdicts are identical either way.
    pub pruning: Pruning,
    /// Limits on the search's work; an interrupted search returns its
    /// best-so-far result labelled by its termination.
    pub budget: SearchBudget,
    /// Worker threads and verdict store.
    pub tuning: Tuning<'a>,
    /// Confidential statistics of the table, when the caller already has
    /// them (the incremental update path maintains them across deltas
    /// byte-identically to [`ConfidentialStats::compute`]). `None` computes
    /// them from the table. Statistics that do not match the table are a
    /// logic error and yield unspecified verdicts.
    pub stats: Option<&'a ConfidentialStats>,
}

impl SearchRequest<'_> {
    /// A request for `model` with `k` and `ts`: necessary-condition pruning,
    /// an unlimited budget, [`Tuning::default`] and no supplied statistics.
    pub fn new(model: ModelSpec, k: u32, ts: usize) -> Self {
        SearchRequest {
            model,
            k,
            ts,
            pruning: Pruning::NecessaryConditions,
            budget: SearchBudget::unlimited(),
            tuning: Tuning::default(),
            stats: None,
        }
    }
}

/// The set-up every lattice search repeats before its first node check.
pub(crate) struct Setup<'s> {
    pub req: &'s SearchRequest<'s>,
    pub ctx: MaskingContext<'s>,
    /// Statistics Conditions 1–2 read: the table's own under
    /// [`Pruning::NecessaryConditions`], statistics that disable both
    /// conditions under [`Pruning::None`] (the unpruned baseline runs
    /// through the same code path).
    pub check_stats: Cow<'s, ConfidentialStats>,
    pub lattice: Lattice,
}

impl<'s> Setup<'s> {
    /// Fails with [`QiSpace::check_keys`]'s error before any other work, so
    /// a search that Condition 1 settles still rejects an invalid QI space.
    pub fn new(
        initial: &'s Table,
        qi: &'s QiSpace,
        req: &'s SearchRequest<'s>,
    ) -> Result<Self, psens_hierarchy::Error> {
        qi.check_keys(initial.schema())?;
        // Every model's group verdict implies p-sensitivity at
        // `conditions_p`, which is what keeps Conditions 1–2 sound for it.
        let ctx = MaskingContext {
            initial,
            qi,
            k: req.k,
            p: req.model.conditions_p(),
            ts: req.ts,
        };
        let check_stats = match (req.pruning, req.stats) {
            (Pruning::None, _) => Cow::Owned(ConfidentialStats {
                n: initial.n_rows(),
                per_attribute: Vec::new(),
                cf: Vec::new(),
            }),
            (Pruning::NecessaryConditions, Some(stats)) => Cow::Borrowed(stats),
            (Pruning::NecessaryConditions, None) => Cow::Owned(ctx.initial_stats()),
        };
        Ok(Setup {
            req,
            ctx,
            check_stats,
            lattice: qi.lattice(),
        })
    }

    /// Whether Condition 1 proves that no node can satisfy the request.
    /// Never true without pruning.
    pub fn condition1_fails(&self) -> bool {
        !self.check_stats.condition1(self.ctx.p)
    }

    /// The run-level counters a search starts from.
    pub fn stats(&self) -> SearchStats {
        SearchStats {
            lattice_nodes: self.lattice.node_count(),
            requested_threads: self.req.tuning.threads,
            effective_threads: self.req.tuning.effective_threads(),
            ..Default::default()
        }
    }

    /// Builds the code-mapped kernel context for the request's model.
    pub fn eval_context<O: SearchObserver>(
        &self,
        observer: &O,
    ) -> Result<EvalContext, psens_hierarchy::Error> {
        Ok(EvalContext::build_observed(&self.ctx, observer)?.with_model(self.req.model))
    }
}
