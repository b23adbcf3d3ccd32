//! # psens-algorithms
//!
//! Search algorithms producing masked microdata with (p-sensitive)
//! k-anonymity:
//!
//! - [`samarati`]: Samarati's binary search for a k-minimal generalization
//!   with suppression [19], and the paper's **Algorithm 3** — the same search
//!   for a *p-k-minimal* generalization, with the two necessary conditions as
//!   an optional pruning stage (the ablation the paper's future work
//!   proposes).
//! - [`exhaustive`]: full lattice scan, serial or across scoped threads;
//!   exact set of minimal generalizations (reproduces Table 4) and per-node
//!   violation annotations (Figure 3).
//! - [`levelwise`]: bottom-up search with Incognito's rollup pruning [12];
//!   finds all minimal nodes without scanning the whole lattice.
//! - [`mondrian`]: multidimensional local-recoding baseline extended with
//!   the p-sensitivity constraint.
//! - [`pram_backend`]: greedy PRAM repair — find the k-minimal node, then
//!   re-randomise confidential cells inside failing groups instead of
//!   climbing the lattice further (diversity-style models only).
//!
//! The three lattice searches share one request type, [`SearchRequest`]:
//! each has a single entry point `(table, qi, &SearchRequest, &observer)`,
//! and each rejects a QI space that names an attribute without the `Key`
//! role. Mondrian, which does not search a lattice, takes its own config
//! plus a [`psens_core::SearchBudget`] and an observer.
//!
//! ## Example
//!
//! ```
//! use psens_algorithms::{pk_minimal_generalization, SearchRequest};
//! use psens_core::{ModelSpec, NoopObserver};
//! use psens_datasets::{hierarchies::figure2_qi_space, paper::figure3_microdata};
//!
//! let im = figure3_microdata();
//! let qi = figure2_qi_space();
//! // Algorithm 3 with its default necessary-condition pruning.
//! let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 2 }, 2, 0);
//! let outcome = pk_minimal_generalization(&im, &qi, &req, &NoopObserver).unwrap();
//! let node = outcome.node.expect("achievable");
//! let masked = outcome.masked.unwrap();
//! let keys = masked.schema().key_indices();
//! let conf = masked.schema().confidential_indices();
//! assert!(psens_core::is_p_sensitive_k_anonymous(&masked, &keys, &conf, 2, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exhaustive;
pub mod levelwise;
pub mod mondrian;
pub mod pram_backend;
mod recode;
pub mod report;
pub mod request;
pub mod samarati;
pub mod stats;
mod stratum;
pub mod tuning;

pub use exhaustive::{exhaustive_scan, ExhaustiveOutcome};
pub use levelwise::{levelwise_minimal, LevelWiseOutcome};
pub use mondrian::{mondrian_anonymize, MondrianConfig, MondrianOutcome};
pub use pram_backend::{pram_minimal_masking, PramBackendConfig, PramBackendError, PramOutcome};
pub use report::{RunReport, TerminationReport};
pub use request::SearchRequest;
pub use samarati::{
    pk_minimal_generalization, pk_minimal_generalization_model_with_stats, Pruning, SearchOutcome,
};
pub use stats::SearchStats;
pub use tuning::Tuning;
