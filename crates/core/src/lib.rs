//! # psens-core
//!
//! The paper's contribution: **p-sensitive k-anonymity** (Truta & Vinay,
//! *Privacy Protection: p-Sensitive k-Anonymity Property*, ICDE 2006).
//!
//! Plain k-anonymity (Definition 1) bounds *identity* disclosure: every
//! combination of key-attribute values occurs at least `k` times, so linkage
//! identifies an individual with probability at most `1/k`. It does nothing
//! about *attribute* disclosure: a QI-group that is homogeneous in a
//! confidential attribute reveals that attribute to anyone who can place a
//! target in the group. p-sensitive k-anonymity (Definition 2) closes the
//! gap by additionally requiring every confidential attribute to take at
//! least `p` distinct values inside every QI-group.
//!
//! ## Module map
//!
//! | module | paper artifact |
//! |---|---|
//! | [`kanonymity`] | Definition 1, Figure 3's violation counts |
//! | [`psensitive`] | Definition 2, Algorithm 1 (basic check) |
//! | [`conditions`] | Conditions 1–2, Tables 5–6, Example 1 |
//! | [`checker`] | Algorithm 2 (improved check) |
//! | [`theorems`] | Theorems 1–2 (reuse of `maxP`/`maxGroups`) |
//! | [`suppress`] | tuple suppression with threshold TS |
//! | [`masking`] | generalize → suppress → check pipeline |
//! | [`evaluator`] | code-mapped node-evaluation kernel over key-only QI spaces (no table materialization) |
//! | [`observe`] | zero-cost search telemetry (per-stage timings, Tables 7–8 inputs) |
//! | [`budget`] | search budgets, cancellation, anytime [`Termination`] verdicts |
//! | [`disclosure`] | identity/attribute disclosure counts (Table 8) |
//! | [`attack`] | the record-linkage / homogeneity attack (Tables 1–2) |
//! | [`extended`] | extended p-sensitivity over confidential hierarchies (follow-up model) |
//! | [`verdict`] | shared verdict store; a k-failure condemns every descendant, for every model |
//! | [`model`] | the privacy models (p-sensitivity, l-diversity, t-closeness) as one `Copy` enum, [`ModelSpec`], plus the table-level check |
//!
//! ## Example
//!
//! ```
//! use psens_core::psensitive::{is_p_sensitive_k_anonymous, max_p_of_masked};
//! use psens_microdata::{table_from_str_rows, Attribute, Schema};
//!
//! // Paper Table 3: satisfies 3-anonymity but only 1-sensitivity — the
//! // first group has a single Income value.
//! let schema = Schema::new(vec![
//!     Attribute::int_key("Age"),
//!     Attribute::cat_key("ZipCode"),
//!     Attribute::cat_key("Sex"),
//!     Attribute::cat_confidential("Illness"),
//!     Attribute::int_confidential("Income"),
//! ]).unwrap();
//! let mm = table_from_str_rows(schema, &[
//!     &["20", "43102", "F", "AIDS", "50000"],
//!     &["20", "43102", "F", "AIDS", "50000"],
//!     &["20", "43102", "F", "Diabetes", "50000"],
//!     &["30", "43102", "M", "Diabetes", "30000"],
//!     &["30", "43102", "M", "Diabetes", "40000"],
//!     &["30", "43102", "M", "Heart Disease", "30000"],
//!     &["30", "43102", "M", "Heart Disease", "40000"],
//! ]).unwrap();
//!
//! let keys = mm.schema().key_indices();
//! let conf = mm.schema().confidential_indices();
//! assert!(is_p_sensitive_k_anonymous(&mm, &keys, &conf, 1, 3));
//! assert!(!is_p_sensitive_k_anonymous(&mm, &keys, &conf, 2, 3));
//! assert_eq!(max_p_of_masked(&mm, &keys, &conf), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod budget;
pub mod checker;
pub mod conditions;
pub mod disclosure;
pub mod evaluator;
pub mod extended;
pub mod incremental;
pub mod kanonymity;
pub mod masking;
pub mod model;
pub mod observe;
pub mod psensitive;
pub mod suppress;
pub mod theorems;
pub mod verdict;

pub use budget::{BudgetState, CancelToken, SearchBudget, Termination};
pub use checker::{check_improved, CheckStage, ImprovedCheckOutcome};
pub use conditions::{AttributeFrequencyStats, ConfidentialStats, MaxGroups};
pub use disclosure::{attribute_disclosure_count, attribute_disclosures, AttributeDisclosure};
pub use evaluator::{CacheCheck, EvalContext, NodeCheck, NodeEvaluator, VerdictSource};
pub use extended::{check_extended, extended_max_p, ConfidentialSpec, ExtendedReport};
pub use incremental::{invalidation_for, DeltaEffect, LiveTable};
pub use kanonymity::{check_k_anonymity, is_k_anonymous, max_k, KAnonymityReport};
pub use masking::{MaskOutcome, MaskingContext};
pub use model::{
    check_table_model, CodeDistribution, GroupCheckMode, GroupVerdict, ModelDetail, ModelSpec,
    TableModelReport, FIXED_POINT_SCALE,
};
pub use observe::{
    HeightTelemetry, NoopObserver, RecordingObserver, SearchObserver, StageTelemetry, Telemetry,
};
pub use psensitive::{
    check_p_sensitivity, group_profiles, is_p_sensitive_k_anonymous, max_p_of_masked, GroupProfile,
    PSensitivityReport, SensitivityViolation,
};
pub use suppress::{suppress_to_k, suppress_within_threshold, SuppressionResult};
pub use verdict::{Invalidation, InvalidationOutcome, Verdict, VerdictStore};
