//! # psens — p-Sensitive k-Anonymity in Rust
//!
//! A from-scratch reproduction of Truta & Vinay, *"Privacy Protection:
//! p-Sensitive k-Anonymity Property"* (ICDE 2006 Workshops), as a
//! production-quality library: an in-memory columnar microdata engine,
//! generalization hierarchies and lattices, the p-sensitive k-anonymity
//! property with its two necessary conditions, search algorithms
//! (Samarati binary search / Algorithm 3, Incognito-style level-wise,
//! exhaustive, Mondrian), utility/risk metrics, and the paper's datasets.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! names and offers a [`prelude`].
//!
//! ## Quickstart
//!
//! ```
//! use psens::prelude::*;
//!
//! // Initial microdata: Figure 3 of the paper.
//! let im = psens::datasets::paper::figure3_microdata();
//! // Hierarchies for Sex and ZipCode (Figure 1) spanning Figure 2's lattice.
//! let qi = psens::datasets::hierarchies::figure2_qi_space();
//!
//! // Find a 2-sensitive 2-anonymous masking with no suppression, with
//! // Algorithm 3's default necessary-condition pruning.
//! let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 2 }, 2, 0);
//! let outcome = pk_minimal_generalization(&im, &qi, &req, &NoopObserver).unwrap();
//! let masked = outcome.masked.expect("achievable");
//!
//! let keys = masked.schema().key_indices();
//! let conf = masked.schema().confidential_indices();
//! assert!(is_p_sensitive_k_anonymous(&masked, &keys, &conf, 2, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use psens_algorithms as algorithms;
pub use psens_core as core;
pub use psens_datasets as datasets;
pub use psens_hierarchy as hierarchy;
pub use psens_methods as methods;
pub use psens_metrics as metrics;
pub use psens_microdata as microdata;
pub use psens_sql as sql;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use psens_algorithms::{
        exhaustive_scan, levelwise_minimal, mondrian_anonymize, pk_minimal_generalization,
        MondrianConfig, Pruning, SearchRequest, Tuning,
    };
    pub use psens_core::{
        attribute_disclosure_count, check_improved, check_k_anonymity, check_p_sensitivity,
        is_k_anonymous, is_p_sensitive_k_anonymous, max_k, max_p_of_masked, ConfidentialStats,
        MaskingContext, MaxGroups, ModelSpec, NoopObserver, SearchBudget,
    };
    pub use psens_hierarchy::{builders, Hierarchy, Lattice, Node, QiSpace};
    pub use psens_metrics::{avg_class_size, discernibility, identity_risk, precision};
    pub use psens_microdata::{
        table_from_str_rows, Attribute, Column, FrequencySet, GroupBy, Kind, Role, Schema, Table,
        TableBuilder, Value,
    };
}
