//! # psens-microdata
//!
//! In-memory columnar microdata tables — the relational substrate under the
//! `psens` p-sensitive k-anonymity library.
//!
//! The paper (Truta & Vinay, ICDE 2006) expresses its checks as SQL:
//! `GROUP BY` over the key attributes, `COUNT(*)` per group for k-anonymity,
//! `COUNT(DISTINCT S_j)` per group for p-sensitivity, and frequency sets
//! (Definition 4) for the necessary conditions. This crate implements that
//! engine from scratch:
//!
//! - [`Value`], [`Column`], [`Table`]: typed cells, dictionary-encoded
//!   categorical columns with validity bitmaps, immutable tables with cheap
//!   projection and row gathering.
//! - [`Schema`]/[`Attribute`]/[`Role`]: the paper's identifier / key /
//!   confidential attribute classification.
//! - [`GroupBy`]: exact (collision-free) grouping with per-group sizes and
//!   distinct counts.
//! - [`FrequencySet`]: Definition 4, plus descending and cumulative forms
//!   used by the paper's Condition 2.
//! - [`csv`]: RFC-4180 reader/writer, no external dependencies.
//!
//! ## Example
//!
//! ```
//! use psens_microdata::{Attribute, GroupBy, Schema, table_from_str_rows};
//!
//! // The paper's Table 1: patient microdata satisfying 2-anonymity.
//! let schema = Schema::new(vec![
//!     Attribute::int_key("Age"),
//!     Attribute::cat_key("ZipCode"),
//!     Attribute::cat_key("Sex"),
//!     Attribute::cat_confidential("Illness"),
//! ]).unwrap();
//! let table = table_from_str_rows(schema, &[
//!     &["50", "43102", "M", "Colon Cancer"],
//!     &["30", "43102", "F", "Breast Cancer"],
//!     &["30", "43102", "F", "HIV"],
//!     &["20", "43102", "M", "Diabetes"],
//!     &["20", "43102", "M", "Diabetes"],
//!     &["50", "43102", "M", "Heart Disease"],
//! ]).unwrap();
//!
//! let groups = GroupBy::compute(&table, &table.schema().key_indices());
//! assert_eq!(groups.min_group_size(), Some(2)); // 2-anonymous
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
mod builder;
mod column;
pub mod csv;
mod delta;
mod describe;
mod dictionary;
mod display;
mod error;
mod freq;
mod groupby;
pub mod hash;
pub mod json;
mod schema;
mod table;
mod threads;
mod value;

pub use bitmap::Bitmap;
pub use builder::{table_from_str_rows, TableBuilder};
pub use column::{CatColumn, Column, IntColumn};
pub use delta::{DeltaBatch, IncrementalFrequency, RowMultiset};
pub use describe::{describe, describe_column, ColumnSummary};
pub use dictionary::Dictionary;
pub use display::render;
pub use error::{Error, Result};
pub use freq::FrequencySet;
pub use groupby::{CodeCombiner, GroupBy};
pub use json::{JsonError, JsonResult, JsonValue};
pub use schema::{Attribute, Kind, Role, Schema};
pub use table::Table;
pub use threads::resolve_threads;
pub use value::Value;
