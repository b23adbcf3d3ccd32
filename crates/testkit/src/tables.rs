//! Shared schemas, proptest row strategies, and table builders.
//!
//! Two families cover the integration suites:
//!
//! - the **wide** family (identifier + three keys + two confidential
//!   attributes) used by the kernel and search equivalence oracles, and
//! - the **narrow** family (two keys + one confidential attribute) used by
//!   the group-by oracle (`tests/groupby_equivalence.rs`).
//!
//! The strategies keep the exact tuple structure of the per-suite copies
//! they replaced (see the crate docs for why).

use proptest::prelude::*;
use psens_microdata::{Attribute, Schema, Table, TableBuilder, Value};

/// Keys: categorical X, integer A, categorical Y. Confidential: categorical
/// S and integer T. Plus one identifier column that every pipeline drops.
///
/// Whether Y sits inside the QI space is the caller's choice — the kernel
/// suite deliberately leaves it out (grouped at ground level by both
/// evaluation paths), the search suite puts it in as a flat hierarchy.
pub fn wide_schema() -> Schema {
    Schema::new(vec![
        Attribute::cat_identifier("Id"),
        Attribute::cat_key("X"),
        Attribute::int_key("A"),
        Attribute::cat_key("Y"),
        Attribute::cat_confidential("S"),
        Attribute::int_confidential("T"),
    ])
    .unwrap()
}

/// One random wide row: domain indices, with independent missing flags for
/// the maskable cells (X, A, S — missing must group with missing at every
/// level in every evaluation path).
pub type WideRow = (u8, bool, u8, bool, u8, u8, bool, i64);

/// Strategy for [`WideRow`]s with `y_domain` distinct Y values.
///
/// The kernel suite uses `y_domain = 3` (Y is a static key there, so an
/// extra value stresses ground grouping); the search suite uses
/// `y_domain = 2` to match its two-leaf flat Y hierarchy.
pub fn arb_wide_row(y_domain: u8) -> impl Strategy<Value = WideRow> {
    (
        0u8..4,        // X index
        any::<bool>(), // X missing?
        0u8..6,        // A value
        any::<bool>(), // A missing?
        0u8..y_domain, // Y index
        0u8..4,        // S index
        any::<bool>(), // S missing?
        0i64..3,       // T value
    )
}

/// Materializes wide rows into a [`Table`]; a maskable cell is missing iff
/// its flag is set *and* its domain index is divisible by 3 (so missing
/// stays correlated with particular domain values, not uniform noise).
pub fn build_wide_table(rows: &[WideRow]) -> Table {
    let mut builder = TableBuilder::new(wide_schema());
    for (i, &(x, x_miss, a, a_miss, y, s, s_miss, t)) in rows.iter().enumerate() {
        let x = if x_miss && x % 3 == 0 {
            Value::Missing
        } else {
            Value::Text(format!("x{x}"))
        };
        let a = if a_miss && a % 3 == 0 {
            Value::Missing
        } else {
            Value::Int(a as i64)
        };
        let s = if s_miss && s % 3 == 0 {
            Value::Missing
        } else {
            Value::Text(format!("s{s}"))
        };
        builder
            .push_row(vec![
                Value::Text(format!("id{i}")),
                x,
                a,
                Value::Text(format!("y{y}")),
                s,
                Value::Int(t),
            ])
            .unwrap();
    }
    builder.finish()
}

/// Categorical key X, integer key A, categorical confidential S; the
/// maskable cells can be missing (missing compares equal to missing).
pub fn narrow_schema() -> Schema {
    Schema::new(vec![
        Attribute::cat_key("X"),
        Attribute::int_key("A"),
        Attribute::cat_confidential("S"),
    ])
    .unwrap()
}

/// One random narrow row: `(x, a, a_missing, s, s_missing)`.
pub type NarrowRow = (u8, i64, bool, u8, bool);

/// Strategy for [`NarrowRow`]s.
pub fn arb_narrow_row() -> impl Strategy<Value = NarrowRow> {
    (
        0u8..4,        // X index
        0i64..4,       // A value
        any::<bool>(), // A missing?
        0u8..4,        // S index
        any::<bool>(), // S missing?
    )
}

/// Materializes narrow rows into a [`Table`]. Unlike the wide builder,
/// missing flags apply unconditionally, so missing cells can land on any
/// domain value, not just on selected ones.
pub fn build_narrow_table(rows: &[NarrowRow]) -> Table {
    let mut builder = TableBuilder::new(narrow_schema());
    for &(x, a, a_miss, s, s_miss) in rows {
        builder
            .push_row(vec![
                Value::Text(format!("x{x}")),
                if a_miss {
                    Value::Missing
                } else {
                    Value::Int(a)
                },
                if s_miss {
                    Value::Missing
                } else {
                    Value::Text(format!("s{s}"))
                },
            ])
            .unwrap();
    }
    builder.finish()
}
