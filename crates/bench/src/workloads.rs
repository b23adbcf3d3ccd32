//! Shared workload builders used by both the experiment runner and the
//! Criterion benches.

use psens_datasets::AdultGenerator;
use psens_microdata::{Attribute, Schema, Table, TableBuilder, Value};

/// A synthetic Adult table of `n` rows with a seed derived from `n` (so
/// benches at different scales are independent but reproducible).
pub fn adult(n: usize) -> Table {
    AdultGenerator::new(0xBE7C_0000 ^ n as u64).generate(n)
}

/// The wide 8-QI synthetic Adult table (pairs with
/// `psens_datasets::hierarchies::adult_wide_qi_space`), seed derived from
/// `n` like [`adult`].
pub fn adult_wide(n: usize) -> Table {
    AdultGenerator::new(0xBE7C_0000 ^ n as u64).generate_wide(n)
}

/// A skewed single-confidential-attribute table: value `v0` occurs with the
/// given per-mille share, the rest spread uniformly over `n_values - 1`
/// other values. Used to stress Condition 2.
pub fn skewed_confidential(n: usize, dominant_permille: u32, n_values: usize) -> Table {
    let schema = Schema::new(vec![
        Attribute::cat_key("K"),
        Attribute::cat_confidential("S"),
    ])
    .expect("valid schema");
    let mut builder = TableBuilder::new(schema);
    let dominant = (n as u64 * u64::from(dominant_permille) / 1000) as usize;
    for i in 0..n {
        let s = if i < dominant {
            "v0".to_owned()
        } else {
            format!("v{}", 1 + (i - dominant) % (n_values - 1))
        };
        builder
            .push_row(vec![Value::Text(format!("k{}", i % 97)), Value::Text(s)])
            .expect("row matches schema");
    }
    builder.finish()
}

/// The Figure 3 microdata scaled by `factor`: each tuple repeated with
/// distinct zip suffix groups preserved (tile the 10-tuple pattern).
pub fn figure3_scaled(factor: usize) -> Table {
    let base = psens_datasets::paper::figure3_microdata();
    let mut builder = TableBuilder::new(base.schema().clone());
    for _ in 0..factor {
        for row in 0..base.n_rows() {
            builder
                .push_row(base.row(row).expect("row in range"))
                .expect("row matches schema");
        }
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_microdata::FrequencySet;

    #[test]
    fn adult_workload_sizes() {
        assert_eq!(adult(123).n_rows(), 123);
        assert_eq!(adult_wide(45).n_rows(), 45);
    }

    #[test]
    fn skew_is_exact() {
        let t = skewed_confidential(1000, 900, 5);
        let fs = FrequencySet::of_attribute(&t, "S").unwrap();
        assert_eq!(fs.descending_counts()[0], 900);
        assert_eq!(fs.n_combinations(), 5);
    }

    #[test]
    fn figure3_tiles() {
        let t = figure3_scaled(3);
        assert_eq!(t.n_rows(), 30);
    }
}
