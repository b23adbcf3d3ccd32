//! Size-parameterized Adult-shaped tables for scaling experiments.
//!
//! [`crate::AdultGenerator`] reproduces the paper's 400/4,000-tuple samples,
//! identifier column included. At the millions-of-rows scale the ROADMAP
//! targets, that identifier is pure ballast: 10M distinct `P0000042` strings
//! dominate memory while playing no privacy role (identifiers are removed
//! before masking anyway). [`ScaleGenerator`] keeps the same key and
//! confidential attributes — and the same samplers, so marginals and
//! correlations match — but drops `Id` and `FnlWgt`, leaving every
//! dictionary bounded by its attribute's small domain regardless of row
//! count.
//!
//! Generation is sequential in one seeded RNG, so
//! [`ScaleGenerator::generate`] equals the concatenation of
//! [`ScaleGenerator::chunks`] for *any* chunk size: the streaming producer
//! and the one-shot table are the same dataset, which is what lets the CLI
//! stream a 10M-row CSV to disk in bounded memory.

use crate::adult::{
    pick_weighted, sample_age, sample_capital_gain, sample_capital_loss, sample_high_pay,
    sample_marital, sample_tax_period, PAY, RACE_WEIGHTS,
};
use crate::hierarchies::{MARITAL_STATUS, RACE, SEX};
use psens_microdata::{Attribute, Schema, Table, TableBuilder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic Adult-shaped generator for large tables.
#[derive(Debug, Clone)]
pub struct ScaleGenerator {
    seed: u64,
}

impl ScaleGenerator {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        ScaleGenerator { seed }
    }

    /// The scale schema: the paper's four key attributes and four
    /// confidential attributes, nothing else.
    pub fn schema() -> Schema {
        Schema::new(vec![
            Attribute::int_key("Age"),
            Attribute::cat_key("MaritalStatus"),
            Attribute::cat_key("Race"),
            Attribute::cat_key("Sex"),
            Attribute::cat_confidential("Pay"),
            Attribute::int_confidential("CapitalGain"),
            Attribute::int_confidential("CapitalLoss"),
            Attribute::cat_confidential("TaxPeriod"),
        ])
        .expect("static schema is valid")
    }

    /// Generates `n` tuples as one table.
    pub fn generate(&self, n: usize) -> Table {
        let mut rng = self.rng();
        let mut builder = TableBuilder::new(Self::schema());
        for _ in 0..n {
            builder
                .push_row(sample_row(&mut rng))
                .expect("generated row matches schema");
        }
        builder.finish()
    }

    /// Streams `n` tuples as tables of at most `batch_rows` rows (clamped to
    /// at least 1). The concatenation of the chunks is exactly
    /// [`ScaleGenerator::generate`]`(n)` — one RNG runs through all chunks —
    /// so memory is bounded by the chunk size, not `n`.
    pub fn chunks(&self, n: usize, batch_rows: usize) -> ScaleChunks {
        ScaleChunks {
            rng: self.rng(),
            remaining: n,
            batch_rows: batch_rows.max(1),
        }
    }

    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }
}

/// Iterator of chunk tables from [`ScaleGenerator::chunks`].
#[derive(Debug)]
pub struct ScaleChunks {
    rng: StdRng,
    remaining: usize,
    batch_rows: usize,
}

impl Iterator for ScaleChunks {
    type Item = Table;

    fn next(&mut self) -> Option<Table> {
        if self.remaining == 0 {
            return None;
        }
        let rows = self.remaining.min(self.batch_rows);
        self.remaining -= rows;
        let mut builder = TableBuilder::new(ScaleGenerator::schema());
        for _ in 0..rows {
            builder
                .push_row(sample_row(&mut self.rng))
                .expect("generated row matches schema");
        }
        Some(builder.finish())
    }
}

/// One tuple of the scale dataset — the same mixture as
/// [`crate::AdultGenerator::generate`] minus the identifier and weight
/// columns (and with the same 3% outlier component planting rare key
/// combinations).
fn sample_row(rng: &mut StdRng) -> Vec<Value> {
    let outlier = rng.gen::<f64>() < 0.03;
    let (age, marital, race, sex) = if outlier {
        (
            rng.gen_range(17i64..=90),
            MARITAL_STATUS[rng.gen_range(0..MARITAL_STATUS.len())],
            RACE[rng.gen_range(0..RACE.len())],
            SEX[rng.gen_range(0..SEX.len())],
        )
    } else {
        let age = sample_age(rng);
        let marital = sample_marital(rng, age);
        let race = pick_weighted(rng, &RACE, &RACE_WEIGHTS);
        let sex = if rng.gen::<f64>() < 0.669 {
            SEX[0]
        } else {
            SEX[1]
        };
        (age, marital, race, sex)
    };
    let high_pay = sample_high_pay(rng, age, marital, sex);
    let pay = if high_pay { PAY[1] } else { PAY[0] };
    vec![
        Value::Int(age),
        Value::Text(marital.to_owned()),
        Value::Text(race.to_owned()),
        Value::Text(sex.to_owned()),
        Value::Text(pay.to_owned()),
        Value::Int(sample_capital_gain(rng, high_pay)),
        Value::Int(sample_capital_loss(rng, high_pay)),
        Value::Text(sample_tax_period(rng, high_pay).to_owned()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = ScaleGenerator::new(11).generate(500);
        let b = ScaleGenerator::new(11).generate(500);
        assert_eq!(a, b);
        assert_ne!(a, ScaleGenerator::new(12).generate(500));
    }

    #[test]
    fn chunks_concatenate_to_generate() {
        let g = ScaleGenerator::new(13);
        let whole = g.generate(257);
        for batch_rows in [1usize, 7, 64, 256, 257, 1000] {
            let mut builder = TableBuilder::new(ScaleGenerator::schema());
            for chunk in g.chunks(257, batch_rows) {
                for row in 0..chunk.n_rows() {
                    builder.push_row(chunk.row(row).unwrap()).unwrap();
                }
            }
            assert_eq!(builder.finish(), whole, "batch_rows={batch_rows}");
        }
    }

    #[test]
    fn schema_matches_paper_roles() {
        let schema = ScaleGenerator::schema();
        let keys: Vec<&str> = schema
            .key_indices()
            .iter()
            .map(|&i| schema.attribute(i).name())
            .collect();
        assert_eq!(keys, vec!["Age", "MaritalStatus", "Race", "Sex"]);
        let conf: Vec<&str> = schema
            .confidential_indices()
            .iter()
            .map(|&i| schema.attribute(i).name())
            .collect();
        assert_eq!(conf, vec!["Pay", "CapitalGain", "CapitalLoss", "TaxPeriod"]);
    }

    #[test]
    fn rows_compatible_with_adult_hierarchies() {
        let t = ScaleGenerator::new(14).generate(2000);
        let qi = crate::hierarchies::adult_qi_space();
        let node = psens_hierarchy::Node(vec![1, 1, 1, 1]);
        assert!(qi.apply(&t, &node).is_ok());
    }

    #[test]
    fn dictionaries_stay_bounded() {
        let t = ScaleGenerator::new(15).generate(10_000);
        for (i, name) in [(1usize, "MaritalStatus"), (2, "Race"), (3, "Sex")] {
            let distinct = t.column(i).n_distinct();
            assert!(distinct <= 7, "{name} has {distinct} distinct values");
        }
    }
}
