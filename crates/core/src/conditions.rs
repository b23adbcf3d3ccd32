//! The two necessary conditions for p-sensitive k-anonymity
//! (paper Conditions 1 and 2, Tables 5 and 6).
//!
//! Both conditions depend only on the confidential attributes, which
//! full-domain generalization never touches, so they can be computed once on
//! the initial microdata and reused across every candidate masking (Theorems
//! 1 and 2 extend the reuse to suppression).

use psens_microdata::{FrequencySet, Table};
use serde::Serialize;

/// Frequency statistics of one confidential attribute `S_j`:
/// `s_j`, the descending frequencies `f_i^j`, and their cumulative sums
/// `cf_i^j` (one row of the paper's Tables 5 and 6).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AttributeFrequencyStats {
    /// Index of the attribute in the table's schema.
    pub attribute: usize,
    /// Attribute name.
    pub name: String,
    /// Number of distinct values (`s_j`).
    pub s: usize,
    /// Descending ordered frequencies (`f_1^j >= f_2^j >= ...`).
    pub descending: Vec<usize>,
    /// Cumulative descending frequencies (`cf_i^j = f_1^j + ... + f_i^j`).
    pub cumulative: Vec<usize>,
}

/// Bound on the number of QI-groups returned by Condition 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MaxGroups {
    /// `p` exceeds Condition 1's `maxP`: no masking can satisfy it.
    Unsatisfiable,
    /// No constraint (`p <= 1`, or there are no confidential attributes).
    Unbounded,
    /// At most this many distinct key-attribute combinations are allowed.
    Bounded(usize),
}

impl MaxGroups {
    /// True when a masking with `n_groups` QI-groups passes this bound.
    pub fn admits(&self, n_groups: usize) -> bool {
        match self {
            MaxGroups::Unsatisfiable => false,
            MaxGroups::Unbounded => true,
            MaxGroups::Bounded(limit) => n_groups <= *limit,
        }
    }
}

/// Frequency statistics of all confidential attributes, plus the combined
/// `cf_i = max_j cf_i^j` sequence (last row of the paper's Table 6).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ConfidentialStats {
    /// Number of tuples (`n`).
    pub n: usize,
    /// Per-attribute statistics, in the order the attributes were given.
    pub per_attribute: Vec<AttributeFrequencyStats>,
    /// `cf_i` for `i = 1..=maxP` (`cf[i-1]` is `cf_i`).
    pub cf: Vec<usize>,
}

impl AttributeFrequencyStats {
    /// Builds one attribute's statistics from its descending-ordered
    /// frequencies. Every other field (`s`, `cumulative`) is a pure function
    /// of that sequence, so any producer that reproduces the descending
    /// counts byte-for-byte — `FrequencySet` or the incremental
    /// hash-multiset tracker — yields `==` statistics by construction.
    pub fn from_descending(
        attribute: usize,
        name: String,
        descending: Vec<usize>,
    ) -> AttributeFrequencyStats {
        let cumulative = descending
            .iter()
            .scan(0usize, |acc, &f| {
                *acc += f;
                Some(*acc)
            })
            .collect();
        AttributeFrequencyStats {
            attribute,
            name,
            s: descending.len(),
            descending,
            cumulative,
        }
    }
}

impl ConfidentialStats {
    /// Assembles the combined statistics from per-attribute rows: `cf_i =
    /// max_j cf_i^j` for `i = 1..=maxP`. The single seam every computation
    /// path (serial, incremental) funnels through.
    pub fn assemble(n: usize, per_attribute: Vec<AttributeFrequencyStats>) -> ConfidentialStats {
        let max_p = per_attribute.iter().map(|a| a.s).min().unwrap_or(0);
        let cf = (0..max_p)
            .map(|i| {
                per_attribute
                    .iter()
                    .map(|a| a.cumulative[i])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        ConfidentialStats {
            n,
            per_attribute,
            cf,
        }
    }

    /// Computes the statistics of `table`'s attributes at `confidential`.
    pub fn compute(table: &Table, confidential: &[usize]) -> ConfidentialStats {
        let per_attribute = confidential
            .iter()
            .map(|&attr| {
                let fs = FrequencySet::of(table, &[attr]);
                AttributeFrequencyStats::from_descending(
                    attr,
                    table.schema().attribute(attr).name().to_owned(),
                    fs.descending_counts(),
                )
            })
            .collect();
        ConfidentialStats::assemble(table.n_rows(), per_attribute)
    }

    /// **Condition 1**: the largest `p` any masking of this microdata can
    /// satisfy — `maxP = min_j s_j`.
    ///
    /// With no confidential attributes the sensitivity requirement is vacuous
    /// and `usize::MAX` is returned.
    pub fn max_p(&self) -> usize {
        self.per_attribute
            .iter()
            .map(|a| a.s)
            .min()
            .unwrap_or(usize::MAX)
    }

    /// True when Condition 1 admits `p`.
    pub fn condition1(&self, p: u32) -> bool {
        (p as usize) <= self.max_p()
    }

    /// **Condition 2**: the maximum allowed number of key-attribute value
    /// combinations, `maxGroups = min_{i=1..p-1} floor((n - cf_{p-i}) / i)`.
    ///
    /// Rationale (paper Example 1): to give every group `p` distinct values
    /// of attribute `S_j`, the tuples *outside* the `p - i` most frequent
    /// values must contribute at least `i` tuples to every group.
    pub fn max_groups(&self, p: u32) -> MaxGroups {
        if self.per_attribute.is_empty() || p <= 1 {
            return MaxGroups::Unbounded;
        }
        let p = p as usize;
        if p > self.max_p() {
            return MaxGroups::Unsatisfiable;
        }
        let bound = (1..p)
            .map(|i| (self.n - self.cf[p - i - 1]) / i)
            .min()
            .expect("p >= 2 yields at least one term");
        MaxGroups::Bounded(bound)
    }

    /// True when Condition 2 admits a masking with `n_groups` QI-groups at
    /// sensitivity `p`.
    pub fn condition2(&self, p: u32, n_groups: usize) -> bool {
        self.max_groups(p).admits(n_groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_microdata::{Attribute, Schema, TableBuilder, Value};

    /// Builds the paper's Example 1: 1,000 tuples, three confidential
    /// attributes with the exact frequencies of Table 5. Key attributes are
    /// irrelevant to the conditions, so a single constant key is used.
    fn example1() -> Table {
        let schema = Schema::new(vec![
            Attribute::cat_key("K1"),
            Attribute::cat_confidential("S1"),
            Attribute::cat_confidential("S2"),
            Attribute::cat_confidential("S3"),
        ])
        .unwrap();
        let f1: &[usize] = &[300, 300, 200, 100, 100];
        let f2: &[usize] = &[500, 300, 100, 40, 35, 25];
        let f3: &[usize] = &[700, 200, 50, 10, 10, 10, 10, 5, 3, 2];
        let expand = |freqs: &[usize]| -> Vec<String> {
            freqs
                .iter()
                .enumerate()
                .flat_map(|(v, &count)| std::iter::repeat_n(format!("v{v}"), count))
                .collect()
        };
        let (c1, c2, c3) = (expand(f1), expand(f2), expand(f3));
        let mut builder = TableBuilder::new(schema);
        for i in 0..1000 {
            builder
                .push_row(vec![
                    Value::Text("k".into()),
                    Value::Text(c1[i].clone()),
                    Value::Text(c2[i].clone()),
                    Value::Text(c3[i].clone()),
                ])
                .unwrap();
        }
        builder.finish()
    }

    #[test]
    fn table5_frequencies_match() {
        let t = example1();
        let stats = ConfidentialStats::compute(&t, &[1, 2, 3]);
        assert_eq!(stats.n, 1000);
        assert_eq!(stats.per_attribute[0].s, 5);
        assert_eq!(stats.per_attribute[1].s, 6);
        assert_eq!(stats.per_attribute[2].s, 10);
        assert_eq!(
            stats.per_attribute[0].descending,
            vec![300, 300, 200, 100, 100]
        );
        assert_eq!(
            stats.per_attribute[1].descending,
            vec![500, 300, 100, 40, 35, 25]
        );
        assert_eq!(
            stats.per_attribute[2].descending,
            vec![700, 200, 50, 10, 10, 10, 10, 5, 3, 2]
        );
    }

    #[test]
    fn table6_cumulative_match() {
        let t = example1();
        let stats = ConfidentialStats::compute(&t, &[1, 2, 3]);
        assert_eq!(
            stats.per_attribute[0].cumulative,
            vec![300, 600, 800, 900, 1000]
        );
        assert_eq!(
            stats.per_attribute[1].cumulative,
            vec![500, 800, 900, 940, 975, 1000]
        );
        assert_eq!(
            stats.per_attribute[2].cumulative,
            vec![700, 900, 950, 960, 970, 980, 990, 995, 998, 1000]
        );
        // The combined row: cf_i = max_j cf_i^j for i = 1..=maxP = 5.
        assert_eq!(stats.cf, vec![700, 900, 950, 960, 1000]);
    }

    #[test]
    fn condition1_max_p() {
        let t = example1();
        let stats = ConfidentialStats::compute(&t, &[1, 2, 3]);
        assert_eq!(stats.max_p(), 5);
        assert!(stats.condition1(5));
        assert!(!stats.condition1(6));
    }

    #[test]
    fn condition2_matches_example1_walkthrough() {
        let t = example1();
        let stats = ConfidentialStats::compute(&t, &[1, 2, 3]);
        // "For p = 2 there are at most 300 groups allowed."
        assert_eq!(stats.max_groups(2), MaxGroups::Bounded(300));
        // "When p = 3, the maximum allowed number of groups is 100."
        assert_eq!(stats.max_groups(3), MaxGroups::Bounded(100));
        // "when p = 4 the number of groups is at most 50."
        assert_eq!(stats.max_groups(4), MaxGroups::Bounded(50));
        // "Therefore the maximum number of groups is only 25." (p = 5)
        assert_eq!(stats.max_groups(5), MaxGroups::Bounded(25));
        // p beyond maxP is unsatisfiable.
        assert_eq!(stats.max_groups(6), MaxGroups::Unsatisfiable);
        // p = 1 imposes no bound.
        assert_eq!(stats.max_groups(1), MaxGroups::Unbounded);
    }

    #[test]
    fn condition2_admission() {
        let t = example1();
        let stats = ConfidentialStats::compute(&t, &[1, 2, 3]);
        assert!(stats.condition2(5, 25));
        assert!(!stats.condition2(5, 26));
        assert!(stats.condition2(2, 300));
        assert!(!stats.condition2(2, 301));
        assert!(MaxGroups::Unbounded.admits(usize::MAX));
        assert!(!MaxGroups::Unsatisfiable.admits(0));
    }

    #[test]
    fn single_confidential_attribute_example() {
        // The motivating example before Definition 4: S with frequencies
        // 900, 90, 5, 3, 2 and n = 1000; for p = 3 at most... the text says
        // 11 or more groups can never work, i.e. the bound is at most 10.
        let schema = Schema::new(vec![
            Attribute::cat_key("K"),
            Attribute::cat_confidential("S"),
        ])
        .unwrap();
        let mut builder = TableBuilder::new(schema);
        for (v, count) in [900usize, 90, 5, 3, 2].iter().enumerate() {
            for _ in 0..*count {
                builder
                    .push_row(vec![Value::Text("k".into()), Value::Text(format!("v{v}"))])
                    .unwrap();
            }
        }
        let t = builder.finish();
        let stats = ConfidentialStats::compute(&t, &[1]);
        assert_eq!(stats.max_p(), 5);
        let MaxGroups::Bounded(bound) = stats.max_groups(3) else {
            panic!("expected a bound");
        };
        assert!(bound <= 10, "bound {bound} must forbid 11+ groups");
        // Exact value: min((1000-990)/1, (1000-900)/2) = min(10, 50) = 10.
        assert_eq!(bound, 10);
    }

    #[test]
    fn no_confidential_attributes_is_unbounded() {
        let t = example1();
        let stats = ConfidentialStats::compute(&t, &[]);
        assert_eq!(stats.max_p(), usize::MAX);
        assert_eq!(stats.max_groups(5), MaxGroups::Unbounded);
        assert!(stats.condition1(u32::MAX));
    }

    #[test]
    fn uniform_attribute_bound() {
        // A confidential attribute with 4 equally frequent values (25 each,
        // n = 100): for p = 2 the bound is n - cf_1 = 75.
        let schema = Schema::new(vec![Attribute::cat_confidential("S")]).unwrap();
        let mut builder = TableBuilder::new(schema);
        for v in 0..4 {
            for _ in 0..25 {
                builder
                    .push_row(vec![Value::Text(format!("v{v}"))])
                    .unwrap();
            }
        }
        let t = builder.finish();
        let stats = ConfidentialStats::compute(&t, &[0]);
        assert_eq!(stats.max_groups(2), MaxGroups::Bounded(75));
        assert_eq!(stats.max_groups(4), MaxGroups::Bounded(25));
    }
}
