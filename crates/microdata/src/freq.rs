//! Frequency sets (paper Definition 4) and their descending/cumulative forms.
//!
//! > *Given a microdata M (initial or masked), and a set of attributes SA of
//! > M, the frequency set of M with respect to SA is a mapping from each
//! > unique combination of values of SA to the total number of tuples in M
//! > with these values of SA.*
//!
//! Condition 2 of the paper consumes the *descending ordered frequency set*
//! `f_i^j` of each confidential attribute and its cumulative form `cf_i^j`
//! (Tables 5 and 6); both are provided here.

use crate::groupby::GroupBy;
use crate::table::Table;
use crate::value::Value;

/// The frequency set of a table with respect to an attribute subset.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencySet {
    keys: Vec<Vec<Value>>,
    counts: Vec<usize>,
    total: usize,
}

impl FrequencySet {
    /// Computes the frequency set of `table` w.r.t. the attributes at `by`.
    pub fn of(table: &Table, by: &[usize]) -> FrequencySet {
        let gb = GroupBy::compute(table, by);
        let keys = (0..gb.n_groups())
            .map(|g| gb.key_of_group(table, g))
            .collect();
        let counts: Vec<usize> = gb.sizes().iter().map(|&s| s as usize).collect();
        FrequencySet {
            keys,
            counts,
            total: table.n_rows(),
        }
    }

    /// Computes the frequency set of a single named attribute.
    pub fn of_attribute(table: &Table, name: &str) -> crate::error::Result<FrequencySet> {
        let idx = table.schema().index_of(name)?;
        Ok(FrequencySet::of(table, &[idx]))
    }

    /// Number of distinct value combinations (the paper's `s_j` when the
    /// subset is a single confidential attribute).
    pub fn n_combinations(&self) -> usize {
        self.counts.len()
    }

    /// Total number of tuples counted (the paper's `n`).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Iterates `(combination, count)` pairs in first-appearance order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], usize)> {
        self.keys
            .iter()
            .map(Vec::as_slice)
            .zip(self.counts.iter().copied())
    }

    /// Count of a specific combination, or 0 when absent.
    pub fn count_of(&self, key: &[Value]) -> usize {
        self.keys
            .iter()
            .position(|k| k.as_slice() == key)
            .map_or(0, |i| self.counts[i])
    }

    /// Frequencies sorted descending: the paper's `f_1 >= f_2 >= ... >= f_s`.
    pub fn descending_counts(&self) -> Vec<usize> {
        let mut counts = self.counts.clone();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    }

    /// Cumulative descending frequencies: the paper's `cf_i = f_1 + .. + f_i`
    /// (Table 6). `cumulative[i-1]` is `cf_i`; the last entry equals `n`.
    pub fn cumulative_descending(&self) -> Vec<usize> {
        let mut cumulative = self.descending_counts();
        for i in 1..cumulative.len() {
            cumulative[i] += cumulative[i - 1];
        }
        cumulative
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::table_from_str_rows;
    use crate::schema::{Attribute, Schema};

    fn illness_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::cat_key("Sex"),
            Attribute::cat_confidential("Illness"),
        ])
        .unwrap();
        table_from_str_rows(
            schema,
            &[
                &["M", "Diabetes"],
                &["F", "Diabetes"],
                &["M", "Diabetes"],
                &["F", "HIV"],
                &["M", "AIDS"],
                &["M", "Diabetes"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn single_attribute_frequencies() {
        let t = illness_table();
        let fs = FrequencySet::of_attribute(&t, "Illness").unwrap();
        assert_eq!(fs.n_combinations(), 3);
        assert_eq!(fs.total(), 6);
        assert_eq!(fs.count_of(&[Value::Text("Diabetes".into())]), 4);
        assert_eq!(fs.count_of(&[Value::Text("HIV".into())]), 1);
        assert_eq!(fs.count_of(&[Value::Text("Leprosy".into())]), 0);
    }

    #[test]
    fn descending_and_cumulative() {
        let t = illness_table();
        let fs = FrequencySet::of_attribute(&t, "Illness").unwrap();
        assert_eq!(fs.descending_counts(), vec![4, 1, 1]);
        assert_eq!(fs.cumulative_descending(), vec![4, 5, 6]);
    }

    #[test]
    fn multi_attribute_combinations() {
        let t = illness_table();
        let fs = FrequencySet::of(&t, &[0, 1]);
        assert_eq!(fs.n_combinations(), 4); // (M,Diab) (F,Diab) (F,HIV) (M,AIDS)
        assert_eq!(
            fs.count_of(&[Value::Text("M".into()), Value::Text("Diabetes".into())]),
            3
        );
        let sum: usize = fs.iter().map(|(_, c)| c).sum();
        assert_eq!(sum, t.n_rows());
    }

    #[test]
    fn cumulative_last_entry_is_n() {
        let t = illness_table();
        for by in [vec![0usize], vec![1], vec![0, 1]] {
            let fs = FrequencySet::of(&t, &by);
            assert_eq!(*fs.cumulative_descending().last().unwrap(), t.n_rows());
        }
    }

    #[test]
    fn empty_table() {
        let t = illness_table().filter(|_| false);
        let fs = FrequencySet::of(&t, &[1]);
        assert_eq!(fs.n_combinations(), 0);
        assert_eq!(fs.total(), 0);
        assert!(fs.descending_counts().is_empty());
        assert!(fs.cumulative_descending().is_empty());
    }
}
