//! Columnar storage: integer and dictionary-encoded categorical columns.

use crate::bitmap::Bitmap;
use crate::dictionary::Dictionary;
use crate::hash::FxHashMap;
use crate::value::Value;

/// An integer column with a validity bitmap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntColumn {
    values: Vec<i64>,
    validity: Bitmap,
}

impl IntColumn {
    /// Creates an empty integer column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a column from present values.
    pub fn from_values<I: IntoIterator<Item = i64>>(values: I) -> Self {
        let values: Vec<i64> = values.into_iter().collect();
        let validity = Bitmap::filled(values.len(), true);
        IntColumn { values, validity }
    }

    /// Appends a present value.
    pub fn push(&mut self, value: i64) {
        self.values.push(value);
        self.validity.push(true);
    }

    /// Appends a missing cell.
    pub fn push_missing(&mut self) {
        self.values.push(0);
        self.validity.push(false);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Reads row `row`, `None` for missing.
    pub fn get(&self, row: usize) -> Option<i64> {
        self.validity.get(row).then(|| self.values[row])
    }

    /// Iterates rows as `Option<i64>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<i64>> + '_ {
        (0..self.len()).map(move |row| self.get(row))
    }

    /// Raw value slice; missing rows hold an unspecified placeholder.
    pub fn raw_values(&self) -> &[i64] {
        &self.values
    }

    /// Validity bitmap.
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }
}

/// A categorical column: `u32` codes into a per-column [`Dictionary`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CatColumn {
    dict: Dictionary,
    codes: Vec<u32>,
    validity: Bitmap,
}

impl CatColumn {
    /// Creates an empty categorical column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a column from present string values.
    pub fn from_values<I, S>(values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut col = CatColumn::new();
        for v in values {
            col.push(v.as_ref());
        }
        col
    }

    /// Creates a column reusing an existing dictionary and raw codes.
    ///
    /// Used by generalization, which recodes leaf codes into ancestor codes.
    ///
    /// # Panics
    /// Panics when any code is out of range for `dict`.
    pub fn from_codes(dict: Dictionary, codes: Vec<u32>) -> Self {
        for &code in &codes {
            assert!(
                (code as usize) < dict.len(),
                "code {code} out of range for dictionary of {}",
                dict.len()
            );
        }
        let validity = Bitmap::filled(codes.len(), true);
        CatColumn {
            dict,
            codes,
            validity,
        }
    }

    /// Appends a present value, interning it.
    pub fn push(&mut self, text: &str) {
        let code = self.dict.intern(text);
        self.codes.push(code);
        self.validity.push(true);
    }

    /// Appends a missing cell.
    pub fn push_missing(&mut self) {
        self.codes.push(0);
        self.validity.push(false);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Reads row `row` as text, `None` for missing.
    pub fn get(&self, row: usize) -> Option<&str> {
        self.validity
            .get(row)
            .then(|| self.dict.text(self.codes[row]).expect("valid code"))
    }

    /// Reads the raw dictionary code at `row`, `None` for missing.
    pub fn code_at(&self, row: usize) -> Option<u32> {
        self.validity.get(row).then(|| self.codes[row])
    }

    /// The column's dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Raw code slice; missing rows hold an unspecified placeholder.
    pub fn raw_codes(&self) -> &[u32] {
        &self.codes
    }

    /// Validity bitmap.
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// Iterates rows as `Option<&str>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        (0..self.len()).map(move |row| self.get(row))
    }
}

/// A column of either kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Column {
    /// Integer data.
    Int(IntColumn),
    /// Categorical data.
    Cat(CatColumn),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(c) => c.len(),
            Column::Cat(c) => c.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads a cell as a [`Value`].
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(c) => c.get(row).map_or(Value::Missing, Value::Int),
            Column::Cat(c) => c
                .get(row)
                .map_or(Value::Missing, |s| Value::Text(s.to_owned())),
        }
    }

    /// Number of rows with missing cells.
    pub fn missing_count(&self) -> usize {
        let validity = match self {
            Column::Int(c) => c.validity(),
            Column::Cat(c) => c.validity(),
        };
        validity.len() - validity.count_ones()
    }

    /// Computes dense group codes for this column.
    ///
    /// Returns `(codes, n_distinct)` where each present value maps to a dense
    /// code in `0..n_distinct` assigned in first-occurrence order and, when
    /// missing cells exist, they share the final code `n_distinct - 1`.
    /// Two rows receive equal codes iff their cells are equal (missing cells
    /// compare equal to each other).
    pub fn dense_codes(&self) -> (Vec<u32>, u32) {
        match self {
            Column::Int(c) => {
                let mut map: FxHashMap<i64, u32> = FxHashMap::default();
                let mut codes = Vec::with_capacity(c.len());
                let mut missing_code: Option<u32> = None;
                let mut next = 0u32;
                for row in 0..c.len() {
                    let code = match c.get(row) {
                        Some(v) => *map.entry(v).or_insert_with(|| {
                            let code = next;
                            next += 1;
                            code
                        }),
                        None => *missing_code.get_or_insert_with(|| {
                            let code = next;
                            next += 1;
                            code
                        }),
                    };
                    codes.push(code);
                }
                (codes, next)
            }
            Column::Cat(c) => {
                // Dictionary codes are already dense over interned entries but
                // may include entries with zero occurrences after recoding, so
                // re-densify to keep `n_distinct` exact.
                let mut map: FxHashMap<u32, u32> = FxHashMap::default();
                let mut codes = Vec::with_capacity(c.len());
                let mut missing_code: Option<u32> = None;
                let mut next = 0u32;
                for row in 0..c.len() {
                    let code = match c.code_at(row) {
                        Some(raw) => *map.entry(raw).or_insert_with(|| {
                            let code = next;
                            next += 1;
                            code
                        }),
                        None => *missing_code.get_or_insert_with(|| {
                            let code = next;
                            next += 1;
                            code
                        }),
                    };
                    codes.push(code);
                }
                (codes, next)
            }
        }
    }

    /// Number of distinct values in the column; missing cells count as one
    /// shared value when present.
    pub fn n_distinct(&self) -> usize {
        self.dense_codes().1 as usize
    }

    /// Builds a copy of the column with the cells at `rows` blanked to
    /// missing — the primitive under cell-level (local) suppression.
    ///
    /// # Panics
    /// Panics when a row index is out of bounds.
    pub fn with_missing(&self, rows: &[usize]) -> Column {
        let mut out = self.clone();
        match &mut out {
            Column::Int(c) => {
                for &row in rows {
                    c.validity.set(row, false);
                }
            }
            Column::Cat(c) => {
                for &row in rows {
                    c.validity.set(row, false);
                }
            }
        }
        out
    }

    /// Builds a new column selecting `indices` rows, in order.
    pub fn gather(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int(c) => {
                let mut out = IntColumn::new();
                for &i in indices {
                    match c.get(i) {
                        Some(v) => out.push(v),
                        None => out.push_missing(),
                    }
                }
                Column::Int(out)
            }
            Column::Cat(c) => {
                // Reuse the dictionary; only codes are gathered.
                let mut codes = Vec::with_capacity(indices.len());
                let mut validity = Bitmap::new();
                for &i in indices {
                    codes.push(c.codes[i]);
                    validity.push(c.validity.get(i));
                }
                Column::Cat(CatColumn {
                    dict: c.dict.clone(),
                    codes,
                    validity,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_column_roundtrip() {
        let mut col = IntColumn::new();
        col.push(10);
        col.push_missing();
        col.push(-5);
        assert_eq!(col.len(), 3);
        assert_eq!(col.get(0), Some(10));
        assert_eq!(col.get(1), None);
        assert_eq!(col.get(2), Some(-5));
        let collected: Vec<_> = col.iter().collect();
        assert_eq!(collected, vec![Some(10), None, Some(-5)]);
    }

    #[test]
    fn cat_column_roundtrip() {
        let mut col = CatColumn::new();
        col.push("HIV");
        col.push("Diabetes");
        col.push_missing();
        col.push("HIV");
        assert_eq!(col.len(), 4);
        assert_eq!(col.get(0), Some("HIV"));
        assert_eq!(col.get(2), None);
        assert_eq!(col.code_at(0), col.code_at(3));
        assert_eq!(col.dictionary().len(), 2);
    }

    #[test]
    fn column_value_accessor() {
        let col = Column::Cat(CatColumn::from_values(["a", "b"]));
        assert_eq!(col.value(1), Value::Text("b".into()));
        let col = Column::Int(IntColumn::from_values([1, 2]));
        assert_eq!(col.value(0), Value::Int(1));
    }

    #[test]
    fn dense_codes_int() {
        let mut col = IntColumn::new();
        for v in [30, 20, 30, 50] {
            col.push(v);
        }
        col.push_missing();
        col.push_missing();
        let (codes, n) = Column::Int(col).dense_codes();
        assert_eq!(codes, vec![0, 1, 0, 2, 3, 3]);
        assert_eq!(n, 4);
    }

    #[test]
    fn dense_codes_cat_redensifies() {
        // Dictionary has 3 entries but only 2 occur in the data.
        let mut dict = Dictionary::new();
        dict.intern("a");
        dict.intern("b");
        dict.intern("c");
        let col = CatColumn::from_codes(dict, vec![2, 0, 2]);
        let (codes, n) = Column::Cat(col).dense_codes();
        assert_eq!(codes, vec![0, 1, 0]);
        assert_eq!(n, 2);
    }

    #[test]
    fn n_distinct_counts_missing_once() {
        let mut col = IntColumn::new();
        col.push(1);
        col.push_missing();
        col.push_missing();
        assert_eq!(Column::Int(col).n_distinct(), 2);
    }

    #[test]
    fn missing_count() {
        let mut col = CatColumn::new();
        col.push("x");
        col.push_missing();
        assert_eq!(Column::Cat(col).missing_count(), 1);
    }

    #[test]
    fn gather_preserves_values_and_missing() {
        let mut int = IntColumn::new();
        int.push(1);
        int.push_missing();
        int.push(3);
        let col = Column::Int(int);
        let picked = col.gather(&[2, 1, 0, 2]);
        assert_eq!(picked.value(0), Value::Int(3));
        assert_eq!(picked.value(1), Value::Missing);
        assert_eq!(picked.value(3), Value::Int(3));
        assert_eq!(picked.len(), 4);
    }

    #[test]
    fn with_missing_blanks_cells() {
        let col = Column::Int(IntColumn::from_values([1, 2, 3]));
        let blanked = col.with_missing(&[0, 2]);
        assert_eq!(blanked.value(0), Value::Missing);
        assert_eq!(blanked.value(1), Value::Int(2));
        assert_eq!(blanked.value(2), Value::Missing);
        assert_eq!(blanked.missing_count(), 2);
        // Original untouched; empty row list is a plain copy.
        assert_eq!(col.missing_count(), 0);
        assert_eq!(col.with_missing(&[]), col);
        let cat = Column::Cat(CatColumn::from_values(["a", "b"]));
        assert_eq!(cat.with_missing(&[1]).value(1), Value::Missing);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_codes_validates() {
        let dict = Dictionary::from_entries(["only"]);
        CatColumn::from_codes(dict, vec![0, 1]);
    }
}
