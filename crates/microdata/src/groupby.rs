//! Group-by over attribute subsets: the engine behind every anonymity check.
//!
//! The paper tests k-anonymity with
//! `SELECT COUNT(*) FROM Patient GROUP BY Sex, ZipCode, Age`
//! and p-sensitivity with per-group `COUNT(DISTINCT S_j)`. [`GroupBy`]
//! implements exactly those two operators over columnar data.

use crate::column::Column;
use crate::hash::FxHashMap;
use crate::table::Table;
use crate::value::Value;

/// The result of grouping a table by a set of attributes.
///
/// Rows `r, s` belong to the same group iff their cells agree on every
/// grouping attribute (missing cells compare equal to each other). Group ids
/// are dense, assigned in order of first appearance.
#[derive(Debug, Clone)]
pub struct GroupBy {
    group_of_row: Vec<u32>,
    group_sizes: Vec<u32>,
    representatives: Vec<u32>,
    by: Vec<usize>,
}

/// Reusable scratch for the column-at-a-time partition refinement.
///
/// Each step maps the pair `(current group id, next column's code)` to a new
/// dense group id. When `n_groups * n_codes` fits [`CodeCombiner::RADIX_CAP`]
/// the pair is resolved through a dense remap table (`cur * n_codes + code`,
/// `u32::MAX` marking unassigned slots) — one indexed load per row instead of
/// a hash probe. Larger products fall back to an `FxHashMap`. Either way the
/// result is exact: no collision can merge distinct keys.
///
/// Keeping the combiner alive across refinements (a lattice search checks
/// hundreds of nodes over the same table) reuses the remap allocation; stale
/// slots are reset per call by walking the touched list, not the whole table.
#[derive(Debug, Default)]
pub struct CodeCombiner {
    radix: Vec<u32>,
    touched: Vec<u32>,
    hash: FxHashMap<(u32, u32), u32>,
}

impl CodeCombiner {
    /// Largest `n_groups * n_codes` product routed to the dense remap table
    /// (1M slots, 4 MiB — comfortably cache-friendly to reset via the
    /// touched list and small enough to allocate once per search).
    pub const RADIX_CAP: usize = 1 << 20;

    /// A combiner with no scratch allocated yet.
    pub fn new() -> CodeCombiner {
        CodeCombiner::default()
    }

    /// Refines the partition `current` (with `n_groups` dense ids) by `codes`
    /// (values `< n_codes`); returns the refined number of groups. New ids
    /// are dense, in order of first appearance.
    pub fn refine(
        &mut self,
        current: &mut [u32],
        n_groups: u32,
        codes: &[u32],
        n_codes: u32,
    ) -> u32 {
        self.refine_with(
            current,
            n_groups,
            n_codes,
            |out, row| out[row],
            |row| codes[row],
        )
    }

    /// Like [`CodeCombiner::refine`], but reads row `r`'s code as
    /// `map[base[r]]` — fusing a generalization code map into the combine so
    /// the mapped column is never materialized — and works out of place:
    /// writes into `next` the refinement of `prev` (with `n_groups` dense
    /// ids), leaving `prev` intact; `prev = None` stands for the one-group
    /// partition of every row (pass `n_groups = 1`, or 0 for no rows). The
    /// ids are exactly those an in-place refinement of the same partition
    /// would assign, so a caller can keep a chain of partial partitions and
    /// resume from any link.
    pub fn refine_mapped_into(
        &mut self,
        prev: Option<&[u32]>,
        next: &mut [u32],
        n_groups: u32,
        base: &[u32],
        map: &[u32],
        n_codes: u32,
    ) -> u32 {
        let code_of_row = |row: usize| map[base[row] as usize];
        match prev {
            Some(prev) => {
                assert_eq!(prev.len(), next.len(), "partitions cover the same rows");
                self.refine_with(next, n_groups, n_codes, |_, row| prev[row], code_of_row)
            }
            None => self.refine_with(next, n_groups, n_codes, |_, _| 0, code_of_row),
        }
    }

    /// The refinement every public variant shares: writes row `r`'s new id
    /// into `out[r]`, where `cur_of_row(out, r)` is its current id (read
    /// before the write, so `out` may hold the partition being refined) and
    /// `code_of_row(r)` its code, `< n_codes`.
    fn refine_with(
        &mut self,
        out: &mut [u32],
        n_groups: u32,
        n_codes: u32,
        cur_of_row: impl Fn(&[u32], usize) -> u32,
        code_of_row: impl Fn(usize) -> u32,
    ) -> u32 {
        let product = n_groups as u64 * n_codes as u64;
        let mut next = 0u32;
        if product <= Self::RADIX_CAP as u64 {
            if self.radix.len() < product as usize {
                self.radix.resize(product as usize, u32::MAX);
            }
            for &slot in &self.touched {
                self.radix[slot as usize] = u32::MAX;
            }
            self.touched.clear();
            for row in 0..out.len() {
                let key =
                    cur_of_row(out, row) as usize * n_codes as usize + code_of_row(row) as usize;
                let id = self.radix[key];
                out[row] = if id == u32::MAX {
                    let id = next;
                    self.radix[key] = id;
                    self.touched.push(key as u32);
                    next += 1;
                    id
                } else {
                    id
                };
            }
        } else {
            self.hash.clear();
            for row in 0..out.len() {
                out[row] = *self
                    .hash
                    .entry((cur_of_row(out, row), code_of_row(row)))
                    .or_insert_with(|| {
                        let id = next;
                        next += 1;
                        id
                    });
            }
        }
        next
    }
}

impl GroupBy {
    /// Groups `table` by the attributes at `by` (indices into the schema).
    ///
    /// Grouping by zero attributes yields a single group holding all rows
    /// (matching SQL's `GROUP BY ()` semantics); an empty table yields zero
    /// groups.
    pub fn compute(table: &Table, by: &[usize]) -> GroupBy {
        let n = table.n_rows();
        // Combine one column at a time: `current[r]` is the dense id of row
        // r's key prefix. Each step refines the partition with the next
        // column's codes. Exact (no hash collisions can merge groups).
        let mut current = vec![0u32; n];
        let mut n_groups: u32 = u32::from(n > 0);
        let mut combiner = CodeCombiner::new();
        for &col_idx in by {
            n_groups = match table.column(col_idx) {
                // Refined ids depend only on which rows share a cell, not on
                // how the codes are numbered, so categorical columns refine
                // on their dictionary codes directly — one extra code for
                // missing cells — without densifying first.
                Column::Cat(cat) => {
                    let missing = cat.dictionary().len() as u32;
                    let (codes, validity) = (cat.raw_codes(), cat.validity());
                    combiner.refine_with(
                        &mut current,
                        n_groups,
                        missing + 1,
                        |out, row| out[row],
                        |row| {
                            if validity.get(row) {
                                codes[row]
                            } else {
                                missing
                            }
                        },
                    )
                }
                column @ Column::Int(_) => {
                    let (codes, n_codes) = column.dense_codes();
                    combiner.refine(&mut current, n_groups, &codes, n_codes)
                }
            };
        }
        GroupBy::from_assignment(current, n_groups, by.to_vec())
    }

    /// Builds a grouping from pre-combined dense group ids. `current[r]` is
    /// row `r`'s group id, dense in `0..n_groups` and assigned in order of
    /// first appearance (exactly what [`CodeCombiner`] produces). `by`
    /// records which attributes the ids were derived from, for
    /// [`GroupBy::key_of_group`]-style introspection.
    fn from_assignment(current: Vec<u32>, n_groups: u32, by: Vec<usize>) -> GroupBy {
        let mut group_sizes = vec![0u32; n_groups as usize];
        let mut representatives = vec![u32::MAX; n_groups as usize];
        for (row, &g) in current.iter().enumerate() {
            if group_sizes[g as usize] == 0 {
                representatives[g as usize] = row as u32;
            }
            group_sizes[g as usize] += 1;
        }
        GroupBy {
            group_of_row: current,
            group_sizes,
            representatives,
            by,
        }
    }

    /// Groups `n_rows` rows by a sequence of `(codes, n_codes)` slices —
    /// each one attribute's dense codes — without consulting a `Table`.
    ///
    /// Semantically identical to [`GroupBy::compute`] over columns whose
    /// `dense_codes` yield those slices.
    ///
    /// # Panics
    /// Panics when some slice's length differs from `n_rows`.
    pub fn from_code_slices<'a>(
        n_rows: usize,
        slices: impl IntoIterator<Item = (&'a [u32], u32)>,
        by: Vec<usize>,
    ) -> GroupBy {
        let mut current = vec![0u32; n_rows];
        let mut n_groups: u32 = u32::from(n_rows > 0);
        let mut combiner = CodeCombiner::new();
        for (codes, n_codes) in slices {
            assert_eq!(codes.len(), n_rows, "code slice length must match n_rows");
            n_groups = combiner.refine(&mut current, n_groups, codes, n_codes);
        }
        GroupBy::from_assignment(current, n_groups, by)
    }

    /// Number of groups (the paper's `noGroups`).
    pub fn n_groups(&self) -> usize {
        self.group_sizes.len()
    }

    /// Number of rows that were grouped.
    pub fn n_rows(&self) -> usize {
        self.group_of_row.len()
    }

    /// The attribute indices this grouping was computed over.
    pub fn by(&self) -> &[usize] {
        &self.by
    }

    /// Group id of `row`.
    pub fn group_of(&self, row: usize) -> u32 {
        self.group_of_row[row]
    }

    /// Group id of every row, indexed by row — ids are dense and numbered in
    /// first-appearance order, so two groupings agree iff these slices are
    /// equal.
    pub fn assignments(&self) -> &[u32] {
        &self.group_of_row
    }

    /// Sizes of all groups, indexed by group id.
    pub fn sizes(&self) -> &[u32] {
        &self.group_sizes
    }

    /// Smallest group size, or `None` for an empty table.
    pub fn min_group_size(&self) -> Option<u32> {
        self.group_sizes.iter().copied().min()
    }

    /// One row index per group (the first row seen in that group).
    pub fn representatives(&self) -> &[u32] {
        &self.representatives
    }

    /// Row indices of each group, indexed by group id.
    pub fn rows_by_group(&self) -> Vec<Vec<u32>> {
        let mut rows = vec![Vec::new(); self.n_groups()];
        for (row, &g) in self.group_of_row.iter().enumerate() {
            rows[g as usize].push(row as u32);
        }
        rows
    }

    /// Number of rows living in groups of size `< k` — the count of tuples
    /// that do *not* satisfy k-anonymity, annotated per lattice node in the
    /// paper's Figure 3 and compared against the suppression threshold TS.
    pub fn rows_in_small_groups(&self, k: u32) -> usize {
        self.group_sizes
            .iter()
            .filter(|&&size| size < k)
            .map(|&size| size as usize)
            .sum()
    }

    /// Row indices living in groups of size `< k`, in row order — the tuples
    /// suppression removes.
    pub fn small_group_rows(&self, k: u32) -> Vec<usize> {
        self.group_of_row
            .iter()
            .enumerate()
            .filter(|&(_, &g)| self.group_sizes[g as usize] < k)
            .map(|(row, _)| row)
            .collect()
    }

    /// Per-group `COUNT(DISTINCT column)`: entry `g` is the number of
    /// distinct values `column` takes among the rows of group `g`.
    ///
    /// Missing cells count as one shared distinct value.
    ///
    /// # Panics
    /// Panics when `column` has a different length than the grouped table.
    pub fn distinct_per_group(&self, column: &Column) -> Vec<u32> {
        assert_eq!(
            column.len(),
            self.group_of_row.len(),
            "column length must match grouped table"
        );
        let (codes, n_distinct) = column.dense_codes();
        self.distinct_codes_per_group(&codes, n_distinct)
    }

    /// [`GroupBy::distinct_per_group`] over pre-densified codes (values
    /// `< n_codes`) — lets callers that check many partitions of the same
    /// table densify each confidential column once.
    ///
    /// # Panics
    /// Panics when `codes` has a different length than the grouped table.
    pub fn distinct_codes_per_group(&self, codes: &[u32], n_codes: u32) -> Vec<u32> {
        assert_eq!(
            codes.len(),
            self.group_of_row.len(),
            "codes length must match grouped table"
        );
        // Visit rows group by group (counting sort by group id) so that
        // `stamp[code]` — the last group that observed `code` — is reliable:
        // each group is processed as one contiguous block, so a stamp equal
        // to the current group can only have been written within the block.
        let mut offsets = vec![0usize; self.n_groups() + 1];
        for &g in &self.group_of_row {
            offsets[g as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut ordered_rows = vec![0u32; self.group_of_row.len()];
        for (row, &g) in self.group_of_row.iter().enumerate() {
            ordered_rows[cursor[g as usize]] = row as u32;
            cursor[g as usize] += 1;
        }
        let mut stamp = vec![u32::MAX; n_codes as usize];
        let mut counts = vec![0u32; self.n_groups()];
        for &row in &ordered_rows {
            let g = self.group_of_row[row as usize];
            let code = codes[row as usize];
            if stamp[code as usize] != g {
                stamp[code as usize] = g;
                counts[g as usize] += 1;
            }
        }
        counts
    }

    /// Materializes group `g`'s key as values of the grouping attributes.
    pub fn key_of_group(&self, table: &Table, g: usize) -> Vec<Value> {
        let row = self.representatives[g] as usize;
        self.by.iter().map(|&c| table.value(row, c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::table_from_str_rows;
    use crate::schema::{Attribute, Schema};

    /// The paper's Table 1 (patient masked microdata satisfying 2-anonymity).
    fn patient_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::int_key("Age"),
            Attribute::cat_key("ZipCode"),
            Attribute::cat_key("Sex"),
            Attribute::cat_confidential("Illness"),
        ])
        .unwrap();
        table_from_str_rows(
            schema,
            &[
                &["50", "43102", "M", "Colon Cancer"],
                &["30", "43102", "F", "Breast Cancer"],
                &["30", "43102", "F", "HIV"],
                &["20", "43102", "M", "Diabetes"],
                &["20", "43102", "M", "Diabetes"],
                &["50", "43102", "M", "Heart Disease"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn grouping_matches_table1() {
        let t = patient_table();
        let gb = GroupBy::compute(&t, &[0, 1, 2]);
        assert_eq!(gb.n_groups(), 3);
        let mut sizes = gb.sizes().to_vec();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 2, 2]);
        assert_eq!(gb.min_group_size(), Some(2));
        assert_eq!(gb.rows_in_small_groups(2), 0);
        assert_eq!(gb.rows_in_small_groups(3), 6);
    }

    #[test]
    fn same_group_iff_equal_keys() {
        let t = patient_table();
        let gb = GroupBy::compute(&t, &[0, 1, 2]);
        // rows 0 and 5 share (50, 43102, M); rows 3 and 4 share (20, 43102, M)
        assert_eq!(gb.group_of(0), gb.group_of(5));
        assert_eq!(gb.group_of(3), gb.group_of(4));
        assert_ne!(gb.group_of(0), gb.group_of(3));
        assert_ne!(gb.group_of(1), gb.group_of(0));
    }

    #[test]
    fn distinct_per_group_counts_illness() {
        let t = patient_table();
        let gb = GroupBy::compute(&t, &[0, 1, 2]);
        let distinct = gb.distinct_per_group(t.column_by_name("Illness").unwrap());
        // (50,M): Colon Cancer + Heart Disease = 2 distinct
        // (30,F): Breast Cancer + HIV = 2 distinct
        // (20,M): Diabetes, Diabetes = 1 distinct  <-- the homogeneity attack
        let g_20m = gb.group_of(3) as usize;
        let g_50m = gb.group_of(0) as usize;
        let g_30f = gb.group_of(1) as usize;
        assert_eq!(distinct[g_20m], 1);
        assert_eq!(distinct[g_50m], 2);
        assert_eq!(distinct[g_30f], 2);
    }

    #[test]
    fn group_by_nothing_is_one_group() {
        let t = patient_table();
        let gb = GroupBy::compute(&t, &[]);
        assert_eq!(gb.n_groups(), 1);
        assert_eq!(gb.sizes(), &[6]);
        let distinct = gb.distinct_per_group(t.column_by_name("Illness").unwrap());
        assert_eq!(distinct, vec![5]);
    }

    #[test]
    fn empty_table_yields_zero_groups() {
        let t = patient_table().filter(|_| false);
        let gb = GroupBy::compute(&t, &[0]);
        assert_eq!(gb.n_groups(), 0);
        assert_eq!(gb.min_group_size(), None);
        assert_eq!(gb.rows_in_small_groups(2), 0);
    }

    #[test]
    fn small_group_rows_lists_suppression_candidates() {
        let t = patient_table();
        let gb = GroupBy::compute(&t, &[0, 1, 2]);
        assert!(gb.small_group_rows(2).is_empty());
        assert_eq!(gb.small_group_rows(3), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn rows_by_group_partitions_all_rows() {
        let t = patient_table();
        let gb = GroupBy::compute(&t, &[0, 1, 2]);
        let rows = gb.rows_by_group();
        let total: usize = rows.iter().map(Vec::len).sum();
        assert_eq!(total, t.n_rows());
        for (g, members) in rows.iter().enumerate() {
            assert_eq!(members.len() as u32, gb.sizes()[g]);
            for &r in members {
                assert_eq!(gb.group_of(r as usize), g as u32);
            }
        }
    }

    #[test]
    fn key_of_group_returns_grouping_values() {
        let t = patient_table();
        let gb = GroupBy::compute(&t, &[2, 0]);
        let g = gb.group_of(3) as usize;
        let key = gb.key_of_group(&t, g);
        assert_eq!(key, vec![Value::Text("M".into()), Value::Int(20)]);
    }

    #[test]
    fn distinct_per_group_handles_interleaved_rows() {
        // Regression: rows of different groups interleave while sharing a
        // value. A stamp without group-contiguous traversal double-counts
        // the shared value for the revisited group.
        let schema = Schema::new(vec![
            Attribute::cat_key("G"),
            Attribute::cat_confidential("S"),
        ])
        .unwrap();
        let t = table_from_str_rows(
            schema,
            &[
                &["a", "x"], // group a sees x
                &["b", "x"], // group b sees x (stamps over a's mark)
                &["a", "x"], // group a sees x again: still 1 distinct
                &["b", "y"],
            ],
        )
        .unwrap();
        let gb = GroupBy::compute(&t, &[0]);
        let distinct = gb.distinct_per_group(t.column_by_name("S").unwrap());
        let ga = gb.group_of(0) as usize;
        let gbid = gb.group_of(1) as usize;
        assert_eq!(distinct[ga], 1, "group a is homogeneous in S");
        assert_eq!(distinct[gbid], 2);
    }

    #[test]
    fn from_code_slices_matches_compute() {
        let t = patient_table();
        let by = vec![0usize, 1, 2];
        let slices: Vec<(Vec<u32>, u32)> = by.iter().map(|&c| t.column(c).dense_codes()).collect();
        let fast = GroupBy::from_code_slices(
            t.n_rows(),
            slices.iter().map(|(codes, n)| (codes.as_slice(), *n)),
            by.clone(),
        );
        let slow = GroupBy::compute(&t, &by);
        assert_eq!(fast.group_of_row, slow.group_of_row);
        assert_eq!(fast.sizes(), slow.sizes());
        assert_eq!(fast.representatives(), slow.representatives());
        assert_eq!(fast.by(), slow.by());
    }

    #[test]
    fn combiner_hash_fallback_matches_radix() {
        // Same codes, two declared alphabet sizes: one routes through the
        // dense remap, the other (product above the cap) through the hash
        // fallback. The partition must be identical — it depends only on the
        // code values.
        let codes: Vec<u32> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3];
        let mut dense = vec![0u32; codes.len()];
        let mut hashed = vec![0u32; codes.len()];
        let mut combiner = CodeCombiner::new();
        let n_dense = combiner.refine(&mut dense, 1, &codes, 10);
        let n_hashed = combiner.refine(&mut hashed, 1, &codes, 1 + CodeCombiner::RADIX_CAP as u32);
        assert_eq!(n_dense, n_hashed);
        assert_eq!(dense, hashed);
    }

    #[test]
    fn combiner_reuse_resets_stale_slots() {
        let mut combiner = CodeCombiner::new();
        let mut current = vec![0u32; 4];
        let n = combiner.refine(&mut current, 1, &[0, 1, 0, 1], 2);
        assert_eq!(n, 2);
        // A second, unrelated refinement must not see the first one's ids.
        let mut current = vec![0u32; 3];
        let n = combiner.refine(&mut current, 1, &[1, 1, 1], 2);
        assert_eq!(n, 1);
        assert_eq!(current, vec![0, 0, 0]);
    }

    /// `codes[r] = map[base[r]]`: the generalized column the fused
    /// refinement never builds.
    fn materialize(base: &[u32], map: &[u32]) -> Vec<u32> {
        base.iter().map(|&b| map[b as usize]).collect()
    }

    #[test]
    fn refine_mapped_equals_materialized_refine() {
        let base = vec![0u32, 1, 2, 3, 2, 1];
        let map = vec![0u32, 1, 0, 1]; // generalize 4 codes down to 2
        let mut fused = vec![u32::MAX; base.len()];
        let mut plain = vec![0u32; base.len()];
        let mut combiner = CodeCombiner::new();
        let n_fused = combiner.refine_mapped_into(None, &mut fused, 1, &base, &map, 2);
        let n_plain = combiner.refine(&mut plain, 1, &materialize(&base, &map), 2);
        assert_eq!(n_fused, n_plain);
        assert_eq!(fused, plain);
    }

    #[test]
    fn refine_mapped_into_matches_in_place_chain() {
        let base_a = vec![0u32, 1, 2, 3, 2, 1, 0, 3];
        let base_b = vec![1u32, 1, 0, 0, 2, 2, 1, 0];
        let (map_a, map_b) = (vec![0u32, 1, 0, 1], vec![0u32, 1, 2]);
        let mut combiner = CodeCombiner::new();
        // In place: one buffer refined by the materialized A, then B.
        let mut chained = vec![0u32; base_a.len()];
        let g = combiner.refine(&mut chained, 1, &materialize(&base_a, &map_a), 2);
        let g = combiner.refine(&mut chained, g, &materialize(&base_b, &map_b), 3);
        // Out of place: A from the one-group partition, B from A's result,
        // and A's partition is left intact for a second refinement.
        let mut after_a = vec![u32::MAX; base_a.len()];
        let mut after_b = vec![u32::MAX; base_a.len()];
        let ga = combiner.refine_mapped_into(None, &mut after_a, 1, &base_a, &map_a, 2);
        let snapshot = after_a.clone();
        let gb = combiner.refine_mapped_into(Some(&after_a), &mut after_b, ga, &base_b, &map_b, 3);
        assert_eq!((gb, &after_b), (g, &chained));
        assert_eq!(after_a, snapshot);
    }

    #[test]
    fn distinct_codes_per_group_matches_column_variant() {
        let t = patient_table();
        let gb = GroupBy::compute(&t, &[0, 1, 2]);
        let col = t.column_by_name("Illness").unwrap();
        let (codes, n_codes) = col.dense_codes();
        assert_eq!(
            gb.distinct_codes_per_group(&codes, n_codes),
            gb.distinct_per_group(col)
        );
    }

    #[test]
    fn missing_cells_group_together() {
        let schema = Schema::new(vec![Attribute::int_key("Age")]).unwrap();
        let t = table_from_str_rows(schema, &[&["?"], &["?"], &["1"]]).unwrap();
        let gb = GroupBy::compute(&t, &[0]);
        assert_eq!(gb.n_groups(), 2);
        assert_eq!(gb.group_of(0), gb.group_of(1));
        assert_ne!(gb.group_of(0), gb.group_of(2));
    }
}
