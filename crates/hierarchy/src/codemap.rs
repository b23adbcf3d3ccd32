//! Per-(attribute, level) **code maps**: full-domain generalization as pure
//! `u32` arithmetic.
//!
//! [`QiSpace::apply`] recodes cell-by-cell through string labels and
//! rebuilds dictionaries — fine for materializing one masked table, far too
//! slow for a lattice search that checks hundreds of candidate nodes against
//! the same initial microdata. A [`QiCodeMaps`] is computed **once** per
//! (QI space, table) pair and gives, for every QI attribute:
//!
//! - `base`: one dense `u32` code per row (the attribute's level-0 code), and
//! - for each level `L`, a map `Vec<u32>` from base codes to level-`L` codes.
//!
//! Two rows land in the same QI-group at node `<l_1, ..., l_m>` iff their
//! mapped codes agree on every attribute, so any per-node check (k-anonymity,
//! group counts, per-group `COUNT(DISTINCT)`) can run on integer vectors
//! without materializing a generalized table. Missing cells keep their own
//! reserved code at every level, mirroring `Hierarchy::generalize`'s
//! missing-stays-missing rule and `GroupBy`'s missing-equals-missing rule.

use crate::error::{Error, Result};
use crate::hierarchy::Hierarchy;
use psens_microdata::hash::FxHashMap;
use psens_microdata::Column;

/// The code-level view of one level of one attribute's DGH.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelCodeMap {
    /// `map[base_code]` is the attribute's code at this level.
    map: Vec<u32>,
    /// Exclusive upper bound of the codes in `map` (the level's alphabet
    /// size, reserved missing code included).
    n_codes: u32,
}

impl LevelCodeMap {
    /// The base-code → level-code map.
    pub fn map(&self) -> &[u32] {
        &self.map
    }

    /// Exclusive upper bound of the level's codes.
    pub fn n_codes(&self) -> u32 {
        self.n_codes
    }
}

/// All code maps of one QI attribute over one table column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrCodeMap {
    /// Per-row level-0 codes (missing cells share one reserved code).
    base: Vec<u32>,
    /// One map per level, index 0 being the (identity) ground level.
    levels: Vec<LevelCodeMap>,
}

impl AttrCodeMap {
    /// Builds the code maps binding `hierarchy` to `column`.
    ///
    /// Fails like `Hierarchy::apply` would: on kind mismatches and on column
    /// values absent from the hierarchy's ground domain.
    pub fn build(hierarchy: &Hierarchy, column: &Column) -> Result<AttrCodeMap> {
        match (hierarchy, column) {
            (Hierarchy::Cat(h), Column::Cat(col)) => {
                // Base codes are ground-domain positions; the hierarchy's
                // `of_ground` tables then are the level maps verbatim. Only
                // *used* dictionary codes must exist in the ground domain
                // (gathered columns may carry unused entries).
                let missing = h.ground().len() as u32;
                let dict = col.dictionary();
                let mut of_dict: Vec<Option<u32>> = vec![None; dict.len()];
                let mut base = Vec::with_capacity(col.len());
                for row in 0..col.len() {
                    match col.code_at(row) {
                        Some(code) => {
                            let gi = match of_dict[code as usize] {
                                Some(gi) => gi,
                                None => {
                                    let text = dict.text(code).expect("code from this dictionary");
                                    let gi = h
                                        .ground_index(text)
                                        .ok_or_else(|| Error::UnknownValue(text.to_owned()))?
                                        as u32;
                                    of_dict[code as usize] = Some(gi);
                                    gi
                                }
                            };
                            base.push(gi);
                        }
                        None => base.push(missing),
                    }
                }
                let mut levels = Vec::with_capacity(h.n_levels());
                for level in 0..h.n_levels() {
                    let mut map = h.code_map_at(level)?;
                    let n_labels = h.n_labels_at(level)? as u32;
                    // Reserve one extra code for missing cells.
                    map.push(n_labels);
                    levels.push(LevelCodeMap {
                        map,
                        n_codes: n_labels + 1,
                    });
                }
                Ok(AttrCodeMap { base, levels })
            }
            (Hierarchy::Int(h), Column::Int(col)) => {
                // Base codes densify the distinct integers present, in
                // first-occurrence order; missing gets its own dense code.
                let mut of_value: FxHashMap<i64, u32> = FxHashMap::default();
                let mut distinct: Vec<Option<i64>> = Vec::new();
                let mut missing_base: Option<u32> = None;
                let mut base = Vec::with_capacity(col.len());
                for row in 0..col.len() {
                    let code = match col.get(row) {
                        Some(v) => *of_value.entry(v).or_insert_with(|| {
                            distinct.push(Some(v));
                            (distinct.len() - 1) as u32
                        }),
                        None => *missing_base.get_or_insert_with(|| {
                            distinct.push(None);
                            (distinct.len() - 1) as u32
                        }),
                    };
                    base.push(code);
                }
                let n_base = distinct.len() as u32;
                let mut levels = Vec::with_capacity(h.n_levels());
                for level in 0..h.n_levels() {
                    if level == 0 {
                        levels.push(LevelCodeMap {
                            map: (0..n_base).collect(),
                            n_codes: n_base,
                        });
                        continue;
                    }
                    // Dedupe bins by label text: `IntHierarchy` does not
                    // forbid two bins sharing a label, and label-equal cells
                    // group together in a materialized table.
                    let labels = h.bin_labels_at(level)?;
                    let mut label_code: FxHashMap<&str, u32> = FxHashMap::default();
                    let mut next = 0u32;
                    let mut bin_code = Vec::with_capacity(labels.len());
                    for &label in &labels {
                        let code = *label_code.entry(label).or_insert_with(|| {
                            let code = next;
                            next += 1;
                            code
                        });
                        bin_code.push(code);
                    }
                    let n_labels = next;
                    let map = distinct
                        .iter()
                        .map(|value| match value {
                            Some(v) => Ok(bin_code[h.bin_of(*v, level)?]),
                            None => Ok(n_labels),
                        })
                        .collect::<Result<Vec<u32>>>()?;
                    levels.push(LevelCodeMap {
                        map,
                        n_codes: n_labels + 1,
                    });
                }
                Ok(AttrCodeMap { base, levels })
            }
            (Hierarchy::Cat(_), Column::Int(_)) => Err(Error::KindMismatch {
                expected: "text",
                found: "integer",
            }),
            (Hierarchy::Int(_), Column::Cat(_)) => Err(Error::KindMismatch {
                expected: "integers",
                found: "text",
            }),
        }
    }

    /// Per-row level-0 codes.
    pub fn base(&self) -> &[u32] {
        &self.base
    }

    /// The code map of `level`.
    ///
    /// # Panics
    /// Panics when `level` exceeds the hierarchy this map was built from.
    pub fn level(&self, level: usize) -> &LevelCodeMap {
        &self.levels[level]
    }

    /// Number of levels (ground level included).
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }
}

/// Code maps for every attribute of a QI space over one table — the
/// precomputation a whole lattice search shares (immutable, `Sync`; parallel
/// scans hand out references to worker threads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QiCodeMaps {
    attrs: Vec<AttrCodeMap>,
}

impl QiCodeMaps {
    /// Code maps of the `i`-th QI attribute (lattice order).
    pub fn attr(&self, i: usize) -> &AttrCodeMap {
        &self.attrs[i]
    }

    /// Number of QI attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when there are no attributes (never, by `QiSpace` construction).
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }
}

impl crate::apply::QiSpace {
    /// Precomputes the per-attribute, per-level code maps of `table` —
    /// compute once, then check any number of lattice nodes on `u32` vectors.
    pub fn code_maps(&self, table: &psens_microdata::Table) -> Result<QiCodeMaps> {
        let attrs = self
            .names()
            .into_iter()
            .enumerate()
            .map(|(i, name)| {
                let idx = table.schema().index_of(name)?;
                AttrCodeMap::build(self.hierarchy(i), table.column(idx))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(QiCodeMaps { attrs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::prefix_hierarchy;
    use crate::hierarchy::{IntHierarchy, IntLevel};
    use psens_microdata::{CatColumn, IntColumn};

    fn zip_hierarchy() -> Hierarchy {
        Hierarchy::Cat(
            prefix_hierarchy(
                vec!["41076", "41099", "43102", "43103", "48201", "48202"],
                &[2, 0],
            )
            .unwrap(),
        )
    }

    fn age_hierarchy() -> Hierarchy {
        Hierarchy::Int(
            IntHierarchy::new(vec![
                IntLevel::Ranges {
                    cuts: vec![30, 50],
                    labels: vec!["<30".into(), "30-49".into(), ">=50".into()],
                },
                IntLevel::Single("*".into()),
            ])
            .unwrap(),
        )
    }

    /// Mapped codes must agree exactly with the string-level recode: equal
    /// generalized labels iff equal mapped codes.
    fn assert_matches_generalize(h: &Hierarchy, col: &Column, maps: &AttrCodeMap) {
        for level in 0..h.n_levels() {
            let lm = maps.level(level);
            let recoded = h.apply(col, level).unwrap();
            for a in 0..col.len() {
                assert!(lm.map()[maps.base()[a] as usize] < lm.n_codes());
                for b in 0..col.len() {
                    let same_codes =
                        lm.map()[maps.base()[a] as usize] == lm.map()[maps.base()[b] as usize];
                    let same_labels = recoded.value(a) == recoded.value(b);
                    assert_eq!(
                        same_codes, same_labels,
                        "level {level}, rows {a}/{b}: codes and labels disagree"
                    );
                }
            }
        }
    }

    #[test]
    fn cat_maps_match_string_recode() {
        let h = zip_hierarchy();
        let mut col = CatColumn::from_values(["41076", "43102", "41099", "48201", "43102"]);
        col.push_missing();
        let col = Column::Cat(col);
        let maps = AttrCodeMap::build(&h, &col).unwrap();
        assert_eq!(maps.n_levels(), 3);
        assert_matches_generalize(&h, &col, &maps);
    }

    #[test]
    fn int_maps_match_string_recode() {
        let h = age_hierarchy();
        let mut col = IntColumn::new();
        for v in [25, 51, 25, 34, 49, 50] {
            col.push(v);
        }
        col.push_missing();
        let col = Column::Int(col);
        let maps = AttrCodeMap::build(&h, &col).unwrap();
        assert_eq!(maps.n_levels(), 3);
        assert_matches_generalize(&h, &col, &maps);
    }

    #[test]
    fn int_duplicate_labels_share_codes() {
        // Two bins deliberately share the label "low": label-equal cells
        // must receive equal codes, as they would group together after a
        // string-level recode.
        let h = Hierarchy::Int(
            IntHierarchy::new(vec![IntLevel::Ranges {
                cuts: vec![10, 20],
                labels: vec!["low".into(), "low".into(), "high".into()],
            }])
            .unwrap(),
        );
        let col = Column::Int(IntColumn::from_values([5, 15, 25]));
        let maps = AttrCodeMap::build(&h, &col).unwrap();
        assert_matches_generalize(&h, &col, &maps);
        let lm = maps.level(1);
        assert_eq!(
            lm.map()[maps.base()[0] as usize],
            lm.map()[maps.base()[1] as usize]
        );
    }

    #[test]
    fn unknown_ground_value_errors() {
        let h = zip_hierarchy();
        let col = Column::Cat(CatColumn::from_values(["00000"]));
        assert!(matches!(
            AttrCodeMap::build(&h, &col),
            Err(Error::UnknownValue(_))
        ));
    }

    #[test]
    fn kind_mismatch_errors() {
        let h = zip_hierarchy();
        let col = Column::Int(IntColumn::from_values([1]));
        assert!(matches!(
            AttrCodeMap::build(&h, &col),
            Err(Error::KindMismatch { .. })
        ));
        let col = Column::Cat(CatColumn::from_values(["x"]));
        assert!(matches!(
            AttrCodeMap::build(&age_hierarchy(), &col),
            Err(Error::KindMismatch { .. })
        ));
    }

    #[test]
    fn missing_cells_keep_their_own_code_at_every_level() {
        let h = zip_hierarchy();
        let mut col = CatColumn::from_values(["41076"]);
        col.push_missing();
        let col = Column::Cat(col);
        let maps = AttrCodeMap::build(&h, &col).unwrap();
        for level in 0..3 {
            let lm = maps.level(level);
            let present = lm.map()[maps.base()[0] as usize];
            let missing = lm.map()[maps.base()[1] as usize];
            assert_ne!(present, missing, "level {level}");
        }
    }
}
