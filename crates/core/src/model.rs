//! The privacy models, as one `Copy` value: [`ModelSpec`].
//!
//! The paper's checker hardcodes one per-group predicate: *every
//! confidential attribute takes at least `p` distinct values in every
//! QI-group* (Definition 2). That predicate is the only model-specific
//! piece of the whole search stack — the lattice walk, the verdict cache,
//! budgets, suppression simulation, and winner materialization are all
//! model-agnostic. A [`ModelSpec`] names a group-level model and its
//! parameter, and its methods are the predicate, each one `match` over
//! the variants: [`ModelSpec::mode`] tells the kernel how to scan a group,
//! [`ModelSpec::check_group`] judges one group's confidential histogram,
//! and [`ModelSpec::node_detail`] folds the per-group metrics into a
//! node's [`ModelDetail`].
//!
//! | variant | per-group property | source |
//! |---|---|---|
//! | [`ModelSpec::PSensitiveK`] | `COUNT(DISTINCT S) >= p` | Truta & Vinay, ICDE 2006 |
//! | [`ModelSpec::DistinctL`] | `COUNT(DISTINCT S) >= l` | Machanavajjhala et al., ICDE 2006 |
//! | [`ModelSpec::EntropyL`] | `entropy(S) >= ln l` | Machanavajjhala et al., ICDE 2006 |
//! | [`ModelSpec::TCloseness`] | `EMD(group, table) <= t` | Li et al., ICDE 2007; EMD per Soria-Comas et al. |
//!
//! [`check_table_model`] applies the same predicate to a materialized
//! table: it is the oracle behind `psens check --model` and the failing-group
//! source of the PRAM backend.
//!
//! ## Monotonicity
//!
//! Without suppression every model is monotone along the
//! generalization lattice: generalizing only merges QI-groups, and merging
//! passing groups never yields a failing one —
//!
//! - distinct counts only grow when groups merge (p-sensitivity,
//!   distinct l-diversity);
//! - entropy of a mixture is at least the minimum component entropy, by
//!   concavity of Shannon entropy (entropy l-diversity);
//! - equal-distance EMD to the table distribution is half the total
//!   variation distance, which is convex: the distance of a merged group
//!   is at most the maximum component distance (t-closeness).
//!
//! With a suppression threshold `ts > 0` none of them is monotone. A node
//! may pass by suppressing its undersized groups, while an ancestor
//! re-admits those tuples into groups of `k` or more that fail the model:
//! the re-admitted tuples may share one confidential value, or lower a
//! group's entropy, or raise its EMD. [`crate::verdict::VerdictStore`]
//! therefore infers nothing from a pass, only k-failures, which hold for
//! every model. Samarati's binary search still assumes monotonicity, so
//! with `ts > 0` its answer may not be minimal (see
//! `psens_algorithms::pk_minimal_generalization`).

use psens_microdata::{GroupBy, Table};
use serde::Serialize;

/// Nats-to-micro-nats (and probability-to-ppm) fixed-point scale. Model
/// parameters and detail metrics are stored as integers at this scale so
/// they can be hashed, ordered, journaled, and replayed exactly.
pub const FIXED_POINT_SCALE: f64 = 1_000_000.0;

/// Slack for float comparisons at group boundaries: a group whose metric
/// misses the threshold by less than this is considered passing, so the
/// verdict never depends on the last bit of a float summation.
const METRIC_EPSILON: f64 = 1e-9;

/// A privacy model plus its parameter, in fixed-point form — `Copy`,
/// hashable, and totally ordered so it can key warm verdict-store pools
/// and round-trip through the server journal exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum ModelSpec {
    /// p-sensitive k-anonymity (paper Definition 2): every confidential
    /// attribute takes at least `p` distinct values per QI-group.
    PSensitiveK {
        /// Minimum distinct confidential values per QI-group.
        p: u32,
    },
    /// Distinct l-diversity: at least `l` distinct confidential values per
    /// QI-group — structurally the same predicate as p-sensitivity with
    /// `p = l`.
    DistinctL {
        /// Minimum distinct confidential values per QI-group.
        l: u32,
    },
    /// Entropy l-diversity: the Shannon entropy of each confidential
    /// attribute within each QI-group is at least `ln l`.
    EntropyL {
        /// Entropy threshold, as `ln l` with integer `l`.
        l: u32,
    },
    /// t-closeness: the earth mover's distance between each QI-group's
    /// confidential distribution and the whole-table distribution is at
    /// most `t`. Equal-distance ground metric (the flat-hierarchy case of
    /// Soria-Comas et al.), where EMD is half the L1 distance.
    TCloseness {
        /// The threshold `t` in parts-per-million (`t = t_ppm / 1e6`).
        t_ppm: u32,
    },
}

impl ModelSpec {
    /// The model's wire name (`--model` value, journal field).
    pub fn name(&self) -> &'static str {
        match self {
            ModelSpec::PSensitiveK { .. } => "psens-k",
            ModelSpec::DistinctL { .. } => "distinct-l",
            ModelSpec::EntropyL { .. } => "entropy-l",
            ModelSpec::TCloseness { .. } => "t-closeness",
        }
    }

    /// The model's parameter as one canonical integer: `p`, `l`, `l`, or
    /// `t_ppm`. Together with [`Self::name`] this round-trips through
    /// [`Self::from_parts`].
    pub fn param(&self) -> u64 {
        match *self {
            ModelSpec::PSensitiveK { p } => u64::from(p),
            ModelSpec::DistinctL { l } | ModelSpec::EntropyL { l } => u64::from(l),
            ModelSpec::TCloseness { t_ppm } => u64::from(t_ppm),
        }
    }

    /// Rebuilds a spec from its wire `(name, param)` pair (the inverse of
    /// [`Self::name`] + [`Self::param`]). Errors on an unknown name or an
    /// out-of-range parameter: `p` and `l` must fit a `u32`, and `t_ppm`
    /// must be at most 1,000,000 (`t <= 1`).
    pub fn from_parts(name: &str, param: u64) -> Result<ModelSpec, String> {
        let narrow = |what: &str, max: u32| -> Result<u32, String> {
            u32::try_from(param)
                .ok()
                .filter(|&value| value <= max)
                .ok_or_else(|| {
                    format!("model parameter {what}={param} out of range (at most {max})")
                })
        };
        match name {
            "psens-k" => Ok(ModelSpec::PSensitiveK {
                p: narrow("p", u32::MAX)?,
            }),
            "distinct-l" => Ok(ModelSpec::DistinctL {
                l: narrow("l", u32::MAX)?,
            }),
            "entropy-l" => Ok(ModelSpec::EntropyL {
                l: narrow("l", u32::MAX)?,
            }),
            "t-closeness" => Ok(ModelSpec::TCloseness {
                t_ppm: narrow("t_ppm", 1_000_000)?,
            }),
            other => Err(format!(
                "unknown privacy model `{other}` (expected psens-k, distinct-l, entropy-l, or t-closeness)"
            )),
        }
    }

    /// Human-readable form, e.g. `psens-k(p=2)` or `t-closeness(t=0.2)`.
    pub fn describe(&self) -> String {
        match *self {
            ModelSpec::PSensitiveK { p } => format!("psens-k(p={p})"),
            ModelSpec::DistinctL { l } => format!("distinct-l(l={l})"),
            ModelSpec::EntropyL { l } => format!("entropy-l(l={l})"),
            ModelSpec::TCloseness { t_ppm } => {
                format!("t-closeness(t={})", f64::from(t_ppm) / FIXED_POINT_SCALE)
            }
        }
    }

    /// The `p` to feed the paper's Conditions 1–2 as a *necessary*
    /// condition for this model. Distinct-count models use their own
    /// target; entropy l-diversity uses `l` because `entropy >= ln l`
    /// forces at least `l` distinct values (Shannon entropy over `d`
    /// values is at most `ln d`); t-closeness gets the vacuous `p = 1` —
    /// no distinct-count bound follows from a distribution distance.
    pub fn conditions_p(&self) -> u32 {
        match *self {
            ModelSpec::PSensitiveK { p } => p,
            ModelSpec::DistinctL { l } | ModelSpec::EntropyL { l } => l,
            ModelSpec::TCloseness { .. } => 1,
        }
    }

    /// Returns `true` and claims nothing about the model (see the module
    /// docs on monotonicity). Kept only because the benchmark crate passes
    /// it to `VerdictStore::for_model`, which ignores it.
    #[doc(hidden)]
    pub fn is_monotone(&self) -> bool {
        true
    }

    /// Returns a boxed copy of `self` and has no effect: a `ModelSpec` is
    /// its own checker. Kept only because the benchmark crate boxes the
    /// spec this way before passing it to [`check_table_model`].
    #[doc(hidden)]
    pub fn instantiate(&self) -> Box<ModelSpec> {
        Box::new(*self)
    }

    /// How the kernel should scan QI-groups for this model.
    pub fn mode(&self) -> GroupCheckMode {
        match *self {
            ModelSpec::PSensitiveK { p: target } | ModelSpec::DistinctL { l: target } => {
                GroupCheckMode::Distinct { target }
            }
            ModelSpec::EntropyL { .. } => GroupCheckMode::Histogram {
                needs_global: false,
            },
            ModelSpec::TCloseness { .. } => GroupCheckMode::Histogram { needs_global: true },
        }
    }

    /// The model's verdict on one QI-group. `counts` holds the group's
    /// `(code, count)` pairs in ascending code order (only codes present in
    /// the group), `group_size` its row count, and `global` the whole-table
    /// distribution, which t-closeness needs (see [`Self::mode`]).
    ///
    /// Panics on t-closeness without `global`.
    pub fn check_group(
        &self,
        counts: &[(u32, u32)],
        group_size: u32,
        global: Option<&CodeDistribution>,
    ) -> GroupVerdict {
        match *self {
            ModelSpec::PSensitiveK { p: target } | ModelSpec::DistinctL { l: target } => {
                let distinct = counts.len() as u64;
                GroupVerdict {
                    passes: distinct >= u64::from(target),
                    metric: distinct,
                }
            }
            ModelSpec::EntropyL { l } => {
                let h = entropy_nats(counts, group_size);
                GroupVerdict {
                    passes: h + METRIC_EPSILON >= f64::from(l).ln(),
                    metric: (h * FIXED_POINT_SCALE).round() as u64,
                }
            }
            ModelSpec::TCloseness { t_ppm } => {
                let global = global.expect("t-closeness needs the whole-table distribution");
                let emd = emd(counts, group_size, global);
                GroupVerdict {
                    passes: emd <= f64::from(t_ppm) / FIXED_POINT_SCALE + METRIC_EPSILON,
                    metric: (emd * FIXED_POINT_SCALE).round() as u64,
                }
            }
        }
    }

    /// Folds the extremal per-group metrics a scan observed into the
    /// node-level detail payload: distinct counts and entropy keep the
    /// minimum, EMD the maximum.
    pub fn node_detail(&self, min_metric: u64, max_metric: u64) -> ModelDetail {
        match self {
            ModelSpec::PSensitiveK { .. } | ModelSpec::DistinctL { .. } => {
                ModelDetail::MinDistinct(min_metric.min(u64::from(u32::MAX)) as u32)
            }
            ModelSpec::EntropyL { .. } => ModelDetail::MinEntropyMicroNats(min_metric),
            ModelSpec::TCloseness { .. } => {
                ModelDetail::MaxEmdPpm(max_metric.min(u64::from(u32::MAX)) as u32)
            }
        }
    }
}

/// A group's Shannon entropy in nats: `ln n − (Σ c·ln c)/n`.
fn entropy_nats(counts: &[(u32, u32)], group_size: u32) -> f64 {
    if group_size == 0 {
        return 0.0;
    }
    let n = f64::from(group_size);
    let weighted: f64 = counts
        .iter()
        .map(|&(_, c)| {
            let c = f64::from(c);
            c * c.ln()
        })
        .sum();
    (n.ln() - weighted / n).max(0.0)
}

/// Equal-distance EMD of a group against `global`: `0.5·Σ|gᵢ − Gᵢ|`,
/// computed from the group's touched codes only, since every code absent
/// from the group contributes exactly its global mass.
fn emd(counts: &[(u32, u32)], group_size: u32, global: &CodeDistribution) -> f64 {
    if group_size == 0 || global.total() == 0 {
        return 0.0;
    }
    let n = f64::from(group_size);
    let mut touched = 0.0f64;
    for &(code, count) in counts {
        let g = f64::from(count) / n;
        let q = global.fraction(code);
        touched += (g - q).abs() - q;
    }
    (0.5 * (touched + 1.0)).clamp(0.0, 1.0)
}

/// How the kernel should scan QI-groups for a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupCheckMode {
    /// Count distinct codes per group, early-exiting at `target` — the
    /// fast path shared by p-sensitivity and distinct l-diversity (it
    /// needs no per-code counts, only a seen-stamp).
    Distinct {
        /// Minimum distinct values per group.
        target: u32,
    },
    /// Build a per-group code histogram and ask
    /// [`ModelSpec::check_group`] for the verdict.
    Histogram {
        /// Whether `check_group` needs the whole-table code distribution
        /// (t-closeness does; entropy does not).
        needs_global: bool,
    },
}

/// Whole-table distribution of one confidential attribute's dense codes —
/// the reference distribution for distance-based models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeDistribution {
    counts: Vec<u64>,
    total: u64,
}

impl CodeDistribution {
    /// Tallies `codes` (each `< n_codes`) into a distribution.
    pub fn from_codes(codes: impl Iterator<Item = u32>, n_codes: u32) -> CodeDistribution {
        let mut counts = vec![0u64; n_codes as usize];
        let mut total = 0u64;
        for code in codes {
            counts[code as usize] += 1;
            total += 1;
        }
        CodeDistribution { counts, total }
    }

    /// The fraction of rows carrying `code` (0 for an empty table).
    pub fn fraction(&self, code: u32) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[code as usize] as f64 / self.total as f64
        }
    }

    /// Total rows tallied.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// A model's verdict on one QI-group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupVerdict {
    /// Whether the group satisfies the model.
    pub passes: bool,
    /// The group's metric in the model's fixed-point unit (distinct
    /// count, micro-nats of entropy, ppm of EMD) — folded across groups
    /// into the node-level [`ModelDetail`].
    pub metric: u64,
}

/// Model-specific payload on a node verdict: the extremal per-group metric
/// the detailed scan observed, in fixed-point units so verdicts stay
/// `Eq`/hashable and replay exactly from snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ModelDetail {
    /// Minimum per-group distinct-value count across groups and
    /// confidential attributes.
    MinDistinct(u32),
    /// Minimum per-group Shannon entropy, in micro-nats.
    MinEntropyMicroNats(u64),
    /// Maximum per-group earth mover's distance, in parts-per-million.
    MaxEmdPpm(u32),
}

impl ModelDetail {
    /// The detail's wire name, paired with [`Self::value`] for snapshots.
    pub fn kind(&self) -> &'static str {
        match self {
            ModelDetail::MinDistinct(_) => "min_distinct",
            ModelDetail::MinEntropyMicroNats(_) => "min_entropy_micro_nats",
            ModelDetail::MaxEmdPpm(_) => "max_emd_ppm",
        }
    }

    /// The detail's value as one canonical integer.
    pub fn value(&self) -> u64 {
        match *self {
            ModelDetail::MinDistinct(v) => u64::from(v),
            ModelDetail::MinEntropyMicroNats(v) => v,
            ModelDetail::MaxEmdPpm(v) => u64::from(v),
        }
    }

    /// Rebuilds a detail from its wire `(kind, value)` pair.
    pub fn from_parts(kind: &str, value: u64) -> Result<ModelDetail, String> {
        let narrow = || -> Result<u32, String> {
            u32::try_from(value).map_err(|_| format!("detail value {value} out of range"))
        };
        match kind {
            "min_distinct" => Ok(ModelDetail::MinDistinct(narrow()?)),
            "min_entropy_micro_nats" => Ok(ModelDetail::MinEntropyMicroNats(value)),
            "max_emd_ppm" => Ok(ModelDetail::MaxEmdPpm(narrow()?)),
            other => Err(format!("unknown model detail kind `{other}`")),
        }
    }
}

/// Result of the table-level model check (the model-generic analogue of
/// [`crate::psensitive::check_p_sensitivity`]): k-anonymity over the keys,
/// plus the model's per-group property on every confidential attribute.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TableModelReport {
    /// Whether k-anonymity holds.
    pub k_anonymous: bool,
    /// Number of QI-groups.
    pub n_groups: usize,
    /// `(group, attribute)` pairs failing the model's per-group property.
    pub violating_pairs: usize,
    /// Ids of the QI-groups with at least one failing attribute, ascending.
    /// Ids are [`GroupBy::compute`]'s first-appearance ids over `keys`.
    pub failing_groups: Vec<usize>,
    /// Extremal per-group metric the scan observed (absent when there are
    /// no groups or no confidential attributes).
    pub detail: Option<ModelDetail>,
}

impl TableModelReport {
    /// True when the table satisfies k-anonymity and the model.
    pub fn satisfied(&self) -> bool {
        self.k_anonymous && self.violating_pairs == 0
    }
}

/// Checks `model` (plus k-anonymity) on a materialized table — the slow,
/// simple oracle behind `psens check --model` and the PRAM backend's
/// repair loop. Groups by `keys`, then feeds each group's histogram of
/// each confidential attribute to [`ModelSpec::check_group`].
pub fn check_table_model(
    table: &Table,
    keys: &[usize],
    confidential: &[usize],
    model: &ModelSpec,
    k: u32,
) -> TableModelReport {
    let groups = GroupBy::compute(table, keys);
    let k_anonymous = groups.rows_in_small_groups(k) == 0;
    let mut violating_pairs = 0usize;
    let mut failing = vec![false; groups.n_groups()];
    let mut min_metric = u64::MAX;
    let mut max_metric = 0u64;
    let mut any = false;
    let needs_global = matches!(
        model.mode(),
        GroupCheckMode::Histogram { needs_global: true }
    );
    for &attr in confidential {
        let (codes, n_codes) = table.column(attr).dense_codes();
        let global =
            needs_global.then(|| CodeDistribution::from_codes(codes.iter().copied(), n_codes));
        // Per-group histograms over dense codes, groups in id order and
        // codes in ascending order within each group — the same
        // deterministic order the kernel's scan produces.
        let mut hists: Vec<Vec<(u32, u32)>> = vec![Vec::new(); groups.n_groups()];
        let mut ordered: Vec<(u32, u32)> = groups
            .assignments()
            .iter()
            .zip(codes.iter())
            .map(|(&g, &c)| (g, c))
            .collect();
        ordered.sort_unstable();
        for (g, code) in ordered {
            let hist = &mut hists[g as usize];
            match hist.last_mut() {
                Some(last) if last.0 == code => last.1 += 1,
                _ => hist.push((code, 1)),
            }
        }
        for (g, hist) in hists.iter().enumerate() {
            let size = groups.sizes()[g];
            let verdict = model.check_group(hist, size, global.as_ref());
            any = true;
            min_metric = min_metric.min(verdict.metric);
            max_metric = max_metric.max(verdict.metric);
            if !verdict.passes {
                violating_pairs += 1;
                failing[g] = true;
            }
        }
    }
    TableModelReport {
        k_anonymous,
        n_groups: groups.n_groups(),
        violating_pairs,
        failing_groups: (0..failing.len()).filter(|&g| failing[g]).collect(),
        detail: any.then(|| model.node_detail(min_metric, max_metric)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_microdata::{table_from_str_rows, Attribute, Schema};

    /// Paper Table 3: 3-anonymous, first group homogeneous in Income.
    fn table3() -> Table {
        let schema = Schema::new(vec![
            Attribute::int_key("Age"),
            Attribute::cat_key("ZipCode"),
            Attribute::cat_key("Sex"),
            Attribute::cat_confidential("Illness"),
            Attribute::int_confidential("Income"),
        ])
        .unwrap();
        table_from_str_rows(
            schema,
            &[
                &["20", "43102", "F", "AIDS", "50000"],
                &["20", "43102", "F", "AIDS", "50000"],
                &["20", "43102", "F", "Diabetes", "50000"],
                &["30", "43102", "M", "Diabetes", "30000"],
                &["30", "43102", "M", "Diabetes", "40000"],
                &["30", "43102", "M", "Heart Disease", "30000"],
                &["30", "43102", "M", "Heart Disease", "40000"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn spec_round_trips_through_wire_parts() {
        for spec in [
            ModelSpec::PSensitiveK { p: 2 },
            ModelSpec::DistinctL { l: 3 },
            ModelSpec::EntropyL { l: 4 },
            ModelSpec::TCloseness { t_ppm: 200_000 },
        ] {
            let back = ModelSpec::from_parts(spec.name(), spec.param()).unwrap();
            assert_eq!(back, spec);
        }
        assert!(ModelSpec::from_parts("k-map", 2).is_err());
        assert!(ModelSpec::from_parts("psens-k", u64::from(u32::MAX) + 1).is_err());
        // t <= 1: t_ppm tops out at 1,000,000; p and l only at u32::MAX.
        assert_eq!(
            ModelSpec::from_parts("t-closeness", 1_000_000),
            Ok(ModelSpec::TCloseness { t_ppm: 1_000_000 })
        );
        let err = ModelSpec::from_parts("t-closeness", 1_000_001).unwrap_err();
        assert!(err.contains("t_ppm=1000001"), "{err}");
        assert!(ModelSpec::from_parts("distinct-l", u64::from(u32::MAX)).is_ok());
    }

    #[test]
    fn psens_and_distinct_l_share_the_distinct_predicate() {
        let counts = [(0u32, 3u32), (4, 1)];
        for model in [
            ModelSpec::PSensitiveK { p: 2 },
            ModelSpec::DistinctL { l: 2 },
        ] {
            let v = model.check_group(&counts, 4, None);
            assert!(v.passes);
            assert_eq!(v.metric, 2);
            assert!(!model.check_group(&counts[..1], 3, None).passes);
            assert_eq!(model.mode(), GroupCheckMode::Distinct { target: 2 });
        }
    }

    #[test]
    fn entropy_matches_closed_forms() {
        let model = ModelSpec::EntropyL { l: 2 };
        // Uniform over 2 values: H = ln 2 ≈ 0.693147 — exactly the l=2
        // threshold.
        let v = model.check_group(&[(0, 2), (1, 2)], 4, None);
        assert!(v.passes);
        assert_eq!(v.metric, 693_147);
        // Homogeneous group: H = 0, fails any l >= 2.
        let v = model.check_group(&[(0, 5)], 5, None);
        assert!(!v.passes);
        assert_eq!(v.metric, 0);
        // (1/2, 1/4, 1/4): H = 1.5·ln 2 ≈ 1.039721 — passes l=2, fails
        // l=3 (ln 3 ≈ 1.0986).
        let v = model.check_group(&[(0, 2), (1, 1), (2, 1)], 4, None);
        assert!(v.passes);
        assert_eq!(v.metric, 1_039_721);
        assert!(
            !ModelSpec::EntropyL { l: 3 }
                .check_group(&[(0, 2), (1, 1), (2, 1)], 4, None)
                .passes
        );
        // l = 1: threshold ln 1 = 0, everything passes.
        assert!(
            ModelSpec::EntropyL { l: 1 }
                .check_group(&[(0, 5)], 5, None)
                .passes
        );
    }

    #[test]
    fn emd_matches_hand_computation() {
        // Global distribution (1/2, 1/4, 1/4) over codes 0..3.
        let global = CodeDistribution::from_codes([0, 0, 1, 2].into_iter(), 3);
        // A homogeneous all-code-0 group: EMD = 0.5·(|1 − 1/2| + 1/4 + 1/4)
        // = 0.5.
        let model = ModelSpec::TCloseness { t_ppm: 400_000 };
        let v = model.check_group(&[(0, 4)], 4, Some(&global));
        assert!(!v.passes, "EMD 0.5 exceeds t = 0.4");
        assert_eq!(v.metric, 500_000);
        // A group mirroring the global distribution: EMD = 0.
        let v = model.check_group(&[(0, 2), (1, 1), (2, 1)], 4, Some(&global));
        assert!(v.passes);
        assert_eq!(v.metric, 0);
        // t = 0.5 admits the homogeneous group exactly at the boundary.
        let at = ModelSpec::TCloseness { t_ppm: 500_000 };
        assert!(at.check_group(&[(0, 4)], 4, Some(&global)).passes);
    }

    #[test]
    fn table_check_agrees_with_the_hardcoded_checker() {
        let t = table3();
        let keys = t.schema().key_indices();
        let conf = t.schema().confidential_indices();
        for p in [1u32, 2, 3] {
            for k in [1u32, 3, 4] {
                let report = check_table_model(&t, &keys, &conf, &ModelSpec::PSensitiveK { p }, k);
                assert_eq!(
                    report.satisfied(),
                    crate::psensitive::is_p_sensitive_k_anonymous(&t, &keys, &conf, p, k),
                    "p={p} k={k}"
                );
            }
        }
        // Table 3's minimum distinct count is 1 (the first group's Income).
        let report = check_table_model(&t, &keys, &conf, &ModelSpec::PSensitiveK { p: 2 }, 3);
        assert_eq!(report.detail, Some(ModelDetail::MinDistinct(1)));
        assert_eq!(report.n_groups, 2);
    }

    #[test]
    fn detail_round_trips_through_wire_parts() {
        for detail in [
            ModelDetail::MinDistinct(3),
            ModelDetail::MinEntropyMicroNats(693_147),
            ModelDetail::MaxEmdPpm(250_000),
        ] {
            let back = ModelDetail::from_parts(detail.kind(), detail.value()).unwrap();
            assert_eq!(back, detail);
        }
        assert!(ModelDetail::from_parts("nope", 1).is_err());
    }

    #[test]
    fn conditions_p_is_a_necessary_condition_per_model() {
        assert_eq!(ModelSpec::PSensitiveK { p: 4 }.conditions_p(), 4);
        assert_eq!(ModelSpec::DistinctL { l: 3 }.conditions_p(), 3);
        // entropy >= ln l forces >= l distinct values, so Conditions 1–2
        // with p = l stay valid necessary conditions.
        assert_eq!(ModelSpec::EntropyL { l: 3 }.conditions_p(), 3);
        // No distinct-count bound follows from t-closeness.
        assert_eq!(ModelSpec::TCloseness { t_ppm: 1 }.conditions_p(), 1);
    }
}
