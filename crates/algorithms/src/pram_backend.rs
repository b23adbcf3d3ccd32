//! Greedy PRAM masking backend: repair the *confidential* attributes
//! instead of climbing the generalization lattice.
//!
//! The generalize+suppress pipeline buys sensitivity by coarsening the
//! quasi-identifiers until every surviving QI-group carries enough distinct
//! confidential values. This backend takes the opposite trade: fix the QI
//! masking at the **k-minimal** node (sensitivity ignored), then perturb the
//! confidential cells of the still-failing groups with PRAM
//! ([`psens_methods::pram`], the paper's reference [10]) until the requested
//! privacy model holds. Utility of the quasi-identifiers is maximal — they
//! are exactly as generalized as plain k-anonymity requires — at the price
//! of noise in the confidential column, published as a transition matrix so
//! analysts can correct estimates.
//!
//! PRAM only ever touches confidential attributes, so the QI partition — and
//! with it k-anonymity and the suppression count — is invariant across
//! repair sweeps.
//!
//! The backend applies to the models whose group verdict is *diversity-like*
//! (re-drawing values toward the uniform distribution can only help):
//! p-sensitive k-anonymity and distinct/entropy l-diversity. t-closeness
//! wants every group distribution *near the table's global* distribution,
//! which uniform-retention PRAM does not steer toward, so it is refused
//! rather than silently left to spin.

use crate::request::SearchRequest;
use crate::samarati::pk_minimal_generalization;
use psens_core::{check_table_model, ModelSpec, NoopObserver, Termination};
use psens_hierarchy::{Node, QiSpace};
use psens_methods::pram::{pram, PramMatrix};
use psens_microdata::{CatColumn, Column, GroupBy, Table};

/// Knobs for the greedy PRAM repair loop.
#[derive(Debug, Clone, Copy)]
pub struct PramBackendConfig {
    /// Seed for the PRAM draws; equal seeds give byte-identical outputs.
    pub seed: u64,
    /// Retention probability of the uniform-retention matrix: each repaired
    /// cell keeps its value with this probability, otherwise re-draws
    /// uniformly over the attribute's observed domain.
    pub retain: f64,
    /// Cap on repair sweeps before giving up (an unsatisfiable model — e.g.
    /// `l` above the attribute's domain size — would otherwise loop
    /// forever).
    pub max_sweeps: usize,
}

impl Default for PramBackendConfig {
    fn default() -> Self {
        PramBackendConfig {
            seed: 0,
            retain: 0.5,
            max_sweeps: 64,
        }
    }
}

/// Result of a PRAM-backend masking.
#[derive(Debug, Clone)]
pub struct PramOutcome {
    /// The k-minimal generalization node the QI attributes were fixed at;
    /// `None` when even plain k-anonymity is unachievable.
    pub node: Option<Node>,
    /// The released table: generalized to `node`, suppressed within `ts`,
    /// confidential cells PRAM-repaired. `None` iff `node` is `None`.
    pub masked: Option<Table>,
    /// Tuples suppressed at `node` (identical to the k-anonymity search's
    /// count — PRAM never suppresses).
    pub suppressed: usize,
    /// Whether the released table satisfies the requested model. `false`
    /// after `max_sweeps` exhausted (or with no categorical confidential
    /// attribute to repair).
    pub satisfied: bool,
    /// PRAM repair sweeps actually run (0 when the k-minimal masking
    /// already satisfied the model).
    pub sweeps: usize,
    /// Confidential cells whose released value differs from the
    /// generalized-only table's value.
    pub perturbed_cells: usize,
}

/// Errors from the PRAM backend.
#[derive(Debug, Clone, PartialEq)]
pub enum PramBackendError {
    /// The model's group property is not diversity-like; PRAM repair does
    /// not converge toward it.
    Unsupported(String),
    /// The underlying k-anonymity lattice search failed.
    Search(psens_hierarchy::Error),
    /// A PRAM application failed (non-categorical attribute, bad matrix).
    Pram(psens_methods::pram::Error),
}

impl std::fmt::Display for PramBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PramBackendError::Unsupported(msg) => write!(f, "PRAM backend unsupported: {msg}"),
            PramBackendError::Search(e) => write!(f, "k-anonymity search failed: {e}"),
            PramBackendError::Pram(e) => write!(f, "PRAM failed: {e}"),
        }
    }
}

impl std::error::Error for PramBackendError {}

/// Masks `initial` for `spec` + k-anonymity by **generalizing only as far
/// as k-anonymity needs**, then greedily PRAM-repairing the confidential
/// attributes of failing QI-groups.
///
/// Each sweep re-draws the confidential cells of every currently-failing
/// group from a uniform-retention matrix over the attribute's observed
/// domain, then re-checks the model with [`check_table_model`]; untouched
/// groups keep their exact values. The loop stops at the first satisfying
/// sweep or at `config.max_sweeps`.
pub fn pram_minimal_masking(
    initial: &Table,
    qi: &QiSpace,
    spec: ModelSpec,
    k: u32,
    ts: usize,
    config: PramBackendConfig,
) -> Result<PramOutcome, PramBackendError> {
    if let ModelSpec::TCloseness { .. } = spec {
        return Err(PramBackendError::Unsupported(
            "t-closeness needs group distributions near the global one; \
             uniform-retention PRAM drives them toward uniform instead"
                .to_owned(),
        ));
    }
    // Stage 1: the cheapest QI masking that is k-anonymous within ts.
    let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 1 }, k, ts);
    let search = pk_minimal_generalization(initial, qi, &req, &NoopObserver)
        .map_err(PramBackendError::Search)?;
    debug_assert_eq!(search.termination, Termination::Completed);
    let (Some(node), Some(baseline)) = (search.node, search.masked) else {
        return Ok(PramOutcome {
            node: None,
            masked: None,
            suppressed: 0,
            satisfied: false,
            sweeps: 0,
            perturbed_cells: 0,
        });
    };

    let schema = baseline.schema();
    let keys = schema.key_indices();
    let conf = schema.confidential_indices();
    // PRAM never changes a key attribute, so the QI partition, and with it
    // the first-appearance group ids `check_table_model` reports, is the
    // baseline's in every sweep: compute the rows of each group once. Only
    // the failing groups are read, so the check runs at k = 1.
    let rows_by_group = GroupBy::compute(&baseline, &keys).rows_by_group();
    let failing_groups =
        |table: &Table| check_table_model(table, &keys, &conf, &spec, 1).failing_groups;

    let mut current = baseline.clone();
    let mut sweeps = 0;
    let mut failing = failing_groups(&current);
    while !failing.is_empty() && sweeps < config.max_sweeps {
        let mut repair = vec![false; current.n_rows()];
        for &g in &failing {
            for &row in &rows_by_group[g] {
                repair[row as usize] = true;
            }
        }
        let mut repaired_any = false;
        for &attr in &conf {
            let Column::Cat(col) = current.column(attr) else {
                // Integer confidential attributes cannot be PRAMed; if the
                // failure lives there the sweep cap ends the loop honestly.
                continue;
            };
            let domain: Vec<String> = (0..col.dictionary().len() as u32)
                .filter_map(|code| col.dictionary().text(code).map(str::to_owned))
                .collect();
            if domain.len() < 2 {
                continue;
            }
            let matrix = PramMatrix::uniform_retention(domain, config.retain)
                .map_err(PramBackendError::Pram)?;
            // Deterministic per-(sweep, attribute) stream.
            let seed = config
                .seed
                .wrapping_add((sweeps as u64) << 32)
                .wrapping_add(attr as u64);
            let released = pram(&current, attr, &matrix, seed).map_err(PramBackendError::Pram)?;
            current = splice_repaired(&current, &released, attr, &repair);
            repaired_any = true;
        }
        if !repaired_any {
            break;
        }
        sweeps += 1;
        failing = failing_groups(&current);
    }

    let perturbed_cells = (0..current.n_rows())
        .map(|row| {
            conf.iter()
                .filter(|&&attr| current.value(row, attr) != baseline.value(row, attr))
                .count()
        })
        .sum();
    Ok(PramOutcome {
        node: Some(node),
        masked: Some(current),
        suppressed: search.suppressed,
        satisfied: failing.is_empty(),
        sweeps,
        perturbed_cells,
    })
}

/// `current` with `attr` replaced by: `released`'s value on repair rows,
/// `current`'s value elsewhere.
fn splice_repaired(current: &Table, released: &Table, attr: usize, repair: &[bool]) -> Table {
    let Column::Cat(cur) = current.column(attr) else {
        unreachable!("splice only runs on categorical attributes");
    };
    let Column::Cat(rel) = released.column(attr) else {
        unreachable!("PRAM preserves the column kind");
    };
    let mut out = CatColumn::new();
    for (row, &repaired) in repair.iter().enumerate() {
        let col = if repaired { rel } else { cur };
        match col.code_at(row) {
            Some(code) => out.push(col.dictionary().text(code).expect("code from dictionary")),
            None => out.push_missing(),
        }
    }
    current
        .with_column_replaced(attr, Column::Cat(out))
        .expect("same kind and length")
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_core::{is_k_anonymous, is_p_sensitive_k_anonymous};
    use psens_datasets::hierarchies::figure2_qi_space;
    use psens_datasets::paper::figure3_microdata;
    use psens_microdata::{table_from_str_rows, Attribute, Schema, Value};

    /// A table whose k=2-minimal masking is the identity (both groups are
    /// large enough) but whose first group is homogeneous in Illness — the
    /// generalize+suppress pipeline would climb the lattice; the PRAM
    /// backend must repair in place.
    fn homogeneous_group_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::cat_key("Sex"),
            Attribute::cat_key("ZipCode"),
            Attribute::cat_confidential("Illness"),
        ])
        .unwrap();
        table_from_str_rows(
            schema,
            &[
                &["M", "41076", "Flu"],
                &["M", "41076", "Flu"],
                &["F", "43102", "Flu"],
                &["F", "43102", "HIV"],
                &["F", "43102", "Asthma"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn repairs_p_sensitivity_without_extra_generalization() {
        let im = homogeneous_group_table();
        let qi = figure2_qi_space();
        let outcome = pram_minimal_masking(
            &im,
            &qi,
            ModelSpec::PSensitiveK { p: 2 },
            2,
            0,
            PramBackendConfig::default(),
        )
        .unwrap();
        assert!(outcome.satisfied, "{outcome:?}");
        // The QI node is the k-minimal one — the identity, no
        // sensitivity-driven climb — and repair actually ran.
        let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 1 }, 2, 0);
        let k_only = pk_minimal_generalization(&im, &qi, &req, &NoopObserver).unwrap();
        assert_eq!(outcome.node, k_only.node);
        assert!(outcome.sweeps >= 1, "{outcome:?}");
        // Pinned: the failing set each sweep sees decides which cells are
        // re-drawn, so these figures change if it does.
        assert_eq!(outcome.sweeps, 2, "{outcome:?}");
        assert_eq!(outcome.perturbed_cells, 1, "{outcome:?}");
        let masked = outcome.masked.unwrap();
        let keys = masked.schema().key_indices();
        let conf = masked.schema().confidential_indices();
        assert!(is_k_anonymous(&masked, &keys, 2));
        assert!(is_p_sensitive_k_anonymous(&masked, &keys, &conf, 2, 2));
        // Only the failing group's cells were touched: the (F, 43102)
        // group already carried 3 distinct illnesses.
        for (row, illness) in [(2, "Flu"), (3, "HIV"), (4, "Asthma")] {
            assert_eq!(masked.value(row, 2), Value::Text(illness.into()));
        }
        assert_eq!(conf, vec![2]);
        let illnesses: Vec<Value> = (0..masked.n_rows())
            .map(|row| masked.value(row, 2))
            .collect();
        let expected = ["Asthma", "Flu", "Flu", "HIV", "Asthma"];
        assert_eq!(illnesses, expected.map(|text| Value::Text(text.into())));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let im = homogeneous_group_table();
        let qi = figure2_qi_space();
        let run = |seed| {
            pram_minimal_masking(
                &im,
                &qi,
                ModelSpec::DistinctL { l: 2 },
                2,
                0,
                PramBackendConfig {
                    seed,
                    ..PramBackendConfig::default()
                },
            )
            .unwrap()
        };
        let (a, b) = (run(7), run(7));
        assert_eq!(a.masked, b.masked);
        assert_eq!(a.sweeps, b.sweeps);
        assert_eq!(a.perturbed_cells, b.perturbed_cells);
        assert!(a.satisfied, "{a:?}");
    }

    #[test]
    fn untouched_when_model_already_holds() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let outcome = pram_minimal_masking(
            &im,
            &qi,
            ModelSpec::PSensitiveK { p: 1 },
            3,
            0,
            PramBackendConfig::default(),
        )
        .unwrap();
        assert!(outcome.satisfied);
        assert_eq!(outcome.sweeps, 0);
        assert_eq!(outcome.perturbed_cells, 0);
    }

    #[test]
    fn t_closeness_is_refused() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let err = pram_minimal_masking(
            &im,
            &qi,
            ModelSpec::TCloseness { t_ppm: 300_000 },
            2,
            0,
            PramBackendConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PramBackendError::Unsupported(_)));
    }

    #[test]
    fn impossible_model_gives_up_at_the_sweep_cap() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        // Illness has 3 categories; 5 distinct values per group can never
        // hold, so the repair loop must terminate unsatisfied.
        let outcome = pram_minimal_masking(
            &im,
            &qi,
            ModelSpec::DistinctL { l: 5 },
            2,
            0,
            PramBackendConfig {
                max_sweeps: 4,
                ..PramBackendConfig::default()
            },
        )
        .unwrap();
        assert!(!outcome.satisfied);
        assert_eq!(outcome.sweeps, 4);
    }
}
