//! Mondrian-style multidimensional partitioning, extended with the
//! p-sensitivity constraint.
//!
//! The paper's approach is *full-domain* (global) recoding; modern toolkits
//! (ARX, Mondrian) favour *local* recoding: greedily split the dataset into
//! multidimensional boxes as long as every box still satisfies the privacy
//! constraint, then recode each box to its bounding ranges. We implement
//! LeFevre et al.'s greedy median Mondrian with the split feasibility test
//! extended to demand `p` distinct values of every confidential attribute in
//! both halves — making it a local-recoding baseline for p-sensitive
//! k-anonymity. Finer partitions than any single lattice node can offer mean
//! less information loss, at the cost of non-uniform recoding.

use crate::recode::recode_partitions;
use psens_core::observe::{elapsed_since, start_timer};
use psens_core::{SearchBudget, SearchObserver, Termination};
use psens_microdata::hash::FxHashSet;
use psens_microdata::{Table, Value};
use serde::Serialize;

/// Configuration for the Mondrian search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MondrianConfig {
    /// Minimum partition size (k-anonymity).
    pub k: u32,
    /// Minimum distinct confidential values per partition (p-sensitivity;
    /// use 1 for plain k-anonymity).
    pub p: u32,
}

/// Result of Mondrian partitioning.
#[derive(Debug, Clone)]
pub struct MondrianOutcome {
    /// The locally-recoded masked table (identifiers dropped, key attributes
    /// replaced by partition labels).
    pub masked: Table,
    /// Row index sets of the final partitions (into the identifier-free
    /// input ordering).
    pub partitions: Vec<Vec<usize>>,
    /// Number of median splits performed.
    pub splits: usize,
    /// How the run ended. An interrupted run finalizes every pending
    /// partition unsplit, so the output is still a disjoint cover — coarser
    /// (more information loss) than a completed run, never less private.
    pub termination: Termination,
}

/// Runs Mondrian over `initial`, using its schema's key and confidential
/// roles, reporting each finalized partition (row count and the time spent
/// deciding it cannot split further) to `observer`.
///
/// Each split attempt draws one (coarse) unit from `budget` — a split
/// attempt sorts the partition, so the deadline and cancel token are polled
/// on every unit rather than every [`SearchBudget::check_interval`] units.
/// When the budget trips, splitting stops and all pending partitions are
/// finalized as they stand: the result is a valid, coarser cover (anytime
/// behaviour).
///
/// # Errors
/// Fails only when the masked table cannot be rebuilt, which cannot happen
/// for well-formed inputs. An input smaller than `k` simply yields a single
/// unsplittable partition (which then fails the constraint — callers should
/// check the output with `psens_core`).
pub fn mondrian_anonymize<O: SearchObserver>(
    initial: &Table,
    config: MondrianConfig,
    budget: &SearchBudget,
    observer: &O,
) -> Result<MondrianOutcome, psens_microdata::Error> {
    let table = initial.drop_identifiers();
    let keys = table.schema().key_indices();
    let confidential = table.schema().confidential_indices();

    let state = budget.start();
    let mut final_partitions: Vec<Vec<usize>> = Vec::new();
    let mut splits = 0usize;
    let mut work: Vec<Vec<usize>> = vec![(0..table.n_rows()).collect()];
    while let Some(rows) = work.pop() {
        if state.admit_coarse().is_err() {
            // Interrupted: everything still queued becomes final as-is.
            final_partitions.push(rows);
            final_partitions.append(&mut work);
            break;
        }
        let timer = start_timer::<O>();
        match try_split(&table, &keys, &confidential, &rows, config) {
            Some((lhs, rhs)) => {
                splits += 1;
                work.push(lhs);
                work.push(rhs);
            }
            None => {
                if O::ENABLED {
                    observer.partition_finalized(rows.len(), elapsed_since(timer));
                }
                final_partitions.push(rows);
            }
        }
    }
    final_partitions.sort_by_key(|rows| rows.first().copied().unwrap_or(usize::MAX));

    let masked = recode_partitions(&table, &keys, &final_partitions)?;
    Ok(MondrianOutcome {
        masked,
        partitions: final_partitions,
        splits,
        termination: state.termination(),
    })
}

/// A partition is admissible when it meets the size and sensitivity floor.
fn admissible(
    table: &Table,
    confidential: &[usize],
    rows: &[usize],
    config: MondrianConfig,
) -> bool {
    if (rows.len() as u32) < config.k {
        return false;
    }
    confidential.iter().all(|&attr| {
        let column = table.column(attr);
        let mut seen: FxHashSet<Value> = FxHashSet::default();
        for &row in rows {
            seen.insert(column.value(row));
            if seen.len() >= config.p as usize {
                return true;
            }
        }
        (seen.len() as u32) >= config.p
    })
}

/// Attempts the best admissible median split of `rows`.
///
/// Dimensions are ranked by distinct-value count within the partition (the
/// "widest" dimension first, the classic Mondrian heuristic); the first
/// dimension yielding two admissible halves wins.
fn try_split(
    table: &Table,
    keys: &[usize],
    confidential: &[usize],
    rows: &[usize],
    config: MondrianConfig,
) -> Option<(Vec<usize>, Vec<usize>)> {
    let mut dims: Vec<(usize, usize)> = keys
        .iter()
        .map(|&attr| {
            let column = table.column(attr);
            let mut seen: FxHashSet<Value> = FxHashSet::default();
            for &row in rows {
                seen.insert(column.value(row));
            }
            (attr, seen.len())
        })
        .filter(|&(_, distinct)| distinct > 1)
        .collect();
    dims.sort_by_key(|&(attr, distinct)| (std::cmp::Reverse(distinct), attr));

    for (attr, _) in dims {
        let column = table.column(attr);
        let mut ordered: Vec<usize> = rows.to_vec();
        ordered.sort_by(|&a, &b| column.value(a).cmp(&column.value(b)).then(a.cmp(&b)));
        let median_value = column.value(ordered[ordered.len() / 2]);
        // Strict median cut: values below the median left, the rest right.
        let (lhs, rhs): (Vec<usize>, Vec<usize>) = ordered
            .iter()
            .partition(|&&row| column.value(row) < median_value);
        for (a, b) in [(&lhs, &rhs)] {
            if !a.is_empty()
                && !b.is_empty()
                && admissible(table, confidential, a, config)
                && admissible(table, confidential, b, config)
            {
                return Some((a.clone(), b.clone()));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_core::{is_k_anonymous, is_p_sensitive_k_anonymous, NoopObserver};

    fn mondrian(im: &Table, config: MondrianConfig) -> MondrianOutcome {
        mondrian_anonymize(im, config, &SearchBudget::unlimited(), &NoopObserver).unwrap()
    }
    use psens_datasets::paper::figure3_microdata;
    use psens_datasets::AdultGenerator;

    #[test]
    fn partitions_are_a_disjoint_cover() {
        let im = AdultGenerator::new(5).generate(500);
        let outcome = mondrian(&im, MondrianConfig { k: 5, p: 1 });
        let mut seen = vec![false; 500];
        for partition in &outcome.partitions {
            for &row in partition {
                assert!(!seen[row], "row {row} in two partitions");
                seen[row] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "rows must be covered");
    }

    #[test]
    fn output_satisfies_k() {
        let im = AdultGenerator::new(6).generate(500);
        let outcome = mondrian(&im, MondrianConfig { k: 5, p: 1 });
        for partition in &outcome.partitions {
            assert!(partition.len() >= 5);
        }
        let keys = outcome.masked.schema().key_indices();
        assert!(is_k_anonymous(&outcome.masked, &keys, 5));
    }

    #[test]
    fn output_satisfies_p_sensitivity_when_requested() {
        let im = AdultGenerator::new(7).generate(500);
        let outcome = mondrian(&im, MondrianConfig { k: 4, p: 2 });
        let keys = outcome.masked.schema().key_indices();
        let conf = outcome.masked.schema().confidential_indices();
        assert!(is_p_sensitive_k_anonymous(
            &outcome.masked,
            &keys,
            &conf,
            2,
            4
        ));
    }

    #[test]
    fn finer_than_full_domain_on_figure3() {
        // On Figure 3's data, k = 2: full-domain needs <S0,Z1>-level recoding
        // (7 suppressed at lower nodes); Mondrian keeps more detail by
        // splitting locally.
        let im = figure3_microdata();
        let outcome = mondrian(&im, MondrianConfig { k: 2, p: 1 });
        assert!(outcome.partitions.len() >= 2);
        let keys = outcome.masked.schema().key_indices();
        assert!(is_k_anonymous(&outcome.masked, &keys, 2));
        // No rows are suppressed by Mondrian.
        assert_eq!(outcome.masked.n_rows(), im.n_rows());
    }

    #[test]
    fn small_input_yields_one_partition() {
        let im = figure3_microdata();
        let outcome = mondrian(&im, MondrianConfig { k: 10, p: 1 });
        assert_eq!(outcome.partitions.len(), 1);
        assert_eq!(outcome.splits, 0);
        // One partition means one QI-group: trivially 10-anonymous.
        let keys = outcome.masked.schema().key_indices();
        assert!(is_k_anonymous(&outcome.masked, &keys, 10));
    }

    #[test]
    fn identifiers_are_dropped() {
        let im = AdultGenerator::new(8).generate(100);
        let outcome = mondrian(&im, MondrianConfig { k: 5, p: 1 });
        assert!(outcome.masked.schema().index_of("Id").is_err());
    }

    #[test]
    fn labels_are_ranges_and_sets() {
        let im = AdultGenerator::new(9).generate(300);
        let outcome = mondrian(&im, MondrianConfig { k: 50, p: 1 });
        let age = outcome.masked.column_by_name("Age").unwrap();
        let label = age.value(0).to_string();
        assert!(
            label.contains('-') || label.parse::<i64>().is_ok(),
            "unexpected age label {label}"
        );
    }

    #[test]
    fn interrupted_run_is_a_coarser_valid_cover() {
        let im = AdultGenerator::new(10).generate(500);
        let config = MondrianConfig { k: 5, p: 1 };
        let full = mondrian(&im, config);
        assert_eq!(full.termination, Termination::Completed);
        // One unit per split attempt: completed runs draw splits + finals.
        let attempts = (full.splits + full.partitions.len()) as u64;
        for max_nodes in [0u64, 1, attempts / 2] {
            let budget = SearchBudget::unlimited().with_max_nodes(max_nodes);
            let outcome = mondrian_anonymize(&im, config, &budget, &NoopObserver).unwrap();
            assert_eq!(outcome.termination, Termination::NodeBudgetExhausted);
            assert!(outcome.splits <= full.splits);
            // Still a disjoint cover of every row.
            let mut seen = vec![false; 500];
            for partition in &outcome.partitions {
                for &row in partition {
                    assert!(!seen[row], "row {row} in two partitions");
                    seen[row] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
            // Coarser never breaks k: partitions only get bigger.
            let keys = outcome.masked.schema().key_indices();
            assert!(is_k_anonymous(&outcome.masked, &keys, 5));
        }
    }
}
