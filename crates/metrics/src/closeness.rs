//! Distribution-closeness measures (t-closeness, Li et al., ICDE 2007).
//!
//! Diversity counts what values a group exposes; closeness asks how much
//! the group's confidential *distribution* deviates from the whole table's.
//! A group can be perfectly diverse yet carry a strong signal — the
//! t-closeness paper's salary example puts the three lowest salaries in one
//! group, so an intruder learns "low income" despite 3-diversity. The earth
//! mover's distance here uses the equal-distance ground metric (every pair
//! of values one unit apart), where EMD degenerates to half the L1 distance
//! — the same measure `psens_core::ModelSpec::TCloseness` enforces, kept in
//! floating point for reporting.

use psens_microdata::{GroupBy, Table};
use serde::Serialize;

/// Per-table closeness profile of one confidential attribute.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClosenessReport {
    /// Attribute index the report describes.
    pub attribute: usize,
    /// Maximum, over groups, of the equal-distance EMD to the whole-table
    /// distribution — the table satisfies t-closeness iff this is `<= t`.
    pub max_emd: f64,
    /// Group-size-weighted mean EMD — the average per-tuple distribution
    /// signal a release leaks.
    pub mean_emd: f64,
}

/// Computes the closeness profile of `attribute` within each QI-group.
///
/// Returns `None` for an empty table (no groups to profile).
pub fn closeness_report(
    table: &Table,
    keys: &[usize],
    attribute: usize,
) -> Option<ClosenessReport> {
    let groups = GroupBy::compute(table, keys);
    if groups.n_groups() == 0 {
        return None;
    }
    let (codes, n_distinct) = table.column(attribute).dense_codes();
    let n_rows = codes.len() as f64;
    // Whole-table and per-group histograms over dense codes.
    let mut global = vec![0u32; n_distinct as usize];
    let mut histograms: Vec<Vec<u32>> = vec![Vec::new(); groups.n_groups()];
    for (row, &code) in codes.iter().enumerate() {
        global[code as usize] += 1;
        let g = groups.group_of(row) as usize;
        if histograms[g].is_empty() {
            histograms[g] = vec![0; n_distinct as usize];
        }
        histograms[g][code as usize] += 1;
    }
    let mut max_emd = 0.0f64;
    let mut weighted = 0.0f64;
    for (g, histogram) in histograms.iter().enumerate() {
        let size = f64::from(groups.sizes()[g]);
        let l1: f64 = histogram
            .iter()
            .zip(global.iter())
            .map(|(&count, &total)| (f64::from(count) / size - f64::from(total) / n_rows).abs())
            .sum();
        let emd = 0.5 * l1;
        max_emd = max_emd.max(emd);
        weighted += size * emd;
    }
    Some(ClosenessReport {
        attribute,
        max_emd,
        mean_emd: weighted / n_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_core::{CodeDistribution, ModelSpec, FIXED_POINT_SCALE};
    use psens_microdata::{table_from_str_rows, Attribute, Schema};

    fn table(rows: &[&[&str]]) -> Table {
        let schema = Schema::new(vec![
            Attribute::cat_key("Zip"),
            Attribute::cat_confidential("Illness"),
        ])
        .unwrap();
        table_from_str_rows(schema, rows).unwrap()
    }

    #[test]
    fn single_group_has_zero_distance() {
        // One group IS the table: its distribution matches by definition.
        let t = table(&[&["A", "x"], &["A", "y"], &["A", "y"]]);
        let report = closeness_report(&t, &[0], 1).unwrap();
        assert_eq!(report.max_emd, 0.0);
        assert_eq!(report.mean_emd, 0.0);
    }

    #[test]
    fn concentrating_a_value_costs_its_excess_mass() {
        // Global (1/2, 1/2); each group homogeneous: EMD = 1/2 everywhere.
        let t = table(&[&["A", "x"], &["A", "x"], &["B", "y"], &["B", "y"]]);
        let report = closeness_report(&t, &[0], 1).unwrap();
        assert!((report.max_emd - 0.5).abs() < 1e-12);
        assert!((report.mean_emd - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_table_has_no_report() {
        let t = table(&[&["A", "x"]]).filter(|_| false);
        assert!(closeness_report(&t, &[0], 1).is_none());
    }

    #[test]
    fn report_agrees_with_the_enforcing_model() {
        // The float report and the core model's fixed-point group metric
        // must describe the same distance.
        let t = table(&[
            &["A", "x"],
            &["A", "x"],
            &["A", "y"],
            &["B", "y"],
            &["B", "z"],
        ]);
        let report = closeness_report(&t, &[0], 1).unwrap();
        let (codes, n_codes) = t.column(1).dense_codes();
        let global = CodeDistribution::from_codes(codes.iter().copied(), n_codes);
        let model = ModelSpec::TCloseness { t_ppm: 1_000_000 };
        // Group A: codes (x,x,y); group B: codes (y,z).
        let a = model.check_group(&[(0, 2), (1, 1)], 3, Some(&global));
        let b = model.check_group(&[(1, 1), (2, 1)], 2, Some(&global));
        let worst = a.metric.max(b.metric);
        assert!(((report.max_emd * FIXED_POINT_SCALE).round() as u64).abs_diff(worst) <= 1);
    }
}
