//! One function per table/figure of the paper. Each regenerates its
//! artifact from our implementation and renders it as text.

use psens_algorithms::{exhaustive_scan, pk_minimal_generalization, Pruning, SearchRequest};
use psens_core::attack::linkage_attack;
use psens_core::conditions::{ConfidentialStats, MaxGroups};
use psens_core::{attribute_disclosure_count, max_p_of_masked};
use psens_core::{ModelSpec, NoopObserver};
use psens_datasets::hierarchies::{adult_qi_space, figure1_zipcode, figure2_qi_space};
use psens_datasets::paper::{
    figure3_microdata, table1_patients, table2_external, table3_fixed, table3_psensitive_example,
};
use psens_datasets::paper_samples;
use psens_hierarchy::{Hierarchy, IntHierarchy, IntLevel, Node, QiSpace};
use psens_microdata::render;
use std::fmt::Write as _;
use std::time::Instant;

/// §Tables 1–2: the homogeneity attack on a 2-anonymous release.
pub fn table1_and_2_attack() -> String {
    let mut out = String::new();
    let masked = table1_patients();
    let external = table2_external();
    let _ = writeln!(out, "Table 1 — masked microdata satisfying 2-anonymity:\n");
    out.push_str(&render(&masked, 10));
    let _ = writeln!(out, "\nTable 2 — external information:\n");
    out.push_str(&render(&external, 10));

    let keys = masked.schema().key_indices();
    let conf = masked.schema().confidential_indices();
    let _ = writeln!(
        out,
        "\nk-anonymity: k = {} | attribute disclosures: {}",
        psens_core::max_k(&masked, &keys),
        attribute_disclosure_count(&masked, &keys, &conf)
    );

    // Linkage with the public "multiples of 10" age recoding.
    let cuts: Vec<i64> = (1..=9).map(|d| d * 10).collect();
    let mut labels: Vec<String> = vec!["0".into()];
    labels.extend(cuts.iter().map(|c| c.to_string()));
    let qi = QiSpace::new(vec![
        (
            "Age".into(),
            Hierarchy::Int(
                IntHierarchy::new(vec![IntLevel::Ranges { cuts, labels }])
                    .expect("valid hierarchy"),
            ),
        ),
        (
            "ZipCode".into(),
            psens_hierarchy::builders::flat_hierarchy(vec!["43102"]).expect("valid"),
        ),
        (
            "Sex".into(),
            psens_hierarchy::builders::flat_hierarchy(vec!["M", "F"]).expect("valid"),
        ),
    ])
    .expect("valid QI space");
    let findings = linkage_attack(&masked, &qi, &Node(vec![1, 0, 0]), &external, "Name")
        .expect("compatible inputs");
    for f in &findings {
        if f.learned.is_empty() {
            let _ = writeln!(
                out,
                "  {:8} -> {} candidates, learns nothing",
                f.individual.to_string(),
                f.candidate_rows.len()
            );
        } else {
            let learned: Vec<String> = f
                .learned
                .iter()
                .map(|(a, v)| format!("{a} = {v}"))
                .collect();
            let _ = writeln!(
                out,
                "  {:8} -> {} candidates, LEARNS {}",
                f.individual.to_string(),
                f.candidate_rows.len(),
                learned.join(", ")
            );
        }
    }
    out
}

/// §Table 3: the p-sensitivity walkthrough (1-sensitive vs 2-sensitive).
pub fn table3_walkthrough() -> String {
    let mut out = String::new();
    let mm = table3_psensitive_example();
    let keys = mm.schema().key_indices();
    let conf = mm.schema().confidential_indices();
    let _ = writeln!(out, "Table 3 — masked microdata:\n");
    out.push_str(&render(&mm, 10));
    for profile in psens_core::group_profiles(&mm, &keys, &conf) {
        let key: Vec<String> = profile.key.iter().map(ToString::to_string).collect();
        let _ = writeln!(
            out,
            "  group ({}) size {}: distinct Illness = {}, distinct Income = {}",
            key.join(", "),
            profile.size,
            profile.distinct[0],
            profile.distinct[1]
        );
    }
    let _ = writeln!(
        out,
        "=> satisfies {}-sensitive 3-anonymity",
        max_p_of_masked(&mm, &keys, &conf)
    );
    let fixed = table3_fixed();
    let _ = writeln!(
        out,
        "with the first income changed to 40,000 => p = {}",
        max_p_of_masked(&fixed, &keys, &conf)
    );
    out
}

/// §Figure 1: domain/value generalization hierarchies for ZipCode and Sex.
pub fn figure1_hierarchies() -> String {
    let mut out = String::new();
    let zip = figure1_zipcode();
    let _ = writeln!(out, "ZipCode DGH (Z0 -> Z1 -> Z2):");
    for level in 0..zip.n_levels() {
        let labels = zip.labels_at(level).expect("level in range");
        let _ = writeln!(out, "  Z{level} = {{{}}}", labels.join(", "));
    }
    let _ = writeln!(out, "Sex DGH (S0 -> S1):");
    let _ = writeln!(out, "  S0 = {{M, F}}");
    let _ = writeln!(out, "  S1 = {{*}}");
    let _ = writeln!(out, "Value generalization (VGH) edges for ZipCode:");
    for ground in zip.ground() {
        let l1 = zip.generalize(ground, 1).expect("in domain");
        let _ = writeln!(out, "  {ground} -> {l1} -> *****");
    }
    out
}

/// §Figure 2: the Sex × ZipCode generalization lattice with heights.
pub fn figure2_lattice() -> String {
    let mut out = String::new();
    let qi = figure2_qi_space();
    let gl = qi.lattice();
    let _ = writeln!(
        out,
        "lattice: {} nodes, height(GL) = {}",
        gl.node_count(),
        gl.height()
    );
    for h in (0..=gl.height()).rev() {
        let nodes: Vec<String> = gl
            .nodes_at_height(h)
            .iter()
            .map(|n| qi.describe_node(n))
            .collect();
        let _ = writeln!(out, "  height {h}: {}", nodes.join("  "));
    }
    out
}

/// §Figure 3 + Table 4: per-node 3-anonymity violations and the 3-minimal
/// generalizations for every suppression threshold.
pub fn figure3_and_table4() -> String {
    let mut out = String::new();
    let im = figure3_microdata();
    let qi = figure2_qi_space();
    let _ = writeln!(out, "Figure 3 — tuples violating 3-anonymity per node:");
    let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 1 }, 3, 0);
    let scan = exhaustive_scan(&im, &qi, &req, &NoopObserver).expect("hierarchies cover data");
    let mut annotations = scan.annotations.clone();
    annotations.sort_by_key(|(n, _)| std::cmp::Reverse(n.height()));
    for (node, violating) in &annotations {
        let _ = writeln!(out, "  {} ({violating})", qi.describe_node(node));
    }
    let _ = writeln!(out, "\nTable 4 — 3-minimal generalizations by TS:");
    for ts in 0..=10usize {
        let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 1 }, 3, ts);
        let scan = exhaustive_scan(&im, &qi, &req, &NoopObserver).expect("hierarchies cover data");
        let nodes: Vec<String> = scan.minimal.iter().map(|n| qi.describe_node(n)).collect();
        let _ = writeln!(out, "  TS = {ts:2}: {}", nodes.join(" and "));
    }
    out
}

/// §Tables 5–6: frequency sets, cumulative frequency sets, `cf_i`, and the
/// implied `maxP` / `maxGroups` bounds of Example 1.
pub fn tables5_and_6() -> String {
    let mut out = String::new();
    let im = psens_datasets::paper::example1_microdata();
    let conf = im.schema().confidential_indices();
    let stats = ConfidentialStats::compute(&im, &conf);
    let _ = writeln!(out, "Table 5 — descending frequency sets f_i^j:");
    for attr in &stats.per_attribute {
        let _ = writeln!(
            out,
            "  {} (s_j = {}): {:?}",
            attr.name, attr.s, attr.descending
        );
    }
    let _ = writeln!(out, "\nTable 6 — cumulative frequency sets cf_i^j:");
    for attr in &stats.per_attribute {
        let _ = writeln!(out, "  {}: {:?}", attr.name, attr.cumulative);
    }
    let _ = writeln!(out, "  cf_i = max_j cf_i^j: {:?}", stats.cf);
    let _ = writeln!(out, "\nCondition 1: maxP = {}", stats.max_p());
    let _ = writeln!(out, "Condition 2: maxGroups by p:");
    for p in 2..=6u32 {
        let bound = match stats.max_groups(p) {
            MaxGroups::Bounded(b) => b.to_string(),
            MaxGroups::Unbounded => "unbounded".into(),
            MaxGroups::Unsatisfiable => "unsatisfiable".into(),
        };
        let _ = writeln!(out, "  p = {p}: {bound}");
    }
    out
}

/// §Table 7: the Adult key-attribute generalizations and the lattice they
/// span.
pub fn table7_adult_hierarchies() -> String {
    let mut out = String::new();
    let qi = adult_qi_space();
    let gl = qi.lattice();
    for (i, name) in qi.names().iter().enumerate() {
        let h = qi.hierarchy(i);
        let _ = writeln!(
            out,
            "  {name}: {} domains (levels 0..={})",
            h.n_levels(),
            h.max_level()
        );
    }
    let _ = writeln!(
        out,
        "lattice GL_A: {} nodes (= 4 x 3 x 4 x 2), height(GL_A) = {}",
        gl.node_count(),
        gl.height()
    );
    out
}

/// One row of the Table 8 reproduction.
#[derive(Debug, Clone)]
pub struct Table8Row {
    /// Sample label ("400" / "4000").
    pub size: &'static str,
    /// Anonymity level checked.
    pub k: u32,
    /// Lattice node found by Samarati's binary search (paper style).
    pub node: String,
    /// Attribute disclosures left in the k-anonymous masking.
    pub disclosures: usize,
    /// Tuples suppressed at that node.
    pub suppressed: usize,
}

/// §Table 8 (data): runs the Section 4 experiment on the synthetic Adult
/// samples with suppression threshold `ts` (the paper's nodes match TS = 0
/// best; see EXPERIMENTS.md).
pub fn table8_rows(ts: usize) -> Vec<Table8Row> {
    let qi = adult_qi_space();
    let (s400, s4000) = paper_samples();
    let mut rows = Vec::new();
    for (size, table) in [("400", &s400), ("4000", &s4000)] {
        for k in [2u32, 3] {
            let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 1 }, k, ts);
            let outcome = pk_minimal_generalization(table, &qi, &req, &NoopObserver)
                .expect("hierarchies cover data");
            let (node, masked) = match (&outcome.node, &outcome.masked) {
                (Some(n), Some(m)) => (n, m),
                _ => continue,
            };
            let keys = masked.schema().key_indices();
            let conf = masked.schema().confidential_indices();
            rows.push(Table8Row {
                size,
                k,
                node: qi.describe_node(node),
                disclosures: attribute_disclosure_count(masked, &keys, &conf),
                suppressed: outcome.suppressed,
            });
        }
    }
    rows
}

/// §Table 8 (text): the rendered reproduction next to the paper's values.
pub fn table8_adult() -> String {
    let mut out = String::new();
    let paper: [(&str, u32, &str, usize); 4] = [
        ("400", 2, "<A1, M1, R1, S1>", 6),
        ("400", 3, "<A1, M1, R2, S1>", 2),
        ("4000", 2, "<A2, M1, R1, S1>", 4),
        ("4000", 3, "<A2, M1, R2, S1>", 0),
    ];
    let _ = writeln!(
        out,
        "{:<24}{:<20}{:>12}   {:<20}{:>12}",
        "Size and k-anonymity", "node (ours)", "disclosures", "node (paper)", "paper"
    );
    for (row, (psize, pk, pnode, pdisc)) in table8_rows(0).iter().zip(paper) {
        debug_assert_eq!(row.size, psize);
        debug_assert_eq!(row.k, pk);
        let _ = writeln!(
            out,
            "{:<24}{:<20}{:>12}   {:<20}{:>12}",
            format!("{} and {}-anonymity", row.size, row.k),
            row.node,
            row.disclosures,
            pnode,
            pdisc
        );
    }
    out
}

/// §Future work: Algorithm 3 with vs without the necessary conditions.
pub fn algorithm3_ablation() -> String {
    let mut out = String::new();
    let qi = adult_qi_space();
    let (s400, s4000) = paper_samples();
    let _ = writeln!(
        out,
        "{:<28}{:>10}{:>12}{:>12}{:>12}",
        "workload", "nodes", "cond2 rej", "time (ms)", "node"
    );
    for (label, table, p, k, ts) in [
        ("400, p=2, k=2", &s400, 2u32, 2u32, 0usize),
        ("4000, p=2, k=3", &s4000, 2, 3, 0),
        ("4000, p=3 (impossible)", &s4000, 3, 3, 0),
    ] {
        for (mode, pruning) in [
            ("unpruned", Pruning::None),
            ("pruned", Pruning::NecessaryConditions),
        ] {
            let start = Instant::now();
            let req = SearchRequest {
                pruning,
                ..SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts)
            };
            let outcome = pk_minimal_generalization(table, &qi, &req, &NoopObserver)
                .expect("hierarchies cover data");
            let elapsed = start.elapsed().as_secs_f64() * 1000.0;
            let node = outcome
                .node
                .map(|n| qi.describe_node(&n))
                .unwrap_or_else(|| "none".into());
            let _ = writeln!(
                out,
                "{:<28}{:>10}{:>12}{:>12.2}{:>14}",
                format!("{label} [{mode}]"),
                outcome.stats.nodes_evaluated,
                outcome.stats.rejected_condition2,
                elapsed,
                node
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sections_render() {
        for (name, text) in [
            ("t12", table1_and_2_attack()),
            ("t3", table3_walkthrough()),
            ("f1", figure1_hierarchies()),
            ("f2", figure2_lattice()),
            ("f3t4", figure3_and_table4()),
            ("t56", tables5_and_6()),
            ("t7", table7_adult_hierarchies()),
        ] {
            assert!(!text.is_empty(), "{name} must render");
        }
    }

    #[test]
    fn attack_section_finds_the_diabetes_leak() {
        let text = table1_and_2_attack();
        assert!(text.contains("LEARNS Illness = Diabetes"));
        assert!(text.contains("attribute disclosures: 1"));
    }

    #[test]
    fn table4_section_matches_paper_cells() {
        let text = figure3_and_table4();
        assert!(text.contains("TS =  0: <S0, Z2>"));
        assert!(text.contains("TS =  2: <S0, Z2> and <S1, Z1>"));
        assert!(text.contains("TS =  7: <S0, Z1> and <S1, Z0>"));
        assert!(text.contains("TS = 10: <S0, Z0>"));
    }

    #[test]
    fn tables5_6_section_matches_walkthrough() {
        let text = tables5_and_6();
        assert!(text.contains("maxP = 5"));
        assert!(text.contains("p = 2: 300"));
        assert!(text.contains("p = 3: 100"));
        assert!(text.contains("p = 4: 50"));
        assert!(text.contains("p = 5: 25"));
        assert!(text.contains("p = 6: unsatisfiable"));
    }

    #[test]
    fn table8_has_four_rows_and_k_shape() {
        let rows = table8_rows(0);
        assert_eq!(rows.len(), 4);
        // Shape: disclosures decrease as k grows, at both sizes.
        assert!(
            rows[0].disclosures >= rows[1].disclosures,
            "400: k=2 >= k=3"
        );
        assert!(
            rows[2].disclosures >= rows[3].disclosures,
            "4000: k=2 >= k=3"
        );
        // k-anonymity alone leaves disclosures somewhere (the paper's point).
        assert!(rows.iter().any(|r| r.disclosures > 0));
    }
}
