//! The paper's motivating healthcare scenario (Section 2, Tables 1–2): a
//! 2-anonymous patient release still leaks diagnoses to an intruder holding
//! external information, because one QI-group is homogeneous in Illness.
//! p-sensitive k-anonymity closes the leak.
//!
//! Run with: `cargo run --example healthcare_attack`

use psens::core::attack::linkage_attack;
use psens::hierarchy::{CatHierarchy, Hierarchy, IntHierarchy, IntLevel};
use psens::prelude::*;

/// Ages generalized "to multiples of 10", the recoding the paper says the
/// intruder knows: 29 -> "20", 38 -> "30", 51 -> "50"; one more level
/// suppresses the attribute entirely.
fn decade_hierarchy() -> Hierarchy {
    let cuts: Vec<i64> = (1..=9).map(|d| d * 10).collect();
    let mut labels: Vec<String> = vec!["0".into()];
    labels.extend(cuts.iter().map(|c| c.to_string()));
    Hierarchy::Int(
        IntHierarchy::new(vec![
            IntLevel::Ranges { cuts, labels },
            IntLevel::Single("*".into()),
        ])
        .expect("valid hierarchy"),
    )
}

fn main() {
    let masked = psens::datasets::paper::table1_patients();
    let external = psens::datasets::paper::table2_external();

    println!("Released microdata (paper Table 1, 2-anonymous):\n");
    println!("{}", psens::microdata::render(&masked, 10));
    println!("Intruder's external information (paper Table 2):\n");
    println!("{}", psens::microdata::render(&external, 10));

    let keys = masked.schema().key_indices();
    let conf = masked.schema().confidential_indices();
    assert!(is_k_anonymous(&masked, &keys, 2));
    println!(
        "The release is 2-anonymous; identity disclosure probability <= 1/2.\n\
         Attribute disclosures present: {}\n",
        attribute_disclosure_count(&masked, &keys, &conf)
    );

    // The intruder generalizes Table 2 with the public recoding and links.
    let attack_qi = QiSpace::new(vec![
        ("Age".into(), decade_hierarchy()),
        (
            "ZipCode".into(),
            builders::flat_hierarchy(vec!["43102"]).unwrap(),
        ),
        (
            "Sex".into(),
            builders::flat_hierarchy(vec!["M", "F"]).unwrap(),
        ),
    ])
    .expect("valid QI space");
    let node = Node(vec![1, 0, 0]); // Age to decades, ZipCode & Sex raw

    let findings = linkage_attack(&masked, &attack_qi, &node, &external, "Name")
        .expect("attack inputs are compatible");
    println!("Linkage attack results:");
    for f in &findings {
        let identity = if f.identity_disclosed {
            "RE-IDENTIFIED".to_owned()
        } else {
            format!("{} candidates", f.candidate_rows.len())
        };
        if f.learned.is_empty() {
            println!(
                "  {:8} -> {identity}; learns nothing",
                f.individual.to_string()
            );
        } else {
            let learned: Vec<String> = f
                .learned
                .iter()
                .map(|(attr, value)| format!("{attr} = {value}"))
                .collect();
            println!(
                "  {:8} -> {identity}; LEARNS {}",
                f.individual.to_string(),
                learned.join(", ")
            );
        }
    }

    // ------------------------------------------------------------------
    // The fix: demand 2-sensitivity and re-generalize. The released table's
    // Age already holds decade labels, so the repair hierarchies start from
    // those labels.
    // ------------------------------------------------------------------
    println!("\nRepairing with 2-sensitive 2-anonymity (Algorithm 3):\n");
    let repair_qi = QiSpace::new(vec![
        (
            "Age".into(),
            Hierarchy::Cat(
                CatHierarchy::identity(["20", "30", "50"])
                    .and_then(|h| h.push_top("*"))
                    .unwrap(),
            ),
        ),
        (
            "ZipCode".into(),
            builders::flat_hierarchy(vec!["43102"]).unwrap(),
        ),
        (
            "Sex".into(),
            builders::flat_hierarchy(vec!["M", "F"]).unwrap(),
        ),
    ])
    .expect("valid QI space");
    let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 2 }, 2, 0);
    let repaired = pk_minimal_generalization(&masked, &repair_qi, &req, &NoopObserver)
        .expect("hierarchies cover the data");
    match (&repaired.node, &repaired.masked) {
        (Some(node), Some(table)) => {
            println!(
                "p-k-minimal node: {} (height {})\n",
                repair_qi.describe_node(node),
                node.height()
            );
            println!("{}", psens::microdata::render(table, 10));
            let keys = table.schema().key_indices();
            let conf = table.schema().confidential_indices();
            assert!(is_p_sensitive_k_anonymous(table, &keys, &conf, 2, 2));
            // Replay the attack: the repair's Age level l corresponds to the
            // intruder's raw-age hierarchy level l + 1.
            let attack_node = Node(vec![
                node.levels()[0] + 1,
                node.levels()[1],
                node.levels()[2],
            ]);
            let replayed = linkage_attack(table, &attack_qi, &attack_node, &external, "Name")
                .expect("attack inputs are compatible");
            let leaks: usize = replayed.iter().map(|f| f.learned.len()).sum();
            println!("Replaying the attack on the repaired release: {leaks} attribute leaks.");
            assert_eq!(leaks, 0);
        }
        _ => println!("no satisfying node exists under these hierarchies"),
    }
}
