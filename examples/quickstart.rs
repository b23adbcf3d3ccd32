//! Quickstart: check the paper's Table 3, then search for a p-k-minimal
//! generalization of Figure 3's microdata.
//!
//! Run with: `cargo run --example quickstart`

use psens::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. Checking a masked microdata set (paper Table 3).
    // ------------------------------------------------------------------
    let mm = psens::datasets::paper::table3_psensitive_example();
    println!("Paper Table 3 — masked microdata:\n");
    println!("{}", psens::microdata::render(&mm, 10));

    let keys = mm.schema().key_indices();
    let conf = mm.schema().confidential_indices();

    println!("3-anonymous?            {}", is_k_anonymous(&mm, &keys, 3));
    println!(
        "2-sensitive 3-anonymous? {}",
        is_p_sensitive_k_anonymous(&mm, &keys, &conf, 2, 3)
    );
    println!(
        "max satisfied p:         {}",
        max_p_of_masked(&mm, &keys, &conf)
    );
    let report = check_p_sensitivity(&mm, &keys, &conf, 2, 3);
    for v in &report.violations {
        println!(
            "violation: group of {} tuples has {} distinct value(s) of {}",
            v.group_size, v.distinct, v.attribute_name
        );
    }

    // ------------------------------------------------------------------
    // 2. Producing a masked microdata set (paper Figure 3 + Algorithm 3).
    // ------------------------------------------------------------------
    let im = psens::datasets::paper::figure3_microdata();
    let qi = psens::datasets::hierarchies::figure2_qi_space();
    println!("\nInitial microdata (paper Figure 3):\n");
    println!("{}", psens::microdata::render(&im, 12));

    let (p, k, ts) = (2, 2, 0);
    // A request defaults to Algorithm 3's necessary-condition pruning.
    let req = SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts);
    let outcome = pk_minimal_generalization(&im, &qi, &req, &NoopObserver)
        .expect("hierarchies cover the data");
    let node = outcome.node.expect("a p-k-minimal generalization exists");
    println!(
        "p-k-minimal generalization for p={p}, k={k}, TS={ts}: {} (height {})",
        qi.describe_node(&node),
        node.height()
    );
    let masked = outcome.masked.expect("masked table accompanies the node");
    println!("\nMasked microdata:\n");
    println!("{}", psens::microdata::render(&masked, 12));

    let keys = masked.schema().key_indices();
    let conf = masked.schema().confidential_indices();
    assert!(is_p_sensitive_k_anonymous(&masked, &keys, &conf, p, k));
    println!(
        "precision = {:.3}, avg class size (C_avg) = {:.3}",
        precision(&node, &qi.lattice()),
        avg_class_size(&masked, &keys, k)
    );
}
