//! The wider disclosure-control toolbox the paper's Section 2 surveys,
//! applied to the same synthetic Adult sample and compared on risk and
//! utility — the "where to draw the line" trade-off made concrete.
//!
//! Run with: `cargo run --release --example masking_toolbox`

use psens::datasets::AdultGenerator;
use psens::methods::{
    add_noise, microaggregate_univariate, pram, rank_swap, simple_random_sample, PramMatrix,
};
use psens::metrics::{attribute_risk, identity_risk};
use psens::prelude::*;

fn risk_line(label: &str, table: &Table) {
    let keys = table.schema().key_indices();
    let conf = table.schema().confidential_indices();
    let id = identity_risk(table, &keys);
    let attr = attribute_risk(table, &keys, &conf);
    println!(
        "  {label:<26} rows {:>5}  uniques {:>4}  max re-id risk {:>6.3}  attr disclosures {:>4}",
        table.n_rows(),
        id.uniques,
        id.max_risk,
        attr.disclosures
    );
}

fn mean_of(table: &Table, name: &str) -> f64 {
    let idx = table.schema().index_of(name).unwrap();
    let sum: i64 = (0..table.n_rows())
        .map(|r| table.value(r, idx).as_int().unwrap_or(0))
        .sum();
    sum as f64 / table.n_rows().max(1) as f64
}

fn main() {
    let initial = AdultGenerator::new(2026).generate(2000).drop_identifiers();
    println!("baseline (raw initial microdata):");
    risk_line("raw", &initial);
    println!("  mean Age = {:.2}\n", mean_of(&initial, "Age"));

    println!("perturbative / subsampling methods (Section 2's survey):");
    let sampled = simple_random_sample(&initial, 500, 1);
    risk_line("25% random sample", &sampled);

    let age = initial.schema().index_of("Age").unwrap();
    let microagg = microaggregate_univariate(&initial, age, 5).unwrap();
    risk_line("microaggregate Age (k=5)", &microagg);
    println!(
        "    mean Age after microaggregation = {:.2}",
        mean_of(&microagg, "Age")
    );

    let swapped = rank_swap(&initial, age, 5, 2).unwrap();
    risk_line("rank-swap Age (5% window)", &swapped);
    println!(
        "    mean Age after swapping         = {:.2}",
        mean_of(&swapped, "Age")
    );

    let noisy = add_noise(&initial, age, 0.2, 3).unwrap();
    risk_line("Age + 20% noise", &noisy);
    println!(
        "    mean Age after noise            = {:.2}",
        mean_of(&noisy, "Age")
    );

    let pay = initial.schema().index_of("Pay").unwrap();
    let matrix = PramMatrix::uniform_retention(vec!["<=50K", ">50K"], 0.85).unwrap();
    let prammed = pram(&initial, pay, &matrix, 4).unwrap();
    risk_line("PRAM Pay (retain 85%)", &prammed);

    println!("\nnon-perturbative masking (the paper's choice):");
    let qi = psens::datasets::hierarchies::adult_qi_space();
    let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 2 }, 3, 20);
    let outcome = pk_minimal_generalization(&initial, &qi, &req, &NoopObserver).unwrap();
    let masked = outcome.masked.expect("achievable");
    risk_line("2-sensitive 3-anonymous", &masked);
    println!(
        "    node {} — truthful values, bounded risk by construction",
        qi.describe_node(&outcome.node.unwrap())
    );

    println!(
        "\nNote how the perturbative methods keep record-level detail but only\n\
         weaken linkage statistically, while p-sensitive k-anonymity gives a\n\
         worst-case guarantee (risk <= 1/k, >= p values per group) at the cost\n\
         of coarser categories."
    );
}
