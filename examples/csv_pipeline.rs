//! End-to-end CSV pipeline: write an initial microdata file, read it back,
//! anonymize it two ways (full-domain Algorithm 3 vs. Mondrian local
//! recoding), compare utility, and write the chosen release.
//!
//! Run with: `cargo run --release --example csv_pipeline`

use psens::datasets::hierarchies::adult_qi_space;
use psens::datasets::AdultGenerator;
use psens::metrics::{identity_risk, ncp};
use psens::microdata::csv;
use psens::prelude::*;

fn main() {
    let dir = std::env::temp_dir().join("psens_csv_pipeline");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");

    // 1. A data holder exports initial microdata as CSV.
    let initial = AdultGenerator::new(2024).generate(1000);
    let initial_path = dir.join("initial.csv");
    let mut file = std::fs::File::create(&initial_path).expect("create CSV");
    csv::write_table(&mut file, &initial, true).expect("write CSV");
    println!(
        "wrote {} ({} rows)",
        initial_path.display(),
        initial.n_rows()
    );

    // 2. We read it back against the known schema.
    let text = std::fs::read_to_string(&initial_path).expect("read CSV");
    let table = csv::read_table_str(&text, AdultGenerator::schema(), true).expect("parse CSV");
    assert_eq!(table, initial, "CSV round-trip is lossless");

    // 3a. Full-domain generalization: Algorithm 3 with the two conditions.
    let qi = adult_qi_space();
    let (p, k, ts) = (2u32, 3u32, 50usize);
    let req = SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts);
    let full_domain = pk_minimal_generalization(&table, &qi, &req, &NoopObserver)
        .expect("hierarchies cover the data");
    let fd_masked = full_domain.masked.expect("satisfiable");
    let fd_node = full_domain.node.expect("satisfiable");

    // 3b. Mondrian local recoding with the same constraints.
    let mondrian = mondrian_anonymize(
        &table,
        MondrianConfig { k, p },
        &SearchBudget::unlimited(),
        &NoopObserver,
    )
    .unwrap();

    // 4. Compare.
    let keys = fd_masked.schema().key_indices();
    println!("\nfull-domain node {}:", qi.describe_node(&fd_node));
    println!(
        "  groups (QI combinations): {}",
        GroupBy::compute(&fd_masked, &keys).n_groups()
    );
    println!("  suppressed tuples:        {}", full_domain.suppressed);
    println!(
        "  max re-id risk:           {:.4}",
        identity_risk(&fd_masked, &keys).max_risk
    );

    let m_keys = mondrian.masked.schema().key_indices();
    let dropped = table.drop_identifiers();
    let partitions_ncp = ncp(
        &dropped,
        &dropped.schema().key_indices(),
        &mondrian.partitions,
    );
    println!(
        "\nmondrian ({} partitions, {} splits):",
        mondrian.partitions.len(),
        mondrian.splits
    );
    println!(
        "  groups (QI combinations): {}",
        GroupBy::compute(&mondrian.masked, &m_keys).n_groups()
    );
    println!("  suppressed tuples:        0");
    println!("  NCP (information loss):   {:.4}", partitions_ncp.overall);
    println!(
        "  max re-id risk:           {:.4}",
        identity_risk(&mondrian.masked, &m_keys).max_risk
    );

    // Both must satisfy the property.
    let conf = fd_masked.schema().confidential_indices();
    assert!(is_p_sensitive_k_anonymous(&fd_masked, &keys, &conf, p, k));
    let m_conf = mondrian.masked.schema().confidential_indices();
    assert!(is_p_sensitive_k_anonymous(
        &mondrian.masked,
        &m_keys,
        &m_conf,
        p,
        k
    ));

    // 5. Release the Mondrian masking (finer detail, no suppression).
    let release_path = dir.join("release.csv");
    let mut file = std::fs::File::create(&release_path).expect("create CSV");
    csv::write_table(&mut file, &mondrian.masked, true).expect("write CSV");
    println!("\nwrote {}", release_path.display());
}
