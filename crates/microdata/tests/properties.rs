//! Property tests for the microdata substrate, model-checked against naive
//! reference implementations.

use proptest::prelude::*;
use psens_microdata::{
    csv, table_from_str_rows, Attribute, Bitmap, GroupBy, Schema, Table, TableBuilder, Value,
};

fn small_table(rows: &[(u8, i64)]) -> Table {
    let schema = Schema::new(vec![
        Attribute::cat_key("C"),
        Attribute::int_confidential("N"),
    ])
    .unwrap();
    let mut builder = TableBuilder::new(schema);
    for &(c, n) in rows {
        builder
            .push_row(vec![Value::Text(format!("c{c}")), Value::Int(n)])
            .unwrap();
    }
    builder.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitmap_behaves_like_vec_bool(bits in prop::collection::vec(any::<bool>(), 0..200)) {
        let mut bitmap = Bitmap::new();
        for &b in &bits {
            bitmap.push(b);
        }
        prop_assert_eq!(bitmap.len(), bits.len());
        prop_assert_eq!(bitmap.count_ones(), bits.iter().filter(|&&b| b).count());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(bitmap.get(i), b);
        }
        prop_assert_eq!(bitmap.all(), bits.iter().all(|&b| b));
    }

    #[test]
    fn dense_codes_identify_equal_cells(rows in prop::collection::vec((0u8..5, -3i64..3), 1..60)) {
        let table = small_table(&rows);
        for col in 0..2 {
            let (codes, n) = table.column(col).dense_codes();
            prop_assert_eq!(codes.len(), table.n_rows());
            for a in 0..table.n_rows() {
                prop_assert!(codes[a] < n);
                for b in 0..table.n_rows() {
                    let equal_values = table.value(a, col) == table.value(b, col);
                    prop_assert_eq!(codes[a] == codes[b], equal_values, "rows {} {}", a, b);
                }
            }
        }
    }

    #[test]
    fn more_grouping_columns_refine_the_partition(
        rows in prop::collection::vec((0u8..4, -2i64..2), 1..60),
    ) {
        let table = small_table(&rows);
        let coarse = GroupBy::compute(&table, &[0]);
        let fine = GroupBy::compute(&table, &[0, 1]);
        prop_assert!(fine.n_groups() >= coarse.n_groups());
        // Two rows in the same fine group share the coarse group.
        for a in 0..table.n_rows() {
            for b in 0..table.n_rows() {
                if fine.group_of(a) == fine.group_of(b) {
                    prop_assert_eq!(coarse.group_of(a), coarse.group_of(b));
                }
            }
        }
    }

    #[test]
    fn take_preserves_selected_rows(
        rows in prop::collection::vec((0u8..4, -5i64..5), 1..40),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..30),
    ) {
        let table = small_table(&rows);
        let indices: Vec<usize> = picks.iter().map(|i| i.index(table.n_rows())).collect();
        let taken = table.take(&indices);
        prop_assert_eq!(taken.n_rows(), indices.len());
        for (new_row, &old_row) in indices.iter().enumerate() {
            for col in 0..2 {
                prop_assert_eq!(taken.value(new_row, col), table.value(old_row, col));
            }
        }
    }

    #[test]
    fn concat_is_row_append(
        a in prop::collection::vec((0u8..4, -5i64..5), 0..20),
        b in prop::collection::vec((0u8..4, -5i64..5), 0..20),
    ) {
        let ta = small_table(&a);
        let tb = small_table(&b);
        let joined = ta.concat(&tb).unwrap();
        prop_assert_eq!(joined.n_rows(), a.len() + b.len());
        for (i, &(c, n)) in a.iter().chain(b.iter()).enumerate() {
            prop_assert_eq!(joined.value(i, 0), Value::Text(format!("c{c}")));
            prop_assert_eq!(joined.value(i, 1), Value::Int(n));
        }
    }

    #[test]
    fn csv_records_roundtrip(
        records in prop::collection::vec(
            prop::collection::vec("[ -~]{0,10}", 1..5),
            1..10,
        )
    ) {
        // Arity must be constant per CSV; normalize to the first record's.
        let width = records[0].len();
        let records: Vec<Vec<String>> = records
            .into_iter()
            .map(|mut r| {
                r.resize(width, String::new());
                r
            })
            .collect();
        // Write with manual quoting via the table writer by building a table
        // of text cells; empty strings become missing and read back as such,
        // so compare after normalizing empties.
        let schema = Schema::new(
            (0..width)
                .map(|i| Attribute::cat_key(format!("f{i}")))
                .collect(),
        )
        .unwrap();
        let mut builder = TableBuilder::new(schema.clone());
        for record in &records {
            builder
                .push_row(
                    record
                        .iter()
                        .map(|f| {
                            let trimmed = f.trim();
                            if trimmed.is_empty() || trimmed == "?" {
                                Value::Missing
                            } else {
                                Value::Text(trimmed.to_owned())
                            }
                        })
                        .collect(),
                )
                .unwrap();
        }
        let table = builder.finish();
        let text = csv::to_csv_string(&table, true);
        let parsed = csv::read_table_str(&text, schema, true).unwrap();
        prop_assert_eq!(parsed, table);
    }

    /// The CSV record splitter is total: any string — malformed quoting,
    /// bare carriage returns, control characters, invalid-UTF-8 replacement
    /// characters — is either parsed or rejected with `Error::Csv`, never a
    /// panic. Arbitrary bytes are lossy-decoded so every byte pattern is
    /// exercised.
    #[test]
    fn parse_records_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let input = String::from_utf8_lossy(&bytes);
        let _ = csv::parse_records(&input);
    }

    /// Same totality for the schema-directed readers: arbitrary input
    /// against a fixed schema (and the inferring reader) returns a clean
    /// `Result`, it does not panic on arity, kind, or header mismatches.
    #[test]
    fn table_readers_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let input = String::from_utf8_lossy(&bytes);
        let schema = Schema::new(vec![
            Attribute::cat_key("C"),
            Attribute::int_confidential("N"),
        ])
        .unwrap();
        let _ = csv::read_table_str(&input, schema.clone(), true);
        let _ = csv::read_table_str(&input, schema, false);
        let _ = csv::read_table_infer(&input);
    }

    /// Write→parse round-trip survives the fields that force quoting:
    /// embedded commas, double quotes, and newlines.
    #[test]
    fn quoted_fields_roundtrip(
        cells in prop::collection::vec("[a-z][a-z,\"\n]{0,8}[a-z]", 1..20),
    ) {
        let schema = Schema::new(vec![Attribute::cat_key("C")]).unwrap();
        let mut builder = TableBuilder::new(schema.clone());
        for cell in &cells {
            builder.push_row(vec![Value::Text(cell.clone())]).unwrap();
        }
        let table = builder.finish();
        let text = csv::to_csv_string(&table, true);
        let parsed = csv::read_table_str(&text, schema, true).unwrap();
        prop_assert_eq!(parsed, table);
    }
}

#[test]
fn group_by_representatives_are_group_members() {
    let table = table_from_str_rows(
        Schema::new(vec![Attribute::cat_key("C")]).unwrap(),
        &[&["a"], &["b"], &["a"], &["c"], &["b"]],
    )
    .unwrap();
    let groups = GroupBy::compute(&table, &[0]);
    for (g, &rep) in groups.representatives().iter().enumerate() {
        assert_eq!(groups.group_of(rep as usize), g as u32);
    }
}

/// `csv_records_roundtrip`'s shrunk counterexample `records = [[""], [""]]`:
/// a one-column table of two missing cells survives a CSV round trip.
#[test]
fn csv_roundtrips_a_column_of_missing_cells() {
    let schema = Schema::new(vec![Attribute::cat_key("f0")]).unwrap();
    let mut builder = TableBuilder::new(schema.clone());
    for _ in 0..2 {
        builder.push_row(vec![Value::Missing]).unwrap();
    }
    let table = builder.finish();
    let text = csv::to_csv_string(&table, true);
    let parsed = csv::read_table_str(&text, schema, true).unwrap();
    assert_eq!(parsed, table);
    assert_eq!(parsed.n_rows(), 2);
}

/// The proptest stand-in replays only 16-hex-digit seeds; a `cc` line it
/// cannot parse must fail the run, not be skipped.
#[test]
#[should_panic(expected = "cannot replay seed")]
fn unreplayable_regression_seeds_fail_loudly() {
    let path = std::env::temp_dir().join(format!(
        "psens-unreplayable-{}.proptest-regressions",
        std::process::id()
    ));
    std::fs::write(
        &path,
        format!("# header\ncc {} # shrinks to x = 1\n", "ab".repeat(32)),
    )
    .unwrap();
    let loaded = std::panic::catch_unwind(|| proptest::persistence::load(&path));
    std::fs::remove_file(&path).unwrap();
    if let Err(panic) = loaded {
        std::panic::resume_unwind(panic);
    }
}
