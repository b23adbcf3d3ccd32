//! Mondrian's local recoding: replace each partition's key values by a
//! label describing the partition's extent.

use psens_microdata::{Attribute, CatColumn, Column, Kind, Schema, Table, Value};

/// Recodes every key attribute of `table` to per-partition labels: integer
/// attributes become `"lo-hi"` ranges (or the single value), categorical
/// attributes the sorted set of member values joined with `|`.
///
/// Rebuilding the schema and table cannot fail for well-formed inputs
/// (names and row counts are unchanged), but the error is propagated rather
/// than unwrapped so a malformed table surfaces as an `Err` instead of a
/// panic inside Mondrian.
pub(crate) fn recode_partitions(
    table: &Table,
    keys: &[usize],
    partitions: &[Vec<usize>],
) -> Result<Table, psens_microdata::Error> {
    let mut attrs: Vec<Attribute> = table.schema().attributes().to_vec();
    let mut columns: Vec<Column> = table.columns().to_vec();
    for &attr in keys {
        let column = table.column(attr);
        let mut labels: Vec<String> = vec![String::new(); table.n_rows()];
        for rows in partitions {
            let label = partition_label(column, rows);
            for &row in rows {
                labels[row].clone_from(&label);
            }
        }
        let recoded = CatColumn::from_values(labels);
        let old = &attrs[attr];
        attrs[attr] = Attribute::new(old.name(), Kind::Cat, old.role());
        columns[attr] = Column::Cat(recoded);
    }
    let schema = Schema::new(attrs)?;
    Table::new(schema, columns)
}

/// The label describing one partition's extent along one column.
pub(crate) fn partition_label(column: &Column, rows: &[usize]) -> String {
    match column {
        Column::Int(_) => {
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            let mut any_missing = false;
            for &row in rows {
                match column.value(row) {
                    Value::Int(v) => {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    _ => any_missing = true,
                }
            }
            if lo > hi {
                "·".to_owned()
            } else if lo == hi && !any_missing {
                lo.to_string()
            } else {
                format!("{lo}-{hi}")
            }
        }
        Column::Cat(_) => {
            let mut values: Vec<String> = rows
                .iter()
                .map(|&row| column.value(row).to_string())
                .collect();
            values.sort_unstable();
            values.dedup();
            values.join("|")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_microdata::{table_from_str_rows, Attribute, Schema};

    #[test]
    fn labels_for_int_and_cat_columns() {
        let schema =
            Schema::new(vec![Attribute::int_key("Age"), Attribute::cat_key("Sex")]).unwrap();
        let t = table_from_str_rows(
            schema,
            &[&["20", "M"], &["35", "F"], &["35", "M"], &["?", "F"]],
        )
        .unwrap();
        let age = t.column(0);
        assert_eq!(partition_label(age, &[0, 1]), "20-35");
        assert_eq!(partition_label(age, &[1, 2]), "35");
        assert_eq!(partition_label(age, &[3]), "·");
        assert_eq!(partition_label(age, &[1, 3]), "35-35");
        let sex = t.column(1);
        assert_eq!(partition_label(sex, &[0, 1, 2]), "F|M");
        assert_eq!(partition_label(sex, &[0, 2]), "M");
    }

    #[test]
    fn recode_replaces_keys_only() {
        let schema = Schema::new(vec![
            Attribute::int_key("Age"),
            Attribute::cat_confidential("Illness"),
        ])
        .unwrap();
        let t = table_from_str_rows(schema, &[&["20", "Flu"], &["30", "HIV"]]).unwrap();
        let recoded = recode_partitions(&t, &[0], &[vec![0, 1]]).unwrap();
        assert_eq!(recoded.value(0, 0), Value::Text("20-30".into()));
        assert_eq!(recoded.value(1, 0), Value::Text("20-30".into()));
        assert_eq!(recoded.value(0, 1), Value::Text("Flu".into()));
        assert_eq!(recoded.schema().attribute(0).kind(), Kind::Cat);
    }
}
