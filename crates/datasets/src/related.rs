//! Worked examples from the successor papers whose models
//! `psens_core::ModelSpec` covers: the l-diversity inpatient
//! tables (Machanavajjhala et al., ICDE 2006) and the t-closeness salary
//! table (Li et al., ICDE 2007). They are the golden inputs for the
//! per-model metric tests in `psens-metrics`.

use psens_microdata::{table_from_str_rows, Attribute, Schema, Table};

/// l-diversity paper **Table 2**: the 4-anonymous inpatient release whose
/// third group is homogeneous in Condition (all Cancer) — the homogeneity
/// attack that motivates diversity. Groups of four on (ZipCode, Age,
/// Nationality).
pub fn ldiv_table2_inpatient_4anonymous() -> Table {
    let schema = Schema::new(vec![
        Attribute::cat_key("ZipCode"),
        Attribute::cat_key("Age"),
        Attribute::cat_key("Nationality"),
        Attribute::cat_confidential("Condition"),
    ])
    .expect("valid schema");
    table_from_str_rows(
        schema,
        &[
            &["130**", "<30", "*", "Heart Disease"],
            &["130**", "<30", "*", "Heart Disease"],
            &["130**", "<30", "*", "Viral Infection"],
            &["130**", "<30", "*", "Viral Infection"],
            &["1485*", ">=40", "*", "Cancer"],
            &["1485*", ">=40", "*", "Heart Disease"],
            &["1485*", ">=40", "*", "Viral Infection"],
            &["1485*", ">=40", "*", "Viral Infection"],
            &["130**", "3*", "*", "Cancer"],
            &["130**", "3*", "*", "Cancer"],
            &["130**", "3*", "*", "Cancer"],
            &["130**", "3*", "*", "Cancer"],
        ],
    )
    .expect("fixture is well-formed")
}

/// l-diversity paper **Table 4**: the 3-diverse inpatient release. Every
/// group holds exactly three distinct conditions with frequencies
/// (2, 1, 1), so the table is distinct 3-diverse but only entropy
/// 2√2 ≈ 2.83-diverse — the paper's own illustration that the entropy
/// variant is strictly stronger.
pub fn ldiv_table4_inpatient_3diverse() -> Table {
    let schema = Schema::new(vec![
        Attribute::cat_key("ZipCode"),
        Attribute::cat_key("Age"),
        Attribute::cat_key("Nationality"),
        Attribute::cat_confidential("Condition"),
    ])
    .expect("valid schema");
    table_from_str_rows(
        schema,
        &[
            &["1305*", "<=40", "*", "Heart Disease"],
            &["1305*", "<=40", "*", "Viral Infection"],
            &["1305*", "<=40", "*", "Cancer"],
            &["1305*", "<=40", "*", "Cancer"],
            &["1485*", ">40", "*", "Cancer"],
            &["1485*", ">40", "*", "Heart Disease"],
            &["1485*", ">40", "*", "Viral Infection"],
            &["1485*", ">40", "*", "Viral Infection"],
            &["1306*", "<=40", "*", "Heart Disease"],
            &["1306*", "<=40", "*", "Viral Infection"],
            &["1306*", "<=40", "*", "Cancer"],
            &["1306*", "<=40", "*", "Cancer"],
        ],
    )
    .expect("fixture is well-formed")
}

/// t-closeness paper **Table 3**: the 3-anonymous, distinct 3-diverse
/// salary release the paper attacks with distribution skew — the first
/// group's salaries are the three lowest in the table, so closeness to the
/// global distribution is poor even though diversity holds. Salary and
/// Disease are both confidential.
pub fn tclose_table3_salary_3diverse() -> Table {
    let schema = Schema::new(vec![
        Attribute::cat_key("ZipCode"),
        Attribute::cat_key("Age"),
        Attribute::int_confidential("Salary"),
        Attribute::cat_confidential("Disease"),
    ])
    .expect("valid schema");
    table_from_str_rows(
        schema,
        &[
            &["476**", "2*", "3000", "Gastric Ulcer"],
            &["476**", "2*", "4000", "Gastritis"],
            &["476**", "2*", "5000", "Stomach Cancer"],
            &["4790*", ">=40", "6000", "Gastritis"],
            &["4790*", ">=40", "7000", "Flu"],
            &["4790*", ">=40", "8000", "Bronchitis"],
            &["476**", "3*", "9000", "Bronchitis"],
            &["476**", "3*", "10000", "Pneumonia"],
            &["476**", "3*", "11000", "Stomach Cancer"],
        ],
    )
    .expect("fixture is well-formed")
}
