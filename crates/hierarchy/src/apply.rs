//! Binding hierarchies to a table's key attributes and applying lattice
//! nodes — *full-domain generalization* (a.k.a. global recoding).

use crate::error::{Error, Result};
use crate::hierarchy::Hierarchy;
use crate::lattice::{Lattice, Node};
use psens_microdata::{Attribute, Kind, Role, Schema, Table};

/// The quasi-identifier space: an ordered list of key attributes, each with
/// its generalization hierarchy. The order fixes the meaning of lattice node
/// components.
#[derive(Debug, Clone, PartialEq)]
pub struct QiSpace {
    entries: Vec<(String, Hierarchy)>,
}

impl QiSpace {
    /// Builds a QI space; at least one attribute is required.
    pub fn new(entries: Vec<(String, Hierarchy)>) -> Result<Self> {
        if entries.is_empty() {
            return Err(Error::Invalid(
                "QI space needs at least one attribute".into(),
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for (name, _) in &entries {
            if !seen.insert(name.clone()) {
                return Err(Error::Invalid(format!("duplicate QI attribute `{name}`")));
            }
        }
        Ok(QiSpace { entries })
    }

    /// Number of QI attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the space has no attributes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// QI attribute names, in lattice order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Hierarchy of the `i`-th QI attribute.
    pub fn hierarchy(&self, i: usize) -> &Hierarchy {
        &self.entries[i].1
    }

    /// The generalization lattice spanned by the hierarchies.
    pub fn lattice(&self) -> Lattice {
        Lattice::new(
            self.entries
                .iter()
                .map(|(_, h)| u8::try_from(h.max_level()).expect("hierarchy fits u8 levels"))
                .collect(),
        )
    }

    /// Renders a node in the paper's style, e.g. `<A1, M1, R2, S1>` — first
    /// letter of each attribute followed by its level.
    pub fn describe_node(&self, node: &Node) -> String {
        let parts: Vec<String> = self
            .entries
            .iter()
            .zip(node.levels())
            .map(|((name, _), level)| {
                let initial = name.chars().next().unwrap_or('?').to_ascii_uppercase();
                format!("{initial}{level}")
            })
            .collect();
        format!("<{}>", parts.join(", "))
    }

    /// Checks that `node` has one level per QI attribute, each within its
    /// hierarchy's height — without materializing the whole lattice.
    pub fn validate_node(&self, node: &Node) -> Result<()> {
        if node.levels().len() != self.len() {
            return Err(Error::Invalid(format!(
                "node {node} is outside the {}-attribute lattice",
                self.len()
            )));
        }
        for ((_, hierarchy), &level) in self.entries.iter().zip(node.levels()) {
            if level as usize > hierarchy.max_level() {
                return Err(Error::Invalid(format!(
                    "node {node} is outside the {}-attribute lattice",
                    self.len()
                )));
            }
        }
        Ok(())
    }

    /// Checks that every QI attribute exists in `schema` with the `Key`
    /// role. QI-groups form over the key attributes, and Definition 2
    /// counts confidential values per group without recoding them, so a
    /// QI space that would generalize an identifier, confidential or other
    /// attribute is an `Error::Invalid` naming it.
    pub fn check_keys(&self, schema: &Schema) -> Result<()> {
        for (name, _) in &self.entries {
            let role = schema.attribute(schema.index_of(name)?).role();
            if role != Role::Key {
                return Err(Error::Invalid(format!(
                    "QI attribute `{name}` has the {role} role; a QI space holds key attributes only"
                )));
            }
        }
        Ok(())
    }

    /// Applies full-domain generalization: every QI attribute of `table` is
    /// recoded to the level `node` assigns it. Non-QI columns pass through
    /// untouched. Attributes generalized above level 0 become categorical in
    /// the masked schema.
    pub fn apply(&self, table: &Table, node: &Node) -> Result<Table> {
        self.validate_node(node)?;
        let mut attrs: Vec<Attribute> = table.schema().attributes().to_vec();
        let mut columns = table.columns().to_vec();
        for ((name, hierarchy), &level) in self.entries.iter().zip(node.levels()) {
            let idx = table.schema().index_of(name)?;
            let recoded = hierarchy.apply(&columns[idx], level as usize)?;
            let attr = &attrs[idx];
            let kind = if level == 0 { attr.kind() } else { Kind::Cat };
            attrs[idx] = Attribute::new(attr.name(), kind, attr.role());
            columns[idx] = recoded;
        }
        let schema = Schema::new(attrs)?;
        Ok(Table::new(schema, columns)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{CatHierarchy, IntHierarchy, IntLevel};
    use psens_microdata::{table_from_str_rows, Attribute, GroupBy, Schema, Value};

    fn sex_hierarchy() -> Hierarchy {
        Hierarchy::Cat(
            CatHierarchy::identity(["M", "F"])
                .unwrap()
                .push_top("*")
                .unwrap(),
        )
    }

    fn zip_hierarchy() -> Hierarchy {
        Hierarchy::Cat(
            crate::builders::prefix_hierarchy(
                vec!["41076", "41099", "43102", "43103", "48201", "48202"],
                &[2, 0],
            )
            .unwrap(),
        )
    }

    fn age_hierarchy() -> Hierarchy {
        Hierarchy::Int(
            IntHierarchy::new(vec![
                IntLevel::Ranges {
                    cuts: vec![30, 40, 50],
                    labels: vec!["<30".into(), "30-39".into(), "40-49".into(), ">=50".into()],
                },
                IntLevel::Single("*".into()),
            ])
            .unwrap(),
        )
    }

    /// Figure 3's microdata plus an Age column for kind-change testing.
    fn table() -> Table {
        let schema = Schema::new(vec![
            Attribute::cat_key("Sex"),
            Attribute::cat_key("ZipCode"),
            Attribute::int_key("Age"),
            Attribute::cat_confidential("Illness"),
        ])
        .unwrap();
        table_from_str_rows(
            schema,
            &[
                &["M", "41076", "25", "Flu"],
                &["F", "41099", "34", "HIV"],
                &["M", "41099", "47", "Flu"],
                &["M", "41076", "52", "Asthma"],
            ],
        )
        .unwrap()
    }

    fn qi_space() -> QiSpace {
        QiSpace::new(vec![
            ("Sex".into(), sex_hierarchy()),
            ("ZipCode".into(), zip_hierarchy()),
            ("Age".into(), age_hierarchy()),
        ])
        .unwrap()
    }

    #[test]
    fn lattice_shape() {
        let qi = qi_space();
        let gl = qi.lattice();
        assert_eq!(gl.max_levels(), &[1, 2, 2]);
        assert_eq!(gl.node_count(), 18);
        assert_eq!(gl.height(), 5);
    }

    #[test]
    fn apply_bottom_is_identity() {
        let qi = qi_space();
        let t = table();
        let masked = qi.apply(&t, &Node(vec![0, 0, 0])).unwrap();
        assert_eq!(masked, t);
    }

    #[test]
    fn apply_recodes_and_changes_kind() {
        let qi = qi_space();
        let t = table();
        let masked = qi.apply(&t, &Node(vec![1, 1, 1])).unwrap();
        assert_eq!(masked.value(0, 0), Value::Text("*".into()));
        assert_eq!(masked.value(0, 1), Value::Text("41***".into()));
        assert_eq!(masked.value(0, 2), Value::Text("<30".into()));
        assert_eq!(masked.value(3, 2), Value::Text(">=50".into()));
        // Age's schema kind flipped to categorical.
        assert_eq!(masked.schema().attribute(2).kind(), Kind::Cat);
        // Confidential attribute untouched.
        assert_eq!(masked.value(1, 3), Value::Text("HIV".into()));
        // Roles preserved.
        assert_eq!(masked.schema().key_indices(), t.schema().key_indices());
    }

    #[test]
    fn generalization_coarsens_groups() {
        let qi = qi_space();
        let t = table();
        let keys = t.schema().key_indices();
        let fine = GroupBy::compute(&qi.apply(&t, &Node(vec![0, 0, 0])).unwrap(), &keys);
        let coarse = GroupBy::compute(&qi.apply(&t, &Node(vec![1, 2, 2])).unwrap(), &keys);
        assert!(coarse.n_groups() <= fine.n_groups());
        assert_eq!(coarse.n_groups(), 1);
    }

    #[test]
    fn invalid_node_rejected() {
        let qi = qi_space();
        let t = table();
        assert!(qi.apply(&t, &Node(vec![9, 0, 0])).is_err());
        assert!(qi.apply(&t, &Node(vec![0, 0])).is_err());
    }

    #[test]
    fn missing_qi_attribute_in_table_errors() {
        let qi = QiSpace::new(vec![("Height".into(), age_hierarchy())]).unwrap();
        assert!(qi.apply(&table(), &Node(vec![1])).is_err());
    }

    #[test]
    fn check_keys_accepts_key_attributes_only() {
        let schema = table().schema().clone();
        assert_eq!(qi_space().check_keys(&schema), Ok(()));
        let illness = Hierarchy::Cat(
            CatHierarchy::identity(["Flu", "HIV", "Asthma"])
                .unwrap()
                .push_top("*")
                .unwrap(),
        );
        let with_conf = QiSpace::new(vec![
            ("Sex".into(), sex_hierarchy()),
            ("Illness".into(), illness),
        ])
        .unwrap();
        match with_conf.check_keys(&schema) {
            Err(Error::Invalid(msg)) => assert!(msg.contains("`Illness`"), "{msg}"),
            other => panic!("expected Error::Invalid, got {other:?}"),
        }
        let unknown = QiSpace::new(vec![("Height".into(), age_hierarchy())]).unwrap();
        assert!(unknown
            .check_keys(&schema)
            .unwrap_err()
            .to_string()
            .contains("Height"));
    }

    #[test]
    fn qi_space_validation() {
        assert!(QiSpace::new(vec![]).is_err());
        assert!(QiSpace::new(vec![
            ("Sex".into(), sex_hierarchy()),
            ("Sex".into(), sex_hierarchy()),
        ])
        .is_err());
    }

    #[test]
    fn describe_node_matches_paper_style() {
        let qi = QiSpace::new(vec![
            ("Age".into(), age_hierarchy()),
            ("MaritalStatus".into(), sex_hierarchy()),
            ("Race".into(), sex_hierarchy()),
            ("Sex".into(), sex_hierarchy()),
        ])
        .unwrap();
        assert_eq!(
            qi.describe_node(&Node(vec![1, 1, 1, 1])),
            "<A1, M1, R1, S1>"
        );
        assert_eq!(qi.names(), vec!["Age", "MaritalStatus", "Race", "Sex"]);
    }
}
