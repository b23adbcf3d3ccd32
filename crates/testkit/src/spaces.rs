//! The QI spaces the suites walk, factored out of the per-suite copies.
//!
//! All spaces are small on purpose: every oracle compares whole-lattice
//! results against a serial recompute, so lattice size multiplies directly
//! into test time.

use psens_hierarchy::{builders, CatHierarchy, Hierarchy, IntHierarchy, IntLevel, QiSpace};

/// The shared 3-level X hierarchy: `{x0..x3} → {xa, xb} → *`.
fn x_hierarchy() -> CatHierarchy {
    CatHierarchy::identity(["x0", "x1", "x2", "x3"])
        .unwrap()
        .push_level([("x0", "xa"), ("x1", "xa"), ("x2", "xb"), ("x3", "xb")])
        .unwrap()
        .push_top("*")
        .unwrap()
}

/// QI space over X (3 levels) and A (3 levels: unit ranges, `[0-1][2-3][4-5]`,
/// `*`); Y is deliberately left out, so it stays a static key column.
pub fn wide_qi_space() -> QiSpace {
    let a = IntHierarchy::new(vec![
        IntLevel::Ranges {
            cuts: vec![2, 4],
            labels: vec!["0-1".into(), "2-3".into(), "4-5".into()],
        },
        IntLevel::Single("*".into()),
    ])
    .unwrap();
    QiSpace::new(vec![
        ("X".into(), Hierarchy::Cat(x_hierarchy())),
        ("A".into(), Hierarchy::Int(a)),
    ])
    .unwrap()
}

/// [`wide_qi_space`] plus flat Y (2 leaves): a 12-node lattice of height 4 —
/// small enough for exhaustive oracles, big enough that 8-thread chunking
/// splits real strata.
pub fn search_qi_space() -> QiSpace {
    let a = IntHierarchy::new(vec![
        IntLevel::Ranges {
            cuts: vec![2, 4],
            labels: vec!["0-1".into(), "2-3".into(), "4-5".into()],
        },
        IntLevel::Single("*".into()),
    ])
    .unwrap();
    QiSpace::new(vec![
        ("X".into(), Hierarchy::Cat(x_hierarchy())),
        ("A".into(), Hierarchy::Int(a)),
        (
            "Y".into(),
            builders::flat_hierarchy(vec!["y0", "y1"]).unwrap(),
        ),
    ])
    .unwrap()
}

/// A flat one-attribute QI space over Y's three-value kernel domain; X and A
/// become static key columns.
pub fn flat_y_qi_space() -> QiSpace {
    QiSpace::new(vec![(
        "Y".into(),
        builders::flat_hierarchy(vec!["y0", "y1", "y2"]).unwrap(),
    )])
    .unwrap()
}
