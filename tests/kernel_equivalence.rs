//! Equivalence of the code-mapped evaluation kernel and the materializing
//! pipeline, on randomized inputs.
//!
//! For random tables (with missing cells), hierarchies (categorical and
//! integer, plus a key attribute outside the QI space), nodes, and
//! (k, p, TS) settings, `EvalContext`/`NodeEvaluator::check` must agree with
//! `MaskingContext::evaluate` on every reported field: satisfied, stage,
//! n_groups, violating_tuples, and suppressed.
//!
//! A long-lived `NodeEvaluator` resumes each partition from the level
//! prefix the node shares with the node it partitioned last, so its
//! verdicts must also not depend on the order it is fed nodes: on the wide
//! 8-QI Adult lattice, under every model, a mixed sequence of strata,
//! random nodes, repeats and out-of-lattice nodes must give exactly the
//! checks a fresh evaluator gives.

use proptest::prelude::*;
use psens::core::evaluator::{EvalContext, NodeCheck};
use psens::core::masking::{MaskOutcome, MaskingContext};
use psens::core::{
    check_table_model, CheckStage, CodeDistribution, GroupCheckMode, ModelSpec, NoopObserver,
};
use psens::datasets::hierarchies::adult_wide_qi_space;
use psens::datasets::AdultGenerator;
use psens::prelude::*;
use psens_testkit::spaces::{flat_y_qi_space, wide_qi_space};
use psens_testkit::tables::{arb_wide_row, build_wide_table, WideRow};

/// The wide testkit schema: keys X (in QI space), A (in QI space), Y (key
/// *outside* the QI space — grouped at ground level by both paths),
/// confidential S and T, plus one identifier column. Y uses its full
/// three-value domain here.
fn arb_row() -> impl Strategy<Value = WideRow> {
    arb_wide_row(3)
}

fn build_table(rows: &[WideRow]) -> Table {
    build_wide_table(rows)
}

/// QI space over X (3 levels) and A (3 levels); Y is deliberately left out.
fn test_qi_space() -> QiSpace {
    wide_qi_space()
}

/// A flat one-attribute QI space used by the single-attribute variant.
fn flat_qi_space() -> QiSpace {
    flat_y_qi_space()
}

/// Asserts the two paths agree on every reported field for every node of
/// the whole lattice.
fn assert_paths_agree(
    table: &Table,
    qi: &QiSpace,
    k: u32,
    p: u32,
    ts: usize,
) -> Result<(), TestCaseError> {
    let ctx = MaskingContext {
        initial: table,
        qi,
        k,
        p,
        ts,
    };
    let stats = ctx.initial_stats();
    let ectx = EvalContext::build(&ctx).expect("context builds for valid bindings");
    let mut eval = ectx.evaluator();
    for node in qi.lattice().all_nodes() {
        let slow = ctx.evaluate(&node, &stats).expect("materializing path");
        let fast = eval.check(&node, &stats).expect("kernel path");
        let setting = format!("k={k} p={p} ts={ts} node={node}");
        prop_assert_eq!(fast.satisfied, slow.satisfied, "satisfied: {}", &setting);
        prop_assert_eq!(fast.stage, slow.stage, "stage: {}", &setting);
        prop_assert_eq!(fast.n_groups, slow.n_groups, "n_groups: {}", &setting);
        prop_assert_eq!(
            fast.violating_tuples,
            slow.violating_tuples,
            "violating_tuples: {}",
            &setting
        );
        prop_assert_eq!(fast.suppressed, slow.suppressed, "suppressed: {}", &setting);
        // The observed entry point with a no-op observer is the same check.
        let noop = eval
            .check_observed(&node, &stats, &NoopObserver)
            .expect("kernel path, observed");
        prop_assert_eq!(noop.satisfied, fast.satisfied, "observed: {}", &setting);
        prop_assert_eq!(noop.stage, fast.stage, "observed stage: {}", &setting);
        prop_assert_eq!(
            noop.suppressed,
            fast.suppressed,
            "observed suppressed: {}",
            &setting
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full configuration: cat + int QI hierarchies, a static key outside
    /// the QI space, missing cells, identifiers dropped.
    #[test]
    fn kernel_matches_materializing_path(
        rows in prop::collection::vec(arb_row(), 1..50),
        k in 1u32..6,
        p in 1u32..4,
        ts in 0usize..8,
    ) {
        let t = build_table(&rows);
        assert_paths_agree(&t, &test_qi_space(), k, p, ts)?;
    }

    /// Single flat QI attribute; X and A become static key columns.
    #[test]
    fn kernel_matches_on_flat_space(
        rows in prop::collection::vec(arb_row(), 1..40),
        k in 1u32..5,
        p in 1u32..4,
        ts in 0usize..6,
    ) {
        let t = build_table(&rows);
        assert_paths_agree(&t, &flat_qi_space(), k, p, ts)?;
    }

    /// Degenerate thresholds: TS large enough to suppress everything, and
    /// k larger than the table.
    #[test]
    fn kernel_matches_under_total_suppression(
        rows in prop::collection::vec(arb_row(), 1..20),
        p in 1u32..4,
    ) {
        let t = build_table(&rows);
        let k = t.n_rows() as u32 + 1;
        let ts = t.n_rows();
        assert_paths_agree(&t, &test_qi_space(), k, p, ts)?;
    }
}

/// The model a `(kind, param)` draw names: one of each kind the kernel
/// scans for, the distinct-count models and both histogram models.
fn drawn_model(kind: u8, param: u32) -> ModelSpec {
    match kind {
        0 => ModelSpec::PSensitiveK { p: 1 + param % 3 },
        1 => ModelSpec::DistinctL { l: 1 + param % 3 },
        2 => ModelSpec::EntropyL { l: 1 + param % 2 },
        _ => ModelSpec::TCloseness {
            t_ppm: 100_000 + param * 800,
        },
    }
}

/// The node order fed to one long-lived evaluator: per pick, a random node
/// (op 0), the same node twice in a row (op 1) or an out-of-lattice node
/// (op 2: one level past the top at one attribute). Halfway through comes
/// one whole stratum in lattice order, then a node one level past the top
/// at the stratum's last attribute; a node of the wrong length ends it.
fn mixed_order(lattice: &Lattice, height: usize, picks: &[(prop::sample::Index, u8)]) -> Vec<Node> {
    let all = lattice.all_nodes();
    let max = lattice.max_levels();
    let past_top = |mut node: Node, j: usize| {
        node.0[j] = max[j] + 1;
        node
    };
    let mut order = Vec::new();
    for (i, (pick, op)) in picks.iter().enumerate() {
        if i == picks.len() / 2 {
            let stratum = lattice.nodes_at_height(height);
            let last = stratum.last().expect("every height has a node").clone();
            order.extend(stratum);
            order.push(past_top(last, max.len() - 1));
        }
        let node = all[pick.index(all.len())].clone();
        match op {
            0 => order.push(node),
            1 => order.extend([node.clone(), node]),
            _ => order.push(past_top(node, pick.index(max.len()))),
        }
    }
    order.push(Node(vec![0; max.len() + 1]));
    order
}

/// The QI-groups of `table` (first-appearance ids over `keys`) in which
/// some confidential attribute fails `spec`, found by a direct loop: each
/// group's histogram is tallied from that group's rows alone.
fn groups_failing_by_loop(
    table: &Table,
    keys: &[usize],
    conf: &[usize],
    spec: ModelSpec,
) -> Vec<usize> {
    let rows_by_group = GroupBy::compute(table, keys).rows_by_group();
    let columns: Vec<_> = conf
        .iter()
        .map(|&attr| {
            let (codes, n_codes) = table.column(attr).dense_codes();
            let global = CodeDistribution::from_codes(codes.iter().copied(), n_codes);
            (codes, n_codes, global)
        })
        .collect();
    (0..rows_by_group.len())
        .filter(|&g| {
            let rows = &rows_by_group[g];
            columns.iter().any(|(codes, n_codes, global)| {
                let mut hist = vec![0u32; *n_codes as usize];
                for &row in rows {
                    hist[codes[row as usize] as usize] += 1;
                }
                let counts: Vec<(u32, u32)> = (0..*n_codes)
                    .filter(|&code| hist[code as usize] > 0)
                    .map(|code| (code, hist[code as usize]))
                    .collect();
                !spec
                    .check_group(&counts, rows.len() as u32, Some(global))
                    .passes
            })
        })
        .collect()
}

/// Asserts that `MaskingContext::evaluate` agrees with a kernel check on
/// every field it reports. It checks p-sensitivity at the model's
/// `conditions_p`, which is the distinct-count models' own predicate. A
/// histogram model's verdict agrees with it up to the k-anonymity stage;
/// past it, the oracle is the model's check of the materialized release —
/// except for t-closeness after suppression, since the kernel measures
/// distance to the whole table's distribution, not the release's. Under
/// every model, that check's failing groups are the ones a direct
/// per-group loop flags.
fn assert_matches_materialized(
    fast: &NodeCheck,
    slow: &MaskOutcome,
    spec: ModelSpec,
    k: u32,
) -> Result<(), TestCaseError> {
    let setting = format!("{} node={}", spec.describe(), fast.node);
    prop_assert_eq!(&fast.node, &slow.node, "node: {}", &setting);
    prop_assert_eq!(
        fast.violating_tuples,
        slow.violating_tuples,
        "violating_tuples: {}",
        &setting
    );
    prop_assert_eq!(fast.suppressed, slow.suppressed, "suppressed: {}", &setting);
    prop_assert_eq!(fast.n_groups, slow.n_groups, "n_groups: {}", &setting);
    let masked = &slow.masked;
    let keys = masked.schema().key_indices();
    let conf = masked.schema().confidential_indices();
    let oracle = check_table_model(masked, &keys, &conf, &spec, k);
    prop_assert_eq!(
        &oracle.failing_groups,
        &groups_failing_by_loop(masked, &keys, &conf, spec),
        "failing groups: {}",
        &setting
    );
    let scanned = matches!(fast.stage, CheckStage::DetailedScan | CheckStage::Passed);
    match spec.mode() {
        GroupCheckMode::Histogram { needs_global } if scanned => {
            prop_assert!(
                matches!(slow.stage, CheckStage::DetailedScan | CheckStage::Passed),
                "stage: {} slow={:?}",
                &setting,
                slow.stage
            );
            if !needs_global || fast.suppressed == 0 {
                prop_assert_eq!(fast.satisfied, oracle.satisfied(), "model: {}", &setting);
            }
        }
        _ => {
            prop_assert_eq!(fast.stage, slow.stage, "stage: {}", &setting);
            prop_assert_eq!(fast.satisfied, slow.satisfied, "satisfied: {}", &setting);
        }
    }
    Ok(())
}

/// Feeds one long-lived evaluator [`mixed_order`] and asserts that every
/// in-lattice check equals a fresh evaluator's, that every out-of-lattice
/// node is rejected, and that every 16th step also agrees with the
/// materializing path.
fn assert_order_independent(
    table: &Table,
    qi: &QiSpace,
    spec: ModelSpec,
    k: u32,
    ts: usize,
    height: usize,
    picks: &[(prop::sample::Index, u8)],
) -> Result<(), TestCaseError> {
    let ctx = MaskingContext {
        initial: table,
        qi,
        k,
        p: spec.conditions_p(),
        ts,
    };
    let stats = ctx.initial_stats();
    let ectx = EvalContext::build(&ctx)
        .expect("context builds for valid bindings")
        .with_model(spec);
    let lattice = qi.lattice();
    let mut eval = ectx.evaluator();
    for (step, node) in mixed_order(&lattice, height, picks).iter().enumerate() {
        let setting = format!("{} k={k} ts={ts} step={step} node={node}", spec.describe());
        let got = eval.check(node, &stats);
        if !lattice.contains(node) {
            prop_assert!(got.is_err(), "out-of-lattice node accepted: {}", &setting);
            continue;
        }
        let got = got.expect("in-lattice nodes check");
        let fresh = ectx.evaluator().check(node, &stats).expect("fresh check");
        prop_assert_eq!(&got, &fresh, "long-lived vs fresh: {}", &setting);
        if step % 16 == 0 {
            let slow = ctx.evaluate(node, &stats).expect("materializing path");
            assert_matches_materialized(&got, &slow, spec, k)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The kernel's verdict does not depend on check order: prefix reuse
    /// across a long-lived evaluator's checks on the 8-QI wide Adult
    /// lattice (7,776 nodes, height 17) changes no field of any check.
    #[test]
    fn kernel_verdict_does_not_depend_on_check_order(
        seed in 0u64..1_000,
        rows in 40usize..200,
        model_kind in 0u8..4,
        model_param in 0u32..1_000,
        k in 1u32..6,
        ts in 0usize..20,
        height in 0usize..=17,
        picks in prop::collection::vec((any::<prop::sample::Index>(), 0u8..3), 4..24),
    ) {
        let table = AdultGenerator::new(seed).generate_wide(rows);
        let qi = adult_wide_qi_space();
        let spec = drawn_model(model_kind, model_param);
        assert_order_independent(&table, &qi, spec, k, ts, height, &picks)?;
    }
}

/// The empty table: both paths must agree node for node (vacuous pass or a
/// Condition 1 rejection, depending on stats).
#[test]
fn kernel_matches_on_empty_table() {
    let t = build_table(&[]);
    assert_paths_agree(&t, &test_qi_space(), 2, 1, 0).unwrap();
    assert_paths_agree(&t, &test_qi_space(), 2, 2, 3).unwrap();
}
