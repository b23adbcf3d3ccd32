//! `compare A B`: two sets of `run` results (A the parent, B the change),
//! judged metric by metric against the bounds in `BENCHMARK.json`.
//!
//! The rules: a metric whose parent runs spread (interquartile range over
//! median) wider than its bound is *unresolved*, unless every B run beats
//! every A run: then it is *better* when the medians also differ by more
//! than A's interquartile range, and *within* otherwise. With a narrower
//! spread, B is *worse* when its median is worse than A's by more than the
//! bound, *better* when B wins at least nine of ten paired runs and the
//! medians differ by more than A's interquartile range, and *within* the
//! bound otherwise. A metric A reports and B does not is *worse*.

use crate::results::{Results, WorkloadResult};
use crate::stats::{median, quartiles};
use psens_microdata::JsonValue;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Judges change runs `b` against parent runs `a` (paired by index).
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (ma, mb) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let base = ma.abs().max(f64::MIN_POSITIVE);
    let clear_gain = better(mb, ma) && (mb - ma).abs() > q3 - q1;
    if (q3 - q1) / base > bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return match (all_better, clear_gain) {
            (true, true) => Verdict::Better,
            (true, false) => Verdict::Within,
            (false, _) => Verdict::Unresolved,
        };
    }
    let worse_share = (if lower_is_better { mb - ma } else { ma - mb }) / base;
    if worse_share > bound {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && clear_gain {
        return Verdict::Better;
    }
    Verdict::Within
}

/// The end-to-end bounds from `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let value = JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let err = |e: psens_microdata::JsonError| format!("{}: {e}", path.display());
    value
        .require("end_to_end")
        .and_then(JsonValue::as_array)
        .map_err(err)?
        .iter()
        .map(|entry| {
            let bound = match entry.require("bound").map_err(err)? {
                JsonValue::Float(f) => *f,
                other => other.as_i64().map_err(err)? as f64,
            };
            Ok(Bound {
                name: entry
                    .require("name")
                    .and_then(JsonValue::as_str)
                    .map_err(err)?
                    .to_owned(),
                lower_is_better: entry
                    .require("better")
                    .and_then(JsonValue::as_str)
                    .map_err(err)?
                    == "lower",
                bound,
            })
        })
        .collect()
}

/// Every `results.json` under `path`: the file itself, or the `.json`
/// files in a directory and `results.json` in its subdirectories, in name
/// order (which is the order runs pair in).
fn result_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_file() {
        return Ok(vec![path.to_owned()]);
    }
    let mut files = Vec::new();
    let entries =
        std::fs::read_dir(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?.path();
        if entry.is_dir() && entry.join("results.json").is_file() {
            files.push(entry.join("results.json"));
        } else if entry.extension().is_some_and(|x| x == "json") {
            files.push(entry);
        }
    }
    files.sort();
    match files.is_empty() {
        true => Err(format!("no results under {}", path.display())),
        false => Ok(files),
    }
}

/// Values per `(workload, metric)`, plus failed/attempted per workload.
type Side = (
    BTreeMap<(String, String), Vec<f64>>,
    BTreeMap<String, (u64, u64)>,
);

fn load_side(path: &Path) -> Result<Side, String> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut failures: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for file in result_files(path)? {
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        let results = Results::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        for WorkloadResult {
            name,
            attempted,
            failed,
            end_to_end,
            ..
        } in results.workloads
        {
            for (metric, value) in end_to_end {
                values
                    .entry((name.clone(), metric))
                    .or_default()
                    .push(value);
            }
            let entry = failures.entry(name).or_default();
            entry.0 += failed;
            entry.1 += attempted;
        }
    }
    Ok((values, failures))
}

fn summary(values: &[f64]) -> String {
    let (q1, q3) = quartiles(values);
    format!(
        "{:.4} [{:.4}, {:.4}] n={}",
        median(values),
        q1,
        q3,
        values.len()
    )
}

/// One row per (metric, workload) A reports, then one per workload for
/// failed operations: the printed row and its verdict.
fn judge_sides(bounds: &[Bound], a: &Side, b: &Side) -> Vec<(String, Verdict)> {
    let ((a_values, a_failures), (b_values, b_failures)) = (a, b);
    let mut rows = Vec::new();
    for bound in bounds {
        for ((workload, metric), av) in a_values.iter().filter(|((_, m), _)| *m == bound.name) {
            let limit = format!("{:.0}%", bound.bound * 100.0);
            let Some(bv) = b_values.get(&(workload.clone(), metric.clone())) else {
                let row = format!(
                    "{workload} {metric} | {} | missing | | {limit}",
                    summary(av)
                );
                rows.push((row, Verdict::Worse));
                continue;
            };
            let verdict = judge(av, bv, bound.lower_is_better, bound.bound);
            let change = (median(bv) / median(av) - 1.0) * 100.0;
            let row = format!(
                "{workload} {metric} | {} | {} | {change:+.2}% | {limit}",
                summary(av),
                summary(bv),
            );
            rows.push((row, verdict));
        }
    }
    for (workload, (failed_a, attempted_a)) in a_failures {
        let (failed_b, attempted_b) = b_failures.get(workload).copied().unwrap_or_default();
        let verdict = match failed_b > *failed_a {
            true => Verdict::Worse,
            false => Verdict::Within,
        };
        let row = format!(
            "{workload} failed | {failed_a}/{attempted_a} | {failed_b}/{attempted_b} | | +0"
        );
        rows.push((row, verdict));
    }
    rows
}

/// Prints one row per (metric, workload) and returns how many came out
/// worse or unresolved.
pub fn compare(benchmark_json: &Path, a: &Path, b: &Path) -> Result<usize, String> {
    let bounds = load_bounds(benchmark_json)?;
    let rows = judge_sides(&bounds, &load_side(a)?, &load_side(b)?);
    println!("workload metric | A median [q1, q3] | B median [q1, q3] | change | bound | verdict");
    let mut flagged = 0;
    for (row, verdict) in rows {
        flagged += usize::from(matches!(verdict, Verdict::Worse | Verdict::Unresolved));
        println!("{row} | {verdict}");
    }
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 10] = [
        100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0,
    ];

    fn shifted(by: f64) -> Vec<f64> {
        A.iter().map(|x| x + by).collect()
    }

    #[test]
    fn worse_only_past_the_bound() {
        // Exactly at the bound is still within it; just past it is worse.
        assert_eq!(judge(&A, &shifted(10.0), true, 0.10), Verdict::Within);
        assert_eq!(judge(&A, &shifted(10.5), true, 0.10), Verdict::Worse);
        // Higher-is-better metrics regress downwards.
        assert_eq!(judge(&A, &shifted(-10.0), false, 0.10), Verdict::Within);
        assert_eq!(judge(&A, &shifted(-10.5), false, 0.10), Verdict::Worse);
        assert_eq!(judge(&A, &shifted(10.5), false, 0.10), Verdict::Better);
    }

    #[test]
    fn better_needs_nine_of_ten_pairs_and_more_than_the_spread() {
        let a = [
            98.0, 99.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 101.0, 102.0,
        ];
        // Nine of ten pairs won, medians 5 apart, parent IQR 0.5: better.
        let mut b: Vec<f64> = a.iter().map(|x| x - 5.0).collect();
        b[9] = 200.0;
        assert_eq!(judge(&a, &b, true, 0.10), Verdict::Better);
        // Eight of ten: within.
        b[8] = 200.0;
        assert_eq!(judge(&a, &b, true, 0.10), Verdict::Within);
        // All pairs won, but by less than the parent's own spread: within.
        let close: Vec<f64> = a.iter().map(|x| x - 0.4).collect();
        assert_eq!(judge(&a, &close, true, 0.10), Verdict::Within);
        // Ties count for neither side.
        assert_eq!(judge(&A, &A, true, 0.10), Verdict::Within);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            50.0, 60.0, 80.0, 100.0, 100.0, 100.0, 120.0, 140.0, 150.0, 160.0,
        ];
        // Parent IQR share is far above 10%: no verdict from the medians.
        assert_eq!(judge(&noisy, &noisy, true, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &[400.0; 10], true, 0.10), Verdict::Unresolved);
        // Unless every change run beats every parent run: better when the
        // medians also differ by more than the parent's IQR (67.5 here),
        // within when they do not.
        assert_eq!(judge(&noisy, &[10.0; 10], true, 0.10), Verdict::Better);
        assert_eq!(judge(&noisy, &[49.0; 10], true, 0.10), Verdict::Within);
        // A spread exactly at the bound still resolves.
        let edge = [
            90.0, 90.0, 90.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0,
        ];
        let (q1, q3) = quartiles(&edge);
        assert_eq!((q3 - q1) / median(&edge), 0.1);
        assert_eq!(judge(&edge, &edge, true, 0.10), Verdict::Within);
    }

    fn side(metrics: &[(&str, Vec<f64>)], failed: u64) -> Side {
        let values = metrics
            .iter()
            .map(|(m, v)| (("w".to_owned(), m.to_string()), v.clone()))
            .collect();
        let failures = [("w".to_owned(), (failed, 100))].into_iter().collect();
        (values, failures)
    }

    #[test]
    fn missing_metrics_and_new_failures_are_worse() {
        let bounds = [
            Bound {
                name: "x_ms".into(),
                lower_is_better: true,
                bound: 0.10,
            },
            Bound {
                name: "y_ms".into(),
                lower_is_better: true,
                bound: 0.10,
            },
        ];
        let a = side(&[("x_ms", A.to_vec()), ("y_ms", A.to_vec())], 0);
        let verdicts = |b: &Side| -> Vec<Verdict> {
            judge_sides(&bounds, &a, b)
                .into_iter()
                .map(|(_, v)| v)
                .collect()
        };
        // Same numbers, same failures: every row within.
        assert_eq!(verdicts(&a), [Verdict::Within; 3]);
        // B stopped reporting y_ms.
        let b = side(&[("x_ms", A.to_vec())], 0);
        assert_eq!(
            verdicts(&b),
            [Verdict::Within, Verdict::Worse, Verdict::Within]
        );
        // B failed an operation A did not.
        let b = side(&[("x_ms", A.to_vec()), ("y_ms", A.to_vec())], 1);
        assert_eq!(
            verdicts(&b),
            [Verdict::Within, Verdict::Within, Verdict::Worse]
        );
    }
}
