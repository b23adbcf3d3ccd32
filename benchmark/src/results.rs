//! Metric names and units, one workload's result, and the `results.json`
//! file `run` writes and `compare` reads back.

use psens_microdata::JsonValue;
use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off: `(name, unit)`. These
/// carry bounds in BENCHMARK.json and make up the untraced result line.
pub const END_TO_END: [(&str, &str); 5] = [
    ("anonymize_p50_ms", "ms"),
    ("other_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Tail latencies, reported with their sample counts by `run` but not
/// bounded: on a 2-core VM host bursts move a p90 by more than any usable
/// bound from one run to the next.
pub const TAILS: [(&str, &str); 2] = [("anonymize_p90_ms", "ms"), ("other_p90_ms", "ms")];

/// Per-layer metrics from the traced replay: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.response_bytes", "B"),
    ("server.residual_us", "us"),
    ("server.shed_total", "count"),
    ("registry.register_ms", "ms"),
    ("registry.snapshot_us", "us"),
    ("registry.pool_hit_ratio", "ratio"),
    ("registry.apply_delta_us", "us"),
    ("registry.recover_ms", "ms"),
    ("state.log_delta_us", "us"),
    ("state.journal_bytes", "B"),
    ("state.replay_ms", "ms"),
    ("evaluator.build_us", "us"),
    ("evaluator.nodes_checked", "count"),
    ("evaluator.check_ms", "ms"),
    ("evaluator.condition1_nodes", "count"),
    ("evaluator.condition1_ms", "ms"),
    ("evaluator.condition2_nodes", "count"),
    ("evaluator.condition2_ms", "ms"),
    ("evaluator.k_anonymity_nodes", "count"),
    ("evaluator.k_anonymity_ms", "ms"),
    ("evaluator.detailed_scan_nodes", "count"),
    ("evaluator.detailed_scan_ms", "ms"),
    ("evaluator.passed_nodes", "count"),
    ("evaluator.passed_ms", "ms"),
    ("samarati.search_ms", "ms"),
    ("samarati.self_ms", "ms"),
    ("samarati.heights_probed", "count"),
    ("samarati.worker_failures", "count"),
    ("masking.materialize_ms", "ms"),
    ("masking.tables_materialized", "count"),
    ("verdict.hits", "count"),
    ("verdict.inferred", "count"),
    ("verdict.reuse_ratio", "ratio"),
    ("verdict.kept", "count"),
    ("verdict.invalidated", "count"),
    ("verdict.kept_fraction", "ratio"),
    ("verdict.pool_bytes", "B"),
    ("watch.reverify_ms", "ms"),
    ("watch.flips", "count"),
    ("check.p_sensitivity_ms", "ms"),
    ("check.model_ms", "ms"),
    ("check.max_k_ms", "ms"),
    ("check.max_p_ms", "ms"),
    ("stats.compute_ms", "ms"),
    ("metrics.risk_ms", "ms"),
    ("sql.execute_ms", "ms"),
    ("csv.read_ms", "ms"),
    ("csv.write_ms", "ms"),
    ("csv.write_bytes", "B"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&TAILS)
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

/// One workload's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metric and tail values by name.
    pub end_to_end: BTreeMap<String, f64>,
    /// Samples behind each of them.
    pub samples: BTreeMap<String, u64>,
    /// Per-layer metric values by name (empty when the replay did not run).
    pub per_layer: BTreeMap<String, f64>,
}

fn metric_json(value: f64, unit: &str) -> JsonValue {
    let mut entry = JsonValue::object();
    entry.set("value", JsonValue::Float(value));
    entry.set("unit", JsonValue::Str(unit.to_owned()));
    entry
}

impl WorkloadResult {
    /// The single-workload result line: `correct`, `attempted`, `failed`,
    /// and the end-to-end metrics (`traced == false`) or the per-layer ones.
    /// Gates run before this is built, so a printed line is always correct.
    pub fn result_line(&self, traced: bool) -> JsonValue {
        let (table, values): (&[(&str, &str)], _) = match traced {
            false => (&END_TO_END, &self.end_to_end),
            true => (&PER_LAYER, &self.per_layer),
        };
        let mut metrics = JsonValue::object();
        for (name, unit) in table {
            let value = values.get(*name).copied().unwrap_or(0.0);
            metrics.set(*name, metric_json(value, unit));
        }
        let mut out = JsonValue::object();
        out.set("correct", JsonValue::Bool(true));
        out.set("attempted", JsonValue::Int(self.attempted as i64));
        out.set("failed", JsonValue::Int(self.failed as i64));
        out.set("metrics", metrics);
        out
    }

    fn to_json(&self) -> JsonValue {
        let section = |values: &BTreeMap<String, f64>| {
            let mut out = JsonValue::object();
            for (name, &value) in values {
                let mut entry = metric_json(value, unit_of(name).unwrap_or(""));
                if let Some(&n) = self.samples.get(name) {
                    entry.set("samples", JsonValue::Int(n as i64));
                }
                out.set(name.as_str(), entry);
            }
            out
        };
        let mut out = JsonValue::object();
        out.set("name", JsonValue::Str(self.name.clone()));
        out.set("correct", JsonValue::Bool(true));
        out.set("attempted", JsonValue::Int(self.attempted as i64));
        out.set("failed", JsonValue::Int(self.failed as i64));
        out.set("end_to_end", section(&self.end_to_end));
        out.set("per_layer", section(&self.per_layer));
        out
    }

    fn from_json(value: &JsonValue) -> Result<WorkloadResult, String> {
        let err = |e: psens_microdata::JsonError| e.to_string();
        let mut samples = BTreeMap::new();
        let mut section = |key: &str| -> Result<BTreeMap<String, f64>, String> {
            let mut out = BTreeMap::new();
            for (name, entry) in value
                .require(key)
                .and_then(JsonValue::as_object)
                .map_err(err)?
            {
                let number = entry.require("value").map_err(err)?;
                let v = match number {
                    JsonValue::Float(f) => *f,
                    other => other.as_i64().map_err(err)? as f64,
                };
                out.insert(name.clone(), v);
                if let Some(n) = entry.get("samples") {
                    samples.insert(name.clone(), n.as_u64().map_err(err)?);
                }
            }
            Ok(out)
        };
        let end_to_end = section("end_to_end")?;
        let per_layer = section("per_layer")?;
        Ok(WorkloadResult {
            name: value
                .require("name")
                .and_then(JsonValue::as_str)
                .map_err(err)?
                .to_owned(),
            attempted: value
                .require("attempted")
                .and_then(JsonValue::as_u64)
                .map_err(err)?,
            failed: value
                .require("failed")
                .and_then(JsonValue::as_u64)
                .map_err(err)?,
            end_to_end,
            samples,
            per_layer,
        })
    }
}

/// The contents of `results.json`: run metadata plus one entry per
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub meta: JsonValue,
    pub workloads: Vec<WorkloadResult>,
}

impl Results {
    pub fn to_json(&self) -> JsonValue {
        let mut out = JsonValue::object();
        out.set("benchmark", JsonValue::Str("psens".into()));
        out.set("meta", self.meta.clone());
        out.set(
            "workloads",
            JsonValue::Array(self.workloads.iter().map(WorkloadResult::to_json).collect()),
        );
        out
    }

    pub fn parse(text: &str) -> Result<Results, String> {
        let value = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let workloads = value
            .require("workloads")
            .and_then(JsonValue::as_array)
            .map_err(|e| e.to_string())?
            .iter()
            .map(WorkloadResult::from_json)
            .collect::<Result<_, _>>()?;
        Ok(Results {
            meta: value.require("meta").map_err(|e| e.to_string())?.clone(),
            workloads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Results {
        let mut meta = JsonValue::object();
        meta.set("seed", JsonValue::Int(7));
        meta.set("host_parallelism", JsonValue::Int(2));
        let mut end_to_end = BTreeMap::new();
        end_to_end.insert("anonymize_p50_ms".to_owned(), 12.345_678_901_234);
        end_to_end.insert("throughput_rps".to_owned(), 3.0);
        let mut samples = BTreeMap::new();
        samples.insert("anonymize_p50_ms".to_owned(), 150);
        let mut per_layer = BTreeMap::new();
        per_layer.insert("trace.overhead_pct".to_owned(), -0.25);
        per_layer.insert("verdict.hits".to_owned(), 0.0);
        Results {
            meta,
            workloads: vec![WorkloadResult {
                name: "cold-search".into(),
                attempted: 301,
                failed: 0,
                end_to_end,
                samples,
                per_layer,
            }],
        }
    }

    #[test]
    fn results_json_round_trips() {
        let results = sample();
        let text = results.to_json().to_json_pretty();
        let back = Results::parse(&text).unwrap();
        assert_eq!(back, results);
        // Values keep every digit.
        assert!(text.contains("12.345678901234"));
    }

    #[test]
    fn result_line_lists_every_metric_once() {
        let results = sample();
        for (traced, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let line = results.workloads[0].result_line(traced);
            let metrics = line.require("metrics").unwrap().as_object().unwrap();
            let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
            let expected: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, expected);
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }

    /// BENCHMARK.json names exactly the workloads this binary runs and the
    /// metrics it prints, with the same units.
    #[test]
    fn benchmark_json_matches_what_the_binary_prints() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let value = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let entries = |key: &str, field: &str| -> Vec<(String, String)> {
            value
                .require(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let get = |k: &str| m.require(k).unwrap().as_str().unwrap().to_owned();
                    (get("name"), get(field))
                })
                .collect()
        };
        let expect = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(entries("end_to_end", "unit"), expect(&END_TO_END));
        assert_eq!(entries("per_layer", "unit"), expect(&PER_LAYER));
        let workloads: Vec<String> = entries("workloads", "why")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, crate::inputs::WORKLOADS);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&TAILS)
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }
}
