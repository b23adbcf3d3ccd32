//! The in-process replay: for each request, the same public library calls
//! the `psens-server` handler or the `psens` CLI makes, in the same order,
//! one request at a time, each wrapped in a span when the tracer is on.
//! Request frames are built before the replay starts (client work), so a
//! request's root span runs from decode to encode. Each op builds the
//! result object its server handler builds, field for field, and returns
//! it so the workloads can hold it against the wire response.

use crate::inputs::Anon;
use crate::trace::{self, Span, SpanObserver, Tracer};
use psens_algorithms::samarati::{
    pk_minimal_generalization_model_with_stats, Pruning, SearchOutcome,
};
use psens_algorithms::Tuning;
use psens_core::{
    check_p_sensitivity, check_table_model, max_k, max_p_of_masked, ConfidentialStats, ModelDetail,
    ModelSpec, NoopObserver, SearchBudget, SearchObserver, VerdictStore,
};
use psens_datasets::Spec;
use psens_hierarchy::QiSpace;
use psens_metrics::{attribute_risk, identity_risk};
use psens_microdata::csv::{read_table_str, write_table};
use psens_microdata::{DeltaBatch, JsonValue, Table};
use psens_server::protocol::{ok_response, read_frame, request, write_frame};
use psens_server::registry::{parse_cells, Dataset, Registry};
use psens_server::StateDir;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub fn ms(elapsed: std::time::Duration) -> f64 {
    elapsed.as_secs_f64() * 1e3
}

/// A request frame as a client would send it.
pub fn frame(id: i64, op: &str, params: JsonValue) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, &request(id, op, params)).expect("writing to a Vec cannot fail");
    buf
}

/// The verdict fields the correctness gates compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub node_levels: Option<Vec<i64>>,
    pub height: Option<i64>,
    pub suppressed: Option<i64>,
    pub proven_min_height: i64,
}

impl Verdict {
    /// Reads the fields from a wire `verdict` object.
    pub fn from_wire(verdict: &JsonValue) -> Result<Verdict, String> {
        let field = |key: &str| verdict.require(key).map_err(|e| e.to_string());
        let opt_int = |key: &str| -> Result<Option<i64>, String> {
            match field(key)? {
                JsonValue::Null => Ok(None),
                v => v.as_i64().map(Some).map_err(|e| e.to_string()),
            }
        };
        let node_levels = match field("node_levels")? {
            JsonValue::Null => None,
            v => Some(
                v.as_array()
                    .map_err(|e| e.to_string())?
                    .iter()
                    .map(|l| l.as_i64().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?,
            ),
        };
        Ok(Verdict {
            node_levels,
            height: opt_int("height")?,
            suppressed: opt_int("suppressed")?,
            proven_min_height: field("proven_min_height")?
                .as_i64()
                .map_err(|e| e.to_string())?,
        })
    }

    pub fn from_outcome(outcome: &SearchOutcome) -> Verdict {
        let node = outcome.node.as_ref();
        Verdict {
            node_levels: node.map(|n| n.levels().iter().map(|&l| l as i64).collect()),
            height: node.map(|n| n.height() as i64),
            suppressed: node.map(|_| outcome.suppressed as i64),
            proven_min_height: outcome.proven_min_height as i64,
        }
    }
}

/// Samarati's search with the paper's pruning, as the server and the CLI
/// run it.
#[allow(clippy::too_many_arguments)]
pub fn search<O: SearchObserver>(
    table: &Table,
    qi: &QiSpace,
    stats: &ConfidentialStats,
    anon: Anon,
    store: Option<&VerdictStore>,
    threads: usize,
    observer: &O,
) -> Result<SearchOutcome, String> {
    let tuning = Tuning {
        threads,
        cache: store,
        chunk_rows: 0,
    };
    pk_minimal_generalization_model_with_stats(
        table,
        qi,
        anon.model,
        anon.k,
        anon.ts,
        Pruning::NecessaryConditions,
        &SearchBudget::unlimited(),
        tuning,
        observer,
        stats,
    )
    .map_err(|e| e.to_string())
}

/// The server's pure-function `verdict` object.
fn verdict_json(qi: &QiSpace, model: ModelSpec, outcome: &SearchOutcome) -> JsonValue {
    let mut verdict = JsonValue::object();
    model_fields(&mut verdict, model);
    verdict.set("satisfied", JsonValue::Bool(outcome.node.is_some()));
    verdict.set(
        "termination",
        JsonValue::Str(outcome.termination.as_str().to_owned()),
    );
    match &outcome.node {
        Some(node) => {
            verdict.set("node", JsonValue::Str(qi.describe_node(node)));
            verdict.set(
                "node_levels",
                JsonValue::Array(node.levels().iter().map(|&l| int(l as usize)).collect()),
            );
            verdict.set("height", int(node.height()));
            verdict.set("suppressed", int(outcome.suppressed));
        }
        None => {
            for key in ["node", "node_levels", "height", "suppressed"] {
                verdict.set(key, JsonValue::Null);
            }
        }
    }
    verdict.set("proven_min_height", int(outcome.proven_min_height));
    verdict
}

/// Measurements the spans do not carry.
#[derive(Debug, Default)]
pub struct Facts {
    pub response_bytes: Vec<f64>,
    pub heights_probed: Vec<f64>,
    pub worker_failures: u64,
    pub kept: u64,
    pub invalidated: u64,
    pub flips: u64,
    pub write_bytes: Vec<f64>,
}

/// A replay session: one tracer (on or off), request ids, root-span
/// durations by op, and the facts gathered along the way.
pub struct Replay<'t> {
    tracer: &'t Tracer,
    next_request: u64,
    /// `(op, milliseconds)` of every replayed request's root span.
    pub op_ms: Vec<(&'static str, f64)>,
    pub facts: Facts,
}

/// A watched spec and the verdict text last published for it.
pub struct Watch {
    pub anon: Anon,
    pub last: Option<String>,
}

impl<'t> Replay<'t> {
    pub fn new(tracer: &'t Tracer) -> Replay<'t> {
        Replay {
            tracer,
            next_request: 1,
            op_ms: Vec::new(),
            facts: Facts::default(),
        }
    }

    /// Runs one request under a root span named `op`.
    fn root<T>(
        &mut self,
        op: &'static str,
        f: impl FnOnce(&mut Facts, &'t Tracer, u64, u64) -> Result<T, String>,
    ) -> Result<T, String> {
        let rid = self.next_request;
        self.next_request += 1;
        let tracer = self.tracer;
        let facts = &mut self.facts;
        let start = Instant::now();
        let out = tracer.span(None, rid, op, |root| f(facts, tracer, root, rid));
        self.op_ms.push((op, ms(start.elapsed())));
        out
    }

    /// `register`: returns the dataset and the result object.
    pub fn register(
        &mut self,
        registry: &Registry,
        frame: &[u8],
    ) -> Result<(Arc<Dataset>, JsonValue), String> {
        self.root("op.register", |facts, t, root, rid| {
            let request = decode(t, root, rid, frame)?;
            let dataset = t.span(Some(root), rid, "registry.register", |_| {
                let spec = request.require("spec").map_err(|e| e.to_string())?;
                let spec = Spec::from_json(&spec.to_json())?;
                let name = str_param(&request, "name")?;
                registry.register(name, str_param(&request, "csv")?, spec)
            })?;
            let result = encode(t, facts, root, rid, || {
                let mut result = JsonValue::object();
                result.set("name", JsonValue::Str(dataset.name.clone()));
                result.set("rows", int(dataset.n_rows()));
                result.set("lattice_nodes", int(dataset.qi.lattice().node_count()));
                result
            });
            Ok((dataset, result))
        })
    }

    /// `anonymize`: snapshot (with the pooled store unless `no_cache`),
    /// search (`threads == 0`: all cores), encode.
    pub fn anonymize(
        &mut self,
        registry: &Registry,
        dataset: &Arc<Dataset>,
        frame: &[u8],
        anon: Anon,
        no_cache: bool,
        threads: usize,
    ) -> Result<JsonValue, String> {
        self.root("op.anonymize", |facts, t, root, rid| {
            decode(t, root, rid, frame)?;
            let (store, warm, table, stats) =
                t.span(Some(root), rid, "registry.snapshot", |_| match no_cache {
                    true => {
                        let (table, stats) = dataset.snapshot();
                        (None, false, table, stats)
                    }
                    false => {
                        let (store, warm, table, stats) =
                            registry.snapshot_with_store(dataset, anon.model, anon.k, anon.ts);
                        (Some(store), warm, table, stats)
                    }
                });
            let outcome = traced_search(
                t,
                root,
                rid,
                facts,
                &table,
                &dataset.qi,
                &stats,
                anon,
                store.as_deref(),
                threads,
            )?;
            let result = encode(t, facts, root, rid, || {
                let mut result = JsonValue::object();
                result.set("verdict", verdict_json(&dataset.qi, anon.model, &outcome));
                result.set("warm", JsonValue::Bool(warm));
                result.set("search", outcome.stats.to_json());
                result
            });
            // The handler frees the snapshot and the materialized winner
            // before it answers; on a large table that is not free.
            t.span(Some(root), rid, "anonymize.release", |_| {
                drop((outcome, table, stats, store))
            });
            Ok(result)
        })
    }

    /// `check`: max k, max p, then the model's own predicate.
    pub fn check(
        &mut self,
        dataset: &Dataset,
        frame: &[u8],
        model: ModelSpec,
        k: u32,
    ) -> Result<JsonValue, String> {
        self.root("op.check", |facts, t, root, rid| {
            decode(t, root, rid, frame)?;
            let table = dataset.table();
            let keys = table.schema().key_indices();
            let conf = table.schema().confidential_indices();
            let maxk = t.span(Some(root), rid, "check.max_k", |_| max_k(&table, &keys));
            let maxp = t.span(Some(root), rid, "check.max_p", |_| {
                max_p_of_masked(&table, &keys, &conf)
            });
            let report = match model {
                ModelSpec::PSensitiveK { p } => {
                    t.span(Some(root), rid, "check.p_sensitivity", |_| {
                        let report = check_p_sensitivity(&table, &keys, &conf, p, k);
                        CheckReport {
                            n_groups: report.n_groups,
                            k_anonymous: report.k_anonymous,
                            violations: report.violations.len(),
                            satisfied: report.satisfied(),
                            detail: None,
                        }
                    })
                }
                _ => t.span(Some(root), rid, "check.model", |_| {
                    let instance = model.instantiate();
                    let report = check_table_model(&table, &keys, &conf, instance.as_ref(), k);
                    CheckReport {
                        n_groups: report.n_groups,
                        k_anonymous: report.k_anonymous,
                        violations: report.violating_pairs,
                        satisfied: report.satisfied(),
                        detail: report.detail,
                    }
                }),
            };
            Ok(encode(t, facts, root, rid, || {
                let mut result = JsonValue::object();
                result.set("rows", int(table.n_rows()));
                result.set("n_groups", int(report.n_groups));
                result.set("k", JsonValue::Int(i64::from(k)));
                result.set("p", JsonValue::Int(i64::from(model.conditions_p())));
                result.set("k_anonymous", JsonValue::Bool(report.k_anonymous));
                result.set("max_k", JsonValue::Int(i64::from(maxk)));
                result.set("max_p", JsonValue::Int(i64::from(maxp)));
                result.set("p_sensitive", JsonValue::Bool(report.violations == 0));
                result.set("violations", int(report.violations));
                result.set("satisfied", JsonValue::Bool(report.satisfied));
                if let Some(detail) = report.detail {
                    result.set("detail_kind", JsonValue::Str(detail.kind().to_owned()));
                    result.set("detail_value", JsonValue::Int(detail.value() as i64));
                }
                model_fields(&mut result, model);
                result
            }))
        })
    }

    /// `analyze`: identity and attribute disclosure risk, and the
    /// Condition 1 bound for `p`.
    pub fn analyze(
        &mut self,
        dataset: &Dataset,
        frame: &[u8],
        p: u32,
    ) -> Result<JsonValue, String> {
        self.root("op.analyze", |facts, t, root, rid| {
            decode(t, root, rid, frame)?;
            let (table, stats) = dataset.snapshot();
            let keys = table.schema().key_indices();
            let (id_risk, attr_risk) = t.span(Some(root), rid, "metrics.risk", |_| {
                let conf = table.schema().confidential_indices();
                (
                    identity_risk(&table, &keys),
                    attribute_risk(&table, &keys, &conf),
                )
            });
            Ok(encode(t, facts, root, rid, || {
                let mut result = JsonValue::object();
                result.set("rows", int(table.n_rows()));
                result.set("max_p", int(stats.max_p()));
                result.set("requested_p", JsonValue::Int(i64::from(p)));
                result.set(
                    "satisfiable",
                    JsonValue::Bool((p as usize) <= stats.max_p()),
                );
                let mut identity = JsonValue::object();
                identity.set("max_risk", JsonValue::Float(id_risk.max_risk));
                identity.set("avg_risk", JsonValue::Float(id_risk.avg_risk));
                identity.set("uniques", int(id_risk.uniques));
                result.set("identity_risk", identity);
                let mut attribute = JsonValue::object();
                attribute.set("disclosures", int(attr_risk.disclosures));
                attribute.set("affected_groups", int(attr_risk.affected_groups));
                attribute.set(
                    "affected_fraction",
                    JsonValue::Float(attr_risk.affected_fraction),
                );
                result.set("attribute_risk", attribute);
                result
            }))
        })
    }

    /// `query`: the SQL engine over the registered table.
    pub fn query(
        &mut self,
        dataset: &Dataset,
        frame: &[u8],
        sql: &str,
    ) -> Result<JsonValue, String> {
        self.root("op.query", |facts, t, root, rid| {
            decode(t, root, rid, frame)?;
            let table = dataset.table();
            let answer = t.span(Some(root), rid, "sql.execute", |_| {
                let mut catalog = psens_sql::Catalog::new();
                catalog.register("data", &table);
                psens_sql::execute(&catalog, sql).map_err(|e| e.to_string())
            })?;
            Ok(encode(t, facts, root, rid, || {
                let mut result = JsonValue::object();
                result.set("rows", int(answer.n_rows()));
                result.set(
                    "text",
                    JsonValue::Str(psens_microdata::render(&answer, 100)),
                );
                result
            }))
        })
    }

    /// `watch`: registers the spec and publishes its baseline verdict.
    pub fn watch(
        &mut self,
        registry: &Registry,
        dataset: &Arc<Dataset>,
        frame: &[u8],
        watch: &mut Watch,
    ) -> Result<JsonValue, String> {
        self.root("op.watch", |facts, t, root, rid| {
            decode(t, root, rid, frame)?;
            let anon = watch.anon;
            let registered = dataset.register_watch(anon.model, anon.k, anon.ts);
            let verdict = watched_verdict(t, root, rid, facts, registry, dataset, anon)?;
            watch.last = Some(verdict.to_json());
            Ok(encode(t, facts, root, rid, || {
                let mut result = JsonValue::object();
                result.set("dataset", JsonValue::Str(dataset.name.clone()));
                model_fields(&mut result, anon.model);
                result.set("k", JsonValue::Int(i64::from(anon.k)));
                result.set("ts", int(anon.ts));
                result.set("registered", JsonValue::Bool(registered));
                result.set("verdict", verdict);
                result
            }))
        })
    }

    /// `update`: parse cells, journal, apply (with selective pool
    /// invalidation), then re-verify every watch.
    pub fn update(
        &mut self,
        registry: &Registry,
        dataset: &Arc<Dataset>,
        state: &StateDir,
        frame: &[u8],
        watches: &mut [Watch],
    ) -> Result<JsonValue, String> {
        self.root("op.update", |facts, t, root, rid| {
            let request = decode(t, root, rid, frame)?;
            let (appends, deletes, batch) =
                t.span(Some(root), rid, "registry.parse_cells", |_| {
                    let (appends, deletes) = update_cells(&request)?;
                    let rows = parse_cells(dataset.table().schema(), &appends)?;
                    let batch = DeltaBatch {
                        appends: rows,
                        deletes: deletes.clone(),
                    };
                    Ok::<_, String>((appends, deletes, batch))
                })?;
            t.span(Some(root), rid, "state.log_delta", |_| {
                state.log_delta(&dataset.name, &appends, &deletes)
            })
            .map_err(|e| format!("journal: {e}"))?;
            let outcome = t.span(Some(root), rid, "registry.apply_delta", |_| {
                dataset.apply_delta(&batch, None)
            })?;
            facts.kept += outcome.kept;
            facts.invalidated += outcome.invalidated;
            let (mut flipped, mut changed) = (0, Vec::new());
            t.span(Some(root), rid, "watch.reverify", |reverify| {
                for watch in watches.iter_mut() {
                    let verdict =
                        watched_verdict(t, reverify, rid, facts, registry, dataset, watch.anon)?;
                    let text = verdict.to_json();
                    if watch.last.as_deref() == Some(text.as_str()) {
                        continue;
                    }
                    flipped += usize::from(watch.last.is_some());
                    watch.last = Some(text);
                    let mut entry = JsonValue::object();
                    model_fields(&mut entry, watch.anon.model);
                    entry.set("k", JsonValue::Int(i64::from(watch.anon.k)));
                    entry.set("ts", int(watch.anon.ts));
                    entry.set("verdict", verdict);
                    changed.push(entry);
                }
                Ok::<_, String>(())
            })?;
            facts.flips += flipped as u64;
            Ok(encode(t, facts, root, rid, || {
                let effect = &outcome.effect;
                let mut result = JsonValue::object();
                result.set("dataset", JsonValue::Str(dataset.name.clone()));
                result.set("appended", int(effect.appended));
                result.set("deleted", int(effect.deleted));
                result.set("rows", int(outcome.rows));
                result.set(
                    "deltas_applied",
                    JsonValue::Int(outcome.deltas_applied as i64),
                );
                result.set("net_zero", JsonValue::Bool(effect.net_zero));
                result.set("append_only", JsonValue::Bool(effect.append_only));
                let mut invalidation = JsonValue::object();
                invalidation.set("kept", JsonValue::Int(outcome.kept as i64));
                invalidation.set("invalidated", JsonValue::Int(outcome.invalidated as i64));
                result.set("invalidation", invalidation);
                let mut summary = JsonValue::object();
                summary.set("checked", int(watches.len()));
                summary.set("flipped", int(flipped));
                summary.set("changed", JsonValue::Array(changed));
                summary.set("errors", JsonValue::Array(Vec::new()));
                result.set("watches", summary);
                result
            }))
        })
    }

    /// Boot-time recovery over `state_root`: journal replay, then
    /// re-interning and delta re-application into a fresh registry.
    pub fn recover(&mut self, state_root: &Path) -> Result<Registry, String> {
        self.root("op.recover", |_, t, root, rid| {
            let state = Arc::new(StateDir::open(state_root).map_err(|e| e.to_string())?);
            t.span(Some(root), rid, "state.replay", |_| state.replay());
            let registry = Registry::with_state(Some(state), 0);
            let stats = t.span(Some(root), rid, "registry.recover", |_| registry.recover());
            match stats.warnings.is_empty() {
                true => Ok(registry),
                false => Err(format!("recovery warnings: {:?}", stats.warnings)),
            }
        })
    }

    /// `psens anonymize`: read, statistics, search (with a per-run verdict
    /// store, as the CLI does), write the release. Returns the release.
    pub fn cli_anonymize(
        &mut self,
        spec: &Path,
        input: &Path,
        out: &Path,
        anon: Anon,
        threads: usize,
    ) -> Result<Table, String> {
        self.root("cli.anonymize", |facts, t, root, rid| {
            let spec = load_spec(spec)?;
            let table = cli_read(t, root, rid, &spec, input)?;
            let conf = table.schema().confidential_indices();
            let stats = t.span(Some(root), rid, "stats.compute", |_| {
                ConfidentialStats::compute(&table, &conf)
            });
            let qi = spec.qi_space()?;
            let store = VerdictStore::for_model(&qi.lattice(), anon.ts, anon.model.is_monotone());
            let outcome = traced_search(
                t,
                root,
                rid,
                facts,
                &table,
                &qi,
                &stats,
                anon,
                Some(&store),
                threads,
            )?;
            let masked = outcome
                .masked
                .ok_or("the CLI configuration has no feasible node")?;
            let bytes = t.span(Some(root), rid, "csv.write", |_| {
                let mut file = std::fs::File::create(out).map_err(|e| e.to_string())?;
                write_table(&mut file, &masked, true).map_err(|e| e.to_string())?;
                file.metadata().map(|m| m.len()).map_err(|e| e.to_string())
            })?;
            facts.write_bytes.push(bytes as f64);
            Ok(masked)
        })
    }

    /// `psens check`: read, then p-sensitivity, max k, max p.
    pub fn cli_check(&mut self, spec: &Path, input: &Path, p: u32, k: u32) -> Result<(), String> {
        self.root("cli.check", |_, t, root, rid| {
            let spec = load_spec(spec)?;
            let table = cli_read(t, root, rid, &spec, input)?;
            let keys = table.schema().key_indices();
            let conf = table.schema().confidential_indices();
            // The CLI prints these; black_box keeps the unused results computed.
            black_box(t.span(Some(root), rid, "check.p_sensitivity", |_| {
                check_p_sensitivity(&table, &keys, &conf, p, k)
            }));
            black_box(t.span(Some(root), rid, "check.max_k", |_| max_k(&table, &keys)));
            black_box(t.span(Some(root), rid, "check.max_p", |_| {
                max_p_of_masked(&table, &keys, &conf)
            }));
            Ok(())
        })
    }

    /// Median root-span duration of `op`, milliseconds.
    pub fn op_median_ms(&self, op: &str) -> Option<f64> {
        let times: Vec<f64> = self
            .op_ms
            .iter()
            .filter(|(o, _)| *o == op)
            .map(|(_, t)| *t)
            .collect();
        (!times.is_empty()).then(|| crate::stats::median(&times))
    }
}

fn str_param<'a>(request: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    request
        .require(key)
        .and_then(JsonValue::as_str)
        .map_err(|e| e.to_string())
}

fn decode(t: &Tracer, root: u64, rid: u64, frame: &[u8]) -> Result<JsonValue, String> {
    t.span(Some(root), rid, "protocol.decode", |_| {
        read_frame(&mut &frame[..])
    })
    .map_err(|e| e.to_string())?
    .ok_or_else(|| "empty request frame".to_owned())
}

/// Builds the success response and frames it, recording the frame's size;
/// returns the response's `result` object.
fn encode(
    t: &Tracer,
    facts: &mut Facts,
    root: u64,
    rid: u64,
    result: impl FnOnce() -> JsonValue,
) -> JsonValue {
    let (bytes, response) = t.span(Some(root), rid, "protocol.encode", |_| {
        let response = ok_response(rid as i64, result());
        let mut buf = Vec::new();
        write_frame(&mut buf, &response).expect("writing to a Vec cannot fail");
        (buf.len(), response)
    });
    facts.response_bytes.push(bytes as f64);
    response
        .require("result")
        .expect("ok_response sets `result`")
        .clone()
}

fn int(n: usize) -> JsonValue {
    JsonValue::Int(n as i64)
}

/// The `model` and `param` fields every model-aware response carries.
fn model_fields(result: &mut JsonValue, model: ModelSpec) {
    result.set("model", JsonValue::Str(model.name().to_owned()));
    result.set("param", JsonValue::Int(model.param() as i64));
}

/// What `check` reports from either predicate: p-sensitive k-anonymity's
/// own checker, or another model's whole-table check.
struct CheckReport {
    n_groups: usize,
    k_anonymous: bool,
    violations: usize,
    satisfied: bool,
    detail: Option<ModelDetail>,
}

#[allow(clippy::too_many_arguments)]
fn traced_search(
    t: &Tracer,
    parent: u64,
    rid: u64,
    facts: &mut Facts,
    table: &Table,
    qi: &QiSpace,
    stats: &ConfidentialStats,
    anon: Anon,
    store: Option<&VerdictStore>,
    threads: usize,
) -> Result<SearchOutcome, String> {
    let outcome = t.span(Some(parent), rid, "samarati.search", |id| {
        match t.enabled() {
            true => {
                let observer = SpanObserver {
                    tracer: t,
                    parent: id,
                    request_id: rid,
                };
                search(table, qi, stats, anon, store, threads, &observer)
            }
            false => search(table, qi, stats, anon, store, threads, &NoopObserver),
        }
    })?;
    facts
        .heights_probed
        .push(outcome.stats.heights_probed.len() as f64);
    facts.worker_failures += outcome.stats.worker_failures as u64;
    Ok(outcome)
}

/// The server's watch re-verification: pooled snapshot, then search.
fn watched_verdict(
    t: &Tracer,
    parent: u64,
    rid: u64,
    facts: &mut Facts,
    registry: &Registry,
    dataset: &Arc<Dataset>,
    anon: Anon,
) -> Result<JsonValue, String> {
    let (store, _, table, stats) = t.span(Some(parent), rid, "registry.snapshot", |_| {
        registry.snapshot_with_store(dataset, anon.model, anon.k, anon.ts)
    });
    let outcome = traced_search(
        t,
        parent,
        rid,
        facts,
        &table,
        &dataset.qi,
        &stats,
        anon,
        Some(&store),
        0,
    )?;
    Ok(verdict_json(&dataset.qi, anon.model, &outcome))
}

/// `appends` (rendered cells) and `deletes` of an `update` request.
fn update_cells(request: &JsonValue) -> Result<(Vec<Vec<String>>, Vec<usize>), String> {
    let err = |e: psens_microdata::JsonError| e.to_string();
    let appends = request
        .require("appends")
        .and_then(JsonValue::as_array)
        .map_err(err)?
        .iter()
        .map(|row| {
            row.as_array()
                .map_err(err)?
                .iter()
                .map(|cell| cell.as_str().map(str::to_owned).map_err(err))
                .collect()
        })
        .collect::<Result<_, String>>()?;
    let deletes = request
        .require("deletes")
        .and_then(JsonValue::as_array)
        .map_err(err)?
        .iter()
        .map(|ix| ix.as_usize().map_err(err))
        .collect::<Result<_, String>>()?;
    Ok((appends, deletes))
}

fn load_spec(path: &Path) -> Result<Spec, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Spec::from_json(&text)
}

fn cli_read(t: &Tracer, root: u64, rid: u64, spec: &Spec, input: &Path) -> Result<Table, String> {
    t.span(Some(root), rid, "csv.read", |_| {
        let text = std::fs::read_to_string(input)
            .map_err(|e| format!("reading {}: {e}", input.display()))?;
        let schema = spec.schema().map_err(|e| e.to_string())?;
        read_table_str(&text, schema, true).map_err(|e| e.to_string())
    })
}

/// Per-layer metrics from a traced replay's spans and facts. Times of
/// single calls are medians over the spans of that name; search metrics are
/// means per search; reuse and invalidation are totals or ratios.
pub fn layer_metrics(spans: &[Span], facts: &Facts) -> BTreeMap<String, f64> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    let mut by_name: HashMap<&str, Vec<&Span>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push(span);
        }
        by_name.entry(span.name).or_default().push(span);
    }
    let durations = |name: &str, scale: f64| -> Vec<f64> {
        by_name
            .get(name)
            .map(|v| v.iter().map(|s| s.duration_ns() as f64 / scale).collect())
            .unwrap_or_default()
    };
    let med = |values: Vec<f64>| match values.is_empty() {
        true => 0.0,
        false => crate::stats::median(&values),
    };
    const US: f64 = 1e3;
    const MS: f64 = 1e6;
    let mut out = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_owned(), value);
    };
    put("protocol.decode_us", med(durations("protocol.decode", US)));
    put("protocol.encode_us", med(durations("protocol.encode", US)));
    put("protocol.response_bytes", med(facts.response_bytes.clone()));
    put(
        "registry.register_ms",
        med(durations("registry.register", MS)),
    );
    put(
        "registry.snapshot_us",
        med(durations("registry.snapshot", US)),
    );
    put(
        "registry.apply_delta_us",
        med(durations("registry.apply_delta", US)),
    );
    put(
        "registry.recover_ms",
        med(durations("registry.recover", MS)),
    );
    put("state.log_delta_us", med(durations("state.log_delta", US)));
    put("state.replay_ms", med(durations("state.replay", MS)));
    put("evaluator.build_us", med(durations("evaluator.build", US)));
    for (span, metric) in [
        ("check.p_sensitivity", "check.p_sensitivity_ms"),
        ("check.model", "check.model_ms"),
        ("check.max_k", "check.max_k_ms"),
        ("check.max_p", "check.max_p_ms"),
        ("stats.compute", "stats.compute_ms"),
        ("metrics.risk", "metrics.risk_ms"),
        ("sql.execute", "sql.execute_ms"),
        ("csv.read", "csv.read_ms"),
        ("csv.write", "csv.write_ms"),
        ("watch.reverify", "watch.reverify_ms"),
    ] {
        put(metric, med(durations(span, MS)));
    }
    put("csv.write_bytes", med(facts.write_bytes.clone()));

    // Per-search breakdown from each search span's children, as means per
    // search (a workload's searches mix configurations of unequal cost).
    const STAGES: [&str; 5] = [
        "condition1",
        "condition2",
        "k_anonymity",
        "detailed_scan",
        "passed",
    ];
    let searches = by_name.get("samarati.search").cloned().unwrap_or_default();
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    for search in &searches {
        let kids = children.get(&search.id).cloned().unwrap_or_default();
        let mut add = |name: String, value: f64| *sums.entry(name).or_default() += value;
        add(
            "samarati.search_ms".into(),
            search.duration_ns() as f64 / MS,
        );
        add(
            "samarati.self_ms".into(),
            trace::self_ns(search, &kids) as f64 / MS,
        );
        for kid in &kids {
            let ms = kid.duration_ns() as f64 / MS;
            match kid.name {
                "masking.materialize" => {
                    add("masking.materialize_ms".into(), ms);
                    add("masking.tables_materialized".into(), 1.0);
                }
                "verdict.hit" => add("verdict.hits".into(), 1.0),
                "verdict.inferred" => add("verdict.inferred".into(), 1.0),
                "evaluator.build" => {}
                stage if stage.starts_with("evaluator.") => {
                    add(format!("{stage}_ms"), ms);
                    add(format!("{stage}_nodes"), 1.0);
                    add("evaluator.check_ms".into(), ms);
                    add("evaluator.nodes_checked".into(), 1.0);
                }
                _ => {}
            }
        }
    }
    let mut names: Vec<String> = [
        "samarati.search_ms",
        "samarati.self_ms",
        "masking.materialize_ms",
        "masking.tables_materialized",
        "verdict.hits",
        "verdict.inferred",
        "evaluator.nodes_checked",
        "evaluator.check_ms",
    ]
    .map(String::from)
    .to_vec();
    for stage in STAGES {
        names.push(format!("evaluator.{stage}_nodes"));
        names.push(format!("evaluator.{stage}_ms"));
    }
    let per_search = |name: &str| {
        ratio(
            sums.get(name).copied().unwrap_or(0.0),
            searches.len() as f64,
        )
    };
    let (reused, checked) = (
        per_search("verdict.hits") + per_search("verdict.inferred"),
        per_search("evaluator.nodes_checked"),
    );
    for name in &names {
        put(name, per_search(name));
    }
    put("samarati.heights_probed", med(facts.heights_probed.clone()));
    put("samarati.worker_failures", facts.worker_failures as f64);
    put("verdict.reuse_ratio", ratio(reused, reused + checked));
    put("verdict.kept", facts.kept as f64);
    put("verdict.invalidated", facts.invalidated as f64);
    put(
        "verdict.kept_fraction",
        ratio(facts.kept as f64, (facts.kept + facts.invalidated) as f64),
    );
    put("watch.flips", facts.flips as f64);

    // Coverage: how much of each anonymize request the layer spans explain.
    let (mut covered, mut total) = (0u64, 0u64);
    for root in spans
        .iter()
        .filter(|s| s.parent.is_none() && matches!(s.name, "op.anonymize" | "cli.anonymize"))
    {
        let mut intervals: Vec<(u64, u64)> = children
            .get(&root.id)
            .map(|kids| kids.iter().map(|s| (s.start_ns, s.end_ns)).collect())
            .unwrap_or_default();
        covered += trace::covered_ns(root.start_ns, root.end_ns, &mut intervals);
        total += root.duration_ns();
    }
    put("trace.coverage", ratio(covered as f64, total as f64));
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    match den > 0.0 {
        true => num / den,
        false => 0.0,
    }
}
