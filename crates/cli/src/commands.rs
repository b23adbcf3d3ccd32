//! Implementation of the CLI subcommands.

use crate::args::Args;
use crate::progress::CliObserver;
use psens_algorithms::mondrian::{mondrian_anonymize, MondrianConfig};
use psens_algorithms::pram_backend::{pram_minimal_masking, PramBackendConfig};
use psens_algorithms::samarati::pk_minimal_generalization;
use psens_algorithms::{RunReport, SearchRequest, SearchStats, TerminationReport, Tuning};
use psens_core::conditions::{ConfidentialStats, MaxGroups};
use psens_core::VerdictStore;
use psens_core::{
    check_p_sensitivity, check_table_model, max_k, max_p_of_masked, CheckStage, ModelSpec,
    SearchBudget, SearchObserver, Termination,
};
use psens_datasets::Spec;
use psens_datasets::{AdultGenerator, ScaleGenerator};
use psens_metrics::{attribute_risk, identity_risk};
use psens_microdata::{csv, JsonValue, Table};
use std::time::{Duration, Instant};

/// Exit code for a run whose *verdict* is negative (property violated,
/// requested `p` unsatisfiable, no feasible masking) — distinct from `1`,
/// which signals an operational error (bad arguments, unreadable files).
pub const EXIT_VIOLATION: u8 = 2;

/// Exit code for a run the budget interrupted (deadline, `--max-nodes`, or
/// Ctrl-C) before the search could prove its answer. Partial results, when
/// any exist, are still written. Takes precedence over [`EXIT_VIOLATION`]:
/// an interrupted run's negative verdict is provisional.
pub const EXIT_INTERRUPTED: u8 = 3;

/// What a subcommand produced: the text for stdout plus the process exit
/// code. `Ok` verdicts use code 0; negative verdicts [`EXIT_VIOLATION`].
#[derive(Debug, Clone)]
pub struct CmdOutput {
    /// Text to print on stdout.
    pub text: String,
    /// Process exit code.
    pub code: u8,
}

impl CmdOutput {
    fn ok(text: String) -> CmdOutput {
        CmdOutput { text, code: 0 }
    }

    fn verdict(text: String, satisfied: bool) -> CmdOutput {
        CmdOutput {
            text,
            code: if satisfied { 0 } else { EXIT_VIOLATION },
        }
    }
}

/// Usage text printed by `psens help` and on argument errors.
pub const USAGE: &str = "\
psens — p-sensitive k-anonymity toolkit (Truta & Vinay, ICDE 2006)

USAGE:
  psens <command> [--option value ...]

COMMANDS:
  generate   Generate synthetic microdata
             --rows N [--seed S] --out FILE.csv
             [--profile adult|scale]
             [--deltas N --deltas-out FILE.jsonl [--final-out FILE.csv]]
             profile `scale` drops the identifier/weight columns and
             streams to disk chunk by chunk: bounded memory at any --rows
             --deltas also writes a seeded update sequence (one JSON batch
             per line, for `client --op update`) plus, with --final-out,
             the CSV the base table becomes after applying every batch
  spec       Write a built-in spec as JSON
             --out SPEC.json [--profile adult|scale]
  check      Check a privacy model on a CSV
             --spec SPEC.json --input FILE.csv [--k K]
             [--model psens-k|distinct-l|entropy-l|t-closeness]
             [--p P] [--l L] [--t T]  (--p for psens-k, --l for the
             l-diversity models, --t in [0,1] for t-closeness)
             [--report FILE.json] [--verbose]
             exits 2 when the property is violated
  analyze    Print frequency statistics, condition bounds, and risks
             --spec SPEC.json --input FILE.csv [--p P]
             [--report FILE.json] [--verbose]
             exits 2 when Condition 1 makes the requested p unsatisfiable
  anonymize  Produce a masked release
             --spec SPEC.json --input FILE.csv --out FILE.csv
             [--k K] [--model NAME] [--p P] [--l L] [--t T] [--ts N]
             [--algorithm samarati|mondrian|pram]
             [--timeout SECS] [--max-nodes N] [--seed S]
             [--threads N] [--no-cache]
             [--report FILE.json] [--verbose]
             `pram` fixes the QI at the k-minimal node and repairs
             confidential cells by post-randomisation (--seed) instead of
             generalizing further; mondrian supports psens-k only
             exits 2 when no masking satisfies the request; exits 3 when
             the search is interrupted (timeout, node budget, or Ctrl-C)
             after writing any best-so-far result
  attack     Run the record-linkage attack against a masked release
             --spec SPEC.json --masked FILE.csv --external FILE.csv
             --node L1,L2,... --identifier NAME
  query      Run a SQL statement against a CSV file (table name: data)
             --input FILE.csv --sql STATEMENT [--spec SPEC.json]
             (without --spec, schema inference buffers the whole file)
  client     Send one request to a running psens-server
             --addr HOST:PORT | --addr-file PATH
             --op register|check|analyze|anonymize|query|update|watch|
                  stats|health|inject|shutdown
             register: --name NAME --input FILE.csv --spec SPEC.json
             check:     --dataset NAME [--model NAME] [--p P] [--l L]
                        [--t-ppm N] [--k K]
             analyze:   --dataset NAME [--p P]
             anonymize: --dataset NAME [--model NAME] [--p P] [--l L]
                        [--t-ppm N] [--k K] [--ts N]
                        [--timeout-ms N] [--max-nodes N] [--threads N]
                        [--no-cache]
             query:     --dataset NAME --sql STATEMENT
             update:    --dataset NAME --delta JSON | --delta-file PATH
                        (a {\"appends\":[[cells]],\"deletes\":[ix]} batch, e.g.
                        one line of `generate --deltas-out`; applies it to
                        the live table, selectively invalidates warm
                        verdict pools, and re-verifies active watches)
             watch:     --dataset NAME [--model NAME] [--p P] [--l L]
                        [--t-ppm N] [--k K] [--ts N]
                        (registers the spec for re-verification after
                        every update; prints the baseline verdict)
             inject:    --plan JSON | --plan-file PATH | --clear
                        (server must run with --enable-inject)
             [--retries N [--retry-base-ms N] [--retry-max-ms N]] retries
             busy/transport failures with backoff and an idempotent id
             prints the result as JSON; exit codes mirror the offline
             commands (2 verdict violation, 3 interrupted search)
  help       Show this message

  Inputs read against a --spec stream into the columnar table without
  buffering the CSV text.
  --threads 0 (the default) means one worker per available core.
";

/// Runs a parsed command line; returns the text to print plus the exit code,
/// or an error (exit code 1).
pub fn run(args: &Args) -> Result<CmdOutput, String> {
    match args.command.as_str() {
        "generate" => generate(args).map(CmdOutput::ok),
        "spec" => write_spec(args).map(CmdOutput::ok),
        "check" => check(args),
        "analyze" => analyze(args),
        "anonymize" => anonymize(args),
        "attack" => attack(args).map(CmdOutput::ok),
        "query" => query(args).map(CmdOutput::ok),
        "client" => client(args),
        "help" | "" => Ok(CmdOutput::ok(USAGE.to_owned())),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

/// Writes a [`RunReport`] as pretty-printed JSON to `path`.
fn write_report(path: &str, report: &RunReport) -> Result<(), String> {
    let mut json = report.to_json().to_json_pretty();
    json.push('\n');
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))
}

/// The search limits parsed from `--timeout`/`--max-nodes`, kept next to the
/// raw values so the report's `termination` section can echo them back.
struct BudgetSpec {
    budget: SearchBudget,
    timeout_secs: Option<u64>,
    max_nodes: Option<u64>,
}

impl BudgetSpec {
    /// Parses the budget flags and arms the SIGINT handler. Called *before*
    /// the input is loaded: the deadline is absolute, so `--timeout` bounds
    /// the whole command, not just the lattice search.
    fn from_args(args: &Args) -> Result<BudgetSpec, String> {
        let timeout_secs = match args.get("timeout") {
            Some(_) => Some(args.get_u64("timeout", 0)?),
            None => None,
        };
        let max_nodes = match args.get("max-nodes") {
            Some(_) => Some(args.get_u64("max-nodes", 0)?),
            None => None,
        };
        let mut budget = SearchBudget::unlimited().with_cancel(crate::signal::sigint_token());
        if let Some(secs) = timeout_secs {
            budget = budget.with_timeout(Duration::from_secs(secs));
        }
        if let Some(n) = max_nodes {
            budget = budget.with_max_nodes(n);
        }
        Ok(BudgetSpec {
            budget,
            timeout_secs,
            max_nodes,
        })
    }

    /// The report section for a run that ended with `termination`.
    fn report(
        &self,
        termination: Termination,
        proven_min_height: Option<usize>,
    ) -> TerminationReport {
        TerminationReport {
            reason: termination.as_str().to_owned(),
            timeout_secs: self.timeout_secs,
            max_nodes: self.max_nodes,
            proven_min_height,
        }
    }
}

/// Streams the `--input` CSV into a table against the spec's schema,
/// without holding the file's text.
fn load_table(args: &Args, spec: &Spec) -> Result<Table, String> {
    let path = args.require("input")?;
    let file = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    let schema = spec.schema().map_err(|e| e.to_string())?;
    csv::read_table(std::io::BufReader::new(file), schema, true).map_err(|e| e.to_string())
}

/// The `--threads` option: `0` (also the default when the flag is absent)
/// means one worker per available core. The raw request is passed through —
/// [`psens_algorithms::Tuning`] resolves and clamps it internally — so
/// `RunReport.search` can report both the requested and the effective count.
fn threads_arg(args: &Args) -> Result<usize, String> {
    args.get_usize("threads", 0)
}

/// The `--model` selector plus its parameter flag: `--p` for psens-k
/// (defaulting to `default_p`, which differs between subcommands for
/// compatibility), `--l` for the diversity models, `--t` (a fraction in
/// `[0, 1]`, stored as ppm) for t-closeness.
fn model_arg(args: &Args, default_p: u32) -> Result<ModelSpec, String> {
    match args.get("model").unwrap_or("psens-k") {
        "psens-k" => Ok(ModelSpec::PSensitiveK {
            p: args.get_u32("p", default_p)?,
        }),
        "distinct-l" => Ok(ModelSpec::DistinctL {
            l: args.get_u32("l", 2)?,
        }),
        "entropy-l" => Ok(ModelSpec::EntropyL {
            l: args.get_u32("l", 2)?,
        }),
        "t-closeness" => {
            let t = match args.get("t") {
                Some(text) => text
                    .parse::<f64>()
                    .map_err(|_| format!("bad --t value `{text}`"))?,
                None => 0.2,
            };
            if !(0.0..=1.0).contains(&t) {
                return Err(format!("--t must be within [0, 1], got {t}"));
            }
            Ok(ModelSpec::TCloseness {
                t_ppm: (t * 1_000_000.0).round() as u32,
            })
        }
        other => Err(format!(
            "unknown model `{other}` (psens-k|distinct-l|entropy-l|t-closeness)"
        )),
    }
}

fn load_spec(args: &Args) -> Result<Spec, String> {
    let path = args.require("spec")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Spec::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Tiny xorshift64* PRNG: `generate --deltas` must be reproducible from
/// `--seed` alone, with no dependency on the `rand` crate from the CLI.
struct DeltaRng(u64);

impl DeltaRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// Emits `n` seeded delta batches as JSON lines (`{"appends":[[cells]],
/// "deletes":[ix]}`), applying each to the evolving table so deletes index
/// real rows. The mix deliberately covers the oracle's interesting cases:
/// duplicate-only appends (sterile candidates), delete-only batches (group
/// deaths), and fresh-row batches (group births, stats shifts). Returns
/// the JSONL text and the table after all batches.
fn generate_delta_sequence(base: &Table, n: usize, seed: u64) -> Result<(String, Table), String> {
    use psens_microdata::{DeltaBatch, Value};
    let mut rng = DeltaRng(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut current = base.clone();
    let mut jsonl = String::new();
    for i in 0..n {
        let n_rows = current.n_rows();
        let mut appends: Vec<Vec<Value>> = Vec::new();
        let mut deletes: Vec<usize> = Vec::new();
        let roll = rng.below(100);
        if roll < 30 && n_rows > 0 {
            // Exact duplicates of existing rows — the sterile-append path.
            for _ in 0..1 + rng.below(3) {
                appends.push(current.row(rng.below(n_rows)).map_err(|e| e.to_string())?);
            }
        } else if roll < 60 && n_rows > 4 {
            // Deletes only — shrinks groups, possibly to death.
            let mut picks = std::collections::BTreeSet::new();
            for _ in 0..1 + rng.below(3) {
                picks.insert(rng.below(n_rows));
            }
            deletes = picks.into_iter().collect();
        } else {
            // Fresh rows (new value combinations) plus an occasional delete.
            let fresh =
                AdultGenerator::new(seed.wrapping_add(1 + i as u64)).generate(1 + rng.below(2));
            for r in 0..fresh.n_rows() {
                appends.push(fresh.row(r).map_err(|e| e.to_string())?);
            }
            if n_rows > 4 && rng.below(2) == 0 {
                deletes.push(rng.below(n_rows));
            }
        }
        let mut line = JsonValue::object();
        line.set(
            "appends",
            JsonValue::Array(
                appends
                    .iter()
                    .map(|row| {
                        JsonValue::Array(
                            row.iter()
                                .map(|v| JsonValue::Str(v.render().into_owned()))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        );
        line.set(
            "deletes",
            JsonValue::Array(
                deletes
                    .iter()
                    .map(|&ix| JsonValue::Int(ix as i64))
                    .collect(),
            ),
        );
        jsonl.push_str(&line.to_json());
        jsonl.push('\n');
        let batch = DeltaBatch { appends, deletes };
        current = batch.apply(&current).map_err(|e| e.to_string())?;
    }
    Ok((jsonl, current))
}

fn generate(args: &Args) -> Result<String, String> {
    let rows = args.get_usize("rows", 1000)?;
    let seed = args.get_u64("seed", 42)?;
    let deltas = args.get_usize("deltas", 0)?;
    let out = args.require("out")?;
    // Every option is validated before `--out` is created, so a rejected
    // command leaves an existing file untouched.
    let scale = match args.get("profile").unwrap_or("adult") {
        "adult" => false,
        "scale" => true,
        other => return Err(format!("unknown profile `{other}` (adult|scale)")),
    };
    let deltas_out = match deltas {
        0 => None,
        _ if scale => return Err("--deltas is only supported with --profile adult".to_owned()),
        _ => Some(args.require("deltas-out")?),
    };
    let mut file = std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
    if scale {
        // Stream batch by batch so --rows 10000000 never holds more than
        // one batch in memory; the output does not depend on the batch size.
        let mut header = true;
        for batch in ScaleGenerator::new(seed).chunks(rows, 65_536) {
            csv::write_table(&mut file, &batch, header).map_err(|e| e.to_string())?;
            header = false;
        }
        if header {
            // Zero rows: still emit the header line.
            let empty = Table::empty(ScaleGenerator::schema());
            csv::write_table(&mut file, &empty, true).map_err(|e| e.to_string())?;
        }
        return Ok(format!("wrote {rows} rows to {out}"));
    }
    let table = AdultGenerator::new(seed).generate(rows);
    csv::write_table(&mut file, &table, true).map_err(|e| e.to_string())?;
    let Some(deltas_out) = deltas_out else {
        return Ok(format!("wrote {rows} rows to {out}"));
    };
    let (jsonl, finished) = generate_delta_sequence(&table, deltas, seed)?;
    std::fs::write(deltas_out, jsonl).map_err(|e| format!("writing {deltas_out}: {e}"))?;
    if let Some(final_out) = args.get("final-out") {
        let mut final_file =
            std::fs::File::create(final_out).map_err(|e| format!("creating {final_out}: {e}"))?;
        csv::write_table(&mut final_file, &finished, true).map_err(|e| e.to_string())?;
    }
    Ok(format!(
        "wrote {rows} rows to {out}, {deltas} deltas to {deltas_out} (final: {} rows)",
        finished.n_rows()
    ))
}

fn write_spec(args: &Args) -> Result<String, String> {
    let out = args.require("out")?;
    let (spec, label) = match args.get("profile").unwrap_or("adult") {
        "adult" => (Spec::adult(), "Adult"),
        "scale" => (Spec::scale(), "scale"),
        other => return Err(format!("unknown profile `{other}` (adult|scale)")),
    };
    std::fs::write(out, spec.to_json().to_json_pretty())
        .map_err(|e| format!("writing {out}: {e}"))?;
    Ok(format!("wrote {label} spec to {out}"))
}

fn check(args: &Args) -> Result<CmdOutput, String> {
    // The default model keeps the original (stage-classified)
    // p-sensitivity path byte-for-byte; other models go through the
    // whole-table oracle.
    let spec_model = model_arg(args, 2)?;
    if !matches!(spec_model, ModelSpec::PSensitiveK { .. }) {
        return check_model(args, spec_model);
    }
    let wall = Instant::now();
    let spec = load_spec(args)?;
    let k = args.get_u32("k", 2)?;
    let p = args.get_u32("p", 2)?;
    let verbose = args.get_flag("verbose");
    let table = load_table(args, &spec)?;
    let n_rows = table.n_rows();
    let keys = table.schema().key_indices();
    let conf = table.schema().confidential_indices();
    if verbose {
        eprintln!("[psens] checking {n_rows} row(s) against p = {p}, k = {k}");
    }
    let check_timer = Instant::now();
    let report = check_p_sensitivity(&table, &keys, &conf, p, k);
    let maxk = max_k(&table, &keys);
    let maxp = max_p_of_masked(&table, &keys, &conf);
    let check_elapsed = check_timer.elapsed();
    // `check` evaluates exactly one "node": the table as released. Classify
    // the verdict by the first Algorithm 2 stage that fails so report
    // consumers see the same stage partition a lattice search produces.
    let stage = if !report.k_anonymous {
        CheckStage::KAnonymity
    } else if !report.violations.is_empty() {
        CheckStage::DetailedScan
    } else {
        CheckStage::Passed
    };
    let mut stats = SearchStats {
        lattice_nodes: 1,
        nodes_evaluated: 1,
        ..Default::default()
    };
    stats.record(stage);
    let observer = CliObserver::new(verbose);
    observer.node_checked(0, stage, 0, check_elapsed);
    let mut out = String::new();
    out.push_str(&format!(
        "rows: {n_rows} | QI-groups: {}\n",
        report.n_groups
    ));
    out.push_str(&format!(
        "k-anonymity (k = {k}): {} (max k = {maxk})\n",
        if report.k_anonymous {
            "SATISFIED"
        } else {
            "VIOLATED"
        }
    ));
    out.push_str(&format!(
        "p-sensitivity (p = {p}): {} (max p = {maxp})\n",
        if report.violations.is_empty() {
            "SATISFIED"
        } else {
            "VIOLATED"
        }
    ));
    for v in report.violations.iter().take(10) {
        out.push_str(&format!(
            "  group {} (size {}): {} has {} distinct value(s)\n",
            v.group, v.group_size, v.attribute_name, v.distinct
        ));
    }
    if report.violations.len() > 10 {
        out.push_str(&format!(
            "  ... and {} more violations\n",
            report.violations.len() - 10
        ));
    }
    out.push_str(&format!(
        "p-sensitive k-anonymity: {}\n",
        if report.satisfied() {
            "SATISFIED"
        } else {
            "VIOLATED"
        }
    ));
    if let Some(path) = args.get("report") {
        let run_report = RunReport {
            command: "check".into(),
            rows: n_rows,
            k,
            p,
            ts: None,
            satisfied: Some(report.satisfied()),
            node: None,
            search: Some(stats),
            telemetry: Some(observer.telemetry()),
            termination: None,
            wall_ns: wall.elapsed().as_nanos() as u64,
        };
        write_report(path, &run_report)?;
        out.push_str(&format!("wrote report to {path}\n"));
    }
    Ok(CmdOutput::verdict(out, report.satisfied()))
}

/// `check --model` for the non-default models: the whole-table oracle
/// ([`check_table_model`]) over the input table.
fn check_model(args: &Args, spec_model: ModelSpec) -> Result<CmdOutput, String> {
    let wall = Instant::now();
    let spec = load_spec(args)?;
    let k = args.get_u32("k", 2)?;
    let table = load_table(args, &spec)?;
    let keys = table.schema().key_indices();
    let conf = table.schema().confidential_indices();
    let model = spec_model.instantiate();
    let report = check_table_model(&table, &keys, &conf, model.as_ref(), k);
    let maxk = max_k(&table, &keys);
    let mut out = String::new();
    out.push_str(&format!(
        "rows: {} | QI-groups: {}\n",
        table.n_rows(),
        report.n_groups
    ));
    out.push_str(&format!(
        "k-anonymity (k = {k}): {} (max k = {maxk})\n",
        if report.k_anonymous {
            "SATISFIED"
        } else {
            "VIOLATED"
        }
    ));
    out.push_str(&format!(
        "{}: {} ({} violating group-attribute pair(s))\n",
        spec_model.describe(),
        if report.violating_pairs == 0 {
            "SATISFIED"
        } else {
            "VIOLATED"
        },
        report.violating_pairs
    ));
    if let Some(detail) = report.detail {
        out.push_str(&format!(
            "  extremal metric: {} = {}\n",
            detail.kind(),
            detail.value()
        ));
    }
    out.push_str(&format!(
        "verdict: {}\n",
        if report.satisfied() {
            "SATISFIED"
        } else {
            "VIOLATED"
        }
    ));
    if let Some(path) = args.get("report") {
        let run_report = RunReport {
            command: "check".into(),
            rows: table.n_rows(),
            k,
            p: spec_model.conditions_p(),
            ts: None,
            satisfied: Some(report.satisfied()),
            node: None,
            search: None,
            telemetry: None,
            termination: None,
            wall_ns: wall.elapsed().as_nanos() as u64,
        };
        write_report(path, &run_report)?;
        out.push_str(&format!("wrote report to {path}\n"));
    }
    Ok(CmdOutput::verdict(out, report.satisfied()))
}

fn analyze(args: &Args) -> Result<CmdOutput, String> {
    let wall = Instant::now();
    let spec = load_spec(args)?;
    let requested_p = match args.get("p") {
        Some(_) => Some(args.get_u32("p", 2)?),
        None => None,
    };
    let table = load_table(args, &spec)?;
    let keys = table.schema().key_indices();
    let conf = table.schema().confidential_indices();
    let stats = ConfidentialStats::compute(&table, &conf);
    let mut out = String::new();
    out.push_str(&format!("rows: {}\n\ncolumn profile:\n", table.n_rows()));
    for summary in psens_microdata::describe(&table) {
        let range = match (summary.min, summary.max) {
            (Some(lo), Some(hi)) => format!(" range {lo}..{hi}"),
            _ => String::new(),
        };
        let top = summary
            .top
            .as_ref()
            .map(|(v, c)| format!(" top `{v}` x{c}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "  {:<14} {:<13} distinct {:>5}  missing {:>4}{}{}\n",
            summary.name, summary.role, summary.distinct, summary.missing, range, top
        ));
    }
    out.push_str("\nconfidential attributes:\n");
    for attr in &stats.per_attribute {
        let top: Vec<String> = attr
            .descending
            .iter()
            .take(5)
            .map(ToString::to_string)
            .collect();
        out.push_str(&format!(
            "  {} — {} distinct, top frequencies [{}]\n",
            attr.name,
            attr.s,
            top.join(", ")
        ));
    }
    out.push_str(&format!("\nCondition 1: maxP = {}\n", stats.max_p()));
    out.push_str("Condition 2: maxGroups by p:\n");
    for p in 2..=stats.max_p().min(8) as u32 {
        if let MaxGroups::Bounded(b) = stats.max_groups(p) {
            out.push_str(&format!("  p = {p}: at most {b} QI-groups\n"));
        }
    }
    let id_risk = identity_risk(&table, &keys);
    out.push_str(&format!(
        "\nidentity risk: max {:.4}, avg {:.4}, uniques {}\n",
        id_risk.max_risk, id_risk.avg_risk, id_risk.uniques
    ));
    let attr_risk = attribute_risk(&table, &keys, &conf);
    out.push_str(&format!(
        "attribute risk: {} disclosures across {} groups ({:.1}% of tuples affected)\n",
        attr_risk.disclosures,
        attr_risk.affected_groups,
        attr_risk.affected_fraction * 100.0
    ));
    // With `--p P`, apply Condition 1 up front: no masking of this microdata
    // can be p-sensitive for p > maxP, however far it generalizes.
    let satisfiable = requested_p.map(|p| (p as usize) <= stats.max_p());
    if let (Some(p), Some(ok)) = (requested_p, satisfiable) {
        out.push_str(&format!(
            "\nrequested p = {p}: {} (Condition 1: maxP = {})\n",
            if ok { "SATISFIABLE" } else { "UNSATISFIABLE" },
            stats.max_p()
        ));
    }
    if let Some(path) = args.get("report") {
        let run_report = RunReport {
            command: "analyze".into(),
            rows: table.n_rows(),
            k: 0,
            p: requested_p.unwrap_or(0),
            ts: None,
            satisfied: satisfiable,
            node: None,
            search: None,
            telemetry: None,
            termination: None,
            wall_ns: wall.elapsed().as_nanos() as u64,
        };
        write_report(path, &run_report)?;
        out.push_str(&format!("wrote report to {path}\n"));
    }
    Ok(CmdOutput::verdict(out, satisfiable.unwrap_or(true)))
}

fn anonymize(args: &Args) -> Result<CmdOutput, String> {
    let wall = Instant::now();
    // Budget first: the deadline clock starts before the input is read.
    let limits = BudgetSpec::from_args(args)?;
    let spec = load_spec(args)?;
    let table = load_table(args, &spec)?;
    let out_path = args.require("out")?;
    let k = args.get_u32("k", 2)?;
    let spec_model = model_arg(args, 1)?;
    let p = spec_model.conditions_p();
    let ts = args.get_usize("ts", 0)?;
    let algorithm = args.get("algorithm").unwrap_or("samarati");
    // Default to the machine's parallelism; `--threads 1` forces the serial
    // (bit-identical-stats) code path.
    let threads = threads_arg(args)?;
    let use_cache = !args.get_flag("no-cache");
    let observer = CliObserver::new(args.get_flag("verbose"));
    let mut out = String::new();
    let mut winner: Option<String> = None;
    let mut search_stats: Option<SearchStats> = None;
    let mut proven_min_height: Option<usize> = None;
    let termination: Termination;
    let satisfied: bool;
    // `None` when the run produced nothing worth releasing: no feasible node
    // (samarati) or a cover that fails the property (mondrian).
    let masked: Option<Table> = match algorithm {
        "samarati" => {
            let qi = spec.qi_space()?;
            let lattice = qi.lattice();
            // One run cannot revisit nodes, but the store still earns its
            // keep within it: a recorded k-failure answers every probe below
            // it without running the kernel.
            let store = use_cache.then(|| VerdictStore::new(&lattice, ts));
            let req = SearchRequest {
                budget: limits.budget.clone(),
                tuning: Tuning {
                    threads,
                    cache: store.as_ref(),
                    ..Tuning::default()
                },
                ..SearchRequest::new(spec_model, k, ts)
            };
            let outcome = pk_minimal_generalization(&table, &qi, &req, &observer)
                .map_err(|e| e.to_string())?;
            search_stats = Some(outcome.stats.clone());
            proven_min_height = Some(outcome.proven_min_height);
            termination = outcome.termination;
            match outcome.node {
                Some(node) => {
                    let levels: Vec<String> =
                        node.levels().iter().map(ToString::to_string).collect();
                    winner = Some(qi.describe_node(&node));
                    let label = if termination.is_complete() {
                        "p-k-minimal node"
                    } else {
                        "best feasible node so far (search interrupted)"
                    };
                    out.push_str(&format!(
                        "{label}: {} (height {}), suppressed {} tuple(s)\n\
                         node levels (for `psens attack --node`): {}\n",
                        qi.describe_node(&node),
                        node.height(),
                        outcome.suppressed,
                        levels.join(",")
                    ));
                    satisfied = true;
                    Some(outcome.masked.expect("masked accompanies node"))
                }
                None => {
                    satisfied = false;
                    if termination.is_complete() {
                        out.push_str(&format!(
                            "no masking satisfies {} with k = {k}, TS = {ts}\n",
                            spec_model.describe()
                        ));
                    } else {
                        out.push_str(&format!(
                            "search interrupted ({termination}) before any feasible node was \
                             found; heights below {} are proven infeasible\n",
                            outcome.proven_min_height
                        ));
                    }
                    None
                }
            }
        }
        "mondrian" => {
            if !matches!(spec_model, ModelSpec::PSensitiveK { .. }) {
                return Err("--algorithm mondrian supports --model psens-k only".to_owned());
            }
            let outcome =
                mondrian_anonymize(&table, MondrianConfig { k, p }, &limits.budget, &observer)
                    .map_err(|e| e.to_string())?;
            termination = outcome.termination;
            let keys = outcome.masked.schema().key_indices();
            let conf = outcome.masked.schema().confidential_indices();
            satisfied = psens_core::is_p_sensitive_k_anonymous(&outcome.masked, &keys, &conf, p, k);
            out.push_str(&format!(
                "mondrian: {} partitions after {} splits{}\n",
                outcome.partitions.len(),
                outcome.splits,
                if termination.is_complete() {
                    ""
                } else {
                    " (interrupted: coarser than a full run)"
                }
            ));
            if satisfied {
                Some(outcome.masked)
            } else {
                out.push_str(&format!(
                    "mondrian could not satisfy p = {p}, k = {k} (input too small or too uniform)\n"
                ));
                None
            }
        }
        "pram" => {
            let qi = spec.qi_space()?;
            let config = PramBackendConfig {
                seed: args.get_u64("seed", 42)?,
                ..PramBackendConfig::default()
            };
            let outcome = pram_minimal_masking(&table, &qi, spec_model, k, ts, config)
                .map_err(|e| e.to_string())?;
            termination = Termination::Completed;
            satisfied = outcome.satisfied;
            match outcome.node {
                Some(node) => {
                    winner = Some(qi.describe_node(&node));
                    out.push_str(&format!(
                        "pram: k-minimal node {} (height {}), suppressed {} tuple(s), \
                         {} sweep(s), {} perturbed cell(s)\n",
                        qi.describe_node(&node),
                        node.height(),
                        outcome.suppressed,
                        outcome.sweeps,
                        outcome.perturbed_cells
                    ));
                    if satisfied {
                        outcome.masked
                    } else {
                        out.push_str(&format!(
                            "pram could not repair {} within the sweep cap\n",
                            spec_model.describe()
                        ));
                        None
                    }
                }
                None => {
                    out.push_str(&format!(
                        "no k-minimal masking exists for k = {k} with TS = {ts}\n"
                    ));
                    None
                }
            }
        }
        other => return Err(format!("unknown algorithm `{other}`")),
    };
    if let Some(masked) = &masked {
        let mut file =
            std::fs::File::create(out_path).map_err(|e| format!("creating {out_path}: {e}"))?;
        csv::write_table(&mut file, masked, true).map_err(|e| e.to_string())?;
        out.push_str(&format!("wrote {} rows to {out_path}\n", masked.n_rows()));
    }
    if !termination.is_complete() {
        out.push_str(&format!(
            "search interrupted: {termination} (results above are best-so-far, not proven minimal)\n"
        ));
    }
    if let Some(path) = args.get("report") {
        let run_report = RunReport {
            command: "anonymize".into(),
            rows: table.n_rows(),
            k,
            p,
            ts: Some(ts),
            satisfied: Some(satisfied),
            node: winner,
            search: search_stats,
            telemetry: Some(observer.telemetry()),
            termination: Some(limits.report(termination, proven_min_height)),
            wall_ns: wall.elapsed().as_nanos() as u64,
        };
        write_report(path, &run_report)?;
        out.push_str(&format!("wrote report to {path}\n"));
    }
    let code = if !termination.is_complete() {
        EXIT_INTERRUPTED
    } else if !satisfied {
        EXIT_VIOLATION
    } else {
        0
    };
    Ok(CmdOutput { text: out, code })
}

fn query(args: &Args) -> Result<String, String> {
    // With a spec the CSV streams in against its schema (roles included);
    // without one, kinds are inferred — which needs the whole file — and
    // all roles default to `other`.
    let table = match args.get("spec") {
        Some(_) => {
            let spec = load_spec(args)?;
            load_table(args, &spec)?
        }
        None => {
            let path = args.require("input")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            csv::read_table_infer(&text).map_err(|e| e.to_string())?
        }
    };
    let sql = args.require("sql")?;
    let mut catalog = psens_sql::Catalog::new();
    catalog.register("data", &table);
    let result = psens_sql::execute(&catalog, sql).map_err(|e| e.to_string())?;
    Ok(psens_microdata::render(&result, 100))
}

/// `psens client`: one request against a running psens-server, result
/// printed as JSON. Exit codes mirror the offline commands so scripts can
/// treat local and remote verdicts identically: 2 for a negative verdict,
/// 3 for an interrupted search.
fn client(args: &Args) -> Result<CmdOutput, String> {
    let addr_text = match (args.get("addr"), args.get("addr-file")) {
        (Some(addr), _) => addr.to_owned(),
        (None, Some(path)) => std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))?
            .trim()
            .to_owned(),
        (None, None) => return Err("one of --addr or --addr-file is required".to_owned()),
    };
    let addr = std::net::ToSocketAddrs::to_socket_addrs(&addr_text)
        .map_err(|e| format!("resolving {addr_text}: {e}"))?
        .next()
        .ok_or_else(|| format!("no address for {addr_text}"))?;
    let op = args.require("op")?;
    let mut params = JsonValue::object();
    match op {
        "register" => {
            params.set("name", JsonValue::Str(args.require("name")?.to_owned()));
            let input = args.require("input")?;
            let text =
                std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
            params.set("csv", JsonValue::Str(text));
            params.set("spec", load_spec(args)?.to_json());
        }
        "check" | "analyze" | "anonymize" | "query" | "watch" => {
            params.set(
                "dataset",
                JsonValue::Str(args.require("dataset")?.to_owned()),
            );
            if let Some(model) = args.get("model") {
                params.set("model", JsonValue::Str(model.to_owned()));
            }
            for key in [
                "p",
                "l",
                "t-ppm",
                "k",
                "ts",
                "threads",
                "timeout-ms",
                "max-nodes",
            ] {
                if args.get(key).is_some() {
                    let value = args.get_u64(key, 0)?;
                    params.set(key.replace('-', "_"), JsonValue::Int(value as i64));
                }
            }
            if args.get_flag("no-cache") {
                params.set("no_cache", JsonValue::Bool(true));
            }
            if let Some(sql) = args.get("sql") {
                params.set("sql", JsonValue::Str(sql.to_owned()));
            }
        }
        "update" => {
            params.set(
                "dataset",
                JsonValue::Str(args.require("dataset")?.to_owned()),
            );
            let delta_text = match (args.get("delta"), args.get("delta-file")) {
                (Some(delta), _) => delta.to_owned(),
                (None, Some(path)) => {
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
                }
                (None, None) => {
                    return Err("update needs --delta JSON or --delta-file PATH".to_owned())
                }
            };
            let delta = JsonValue::parse(&delta_text)
                .map_err(|e| format!("delta is not valid JSON: {e}"))?;
            // Copy only the batch fields: delta lines from `generate
            // --deltas` carry a `dataset` key of their own which the
            // --dataset flag overrides.
            for key in ["appends", "deletes"] {
                if let Some(value) = delta.get(key) {
                    params.set(key, value.clone());
                }
            }
        }
        "inject" => {
            if args.get_flag("clear") {
                params.set("clear", JsonValue::Bool(true));
            } else {
                let plan_text = match (args.get("plan"), args.get("plan-file")) {
                    (Some(plan), _) => plan.to_owned(),
                    (None, Some(path)) => {
                        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
                    }
                    (None, None) => {
                        return Err(
                            "inject needs --plan JSON, --plan-file PATH, or --clear".to_owned()
                        )
                    }
                };
                let plan = JsonValue::parse(&plan_text)
                    .map_err(|e| format!("fault plan is not valid JSON: {e}"))?;
                params.set("plan", plan);
            }
        }
        "stats" | "health" | "shutdown" | "sleep" => {}
        other => return Err(format!("unknown op `{other}`")),
    }
    let mut client = psens_server::Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let retries = args.get_u64("retries", 0)? as u32;
    let result = if retries > 0 {
        let policy = psens_server::RetryPolicy {
            max_retries: retries,
            base_delay_ms: args.get_u64("retry-base-ms", 20)?,
            max_delay_ms: args.get_u64("retry-max-ms", 2_000)?,
            seed: args.get_u64("seed", 1)?,
        };
        let mut stats = psens_server::RetryStats::default();
        client.call_retry(op, params, &policy, &mut stats)?
    } else {
        client.call_ok(op, params)?
    };
    // Map the remote verdict onto the offline exit-code contract.
    let satisfied = result
        .get("satisfied")
        .or_else(|| result.get("verdict").and_then(|v| v.get("satisfied")))
        .and_then(|v| v.as_bool().ok());
    let termination = result
        .get("verdict")
        .and_then(|v| v.get("termination"))
        .and_then(|v| v.as_str().ok());
    let code = match (termination, satisfied) {
        (Some(t), _) if t != "completed" => EXIT_INTERRUPTED,
        (_, Some(false)) => EXIT_VIOLATION,
        _ => 0,
    };
    Ok(CmdOutput {
        text: format!("{}\n", result.to_json_pretty()),
        code,
    })
}

fn attack(args: &Args) -> Result<String, String> {
    use psens_core::attack::linkage_attack;
    use psens_hierarchy::Node;
    use psens_microdata::{Attribute, Kind, Role, Schema};

    let spec = load_spec(args)?;
    let qi = spec.qi_space()?;
    let node_text = args.require("node")?;
    let levels: Vec<u8> = node_text
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<u8>()
                .map_err(|_| format!("bad node component `{part}`"))
        })
        .collect::<Result<_, _>>()?;
    let node = Node(levels);
    if !qi.lattice().contains(&node) {
        return Err(format!(
            "node {node} is outside the {}-attribute lattice",
            qi.len()
        ));
    }

    // The masked release's schema: spec attributes minus identifiers, with
    // key attributes generalized above level 0 recoded as categorical.
    let spec_schema = spec.schema().map_err(|e| e.to_string())?;
    let mut masked_attrs = Vec::new();
    for attr in spec_schema.attributes() {
        if attr.role() == Role::Identifier {
            continue;
        }
        let kind = match qi.names().iter().position(|n| *n == attr.name()) {
            Some(pos) if node.levels()[pos] > 0 => Kind::Cat,
            _ => attr.kind(),
        };
        masked_attrs.push(Attribute::new(attr.name(), kind, attr.role()));
    }
    let masked_schema = Schema::new(masked_attrs).map_err(|e| e.to_string())?;
    let masked_path = args.require("masked")?;
    let masked_text =
        std::fs::read_to_string(masked_path).map_err(|e| format!("reading {masked_path}: {e}"))?;
    let masked =
        csv::read_table_str(&masked_text, masked_schema, true).map_err(|e| e.to_string())?;

    // The intruder's external knowledge uses the raw spec schema.
    let external_path = args.require("external")?;
    let external_text = std::fs::read_to_string(external_path)
        .map_err(|e| format!("reading {external_path}: {e}"))?;
    let external =
        csv::read_table_str(&external_text, spec_schema, true).map_err(|e| e.to_string())?;

    let identifier = args.require("identifier")?;
    let findings =
        linkage_attack(&masked, &qi, &node, &external, identifier).map_err(|e| e.to_string())?;

    let mut out = String::new();
    let mut reidentified = 0usize;
    let mut leaked = 0usize;
    for f in &findings {
        reidentified += usize::from(f.identity_disclosed);
        leaked += usize::from(!f.learned.is_empty());
        if f.identity_disclosed || !f.learned.is_empty() {
            let learned: Vec<String> = f
                .learned
                .iter()
                .map(|(a, v)| format!("{a} = {v}"))
                .collect();
            out.push_str(&format!(
                "  {} -> {}{}\n",
                f.individual,
                if f.identity_disclosed {
                    "RE-IDENTIFIED"
                } else {
                    "linked to group"
                },
                if learned.is_empty() {
                    String::new()
                } else {
                    format!("; learns {}", learned.join(", "))
                }
            ));
        }
    }
    out.push_str(&format!(
        "{} of {} individuals linked; {reidentified} re-identified; \
         {leaked} suffer attribute disclosure\n",
        findings.len(),
        external.n_rows()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_full(line: &[&str]) -> Result<CmdOutput, String> {
        let args = Args::parse(line.iter().map(|s| s.to_string()))?;
        run(&args)
    }

    fn run_line(line: &[&str]) -> Result<String, String> {
        run_full(line).map(|output| output.text)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("psens_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// A two-column spec (Sex key, Disease confidential) and a four-row CSV
    /// that is 2-sensitive 2-anonymous but not 3-anonymous.
    fn tiny_dataset() -> (std::path::PathBuf, std::path::PathBuf) {
        let spec = temp_path("tiny_spec.json");
        let data = temp_path("tiny_data.csv");
        std::fs::write(
            &spec,
            r#"{"attributes": [
                {"name": "Sex", "kind": "cat", "role": "key"},
                {"name": "Disease", "kind": "cat", "role": "confidential"}
            ]}"#,
        )
        .unwrap();
        std::fs::write(&data, "Sex,Disease\nM,Flu\nM,Cold\nF,Flu\nF,Cold\n").unwrap();
        (spec, data)
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_line(&["help"]).unwrap().contains("USAGE"));
        assert!(run_line(&[]).unwrap().contains("USAGE"));
        assert!(run_line(&["frobnicate"]).is_err());
    }

    #[test]
    fn end_to_end_generate_check_anonymize() {
        let data = temp_path("data.csv");
        let spec = temp_path("spec.json");
        let masked = temp_path("masked.csv");
        let data_s = data.to_str().unwrap();
        let spec_s = spec.to_str().unwrap();
        let masked_s = masked.to_str().unwrap();

        let msg = run_line(&["generate", "--rows", "300", "--seed", "7", "--out", data_s]).unwrap();
        assert!(msg.contains("300 rows"));
        run_line(&["spec", "--out", spec_s]).unwrap();

        let report = run_line(&[
            "check", "--spec", spec_s, "--input", data_s, "--k", "2", "--p", "2",
        ])
        .unwrap();
        assert!(report.contains("k-anonymity"));
        assert!(report.contains("VIOLATED"), "raw data is not anonymous");

        let analysis = run_line(&["analyze", "--spec", spec_s, "--input", data_s]).unwrap();
        assert!(analysis.contains("Condition 1"));
        assert!(analysis.contains("identity risk"));

        let result = run_line(&[
            "anonymize",
            "--spec",
            spec_s,
            "--input",
            data_s,
            "--out",
            masked_s,
            "--k",
            "2",
            "--p",
            "2",
            "--ts",
            "10",
        ])
        .unwrap();
        assert!(result.contains("p-k-minimal node"));

        // The released file must pass its own check. Its schema differs from
        // the spec (key columns became categorical labels), so verify via a
        // fresh parse with inferred roles is out of scope here — instead,
        // confirm the CSV exists and is non-trivial.
        let released = std::fs::read_to_string(&masked).unwrap();
        assert!(released.lines().count() > 100);
        assert!(released.starts_with("Age,MaritalStatus"));
    }

    #[test]
    fn every_model_checks_and_anonymizes_adult() {
        let data = temp_path("modeldata.csv");
        let spec = temp_path("modelspec.json");
        let data_s = data.to_str().unwrap();
        let spec_s = spec.to_str().unwrap();
        run_line(&["generate", "--rows", "300", "--seed", "7", "--out", data_s]).unwrap();
        run_line(&["spec", "--out", spec_s]).unwrap();
        // entropy-l uses l = 1: Adult's confidential skew (capital gain 90%
        // zero, pay 3:1) keeps every group's entropy below ln 2 even fully
        // generalized, so l = 2 is unsatisfiable on this data by Condition 1's
        // entropy analogue — not a search defect.
        for (model, flag, value) in [
            ("psens-k", "--p", "2"),
            ("distinct-l", "--l", "2"),
            ("entropy-l", "--l", "1"),
            ("t-closeness", "--t", "0.5"),
        ] {
            let checked = run_full(&[
                "check", "--spec", spec_s, "--input", data_s, "--k", "2", "--model", model, flag,
                value,
            ])
            .unwrap();
            assert_eq!(checked.code, EXIT_VIOLATION, "raw data: {}", checked.text);
            let masked = temp_path(&format!("modelmasked_{model}.csv"));
            let masked_s = masked.to_str().unwrap();
            let result = run_full(&[
                "anonymize",
                "--spec",
                spec_s,
                "--input",
                data_s,
                "--out",
                masked_s,
                "--k",
                "2",
                "--ts",
                "10",
                "--model",
                model,
                flag,
                value,
            ])
            .unwrap();
            assert_eq!(result.code, 0, "model {model}: {}", result.text);
            assert!(
                std::fs::read_to_string(&masked).unwrap().lines().count() > 100,
                "model {model} released too few rows"
            );
        }
        // Unknown model names are an operational error, not a verdict.
        assert!(
            run_full(&["check", "--spec", spec_s, "--input", data_s, "--model", "k-map",]).is_err()
        );
    }

    #[test]
    fn pram_algorithm_repairs_without_generalizing() {
        let spec = temp_path("pramspec.json");
        let data = temp_path("pramdata.csv");
        let masked = temp_path("prammasked.csv");
        std::fs::write(
            &spec,
            r#"{"attributes": [
                {"name": "Sex", "kind": "cat", "role": "key"},
                {"name": "Disease", "kind": "cat", "role": "confidential"}
            ],
            "hierarchies": {
                "Sex": {"type": "cat", "ground": ["M", "F"],
                        "levels": [{"labels": ["*"], "of_ground": [0, 0]}]}
            }}"#,
        )
        .unwrap();
        // The (M) group is homogeneous: psens-k p=2 fails at the identity
        // node, and PRAM must repair it in place rather than generalize.
        std::fs::write(
            &data,
            "Sex,Disease\nM,Flu\nM,Flu\nM,Flu\nF,Flu\nF,Cold\nF,Cold\n",
        )
        .unwrap();
        let out = run_full(&[
            "anonymize",
            "--spec",
            spec.to_str().unwrap(),
            "--input",
            data.to_str().unwrap(),
            "--out",
            masked.to_str().unwrap(),
            "--k",
            "2",
            "--p",
            "2",
            "--algorithm",
            "pram",
            "--seed",
            "5",
        ])
        .unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("pram: k-minimal node"), "{}", out.text);
        let released = std::fs::read_to_string(&masked).unwrap();
        assert_eq!(released.lines().count(), 7, "header + 6 rows, none lost");
        // Mondrian rejects non-default models up front.
        assert!(run_full(&[
            "anonymize",
            "--spec",
            spec.to_str().unwrap(),
            "--input",
            data.to_str().unwrap(),
            "--out",
            masked.to_str().unwrap(),
            "--model",
            "entropy-l",
            "--algorithm",
            "mondrian",
        ])
        .is_err());
    }

    #[test]
    fn mondrian_path() {
        let data = temp_path("mdata.csv");
        let spec = temp_path("mspec.json");
        let masked = temp_path("mmasked.csv");
        run_line(&[
            "generate",
            "--rows",
            "400",
            "--seed",
            "9",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        run_line(&["spec", "--out", spec.to_str().unwrap()]).unwrap();
        let result = run_line(&[
            "anonymize",
            "--spec",
            spec.to_str().unwrap(),
            "--input",
            data.to_str().unwrap(),
            "--out",
            masked.to_str().unwrap(),
            "--k",
            "3",
            "--p",
            "2",
            "--algorithm",
            "mondrian",
        ])
        .unwrap();
        assert!(result.contains("partitions"));
    }

    #[test]
    fn attack_workflow_on_k_only_release() {
        let data = temp_path("adata.csv");
        let spec = temp_path("aspec.json");
        let masked = temp_path("amasked.csv");
        run_line(&[
            "generate",
            "--rows",
            "400",
            "--seed",
            "21",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        run_line(&["spec", "--out", spec.to_str().unwrap()]).unwrap();
        // k-anonymity only (p = 1): attribute disclosures expected.
        let result = run_line(&[
            "anonymize",
            "--spec",
            spec.to_str().unwrap(),
            "--input",
            data.to_str().unwrap(),
            "--out",
            masked.to_str().unwrap(),
            "--k",
            "2",
            "--p",
            "1",
            "--ts",
            "0",
        ])
        .unwrap();
        let node_line = result
            .lines()
            .find(|l| l.contains("node levels"))
            .expect("anonymize prints node levels");
        let node = node_line.rsplit(' ').next().unwrap();

        let attack = run_line(&[
            "attack",
            "--spec",
            spec.to_str().unwrap(),
            "--masked",
            masked.to_str().unwrap(),
            "--external",
            data.to_str().unwrap(),
            "--node",
            node,
            "--identifier",
            "Id",
        ])
        .unwrap();
        assert!(attack.contains("individuals linked"), "{attack}");
        assert!(attack.contains("0 re-identified"), "{attack}");
        assert!(
            !attack.contains("; 0 suffer attribute disclosure"),
            "a k-only release should leak: {attack}"
        );

        // Bad node strings are rejected.
        assert!(run_line(&[
            "attack",
            "--spec",
            spec.to_str().unwrap(),
            "--masked",
            masked.to_str().unwrap(),
            "--external",
            data.to_str().unwrap(),
            "--node",
            "9,9,9,9",
            "--identifier",
            "Id",
        ])
        .is_err());
    }

    #[test]
    fn query_subcommand_runs_sql() {
        let data = temp_path("qdata.csv");
        run_line(&[
            "generate",
            "--rows",
            "120",
            "--seed",
            "33",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        // Schema inference path.
        let out = run_line(&[
            "query",
            "--input",
            data.to_str().unwrap(),
            "--sql",
            "SELECT Sex, COUNT(*) FROM data GROUP BY Sex ORDER BY 2 DESC",
        ])
        .unwrap();
        assert!(out.contains("COUNT(*)"), "{out}");
        assert!(out.contains("Male"));
        // Spec-schema path.
        let spec = temp_path("qspec.json");
        run_line(&["spec", "--out", spec.to_str().unwrap()]).unwrap();
        let out = run_line(&[
            "query",
            "--input",
            data.to_str().unwrap(),
            "--spec",
            spec.to_str().unwrap(),
            "--sql",
            "SELECT MAX(Age) FROM data",
        ])
        .unwrap();
        assert!(out.contains("MAX(Age)"));
        // SQL errors surface.
        assert!(run_line(&[
            "query",
            "--input",
            data.to_str().unwrap(),
            "--sql",
            "SELECT FROM",
        ])
        .is_err());
    }

    #[test]
    fn check_exit_codes_follow_the_verdict() {
        let (spec, data) = tiny_dataset();
        let spec_s = spec.to_str().unwrap();
        let data_s = data.to_str().unwrap();
        // Each (Sex) group has 2 rows and 2 distinct diseases: satisfied.
        let ok = run_full(&[
            "check", "--spec", spec_s, "--input", data_s, "--k", "2", "--p", "2",
        ])
        .unwrap();
        assert_eq!(ok.code, 0, "{}", ok.text);
        assert!(ok.text.contains("SATISFIED"));
        // k = 3 fails: VIOLATED must exit with the verdict code, not 0.
        let bad = run_full(&[
            "check", "--spec", spec_s, "--input", data_s, "--k", "3", "--p", "2",
        ])
        .unwrap();
        assert_eq!(bad.code, EXIT_VIOLATION, "{}", bad.text);
        assert!(bad.text.contains("VIOLATED"));
    }

    #[test]
    fn check_report_stage_counts_sum_to_search_totals() {
        use psens_microdata::JsonValue;
        let (spec, data) = tiny_dataset();
        let report = temp_path("tiny_report.json");
        let out = run_full(&[
            "check",
            "--spec",
            spec.to_str().unwrap(),
            "--input",
            data.to_str().unwrap(),
            "--k",
            "2",
            "--p",
            "2",
            "--report",
            report.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.text.contains("wrote report to"));
        let parsed = JsonValue::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        assert_eq!(
            parsed.require("command").unwrap().as_str().unwrap(),
            "check"
        );
        assert_eq!(parsed.require("rows").unwrap().as_u64().unwrap(), 4);
        assert!(parsed.require("satisfied").unwrap().as_bool().unwrap());
        // The per-stage node counts partition the evaluated-node total, and
        // the telemetry sees the same number of checks.
        let search = parsed.require("search").unwrap();
        let stage_sum: u64 = [
            "rejected_condition1",
            "rejected_condition2",
            "rejected_k",
            "rejected_detailed",
            "nodes_passed",
        ]
        .iter()
        .map(|key| search.require(key).unwrap().as_u64().unwrap())
        .sum();
        let evaluated = search.require("nodes_evaluated").unwrap().as_u64().unwrap();
        assert_eq!(stage_sum, evaluated);
        let telemetry = parsed.require("telemetry").unwrap();
        assert_eq!(
            telemetry
                .require("nodes_checked")
                .unwrap()
                .as_u64()
                .unwrap(),
            evaluated
        );
        let stage_ns: u64 = telemetry
            .require("stages")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.require("ns").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(
            stage_ns,
            telemetry.require("check_ns").unwrap().as_u64().unwrap()
        );
    }

    #[test]
    fn analyze_exits_with_verdict_code_on_unsatisfiable_p() {
        let (spec, data) = tiny_dataset();
        let spec_s = spec.to_str().unwrap();
        let data_s = data.to_str().unwrap();
        // Disease has 2 distinct values, so maxP = 2: p = 5 is hopeless.
        let bad = run_full(&["analyze", "--spec", spec_s, "--input", data_s, "--p", "5"]).unwrap();
        assert_eq!(bad.code, EXIT_VIOLATION, "{}", bad.text);
        assert!(bad.text.contains("UNSATISFIABLE"));
        let ok = run_full(&["analyze", "--spec", spec_s, "--input", data_s, "--p", "2"]).unwrap();
        assert_eq!(ok.code, 0, "{}", ok.text);
        assert!(ok.text.contains("SATISFIABLE"));
        // Without --p there is no verdict and the exit code stays 0.
        let neutral = run_full(&["analyze", "--spec", spec_s, "--input", data_s]).unwrap();
        assert_eq!(neutral.code, 0);
    }

    #[test]
    fn anonymize_report_carries_search_stats() {
        use psens_microdata::JsonValue;
        let data = temp_path("rdata.csv");
        let spec = temp_path("rspec.json");
        let masked = temp_path("rmasked.csv");
        let report = temp_path("rreport.json");
        run_line(&[
            "generate",
            "--rows",
            "300",
            "--seed",
            "11",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        run_line(&["spec", "--out", spec.to_str().unwrap()]).unwrap();
        let out = run_full(&[
            "anonymize",
            "--spec",
            spec.to_str().unwrap(),
            "--input",
            data.to_str().unwrap(),
            "--out",
            masked.to_str().unwrap(),
            "--k",
            "2",
            "--p",
            "2",
            "--ts",
            "10",
            "--report",
            report.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(out.code, 0);
        let parsed = JsonValue::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        assert_eq!(
            parsed.require("command").unwrap().as_str().unwrap(),
            "anonymize"
        );
        assert!(parsed.require("satisfied").unwrap().as_bool().unwrap());
        assert!(parsed.require("node").unwrap().as_str().is_ok());
        let search = parsed.require("search").unwrap();
        assert!(search.require("nodes_evaluated").unwrap().as_u64().unwrap() > 0);
        let telemetry = parsed.require("telemetry").unwrap();
        // The samarati search checks nodes through the observed evaluator,
        // so telemetry and SearchStats agree on the total.
        assert_eq!(
            telemetry
                .require("nodes_checked")
                .unwrap()
                .as_u64()
                .unwrap(),
            search.require("nodes_evaluated").unwrap().as_u64().unwrap()
        );
        assert!(!telemetry
            .require("heights_entered")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn parallel_anonymize_matches_serial_release() {
        let data = temp_path("cadata.csv");
        let spec = temp_path("caspec.json");
        let data_s = data.to_str().unwrap();
        let spec_s = spec.to_str().unwrap();
        run_line(&["generate", "--rows", "300", "--seed", "23", "--out", data_s]).unwrap();
        run_line(&["spec", "--out", spec_s]).unwrap();
        let masked_a = temp_path("camasked_a.csv");
        let masked_b = temp_path("camasked_b.csv");
        let anonymize = |out: &std::path::Path, threads: &str| {
            run_full(&[
                "anonymize",
                "--spec",
                spec_s,
                "--input",
                data_s,
                "--out",
                out.to_str().unwrap(),
                "--k",
                "2",
                "--p",
                "2",
                "--ts",
                "10",
                "--threads",
                threads,
            ])
            .unwrap()
        };
        let serial = anonymize(&masked_a, "1");
        let parallel = anonymize(&masked_b, "2");
        assert_eq!(serial.code, 0, "{}", serial.text);
        assert_eq!(parallel.code, 0, "{}", parallel.text);
        // The winning node and the released file agree; only the output
        // paths differ in the report text.
        assert_eq!(
            serial.text.lines().next(),
            parallel.text.lines().next(),
            "same p-k-minimal node"
        );
        assert_eq!(
            std::fs::read_to_string(&masked_a).unwrap(),
            std::fs::read_to_string(&masked_b).unwrap()
        );
    }

    #[test]
    fn rejected_generate_leaves_existing_output_untouched() {
        let out = temp_path("rejected_generate.csv");
        let deltas_out = temp_path("rejected_generate.jsonl");
        let out_s = out.to_str().unwrap();
        let deltas_out_s = deltas_out.to_str().unwrap();
        let before = b"keep,these\nbytes,intact\n";
        for line in [
            &["generate", "--profile", "bogus", "--out", out_s][..],
            &[
                "generate",
                "--profile",
                "scale",
                "--deltas",
                "3",
                "--deltas-out",
                deltas_out_s,
                "--out",
                out_s,
            ],
            &["generate", "--rows", "20", "--deltas", "3", "--out", out_s],
        ] {
            std::fs::write(&out, before).unwrap();
            assert!(run_full(line).is_err(), "{line:?} must be rejected");
            assert_eq!(std::fs::read(&out).unwrap(), before, "{line:?}");
            assert!(!deltas_out.exists(), "{line:?} wrote --deltas-out");
        }
    }

    #[test]
    fn scale_profile_streams_and_checks() {
        let data = temp_path("sdata.csv");
        let spec = temp_path("sspec.json");
        let data_s = data.to_str().unwrap();
        let spec_s = spec.to_str().unwrap();
        let msg = run_line(&[
            "generate",
            "--profile",
            "scale",
            "--rows",
            "500",
            "--seed",
            "7",
            "--out",
            data_s,
        ])
        .unwrap();
        assert!(msg.contains("500 rows"));
        let text = std::fs::read_to_string(&data).unwrap();
        assert!(text.starts_with("Age,MaritalStatus,Race,Sex,Pay"));
        assert_eq!(text.lines().count(), 501, "header + 500 rows");
        // The streamed file equals the one-shot generator output.
        let mut expect = Vec::new();
        csv::write_table(
            &mut expect,
            &psens_datasets::ScaleGenerator::new(7).generate(500),
            true,
        )
        .unwrap();
        assert_eq!(text.as_bytes(), expect);
        // The matching spec drives the usual pipeline.
        run_line(&["spec", "--profile", "scale", "--out", spec_s]).unwrap();
        let report = run_full(&[
            "check", "--spec", spec_s, "--input", data_s, "--k", "1", "--p", "1",
        ])
        .unwrap();
        assert!(report.text.contains("rows: 500"), "{}", report.text);
    }

    #[test]
    fn zero_row_scale_generate_still_writes_a_header() {
        let data = temp_path("zdata.csv");
        run_line(&[
            "generate",
            "--profile",
            "scale",
            "--rows",
            "0",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&data).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("Age,"));
    }

    #[test]
    fn unknown_profile_is_rejected() {
        let out = temp_path("pdata.csv");
        let err = run_line(&[
            "generate",
            "--profile",
            "census",
            "--rows",
            "10",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("census"));
        let err = run_line(&[
            "spec",
            "--profile",
            "census",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("census"));
    }

    #[test]
    fn missing_files_are_reported() {
        let err =
            run_line(&["check", "--spec", "/nonexistent.json", "--input", "x.csv"]).unwrap_err();
        assert!(err.contains("/nonexistent.json"));
    }

    #[test]
    fn unsatisfiable_anonymize_exits_with_verdict_code() {
        let data = temp_path("udata.csv");
        let spec = temp_path("uspec.json");
        run_line(&[
            "generate",
            "--rows",
            "200",
            "--seed",
            "3",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        run_line(&["spec", "--out", spec.to_str().unwrap()]).unwrap();
        // Pay has 2 distinct values: p = 5 is impossible. That is a negative
        // *verdict* (exit 2), not an operational error (exit 1).
        let out = run_full(&[
            "anonymize",
            "--spec",
            spec.to_str().unwrap(),
            "--input",
            data.to_str().unwrap(),
            "--out",
            "/dev/null",
            "--k",
            "2",
            "--p",
            "5",
        ])
        .unwrap();
        assert_eq!(out.code, EXIT_VIOLATION, "{}", out.text);
        assert!(out.text.contains("no masking"), "{}", out.text);
    }

    #[test]
    fn exhausted_node_budget_exits_interrupted_with_report() {
        use psens_microdata::JsonValue;
        let data = temp_path("bdata.csv");
        let spec = temp_path("bspec.json");
        let masked = temp_path("bmasked.csv");
        let report = temp_path("breport.json");
        run_line(&[
            "generate",
            "--rows",
            "300",
            "--seed",
            "5",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        run_line(&["spec", "--out", spec.to_str().unwrap()]).unwrap();
        // A zero-node budget interrupts before the first probe evaluates
        // anything: no feasible node yet, exit 3, report explains why.
        let _ = std::fs::remove_file(&masked);
        let out = run_full(&[
            "anonymize",
            "--spec",
            spec.to_str().unwrap(),
            "--input",
            data.to_str().unwrap(),
            "--out",
            masked.to_str().unwrap(),
            "--k",
            "2",
            "--p",
            "2",
            "--ts",
            "10",
            "--max-nodes",
            "0",
            "--report",
            report.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(out.code, EXIT_INTERRUPTED, "{}", out.text);
        assert!(out.text.contains("interrupted"), "{}", out.text);
        assert!(!masked.exists(), "no feasible node means no release file");
        let parsed = JsonValue::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let termination = parsed.require("termination").unwrap();
        assert_eq!(
            termination.require("reason").unwrap().as_str().unwrap(),
            "node_budget_exhausted"
        );
        assert_eq!(
            termination.require("max_nodes").unwrap().as_u64().unwrap(),
            0
        );
        assert!(matches!(
            termination.require("timeout_secs").unwrap(),
            JsonValue::Null
        ));
        assert!(!parsed.require("satisfied").unwrap().as_bool().unwrap());
    }

    #[test]
    fn completed_run_reports_termination_completed() {
        use psens_microdata::JsonValue;
        let data = temp_path("cdata.csv");
        let spec = temp_path("cspec.json");
        let masked = temp_path("cmasked.csv");
        let report = temp_path("creport.json");
        run_line(&[
            "generate",
            "--rows",
            "300",
            "--seed",
            "13",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        run_line(&["spec", "--out", spec.to_str().unwrap()]).unwrap();
        // A generous timeout completes normally; the termination section is
        // still present so consumers can tell "budgeted, finished" from
        // "never budgeted".
        let out = run_full(&[
            "anonymize",
            "--spec",
            spec.to_str().unwrap(),
            "--input",
            data.to_str().unwrap(),
            "--out",
            masked.to_str().unwrap(),
            "--k",
            "2",
            "--p",
            "2",
            "--ts",
            "10",
            "--timeout",
            "3600",
            "--report",
            report.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        let parsed = JsonValue::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let termination = parsed.require("termination").unwrap();
        assert_eq!(
            termination.require("reason").unwrap().as_str().unwrap(),
            "completed"
        );
        assert_eq!(
            termination
                .require("timeout_secs")
                .unwrap()
                .as_u64()
                .unwrap(),
            3600
        );
        assert!(
            termination
                .require("proven_min_height")
                .unwrap()
                .as_u64()
                .is_ok(),
            "samarati proves its height bound"
        );
    }

    #[test]
    fn interrupted_mondrian_still_writes_a_valid_partial_release() {
        let data = temp_path("imdata.csv");
        let spec = temp_path("imspec.json");
        let masked = temp_path("immasked.csv");
        run_line(&[
            "generate",
            "--rows",
            "400",
            "--seed",
            "17",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        run_line(&["spec", "--out", spec.to_str().unwrap()]).unwrap();
        // One split attempt only: the root partition is finalized unsplit.
        // That single partition trivially satisfies k = 2, p = 1, so the
        // partial (maximally coarse) release is written and exit is 3.
        let out = run_full(&[
            "anonymize",
            "--spec",
            spec.to_str().unwrap(),
            "--input",
            data.to_str().unwrap(),
            "--out",
            masked.to_str().unwrap(),
            "--k",
            "2",
            "--p",
            "1",
            "--algorithm",
            "mondrian",
            "--max-nodes",
            "1",
        ])
        .unwrap();
        assert_eq!(out.code, EXIT_INTERRUPTED, "{}", out.text);
        assert!(out.text.contains("coarser"), "{}", out.text);
        let released = std::fs::read_to_string(&masked).unwrap();
        assert!(released.lines().count() > 400, "all rows released");
    }
}
