//! `psens-benchmark`: the repository benchmark.
//!
//! ```text
//! psens-benchmark --workload W --seed S --seconds T --trace 0|1
//! psens-benchmark run --seed S --out DIR [--quick]
//! psens-benchmark compare A B
//! ```
//!
//! The first form runs one workload and prints one JSON line as the last
//! line of stdout: the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of the traced replay (`--trace 1`). `run` does every workload at
//! the default length, prints `workload metric value unit` lines and writes
//! `DIR/results.json` and `DIR/trace.jsonl`. Both build the repository
//! first and exit nonzero, printing no metrics, if any correctness gate
//! fails. `compare` judges two sets of `run` results against the bounds in
//! `BENCHMARK.json` and exits nonzero when any pair is worse or unresolved.
//! See README.md.

mod compare;
mod env;
mod inputs;
mod replay;
mod results;
mod stats;
mod sys;
mod trace;
mod workloads;

use env::Env;
use inputs::{Sizes, WORKLOADS};
use results::{unit_of, Results};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: psens-benchmark --workload W --seed S --seconds T --trace 0|1\n\
                     \x20      psens-benchmark run --seed S --out DIR [--quick]\n\
                     \x20      psens-benchmark compare A B";

/// Default `--seconds` for `run`, matching `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: u64 = 10;

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `--key value` options and bare switches, each from a known set.
struct Options {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Options {
    fn parse(args: &[String], keys: &[&str], switches: &[&str]) -> Result<Options, String> {
        let mut out = Options {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if switches.contains(&arg.as_str()) {
                out.switches.push(arg.clone());
            } else if keys.contains(&arg.as_str()) {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))?;
                out.values.push((arg.clone(), value.clone()));
            } else {
                return Err(format!("unexpected argument `{arg}`\n{USAGE}"));
            }
        }
        Ok(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values
            .iter()
            .rfind(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, key: &str) -> Result<u64, String> {
        let text = self
            .get(key)
            .ok_or_else(|| format!("{key} is required\n{USAGE}"))?;
        text.parse().map_err(|e| format!("{key} `{text}`: {e}"))
    }
}

fn dispatch(args: Vec<String>) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("run") => run(&Options::parse(
            &args[1..],
            &["--seed", "--out"],
            &["--quick"],
        )?),
        Some("compare") => match &args[1..] {
            [a, b] => {
                let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
                let flagged =
                    compare::compare(&root.join("BENCHMARK.json"), Path::new(a), Path::new(b))?;
                match flagged {
                    0 => Ok(()),
                    n => Err(format!(
                        "{n} (metric, workload) pair(s) worse or unresolved"
                    )),
                }
            }
            _ => Err(USAGE.to_owned()),
        },
        Some("--help" | "-h") | None => Err(USAGE.to_owned()),
        Some(_) => single(&Options::parse(
            &args,
            &["--workload", "--seed", "--seconds", "--trace"],
            &[],
        )?),
    }
}

fn check_workload(name: &str) -> Result<(), String> {
    match WORKLOADS.contains(&name) {
        true => Ok(()),
        false => Err(format!("unknown workload `{name}` (one of {WORKLOADS:?})")),
    }
}

/// One workload, one JSON result line.
fn single(options: &Options) -> Result<(), String> {
    let workload = options.get("--workload").ok_or(USAGE)?;
    check_workload(workload)?;
    let seed = options.number("--seed")?;
    let seconds = options.number("--seconds")?;
    let traced = match options.get("--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return Err(format!("--trace must be 0 or 1\n{USAGE}")),
    };
    let env = Env::prepare(workload, seed, seconds, false)?;
    eprintln!("benchmark: run {}", env.meta.to_json());
    let measured = workloads::run(&env, workload, seed, &Sizes::new(seconds, false), traced)?;
    println!("{}", measured.result.result_line(traced).to_json());
    Ok(())
}

/// Every workload, traced replay included.
fn run(options: &Options) -> Result<(), String> {
    let seed = options.number("--seed")?;
    let quick = options.switches.iter().any(|s| s == "--quick");
    let out = PathBuf::from(options.get("--out").ok_or(USAGE)?);
    let sizes = Sizes::new(DEFAULT_SECONDS, quick);
    let env = Env::prepare("run", seed, DEFAULT_SECONDS, quick)?;
    let mut results = Results {
        meta: env.meta.clone(),
        workloads: Vec::new(),
    };
    let mut trace_lines = String::new();
    for name in WORKLOADS {
        let measured = workloads::run(&env, name, seed, &sizes, true)?;
        let r = &measured.result;
        for (metric, value) in r.end_to_end.iter().chain(&r.per_layer) {
            println!("{name} {metric} {value} {}", unit_of(metric).unwrap_or(""));
        }
        println!("{name} failed {} of {}", r.failed, r.attempted);
        for span in &measured.spans {
            trace_lines.push_str(&span.to_json(name).to_json());
            trace_lines.push('\n');
        }
        results.workloads.push(measured.result);
    }
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    for (file, text) in [
        ("results.json", results.to_json().to_json_pretty()),
        ("trace.jsonl", trace_lines),
    ] {
        let path = out.join(file);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    eprintln!(
        "benchmark: wrote results.json and trace.jsonl to {}",
        out.display()
    );
    Ok(())
}
