//! Workload inputs, all generated from the run seed: datasets (CSV text
//! plus spec), delta scripts, and the request sequence each workload sends.
//! The programs under test see only these generated inputs.

use psens_core::ModelSpec;
use psens_datasets::fixtures::{adult_fixture, scale_fixture};
use psens_datasets::{hierarchies as h, AdultGenerator, ScaleGenerator, Spec};
use psens_microdata::csv::{read_table_str, to_csv_string};
use psens_microdata::{DeltaBatch, JsonValue, Table};
use psens_testkit::deltas::{delta_script, DeltaRng};

/// The four workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = ["cold-search", "warm-mixed", "live-updates", "cli-batch"];

/// A dataset as the server's `register` op takes it.
pub struct Dataset {
    pub name: &'static str,
    pub csv: String,
    pub spec: Spec,
}

impl Dataset {
    pub fn register_params(&self) -> JsonValue {
        psens_server::client::register_params(self.name, &self.csv, &self.spec)
    }
}

/// One `anonymize` configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anon {
    pub model: ModelSpec,
    pub k: u32,
    pub ts: usize,
}

impl Anon {
    const fn psens(p: u32, k: u32, ts: usize) -> Anon {
        Anon {
            model: ModelSpec::PSensitiveK { p },
            k,
            ts,
        }
    }

    /// `anonymize` / `watch` parameters for this configuration.
    pub fn params(&self, dataset: &str) -> JsonValue {
        let mut params = model_params(dataset, self.model, self.k);
        params.set("ts", JsonValue::Int(self.ts as i64));
        params
    }
}

/// Request parameters naming `model` the way the server parses them.
fn model_params(dataset: &str, model: ModelSpec, k: u32) -> JsonValue {
    let mut params = JsonValue::object();
    params.set("dataset", JsonValue::Str(dataset.to_owned()));
    params.set("model", JsonValue::Str(model.name().to_owned()));
    let key = match model {
        ModelSpec::PSensitiveK { .. } => "p",
        ModelSpec::DistinctL { .. } | ModelSpec::EntropyL { .. } => "l",
        ModelSpec::TCloseness { .. } => "t_ppm",
    };
    params.set(key, JsonValue::Int(model.param() as i64));
    params.set("k", JsonValue::Int(i64::from(k)));
    params
}

/// One request of a workload's sequence.
#[derive(Debug, Clone)]
pub enum Req {
    /// `threads == 0` leaves the server's default (all cores).
    Anonymize {
        anon: Anon,
        no_cache: bool,
        threads: usize,
    },
    Check {
        model: ModelSpec,
        k: u32,
    },
    Analyze {
        p: u32,
    },
    Query {
        sql: &'static str,
    },
    Update(DeltaBatch),
}

impl Req {
    pub fn op(&self) -> &'static str {
        match self {
            Req::Anonymize { .. } => "anonymize",
            Req::Check { .. } => "check",
            Req::Analyze { .. } => "analyze",
            Req::Query { .. } => "query",
            Req::Update(_) => "update",
        }
    }

    pub fn params(&self, dataset: &str) -> JsonValue {
        match self {
            Req::Anonymize {
                anon,
                no_cache,
                threads,
            } => {
                let mut params = anon.params(dataset);
                if *threads > 0 {
                    params.set("threads", JsonValue::Int(*threads as i64));
                }
                if *no_cache {
                    params.set("no_cache", JsonValue::Bool(true));
                }
                params
            }
            Req::Check { model, k } => model_params(dataset, *model, *k),
            Req::Analyze { p } => {
                let mut params = JsonValue::object();
                params.set("dataset", JsonValue::Str(dataset.to_owned()));
                params.set("p", JsonValue::Int(i64::from(*p)));
                params
            }
            Req::Query { sql } => {
                let mut params = JsonValue::object();
                params.set("dataset", JsonValue::Str(dataset.to_owned()));
                params.set("sql", JsonValue::Str((*sql).to_owned()));
                params
            }
            Req::Update(batch) => update_params(dataset, batch),
        }
    }
}

/// `update` parameters: appended rows as rendered cells, then deletes.
fn update_params(dataset: &str, batch: &DeltaBatch) -> JsonValue {
    let mut params = JsonValue::object();
    params.set("dataset", JsonValue::Str(dataset.to_owned()));
    let rows = batch
        .appends
        .iter()
        .map(|row| {
            JsonValue::Array(
                row.iter()
                    .map(|v| JsonValue::Str(v.render().into_owned()))
                    .collect(),
            )
        })
        .collect();
    params.set("appends", JsonValue::Array(rows));
    let deletes = batch
        .deletes
        .iter()
        .map(|&ix| JsonValue::Int(ix as i64))
        .collect();
    params.set("deletes", JsonValue::Array(deletes));
    params
}

/// Run sizes. `--seconds` scales the request counts, calibrated so the
/// measured phase of a full run lasts about that long on a 2-core host;
/// every run with the same seconds does the same work, and a faster build
/// finishes sooner instead of doing more. Tail metrics need at least 100
/// samples, so counts never drop below that outside `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Tiny sizes for a smoke run; tail metrics are not meaningful.
    pub quick: bool,
    pub cold_rows: usize,
    pub cold_cycles: usize,
    pub warm_rows: usize,
    pub warm_cycles: usize,
    pub live_rows: usize,
    pub live_updates: usize,
    /// Warm reads beside the updates: two per update, which on two cores
    /// end well before the updates do, so every read races writes.
    pub live_reads: usize,
    pub cli_rows: usize,
    pub cli_runs: usize,
    /// Setups per run whose median is `setup_s`.
    pub setups: usize,
    /// Requests of each workload replayed in-process.
    pub replay: usize,
}

impl Sizes {
    pub fn new(seconds: u64, quick: bool) -> Sizes {
        if quick {
            return Sizes {
                quick,
                cold_rows: 600,
                cold_cycles: 2,
                warm_rows: 2_000,
                warm_cycles: 6,
                live_rows: 1_000,
                live_updates: 20,
                live_reads: 40,
                cli_rows: 1_000,
                cli_runs: 3,
                setups: 2,
                replay: 10,
            };
        }
        let scale = |per_second: f64, floor: usize| {
            floor.max((per_second * seconds as f64).round() as usize)
        };
        let live_updates = scale(40.0, 100);
        Sizes {
            quick,
            cold_rows: 3_000,
            cold_cycles: scale(2.0, 20),
            warm_rows: 100_000,
            warm_cycles: scale(3.5, 50),
            live_rows: 20_000,
            live_updates,
            live_reads: 2 * live_updates,
            cli_rows: 20_000,
            cli_runs: scale(6.7, 100),
            setups: 5,
            replay: 40,
        }
    }
}

/// The 8-QI wide Adult spec: 7,776-node lattice.
fn wide_spec() -> Spec {
    Spec {
        attributes: AdultGenerator::wide_schema().attributes().to_vec(),
        hierarchies: [
            ("Age", h::adult_age()),
            ("MaritalStatus", h::adult_marital_status()),
            ("Race", h::adult_race()),
            ("Sex", h::adult_sex()),
            ("Education", h::adult_education()),
            ("WorkClass", h::adult_work_class()),
            ("Occupation", h::adult_occupation()),
            ("Country", h::adult_country()),
        ]
        .into_iter()
        .map(|(name, hierarchy)| (name.to_owned(), hierarchy))
        .collect(),
    }
}

/// The five cold-search configurations: two p-sensitive k-anonymity
/// strengths and one of each other shipped model. t-closeness uses
/// t = 0.5: at t = 0.3 the minimal height on 3,000 rows swings with the
/// seed and the search cost with it (up to 2x), which drowns code changes.
pub const COLD_SPECS: [Anon; 5] = [
    Anon::psens(2, 3, 100),
    Anon::psens(2, 10, 100),
    Anon {
        model: ModelSpec::DistinctL { l: 2 },
        k: 5,
        ts: 100,
    },
    Anon {
        model: ModelSpec::EntropyL { l: 1 },
        k: 5,
        ts: 100,
    },
    Anon {
        model: ModelSpec::TCloseness { t_ppm: 500_000 },
        k: 5,
        ts: 100,
    },
];

pub fn cold_dataset(seed: u64, rows: usize) -> Dataset {
    Dataset {
        name: "wide",
        csv: to_csv_string(&AdultGenerator::new(seed).generate_wide(rows), true),
        spec: wide_spec(),
    }
}

/// Cold searches run on one worker thread: on a 2-core host a parallel
/// probe waits for its slowest worker, so one preempted core doubles a
/// request and run-to-run noise swamps the kernel cost this workload
/// exists to measure. The parallel probe runs in the other workloads.
const COLD_THREADS: usize = 1;

/// Each cycle checks the raw table against a configuration, then
/// anonymizes for it, with the verdict store bypassed.
pub fn cold_requests(cycles: usize) -> Vec<Req> {
    (0..cycles)
        .flat_map(|_| COLD_SPECS)
        .flat_map(|anon| {
            [
                Req::Check {
                    model: anon.model,
                    k: anon.k,
                },
                Req::Anonymize {
                    anon,
                    no_cache: true,
                    threads: COLD_THREADS,
                },
            ]
        })
        .collect()
}

/// The warm-mixed anonymize configuration.
pub const WARM_ANON: Anon = Anon::psens(2, 3, 10);

pub fn warm_dataset(seed: u64, rows: usize) -> Dataset {
    Dataset {
        name: "adult",
        csv: adult_fixture(seed, rows).csv,
        spec: Spec::adult(),
    }
}

/// `psens-load`'s op mix: every cycle sends each of the four ops once, in
/// an order shuffled per connection and cycle from the seed. A fixed order
/// lets the two connections lock into one overlap pattern per run (both
/// anonymizing at once, or never), which moves a whole run's medians.
pub fn warm_requests(cycles: usize, connection: usize, seed: u64) -> Vec<Req> {
    let mut rng = DeltaRng::new(seed ^ (connection as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut cycle = [
        Req::Check {
            model: ModelSpec::PSensitiveK { p: 2 },
            k: 3,
        },
        Req::Anonymize {
            anon: WARM_ANON,
            no_cache: false,
            threads: 0,
        },
        Req::Analyze { p: 2 },
        Req::Query {
            sql: "SELECT COUNT(*) FROM data",
        },
    ];
    let mut out = Vec::with_capacity(cycles * cycle.len());
    for _ in 0..cycles {
        for i in (1..cycle.len()).rev() {
            cycle.swap(i, rng.below(i + 1));
        }
        out.extend(cycle.iter().cloned());
    }
    out
}

/// The live-updates watches; the reader connection anonymizes for the
/// first.
pub const LIVE_WATCHES: [Anon; 2] = [
    Anon::psens(2, 3, 50),
    Anon {
        model: ModelSpec::DistinctL { l: 2 },
        k: 5,
        ts: 50,
    },
];

/// The live-updates base table, its delta script as `update` requests, and
/// the table the script ends at.
pub struct LiveInputs {
    pub dataset: Dataset,
    pub updates: Vec<Req>,
    pub final_table: Table,
}

pub fn live_inputs(seed: u64, rows: usize, updates: usize) -> LiveInputs {
    let fixture = scale_fixture(seed, rows);
    // The script indexes rows of the table the server parses from this CSV.
    let schema = fixture.spec.schema().expect("scale spec is valid");
    let mut current = read_table_str(&fixture.csv, schema, true).expect("fixture CSV parses");
    // delta_script keeps every intermediate table; generating in segments
    // bounds that to one segment's worth.
    const SEGMENT: usize = 50;
    let mut script = Vec::with_capacity(updates);
    let mut segment = 0u64;
    while script.len() < updates {
        let n = SEGMENT.min(updates - script.len());
        let steps = delta_script(&current, n, seed ^ (segment << 32) ^ 0x11FE, |rng| {
            ScaleGenerator::new(rng.next_u64())
                .generate(1)
                .row(0)
                .expect("one generated row")
        });
        current = steps.last().expect("n >= 1 steps").after.clone();
        script.extend(steps.into_iter().map(|step| Req::Update(step.batch)));
        segment += 1;
    }
    LiveInputs {
        dataset: Dataset {
            name: "scale",
            csv: fixture.csv,
            spec: fixture.spec,
        },
        updates: script,
        final_table: current,
    }
}

/// The cli-batch configuration: `--k 5 --p 2 --ts 1000 --threads 2`.
pub const CLI_ANON: Anon = Anon::psens(2, 5, 1000);
pub const CLI_THREADS: usize = 2;
