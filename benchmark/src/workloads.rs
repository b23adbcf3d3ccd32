//! The four workloads. Each one sets up the real binaries (timed, several
//! times), drives them in closed loops from at most two client threads,
//! checks every correctness gate, and — when asked — replays the same
//! requests in-process with and without spans for the per-layer metrics.

use crate::env::Env;
use crate::inputs::{self, Anon, Dataset, Req, Sizes};
use crate::replay::{self, frame, ms, Replay, Verdict, Watch};
use crate::results::WorkloadResult;
use crate::stats::{self, percentile, sorted};
use crate::sys::{run_once, ServerProc};
use crate::trace::{Span, Tracer};
use psens_core::NoopObserver;
use psens_microdata::csv::to_csv_string;
use psens_microdata::JsonValue;
use psens_server::client::{response_result, Client};
use psens_server::registry::Registry;
use psens_server::StateDir;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A workload's result plus the spans of its traced replay.
pub struct Measured {
    pub result: WorkloadResult,
    pub spans: Vec<Span>,
}

pub fn run(
    env: &Env,
    name: &str,
    seed: u64,
    sizes: &Sizes,
    replay: bool,
) -> Result<Measured, String> {
    match name {
        "cold-search" => cold_search(env, seed, sizes, replay),
        "warm-mixed" => warm_mixed(env, seed, sizes, replay),
        "live-updates" => live_updates(env, seed, sizes, replay),
        "cli-batch" => cli_batch(env, seed, sizes, replay),
        other => Err(format!(
            "unknown workload `{other}` (one of {:?})",
            inputs::WORKLOADS
        )),
    }
}

/// Attempted and failed operations; the first failure is reported on
/// stderr.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// One timed request: from the start of the request write until the
    /// response frame is read. An error response or a transport failure
    /// counts as failed.
    fn call(
        &mut self,
        client: &mut Client,
        op: &str,
        params: JsonValue,
    ) -> (f64, Result<JsonValue, String>) {
        self.attempted += 1;
        let start = Instant::now();
        let response = client.call(op, params);
        let elapsed = ms(start.elapsed());
        let result = response
            .map_err(|e| format!("{op}: transport: {e}"))
            .and_then(|r| response_result(&r).map_err(|e| format!("{op}: {e}")));
        if let Err(e) = &result {
            if self.failed == 0 {
                eprintln!("benchmark: {e}");
            }
            self.failed += 1;
        }
        (elapsed, result)
    }

    /// A request the workload cannot go on without.
    fn call_ok(
        &mut self,
        client: &mut Client,
        op: &str,
        params: JsonValue,
    ) -> Result<JsonValue, String> {
        self.call(client, op, params).1
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one closed-loop connection saw: its tally, latencies, the verdict
/// of every `anonymize`, and every result (`None` where the request
/// failed), in request order.
#[derive(Default)]
struct Driven {
    tally: Tally,
    samples: Samples,
    verdicts: Vec<(Anon, String)>,
    results: Vec<Option<JsonValue>>,
}

/// Sends `requests` on `client` one after the other: a closed loop.
fn drive(client: &mut Client, dataset: &str, requests: &[Req]) -> Result<Driven, String> {
    let mut out = Driven::default();
    for req in requests {
        let (elapsed, outcome) = out.tally.call(client, req.op(), req.params(dataset));
        if let Ok(result) = &outcome {
            match req {
                Req::Anonymize { anon, .. } => {
                    out.samples.anonymize.push(elapsed);
                    out.verdicts.push((*anon, verdict_text(result)?));
                }
                _ => out.samples.other.push(elapsed),
            }
        }
        out.results.push(outcome.ok());
    }
    Ok(out)
}

/// Latencies of completed measured operations, milliseconds.
#[derive(Default)]
struct Samples {
    anonymize: Vec<f64>,
    other: Vec<f64>,
}

impl Samples {
    fn absorb(&mut self, other: Samples) {
        self.anonymize.extend(other.anonymize);
        self.other.extend(other.other);
    }

    fn completed(&self) -> usize {
        self.anonymize.len() + self.other.len()
    }
}

/// Metric values by name, and the number of samples behind each.
type Metrics = (BTreeMap<String, f64>, BTreeMap<String, u64>);

/// The end-to-end metrics and tails. Tails need ten samples beyond p90,
/// which the sizes guarantee outside `--quick`.
fn end_to_end(
    samples: &Samples,
    window_s: f64,
    setup_s: &[f64],
    peak_rss_mb: f64,
    quick: bool,
) -> Result<Metrics, String> {
    let mut values = BTreeMap::new();
    let mut counts = BTreeMap::new();
    for (prefix, list) in [("anonymize", &samples.anonymize), ("other", &samples.other)] {
        if list.is_empty() {
            return Err(format!("no completed `{prefix}` operations"));
        }
        if !quick && stats::tail_permille(list.len()).is_none_or(|q| q < 900) {
            return Err(format!(
                "{} `{prefix}` samples leave fewer than ten beyond p90",
                list.len()
            ));
        }
        let s = sorted(list);
        for (suffix, permille) in [("p50_ms", 500), ("p90_ms", 900)] {
            let name = format!("{prefix}_{suffix}");
            values.insert(name.clone(), percentile(&s, permille));
            counts.insert(name, s.len() as u64);
        }
    }
    values.insert(
        "throughput_rps".into(),
        samples.completed() as f64 / window_s,
    );
    counts.insert("throughput_rps".into(), samples.completed() as u64);
    values.insert("setup_s".into(), stats::median(setup_s));
    counts.insert("setup_s".into(), setup_s.len() as u64);
    values.insert("peak_rss_mb".into(), peak_rss_mb);
    Ok((values, counts))
}

/// Server-side counters for the per-layer table: load shed, and the share
/// of pool lookups that found a warm store.
fn server_counters(
    client: &mut Client,
    tally: &mut Tally,
    dataset: &str,
) -> Result<(f64, f64), String> {
    let health = tally.call_ok(client, "health", JsonValue::object())?;
    let shed = health
        .require("shed_total")
        .and_then(JsonValue::as_u64)
        .map_err(|e| e.to_string())?;
    let stats = tally.call_ok(client, "stats", JsonValue::object())?;
    let entry = dataset_stats(&stats, dataset)?;
    let count = |key: &str| {
        entry
            .require(key)
            .and_then(JsonValue::as_u64)
            .map_err(|e| e.to_string())
    };
    let (hits, misses) = (
        count("store_warm_hits")? as f64,
        count("store_cold_misses")? as f64,
    );
    let hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    Ok((shed as f64, hit_ratio))
}

fn dataset_stats<'a>(stats: &'a JsonValue, dataset: &str) -> Result<&'a JsonValue, String> {
    stats
        .require("datasets")
        .and_then(JsonValue::as_array)
        .map_err(|e| e.to_string())?
        .iter()
        .find(|d| d.get("name").and_then(|n| n.as_str().ok()) == Some(dataset))
        .ok_or_else(|| format!("`stats` does not list dataset `{dataset}`"))
}

/// The verdict object of an `anonymize` result, as compact JSON.
fn verdict_text(result: &JsonValue) -> Result<String, String> {
    Ok(result
        .require("verdict")
        .map_err(|e| e.to_string())?
        .to_json())
}

/// Gate: every wire verdict is byte-identical to the others of its
/// configuration (cold or warm) and matches the in-process search on
/// `node_levels`, `height`, `suppressed` and `proven_min_height`.
fn gate_verdicts(wire: &[(Anon, String)], expected: &[(Anon, Verdict)]) -> Result<(), String> {
    for (anon, want) in expected {
        let texts: Vec<&String> = wire
            .iter()
            .filter(|(a, _)| a == anon)
            .map(|(_, t)| t)
            .collect();
        let first = texts
            .first()
            .ok_or_else(|| format!("no wire verdict for {anon:?}"))?;
        if let Some(other) = texts.iter().find(|t| t != &first) {
            return Err(format!(
                "{anon:?}: wire verdicts differ: {first} vs {other}"
            ));
        }
        let got = Verdict::from_wire(&JsonValue::parse(first).map_err(|e| e.to_string())?)?;
        if &got != want {
            return Err(format!(
                "{anon:?}: wire verdict {got:?} != in-process {want:?}"
            ));
        }
    }
    Ok(())
}

/// Keys of an op's result whose values depend on timing or on what else
/// ran (search statistics, pool state), not on the request and the table.
fn volatile_keys(op: &str) -> &'static [&'static str] {
    match op {
        "anonymize" => &["warm", "search"],
        "update" => &["invalidation"],
        _ => &[],
    }
}

/// Gate: a replayed result has the wire result's shape outside the op's
/// volatile keys — the same keys in the same order, the same array
/// lengths, the same kind of value at every leaf — and, when `exact` (the
/// same request on the same table), the same values. So the replay's
/// `protocol.encode_us` and `protocol.response_bytes` measure the
/// responses the server sends.
fn gate_response(
    op: &str,
    replayed: &JsonValue,
    wire: &JsonValue,
    exact: bool,
) -> Result<(), String> {
    let mask = |value: &JsonValue| {
        let mut value = value.clone();
        for key in volatile_keys(op) {
            value.set(*key, JsonValue::Null);
        }
        value
    };
    let (replayed, wire) = (mask(replayed), mask(wire));
    match same_shape(&replayed, &wire) && (!exact || replayed == wire) {
        true => Ok(()),
        false => Err(format!(
            "replayed `{op}` result {} differs from the wire's {}",
            replayed.to_json(),
            wire.to_json()
        )),
    }
}

fn same_shape(a: &JsonValue, b: &JsonValue) -> bool {
    match (a, b) {
        (JsonValue::Object(x), JsonValue::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, vx), (ky, vy))| kx == ky && same_shape(vx, vy))
        }
        (JsonValue::Array(x), JsonValue::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_shape(p, q))
        }
        _ => std::mem::discriminant(a) == std::mem::discriminant(b),
    }
}

/// In-process verdicts of `anons` on `data`, parsed and registered exactly
/// as the server does it, searched without a verdict store.
fn inprocess_verdicts(data: &Dataset, anons: &[Anon]) -> Result<Vec<(Anon, Verdict)>, String> {
    let registry = Registry::new();
    let dataset = registry.register(data.name, &data.csv, data.spec.clone())?;
    let (table, stats) = dataset.snapshot();
    anons
        .iter()
        .map(|&anon| {
            let outcome =
                replay::search(&table, &dataset.qi, &stats, anon, None, 0, &NoopObserver)?;
            Ok((anon, Verdict::from_outcome(&outcome)))
        })
        .collect()
}

/// Spawns `setups` servers in turn, timing each from spawn until `ready`
/// has run on it; all but the last are shut down. Returns the last server,
/// its clients, and the setup times.
fn timed_setups(
    env: &Env,
    tag: &str,
    setups: usize,
    clients: usize,
    tally: &mut Tally,
    mut ready: impl FnMut(&mut [Client], &mut Tally) -> Result<(), String>,
) -> Result<(ServerProc, Vec<Client>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(setups);
    for i in 0..setups {
        let start = Instant::now();
        let server = ServerProc::spawn(&env.server, &env.work, &format!("{tag}-{i}"), None)?;
        let mut conns = (0..clients)
            .map(|_| server.connect())
            .collect::<Result<Vec<_>, _>>()?;
        ready(&mut conns, tally)?;
        times.push(start.elapsed().as_secs_f64());
        if i + 1 == setups {
            return Ok((server, conns, times));
        }
        drop(conns);
        server.shutdown()?;
    }
    Err("at least one setup is required".into())
}

/// What the wire run of a read-only workload hands its traced run: the
/// `register` result, the first connection's requests and results, the
/// `anonymize` p50, and `(shed_total, pool_hit_ratio)` from the server.
struct Wire<'a> {
    register: &'a JsonValue,
    requests: &'a [Req],
    results: &'a [Option<JsonValue>],
    anonymize_p50_ms: f64,
    counters: (f64, f64),
}

/// The traced run of a read-only workload: registers `data` in-process,
/// runs `warm_up` untimed, then replays the first `prefix` wire requests
/// twice over — traced and untraced, alternating which goes first so drift
/// hits both alike — checking every verdict against `expected` and every
/// result against the wire's.
fn replay_reads(
    data: &Dataset,
    warm_up: Option<&Req>,
    prefix: usize,
    wire: &Wire,
    expected: &[(Anon, Verdict)],
) -> Result<(Vec<Span>, BTreeMap<String, f64>), String> {
    let (traced_tracer, plain_tracer) = (Tracer::new(true), Tracer::new(false));
    let (mut traced, mut plain) = (Replay::new(&traced_tracer), Replay::new(&plain_tracer));
    let registry = Registry::new();
    let (dataset, registered) =
        traced.register(&registry, &frame(0, "register", data.register_params()))?;
    gate_response("register", &registered, wire.register, true)?;
    let run = |r: &mut Replay, req: &Req, bytes: &[u8]| match req {
        Req::Anonymize {
            anon,
            no_cache,
            threads,
        } => {
            let result = r.anonymize(&registry, &dataset, bytes, *anon, *no_cache, *threads)?;
            let got = Verdict::from_wire(result.require("verdict").map_err(|e| e.to_string())?)?;
            match expected.iter().find(|(a, _)| a == anon) {
                Some((_, want)) if *want == got => Ok(result),
                _ => Err(format!(
                    "{anon:?}: replayed verdict {got:?} disagrees with the search"
                )),
            }
        }
        Req::Check { model, k } => r.check(&dataset, bytes, *model, *k),
        Req::Analyze { p } => r.analyze(&dataset, bytes, *p),
        Req::Query { sql } => r.query(&dataset, bytes, sql),
        Req::Update(_) => Err("`update` is not a read".to_owned()),
    };
    if let Some(req) = warm_up {
        run(&mut plain, req, &frame(0, req.op(), req.params(data.name)))?;
    }
    // The second of two identical requests runs measurably faster (warm
    // allocator and caches), so the order alternates per op.
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    let prefix = prefix.min(wire.requests.len());
    for (i, req) in wire.requests[..prefix].iter().enumerate() {
        let bytes = frame(i as i64 + 1, req.op(), req.params(data.name));
        let nth = seen.entry(req.op()).or_default();
        *nth += 1;
        let (first, second) = match *nth % 2 {
            0 => (&mut plain, &mut traced),
            _ => (&mut traced, &mut plain),
        };
        for r in [first, second] {
            let result = run(r, req, &bytes)?;
            if let Some(sent) = &wire.results[i] {
                gate_response(req.op(), &result, sent, true)?;
            }
        }
    }
    let spans = traced_tracer.take();
    let mut layers = finish_layers(
        &spans,
        &traced,
        &plain,
        "op.anonymize",
        wire.anonymize_p50_ms,
    );
    layers.insert("server.shed_total".into(), wire.counters.0);
    layers.insert("registry.pool_hit_ratio".into(), wire.counters.1);
    layers.insert("verdict.pool_bytes".into(), registry.pool_bytes() as f64);
    Ok((spans, layers))
}

/// The replay-derived per-layer metrics every workload reports, given the
/// wire p50 of its anonymize op and the traced and untraced root-span names.
fn finish_layers(
    spans: &[Span],
    traced: &Replay,
    plain: &Replay,
    anonymize_root: &str,
    wire_anonymize_p50_ms: f64,
) -> BTreeMap<String, f64> {
    let mut layers = replay::layer_metrics(spans, &traced.facts);
    let plain_ms = plain.op_median_ms(anonymize_root).unwrap_or(0.0);
    let traced_ms = traced.op_median_ms(anonymize_root).unwrap_or(0.0);
    layers.insert(
        "server.residual_us".into(),
        (wire_anonymize_p50_ms - plain_ms) * 1e3,
    );
    let overhead = if plain_ms > 0.0 {
        (traced_ms / plain_ms - 1.0) * 100.0
    } else {
        0.0
    };
    layers.insert("trace.overhead_pct".into(), overhead);
    layers
}

fn result(
    name: &str,
    tally: &Tally,
    metrics: Metrics,
    per_layer: BTreeMap<String, f64>,
) -> WorkloadResult {
    WorkloadResult {
        name: name.to_owned(),
        attempted: tally.attempted,
        failed: tally.failed,
        end_to_end: metrics.0,
        samples: metrics.1,
        per_layer,
    }
}

fn cold_search(env: &Env, seed: u64, sizes: &Sizes, replay: bool) -> Result<Measured, String> {
    let data = inputs::cold_dataset(seed, sizes.cold_rows);
    let requests = inputs::cold_requests(sizes.cold_cycles);
    let mut tally = Tally::default();
    let register = data.register_params();
    let mut registered = JsonValue::Null;
    let (server, mut clients, setup_s) =
        timed_setups(env, "cold", sizes.setups, 1, &mut tally, |conns, tally| {
            registered = tally.call_ok(&mut conns[0], "register", register.clone())?;
            Ok(())
        })?;
    let client = &mut clients[0];

    let window = Instant::now();
    let driven = drive(client, data.name, &requests)?;
    let window_s = window.elapsed().as_secs_f64();
    tally.absorb(driven.tally);
    let counters = server_counters(client, &mut tally, data.name)?;
    let peak = server.peak_rss_mb()?;
    drop(clients);
    server.shutdown()?;

    let expected = inprocess_verdicts(&data, &inputs::COLD_SPECS)?;
    gate_verdicts(&driven.verdicts, &expected)?;
    let metrics = end_to_end(&driven.samples, window_s, &setup_s, peak, sizes.quick)?;

    let wire = Wire {
        register: &registered,
        requests: &requests,
        results: &driven.results,
        anonymize_p50_ms: metrics.0["anonymize_p50_ms"],
        counters,
    };
    let (spans, per_layer) = match replay {
        true => replay_reads(&data, None, sizes.replay, &wire, &expected)?,
        false => Default::default(),
    };
    Ok(Measured {
        result: result("cold-search", &tally, metrics, per_layer),
        spans,
    })
}

fn warm_mixed(env: &Env, seed: u64, sizes: &Sizes, replay: bool) -> Result<Measured, String> {
    let data = inputs::warm_dataset(seed, sizes.warm_rows);
    let anonymize = Req::Anonymize {
        anon: inputs::WARM_ANON,
        no_cache: false,
        threads: 0,
    };
    let mut tally = Tally::default();
    let mut verdicts = Vec::new();
    let register = data.register_params();
    let mut registered = JsonValue::Null;
    // A third, set-up connection registers the table and fills the pool
    // (a cold anonymize); then each measured connection makes one untimed
    // warm anonymize. The server serves each connection on its own thread,
    // and a thread that ran the registration and the cold search stays
    // about 1.5x slower on warm requests for the rest of its life, which
    // would split the measured latencies into two clusters with the p50
    // between them.
    let (server, mut clients, setup_s) =
        timed_setups(env, "warm", sizes.setups, 3, &mut tally, |conns, tally| {
            verdicts.clear();
            registered = tally.call_ok(&mut conns[2], "register", register.clone())?;
            for conn in conns.iter_mut().rev() {
                let result = tally.call_ok(conn, "anonymize", anonymize.params(data.name))?;
                verdicts.push((inputs::WARM_ANON, verdict_text(&result)?));
            }
            Ok(())
        })?;
    clients.truncate(2);

    let requests: Vec<Vec<Req>> = (0..clients.len())
        .map(|c| inputs::warm_requests(sizes.warm_cycles, c, seed))
        .collect();
    let window = Instant::now();
    let per_connection = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&requests)
            .map(|(client, requests)| scope.spawn(|| drive(client, data.name, requests)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let window_s = window.elapsed().as_secs_f64();
    let mut samples = Samples::default();
    let mut results = Vec::new();
    for driven in per_connection {
        tally.absorb(driven.tally);
        samples.absorb(driven.samples);
        verdicts.extend(driven.verdicts);
        results.push(driven.results);
    }
    let counters = server_counters(&mut clients[0], &mut tally, data.name)?;
    let peak = server.peak_rss_mb()?;
    drop(clients);
    server.shutdown()?;

    let expected = inprocess_verdicts(&data, &[inputs::WARM_ANON])?;
    gate_verdicts(&verdicts, &expected)?;
    let metrics = end_to_end(&samples, window_s, &setup_s, peak, sizes.quick)?;

    let wire = Wire {
        register: &registered,
        requests: &requests[0],
        results: &results[0],
        anonymize_p50_ms: metrics.0["anonymize_p50_ms"],
        counters,
    };
    let (spans, per_layer) = match replay {
        true => replay_reads(&data, Some(&anonymize), sizes.replay, &wire, &expected)?,
        false => Default::default(),
    };
    Ok(Measured {
        result: result("warm-mixed", &tally, metrics, per_layer),
        spans,
    })
}

fn live_updates(env: &Env, seed: u64, sizes: &Sizes, replay: bool) -> Result<Measured, String> {
    let live = inputs::live_inputs(seed, sizes.live_rows, sizes.live_updates);
    let data = &live.dataset;
    let updates = live.updates.len();
    let state_dir = env.work.join("live-state");
    let mut tally = Tally::default();

    // Boot (untimed): register, then the two watches run their baselines.
    let server = ServerProc::spawn(&env.server, &env.work, "live", Some(&state_dir))?;
    let mut writer = server.connect()?;
    let mut reader = server.connect()?;
    let registered = tally.call_ok(&mut writer, "register", data.register_params())?;
    let mut watched = Vec::new();
    for anon in inputs::LIVE_WATCHES {
        watched.push(tally.call_ok(&mut writer, "watch", anon.params(data.name))?);
    }

    // Connection A streams the script while connection B sends its fixed
    // number of warm reads.
    let read = Req::Anonymize {
        anon: inputs::LIVE_WATCHES[0],
        no_cache: false,
        threads: 0,
    };
    let reads = vec![read.clone(); sizes.live_reads];
    let window = Instant::now();
    let (writes, reads) = std::thread::scope(|scope| {
        let a = scope.spawn(|| drive(&mut writer, data.name, &live.updates));
        let b = scope.spawn(|| drive(&mut reader, data.name, &reads));
        (
            a.join().expect("writer thread panicked"),
            b.join().expect("reader thread panicked"),
        )
    });
    let window_s = window.elapsed().as_secs_f64();
    let (writes, reads) = (writes?, reads?);
    for (i, result) in writes.results.iter().enumerate() {
        let Some(result) = result else { continue };
        let applied = result.get("deltas_applied").and_then(|v| v.as_u64().ok());
        let errors = result
            .get("watches")
            .and_then(|w| w.get("errors"))
            .and_then(|e| e.as_array().ok())
            .map_or(0, <[JsonValue]>::len);
        if applied != Some(i as u64 + 1) || errors > 0 {
            return Err(format!(
                "update {i}: deltas_applied {applied:?}, {errors} watch error(s)"
            ));
        }
    }
    let mut samples = Samples::default();
    tally.absorb(writes.tally);
    tally.absorb(reads.tally);
    samples.absorb(writes.samples);
    samples.absorb(reads.samples);
    let (shed, hit_ratio) = server_counters(&mut writer, &mut tally, data.name)?;
    let peak = server.peak_rss_mb()?;
    let journal_bytes = std::fs::metadata(state_dir.join("registry.journal"))
        .map_err(|e| format!("journal: {e}"))?
        .len();
    drop((writer, reader));
    server.kill9()?;

    // Set-up here is crash recovery: spawn over the journal until `stats`
    // shows every delta re-applied, after a kill -9 each time.
    let mut setup_s = Vec::new();
    let mut recovered = None;
    for i in 0..sizes.setups {
        let start = Instant::now();
        let server = ServerProc::spawn(
            &env.server,
            &env.work,
            &format!("live-restart-{i}"),
            Some(&state_dir),
        )?;
        let mut client = server.connect()?;
        let stats = tally.call_ok(&mut client, "stats", JsonValue::object())?;
        setup_s.push(start.elapsed().as_secs_f64());
        let applied = dataset_stats(&stats, data.name)?
            .require("deltas_applied")
            .and_then(JsonValue::as_u64)
            .map_err(|e| e.to_string())?;
        if applied != updates as u64 {
            return Err(format!(
                "restart {i}: deltas_applied {applied}, expected {updates}"
            ));
        }
        match i + 1 == sizes.setups {
            true => recovered = Some((server, client)),
            false => {
                drop(client);
                server.kill9()?;
            }
        }
    }
    let (server, mut client) = recovered.ok_or("at least one restart is required")?;

    // Gate: the recovered server ends where a fresh server registered with
    // the script's final table starts — same verdicts, same table.
    let final_data = Dataset {
        name: data.name,
        csv: to_csv_string(&live.final_table, true),
        spec: data.spec.clone(),
    };
    let expected = inprocess_verdicts(&final_data, &inputs::LIVE_WATCHES)?;
    let mut final_verdicts = Vec::new();
    for anon in inputs::LIVE_WATCHES {
        let req = Req::Anonymize {
            anon,
            no_cache: true,
            threads: 0,
        };
        let result = tally.call_ok(&mut client, "anonymize", req.params(data.name))?;
        final_verdicts.push((anon, verdict_text(&result)?));
    }
    gate_verdicts(&final_verdicts, &expected)?;
    drop(client);
    server.shutdown()?;
    let journal = Registry::with_state(
        Some(Arc::new(
            StateDir::open(&state_dir).map_err(|e| e.to_string())?,
        )),
        0,
    );
    let report = journal.recover();
    let table = journal
        .get(data.name)
        .ok_or("the journal lost the dataset")?
        .table();
    if !report.warnings.is_empty() || to_csv_string(&table, true) != final_data.csv {
        return Err(format!(
            "recovered table differs from the script's final table (warnings: {:?})",
            report.warnings
        ));
    }
    let metrics = end_to_end(&samples, window_s, &setup_s, peak, sizes.quick)?;

    let mut spans = Vec::new();
    let mut per_layer = BTreeMap::new();
    if replay {
        // Updates change state, so each side replays on its own state dir:
        // untraced first, then traced. The replayed results must equal the
        // wire's (updates, watches) or match their shape (reads, which ran
        // against whatever version of the table the writer had reached).
        let prefix = sizes.replay.min(updates);
        let wire_read = reads
            .results
            .iter()
            .flatten()
            .next()
            .ok_or("no warm read succeeded")?;
        let (traced_tracer, plain_tracer) = (Tracer::new(true), Tracer::new(false));
        let (mut traced, mut plain) = (Replay::new(&traced_tracer), Replay::new(&plain_tracer));
        let mut pool_bytes = 0;
        for (side, r) in [("plain", &mut plain), ("traced", &mut traced)] {
            let dir = env.work.join(format!("replay-{side}"));
            let state = Arc::new(StateDir::open(&dir).map_err(|e| e.to_string())?);
            let registry = Registry::with_state(Some(Arc::clone(&state)), 0);
            let (dataset, result) =
                r.register(&registry, &frame(0, "register", data.register_params()))?;
            gate_response("register", &result, &registered, true)?;
            let mut watches: Vec<Watch> = inputs::LIVE_WATCHES
                .iter()
                .map(|&anon| Watch { anon, last: None })
                .collect();
            for (watch, sent) in watches.iter_mut().zip(&watched) {
                let bytes = frame(0, "watch", watch.anon.params(data.name));
                let result = r.watch(&registry, &dataset, &bytes, watch)?;
                gate_response("watch", &result, sent, true)?;
            }
            for (i, update) in live.updates[..prefix].iter().enumerate() {
                let bytes = frame(i as i64 + 1, "update", update.params(data.name));
                let result = r.update(&registry, &dataset, &state, &bytes, &mut watches)?;
                if let Some(sent) = &writes.results[i] {
                    gate_response("update", &result, sent, true)?;
                }
                let bytes = frame(i as i64 + 1, "anonymize", read.params(data.name));
                let result = r.anonymize(
                    &registry,
                    &dataset,
                    &bytes,
                    inputs::LIVE_WATCHES[0],
                    false,
                    0,
                )?;
                gate_response("anonymize", &result, wire_read, false)?;
            }
            pool_bytes = registry.pool_bytes();
            let rebuilt = r.recover(&dir)?;
            let back = rebuilt
                .get(data.name)
                .ok_or("replayed recovery lost the dataset")?;
            if to_csv_string(&back.table(), true) != to_csv_string(&dataset.table(), true) {
                return Err("replayed recovery rebuilt a different table".into());
            }
        }
        spans = traced_tracer.take();
        per_layer = finish_layers(
            &spans,
            &traced,
            &plain,
            "op.anonymize",
            metrics.0["anonymize_p50_ms"],
        );
        per_layer.insert("server.shed_total".into(), shed);
        per_layer.insert("registry.pool_hit_ratio".into(), hit_ratio);
        per_layer.insert("state.journal_bytes".into(), journal_bytes as f64);
        per_layer.insert("verdict.pool_bytes".into(), pool_bytes as f64);
    }
    Ok(Measured {
        result: result("live-updates", &tally, metrics, per_layer),
        spans,
    })
}

/// One timed `psens` run: wall time from spawn to reap, milliseconds.
fn timed_cli(
    bin: &Path,
    args: &[&str],
    tally: &mut Tally,
) -> Result<(f64, crate::sys::Exit), String> {
    tally.attempted += 1;
    let start = Instant::now();
    let exit = run_once(bin, args)?;
    Ok((ms(start.elapsed()), exit))
}

fn cli_batch(env: &Env, seed: u64, sizes: &Sizes, replay: bool) -> Result<Measured, String> {
    let (spec, input, release) = (
        env.work.join("scale.json"),
        env.work.join("input.csv"),
        env.work.join("release.csv"),
    );
    let utf8 = |p: &Path| {
        p.to_str()
            .map(str::to_owned)
            .ok_or_else(|| format!("{} is not UTF-8", p.display()))
    };
    let (spec_s, input_s, release_s) = (utf8(&spec)?, utf8(&input)?, utf8(&release)?);
    let (rows, seed_s) = (sizes.cli_rows.to_string(), seed.to_string());
    let anon = inputs::CLI_ANON;
    let (k, p, ts, threads) = (
        anon.k.to_string(),
        anon.model.param().to_string(),
        anon.ts.to_string(),
        inputs::CLI_THREADS.to_string(),
    );
    let anonymize_args: [&str; 15] = [
        "anonymize",
        "--input",
        &input_s,
        "--spec",
        &spec_s,
        "--k",
        &k,
        "--p",
        &p,
        "--ts",
        &ts,
        "--threads",
        &threads,
        "--out",
        &release_s,
    ];
    let check_args: [&str; 9] = [
        "check", "--input", &input_s, "--spec", &spec_s, "--k", &k, "--p", &p,
    ];
    let spec_args: [&str; 5] = ["spec", "--profile", "scale", "--out", &spec_s];
    let generate_args: [&str; 9] = [
        "generate",
        "--profile",
        "scale",
        "--rows",
        &rows,
        "--seed",
        &seed_s,
        "--out",
        &input_s,
    ];
    let mut tally = Tally::default();

    // Set-up: the publisher generates its input with the CLI, then runs
    // anonymize and check once on the fresh file (cold page cache); the
    // timed runs start warm.
    let mut setup_s = Vec::new();
    let mut input_bytes: Option<Vec<u8>> = None;
    for _ in 0..sizes.setups {
        let start = Instant::now();
        for args in [&spec_args[..], &generate_args[..]] {
            let (_, exit) = timed_cli(&env.psens, args, &mut tally)?;
            if exit.code != Some(0) {
                return Err(format!("`psens {}` exited with {:?}", args[0], exit.code));
            }
        }
        timed_cli(&env.psens, &anonymize_args, &mut tally)?;
        timed_cli(&env.psens, &check_args, &mut tally)?;
        setup_s.push(start.elapsed().as_secs_f64());
        let bytes = std::fs::read(&input).map_err(|e| e.to_string())?;
        if input_bytes.get_or_insert_with(|| bytes.clone()) != &bytes {
            return Err("`psens generate` wrote different inputs for one seed".into());
        }
    }

    let mut samples = Samples::default();
    let mut rss = Vec::new();
    let mut first_release: Option<Vec<u8>> = None;
    let mut check_code = None;
    let window = Instant::now();
    for _ in 0..sizes.cli_runs {
        let (elapsed, exit) = timed_cli(&env.psens, &anonymize_args, &mut tally)?;
        if exit.code != Some(0) {
            tally.failed += 1;
            continue;
        }
        samples.anonymize.push(elapsed);
        rss.push(exit.max_rss_mb);
        let bytes = std::fs::read(&release).map_err(|e| e.to_string())?;
        if first_release.get_or_insert_with(|| bytes.clone()) != &bytes {
            return Err("two `psens anonymize` runs wrote different releases".into());
        }
        let (elapsed, exit) = timed_cli(&env.psens, &check_args, &mut tally)?;
        if !matches!(exit.code, Some(0 | 2)) {
            tally.failed += 1;
            continue;
        }
        if *check_code.get_or_insert(exit.code) != exit.code {
            return Err("`psens check` changed its exit code between runs".into());
        }
        samples.other.push(elapsed);
    }
    let window_s = window.elapsed().as_secs_f64();
    let first_release = first_release.ok_or("no `psens anonymize` run succeeded")?;
    let peak = if rss.is_empty() {
        0.0
    } else {
        stats::median(&rss)
    };

    // Gate: the release equals the in-process search's, rendered as CSV.
    let gate_tracer = Tracer::new(false);
    let masked = Replay::new(&gate_tracer).cli_anonymize(
        &spec,
        &input,
        &env.work.join("gate.csv"),
        anon,
        inputs::CLI_THREADS,
    )?;
    if to_csv_string(&masked, true).as_bytes() != first_release.as_slice() {
        return Err("the CLI release differs from the in-process release".into());
    }
    let metrics = end_to_end(&samples, window_s, &setup_s, peak, sizes.quick)?;

    let mut spans = Vec::new();
    let mut per_layer = BTreeMap::new();
    if replay {
        let (traced_tracer, plain_tracer) = (Tracer::new(true), Tracer::new(false));
        let (mut traced, mut plain) = (Replay::new(&traced_tracer), Replay::new(&plain_tracer));
        let out = env.work.join("replay.csv");
        let (p, k) = (anon.model.conditions_p(), anon.k);
        // Each iteration replays two requests: an anonymize and a check.
        for i in 0..(sizes.replay / 2).min(sizes.cli_runs) {
            let (first, second) = match i % 2 {
                0 => (&mut plain, &mut traced),
                _ => (&mut traced, &mut plain),
            };
            for r in [first, second] {
                r.cli_anonymize(&spec, &input, &out, anon, inputs::CLI_THREADS)?;
                r.cli_check(&spec, &input, p, k)?;
            }
        }
        spans = traced_tracer.take();
        per_layer = finish_layers(
            &spans,
            &traced,
            &plain,
            "cli.anonymize",
            metrics.0["anonymize_p50_ms"],
        );
    }
    Ok(Measured {
        result: result("cli-batch", &tally, metrics, per_layer),
        spans,
    })
}
