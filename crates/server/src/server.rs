//! The daemon: a TCP accept loop, per-connection handler threads, a bounded
//! admission gate with explicit load-shedding, per-request cancellation,
//! deterministic fault injection, and crash-recoverable state.
//!
//! ## Cancellation topology
//!
//! Every request gets its own [`CancelToken`] created as a *child* of the
//! server's shutdown token ([`CancelToken::child`]). Tripping the server
//! token (SIGINT, `shutdown` op) fans out to every in-flight request;
//! tripping one request's token — which is what the connection watcher does
//! when that request's client goes away — cannot leak into any other
//! request. The CLI's cancellation hook is a process-global one-shot SIGINT
//! token; reusing it for disconnects would make one client's hangup abort
//! every concurrent search, which the
//! `disconnect_cancels_only_its_own_request` test pins against.
//!
//! ## Admission and overload
//!
//! Work ops (`register`, `check`, `analyze`, `anonymize`, `query`,
//! `update`, `watch`, `sleep`) pass through a counting [`Gate`] before
//! executing. The queue behind the
//! gate is **bounded** (`queue_depth`): a request arriving to a full queue
//! is shed immediately with a `busy` error carrying `retry_after_ms`,
//! instead of blocking unboundedly — under overload the server stays
//! responsive and honest rather than building an invisible backlog. Queued
//! requests poll their cancel token, so a dead client releases its queue
//! slot promptly. Per-connection read timeouts (idle and stall) reap
//! silent and slow-loris connections; `anonymize` deadlines are measured
//! from request *arrival*, so time spent queued counts against the budget
//! and no request outlives its deadline just because the server was busy.
//!
//! ## Degradation is fail-closed
//!
//! Every degraded path — shed, reaped, evicted, panicked, recovering —
//! either answers with an error or closes the connection. None of them
//! alters a verdict: verdicts stay a pure function of
//! `(dataset, model, k, ts)`, which the differential oracle and the chaos
//! harness assert byte-for-byte under injected faults.

use crate::fault::{Action, FaultPlan, Site};
use crate::protocol::{
    busy_response, codes, error_response, ok_response, read_request, write_frame, FrameLimits,
    ReadOutcome, MAX_FRAME_BYTES,
};
use crate::registry::{parse_cells, RecoveryStats, Registry};
use crate::state::{SnapshotStats, StateDir};
use psens_algorithms::samarati::{pk_minimal_generalization, SearchOutcome};
use psens_algorithms::{SearchRequest, Tuning};
use psens_core::{
    check_p_sensitivity, check_table_model, max_k, max_p_of_masked, CancelToken, ModelSpec,
    NoopObserver, SearchBudget,
};
use psens_datasets::Spec;
use psens_hierarchy::QiSpace;
use psens_metrics::{attribute_risk, identity_risk};
use psens_microdata::csv::to_csv_string;
use psens_microdata::{DeltaBatch, JsonValue};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Poll period for the shared per-connection read timeout. `SO_RCVTIMEO`
/// is a property of the socket, not of an fd clone, so the frame reader and
/// the connection watcher share this value; it bounds both
/// disconnect-detection lag and shutdown latency for idle connections.
const POLL: Duration = Duration::from_millis(20);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Maximum work ops executing at once; further requests queue at the
    /// admission gate. `0` is treated as `1`.
    pub max_concurrent: usize,
    /// Maximum requests waiting at the gate before new arrivals are shed
    /// with `busy`. `0` sheds immediately once all slots are taken.
    pub queue_depth: usize,
    /// Request frames larger than this are refused with `frame_too_large`
    /// (the connection survives).
    pub max_frame_bytes: u32,
    /// Reap a connection that sends nothing for this long. `0` disables
    /// idle reaping (the default: idle keep-alive connections are legal).
    pub idle_timeout_ms: u64,
    /// Reap a connection whose frame stalls mid-transfer (slow-loris) for
    /// this long. `0` disables stall reaping.
    pub stall_timeout_ms: u64,
    /// Bound on blocking response writes; a client that stops draining its
    /// socket forfeits the connection. `0` disables.
    pub write_timeout_ms: u64,
    /// Combined warm-pool byte budget; least-recently-used pools are
    /// evicted above it. `0` disables eviction.
    pub max_pool_bytes: u64,
    /// Directory for the write-ahead registry journal and verdict
    /// snapshot; `None` runs fully in-memory.
    pub state_dir: Option<PathBuf>,
    /// Allows the test-only `inject` op (and a boot-time fault plan).
    /// Never enable in production.
    pub enable_inject: bool,
    /// Fault plan JSON installed at boot (requires `enable_inject`).
    pub fault_plan: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            listen: "127.0.0.1:0".to_owned(),
            max_concurrent: 2,
            queue_depth: 32,
            max_frame_bytes: MAX_FRAME_BYTES,
            idle_timeout_ms: 0,
            stall_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            max_pool_bytes: 0,
            state_dir: None,
            enable_inject: false,
            fault_plan: None,
        }
    }
}

struct GateInner {
    permits: usize,
    waiting: usize,
}

/// Counting semaphore bounding concurrent work-op executions, with a
/// bounded wait queue.
struct Gate {
    inner: Mutex<GateInner>,
    cv: Condvar,
    max_permits: usize,
    queue_depth: usize,
}

/// Holds one admission permit; released (and the queue notified) on drop.
struct GatePermit<'a> {
    gate: &'a Gate,
}

/// Outcome of asking the gate for a slot.
enum Admission<'a> {
    /// Admitted; run the op.
    Permit(GatePermit<'a>),
    /// Queue full; shed with `busy`. Carries the queue length observed.
    Busy { waiting: usize },
    /// The request was cancelled (disconnect / shutdown) while queued.
    Cancelled,
}

impl Gate {
    fn new(permits: usize, queue_depth: usize) -> Gate {
        let max_permits = permits.max(1);
        Gate {
            inner: Mutex::new(GateInner {
                permits: max_permits,
                waiting: 0,
            }),
            cv: Condvar::new(),
            max_permits,
            queue_depth,
        }
    }

    /// Takes a permit, queues within the depth bound, or sheds.
    fn acquire(&self, cancel: &CancelToken) -> Admission<'_> {
        let mut inner = self.inner.lock().expect("gate poisoned");
        if inner.permits > 0 {
            inner.permits -= 1;
            return Admission::Permit(GatePermit { gate: self });
        }
        if inner.waiting >= self.queue_depth {
            return Admission::Busy {
                waiting: inner.waiting,
            };
        }
        inner.waiting += 1;
        loop {
            if cancel.is_cancelled() {
                inner.waiting -= 1;
                return Admission::Cancelled;
            }
            if inner.permits > 0 {
                inner.permits -= 1;
                inner.waiting -= 1;
                return Admission::Permit(GatePermit { gate: self });
            }
            let (guard, _) = self.cv.wait_timeout(inner, POLL).expect("gate poisoned");
            inner = guard;
        }
    }

    /// `(executing, queued)` — a point-in-time load sample for `health`.
    fn load(&self) -> (usize, usize) {
        let inner = self.inner.lock().expect("gate poisoned");
        (self.max_permits - inner.permits, inner.waiting)
    }
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        self.gate.inner.lock().expect("gate poisoned").permits += 1;
        self.gate.cv.notify_one();
    }
}

struct WatchShared {
    /// Token of the request currently executing on this connection, if any.
    active: Mutex<Option<CancelToken>>,
    /// Set once the peer is observed gone; sticky for the connection.
    dead: AtomicBool,
    stop: AtomicBool,
}

/// One watcher thread per **connection** (not per request — the previous
/// per-request spawn is the ROADMAP item this replaces): it peeks the
/// socket on the shared poll timeout and, when the peer goes away, cancels
/// whichever request is active at that moment. Requests hand their token in
/// and out through the RAII [`ActiveRequest`] guard.
struct ConnWatch {
    shared: Arc<WatchShared>,
    handle: Option<JoinHandle<()>>,
}

/// Marks a request as the connection's active one for its execution span.
struct ActiveRequest<'a> {
    shared: &'a WatchShared,
}

impl ConnWatch {
    fn spawn(stream: &TcpStream) -> io::Result<ConnWatch> {
        let peek = stream.try_clone()?;
        let shared = Arc::new(WatchShared {
            active: Mutex::new(None),
            dead: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = thread::spawn(move || {
            let mut buf = [0u8; 1];
            while !thread_shared.stop.load(Ordering::Acquire) {
                match peek.peek(&mut buf) {
                    // EOF: the client closed its end.
                    Ok(0) => {
                        thread_shared.dead.store(true, Ordering::Release);
                        if let Some(token) =
                            thread_shared.active.lock().expect("watch poisoned").take()
                        {
                            token.cancel();
                        }
                        return;
                    }
                    // Bytes waiting (a pipelined request): client is alive;
                    // back off so the poll doesn't spin while data sits.
                    Ok(_) => thread::sleep(POLL),
                    // The shared SO_RCVTIMEO poll tick.
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut => {}
                    Err(_) => {
                        thread_shared.dead.store(true, Ordering::Release);
                        if let Some(token) =
                            thread_shared.active.lock().expect("watch poisoned").take()
                        {
                            token.cancel();
                        }
                        return;
                    }
                }
            }
        });
        Ok(ConnWatch {
            shared,
            handle: Some(handle),
        })
    }

    fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::Acquire)
    }

    /// Registers `token` as the connection's active request. If the peer is
    /// already known dead the token is cancelled on the spot, so a doomed
    /// request never starts real work.
    fn activate(&self, token: CancelToken) -> ActiveRequest<'_> {
        if self.is_dead() {
            token.cancel();
        }
        *self.shared.active.lock().expect("watch poisoned") = Some(token);
        ActiveRequest {
            shared: &self.shared,
        }
    }
}

impl Drop for ActiveRequest<'_> {
    fn drop(&mut self) {
        self.shared.active.lock().expect("watch poisoned").take();
    }
}

impl Drop for ConnWatch {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// State shared by the acceptor and every connection handler.
pub struct ServerState {
    /// The dataset registry.
    pub registry: Registry,
    gate: Gate,
    shutdown: CancelToken,
    addr: SocketAddr,
    started: Instant,
    config: ServerConfig,
    recovery: RecoveryStats,
    faults: Mutex<Option<FaultPlan>>,
    requests_served: AtomicU64,
    shed_total: AtomicU64,
    idle_reaped: AtomicU64,
    stall_reaped: AtomicU64,
    frames_too_large: AtomicU64,
    malformed_frames: AtomicU64,
    worker_panics: AtomicU64,
}

impl ServerState {
    /// Consults the fault plan, if any. A server without an installed plan
    /// pays one mutex lock and a `None` check per site.
    fn fault(&self, site: Site, op: &str) -> Option<Action> {
        let mut faults = self.faults.lock().expect("fault plan poisoned");
        faults.as_mut().and_then(|plan| plan.decide(site, op))
    }
}

/// A running server: bound address plus the handle to stop and join it.
pub struct ServerHandle {
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The server's shutdown token; `cancel()` initiates shutdown exactly
    /// like SIGINT or the `shutdown` op.
    pub fn shutdown_token(&self) -> CancelToken {
        self.state.shutdown.clone()
    }

    /// What boot-time recovery reconstructed (empty without `--state-dir`).
    pub fn recovery(&self) -> &RecoveryStats {
        &self.state.recovery
    }

    /// Trips the shutdown token, wakes the acceptor, joins it, and — on the
    /// first call, with a state dir configured — writes the verdict
    /// snapshot. Requests already executing observe the cancellation
    /// through their child tokens and finish as interrupted.
    pub fn shutdown(&mut self) -> Option<SnapshotStats> {
        self.state.shutdown.cancel();
        wake_acceptor(self.state.addr);
        match self.acceptor.take() {
            Some(handle) => {
                let _ = handle.join();
                self.state.registry.write_snapshot()
            }
            None => None,
        }
    }

    /// Total requests served so far (all ops, success or failure).
    pub fn requests_served(&self) -> u64 {
        self.state.requests_served.load(Ordering::Relaxed)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The acceptor blocks in `accept`; a throwaway connection wakes it so it
/// can observe the tripped shutdown token and exit.
fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
}

/// Binds `config.listen`, replays any `--state-dir` journal + snapshot, and
/// starts the accept loop on a background thread.
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.listen)?;
    let addr = listener.local_addr()?;
    let state_dir = match &config.state_dir {
        Some(dir) => Some(Arc::new(StateDir::open(dir)?)),
        None => None,
    };
    let registry = Registry::with_state(state_dir, config.max_pool_bytes);
    let recovery = registry.recover();
    let faults = match (&config.fault_plan, config.enable_inject) {
        (Some(plan), true) => Some(
            FaultPlan::from_json_text(plan)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?,
        ),
        (Some(_), false) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a boot fault plan requires fault injection to be enabled",
            ));
        }
        (None, _) => None,
    };
    let state = Arc::new(ServerState {
        registry,
        gate: Gate::new(config.max_concurrent, config.queue_depth),
        shutdown: CancelToken::new(),
        addr,
        started: Instant::now(),
        recovery,
        faults: Mutex::new(faults),
        config,
        requests_served: AtomicU64::new(0),
        shed_total: AtomicU64::new(0),
        idle_reaped: AtomicU64::new(0),
        stall_reaped: AtomicU64::new(0),
        frames_too_large: AtomicU64::new(0),
        malformed_frames: AtomicU64::new(0),
        worker_panics: AtomicU64::new(0),
    });
    let accept_state = Arc::clone(&state);
    let acceptor = thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_state.shutdown.is_cancelled() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let conn_state = Arc::clone(&accept_state);
            thread::spawn(move || handle_connection(&conn_state, stream));
        }
    });
    Ok(ServerHandle {
        state,
        acceptor: Some(acceptor),
    })
}

/// Reads frames off one connection and answers them in order. Returns when
/// the client closes, framing is lost, a timeout reaps the connection, or
/// the server shuts down — every exit either answered the last request or
/// closed the socket, never leaving a client waiting on a frame that will
/// not come.
fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    // Responses are one small frame per request; letting Nagle hold them
    // for the delayed-ACK timer adds ~40ms to every round trip.
    let _ = stream.set_nodelay(true);
    // One poll-interval read timeout for the connection's lifetime, shared
    // by the frame reader and the watcher (SO_RCVTIMEO is per-socket, not
    // per-clone). The reader treats the resulting WouldBlock/TimedOut as
    // "check deadlines and shutdown, then keep reading".
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    if state.config.write_timeout_ms > 0 {
        let _ =
            stream.set_write_timeout(Some(Duration::from_millis(state.config.write_timeout_ms)));
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // A failed watcher spawn just means no disconnect detection; requests
    // still honor deadlines and server shutdown.
    let watch = ConnWatch::spawn(&stream).ok();
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(&stream);
    let ms = |n: u64| (n > 0).then(|| Duration::from_millis(n));
    let limits = FrameLimits {
        max_frame_bytes: state.config.max_frame_bytes,
        idle_timeout: ms(state.config.idle_timeout_ms),
        stall_timeout: ms(state.config.stall_timeout_ms),
    };
    loop {
        let mut should_stop = || {
            state.shutdown.is_cancelled() || watch.as_ref().map(ConnWatch::is_dead).unwrap_or(false)
        };
        let (request, arrival) = match read_request(&mut reader, &limits, &mut should_stop) {
            ReadOutcome::Frame(request) => (request, Instant::now()),
            ReadOutcome::Closed | ReadOutcome::Stopped => return,
            ReadOutcome::IdleTimedOut => {
                state.idle_reaped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            ReadOutcome::Stalled => {
                state.stall_reaped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            ReadOutcome::TooLarge(len) => {
                state.frames_too_large.fetch_add(1, Ordering::Relaxed);
                state.requests_served.fetch_add(1, Ordering::Relaxed);
                let response = error_response(
                    0,
                    codes::FRAME_TOO_LARGE,
                    &format!(
                        "frame of {len} bytes exceeds the {}-byte limit",
                        state.config.max_frame_bytes
                    ),
                );
                if write_frame(&mut writer, &response).is_err() {
                    return;
                }
                continue;
            }
            ReadOutcome::Malformed { message, resynced } => {
                state.malformed_frames.fetch_add(1, Ordering::Relaxed);
                if !resynced {
                    return;
                }
                state.requests_served.fetch_add(1, Ordering::Relaxed);
                let response = error_response(0, codes::BAD_REQUEST, &message);
                if write_frame(&mut writer, &response).is_err() {
                    return;
                }
                continue;
            }
            ReadOutcome::Failed(_) => return,
        };
        let id = request.get("id").and_then(|v| v.as_i64().ok()).unwrap_or(0);
        let op = request
            .get("op")
            .and_then(|v| v.as_str().ok())
            .unwrap_or("")
            .to_owned();
        // Pre-dispatch faults: a delay stalls the request before admission;
        // anything else kills the connection before an answer exists —
        // exactly what a crash between read and dispatch looks like.
        match state.fault(Site::PreDispatch, &op) {
            Some(Action::DelayMs(delay)) => thread::sleep(Duration::from_millis(delay)),
            Some(_) => return,
            None => {}
        }
        let response = dispatch(state, id, &request, arrival, watch.as_ref());
        state.requests_served.fetch_add(1, Ordering::Relaxed);
        // Write-response faults: drop closes without answering, truncate
        // tears the frame mid-payload, delay stalls the write.
        match state.fault(Site::WriteResponse, &op) {
            Some(Action::Drop) | Some(Action::Panic) => return,
            Some(Action::Truncate) => {
                let payload = response.to_json();
                let bytes = payload.as_bytes();
                let _ = writer.write_all(&(bytes.len() as u32).to_be_bytes());
                let _ = writer.write_all(&bytes[..bytes.len() / 2]);
                let _ = writer.flush();
                return;
            }
            Some(Action::DelayMs(delay)) => thread::sleep(Duration::from_millis(delay)),
            None => {}
        }
        if write_frame(&mut writer, &response).is_err() {
            return;
        }
        // The shutdown op answers its own request, then closes.
        if op == "shutdown" {
            return;
        }
    }
}

/// Routes one request to its op handler, wrapping admission, per-request
/// cancellation, and worker-panic containment around the work ops.
fn dispatch(
    state: &Arc<ServerState>,
    id: i64,
    request: &JsonValue,
    arrival: Instant,
    watch: Option<&ConnWatch>,
) -> JsonValue {
    let op = match request.get("op").and_then(|v| v.as_str().ok()) {
        Some(op) => op,
        None => return error_response(id, codes::BAD_REQUEST, "missing `op`"),
    };
    match op {
        "stats" => ok_response(id, stats_op(state)),
        "health" => ok_response(id, health_op(state)),
        "inject" => match inject_op(state, request) {
            Ok(result) => ok_response(id, result),
            Err((code, message)) => error_response(id, code, &message),
        },
        "shutdown" => {
            state.shutdown.cancel();
            wake_acceptor(state.addr);
            let mut result = JsonValue::object();
            result.set("stopping", JsonValue::Bool(true));
            ok_response(id, result)
        }
        "register" | "check" | "analyze" | "anonymize" | "query" | "update" | "watch" | "sleep" => {
            if state.shutdown.is_cancelled() {
                return error_response(id, codes::SHUTTING_DOWN, "server is shutting down");
            }
            // Per-request token: observes server shutdown through the parent
            // link; tripped individually by this connection's watcher when
            // the client goes away mid-request.
            let token = state.shutdown.child();
            let _active = watch.map(|w| w.activate(token.clone()));
            match state.gate.acquire(&token) {
                Admission::Cancelled => error_response(
                    id,
                    codes::INTERRUPTED,
                    "request cancelled while queued for admission",
                ),
                Admission::Busy { waiting } => {
                    state.shed_total.fetch_add(1, Ordering::Relaxed);
                    // Scale the hint with observed queue length so a deep
                    // backlog spreads retries further apart.
                    let hint = (20 * (waiting as u64 + 1)).min(500);
                    busy_response(id, hint)
                }
                Admission::Permit(_permit) => {
                    let exec_fault = state.fault(Site::Exec, op);
                    if let Some(Action::DelayMs(delay)) = exec_fault {
                        // A slow dataset: the op holds its admission slot
                        // while the delay runs, exactly like a real stall.
                        thread::sleep(Duration::from_millis(delay));
                    }
                    let inject_panic = matches!(exec_fault, Some(Action::Panic));
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        if inject_panic {
                            panic!("injected worker panic (exec site, op `{op}`)");
                        }
                        match op {
                            "register" => register_op(state, request),
                            "check" => check_op(state, request),
                            "analyze" => analyze_op(state, request),
                            "anonymize" => anonymize_op(state, request, &token, arrival),
                            "query" => query_op(state, request),
                            "update" => update_op(state, request, &token),
                            "watch" => watch_op(state, request, &token),
                            "sleep" => sleep_op(request, &token),
                            _ => unreachable!("matched above"),
                        }
                    }));
                    let outcome = match outcome {
                        Ok(outcome) => outcome,
                        Err(_) => {
                            // The worker died; the connection, its permit,
                            // and every other request are unaffected. The
                            // client gets a definite error, not a hang.
                            state.worker_panics.fetch_add(1, Ordering::Relaxed);
                            Err((
                                codes::INTERNAL,
                                "worker panicked; request aborted (contained)".to_owned(),
                            ))
                        }
                    };
                    match outcome {
                        Ok(result) => ok_response(id, result),
                        Err((code, message)) => error_response(id, code, &message),
                    }
                }
            }
        }
        other => error_response(id, codes::BAD_REQUEST, &format!("unknown op `{other}`")),
    }
}

type OpResult = Result<JsonValue, (&'static str, String)>;

fn bad(message: impl Into<String>) -> (&'static str, String) {
    (codes::BAD_REQUEST, message.into())
}

fn param_str<'a>(request: &'a JsonValue, key: &str) -> Result<&'a str, (&'static str, String)> {
    request
        .get(key)
        .ok_or_else(|| bad(format!("missing `{key}`")))?
        .as_str()
        .map_err(|e| bad(format!("`{key}`: {e}")))
}

fn param_u32(request: &JsonValue, key: &str, default: u32) -> Result<u32, (&'static str, String)> {
    match request.get(key) {
        None => Ok(default),
        Some(value) => value
            .as_u64()
            .ok()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| bad(format!("`{key}` must be a u32"))),
    }
}

fn param_usize(
    request: &JsonValue,
    key: &str,
    default: usize,
) -> Result<usize, (&'static str, String)> {
    match request.get(key) {
        None => Ok(default),
        Some(value) => value.as_usize().map_err(|e| bad(format!("`{key}`: {e}"))),
    }
}

fn param_bool(
    request: &JsonValue,
    key: &str,
    default: bool,
) -> Result<bool, (&'static str, String)> {
    match request.get(key) {
        None => Ok(default),
        Some(value) => value.as_bool().map_err(|e| bad(format!("`{key}`: {e}"))),
    }
}

/// Parses the request's privacy model: optional `model` name (default
/// `psens-k`) plus its parameter — `p` for psens-k (default `default_p`,
/// which differs between ops for compatibility), `l` for the diversity
/// models, `t_ppm` (parts-per-million of t) for t-closeness.
fn param_model(request: &JsonValue, default_p: u32) -> Result<ModelSpec, (&'static str, String)> {
    let name = match request.get("model") {
        Some(value) => value.as_str().map_err(|e| bad(format!("`model`: {e}")))?,
        None => "psens-k",
    };
    match name {
        "psens-k" => Ok(ModelSpec::PSensitiveK {
            p: param_u32(request, "p", default_p)?,
        }),
        "distinct-l" => Ok(ModelSpec::DistinctL {
            l: param_u32(request, "l", 2)?,
        }),
        "entropy-l" => Ok(ModelSpec::EntropyL {
            l: param_u32(request, "l", 2)?,
        }),
        "t-closeness" => Ok(ModelSpec::TCloseness {
            t_ppm: param_u32(request, "t_ppm", 200_000)?,
        }),
        other => Err(bad(format!(
            "unknown privacy model `{other}` (expected psens-k, distinct-l, entropy-l, or t-closeness)"
        ))),
    }
}

fn lookup_dataset(
    state: &ServerState,
    request: &JsonValue,
) -> Result<Arc<crate::registry::Dataset>, (&'static str, String)> {
    let name = param_str(request, "dataset")?;
    state
        .registry
        .get(name)
        .ok_or((codes::NOT_FOUND, format!("no dataset `{name}`")))
}

fn recovered_json(recovery: &RecoveryStats) -> JsonValue {
    let mut out = JsonValue::object();
    out.set("datasets", JsonValue::Int(recovery.datasets as i64));
    out.set("pools", JsonValue::Int(recovery.pools as i64));
    out.set("deltas", JsonValue::Int(recovery.deltas as i64));
    out.set("verdicts", JsonValue::Int(recovery.verdicts as i64));
    out.set("warnings", JsonValue::Int(recovery.warnings.len() as i64));
    out
}

fn stats_op(state: &ServerState) -> JsonValue {
    let mut result = state.registry.to_json();
    result.set(
        "requests_served",
        JsonValue::Int(state.requests_served.load(Ordering::Relaxed) as i64),
    );
    result.set(
        "max_concurrent",
        JsonValue::Int(state.config.max_concurrent.max(1) as i64),
    );
    result.set("recovered", recovered_json(&state.recovery));
    result
}

/// `health {}`: load, shed, reap, eviction, and recovery counters — the
/// numbers an operator (or the chaos harness) needs to tell "degraded but
/// honest" from "wedged". Never gated: health must answer under overload.
fn health_op(state: &ServerState) -> JsonValue {
    let (executing, queued) = state.gate.load();
    let mut result = JsonValue::object();
    result.set(
        "uptime_ms",
        JsonValue::Int(state.started.elapsed().as_millis() as i64),
    );
    result.set(
        "max_concurrent",
        JsonValue::Int(state.config.max_concurrent.max(1) as i64),
    );
    result.set(
        "queue_depth",
        JsonValue::Int(state.config.queue_depth as i64),
    );
    result.set("executing", JsonValue::Int(executing as i64));
    result.set("queued", JsonValue::Int(queued as i64));
    let counter = |n: &AtomicU64| JsonValue::Int(n.load(Ordering::Relaxed) as i64);
    result.set("requests_served", counter(&state.requests_served));
    result.set("shed_total", counter(&state.shed_total));
    result.set("idle_reaped", counter(&state.idle_reaped));
    result.set("stall_reaped", counter(&state.stall_reaped));
    result.set("frames_too_large", counter(&state.frames_too_large));
    result.set("malformed_frames", counter(&state.malformed_frames));
    result.set("worker_panics", counter(&state.worker_panics));
    result.set(
        "pool_bytes",
        JsonValue::Int(state.registry.pool_bytes() as i64),
    );
    result.set(
        "pool_evictions",
        JsonValue::Int(state.registry.evictions() as i64),
    );
    result.set("recovered", recovered_json(&state.recovery));
    let faults = state.faults.lock().expect("fault plan poisoned");
    result.set(
        "faults",
        match faults.as_ref() {
            Some(plan) => plan.counters(),
            None => JsonValue::Null,
        },
    );
    result
}

/// `inject {plan}` / `inject {clear: true}`: installs or clears the fault
/// plan. Refused unless the server was started with injection enabled, so
/// a production deployment cannot be told to misbehave over the wire.
fn inject_op(state: &ServerState, request: &JsonValue) -> OpResult {
    if !state.config.enable_inject {
        return Err(bad(
            "fault injection is disabled (start the server with --enable-inject)",
        ));
    }
    let mut result = JsonValue::object();
    if param_bool(request, "clear", false)? {
        let mut faults = state.faults.lock().expect("fault plan poisoned");
        result.set("cleared", JsonValue::Bool(faults.is_some()));
        result.set(
            "counters",
            match faults.take() {
                Some(plan) => plan.counters(),
                None => JsonValue::Null,
            },
        );
        return Ok(result);
    }
    let plan_value = request
        .get("plan")
        .ok_or_else(|| bad("missing `plan` (or `clear`)"))?;
    let plan = FaultPlan::from_json(plan_value).map_err(bad)?;
    result.set("installed", JsonValue::Bool(true));
    result.set("rules", JsonValue::Int(plan.rule_count() as i64));
    *state.faults.lock().expect("fault plan poisoned") = Some(plan);
    Ok(result)
}

/// `register {name, csv, spec}`: parse once, serve many. `spec` is the same
/// JSON object the CLI's `--spec` file holds. With a state dir the
/// registration is journaled write-ahead before it takes effect.
fn register_op(state: &ServerState, request: &JsonValue) -> OpResult {
    let name = param_str(request, "name")?;
    let csv = param_str(request, "csv")?;
    let spec_value = request.get("spec").ok_or_else(|| bad("missing `spec`"))?;
    let spec = Spec::from_json(&spec_value.to_json()).map_err(bad)?;
    let dataset = state.registry.register(name, csv, spec).map_err(|e| {
        match e.contains("already registered") {
            true => (codes::CONFLICT, e),
            false => bad(e),
        }
    })?;
    let mut result = JsonValue::object();
    result.set("name", JsonValue::Str(dataset.name.clone()));
    result.set("rows", JsonValue::Int(dataset.n_rows() as i64));
    result.set(
        "lattice_nodes",
        JsonValue::Int(dataset.qi.lattice().node_count() as i64),
    );
    Ok(result)
}

/// `check {dataset, model?, p?/l?/t_ppm?, k?}`: the CLI `check` verdict on
/// the interned table. The default model, `psens-k`, keeps its original
/// response shape; every model also reports `model`/`param`.
fn check_op(state: &ServerState, request: &JsonValue) -> OpResult {
    let dataset = lookup_dataset(state, request)?;
    let k = param_u32(request, "k", 2)?;
    let spec = param_model(request, 2)?;
    let table = dataset.table();
    let schema = table.schema();
    let keys = schema.key_indices();
    let conf = schema.confidential_indices();
    let maxk = max_k(&table, &keys);
    let maxp = max_p_of_masked(&table, &keys, &conf);
    let mut result = JsonValue::object();
    result.set("rows", JsonValue::Int(table.n_rows() as i64));
    match spec {
        ModelSpec::PSensitiveK { p } => {
            let report = check_p_sensitivity(&table, &keys, &conf, p, k);
            result.set("n_groups", JsonValue::Int(report.n_groups as i64));
            result.set("k", JsonValue::Int(k as i64));
            result.set("p", JsonValue::Int(p as i64));
            result.set("k_anonymous", JsonValue::Bool(report.k_anonymous));
            result.set("max_k", JsonValue::Int(maxk as i64));
            result.set("max_p", JsonValue::Int(maxp as i64));
            result.set("p_sensitive", JsonValue::Bool(report.violations.is_empty()));
            result.set("violations", JsonValue::Int(report.violations.len() as i64));
            result.set("satisfied", JsonValue::Bool(report.satisfied()));
        }
        _ => {
            let model = spec.instantiate();
            let report = check_table_model(&table, &keys, &conf, model.as_ref(), k);
            result.set("n_groups", JsonValue::Int(report.n_groups as i64));
            result.set("k", JsonValue::Int(k as i64));
            result.set("p", JsonValue::Int(spec.conditions_p() as i64));
            result.set("k_anonymous", JsonValue::Bool(report.k_anonymous));
            result.set("max_k", JsonValue::Int(maxk as i64));
            result.set("max_p", JsonValue::Int(maxp as i64));
            result.set("p_sensitive", JsonValue::Bool(report.violating_pairs == 0));
            result.set("violations", JsonValue::Int(report.violating_pairs as i64));
            result.set("satisfied", JsonValue::Bool(report.satisfied()));
            if let Some(detail) = report.detail {
                result.set("detail_kind", JsonValue::Str(detail.kind().to_owned()));
                result.set("detail_value", JsonValue::Int(detail.value() as i64));
            }
        }
    }
    result.set("model", JsonValue::Str(spec.name().to_owned()));
    result.set("param", JsonValue::Int(spec.param() as i64));
    Ok(result)
}

/// `analyze {dataset, p?}`: Condition 1 bound and disclosure risks.
fn analyze_op(state: &ServerState, request: &JsonValue) -> OpResult {
    let dataset = lookup_dataset(state, request)?;
    let requested_p = match request.get("p") {
        Some(value) => Some(
            value
                .as_u64()
                .ok()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| bad("`p` must be a u32"))?,
        ),
        None => None,
    };
    // One consistent (table, stats) snapshot; the stats come from the
    // incrementally-maintained LiveTable (byte-identical to a from-scratch
    // ConfidentialStats::compute by construction).
    let (table, stats) = dataset.snapshot();
    let keys = table.schema().key_indices();
    let id_risk = identity_risk(&table, &keys);
    let attr_risk = attribute_risk(&table, &keys, &table.schema().confidential_indices());
    let mut result = JsonValue::object();
    result.set("rows", JsonValue::Int(table.n_rows() as i64));
    result.set("max_p", JsonValue::Int(stats.max_p() as i64));
    match requested_p {
        Some(p) => {
            result.set("requested_p", JsonValue::Int(p as i64));
            result.set(
                "satisfiable",
                JsonValue::Bool((p as usize) <= stats.max_p()),
            );
        }
        None => {
            result.set("requested_p", JsonValue::Null);
            result.set("satisfiable", JsonValue::Null);
        }
    }
    let mut identity = JsonValue::object();
    identity.set("max_risk", JsonValue::Float(id_risk.max_risk));
    identity.set("avg_risk", JsonValue::Float(id_risk.avg_risk));
    identity.set("uniques", JsonValue::Int(id_risk.uniques as i64));
    result.set("identity_risk", identity);
    let mut attribute = JsonValue::object();
    attribute.set("disclosures", JsonValue::Int(attr_risk.disclosures as i64));
    attribute.set(
        "affected_groups",
        JsonValue::Int(attr_risk.affected_groups as i64),
    );
    attribute.set(
        "affected_fraction",
        JsonValue::Float(attr_risk.affected_fraction),
    );
    result.set("attribute_risk", attribute);
    Ok(result)
}

/// `anonymize {dataset, model?, p?/l?/t_ppm?, k?, ts?, threads?,
/// timeout_ms?, max_nodes?, no_cache?, include_masked?}`: Samarati's
/// search with the paper's necessary-condition pruning, budgeted by the
/// request deadline and the request's cancel token, consulting the
/// dataset's warm verdict store for `(model, k, ts)` unless `no_cache`.
///
/// `timeout_ms` is measured from request **arrival**, so time queued at the
/// admission gate counts against the deadline — an overloaded server
/// answers "deadline exceeded" rather than holding the request past the
/// point the client stopped caring.
///
/// The response's `verdict` object is a pure function of (dataset,
/// parameters) for completed runs — byte-identical across repeats, warm or
/// cold, serial or concurrent — which the differential oracle relies on.
/// Execution-dependent fields (`warm`, `search` stats) live outside it.
fn anonymize_op(
    state: &ServerState,
    request: &JsonValue,
    token: &CancelToken,
    arrival: Instant,
) -> OpResult {
    let dataset = lookup_dataset(state, request)?;
    let k = param_u32(request, "k", 2)?;
    let spec = param_model(request, 1)?;
    let ts = param_usize(request, "ts", 0)?;
    let threads = param_usize(request, "threads", 0)?;
    let no_cache = param_bool(request, "no_cache", false)?;
    let include_masked = param_bool(request, "include_masked", false)?;
    let mut budget = SearchBudget::unlimited().with_cancel(token.clone());
    if let Some(value) = request.get("timeout_ms") {
        let ms = value
            .as_u64()
            .map_err(|e| bad(format!("`timeout_ms`: {e}")))?;
        budget = budget.with_deadline(arrival + Duration::from_millis(ms));
    }
    if let Some(value) = request.get("max_nodes") {
        let n = value
            .as_u64()
            .map_err(|e| bad(format!("`max_nodes`: {e}")))?;
        budget = budget.with_max_nodes(n);
    }
    // One read-lock hold yields a (store, table, stats) triple that is
    // consistent even while `update`s race: the pooled store always matches
    // the table version (apply_delta swaps invalidated pools under the same
    // lock), and the search reuses the incrementally-maintained statistics
    // instead of recomputing them from scratch.
    let (store, warm, table, stats) = match no_cache {
        true => {
            let (table, stats) = dataset.snapshot();
            (None, false, table, stats)
        }
        false => {
            let (store, warm, table, stats) =
                state.registry.snapshot_with_store(&dataset, spec, k, ts);
            (Some(store), warm, table, stats)
        }
    };
    let req = SearchRequest {
        budget,
        tuning: Tuning {
            threads,
            cache: store.as_deref(),
            ..Tuning::default()
        },
        stats: Some(&stats),
        ..SearchRequest::new(spec, k, ts)
    };
    let outcome = pk_minimal_generalization(&table, &dataset.qi, &req, &NoopObserver)
        .map_err(|e| (codes::INTERNAL, e.to_string()))?;
    let mut result = JsonValue::object();
    result.set(
        "verdict",
        verdict_json(&dataset.qi, spec, &outcome, include_masked),
    );
    result.set("warm", JsonValue::Bool(warm));
    result.set("search", outcome.stats.to_json());
    Ok(result)
}

/// The pure-function `verdict` object shared by `anonymize`, `watch`, and
/// `update` re-verification: byte-identical for equal (dataset, model,
/// parameters), with no execution-dependent fields.
fn verdict_json(
    qi: &QiSpace,
    spec: ModelSpec,
    outcome: &SearchOutcome,
    include_masked: bool,
) -> JsonValue {
    let mut verdict = JsonValue::object();
    verdict.set("model", JsonValue::Str(spec.name().to_owned()));
    verdict.set("param", JsonValue::Int(spec.param() as i64));
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
                JsonValue::Array(
                    node.levels()
                        .iter()
                        .map(|&l| JsonValue::Int(l as i64))
                        .collect(),
                ),
            );
            verdict.set("height", JsonValue::Int(node.height() as i64));
            verdict.set("suppressed", JsonValue::Int(outcome.suppressed as i64));
            if include_masked {
                let masked = outcome.masked.as_ref().expect("masked accompanies node");
                verdict.set("masked_csv", JsonValue::Str(to_csv_string(masked, true)));
            }
        }
        None => {
            verdict.set("node", JsonValue::Null);
            verdict.set("node_levels", JsonValue::Null);
            verdict.set("height", JsonValue::Null);
            verdict.set("suppressed", JsonValue::Null);
        }
    }
    verdict.set(
        "proven_min_height",
        JsonValue::Int(outcome.proven_min_height as i64),
    );
    verdict
}

/// Runs the watched search for `(model, k, ts)` against a consistent
/// snapshot of the dataset (store, table, and stats acquired under one
/// read-lock hold), consulting (and warming) the pooled verdict store, and
/// returns the pure-function verdict object.
///
/// A search that did not run to completion (the request's token was
/// cancelled) is reported as an `interrupted` error rather than a verdict:
/// watch results are compared and stored as the spec's last published
/// verdict, and a best-so-far partial answer must never enter that
/// comparison.
fn watched_verdict(
    state: &ServerState,
    dataset: &Arc<crate::registry::Dataset>,
    spec: ModelSpec,
    k: u32,
    ts: usize,
    token: &CancelToken,
) -> Result<JsonValue, (&'static str, String)> {
    let (store, _, table, stats) = state.registry.snapshot_with_store(dataset, spec, k, ts);
    let req = SearchRequest {
        budget: SearchBudget::unlimited().with_cancel(token.clone()),
        tuning: Tuning {
            threads: 0,
            cache: Some(&store),
            ..Tuning::default()
        },
        stats: Some(&stats),
        ..SearchRequest::new(spec, k, ts)
    };
    let outcome = pk_minimal_generalization(&table, &dataset.qi, &req, &NoopObserver)
        .map_err(|e| (codes::INTERNAL, e.to_string()))?;
    if !outcome.termination.is_complete() {
        return Err((
            codes::INTERRUPTED,
            format!(
                "watch re-verification did not complete ({})",
                outcome.termination.as_str()
            ),
        ));
    }
    Ok(verdict_json(&dataset.qi, spec, &outcome, false))
}

/// `update {dataset, appends?, deletes?}`: applies a delta batch to the
/// live table (journaled write-ahead with a state dir), selectively
/// invalidates every warm verdict store via the Conditions 1/2 bounds
/// (`psens_core::invalidation_for`) — apply and invalidation are one
/// atomic step under the dataset's write lock, see
/// `Dataset::apply_delta` — and re-verifies active watches, republishing
/// a verdict only when it changed.
///
/// `appends` is an array of rows, each an array of rendered cell strings
/// in schema order (`""` = missing); `deletes` is an array of current row
/// indices (the batch deletes first, then appends, exactly like
/// `DeltaBatch::apply`).
///
/// Once the batch is journaled and applied, the op always acknowledges it
/// with `ok` — a watch re-verification that fails (cancelled mid-run, or a
/// search error) lands in `watches.errors` instead of failing the op,
/// because an error response for a committed update would invite a client
/// retry that double-applies the batch.
fn update_op(state: &ServerState, request: &JsonValue, token: &CancelToken) -> OpResult {
    let dataset = lookup_dataset(state, request)?;
    let appends: Vec<Vec<String>> = match request.get("appends") {
        None => Vec::new(),
        Some(value) => value
            .as_array()
            .map_err(|e| bad(format!("`appends`: {e}")))?
            .iter()
            .map(|row| {
                row.as_array()
                    .map_err(|e| bad(format!("`appends`: each row must be an array ({e})")))?
                    .iter()
                    .map(|cell| {
                        cell.as_str().map(str::to_owned).map_err(|e| {
                            bad(format!("`appends`: each cell must be a string ({e})"))
                        })
                    })
                    .collect()
            })
            .collect::<Result<_, _>>()?,
    };
    let deletes: Vec<usize> = match request.get("deletes") {
        None => Vec::new(),
        Some(value) => value
            .as_array()
            .map_err(|e| bad(format!("`deletes`: {e}")))?
            .iter()
            .map(|ix| ix.as_usize().map_err(|e| bad(format!("`deletes`: {e}"))))
            .collect::<Result<_, _>>()?,
    };
    if appends.is_empty() && deletes.is_empty() {
        return Err(bad("empty update: provide `appends` and/or `deletes`"));
    }
    let rows = {
        let table = dataset.table();
        parse_cells(table.schema(), &appends).map_err(bad)?
    };
    let batch = DeltaBatch {
        appends: rows,
        deletes,
    };
    // Apply + selective pool invalidation happen atomically under the
    // dataset's write lock; the returned outcome pairs the effect with the
    // post-batch statistics, row count, and invalidation tallies of *this*
    // batch, untainted by racing updates.
    let outcome = state.registry.apply_delta(&dataset, &batch).map_err(bad)?;
    // Re-verify watches; republish only verdicts that changed. From here
    // on the batch is committed, so per-watch failures are reported in the
    // response instead of failing the op.
    let mut checked = 0i64;
    let mut flipped = 0i64;
    let mut changed = Vec::new();
    let mut errors = Vec::new();
    for watch in dataset.watch_snapshot() {
        checked += 1;
        let verdict = match watched_verdict(state, &dataset, watch.model, watch.k, watch.ts, token)
        {
            Ok(verdict) => verdict,
            Err((code, message)) => {
                let mut entry = JsonValue::object();
                entry.set("model", JsonValue::Str(watch.model.name().to_owned()));
                entry.set("param", JsonValue::Int(watch.model.param() as i64));
                entry.set("k", JsonValue::Int(i64::from(watch.k)));
                entry.set("ts", JsonValue::Int(watch.ts as i64));
                entry.set("code", JsonValue::Str(code.to_owned()));
                entry.set("error", JsonValue::Str(message));
                errors.push(entry);
                continue;
            }
        };
        let text = verdict.to_json();
        if watch.last.as_deref() == Some(text.as_str()) {
            continue;
        }
        if watch.last.is_some() {
            flipped += 1;
        }
        dataset.set_watch_verdict(watch.model, watch.k, watch.ts, text);
        let mut entry = JsonValue::object();
        entry.set("model", JsonValue::Str(watch.model.name().to_owned()));
        entry.set("param", JsonValue::Int(watch.model.param() as i64));
        entry.set("k", JsonValue::Int(i64::from(watch.k)));
        entry.set("ts", JsonValue::Int(watch.ts as i64));
        entry.set("verdict", verdict);
        changed.push(entry);
    }
    let mut result = JsonValue::object();
    result.set("dataset", JsonValue::Str(dataset.name.clone()));
    result.set("appended", JsonValue::Int(outcome.effect.appended as i64));
    result.set("deleted", JsonValue::Int(outcome.effect.deleted as i64));
    result.set("rows", JsonValue::Int(outcome.rows as i64));
    result.set(
        "deltas_applied",
        JsonValue::Int(outcome.deltas_applied as i64),
    );
    result.set("net_zero", JsonValue::Bool(outcome.effect.net_zero));
    result.set("append_only", JsonValue::Bool(outcome.effect.append_only));
    let mut invalidation = JsonValue::object();
    invalidation.set("kept", JsonValue::Int(outcome.kept as i64));
    invalidation.set("invalidated", JsonValue::Int(outcome.invalidated as i64));
    result.set("invalidation", invalidation);
    let mut watches = JsonValue::object();
    watches.set("checked", JsonValue::Int(checked));
    watches.set("flipped", JsonValue::Int(flipped));
    watches.set("changed", JsonValue::Array(changed));
    watches.set("errors", JsonValue::Array(errors));
    result.set("watches", watches);
    Ok(result)
}

/// `watch {dataset, model?, p?/l?/t_ppm?, k?, ts?}`: registers a spec to
/// re-verify after every `update` to the dataset, runs the baseline search
/// now, and returns its verdict. Watching an already-watched spec is
/// idempotent (`registered: false`) and keeps the stored last verdict.
fn watch_op(state: &ServerState, request: &JsonValue, token: &CancelToken) -> OpResult {
    let dataset = lookup_dataset(state, request)?;
    let k = param_u32(request, "k", 2)?;
    let spec = param_model(request, 1)?;
    let ts = param_usize(request, "ts", 0)?;
    let registered = dataset.register_watch(spec, k, ts);
    let verdict = watched_verdict(state, &dataset, spec, k, ts, token)?;
    dataset.set_watch_verdict(spec, k, ts, verdict.to_json());
    let mut result = JsonValue::object();
    result.set("dataset", JsonValue::Str(dataset.name.clone()));
    result.set("model", JsonValue::Str(spec.name().to_owned()));
    result.set("param", JsonValue::Int(spec.param() as i64));
    result.set("k", JsonValue::Int(i64::from(k)));
    result.set("ts", JsonValue::Int(ts as i64));
    result.set("registered", JsonValue::Bool(registered));
    result.set("verdict", verdict);
    Ok(result)
}

/// `query {dataset, sql}`: the CLI `query` against the interned table
/// (registered as `data`).
fn query_op(state: &ServerState, request: &JsonValue) -> OpResult {
    let dataset = lookup_dataset(state, request)?;
    let sql = param_str(request, "sql")?;
    let table = dataset.table();
    let mut catalog = psens_sql::Catalog::new();
    catalog.register("data", &table);
    let table = psens_sql::execute(&catalog, sql).map_err(|e| bad(e.to_string()))?;
    let mut result = JsonValue::object();
    result.set("rows", JsonValue::Int(table.n_rows() as i64));
    result.set("text", JsonValue::Str(psens_microdata::render(&table, 100)));
    Ok(result)
}

/// `sleep {ms}`: a diagnostic op that occupies an admission slot for `ms`
/// milliseconds, polling its cancel token. Lets tests exercise queueing,
/// shedding, and disconnect-cancellation deterministically without a large
/// dataset.
fn sleep_op(request: &JsonValue, token: &CancelToken) -> OpResult {
    let ms = param_u32(request, "ms", 0)? as u64;
    let step = Duration::from_millis(10);
    let mut remaining = Duration::from_millis(ms);
    while remaining > Duration::ZERO {
        if token.is_cancelled() {
            return Err((codes::INTERRUPTED, "sleep cancelled".to_owned()));
        }
        let nap = remaining.min(step);
        thread::sleep(nap);
        remaining -= nap;
    }
    let mut result = JsonValue::object();
    result.set("slept_ms", JsonValue::Int(ms as i64));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_datasets::fixtures::adult_fixture;

    /// A bare in-process `ServerState` — no sockets, no threads — for
    /// driving ops directly.
    fn test_state() -> ServerState {
        ServerState {
            registry: Registry::new(),
            gate: Gate::new(1, 1),
            shutdown: CancelToken::new(),
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            started: Instant::now(),
            config: ServerConfig::default(),
            recovery: RecoveryStats::default(),
            faults: Mutex::new(None),
            requests_served: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            idle_reaped: AtomicU64::new(0),
            stall_reaped: AtomicU64::new(0),
            frames_too_large: AtomicU64::new(0),
            malformed_frames: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
        }
    }

    /// A committed delta must be acknowledged even when a watch
    /// re-verification fails: the failure lands in `watches.errors`, the
    /// op returns `ok`, and no partial verdict is published — an error
    /// response here would invite a client retry that double-applies the
    /// already-journaled batch.
    #[test]
    fn committed_update_reports_watch_failures_instead_of_erroring() {
        let state = test_state();
        let fixture = adult_fixture(21, 80);
        let dataset = state
            .registry
            .register("adult", &fixture.csv, fixture.spec)
            .unwrap();
        dataset.register_watch(ModelSpec::PSensitiveK { p: 2 }, 3, 10);

        let mut request = JsonValue::object();
        request.set("dataset", JsonValue::Str("adult".into()));
        request.set("deletes", JsonValue::Array(vec![JsonValue::Int(0)]));

        // Cancel the request token before the watch search runs: the
        // search terminates `cancelled`, so re-verification cannot yield a
        // publishable verdict — but the batch is already applied.
        let token = CancelToken::new();
        token.cancel();
        let result = update_op(&state, &request, &token).expect("committed update must be ok");
        assert_eq!(result.require("rows").unwrap().as_u64().unwrap(), 79);
        assert_eq!(dataset.deltas_applied(), 1);
        let watches = result.require("watches").unwrap();
        assert_eq!(watches.require("checked").unwrap().as_u64().unwrap(), 1);
        assert_eq!(watches.require("flipped").unwrap().as_u64().unwrap(), 0);
        assert!(watches
            .require("changed")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        let errors = watches
            .require("errors")
            .unwrap()
            .as_array()
            .unwrap()
            .to_vec();
        assert_eq!(errors.len(), 1, "the failed watch is reported");
        assert_eq!(
            errors[0].require("code").unwrap().as_str().unwrap(),
            codes::INTERRUPTED
        );
        assert!(
            dataset.watch_snapshot()[0].last.is_none(),
            "no partial verdict may be published as the watch's last"
        );

        // The same update with a live token re-verifies cleanly: the watch
        // publishes its baseline and `errors` is empty.
        let result = update_op(&state, &request, &CancelToken::new()).unwrap();
        let watches = result.require("watches").unwrap();
        assert!(watches
            .require("errors")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        assert_eq!(
            watches
                .require("changed")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            1,
            "first successful re-verification publishes the baseline"
        );
    }
}
