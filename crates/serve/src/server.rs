//! The network-facing service: listener, bounded connection queue,
//! worker pool, request routing, and the runtime thread that drives
//! [`SlotRuntime`]'s shard workers over the [`ServeEngine`]. A tick
//! runs one slot, and the slot's decision is published before the slot
//! ends: `POST /v1/tick`, then `GET /v1/schedule/{t}` — no second tick.
//!
//! ## Endpoints
//!
//! | Method & path            | Purpose                                        |
//! |--------------------------|------------------------------------------------|
//! | `POST /v1/telemetry`     | γ observations + energy/display updates        |
//! | `POST /v1/sessions`      | arrivals/departures with admission control     |
//! | `POST /v1/brownout`      | edge capacity factor                           |
//! | `POST /v1/tick`          | manual slot tick (any mode)                    |
//! | `POST /v1/shutdown`      | graceful drain + final checkpoint seal         |
//! | `GET /v1/schedule/{t}`   | decided slot `t` (selection, tier, shed floor) |
//! | `GET /metrics`           | Prometheus text exposition                     |
//! | `GET /healthz`           | lifecycle phase + applied slots                |
//!
//! ## Operational behavior
//!
//! Connections queue in a bounded deque; when it is full the accept
//! thread answers 429 inline and drops — the server never queues
//! without bound and never hangs below its limits. (A connection that
//! arrives while the HTTP layer is being torn down gets `503 draining`
//! instead: drain is not overload and is not counted as shed.)
//!
//! **Connections are persistent.** A worker answers a request with
//! `connection: keep-alive` and stays on the connection for the next
//! one, so a device reporting every slot pays for one TCP handshake and
//! one accept → queue → worker hand-off, not one per report. Requests
//! are strictly one at a time (no pipelining, see [`crate::http`]). The
//! worker closes — and says so with `connection: close` on that last
//! response — when the client opts out (`connection: close`,
//! HTTP/1.0), on any parse error (a 4xx always closes), on
//! `POST /v1/shutdown`, after [`REQUESTS_PER_CONNECTION`] requests, or
//! when the connection has been idle for `request_deadline`. Each
//! request gets a socket timeout plus a parse deadline that starts at
//! the request's *first byte*, not when the connection went idle.
//!
//! **Idle connections never hold a worker a queued connection needs.**
//! The pool is fixed (`http_workers`), and a worker waiting for the
//! next request of a kept-alive connection is blocked in a read; with
//! more persistent clients than workers that alone would leave the
//! extra clients queued until somebody's idle limit fired. So a worker
//! *parks* a shutdown handle of its connection in the queue's idle list
//! while it waits for a first byte, and:
//!
//! * a `push` that leaves more connections queued than workers are free
//!   (not holding a connection, whether or not they have reached `pop`
//!   yet) shuts the longest-idle parked connection down, which wakes its
//!   worker to take the queued one (the evicted client sees end of
//!   stream before any response and reconnects);
//! * a worker touches request bytes only after it has *reclaimed* its
//!   handle, so an evicted connection never has a request half
//!   processed;
//! * a worker that finishes a request while connections are queued
//!   answers `connection: close` instead of parking;
//! * stopping the queue evicts every parked connection, so
//!   [`ServerHandle::join`] does not wait out idle limits.
//!
//! A connection's *first* request is read without parking — a queued
//! connection may take a worker from a client that has been served, not
//! from one that has not — so with more connections than workers the
//! server degrades to one request per connection and never below that.
//!
//! Telemetry pressure raises the solver floor of upcoming slots (see
//! [`crate::shed`]) before anything is dropped. On shutdown the slot
//! loop finishes its slot, then the final bank state is sealed as
//! one more checkpoint round so the next boot resumes exactly where
//! this one stopped.

use crate::engine::{
    Admission, Decision, EngineConfig, Op, Phase, ServeEngine, Shared, CAPACITY_J,
};
use crate::http::{error_body, parse_request, render_reply, render_response, HttpError, HttpLimits, Request};
use lpvs_bayes::codec::bank_to_bytes;
use lpvs_bayes::BayesBank;
use lpvs_edge::fleet::FleetConfig;
use lpvs_obs::json::Json;
use lpvs_runtime::{CheckpointConfig, CheckpointStore, RuntimeConfig, SlotRuntime};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the slot clock advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickMode {
    /// A ticker thread posts one tick per interval.
    Interval(Duration),
    /// Only `POST /v1/tick` advances slots (deterministic tests).
    Manual,
}

/// Full server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Engine (fleet/capacity/journal/horizon) configuration.
    pub engine: EngineConfig,
    /// Shard worker count of the slot runtime.
    pub shards: usize,
    /// Slot clock mode.
    pub tick: TickMode,
    /// Checkpoint directory (`None` disables checkpoints and resume).
    pub checkpoint_dir: Option<PathBuf>,
    /// Slots between checkpoint rounds.
    pub checkpoint_interval: usize,
    /// Resume from an existing manifest/journal when present.
    pub resume: bool,
    /// Bound on queued telemetry/session ops awaiting a slot.
    pub ops_queue: usize,
    /// HTTP worker threads.
    pub http_workers: usize,
    /// Per-request parse/handle deadline, counted from the request's
    /// first byte; also how long a kept-alive connection may sit idle.
    pub request_deadline: Duration,
    /// HTTP parser limits.
    pub limits: HttpLimits,
}

impl ServeConfig {
    /// A loopback config for `max_devices` devices with manual ticks —
    /// the deterministic-test shape.
    pub fn loopback(max_devices: usize) -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            engine: EngineConfig::sized(max_devices),
            shards: 2,
            tick: TickMode::Manual,
            checkpoint_dir: None,
            checkpoint_interval: 4,
            resume: false,
            ops_queue: 256,
            http_workers: 4,
            request_deadline: Duration::from_secs(2),
            limits: HttpLimits::default(),
        }
    }
}

/// A running server: bound address plus the threads behind it.
pub struct ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    conns: Arc<ConnQueue>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The shared engine-facing state (tests poke at counters).
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Blocks until the slot loop has drained (a shutdown was posted or
    /// the horizon ran out), then tears down the HTTP layer and joins
    /// every thread.
    pub fn join(mut self) {
        // The runtime thread is pushed first and exits once the slot
        // loop drains + the final seal lands.
        if let Some(runtime) = (!self.threads.is_empty()).then(|| self.threads.remove(0)) {
            let _ = runtime.join();
        }
        self.conns.stop();
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Bound on queued (accepted, unparsed) connections.
const CONN_QUEUE: usize = 64;

/// Requests one connection may carry before the server answers
/// `connection: close`, so no client holds a worker of the fixed pool
/// indefinitely by never going idle.
pub const REQUESTS_PER_CONNECTION: usize = 1000;

/// Why a connection ended — the `reason` label of
/// `serve_connection_close_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Close {
    /// The client opted out of reuse or closed its end.
    Client,
    /// [`REQUESTS_PER_CONNECTION`] reached.
    Budget,
    /// No request within `request_deadline` of the previous response.
    Idle,
    /// A queued connection needed the worker.
    Evicted,
    /// Parse error (4xx) or a transport failure.
    Error,
    /// `POST /v1/shutdown`, or the HTTP layer is being torn down.
    Drain,
}

impl Close {
    fn label(self) -> &'static str {
        match self {
            Close::Client => "client",
            Close::Budget => "budget",
            Close::Idle => "idle",
            Close::Evicted => "evicted",
            Close::Error => "error",
            Close::Drain => "drain",
        }
    }
}

/// A connection `ConnQueue::push` handed back, and why.
#[derive(Debug)]
enum Refused {
    /// The queue is at capacity: overload, shed with a 429.
    Full(TcpStream),
    /// The queue is stopped: the server is draining, answer 503.
    Draining(TcpStream),
}

struct Conns {
    /// Accepted connections no worker has picked up yet.
    queue: VecDeque<TcpStream>,
    /// Shutdown handles of kept-alive connections whose worker is
    /// blocked waiting for the next request, longest idle first.
    idle: VecDeque<(u64, TcpStream)>,
    /// Workers not holding a connection: blocked in `pop`, or on their
    /// way there (spawned but not yet scheduled, or just back from a
    /// connection) — either way about to take a queued one.
    free: usize,
    next_token: u64,
    stopped: bool,
}

impl Conns {
    /// Why a connection with no request in flight must give its worker
    /// up, if it must: the queue is stopped, or more connections are
    /// queued than workers are free to come for them.
    fn must_yield(&self) -> Option<Close> {
        if self.stopped {
            Some(Close::Drain)
        } else if self.queue.len() > self.free {
            Some(Close::Evicted)
        } else {
            None
        }
    }
}

/// Bounded handoff between the accept thread and the HTTP workers, plus
/// the idle list that lets a queued connection evict a parked one.
struct ConnQueue {
    state: Mutex<Conns>,
    ready: Condvar,
    capacity: usize,
}

impl ConnQueue {
    /// A queue of `capacity` served by a pool of `workers`.
    fn new(capacity: usize, workers: usize) -> Self {
        Self {
            state: Mutex::new(Conns {
                queue: VecDeque::new(),
                idle: VecDeque::new(),
                free: workers,
                next_token: 0,
                stopped: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Conns> {
        self.state.lock().expect("conn queue poisoned")
    }

    /// Queues `stream` for a worker; if that leaves more queued than
    /// workers free, the longest-idle parked connection is shut down
    /// so its worker comes for it.
    fn push(&self, stream: TcpStream) -> Result<(), Refused> {
        let mut c = self.lock();
        if c.stopped {
            return Err(Refused::Draining(stream));
        }
        if c.queue.len() >= self.capacity {
            return Err(Refused::Full(stream));
        }
        c.queue.push_back(stream);
        let evicted = if c.must_yield().is_some() { c.idle.pop_front() } else { None };
        drop(c);
        if let Some((_, handle)) = evicted {
            let _ = handle.shutdown(Shutdown::Both);
        }
        self.ready.notify_one();
        Ok(())
    }

    /// Hands a free worker its next connection; the worker stays
    /// counted as busy until it calls [`Self::release`].
    fn pop(&self) -> Option<TcpStream> {
        let mut c = self.lock();
        loop {
            if let Some(stream) = c.queue.pop_front() {
                c.free -= 1;
                return Some(stream);
            }
            if c.stopped {
                return None;
            }
            c = self.ready.wait(c).expect("conn queue poisoned");
        }
    }

    /// The worker is done with the connection `pop` gave it.
    fn release(&self) {
        self.lock().free += 1;
    }

    /// Whether — and why — a worker finishing a request should close
    /// instead of waiting for the connection's next one.
    fn must_yield(&self) -> Option<Close> {
        self.lock().must_yield()
    }

    /// Registers `handle` (a clone of a connection about to go idle) as
    /// evictable. `Err` when the connection must yield right away; the
    /// check shares `push`'s lock, so a connection queued just before
    /// is seen here and one queued just after sees the parked handle.
    fn park(&self, handle: TcpStream) -> Result<u64, Close> {
        let mut c = self.lock();
        if let Some(reason) = c.must_yield() {
            return Err(reason);
        }
        let token = c.next_token;
        c.next_token += 1;
        c.idle.push_back((token, handle));
        Ok(token)
    }

    /// Takes a parked handle back. `Err` means it was evicted: the
    /// socket is shut down and whatever the read returned is void.
    fn reclaim(&self, token: u64) -> Result<TcpStream, Close> {
        let mut c = self.lock();
        // A stop evicts everything; otherwise it was a queued connection,
        // even if another worker has taken that one by now.
        let at = c
            .idle
            .iter()
            .position(|(t, _)| *t == token)
            .ok_or_else(|| c.must_yield().unwrap_or(Close::Evicted))?;
        Ok(c.idle.remove(at).expect("position is in range").1)
    }

    /// Stops the queue: `pop` drains what is queued and then returns
    /// `None`, `push` refuses, and every parked connection is evicted.
    fn stop(&self) {
        let mut c = self.lock();
        c.stopped = true;
        for (_, handle) in c.idle.drain(..) {
            let _ = handle.shutdown(Shutdown::Both);
        }
        drop(c);
        self.ready.notify_all();
    }
}

/// Answers a connection the queue refused, inline on the accept thread:
/// `429` for overload (counted as shed), `503` for drain (not counted).
fn refuse(refused: Refused) {
    let (mut stream, status, detail) = match refused {
        Refused::Full(stream) => {
            lpvs_obs::inc("serve_shed_total");
            (stream, 429, "connection queue full")
        }
        Refused::Draining(stream) => (stream, 503, "draining"),
    };
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = stream.write_all(&render_response(status, "application/json", &error_body(status, detail)));
}

/// Boots the service: binds, spawns the runtime thread, the accept
/// thread, the worker pool, and (in interval mode) the ticker.
///
/// # Errors
///
/// Propagates a checkpoint store that cannot be created, the bind
/// error and an op journal that cannot be opened for appending;
/// everything after those is spawned.
pub fn serve(config: ServeConfig) -> std::io::Result<ServerHandle> {
    lpvs_obs::init();
    let runtime = slot_runtime(&config);
    // The slot loop opens the same store again; one it could not create
    // would stop every slot after this function returned `Ok`.
    if let Some(checkpoints) = runtime.config().checkpoints.as_ref() {
        CheckpointStore::create(checkpoints, runtime.config().fleet.num_shards)
            .map_err(std::io::Error::other)?;
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Shared::new(&config.engine, config.ops_queue);
    let engine = ServeEngine::new(config.engine.clone(), Arc::clone(&shared))?;
    let workers = config.http_workers.max(1);
    let conns = Arc::new(ConnQueue::new(CONN_QUEUE, workers));
    let mut threads = Vec::new();

    // --- runtime thread (always index 0; join() relies on it) --------
    {
        let shared = Arc::clone(&shared);
        let conns = Arc::clone(&conns);
        let resume = config.resume;
        threads.push(std::thread::spawn(move || {
            run_slot_loop(&runtime, resume, engine, &shared);
            // Slot loop is done: tear the HTTP layer down so join()
            // (and an orphaned accept thread) can finish.
            conns.stop();
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
        }));
    }

    // --- interval ticker ---------------------------------------------
    if let TickMode::Interval(period) = config.tick {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || loop {
            std::thread::sleep(period);
            let stop = shared.queue.lock().expect("ops queue poisoned").shutdown;
            if stop {
                break;
            }
            shared.tick();
        }));
    }

    // --- accept thread ------------------------------------------------
    {
        let conns_acc = Arc::clone(&conns);
        threads.push(std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                // Never block the listener: a refused connection is
                // answered inline. A stopped queue also ends the loop
                // (the connection that woke it is told `503 draining`).
                if let Err(refused) = conns_acc.push(stream) {
                    let draining = matches!(refused, Refused::Draining(_));
                    refuse(refused);
                    if draining {
                        break;
                    }
                }
            }
        }));
    }

    // --- HTTP workers --------------------------------------------------
    for _ in 0..workers {
        let conns = Arc::clone(&conns);
        let shared = Arc::clone(&shared);
        let limits = config.limits;
        let deadline = config.request_deadline;
        let max_devices = config.engine.max_devices;
        threads.push(std::thread::spawn(move || {
            while let Some(stream) = conns.pop() {
                handle_connection(stream, &conns, &shared, &limits, deadline, max_devices);
                conns.release();
            }
        }));
    }

    Ok(ServerHandle { addr, shared, conns, threads })
}

/// The slot runtime a server drives.
fn slot_runtime(config: &ServeConfig) -> SlotRuntime {
    SlotRuntime::new(RuntimeConfig {
        fleet: FleetConfig {
            num_shards: config.shards.max(1),
            // No rebalance: turning it on would change the served
            // decisions, an output change to be made on its own, with
            // the benchmark's selection hashes re-baselined. (Ownership
            // needs nothing from it — estimators never leave home.)
            max_migrations: 0,
            ..FleetConfig::default()
        },
        checkpoints: config.checkpoint_dir.as_ref().map(|dir| {
            let mut c = CheckpointConfig::new(dir);
            c.interval = config.checkpoint_interval.max(1);
            c
        }),
        ..RuntimeConfig::default()
    })
}

/// Runs (or resumes) the slot loop, and seals the final checkpoint
/// round on the way out.
fn run_slot_loop(runtime: &SlotRuntime, resume: bool, mut engine: ServeEngine, shared: &Shared) {
    let report = if resume {
        match runtime.resume(&mut engine) {
            Ok(report) => report,
            // No manifest yet (killed before the first checkpoint
            // round): a fresh run re-executes the journal from slot 0,
            // which reconstructs the same state bit-for-bit.
            Err(_) => {
                let estimators = engine.estimators();
                runtime.run(&mut engine, estimators)
            }
        }
    } else {
        let estimators = engine.estimators();
        runtime.run(&mut engine, estimators)
    };

    // --- final seal ----------------------------------------------------
    // One more checkpoint round at the slot a resumed run would re-enter
    // at. Valid because estimators never leave their home shard and the
    // drain already folded the last slot's feedback, so the merged
    // estimators split by home shard are exactly the post-prepare(T)
    // banks.
    if let Some(ckpt) = runtime.config().checkpoints.as_ref() {
        let k = runtime.config().fleet.num_shards;
        let owner = runtime.home_shards(report.estimators.len());
        let final_slot = engine.applied_slots();
        let banks = BayesBank::from_estimators(report.estimators.clone()).split(k, |d| owner[d]);
        if let Ok(mut store) = CheckpointStore::create(ckpt, k) {
            store.begin_round(final_slot, vec![0; k]);
            for (s, bank) in banks.iter().enumerate() {
                let _ = store.persist_shard(s, final_slot, &bank_to_bytes(bank), None);
            }
        }
    }
    shared.set_phase(Phase::Stopped);
}

/// Blocks until the next request's first byte is readable (without
/// consuming it), the peer closes (`Ok(0)`), or the socket's read
/// timeout — the idle limit — fires.
fn await_first_byte(stream: &TcpStream) -> std::io::Result<usize> {
    loop {
        match stream.peek(&mut [0u8; 1]) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
}

/// Serves one connection: parses, routes, and answers its requests one
/// at a time until the client, the budget, an error, the idle limit, a
/// queued connection, or a drain ends it (module docs, "Operational
/// behavior").
fn handle_connection(
    mut stream: TcpStream,
    conns: &ConnQueue,
    shared: &Shared,
    limits: &HttpLimits,
    deadline: Duration,
    max_devices: usize,
) {
    let _ = stream.set_read_timeout(Some(deadline));
    let _ = stream.set_write_timeout(Some(deadline));
    // Responses are written whole; waiting to coalesce them with a next
    // segment that never comes would only delay the client.
    let _ = stream.set_nodelay(true);
    // The shutdown handle parked while idle; cloned once, on first use.
    let mut spare: Option<TcpStream> = None;
    let mut served = 0usize;
    let mut started = Instant::now();
    let close = loop {
        if served > 0 {
            let Some(handle) = spare.take().or_else(|| stream.try_clone().ok()) else {
                break Close::Error;
            };
            let token = match conns.park(handle) {
                Ok(token) => token,
                Err(reason) => break reason,
            };
            let first = await_first_byte(&stream);
            // Reclaim before looking at the result: an evicted socket
            // was shut down under the read, and its bytes are void.
            match conns.reclaim(token) {
                Ok(handle) => spare = Some(handle),
                Err(reason) => break reason,
            }
            match first {
                Ok(0) => break Close::Client,
                Ok(_) => started = Instant::now(),
                Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
                    break Close::Idle;
                }
                Err(_) => break Close::Error,
            }
        }
        let (status, content_type, body, verdict) =
            match parse_request(&mut stream, limits, started + deadline) {
                Ok(req) => {
                    let (status, content_type, body) = route(&req, shared, max_devices);
                    let verdict = if !req.keep_alive {
                        Some(Close::Client)
                    } else if req.path == "/v1/shutdown" {
                        Some(Close::Drain)
                    } else if served + 1 >= REQUESTS_PER_CONNECTION {
                        Some(Close::Budget)
                    } else {
                        conns.must_yield()
                    };
                    (status, content_type, body, verdict)
                }
                // The peer hung up (or was reset) before a whole request.
                Err(HttpError::ConnectionClosed) => break Close::Client,
                Err(e) => {
                    let status = e.status();
                    let body = error_body(status, "malformed request");
                    (status, "application/json", body, Some(Close::Error))
                }
            };
        let written = stream.write_all(&render_reply(status, content_type, &body, verdict.is_none()));
        served += 1;
        lpvs_obs::observe("serve_request_seconds", started.elapsed().as_secs_f64());
        match (written, verdict) {
            (Err(_), _) => break Close::Error,
            (Ok(()), Some(close)) => break close,
            (Ok(()), None) => {}
        }
    };
    if lpvs_obs::enabled() {
        lpvs_obs::inc("serve_connections_total");
        lpvs_obs::observe("serve_connection_requests", served as f64);
        lpvs_obs::inc_labeled("serve_connection_close_total", &[("reason", close.label())]);
    }
}

type Routed = (u16, &'static str, Vec<u8>);

fn json_ok(status: u16, body: Json) -> Routed {
    (status, "application/json", body.to_string().into_bytes())
}

fn json_err(status: u16, detail: &str) -> Routed {
    (status, "application/json", error_body(status, detail))
}

fn route(req: &Request, shared: &Shared, max_devices: usize) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let status = shared.status.lock().expect("status poisoned");
            json_ok(
                200,
                Json::obj([
                    ("status", Json::Str(status.phase.label().to_owned())),
                    ("slots", Json::Num(status.slots as f64)),
                ]),
            )
        }
        ("GET", "/metrics") => {
            let text = lpvs_obs::global()
                .registry()
                .map(|r| lpvs_obs::sink::render_prometheus(&r.snapshot()))
                .unwrap_or_default();
            (200, "text/plain; version=0.0.4", text.into_bytes())
        }
        ("GET", path) if path.starts_with("/v1/schedule/") => {
            let Some(slot) = path["/v1/schedule/".len()..].parse::<usize>().ok() else {
                return json_err(400, "slot must be an integer");
            };
            let log = shared.schedules.lock().expect("schedule log poisoned");
            match log.get(&slot) {
                Some(d) => json_ok(200, decision_json(slot, d)),
                None => json_err(404, "slot not decided yet"),
            }
        }
        ("POST", "/v1/tick") => {
            shared.tick();
            json_ok(202, Json::obj([("ticked", Json::Bool(true))]))
        }
        ("POST", "/v1/shutdown") => {
            shared.shutdown();
            json_ok(200, Json::obj([("draining", Json::Bool(true))]))
        }
        ("POST", "/v1/telemetry") => post_telemetry(req, shared, max_devices),
        ("POST", "/v1/sessions") => post_session(req, shared, max_devices),
        ("POST", "/v1/brownout") => post_brownout(req, shared),
        ("GET" | "POST", _) => json_err(404, "no such endpoint"),
        _ => json_err(405, "method not allowed"),
    }
}

fn decision_json(slot: usize, d: &Decision) -> Json {
    Json::obj([
        ("slot", Json::Num(slot as f64)),
        ("tier", Json::Str(d.tier.label().to_owned())),
        ("shed_floor", Json::Str(d.shed.label().to_owned())),
        (
            "selected",
            Json::Arr(d.selected.iter().map(|&id| Json::Num(id as f64)).collect()),
        ),
        ("selected_count", Json::Num(d.selected.len() as f64)),
    ])
}

fn parse_body(req: &Request) -> Result<Json, Routed> {
    let text = std::str::from_utf8(&req.body).map_err(|_| json_err(400, "body is not UTF-8"))?;
    Json::parse(text).map_err(|_| json_err(400, "body is not JSON"))
}

fn device_of(body: &Json, max_devices: usize) -> Result<usize, Routed> {
    let device = body
        .get("device")
        .and_then(Json::as_u64)
        .ok_or_else(|| json_err(422, "missing device id"))? as usize;
    if device >= max_devices {
        return Err(json_err(422, "device id beyond the configured ceiling"));
    }
    Ok(device)
}

fn finite_in(body: &Json, key: &str, lo: f64, hi: f64) -> Result<Option<f64>, Routed> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let x = v.as_f64().filter(|x| x.is_finite() && (lo..=hi).contains(x));
            match x {
                Some(x) => Ok(Some(x)),
                None => Err(json_err(422, "field out of range")),
            }
        }
    }
}

fn oled_of(body: &Json) -> Result<Option<bool>, Routed> {
    match body.get("display").and_then(Json::as_str) {
        None => Ok(None),
        Some("oled") => Ok(Some(true)),
        Some("lcd") => Ok(Some(false)),
        Some(_) => Err(json_err(422, "display must be \"oled\" or \"lcd\"")),
    }
}

fn enqueue_or_shed(shared: &Shared, op: Op) -> Routed {
    if shared.enqueue(op) {
        json_ok(202, Json::obj([("queued", Json::Bool(true))]))
    } else {
        json_err(429, "telemetry queue full — shed")
    }
}

fn post_telemetry(req: &Request, shared: &Shared, max_devices: usize) -> Routed {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(e) => return e,
    };
    let op = (|| {
        let device = device_of(&body, max_devices)?;
        let energy_j = finite_in(&body, "energy_j", 0.0, CAPACITY_J)?;
        let mean = finite_in(&body, "gamma_mean", 0.0, 0.999_999)?;
        let std = finite_in(&body, "gamma_std", 0.0, 10.0)?;
        let gamma = match (mean, std) {
            (Some(m), s) => Some((m, s.unwrap_or(0.0))),
            (None, Some(_)) => return Err(json_err(422, "gamma_std without gamma_mean")),
            (None, None) => None,
        };
        let observed = finite_in(&body, "observed", 0.0, 10.0)?;
        let oled = oled_of(&body)?;
        Ok(Op::Telemetry { device, energy_j, gamma, oled, observed })
    })();
    match op {
        Ok(op) => enqueue_or_shed(shared, op),
        Err(e) => e,
    }
}

fn post_session(req: &Request, shared: &Shared, max_devices: usize) -> Routed {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(e) => return e,
    };
    let Some(action) = body.get("action").and_then(Json::as_str) else {
        return json_err(422, "missing action (arrive|depart)");
    };
    let device = match device_of(&body, max_devices) {
        Ok(d) => d,
        Err(e) => return e,
    };
    match action {
        "arrive" => {
            let phase = shared.status.lock().expect("status poisoned").phase;
            if phase != Phase::Live {
                return json_err(503, "recovering — retry shortly");
            }
            let energy_j = match finite_in(&body, "energy_j", 0.0, CAPACITY_J) {
                Ok(e) => e.unwrap_or(0.5 * CAPACITY_J),
                Err(e) => return e,
            };
            let gamma = match finite_in(&body, "gamma", 0.0, 0.999_999) {
                Ok(g) => g.unwrap_or(0.3),
                Err(e) => return e,
            };
            let oled = match oled_of(&body) {
                Ok(o) => o.unwrap_or(false),
                Err(e) => return e,
            };
            let mut adm: std::sync::MutexGuard<'_, Admission> =
                shared.admission.lock().expect("admission poisoned");
            if adm.brownout <= 0.0 {
                return json_err(503, "edge browned out");
            }
            if adm.active[device] {
                return json_err(422, "session already active for device");
            }
            if !adm.fits_one() {
                adm.rejected += 1;
                return json_err(429, "admission control: no capacity");
            }
            // Reserve before enqueueing so a concurrent arrival can't
            // double-book the same headroom; roll back if the op queue
            // sheds the request.
            adm.active[device] = true;
            adm.compute_reserved += crate::engine::SESSION_COMPUTE_COST;
            adm.storage_reserved_gb += crate::engine::SESSION_STORAGE_GB;
            adm.accepted += 1;
            drop(adm);
            if shared.enqueue(Op::Arrive { device, energy_j, gamma, oled }) {
                json_ok(202, Json::obj([("admitted", Json::Bool(true))]))
            } else {
                let mut adm = shared.admission.lock().expect("admission poisoned");
                adm.active[device] = false;
                adm.compute_reserved -= crate::engine::SESSION_COMPUTE_COST;
                adm.storage_reserved_gb -= crate::engine::SESSION_STORAGE_GB;
                adm.accepted -= 1;
                json_err(429, "telemetry queue full — shed")
            }
        }
        "depart" => {
            let mut adm = shared.admission.lock().expect("admission poisoned");
            if !adm.active[device] {
                return json_err(422, "no active session for device");
            }
            if shared.enqueue(Op::Depart { device }) {
                adm.active[device] = false;
                adm.compute_reserved -= crate::engine::SESSION_COMPUTE_COST;
                adm.storage_reserved_gb -= crate::engine::SESSION_STORAGE_GB;
                drop(adm);
                json_ok(202, Json::obj([("departed", Json::Bool(true))]))
            } else {
                json_err(429, "telemetry queue full — shed")
            }
        }
        _ => json_err(422, "action must be arrive or depart"),
    }
}

fn post_brownout(req: &Request, shared: &Shared) -> Routed {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(e) => return e,
    };
    let factor = match finite_in(&body, "factor", 0.0, 1.0) {
        Ok(Some(f)) => f,
        Ok(None) => return json_err(422, "missing factor"),
        Err(e) => return e,
    };
    shared.admission.lock().expect("admission poisoned").brownout = factor;
    enqueue_or_shed(shared, Op::Brownout { factor })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_response;
    use std::io::{BufReader, Read};

    /// A connected loopback pair: `(server side, client side)`.
    fn pair(listener: &TcpListener) -> (TcpStream, TcpStream) {
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        (server, client)
    }

    #[test]
    fn drain_is_refused_with_503_and_overload_with_429() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let queue = ConnQueue::new(1, 1);
        let (a, _a_client) = pair(&listener);
        assert!(queue.push(a).is_ok());

        let (b, b_client) = pair(&listener);
        let full = queue.push(b).unwrap_err();
        assert!(matches!(full, Refused::Full(_)), "{full:?}");
        refuse(full);
        let reply = read_response(&mut BufReader::new(b_client)).unwrap();
        assert_eq!(reply.status, 429);
        assert!(String::from_utf8_lossy(&reply.body).contains("connection queue full"));

        queue.stop();
        let (c, c_client) = pair(&listener);
        let draining = queue.push(c).unwrap_err();
        assert!(matches!(draining, Refused::Draining(_)), "{draining:?}");
        refuse(draining);
        let reply = read_response(&mut BufReader::new(c_client)).unwrap();
        assert_eq!(reply.status, 503);
        assert!(!reply.keep_alive);
        assert!(String::from_utf8_lossy(&reply.body).contains("draining"));
        // What was queued before the stop is still handed out.
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_none());
    }

    #[test]
    fn a_queued_connection_evicts_the_longest_idle_one() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let queue = ConnQueue::new(8, 0);
        let (old, mut old_client) = pair(&listener);
        let (young, _young_client) = pair(&listener);
        let old_token = queue.park(old.try_clone().unwrap()).expect("nothing queued");
        let young_token = queue.park(young.try_clone().unwrap()).expect("nothing queued");
        assert_eq!(queue.must_yield(), None);

        // No worker is free, so the push must free one up.
        let (queued, _queued_client) = pair(&listener);
        assert!(queue.push(queued).is_ok());
        assert_eq!(queue.reclaim(old_token).unwrap_err(), Close::Evicted, "the longest idle goes");
        assert_eq!(old_client.read(&mut [0u8; 1]).unwrap(), 0, "its client sees end of stream");
        assert!(queue.reclaim(young_token).is_ok(), "one eviction per queued connection");

        // While a connection is queued, nobody may go (back) to idle.
        assert_eq!(queue.must_yield(), Some(Close::Evicted));
        assert_eq!(queue.park(young.try_clone().unwrap()).unwrap_err(), Close::Evicted);
        queue.release(); // the evicted connection's worker comes for it
        assert!(queue.pop().is_some());
        assert_eq!(queue.must_yield(), None);
        let token = queue.park(young.try_clone().unwrap()).expect("queue drained");

        queue.stop();
        assert_eq!(queue.reclaim(token).unwrap_err(), Close::Drain, "stop evicts every parked handle");
        assert_eq!(queue.park(young).unwrap_err(), Close::Drain, "and nothing parks afterwards");
    }
}
