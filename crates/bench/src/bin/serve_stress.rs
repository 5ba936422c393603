//! Loopback stress harness for `lpvs-serve`: where does the service
//! saturate, and how does it behave past that point?
//!
//! Boots an in-process server (interval slot clock, so the slot
//! pipeline runs concurrently with the load), admits a diurnal session
//! population, then replays telemetry at ramped offered rates whose
//! instantaneous intensity follows the [`diurnal_factor`] envelope —
//! one compressed trace day per load level, the same shape
//! `lpvs-trace` gives capacity studies.
//!
//! Per level it reports achieved throughput, p50/p99 request latency,
//! the shed fraction (429s from the bounded connection and op queues),
//! the 5xx count, and connections opened per request. Every level runs
//! in two connection shapes: `persistent` (each client thread keeps one
//! connection and reconnects only when the server closes or evicts it)
//! and `per_request` (every request asks for `connection: close`). The
//! server's worker pool is fixed, so the persistent shape only stays
//! persistent while clients ≤ workers — the artifact's host block says
//! which side of that a run was on. The acceptance claims this binary
//! checks, in both shapes:
//!
//! * **below saturation**: zero 5xx — overload never turns into server
//!   errors;
//! * **beyond saturation**: the server *sheds* (429 fraction grows) but
//!   never hangs — every request is answered inside the client timeout.
//!
//! Writes `BENCH_serve.json` at the repository root; the committed
//! smoke numbers of the persistent shape (`persistent.smoke.p99_secs`,
//! `persistent.smoke.shed_fraction`) are gated by the bench sentinel.
//! `--smoke` runs the single smoke operating point for CI.
//!
//! [`diurnal_factor`]: lpvs_trace::diurnal::diurnal_factor

use lpvs_obs::json::Json;
use lpvs_serve::http::{read_response, render_request};
use lpvs_serve::{serve, ServeConfig, TickMode};
use lpvs_trace::diurnal::{diurnal_factor, SLOTS_PER_DAY};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Diurnal envelope: prime time carries 3x the dawn trough.
const TROUGH: f64 = 0.5;
const PEAK: f64 = 1.5;
/// A level whose shed fraction exceeds this is saturated.
const SATURATION_SHED: f64 = 0.05;

/// One client thread's connection policy and connect count.
struct Client {
    addr: SocketAddr,
    /// Keep the connection between requests; otherwise every request
    /// carries `connection: close`.
    persistent: bool,
    conn: Option<BufReader<TcpStream>>,
    connects: u64,
}

impl Client {
    fn new(addr: SocketAddr, persistent: bool) -> Self {
        Self { addr, persistent, conn: None, connects: 0 }
    }

    fn connect(&mut self) -> std::io::Result<BufReader<TcpStream>> {
        let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        stream.set_nodelay(true)?;
        self.connects += 1;
        Ok(BufReader::new(stream))
    }

    /// Writes `wire`, reads the framed response, and keeps the
    /// connection if both sides allow it.
    fn exchange(&mut self, mut conn: BufReader<TcpStream>, wire: &[u8]) -> std::io::Result<u16> {
        conn.get_mut().write_all(wire)?;
        let response = read_response(&mut conn)?;
        if self.persistent && response.keep_alive {
            self.conn = Some(conn);
        }
        Ok(response.status)
    }

    /// One request; returns `(status, seconds)`, connect included. A
    /// kept connection the server has meanwhile closed (idle limit,
    /// eviction) is replaced once, inside the measured time.
    fn timed_request(&mut self, method: &str, path: &str, body: &str) -> Option<(u16, f64)> {
        let started = Instant::now();
        let wire = render_request(method, path, body, !self.persistent);
        let kept = self.conn.take().and_then(|conn| self.exchange(conn, &wire).ok());
        let status = match kept {
            Some(status) => status,
            None => {
                let conn = self.connect().ok()?;
                self.exchange(conn, &wire).ok()?
            }
        };
        Some((status, started.elapsed().as_secs_f64()))
    }
}

/// Whether `GET /healthz` reports the slot loop live. It answers 200
/// while the server is still recovering too, and sessions are refused
/// with 503 until the first live slot begins.
fn is_live(addr: SocketAddr) -> bool {
    let probe = || -> std::io::Result<bool> {
        let mut conn = BufReader::new(TcpStream::connect_timeout(&addr, Duration::from_secs(5))?);
        conn.get_ref().set_read_timeout(Some(Duration::from_secs(5)))?;
        conn.get_mut().write_all(&render_request("GET", "/healthz", "", true))?;
        let response = read_response(&mut conn)?;
        let body = String::from_utf8_lossy(&response.body);
        Ok(response.status == 200 && body.contains("\"status\":\"live\""))
    };
    probe().unwrap_or(false)
}

struct LevelStats {
    rps_target: f64,
    total: u64,
    connects: u64,
    shed: u64,
    http_5xx: u64,
    transport_errors: u64,
    achieved_rps: f64,
    p50_secs: f64,
    p99_secs: f64,
}

impl LevelStats {
    fn connections_per_request(&self) -> f64 {
        self.connects as f64 / self.total.max(1) as f64
    }

    fn shed_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.shed as f64 / self.total as f64
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Offers ~`rps` telemetry requests for `secs`, intensity following one
/// compressed diurnal day, across `clients` threads.
fn run_level(
    addr: SocketAddr,
    rps: f64,
    secs: f64,
    clients: usize,
    devices: usize,
    persistent: bool,
) -> LevelStats {
    let end = Instant::now() + Duration::from_secs_f64(secs);
    let started = Instant::now();
    let results: Vec<(Vec<f64>, u64, u64, u64, u64, u64)> = std::thread::scope(|scope| {
        (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::new(addr, persistent);
                    let mut latencies: Vec<f64> = Vec::new();
                    let (mut total, mut shed, mut errs_5xx, mut transport) = (0u64, 0u64, 0u64, 0u64);
                    let mut i = c;
                    while Instant::now() < end {
                        // Map elapsed time onto one diurnal day so the
                        // offered intensity breathes like a real trace.
                        let frac = 1.0 - (end - Instant::now()).as_secs_f64() / secs;
                        let slot = (frac * SLOTS_PER_DAY as f64) as u64;
                        let factor = diurnal_factor(slot, TROUGH, PEAK);
                        let device = i % devices;
                        let body = format!(
                            "{{\"device\":{device},\"energy_j\":{},\"observed\":{:.3}}}",
                            12000 + (i % 9000),
                            0.3 + 0.0001 * (i % 1000) as f64
                        );
                        match client.timed_request("POST", "/v1/telemetry", &body) {
                            Some((status, latency)) => {
                                total += 1;
                                latencies.push(latency);
                                match status {
                                    429 => shed += 1,
                                    500..=599 => errs_5xx += 1,
                                    _ => {}
                                }
                            }
                            None => transport += 1,
                        }
                        i += clients;
                        // Pace to the diurnally-modulated offered rate;
                        // below sleep granularity just burst.
                        let interval = clients as f64 / (rps * factor);
                        if interval > 0.000_5 {
                            std::thread::sleep(Duration::from_secs_f64(interval.min(0.25)));
                        }
                    }
                    (latencies, total, shed, errs_5xx, transport, client.connects)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut latencies: Vec<f64> = Vec::new();
    let (mut total, mut shed, mut http_5xx, mut transport_errors, mut connects) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for (l, t, s, e, x, c) in results {
        latencies.extend(l);
        total += t;
        shed += s;
        http_5xx += e;
        transport_errors += x;
        connects += c;
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    LevelStats {
        rps_target: rps,
        total,
        connects,
        shed,
        http_5xx,
        transport_errors,
        achieved_rps: total as f64 / elapsed,
        p50_secs: percentile(&latencies, 0.50),
        p99_secs: percentile(&latencies, 0.99),
    }
}

/// One connection shape's sweep over the offered levels.
struct Sweep {
    rows: Vec<LevelStats>,
    saturation_rps: Option<f64>,
}

fn run_sweep(addr: SocketAddr, levels: &[f64], secs: f64, clients: usize, devices: usize, persistent: bool) -> Sweep {
    println!(
        "\n{} connections\n{:>10} {:>10} {:>8} {:>8} {:>6} {:>10} {:>10} {:>8} {:>9}",
        if persistent { "persistent" } else { "per-request" },
        "offered", "achieved", "total", "shed", "5xx", "p50 (ms)", "p99 (ms)", "shed %", "conn/req"
    );
    let mut sweep = Sweep { rows: Vec::new(), saturation_rps: None };
    for &rps in levels {
        let stats = run_level(addr, rps, secs, clients, devices, persistent);
        println!(
            "{:>10.0} {:>10.0} {:>8} {:>8} {:>6} {:>10.2} {:>10.2} {:>7.1}% {:>9.3}",
            stats.rps_target,
            stats.achieved_rps,
            stats.total,
            stats.shed,
            stats.http_5xx,
            1e3 * stats.p50_secs,
            1e3 * stats.p99_secs,
            100.0 * stats.shed_fraction(),
            stats.connections_per_request(),
        );
        if sweep.saturation_rps.is_none() && stats.shed_fraction() > SATURATION_SHED {
            sweep.saturation_rps = Some(stats.rps_target);
        }
        // Below saturation the service must answer without server
        // errors; beyond it, it sheds — it never converts load into 5xx.
        if sweep.saturation_rps.is_none() || sweep.saturation_rps == Some(stats.rps_target) {
            assert_eq!(stats.http_5xx, 0, "5xx below saturation at {rps} rps");
        }
        sweep.rows.push(stats);
    }
    match sweep.saturation_rps {
        Some(rps) => println!("saturation at ~{rps:.0} rps offered (shed > {SATURATION_SHED})"),
        None => println!("no saturation within the swept levels"),
    }
    sweep
}

impl LevelStats {
    fn json(&self) -> Json {
        Json::obj([
            ("rps_target", Json::Num(self.rps_target)),
            ("achieved_rps", Json::Num(self.achieved_rps)),
            ("total", Json::Num(self.total as f64)),
            ("connections_per_request", Json::Num(self.connections_per_request())),
            ("shed", Json::Num(self.shed as f64)),
            ("http_5xx", Json::Num(self.http_5xx as f64)),
            ("transport_errors", Json::Num(self.transport_errors as f64)),
            ("p50_secs", Json::Num(self.p50_secs)),
            ("p99_secs", Json::Num(self.p99_secs)),
            ("shed_fraction", Json::Num(self.shed_fraction())),
        ])
    }
}

impl Sweep {
    /// `smoke` is the lowest level: the row `--smoke` runs alone and
    /// the sentinel gates.
    fn json(&self) -> Json {
        Json::obj([
            ("saturation_rps", self.saturation_rps.map(Json::Num).unwrap_or(Json::Null)),
            ("smoke", self.rows[0].json()),
            ("levels", Json::Arr(self.rows.iter().map(LevelStats::json).collect())),
        ])
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let devices = if smoke { 64 } else { 256 };
    let clients = if smoke { 4 } else { 8 };
    let level_secs = if smoke { 2.0 } else { 3.0 };
    let levels: &[f64] = if smoke { &[300.0] } else { &[250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0] };

    // A deliberately tight operating envelope: a 100 ms slot clock
    // draining a 256-deep op queue bounds sustainable ingest at about
    // 2.5k ops/s — the sweep crosses that, so the artifact shows both
    // regimes (clean service below, graceful shedding beyond).
    let mut config = ServeConfig::loopback(devices);
    config.tick = TickMode::Interval(Duration::from_millis(100));
    config.http_workers = 4;
    config.ops_queue = 256;
    let http_workers = config.http_workers;
    let handle = serve(config).expect("bind loopback server");
    let addr = handle.addr;

    // Wait for the slot loop to go live, then admit the session
    // population the telemetry stream will mutate.
    while !is_live(addr) {
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut control = Client::new(addr, true);
    let mut admitted = 0usize;
    for device in 0..devices {
        let body = format!(
            "{{\"action\":\"arrive\",\"device\":{device},\"energy_j\":{},\"gamma\":0.3}}",
            15000 + 50 * device
        );
        match control.timed_request("POST", "/v1/sessions", &body) {
            Some((202, _)) => admitted += 1,
            Some((429, _)) => break, // admission-controlled edge is full
            other => panic!("arrival for {device} failed: {other:?}"),
        }
    }
    // The control connection must not sit on a worker during the sweep.
    control.conn = None;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "serve_stress — {devices} devices ({admitted} admitted), {clients} clients on {http_workers} \
         HTTP workers, {nproc} cores, diurnal envelope [{TROUGH}, {PEAK}]{}",
        if smoke { " (smoke)" } else { "" }
    );
    if clients > http_workers {
        println!(
            "note: more clients than workers — idle kept-alive connections are evicted for queued \
             ones, so the persistent shape degrades towards one request per connection"
        );
    }

    let persistent = run_sweep(addr, levels, level_secs, clients, devices, true);
    let per_request = run_sweep(addr, levels, level_secs, clients, devices, false);

    // Graceful drain: every in-flight slot joins, the final checkpoint
    // round seals (a kill here would resume bit-identically).
    let _ = control.timed_request("POST", "/v1/shutdown", "{}");
    handle.join();

    let artifact = Json::obj([
        ("bench", Json::Str("serve_stress".into())),
        ("smoke_mode", Json::Bool(smoke)),
        ("devices", Json::Num(devices as f64)),
        ("admitted", Json::Num(admitted as f64)),
        ("diurnal_trough", Json::Num(TROUGH)),
        ("diurnal_peak", Json::Num(PEAK)),
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(nproc as f64)),
                ("http_workers", Json::Num(http_workers as f64)),
                ("clients", Json::Num(clients as f64)),
                ("clients_exceed_workers", Json::Bool(clients > http_workers)),
            ]),
        ),
        ("persistent", persistent.json()),
        ("per_request", per_request.json()),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, format!("{artifact}\n")).expect("write BENCH_serve.json");
    println!("\nwrote {path}");
}
