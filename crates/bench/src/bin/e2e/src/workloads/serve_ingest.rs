//! `serve-ingest` — an in-process `lpvs-serve` on loopback, driven over
//! real sockets by two closed-loop clients.
//!
//! Each round every admitted device reports once (`POST /v1/telemetry`,
//! new battery energy and an observed power-reduction ratio), then the
//! slot clock is ticked twice and the decision polled. The loop is closed
//! because a reporter waits for its 202 before its next report, and it
//! has two clients because the reference host has two cores.
//!
//! The batch phase is accept → parse → queue → respond; the tick phase
//! is request → `ServeEngine` → `SlotRuntime` → solve → decision at a
//! size where the solver is minor. Every row is dirty each slot, so delta
//! reuse is bypassed, and the emulator is not involved.

use super::{timed_setup, OnOff, Outcome};
use crate::check::{ensure, Checker};
use crate::host::{CLIENT_THREADS, SHARDS};
use crate::http::{telemetry_wire, Client, Split};
use crate::layers;
use crate::spans::Recorder;
use crate::stats::{median, median_rate, percentile, Fnv};
use crate::{host, Spec};
use lpvs_core::problem::{DeviceRequest, SlotProblem};
use lpvs_obs::json::Json;
use lpvs_serve::engine::{CAPACITY_J, SESSION_COMPUTE_COST, SESSION_STORAGE_GB};
use lpvs_serve::{serve, ServeConfig, ServerHandle, TickMode};
use lpvs_survey::curve::AnxietyCurve;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const MAX_DEVICES: usize = 4_096;
/// Sized so one round's reports fill about a third of the queue: the
/// shed floor stays `exact` and no report is refused.
const OPS_QUEUE: usize = 8_192;
const ROUNDS_PER_TEN_SECONDS: usize = 20;
/// Pause between decision polls: short against a ≈ 20 ms decision, long
/// enough not to take a core from the two solver shards.
const POLL_PAUSE: Duration = Duration::from_micros(250);
const POLL_LIMIT: usize = 40_000;
/// A set-up round (boot, admit, warm-up slot) is ≈ 0.35 s.
const SETUP_ROUNDS: usize = 5;

/// Point `index` of a low-discrepancy sequence in `[0, 1)` (multiples of
/// an irrational `step`, shifted by a seeded `offset`): the inputs differ
/// from seed to seed, but their mean and quantiles barely do, so a
/// population statistic such as the saving ratio is comparable across
/// seeds.
fn stratified(index: u64, step: f64, offset: f64) -> f64 {
    (index as f64 * step + offset).fract()
}

/// A uniform draw in `[0, 1)` that is a pure function of the seed and
/// two coordinates (splitmix64), so load generators need no shared RNG
/// stream and threads cannot reorder the inputs.
fn draw(seed: u64, a: u64, b: u64) -> f64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Golden-ratio and √2 steps of the stratified device populations.
const GAMMA_STEP: f64 = 0.618_033_988_749_895;
const ENERGY_STEP: f64 = 0.414_213_562_373_095;

/// The γ a device truly has; its reports scatter around it.
fn true_gamma(seed: u64, device: usize) -> f64 {
    0.15 + 0.30 * stratified(device as u64, GAMMA_STEP, draw(seed, 0, 1))
}

/// Battery energy device `device` reports in `round` (arrival is round 0
/// of its own stream).
fn energy_j(seed: u64, stream: u64, device: usize) -> f64 {
    CAPACITY_J * (0.05 + 0.90 * stratified(device as u64, ENERGY_STEP, draw(seed, stream, 2)))
}

fn telemetry_body(seed: u64, round: usize, device: usize) -> String {
    let energy = energy_j(seed, 1 + round as u64, device);
    let observed =
        true_gamma(seed, device) * (0.95 + 0.10 * draw(seed, device as u64, 7_000 + round as u64));
    format!("{{\"device\":{device},\"energy_j\":{energy:.1},\"observed\":{observed:.4}}}")
}

/// A booted server with its admitted population. Dropping it drains and
/// joins the server, so no thread or socket outlives a set-up round.
struct Booted {
    handle: Option<ServerHandle>,
    addr: SocketAddr,
    admitted: Vec<usize>,
    /// The next undecided slot.
    next_slot: usize,
}

impl Drop for Booted {
    fn drop(&mut self) {
        let _ = Client::new(self.addr).request("POST", "/v1/shutdown", "{}");
        if let Some(handle) = self.handle.take() {
            handle.join();
        }
    }
}

fn expect(status: u16, want: u16, what: &str) -> Result<(), String> {
    ensure(status == want, || {
        format!("{what} answered {status}, expected {want}")
    })
}

/// Ticks the slot clock twice and polls until slot `slot` is decided:
/// the pipeline hands a slot's decision over while the next slot runs.
/// Returns the decision and how many polls it took.
fn tick_to_decision(
    client: &mut Client,
    slot: usize,
    checks: &mut Checker,
    tick_us: &mut Vec<f64>,
    get_us: &mut Vec<f64>,
) -> Option<(Json, usize)> {
    for _ in 0..2 {
        match client.request("POST", "/v1/tick", "{}") {
            Ok((reply, split)) => {
                tick_us.push(1e6 * split.total_s());
                checks.op(expect(reply.status, 202, "tick"));
            }
            Err(e) => checks.op(Err(format!("tick transport error: {e}"))),
        }
    }
    let path = format!("/v1/schedule/{slot}");
    for polls in 1..=POLL_LIMIT {
        match client.request("GET", &path, "") {
            Ok((reply, split)) if reply.status == 200 => {
                get_us.push(1e6 * split.total_s());
                let decision = std::str::from_utf8(&reply.body)
                    .ok()
                    .and_then(|t| Json::parse(t).ok());
                return decision.map(|d| (d, polls));
            }
            // Not decided yet is the one non-2xx the script expects.
            Ok((reply, _)) if reply.status == 404 => std::thread::sleep(POLL_PAUSE),
            Ok((reply, _)) => {
                checks.op(expect(reply.status, 200, "schedule"));
                return None;
            }
            Err(e) => {
                checks.op(Err(format!("schedule transport error: {e}")));
                return None;
            }
        }
    }
    checks.op(Err(format!(
        "slot {slot} undecided after {POLL_LIMIT} polls"
    )));
    None
}

fn boot(spec: &Spec) -> Booted {
    let max_devices = spec.size(MAX_DEVICES);
    let mut config = ServeConfig::loopback(max_devices);
    config.tick = TickMode::Manual;
    config.shards = SHARDS;
    config.http_workers = CLIENT_THREADS;
    config.ops_queue = OPS_QUEUE;
    let handle = serve(config).expect("bind a loopback port");
    let addr = handle.addr;
    let mut client = Client::new(addr);
    // Arrivals are refused until the slot loop is live.
    loop {
        let live = client
            .request("GET", "/healthz", "")
            .is_ok_and(|(r, _)| String::from_utf8_lossy(&r.body).contains("\"live\""));
        if live {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // Admit sessions until admission control says the edge is full.
    let mut admitted = Vec::new();
    for device in 0..max_devices {
        let body = format!(
            "{{\"action\":\"arrive\",\"device\":{device},\"energy_j\":{:.1},\"gamma\":{:.4}}}",
            energy_j(spec.seed, 0, device),
            true_gamma(spec.seed, device),
        );
        match client.request("POST", "/v1/sessions", &body) {
            Ok((reply, _)) if reply.status == 202 => admitted.push(device),
            Ok((reply, _)) if reply.status == 429 => break,
            other => panic!("arrival of device {device} failed: {other:?}"),
        }
    }
    // Slot 0 drains the arrivals and solves all-dirty and cold: warm-up.
    let mut discard = Checker::default();
    let decided = tick_to_decision(
        &mut client,
        0,
        &mut discard,
        &mut Vec::new(),
        &mut Vec::new(),
    );
    assert!(
        decided.is_some() && discard.failed == 0,
        "warm-up slot failed: {:?}",
        discard.reasons
    );
    Booted {
        handle: Some(handle),
        addr,
        admitted,
        next_slot: 2,
    }
}

/// One client thread's state across rounds.
struct Lane {
    client: Client,
    rec: Recorder,
    checks: Checker,
    splits: Vec<Split>,
    shed_429: u64,
    http_5xx: u64,
    transport_errors: u64,
}

impl Lane {
    fn report(&mut self, seed: u64, round: usize, device: usize) -> bool {
        let body = telemetry_body(seed, round, device);
        match self.client.request("POST", "/v1/telemetry", &body) {
            Ok((reply, split)) => {
                let id = device as u64;
                self.rec
                    .record("serve.request", id, split.start, split.done);
                self.rec
                    .record("serve.connect", id, split.start, split.connected);
                self.rec
                    .record("serve.write", id, split.connected, split.written);
                self.rec
                    .record("serve.first_byte", id, split.written, split.first_byte);
                self.rec
                    .record("serve.read", id, split.first_byte, split.done);
                self.splits.push(split);
                match reply.status {
                    429 => self.shed_429 += 1,
                    500..=599 => self.http_5xx += 1,
                    _ => {}
                }
                self.checks.op(expect(reply.status, 202, "telemetry"));
                reply.status == 202
            }
            Err(e) => {
                self.transport_errors += 1;
                self.checks
                    .op(Err(format!("telemetry transport error: {e}")));
                false
            }
        }
    }
}

/// The server's own capacity rows: every session costs the same, against
/// the envelope `ServeConfig::loopback` sizes.
fn capacity_rows(max_devices: usize) -> SlotProblem {
    let envelope = lpvs_serve::EngineConfig::sized(max_devices);
    let mut problem = SlotProblem::new(
        envelope.compute_capacity,
        envelope.storage_capacity_gb,
        envelope.lambda,
        AnxietyCurve::paper_shape(),
    );
    for _ in 0..max_devices {
        problem.push(DeviceRequest::uniform(
            0.9,
            10.0,
            30,
            0.5 * CAPACITY_J,
            CAPACITY_J,
            0.3,
            SESSION_COMPUTE_COST,
            SESSION_STORAGE_GB,
        ));
    }
    problem
}

/// Checks one decision against the admitted population and the server's
/// capacity rows; returns the selected device ids.
fn verify_decision(
    decision: &Json,
    admitted: &[usize],
    rows: &SlotProblem,
) -> Result<Vec<usize>, String> {
    let max_devices = rows.len();
    let label = |key: &str| {
        decision
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or("missing")
    };
    ensure(label("tier") == "exact", || {
        format!("decision tier is {}", label("tier"))
    })?;
    ensure(label("shed_floor") == "exact", || {
        format!("shed floor is {}", label("shed_floor"))
    })?;
    let ids: Vec<usize> = decision
        .get("selected")
        .and_then(Json::as_arr)
        .ok_or("decision without a selection")?
        .iter()
        .filter_map(|v| v.as_u64().map(|d| d as usize))
        .collect();
    let count = decision
        .get("selected_count")
        .and_then(Json::as_u64)
        .unwrap_or(u64::MAX);
    ensure(count == ids.len() as u64, || {
        format!("selected_count {count} but {} ids", ids.len())
    })?;
    let mut is_admitted = vec![false; max_devices];
    for &d in admitted {
        is_admitted[d] = true;
    }
    let mut selected = vec![false; max_devices];
    for &d in &ids {
        ensure(d < max_devices && is_admitted[d], || {
            format!("device {d} selected but never admitted")
        })?;
        selected[d] = true;
    }
    ensure(rows.capacity_feasible(&selected), || {
        "decision violates a capacity row".to_owned()
    })?;
    Ok(ids)
}

pub fn run(spec: &Spec, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let rounds = spec.reps(ROUNDS_PER_TEN_SECONDS, 4);
    let (mut server, setup_s) = timed_setup(SETUP_ROUNDS, || boot(spec));
    let max_devices = spec.size(MAX_DEVICES);
    let admitted = server.admitted.clone();
    let epoch = Instant::now();
    let mut lanes: Vec<Lane> = (0..CLIENT_THREADS)
        .map(|_| Lane {
            client: Client::new(server.addr),
            rec: Recorder::new(spec.trace, epoch),
            checks: Checker::default(),
            splits: Vec::with_capacity(rounds * admitted.len() / CLIENT_THREADS + 1),
            shed_429: 0,
            http_5xx: 0,
            transport_errors: 0,
        })
        .collect();
    let mut ticker = Client::new(server.addr);
    let rows = capacity_rows(max_devices);

    let measure_start = Instant::now();
    let mut batches: Vec<(u64, f64)> = Vec::with_capacity(rounds);
    let mut decision_s = Vec::with_capacity(rounds);
    let (mut tick_us, mut get_us, mut polls) = (Vec::new(), Vec::new(), Vec::new());
    let mut round_secs = Vec::with_capacity(rounds);
    let mut round_on_off = OnOff::default();
    let mut last_selected: Vec<usize> = Vec::new();
    for round in 0..rounds {
        let spans_on = spec.trace && round % 2 == 0;
        rec.on = spans_on;
        let round_open = rec.enter("serve.round", round as u64);
        let round_start = Instant::now();

        // Batch phase: the reporters split the population between them.
        let acked: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .iter_mut()
                .enumerate()
                .map(|(lane_index, lane)| {
                    let admitted = &admitted;
                    scope.spawn(move || {
                        lane.rec.on = spans_on;
                        admitted
                            .iter()
                            .skip(lane_index)
                            .step_by(CLIENT_THREADS)
                            .filter(|&&device| lane.report(spec.seed, round, device))
                            .count() as u64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reporter thread"))
                .sum()
        });
        batches.push((acked, round_start.elapsed().as_secs_f64()));

        // Tick phase: first tick sent → decision available.
        let slot = server.next_slot;
        server.next_slot += 2;
        let tick_open = rec.enter("serve.tick_to_decision", slot as u64);
        let tick_start = Instant::now();
        let decided = tick_to_decision(
            &mut ticker,
            slot,
            &mut out.checks,
            &mut tick_us,
            &mut get_us,
        );
        let waited = tick_start.elapsed().as_secs_f64();
        rec.exit(tick_open);
        if let Some((decision, polled)) = decided {
            decision_s.push(waited);
            polls.push(polled as f64);
            match verify_decision(&decision, &admitted, &rows) {
                Ok(ids) => {
                    out.checks.op(Ok(()));
                    last_selected = ids;
                }
                Err(e) => out.checks.op(Err(format!("slot {slot}: {e}"))),
            }
        }
        rec.exit(round_open);
        let round_s = round_start.elapsed().as_secs_f64();
        round_secs.push(round_s);
        round_on_off.push(spans_on, round_s);
    }
    let measured_wall = measure_start.elapsed().as_secs_f64();
    rec.on = spec.trace;
    drop(server);

    let mut splits: Vec<Split> = Vec::new();
    let (mut requests, mut connects) = (ticker.requests, ticker.connects);
    let (mut shed_429, mut http_5xx, mut transport_errors) = (0, 0, 0);
    for lane in lanes {
        out.checks.absorb(lane.checks);
        rec.absorb(lane.rec);
        splits.extend(lane.splits);
        requests += lane.client.requests;
        connects += lane.client.connects;
        shed_429 += lane.shed_429;
        http_5xx += lane.http_5xx;
        transport_errors += lane.transport_errors;
    }
    let mut hash = Fnv::new();
    for &d in &last_selected {
        hash.u64(d as u64);
    }
    out.selection_hash = hash.finish();

    let latency_s: Vec<f64> = splits.iter().map(Split::total_s).collect();
    let telemetry_p50_s = out.timing("serve.telemetry_request_s", &latency_s).median;
    let decision = out.timing("slot_decision_s", &decision_s).median;
    if spec.trace {
        let part = |f: fn(&Split) -> (Instant, Instant)| {
            let us: Vec<f64> = splits
                .iter()
                .map(|s| {
                    let (a, b) = f(s);
                    1e6 * (b - a).as_secs_f64()
                })
                .collect();
            median(&us)
        };
        out.set("serve.ingest_rps", median_rate(&batches));
        out.set("serve.telemetry_p50_us", 1e6 * telemetry_p50_s);
        out.set("serve.connect_us", part(|s| (s.start, s.connected)));
        out.set("serve.write_us", part(|s| (s.connected, s.written)));
        out.set("serve.first_byte_us", part(|s| (s.written, s.first_byte)));
        out.set("serve.read_us", part(|s| (s.first_byte, s.done)));
        out.set("serve.request_p99_us", 1e6 * percentile(&latency_s, 0.99));
        out.set(
            "serve.connections_per_request",
            connects as f64 / requests.max(1) as f64,
        );
        out.set("serve.tick_ack_us", median(&tick_us));
        out.set("serve.schedule_get_us", median(&get_us));
        out.set("serve.schedule_polls", median(&polls));
        out.set("serve.shed_429", shed_429 as f64);
        out.set("serve.http_5xx", http_5xx as f64);
        out.set("serve.transport_errors", transport_errors as f64);
        out.set("bench.trace_overhead_ratio", round_on_off.ratio());
        out.set("bench.measured_wall_s", measured_wall);
        let body = telemetry_body(spec.seed, 0, admitted[0]);
        layers::serve_codecs(&telemetry_wire(&body), &body, rec, &mut out);
        layers::obs_span_cost(rec, &mut out);
    } else {
        out.set("setup_s", setup_s);
        out.set("slot_decision_s", decision);
        // One report per admitted device per slot decided, batch and
        // tick phases both on the clock; the median round, so that one
        // stalled round does not set the rate.
        out.set(
            "device_slots_per_s",
            admitted.len() as f64 / median(&round_secs),
        );
        // Every session plays the same 270 J slot, so the saving is the
        // selected devices' true γ over the admitted population.
        let saved: f64 = last_selected
            .iter()
            .map(|&d| true_gamma(spec.seed, d))
            .sum();
        out.set("energy_saving", saved / admitted.len() as f64);
        out.set("peak_rss_mb", host::peak_rss_mb());
    }
    println!(
        "serve-ingest: {} admitted of {max_devices}, {rounds} rounds, {requests} requests over {connects} connections, ingest {:.0} req/s (median of rounds)",
        admitted.len(),
        median_rate(&batches),
    );
    out
}
