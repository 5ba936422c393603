//! The serving engine: a [`SlotSource`]/[`SlotSink`]/[`SlotReplay`]
//! driver that turns HTTP-ingested telemetry and session churn into
//! slot solves, each published inside its slot.
//!
//! ## State model
//!
//! The engine owns one **persistent** [`DeviceFleet`] sized to the
//! configured device ceiling at boot — chunk layouts and per-session
//! costs are fixed at push time, so a "session" is a row toggling its
//! `connected` bit, and a disconnected row costs nothing (the
//! partitioner skips it). Arrivals, departures, telemetry, brownouts,
//! and γ observations queue as [`Op`]s in the bounded [`Shared`] queue;
//! the engine drains them **only at slot boundaries**, so every fleet
//! mutation goes through the dirty-bit setters and steady-state slots
//! ship a small [`SlotDelta`] frontier to the workers.
//!
//! ## Durability: the op journal
//!
//! Every drained op is appended to a JSON-lines journal *before* it is
//! applied, followed by a `slot` marker binding the batch to its slot
//! (and recording the slot's shed floor and γ-query list) and, at
//! gather time, a `gamma` marker recording the posterior values written
//! into the fleet. Together with the runtime's checkpoint store this
//! makes a killed server resumable **bit-identically**: banks come back
//! from the newest sealed checkpoint round, decided slots replay
//! through [`SlotReplay`], and journaled-but-undecided slots re-run
//! with exactly the ops, shed floor, and γ updates of the original run.
//! Ops acknowledged but not yet bound to a slot marker survive in the
//! journal tail and are re-queued on boot.
//!
//! A record is encoded only when a journal is open, and a live slot is
//! not retained: the engine holds the slots its journal had at boot —
//! to re-run them — and nothing of the ones it has served since, so its
//! memory does not grow with uptime (`serve_journal_retained_ops`).

use crate::shed::{floor_from_label, shed_floor};
use lpvs_bayes::GammaEstimator;
use lpvs_core::budget::SlotBudget;
use lpvs_core::delta::SlotDelta;
use lpvs_core::fleet::{DeviceFleet, FleetDevice};
use lpvs_core::problem::DeviceRequest;
use lpvs_core::scheduler::Degradation;
use lpvs_display::DisplayKind;
use lpvs_edge::server::EdgeServer;
use lpvs_obs::json::Json;
use lpvs_runtime::{BankOps, GatheredSlot, SlotFeedback, SlotReplay, SlotSink, SlotSource, SolvedSlot};
use lpvs_survey::curve::AnxietyCurve;
use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Battery capacity every served device reports (J) — the paper's
/// 55 440 J pack (3.85 V, 4 Ah).
pub const CAPACITY_J: f64 = 55_440.0;
/// Edge compute units one admitted session reserves.
pub const SESSION_COMPUTE_COST: f64 = 1.0;
/// Edge storage one admitted session reserves (GB).
pub const SESSION_STORAGE_GB: f64 = 0.1125;
/// Decided slots kept addressable by `GET /v1/schedule/{slot}`.
const SCHEDULE_RETENTION: usize = 4096;

/// Engine configuration (the solver-facing half of the server config).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Device-id ceiling: ids live in `[0, max_devices)` and the fleet
    /// holds exactly this many rows for the whole run.
    pub max_devices: usize,
    /// Edge compute capacity admission and solves run against.
    pub compute_capacity: f64,
    /// Edge storage capacity (GB).
    pub storage_capacity_gb: f64,
    /// Regularization λ.
    pub lambda: f64,
    /// Stop after this many slots (`None`: run until shutdown).
    pub horizon: Option<usize>,
    /// Op journal path (`None` disables durability for ops — resume
    /// then only covers checkpointed state).
    pub journal: Option<PathBuf>,
}

impl EngineConfig {
    /// A config for `max_devices` devices with nokia-airframe-shaped
    /// per-device capacity headroom (~72% concurrent admission).
    pub fn sized(max_devices: usize) -> Self {
        Self {
            max_devices,
            compute_capacity: 0.72 * SESSION_COMPUTE_COST * max_devices as f64,
            storage_capacity_gb: 0.72 * SESSION_STORAGE_GB * max_devices as f64,
            lambda: 1.0,
            horizon: None,
            journal: None,
        }
    }
}

/// One queued mutation, drained at the next slot boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A session arrived (admission already accounted at the HTTP
    /// layer): connect the row and seed its state.
    Arrive {
        /// Device id.
        device: usize,
        /// Reported battery energy (J).
        energy_j: f64,
        /// Initial γ mean.
        gamma: f64,
        /// OLED panel (LCD otherwise).
        oled: bool,
    },
    /// A session departed: disconnect the row.
    Depart {
        /// Device id.
        device: usize,
    },
    /// Mid-session telemetry; every field optional.
    Telemetry {
        /// Device id.
        device: usize,
        /// Updated battery energy (J).
        energy_j: Option<f64>,
        /// Updated γ belief `(mean, std)` pushed straight into the row.
        gamma: Option<(f64, f64)>,
        /// Panel change.
        oled: Option<bool>,
        /// Observed power-reduction ratio — γ feedback routed through
        /// the Bayes banks.
        observed: Option<f64>,
    },
    /// Edge brownout: capacity factor in `[0, 1]` until further notice.
    Brownout {
        /// Multiplicative capacity factor.
        factor: f64,
    },
}

impl Op {
    /// The op as one journal line.
    fn to_json(&self) -> Json {
        match self {
            Op::Arrive { device, energy_j, gamma, oled } => Json::obj([
                ("op", Json::Str("arrive".into())),
                ("device", Json::Num(*device as f64)),
                ("energy_j", Json::Num(*energy_j)),
                ("gamma", Json::Num(*gamma)),
                ("oled", Json::Bool(*oled)),
            ]),
            Op::Depart { device } => Json::obj([
                ("op", Json::Str("depart".into())),
                ("device", Json::Num(*device as f64)),
            ]),
            Op::Telemetry { device, energy_j, gamma, oled, observed } => {
                let mut pairs = vec![
                    ("op", Json::Str("telemetry".into())),
                    ("device", Json::Num(*device as f64)),
                ];
                if let Some(e) = energy_j {
                    pairs.push(("energy_j", Json::Num(*e)));
                }
                if let Some((m, s)) = gamma {
                    pairs.push(("gamma_mean", Json::Num(*m)));
                    pairs.push(("gamma_std", Json::Num(*s)));
                }
                if let Some(o) = oled {
                    pairs.push(("oled", Json::Bool(*o)));
                }
                if let Some(r) = observed {
                    pairs.push(("observed", Json::Num(*r)));
                }
                Json::obj(pairs)
            }
            Op::Brownout { factor } => Json::obj([
                ("op", Json::Str("brownout".into())),
                ("factor", Json::Num(*factor)),
            ]),
        }
    }

    /// Parses one journal op line (`None`: not an op or malformed).
    fn from_json(v: &Json) -> Option<Op> {
        let kind = v.get("op")?.as_str()?;
        let device = || v.get("device")?.as_u64().map(|d| d as usize);
        match kind {
            "arrive" => Some(Op::Arrive {
                device: device()?,
                energy_j: v.get("energy_j")?.as_f64()?,
                gamma: v.get("gamma")?.as_f64()?,
                oled: matches!(v.get("oled"), Some(Json::Bool(true))),
            }),
            "depart" => Some(Op::Depart { device: device()? }),
            "telemetry" => Some(Op::Telemetry {
                device: device()?,
                energy_j: v.get("energy_j").and_then(Json::as_f64),
                gamma: match (
                    v.get("gamma_mean").and_then(Json::as_f64),
                    v.get("gamma_std").and_then(Json::as_f64),
                ) {
                    (Some(m), Some(s)) => Some((m, s)),
                    _ => None,
                },
                oled: v.get("oled").map(|o| matches!(o, Json::Bool(true))),
                observed: v.get("observed").and_then(Json::as_f64),
            }),
            "brownout" => Some(Op::Brownout { factor: v.get("factor")?.as_f64()? }),
            _ => None,
        }
    }
}

/// The bounded op queue plus the slot clock's signalling state.
#[derive(Debug)]
pub struct OpsQueue {
    /// Pending ops, drained at the next slot boundary.
    pub ops: VecDeque<Op>,
    /// Queue bound; a push beyond it is a shed (429).
    pub capacity: usize,
    /// Pending slot ticks (manual `/v1/tick` posts or the interval
    /// ticker); each consumed tick runs one slot.
    pub ticks: usize,
    /// Graceful-shutdown latch: pending ops still run one final slot,
    /// then the engine ends the horizon.
    pub shutdown: bool,
    /// Worst shed floor any enqueue saw since the last drain — the
    /// next slot's solver floor.
    pub shed_high_water: Degradation,
}

/// Session admission state, checked and updated at the HTTP layer.
#[derive(Debug)]
pub struct Admission {
    /// The un-browned edge capacity envelope.
    pub server: EdgeServer,
    /// Current brownout factor in `[0, 1]` (`0` ⇒ sessions get 503).
    pub brownout: f64,
    /// Compute currently reserved by admitted sessions.
    pub compute_reserved: f64,
    /// Storage currently reserved by admitted sessions (GB).
    pub storage_reserved_gb: f64,
    /// Per-device session liveness.
    pub active: Vec<bool>,
    /// Sessions admitted over the run.
    pub accepted: u64,
    /// Sessions rejected by admission (capacity) over the run.
    pub rejected: u64,
}

impl Admission {
    /// Whether one more session fits under the browned-out envelope.
    pub fn fits_one(&self) -> bool {
        self.server.browned_out(self.brownout).fits(
            self.compute_reserved + SESSION_COMPUTE_COST,
            self.storage_reserved_gb + SESSION_STORAGE_GB,
        )
    }

    /// Active session count.
    pub fn active_sessions(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }
}

/// One decided slot as served by `GET /v1/schedule/{slot}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Device ids selected for low-power transformation.
    pub selected: Vec<usize>,
    /// Ladder rung the solve actually finished at.
    pub tier: Degradation,
    /// Shed floor the slot was dispatched with (`tier >= shed` always).
    pub shed: Degradation,
}

/// Server lifecycle phase, reported by `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Replaying the journal/checkpoints; sessions get 503.
    Recovering,
    /// Serving.
    Live,
    /// The slot loop has drained and the final checkpoint is sealed.
    Stopped,
}

impl Phase {
    /// Lowercase wire name.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Recovering => "recovering",
            Phase::Live => "live",
            Phase::Stopped => "stopped",
        }
    }
}

/// Observable run status.
#[derive(Debug)]
pub struct Status {
    /// Lifecycle phase.
    pub phase: Phase,
    /// Slots fully applied so far.
    pub slots: usize,
}

/// State shared between the HTTP workers and the engine.
pub struct Shared {
    /// The bounded op queue + slot clock.
    pub queue: Mutex<OpsQueue>,
    /// Signals queue pushes, ticks, and shutdown.
    pub clock: Condvar,
    /// Session admission state.
    pub admission: Mutex<Admission>,
    /// Decided slots, newest `SCHEDULE_RETENTION` retained.
    pub schedules: Mutex<BTreeMap<usize, Decision>>,
    /// Lifecycle + progress.
    pub status: Mutex<Status>,
}

impl Shared {
    /// Fresh shared state for `config`.
    pub fn new(config: &EngineConfig, queue_capacity: usize) -> Arc<Shared> {
        Arc::new(Shared {
            queue: Mutex::new(OpsQueue {
                ops: VecDeque::new(),
                capacity: queue_capacity.max(1),
                ticks: 0,
                shutdown: false,
                shed_high_water: Degradation::Exact,
            }),
            clock: Condvar::new(),
            admission: Mutex::new(Admission {
                server: EdgeServer::new(config.compute_capacity, config.storage_capacity_gb),
                brownout: 1.0,
                compute_reserved: 0.0,
                storage_reserved_gb: 0.0,
                active: vec![false; config.max_devices],
                accepted: 0,
                rejected: 0,
            }),
            schedules: Mutex::new(BTreeMap::new()),
            status: Mutex::new(Status { phase: Phase::Recovering, slots: 0 }),
        })
    }

    /// Enqueues an op, enforcing the bound and raising the shed
    /// high-water mark. `false` means the queue was full (shed the
    /// request with a 429).
    #[must_use]
    pub fn enqueue(&self, op: Op) -> bool {
        let mut q = self.queue.lock().expect("ops queue poisoned");
        if q.ops.len() >= q.capacity {
            lpvs_obs::inc("serve_shed_total");
            return false;
        }
        q.ops.push_back(op);
        let occupancy = q.ops.len() as f64 / q.capacity as f64;
        q.shed_high_water = q.shed_high_water.max(shed_floor(occupancy));
        drop(q);
        self.clock.notify_all();
        true
    }

    /// Adds a slot tick.
    pub fn tick(&self) {
        let mut q = self.queue.lock().expect("ops queue poisoned");
        q.ticks += 1;
        drop(q);
        self.clock.notify_all();
    }

    /// Latches graceful shutdown.
    pub fn shutdown(&self) {
        let mut q = self.queue.lock().expect("ops queue poisoned");
        q.shutdown = true;
        drop(q);
        self.clock.notify_all();
    }

    /// Records `phase` (and optionally the applied-slot counter).
    pub fn set_phase(&self, phase: Phase) {
        self.status.lock().expect("status poisoned").phase = phase;
    }
}

/// One slot's journaled record, parsed at boot (a live slot has none).
#[derive(Debug, Clone, Default)]
struct SlotJournal {
    ops: Vec<Op>,
    shed: Degradation,
    queries: Vec<usize>,
    /// γ posterior values the original gather wrote into the fleet.
    gamma: Option<Vec<(usize, f64, f64)>>,
}

/// Journal parse result: per-slot records plus the unbound tail.
struct ParsedJournal {
    slots: Vec<SlotJournal>,
    trailing: Vec<Op>,
}

fn parse_journal(path: &PathBuf) -> ParsedJournal {
    let mut slots: Vec<SlotJournal> = Vec::new();
    let mut pending: Vec<Op> = Vec::new();
    let Ok(file) = File::open(path) else {
        return ParsedJournal { slots, trailing: pending };
    };
    for line in BufReader::new(file).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        // A torn tail (crash mid-write) stops the parse; everything
        // before it is intact because markers are written after their
        // ops in one flush.
        let Ok(v) = Json::parse(&line) else { break };
        let Some(kind) = v.get("op").and_then(Json::as_str) else { break };
        match kind {
            "slot" => {
                let (Some(slot), Some(n)) = (
                    v.get("slot").and_then(Json::as_u64).map(|s| s as usize),
                    v.get("ops").and_then(Json::as_u64).map(|n| n as usize),
                ) else {
                    break;
                };
                if slot != slots.len() || n != pending.len() {
                    break; // out-of-order or torn batch: stop trusting
                }
                let shed = v
                    .get("shed")
                    .and_then(Json::as_str)
                    .and_then(floor_from_label)
                    .unwrap_or(Degradation::Exact);
                let queries = v
                    .get("queries")
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().filter_map(|q| q.as_u64().map(|d| d as usize)).collect())
                    .unwrap_or_default();
                slots.push(SlotJournal {
                    ops: std::mem::take(&mut pending),
                    shed,
                    queries,
                    gamma: None,
                });
            }
            "gamma" => {
                let Some(slot) = v.get("slot").and_then(Json::as_u64).map(|s| s as usize) else {
                    break;
                };
                if slot + 1 != slots.len() {
                    break;
                }
                let Some(last) = slots.last_mut() else { break };
                let updates = v
                    .get("updates")
                    .and_then(Json::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(|u| {
                                let u = u.as_arr()?;
                                Some((
                                    u.first()?.as_u64()? as usize,
                                    u.get(1)?.as_f64()?,
                                    u.get(2)?.as_f64()?,
                                ))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                last.gamma = Some(updates);
            }
            _ => match Op::from_json(&v) {
                Some(op) => pending.push(op),
                None => break,
            },
        }
    }
    ParsedJournal { slots, trailing: pending }
}

/// The serving engine. Exclusively owned by the runtime thread; talks
/// to the HTTP layer only through [`Shared`].
pub struct ServeEngine {
    config: EngineConfig,
    shared: Arc<Shared>,
    fleet: DeviceFleet,
    curve: AnxietyCurve,
    /// Previous slot's selection (fleet order), for warm starts.
    previous: Option<Vec<bool>>,
    /// γ observations drained this slot, returned by `apply`.
    feedback: Vec<(usize, f64)>,
    /// Devices whose posterior the *next* slot queries (= devices
    /// observed in the last applied slot).
    next_queries: Vec<usize>,
    /// The live slot's query list (journaled in the slot marker).
    queries: Vec<usize>,
    /// The live slot's shed floor: its solver floor at gather, and
    /// what its decision is published with.
    shed: Degradation,
    /// Engine-side brownout factor (journaled via `Op::Brownout`).
    brownout: f64,
    journal_file: Option<File>,
    /// Journal records from a previous incarnation, replayed/re-run.
    journaled: Vec<SlotJournal>,
    /// Slots fully applied (the next slot index; the seal slot).
    applied: usize,
}

impl ServeEngine {
    /// Builds the engine, loading (and re-queueing the unbound tail of)
    /// the journal when one is configured. The fleet starts fully
    /// disconnected; admission state is rebuilt from the journal so the
    /// HTTP layer starts from the same session set the previous
    /// incarnation held.
    ///
    /// # Errors
    ///
    /// The journal cannot be opened for appending; `shared` is left
    /// untouched.
    pub fn new(config: EngineConfig, shared: Arc<Shared>) -> io::Result<Self> {
        assert!(config.max_devices > 0, "serve fleet must be nonempty");
        let mut fleet = DeviceFleet::with_capacity(config.max_devices, 30);
        for _ in 0..config.max_devices {
            fleet.push(FleetDevice::from_request(DeviceRequest::uniform(
                0.9,
                10.0,
                30,
                0.5 * CAPACITY_J,
                CAPACITY_J,
                0.3,
                SESSION_COMPUTE_COST,
                SESSION_STORAGE_GB,
            )));
        }
        for d in 0..config.max_devices {
            fleet.set_connected(d, false);
        }

        let journal_file = config
            .journal
            .as_ref()
            .map(|p| OpenOptions::new().create(true).append(true).open(p))
            .transpose()?;
        let parsed = config
            .journal
            .as_ref()
            .map(parse_journal)
            .unwrap_or(ParsedJournal { slots: Vec::new(), trailing: Vec::new() });
        let mut brownout = 1.0;
        {
            // Rebuild admission from the journaled history: arrivals,
            // departures, and the standing brownout factor.
            let mut adm = shared.admission.lock().expect("admission poisoned");
            let all_ops = parsed
                .slots
                .iter()
                .flat_map(|s| s.ops.iter())
                .chain(parsed.trailing.iter());
            for op in all_ops {
                match op {
                    Op::Arrive { device, .. } => {
                        if !adm.active[*device] {
                            adm.active[*device] = true;
                            adm.compute_reserved += SESSION_COMPUTE_COST;
                            adm.storage_reserved_gb += SESSION_STORAGE_GB;
                            adm.accepted += 1;
                        }
                    }
                    Op::Depart { device } => {
                        if adm.active[*device] {
                            adm.active[*device] = false;
                            adm.compute_reserved -= SESSION_COMPUTE_COST;
                            adm.storage_reserved_gb -= SESSION_STORAGE_GB;
                        }
                    }
                    Op::Brownout { factor } => brownout = *factor,
                    Op::Telemetry { .. } => {}
                }
            }
            adm.brownout = brownout;
        }
        {
            let mut q = shared.queue.lock().expect("ops queue poisoned");
            for op in parsed.trailing.iter().rev() {
                q.ops.push_front(op.clone());
            }
        }
        // Brownout at *engine* level replays per-slot (ops are applied
        // in slot order), so start from 1.0 like the original run did.
        Ok(Self {
            config,
            shared,
            fleet,
            curve: AnxietyCurve::paper_shape(),
            previous: None,
            feedback: Vec::new(),
            next_queries: Vec::new(),
            queries: Vec::new(),
            shed: Degradation::Exact,
            brownout: 1.0,
            journal_file,
            journaled: parsed.slots,
            applied: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Paper-default γ estimators for a fresh run.
    pub fn estimators(&self) -> Vec<GammaEstimator> {
        vec![GammaEstimator::paper_default(); self.config.max_devices]
    }

    /// Slots fully applied — the slot index a sealed final checkpoint
    /// should carry so a resumed run re-enters right after them.
    pub fn applied_slots(&self) -> usize {
        self.applied
    }

    /// Highest slot the journal covered when this engine booted, if
    /// any. Slots at or below this re-run from the journal instead of
    /// the live queue; the slots served since are not counted.
    pub fn journaled_through(&self) -> Option<usize> {
        self.journaled.len().checked_sub(1)
    }

    /// Ops the re-run journal holds (`serve_journal_retained_ops`): the
    /// slots it had at boot; a live slot adds none.
    pub fn retained_ops(&self) -> usize {
        self.journaled.iter().map(|j| j.ops.len()).sum()
    }

    /// Appends one record — the lines `encode` returns — in one write
    /// and one flush. With no journal open `encode` is never called.
    fn journal_lines(&mut self, encode: impl FnOnce() -> Vec<String>) {
        let Some(file) = self.journal_file.as_mut() else { return };
        let mut buf = String::new();
        for line in encode() {
            buf.push_str(&line);
            buf.push('\n');
        }
        // Fail-stop on journal I/O errors would lose availability for a
        // durability feature; log-and-continue keeps serving (the op was
        // acknowledged as at-most-once anyway).
        if let Err(e) = file.write_all(buf.as_bytes()).and_then(|()| file.sync_data()) {
            eprintln!("lpvs-serve: journal append failed: {e}");
        }
    }

    /// Applies one drained batch to the fleet through the dirty-bit
    /// setters, buffering γ observations for `apply`.
    fn apply_ops(&mut self, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Arrive { device, energy_j, gamma, oled } => {
                    self.fleet.set_connected(*device, true);
                    self.fleet.set_energy_j(*device, *energy_j);
                    self.fleet.set_gamma(*device, *gamma, 0.0);
                    self.fleet.set_display(
                        *device,
                        if *oled { DisplayKind::Oled } else { DisplayKind::Lcd },
                    );
                }
                Op::Depart { device } => self.fleet.set_connected(*device, false),
                Op::Telemetry { device, energy_j, gamma, oled, observed } => {
                    if let Some(e) = energy_j {
                        self.fleet.set_energy_j(*device, *e);
                    }
                    if let Some((m, s)) = gamma {
                        self.fleet.set_gamma(*device, *m, *s);
                    }
                    if let Some(o) = oled {
                        self.fleet.set_display(
                            *device,
                            if *o { DisplayKind::Oled } else { DisplayKind::Lcd },
                        );
                    }
                    if let Some(r) = observed {
                        self.feedback.push((*device, *r));
                    }
                }
                Op::Brownout { factor } => self.brownout = factor.clamp(0.0, 1.0),
            }
        }
    }

    /// Blocks until a tick (or shutdown) grants the next slot, then
    /// drains the queue. `None` ends the run.
    fn drain_live(&mut self) -> Option<(Vec<Op>, Degradation)> {
        let mut q = self.shared.queue.lock().expect("ops queue poisoned");
        loop {
            if q.shutdown {
                if q.ops.is_empty() {
                    return None;
                }
                break; // final slot for the acknowledged stragglers
            }
            if q.ticks > 0 {
                q.ticks -= 1;
                break;
            }
            // The timeout only bounds a missed notification; the slot
            // clock itself is ticks.
            let (guard, _) = self
                .shared
                .clock
                .wait_timeout(q, Duration::from_millis(50))
                .expect("ops queue poisoned");
            q = guard;
        }
        let ops: Vec<Op> = q.ops.drain(..).collect();
        let shed = std::mem::replace(&mut q.shed_high_water, Degradation::Exact);
        Some((ops, shed))
    }

    fn record_decision(&mut self, slot: usize, selected: Vec<usize>, tier: Degradation) {
        if lpvs_obs::enabled() {
            lpvs_obs::inc_labeled("serve_slots_solved_total", &[("tier", tier.label())]);
        }
        let mut log = self.shared.schedules.lock().expect("schedule log poisoned");
        log.insert(slot, Decision { selected, tier, shed: self.shed });
        while log.len() > SCHEDULE_RETENTION {
            let oldest = *log.keys().next().expect("nonempty");
            log.remove(&oldest);
        }
    }
}

impl SlotSource for ServeEngine {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        // `/metrics` renders the histograms spans fold into; no endpoint
        // exports the span events themselves, so the last slot's are
        // dropped here instead of piling up for the life of the server.
        if lpvs_obs::enabled() {
            if let Some(recorder) = lpvs_obs::installed() {
                recorder.drain_events();
            }
        }
        if let Some(h) = self.config.horizon {
            if slot >= h {
                return None;
            }
        }
        let (ops, shed, queries) = if slot < self.journaled.len() {
            // Re-run of a journaled slot: same ops, shed floor, and
            // query list as the original incarnation; nothing is
            // re-journaled and no tick is consumed.
            let j = &self.journaled[slot];
            (j.ops.clone(), j.shed, j.queries.clone())
        } else {
            self.shared.set_phase(Phase::Live);
            let (ops, shed) = self.drain_live()?;
            let queries = std::mem::take(&mut self.next_queries);
            self.journal_lines(|| {
                let mut lines: Vec<String> = ops.iter().map(|o| o.to_json().to_string()).collect();
                lines.push(
                    Json::obj([
                        ("op", Json::Str("slot".into())),
                        ("slot", Json::Num(slot as f64)),
                        ("ops", Json::Num(ops.len() as f64)),
                        ("shed", Json::Str(shed.label().into())),
                        (
                            "queries",
                            Json::Arr(queries.iter().map(|&d| Json::Num(d as f64)).collect()),
                        ),
                    ])
                    .to_string(),
                );
                lines
            });
            (ops, shed, queries)
        };
        self.apply_ops(&ops);
        self.shed = shed;
        self.queries = queries.clone();
        if lpvs_obs::enabled() {
            lpvs_obs::inc("serve_slots_total");
            lpvs_obs::gauge_set("serve_journal_retained_ops", self.retained_ops() as f64);
        }
        Some(BankOps { forgets: Vec::new(), queries })
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        // Fold the queried posteriors into the fleet rows. On a re-run
        // the journaled values are replayed verbatim; live slots journal
        // what they wrote so a future re-run can do the same.
        let journaled_gamma = self.journaled.get(slot).and_then(|j| j.gamma.clone());
        let updates: Vec<(usize, f64, f64)> = match journaled_gamma {
            Some(updates) => updates,
            None => {
                let updates: Vec<(usize, f64, f64)> = self
                    .queries
                    .iter()
                    .zip(posteriors)
                    .map(|(&d, &(mean, std))| (d, mean, std))
                    .collect();
                self.journal_lines(|| {
                    let triple = |&(d, m, s): &(usize, f64, f64)| {
                        Json::Arr(vec![Json::Num(d as f64), Json::Num(m), Json::Num(s)])
                    };
                    let line = Json::obj([
                        ("op", Json::Str("gamma".into())),
                        ("slot", Json::Num(slot as f64)),
                        ("updates", Json::Arr(updates.iter().map(triple).collect())),
                    ]);
                    vec![line.to_string()]
                });
                updates
            }
        };
        for &(d, mean, std) in &updates {
            self.fleet.set_gamma(d, mean, std);
        }

        let (frontier, fleet, refilled) = self.fleet.ship_snapshot(recycled);
        let mut budget = SlotBudget::unbounded();
        if self.shed > Degradation::Exact {
            budget = budget.with_solver_floor(self.shed);
        }
        let envelope = EdgeServer::new(self.config.compute_capacity, self.config.storage_capacity_gb)
            .browned_out(self.brownout);
        lpvs_obs::gauge_set("edge_brownout_factor", self.brownout);
        Some(GatheredSlot {
            slot,
            fleet,
            device_ids: (0..self.config.max_devices).collect(),
            compute_capacity: envelope.compute_capacity(),
            storage_capacity_gb: envelope.storage_capacity_gb(),
            lambda: self.config.lambda,
            curve: self.curve.clone(),
            budget,
            warm: self.previous.clone(),
            delta: Some(SlotDelta::from(frontier)),
            refilled,
        })
    }
}

impl SlotSink for ServeEngine {
    fn solved(&mut self, solved: &SolvedSlot) {
        self.previous = Some(solved.schedule.selected.clone());
        let selected: Vec<usize> = solved
            .schedule
            .selected
            .iter()
            .enumerate()
            .filter_map(|(d, &on)| on.then_some(d))
            .collect();
        self.record_decision(solved.slot, selected, solved.tier);
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        let observations = std::mem::take(&mut self.feedback);
        let mut devices: Vec<usize> = observations.iter().map(|&(d, _)| d).collect();
        devices.sort_unstable();
        devices.dedup();
        self.next_queries = devices;
        self.applied = slot + 1;
        {
            let mut status = self.shared.status.lock().expect("status poisoned");
            status.slots = self.applied;
        }
        SlotFeedback { observations }
    }
}

impl SlotReplay for ServeEngine {
    fn stage_decision(
        &mut self,
        slot: usize,
        device_ids: &[usize],
        selected: &[bool],
        tier: Degradation,
    ) {
        self.previous = Some(selected.to_vec());
        self.shed = self.journaled.get(slot).map(|j| j.shed).unwrap_or(Degradation::Exact);
        let ids: Vec<usize> = device_ids
            .iter()
            .zip(selected)
            .filter_map(|(&d, &on)| on.then_some(d))
            .collect();
        self.record_decision(slot, ids, tier);
    }

    fn replay_slot(&mut self, slot: usize) {
        // Exactly what begin_slot + gather did to the fleet, minus the
        // solve: ops, then the journaled γ posterior writes, then one
        // clear_dirty — keeping the epoch chain (and the restored delta
        // memos) contiguous across the restart.
        let (ops, gamma) = match self.journaled.get(slot) {
            Some(j) => (j.ops.clone(), j.gamma.clone().unwrap_or_default()),
            None => (Vec::new(), Vec::new()),
        };
        self.apply_ops(&ops);
        for &(d, mean, std) in &gamma {
            self.fleet.set_gamma(d, mean, std);
        }
        self.fleet.clear_dirty();
        // Replay feedback is discarded: the restored banks already
        // contain these observations.
        self.feedback.clear();
        let devices: Vec<usize> = {
            let mut ds: Vec<usize> = ops
                .iter()
                .filter_map(|op| match op {
                    Op::Telemetry { device, observed: Some(_), .. } => Some(*device),
                    _ => None,
                })
                .collect();
            ds.sort_unstable();
            ds.dedup();
            ds
        };
        self.next_queries = devices;
        self.applied = slot + 1;
        self.shared.status.lock().expect("status poisoned").slots = self.applied;
    }
}
