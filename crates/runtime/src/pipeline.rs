//! The slot hub, the shards it drives, and the supervisor.
//!
//! [`SlotRuntime::run`] and [`SlotRuntime::run_sequential`] enter one
//! slot loop; they differ only in who holds the [`ShardState`]s — the
//! persistent shard workers, or the hub itself. The hub (the caller's
//! thread) executes, per slot `t`:
//!
//! ```text
//!  begin(t)            source advances faults/connectivity
//!  prepare(t)          route observations(t−1) + forgets(t) + γ queries
//!                      to the owning shards: sent to workers, applied
//!                      here to hub-held states (ShardState::prepare)
//!  checkpoint(t)       workers only, every `interval` slots: ask each
//!                      worker to encode its bank (queued between Prepare
//!                      and Solve, so the snapshot is exactly the
//!                      post-prepare bank); the hub persists the bytes
//!                      during join(t)
//!  gather(t)           source brings the recycled buffer up to date
//!                      (a persistent fleet patches its dirty rows in)
//!  dispatch(t)         partition + build each shard's job over the shared
//!                      Arc<GatheredSlot>: fanned out to the workers
//!                      (every job is queued before any worker is woken
//!                      for it, so no shard runs mid-fan-out), or run
//!                      here on run_shards — shard 0 on the hub's thread,
//!                      the others on scoped threads (ShardState::solve
//!                      either way)
//!  join(t)             block on the workers' results, then under either
//!                      executor assemble the shard solves — schedules,
//!                      loads and the score rows shipped beside them —
//!                      through FleetScheduler::assemble (which adopts the
//!                      rows instead of scoring them again), deliver
//!                      solved(t), recycle the fleet buffer
//!  apply(t)            sink plays slot t
//! ```
//!
//! No solve outlives its slot, so `solved(t)` always precedes
//! `apply(t)` and one fleet buffer circulates. The hub recovers it via
//! `Arc::try_unwrap`, which is guaranteed to succeed because every
//! shard drops its handle *before* delivering its result, and hands it
//! to the next gather exactly as the source shipped it — nothing on the
//! solve path writes to it — so a source may treat it as its own last
//! snapshot ([`DeviceFleet::ship_snapshot`] checks the epoch anyway).
//!
//! ## Supervision
//!
//! On worker death the hub walks a recovery ladder instead of
//! abandoning its workers:
//!
//! 1. **Respawn** the shard with exponential backoff, restoring its
//!    bank from the newest valid checkpoint generation plus a replay of
//!    the hub's write-ahead journal (every bank op sent since that
//!    snapshot) — or, with no store configured, from the state the
//!    dying worker shipped home. Deterministic either way: the restored
//!    bank is bit-identical to the one that died (debug builds assert
//!    it against the shipped copy).
//! 2. **Re-dispatch** the slot being joined to the respawned worker
//!    with an incremented attempt counter, so injected repeat-faults
//!    eventually let it through.
//! 3. Only when the per-shard retry budget is exhausted, or every
//!    checkpoint generation fails its checksum, does the hub **fall
//!    back**: finish the slot (dead shards contribute passthrough), take
//!    every shard state home, and hold them itself from the next slot
//!    on — the inline executor's loop, entered mid-run.

use crate::checkpoint::{
    CheckpointStore, FlightReason, FlightRecording, JournalOp, LoggedDecision, RecoveryReport,
    ShardJournal,
};
use crate::shard::{spawn_worker, ShardOps, ShardState, SolveJob, WakeUp, WorkerEvent, WorkerMsg};
use crate::telemetry::{observe_stage, publish};
use crate::{BankOps, CheckpointConfig, CheckpointError, SlotReplay, SlotSink, SlotSource, SolvedSlot};
use crossbeam::channel::{bounded, Receiver, Sender};
use lpvs_bayes::{BayesBank, GammaEstimator};
use lpvs_core::fleet::DeviceFleet;
use lpvs_core::scheduler::{Degradation, LpvsScheduler};
use lpvs_core::work::{Laps, RowsRefilled};
use lpvs_edge::fleet::{FleetConfig, FleetSchedule, FleetScheduler, JoinMemo};
use lpvs_edge::server::EdgeServer;
use lpvs_edge::shard::{run_shards, ShardJob, ShardSolve};
use lpvs_obs::{FlightRing, SpanContext};
use serde::{Deserialize, Serialize};
use std::io::{PipeWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deterministic worker-crash injection: each (slot, shard) pair dies
/// with probability `rate`, derived by hashing against `seed` so runs
/// reproduce bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageFaults {
    /// Per-(slot, shard) death probability in `[0, 1]`.
    pub rate: f64,
    /// Hash salt, independent of the population seed.
    pub seed: u64,
    /// How many respawned attempts of a faulted (slot, shard) die
    /// again: attempt `a` is killed while `a <= repeat`. `0` means one
    /// death per hit (the respawn succeeds); `u32::MAX` makes the shard
    /// unrecoverable, forcing the sequential fallback.
    pub repeat: u32,
}

/// Respawns allowed per shard per slot before the hub abandons the
/// workers and holds the shard states itself.
const MAX_RETRIES: u32 = 5;

/// Base of the exponential respawn backoff (`RESPAWN_BACKOFF << attempt`).
const RESPAWN_BACKOFF: Duration = Duration::from_micros(200);

/// Runtime configuration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Shard count, partitioner, per-shard scheduler, and rebalance
    /// bound.
    pub fleet: FleetConfig,
    /// Optional injected worker crashes (exercises the recovery
    /// ladder).
    pub stage_faults: Option<StageFaults>,
    /// Periodic shard checkpointing under the workers; `None` disables
    /// the store (worker deaths then restore from the shipped in-flight
    /// state). The inline executor keeps no store.
    pub checkpoints: Option<CheckpointConfig>,
    /// Stop the run after this slot completes — a simulated hub crash
    /// for resume tests (pending checkpoint writes are still drained,
    /// so the manifest reflects the newest complete round). Workers only.
    pub halt_after_slot: Option<usize>,
}

/// Serializable run summary (embedded in emulation reports).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RuntimeSummary {
    /// Whether the shard workers ran the solves (false: inline).
    pub pipelined: bool,
    /// Shard count.
    pub shards: usize,
    /// Slots driven.
    pub slots: usize,
    /// Slots that dispatched a solve (idle slots excluded).
    pub solved_slots: usize,
    /// Workers lost to faults or panics (respawned or not).
    pub workers_lost: usize,
    /// Structured recovery account: per-shard deaths/retries/replays,
    /// checkpoint counters, and the fallback slot if the ladder
    /// bottomed out.
    pub recovery: RecoveryReport,
}

/// Result of a runtime run.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Counters and recovery state.
    pub summary: RuntimeSummary,
    /// Final γ estimators, dense by device id — merged back from the
    /// shard banks.
    pub estimators: Vec<GammaEstimator>,
    /// Total wall-clock spent in (dispatch → joined) solves.
    pub solve_runtime: Duration,
    /// `(slot, solver wall-clock)` per solved slot, join order. Lets
    /// benchmarks separate the cold first solve from the steady-state
    /// tail instead of averaging them together.
    pub slot_solve_runtimes: Vec<(usize, Duration)>,
}

/// What the slot loop carries from one slot to the next, and its
/// counters; it publishes each solved slot's records
/// ([`crate::telemetry`]) and times its own gather and apply.
#[derive(Default)]
struct SlotLoop {
    /// Playback observations of the last applied slot, not yet in a bank.
    feedback: Vec<(usize, f64)>,
    /// The last solve's fleet buffer, for the next gather to refill.
    recycled: Option<DeviceFleet>,
    slots: usize,
    solved_slots: usize,
    solve_runtime: Duration,
    slot_solve_runtimes: Vec<(usize, Duration)>,
}

impl SlotLoop {
    /// Counts a joined solve, completes its work with the rows its
    /// gather copied, and publishes the records the driver is handed.
    fn count_solved(&mut self, slot: usize, refilled: RowsRefilled, schedule: &mut FleetSchedule) {
        // One clock: the hub's laps are the slot's runtime, and a shard's
        // laps but its own are its solve's.
        debug_assert_eq!(schedule.laps.time(|_| true), schedule.runtime, "slot {slot}");
        for report in &schedule.shards {
            let solve = report.laps.time(|stage| stage != "shard");
            debug_assert_eq!(solve, report.stats.runtime, "slot {slot}, shard {}", report.shard);
        }
        self.solve_runtime += schedule.runtime;
        self.solved_slots += 1;
        self.slot_solve_runtimes.push((slot, schedule.runtime));
        schedule.work.rows_refilled = refilled;
        publish(schedule);
    }

    /// `gather(slot)` into the recycled buffer, timed.
    fn gather<D: SlotSource>(
        &mut self,
        driver: &mut D,
        slot: usize,
        posteriors: &[(f64, f64)],
    ) -> Option<crate::GatheredSlot> {
        let mut laps = Laps::start();
        let gathered = driver.gather(slot, posteriors, self.recycled.take());
        laps.lap("gather");
        observe_stage(&[("stage", "gather")], laps.total());
        gathered
    }

    /// `apply(slot)`, timed and counted; keeps what the banks learn.
    fn apply<D: SlotSink>(&mut self, driver: &mut D, slot: usize) {
        let mut laps = Laps::start();
        self.feedback = driver.apply(slot).observations;
        laps.lap("apply");
        observe_stage(&[("stage", "apply")], laps.total());
        self.slots += 1;
    }
}

/// The worst degradation rung any shard of a fleet solve fell to.
fn worst_tier(schedule: &FleetSchedule) -> Degradation {
    schedule.shards.iter().map(|r| r.stats.degradation).max().unwrap_or(Degradation::Passthrough)
}

/// A dispatched slot and what its shards have delivered so far.
struct PendingSolve {
    slot: usize,
    gathered: Arc<crate::GatheredSlot>,
    shards: Vec<Vec<usize>>,
    servers: Vec<EdgeServer>,
    /// Per-shard dispatch attempt for this slot (bumped on respawn).
    attempts: Vec<u32>,
    /// The fleet slot's clock, started before the partition.
    laps: Laps,
    /// The slot span's context, shipped with every (re-)dispatch so
    /// shard-side solve spans join the slot's trace.
    ctx: Option<SpanContext>,
    /// Each shard's solve; `None` (passthrough) until it delivers.
    results: Vec<Option<ShardSolve>>,
}

/// What joining a solve produced.
struct Collected {
    solved: SolvedSlot,
    /// The recovered fleet buffer (recycled into the next gather).
    buffer: Option<DeviceFleet>,
    /// Fleet-order → global device id mapping of the joined slot.
    device_ids: Vec<usize>,
}

struct WorkerHandle {
    commands: Option<Sender<WorkerMsg>>,
    thread: Option<JoinHandle<()>>,
    /// One byte per message posted on `commands` wakes the worker
    /// (`shard::spawn_worker` says why a pipe).
    wake: PipeWriter,
}

impl WorkerHandle {
    /// Posts `msg` and wakes the worker for it.
    fn send(&self, msg: WorkerMsg) -> Result<(), ()> {
        self.post(msg)?;
        self.wake();
        Ok(())
    }

    /// Queues `msg` without waking the worker: [`WorkerHandle::wake`]
    /// follows, once per message.
    fn post(&self, msg: WorkerMsg) -> Result<(), ()> {
        match &self.commands {
            Some(tx) => tx.send(msg).map_err(|_| ()),
            None => Err(()),
        }
    }

    /// Wakes the worker for one posted message. A write that fails means
    /// the worker is gone, which the join step sees.
    fn wake(&self) {
        let _ = (&self.wake).write_all(&[1]);
    }
}

/// Who holds the shard states, and so runs the shards: the one thing
/// the executors do not share.
enum Shards {
    /// The hub itself — the inline executor, and a worker run past its
    /// fallback. `states[s]` is shard `s`.
    Held(Vec<ShardState>),
    /// Supervised persistent workers, one a shard.
    Workers(Pool),
}

/// The worker pool.
struct Pool {
    workers: Vec<WorkerHandle>,
    events: Receiver<WorkerEvent>,
    /// Kept so the supervisor can wire respawned workers onto the same
    /// event stream.
    event_tx: Sender<WorkerEvent>,
    /// States recovered from permanently dead workers, pending the
    /// drain.
    lost: Vec<ShardState>,
    /// Per-shard blackbox rings. Each worker pushes its last few
    /// actions here; the ring survives respawns (the replacement worker
    /// writes into the same ring), so a recording spans the death.
    rings: Vec<Arc<FlightRing>>,
    /// Raised while `dispatch` wakes the workers for a slot; a worker
    /// holding a job yields until it drops. Publishes nothing — the jobs
    /// travel by channel — so relaxed.
    fanning: Arc<AtomicBool>,
}

impl Pool {
    fn all_alive(&self) -> bool {
        self.workers.iter().all(|w| w.commands.is_some())
    }

    /// Marks a shard permanently dead and keeps its shipped state for
    /// the drain.
    fn bury(&mut self, state: ShardState) {
        let s = state.shard;
        self.workers[s].commands = None;
        self.lost.push(state);
    }

    /// Sends each shard its share of a slot's bank operations — all of
    /// them first, so shards work concurrently — then awaits the answers
    /// in shard order; `None` when a worker is lost on the way.
    fn prepare(&self, per: Vec<ShardOps>, ctx: Option<SpanContext>) -> Option<Vec<Vec<(f64, f64)>>> {
        let mut replies = Vec::with_capacity(per.len());
        for (worker, ops) in self.workers.iter().zip(per) {
            let (reply, answers) = bounded(1);
            let asked = !ops.is_empty();
            if asked {
                worker.send(WorkerMsg::Prepare { ops, reply, ctx }).ok()?;
            }
            replies.push(asked.then_some(answers));
        }
        replies.into_iter().map(|answers| answers.map_or(Some(Vec::new()), |rx| rx.recv().ok())).collect()
    }
}

/// The slot loop's routing state, and whoever holds the shards.
struct Hub {
    shards: Shards,
    /// Device → shard whose bank owns its estimator, fixed for the
    /// run: the home partition, or on a resume whatever the restored
    /// banks hold.
    owner: Vec<usize>,
    /// The join's kept per-row prices: a delta-carrying slot that
    /// extends them prices only the rows that changed. Starts empty, on
    /// a resume too.
    join: JoinMemo,
}

/// Splits one slot's bank operations over `k` shards by `owner`,
/// keeping each shard's per-device order; also returns, per shard, the
/// positions its queries hold in `ops.queries`.
fn route(owner: &[usize], k: usize, ops: &BankOps, observations: &[(usize, f64)]) -> (Vec<ShardOps>, Vec<Vec<usize>>) {
    let mut per: Vec<ShardOps> = (0..k).map(|_| ShardOps::default()).collect();
    let mut positions = vec![Vec::new(); k];
    for &(d, ratio) in observations {
        per[owner[d]].observations.push((d, ratio));
    }
    for &(d, stale) in &ops.forgets {
        per[owner[d]].forgets.push((d, stale));
    }
    for (pos, &d) in ops.queries.iter().enumerate() {
        per[owner[d]].queries.push(d);
        positions[owner[d]].push(pos);
    }
    (per, positions)
}

/// Applies each hub-held shard's share of a slot's bank operations.
fn prepare_held(states: &mut [ShardState], per: Vec<ShardOps>, ctx: Option<SpanContext>) -> Vec<Vec<(f64, f64)>> {
    let answer = |(state, ops): (&mut ShardState, ShardOps)| {
        if ops.is_empty() { Vec::new() } else { state.prepare(ops, ctx) }
    };
    states.iter_mut().zip(per).map(answer).collect()
}

/// Everything the supervisor tracks across a run: the checkpoint
/// store, the per-shard write-ahead journals, and the recovery
/// accounting.
struct Supervisor {
    store: Option<CheckpointStore>,
    journals: Vec<ShardJournal>,
    report: RecoveryReport,
    workers_lost: usize,
}

/// Capacity of a worker's command channel. The hub joins every solve
/// before the next slot begins, so a worker never has more than one
/// slot's commands queued.
const COMMAND_DEPTH: usize = 4;

/// Cap on blackbox recordings kept in one report — enough for every
/// death in a stormy run, bounded against unrecoverable repeat-faults.
const MAX_FLIGHT_RECORDINGS: usize = 32;

impl Supervisor {
    /// A supervisor of `shards` workers (none for the inline executor,
    /// whose report stays empty).
    fn new(store: Option<CheckpointStore>, shards: usize) -> Self {
        Self {
            store,
            journals: (0..shards).map(|_| ShardJournal::new()).collect(),
            report: RecoveryReport::new(shards),
            workers_lost: 0,
        }
    }

    /// Snapshots one shard's blackbox ring into the report.
    fn record_flight(
        &mut self,
        rings: &[Arc<FlightRing>],
        shard: usize,
        slot: usize,
        reason: FlightReason,
    ) {
        if self.report.flight.len() >= MAX_FLIGHT_RECORDINGS {
            return;
        }
        self.report.flight.push(FlightRecording {
            shard,
            slot,
            reason,
            events: rings[shard].snapshot(),
        });
        // Two shards can die in the same slot, and the hub observes
        // their Down messages in arrival order — which is racy. Keep
        // the report sorted by a deterministic key (stable, so a
        // death followed by a corrupt restore on the same shard keeps
        // its causal order) so replays compare equal.
        self.report.flight.sort_by_key(|r| (r.slot, r.shard));
    }

    /// Journals the bank ops bound for each worker (a no-op without a
    /// store — the journal only exists to extend snapshots forward in
    /// time).
    fn journal(&mut self, per: &[ShardOps]) {
        if self.store.is_none() {
            return;
        }
        for (journal, ops) in self.journals.iter_mut().zip(per) {
            for &(d, ratio) in &ops.observations {
                journal.push(JournalOp::Observe(d, ratio));
            }
            for &(d, stale) in &ops.forgets {
                journal.push(JournalOp::Forget(d, stale));
            }
        }
    }

    /// Persists one worker-encoded snapshot into the pending round. On
    /// round completion the journals are truncated to the oldest
    /// generation still retained. A failed write is counted: its
    /// generation is missing (the ladder falls through to an older one)
    /// and its round never completes.
    fn persist(&mut self, shard: usize, slot: usize, bank_bytes: &[u8], memo_bytes: Option<&[u8]>) {
        let Some(store) = self.store.as_mut() else { return };
        match store.persist_shard(shard, slot, bank_bytes, memo_bytes) {
            Ok(Some(marks)) => {
                for (journal, mark) in self.journals.iter_mut().zip(marks) {
                    journal.truncate_to(mark);
                }
            }
            Ok(None) => {}
            Err(_) => self.report.write_errors += 1,
        }
    }

    /// Logs a joined decision for hub-restart replay.
    fn log_decision(&mut self, collected: &Collected) {
        let Some(store) = self.store.as_mut() else { return };
        let decision = LoggedDecision {
            slot: collected.solved.slot,
            tier: collected.solved.tier,
            device_ids: collected.device_ids.clone(),
            selected: collected.solved.schedule.selected.clone(),
        };
        if store.log_decision(&decision).is_err() {
            self.report.write_errors += 1;
        }
    }

    /// Flushes the decision log, folds the store's counters into the
    /// report and returns it.
    fn into_report(mut self, resumed_at: Option<usize>) -> RecoveryReport {
        if let Some(store) = self.store.as_mut() {
            if store.flush_decisions().is_err() {
                self.report.write_errors += 1;
            }
            self.report.checkpoints_written = store.checkpoints_written();
            self.report.checkpoints_corrupted = store.checkpoints_corrupted();
            self.report.generations_rejected = store.generations_rejected();
        }
        self.report.resumed_at = resumed_at;
        self.report
    }
}

/// The slot runtime: one slot loop, two executors.
pub struct SlotRuntime {
    config: RuntimeConfig,
    /// Partition, capacity split, rebalance and join.
    fleet: FleetScheduler,
}

impl SlotRuntime {
    /// Creates a runtime.
    ///
    /// # Panics
    ///
    /// Panics if the fleet configuration names zero shards.
    pub fn new(config: RuntimeConfig) -> Self {
        Self { fleet: FleetScheduler::new(config.fleet), config }
    }

    /// The configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Home shard of every device under the configured partitioner —
    /// the bank split, which holds for the whole run.
    pub fn home_shards(&self, devices: usize) -> Vec<usize> {
        let all: Vec<usize> = (0..devices).collect();
        let mut owner = vec![0usize; devices];
        self.config.fleet.partitioner.split(&all, self.config.fleet.num_shards, |s, run| {
            for &d in run {
                owner[d] = s;
            }
        });
        owner
    }

    /// `estimators[d]` is device `d`'s γ estimator; they are split into
    /// shard-local banks by home shard, with no delta memos.
    fn home_states(&self, estimators: Vec<GammaEstimator>) -> (Vec<ShardState>, Vec<usize>) {
        let owner = self.home_shards(estimators.len());
        let banks = BayesBank::from_estimators(estimators).split(self.config.fleet.num_shards, |d| owner[d]);
        (banks.into_iter().enumerate().map(|(s, bank)| ShardState::new(s, bank)).collect(), owner)
    }

    fn open_store(&self) -> Option<CheckpointStore> {
        self.config.checkpoints.as_ref().map(|cfg| {
            CheckpointStore::create(cfg, self.config.fleet.num_shards)
                .expect("checkpoint store directory must be creatable")
        })
    }

    /// Runs the driver with the shard states on supervised workers.
    /// `estimators[d]` is device `d`'s γ estimator; they are split into
    /// shard-local banks up front and merged back into the report at
    /// the end.
    pub fn run<D: SlotSource + SlotSink>(
        &self,
        driver: &mut D,
        estimators: Vec<GammaEstimator>,
    ) -> RuntimeReport {
        let (states, owner) = self.home_states(estimators);
        let supervisor = Supervisor::new(self.open_store(), states.len());
        self.run_from(driver, Shards::Workers(self.spawn(states)), owner, 0, supervisor, None)
    }

    /// Runs the driver with the shard states on the caller's thread —
    /// the slot loop of [`Self::run`], its banks split the same way and
    /// its shards solved by the same body, but no workers: no
    /// checkpoints, stage faults or respawns. Serves the decisions
    /// [`Self::run`] serves.
    pub fn run_sequential<D: SlotSource + SlotSink>(
        &self,
        driver: &mut D,
        estimators: Vec<GammaEstimator>,
    ) -> RuntimeReport {
        let (states, owner) = self.home_states(estimators);
        self.run_from(driver, Shards::Held(states), owner, 0, Supervisor::new(None, 0), None)
    }

    /// Resumes a halted run mid-horizon from the checkpoint store's
    /// manifest: restores each shard's bank from the manifest's
    /// snapshot generation, replays the logged decisions through the
    /// driver's [`SlotReplay`] implementation to rebuild its internal
    /// state, and re-enters the slot loop at the manifest slot. A
    /// resumed run is bit-identical to one that never stopped.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Manifest`] when no store is configured or no
    /// manifest exists; any store error from loading snapshots or the
    /// decision log.
    pub fn resume<D: SlotSource + SlotSink + SlotReplay>(
        &self,
        driver: &mut D,
    ) -> Result<RuntimeReport, CheckpointError> {
        let cfg = self
            .config
            .checkpoints
            .as_ref()
            .ok_or(CheckpointError::Manifest("resume requires a checkpoint store"))?;
        let k = self.config.fleet.num_shards;
        let mut store = CheckpointStore::create(cfg, k)?;
        let manifest = store
            .read_manifest()?
            .ok_or(CheckpointError::Manifest("no run manifest to resume from"))?;
        if manifest.generations.len() != k {
            return Err(CheckpointError::Manifest("manifest shard count mismatch"));
        }
        let mut states = Vec::with_capacity(k);
        for (s, &gen) in manifest.generations.iter().enumerate() {
            let snapshot = store.load_generation(s, gen)?;
            // The snapshot's memo is the solve the shard completed just
            // before the checkpoint round, so a resumed run continues
            // the incremental chain exactly where the halted one left
            // it. A v1 snapshot has no memo and resumes cold.
            states.push(ShardState { shard: s, bank: snapshot.bank, memo: snapshot.memo });
        }
        // The ownership map is implicit in the restored banks: whatever
        // shard holds a device's estimator owns it. That is the home
        // split, unless the store was written by a build that moved
        // estimators — then the moved owner keeps it.
        let devices = states.iter().flat_map(|state| state.bank.devices()).max().map_or(0, |d| d + 1);
        let mut owner = vec![0usize; devices];
        for state in &states {
            for d in state.bank.devices() {
                owner[d] = state.shard;
            }
        }
        // Replay the decided prefix in the order the run produced it:
        // slot `t`'s decision lands, then slot `t` plays.
        let decisions = store.read_decisions()?;
        let slot = manifest.slot;
        for t in 0..slot {
            if let Some(d) = decisions.iter().find(|d| d.slot == t) {
                driver.stage_decision(d.slot, &d.device_ids, &d.selected, d.tier);
            }
            driver.replay_slot(t);
        }
        let supervisor = Supervisor::new(Some(store), k);
        Ok(self.run_from(driver, Shards::Workers(self.spawn(states)), owner, slot, supervisor, Some(slot)))
    }

    /// The slot loop, entered at `start_slot` with the shard states
    /// already split (memos all `None` on a fresh run) and `owner`
    /// routing devices to them, held by whoever `shards` names.
    fn run_from<D: SlotSource + SlotSink>(
        &self,
        driver: &mut D,
        shards: Shards,
        owner: Vec<usize>,
        start_slot: usize,
        mut sup: Supervisor,
        resumed_at: Option<usize>,
    ) -> RuntimeReport {
        let pipelined = matches!(shards, Shards::Workers(_));
        let interval = self.config.checkpoints.as_ref().map(|c| c.interval).filter(|_| pipelined);
        let halt = self.config.halt_after_slot.filter(|_| pipelined);
        let mut hub = Hub { shards, owner, join: JoinMemo::default() };
        let mut run = SlotLoop::default();
        let mut slot = start_slot;
        // On a resume, the restored banks already hold `prepare(slot)`'s
        // maintenance (the snapshot was taken right after it), so the
        // first iteration must not re-apply forgets.
        let mut skip_maintenance = resumed_at.is_some();

        while let Some(mut ops) = driver.begin_slot(slot) {
            if std::mem::take(&mut skip_maintenance) {
                ops.forgets.clear();
            }
            // A shard the ladder could not keep alive at join(t − 1)
            // sends slot t and the rest to the hub.
            if matches!(&hub.shards, Shards::Workers(pool) if !pool.all_alive()) {
                self.fall_back(&mut hub, &mut sup, slot);
            }

            let mut slot_span = lpvs_obs::span!("runtime.slot", "slot" => slot);
            // Captured once per slot; every hop out of the hub (prepare,
            // dispatch, re-dispatch) carries this context so shard-side
            // spans join the slot's trace.
            let slot_ctx = slot_span.context();

            // --- prepare(t) --------------------------------------------
            let observations = std::mem::take(&mut run.feedback);
            let posteriors = self.prepare(&mut hub, &mut sup, slot, &ops, &observations, slot_ctx);

            // --- checkpoint round(t) -----------------------------------
            if let (Some(interval), Shards::Workers(pool)) = (interval, &mut hub.shards) {
                if (slot - start_slot).is_multiple_of(interval) {
                    self.request_checkpoints(pool, &mut sup, slot);
                }
            }

            // --- gather(t) → dispatch(t) → join(t) ---------------------
            if let Some(g) = run.gather(driver, slot, &posteriors) {
                let mut pending = self.dispatch(&mut hub, slot, g, slot_ctx);
                if let Shards::Workers(pool) = &mut hub.shards {
                    self.join_workers(pool, &mut sup, &mut pending);
                }
                let collected = self.conclude(&mut hub.join, pending, &mut run);
                slot_span.record("joined_migrations", collected.solved.schedule.migrations as f64);
                driver.solved(&collected.solved);
                sup.log_decision(&collected);
                run.recycled = collected.buffer;
            }

            // --- apply(t) ----------------------------------------------
            run.apply(driver, slot);
            if halt == Some(slot) {
                // Simulated hub crash: stop driving, but drain cleanly
                // below so the manifest names the newest complete round.
                break;
            }
            slot += 1;
        }
        // The fleet buffer is dead weight from here on; free it before
        // the banks are merged and densified.
        run.recycled = None;

        // --- drain -----------------------------------------------------
        let k = self.config.fleet.num_shards;
        let mut states = match hub.shards {
            Shards::Held(states) => states,
            Shards::Workers(mut pool) => self.drain(&mut pool, &mut sup),
        };
        // The last slot's observations still belong in the banks. Root a
        // span for them so their prepare spans stay parented.
        if !run.feedback.is_empty() {
            let tail_span = lpvs_obs::span!("runtime.tail", "observations" => run.feedback.len());
            let (per, _) = route(&hub.owner, k, &BankOps::default(), &run.feedback);
            prepare_held(&mut states, per, tail_span.context());
        }
        RuntimeReport {
            summary: RuntimeSummary {
                pipelined,
                shards: k,
                slots: run.slots,
                solved_slots: run.solved_slots,
                workers_lost: sup.workers_lost,
                recovery: sup.into_report(resumed_at),
            },
            estimators: BayesBank::merge(states.into_iter().map(|state| state.bank)).into_dense(),
            solve_runtime: run.solve_runtime,
            slot_solve_runtimes: run.slot_solve_runtimes,
        }
    }

    /// Starts one supervised worker holding `state`.
    fn start_worker(&self, pool: &Pool, state: ShardState) -> WorkerHandle {
        let (tx, rx) = bounded(COMMAND_DEPTH);
        let faults = self.config.stage_faults.map(|f| (f.rate, f.seed, f.repeat));
        let ring = Arc::clone(&pool.rings[state.shard]);
        let (pipe, wake) = std::io::pipe().expect("a worker's wake pipe");
        let woken = WakeUp { pipe, fanning: Arc::clone(&pool.fanning) };
        let thread = spawn_worker(state, self.config.fleet.scheduler, faults, ring, woken, rx, pool.event_tx.clone());
        WorkerHandle { commands: Some(tx), thread: Some(thread), wake }
    }

    /// Hands each shard state to a worker of its own.
    fn spawn(&self, states: Vec<ShardState>) -> Pool {
        let k = states.len();
        let (event_tx, events) = bounded(4 * k + 4);
        let mut pool = Pool {
            workers: Vec::with_capacity(k),
            events,
            event_tx,
            lost: Vec::new(),
            rings: (0..k).map(|_| Arc::new(FlightRing::with_default_capacity())).collect(),
            fanning: Arc::new(AtomicBool::new(false)),
        };
        for state in states {
            let worker = self.start_worker(&pool, state);
            pool.workers.push(worker);
        }
        pool
    }

    /// The bottom of the recovery ladder, at the top of `slot`: every
    /// worker's state comes home (the buried ones' too) and the hub
    /// holds them for the rest of the run — memos dropped, so each
    /// shard's first slot here solves cold.
    fn fall_back(&self, hub: &mut Hub, sup: &mut Supervisor, slot: usize) {
        let Shards::Workers(pool) = &mut hub.shards else { return };
        lpvs_obs::inc("runtime_fallback_total");
        let mut states = self.drain(pool, sup);
        // Snapshot every shard's blackbox after the drain — workers are
        // quiescent, so the recording is the deterministic tail of what
        // each did before the hub gave up on them (replay runs compare
        // reports).
        for s in 0..pool.rings.len() {
            sup.record_flight(&pool.rings, s, slot, FlightReason::Fallback);
        }
        sup.report.fell_back = Some(slot);
        for state in &mut states {
            state.memo = None;
        }
        hub.shards = Shards::Held(states);
    }

    /// Routes one slot's bank maintenance and γ queries to the owning
    /// shards — applied here to hub-held states, journaled and sent to
    /// workers — and gathers the posterior answers back in query order.
    /// A worker lost mid-prepare (a panic in its bank: a death anywhere
    /// else is seen at a join) sends the run to the fallback, and the
    /// states it takes home answer the queries.
    fn prepare(
        &self,
        hub: &mut Hub,
        sup: &mut Supervisor,
        slot: usize,
        ops: &BankOps,
        observations: &[(usize, f64)],
        ctx: Option<SpanContext>,
    ) -> Vec<(f64, f64)> {
        let (per, positions) = route(&hub.owner, self.config.fleet.num_shards, ops, observations);
        let answers = match &mut hub.shards {
            Shards::Held(states) => Some(prepare_held(states, per, ctx)),
            Shards::Workers(pool) => {
                sup.journal(&per);
                pool.prepare(per, ctx)
            }
        };
        let answers = answers.unwrap_or_else(|| {
            self.fall_back(hub, sup, slot);
            let Shards::Held(states) = &mut hub.shards else { unreachable!("the fallback holds every shard") };
            let queries = |at: &Vec<usize>| ShardOps { queries: at.iter().map(|&pos| ops.queries[pos]).collect(), ..ShardOps::default() };
            prepare_held(states, positions.iter().map(queries).collect(), ctx)
        });
        let mut posteriors = vec![(0.0, 0.0); ops.queries.len()];
        for (at, answers) in positions.iter().zip(answers) {
            for (&pos, answer) in at.iter().zip(answers) {
                posteriors[pos] = answer;
            }
        }
        posteriors
    }

    /// Requests a checkpoint round: drains any checkpoint bytes still
    /// waiting from an earlier round (idle slots can keep a join from
    /// running), then asks every live worker to encode its bank. The
    /// request is queued between `Prepare(slot)` and `Solve(slot)`, so
    /// the snapshot is exactly the post-prepare bank.
    fn request_checkpoints(&self, pool: &mut Pool, sup: &mut Supervisor, slot: usize) {
        loop {
            match pool.events.try_recv() {
                Ok(WorkerEvent::Checkpointed { shard, slot: ckpt_slot, bank, memo }) => {
                    sup.persist(shard, ckpt_slot, &bank, memo.as_deref());
                }
                Ok(WorkerEvent::Down { state } | WorkerEvent::Finished { state }) => {
                    // No solve is outstanding here, so this death has
                    // nothing to re-dispatch: it is permanent, and the
                    // next slot falls back.
                    sup.report.shards[state.shard].deaths += 1;
                    sup.record_flight(&pool.rings, state.shard, slot, FlightReason::WorkerDeath);
                    sup.workers_lost += 1;
                    pool.bury(*state);
                }
                Ok(WorkerEvent::Solved { .. }) | Err(_) => break,
            }
        }
        let marks: Vec<u64> = sup.journals.iter().map(|j| j.mark()).collect();
        if let Some(store) = sup.store.as_mut() {
            store.begin_round(slot, marks);
        }
        for worker in &pool.workers {
            let _ = worker.send(WorkerMsg::Checkpoint { slot });
        }
    }

    /// Builds shard `s`'s slice of `pending` (first dispatch and
    /// re-dispatch alike — the attempt counter comes from `pending`).
    fn shard_job(&self, pending: &PendingSolve, s: usize) -> SolveJob {
        SolveJob {
            slot: pending.slot,
            attempt: pending.attempts[s],
            gathered: Arc::clone(&pending.gathered),
            shard: ShardJob { rows: pending.shards[s].clone(), server: pending.servers[s], load: self.fleet.rebalances(pending.servers.len()) },
            ctx: pending.ctx,
        }
    }

    /// Partitions a gathered slot and builds every shard's job, then
    /// fans the jobs out to the workers or solves the hub-held shards.
    fn dispatch(
        &self,
        hub: &mut Hub,
        slot: usize,
        g: crate::GatheredSlot,
        ctx: Option<SpanContext>,
    ) -> PendingSolve {
        let mut laps = Laps::start();
        let k = self.config.fleet.num_shards;
        let gathered = Arc::new(g);
        let shards = self.fleet.partition(&gathered.fleet);
        laps.lap("partition");
        let server = EdgeServer::new(gathered.compute_capacity, gathered.storage_capacity_gb);
        let servers = FleetScheduler::split_server(&server, k);
        let results = (0..k).map(|_| None).collect();
        let mut pending = PendingSolve { slot, gathered, shards, servers, attempts: vec![0; k], laps, ctx, results };
        let jobs: Vec<SolveJob> = (0..k).map(|s| self.shard_job(&pending, s)).collect();
        match &mut hub.shards {
            Shards::Workers(pool) => {
                // Every job is queued before any worker is woken, and a
                // woken worker yields while the wake-ups last, so no shard
                // starts while the hub still has workers to wake.
                for (worker, job) in pool.workers.iter().zip(jobs) {
                    // A send failure means the worker died; the join step
                    // will see its Down event (or its pre-marked dead
                    // handle) and degrade the shard to passthrough.
                    let _ = worker.post(WorkerMsg::Solve(job));
                }
                let mut first_woken = None;
                pool.fanning.store(true, Ordering::Relaxed);
                for worker in &pool.workers {
                    worker.wake();
                    first_woken.get_or_insert_with(Instant::now);
                }
                pool.fanning.store(false, Ordering::Relaxed);
                pending.laps.lap("dispatch");
                if lpvs_obs::enabled() {
                    // First wake-up returned → last one did: a woken worker
                    // that displaced the hub mid-fan-out shows up here.
                    let skew = first_woken.map_or(0.0, |at| at.elapsed().as_secs_f64());
                    lpvs_obs::observe("runtime_dispatch_skew_seconds", skew);
                }
            }
            Shards::Held(states) => {
                pending.laps.lap("dispatch");
                let scheduler = LpvsScheduler::new(self.config.fleet.scheduler);
                pending.results = run_shards(states, jobs, |state, job| state.solve(&scheduler, job));
            }
        }
        pending
    }

    /// Restores a dead shard's bank for respawn. With a checkpoint
    /// store: newest valid generation + journal replay since its mark
    /// (`None` when every generation fails its checksum — the ladder
    /// bottoms out). Without one: the state the dying worker shipped
    /// home.
    fn restore_bank(
        &self,
        sup: &mut Supervisor,
        rings: &[Arc<FlightRing>],
        shard: usize,
        pending: &PendingSolve,
        shipped: &ShardState,
    ) -> Option<BayesBank> {
        let bank = if let Some(store) = sup.store.as_mut() {
            // `restore_latest` walks generations newest-first, skipping
            // any that fail checksum/decode. If it skipped (or ran out
            // of) generations, that is corruption worth a blackbox
            // snapshot, whether or not an older generation saved us.
            let rejected_before = store.generations_rejected();
            let restored = store.restore_latest(shard);
            let hit_corruption = store.generations_rejected() > rejected_before;
            if hit_corruption {
                sup.record_flight(rings, shard, pending.slot, FlightReason::CorruptCheckpoint);
            }
            let (generation, snapshot) = restored?;
            let mut bank = snapshot.bank;
            sup.journals[shard].replay_onto(&mut bank, generation.mark);
            // The checkpoint+journal reconstruction must agree with the
            // state the dying worker shipped home — the property that
            // makes snapshot-based respawn safe against double-applied
            // observations.
            debug_assert_eq!(
                bank, shipped.bank,
                "checkpoint+journal replay diverged from the shipped bank"
            );
            let rec = &mut sup.report.shards[shard];
            rec.generation_used = Some(generation.gen);
            rec.slots_replayed += pending.slot.saturating_sub(generation.slot);
            bank
        } else {
            sup.report.shards[shard].inflight_restores += 1;
            shipped.bank.clone()
        };
        Some(bank)
    }

    /// Blocks until every worker has reported on `pending` (hub-held
    /// shards deliver at dispatch). A dying worker is respawned from its
    /// restored bank and the slot re-dispatched to it, until its retry
    /// budget runs out; only then does the shard degrade to passthrough
    /// (and the run to the fallback, at the top of the next slot).
    /// Checkpoint bytes arriving on the event stream are persisted along
    /// the way.
    fn join_workers(&self, pool: &mut Pool, sup: &mut Supervisor, pending: &mut PendingSolve) {
        // Shards already buried (e.g. a death noticed while requesting
        // checkpoints) are passthrough from the start.
        let mut accounted: Vec<bool> = pool.workers.iter().map(|w| w.commands.is_none()).collect();
        let mut remaining = accounted.iter().filter(|&&a| !a).count();
        while remaining > 0 {
            match pool.events.recv() {
                Ok(WorkerEvent::Solved { shard, slot, solved }) => {
                    debug_assert_eq!(slot, pending.slot, "stale solve result");
                    pending.results[shard] = Some(*solved);
                    if !accounted[shard] {
                        accounted[shard] = true;
                        remaining -= 1;
                    }
                }
                Ok(WorkerEvent::Checkpointed { shard, slot, bank, memo }) => {
                    sup.persist(shard, slot, &bank, memo.as_deref());
                }
                Ok(WorkerEvent::Down { state }) => {
                    let s = state.shard;
                    sup.workers_lost += 1;
                    sup.report.shards[s].deaths += 1;
                    if lpvs_obs::enabled() {
                        lpvs_obs::inc_labeled(
                            "runtime_worker_deaths_total",
                            &[("shard", &s.to_string())],
                        );
                    }
                    // Blackbox first, before restore/respawn push new
                    // events into the ring: the recording holds what
                    // the worker did right up to its death.
                    sup.record_flight(&pool.rings, s, pending.slot, FlightReason::WorkerDeath);
                    let attempt = pending.attempts[s];
                    let restored = if accounted[s] || attempt >= MAX_RETRIES {
                        None
                    } else {
                        self.restore_bank(sup, &pool.rings, s, pending, &state)
                    };
                    match restored {
                        Some(bank) => {
                            // Exponential backoff before the respawn —
                            // the attempt bound keeps the shift sane.
                            std::thread::sleep(RESPAWN_BACKOFF * (1u32 << attempt.min(10)));
                            if let Some(old) = pool.workers[s].thread.take() {
                                let _ = old.join();
                            }
                            // The respawned worker starts with no delta
                            // memo, so the re-dispatch solves cold:
                            // recovery correctness never depends on
                            // warm state.
                            pool.workers[s] = self.start_worker(pool, ShardState::new(s, bank));
                            sup.report.shards[s].retries += 1;
                            lpvs_obs::inc("recovery_respawns_total");
                            pending.attempts[s] = attempt + 1;
                            let _ = pool.workers[s].send(WorkerMsg::Solve(self.shard_job(pending, s)));
                            // Not accounted: the respawned worker's
                            // Solved event closes this shard out.
                        }
                        None => {
                            // Retry budget exhausted or no valid
                            // generation: the shard is gone for good.
                            pool.bury(*state);
                            if !accounted[s] {
                                accounted[s] = true;
                                remaining -= 1;
                            }
                        }
                    }
                }
                Ok(WorkerEvent::Finished { state }) => {
                    let s = state.shard;
                    sup.workers_lost += 1;
                    pool.bury(*state);
                    if !accounted[s] {
                        accounted[s] = true;
                        remaining -= 1;
                    }
                }
                Err(_) => break, // every worker gone; the rest are passthrough
            }
        }
    }

    /// The end of every slot's join, under either executor: the time
    /// the hub waited on its shards is the `join` lap; the shard
    /// schedules and the score rows shipped beside them are assembled through
    /// [`FleetScheduler::assemble`]; the slot is counted and published;
    /// and the fleet buffer comes back — every shard dropped its handle
    /// before delivering, so the hub's is unique.
    fn conclude(&self, join: &mut JoinMemo, pending: PendingSolve, run: &mut SlotLoop) -> Collected {
        let PendingSolve { slot, gathered, shards, servers, mut laps, results, .. } = pending;
        laps.lap("join");
        let mut schedule = self.fleet.assemble(
            &gathered.fleet,
            &servers,
            shards,
            results,
            gathered.lambda,
            &gathered.curve,
            laps,
            gathered.delta.as_ref().map(|delta| (join, delta)),
        );
        let tier = worst_tier(&schedule);
        run.count_solved(slot, gathered.refilled, &mut schedule);
        let (buffer, device_ids) = match Arc::try_unwrap(gathered) {
            Ok(g) => (Some(g.fleet), g.device_ids),
            Err(arc) => (None, arc.device_ids.clone()),
        };
        Collected { solved: SolvedSlot { slot, schedule, tier }, buffer, device_ids }
    }

    /// Finishes every live worker, takes every state home (clean exits
    /// and the buried alike) in shard order, and joins the threads.
    /// Checkpoint bytes still in the event stream — a round requested
    /// in an idle slot, which no join carried — are persisted on the
    /// way, so a halted hub's manifest names its last round.
    fn drain(&self, pool: &mut Pool, sup: &mut Supervisor) -> Vec<ShardState> {
        for worker in &mut pool.workers {
            if let Some(tx) = worker.commands.take() {
                let _ = tx.send(WorkerMsg::Finish);
                worker.wake();
            }
        }
        // The pool's own event_tx clone keeps the channel open, so drain
        // by count, not disconnection.
        let mut states = std::mem::take(&mut pool.lost);
        while states.len() < pool.workers.len() {
            match pool.events.recv() {
                Ok(WorkerEvent::Finished { state } | WorkerEvent::Down { state }) => {
                    states.push(*state);
                }
                Ok(WorkerEvent::Checkpointed { shard, slot, bank, memo }) => {
                    sup.persist(shard, slot, &bank, memo.as_deref());
                }
                Ok(WorkerEvent::Solved { .. }) => continue,
                Err(_) => break,
            }
        }
        // Late checkpoint bytes can still be queued behind the final
        // states (a worker checkpoints, then finishes).
        while let Ok(event) = pool.events.try_recv() {
            if let WorkerEvent::Checkpointed { shard, slot, bank, memo } = event {
                sup.persist(shard, slot, &bank, memo.as_deref());
            }
        }
        for worker in &mut pool.workers {
            if let Some(thread) = worker.thread.take() {
                let _ = thread.join();
            }
        }
        states.sort_by_key(|state| state.shard);
        states
    }
}
