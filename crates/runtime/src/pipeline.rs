//! The slot hub and its supervisor.
//!
//! [`SlotRuntime::run`] drives a [`SlotSource`]/[`SlotSink`] driver
//! with the solves on supervised shard workers. The hub (caller's
//! thread) executes, per slot `t` — the same stage order as the inline
//! executor ([`SlotRuntime::run_sequential`]):
//!
//! ```text
//!  begin(t)            source advances faults/connectivity
//!  prepare(t)          route observations(t−1) + forgets(t) + γ queries
//!                      to the owning shard banks
//!  checkpoint(t)       every `interval` slots: ask each worker to
//!                      encode its bank (queued between Prepare and
//!                      Solve, so the snapshot is exactly the
//!                      post-prepare bank); the hub persists the bytes,
//!                      with the shard's fleet slice, during join(t)
//!  gather(t)           source brings the recycled buffer up to date
//!                      (a persistent fleet patches its dirty rows in)
//!  dispatch(t)         partition + fan the shared Arc<GatheredSlot> out
//!                      (a worker yields while the fan-out lasts, so
//!                      every shard's job is queued before any runs)
//!  join(t)             block on the shard results and the per-row
//!                      terms shipped beside them, assemble both
//!                      through FleetScheduler::assemble (which adopts
//!                      the terms instead of re-evaluating the rows),
//!                      deliver solved(t), recycle the fleet buffer
//!  apply(t)            sink plays slot t
//! ```
//!
//! No solve outlives its slot, so `solved(t)` always precedes
//! `apply(t)` and one fleet buffer circulates. The hub recovers it via
//! `Arc::try_unwrap`, which is guaranteed to succeed because every
//! worker drops its handle *before* announcing its result, and hands it
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
//!    back**: finish the slot (dead shards contribute passthrough),
//!    merge every bank, and run the following slots inline through the
//!    sequential [`FleetScheduler`] path.

use crate::checkpoint::{
    CheckpointStore, FlightReason, FlightRecording, JournalOp, LoggedDecision, RecoveryReport,
    ShardJournal,
};
use crate::shard::{spawn_worker, ShardState, SolveJob, WorkerEvent, WorkerMsg};
use crate::{BankOps, CheckpointConfig, CheckpointError, SlotReplay, SlotSink, SlotSource, SolvedSlot};
use crossbeam::channel::{bounded, Receiver, Sender};
use lpvs_bayes::{BayesBank, GammaEstimator};
use lpvs_obs::{FlightRing, SpanContext};
use lpvs_core::accounting::ShardTerms;
use lpvs_core::fleet::DeviceFleet;
use lpvs_core::scheduler::{Degradation, Schedule};
use lpvs_core::work::{Laps, RowsRefilled};
use lpvs_edge::fleet::{FleetConfig, FleetSchedule, FleetScheduler, JoinMemo, ShardLoad};
use lpvs_edge::server::EdgeServer;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use crate::telemetry::{observe_stage, publish};

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
/// workers and falls back to the inline sequential engine.
const MAX_RETRIES: u32 = 5;

/// Base of the exponential respawn backoff (`RESPAWN_BACKOFF << attempt`).
const RESPAWN_BACKOFF: Duration = Duration::from_micros(200);

/// Runtime configuration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Shard count, partitioner, per-shard scheduler, and rebalance
    /// bound — shared with the scoped-thread [`FleetScheduler`] so both
    /// paths solve identically.
    pub fleet: FleetConfig,
    /// Optional injected worker crashes (exercises the recovery
    /// ladder).
    pub stage_faults: Option<StageFaults>,
    /// Periodic shard checkpointing; `None` disables the store (worker
    /// deaths then restore from the shipped in-flight state).
    pub checkpoints: Option<CheckpointConfig>,
    /// Stop the run after this slot completes — a simulated hub crash
    /// for resume tests (pending checkpoint writes are still drained,
    /// so the manifest reflects the newest complete round).
    pub halt_after_slot: Option<usize>,
}

/// Serializable run summary (embedded in emulation reports).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RuntimeSummary {
    /// Whether the shard workers ran the solves (false: inline).
    pub pipelined: bool,
    /// Shard worker count.
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

/// What a slot loop — either executor's — carries from one slot to the
/// next, and its counters; it publishes each solved slot's records
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

    /// Folds the pending observations into an inline bank.
    fn learn(&mut self, bank: &mut BayesBank) {
        for (d, ratio) in self.feedback.drain(..) {
            bank.observe_or_forget(d, ratio);
        }
    }

    /// `gather(slot)` into the recycled buffer, timed — the one gather
    /// call site of both executors, so both emit the same stage series.
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

/// A dispatched, not-yet-joined solve.
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
    /// worker-side solve spans join the slot's trace.
    ctx: Option<SpanContext>,
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
}

impl WorkerHandle {
    fn send(&self, msg: WorkerMsg) -> Result<(), ()> {
        match &self.commands {
            Some(tx) => tx.send(msg).map_err(|_| ()),
            None => Err(()),
        }
    }
}

/// The worker pool plus the routing state the hub keeps about it.
struct Hub {
    workers: Vec<WorkerHandle>,
    events: Receiver<WorkerEvent>,
    /// Kept so the supervisor can wire respawned workers onto the same
    /// event stream.
    event_tx: Sender<WorkerEvent>,
    /// Device → shard whose bank owns its estimator, fixed for the
    /// run: the home partition, or on a resume whatever the restored
    /// banks hold.
    owner: Vec<usize>,
    /// States recovered from permanently dead workers, pending the
    /// merge.
    lost: Vec<ShardState>,
    workers_lost: usize,
    /// Per-shard blackbox rings. Each worker pushes its last few
    /// actions here; the ring survives respawns (the replacement worker
    /// writes into the same ring), so a recording spans the death.
    rings: Vec<Arc<FlightRing>>,
    /// The join's kept per-row accounting: a delta-carrying slot that
    /// extends it re-evaluates only the rows that changed. Starts
    /// empty, on a resume too.
    join: JoinMemo,
    /// Raised while `dispatch` fans a slot out; a worker holding a job
    /// yields until it drops. Publishes nothing — the jobs travel by
    /// channel — so relaxed.
    fanning: Arc<AtomicBool>,
}

impl Hub {
    fn all_alive(&self) -> bool {
        self.workers.iter().all(|w| w.commands.is_some())
    }

    /// Marks a shard permanently dead and keeps its shipped state for
    /// the merge.
    fn bury(&mut self, state: ShardState) {
        let s = state.shard;
        self.workers[s].commands = None;
        self.lost.push(state);
    }
}

/// Everything the supervisor tracks across a run: the checkpoint
/// store, the per-shard write-ahead journals, and the recovery
/// accounting.
struct Supervisor {
    store: Option<CheckpointStore>,
    journals: Vec<ShardJournal>,
    report: RecoveryReport,
}

/// Capacity of a worker's command channel. The hub joins every solve
/// before the next slot begins, so a worker never has more than one
/// slot's commands queued.
const COMMAND_DEPTH: usize = 4;

/// Cap on blackbox recordings kept in one report — enough for every
/// death in a stormy run, bounded against unrecoverable repeat-faults.
const MAX_FLIGHT_RECORDINGS: usize = 32;

impl Supervisor {
    fn new(store: Option<CheckpointStore>, shards: usize) -> Self {
        Self {
            store,
            journals: (0..shards).map(|_| ShardJournal::new()).collect(),
            report: RecoveryReport::new(shards),
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

    /// Journals one shard-bound bank op (no-op without a store — the
    /// journal only exists to extend snapshots forward in time).
    fn journal(&mut self, shard: usize, op: JournalOp) {
        if self.store.is_some() {
            self.journals[shard].push(op);
        }
    }

    /// Persists one worker-encoded snapshot into the pending round.
    /// `pending` (when its slot matches) contributes the shard's
    /// in-flight fleet slice. On round completion the journals are
    /// truncated to the oldest generation still retained.
    fn persist(
        &mut self,
        shard: usize,
        slot: usize,
        bank_bytes: &[u8],
        memo_bytes: Option<&[u8]>,
        pending: Option<&PendingSolve>,
    ) {
        let Some(store) = self.store.as_mut() else { return };
        let fleet_ctx = pending.filter(|p| p.slot == slot).map(|p| {
            let ids: Vec<usize> =
                p.shards[shard].iter().map(|&i| p.gathered.device_ids[i]).collect();
            let slice = p.gathered.fleet.slice_rows(&p.shards[shard]);
            (ids, slice)
        });
        let fleet = fleet_ctx.as_ref().map(|(ids, fl)| (ids.as_slice(), fl));
        match store.persist_shard(shard, slot, bank_bytes, fleet, memo_bytes) {
            Ok(Some(marks)) => {
                for (journal, mark) in self.journals.iter_mut().zip(marks) {
                    journal.truncate_to(mark);
                }
            }
            Ok(None) => {}
            // A failed write just means this generation is missing; the
            // ladder falls through to an older one.
            Err(_) => {}
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
        let _ = store.log_decision(&decision);
    }

    /// Folds the store's counters into the report and returns it.
    fn into_report(self, resumed_at: Option<usize>) -> RecoveryReport {
        let mut report = self.report;
        if let Some(store) = self.store.as_ref() {
            report.checkpoints_written = store.checkpoints_written();
            report.checkpoints_corrupted = store.checkpoints_corrupted();
            report.generations_rejected = store.generations_rejected();
        }
        report.resumed_at = resumed_at;
        report
    }
}

/// The slot runtime: one stage order, two executors.
pub struct SlotRuntime {
    config: RuntimeConfig,
    scheduler: FleetScheduler,
}

impl SlotRuntime {
    /// Creates a runtime.
    ///
    /// # Panics
    ///
    /// Panics if the fleet configuration names zero shards.
    pub fn new(config: RuntimeConfig) -> Self {
        let scheduler = FleetScheduler::new(config.fleet);
        Self { config, scheduler }
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

    fn open_store(&self) -> Option<CheckpointStore> {
        self.config.checkpoints.as_ref().map(|cfg| {
            CheckpointStore::create(cfg, self.config.fleet.num_shards)
                .expect("checkpoint store directory must be creatable")
        })
    }

    /// Runs the driver with the solves on the shard workers, in the
    /// inline executor's stage order. `estimators[d]` is
    /// device `d`'s γ estimator; they are split into shard-local banks
    /// up front and merged back into the report at the end.
    pub fn run<D: SlotSource + SlotSink>(
        &self,
        driver: &mut D,
        estimators: Vec<GammaEstimator>,
    ) -> RuntimeReport {
        let k = self.config.fleet.num_shards;
        let owner = self.home_shards(estimators.len());
        let shards = BayesBank::from_estimators(estimators)
            .split(k, |d| owner[d])
            .into_iter()
            .map(|bank| (bank, None))
            .collect();
        self.run_from(driver, shards, owner, 0, self.open_store(), None)
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
        let mut shards = Vec::with_capacity(k);
        for (s, &gen) in manifest.generations.iter().enumerate() {
            let snapshot = store.load_generation(s, gen)?;
            // The snapshot's memo is the solve the shard completed just
            // before the checkpoint round, so a resumed run continues
            // the incremental chain exactly where the halted one left
            // it. A v1 snapshot has no memo and resumes cold.
            shards.push((snapshot.bank, snapshot.memo));
        }
        // The ownership map is implicit in the restored banks: whatever
        // shard holds a device's estimator owns it. That is the home
        // split, unless the store was written by a build that moved
        // estimators — then the moved owner keeps it.
        let devices = shards
            .iter()
            .flat_map(|(bank, _)| bank.devices())
            .max()
            .map_or(0, |d| d + 1);
        let mut owner = vec![0usize; devices];
        for (s, (bank, _)) in shards.iter().enumerate() {
            for d in bank.devices() {
                owner[d] = s;
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
        Ok(self.run_from(driver, shards, owner, slot, Some(store), Some(slot)))
    }

    /// The worker executor's slot loop, entered at `start_slot` with one
    /// `(bank, delta memo)` pair per shard already split (memos all
    /// `None` on a fresh run) and `owner` routing devices to them.
    fn run_from<D: SlotSource + SlotSink>(
        &self,
        driver: &mut D,
        shards: Vec<(BayesBank, Option<crate::shard::ShardDeltaMemo>)>,
        owner: Vec<usize>,
        start_slot: usize,
        store: Option<CheckpointStore>,
        resumed_at: Option<usize>,
    ) -> RuntimeReport {
        let k = self.config.fleet.num_shards;
        let faults = self.config.stage_faults.map(|f| (f.rate, f.seed, f.repeat));

        let (event_tx, events) = bounded(4 * k + 4);
        let rings: Vec<Arc<FlightRing>> =
            (0..k).map(|_| Arc::new(FlightRing::with_default_capacity())).collect();
        let fanning = Arc::new(AtomicBool::new(false));
        let workers: Vec<WorkerHandle> = shards
            .into_iter()
            .enumerate()
            .map(|(s, (bank, memo))| {
                let (tx, rx) = bounded(COMMAND_DEPTH);
                let thread = spawn_worker(
                    ShardState { shard: s, bank, memo },
                    self.config.fleet.scheduler,
                    faults,
                    Arc::clone(&rings[s]),
                    Arc::clone(&fanning),
                    rx,
                    event_tx.clone(),
                );
                WorkerHandle { commands: Some(tx), thread: Some(thread) }
            })
            .collect();
        let mut hub = Hub {
            workers,
            events,
            event_tx,
            owner,
            lost: Vec::new(),
            workers_lost: 0,
            rings,
            join: JoinMemo::default(),
            fanning,
        };
        let mut sup = Supervisor::new(store, k);
        let interval = self.config.checkpoints.as_ref().map(|c| c.interval);

        let mut run = SlotLoop::default();
        let mut inline: Option<BayesBank> = None;
        let mut slot = start_slot;
        // On a resume, the restored banks already hold `prepare(slot)`'s
        // maintenance (the snapshot was taken right after it), so the
        // first iteration must not re-apply forgets.
        let mut skip_maintenance = resumed_at.is_some();
        // Whether every worker survived the last join; a death seen at
        // join(t) sends slot t + 1 inline.
        let mut healthy = true;

        while let Some(mut ops) = driver.begin_slot(slot) {
            if std::mem::take(&mut skip_maintenance) {
                ops.forgets.clear();
            }
            if let Some(bank) = inline.as_mut() {
                // Sequential fallback: the workers are gone, the merged
                // bank lives here, slots run inline.
                Self::inline_slot(&self.scheduler, driver, bank, slot, &ops, &mut run);
                slot += 1;
                continue;
            }

            let mut slot_span = lpvs_obs::span!("runtime.slot", "slot" => slot);
            // Captured once per slot; every channel hop out of the hub
            // (prepare, dispatch, re-dispatch) carries this context so
            // worker-side spans join the slot's trace.
            let slot_ctx = slot_span.context();

            // --- prepare(t) --------------------------------------------
            // `ops_consumed`: whether banks saw this slot's maintenance,
            // so the fallback path knows whether to replay it.
            let mut ops_consumed = false;
            let posteriors = if healthy {
                ops_consumed = true;
                let observations = std::mem::take(&mut run.feedback);
                for &(d, ratio) in &observations {
                    sup.journal(hub.owner[d], JournalOp::Observe(d, ratio));
                }
                for &(d, stale) in &ops.forgets {
                    sup.journal(hub.owner[d], JournalOp::Forget(d, stale));
                }
                self.prepare(&hub, &ops, observations, slot_ctx).ok()
            } else {
                None
            };

            let Some(posteriors) = posteriors else {
                // --- sequential fallback -------------------------------
                lpvs_obs::inc("runtime_fallback_total");
                let mut bank = self.drain_and_merge(&mut hub, &mut sup);
                // Snapshot every shard's blackbox after the drain —
                // workers are quiescent, so the recording is the
                // deterministic tail of what each did before the
                // hub gave up on them (replay runs compare reports).
                for s in 0..k {
                    sup.record_flight(&hub.rings, s, slot, FlightReason::Fallback);
                }
                if !ops_consumed {
                    run.learn(&mut bank);
                    for &(d, stale) in &ops.forgets {
                        bank.forget(d, stale);
                    }
                }
                let posteriors: Vec<(f64, f64)> =
                    ops.queries.iter().map(|&d| bank.posterior(d)).collect();
                sup.report.fell_back = Some(slot);
                Self::inline_gather_solve_apply(&self.scheduler, driver, slot, &posteriors, &mut run);
                inline = Some(bank);
                slot += 1;
                continue;
            };

            // --- checkpoint round(t) -----------------------------------
            if let Some(interval) = interval {
                if (slot - start_slot).is_multiple_of(interval) {
                    self.request_checkpoints(&mut hub, &mut sup, slot);
                }
            }

            // --- gather(t) → dispatch(t) → join(t) ---------------------
            if let Some(g) = run.gather(driver, slot, &posteriors) {
                let pending = self.dispatch(&mut hub, slot, g, slot_ctx);
                let collected = self.join_solve(&mut hub, &mut sup, pending, &mut run);
                slot_span.record("joined_migrations", collected.solved.schedule.migrations as f64);
                driver.solved(&collected.solved);
                sup.log_decision(&collected);
                healthy = hub.all_alive();
                run.recycled = collected.buffer;
            }

            // --- apply(t) ----------------------------------------------
            run.apply(driver, slot);
            if self.config.halt_after_slot == Some(slot) {
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
        let estimators = if let Some(mut bank) = inline.take() {
            run.learn(&mut bank);
            bank.into_dense()
        } else {
            // The last slot's observations still belong in the banks —
            // the inline executor folds them after its last slot too.
            // Root a span for them so the worker-side prepare spans
            // stay parented (no orphans anywhere in the runtime).
            if !run.feedback.is_empty() {
                let tail_span =
                    lpvs_obs::span!("runtime.tail", "observations" => run.feedback.len());
                let _ = self.prepare(
                    &hub,
                    &BankOps::default(),
                    std::mem::take(&mut run.feedback),
                    tail_span.context(),
                );
            }
            self.drain_and_merge(&mut hub, &mut sup).into_dense()
        };
        if let Some(store) = sup.store.as_mut() {
            let _ = store.flush_decisions();
        }

        RuntimeReport {
            summary: RuntimeSummary {
                pipelined: true,
                shards: k,
                slots: run.slots,
                solved_slots: run.solved_slots,
                workers_lost: hub.workers_lost,
                recovery: sup.into_report(resumed_at),
            },
            estimators,
            solve_runtime: run.solve_runtime,
            slot_solve_runtimes: run.slot_solve_runtimes,
        }
    }

    /// Runs the driver inline — the stage order of [`Self::run`], but
    /// the solve through the scoped-thread [`FleetScheduler`] and one
    /// global bank on the caller's thread. The baseline the worker
    /// executor is benchmarked and determinism-tested against, and
    /// what it falls back to.
    pub fn run_sequential<D: SlotSource + SlotSink>(
        &self,
        driver: &mut D,
        estimators: Vec<GammaEstimator>,
    ) -> RuntimeReport {
        let mut bank = BayesBank::from_estimators(estimators);
        let mut run = SlotLoop::default();
        let mut slot = 0usize;
        while let Some(ops) = driver.begin_slot(slot) {
            Self::inline_slot(&self.scheduler, driver, &mut bank, slot, &ops, &mut run);
            slot += 1;
        }
        run.learn(&mut bank);
        RuntimeReport {
            summary: RuntimeSummary {
                pipelined: false,
                shards: self.config.fleet.num_shards,
                slots: run.slots,
                solved_slots: run.solved_slots,
                workers_lost: 0,
                recovery: RecoveryReport::default(),
            },
            estimators: bank.into_dense(),
            solve_runtime: run.solve_runtime,
            slot_solve_runtimes: run.slot_solve_runtimes,
        }
    }

    /// One inline slot: bank maintenance, gather, solve
    /// through the scoped-thread fleet path, apply.
    fn inline_slot<D: SlotSource + SlotSink>(
        scheduler: &FleetScheduler,
        driver: &mut D,
        bank: &mut BayesBank,
        slot: usize,
        ops: &BankOps,
        run: &mut SlotLoop,
    ) {
        // The same root the worker loop opens per slot, so the shard
        // spans and the driver's have a parent under either executor.
        let _slot_span = lpvs_obs::span!("runtime.slot", "slot" => slot);
        run.learn(bank);
        for &(d, stale) in &ops.forgets {
            bank.forget(d, stale);
        }
        let posteriors: Vec<(f64, f64)> = ops.queries.iter().map(|&d| bank.posterior(d)).collect();
        Self::inline_gather_solve_apply(scheduler, driver, slot, &posteriors, run);
    }

    /// The gather → solve → solved → apply tail of an inline slot.
    fn inline_gather_solve_apply<D: SlotSource + SlotSink>(
        scheduler: &FleetScheduler,
        driver: &mut D,
        slot: usize,
        posteriors: &[(f64, f64)],
        run: &mut SlotLoop,
    ) {
        if let Some(g) = run.gather(driver, slot, posteriors) {
            let server = EdgeServer::new(g.compute_capacity, g.storage_capacity_gb);
            let mut schedule =
                scheduler.schedule(&g.fleet, &server, g.lambda, &g.curve, g.warm.as_deref(), &g.budget);
            let tier = worst_tier(&schedule);
            run.count_solved(slot, g.refilled, &mut schedule);
            driver.solved(&SolvedSlot { slot, schedule, tier });
            run.recycled = Some(g.fleet);
        }
        run.apply(driver, slot);
    }

    /// Requests a checkpoint round: drains any checkpoint bytes still
    /// waiting from an earlier round (idle slots can keep a join from
    /// running), then asks every live worker to encode its bank. The
    /// request is queued between `Prepare(slot)` and `Solve(slot)`, so
    /// the snapshot is exactly the post-prepare bank.
    fn request_checkpoints(&self, hub: &mut Hub, sup: &mut Supervisor, slot: usize) {
        loop {
            match hub.events.try_recv() {
                Ok(WorkerEvent::Checkpointed { shard, slot: ckpt_slot, bank, memo }) => {
                    sup.persist(shard, ckpt_slot, &bank, memo.as_deref(), None);
                }
                Ok(WorkerEvent::Down { state } | WorkerEvent::Finished { state }) => {
                    // No solve is outstanding here, so this death has
                    // nothing to re-dispatch: it is permanent, and the
                    // next prepare touching the shard triggers the
                    // fallback.
                    sup.report.shards[state.shard].deaths += 1;
                    sup.record_flight(&hub.rings, state.shard, slot, FlightReason::WorkerDeath);
                    hub.workers_lost += 1;
                    hub.bury(*state);
                }
                Ok(WorkerEvent::Solved { .. }) | Err(_) => break,
            }
        }
        let marks: Vec<u64> = sup.journals.iter().map(|j| j.mark()).collect();
        if let Some(store) = sup.store.as_mut() {
            store.begin_round(slot, marks);
        }
        for worker in &hub.workers {
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
            indices: pending.shards[s].clone(),
            compute_capacity: pending.servers[s].compute_capacity(),
            storage_capacity_gb: pending.servers[s].storage_capacity_gb(),
            load: self.scheduler.rebalances(pending.servers.len()),
            ctx: pending.ctx,
        }
    }

    /// Partitions a gathered slot and fans it out to the workers.
    fn dispatch(
        &self,
        hub: &mut Hub,
        slot: usize,
        g: crate::GatheredSlot,
        ctx: Option<SpanContext>,
    ) -> PendingSolve {
        // The fleet slot starts before the partition, as on the scoped
        // path, so both executors time the same stages.
        let mut laps = Laps::start();
        let k = hub.workers.len();
        let gathered = Arc::new(g);
        let shards = self.scheduler.partition(&gathered.fleet);
        laps.lap("partition");
        let server = EdgeServer::new(gathered.compute_capacity, gathered.storage_capacity_gb);
        let servers = FleetScheduler::split_server(&server, k);
        let mut pending =
            PendingSolve { slot, gathered, shards, servers, attempts: vec![0; k], laps, ctx };
        let jobs: Vec<SolveJob> = (0..k).map(|s| self.shard_job(&pending, s)).collect();
        let mut first_sent = None;
        hub.fanning.store(true, Ordering::Relaxed);
        for (worker, job) in hub.workers.iter().zip(jobs) {
            // A send failure means the worker died; the join step will
            // see its Down event (or its pre-marked dead handle) and
            // degrade the shard to passthrough.
            let _ = worker.send(WorkerMsg::Solve(job));
            first_sent.get_or_insert_with(Instant::now);
        }
        hub.fanning.store(false, Ordering::Relaxed);
        pending.laps.lap("dispatch");
        if lpvs_obs::enabled() {
            // First `send` returned → last one did: a woken worker that
            // displaced the hub mid-fan-out shows up here.
            let skew = first_sent.map_or(0.0, |at| at.elapsed().as_secs_f64());
            lpvs_obs::observe("runtime_dispatch_skew_seconds", skew);
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

    /// Blocks until every shard has reported on `pending`, then joins
    /// the results through [`FleetScheduler::assemble`]. A dying worker
    /// is respawned from its restored bank and the slot re-dispatched
    /// to it, until its retry budget runs out — only then does the
    /// shard degrade to passthrough (and the run to the sequential
    /// fallback, via the health check after this join). Checkpoint
    /// bytes arriving on the event stream are persisted along the way.
    fn join_solve(
        &self,
        hub: &mut Hub,
        sup: &mut Supervisor,
        mut pending: PendingSolve,
        run: &mut SlotLoop,
    ) -> Collected {
        let k = hub.workers.len();
        let mut results: Vec<Option<(Schedule, Option<ShardLoad>)>> = (0..k).map(|_| None).collect();
        let mut shipped: Vec<ShardTerms> = vec![Vec::new(); k];
        // Shards already buried (e.g. a death noticed while requesting
        // checkpoints) are passthrough from the start.
        let mut accounted: Vec<bool> = hub.workers.iter().map(|w| w.commands.is_none()).collect();
        let mut remaining = accounted.iter().filter(|&&a| !a).count();
        while remaining > 0 {
            match hub.events.recv() {
                Ok(WorkerEvent::Solved { shard, slot, schedule, terms, load }) => {
                    debug_assert_eq!(slot, pending.slot, "stale solve result");
                    results[shard] = Some((*schedule, load));
                    shipped[shard] = terms;
                    if !accounted[shard] {
                        accounted[shard] = true;
                        remaining -= 1;
                    }
                }
                Ok(WorkerEvent::Checkpointed { shard, slot, bank, memo }) => {
                    sup.persist(shard, slot, &bank, memo.as_deref(), Some(&pending));
                }
                Ok(WorkerEvent::Down { state }) => {
                    let s = state.shard;
                    hub.workers_lost += 1;
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
                    sup.record_flight(&hub.rings, s, pending.slot, FlightReason::WorkerDeath);
                    let attempt = pending.attempts[s];
                    let restored = if accounted[s] || attempt >= MAX_RETRIES {
                        None
                    } else {
                        self.restore_bank(sup, &hub.rings, s, &pending, &state)
                    };
                    match restored {
                        Some(bank) => {
                            // Exponential backoff before the respawn —
                            // the attempt bound keeps the shift sane.
                            std::thread::sleep(RESPAWN_BACKOFF * (1u32 << attempt.min(10)));
                            if let Some(old) = hub.workers[s].thread.take() {
                                let _ = old.join();
                            }
                            let (tx, rx) = bounded(COMMAND_DEPTH);
                            let faults =
                                self.config.stage_faults.map(|f| (f.rate, f.seed, f.repeat));
                            // The respawned worker starts with no delta
                            // memo, so the re-dispatch solves cold:
                            // recovery correctness never depends on
                            // warm state.
                            let thread = spawn_worker(
                                ShardState::new(s, bank),
                                self.config.fleet.scheduler,
                                faults,
                                Arc::clone(&hub.rings[s]),
                                Arc::clone(&hub.fanning),
                                rx,
                                hub.event_tx.clone(),
                            );
                            hub.workers[s] =
                                WorkerHandle { commands: Some(tx), thread: Some(thread) };
                            sup.report.shards[s].retries += 1;
                            lpvs_obs::inc("recovery_respawns_total");
                            pending.attempts[s] = attempt + 1;
                            let _ = hub.workers[s].send(WorkerMsg::Solve(self.shard_job(&pending, s)));
                            // Not accounted: the respawned worker's
                            // Solved event closes this shard out.
                        }
                        None => {
                            // Retry budget exhausted or no valid
                            // generation: the shard is gone for good.
                            hub.bury(*state);
                            if !accounted[s] {
                                accounted[s] = true;
                                remaining -= 1;
                            }
                        }
                    }
                }
                Ok(WorkerEvent::Finished { state }) => {
                    let s = state.shard;
                    hub.workers_lost += 1;
                    hub.bury(*state);
                    if !accounted[s] {
                        accounted[s] = true;
                        remaining -= 1;
                    }
                }
                Err(_) => break, // every worker gone; the rest are passthrough
            }
        }

        // The hub blocked on its workers is the slot's solve lap; the
        // join adds the hub working alone while they idle.
        let PendingSolve { slot, gathered, shards, servers, mut laps, .. } = pending;
        laps.lap("join");
        let mut schedule = self.scheduler.assemble(
            &gathered.fleet,
            &servers,
            shards,
            results,
            gathered.lambda,
            &gathered.curve,
            laps,
            gathered.delta.as_ref().map(|delta| (&mut hub.join, delta, &shipped[..])),
        );
        let tier = worst_tier(&schedule);
        run.count_solved(slot, gathered.refilled, &mut schedule);
        // Every worker dropped its handle before reporting, so ours is
        // unique and the buffer comes back for the next gather.
        let (buffer, device_ids) = match Arc::try_unwrap(gathered) {
            Ok(g) => (Some(g.fleet), g.device_ids),
            Err(arc) => (None, arc.device_ids.clone()),
        };
        Collected { solved: SolvedSlot { slot, schedule, tier }, buffer, device_ids }
    }

    /// Routes one slot's bank maintenance and γ queries to the owning
    /// shards and gathers the posterior answers back in query order.
    /// Per-message order (observations, then forgets, then queries)
    /// mirrors the inline executor's per-device operation order.
    fn prepare(
        &self,
        hub: &Hub,
        ops: &BankOps,
        observations: Vec<(usize, f64)>,
        ctx: Option<SpanContext>,
    ) -> Result<Vec<(f64, f64)>, ()> {
        let k = hub.workers.len();
        let mut per_obs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); k];
        let mut per_forgets: Vec<Vec<(usize, u32)>> = vec![Vec::new(); k];
        let mut per_queries: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut query_slots: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (d, ratio) in observations {
            per_obs[hub.owner[d]].push((d, ratio));
        }
        for &(d, stale) in &ops.forgets {
            per_forgets[hub.owner[d]].push((d, stale));
        }
        for (pos, &d) in ops.queries.iter().enumerate() {
            let s = hub.owner[d];
            per_queries[s].push(d);
            query_slots[s].push(pos);
        }

        // Fan out first so shards work concurrently, then await replies
        // in shard order.
        type PosteriorReply = Receiver<Vec<(f64, f64)>>;
        let mut pending: Vec<(usize, PosteriorReply)> = Vec::new();
        for s in 0..k {
            if per_obs[s].is_empty() && per_forgets[s].is_empty() && per_queries[s].is_empty() {
                continue;
            }
            let (reply_tx, reply_rx) = bounded(1);
            hub.workers[s].send(WorkerMsg::Prepare {
                observations: std::mem::take(&mut per_obs[s]),
                forgets: std::mem::take(&mut per_forgets[s]),
                queries: std::mem::take(&mut per_queries[s]),
                reply: reply_tx,
                ctx,
            })?;
            pending.push((s, reply_rx));
        }
        let mut posteriors = vec![(0.0, 0.0); ops.queries.len()];
        for (s, reply_rx) in pending {
            let answers = reply_rx.recv().map_err(|_| ())?;
            for (&pos, answer) in query_slots[s].iter().zip(answers) {
                posteriors[pos] = answer;
            }
        }
        Ok(posteriors)
    }

    /// Finishes every live worker, collects every bank (clean exits and
    /// casualties alike), joins the threads, and merges the banks.
    /// Checkpoint bytes still in the event stream — a round requested
    /// in an idle slot, which no join carried — are persisted on the
    /// way, so a halted hub's manifest names its last round.
    fn drain_and_merge(&self, hub: &mut Hub, sup: &mut Supervisor) -> BayesBank {
        for worker in &mut hub.workers {
            if let Some(tx) = worker.commands.take() {
                let _ = tx.send(WorkerMsg::Finish);
            }
        }
        // The hub's own event_tx clone keeps the channel open, so drain
        // by count, not disconnection.
        let mut states = std::mem::take(&mut hub.lost);
        while states.len() < hub.workers.len() {
            match hub.events.recv() {
                Ok(WorkerEvent::Finished { state } | WorkerEvent::Down { state }) => {
                    states.push(*state);
                }
                Ok(WorkerEvent::Checkpointed { shard, slot, bank, memo }) => {
                    sup.persist(shard, slot, &bank, memo.as_deref(), None);
                }
                Ok(WorkerEvent::Solved { .. }) => continue,
                Err(_) => break,
            }
        }
        // Late checkpoint bytes can still be queued behind the final
        // states (a worker checkpoints, then finishes).
        while let Ok(event) = hub.events.try_recv() {
            if let WorkerEvent::Checkpointed { shard, slot, bank, memo } = event {
                sup.persist(shard, slot, &bank, memo.as_deref(), None);
            }
        }
        for worker in &mut hub.workers {
            if let Some(thread) = worker.thread.take() {
                let _ = thread.join();
            }
        }
        BayesBank::merge(states.into_iter().map(|s| s.bank))
    }
}
