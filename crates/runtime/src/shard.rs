//! The shard state and the persistent workers that can hold it.
//!
//! A [`ShardState`] — its shard id, the [`BayesBank`] of γ estimators
//! for the devices it is home to, and the delta memo of its last solve —
//! is the one shard representation under both executors, and it has one
//! body for each per-shard step:
//!
//! * `ShardState::prepare` — fold last slot's observations, apply
//!   staleness forgets, answer posterior queries;
//! * `ShardState::solve` — run the resilient scheduler on this shard's
//!   slice of the shared [`GatheredSlot`] (solver panics are contained:
//!   the shard degrades to passthrough) and return the per-row terms the
//!   solve evaluated beside the schedule, so the join adopts them
//!   instead of evaluating those rows again, and, when the join
//!   rebalances, the [`ShardLoad`] of that schedule. The schedule's
//!   [`SlotWork`] carries the delta path taken and the rows accounted,
//!   counted before the solve runs.
//!
//! The inline executor's hub holds the states and calls both itself. A
//! persistent worker thread holds one and serves a FIFO command stream
//! from the hub, calling the same bodies:
//!
//! * `WorkerMsg::Prepare` — `ShardState::prepare`, answers sent back;
//! * `WorkerMsg::Solve` — `ShardState::solve`, the result sent home. The
//!   worker yields while the hub is still fanning the slot out: woken on
//!   the hub's CPU it would displace a hub that has other shards' jobs
//!   to send, and every shard would wait on that one;
//! * `WorkerMsg::Checkpoint` — encode the bank (and the delta memo)
//!   and ship the bytes home for the hub to seal;
//! * `WorkerMsg::Finish` — ship the state home and exit.
//!
//! The bank holds the same devices from the split to the merge:
//! estimators never move between shards.
//!
//! FIFO ordering is the determinism backbone: a worker sees its bank
//! operations in exactly the order the hub issued them, slot by slot.
//!
//! If the worker itself dies — an injected stage fault, or a panic
//! outside the contained solver — the bank is **not** lost: the worker
//! ships its [`ShardState`] back to the hub on the way down
//! (`WorkerEvent::Down`), so the hub can respawn the shard or, at the
//! bottom of the ladder, hold the states itself.

use crate::GatheredSlot;
use crossbeam::channel::{Receiver, Sender};
use lpvs_bayes::BayesBank;
use lpvs_core::accounting::{RowAccounting, ShardTerms};
use lpvs_core::delta::solve_incremental;
use lpvs_core::scheduler::{LpvsScheduler, Schedule, ScheduleStats, SchedulerConfig};
use lpvs_core::work::{Laps, SlotWork};
use lpvs_edge::fleet::{shard_frontier, solve_cold_shard, FleetScheduler, ShardLoad, GOLDEN_GAMMA};
use lpvs_edge::server::EdgeServer;
use lpvs_obs::{FlightKind, FlightRing, SpanContext};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One shard: identity plus its γ bank and the delta memo of its last
/// solve. Held by the hub under the inline executor, by a worker under
/// [`SlotRuntime::run`](crate::SlotRuntime::run) — which ships it home
/// wholesale when it dies or finishes.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Shard index.
    pub shard: usize,
    /// γ estimators for the devices this shard is home to.
    pub bank: BayesBank,
    /// The previous slot's solve, kept for delta reuse. `None` until
    /// the first delta-carrying solve succeeds, after any invalidation,
    /// in a respawned worker and after the fallback.
    pub memo: Option<ShardDeltaMemo>,
}

impl ShardState {
    /// A fresh shard state with no delta memo.
    pub fn new(shard: usize, bank: BayesBank) -> Self {
        Self { shard, bank, memo: None }
    }

    /// One slot's maintenance and γ queries for this shard: observations
    /// (from the *previous* slot's playback) are folded before forgets
    /// (this slot's staleness), then the queries are answered in order.
    pub(crate) fn prepare(&mut self, ops: ShardOps, ctx: Option<SpanContext>) -> Vec<(f64, f64)> {
        let _span = lpvs_obs::span_in!(
            ctx, "runtime.prepare",
            "shard" => self.shard,
            "observations" => ops.observations.len(),
            "forgets" => ops.forgets.len()
        );
        for (d, ratio) in ops.observations {
            self.bank.observe_or_forget(d, ratio);
        }
        for (d, stale) in ops.forgets {
            self.bank.forget(d, stale);
        }
        ops.queries.iter().map(|&d| self.bank.posterior(d)).collect()
    }
}

/// One shard's share of a slot's bank operations, routed by the hub.
#[derive(Debug, Default)]
pub(crate) struct ShardOps {
    /// `(device, observed_ratio)` in playback order.
    pub observations: Vec<(usize, f64)>,
    /// `(device, stale_slots)` in the source's order.
    pub forgets: Vec<(usize, u32)>,
    /// Devices whose posterior is asked for, in query order.
    pub queries: Vec<usize>,
}

impl ShardOps {
    /// Whether there is nothing to apply or answer.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty() && self.forgets.is_empty() && self.queries.is_empty()
    }
}

/// What a shard's solve hands the join: its schedule (a passthrough when
/// the solver panicked), the rows it evaluated — shard-local: every row
/// after a delta-carrying cold solve, the refreshed ones after an
/// incremental one, else none; `None` when the solver panicked — and its
/// load, when the job asked for one.
pub(crate) type ShardSolved = (Schedule, Option<ShardTerms>, Option<ShardLoad>);

/// What a shard remembers between slots to solve incrementally: the
/// previous slot's schedule plus everything needed to prove the next
/// slot is a contiguous extension of it.
///
/// The memo is valid for a job exactly when the job carries a
/// [`SlotDelta`](lpvs_core::delta::SlotDelta) whose epoch is
/// `memo.epoch + 1` (no missed frontiers), the shard's device list is
/// unchanged (same rows, same order — a connectivity flip or repartition
/// changes it and automatically forces cold), and the shard's
/// capacities and λ are bit-identical. Anything else is a cold solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardDeltaMemo {
    /// Epoch of the delta this memo's schedule consumed.
    pub epoch: u64,
    /// Global fleet indices of the shard at solve time, in shard order.
    pub indices: Vec<usize>,
    /// Shard compute capacity at solve time (bit-compared).
    pub compute_capacity: f64,
    /// Shard storage capacity at solve time (GB, bit-compared).
    pub storage_capacity_gb: f64,
    /// λ at solve time (bit-compared).
    pub lambda: f64,
    /// The shard schedule the memo reuses or extends.
    pub schedule: Schedule,
    /// Per-row eq.-13 and saving terms of `schedule`, so an incremental
    /// solve re-evaluates its frontier only. Derived, never persisted:
    /// empty on a memo decoded from a checkpoint, until the next
    /// incremental solve rebuilds every row once.
    pub(crate) accounting: RowAccounting,
}

/// Fraction gate: the incremental path only pays off while the dirty
/// frontier is small; past a quarter of the shard the residual
/// sub-solve plus the full-slice Phase-2 costs about as much as a cold
/// solve, so the worker solves cold (the memo stays continuous).
const MAX_INCREMENTAL_FRACTION_NUM: usize = 1;
const MAX_INCREMENTAL_FRACTION_DEN: usize = 4;

/// One shard's slice of a dispatched solve.
pub(crate) struct SolveJob {
    pub slot: usize,
    /// Zero on first dispatch; incremented each time the supervisor
    /// re-dispatches the slot to a respawned worker. Stage faults only
    /// kill attempts `<= repeat`, so a bounded retry budget converges.
    pub attempt: u32,
    /// The shared gathered slot; the worker drops this handle *before*
    /// announcing its result, so once every shard has reported, the
    /// hub's handle is unique and the buffer can be recycled.
    pub gathered: Arc<GatheredSlot>,
    /// Global fleet indices of this shard's devices.
    pub indices: Vec<usize>,
    /// This shard's split of the edge compute capacity.
    pub compute_capacity: f64,
    /// This shard's split of the edge storage capacity (GB).
    pub storage_capacity_gb: f64,
    /// Whether the join rebalances, so the shard reports its
    /// [`ShardLoad`] ([`FleetScheduler::rebalances`]).
    pub load: bool,
    /// The hub's `runtime.slot` span context, handed across the
    /// channel so the worker's solve span joins the slot's trace.
    pub ctx: Option<SpanContext>,
}

/// Commands the hub sends a worker (FIFO per worker).
pub(crate) enum WorkerMsg {
    /// Estimator maintenance + posterior queries for one slot
    /// ([`ShardState::prepare`]).
    Prepare {
        ops: ShardOps,
        reply: Sender<Vec<(f64, f64)>>,
        /// Slot-span context for causal attribution of the worker-side
        /// maintenance span.
        ctx: Option<SpanContext>,
    },
    /// Solve this shard's slice of a gathered slot.
    Solve(SolveJob),
    /// Encode the bank and ship the bytes home
    /// ([`WorkerEvent::Checkpointed`]); the hub seals and persists
    /// them. Queued between `Prepare` and `Solve`, so the snapshot
    /// captures the bank exactly as of `prepare(slot)`.
    Checkpoint { slot: usize },
    /// Ship the bank home ([`WorkerEvent::Finished`]) and exit.
    Finish,
}

/// Events workers send the hub on the shared event channel.
pub(crate) enum WorkerEvent {
    /// A solve completed ([`ShardSolved`]).
    Solved { shard: usize, slot: usize, solved: Box<ShardSolved> },
    /// The worker's bank (and delta memo, when one is live), encoded
    /// for checkpointing as of `prepare(slot)`.
    Checkpointed { shard: usize, slot: usize, bank: Vec<u8>, memo: Option<Vec<u8>> },
    /// The worker is exiting abnormally; its state rides along so no
    /// posterior is lost.
    Down { state: Box<ShardState> },
    /// Clean exit after [`WorkerMsg::Finish`].
    Finished { state: Box<ShardState> },
}

/// Deterministic per-(seed, slot, shard) stage-fault decision, made
/// without an RNG stream so worker death reproduces bit-for-bit.
pub(crate) fn stage_fault_hits(seed: u64, slot: usize, shard: usize, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    unit(splitmix64(seed ^ (slot as u64).wrapping_mul(GOLDEN_GAMMA) ^ ((shard as u64) << 32)))
        < rate
}

/// splitmix64's step and finalizer over a pre-salted word: the
/// no-RNG-stream recipe behind stage faults, checkpoint corruption and
/// synthetic mutations, so draw `k` never depends on the draws before it.
pub(crate) fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from one mixed word.
pub(crate) fn unit(word: u64) -> f64 {
    ((word >> 11) as f64) / ((1u64 << 53) as f64)
}

/// Ships the shard state home if the worker unwinds or returns without
/// a clean [`WorkerMsg::Finish`].
struct BankCourier {
    events: Sender<WorkerEvent>,
    state: Option<Box<ShardState>>,
}

impl Drop for BankCourier {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            let _ = self.events.send(WorkerEvent::Down { state });
        }
    }
}

/// Spawns one persistent shard worker.
pub(crate) fn spawn_worker(
    state: ShardState,
    scheduler: SchedulerConfig,
    stage_faults: Option<(f64, u64, u32)>,
    ring: Arc<FlightRing>,
    fanning: Arc<AtomicBool>,
    commands: Receiver<WorkerMsg>,
    events: Sender<WorkerEvent>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let shard = state.shard;
        let scheduler = LpvsScheduler::new(scheduler);
        let mut courier = BankCourier { events: events.clone(), state: Some(Box::new(state)) };
        while let Ok(msg) = commands.recv() {
            let state = courier.state.as_mut().expect("state is present until Finish");
            match msg {
                WorkerMsg::Prepare { ops, reply, ctx } => {
                    if reply.send(state.prepare(ops, ctx)).is_err() {
                        return; // hub gone; courier ships the bank
                    }
                }
                WorkerMsg::Solve(job) => {
                    // Hand the CPU back to a hub still fanning out: every
                    // shard's job is queued before any shard runs one.
                    // (One yield is a hint the scheduler may decline.)
                    while fanning.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                    ring.push(
                        FlightKind::SpanBegin,
                        "solve",
                        job.slot as f64,
                        job.indices.len() as f64,
                    );
                    if let Some((rate, seed, repeat)) = stage_faults {
                        if job.attempt <= repeat && stage_fault_hits(seed, job.slot, shard, rate) {
                            // Simulated worker crash mid-slot: exit
                            // without solving. The courier ships the
                            // bank home; the supervisor respawns the
                            // shard and re-dispatches with attempt+1,
                            // which dies again while attempt <= repeat.
                            // The last ring entry is the solve begin
                            // with no matching end — exactly what a
                            // blackbox should show after a crash.
                            ring.push(
                                FlightKind::Death,
                                "stage_fault",
                                job.slot as f64,
                                job.attempt as f64,
                            );
                            return;
                        }
                    }
                    let slot = job.slot;
                    // Consumes the job, and with it the shared buffer's
                    // handle — released before announcing, so the hub's
                    // is unique once all shards report.
                    let solved = state.solve(&scheduler, job);
                    let ok = if solved.1.is_some() { 1.0 } else { 0.0 };
                    ring.push(FlightKind::SpanEnd, "solve", slot as f64, ok);
                    if events.send(WorkerEvent::Solved { shard, slot, solved: Box::new(solved) }).is_err() {
                        return;
                    }
                }
                WorkerMsg::Checkpoint { slot } => {
                    let bank = lpvs_bayes::codec::bank_to_bytes(&state.bank);
                    let memo = state.memo.as_ref().map(crate::checkpoint::memo_to_bytes);
                    if events
                        .send(WorkerEvent::Checkpointed { shard, slot, bank, memo })
                        .is_err()
                    {
                        return;
                    }
                }
                WorkerMsg::Finish => {
                    let state = courier.state.take().expect("state present at Finish");
                    let _ = events.send(WorkerEvent::Finished { state });
                    return;
                }
            }
        }
        // Command channel disconnected (hub dropped early): the courier
        // ships the bank on the way out.
    })
}

/// How a shard slice was solved this slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeltaPath {
    /// Empty local frontier: the memo's schedule is reused verbatim.
    Reuse,
    /// Non-empty frontier within the fraction gate: residual sub-solve
    /// over the dirty rows merged into the standing selection.
    Incremental,
    /// Full re-solve (no delta, no memo, invalidated memo, or a
    /// frontier too large to pay off).
    Cold,
}

/// Decides the solve path for a job against the shard's memo. Returns
/// the path plus the shard-local dirty positions (for the incremental
/// path) and whether a live memo has to be discarded (a population,
/// epoch or capacity change). No flag rides beside the job: a
/// respawned worker has no memo, so its first solve is cold here.
fn classify_delta(job: &SolveJob, memo: &Option<ShardDeltaMemo>) -> (DeltaPath, Vec<usize>, bool) {
    let Some(delta) = job.gathered.delta.as_ref() else {
        // Sources that don't track deltas solve cold every slot; no
        // memo was promised, so nothing is reset.
        return (DeltaPath::Cold, Vec::new(), false);
    };
    let Some(memo) = memo.as_ref() else {
        return (DeltaPath::Cold, Vec::new(), false);
    };
    if memo.indices != job.indices
        || delta.epoch != memo.epoch + 1
        || memo.compute_capacity.to_bits() != job.compute_capacity.to_bits()
        || memo.storage_capacity_gb.to_bits() != job.storage_capacity_gb.to_bits()
        || memo.lambda.to_bits() != job.gathered.lambda.to_bits()
    {
        return (DeltaPath::Cold, Vec::new(), true);
    }
    let local = shard_frontier(&job.indices, &delta.dirty);
    if local.is_empty() {
        (DeltaPath::Reuse, local, false)
    } else if local.len() * MAX_INCREMENTAL_FRACTION_DEN
        > job.indices.len() * MAX_INCREMENTAL_FRACTION_NUM
    {
        // Past the gate a cold solve is cheaper; the memo survives and
        // stays continuous (it is refreshed from this solve).
        (DeltaPath::Cold, local, false)
    } else {
        (DeltaPath::Incremental, local, false)
    }
}

impl ShardState {
    /// Runs the resilient scheduler on this shard's slice — a view of the
    /// shared gathered fleet, never a copy of it — cold, incrementally
    /// over the dirty frontier, or by reusing the memo outright when
    /// nothing in the shard changed. A solver panic is contained here —
    /// the shard hands the join its passthrough and no terms, and the memo
    /// is dropped. The path and the rows it accounts are counted before
    /// the solve runs, so a solve that panics still reports them. The
    /// shard's own work around the solve is its `shard` laps, and the
    /// solve's spans are recorded from the laps under `runtime.solve`.
    /// The [`ShardLoad`], when the job asks for one, is that of the
    /// schedule returned: a panicked solve's passthrough selects nothing.
    /// Consumes the job, and with it its handle on the shared buffer.
    pub(crate) fn solve(&mut self, scheduler: &LpvsScheduler, job: SolveJob) -> ShardSolved {
        let (shard, memo) = (self.shard, &mut self.memo);
        let mut own = Laps::start();
        // Parented on the hub's slot span via the shipped context, so the
        // solve shows up under its slot's trace instead of as an orphan
        // root on the shard's thread.
        let mut span = lpvs_obs::span_in!(
            job.ctx, "runtime.solve",
            "shard" => shard, "slot" => job.slot, "devices" => job.indices.len()
        );
        let (mut work, rows) = (SlotWork::default(), job.indices.len());
        let (path, local_dirty, reset) = classify_delta(&job, memo);
        if reset {
            *memo = None;
        }
        span.record("frontier", local_dirty.len() as f64);
        // A cold solve accounts every row, a reuse none, an incremental one
        // counts its own (`solve_incremental`).
        let paths = &mut work.delta_path;
        match path {
            DeltaPath::Reuse => paths.reuse += 1,
            DeltaPath::Incremental => paths.incremental += 1,
            DeltaPath::Cold => {
                paths.cold += 1;
                work.rows_accounted.shard += job.indices.len() as u64;
            }
        }

        let g = &job.gathered;
        let (compute, storage_gb) = (job.compute_capacity, job.storage_capacity_gb);
        let view = || g.fleet.slot_view(&job.indices, compute, storage_gb, g.lambda, &g.curve);
        // A cold solve's terms, kept with its memo.
        let mut fresh = RowAccounting::default();
        let solved = match path {
            DeltaPath::Reuse => {
                // Bit-identical to a cold solve by solver determinism: the
                // problem is unchanged, so the answer is too — and no work
                // was done for it, nor time taken.
                memo.as_ref().map(|m| {
                    let stats = ScheduleStats { runtime: Duration::ZERO, ..m.schedule.stats };
                    (Schedule { selected: m.schedule.selected.clone(), stats, ..Schedule::default() }, vec![])
                })
            }
            DeltaPath::Incremental => {
                let m = memo.as_mut().expect("incremental path requires a memo");
                catch_unwind(AssertUnwindSafe(|| {
                    let (was, rung) = (&m.schedule.selected, m.schedule.stats.degradation);
                    let terms = &mut m.accounting;
                    solve_incremental(scheduler, view(), &local_dirty, was, rung, &g.budget, terms)
                }))
                .ok()
            }
            DeltaPath::Cold => solve_cold_shard(scheduler, view(), g.warm.as_deref(), &g.budget).map(
                |(schedule, terms)| {
                    // Without a delta the join keeps nothing, and adopts nothing.
                    let rows = if g.delta.is_some() { job.indices.len() } else { 0 };
                    let shipped = terms.shipment(0..rows);
                    fresh = terms;
                    (schedule, shipped)
                },
            ),
        };

        let selected = solved.as_ref().map_or(&[][..], |(schedule, _)| &schedule.selected);
        let server = EdgeServer::new(compute, storage_gb);
        let load = job.load.then(|| ShardLoad::of(&g.fleet, &server, &job.indices, selected));

        // Refresh the memo: every successful delta-carrying solve becomes
        // the next slot's baseline; panics and delta-less slots clear it.
        *memo = match (&solved, g.delta.as_ref()) {
            (Some((schedule, _)), Some(delta)) => Some(match memo.take() {
                // Reuse and incremental: the memo's rows, capacities and λ
                // are this job's (`classify_delta`), its terms followed the
                // decision, and only a new decision needs copying.
                Some(mut kept) if path != DeltaPath::Cold => {
                    kept.epoch = delta.epoch;
                    if path == DeltaPath::Incremental {
                        kept.schedule.clone_from(schedule);
                    }
                    kept
                }
                // A cold solve starts over, from the terms it evaluated.
                _ => ShardDeltaMemo {
                    epoch: delta.epoch,
                    compute_capacity: compute,
                    storage_capacity_gb: storage_gb,
                    lambda: g.lambda,
                    schedule: schedule.clone(),
                    accounting: fresh,
                    indices: job.indices,
                },
            }),
            _ => None,
        };

        span.record("ok", if solved.is_some() { 1.0 } else { 0.0 });
        let (schedule, terms) = solved.unzip();
        let mut schedule = schedule.unwrap_or_else(|| FleetScheduler::passthrough_schedule(rows));
        schedule.work += work;
        own.splice("shard", &schedule.laps);
        own.lap("shard");
        schedule.laps = own;
        crate::telemetry::record_spans(&schedule.laps, None);
        (schedule, terms, load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_faults_are_deterministic_and_rate_shaped() {
        for slot in 0..64 {
            for shard in 0..4 {
                assert_eq!(
                    stage_fault_hits(7, slot, shard, 0.3),
                    stage_fault_hits(7, slot, shard, 0.3)
                );
                assert!(!stage_fault_hits(7, slot, shard, 0.0));
                assert!(stage_fault_hits(7, slot, shard, 1.0));
            }
        }
        let hits = (0..1000)
            .filter(|&slot| stage_fault_hits(3, slot, 0, 0.1))
            .count();
        assert!((50..200).contains(&hits), "10% rate produced {hits}/1000 hits");
    }
}
