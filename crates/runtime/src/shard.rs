//! The shard state and the persistent workers that can hold it.
//!
//! A [`ShardState`] — its shard id, the [`BayesBank`] of γ estimators
//! for the devices it is home to, and the delta memo of its last solve —
//! is the one shard representation under both executors, and it has one
//! body for each per-shard step:
//!
//! * `ShardState::prepare` — fold last slot's observations, apply
//!   staleness forgets, answer posterior queries;
//! * `ShardState::solve` — solve this shard's slice of the shared
//!   [`GatheredSlot`] through `lpvs-edge`'s shard body, [`solve_shard`],
//!   against this state's memo, under a `runtime.solve` span.
//!
//! The inline executor's hub holds the states and solves them on
//! `lpvs-edge`'s `run_shards`, as `FleetScheduler::schedule` does. A
//! persistent worker thread holds one and serves a FIFO command stream
//! from the hub, calling the same bodies:
//!
//! * `WorkerMsg::Prepare` — `ShardState::prepare`, answers sent back;
//! * `WorkerMsg::Solve` — `ShardState::solve`, the result sent home. The
//!   hub queues every shard's job before it wakes any worker, and the
//!   worker yields while the hub is still waking the others: woken on the
//!   hub's CPU it would displace a hub that has other workers to wake,
//!   and every shard would wait on that one;
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
use lpvs_core::scheduler::{LpvsScheduler, SchedulerConfig};
use lpvs_edge::fleet::GOLDEN_GAMMA;
use lpvs_edge::shard::{solve_shard, ShardDeltaMemo, ShardJob, ShardSolve, SlotInputs};
use lpvs_obs::{FlightKind, FlightRing, SpanContext};
use std::io::{PipeReader, Read};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

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

    /// [`solve_shard`] against this state's memo, under a `runtime.solve`
    /// span parented on the hub's slot span, with the solver's spans
    /// recorded from its laps. Consumes the job, and with it its handle on
    /// the shared buffer, before the caller announces the result.
    pub(crate) fn solve(&mut self, scheduler: &LpvsScheduler, job: SolveJob) -> ShardSolve {
        let mut span = lpvs_obs::span_in!(
            job.ctx, "runtime.solve",
            "shard" => self.shard, "slot" => job.slot, "devices" => job.shard.rows.len()
        );
        let g = &job.gathered;
        let slot = SlotInputs { fleet: &g.fleet, lambda: g.lambda, curve: &g.curve, budget: &g.budget, warm: g.warm.as_deref(), delta: g.delta.as_ref() };
        let solved = solve_shard(scheduler, &mut self.memo, &slot, job.shard);
        span.record("frontier", solved.frontier as f64);
        span.record("ok", if solved.shipped.is_some() { 1.0 } else { 0.0 });
        crate::telemetry::record_spans(&solved.schedule.laps, None);
        solved
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
    /// This shard's rows, its split of the edge server, whether it reports its load.
    pub shard: ShardJob,
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
    /// A solve completed.
    Solved { shard: usize, slot: usize, solved: Box<ShardSolve> },
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

/// How the hub wakes a worker: one byte on `pipe` per message it posts,
/// and `fanning` raised while it wakes the workers for a slot.
pub(crate) struct WakeUp {
    pub pipe: PipeReader,
    pub fanning: Arc<AtomicBool>,
}

/// Spawns one persistent shard worker.
pub(crate) fn spawn_worker(
    state: ShardState,
    scheduler: SchedulerConfig,
    stage_faults: Option<(f64, u64, u32)>,
    ring: Arc<FlightRing>,
    wake: WakeUp,
    commands: Receiver<WorkerMsg>,
    events: Sender<WorkerEvent>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let WakeUp { pipe: mut wake, fanning } = wake;
        let shard = state.shard;
        let scheduler = LpvsScheduler::new(scheduler);
        let mut courier = BankCourier { events: events.clone(), state: Some(Box::new(state)) };
        // The hub wakes a worker with one byte on its pipe per message
        // rather than through the channel: a pipe write is a synchronous
        // wake-up, which Linux places on the writer's CPU when the
        // writer is all that runs there, or on the wakee's idle one. A
        // channel wake-up may queue a worker behind the other shard's on
        // one CPU while the hub's idles through the join — on a two-CPU
        // host the shards then ran one after the other, slot after slot.
        while let (Ok(()), Ok(msg)) = (wake.read_exact(&mut [0; 1]), commands.try_recv()) {
            let state = courier.state.as_mut().expect("state is present until Finish");
            match msg {
                WorkerMsg::Prepare { ops, reply, ctx } => {
                    if reply.send(state.prepare(ops, ctx)).is_err() {
                        return; // hub gone; courier ships the bank
                    }
                }
                WorkerMsg::Solve(job) => {
                    // Hand the CPU back to a hub still waking the other
                    // shards: a wake-up may land on the hub's CPU. (One
                    // yield is a hint the scheduler may decline.)
                    while fanning.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                    ring.push(FlightKind::SpanBegin, "solve", job.slot as f64, job.shard.rows.len() as f64);
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
                    let ok = if solved.shipped.is_some() { 1.0 } else { 0.0 };
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
