//! # lpvs-runtime — the slot runtime: one driver, one order, two executors
//!
//! The emulator's slot loop (`lpvs-emulator`, paper Fig. 6) is gather →
//! schedule → transform/play, one slot at a time. This crate owns that
//! loop for every caller: a driver implements the stages once
//! ([`SlotSource`]/[`SlotSink`]) and the runtime calls them in one
//! order — `begin → gather → solve → solved → apply`, so a slot's
//! decision is always delivered inside that slot — in one slot loop under
//! either of two executors, which differ only in *who runs the shards*.
//! Each shard is a [`ShardState`]: the shard-local
//! [`BayesBank`](lpvs_bayes::BayesBank) of γ estimators of its home
//! devices and the delta memo of its last solve, prepared and solved by
//! one body whoever holds it (the solve: `lpvs_edge::shard::solve_shard`):
//!
//! * **inline** ([`SlotRuntime::run_sequential`]): the caller's thread
//!   holds every state and solves shard 0 itself, the others on scoped
//!   threads (`lpvs_edge::shard::run_shards`);
//! * **workers** ([`SlotRuntime::run`]): **persistent shard workers** —
//!   plain std threads on `crossbeam` bounded channels — each hold one,
//!   and the **hub** (the caller's thread) owns the slot clock and
//!   supervises them.
//!
//! Each estimator stays in its home shard's bank for the whole run — the
//! cross-shard rebalance moves *decisions*, never γ state — so the slot
//! path has **no global Bayes bank and no cross-shard lock**. The
//! gathered slot travels as one shared columnar [`DeviceFleet`]; the hub
//! takes the buffer back once every shard has dropped its handle and
//! hands it to the next gather.
//!
//! ## Semantics: bit-identical executors
//!
//! The two executors produce the same `SlotRecord`s, the same delivered
//! `FleetSchedule`s — delta path, reuse and incremental solves included —
//! and the same final γ posteriors, bit for bit, for any driver whose
//! solves no wall-clock deadline cuts short, delta-carrying or not
//! (`tests/runtime.rs` pins the call order and the results on sources
//! of both kinds). The ingredients: per-device estimator operations reach the
//! banks in slot order (over FIFO channels to workers), disjoint banks
//! make cross-device order irrelevant, each shard is solved by the same
//! body against the same memo, and the per-shard results are joined
//! through the same
//! [`FleetScheduler::assemble`](lpvs_edge::fleet::FleetScheduler::assemble)
//! call with the same join memo. Whether a decision is *applied*
//! in the slot it was gathered for or one slot later (the emulator's
//! *one-slot-ahead* mode, paper §VI-B.2) is the driver's choice; no
//! executor imposes a lag.
//!
//! (The hub once overlapped `gather(t+1) ∥ solve(t) ∥ apply(t−1)`,
//! which forced that lag on every driver and measured 1.00× — hence
//! the module name `pipeline`; DESIGN.md §7 has the numbers.)
//!
//! ## Supervised recovery
//!
//! A shard whose *solver* panics degrades to passthrough for the slot
//! (the existing fleet ladder). A shard whose *worker* dies — injected
//! stage faults, or a panic outside the solver — is **respawned** by
//! the hub's supervisor with exponential backoff: its bank is restored
//! from the newest valid checkpoint generation plus a write-ahead
//! journal replay (or, with no store configured, from the state the
//! dying worker shipped home), and the slot is re-dispatched to it.
//! Only when a shard's retry budget is exhausted — or every checkpoint
//! generation fails its checksum — does the hub finish the slot, take
//! every shard state home, and run the remaining slots as the inline
//! executor does. The run's [`RecoveryReport`] accounts for every death,
//! retry, replayed slot and failed durable write; `fell_back` records
//! the slot the hub took over from when the ladder bottomed out.
//!
//! Periodic checkpoint rounds also write a run manifest and decision
//! log, so a *restarted hub* can [`SlotRuntime::resume`] mid-horizon:
//! banks come back from the manifest's snapshot generations, logged
//! decisions are replayed through the [`SlotReplay`] sink, and the
//! slot loop re-enters where the manifest left off — bit-identical to
//! a run that never stopped.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod pipeline;
pub mod shard;
pub mod synthetic;
pub mod telemetry;

pub use checkpoint::{
    flight_to_jsonl, CheckpointConfig, CheckpointError, CheckpointStore, FlightReason,
    FlightRecording, LoggedDecision, RecoveryReport, RecoveryTier, RunManifest,
    ShardRecovery, ShardSnapshot,
};
pub use pipeline::{RuntimeConfig, RuntimeReport, RuntimeSummary, SlotRuntime, StageFaults};
pub use lpvs_edge::shard::ShardDeltaMemo;
pub use shard::ShardState;
pub use synthetic::{SyntheticConfig, SyntheticDriver, SyntheticRecord};

use lpvs_core::budget::SlotBudget;
use lpvs_core::delta::SlotDelta;
use lpvs_core::fleet::DeviceFleet;
use lpvs_core::scheduler::Degradation;
use lpvs_core::work::RowsRefilled;
use lpvs_edge::fleet::FleetSchedule;
use lpvs_survey::curve::AnxietyCurve;
use serde::{Deserialize, Serialize};

/// Estimator maintenance a source requests at the top of a slot,
/// before any posterior is read.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BankOps {
    /// `(device, stale_slots)` staleness inflations — e.g. every
    /// disconnected device forgets one slot.
    pub forgets: Vec<(usize, u32)>,
    /// Devices whose γ posterior the gather step needs, in the order
    /// the source wants them answered.
    pub queries: Vec<usize>,
}

/// One slot's gathered problem, ready to solve. Shared read-only with
/// every shard for the duration of the solve.
#[derive(Debug, Clone, PartialEq)]
pub struct GatheredSlot {
    /// Slot index.
    pub slot: usize,
    /// Sanitized columnar population: rows the monolithic path would
    /// reject are present but marked disconnected.
    pub fleet: DeviceFleet,
    /// Global device id of each fleet row (fleet order). The decision
    /// log and the checkpointed fleet slices are keyed on these.
    pub device_ids: Vec<usize>,
    /// Edge compute capacity the slot sees (post-brownout).
    pub compute_capacity: f64,
    /// Edge storage capacity the slot sees (GB, post-brownout).
    pub storage_capacity_gb: f64,
    /// Regularization λ.
    pub lambda: f64,
    /// The cohort's anxiety curve.
    pub curve: AnxietyCurve,
    /// Per-slot solver budget (node caps, stall deadlines).
    pub budget: SlotBudget,
    /// Warm-start selection in fleet order, if the previous slot's
    /// population matches.
    pub warm: Option<Vec<bool>>,
    /// The slot's change set — which fleet rows mutated since the
    /// previous gather — captured from the source fleet's dirty
    /// frontier. `None` means the source does not track deltas (the
    /// trace emulator rebuilds its fleet every slot), which forces
    /// every shard down the cold path.
    pub delta: Option<SlotDelta>,
    /// Rows the gather copied into `fleet` ([`DeviceFleet::ship_snapshot`]);
    /// zero for a source that builds its fleet afresh. The runtime adds
    /// them to the slot's delivered `FleetSchedule::work`.
    pub refilled: RowsRefilled,
}

/// A completed fleet solve, delivered to [`SlotSink::solved`] once all
/// shards have reported — inside the slot it was gathered for.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvedSlot {
    /// The slot the decision was computed **for** (= gathered at).
    pub slot: usize,
    /// The joined fleet decision: selection in fleet order, per-shard
    /// reports, rebalance migrations, objective.
    pub schedule: FleetSchedule,
    /// The worst degradation rung any shard fell to.
    pub tier: Degradation,
}

/// What playback learned during apply: per-device observed
/// power-reduction ratios, folded into the owning banks at the top of
/// the next slot (after the gather that used the pre-observation
/// posterior — the same order under either executor).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SlotFeedback {
    /// `(device, observed_ratio)` in playback order.
    pub observations: Vec<(usize, f64)>,
}

/// The producing half of a slot driver: tells the runtime what each
/// slot needs from the banks, then gathers the slot problem.
pub trait SlotSource {
    /// Starts slot `slot`: advances connectivity/faults and returns the
    /// estimator maintenance due before posteriors are read. `None`
    /// ends the run (the horizon is exhausted).
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps>;

    /// Gathers slot `slot` into a solvable problem. `posteriors[i]` is
    /// the `(mean, std)` answer to `queries[i]` from [`BankOps`].
    /// `recycled` is the buffer this source shipped as
    /// [`GatheredSlot::fleet`] for the last *solved* slot, untouched, to
    /// be brought up to date in place ([`DeviceFleet::ship_snapshot`]
    /// patches in the dirty rows when its epoch shows no gather was
    /// missed) — or `None`: before the first solve, at a resume, when a
    /// worker still held it, or after an idle slot (it is handed over
    /// once; a source that wants it for its next solve keeps it).
    /// Returns `None` for an idle slot (nobody watching — no solve is
    /// dispatched, but [`SlotSink::apply`] still runs).
    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot>;
}

/// The consuming half of a slot driver: receives solve results and
/// plays slots out.
pub trait SlotSink {
    /// A solve completed. Called in slot order, always before
    /// `apply(t)` of the same slot, under either executor. A sink may
    /// apply the decision right there (`solved.slot == t`, a lag of
    /// zero) or stage it for a later slot (one-slot-ahead consumes
    /// stagings with `solved.slot < t`).
    fn solved(&mut self, solved: &SolvedSlot);

    /// Plays slot `slot` (transform + playback + accounting) and
    /// returns what the banks should learn from it.
    fn apply(&mut self, slot: usize) -> SlotFeedback;
}

/// Deterministic replay of already-decided slots, for resuming a
/// halted run mid-horizon: the hub feeds logged decisions back through
/// the sink and replays each slot *without* re-gathering or re-solving
/// it, rebuilding the driver's internal state (batteries, churn
/// baselines, accounting) exactly as the original run left it.
pub trait SlotReplay {
    /// Stages a logged decision exactly as [`SlotSink::solved`] would
    /// have — selection and tier only, no re-assembled schedule.
    fn stage_decision(
        &mut self,
        slot: usize,
        device_ids: &[usize],
        selected: &[bool],
        tier: Degradation,
    );

    /// Replays slot `slot` end to end (faults, connectivity, playback,
    /// accounting) using whatever decisions have been staged; any
    /// feedback the slot produces is discarded — the restored banks
    /// already contain it.
    fn replay_slot(&mut self, slot: usize);
}
