//! # lpvs-core — the LPVS scheduler
//!
//! This crate is the paper's primary contribution (§IV–V): at each
//! scheduling point, choose the subset of mobile devices whose video
//! streams the edge server will transform, minimizing a joint objective
//! of display energy and λ-weighted low-battery anxiety, subject to the
//! server's compute/storage capacity and each device's energy
//! feasibility.
//!
//! The solution pipeline follows the paper exactly:
//!
//! * [`problem`] — the slot problem: per-device chunk power rates,
//!   energy status, γ estimate, and resource costs, plus the server
//!   capacities and λ;
//! * [`compact`] — *information compacting* (§V-B): eliminates the
//!   per-chunk energy recursion from the constraints (eqs. 9–11) so the
//!   feasibility of transforming a device becomes a single per-device
//!   precomputation;
//! * [`objective`] — the compacted objective (eq. 13), separable per
//!   device, with an equivalent chunk-recursive evaluator used to
//!   verify the equivalence claim;
//! * [`phase1`] — Phase-1 (§V-C): energy-saving maximization as a 0/1
//!   ILP over the capacity knapsacks, solved exactly with
//!   [`lpvs_solver`]'s branch-and-bound, or greedily — for ablation, and
//!   as the resilient scheduler's fallback rung;
//! * [`phase2`] — Phase-2 (§V-C): anxiety-driven swapping that trades
//!   selected devices for high-anxiety ones whenever the full
//!   λ-weighted objective improves;
//! * [`scheduler`] — [`LpvsScheduler`] tying the phases together, with
//!   configuration switches for every ablation DESIGN.md names;
//! * [`baseline`] — the comparison policies: no transform, random
//!   selection, greedy lowest-battery, greedy highest-saving, and an
//!   exhaustive oracle for small clusters;
//! * [`explain`](mod@crate::explain) — per-device explanations of a schedule (selected /
//!   lost on capacity / energy-infeasible / no benefit);
//! * [`provision`] — capacity shadow prices from the Phase-1 LP
//!   relaxation (marginal joules per compute unit / storage GB);
//! * [`budget`] — the per-slot compute budget ([`SlotBudget`]) the
//!   resilient scheduler degrades against;
//! * [`fleet`] — the columnar [`DeviceFleet`] store and the
//!   [`SlotView`] over it, with per-row dirty bits and epoch counters
//!   feeding the delta path;
//! * [`kernels`] — the batched columnar kernels for constraint (11)
//!   and eq. (13) that every solve runs on;
//! * [`delta`] — delta-aware incremental solving: [`SlotDelta`] change
//!   sets and the residual sub-solve that re-solves only the dirty
//!   frontier of a shard;
//! * [`accounting`] — [`RowAccounting`]: the per-row eq.-13 and saving
//!   terms every total is folded from, refreshed where rows changed.
//!
//! # One solve-path representation
//!
//! The engine — both Phase-1 solvers, [`run_phase2_over`], the
//! eq.-13 accounting, [`LpvsScheduler::schedule_view`],
//! [`solve_shard_incremental`] — takes a [`SlotView`]: fleet columns,
//! a row list, capacities, λ, curve; borrowed and `Copy`. Callers that
//! hold a fleet (`lpvs_edge::fleet`, `lpvs_runtime`) solve views of it
//! and copy nothing. The row-taking functions
//! ([`LpvsScheduler::schedule_resilient`] and the other `schedule*`,
//! [`solve_phase1`], [`run_phase2`], [`objective_value`],
//! [`kernels::with_problem_columns`]) are adapters: they load the
//! [`SlotProblem`] into a thread-local fleet through the one
//! rows→columns loader ([`DeviceFleet::rebuild_from_problem`], which is
//! also where corrupt telemetry is neutralized) and call the engine.
//! The per-row functions of [`compact`] and [`objective`] are the
//! oracles the kernels are tested against, and what [`explain()`],
//! [`baseline`] and [`provision`] use off the hot path.
//!
//! A note on conventions: γ is the *saved* fraction — transformed
//! power is `(1 − γ)·p` (see `lpvs_display::transform` and DESIGN.md).
//!
//! # Example
//!
//! ```
//! use lpvs_core::problem::{DeviceRequest, SlotProblem};
//! use lpvs_core::scheduler::LpvsScheduler;
//! use lpvs_survey::curve::AnxietyCurve;
//!
//! // Two devices, capacity for one transform: the low-battery device
//! // with real savings wins.
//! let mut problem = SlotProblem::new(1.0, 0.5, 1.0, AnxietyCurve::paper_shape());
//! problem.push(DeviceRequest::uniform(1.2, 10.0, 30, 0.15 * 55_440.0, 55_440.0, 0.35, 1.0, 0.1));
//! problem.push(DeviceRequest::uniform(1.2, 10.0, 30, 0.90 * 55_440.0, 55_440.0, 0.35, 1.0, 0.1));
//! let schedule = LpvsScheduler::paper_default().schedule(&problem).unwrap();
//! assert!(schedule.selected[0]);
//! assert!(!schedule.selected[1]);
//! ```

#![warn(missing_docs)]

pub mod accounting;
pub mod baseline;
pub mod budget;
pub mod compact;
pub mod delta;
pub mod explain;
pub mod fleet;
pub mod kernels;
pub mod objective;
pub mod phase1;
pub mod phase2;
pub mod problem;
pub mod provision;
pub mod scheduler;

pub use accounting::RowAccounting;
pub use baseline::{Policy, SelectionPolicy};
pub use budget::SlotBudget;
pub use compact::CompactedDevice;
pub use delta::{solve_incremental, solve_shard_incremental, SlotDelta};
pub use explain::{explain, Explanation, Reason};
pub use fleet::{DeviceFleet, DirtyFrontier, FleetDevice, SlotView};
pub use kernels::{
    active_path, detected_path, device_objective_batch, set_forced_path, transform_feasible_batch,
    transform_savings_batch, FleetColumns, KernelPath, Select,
};
pub use objective::{device_objective, objective_value, objective_value_recursive};
pub use phase1::{solve_phase1, Phase1Config, Phase1Result, Phase1Solver};
pub use phase2::{run_phase2, run_phase2_over, Phase2Stats};
pub use problem::{DeviceRequest, SlotProblem};
pub use provision::{price_capacity, CapacityPrices};
pub use scheduler::{LpvsScheduler, Schedule, ScheduleStats, SchedulerConfig};
