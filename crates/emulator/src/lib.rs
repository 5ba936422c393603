//! # lpvs-emulator — trace-driven evaluation of LPVS
//!
//! The paper validates LPVS with an emulator (Fig. 6) whose building
//! blocks are *information gathering*, *request scheduling*, and
//! *video transforming*, driven by a Twitch trace at 5-minute slots.
//! This crate is that emulator:
//!
//! * [`gather`] — assembles the per-slot [`SlotProblem`] from the
//!   cluster state, the live content, and the Bayesian γ estimates;
//! * [`engine`] — configuration, the cluster and content model,
//!   playback and the γ oracle; `Emulator::run` picks which of the
//!   [`lpvs_runtime`] executors drives the slot stages;
//! * `driver` — those stages, implemented once over the runtime's
//!   source/sink traits: fault preamble, gather, decision staging
//!   (immediate or one slot ahead), playback, accounting. The inline
//!   executor runs them on the caller's thread for every policy; the
//!   shard workers with shard-local Bayes banks
//!   (`EmulatorConfig::pipelined`) run the same code in the same order
//!   and are bit-identical to the inline run of the same lag;
//! * [`metrics`] — per-slot and end-to-end accounting: display energy
//!   (actual vs. untransformed counterfactual), anxiety, watch time,
//!   abandonment;
//! * [`faults`] — deterministic, seeded fault injection: per-slot
//!   device disconnects, corrupt γ telemetry, edge brownouts, and
//!   solver-budget cuts, declared in a replayable [`faults::FaultPlan`];
//! * [`experiment`] — the drivers regenerating the paper's evaluation:
//!   Fig. 7 (sufficient capacity), Fig. 8 (limited capacity × λ),
//!   Fig. 9 (time-per-viewer of low-battery users), Fig. 10
//!   (scheduler overhead), each returning printable rows;
//! * [`fit`] — least-squares line fitting for the Fig. 10 regression;
//! * [`report`] — plain-text table rendering shared by the bench
//!   binaries and examples.
//!
//! [`SlotProblem`]: lpvs_core::problem::SlotProblem
//!
//! # Example
//!
//! ```
//! use lpvs_emulator::engine::{Emulator, EmulatorConfig};
//! use lpvs_core::baseline::Policy;
//!
//! let config = EmulatorConfig { devices: 20, slots: 6, ..EmulatorConfig::default() };
//! let with = Emulator::new(config, Policy::Lpvs).run();
//! let without = Emulator::new(config, Policy::NoTransform).run();
//! assert!(with.display_energy_j < without.display_energy_j);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod experiment;
pub mod faults;
pub mod fit;
pub mod gather;
pub mod metrics;
pub(crate) mod driver;
pub mod report;

pub use engine::{CheckpointSpec, Emulator, EmulatorConfig};
pub use faults::{FaultConfig, FaultPlan, GammaCorruption, SlotFaults};
pub use fit::LineFit;
pub use metrics::{EmulationReport, SlotRecord};
