//! # lpvs — low-power video streaming at the network edge
//!
//! Façade crate re-exporting the whole LPVS workspace. See the
//! individual crates for details:
//!
//! * [`survey`] — low-battery-anxiety survey synthesis and curve extraction
//! * [`display`] — LCD/OLED power models and energy-saving transforms
//! * [`media`] — video/chunk/content substrate and transform encoder
//! * [`trace`] — Twitch-like live-streaming workload traces
//! * [`solver`] — simplex + branch-and-bound ILP (replaces CPLEX/Gurobi)
//! * [`bayes`] — conjugate Bayesian estimation of power-reduction ratios
//! * [`edge`] — edge servers, virtual clusters, devices and batteries
//! * [`core`] — the LPVS scheduler (two-phase heuristic, paper §IV–V)
//! * [`runtime`] — the slot loop's two executors (inline, or supervised
//!   shard workers with shard-local Bayes banks) in one stage order
//! * [`emulator`] — trace-driven emulation and experiment drivers
//! * [`obs`] — tracing spans, metrics registry, and telemetry sinks

#![warn(missing_docs)]

pub use lpvs_bayes as bayes;
pub use lpvs_core as core;
pub use lpvs_display as display;
pub use lpvs_edge as edge;
pub use lpvs_emulator as emulator;
pub use lpvs_media as media;
pub use lpvs_obs as obs;
pub use lpvs_runtime as runtime;
pub use lpvs_solver as solver;
pub use lpvs_survey as survey;
pub use lpvs_trace as trace;
