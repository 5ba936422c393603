//! # lpvs-serve — the network-facing scheduler service
//!
//! Everything below `lpvs-runtime` treats the slot workload as a given:
//! the emulator replays a trace, the synthetic driver replays a seed.
//! This crate closes the loop with the outside world — a long-running
//! HTTP service that **ingests** telemetry and session churn, drives
//! [`SlotRuntime`](lpvs_runtime::SlotRuntime)'s shard workers as its
//! scheduling engine, and **serves** each slot's decision back inside
//! that slot (one tick, then `GET /v1/schedule/{t}`), while staying up
//! under overload and across crashes:
//!
//! * **Admission control** — arrivals are admitted against the
//!   [`EdgeServer`](lpvs_edge::server::EdgeServer) capacity envelope
//!   (browned-out capacity included); a full edge answers 429, a
//!   browned-out one 503, and admitted sessions reserve their compute
//!   and storage until departure.
//! * **Load shedding** — bounded queues everywhere. Connection
//!   overflow rejects inline; telemetry-queue pressure first raises the
//!   solver floor of upcoming slots along the degradation ladder
//!   ([`shed`]), so the service trades solution quality for latency
//!   *before* it drops requests, and never hangs.
//! * **Durability** — every drained op lands in a JSON-lines journal
//!   and every decided slot in the runtime's checkpoint store;
//!   graceful shutdown seals one final checkpoint round. A killed
//!   server resumes **bit-identically**: checkpointed banks, replayed
//!   decisions, and journal-driven re-execution of undecided slots
//!   ([`engine`]).
//!
//! The HTTP dialect is deliberately small and hand-rolled ([`http`]) —
//! no async runtime, no external HTTP stack — and every parse failure
//! is fail-closed: bounded allocation, 4xx out, never a panic.

#![warn(missing_docs)]

pub mod engine;
pub mod http;
pub mod server;
pub mod shed;

pub use engine::{EngineConfig, Op, Phase, ServeEngine, Shared};
pub use http::{HttpError, HttpLimits, Request};
pub use server::{serve, ServeConfig, ServerHandle, TickMode};
pub use shed::{floor_from_label, shed_floor};
