//! What a slot's solve did, counted and timed: the [`SlotWork`] and
//! [`Laps`] records.
//!
//! A stage adds its counts to the record of the value it returns
//! ([`Schedule::work`](crate::scheduler::Schedule::work), summed per
//! shard and per fleet slot by `lpvs-edge`) and charges its time to its
//! [`Laps`]. The slot runtime publishes both once a solved slot, so a
//! bare solver or fleet call writes no telemetry.

use crate::scheduler::Degradation;
use std::ops::AddAssign;
use std::time::{Duration, Instant};

/// Chunk steps the kernels walked, by stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkSteps {
    /// The fused score a solver rung reads, or a delta frontier's score.
    pub score: u64,
    /// The score a rung no solver ran (reuse, passthrough) takes for its
    /// totals: only the dirty rows' when a kept score came in.
    pub account: u64,
}

/// Phase-1 warm starts offered, by whether the hint was adopted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStarts {
    /// Adopted.
    pub hit: u64,
    /// Not adopted.
    pub miss: u64,
}

/// Shard solves by the delta path the shard body took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaPaths {
    /// Nothing in the shard changed: the memo's schedule, verbatim.
    pub reuse: u64,
    /// A residual solve over the dirty frontier.
    pub incremental: u64,
    /// A full solve of the shard.
    pub cold: u64,
}

/// Rows scored — priced under both decisions — by owner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowsAccounted {
    /// Scored by a solve (a shard's, when read off a fleet slot).
    pub shard: u64,
    /// Scored by the fleet join.
    pub join: u64,
    /// Adopted by the join from the shard that shipped them.
    pub shipped: u64,
}

/// Rows a gather copied into the snapshot it shipped, by path
/// ([`DeviceFleet::ship_snapshot`](crate::fleet::DeviceFleet::ship_snapshot)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowsRefilled {
    /// The frontier, patched into last slot's buffer.
    pub patched: u64,
    /// Every row, cloned.
    pub full: u64,
}

/// The counted work of a solve, a shard or a slot, in plain integers
/// that add up; each field names the series it is published as. B&B
/// nodes and certification ride on the results already
/// (`ScheduleStats::phase1_nodes`, `Phase1Result::certified`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotWork {
    /// `sched_chunk_steps_total{stage}`.
    pub chunk_steps: ChunkSteps,
    /// Keys Phase-1's exact arm sorted (`solver_keys_sorted_total`).
    pub keys_sorted: u64,
    /// Exact Phase-1 solves whose branch-and-bound hit its node cap
    /// (`sched_phase1_uncertified_total`).
    pub uncertified: u64,
    /// `delta_warm_start_{hit,miss}_total`.
    pub warm_start: WarmStarts,
    /// `delta_solve_total{path}`.
    pub delta_path: DeltaPaths,
    /// `delta_accounting_rows_total{owner}`.
    pub rows_accounted: RowsAccounted,
    /// `fleet_refill_rows_total{path}`.
    pub rows_refilled: RowsRefilled,
}

impl AddAssign for SlotWork {
    fn add_assign(&mut self, other: Self) {
        self.chunk_steps.score += other.chunk_steps.score;
        self.chunk_steps.account += other.chunk_steps.account;
        self.keys_sorted += other.keys_sorted;
        self.uncertified += other.uncertified;
        self.warm_start.hit += other.warm_start.hit;
        self.warm_start.miss += other.warm_start.miss;
        self.delta_path.reuse += other.delta_path.reuse;
        self.delta_path.incremental += other.delta_path.incremental;
        self.delta_path.cold += other.delta_path.cold;
        self.rows_accounted.shard += other.rows_accounted.shard;
        self.rows_accounted.join += other.rows_accounted.join;
        self.rows_accounted.shipped += other.rows_accounted.shipped;
        self.rows_refilled.patched += other.rows_refilled.patched;
        self.rows_refilled.full += other.rows_refilled.full;
    }
}

/// Where a solve, a shard or a slot spent its time: one clock, read once
/// a lap, each lap charged to the stage that just ended, so the laps add
/// up to [`total`](Self::total) exactly. A solver stage is named for its
/// span (`sched.compact`); a shard's own work around its solve is
/// `shard`, a delta solve's `delta`, the hub's `partition`, `dispatch`,
/// `solve` / `join`, `rebalance`, `total`. The default is a stopped clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Laps {
    /// When the first lap started.
    pub start: Option<Instant>,
    /// Each lap's stage and the instant it ended, in order.
    pub ends: Vec<(&'static str, Instant)>,
    /// Each resilient solve among the laps (`sched.slot`): laps
    /// `from..to` and the rung it reached.
    pub runs: Vec<(usize, usize, Degradation)>,
}

impl Laps {
    /// A clock started now, with room for a shard's laps around a delta solve.
    pub fn start() -> Self {
        Self { start: Some(Instant::now()), ends: Vec::with_capacity(16), runs: Vec::new() }
    }

    /// Charges the time since the previous lap to `stage`.
    pub fn lap(&mut self, stage: &'static str) {
        if self.start.is_some() {
            self.ends.push((stage, Instant::now()));
        }
    }

    /// The sum of the laps whose stage `keep` admits.
    pub fn time(&self, keep: impl Fn(&str) -> bool) -> Duration {
        let starts = self.start.into_iter().chain(self.ends.iter().map(|&(_, end)| end));
        self.ends.iter().zip(starts).filter(|((stage, _), _)| keep(stage)).map(|(&(_, end), start)| end - start).sum()
    }

    /// The sum of the laps: from the start to the last lap's end.
    pub fn total(&self) -> Duration {
        self.time(|_| true)
    }

    /// Continues this clock with `inner`, a clock that started later:
    /// the time from this clock's last lap (or its start) to `inner`'s
    /// start goes to `gap`, then `inner`'s laps follow as they were taken.
    pub fn splice(&mut self, gap: &'static str, inner: &Laps) {
        let (Some(_), Some(start)) = (self.start, inner.start) else { return };
        self.ends.push((gap, start));
        let shift = self.ends.len();
        self.ends.extend_from_slice(&inner.ends);
        self.runs.extend(inner.runs.iter().map(|&(from, to, tier)| (from + shift, to + shift, tier)));
    }
}
