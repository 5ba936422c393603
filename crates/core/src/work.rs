//! What a slot's solve did, counted: the [`SlotWork`] record.
//!
//! A stage that does countable work adds it to the record of the value
//! it returns ([`Schedule::work`](crate::scheduler::Schedule::work),
//! summed per shard and per fleet slot by `lpvs-edge`). The slot runtime
//! publishes each solved slot's record once ([`SlotWork::publish`]), so
//! the registry is the fold of the records, and a bare solver or fleet
//! call publishes none of these series.

use std::ops::AddAssign;

/// Chunk steps the kernels walked, by stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkSteps {
    /// The fused score a solver rung reads, or a delta frontier's score.
    pub score: u64,
    /// Accounting a selection no score covers (reuse, passthrough).
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

/// Shard solves by the delta path their worker took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaPaths {
    /// Nothing in the shard changed: the memo's schedule, verbatim.
    pub reuse: u64,
    /// A residual solve over the dirty frontier.
    pub incremental: u64,
    /// A full solve of the shard.
    pub cold: u64,
}

/// Rows whose eq.-13 and saving terms were evaluated, by owner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowsAccounted {
    /// Evaluated by a shard's solve.
    pub shard: u64,
    /// Evaluated by the fleet join.
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
    /// Orders Phase-1's exact arm sorted (`solver_orders_sorted_total`).
    pub orders_sorted: u64,
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
        self.orders_sorted += other.orders_sorted;
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

impl SlotWork {
    /// Adds the record to its eight series — their only writer, called
    /// once a solved slot by the slot runtime. A zero count is not
    /// added, so a series exists once something was counted in it. A
    /// no-op while the recorder is off, like every other write.
    pub fn publish(&self) {
        if !lpvs_obs::enabled() {
            return;
        }
        let (steps, warm, paths, rows, copied) =
            (self.chunk_steps, self.warm_start, self.delta_path, self.rows_accounted, self.rows_refilled);
        let series = [
            ("sched_chunk_steps_total", Some(("stage", "score")), steps.score),
            ("sched_chunk_steps_total", Some(("stage", "account")), steps.account),
            ("solver_orders_sorted_total", None, self.orders_sorted),
            ("sched_phase1_uncertified_total", None, self.uncertified),
            ("delta_warm_start_hit_total", None, warm.hit),
            ("delta_warm_start_miss_total", None, warm.miss),
            ("delta_solve_total", Some(("path", "reuse")), paths.reuse),
            ("delta_solve_total", Some(("path", "incremental")), paths.incremental),
            ("delta_solve_total", Some(("path", "cold")), paths.cold),
            ("delta_accounting_rows_total", Some(("owner", "shard")), rows.shard),
            ("delta_accounting_rows_total", Some(("owner", "join")), rows.join),
            ("delta_accounting_rows_total", Some(("owner", "shipped")), rows.shipped),
            ("fleet_refill_rows_total", Some(("path", "patched")), copied.patched),
            ("fleet_refill_rows_total", Some(("path", "full")), copied.full),
        ];
        for (name, label, n) in series.into_iter().filter(|&(_, _, n)| n > 0) {
            lpvs_obs::add_labeled(name, label.as_slice(), n);
        }
    }
}
