//! Provider-scale sharded scheduling: one fleet, many edge servers.
//!
//! The paper schedules one virtual cluster against one edge server. A
//! provider operates many base stations, each with its own co-located
//! server, over a fleet orders of magnitude larger than a cluster.
//! [`FleetScheduler`] closes that gap in three steps:
//!
//! 1. **Partition** — the columnar [`DeviceFleet`] is split across `N`
//!    shards by *locality*: contiguous index ranges, modeling devices
//!    already grouped by base station.
//! 2. **Solve** — each shard is a zero-copy [`SlotView`] of the fleet
//!    (its row list plus its own server's capacities) and runs the full
//!    resilient pipeline through [`solve_shard`], the shard body the
//!    slot runtime calls too, on the one executor [`run_shards`] —
//!    shard 0 on the calling thread, the others on scoped threads.
//!    Shards never share mutable state; results are joined in shard
//!    order, so the outcome is deterministic regardless of thread
//!    interleaving.
//! 3. **Rebalance** — a bounded cross-shard pass migrates marginal
//!    low-battery viewers from saturated shards to shards with spare
//!    capacity, reusing Phase-2's pure-addition criterion (the
//!    λ-weighted objective of eq. 13 must strictly improve) and the
//!    target server's own admission control — so per-shard capacity
//!    can never be violated by a migration.
//!
//! With one shard the partition is the identity, no migration target
//! exists, and the result is **bit-identical** to the monolithic
//! scheduler — the equivalence proptest in `tests/fleet.rs` pins this.
//!
//! [`SlotView`]: lpvs_core::fleet::SlotView

use crate::server::EdgeServer;
use crate::shard::{run_shards, solve_shard, ScoreRows, ShardJob, ShardSolve, SlotInputs};
use lpvs_core::budget::SlotBudget;
use lpvs_core::delta::{Continuity, SlotDelta};
use lpvs_core::fleet::DeviceFleet;
use lpvs_core::kernels::Scores;
use lpvs_core::scheduler::{Degradation, LpvsScheduler, Schedule, ScheduleStats, SchedulerConfig};
use lpvs_core::work::{Laps, RowsAccounted, SlotWork};
use lpvs_survey::curve::AnxietyCurve;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// 2⁶⁴/φ: the increment of the splitmix64 draws the runtime's seeded
/// faults and synthetic loads make.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// How the fleet is split across shards: contiguous index ranges, the
/// devices already grouped by base station. The one rule every caller
/// uses; the type stays so a [`FleetConfig`] names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Partitioner {
    /// Contiguous index ranges — devices are already grouped by base
    /// station.
    #[default]
    Locality,
}

impl Partitioner {
    /// Splits `items` across `k` shards in balanced contiguous runs,
    /// handing each to `place(shard, run)` in ascending item order: the
    /// first `items.len() % k` shards take one extra item. The one
    /// implementation of the rule, so [`FleetScheduler::partition`] and
    /// every home-shard map agree.
    pub fn split(self, items: &[usize], k: usize, mut place: impl FnMut(usize, &[usize])) {
        let base = items.len() / k;
        let extra = items.len() % k;
        let mut start = 0;
        for s in 0..k {
            let size = base + usize::from(s < extra);
            place(s, &items[start..start + size]);
            start += size;
        }
    }
}

/// Fleet-scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of edge shards (≥ 1).
    pub num_shards: usize,
    /// Device-to-shard assignment strategy.
    pub partitioner: Partitioner,
    /// Per-shard scheduler configuration (solver path, Phase-2).
    pub scheduler: SchedulerConfig,
    /// Upper bound on cross-shard migrations per slot: caps how much
    /// churn a single slot can inject, and `0` skips the pass. It does
    /// not bound the pass's cost: an O(shards²) gate over the shards'
    /// [`ShardLoad`]s, closed whenever every shard's knapsack is full;
    /// an open one adds an O(N · shards) scan for rows some foreign
    /// shard still has room for, then O(M log M) ranking plus two eq.-13
    /// kernel passes over the M survivors.
    pub max_migrations: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            num_shards: 1,
            partitioner: Partitioner::Locality,
            scheduler: SchedulerConfig::default(),
            max_migrations: 64,
        }
    }
}

/// One shard's slice of a fleet schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Global fleet indices assigned to this shard, in shard-problem
    /// order.
    pub devices: Vec<usize>,
    /// The shard scheduler's run statistics (rung reached, objective,
    /// Phase-1/2 work).
    pub stats: ScheduleStats,
    /// The shard solve's counted work ([`Schedule::work`], the rows it
    /// scored included; the shard body adds the delta path it took).
    #[serde(skip)]
    pub work: SlotWork,
    /// The solver's laps between the `shard` laps of whoever ran it.
    #[serde(skip)]
    pub laps: Laps,
    /// Global indices of devices migrated *into* this shard by the
    /// rebalancing pass (their load counts against this shard's server,
    /// not their home shard's).
    pub migrated_in: Vec<usize>,
    /// This shard's [`ShardLoad`] before anything migrated in; `None`
    /// when the join runs no rebalance.
    #[serde(skip)]
    pub load: Option<ShardLoad>,
}

/// One shard's standing after its own solve, as the rebalance's gate
/// reads it. [`EdgeServer::fits`] is monotone in both costs, so a server
/// that does not fit `(least_compute, least_storage_gb)` fits none of the
/// shard's unselected rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardLoad {
    /// The shard's server after `try_admit` of its selection in shard order.
    pub server: EdgeServer,
    /// Least compute cost among the unselected connected rows (`∞`: none).
    pub least_compute: f64,
    /// Least storage cost (GB) among the same rows (`∞`: none).
    pub least_storage_gb: f64,
}

impl ShardLoad {
    /// The load of the shard whose `rows` (fleet indices, shard order)
    /// decided `selected` (shard-local; rows past its end are unselected,
    /// so a passthrough is `&[]`) against `server`.
    pub fn of(fleet: &DeviceFleet, server: &EdgeServer, rows: &[usize], selected: &[bool]) -> Self {
        let (mut server, mut least_compute, mut least_storage_gb) = (*server, f64::INFINITY, f64::INFINITY);
        server.reset_slot();
        for (k, &i) in rows.iter().enumerate() {
            let (g, h) = (fleet.compute_cost(i), fleet.storage_cost_gb(i));
            if selected.get(k) == Some(&true) {
                let admitted = server.try_admit(g, h);
                debug_assert!(admitted, "shard schedule exceeded its own capacity");
            } else if fleet.connected(i) {
                least_compute = least_compute.min(g);
                least_storage_gb = least_storage_gb.min(h);
            }
        }
        Self { server, least_compute, least_storage_gb }
    }
}

/// A fleet-wide scheduling decision for one slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSchedule {
    /// Transform decision per fleet device (global fleet order).
    pub selected: Vec<bool>,
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
    /// Cross-shard migrations accepted by the rebalancing pass.
    pub migrations: usize,
    /// Fleet-wide objective (eq. 13) of the final selection.
    pub objective: f64,
    /// Fleet-wide energy saved by the final selection (J).
    pub energy_saved_j: f64,
    /// Wall-clock time for the whole fleet slot: the sum of `laps`.
    pub runtime: Duration,
    /// The hub's laps: partition, (dispatch,) solve, rebalance, total.
    #[serde(skip)]
    pub laps: Laps,
    /// Rows the rebalance's gate let through, if it ran.
    #[serde(skip)]
    pub candidates: Option<usize>,
    /// The slot's counted work: every shard's, plus the rows the join
    /// evaluated and adopted; the slot runtime adds the rows its gather
    /// copied before it delivers and publishes the schedule.
    #[serde(skip)]
    pub work: SlotWork,
}

impl FleetSchedule {
    /// Number of devices selected fleet-wide.
    pub fn num_selected(&self) -> usize {
        self.selected.iter().filter(|&&x| x).count()
    }
}

/// What a join keeps between slots: every fleet row priced under both
/// decisions — the `off`, `on` and `saving` columns of a [`Scores`] in
/// fleet order (its verdict column stays empty: the join reads none) —
/// and the [`Continuity`] that proves the next slot extends them: a
/// [`SlotDelta`] of the next epoch (no missed frontier) under the same λ
/// and curve, over a fleet of the same size (DESIGN §10 states the
/// rule). A row's prices depend on its columns, λ and the curve only —
/// not on its decision, its shard or the capacities — so a flipped row
/// or one the rebalance moved in costs nothing. When the slot extends
/// the columns the delta's dirty rows are stale, else every row; a
/// stale row's prices come from the shard that just scored it when it
/// shipped them ([`ScoreRows`]) and from the kernel otherwise, so a
/// missing shipment costs time, never correctness. Derived state, never
/// persisted: a resumed run's first join starts from nothing, once.
#[derive(Debug, Default)]
pub struct JoinMemo {
    /// What the kept prices were taken under; `None` keeps nothing.
    continuity: Option<Continuity>,
    priced: Scores,
}

impl JoinMemo {
    /// `(objective, energy_saved_j)` of `selected` over the whole fleet:
    /// adopts every score row `shipped` (positions are fleet rows here),
    /// scores the stale rows none of them covers, and folds. `delta:
    /// None` makes every row stale and keeps nothing to extend next slot.
    /// Returns the totals and the rows scored and adopted.
    fn total(
        &mut self,
        fleet: &DeviceFleet,
        lambda: f64,
        curve: &AnxietyCurve,
        selected: &[bool],
        shipped: &[ScoreRows],
        delta: Option<&SlotDelta>,
    ) -> (f64, f64, RowsAccounted) {
        let (n, priced) = (selected.len(), &mut self.priced);
        let extends = priced.off.len() == n
            && delta.zip(self.continuity.as_ref()).is_some_and(|(d, kept)| kept.continues(d, lambda, curve));
        for column in [&mut priced.off, &mut priced.on, &mut priced.saving] {
            column.resize(n, 0.0);
        }
        let (mut covered, mut adopted) = (vec![false; n], 0);
        for &(i, off, on, saving) in shipped.iter().flatten() {
            (priced.off[i], priced.on[i], priced.saving[i]) = (off, on, saving);
            covered[i] = true;
            adopted += 1;
        }

        let stale: Vec<usize> = match delta {
            Some(d) if extends => d.dirty.iter().copied().filter(|&i| !covered[i]).collect(),
            _ => (0..n).filter(|&i| !covered[i]).collect(),
        };
        let fresh = lpvs_core::score_rows(&fleet.columns(), &stale, lambda, curve);
        for (k, &i) in stale.iter().enumerate() {
            (priced.off[i], priced.on[i], priced.saving[i]) = (fresh.off[k], fresh.on[k], fresh.saving[k]);
        }
        // Only a delta-carrying slot can be extended.
        self.continuity = delta.map(|d| Continuity { epoch: d.epoch, lambda, curve: curve.clone() });
        let (objective, energy_saved_j) = priced.fold(selected);
        let rows = RowsAccounted { join: stale.len() as u64, shipped: adopted, ..RowsAccounted::default() };
        (objective, energy_saved_j, rows)
    }
}

/// Schedules a [`DeviceFleet`] across multiple edge shards.
#[derive(Debug, Clone, Default)]
pub struct FleetScheduler {
    config: FleetConfig,
}

impl FleetScheduler {
    /// Creates a fleet scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration names zero shards.
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.num_shards >= 1, "a fleet needs at least one shard");
        Self { config }
    }

    /// Locality-partitioned scheduler with `num_shards` shards and the
    /// paper-default per-shard pipeline.
    pub fn with_shards(num_shards: usize) -> Self {
        Self::new(FleetConfig { num_shards, ..FleetConfig::default() })
    }

    /// The configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Assigns the *connected* devices of an `n`-device fleet to
    /// shards. Returns one global-index list per shard; within every
    /// shard, indices are in ascending fleet order.
    pub fn partition(&self, fleet: &DeviceFleet) -> Vec<Vec<usize>> {
        let k = self.config.num_shards;
        let connected: Vec<usize> = (0..fleet.len()).filter(|&i| fleet.connected(i)).collect();
        let mut shards = vec![Vec::new(); k];
        self.config
            .partitioner
            .split(&connected, k, |s, run| shards[s].extend_from_slice(run));
        shards
    }

    /// Splits one server's spare capacity evenly across `k` shard
    /// servers (total capacity is conserved up to float division).
    pub fn split_server(server: &EdgeServer, k: usize) -> Vec<EdgeServer> {
        assert!(k >= 1, "cannot split across zero shards");
        let f = k as f64;
        vec![
            EdgeServer::new(
                server.compute_capacity() / f,
                server.storage_capacity_gb() / f,
            );
            k
        ]
    }

    /// Schedules the fleet against one aggregate server whose capacity
    /// is split evenly across the configured shards.
    pub fn schedule(
        &self,
        fleet: &DeviceFleet,
        server: &EdgeServer,
        lambda: f64,
        curve: &AnxietyCurve,
        previous: Option<&[bool]>,
        budget: &SlotBudget,
    ) -> FleetSchedule {
        let servers = Self::split_server(server, self.config.num_shards);
        self.schedule_with_servers(fleet, &servers, lambda, curve, previous, budget)
    }

    /// Schedules the fleet against explicit per-shard servers: each
    /// shard solves cold through [`solve_shard`] on [`run_shards`], its
    /// work one cold path and its rows. The per-slot `budget` applies to
    /// every shard independently. A `previous` selection in global fleet
    /// order warm-starts each shard with its own slice.
    ///
    /// # Panics
    ///
    /// Panics if `servers.len()` differs from the configured shard
    /// count.
    pub fn schedule_with_servers(
        &self,
        fleet: &DeviceFleet,
        servers: &[EdgeServer],
        lambda: f64,
        curve: &AnxietyCurve,
        previous: Option<&[bool]>,
        budget: &SlotBudget,
    ) -> FleetSchedule {
        assert_eq!(
            servers.len(),
            self.config.num_shards,
            "one server per configured shard required"
        );
        let mut laps = Laps::start();
        let shards = self.partition(fleet);
        laps.lap("partition");

        // No delta: every shard solves cold and keeps nothing, so the
        // memos live for this call.
        let (scheduler, load) = (LpvsScheduler::new(self.config.scheduler), self.rebalances(servers.len()));
        let slot = SlotInputs { fleet, lambda, curve, budget, warm: previous, delta: None };
        let jobs = shards.iter().zip(servers).map(|(rows, &server)| ShardJob { rows: rows.clone(), server, load });
        let mut memos = vec![None; shards.len()];
        let results = run_shards(&mut memos, jobs.collect(), |memo, job| solve_shard(&scheduler, memo, &slot, job));
        laps.lap("solve");

        self.assemble(fleet, servers, shards, results, lambda, curve, laps, None)
    }

    /// The per-shard schedule a dead or faulted shard degrades to:
    /// passthrough (nobody transformed, every device rejected).
    pub fn passthrough_schedule(devices: usize) -> Schedule {
        let stats = ScheduleStats { degradation: Degradation::Passthrough, rejected_devices: devices, ..ScheduleStats::default() };
        Schedule { selected: vec![false; devices], stats, ..Schedule::default() }
    }

    /// Whether a join over `shards` shards rebalances, so its shards
    /// report a [`ShardLoad`]: it takes a foreign shard and a nonzero
    /// [`FleetConfig::max_migrations`].
    pub fn rebalances(&self, shards: usize) -> bool {
        self.config.max_migrations > 0 && shards >= 2
    }

    /// Joins per-shard solves into a fleet-wide decision: scatter into
    /// global order, run the bounded cross-shard rebalance, and total the
    /// objective. A `None` result (a shard that delivered nothing)
    /// degrades to [`passthrough_schedule`](Self::passthrough_schedule).
    /// A result carries the [`ShardLoad`] its shard reported, if any; the
    /// join computes the rest, and laps the hub's clock `laps` on.
    ///
    /// This is the second half of
    /// [`schedule_with_servers`](Self::schedule_with_servers), exposed
    /// so the slot runtime, which holds its shards' memos across slots,
    /// joins results through the **same** code path. With the caller's
    /// [`JoinMemo`] and the slot's delta as `kept`, a slot that extends
    /// the memo prices only the rows that changed, and of those only the
    /// ones no shard already scored and shipped.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        &self,
        fleet: &DeviceFleet,
        servers: &[EdgeServer],
        shards: Vec<Vec<usize>>,
        results: Vec<Option<ShardSolve>>,
        lambda: f64,
        curve: &AnxietyCurve,
        mut laps: Laps,
        kept: Option<(&mut JoinMemo, &SlotDelta)>,
    ) -> FleetSchedule {
        let mut selected = vec![false; fleet.len()];
        let (mut reports, mut shipped) = (Vec::with_capacity(shards.len()), Vec::with_capacity(shards.len()));
        let mut work = SlotWork::default();
        let mut results = results.into_iter();
        let rebalances = self.rebalances(servers.len());
        for (s, devices) in shards.into_iter().enumerate() {
            let ShardSolve { schedule, shipped: priced, load: delivered, .. } = (results.next().flatten())
                .unwrap_or_else(|| ShardSolve { schedule: Self::passthrough_schedule(devices.len()), shipped: None, load: None, frontier: 0 });
            // Shard positions become fleet rows, in place.
            let mut priced = priced.unwrap_or_default();
            for row in &mut priced {
                row.0 = devices[row.0];
            }
            shipped.push(priced);
            for (&global, &x) in devices.iter().zip(&schedule.selected) {
                selected[global] = x;
            }
            work += schedule.work;
            let load = rebalances.then(|| {
                let replay = || ShardLoad::of(fleet, &servers[s], &devices, &schedule.selected);
                let load = delivered.unwrap_or_else(replay);
                debug_assert_eq!(load, replay(), "shard {s}'s load is not its schedule's");
                load
            });
            reports.push(ShardReport {
                shard: s,
                devices,
                stats: schedule.stats,
                work: schedule.work,
                laps: schedule.laps,
                migrated_in: Vec::new(),
                load,
            });
        }

        let (migrations, candidates) = self.rebalance(fleet, servers, lambda, curve, &mut selected, &mut reports);
        laps.lap("rebalance");

        // Fleet-wide totals; `None` prices every row, keeps none.
        let (memo, delta) = match kept {
            Some((memo, delta)) => (memo, Some(delta)),
            None => (&mut JoinMemo::default(), None),
        };
        let (objective, energy_saved_j, rows) = memo.total(fleet, lambda, curve, &selected, &shipped, delta);
        work += SlotWork { rows_accounted: rows, ..SlotWork::default() };
        laps.lap("total");

        FleetSchedule { selected, shards: reports, migrations, objective, energy_saved_j, runtime: laps.total(), laps, candidates, work }
    }

    /// Bounded cross-shard rebalancing (the anxiety-repair pass of
    /// Phase-2, lifted fleet-wide). Candidates are the unselected,
    /// connected, transform-feasible devices that some foreign shard
    /// still has room for and whose transform strictly improves the
    /// λ-weighted objective (the Phase-2 pure-addition criterion),
    /// scanned in descending anxiety order; each is migrated to the
    /// foreign shard with the most free compute that admits it.
    /// Returns the accepted migrations and, if it ran, the gated rows.
    fn rebalance(
        &self,
        fleet: &DeviceFleet,
        servers: &[EdgeServer],
        lambda: f64,
        curve: &AnxietyCurve,
        selected: &mut [bool],
        reports: &mut [ShardReport],
    ) -> (usize, Option<usize>) {
        if !self.rebalances(servers.len()) {
            return (0, None);
        }
        let load = |r: &ShardReport| r.load.expect("the join loads every shard it rebalances");
        let mut usage: Vec<EdgeServer> = reports.iter().map(|r| load(r).server).collect();

        // The gate: only a row some foreign shard has room for right
        // now can ever migrate. `try_admit` only adds, so free capacity
        // never grows during the pass and a row that fits nowhere here
        // fits nowhere later — dropping it is exact. The loads decide
        // first, in O(shards²): a home shard whose cheapest pair no
        // foreign server fits has no row that fits. Full knapsacks (the
        // scheduler's normal end state) close it without reading a row.
        let open = reports.iter().map(load).enumerate().any(|(s, l)| {
            (usage.iter().enumerate()).any(|(t, u)| t != s && u.fits(l.least_compute, l.least_storage_gb))
        });
        // Debug builds scan a closed gate too, to prove it empty.
        let (mut home, mut gated) = (Vec::new(), Vec::new());
        if open || cfg!(debug_assertions) {
            home = vec![usize::MAX; fleet.len()];
            for (s, report) in reports.iter().enumerate() {
                for &i in &report.devices {
                    home[i] = s;
                }
            }
            gated = (0..fleet.len())
                .filter(|&i| !selected[i] && fleet.connected(i) && home[i] != usize::MAX)
                .filter(|&i| {
                    let (g, h) = (fleet.compute_cost(i), fleet.storage_cost_gb(i));
                    usage.iter().enumerate().any(|(s, server)| s != home[i] && server.fits(g, h))
                })
                .collect();
        }
        debug_assert!(open || gated.is_empty(), "the load gate closed over a row a foreign shard fits");
        if gated.is_empty() {
            return (0, Some(0));
        }

        // The feasible survivors in descending anxiety order (Phase-2's
        // ranking, ties to the lowest row: `gated` ascends); φ is
        // evaluated once per row. Feasibility and the eq.-13 gains come
        // from one walk of each gated row's chunks.
        let scores = lpvs_core::score_rows(&fleet.columns(), &gated, lambda, curve);
        let candidates = lpvs_core::phase2::rank_by_anxiety(
            (0..gated.len())
                .filter(|&k| scores.feasible[k])
                .map(|k| (curve.phi(fleet.battery_fraction(gated[k])), k)),
        );

        let mut migrations = 0;
        for k in candidates {
            if migrations >= self.config.max_migrations {
                break;
            }
            let i = gated[k];
            // The Phase-2 pure-addition criterion: transforming must
            // strictly improve the device's eq.-13 contribution.
            let gain_in = scores.on[k] - scores.off[k];
            if gain_in >= -1e-12 {
                continue;
            }
            let (g, h) = (fleet.compute_cost(i), fleet.storage_cost_gb(i));
            // Most-free-compute foreign shard that admits the device;
            // lowest shard id on ties.
            let target = (0..usage.len())
                .filter(|&s| s != home[i] && usage[s].fits(g, h))
                .max_by(|&a, &b| {
                    usage[a]
                        .compute_free()
                        .partial_cmp(&usage[b].compute_free())
                        .expect("finite capacity")
                        .then(b.cmp(&a))
                });
            if let Some(s) = target {
                let admitted = usage[s].try_admit(g, h);
                debug_assert!(admitted, "target shard stopped fitting between check and admit");
                selected[i] = true;
                reports[s].migrated_in.push(i);
                migrations += 1;
            }
        }
        (migrations, Some(gated.len()))
    }
}

/// Intersects a shard's device list with a fleet-wide dirty set,
/// returning *shard-local* positions (indexes into `indices`).
///
/// Both inputs must be ascending: `indices` is a shard's global rows in
/// shard order (the partitioner emits them ascending) and `dirty` is a
/// [`SlotDelta`]'s ascending frontier. A
/// single sorted merge, O(|indices| + |dirty|), so taking a shard's
/// frontier never costs more than scanning the shard.
pub fn shard_frontier(indices: &[usize], dirty: &[usize]) -> Vec<usize> {
    debug_assert!(indices.windows(2).all(|w| w[0] < w[1]), "shard rows must ascend");
    debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty set must ascend");
    let mut out = Vec::new();
    let mut d = dirty.iter().peekable();
    for (local, &global) in indices.iter().enumerate() {
        while let Some(&&next) = d.peek() {
            if next < global {
                d.next();
            } else {
                break;
            }
        }
        if d.peek() == Some(&&global) {
            out.push(local);
            d.next();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpvs_core::problem::DeviceRequest;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fleet(n: usize, seed: u64) -> DeviceFleet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut f = DeviceFleet::new();
        for _ in 0..n {
            f.push_request(DeviceRequest::uniform(
                rng.gen_range(0.5..2.0),
                10.0,
                30,
                rng.gen_range(0.05..0.95) * 55_440.0,
                55_440.0,
                rng.gen_range(0.1..0.5),
                1.0,
                0.1125,
            ));
        }
        f
    }

    fn capacity_used(fleet: &DeviceFleet, indices: &[usize], selected: &[bool]) -> (f64, f64) {
        indices.iter().filter(|&&i| selected[i]).fold((0.0, 0.0), |(g, h), &i| {
            (g + fleet.compute_cost(i), h + fleet.storage_cost_gb(i))
        })
    }

    #[test]
    fn locality_partition_is_balanced_and_ordered() {
        let f = fleet(10, 1);
        let s = FleetScheduler::with_shards(3);
        let parts = s.partition(&f);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], vec![0, 1, 2, 3]);
        assert_eq!(parts[1], vec![4, 5, 6]);
        assert_eq!(parts[2], vec![7, 8, 9]);
    }

    #[test]
    fn locality_partition_covers_every_connected_device_once() {
        let mut f = fleet(200, 2);
        f.set_connected(17, false);
        let parts = FleetScheduler::with_shards(4).partition(&f);
        let all: Vec<usize> = parts.iter().flatten().copied().collect();
        let expected: Vec<usize> = (0..200).filter(|&i| i != 17).collect();
        assert_eq!(all, expected);
        assert_eq!(parts.iter().map(Vec::len).collect::<Vec<_>>(), [50, 50, 50, 49]);
    }

    #[test]
    fn split_server_conserves_capacity() {
        let server = EdgeServer::new(100.0, 11.25);
        let halves = FleetScheduler::split_server(&server, 4);
        assert_eq!(halves.len(), 4);
        let total: f64 = halves.iter().map(EdgeServer::compute_capacity).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn multi_shard_schedule_respects_every_shard_capacity() {
        let f = fleet(120, 3);
        let server = EdgeServer::new(40.0, 4.5); // tight: ~1/3 of the fleet
        let s = FleetScheduler::with_shards(4);
        let out = s.schedule(
            &f,
            &server,
            1.0,
            &AnxietyCurve::paper_shape(),
            None,
            &SlotBudget::unbounded(),
        );
        assert_eq!(out.selected.len(), 120);
        assert!(out.num_selected() > 0, "a tight-but-positive budget must select someone");
        // Exact per-shard accounting: a migrated device's load belongs
        // to the shard that admitted it, not its home shard.
        let migrated: std::collections::HashSet<usize> =
            out.shards.iter().flat_map(|r| r.migrated_in.iter().copied()).collect();
        let per_shard = server.compute_capacity() / 4.0;
        for report in &out.shards {
            let home: Vec<usize> = report
                .devices
                .iter()
                .copied()
                .filter(|i| !migrated.contains(i))
                .chain(report.migrated_in.iter().copied())
                .collect();
            let (g, h) = capacity_used(&f, &home, &out.selected);
            assert!(g <= per_shard + 1e-9, "shard {} compute blown: {g}", report.shard);
            assert!(h <= server.storage_capacity_gb() / 4.0 + 1e-9);
        }
    }

    #[test]
    fn rebalancing_is_bounded_and_counted() {
        // Shard 0 saturated (low-battery devices with real savings),
        // shard 1 idle (full batteries, γ = 0 ⇒ nothing worth
        // transforming locally): migration has both supply and room.
        let mut f = DeviceFleet::new();
        for i in 0..40 {
            let (battery, gamma) = if i < 20 { (0.10, 0.35) } else { (0.85, 0.0) };
            f.push_request(DeviceRequest::uniform(
                1.5,
                10.0,
                30,
                battery * 55_440.0,
                55_440.0,
                gamma,
                1.0,
                0.1125,
            ));
        }
        let config = FleetConfig { num_shards: 2, max_migrations: 5, ..FleetConfig::default() };
        let out = FleetScheduler::new(config).schedule(
            &f,
            &EdgeServer::new(24.0, 2.7), // 12 compute per shard, 20 wanted
            2.0,
            &AnxietyCurve::paper_shape(),
            None,
            &SlotBudget::unbounded(),
        );
        assert!(out.migrations <= 5);
        assert!(out.migrations > 0, "saturated/idle split must trigger migration");
        let reported: usize = out.shards.iter().map(|r| r.migrated_in.len()).sum();
        assert_eq!(reported, out.migrations);
    }

    #[test]
    fn one_shard_never_migrates() {
        let f = fleet(50, 4);
        let out = FleetScheduler::with_shards(1).schedule(
            &f,
            &EdgeServer::new(20.0, 2.25),
            1.0,
            &AnxietyCurve::paper_shape(),
            None,
            &SlotBudget::unbounded(),
        );
        assert_eq!(out.migrations, 0);
        assert_eq!(out.shards.len(), 1);
        assert_eq!(out.shards[0].devices.len(), 50);
    }

    #[test]
    fn disconnected_devices_are_never_selected() {
        let mut f = fleet(30, 5);
        for i in [0, 7, 29] {
            f.set_connected(i, false);
        }
        let out = FleetScheduler::with_shards(2).schedule(
            &f,
            &EdgeServer::new(100.0, 11.25),
            1.0,
            &AnxietyCurve::paper_shape(),
            None,
            &SlotBudget::unbounded(),
        );
        for i in [0, 7, 29] {
            assert!(!out.selected[i], "disconnected device {i} was scheduled");
        }
        assert!(out.num_selected() > 0);
    }

    #[test]
    fn a_one_shot_schedule_counts_one_cold_solve_a_shard() {
        // No delta, no memo: every shard solves cold, scores each of its
        // rows once and ships it; a disconnected row belongs to no shard,
        // so the join scores it.
        let mut f = fleet(40, 8);
        f.set_connected(13, false);
        for shards in [1, 3] {
            let s = FleetScheduler::with_shards(shards);
            let out = s.schedule(&f, &EdgeServer::new(20.0, 2.25), 1.0, &AnxietyCurve::paper_shape(), None, &SlotBudget::unbounded());
            let cold = lpvs_core::work::DeltaPaths { cold: shards as u64, ..Default::default() };
            let rows = lpvs_core::work::RowsAccounted { shard: 39, join: 1, shipped: 39 };
            assert_eq!((out.work.delta_path, out.work.rows_accounted), (cold, rows), "{shards} shards");
        }
    }

    #[test]
    fn warm_start_slices_apply_per_shard() {
        let f = fleet(60, 6);
        let s = FleetScheduler::with_shards(3);
        let server = EdgeServer::new(100.0, 11.25);
        let curve = AnxietyCurve::paper_shape();
        let cold =
            s.schedule(&f, &server, 1.0, &curve, None, &SlotBudget::unbounded());
        let warm = s.schedule(
            &f,
            &server,
            1.0,
            &curve,
            Some(&cold.selected),
            &SlotBudget::unbounded(),
        );
        assert_eq!(warm.selected.len(), 60);
        // A mismatched previous selection is ignored, not fatal.
        let odd = s.schedule(
            &f,
            &server,
            1.0,
            &curve,
            Some(&[true; 3]),
            &SlotBudget::unbounded(),
        );
        assert_eq!(odd.selected.len(), 60);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = FleetScheduler::new(FleetConfig { num_shards: 0, ..FleetConfig::default() });
    }

    #[test]
    fn empty_fleet_is_trivial() {
        let out = FleetScheduler::with_shards(2).schedule(
            &DeviceFleet::new(),
            &EdgeServer::new(10.0, 1.0),
            1.0,
            &AnxietyCurve::paper_shape(),
            None,
            &SlotBudget::unbounded(),
        );
        assert!(out.selected.is_empty());
        assert_eq!(out.migrations, 0);
        assert_eq!(out.objective, 0.0);
    }

    #[test]
    fn shard_frontier_intersects_in_local_coordinates() {
        // Shard rows 2, 5, 9, 14; dirty 0, 5, 9, 20 → locals 1, 2.
        assert_eq!(shard_frontier(&[2, 5, 9, 14], &[0, 5, 9, 20]), vec![1, 2]);
        assert_eq!(shard_frontier(&[], &[1, 2]), Vec::<usize>::new());
        assert_eq!(shard_frontier(&[3, 4], &[]), Vec::<usize>::new());
        assert_eq!(shard_frontier(&[0, 1, 2], &[0, 1, 2]), vec![0, 1, 2]);
        // Dirty rows outside the shard never leak in.
        assert_eq!(shard_frontier(&[10, 20], &[11, 19]), Vec::<usize>::new());
    }

    #[test]
    fn shard_frontiers_cover_the_whole_dirty_set() {
        // Every dirty row lands in exactly one shard's local frontier,
        // disconnected rows mid-range included.
        let mut f = fleet(97, 11);
        for i in [30, 31, 50] {
            f.set_connected(i, false);
        }
        let shards = FleetScheduler::with_shards(3).partition(&f);
        let dirty: Vec<usize> =
            (0..97).step_by(7).filter(|&i| f.connected(i)).collect();
        let mut seen = 0;
        for shard in &shards {
            for local in shard_frontier(shard, &dirty) {
                assert!(dirty.contains(&shard[local]));
                seen += 1;
            }
        }
        assert_eq!(seen, dirty.len(), "lost dirty rows");
    }
}
