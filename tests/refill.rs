//! A steady gather copies its churn, not its fleet — and what it ships
//! is, bit for bit, the source.
//!
//! `DeviceFleet::ship_snapshot` is the one way a driver with a
//! persistent fleet produces `GatheredSlot::fleet`: it captures the
//! dirty frontier, consumes it, and brings the recycled buffer up to
//! date — by copying the frontier's rows when the buffer is provably the
//! snapshot shipped one epoch ago (same epoch as the frontier, same chunk
//! layout), by a full `clone_from` otherwise. Checked here:
//!
//! * the shipped buffer equals the source (rows, dirty bits, epoch) and
//!   the returned frontier is what `dirty_frontier()` would have given,
//!   for every dirtying setter at every mutation fraction;
//! * every break of the chain — no buffer, a skipped gather, another
//!   length, another chunk layout, a resume, the inline fallback — ends
//!   equal too, on the full path where the chain really broke;
//! * in counted rows (what `ship_snapshot` returns, carried on as
//!   `GatheredSlot::refilled`), a steady slot copies exactly its frontier;
//!
//! Debug builds also compare every patched buffer to its source in full
//! inside `ship_snapshot`; the assertions here hold in release too.
//!
//! Mutation checks, made by hand when this file was written (the style
//! of `tests/solve_linear.rs`): a patch that skips any one column fails
//! `a_rebuilt_source_is_patched_in_every_column` (and the setter matrix
//! for the four columns a setter reaches); a patch that forgets to
//! advance the epoch fails the matrix at its first patched slot and every
//! later slot falls to the full path, failing the counts.

use lpvs::core::fleet::{DeviceFleet, FleetDevice};
use lpvs::core::problem::{DeviceRequest, SlotProblem};
use lpvs::core::scheduler::Degradation;
use lpvs::core::work::RowsRefilled;
use lpvs::display::spec::DisplayKind;
use lpvs::edge::fleet::FleetConfig;
use lpvs::runtime::{
    BankOps, CheckpointConfig, GatheredSlot, RuntimeConfig, SlotFeedback, SlotReplay, SlotRuntime,
    SlotSink, SlotSource, SolvedSlot, StageFaults, SyntheticConfig, SyntheticDriver,
};
use lpvs::survey::curve::AnxietyCurve;

/// splitmix64 of a `(slot, row, salt)` triple as a draw in `[0, 1)`.
fn draw(slot: usize, row: usize, salt: u64) -> f64 {
    let mut z = (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((row as u64) << 20)
        ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// A request whose every column depends on `(row, salt)`.
fn request(row: usize, chunks: usize, salt: u64) -> DeviceRequest {
    DeviceRequest::new(
        (0..chunks).map(|k| 0.5 + draw(k, row, salt)).collect(),
        4.0 + 8.0 * draw(0, row, salt + 1),
        50_000.0 * draw(0, row, salt + 2),
        55_440.0 - salt as f64,
        0.05 + 0.5 * draw(0, row, salt + 3),
        0.5 + draw(0, row, salt + 4),
        0.05 + 0.2 * draw(0, row, salt + 5),
    )
}

/// `n` rows of mixed chunk counts, panels, spreads and connectivity.
fn varied_fleet(n: usize, chunks: impl Fn(usize) -> usize) -> DeviceFleet {
    let mut fleet = DeviceFleet::new();
    for row in 0..n {
        fleet.push(FleetDevice {
            request: request(row, chunks(row), 0),
            display: if row % 3 == 0 { DisplayKind::Oled } else { DisplayKind::Lcd },
            gamma_std: 0.01 * (row % 5) as f64,
            connected: row % 7 != 3,
        });
    }
    fleet
}

fn mixed_chunks(row: usize) -> usize {
    3 + row % 6
}

/// A slot problem of `n` rows with the given chunk counts, every value
/// different from [`varied_fleet`]'s.
fn other_problem(n: usize, chunks: impl Fn(usize) -> usize) -> SlotProblem {
    let mut problem = SlotProblem::new(10.0, 5.0, 1.0, AnxietyCurve::paper_shape());
    for row in 0..n {
        problem.push(request(row, chunks(row), 40));
    }
    problem
}

/// The ways a row gets dirty.
#[derive(Debug, Clone, Copy)]
enum Setter {
    Energy,
    Gamma,
    Display,
    Connected,
    Mark,
}

impl Setter {
    const ALL: [Setter; 5] =
        [Setter::Energy, Setter::Gamma, Setter::Display, Setter::Connected, Setter::Mark];

    /// Dirties `row`; the four real setters always write a new value.
    fn touch(self, fleet: &mut DeviceFleet, row: usize, slot: usize) {
        match self {
            Setter::Energy => fleet.set_energy_j(row, 100.0 + (1_000 * slot + row) as f64),
            Setter::Gamma => {
                fleet.set_gamma(row, 0.61 + 0.04 * slot as f64, 0.2 + 0.01 * slot as f64)
            }
            Setter::Display => fleet.set_display(
                row,
                match fleet.display(row) {
                    DisplayKind::Oled => DisplayKind::Lcd,
                    DisplayKind::Lcd => DisplayKind::Oled,
                },
            ),
            Setter::Connected => fleet.set_connected(row, !fleet.connected(row)),
            Setter::Mark => fleet.mark_dirty(row),
        }
    }
}

/// What every shipped snapshot must satisfy, whatever path made it.
fn assert_shipped(shipped: &DeviceFleet, source: &DeviceFleet, case: &str) {
    assert_eq!(shipped, source, "{case}: shipped rows differ from the source");
    assert_eq!(shipped.epoch(), source.epoch(), "{case}: epochs differ");
    assert_eq!(shipped.dirty_count(), 0, "{case}: the snapshot carries dirty bits");
    assert_eq!(source.dirty_count(), 0, "{case}: the frontier was not consumed");
}

#[test]
fn the_shipped_buffer_is_the_source_for_every_setter_and_fraction() {
    const ROWS: usize = 400;
    for fraction in [0.0, 0.01, 0.25, 0.5, 1.0] {
        for (salt, setter) in Setter::ALL.into_iter().enumerate() {
            let case = format!("{setter:?} at {fraction}");
            let mut fleet = varied_fleet(ROWS, mixed_chunks);
            let mut buffer = None;
            let mut touched = 0;
            for slot in 0..8 {
                if slot > 0 {
                    for row in (0..ROWS).filter(|&r| draw(slot, r, salt as u64) < fraction) {
                        setter.touch(&mut fleet, row, slot);
                        touched += 1;
                    }
                }
                let expected = fleet.dirty_frontier();
                let (frontier, shipped, copied) = fleet.ship_snapshot(buffer.take());
                assert_eq!(frontier, expected, "{case}, slot {slot}");
                assert_shipped(&shipped, &fleet, &format!("{case}, slot {slot}"));
                let want = if slot == 0 {
                    // Born dirty, nothing to patch: every row, once.
                    RowsRefilled { patched: 0, full: ROWS as u64 }
                } else {
                    RowsRefilled { patched: frontier.len() as u64, full: 0 }
                };
                assert_eq!(copied, want, "{case}, slot {slot}");
                buffer = Some(shipped);
            }
            let expected = (7.0 * fraction * ROWS as f64) as usize;
            assert!(
                touched >= expected / 2 && touched <= 2 * expected,
                "{case}: {touched} rows touched, planned about {expected}"
            );
        }
    }
}

/// No setter reaches the chunk columns, the capacity or the costs, so
/// the patch is not allowed to know that: a source rebuilt in place with
/// the same layout (every row born dirty, epoch chain intact) comes out
/// equal in every column.
#[test]
fn a_rebuilt_source_is_patched_in_every_column() {
    let mut fleet = varied_fleet(60, mixed_chunks);
    let (_, buffer, _) = fleet.ship_snapshot(None);
    fleet.rebuild_from_problem(&other_problem(60, mixed_chunks));
    assert_ne!(buffer, fleet);
    let (frontier, shipped, copied) = fleet.ship_snapshot(Some(buffer));
    assert_eq!(copied, RowsRefilled { patched: 60, full: 0 });
    assert_eq!(frontier.len(), 60);
    assert_shipped(&shipped, &fleet, "rebuilt in place");
}

#[test]
fn every_broken_chain_takes_the_full_copy_and_ends_equal() {
    const ROWS: usize = 48;
    // A foreign buffer that *would* pass the epoch test: cleared as
    // often as the source, so only its shape gives it away.
    let foreign = |n: usize, chunks: fn(usize) -> usize, epochs: u64| {
        let mut other = varied_fleet(n, chunks);
        (0..epochs).for_each(|_| other.clear_dirty());
        other
    };
    // Each case leaves the source one epoch past a clean state and
    // returns the buffer the next gather is handed.
    type Break = Box<dyn Fn(&mut DeviceFleet) -> Option<DeviceFleet>>;
    let cases: [(&str, Break); 5] = [
        ("no buffer", Box::new(|_| None)),
        (
            "a skipped gather",
            Box::new(|fleet| {
                let (_, stale, _) = fleet.ship_snapshot(None);
                fleet.set_energy_j(1, 7.0);
                let _ = fleet.ship_snapshot(None);
                Some(stale)
            }),
        ),
        (
            "another length",
            Box::new(move |fleet| Some(foreign(ROWS + 1, mixed_chunks, fleet.epoch()))),
        ),
        (
            "another chunk layout",
            Box::new(|fleet| {
                let (_, buffer, _) = fleet.ship_snapshot(None);
                fleet.rebuild_from_problem(&other_problem(ROWS, |row| 2 + row % 4));
                Some(buffer)
            }),
        ),
        (
            // Same rows, same total chunk count, ranges shifted.
            "a permuted chunk layout",
            Box::new(move |fleet| Some(foreign(ROWS, |row| 3 + (row + 1) % 6, fleet.epoch()))),
        ),
    ];
    for (case, buffer) in cases {
        let mut fleet = varied_fleet(ROWS, mixed_chunks);
        fleet.clear_dirty();
        let buffer = buffer(&mut fleet);
        fleet.set_connected(3, true);
        fleet.set_energy_j(9, 1_234.5);
        let expected = fleet.dirty_frontier();
        let (frontier, shipped, copied) = fleet.ship_snapshot(buffer);
        assert_eq!(copied, RowsRefilled { patched: 0, full: ROWS as u64 }, "{case}: not the full path");
        assert_eq!(frontier, expected, "{case}");
        assert_shipped(&shipped, &fleet, case);

        // The chain is whole again from the next slot on.
        fleet.set_energy_j(2, 99.0);
        let (_, shipped, copied) = fleet.ship_snapshot(Some(shipped));
        assert_eq!(copied, RowsRefilled { patched: 1, full: 0 }, "{case}");
        assert_shipped(&shipped, &fleet, case);
    }
}

/// One gathered slot as its record and the oracle saw it.
#[derive(Debug, Clone, Copy)]
struct Gathered {
    slot: usize,
    frontier: u64,
    copied: RowsRefilled,
}

/// `SyntheticDriver` next to a shadow of itself that never gets a
/// buffer back: the shadow always ships a full clone, so whatever path
/// the driver under test took, its whole `GatheredSlot` — snapshot,
/// delta, warm start — must equal the shadow's, but for the rows it
/// copied getting there.
struct Shadowed {
    inner: SyntheticDriver,
    shadow: SyntheticDriver,
    gathers: Vec<Gathered>,
}

impl Shadowed {
    fn new(config: SyntheticConfig) -> Self {
        Self {
            inner: SyntheticDriver::new(config.clone()),
            shadow: SyntheticDriver::new(config),
            gathers: Vec::new(),
        }
    }
}

impl SlotSource for Shadowed {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        let ops = self.shadow.begin_slot(slot);
        assert_eq!(self.inner.begin_slot(slot), ops);
        ops
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        let mut want = self.shadow.gather(slot, posteriors, None).expect("synthetic slots are never idle");
        let got = self.inner.gather(slot, posteriors, recycled).expect("never idle");
        want.refilled = got.refilled;
        assert_eq!(got, want, "slot {slot}: the gathered slot differs from a full clone's");
        assert_eq!(got.fleet.epoch(), want.fleet.epoch(), "slot {slot}");
        assert_eq!(got.fleet.dirty_count(), 0, "slot {slot}");
        let frontier = got.delta.as_ref().expect("deltas are on").len() as u64;
        self.gathers.push(Gathered { slot, frontier, copied: got.refilled });
        Some(got)
    }
}

impl SlotSink for Shadowed {
    fn solved(&mut self, solved: &SolvedSlot) {
        self.shadow.solved(solved);
        self.inner.solved(solved);
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        self.shadow.apply(slot);
        self.inner.apply(slot)
    }
}

impl SlotReplay for Shadowed {
    fn stage_decision(
        &mut self,
        slot: usize,
        device_ids: &[usize],
        selected: &[bool],
        tier: Degradation,
    ) {
        self.shadow.stage_decision(slot, device_ids, selected, tier);
        self.inner.stage_decision(slot, device_ids, selected, tier);
    }

    fn replay_slot(&mut self, slot: usize) {
        self.shadow.replay_slot(slot);
        self.inner.replay_slot(slot);
    }
}

const DEVICES: usize = 2_000;

fn runtime(faults: Option<StageFaults>, checkpoints: Option<CheckpointConfig>) -> RuntimeConfig {
    RuntimeConfig {
        fleet: FleetConfig {
            num_shards: 2,
            ..FleetConfig::default()
        },
        stage_faults: faults,
        checkpoints,
        ..RuntimeConfig::default()
    }
}

fn assert_full(g: &Gathered, case: &str) {
    let want = RowsRefilled { patched: 0, full: DEVICES as u64 };
    assert_eq!(g.copied, want, "{case}: slot {} did not copy the fleet once", g.slot);
}

fn assert_copies_its_frontier(g: &Gathered, case: &str) {
    assert!(g.frontier > 0, "{case}: slot {} has no frontier to price", g.slot);
    let want = RowsRefilled { patched: g.frontier, full: 0 };
    assert_eq!(g.copied, want, "{case}: slot {} did not copy exactly its frontier", g.slot);
}

#[test]
fn a_steady_slot_copies_exactly_its_frontier() {
    for sequential in [false, true] {
        let mut driver = Shadowed::new(SyntheticConfig::steady(DEVICES, 8, 17));
        let estimators = driver.inner.estimators();
        let runtime = SlotRuntime::new(runtime(None, None));
        if sequential {
            runtime.run_sequential(&mut driver, estimators);
        } else {
            runtime.run(&mut driver, estimators);
        }
        assert_eq!(driver.gathers.len(), 8);
        assert_full(&driver.gathers[0], "steady");
        for g in &driver.gathers[1..] {
            assert_copies_its_frontier(g, "steady");
            assert!(g.frontier < DEVICES as u64 / 20, "a 1 % run dirtied {} rows", g.frontier);
        }
    }
}

#[test]
fn a_resumed_run_copies_the_fleet_once_then_its_frontier() {
    let config = SyntheticConfig::steady(DEVICES, 10, 41);
    let dir = std::env::temp_dir().join(format!("lpvs-refill-it-{}-resume", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let checkpoints = CheckpointConfig { interval: 2, ..CheckpointConfig::new(&dir) };

    let mut uninterrupted = SyntheticDriver::new(config.clone());
    let estimators = uninterrupted.estimators();
    SlotRuntime::new(runtime(None, None)).run(&mut uninterrupted, estimators);

    let mut halted = Shadowed::new(config.clone());
    let estimators = halted.inner.estimators();
    SlotRuntime::new(RuntimeConfig {
        halt_after_slot: Some(5),
        ..runtime(None, Some(checkpoints.clone()))
    })
    .run(&mut halted, estimators);

    let mut resumed = Shadowed::new(config);
    let report = SlotRuntime::new(runtime(None, Some(checkpoints)))
        .resume(&mut resumed)
        .expect("resume from manifest");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed.inner.records(), uninterrupted.records(), "resumed run diverged");

    // The hub that held the buffer is gone: the first gather has none.
    let at = report.summary.recovery.resumed_at.expect("a resumed run says where");
    assert_eq!(resumed.gathers[0].slot, at);
    assert_full(&resumed.gathers[0], "resumed");
    assert!(resumed.gathers.len() >= 3, "the resume must leave slots to run");
    for g in &resumed.gathers[1..] {
        assert_copies_its_frontier(g, "resumed");
    }
}

#[test]
fn the_inline_fallback_keeps_shipping_the_source() {
    // Every respawn of a faulted (slot, shard) dies again, so the retry
    // budget runs out and the remaining slots run inline.
    let faults = StageFaults { rate: 0.15, seed: 5, repeat: u32::MAX };
    let mut driver = Shadowed::new(SyntheticConfig::steady(DEVICES, 10, 23));
    let estimators = driver.inner.estimators();
    let report = SlotRuntime::new(runtime(Some(faults), None)).run(&mut driver, estimators);
    let fell_back = report.summary.recovery.fell_back.expect("the ladder must bottom out");
    assert!(fell_back > 1 && fell_back < 9, "pick another fault seed (fell back at {fell_back})");
    assert_eq!(driver.gathers.len(), 10);
    // Equality with the shadow was asserted at every gather, on either
    // side of the switch. In counted rows: a slot either had its buffer
    // back and copied its frontier, or had none and copied the fleet —
    // and the executor switch itself loses no buffer.
    assert_full(&driver.gathers[0], "fallback");
    for g in &driver.gathers[1..] {
        assert_copies_its_frontier(g, "fallback");
    }
}
