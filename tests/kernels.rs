//! Property tests for the batched columnar kernels: on every kernel
//! path (portable scalar, and AVX2 where the host detects it — the
//! objective and the fused score kernel have one), the batch entry
//! points must be **bit-for-bit identical** to the per-row reference
//! walks — across rejected rows, ragged chunk counts, and arbitrary
//! dirty/clean index mixes — the fused score to the single-purpose
//! kernels, and whole sharded schedules must not change when the vector
//! path is swapped out.

use lpvs::core::budget::SlotBudget;
use lpvs::core::compact::compact_device;
use lpvs::core::fleet::DeviceFleet;
use lpvs::core::kernels::{
    device_objective_batch_with, score_rows_with, transform_feasible_batch,
    transform_savings_batch, with_problem_columns,
};
use lpvs::core::objective::device_objective;
use lpvs::core::problem::{DeviceRequest, SlotProblem};
use lpvs::core::{detected_path, set_forced_path, FleetColumns, KernelPath, Select};
use lpvs::edge::fleet::FleetScheduler;
use lpvs::edge::server::EdgeServer;
use lpvs::survey::curve::AnxietyCurve;
use proptest::prelude::*;
use std::sync::Mutex;

const CAPACITY_J: f64 = 55_440.0;

/// Kernel paths to exercise: the portable fallback always, the vector
/// path when this host has it.
fn paths() -> Vec<KernelPath> {
    let mut paths = vec![KernelPath::Scalar];
    if detected_path() == KernelPath::Avx2 {
        paths.push(KernelPath::Avx2);
    }
    paths
}

/// Serializes the tests that flip the process-wide forced kernel path,
/// so a concurrent test cannot un-force it mid-measurement.
static FORCED_PATH: Mutex<()> = Mutex::new(());

prop_compose! {
    fn arb_request()(
        watts in 0.5f64..2.0,
        chunks in 1usize..40,
        fraction in 0.0f64..1.0,
        gamma in 0.0f64..0.49,
        compute in 0.1f64..3.0,
        storage in 0.01f64..0.3,
    ) -> DeviceRequest {
        DeviceRequest::uniform(
            watts, 10.0, chunks, fraction * CAPACITY_J, CAPACITY_J, gamma, compute, storage,
        )
    }
}

prop_compose! {
    fn arb_fleet()(
        requests in prop::collection::vec(arb_request(), 1..48),
    ) -> DeviceFleet {
        let mut fleet = DeviceFleet::new();
        for r in requests {
            fleet.push_request(r);
        }
        fleet
    }
}

/// Folds a raw index pool onto the fleet: an arbitrary dirty/clean mix
/// (subsets, duplicates, any order), like a delta frontier.
fn frontier(fleet: &DeviceFleet, raw: &[usize]) -> Vec<usize> {
    raw.iter().map(|&r| r % fleet.len()).collect()
}

/// Column storage a `FleetColumns` borrows — including what a fleet
/// never stores: rows of zero chunks (which still carry a Δ).
#[derive(Debug, Clone, Default)]
struct RawColumns {
    offsets: Vec<usize>,
    rates: Vec<f64>,
    secs: Vec<f64>,
    energy: Vec<f64>,
    capacity: Vec<f64>,
    gamma: Vec<f64>,
}

impl RawColumns {
    fn columns(&self) -> FleetColumns<'_> {
        FleetColumns::new(
            &self.offsets,
            &self.rates,
            &self.secs,
            &self.energy,
            &self.capacity,
            &self.gamma,
        )
    }
}

prop_compose! {
    /// One row's `(rates, duration, battery J, γ)`: zero to 39 chunks
    /// of varying power, one Δ per row, γ often exactly 0, and batteries
    /// often so low (or empty) that the slot drains them — the `max(0)`
    /// clamp.
    fn arb_raw_row()(
        chunks in prop_oneof![Just(0usize), 1usize..6, 1usize..40],
        watts in 0.3f64..2.0,
        secs in 2.0f64..12.0,
        battery in prop_oneof![Just(0.0), 0.0f64..0.003, 0.0f64..1.0],
        gamma in prop_oneof![Just(0.0), 0.0f64..0.49],
        wobble in 0usize..11,
    ) -> (Vec<f64>, f64, f64, f64) {
        let rate = |c: usize| watts * (0.6 + 0.08 * ((c * 7 + wobble) % 11) as f64);
        let rates = (0..chunks).map(rate).collect();
        (rates, secs, battery * CAPACITY_J, gamma)
    }
}

prop_compose! {
    fn arb_raw_columns()(rows in prop::collection::vec(arb_raw_row(), 1..23)) -> RawColumns {
        let mut raw = RawColumns { offsets: vec![0], ..RawColumns::default() };
        for (rates, secs, energy, gamma) in rows {
            raw.rates.extend(rates);
            raw.offsets.push(raw.rates.len());
            raw.secs.push(secs);
            raw.energy.push(energy);
            raw.capacity.push(CAPACITY_J);
            raw.gamma.push(gamma);
        }
        raw
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batched feasibility ≡ per-row compacting, bitwise, for arbitrary
    /// index mixes — whichever kernel path is forced (constraint (11)
    /// has one implementation; the path may only move the objective).
    #[test]
    fn batched_feasibility_matches_per_row_on_every_path(
        fleet in arb_fleet(),
        raw in prop::collection::vec(0usize..4096, 0..96),
    ) {
        let indices = frontier(&fleet, &raw);
        let cols = fleet.columns();
        let expect: Vec<bool> = indices
            .iter()
            .map(|&i| compact_device(&fleet.device_request(i)).transform_feasible)
            .collect();
        let _guard = FORCED_PATH.lock().unwrap_or_else(|e| e.into_inner());
        for path in paths() {
            set_forced_path(Some(path));
            let mut got = Vec::new();
            transform_feasible_batch(&cols, &indices, &mut got);
            set_forced_path(None);
            prop_assert_eq!(&got, &expect);
        }
    }

    /// Batched savings ≡ per-row `γ · total_energy`, with f64 **bit**
    /// equality — the Phase-1 scoring path must not drift by an ulp
    /// when the kernel path changes.
    #[test]
    fn batched_savings_match_per_row_bitwise(
        fleet in arb_fleet(),
        raw in prop::collection::vec(0usize..4096, 0..96),
    ) {
        let indices = frontier(&fleet, &raw);
        let cols = fleet.columns();
        let expect: Vec<f64> = indices
            .iter()
            .map(|&i| {
                let r = fleet.device_request(i);
                r.gamma * compact_device(&r).total_energy_j
            })
            .collect();
        let _guard = FORCED_PATH.lock().unwrap_or_else(|e| e.into_inner());
        for path in paths() {
            set_forced_path(Some(path));
            let mut feasible = Vec::new();
            let mut savings = Vec::new();
            transform_savings_batch(&cols, &indices, &mut feasible, &mut savings);
            set_forced_path(None);
            prop_assert_eq!(savings.len(), expect.len());
            for (got, want) in savings.iter().zip(&expect) {
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "path {}: {} != {}",
                    path.name(),
                    got,
                    want
                );
            }
        }
    }

    /// Batched objective ≡ per-row eq. (13), with f64 bit equality, on
    /// every kernel path, for arbitrary select masks.
    #[test]
    fn batched_objective_matches_per_row_bitwise(
        fleet in arb_fleet(),
        raw in prop::collection::vec(0usize..4096, 0..96),
        lambda in 0.0f64..8.0,
        flip in any::<bool>(),
    ) {
        let indices = frontier(&fleet, &raw);
        let cols = fleet.columns();
        let curve = AnxietyCurve::paper_shape();
        let sel: Vec<bool> = (0..fleet.len()).map(|d| (d % 2 == 0) ^ flip).collect();
        let expect: Vec<f64> = indices
            .iter()
            .map(|&i| device_objective(&fleet.device_request(i), sel[i], lambda, &curve))
            .collect();
        for path in paths() {
            let mut got = Vec::new();
            device_objective_batch_with(
                path, &cols, &indices, Select::PerRow(&sel), lambda, &curve, &mut got,
            );
            prop_assert_eq!(got.len(), expect.len());
            for (g, w) in got.iter().zip(&expect) {
                prop_assert!(g.to_bits() == w.to_bits(), "path {} diverged", path.name());
            }
        }
    }

    /// The fused score ≡ the single-purpose kernels, bit for bit, on
    /// every path: feasibility and saving as `transform_savings_batch`
    /// gives them, `off` and `on` as `device_objective_batch` under each
    /// uniform decision — over zero-chunk rows, odd lane tails (any
    /// index count), γ = 0, drained batteries and λ = 0.
    #[test]
    fn fused_scores_match_the_single_purpose_kernels_bitwise(
        raw in arb_raw_columns(),
        picks in prop::collection::vec(0usize..4096, 0..61),
        lambda in prop_oneof![Just(0.0), 0.0f64..8.0],
    ) {
        let cols = raw.columns();
        let indices: Vec<usize> = picks.iter().map(|&r| r % cols.len()).collect();
        let curve = AnxietyCurve::paper_shape();
        let (mut feasible, mut saving) = (Vec::new(), Vec::new());
        transform_savings_batch(&cols, &indices, &mut feasible, &mut saving);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for path in paths() {
            let objective = |x: bool| {
                let mut out = Vec::new();
                device_objective_batch_with(
                    path, &cols, &indices, Select::Uniform(x), lambda, &curve, &mut out,
                );
                out
            };
            let fused = score_rows_with(path, &cols, &indices, lambda, &curve);
            prop_assert_eq!(&fused.feasible, &feasible);
            prop_assert!(bits(&fused.saving) == bits(&saving), "saving on {}", path.name());
            prop_assert!(bits(&fused.off) == bits(&objective(false)), "off on {}", path.name());
            prop_assert!(bits(&fused.on) == bits(&objective(true)), "on on {}", path.name());
        }
    }

    /// Whole sharded schedules are kernel-path invariant: forcing the
    /// scalar fallback end to end (Phase-1 scoring, Phase-2 frontier,
    /// compaction) reproduces the detected-path schedule bit for bit,
    /// at 1–4 shards.
    #[test]
    fn sharded_schedule_is_kernel_path_invariant(
        fleet in arb_fleet(),
        num_shards in 1usize..5,
        capacity in 0.5f64..20.0,
        storage in 0.1f64..3.0,
        lambda in 0.0f64..8.0,
    ) {
        let curve = AnxietyCurve::paper_shape();
        let server = EdgeServer::new(capacity, storage);
        let scheduler = FleetScheduler::with_shards(num_shards);
        let _guard = FORCED_PATH.lock().unwrap_or_else(|e| e.into_inner());
        let detected = scheduler.schedule(
            &fleet, &server, lambda, &curve, None, &SlotBudget::unbounded(),
        );
        set_forced_path(Some(KernelPath::Scalar));
        let forced = scheduler.schedule(
            &fleet, &server, lambda, &curve, None, &SlotBudget::unbounded(),
        );
        set_forced_path(None);
        prop_assert_eq!(&forced.selected, &detected.selected);
        prop_assert!(
            forced.objective.to_bits() == detected.objective.to_bits(),
            "objective diverged: forced {} vs detected {}",
            forced.objective,
            detected.objective
        );
        prop_assert_eq!(
            forced.energy_saved_j.to_bits(),
            detected.energy_saved_j.to_bits()
        );
    }
}

/// Empty-chunk and corrupt rows: the fleet store rejects them, and the
/// one rows→columns loader behind [`with_problem_columns`] presents
/// them to the kernels exactly as [`SlotProblem::sanitize`] would — as
/// inert placeholders. Every path must agree with the per-row reference
/// on the sanitized rows, for a mix of rejected and ragged rows.
#[test]
fn empty_chunk_rows_agree_with_per_row_on_every_path() {
    let curve = AnxietyCurve::paper_shape();
    let mut problem = SlotProblem::new(4.0, 1.0, 1.3, curve.clone());
    for d in 0..23 {
        let chunks = [0, 3, 0, 1, 9, 0, 30, 5][d % 8];
        problem.push(DeviceRequest::from_telemetry(
            vec![0.9 + 0.05 * d as f64; chunks],
            10.0,
            2_000.0 + 400.0 * d as f64,
            CAPACITY_J,
            if d % 5 == 4 { f64::NAN } else { 0.1 + 0.01 * d as f64 },
            1.0,
            0.1,
        ));
    }
    let (clean, valid) = problem.sanitize();
    assert!(valid.iter().any(|&ok| ok) && valid.iter().any(|&ok| !ok));
    let indices: Vec<usize> = (0..problem.len()).collect();
    let sel: Vec<bool> = (0..problem.len()).map(|d| d % 3 == 0).collect();
    let expect_feasible: Vec<bool> = clean
        .requests
        .iter()
        .map(|r| compact_device(r).transform_feasible)
        .collect();
    let expect_objective: Vec<f64> = clean
        .requests
        .iter()
        .enumerate()
        .map(|(d, r)| device_objective(r, sel[d], 1.3, &curve))
        .collect();
    with_problem_columns(&problem, |cols| {
        let mut feasible = Vec::new();
        transform_feasible_batch(&cols, &indices, &mut feasible);
        assert_eq!(feasible, expect_feasible);
        for path in paths() {
            let mut values = Vec::new();
            device_objective_batch_with(
                path,
                &cols,
                &indices,
                Select::PerRow(&sel),
                1.3,
                &curve,
                &mut values,
            );
            let got: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = expect_objective.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "path {}", path.name());
        }
    });
}

/// Caller-built columns hold what a fleet admits: an empty battery of
/// capacity 0 (a battery fraction of 0/0 = NaN) is refused at
/// construction, before either path reads it.
#[test]
#[should_panic(expected = "capacity finite, > 0")]
fn caller_columns_refuse_a_zero_capacity() {
    let raw = RawColumns {
        offsets: vec![0, 1],
        rates: vec![1.0],
        secs: vec![10.0],
        energy: vec![0.0],
        capacity: vec![0.0],
        gamma: vec![0.2],
    };
    raw.columns();
}
