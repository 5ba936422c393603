//! Batched columnar kernels for the solve hot path.
//!
//! The columnar [`DeviceFleet`](crate::fleet::DeviceFleet) exists so the
//! per-device hot kernels — compacted transform feasibility
//! (constraint (11)) and the eq. (13) objective — run over flat columns
//! instead of materialized [`DeviceRequest`](crate::problem::DeviceRequest)
//! rows. The kernels here take an index slice and fill caller-provided
//! output buffers, one verdict or value per index:
//!
//! * constraint (11) and the transform saving have **one**
//!   implementation — tight per-row loops over the column slices,
//!   branchless in the chunk loop (straight-line float arithmetic, no
//!   per-chunk control flow). An AVX2 variant existed and was deleted:
//!   forcing these loops onto the scalar path moved no end-to-end
//!   metric on any benchmark workload (DESIGN.md §12 records the
//!   measurement), so its ~250 lines of `unsafe` bought nothing;
//! * the eq. (13) objective additionally has an explicit **AVX2** path
//!   (`std::arch`), selected at runtime via
//!   [`is_x86_feature_detected!`], that packs **one device per SIMD
//!   lane** (4 × f64): each lane walks its own device's chunks in
//!   playback order, so every lane performs *exactly* the scalar
//!   reduction — same order, same operations, no FMA contraction. It
//!   earns 6–10× on the kernel, and the kernel runs once per cold slot,
//!   so it stays;
//! * [`score_rows`] fuses them: **one walk** of each row's chunks with
//!   independent accumulators — constraint (11)'s two prefix masses,
//!   eq. (13) with the transform off and on — giving every output the
//!   three kernels give, bit for bit, on both paths. The transform-off
//!   chain's prefix *is* constraint (11)'s `total` (its ψ is `1·p`), so
//!   that sum is kept once. The per-chunk steps are shared
//!   `#[inline(always)]` helpers (`scalar::compact_step`,
//!   `scalar::objective_step` and their AVX2 mirrors), so no equation
//!   has a second implementation. A cold slot scores its view with it
//!   once, and compact, Phase-2 and the totals all read that score
//!   ([`Scores::fold`]).
//!
//! ## The bit-identity contract
//!
//! The repo's bit-identity suites (fleet entry ≡ row entry, delta ≡
//! cold, halt+resume ≡ uninterrupted) only survive if batching never
//! changes a single ULP. Vectorizing *along the chunk axis* would
//! reorder the objective reduction and break that, so the AVX2 kernel
//! vectorizes *across devices* instead: the per-device reduction order
//! is untouched and `batched ≡ per-row` holds bit-for-bit on both paths
//! (asserted by unit tests here, proptests in `tests/kernels.rs`, and
//! schedule-level checks at 1–4 shards). Devices in a lane group may
//! have different chunk counts; exhausted lanes are masked so their
//! rate gathers return `+0.0` and their row Δ (loaded once per group)
//! is masked to `+0.0` at every step, which is an exact no-op on both
//! accumulators (all contributions are nonnegative, so neither
//! accumulator can ever hold `-0.0`).
//!
//! ## Path selection
//!
//! [`active_path`] resolves, in order: a programmatic override
//! ([`set_forced_path`], used by benches and the bit-identity tests), the
//! `LPVS_KERNELS` environment variable (`scalar` forces the portable
//! path; any other value is ignored), then CPU detection. Requesting AVX2 on a CPU without it falls back
//! to scalar — the choice is a pure performance knob and can never
//! change results.

use crate::problem::SlotProblem;
use lpvs_survey::curve::AnxietyCurve;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which kernel implementation executes a batch call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Explicit `std::arch` AVX2 lanes, one device per f64 lane.
    Avx2,
    /// Portable per-row loops over the column slices.
    Scalar,
}

impl KernelPath {
    /// Stable lowercase name (`"avx2"` / `"scalar"`) for artifacts and
    /// logs.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Avx2 => "avx2",
            KernelPath::Scalar => "scalar",
        }
    }
}

/// Process-wide programmatic override: 0 = none, 1 = scalar, 2 = avx2.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Parsed `LPVS_KERNELS` env override, read once per process.
static ENV_PATH: OnceLock<Option<KernelPath>> = OnceLock::new();

/// The best path this CPU supports: AVX2 when detected, else scalar.
pub fn detected_path() -> KernelPath {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelPath::Avx2;
        }
    }
    KernelPath::Scalar
}

/// `LPVS_KERNELS=scalar` forces the portable path; any other value
/// leaves detection in charge.
fn env_path() -> Option<KernelPath> {
    *ENV_PATH.get_or_init(|| {
        (std::env::var("LPVS_KERNELS").as_deref() == Ok("scalar")).then_some(KernelPath::Scalar)
    })
}

/// Forces every subsequent batch call onto the given path (`None`
/// restores the default resolution). For benches and the bit-identity
/// tests; both paths produce bit-identical output, so racing callers
/// can never observe a result difference — only a speed one.
pub fn set_forced_path(path: Option<KernelPath>) {
    let code = match path {
        None => 0,
        Some(KernelPath::Scalar) => 1,
        Some(KernelPath::Avx2) => 2,
    };
    FORCED.store(code, Ordering::Relaxed);
}

/// The path batch calls take right now: programmatic override, then the
/// `LPVS_KERNELS=scalar` env var, then CPU detection. An AVX2 override
/// on a CPU without AVX2 resolves to scalar.
pub fn active_path() -> KernelPath {
    let requested = match FORCED.load(Ordering::Relaxed) {
        1 => Some(KernelPath::Scalar),
        2 => Some(KernelPath::Avx2),
        _ => env_path(),
    };
    match requested {
        Some(KernelPath::Scalar) => KernelPath::Scalar,
        Some(KernelPath::Avx2) => {
            if detected_path() == KernelPath::Avx2 {
                KernelPath::Avx2
            } else {
                KernelPath::Scalar
            }
        }
        None => detected_path(),
    }
}

/// Borrowed view of the six columns the batch kernels read. Obtained
/// from [`DeviceFleet::columns`](crate::fleet::DeviceFleet::columns)
/// (zero-copy).
#[derive(Debug, Clone, Copy)]
pub struct FleetColumns<'a> {
    /// `n + 1` chunk-range offsets, `chunk_offsets[0] == 0`.
    pub(crate) chunk_offsets: &'a [usize],
    /// Flattened per-chunk power rates (W).
    pub(crate) power_rates_w: &'a [f64],
    /// Chunk duration Δ (s) per device.
    pub(crate) chunk_secs: &'a [f64],
    /// Remaining energy `e(1)` (J) per device.
    pub(crate) energy_j: &'a [f64],
    /// Battery capacity (J) per device.
    pub(crate) capacity_j: &'a [f64],
    /// γ posterior mean per device.
    pub(crate) gamma_mean: &'a [f64],
}

impl<'a> FleetColumns<'a> {
    /// A view over caller-owned columns — for columns that are not a
    /// [`DeviceFleet`](crate::fleet::DeviceFleet)'s, such as the
    /// zero-chunk rows a fleet never stores. Device `i`'s chunks are
    /// `chunk_offsets[i]..chunk_offsets[i + 1]` of the rate column, each
    /// `chunk_secs[i]` long.
    ///
    /// # Panics
    ///
    /// Panics unless `chunk_offsets` starts at 0, never decreases and
    /// ends at the rate column's length, and the four per-device columns
    /// hold one entry per device. The values must be
    /// what a fleet admits
    /// ([`DeviceRequest::is_valid`](crate::problem::DeviceRequest::is_valid)):
    /// rates finite and ≥ 0, durations finite and > 0, energy finite and
    /// ≥ 0, capacity finite and > 0, γ in `[0, 1)` — else a battery
    /// fraction is NaN, which the two paths would not handle alike.
    pub fn new(
        chunk_offsets: &'a [usize],
        power_rates_w: &'a [f64],
        chunk_secs: &'a [f64],
        energy_j: &'a [f64],
        capacity_j: &'a [f64],
        gamma_mean: &'a [f64],
    ) -> Self {
        assert_eq!(chunk_offsets.first(), Some(&0), "offsets must start at 0");
        assert!(chunk_offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must not decrease");
        let chunks = power_rates_w.len();
        assert_eq!(chunk_offsets.last(), Some(&chunks), "offsets must cover the rates");
        let n = chunk_offsets.len() - 1;
        assert!(
            [chunk_secs.len(), energy_j.len(), capacity_j.len(), gamma_mean.len()] == [n; 4],
            "one duration, energy, capacity and γ per device"
        );
        assert!(power_rates_w.iter().all(|p| p.is_finite() && *p >= 0.0), "rates finite, ≥ 0");
        assert!(chunk_secs.iter().all(|d| d.is_finite() && *d > 0.0), "durations finite, > 0");
        assert!(energy_j.iter().all(|e| e.is_finite() && *e >= 0.0), "energy finite, ≥ 0");
        assert!(capacity_j.iter().all(|c| c.is_finite() && *c > 0.0), "capacity finite, > 0");
        assert!(gamma_mean.iter().all(|g| (0.0..1.0).contains(g)), "γ in [0, 1)");
        Self { chunk_offsets, power_rates_w, chunk_secs, energy_j, capacity_j, gamma_mean }
    }

    /// Number of devices in the view.
    pub fn len(&self) -> usize {
        self.chunk_offsets.len() - 1
    }

    /// True when the view holds no devices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`'s per-chunk rates and its chunk duration.
    #[inline]
    fn chunks(&self, i: usize) -> (&'a [f64], f64) {
        let r = self.chunk_offsets[i]..self.chunk_offsets[i + 1];
        (&self.power_rates_w[r], self.chunk_secs[i])
    }
}

/// Runs `f` over a column view of the problem's rows — the row-holding
/// consumers' way to the batch kernels. The rows are loaded by the one
/// rows→columns loader
/// ([`DeviceFleet::rebuild_from_problem`](crate::fleet::DeviceFleet::rebuild_from_problem),
/// into a thread-local fleet reused across calls), so rows failing
/// [`DeviceRequest::is_valid`](crate::problem::DeviceRequest::is_valid)
/// appear as inert placeholders, exactly as
/// [`SlotProblem::sanitize`] would present them.
pub fn with_problem_columns<R>(problem: &SlotProblem, f: impl FnOnce(FleetColumns<'_>) -> R) -> R {
    crate::fleet::with_problem_view(problem, |view| f(view.columns()))
}

/// Transform decision fed to [`device_objective_batch`].
#[derive(Debug, Clone, Copy)]
pub enum Select<'a> {
    /// Every indexed device shares one decision.
    Uniform(bool),
    /// Per-device decisions, indexed by the *row index* (the same index
    /// space as the `indices` argument), not by batch position.
    PerRow(&'a [bool]),
    /// Per-device decisions parallel to the `indices` argument: entry
    /// `k` decides row `indices[k]`. This is what a shard-local
    /// selection over global fleet rows is.
    PerPosition(&'a [bool]),
}

impl<'a> Select<'a> {
    /// The decision for row `row` at batch position `position`.
    #[inline]
    fn at(&self, position: usize, row: usize) -> bool {
        match self {
            Select::Uniform(x) => *x,
            Select::PerRow(sel) => sel[row],
            Select::PerPosition(sel) => sel[position],
        }
    }

    /// The same decisions for a batch whose first `n` indices were
    /// dropped (the scalar tail after the vector groups).
    #[cfg(target_arch = "x86_64")]
    fn skip(self, n: usize) -> Self {
        match self {
            Select::PerPosition(sel) => Select::PerPosition(&sel[n..]),
            other => other,
        }
    }
}

/// Batched compacted transform-feasibility (constraint (11), `x = 1`):
/// appends one verdict per index to `out`, bit-identical to
/// [`compact_device`](crate::compact::compact_device) on each row.
///
/// # Panics
///
/// Panics if any index is out of bounds for the columns.
pub fn transform_feasible_batch(cols: &FleetColumns<'_>, indices: &[usize], out: &mut Vec<bool>) {
    out.reserve(indices.len());
    for &i in indices {
        let (rates, d) = cols.chunks(i);
        let (total, weighted) = scalar::row_compact(rates, d);
        out.push(scalar::row_feasible(cols, i, total, weighted));
    }
}

/// Batched feasibility **and** savings in one pass: per index, appends
/// the constraint-(11) verdict to `out_feasible` and the transform
/// saving `γ · Σ p·Δ` (J) to `out_savings` — bit-identical to
/// [`DeviceRequest::saving_j`](crate::problem::DeviceRequest::saving_j).
/// The two Phase-1 inputs alone, for callers that build a Phase-1
/// program by hand; a solve takes them from [`score_rows`].
///
/// # Panics
///
/// Panics if any index is out of bounds for the columns.
pub fn transform_savings_batch(
    cols: &FleetColumns<'_>,
    indices: &[usize],
    out_feasible: &mut Vec<bool>,
    out_savings: &mut Vec<f64>,
) {
    out_feasible.reserve(indices.len());
    out_savings.reserve(indices.len());
    for &i in indices {
        let (rates, d) = cols.chunks(i);
        let (total, weighted) = scalar::row_compact(rates, d);
        out_feasible.push(scalar::row_feasible(cols, i, total, weighted));
        out_savings.push(cols.gamma_mean[i] * total);
    }
}

/// Batched eq. (13) objective contributions: appends one value per
/// index to `out`, bit-identical to
/// [`device_objective`](crate::objective::device_objective) on each row.
/// Runs on [`active_path`].
///
/// # Panics
///
/// Panics if any index is out of bounds for the columns, or (for
/// [`Select::PerRow`] / [`Select::PerPosition`]) for the selection slice.
pub fn device_objective_batch(
    cols: &FleetColumns<'_>,
    indices: &[usize],
    selected: Select<'_>,
    lambda: f64,
    curve: &AnxietyCurve,
    out: &mut Vec<f64>,
) {
    device_objective_batch_with(active_path(), cols, indices, selected, lambda, curve, out);
}

/// [`device_objective_batch`] on an explicit path (for tests/benches).
pub fn device_objective_batch_with(
    path: KernelPath,
    cols: &FleetColumns<'_>,
    indices: &[usize],
    selected: Select<'_>,
    lambda: f64,
    curve: &AnxietyCurve,
    out: &mut Vec<f64>,
) {
    out.reserve(indices.len());
    match path {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => {
            // Safety: `Avx2` is only handed out after CPU detection.
            unsafe { avx2::device_objective(cols, indices, selected, lambda, curve, out) }
        }
        _ => scalar::device_objective(cols, indices, selected, lambda, curve, out),
    }
}

/// Every per-row output of the batch kernels, one entry per scored row
/// in row-list order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scores {
    /// Constraint-(11) verdict, as [`transform_feasible_batch`] gives it.
    pub feasible: Vec<bool>,
    /// Transform saving `γ · Σ p·Δ` (J), as [`transform_savings_batch`]
    /// gives it.
    pub saving: Vec<f64>,
    /// Eq.-13 term untransformed, as [`device_objective_batch`] gives it
    /// under `Select::Uniform(false)`.
    pub off: Vec<f64>,
    /// Eq.-13 term transformed, as [`device_objective_batch`] gives it
    /// under `Select::Uniform(true)`.
    pub on: Vec<f64>,
}

impl Scores {
    fn with_capacity(n: usize) -> Self {
        Self {
            feasible: Vec::with_capacity(n),
            saving: Vec::with_capacity(n),
            off: Vec::with_capacity(n),
            on: Vec::with_capacity(n),
        }
    }

    /// `(objective, energy_saved_j)` of `selected`, positional like the
    /// score: eq. 13 is Σ (`selected` ? `on` : `off`) and the saving
    /// Σ (`selected` ? `saving` : 0.0), both folded in position order
    /// from `Sum`'s identity — the bits of summing every row's freshly
    /// evaluated term, an empty selection's −0.0 included. The one way
    /// a total is made, from a solve's score or the join's columns.
    ///
    /// # Panics
    ///
    /// Panics if a priced column is not as long as `selected`.
    pub fn fold(&self, selected: &[bool]) -> (f64, f64) {
        let n = selected.len();
        assert!(self.off.len() == n && self.on.len() == n && self.saving.len() == n, "the score does not cover the selection");
        // `x ? a : b` by a mask over the bits, so a decision the branch
        // predictor cannot guess costs no mispredict.
        let pick = |x: bool, a: f64, b: f64| {
            let keep = u64::from(x).wrapping_neg();
            f64::from_bits((a.to_bits() & keep) | (b.to_bits() & !keep))
        };
        let rows = || selected.iter().zip(&self.off).zip(&self.on).zip(&self.saving);
        let objective = rows().map(|(((&x, &off), &on), _)| pick(x, on, off)).sum();
        let saving = rows().map(|(((&x, _), _), &saving)| pick(x, saving, 0.0)).sum();
        (objective, saving)
    }

    /// Appends row `i`'s outputs from its walk's accumulators.
    #[inline(always)]
    fn push(&mut self, cols: &FleetColumns<'_>, i: usize, [total, weighted, off, on]: [f64; 4]) {
        self.feasible.push(scalar::row_feasible(cols, i, total, weighted));
        self.saving.push(cols.gamma_mean[i] * total);
        self.off.push(off);
        self.on.push(on);
    }
}

/// Feasibility, saving and both eq.-13 terms of every row in `rows`, in
/// one walk of each row's chunks — bit for bit what
/// [`transform_savings_batch`] and two [`device_objective_batch`] calls
/// (transform off, transform on) give. Runs on [`active_path`].
///
/// # Panics
///
/// Panics if any row is out of bounds for the columns.
pub fn score_rows(
    cols: &FleetColumns<'_>,
    rows: &[usize],
    lambda: f64,
    curve: &AnxietyCurve,
) -> Scores {
    score_rows_with(active_path(), cols, rows, lambda, curve)
}

/// [`score_rows`] on an explicit path (for tests/benches).
pub fn score_rows_with(
    path: KernelPath,
    cols: &FleetColumns<'_>,
    rows: &[usize],
    lambda: f64,
    curve: &AnxietyCurve,
) -> Scores {
    let mut out = Scores::with_capacity(rows.len());
    match path {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => {
            // SAFETY: `Avx2` is only handed out after CPU detection, and
            // the columns keep every row's chunk range in bounds.
            unsafe { avx2::score_rows(cols, rows, lambda, curve, &mut out) }
        }
        _ => scalar::score_rows(cols, rows, lambda, curve, &mut out),
    }
    out
}

/// The chunk steps one walk of `rows` takes — the scheduler's count of
/// what its kernels read ([`SlotWork::chunk_steps`](crate::work::SlotWork::chunk_steps)).
pub(crate) fn chunk_steps(cols: &FleetColumns<'_>, rows: &[usize]) -> u64 {
    let offsets = cols.chunk_offsets;
    rows.iter().map(|&i| (offsets[i + 1] - offsets[i]) as u64).sum()
}

/// Portable per-row loops — the reference semantics both paths share.
mod scalar {
    use super::{FleetColumns, Scores, Select};
    use lpvs_survey::curve::AnxietyCurve;

    /// One chunk of constraint (11)'s prefix masses, in the exact
    /// accumulation order of `compact_device`: `total += p·Δ`,
    /// `weighted += ((K − κ)·p)·Δ`, with `km = K − κ`.
    #[inline(always)]
    pub(super) fn compact_step(total: &mut f64, weighted: &mut f64, km: f64, p: f64, d: f64) {
        *total += p * d;
        *weighted += km * p * d;
    }

    /// One chunk's eq.-13 term, `(ψ + λ·φ(max(e(1) − prefix, 0) / cap))·Δ`,
    /// at transformed power `psi` on a battery the earlier chunks drained
    /// by `prefix_j`.
    #[inline(always)]
    pub(super) fn objective_step(
        psi: f64,
        d: f64,
        prefix_j: f64,
        energy_j: f64,
        capacity_j: f64,
        lambda: f64,
        curve: &AnxietyCurve,
    ) -> f64 {
        let energy = (energy_j - prefix_j).max(0.0);
        let anxiety = curve.phi(energy / capacity_j);
        (psi + lambda * anxiety) * d
    }

    /// One row of constraint (11): `(total, weighted)` prefix masses in
    /// the exact accumulation order of `compact_device`.
    #[inline(always)]
    pub(super) fn row_compact(rates: &[f64], d: f64) -> (f64, f64) {
        let k = rates.len() as f64;
        let mut total = 0.0;
        let mut weighted = 0.0;
        // Carry `k − κ` as a float decremented per chunk instead of
        // converting `κ` from the loop counter each iteration: every
        // intermediate is an exact small integer in f64, so this is
        // bit-identical to the `compact_device` formulation while
        // avoiding a u64→f64 conversion in the inner loop.
        let mut km = k - 1.0;
        for &p in rates {
            compact_step(&mut total, &mut weighted, km, p, d);
            km -= 1.0;
        }
        (total, weighted)
    }

    #[inline(always)]
    pub(super) fn row_feasible(cols: &FleetColumns<'_>, i: usize, total: f64, weighted: f64) -> bool {
        let k = (cols.chunk_offsets[i + 1] - cols.chunk_offsets[i]) as f64;
        let factor = 1.0 - cols.gamma_mean[i];
        k * cols.energy_j[i] - factor * weighted >= factor * total - 1e-9
    }

    pub(super) fn device_objective(
        cols: &FleetColumns<'_>,
        indices: &[usize],
        selected: Select<'_>,
        lambda: f64,
        curve: &AnxietyCurve,
        out: &mut Vec<f64>,
    ) {
        for (k, &i) in indices.iter().enumerate() {
            let factor = if selected.at(k, i) { 1.0 - cols.gamma_mean[i] } else { 1.0 };
            let (rates, d) = cols.chunks(i);
            let energy_j = cols.energy_j[i];
            let capacity_j = cols.capacity_j[i];
            let mut prefix_j = 0.0;
            let mut total = 0.0;
            for &p in rates {
                let psi = factor * p;
                total += objective_step(psi, d, prefix_j, energy_j, capacity_j, lambda, curve);
                prefix_j += psi * d;
            }
            out.push(total);
        }
    }

    /// The fused walk: constraint (11)'s `total` and `weighted`, eq. 13
    /// untransformed (ψ = `1·p` = `p`, so its prefix is `total` before
    /// the chunk) and transformed (its own prefix), each accumulator in
    /// its kernel's order.
    pub(super) fn score_rows(
        cols: &FleetColumns<'_>,
        rows: &[usize],
        lambda: f64,
        curve: &AnxietyCurve,
        out: &mut Scores,
    ) {
        for &i in rows {
            let (rates, d) = cols.chunks(i);
            let (energy_j, capacity_j) = (cols.energy_j[i], cols.capacity_j[i]);
            let factor = 1.0 - cols.gamma_mean[i];
            let mut km = rates.len() as f64 - 1.0;
            let (mut total, mut weighted) = (0.0, 0.0);
            let (mut off, mut on, mut on_prefix) = (0.0, 0.0, 0.0);
            for &p in rates {
                off += objective_step(p, d, total, energy_j, capacity_j, lambda, curve);
                let psi = factor * p;
                on += objective_step(psi, d, on_prefix, energy_j, capacity_j, lambda, curve);
                on_prefix += psi * d;
                compact_step(&mut total, &mut weighted, km, p, d);
                km -= 1.0;
            }
            out.push(cols, i, [total, weighted, off, on]);
        }
    }
}

/// AVX2 lane-per-device eq. (13) and fused score kernels. Four devices
/// ride one `__m256d`; each lane's chunk walk is the scalar reduction
/// verbatim (separate `mul`/`add` intrinsics — never FMA — in the scalar
/// association order), so results are bit-identical to the scalar path.
/// Lanes whose device has fewer chunks than the group maximum are
/// masked: their rate gathers return `+0.0`, their Δ is masked to
/// `+0.0`, and they contribute exact no-ops to every accumulator.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{FleetColumns, Scores, Select};
    use lpvs_survey::curve::AnxietyCurve;
    use std::arch::x86_64::*;

    const LANES: usize = 4;

    /// Per-group lane setup.
    struct Group {
        /// Flat start offset per lane.
        starts: [usize; 4],
        /// Chunk count per lane.
        lens: [i64; 4],
        /// Longest lane — the group's iteration count.
        max_len: usize,
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn group(cols: &FleetColumns<'_>, idx: &[usize]) -> Group {
        let start = |l: usize| cols.chunk_offsets[idx[l]];
        let count = |l: usize| (cols.chunk_offsets[idx[l] + 1] - cols.chunk_offsets[idx[l]]) as i64;
        let lens = [count(0), count(1), count(2), count(3)];
        Group {
            starts: [start(0), start(1), start(2), start(3)],
            lens,
            max_len: lens.iter().copied().max().unwrap_or(0) as usize,
        }
    }

    /// The group's chunk counts as an i64 vector (for exhaustion masks).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn len_vec(g: &Group) -> __m256i {
        _mm256_set_epi64x(g.lens[3], g.lens[2], g.lens[1], g.lens[0])
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather_lane(idx: &[usize], col: &[f64]) -> __m256d {
        _mm256_set_pd(col[idx[3]], col[idx[2]], col[idx[1]], col[idx[0]])
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn to_array(v: __m256d) -> [f64; 4] {
        let mut out = [0.0; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), v);
        out
    }

    /// φ(·) over four lanes — the vector mirror of
    /// [`AnxietyCurve::phi`]: clamp, table lookup with linear
    /// interpolation, flat extension at both ends. Branches become
    /// blends; the division and the `a + (b − a)·frac` association are
    /// preserved exactly.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn phi4(values: &[f64; 100], x: __m256d) -> __m256d {
        let zero = _mm256_setzero_pd();
        let one = _mm256_set1_pd(1.0);
        let hundred = _mm256_set1_pd(100.0);
        // e = clamp(x, 0, 1) * 100 — identical to scalar for every
        // input reaching us (x = energy/capacity is finite and ≥ 0; a
        // -0.0 cannot arise, and the ≤ 1 % blend would mask it anyway).
        let e = _mm256_mul_pd(_mm256_min_pd(_mm256_max_pd(x, zero), one), hundred);
        let low = _mm256_cmp_pd::<_CMP_LE_OQ>(e, one);
        let high = _mm256_cmp_pd::<_CMP_GE_OQ>(e, hundred);
        // Interpolation lanes have floor(e) ∈ [1, 99]; clamp so the
        // table gathers stay in bounds even on lanes the blends below
        // will overwrite with an endpoint value.
        let lo_f = _mm256_min_pd(
            _mm256_max_pd(_mm256_floor_pd(e), one),
            _mm256_set1_pd(99.0),
        );
        let frac = _mm256_sub_pd(e, lo_f);
        let lo_i = _mm256_cvttpd_epi32(lo_f);
        let a = _mm256_i32gather_pd::<8>(
            values.as_ptr(),
            _mm_sub_epi32(lo_i, _mm_set1_epi32(1)),
        );
        let b = _mm256_i32gather_pd::<8>(values.as_ptr(), lo_i);
        // a + (b − a)·frac, in the scalar association order.
        let lerp = _mm256_add_pd(a, _mm256_mul_pd(_mm256_sub_pd(b, a), frac));
        let v0 = _mm256_set1_pd(values[0]);
        let v99 = _mm256_set1_pd(values[99]);
        // Scalar checks `e ≤ 1` before `e ≥ 100`, so blend low last.
        let r = _mm256_blendv_pd(lerp, v99, high);
        _mm256_blendv_pd(r, v0, low)
    }

    /// `scalar::objective_step` on four lanes, operation for operation.
    /// (`#[inline]`, not `always`: a `target_feature` function may not
    /// be `inline(always)`; every caller is AVX2 code, so it inlines.)
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn objective_step4(
        psi: __m256d,
        d: __m256d,
        prefix: __m256d,
        energy_j: __m256d,
        capacity: __m256d,
        lam: __m256d,
        values: &[f64; 100],
    ) -> __m256d {
        // energy = max(e(1) − prefix, 0) — exact scalar mirror.
        let energy = _mm256_max_pd(_mm256_sub_pd(energy_j, prefix), _mm256_setzero_pd());
        let anxiety = phi4(values, _mm256_div_pd(energy, capacity));
        // (ψ + λ·anxiety)·d
        _mm256_mul_pd(_mm256_add_pd(psi, _mm256_mul_pd(lam, anxiety)), d)
    }

    /// `scalar::compact_step` on four lanes. A masked lane (`p = d = 0`,
    /// `km < 0` once exhausted) adds `+0.0` and `−0.0`: exact no-ops.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn compact_step4(
        total: &mut __m256d,
        weighted: &mut __m256d,
        km: __m256d,
        p: __m256d,
        d: __m256d,
    ) {
        *total = _mm256_add_pd(*total, _mm256_mul_pd(p, d));
        *weighted = _mm256_add_pd(*weighted, _mm256_mul_pd(_mm256_mul_pd(km, p), d));
    }

    /// Each lane's first flat chunk position, as a vector (the walk
    /// advances it by one per chunk step).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn start_vec(g: &Group) -> __m256i {
        let s = |l: usize| g.starts[l] as i64;
        _mm256_set_epi64x(s(3), s(2), s(1), s(0))
    }

    /// The lanes still walking at chunk step `j`: all-ones bits, else
    /// zero — so `_mm256_and_pd` with it turns an exhausted lane's value
    /// into `+0.0`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn live(len: __m256i, j: usize) -> __m256d {
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(len, _mm256_set1_epi64x(j as i64)))
    }

    /// `scalar::score_rows` four rows at a time: the five accumulators
    /// ride the same lanes, so each chunk's `p` is gathered once for all
    /// of them, and each row's Δ once per group.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. The rate gathers read only live lanes
    /// at positions inside their row's chunk range, which the columns'
    /// offsets keep inside the rate column (`FleetColumns::new`
    /// checks this; a fleet's columns hold it by construction), and
    /// `group` indexes the offsets with bounds checks first.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn score_rows(
        cols: &FleetColumns<'_>,
        rows: &[usize],
        lambda: f64,
        curve: &AnxietyCurve,
        out: &mut Scores,
    ) {
        let rates = cols.power_rates_w.as_ptr();
        let values = curve.values();
        let zero = _mm256_setzero_pd();
        let one = _mm256_set1_pd(1.0);
        let one_i = _mm256_set1_epi64x(1);
        let lam = _mm256_set1_pd(lambda);
        let mut groups = rows.chunks_exact(LANES);
        for idx in &mut groups {
            let g = group(cols, idx);
            let factor = _mm256_sub_pd(one, gather_lane(idx, cols.gamma_mean));
            let energy_j = gather_lane(idx, cols.energy_j);
            let capacity = gather_lane(idx, cols.capacity_j);
            let secs = gather_lane(idx, cols.chunk_secs);
            let len = len_vec(&g);
            let k = |l: usize| g.lens[l] as f64;
            let mut km = _mm256_sub_pd(_mm256_set_pd(k(3), k(2), k(1), k(0)), one);
            let mut pos = start_vec(&g);
            let (mut total, mut weighted) = (zero, zero);
            let (mut off, mut on, mut on_prefix) = (zero, zero, zero);
            for j in 0..g.max_len {
                let live = live(len, j);
                let p = _mm256_mask_i64gather_pd::<8>(zero, rates, pos, live);
                let d = _mm256_and_pd(secs, live);
                let step = objective_step4(p, d, total, energy_j, capacity, lam, values);
                off = _mm256_add_pd(off, step);
                let psi = _mm256_mul_pd(factor, p);
                let step = objective_step4(psi, d, on_prefix, energy_j, capacity, lam, values);
                on = _mm256_add_pd(on, step);
                on_prefix = _mm256_add_pd(on_prefix, _mm256_mul_pd(psi, d));
                compact_step4(&mut total, &mut weighted, km, p, d);
                km = _mm256_sub_pd(km, one);
                pos = _mm256_add_epi64(pos, one_i);
            }
            let (total, weighted) = (to_array(total), to_array(weighted));
            let (off, on) = (to_array(off), to_array(on));
            for (l, &i) in idx.iter().enumerate() {
                out.push(cols, i, [total[l], weighted[l], off[l], on[l]]);
            }
        }
        super::scalar::score_rows(cols, groups.remainder(), lambda, curve, out);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn device_objective(
        cols: &FleetColumns<'_>,
        indices: &[usize],
        selected: Select<'_>,
        lambda: f64,
        curve: &AnxietyCurve,
        out: &mut Vec<f64>,
    ) {
        let rates = cols.power_rates_w.as_ptr();
        let values = curve.values();
        let zero = _mm256_setzero_pd();
        let one_i = _mm256_set1_epi64x(1);
        let lam = _mm256_set1_pd(lambda);
        let mut groups = indices.chunks_exact(LANES);
        for (group_no, idx) in (&mut groups).enumerate() {
            let g = group(cols, idx);
            let fac = |l: usize| {
                if selected.at(group_no * LANES + l, idx[l]) {
                    1.0 - cols.gamma_mean[idx[l]]
                } else {
                    1.0
                }
            };
            let factor = _mm256_set_pd(fac(3), fac(2), fac(1), fac(0));
            let energy_j = gather_lane(idx, cols.energy_j);
            let capacity = gather_lane(idx, cols.capacity_j);
            let secs = gather_lane(idx, cols.chunk_secs);
            let len = len_vec(&g);
            let mut pos = start_vec(&g);
            let mut prefix = zero;
            let mut total = zero;
            for j in 0..g.max_len {
                let live = live(len, j);
                let p = _mm256_mask_i64gather_pd::<8>(zero, rates, pos, live);
                let d = _mm256_and_pd(secs, live);
                let psi = _mm256_mul_pd(factor, p);
                let step = objective_step4(psi, d, prefix, energy_j, capacity, lam, values);
                total = _mm256_add_pd(total, step);
                // prefix += ψ·d
                prefix = _mm256_add_pd(prefix, _mm256_mul_pd(psi, d));
                pos = _mm256_add_epi64(pos, one_i);
            }
            out.extend_from_slice(&to_array(total));
        }
        let tail = groups.remainder();
        let done = indices.len() - tail.len();
        super::scalar::device_objective(cols, tail, selected.skip(done), lambda, curve, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::compact_device;
    use crate::fleet::{DeviceFleet, FleetDevice};
    use crate::objective::device_objective;
    use crate::problem::DeviceRequest;

    /// A deterministic fleet with mixed chunk counts, durations,
    /// batteries, rates, and γ — including rows on the feasibility
    /// boundary.
    fn mixed_fleet() -> DeviceFleet {
        let mut fleet = DeviceFleet::new();
        for d in 0..53 {
            let chunks = 1 + d % 9;
            let rates: Vec<f64> = (0..chunks).map(|c| 0.6 + 0.07 * ((c + d) % 11) as f64).collect();
            let energy = 40.0 * (d % 17) as f64;
            let request = DeviceRequest::new(
                rates,
                5.0 + (d % 3) as f64,
                energy,
                55_440.0,
                0.05 + 0.009 * (d % 23) as f64,
                1.0,
                0.1,
            );
            fleet.push(FleetDevice::from_request(request));
        }
        fleet
    }

    fn both_paths() -> Vec<KernelPath> {
        let mut paths = vec![KernelPath::Scalar];
        if detected_path() == KernelPath::Avx2 {
            paths.push(KernelPath::Avx2);
        }
        paths
    }

    #[test]
    fn feasibility_matches_per_row() {
        let fleet = mixed_fleet();
        let indices: Vec<usize> = (0..fleet.len()).collect();
        let mut out = Vec::new();
        transform_feasible_batch(&fleet.columns(), &indices, &mut out);
        for &i in &indices {
            let expected = compact_device(&fleet.device_request(i)).transform_feasible;
            assert_eq!(out[i], expected, "row {i}");
        }
    }

    #[test]
    fn savings_match_per_row_bit_for_bit() {
        let fleet = mixed_fleet();
        let cols = fleet.columns();
        let indices: Vec<usize> = (0..fleet.len()).rev().collect();
        let mut feasible = Vec::new();
        let mut savings = Vec::new();
        transform_savings_batch(&cols, &indices, &mut feasible, &mut savings);
        for (slot, &i) in indices.iter().enumerate() {
            let request = fleet.device_request(i);
            assert_eq!(feasible[slot], compact_device(&request).transform_feasible);
            assert_eq!(savings[slot].to_bits(), request.saving_j().to_bits(), "row {i}");
        }
    }

    #[test]
    fn objective_matches_per_row_bit_for_bit_on_both_paths() {
        let fleet = mixed_fleet();
        let cols = fleet.columns();
        let curve = AnxietyCurve::paper_shape();
        let indices: Vec<usize> = (0..fleet.len()).collect();
        let selected: Vec<bool> = (0..fleet.len()).map(|i| i % 3 != 1).collect();
        for path in both_paths() {
            for select in [Select::Uniform(true), Select::Uniform(false), Select::PerRow(&selected)]
            {
                let mut out = Vec::new();
                device_objective_batch_with(path, &cols, &indices, select, 1.7, &curve, &mut out);
                for &i in &indices {
                    let x = select.at(i, i);
                    let expected = device_objective(&fleet.device_request(i), x, 1.7, &curve);
                    assert_eq!(out[i].to_bits(), expected.to_bits(), "row {i} on {path:?}");
                }
            }
        }
    }

    #[test]
    fn positional_selection_follows_the_index_list_on_both_paths() {
        // A non-identity, odd-length index list: every vector group and
        // the scalar tail must read decision `k` for `indices[k]`.
        let fleet = mixed_fleet();
        let cols = fleet.columns();
        let curve = AnxietyCurve::paper_shape();
        let indices: Vec<usize> = (0..fleet.len()).rev().step_by(2).collect();
        let selected: Vec<bool> = (0..indices.len()).map(|k| k % 3 != 1).collect();
        for path in both_paths() {
            let mut out = Vec::new();
            let select = Select::PerPosition(&selected);
            device_objective_batch_with(path, &cols, &indices, select, 1.7, &curve, &mut out);
            for (k, &i) in indices.iter().enumerate() {
                let expected =
                    device_objective(&fleet.device_request(i), selected[k], 1.7, &curve);
                assert_eq!(out[k].to_bits(), expected.to_bits(), "position {k} on {path:?}");
            }
        }
    }

    #[test]
    fn problem_columns_match_fleet_columns() {
        let fleet = mixed_fleet();
        let indices: Vec<usize> = (0..fleet.len()).collect();
        let problem =
            fleet.subproblem(&indices, 10.0, 10.0, 1.0, &AnxietyCurve::paper_shape());
        let mut direct = Vec::new();
        transform_feasible_batch(&fleet.columns(), &indices, &mut direct);
        let via_loader = with_problem_columns(&problem, |cols| {
            let mut out = Vec::new();
            transform_feasible_batch(&cols, &indices, &mut out);
            out
        });
        assert_eq!(direct, via_loader);
    }

    #[test]
    fn forced_path_round_trips() {
        set_forced_path(Some(KernelPath::Scalar));
        assert_eq!(active_path(), KernelPath::Scalar);
        set_forced_path(None);
        // Default resolution honors detection (modulo env overrides).
        if std::env::var("LPVS_KERNELS").is_err() {
            assert_eq!(active_path(), detected_path());
        }
    }

    #[test]
    fn path_names_are_stable() {
        assert_eq!(KernelPath::Avx2.name(), "avx2");
        assert_eq!(KernelPath::Scalar.name(), "scalar");
    }
}
