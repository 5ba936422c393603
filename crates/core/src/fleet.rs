//! Columnar device-fleet store for production-scale scheduling.
//!
//! [`SlotProblem`] is a Vec-of-structs: ideal for a single cluster of a
//! few hundred devices, wasteful for a provider-scale fleet where the
//! orchestration layer repeatedly partitions, filters, and scans
//! per-device scalars (battery level, γ posterior, resource costs)
//! without ever touching the per-chunk arrays. [`DeviceFleet`] stores
//! the same information as parallel columns — one `Vec` per field, with
//! the per-chunk rates/durations flattened behind an offsets array — so
//! that:
//!
//! * scalar scans (anxiety ranking, feasibility filters, partition
//!   hashing) are cache-linear and never drag chunk data through the
//!   cache;
//! * a shard is a [`SlotView`] — the fleet's columns plus the shard's
//!   row list and capacities, borrowed, `Copy` — and that view is the
//!   *only* thing the solve path reads: the scheduler, both Phase-1
//!   solvers, Phase-2 and the eq.-13 accounting run on it without ever
//!   materializing a row;
//! * per-device rows round-trip to [`DeviceRequest`] bit-exactly, so the
//!   row-taking entry points (which load a [`SlotProblem`] into a
//!   thread-local fleet through the one rows→columns loader,
//!   [`DeviceFleet::rebuild_from_problem`]) decide bit-identically to
//!   the fleet entry.
//!
//! Beyond the `SlotProblem` fields, the fleet carries the columns the
//! orchestration layer needs and the slot problem never did: the γ
//! *posterior spread* (from `lpvs_survey::gamma::GammaEstimator`), the
//! panel kind, and connectivity (disconnected devices stay in the fleet
//! so indices remain stable, but are never scheduled).
//!
//! ## Dirty bits and epochs
//!
//! Between 5-minute slots most devices barely change, so the fleet
//! tracks a per-device **dirty bit**: set whenever a mutator changes a
//! row's battery, γ posterior, display, or connectivity, and cleared
//! *en masse* by [`DeviceFleet::clear_dirty`], which also bumps the
//! fleet's **epoch** counter. The set of dirty rows at any instant is
//! the [`DirtyFrontier`] — the delta a slot scheduler needs to re-solve
//! while reusing the previous decision for clean rows. Dirty state is
//! *advisory* (it never affects row values, equality, or the binary
//! codec — a decoded or freshly built fleet is all-dirty) but its
//! contract is load-bearing for delta solving: a clean bit promises the
//! row is bit-identical to what it was when the bit was last cleared.

use crate::accounting::RowAccounting;
use crate::kernels::FleetColumns;
use crate::problem::{safe_capacity, DeviceRequest, SlotProblem};
use lpvs_display::spec::DisplayKind;
use lpvs_survey::curve::AnxietyCurve;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::ops::Range;

/// One fleet row in struct form — the insertion/extraction format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetDevice {
    /// The slot request (chunk rates, energy, γ mean, resource costs).
    pub request: DeviceRequest,
    /// Panel technology (drives the transform family downstream).
    pub display: DisplayKind,
    /// Posterior standard deviation of the γ estimate (0 when the
    /// estimate is treated as exact).
    pub gamma_std: f64,
    /// Whether the device is currently reachable. Disconnected devices
    /// keep their row (stable indices) but must not be selected.
    pub connected: bool,
}

impl FleetDevice {
    /// A plain row: LCD panel, exact γ, connected.
    pub fn from_request(request: DeviceRequest) -> Self {
        Self { request, display: DisplayKind::Lcd, gamma_std: 0.0, connected: true }
    }
}

/// Columnar store of per-device slot state for an entire fleet.
///
/// Parallel arrays, one per field; per-chunk data is flattened with an
/// offsets array (`chunk_offsets[i]..chunk_offsets[i+1]` indexes device
/// `i`'s chunks). All rows are validated on insertion, so every
/// accessor may assume [`DeviceRequest::is_valid`] invariants.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DeviceFleet {
    /// Chunk-range offsets: `n + 1` entries, `chunk_offsets[0] == 0`.
    chunk_offsets: Vec<usize>,
    /// Flattened per-chunk power rates `p(κ)` (W), all devices.
    power_rates_w: Vec<f64>,
    /// Flattened per-chunk durations Δ_κ (s), all devices.
    chunk_secs: Vec<f64>,
    /// Reported remaining energy `e(1)` (J).
    energy_j: Vec<f64>,
    /// Battery capacity (J).
    capacity_j: Vec<f64>,
    /// γ posterior mean.
    gamma_mean: Vec<f64>,
    /// γ posterior standard deviation.
    gamma_std: Vec<f64>,
    /// Transform compute cost `g` (edge compute units).
    compute_cost: Vec<f64>,
    /// Transform storage cost `h` (GB).
    storage_cost_gb: Vec<f64>,
    /// Panel technology.
    display: Vec<DisplayKind>,
    /// Connectivity flag.
    connected: Vec<bool>,
    /// Per-device dirty bit: the row changed since the last
    /// [`clear_dirty`](Self::clear_dirty). Advisory — excluded from
    /// equality and the binary codec. New rows are born dirty.
    dirty: Vec<bool>,
    /// Monotone generation counter, bumped by each
    /// [`clear_dirty`](Self::clear_dirty). Lets consumers that copied
    /// a [`DirtyFrontier`] detect staleness.
    epoch: u64,
}

/// Telemetry equality: two fleets are equal when every *row* is equal.
/// Dirty bits and the epoch are bookkeeping about *how* the fleet got
/// here, not *what* it holds — a decoded fleet (all-dirty) still
/// compares equal to the fleet it was encoded from.
impl PartialEq for DeviceFleet {
    fn eq(&self, other: &Self) -> bool {
        self.chunk_offsets == other.chunk_offsets
            && self.power_rates_w == other.power_rates_w
            && self.chunk_secs == other.chunk_secs
            && self.energy_j == other.energy_j
            && self.capacity_j == other.capacity_j
            && self.gamma_mean == other.gamma_mean
            && self.gamma_std == other.gamma_std
            && self.compute_cost == other.compute_cost
            && self.storage_cost_gb == other.storage_cost_gb
            && self.display == other.display
            && self.connected == other.connected
    }
}

/// The set of dirty rows of a fleet at one instant, captured together
/// with the epoch it was read at. `indices` are ascending global fleet
/// indices; `total` is the fleet size, so consumers can reason about
/// the dirty *fraction* without holding the fleet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirtyFrontier {
    /// Epoch the frontier was captured at (the fleet's epoch *before*
    /// the next [`DeviceFleet::clear_dirty`]).
    pub epoch: u64,
    /// Ascending fleet indices of every dirty row.
    pub indices: Vec<usize>,
    /// Fleet size at capture time.
    pub total: usize,
}

impl DirtyFrontier {
    /// Number of dirty rows.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when no row is dirty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Dirty rows as a fraction of the fleet (0 for an empty fleet).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.indices.len() as f64 / self.total as f64
        }
    }
}

impl DeviceFleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Self { chunk_offsets: vec![0], ..Self::default() }
    }

    /// An empty fleet with row capacity reserved for `devices` rows of
    /// `chunks_hint` chunks each.
    pub fn with_capacity(devices: usize, chunks_hint: usize) -> Self {
        let mut chunk_offsets = Vec::with_capacity(devices + 1);
        chunk_offsets.push(0);
        Self {
            chunk_offsets,
            power_rates_w: Vec::with_capacity(devices * chunks_hint),
            chunk_secs: Vec::with_capacity(devices * chunks_hint),
            energy_j: Vec::with_capacity(devices),
            capacity_j: Vec::with_capacity(devices),
            gamma_mean: Vec::with_capacity(devices),
            gamma_std: Vec::with_capacity(devices),
            compute_cost: Vec::with_capacity(devices),
            storage_cost_gb: Vec::with_capacity(devices),
            display: Vec::with_capacity(devices),
            connected: Vec::with_capacity(devices),
            dirty: Vec::with_capacity(devices),
            epoch: 0,
        }
    }

    /// Number of devices in the fleet.
    pub fn len(&self) -> usize {
        self.chunk_offsets.len() - 1
    }

    /// True when the fleet holds no devices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a device row, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if the request fails [`DeviceRequest::is_valid`] or the
    /// γ spread is not a finite nonnegative number.
    pub fn push(&mut self, device: FleetDevice) -> usize {
        assert!(device.request.is_valid(), "fleet rows must carry valid telemetry");
        assert!(
            device.gamma_std.is_finite() && device.gamma_std >= 0.0,
            "gamma spread must be a finite nonnegative number"
        );
        self.push_row(&device.request, device.display, device.gamma_std, device.connected)
    }

    /// Appends a bare request as an LCD, exact-γ, connected row.
    pub fn push_request(&mut self, request: DeviceRequest) -> usize {
        self.push(FleetDevice::from_request(request))
    }

    /// Copies one already-validated row into the columns — the single
    /// place in the workspace where a [`DeviceRequest`] becomes columns.
    fn push_row(
        &mut self,
        request: &DeviceRequest,
        display: DisplayKind,
        gamma_std: f64,
        connected: bool,
    ) -> usize {
        self.power_rates_w.extend_from_slice(&request.power_rates_w);
        self.chunk_secs.extend_from_slice(&request.chunk_secs);
        self.chunk_offsets.push(self.power_rates_w.len());
        self.energy_j.push(request.energy_j);
        self.capacity_j.push(request.capacity_j);
        self.gamma_mean.push(request.gamma);
        self.gamma_std.push(gamma_std);
        self.compute_cost.push(request.compute_cost);
        self.storage_cost_gb.push(request.storage_cost_gb);
        self.display.push(display);
        self.connected.push(connected);
        self.dirty.push(true);
        self.len() - 1
    }

    /// Columnarizes an existing slot problem (exact-γ, LCD rows) — see
    /// [`rebuild_from_problem`](Self::rebuild_from_problem) for how
    /// invalid telemetry is stored. The capacities/λ/curve of the
    /// problem are **not** stored — a fleet is device state only;
    /// capacities belong to the edge servers that schedule it.
    pub fn from_problem(problem: &SlotProblem) -> Self {
        let chunks_hint = problem.requests.first().map_or(0, DeviceRequest::num_chunks);
        let mut fleet = Self::with_capacity(problem.len(), chunks_hint);
        fleet.rebuild_from_problem(problem);
        fleet
    }

    /// Clears every row while keeping the column allocations, so the
    /// buffer can be refilled for the next slot without reallocating —
    /// the double-buffered slot runtime recycles fleets this way.
    pub fn clear(&mut self) {
        self.chunk_offsets.clear();
        self.chunk_offsets.push(0);
        self.power_rates_w.clear();
        self.chunk_secs.clear();
        self.energy_j.clear();
        self.capacity_j.clear();
        self.gamma_mean.clear();
        self.gamma_std.clear();
        self.compute_cost.clear();
        self.storage_cost_gb.clear();
        self.display.clear();
        self.connected.clear();
        self.dirty.clear();
    }

    /// Refills this fleet in place from a slot problem, reusing the
    /// column allocations of the previous slot — the one rows→columns
    /// loader. It never panics, whatever the telemetry: a request that
    /// fails [`DeviceRequest::is_valid`] is stored as the inert
    /// placeholder [`SlotProblem::sanitize`] would substitute (zero
    /// power, zero saving, zero cost) and marked **disconnected**, so
    /// indices stay aligned with the problem while the row can never be
    /// selected; every other row is stored bit-exactly, connected.
    pub fn rebuild_from_problem(&mut self, problem: &SlotProblem) {
        let _span = lpvs_obs::span!("sched.sanitize");
        self.clear();
        let inert = DeviceRequest::inert();
        for request in &problem.requests {
            let valid = request.is_valid();
            self.push_row(if valid { request } else { &inert }, DisplayKind::Lcd, 0.0, valid);
        }
    }

    /// Materializes row `i` back into a [`DeviceRequest`]. Exact: every
    /// float is copied, never recomputed, so a round-trip through the
    /// fleet is bit-identical.
    pub fn device_request(&self, i: usize) -> DeviceRequest {
        let chunks = self.chunk_range(i);
        DeviceRequest::from_telemetry(
            self.power_rates_w[chunks.clone()].to_vec(),
            self.chunk_secs[chunks].to_vec(),
            self.energy_j[i],
            self.capacity_j[i],
            self.gamma_mean[i],
            self.compute_cost[i],
            self.storage_cost_gb[i],
        )
    }

    /// Materializes row `i` in full struct form.
    pub fn device(&self, i: usize) -> FleetDevice {
        FleetDevice {
            request: self.device_request(i),
            display: self.display[i],
            gamma_std: self.gamma_std[i],
            connected: self.connected[i],
        }
    }

    /// The slot problem of one shard as the solve path reads it: this
    /// fleet's columns, the shard's `rows` (global fleet indices, in
    /// shard order — any subset, any order), the shard server's two
    /// capacities, λ and the curve. Nothing is copied. Non-finite or
    /// negative capacities collapse to zero and a non-finite or
    /// negative λ to zero, by the rule of [`SlotProblem::sanitize`], so
    /// every view is solver-safe by construction.
    ///
    /// # Panics
    ///
    /// Panics if any row is out of bounds.
    pub fn slot_view<'a>(
        &'a self,
        rows: &'a [usize],
        compute_capacity: f64,
        storage_capacity_gb: f64,
        lambda: f64,
        curve: &'a AnxietyCurve,
    ) -> SlotView<'a> {
        assert!(rows.iter().all(|&i| i < self.len()), "view row exceeds fleet");
        SlotView {
            fleet: self,
            rows,
            compute_capacity: safe_capacity(compute_capacity),
            storage_capacity_gb: safe_capacity(storage_capacity_gb),
            lambda: safe_capacity(lambda),
            curve,
        }
    }

    /// Materializes an index list as a [`SlotProblem`], rows in the
    /// order given. Off the solve path (which reads a
    /// [`slot_view`](Self::slot_view) instead): this is for the row
    /// oracles, reports and tests.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subproblem(
        &self,
        indices: &[usize],
        compute_capacity: f64,
        storage_capacity_gb: f64,
        lambda: f64,
        curve: &AnxietyCurve,
    ) -> SlotProblem {
        let mut problem =
            SlotProblem::new(compute_capacity, storage_capacity_gb, lambda, curve.clone());
        for &i in indices {
            problem.push(self.device_request(i));
        }
        problem
    }

    /// Copies the listed rows into a new fleet, in the order given.
    /// Every column value is copied
    /// bit-exactly, never recomputed, and no validation is re-run, so
    /// a slice of a sanitized fleet reproduces its rows verbatim.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn slice_rows(&self, indices: &[usize]) -> DeviceFleet {
        // Reserve from the summed chunk ranges: a first-index hint
        // under-reserves for mixed-length shards and forces regrows
        // mid-copy.
        let total_chunks: usize = indices.iter().map(|&i| self.num_chunks(i)).sum();
        let mut out = Self::with_capacity(indices.len(), 0);
        out.power_rates_w.reserve(total_chunks);
        out.chunk_secs.reserve(total_chunks);
        for &i in indices {
            let chunks = self.chunk_range(i);
            out.power_rates_w.extend_from_slice(&self.power_rates_w[chunks.clone()]);
            out.chunk_secs.extend_from_slice(&self.chunk_secs[chunks]);
            out.chunk_offsets.push(out.power_rates_w.len());
            out.energy_j.push(self.energy_j[i]);
            out.capacity_j.push(self.capacity_j[i]);
            out.gamma_mean.push(self.gamma_mean[i]);
            out.gamma_std.push(self.gamma_std[i]);
            out.compute_cost.push(self.compute_cost[i]);
            out.storage_cost_gb.push(self.storage_cost_gb[i]);
            out.display.push(self.display[i]);
            out.connected.push(self.connected[i]);
            out.dirty.push(true);
        }
        out
    }

    /// Appends every column to a checkpoint payload, bit-exactly
    /// (floats travel as raw IEEE-754 bits). The inverse is
    /// [`decode`](Self::decode); `lpvs-runtime` wraps both in its
    /// versioned, checksummed snapshot container.
    pub fn encode(&self, w: &mut lpvs_codec::Writer) {
        w.put_usizes(&self.chunk_offsets);
        w.put_f64s(&self.power_rates_w);
        w.put_f64s(&self.chunk_secs);
        w.put_f64s(&self.energy_j);
        w.put_f64s(&self.capacity_j);
        w.put_f64s(&self.gamma_mean);
        w.put_f64s(&self.gamma_std);
        w.put_f64s(&self.compute_cost);
        w.put_f64s(&self.storage_cost_gb);
        w.put_usize(self.display.len());
        for &d in &self.display {
            w.put_u8(match d {
                DisplayKind::Lcd => 0,
                DisplayKind::Oled => 1,
            });
        }
        w.put_bools(&self.connected);
    }

    /// Decodes a fleet encoded by [`encode`](Self::encode). Rows are
    /// reconstructed column-for-column without re-running insertion
    /// validation — a decoded fleet is bit-identical to the encoded
    /// one, including rows a sanitizer had already marked disconnected.
    /// Structural invariants (offset monotonicity, column lengths) are
    /// still enforced so corrupt bytes can never build a fleet whose
    /// accessors would panic.
    ///
    /// # Errors
    ///
    /// [`lpvs_codec::CodecError::Truncated`] on short input;
    /// [`lpvs_codec::CodecError::Malformed`] on inconsistent column
    /// lengths, non-monotonic chunk offsets, or an unknown display tag.
    pub fn decode(r: &mut lpvs_codec::Reader<'_>) -> Result<DeviceFleet, lpvs_codec::CodecError> {
        use lpvs_codec::CodecError;
        let chunk_offsets = r.usizes()?;
        let power_rates_w = r.f64s()?;
        let chunk_secs = r.f64s()?;
        let energy_j = r.f64s()?;
        let capacity_j = r.f64s()?;
        let gamma_mean = r.f64s()?;
        let gamma_std = r.f64s()?;
        let compute_cost = r.f64s()?;
        let storage_cost_gb = r.f64s()?;
        let display_len = r.usize_()?;
        if display_len > r.remaining() {
            return Err(CodecError::Truncated);
        }
        let mut display = Vec::with_capacity(display_len);
        for _ in 0..display_len {
            display.push(match r.u8()? {
                0 => DisplayKind::Lcd,
                1 => DisplayKind::Oled,
                _ => return Err(CodecError::Malformed("display kind tag")),
            });
        }
        let connected = r.bools()?;

        let n = match chunk_offsets.len().checked_sub(1) {
            Some(n) if chunk_offsets[0] == 0 => n,
            _ => return Err(CodecError::Malformed("chunk offsets")),
        };
        if chunk_offsets.windows(2).any(|w| w[0] > w[1])
            || chunk_offsets[n] != power_rates_w.len()
        {
            return Err(CodecError::Malformed("chunk offsets"));
        }
        if chunk_secs.len() != power_rates_w.len() {
            return Err(CodecError::Malformed("chunk column lengths"));
        }
        let scalar_columns = [
            energy_j.len(),
            capacity_j.len(),
            gamma_mean.len(),
            gamma_std.len(),
            compute_cost.len(),
            storage_cost_gb.len(),
            display.len(),
            connected.len(),
        ];
        if scalar_columns.iter().any(|&len| len != n) {
            return Err(CodecError::Malformed("scalar column lengths"));
        }
        Ok(DeviceFleet {
            // Dirty state is not persisted: a decoded fleet is
            // all-dirty at epoch 0, so no delta consumer can reuse
            // warm state across a codec boundary by accident.
            dirty: vec![true; n],
            epoch: 0,
            chunk_offsets,
            power_rates_w,
            chunk_secs,
            energy_j,
            capacity_j,
            gamma_mean,
            gamma_std,
            compute_cost,
            storage_cost_gb,
            display,
            connected,
        })
    }

    fn chunk_range(&self, i: usize) -> Range<usize> {
        self.chunk_offsets[i]..self.chunk_offsets[i + 1]
    }

    /// Per-chunk `(rates, durations)` slices of row `i`.
    pub fn chunks(&self, i: usize) -> (&[f64], &[f64]) {
        let r = self.chunk_range(i);
        (&self.power_rates_w[r.clone()], &self.chunk_secs[r])
    }

    /// Number of chunks `K` of row `i`.
    pub fn num_chunks(&self, i: usize) -> usize {
        self.chunk_range(i).len()
    }

    /// Reported remaining energy (J) of row `i`.
    pub fn energy_j(&self, i: usize) -> f64 {
        self.energy_j[i]
    }

    /// Battery capacity (J) of row `i`.
    pub fn capacity_j(&self, i: usize) -> f64 {
        self.capacity_j[i]
    }

    /// γ posterior mean of row `i`.
    pub fn gamma_mean(&self, i: usize) -> f64 {
        self.gamma_mean[i]
    }

    /// γ posterior standard deviation of row `i`.
    pub fn gamma_std(&self, i: usize) -> f64 {
        self.gamma_std[i]
    }

    /// Transform compute cost (units) of row `i`.
    pub fn compute_cost(&self, i: usize) -> f64 {
        self.compute_cost[i]
    }

    /// Transform storage cost (GB) of row `i`.
    pub fn storage_cost_gb(&self, i: usize) -> f64 {
        self.storage_cost_gb[i]
    }

    /// Panel technology of row `i`.
    pub fn display(&self, i: usize) -> DisplayKind {
        self.display[i]
    }

    /// Whether row `i` is currently reachable.
    pub fn connected(&self, i: usize) -> bool {
        self.connected[i]
    }

    /// Marks row `i` connected/disconnected. A change dirties the row.
    pub fn set_connected(&mut self, i: usize, connected: bool) {
        if self.connected[i] != connected {
            self.connected[i] = connected;
            self.dirty[i] = true;
        }
    }

    /// Updates row `i`'s reported remaining energy (J). A bit-level
    /// change dirties the row.
    ///
    /// # Panics
    ///
    /// Panics if `energy_j` is not a finite nonnegative number.
    pub fn set_energy_j(&mut self, i: usize, energy_j: f64) {
        assert!(
            energy_j.is_finite() && energy_j >= 0.0,
            "energy must be a finite nonnegative number"
        );
        if self.energy_j[i].to_bits() != energy_j.to_bits() {
            self.energy_j[i] = energy_j;
            self.dirty[i] = true;
        }
    }

    /// Updates row `i`'s γ posterior `(mean, std)`. A bit-level change
    /// to either moment dirties the row.
    ///
    /// # Panics
    ///
    /// Panics if the mean is outside `[0, 1)` or the spread is not a
    /// finite nonnegative number — the same invariants insertion
    /// enforces.
    pub fn set_gamma(&mut self, i: usize, mean: f64, std: f64) {
        assert!((0.0..1.0).contains(&mean), "gamma mean must lie in [0, 1)");
        assert!(
            std.is_finite() && std >= 0.0,
            "gamma spread must be a finite nonnegative number"
        );
        if self.gamma_mean[i].to_bits() != mean.to_bits()
            || self.gamma_std[i].to_bits() != std.to_bits()
        {
            self.gamma_mean[i] = mean;
            self.gamma_std[i] = std;
            self.dirty[i] = true;
        }
    }

    /// Updates row `i`'s panel technology. A change dirties the row.
    pub fn set_display(&mut self, i: usize, display: DisplayKind) {
        if self.display[i] != display {
            self.display[i] = display;
            self.dirty[i] = true;
        }
    }

    /// Whether row `i` changed since the last
    /// [`clear_dirty`](Self::clear_dirty).
    pub fn is_dirty(&self, i: usize) -> bool {
        self.dirty[i]
    }

    /// Explicitly dirties row `i` — for mutations made outside the
    /// tracking mutators (a caller that patched a row via
    /// interior knowledge must tell the fleet).
    pub fn mark_dirty(&mut self, i: usize) {
        self.dirty[i] = true;
    }

    /// Dirties every row — the forced cold-solve reset.
    pub fn mark_all_dirty(&mut self) {
        self.dirty.iter_mut().for_each(|d| *d = true);
    }

    /// Clears every dirty bit and bumps the epoch. Call exactly once
    /// per consumed frontier (the gather step, after
    /// [`dirty_frontier`](Self::dirty_frontier) captured the delta).
    pub fn clear_dirty(&mut self) {
        self.dirty.iter_mut().for_each(|d| *d = false);
        self.epoch += 1;
    }

    /// The fleet's current epoch (count of
    /// [`clear_dirty`](Self::clear_dirty) calls).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of dirty rows.
    pub fn dirty_count(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// Captures the current [`DirtyFrontier`]: ascending indices of
    /// every dirty row, stamped with the current epoch.
    pub fn dirty_frontier(&self) -> DirtyFrontier {
        DirtyFrontier {
            epoch: self.epoch,
            indices: (0..self.len()).filter(|&i| self.dirty[i]).collect(),
            total: self.len(),
        }
    }

    /// Ships this slot's snapshot — the gather step of a driver that owns
    /// a persistent fleet. Captures the [`DirtyFrontier`], consumes it
    /// ([`clear_dirty`](Self::clear_dirty)) and brings `recycled`, the
    /// buffer shipped last slot, up to date; returns the frontier and
    /// the buffer, equal to `self` in rows, dirty bits and epoch.
    ///
    /// A buffer whose epoch is the frontier's and whose chunk layout (so
    /// also row count) is this fleet's is the snapshot shipped one epoch
    /// ago: by the dirty-bit contract only the frontier's rows can
    /// differ, and only they are copied — every column, chunk range
    /// included, so no setter has to be known here. Anything else (no
    /// buffer, an epoch gap, another layout) is a full `clone_from`.
    pub fn ship_snapshot(&mut self, recycled: Option<DeviceFleet>) -> (DirtyFrontier, DeviceFleet) {
        let frontier = self.dirty_frontier();
        self.clear_dirty();
        let mut buffer = recycled.unwrap_or_default();
        let patched =
            buffer.epoch == frontier.epoch && buffer.chunk_offsets == self.chunk_offsets;
        if patched {
            for &i in &frontier.indices {
                let (rates, secs) = self.chunks(i);
                let chunks = self.chunk_range(i);
                buffer.power_rates_w[chunks.clone()].copy_from_slice(rates);
                buffer.chunk_secs[chunks].copy_from_slice(secs);
                buffer.energy_j[i] = self.energy_j[i];
                buffer.capacity_j[i] = self.capacity_j[i];
                buffer.gamma_mean[i] = self.gamma_mean[i];
                buffer.gamma_std[i] = self.gamma_std[i];
                buffer.compute_cost[i] = self.compute_cost[i];
                buffer.storage_cost_gb[i] = self.storage_cost_gb[i];
                buffer.display[i] = self.display[i];
                buffer.connected[i] = self.connected[i];
            }
            buffer.epoch = self.epoch;
            debug_assert!(
                buffer == *self && buffer.dirty == self.dirty && buffer.epoch == self.epoch,
                "patched snapshot diverged from its source"
            );
        } else {
            buffer.clone_from(self);
        }
        // Rows copied, by path (a no-op unless the recorder is enabled).
        let (path, rows) = if patched { ("patched", frontier.len()) } else { ("full", self.len()) };
        lpvs_obs::add_labeled("fleet_refill_rows_total", &[("path", path)], rows as u64);
        (frontier, buffer)
    }

    /// Battery fraction of row `i`, clamped to `[0, 1]` like
    /// [`DeviceRequest::battery_fraction`].
    pub fn battery_fraction(&self, i: usize) -> f64 {
        (self.energy_j[i] / self.capacity_j[i]).clamp(0.0, 1.0)
    }

    // The two per-row energy accessors below are accounting helpers, not
    // solve-path code: `RowAccounting` takes a selected row's saving term
    // from `saving_j`, and the benchmark package
    // (`crates/bench/src/bin/e2e`) derives `energy_saving` from both.

    /// Untransformed slot energy `Σ p·Δ` (J) of row `i`.
    pub fn untransformed_energy_j(&self, i: usize) -> f64 {
        let (rates, secs) = self.chunks(i);
        rates.iter().zip(secs).map(|(p, d)| p * d).sum()
    }

    /// Energy saved over the slot if row `i` is transformed (J).
    pub fn saving_j(&self, i: usize) -> f64 {
        self.gamma_mean[i] * self.untransformed_energy_j(i)
    }

    /// Zero-copy view of the columns the batch kernels
    /// ([`crate::kernels`]) read. Borrowed — the fleet cannot be
    /// mutated while a batch runs over it.
    pub fn columns(&self) -> FleetColumns<'_> {
        FleetColumns {
            chunk_offsets: &self.chunk_offsets,
            power_rates_w: &self.power_rates_w,
            chunk_secs: &self.chunk_secs,
            energy_j: &self.energy_j,
            capacity_j: &self.capacity_j,
            gamma_mean: &self.gamma_mean,
        }
    }
}

/// One shard's slot problem, borrowed: the fleet (its columns are read
/// in place), the shard's rows, its capacities, λ and the curve — the
/// single argument of the solve path. Built only by [`DeviceFleet::slot_view`], so every row it names
/// passed the fleet's insertion validation and its capacities and λ are
/// finite and nonnegative. Selections over a view are **positional**:
/// entry `k` decides row `rows()[k]`.
///
/// A row the fleet marks disconnected is *rejected*: the resilient
/// scheduler never selects it and counts it in
/// [`ScheduleStats::rejected_devices`](crate::scheduler::ScheduleStats::rejected_devices).
/// That is how the row loader presents telemetry that failed validation,
/// and it enforces the fleet's own contract for unreachable devices.
#[derive(Debug, Clone, Copy)]
pub struct SlotView<'a> {
    fleet: &'a DeviceFleet,
    rows: &'a [usize],
    compute_capacity: f64,
    storage_capacity_gb: f64,
    lambda: f64,
    curve: &'a AnxietyCurve,
}

impl<'a> SlotView<'a> {
    /// Number of devices in the view.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the view spans no devices.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The global fleet rows the view covers, in shard order.
    pub fn rows(&self) -> &'a [usize] {
        self.rows
    }

    /// The fleet the rows index into.
    pub(crate) fn fleet(&self) -> &'a DeviceFleet {
        self.fleet
    }

    /// The fleet columns the rows index into.
    pub(crate) fn columns(&self) -> FleetColumns<'a> {
        self.fleet.columns()
    }

    /// Edge compute capacity `C` (units).
    pub(crate) fn compute_capacity(&self) -> f64 {
        self.compute_capacity
    }

    /// Edge storage capacity `S` (GB).
    pub(crate) fn storage_capacity_gb(&self) -> f64 {
        self.storage_capacity_gb
    }

    /// Regularization λ.
    pub(crate) fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The anxiety curve φ.
    pub(crate) fn curve(&self) -> &'a AnxietyCurve {
        self.curve
    }

    /// `[compute, storage]` cost of the device at `position`.
    pub(crate) fn cost(&self, position: usize) -> [f64; 2] {
        let i = self.rows[position];
        [self.fleet.compute_cost(i), self.fleet.storage_cost_gb(i)]
    }

    /// Battery fraction of the device at `position`, clamped to `[0, 1]`.
    pub(crate) fn battery_fraction(&self, position: usize) -> f64 {
        self.fleet.battery_fraction(self.rows[position])
    }

    /// Whether the device at `position` may be scheduled at all (its
    /// row is connected, i.e. carried valid telemetry).
    pub(crate) fn accepted(&self, position: usize) -> bool {
        self.fleet.connected(self.rows[position])
    }

    /// True if a positional selection respects both capacity rows.
    ///
    /// # Panics
    ///
    /// Panics if `selected.len() != self.len()`.
    pub fn capacity_feasible(&self, selected: &[bool]) -> bool {
        assert_eq!(selected.len(), self.len(), "selection has wrong length");
        let mut g = 0.0;
        let mut h = 0.0;
        for (position, &x) in selected.iter().enumerate() {
            if x {
                let [g_i, h_i] = self.cost(position);
                g += g_i;
                h += h_i;
            }
        }
        g <= self.compute_capacity + 1e-9 && h <= self.storage_capacity_gb + 1e-9
    }

    /// The joint objective (eq. 13) of a positional selection: the
    /// objective half of [`RowAccounting`] with every row evaluated.
    ///
    /// # Panics
    ///
    /// Panics if `selected.len() != self.len()`.
    pub fn objective_value(&self, selected: &[bool]) -> f64 {
        assert_eq!(selected.len(), self.len(), "selection has wrong length");
        RowAccounting::of(*self, selected).fold().0
    }
}

thread_local! {
    /// Where the row-taking entry points stage a [`SlotProblem`]: a
    /// fleet refilled per call (allocations reused, so a steady caller
    /// allocates nothing) and an identity row list that only grows.
    static ROW_STAGE: RefCell<(DeviceFleet, Vec<usize>)> =
        RefCell::new((DeviceFleet::new(), Vec::new()));
}

/// Loads `problem` into this thread's staging fleet — once — and runs
/// `f` over the identity view of it. Every row-taking public function
/// of the crate is this call around the view-taking engine function;
/// none of them holds solve logic of its own.
pub(crate) fn with_problem_view<R>(
    problem: &SlotProblem,
    f: impl FnOnce(SlotView<'_>) -> R,
) -> R {
    ROW_STAGE.with(|stage| {
        let mut stage = stage.borrow_mut();
        let (fleet, identity) = &mut *stage;
        fleet.rebuild_from_problem(problem);
        identity.extend(identity.len()..fleet.len());
        f(fleet.slot_view(
            &identity[..fleet.len()],
            problem.compute_capacity,
            problem.storage_capacity_gb,
            problem.lambda,
            &problem.curve,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn request(seed: u64) -> DeviceRequest {
        let mut rng = StdRng::seed_from_u64(seed);
        let chunks = rng.gen_range(5..40);
        DeviceRequest::new(
            (0..chunks).map(|_| rng.gen_range(0.4..2.5)).collect(),
            (0..chunks).map(|_| rng.gen_range(2.0..12.0)).collect(),
            rng.gen_range(0.0..55_440.0),
            55_440.0,
            rng.gen_range(0.05..0.6),
            rng.gen_range(0.2..2.0),
            rng.gen_range(0.02..0.3),
        )
    }

    fn fleet(n: usize) -> DeviceFleet {
        let mut f = DeviceFleet::new();
        for i in 0..n {
            f.push(FleetDevice {
                request: request(i as u64),
                display: if i % 3 == 0 { DisplayKind::Oled } else { DisplayKind::Lcd },
                gamma_std: 0.01 * (i % 5) as f64,
                connected: i % 7 != 3,
            });
        }
        f
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let f = fleet(20);
        for i in 0..20 {
            let original = request(i as u64);
            let back = f.device_request(i);
            // PartialEq on f64 vectors: bit-for-bit float equality.
            assert_eq!(back, original, "row {i} did not round-trip exactly");
        }
        assert_eq!(f.len(), 20);
        assert!(!f.is_empty());
    }

    #[test]
    fn columnar_scalars_match_struct_accessors() {
        let f = fleet(20);
        for i in 0..20 {
            let r = f.device_request(i);
            assert_eq!(f.saving_j(i), r.saving_j());
            assert_eq!(f.battery_fraction(i), r.battery_fraction());
            assert_eq!(f.untransformed_energy_j(i), r.untransformed_energy_j());
            assert_eq!(f.num_chunks(i), r.num_chunks());
        }
    }

    #[test]
    fn from_problem_round_trips() {
        let curve = AnxietyCurve::paper_shape();
        let mut p = SlotProblem::new(5.0, 2.0, 1.0, curve.clone());
        for i in 0..8 {
            p.push(request(100 + i));
        }
        let f = DeviceFleet::from_problem(&p);
        let all: Vec<usize> = (0..f.len()).collect();
        assert_eq!(f.subproblem(&all, 5.0, 2.0, 1.0, &curve), p);
    }

    #[test]
    fn loader_stores_invalid_rows_inert_and_disconnected() {
        let curve = AnxietyCurve::paper_shape();
        let mut p = SlotProblem::new(5.0, 2.0, 1.0, curve);
        for i in 0..4 {
            p.push(request(200 + i));
        }
        p.requests[1].gamma = f64::NAN;
        p.requests[3].chunk_secs.pop();
        let (clean, valid) = p.sanitize();
        // Refill a fleet that held something else: same rows either way.
        let mut f = fleet(9);
        f.rebuild_from_problem(&p);
        assert_eq!(f, DeviceFleet::from_problem(&p));
        assert_eq!(f.len(), 4);
        for (i, (request, &ok)) in clean.requests.iter().zip(&valid).enumerate() {
            assert_eq!(&f.device_request(i), request, "row {i}");
            assert_eq!(f.connected(i), ok, "row {i}");
        }
    }

    #[test]
    fn slot_views_are_positional_and_clamp_their_bounds() {
        let f = fleet(12);
        let curve = AnxietyCurve::paper_shape();
        let rows = [11, 0, 5];
        let v = f.slot_view(&rows, 2.0, f64::NAN, -1.0, &curve);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v.rows(), &rows);
        assert_eq!(v.cost(0), [f.compute_cost(11), f.storage_cost_gb(11)]);
        assert_eq!(v.battery_fraction(2), f.battery_fraction(5));
        assert_eq!((v.compute_capacity(), v.storage_capacity_gb(), v.lambda()), (2.0, 0.0, 0.0));
        // Row 3 is disconnected in this fixture; it is rejected wherever
        // it sits in the view.
        assert!(!f.slot_view(&[4, 3], 1.0, 1.0, 1.0, &curve).accepted(1));
        assert!(v.accepted(0));
        // The view's accounting is the row oracle's, position for position.
        let p = f.subproblem(&rows, 2.0, 0.0, 0.0, &curve);
        let sel = [true, false, true];
        assert_eq!(v.capacity_feasible(&sel), p.capacity_feasible(&sel));
        assert_eq!(
            v.objective_value(&sel).to_bits(),
            crate::objective::objective_value(&p, &sel).to_bits()
        );
        assert!(f.slot_view(&[], 1.0, 1.0, 1.0, &curve).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds fleet")]
    fn out_of_range_view_rows_rejected() {
        let f = fleet(5);
        let _ = f.slot_view(&[0, 5], 1.0, 1.0, 1.0, &AnxietyCurve::paper_shape());
    }

    #[test]
    fn subproblem_follows_index_order() {
        let f = fleet(12);
        let curve = AnxietyCurve::paper_shape();
        let p = f.subproblem(&[11, 0, 5], 2.0, 1.0, 0.5, &curve);
        assert_eq!(p.len(), 3);
        assert_eq!(p.requests[0], f.device_request(11));
        assert_eq!(p.requests[1], f.device_request(0));
        assert_eq!(p.requests[2], f.device_request(5));
        assert_eq!(p.lambda, 0.5);
    }

    #[test]
    fn extra_columns_are_stored() {
        let f = fleet(10);
        assert_eq!(f.display(0), DisplayKind::Oled);
        assert_eq!(f.display(1), DisplayKind::Lcd);
        assert!(f.connected(0));
        assert!(!f.connected(3));
        assert_eq!(f.gamma_std(4), 0.04);
        let row = f.device(3);
        assert!(!row.connected);
        assert_eq!(row.request, request(3));
        let mut f = f;
        f.set_connected(3, true);
        assert!(f.connected(3));
    }

    #[test]
    #[should_panic(expected = "valid telemetry")]
    fn corrupt_rows_rejected() {
        let mut f = DeviceFleet::new();
        let mut bad = request(0);
        bad.gamma = f64::NAN;
        f.push(FleetDevice::from_request(bad));
    }

    #[test]
    fn codec_round_trips_every_column_bit_exactly() {
        for n in [0usize, 1, 13] {
            let f = fleet(n);
            let mut w = lpvs_codec::Writer::new();
            f.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = lpvs_codec::Reader::new(&bytes);
            let decoded = DeviceFleet::decode(&mut r).expect("decode");
            r.expect_end().expect("no trailing bytes");
            assert_eq!(decoded, f);
            for i in 0..n {
                assert_eq!(decoded.device(i), f.device(i));
            }
        }
    }

    #[test]
    fn codec_rejects_truncation_and_length_lies() {
        let f = fleet(6);
        let mut w = lpvs_codec::Writer::new();
        f.encode(&mut w);
        let bytes = w.into_bytes();
        for cut in [0, 7, bytes.len() / 2, bytes.len() - 1] {
            let mut r = lpvs_codec::Reader::new(&bytes[..cut]);
            assert!(DeviceFleet::decode(&mut r).is_err(), "cut at {cut} accepted");
        }
        // A fleet whose scalar columns disagree with the offsets table
        // must be rejected even when the framing is intact.
        let mut w = lpvs_codec::Writer::new();
        w.put_usizes(&[0, 2]); // one device, two chunks…
        w.put_f64s(&[1.0, 2.0]);
        w.put_f64s(&[1.0, 2.0]);
        for _ in 0..6 {
            w.put_f64s(&[]); // …but zero-length scalar columns
        }
        w.put_usize(0);
        w.put_bools(&[]);
        let bytes = w.into_bytes();
        let mut r = lpvs_codec::Reader::new(&bytes);
        assert!(matches!(
            DeviceFleet::decode(&mut r),
            Err(lpvs_codec::CodecError::Malformed(_))
        ));
    }

    #[test]
    fn slice_rows_copies_rows_verbatim_in_order() {
        let f = fleet(9);
        let sliced = f.slice_rows(&[7, 0, 3]);
        assert_eq!(sliced.len(), 3);
        for (local, &global) in [7usize, 0, 3].iter().enumerate() {
            assert_eq!(sliced.device(local), f.device(global));
        }
        assert!(f.slice_rows(&[]).is_empty());
    }

    #[test]
    fn rows_are_born_dirty_and_clear_dirty_bumps_epoch() {
        let mut f = fleet(5);
        assert_eq!(f.dirty_count(), 5, "new rows are born dirty");
        assert_eq!(f.epoch(), 0);
        let frontier = f.dirty_frontier();
        assert_eq!(frontier.indices, vec![0, 1, 2, 3, 4]);
        assert_eq!(frontier.epoch, 0);
        assert_eq!(frontier.total, 5);
        f.clear_dirty();
        assert_eq!(f.dirty_count(), 0);
        assert_eq!(f.epoch(), 1);
        assert!(f.dirty_frontier().is_empty());
    }

    #[test]
    fn mutators_dirty_only_on_change() {
        let mut f = fleet(4);
        f.clear_dirty();

        // Bit-identical writes stay clean.
        f.set_energy_j(0, f.energy_j(0));
        f.set_gamma(1, f.gamma_mean(1), f.gamma_std(1));
        f.set_connected(2, f.connected(2));
        f.set_display(3, f.display(3));
        assert_eq!(f.dirty_count(), 0, "no-op mutations must not dirty");

        f.set_energy_j(0, f.energy_j(0) * 0.5);
        assert!(f.is_dirty(0));
        f.set_gamma(1, (f.gamma_mean(1) * 0.5).min(0.99), f.gamma_std(1));
        assert!(f.is_dirty(1));
        f.set_connected(2, !f.connected(2));
        assert!(f.is_dirty(2));
        let flipped = match f.display(3) {
            DisplayKind::Oled => DisplayKind::Lcd,
            DisplayKind::Lcd => DisplayKind::Oled,
        };
        f.set_display(3, flipped);
        assert!(f.is_dirty(3));
        assert_eq!(f.dirty_frontier().indices, vec![0, 1, 2, 3]);

        // Epoch unchanged until the frontier is consumed.
        assert_eq!(f.epoch(), 1);
        f.clear_dirty();
        assert_eq!(f.epoch(), 2);
        f.mark_dirty(2);
        assert_eq!(f.dirty_frontier().indices, vec![2]);
        f.mark_all_dirty();
        assert_eq!(f.dirty_count(), 4);
    }

    #[test]
    fn equality_and_codec_ignore_dirty_state() {
        let mut a = fleet(6);
        let b = fleet(6);
        a.clear_dirty();
        assert_eq!(a, b, "dirty bits and epoch are advisory");

        a.set_energy_j(3, 123.0);
        let mut w = lpvs_codec::Writer::new();
        a.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = lpvs_codec::Reader::new(&bytes);
        let decoded = DeviceFleet::decode(&mut r).expect("decode");
        // Decoded fleets are conservatively all-dirty at epoch 0: the
        // codec does not persist dirty state.
        assert_eq!(decoded.dirty_count(), decoded.len());
        assert_eq!(decoded.epoch(), 0);
        assert_eq!(decoded, a);
    }
}
