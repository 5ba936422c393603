//! The emulation engine: the slot loop of the paper's Fig. 6.
//!
//! Each slot runs the three building blocks in order:
//!
//! 1. **information gathering** — per-device chunk windows are
//!    synthesized from each viewer's channel genre, power rates are
//!    estimated with the display models, devices report energy;
//! 2. **request scheduling** — the configured policy (LPVS or a
//!    baseline) picks the transform subset under the edge capacities;
//! 3. **video transforming + playback** — selected streams pass
//!    through the transform encoder, devices play and drain their
//!    batteries, realized savings feed the Bayesian γ estimators, and
//!    users abandon once their survey-derived give-up threshold is hit.
//!
//! Determinism: everything derives from `EmulatorConfig::seed`, and the
//! policy is *not* part of the seed, so paired runs (e.g. LPVS vs.
//! `NoTransform`) see identical populations and content.
//!
//! Quality consent: devices reporting ≤ 40 % battery are encoded with
//! the *aggressive* quality budget — a user worried about their battery
//! has opted into deeper savings (this is the premise of the paper's
//! Fig. 9 cohort), while comfortable users keep the conservative
//! default.

use crate::faults::{FaultConfig, FaultPlan, GammaCorruption};
use crate::gather::gather_problem;
use crate::metrics::{EmulationReport, SlotRecord};
use lpvs_bayes::{GammaEstimator, GAMMA_PRIOR_MEAN};
use lpvs_core::baseline::{Policy, SelectionPolicy};
use lpvs_core::problem::SlotProblem;
use lpvs_core::scheduler::{Degradation, LpvsScheduler};
use lpvs_display::quality::QualityBudget;
use lpvs_display::stats::FrameStats;
use lpvs_edge::cache::PrefetchPolicy;
use lpvs_edge::cluster::{ClusterGenerator, VirtualCluster};
use lpvs_edge::device::Device;
use lpvs_edge::fleet::{FleetConfig, FleetScheduler, Partitioner};
use lpvs_edge::server::EdgeServer;
use lpvs_edge::slot::SlotBudget;
use lpvs_media::content::{ContentModel, Genre};
use lpvs_media::encoder::TransformEncoder;
use lpvs_media::ladder::BitrateLadder;
use lpvs_survey::curve::AnxietyCurve;
use lpvs_survey::extraction::extract_curve;
use lpvs_survey::generator::SurveyGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// How the scheduler obtains its per-device power-reduction ratios —
/// the knob of the `ablation_bayes` study (paper Remark 2 / §V-D).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GammaMode {
    /// Online Bayesian learning (the paper's mechanism).
    Learned,
    /// A fixed value for every device (e.g. the prior mean 0.31).
    Fixed(f64),
    /// Clairvoyant: measure the true ratio by encoding the upcoming
    /// window during gathering (expensive, upper-bounds the others).
    Oracle,
}

/// Emulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmulatorConfig {
    /// Virtual-cluster size (the paper sweeps 50–500).
    pub devices: usize,
    /// Emulated 5-minute slots.
    pub slots: usize,
    /// Master seed: population, content, thresholds.
    pub seed: u64,
    /// Regularization λ (paper Remark 3).
    pub lambda: f64,
    /// Edge capacity in concurrent 720p transforms (100 = AirFrame).
    pub server_streams: usize,
    /// Chunk duration in seconds.
    pub chunk_secs: f64,
    /// Chunks per 5-minute slot.
    pub chunks_per_slot: usize,
    /// Transform quality budget.
    pub quality: QualityBudget,
    /// Battery capacity in Wh (15.4 = a typical phone; Fig. 9 uses a
    /// smaller effective video budget to land on the paper's TPV scale).
    pub battery_capacity_wh: f64,
    /// γ estimation mode.
    pub gamma_mode: GammaMode,
    /// When true, batteries are drained by display power only — the
    /// paper's implicit energy model where γ applies to the entire
    /// power rate. The default (false) also charges the radio/CPU
    /// floor of the Fig. 1 component budget.
    pub display_only_drain: bool,
    /// One-slot-ahead scheduling (paper §VI-B.2): the decision applied
    /// in slot `t` was computed from the state reported at the start of
    /// slot `t − 1`. Off by default (decisions apply immediately).
    pub one_slot_ahead: bool,
    /// CDN→edge prefetch policy bounding each device's available chunk
    /// window `K_m` (paper eq. 1, Fig. 4).
    pub prefetch: PrefetchPolicy,
    /// Fault-injection profile (defaults to no faults). The fault RNG
    /// is salted independently of `seed`, so turning faults on does
    /// not reshuffle the population or the content trace.
    pub faults: FaultConfig,
    /// Drive the slot loop through the staged `lpvs-runtime` pipeline —
    /// gather(t+1) ∥ solve(t) ∥ apply(t−1) — instead of the sequential
    /// loop. Pipelining *is* one-slot-ahead scheduling (the overlap is
    /// where the decision lag comes from), so a pipelined run
    /// reproduces a sequential `one_slot_ahead` run bit-for-bit.
    /// Baseline policies ignore the flag: they bypass the resilient
    /// scheduler entirely and keep the sequential loop.
    pub pipelined: bool,
    /// Edge shards serving the cluster. With the default of 1 the
    /// monolithic scheduling path runs unchanged; with N > 1 the slot
    /// is scheduled by the [`FleetScheduler`] — the server's capacity
    /// split evenly across N shards, each running the full resilient
    /// pipeline in parallel, followed by the bounded cross-shard
    /// rebalance.
    pub num_edges: usize,
}

impl Default for EmulatorConfig {
    fn default() -> Self {
        Self {
            devices: 50,
            slots: 24,
            seed: 42,
            lambda: 1.0,
            server_streams: 100,
            chunk_secs: 10.0,
            chunks_per_slot: 30,
            quality: QualityBudget::default(),
            battery_capacity_wh: 15.4,
            gamma_mode: GammaMode::Learned,
            display_only_drain: false,
            one_slot_ahead: false,
            prefetch: PrefetchPolicy::Full,
            faults: FaultConfig::none(),
            pipelined: false,
            num_edges: 1,
        }
    }
}

/// A budget-cut fault retaining less than this fraction of the solve
/// budget models a stall: the decision deadline passes before the
/// solver can run at all, pushing the ladder to its bottom rungs.
const STALL_FRACTION: f64 = 0.10;

/// Battery fraction below which a viewer consents to the aggressive
/// quality budget.
const BATTERY_SAVER_THRESHOLD: f64 = 0.40;

/// Checkpoint/resume options for the pipelined runtime. Lives outside
/// [`EmulatorConfig`] (which stays `Copy` for struct-update sweeps)
/// because it carries a filesystem path; attach it with
/// [`Emulator::with_checkpoints`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSpec {
    /// Directory the checkpoint store lives in.
    pub dir: std::path::PathBuf,
    /// Checkpoint every this many slots.
    pub interval: usize,
    /// Snapshot generations retained per shard.
    pub generations: usize,
    /// Stop the run after this slot completes (a simulated hub crash,
    /// for resume tests).
    pub halt_after: Option<usize>,
    /// Resume from the store's manifest instead of starting at slot 0.
    pub resume: bool,
}

impl CheckpointSpec {
    /// A spec with the runtime's default interval and generation count.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            interval: lpvs_runtime::checkpoint::DEFAULT_INTERVAL,
            generations: lpvs_runtime::checkpoint::DEFAULT_GENERATIONS,
            halt_after: None,
            resume: false,
        }
    }
}

/// The LPVS emulator for one virtual cluster.
pub struct Emulator {
    pub(crate) config: EmulatorConfig,
    pub(crate) policy: Policy,
    pub(crate) cluster: VirtualCluster,
    genres: Vec<Genre>,
    pub(crate) estimators: Vec<GammaEstimator>,
    pub(crate) curve: AnxietyCurve,
    encoder: TransformEncoder,
    saver_encoder: TransformEncoder,
    pub(crate) bitrate_kbps: f64,
    /// Synthetic per-device channel viewer counts (drives
    /// popularity-boosted prefetch).
    pub(crate) channel_viewers: Vec<u32>,
    /// Checkpoint/resume options for the pipelined runtime.
    pub(crate) checkpoints: Option<CheckpointSpec>,
}

impl Emulator {
    /// Builds an emulator: survey cohort → anxiety curve + give-up
    /// thresholds; cluster generator → devices with Gaussian batteries;
    /// genre assignment per viewer.
    ///
    /// # Panics
    ///
    /// Panics if `devices` or `slots` is zero.
    pub fn new(config: EmulatorConfig, policy: Policy) -> Self {
        assert!(config.devices > 0, "need at least one device");
        assert!(config.slots > 0, "need at least one slot");
        assert!(config.num_edges > 0, "need at least one edge shard");
        let cohort = SurveyGenerator::paper_cohort(config.seed).generate();
        let curve = extract_curve(cohort.iter().map(|p| p.charge_level));
        let giveup_pool: Vec<u8> = cohort.iter().map(|p| p.giveup_level).collect();
        let cluster = ClusterGenerator::paper_setup(config.devices, config.seed)
            .with_server_streams(config.server_streams)
            .with_battery_capacity(config.battery_capacity_wh)
            .with_giveup_pool(giveup_pool)
            .generate();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9e37_79b9);
        let genres: Vec<Genre> =
            (0..config.devices).map(|_| ContentModel::sample_genre(&mut rng)).collect();
        let channel_viewers: Vec<u32> = (0..config.devices)
            .map(|_| {
                let u: f64 = rand::Rng::gen_range(&mut rng, 0.001..1.0);
                (8.0 / u.powf(0.9)).min(30_000.0) as u32
            })
            .collect();
        let estimators = vec![GammaEstimator::paper_default(); config.devices];
        Self {
            config,
            policy,
            cluster,
            genres,
            estimators,
            curve,
            encoder: TransformEncoder::new(config.quality),
            saver_encoder: TransformEncoder::new(QualityBudget::aggressive()),
            bitrate_kbps: BitrateLadder::default().bitrate_kbps(
                lpvs_display::spec::Resolution::HD,
            ),
            channel_viewers,
            checkpoints: None,
        }
    }

    /// Attaches checkpoint/resume options for the pipelined runtime.
    /// Ignored by sequential and baseline runs.
    pub fn with_checkpoints(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoints = Some(spec);
        self
    }

    /// Encoder for a device: aggressive once the user is in
    /// battery-saver territory, the configured default otherwise. The
    /// paper-faithful energy model (`display_only_drain`) keeps the
    /// uniform default budget, matching the paper's single operating
    /// point.
    fn encoder_for(&self, dev_idx: usize) -> &TransformEncoder {
        let saver = !self.config.display_only_drain
            && self.cluster.devices()[dev_idx].battery().fraction() <= BATTERY_SAVER_THRESHOLD;
        if saver {
            &self.saver_encoder
        } else {
            &self.encoder
        }
    }

    /// The anxiety curve extracted from this run's survey cohort.
    pub fn curve(&self) -> &AnxietyCurve {
        &self.curve
    }

    /// Runs the emulation to completion. With `pipelined` set (and an
    /// LPVS policy), the slot loop runs through the staged
    /// [`lpvs_runtime`] pipeline instead; results are bit-identical to
    /// a sequential `one_slot_ahead` run.
    pub fn run(mut self) -> EmulationReport {
        if self.config.pipelined
            && matches!(self.policy, Policy::Lpvs | Policy::LpvsPhase1Only)
        {
            return crate::pipeline::run_pipelined(self);
        }
        let n = self.config.devices;
        let initial_battery: Vec<f64> =
            self.cluster.devices().iter().map(|d| d.battery().fraction()).collect();
        let mut ever_selected = vec![false; n];
        let mut slots = Vec::with_capacity(self.config.slots);
        let mut scheduler_runtime = Duration::ZERO;
        let mut total_display = 0.0;
        let mut total_counterfactual = 0.0;
        let mut total_energy = 0.0;
        // Device-indexed decision computed in the previous slot
        // (one-slot-ahead mode): nobody is transformed in slot 0.
        let mut pending: Vec<bool> = vec![false; n];
        // Device-indexed decisions of the previous slot, for churn.
        let mut previous_by_device: Option<Vec<bool>> = None;
        let plan = FaultPlan::generate(&self.config.faults, self.config.slots, n);

        for slot in 0..self.config.slots {
            let mut slot_span = lpvs_obs::span!("emu.slot", "slot" => slot);
            // --- Fault injection -------------------------------------
            let faults = plan.slot(slot);
            for &d in &faults.reconnects {
                self.cluster.devices_mut()[d].reconnect();
            }
            for &d in &faults.disconnects {
                self.cluster.devices_mut()[d].disconnect();
            }
            // A slot off the link is a slot the estimator learned
            // nothing: inflate its uncertainty so the next observation
            // counts for more.
            for (i, device) in self.cluster.devices().iter().enumerate() {
                if !device.is_connected() {
                    self.estimators[i].forget(1);
                }
            }

            // --- Information gathering -------------------------------
            let watching: Vec<usize> = (0..n)
                .filter(|&i| self.cluster.devices()[i].is_watching())
                .collect();
            let mut selected_count = 0usize;
            let mut current_by_device = vec![false; n];
            let mut slot_degradation: Option<Degradation> = None;

            slot_span.record("watching", watching.len() as f64);

            if !watching.is_empty() {
                let gather_span = lpvs_obs::span!("emu.gather", "devices" => watching.len());
                let windows: Vec<Vec<FrameStats>> = watching
                    .iter()
                    .map(|&i| self.content_window(i, slot))
                    .collect();
                // The prefetch policy bounds how many chunks the edge
                // holds at the *scheduling point* (K_m, eq. 1); the
                // remainder arrives during the slot, so playback still
                // covers the full window.
                let decision_windows: Vec<&[FrameStats]> = watching
                    .iter()
                    .zip(&windows)
                    .map(|(&i, w)| {
                        let k = self
                            .config
                            .prefetch
                            .available_chunks(w.len(), 0, self.channel_viewers[i])
                            .max(1)
                            .min(w.len());
                        &w[..k]
                    })
                    .collect();
                let devices: Vec<&Device> =
                    watching.iter().map(|&i| &self.cluster.devices()[i]).collect();
                let mut gammas: Vec<f64> = match self.config.gamma_mode {
                    GammaMode::Learned => {
                        watching.iter().map(|&i| self.estimators[i].expected()).collect()
                    }
                    GammaMode::Fixed(g) => vec![g; watching.len()],
                    GammaMode::Oracle => watching
                        .iter()
                        .zip(&decision_windows)
                        .map(|(&i, window)| self.oracle_gamma(i, window))
                        .collect(),
                };
                // Corrupt γ reports *after* estimation: the fault models
                // the telemetry link, not the estimator.
                for &(dev, kind) in &faults.gamma_corruptions {
                    if let Some(w) = watching.iter().position(|&i| i == dev) {
                        gammas[w] = match kind {
                            GammaCorruption::Nan => f64::NAN,
                            GammaCorruption::Negative => -0.4,
                            GammaCorruption::Huge => 4.2,
                            GammaCorruption::Stale => GAMMA_PRIOR_MEAN,
                        };
                    }
                }
                // A brownout derates the capacities the scheduler sees;
                // the physical server is unchanged.
                let (compute, storage) = match faults.brownout_factor {
                    Some(f) => {
                        let derated = self.cluster.server().browned_out(f);
                        derated.publish_gauges();
                        (derated.compute_capacity(), derated.storage_capacity_gb())
                    }
                    None => {
                        lpvs_obs::gauge_set("edge_brownout_factor", 1.0);
                        self.cluster.server().publish_gauges();
                        (
                            self.cluster.server().compute_capacity(),
                            self.cluster.server().storage_capacity_gb(),
                        )
                    }
                };
                let problem = gather_problem(
                    &devices,
                    &decision_windows,
                    &gammas,
                    self.config.chunk_secs,
                    self.bitrate_kbps,
                    compute,
                    storage,
                    self.config.lambda,
                    &self.curve,
                );

                drop(gather_span);

                // --- Request scheduling ------------------------------
                let budget = slot_budget(&faults.budget_cut);
                let warm: Option<Vec<bool>> = previous_by_device
                    .as_ref()
                    .map(|prev| watching.iter().map(|&i| prev[i]).collect());
                let started = Instant::now();
                let (computed, tier) =
                    self.schedule(&problem, warm.as_deref(), &budget);
                scheduler_runtime += started.elapsed();
                slot_degradation = tier;
                let selection: Vec<bool> = if self.config.one_slot_ahead {
                    // Execute last slot's decision now; stage the fresh
                    // one for the next scheduling point.
                    let current: Vec<bool> =
                        watching.iter().map(|&i| pending[i]).collect();
                    pending = vec![false; n];
                    for (w_idx, &dev_idx) in watching.iter().enumerate() {
                        pending[dev_idx] = computed[w_idx];
                    }
                    current
                } else {
                    computed
                };

                // --- Video transforming + playback -------------------
                let _play_span = lpvs_obs::span!("emu.play", "devices" => watching.len());
                for (w_idx, &dev_idx) in watching.iter().enumerate() {
                    let transform = selection[w_idx];
                    if transform {
                        ever_selected[dev_idx] = true;
                        selected_count += 1;
                        current_by_device[dev_idx] = true;
                    }
                    let (display_j, counter_j, device_j) =
                        self.play_slot(dev_idx, &windows[w_idx], transform);
                    total_display += display_j;
                    total_counterfactual += counter_j;
                    total_energy += device_j;
                }
            }

            // --- Accounting ------------------------------------------
            let churn = previous_by_device.as_ref().map(|prev| {
                let flips = prev
                    .iter()
                    .zip(&current_by_device)
                    .filter(|(a, b)| a != b)
                    .count();
                flips as f64 / n as f64
            });
            previous_by_device = Some(current_by_device);
            let mean_anxiety = self
                .cluster
                .devices()
                .iter()
                .map(|d| self.curve.phi(d.battery().fraction()))
                .sum::<f64>()
                / n as f64;
            slot_span.record("selected", selected_count as f64);
            slots.push(SlotRecord {
                slot,
                display_energy_j: slots_delta(&slots, total_display, |s| s.display_energy_j),
                counterfactual_display_j: slots_delta(&slots, total_counterfactual, |s| {
                    s.counterfactual_display_j
                }),
                total_energy_j: slots_delta(&slots, total_energy, |s| s.total_energy_j),
                mean_anxiety,
                watching: self.cluster.watching_count(),
                selected: selected_count,
                churn,
                degradation: slot_degradation,
            });
        }

        let devices = self.cluster.devices();
        EmulationReport {
            display_energy_j: total_display,
            counterfactual_display_j: total_counterfactual,
            total_energy_j: total_energy,
            watch_minutes: devices.iter().map(|d| d.watched_secs() / 60.0).collect(),
            initial_battery,
            final_battery: devices.iter().map(|d| d.battery().fraction()).collect(),
            gave_up: devices.iter().map(|d| d.has_given_up()).collect(),
            ever_selected,
            gamma_posteriors: self
                .estimators
                .iter()
                .map(|e| (e.expected(), e.uncertainty()))
                .collect(),
            scheduler_runtime,
            runtime: None,
            obs: lpvs_obs::enabled()
                .then(|| lpvs_obs::installed().map(|r| r.snapshot()))
                .flatten(),
            slots,
        }
    }

    /// Runs the slot's selection. LPVS policies go through the
    /// resilient scheduler — sanitized telemetry, the degradation
    /// ladder, and the slot budget — and report which rung served the
    /// slot; baselines keep their plain `select` path and report no
    /// tier.
    fn schedule(
        &self,
        problem: &SlotProblem,
        warm: Option<&[bool]>,
        budget: &SlotBudget,
    ) -> (Vec<bool>, Option<Degradation>) {
        let scheduler = match self.policy {
            Policy::Lpvs => LpvsScheduler::paper_default(),
            Policy::LpvsPhase1Only => LpvsScheduler::phase1_only(),
            _ => return (self.policy.select(problem), None),
        };
        if self.config.num_edges > 1 {
            return self.schedule_sharded(&scheduler, problem, warm, budget);
        }
        let schedule = scheduler.schedule_resilient(problem, warm, budget);
        (schedule.selected, Some(schedule.stats.degradation))
    }

    /// Multi-edge scheduling path (`num_edges > 1`): the gathered slot
    /// is columnarized into a [`DeviceFleet`](lpvs_core::fleet::DeviceFleet),
    /// the server's capacity is
    /// split evenly across the shards, and the [`FleetScheduler`] runs
    /// each shard's resilient pipeline in parallel. Telemetry is
    /// sanitized *before* the fleet is built — rows the monolithic path
    /// would reject are marked disconnected, so they are never
    /// scheduled, matching the resilient contract. The reported tier is
    /// the worst rung any shard fell to.
    fn schedule_sharded(
        &self,
        scheduler: &LpvsScheduler,
        problem: &SlotProblem,
        warm: Option<&[bool]>,
        budget: &SlotBudget,
    ) -> (Vec<bool>, Option<Degradation>) {
        let (fleet, clean) = crate::gather::sanitized_fleet(problem, None);
        let fleet_scheduler = FleetScheduler::new(FleetConfig {
            num_shards: self.config.num_edges,
            partitioner: Partitioner::Locality,
            scheduler: *scheduler.config(),
            ..FleetConfig::default()
        });
        let server = EdgeServer::new(clean.compute_capacity, clean.storage_capacity_gb);
        let out = fleet_scheduler.schedule(
            &fleet,
            &server,
            clean.lambda,
            &clean.curve,
            warm,
            budget,
        );
        let tier = out
            .shards
            .iter()
            .map(|r| r.stats.degradation)
            .max()
            .unwrap_or(Degradation::Passthrough);
        (out.selected, Some(tier))
    }

    /// Synthesizes the chunk window device `i` plays in `slot`. The
    /// content stream is deterministic per (seed, device, slot) so
    /// paired runs under different policies replay identical footage.
    pub(crate) fn content_window(&self, device: usize, slot: usize) -> Vec<FrameStats> {
        let stream_seed = self
            .config
            .seed
            .wrapping_mul(0x0100_0000_01b3)
            .wrapping_add((device as u64) << 20)
            .wrapping_add(slot as u64);
        ContentModel::new(self.genres[device], stream_seed)
            .chunk_stats(self.config.chunks_per_slot)
    }

    /// Clairvoyant whole-device reduction ratio: encodes the upcoming
    /// window without touching the battery.
    pub(crate) fn oracle_gamma(&self, dev_idx: usize, window: &[FrameStats]) -> f64 {
        let device = &self.cluster.devices()[dev_idx];
        let spec = *device.spec();
        let mut orig = 0.0;
        let mut transformed = 0.0;
        let encoder = self.encoder_for(dev_idx);
        for stats in window {
            let scale = 1.0 - encoder.reduction_ratio(stats, &spec);
            orig += device.power_rate_watts(stats, 1.0);
            transformed += device.power_rate_watts(stats, scale);
        }
        if orig <= 0.0 {
            return 0.0;
        }
        (1.0 - transformed / orig).clamp(0.0, 1.0 - f64::EPSILON)
    }

    /// Plays one device's slot; returns `(display J, counterfactual
    /// display J, whole-device J)` and feeds the γ estimator when the
    /// device was transformed.
    fn play_slot(
        &mut self,
        dev_idx: usize,
        window: &[FrameStats],
        transform: bool,
    ) -> (f64, f64, f64) {
        let (display_j, counter_j, device_j, observed) =
            self.play_slot_raw(dev_idx, window, transform);
        if let Some(ratio) = observed {
            // Observed whole-device reduction ratio Δ_n for this slot.
            // Playback yields ratios in [0, 1] by construction, but the
            // validated path keeps a corrupt measurement from poisoning
            // the belief: a rejected sample counts as a stale slot.
            if self.estimators[dev_idx].try_observe(ratio).is_err() {
                self.estimators[dev_idx].forget(1);
            }
        }
        (display_j, counter_j, device_j)
    }

    /// [`play_slot`](Self::play_slot) without the estimator update: the
    /// pipelined driver routes the observation to the *owning shard's*
    /// bank instead of a device-indexed vector, so playback returns the
    /// raw measurement (`None` when the device was not transformed or
    /// played nothing).
    pub(crate) fn play_slot_raw(
        &mut self,
        dev_idx: usize,
        window: &[FrameStats],
        transform: bool,
    ) -> (f64, f64, f64, Option<f64>) {
        let mut display_j = 0.0;
        let mut counter_j = 0.0;
        let mut device_j = 0.0;
        let mut orig_device_j = 0.0;
        let spec = *self.cluster.devices()[dev_idx].spec();

        let saver = !self.config.display_only_drain
            && self.cluster.devices()[dev_idx].battery().fraction()
                <= BATTERY_SAVER_THRESHOLD;
        for stats in window {
            let scale = if transform {
                let encoder = if saver { &self.saver_encoder } else { &self.encoder };
                1.0 - encoder.reduction_ratio(stats, &spec)
            } else {
                1.0
            };
            let device = &mut self.cluster.devices_mut()[dev_idx];
            let display_watts = spec.power_watts(stats);
            let (device_watts, orig_watts) = if self.config.display_only_drain {
                (display_watts * scale, display_watts)
            } else {
                (device.power_rate_watts(stats, scale), device.power_rate_watts(stats, 1.0))
            };
            let watched = device.play_with(
                stats,
                self.config.chunk_secs,
                scale,
                !self.config.display_only_drain,
            );
            display_j += display_watts * scale * watched;
            counter_j += display_watts * watched;
            device_j += device_watts * watched;
            orig_device_j += orig_watts * watched;
            if watched <= 0.0 {
                break;
            }
        }

        let observed =
            (transform && orig_device_j > 0.0).then(|| 1.0 - device_j / orig_device_j);
        (display_j, counter_j, device_j, observed)
    }
}

/// Maps a budget-cut fault onto a [`SlotBudget`]: the node budget is
/// scaled by the retained fraction (floored at one node), and a cut
/// below [`STALL_FRACTION`] also zeroes the deadline — the solver
/// missed its window entirely, so the ladder falls through to reusing
/// the previous schedule (or passthrough in slot 0).
pub(crate) fn slot_budget(budget_cut: &Option<f64>) -> SlotBudget {
    match *budget_cut {
        None => SlotBudget::unbounded(),
        Some(fraction) => {
            let baseline = LpvsScheduler::paper_default().config().phase1.node_limit;
            let budget = SlotBudget::unbounded().cut(fraction, baseline);
            if fraction < STALL_FRACTION {
                budget.with_deadline_secs(0.0)
            } else {
                budget
            }
        }
    }
}

/// Helper: converts a running total into this slot's delta given the
/// records already pushed.
pub(crate) fn slots_delta<F: Fn(&SlotRecord) -> f64>(
    slots: &[SlotRecord],
    running_total: f64,
    field: F,
) -> f64 {
    running_total - slots.iter().map(field).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(policy: Policy, streams: usize, lambda: f64) -> EmulationReport {
        let config = EmulatorConfig {
            devices: 16,
            slots: 6,
            seed: 7,
            lambda,
            server_streams: streams,
            ..EmulatorConfig::default()
        };
        Emulator::new(config, policy).run()
    }

    #[test]
    fn lpvs_saves_display_energy() {
        let with = small(Policy::Lpvs, 100, 1.0);
        let without = small(Policy::NoTransform, 100, 1.0);
        assert!(with.display_energy_j < 0.8 * without.display_energy_j);
        // The internal counterfactual agrees on the order of magnitude.
        let ratio = with.display_saving_ratio();
        assert!((0.13..=0.55).contains(&ratio), "saving ratio {ratio}");
    }

    #[test]
    fn no_transform_run_saves_nothing() {
        let r = small(Policy::NoTransform, 100, 1.0);
        assert!((r.display_saving_ratio()).abs() < 1e-9);
        assert!(r.ever_selected.iter().all(|&s| !s));
    }

    #[test]
    fn lpvs_reduces_anxiety() {
        let with = small(Policy::Lpvs, 100, 1.0);
        let without = small(Policy::NoTransform, 100, 1.0);
        assert!(with.anxiety_reduction_vs(&without) > 0.0);
    }

    #[test]
    fn paired_runs_share_population() {
        let a = small(Policy::Lpvs, 100, 1.0);
        let b = small(Policy::NoTransform, 100, 1.0);
        assert_eq!(a.initial_battery, b.initial_battery);
    }

    #[test]
    fn limited_capacity_selects_fewer() {
        let tight = small(Policy::Lpvs, 4, 1.0);
        let loose = small(Policy::Lpvs, 100, 1.0);
        let max_tight = tight.slots.iter().map(|s| s.selected).max().unwrap();
        let max_loose = loose.slots.iter().map(|s| s.selected).max().unwrap();
        // The cheapest stream (480p30) costs ≈ 0.445 compute units, so
        // a 4-unit server can feasibly host at most ⌊4/0.445⌋ = 8.
        assert!(max_tight <= 8, "tight server hosted {max_tight} streams");
        assert!(max_loose > max_tight);
        assert!(tight.display_saving_ratio() < loose.display_saving_ratio());
    }

    #[test]
    fn watch_time_never_exceeds_horizon() {
        let r = small(Policy::Lpvs, 100, 1.0);
        let horizon_minutes = 6.0 * 5.0;
        assert!(r.watch_minutes.iter().all(|&m| m <= horizon_minutes + 1e-9));
    }

    #[test]
    fn oracle_gamma_beats_or_matches_fixed_pessimistic_guess() {
        // A wildly wrong fixed γ misallocates a *tight* server; the
        // oracle cannot do worse on realized energy.
        let base = EmulatorConfig {
            devices: 16,
            slots: 5,
            seed: 21,
            server_streams: 5,
            ..EmulatorConfig::default()
        };
        let oracle = Emulator::new(
            EmulatorConfig { gamma_mode: GammaMode::Oracle, ..base },
            Policy::Lpvs,
        )
        .run();
        let fixed = Emulator::new(
            EmulatorConfig { gamma_mode: GammaMode::Fixed(0.01), ..base },
            Policy::Lpvs,
        )
        .run();
        assert!(oracle.display_energy_j <= fixed.display_energy_j + 1e-6);
    }

    #[test]
    fn one_slot_ahead_transforms_nobody_in_slot_zero() {
        let config = EmulatorConfig {
            devices: 12,
            slots: 5,
            seed: 2,
            one_slot_ahead: true,
            ..EmulatorConfig::default()
        };
        let r = Emulator::new(config, Policy::Lpvs).run();
        assert_eq!(r.slots[0].selected, 0);
        assert!(r.slots[1].selected > 0);
        // Staleness costs a little versus instant application.
        let instant =
            Emulator::new(EmulatorConfig { one_slot_ahead: false, ..config }, Policy::Lpvs)
                .run();
        assert!(r.display_energy_j >= instant.display_energy_j - 1e-6);
    }

    #[test]
    fn prefetch_window_limits_the_decision_not_playback() {
        // Playback always covers the full slot; the tight window only
        // shrinks what the scheduler sees, so the *watched time* of a
        // tight-window run matches the full-prefetch run while savings
        // differ at most mildly.
        let full = EmulatorConfig { devices: 8, slots: 3, seed: 3, ..Default::default() };
        let tight = EmulatorConfig {
            prefetch: PrefetchPolicy::Window { chunks: 5 },
            ..full
        };
        let a = Emulator::new(full, Policy::Lpvs).run();
        let b = Emulator::new(tight, Policy::Lpvs).run();
        assert_eq!(a.watch_minutes.len(), b.watch_minutes.len());
        for (x, y) in a.watch_minutes.iter().zip(&b.watch_minutes) {
            assert!((x - y).abs() < 1.0, "tight window changed playback: {x} vs {y}");
        }
        // The emulator still produces sane savings with a tiny window.
        assert!(b.display_saving_ratio() > 0.05);
    }

    #[test]
    fn multi_edge_slot_loop_runs_and_saves() {
        let base = EmulatorConfig { devices: 24, slots: 5, seed: 8, ..Default::default() };
        let mono = Emulator::new(base, Policy::Lpvs).run();
        let sharded =
            Emulator::new(EmulatorConfig { num_edges: 4, ..base }, Policy::Lpvs).run();
        assert!(sharded.display_saving_ratio() > 0.05);
        // Capacity is ample on both sides (100 streams for 24 viewers),
        // so splitting it four ways costs little.
        assert!(sharded.display_energy_j <= mono.display_energy_j * 1.2);
        // The parallel shard path is as deterministic as the monolith.
        let again =
            Emulator::new(EmulatorConfig { num_edges: 4, ..base }, Policy::Lpvs).run();
        assert_eq!(sharded.display_energy_j, again.display_energy_j);
        assert_eq!(sharded.slots, again.slots);
    }

    #[test]
    fn sharded_path_survives_faults_deterministically() {
        // Corrupt telemetry must be neutralized before the fleet store
        // sees it, exactly like the monolithic resilient path.
        let config = EmulatorConfig {
            devices: 16,
            slots: 8,
            seed: 7,
            num_edges: 3,
            faults: FaultConfig::uniform(0.2, 11),
            ..EmulatorConfig::default()
        };
        let a = Emulator::new(config, Policy::Lpvs).run();
        let b = Emulator::new(config, Policy::Lpvs).run();
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.display_energy_j, b.display_energy_j);
        for s in &a.slots {
            if s.watching > 0 {
                assert!(s.degradation.is_some(), "sharded slot {} lost its tier", s.slot);
            }
        }
    }

    #[test]
    fn determinism_per_seed() {
        let a = small(Policy::Lpvs, 100, 1.0);
        let b = small(Policy::Lpvs, 100, 1.0);
        assert_eq!(a.display_energy_j, b.display_energy_j);
        assert_eq!(a.watch_minutes, b.watch_minutes);
    }

    #[test]
    fn faulted_run_is_deterministic_and_reports_tiers() {
        let config = EmulatorConfig {
            devices: 16,
            slots: 10,
            seed: 7,
            faults: FaultConfig::uniform(0.15, 11),
            ..EmulatorConfig::default()
        };
        let a = Emulator::new(config, Policy::Lpvs).run();
        let b = Emulator::new(config, Policy::Lpvs).run();
        // Bit-identical replay (scheduler_runtime is wall clock and
        // legitimately differs between runs).
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.display_energy_j, b.display_energy_j);
        assert_eq!(a.watch_minutes, b.watch_minutes);
        // Every slot that scheduled anyone reports its ladder rung.
        for s in &a.slots {
            if s.watching > 0 {
                assert!(s.degradation.is_some(), "slot {} lost its tier", s.slot);
            }
        }
        assert!(a.degradation_counts().iter().map(|(_, c)| c).sum::<usize>() > 0);
    }

    #[test]
    fn baseline_policies_report_no_tier_but_survive_faults() {
        let config = EmulatorConfig {
            devices: 12,
            slots: 8,
            seed: 5,
            faults: FaultConfig::uniform(0.2, 3),
            ..EmulatorConfig::default()
        };
        for policy in [Policy::NoTransform, Policy::LowestBattery, Policy::HighestSaving] {
            let r = Emulator::new(config, policy).run();
            assert!(r.slots.iter().all(|s| s.degradation.is_none()));
        }
    }

    #[test]
    fn disconnects_pause_watching() {
        let base = EmulatorConfig { devices: 16, slots: 12, seed: 9, ..Default::default() };
        let healthy = Emulator::new(base, Policy::NoTransform).run();
        let flaky = Emulator::new(
            EmulatorConfig {
                faults: FaultConfig {
                    disconnect_rate: 0.3,
                    reconnect_rate: 0.3,
                    ..FaultConfig::none()
                },
                ..base
            },
            Policy::NoTransform,
        )
        .run();
        let healthy_minutes: f64 = healthy.watch_minutes.iter().sum();
        let flaky_minutes: f64 = flaky.watch_minutes.iter().sum();
        assert!(
            flaky_minutes < healthy_minutes,
            "disconnects did not reduce watch time: {flaky_minutes} vs {healthy_minutes}"
        );
    }

    #[test]
    fn stall_faults_reach_the_bottom_rungs() {
        // Budget cuts below the stall fraction zero the deadline, so a
        // run with guaranteed cuts must show non-exact tiers.
        let config = EmulatorConfig {
            devices: 12,
            slots: 16,
            seed: 4,
            faults: FaultConfig {
                budget_cut_rate: 1.0,
                ..FaultConfig::none()
            },
            ..EmulatorConfig::default()
        };
        let r = Emulator::new(config, Policy::Lpvs).run();
        assert!(
            r.degraded_slots() > 0,
            "guaranteed budget cuts never degraded a slot"
        );
        assert!(r.mean_recovery_slots().is_some());
    }

    #[test]
    fn gamma_estimators_learn_from_observations() {
        let config = EmulatorConfig { devices: 8, slots: 8, seed: 3, ..Default::default() };
        let mut emulator = Emulator::new(config, Policy::Lpvs);
        let before: Vec<f64> = emulator.estimators.iter().map(|e| e.expected()).collect();
        // Run manually to keep access to the estimators.
        let windows: Vec<Vec<FrameStats>> =
            (0..8).map(|i| emulator.content_window(i, 0)).collect();
        for (i, window) in windows.iter().enumerate() {
            emulator.play_slot(i, window, true);
        }
        let after: Vec<f64> = emulator.estimators.iter().map(|e| e.expected()).collect();
        assert_ne!(before, after);
        // Devices that start at/below their give-up threshold play zero
        // seconds and therefore produce no observation; everyone else
        // must have folded exactly one in.
        let observed = emulator.estimators.iter().filter(|e| e.observations() == 1).count();
        assert!(observed >= 4, "only {observed} estimators observed");
    }
}
