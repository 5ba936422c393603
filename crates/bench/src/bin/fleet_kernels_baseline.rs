//! Batched-vs-scalar baseline for the two hot fleet kernels, as a
//! committed artifact.
//!
//! The criterion bench (`benches/fleet_kernels.rs`) measures the same
//! kernels interactively; this binary pins the batched-columnar
//! advantage into `BENCH_kernels.json` so the bench sentinel can gate
//! regressions. Three legs per kernel:
//!
//! * **batched** — [`transform_feasible_batch`] / [`device_objective_batch`]
//!   over [`FleetColumns`], on whatever kernel path is active. Only the
//!   objective has an AVX2 path (where detected, unless `LPVS_KERNELS`
//!   overrides it); feasibility has one portable implementation, so its
//!   batched and scalar legs time the same code and differ by noise;
//! * **scalar** — the same batch entry points forced onto the portable
//!   scalar fallback via [`set_forced_path`];
//! * **row** — the row oracles: the same arithmetic over
//!   pre-materialized [`DeviceRequest`] rows ([`compact_device`] /
//!   [`device_objective`]).
//!
//! The sweep covers fleet sizes {4k, 64k, 256k} × chunk distributions
//! {short: 8, long: 30, mixed: 1–30}, recording per-shape ratios. The
//! **headline** shape (4096 devices × long) is the corpus this artifact
//! has always measured; its ratios carry the sentinel gates: the
//! batched objective must beat the row path ≥1.5×, the forced-scalar
//! objective must stay within 1.1× of it (`row_over_scalar ≥ 1/1.1`),
//! and the feasibility loop must not fall below the row path by more
//! than the run's own spread of that ratio across the nine shapes
//! (`bench_baselines.json` records the derivation).
//!
//! `--smoke` restricts the sweep to the 4k shapes with fewer timed
//! passes; `--out <path>` redirects the artifact (so CI's forced-scalar
//! rerun does not clobber the committed file).
//!
//! [`transform_feasible_batch`]: lpvs_core::transform_feasible_batch
//! [`device_objective_batch`]: lpvs_core::device_objective_batch
//! [`FleetColumns`]: lpvs_core::FleetColumns
//! [`set_forced_path`]: lpvs_core::set_forced_path
//! [`DeviceRequest`]: lpvs_core::problem::DeviceRequest
//! [`compact_device`]: lpvs_core::compact::compact_device
//! [`device_objective`]: lpvs_core::objective::device_objective

use lpvs_core::compact::compact_device;
use lpvs_core::fleet::{DeviceFleet, FleetDevice};
use lpvs_core::objective::device_objective;
use lpvs_core::problem::DeviceRequest;
use lpvs_core::{
    active_path, detected_path, device_objective_batch, set_forced_path, transform_feasible_batch,
    KernelPath, Select,
};
use lpvs_obs::json::Json;
use lpvs_survey::curve::AnxietyCurve;
use std::hint::black_box;
use std::time::Instant;

/// The shape whose ratios carry the sentinel gates — the 4096×30
/// corpus this artifact has measured since it was introduced.
const HEADLINE: (usize, Dist) = (4096, Dist::Long);

#[derive(Clone, Copy, PartialEq)]
enum Dist {
    /// Every device holds 8 chunks — per-group overhead dominates.
    Short,
    /// Every device holds 30 chunks (the paper's slot horizon).
    Long,
    /// Chunk counts cycle 1–30 — ragged lanes, scalar finishes.
    Mixed,
}

impl Dist {
    fn name(self) -> &'static str {
        match self {
            Dist::Short => "short",
            Dist::Long => "long",
            Dist::Mixed => "mixed",
        }
    }

    fn chunks(self, device: usize) -> usize {
        match self {
            Dist::Short => 8,
            Dist::Long => 30,
            Dist::Mixed => 1 + device % 30,
        }
    }
}

fn corpus(devices: usize, dist: Dist) -> (DeviceFleet, Vec<DeviceRequest>) {
    let mut fleet = DeviceFleet::with_capacity(devices, 30);
    for d in 0..devices {
        fleet.push(FleetDevice::from_request(DeviceRequest::uniform(
            0.8 + 0.05 * (d % 7) as f64,
            10.0,
            dist.chunks(d),
            2_000.0 + 37.0 * (d % 101) as f64,
            55_440.0,
            0.1 + 0.006 * (d % 97) as f64,
            1.0,
            0.1,
        )));
    }
    let requests = (0..devices).map(|d| fleet.device_request(d)).collect();
    (fleet, requests)
}

/// 5th-percentile seconds per pass over `iters` timed passes (after
/// warmup). The low percentile, not the median: these passes run on
/// shared machines where scheduler interference inflates most samples,
/// and the near-minimum is the stable estimate of what the kernel
/// actually costs.
fn p05_secs(iters: usize, mut pass: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 + 1 {
        pass();
    }
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 20]
}

struct Legs {
    name: &'static str,
    batched_secs: f64,
    scalar_secs: f64,
    row_secs: f64,
}

impl Legs {
    /// Row-per-batched: > 1 means the batched kernel beats the old
    /// per-row path.
    fn row_over_batched(&self) -> f64 {
        self.row_secs / self.batched_secs
    }

    /// Row-per-scalar: ≥ 1/1.1 means the portable scalar fallback is
    /// within 1.1× of the old per-row path.
    fn row_over_scalar(&self) -> f64 {
        self.row_secs / self.scalar_secs
    }

    /// Scalar-per-batched: the vector path's edge over the portable
    /// batch kernel on this shape.
    fn scalar_over_batched(&self) -> f64 {
        self.scalar_secs / self.batched_secs
    }

    fn json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.into())),
            ("batched_secs", Json::Num(self.batched_secs)),
            ("scalar_secs", Json::Num(self.scalar_secs)),
            ("row_secs", Json::Num(self.row_secs)),
            ("row_over_batched", Json::Num(self.row_over_batched())),
            ("row_over_scalar", Json::Num(self.row_over_scalar())),
            ("scalar_over_batched", Json::Num(self.scalar_over_batched())),
        ])
    }
}

fn measure_shape(devices: usize, dist: Dist, iters: usize, curve: &AnxietyCurve) -> [Legs; 2] {
    let (fleet, requests) = corpus(devices, dist);
    let cols = fleet.columns();
    let indices: Vec<usize> = (0..devices).collect();
    let sel: Vec<bool> = (0..devices).map(|d| d % 2 == 0).collect();
    let lambda = 1.0;

    let mut flags = Vec::new();
    let feasible_batched = p05_secs(iters, || {
        flags.clear();
        transform_feasible_batch(black_box(&cols), &indices, &mut flags);
        black_box(&flags);
    });
    set_forced_path(Some(KernelPath::Scalar));
    let feasible_scalar = p05_secs(iters, || {
        flags.clear();
        transform_feasible_batch(black_box(&cols), &indices, &mut flags);
        black_box(&flags);
    });
    set_forced_path(None);
    let feasible_row = p05_secs(iters, || {
        let mut n = 0usize;
        for request in black_box(&requests) {
            n += usize::from(compact_device(request).transform_feasible);
        }
        black_box(n);
    });

    let mut values = Vec::new();
    let objective_batched = p05_secs(iters, || {
        values.clear();
        device_objective_batch(
            black_box(&cols),
            &indices,
            Select::PerRow(&sel),
            lambda,
            curve,
            &mut values,
        );
        black_box(&values);
    });
    set_forced_path(Some(KernelPath::Scalar));
    let objective_scalar = p05_secs(iters, || {
        values.clear();
        device_objective_batch(
            black_box(&cols),
            &indices,
            Select::PerRow(&sel),
            lambda,
            curve,
            &mut values,
        );
        black_box(&values);
    });
    set_forced_path(None);
    let objective_row = p05_secs(iters, || {
        let mut total = 0.0;
        for (d, request) in black_box(&requests).iter().enumerate() {
            total += device_objective(request, d % 2 == 0, lambda, curve);
        }
        black_box(total);
    });

    [
        Legs {
            name: "transform_feasible",
            batched_secs: feasible_batched,
            scalar_secs: feasible_scalar,
            row_secs: feasible_row,
        },
        Legs {
            name: "device_objective",
            batched_secs: objective_batched,
            scalar_secs: objective_scalar,
            row_secs: objective_row,
        },
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_string()
        });

    let sizes: &[(usize, usize)] = if smoke {
        &[(4096, 60)]
    } else {
        &[(4096, 200), (65_536, 40), (262_144, 12)]
    };
    let dists = [Dist::Short, Dist::Long, Dist::Mixed];
    let curve = AnxietyCurve::paper_shape();

    println!(
        "Fleet kernel baselines — batched path {}, detected {}\n",
        active_path().name(),
        detected_path().name()
    );
    println!(
        "{:>8} {:>6} {:>20} {:>13} {:>13} {:>13} {:>9} {:>9}",
        "devices", "dist", "kernel", "batched (s)", "scalar (s)", "row (s)", "row/bat", "row/scal"
    );

    let mut shapes = Vec::new();
    let mut headline: Option<Json> = None;
    for &(devices, iters) in sizes {
        for dist in dists {
            let legs = measure_shape(devices, dist, iters, &curve);
            for leg in &legs {
                println!(
                    "{:>8} {:>6} {:>20} {:>13.9} {:>13.9} {:>13.9} {:>8.2}x {:>8.2}x",
                    devices,
                    dist.name(),
                    leg.name,
                    leg.batched_secs,
                    leg.scalar_secs,
                    leg.row_secs,
                    leg.row_over_batched(),
                    leg.row_over_scalar(),
                );
            }
            if (devices, dist) == HEADLINE {
                headline = Some(Json::obj([
                    ("devices", Json::Num(devices as f64)),
                    ("dist", Json::Str(dist.name().into())),
                    ("chunks", Json::Num(30.0)),
                    ("transform_feasible", legs[0].json()),
                    ("device_objective", legs[1].json()),
                ]));
            }
            shapes.push(Json::obj([
                ("devices", Json::Num(devices as f64)),
                ("dist", Json::Str(dist.name().into())),
                ("iters", Json::Num(iters as f64)),
                ("kernels", Json::Arr(legs.iter().map(Legs::json).collect())),
            ]));
        }
    }

    let artifact = Json::obj([
        ("bench", Json::Str("fleet_kernels_baseline".into())),
        ("smoke", Json::Bool(smoke)),
        ("batched_path", Json::Str(active_path().name().into())),
        ("detected_path", Json::Str(detected_path().name().into())),
        ("headline", headline.expect("headline shape measured")),
        ("shapes", Json::Arr(shapes)),
    ]);
    std::fs::write(&out, format!("{artifact}\n")).expect("write kernel baseline artifact");
    println!("\nwrote {out}");
}
