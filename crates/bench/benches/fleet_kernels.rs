//! Batched vs per-row throughput of the two hot fleet kernels,
//! constraint-11 feasibility and the eq.-13 objective.
//!
//! These dominate the incremental Phase-2 pass over a dirty frontier —
//! every candidate swap re-evaluates both. Two variants per kernel:
//! `batched` (the columnar batch kernels; the objective runs AVX2 where
//! detected) and `scalar` (the row oracles over pre-materialized
//! [`DeviceRequest`] rows). The committed artifact lives in
//! `BENCH_kernels.json` via the `fleet-kernels-baseline` binary; this
//! bench is for interactive exploration.

use criterion::{criterion_group, criterion_main, Criterion};
use lpvs_core::compact::compact_device;
use lpvs_core::fleet::{DeviceFleet, FleetDevice};
use lpvs_core::objective::device_objective;
use lpvs_core::problem::DeviceRequest;
use lpvs_core::{device_objective_batch, transform_feasible_batch, Select};
use lpvs_survey::curve::AnxietyCurve;
use std::hint::black_box;

const DEVICES: usize = 4096;
const CHUNKS: usize = 30;

fn corpus() -> (DeviceFleet, Vec<DeviceRequest>) {
    let mut fleet = DeviceFleet::with_capacity(DEVICES, CHUNKS);
    for d in 0..DEVICES {
        fleet.push(FleetDevice::from_request(DeviceRequest::uniform(
            0.8 + 0.05 * (d % 7) as f64,
            10.0,
            CHUNKS,
            2_000.0 + 37.0 * (d % 101) as f64,
            55_440.0,
            0.1 + 0.006 * (d % 97) as f64,
            1.0,
            0.1,
        )));
    }
    let requests = (0..DEVICES).map(|d| fleet.device_request(d)).collect();
    (fleet, requests)
}

fn bench_fleet_kernels(c: &mut Criterion) {
    let (fleet, requests) = corpus();
    let curve = AnxietyCurve::paper_shape();
    let lambda = 1.0;

    let cols = fleet.columns();
    let indices: Vec<usize> = (0..DEVICES).collect();
    let sel: Vec<bool> = (0..DEVICES).map(|d| d % 2 == 0).collect();

    let mut group = c.benchmark_group("fleet_kernels");
    group.bench_function("transform_feasible/batched", |b| {
        let mut flags = Vec::with_capacity(DEVICES);
        b.iter(|| {
            flags.clear();
            transform_feasible_batch(black_box(&cols), &indices, &mut flags);
            black_box(&flags);
        });
    });
    group.bench_function("transform_feasible/scalar", |b| {
        b.iter(|| {
            let mut feasible = 0usize;
            for request in black_box(&requests) {
                feasible += usize::from(compact_device(request).transform_feasible);
            }
            black_box(feasible)
        });
    });
    group.bench_function("device_objective/batched", |b| {
        let mut values = Vec::with_capacity(DEVICES);
        b.iter(|| {
            values.clear();
            device_objective_batch(
                black_box(&cols),
                &indices,
                Select::PerRow(&sel),
                lambda,
                &curve,
                &mut values,
            );
            black_box(&values);
        });
    });
    group.bench_function("device_objective/scalar", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for (d, request) in black_box(&requests).iter().enumerate() {
                total += device_objective(request, d % 2 == 0, lambda, &curve);
            }
            black_box(total)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fleet_kernels);
criterion_main!(benches);
