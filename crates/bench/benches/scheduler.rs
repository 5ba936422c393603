//! Scheduler runtime across cluster sizes (the Fig. 10 hot path), plus
//! the solver-path ablation (exact ILP vs. greedy knapsack).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lpvs_core::phase1::{Phase1Config, Phase1Solver};
use lpvs_core::scheduler::{LpvsScheduler, SchedulerConfig};
use lpvs_emulator::experiment::synthetic_problem;
use std::hint::black_box;

fn bench_schedule_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule");
    for &n in &[100usize, 500, 1000, 2000] {
        let problem = synthetic_problem(n, 100.0, 1.0, 5);
        group.bench_with_input(BenchmarkId::new("lpvs", n), &problem, |b, p| {
            let scheduler = LpvsScheduler::paper_default();
            b.iter(|| scheduler.schedule(black_box(p)).unwrap());
        });
    }
    group.finish();
}

fn bench_solver_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_solver");
    let problem = synthetic_problem(500, 50.0, 1.0, 6);
    group.bench_function("exact_ilp", |b| {
        let scheduler = LpvsScheduler::phase1_only();
        b.iter(|| scheduler.schedule(black_box(&problem)).unwrap());
    });
    group.bench_function("greedy_knapsack", |b| {
        let scheduler = LpvsScheduler::new(SchedulerConfig {
            phase1: Phase1Config { solver: Phase1Solver::Greedy, ..Phase1Config::default() },
            ..SchedulerConfig::default()
        });
        b.iter(|| scheduler.schedule(black_box(&problem)).unwrap());
    });
    group.finish();
}

fn bench_phase2_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_phase2_runtime");
    let problem = synthetic_problem(500, 50.0, 2.0, 7);
    group.bench_function("phase1_only", |b| {
        let scheduler = LpvsScheduler::phase1_only();
        b.iter(|| scheduler.schedule(black_box(&problem)).unwrap());
    });
    group.bench_function("phase1_plus_phase2", |b| {
        let scheduler = LpvsScheduler::paper_default();
        b.iter(|| scheduler.schedule(black_box(&problem)).unwrap());
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_schedule_sizes, bench_solver_paths, bench_phase2_cost
}
criterion_main!(benches);
