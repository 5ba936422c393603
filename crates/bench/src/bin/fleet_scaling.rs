//! Fleet-scale scheduling latency: the monolithic scheduler vs. the
//! sharded [`FleetScheduler`] at provider-scale device counts.
//!
//! For each fleet size the slot is solved once monolithically
//! (`schedule_resilient` over the whole problem) and once per shard
//! count (partition → per-shard solve → bounded rebalance). On a
//! single-core host the sharded win comes from the solver's
//! superlinear terms shrinking with the shard size, not from
//! parallelism; with more cores the per-shard solves overlap too.
//!
//! Writes `BENCH_fleet.json` at the repository root. `--smoke` runs a
//! reduced sweep for CI.

use lpvs_core::budget::SlotBudget;
use lpvs_core::fleet::DeviceFleet;
use lpvs_core::scheduler::LpvsScheduler;
use lpvs_edge::fleet::{FleetConfig, FleetScheduler};
use lpvs_edge::server::EdgeServer;
use lpvs_emulator::experiment::synthetic_problem;
use lpvs_obs::json::Json;
use std::time::Instant;

struct Row {
    devices: usize,
    shards: usize,
    secs: f64,
    selected: usize,
    migrations: usize,
    energy_saved_j: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = &[10_000, 100_000];
    let shard_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let reps = if smoke { 1 } else { 3 };
    println!(
        "Fleet scaling — slot latency vs shard count{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    println!("{:>9} {:>7} {:>10} {:>9} {:>11} {:>13}", "devices", "shards", "secs", "selected", "migrations", "saved (J)");

    let budget = SlotBudget::unbounded();
    let mut rows: Vec<Row> = Vec::new();
    for &n in sizes {
        let problem = synthetic_problem(n, 0.4 * n as f64, 1.0, 4242);
        let fleet = DeviceFleet::from_problem(&problem);
        let server = EdgeServer::new(problem.compute_capacity, problem.storage_capacity_gb);
        let curve = problem.curve.clone();

        // Monolithic baseline: the whole slot through one scheduler.
        // Smoke skips warm-up — a single cold solve per point keeps the
        // CI run under two minutes and the comparison stays paired
        // (every point is equally cold).
        let scheduler = LpvsScheduler::paper_default();
        if !smoke {
            let _ = scheduler.schedule_resilient(&problem, None, &budget);
        }
        let t = Instant::now();
        let mut mono = scheduler.schedule_resilient(&problem, None, &budget);
        for _ in 1..reps {
            mono = scheduler.schedule_resilient(&problem, None, &budget);
        }
        let mono_secs = t.elapsed().as_secs_f64() / reps as f64;
        rows.push(Row {
            devices: n,
            shards: 1,
            secs: mono_secs,
            selected: mono.num_selected(),
            migrations: 0,
            energy_saved_j: mono.stats.energy_saved_j,
        });
        print_row(rows.last().unwrap());

        for &k in shard_counts.iter().filter(|&&k| k > 1) {
            let sharded = FleetScheduler::new(FleetConfig {
                num_shards: k,
                ..FleetConfig::default()
            });
            if !smoke {
                let _ = sharded.schedule(&fleet, &server, problem.lambda, &curve, None, &budget);
            }
            let t = Instant::now();
            let mut out = sharded.schedule(&fleet, &server, problem.lambda, &curve, None, &budget);
            for _ in 1..reps {
                out = sharded.schedule(&fleet, &server, problem.lambda, &curve, None, &budget);
            }
            rows.push(Row {
                devices: n,
                shards: k,
                secs: t.elapsed().as_secs_f64() / reps as f64,
                selected: out.num_selected(),
                migrations: out.migrations,
                energy_saved_j: out.energy_saved_j,
            });
            print_row(rows.last().unwrap());
        }

        let best = rows
            .iter()
            .filter(|r| r.devices == n && r.shards > 1)
            .map(|r| r.secs)
            .fold(f64::INFINITY, f64::min);
        println!(
            "  N={n}: monolithic {:.4} s, best sharded {:.4} s (speedup {:.2}x)\n",
            mono_secs,
            best,
            mono_secs / best
        );
    }

    let artifact = Json::obj([
        ("bench", Json::Str("fleet_scaling".into())),
        ("smoke", Json::Bool(smoke)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("devices", Json::Num(r.devices as f64)),
                            ("shards", Json::Num(r.shards as f64)),
                            ("secs", Json::Num(r.secs)),
                            ("selected", Json::Num(r.selected as f64)),
                            ("migrations", Json::Num(r.migrations as f64)),
                            ("energy_saved_j", Json::Num(r.energy_saved_j)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    std::fs::write(path, format!("{artifact}\n")).expect("write BENCH_fleet.json");
    println!("wrote {path}");
}

fn print_row(r: &Row) {
    println!(
        "{:>9} {:>7} {:>10.4} {:>9} {:>11} {:>13.1}",
        r.devices, r.shards, r.secs, r.selected, r.migrations, r.energy_saved_j
    );
}
