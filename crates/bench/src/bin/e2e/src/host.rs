//! The host block printed with every result: a number counts only with
//! the hardware it was measured on.

use lpvs_obs::json::Json;
use std::process::Command;

/// Solver shards and load-generator threads every workload uses: the
/// reference container has two cores, and a benchmark that runs more
/// threads than cores measures the scheduler of the host, not ours.
pub const SHARDS: usize = 2;
pub const CLIENT_THREADS: usize = 2;

/// CPU feature flags that change which code runs or how fast.
const FLAGS_OF_INTEREST: [&str; 8] = [
    "sse4_2",
    "avx",
    "avx2",
    "fma",
    "bmi2",
    "avx512f",
    "avx512vl",
    "hypervisor",
];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_flags() -> Vec<String> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let line = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .unwrap_or("");
    let present: Vec<&str> = line.split_whitespace().collect();
    FLAGS_OF_INTEREST
        .iter()
        .filter(|f| present.contains(f))
        .map(|f| (*f).to_owned())
        .collect()
}

fn cpu_model() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_owned(), |m| m.trim().to_owned())
}

/// First line of a command's output, or "unknown" (the driver's checkout
/// is not a git repository, and a host may lack rustc on PATH).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `VmHWM` of this process in MB: the high-water mark of resident
/// memory. One process runs one workload, so the mark is per workload.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds a fixed, dependent integer-and-float loop takes (median of
/// five, ≈ 2 ms when calm): a reading of how fast the host's cores are
/// right now. The reference container is a shared VM; every result
/// carries this reading from before and after the workload. It shows a
/// CPU-side stall; the slower drift that moves the memory-bound solves
/// by 10–40 % over minutes does not show in it.
pub fn calibration_s() -> f64 {
    let mut secs = [0.0; 5];
    for s in &mut secs {
        let start = std::time::Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0.0f64;
        for _ in 0..1_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += (x >> 40) as f64 * 1e-9;
        }
        std::hint::black_box(acc);
        *s = start.elapsed().as_secs_f64();
    }
    crate::stats::median(&secs)
}

pub fn block(seed: u64) -> Json {
    let cores = nproc();
    let oversubscribed = SHARDS > cores || CLIENT_THREADS > cores;
    if oversubscribed {
        eprintln!(
            "e2e: OVERSUBSCRIBED — {SHARDS} shards / {CLIENT_THREADS} client threads on {cores} core(s); timings measure contention"
        );
    }
    Json::obj([
        ("nproc", Json::Num(cores as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        (
            "cpu_flags",
            Json::Arr(cpu_flags().into_iter().map(Json::Str).collect()),
        ),
        (
            "kernel_path",
            Json::Str(lpvs_core::kernels::active_path().name().to_owned()),
        ),
        ("shards", Json::Num(SHARDS as f64)),
        ("client_threads", Json::Num(CLIENT_THREADS as f64)),
        ("oversubscribed", Json::Bool(oversubscribed)),
        ("rustc", Json::Str(first_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Str(seed.to_string())),
    ])
}
