//! `e2e` — the LPVS benchmark. See `README.md` beside `Cargo.toml` for
//! the workloads, the metrics and how to read them.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass of one workload
//! e2e --seed <n> [--smoke] [--repeat <k>] [--out <file>]         every workload, both passes
//! e2e compare <a.json> <b.json>                                  two result files, metric by metric
//! ```
//!
//! Every layer is timed from outside, around the crates' public
//! functions; the benchmark adds nothing to the program it measures.

mod catalog;
mod check;
mod compare;
mod host;
mod http;
mod layers;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

/// What one pass of one workload is asked to do.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: String,
    /// The only source of randomness; the program under test receives
    /// only inputs generated from it.
    pub seed: u64,
    /// How long the measured phase is sized for on the reference host.
    /// Work is a fixed function of this number, never of the clock, so
    /// one seed always yields one selection hash.
    pub seconds: u64,
    /// The traced pass: spans on, per-layer metrics out.
    pub trace: bool,
    /// Sizes ÷ 8: same code paths and checks in a few seconds.
    pub smoke: bool,
}

impl Spec {
    /// A population size, shrunk for `--smoke`.
    pub fn size(&self, full: usize) -> usize {
        if self.smoke {
            (full / 8).max(1)
        } else {
            full
        }
    }

    /// A repetition count sized for ten seconds, scaled to `--seconds`
    /// and never below `floor`.
    pub fn reps(&self, per_ten_seconds: usize, floor: usize) -> usize {
        let seconds = if self.smoke { 1 } else { self.seconds };
        (per_ten_seconds * seconds as usize / 10).max(floor)
    }
}

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !catalog::is_workload(&name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                cli.workload = Some(name);
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&cli.seconds) {
                    return Err("--seconds must be 1..=60".to_owned());
                }
            }
            "--repeat" => {
                cli.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if cli.repeat == 0 {
                    return Err("--repeat must be at least 1".to_owned());
                }
            }
            "--out" => cli.out = Some(value("--out")?),
            "--smoke" => cli.smoke = true,
            // `--trace 1`, `--trace 0`, or bare `--trace`.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(clean) if clean => ExitCode::SUCCESS,
            Ok(_) => ExitCode::from(1),
            Err(e) => {
                eprintln!("e2e compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("e2e: {e}\nusage: e2e [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]] [--smoke] [--repeat <k>] [--out <file>] | e2e compare <a.json> <b.json>");
            return ExitCode::from(2);
        }
    };
    let clean = match &cli.workload {
        Some(workload) => {
            let spec = Spec {
                workload: workload.clone(),
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
                smoke: cli.smoke,
            };
            report::run_one(&spec)
        }
        None => report::run_all(
            cli.seed,
            cli.seconds,
            cli.smoke,
            cli.repeat,
            cli.out.as_deref(),
        ),
    };
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn trace_takes_an_optional_value() {
        let cli = parse_cli(&args(
            "--workload cold-slot --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert!(!cli.trace);
        assert_eq!((cli.seed, cli.seconds), (7, 10));
        assert!(
            parse_cli(&args("--workload cold-slot --trace 1 --seed 3"))
                .unwrap()
                .trace
        );
        assert!(parse_cli(&args("--trace --smoke")).unwrap().trace);
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--seconds 0")).is_err());
    }

    #[test]
    fn smoke_shrinks_sizes_and_repetitions() {
        let mut spec = Spec {
            workload: "cold-slot".into(),
            seed: 1,
            seconds: 10,
            trace: false,
            smoke: false,
        };
        assert_eq!((spec.size(16_000), spec.reps(240, 8)), (16_000, 240));
        spec.seconds = 5;
        assert_eq!(spec.reps(240, 8), 120);
        spec.smoke = true;
        assert_eq!((spec.size(16_000), spec.reps(240, 8)), (2_000, 24));
    }
}
