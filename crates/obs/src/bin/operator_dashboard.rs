//! `operator-dashboard` — render a running `lpvs-serve`'s metrics as
//! operator tables.
//!
//! `--scrape <addr>` pulls `/metrics` over plain TCP, parses the
//! Prometheus text back into a snapshot, and renders it (`--raw` dumps
//! the exposition text verbatim instead). Library users render their
//! own registry with `lpvs_obs::dashboard::render_dashboard`
//! (`examples/operator_dashboard.rs`).

use lpvs_obs::dashboard::{parse_prometheus, render_dashboard, scrape};
use std::io::Write;

/// Prints without panicking when stdout is a closed pipe (`… | head`).
fn emit(text: &str) {
    let _ = std::io::stdout().write_all(text.as_bytes());
}

const USAGE: &str = "usage: operator-dashboard --scrape <addr> [--raw]\n\
       --scrape <addr>  pull /metrics from a running lpvs-serve at host:port\n\
       --raw            with --scrape, print the raw exposition text";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scrape_addr: Option<String> = None;
    let mut raw = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scrape" => match it.next() {
                Some(addr) => scrape_addr = Some(addr.clone()),
                None => {
                    eprintln!("--scrape needs an address\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--raw" => raw = true,
            "--help" | "-h" => {
                emit(USAGE);
                emit("\n");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let Some(addr) = scrape_addr else {
        eprintln!("--scrape is required\n{USAGE}");
        std::process::exit(2);
    };
    let text = match scrape(&addr) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("scrape {addr} failed: {e}");
            std::process::exit(1);
        }
    };
    if raw {
        emit(&text);
        return;
    }
    match parse_prometheus(&text) {
        Ok(snapshot) => emit(&render_dashboard(&snapshot, &addr)),
        Err(e) => {
            eprintln!("could not parse exposition text from {addr}: {e}");
            std::process::exit(1);
        }
    }
}
