//! End-to-end smoke: boot the real `lpvs-serve` binary, drive a
//! scripted load over loopback, kill it mid-horizon with SIGKILL, and
//! verify the restarted server resumes **bit-identically** — every
//! decision (selection, tier, shed floor) matches an uninterrupted
//! reference run, both across the kill and across a graceful
//! shutdown + reboot from the sealed final checkpoint.

mod common;

use common::{request, try_request, wait_phase, wait_schedule};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(60);
const SLOTS: usize = 9; // scripted slots 0..=8

/// Kills the child on drop so a failed assertion can't orphan servers.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn boot(dirs: &Dirs, resume: bool) -> Server {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lpvs-serve"));
    cmd.args([
        "--addr",
        "127.0.0.1:0",
        "--devices",
        "8",
        "--shards",
        "2",
        "--manual-tick",
        "--checkpoint-interval",
        "2",
    ]);
    cmd.arg("--checkpoint-dir").arg(&dirs.checkpoints);
    cmd.arg("--journal").arg(&dirs.journal);
    if resume {
        cmd.arg("--resume");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn lpvs-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read banner");
    let addr: SocketAddr = line
        .trim()
        .rsplit(' ')
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in banner {line:?}"));
    let server = Server { child, addr };
    wait_phase(addr, "live", WAIT);
    server
}

struct Dirs {
    root: PathBuf,
    checkpoints: PathBuf,
    journal: PathBuf,
}

impl Dirs {
    fn fresh(tag: &str) -> Dirs {
        let root = std::env::temp_dir().join(format!("lpvs-serve-smoke-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("mkdir");
        Dirs { checkpoints: root.join("checkpoints"), journal: root.join("ops.journal"), root }
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The scripted ops for slot `t`: three arrivals up front, then a
/// rotating telemetry stream with γ observations.
fn ops_for(addr: SocketAddr, t: usize) {
    if t == 0 {
        for device in 0..3 {
            let body = format!(
                "{{\"action\":\"arrive\",\"device\":{device},\"energy_j\":{},\"gamma\":0.3}}",
                18000 + 2500 * device
            );
            assert_eq!(request(addr, "POST", "/v1/sessions", &body).0, 202);
        }
        return;
    }
    let device = t % 3;
    let body = format!(
        "{{\"device\":{device},\"energy_j\":{},\"observed\":{}}}",
        21000 - 800 * t,
        0.35 + 0.01 * t as f64
    );
    assert_eq!(request(addr, "POST", "/v1/telemetry", &body).0, 202);
}

fn tick(addr: SocketAddr) {
    assert_eq!(request(addr, "POST", "/v1/tick", "{}").0, 202);
}

/// Runs slots `slots` of the script, recording each decision body as
/// it lands. A slot's decision is served inside the slot, so waiting
/// for it is also what keeps the next slot's ops out of this one: the
/// tick has been consumed and the queue drained by then.
fn drive(addr: SocketAddr, slots: std::ops::Range<usize>, decisions: &mut Vec<String>) {
    for t in slots {
        ops_for(addr, t);
        tick(addr);
        decisions.push(wait_schedule(addr, t, WAIT));
    }
}

fn shutdown_and_wait(mut server: Server) {
    let _ = try_request(server.addr, "POST", "/v1/shutdown", "{}");
    let status = server.child.wait().expect("wait");
    assert!(status.success(), "server exited uncleanly: {status:?}");
}

#[test]
fn kill_and_restart_resume_bit_identically() {
    // --- reference: one uninterrupted run --------------------------
    let ref_dirs = Dirs::fresh("ref");
    let server = boot(&ref_dirs, false);
    let ref_addr = server.addr;
    let mut reference: Vec<String> = Vec::new();
    drive(ref_addr, 0..SLOTS, &mut reference);
    assert_eq!(reference.len(), SLOTS);
    shutdown_and_wait(server);

    // --- victim: same script, SIGKILL after slot 4's decision ------
    let kill_dirs = Dirs::fresh("kill");
    let server = boot(&kill_dirs, false);
    let addr = server.addr;
    let mut resumed: Vec<String> = Vec::new();
    drive(addr, 0..5, &mut resumed);
    // Slot 4 is journaled and ops 0..4 are on disk, but its decision is
    // not durable yet (the log is flushed with the next checkpoint
    // round): a hard kill now loses only that compute.
    drop(server); // SIGKILL, no drain, no seal

    let server = boot(&kill_dirs, true);
    let addr = server.addr;
    // Recovery must repopulate the already-decided slots identically —
    // 0..=3 replayed from the decision log, 4 re-run from the journal.
    for (t, want) in reference.iter().enumerate().take(5) {
        let got = wait_schedule(addr, t, WAIT);
        assert_eq!(&got, want, "replayed decision for slot {t} diverged");
    }
    // Continue the script where the victim died.
    drive(addr, 5..SLOTS, &mut resumed);
    assert_eq!(resumed.len(), SLOTS);
    for (t, (got, want)) in resumed.iter().zip(&reference).enumerate() {
        assert_eq!(got, want, "post-kill decision for slot {t} diverged from reference");
    }

    // The restarted server still serves metrics.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains("serve_slots_total"), "metrics missing slot counter:\n{metrics}");
    shutdown_and_wait(server);

    // --- reboot the reference from its sealed final checkpoint -----
    assert!(has_checkpoints(&ref_dirs.checkpoints), "graceful shutdown sealed no checkpoint");
    let server = boot(&ref_dirs, true);
    let addr = server.addr;
    for (t, want) in reference.iter().enumerate() {
        let got = wait_schedule(addr, t, WAIT);
        assert_eq!(&got, want, "sealed-checkpoint reboot diverged at slot {t}");
    }
    shutdown_and_wait(server);
}

fn has_checkpoints(dir: &Path) -> bool {
    dir.join("manifest.bin").is_file()
}
