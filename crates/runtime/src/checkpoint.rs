//! Checkpoint/restore for the slot pipeline.
//!
//! Everything durable about a pipelined run lives here:
//!
//! * **Shard snapshots** — a versioned, checksummed container around a
//!   shard's [`BayesBank`] (hand-encoded via `lpvs_bayes::codec`) and
//!   its delta memo (older files may also carry a [`FleetSlice`]).
//!   Layout: `magic u64 | version u32 | payload_len u64 | crc64 u64 |
//!   payload`. The CRC covers the payload; a single flipped bit makes
//!   the generation unusable and the recovery ladder moves on.
//! * **[`CheckpointStore`]** — per-shard generation directories
//!   (`shard-{s}/gen-{g:08}.ckpt`), written temp-then-rename so a crash
//!   mid-write never leaves a half snapshot under a valid name, with
//!   the three newest generations retained. Optional deterministic
//!   corruption injection (a fault mode, not an accident model) flips
//!   the last payload byte of selected generations *after* the CRC is
//!   computed, so the checksum rejects them on load.
//! * **[`ShardJournal`]** — the hub-side write-ahead log of every bank
//!   operation it sent a shard since the run started. A snapshot at
//!   slot `c` records the journal mark at that instant; replaying
//!   `journal[mark..]` onto the decoded bank reproduces the bank a
//!   dying worker shipped home, bit-for-bit. This is what makes
//!   snapshot-based respawn safe against double-applied observations: a
//!   restore never re-applies anything the checkpoint already holds.
//! * **Run manifest + decision log** — `manifest.bin` names the slot
//!   and per-shard generations of the newest complete checkpoint round;
//!   `decisions.log` appends one checksummed frame per joined solve.
//!   Together they let a *restarted hub* resume mid-horizon: restore
//!   the banks, replay the logged decisions through the sink, re-enter
//!   the slot loop at the manifest slot.
//! * **[`RecoveryReport`]** — the structured per-shard account of
//!   deaths, retries, replayed slots, and checkpoint generations that
//!   replaces the old boolean-ish `fell_back` field.

use crate::shard::{splitmix64, unit};
use lpvs_bayes::codec::bank_from_bytes;
use lpvs_bayes::BayesBank;
use lpvs_codec::{crc64, CodecError, Reader, Writer};
use lpvs_core::delta::Continuity;
use lpvs_core::fleet::DeviceFleet;
use lpvs_core::phase2::Phase2Stats;
use lpvs_core::scheduler::{Degradation, Schedule, ScheduleStats};
use lpvs_edge::fleet::GOLDEN_GAMMA;
use lpvs_edge::shard::ShardDeltaMemo;
use lpvs_survey::curve::{AnxietyCurve, LEVELS};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Default checkpoint cadence: one round every this many slots.
pub const DEFAULT_INTERVAL: usize = 8;

/// Snapshot generations retained per shard.
const GENERATIONS: usize = 3;

/// Magic number of a shard snapshot file (`"LPVSCKPT"`).
pub const SNAPSHOT_MAGIC: u64 = 0x4C50_5653_434B_5054;

/// Magic number of a run manifest file (`"LPVSMANF"`).
pub const MANIFEST_MAGIC: u64 = 0x4C50_5653_4D41_4E46;

/// On-disk format version. Bump on any layout change; unknown versions
/// are rejected with [`CodecError::BadVersion`], never misread.
///
/// Version 2 appends the shard's delta memo to the snapshot payload.
/// Version-1 files (no memo section) still decode — their memo restores
/// as `None`, which the runtime treats as all-dirty: the first solve
/// after such a restore is cold.
///
/// Version 3 stores a fleet slice's chunk duration once per row, not
/// once per chunk. Version-1/2 slices still decode: a row whose
/// durations are all bit-equal becomes that one Δ, any other row fails
/// closed ([`CodecError::Malformed`]).
///
/// Version 4 writes the memo's whole [`Continuity`], the curve's levels
/// included; a version-2/3 memo names no curve and restores as `None`.
pub const SNAPSHOT_VERSION: u32 = 4;

/// The oldest on-disk format version [`ShardSnapshot::decode`] still
/// accepts.
pub const SNAPSHOT_MIN_VERSION: u32 = 1;

/// Where and how often the pipeline checkpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointConfig {
    /// Root directory of the store (created if absent).
    pub dir: PathBuf,
    /// Slots between checkpoint rounds (≥ 1).
    pub interval: usize,
    /// Deterministic corruption injection: `(rate, seed)` — each
    /// written generation is corrupted with probability `rate`, hashed
    /// per `(seed, shard, gen)` so runs reproduce bit-for-bit.
    pub corruption: Option<(f64, u64)>,
}

impl CheckpointConfig {
    /// A config rooted at `dir` with the default cadence.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), interval: DEFAULT_INTERVAL, corruption: None }
    }
}

/// A shard's slice of the fleet gathered for the slot a snapshot was
/// taken in, as formats 1–3 can carry one. Nothing reads it — a respawn
/// re-dispatches from the hub's pending solve and a resume re-gathers —
/// so the runtime seals none; it still decodes, so older files stay
/// readable.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSlice {
    /// Global device id of each row, slice order.
    pub device_ids: Vec<usize>,
    /// The columnar rows themselves.
    pub fleet: DeviceFleet,
}

/// One decoded shard snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Shard index the snapshot belongs to.
    pub shard: usize,
    /// Slot the snapshot was requested at (bank state = after
    /// `prepare(slot)`).
    pub slot: usize,
    /// The γ bank, decoded bit-exactly.
    pub bank: BayesBank,
    /// The fleet slice a file carries, if any (the runtime seals none).
    pub fleet: Option<FleetSlice>,
    /// The shard's delta memo at snapshot time (`None` for version-1–3
    /// files, or when the shard had no live memo). Restoring it lets a
    /// resumed run keep solving incrementally; a `None` restore just
    /// means the first post-restore solve is cold.
    pub memo: Option<ShardDeltaMemo>,
}

impl ShardSnapshot {
    /// Seals a snapshot into its on-disk container bytes. `bank_bytes`
    /// is the worker-encoded bank payload (`lpvs_bayes::codec`);
    /// `fleet` a [`FleetSlice`] to carry (the store passes none);
    /// `memo_bytes` the worker-encoded delta memo (`memo_to_bytes`),
    /// when one was live.
    pub fn seal(
        shard: usize,
        slot: usize,
        bank_bytes: &[u8],
        fleet: Option<(&[usize], &DeviceFleet)>,
        memo_bytes: Option<&[u8]>,
    ) -> Vec<u8> {
        let mut payload = Writer::with_capacity(64 + bank_bytes.len());
        payload.put_usize(shard);
        payload.put_usize(slot);
        payload.put_bytes(bank_bytes);
        match fleet {
            Some((device_ids, fleet)) => {
                payload.put_bool(true);
                payload.put_usizes(device_ids);
                fleet.encode(&mut payload);
            }
            None => payload.put_bool(false),
        }
        match memo_bytes {
            Some(bytes) => {
                payload.put_bool(true);
                payload.put_bytes(bytes);
            }
            None => payload.put_bool(false),
        }
        let payload = payload.into_bytes();
        let mut w = Writer::with_capacity(28 + payload.len());
        w.put_u64(SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        w.put_usize(payload.len());
        w.put_u64(crc64(&payload));
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&payload);
        bytes
    }

    /// Decodes container bytes back into a snapshot, verifying magic,
    /// version, and checksum before touching the payload.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadMagic`]/[`CodecError::BadVersion`] on a foreign
    /// or future file, [`CodecError::BadChecksum`] on any payload
    /// corruption, and the payload decoders' own errors otherwise.
    pub fn decode(bytes: &[u8]) -> Result<ShardSnapshot, CodecError> {
        let mut r = Reader::new(bytes);
        if r.u64()? != SNAPSHOT_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.u32()?;
        if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&version) {
            return Err(CodecError::BadVersion(version));
        }
        let len = r.usize_()?;
        let crc = r.u64()?;
        if len != r.remaining() {
            return Err(CodecError::Truncated);
        }
        let payload = r.raw(len)?;
        if crc64(payload) != crc {
            return Err(CodecError::BadChecksum);
        }
        let upgraded;
        let mut p = Reader::new(payload);
        let shard = p.usize_()?;
        let slot = p.usize_()?;
        let bank = bank_from_bytes(p.bytes()?)?;
        let fleet = if p.bool_()? {
            let device_ids = p.usizes()?;
            if version < 3 {
                upgraded = upgrade_legacy_fleet(&mut p)?;
                p = Reader::new(&upgraded);
            }
            let fleet = DeviceFleet::decode(&mut p)?;
            if device_ids.len() != fleet.len() {
                return Err(CodecError::Malformed("fleet slice id count"));
            }
            Some(FleetSlice { device_ids, fleet })
        } else {
            None
        };
        // Version 1 predates delta memos, and a version-2/3 memo names no
        // curve; restoring none is always sound (the next solve is cold).
        let memo = if version >= 2 && p.bool_()? {
            let bytes = p.bytes()?;
            (version >= 4).then(|| memo_from_bytes(bytes)).transpose()?
        } else {
            None
        };
        p.expect_end()?;
        Ok(ShardSnapshot { shard, slot, bank, fleet, memo })
    }
}

/// Rewrites the rest of a version-1/2 payload, from its fleet slice on,
/// in the version-3 layout. Every runtime that sealed one gave a row's
/// chunks one Δ, so a row whose per-chunk durations are not all
/// bit-equal (or that has no chunks) is malformed.
fn upgrade_legacy_fleet(p: &mut Reader<'_>) -> Result<Vec<u8>, CodecError> {
    let (offsets, rates, secs) = (p.usizes()?, p.f64s()?, p.f64s()?);
    let malformed = CodecError::Malformed("legacy chunk durations");
    let row = |w: &[usize]| match secs.get(w[0]..w[1]).and_then(<[f64]>::split_first) {
        Some((d, rest)) if rest.iter().all(|x| x.to_bits() == d.to_bits()) => Ok(*d),
        _ => Err(malformed),
    };
    let row_secs: Vec<f64> = offsets.windows(2).map(row).collect::<Result<_, _>>()?;
    if secs.len() != rates.len() {
        return Err(malformed);
    }
    let mut w = Writer::new();
    w.put_usizes(&offsets);
    w.put_f64s(&rates);
    w.put_f64s(&row_secs);
    Ok([w.bytes(), p.raw(p.remaining())?].concat())
}

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem trouble.
    Io(std::io::Error),
    /// A file decoded to garbage.
    Codec(CodecError),
    /// The manifest and the store disagree structurally.
    Manifest(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
            CheckpointError::Codec(e) => write!(f, "checkpoint codec: {e}"),
            CheckpointError::Manifest(what) => write!(f, "checkpoint manifest: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

/// One bank operation the hub sent a shard — the unit of the
/// write-ahead journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// Fold an observed power-reduction ratio (`observe_or_forget`).
    Observe(usize, f64),
    /// Inflate a device's posterior by `stale` slots of staleness.
    Forget(usize, u32),
}

/// The hub-side write-ahead log of one shard's bank operations.
///
/// Marks are *absolute* operation counts since the run started
/// (`base + ops.len()`), so they stay valid across truncation: a
/// snapshot taken at mark `m` plus `replay_onto(bank, m)` reproduces
/// the live bank exactly, however many older ops have been dropped.
#[derive(Debug, Default)]
pub struct ShardJournal {
    base: u64,
    ops: VecDeque<JournalOp>,
}

impl ShardJournal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one operation.
    pub fn push(&mut self, op: JournalOp) {
        self.ops.push_back(op);
    }

    /// The current absolute mark — records the journal position a
    /// snapshot corresponds to.
    pub fn mark(&self) -> u64 {
        self.base + self.ops.len() as u64
    }

    /// Drops every operation before absolute mark `mark` (a no-op if
    /// already truncated past it). Called once no retained snapshot
    /// generation predates `mark`.
    pub fn truncate_to(&mut self, mark: u64) {
        while self.base < mark {
            if self.ops.pop_front().is_none() {
                self.base = mark;
                return;
            }
            self.base += 1;
        }
    }

    /// Replays every operation at or after absolute mark `from` onto
    /// `bank`, returning how many were applied.
    ///
    /// # Panics
    ///
    /// Panics if `from` predates the journal's retained window — the
    /// store must never hand out a generation older than the oldest
    /// kept mark.
    pub fn replay_onto(&self, bank: &mut BayesBank, from: u64) -> usize {
        assert!(from >= self.base, "journal truncated past restore mark");
        let skip = (from - self.base) as usize;
        let mut applied = 0;
        for op in self.ops.iter().skip(skip) {
            match op {
                JournalOp::Observe(d, ratio) => bank.observe_or_forget(*d, *ratio),
                JournalOp::Forget(d, stale) => bank.forget(*d, *stale),
            }
            applied += 1;
        }
        applied
    }
}

/// One joined fleet decision, as logged for hub-restart replay. The
/// full `FleetSchedule` is not persisted — a staging sink only needs
/// the selection, its device ids, and the degradation tier.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedDecision {
    /// Slot the decision was computed for.
    pub slot: usize,
    /// Worst degradation rung any shard fell to.
    pub tier: Degradation,
    /// Global device id of each fleet row, fleet order.
    pub device_ids: Vec<usize>,
    /// Selection in fleet order.
    pub selected: Vec<bool>,
}

fn degradation_to_u8(tier: Degradation) -> u8 {
    match tier {
        Degradation::Exact => 0,
        Degradation::Greedy => 2,
        Degradation::ReusedPrevious => 3,
        Degradation::Passthrough => 4,
    }
}

fn degradation_from_u8(byte: u8) -> Result<Degradation, CodecError> {
    Ok(match byte {
        0 => Degradation::Exact,
        // Tag 1 was the Lagrangian rung, since retired from the ladder:
        // a record written while it existed loads as the next rung down.
        1 | 2 => Degradation::Greedy,
        3 => Degradation::ReusedPrevious,
        4 => Degradation::Passthrough,
        _ => return Err(CodecError::Malformed("degradation tag")),
    })
}

/// Encodes a shard's delta memo for the snapshot payload. The schedule's
/// wall-clock `runtime` is not persisted (it restores as zero) — it is
/// measurement, not state, and excluding it keeps restored memos
/// comparable across machines.
pub(crate) fn memo_to_bytes(memo: &ShardDeltaMemo) -> Vec<u8> {
    let mut w = Writer::with_capacity(64 + 8 * LEVELS + 9 * memo.indices.len() + memo.schedule.selected.len());
    let Continuity { epoch, lambda, curve } = &memo.continuity;
    w.put_u64(*epoch);
    w.put_usizes(&memo.indices);
    w.put_f64(memo.compute_capacity);
    w.put_f64(memo.storage_capacity_gb);
    w.put_f64(*lambda);
    // The curve itself, not a hash of it: a collision would be a silent
    // wrong reuse.
    w.put_f64s(curve.values());
    w.put_bools(&memo.schedule.selected);
    let stats = &memo.schedule.stats;
    w.put_f64(stats.objective);
    w.put_f64(stats.energy_saved_j);
    w.put_usize(stats.infeasible_devices);
    w.put_usize(stats.phase1_nodes);
    w.put_usize(stats.phase1_pivots);
    w.put_usize(stats.phase2.swaps_tried);
    w.put_usize(stats.phase2.swaps_accepted);
    w.put_usize(stats.phase2.additions);
    w.put_u8(degradation_to_u8(stats.degradation));
    w.put_usize(stats.rejected_devices);
    w.into_bytes()
}

/// Decodes a delta memo encoded by [`memo_to_bytes`].
pub(crate) fn memo_from_bytes(bytes: &[u8]) -> Result<ShardDeltaMemo, CodecError> {
    let mut r = Reader::new(bytes);
    let epoch = r.u64()?;
    let indices = r.usizes()?;
    let compute_capacity = r.f64()?;
    let storage_capacity_gb = r.f64()?;
    let lambda = r.f64()?;
    let levels: Option<[f64; LEVELS]> = r.f64s()?.try_into().ok();
    let curve = levels.and_then(AnxietyCurve::try_from_levels).ok_or(CodecError::Malformed("memo curve"))?;
    let selected = r.bools()?;
    if selected.len() != indices.len() {
        return Err(CodecError::Malformed("memo selection length"));
    }
    let stats = ScheduleStats {
        objective: r.f64()?,
        energy_saved_j: r.f64()?,
        infeasible_devices: r.usize_()?,
        phase1_nodes: r.usize_()?,
        phase1_pivots: r.usize_()?,
        phase2: Phase2Stats {
            swaps_tried: r.usize_()?,
            swaps_accepted: r.usize_()?,
            additions: r.usize_()?,
        },
        degradation: degradation_from_u8(r.u8()?)?,
        rejected_devices: r.usize_()?,
        runtime: Duration::ZERO,
    };
    r.expect_end()?;
    Ok(ShardDeltaMemo {
        continuity: Continuity { epoch, lambda, curve },
        indices,
        compute_capacity,
        storage_capacity_gb,
        schedule: Schedule { selected, stats, ..Schedule::default() },
        scores: None,
    })
}

/// The newest complete checkpoint round: resume the run at `slot`,
/// restoring shard `s` from generation `generations[s]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Slot to re-enter the loop at (bank state = after
    /// `prepare(slot)`).
    pub slot: usize,
    /// Per-shard snapshot generation numbers.
    pub generations: Vec<u64>,
}

/// One retained snapshot generation of one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct Generation {
    /// Monotone per-shard generation number (continues across runs).
    pub gen: u64,
    /// Slot the snapshot was requested at.
    pub slot: usize,
    /// Journal mark the snapshot corresponds to.
    pub mark: u64,
    /// File path.
    pub path: PathBuf,
}

/// Per-shard state the store keeps.
struct ShardFiles {
    dir: PathBuf,
    next_gen: u64,
    /// Generations written *this run*, oldest first — the only ones the
    /// in-run recovery ladder may use (marks are per-run).
    gens: Vec<Generation>,
}

/// A pending checkpoint round: requested at `slot`, with each shard's
/// journal mark captured at request time.
struct PendingRound {
    slot: usize,
    marks: Vec<u64>,
    done: Vec<bool>,
}

/// The on-disk checkpoint store: snapshots, manifest, decision log.
pub struct CheckpointStore {
    dir: PathBuf,
    corruption: Option<(f64, u64)>,
    shards: Vec<ShardFiles>,
    round: Option<PendingRound>,
    decisions: Option<std::io::BufWriter<fs::File>>,
    /// Decision slots already durable when this store opened (resume:
    /// don't re-log replayed decisions).
    logged_through: Option<usize>,
    checkpoints_written: usize,
    checkpoints_corrupted: usize,
    generations_rejected: usize,
}

impl CheckpointStore {
    /// Opens (creating directories as needed) a store for `shards`
    /// shard workers. Pre-existing generation files are scanned so the
    /// per-shard generation counters continue monotonically across hub
    /// restarts.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on directory or scan trouble.
    pub fn create(config: &CheckpointConfig, shards: usize) -> Result<Self, CheckpointError> {
        assert!(config.interval >= 1, "checkpoint interval must be >= 1");
        let mut shard_files = Vec::with_capacity(shards);
        for s in 0..shards {
            let dir = config.dir.join(format!("shard-{s}"));
            fs::create_dir_all(&dir)?;
            let mut next_gen = 0u64;
            for entry in fs::read_dir(&dir)? {
                let name = entry?.file_name();
                let name = name.to_string_lossy();
                if let Some(g) = name
                    .strip_prefix("gen-")
                    .and_then(|rest| rest.strip_suffix(".ckpt"))
                    .and_then(|digits| digits.parse::<u64>().ok())
                {
                    next_gen = next_gen.max(g + 1);
                }
            }
            shard_files.push(ShardFiles { dir, next_gen, gens: Vec::new() });
        }
        Ok(Self {
            dir: config.dir.clone(),
            corruption: config.corruption,
            shards: shard_files,
            round: None,
            decisions: None,
            logged_through: None,
            checkpoints_written: 0,
            checkpoints_corrupted: 0,
            generations_rejected: 0,
        })
    }

    /// Starts a checkpoint round: the hub has just sent every worker a
    /// `Checkpoint` request for `slot`, with `marks[s]` the shard-`s`
    /// journal mark at that instant.
    pub fn begin_round(&mut self, slot: usize, marks: Vec<u64>) {
        debug_assert_eq!(marks.len(), self.shards.len());
        let done = vec![false; marks.len()];
        self.round = Some(PendingRound { slot, marks, done });
    }

    /// Persists one shard's snapshot of the pending round: seals the
    /// container, applies injected corruption, writes temp-then-rename,
    /// evicts generations beyond the retention bound. Returns the
    /// per-shard journal-truncation marks when this write completed the
    /// round (the manifest has been written and the decision log
    /// flushed) — `None` while shards are still outstanding.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on write/rename trouble;
    /// [`CheckpointError::Manifest`] if no round is pending or the slot
    /// disagrees with it.
    pub fn persist_shard(
        &mut self,
        shard: usize,
        slot: usize,
        bank_bytes: &[u8],
        memo_bytes: Option<&[u8]>,
    ) -> Result<Option<Vec<u64>>, CheckpointError> {
        let started = std::time::Instant::now();
        let round = self.round.as_mut().ok_or(CheckpointError::Manifest("no pending round"))?;
        if round.slot != slot {
            return Err(CheckpointError::Manifest("snapshot slot outside pending round"));
        }
        let mark = round.marks[shard];
        let mut bytes = ShardSnapshot::seal(shard, slot, bank_bytes, None, memo_bytes);

        let files = &mut self.shards[shard];
        let gen = files.next_gen;
        files.next_gen += 1;
        if let Some((rate, seed)) = self.corruption {
            if corruption_hits(seed, shard, gen, rate) {
                // Flip the last payload byte *after* the CRC was
                // computed — the load path must reject this file.
                if let Some(last) = bytes.last_mut() {
                    *last ^= 0xFF;
                }
                self.checkpoints_corrupted += 1;
                lpvs_obs::inc("recovery_checkpoint_corrupt_total");
            }
        }
        let path = files.dir.join(format!("gen-{gen:08}.ckpt"));
        let tmp = files.dir.join(format!("gen-{gen:08}.ckpt.tmp"));
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, &path)?;
        files.gens.push(Generation { gen, slot, mark, path });
        while files.gens.len() > GENERATIONS {
            let evicted = files.gens.remove(0);
            let _ = fs::remove_file(&evicted.path);
        }
        self.checkpoints_written += 1;
        lpvs_obs::observe("recovery_checkpoint_seconds", started.elapsed().as_secs_f64());

        let round = self.round.as_mut().expect("round checked above");
        round.done[shard] = true;
        if round.done.iter().all(|&d| d) {
            let slot = round.slot;
            self.round = None;
            self.write_manifest(slot)?;
            self.flush_decisions()?;
            // The journal only needs to reach back to the oldest
            // generation still on disk for each shard.
            let marks = self
                .shards
                .iter()
                .map(|f| f.gens.first().map_or(0, |g| g.mark))
                .collect();
            return Ok(Some(marks));
        }
        Ok(None)
    }

    /// The recovery ladder's snapshot source: walks this run's
    /// generations newest→oldest, returning the first that decodes
    /// cleanly. Checksum-rejected generations are counted and skipped.
    pub fn restore_latest(&mut self, shard: usize) -> Option<(Generation, ShardSnapshot)> {
        let gens: Vec<Generation> = self.shards[shard].gens.iter().rev().cloned().collect();
        for generation in gens {
            match fs::read(&generation.path).map_err(CheckpointError::Io).and_then(|bytes| {
                ShardSnapshot::decode(&bytes).map_err(CheckpointError::Codec)
            }) {
                Ok(snapshot) => return Some((generation, snapshot)),
                Err(_) => {
                    self.generations_rejected += 1;
                    lpvs_obs::inc("recovery_generation_rejected_total");
                }
            }
        }
        None
    }

    /// Loads one specific generation of one shard (the manifest's
    /// choice, on hub restart).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file is unreadable,
    /// [`CheckpointError::Codec`] if it fails validation.
    pub fn load_generation(
        &self,
        shard: usize,
        gen: u64,
    ) -> Result<ShardSnapshot, CheckpointError> {
        let path = self.shards[shard].dir.join(format!("gen-{gen:08}.ckpt"));
        Ok(ShardSnapshot::decode(&fs::read(path)?)?)
    }

    /// Writes `manifest.bin` atomically, naming `slot` and each shard's
    /// newest generation.
    fn write_manifest(&mut self, slot: usize) -> Result<(), CheckpointError> {
        let mut payload = Writer::with_capacity(24 + 8 * self.shards.len());
        payload.put_usize(slot);
        payload.put_usize(self.shards.len());
        for files in &self.shards {
            let gen = files.gens.last().ok_or(CheckpointError::Manifest("shard has no generation"))?;
            payload.put_u64(gen.gen);
        }
        let payload = payload.into_bytes();
        let mut w = Writer::with_capacity(28 + payload.len());
        w.put_u64(MANIFEST_MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        w.put_usize(payload.len());
        w.put_u64(crc64(&payload));
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&payload);
        let tmp = self.dir.join("manifest.bin.tmp");
        fs::write(&tmp, &bytes)?;
        fs::rename(tmp, self.dir.join("manifest.bin"))?;
        Ok(())
    }

    /// Reads the run manifest, if one exists and validates.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on read trouble (a missing file is
    /// `Ok(None)`), [`CheckpointError::Codec`] on corruption.
    pub fn read_manifest(&self) -> Result<Option<RunManifest>, CheckpointError> {
        let bytes = match fs::read(self.dir.join("manifest.bin")) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut r = Reader::new(&bytes);
        if r.u64()? != MANIFEST_MAGIC {
            return Err(CodecError::BadMagic.into());
        }
        // The manifest layout has not changed across snapshot versions,
        // so a v1 manifest (written by a pre-delta hub) still resumes.
        let version = r.u32()?;
        if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&version) {
            return Err(CodecError::BadVersion(version).into());
        }
        let len = r.usize_()?;
        let crc = r.u64()?;
        if len != r.remaining() {
            return Err(CodecError::Truncated.into());
        }
        let payload = r.raw(len)?;
        if crc64(payload) != crc {
            return Err(CodecError::BadChecksum.into());
        }
        let mut p = Reader::new(payload);
        let slot = p.usize_()?;
        let k = p.usize_()?;
        if k != self.shards.len() {
            return Err(CheckpointError::Manifest("manifest shard count mismatch"));
        }
        let generations = (0..k).map(|_| p.u64()).collect::<Result<Vec<_>, _>>()?;
        p.expect_end().map_err(CheckpointError::Codec)?;
        Ok(Some(RunManifest { slot, generations }))
    }

    /// Appends one decision frame to `decisions.log` (buffered; durable
    /// at the next manifest write). Decisions at or before the slot the
    /// log already covered when this store opened are skipped, so a
    /// resumed run's replayed prefix is not double-logged.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on append trouble.
    pub fn log_decision(&mut self, decision: &LoggedDecision) -> Result<(), CheckpointError> {
        if self.logged_through.is_some_and(|through| decision.slot <= through) {
            return Ok(());
        }
        if self.decisions.is_none() {
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join("decisions.log"))?;
            self.decisions = Some(std::io::BufWriter::new(file));
        }
        let mut payload = Writer::with_capacity(32 + 9 * decision.device_ids.len());
        payload.put_usize(decision.slot);
        payload.put_u8(degradation_to_u8(decision.tier));
        payload.put_usizes(&decision.device_ids);
        payload.put_bools(&decision.selected);
        let payload = payload.into_bytes();
        let mut frame = Writer::with_capacity(16 + payload.len());
        frame.put_usize(payload.len());
        frame.put_u64(crc64(&payload));
        let writer = self.decisions.as_mut().expect("opened above");
        writer.write_all(frame.bytes())?;
        writer.write_all(&payload)?;
        Ok(())
    }

    /// Flushes the decision log to disk.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on flush trouble.
    pub fn flush_decisions(&mut self) -> Result<(), CheckpointError> {
        if let Some(writer) = self.decisions.as_mut() {
            writer.flush()?;
            writer.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// Reads every durable decision, tolerating a torn tail (a frame
    /// cut off mid-write ends the log) and deduplicating repeated slots
    /// keep-first (a halt/resume cycle can re-append identical frames).
    /// Marks the newest slot read so subsequent [`Self::log_decision`]
    /// calls skip the replayed prefix.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on read trouble (missing log = empty).
    pub fn read_decisions(&mut self) -> Result<Vec<LoggedDecision>, CheckpointError> {
        let bytes = match fs::read(self.dir.join("decisions.log")) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut out: Vec<LoggedDecision> = Vec::new();
        let mut r = Reader::new(&bytes);
        let mut valid_end = 0u64;
        while r.remaining() > 0 {
            let Ok(len) = r.usize_() else { break };
            let Ok(crc) = r.u64() else { break };
            let Ok(payload) = r.raw(len) else { break };
            if crc64(payload) != crc {
                break; // torn or corrupt tail: everything before it stands
            }
            let mut p = Reader::new(payload);
            let decoded = (|| -> Result<LoggedDecision, CodecError> {
                let slot = p.usize_()?;
                let tier = degradation_from_u8(p.u8()?)?;
                let device_ids = p.usizes()?;
                let selected = p.bools()?;
                if device_ids.len() != selected.len() {
                    return Err(CodecError::Malformed("decision length mismatch"));
                }
                p.expect_end()?;
                Ok(LoggedDecision { slot, tier, device_ids, selected })
            })();
            let Ok(decision) = decoded else { break };
            valid_end = (bytes.len() - r.remaining()) as u64;
            if !out.iter().any(|d| d.slot == decision.slot) {
                out.push(decision);
            }
        }
        if (valid_end as usize) < bytes.len() {
            // Chop the torn tail so frames appended from here on are
            // reachable behind an unbroken prefix.
            debug_assert!(self.decisions.is_none(), "repair before appending");
            fs::OpenOptions::new()
                .write(true)
                .open(self.dir.join("decisions.log"))?
                .set_len(valid_end)?;
        }
        out.sort_by_key(|d| d.slot);
        self.logged_through = out.last().map(|d| d.slot);
        Ok(out)
    }

    /// Snapshots written this run (corrupted ones included).
    pub fn checkpoints_written(&self) -> usize {
        self.checkpoints_written
    }

    /// Snapshots deliberately corrupted by the injection fault.
    pub fn checkpoints_corrupted(&self) -> usize {
        self.checkpoints_corrupted
    }

    /// Generations the recovery ladder rejected (checksum/decode).
    pub fn generations_rejected(&self) -> usize {
        self.generations_rejected
    }
}

/// Deterministic per-(seed, shard, gen) corruption decision — same
/// splitmix64 recipe as stage faults, salted differently by its seed.
fn corruption_hits(seed: u64, shard: usize, gen: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    unit(splitmix64(seed ^ gen.wrapping_mul(GOLDEN_GAMMA) ^ ((shard as u64) << 48))) < rate
}

/// How far down the recovery ladder a run ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RecoveryTier {
    /// No worker ever died; the pipeline ran untouched.
    #[default]
    Pipelined,
    /// Workers died but every death was absorbed by respawn + restore;
    /// the pipeline finished the horizon.
    RecoveredPipelined,
    /// The retry budget ran out (or restore failed) and the run
    /// completed on the inline sequential engine.
    SequentialFallback,
}

/// Per-shard recovery accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ShardRecovery {
    /// Shard index.
    pub shard: usize,
    /// Worker deaths observed.
    pub deaths: u32,
    /// Respawns attempted.
    pub retries: u32,
    /// Slots between the restored checkpoint and the death, summed over
    /// restores (0 when the in-flight shipped state was used directly).
    pub slots_replayed: usize,
    /// Newest checkpoint generation a restore used, if any.
    pub generation_used: Option<u64>,
    /// Restores served from the dying worker's shipped in-flight state
    /// (no checkpoint store configured).
    pub inflight_restores: u32,
}

/// Why the supervisor snapshotted a shard's blackbox ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FlightReason {
    /// The shard worker died (stage fault or panic outside the
    /// contained solver).
    #[default]
    WorkerDeath,
    /// The run degraded to the inline sequential path.
    Fallback,
    /// A restore rejected checkpoint generations (checksum/decode) on
    /// the way to a bank.
    CorruptCheckpoint,
}

impl FlightReason {
    /// Stable lowercase tag for JSONL export.
    pub fn tag(self) -> &'static str {
        match self {
            FlightReason::WorkerDeath => "worker_death",
            FlightReason::Fallback => "fallback",
            FlightReason::CorruptCheckpoint => "corrupt_checkpoint",
        }
    }
}

/// One snapshot of a shard worker's blackbox
/// [`FlightRing`](lpvs_obs::FlightRing), taken by the supervisor at the moment it
/// learned something went wrong. The events are the last things the
/// worker did before dying — a solve begin with no matching end, the
/// last checkpoint it sealed, and so on.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlightRecording {
    /// Shard whose ring was snapshotted.
    pub shard: usize,
    /// Slot the hub was driving when the snapshot was taken.
    pub slot: usize,
    /// What prompted the snapshot (defaults to a death for
    /// `Default::default()` scaffolding).
    pub reason: FlightReason,
    /// The ring's surviving events, oldest first.
    pub events: Vec<lpvs_obs::FlightEvent>,
}

/// Replay determinism: two runs over the same driver must produce equal
/// [`RecoveryReport`]s, but `FlightEvent::at_us` is wall-clock.
/// Equality therefore covers everything *except* timestamps.
impl PartialEq for FlightRecording {
    fn eq(&self, other: &Self) -> bool {
        self.shard == other.shard
            && self.slot == other.slot
            && self.reason == other.reason
            && self.events.len() == other.events.len()
            && self
                .events
                .iter()
                .zip(&other.events)
                .all(|(x, y)| {
                    x.seq == y.seq
                        && x.kind == y.kind
                        && x.label == y.label
                        && x.a.to_bits() == y.a.to_bits()
                        && x.b.to_bits() == y.b.to_bits()
                })
    }
}

impl FlightRecording {
    /// This recording as one JSON object (one JSONL line).
    pub fn to_json(&self) -> lpvs_obs::json::Json {
        use lpvs_obs::json::Json;
        Json::obj([
            ("shard", Json::Num(self.shard as f64)),
            ("slot", Json::Num(self.slot as f64)),
            ("reason", Json::Str(self.reason.tag().into())),
            ("events", Json::Arr(self.events.iter().map(|e| e.to_json()).collect())),
        ])
    }
}

/// Renders flight recordings as JSONL, one recording per line.
pub fn flight_to_jsonl(recordings: &[FlightRecording]) -> String {
    let mut out = String::new();
    for rec in recordings {
        out.push_str(&rec.to_json().to_string());
        out.push('\n');
    }
    out
}

/// Structured recovery account of a run — replaces the old
/// `fell_back: Option<usize>` summary field.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Per-shard death/retry/replay accounting (empty when sequential).
    pub shards: Vec<ShardRecovery>,
    /// Snapshots written this run.
    pub checkpoints_written: usize,
    /// Snapshots deliberately corrupted by fault injection.
    pub checkpoints_corrupted: usize,
    /// Checkpoint generations rejected on load (checksum/decode).
    pub generations_rejected: usize,
    /// Slot a restarted hub resumed at, when the run was a resume.
    pub resumed_at: Option<usize>,
    /// Slot from which the hub held the shard states itself, if the
    /// workers fell back.
    pub fell_back: Option<usize>,
    /// Durable writes that failed: snapshots (a failed one leaves its
    /// generation missing and its round without a manifest), decision
    /// log appends and flushes.
    #[serde(default)]
    pub write_errors: usize,
    /// Blackbox snapshots taken on deaths, fallbacks, and corrupt
    /// restores (capped; timestamps are excluded from equality).
    pub flight: Vec<FlightRecording>,
}

impl RecoveryReport {
    /// An empty report sized for `shards` workers.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|shard| ShardRecovery { shard, ..Default::default() }).collect(),
            ..Default::default()
        }
    }

    /// Total worker deaths across shards.
    pub fn total_deaths(&self) -> u32 {
        self.shards.iter().map(|s| s.deaths).sum()
    }

    /// Where on the recovery ladder the run ended.
    pub fn final_tier(&self) -> RecoveryTier {
        if self.fell_back.is_some() {
            RecoveryTier::SequentialFallback
        } else if self.total_deaths() > 0 {
            RecoveryTier::RecoveredPipelined
        } else {
            RecoveryTier::Pipelined
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpvs_bayes::codec::bank_to_bytes;
    use lpvs_bayes::GammaEstimator;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Fresh scratch directory per test (no tempfile crate: the
    /// workspace vendors no such dependency), and the guard that removes
    /// it when the test ends, failing or not.
    fn scratch(tag: &str) -> (PathBuf, Scratch) {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("lpvs-ckpt-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        (dir.clone(), Scratch(dir))
    }

    struct Scratch(PathBuf);

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn learned_bank(n: usize, salt: f64) -> BayesBank {
        let mut estimators = vec![GammaEstimator::paper_default(); n];
        for (i, est) in estimators.iter_mut().enumerate() {
            for k in 0..=i {
                est.observe(0.14 + salt + 0.01 * (k % 9) as f64);
            }
        }
        BayesBank::from_estimators(estimators)
    }

    #[test]
    fn snapshot_round_trips_bank_and_fleet_slice() {
        let bank = learned_bank(11, 0.0);
        let bytes = ShardSnapshot::seal(2, 40, &bank_to_bytes(&bank), None, None);
        let snap = ShardSnapshot::decode(&bytes).expect("decode");
        assert_eq!(snap.shard, 2);
        assert_eq!(snap.slot, 40);
        assert_eq!(snap.bank, bank);
        assert!(snap.fleet.is_none());
        assert!(snap.memo.is_none());
    }

    fn sample_memo() -> ShardDeltaMemo {
        ShardDeltaMemo {
            continuity: Continuity { epoch: 17, lambda: 1.25, curve: AnxietyCurve::paper_shape() },
            indices: vec![2, 5, 9, 11],
            compute_capacity: 3.75,
            storage_capacity_gb: 42.5,
            schedule: Schedule {
                selected: vec![true, false, true, true],
                stats: ScheduleStats {
                    objective: -12.625,
                    energy_saved_j: 9_001.5,
                    infeasible_devices: 1,
                    phase1_nodes: 7,
                    phase1_pivots: 41,
                    phase2: Phase2Stats { swaps_tried: 5, swaps_accepted: 2, additions: 1 },
                    degradation: Degradation::Greedy,
                    rejected_devices: 0,
                    runtime: Duration::ZERO,
                },
                ..Schedule::default()
            },
            scores: None,
        }
    }

    #[test]
    fn delta_memo_round_trips_through_a_snapshot() {
        let memo = sample_memo();
        let bytes = memo_to_bytes(&memo);
        assert_eq!(memo_from_bytes(&bytes).expect("memo decode"), memo);
        let bank = learned_bank(4, 0.0);
        let sealed = ShardSnapshot::seal(1, 24, &bank_to_bytes(&bank), None, Some(&bytes));
        let snap = ShardSnapshot::decode(&sealed).expect("decode");
        let bits = |m: Option<&ShardDeltaMemo>| m.map(|m| m.continuity.curve.values().map(f64::to_bits));
        assert_eq!(bits(snap.memo.as_ref()), bits(Some(&memo)), "the curve's bits");
        assert_eq!(snap.memo, Some(memo));
        assert_eq!(snap.bank, bank);
    }

    /// A memo whose curve is no curve, or that ends early, fails the
    /// snapshot closed.
    #[test]
    fn a_junk_or_truncated_memo_fails_closed() {
        let bytes = memo_to_bytes(&sample_memo());
        let bank = bank_to_bytes(&learned_bank(3, 0.0));
        let decode = |memo: &[u8]| ShardSnapshot::decode(&ShardSnapshot::seal(0, 8, &bank, None, Some(memo)));
        // The first level follows the epoch, the four indices, both
        // capacities, λ and the level count.
        let level = 8 + 5 * 8 + 3 * 8 + 8;
        for junk in [f64::NAN, -0.25, 1.5] {
            let mut bad = bytes.clone();
            bad[level..level + 8].copy_from_slice(&junk.to_le_bytes());
            assert_eq!(decode(&bad), Err(CodecError::Malformed("memo curve")), "level {junk}");
        }
        for cut in [0, level + 4, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "a memo cut at {cut} decoded");
        }
    }

    #[test]
    fn a_retired_tier_tag_decodes_as_greedy_and_an_unknown_one_fails_closed() {
        // A memo, then the same memo in a snapshot, whose tier tag
        // is rewritten: 1 was written while the ladder had a rung
        // between exact and greedy, 5 never was.
        let retag = |tag: u8| {
            let mut bytes = memo_to_bytes(&sample_memo());
            let at = bytes.len() - 9; // the tag, then `rejected_devices`
            assert_eq!(bytes[at], 2, "the sample memo is greedy");
            bytes[at] = tag;
            bytes
        };
        assert_eq!(memo_from_bytes(&retag(1)), Ok(sample_memo()));
        let bank = bank_to_bytes(&learned_bank(3, 0.0));
        let sealed = ShardSnapshot::seal(0, 8, &bank, None, Some(&retag(1)));
        assert_eq!(ShardSnapshot::decode(&sealed).expect("decodes").memo, Some(sample_memo()));
        assert_eq!(memo_from_bytes(&retag(5)), Err(CodecError::Malformed("degradation tag")));

        // The decision log: a tag-1 frame reads as greedy, and a tag-5
        // frame ends the log like any frame that does not decode.
        let frame = |slot: usize, tag: u8| {
            let mut payload = Writer::with_capacity(64);
            payload.put_usize(slot);
            payload.put_u8(tag);
            payload.put_usizes(&[4, 9]);
            payload.put_bools(&[true, false]);
            let payload = payload.into_bytes();
            let mut w = Writer::with_capacity(16 + payload.len());
            w.put_usize(payload.len());
            w.put_u64(crc64(&payload));
            let mut bytes = w.into_bytes();
            bytes.extend_from_slice(&payload);
            bytes
        };
        let (dir, _scratch) = scratch("retired-tag");
        fs::write(dir.join("decisions.log"), [frame(0, 1), frame(1, 5), frame(2, 0)].concat())
            .unwrap();
        let mut store = CheckpointStore::create(&CheckpointConfig::new(&dir), 1).expect("create");
        let greedy = LoggedDecision {
            slot: 0,
            tier: Degradation::Greedy,
            device_ids: vec![4, 9],
            selected: vec![true, false],
        };
        assert_eq!(store.read_decisions().expect("read"), vec![greedy]);
    }

    #[test]
    fn snapshots_before_version_four_restore_with_no_memo() {
        // Hand-seal a v1 container: same payload layout minus the memo
        // section, stamped with version 1.
        let bank = learned_bank(6, 0.02);
        let mut payload = Writer::with_capacity(64);
        payload.put_usize(3);
        payload.put_usize(16);
        payload.put_bytes(&bank_to_bytes(&bank));
        payload.put_bool(false); // no fleet slice
        let payload = payload.into_bytes();
        let mut w = Writer::with_capacity(28 + payload.len());
        w.put_u64(SNAPSHOT_MAGIC);
        w.put_u32(1);
        w.put_usize(payload.len());
        w.put_u64(crc64(&payload));
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&payload);
        let snap = ShardSnapshot::decode(&bytes).expect("v1 decodes");
        assert_eq!(snap.shard, 3);
        assert_eq!(snap.slot, 16);
        assert_eq!(snap.bank, bank);
        assert!(snap.memo.is_none(), "v1 restores to all-dirty (no memo)");
        // A v2/v3 memo names no curve: skipped, whatever the section holds.
        for (version, memo) in [(2u32, memo_to_bytes(&sample_memo())), (3, vec![0xAB; 5])] {
            let mut sealed = ShardSnapshot::seal(3, 16, &bank_to_bytes(&bank), None, Some(&memo));
            sealed[8..12].copy_from_slice(&version.to_le_bytes());
            assert_eq!(ShardSnapshot::decode(&sealed).map(|s| s.memo), Ok(None), "v{version}");
        }
    }

    #[test]
    fn snapshot_rejects_any_flipped_byte() {
        let bank = learned_bank(5, 0.01);
        let clean = ShardSnapshot::seal(0, 3, &bank_to_bytes(&bank), None, None);
        assert!(ShardSnapshot::decode(&clean).is_ok());
        // Flip each payload byte in turn: the checksum must catch it.
        for at in 28..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x10;
            assert!(
                matches!(ShardSnapshot::decode(&bytes), Err(CodecError::BadChecksum)),
                "flip at {at} accepted"
            );
        }
        // Header damage is caught by its own guards.
        let mut bytes = clean.clone();
        bytes[0] ^= 0xFF;
        assert_eq!(ShardSnapshot::decode(&bytes), Err(CodecError::BadMagic));
        let mut bytes = clean.clone();
        bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        assert!(matches!(ShardSnapshot::decode(&bytes), Err(CodecError::BadVersion(_))));
        assert_eq!(ShardSnapshot::decode(&clean[..20]), Err(CodecError::Truncated));
    }

    #[test]
    fn store_keeps_bounded_generations_and_restores_newest() {
        let (dir, _scratch) = scratch("gens");
        let config = CheckpointConfig::new(&dir);
        let mut store = CheckpointStore::create(&config, 1).expect("create");
        for (round, slot) in [(0u64, 0usize), (1, 8), (2, 16), (3, 24)] {
            store.begin_round(slot, vec![round * 10]);
            let bank = learned_bank(4, round as f64 * 0.02);
            let marks = store
                .persist_shard(0, slot, &bank_to_bytes(&bank), None)
                .expect("persist");
            assert!(marks.is_some(), "single-shard round completes immediately");
        }
        // Only the three newest generations remain on disk.
        let files: Vec<_> = fs::read_dir(dir.join("shard-0"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files.len(), GENERATIONS, "retention bound violated: {files:?}");
        assert!(!files.contains(&"gen-00000000.ckpt".to_string()));
        let (generation, snap) = store.restore_latest(0).expect("restore");
        assert_eq!(generation.gen, 3);
        assert_eq!(generation.mark, 30);
        assert_eq!(snap.slot, 24);
        assert_eq!(snap.bank, learned_bank(4, 0.06));
        assert_eq!(store.checkpoints_written(), 4);
    }

    #[test]
    fn corrupt_generation_is_rejected_and_older_one_restores() {
        let (dir, _scratch) = scratch("corrupt");
        let config = CheckpointConfig::new(&dir);
        let mut store = CheckpointStore::create(&config, 1).expect("create");
        let old = learned_bank(6, 0.0);
        store.begin_round(0, vec![0]);
        store.persist_shard(0, 0, &bank_to_bytes(&old), None).expect("persist");
        let new = learned_bank(6, 0.03);
        store.begin_round(8, vec![7]);
        store.persist_shard(0, 8, &bank_to_bytes(&new), None).expect("persist");
        // Flip one byte of the newest generation on disk.
        let newest = dir.join("shard-0").join("gen-00000001.ckpt");
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        let (generation, snap) = store.restore_latest(0).expect("older gen restores");
        assert_eq!(generation.gen, 0);
        assert_eq!(snap.bank, old);
        assert_eq!(store.generations_rejected(), 1);
    }

    #[test]
    fn injected_corruption_is_deterministic_and_checksum_caught() {
        let (dir, _scratch) = scratch("inject");
        let mut config = CheckpointConfig::new(&dir);
        config.corruption = Some((1.0, 99));
        let mut store = CheckpointStore::create(&config, 1).expect("create");
        store.begin_round(0, vec![0]);
        store
            .persist_shard(0, 0, &bank_to_bytes(&learned_bank(3, 0.0)), None)
            .expect("persist");
        assert_eq!(store.checkpoints_corrupted(), 1);
        assert!(store.restore_latest(0).is_none(), "corrupted gen must not restore");
        assert_eq!(store.generations_rejected(), 1);
    }

    #[test]
    fn journal_replay_reproduces_the_live_bank() {
        let mut live = learned_bank(5, 0.0);
        let snapshot = live.clone();
        let mut journal = ShardJournal::new();
        let mark = journal.mark();
        let ops = [
            JournalOp::Observe(1, 0.27),
            JournalOp::Forget(3, 2),
            JournalOp::Observe(4, 0.41),
        ];
        for op in &ops {
            journal.push(op.clone());
        }
        // Mirror the ops on the live bank.
        live.observe_or_forget(1, 0.27);
        live.forget(3, 2);
        live.observe_or_forget(4, 0.41);

        let mut restored = snapshot.clone();
        assert_eq!(journal.replay_onto(&mut restored, mark), ops.len());
        assert_eq!(restored, live);

        // Truncation preserves absolute marks.
        let mid = mark + 2;
        journal.truncate_to(mid);
        let mut partial = snapshot.clone();
        partial.observe_or_forget(1, 0.27);
        partial.forget(3, 2);
        let mut restored = partial;
        assert_eq!(journal.replay_onto(&mut restored, mid), ops.len() - 2);
        assert_eq!(restored, live);
    }

    #[test]
    fn manifest_round_trips_and_continues_generations_across_stores() {
        let (dir, _scratch) = scratch("manifest");
        let config = CheckpointConfig::new(&dir);
        let mut store = CheckpointStore::create(&config, 2).expect("create");
        assert!(store.read_manifest().expect("read").is_none());
        store.begin_round(16, vec![3, 4]);
        let a = learned_bank(3, 0.0);
        let b = learned_bank(4, 0.05);
        assert!(store.persist_shard(0, 16, &bank_to_bytes(&a), None).expect("persist").is_none());
        assert!(store.persist_shard(1, 16, &bank_to_bytes(&b), None).expect("persist").is_some());
        let manifest = store.read_manifest().expect("read").expect("written");
        assert_eq!(manifest, RunManifest { slot: 16, generations: vec![0, 0] });
        assert_eq!(store.load_generation(1, 0).expect("load").bank, b);
        // A fresh store over the same dir continues the counters.
        let store2 = CheckpointStore::create(&config, 2).expect("reopen");
        assert_eq!(store2.shards[0].next_gen, 1);
        assert_eq!(store2.read_manifest().expect("read").expect("still there").slot, 16);
    }

    #[test]
    fn decision_log_survives_a_torn_tail_and_dedupes() {
        let (dir, _scratch) = scratch("decisions");
        let config = CheckpointConfig::new(&dir);
        let mut store = CheckpointStore::create(&config, 1).expect("create");
        let d0 = LoggedDecision {
            slot: 0,
            tier: Degradation::Exact,
            device_ids: vec![4, 7, 9],
            selected: vec![true, false, true],
        };
        let d1 = LoggedDecision {
            slot: 1,
            tier: Degradation::Greedy,
            device_ids: vec![4, 9],
            selected: vec![false, true],
        };
        store.log_decision(&d0).expect("log");
        store.log_decision(&d1).expect("log");
        store.flush_decisions().expect("flush");
        // Torn tail: append half a frame.
        {
            use std::io::Write;
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(dir.join("decisions.log"))
                .unwrap();
            f.write_all(&[0xAA; 11]).unwrap();
        }
        let mut reader = CheckpointStore::create(&config, 1).expect("reopen");
        let read = reader.read_decisions().expect("read");
        assert_eq!(read, vec![d0.clone(), d1.clone()]);
        // Replayed slots are not double-logged after a resume-read.
        reader.log_decision(&d1).expect("skip");
        let d2 = LoggedDecision { slot: 2, tier: Degradation::Passthrough, device_ids: vec![], selected: vec![] };
        reader.log_decision(&d2).expect("log");
        reader.flush_decisions().expect("flush");
        let mut third = CheckpointStore::create(&config, 1).expect("reopen");
        assert_eq!(third.read_decisions().expect("read"), vec![d0, d1, d2]);
    }

    #[test]
    fn recovery_report_ladder_tiers() {
        let mut report = RecoveryReport::new(2);
        assert_eq!(report.final_tier(), RecoveryTier::Pipelined);
        report.shards[1].deaths = 2;
        assert_eq!(report.final_tier(), RecoveryTier::RecoveredPipelined);
        report.fell_back = Some(9);
        assert_eq!(report.final_tier(), RecoveryTier::SequentialFallback);
    }
}
