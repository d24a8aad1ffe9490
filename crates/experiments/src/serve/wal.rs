//! Durability for the serve stack: per-shard write-ahead logs, snapshot
//! rotation, crash recovery, and the warm-standby tailer.
//!
//! # File layout (one directory per server)
//!
//! ```text
//! meta.json             {"format":1,"workers":N} — the shard count the
//!                       files were written with (restore must match)
//! shard-K.snap.G.json   generation-G snapshot of shard K: an envelope
//!                       around coschedule::persist's session document
//! shard-K.wal.G.log     the ops applied after snapshot G was taken
//! ```
//!
//! Each shard owns exactly one live `(snap, wal)` generation pair; older
//! generations are garbage-collected after a rotation. Snapshots are
//! written to a temp file and atomically renamed, so a reader never sees
//! a half-written snapshot; a crash between the rename and the creation
//! of the next WAL file leaves a snapshot with no log — which replays
//! zero records, exactly right.
//!
//! # Log format
//!
//! An 8-byte magic (`COSWAL01`), then length-delimited records:
//! `[u32 LE length][u32 LE FNV-1a checksum][payload]`, where the payload
//! is the canonical [`minijson`] serialization of one mutating request.
//! `minijson` prints floats round-trip-exactly, so replaying the
//! canonical form through [`protocol::handle_line`] reproduces the
//! original dispatch bit for bit. A torn tail (half-written final record
//! after a crash) fails its length or checksum and is dropped; records
//! before it are intact because [`WalWriter::commit`] is called before
//! the response escapes to the client — an acknowledged op is always
//! either in the log or in a newer snapshot.
//!
//! # What is logged
//!
//! Exactly the shard-routed ops — the complement of
//! `protocol::is_global_op` — including *failed* ones: failures bump
//! the `requests` counter and the evaluation stats, so skipping them
//! would make a recovered server's counters drift from the original. The
//! `batch` envelope is never logged; its sub-requests are, one record
//! each, as [`protocol::respond`] recurses.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use coschedule::obs;
use coschedule::persist;
use coschedule::session::Session;
use minijson::Json;

use super::metrics::LatencyHistogram;
use super::protocol::{self, ServeState};

/// First bytes of every WAL file; a file not starting with these is not
/// (yet) a log — an empty or torn-at-birth file replays zero records.
const MAGIC: &[u8; 8] = b"COSWAL01";

/// Snapshot + meta schema version.
const FORMAT: u64 = 1;

/// How many logged records accumulate before a shard rotates to a fresh
/// snapshot + empty log, unless overridden by `--snapshot-every`.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 1024;

/// The `--durability` level of a serving `cosched serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No logging at all — the pre-durability behaviour.
    #[default]
    None,
    /// Append + flush to the OS before every reply: survives process
    /// death (`kill -9`), not power loss.
    Log,
    /// Append + flush + `fdatasync` before every reply: survives power
    /// loss, at the price of a sync per exchange (batched: one sync
    /// covers every record appended since the last, e.g. a whole batch
    /// op).
    Fsync,
}

impl Durability {
    /// `true` unless [`Durability::None`].
    pub fn enabled(self) -> bool {
        self != Durability::None
    }
}

impl std::str::FromStr for Durability {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "none" => Ok(Durability::None),
            "log" => Ok(Durability::Log),
            "fsync" => Ok(Durability::Fsync),
            other => Err(format!(
                "unknown durability {other:?}; expected none, log, or fsync"
            )),
        }
    }
}

impl std::fmt::Display for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Durability::None => "none",
            Durability::Log => "log",
            Durability::Fsync => "fsync",
        })
    }
}

/// One shard's durability counters, reported by the `metrics` op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since this server started.
    pub records: u64,
    /// Bytes appended (framing included) since this server started.
    pub bytes: u64,
    /// `fdatasync` calls issued (0 below `--durability fsync`).
    pub fsyncs: u64,
    /// Generation of the newest on-disk snapshot.
    pub snapshot_generation: u64,
    /// Records replayed from the WAL tail on the last restart.
    pub replayed: u64,
}

/// 32-bit FNV-1a — tiny, dependency-free, and plenty for torn-tail
/// detection (the threat model is a truncated write, not an adversary).
fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

fn snap_path(dir: &Path, shard: usize, generation: u64) -> PathBuf {
    dir.join(format!("shard-{shard}.snap.{generation}.json"))
}

fn wal_path(dir: &Path, shard: usize, generation: u64) -> PathBuf {
    dir.join(format!("shard-{shard}.wal.{generation}.log"))
}

/// The append side: one open WAL file plus the rotation bookkeeping,
/// owned by a [`ServeState`].
pub struct WalWriter {
    dir: PathBuf,
    shard: usize,
    shards: usize,
    durability: Durability,
    snapshot_every: u64,
    generation: u64,
    file: BufWriter<File>,
    /// Appends not yet flushed to the OS (commit is a no-op without).
    pending: bool,
    records_since_snapshot: u64,
    stats: WalStats,
}

impl WalWriter {
    /// Sets up shard `shard`'s durability at `generation`: writes a
    /// snapshot of the current state, opens a fresh log, and removes
    /// older generations. `session`/`requests` are the state being
    /// served (empty-fresh, or just-recovered); `replayed` seeds the
    /// stats counter the `metrics` op reports.
    ///
    /// # Panics
    /// If `durability` is [`Durability::None`] — callers gate on
    /// [`Durability::enabled`].
    #[allow(clippy::too_many_arguments)] // the shard-layout + recovery tuple is one unit
    pub fn create(
        dir: &Path,
        shard: usize,
        shards: usize,
        durability: Durability,
        snapshot_every: u64,
        generation: u64,
        session: &Session,
        requests: u64,
        latency: &LatencyHistogram,
        replayed: u64,
    ) -> io::Result<WalWriter> {
        assert!(durability.enabled(), "WalWriter requires durability");
        fs::create_dir_all(dir)?;
        write_snapshot(
            dir, shard, shards, generation, session, requests, latency, durability,
        )?;
        let file = open_wal(dir, shard, generation, durability)?;
        let writer = WalWriter {
            dir: dir.to_path_buf(),
            shard,
            shards,
            durability,
            snapshot_every: snapshot_every.max(1),
            generation,
            file,
            pending: false,
            records_since_snapshot: 0,
            stats: WalStats {
                snapshot_generation: generation,
                replayed,
                ..WalStats::default()
            },
        };
        writer.collect_garbage();
        Ok(writer)
    }

    /// Buffers one record (the canonical serialization of a mutating
    /// request). Not durable until [`Self::commit`].
    pub fn append(&mut self, payload: &str) -> io::Result<()> {
        let bytes = payload.as_bytes();
        let len = u32::try_from(bytes.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "WAL record over 4 GiB"))?;
        self.file.write_all(&len.to_le_bytes())?;
        self.file.write_all(&fnv1a32(bytes).to_le_bytes())?;
        self.file.write_all(bytes)?;
        self.pending = true;
        self.records_since_snapshot += 1;
        self.stats.records += 1;
        self.stats.bytes += 8 + u64::from(len);
        Ok(())
    }

    /// Makes every buffered append durable (to the OS page cache at
    /// [`Durability::Log`], to the device at [`Durability::Fsync`]).
    /// Called by the transport layers after handling and **before
    /// replying** — the group-commit point: one flush (and at most one
    /// sync) covers everything appended since the last call.
    pub fn commit(&mut self) -> io::Result<()> {
        if !self.pending {
            return Ok(());
        }
        let mut commit_sp = obs::span("wal", "wal_commit");
        commit_sp.set_args(self.stats.records, self.shard as u64);
        self.file.flush()?;
        if self.durability == Durability::Fsync {
            let fsync_sp = obs::span("wal", "wal_fsync");
            self.file.get_ref().sync_data()?;
            drop(fsync_sp);
            self.stats.fsyncs += 1;
        }
        self.pending = false;
        Ok(())
    }

    /// `true` once enough records accumulated that the owner should call
    /// [`Self::rotate`] (outside the request/reply critical path).
    pub fn should_rotate(&self) -> bool {
        self.records_since_snapshot >= self.snapshot_every
    }

    /// Takes a fresh snapshot at `generation + 1`, truncates the log by
    /// switching to `shard-K.wal.(G+1).log`, and removes the old pair.
    pub fn rotate(
        &mut self,
        session: &Session,
        requests: u64,
        latency: &LatencyHistogram,
    ) -> io::Result<()> {
        self.commit()?;
        let _rotate_sp = obs::span("wal", "wal_rotate");
        let next = self.generation + 1;
        write_snapshot(
            &self.dir,
            self.shard,
            self.shards,
            next,
            session,
            requests,
            latency,
            self.durability,
        )?;
        self.file = open_wal(&self.dir, self.shard, next, self.durability)?;
        self.generation = next;
        self.records_since_snapshot = 0;
        self.stats.snapshot_generation = next;
        self.collect_garbage();
        Ok(())
    }

    /// This writer's counters (the `metrics` op's per-shard WAL row).
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Removes every snapshot/log generation older than the live one.
    /// Best-effort: a leftover old generation wastes disk, nothing else —
    /// recovery always picks the newest snapshot.
    fn collect_garbage(&self) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(generation) = parse_generation(name, self.shard) {
                if generation < self.generation {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }
}

/// `shard-K.snap.G.json` / `shard-K.wal.G.log` → `Some(G)` when the file
/// belongs to `shard`.
fn parse_generation(name: &str, shard: usize) -> Option<u64> {
    let rest = name.strip_prefix(&format!("shard-{shard}."))?;
    if let Some(mid) = rest.strip_prefix("snap.") {
        mid.strip_suffix(".json")?.parse().ok()
    } else if let Some(mid) = rest.strip_prefix("wal.") {
        mid.strip_suffix(".log")?.parse().ok()
    } else {
        None
    }
}

fn open_wal(
    dir: &Path,
    shard: usize,
    generation: u64,
    durability: Durability,
) -> io::Result<BufWriter<File>> {
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(wal_path(dir, shard, generation))?;
    file.write_all(MAGIC)?;
    file.flush()?;
    if durability == Durability::Fsync {
        file.sync_data()?;
    }
    Ok(BufWriter::new(file))
}

#[allow(clippy::too_many_arguments)]
fn write_snapshot(
    dir: &Path,
    shard: usize,
    shards: usize,
    generation: u64,
    session: &Session,
    requests: u64,
    latency: &LatencyHistogram,
    durability: Durability,
) -> io::Result<()> {
    let envelope = Json::obj([
        ("format", Json::from(FORMAT)),
        ("shard", Json::from(shard)),
        ("shards", Json::from(shards)),
        ("requests", Json::from(requests)),
        // The latency histogram travels with the request counter so a
        // restored shard's percentiles continue instead of silently
        // restarting from empty (bucket counts + saturating ns sum;
        // absent in pre-observability snapshots, which read as empty).
        (
            "latency",
            Json::obj([
                (
                    "counts",
                    Json::arr(latency.counts().iter().copied().map(Json::from)),
                ),
                ("sum_ns", Json::from(latency.sum_ns())),
            ]),
        ),
        ("session", persist::snapshot_session(session)),
    ]);
    let path = snap_path(dir, shard, generation);
    let tmp = dir.join(format!("shard-{shard}.snap.{generation}.tmp"));
    {
        let mut file = File::create(&tmp)?;
        file.write_all(envelope.to_string().as_bytes())?;
        file.write_all(b"\n")?;
        if durability == Durability::Fsync {
            file.sync_data()?;
        }
    }
    // The atomic cut-over: the snapshot either exists completely or not
    // at all, never torn.
    fs::rename(&tmp, &path)?;
    if durability == Durability::Fsync {
        // Make the rename itself durable (best effort — not all
        // platforms let a directory be fsync'd).
        if let Ok(dirfile) = File::open(dir) {
            let _ = dirfile.sync_all();
        }
    }
    Ok(())
}

/// Reads a WAL's record payloads, stopping (without error) at the first
/// torn or checksum-failing record — the crash-truncated tail. A missing
/// file reads as empty: a crash can land between snapshot rename and log
/// creation, and "no log yet" simply means "nothing after the snapshot".
pub fn read_wal_records(path: &Path) -> io::Result<Vec<String>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    }
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        // Torn at birth (or not a log): nothing trustworthy to replay.
        return Ok(Vec::new());
    }
    let mut records = Vec::new();
    let mut at = MAGIC.len();
    while bytes.len() - at >= 8 {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let checksum = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        let start = at + 8;
        let Some(end) = start.checked_add(len).filter(|&end| end <= bytes.len()) else {
            break; // torn length or payload
        };
        let payload = &bytes[start..end];
        if fnv1a32(payload) != checksum {
            break; // torn or corrupt tail
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        records.push(text.to_string());
        at = end;
    }
    Ok(records)
}

/// The newest snapshot generation shard `shard` has on disk, or `None`
/// when the shard has never snapshotted into `dir`.
pub fn latest_generation(dir: &Path, shard: usize) -> io::Result<Option<u64>> {
    let mut newest = None;
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".json") {
            if let Some(generation) = parse_generation(name, shard) {
                newest = newest.max(Some(generation));
            }
        }
    }
    Ok(newest)
}

/// Writes `meta.json` (atomic, like snapshots): the worker count the
/// directory's shard files are laid out for.
pub fn write_meta(dir: &Path, workers: usize) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let tmp = dir.join("meta.tmp");
    let body = Json::obj([
        ("format", Json::from(FORMAT)),
        ("workers", Json::from(workers)),
    ]);
    fs::write(&tmp, format!("{body}\n"))?;
    fs::rename(tmp, dir.join("meta.json"))
}

/// Reads `meta.json`; `Ok(None)` when the directory has none (a primary
/// has not started there yet).
pub fn read_meta(dir: &Path) -> Result<Option<usize>, String> {
    let text = match fs::read_to_string(dir.join("meta.json")) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read meta.json: {e}")),
    };
    let doc = Json::parse(text.trim()).map_err(|e| format!("meta.json: {e}"))?;
    let format = doc
        .get("format")
        .and_then(Json::as_u64)
        .ok_or("meta.json: missing format")?;
    if format != FORMAT {
        return Err(format!(
            "meta.json format {format} unsupported (this build reads {FORMAT})"
        ));
    }
    doc.get("workers")
        .and_then(Json::as_usize)
        .filter(|&w| w >= 1)
        .map(Some)
        .ok_or_else(|| "meta.json: missing or invalid workers".to_string())
}

/// Parses a snapshot's `"latency"` object back into a histogram.
fn parse_latency(v: &Json) -> Result<LatencyHistogram, String> {
    let counts_json = v
        .get("counts")
        .and_then(Json::as_array)
        .ok_or("latency: missing counts array")?;
    if counts_json.len() != 64 {
        return Err(format!(
            "latency: expected 64 buckets, found {}",
            counts_json.len()
        ));
    }
    let mut counts = [0u64; 64];
    for (out, c) in counts.iter_mut().zip(counts_json) {
        *out = c.as_u64().ok_or("latency: non-integer bucket count")?;
    }
    let sum_ns = v
        .get("sum_ns")
        .and_then(Json::as_u64)
        .ok_or("latency: missing sum_ns")?;
    Ok(LatencyHistogram::from_parts(counts, sum_ns))
}

/// The result of [`recover_shard`]: the rebuilt state, how many WAL
/// records were replayed into it, and the generation the shard's next
/// [`WalWriter`] should be created at.
pub struct Recovered {
    /// The shard's state, identical by construction to the state at the
    /// moment of the last committed record.
    pub state: ServeState,
    /// WAL records replayed on top of the snapshot.
    pub replayed: u64,
    /// Where the next writer continues (`latest + 1`, or 0 for a fresh
    /// directory).
    pub next_generation: u64,
}

/// Rebuilds shard `shard` of `shards` from `dir`: latest snapshot, then
/// the WAL tail replayed through [`protocol::handle_line`] — the normal
/// dispatch path, so the recovered state is identical by construction,
/// not by a parallel re-implementation. A directory the shard never
/// wrote to recovers to a fresh state.
///
/// The serve defaults must match the crashed server's: a logged `solve`
/// that named no solver re-resolves through `default_solver` on replay.
pub fn recover_shard(
    dir: &Path,
    shard: usize,
    shards: usize,
    default_solver: &str,
    default_seed: u64,
) -> Result<Recovered, String> {
    let fresh = || {
        let mut state =
            ServeState::with_session(Session::with_id_stride(shard as u64, shards as u64));
        state.default_solver = default_solver.to_string();
        state.default_seed = default_seed;
        state
    };
    let Some(generation) =
        latest_generation(dir, shard).map_err(|e| format!("shard {shard}: {e}"))?
    else {
        return Ok(Recovered {
            state: fresh(),
            replayed: 0,
            next_generation: 0,
        });
    };

    let path = snap_path(dir, shard, generation);
    let text = fs::read_to_string(&path)
        .map_err(|e| format!("shard {shard}: cannot read {}: {e}", path.display()))?;
    let envelope =
        Json::parse(text.trim()).map_err(|e| format!("shard {shard}: {}: {e}", path.display()))?;
    let err = |msg: String| format!("shard {shard} snapshot gen {generation}: {msg}");
    let format = envelope
        .get("format")
        .and_then(Json::as_u64)
        .ok_or_else(|| err("missing format".into()))?;
    if format != FORMAT {
        return Err(err(format!("unsupported format {format}")));
    }
    let snap_shard = envelope
        .get("shard")
        .and_then(Json::as_usize)
        .ok_or_else(|| err("missing shard".into()))?;
    let snap_shards = envelope
        .get("shards")
        .and_then(Json::as_usize)
        .ok_or_else(|| err("missing shards".into()))?;
    if (snap_shard, snap_shards) != (shard, shards) {
        return Err(err(format!(
            "file says shard {snap_shard} of {snap_shards}, server wants {shard} of {shards} \
             (restore with the worker count the directory was written with)"
        )));
    }
    let requests = envelope
        .get("requests")
        .and_then(Json::as_u64)
        .ok_or_else(|| err("missing requests".into()))?;
    // Tolerate snapshots from before the histogram was persisted: they
    // restore with an empty latency base, exactly the old behaviour.
    let latency = envelope
        .get("latency")
        .map(|v| parse_latency(v).map_err(&err))
        .transpose()?
        .unwrap_or_default();
    let session = envelope
        .get("session")
        .ok_or_else(|| err("missing session".into()))?;
    let session = persist::restore_session(session).map_err(err)?;

    let mut state = ServeState::restore(session, requests, latency);
    state.default_solver = default_solver.to_string();
    state.default_seed = default_seed;

    let records = read_wal_records(&wal_path(dir, shard, generation))
        .map_err(|e| format!("shard {shard}: {e}"))?;
    let replayed = records.len() as u64;
    for line in &records {
        // No WAL is attached yet, so the replay does not re-log itself;
        // responses are recomputed and dropped.
        let _ = protocol::handle_line(&mut state, line);
    }
    Ok(Recovered {
        state,
        replayed,
        next_generation: generation + 1,
    })
}

/// A warm standby: a replica of every shard, kept hot by tailing the
/// primary's directory. [`Standby::catch_up`] is cheap when nothing
/// changed; [`Standby::promote`] hands the states over, ready to serve.
///
/// The standby only ever *reads* the directory, so it is safe to run
/// next to a live primary. Promotion does not attach a WAL of its own —
/// serve the promoted states, or restart with `--restore` over the same
/// directory once the old primary is confirmed dead.
pub struct Standby {
    dir: PathBuf,
    default_solver: String,
    default_seed: u64,
    shards: Vec<StandbyShard>,
}

struct StandbyShard {
    generation: Option<u64>,
    applied: usize,
    state: ServeState,
}

/// What one [`Standby::catch_up`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatchUp {
    /// Snapshots (re)loaded because a shard's generation advanced.
    pub snapshots_loaded: usize,
    /// WAL records newly applied across all shards.
    pub records_applied: u64,
}

impl Standby {
    /// Opens a standby over `dir`. The primary must have started at
    /// least once (its `meta.json` names the shard layout).
    pub fn open(dir: &Path, default_solver: &str, default_seed: u64) -> Result<Standby, String> {
        let workers =
            read_meta(dir)?.ok_or("no meta.json — has a primary ever served this directory?")?;
        let shards = (0..workers)
            .map(|shard| {
                let mut state =
                    ServeState::with_session(Session::with_id_stride(shard as u64, workers as u64));
                state.default_solver = default_solver.to_string();
                state.default_seed = default_seed;
                StandbyShard {
                    generation: None,
                    applied: 0,
                    state,
                }
            })
            .collect();
        Ok(Standby {
            dir: dir.to_path_buf(),
            default_solver: default_solver.to_string(),
            default_seed,
            shards,
        })
    }

    /// Shard count (the primary's worker count).
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Live instances across all shard replicas.
    pub fn instances(&self) -> usize {
        self.shards.iter().map(|s| s.state.session().len()).sum()
    }

    /// Brings every shard replica up to the primary's committed state:
    /// reload the snapshot where the generation advanced, then apply the
    /// unseen log tail. Idempotent and cheap when nothing changed.
    pub fn catch_up(&mut self) -> Result<CatchUp, String> {
        let mut progress = CatchUp::default();
        let shards = self.shards.len();
        for (shard, replica) in self.shards.iter_mut().enumerate() {
            let newest =
                latest_generation(&self.dir, shard).map_err(|e| format!("shard {shard}: {e}"))?;
            if newest != replica.generation {
                let Some(_) = newest else {
                    continue; // primary not started; keep the fresh state
                };
                // Rebuild from the new snapshot; the WAL positions of the
                // old generation are obsolete.
                let recovered = recover_shard(
                    &self.dir,
                    shard,
                    shards,
                    &self.default_solver,
                    self.default_seed,
                )?;
                replica.state = recovered.state;
                replica.applied = recovered.replayed as usize;
                replica.generation = newest;
                progress.snapshots_loaded += 1;
                progress.records_applied += recovered.replayed;
                continue;
            }
            let Some(generation) = replica.generation else {
                continue;
            };
            let records = read_wal_records(&wal_path(&self.dir, shard, generation))
                .map_err(|e| format!("shard {shard}: {e}"))?;
            for line in &records[replica.applied.min(records.len())..] {
                let _ = protocol::handle_line(&mut replica.state, line);
                progress.records_applied += 1;
            }
            replica.applied = replica.applied.max(records.len());
        }
        Ok(progress)
    }

    /// Hands the replica states over for serving (see the type docs for
    /// what promotion does and does not do).
    pub fn promote(self) -> Vec<ServeState> {
        self.shards.into_iter().map(|s| s.state).collect()
    }
}

/// Rebuilds the routing state a sharded server needs when it starts from
/// restored shards: the instance directory (id → owning shard) and the
/// round-robin create cursor (total successful creates so far — the
/// `m`-th create landed on shard `m mod n`, so the count *is* the
/// cursor).
pub fn routing_state(states: &[ServeState]) -> (BTreeMap<u64, usize>, u64) {
    let mut directory = BTreeMap::new();
    let mut creates = 0;
    for (shard, state) in states.iter().enumerate() {
        for info in state.session().list() {
            directory.insert(info.id.raw(), shard);
        }
        creates += state.session().stats().instances_created;
    }
    (directory, creates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cosched-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn create_line() -> String {
        Json::obj([
            ("op", Json::from("create")),
            (
                "apps",
                Json::arr(
                    workloads::npb::npb6(&[0.05])
                        .iter()
                        .map(super::super::protocol::app_to_json),
                ),
            ),
        ])
        .to_string()
    }

    #[test]
    fn durability_parses_and_prints() {
        for (text, level) in [
            ("none", Durability::None),
            ("log", Durability::Log),
            ("FSYNC", Durability::Fsync),
        ] {
            assert_eq!(text.parse::<Durability>().unwrap(), level);
        }
        assert_eq!(Durability::Log.to_string(), "log");
        assert!("wal".parse::<Durability>().is_err());
        assert!(!Durability::None.enabled());
        assert!(Durability::Fsync.enabled());
    }

    #[test]
    fn records_round_trip_and_torn_tails_are_dropped() {
        let dir = temp_dir("records");
        let session = Session::new();
        let mut writer = WalWriter::create(
            &dir,
            0,
            1,
            Durability::Log,
            1024,
            0,
            &session,
            0,
            &LatencyHistogram::default(),
            0,
        )
        .unwrap();
        let lines = [
            r#"{"op":"solve","id":0,"seed":7}"#,
            r#"{"op":"close","id":1}"#,
            "π ≠ 3.14 — utf-8 survives",
        ];
        for line in lines {
            writer.append(line).unwrap();
        }
        writer.commit().unwrap();
        let path = wal_path(&dir, 0, 0);
        assert_eq!(read_wal_records(&path).unwrap(), lines);

        // Truncate into the last record: the tail drops, the rest stays.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 5]).unwrap();
        assert_eq!(read_wal_records(&path).unwrap(), &lines[..2]);

        // Corrupt a checksum mid-file: everything from there is dropped.
        let mut bad = full.clone();
        let second_header = MAGIC.len() + 8 + lines[0].len() + 4;
        bad[second_header] ^= 0xFF;
        fs::write(&path, &bad).unwrap();
        assert_eq!(read_wal_records(&path).unwrap(), &lines[..1]);

        // Missing and magic-less files read as empty.
        assert!(read_wal_records(&dir.join("nope.log")).unwrap().is_empty());
        fs::write(&path, b"COS").unwrap();
        assert!(read_wal_records(&path).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Characters the fuzzed records are drawn from: JSON punctuation and
    /// 1- to 4-byte UTF-8.
    const RECORD_CHARS: [char; 8] = ['{', '"', ':', 'a', '7', 'é', '€', '𝄞'];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One flipped bit past the magic keeps exactly the records before
        /// the one holding it (a flip anywhere in a record fails its
        /// checksum, or its length runs past the file); one flipped bit
        /// inside the magic keeps none. Never a panic.
        #[test]
        fn a_flipped_bit_drops_its_record_and_everything_after(
            records in prop::collection::vec(
                prop::collection::vec(0..RECORD_CHARS.len(), 0..40)
                    .prop_map(|picks| picks.into_iter().map(|i| RECORD_CHARS[i]).collect::<String>()),
                1..8,
            ),
            flip in 0u64..u64::MAX,
            magic_bit in 0..MAGIC.len() * 8,
        ) {
            let dir = temp_dir("bitflip");
            let mut writer = WalWriter::create(
                &dir,
                0,
                1,
                Durability::Log,
                1024,
                0,
                &Session::new(),
                0,
                &LatencyHistogram::default(),
                0,
            )
            .unwrap();
            for record in &records {
                writer.append(record).unwrap();
            }
            writer.commit().unwrap();
            let path = wal_path(&dir, 0, 0);
            let clean = fs::read(&path).unwrap();
            prop_assert_eq!(read_wal_records(&path).unwrap(), records.clone());

            let body_bits = (clean.len() - MAGIC.len()) as u64 * 8;
            let bit = MAGIC.len() * 8 + (flip % body_bits) as usize;
            let mut flipped = clean.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &flipped).unwrap();
            let mut end = MAGIC.len();
            let hit = records
                .iter()
                .position(|record| {
                    end += 8 + record.len();
                    bit / 8 < end
                })
                .unwrap();
            prop_assert_eq!(read_wal_records(&path).unwrap(), records[..hit].to_vec());

            let mut flipped = clean;
            flipped[magic_bit / 8] ^= 1 << (magic_bit % 8);
            fs::write(&path, &flipped).unwrap();
            prop_assert!(read_wal_records(&path).unwrap().is_empty());
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn rotation_advances_generation_and_collects_garbage() {
        let dir = temp_dir("rotate");
        let session = Session::new();
        let mut writer = WalWriter::create(
            &dir,
            0,
            1,
            Durability::Log,
            2,
            0,
            &session,
            0,
            &LatencyHistogram::default(),
            0,
        )
        .unwrap();
        assert!(!writer.should_rotate());
        writer.append("a").unwrap();
        writer.append("b").unwrap();
        assert!(writer.should_rotate());
        writer
            .rotate(&session, 2, &LatencyHistogram::default())
            .unwrap();
        assert!(!writer.should_rotate());
        assert_eq!(writer.stats().snapshot_generation, 1);
        assert_eq!(latest_generation(&dir, 0).unwrap(), Some(1));
        assert!(!snap_path(&dir, 0, 0).exists(), "old snapshot collected");
        assert!(!wal_path(&dir, 0, 0).exists(), "old log collected");
        assert!(snap_path(&dir, 0, 1).exists());
        assert!(read_wal_records(&wal_path(&dir, 0, 1)).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_from_snapshot_plus_tail_matches_uninterrupted() {
        let dir = temp_dir("recover");
        // A "primary": create, solve, snapshot happens at attach; more
        // ops land in the WAL only.
        let mut live = ServeState::with_session(Session::new());
        let writer = WalWriter::create(
            &dir,
            0,
            1,
            Durability::Log,
            1024,
            0,
            live.session(),
            0,
            &LatencyHistogram::default(),
            0,
        )
        .unwrap();
        live.attach_wal(writer);
        let trace = [
            create_line(),
            r#"{"op":"solve","id":0,"solver":"auto","seed":1,"schedule":false}"#.to_string(),
            r#"{"op":"mutate","id":0,"action":"remove_app","index":1}"#.to_string(),
            r#"{"op":"solve","id":0,"solver":"auto","seed":2,"schedule":false}"#.to_string(),
        ];
        let mut live_responses = Vec::new();
        for line in &trace {
            live_responses.push(protocol::handle_line(&mut live, line));
            live.wal_commit();
        }
        drop(live); // the crash: nothing beyond commit survives

        let recovered = recover_shard(&dir, 0, 1, "DominantMinRatio", 0xC05).unwrap();
        assert_eq!(recovered.replayed, trace.len() as u64);
        assert_eq!(recovered.next_generation, 1);
        let mut back = recovered.state;

        // The uninterrupted reference.
        let mut reference = ServeState::with_session(Session::new());
        for line in &trace {
            let _ = protocol::handle_line(&mut reference, line);
        }
        assert_eq!(back.requests(), reference.requests());
        assert_eq!(back.session().stats(), reference.session().stats());

        // And the remainder answers byte-identically, tuner included.
        for line in [
            r#"{"op":"solve","id":0,"solver":"auto","seed":3,"schedule":false}"#,
            r#"{"op":"stats"}"#,
        ] {
            assert_eq!(
                protocol::handle_line(&mut back, line),
                protocol::handle_line(&mut reference, line),
                "{line}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_from_empty_directory_is_a_fresh_state() {
        let dir = temp_dir("fresh");
        let recovered = recover_shard(&dir, 2, 4, "DominantRefined", 7).unwrap();
        assert_eq!(recovered.replayed, 0);
        assert_eq!(recovered.next_generation, 0);
        assert_eq!(recovered.state.session().len(), 0);
        assert_eq!(recovered.state.default_solver, "DominantRefined");
        assert_eq!(recovered.state.default_seed, 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_rejects_a_mismatched_shard_layout() {
        let dir = temp_dir("layout");
        let session = Session::with_id_stride(0, 2);
        let _ = WalWriter::create(
            &dir,
            0,
            2,
            Durability::Log,
            64,
            0,
            &session,
            0,
            &LatencyHistogram::default(),
            0,
        )
        .unwrap();
        let e = match recover_shard(&dir, 0, 4, "DominantMinRatio", 0) {
            Err(e) => e,
            Ok(_) => panic!("a mismatched shard layout must fail to restore"),
        };
        assert!(e.contains("shard 0 of 2"), "{e}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_round_trips_and_rejects_damage() {
        let dir = temp_dir("meta");
        assert_eq!(read_meta(&dir).unwrap(), None);
        write_meta(&dir, 4).unwrap();
        assert_eq!(read_meta(&dir).unwrap(), Some(4));
        fs::write(dir.join("meta.json"), "{\"format\":9,\"workers\":4}").unwrap();
        assert!(read_meta(&dir).unwrap_err().contains("format 9"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn standby_tails_snapshots_and_logs() {
        let dir = temp_dir("standby");
        write_meta(&dir, 1).unwrap();
        let mut primary = ServeState::with_session(Session::new());
        let writer = WalWriter::create(
            &dir,
            0,
            1,
            Durability::Log,
            1024,
            0,
            primary.session(),
            0,
            &LatencyHistogram::default(),
            0,
        )
        .unwrap();
        primary.attach_wal(writer);

        let mut standby = Standby::open(&dir, "DominantMinRatio", 0xC05).unwrap();
        assert_eq!(standby.workers(), 1);
        let first = standby.catch_up().unwrap();
        assert_eq!(first.snapshots_loaded, 1, "initial snapshot adopted");
        assert_eq!(standby.instances(), 0);

        // Primary does work; standby catches up incrementally.
        let _ = protocol::handle_line(&mut primary, &create_line());
        primary.wal_commit();
        let progress = standby.catch_up().unwrap();
        assert_eq!(progress.records_applied, 1);
        assert_eq!(standby.instances(), 1);
        assert_eq!(
            standby.catch_up().unwrap(),
            CatchUp::default(),
            "idempotent"
        );

        let _ = protocol::handle_line(
            &mut primary,
            r#"{"op":"solve","id":0,"solver":"auto","seed":1,"schedule":false}"#,
        );
        primary.wal_commit();
        standby.catch_up().unwrap();

        // Promotion: the replica answers exactly like the primary.
        let mut promoted = standby.promote().remove(0);
        for line in [
            r#"{"op":"solve","id":0,"solver":"auto","seed":2,"schedule":false}"#,
            r#"{"op":"stats"}"#,
        ] {
            assert_eq!(
                protocol::handle_line(&mut promoted, line),
                protocol::handle_line(&mut primary, line),
                "{line}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn routing_state_rebuilds_directory_and_cursor() {
        let mut shard0 = ServeState::with_session(Session::with_id_stride(0, 2));
        let mut shard1 = ServeState::with_session(Session::with_id_stride(1, 2));
        for state in [&mut shard0, &mut shard1] {
            let _ = protocol::handle_line(state, &create_line());
        }
        let _ = protocol::handle_line(&mut shard0, &create_line());
        // Close id 0; the cursor still counts it (creates ever, not live).
        let _ = protocol::handle_line(&mut shard0, r#"{"op":"close","id":0}"#);
        let (directory, cursor) = routing_state(&[shard0, shard1]);
        assert_eq!(cursor, 3);
        assert_eq!(
            directory.into_iter().collect::<Vec<_>>(),
            vec![(1, 1), (2, 0)]
        );
    }
}
