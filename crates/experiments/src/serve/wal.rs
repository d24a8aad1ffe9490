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
//! An 8-byte magic (`COSWAL02`), then length-delimited records:
//! `[u32 LE length][u32 LE checksum][payload]`, where the payload
//! is one shard-routed request's bytes, exactly as the server read them.
//! Read alone, those bytes read as the same request, so replaying them
//! through [`protocol::handle_line`] reproduces the original dispatch bit
//! for bit. A torn tail (half-written final record
//! after a crash) fails its length or checksum and is dropped; records
//! before it are intact because [`WalWriter::commit`] is called before
//! the response escapes to the client — an acknowledged op is always
//! either in the log or in a newer snapshot.
//!
//! The checksum covers the payload alone and reads it eight bytes at a
//! time; it guards against torn writes, not against an adversary. With
//! `n` the payload's length in bytes, `K = 0x9E37_79B9_7F4A_7C15`, and
//! every operation on `u64` (multiplication modulo 2^64, `rotl` a left
//! rotation):
//!
//! 1. pad the payload with zero bytes to a multiple of 32 (an empty
//!    payload has no blocks, one of 33 bytes has two);
//! 2. start four lanes `v[0..4]` at `n`; for each 32-byte block in
//!    order, and each `i` in `0..4`, read the block's bytes `8i..8i+8`
//!    as a little-endian `w` and set `v[i] = rotl((v[i] ^ w) * K, 31)`;
//! 3. fold: `h = 0`, then for each `i` in `0..4`,
//!    `h = rotl((h ^ v[i]) * K, 31)`;
//! 4. the checksum is the low 32 bits of `h ^ (h >> 32)`.
//!
//! Logs that begin with `COSWAL01`, the first format, are still read.
//! They frame records the same way, with a 32-bit FNV-1a checksum of the
//! payload (offset basis `0x811c_9dc5`, prime `0x0100_0193`). New logs
//! are always `COSWAL02`: recovery replays an old log, and the server
//! then logs to the next generation's file. A binary built before
//! `COSWAL02` existed reads a `COSWAL02` log as empty, so a log
//! directory cannot be handed back to an older build. A file shorter
//! than its magic is torn at birth and replays nothing; any other
//! first 8 bytes fail recovery with an error that names them.
//!
//! # What is logged
//!
//! Every shard-routed request: all but the server-wide ops (`stats`,
//! `list`, `solvers`, `metrics`, `shutdown`), unknown and *failed*
//! requests included. Failures bump the `requests` counter and the
//! evaluation stats, so skipping them would make a recovered server's
//! counters drift from the original. A `batch` envelope is never logged;
//! its sub-requests are, one record each. A record is the request's span: its bytes on the line from
//! its first token to its last, spelled as the client spelled them,
//! whitespace, escapes and number spellings included, and never printed
//! again. Logs whose records are the canonical form instead, what
//! [`minijson::JsonWriter`] prints for each request, replay the same way:
//! a canonical record is an ordinary request line.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use coschedule::obs;
use coschedule::persist;
use coschedule::session::Session;
use minijson::Json;

use super::metrics::LatencyHistogram;
use super::protocol::{self, ServeState};

/// First bytes of every WAL file this build writes. A file shorter than
/// a magic is torn at birth and replays zero records; one that starts
/// with neither this nor [`MAGIC_V1`] is an error.
const MAGIC: &[u8; 8] = b"COSWAL02";

/// The magic of the first log format, whose records carry an FNV-1a
/// checksum; still read, never written.
const MAGIC_V1: &[u8; 8] = b"COSWAL01";

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

/// The record checksum of a `COSWAL02` log: four 64-bit lanes over the
/// payload's 8-byte words, folded to 32 bits (defined under *Log format*
/// in the module docs).
fn word_checksum(payload: &[u8]) -> u32 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |acc: u64, word: u64| (acc ^ word).wrapping_mul(K).rotate_left(31);
    let mut lanes = [payload.len() as u64; 4];
    let mut absorb = |block: &[u8; 32]| {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = mix(*lane, u64::from_le_bytes(*word));
        }
    };
    let (blocks, tail) = payload.as_chunks::<32>();
    blocks.iter().for_each(&mut absorb);
    if !tail.is_empty() {
        let mut padded = [0u8; 32];
        padded[..tail.len()].copy_from_slice(tail);
        absorb(&padded);
    }
    let folded = lanes.into_iter().fold(0, mix);
    (folded ^ (folded >> 32)) as u32
}

/// The record checksum of a `COSWAL01` log: 32-bit FNV-1a.
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

    /// Buffers one record (a shard-routed request's bytes, as read). Not
    /// durable until [`Self::commit`].
    pub fn append(&mut self, payload: &str) -> io::Result<()> {
        let bytes = payload.as_bytes();
        let len = u32::try_from(bytes.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "WAL record over 4 GiB"))?;
        self.file.write_all(&len.to_le_bytes())?;
        self.file.write_all(&word_checksum(bytes).to_le_bytes())?;
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
/// So does a file shorter than its magic, torn at birth. A file that
/// starts with any other 8 bytes than `COSWAL02` or `COSWAL01` is an
/// [`io::ErrorKind::InvalidData`] error naming them.
pub fn read_wal_records(path: &Path) -> io::Result<Vec<String>> {
    read_wal_tail(path, 0).map(|(records, _)| records)
}

/// [`read_wal_records`] from byte `from` of the log: the records that
/// start there, and the byte offset just past the last of them. `from`
/// is 0 (the whole log) or an offset this function returned for the same
/// file, which only grows. A torn record ends the read and the offset
/// stays before it, so a later read finds it again, whole or not.
fn read_wal_tail(path: &Path, from: u64) -> io::Result<(Vec<String>, u64)> {
    let mut file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), from)),
        Err(e) => return Err(e),
    };
    let mut magic = [0; MAGIC.len()];
    match file.read_exact(&mut magic) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok((Vec::new(), from)),
        Err(e) => return Err(e),
    }
    let checksum = match &magic {
        MAGIC => word_checksum,
        MAGIC_V1 => fnv1a32,
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: unknown log magic \"{}\" (this build reads COSWAL02 and COSWAL01)",
                    path.display(),
                    magic.escape_ascii()
                ),
            ))
        }
    };
    let start = from.max(MAGIC.len() as u64);
    file.seek(SeekFrom::Start(start))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let mut records = Vec::new();
    let mut at = 0;
    while bytes.len() - at >= 8 {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let stored = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        let start = at + 8;
        let Some(end) = start.checked_add(len).filter(|&end| end <= bytes.len()) else {
            break; // torn length or payload
        };
        let payload = &bytes[start..end];
        if checksum(payload) != stored {
            break; // torn or corrupt tail
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        records.push(text.to_string());
        at = end;
    }
    Ok((records, start + at as u64))
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
    /// The byte offset just past the last replayed record of the
    /// snapshot's log (0 when there is none): where a tail of it that
    /// arrives later starts.
    pub log_end: u64,
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
    let mut state = ServeState::for_shard(shard, shards, default_solver, default_seed);
    let Some(generation) =
        latest_generation(dir, shard).map_err(|e| format!("shard {shard}: {e}"))?
    else {
        return Ok(Recovered {
            state,
            replayed: 0,
            log_end: 0,
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

    state.resume(session, requests, latency);

    let (records, log_end) = read_wal_tail(&wal_path(dir, shard, generation), 0)
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
        log_end,
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
    /// The byte offset just past the last record applied from the
    /// generation's log.
    log_end: u64,
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
            .map(|shard| StandbyShard {
                generation: None,
                log_end: 0,
                state: ServeState::for_shard(shard, workers, default_solver, default_seed),
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
    /// unseen log tail. Idempotent and cheap when nothing changed: each
    /// shard reads its log from the byte after the last record it
    /// applied, so a poll reads and checksums only what is new.
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
                replica.log_end = recovered.log_end;
                replica.generation = newest;
                progress.snapshots_loaded += 1;
                progress.records_applied += recovered.replayed;
                continue;
            }
            let Some(generation) = replica.generation else {
                continue;
            };
            let (records, log_end) =
                read_wal_tail(&wal_path(&self.dir, shard, generation), replica.log_end)
                    .map_err(|e| format!("shard {shard}: {e}"))?;
            for line in &records {
                let _ = protocol::handle_line(&mut replica.state, line);
                progress.records_applied += 1;
            }
            replica.log_end = log_end;
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

        // Missing files, and files torn before their magic is whole,
        // read as empty.
        assert!(read_wal_records(&dir.join("nope.log")).unwrap().is_empty());
        for torn in [&b"COS"[..], b"COSWAL0", b"x"] {
            fs::write(&path, torn).unwrap();
            assert!(read_wal_records(&path).unwrap().is_empty());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A whole magic of a log version this build does not know, or of no
    /// log at all, fails the read and the recovery, naming the magic.
    #[test]
    fn an_unknown_magic_is_an_error_not_an_empty_log() {
        let dir = temp_dir("magic");
        let _ = WalWriter::create(
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
        let path = wal_path(&dir, 0, 0);
        for (magic, named) in [
            (&b"COSWAL03"[..], "COSWAL03"),
            (b"COSWAL\x001", "COSWAL\\x001"),
            (b"\0\0\0\0\0\0\0\0", "\\x00\\x00"),
        ] {
            let mut log = magic.to_vec();
            log.extend_from_slice(&[0; 8]);
            fs::write(&path, &log).unwrap();
            let e = read_wal_records(&path).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(e.to_string().contains(named), "{e}");
            let e = match recover_shard(&dir, 0, 1, "DominantMinRatio", 0) {
                Err(e) => e,
                Ok(_) => panic!("a log of unknown magic must fail to restore"),
            };
            assert!(e.starts_with("shard 0: ") && e.contains(named), "{e}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The checksum as the module docs define it, one step at a time.
    fn documented_checksum(payload: &[u8]) -> u32 {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut padded = payload.to_vec();
        padded.resize(payload.len().div_ceil(32) * 32, 0);
        let mut v = [payload.len() as u64; 4];
        for block in padded.chunks(32) {
            for i in 0..4 {
                let w = u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().unwrap());
                v[i] = ((v[i] ^ w).wrapping_mul(K)).rotate_left(31);
            }
        }
        let mut h = 0u64;
        for lane in v {
            h = ((h ^ lane).wrapping_mul(K)).rotate_left(31);
        }
        (h ^ (h >> 32)) as u32
    }

    #[test]
    fn the_checksum_is_the_documented_one_and_fnv_is_fnv() {
        let text: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        for n in 0..text.len() {
            assert_eq!(
                word_checksum(&text[..n]),
                documented_checksum(&text[..n]),
                "{n}"
            );
        }
        // Zero padding does not alias: the length starts every lane.
        assert_ne!(word_checksum(b"a"), word_checksum(b"a\0"));
        assert_ne!(word_checksum(b""), word_checksum(&[0; 32]));
        // FNV-1a-32's published test values.
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9c_f968);
    }

    /// Characters the fuzzed records are drawn from: JSON punctuation and
    /// 1- to 4-byte UTF-8.
    const RECORD_CHARS: [char; 8] = ['{', '"', ':', 'a', '7', 'é', '€', '𝄞'];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One flipped bit past the magic keeps exactly the records before
        /// the one holding it (a flip anywhere in a record fails its
        /// checksum, or its length runs past the file); one flipped bit
        /// inside the magic fails the read. Never a panic.
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
            let e = read_wal_records(&path).unwrap_err();
            prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `read_meta` on a `meta.json` with one flipped bit, one
        /// substituted byte, or a truncation never panics, and never
        /// reports zero workers.
        #[test]
        fn mutated_meta_never_panics(
            workers in 1usize..100,
            kind in 0u64..3,
            pos in 0u64..u64::MAX,
            byte in 0u64..256,
        ) {
            let dir = temp_dir("meta-fuzz");
            write_meta(&dir, workers).unwrap();
            let path = dir.join("meta.json");
            let mut bytes = fs::read(&path).unwrap();
            let at = (pos % bytes.len() as u64) as usize;
            match kind {
                0 => bytes[at] ^= 1 << (pos % 8),
                1 => bytes[at] = byte as u8,
                _ => bytes.truncate(at),
            }
            fs::write(&path, &bytes).unwrap();
            match read_meta(&dir) {
                Ok(Some(w)) => prop_assert!(w >= 1),
                Ok(None) => prop_assert!(false, "meta.json exists"),
                Err(_) => {}
            }
            let _ = fs::remove_dir_all(&dir);
        }
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
    fn standby_applies_a_torn_record_once_when_it_completes() {
        let dir = temp_dir("standby-torn");
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
        let _ = protocol::handle_line(&mut primary, &create_line());
        primary.wal_commit();
        assert_eq!(standby.catch_up().unwrap().records_applied, 1);

        // The primary logs an update; the standby sees it torn halfway.
        let _ = protocol::handle_line(
            &mut primary,
            r#"{"op":"mutate","id":0,"action":"update_app","index":2,"app":{"name":"LU","work":1.5e11,"access_freq":0.75,"miss_rate_ref":0.00151}}"#,
        );
        primary.wal_commit();
        let path = wal_path(&dir, 0, 0);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 20]).unwrap();
        assert_eq!(standby.catch_up().unwrap(), CatchUp::default(), "torn");

        // Completed, it is applied once, and never again.
        fs::write(&path, &full).unwrap();
        assert_eq!(standby.catch_up().unwrap().records_applied, 1);
        assert_eq!(standby.catch_up().unwrap(), CatchUp::default());

        let mut promoted = standby.promote().remove(0);
        for line in [
            r#"{"op":"list"}"#,
            r#"{"op":"solve","id":0,"solver":"DominantMinRatio","seed":3}"#,
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
