//! The [`Store`]: an append-only on-disk log with an in-memory index,
//! write-once dedupe, per-record checksums, crash recovery, hit/miss
//! counters, and single-flight computes.
//!
//! # On-disk format (version 2)
//!
//! A store directory (conventionally `.bftbcast-store/`) holds one
//! file, `store.log`:
//!
//! ```text
//! magic   8 bytes   b"BFTBSTR\x02"   (7-byte tag + format version)
//! record  repeated  key u64 LE | len u32 LE | sum u64 LE | payload
//! ```
//!
//! `sum` is the FNV-1a 64 hash of `key | len | payload`, so every
//! record is independently verifiable: replay rejects not just a torn
//! tail (a crash mid-append) but any silently corrupted bytes anywhere
//! in the log. Version-1 logs (no checksums) are migrated in place at
//! open.
//!
//! Records are only ever appended; a key appears at most once (puts of
//! an existing key are dropped, first write wins — values are
//! content-addressed, so a duplicate key can only carry the same
//! payload).
//!
//! # Replay
//!
//! Open reads the log into one buffer, the **image**, and keeps it: the
//! image is the store's only in-memory copy of the log. Replay indexes
//! every verified record by its offset in the file, and a lookup slices
//! the value out of the image, which was verified at open. Values
//! appended after open lie past the image: a lookup reads such a record
//! back from the file and re-verifies it, so a long-running server's
//! memory does not grow with the points it computes.
//!
//! A log of 1 MiB or more is read on every core: each thread fills one
//! disjoint part of the image with a positioned read. Bytes appended
//! after the file's length was taken are read on to the end of file,
//! and a file that shrank is read again from the start, so the image is
//! exactly what `std::fs::read` gives. The maintenance scans read the
//! log the same way.
//!
//! A clean log, the common case, is framed by its length fields and its
//! checksums are then verified on every core, one run of records per
//! thread. Each thread hashes four records in lockstep: FNV-1a is one
//! serial multiply chain per byte, and four independent chains keep the
//! multiplier busy where one waits on its latency. The lanes compute
//! the same `sum` as the serial hash, byte for byte. Any framing or
//! checksum failure falls back to the serial scanner, which
//! resynchronizes across damage; the two give the same records and the
//! same [`RecoveryReport`], so the fast path changes only the time open
//! takes.
//!
//! # Recovery
//!
//! A record that fails
//! its checksum is **quarantined**: it is left out of the index and the
//! scanner resynchronizes at the next verifiable record, so one
//! corrupted record never takes down the records after it. Unparseable
//! bytes at the very end of the file (a torn append) are trimmed so
//! future appends stay reachable; mid-log corruption is left in place —
//! replay skips over it — until [`repair`](crate::maintenance::repair)
//! rewrites the log clean. [`Store::recovery`] reports what open found.
//!
//! # Fault injection
//!
//! [`Store::open_with_faults`] threads a seeded
//! [`FaultPlan`] behind the log's I/O: appends can
//! tear, flip bits, or hit a full disk, and replays can see short
//! reads, all deterministically. Production opens carry no plan and pay
//! nothing for the hook.
//!
//! # Concurrency
//!
//! One [`Store`] is shared by every worker thread (and, under
//! `bftbcast serve`, every connection). [`Store::get_or_compute`] is
//! **single-flight**: when several threads ask for the same absent key
//! at once, exactly one runs the compute closure while the rest block
//! and then read the published value — so a sweep containing duplicate
//! points, or two clients submitting the same scenario, still cost one
//! engine run per distinct point.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::num::NonZeroUsize;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::canon::{fnv1a, fnv1a_extend, fnv1a_extend4, FNV_OFFSET};
use crate::fault::{FaultPlan, FaultStats, WriteFault};

/// Log file magic: 7 tag bytes plus one format-version byte.
pub(crate) const MAGIC: &[u8; 8] = b"BFTBSTR\x02";
/// The previous format's magic: records without checksums.
pub(crate) const MAGIC_V1: &[u8; 8] = b"BFTBSTR\x01";
/// The log file's name inside the store directory.
pub(crate) const LOG_NAME: &str = "store.log";
/// Version-2 record header: key (8) + len (4) + checksum (8).
pub(crate) const HEADER_LEN: usize = 20;
/// Sanity bound on one payload; a larger `len` field is corruption.
pub(crate) const MAX_PAYLOAD: usize = 1 << 26;
/// Logs shorter than this are read and verified on the calling thread;
/// longer ones split both across every core.
const PARALLEL_VERIFY_MIN: usize = 1 << 20;

/// Hit/miss accounting for one store instance (process lifetime, not
/// persisted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups answered from the index.
    pub hits: u64,
    /// Lookups that required (or will require) a compute.
    pub misses: u64,
    /// Distinct keys currently stored.
    pub entries: usize,
}

/// What replay found (and did) while opening a log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Corrupt mid-log spans skipped over (their records are lost, the
    /// records after them are not).
    pub quarantined_spans: usize,
    /// Total bytes inside those spans.
    pub quarantined_bytes: u64,
    /// Unparseable trailing bytes trimmed off (a torn append).
    pub trimmed_tail_bytes: u64,
    /// The log was a version-1 file and was rewritten as version 2.
    pub migrated_from_v1: bool,
}

impl RecoveryReport {
    /// Whether open found a pristine log (no corruption, no tear, no
    /// migration).
    pub fn is_clean(&self) -> bool {
        self.quarantined_spans == 0 && self.trimmed_tail_bytes == 0 && !self.migrated_from_v1
    }
}

/// The checksum stored with one record: FNV-1a 64 over the header's
/// key and length fields plus the payload, hashed in place.
pub(crate) fn record_sum(key: u64, payload: &[u8]) -> u64 {
    let h = fnv1a(&key.to_le_bytes());
    let h = fnv1a_extend(h, &(payload.len() as u32).to_le_bytes());
    fnv1a_extend(h, payload)
}

/// Appends one version-2 record (header + payload) to `out`.
fn encode_record_into(out: &mut Vec<u8>, key: u64, payload: &[u8]) {
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&record_sum(key, payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One version-2 record, encoded (header + payload).
pub(crate) fn encode_record(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_record_into(&mut rec, key, payload);
    rec
}

/// A record located in a scanned buffer: `(key, at, len)`, its payload
/// being `buf[at..at + len]`.
pub(crate) type Located = (u64, usize, usize);

/// The result of scanning a whole log body held by the caller.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Scan {
    /// Verified records in file order (duplicates preserved), located
    /// in the scanned buffer.
    pub records: Vec<Located>,
    /// `(offset, bytes)` spans that failed to parse or verify.
    pub spans: Vec<(u64, u64)>,
    /// Format version the magic declared.
    pub version: u8,
    /// Total file length scanned.
    pub len: u64,
}

impl Scan {
    /// Bytes of the span touching EOF — the torn/lost tail, if any.
    pub fn tail_bytes(&self) -> u64 {
        match self.spans.last() {
            Some(&(off, n)) if off + n == self.len => n,
            _ => 0,
        }
    }

    /// Corrupt spans strictly inside the log (excluding the tail span).
    pub fn mid_spans(&self) -> usize {
        self.spans.len() - usize::from(self.tail_bytes() > 0)
    }
}

/// Frames the v2 record whose header starts at `pos` without checking
/// its checksum: `Some` when the length is sane and the payload lies
/// inside `buf`.
fn frame_at(buf: &[u8], pos: usize) -> Option<Located> {
    let header = buf.get(pos..pos + HEADER_LEN)?;
    let key = u64::from_le_bytes(header[..8].try_into().ok()?);
    let len = u32::from_le_bytes(header[8..12].try_into().ok()?) as usize;
    let at = pos + HEADER_LEN;
    (len <= MAX_PAYLOAD && at + len <= buf.len()).then_some((key, at, len))
}

/// The checksum stored in the 8 bytes before the payload at `at`.
fn stored_sum(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at - 8..at].try_into().expect("8 bytes"))
}

/// Whether a framed v2 record's payload matches the checksum stored in
/// the 8 bytes before it.
fn verifies(buf: &[u8], (key, at, len): Located) -> bool {
    record_sum(key, &buf[at..at + len]) == stored_sum(buf, at)
}

/// Tries to parse and verify one v2 record at `pos`; `Some` only when
/// the checksum matches.
fn parse_at(buf: &[u8], pos: usize) -> Option<Located> {
    frame_at(buf, pos).filter(|&rec| verifies(buf, rec))
}

/// Scans a version-2 log. The fast path frames the records by their
/// length fields and verifies every checksum, split across `threads`
/// (see [`verify_threads`]); it succeeds only when the records tile the
/// whole body and all verify. Otherwise [`scan_v2_serial`] rescans the
/// log, so the result is always exactly the serial scanner's.
pub(crate) fn scan_v2(buf: &[u8]) -> Scan {
    scan_v2_with(buf, verify_threads(buf.len()))
}

fn scan_v2_with(buf: &[u8], threads: usize) -> Scan {
    let mut records = Vec::new();
    let mut pos = MAGIC.len();
    while pos < buf.len() {
        let Some(rec @ (_, at, len)) = frame_at(buf, pos) else {
            return scan_v2_serial(buf);
        };
        records.push(rec);
        pos = at + len;
    }
    if !verify_all(buf, &records, threads) {
        return scan_v2_serial(buf);
    }
    Scan {
        records,
        spans: Vec::new(),
        version: 2,
        len: buf.len() as u64,
    }
}

/// How many threads read and verify a `len`-byte log: one below
/// [`PARALLEL_VERIFY_MIN`], every available core above it.
fn verify_threads(len: usize) -> usize {
    if len < PARALLEL_VERIFY_MIN {
        1
    } else {
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    }
}

/// Reads the whole log at `path` into one buffer, returning what
/// `std::fs::read` would; [`Store::open`] and the maintenance scans
/// both read the log through it.
pub(crate) fn read_log(path: &Path) -> io::Result<Vec<u8>> {
    let file = File::open(path)?;
    let len = file.metadata()?.len() as usize;
    read_image(&file, len, verify_threads(len))
}

/// Reads `file`, whose length was `len` when it was taken, with one
/// positioned read per thread into disjoint parts of the buffer. A file
/// that grew since is read on to its end; one that shrank (a part met
/// the end early) is read again from the start. Either way the result
/// is the file's bytes up to the end of file, as `std::fs::read` gives.
fn read_image(mut file: &File, len: usize, threads: usize) -> io::Result<Vec<u8>> {
    let mut image = vec![0; len];
    let part = len.div_ceil(threads).max(1);
    let read = std::thread::scope(|s| {
        let mut parts = image.chunks_mut(part).zip((0..).step_by(part));
        let first = parts.next();
        let rest: Vec<_> = parts
            .map(|(chunk, at)| s.spawn(move || file.read_exact_at(chunk, at)))
            .collect();
        let mine = first.map_or(Ok(()), |(chunk, at)| file.read_exact_at(chunk, at));
        rest.into_iter().fold(mine, |read, h| {
            let theirs = h.join().expect("a positioned read cannot panic");
            read.and(theirs)
        })
    });
    match read {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => image.clear(),
        Err(e) => return Err(e),
    }
    file.seek(SeekFrom::Start(image.len() as u64))?;
    file.read_to_end(&mut image)?;
    Ok(image)
}

/// [`verifies`] for four framed records at once: their checksums are
/// hashed in lockstep by [`fnv1a_extend4`], which hides the multiply
/// latency one serial FNV-1a chain waits on.
fn verifies4(buf: &[u8], group: [Located; 4]) -> [bool; 4] {
    let heads = group.map(|(key, _, len)| {
        let mut head = [0; 12];
        head[..8].copy_from_slice(&key.to_le_bytes());
        head[8..].copy_from_slice(&(len as u32).to_le_bytes());
        head
    });
    let h = fnv1a_extend4([FNV_OFFSET; 4], heads.each_ref().map(|h| &h[..]));
    let sums = fnv1a_extend4(h, group.map(|(_, at, len)| &buf[at..at + len]));
    std::array::from_fn(|i| sums[i] == stored_sum(buf, group[i].1))
}

/// Whether every record of `chunk` verifies: four at a time through
/// [`verifies4`], the last one to three on their own.
fn verify_chunk(buf: &[u8], chunk: &[Located]) -> bool {
    let mut groups = chunk.chunks_exact(4);
    groups
        .by_ref()
        .all(|g| verifies4(buf, g.try_into().expect("4 records")) == [true; 4])
        && groups.remainder().iter().all(|&rec| verifies(buf, rec))
}

/// Whether every framed record verifies, checked in `threads` chunks of
/// records (the calling thread takes the first).
fn verify_all(buf: &[u8], records: &[Located], threads: usize) -> bool {
    let all = |chunk: &[Located]| verify_chunk(buf, chunk);
    if threads <= 1 || records.len() < 2 {
        return all(records);
    }
    let mut chunks = records.chunks(records.len().div_ceil(threads));
    let first = chunks.next().unwrap_or_default();
    std::thread::scope(|s| {
        let rest: Vec<_> = chunks.map(|chunk| s.spawn(move || all(chunk))).collect();
        let mine = all(first);
        rest.into_iter().fold(mine, |ok, h| {
            h.join().expect("verifying a framed record cannot panic") && ok
        })
    })
}

/// Scans a version-2 log one record at a time, resynchronizing after
/// corruption: on a verification failure the scanner advances byte by
/// byte until the next verifiable record (a false resync would need an
/// FNV-1a collision), recording the skipped span. O(span × scan) in the
/// corrupt case — fine for the log sizes this store carries.
pub(crate) fn scan_v2_serial(buf: &[u8]) -> Scan {
    let mut records = Vec::new();
    let mut spans: Vec<(u64, u64)> = Vec::new();
    let mut pos = MAGIC.len();
    while pos < buf.len() {
        if let Some(rec @ (_, at, len)) = parse_at(buf, pos) {
            records.push(rec);
            pos = at + len;
        } else {
            let start = pos;
            pos += 1;
            while pos < buf.len() && parse_at(buf, pos).is_none() {
                pos += 1;
            }
            spans.push((start as u64, (pos - start) as u64));
        }
    }
    Scan {
        records,
        spans,
        version: 2,
        len: buf.len() as u64,
    }
}

/// Scans a version-1 log (no checksums): framing only, so the only
/// detectable damage is a torn tail.
pub(crate) fn scan_v1(buf: &[u8]) -> Scan {
    let mut records = Vec::new();
    let mut pos = MAGIC_V1.len();
    while let Some(header) = buf.get(pos..pos + 12) {
        let key = u64::from_le_bytes(header[..8].try_into().expect("8 bytes"));
        let plen = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
        if buf.len() < pos + 12 + plen {
            break;
        }
        records.push((key, pos + 12, plen));
        pos += 12 + plen;
    }
    let mut spans = Vec::new();
    if pos < buf.len() {
        spans.push((pos as u64, (buf.len() - pos) as u64));
    }
    Scan {
        records,
        spans,
        version: 1,
        len: buf.len() as u64,
    }
}

/// Encodes a full version-2 log (magic + the `records` located in
/// `buf`), deduplicating keys (first write wins). Returns the bytes and
/// the duplicate count.
pub(crate) fn rewrite_bytes(buf: &[u8], records: &[Located]) -> (Vec<u8>, usize) {
    let mut out = Vec::with_capacity(MAGIC.len() + buf.len() + 8 * records.len());
    out.extend_from_slice(MAGIC);
    let mut seen = HashSet::new();
    let mut duplicates = 0;
    for &(key, at, len) in records {
        if seen.insert(key) {
            encode_record_into(&mut out, key, &buf[at..at + len]);
        } else {
            duplicates += 1;
        }
    }
    (out, duplicates)
}

/// Replaces `path` atomically: write a sibling temp file, fsync it,
/// rename over the original — a crash leaves either the old log or the
/// new one, never a half-written mix.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("log.tmp");
    std::fs::write(&tmp, bytes)?;
    File::open(&tmp)?.sync_all()?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Where an indexed value lives.
enum Slot {
    /// In memory on its own: every value of an in-memory store, and
    /// values whose log copy failed to append or was corrupted by an
    /// injected bit flip.
    Mem(Vec<u8>),
    /// The log record at file offset `at` with a `len`-byte payload.
    /// Inside the image it was verified at open and is sliced from
    /// memory; past it (appended since open) it is read back from the
    /// file and re-verified on every lookup.
    Log { at: u64, len: u32 },
}

struct Inner {
    index: HashMap<u64, Slot>,
    /// The log as open read it, cut back to its last verified record:
    /// the bytes every replayed [`Slot::Log`] points into. Empty for
    /// in-memory stores.
    image: Vec<u8>,
    /// Keys currently being computed by some thread (single-flight).
    inflight: HashSet<u64>,
    /// Append handle; `None` for in-memory stores.
    file: Option<File>,
    /// Injected-fault schedule; `None` in production.
    faults: Option<FaultPlan>,
}

/// A content-addressed byte store: append-only log + in-memory index.
pub struct Store {
    inner: Mutex<Inner>,
    settled: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    dir: Option<PathBuf>,
    recovery: RecoveryReport,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .field("recovery", &self.recovery)
            .finish()
    }
}

impl Store {
    /// A store with no backing file: entries live for the process only.
    pub fn in_memory() -> Store {
        Store {
            inner: Mutex::new(Inner {
                index: HashMap::new(),
                image: Vec::new(),
                inflight: HashSet::new(),
                file: None,
                faults: None,
            }),
            settled: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            dir: None,
            recovery: RecoveryReport::default(),
        }
    }

    /// Opens (creating if necessary) the store rooted at `dir`,
    /// replaying `store.log` into the in-memory index over the log's
    /// image. Corrupt records are quarantined and a torn tail trimmed
    /// (see the [module docs](self)); [`Store::recovery`] reports both.
    ///
    /// # Errors
    ///
    /// I/O failures, or a log file whose magic does not match (not a
    /// bftbcast store, or a future incompatible format version).
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Store> {
        Self::open_inner(dir.as_ref(), None)
    }

    /// [`Store::open`] with a seeded [`FaultPlan`] injected behind the
    /// log's I/O — replay and every later append roll against the
    /// plan's schedule. Test-harness entry point; production code uses
    /// [`Store::open`].
    ///
    /// # Errors
    ///
    /// As [`Store::open`].
    pub fn open_with_faults(dir: impl AsRef<Path>, plan: FaultPlan) -> io::Result<Store> {
        Self::open_inner(dir.as_ref(), Some(plan))
    }

    fn open_inner(dir: &Path, mut faults: Option<FaultPlan>) -> io::Result<Store> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(LOG_NAME);
        let mut recovery = RecoveryReport::default();
        let mut image = match read_log(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        if !image.is_empty() {
            if image.len() < MAGIC.len() || (&image[..8] != MAGIC && &image[..8] != MAGIC_V1) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{} is not a bftbcast store log (bad magic)", path.display()),
                ));
            }
            if &image[..8] == MAGIC_V1 {
                // A pre-checksum log: replay with the old rules and
                // rewrite in place as version 2, atomically.
                let scan = scan_v1(&image);
                let (bytes, _) = rewrite_bytes(&image, &scan.records);
                write_atomic(&path, &bytes)?;
                image = bytes;
                recovery.migrated_from_v1 = true;
            }
        }
        // An injected short read: replay sees a truncated view of the
        // log (the magic always survives so the store still opens).
        let mut read_faulted = false;
        if let Some(plan) = faults.as_mut() {
            if let Some(keep) = plan.next_read(image.len()) {
                let floor = image.len().min(MAGIC.len());
                image.truncate(keep.max(floor));
                read_faulted = true;
            }
        }
        let mut index = HashMap::new();
        let mut good_end = image.len() as u64;
        if !image.is_empty() {
            let scan = scan_v2(&image);
            recovery.quarantined_spans = scan.mid_spans();
            recovery.quarantined_bytes =
                scan.spans.iter().map(|s| s.1).sum::<u64>() - scan.tail_bytes();
            good_end = scan.len - scan.tail_bytes();
            index.reserve(scan.records.len());
            // Duplicate keys: the last record wins (content addressing
            // makes every copy the same payload).
            for (key, at, len) in scan.records {
                let at = (at - HEADER_LEN) as u64;
                index.insert(
                    key,
                    Slot::Log {
                        at,
                        len: len as u32,
                    },
                );
            }
            // Appends land at the file's end, which the trim below can
            // move back to `good_end`: cut the image there too, so no
            // appended record is mistaken for a replayed one.
            image.truncate(good_end as usize);
        }
        // O_APPEND: every record lands at the file's *current* end, so
        // two processes sharing a store directory interleave whole
        // records instead of overwriting each other at a stale offset.
        // (Duplicate keys across processes are benign: values are
        // content-addressed, and replay's last-insert-wins indexes the
        // same payload.)
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let disk_len = file.metadata()?.len();
        if disk_len == 0 {
            file.write_all(MAGIC)?;
            file.flush()?;
        } else if !read_faulted && good_end < disk_len {
            // Trim a torn tail so future appends stay parseable. (Under
            // an injected short read the view is not ground truth, so
            // the real file is left alone.)
            file.set_len(good_end)?;
            recovery.trimmed_tail_bytes = disk_len - good_end;
        }
        Ok(Store {
            inner: Mutex::new(Inner {
                index,
                image,
                inflight: HashSet::new(),
                file: Some(file),
                faults,
            }),
            settled: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            dir: Some(dir.to_path_buf()),
            recovery,
        })
    }

    /// The store directory, if file-backed.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// What replay found (and did) while opening this store's log.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Faults the attached plan has injected so far; `None` when the
    /// store was opened without one.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.inner
            .lock()
            .expect("store lock")
            .faults
            .as_ref()
            .map(FaultPlan::stats)
    }

    /// Forces everything appended so far onto stable storage
    /// (`fsync`). Appends already flush to the OS; this is the stronger
    /// barrier a graceful shutdown wants.
    ///
    /// # Errors
    ///
    /// The underlying `fsync` failure, if any.
    pub fn sync(&self) -> io::Result<()> {
        let g = self.inner.lock().expect("store lock");
        if let Some(file) = g.file.as_ref() {
            file.sync_all()?;
        }
        Ok(())
    }

    /// Looks a key up, counting a hit or miss.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let mut g = self.inner.lock().expect("store lock");
        match g.lookup(key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a value unless the key already exists (first write
    /// wins). Returns whether the value was inserted. Does not touch
    /// the hit/miss counters.
    ///
    /// # Errors
    ///
    /// I/O failures appending to the log (file-backed stores only); the
    /// index is only updated after a successful append, so the memory
    /// and disk views never diverge.
    pub fn put(&self, key: u64, value: &[u8]) -> io::Result<bool> {
        let mut g = self.inner.lock().expect("store lock");
        if g.index.contains_key(&key) {
            return Ok(false);
        }
        append_record(&mut g, key, value)?;
        Ok(true)
    }

    /// The single-flight cached compute: returns `(value, hit)` where
    /// `hit` says the value came from the store. When the key is
    /// absent, exactly one caller runs `compute` (outside the store
    /// lock) and publishes the result; concurrent callers for the same
    /// key block until it settles and then count as hits. A failed
    /// compute publishes nothing — the next caller retries.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns. A log-append failure after a
    /// successful compute is not an error: the value is still returned
    /// and indexed, the entry just degrades to memory-only.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `compute` — but unwinds safely: the
    /// in-flight marker is released on the way out (via a drop guard),
    /// so waiters retry instead of blocking forever.
    pub fn get_or_compute<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<Vec<u8>, E>,
    ) -> Result<(Vec<u8>, bool), E> {
        self.fetch_or_compute(key, true, compute)
    }

    /// [`Store::get_or_compute`] without touching the hit/miss
    /// counters, for re-reading values whose lookups were counted when
    /// they were first asked for (a server rebuilding a finished job's
    /// rows). A value that no longer reads back is recomputed and
    /// appended like any other.
    ///
    /// # Errors
    ///
    /// As [`Store::get_or_compute`].
    pub fn reread_or_compute<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<Vec<u8>, E>,
    ) -> Result<(Vec<u8>, bool), E> {
        self.fetch_or_compute(key, false, compute)
    }

    fn fetch_or_compute<E>(
        &self,
        key: u64,
        counted: bool,
        compute: impl FnOnce() -> Result<Vec<u8>, E>,
    ) -> Result<(Vec<u8>, bool), E> {
        let count = |counter: &AtomicU64| {
            if counted {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        };
        let mut g = self.inner.lock().expect("store lock");
        loop {
            if let Some(v) = g.lookup(key) {
                count(&self.hits);
                return Ok((v, true));
            }
            if g.inflight.insert(key) {
                break; // we are the computing leader for this key
            }
            g = self.settled.wait(g).expect("store lock");
        }
        drop(g);
        // From here until return we hold the in-flight marker; the
        // guard releases it and wakes waiters on every exit path —
        // including a panic unwinding out of `compute`, which would
        // otherwise leave waiters asleep forever.
        let _guard = InflightGuard { store: self, key };
        count(&self.misses);
        let outcome = compute();
        let mut g = self.inner.lock().expect("store lock");
        let result = match outcome {
            Ok(value) => {
                if !g.index.contains_key(&key) && append_record(&mut g, key, &value).is_err() {
                    // A failed append keeps the entry memory-only; the
                    // value itself is still good.
                    g.index.insert(key, Slot::Mem(value.clone()));
                }
                Ok((value, false))
            }
            Err(e) => Err(e),
        };
        drop(g);
        // _guard drops here: the value (if any) is already published,
        // so woken waiters find it in the index.
        result
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("store lock").index.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This instance's hit/miss counters plus the current entry count.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

/// Releases a [`Store`]'s in-flight marker for one key and wakes
/// waiters — on normal return *and* on unwind, so a panicking compute
/// never strands the waiters on the condvar.
struct InflightGuard<'a> {
    store: &'a Store,
    key: u64,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        // Never panic in drop (it may already be running on an unwind
        // path): a poisoned lock is recovered, not propagated.
        let mut g = match self.store.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        g.inflight.remove(&self.key);
        drop(g);
        self.store.settled.notify_all();
    }
}

/// Appends one record and indexes it (caller holds the lock and has
/// checked the key is absent). An attached fault plan is consulted
/// first: a torn write leaves a record prefix on disk and errors, a
/// bit flip corrupts the disk bytes but keeps the good value in memory,
/// and a no-space fault errors before touching the file.
fn append_record(g: &mut Inner, key: u64, value: &[u8]) -> io::Result<()> {
    let mut slot = None;
    if let Some(file) = g.file.as_mut() {
        let mut rec = encode_record(key, value);
        let fault = g
            .faults
            .as_mut()
            .map_or(WriteFault::None, |p| p.next_write(rec.len()));
        match fault {
            WriteFault::NoSpace => {
                return Err(io::Error::other("injected fault: no space left on device"));
            }
            WriteFault::Torn { keep } => {
                file.write_all(&rec[..keep])?;
                file.flush()?;
                return Err(io::Error::other(
                    "injected fault: torn write (crash mid-append)",
                ));
            }
            WriteFault::Flip { offset, bit } => {
                rec[offset] ^= 1 << bit;
                file.write_all(&rec)?;
                file.flush()?;
            }
            WriteFault::None => {
                file.write_all(&rec)?;
                file.flush()?;
                // An O_APPEND write leaves this handle's offset at the
                // end of its own record, even if another process
                // appended since.
                let at = file.stream_position()? - rec.len() as u64;
                let len = value.len() as u32;
                slot = Some(Slot::Log { at, len });
            }
        }
    }
    let slot = slot.unwrap_or_else(|| Slot::Mem(value.to_vec()));
    g.index.insert(key, slot);
    Ok(())
}

impl Inner {
    /// The value under `key`. A replayed value is sliced from the image.
    /// An appended record is read back with one positioned read and
    /// re-verified; one that no longer verifies (damaged on disk since
    /// it was appended) drops its entry and reads as absent, so the
    /// caller recomputes it.
    fn lookup(&mut self, key: u64) -> Option<Vec<u8>> {
        let (at, len) = match self.index.get(&key)? {
            Slot::Mem(v) => return Some(v.clone()),
            Slot::Log { at, len } => (*at, *len as usize),
        };
        let start = at as usize + HEADER_LEN;
        if let Some(value) = self.image.get(start..start + len) {
            return Some(value.to_vec());
        }
        let mut rec = vec![0; HEADER_LEN + len];
        let read = self.file.as_ref()?.read_exact_at(&mut rec, at);
        match read.ok().and_then(|()| parse_at(&rec, 0)) {
            Some((k, _, n)) if k == key && n == len => {
                rec.drain(..HEADER_LEN);
                Some(rec)
            }
            _ => {
                self.index.remove(&key);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// A v2 log holding `records` in order (duplicates kept).
    fn log_of<'a>(records: impl IntoIterator<Item = (u64, &'a [u8])>) -> Vec<u8> {
        let mut log = MAGIC.to_vec();
        for (key, payload) in records {
            encode_record_into(&mut log, key, payload);
        }
        log
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The checksum hashes the record in place, and is exactly
        /// FNV-1a over `key_le ++ len_le ++ payload`: the on-disk
        /// format.
        #[test]
        fn record_sum_is_fnv1a_of_key_len_and_payload(
            key in any::<u64>(),
            payload in vec(any::<u8>(), 0..600),
        ) {
            let mut joined = key.to_le_bytes().to_vec();
            joined.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            joined.extend_from_slice(&payload);
            prop_assert_eq!(record_sum(key, &payload), fnv1a(&joined));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The framed, chunk-verified scan is the serial scan: on any
        /// log, damaged or not, and split over any number of threads,
        /// it finds the same records and the same spans.
        #[test]
        fn fast_scan_equals_the_serial_scan(
            records in vec((0u64..12, vec(any::<u8>(), 0..200)), 0..24),
            cut in any::<u64>(),
            flips in vec((any::<u64>(), 1u8..=255), 0..3),
            splice in vec(any::<u8>(), 0..40),
            threads in 1usize..5,
        ) {
            let clean = log_of(records.iter().map(|(k, p)| (*k, p.as_slice())));
            prop_assert_eq!(scan_v2_with(&clean, threads), scan_v2_serial(&clean));
            let mut raw = clean.clone();
            let body = raw.len() - MAGIC.len();
            raw.truncate(MAGIC.len() + cut as usize % (body + 1));
            let at = MAGIC.len() + cut as usize % (raw.len() - MAGIC.len() + 1);
            raw.splice(at..at, splice);
            for (pos, mask) in flips {
                if raw.len() > MAGIC.len() {
                    let i = MAGIC.len() + pos as usize % (raw.len() - MAGIC.len());
                    raw[i] ^= mask;
                }
            }
            prop_assert_eq!(scan_v2_with(&raw, threads), scan_v2_serial(&raw));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The four-lane verifier gives `verifies`' verdict for every
        /// record, on records of unequal lengths (a quarter of them
        /// empty) with damage anywhere: for every group of four, and
        /// for a run that leaves one to three records over.
        #[test]
        fn lane_verdicts_equal_the_serial_verdicts(
            records in vec((any::<u64>(), 0u8..4, vec(any::<u8>(), 0..90)), 1..15),
            flips in vec((any::<u64>(), 1u8..=255), 0..4),
        ) {
            let payloads: Vec<(u64, Vec<u8>)> = records
                .into_iter()
                .map(|(key, empty, p)| (key, if empty == 0 { Vec::new() } else { p }))
                .collect();
            let mut raw = log_of(payloads.iter().map(|(k, p)| (*k, p.as_slice())));
            let framed = scan_v2_serial(&raw).records;
            prop_assert_eq!(framed.len(), payloads.len());
            for (pos, mask) in flips {
                let i = MAGIC.len() + pos as usize % (raw.len() - MAGIC.len());
                raw[i] ^= mask;
            }
            let serial: Vec<bool> = framed.iter().map(|&rec| verifies(&raw, rec)).collect();
            for (i, group) in framed.windows(4).enumerate() {
                let lanes = verifies4(&raw, group.try_into().unwrap());
                prop_assert_eq!(&lanes[..], &serial[i..i + 4]);
            }
            for start in 0..framed.len() {
                let all = serial[start..].iter().all(|&ok| ok);
                prop_assert_eq!(verify_chunk(&raw, &framed[start..]), all);
            }
        }
    }

    /// Every chunk's verdict counts, and so does every byte a lane
    /// hashes: a flip of any payload or checksum byte of any record
    /// fails the verification on one to four threads. The records
    /// differ in length (one is empty), so a group's longer records
    /// have bytes past its shortest, which the lanes finish alone.
    #[test]
    fn threaded_verify_catches_a_bad_record_in_any_chunk() {
        let payloads: Vec<Vec<u8>> = (0..11u8)
            .map(|k| vec![k; usize::from(k) * 7 % 23])
            .collect();
        let clean = log_of(payloads.iter().enumerate().map(|(k, p)| (k as u64, &p[..])));
        let framed = scan_v2_serial(&clean).records;
        for threads in 1..=4 {
            assert!(verify_all(&clean, &framed, threads));
            for &(_, at, len) in &framed {
                for i in at - 8..at + len {
                    let mut bad = clean.clone();
                    bad[i] ^= 1;
                    assert!(
                        !verify_all(&bad, &framed, threads),
                        "flip at {i} missed on {threads} threads"
                    );
                }
            }
        }
    }

    /// The split read returns what `std::fs::read` does: for logs
    /// below, at and above the size read on several threads, for odd
    /// lengths, and for a file that grew or shrank after its length
    /// was taken.
    #[test]
    fn split_read_equals_fs_read() {
        let dir = temp_dir("split-read");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(LOG_NAME);
        for len in [
            0,
            1,
            4097,
            PARALLEL_VERIFY_MIN - 1,
            PARALLEL_VERIFY_MIN,
            PARALLEL_VERIFY_MIN + 3,
        ] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            std::fs::write(&path, &bytes).unwrap();
            let file = File::open(&path).unwrap();
            assert_eq!(read_log(&path).unwrap(), bytes, "{len} bytes");
            for threads in 1..=4 {
                for taken in [len, len / 3, len + 1, len + 5000] {
                    let image = read_image(&file, taken, threads).unwrap();
                    assert!(
                        image == bytes,
                        "{len} bytes read as {taken} on {threads} threads"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A corrupted length field misframes every record after it: the
    /// fast path gives up, and the serial scanner quarantines exactly
    /// the damaged record and keeps the rest.
    #[test]
    fn misframing_length_falls_back_and_quarantines_the_same_span() {
        let dir = temp_dir("misframe");
        {
            let s = Store::open(&dir).unwrap();
            for k in 0..4u64 {
                s.put(k, format!("value-{k}").as_bytes()).unwrap();
            }
        }
        let path = dir.join(LOG_NAME);
        let mut raw = std::fs::read(&path).unwrap();
        let rec = HEADER_LEN + b"value-0".len();
        let second = MAGIC.len() + rec;
        raw[second + 8] += 3; // record 1 claims 10 payload bytes, not 7
        std::fs::write(&path, &raw).unwrap();
        let serial = scan_v2_serial(&raw);
        assert_eq!(serial.spans, vec![(second as u64, rec as u64)]);
        assert_eq!(scan_v2_with(&raw, 2), serial);
        let s = Store::open(&dir).unwrap();
        let report = s.recovery();
        assert_eq!(
            (report.quarantined_spans, report.quarantined_bytes),
            (1, rec as u64)
        );
        assert_eq!(s.get(1), None);
        for k in [0u64, 2, 3] {
            assert_eq!(s.get(k), Some(format!("value-{k}").into_bytes()));
        }
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A key logged twice (two writers interleaving) indexes its last
    /// record, on a log long enough to verify on several threads.
    #[test]
    fn duplicate_keys_keep_the_last_record() {
        let dir = temp_dir("dupes");
        std::fs::create_dir_all(&dir).unwrap();
        let filler = vec![7u8; PARALLEL_VERIFY_MIN / 16];
        let mut records: Vec<(u64, &[u8])> = vec![(5, b"first"), (6, b"six")];
        records.extend((100..120u64).map(|k| (k, filler.as_slice())));
        records.push((5, b"second"));
        std::fs::write(dir.join(LOG_NAME), log_of(records)).unwrap();
        let s = Store::open(&dir).unwrap();
        assert!(s.recovery().is_clean());
        assert_eq!(s.len(), 22);
        assert_eq!(s.get(5).as_deref(), Some(&b"second"[..]));
        assert_eq!(s.get(6).as_deref(), Some(&b"six"[..]));
        assert_eq!(s.get(119).as_deref(), Some(filler.as_slice()));
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Replayed values come from the image and appended ones from the
    /// file; no value is copied out at open, and a bit flip on disk in
    /// an appended record still reads as a miss.
    #[test]
    fn image_and_appended_values_are_both_served() {
        let dir = temp_dir("mixed");
        {
            let s = Store::open(&dir).unwrap();
            for k in 0..3u64 {
                s.put(k, format!("replayed-{k}").as_bytes()).unwrap();
            }
        }
        let s = Store::open(&dir).unwrap();
        let image_len = {
            let g = s.inner.lock().unwrap();
            assert!(g
                .index
                .values()
                .all(|slot| matches!(slot, Slot::Log { .. })));
            g.image.len()
        };
        assert_eq!(
            image_len as u64,
            std::fs::metadata(dir.join(LOG_NAME)).unwrap().len()
        );
        for k in 3..6u64 {
            s.put(k, format!("appended-{k}").as_bytes()).unwrap();
        }
        for k in 0..6u64 {
            let want = if k < 3 { "replayed" } else { "appended" };
            assert_eq!(s.get(k), Some(format!("{want}-{k}").into_bytes()));
        }
        let path = dir.join(LOG_NAME);
        let mut raw = std::fs::read(&path).unwrap();
        let fifth = image_len + (HEADER_LEN + b"appended-3".len()) + HEADER_LEN;
        raw[fifth] ^= 0x08; // a payload byte of key 4
        std::fs::write(&path, &raw).unwrap();
        assert_eq!(s.get(4), None, "damaged appended record is not served");
        for k in [0u64, 1, 2, 3, 5] {
            assert!(s.get(k).is_some(), "key {k}");
        }
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// After a torn tail is trimmed, the next append lands where the
    /// torn bytes were; it is read back from the file, never from the
    /// stale bytes open read there.
    #[test]
    fn appends_over_a_trimmed_tail_read_back_from_the_file() {
        let dir = temp_dir("retail");
        {
            let s = Store::open(&dir).unwrap();
            s.put(1, b"good").unwrap();
        }
        let path = dir.join(LOG_NAME);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&2u64.to_le_bytes()).unwrap();
        f.write_all(&500u32.to_le_bytes()).unwrap();
        f.write_all(&[0xAB; 200]).unwrap();
        drop(f);
        let s = Store::open(&dir).unwrap();
        assert!(s.recovery().trimmed_tail_bytes > 0);
        assert!(s.put(2, b"retry").unwrap());
        assert_eq!(s.get(2).as_deref(), Some(&b"retry"[..]));
        assert_eq!(s.get(1).as_deref(), Some(&b"good"[..]));
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bftbcast-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_dedupe_and_stats() {
        let s = Store::in_memory();
        assert!(s.is_empty());
        assert_eq!(s.get(7), None);
        assert!(s.put(7, b"alpha").unwrap());
        assert!(!s.put(7, b"alpha").unwrap(), "first write wins");
        assert_eq!(s.get(7).as_deref(), Some(&b"alpha"[..]));
        let stats = s.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn reopen_replays_the_log() {
        let dir = temp_dir("reopen");
        {
            let s = Store::open(&dir).unwrap();
            assert!(s.put(1, b"one").unwrap());
            assert!(s.put(2, b"two").unwrap());
        }
        {
            let s = Store::open(&dir).unwrap();
            assert_eq!(s.len(), 2);
            assert!(s.recovery().is_clean());
            assert_eq!(s.get(2).as_deref(), Some(&b"two"[..]));
            // Fresh instance: counters start at zero.
            assert_eq!(s.stats().hits, 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Values appended after open are read back from the log, so a
    /// record damaged on disk while the store is open reads as absent
    /// and is recomputed — never served corrupt — while its neighbours
    /// still read fine.
    #[test]
    fn appended_values_read_back_from_the_log_and_reverify() {
        let dir = temp_dir("readback");
        let s = Store::open(&dir).unwrap();
        for k in 0..3u64 {
            s.put(k, format!("value-{k}").as_bytes()).unwrap();
        }
        let path = dir.join(LOG_NAME);
        let mut raw = std::fs::read(&path).unwrap();
        let second = MAGIC.len() + (HEADER_LEN + 7) + HEADER_LEN;
        raw[second] ^= 0x40; // a payload byte of key 1
        std::fs::write(&path, &raw).unwrap();
        assert_eq!(s.get(0).as_deref(), Some(&b"value-0"[..]));
        assert_eq!(s.get(1), None, "damaged record is not served");
        let (v, hit) = s
            .get_or_compute(1, || Ok::<_, ()>(b"value-1".to_vec()))
            .unwrap();
        assert_eq!((v.as_slice(), hit), (&b"value-1"[..], false));
        assert_eq!(s.get(1).as_deref(), Some(&b"value-1"[..]));
        assert_eq!(s.get(2).as_deref(), Some(&b"value-2"[..]));
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_and_trimmed() {
        let dir = temp_dir("torn");
        {
            let s = Store::open(&dir).unwrap();
            s.put(1, b"good").unwrap();
        }
        let path = dir.join(LOG_NAME);
        // Simulate a crash mid-append: a header promising more payload
        // than exists.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&2u64.to_le_bytes()).unwrap();
        f.write_all(&100u32.to_le_bytes()).unwrap();
        f.write_all(b"short").unwrap();
        drop(f);
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.len(), 1, "torn record discarded");
        assert!(s.recovery().trimmed_tail_bytes > 0);
        assert!(s.put(2, b"retry").unwrap());
        drop(s);
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.len(), 2, "append after trim stays parseable");
        assert!(s.recovery().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A flipped byte mid-log quarantines exactly that record; the
    /// records after it survive, and reopening is stable.
    #[test]
    fn midlog_corruption_is_quarantined_not_fatal() {
        let dir = temp_dir("midlog");
        {
            let s = Store::open(&dir).unwrap();
            for k in 0..4u64 {
                s.put(k, format!("value-{k}").as_bytes()).unwrap();
            }
        }
        let path = dir.join(LOG_NAME);
        let mut raw = std::fs::read(&path).unwrap();
        // Corrupt one payload byte of the second record: the layout is
        // magic 8, then per record HEADER_LEN + payload.
        let rec0 = HEADER_LEN + b"value-0".len();
        let flip_at = 8 + rec0 + HEADER_LEN + 2;
        raw[flip_at] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.len(), 3, "one record quarantined");
        assert_eq!(s.get(1), None, "the corrupted record is not served");
        assert_eq!(s.get(0).as_deref(), Some(&b"value-0"[..]));
        assert_eq!(s.get(3).as_deref(), Some(&b"value-3"[..]));
        let rec = s.recovery();
        assert_eq!(rec.quarantined_spans, 1);
        assert!(rec.quarantined_bytes > 0);
        // The lost key recomputes and reappends cleanly.
        assert!(s.put(1, b"value-1").unwrap());
        drop(s);
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.get(1).as_deref(), Some(&b"value-1"[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Version-1 logs (no checksums) are migrated to version 2 at open
    /// with every record intact.
    #[test]
    fn v1_logs_migrate_at_open() {
        let dir = temp_dir("migrate");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(LOG_NAME);
        let mut v1 = MAGIC_V1.to_vec();
        for (key, payload) in [(10u64, &b"ten"[..]), (11, b"eleven")] {
            v1.extend_from_slice(&key.to_le_bytes());
            v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            v1.extend_from_slice(payload);
        }
        std::fs::write(&path, &v1).unwrap();
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.recovery().migrated_from_v1);
        assert_eq!(s.get(11).as_deref(), Some(&b"eleven"[..]));
        drop(s);
        let raw = std::fs::read(&path).unwrap();
        assert_eq!(&raw[..8], MAGIC, "rewritten under the new magic");
        let s = Store::open(&dir).unwrap();
        assert!(s.recovery().is_clean(), "second open is a plain replay");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_files_are_rejected() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOG_NAME), b"not a store").unwrap();
        assert!(Store::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Injected torn writes and full disks surface as errors (or
    /// degrade to memory-only entries under get_or_compute) and never
    /// corrupt what a reopen recovers.
    #[test]
    fn injected_write_faults_degrade_gracefully() {
        let dir = temp_dir("faulty-writes");
        let total = 40u64;
        let plan = FaultPlan::seeded(0xFA11).torn_writes(250).no_space(250);
        let injected;
        {
            let s = Store::open_with_faults(&dir, plan).unwrap();
            for k in 0..total {
                let value = format!("payload-{k}").into_bytes();
                let (got, _) = s
                    .get_or_compute(k, || Ok::<_, io::Error>(value.clone()))
                    .unwrap();
                assert_eq!(got, value, "the caller always gets the right bytes");
            }
            injected = s.fault_stats().unwrap();
            assert!(injected.total() > 0, "rates this high must fire");
            assert_eq!(s.len() as u64, total, "memory view stays complete");
        }
        let s = Store::open(&dir).unwrap();
        // Faulted appends are missing; everything recovered is right.
        assert_eq!(s.len() as u64, total - injected.total());
        for k in 0..total {
            if let Some(v) = s.get(k) {
                assert_eq!(v, format!("payload-{k}").into_bytes());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Injected bit flips corrupt the disk silently; replay quarantines
    /// exactly the flipped records.
    #[test]
    fn injected_bit_flips_are_quarantined_at_reopen() {
        let dir = temp_dir("faulty-flips");
        let total = 30u64;
        let flips;
        {
            let s =
                Store::open_with_faults(&dir, FaultPlan::seeded(0xF11B).bit_flips(300)).unwrap();
            for k in 0..total {
                s.put(k, format!("payload-{k}").as_bytes()).unwrap();
            }
            flips = s.fault_stats().unwrap().bit_flips;
            assert!(flips > 0);
        }
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.len() as u64, total - flips, "every flip quarantined");
        for k in 0..total {
            if let Some(v) = s.get(k) {
                assert_eq!(v, format!("payload-{k}").into_bytes());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An injected short read opens a truncated view without panicking
    /// or serving bad data, and leaves the real file untouched.
    #[test]
    fn injected_short_reads_never_serve_bad_data() {
        let dir = temp_dir("faulty-reads");
        {
            let s = Store::open(&dir).unwrap();
            for k in 0..10u64 {
                s.put(k, format!("payload-{k}").as_bytes()).unwrap();
            }
        }
        let disk_len = std::fs::metadata(dir.join(LOG_NAME)).unwrap().len();
        let s = Store::open_with_faults(&dir, FaultPlan::seeded(0x5014).short_reads(1000)).unwrap();
        assert_eq!(s.fault_stats().unwrap().short_reads, 1);
        assert!(s.len() <= 10);
        for k in 0..10u64 {
            if let Some(v) = s.get(k) {
                assert_eq!(v, format!("payload-{k}").into_bytes());
            }
        }
        drop(s);
        assert_eq!(
            std::fs::metadata(dir.join(LOG_NAME)).unwrap().len(),
            disk_len,
            "a short read never truncates the real file"
        );
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.len(), 10, "a faithful reopen sees everything");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_or_compute_hits_after_first_compute() {
        let s = Store::in_memory();
        let (v, hit) = s
            .get_or_compute(9, || Ok::<_, io::Error>(b"val".to_vec()))
            .unwrap();
        assert!(!hit);
        assert_eq!(v, b"val");
        let (v, hit) = s
            .get_or_compute(9, || -> Result<Vec<u8>, io::Error> {
                panic!("must not recompute")
            })
            .unwrap();
        assert!(hit);
        assert_eq!(v, b"val");
        let stats = s.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn panicking_computes_release_the_inflight_marker() {
        let s = Arc::new(Store::in_memory());
        let crashed = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let _ =
                    s.get_or_compute(5, || -> Result<Vec<u8>, io::Error> { panic!("engine bug") });
            })
        };
        assert!(crashed.join().is_err(), "the panic propagates");
        // The key is no longer in flight: this call must compute, not
        // block forever on the condvar.
        let (v, hit) = s.get_or_compute(5, || Ok::<_, io::Error>(vec![9])).unwrap();
        assert!(!hit);
        assert_eq!(v, vec![9]);
    }

    #[test]
    fn failed_computes_publish_nothing() {
        let s = Store::in_memory();
        let err = s
            .get_or_compute(3, || Err::<Vec<u8>, _>("boom"))
            .unwrap_err();
        assert_eq!(err, "boom");
        assert!(s.is_empty());
        // The next caller retries and can succeed.
        let (v, hit) = s.get_or_compute(3, || Ok::<_, &str>(vec![1])).unwrap();
        assert!(!hit);
        assert_eq!(v, vec![1]);
    }

    /// Two threads racing the same key: single-flight means exactly one
    /// compute and exactly one store entry; the loser blocks and reads
    /// the leader's value as a hit.
    #[test]
    fn concurrent_same_key_computes_exactly_once() {
        let s = Arc::new(Store::in_memory());
        let computes = Arc::new(AtomicUsize::new(0));
        // The leader's compute stalls until the chaser has announced it
        // is about to call get_or_compute, forcing genuine overlap
        // (worst case the chaser arrives after the leader finished — a
        // plain hit, which asserts the same way).
        let (announce, announced) = std::sync::mpsc::channel::<()>();
        let chaser = {
            let s = Arc::clone(&s);
            let computes = Arc::clone(&computes);
            std::thread::spawn(move || {
                announce.send(()).unwrap();
                let (v, _) = s
                    .get_or_compute(42, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        Ok::<_, io::Error>(b"winner".to_vec())
                    })
                    .unwrap();
                v
            })
        };
        let (v, _) = s
            .get_or_compute(42, || {
                announced.recv().unwrap();
                computes.fetch_add(1, Ordering::SeqCst);
                Ok::<_, io::Error>(b"winner".to_vec())
            })
            .unwrap();
        let chaser_v = chaser.join().unwrap();
        assert_eq!(v, b"winner");
        assert_eq!(chaser_v, b"winner");
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
        assert_eq!(s.len(), 1, "exactly one store entry");
        let stats = s.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
