//! Offline store maintenance: [`fsck`] (verify), [`repair`] (heal), and
//! [`compact`] (rewrite clean). Exposed to operators as the
//! `bftbcast store fsck|repair|compact` CLI verbs.
//!
//! All three read and scan the log the same way replay does — one read
//! split over every core, then parsing and verifying every record
//! checksum, resynchronizing across corrupt spans — so their verdicts
//! match exactly what [`Store::open`](crate::Store::open) would
//! recover:
//!
//! * **fsck** is read-only. It reports totals, quarantined spans, lost
//!   bytes, torn tails, and stale format versions; a dirty log is the
//!   caller's signal to run `repair`.
//! * **repair** rewrites the log from its verifiable records when — and
//!   only when — fsck would complain. The rewrite is atomic (temp file
//!   + `fsync` + rename), so a crash mid-repair loses nothing.
//! * **compact** is `repair` with `force`: it always rewrites, which
//!   also drops duplicate records a multi-writer interleave may have
//!   appended and migrates v1 logs even when they are otherwise clean.
//!
//! Corrupted records cannot be restored (their bytes are gone); repair
//! removes them so the next submit recomputes them. That is safe
//! precisely because the store is content-addressed: recomputing a key
//! reproduces the identical payload.
//!
//! ```no_run
//! use bftbcast_store::{fsck, repair};
//!
//! match fsck(".bftbcast-store") {
//!     Ok(report) => println!("clean: {report}"),
//!     Err(err) => {
//!         eprintln!("dirty: {err}");
//!         let healed = repair(".bftbcast-store")?;
//!         println!("{healed}");
//!     }
//! }
//! # Ok::<(), std::io::Error>(())
//! ```

use std::io;
use std::path::Path;

use crate::log::{
    read_log, rewrite_bytes, scan_v1, scan_v2, write_atomic, Scan, LOG_NAME, MAGIC, MAGIC_V1,
};

/// What a read-only [`fsck`] scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Records that parsed and passed their checksum.
    pub valid_records: usize,
    /// Corrupt spans strictly inside the log.
    pub quarantined_spans: usize,
    /// Bytes inside those mid-log spans.
    pub quarantined_bytes: u64,
    /// Unparseable bytes at EOF (a torn append).
    pub torn_tail_bytes: u64,
    /// Log format version (1 logs verify by framing only and should be
    /// migrated via `repair`/`compact`).
    pub version: u8,
    /// Total log length in bytes.
    pub log_bytes: u64,
}

impl FsckReport {
    /// Whether the log needs no repair: current format, no corruption,
    /// no tear.
    pub fn is_clean(&self) -> bool {
        self.quarantined_spans == 0 && self.torn_tail_bytes == 0 && self.version == 2
    }
}

impl std::fmt::Display for FsckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "v{} log, {} bytes, {} valid records, {} corrupt spans ({} bytes), {} torn tail bytes",
            self.version,
            self.log_bytes,
            self.valid_records,
            self.quarantined_spans,
            self.quarantined_bytes,
            self.torn_tail_bytes
        )
    }
}

/// What a [`repair`] or [`compact`] rewrite did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// The fsck view of the log before any rewrite.
    pub before: FsckReport,
    /// Whether the log was actually rewritten.
    pub rewritten: bool,
    /// Records carried into the rewritten log.
    pub kept_records: usize,
    /// Duplicate records dropped by the rewrite.
    pub dropped_duplicates: usize,
    /// Corrupt/torn bytes shed by the rewrite.
    pub reclaimed_bytes: u64,
}

impl std::fmt::Display for RepairReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.rewritten {
            write!(
                f,
                "rewrote log: kept {} records, dropped {} duplicates, reclaimed {} bytes (was: {})",
                self.kept_records, self.dropped_duplicates, self.reclaimed_bytes, self.before
            )
        } else {
            write!(f, "log already clean, nothing to do ({})", self.before)
        }
    }
}

/// Reads a store directory's log as [`Store::open`](crate::Store::open)
/// does and scans it; an absent log scans as an empty clean v2 log. Returns the log bytes with the scan that
/// locates its records in them.
pub(crate) fn scan_any(dir: &Path) -> io::Result<(Vec<u8>, Scan)> {
    let path = dir.join(LOG_NAME);
    let raw = match read_log(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => MAGIC.to_vec(),
        Err(e) => return Err(e),
    };
    if raw.len() < MAGIC.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not a bftbcast store log (too short)", path.display()),
        ));
    }
    let scan = if &raw[..8] == MAGIC {
        scan_v2(&raw)
    } else if &raw[..8] == MAGIC_V1 {
        scan_v1(&raw)
    } else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not a bftbcast store log (bad magic)", path.display()),
        ));
    };
    Ok((raw, scan))
}

fn report_from(scan: &Scan) -> FsckReport {
    let tail = scan.tail_bytes();
    FsckReport {
        valid_records: scan.records.len(),
        quarantined_spans: scan.mid_spans(),
        quarantined_bytes: scan.spans.iter().map(|s| s.1).sum::<u64>() - tail,
        torn_tail_bytes: tail,
        version: scan.version,
        log_bytes: scan.len,
    }
}

/// Verifies a store's log without modifying it.
///
/// Returns `Ok(report)` when the log is clean and `Err((report, err))`-
/// style `Err(io::Error)` carrying the report's `Display` when it is
/// not, so shell callers can branch on the exit code (`store fsck`
/// exits nonzero on a dirty log).
///
/// # Errors
///
/// A dirty log (corruption, torn tail, or stale v1 format) — the error
/// message is the fsck report — or an unreadable/foreign file.
pub fn fsck(dir: impl AsRef<Path>) -> io::Result<FsckReport> {
    let report = report_from(&scan_any(dir.as_ref())?.1);
    if report.is_clean() {
        Ok(report)
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("store log needs repair: {report}"),
        ))
    }
}

/// Like [`fsck`] but never errors on a dirty log — returns the report
/// either way. The programmatic entry point ([`fsck`] is shaped for
/// exit codes).
///
/// # Errors
///
/// Only unreadable or foreign (bad magic) files.
pub fn fsck_report(dir: impl AsRef<Path>) -> io::Result<FsckReport> {
    Ok(report_from(&scan_any(dir.as_ref())?.1))
}

fn rewrite(dir: &Path, force: bool) -> io::Result<RepairReport> {
    let (raw, scan) = scan_any(dir)?;
    let before = report_from(&scan);
    if before.is_clean() && !force {
        return Ok(RepairReport {
            before,
            ..RepairReport::default()
        });
    }
    let (bytes, duplicates) = rewrite_bytes(&raw, &scan.records);
    write_atomic(&dir.join(LOG_NAME), &bytes)?;
    Ok(RepairReport {
        before,
        rewritten: true,
        kept_records: scan.records.len() - duplicates,
        dropped_duplicates: duplicates,
        reclaimed_bytes: before.log_bytes.saturating_sub(bytes.len() as u64),
    })
}

/// Heals a dirty log: rewrites it from its verifiable records
/// (atomically), shedding corrupt spans and torn tails and migrating
/// v1 logs. A clean log is left untouched.
///
/// # Errors
///
/// Unreadable/foreign files or I/O failures during the rewrite.
pub fn repair(dir: impl AsRef<Path>) -> io::Result<RepairReport> {
    rewrite(dir.as_ref(), false)
}

/// Rewrites the log unconditionally: everything [`repair`] does, plus
/// dropping duplicate records on a log that is otherwise clean.
///
/// # Errors
///
/// Unreadable/foreign files or I/O failures during the rewrite.
pub fn compact(dir: impl AsRef<Path>) -> io::Result<RepairReport> {
    rewrite(dir.as_ref(), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::HEADER_LEN;
    use crate::Store;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bftbcast-maint-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seeded(dir: &Path, n: u64) {
        let s = Store::open(dir).unwrap();
        for k in 0..n {
            s.put(k, format!("value-{k}").as_bytes()).unwrap();
        }
    }

    #[test]
    fn fsck_passes_a_clean_log() {
        let dir = temp_dir("clean");
        seeded(&dir, 3);
        let report = fsck(&dir).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.valid_records, 3);
        assert_eq!(report.version, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_flags_corruption_and_repair_heals_it() {
        let dir = temp_dir("heal");
        seeded(&dir, 4);
        let path = dir.join(LOG_NAME);
        let mut raw = std::fs::read(&path).unwrap();
        let rec0 = HEADER_LEN + b"value-0".len();
        raw[8 + rec0 + 3] ^= 0xFF; // corrupt record 1's header
        std::fs::write(&path, &raw).unwrap();

        let err = fsck(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let dirty = fsck_report(&dir).unwrap();
        assert!(!dirty.is_clean());
        assert_eq!(dirty.valid_records, 3);
        assert_eq!(dirty.quarantined_spans, 1);

        let repaired = repair(&dir).unwrap();
        assert!(repaired.rewritten);
        assert_eq!(repaired.kept_records, 3);
        assert!(repaired.reclaimed_bytes > 0);

        let clean = fsck(&dir).unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.valid_records, 3);
        // The healed store serves only verified records.
        let s = Store::open(&dir).unwrap();
        assert!(s.recovery().is_clean());
        assert_eq!(s.get(1), None);
        assert_eq!(s.get(3).as_deref(), Some(&b"value-3"[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_leaves_a_clean_log_untouched() {
        let dir = temp_dir("noop");
        seeded(&dir, 2);
        let before = std::fs::read(dir.join(LOG_NAME)).unwrap();
        let report = repair(&dir).unwrap();
        assert!(!report.rewritten);
        assert_eq!(std::fs::read(dir.join(LOG_NAME)).unwrap(), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_drops_duplicates_from_a_clean_log() {
        use crate::log::encode_record;
        let dir = temp_dir("dupes");
        seeded(&dir, 2);
        // Hand-append a duplicate of key 0, as an interleaved second
        // writer would.
        let mut raw = std::fs::read(dir.join(LOG_NAME)).unwrap();
        raw.extend_from_slice(&encode_record(0, b"value-0"));
        std::fs::write(dir.join(LOG_NAME), &raw).unwrap();
        assert!(fsck(&dir).is_ok(), "duplicates are not corruption");

        let report = compact(&dir).unwrap();
        assert!(report.rewritten);
        assert_eq!(report.kept_records, 2);
        assert_eq!(report.dropped_duplicates, 1);
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_migrates_v1_logs() {
        let dir = temp_dir("v1");
        std::fs::create_dir_all(&dir).unwrap();
        let mut v1 = MAGIC_V1.to_vec();
        v1.extend_from_slice(&7u64.to_le_bytes());
        v1.extend_from_slice(&3u32.to_le_bytes());
        v1.extend_from_slice(b"abc");
        std::fs::write(dir.join(LOG_NAME), &v1).unwrap();

        assert!(fsck(&dir).is_err(), "v1 format counts as dirty");
        let report = repair(&dir).unwrap();
        assert!(report.rewritten);
        assert_eq!(report.kept_records, 1);
        assert_eq!(fsck(&dir).unwrap().version, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absent_store_fscks_clean() {
        let dir = temp_dir("absent");
        let report = fsck(&dir).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.valid_records, 0);
    }
}
