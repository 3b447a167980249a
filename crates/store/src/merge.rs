//! Store federation primitives: [`Store::merge_from`] unions another
//! log's verified records into an open store, and [`sync`] reconciles
//! two store directories to the union in both directions.
//!
//! Both ride on the invariants the rest of the crate already enforces:
//!
//! * Keys are **content hashes**, so two stores can never disagree
//!   about a key's payload — a duplicate key is always the same bytes,
//!   and union is well-defined without version vectors or timestamps.
//! * Writes are **first-write-wins** ([`Store::put`]), so merging is
//!   idempotent and order-insensitive: merge A into B twice, or B into
//!   A instead, and the surviving key set is the same union.
//! * The source is scanned with the **same checksummed scan replay
//!   uses**, so a corrupt or torn source record is skipped (and
//!   counted), never imported.
//!
//! This is what makes federated sweeps (`bftbcast federate`)
//! consolidatable: every backend owns a shard-local store, and after
//! the run `store merge`/`store sync` fold the shards into one warm
//! store that replays bit-identically.

use std::io;
use std::path::Path;

use crate::log::Store;
use crate::maintenance::scan_any;

/// What one directed merge (source → destination) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Verified records found in the source log (duplicates included).
    pub scanned: usize,
    /// Records newly appended to the destination.
    pub imported: usize,
    /// Records whose key the destination already held (or that repeated
    /// within the source) — dropped, first write wins.
    pub duplicates: usize,
    /// Corrupt spans in the source that were skipped, not imported.
    pub skipped_spans: usize,
    /// Bytes inside those skipped spans.
    pub skipped_bytes: u64,
}

impl std::fmt::Display for MergeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "imported {} of {} records ({} duplicates), skipped {} corrupt spans ({} bytes)",
            self.imported, self.scanned, self.duplicates, self.skipped_spans, self.skipped_bytes
        )
    }
}

/// What a bidirectional [`sync`] did: one [`MergeReport`] per
/// direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// The B → A merge (records A was missing).
    pub into_a: MergeReport,
    /// The A → B merge (records B was missing).
    pub into_b: MergeReport,
}

impl std::fmt::Display for SyncReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a <- b: {}; b <- a: {}", self.into_a, self.into_b)
    }
}

impl Store {
    /// Unions another store directory's log into this store.
    ///
    /// The source log is scanned with the same per-record checksum
    /// verification replay uses: corrupt spans are skipped (and
    /// reported), a torn tail is ignored, and only verified records
    /// are imported. Each import goes through [`Store::put`], so keys
    /// this store already holds are deduplicated (first write wins)
    /// and the appends land in this store's own log. Hit/miss counters
    /// are untouched.
    ///
    /// Merging a directory into itself is a no-op (every record
    /// deduplicates).
    ///
    /// # Errors
    ///
    /// An unreadable or foreign (bad magic) source log, or I/O
    /// failures appending to this store's log.
    pub fn merge_from(&self, src: impl AsRef<Path>) -> io::Result<MergeReport> {
        let (raw, scan) = scan_any(src.as_ref())?;
        let mut report = MergeReport {
            scanned: scan.records.len(),
            skipped_spans: scan.spans.len(),
            skipped_bytes: scan.spans.iter().map(|s| s.1).sum(),
            ..MergeReport::default()
        };
        for &(key, at, len) in &scan.records {
            if self.put(key, &raw[at..at + len])? {
                report.imported += 1;
            } else {
                report.duplicates += 1;
            }
        }
        Ok(report)
    }
}

/// Unions the verified records of `src` into the store at `dst`
/// (creating it if absent). Directory-level convenience over
/// [`Store::merge_from`]; the destination log is fsynced before
/// returning.
///
/// # Errors
///
/// As [`Store::open`] on the destination and [`Store::merge_from`] on
/// the source.
pub fn merge(dst: impl AsRef<Path>, src: impl AsRef<Path>) -> io::Result<MergeReport> {
    let store = Store::open(dst)?;
    let report = store.merge_from(src)?;
    store.sync()?;
    Ok(report)
}

/// Reconciles two store directories to the union of their verified
/// records, in both directions: after a clean sync, `a` and `b` index
/// the same key set. Corrupt records on either side are skipped, not
/// propagated.
///
/// # Errors
///
/// As [`merge`] in either direction.
pub fn sync(a: impl AsRef<Path>, b: impl AsRef<Path>) -> io::Result<SyncReport> {
    let a = a.as_ref();
    let b = b.as_ref();
    // Pull B's records into A first, then push the (now complete)
    // union back into B; the second direction therefore needs no
    // third pass.
    let into_a = merge(a, b)?;
    let into_b = merge(b, a)?;
    Ok(SyncReport { into_a, into_b })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{encode_record, LOG_NAME};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bftbcast-merge-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seeded(dir: &Path, keys: std::ops::Range<u64>) {
        let s = Store::open(dir).unwrap();
        for k in keys {
            s.put(k, format!("value-{k}").as_bytes()).unwrap();
        }
    }

    #[test]
    fn merge_is_a_union_and_idempotent() {
        let a = temp_dir("union-a");
        let b = temp_dir("union-b");
        seeded(&a, 0..3);
        seeded(&b, 2..6);

        let report = merge(&a, &b).unwrap();
        assert_eq!(report.scanned, 4);
        assert_eq!(report.imported, 3, "keys 3..6 are new to a");
        assert_eq!(report.duplicates, 1, "key 2 deduplicates");
        assert_eq!(report.skipped_spans, 0);

        let again = merge(&a, &b).unwrap();
        assert_eq!(again.imported, 0, "second merge is a no-op");
        assert_eq!(again.duplicates, 4);

        let s = Store::open(&a).unwrap();
        assert_eq!(s.len(), 6);
        for k in 0..6u64 {
            assert_eq!(s.get(k).unwrap(), format!("value-{k}").into_bytes());
        }
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }

    #[test]
    fn merge_skips_corrupt_source_records() {
        let a = temp_dir("corrupt-a");
        let b = temp_dir("corrupt-b");
        seeded(&a, 0..1);
        seeded(&b, 10..13);
        // Flip a payload byte of b's middle record: it must be skipped,
        // the records around it imported.
        let path = b.join(LOG_NAME);
        let mut raw = std::fs::read(&path).unwrap();
        let rec = encode_record(10, b"value-10").len();
        raw[8 + rec + crate::log::HEADER_LEN + 2] ^= 0x20;
        std::fs::write(&path, &raw).unwrap();

        let report = merge(&a, &b).unwrap();
        assert_eq!(report.scanned, 2);
        assert_eq!(report.imported, 2);
        assert_eq!(report.skipped_spans, 1);
        assert!(report.skipped_bytes > 0);

        let s = Store::open(&a).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(11), None, "the corrupt record never crosses");
        assert_eq!(s.get(12).unwrap(), b"value-12");
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }

    #[test]
    fn sync_reconciles_both_directions() {
        let a = temp_dir("sync-a");
        let b = temp_dir("sync-b");
        seeded(&a, 0..4);
        seeded(&b, 3..8);

        let report = sync(&a, &b).unwrap();
        assert_eq!(report.into_a.imported, 4, "a gains 4..8");
        assert_eq!(report.into_b.imported, 3, "b gains 0..3");

        for dir in [&a, &b] {
            let s = Store::open(dir).unwrap();
            assert_eq!(s.len(), 8);
            for k in 0..8u64 {
                assert_eq!(s.get(k).unwrap(), format!("value-{k}").into_bytes());
            }
        }
        // A second sync moves nothing.
        let settled = sync(&a, &b).unwrap();
        assert_eq!(settled.into_a.imported, 0);
        assert_eq!(settled.into_b.imported, 0);
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }

    #[test]
    fn merge_from_an_absent_source_is_empty() {
        let a = temp_dir("absent-a");
        seeded(&a, 0..2);
        let report = merge(&a, temp_dir("absent-src")).unwrap();
        assert_eq!(report, MergeReport::default());
        assert_eq!(Store::open(&a).unwrap().len(), 2);
        std::fs::remove_dir_all(&a).unwrap();
    }

    #[test]
    fn merge_into_self_is_a_noop() {
        let a = temp_dir("self");
        seeded(&a, 0..3);
        let report = merge(&a, &a).unwrap();
        assert_eq!(report.imported, 0);
        assert_eq!(report.duplicates, 3);
        assert_eq!(Store::open(&a).unwrap().len(), 3);
        std::fs::remove_dir_all(&a).unwrap();
    }
}
