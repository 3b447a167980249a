//! Property tests for crash recovery: *whatever* happens to the bytes
//! of `store.log` — truncation anywhere, flipped bytes anywhere,
//! garbage splices — `Store::open` must either recover a verified
//! subset of the original records or return a typed error. It must
//! never panic, and it must never serve a record whose bytes differ
//! from what was written.
//!
//! This is the disk-side mirror of `canon_prop.rs`: that suite pins the
//! keys, this one pins the log.

use std::collections::HashMap;

use bftbcast_store::{fnv1a, fsck_report, repair, RecoveryReport, Store};
use proptest::collection::vec;
use proptest::prelude::*;

fn temp_dir(tag: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bftbcast-corrupt-prop-{tag:x}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Seeds a store with `n` records of varying sizes; returns the value
/// for key `k` (deterministic, so assertions can recompute it).
fn value_of(k: u64) -> Vec<u8> {
    format!("record-{k:03}-")
        .into_bytes()
        .repeat(k as usize % 7 + 1)
}

fn seeded_store(dir: &std::path::Path, n: u64) {
    let s = Store::open(dir).unwrap();
    for k in 0..n {
        s.put(k, &value_of(k)).unwrap();
    }
}

/// The invariant every case below asserts: open recovers *some* subset
/// of the written records, every served record is bit-identical to
/// what was written, and repair then yields a log fsck calls clean.
fn assert_recovers(dir: &std::path::Path, n: u64) {
    let recovered = match Store::open(dir) {
        // A typed error (mangled magic) is an allowed outcome...
        Err(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
            return;
        }
        Ok(s) => s,
    };
    // ...otherwise: a valid subset, never a mismatched record.
    assert!(recovered.len() as u64 <= n);
    for k in 0..n {
        if let Some(v) = recovered.get(k) {
            assert_eq!(v, value_of(k), "key {k} served corrupt bytes");
        }
    }
    drop(recovered);
    // Maintenance converges: repair leaves a log fsck accepts, with
    // exactly the records open recovered.
    let healed = repair(dir).unwrap();
    let clean = fsck_report(dir).unwrap();
    assert!(clean.is_clean(), "{clean}");
    if healed.rewritten {
        assert_eq!(clean.valid_records, healed.kept_records);
    }
}

/// One v2 record as the format defines it: `key u64 LE | len u32 LE |
/// sum u64 LE | payload`, `sum` being FNV-1a over the first 12 header
/// bytes and the payload.
fn encode(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut head = key.to_le_bytes().to_vec();
    head.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut summed = head.clone();
    summed.extend_from_slice(payload);
    head.extend_from_slice(&fnv1a(&summed).to_le_bytes());
    head.extend_from_slice(payload);
    head
}

/// The serial replay, written from the format alone: take a verified
/// record where one starts, otherwise skip byte by byte to the next
/// verifiable one and count the skipped span; a span reaching EOF is
/// the torn tail. Later records win a repeated key. (The store's bound
/// on a payload's length never decides here: these logs are far
/// shorter than it.)
fn reference_replay(raw: &[u8]) -> (HashMap<u64, Vec<u8>>, RecoveryReport) {
    let verified = |pos: usize| -> Option<(u64, &[u8])> {
        let header = raw.get(pos..pos + 20)?;
        let key = u64::from_le_bytes(header[..8].try_into().unwrap());
        let len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
        let payload = raw.get(pos + 20..pos + 20 + len)?;
        (encode(key, payload)[..20] == *header).then_some((key, payload))
    };
    let (mut map, mut spans) = (HashMap::new(), Vec::new());
    let mut pos = 8;
    while pos < raw.len() {
        if let Some((key, payload)) = verified(pos) {
            map.insert(key, payload.to_vec());
            pos += 20 + payload.len();
        } else {
            let start = pos;
            pos += 1;
            while pos < raw.len() && verified(pos).is_none() {
                pos += 1;
            }
            spans.push((start, pos - start));
        }
    }
    let tail = match spans.last() {
        Some(&(start, n)) if start + n == raw.len() => n,
        _ => 0,
    };
    let report = RecoveryReport {
        quarantined_spans: spans.len() - usize::from(tail > 0),
        quarantined_bytes: (spans.iter().map(|s| s.1).sum::<usize>() - tail) as u64,
        trimmed_tail_bytes: tail as u64,
        migrated_from_v1: false,
    };
    (map, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Open replays exactly what the serial reference replays, however
    /// the log is damaged: the same recovery report and the same key →
    /// payload map. Logs have repeated keys, empty payloads and, when
    /// `big`, enough bytes to verify on several threads.
    #[test]
    fn open_matches_the_serial_reference_under_damage(
        records in vec((0u64..24, vec(any::<u8>(), 0..1500)), 1..40),
        big in any::<bool>(),
        damage in 0u8..8,
        cut in any::<u64>(),
        flips in vec((any::<u64>(), 1u8..=255), 1..6),
        garbage in vec(any::<u8>(), 1..64),
        tag in any::<u64>(),
    ) {
        let dir = temp_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        let mut raw = b"BFTBSTR\x02".to_vec();
        for (key, mut payload) in records {
            if big {
                payload.resize(payload.len() + 40_000, 0);
            }
            raw.extend_from_slice(&encode(key, &payload));
        }
        // Damage stays past the magic, which is format identity.
        if damage & 1 != 0 {
            raw.truncate(8 + cut as usize % (raw.len() - 8 + 1));
        }
        if damage & 2 != 0 {
            let i = 8 + cut.rotate_left(32) as usize % (raw.len() - 8 + 1);
            raw.splice(i..i, garbage);
        }
        if damage & 4 != 0 && raw.len() > 8 {
            for (pos, mask) in flips {
                let i = 8 + pos as usize % (raw.len() - 8);
                raw[i] ^= mask;
            }
        }
        std::fs::write(dir.join("store.log"), &raw).unwrap();
        let (map, report) = reference_replay(&raw);
        let s = Store::open(&dir).unwrap();
        prop_assert_eq!(s.recovery(), report);
        prop_assert_eq!(s.len(), map.len());
        for (key, payload) in &map {
            prop_assert!(s.get(*key).as_ref() == Some(payload), "key {key} differs");
        }
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncating the log at any byte boundary recovers a valid prefix
    /// (or errors on a destroyed magic) — the crash-mid-append case at
    /// every possible crash point.
    #[test]
    fn truncation_at_any_point_recovers_a_valid_prefix(
        n in 1u64..12,
        cut in any::<u64>(),
        tag in any::<u64>(),
    ) {
        let dir = temp_dir(tag);
        seeded_store(&dir, n);
        let path = dir.join("store.log");
        let raw = std::fs::read(&path).unwrap();
        let keep = cut as usize % (raw.len() + 1);
        std::fs::write(&path, &raw[..keep]).unwrap();
        assert_recovers(&dir, n);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flipping arbitrary *record* bytes anywhere past the magic never
    /// panics and never serves a mismatched record — the
    /// silent-corruption case. (The 8-byte magic itself is format
    /// identity, not checksummed data: damaging it yields a typed
    /// error, or — if it happens to spell the legacy v1 magic —
    /// reinterprets the file under v1's weaker, framing-only rules,
    /// which is indistinguishable from a genuine v1 log by design.)
    #[test]
    fn random_byte_flips_never_serve_corrupt_records(
        n in 1u64..12,
        flips in vec((any::<u64>(), 1u8..=255), 1..8),
        tag in any::<u64>(),
    ) {
        let dir = temp_dir(tag);
        seeded_store(&dir, n);
        let path = dir.join("store.log");
        let mut raw = std::fs::read(&path).unwrap();
        for (pos, mask) in flips {
            let i = 8 + pos as usize % (raw.len() - 8);
            raw[i] ^= mask;
        }
        std::fs::write(&path, &raw).unwrap();
        assert_recovers(&dir, n);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Splicing garbage into the middle of the log quarantines the
    /// damaged span without losing the independently verifiable
    /// records around it.
    #[test]
    fn garbage_splices_are_quarantined_not_fatal(
        n in 2u64..12,
        at in any::<u64>(),
        garbage in vec(any::<u8>(), 1..64),
        tag in any::<u64>(),
    ) {
        let dir = temp_dir(tag);
        seeded_store(&dir, n);
        let path = dir.join("store.log");
        let raw = std::fs::read(&path).unwrap();
        // Splice after the magic so the file stays "a store log".
        let i = 8 + at as usize % (raw.len() - 8 + 1);
        let mut spliced = raw[..i].to_vec();
        spliced.extend_from_slice(&garbage);
        spliced.extend_from_slice(&raw[i..]);
        std::fs::write(&path, &spliced).unwrap();
        assert_recovers(&dir, n);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncation plus flips together — the compound crash — still
    /// upholds the invariant.
    #[test]
    fn compound_damage_still_recovers_or_errors(
        n in 1u64..10,
        cut in any::<u64>(),
        flips in vec((any::<u64>(), 1u8..=255), 1..5),
        tag in any::<u64>(),
    ) {
        let dir = temp_dir(tag);
        seeded_store(&dir, n);
        let path = dir.join("store.log");
        let raw = std::fs::read(&path).unwrap();
        // Keep at least the magic plus one byte; flips stay past the
        // magic (see random_byte_flips_never_serve_corrupt_records).
        let keep = 9 + cut as usize % (raw.len() - 9 + 1);
        let mut raw = raw[..keep.min(raw.len())].to_vec();
        for (pos, mask) in flips {
            let i = 8 + pos as usize % (raw.len() - 8);
            raw[i] ^= mask;
        }
        std::fs::write(&path, &raw).unwrap();
        assert_recovers(&dir, n);
        std::fs::remove_dir_all(&dir).ok();
    }
}
