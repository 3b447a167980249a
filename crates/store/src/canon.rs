//! Canonical, versioned binary encoding of structured records, and the
//! stable 64-bit FNV-1a content hash over it.
//!
//! A [`Record`] is a set of named, typed fields (possibly nested). Its
//! [`canonical bytes`](Record::canonical_bytes) are independent of the
//! order the fields were added in — the encoding sorts fields by name —
//! and fully self-delimiting: every name and value is length-prefixed
//! and every value carries a type tag, so distinct records can never
//! share an encoding (`str("1")` ≠ `u64(1)`, and `("ab", "c")` ≠
//! `("a", "bc")`). The encoding starts with the caller-chosen schema
//! version, so evolving the schema retires every old key instead of
//! silently aliasing new configurations onto stale cache entries.
//!
//! [`CanonWriter`] produces the same bytes without building a tree:
//! the caller supplies fields already in ascending name order (at every
//! nesting level) and each one is written straight into one buffer.
//! That sorted-order contract is what makes the two encodings equal;
//! debug builds assert it, and a property test holds the writer to
//! [`Record::canonical_bytes`], which remains the reference.
//!
//! The content hash is plain FNV-1a 64 — no dependencies, stable across
//! platforms and process runs, and collision-free in practice for the
//! cache-sized key spaces used here (a collision would require two
//! distinct ~100-byte canonical encodings to hash equal, at 2⁻⁶⁴).

/// FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The stable FNV-1a 64-bit hash of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a 64 hash over more bytes:
/// `fnv1a(a ++ b) == fnv1a_extend(fnv1a(a), b)`, so a hash over
/// several pieces needs no buffer joining them.
pub(crate) fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Four [`fnv1a_extend`]s at once: `out[i] == fnv1a_extend(h[i],
/// bytes[i])`. FNV-1a is one serial xor-multiply chain per byte, so one
/// hash runs at the multiply's latency. Stepping four independent
/// chains in lockstep over the strings' common length keeps four
/// multiplies in flight instead of one. The part of each string past
/// the shortest one is finished alone.
pub(crate) fn fnv1a_extend4(mut h: [u64; 4], bytes: [&[u8]; 4]) -> [u64; 4] {
    let common = bytes.iter().map(|b| b.len()).min().unwrap_or(0);
    let [a, b, c, d] = bytes.map(|s| &s[..common]);
    for (((&x0, &x1), &x2), &x3) in a.iter().zip(b).zip(c).zip(d) {
        h[0] = (h[0] ^ u64::from(x0)).wrapping_mul(FNV_PRIME);
        h[1] = (h[1] ^ u64::from(x1)).wrapping_mul(FNV_PRIME);
        h[2] = (h[2] ^ u64::from(x2)).wrapping_mul(FNV_PRIME);
        h[3] = (h[3] ^ u64::from(x3)).wrapping_mul(FNV_PRIME);
    }
    for (h, s) in h.iter_mut().zip(bytes) {
        *h = fnv1a_extend(*h, &s[common..]);
    }
    h
}

/// Value type tags. Part of the on-disk/hashed format — append only,
/// never renumber.
const TAG_U64: u8 = 1;
const TAG_I64: u8 = 2;
const TAG_F64: u8 = 3;
const TAG_BOOL: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_RECORD: u8 = 6;
const TAG_LIST: u8 = 7;

/// One encoded field value: a type tag plus its canonical bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Encoded {
    tag: u8,
    bytes: Vec<u8>,
}

/// A canonical record under construction: named, typed fields whose
/// eventual encoding is independent of insertion order.
///
/// Builder methods consume and return `self` so a record reads as one
/// expression; see the [crate docs](crate) for an example.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    version: u16,
    fields: Vec<(String, Encoded)>,
}

impl Record {
    /// An empty record under schema version `version`.
    pub fn new(version: u16) -> Self {
        Record {
            version,
            fields: Vec::new(),
        }
    }

    fn push(mut self, name: &str, tag: u8, bytes: Vec<u8>) -> Self {
        debug_assert!(
            !self.fields.iter().any(|(n, _)| n == name),
            "duplicate canonical field {name:?}"
        );
        self.fields.push((name.to_string(), Encoded { tag, bytes }));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(self, name: &str, v: u64) -> Self {
        self.push(name, TAG_U64, v.to_le_bytes().to_vec())
    }

    /// Adds a signed integer field.
    pub fn i64(self, name: &str, v: i64) -> Self {
        self.push(name, TAG_I64, v.to_le_bytes().to_vec())
    }

    /// Adds a float field (encoded by bit pattern, so `-0.0` ≠ `0.0`
    /// and NaN payloads are preserved verbatim).
    pub fn f64(self, name: &str, v: f64) -> Self {
        self.push(name, TAG_F64, v.to_bits().to_le_bytes().to_vec())
    }

    /// Adds a boolean field.
    pub fn bool(self, name: &str, v: bool) -> Self {
        self.push(name, TAG_BOOL, vec![u8::from(v)])
    }

    /// Adds a string field.
    pub fn str(self, name: &str, v: &str) -> Self {
        self.push(name, TAG_STR, v.as_bytes().to_vec())
    }

    /// Adds a nested record (canonicalized independently, so field
    /// order inside the child is irrelevant too).
    pub fn record(self, name: &str, child: Record) -> Self {
        let bytes = child.canonical_bytes();
        self.push(name, TAG_RECORD, bytes)
    }

    /// Adds an ordered list of records. Unlike fields, list order is
    /// semantic and preserved.
    pub fn list(self, name: &str, items: &[Record]) -> Self {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(items.len() as u32).to_le_bytes());
        for item in items {
            let child = item.canonical_bytes();
            bytes.extend_from_slice(&(child.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&child);
        }
        self.push(name, TAG_LIST, bytes)
    }

    /// The canonical encoding: version, then every field sorted by
    /// name, each as `name_len | name | tag | value_len | value`.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut fields: Vec<&(String, Encoded)> = self.fields.iter().collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = Vec::with_capacity(16 + 16 * fields.len());
        out.extend_from_slice(&self.version.to_le_bytes());
        for (name, value) in fields {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.push(value.tag);
            out.extend_from_slice(&(value.bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&value.bytes);
        }
        out
    }

    /// The FNV-1a 64 content hash of the canonical encoding — the
    /// store key for this record's configuration.
    pub fn content_hash(&self) -> u64 {
        fnv1a(&self.canonical_bytes())
    }
}

/// A streaming writer of the same canonical bytes as [`Record`], with
/// no per-field allocation: every field goes straight into one buffer,
/// and the lengths of nested records and lists are backpatched when
/// they close.
///
/// **Contract:** fields must arrive in strictly ascending byte order of
/// their names, at every nesting level — the order
/// [`Record::canonical_bytes`] sorts them into (so `"r"` precedes
/// `"rbc"`, which precedes `"reactive"`). Debug builds assert it; a
/// release build given out-of-order fields writes bytes that no
/// `Record` produces, i.e. a different key.
///
/// ```
/// use bftbcast_store::{CanonWriter, Record};
///
/// let record = Record::new(1)
///     .u64("r", 4)
///     .record("placement", Record::new(1).str("kind", "lattice"))
///     .list("probes", &[Record::new(1).u64("x", 0).u64("y", 5)]);
/// let mut w = CanonWriter::new(1);
/// w.record("placement", 1, |w| {
///     w.str("kind", "lattice");
/// })
/// .list("probes", 1, [(0u64, 5u64)], |w, (x, y)| {
///     w.u64("x", x).u64("y", y);
/// })
/// .u64("r", 4);
/// assert_eq!(w.bytes(), record.canonical_bytes());
/// assert_eq!(w.content_hash(), record.content_hash());
/// ```
#[derive(Debug, Clone)]
pub struct CanonWriter {
    buf: Vec<u8>,
    /// Where the previous field name at the current nesting level sits
    /// in `buf` — the ordering check compares against it in place.
    last_name: Option<(usize, usize)>,
}

impl CanonWriter {
    /// An empty top-level record under schema version `version`.
    pub fn new(version: u16) -> Self {
        let mut buf = Vec::with_capacity(1024);
        buf.extend_from_slice(&version.to_le_bytes());
        CanonWriter {
            buf,
            last_name: None,
        }
    }

    /// Writes `name_len | name | tag`, checking the sorted-order
    /// contract against the previous name at this level.
    fn name(&mut self, name: &str, tag: u8) {
        debug_assert!(
            self.last_name
                .is_none_or(|(at, end)| &self.buf[at..end] < name.as_bytes()),
            "canonical field {name:?} out of order (fields must be strictly ascending)"
        );
        self.buf
            .extend_from_slice(&(name.len() as u32).to_le_bytes());
        let at = self.buf.len();
        self.buf.extend_from_slice(name.as_bytes());
        self.last_name = Some((at, self.buf.len()));
        self.buf.push(tag);
    }

    fn scalar(&mut self, name: &str, tag: u8, value: &[u8]) -> &mut Self {
        self.name(name, tag);
        self.buf
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(value);
        self
    }

    /// Reserves a `u32` length slot; [`CanonWriter::close`] fills it.
    fn open(&mut self) -> usize {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        at
    }

    /// Backpatches the slot at `at` with the byte count written since.
    fn close(&mut self, at: usize) {
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Writes one nested record body: its version, then whatever
    /// `body` writes, under a fresh ordering scope.
    fn nested(&mut self, version: u16, body: impl FnOnce(&mut Self)) {
        self.buf.extend_from_slice(&version.to_le_bytes());
        let outer = self.last_name.take();
        body(self);
        self.last_name = outer;
    }

    /// Writes an unsigned integer field.
    pub fn u64(&mut self, name: &str, v: u64) -> &mut Self {
        self.scalar(name, TAG_U64, &v.to_le_bytes())
    }

    /// Writes a signed integer field.
    pub fn i64(&mut self, name: &str, v: i64) -> &mut Self {
        self.scalar(name, TAG_I64, &v.to_le_bytes())
    }

    /// Writes a float field by bit pattern (as [`Record::f64`]).
    pub fn f64(&mut self, name: &str, v: f64) -> &mut Self {
        self.scalar(name, TAG_F64, &v.to_bits().to_le_bytes())
    }

    /// Writes a boolean field.
    pub fn bool(&mut self, name: &str, v: bool) -> &mut Self {
        self.scalar(name, TAG_BOOL, &[u8::from(v)])
    }

    /// Writes a string field.
    pub fn str(&mut self, name: &str, v: &str) -> &mut Self {
        self.scalar(name, TAG_STR, v.as_bytes())
    }

    /// Writes a nested record (as [`Record::record`]) whose fields
    /// `body` writes, in ascending name order of their own.
    pub fn record(&mut self, name: &str, version: u16, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.name(name, TAG_RECORD);
        let at = self.open();
        self.nested(version, body);
        self.close(at);
        self
    }

    /// Writes an ordered list of records (as [`Record::list`]): one
    /// record under `version` per item, its fields written by `body`.
    pub fn list<T>(
        &mut self,
        name: &str,
        version: u16,
        items: impl IntoIterator<Item = T>,
        mut body: impl FnMut(&mut Self, T),
    ) -> &mut Self {
        self.name(name, TAG_LIST);
        let at = self.open();
        let count_at = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        let mut count = 0u32;
        for item in items {
            let item_at = self.open();
            self.nested(version, |w| body(w, item));
            self.close(item_at);
            count += 1;
        }
        self.buf[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        self.close(at);
        self
    }

    /// The canonical bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The FNV-1a 64 hash of the bytes written so far.
    pub fn content_hash(&self) -> u64 {
        fnv1a(&self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn field_order_does_not_matter() {
        let a = Record::new(1).u64("r", 4).str("engine", "counting");
        let b = Record::new(1).str("engine", "counting").u64("r", 4);
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn every_ingredient_is_load_bearing() {
        let base = || Record::new(1).u64("r", 4).str("kind", "oracle");
        let h = base().content_hash();
        assert_ne!(h, base().u64("extra", 0).content_hash(), "added field");
        assert_ne!(
            h,
            Record::new(2)
                .u64("r", 4)
                .str("kind", "oracle")
                .content_hash(),
            "schema version"
        );
        assert_ne!(
            h,
            Record::new(1)
                .u64("r", 5)
                .str("kind", "oracle")
                .content_hash(),
            "value change"
        );
        assert_ne!(
            h,
            Record::new(1)
                .u64("rr", 4)
                .str("kind", "oracle")
                .content_hash(),
            "name change"
        );
    }

    #[test]
    fn type_tags_separate_lookalike_values() {
        let as_int = Record::new(1).u64("v", 1).content_hash();
        let as_str = Record::new(1).str("v", "1").content_hash();
        let as_bool = Record::new(1).bool("v", true).content_hash();
        let as_float = Record::new(1).f64("v", 1.0).content_hash();
        let all = [as_int, as_str, as_bool, as_float];
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j], "tags {i} and {j} collide");
            }
        }
    }

    #[test]
    fn length_prefixes_prevent_concatenation_ambiguity() {
        let a = Record::new(1).str("ab", "c");
        let b = Record::new(1).str("a", "bc");
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn nested_records_and_lists() {
        let child = |o: u32| Record::new(1).u64("offset", u64::from(o));
        let a = Record::new(1).record("placement", child(41));
        let b = Record::new(1).record("placement", child(42));
        assert_ne!(a.content_hash(), b.content_hash());

        let l1 = Record::new(1).list("probes", &[child(1), child(2)]);
        let l2 = Record::new(1).list("probes", &[child(2), child(1)]);
        assert_ne!(
            l1.content_hash(),
            l2.content_hash(),
            "list order is semantic"
        );
        let l3 = Record::new(1).list("probes", &[child(1), child(2)]);
        assert_eq!(l1.content_hash(), l3.content_hash());
    }

    #[test]
    fn float_encoding_is_bitwise() {
        let pos = Record::new(1).f64("p", 0.0).content_hash();
        let neg = Record::new(1).f64("p", -0.0).content_hash();
        assert_ne!(pos, neg);
    }

    /// Guards cross-process / cross-platform stability: this constant
    /// was computed once and must never change, or every store on disk
    /// silently turns into a miss (or worse, a future encoding change
    /// would go unnoticed).
    #[test]
    fn golden_hash_is_stable_forever() {
        let r = Record::new(1)
            .str("engine", "counting")
            .u64("width", 45)
            .u64("height", 45)
            .u64("r", 4)
            .u64("mf", 1000)
            .f64("p1", 0.4)
            .bool("split", false)
            .record(
                "placement",
                Record::new(1).str("kind", "lattice").u64("offset", 41),
            )
            .list(
                "probes",
                &[
                    Record::new(1).u64("x", 0).u64("y", 5),
                    Record::new(1).u64("x", 5).u64("y", 1),
                ],
            );
        assert_eq!(r.content_hash(), 0x79f8_2dff_2b41_1a4a);
    }
}
