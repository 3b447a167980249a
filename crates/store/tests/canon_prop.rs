//! Property tests for the canonical encoding: the cache key must be
//! *stable* (field order and process runs never change it) and
//! *sensitive* (any single field change flips it) — the two halves of
//! "content-addressed". The streaming [`CanonWriter`] must write
//! exactly the bytes of the order-free [`Record`] it stands in for.

use bftbcast_store::{CanonWriter, Record};
use proptest::collection::vec;
use proptest::prelude::*;

/// One generated field: a small distinct name plus a typed value.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

fn arb_fields() -> impl Strategy<Value = Vec<(String, Val)>> {
    vec((0u8..24, 0u8..5, any::<u64>()), 1..8).prop_map(|raw| {
        let mut out: Vec<(String, Val)> = Vec::new();
        for (name_idx, kind, payload) in raw {
            let name = format!("field_{name_idx}");
            if out.iter().any(|(n, _)| *n == name) {
                continue; // canonical records require distinct names
            }
            let val = match kind {
                0 => Val::U64(payload),
                1 => Val::I64(payload as i64),
                2 => Val::F64(f64::from_bits(payload)),
                3 => Val::Bool(payload % 2 == 0),
                _ => Val::Str(format!("s{payload:x}")),
            };
            out.push((name, val));
        }
        out
    })
}

fn build(version: u16, fields: &[(String, Val)]) -> Record {
    let mut r = Record::new(version);
    for (name, val) in fields {
        r = match val {
            Val::U64(v) => r.u64(name, *v),
            Val::I64(v) => r.i64(name, *v),
            Val::F64(v) => r.f64(name, *v),
            Val::Bool(v) => r.bool(name, *v),
            Val::Str(v) => r.str(name, v),
        };
    }
    r
}

/// A minimal change to one field's value — used to assert sensitivity.
fn perturb(val: &Val) -> Val {
    match val {
        Val::U64(v) => Val::U64(v.wrapping_add(1)),
        Val::I64(v) => Val::I64(v.wrapping_add(1)),
        Val::F64(v) => Val::F64(f64::from_bits(v.to_bits() ^ 1)),
        Val::Bool(v) => Val::Bool(!v),
        Val::Str(v) => Val::Str(format!("{v}x")),
    }
}

proptest! {
    /// Hash is invariant under every field-order permutation tried:
    /// as-generated, reversed, and rotated.
    #[test]
    fn hash_is_field_order_independent(fields in arb_fields(), rot in any::<u64>()) {
        let baseline = build(1, &fields).content_hash();
        let mut reversed = fields.clone();
        reversed.reverse();
        prop_assert_eq!(build(1, &reversed).content_hash(), baseline);
        let mut rotated = fields.clone();
        rotated.rotate_left(rot as usize % fields.len().max(1));
        prop_assert_eq!(build(1, &rotated).content_hash(), baseline);
    }

    /// Two independent builds of the same logical record hash the same
    /// — nothing about the hash depends on allocation, iteration, or
    /// process state. (Cross-run stability rests on this plus the
    /// golden-constant unit test in `canon.rs`, which pins the exact
    /// value across processes and platforms.)
    #[test]
    fn hash_depends_only_on_content(fields in arb_fields()) {
        let a = build(1, &fields);
        let b = build(1, &fields.clone());
        prop_assert_eq!(a.content_hash(), b.content_hash());
        prop_assert_eq!(a.canonical_bytes(), b.canonical_bytes());
    }

    /// Changing any single field's value flips the hash.
    #[test]
    fn any_single_value_change_flips_the_hash(fields in arb_fields(), pick in any::<u64>()) {
        let baseline = build(1, &fields).content_hash();
        let i = pick as usize % fields.len();
        let mut changed = fields.clone();
        changed[i].1 = perturb(&changed[i].1);
        prop_assert_ne!(build(1, &changed).content_hash(), baseline);
    }

    /// Renaming any single field flips the hash.
    #[test]
    fn any_field_rename_flips_the_hash(fields in arb_fields(), pick in any::<u64>()) {
        let baseline = build(1, &fields).content_hash();
        let i = pick as usize % fields.len();
        let mut renamed = fields.clone();
        renamed[i].0 = format!("renamed_{}", renamed[i].0);
        prop_assert_ne!(build(1, &renamed).content_hash(), baseline);
    }

    /// Dropping any single field flips the hash.
    #[test]
    fn any_field_removal_flips_the_hash(fields in arb_fields(), pick in any::<u64>()) {
        let baseline = build(1, &fields).content_hash();
        let i = pick as usize % fields.len();
        let mut fewer = fields.clone();
        fewer.remove(i);
        prop_assert_ne!(build(1, &fewer).content_hash(), baseline);
    }

    /// Bumping the schema version flips the hash of any record.
    #[test]
    fn schema_version_is_part_of_the_key(fields in arb_fields()) {
        prop_assert_ne!(
            build(1, &fields).content_hash(),
            build(2, &fields).content_hash()
        );
    }
}

/// A generated record tree: every scalar tag, nested records and
/// lists, up to three levels deep.
#[derive(Debug, Clone)]
struct Tree {
    version: u16,
    fields: Vec<(String, Node)>,
}

#[derive(Debug, Clone)]
enum Node {
    Scalar(Val),
    Record(Tree),
    List(u16, Vec<Tree>),
}

/// Names that share prefixes, so byte-order sorting is exercised where
/// it is subtle (`r` < `rbc` < `re` < `reactive`, and the empty name).
const NAMES: [&str; 12] = [
    "", "r", "rbc", "re", "reactive", "a", "ab", "abc", "b", "x", "xy", "é",
];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn gen_tree(st: &mut u64, depth: u32) -> Tree {
    let version = (splitmix(st) % 4) as u16;
    let mut fields: Vec<(String, Node)> = Vec::new();
    for _ in 0..splitmix(st) % 7 {
        let name = NAMES[(splitmix(st) % NAMES.len() as u64) as usize];
        if fields.iter().any(|(n, _)| n == name) {
            continue;
        }
        let kinds = if depth < 3 { 7 } else { 5 };
        let payload = splitmix(st);
        let node = match splitmix(st) % kinds {
            0 => Node::Scalar(Val::U64(payload)),
            1 => Node::Scalar(Val::I64(payload as i64)),
            2 => Node::Scalar(Val::F64(f64::from_bits(payload))),
            3 => Node::Scalar(Val::Bool(payload & 1 == 0)),
            4 => Node::Scalar(Val::Str(NAMES[(payload % 12) as usize].repeat(2))),
            5 => Node::Record(gen_tree(st, depth + 1)),
            _ => Node::List(
                (payload % 4) as u16,
                (0..payload % 4).map(|_| gen_tree(st, depth + 1)).collect(),
            ),
        };
        fields.push((name.to_string(), node));
    }
    Tree { version, fields }
}

/// The reference encoding: a `Record`, fields added in generated
/// (unsorted) order.
fn to_record(tree: &Tree) -> Record {
    let mut r = Record::new(tree.version);
    for (name, node) in &tree.fields {
        r = match node {
            Node::Scalar(v) => match v {
                Val::U64(v) => r.u64(name, *v),
                Val::I64(v) => r.i64(name, *v),
                Val::F64(v) => r.f64(name, *v),
                Val::Bool(v) => r.bool(name, *v),
                Val::Str(v) => r.str(name, v),
            },
            Node::Record(child) => r.record(name, to_record(child)),
            Node::List(_, items) => r.list(name, &items.iter().map(to_record).collect::<Vec<_>>()),
        };
    }
    r
}

/// The streamed encoding: fields sorted by name bytes at each level,
/// as the writer's contract requires. A list's items all carry the
/// list's version, as `CanonWriter::list` writes them.
fn write_fields(w: &mut CanonWriter, tree: &Tree) {
    let mut fields: Vec<&(String, Node)> = tree.fields.iter().collect();
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, node) in fields {
        match node {
            Node::Scalar(v) => {
                match v {
                    Val::U64(v) => w.u64(name, *v),
                    Val::I64(v) => w.i64(name, *v),
                    Val::F64(v) => w.f64(name, *v),
                    Val::Bool(v) => w.bool(name, *v),
                    Val::Str(v) => w.str(name, v),
                };
            }
            Node::Record(child) => {
                w.record(name, child.version, |w| write_fields(w, child));
            }
            Node::List(version, items) => {
                w.list(name, *version, items, write_fields);
            }
        }
    }
}

/// Gives every list item its list's version, so the tree describes
/// what the writer can express.
fn align_list_versions(tree: &mut Tree) {
    for (_, node) in &mut tree.fields {
        match node {
            Node::Scalar(_) => {}
            Node::Record(child) => align_list_versions(child),
            Node::List(version, items) => {
                for item in items {
                    item.version = *version;
                    align_list_versions(item);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The streaming writer's bytes equal `Record::canonical_bytes` on
    /// random trees of every tag, nested to depth 3.
    #[test]
    fn streaming_writer_matches_record_bytes(seed in any::<u64>()) {
        let mut st = seed;
        let mut tree = gen_tree(&mut st, 0);
        align_list_versions(&mut tree);
        let reference = to_record(&tree);
        let mut w = CanonWriter::new(tree.version);
        write_fields(&mut w, &tree);
        prop_assert_eq!(w.bytes(), &reference.canonical_bytes()[..]);
        prop_assert_eq!(w.content_hash(), reference.content_hash());
    }
}

/// The sorted-order contract is checked in debug builds: a field name
/// that does not follow its predecessor panics instead of silently
/// writing a key no `Record` would produce.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "out of order")]
fn out_of_order_field_panics_in_debug_builds() {
    CanonWriter::new(1).u64("rbc", 1).u64("r", 2);
}

/// A repeated name is out of order too (names must strictly ascend).
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "out of order")]
fn duplicate_field_panics_in_debug_builds() {
    CanonWriter::new(1).u64("r", 1).bool("r", true);
}

/// Ordering is per level: a nested record starts a fresh scope and the
/// outer scope resumes after it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "out of order")]
fn order_is_checked_inside_nested_records() {
    CanonWriter::new(1).record("a", 1, |w| {
        w.u64("z", 1).u64("b", 2);
    });
}
