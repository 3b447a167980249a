//! **bftbcast-store** — a content-addressed outcome store.
//!
//! Every sweep point in this workspace is deterministic given its
//! fully-resolved configuration, so a (configuration → outcome) cache
//! is a correctness-preserving speedup: the same point never has to be
//! simulated twice, whether it recurs within one sweep, across two
//! `run --scenario` invocations, or across jobs submitted to a
//! long-running `bftbcast serve` process.
//!
//! The crate is deliberately dumb about *what* it stores — keys are
//! 64-bit content hashes, values are opaque byte strings — so it
//! depends on nothing else in the workspace (and, like `scn`, on
//! nothing outside `std`). The two halves:
//!
//! * [`canon`] — a canonical, versioned binary encoding for structured
//!   records ([`Record`]) and the stable FNV-1a content hash over it
//!   ([`fnv1a`]). Field order never matters: the canonical form sorts
//!   fields by name, so any two ways of describing the same
//!   configuration hash identically, in every process, forever.
//!   [`CanonWriter`] streams the same bytes into one buffer for callers
//!   that can supply fields already in sorted name order (the hot
//!   cache-key path); `Record` is the order-free reference it is
//!   property-tested against.
//! * [`log`] — the [`Store`]: an append-only on-disk log
//!   (`<dir>/store.log`) read once at open and indexed by offset into
//!   that one in-memory image (values appended later are read back
//!   from the log on lookup),
//!   with write-once dedupe, hit/miss [`StoreStats`], and a
//!   single-flight [`Store::get_or_compute`] so concurrent requests
//!   for the same key compute it exactly once.
//!
//! Two more modules harden that core (PR 6):
//!
//! * [`fault`] — [`FaultPlan`], a seeded deterministic schedule of
//!   storage faults (torn writes, bit flips, ENOSPC, short reads)
//!   injected behind the log's I/O via [`Store::open_with_faults`], so
//!   every crash-recovery scenario replays exactly from a seed.
//! * [`maintenance`] — offline [`fsck`] / [`repair`] / [`compact`]
//!   over the same checksummed scan replay uses, for operators (the
//!   `bftbcast store` CLI verbs) and the chaos suite.
//!
//! And one federates it (PR 8):
//!
//! * [`merge`] — [`Store::merge_from`] / [`merge()`](merge::merge) /
//!   [`sync()`](merge::sync): union another log's verified records
//!   into a store, or reconcile two store directories in both
//!   directions. Content-addressed keys plus first-write-wins make
//!   the union commutative, idempotent, and order-insensitive, so
//!   federated shards consolidate with no consistency machinery.
//!
//! ```
//! use bftbcast_store::{Record, Store};
//!
//! let store = Store::in_memory();
//! let key = Record::new(1).u64("r", 4).u64("mf", 1000).content_hash();
//! let (bytes, hit) = store
//!     .get_or_compute(key, || Ok::<_, std::io::Error>(vec![42]))
//!     .unwrap();
//! assert!(!hit);
//! let (again, hit) = store
//!     .get_or_compute(key, || -> Result<_, std::io::Error> { unreachable!("cached") })
//!     .unwrap();
//! assert!(hit);
//! assert_eq!(bytes, again);
//! assert_eq!(store.stats().hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canon;
pub mod fault;
pub mod log;
pub mod maintenance;
pub mod merge;

pub use canon::{fnv1a, CanonWriter, Record};
pub use fault::{FaultPlan, FaultStats, WriteFault};
pub use log::{RecoveryReport, Store, StoreStats};
pub use maintenance::{compact, fsck, fsck_report, repair, FsckReport, RepairReport};
pub use merge::{sync, MergeReport, SyncReport};
