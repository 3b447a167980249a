//! The cache-key and result-codec layer between the batch runner and
//! [`bftbcast_store`].
//!
//! Every sweep point is deterministic given its fully-resolved
//! configuration, so an outcome computed once is an outcome computed
//! forever. This module defines what "the configuration" means:
//!
//! * [`point_key`] — the content hash of a canonical
//!   [`bftbcast_store`] record holding **every field the
//!   engines read**: engine kind, torus dimensions and range, fault
//!   parameters, source cell, seed, placement, protocol, adversary,
//!   crash/reactive/agreement configuration, and the probe list
//!   (probes shape the stored result, so they are part of the key).
//!   The sweep *label* is presentation, not configuration, and is
//!   deliberately excluded — two sweeps resolving to the same point
//!   share one cache entry.
//! * [`encode_result`] / [`decode_result`] — a versioned binary codec
//!   for [`PointResult`] (outcome + probes; the label is reattached by
//!   the caller). Full fidelity: a decoded result renders the same
//!   JSONL bytes as a fresh run.
//!
//! Any change to either format must bump [`CACHE_SCHEMA_VERSION`]:
//! the version participates in the hash, so old store entries simply
//! stop matching instead of being misread.

use bftbcast_net::Value;
use bftbcast_sim::engine::{EngineOutcome, Probe};
use bftbcast_sim::metrics::{CountingOutcome, RbcOutcome, ReactiveOutcome};

use crate::batch::{PointResult, ProbeResult};
use crate::fields::{self, Doc};
use crate::scenario_file::{EngineKind, PointSpec};

/// Version of both the key record and the result encoding. Bump on any
/// schema change; old entries then miss instead of misdecoding.
///
/// v2: the rbc engine — an `rbc` record joins the key and
/// [`RbcOutcome`] joins the result codec.
///
/// v3: the rbc adversary axes — `schedule` and `behavior` join the
/// rbc key record, and per-node `phase` / `conflicts` join the probe
/// codec.
pub const CACHE_SCHEMA_VERSION: u16 = 3;

/// The content-hash cache key for one fully-resolved sweep point.
///
/// Stable across field order, process runs, and platforms (see
/// `bftbcast-store`'s canonical encoding); sensitive to every field an
/// engine reads. The sweep label is excluded by construction — it is
/// not an input to the run.
///
/// The field table streams the key record through a
/// [`bftbcast_store::CanonWriter`] in ascending name order, with no
/// allocation per field; the bytes equal those of the equivalent
/// [`bftbcast_store::Record`] (pinned by `tests/fixtures/cache_keys.txt`).
pub fn point_key(engine: EngineKind, point: &PointSpec, probes: &[(u32, u32)]) -> u64 {
    fields::key(&Doc {
        name: "",
        engine,
        point,
        probes,
    })
}

// ---------------------------------------------------------------------
// Result codec
// ---------------------------------------------------------------------

/// Outcome kind bytes in the encoded payload.
const KIND_COUNTING: u8 = 0;
const KIND_REACTIVE: u8 = 1;
const KIND_AGREEMENT: u8 = 2;
const KIND_RBC: u8 = 3;

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn opt_value(&mut self, v: Option<Value>) {
        match v {
            None => self.u8(0),
            Some(Value(x)) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    fn pairs(&mut self, pairs: &[(usize, Value)]) {
        self.usize(pairs.len());
        for &(node, Value(v)) in pairs {
            self.usize(node);
            self.u64(v);
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }
    fn u64(&mut self) -> Option<u64> {
        let slice = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(slice.try_into().expect("8 bytes")))
    }
    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }
    fn opt_value(&mut self) -> Option<Option<Value>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(Value(self.u64()?))),
            _ => None,
        }
    }
    fn pairs(&mut self) -> Option<Vec<(usize, Value)>> {
        let len = self.usize()?;
        if len > self.bytes.len() {
            return None; // corrupt length; avoid absurd allocations
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let node = self.usize()?;
            let v = self.u64()?;
            out.push((node, Value(v)));
        }
        Some(out)
    }
}

/// Encodes a [`PointResult`]'s outcome and probes (not its label) as a
/// versioned byte string for the store.
pub fn encode_result(result: &PointResult) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(128));
    w.u8(CACHE_SCHEMA_VERSION as u8);
    match &result.outcome {
        EngineOutcome::Counting(o) => {
            w.u8(KIND_COUNTING);
            w.usize(o.good_nodes);
            w.usize(o.accepted_true);
            w.usize(o.wrong_accepts);
            w.usize(o.waves);
            w.u64(o.good_copies_sent);
            w.u64(o.source_copies_sent);
            w.u64(o.adversary_spent);
        }
        EngineOutcome::Reactive(o) => {
            w.u8(KIND_REACTIVE);
            w.usize(o.good_nodes);
            w.usize(o.committed_true);
            w.usize(o.committed_wrong);
            w.u64(o.rounds);
            w.u64(o.data_transmissions);
            w.u64(o.nack_transmissions);
            w.u64(o.max_node_messages);
            w.u64(o.subbits_per_message);
            w.u64(o.adversary_spent);
            w.u64(o.detections);
            w.u64(o.undetected_corruptions);
            w.usize(o.uncommitted.len());
            for &node in &o.uncommitted {
                w.usize(node);
            }
        }
        EngineOutcome::Agreement(o) => {
            w.u8(KIND_AGREEMENT);
            w.u8(u8::from(o.source_correct));
            w.pairs(&o.decisions);
            w.pairs(&o.proposals);
            w.pairs(&o.aggregates);
        }
        EngineOutcome::Rbc(o) => {
            w.u8(KIND_RBC);
            w.usize(o.good_nodes);
            w.usize(o.delivered);
            w.u64(o.messages);
            w.u64(o.wire_bits);
            w.u64(o.waves);
            w.u64(o.echoes_sent);
            w.u64(o.readies_sent);
        }
    }
    w.usize(result.probes.len());
    for p in &result.probes {
        w.u64(u64::from(p.x));
        w.u64(u64::from(p.y));
        w.usize(p.node);
        w.u64(p.probe.tally_true);
        w.u64(p.probe.tally_wrong);
        w.usize(p.probe.decided_neighbors);
        w.opt_value(p.probe.accepted);
        w.u64(p.probe.phase);
        w.u64(p.probe.conflicts);
    }
    w.0
}

/// Decodes a stored result back into a [`PointResult`] with an empty
/// label (the caller reattaches the current sweep point's label).
/// `None` means the bytes are corrupt or from an incompatible version.
pub fn decode_result(bytes: &[u8]) -> Option<PointResult> {
    let mut r = Reader { bytes, pos: 0 };
    if r.u8()? != CACHE_SCHEMA_VERSION as u8 {
        return None;
    }
    let outcome = match r.u8()? {
        KIND_COUNTING => EngineOutcome::Counting(CountingOutcome {
            good_nodes: r.usize()?,
            accepted_true: r.usize()?,
            wrong_accepts: r.usize()?,
            waves: r.usize()?,
            good_copies_sent: r.u64()?,
            source_copies_sent: r.u64()?,
            adversary_spent: r.u64()?,
        }),
        KIND_REACTIVE => {
            let good_nodes = r.usize()?;
            let committed_true = r.usize()?;
            let committed_wrong = r.usize()?;
            let rounds = r.u64()?;
            let data_transmissions = r.u64()?;
            let nack_transmissions = r.u64()?;
            let max_node_messages = r.u64()?;
            let subbits_per_message = r.u64()?;
            let adversary_spent = r.u64()?;
            let detections = r.u64()?;
            let undetected_corruptions = r.u64()?;
            let n = r.usize()?;
            if n > bytes.len() {
                return None;
            }
            let mut uncommitted = Vec::with_capacity(n);
            for _ in 0..n {
                uncommitted.push(r.usize()?);
            }
            EngineOutcome::Reactive(ReactiveOutcome {
                good_nodes,
                committed_true,
                committed_wrong,
                rounds,
                data_transmissions,
                nack_transmissions,
                max_node_messages,
                subbits_per_message,
                adversary_spent,
                detections,
                undetected_corruptions,
                uncommitted,
            })
        }
        KIND_AGREEMENT => {
            let source_correct = match r.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            EngineOutcome::Agreement(bftbcast_sim::agreement::AgreementOutcome {
                source_correct,
                decisions: r.pairs()?,
                proposals: r.pairs()?,
                aggregates: r.pairs()?,
            })
        }
        KIND_RBC => EngineOutcome::Rbc(RbcOutcome {
            good_nodes: r.usize()?,
            delivered: r.usize()?,
            messages: r.u64()?,
            wire_bits: r.u64()?,
            waves: r.u64()?,
            echoes_sent: r.u64()?,
            readies_sent: r.u64()?,
        }),
        _ => return None,
    };
    let n = r.usize()?;
    if n > bytes.len() {
        return None;
    }
    let mut probes = Vec::with_capacity(n);
    for _ in 0..n {
        probes.push(ProbeResult {
            x: u32::try_from(r.u64()?).ok()?,
            y: u32::try_from(r.u64()?).ok()?,
            node: r.usize()?,
            probe: Probe {
                tally_true: r.u64()?,
                tally_wrong: r.u64()?,
                decided_neighbors: r.usize()?,
                accepted: r.opt_value()?,
                phase: r.u64()?,
                conflicts: r.u64()?,
            },
        });
    }
    if r.pos != bytes.len() {
        return None; // trailing garbage
    }
    Some(PointResult {
        point: Vec::new(),
        outcome,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario_file::{AdversarySpec, PlacementSpec, ProtocolSpec, ScenarioFile};
    use bftbcast_sim::agreement::AgreementOutcome;

    fn f2_file() -> ScenarioFile {
        ScenarioFile::parse(concat!(
            "name = \"f2\"\n",
            "[topology]\nwidth = 45\nheight = 45\nr = 4\n",
            "[faults]\nt = 1\nmf = 1000\n",
            "[placement]\nkind = \"lattice\"\noffset = 41\n",
            "[protocol]\nkind = \"starved\"\nm = 59\n",
            "[probes]\nnodes = [[0, 5], [5, 1]]\n",
        ))
        .unwrap()
    }

    #[test]
    fn key_is_deterministic_and_label_free() {
        let file = f2_file();
        let mut point = file.points().remove(0);
        let key = point_key(file.engine, &point, &file.probes);
        assert_eq!(key, point_key(file.engine, &point, &file.probes));
        // The label is presentation: it never reaches the key.
        point.label.push(("m".into(), "59".into()));
        assert_eq!(key, point_key(file.engine, &point, &file.probes));
    }

    #[test]
    fn key_is_sensitive_to_every_layer() {
        let file = f2_file();
        let base = file.points().remove(0);
        let key = point_key(file.engine, &base, &file.probes);
        let mut cases: Vec<PointSpec> = Vec::new();
        let with = |f: &dyn Fn(&mut PointSpec)| {
            let mut p = base.clone();
            f(&mut p);
            p
        };
        cases.push(with(&|p| p.mf += 1));
        cases.push(with(&|p| p.seed += 1));
        cases.push(with(&|p| p.source = (1, 0)));
        cases.push(with(&|p| {
            p.placement = PlacementSpec::Lattice { offset: 40 }
        }));
        cases.push(with(&|p| p.protocol = ProtocolSpec::Starved { m: 60 }));
        cases.push(with(&|p| p.adversary = AdversarySpec::Passive));
        cases.push(with(&|p| p.reactive.k = 9));
        cases.push(with(&|p| p.agreement.p1 = 0.5));
        cases.push(with(&|p| p.rbc.payload = 128));
        cases.push(with(&|p| p.rbc.protocol = bftbcast_rbc::RbcProtocol::Ctrbc));
        cases.push(with(&|p| p.rbc.schedule = bftbcast_rbc::ScheduleKind::Gst));
        cases.push(with(&|p| {
            p.rbc.behavior = bftbcast_rbc::ByzantineBehavior::Equivocate
        }));
        for (i, p) in cases.iter().enumerate() {
            assert_ne!(key, point_key(file.engine, p, &file.probes), "case {i}");
        }
        // Engine kind and probe list are part of the key too.
        assert_ne!(key, point_key(EngineKind::Crash, &base, &file.probes));
        assert_ne!(key, point_key(file.engine, &base, &[(0, 5)]));
    }

    #[test]
    fn counting_result_round_trips() {
        let result = PointResult {
            point: vec![("m".into(), "59".into())],
            outcome: EngineOutcome::Counting(CountingOutcome {
                good_nodes: 2000,
                accepted_true: 84,
                wrong_accepts: 0,
                waves: 17,
                good_copies_sent: 12345,
                source_copies_sent: 2001,
                adversary_spent: 999_999,
            }),
            probes: vec![ProbeResult {
                x: 5,
                y: 1,
                node: 50,
                probe: Probe {
                    tally_true: 1000,
                    tally_wrong: 947,
                    decided_neighbors: 3,
                    accepted: None,
                    ..Probe::default()
                },
            }],
        };
        let decoded = decode_result(&encode_result(&result)).unwrap();
        assert_eq!(decoded.outcome, result.outcome);
        assert_eq!(decoded.probes.len(), 1);
        assert_eq!(decoded.probes[0].probe, result.probes[0].probe);
        assert!(decoded.point.is_empty(), "labels are not stored");
    }

    #[test]
    fn reactive_and_agreement_results_round_trip() {
        let reactive = PointResult {
            point: Vec::new(),
            outcome: EngineOutcome::Reactive(ReactiveOutcome {
                good_nodes: 25,
                committed_true: 24,
                committed_wrong: 0,
                rounds: 500,
                data_transmissions: 60,
                nack_transmissions: 12,
                max_node_messages: 9,
                subbits_per_message: 3198,
                adversary_spent: 30,
                detections: 12,
                undetected_corruptions: 0,
                uncommitted: vec![7],
            }),
            probes: Vec::new(),
        };
        assert_eq!(
            decode_result(&encode_result(&reactive)).unwrap().outcome,
            reactive.outcome
        );
        let agreement = PointResult {
            point: Vec::new(),
            outcome: EngineOutcome::Agreement(AgreementOutcome {
                decisions: vec![(3, Value(2)), (4, Value(2))],
                source_correct: false,
                proposals: vec![(3, Value(2))],
                aggregates: vec![(4, Value(3))],
            }),
            probes: vec![ProbeResult {
                x: 0,
                y: 0,
                node: 0,
                probe: Probe {
                    tally_true: 1,
                    tally_wrong: 0,
                    decided_neighbors: 0,
                    accepted: Some(Value::TRUE),
                    ..Probe::default()
                },
            }],
        };
        let decoded = decode_result(&encode_result(&agreement)).unwrap();
        assert_eq!(decoded.outcome, agreement.outcome);
        assert_eq!(decoded.probes[0].probe.accepted, Some(Value::TRUE));
    }

    #[test]
    fn rbc_results_round_trip() {
        let rbc = PointResult {
            point: Vec::new(),
            outcome: EngineOutcome::Rbc(RbcOutcome {
                good_nodes: 223,
                delivered: 223,
                messages: 98_765,
                wire_bits: 4_321_000,
                waves: 17,
                echoes_sent: 223,
                readies_sent: 223,
            }),
            probes: vec![ProbeResult {
                x: 7,
                y: 2,
                node: 37,
                probe: Probe {
                    tally_true: 223,
                    tally_wrong: 223,
                    decided_neighbors: 8,
                    accepted: Some(Value::TRUE),
                    phase: 3,
                    conflicts: 2,
                },
            }],
        };
        let decoded = decode_result(&encode_result(&rbc)).unwrap();
        assert_eq!(decoded.outcome, rbc.outcome);
        assert_eq!(decoded.probes[0].probe, rbc.probes[0].probe);
    }

    #[test]
    fn corrupt_bytes_decode_to_none() {
        let good = encode_result(&PointResult {
            point: Vec::new(),
            outcome: EngineOutcome::Counting(CountingOutcome {
                good_nodes: 1,
                accepted_true: 1,
                wrong_accepts: 0,
                waves: 1,
                good_copies_sent: 0,
                source_copies_sent: 0,
                adversary_spent: 0,
            }),
            probes: Vec::new(),
        });
        assert!(decode_result(&[]).is_none());
        assert!(decode_result(&[99]).is_none(), "unknown version");
        assert!(
            decode_result(&good[..good.len() - 1]).is_none(),
            "truncated"
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_result(&trailing).is_none(), "trailing garbage");
        assert!(decode_result(&good).is_some());
    }
}
