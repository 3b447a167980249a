//! The batch runner: expands a [`ScenarioFile`]'s sweep into points,
//! fans them across worker threads, and reports one result row per
//! point — as JSON lines (the machine-readable interface, schema
//! documented in `EXPERIMENTS.md`) or a [`Table`].
//!
//! Every point is deterministic given the file (all randomness is
//! seeded from the point itself), so the parallel fan-out through
//! [`bftbcast_sim::runner::sweep`] never changes results.
//!
//! ```
//! use bftbcast::batch::run_file;
//! use bftbcast::scenario_file::ScenarioFile;
//!
//! let file = ScenarioFile::parse(concat!(
//!     "name = \"demo\"\n",
//!     "[topology]\nside = 15\nr = 1\n",
//!     "[faults]\nt = 1\nmf = 4\n",
//!     "[placement]\nkind = \"lattice\"\n",
//!     "[protocol]\nkind = \"starved\"\nm = 4\n",
//!     "[sweep]\nm = [2, 4, 8]\n",
//! ))
//! .unwrap();
//! let report = run_file(&file).unwrap();
//! assert_eq!(report.results.len(), 3);
//! // m = 2 < m0 stalls; m = 8 = 2*m0 is Theorem 2's regime.
//! assert!(!report.results[0].outcome.success());
//! assert!(report.results[2].outcome.success());
//! assert_eq!(report.jsonl().lines().count(), 3);
//! ```

use bftbcast_net::{NodeId, Value};
use bftbcast_sim::engine::{EngineOutcome, Probe, SimEngine};
use bftbcast_sim::runner::{sweep_bounded, Table};
use bftbcast_store::Store;

use crate::cache;
use crate::json::Object;
use crate::scenario::ScenarioError;
use crate::scenario_file::{EngineKind, PointSpec, ScenarioFile};
use crate::spec::EngineSpec;

/// One probe cell's tallies after a point's run.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    /// Probed cell.
    pub x: u32,
    /// Probed cell.
    pub y: u32,
    /// The cell's node id.
    pub node: NodeId,
    /// Its tallies.
    pub probe: Probe,
}

/// One sweep point's result.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// `(axis, rendered value)` identifying the point.
    pub point: Vec<(String, String)>,
    /// The engine outcome.
    pub outcome: EngineOutcome,
    /// Probe tallies (every engine answers for the nodes it tracks;
    /// see [`Probe`]).
    pub probes: Vec<ProbeResult>,
}

/// All results of one scenario file.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The scenario's name.
    pub name: String,
    /// The engine that ran.
    pub engine: EngineKind,
    /// One result per sweep point, in sweep order.
    pub results: Vec<PointResult>,
    /// Points answered from the outcome store (0 without a store).
    pub cache_hits: usize,
    /// Points that ran an engine (equals `results.len()` without a
    /// store).
    pub cache_misses: usize,
}

/// Execution knobs for [`run_file_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions<'a> {
    /// Cap on the worker-thread count (`None` = one per core). Must be
    /// at least 1 when given.
    pub jobs: Option<usize>,
    /// Outcome store consulted before — and recorded after — every
    /// engine run.
    pub store: Option<&'a Store>,
}

/// Builds the right engine for one point of a scenario file — a thin
/// adapter over the canonical construction path,
/// [`EngineSpec::build_engine`](crate::spec::EngineSpec::build_engine).
///
/// # Errors
///
/// Any [`ScenarioError`] from spec validation or scenario construction
/// (invalid grid, cross-field violation, local-bound violation, …).
pub fn build_engine(
    engine: EngineKind,
    point: &PointSpec,
) -> Result<Box<dyn SimEngine>, ScenarioError> {
    EngineSpec::from_parts(String::new(), engine, point.clone(), Vec::new())?.build_engine()
}

/// Runs one point: build the engine, run to fixpoint, read the probes.
///
/// # Errors
///
/// Any [`ScenarioError`] from engine construction.
pub fn run_point(file: &ScenarioFile, point: &PointSpec) -> Result<PointResult, ScenarioError> {
    let mut engine = build_engine(file.engine, point)?;
    // Probe cells are validated at parse time; re-check before the
    // (possibly expensive) run as a backstop against hand-built files.
    for &(x, y) in &file.probes {
        let grid = engine.topology().grid();
        crate::spec::check_probe_cell(x, y, grid.width(), grid.height())?;
    }
    let outcome = engine.run_to_completion();
    let mut probes = Vec::with_capacity(file.probes.len());
    for &(x, y) in &file.probes {
        let node = engine.topology().grid().id_at(x, y);
        if let Some(probe) = engine.probe(node) {
            probes.push(ProbeResult { x, y, node, probe });
        }
    }
    Ok(PointResult {
        point: point.label.clone(),
        outcome,
        probes,
    })
}

/// Runs one point through the outcome store: consult before, record
/// after, single-flight on the content key. Returns the result plus
/// whether it was a cache hit.
fn run_point_cached(
    file: &ScenarioFile,
    point: &PointSpec,
    store: &Store,
    counted: bool,
) -> Result<(PointResult, bool), ScenarioError> {
    let key = cache::point_key(file.engine, point, &file.probes);
    let mut computed: Option<PointResult> = None;
    let compute = || -> Result<Vec<u8>, ScenarioError> {
        let result = run_point(file, point)?;
        let encoded = cache::encode_result(&result);
        computed = Some(result);
        Ok(encoded)
    };
    let (bytes, hit) = if counted {
        store.get_or_compute(key, compute)?
    } else {
        store.reread_or_compute(key, compute)?
    };
    let result = match computed {
        Some(result) => result,
        None => {
            let mut result =
                cache::decode_result(&bytes).ok_or_else(|| ScenarioError::Invalid {
                    what: "store".to_string(),
                    message: format!(
                        "corrupt outcome-store entry for key {key:016x}; \
                     delete the store directory to rebuild it"
                    ),
                })?;
            result.point = point.label.clone();
            result
        }
    };
    Ok((result, hit))
}

/// Runs every point of a scenario file, fanned out over worker threads
/// (deterministic per point, so parallelism never changes results).
///
/// # Errors
///
/// The first [`ScenarioError`] any point produced, in sweep order.
pub fn run_file(file: &ScenarioFile) -> Result<BatchReport, ScenarioError> {
    run_file_with(file, &BatchOptions::default())
}

/// [`run_file`] with execution knobs: a worker-count cap (`--jobs N`)
/// and an optional content-addressed outcome store. With a store,
/// every point is looked up before any engine runs and recorded after;
/// identical points — within the sweep, across invocations, across
/// processes sharing the store directory — are computed exactly once.
///
/// # Errors
///
/// [`ScenarioError::Invalid`] (`what = "jobs"`) for a zero worker
/// count, otherwise the first [`ScenarioError`] any point produced, in
/// sweep order.
pub fn run_file_with(
    file: &ScenarioFile,
    options: &BatchOptions<'_>,
) -> Result<BatchReport, ScenarioError> {
    run_file_counted(file, options, true)
}

/// Rebuilds the report of a file whose points already ran through
/// `options.store` — the same rows [`run_file_with`] returned, read
/// back from the store without counting its hits and misses a second
/// time. A point whose stored value no longer reads back (damaged on
/// disk) is recomputed and stored again, so the rows never change.
///
/// # Errors
///
/// As [`run_file_with`].
pub fn replay_file_with(
    file: &ScenarioFile,
    options: &BatchOptions<'_>,
) -> Result<BatchReport, ScenarioError> {
    run_file_counted(file, options, false)
}

fn run_file_counted(
    file: &ScenarioFile,
    options: &BatchOptions<'_>,
    counted: bool,
) -> Result<BatchReport, ScenarioError> {
    if options.jobs == Some(0) {
        return Err(ScenarioError::Invalid {
            what: "jobs".to_string(),
            message: "worker count must be at least 1".to_string(),
        });
    }
    let points = file.points();
    let results = sweep_bounded(&points, options.jobs, |p| match options.store {
        None => run_point(file, p).map(|result| (result, false)),
        Some(store) => run_point_cached(file, p, store, counted),
    });
    let mut ok = Vec::with_capacity(results.len());
    let (mut cache_hits, mut cache_misses) = (0, 0);
    for r in results {
        let (result, hit) = r?;
        if hit {
            cache_hits += 1;
        } else {
            cache_misses += 1;
        }
        ok.push(result);
    }
    Ok(BatchReport {
        name: file.name.clone(),
        engine: file.engine,
        results: ok,
        cache_hits,
        cache_misses,
    })
}

/// Adds a probe's `accepted` value: `null`, the `"true"` / `"forged"`
/// names, or the raw value.
fn accepted_field(o: Object, accepted: Option<Value>) -> Object {
    match accepted {
        None => o.raw("accepted", "null"),
        Some(Value::TRUE) => o.str("accepted", "true"),
        Some(Value::FORGED) => o.str("accepted", "forged"),
        Some(Value(other)) => o.u64("accepted", other),
    }
}

fn outcome_fields(obj: Object, outcome: &EngineOutcome) -> Object {
    match outcome {
        EngineOutcome::Counting(o) => obj
            .str("kind", "counting")
            .u64("good_nodes", o.good_nodes as u64)
            .u64("accepted_true", o.accepted_true as u64)
            .u64("wrong_accepts", o.wrong_accepts as u64)
            .u64("waves", o.waves as u64)
            .u64("good_copies_sent", o.good_copies_sent)
            .u64("source_copies_sent", o.source_copies_sent)
            .u64("adversary_spent", o.adversary_spent)
            .f64("coverage", o.coverage())
            .bool("complete", o.is_complete())
            .bool("correct", o.is_correct())
            .bool("reliable", o.is_reliable()),
        EngineOutcome::Reactive(o) => obj
            .str("kind", "reactive")
            .u64("good_nodes", o.good_nodes as u64)
            .u64("committed_true", o.committed_true as u64)
            .u64("committed_wrong", o.committed_wrong as u64)
            .u64("rounds", o.rounds)
            .u64("data_transmissions", o.data_transmissions)
            .u64("nack_transmissions", o.nack_transmissions)
            .u64("max_node_messages", o.max_node_messages)
            .u64("subbits_per_message", o.subbits_per_message)
            .u64("adversary_spent", o.adversary_spent)
            .u64("detections", o.detections)
            .u64("undetected_corruptions", o.undetected_corruptions)
            .u64("uncommitted", o.uncommitted.len() as u64)
            .f64("coverage", o.coverage())
            .bool("reliable", o.is_reliable()),
        EngineOutcome::Agreement(o) => obj
            .str("kind", "agreement")
            .u64("members", o.decisions.len() as u64)
            .bool("validity", o.validity_holds())
            .bool("agreement", o.agreement_holds())
            .u64("defaults", o.default_count() as u64)
            .u64("conflicted", o.conflicted_count() as u64)
            .u64s("decided_values", o.decided_values().iter().map(|v| v.0)),
        EngineOutcome::Rbc(o) => obj
            .str("kind", "rbc")
            .u64("good_nodes", o.good_nodes as u64)
            .u64("delivered", o.delivered as u64)
            .u64("messages", o.messages)
            .u64("wire_bits", o.wire_bits)
            .u64("waves", o.waves)
            .u64("echoes_sent", o.echoes_sent)
            .u64("readies_sent", o.readies_sent)
            .f64("coverage", o.coverage())
            .bool("reliable", o.is_reliable()),
    }
}

fn probe_fields(o: Object, p: &ProbeResult) -> Object {
    let o = o
        .u64("x", u64::from(p.x))
        .u64("y", u64::from(p.y))
        .u64("node", p.node as u64)
        .u64("tally_true", p.probe.tally_true)
        .u64("tally_wrong", p.probe.tally_wrong)
        .u64("intake", p.probe.intake())
        .u64("decided_neighbors", p.probe.decided_neighbors as u64);
    accepted_field(o, p.probe.accepted)
        .u64("phase", p.probe.phase)
        .u64("conflicts", p.probe.conflicts)
}

/// Writes a sweep label as the fields of a row's `"point"` object.
/// Numeric axis values stay raw JSON numbers; name axes (the rbc
/// protocol) are quoted to keep the line parseable. Anything that
/// splices a label into a row (the federation coordinator) goes
/// through here, so its rows stay byte-equal to local ones.
pub fn label_fields(mut point: Object, label: &[(String, String)]) -> Object {
    for (axis, value) in label {
        point = if value.parse::<f64>().is_ok() {
            point.raw(axis, value)
        } else {
            point.str(axis, value)
        };
    }
    point
}

impl BatchReport {
    /// Renders the report as JSON lines: one self-describing object per
    /// point (schema documented in `EXPERIMENTS.md`), every row written
    /// straight into the one output string.
    pub fn jsonl(&self) -> String {
        let mut out = String::with_capacity(512 * self.results.len());
        for result in &self.results {
            out = Object::extend(out)
                .str("scenario", &self.name)
                .str("engine", self.engine.name())
                .object("point", |point| label_fields(point, &result.point))
                .object("outcome", |o| outcome_fields(o, &result.outcome))
                .objects("probes", &result.probes, probe_fields)
                .finish();
            out.push('\n');
        }
        out
    }

    /// Renders the report as a [`Table`] — the same row shape the bench
    /// harness prints and serializes into `BENCH_*.json`.
    pub fn table(&self) -> Table {
        let axes: Vec<String> = self
            .results
            .first()
            .map(|r| r.point.iter().map(|(a, _)| a.clone()).collect())
            .unwrap_or_default();
        let outcome_headers: &[&str] = match self.engine {
            EngineKind::Counting | EngineKind::Crash => {
                &["coverage", "complete", "correct", "waves"]
            }
            EngineKind::Slot => &["coverage", "reliable", "rounds", "max_node_messages"],
            EngineKind::Agreement => &["members", "validity", "agreement", "defaults"],
            EngineKind::Rbc => &["coverage", "messages", "wire_bits", "waves"],
        };
        let headers: Vec<&str> = axes
            .iter()
            .map(String::as_str)
            .chain(outcome_headers.iter().copied())
            .collect();
        let mut table = Table::new(
            format!("scenario {} ({} engine)", self.name, self.engine.name()),
            &headers,
        );
        for result in &self.results {
            let mut row: Vec<String> = result.point.iter().map(|(_, v)| v.clone()).collect();
            match &result.outcome {
                EngineOutcome::Counting(o) => {
                    row.push(format!("{:.3}", o.coverage()));
                    row.push(o.is_complete().to_string());
                    row.push(o.is_correct().to_string());
                    row.push(o.waves.to_string());
                }
                EngineOutcome::Reactive(o) => {
                    row.push(format!("{:.3}", o.coverage()));
                    row.push(o.is_reliable().to_string());
                    row.push(o.rounds.to_string());
                    row.push(o.max_node_messages.to_string());
                }
                EngineOutcome::Agreement(o) => {
                    row.push(o.decisions.len().to_string());
                    row.push(o.validity_holds().to_string());
                    row.push(o.agreement_holds().to_string());
                    row.push(o.default_count().to_string());
                }
                EngineOutcome::Rbc(o) => {
                    row.push(format!("{:.3}", o.coverage()));
                    row.push(o.messages.to_string());
                    row.push(o.wire_bits.to_string());
                    row.push(o.waves.to_string());
                }
            }
            table.row(&row);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f2_scenario_reproduces_the_paper_goldens() {
        // The same construction as scenarios/f2.scn (kept inline so the
        // core crate's tests need no file-system layout assumptions;
        // the repo-level round-trip test reads the actual file).
        let file = ScenarioFile::parse(concat!(
            "name = \"f2\"\n",
            "[topology]\nwidth = 45\nheight = 45\nr = 4\n",
            "[faults]\nt = 1\nmf = 1000\n",
            "[placement]\nkind = \"lattice\"\noffset = 41\n",
            "[protocol]\nkind = \"starved\"\nm = 59\n",
            "[adversary]\nkind = \"oracle\"\n",
            "[probes]\nnodes = [[0, 5], [5, 1]]\n",
        ))
        .unwrap();
        let report = run_file(&file).unwrap();
        assert_eq!(report.results.len(), 1);
        let result = &report.results[0];
        let o = result.outcome.as_counting().unwrap();
        assert_eq!(o.accepted_true, 84, "stall at 84 decided nodes");
        assert!(!o.is_complete());
        let gray = &result.probes[0];
        assert_eq!(gray.probe.intake(), 2065, "gray-node intake");
        let p = &result.probes[1];
        assert_eq!(p.probe.intake(), 1947, "copies delivered to p");
        assert_eq!(p.probe.tally_wrong, 947, "copies corrupted at p");
        assert_eq!(p.probe.accepted, None, "p stays undecided");

        let jsonl = report.jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        for needle in [
            "\"intake\":2065",
            "\"intake\":1947",
            "\"tally_wrong\":947",
            "\"accepted_true\":84",
        ] {
            assert!(jsonl.contains(needle), "{needle} missing from {jsonl}");
        }
    }

    #[test]
    fn sweep_rows_arrive_in_order_with_labels() {
        let file = ScenarioFile::parse(concat!(
            "name = \"t1-mini\"\n",
            "[topology]\nside = 15\nr = 1\n",
            "[faults]\nt = 1\nmf = 10\n",
            "[placement]\nkind = \"stripes\"\nstripes = [[5, 1, true], [11, 1, false]]\n",
            "[protocol]\nkind = \"starved\"\nm = 1\n",
            "[sweep]\nm = [10, 11, 22]\n",
        ))
        .unwrap();
        // m0 = ceil(21/2) = 11: starved below, complete at and above.
        let report = run_file(&file).unwrap();
        let complete: Vec<bool> = report
            .results
            .iter()
            .map(|r| r.outcome.as_counting().unwrap().is_complete())
            .collect();
        assert_eq!(complete, vec![false, true, true]);
        assert_eq!(report.results[0].point, vec![("m".into(), "10".into())]);
        let table = report.table();
        assert_eq!(table.len(), 3);
        assert_eq!(table.headers()[0], "m");
    }

    #[test]
    fn crash_engine_runs_from_a_file() {
        let file = ScenarioFile::parse(concat!(
            "engine = \"crash\"\n",
            "[topology]\nside = 20\nr = 2\n",
            "[faults]\nt = 1\nmf = 10\n",
            "[placement]\nkind = \"lattice\"\n",
            "[crash]\nkind = \"stripe\"\ny0 = 9\nheight = 1\n",
        ))
        .unwrap();
        let report = run_file(&file).unwrap();
        let o = report.results[0].outcome.as_counting().unwrap();
        assert!(o.is_correct());
        assert!(o.is_complete(), "height-1 stripe cannot block r = 2");
    }

    #[test]
    fn slot_engine_runs_from_a_file_with_probes() {
        let file = ScenarioFile::parse(concat!(
            "engine = \"slot\"\nseed = 42\n",
            "[topology]\nside = 15\nr = 1\n",
            "[faults]\nt = 1\nmf = 4\n",
            "[placement]\nkind = \"random\"\ncount = 8\n",
            "[reactive]\nk = 8\nadversary = \"jammer\"\n",
            "[probes]\nnodes = [[3, 3]]\n",
        ))
        .unwrap();
        let report = run_file(&file).unwrap();
        let result = &report.results[0];
        let o = result.outcome.as_reactive().unwrap();
        assert!(o.is_reliable(), "uncommitted: {:?}", o.uncommitted);
        // The slot engine answers probes for good nodes: a reliable run
        // means (3, 3) committed the broadcast value, delivered by at
        // least one data frame.
        if let [p] = result.probes.as_slice() {
            assert!(p.probe.tally_true >= 1, "{:?}", p.probe);
            assert_eq!(p.probe.accepted, Some(bftbcast_net::Value::TRUE));
            assert!(p.probe.decided_neighbors >= 1);
        } else {
            panic!("probe cell fell on a bad node: {:?}", result.probes);
        }
    }

    #[test]
    fn agreement_engine_answers_probes_for_members() {
        let file = ScenarioFile::parse(concat!(
            "engine = \"agreement\"\n",
            "[topology]\nside = 15\nr = 2\n",
            "[faults]\nt = 1\nmf = 10\n",
            "[source]\nx = 7\ny = 7\n",
            // (6, 8) is a member cell but Byzantine; (7, 8) is a good
            // member; (0, 0) is outside the source neighborhood.
            "[placement]\nkind = \"explicit\"\nnodes = [[6, 8]]\n",
            "[agreement]\nmode = \"proven\"\nsource = \"correct\"\n",
            "[probes]\nnodes = [[7, 8], [0, 0]]\n",
        ))
        .unwrap();
        let report = run_file(&file).unwrap();
        let result = &report.results[0];
        let o = result.outcome.as_agreement().unwrap();
        assert!(o.agreement_holds() && o.validity_holds());
        // Only the deciding member answers; the far cell yields no row.
        assert_eq!(result.probes.len(), 1, "{:?}", result.probes);
        let p = &result.probes[0];
        assert_eq!((p.x, p.y), (7, 8));
        assert_eq!(p.probe.tally_true, o.decisions.len() as u64, "unanimous");
        assert_eq!(p.probe.tally_wrong, 0);
        assert!(p.probe.accepted.is_some());
    }

    #[test]
    fn agreement_engine_sweeps_fractions_from_a_file() {
        let file = ScenarioFile::parse(concat!(
            "engine = \"agreement\"\n",
            "[topology]\nside = 15\nr = 2\n",
            "[faults]\nt = 1\nmf = 10\n",
            "[source]\nx = 7\ny = 7\n",
            "[placement]\nkind = \"explicit\"\nnodes = [[6, 8]]\n",
            "[agreement]\nmode = \"proven\"\nsource = \"split\"\n",
            "[sweep]\np1 = [0.0, 0.5, 1.0]\n",
        ))
        .unwrap();
        let report = run_file(&file).unwrap();
        assert_eq!(report.results.len(), 3);
        for r in &report.results {
            let o = r.outcome.as_agreement().unwrap();
            assert!(o.agreement_holds(), "proven mode never splits");
        }
    }

    #[test]
    fn rbc_engine_sweeps_protocols_from_a_file() {
        let file = ScenarioFile::parse(concat!(
            "engine = \"rbc\"\nseed = 7\n",
            "[topology]\nside = 9\nr = 1\n",
            "[faults]\nt = 1\nmf = 1\n",
            "[placement]\nkind = \"explicit\"\nnodes = [[4, 4]]\n",
            "[rbc]\npayload = 256\n",
            "[probes]\nnodes = [[2, 2], [4, 4]]\n",
            "[sweep]\nprotocol = [\"counting\", \"bracha\", \"ctrbc\"]\n",
        ))
        .unwrap();
        let report = run_file(&file).unwrap();
        assert_eq!(report.results.len(), 3);
        for (r, name) in report.results.iter().zip(["counting", "bracha", "ctrbc"]) {
            let o = r.outcome.as_rbc().unwrap();
            assert!(o.is_reliable(), "{name}: {o:?}");
            assert_eq!(r.point, vec![("protocol".into(), name.into())]);
            // (4, 4) is Byzantine and mute; only (2, 2) answers.
            assert_eq!(r.probes.len(), 1, "{name}: {:?}", r.probes);
            assert_eq!((r.probes[0].x, r.probes[0].y), (2, 2));
        }
        let jsonl = report.jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"kind\":\"rbc\""), "{jsonl}");
        assert!(jsonl.contains("\"wire_bits\":"), "{jsonl}");
        assert!(
            jsonl.contains("\"protocol\":\"ctrbc\""),
            "name labels must stay valid JSON: {jsonl}"
        );
        let table = report.table();
        assert_eq!(table.headers()[0], "protocol");
        assert!(table.headers().contains(&"wire_bits".to_string()));
    }

    #[test]
    fn local_bound_violation_surfaces_from_run_file() {
        let file = ScenarioFile::parse(concat!(
            "[topology]\nside = 15\nr = 1\n",
            "[placement]\nkind = \"explicit\"\nnodes = [[1, 1], [2, 1], [3, 1]]\n",
        ))
        .unwrap();
        let err = run_file(&file).unwrap_err();
        assert!(matches!(err, ScenarioError::LocalBoundViolated { .. }));
    }

    #[test]
    fn probe_off_the_torus_is_rejected_at_parse_time() {
        let err = ScenarioFile::parse(concat!(
            "[topology]\nside = 15\nr = 1\n",
            "[probes]\nnodes = [[99, 0]]\n",
        ))
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { .. }), "{err}");
    }

    #[test]
    fn zero_jobs_is_a_named_error() {
        let file = ScenarioFile::parse("[topology]\nside = 15\nr = 1\n").unwrap();
        let err = run_file_with(
            &file,
            &BatchOptions {
                jobs: Some(0),
                store: None,
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, ScenarioError::Invalid { ref what, .. } if what == "jobs"),
            "{err}"
        );
    }

    #[test]
    fn store_makes_reruns_bit_identical_cache_hits() {
        let file = ScenarioFile::parse(concat!(
            "name = \"cached\"\n",
            "[topology]\nside = 15\nr = 1\n",
            "[faults]\nt = 1\nmf = 4\n",
            "[placement]\nkind = \"lattice\"\n",
            "[protocol]\nkind = \"starved\"\nm = 4\n",
            "[probes]\nnodes = [[3, 3]]\n",
            "[sweep]\nm = [2, 8]\n",
        ))
        .unwrap();
        let store = Store::in_memory();
        let cold = run_file_with(
            &file,
            &BatchOptions {
                jobs: Some(1),
                store: Some(&store),
            },
        )
        .unwrap();
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 2));
        assert_eq!(store.len(), 2);
        let warm = run_file_with(
            &file,
            &BatchOptions {
                jobs: None,
                store: Some(&store),
            },
        )
        .unwrap();
        assert_eq!((warm.cache_hits, warm.cache_misses), (2, 0));
        assert_eq!(warm.jsonl(), cold.jsonl(), "cached rows are bit-identical");
        assert_eq!(store.len(), 2, "no new entries on the warm run");
        // A storeless run reports everything as a miss.
        let plain = run_file(&file).unwrap();
        assert_eq!((plain.cache_hits, plain.cache_misses), (0, 2));
        assert_eq!(plain.jsonl(), cold.jsonl());
    }

    #[test]
    fn replay_reads_rows_back_without_counting() {
        let file = ScenarioFile::parse(concat!(
            "[topology]\nside = 15\nr = 1\n",
            "[faults]\nt = 1\nmf = 4\n",
            "[protocol]\nkind = \"starved\"\nm = 4\n",
            "[sweep]\nm = [2, 8]\n",
        ))
        .unwrap();
        let store = Store::in_memory();
        let options = BatchOptions {
            jobs: Some(1),
            store: Some(&store),
        };
        let ran = run_file_with(&file, &options).unwrap();
        let counters = store.stats();
        let replayed = replay_file_with(&file, &options).unwrap();
        assert_eq!(replayed.jsonl(), ran.jsonl());
        assert_eq!((replayed.cache_hits, replayed.cache_misses), (2, 0));
        assert_eq!(store.stats(), counters, "replays leave the counters alone");
    }

    #[test]
    fn duplicate_sweep_points_share_one_cache_entry() {
        // The same m twice: two rows, one engine run recorded.
        let file = ScenarioFile::parse(concat!(
            "[topology]\nside = 15\nr = 1\n",
            "[faults]\nt = 1\nmf = 4\n",
            "[protocol]\nkind = \"starved\"\nm = 4\n",
            "[sweep]\nm = [8, 8]\n",
        ))
        .unwrap();
        let store = Store::in_memory();
        let report = run_file_with(
            &file,
            &BatchOptions {
                jobs: None,
                store: Some(&store),
            },
        )
        .unwrap();
        assert_eq!(report.results.len(), 2);
        assert_eq!(store.len(), 1, "identical points are content-equal");
        assert_eq!(report.cache_hits + report.cache_misses, 2);
        assert!(report.cache_misses >= 1 && report.cache_hits >= 1);
        assert_eq!(
            report.results[0].outcome, report.results[1].outcome,
            "both rows carry the same outcome"
        );
    }

    #[test]
    fn proven_mode_t_bound_is_a_graceful_error_for_hand_built_points() {
        // Parse rejects this file; a hand-mutated PointSpec must error
        // (not assert) when the engine is built.
        let file = ScenarioFile::parse(concat!(
            "engine = \"agreement\"\n",
            "[topology]\nside = 9\nr = 1\n",
            "[faults]\nt = 1\nmf = 5\n",
            "[source]\nx = 4\ny = 4\n",
            "[agreement]\nmode = \"proven\"\n",
        ))
        .unwrap();
        let mut point = file.points().remove(0);
        point.t = 2;
        let err = match build_engine(file.engine, &point) {
            Err(e) => e,
            Ok(_) => panic!("hand-built point must be rejected"),
        };
        assert!(matches!(err, ScenarioError::Invalid { .. }), "{err}");
    }

    // -----------------------------------------------------------------
    // JSONL goldens: one hand-built report per outcome kind, rendered
    // bytes pinned from the writer that built each field as its own
    // `String` (escaped scenario names, numeric and name axis labels,
    // every `accepted` spelling, non-trivial floats, decided values).
    // -----------------------------------------------------------------

    use bftbcast_sim::agreement::AgreementOutcome;
    use bftbcast_sim::metrics::{CountingOutcome, RbcOutcome, ReactiveOutcome};

    fn report(name: &str, engine: EngineKind, results: Vec<PointResult>) -> BatchReport {
        BatchReport {
            name: name.to_string(),
            engine,
            results,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    fn probe(x: u32, y: u32, node: usize, probe: Probe) -> ProbeResult {
        ProbeResult { x, y, node, probe }
    }

    fn label(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|&(a, v)| (a.to_string(), v.to_string()))
            .collect()
    }

    /// One report per outcome kind, built by hand so the rendered bytes
    /// depend on nothing but the JSONL writer.
    fn golden_reports() -> Vec<BatchReport> {
        let counting = report(
            "f2 \"q\"\t",
            EngineKind::Counting,
            vec![
                PointResult {
                    point: label(&[("m", "59"), ("protocol", "ctrbc")]),
                    outcome: EngineOutcome::Counting(CountingOutcome {
                        good_nodes: 2000,
                        accepted_true: 84,
                        wrong_accepts: 0,
                        waves: 17,
                        good_copies_sent: 12_345,
                        source_copies_sent: 2001,
                        adversary_spent: 999_999,
                    }),
                    probes: vec![
                        probe(
                            0,
                            5,
                            225,
                            Probe {
                                tally_true: 1118,
                                tally_wrong: 947,
                                decided_neighbors: 3,
                                accepted: None,
                                ..Probe::default()
                            },
                        ),
                        probe(
                            5,
                            1,
                            50,
                            Probe {
                                tally_true: 1000,
                                accepted: Some(Value::TRUE),
                                ..Probe::default()
                            },
                        ),
                        probe(
                            7,
                            7,
                            322,
                            Probe {
                                tally_wrong: 4,
                                accepted: Some(Value::FORGED),
                                ..Probe::default()
                            },
                        ),
                        probe(
                            8,
                            0,
                            8,
                            Probe {
                                accepted: Some(Value(7)),
                                ..Probe::default()
                            },
                        ),
                    ],
                },
                PointResult {
                    point: Vec::new(),
                    outcome: EngineOutcome::Counting(CountingOutcome {
                        good_nodes: 3,
                        accepted_true: 3,
                        wrong_accepts: 0,
                        waves: 1,
                        good_copies_sent: 2,
                        source_copies_sent: 1,
                        adversary_spent: 0,
                    }),
                    probes: Vec::new(),
                },
            ],
        );
        let reactive = report(
            "reactive",
            EngineKind::Slot,
            vec![PointResult {
                point: label(&[("k", "8"), ("adversary", "jammer")]),
                outcome: EngineOutcome::Reactive(ReactiveOutcome {
                    good_nodes: 3,
                    committed_true: 1,
                    committed_wrong: 0,
                    rounds: 500,
                    data_transmissions: 60,
                    nack_transmissions: 12,
                    max_node_messages: 9,
                    subbits_per_message: 3198,
                    adversary_spent: 30,
                    detections: 12,
                    undetected_corruptions: 0,
                    uncommitted: vec![7, 9],
                }),
                probes: vec![probe(
                    3,
                    3,
                    48,
                    Probe {
                        tally_true: 2,
                        decided_neighbors: 1,
                        accepted: Some(Value::TRUE),
                        ..Probe::default()
                    },
                )],
            }],
        );
        let agreement = report(
            "x4",
            EngineKind::Agreement,
            vec![PointResult {
                point: label(&[("p1", "0.5"), ("pe", "1e-3")]),
                outcome: EngineOutcome::Agreement(AgreementOutcome {
                    decisions: vec![(3, Value(2)), (4, Value(2)), (5, Value::TRUE)],
                    source_correct: false,
                    proposals: vec![(3, Value(2))],
                    aggregates: vec![(4, Value(3))],
                }),
                probes: vec![probe(
                    1,
                    2,
                    31,
                    Probe {
                        tally_true: 2,
                        tally_wrong: 1,
                        decided_neighbors: 2,
                        accepted: Some(Value(2)),
                        ..Probe::default()
                    },
                )],
            }],
        );
        let rbc = report(
            "rbc-compare",
            EngineKind::Rbc,
            vec![PointResult {
                point: label(&[("protocol", "bracha"), ("payload", "256")]),
                outcome: EngineOutcome::Rbc(RbcOutcome {
                    good_nodes: 223,
                    delivered: 200,
                    messages: 98_765,
                    wire_bits: 4_321_000,
                    waves: 17,
                    echoes_sent: 223,
                    readies_sent: 210,
                }),
                probes: vec![probe(
                    7,
                    2,
                    37,
                    Probe {
                        tally_true: 223,
                        tally_wrong: 223,
                        decided_neighbors: 8,
                        accepted: Some(Value::TRUE),
                        phase: 3,
                        conflicts: 2,
                    },
                )],
            }],
        );
        vec![counting, reactive, agreement, rbc]
    }

    const GOLDEN_JSONL: [&str; 4] = [
        "{\"scenario\":\"f2 \\\"q\\\"\\t\",\"engine\":\"counting\",\"point\":{\"m\":59,\"protocol\":\"ctrbc\"},\"outcome\":{\"kind\":\"counting\",\"good_nodes\":2000,\"accepted_true\":84,\"wrong_accepts\":0,\"waves\":17,\"good_copies_sent\":12345,\"source_copies_sent\":2001,\"adversary_spent\":999999,\"coverage\":0.042,\"complete\":false,\"correct\":true,\"reliable\":false},\"probes\":[{\"x\":0,\"y\":5,\"node\":225,\"tally_true\":1118,\"tally_wrong\":947,\"intake\":2065,\"decided_neighbors\":3,\"accepted\":null,\"phase\":0,\"conflicts\":0},{\"x\":5,\"y\":1,\"node\":50,\"tally_true\":1000,\"tally_wrong\":0,\"intake\":1000,\"decided_neighbors\":0,\"accepted\":\"true\",\"phase\":0,\"conflicts\":0},{\"x\":7,\"y\":7,\"node\":322,\"tally_true\":0,\"tally_wrong\":4,\"intake\":4,\"decided_neighbors\":0,\"accepted\":\"forged\",\"phase\":0,\"conflicts\":0},{\"x\":8,\"y\":0,\"node\":8,\"tally_true\":0,\"tally_wrong\":0,\"intake\":0,\"decided_neighbors\":0,\"accepted\":7,\"phase\":0,\"conflicts\":0}]}\n{\"scenario\":\"f2 \\\"q\\\"\\t\",\"engine\":\"counting\",\"point\":{},\"outcome\":{\"kind\":\"counting\",\"good_nodes\":3,\"accepted_true\":3,\"wrong_accepts\":0,\"waves\":1,\"good_copies_sent\":2,\"source_copies_sent\":1,\"adversary_spent\":0,\"coverage\":1,\"complete\":true,\"correct\":true,\"reliable\":true},\"probes\":[]}\n",
        "{\"scenario\":\"reactive\",\"engine\":\"slot\",\"point\":{\"k\":8,\"adversary\":\"jammer\"},\"outcome\":{\"kind\":\"reactive\",\"good_nodes\":3,\"committed_true\":1,\"committed_wrong\":0,\"rounds\":500,\"data_transmissions\":60,\"nack_transmissions\":12,\"max_node_messages\":9,\"subbits_per_message\":3198,\"adversary_spent\":30,\"detections\":12,\"undetected_corruptions\":0,\"uncommitted\":2,\"coverage\":0.3333333333333333,\"reliable\":false},\"probes\":[{\"x\":3,\"y\":3,\"node\":48,\"tally_true\":2,\"tally_wrong\":0,\"intake\":2,\"decided_neighbors\":1,\"accepted\":\"true\",\"phase\":0,\"conflicts\":0}]}\n",
        "{\"scenario\":\"x4\",\"engine\":\"agreement\",\"point\":{\"p1\":0.5,\"pe\":1e-3},\"outcome\":{\"kind\":\"agreement\",\"members\":3,\"validity\":true,\"agreement\":false,\"defaults\":0,\"conflicted\":0,\"decided_values\":[1,2]},\"probes\":[{\"x\":1,\"y\":2,\"node\":31,\"tally_true\":2,\"tally_wrong\":1,\"intake\":3,\"decided_neighbors\":2,\"accepted\":2,\"phase\":0,\"conflicts\":0}]}\n",
        "{\"scenario\":\"rbc-compare\",\"engine\":\"rbc\",\"point\":{\"protocol\":\"bracha\",\"payload\":256},\"outcome\":{\"kind\":\"rbc\",\"good_nodes\":223,\"delivered\":200,\"messages\":98765,\"wire_bits\":4321000,\"waves\":17,\"echoes_sent\":223,\"readies_sent\":210,\"coverage\":0.8968609865470852,\"reliable\":false},\"probes\":[{\"x\":7,\"y\":2,\"node\":37,\"tally_true\":223,\"tally_wrong\":223,\"intake\":446,\"decided_neighbors\":8,\"accepted\":\"true\",\"phase\":3,\"conflicts\":2}]}\n",
    ];

    #[test]
    fn jsonl_bytes_are_pinned_for_every_outcome_kind() {
        let reports = golden_reports();
        assert_eq!(reports.len(), GOLDEN_JSONL.len());
        for (report, pinned) in reports.iter().zip(GOLDEN_JSONL) {
            assert_eq!(report.jsonl(), pinned, "{:?} report", report.engine);
        }
        let empty = report("none", EngineKind::Counting, Vec::new());
        assert_eq!(empty.jsonl(), "");
    }
}
