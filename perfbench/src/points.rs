//! `scale` and `rbc-sweep`: sweeps of cold points, one at a time.
//!
//! Untraced, each point runs as a user's `run --scenario` does: parse
//! the document, `batch::run_file_with` on one worker without a store,
//! render the JSONL row. Traced, the same point is taken apart into the
//! public calls behind it (`build_engine`, `prepare`, `step`, the row),
//! each in its own span; traced and untraced cycles alternate so the
//! difference between them is the tracing overhead.

use std::time::Instant;

use bftbcast::batch::{build_engine, run_file_with, BatchOptions, BatchReport, PointResult};
use bftbcast::cache;
use bftbcast::json::Json;
use bftbcast::net::{Grid, ScanMode, Topology};
use bftbcast::rbc::{ByzantineBehavior, RbcConfig, RbcSim};
use bftbcast::scenario_file::{EngineKind, PointSpec, ScenarioFile};
use bftbcast::sim::engine::EngineOutcome;

use crate::gen::{self, RBC_CYCLE};
use crate::sys::{median, quantile, secs, Usage};
use crate::trace::Tracer;
use crate::{Ctx, Metrics, Outcome, Workload};

/// One point's measured result.
struct Ran {
    engine: EngineKind,
    point: PointSpec,
    result: PointResult,
    row: String,
    ms: f64,
}

fn parse(doc: &str) -> Result<(ScenarioFile, PointSpec), String> {
    let file = ScenarioFile::parse(doc).map_err(|e| e.to_string())?;
    let point = file
        .points()
        .into_iter()
        .next()
        .ok_or("document has no point")?;
    Ok((file, point))
}

fn untraced(doc: &str) -> Result<Ran, String> {
    let start = Instant::now();
    let (file, point) = parse(doc)?;
    let report = run_file_with(
        &file,
        &BatchOptions {
            jobs: Some(1),
            store: None,
        },
    )
    .map_err(|e| e.to_string())?;
    let row = report.jsonl();
    let ms = secs(start) * 1e3;
    let result = report.results.into_iter().next().ok_or("no row")?;
    Ok(Ran {
        engine: file.engine,
        point,
        result,
        row,
        ms,
    })
}

/// Per traced point: the op's wall time, engine waves and the
/// resource deltas around it.
struct TracedPoint {
    waves: f64,
    minflt: f64,
    sys_ms: f64,
    cpu_ms: f64,
}

fn traced(doc: &str, tr: &mut Tracer) -> Result<(Ran, TracedPoint), String> {
    let before = Usage::now();
    let start = Instant::now();
    let (ran, waves) = tr.span("op", |tr| -> Result<(Ran, u64), String> {
        let (file, point) = tr.span("core.scn_parse", |_| parse(doc))?;
        let mut engine = tr
            .span("sim.build", |_| build_engine(file.engine, &point))
            .map_err(|e| e.to_string())?;
        tr.span("sim.prepare", |_| engine.prepare());
        let waves = tr.span("sim.step", |_| {
            let mut waves = 0;
            while engine.step() {
                waves += 1;
            }
            waves
        });
        let outcome = tr.span("sim.outcome", |_| engine.outcome());
        tr.span("sim.drop", |_| drop(engine));
        let result = PointResult {
            point: point.label.clone(),
            outcome,
            probes: Vec::new(),
        };
        let report = BatchReport {
            name: file.name.clone(),
            engine: file.engine,
            results: vec![result],
            cache_hits: 0,
            cache_misses: 1,
        };
        let row = tr.span("core.jsonl", |_| report.jsonl());
        let result = report.results.into_iter().next().expect("one result");
        Ok((
            Ran {
                engine: file.engine,
                point,
                result,
                row,
                ms: 0.0,
            },
            waves,
        ))
    })?;
    let ms = secs(start) * 1e3;
    let after = Usage::now();
    let ran = Ran { ms, ..ran };
    Ok((
        ran,
        TracedPoint {
            waves: waves as f64,
            minflt: (after.minflt - before.minflt) as f64,
            sys_ms: (after.sys_s - before.sys_s) * 1e3,
            cpu_ms: (after.user_s + after.sys_s - before.user_s - before.sys_s) * 1e3,
        },
    ))
}

/// Layer calls on a point's inputs and outputs that sit off its
/// blocking path, each in a root span of its own.
fn side_calls(ran: &Ran, tr: &mut Tracer) {
    tr.span("net.topology", |_| {
        let grid = Grid::new(ran.point.width, ran.point.height, ran.point.r).expect("valid grid");
        std::hint::black_box(Topology::new(grid));
    });
    tr.span("core.point_key", |_| {
        std::hint::black_box(cache::point_key(ran.engine, &ran.point, &[]))
    });
    let bytes = tr.span("core.encode_result", |_| cache::encode_result(&ran.result));
    tr.span("core.decode_result", |_| {
        std::hint::black_box(cache::decode_result(&bytes))
    });
    tr.span("core.json_parse", |_| {
        std::hint::black_box(Json::parse(ran.row.trim_end()).is_ok())
    });
}

/// Checks one scale row: protocol B with at most `t` bad nodes per
/// neighborhood reaches every good node and accepts nothing forged.
fn check_scale(ran: &Ran) -> bool {
    match &ran.result.outcome {
        EngineOutcome::Counting(o) => {
            o.is_complete()
                && o.is_correct()
                && o.accepted_true == o.good_nodes
                && o.wrong_accepts == 0
        }
        _ => false,
    }
}

/// Re-runs an rbc point on the message-level runtime directly and
/// checks agreement + validity (every good node delivered variant 0,
/// the genuine payload), totality, and that it is the same run as the
/// row (identical outcome).
fn check_rbc_rerun(ran: &Ran) -> Result<bool, String> {
    let scenario = ran.point.build_scenario().map_err(|e| e.to_string())?;
    let cfg = RbcConfig {
        protocol: ran.point.rbc.protocol,
        t: scenario.params().t,
        payload_bits: ran.point.rbc.payload,
        max_waves: ran.point.rbc.max_waves,
        seed: ran.point.seed,
        schedule: ran.point.rbc.schedule,
        behavior: ran.point.rbc.behavior,
    };
    let mut sim = RbcSim::new(
        scenario.grid().clone(),
        scenario.source(),
        scenario.bad_nodes(),
        cfg,
    );
    sim.begin();
    while sim.step_wave() {}
    let n = scenario.grid().node_count();
    let all_genuine = (0..n)
        .filter(|&u| sim.is_good(u))
        .all(|u| sim.delivered_variant(u) == Some(0));
    Ok(sim.quiescent() && all_genuine && EngineOutcome::Rbc(sim.outcome()) == ran.result.outcome)
}

fn rbc_totality(ran: &Ran) -> bool {
    matches!(&ran.result.outcome, EngineOutcome::Rbc(o) if o.is_reliable() && o.good_nodes > 0)
}

/// Under a mute adversary, what is delivered and what it costs are
/// schedule-invariant: every mute point of one protocol in a cycle
/// has the same message and wire-bit totals.
fn mute_invariant(cycle: &[Ran]) -> bool {
    let totals = |r: &Ran| match &r.result.outcome {
        EngineOutcome::Rbc(o) => Some((o.messages, o.wire_bits)),
        _ => None,
    };
    let mut ok = true;
    for protocol in gen::RBC_PROTOCOLS {
        let mute: Vec<_> = cycle
            .iter()
            .filter(|r| {
                r.point.rbc.protocol.name() == protocol
                    && r.point.rbc.behavior == ByzantineBehavior::Mute
            })
            .map(totals)
            .collect();
        ok &= mute.len() == gen::RBC_SCHEDULES.len()
            && mute.iter().all(|t| t.is_some() && *t == mute[0]);
    }
    ok
}

/// One set-up of a point sweep: read and parse every generated
/// document into points, what `run --scenario` does before its first
/// point. Returns the documents and the seconds it took.
fn setup_once(ctx: &Ctx) -> Result<(Vec<String>, f64), String> {
    let start = Instant::now();
    let docs = gen::read_client(&ctx.data, 0).map_err(|e| e.to_string())?;
    for doc in &docs {
        std::hint::black_box(parse(doc)?);
    }
    Ok((docs, secs(start)))
}

/// Set-up repetitions before every cycle.
const SETUP_REPS: usize = 5;

/// Runs `scale` or `rbc-sweep`.
pub fn run(
    workload: Workload,
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    // Set-up is short, so it is repeated before every cycle and the
    // median taken: the repetitions see the same host as the points.
    let (docs, first_setup) = setup_once(ctx)?;
    let mut setup_s = vec![first_setup];
    // Per cycle, the mean time of its points: on `rbc-sweep` point times
    // cluster by schedule, so a median over single points would jump
    // between clusters as the cycle count changes.
    let mut plain_cycle_ms = Vec::new();
    let mut traced_cycle_ms = Vec::new();
    let cycle_len = if workload == Workload::RbcSweep {
        RBC_CYCLE
    } else {
        1
    };
    let cycles: Vec<&[String]> = docs.chunks_exact(cycle_len).collect();
    let mut traced_points: Vec<TracedPoint> = Vec::new();
    let mut ran_all: Vec<Ran> = Vec::new();
    let mut cycle_ok = Vec::new();
    let start = Instant::now();
    for (c, cycle) in cycles.iter().enumerate() {
        // Whole cycles only, so every combination is equally weighted.
        if c >= 2 && secs(start) >= ctx.seconds {
            break;
        }
        // The first cycle is traced, so the exact counts come from a
        // fresh single-threaded process.
        let trace_this = ctx.trace && c % 2 == 0;
        if !ctx.trace {
            for _ in 0..SETUP_REPS {
                setup_s.push(setup_once(ctx)?.1);
            }
        }
        tr.set_on(trace_this);
        let mut ran_cycle = Vec::with_capacity(cycle.len());
        for (i, doc) in cycle.iter().enumerate() {
            tr.set_request((c * cycle_len + i) as u64);
            if trace_this {
                let (ran, tp) = traced(doc, tr)?;
                side_calls(&ran, tr);
                traced_points.push(tp);
                ran_cycle.push(ran);
            } else {
                ran_cycle.push(untraced(doc)?);
            }
        }
        tr.set_on(false);
        let cycle_ms = ran_cycle.iter().map(|r| r.ms).sum::<f64>() / cycle_len as f64;
        if trace_this {
            traced_cycle_ms.push(cycle_ms);
        } else {
            plain_cycle_ms.push(cycle_ms);
        }
        cycle_ok.push(workload != Workload::RbcSweep || mute_invariant(&ran_cycle));
        ran_all.extend(ran_cycle);
    }

    // Correctness, outside the timed loop.
    match workload {
        Workload::Scale => {
            for ran in &ran_all {
                out.check(check_scale(ran), || {
                    format!("scale row {}", ran.row.trim_end())
                });
            }
            // One point per invocation against the dense-scan kernel.
            let first = &ran_all[0];
            let mut dense =
                build_engine(EngineKind::Counting, &first.point).map_err(|e| e.to_string())?;
            dense.set_scan_mode(ScanMode::Dense);
            let dense_outcome = dense.run_to_completion();
            out.check(dense_outcome == first.result.outcome, || {
                format!(
                    "dense kernel disagrees: {dense_outcome:?} vs {:?}",
                    first.result.outcome
                )
            });
        }
        _ => {
            for (i, ran) in ran_all.iter().enumerate() {
                let ok = rbc_totality(ran)
                    && cycle_ok[i / cycle_len]
                    && (ran.point.rbc.behavior == ByzantineBehavior::Mute || check_rbc_rerun(ran)?);
                out.check(ok, || format!("rbc row {}", ran.row.trim_end()));
            }
        }
    }

    let m = &mut out.metrics;
    if ctx.trace {
        layer_metrics(workload, tr, &traced_points, cycle_len, &ran_all, m);
        tr.account(&plain_cycle_ms, &traced_cycle_ms, m);
    } else {
        // A request is one cycle: a single point on `scale`, the
        // 12-point protocol x schedule x behavior sweep on `rbc-sweep`.
        let requests: Vec<f64> = plain_cycle_ms
            .iter()
            .map(|ms| ms * cycle_len as f64)
            .collect();
        m.insert("setup_s", median(&setup_s));
        m.insert("point_ms", median(&plain_cycle_ms));
        m.insert("request_p50_ms", median(&requests));
        m.insert("request_p90_ms", quantile(&requests, 0.9));
        eprintln!(
            "{} requests ({} points) measured",
            requests.len(),
            ran_all.len()
        );
    }
    Ok(())
}

fn med_of(tr: &Tracer, name: &str) -> f64 {
    median(&tr.durations_ms(name))
}

/// Counts are means over the first traced cycle, so they repeat
/// exactly for a seed; times are medians over every traced point.
fn layer_metrics(
    workload: Workload,
    tr: &Tracer,
    traced: &[TracedPoint],
    cycle: usize,
    ran: &[Ran],
    m: &mut Metrics,
) {
    let first = &traced[..cycle];
    let mean = |f: fn(&TracedPoint) -> f64| first.iter().map(f).sum::<f64>() / first.len() as f64;
    let med = |f: fn(&TracedPoint) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let per_wave: Vec<f64> = tr
        .durations_ms("sim.step")
        .iter()
        .zip(traced)
        .map(|(ms, t)| ms * 1e3 / t.waves.max(1.0))
        .collect();
    m.insert("net.topology_ms", med_of(tr, "net.topology"));
    m.insert("sim.build_ms", med_of(tr, "sim.build"));
    m.insert("sim.prepare_ms", med_of(tr, "sim.prepare"));
    m.insert("sim.step_ms", med_of(tr, "sim.step"));
    m.insert("sim.step_us_per_wave", median(&per_wave));
    m.insert("sim.waves", mean(|t| t.waves));
    m.insert("proc.minflt_per_point", mean(|t| t.minflt));
    m.insert("proc.sys_ms_per_point", med(|t| t.sys_ms));
    m.insert("proc.cpu_ms_per_point", med(|t| t.cpu_ms));
    m.insert("core.scn_parse_ms", med_of(tr, "core.scn_parse"));
    m.insert("core.point_key_us", med_of(tr, "core.point_key") * 1e3);
    m.insert(
        "core.encode_result_us",
        med_of(tr, "core.encode_result") * 1e3,
    );
    m.insert(
        "core.decode_result_us",
        med_of(tr, "core.decode_result") * 1e3,
    );
    m.insert("core.jsonl_us_per_row", med_of(tr, "core.jsonl") * 1e3);
    m.insert("core.json_parse_ms", med_of(tr, "core.json_parse"));
    if workload == Workload::RbcSweep {
        rbc_metrics(tr, ran, m);
    }
}

/// The rbc layer: engine build and run times, message and wire counts
/// (means over the first traced cycle, so they repeat exactly for a
/// seed), and the run cost per delivered message by protocol.
fn rbc_metrics(tr: &Tracer, ran: &[Ran], m: &mut Metrics) {
    m.insert("rbc.build_ms", med_of(tr, "sim.build"));
    m.insert("rbc.step_ms", med_of(tr, "sim.step"));
    let spans = tr.spans();
    // Traced ops in order; each op's prepare + step spans and its row.
    let mut per_protocol: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut first_cycle: Vec<(u64, u64, u64)> = Vec::new();
    for (req, ran) in ran.iter().enumerate() {
        let run_ns: u64 = spans
            .iter()
            .filter(|s| s.req == req as u64 && (s.name == "sim.prepare" || s.name == "sim.step"))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let EngineOutcome::Rbc(o) = &ran.result.outcome else {
            continue;
        };
        if run_ns == 0 {
            continue;
        }
        if first_cycle.len() < RBC_CYCLE {
            first_cycle.push((o.messages, o.wire_bits, o.waves));
        }
        let k = usize::from(ran.point.rbc.protocol.name() == "ctrbc");
        per_protocol[k].push(run_ns as f64 / o.messages.max(1) as f64);
    }
    let mean = |f: fn(&(u64, u64, u64)) -> u64| {
        first_cycle.iter().map(f).sum::<u64>() as f64 / first_cycle.len().max(1) as f64
    };
    m.insert("rbc.messages", mean(|c| c.0));
    m.insert("rbc.wire_bits", mean(|c| c.1));
    m.insert("rbc.waves", mean(|c| c.2));
    m.insert("rbc.bracha.ns_per_msg", median(&per_protocol[0]));
    m.insert("rbc.ctrbc.ns_per_msg", median(&per_protocol[1]));
}
