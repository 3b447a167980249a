//! `serve-warm`, `serve-ingest` and `figures`: closed-loop clients
//! against an in-process `Server` over the generated file store.
//!
//! Each client sends its next request only after the previous reply
//! has fully arrived. Requests are timed from send to the last row or
//! figure received. The traced run wraps the client round trips in
//! spans, then replays every traced request's server-side work (scn
//! parse, cache keys, store lookups, codec, batch, rows, figure
//! rendering) from this process on an idle machine, one layer call per
//! span, so the round trip splits into layer time and queue/wire wait.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use bftbcast::batch::{build_engine, run_file_with, BatchOptions, BatchReport};
use bftbcast::cache;
use bftbcast::json::Json;
use bftbcast::net::{Grid, Topology};
use bftbcast::report::{self, FigureKind, MapDecor, ReportSpec};
use bftbcast::scenario_file::{EngineKind, ScenarioFile};
use bftbcast::viz::map::{CellStyle, GridMap};
use bftbcast_server::client::{self, ReportParams};
use bftbcast_server::{ServeOptions, Server};
use bftbcast_store::Store;

use crate::gen::{self, SERVE_CLIENTS};
use crate::sys::{digest_lines, median, quantile, secs, Usage};
use crate::trace::Tracer;
use crate::{Ctx, Metrics, Outcome, Workload};

/// Requests per run whose resource deltas give the exact counts.
const COUNT_REQUESTS: usize = 2;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Per-op samples by metric name, already normalized to the metric's
/// unit (per point, per row, per request).
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

/// Records `value` under `name`.
pub fn sample(s: &mut Samples, name: &'static str, value: f64) {
    s.entry(name).or_default().push(value);
}

/// Moves the median of every sample series into `m`.
pub fn publish(s: &Samples, m: &mut Metrics) {
    for (name, values) in s {
        m.insert(name, median(values));
    }
}

/// Times `body` in a span named `name` and returns its milliseconds.
pub fn timed<R>(tr: &mut Tracer, name: &'static str, body: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = tr.span(name, |_| body());
    (out, secs(start) * 1e3)
}

/// A running server over a store, and how long it took to bring up.
pub struct Running {
    /// The server's address.
    pub addr: String,
    /// The shared store.
    pub store: Arc<Store>,
    handle: thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Opens the store, binds the server (one worker per batch), starts
    /// it and waits for its first `ping` reply. Returns the server and
    /// the seconds spent in `Store::open` and in the whole set-up.
    ///
    /// # Errors
    ///
    /// Store, socket or protocol failures.
    pub fn start(dir: &Path) -> Result<(Running, f64, f64), String> {
        let start = Instant::now();
        let store = Arc::new(Store::open(dir).map_err(|e| format!("open store: {e}"))?);
        let open_s = secs(start);
        let opts = ServeOptions {
            jobs: Some(1),
            ..ServeOptions::default()
        };
        let server = Server::bind_with("127.0.0.1:0", Arc::clone(&store), opts)
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let handle = thread::spawn(move || server.serve());
        client::ping(&addr).map_err(|e| format!("ping: {e}"))?;
        Ok((
            Running {
                addr,
                store,
                handle,
            },
            open_s,
            secs(start),
        ))
    }

    /// Shuts the server down and waits for it (queue drained, store
    /// synced).
    ///
    /// # Errors
    ///
    /// Protocol failures or a failed final store flush.
    pub fn stop(self) -> Result<(), String> {
        client::shutdown(&self.addr).map_err(|e| format!("shutdown: {e}"))?;
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("serve: {e}"))
    }
}

/// One request's reply as the client saw it.
struct Reply {
    client: usize,
    doc: usize,
    ms: f64,
    /// Digest of the result rows, or the figure hash for `figures`.
    digest: u64,
    /// Rows (or figures) received.
    rows: usize,
    trailer: String,
    /// The first reply line (row or SVG), kept for traced requests only.
    first: String,
}

impl Reply {
    fn new(
        workload: Workload,
        client: usize,
        doc: usize,
        ms: f64,
        rows: Vec<String>,
        trailer: String,
        keep: bool,
    ) -> Reply {
        let digest = if workload == Workload::Figures {
            rows.first().map_or(0, |svg| report::figure_hash(svg))
        } else {
            digest_lines(rows.iter().map(String::as_str))
        };
        let first = if keep {
            rows.first().cloned().unwrap_or_default()
        } else {
            String::new()
        };
        Reply {
            client,
            doc,
            ms,
            digest,
            rows: rows.len(),
            trailer,
            first,
        }
    }
}

pub fn map_params() -> ReportParams {
    ReportParams {
        figure: Some("map".to_string()),
        ..ReportParams::default()
    }
}

/// Sends one request and waits for all of its reply.
fn request(
    workload: Workload,
    addr: &str,
    doc: &str,
    tr: &mut Tracer,
) -> Result<(Vec<String>, String), String> {
    let err = |e: std::io::Error| e.to_string();
    tr.span("op", |tr| {
        if workload == Workload::Figures {
            let (figures, trailer) = tr
                .span("server.report", |_| {
                    client::report(addr, doc, &map_params())
                })
                .map_err(err)?;
            Ok((figures.into_iter().map(|(_, svg)| svg).collect(), trailer))
        } else {
            let job = tr
                .span("server.submit", |_| client::submit(addr, doc))
                .map_err(err)?;
            tr.span("server.results", |_| client::results(addr, &job))
                .map_err(err)
        }
    })
}

/// What every client of one run shares.
struct LoopCfg<'a> {
    workload: Workload,
    addr: &'a str,
    /// The end of the measurement window.
    until: Instant,
    trace: bool,
}

/// One closed-loop client: requests `docs[from..]` in order until the
/// window closes; odd-numbered requests are traced when tracing.
fn client_loop(
    cfg: &LoopCfg<'_>,
    client: usize,
    docs: &[String],
    from: usize,
    mut tr: Tracer,
) -> Result<(Vec<Reply>, Tracer), String> {
    let mut replies = Vec::new();
    for (doc, text) in docs.iter().enumerate().skip(from) {
        if Instant::now() >= cfg.until && replies.len() >= 2 {
            break;
        }
        let traced = cfg.trace && doc % 2 == 1;
        tr.set_on(traced);
        tr.set_request(request_id(client, doc));
        let start = Instant::now();
        let (rows, trailer) = request(cfg.workload, cfg.addr, text, &mut tr)?;
        let ms = secs(start) * 1e3;
        replies.push(Reply::new(
            cfg.workload,
            client,
            doc,
            ms,
            rows,
            trailer,
            traced,
        ));
    }
    tr.set_on(false);
    Ok((replies, tr))
}

fn request_id(client: usize, doc: usize) -> u64 {
    (client as u64) << 32 | doc as u64
}

pub fn log_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs a serve workload.
pub fn run(
    workload: Workload,
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let clients = if workload == Workload::Figures {
        1
    } else {
        SERVE_CLIENTS
    };
    let docs: Vec<Vec<String>> = (0..clients)
        .map(|c| gen::read_client(&ctx.data, c).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let store_dir = ctx.data.join("store");

    // Exact counts, traced only: the server-side work of client 0's
    // first requests, in this process before any other thread exists.
    // These requests are not sent again.
    let mut count_deltas = Vec::new();
    if ctx.trace {
        let store = Store::open(&store_dir).map_err(|e| format!("open store: {e}"))?;
        for text in docs[0].iter().take(COUNT_REQUESTS) {
            let before = Usage::now();
            let points = server_work(workload, text, &store)?;
            count_deltas.push((Usage::now(), before, points as f64));
        }
    }
    let from = count_deltas.len();

    // Set-up, several times; the last server stays up.
    let mut setup_s = Vec::new();
    let mut open_s = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let (running, open, total) = Running::start(&store_dir)?;
        setup_s.push(total);
        open_s.push(open);
        if i + 1 < SETUPS {
            running.stop()?;
        } else {
            server = Some(running);
        }
    }
    let server = server.expect("at least one set-up");
    let mut samples = Samples::new();
    let records = server.store.len();
    let bytes = log_bytes(&store_dir);

    // The measured closed loop.
    let cfg = LoopCfg {
        workload,
        addr: &server.addr,
        until: Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds),
        trace: ctx.trace,
    };
    let results: Vec<Result<(Vec<Reply>, Tracer), String>> = thread::scope(|scope| {
        let handles: Vec<_> = docs
            .iter()
            .enumerate()
            .map(|(c, client_docs)| {
                let (cfg, child) = (&cfg, tr.child());
                let from = if c == 0 { from } else { 0 };
                scope.spawn(move || client_loop(cfg, c, client_docs, from, child))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut replies = Vec::new();
    for r in results {
        let (mut rs, child) = r?;
        tr.absorb(child);
        replies.append(&mut rs);
    }
    let plain_ms: Vec<f64> = replies
        .iter()
        .filter(|r| !ctx.trace || r.doc % 2 == 0)
        .map(|r| r.ms)
        .collect();
    let traced_ms: Vec<f64> = replies
        .iter()
        .filter(|r| ctx.trace && r.doc % 2 == 1)
        .map(|r| r.ms)
        .collect();

    // Traced: replay each traced request's server-side layer calls.
    if ctx.trace {
        for reply in replies.iter().filter(|r| r.doc % 2 == 1) {
            tr.set_on(true);
            tr.set_request(request_id(reply.client, reply.doc));
            replay(
                workload,
                &docs[reply.client][reply.doc],
                reply,
                &server.store,
                &ctx.data,
                tr,
                &mut samples,
            )?;
            tr.set_on(false);
        }
    }
    server.stop()?;

    // Correctness, outside the timed loop.
    check(workload, ctx, &docs, &replies, out)?;

    let m = &mut out.metrics;
    if ctx.trace {
        publish(&samples, m);
        // A count must not depend on how many requests the window held:
        // waves of the first point of client 0's first traced request.
        if let Some(waves) = samples.get("sim.waves") {
            m.insert("sim.waves", waves[0]);
        }
        for (span, metric) in [
            ("server.submit", "server.submit_ms"),
            ("server.results", "server.results_ms"),
            ("server.report", "server.report_ms"),
        ] {
            let ms = tr.durations_ms(span);
            if !ms.is_empty() {
                m.insert(metric, median(&ms));
            }
        }
        m.insert("store.open_s", median(&open_s));
        m.insert("store.records", records as f64);
        m.insert("store.log_mb", bytes as f64 / (1 << 20) as f64);
        m.insert(
            "store.bytes_per_record",
            bytes as f64 / records.max(1) as f64,
        );
        let n = count_deltas.len() as f64;
        let per_point = |f: &dyn Fn(&Usage, &Usage) -> f64| {
            count_deltas
                .iter()
                .map(|(a, b, p)| f(a, b) / p)
                .sum::<f64>()
                / n
        };
        m.insert(
            "proc.minflt_per_point",
            per_point(&|a, b| (a.minflt - b.minflt) as f64),
        );
        m.insert(
            "proc.sys_ms_per_point",
            per_point(&|a, b| (a.sys_s - b.sys_s) * 1e3),
        );
        m.insert(
            "proc.cpu_ms_per_point",
            per_point(&|a, b| (a.user_s + a.sys_s - b.user_s - b.sys_s) * 1e3),
        );
        tr.account(&plain_ms, &traced_ms, m);
        if let Some(wait) = m.get("server.wait_ms") {
            eprintln!("  of which queue wait + wire (replayed) {wait:.4} ms");
        }
    } else {
        let points: Vec<f64> = replies
            .iter()
            .map(|r| {
                let n = ScenarioFile::parse(&docs[r.client][r.doc])
                    .map(|f| f.points().len())
                    .unwrap_or(1);
                r.ms / n.max(1) as f64
            })
            .collect();
        m.insert("setup_s", median(&setup_s));
        m.insert("point_ms", median(&points));
        m.insert("request_p50_ms", median(&plain_ms));
        m.insert("request_p90_ms", quantile(&plain_ms, 0.9));
        eprintln!("{} requests measured", plain_ms.len());
    }
    Ok(())
}

/// What the server does for one request, in this thread: parse the
/// document and run it through the store (`submit` + `results`), or
/// render its map (`report`). Returns the number of points.
fn server_work(workload: Workload, doc: &str, store: &Store) -> Result<usize, String> {
    let file = ScenarioFile::parse(doc).map_err(|e| e.to_string())?;
    let options = BatchOptions {
        jobs: Some(1),
        store: Some(store),
    };
    if workload == Workload::Figures {
        let spec = ReportSpec {
            figure: FigureKind::Map,
            ..ReportSpec::default()
        };
        report::render_scenario(&file, &spec, &options).map_err(|e| e.to_string())?;
        return Ok(1);
    }
    let report = run_file_with(&file, &options).map_err(|e| e.to_string())?;
    std::hint::black_box(report.jsonl());
    Ok(report.results.len())
}

/// Replays one traced request's server-side work from this process,
/// one span per layer call, and records per-op samples.
fn replay(
    workload: Workload,
    doc: &str,
    reply: &Reply,
    store: &Store,
    data: &Path,
    tr: &mut Tracer,
    s: &mut Samples,
) -> Result<(), String> {
    let (file, ms) = timed(tr, "core.scn_parse", || {
        ScenarioFile::parse(doc).map(|f| {
            let p = f.points();
            (f, p)
        })
    });
    let (file, points) = file.map_err(|e| e.to_string())?;
    sample(s, "core.scn_parse_ms", ms);
    let n = points.len() as f64;

    // The run the server did, as the batch runner does it.
    let (batch_file, spec) = if workload == Workload::Figures {
        let mut single = file.single_point(0).ok_or("no point")?;
        let (w, h) = (single.base().width, single.base().height);
        single.probes = (0..h).flat_map(|y| (0..w).map(move |x| (x, y))).collect();
        (
            single,
            ReportSpec {
                figure: FigureKind::Map,
                ..ReportSpec::default()
            },
        )
    } else {
        (file.clone(), ReportSpec::default())
    };
    let batch_points = batch_file.points();
    let (keys, ms) = timed(tr, "core.point_key", || {
        batch_points
            .iter()
            .map(|p| cache::point_key(batch_file.engine, p, &batch_file.probes))
            .collect::<Vec<_>>()
    });
    sample(s, "core.point_key_us", ms * 1e3 / n);
    let (values, ms) = timed(tr, "store.get", || {
        keys.iter().map(|&k| store.get(k)).collect::<Vec<_>>()
    });
    sample(s, "store.get_us", ms * 1e3 / n);
    let values: Vec<Vec<u8>> = values
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("a served point is not in the store")?;
    let (_, ms) = timed(tr, "core.decode_result", || {
        values
            .iter()
            .map(|v| cache::decode_result(v).is_some())
            .filter(|ok| *ok)
            .count()
    });
    sample(s, "core.decode_result_us", ms * 1e3 / n);
    let opts = BatchOptions {
        jobs: Some(1),
        store: Some(store),
    };
    let (report, batch_ms) = timed(tr, "core.batch", || run_file_with(&batch_file, &opts));
    let report = report.map_err(|e| e.to_string())?;
    sample(s, "core.batch_ms", batch_ms);
    let (rows, jsonl_ms) = timed(tr, "core.jsonl", || report.jsonl());
    sample(s, "core.jsonl_us_per_row", jsonl_ms * 1e3 / n);

    let reply_line = reply.first.clone();
    match workload {
        Workload::Figures => {
            let decor = MapDecor::from_file(&file, 0);
            let row = rows.trim_end().to_string();
            let (_, row_ms) = timed(tr, "core.json_parse", || Json::parse(&row).is_ok());
            // The figure reply line as the client receives it.
            let line = bftbcast::json::Object::new()
                .bool("ok", true)
                .str("name", "map")
                .str("svg", &reply_line)
                .render();
            let (_, line_ms) = timed(tr, "core.json_parse", || Json::parse(&line).is_ok());
            sample(s, "core.json_parse_ms", row_ms + line_ms);
            let (figure, ms) = timed(tr, "core.report_render", || {
                report::render_jsonl(&rows, &spec, Some(&decor))
            });
            figure.map_err(|e| e.to_string())?;
            sample(s, "core.report_render_ms", ms);
            let render_ms = ms;
            let (_, ms) = timed(tr, "viz.map_svg", || map_svg(&report, &decor));
            sample(s, "viz.map_svg_ms", ms);
            // The cold run the server performed, then rows, render and
            // the client's parse of the reply line.
            let compute_ms = engine_run(&batch_file, tr, s)?;
            let busy_ms = compute_ms + jsonl_ms + render_ms + line_ms;
            sample(
                s,
                "server.wait_ms",
                client_span_ms(tr, reply, "server.report") - busy_ms,
            );
        }
        _ => {
            let (_, ms) = timed(tr, "core.json_parse", || Json::parse(&reply_line).is_ok());
            sample(s, "core.json_parse_ms", ms);
            // Warm: the all-hit batch is the server's work. Ingest: the
            // compute, encode and append of every missed point is.
            let mut busy_ms = batch_ms + jsonl_ms;
            if workload == Workload::ServeIngest {
                // The cold path the server took for every point.
                let (encoded, ms) = timed(tr, "core.encode_result", || {
                    report
                        .results
                        .iter()
                        .map(cache::encode_result)
                        .collect::<Vec<_>>()
                });
                sample(s, "core.encode_result_us", ms * 1e3 / n);
                let encode_ms = ms;
                let replica = Store::open(data.join("replica-store")).map_err(|e| e.to_string())?;
                let (put, ms) = timed(tr, "store.put", || {
                    keys.iter()
                        .zip(&encoded)
                        .try_for_each(|(k, v)| replica.put(*k, v).map(drop))
                });
                put.map_err(|e| e.to_string())?;
                sample(s, "store.put_us", ms * 1e3 / n);
                let put_ms = ms;
                let (sync, ms) = timed(tr, "store.sync", || replica.sync());
                sync.map_err(|e| e.to_string())?;
                sample(s, "store.sync_ms", ms);
                let compute_ms = engine_run(&batch_file, tr, s)?;
                busy_ms = compute_ms + encode_ms + put_ms + jsonl_ms;
            }
            sample(
                s,
                "server.wait_ms",
                client_span_ms(tr, reply, "server.results") - busy_ms,
            );
        }
    }
    Ok(())
}

/// Duration in milliseconds of the client span `name` of `reply`'s
/// request.
fn client_span_ms(tr: &Tracer, reply: &Reply, name: &str) -> f64 {
    let id = request_id(reply.client, reply.doc);
    tr.spans()
        .iter()
        .filter(|sp| sp.req == id && sp.name == name)
        .map(|sp| (sp.end_ns - sp.start_ns) as f64 * 1e-6)
        .next_back()
        .unwrap_or(reply.ms)
}

/// Builds and runs every point of `file` on the engine, one span per
/// call: the compute a cache miss costs. Returns the total milliseconds
/// of build, prepare and step.
pub fn engine_run(file: &ScenarioFile, tr: &mut Tracer, s: &mut Samples) -> Result<f64, String> {
    let mut total_ms = 0.0;
    for point in file.points() {
        let start = Instant::now();
        let (engine, build_ms) = timed(tr, "sim.build", || build_engine(file.engine, &point));
        let mut engine = engine.map_err(|e| e.to_string())?;
        let (_, prepare_ms) = timed(tr, "sim.prepare", || engine.prepare());
        let (waves, step_ms) = timed(tr, "sim.step", || {
            let mut waves = 0u64;
            while engine.step() {
                waves += 1;
            }
            waves
        });
        let total_us = secs(start) * 1e6;
        sample(s, "sim.build_ms", build_ms);
        sample(s, "sim.prepare_ms", prepare_ms);
        sample(s, "sim.step_ms", step_ms);
        sample(
            s,
            "sim.step_us_per_wave",
            step_ms * 1e3 / waves.max(1) as f64,
        );
        sample(s, "sim.waves", waves as f64);
        if file.engine == EngineKind::Agreement {
            sample(s, "sim.agreement_point_us", total_us);
        }
        total_ms += total_us / 1e3;
        let grid = Grid::new(point.width, point.height, point.r).map_err(|e| e.to_string())?;
        let (topology, ms) = timed(tr, "net.topology", || Topology::new(grid));
        std::hint::black_box(topology);
        sample(s, "net.topology_ms", ms);
    }
    Ok(total_ms)
}

/// The heat map the report layer draws for a map row, drawn directly
/// with the viz layer.
fn map_svg(report: &BatchReport, decor: &MapDecor) -> String {
    let mut map = GridMap::with_dims(decor.width, decor.height, 10);
    let result = &report.results[0];
    let max = result
        .probes
        .iter()
        .map(|p| p.probe.intake())
        .max()
        .unwrap_or(0)
        .max(1);
    for p in &result.probes {
        let id = p.y as usize * decor.width as usize + p.x as usize;
        map.set(id, CellStyle::heat(p.probe.intake() as f64 / max as f64));
    }
    for &(x, y) in &decor.bad {
        map.set(
            y as usize * decor.width as usize + x as usize,
            CellStyle::bad(),
        );
    }
    map.render_with_caption(&report.name, &[])
}

/// Checks every reply against a local run of the same document.
fn check(
    workload: Workload,
    ctx: &Ctx,
    docs: &[Vec<String>],
    replies: &[Reply],
    out: &mut Outcome,
) -> Result<(), String> {
    let local = BatchOptions {
        jobs: Some(1),
        store: None,
    };
    let counts = |trailer: &str| -> Option<(u64, u64)> {
        let doc = Json::parse(trailer).ok()?;
        Some((
            doc.get("cache_hits")?.as_u64()?,
            doc.get("cache_misses")?.as_u64()?,
        ))
    };
    match workload {
        Workload::ServeWarm => {
            // Rows of the whole stored grid, computed locally once.
            let reference = std::fs::read_to_string(ctx.data.join("reference.scn"))
                .map_err(|e| e.to_string())?;
            let reference = run_file_with(
                &ScenarioFile::parse(&reference).map_err(|e| e.to_string())?,
                &local,
            )
            .map_err(|e| e.to_string())?;
            let text = reference.jsonl();
            let lines: Vec<&str> = text.lines().collect();
            let by_label: BTreeMap<&Vec<(String, String)>, &str> = reference
                .results
                .iter()
                .map(|r| &r.point)
                .zip(lines.iter().copied())
                .collect();
            for (i, r) in replies.iter().enumerate() {
                let file =
                    ScenarioFile::parse(&docs[r.client][r.doc]).map_err(|e| e.to_string())?;
                let points = file.points();
                let expected: Vec<Option<&str>> = points
                    .iter()
                    .map(|p| by_label.get(&p.label).copied())
                    .collect();
                let expected: Option<Vec<&str>> = expected.into_iter().collect();
                let mut ok = expected
                    .is_some_and(|rows| rows.len() == r.rows && digest_lines(rows) == r.digest)
                    && counts(&r.trailer) == Some((points.len() as u64, 0));
                if i == 0 {
                    // The window rows equal a local run of that very sweep.
                    let own = run_file_with(&file, &local)
                        .map_err(|e| e.to_string())?
                        .jsonl();
                    ok &= digest_lines(own.lines()) == r.digest;
                }
                out.check(ok, || {
                    format!("serve-warm request {} of client {}", r.doc, r.client)
                });
            }
        }
        Workload::ServeIngest => {
            for r in replies {
                let file =
                    ScenarioFile::parse(&docs[r.client][r.doc]).map_err(|e| e.to_string())?;
                let own = run_file_with(&file, &local).map_err(|e| e.to_string())?;
                let ok = digest_lines(own.jsonl().lines()) == r.digest
                    && r.rows == own.results.len()
                    && counts(&r.trailer) == Some((0, own.results.len() as u64));
                out.check(ok, || {
                    format!("serve-ingest request {} of client {}", r.doc, r.client)
                });
            }
        }
        _ => {
            for r in replies {
                let file =
                    ScenarioFile::parse(&docs[r.client][r.doc]).map_err(|e| e.to_string())?;
                let spec = ReportSpec {
                    figure: FigureKind::Map,
                    ..ReportSpec::default()
                };
                let own =
                    report::render_scenario(&file, &spec, &local).map_err(|e| e.to_string())?;
                let ok = r.rows == 1
                    && own.figures.len() == 1
                    && report::figure_hash(&own.figures[0].svg) == r.digest
                    && counts(&r.trailer) == Some((0, 1));
                out.check(ok, || format!("figure request {}", r.doc));
            }
        }
    }
    Ok(())
}
