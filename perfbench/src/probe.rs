//! The per-layer ledger's baseline: every layer's public calls on
//! small fixed inputs from the seed.
//!
//! A traced run reports every per-layer metric, but each workload
//! leaves some layers idle (`scale` never touches the store, `serve-warm`
//! never runs an engine). Those layers report the values measured here,
//! after the workload: a few fresh agreement points through a server
//! over an empty store, one Bracha and one CTRBC point, and a 15x15 map
//! report. Every metric the workload's own operations measured wins.

use std::fs;
use std::time::Instant;

use bftbcast::batch::{build_engine, run_file_with, BatchOptions};
use bftbcast::cache;
use bftbcast::json::Json;
use bftbcast::report::{self, FigureKind, MapDecor, ReportSpec};
use bftbcast::scenario_file::ScenarioFile;
use bftbcast::sim::engine::EngineOutcome;
use bftbcast::viz::map::{CellStyle, GridMap};
use bftbcast_server::client;
use bftbcast_store::Store;

use crate::gen;
use crate::serve::{engine_run, log_bytes, map_params, publish, sample, timed, Running, Samples};
use crate::sys::{secs, Rng};
use crate::trace::Tracer;
use crate::{Ctx, Metrics};

const MAP_DOC: &str = "name = \"probe-map\"\n\
    [topology]\nside = 15\nr = 1\n\
    [faults]\nt = 1\nmf = 4\n\
    [placement]\nkind = \"lattice\"\n\
    [protocol]\nkind = \"starved\"\nm = 4\n";

/// Measures every layer once on small inputs into `m`.
///
/// # Errors
///
/// Any failure of the program on these inputs.
pub fn run(ctx: &Ctx, m: &mut Metrics) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let dir = ctx.data.join("probe");
    if dir.exists() {
        fs::remove_dir_all(&dir).map_err(|e| err(&e))?;
    }
    // Spans of the probe stay out of the workload's trace.
    let mut tr = Tracer::new(false);
    let mut s = Samples::new();
    let mut rng = Rng::new(ctx.seed, 0x70be);

    // Fresh agreement points (p1 off the stored 0.01 grid).
    let k = rng.below(1_000_000);
    let p1: Vec<String> = (0..8)
        .map(|i| format!("{}", (2 * (k * 8 + i) + 1) as f64 / 2e7))
        .collect();
    let pe: Vec<String> = (0..8).map(|j| gen::grid_value(j * 12)).collect();
    let doc = gen::agreement_doc("probe", &p1, &pe);

    // Server round trips over an empty file store.
    let store_dir = dir.join("store");
    let (server, _, _) = Running::start(&store_dir)?;
    let (job, submit_ms) = timed(&mut tr, "server.submit", || {
        client::submit(&server.addr, &doc)
    });
    let job = job.map_err(|e| err(&e))?;
    let (reply, results_ms) = timed(&mut tr, "server.results", || {
        client::results(&server.addr, &job)
    });
    let (rows, _) = reply.map_err(|e| err(&e))?;
    let (figure, report_ms) = timed(&mut tr, "server.report", || {
        client::report(&server.addr, MAP_DOC, &map_params())
    });
    figure.map_err(|e| err(&e))?;
    server.stop()?;
    sample(&mut s, "server.submit_ms", submit_ms);
    sample(&mut s, "server.results_ms", results_ms);
    sample(&mut s, "server.report_ms", report_ms);

    // The store the server wrote, reopened.
    let start = Instant::now();
    let store = Store::open(&store_dir).map_err(|e| err(&e))?;
    sample(&mut s, "store.open_s", secs(start));
    let records = store.len();
    let bytes = log_bytes(&store_dir);

    // Core and store calls on the agreement document.
    let (file, ms) = timed(&mut tr, "core.scn_parse", || {
        ScenarioFile::parse(&doc).map(|f| {
            let p = f.points();
            (f, p)
        })
    });
    let (file, points) = file.map_err(|e| err(&e))?;
    sample(&mut s, "core.scn_parse_ms", ms);
    let n = points.len() as f64;
    let (keys, ms) = timed(&mut tr, "core.point_key", || {
        points
            .iter()
            .map(|p| cache::point_key(file.engine, p, &file.probes))
            .collect::<Vec<_>>()
    });
    sample(&mut s, "core.point_key_us", ms * 1e3 / n);
    let (values, ms) = timed(&mut tr, "store.get", || {
        keys.iter()
            .filter_map(|&k| store.get(k))
            .collect::<Vec<_>>()
    });
    sample(&mut s, "store.get_us", ms * 1e3 / n);
    let (decoded, ms) = timed(&mut tr, "core.decode_result", || {
        values
            .iter()
            .filter_map(|v| cache::decode_result(v))
            .collect::<Vec<_>>()
    });
    sample(&mut s, "core.decode_result_us", ms * 1e3 / n);
    let (encoded, ms) = timed(&mut tr, "core.encode_result", || {
        decoded.iter().map(cache::encode_result).collect::<Vec<_>>()
    });
    sample(&mut s, "core.encode_result_us", ms * 1e3 / n);
    let replica = Store::open(dir.join("replica")).map_err(|e| err(&e))?;
    let (put, ms) = timed(&mut tr, "store.put", || {
        keys.iter()
            .zip(&encoded)
            .try_for_each(|(k, v)| replica.put(*k, v).map(drop))
    });
    put.map_err(|e| err(&e))?;
    sample(&mut s, "store.put_us", ms * 1e3 / n);
    let (sync, ms) = timed(&mut tr, "store.sync", || replica.sync());
    sync.map_err(|e| err(&e))?;
    sample(&mut s, "store.sync_ms", ms);
    let opts = BatchOptions {
        jobs: Some(1),
        store: Some(&store),
    };
    let (report, batch_ms) = timed(&mut tr, "core.batch", || run_file_with(&file, &opts));
    let report = report.map_err(|e| err(&e))?;
    sample(&mut s, "core.batch_ms", batch_ms);
    let (text, jsonl_ms) = timed(&mut tr, "core.jsonl", || report.jsonl());
    sample(&mut s, "core.jsonl_us_per_row", jsonl_ms * 1e3 / n);
    sample(&mut s, "server.wait_ms", results_ms - batch_ms - jsonl_ms);
    let row = rows.first().cloned().unwrap_or(text);
    let (_, ms) = timed(&mut tr, "core.json_parse", || {
        Json::parse(row.trim_end()).is_ok()
    });
    sample(&mut s, "core.json_parse_ms", ms);
    engine_run(&file, &mut tr, &mut s)?;

    // Report and viz on the small map.
    let map_file = ScenarioFile::parse(MAP_DOC).map_err(|e| err(&e))?;
    let spec = ReportSpec {
        figure: FigureKind::Map,
        ..ReportSpec::default()
    };
    let mut single = map_file.single_point(0).ok_or("no map point")?;
    single.probes = (0..15).flat_map(|y| (0..15).map(move |x| (x, y))).collect();
    let map_report = run_file_with(
        &single,
        &BatchOptions {
            jobs: Some(1),
            store: None,
        },
    )
    .map_err(|e| err(&e))?;
    let map_rows = map_report.jsonl();
    let decor = MapDecor::from_file(&map_file, 0);
    let (figure, ms) = timed(&mut tr, "core.report_render", || {
        report::render_jsonl(&map_rows, &spec, Some(&decor))
    });
    figure.map_err(|e| err(&e))?;
    sample(&mut s, "core.report_render_ms", ms);
    let (_, ms) = timed(&mut tr, "viz.map_svg", || {
        let mut map = GridMap::with_dims(15, 15, 10);
        for p in &map_report.results[0].probes {
            map.set(p.node, CellStyle::heat(p.probe.intake() as f64 / 100.0));
        }
        map.render_with_caption("probe", &[])
    });
    sample(&mut s, "viz.map_svg_ms", ms);

    // One Bracha and one CTRBC point.
    let bad = [(3, 3), (10, 11)];
    let seed = rng.next_u64() >> 1;
    let mut rbc_first = None;
    for protocol in gen::RBC_PROTOCOLS {
        let f = ScenarioFile::parse(&gen::rbc_doc(bad, seed, protocol, "seeded", "mute"))
            .map_err(|e| err(&e))?;
        let point = f.points().into_iter().next().ok_or("no rbc point")?;
        let (engine, build_ms) = timed(&mut tr, "rbc.build", || build_engine(f.engine, &point));
        let mut engine = engine.map_err(|e| err(&e))?;
        let start = Instant::now();
        engine.prepare();
        while engine.step() {}
        let run_ns = start.elapsed().as_nanos() as f64;
        let EngineOutcome::Rbc(o) = engine.outcome() else {
            return Err("rbc point produced another outcome".to_string());
        };
        sample(&mut s, "rbc.build_ms", build_ms);
        sample(&mut s, "rbc.step_ms", run_ns * 1e-6);
        let name = if protocol == "bracha" {
            "rbc.bracha.ns_per_msg"
        } else {
            "rbc.ctrbc.ns_per_msg"
        };
        sample(&mut s, name, run_ns / o.messages.max(1) as f64);
        rbc_first.get_or_insert((o.messages, o.wire_bits, o.waves));
    }

    publish(&s, m);
    let (messages, wire_bits, waves) = rbc_first.expect("two rbc points ran");
    m.insert("rbc.messages", messages as f64);
    m.insert("rbc.wire_bits", wire_bits as f64);
    m.insert("rbc.waves", waves as f64);
    m.insert("store.records", records as f64);
    m.insert("store.log_mb", bytes as f64 / (1 << 20) as f64);
    m.insert(
        "store.bytes_per_record",
        bytes as f64 / records.max(1) as f64,
    );
    fs::remove_dir_all(&dir).map_err(|e| err(&e))
}
