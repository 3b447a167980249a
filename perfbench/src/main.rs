//! End-to-end and per-layer benchmark of the bftbcast pipeline.
//!
//! ```text
//! bftbcast-perfbench gen --workload W --seed N --data DIR
//! bftbcast-perfbench run --workload W --seed N --seconds S --trace 0|1 --data DIR [--trace-out FILE]
//! ```
//!
//! `gen` writes the workload's inputs for a seed; `run` measures them
//! for `S` seconds and prints one JSON result line. `perfbench/run.py`
//! builds this binary and runs both steps in separate processes, so a
//! workload's peak RSS is its own. See `perfbench/README.md`.

mod gen;
mod points;
mod probe;
mod serve;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold 1024² counting-engine points.
    Scale,
    /// Cold Bracha/CTRBC points across schedules and behaviors.
    RbcSweep,
    /// All-hit sub-grid sweeps against a served, pre-filled store.
    ServeWarm,
    /// All-miss sweeps against the same server and store shape.
    ServeIngest,
    /// Figure-2 map reports over the server.
    Figures,
}

impl Workload {
    fn from_name(name: &str) -> Option<Workload> {
        Some(match name {
            "scale" => Workload::Scale,
            "rbc-sweep" => Workload::RbcSweep,
            "serve-warm" => Workload::ServeWarm,
            "serve-ingest" => Workload::ServeIngest,
            "figures" => Workload::Figures,
            _ => return None,
        })
    }
}

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("point_ms", "ms"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.topology_ms", "ms"),
    ("sim.build_ms", "ms"),
    ("sim.prepare_ms", "ms"),
    ("sim.step_ms", "ms"),
    ("sim.step_us_per_wave", "us"),
    ("sim.waves", "count"),
    ("sim.agreement_point_us", "us"),
    ("proc.minflt_per_point", "count"),
    ("proc.sys_ms_per_point", "ms"),
    ("proc.cpu_ms_per_point", "ms"),
    ("rbc.build_ms", "ms"),
    ("rbc.step_ms", "ms"),
    ("rbc.messages", "count"),
    ("rbc.wire_bits", "count"),
    ("rbc.waves", "count"),
    ("rbc.bracha.ns_per_msg", "ns"),
    ("rbc.ctrbc.ns_per_msg", "ns"),
    ("core.scn_parse_ms", "ms"),
    ("core.point_key_us", "us"),
    ("core.decode_result_us", "us"),
    ("core.encode_result_us", "us"),
    ("core.batch_ms", "ms"),
    ("core.jsonl_us_per_row", "us"),
    ("core.json_parse_ms", "ms"),
    ("core.report_render_ms", "ms"),
    ("viz.map_svg_ms", "ms"),
    ("store.open_s", "s"),
    ("store.records", "count"),
    ("store.log_mb", "MB"),
    ("store.bytes_per_record", "count"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.sync_ms", "ms"),
    ("server.submit_ms", "ms"),
    ("server.results_ms", "ms"),
    ("server.report_ms", "ms"),
    ("server.wait_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_pct", "%"),
];

/// Metric name → value, filled by a workload.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one measured run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (points, requests or reports).
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
}

impl Outcome {
    /// Records one checked operation; prints the reason when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Settings of one measured run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Directory holding the generated inputs.
    pub data: PathBuf,
}

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<(Workload, u64, PathBuf), String> {
    let workload = arg(args, "--workload").ok_or("missing --workload")?;
    let workload =
        Workload::from_name(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = arg(args, "--seed")
        .ok_or("missing --seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let data = PathBuf::from(arg(args, "--data").ok_or("missing --data")?);
    Ok((workload, seed, data))
}

fn render(outcome: &Outcome, names: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    ))
}

fn run(args: &[String]) -> Result<String, String> {
    let (workload, seed, data) = parse_args(args)?;
    let seconds = arg(args, "--seconds")
        .ok_or("missing --seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match arg(args, "--trace").ok_or("missing --trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        data,
    };
    let mut tracer = trace::Tracer::new(false);
    let mut outcome = Outcome::default();
    match workload {
        Workload::Scale | Workload::RbcSweep => {
            points::run(workload, &ctx, &mut tracer, &mut outcome)?
        }
        Workload::ServeWarm | Workload::ServeIngest | Workload::Figures => {
            serve::run(workload, &ctx, &mut tracer, &mut outcome)?;
        }
    }
    if trace {
        // Layers this workload left idle are measured on small fixed
        // inputs instead.
        let mut idle = Metrics::new();
        probe::run(&ctx, &mut idle)?;
        for (name, value) in idle {
            outcome.metrics.entry(name).or_insert(value);
        }
    }
    outcome
        .metrics
        .insert("peak_rss_mb", sys::Usage::now().peak_rss_mb);
    if let Some(path) = arg(args, "--trace-out") {
        tracer
            .write_jsonl(std::path::Path::new(path))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    render(&outcome, if trace { PER_LAYER } else { END_TO_END })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => parse_args(&args)
            .and_then(|(w, seed, data)| gen::generate(w, seed, &data))
            .map(|()| None),
        Some("digest") => parse_args(&args)
            .and_then(|(_, _, data)| gen::digest(&data).map_err(|e| e.to_string()))
            .map(Some),
        Some("run") => run(&args).map(Some),
        _ => Err(
            "usage: bftbcast-perfbench gen|digest|run --workload W --seed N --data DIR [...]"
                .to_string(),
        ),
    };
    match result {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
