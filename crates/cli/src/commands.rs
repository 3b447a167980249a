//! The CLI subcommands. Each returns the text to print, so everything
//! is unit-testable without spawning processes.

use std::fmt::Write as _;

use bftbcast::prelude::*;
use bftbcast::protocols::agreement::{proven_max_t, proven_member_cost};
use bftbcast::protocols::bounds;
use bftbcast::sim::render;

use crate::args::{Args, ArgsError};

/// A user-facing command error.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/validation failed.
    Args(ArgsError),
    /// A scenario could not be built.
    Scenario(ScenarioError),
    /// Free-form validation error.
    Other(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Scenario(e) => write!(f, "{e}"),
            CliError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgsError> for CliError {
    fn from(e: ArgsError) -> Self {
        CliError::Args(e)
    }
}

impl From<ScenarioError> for CliError {
    fn from(e: ScenarioError) -> Self {
        CliError::Scenario(e)
    }
}

impl From<bftbcast::net::NetError> for CliError {
    fn from(e: bftbcast::net::NetError) -> Self {
        CliError::Scenario(ScenarioError::Net(e))
    }
}

/// The top-level usage text ([`usage`] fills in the sweep axes).
const USAGE: &str = "\
bftbcast — message-efficient Byzantine fault-tolerant broadcast (ICDCS 2010)

USAGE:
  bftbcast <command> [--flag value ...]

COMMANDS:
  bounds     --r R --t T --mf MF [--n N --k K]
             print every closed-form bound of the paper for one parameter set
  run        [--side S --r R --t T --mf MF --protocol b|koo|heter|starved
              --m M --placement lattice|stripes|random|bernoulli|none
              --p RATE --count N --seed SEED --adversary oracle|greedy|chaos|passive]
             run one broadcast and report the outcome
  run        --scenario FILE [--format jsonl|table --jobs N --store DIR
              --set key=value ...]
             run a declarative scenario file (*.scn): expand its sweep
             axes, fan the points over worker threads (at most N with
             --jobs), and stream one JSON line (or table row) per point;
             with --store, consult/record the content-addressed outcome
             store so repeated points cost a lookup instead of a run;
             each --set pins one field by sweep-axis name before the
             sweep expands, dropping any [sweep] axis over the same
             key; the axes are {axes};
             see docs/ARCHITECTURE.md for the grammar and EXPERIMENTS.md
             for the output schema
  spec       FILE [--to scn|json|key]: convert engine specs between the
             *.scn grammar and canonical JSON (default: the opposite of
             the input form, detected by content); --to json prints one
             canonical JSON spec per expanded sweep point, --to scn
             requires a single-point document, --to key prints each
             point's 16-hex content-addressed cache key
  validate   FILE...: parse and validate scenario files (*.scn) and
             spec JSON documents; prints one line per file and fails if
             any file is invalid
  serve      [--addr HOST:PORT --store DIR --jobs N --queue N
              --io-timeout SECS]
             run the persistent sweep service (default 127.0.0.1:7171):
             queue submitted scenarios, fan each over the batch pool,
             and cache every point in the outcome store (in-memory
             without --store); prints \"listening on ADDR\" once ready;
             --queue bounds queued jobs (default 64; a full queue sends
             an explicit retryable reply), --io-timeout deadlines every
             connection read and write (default 60)
  submit     FILE [--addr HOST:PORT --retries N --retry-ms MS]: queue a
             *.scn file — or a spec JSON document, detected by content —
             on a running server; prints the reply with the assigned
             job id; both forms share store entries for identical
             configurations; transient failures (connection refused or
             dropped, queue backpressure) retry up to N attempts
             (default 3, 1 = never) with exponential backoff from MS
             milliseconds (default 50) — safe to retry because the
             store is write-once, so a duplicate submit replays warm
  status     JOB [--addr HOST:PORT]: one job's state and cache counters
  results    JOB [--addr HOST:PORT --retries N --retry-ms MS]: a job's
             JSONL rows (waits for the job to finish); identical to
             run --scenario output; a reply dropped mid-stream refetches
             whole (bit-identical, never partial)
  stats      [--addr HOST:PORT --verbose]: server store/queue
             statistics; --verbose adds the on-disk log breakdown
             (bytes, records, quarantined spans, recovery state)
  shutdown   [--addr HOST:PORT]: stop the server (drains queued jobs,
             fsyncs the store)
  federate   FILE [--addr HOST:PORT ... --retries N --retry-ms MS]
             shard a scenario's sweep points across several running
             servers — repeat --addr once per backend; points go to
             backends by rendezvous hash of their store key, so reruns
             against the same backends replay warm from the shard
             stores; rows stream to stderr as they arrive (tagged with
             their origin backend) and print to stdout in sweep order,
             bit-identical to run --scenario; a backend that dies
             mid-run fails over its unfinished points to the survivors
  store      fsck|repair|compact [--store DIR]
             offline log maintenance (default DIR .bftbcast-store):
             fsck verifies every record checksum and exits non-zero if
             the log needs repair; repair atomically rewrites the log
             from its verifiable records (shedding corrupt spans and
             torn tails, migrating v1 logs); compact rewrites even a
             clean log (also dropping duplicate records)
  store      merge SRC [--store DST] | sync A B
             consolidate stores (e.g. federation shards): merge imports
             every verified record of SRC into DST (default DST
             .bftbcast-store; write-once, so duplicates and corrupt
             spans are skipped); sync reconciles A and B both ways
             until they hold the same records
  report     --scenario FILE [--out DIR --store DIR --jobs N
              --figure auto|map|chart --field NAME --x AXIS --log-x
              --point N --cell N --addr HOST:PORT]
             render a scenario as a paper-style SVG figure into --out
             (default .): a sweep becomes a line chart of --field
             (default coverage) vs --x (--log-x plots x on a log10
             scale for sweeps spanning decades), a single point a
             per-node heat map (probes expanded to every cell; --field
             intake|tally_true|tally_wrong|decided_neighbors); --store
             cache-replays computed points, --addr renders remotely on
             a running server via the report request
  report     --from-jsonl FILE [--scenario FILE --out DIR ...]
             render previously captured JSONL rows (run --scenario or
             results output) without resimulating; --scenario supplies
             torus styling (source/Byzantine cells, probe callouts)
             for maps
  map        run options plus [--svg FILE]: render the acceptance map
             (ASCII to stdout, or an SVG heat map to FILE)
  exp        [ids...]: regenerate paper experiments (default: all);
             see DESIGN.md section 6 for the index
  code       --k K [--n N --t T --mmax M]: AUED code lengths and
             sub-bit parameters for a k-bit message
  agreement  --r R --t T --mf MF [--mode cheap|proven --source correct|split|silent]
             run source-neighborhood agreement and report decisions

Every run is deterministic given --seed.";

/// The top-level usage text, naming every sweep axis `--set` takes.
pub fn usage() -> String {
    let names = bftbcast::scenario_file::axis_names();
    let lines: Vec<String> = names.chunks(8).map(|line| line.join(", ")).collect();
    USAGE.replace("{axes}", &lines.join(",\n             "))
}

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Any [`CliError`]; the binary prints it and exits non-zero.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    match args.command.as_deref() {
        None | Some("help") => Ok(usage()),
        Some("bounds") => cmd_bounds(args),
        Some("run") => cmd_run(args),
        Some("spec") => cmd_spec(args),
        Some("report") => cmd_report(args),
        Some("validate") => cmd_validate(args),
        Some("map") => cmd_map(args),
        Some("exp") => cmd_exp(args),
        Some("code") => cmd_code(args),
        Some("agreement") => cmd_agreement(args),
        Some("serve") => cmd_serve(args),
        Some("submit") => cmd_submit(args),
        Some("status") => cmd_job_line(args, "status"),
        Some("results") => cmd_results(args),
        Some("stats") => cmd_stats(args),
        Some("shutdown") => cmd_shutdown(args),
        Some("federate") => cmd_federate(args),
        Some("store") => cmd_store(args),
        Some(other) => Err(CliError::Other(format!(
            "unknown command {other:?}; run `bftbcast help`"
        ))),
    }
}

fn cmd_bounds(args: &Args) -> Result<String, CliError> {
    let r: u32 = args.int("r")?;
    let t: u32 = args.int("t")?;
    let mf: u64 = args.int("mf")?;
    let n: u64 = args.int_or("n", 10_000u64)?;
    let k: u64 = args.int_or("k", 128u64)?;
    if r == 0 {
        return Err(CliError::Other("--r must be positive".into()));
    }
    let max_t = bounds::r_2r1(r);
    if u64::from(t) >= max_t {
        return Err(CliError::Other(format!(
            "t = {t} is at or above the model bound r(2r+1) = {max_t}"
        )));
    }
    let p = Params::new(r, t, mf);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "parameters: r={r} t={t} mf={mf}   (neighborhood r(2r+1) = {max_t} per half)"
    );
    let _ = writeln!(out, "m0 (Theorem 1 lower bound)      : {}", p.m0());
    let _ = writeln!(
        out,
        "2*m0 (Theorem 2 sufficient)     : {}",
        p.sufficient_budget()
    );
    let _ = writeln!(out, "relay quota (protocol B)        : {}", p.relay_quota());
    let _ = writeln!(
        out,
        "source copies 2*t*mf+1          : {}",
        p.source_quota()
    );
    let _ = writeln!(
        out,
        "accept threshold t*mf+1         : {}",
        p.accept_threshold()
    );
    let _ = writeln!(out, "Koo PODC'06 baseline budget     : {}", p.koo_budget());
    let _ = writeln!(
        out,
        "baseline saving (claimed)       : {:.2}x",
        p.claimed_baseline_ratio()
    );
    let _ = writeln!(
        out,
        "Corollary 1: defeated above t > {}; tolerated at t <= {}",
        bounds::corollary1_min_defeating_t(r, p.sufficient_budget(), mf),
        bounds::corollary1_max_tolerable_t(r, p.sufficient_budget(), mf),
    );
    let _ = writeln!(
        out,
        "reactive max t (Thm 4 regime)   : {}",
        bounds::reactive_max_t(r)
    );
    let _ = writeln!(
        out,
        "Theorem 4 budget (n={n}, k={k})  : {}",
        bounds::theorem4_budget(n, k, u64::from(t), mf, mf.max(2)),
    );
    let _ = writeln!(
        out,
        "crash-stop threshold r(2r+1)    : {}",
        crash_threshold(r)
    );
    let cfg = AgreementConfig::paper_margins(p);
    let _ = writeln!(
        out,
        "agreement: echo quota {} / member cost {} (cheap), {} (proven, t<= {})",
        cfg.echo_quota,
        cfg.member_cost(),
        proven_member_cost(p),
        proven_max_t(r),
    );
    Ok(out)
}

/// Builds a scenario from run/map flags.
fn scenario_from(args: &Args) -> Result<Scenario, CliError> {
    let r: u32 = args.int_or("r", 2u32)?;
    let t: u32 = args.int_or("t", 1u32)?;
    let mf: u64 = args.int_or("mf", 10u64)?;
    let side: u32 = args.int_or("side", (2 * r + 1) * 4)?;
    let seed: u64 = args.int_or("seed", 0u64)?;
    let mut builder = Scenario::builder(side, side, r).faults(t, mf);
    match args.get("placement").unwrap_or("lattice") {
        "lattice" => builder = builder.lattice_placement(),
        "stripes" => {
            let y_lo = side / 3;
            let y_hi = 2 * side / 3 + r;
            builder = builder.stripe_placement(&[(y_lo, t, true), (y_hi, t, false)]);
        }
        "random" => {
            let count: usize = args.int_or("count", (side as usize * side as usize) / 20)?;
            builder = builder.random_placement(count, seed);
        }
        "bernoulli" => {
            let rate: f64 = args.int_or("p", 0.01f64)?;
            builder = builder.bernoulli_placement(rate, seed);
        }
        "none" => {}
        other => {
            return Err(CliError::Other(format!(
                "unknown placement {other:?} (lattice|stripes|random|bernoulli|none)"
            )))
        }
    }
    Ok(builder.build()?)
}

fn adversary_from(args: &Args) -> Result<Adversary, CliError> {
    let seed: u64 = args.int_or("seed", 0u64)?;
    match args.get("adversary").unwrap_or("oracle") {
        "oracle" => Ok(Adversary::PerReceiverOracle),
        "greedy" => Ok(Adversary::Greedy),
        "chaos" => Ok(Adversary::Chaos(seed)),
        "passive" => Ok(Adversary::Passive),
        other => Err(CliError::Other(format!(
            "unknown adversary {other:?} (oracle|greedy|chaos|passive)"
        ))),
    }
}

fn protocol_from(args: &Args, s: &Scenario) -> Result<CountingProtocol, CliError> {
    let p = s.params();
    match args.get("protocol").unwrap_or("b") {
        "b" => Ok(CountingProtocol::protocol_b(s.grid(), p)),
        "koo" => Ok(CountingProtocol::koo_baseline(s.grid(), p)),
        "heter" => {
            let cross = Cross::paper_scale(0, 0, p.r);
            Ok(CountingProtocol::heterogeneous(s.grid(), p, &cross))
        }
        "starved" => {
            let m: u64 = args.int("m")?;
            Ok(CountingProtocol::starved(s.grid(), p, m))
        }
        other => Err(CliError::Other(format!(
            "unknown protocol {other:?} (b|koo|heter|starved)"
        ))),
    }
}

fn run_outcome(
    args: &Args,
) -> Result<(Scenario, bftbcast::sim::CountingSim, CountingOutcome), CliError> {
    let s = scenario_from(args)?;
    let proto = protocol_from(args, &s)?;
    let adversary = adversary_from(args)?;
    let mut sim = s.counting_sim(proto);
    let out = match adversary {
        Adversary::PerReceiverOracle => sim.run_oracle(s.params().mf),
        Adversary::Greedy => sim.run(&mut bftbcast::adversary::GreedyFrontier::default()),
        Adversary::Chaos(seed) => sim.run(&mut bftbcast::adversary::Chaos::new(seed)),
        Adversary::Passive => sim.run(&mut bftbcast::adversary::Passive),
    };
    Ok((s, sim, out))
}

fn cmd_run(args: &Args) -> Result<String, CliError> {
    if let Some(path) = args.get("scenario") {
        return cmd_run_scenario(path, args);
    }
    if !args.get_all("set").is_empty() {
        return Err(CliError::Other(
            "--set overrides scenario-file points; it requires --scenario FILE".into(),
        ));
    }
    let (s, _, out) = run_outcome(args)?;
    let p = s.params();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "torus {}x{} r={} | t={} mf={} | bad nodes: {}",
        s.grid().width(),
        s.grid().height(),
        p.r,
        p.t,
        p.mf,
        s.bad_nodes().len()
    );
    let _ = writeln!(text, "coverage        : {:.3}", out.coverage());
    let _ = writeln!(text, "complete        : {}", out.is_complete());
    let _ = writeln!(text, "correct         : {}", out.is_correct());
    let _ = writeln!(text, "waves           : {}", out.waves);
    let _ = writeln!(text, "good copies sent: {}", out.good_copies_sent);
    let _ = writeln!(text, "adversary spent : {}", out.adversary_spent);
    Ok(text)
}

/// `--jobs N`: optional worker-pool cap, rejected by name when below 1.
fn jobs_from(args: &Args) -> Result<Option<usize>, CliError> {
    match args.get("jobs") {
        None => Ok(None),
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(CliError::Args(ArgsError::Invalid {
                flag: "jobs".to_string(),
                value: raw.to_string(),
                expected: "an integer >= 1",
            })),
        },
    }
}

/// `--store DIR`: opens (creating if needed) the outcome store.
fn store_from(args: &Args) -> Result<Option<bftbcast_store::Store>, CliError> {
    match args.get("store") {
        None => Ok(None),
        Some(dir) => bftbcast_store::Store::open(dir)
            .map(Some)
            .map_err(|e| CliError::Other(format!("opening store {dir}: {e}"))),
    }
}

/// `run --scenario FILE`: the declarative batch path.
fn cmd_run_scenario(path: &str, args: &Args) -> Result<String, CliError> {
    use bftbcast::scenario_file::AxisValue;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Other(format!("reading {path}: {e}")))?;
    let mut file = ScenarioFile::parse(&text)?;
    for raw in args.get_all("set") {
        let Some((key, value)) = raw.split_once('=') else {
            return Err(CliError::Other(format!(
                "--set {raw:?}: expected key=value (e.g. --set seed=7)"
            )));
        };
        // An integer, else a float, else a name; the axis checks the type.
        let value = match (value.parse(), value.parse()) {
            (Ok(i), _) => AxisValue::Int(i),
            (_, Ok(f)) => AxisValue::Float(f),
            _ => AxisValue::Str(value.to_string()),
        };
        file.override_base(key, value)?;
    }
    let jobs = jobs_from(args)?;
    let store = store_from(args)?;
    let report = bftbcast::run_file_with(
        &file,
        &bftbcast::BatchOptions {
            jobs,
            store: store.as_ref(),
        },
    )?;
    match args.get("format").unwrap_or("jsonl") {
        "jsonl" => Ok(report.jsonl()),
        "table" => Ok(report.table().to_string()),
        other => Err(CliError::Other(format!(
            "unknown format {other:?} (jsonl|table)"
        ))),
    }
}

/// Reads a file and expands it into engine specs, detecting the form
/// by content: a document starting with `{` is spec JSON — one object,
/// or one per line (exactly what `spec --to json` emits for a sweep) —
/// anything else is `.scn` text.
fn specs_from_file(path: &str) -> Result<(bool, Vec<bftbcast::EngineSpec>), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Other(format!("reading {path}: {e}")))?;
    if !text.trim_start().starts_with('{') {
        return Ok((false, ScenarioFile::parse(&text)?.specs()?));
    }
    // A single object first (covers pretty-printed JSON), then the
    // tool's own JSONL form.
    if let Ok(spec) = bftbcast::EngineSpec::from_json(&text) {
        return Ok((true, vec![spec]));
    }
    let mut specs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        specs.push(
            bftbcast::EngineSpec::from_json(line)
                .map_err(|e| CliError::Other(format!("{path} line {}: {e}", i + 1)))?,
        );
    }
    Ok((true, specs))
}

/// `spec FILE [--to scn|json|key]`: the codec verb.
fn cmd_spec(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::Other("spec needs a file argument".into()))?;
    let (input_is_json, specs) = specs_from_file(path)?;
    let to = match args.get("to") {
        Some(to) => to,
        None if input_is_json => "scn",
        None => "json",
    };
    match to {
        "json" => Ok(specs.iter().map(|s| s.to_json() + "\n").collect()),
        "key" => Ok(specs
            .iter()
            .map(|s| format!("{:016x}\n", s.cache_key()))
            .collect()),
        "scn" => match specs.as_slice() {
            [spec] => Ok(spec.to_scn()),
            many => Err(CliError::Other(format!(
                "{path} expands to {} sweep points; .scn output holds exactly one spec \
                 (use --to json for one spec per line)",
                many.len()
            ))),
        },
        other => Err(CliError::Other(format!(
            "unknown target {other:?} (scn|json|key)"
        ))),
    }
}

/// The `report` flags as a typed [`bftbcast::ReportSpec`].
fn report_spec_from(args: &Args) -> Result<bftbcast::ReportSpec, CliError> {
    let mut spec = bftbcast::ReportSpec::default();
    if let Some(name) = args.get("figure") {
        spec.figure = bftbcast::FigureKind::from_name(name)
            .ok_or_else(|| CliError::Other(format!("unknown figure {name:?} (auto|map|chart)")))?;
    }
    spec.field = args.get("field").map(str::to_string);
    spec.x_axis = args.get("x").map(str::to_string);
    spec.log_x = args.switch("log-x");
    spec.point = args.int_or("point", 0usize)?;
    let cell: u32 = args.int_or("cell", spec.cell_px)?;
    if cell == 0 || cell > 64 {
        return Err(CliError::Args(ArgsError::Invalid {
            flag: "cell".to_string(),
            value: cell.to_string(),
            expected: "an integer in 1..=64",
        }));
    }
    spec.cell_px = cell;
    Ok(spec)
}

/// Writes figures into `--out` (default `.`, created if needed) and
/// reports one `wrote PATH` line each.
fn write_figures(
    out_dir: &str,
    figures: &[(String, String)],
    summary: Option<String>,
) -> Result<String, CliError> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| CliError::Other(format!("creating {out_dir}: {e}")))?;
    let mut out = String::new();
    for (name, svg) in figures {
        // Locally rendered names are pre-sanitized, but --addr names
        // come off the wire: flatten anything that could escape
        // --out (separators, drive letters, empty names).
        let name: String = name
            .chars()
            .map(|c| match c {
                c if c.is_ascii_alphanumeric() => c,
                '.' | '_' | '-' => c,
                _ => '-',
            })
            .collect();
        let name = if name.is_empty() {
            "figure".to_string()
        } else {
            name
        };
        let path = std::path::Path::new(out_dir).join(format!("{name}.svg"));
        std::fs::write(&path, svg)
            .map_err(|e| CliError::Other(format!("writing {}: {e}", path.display())))?;
        let _ = writeln!(out, "wrote {}", path.display());
    }
    if let Some(line) = summary {
        let _ = writeln!(out, "{line}");
    }
    Ok(out)
}

/// `report`: the paper-figure pipeline — run (or cache-replay) a
/// scenario, or replay captured JSONL rows, and render SVG figures.
fn cmd_report(args: &Args) -> Result<String, CliError> {
    let spec = report_spec_from(args)?;
    let out_dir = args.get("out").unwrap_or(".").to_string();

    // Captured-rows path: no simulation at all.
    if let Some(path) = args.get("from-jsonl") {
        let rows = std::fs::read_to_string(path)
            .map_err(|e| CliError::Other(format!("reading {path}: {e}")))?;
        let decor = match args.get("scenario") {
            None => None,
            Some(scn) => {
                let text = std::fs::read_to_string(scn)
                    .map_err(|e| CliError::Other(format!("reading {scn}: {e}")))?;
                let file = ScenarioFile::parse(&text)?;
                Some(bftbcast::report::MapDecor::from_file(&file, spec.point))
            }
        };
        let figure = bftbcast::report::render_jsonl(&rows, &spec, decor.as_ref())?;
        return write_figures(&out_dir, &[(figure.name, figure.svg)], None);
    }

    let path = args.get("scenario").ok_or_else(|| {
        CliError::Other("report needs --scenario FILE or --from-jsonl FILE".into())
    })?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Other(format!("reading {path}: {e}")))?;
    // Parse once: the local error message beats the server's, and the
    // local path renders from this file.
    let file = ScenarioFile::parse(&text)?;

    // Remote path: a running server renders from its warm store.
    if let Some(addr) = args.get("addr") {
        let params = bftbcast_server::client::ReportParams {
            figure: args.get("figure").map(str::to_string),
            field: args.get("field").map(str::to_string),
            x: args.get("x").map(str::to_string),
            log_x: spec.log_x,
            point: args.get("point").map(|_| spec.point as u64),
            cell: args.get("cell").map(|_| u64::from(spec.cell_px)),
        };
        let (figures, trailer) =
            bftbcast_server::client::report_with(addr, &text, &params, &retry_from(args)?)
                .map_err(|e| net_err("rendering on", addr, e))?;
        return write_figures(&out_dir, &figures, Some(trailer));
    }

    let jobs = jobs_from(args)?;
    let store = store_from(args)?;
    let report = bftbcast::report::render_scenario(
        &file,
        &spec,
        &bftbcast::BatchOptions {
            jobs,
            store: store.as_ref(),
        },
    )?;
    let figures: Vec<(String, String)> = report
        .figures
        .into_iter()
        .map(|f| (f.name, f.svg))
        .collect();
    write_figures(
        &out_dir,
        &figures,
        Some(format!(
            "{} figure(s), cache_hits {}, cache_misses {}",
            figures.len(),
            report.cache_hits,
            report.cache_misses
        )),
    )
}

/// `validate FILE...`: parse and validate every file, report one line
/// each, fail (after checking all of them) if any was invalid.
fn cmd_validate(args: &Args) -> Result<String, CliError> {
    if args.positional.is_empty() {
        return Err(CliError::Other(
            "validate needs one or more file arguments".into(),
        ));
    }
    let mut report = String::new();
    let mut failures = 0usize;
    for path in &args.positional {
        match specs_from_file(path) {
            Ok((_, specs)) => {
                let engines: Vec<&str> = {
                    let mut names: Vec<&str> = specs.iter().map(|s| s.engine().name()).collect();
                    names.dedup();
                    names
                };
                let _ = writeln!(
                    report,
                    "ok   {path}: {} point{} ({})",
                    specs.len(),
                    if specs.len() == 1 { "" } else { "s" },
                    engines.join("+"),
                );
            }
            Err(e) => {
                failures += 1;
                let _ = writeln!(report, "FAIL {path}: {e}");
            }
        }
    }
    if failures > 0 {
        Err(CliError::Other(format!(
            "{failures} of {} file(s) invalid\n{report}",
            args.positional.len()
        )))
    } else {
        Ok(report)
    }
}

/// The service verbs' default endpoint.
const DEFAULT_ADDR: &str = "127.0.0.1:7171";

fn addr_from(args: &Args) -> String {
    args.get("addr").unwrap_or(DEFAULT_ADDR).to_string()
}

fn net_err(what: &str, addr: &str, e: std::io::Error) -> CliError {
    CliError::Other(format!("{what} {addr}: {e}"))
}

/// `--retries N --retry-ms MS`: the client-side retry policy for the
/// idempotent verbs (submit/results/report). Defaults to three attempts
/// with a 50 ms backoff base; `--retries 1` disables retrying.
fn retry_from(args: &Args) -> Result<bftbcast_server::client::RetryPolicy, CliError> {
    let attempts: u32 = args.int_or("retries", 3u32)?;
    if attempts == 0 {
        return Err(CliError::Args(ArgsError::Invalid {
            flag: "retries".to_string(),
            value: "0".to_string(),
            expected: "an integer >= 1 (1 = no retries)",
        }));
    }
    let base_ms: u64 = args.int_or("retry-ms", 50u64)?;
    Ok(bftbcast_server::client::RetryPolicy {
        attempts,
        base_delay: std::time::Duration::from_millis(base_ms),
        ..bftbcast_server::client::RetryPolicy::default()
    })
}

/// `serve`: run the persistent sweep service until a shutdown request.
fn cmd_serve(args: &Args) -> Result<String, CliError> {
    use std::sync::Arc;
    let addr = addr_from(args);
    let defaults = bftbcast_server::ServeOptions::default();
    let opts = bftbcast_server::ServeOptions {
        jobs: jobs_from(args)?,
        queue_cap: args.int_or("queue", defaults.queue_cap)?,
        io_timeout: std::time::Duration::from_secs(
            args.int_or("io-timeout", defaults.io_timeout.as_secs())?,
        ),
    };
    if opts.queue_cap == 0 {
        return Err(CliError::Args(ArgsError::Invalid {
            flag: "queue".to_string(),
            value: "0".to_string(),
            expected: "an integer >= 1",
        }));
    }
    let store = Arc::new(match store_from(args)? {
        Some(store) => store,
        None => bftbcast_store::Store::in_memory(),
    });
    let server = bftbcast_server::Server::bind_with(addr.as_str(), Arc::clone(&store), opts)
        .map_err(|e| net_err("binding", &addr, e))?;
    // Announce readiness eagerly (and flush): scripts scrape this line
    // to learn the resolved port when --addr ends in :0.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server
        .serve()
        .map_err(|e| net_err("serving on", &addr, e))?;
    let stats = store.stats();
    Ok(format!(
        "server stopped ({} store entries, {} hits, {} misses)\n",
        stats.entries, stats.hits, stats.misses
    ))
}

/// `submit FILE`: queue a scenario (`.scn`) or an inline spec (JSON,
/// detected by content) on a running server.
fn cmd_submit(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::Other("submit needs a scenario or spec file argument".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Other(format!("reading {path}: {e}")))?;
    let addr = addr_from(args);
    let retry = retry_from(args)?;
    // Reject locally what the server would reject, with the better
    // local error message; a JSON document goes over the wire as an
    // inline spec (same store entries as the equivalent .scn).
    let job = if text.trim_start().starts_with('{') {
        let (_, specs) = specs_from_file(path)?;
        let [spec] = specs.as_slice() else {
            return Err(CliError::Other(format!(
                "{path} holds {} specs; a submission is one job — submit the .scn \
                 sweep instead, or one spec line at a time",
                specs.len()
            )));
        };
        bftbcast_server::client::submit_spec_with(&addr, &spec.to_json(), &retry)
            .map_err(|e| net_err("submitting to", &addr, e))?
    } else {
        ScenarioFile::parse(&text)?;
        bftbcast_server::client::submit_with(&addr, &text, &retry)
            .map_err(|e| net_err("submitting to", &addr, e))?
    };
    Ok(format!("{{\"ok\":true,\"job\":\"{job}\"}}\n"))
}

/// `status JOB` (single-line verbs share this shape).
fn cmd_job_line(args: &Args, verb: &str) -> Result<String, CliError> {
    let job = args
        .positional
        .first()
        .ok_or_else(|| CliError::Other(format!("{verb} needs a job id argument")))?;
    let addr = addr_from(args);
    let line =
        bftbcast_server::client::status(&addr, job).map_err(|e| net_err("querying", &addr, e))?;
    Ok(format!("{line}\n"))
}

/// `results JOB`: the job's JSONL rows (the trailer stays on stderr's
/// side of the contract — rows only, exactly like `run --scenario`).
fn cmd_results(args: &Args) -> Result<String, CliError> {
    let job = args
        .positional
        .first()
        .ok_or_else(|| CliError::Other("results needs a job id argument".into()))?;
    let addr = addr_from(args);
    let (rows, _trailer) = bftbcast_server::client::results_with(&addr, job, &retry_from(args)?)
        .map_err(|e| net_err("querying", &addr, e))?;
    let mut out = rows.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    Ok(out)
}

/// `stats`: the server's store/queue statistics line; `--verbose` asks
/// for the on-disk log breakdown too.
fn cmd_stats(args: &Args) -> Result<String, CliError> {
    let addr = addr_from(args);
    let line = if args.switch("verbose") {
        bftbcast_server::client::stats_verbose(&addr)
    } else {
        bftbcast_server::client::stats(&addr)
    }
    .map_err(|e| net_err("querying", &addr, e))?;
    Ok(format!("{line}\n"))
}

/// `federate FILE --addr A --addr B ...`: shard a sweep across running
/// servers. Arrival-order progress goes to stderr; stdout carries the
/// sweep-order rows, bit-identical to `run --scenario FILE`.
fn cmd_federate(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::Other("federate needs a scenario file argument".into()))?;
    let backends = args.get_all("addr").to_vec();
    if backends.is_empty() {
        return Err(CliError::Other(
            "federate needs at least one --addr HOST:PORT backend (repeat per backend)".into(),
        ));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Other(format!("reading {path}: {e}")))?;
    let file = ScenarioFile::parse(&text)?;
    let opts = bftbcast_federate::FederateOptions {
        retry: retry_from(args)?,
    };
    let report = bftbcast_federate::run_with(&file, &backends, &opts, |arrival| {
        eprintln!(
            "point {} <- {}{}",
            arrival.point,
            arrival.backend,
            if arrival.warm { " (warm)" } else { "" }
        );
    })
    .map_err(|e| net_err("federating over", &backends.join(", "), e))?;
    for summary in &report.backends {
        eprintln!(
            "backend {}: assigned {} completed {} failed-over {}{}",
            summary.addr,
            summary.assigned,
            summary.completed,
            summary.failed_over,
            if summary.dead { " DEAD" } else { "" }
        );
    }
    eprintln!(
        "{} point(s), {} failover(s), cache_hits {}, cache_misses {}",
        report.points, report.failovers, report.cache_hits, report.cache_misses
    );
    let mut out = report.rows.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    Ok(out)
}

/// `store fsck|repair|compact [--store DIR]`: offline log maintenance.
/// `fsck` is the health check scripts gate on — it succeeds only when
/// the log is clean, so `bftbcast store fsck || bftbcast store repair`
/// is the canonical recovery one-liner.
fn cmd_store(args: &Args) -> Result<String, CliError> {
    let verb = args.positional.first().map(String::as_str);
    let dir = args.get("store").unwrap_or(".bftbcast-store");
    match verb {
        Some("fsck") => {
            let report = bftbcast_store::fsck_report(dir)
                .map_err(|e| CliError::Other(format!("fsck {dir}: {e}")))?;
            if report.is_clean() {
                Ok(format!("ok   {dir}: {report}\n"))
            } else {
                Err(CliError::Other(format!(
                    "FAIL {dir}: {report}\nrun `bftbcast store repair --store {dir}` to heal"
                )))
            }
        }
        Some("repair") => {
            let report = bftbcast_store::repair(dir)
                .map_err(|e| CliError::Other(format!("repair {dir}: {e}")))?;
            Ok(format!("{dir}: {report}\n"))
        }
        Some("compact") => {
            let report = bftbcast_store::compact(dir)
                .map_err(|e| CliError::Other(format!("compact {dir}: {e}")))?;
            Ok(format!("{dir}: {report}\n"))
        }
        Some("merge") => {
            let src = args.positional.get(1).ok_or_else(|| {
                CliError::Other("store merge needs a source directory argument".into())
            })?;
            let report = bftbcast_store::merge::merge(dir, src)
                .map_err(|e| CliError::Other(format!("merge {src} into {dir}: {e}")))?;
            Ok(format!("{dir} <- {src}: {report}\n"))
        }
        Some("sync") => {
            let (Some(a), Some(b)) = (args.positional.get(1), args.positional.get(2)) else {
                return Err(CliError::Other(
                    "store sync needs two store directory arguments".into(),
                ));
            };
            let report = bftbcast_store::sync(a, b)
                .map_err(|e| CliError::Other(format!("sync {a} <-> {b}: {e}")))?;
            Ok(format!("{a} <-> {b}: {report}\n"))
        }
        Some(other) => Err(CliError::Other(format!(
            "unknown store verb {other:?} (fsck|repair|compact|merge|sync)"
        ))),
        None => Err(CliError::Other(
            "store needs a verb: fsck | repair | compact [--store DIR] \
             | merge SRC [--store DST] | sync A B"
                .into(),
        )),
    }
}

/// `shutdown`: stop a running server.
fn cmd_shutdown(args: &Args) -> Result<String, CliError> {
    let addr = addr_from(args);
    let line =
        bftbcast_server::client::shutdown(&addr).map_err(|e| net_err("stopping", &addr, e))?;
    Ok(format!("{line}\n"))
}

fn cmd_map(args: &Args) -> Result<String, CliError> {
    let (s, sim, out) = run_outcome(args)?;
    if let Some(path) = args.get("svg") {
        let map = GridMap::from_counting_sim(&sim, s.source(), 12);
        let title = format!(
            "r={} t={} mf={} coverage={:.3}",
            s.params().r,
            s.params().t,
            s.params().mf,
            out.coverage()
        );
        std::fs::write(path, map.render(&title))
            .map_err(|e| CliError::Other(format!("writing {path}: {e}")))?;
        Ok(format!("wrote {path} (coverage {:.3})\n", out.coverage()))
    } else {
        Ok(render::acceptance_map(&sim, s.source()))
    }
}

fn cmd_exp(args: &Args) -> Result<String, CliError> {
    let ids: Vec<&str> = if args.positional.is_empty() {
        bftbcast_bench::ALL_EXPERIMENTS.to_vec()
    } else {
        args.positional.iter().map(String::as_str).collect()
    };
    let mut out = String::new();
    for id in ids {
        if !bftbcast_bench::ALL_EXPERIMENTS.contains(&id) {
            return Err(CliError::Other(format!(
                "unknown experiment {id:?}; known: {:?}",
                bftbcast_bench::ALL_EXPERIMENTS
            )));
        }
        for table in bftbcast_bench::run_experiment(id) {
            let _ = writeln!(out, "{table}");
        }
    }
    Ok(out)
}

fn cmd_code(args: &Args) -> Result<String, CliError> {
    use bftbcast::coding::{icode, segment, subbit::SubbitParams};
    let k: usize = args.int("k")?;
    let n: usize = args.int_or("n", 10_000usize)?;
    let t: usize = args.int_or("t", 1usize)?;
    let mmax: u64 = args.int_or("mmax", 1u64 << 20)?;
    let coded = segment::coded_len(k).map_err(|e| CliError::Other(e.to_string()))?;
    let params = SubbitParams::for_network(n, t, mmax);
    let mut out = String::new();
    let _ = writeln!(out, "message bits k            : {k}");
    let _ = writeln!(out, "AUED cascade length K     : {coded}");
    let _ = writeln!(
        out,
        "paper bound k+2logk+2     : {}",
        segment::paper_len_bound(k)
    );
    let _ = writeln!(out, "I-code length 2k          : {}", icode::coded_len(k));
    let _ = writeln!(out, "sub-bits per bit L        : {}", params.len());
    let _ = writeln!(out, "slots per message K*L     : {}", coded * params.len());
    let _ = writeln!(out, "cancel success 2^-L       : {:.3e}", params.p_cancel());
    Ok(out)
}

fn cmd_agreement(args: &Args) -> Result<String, CliError> {
    let r: u32 = args.int_or("r", 2u32)?;
    let t: u32 = args.int_or("t", 1u32)?;
    let mf: u64 = args.int_or("mf", 10u64)?;
    let params = Params::new(r, t, mf);
    let cfg = AgreementConfig::paper_margins(params);
    let side = 6 * r + 3;
    let grid = Grid::new(side, side, r)?;
    let c = side / 2;
    let source = grid.id_at(c, c);
    let bad: Vec<NodeId> = (0..t)
        .map(|i| {
            let w = grid.wrap(i64::from(c) + i64::from(i) - 1, i64::from(c) + 1);
            grid.id_of(w)
        })
        .collect();
    let mut sim = AgreementSim::new(grid, cfg, source, &bad);
    let behavior = match args.get("source").unwrap_or("correct") {
        "correct" => SourceBehavior::Correct,
        "split" => SourceBehavior::even_split(&cfg, Value(2), Value(3)),
        "silent" => SourceBehavior::Silent,
        other => {
            return Err(CliError::Other(format!(
                "unknown source behavior {other:?} (correct|split|silent)"
            )))
        }
    };
    let attack = SplitAttack::strongest();
    let outcome = match args.get("mode").unwrap_or("cheap") {
        "cheap" => sim.run(behavior, attack),
        "proven" => sim.run_proven(behavior, attack),
        other => {
            return Err(CliError::Other(format!(
                "unknown mode {other:?} (cheap|proven)"
            )))
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "members deciding: {}", outcome.decisions.len());
    let _ = writeln!(out, "validity        : {}", outcome.validity_holds());
    let _ = writeln!(out, "agreement       : {}", outcome.agreement_holds());
    let _ = writeln!(out, "decided values  : {:?}", outcome.decided_values());
    let _ = writeln!(out, "defaults        : {}", outcome.default_count());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &[&str]) -> Result<String, CliError> {
        dispatch(&Args::parse(line.iter().copied()).unwrap())
    }

    #[test]
    fn help_and_empty_print_usage() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&["help"]).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&["frobnicate"]).is_err());
    }

    #[test]
    fn bounds_prints_the_figure2_numbers() {
        let out = run(&["bounds", "--r", "4", "--t", "1", "--mf", "1000"]).unwrap();
        assert!(out.contains(": 58"), "m0 = 58 missing:\n{out}");
        assert!(out.contains(": 116"), "2m0 = 116 missing:\n{out}");
        assert!(out.contains(": 2001"), "Koo budget missing:\n{out}");
    }

    #[test]
    fn bounds_rejects_model_violations() {
        assert!(run(&["bounds", "--r", "1", "--t", "3", "--mf", "5"]).is_err());
        assert!(run(&["bounds", "--r", "0", "--t", "0", "--mf", "5"]).is_err());
    }

    #[test]
    fn run_protocol_b_reports_reliable() {
        let out = run(&["run", "--r", "1", "--t", "1", "--mf", "4", "--side", "15"]).unwrap();
        assert!(out.contains("complete        : true"), "{out}");
        assert!(out.contains("correct         : true"), "{out}");
    }

    #[test]
    fn run_starved_below_m0_stalls_on_stripes() {
        let out = run(&[
            "run",
            "--r",
            "1",
            "--t",
            "1",
            "--mf",
            "4",
            "--side",
            "15",
            "--placement",
            "stripes",
            "--protocol",
            "starved",
            "--m",
            "2",
        ])
        .unwrap();
        assert!(out.contains("complete        : false"), "{out}");
        assert!(out.contains("correct         : true"), "{out}");
    }

    #[test]
    fn run_bernoulli_placement_reports_or_rejects() {
        // A low rate builds and runs; an absurd rate surfaces the
        // local-bound violation as a user-facing error.
        let ok = run(&[
            "run",
            "--r",
            "2",
            "--t",
            "4",
            "--mf",
            "5",
            "--placement",
            "bernoulli",
            "--p",
            "0.005",
            "--seed",
            "7",
        ]);
        assert!(ok.is_ok(), "{ok:?}");
        let err = run(&[
            "run",
            "--r",
            "2",
            "--t",
            "1",
            "--mf",
            "5",
            "--placement",
            "bernoulli",
            "--p",
            "0.5",
            "--seed",
            "7",
        ]);
        assert!(err.is_err());
    }

    #[test]
    fn map_ascii_has_one_row_per_grid_row() {
        let out = run(&["map", "--r", "1", "--t", "1", "--mf", "4", "--side", "9"]).unwrap();
        assert!(out.lines().count() >= 9, "{out}");
    }

    #[test]
    fn map_svg_writes_a_file() {
        let path = std::env::temp_dir().join("bftbcast_cli_test_map.svg");
        let path_str = path.to_str().unwrap();
        let out = run(&[
            "map", "--r", "1", "--t", "1", "--mf", "4", "--side", "9", "--svg", path_str,
        ])
        .unwrap();
        assert!(out.contains("wrote"));
        let svg = std::fs::read_to_string(&path).unwrap();
        assert!(svg.starts_with("<svg"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn code_reports_lengths() {
        let out = run(&["code", "--k", "128"]).unwrap();
        assert!(out.contains("I-code length 2k          : 256"), "{out}");
        assert!(out.contains("AUED cascade length K"));
    }

    #[test]
    fn agreement_correct_source_agrees() {
        for mode in ["cheap", "proven"] {
            let out = run(&[
                "agreement",
                "--r",
                "1",
                "--t",
                "1",
                "--mf",
                "5",
                "--mode",
                mode,
            ])
            .unwrap();
            assert!(out.contains("validity        : true"), "{mode}: {out}");
            assert!(out.contains("agreement       : true"), "{mode}: {out}");
        }
    }

    #[test]
    fn exp_rejects_unknown_ids() {
        assert!(run(&["exp", "nope"]).is_err());
    }

    /// The acceptance gate: `bftbcast run --scenario scenarios/f2.scn`
    /// reproduces the paper's Figure 2 goldens bit-identically.
    #[test]
    fn run_scenario_f2_reproduces_goldens() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/f2.scn");
        let out = run(&["run", "--scenario", path]).unwrap();
        assert_eq!(out.lines().count(), 1, "one sweep point, one JSON line");
        for needle in [
            "\"scenario\":\"f2\"",
            "\"intake\":2065",
            "\"intake\":1947",
            "\"tally_wrong\":947",
            "\"accepted_true\":84",
            "\"complete\":false",
        ] {
            assert!(out.contains(needle), "{needle} missing:\n{out}");
        }
    }

    #[test]
    fn run_scenario_table_format_and_sweep() {
        let path = std::env::temp_dir().join("bftbcast_cli_test_sweep.scn");
        std::fs::write(
            &path,
            concat!(
                "name = \"mini\"\n",
                "[topology]\nside = 15\nr = 1\n",
                "[faults]\nt = 1\nmf = 4\n",
                "[placement]\nkind = \"lattice\"\n",
                "[protocol]\nkind = \"starved\"\nm = 4\n",
                "[sweep]\nm = [2, 8]\n",
            ),
        )
        .unwrap();
        let path_str = path.to_str().unwrap();
        let table = run(&["run", "--scenario", path_str, "--format", "table"]).unwrap();
        assert!(table.contains("scenario mini"), "{table}");
        assert!(table.contains("m  coverage"), "{table}");
        let jsonl = run(&["run", "--scenario", path_str]).unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"m\":2"), "{jsonl}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_scenario_surfaces_parse_and_io_errors() {
        let missing = run(&["run", "--scenario", "/nonexistent/nope.scn"]);
        assert!(missing.is_err());
        let path = std::env::temp_dir().join("bftbcast_cli_test_bad.scn");
        std::fs::write(&path, "[topology]\nside = 15\nr = 1\nwarp = 9\n").unwrap();
        let err = run(&["run", "--scenario", path.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("warp"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn exp_runs_a_fast_experiment() {
        let out = run(&["exp", "t2b"]).unwrap();
        assert!(out.contains("EXP-T2b"), "{out}");
    }

    #[test]
    fn run_scenario_set_overrides_points() {
        let path = std::env::temp_dir().join("bftbcast_cli_test_set.scn");
        std::fs::write(
            &path,
            concat!(
                "name = \"mini\"\n",
                "[topology]\nside = 15\nr = 1\n",
                "[faults]\nt = 1\nmf = 4\n",
                "[placement]\nkind = \"lattice\"\n",
                "[protocol]\nkind = \"starved\"\nm = 2\n",
            ),
        )
        .unwrap();
        let p = path.to_str().unwrap();
        // m = 2 < m0 stalls; --set m=8 reaches Theorem 2's regime.
        let starved = run(&["run", "--scenario", p]).unwrap();
        assert!(starved.contains("\"complete\":false"), "{starved}");
        let fixed = run(&["run", "--scenario", p, "--set", "m=8"]).unwrap();
        assert!(fixed.contains("\"complete\":true"), "{fixed}");
        // Several overrides compose; bad keys/values are named errors.
        let two = run(&["run", "--scenario", p, "--set", "m=8", "--set", "mf=2"]).unwrap();
        assert!(two.contains("\"complete\":true"), "{two}");
        for bad in ["warp=1", "m", "m=lots"] {
            let err = run(&["run", "--scenario", p, "--set", bad]).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad}");
        }
        // --set without --scenario has nothing to override.
        assert!(run(&["run", "--set", "m=8"]).is_err());
        std::fs::remove_file(path).ok();
    }

    /// The help lists exactly the sweep axes `--set` takes, read from
    /// the field table.
    #[test]
    fn help_names_every_sweep_axis() {
        let usage = run(&["help"]).unwrap();
        let listed = usage
            .split("the axes are ")
            .nth(1)
            .and_then(|rest| rest.split(';').next())
            .expect("the usage lists the axes");
        let listed: Vec<&str> = listed.split(',').map(str::trim).collect();
        assert_eq!(listed, bftbcast::scenario_file::axis_names());
        for axis in ["schedule", "behavior", "payload", "mmax", "p1"] {
            assert!(listed.contains(&axis), "{axis} missing from {listed:?}");
        }
    }

    /// `--set` over an axis the engine does not read fails before the
    /// run, naming the axis.
    #[test]
    fn run_scenario_set_rejects_an_inapplicable_axis_by_name() {
        let path = std::env::temp_dir().join("bftbcast_cli_test_set_inapplicable.scn");
        std::fs::write(&path, "[topology]\nside = 15\nr = 1\n").unwrap();
        let p = path.to_str().unwrap();
        let err = run(&["run", "--scenario", p, "--set", "payload=5"]).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("sweep.payload"), "{text}");
        assert!(text.contains("does not apply to engine"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_scenario_set_pins_rbc_protocol_by_name() {
        let path = std::env::temp_dir().join("bftbcast_cli_test_set_rbc.scn");
        std::fs::write(
            &path,
            concat!(
                "name = \"rbc-mini\"\n",
                "engine = \"rbc\"\n",
                "[topology]\nside = 9\nr = 1\n",
                "[faults]\nt = 1\nmf = 0\n",
                "[placement]\nkind = \"explicit\"\nnodes = [[4, 4]]\n",
                "[rbc]\npayload = 256\n",
                "[sweep]\nprotocol = [\"counting\", \"bracha\", \"ctrbc\"]\n",
            ),
        )
        .unwrap();
        let p = path.to_str().unwrap();
        let all = run(&["run", "--scenario", p]).unwrap();
        assert_eq!(all.lines().count(), 3, "{all}");
        assert!(all.contains("\"protocol\":\"ctrbc\""), "{all}");
        // Pinning the protocol axis drops the sweep to one point (the
        // pinned value leaves the label, like any --set override).
        let one = run(&["run", "--scenario", p, "--set", "protocol=ctrbc"]).unwrap();
        assert_eq!(one.lines().count(), 1, "{one}");
        assert!(one.contains("\"kind\":\"rbc\""), "{one}");
        assert!(one.contains("\"reliable\":true"), "{one}");
        // Payload pins too; an unknown protocol name is a named error.
        let fat = run(&[
            "run",
            "--scenario",
            p,
            "--set",
            "protocol=bracha",
            "--set",
            "payload=1024",
        ])
        .unwrap();
        assert_eq!(fat.lines().count(), 1, "{fat}");
        assert!(fat.contains("\"reliable\":true"), "{fat}");
        let err = run(&["run", "--scenario", p, "--set", "protocol=gossip"]).unwrap_err();
        assert!(err.to_string().contains("gossip"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_scenario_set_pins_rbc_schedule_and_behavior_by_name() {
        let path = std::env::temp_dir().join("bftbcast_cli_test_set_rbc_adv.scn");
        std::fs::write(
            &path,
            concat!(
                "name = \"rbc-adv-mini\"\n",
                "engine = \"rbc\"\n",
                "[topology]\nside = 9\nr = 1\n",
                "[faults]\nt = 1\nmf = 0\n",
                "[placement]\nkind = \"explicit\"\nnodes = [[4, 4]]\n",
                "[rbc]\nprotocol = \"bracha\"\npayload = 256\n",
                "[sweep]\nschedule = [\"seeded\", \"gst\"]\n",
                "behavior = [\"mute\", \"equivocate\"]\n",
            ),
        )
        .unwrap();
        let p = path.to_str().unwrap();
        let all = run(&["run", "--scenario", p]).unwrap();
        assert_eq!(all.lines().count(), 4, "{all}");
        // Pinning either string axis drops that dimension of the sweep.
        let one = run(&[
            "run",
            "--scenario",
            p,
            "--set",
            "schedule=gst",
            "--set",
            "behavior=equivocate",
        ])
        .unwrap();
        assert_eq!(one.lines().count(), 1, "{one}");
        // The pinned point is the sweep's (gst, equivocate) corner:
        // equivocation inflates the message count and gst stretches
        // the waves past the seeded/mute baseline.
        let baseline = all.lines().next().unwrap();
        assert!(baseline.contains("\"schedule\":\"seeded\""), "{baseline}");
        let sweep_corner = all
            .lines()
            .find(|l| {
                l.contains("\"schedule\":\"gst\"") && l.contains("\"behavior\":\"equivocate\"")
            })
            .expect("the sweep covers the pinned corner");
        let outcome_of = |line: &str| {
            line.trim()
                .split("\"outcome\":")
                .nth(1)
                .unwrap()
                .to_string()
        };
        assert_eq!(outcome_of(&one), outcome_of(sweep_corner), "{one}");
        assert_ne!(outcome_of(&one), outcome_of(baseline), "{one}");
        assert!(one.contains("\"reliable\":true"), "{one}");
        // Unknown names are named errors, not number-parse failures.
        let err = run(&["run", "--scenario", p, "--set", "schedule=chaos"]).unwrap_err();
        assert!(err.to_string().contains("chaos"), "{err}");
        let err = run(&["run", "--scenario", p, "--set", "behavior=sleepy"]).unwrap_err();
        assert!(err.to_string().contains("sleepy"), "{err}");
        std::fs::remove_file(path).ok();
    }

    /// `.scn` ⇄ JSON ⇄ key through the spec verb: the conversions are
    /// lossless and the cache key is form-independent.
    #[test]
    fn spec_verb_converts_both_ways_with_a_stable_key() {
        let scn = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/f2.scn");
        let json = run(&["spec", scn]).unwrap();
        assert_eq!(json.lines().count(), 1, "f2 is one point");
        assert!(json.contains("\"engine\":\"counting\""), "{json}");
        assert!(json.contains("\"name\":\"f2\""), "{json}");
        let key = run(&["spec", scn, "--to", "key"]).unwrap();
        assert_eq!(key.trim().len(), 16, "{key}");

        let json_path = std::env::temp_dir().join("bftbcast_cli_test_spec.json");
        std::fs::write(&json_path, &json).unwrap();
        let jp = json_path.to_str().unwrap();
        let back = run(&["spec", jp]).unwrap();
        assert!(back.contains("[topology]"), "{back}");
        assert_eq!(
            run(&["spec", jp, "--to", "key"]).unwrap(),
            key,
            "identical key through both forms"
        );
        std::fs::remove_file(json_path).ok();

        // A sweep file: one JSON spec per point, but no single .scn.
        let t1 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/t1.scn");
        let jsonl = run(&["spec", t1, "--to", "json"]).unwrap();
        assert_eq!(jsonl.lines().count(), 5, "{jsonl}");
        assert!(run(&["spec", t1, "--to", "scn"]).is_err());
        assert!(run(&["spec", t1, "--to", "yaml"]).is_err());
        assert!(run(&["spec"]).is_err(), "missing file");

        // The tool's own JSONL output feeds back: same 5 keys through
        // spec and validate.
        let jsonl_path = std::env::temp_dir().join("bftbcast_cli_test_spec_t1.jsonl");
        std::fs::write(&jsonl_path, &jsonl).unwrap();
        let jlp = jsonl_path.to_str().unwrap();
        assert_eq!(
            run(&["spec", jlp, "--to", "key"]).unwrap(),
            run(&["spec", t1, "--to", "key"]).unwrap(),
        );
        let out = run(&["validate", jlp]).unwrap();
        assert!(out.contains("5 points"), "{out}");
        std::fs::remove_file(jsonl_path).ok();
    }

    /// The report verb end to end: a sweep renders a chart, captured
    /// rows replay to the same bytes, and flag errors are named.
    #[test]
    fn report_renders_charts_and_replays_captured_rows() {
        let t1 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/t1.scn");
        let dir = std::env::temp_dir().join(format!("bftbcast_cli_report_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_str().unwrap();
        let text = run(&["report", "--scenario", t1, "--out", out]).unwrap();
        assert!(text.contains("t1-chart.svg"), "{text}");
        assert!(text.contains("cache_misses 5"), "{text}");
        let direct = std::fs::read_to_string(dir.join("t1-chart.svg")).unwrap();
        assert!(direct.starts_with("<svg"));
        assert!(direct.contains("coverage vs m"), "{direct}");

        // Captured rows replay to bit-identical bytes.
        let rows = run(&["run", "--scenario", t1]).unwrap();
        let rows_path = dir.join("t1.jsonl");
        std::fs::write(&rows_path, rows).unwrap();
        run(&[
            "report",
            "--from-jsonl",
            rows_path.to_str().unwrap(),
            "--out",
            out,
        ])
        .unwrap();
        let replayed = std::fs::read_to_string(dir.join("t1-chart.svg")).unwrap();
        assert_eq!(replayed, direct, "replayed rows render the same bytes");

        for bad in [
            vec!["report"],
            vec!["report", "--scenario", t1, "--figure", "pie"],
            vec!["report", "--scenario", t1, "--cell", "0"],
            vec!["report", "--scenario", t1, "--field", "warp"],
            vec!["report", "--from-jsonl", "/nonexistent/rows.jsonl"],
        ] {
            assert!(run(&bad).is_err(), "{bad:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `report --addr`: a running server renders the figure remotely;
    /// the second render is all cache hits and byte-identical.
    #[test]
    fn report_addr_renders_on_a_server_with_a_warm_second_pass() {
        use bftbcast_store::Store;
        use std::sync::Arc;
        let server =
            bftbcast_server::Server::bind("127.0.0.1:0", Arc::new(Store::in_memory()), None)
                .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.serve());

        let t1 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/t1.scn");
        let dir =
            std::env::temp_dir().join(format!("bftbcast_cli_report_addr_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_str().unwrap();
        let cold = run(&["report", "--scenario", t1, "--addr", &addr, "--out", out]).unwrap();
        assert!(cold.contains("\"cache_misses\":5"), "{cold}");
        let bytes = std::fs::read_to_string(dir.join("t1-chart.svg")).unwrap();
        let warm = run(&["report", "--scenario", t1, "--addr", &addr, "--out", out]).unwrap();
        assert!(warm.contains("\"cache_hits\":5"), "{warm}");
        assert!(warm.contains("\"cache_misses\":0"), "{warm}");
        assert_eq!(
            std::fs::read_to_string(dir.join("t1-chart.svg")).unwrap(),
            bytes,
            "warm remote render is bit-identical"
        );

        run(&["shutdown", "--addr", &addr]).unwrap();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_accepts_good_files_and_names_bad_ones() {
        let f2 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/f2.scn");
        let t1 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/t1.scn");
        let out = run(&["validate", f2, t1]).unwrap();
        assert_eq!(out.lines().count(), 2, "{out}");
        assert!(out.contains("5 points (counting)"), "{out}");

        let bad = std::env::temp_dir().join("bftbcast_cli_test_validate_bad.scn");
        std::fs::write(&bad, "[topology]\nside = 15\nr = 1\nwarp = 9\n").unwrap();
        let err = run(&["validate", f2, bad.to_str().unwrap()]).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("1 of 2"), "{text}");
        assert!(text.contains("warp"), "{text}");
        assert!(
            text.contains("ok   "),
            "the good file is still reported: {text}"
        );
        std::fs::remove_file(bad).ok();
        assert!(run(&["validate"]).is_err(), "no files");
    }

    /// Off-torus `[probes]` cells fail `validate` with the spec-layer
    /// error naming the cell — the same single check across the `.scn`
    /// form, the JSON form, and every engine (rbc included).
    #[test]
    fn validate_rejects_off_torus_probes_naming_the_cell() {
        let dir = std::env::temp_dir();
        let scn = dir.join("bftbcast_cli_test_validate_probe.scn");
        std::fs::write(
            &scn,
            concat!(
                "[topology]\nside = 15\nr = 1\n",
                "[probes]\nnodes = [[2, 2], [15, 3]]\n",
            ),
        )
        .unwrap();
        let err = run(&["validate", scn.to_str().unwrap()]).unwrap_err();
        assert!(
            err.to_string()
                .contains("probe (15, 3) is off the 15x15 torus"),
            "{err}"
        );
        std::fs::remove_file(scn).ok();

        // The rbc engine goes through the same spec-layer check, even
        // with a protocol sweep in the file.
        let rbc = dir.join("bftbcast_cli_test_validate_probe_rbc.scn");
        std::fs::write(
            &rbc,
            concat!(
                "engine = \"rbc\"\n",
                "[topology]\nside = 9\nr = 1\n",
                "[probes]\nnodes = [[4, 9]]\n",
                "[sweep]\nprotocol = [\"bracha\", \"ctrbc\"]\n",
            ),
        )
        .unwrap();
        let err = run(&["validate", rbc.to_str().unwrap()]).unwrap_err();
        assert!(
            err.to_string()
                .contains("probe (4, 9) is off the 9x9 torus"),
            "{err}"
        );
        std::fs::remove_file(rbc).ok();

        // The JSON spec form hits the identical validator: take the
        // shipped rbc comparison, push one probe off the torus.
        let good = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/rbc-compare.scn"
        );
        let ok = run(&["validate", good]).unwrap();
        assert!(ok.contains("3 points (rbc)"), "{ok}");
        let json = run(&["spec", good, "--to", "json"]).unwrap();
        let tampered = json.lines().next().unwrap().replace("[7,2]", "[7,200]");
        assert_ne!(tampered, json.lines().next().unwrap(), "probe rewritten");
        let json_path = dir.join("bftbcast_cli_test_validate_probe.json");
        std::fs::write(&json_path, tampered).unwrap();
        let err = run(&["validate", json_path.to_str().unwrap()]).unwrap_err();
        assert!(
            err.to_string()
                .contains("probe (7, 200) is off the 15x15 torus"),
            "{err}"
        );
        std::fs::remove_file(json_path).ok();
    }

    #[test]
    fn run_scenario_jobs_flag_bounds_and_validates() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/t1.scn");
        let ok = run(&["run", "--scenario", path, "--jobs", "1"]).unwrap();
        assert!(ok.contains("\"scenario\""), "{ok}");
        for bad in ["0", "-1", "lots"] {
            let err = run(&["run", "--scenario", path, "--jobs", bad]).unwrap_err();
            assert!(
                err.to_string().contains("--jobs") && err.to_string().contains(">= 1"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn run_scenario_store_caches_across_invocations() {
        let dir =
            std::env::temp_dir().join(format!("bftbcast_cli_test_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.to_str().unwrap();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/t1.scn");
        let cold = run(&["run", "--scenario", path, "--store", store]).unwrap();
        let warm = run(&["run", "--scenario", path, "--store", store]).unwrap();
        assert_eq!(cold, warm, "cached rerun is bit-identical");
        assert!(dir.join("store.log").exists(), "store persisted to disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The full service loop through the real CLI verbs, over a real
    /// socket: serve, submit f2, read goldens from results, resubmit,
    /// observe all-hit status, stats, shutdown.
    #[test]
    fn service_verbs_round_trip_with_warm_cache() {
        use bftbcast_store::Store;
        use std::sync::Arc;
        // Bind the server in-process (cmd_serve blocks; the verbs under
        // test are the client side).
        let server =
            bftbcast_server::Server::bind("127.0.0.1:0", Arc::new(Store::in_memory()), None)
                .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.serve());

        let scn = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/f2.scn");
        let reply = run(&["submit", scn, "--addr", &addr]).unwrap();
        assert!(reply.contains("\"job\":\"job-0\""), "{reply}");
        let rows = run(&["results", "job-0", "--addr", &addr]).unwrap();
        for needle in ["\"intake\":2065", "\"intake\":1947", "\"tally_wrong\":947"] {
            assert!(rows.contains(needle), "{needle} missing:\n{rows}");
        }
        let reply = run(&["submit", scn, "--addr", &addr]).unwrap();
        assert!(reply.contains("\"job\":\"job-1\""), "{reply}");
        let rows2 = run(&["results", "job-1", "--addr", &addr]).unwrap();
        assert_eq!(rows, rows2, "warm rows are bit-identical");
        let status = run(&["status", "job-1", "--addr", &addr]).unwrap();
        assert!(status.contains("\"cache_hits\":1"), "{status}");
        assert!(status.contains("\"cache_misses\":0"), "{status}");
        let stats = run(&["stats", "--addr", &addr]).unwrap();
        assert!(stats.contains("\"jobs_done\":2"), "{stats}");
        let bye = run(&["shutdown", "--addr", &addr]).unwrap();
        assert!(bye.contains("\"shutting_down\":true"), "{bye}");
        handle.join().unwrap().unwrap();
    }

    /// `store fsck`/`repair`/`compact` against a real log: fsck gates
    /// on cleanliness (non-zero exit when dirty), repair heals, compact
    /// dedupes.
    #[test]
    fn store_verbs_fsck_repair_compact_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "bftbcast_cli_test_storeverbs_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.to_str().unwrap();
        let scn = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/t1.scn");
        run(&["run", "--scenario", scn, "--store", store]).unwrap();

        let ok = run(&["store", "fsck", "--store", store]).unwrap();
        assert!(ok.contains("ok   "), "{ok}");
        assert!(ok.contains("5 valid records"), "{ok}");

        // Corrupt one byte mid-log: fsck fails, repair heals, fsck
        // passes again with one record quarantined.
        let log = dir.join("store.log");
        let mut raw = std::fs::read(&log).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&log, &raw).unwrap();
        let err = run(&["store", "fsck", "--store", store]).unwrap_err();
        assert!(err.to_string().contains("FAIL"), "{err}");
        assert!(err.to_string().contains("store repair"), "{err}");
        let healed = run(&["store", "repair", "--store", store]).unwrap();
        assert!(healed.contains("rewrote log"), "{healed}");
        assert!(run(&["store", "fsck", "--store", store]).is_ok());

        // Repair on a clean log is a no-op; compact still rewrites.
        let noop = run(&["store", "repair", "--store", store]).unwrap();
        assert!(noop.contains("nothing to do"), "{noop}");
        let compacted = run(&["store", "compact", "--store", store]).unwrap();
        assert!(compacted.contains("rewrote log"), "{compacted}");

        // Bad verbs are named errors.
        assert!(run(&["store"]).is_err());
        assert!(run(&["store", "defrag", "--store", store]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `federate` against two in-process backends: stdout rows equal
    /// `run --scenario` byte for byte, and the shards merge into one
    /// warm store.
    #[test]
    fn federate_verb_matches_local_run_and_merges_shards() {
        use bftbcast_store::Store;
        use std::sync::Arc;
        let dir =
            std::env::temp_dir().join(format!("bftbcast_cli_test_federate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let scn = dir.join("mini.scn");
        std::fs::write(
            &scn,
            concat!(
                "name = \"mini\"\n",
                "[topology]\nside = 15\nr = 1\n",
                "[faults]\nt = 1\nmf = 4\n",
                "[placement]\nkind = \"lattice\"\n",
                "[protocol]\nkind = \"starved\"\nm = 4\n",
                "[sweep]\nm = [2, 4, 6, 8]\n",
            ),
        )
        .unwrap();
        let scn = scn.to_str().unwrap();

        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        let mut shards = Vec::new();
        for i in 0..2 {
            let shard = dir.join(format!("shard-{i}"));
            let store = Arc::new(Store::open(&shard).unwrap());
            let server = bftbcast_server::Server::bind("127.0.0.1:0", store, Some(2)).unwrap();
            addrs.push(server.local_addr().to_string());
            handles.push(std::thread::spawn(move || server.serve()));
            shards.push(shard);
        }

        let local = run(&["run", "--scenario", scn]).unwrap();
        let federated = run(&["federate", scn, "--addr", &addrs[0], "--addr", &addrs[1]]).unwrap();
        assert_eq!(federated, local, "federated == local, byte for byte");

        // Fold both shards into one store; a local warm run replays it.
        let merged = dir.join("merged");
        for shard in &shards {
            let out = run(&[
                "store",
                "merge",
                shard.to_str().unwrap(),
                "--store",
                merged.to_str().unwrap(),
            ])
            .unwrap();
            assert!(out.contains("imported"), "{out}");
        }
        assert!(run(&["store", "fsck", "--store", merged.to_str().unwrap()]).is_ok());

        for addr in &addrs {
            run(&["shutdown", "--addr", addr]).unwrap();
        }
        for handle in handles {
            handle.join().unwrap().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn federate_verb_validates_its_flags() {
        assert!(run(&["federate"]).is_err(), "missing file");
        let scn = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/f2.scn");
        let err = run(&["federate", scn]).unwrap_err();
        assert!(err.to_string().contains("--addr"), "{err}");
        assert!(run(&["federate", "/nonexistent/nope.scn", "--addr", "127.0.0.1:1"]).is_err());
    }

    /// `store sync` reconciles two stores both ways.
    #[test]
    fn store_sync_reconciles_two_stores() {
        let dir =
            std::env::temp_dir().join(format!("bftbcast_cli_test_sync_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = dir.join("a");
        let b = dir.join("b");
        let scn = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/t1.scn");
        // Different --set overrides give the two stores disjoint keys.
        run(&["run", "--scenario", scn, "--store", a.to_str().unwrap()]).unwrap();
        run(&[
            "run",
            "--scenario",
            scn,
            "--store",
            b.to_str().unwrap(),
            "--set",
            "mf=2",
        ])
        .unwrap();
        let out = run(&["store", "sync", a.to_str().unwrap(), b.to_str().unwrap()]).unwrap();
        assert!(out.contains("a <- b"), "{out}");
        assert!(out.contains("imported 5"), "{out}");
        // Both directions imported; now both replay the other's sweep
        // warm — the synced stores are interchangeable.
        let warm_b = run(&["run", "--scenario", scn, "--store", b.to_str().unwrap()]).unwrap();
        let warm_a = run(&["run", "--scenario", scn, "--store", a.to_str().unwrap()]).unwrap();
        assert_eq!(warm_a, warm_b);
        // Re-sync is a no-op: nothing new to import on either side.
        let again = run(&["store", "sync", a.to_str().unwrap(), b.to_str().unwrap()]).unwrap();
        assert!(again.contains("imported 0"), "{again}");
        assert!(
            run(&["store", "sync", a.to_str().unwrap()]).is_err(),
            "one arg"
        );
        assert!(run(&["store", "merge"]).is_err(), "no source");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_verbose_reports_the_store_breakdown() {
        use bftbcast_store::Store;
        use std::sync::Arc;
        let server =
            bftbcast_server::Server::bind("127.0.0.1:0", Arc::new(Store::in_memory()), None)
                .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.serve());
        let plain = run(&["stats", "--addr", &addr]).unwrap();
        assert!(plain.contains("\"queue_depth\":0"), "{plain}");
        assert!(!plain.contains("store_records"), "{plain}");
        let verbose = run(&["stats", "--verbose", "--addr", &addr]).unwrap();
        assert!(verbose.contains("\"store_records\":"), "{verbose}");
        assert!(verbose.contains("\"store_recovery_clean\":"), "{verbose}");
        run(&["shutdown", "--addr", &addr]).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn serve_and_retry_flags_validate() {
        // --queue 0 is rejected before any socket is bound.
        let err = run(&["serve", "--queue", "0", "--addr", "127.0.0.1:0"]).unwrap_err();
        assert!(err.to_string().contains("--queue"), "{err}");
        // --retries 0 is rejected before the network is touched.
        let err = run(&[
            "results",
            "job-0",
            "--retries",
            "0",
            "--addr",
            "127.0.0.1:1",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--retries"), "{err}");
        // USAGE documents the new surface.
        let usage = run(&["help"]).unwrap();
        for needle in [
            "store      fsck|repair|compact",
            "store      merge SRC",
            "federate   FILE",
            "--queue",
            "--retries",
            "--verbose",
        ] {
            assert!(usage.contains(needle), "{needle} missing from usage");
        }
    }

    #[test]
    fn service_verbs_report_usage_and_connection_errors() {
        assert!(run(&["submit"]).is_err(), "missing file");
        assert!(run(&["status"]).is_err(), "missing job id");
        assert!(run(&["results"]).is_err(), "missing job id");
        // Nothing listens on this port: a clean user-facing error.
        let err = run(&["stats", "--addr", "127.0.0.1:1"]).unwrap_err();
        assert!(err.to_string().contains("127.0.0.1:1"), "{err}");
        // A submit of a file that does not parse fails before the
        // network is touched.
        let bad = std::env::temp_dir().join("bftbcast_cli_test_badsubmit.scn");
        std::fs::write(&bad, "[teleport]\n x = 1\n").unwrap();
        let err = run(&["submit", bad.to_str().unwrap(), "--addr", "127.0.0.1:1"]).unwrap_err();
        assert!(!err.to_string().contains("127.0.0.1:1"), "{err}");
        std::fs::remove_file(bad).ok();
    }
}
