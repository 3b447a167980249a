//! The seeded input generator.
//!
//! Everything a workload feeds the program comes from here: scenario
//! documents, one file per client (`client<N>.scn`, documents
//! separated by a `%%` line), and for the serve workloads a pre-filled
//! store log (`store/`) plus the scenario of the results it holds
//! (`reference.scn`). The same seed writes byte-identical files.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use bftbcast::batch::{run_file_with, BatchOptions, PointResult, ProbeResult};
use bftbcast::cache;
use bftbcast::scenario_file::ScenarioFile;
use bftbcast::sim::engine::{EngineOutcome, Probe};
use bftbcast::sim::CountingOutcome;
use bftbcast_store::Store;

use crate::sys::Rng;
use crate::Workload;

/// Separator line between documents in a client file.
const DOC_SEPARATOR: &str = "\n%%\n";

/// Scale points generated (a run measures at most 60 s of ~0.7 s points).
const SCALE_POINTS: usize = 120;
/// Scale torus side and Byzantine count (~1% of the cells).
const SCALE_SIDE: u32 = 1024;
const SCALE_BAD: u64 = 10_486;

/// Placement/seed cycles generated for `rbc-sweep`; each cycle is one
/// point per protocol x schedule x behavior.
const RBC_CYCLES: usize = 40;
/// The crossed rbc axes, in cycle order.
pub const RBC_PROTOCOLS: [&str; 2] = ["bracha", "ctrbc"];
/// Delivery schedules of the rbc sweep.
pub const RBC_SCHEDULES: [&str; 3] = ["seeded", "delay_quorum", "gst"];
/// Byzantine behaviors of the rbc sweep.
const RBC_BEHAVIORS: [&str; 2] = ["mute", "equivocate"];
/// Points per rbc cycle.
pub const RBC_CYCLE: usize = RBC_PROTOCOLS.len() * RBC_SCHEDULES.len() * RBC_BEHAVIORS.len();
const RBC_SIDE: u64 = 21;

/// The agreement grid held in the store: `p1` x `pe` at 0.01 steps.
const GRID_STEPS: u32 = 101;
/// A warm request's window: `WARM_WINDOW`² points (1600).
const WARM_WINDOW: u32 = 40;
/// An ingest request's fresh grid: `INGEST_SIDE`² points (400).
const INGEST_SIDE: u32 = 20;
/// Requests generated per serve client.
const SERVE_REQUESTS: usize = 1500;
/// Encoded filler records written next to the real results.
const FILLER_RECORDS: usize = 80_000;
/// Probes per filler record (~1.1 KB per encoded record).
const FILLER_PROBES: usize = 14;

/// Distinct figure points generated (each render takes ~1 s).
const FIGURE_REQUESTS: usize = 100;

/// Clients of each serve workload.
pub const SERVE_CLIENTS: usize = 2;

/// The agreement scenario the serve workloads sweep (EXP-X4's
/// instance): a `p1` x `pe` grid of colluder schedules.
pub fn agreement_doc(name: &str, p1: &[String], pe: &[String]) -> String {
    format!(
        "name = \"{name}\"\nengine = \"agreement\"\n\
         [topology]\nside = 15\nr = 2\n\
         [faults]\nt = 1\nmf = 10\n\
         [source]\nx = 7\ny = 7\n\
         [placement]\nkind = \"explicit\"\nnodes = [[6, 8]]\n\
         [agreement]\nmode = \"cheap\"\nsource = \"split\"\n\
         [sweep]\np1 = [{}]\npe = [{}]\n",
        p1.join(", "),
        pe.join(", ")
    )
}

/// `0.00`, `0.01`, … `1.00`: the grid coordinate `i` as written in
/// every warm document.
pub fn grid_value(i: u32) -> String {
    format!("{}.{:02}", i / 100, i % 100)
}

fn scale_doc(seed: u64) -> String {
    format!(
        "name = \"scale\"\nengine = \"counting\"\nseed = {seed}\n\
         [topology]\nside = {SCALE_SIDE}\nr = 1\n\
         [faults]\nt = 1\nmf = 4\n\
         [placement]\nkind = \"random\"\ncount = {SCALE_BAD}\n\
         [protocol]\nkind = \"b\"\n\
         [adversary]\nkind = \"oracle\"\n"
    )
}

pub fn rbc_doc(
    bad: [(u64, u64); 2],
    seed: u64,
    protocol: &str,
    schedule: &str,
    behavior: &str,
) -> String {
    format!(
        "name = \"rbc-sweep\"\nengine = \"rbc\"\nseed = {seed}\n\
         [topology]\nside = {RBC_SIDE}\nr = 1\n\
         [faults]\nt = 2\nmf = 0\n\
         [placement]\nkind = \"explicit\"\nnodes = [[{}, {}], [{}, {}]]\n\
         [rbc]\nprotocol = \"{protocol}\"\npayload = 4096\nmax_waves = 10000\n\
         schedule = \"{schedule}\"\nbehavior = \"{behavior}\"\n",
        bad[0].0, bad[0].1, bad[1].0, bad[1].1
    )
}

/// Figure-2 construction maps: 45x45, r = 4, t = 1, mf = 1000, one
/// bad node per neighborhood at a lattice `offset`, `m` near m0 = 58.
fn figure_doc(offset: u64, m: u64) -> String {
    format!(
        "name = \"figures\"\nengine = \"counting\"\n\
         [topology]\nwidth = 45\nheight = 45\nr = 4\n\
         [faults]\nt = 1\nmf = 1000\n\
         [placement]\nkind = \"lattice\"\noffset = {offset}\n\
         [protocol]\nkind = \"starved\"\nm = {m}\n\
         [adversary]\nkind = \"oracle\"\n"
    )
}

fn write_client(dir: &Path, client: usize, docs: &[String]) -> io::Result<()> {
    fs::write(
        dir.join(format!("client{client}.scn")),
        docs.join(DOC_SEPARATOR),
    )
}

/// Reads the documents of client `client`.
///
/// # Errors
///
/// I/O failures reading the file.
pub fn read_client(dir: &Path, client: usize) -> io::Result<Vec<String>> {
    let text = fs::read_to_string(dir.join(format!("client{client}.scn")))?;
    Ok(text.split(DOC_SEPARATOR).map(str::to_string).collect())
}

/// Writes every input of `workload` for `seed` into `dir` (which must
/// not exist yet).
///
/// # Errors
///
/// I/O failures, or a generated scenario the program rejects.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let io = |e: io::Error| e.to_string();
    let mut rng = Rng::new(seed, workload as u64 + 1);
    match workload {
        Workload::Scale => {
            let docs: Vec<String> = (0..SCALE_POINTS)
                .map(|_| scale_doc(rng.next_u64() >> 1))
                .collect();
            write_client(dir, 0, &docs).map_err(io)?;
        }
        Workload::RbcSweep => {
            let n = RBC_SIDE * RBC_SIDE;
            let mut docs = Vec::with_capacity(RBC_CYCLES * RBC_CYCLE);
            for _ in 0..RBC_CYCLES {
                // Two distinct Byzantine cells, never the source (0, 0).
                let a = 1 + rng.below(n - 1);
                let b = loop {
                    let b = 1 + rng.below(n - 1);
                    if b != a {
                        break b;
                    }
                };
                let bad = [(a % RBC_SIDE, a / RBC_SIDE), (b % RBC_SIDE, b / RBC_SIDE)];
                let point_seed = rng.next_u64() >> 1;
                for protocol in RBC_PROTOCOLS {
                    for behavior in RBC_BEHAVIORS {
                        for schedule in RBC_SCHEDULES {
                            docs.push(rbc_doc(bad, point_seed, protocol, schedule, behavior));
                        }
                    }
                }
            }
            write_client(dir, 0, &docs).map_err(io)?;
        }
        Workload::ServeWarm | Workload::ServeIngest | Workload::Figures => {
            fill_store(&mut rng, dir)?;
            match workload {
                Workload::ServeWarm => {
                    let span = GRID_STEPS - WARM_WINDOW + 1;
                    let mut windows: Vec<(u32, u32)> = (0..span)
                        .flat_map(|a| (0..span).map(move |b| (a, b)))
                        .collect();
                    rng.shuffle(&mut windows);
                    for client in 0..SERVE_CLIENTS {
                        let docs: Vec<String> = windows
                            .iter()
                            .skip(client)
                            .step_by(SERVE_CLIENTS)
                            .take(SERVE_REQUESTS)
                            .map(|&(a, b)| {
                                let p1: Vec<String> =
                                    (a..a + WARM_WINDOW).map(grid_value).collect();
                                let pe: Vec<String> =
                                    (b..b + WARM_WINDOW).map(grid_value).collect();
                                agreement_doc("x4-grid", &p1, &pe)
                            })
                            .collect();
                        write_client(dir, client, &docs).map_err(io)?;
                    }
                }
                Workload::ServeIngest => {
                    // p1 = odd / 200000 never lies on the stored 0.01
                    // grid, and every request owns its own p1 block, so
                    // every point misses.
                    let pe: Vec<String> = (0..INGEST_SIDE).map(|j| grid_value(j * 5)).collect();
                    let base = rng.below(1000);
                    for client in 0..SERVE_CLIENTS {
                        let docs: Vec<String> = (0..SERVE_REQUESTS)
                            .map(|j| {
                                let k = base + (j * SERVE_CLIENTS + client) as u64;
                                let p1: Vec<String> = (0..u64::from(INGEST_SIDE))
                                    .map(|i| {
                                        let odd = 2 * (k * u64::from(INGEST_SIDE) + i) + 1;
                                        format!("{}", odd as f64 / 200_000.0)
                                    })
                                    .collect();
                                agreement_doc("x4-ingest", &p1, &pe)
                            })
                            .collect();
                        write_client(dir, client, &docs).map_err(io)?;
                    }
                }
                _ => {
                    let mut cells: Vec<(u64, u64)> = (0..81)
                        .flat_map(|o| (55..=62).map(move |m| (o, m)))
                        .collect();
                    rng.shuffle(&mut cells);
                    let docs: Vec<String> = cells
                        .iter()
                        .take(FIGURE_REQUESTS)
                        .map(|&(offset, m)| figure_doc(offset, m))
                        .collect();
                    write_client(dir, 0, &docs).map_err(io)?;
                }
            }
        }
    }
    Ok(())
}

/// The full stored agreement grid as one scenario document.
fn reference_doc() -> String {
    let all: Vec<String> = (0..GRID_STEPS).map(grid_value).collect();
    agreement_doc("x4-grid", &all, &all)
}

/// Writes the serve store: real results of the whole agreement grid
/// (computed through the batch runner), then filler records in the
/// result codec under seeded keys (`cache::encode_result` + `Store::put`).
fn fill_store(rng: &mut Rng, dir: &Path) -> Result<(), String> {
    let reference = reference_doc();
    fs::write(dir.join("reference.scn"), &reference).map_err(|e| e.to_string())?;
    let store = Store::open(dir.join("store")).map_err(|e| format!("open store: {e}"))?;
    let file = ScenarioFile::parse(&reference).map_err(|e| e.to_string())?;
    run_file_with(
        &file,
        &BatchOptions {
            jobs: Some(1),
            store: Some(&store),
        },
    )
    .map_err(|e| e.to_string())?;
    for _ in 0..FILLER_RECORDS {
        let result = filler_result(rng);
        store
            .put(rng.next_u64(), &cache::encode_result(&result))
            .map_err(|e| format!("store put: {e}"))?;
    }
    store.sync().map_err(|e| format!("store sync: {e}"))
}

/// A plausible counting-engine result with `FILLER_PROBES` probes.
fn filler_result(rng: &mut Rng) -> PointResult {
    let good = 1000 + rng.below(100_000) as usize;
    let accepted = rng.below(good as u64 + 1) as usize;
    let probes = (0..FILLER_PROBES)
        .map(|_| {
            let (x, y) = (rng.below(1024) as u32, rng.below(1024) as u32);
            ProbeResult {
                x,
                y,
                node: (y * 1024 + x) as usize,
                probe: Probe {
                    tally_true: rng.below(5000),
                    tally_wrong: rng.below(5000),
                    decided_neighbors: rng.below(80) as usize,
                    accepted: None,
                    phase: rng.below(4),
                    conflicts: 0,
                },
            }
        })
        .collect();
    PointResult {
        point: Vec::new(),
        outcome: EngineOutcome::Counting(CountingOutcome {
            good_nodes: good,
            accepted_true: accepted,
            wrong_accepts: 0,
            waves: rng.below(2000) as usize,
            good_copies_sent: rng.below(1 << 30),
            source_copies_sent: rng.below(100),
            adversary_spent: rng.below(1 << 20),
        }),
        probes,
    }
}

/// A digest of every file under `dir` (names and bytes, in name
/// order), for the determinism self-test.
///
/// # Errors
///
/// I/O failures reading the tree.
pub fn digest(dir: &Path) -> io::Result<String> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(fs::DirEntry::file_name);
    let mut out = String::new();
    for e in entries {
        let path = e.path();
        if path.is_dir() {
            let inner = digest(&path)?;
            writeln!(out, "{}/\n{inner}", e.file_name().to_string_lossy()).expect("String write");
        } else {
            let bytes = fs::read(&path)?;
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in &bytes {
                h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
            }
            writeln!(
                out,
                "{} {} {h:016x}",
                e.file_name().to_string_lossy(),
                bytes.len()
            )
            .expect("String write");
        }
    }
    Ok(out)
}
