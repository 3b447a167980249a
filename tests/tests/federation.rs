//! End-to-end federation (PR 8): shard a sweep across three real
//! `bftbcast-server` backends over TCP, check the reassembled rows
//! against a local run, then merge the shard stores back into one and
//! replay the whole sweep warm.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bftbcast::{BatchOptions, ScenarioFile};
use bftbcast_federate::{assign, run_with, Arrival, FederateOptions};
use bftbcast_server::{client, Server};
use bftbcast_store::merge::merge;
use bftbcast_store::Store;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bftbcast-federation-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scenario(name: &str) -> ScenarioFile {
    let path = format!("{}/../scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    ScenarioFile::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// A backend: a serve loop on an ephemeral port over an on-disk store.
struct Backend {
    addr: String,
    dir: std::path::PathBuf,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn spawn_backend(tag: &str) -> Backend {
    let dir = scratch(tag);
    let store = Arc::new(Store::open(&dir).unwrap());
    let server = Server::bind("127.0.0.1:0", store, None).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.serve());
    Backend { addr, dir, handle }
}

fn stop(backend: Backend) -> std::path::PathBuf {
    client::shutdown(&backend.addr).unwrap();
    backend.handle.join().unwrap().unwrap();
    backend.dir
}

fn local_rows(file: &ScenarioFile) -> Vec<String> {
    let report = bftbcast::run_file_with(
        file,
        &BatchOptions {
            jobs: None,
            store: None,
        },
    )
    .unwrap();
    report.jsonl().lines().map(str::to_string).collect()
}

#[test]
fn three_backends_reproduce_the_f2_goldens_over_real_sockets() {
    let file = scenario("f2.scn");
    let backends: Vec<Backend> = (0..3).map(|i| spawn_backend(&format!("f2-{i}"))).collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();
    let opts = FederateOptions::default();

    let cold = run_with(&file, &addrs, &opts, |_| {}).unwrap();
    assert_eq!(cold.points, 1);
    assert_eq!(cold.rows, local_rows(&file), "federated == local");
    assert_eq!((cold.cache_hits, cold.cache_misses), (0, 1));
    let row = &cold.rows[0];
    for needle in [
        "\"intake\":2065",
        "\"intake\":1947",
        "\"tally_wrong\":947",
        "\"accepted_true\":84",
    ] {
        assert!(row.contains(needle), "{needle} missing:\n{row}");
    }

    // Resubmitting the identical sweep replays from the shard store.
    let warm = run_with(&file, &addrs, &opts, |_| {}).unwrap();
    assert_eq!(warm.rows, cold.rows, "warm replay is bit-identical");
    assert_eq!((warm.cache_hits, warm.cache_misses), (1, 0));
    assert!(warm.arrivals.iter().all(|a: &Arrival| a.warm));

    for backend in backends {
        std::fs::remove_dir_all(stop(backend)).ok();
    }
}

#[test]
fn sharded_sweep_merges_back_into_one_warm_store() {
    let file = scenario("t1.scn");
    let backends: Vec<Backend> = (0..3).map(|i| spawn_backend(&format!("t1-{i}"))).collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();

    let report = run_with(&file, &addrs, &FederateOptions::default(), |_| {}).unwrap();
    let expected = local_rows(&file);
    assert_eq!(report.points, expected.len());
    assert_eq!(report.rows, expected, "reassembly preserves sweep order");
    assert_eq!(report.failovers, 0);
    let completed: usize = report.backends.iter().map(|b| b.completed).sum();
    assert_eq!(
        completed, report.points,
        "every point answered exactly once"
    );
    // Each backend answered exactly the points rendezvous hashing
    // assigns it over these (ephemeral) addresses.
    let names: Vec<&str> = addrs.iter().map(String::as_str).collect();
    let mut expected_share = vec![0usize; addrs.len()];
    for spec in file.specs().unwrap() {
        expected_share[assign(spec.cache_key(), &names).unwrap()] += 1;
    }
    let share: Vec<usize> = report.backends.iter().map(|b| b.completed).collect();
    assert_eq!(share, expected_share, "{:?}", report.backends);

    // Drain the backends (shutdown fsyncs each shard store) and merge
    // the shards into a single fresh store.
    let shards: Vec<std::path::PathBuf> = backends.into_iter().map(stop).collect();
    let merged = scratch("t1-merged");
    let mut imported = 0;
    for shard in &shards {
        imported += merge(&merged, shard).unwrap().imported;
    }
    assert_eq!(imported, report.points, "shards union to the full sweep");

    // The merged store replays the whole sweep warm, bit-identically.
    let store = Store::open(&merged).unwrap();
    let replay = bftbcast::run_file_with(
        &file,
        &BatchOptions {
            jobs: None,
            store: Some(&store),
        },
    )
    .unwrap();
    assert_eq!(
        (replay.cache_hits, replay.cache_misses),
        (report.points, 0),
        "hits == points, misses == 0"
    );
    let rows: Vec<String> = replay.jsonl().lines().map(str::to_string).collect();
    assert_eq!(rows, expected, "merged-store replay is bit-identical");

    for dir in shards.into_iter().chain([merged]) {
        std::fs::remove_dir_all(dir).ok();
    }
}
