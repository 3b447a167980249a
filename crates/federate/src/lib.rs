//! **bftbcast-federate** — the sweep federation coordinator.
//!
//! A sweep is embarrassingly parallel at the point level, and every
//! point's identity is already a content hash (the store key). This
//! crate exploits both: it expands any `.scn` sweep into points,
//! shards the points across N `bftbcast serve` backends by FNV-1a
//! **rendezvous hashing** over the point key, fans out over the
//! JSON-lines client with its retry policy, streams rows back in
//! arrival order tagged with their origin backend, and reassembles
//! them in sweep order — so the final output is bit-identical to a
//! local `run --scenario` of the same file.
//!
//! # Sharding
//!
//! [`assign`] gives point `k` to the backend maximizing
//! `fnv1a(k_le ‖ addr)` (highest random weight). Rendezvous hashing
//! makes the assignment *consistent*: adding or removing a backend
//! moves only the points that hashed to it, so two runs against
//! overlapping backend sets re-hit the same shard-local store entries
//! instead of reshuffling everything.
//!
//! # Failover
//!
//! Each backend worker drives its shard point by point (submit →
//! results) under the client's [`RetryPolicy`]. When a point exhausts
//! its retries on a *transport* error (refused, reset, dropped reply —
//! the backend is gone), the worker marks its backend dead and the
//! unfinished remainder of the shard is re-sharded across the
//! survivors. This is safe with no coordination protocol at all:
//! stores are write-once and computes single-flight, so a point that
//! actually completed on the dead backend is simply recomputed (or
//! served warm) elsewhere with an identical row. A *permanent* error
//! (the server rejected the spec) aborts the run — every backend
//! would reject the same request.
//!
//! # Consolidation
//!
//! After a federated run each backend's store holds its shard.
//! `bftbcast store merge`/`store sync`
//! ([`bftbcast_store::merge`]) fold the shards into one warm store
//! that replays the whole sweep with `hits == points`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::io;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

use bftbcast::batch::label_fields;
use bftbcast::json::{Json, Object};
use bftbcast::spec::EngineSpec;
use bftbcast::ScenarioFile;
use bftbcast_server::client::{self, RetryPolicy};
use bftbcast_store::fnv1a;

/// Tunables for one federated run.
#[derive(Debug, Clone, Default)]
pub struct FederateOptions {
    /// Per-request retry policy on every backend interaction
    /// (preflight ping, submit, results). Exhausting it on a transport
    /// error is what declares a backend dead.
    pub retry: RetryPolicy,
}

/// One result row arriving from a backend, in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Sweep-order index of the point this row answers.
    pub point: usize,
    /// Origin backend address.
    pub backend: String,
    /// Whether the backend answered from its store (warm) rather than
    /// simulating.
    pub warm: bool,
    /// The JSONL result row, sweep label reattached — byte-identical
    /// to the row a local run would emit for this point.
    pub row: String,
}

/// Per-backend accounting for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendSummary {
    /// The backend's address as given.
    pub addr: String,
    /// Points assigned by the initial rendezvous shard.
    pub assigned: usize,
    /// Points this backend actually answered.
    pub completed: usize,
    /// Points this backend lost to the survivors when it died mid-run
    /// (0 for a healthy backend, and for a death with no survivors
    /// left to take the shard).
    pub failed_over: usize,
    /// The backend was declared dead mid-run (or failed preflight) and
    /// its unfinished shard failed over.
    pub dead: bool,
}

/// What a federated run produced.
#[derive(Debug, Clone)]
pub struct FederateReport {
    /// Scenario name.
    pub name: String,
    /// Total expanded points.
    pub points: usize,
    /// Result rows in sweep order — bit-identical to a local
    /// `run --scenario` of the same file.
    pub rows: Vec<String>,
    /// The same rows in arrival order, tagged with origin backend.
    pub arrivals: Vec<Arrival>,
    /// Per-backend accounting, in the caller's backend order.
    pub backends: Vec<BackendSummary>,
    /// Points that had to be reassigned after a backend died.
    pub failovers: usize,
    /// Backend-reported cache hits summed over all points.
    pub cache_hits: usize,
    /// Backend-reported cache misses summed over all points.
    pub cache_misses: usize,
}

/// Rendezvous (highest-random-weight) assignment: the index into
/// `backends` whose `fnv1a(key_le ‖ addr)` weight is largest. Ties
/// break toward the lower index; `None` for an empty backend list.
///
/// The hash is the store's own FNV-1a, so the shard function is as
/// stable across processes and platforms as the store keys themselves.
pub fn assign(key: u64, backends: &[&str]) -> Option<usize> {
    backends
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            let mut bytes = Vec::with_capacity(8 + addr.len());
            bytes.extend_from_slice(&key.to_le_bytes());
            bytes.extend_from_slice(addr.as_bytes());
            (fnv1a(&bytes), i)
        })
        // max_by_key returns the *last* max; invert the index so ties
        // break toward the first backend.
        .max_by_key(|&(w, i)| (w, usize::MAX - i))
        .map(|(_, i)| i)
}

/// Reattaches a sweep label to a backend row. Backends receive
/// label-free specs (labels are presentation, not configuration), so
/// their rows carry `"point":{}`; the coordinator owns the labels and
/// splices them back so federated rows match local rows byte for byte.
fn reattach_label(row: &str, label: &[(String, String)]) -> String {
    if label.is_empty() {
        return row.to_string();
    }
    let point = label_fields(Object::new(), label).render();
    row.replacen("\"point\":{}", &format!("\"point\":{point}"), 1)
}

/// Pulls `cache_hits`/`cache_misses` out of a results trailer.
fn trailer_counters(trailer: &str) -> (u64, u64) {
    let doc = Json::parse(trailer).ok();
    let field = |key: &str| {
        doc.as_ref()
            .and_then(|d| d.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    (field("cache_hits"), field("cache_misses"))
}

/// Drives one point through one backend: submit the spec, wait for the
/// single result row, fold in the trailer's cache counters.
fn run_point(addr: &str, spec_json: &str, retry: &RetryPolicy) -> io::Result<(String, bool)> {
    let job = client::submit_spec_with(addr, spec_json, retry)?;
    let (mut rows, trailer) = client::results_with(addr, &job, retry)?;
    if rows.len() != 1 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("backend {addr} returned {} rows for one point", rows.len()),
        ));
    }
    let (hits, _) = trailer_counters(&trailer);
    Ok((rows.remove(0), hits > 0))
}

/// Shared coordinator state: per-backend work queues plus liveness.
struct PoolState {
    queues: Vec<VecDeque<usize>>,
    live: Vec<bool>,
    /// Points not yet answered (counts down to run completion).
    remaining: usize,
    /// A permanent error that aborts the whole run.
    fatal: Option<String>,
    /// Points reassigned after a backend death.
    failovers: usize,
    /// Per-backend: points this backend lost to the survivors.
    failed_over: Vec<usize>,
}

struct Pool {
    state: Mutex<PoolState>,
    changed: Condvar,
}

enum Event {
    Arrived(Arrival),
    /// Backend index died; carries the transport error and how many
    /// points failed over (0 when no survivors could take them).
    Died(usize, String),
}

/// Federates `file` across `backends`, invoking `on_arrival` for every
/// row as it lands (arrival order, tagged with its origin backend).
/// See the [crate docs](self) for sharding and failover semantics.
///
/// # Errors
///
/// * No backend answers the preflight ping.
/// * Every backend holding part of the sweep dies before the run
///   completes.
/// * A backend permanently rejects a spec (`InvalidData`/`Other` — the
///   request itself is broken, so no failover would help).
pub fn run_with(
    file: &ScenarioFile,
    backends: &[String],
    opts: &FederateOptions,
    mut on_arrival: impl FnMut(&Arrival),
) -> io::Result<FederateReport> {
    if backends.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "federate needs at least one --addr backend",
        ));
    }
    let specs = file
        .specs()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("bad scenario: {e}")))?;
    let spec_json: Vec<String> = specs.iter().map(EngineSpec::to_json).collect();
    let keys: Vec<u64> = specs.iter().map(EngineSpec::cache_key).collect();
    let points = file.points();

    // Preflight: every backend must pong before it gets a shard. A
    // backend that is down now is simply left out of the rendezvous —
    // the consistent hash means the others keep their usual points.
    let mut live: Vec<bool> = Vec::with_capacity(backends.len());
    for addr in backends {
        live.push(client::ping_with(addr, &opts.retry).is_ok());
    }
    if !live.iter().any(|&ok| ok) {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("no backend answered ping (tried {})", backends.join(", ")),
        ));
    }

    // Initial shard: rendezvous over the live backends only.
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); backends.len()];
    let mut assigned = vec![0usize; backends.len()];
    for (i, &key) in keys.iter().enumerate() {
        let b = assign_live(key, backends, &live).expect("at least one live backend");
        queues[b].push_back(i);
        assigned[b] += 1;
    }

    let pool = Pool {
        state: Mutex::new(PoolState {
            queues,
            live: live.clone(),
            remaining: keys.len(),
            fatal: None,
            failovers: 0,
            failed_over: vec![0; backends.len()],
        }),
        changed: Condvar::new(),
    };
    let (tx, rx) = mpsc::channel::<Event>();

    let mut arrivals: Vec<Arrival> = Vec::with_capacity(keys.len());
    let mut completed = vec![0usize; backends.len()];
    let mut dead: Vec<bool> = live.iter().map(|&ok| !ok).collect();
    std::thread::scope(|scope| {
        for (b, addr) in backends.iter().enumerate() {
            if !live[b] {
                continue;
            }
            let pool = &pool;
            let tx = tx.clone();
            let spec_json = &spec_json;
            let keys = &keys;
            let retry = &opts.retry;
            scope.spawn(move || worker(b, addr, backends, pool, spec_json, keys, retry, &tx));
        }
        drop(tx);
        // The receive loop *is* the stream: rows surface to the caller
        // the moment they arrive, while other shards are still running.
        while let Ok(event) = rx.recv() {
            match event {
                Event::Arrived(arrival) => {
                    completed[backend_index(backends, &arrival.backend)] += 1;
                    on_arrival(&arrival);
                    arrivals.push(arrival);
                }
                Event::Died(b, _err) => dead[b] = true,
            }
        }
    });

    let st = pool.state.into_inner().expect("pool lock");
    if let Some(fatal) = st.fatal {
        return Err(io::Error::other(fatal));
    }
    if st.remaining > 0 {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            format!(
                "{} of {} points unanswered: every backend holding them died",
                st.remaining,
                keys.len()
            ),
        ));
    }

    // Reassemble in sweep order, reattaching the labels the specs
    // deliberately dropped.
    let mut rows: Vec<Option<String>> = vec![None; keys.len()];
    let mut hits = 0usize;
    let mut misses = 0usize;
    for arrival in &arrivals {
        if arrival.warm {
            hits += 1;
        } else {
            misses += 1;
        }
        rows[arrival.point] = Some(reattach_label(&arrival.row, &points[arrival.point].label));
    }
    let rows = rows
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .expect("remaining == 0 means every point has a row");

    Ok(FederateReport {
        name: file.name.clone(),
        points: keys.len(),
        rows,
        arrivals,
        backends: backends
            .iter()
            .enumerate()
            .map(|(b, addr)| BackendSummary {
                addr: addr.clone(),
                assigned: assigned[b],
                completed: completed[b],
                failed_over: st.failed_over[b],
                dead: dead[b],
            })
            .collect(),
        failovers: st.failovers,
        cache_hits: hits,
        cache_misses: misses,
    })
}

/// [`run_with`] without an arrival callback.
///
/// # Errors
///
/// As [`run_with`].
pub fn run(
    file: &ScenarioFile,
    backends: &[String],
    opts: &FederateOptions,
) -> io::Result<FederateReport> {
    run_with(file, backends, opts, |_| {})
}

/// Rendezvous over the subset of `backends` marked live.
fn assign_live(key: u64, backends: &[String], live: &[bool]) -> Option<usize> {
    let candidates: Vec<(usize, &str)> = backends
        .iter()
        .enumerate()
        .filter(|&(i, _)| live[i])
        .map(|(i, a)| (i, a.as_str()))
        .collect();
    let addrs: Vec<&str> = candidates.iter().map(|&(_, a)| a).collect();
    assign(key, &addrs).map(|winner| candidates[winner].0)
}

fn backend_index(backends: &[String], addr: &str) -> usize {
    backends
        .iter()
        .position(|a| a == addr)
        .expect("arrival from a known backend")
}

/// One backend's worker: drains its queue point by point, parks when
/// the queue is empty (failover may refill it), and on a transport
/// failure re-shards its unfinished points across the survivors.
#[allow(clippy::too_many_arguments)]
fn worker(
    b: usize,
    addr: &str,
    backends: &[String],
    pool: &Pool,
    spec_json: &[String],
    keys: &[u64],
    retry: &RetryPolicy,
    tx: &mpsc::Sender<Event>,
) {
    loop {
        let i = {
            let mut st = pool.state.lock().expect("pool lock");
            loop {
                if st.remaining == 0 || st.fatal.is_some() || !st.live[b] {
                    return;
                }
                if let Some(i) = st.queues[b].pop_front() {
                    break i;
                }
                st = pool.changed.wait(st).expect("pool lock");
            }
        };
        match run_point(addr, &spec_json[i], retry) {
            Ok((row, warm)) => {
                {
                    let mut st = pool.state.lock().expect("pool lock");
                    st.remaining -= 1;
                }
                // Wake parked workers so they can observe completion.
                pool.changed.notify_all();
                let _ = tx.send(Event::Arrived(Arrival {
                    point: i,
                    backend: addr.to_string(),
                    warm,
                    row,
                }));
            }
            Err(e) if client::is_retryable(&e) => {
                // The backend is gone (retries exhausted on transport):
                // mark it dead and re-shard everything it still owed —
                // this point plus its queued remainder — across the
                // survivors. Write-once stores make the handoff
                // idempotent even if the dead backend had actually
                // finished some of them.
                let mut st = pool.state.lock().expect("pool lock");
                st.live[b] = false;
                let mut unfinished: Vec<usize> = vec![i];
                unfinished.extend(st.queues[b].drain(..));
                if st.live.iter().any(|&ok| ok) {
                    st.failovers += unfinished.len();
                    st.failed_over[b] += unfinished.len();
                    for p in unfinished {
                        let next = assign_live(keys[p], backends, &st.live)
                            .expect("a live backend exists");
                        st.queues[next].push_back(p);
                    }
                } else {
                    // Nobody left to take the shard; the run reports
                    // the shortfall via `remaining`.
                }
                drop(st);
                pool.changed.notify_all();
                let _ = tx.send(Event::Died(b, e.to_string()));
                return;
            }
            Err(e) => {
                // Permanent rejection: the request itself is broken, so
                // the whole run aborts rather than replaying the same
                // rejection against every backend.
                let mut st = pool.state.lock().expect("pool lock");
                st.fatal = Some(format!("backend {addr} rejected point {i}: {e}"));
                drop(st);
                pool.changed.notify_all();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftbcast_server::Server;
    use bftbcast_store::Store;
    use std::sync::Arc;

    const MINI: &str = concat!(
        "name = \"mini\"\n",
        "[topology]\nside = 15\nr = 1\n",
        "[faults]\nt = 1\nmf = 4\n",
        "[placement]\nkind = \"lattice\"\n",
        "[protocol]\nkind = \"starved\"\nm = 4\n",
        "[sweep]\nm = [2, 4, 6, 8]\n",
    );

    fn start_backend() -> (String, std::thread::JoinHandle<io::Result<()>>) {
        let server = Server::bind("127.0.0.1:0", Arc::new(Store::in_memory()), Some(2)).unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.serve());
        (addr, handle)
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            attempts: 2,
            base_delay: std::time::Duration::from_millis(1),
            seed: 3,
        }
    }

    #[test]
    fn assign_is_deterministic_and_covers_all_backends() {
        let backends = ["a:1", "b:2", "c:3"];
        let mut seen = [false; 3];
        for key in 0..256u64 {
            let b = assign(key, &backends).unwrap();
            assert_eq!(b, assign(key, &backends).unwrap(), "deterministic");
            seen[b] = true;
        }
        assert_eq!(seen, [true; 3], "256 keys spread over 3 backends");
        assert_eq!(assign(7, &[]), None);
    }

    /// The rendezvous property: removing one backend moves *only* the
    /// points that were assigned to it.
    #[test]
    fn removing_a_backend_only_moves_its_points() {
        let full = ["a:1", "b:2", "c:3"];
        let without_c = ["a:1", "b:2"];
        for key in 0..512u64 {
            let before = assign(key, &full).unwrap();
            let after = assign(key, &without_c).unwrap();
            if before < 2 {
                assert_eq!(before, after, "key {key} moved although c was not its home");
            }
        }
    }

    #[test]
    fn labels_reattach_byte_identically() {
        let row = "{\"scenario\":\"mini\",\"engine\":\"counting\",\"point\":{},\"outcome\":{\"kind\":\"counting\"},\"probes\":[]}";
        let label = vec![("m".to_string(), "2".to_string())];
        assert_eq!(
            reattach_label(row, &label),
            "{\"scenario\":\"mini\",\"engine\":\"counting\",\"point\":{\"m\":2},\"outcome\":{\"kind\":\"counting\"},\"probes\":[]}"
        );
        assert_eq!(reattach_label(row, &[]), row, "no label, no change");
        // Name axes are quoted exactly as a local run quotes them.
        let label = vec![
            ("protocol".to_string(), "ctrbc".to_string()),
            ("payload".to_string(), "256".to_string()),
        ];
        assert_eq!(
            reattach_label(row, &label),
            "{\"scenario\":\"mini\",\"engine\":\"counting\",\"point\":{\"protocol\":\"ctrbc\",\"payload\":256},\"outcome\":{\"kind\":\"counting\"},\"probes\":[]}"
        );
    }

    /// Two live backends: the federated rows equal a local run's rows
    /// byte for byte, every point arrives exactly once, and the shard
    /// split matches the rendezvous function.
    #[test]
    fn federated_sweep_matches_a_local_run() {
        let file = ScenarioFile::parse(MINI).unwrap();
        let local = bftbcast::batch::run_file_with(
            &file,
            &bftbcast::batch::BatchOptions {
                jobs: Some(2),
                store: None,
            },
        )
        .unwrap();
        let local_rows: Vec<String> = local.jsonl().lines().map(str::to_string).collect();

        let (addr_a, handle_a) = start_backend();
        let (addr_b, handle_b) = start_backend();
        let backends = vec![addr_a.clone(), addr_b.clone()];
        let mut streamed = 0usize;
        let report = run_with(&file, &backends, &FederateOptions::default(), |arrival| {
            assert!(backends.contains(&arrival.backend));
            streamed += 1;
        })
        .unwrap();

        assert_eq!(report.points, 4);
        assert_eq!(streamed, 4, "every row streamed on arrival");
        assert_eq!(report.rows, local_rows, "federated == local, byte for byte");
        assert_eq!(report.failovers, 0);
        assert_eq!(report.cache_misses, 4, "cold backends simulate");
        let total: usize = report.backends.iter().map(|s| s.completed).sum();
        assert_eq!(total, 4);
        for summary in &report.backends {
            assert_eq!(summary.assigned, summary.completed);
            assert_eq!(summary.failed_over, 0);
            assert!(!summary.dead);
        }

        // A second federated run replays warm from the shard stores.
        let warm = run(&file, &backends, &FederateOptions::default()).unwrap();
        assert_eq!(warm.rows, local_rows);
        assert_eq!(warm.cache_hits, 4);
        assert_eq!(warm.cache_misses, 0);

        client::shutdown(&addr_a).unwrap();
        client::shutdown(&addr_b).unwrap();
        handle_a.join().unwrap().unwrap();
        handle_b.join().unwrap().unwrap();
    }

    /// A backend that dies after preflight: its shard fails over to the
    /// survivor and the run still completes 100% with identical rows.
    #[test]
    fn mid_run_backend_death_fails_over_to_survivors() {
        let file = ScenarioFile::parse(MINI).unwrap();
        let (addr_live, handle) = start_backend();

        // The doomed backend pongs the preflight, then its listener is
        // dropped: every later connect is refused, which after the
        // retry budget marks it dead. Rendezvous hashes over ephemeral
        // port strings, so rebind until the doomed address actually
        // owns part of the shard — an empty shard would never touch
        // the dead socket and the death would go unobserved.
        let keys: Vec<u64> = file
            .specs()
            .unwrap()
            .iter()
            .map(EngineSpec::cache_key)
            .collect();
        let (doomed, addr_doomed) = loop {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = l.local_addr().unwrap().to_string();
            let pair = [addr_live.as_str(), addr.as_str()];
            if keys.iter().any(|&k| assign(k, &pair) == Some(1)) {
                break (l, addr);
            }
        };
        let pong = std::thread::spawn(move || {
            use std::io::{BufRead, BufReader, Write};
            let (stream, _) = doomed.accept().unwrap();
            let mut line = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut line)
                .unwrap();
            let mut out = stream;
            writeln!(out, "{{\"ok\":true,\"pong\":true,\"proto\":1}}").unwrap();
            // Listener drops here; the port goes dark.
        });

        let backends = vec![addr_live.clone(), addr_doomed.clone()];
        let report = run_with(
            &file,
            &backends,
            &FederateOptions {
                retry: fast_retry(),
            },
            |_| {},
        )
        .unwrap();
        pong.join().unwrap();

        assert_eq!(report.rows.len(), 4, "100% completion despite the death");
        let doomed_summary = &report.backends[1];
        assert!(doomed_summary.dead);
        assert!(doomed_summary.assigned > 0, "it did get a shard");
        assert_eq!(doomed_summary.completed, 0);
        assert_eq!(
            doomed_summary.failed_over, doomed_summary.assigned,
            "everything it owed moved to the survivor"
        );
        assert_eq!(report.failovers, doomed_summary.assigned);
        assert_eq!(report.backends[0].completed, 4, "the survivor took it all");
        assert_eq!(
            report.backends[0].failed_over, 0,
            "the survivor lost nothing"
        );

        client::shutdown(&addr_live).unwrap();
        handle.join().unwrap().unwrap();
    }

    /// A backend that never answers preflight is left out of the shard;
    /// no backends at all is an error.
    #[test]
    fn preflight_drops_dark_backends() {
        let dark = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let file = ScenarioFile::parse(MINI).unwrap();
        let err = run(
            &file,
            std::slice::from_ref(&dark),
            &FederateOptions {
                retry: fast_retry(),
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);

        let (addr, handle) = start_backend();
        let report = run(
            &file,
            &[dark, addr.clone()],
            &FederateOptions {
                retry: fast_retry(),
            },
        )
        .unwrap();
        assert_eq!(report.rows.len(), 4);
        assert!(report.backends[0].dead, "dark backend reported as such");
        assert_eq!(report.backends[0].assigned, 0);
        assert_eq!(report.backends[0].failed_over, 0);
        assert_eq!(report.failovers, 0, "dropped at preflight, not failover");

        client::shutdown(&addr).unwrap();
        handle.join().unwrap().unwrap();

        let err = run(&file, &[], &FederateOptions::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
