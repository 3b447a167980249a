//! The TCP service: listener, per-connection handlers, and the job
//! worker feeding the batch runner through the outcome store.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use bftbcast::batch::{replay_file_with, run_file_with, BatchOptions};
use bftbcast::json::Object;
use bftbcast::report;
use bftbcast::spec::EngineSpec;
use bftbcast::ScenarioFile;
use bftbcast_store::Store;

use crate::proto::{Request, Submission};

/// A queued/running/finished job.
struct Job {
    id: String,
    name: String,
    points: usize,
    /// The scenario: run by the worker, then replayed from the store
    /// by every `results` request to rebuild the rows, so a finished
    /// job holds its configuration rather than its output.
    file: Arc<ScenarioFile>,
    state: JobState,
}

enum JobState {
    Queued,
    Running,
    Done {
        rows: usize,
        hits: usize,
        misses: usize,
    },
    Failed(String),
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed(_) => "failed",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done { .. } | JobState::Failed(_))
    }
}

struct State {
    jobs: Vec<Job>,
    queue: VecDeque<usize>,
    shutdown: bool,
}

/// Tunables for a [`Server`], beyond the bind address and store.
///
/// The defaults are what `Server::bind` has always done plus the PR 6
/// robustness bounds: a 64-job queue and a 60-second deadline on every
/// connection read *and* write, so neither a silent client nor a dead
/// one can pin a server thread indefinitely.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker-pool cap per batch, exactly like `run --scenario --jobs`
    /// (`None` = one worker per available core).
    pub jobs: Option<usize>,
    /// Maximum *queued* (not yet running) jobs; a submit past the cap
    /// gets an explicit retryable backpressure reply instead of growing
    /// server memory without bound.
    pub queue_cap: usize,
    /// Read and write deadline applied to every connection stream.
    pub io_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            jobs: None,
            queue_cap: 64,
            io_timeout: Duration::from_secs(60),
        }
    }
}

struct Shared {
    store: Arc<Store>,
    opts: ServeOptions,
    addr: SocketAddr,
    state: Mutex<State>,
    /// Signalled on every job/queue/shutdown transition.
    changed: Condvar,
}

/// The sweep service: see the [crate docs](crate) for the protocol.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.shared.addr)
            .finish()
    }
}

impl Server {
    /// Binds the service (not yet accepting — call [`Server::serve`]).
    /// `jobs` caps each batch's worker pool, exactly like
    /// `run --scenario --jobs`; everything else takes the
    /// [`ServeOptions`] defaults.
    ///
    /// # Errors
    ///
    /// Socket errors, or `jobs == Some(0)` (`InvalidInput`).
    pub fn bind(
        addr: impl ToSocketAddrs,
        store: Arc<Store>,
        jobs: Option<usize>,
    ) -> io::Result<Server> {
        Self::bind_with(
            addr,
            store,
            ServeOptions {
                jobs,
                ..ServeOptions::default()
            },
        )
    }

    /// [`Server::bind`] with every tunable exposed.
    ///
    /// # Errors
    ///
    /// Socket errors, `jobs == Some(0)`, or `queue_cap == 0`
    /// (`InvalidInput`).
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        store: Arc<Store>,
        opts: ServeOptions,
    ) -> io::Result<Server> {
        if opts.jobs == Some(0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "--jobs: worker count must be at least 1",
            ));
        }
        if opts.queue_cap == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "--queue: job queue capacity must be at least 1",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                store,
                opts,
                addr,
                state: Mutex::new(State {
                    jobs: Vec::new(),
                    queue: VecDeque::new(),
                    shutdown: false,
                }),
                changed: Condvar::new(),
            }),
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Accepts and serves connections until a `shutdown` request, then
    /// drains the remaining queue, flushes the store to stable storage
    /// (`fsync`), and returns — so a shutdown ack means every accepted
    /// job's outcomes survive a host crash immediately after.
    ///
    /// # Errors
    ///
    /// Fatal listener errors or a failed final store flush;
    /// per-connection I/O failures are contained to their connection
    /// thread.
    pub fn serve(self) -> io::Result<()> {
        let worker = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || worker_loop(&shared))
        };
        for conn in self.listener.incoming() {
            if let Ok(stream) = conn {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || handle_connection(stream, &shared));
            }
            if self.shared.state.lock().expect("server lock").shutdown {
                break;
            }
        }
        worker.join().expect("worker thread panicked");
        self.shared.store.sync()
    }
}

/// The single queue consumer: pops jobs in submission order and runs
/// each through the cached batch runner (which fans the job's points
/// over its own worker pool).
fn worker_loop(shared: &Shared) {
    loop {
        let (idx, file) = {
            let mut st = shared.state.lock().expect("server lock");
            loop {
                if let Some(idx) = st.queue.pop_front() {
                    st.jobs[idx].state = JobState::Running;
                    break (idx, Arc::clone(&st.jobs[idx].file));
                }
                if st.shutdown {
                    return;
                }
                st = shared.changed.wait(st).expect("server lock");
            }
        };
        shared.changed.notify_all();
        let outcome = run_file_with(
            &file,
            &BatchOptions {
                jobs: shared.opts.jobs,
                store: Some(&shared.store),
            },
        );
        let mut st = shared.state.lock().expect("server lock");
        st.jobs[idx].state = match outcome {
            Ok(report) => JobState::Done {
                rows: report.results.len(),
                hits: report.cache_hits,
                misses: report.cache_misses,
            },
            Err(e) => JobState::Failed(e.to_string()),
        };
        drop(st);
        shared.changed.notify_all();
    }
}

fn error_line(message: &str) -> String {
    Object::new()
        .bool("ok", false)
        .str("error", message)
        .render()
}

/// An error the client may safely retry (transient server state, not a
/// problem with the request itself). The client maps `retryable` onto
/// its backoff policy.
fn retryable_error_line(message: &str) -> String {
    Object::new()
        .bool("ok", false)
        .bool("retryable", true)
        .str("error", message)
        .render()
}

/// Upper bound on one request line. Scenario documents are the only
/// legitimately large payload and run to a few KB; 8 MiB leaves three
/// orders of magnitude of headroom while keeping a hostile client from
/// growing server memory without bound.
const MAX_REQUEST_BYTES: u64 = 8 << 20;

/// Reads the single request line, dispatches, writes the reply lines.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    // A client that connects and never writes — or stops reading while
    // we stream `results`/`report` rows at it — must not pin this
    // thread forever: deadline both directions. (Small replies never
    // hit the write deadline; it fires when the socket buffer fills
    // against a dead reader.)
    let _ = stream.set_read_timeout(Some(shared.opts.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.opts.io_timeout));
    let result: io::Result<()> = (|| {
        use std::io::Read as _;
        let mut reader = BufReader::new(stream.try_clone()?.take(MAX_REQUEST_BYTES));
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let mut out = stream;
        if line.len() as u64 >= MAX_REQUEST_BYTES && !line.ends_with('\n') {
            return writeln!(
                out,
                "{}",
                error_line(&format!("request exceeds {MAX_REQUEST_BYTES} bytes"))
            );
        }
        match Request::parse(line.trim()) {
            Err(e) => writeln!(out, "{}", error_line(&e)),
            Ok(request) => respond(request, shared, &mut out),
        }
    })();
    // Connection errors (client went away) are the client's problem.
    let _ = result;
}

/// Resolves either submission form into the one `ScenarioFile` the job
/// queue runs — inline specs go through `EngineSpec::from_json_value`
/// and `ScenarioFile::from_spec`, so both forms produce identical
/// store keys for identical configurations.
fn file_from_submission(body: &Submission) -> Result<ScenarioFile, String> {
    match body {
        Submission::ScenarioText(text) => {
            ScenarioFile::parse(text).map_err(|e| format!("scenario rejected: {e}"))
        }
        Submission::SpecJson(doc) => EngineSpec::from_json_value(doc)
            .map(|spec| ScenarioFile::from_spec(&spec))
            .map_err(|e| format!("spec rejected: {e}")),
    }
}

fn respond(request: Request, shared: &Shared, out: &mut TcpStream) -> io::Result<()> {
    match request {
        Request::Submit { body } => {
            let reply = match file_from_submission(&body) {
                Err(e) => error_line(&e),
                Ok(file) => {
                    let points = file.points().len();
                    let mut st = shared.state.lock().expect("server lock");
                    if st.shutdown {
                        error_line("server is shutting down")
                    } else if st.queue.len() >= shared.opts.queue_cap {
                        // Explicit backpressure: bounded queue, and the
                        // client is told the rejection is transient.
                        retryable_error_line(&format!(
                            "job queue full ({} queued, cap {})",
                            st.queue.len(),
                            shared.opts.queue_cap
                        ))
                    } else {
                        let idx = st.jobs.len();
                        let id = format!("job-{idx}");
                        let name = file.name.clone();
                        st.jobs.push(Job {
                            id: id.clone(),
                            name: name.clone(),
                            points,
                            file: Arc::new(file),
                            state: JobState::Queued,
                        });
                        st.queue.push_back(idx);
                        drop(st);
                        shared.changed.notify_all();
                        Object::new()
                            .bool("ok", true)
                            .str("job", &id)
                            .str("name", &name)
                            .u64("points", points as u64)
                            .render()
                    }
                }
            };
            writeln!(out, "{reply}")
        }
        Request::Report { body, spec } => {
            // Rendered inline on the connection thread (the job queue
            // is untouched): the store still deduplicates against
            // queued work via single-flight, and a warm store answers
            // with cache_hits == points without simulating.
            let rendered = file_from_submission(&body).and_then(|file| {
                report::render_scenario(
                    &file,
                    &spec,
                    &BatchOptions {
                        jobs: shared.opts.jobs,
                        store: Some(&shared.store),
                    },
                )
                .map_err(|e| format!("report failed: {e}"))
            });
            match rendered {
                Err(e) => writeln!(out, "{}", error_line(&e)),
                Ok(output) => {
                    for figure in &output.figures {
                        let line = Object::new()
                            .bool("ok", true)
                            .str("name", &figure.name)
                            .str("svg", &figure.svg)
                            .render();
                        writeln!(out, "{line}")?;
                    }
                    let trailer = Object::new()
                        .bool("ok", true)
                        .bool("done", true)
                        .u64("figures", output.figures.len() as u64)
                        .u64("cache_hits", output.cache_hits as u64)
                        .u64("cache_misses", output.cache_misses as u64)
                        .render();
                    writeln!(out, "{trailer}")
                }
            }
        }
        Request::Status { job } => {
            let st = shared.state.lock().expect("server lock");
            let reply = match find(&st, &job) {
                None => error_line(&format!("unknown job {job:?}")),
                Some(j) => {
                    let mut o = Object::new()
                        .bool("ok", true)
                        .str("job", &j.id)
                        .str("name", &j.name)
                        .str("state", j.state.name())
                        .u64("points", j.points as u64)
                        .u64("queue_depth", st.queue.len() as u64)
                        .u64("jobs_running", running(&st) as u64);
                    o = match &j.state {
                        JobState::Done { hits, misses, .. } => o
                            .u64("cache_hits", *hits as u64)
                            .u64("cache_misses", *misses as u64),
                        JobState::Failed(e) => o.str("error", e),
                        _ => o,
                    };
                    o.render()
                }
            };
            writeln!(out, "{reply}")
        }
        Request::Results { job } => {
            let mut st = shared.state.lock().expect("server lock");
            let Some(idx) = st.jobs.iter().position(|j| j.id == job) else {
                return writeln!(out, "{}", error_line(&format!("unknown job {job:?}")));
            };
            while !st.jobs[idx].state.is_terminal() {
                st = shared.changed.wait(st).expect("server lock");
            }
            match &st.jobs[idx].state {
                JobState::Done { rows, hits, misses } => {
                    let trailer = Object::new()
                        .bool("ok", true)
                        .bool("done", true)
                        .str("job", &job)
                        .u64("rows", *rows as u64)
                        .u64("cache_hits", *hits as u64)
                        .u64("cache_misses", *misses as u64)
                        .render();
                    let file = Arc::clone(&st.jobs[idx].file);
                    drop(st);
                    // The worker stored every point of the job, so the
                    // replay reads each row back from the store (a
                    // damaged entry is recomputed) off the worker's
                    // queue, on this connection's thread.
                    let replayed = replay_file_with(
                        &file,
                        &BatchOptions {
                            jobs: shared.opts.jobs,
                            store: Some(&shared.store),
                        },
                    );
                    match replayed {
                        Ok(report) => {
                            let mut body = report.jsonl();
                            body.push_str(&trailer);
                            body.push('\n');
                            out.write_all(body.as_bytes())
                        }
                        Err(e) => writeln!(
                            out,
                            "{}",
                            error_line(&format!("job {job} results failed: {e}"))
                        ),
                    }
                }
                JobState::Failed(e) => {
                    let line = error_line(&format!("job {job} failed: {e}"));
                    drop(st);
                    writeln!(out, "{line}")
                }
                _ => unreachable!("waited for a terminal state"),
            }
        }
        Request::Stats { verbose } => {
            let stats = shared.store.stats();
            let st = shared.state.lock().expect("server lock");
            let done = st
                .jobs
                .iter()
                .filter(|j| matches!(j.state, JobState::Done { .. }))
                .count();
            let mut o = Object::new()
                .bool("ok", true)
                .u64("store_entries", stats.entries as u64)
                .u64("store_hits", stats.hits)
                .u64("store_misses", stats.misses)
                .u64("jobs", st.jobs.len() as u64)
                .u64("jobs_done", done as u64)
                .u64("queue_depth", st.queue.len() as u64)
                .u64("jobs_running", running(&st) as u64);
            drop(st);
            if verbose {
                // The per-store breakdown: what is on disk, as the
                // same checksummed scan fsck uses sees it. An
                // in-memory store reports zero bytes.
                let disk = shared
                    .store
                    .dir()
                    .and_then(|dir| bftbcast_store::fsck_report(dir).ok())
                    .unwrap_or_default();
                let recovery = shared.store.recovery();
                o = o
                    .u64("store_bytes", disk.log_bytes)
                    .u64("store_records", disk.valid_records as u64)
                    .u64("store_quarantined_spans", disk.quarantined_spans as u64)
                    .u64("store_quarantined_bytes", disk.quarantined_bytes)
                    .bool("store_recovery_clean", recovery.is_clean());
            }
            writeln!(out, "{}", o.render())
        }
        Request::Ping => {
            // Answered entirely on the connection thread: no queue
            // wait, no store I/O — a wedged worker still pongs, but a
            // dead or mid-start process does not, which is the signal
            // the federation coordinator needs.
            let st = shared.state.lock().expect("server lock");
            let reply = Object::new()
                .bool("ok", true)
                .bool("pong", true)
                .u64("proto", 1)
                .u64("queue_depth", st.queue.len() as u64)
                .u64("queue_cap", shared.opts.queue_cap as u64)
                .u64("jobs_running", running(&st) as u64)
                .bool("accepting", !st.shutdown)
                .render();
            drop(st);
            writeln!(out, "{reply}")
        }
        Request::Shutdown => {
            writeln!(
                out,
                "{}",
                Object::new()
                    .bool("ok", true)
                    .bool("shutting_down", true)
                    .render()
            )?;
            out.flush()?;
            {
                let mut st = shared.state.lock().expect("server lock");
                st.shutdown = true;
            }
            shared.changed.notify_all();
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(shared.addr);
            Ok(())
        }
    }
}

fn find<'a>(st: &'a State, job: &str) -> Option<&'a Job> {
    st.jobs.iter().find(|j| j.id == job)
}

/// Jobs currently running (popped off the queue, not yet terminal).
fn running(st: &State) -> usize {
    st.jobs
        .iter()
        .filter(|j| matches!(j.state, JobState::Running))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    fn start(jobs: Option<usize>) -> (String, std::thread::JoinHandle<io::Result<()>>) {
        let server = Server::bind("127.0.0.1:0", Arc::new(Store::in_memory()), jobs).unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.serve());
        (addr, handle)
    }

    const MINI: &str = concat!(
        "name = \"mini\"\n",
        "[topology]\nside = 15\nr = 1\n",
        "[faults]\nt = 1\nmf = 4\n",
        "[placement]\nkind = \"lattice\"\n",
        "[protocol]\nkind = \"starved\"\nm = 4\n",
        "[sweep]\nm = [2, 8]\n",
    );

    #[test]
    fn submit_results_stats_shutdown_round_trip() {
        let (addr, handle) = start(Some(2));
        let job = client::submit(&addr, MINI).unwrap();
        assert_eq!(job, "job-0");
        let (rows, trailer) = client::results(&addr, &job).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].contains("\"scenario\":\"mini\""), "{}", rows[0]);
        assert!(trailer.contains("\"cache_misses\":2"), "{trailer}");

        // Resubmission: same content, zero engine runs.
        let job2 = client::submit(&addr, MINI).unwrap();
        let (rows2, trailer2) = client::results(&addr, &job2).unwrap();
        assert_eq!(rows2, rows, "warm rows are bit-identical");
        assert!(trailer2.contains("\"cache_hits\":2"), "{trailer2}");
        assert!(trailer2.contains("\"cache_misses\":0"), "{trailer2}");

        let status = client::status(&addr, &job2).unwrap();
        assert!(status.contains("\"state\":\"done\""), "{status}");
        assert!(status.contains("\"cache_hits\":2"), "{status}");

        let stats = client::stats(&addr).unwrap();
        assert!(stats.contains("\"store_entries\":2"), "{stats}");
        assert!(stats.contains("\"jobs_done\":2"), "{stats}");
        assert!(stats.contains("\"queue_depth\":0"), "{stats}");
        assert!(stats.contains("\"jobs_running\":0"), "{stats}");

        client::shutdown(&addr).unwrap();
        handle.join().unwrap().unwrap();
    }

    /// A finished job keeps its scenario, not its rows: each `results`
    /// call replays the rows from the store, and replays are neither
    /// job work nor store lookups — the trailer, `status` and the
    /// store's hit/miss counters all stay where the job left them.
    #[test]
    fn results_replays_identical_rows_without_recounting() {
        let (addr, handle) = start(Some(1));
        let job = client::submit(&addr, MINI).unwrap();
        let first = client::results(&addr, &job).unwrap();
        let status = client::status(&addr, &job).unwrap();
        let stats = client::stats(&addr).unwrap();
        let second = client::results(&addr, &job).unwrap();
        assert_eq!(second, first, "rows and trailer are identical");
        assert_eq!(first.0.len(), 2);
        assert!(first.1.contains("\"rows\":2"), "{}", first.1);
        assert!(first.1.contains("\"cache_misses\":2"), "{}", first.1);
        assert_eq!(client::status(&addr, &job).unwrap(), status);
        assert_eq!(
            client::stats(&addr).unwrap(),
            stats,
            "replays are not counted"
        );
        client::shutdown(&addr).unwrap();
        handle.join().unwrap().unwrap();
    }

    /// A store record damaged on disk after the job finished reads back
    /// as a miss on replay: the point is recomputed and stored again,
    /// and the rows, trailer and status are unchanged.
    #[test]
    fn results_recompute_a_damaged_store_record() {
        let dir = std::env::temp_dir().join(format!(
            "bftbcast-serve-damage-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&store), Some(1)).unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.serve());
        let job = client::submit(&addr, MINI).unwrap();
        let (rows, trailer) = client::results(&addr, &job).unwrap();
        let status = client::status(&addr, &job).unwrap();

        // Flip one bit inside the first record (just past the 8-byte
        // magic), as a failing disk would.
        let log = dir.join("store.log");
        let mut bytes = std::fs::read(&log).unwrap();
        bytes[8 + 30] ^= 0x10;
        std::fs::write(&log, &bytes).unwrap();
        let damaged = client::stats_verbose(&addr).unwrap();
        assert!(damaged.contains("\"store_records\":1"), "{damaged}");

        let replay = client::results(&addr, &job).unwrap();
        assert_eq!(replay, (rows, trailer), "recomputed rows are identical");
        assert_eq!(client::status(&addr, &job).unwrap(), status);
        let repaired = client::stats_verbose(&addr).unwrap();
        assert!(
            repaired.contains("\"store_records\":2"),
            "the damaged point was recomputed and stored again: {repaired}"
        );
        assert!(repaired.contains("\"store_entries\":2"), "{repaired}");
        client::shutdown(&addr).unwrap();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ping_and_verbose_stats_expose_backend_state() {
        let (addr, handle) = start(Some(1));
        let pong = client::ping(&addr).unwrap();
        assert!(pong.contains("\"pong\":true"), "{pong}");
        assert!(pong.contains("\"queue_depth\":0"), "{pong}");
        assert!(pong.contains("\"queue_cap\":64"), "{pong}");
        assert!(pong.contains("\"accepting\":true"), "{pong}");

        // In-memory store: the verbose breakdown reports zero disk
        // bytes but still carries the recovery flag.
        let stats = client::stats_verbose(&addr).unwrap();
        assert!(stats.contains("\"store_bytes\":0"), "{stats}");
        assert!(stats.contains("\"store_recovery_clean\":true"), "{stats}");
        let plain = client::stats(&addr).unwrap();
        assert!(!plain.contains("store_bytes"), "{plain}");
        client::shutdown(&addr).unwrap();
        handle.join().unwrap().unwrap();
    }

    /// The same probe against a file-backed store: the verbose
    /// breakdown reports the real log (bytes > magic, records == 2).
    #[test]
    fn verbose_stats_report_the_on_disk_log() {
        let dir = std::env::temp_dir().join(format!(
            "bftbcast-serve-vstats-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let server = Server::bind("127.0.0.1:0", store, Some(2)).unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.serve());
        let job = client::submit(&addr, MINI).unwrap();
        client::results(&addr, &job).unwrap();
        let stats = client::stats_verbose(&addr).unwrap();
        assert!(stats.contains("\"store_records\":2"), "{stats}");
        assert!(stats.contains("\"store_quarantined_spans\":0"), "{stats}");
        assert!(!stats.contains("\"store_bytes\":0"), "{stats}");
        client::shutdown(&addr).unwrap();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_requests_and_bad_scenarios_are_contained() {
        let (addr, handle) = start(None);
        let lines = client::request(&addr, "this is not json").unwrap();
        assert!(lines[0].contains("\"ok\":false"), "{lines:?}");
        let lines = client::request(&addr, "{\"cmd\":\"status\",\"job\":\"job-9\"}").unwrap();
        assert!(lines[0].contains("unknown job"), "{lines:?}");
        let err = client::submit(&addr, "[teleport]\nx = 1\n").unwrap_err();
        assert!(err.to_string().contains("scenario rejected"), "{err}");
        // The service survives all of the above.
        let job = client::submit(&addr, MINI).unwrap();
        let (rows, _) = client::results(&addr, &job).unwrap();
        assert_eq!(rows.len(), 2);
        client::shutdown(&addr).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_requests_do_not_take_down_the_server() {
        let (addr, handle) = start(None);
        // ~9 MiB in one line: past MAX_REQUEST_BYTES. The server stops
        // reading at the cap and replies (or resets the connection mid
        // upload — either way, bounded memory and a live server).
        let huge = format!(
            "{{\"cmd\":\"submit\",\"scenario\":\"{}\"}}",
            "x".repeat(9 << 20)
        );
        // An Err means the connection reset while still uploading —
        // also acceptable.
        if let Ok(lines) = client::request(&addr, &huge) {
            assert!(lines[0].contains("\"ok\":false"), "{}", lines[0]);
        }
        let stats = client::stats(&addr).unwrap();
        assert!(stats.contains("\"ok\":true"), "{stats}");
        client::shutdown(&addr).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn report_renders_figures_and_warm_replays_from_the_store() {
        let (addr, handle) = start(Some(2));
        // A sweep renders a chart; the cold render computes its points.
        let params = client::ReportParams::default();
        let (figures, trailer) = client::report(&addr, MINI, &params).unwrap();
        assert_eq!(figures.len(), 1);
        assert_eq!(figures[0].0, "mini-chart");
        assert!(figures[0].1.starts_with("<svg"), "{}", figures[0].1);
        assert!(trailer.contains("\"cache_misses\":2"), "{trailer}");

        // Warm replay: same bytes, zero engine runs.
        let (figures2, trailer2) = client::report(&addr, MINI, &params).unwrap();
        assert_eq!(figures2, figures, "warm figures are bit-identical");
        assert!(trailer2.contains("\"cache_hits\":2"), "{trailer2}");
        assert!(trailer2.contains("\"cache_misses\":0"), "{trailer2}");

        // Field/figure options travel; bad ones come back as errors.
        let waves = client::ReportParams {
            field: Some("waves".to_string()),
            ..client::ReportParams::default()
        };
        let (figures3, _) = client::report(&addr, MINI, &waves).unwrap();
        assert!(figures3[0].1.contains("waves vs m"), "{}", figures3[0].1);
        let bad = client::ReportParams {
            field: Some("warp".to_string()),
            ..client::ReportParams::default()
        };
        let err = client::report(&addr, MINI, &bad).unwrap_err();
        assert!(err.to_string().contains("warp"), "{err}");

        client::shutdown(&addr).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn zero_jobs_bound_is_rejected_at_bind() {
        let err = Server::bind("127.0.0.1:0", Arc::new(Store::in_memory()), Some(0)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = Server::bind_with(
            "127.0.0.1:0",
            Arc::new(Store::in_memory()),
            ServeOptions {
                queue_cap: 0,
                ..ServeOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// A full queue answers submits with an explicit, retryable
    /// backpressure reply — and keeps serving once it drains.
    ///
    /// Deterministic setup: the test pre-claims the single-flight
    /// in-flight marker for MINI's first sweep point, so the worker's
    /// first job blocks inside the store (not on a timer) while we fill
    /// the queue to its cap.
    #[test]
    fn full_queue_pushes_back_with_a_retryable_reply() {
        let store = Arc::new(Store::in_memory());
        let server = Server::bind_with(
            "127.0.0.1:0",
            Arc::clone(&store),
            ServeOptions {
                jobs: Some(1),
                queue_cap: 1,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.serve());

        let file = ScenarioFile::parse(MINI).unwrap();
        let key = bftbcast::cache::point_key(file.engine, &file.points()[0], &file.probes);
        let (blocked_tx, blocked_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let blocker = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                // Hold the marker, then *fail* the compute: publishes
                // nothing, so the real worker recomputes the true value
                // and the job's rows stay correct.
                let _ = store.get_or_compute(key, || {
                    blocked_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Err::<Vec<u8>, _>("blocker released")
                });
            })
        };
        blocked_rx.recv().unwrap();

        // job-0 runs (wedged inside the store). Wait until it has
        // actually been popped off the queue: with a cap of 1, job-1
        // fills the queue only once job-0 no longer occupies it.
        let job0 = client::submit(&addr, MINI).unwrap();
        loop {
            let status = client::status(&addr, &job0).unwrap();
            if status.contains("\"state\":\"running\"") {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let job1 = client::submit(&addr, MINI).unwrap();
        let err = client::submit(&addr, MINI).unwrap_err();
        assert!(err.to_string().contains("queue full"), "{err}");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "marked retryable");

        release_tx.send(()).unwrap();
        blocker.join().unwrap();
        let (rows0, _) = client::results(&addr, &job0).unwrap();
        let (rows1, trailer1) = client::results(&addr, &job1).unwrap();
        assert_eq!(rows0, rows1, "drained queue still computes right");
        assert!(trailer1.contains("\"cache_hits\":2"), "{trailer1}");
        client::shutdown(&addr).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn failed_jobs_report_failed_not_hang() {
        let (addr, handle) = start(None);
        // Parses, but the placement violates the local bound at build
        // time — the job must fail, not wedge the queue.
        let bad = concat!(
            "[topology]\nside = 15\nr = 1\n",
            "[placement]\nkind = \"explicit\"\nnodes = [[1, 1], [2, 1], [3, 1]]\n",
        );
        let job = client::submit(&addr, bad).unwrap();
        let err = client::results(&addr, &job).unwrap_err();
        assert!(err.to_string().contains("failed"), "{err}");
        let status = client::status(&addr, &job).unwrap();
        assert!(status.contains("\"state\":\"failed\""), "{status}");
        // The queue keeps moving afterwards.
        let job2 = client::submit(&addr, MINI).unwrap();
        assert!(client::results(&addr, &job2).is_ok());
        client::shutdown(&addr).unwrap();
        handle.join().unwrap().unwrap();
    }
}
