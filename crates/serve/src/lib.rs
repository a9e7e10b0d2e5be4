//! `spt-serve` — the SPT pipeline as a persistent service.
//!
//! Every `spt-bench` binary today pays full process startup and a cold
//! memo cache per run, even though `spt::sweep` content-keys every phase
//! result. This crate keeps one warm [`Sweep`] engine (backed by the
//! on-disk [`DiskStore`]) behind a socket:
//!
//! * **Protocol** — newline-delimited JSON over a TCP socket or a Unix
//!   domain socket (an address containing `/` is a socket path). One
//!   request per line; one response line per request; a connection may
//!   issue any number of requests.
//! * **Requests** — `{"op":"ping"}`, `{"op":"stats"}`,
//!   `{"op":"metrics"}` (Prometheus text exposition as a string payload),
//!   `{"op":"shutdown"}`, `{"op":"eval","bench":NAME,"scale":S,"fuel":N}`,
//!   and `{"op":"experiment","experiment":NAME,"scale":S,"bench":B?}`.
//! * **Responses** — `{"ok":true,"served":HOW,"payload":...}` on success
//!   (`served` is one of `computed`, `memo`, `store`, `coalesced`) or
//!   `{"ok":false,"error":MSG}`; a malformed request never kills the
//!   daemon.
//! * **Coalescing** — duplicate concurrent requests share one
//!   computation and receive byte-identical payloads (a per-request-key
//!   `OnceLock`, the same at-most-once discipline the sweep memo uses
//!   per phase).
//! * **Warm store** — full response payloads are persisted in the
//!   [`DiskStore`] under the request fingerprint, so a repeated request
//!   after restart is served from disk without simulating anything.
//! * **Timeouts & shutdown** — every connection has a read timeout, and
//!   a `shutdown` request (or [`Server::shutdown`]) stops the listener,
//!   drains in-flight connections, and flushes the store. Listeners block
//!   in `accept`; stopping wakes them with a connection to their own
//!   address.
//! * **Connection cap** — a pool of at most [`MAX_CONNS`] worker threads,
//!   grown on demand and reused across connections, serves one
//!   connection each; a connection arriving while all are busy at the
//!   cap is answered `busy` and closed.
//!
//! * **Telemetry** — every daemon carries a [`ServeMetrics`] plane
//!   (request latency histograms by op × provenance, connection and
//!   coalescing gauges, store/memo counters, sweep phase timings),
//!   scrapeable via the `metrics` op or an optional HTTP listener
//!   ([`ServeConfig::metrics`]) serving `GET /metrics`. Metrics are
//!   observational only: payload bytes are identical with them on or off.
//!
//! Served results are bit-identical to direct `spt-bench` runs by
//! construction: both funnel through [`spt::service::run_experiment`].

use spt::sweep::debug_fingerprint;
use spt::{run_experiment, DiskStore, ExperimentRequest, Json, RunConfig, Sweep, ToJson};
use spt_workloads::BENCHMARK_NAMES;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub mod client;
mod http;
pub mod metrics;

pub use metrics::{ServeMetrics, SweepMetrics};

/// Most connections served at once. A connection beyond the cap is
/// answered with one `{"ok":false,"error":"busy",...}` line and closed.
pub const MAX_CONNS: usize = 64;

/// How long a new connection waits for a busy worker to free up before
/// the pool grows by one thread.
const GROW_WAIT: Duration = Duration::from_millis(2);

/// Pause after a failed `accept` (e.g. out of file descriptors), so a
/// persistent error does not spin a listener thread.
pub(crate) const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Longest request line the daemon reads, newline excluded. Every valid
/// request is well under 1 KB; a longer line is answered with an error.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Bytes of an over-long line the daemon discards looking for its end
/// before it gives up on the connection.
const MAX_SKIP: usize = 16 * MAX_REQUEST_LINE;

/// Configuration of one daemon instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// `host:port` for TCP, or a filesystem path (contains `/`) for a
    /// Unix domain socket. TCP port `0` picks a free port; the bound
    /// address is reported by [`Server::addr`].
    pub listen: String,
    /// On-disk result store directory; `None` runs memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Sweep worker threads per request.
    pub workers: usize,
    /// Per-connection read timeout; also bounds shutdown drain time.
    pub read_timeout: Duration,
    /// Optional `host:port` for the HTTP metrics listener (`GET
    /// /metrics`, Prometheus text exposition). Port 0 picks a free port;
    /// the bound address is reported by [`Server::metrics_addr`]. `None`
    /// disables the listener — the `metrics` wire op still works.
    pub metrics: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".into(),
            cache_dir: None,
            workers: 1,
            read_timeout: Duration::from_secs(300),
            metrics: None,
        }
    }
}

/// A request the daemon understands, decoded from one JSON line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Ping,
    Stats,
    /// Scrape the telemetry plane: Prometheus text exposition as a
    /// string payload.
    Metrics,
    Shutdown,
    /// Evaluate one named suite benchmark end to end.
    Eval {
        bench: String,
        scale: spt_workloads::Scale,
        fuel: Option<u64>,
    },
    /// Run a named experiment (the unit the figure binaries consume).
    Experiment(ExperimentRequest),
}

impl Request {
    /// Decode a request line; `Err` is the message sent back to the
    /// client.
    pub fn from_json(j: &Json) -> Result<Request, String> {
        let op = j
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request missing string key \"op\"")?;
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            "eval" => {
                let bench = j
                    .get("bench")
                    .and_then(Json::as_str)
                    .ok_or("eval request missing string key \"bench\"")?
                    .to_string();
                if !BENCHMARK_NAMES.contains(&bench.as_str()) {
                    return Err(format!(
                        "unknown benchmark {bench:?}; known: {BENCHMARK_NAMES:?}"
                    ));
                }
                let scale = match j.get("scale") {
                    None => spt_workloads::Scale::Small,
                    Some(s) => {
                        let s = s.as_str().ok_or("\"scale\" must be a string")?;
                        spt::service::scale_from_name(s)
                            .ok_or_else(|| format!("unknown scale {s:?}"))?
                    }
                };
                let fuel = match j.get("fuel") {
                    None | Some(Json::Null) => None,
                    Some(f) => Some(f.as_u64().ok_or("\"fuel\" must be an unsigned integer")?),
                };
                Ok(Request::Eval { bench, scale, fuel })
            }
            "experiment" => Ok(Request::Experiment(ExperimentRequest::from_json(j)?)),
            other => Err(format!(
                "unknown op {other:?}; known: ping, stats, metrics, shutdown, eval, experiment"
            )),
        }
    }

    /// The canonical wire form — also the coalescing/store key input, so
    /// two requests that decode equal always share one computation.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj().with("op", "ping"),
            Request::Stats => Json::obj().with("op", "stats"),
            Request::Metrics => Json::obj().with("op", "metrics"),
            Request::Shutdown => Json::obj().with("op", "shutdown"),
            Request::Eval { bench, scale, fuel } => {
                let mut j = Json::obj()
                    .with("op", "eval")
                    .with("bench", bench.as_str())
                    .with("scale", spt::service::scale_name(*scale));
                if let Some(f) = fuel {
                    j = j.with("fuel", *f);
                }
                j
            }
            Request::Experiment(req) => {
                // Key order matters for the fingerprint: op first, then
                // the experiment request's own canonical order.
                let mut j = Json::obj().with("op", "experiment");
                if let Json::Object(pairs) = req.to_json() {
                    for (k, v) in pairs {
                        j = j.with(&k, v);
                    }
                }
                j
            }
        }
    }
}

/// How a successful response was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Freshly computed by this request.
    Computed,
    /// Another thread computed it while we waited (in-flight coalescing).
    Coalesced,
    /// Found initialized in the in-memory response memo.
    Memo,
    /// Loaded from the on-disk store.
    Store,
}

impl Served {
    /// Every provenance, in counter-array order — the one place that
    /// order is defined.
    pub const ALL: [Served; 4] = [
        Served::Computed,
        Served::Coalesced,
        Served::Memo,
        Served::Store,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Served::Computed => "computed",
            Served::Coalesced => "coalesced",
            Served::Memo => "memo",
            Served::Store => "store",
        }
    }

    /// Index into a per-provenance counter array; `ALL[s.idx()] == s`.
    pub fn idx(self) -> usize {
        match self {
            Served::Computed => 0,
            Served::Coalesced => 1,
            Served::Memo => 2,
            Served::Store => 3,
        }
    }
}

type WorkResult = Result<Arc<str>, String>;

/// State shared by every connection thread.
pub(crate) struct Shared {
    sweep: Sweep,
    run_cfg: RunConfig,
    stop: AtomicBool,
    /// Bound addresses of the listeners, connected to on stop to wake
    /// their blocking `accept`.
    wake: Vec<String>,
    read_timeout: Duration,
    /// Response memo + in-flight coalescing: request fingerprint → the
    /// serialized payload, computed at most once.
    responses: Mutex<HashMap<u64, Arc<OnceLock<WorkResult>>>>,
    served: [AtomicU64; 4],
    requests: AtomicU64,
    errors: AtomicU64,
    metrics: Arc<ServeMetrics>,
}

impl Shared {
    /// Set the stop flag and wake every listener. Idempotent.
    pub(crate) fn request_stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            for addr in &self.wake {
                // A refused or failed connect means that listener is
                // already gone.
                let _ = if addr.contains('/') {
                    UnixStream::connect(addr).map(drop)
                } else {
                    TcpStream::connect(addr).map(drop)
                };
            }
        }
    }

    /// True once [`Shared::request_stop`] ran. A listener checks it after
    /// every `accept`, so the wake-up connection is never served.
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn count(&self, how: Served) {
        self.served[how.idx()].fetch_add(1, Ordering::Relaxed);
    }

    fn stats_json(&self) -> Json {
        let mut served = Json::obj();
        for how in Served::ALL {
            served = served.with(how.name(), self.served[how.idx()].load(Ordering::Relaxed));
        }
        let mut j = Json::obj()
            .with("requests", self.requests.load(Ordering::Relaxed))
            .with("errors", self.errors.load(Ordering::Relaxed))
            .with("served", served)
            .with("memo_cache", self.sweep.memo_stats().to_json());
        if let Some(st) = self.sweep.store() {
            j = j
                .with("store", st.stats().to_json())
                .with("store_dir", st.dir().display().to_string());
        }
        j
    }

    /// Current Prometheus exposition of the telemetry plane.
    pub(crate) fn metrics_text(&self) -> String {
        self.metrics.render(&self.sweep)
    }

    /// The content fingerprint of a request: its canonical wire form
    /// chained with the run configuration, so a config change never
    /// serves a stale payload.
    fn request_key(&self, req: &Request) -> u64 {
        let mut h = spt::store::fingerprint_bytes(req.to_json().dump().as_bytes());
        h = spt::store::fnv1a(h, &debug_fingerprint(&self.run_cfg).to_le_bytes());
        h
    }

    /// Serve `req`'s payload with at-most-once computation per key,
    /// layered over the on-disk store.
    fn serve(self: &Arc<Self>, req: &Request) -> (WorkResult, Served) {
        let key = self.request_key(req);
        let (cell, preexisting) = {
            let mut map = self.responses.lock().unwrap();
            match map.get(&key) {
                Some(c) => (c.clone(), true),
                None => {
                    let c = Arc::new(OnceLock::new());
                    map.insert(key, c.clone());
                    (c.clone(), false)
                }
            }
        };
        let already_done = cell.get().is_some();
        let mut how = if already_done {
            Served::Memo
        } else if preexisting {
            Served::Coalesced
        } else {
            Served::Computed
        };
        // A coalesced request is about to block on another thread's
        // computation: surface the wait on the in-flight gauge.
        let waiting = how == Served::Coalesced;
        if waiting {
            self.metrics.coalesce_wait_start();
        }
        let res = cell.get_or_init(|| match self.compute(req) {
            Ok((payload, from_store)) => {
                if from_store {
                    how = Served::Store;
                }
                Ok(Arc::from(payload.dump().into_boxed_str()))
            }
            Err(e) => Err(e),
        });
        if waiting {
            self.metrics.coalesce_wait_end();
        }
        (res.clone(), how)
    }

    /// Compute (or load from disk) the payload for a cacheable request.
    fn compute(&self, req: &Request) -> Result<(Json, bool), String> {
        let key = self.request_key(req);
        if let Some(st) = self.sweep.store() {
            if let Some(j) = st.load("response", key) {
                return Ok((j, true));
            }
        }
        let payload = match req {
            Request::Experiment(exp) => run_experiment(&self.sweep, exp, &self.run_cfg)?.to_json(),
            Request::Eval { bench, scale, fuel } => {
                let w = spt_workloads::benchmark(bench, *scale);
                let mut cfg = self.run_cfg.clone();
                if let Some(f) = fuel {
                    cfg.fuel = *f;
                }
                let (outcome, record) = self.sweep.evaluate(w.name, &w.program, &cfg);
                Json::obj()
                    .with("outcome", outcome.to_json())
                    .with("record", record.to_json())
            }
            // ping/stats/shutdown are answered inline, never cached.
            other => return Err(format!("internal: {other:?} is not cacheable")),
        };
        if let Some(st) = self.sweep.store() {
            st.save("response", key, &payload);
        }
        Ok((payload, false))
    }
}

/// The two socket families behind one accept loop.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn bind(addr: &str) -> std::io::Result<(Listener, String)> {
        if addr.contains('/') {
            let path = PathBuf::from(addr);
            // A stale socket file from a previous run refuses rebinding.
            let _ = std::fs::remove_file(&path);
            let l = UnixListener::bind(&path)?;
            Ok((Listener::Unix(l, path.clone()), addr.to_string()))
        } else {
            let l = TcpListener::bind(addr)?;
            let bound = l.local_addr()?.to_string();
            Ok((Listener::Tcp(l), bound))
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One accepted connection, TCP or Unix.
pub(crate) enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn configure(&self, read_timeout: Duration) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.set_read_timeout(Some(read_timeout))?;
                s.set_write_timeout(Some(read_timeout))
            }
            Conn::Unix(s) => {
                s.set_read_timeout(Some(read_timeout))?;
                s.set_write_timeout(Some(read_timeout))
            }
        }
    }

    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }
}

impl std::io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A running daemon. Dropping it shuts it down.
pub struct Server {
    addr: String,
    metrics_addr: Option<String>,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving in background threads. Returns once the
    /// socket (and the metrics listener, if configured) is listening.
    pub fn start(cfg: &ServeConfig) -> std::io::Result<Server> {
        let (listener, addr) = Listener::bind(&cfg.listen)?;
        let metrics = ServeMetrics::new();
        let mut sweep = match &cfg.cache_dir {
            Some(dir) => {
                let store = Arc::new(DiskStore::open(dir)?);
                Sweep::with_store(cfg.workers.max(1), store)
            }
            None => Sweep::new(cfg.workers.max(1)),
        };
        sweep.set_observer(metrics.sweep_observer());
        let scrape = match &cfg.metrics {
            Some(m) => Some(http::bind(m)?),
            None => None,
        };
        let mut wake = vec![addr.clone()];
        wake.extend(scrape.as_ref().map(|(_, bound)| bound.clone()));
        let shared = Arc::new(Shared {
            sweep,
            run_cfg: RunConfig::default(),
            stop: AtomicBool::new(false),
            wake,
            read_timeout: cfg.read_timeout,
            responses: Mutex::new(HashMap::new()),
            served: Default::default(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            metrics,
        });
        let (metrics_addr, metrics_thread) = match scrape {
            Some((l, bound)) => (Some(bound), Some(http::spawn(l, shared.clone()))),
            None => (None, None),
        };
        let accept_shared = shared.clone();
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(Server {
            addr,
            metrics_addr,
            shared,
            accept_thread: Some(accept_thread),
            metrics_thread,
        })
    }

    /// The actual bound address (resolves TCP port 0).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The bound HTTP metrics address, when [`ServeConfig::metrics`] was
    /// set.
    pub fn metrics_addr(&self) -> Option<&str> {
        self.metrics_addr.as_deref()
    }

    /// True once a shutdown request has been received.
    pub fn stopping(&self) -> bool {
        self.shared.stopping()
    }

    /// Block until the daemon stops (shutdown request or [`Server::shutdown`]).
    pub fn wait(mut self) {
        self.join();
    }

    /// Stop accepting, drain in-flight connections, flush the store.
    pub fn shutdown(mut self) {
        self.shared.request_stop();
        self.join();
    }

    fn join(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.metrics_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.request_stop();
        self.join();
    }
}

/// Connections accepted but not yet claimed by a worker, and the
/// workers waiting for one.
#[derive(Default)]
struct Handoff {
    conns: std::collections::VecDeque<Conn>,
    idle: usize,
    closed: bool,
}

/// The connection workers' shared queue. Workers are kept, not spawned
/// per connection, and the pool grows only when no worker frees up
/// within [`GROW_WAIT`]: every thread costs the process an allocator
/// arena, and with a thread per connection peak RSS grew with the
/// request rate.
#[derive(Default)]
struct Workers {
    handoff: Mutex<Handoff>,
    /// Signals workers that a connection was queued (or the queue closed).
    wake: Condvar,
    /// Signals the accept loop that a worker went idle.
    idle: Condvar,
}

impl Workers {
    /// Serve `first`, then every connection handed over, until closed.
    fn run(&self, first: Conn, shared: &Arc<Shared>) {
        let mut conn = first;
        loop {
            handle_conn(conn, shared);
            let mut h = self.handoff.lock().expect("handoff lock poisoned");
            h.idle += 1;
            self.idle.notify_one();
            conn = loop {
                if let Some(c) = h.conns.pop_front() {
                    h.idle -= 1;
                    break c;
                }
                if h.closed {
                    return;
                }
                h = self.wake.wait(h).expect("handoff lock poisoned");
            };
        }
    }
}

/// Accept loop: block in `accept` and hand each connection to an idle
/// worker, or to a new one while fewer than [`MAX_CONNS`] exist; with
/// every worker busy at the cap, answer `busy`. On stop, join every worker
/// (drain) before flushing the store.
fn accept_loop(listener: Listener, shared: Arc<Shared>) {
    let workers = Arc::new(Workers::default());
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.stopping() {
            break;
        }
        let Ok(conn) = accepted else {
            std::thread::sleep(ACCEPT_RETRY);
            continue;
        };
        let mut h = workers.handoff.lock().expect("handoff lock poisoned");
        if h.idle <= h.conns.len() && threads.len() < MAX_CONNS {
            // A closed-loop client reconnects while the worker of its
            // previous connection is still reading that one's EOF.
            h = workers
                .idle
                .wait_timeout_while(h, GROW_WAIT, |h| h.idle <= h.conns.len())
                .expect("handoff lock poisoned")
                .0;
        }
        if h.idle > h.conns.len() {
            h.conns.push_back(conn);
            workers.wake.notify_one();
        } else if threads.len() < MAX_CONNS {
            drop(h);
            let (w, sh) = (workers.clone(), shared.clone());
            threads.push(std::thread::spawn(move || w.run(conn, &sh)));
        } else {
            drop(h);
            refuse_busy(conn, &shared);
        }
    }
    // Graceful drain: every connection observes the stop flag at its next
    // request boundary (or its read timeout) and ends; its worker then
    // finds the queue closed and exits.
    workers
        .handoff
        .lock()
        .expect("handoff lock poisoned")
        .closed = true;
    workers.wake.notify_all();
    for t in threads {
        let _ = t.join();
    }
    if let Some(st) = shared.sweep.store() {
        st.flush();
    }
    drop(listener);
}

/// Answer a connection over the cap with one error line and close it.
fn refuse_busy(mut conn: Conn, shared: &Shared) {
    shared.errors.fetch_add(1, Ordering::Relaxed);
    shared.metrics.error();
    let mut line = Json::obj()
        .with("ok", false)
        .with("error", "busy")
        .with("max_conns", MAX_CONNS)
        .dump();
    line.push('\n');
    // The line fits an empty socket buffer, so this write does not block;
    // a client that already left is no concern.
    let _ = conn.write_all(line.as_bytes());
}

/// Decrements the active-connection gauge on every exit path.
struct ConnGuard<'a>(&'a ServeMetrics);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.conn_closed();
    }
}

/// Serve one connection: a loop of request line → response line.
fn handle_conn(conn: Conn, shared: &Arc<Shared>) {
    if conn.configure(shared.read_timeout).is_err() {
        return;
    }
    let Ok(write_half) = conn.try_clone() else {
        return;
    };
    shared.metrics.conn_opened();
    let _guard = ConnGuard(&shared.metrics);
    let mut writer = write_half;
    let mut reader = BufReader::new(conn);
    let mut line = Vec::new();
    loop {
        line.clear();
        let limit = MAX_REQUEST_LINE as u64 + 1;
        let n = match (&mut reader).take(limit).read_until(b'\n', &mut line) {
            Ok(0) => return, // client closed
            Ok(n) => n,
            Err(e) => {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    shared.metrics.timeout();
                }
                return; // timeout or broken pipe
            }
        };
        shared.metrics.add_bytes_read(n as u64);
        let too_long = n > MAX_REQUEST_LINE && !line.ends_with(b"\n");
        // After an over-long line the connection carries on only if the
        // line's end turns up within `MAX_SKIP` more bytes.
        let resynced = !too_long || skip_line(&mut reader, shared);
        if !too_long && line.trim_ascii().is_empty() {
            continue;
        }
        let t0 = Instant::now();
        let (response, op, served) = match std::str::from_utf8(&line) {
            Ok(text) if !too_long => handle_request(shared, text.trim()),
            _ => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let msg = if too_long {
                    format!("request line longer than {MAX_REQUEST_LINE} bytes")
                } else {
                    "request line is not UTF-8".to_string()
                };
                reject(shared, &msg)
            }
        };
        shared
            .metrics
            .response(op, served, t0.elapsed().as_micros() as u64);
        let mut body = response;
        body.push('\n');
        shared.metrics.add_bytes_written(body.len() as u64);
        if writer.write_all(body.as_bytes()).is_err() || writer.flush().is_err() {
            return;
        }
        if !resynced || shared.stopping() {
            return;
        }
    }
}

/// Discard the rest of an over-long request line, reading at most
/// [`MAX_SKIP`] bytes. True if the line ended within them.
fn skip_line(reader: &mut impl BufRead, shared: &Shared) -> bool {
    let mut left = MAX_SKIP;
    while left > 0 {
        let buf = match reader.fill_buf() {
            Ok(b) if !b.is_empty() => b,
            _ => return false,
        };
        let chunk = &buf[..buf.len().min(left)];
        let (used, found) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), false),
        };
        reader.consume(used);
        shared.metrics.add_bytes_read(used as u64);
        if found {
            return true;
        }
        left -= used;
    }
    false
}

fn error_json(msg: &str) -> Json {
    Json::obj().with("ok", false).with("error", msg)
}

/// Count and answer a request that did not decode.
fn reject(shared: &Shared, msg: &str) -> (String, &'static str, &'static str) {
    shared.errors.fetch_add(1, Ordering::Relaxed);
    shared.metrics.request("invalid");
    shared.metrics.error();
    (error_json(msg).dump(), "invalid", "error")
}

/// The metric label for a request's op — a closed set regardless of
/// what clients send (undecodable lines are all `invalid`).
fn op_label(req: &Request) -> &'static str {
    match req {
        Request::Ping => "ping",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
        Request::Eval { .. } => "eval",
        Request::Experiment(_) => "experiment",
    }
}

/// Decode, dispatch, and encode one request; never panics the daemon.
/// Returns the response line (without its newline) plus the
/// `(op, served)` metric labels.
fn handle_request(shared: &Arc<Shared>, line: &str) -> (String, &'static str, &'static str) {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let req = match Json::parse(line)
        .map_err(|e| format!("bad JSON: {e}"))
        .and_then(|doc| Request::from_json(&doc))
    {
        Ok(r) => r,
        Err(e) => return reject(shared, &e),
    };
    let op = op_label(&req);
    shared.metrics.request(op);
    let response = match req {
        Request::Ping => Json::obj()
            .with("ok", true)
            .with("served", "computed")
            .with("payload", "pong"),
        Request::Stats => Json::obj()
            .with("ok", true)
            .with("served", "computed")
            .with("payload", shared.stats_json()),
        Request::Metrics => Json::obj()
            .with("ok", true)
            .with("served", "computed")
            .with("payload", shared.metrics_text()),
        Request::Shutdown => {
            shared.request_stop();
            Json::obj()
                .with("ok", true)
                .with("served", "computed")
                .with("payload", "shutting down")
        }
        cacheable => {
            let (result, how) = shared.serve(&cacheable);
            match result {
                Ok(payload) => {
                    shared.count(how);
                    // The payload is already canonical JSON (`dump`
                    // output), so it is spliced in as text: coalesced
                    // duplicates share its bytes, and a response costs no
                    // parse of it.
                    let response = format!(
                        "{{\"ok\":true,\"served\":\"{}\",\"payload\":{payload}}}",
                        how.name()
                    );
                    return (response, op, how.name());
                }
                Err(e) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    shared.metrics.error();
                    return (error_json(&e).dump(), op, "error");
                }
            }
        }
    };
    (response.dump(), op, "computed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_wire_forms_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
            Request::Eval {
                bench: "parsers".into(),
                scale: spt_workloads::Scale::Test,
                fuel: Some(1_000_000),
            },
            Request::Experiment(ExperimentRequest::new("fig8", spt_workloads::Scale::Test)),
        ];
        for r in reqs {
            let back = Request::from_json(&r.to_json()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn served_indices_and_names_are_coherent() {
        for (i, how) in Served::ALL.into_iter().enumerate() {
            assert_eq!(how.idx(), i, "{}", how.name());
            assert_eq!(Served::ALL[how.idx()], how);
        }
        let names: Vec<&str> = Served::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["computed", "coalesced", "memo", "store"]);
    }

    #[test]
    fn bad_requests_are_refusals() {
        for line in [
            "{",
            "{}",
            "{\"op\":\"nope\"}",
            "{\"op\":\"eval\"}",
            "{\"op\":\"eval\",\"bench\":\"nope\"}",
            "{\"op\":\"experiment\",\"experiment\":\"figx\"}",
        ] {
            let doc = Json::parse(line);
            let err = match doc {
                Err(_) => true,
                Ok(d) => Request::from_json(&d).is_err(),
            };
            assert!(err, "{line} should be rejected");
        }
    }
}
