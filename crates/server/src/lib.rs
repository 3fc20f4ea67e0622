//! # wcoj-server
//!
//! A std-only TCP/HTTP front end over the shared query service: a
//! blocking accept loop on [`std::net::TcpListener`] with a small pool
//! of connection threads, speaking just enough HTTP/1.1 for the query
//! protocol. No async runtime, no external crates.
//!
//! ## Endpoints
//!
//! | method & path                 | purpose                                           |
//! |-------------------------------|---------------------------------------------------|
//! | `PUT /relation/{name}`        | load a CSV body as a named relation (replace)     |
//! | `POST /relation/{name}/rows`  | append CSV rows to an existing relation (delta)   |
//! | `DELETE /relation/{name}/rows`| delete the CSV rows in the body from the relation |
//! | `DELETE /relation/{name}`     | unregister a relation                             |
//! | `POST /query`                 | submit a text query (streamed) or Datalog program |
//! | `GET /query/{id}/rows`        | fetch rows as chunked CSV, incrementally when the plan allows; once per job |
//! | `GET /metrics`                | Prometheus exposition of the global registry      |
//! | `GET /healthz`                | liveness probe                                    |
//!
//! ## Snapshot isolation
//!
//! `POST /query` plans against a copy-on-write [`wcoj_query::Snapshot`]
//! of the catalog taken at admission and drops the snapshot once the
//! query is submitted. The job keeps only its plan, which holds `Arc`s
//! on every base, delta and index the query reads, so appends, deletes,
//! replacements, and compactions that land *after* admission never
//! change what an admitted query returns — even mid-stream — while the
//! rest of the admitted catalog is freed as soon as it is superseded.
//!
//! ## Keep-alive
//!
//! Connections serve up to `keep_alive_max` requests each (default 32,
//! `WCOJ_KEEP_ALIVE_MAX`), with `idle_timeout` between requests
//! (`WCOJ_IDLE_TIMEOUT_MS`); responses advertise `Connection:
//! keep-alive` until the budget's last request or a client
//! `Connection: close`. An idle expiry or FIN between requests closes
//! the connection silently; a stall mid-request is still a `408`.
//!
//! ## Streaming model
//!
//! Shard reassembly in the service is slot-ordered: output slots
//! partition the result into disjoint `(root, anchor)` rectangles in
//! ascending slot order, cut on the plan's first two total-order
//! attributes. When the total order starts with the output schema's
//! first two attributes (so concatenating settled slots reproduces the
//! final output byte-for-byte — `PreparedQuery::slots_stream_sorted`;
//! the planner picks its atom order to make it so: the full triangle's
//! total order is the schema, the 4-cycle's is (a, b, d, c) and each
//! slot is re-keyed inside its (a, b) runs), each slot's rows go out as
//! an HTTP chunk the moment that slot settles, *before* later shards
//! finish. Otherwise (the star and the 2-star, whose center comes last)
//! the slots are assembled together, their rows re-keyed into schema
//! order, and sent as one chunk; the `X-Streaming` response
//! header says which mode was used. A Datalog program runs eagerly on a
//! copy-on-write fork of the catalog, off the write lock; its derived
//! relations are registered all at once when every rule succeeded, and
//! not at all otherwise. Its last rule's result enters the job
//! table as a pending query holding one ready batch: `/rows` serves it
//! through the same path, `buffered`.
//!
//! ## Status mapping
//!
//! Admission rejections (`SubmitError::Overloaded`), and a `POST /query`
//! that finds the job table full of jobs still waiting for their fetch
//! (256 of them, none abandoned for 30 s), surface as `429` with
//! `Retry-After`; parse failures as `400`; unknown relations as
//! `404`; a job id that is unknown, already fetched or being fetched as
//! `404` (a fetch takes its job out of the table); a shard that panicked
//! on the pool as `500` (or a truncated stream, once the chunked headers
//! are out); protocol edge cases per [`http::RequestError`].

mod config;
mod handlers;
pub mod http;
mod jobs;

pub use config::{ServerConfig, DEFAULT_BIND};
use jobs::Jobs;

use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;
use wcoj_obs::{Counter, Histogram};
use wcoj_query::Catalog;
use wcoj_service::Service;
use wcoj_storage::Dictionary;

/// Server-side counters/histograms, registered once in the global
/// observability registry (shared with the service's own metrics, so
/// `GET /metrics` exposes both).
pub struct ServerMetrics {
    /// Requests read and dispatched (any route, any outcome).
    pub requests_total: Arc<Counter>,
    /// `POST /query` submissions (accepted or not).
    pub queries_total: Arc<Counter>,
    /// Requests answered with a non-overload error status, plus
    /// connections dropped because their handler panicked.
    pub errors_total: Arc<Counter>,
    /// Submissions shed with `429` at the HTTP layer.
    pub overloaded_total: Arc<Counter>,
    /// Result rows that went over the wire.
    pub rows_streamed_total: Arc<Counter>,
    /// End-to-end request latency in microseconds (read → response).
    pub request_us: Arc<Histogram>,
}

impl ServerMetrics {
    /// The process-wide instance (idempotent registration).
    pub fn global() -> &'static ServerMetrics {
        static INSTANCE: OnceLock<ServerMetrics> = OnceLock::new();
        INSTANCE.get_or_init(|| {
            let reg = wcoj_obs::global();
            ServerMetrics {
                requests_total: reg.counter(
                    "wcoj_server_http_requests_total",
                    "HTTP requests dispatched",
                ),
                queries_total: reg.counter(
                    "wcoj_server_queries_total",
                    "query submissions via POST /query",
                ),
                errors_total: reg.counter(
                    "wcoj_server_http_errors_total",
                    "requests answered with a non-429 error status or dropped by a panicking handler",
                ),
                overloaded_total: reg.counter(
                    "wcoj_server_http_overloaded_total",
                    "submissions shed with HTTP 429",
                ),
                rows_streamed_total: reg.counter(
                    "wcoj_server_rows_streamed_total",
                    "result rows streamed to clients",
                ),
                request_us: reg.histogram(
                    "wcoj_server_request_us",
                    "end-to-end HTTP request latency (microseconds)",
                ),
            }
        })
    }
}

/// Everything the connection threads share.
pub(crate) struct ServerState {
    catalog: RwLock<Catalog>,
    pub(crate) dict: Arc<Dictionary>,
    pub(crate) jobs: Jobs,
    pub(crate) metrics: &'static ServerMetrics,
}

impl ServerState {
    /// The catalog, for reading. A connection thread that panicked while
    /// writing poisons the lock; the guard is recovered rather than
    /// turning one dead handler into a dead server. That is sound
    /// because a catalog write is a sequence of whole-value steps (a map
    /// entry, a delta buffer, a base with its generation): whichever step
    /// the panic interrupted, the relations left behind are each a valid
    /// sorted set, and a query over them answers for exactly those rows.
    pub(crate) fn catalog(&self) -> RwLockReadGuard<'_, Catalog> {
        self.catalog.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The catalog, for writing; recovers a poisoned lock like
    /// [`ServerState::catalog`].
    pub(crate) fn catalog_mut(&self) -> RwLockWriteGuard<'_, Catalog> {
        self.catalog.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running server: the bound listener plus its connection threads.
/// Dropping it shuts the threads down and cancels any jobs still
/// pending in the table.
pub struct Server {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `cfg.bind` and starts serving a fresh catalog routed
    /// through a new [`Service`] built from `cfg.service`.
    ///
    /// # Errors
    /// Bind failures.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let service = Arc::new(Service::new(cfg.service.clone()));
        let mut catalog = Catalog::new();
        catalog.set_service(Some(service));
        Server::start_with(cfg, catalog)
    }

    /// Binds `cfg.bind` and serves `catalog` as-is — the caller decides
    /// whether (and how) a service is attached, and may keep its own
    /// handle on that service for inspection.
    ///
    /// # Errors
    /// Bind failures.
    pub fn start_with(cfg: ServerConfig, catalog: Catalog) -> std::io::Result<Server> {
        let listener = TcpListener::bind(cfg.bind)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let state = Arc::new(ServerState {
            dict: catalog.dictionary_handle(),
            catalog: RwLock::new(catalog),
            jobs: Jobs::new(),
            metrics: ServerMetrics::global(),
        });
        let mut threads = Vec::with_capacity(cfg.conn_threads);
        for i in 0..cfg.conn_threads {
            let listener = listener.try_clone()?;
            let shutdown = Arc::clone(&shutdown);
            let state = Arc::clone(&state);
            let cfg = cfg.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("wcoj-http-{i}"))
                    .spawn(move || accept_loop(&listener, &shutdown, &state, &cfg))
                    .expect("spawn connection thread"),
            );
        }
        Ok(Server {
            addr,
            shutdown,
            threads,
            state,
        })
    }

    /// The actually bound address (resolves port `0`).
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Unfetched jobs in the table (for tests and introspection).
    #[must_use]
    pub fn jobs_len(&self) -> usize {
        self.state.jobs.len()
    }

    /// Stops accepting, wakes every connection thread, and joins them.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // A blocked `accept` only wakes on a connection: poke one per
        // thread. Failures are fine — a thread mid-request re-checks the
        // flag before the next accept.
        for _ in 0..self.threads.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    state: &ServerState,
    cfg: &ServerConfig,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((mut stream, _)) = listener.accept() else {
            continue;
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // The read timeout bounds writes too: a client that stops
        // reading a response cannot pin this thread.
        let _ = stream.set_read_timeout(cfg.read_timeout);
        let _ = stream.set_write_timeout(cfg.read_timeout);
        let _ = stream.set_nodelay(true);
        // A handler that panics costs its connection, not this thread:
        // the server keeps all `conn_threads` accepting for its lifetime.
        // The locks it may have held recover from poisoning.
        let served = panic::catch_unwind(AssertUnwindSafe(|| {
            serve_connection(state, &mut stream, cfg);
        }));
        if served.is_err() {
            state.metrics.errors_total.inc();
        }
        // The serve loop decided the connection's fate — just drop it.
    }
}

/// Serves one connection: up to `cfg.keep_alive_max` requests with an
/// idle timeout between them, stopping early when the client asks for
/// `Connection: close`, a request fails to parse, or the stream ends.
///
/// Timing of the close matters: a stall or FIN on a connection's *first*
/// request is a `408` or `400`, but a stall or FIN once at least one
/// request was served is a routine end-of-conversation — closed
/// silently, no error counter (unless pipelined bytes prove the client
/// had started another request).
fn serve_connection(state: &ServerState, stream: &mut TcpStream, cfg: &ServerConfig) {
    let budget = cfg.keep_alive_max.max(1);
    let mut carry: Vec<u8> = Vec::new();
    for served in 0..budget {
        if served > 0 {
            // Requests after the first wait under the idle timeout (the
            // client may simply hold the connection open and walk away).
            let _ = stream.set_read_timeout(cfg.idle_timeout.or(cfg.read_timeout));
        }
        let started = Instant::now();
        let had_carry = !carry.is_empty();
        match http::read_request(stream, cfg.max_header_bytes, cfg.max_body_bytes, &mut carry) {
            Ok(req) => {
                state.metrics.requests_total.inc();
                let keep = served + 1 < budget && !req.wants_close();
                let mut conn = http::Conn {
                    stream,
                    keep_alive: keep,
                };
                let answered = handlers::handle(state, &req, &mut conn).is_ok();
                state
                    .metrics
                    .request_us
                    .observe_duration_us(started.elapsed());
                // Transport errors (client vanished mid-response) end
                // the connection regardless of the keep-alive budget.
                if !answered || !conn.keep_alive {
                    return;
                }
            }
            Err(e) => {
                // An idle kept-alive connection timing out or ending
                // cleanly between requests is not an error. (With
                // pipelined bytes already in `carry` the client *did*
                // start another request — fall through and report.)
                let idle_end = served > 0
                    && !had_carry
                    && matches!(
                        e,
                        http::RequestError::TimedOut | http::RequestError::Disconnected
                    );
                if idle_end {
                    return;
                }
                if let Some((status, _reason, message)) = e.status() {
                    state.metrics.requests_total.inc();
                    state.metrics.errors_total.inc();
                    let mut conn = http::Conn {
                        stream,
                        keep_alive: false,
                    };
                    let _ = handlers::error_response(&mut conn, status, &message);
                    // Lingering close: the request was refused *before*
                    // reading everything the client sent (oversized
                    // headers, refused body). Closing with unread bytes
                    // in the receive buffer would RST the connection and
                    // can discard the in-flight error response — drain
                    // (bounded by the read timeout and a byte cap) first.
                    use std::io::Read as _;
                    let _ = stream.shutdown(std::net::Shutdown::Write);
                    let mut sink = [0u8; 1024];
                    let mut drained = 0;
                    while drained < 64 * 1024 {
                        match stream.read(&mut sink) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => drained += n,
                        }
                    }
                }
                // Disconnected / transport errors: nothing to answer.
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{ABANDONED_AFTER, MAX_JOBS};
    use std::io::{Read, Write};

    /// One request on its own connection; `(status, everything after the
    /// head)`. A chunked body keeps its framing — fine for `contains`.
    fn request(server: &Server, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes()).expect("send");
        // A server with no thread left to accept must fail the test, not
        // hang it.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .expect("read timeout");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let (head, rest) = raw.split_once("\r\n\r\n").expect("header terminator");
        let status = head.split(' ').nth(1).expect("status code").parse();
        (status.expect("numeric status"), rest.to_owned())
    }

    #[test]
    fn a_panicking_handler_does_not_poison_the_server() {
        let cfg = ServerConfig {
            bind: "127.0.0.1:0".parse().unwrap(),
            conn_threads: 2,
            ..ServerConfig::default()
        };
        let server = Server::start_with(cfg, Catalog::new()).expect("bind loopback");
        assert_eq!(
            request(&server, "PUT", "/relation/E", "1,2\n2,3\n1,3\n").0,
            200
        );

        // What a handler dying mid-request leaves behind: both locks
        // poisoned by a thread that panicked while holding them.
        let state = Arc::clone(&server.state);
        let died = std::thread::spawn(move || {
            let _catalog = state.catalog.write().unwrap();
            let _jobs = state.jobs.lock();
            panic!("handler died holding the locks");
        })
        .join();
        assert!(died.is_err());
        assert!(server.state.catalog.is_poisoned());

        // Every route that takes a lock still answers, and correctly.
        let (status, body) = request(
            &server,
            "POST",
            "/query",
            "Tri(x, y, z) :- E(x, y), E(y, z), E(x, z).",
        );
        assert_eq!(status, 202, "{body}");
        let id = body
            .split_once("\"id\":")
            .and_then(|(_, rest)| rest.split_once(','))
            .expect("job id")
            .0;
        let (status, rows) = request(&server, "GET", &format!("/query/{id}/rows"), "");
        assert_eq!(status, 200, "{rows}");
        assert!(rows.contains("1,2,3\n"), "the one triangle: {rows}");
        assert_eq!(request(&server, "PUT", "/relation/F", "7,8\n").0, 200);
        let (status, metrics) = request(&server, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(metrics.contains("wcoj_server_http_requests_total"));
    }

    /// A table full of jobs whose clients never came back for their rows
    /// refuses new ones only until they are abandoned: then each new
    /// `POST /query` evicts the oldest of them and is accepted.
    #[test]
    fn a_table_full_of_abandoned_jobs_accepts_new_posts_again() {
        let cfg = ServerConfig {
            bind: "127.0.0.1:0".parse().unwrap(),
            conn_threads: 2,
            ..ServerConfig::default()
        };
        let server = Server::start_with(cfg, Catalog::new()).expect("bind loopback");
        assert_eq!(
            request(&server, "PUT", "/relation/E", "1,2\n2,3\n1,3\n").0,
            200
        );
        let query = "Tri(x, y, z) :- E(x, y), E(y, z), E(x, z).";
        let post = || {
            let (status, body) = request(&server, "POST", "/query", query);
            let id = body
                .split_once("\"id\":")
                .and_then(|(_, rest)| rest.split_once(','))
                .map(|(id, _)| id.to_owned());
            (status, id)
        };
        let ids: Vec<String> = (0..MAX_JOBS)
            .map(|_| match post() {
                (202, Some(id)) => id,
                other => panic!("expected a job id: {other:?}"),
            })
            .collect();
        assert_eq!(post().0, 429, "full of live jobs");

        // Every client vanishes: the clock moves past the limit for all
        // of their jobs at once.
        for job in server.state.jobs.lock().values_mut() {
            job.since = job
                .since
                .checked_sub(ABANDONED_AFTER)
                .expect("the clock has run that long");
        }
        let (status, fresh) = post();
        assert_eq!(status, 202);
        assert_eq!(server.jobs_len(), MAX_JOBS);
        let rows = |id: &str| request(&server, "GET", &format!("/query/{id}/rows"), "");
        assert_eq!(rows(&ids[0]).0, 404, "the oldest abandoned job made room");
        let (status, body) = rows(&ids[1]);
        assert_eq!(status, 200, "the rest are still there: {body}");
        assert!(body.contains("1,2,3\n"), "the one triangle: {body}");
        assert_eq!(rows(&fresh.expect("job id")).0, 200);
    }

    #[test]
    fn a_panicking_handler_does_not_kill_its_accept_thread() {
        // One connection thread: if the panic unwound out of it, nothing
        // would be left to accept the next request.
        let cfg = ServerConfig {
            bind: "127.0.0.1:0".parse().unwrap(),
            conn_threads: 1,
            ..ServerConfig::default()
        };
        let server = Server::start_with(cfg, Catalog::new()).expect("bind loopback");
        let errors = server.state.metrics.errors_total.get();

        // The handler dies mid-request: the connection closes unanswered.
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"GET /panic HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\r\n")
            .expect("send");
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        assert!(raw.is_empty(), "no response from a panicked handler");
        assert!(server.state.metrics.errors_total.get() > errors);

        // The same thread accepts and answers the next requests.
        assert_eq!(request(&server, "GET", "/healthz", "").0, 200);
        assert_eq!(request(&server, "PUT", "/relation/E", "1,2\n").0, 200);
    }
}
