//! The closed-loop load generator: a fresh in-process server per round,
//! a timed set-up, a warm-up, and a measured window driven by
//! [`CLIENTS`] clients that each wait for a reply before sending the next
//! request — callers of a query service wait for their rows.

use crate::client::{Client, Response};
use crate::trace::Tracer;
use crate::workload::{
    ingest_final_expected, rows_csv, sorted_csv, Kind, Op, Oracle, Workload, CLIENTS, TRIANGLE,
    WINDOW_WRITES,
};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use wcoj_server::{Server, ServerConfig};

/// The server every round starts: the defaults users get (4 connection
/// threads, one service worker per core, `keep_alive_max` 32, compaction
/// threshold 1024), on an ephemeral loopback port.
///
/// # Errors
/// Bind failures.
pub fn start_server() -> Result<Server, String> {
    Server::start(ServerConfig {
        bind: "127.0.0.1:0".parse().expect("loopback address"),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("cannot start the server: {e}"))
}

/// What one request did.
pub struct Outcome {
    /// Every response was 2xx and every checked byte matched.
    pub ok: bool,
    /// First byte sent.
    pub start: Instant,
    /// Last byte read.
    pub end: Instant,
    /// Queries: first byte sent → first result-body byte of `/rows`.
    pub ttfb: Option<Duration>,
    /// Result rows read (queries).
    pub rows: usize,
    /// Response bytes read off the wire.
    pub wire_bytes: usize,
}

fn job_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.split_once("\"id\":")?.1;
    rest[..rest.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

/// One query request: `POST /query`, then `GET /query/{id}/rows` drained
/// to the terminating chunk on the same connection. Returns the `/rows`
/// response (if it got that far) and the bytes read for both responses.
fn fetch(client: &mut Client, text: &str) -> (Option<Response>, usize) {
    let Ok(posted) = client.request("POST", "/query", text.as_bytes()) else {
        return (None, 0);
    };
    let id = if posted.status == 202 {
        job_id(&posted.body)
    } else {
        None
    };
    let rows = id.and_then(|id| {
        client
            .request("GET", &format!("/query/{id}/rows"), b"")
            .ok()
    });
    let bytes = posted.wire_bytes + rows.as_ref().map_or(0, |r| r.wire_bytes);
    (rows, bytes)
}

/// Performs `op` over HTTP and checks the response: against the oracle
/// for keyed queries, for well-formed sorted CSV otherwise. Never panics
/// on a bad response — it is counted as failed.
pub fn perform(client: &mut Client, w: &Workload, oracle: &Oracle, op: &Op) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome {
        ok: false,
        start,
        end: start,
        ttfb: None,
        rows: 0,
        wire_bytes: 0,
    };
    match op {
        Op::Query { text, key } => {
            let (rows, wire_bytes) = fetch(client, text);
            out.wire_bytes = wire_bytes;
            if let Some(r) = rows {
                out.end = Instant::now();
                out.ttfb = Some(r.first_body_byte - start);
                out.rows = r.body.iter().filter(|&&b| b == b'\n').count();
                out.ok = r.status == 200
                    && match key {
                        Some(k) => oracle.get(*k).is_some_and(|e| e.matches(&r.body)),
                        None => sorted_csv(&r.body, 3),
                    };
                return out;
            }
        }
        Op::Write {
            rel,
            append,
            delete,
        } => {
            let path = format!("/relation/{}/rows", w.relations[*rel].name);
            let mut ok = true;
            for (method, rows) in [("POST", append), ("DELETE", delete)] {
                if rows.is_empty() {
                    continue;
                }
                match client.request(method, &path, rows_csv(rows).as_bytes()) {
                    Ok(r) => {
                        out.wire_bytes += r.wire_bytes;
                        ok &= r.ok();
                    }
                    Err(_) => ok = false,
                }
            }
            out.ok = ok;
        }
    }
    out.end = Instant::now();
    out
}

/// Counts of requests attempted and failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Requests sent (a query request is one, a write request is one).
    pub attempted: u64,
    /// Non-2xx, refused, transport-failed or byte-mismatched requests.
    pub failed: u64,
}

impl Tally {
    /// Counts one request.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Set-up of one round, timed by the caller: load every relation, fill
/// `ingest_mixed`'s live window, and execute each distinct query shape
/// once so that the measured window starts with warm plans.
///
/// # Errors
/// The first request that fails, described.
pub fn set_up(addr: SocketAddr, w: &Workload, oracle: &Oracle) -> Result<Tally, String> {
    let mut client = Client::new(addr);
    let mut tally = Tally::default();
    for named in &w.relations {
        let r = client
            .request(
                "PUT",
                &format!("/relation/{}", named.name),
                named.csv.as_bytes(),
            )
            .map_err(|e| format!("PUT /relation/{}: {e}", named.name))?;
        tally.count(r.ok());
        if !r.ok() {
            return Err(format!("PUT /relation/{}: status {}", named.name, r.status));
        }
    }
    let fill = (w.kind == Kind::IngestMixed)
        .then(|| (0..WINDOW_WRITES).flat_map(|i| (0..CLIENTS).map(move |c| w.write(c, i))))
        .into_iter()
        .flatten();
    for op in fill.chain(w.warm_queries()) {
        let out = perform(&mut client, w, oracle, &op);
        tally.count(out.ok);
        if !out.ok {
            return Err(format!("set-up request failed: {op:?}"));
        }
    }
    Ok(tally)
}

/// Starts a fresh server and sets it up: `(server, setup_s, requests)`,
/// where `setup_s` covers server start, every load and every cold query.
///
/// # Errors
/// Server start or set-up failures.
pub fn timed_set_up(w: &Workload, oracle: &Oracle) -> Result<(Server, f64, Tally), String> {
    let t0 = Instant::now();
    let server = start_server()?;
    let tally = set_up(server.addr(), w, oracle)?;
    Ok((server, t0.elapsed().as_secs_f64(), tally))
}

/// Latency samples and counts of one round.
#[derive(Default)]
pub struct Round {
    /// Server start + [`set_up`], seconds.
    pub setup_s: f64,
    /// Query requests completed per second: each client's measured
    /// queries over the time from its first measured request's start to
    /// its last one's end, summed over the clients. (Counting completions
    /// inside a fixed window instead would quantise the rate.)
    pub qps: f64,
    /// Query-request latencies, ms.
    pub query_ms: Vec<f64>,
    /// Time to the first result byte, ms.
    pub ttfb_ms: Vec<f64>,
    /// Write-request latencies, ms.
    pub write_ms: Vec<f64>,
    /// Requests attempted and failed, set-up and warm-up included.
    pub tally: Tally,
    /// Connections re-opened by the clients.
    pub reconnects: u64,
    /// `GET /metrics` just before the clients start and just after they
    /// stop, when the caller asked for them.
    pub scrapes: Option<(String, String)>,
}

/// One client's share of a round.
#[derive(Default)]
struct ClientLog {
    round: Round,
    writes_done: u64,
}

/// Drives one client until `until`, recording samples of requests that
/// start at or after `from`.
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    w: &Workload,
    oracle: &Oracle,
    client_no: usize,
    from: Instant,
    until: Instant,
    tracer: Option<&Tracer>,
) -> ClientLog {
    let mut client = Client::new(addr);
    let mut log = ClientLog {
        writes_done: WINDOW_WRITES,
        ..ClientLog::default()
    };
    let mut span: Option<(Instant, Instant)> = None;
    for (i, op) in w.sequence(client_no).enumerate() {
        if Instant::now() >= until {
            break;
        }
        let out = perform(&mut client, w, oracle, &op);
        log.round.tally.count(out.ok);
        let is_query = matches!(op, Op::Query { .. });
        log.writes_done += u64::from(!is_query && out.ok);
        if out.start < from {
            continue;
        }
        span = Some((span.map_or(out.start, |(first, _)| first), out.end));
        if !out.ok {
            continue; // a failed request misses every latency figure
        }
        let ms = (out.end - out.start).as_secs_f64() * 1e3;
        if is_query {
            log.round.query_ms.push(ms);
            log.round
                .ttfb_ms
                .extend(out.ttfb.map(|d| d.as_secs_f64() * 1e3));
        } else {
            log.round.write_ms.push(ms);
        }
        if let Some(t) = tracer {
            let name = if is_query { "load.http" } else { "load.write" };
            // request ids: client in the top bits, sequence index below
            t.record(
                name,
                out.start,
                out.end,
                None,
                ((client_no as u64) << 48) | i as u64,
            );
        }
    }
    if let Some((first, last)) = span {
        log.round.qps = log.round.query_ms.len() as f64 / (last - first).as_secs_f64();
    }
    log.round.reconnects = client.reconnects();
    log
}

fn scrape(addr: SocketAddr) -> Result<String, String> {
    let r = Client::new(addr)
        .request("GET", "/metrics", b"")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    String::from_utf8(r.body).map_err(|_| "GET /metrics: not UTF-8".to_owned())
}

/// Runs one round: fresh server → timed set-up → `warm_up` → `measure`,
/// then (for `ingest_mixed`) a quiesced final-state check. With `tracer`,
/// every measured request is recorded as a span; with `scrape_metrics`,
/// the server's counters are read around the clients' run.
///
/// # Errors
/// Server start or set-up failures.
pub fn run_round(
    w: &Workload,
    oracle: &Oracle,
    warm_up: Duration,
    measure: Duration,
    tracer: Option<&Tracer>,
    scrape_metrics: bool,
) -> Result<Round, String> {
    let (server, setup_s, tally) = timed_set_up(w, oracle)?;
    let addr = server.addr();
    let mut round = Round {
        setup_s,
        tally,
        ..Round::default()
    };

    let before = scrape_metrics.then(|| scrape(addr)).transpose()?;
    let from = Instant::now() + warm_up;
    let until = from + measure;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || drive(addr, w, oracle, c, from, until, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    round.scrapes = match before {
        Some(before) => Some((before, scrape(addr)?)),
        None => None,
    };
    let writes: Vec<u64> = logs.iter().map(|l| l.writes_done).collect();
    for log in logs {
        let r = log.round;
        round.qps += r.qps;
        round.query_ms.extend(r.query_ms);
        round.ttfb_ms.extend(r.ttfb_ms);
        round.write_ms.extend(r.write_ms);
        round.tally.absorb(r.tally);
        round.reconnects += r.reconnects;
    }

    if w.kind == Kind::IngestMixed && round.tally.failed == 0 {
        // Both clients have stopped: the state is the mirror's, whatever
        // the interleaving was.
        let expected = ingest_final_expected(w, &writes);
        let (rows, _) = fetch(&mut Client::new(addr), TRIANGLE);
        round
            .tally
            .count(rows.is_some_and(|r| r.status == 200 && expected.matches(&r.body)));
    }
    drop(server);
    Ok(round)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_are_read_from_the_accept_body() {
        assert_eq!(job_id(b"{\"id\":17,\"columns\":[\"a\"]}\n"), Some(17));
        assert_eq!(job_id(b"{\"error\":\"nope\"}\n"), None);
    }

    #[test]
    fn a_short_round_of_every_workload_is_correct() {
        for spec in &crate::workload::SPECS {
            let w = Workload::new(Kind::from_name(spec.name).unwrap(), 5);
            let oracle = Oracle::build(&w);
            let round = run_round(
                &w,
                &oracle,
                Duration::from_millis(50),
                Duration::from_millis(400),
                None,
                false,
            )
            .unwrap();
            assert_eq!(round.tally.failed, 0, "{}", spec.name);
            assert!(!round.query_ms.is_empty(), "{}", spec.name);
            assert_eq!(round.query_ms.len(), round.ttfb_ms.len());
            assert_eq!(round.write_ms.is_empty(), w.read_only(), "{}", spec.name);
        }
    }
}
