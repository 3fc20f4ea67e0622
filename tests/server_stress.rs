//! Release-mode loopback stress for the HTTP front end: the e2e
//! incremental-streaming window (a first chunk on the wire *before* the
//! last shard finishes) and an admission flood where every shed
//! submission is an exactly-accounted 429.
//!
//! Timing-sensitive on purpose: run in release mode (CI does), where
//! shard execution and admission checks race for real.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wcoj::core::nprr::PreparedQuery;
use wcoj::query::Catalog;
use wcoj::server::{Server, ServerConfig};
use wcoj::service::{Service, ServiceConfig};

// ---------------------------------------------------------------- client

struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    chunks: usize,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("UTF-8 body")
    }
}

fn parse_response(raw: &[u8]) -> Response {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = std::str::from_utf8(&raw[..head_end]).expect("UTF-8 head");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .expect("status line")
        .split_ascii_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .map(|l| {
            let (k, v) = l.split_once(':').expect("header line");
            (k.to_ascii_lowercase(), v.trim().to_owned())
        })
        .collect();
    let raw_body = &raw[head_end + 4..];
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v == "chunked");
    if !chunked {
        return Response {
            status,
            headers,
            body: raw_body.to_vec(),
            chunks: 0,
        };
    }
    let mut body = Vec::new();
    let mut chunks = 0;
    let mut rest = raw_body;
    loop {
        let line_end = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(
            std::str::from_utf8(&rest[..line_end])
                .expect("UTF-8 size")
                .trim(),
            16,
        )
        .expect("hex chunk size");
        rest = &rest[line_end + 2..];
        if size == 0 {
            break;
        }
        assert!(rest.len() >= size + 2, "truncated chunk");
        body.extend_from_slice(&rest[..size]);
        rest = &rest[size + 2..];
        chunks += 1;
    }
    Response {
        status,
        headers,
        body,
        chunks,
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: stress\r\n");
    if let Some(body) = body {
        req.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    req.push_str("\r\n");
    if let Some(body) = body {
        req.push_str(body);
    }
    stream.write_all(req.as_bytes()).expect("send request");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read response");
    parse_response(&out)
}

fn extract_id(json: &str) -> u64 {
    json.split("\"id\":")
        .nth(1)
        .expect("id field")
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric id")
}

// --------------------------------------------------------------- fixture

fn edge_csv(rows: usize) -> String {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut csv = String::new();
    for _ in 0..rows {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        csv.push_str(&format!("{},{}\n", (x >> 33) % 40, (x >> 13) % 40));
    }
    csv
}

/// The rows a sequential run streams for `query` — the bit-identity
/// oracle, order included. A new catalog's worker-less service runs the
/// query as one task on this thread; `wcoj-query`'s
/// `worker_less_route_matches_sequential_evaluation` pins that route to
/// `PreparedQuery::evaluate`.
fn sequential_rows(csv: &str, query: &str) -> String {
    let mut catalog = Catalog::new();
    let rel = wcoj::query::load_csv(csv, catalog.dictionary()).unwrap();
    catalog.insert("E", rel);
    let q = wcoj::query::parse_query(query).unwrap();
    let result = wcoj::query::execute(&q, &catalog).unwrap();
    let mut body = String::new();
    for row in result.decoded_rows(&catalog) {
        let line: Vec<String> = row.iter().map(|d| format!("{d}")).collect();
        body.push_str(&line.join(","));
        body.push('\n');
    }
    body
}

fn server_on(workers: usize, queue_depth: usize, conn_threads: usize) -> (Server, Arc<Service>) {
    let service = Arc::new(Service::new(ServiceConfig {
        exec: wcoj::ExecConfig {
            shard_min_size: 1,
            ..wcoj::ExecConfig::default()
        },
        queue_depth,
        ..ServiceConfig::with_workers(workers)
    }));
    let mut catalog = Catalog::new();
    catalog.set_service(Some(Arc::clone(&service)));
    let cfg = ServerConfig {
        bind: "127.0.0.1:0".parse().unwrap(),
        conn_threads,
        ..ServerConfig::default()
    };
    let server = Server::start_with(cfg, catalog).expect("bind loopback");
    (server, service)
}

fn blocker(seed: u64) -> Arc<PreparedQuery> {
    let rels = wcoj::datagen::cycle_instance(seed, 5, 400, 20);
    Arc::new(PreparedQuery::new(&rels).unwrap())
}

// ------------------------------------------------------------------ e2e

/// The ISSUE's acceptance scenario: a multi-shard query streams its
/// first chunk while later shards are still queued behind a heavy
/// competitor, and the concatenated stream is bit-identical (rows *and*
/// order) to the sequential engine.
#[test]
fn multi_shard_query_streams_rows_before_the_last_shard_finishes() {
    let (server, service) = server_on(1, 0, 4);
    let addr = server.addr();
    let csv = edge_csv(220);
    let query = "q(x, y) :- E(x, y).";
    let expected = sequential_rows(&csv, query);

    let r = request(addr, "PUT", "/relation/E", Some(&csv));
    assert_eq!(r.status, 200, "{}", r.text());

    // A heavy 5-cycle occupies the single worker; round-robin dispatch
    // interleaves its shards with the streamed query's, so slots settle
    // one at a time with real gaps between them.
    let guard = service
        .submit(&blocker(41), &service.exec_config())
        .unwrap();

    let r = request(addr, "POST", "/query", Some(query));
    assert_eq!(r.status, 202, "{}", r.text());
    assert!(r.text().contains("\"streaming\":true"), "{}", r.text());
    let id = extract_id(r.text());

    // Read incrementally off the raw socket until one full chunk frame
    // has arrived.
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.write_all(format!("GET /query/{id}/rows HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(30);
    while !has_complete_chunk(&buf) {
        assert!(Instant::now() < deadline, "first chunk never arrived");
        let n = sock.read(&mut scratch).unwrap();
        assert!(n > 0, "stream ended before the first chunk");
        buf.extend_from_slice(&scratch[..n]);
    }

    // THE window: a chunk is on the wire, yet the query has unfinished
    // shards (the blocker still owns the worker between our slots). The
    // fetch took the job out of the table.
    assert_eq!(server.jobs_len(), 0);
    let mid_flight = service.counters();
    assert!(
        mid_flight.in_flight >= 1,
        "no query in flight while a chunk was already streamed: {mid_flight:?}"
    );

    // Drain the rest and verify bit-identity.
    sock.read_to_end(&mut buf).unwrap();
    drop(guard);
    let streamed = parse_response(&buf);
    assert_eq!(streamed.status, 200);
    assert_eq!(streamed.header("x-streaming"), Some("incremental"));
    assert!(
        streamed.chunks >= 2,
        "multi-shard plan produced {} chunk(s)",
        streamed.chunks
    );
    assert_eq!(streamed.text(), expected, "stream differs from join_nprr");
}

/// `true` once `raw` holds complete response headers plus at least one
/// complete non-empty chunk frame.
fn has_complete_chunk(raw: &[u8]) -> bool {
    let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
        return false;
    };
    let mut rest = &raw[head_end + 4..];
    let Some(line_end) = rest.windows(2).position(|w| w == b"\r\n") else {
        return false;
    };
    let Ok(size_str) = std::str::from_utf8(&rest[..line_end]) else {
        return false;
    };
    let Ok(size) = usize::from_str_radix(size_str.trim(), 16) else {
        return false;
    };
    rest = &rest[line_end + 2..];
    size > 0 && rest.len() >= size + 2
}

// ---------------------------------------------------------------- flood

/// `clients` concurrent clients each `POST` the query `per_client`
/// times: the accepted job ids and the number of 429s, each of which
/// must carry `Retry-After`.
fn flood(addr: SocketAddr, clients: usize, per_client: usize) -> (Vec<u64>, usize) {
    let threads: Vec<std::thread::JoinHandle<(Vec<u64>, usize)>> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut accepted = Vec::new();
                let mut shed = 0usize;
                for _ in 0..per_client {
                    let r = request(addr, "POST", "/query", Some("q(x, y) :- E(x, y)."));
                    match r.status {
                        202 => accepted.push(extract_id(r.text())),
                        429 => {
                            assert_eq!(
                                r.header("retry-after"),
                                Some("1"),
                                "429 without Retry-After"
                            );
                            shed += 1;
                        }
                        s => panic!("unexpected status {s}: {}", r.text()),
                    }
                }
                (accepted, shed)
            })
        })
        .collect();
    let mut accepted = Vec::new();
    let mut shed = 0;
    for t in threads {
        let (ids, n) = t.join().expect("flood client");
        accepted.extend(ids);
        shed += n;
    }
    (accepted, shed)
}

/// Waits until the service has no query in flight and no task queued.
fn drain(service: &Service) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let c = service.counters();
        if c.in_flight == 0 && c.queued_tasks == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "service never drained: {c:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Concurrent clients flooding past the admission bound: every response
/// is a 202 or a 429-with-Retry-After, the 429 count matches the
/// service's shed counter *exactly*, accepted queries all stream rows
/// bit-identical to the sequential engine, and `/metrics` stays a valid
/// Prometheus exposition mid-flood. The first round runs while two
/// blockers hold the whole bound, so it must shed; the second runs after
/// they drain, so it must admit.
#[test]
fn admission_flood_accounts_every_shed_as_a_429() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 8;

    let (server, service) = server_on(1, 2, 8);
    let addr = server.addr();
    let csv = edge_csv(220);
    let query = "q(x, y) :- E(x, y).";
    let expected = sequential_rows(&csv, query);

    let r = request(addr, "PUT", "/relation/E", Some(&csv));
    assert_eq!(r.status, 200, "{}", r.text());
    let shed_before = service.counters().shed;

    // One prober hits /metrics throughout the flood and checks the
    // exposition always parses.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let prober = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || {
            let mut probes = 0u32;
            loop {
                let r = request(addr, "GET", "/metrics", None);
                assert_eq!(r.status, 200);
                wcoj::obs::check_exposition(r.text())
                    .expect("mid-flood exposition must stay valid");
                probes += 1;
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    return probes;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    });

    // Two blockers fill the admission bound for their engine run (tens
    // of milliseconds; their cover is solved up front, so submitting
    // takes microseconds), and the first round floods into it.
    let heavy = blocker(43);
    heavy.resolve_cover(None).expect("cover");
    let blockers: Vec<_> = (0..2)
        .map(|_| service.submit(&heavy, &service.exec_config()).unwrap())
        .collect();
    let (mut accepted, shed_seen) = flood(addr, CLIENTS, PER_CLIENT);
    assert!(
        shed_seen > 0,
        "the first round never met the full queue_depth=2 bound"
    );
    for blocker in blockers {
        blocker.wait().unwrap();
    }
    drain(&service);

    // The second round starts with the bound empty, so it gets in.
    let (admitted, shed) = flood(addr, CLIENTS, PER_CLIENT);
    assert!(!admitted.is_empty(), "flood starved every submission");
    accepted.extend(admitted);
    let shed_seen = shed_seen + shed;
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let probes = prober.join().expect("metrics prober");
    assert!(probes > 0, "prober never ran");

    // Exact accounting: every submission is either accepted or a 429,
    // and the 429s are exactly the service's sheds.
    assert_eq!(accepted.len() + shed_seen, 2 * CLIENTS * PER_CLIENT);
    assert_eq!(
        service.counters().shed,
        shed_before + shed_seen as u64,
        "HTTP 429s and service sheds disagree"
    );

    // The global shed counter in /metrics moved by the same amount.
    let metrics = request(addr, "GET", "/metrics", None);
    let exposed = metric_value(metrics.text(), "wcoj_service_shed_total");
    assert!(
        exposed >= shed_seen as u64,
        "wcoj_service_shed_total={exposed} < {shed_seen}"
    );

    // Accepted queries all finished server-side (admission slots freed
    // without anyone fetching rows yet) and stream the exact rows.
    drain(&service);
    for &id in &accepted {
        let r = request(addr, "GET", &format!("/query/{id}/rows"), None);
        assert_eq!(r.status, 200, "job {id}: {}", r.text());
        assert_eq!(r.text(), expected, "job {id} rows differ from join_nprr");
    }
    drop(server);
}

fn metric_value(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_ascii_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} not exposed"))
}
