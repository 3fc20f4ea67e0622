//! Loopback tests: a real server on `127.0.0.1:0`, raw `TcpStream`
//! clients, no HTTP library on either side. Pins the protocol edge
//! cases (431/411/413/408/400, truncated requests, mid-stream
//! disconnects) and the full query round trip.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wcoj_core::nprr::PreparedQuery;
use wcoj_query::Catalog;
use wcoj_server::{Server, ServerConfig};
use wcoj_service::{Service, ServiceConfig};

// ---------------------------------------------------------------- client

struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    /// `true` iff the response was chunked and the terminating
    /// zero-chunk never arrived (the server aborted mid-stream).
    truncated: bool,
    /// Data chunks received (0 for an unchunked response).
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

fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("send request");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read response");
    out
}

fn parse_response(raw: &[u8]) -> Response {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = std::str::from_utf8(&raw[..head_end]).expect("UTF-8 head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
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
            truncated: false,
            chunks: 0,
        };
    }
    // Dechunk; a missing zero-chunk terminator marks truncation.
    let mut body = Vec::new();
    let mut chunks = 0;
    let mut rest = raw_body;
    let truncated = loop {
        let Some(line_end) = rest.windows(2).position(|w| w == b"\r\n") else {
            break true;
        };
        let size_hex = std::str::from_utf8(&rest[..line_end]).expect("chunk size");
        let size = usize::from_str_radix(size_hex.trim(), 16).expect("hex chunk size");
        rest = &rest[line_end + 2..];
        if size == 0 {
            break false;
        }
        if rest.len() < size + 2 {
            break true;
        }
        body.extend_from_slice(&rest[..size]);
        chunks += 1;
        rest = &rest[size + 2..];
    };
    Response {
        status,
        headers,
        body,
        truncated,
        chunks,
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Response {
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: loopback\r\n");
    if let Some(body) = body {
        req.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    req.push_str("\r\n");
    if let Some(body) = body {
        req.push_str(body);
    }
    parse_response(&send_raw(addr, req.as_bytes()))
}

// --------------------------------------------------------------- servers

fn small_caps_server() -> Server {
    let cfg = ServerConfig {
        bind: "127.0.0.1:0".parse().unwrap(),
        conn_threads: 2,
        read_timeout: Some(Duration::from_millis(300)),
        max_header_bytes: 1024,
        max_body_bytes: 2048,
        ..ServerConfig::default()
    };
    Server::start_with(cfg, Catalog::new()).expect("bind loopback")
}

/// A server whose catalog routes through a caller-held 1-worker service
/// with `shard_min_size: 1`, so even small relations shard into multiple
/// root slots (the incremental-streaming and cancellation scenarios).
fn streaming_server(queue_depth: usize) -> (Server, Arc<Service>) {
    let service = Arc::new(Service::new(ServiceConfig {
        exec: wcoj_exec::ExecConfig {
            shard_min_size: 1,
            ..wcoj_exec::ExecConfig::default()
        },
        queue_depth,
        ..ServiceConfig::with_workers(1)
    }));
    let mut catalog = Catalog::new();
    catalog.set_service(Some(Arc::clone(&service)));
    let cfg = ServerConfig {
        bind: "127.0.0.1:0".parse().unwrap(),
        conn_threads: 3,
        ..ServerConfig::default()
    };
    let server = Server::start_with(cfg, catalog).expect("bind loopback");
    (server, service)
}

/// A 5-cycle whose engine run takes tens of milliseconds while its
/// submission costs microseconds — occupies the single worker so slots
/// of a concurrently submitted query settle one at a time.
fn blocker(seed: u64) -> Arc<PreparedQuery> {
    let rels = wcoj_datagen::cycle_instance(seed, 5, 400, 20);
    Arc::new(PreparedQuery::new(&rels).unwrap())
}

fn edge_csv(rows: usize) -> String {
    // Deterministic LCG pairs with plenty of distinct roots, so a
    // `shard_min_size: 1` plan splits into multiple root slots.
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut csv = String::new();
    for _ in 0..rows {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = (x >> 33) % 40;
        let b = (x >> 13) % 40;
        csv.push_str(&format!("{a},{b}\n"));
    }
    csv
}

/// What the server should stream: the same CSV loaded into a fresh
/// local catalog and executed sequentially.
fn expected_csv(csv: &str, query: &str) -> (Vec<String>, String) {
    let catalog = local_catalog(&[("E", csv)]);
    let q = wcoj_query::parse_query(query).unwrap();
    let result = wcoj_query::execute(&q, &catalog).unwrap();
    let body = render(&result, &catalog);
    (result.columns, body)
}

/// `relations` loaded in order into a fresh catalog, so string data
/// interns to the same codes as on a fresh server loaded the same way.
fn local_catalog(relations: &[(&str, &str)]) -> Catalog {
    let mut catalog = Catalog::new();
    for &(name, csv) in relations {
        let rel = wcoj_query::load_csv(csv, catalog.dictionary()).unwrap();
        catalog.insert(name, rel);
    }
    catalog
}

/// `result` as the CSV text the server writes: one decoded row per line.
fn render(result: &wcoj_query::QueryResult, catalog: &Catalog) -> String {
    let mut body = String::new();
    for row in result.decoded_rows(catalog) {
        let line: Vec<String> = row.iter().map(|d| format!("{d}")).collect();
        body.push_str(&line.join(","));
        body.push('\n');
    }
    body
}

// ----------------------------------------------------------- edge cases

#[test]
fn malformed_requests_map_to_precise_statuses() {
    let server = small_caps_server();
    let addr = server.addr();

    // Garbage request line.
    let r = parse_response(&send_raw(addr, b"how about no\r\n\r\n"));
    assert_eq!(r.status, 400, "{}", r.text());

    // Lowercase method token.
    let r = parse_response(&send_raw(addr, b"get /healthz HTTP/1.1\r\n\r\n"));
    assert_eq!(r.status, 400);

    // Relative target.
    let r = parse_response(&send_raw(addr, b"GET healthz HTTP/1.1\r\n\r\n"));
    assert_eq!(r.status, 400);

    // Oversized headers: past the 1 KiB cap → 431.
    let mut big = String::from("GET /healthz HTTP/1.1\r\n");
    big.push_str(&format!("X-Padding: {}\r\n\r\n", "x".repeat(4096)));
    let r = parse_response(&send_raw(addr, big.as_bytes()));
    assert_eq!(r.status, 431);

    // POST without Content-Length → 411.
    let r = parse_response(&send_raw(
        addr,
        b"POST /query HTTP/1.1\r\n\r\nq(x) :- E(x).",
    ));
    assert_eq!(r.status, 411);

    // Content-Length past the 2 KiB body cap → 413, refused up front.
    let r = parse_response(&send_raw(
        addr,
        b"POST /query HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n",
    ));
    assert_eq!(r.status, 413);

    // Body shorter than Content-Length (half-closed) → 400.
    let r = parse_response(&send_raw(
        addr,
        b"POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
    ));
    assert_eq!(r.status, 400);

    // Malformed Content-Length → 400.
    let r = parse_response(&send_raw(
        addr,
        b"POST /query HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
    ));
    assert_eq!(r.status, 400);

    // A signed Content-Length is not 1*DIGIT → 400 (RFC 9112 §6.3).
    let r = parse_response(&send_raw(
        addr,
        b"GET /healthz HTTP/1.1\r\nContent-Length: +0\r\n\r\n",
    ));
    assert_eq!(r.status, 400, "{}", r.text());

    // Two Content-Length headers that disagree → 400; equal ones frame
    // the body as one would.
    let r = parse_response(&send_raw(
        addr,
        b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 2\r\n\r\nok",
    ));
    assert_eq!(r.status, 400, "{}", r.text());
    let r = parse_response(&send_raw(
        addr,
        b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok",
    ));
    assert_eq!(r.status, 200, "{}", r.text());

    // And after all that abuse the server still serves.
    let r = request(addr, "GET", "/healthz", None);
    assert_eq!(r.status, 200);
    assert_eq!(r.text(), "ok\n");
}

#[test]
fn stalled_and_truncated_requests_do_not_pin_connection_threads() {
    let server = small_caps_server();
    let addr = server.addr();

    // A client that connects, sends half a request line, and stalls: the
    // 300 ms read timeout answers 408 instead of pinning the thread.
    let mut stall = TcpStream::connect(addr).unwrap();
    stall.write_all(b"GET /healthz HT").unwrap();
    let mut out = Vec::new();
    stall.read_to_end(&mut out).unwrap();
    let r = parse_response(&out);
    assert_eq!(r.status, 408);

    // A truncated request (bytes then FIN mid-headers) gets a
    // best-effort 400 and the *next* connection is served normally.
    let r = parse_response(&send_raw(addr, b"GET /healthz HTTP/1.1\r\nX-Trunc: ye"));
    assert_eq!(r.status, 400);
    let r = request(addr, "GET", "/healthz", None);
    assert_eq!(r.status, 200);

    // A silent connect-and-close is a non-event, not an error.
    drop(TcpStream::connect(addr).unwrap());
    let r = request(addr, "GET", "/metrics", None);
    assert_eq!(r.status, 200);
    wcoj_obs::check_exposition(r.text()).expect("valid exposition");
}

// ------------------------------------------------------------ round trip

#[test]
fn query_protocol_round_trip() {
    let server = small_caps_server();
    let addr = server.addr();

    // Load a relation from CSV.
    let csv = "1,2\n2,3\n3,4\n2,4\n";
    let r = request(addr, "PUT", "/relation/E", Some(csv));
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("\"rows\":4"), "{}", r.text());

    // Unknown relations are 404, parse failures 400.
    let r = request(addr, "POST", "/query", Some("q(x) :- Nope(x, y)."));
    assert_eq!(r.status, 404, "{}", r.text());
    let r = request(addr, "POST", "/query", Some("q(x :- E(x, y)."));
    assert_eq!(r.status, 400, "{}", r.text());
    let r = request(addr, "GET", "/query/999/rows", None);
    assert_eq!(r.status, 404);
    let r = request(addr, "GET", "/query/bogus", None);
    assert_eq!(r.status, 404);
    let r = request(addr, "PUT", "/relation/no%20good", Some("1\n"));
    assert_eq!(r.status, 400);

    // Submit a join; its rows match a local sequential execution of the
    // same query. The fetch waits for them.
    let query = "path(x, z) :- E(x, y), E(y, z).";
    let r = request(addr, "POST", "/query", Some(query));
    assert_eq!(r.status, 202, "{}", r.text());
    let id = extract_id(r.text());
    let (columns, expected) = expected_csv(csv, query);
    assert_eq!(columns, vec!["x".to_owned(), "z".to_owned()]);
    let r = request(addr, "GET", &format!("/query/{id}/rows"), None);
    assert_eq!(r.status, 200);
    assert!(!r.truncated);
    assert_eq!(r.text(), expected);

    // Fetching again is 404: the fetch took the job out of the table.
    let r = request(addr, "GET", &format!("/query/{id}/rows"), None);
    assert_eq!(r.status, 404);

    // A multi-rule Datalog program runs eagerly; its last rule's rows
    // are served as one buffered chunk.
    let program = "two(x, z) :- E(x, y), E(y, z). out(z) :- two(x, z).";
    let r = request(addr, "POST", "/query", Some(program));
    assert_eq!(r.status, 202, "{}", r.text());
    assert!(r.text().contains("\"streaming\":false"), "{}", r.text());
    assert!(r.text().contains("\"columns\":[\"z\"]"), "{}", r.text());
    let pid = extract_id(r.text());
    let r = request(addr, "GET", &format!("/query/{pid}/rows"), None);
    assert_eq!(r.status, 200);
    assert_eq!(r.header("x-streaming"), Some("buffered"));
    let mut got: Vec<&str> = r.text().lines().collect();
    got.sort_unstable();
    assert_eq!(got, vec!["3", "4"]);
    let r = request(addr, "GET", &format!("/query/{pid}/rows"), None);
    assert_eq!(r.status, 404);
}

#[test]
fn a_failing_program_registers_none_of_its_heads() {
    let server = small_caps_server();
    let addr = server.addr();
    let r = request(addr, "PUT", "/relation/E", Some("1,2\n2,3\n3,4\n"));
    assert_eq!(r.status, 200, "{}", r.text());

    // The first rule succeeds, the second names an unknown relation: the
    // program fails as a whole and its first head is never registered.
    let program = "two(x, z) :- E(x, y), E(y, z). bad(x) :- Nope(x, y).";
    let r = request(addr, "POST", "/query", Some(program));
    assert_eq!(r.status, 404, "{}", r.text());
    let r = request(addr, "POST", "/query", Some("q(x, z) :- two(x, z)."));
    assert_eq!(r.status, 404, "{}", r.text());

    // A program whose every rule succeeds registers all its heads.
    let program = "two(x, z) :- E(x, y), E(y, z). out(z) :- two(x, z).";
    let r = request(addr, "POST", "/query", Some(program));
    assert_eq!(r.status, 202, "{}", r.text());
    let r = request(addr, "POST", "/query", Some("q(x, z) :- two(x, z)."));
    assert_eq!(r.status, 202, "{}", r.text());
    let id = extract_id(r.text());
    let r = request(addr, "GET", &format!("/query/{id}/rows"), None);
    assert_eq!(r.status, 200);
    let mut got: Vec<&str> = r.text().lines().collect();
    got.sort_unstable();
    assert_eq!(got, vec!["1,3", "2,4"]);
}

#[test]
fn row_mutation_endpoints_and_pinned_snapshots() {
    let (server, service) = streaming_server(0);
    let addr = server.addr();
    let csv = edge_csv(200);
    let query = "q(x, y) :- E(x, y).";
    let (_, expected_before) = expected_csv(&csv, query);

    let r = request(addr, "PUT", "/relation/E", Some(&csv));
    assert_eq!(r.status, 200, "{}", r.text());

    // Mutating an unknown relation is a 404 either way.
    let r = request(addr, "POST", "/relation/Nope/rows", Some("1,2\n"));
    assert_eq!(r.status, 404, "{}", r.text());
    let r = request(addr, "DELETE", "/relation/Nope", None);
    assert_eq!(r.status, 404, "{}", r.text());
    // Arity mismatches are refused before touching the relation.
    let r = request(addr, "POST", "/relation/E/rows", Some("1,2,3\n"));
    assert_eq!(r.status, 400, "{}", r.text());

    // Admit a query while the single worker is occupied, so its rows
    // stream only after the mutations below have landed.
    let heavy = blocker(41);
    let guard = service.submit(&heavy, &service.exec_config()).unwrap();
    let r = request(addr, "POST", "/query", Some(query));
    assert_eq!(r.status, 202, "{}", r.text());
    let pinned_id = extract_id(r.text());

    // Rows appended and deleted *after* admission. 1000/1001 are far
    // outside edge_csv's 0..40 key range, so membership is fresh.
    let r = request(addr, "POST", "/relation/E/rows", Some("1000,1001\n"));
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("\"appended\":1"), "{}", r.text());
    let r = request(addr, "DELETE", "/relation/E/rows", Some("1000,1001\n"));
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("\"deleted\":1"), "{}", r.text());
    let r = request(addr, "POST", "/relation/E/rows", Some("1002,1003\n"));
    assert_eq!(r.status, 200, "{}", r.text());
    // Even dropping the relation cannot touch the admitted query: its
    // plan holds the pre-mutation rows alive.
    let r = request(addr, "DELETE", "/relation/E", None);
    assert_eq!(r.status, 200, "{}", r.text());

    drop(guard);
    let r = request(addr, "GET", &format!("/query/{pinned_id}/rows"), None);
    assert_eq!(r.status, 200);
    assert!(!r.truncated);
    assert_eq!(r.text(), expected_before, "pinned snapshot was mutated");

    // A query admitted *after* the mutations sees none of E (dropped),
    // and re-loading plus appending shows appended rows to new queries.
    let r = request(addr, "POST", "/query", Some(query));
    assert_eq!(r.status, 404, "{}", r.text());
    let r = request(addr, "PUT", "/relation/E", Some(&csv));
    assert_eq!(r.status, 200);
    let r = request(addr, "POST", "/relation/E/rows", Some("1000,1001\n"));
    assert_eq!(r.status, 200, "{}", r.text());
    let with_appended = {
        let mut csv2 = csv.clone();
        csv2.push_str("1000,1001\n");
        expected_csv(&csv2, query).1
    };
    let r = request(addr, "POST", "/query", Some(query));
    assert_eq!(r.status, 202, "{}", r.text());
    let id = extract_id(r.text());
    let r = request(addr, "GET", &format!("/query/{id}/rows"), None);
    assert_eq!(r.status, 200);
    assert_eq!(r.text(), with_appended);

    // The catalog's delta metrics made it to the exposition.
    let r = request(addr, "GET", "/metrics", None);
    assert_eq!(r.status, 200);
    assert!(
        r.text().contains("wcoj_catalog_deltas_total"),
        "missing delta counter"
    );
}

/// An unfetched job keeps alive only what its own plan reads: replacing
/// a relation the query does not read frees the old base at once, while
/// the job still streams the rows it was admitted against.
#[test]
fn an_unfetched_job_pins_only_what_its_plan_reads() {
    let mut catalog = local_catalog(&[("R", "1,2\n2,3\n"), ("U", "7,8\n")]);
    catalog.set_service(Some(Arc::new(Service::new(ServiceConfig::with_workers(1)))));
    let old_u = Arc::downgrade(catalog.delta("U").unwrap().base());
    let cfg = ServerConfig {
        bind: "127.0.0.1:0".parse().unwrap(),
        conn_threads: 2,
        ..ServerConfig::default()
    };
    let server = Server::start_with(cfg, catalog).expect("bind loopback");
    let addr = server.addr();

    let r = request(addr, "POST", "/query", Some("q(x, y) :- R(x, y)."));
    assert_eq!(r.status, 202, "{}", r.text());
    let id = extract_id(r.text());
    let r = request(addr, "PUT", "/relation/U", Some("9,10\n"));
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(
        old_u.upgrade().is_none(),
        "an unfetched job over R kept U's replaced base alive"
    );

    let r = request(addr, "GET", &format!("/query/{id}/rows"), None);
    assert_eq!(r.status, 200);
    assert_eq!(r.text(), "1,2\n2,3\n");
}

fn extract_id(json: &str) -> u64 {
    let tail = json.split("\"id\":").nth(1).expect("id field");
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric id")
}

// ------------------------------------------------- streaming edge cases

/// The full triangle has an output-ordered plan, so it streams slot by
/// slot with no merge, byte-equal to a sequential run — over integer data
/// and over string data (the CSV writer's dictionary path). A Datalog
/// program's materialized answer goes out buffered, byte-equal too.
#[test]
fn full_triangle_streams_incrementally_over_int_and_string_data() {
    let (server, _service) = streaming_server(0);
    let addr = server.addr();
    let query = "tri(a, b, c) :- R(a, b), S(b, c), T(a, c).";
    let program = "two(a, c) :- R(a, b), S(b, c). out(a, c) :- two(a, c), T(a, c).";
    let ints = edge_csv(300);
    let strings: String = ints
        .lines()
        .map(|l| {
            let (a, b) = l.split_once(',').unwrap();
            format!("v{a},v{b}\n")
        })
        .collect();
    for (kind, csv) in [("int", &ints), ("string", &strings)] {
        let relations = [("R", csv.as_str()), ("S", csv), ("T", csv)];
        for &(name, csv) in &relations {
            let r = request(addr, "PUT", &format!("/relation/{name}"), Some(csv));
            assert_eq!(r.status, 200, "{kind}: {}", r.text());
        }
        let mut catalog = local_catalog(&relations);
        let expected = {
            let q = wcoj_query::parse_query(query).unwrap();
            render(&wcoj_query::execute(&q, &catalog).unwrap(), &catalog)
        };
        assert!(
            expected.lines().count() > 50,
            "{kind}: a non-trivial answer"
        );

        let r = request(addr, "POST", "/query", Some(query));
        assert_eq!(r.status, 202, "{kind}: {}", r.text());
        assert!(
            r.text().contains("\"streaming\":true"),
            "{kind}: {}",
            r.text()
        );
        let id = extract_id(r.text());
        let r = request(addr, "GET", &format!("/query/{id}/rows"), None);
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-streaming"), Some("incremental"), "{kind}");
        assert!(!r.truncated);
        assert_eq!(r.text(), expected, "{kind}: streamed body");

        let expected = {
            let p = wcoj_query::parse_program(program).unwrap();
            let outputs = wcoj_query::run_program(&p, &mut catalog).unwrap();
            render(&outputs.last().unwrap().1, &catalog)
        };
        let r = request(addr, "POST", "/query", Some(program));
        assert_eq!(r.status, 202, "{kind}: {}", r.text());
        let id = extract_id(r.text());
        let r = request(addr, "GET", &format!("/query/{id}/rows"), None);
        assert_eq!(r.header("x-streaming"), Some("buffered"), "{kind}");
        assert_eq!(r.text(), expected, "{kind}: materialized body");
    }
}

/// The 4-cycle has no atom order whose total order is the schema, but
/// (R, U, S, T) gives (a, b, d, c), which starts like it: its root and
/// anchor slots come out in schema order, each re-keyed inside its
/// (a, b) runs, so it streams too — one chunk per slot, byte-equal to
/// the sequential run.
#[test]
fn four_cycle_streams_incrementally_in_schema_order() {
    let (server, _service) = streaming_server(0);
    let addr = server.addr();
    let csv = edge_csv(300);
    let r = request(addr, "PUT", "/relation/E", Some(&csv));
    assert_eq!(r.status, 200, "{}", r.text());
    let query = "cyc(a, b, c, d) :- E(a, b), E(b, c), E(c, d), E(d, a).";
    let (_, expected) = expected_csv(&csv, query);
    assert!(expected.lines().count() > 50, "a non-trivial answer");

    let r = request(addr, "POST", "/query", Some(query));
    assert_eq!(r.status, 202, "{}", r.text());
    assert!(r.text().contains("\"streaming\":true"), "{}", r.text());
    let id = extract_id(r.text());
    let r = request(addr, "GET", &format!("/query/{id}/rows"), None);
    assert_eq!(r.status, 200);
    assert_eq!(r.header("x-streaming"), Some("incremental"));
    assert!(!r.truncated);
    assert!(r.chunks >= 2, "one chunk per slot, got {}", r.chunks);
    assert_eq!(r.text(), expected, "streamed body");
}

/// A fetch takes its job out of the table: while the rows are still
/// streaming, the table has one job fewer and every other fetch of the
/// same id, concurrent or later, is `404`, as is the id's bare path.
#[test]
fn a_fetched_job_leaves_the_table() {
    let (server, service) = streaming_server(0);
    let addr = server.addr();
    let csv = edge_csv(200);
    let query = "q(x, y) :- E(x, y).";
    let (_, expected) = expected_csv(&csv, query);

    let r = request(addr, "PUT", "/relation/E", Some(&csv));
    assert_eq!(r.status, 200, "{}", r.text());

    // Occupy the single worker so the streamed query's slots settle
    // one by one behind the blocker's shards.
    let heavy = blocker(23);
    let guard = service.submit(&heavy, &service.exec_config()).unwrap();

    let r = request(addr, "POST", "/query", Some(query));
    assert_eq!(r.status, 202, "{}", r.text());
    assert!(r.text().contains("\"streaming\":true"), "{}", r.text());
    let id = extract_id(r.text());
    assert_eq!(server.jobs_len(), 1);

    // Start the fetch on a raw socket and read its first chunk.
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    sock.write_all(
        format!("GET /query/{id}/rows HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .unwrap();
    let mut raw: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 4096];
    while !has_complete_chunk(&raw) {
        let n = sock
            .read(&mut scratch)
            .expect("first chunk within the deadline");
        assert!(n > 0, "stream ended before the first chunk");
        raw.extend_from_slice(&scratch[..n]);
    }

    // The stream is open, and its job is gone from the table.
    assert_eq!(server.jobs_len(), 0);
    let r = request(addr, "GET", &format!("/query/{id}/rows"), None);
    assert_eq!(r.status, 404, "{}", r.text());
    let r = request(addr, "GET", &format!("/query/{id}"), None);
    assert_eq!(r.status, 404, "{}", r.text());

    // Free the worker; the stream completes bit-identically to the
    // sequential run, and a later fetch is 404 too.
    drop(guard);
    sock.read_to_end(&mut raw).unwrap();
    let streamed = parse_response(&raw);
    assert_eq!(streamed.status, 200);
    assert_eq!(streamed.header("x-streaming"), Some("incremental"));
    assert!(!streamed.truncated);
    assert_eq!(streamed.text(), expected);
    let r = request(addr, "GET", &format!("/query/{id}/rows"), None);
    assert_eq!(r.status, 404, "{}", r.text());
}

/// `true` once `raw` holds complete response headers plus at least one
/// complete non-empty chunk frame.
fn has_complete_chunk(raw: &[u8]) -> bool {
    let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
        return false;
    };
    let rest = &raw[head_end + 4..];
    let Some(line_end) = rest.windows(2).position(|w| w == b"\r\n") else {
        return false;
    };
    let size = std::str::from_utf8(&rest[..line_end])
        .ok()
        .and_then(|hex| usize::from_str_radix(hex.trim(), 16).ok());
    size.is_some_and(|size| size > 0 && rest.len() >= line_end + 2 + size + 2)
}

#[test]
fn mid_stream_disconnect_cancels_and_frees_the_admission_slot() {
    let (server, service) = streaming_server(0);
    let addr = server.addr();
    let csv = edge_csv(200);

    let r = request(addr, "PUT", "/relation/E", Some(&csv));
    assert_eq!(r.status, 200, "{}", r.text());

    let heavy = blocker(29);
    let guard = service.submit(&heavy, &service.exec_config()).unwrap();
    let base = service.counters().cancelled;

    let r = request(addr, "POST", "/query", Some("q(x, y) :- E(x, y)."));
    assert_eq!(r.status, 202, "{}", r.text());
    let id = extract_id(r.text());

    // Read the response headers + first chunk, then vanish. The
    // server's next chunk write fails, which must drop the pending
    // query — cancelling its remaining slots and freeing the admission
    // slot — rather than leak it.
    let mut victim = TcpStream::connect(addr).unwrap();
    victim
        .write_all(format!("GET /query/{id}/rows HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    let mut first = [0u8; 512];
    let n = victim.read(&mut first).unwrap();
    assert!(n > 0, "headers never arrived");
    drop(victim);

    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if service.counters().cancelled > base {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect never cancelled the query: {:?}",
            service.counters()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Everything drains: no leaked in-flight query, and the skipped
    // shard tasks show the cancellation actually saved pool time.
    drop(guard);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let c = service.counters();
        if c.in_flight == 0 && c.queued_tasks == 0 {
            assert!(c.skipped_tasks >= 1, "{c:?}");
            break;
        }
        assert!(Instant::now() < deadline, "service never drained: {c:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_client_that_stops_reading_does_not_pin_the_connection_thread() {
    let cfg = ServerConfig {
        bind: "127.0.0.1:0".parse().unwrap(),
        conn_threads: 1,
        read_timeout: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    };
    let server = Server::start_with(cfg, Catalog::new()).expect("bind loopback");
    let addr = server.addr();

    // 400 ~100-byte strings all joined on one key: 160 000 result rows of
    // ~200 bytes, ~32 MB of CSV — several times what the loopback socket
    // buffers hold, so the server's writes stall once the client stops
    // reading.
    let pad = "x".repeat(96);
    let csv: String = (0..400).map(|i| format!("{pad}{i:03},0\n")).collect();
    let r = request(addr, "PUT", "/relation/E", Some(&csv));
    assert_eq!(r.status, 200, "{}", r.text());
    let r = request(
        addr,
        "POST",
        "/query",
        Some("q(x, y, k) :- E(x, k), E(y, k)."),
    );
    assert_eq!(r.status, 202, "{}", r.text());
    let id = extract_id(r.text());

    // Ask for the rows and never read them.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .write_all(format!("GET /query/{id}/rows HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();

    // The one connection thread gives up on the stalled write and serves
    // the next client before this client's own deadline.
    let mut probe = TcpStream::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    probe
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut out = Vec::new();
    probe
        .read_to_end(&mut out)
        .expect("healthz answered while a client stalls a rows fetch");
    assert_eq!(parse_response(&out).status, 200);

    // The server gave the stalled fetch up: what it had buffered drains
    // and then the connection ends, without the terminating chunk.
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut out = Vec::new();
    stalled
        .read_to_end(&mut out)
        .expect("the server closes the stalled connection");
    let r = parse_response(&out);
    assert_eq!(r.status, 200);
    assert!(
        r.truncated,
        "a stream the client stopped reading was completed"
    );
    assert!(!out.ends_with(b"0\r\n\r\n"));
}

// ------------------------------------------------------------ keep-alive

/// Reads exactly one fixed-length response off an open connection,
/// leaving the stream usable for the next request.
fn read_one(stream: &mut TcpStream) -> Response {
    let mut raw = Vec::new();
    let mut chunk = [0u8; 2048];
    loop {
        if let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&raw[..head_end]).expect("UTF-8 head");
            let want: usize = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().expect("numeric length"))
                })
                .unwrap_or(0);
            if raw.len() >= head_end + 4 + want {
                return parse_response(&raw[..head_end + 4 + want]);
            }
        }
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "connection closed mid-response");
        raw.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let server = small_caps_server();
    let addr = server.addr();

    // Several requests ride one connection; each response advertises
    // the fate the server will follow.
    let mut stream = TcpStream::connect(addr).unwrap();
    for _ in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: loopback\r\n\r\n")
            .unwrap();
        let r = read_one(&mut stream);
        assert_eq!(r.status, 200);
        assert_eq!(r.header("connection"), Some("keep-alive"));
        assert_eq!(r.text(), "ok\n");
    }

    // `Connection: close` is honoured: the response says close and the
    // server hangs up.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let r = read_one(&mut stream);
    assert_eq!(r.status, 200);
    assert_eq!(r.header("connection"), Some("close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "bytes after a Connection: close response");

    // Two requests pipelined in one write both get answered (the bytes
    // past the first request's body carry over as the second request).
    let raw = send_raw(
        addr,
        b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n",
    );
    let first_len = {
        let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        head_end + 3 // "ok\n"
    };
    let first = parse_response(&raw[..first_len]);
    let second = parse_response(&raw[first_len..]);
    assert_eq!((first.status, first.text()), (200, "ok\n"));
    assert_eq!((second.status, second.text()), (200, "ok\n"));
}

#[test]
fn keep_alive_budget_and_idle_timeout_close_the_connection() {
    let cfg = ServerConfig {
        bind: "127.0.0.1:0".parse().unwrap(),
        conn_threads: 2,
        read_timeout: Some(Duration::from_millis(300)),
        keep_alive_max: 2,
        idle_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    };
    let server = Server::start_with(cfg, Catalog::new()).expect("bind loopback");
    let addr = server.addr();

    // The budget's last response says close, and the server hangs up.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(
        read_one(&mut stream).header("connection"),
        Some("keep-alive")
    );
    stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(read_one(&mut stream).header("connection"), Some("close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "served past the keep-alive budget");

    // A kept-alive connection that goes idle is closed silently — no
    // 408, no bytes, just EOF once the idle timeout lapses.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(read_one(&mut idle).status, 200);
    let mut rest = Vec::new();
    idle.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "idle expiry must close silently");
}

#[test]
fn overload_maps_to_429_with_retry_after() {
    let (server, service) = streaming_server(2);
    let addr = server.addr();
    let r = request(addr, "PUT", "/relation/E", Some(&edge_csv(200)));
    assert_eq!(r.status, 200);

    // Fill both admission slots with blockers submitted out-of-band.
    let g1 = service
        .submit(&blocker(31), &service.exec_config())
        .unwrap();
    let g2 = service
        .submit(&blocker(37), &service.exec_config())
        .unwrap();

    let shed_before = service.counters().shed;
    let r = request(addr, "POST", "/query", Some("q(x, y) :- E(x, y)."));
    assert_eq!(r.status, 429, "{}", r.text());
    assert_eq!(r.header("retry-after"), Some("1"));
    assert_eq!(service.counters().shed, shed_before + 1);

    drop(g1);
    drop(g2);
}

/// A job table full of queries nobody has fetched yet refuses the next
/// `POST /query` with `429` instead of evicting a waiting job, so the
/// first client's rows are still there when it comes back for them.
#[test]
fn a_full_job_table_refuses_instead_of_evicting() {
    let server = small_caps_server();
    let addr = server.addr();
    let csv = "1,2\n2,3\n3,4\n";
    assert_eq!(request(addr, "PUT", "/relation/E", Some(csv)).status, 200);
    let query = "path(x, z) :- E(x, y), E(y, z).";
    // Fill the table: every POST gets 202 until the first 429.
    let mut ids = Vec::new();
    let refused = loop {
        let r = request(addr, "POST", "/query", Some(query));
        if r.status != 202 {
            break r;
        }
        ids.push(extract_id(r.text()));
        assert!(ids.len() <= 1_000, "the job table never filled");
    };
    assert_eq!(refused.status, 429, "{}", refused.text());
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert_eq!(server.jobs_len(), ids.len(), "the refused job is not kept");
    let r = request(addr, "POST", "/query", Some(query));
    assert_eq!(r.status, 429, "still full: {}", r.text());

    let r = request(addr, "GET", &format!("/query/{}/rows", ids[0]), None);
    assert_eq!(r.status, 200, "the oldest waiting job survived");
    assert_eq!(r.text(), expected_csv(csv, query).1);
    // A fetched job leaves the table, so it makes room for exactly one
    // more.
    let r = request(addr, "POST", "/query", Some(query));
    assert_eq!(r.status, 202, "{}", r.text());
    let r = request(addr, "POST", "/query", Some(query));
    assert_eq!(r.status, 429, "{}", r.text());
    assert_eq!(server.jobs_len(), ids.len());
}
