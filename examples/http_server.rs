//! The HTTP front end, end to end over a loopback socket: start
//! `wcoj-server` in-process, load a relation with `PUT /relation/E`,
//! submit a query with `POST /query`, stream its rows incrementally
//! from `GET /query/{id}/rows`, and finish with `/metrics` (validated
//! against the Prometheus text format). A curl-style smoke test with
//! `std::net::TcpStream` standing in for curl.
//!
//! ```sh
//! cargo run --release --example http_server
//! ```

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use wcoj::query::Catalog;
use wcoj::server::{Server, ServerConfig};
use wcoj::service::{Service, ServiceConfig};

/// Sends one request, returns `(status_line, body)` — chunked bodies
/// are reassembled.
fn curl(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: example\r\n");
    if let Some(body) = body {
        req.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    req.push_str("\r\n");
    if let Some(body) = body {
        req.push_str(body);
    }
    stream.write_all(req.as_bytes()).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, payload) = text.split_once("\r\n\r\n").expect("header terminator");
    let status_line = head.lines().next().expect("status line").to_owned();
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        let mut out = String::new();
        let mut rest = payload;
        loop {
            let (size_line, tail) = rest.split_once("\r\n").expect("chunk size");
            let size = usize::from_str_radix(size_line.trim(), 16).expect("hex size");
            if size == 0 {
                break;
            }
            out.push_str(&tail[..size]);
            rest = &tail[size + 2..];
        }
        out
    } else {
        payload.to_owned()
    };
    (status_line, body)
}

fn main() {
    // A server over a 2-worker service; `shard_min_size: 1` lets even
    // the small demo relation shard into multiple root slots, which is
    // what makes the row stream incremental.
    let service = Arc::new(Service::new(ServiceConfig {
        exec: wcoj::ExecConfig {
            shard_min_size: 1,
            ..wcoj::ExecConfig::default()
        },
        ..ServiceConfig::with_workers(2)
    }));
    let mut catalog = Catalog::new();
    catalog.set_service(Some(Arc::clone(&service)));
    let server = Server::start_with(
        ServerConfig {
            bind: "127.0.0.1:0".parse().expect("loopback"),
            ..ServerConfig::default()
        },
        catalog,
    )
    .expect("bind");
    let addr = server.addr();
    println!("server: http://{addr}");

    // --- 1. load a relation from CSV ----------------------------------
    let mut csv = String::new();
    for a in 0..30u32 {
        for b in 0..30u32 {
            if (a * 7 + b * 13) % 11 == 0 {
                csv.push_str(&format!("{a},{b}\n"));
            }
        }
    }
    let (status, body) = curl(addr, "PUT", "/relation/E", Some(&csv));
    println!("PUT /relation/E        → {status}  {body}");
    assert!(status.contains("200"));

    // --- 2. submit a join and stream its rows -------------------------
    let query = "path(x, z) :- E(x, y), E(y, z).";
    let (status, body) = curl(addr, "POST", "/query", Some(query));
    println!("POST /query            → {status}  {}", body.trim_end());
    assert!(status.contains("202"), "{body}");
    let id: u64 = body
        .split("\"id\":")
        .nth(1)
        .and_then(|t| t.split([',', '}']).next())
        .and_then(|t| t.parse().ok())
        .expect("job id");

    let (status, rows) = curl(addr, "GET", &format!("/query/{id}/rows"), None);
    assert!(status.contains("200"), "{rows}");
    println!(
        "GET /query/{id}/rows    → {status}  ({} rows)",
        rows.lines().count()
    );

    // The streamed rows are bit-identical to an in-process sequential
    // run of the same query: a new catalog's worker-less service runs it
    // as one task on this thread.
    let mut oracle = Catalog::new();
    let rel = wcoj::query::load_csv(&csv, oracle.dictionary()).expect("CSV");
    oracle.insert("E", rel);
    let q = wcoj::query::parse_query(query).expect("parse");
    let expected = wcoj::query::execute(&q, &oracle).expect("execute");
    let expected_rows: Vec<String> = expected
        .decoded_rows(&oracle)
        .iter()
        .map(|row| {
            row.iter()
                .map(|d| format!("{d}"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    let streamed_rows: Vec<&str> = rows.lines().collect();
    assert_eq!(
        streamed_rows, expected_rows,
        "stream differs from join_nprr"
    );
    println!("bit-identical to the sequential engine ✓");

    // --- 3. metrics exposition ----------------------------------------
    let (status, metrics) = curl(addr, "GET", "/metrics", None);
    assert!(status.contains("200"));
    wcoj::obs::check_exposition(&metrics).expect("valid Prometheus exposition");
    let served: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("wcoj_server_") && !l.starts_with('#'))
        .collect();
    println!(
        "GET /metrics           → {status}  ({} wcoj_server_* series)",
        served.len()
    );
    for line in served {
        println!("  {line}");
    }
    assert!(!metrics.is_empty());
    println!("done");
}
