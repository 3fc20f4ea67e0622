//! Route handlers. Each takes the shared [`ServerState`], the parsed
//! request, and the connection (responses — fixed or chunked — are
//! written directly, advertising the serve loop's keep-alive decision).

use crate::http::{json_escape, write_response, ChunkedWriter, Conn, Request};
use crate::ServerState;
use wcoj_query::{
    load_csv, parse_program, parse_query, run_program, submit_query, PendingQuery, QueryTextError,
};
use wcoj_storage::{Dictionary, Relation};

/// Dispatches one request. Transport errors bubble up (the connection is
/// closed either way); protocol-level failures are answered in-band.
pub(crate) fn handle(
    state: &ServerState,
    req: &Request,
    conn: &mut Conn<'_>,
) -> std::io::Result<()> {
    let path = req.path.trim_end_matches('/');
    let segments: Vec<&str> = path.split('/').skip(1).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => write_response(conn, 200, "OK", "text/plain", &[], b"ok\n"),
        // Stands in for a handler bug: the accept loop must survive it.
        #[cfg(test)]
        ("GET", ["panic"]) => panic!("a handler died mid-request"),
        ("GET", ["metrics"]) => {
            let body = wcoj_obs::global().render_prometheus();
            write_response(
                conn,
                200,
                "OK",
                "text/plain; version=0.0.4",
                &[],
                body.as_bytes(),
            )
        }
        ("PUT", ["relation", name]) => put_relation(state, req, name, conn),
        ("POST", ["relation", name, "rows"]) => mutate_relation_rows(state, req, name, conn, true),
        ("DELETE", ["relation", name, "rows"]) => {
            mutate_relation_rows(state, req, name, conn, false)
        }
        ("DELETE", ["relation", name]) => delete_relation(state, name, conn),
        ("POST", ["query"]) => post_query(state, req, conn),
        ("GET", ["query", id, "rows"]) => match id.parse::<u64>() {
            Ok(id) => query_rows(state, id, conn),
            Err(_) => error_response(conn, 404, "job ids are integers"),
        },
        _ => error_response(conn, 404, "no such route"),
    }
}

/// Writes a uniform JSON error body.
pub(crate) fn error_response(
    conn: &mut Conn<'_>,
    status: u16,
    message: &str,
) -> std::io::Result<()> {
    let reason = reason_for(status);
    let body = format!("{{\"error\":\"{}\"}}\n", json_escape(message));
    let retry: &[(&str, String)] = if status == 429 {
        &[("Retry-After", String::from("1"))]
    } else {
        &[]
    };
    write_response(
        conn,
        status,
        reason,
        "application/json",
        retry,
        body.as_bytes(),
    )
}

fn reason_for(status: u16) -> &'static str {
    match status {
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        499 => "Client Closed Request",
        _ => "Internal Server Error",
    }
}

/// `PUT /relation/{name}`: CSV body → relation in the catalog.
fn put_relation(
    state: &ServerState,
    req: &Request,
    name: &str,
    conn: &mut Conn<'_>,
) -> std::io::Result<()> {
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return error_response(conn, 400, "relation names are [A-Za-z0-9_]+");
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return error_response(conn, 400, "CSV body must be UTF-8");
    };
    let rel = match load_csv(text, &state.dict) {
        Ok(rel) => rel,
        Err(e) => return error_response(conn, 400, &format!("CSV: {e}")),
    };
    let rows = rel.len();
    state.catalog_mut().insert(name, rel);
    let body = format!(
        "{{\"relation\":\"{}\",\"rows\":{rows}}}\n",
        json_escape(name)
    );
    write_response(conn, 200, "OK", "application/json", &[], body.as_bytes())
}

/// `POST /relation/{name}/rows` (append) and `DELETE
/// /relation/{name}/rows` (delete): the CSV body's rows become a delta
/// against the named relation. Queries admitted *before* the mutation
/// keep the rows their plans pinned; queries admitted after see the new
/// rows.
fn mutate_relation_rows(
    state: &ServerState,
    req: &Request,
    name: &str,
    conn: &mut Conn<'_>,
    append: bool,
) -> std::io::Result<()> {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return error_response(conn, 400, "CSV body must be UTF-8");
    };
    let rel = match load_csv(text, &state.dict) {
        Ok(rel) => rel,
        Err(e) => return error_response(conn, 400, &format!("CSV: {e}")),
    };
    let rows: Vec<Vec<wcoj_storage::Value>> = rel.iter_rows().map(<[_]>::to_vec).collect();
    let changed = {
        let mut catalog = state.catalog_mut();
        let res = if append {
            catalog.insert_rows(name, &rows)
        } else {
            catalog.delete_rows(name, &rows)
        };
        match res {
            Ok(Some(n)) => Ok((n, catalog.row_count(name).unwrap_or(0))),
            Ok(None) => Err((404, format!("no relation named {name:?}"))),
            Err(e) => Err((400, e.to_string())),
        }
    };
    match changed {
        Ok((n, total)) => {
            let verb = if append { "appended" } else { "deleted" };
            let body = format!(
                "{{\"relation\":\"{}\",\"{verb}\":{n},\"rows\":{total}}}\n",
                json_escape(name)
            );
            write_response(conn, 200, "OK", "application/json", &[], body.as_bytes())
        }
        Err((status, message)) => {
            state.metrics.errors_total.inc();
            error_response(conn, status, &message)
        }
    }
}

/// `DELETE /relation/{name}`: unregisters the relation. The plans of
/// in-flight queries still hold their copy.
fn delete_relation(state: &ServerState, name: &str, conn: &mut Conn<'_>) -> std::io::Result<()> {
    let removed = state.catalog_mut().remove(name);
    if removed {
        let body = format!(
            "{{\"relation\":\"{}\",\"removed\":true}}\n",
            json_escape(name)
        );
        write_response(conn, 200, "OK", "application/json", &[], body.as_bytes())
    } else {
        state.metrics.errors_total.inc();
        error_response(conn, 404, &format!("no relation named {name:?}"))
    }
}

/// `POST /query`: a single conjunctive query is submitted through the
/// service for streaming; a multi-statement Datalog program runs eagerly
/// and its last rule's result becomes the job's one buffered batch.
///
/// Submission plans against a copy-on-write [`wcoj_query::Snapshot`] of
/// the catalog taken at admission and releases it once the query is
/// submitted: the plan holds `Arc`s on every base, delta and index it
/// reads, so later catalog mutations cannot change what this query
/// returns, and the job pins nothing else.
fn post_query(state: &ServerState, req: &Request, conn: &mut Conn<'_>) -> std::io::Result<()> {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return error_response(conn, 400, "query body must be UTF-8");
    };
    state.metrics.queries_total.inc();
    let submitted = match parse_query(text) {
        Ok(q) => {
            let snapshot = state.catalog().freeze();
            submit_query(&q, snapshot.catalog()).map(|query| (query, String::new()))
        }
        // Not a single query — maybe a program. If the program parse
        // fails too, report *its* error (a superset grammar). The rules
        // run on a fork taken under the read lock, so no join holds the
        // write lock; only if every rule succeeds are the derived heads
        // committed, under one short write lock.
        Err(_) => parse_program(text).and_then(|program| {
            let mut fork = state.catalog().fork();
            let mut outputs = run_program(&program, &mut fork)?;
            state
                .catalog_mut()
                .adopt(fork, outputs.iter().map(|(name, _)| name.as_str()));
            let rules = outputs.len();
            let (name, last) = outputs.pop().expect("programs have ≥ 1 rule");
            let head = format!("\"head\":\"{}\",\"rules\":{rules},", json_escape(&name));
            Ok((PendingQuery::materialized(last), head))
        }),
    };
    match submitted {
        Ok((query, head)) => {
            let columns = columns_json(query.columns());
            let streaming = query.incremental();
            let Some(id) = state.jobs.insert(query) else {
                state.metrics.overloaded_total.inc();
                return error_response(conn, 429, "job table full of unfetched queries");
            };
            let body = format!(
                "{{\"id\":{id},{head}\"columns\":[{columns}],\"streaming\":{streaming}}}\n"
            );
            write_response(
                conn,
                202,
                "Accepted",
                "application/json",
                &[],
                body.as_bytes(),
            )
        }
        Err(e) => query_error(state, conn, &e),
    }
}

/// Maps a [`QueryTextError`] onto the wire, bumping the right counters.
fn query_error(
    state: &ServerState,
    conn: &mut Conn<'_>,
    e: &QueryTextError,
) -> std::io::Result<()> {
    let status = e.http_status();
    if status == 429 {
        state.metrics.overloaded_total.inc();
    } else {
        state.metrics.errors_total.inc();
    }
    error_response(conn, status, &e.to_string())
}

fn columns_json(columns: &[String]) -> String {
    columns
        .iter()
        .map(|c| format!("\"{}\"", json_escape(c)))
        .collect::<Vec<_>>()
        .join(",")
}

/// Counts a row stream that failed after its chunked headers went out,
/// and closes the connection: the truncated stream (no terminating
/// chunk) is the only honest signal left. `499` is a client that vanished
/// or stopped reading.
fn fail_job(state: &ServerState, conn: &mut Conn<'_>, status: u16) {
    if status == 429 {
        state.metrics.overloaded_total.inc();
    } else {
        state.metrics.errors_total.inc();
    }
    conn.keep_alive = false;
}

/// Appends `rel`'s rows to `out` as CSV lines: an integer in decimal, a
/// string as its interned text copied out of the dictionary (read-locked
/// once per call), a code naming no interned string as its raw number.
fn append_csv(dict: &Dictionary, rel: &Relation, out: &mut Vec<u8>) {
    dict.with_strings(|strings| {
        for row in rel.iter_rows() {
            for (i, &v) in row.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                match Dictionary::string_slot(v).and_then(|slot| strings.get(slot)) {
                    Some(s) => out.extend_from_slice(s.as_bytes()),
                    None => append_u64(v.0, out),
                }
            }
            out.push(b'\n');
        }
    });
}

/// Appends `v` in decimal.
fn append_u64(mut v: u64, out: &mut Vec<u8>) {
    let mut digits = [0u8; 20]; // u64::MAX has 20
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// `GET /query/{id}/rows`: takes the job out of the table and streams
/// its result as chunked CSV. For an incrementally streamable plan each
/// root slot's rows go out as a chunk the moment that slot settles;
/// otherwise one merged chunk at the end. A job is fetched once: a later
/// or concurrent fetch finds no such job.
fn query_rows(state: &ServerState, id: u64, conn: &mut Conn<'_>) -> std::io::Result<()> {
    let Some(mut pending) = state.jobs.take(id) else {
        return error_response(conn, 404, "no such job");
    };
    let mode = if pending.incremental() {
        "incremental"
    } else {
        "buffered"
    };
    // The first batch decides the response shape: an error here can still
    // be answered with a plain status; past it the chunked headers are on
    // the wire.
    let first = match pending.next_batch() {
        Some(Err(e)) => {
            drop(pending);
            return query_error(state, conn, &e);
        }
        other => other.map(|r| r.expect("Err handled above")),
    };
    let mut w = match ChunkedWriter::start(
        conn,
        200,
        "OK",
        "text/csv",
        &[("X-Streaming", mode.to_owned())],
    ) {
        Ok(w) => w,
        Err(e) => {
            drop(pending);
            fail_job(state, conn, 499);
            return Err(e);
        }
    };
    let mut rows: u64 = 0;
    let mut batch = first;
    let mut data = Vec::new();
    while let Some(rel) = batch {
        data.clear();
        append_csv(&state.dict, &rel, &mut data);
        if let Err(e) = w.chunk(&data) {
            // Client vanished, or stopped reading for the write timeout,
            // mid-stream. Dropping `pending` cancels still-queued shards
            // and frees the admission slot.
            drop(pending);
            fail_job(state, conn, 499);
            return Err(e);
        }
        rows += rel.len() as u64;
        batch = match pending.next_batch() {
            Some(Ok(rel)) => Some(rel),
            None => None,
            Some(Err(e)) => {
                drop(pending);
                fail_job(state, conn, e.http_status());
                return Ok(());
            }
        };
    }
    if let Err(e) = w.finish() {
        fail_job(state, conn, 499);
        return Err(e);
    }
    state.metrics.rows_streamed_total.add(rows);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_storage::{Schema, Value};

    #[test]
    fn u64_formatting_matches_display() {
        for v in [
            0,
            7,
            9,
            10,
            99,
            100,
            12_345,
            1 << 62,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            append_u64(v, &mut out);
            assert_eq!(out, v.to_string().into_bytes());
        }
    }

    #[test]
    fn csv_bytes_match_the_decoded_text() {
        let dict = Dictionary::new();
        let alice = dict.encode_str("alice");
        let spaced = dict.encode_str("x y");
        let unknown = Value((1 << 63) | 99);
        let rel = Relation::from_rows(
            Schema::of(&[0, 1, 2]),
            vec![
                vec![Value(0), alice, Value(42)],
                vec![spaced, unknown, Value((1 << 63) - 1)],
            ],
        )
        .unwrap();
        let mut out = Vec::new();
        append_csv(&dict, &rel, &mut out);
        let want: String = rel
            .iter_rows()
            .map(|row| {
                let fields: Vec<String> = row
                    .iter()
                    .map(|&v| dict.decode(v).map_or(v.0.to_string(), |d| d.to_string()))
                    .collect();
                fields.join(",") + "\n"
            })
            .collect();
        assert_eq!(String::from_utf8(out).unwrap(), want);
        assert!(want.contains("alice") && want.contains(&(u64::MAX / 2).to_string()));
        // The nullary relation holding the empty tuple is one empty line.
        let mut out = Vec::new();
        append_csv(&dict, &Relation::nullary_true(), &mut out);
        assert_eq!(out, b"\n");
    }
}
