//! Minimal HTTP/1.1 on blocking `std::net` sockets: just enough protocol
//! for the query endpoints — request line + headers + `Content-Length`
//! bodies in, fixed or chunked (`Transfer-Encoding: chunked`) responses
//! out. Connections are kept alive for a bounded number of requests
//! (with an idle timeout between them) unless the client asks for
//! `Connection: close` or the server's per-connection budget runs out;
//! bytes a client pipelines past one request's body carry over as the
//! start of the next.
//!
//! The satellite edge cases live here and each maps to a precise status:
//! oversized headers → `431`, a write body without `Content-Length` →
//! `411`, an oversized body → `413`, a stalled read → `408`, anything
//! malformed → `400`, and a clean disconnect before the first byte is a
//! non-event (no response, no error counter).

use std::io::{Read, Write};
use std::net::TcpStream;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, …).
    pub method: String,
    /// Path component, percent-decoding deliberately not applied (the
    /// routes only use `[A-Za-z0-9_/]` segments); a query string after
    /// `?` is dropped, since no route reads one.
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// `true` iff the client asked for `Connection: close`.
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| {
            v.split(',')
                .any(|tok| tok.trim().eq_ignore_ascii_case("close"))
        })
    }
}

/// A live connection plus the keep-alive decision for the response being
/// written on it. Handlers thread this through so every response frame
/// (fixed and chunked alike) advertises the same `Connection:` fate the
/// serve loop will honour afterwards.
pub(crate) struct Conn<'a> {
    pub(crate) stream: &'a mut TcpStream,
    /// `true` → responses say `Connection: keep-alive` and the serve
    /// loop reads another request; `false` → `Connection: close`.
    pub(crate) keep_alive: bool,
}

/// Why a request could not be read. Every variant except
/// [`RequestError::Disconnected`] and [`RequestError::Io`] maps to one
/// response status (see [`RequestError::status`]).
#[derive(Debug)]
pub enum RequestError {
    /// Malformed request line, header, or framing → `400`.
    Bad(&'static str),
    /// Request line + headers exceeded the configured cap → `431`.
    HeadersTooLarge,
    /// A `POST`/`PUT` without `Content-Length` → `411` (chunked request
    /// bodies are not supported).
    LengthRequired,
    /// `Content-Length` exceeds the body cap → `413`, refused before
    /// reading.
    BodyTooLarge,
    /// The socket read timed out mid-request → `408`.
    TimedOut,
    /// The client closed the connection before sending anything: not an
    /// error, nothing to answer.
    Disconnected,
    /// Transport failure mid-read; the connection is unusable.
    Io(std::io::Error),
}

impl RequestError {
    /// The `(status, reason, message)` to answer with, or `None` when no
    /// response can or should be written.
    #[must_use]
    pub fn status(&self) -> Option<(u16, &'static str, String)> {
        match self {
            RequestError::Bad(m) => Some((400, "Bad Request", (*m).to_owned())),
            RequestError::HeadersTooLarge => Some((
                431,
                "Request Header Fields Too Large",
                "request line + headers exceed the cap".to_owned(),
            )),
            RequestError::LengthRequired => Some((
                411,
                "Length Required",
                "write requests must carry Content-Length".to_owned(),
            )),
            RequestError::BodyTooLarge => Some((
                413,
                "Content Too Large",
                "request body exceeds the cap".to_owned(),
            )),
            RequestError::TimedOut => Some((
                408,
                "Request Timeout",
                "connection idle mid-request".to_owned(),
            )),
            RequestError::Disconnected | RequestError::Io(_) => None,
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one request off `stream`, honouring the header/body caps. The
/// caller is expected to have applied any read timeout to the socket.
///
/// `carry` holds bytes a pipelining client sent past the previous
/// request's `Content-Length`; they are consumed first, and any bytes
/// past *this* request's body are left in it for the next call.
///
/// # Errors
/// See [`RequestError`].
pub fn read_request(
    stream: &mut TcpStream,
    max_header_bytes: usize,
    max_body_bytes: usize,
    carry: &mut Vec<u8>,
) -> Result<Request, RequestError> {
    // Accumulate until the header terminator, capped. Tolerates bare
    // "\n\n" from hand-rolled clients. Seeded with pipelined carry-over.
    let mut buf: Vec<u8> = std::mem::take(carry);
    buf.reserve(512);
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(i) = find_header_end(&buf) {
            break i;
        }
        if buf.len() > max_header_bytes {
            return Err(RequestError::HeadersTooLarge);
        }
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if is_timeout(&e) => return Err(RequestError::TimedOut),
            Err(e) => return Err(RequestError::Io(e)),
        };
        if n == 0 {
            return if buf.is_empty() {
                Err(RequestError::Disconnected)
            } else {
                // Bytes arrived, then the stream ended mid-headers: a
                // truncated request, answered (best-effort) with 400.
                Err(RequestError::Bad("truncated request"))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let (head, rest) = buf.split_at(header_end.0);
    let mut body: Vec<u8> = rest[header_end.1..].to_vec();

    let head = std::str::from_utf8(head).map_err(|_| RequestError::Bad("headers not UTF-8"))?;
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or(RequestError::Bad("empty request line"))?
        .to_owned();
    let target = parts
        .next()
        .ok_or(RequestError::Bad("request line misses the target"))?;
    let version = parts
        .next()
        .ok_or(RequestError::Bad("request line misses the HTTP version"))?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return Err(RequestError::Bad("malformed request line"));
    }
    if !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(RequestError::Bad("malformed method token"));
    }
    let path = target.split_once('?').map_or(target, |(p, _)| p).to_owned();
    if !path.starts_with('/') {
        return Err(RequestError::Bad("target must be absolute"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(RequestError::Bad("malformed header line"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(RequestError::Bad("malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }
    let req_has_body = matches!(method.as_str(), "POST" | "PUT");
    // RFC 9112 §6.3: a Content-Length that is not 1*DIGIT (`usize`'s
    // parser also takes a leading `+`), or repeated ones that disagree,
    // leave the framing invalid.
    let mut content_length = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let n = v
            .bytes()
            .all(|b| b.is_ascii_digit())
            .then(|| v.parse::<usize>().ok())
            .flatten()
            .ok_or(RequestError::Bad("malformed Content-Length"))?;
        if content_length.replace(n).is_some_and(|m| m != n) {
            return Err(RequestError::Bad("conflicting Content-Length headers"));
        }
    }
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(RequestError::Bad("chunked request bodies unsupported"));
    }
    let want = match (req_has_body, content_length) {
        (true, None) => return Err(RequestError::LengthRequired),
        (_, Some(n)) if n > max_body_bytes => return Err(RequestError::BodyTooLarge),
        (_, Some(n)) => n,
        (false, None) => 0,
    };

    // Body bytes past the header terminator may already be buffered;
    // anything past `want` belongs to the next pipelined request.
    if body.len() > want {
        *carry = body.split_off(want);
    }
    while body.len() < want {
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if is_timeout(&e) => return Err(RequestError::TimedOut),
            Err(e) => return Err(RequestError::Io(e)),
        };
        if n == 0 {
            return Err(RequestError::Bad("body shorter than Content-Length"));
        }
        let take = (want - body.len()).min(n);
        body.extend_from_slice(&chunk[..take]);
        if take < n {
            carry.extend_from_slice(&chunk[take..n]);
        }
    }

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Position of the header terminator: `(offset of terminator, its
/// length)` — `\r\n\r\n` or `\n\n`.
fn find_header_end(buf: &[u8]) -> Option<(usize, usize)> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| (i, 4))
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|i| (i, 2)))
}

/// Writes a complete fixed-length response and flushes. Errors are
/// returned so callers can account a vanished client, but there is
/// nothing further to do with the connection either way.
pub(crate) fn write_response(
    conn: &mut Conn<'_>,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let fate = if conn.keep_alive {
        "keep-alive"
    } else {
        "close"
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {fate}\r\n",
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    conn.stream.write_all(head.as_bytes())?;
    conn.stream.write_all(body)?;
    conn.stream.flush()
}

/// An in-progress `Transfer-Encoding: chunked` response: `start`, then
/// any number of `chunk`s, then `finish`. Each chunk is flushed
/// immediately — the transport-level half of incremental row streaming.
pub(crate) struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the status line + headers and switches to chunked framing.
    pub(crate) fn start(
        conn: &'a mut Conn<'_>,
        status: u16,
        reason: &str,
        content_type: &str,
        extra_headers: &[(&str, String)],
    ) -> std::io::Result<ChunkedWriter<'a>> {
        let fate = if conn.keep_alive {
            "keep-alive"
        } else {
            "close"
        };
        let mut head = format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: {fate}\r\n"
        );
        for (k, v) in extra_headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        conn.stream.write_all(head.as_bytes())?;
        conn.stream.flush()?;
        Ok(ChunkedWriter {
            stream: &mut *conn.stream,
        })
    }

    /// Writes one chunk. Empty data is skipped — a zero-length chunk
    /// would terminate the stream on the wire.
    pub(crate) fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates the chunked stream.
    pub(crate) fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Escapes `s` for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_end_variants() {
        assert_eq!(find_header_end(b"a\r\n\r\nrest"), Some((1, 4)));
        assert_eq!(find_header_end(b"a\n\nrest"), Some((1, 2)));
        assert_eq!(find_header_end(b"a\r\n"), None);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
