//! A minimal blocking HTTP/1.1 client for the loopback load generator:
//! one keep-alive connection per [`Client`], `Content-Length` and chunked
//! response bodies, and a transparent reconnect when the server spends
//! its per-connection request budget (`keep_alive_max`, 32 by default)
//! and answers `Connection: close`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One decoded response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body with chunk framing removed.
    pub body: Vec<u8>,
    /// The server announced `Connection: close`.
    pub close: bool,
    /// When the first body byte (or, for an empty chunked body, the
    /// terminating chunk) was in hand.
    pub first_body_byte: Instant,
    /// Bytes read off the wire for this response: head, framing and body.
    pub wire_bytes: usize,
}

impl Response {
    /// `true` for 2xx.
    #[must_use]
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// Buffered reader over any byte source, so the decoder can be driven by
/// a socket or, in tests, by a source that fragments arbitrarily.
struct Wire<'a, R: Read> {
    src: &'a mut R,
    buf: &'a mut Vec<u8>,
    pos: usize,
    read: usize,
}

impl<R: Read> Wire<'_, R> {
    /// Pulls more bytes; `Ok(false)` on end of stream.
    fn fill(&mut self) -> io::Result<bool> {
        // small enough that zeroing it is noise beside a 200 µs request
        let mut chunk = [0u8; 16 * 1024];
        let n = self.src.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        self.read += n;
        Ok(n > 0)
    }

    /// Returns the next line without its terminator.
    fn line(&mut self) -> io::Result<String> {
        loop {
            if let Some(i) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let raw = &self.buf[self.pos..self.pos + i];
                let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
                let line = std::str::from_utf8(raw)
                    .map_err(|_| bad("response head is not UTF-8"))?
                    .to_owned();
                self.pos += i + 1;
                return Ok(line);
            }
            if !self.fill()? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
        }
    }

    /// Makes at least one unread byte available.
    fn need_byte(&mut self) -> io::Result<()> {
        while self.pos >= self.buf.len() {
            if !self.fill()? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
        }
        Ok(())
    }

    /// Moves exactly `n` bytes into `out`.
    fn take(&mut self, n: usize, out: &mut Vec<u8>) -> io::Result<()> {
        let mut left = n;
        while left > 0 {
            self.need_byte()?;
            let have = (self.buf.len() - self.pos).min(left);
            out.extend_from_slice(&self.buf[self.pos..self.pos + have]);
            self.pos += have;
            left -= have;
        }
        Ok(())
    }
}

/// Reads one response from `src`. `carry` holds bytes already read past
/// the previous response and receives the bytes read past this one.
///
/// # Errors
/// Transport errors, a connection closed before the response is
/// complete (`UnexpectedEof`), or malformed framing (`InvalidData`).
pub fn read_response<R: Read>(src: &mut R, carry: &mut Vec<u8>) -> io::Result<Response> {
    let mut w = Wire {
        src,
        buf: carry,
        pos: 0,
        read: 0,
    };
    let carried = w.buf.len();
    let status_line = w.line()?;
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    let mut close = false;
    loop {
        let line = w.line()?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
            }
            "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let mut body = Vec::new();
    let first_body_byte;
    if chunked {
        let mut first = None;
        loop {
            let size_line = w.line()?;
            let size = usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
                .map_err(|_| bad("bad chunk size"))?;
            if size == 0 {
                first.get_or_insert_with(Instant::now);
                // no trailers are sent: the terminator is one empty line
                if !w.line()?.is_empty() {
                    return Err(bad("trailers unsupported"));
                }
                break;
            }
            if first.is_none() {
                w.need_byte()?;
                first = Some(Instant::now());
            }
            body.reserve(size);
            w.take(size, &mut body)?;
            if !w.line()?.is_empty() {
                return Err(bad("chunk data not followed by CRLF"));
            }
        }
        first_body_byte = first.expect("set before the loop ends");
    } else {
        let n = content_length.ok_or_else(|| bad("response without a length"))?;
        if n > 0 {
            w.need_byte()?;
        }
        first_body_byte = Instant::now();
        body.reserve(n);
        w.take(n, &mut body)?;
    }
    let (pos, read) = (w.pos, w.read);
    carry.drain(..pos);
    Ok(Response {
        status,
        body,
        close,
        first_body_byte,
        wire_bytes: carried + read - carry.len(),
    })
}

/// One logical client: a keep-alive connection that is re-opened on
/// demand.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    carry: Vec<u8>,
    /// Connections opened so far.
    opened: u64,
}

impl Client {
    /// A client for `addr`; connects on first use.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            carry: Vec::new(),
            opened: 0,
        }
    }

    /// Connections opened after the first one.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.opened.saturating_sub(1)
    }

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        self.opened += 1;
        self.carry.clear();
        self.stream = Some(stream);
        Ok(())
    }

    fn send(stream: &mut TcpStream, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
        let mut req = Vec::with_capacity(96 + body.len());
        write!(
            req,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        req.extend_from_slice(body);
        stream.write_all(&req)
    }

    /// Sends one request and reads its response. A kept-alive connection
    /// the server closed while it was idle is re-opened once.
    ///
    /// # Errors
    /// Transport or framing errors; the connection is dropped and the
    /// next request reconnects.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let mut reused = self.stream.is_some();
        loop {
            if self.stream.is_none() {
                self.connect()?;
            }
            let stream = self.stream.as_mut().expect("connected above");
            let result = Self::send(stream, method, path, body)
                .and_then(|()| read_response(stream, &mut self.carry));
            match result {
                Ok(resp) => {
                    if resp.close {
                        self.stream = None;
                    }
                    return Ok(resp);
                }
                Err(e) => {
                    self.stream = None;
                    let stale = reused
                        && matches!(
                            e.kind(),
                            io::ErrorKind::UnexpectedEof
                                | io::ErrorKind::BrokenPipe
                                | io::ErrorKind::ConnectionReset
                                | io::ErrorKind::ConnectionAborted
                        );
                    if !stale {
                        return Err(e);
                    }
                    reused = false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out its bytes a few at a time.
    struct Dribble<'a>(&'a [u8], usize);

    impl Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.1.min(self.0.len()).min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    const CHUNKED: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nTransfer-Encoding: chunked\r\nConnection: keep-alive\r\nX-Streaming: incremental\r\n\r\n4\r\n1,2\n\r\nA\r\n3,4\n55,66\n\r\n0\r\n\r\n";
    const FIXED: &[u8] =
        b"HTTP/1.1 202 Accepted\r\nContent-Length: 9\r\nConnection: close\r\n\r\n{\"id\":7}\n";

    #[test]
    fn decodes_chunked_and_fixed_bodies_under_any_fragmentation() {
        let mut both = CHUNKED.to_vec();
        both.extend_from_slice(FIXED);
        for step in [1, 2, 3, 7, 64, 4096] {
            let mut src = Dribble(&both, step);
            let mut carry = Vec::new();
            let a = read_response(&mut src, &mut carry).unwrap();
            assert_eq!(a.status, 200);
            assert_eq!(a.body, b"1,2\n3,4\n55,66\n");
            assert!(!a.close);
            assert_eq!(a.wire_bytes, CHUNKED.len(), "step {step}");
            // the second response starts in the carried bytes
            let b = read_response(&mut src, &mut carry).unwrap();
            assert_eq!(b.status, 202);
            assert_eq!(b.body, b"{\"id\":7}\n");
            assert!(b.close);
            assert_eq!(b.wire_bytes, FIXED.len(), "step {step}");
            assert!(carry.is_empty());
        }
    }

    #[test]
    fn empty_chunked_body_and_truncation() {
        let empty = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
        let r = read_response(&mut Dribble(empty, 5), &mut Vec::new()).unwrap();
        assert!(r.body.is_empty());
        let cut = &CHUNKED[..CHUNKED.len() - 9];
        let e = read_response(&mut Dribble(cut, 5), &mut Vec::new()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        let e = read_response(&mut Dribble(b"HTTP/1.1 200 OK\r\n\r\n", 5), &mut Vec::new())
            .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn reconnects_after_the_keep_alive_budget() {
        use wcoj_server::{Server, ServerConfig};
        let server = Server::start(ServerConfig {
            bind: "127.0.0.1:0".parse().unwrap(),
            ..ServerConfig::default()
        })
        .unwrap();
        let budget = ServerConfig::default().keep_alive_max as u64;
        let mut c = Client::new(server.addr());
        for i in 0..(2 * budget + 1) {
            let r = c.request("GET", "/healthz", b"").unwrap();
            assert_eq!((r.status, r.body.as_slice()), (200, &b"ok\n"[..]));
            assert_eq!(r.close, (i + 1) % budget == 0, "request {i}");
        }
        assert_eq!(c.reconnects(), 2);
    }
}
