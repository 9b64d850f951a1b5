//! A minimal HTTP/1.1 layer on `std::io` — just enough protocol for the
//! estimation service, with hard limits on every dimension of the input.
//!
//! The build environment is offline, so there is no hyper/axum to lean on;
//! this module hand-rolls the subset the service needs: request-line +
//! header parsing, `Content-Length` bodies, keep-alive, and response
//! serialization. It never allocates proportionally to anything the client
//! controls beyond the configured limits:
//!
//! - the request line and each header line are capped ([`HttpLimits`]);
//! - the header count is capped;
//! - the body is only read after `Content-Length` is checked against the
//!   cap, so an oversized upload is rejected ([`HttpError::BodyTooLarge`]
//!   → 413) before a byte of it is buffered;
//! - chunked transfer encoding is refused (the protocol layer has no
//!   streaming consumers), as is any request without a length on methods
//!   that carry bodies.
//!
//! Socket read timeouts surface as [`HttpError::Timeout`] (→ 408), so a
//! stalled or truncated upload cannot pin a worker. On top of the
//! per-operation socket timeout, a connection can carry a **per-request
//! deadline** ([`Conn::begin_request`]): before *every* buffered read the
//! socket timeout is re-armed to the remaining budget, so a slowloris
//! client dripping one byte per second — each drip well inside the
//! per-op timeout — still runs out of budget and gets `408`. Responses
//! are written the same way ([`Response::write_deadline`]): chunked, the
//! write timeout re-armed before each chunk, so a peer that stops
//! reading mid-response cannot pin a worker either.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tlm_faults::Kind;

/// Input caps for one request.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum bytes in the request line or any single header line.
    pub max_line_bytes: usize,
    /// Maximum number of headers.
    pub max_headers: usize,
    /// Maximum request body size in bytes.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> HttpLimits {
        HttpLimits { max_line_bytes: 8 << 10, max_headers: 64, max_body_bytes: 4 << 20 }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, e.g. `GET`.
    pub method: String,
    /// Request target, e.g. `/estimate`.
    pub target: String,
    /// Header name/value pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending a full request.
    /// `clean` is true when not even one byte arrived — the normal end of
    /// a keep-alive connection, not an error worth a response.
    Closed {
        /// No partial request was lost.
        clean: bool,
    },
    /// A socket read timed out mid-request (stalled or truncated upload).
    Timeout,
    /// The request violated the configured size caps before the body.
    HeaderTooLarge,
    /// `Content-Length` exceeds the body cap; nothing was buffered.
    BodyTooLarge {
        /// The declared length.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The bytes were not valid HTTP.
    Malformed(String),
    /// Any other socket error.
    Io(io::Error),
}

impl HttpError {
    fn malformed(msg: impl Into<String>) -> HttpError {
        HttpError::Malformed(msg.into())
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
            io::ErrorKind::UnexpectedEof => HttpError::Closed { clean: false },
            _ => HttpError::Io(e),
        }
    }
}

/// A buffered connection that can read several keep-alive requests.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    /// Per-operation socket timeout, re-applied before every read.
    io_timeout: Option<Duration>,
    /// Absolute end of the current request's total I/O budget.
    deadline: Option<Instant>,
}

impl Conn {
    /// Wraps a stream. The caller is expected to have set socket read and
    /// write timeouts already (the per-request timeout mechanism).
    pub fn new(stream: TcpStream) -> Conn {
        Conn {
            reader: BufReader::with_capacity(16 << 10, stream),
            io_timeout: None,
            deadline: None,
        }
    }

    /// Wraps a stream with a per-operation socket timeout that the
    /// connection re-arms itself before every read (and composes with the
    /// per-request deadline of [`Conn::begin_request`]).
    pub fn with_io_timeout(stream: TcpStream, io_timeout: Duration) -> Conn {
        Conn {
            reader: BufReader::with_capacity(16 << 10, stream),
            io_timeout: Some(io_timeout),
            deadline: None,
        }
    }

    /// Starts a request's total I/O budget: every subsequent read gets a
    /// socket timeout of `min(io_timeout, remaining budget)`, so the sum
    /// of all reads — however the client fragments them — is bounded.
    /// `None` clears the deadline.
    pub fn begin_request(&mut self, budget: Option<Duration>) {
        self.deadline = budget.map(|b| Instant::now() + b);
    }

    /// The current request's deadline, for deadline-aware response writes.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Re-arms the socket read timeout for the next operation. With
    /// neither an `io_timeout` nor a deadline the caller's own socket
    /// configuration is left untouched.
    fn arm(&mut self) -> Result<(), HttpError> {
        let mut timeout = self.io_timeout;
        if let Some(deadline) = self.deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(HttpError::Timeout);
            }
            timeout = Some(timeout.map_or(remaining, |t| t.min(remaining)));
        }
        if let Some(t) = timeout {
            let _ = self.reader.get_ref().set_read_timeout(Some(t));
        }
        Ok(())
    }

    /// The underlying stream, for writing responses.
    ///
    /// # Errors
    ///
    /// Fails if the socket cannot be cloned.
    pub fn writer(&self) -> io::Result<TcpStream> {
        self.reader.get_ref().try_clone()
    }

    /// Reads one CRLF- (or LF-) terminated line, capped at `max` bytes.
    /// The deadline is enforced per buffered read: a client dripping the
    /// line byte-by-byte re-arms a shrinking timeout on every drip.
    fn read_line(&mut self, max: usize) -> Result<Option<String>, HttpError> {
        let mut line: Vec<u8> = Vec::new();
        loop {
            self.arm()?;
            let available = self.reader.fill_buf()?;
            if available.is_empty() {
                if line.is_empty() {
                    return Ok(None); // clean EOF
                }
                return Err(HttpError::Closed { clean: false });
            }
            let (consumed, done) = match available.iter().position(|&b| b == b'\n') {
                Some(pos) => (pos + 1, true),
                None => (available.len(), false),
            };
            if line.len() + consumed > max + 1 {
                return Err(HttpError::HeaderTooLarge);
            }
            line.extend_from_slice(&available[..consumed]);
            self.reader.consume(consumed);
            if done {
                break;
            }
        }
        while matches!(line.last(), Some(b'\n' | b'\r')) {
            line.pop();
        }
        String::from_utf8(line).map(Some).map_err(|_| HttpError::malformed("non-UTF-8 header"))
    }

    /// Reads the next request off the connection.
    ///
    /// # Errors
    ///
    /// See [`HttpError`]; `Closed { clean: true }` is the normal end of a
    /// keep-alive connection.
    pub fn read_request(&mut self, limits: &HttpLimits) -> Result<Request, HttpError> {
        let Some(request_line) = self.read_line(limits.max_line_bytes)? else {
            return Err(HttpError::Closed { clean: true });
        };
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(HttpError::malformed(format!("bad request line `{request_line}`")));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::malformed(format!("unsupported version `{version}`")));
        }
        let http11 = version == "HTTP/1.1";

        let mut headers = Vec::new();
        loop {
            let Some(line) = self.read_line(limits.max_line_bytes)? else {
                return Err(HttpError::Closed { clean: false });
            };
            if line.is_empty() {
                break;
            }
            if headers.len() >= limits.max_headers {
                return Err(HttpError::HeaderTooLarge);
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(HttpError::malformed(format!("bad header `{line}`")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let find = |name: &str| headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str());
        if find("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity")) {
            return Err(HttpError::malformed("chunked transfer encoding not supported"));
        }
        let content_length = match find("content-length") {
            None => 0,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| HttpError::malformed(format!("bad content-length `{v}`")))?,
        };
        if content_length > limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge {
                declared: content_length,
                limit: limits.max_body_bytes,
            });
        }
        // Chaos-build injection point: pretend the peer's bytes ran out
        // before the body arrived (the truncated-upload path).
        if tlm_faults::point("serve.parse", &[Kind::ShortRead]).is_some() {
            return Err(HttpError::Closed { clean: false });
        }
        let mut body = vec![0u8; content_length];
        let mut filled = 0;
        while filled < content_length {
            self.arm()?;
            let n = self.reader.read(&mut body[filled..])?;
            if n == 0 {
                return Err(HttpError::Closed { clean: false });
            }
            filled += n;
        }

        let keep_alive = match find("connection").map(str::to_ascii_lowercase) {
            Some(c) if c.contains("close") => false,
            Some(c) if c.contains("keep-alive") => true,
            _ => http11, // HTTP/1.1 defaults to keep-alive
        };
        Ok(Request {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            body,
            keep_alive,
        })
    }
}

/// A fully parsed head (request line + headers) waiting for its body.
#[derive(Debug)]
struct PendingHead {
    method: String,
    target: String,
    headers: Vec<(String, String)>,
    content_length: usize,
    http11: bool,
}

/// An incremental, non-blocking request parser — the event-loop
/// counterpart of [`Conn::read_request`].
///
/// The event loop pushes whatever bytes the socket had
/// ([`RequestParser::push`]) and asks whether a complete request has
/// accumulated ([`RequestParser::try_parse`]); the parser never blocks
/// and never touches a socket. The same limits apply as on the blocking
/// path, enforced *incrementally*: an unterminated header line or an
/// endless header list is rejected as soon as the buffered prefix
/// exceeds the cap, and an oversized `Content-Length` is rejected from
/// the head alone — before a byte of the body arrives. Pipelined
/// requests are supported: bytes beyond the first request stay buffered
/// for the next `try_parse` call.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    pending: Option<PendingHead>,
    /// Where the head scan resumes, so a head dripped one byte per push
    /// is scanned once in total, not once per push.
    scan: HeadScan,
}

/// Progress of [`RequestParser::find_head_end`] through a head that has
/// not yet ended: offsets into the buffer, which only grows until the
/// head is consumed.
#[derive(Debug, Default)]
struct HeadScan {
    /// Bytes already searched for `\n`.
    scanned: usize,
    /// Start of the line that is still open.
    line_start: usize,
    /// Complete non-blank lines so far (request line included).
    lines: usize,
}

impl RequestParser {
    /// A parser with no buffered bytes.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends bytes read off the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when nothing of a request is buffered — EOF here is the
    /// clean end of a keep-alive connection, not a truncated request.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty() && self.pending.is_none()
    }

    /// Scans for the blank line ending the head, enforcing the line and
    /// header-count caps on the buffered prefix so a client cannot grow
    /// the buffer without ever terminating a line. Resumes where the last
    /// call stopped; an error leaves the cursor where it was, so asking
    /// again gives the same error.
    fn find_head_end(&mut self, limits: &HttpLimits) -> Result<Option<usize>, HttpError> {
        let scan = &mut self.scan;
        loop {
            let Some(pos) = self.buf[scan.scanned..].iter().position(|&b| b == b'\n') else {
                if self.buf.len() - scan.line_start > limits.max_line_bytes + 1 {
                    return Err(HttpError::HeaderTooLarge);
                }
                scan.scanned = self.buf.len();
                return Ok(None);
            };
            let newline = scan.scanned + pos;
            if newline - scan.line_start > limits.max_line_bytes {
                return Err(HttpError::HeaderTooLarge);
            }
            let line = &self.buf[scan.line_start..newline];
            if line.strip_suffix(b"\r").unwrap_or(line).is_empty() {
                return Ok(Some(newline + 1));
            }
            // The request line plus at most `max_headers` headers.
            if scan.lines > limits.max_headers {
                return Err(HttpError::HeaderTooLarge);
            }
            scan.lines += 1;
            scan.line_start = newline + 1;
            scan.scanned = newline + 1;
        }
    }

    /// Parses the head bytes (terminating blank line included) into a
    /// pending request, with the same error strings as the blocking path.
    fn parse_head(head: &[u8], limits: &HttpLimits) -> Result<PendingHead, HttpError> {
        let mut lines = head.split(|&b| b == b'\n').map(|line| {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            std::str::from_utf8(line).map_err(|_| HttpError::malformed("non-UTF-8 header"))
        });

        let request_line = lines.next().transpose()?.unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(HttpError::malformed(format!("bad request line `{request_line}`")));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::malformed(format!("unsupported version `{version}`")));
        }
        let http11 = version == "HTTP/1.1";

        let mut headers = Vec::new();
        for line in lines {
            let line = line?;
            if line.is_empty() {
                break;
            }
            if headers.len() >= limits.max_headers {
                return Err(HttpError::HeaderTooLarge);
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(HttpError::malformed(format!("bad header `{line}`")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let find = |name: &str| headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str());
        if find("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity")) {
            return Err(HttpError::malformed("chunked transfer encoding not supported"));
        }
        let content_length = match find("content-length") {
            None => 0,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| HttpError::malformed(format!("bad content-length `{v}`")))?,
        };

        Ok(PendingHead {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            content_length,
            http11,
        })
    }

    /// Attempts to complete one request from the buffered bytes.
    ///
    /// Returns `Ok(None)` when more bytes are needed, `Ok(Some(_))` when
    /// a request completed (its bytes are consumed; pipelined leftovers
    /// stay buffered).
    ///
    /// # Errors
    ///
    /// The same [`HttpError`] values — and strings — as
    /// [`Conn::read_request`], minus the I/O-driven ones: the parser
    /// never times out or sees EOF on its own.
    pub fn try_parse(&mut self, limits: &HttpLimits) -> Result<Option<Request>, HttpError> {
        if self.pending.is_none() {
            let Some(head_end) = self.find_head_end(limits)? else {
                return Ok(None);
            };
            let head: Vec<u8> = self.buf.drain(..head_end).collect();
            self.scan = HeadScan::default();
            let pending = RequestParser::parse_head(&head, limits)?;
            if pending.content_length > limits.max_body_bytes {
                return Err(HttpError::BodyTooLarge {
                    declared: pending.content_length,
                    limit: limits.max_body_bytes,
                });
            }
            // Chaos-build injection point: pretend the peer's bytes ran
            // out before the body arrived (the truncated-upload path).
            if tlm_faults::point("serve.parse", &[Kind::ShortRead]).is_some() {
                return Err(HttpError::Closed { clean: false });
            }
            self.pending = Some(pending);
        }

        let need = self.pending.as_ref().map_or(0, |p| p.content_length);
        if self.buf.len() < need {
            return Ok(None);
        }
        let head = self.pending.take().expect("pending head present");
        let body: Vec<u8> = self.buf.drain(..need).collect();

        let connection = head
            .headers
            .iter()
            .find(|(n, _)| n == "connection")
            .map(|(_, v)| v.to_ascii_lowercase());
        let keep_alive = match connection {
            Some(c) if c.contains("close") => false,
            Some(c) if c.contains("keep-alive") => true,
            _ => head.http11, // HTTP/1.1 defaults to keep-alive
        };
        Ok(Some(Request {
            method: head.method,
            target: head.target,
            headers: head.headers,
            body,
            keep_alive,
        }))
    }
}

/// One response to serialize.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub extra_headers: Vec<(&'static str, String)>,
    /// Content type of the body.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            extra_headers: Vec::new(),
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            extra_headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        let body = tlm_json::ObjectBuilder::new().field("error", message).build().to_compact();
        Response::json(status, body)
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// The standard reason phrase for the status codes the service uses.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// The serialized status line and headers, terminator included.
    fn head(&self, keep_alive: bool) -> String {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            Response::reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        head
    }

    /// Serializes the response onto a stream.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn write_to(&self, stream: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        stream.write_all(self.head(keep_alive).as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }

    /// Serializes the response in 16 KiB chunks,
    /// re-arming the socket write timeout to `min(io_timeout, remaining
    /// deadline)` before each — a peer that stops reading mid-response
    /// fails the write instead of pinning the worker past the request's
    /// budget.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors; an exhausted deadline surfaces as
    /// [`io::ErrorKind::TimedOut`].
    pub fn write_deadline(
        &self,
        stream: &mut TcpStream,
        keep_alive: bool,
        deadline: Option<Instant>,
        io_timeout: Option<Duration>,
    ) -> io::Result<()> {
        let arm = |stream: &TcpStream| -> io::Result<()> {
            let mut timeout = io_timeout;
            if let Some(deadline) = deadline {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "response write deadline exceeded",
                    ));
                }
                timeout = Some(timeout.map_or(remaining, |t| t.min(remaining)));
            }
            if let Some(t) = timeout {
                stream.set_write_timeout(Some(t))?;
            }
            Ok(())
        };

        arm(stream)?;
        stream.write_all(self.head(keep_alive).as_bytes())?;
        for chunk in self.body.chunks(RESPONSE_CHUNK) {
            // Chaos-build injection point: a latency spike mid-response.
            if let Some(fault) = tlm_faults::point("serve.response.write", &[Kind::Delay]) {
                fault.fire();
            }
            arm(stream)?;
            stream.write_all(chunk)?;
        }
        stream.flush()
    }
}

/// Chunk size of [`Response::write_deadline`]: large enough that small
/// responses go out in one write, small enough that the deadline is
/// checked many times across a multi-megabyte report.
const RESPONSE_CHUNK: usize = 16 << 10;

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Parses `text` as one request by pushing it through a real socket
    /// pair (Conn reads from TcpStream only).
    fn parse(text: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connects");
        let (server, _) = listener.accept().expect("accepts");
        client.write_all(text).expect("writes");
        drop(client); // EOF after the payload
        Conn::new(server).read_request(&HttpLimits::default())
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(b"POST /estimate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/estimate");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn connection_close_is_honored() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").expect("parses");
        assert!(!req.keep_alive);
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").expect("parses");
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn oversized_declared_body_is_rejected_without_buffering() {
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX / 2);
        match parse(huge.as_bytes()) {
            Err(HttpError::BodyTooLarge { declared, limit }) => {
                assert!(declared > limit);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_reports_closed() {
        match parse(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-a-bit") {
            Err(HttpError::Closed { clean: false }) => {}
            other => panic!("expected unclean close, got {other:?}"),
        }
    }

    #[test]
    fn clean_eof_before_any_byte() {
        match parse(b"") {
            Err(HttpError::Closed { clean: true }) => {}
            other => panic!("expected clean close, got {other:?}"),
        }
    }

    #[test]
    fn garbage_is_malformed() {
        assert!(matches!(parse(b"NOT HTTP\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse(b"GET / HTTP/2\r\n\r\n"), Err(HttpError::Malformed(_)),));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::Malformed(_)),
        ));
    }

    #[test]
    fn giant_header_line_is_capped() {
        let mut text = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        text.extend(std::iter::repeat_n(b'a', 1 << 20));
        text.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(parse(&text), Err(HttpError::HeaderTooLarge)));
    }

    #[test]
    fn incremental_parser_assembles_a_dripped_request() {
        let limits = HttpLimits::default();
        let mut parser = RequestParser::new();
        let text: &[u8] = b"POST /estimate HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        for chunk in text.chunks(3) {
            assert!(
                parser.try_parse(&limits).expect("no error mid-drip").is_none(),
                "request must not complete before all bytes arrive"
            );
            parser.push(chunk);
        }
        let req = parser.try_parse(&limits).expect("parses").expect("complete");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/estimate");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
        assert!(parser.is_empty(), "all bytes consumed");
    }

    #[test]
    fn incremental_parser_handles_pipelined_requests() {
        let limits = HttpLimits::default();
        let mut parser = RequestParser::new();
        parser.push(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /readyz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        let first = parser.try_parse(&limits).expect("parses").expect("first");
        assert_eq!(first.target, "/healthz");
        assert!(!parser.is_empty(), "second request still buffered");
        let second = parser.try_parse(&limits).expect("parses").expect("second");
        assert_eq!(second.target, "/readyz");
        assert!(!second.keep_alive);
        assert!(parser.is_empty());
        assert!(parser.try_parse(&limits).expect("no error").is_none());
    }

    #[test]
    fn incremental_parser_rejects_oversized_body_from_the_head_alone() {
        let limits = HttpLimits { max_body_bytes: 1024, ..HttpLimits::default() };
        let mut parser = RequestParser::new();
        parser.push(b"POST /estimate HTTP/1.1\r\nContent-Length: 4096\r\n\r\n");
        match parser.try_parse(&limits) {
            Err(HttpError::BodyTooLarge { declared: 4096, limit: 1024 }) => {}
            other => panic!("expected BodyTooLarge before any body byte, got {other:?}"),
        }
    }

    #[test]
    fn incremental_parser_caps_an_unterminated_header_line() {
        let limits = HttpLimits::default();
        let mut parser = RequestParser::new();
        parser.push(b"GET / HTTP/1.1\r\nX-Big: ");
        parser.push(&vec![b'a'; limits.max_line_bytes + 8]);
        assert!(matches!(parser.try_parse(&limits), Err(HttpError::HeaderTooLarge)));
    }

    #[test]
    fn incremental_parser_caps_header_count() {
        let limits = HttpLimits { max_headers: 4, ..HttpLimits::default() };
        let mut parser = RequestParser::new();
        parser.push(b"GET / HTTP/1.1\r\n");
        for i in 0..6 {
            parser.push(format!("X-H{i}: v\r\n").as_bytes());
        }
        parser.push(b"\r\n");
        assert!(matches!(parser.try_parse(&limits), Err(HttpError::HeaderTooLarge)));
    }

    #[test]
    fn incremental_parser_matches_blocking_parser_errors() {
        let limits = HttpLimits::default();
        let mut parser = RequestParser::new();
        parser.push(b"NOT HTTP\r\n\r\n");
        assert!(matches!(parser.try_parse(&limits), Err(HttpError::Malformed(_))));

        let mut parser = RequestParser::new();
        parser.push(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n");
        assert!(matches!(parser.try_parse(&limits), Err(HttpError::Malformed(_))));

        let mut parser = RequestParser::new();
        parser.push(b"GET / HTTP/2\r\n\r\n");
        assert!(matches!(parser.try_parse(&limits), Err(HttpError::Malformed(_))));
    }

    /// The outcome of parsing `text` with `limits`, pushed in chunks of
    /// `chunk` bytes with a `try_parse` after every push, rendered for
    /// comparison (neither `Request` nor `HttpError` is `PartialEq`).
    fn parse_in_chunks(text: &[u8], chunk: usize, limits: &HttpLimits) -> String {
        let mut parser = RequestParser::new();
        for piece in text.chunks(chunk) {
            parser.push(piece);
            match parser.try_parse(limits) {
                Ok(None) => {}
                done => return format!("{done:?}"),
            }
        }
        "incomplete".to_string()
    }

    #[test]
    fn dripped_requests_parse_like_whole_ones() {
        let limits = HttpLimits { max_line_bytes: 64, max_headers: 4, max_body_bytes: 1024 };
        let long_line = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "a".repeat(100));
        let headers: String = (0..5).map(|i| format!("X-H{i}: v\r\n")).collect();
        let too_many = format!("GET / HTTP/1.1\r\n{headers}\r\n");
        let cases: [&[u8]; 6] = [
            b"POST /estimate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
            b"GET /healthz HTTP/1.0\nConnection: keep-alive\n\n",
            long_line.as_bytes(),
            too_many.as_bytes(),
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 4096\r\n\r\n",
        ];
        for text in cases {
            let whole = parse_in_chunks(text, text.len(), &limits);
            assert_ne!(whole, "incomplete");
            assert_eq!(
                parse_in_chunks(text, 1, &limits),
                whole,
                "{}",
                String::from_utf8_lossy(text)
            );
        }
    }

    #[test]
    fn a_half_megabyte_head_dripped_byte_by_byte_parses_in_linear_time() {
        // 62 headers just under the 8 KiB line cap: a legal head that a
        // scanner restarting from byte 0 on every push takes minutes on.
        let limits = HttpLimits::default();
        let mut text = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..62 {
            let value = "v".repeat(limits.max_line_bytes - 16);
            text.extend_from_slice(format!("X-H{i:02}: {value}\r\n").as_bytes());
        }
        text.extend_from_slice(b"\r\n");
        assert!(text.len() > 490 << 10);
        let started = Instant::now();
        let mut parser = RequestParser::new();
        let mut parsed = None;
        for byte in &text {
            parser.push(std::slice::from_ref(byte));
            parsed = parser.try_parse(&limits).expect("legal head");
        }
        let elapsed = started.elapsed();
        let req = parsed.expect("complete after the last byte");
        assert_eq!(req.headers.len(), 62);
        assert!(parser.is_empty());
        assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
    }

    #[test]
    fn response_serializes_with_framing() {
        let mut out = Vec::new();
        Response::json(200, "{}")
            .with_header("Retry-After", "1")
            .write_to(&mut out, false)
            .expect("writes");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
