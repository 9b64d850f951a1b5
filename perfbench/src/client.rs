//! A minimal keep-alive HTTP/1.1 client that measures the server, not
//! the TCP stack.
//!
//! Each request's head and body go out in one `write` on a `TCP_NODELAY`
//! socket. Writing them separately without `TCP_NODELAY` lets Nagle's
//! algorithm hold the body until the server's delayed ACK fires, which
//! adds ~40 ms to every small request. The server closes a keep-alive
//! connection after a fixed number of requests (it answers the last one
//! with `Connection: close`); the client then reopens transparently and
//! counts the reopen, which is neither an op nor a failure.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

/// A keep-alive connection to one server.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Connections opened after the first (server-side keep-alive caps,
    /// or a stale idle connection).
    pub reopens: u64,
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Client {
    /// A client for `addr`; the connection opens on the first request.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None, reopens: 0 }
    }

    fn open(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            stream.set_write_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("stream was just opened"))
    }

    /// Sends one request and reads its response. A connection the server
    /// already closed is reopened once and the request resent.
    ///
    /// # Errors
    ///
    /// Socket errors, or a malformed response.
    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<Reply> {
        let mut wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        let reused = self.stream.is_some();
        match self.exchange(&wire) {
            Err(e) if reused && is_stale(&e) => {
                self.stream = None;
                self.reopens += 1;
                self.exchange(&wire)
            }
            other => other,
        }
    }

    fn exchange(&mut self, wire: &[u8]) -> io::Result<Reply> {
        let result = self.open().and_then(|stream| {
            stream.write_all(wire)?;
            read_response(stream)
        });
        match result {
            Ok((reply, close)) => {
                if close {
                    self.stream = None;
                    self.reopens += 1;
                }
                Ok(reply)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Whether an error means the server had closed a reused connection
/// before this request reached it.
fn is_stale(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionAborted
    )
}

/// Reads one response; returns it and whether the server will close the
/// connection after it.
fn read_response(stream: &mut TcpStream) -> io::Result<(Reply, bool)> {
    let mut raw = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 << 10];
    let header_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        raw.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&raw[..header_end])
        .map_err(|e| invalid(format!("response head is not UTF-8: {e}")))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line in {head:?}")))?;
    let mut length = None;
    let mut close = false;
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse::<usize>().map_err(|e| invalid(format!("length: {e}")))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| invalid("response has no Content-Length".into()))?;
    let mut body = raw.split_off(header_end + 4);
    if body.len() > length {
        return Err(invalid("response longer than its Content-Length".into()));
    }
    let have = body.len();
    body.resize(length, 0);
    stream.read_exact(&mut body[have..])?;
    Ok((Reply { status, body }, close))
}
