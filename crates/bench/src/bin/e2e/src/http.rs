//! A small HTTP/1.1 client for the `serve-ingest` load generator.
//!
//! Responses are framed by `content-length`, never by reading to end of
//! stream, and a connection is reused whenever the server leaves it
//! open. Today `lpvs-serve` answers every request with
//! `connection: close`, so every request pays a connect; a server that
//! learns keep-alive shows up in `serve.connections_per_request` and
//! `serve.connect_us` without this file changing.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One framed response.
#[derive(Debug, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// Whether the server left the connection open for another request.
    pub keep_alive: bool,
}

fn bad(reason: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.to_owned())
}

/// Reads exactly one response off `reader`: status line, headers up to
/// the blank line, then `content-length` body bytes and not one more.
/// `first_byte` is stamped when the status line has arrived.
pub fn read_response(reader: &mut impl BufRead, first_byte: &mut Instant) -> io::Result<Response> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    *first_byte = Instant::now();
    let mut parts = line.split_whitespace();
    let version = parts.next().ok_or_else(|| bad("empty status line"))?;
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("status line without a status"))?;
    // HTTP/1.1 keeps the connection unless told otherwise; 1.0 closes it.
    let mut keep_alive = version.eq_ignore_ascii_case("HTTP/1.1");
    let mut length: Option<usize> = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("headers ended without a blank line"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("header without a colon"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse()
                    .map_err(|_| bad("content-length is not a number"))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    let length = length.ok_or_else(|| bad("response without content-length"))?;
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(Response {
        status,
        body,
        keep_alive,
    })
}

/// Where one request's time went, seen from the client.
#[derive(Debug, Clone, Copy)]
pub struct Split {
    pub start: Instant,
    /// Connection established (equals `start` on a reused connection).
    pub connected: Instant,
    pub written: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

impl Split {
    pub fn total_s(&self) -> f64 {
        (self.done - self.start).as_secs_f64()
    }
}

#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    pub requests: u64,
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: None,
            requests: 0,
            connects: 0,
        }
    }

    fn connect(&mut self) -> io::Result<BufReader<TcpStream>> {
        let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        self.connects += 1;
        Ok(BufReader::new(stream))
    }

    fn exchange(
        &mut self,
        mut conn: BufReader<TcpStream>,
        wire: &[u8],
        start: Instant,
    ) -> io::Result<(Response, Split)> {
        let connected = Instant::now();
        conn.get_mut().write_all(wire)?;
        let written = Instant::now();
        let mut first_byte = written;
        let response = read_response(&mut conn, &mut first_byte)?;
        let done = Instant::now();
        if response.keep_alive {
            self.conn = Some(conn);
        }
        Ok((
            response,
            Split {
                start,
                connected,
                written,
                first_byte,
                done,
            },
        ))
    }

    /// Sends one request and reads its response. A reused connection the
    /// server has meanwhile closed is replaced once, transparently.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<(Response, Split)> {
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nhost: e2e\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.requests += 1;
        let start = Instant::now();
        if let Some(conn) = self.conn.take() {
            if let Ok(done) = self.exchange(conn, wire.as_bytes(), start) {
                return Ok(done);
            }
        }
        let conn = self.connect()?;
        self.exchange(conn, wire.as_bytes(), start)
    }
}

/// The exact bytes of one telemetry request, for the parser probe.
pub fn telemetry_wire(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/telemetry HTTP/1.1\r\nhost: e2e\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Read};

    /// What is left on a reader: shows the framer stopped at the
    /// response boundary.
    fn rest(reader: &mut impl Read) -> Vec<u8> {
        let mut v = Vec::new();
        reader.read_to_end(&mut v).expect("in-memory read");
        v
    }

    #[test]
    fn keep_alive_reply_is_framed_by_content_length() {
        let wire = b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\nContent-Length: 15\r\n\r\n{\"queued\":true}HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";
        let mut reader = Cursor::new(&wire[..]);
        let mut at = Instant::now();
        let first = read_response(&mut reader, &mut at).unwrap();
        assert_eq!(first.status, 202);
        assert_eq!(first.body, b"{\"queued\":true}");
        assert!(
            first.keep_alive,
            "HTTP/1.1 without a connection header stays open"
        );
        // The second response is untouched and frames on its own.
        let second = read_response(&mut reader, &mut at).unwrap();
        assert_eq!((second.status, second.body.as_slice()), (200, &b"ok"[..]));
        assert!(rest(&mut reader).is_empty());
    }

    #[test]
    fn connection_close_reply_is_framed_and_marked_closed() {
        let wire = lpvs_serve::http::render_response(202, "application/json", b"{\"queued\":true}");
        let mut trailing = wire.clone();
        trailing.extend_from_slice(b"garbage after the body");
        let mut reader = Cursor::new(trailing);
        let mut at = Instant::now();
        let reply = read_response(&mut reader, &mut at).unwrap();
        assert_eq!(reply.status, 202);
        assert_eq!(reply.body, b"{\"queued\":true}");
        assert!(!reply.keep_alive, "today's server closes every connection");
        assert_eq!(rest(&mut reader), b"garbage after the body");
    }

    #[test]
    fn a_reply_without_a_length_or_cut_short_is_an_error() {
        let mut at = Instant::now();
        let no_length = b"HTTP/1.1 200 OK\r\n\r\nbody";
        assert!(read_response(&mut Cursor::new(&no_length[..]), &mut at).is_err());
        let short = b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nshort";
        assert!(read_response(&mut Cursor::new(&short[..]), &mut at).is_err());
        assert!(read_response(&mut Cursor::new(&b""[..]), &mut at).is_err());
    }
}
