//! Hand-rolled, fail-closed HTTP/1.1 request parsing and response
//! writing.
//!
//! The workspace vendors no async runtime and no HTTP stack, so the
//! server speaks a deliberately small dialect over blocking
//! [`std::io`]: persistent connections carrying one request at a time,
//! `Content-Length` bodies only (chunked transfer is rejected), and
//! hard byte limits on every stage of the parse. The parser is generic
//! over [`Read`] so property tests can feed it truncated, oversized,
//! junk, and slow-trickle inputs without a socket.
//!
//! * **Reuse.** An HTTP/1.1 request leaves its connection open unless
//!   it carries `connection: close`; an HTTP/1.0 request always closes
//!   it ([`Request::keep_alive`]). Every response says which it is
//!   (`connection: keep-alive` or `connection: close`), and the server
//!   may answer `close` to a request that allowed reuse — see
//!   [`crate::server`] for when.
//! * **No pipelining.** A client sends its next request after it has
//!   read the previous response. Bytes that follow a complete body in
//!   the same read are not buffered for later: they fail the request
//!   with a 4xx, like any other framing error.
//! * **A 4xx always closes.** After a parse error the byte stream has
//!   no trustworthy request boundary, so the error response carries
//!   `connection: close` and the connection ends there.
//! * **Responses** are framed by `content-length`; [`read_response`] is
//!   the client-side framer the tests and the stress harness share.
//!
//! Fail-closed means two things here:
//!
//! * every malformed input maps to a 4xx [`HttpError`] — the parser
//!   never panics, whatever the bytes;
//! * no input can make it allocate beyond its configured limits — the
//!   header buffer is capped *before* it grows, and the body buffer is
//!   reserved with `try_reserve_exact` so an allocator refusal is a
//!   413, not an abort.

use std::io::{self, BufRead, Read};
use std::time::Instant;

/// Byte limits on one request — the parser's allocation contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Cap on the request line (method + target + version).
    pub max_request_line: usize,
    /// Cap on the whole header block, request line included.
    pub max_header_bytes: usize,
    /// Cap on the declared (and read) body length.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self { max_request_line: 2048, max_header_bytes: 8192, max_body_bytes: 1 << 20 }
    }
}

/// How a request failed to parse, mapped onto the 4xx it earns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header, or framing → 400.
    BadRequest(&'static str),
    /// Request line exceeded its cap → 414.
    UriTooLong,
    /// Header block exceeded its cap → 431.
    HeadersTooLarge,
    /// Declared or delivered body exceeded its cap, or the allocator
    /// refused the reservation → 413.
    PayloadTooLarge,
    /// A POST without a `Content-Length` (chunked included) → 411.
    LengthRequired,
    /// The peer went quiet (or trickled) past the deadline → 408.
    Timeout,
    /// The connection closed mid-request → no response possible.
    ConnectionClosed,
}

impl HttpError {
    /// HTTP status code for this error (408 for both timeout flavors).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::UriTooLong => 414,
            HttpError::HeadersTooLarge => 431,
            HttpError::PayloadTooLarge => 413,
            HttpError::LengthRequired => 411,
            HttpError::Timeout => 408,
            HttpError::ConnectionClosed => 400,
        }
    }
}

/// One parsed request: method, target path, raw body bytes, and
/// whether the client allows the connection to carry another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercase as received.
    pub method: String,
    /// Request target as received (path + optional query).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// `true` for HTTP/1.1 without a `connection: close` token; always
    /// `false` for HTTP/1.0.
    pub keep_alive: bool,
}

/// Reads and parses one HTTP/1.1 request from `reader`.
///
/// `deadline` bounds the whole parse: a peer that trickles bytes slower
/// than the socket timeout refreshes the read but still runs into the
/// deadline check between reads. The caller is expected to have set a
/// read timeout on the underlying socket so no single `read` blocks
/// past it.
///
/// # Errors
///
/// An [`HttpError`] naming the 4xx the connection should be answered
/// with ([`HttpError::ConnectionClosed`] when no answer is possible).
pub fn parse_request<R: Read>(
    reader: &mut R,
    limits: &HttpLimits,
    deadline: Instant,
) -> Result<Request, HttpError> {
    let mut head: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    // --- header block ---------------------------------------------
    let header_end = loop {
        if let Some(pos) = find_header_end(&head) {
            break pos;
        }
        // Limits are enforced on what we already hold, before reading
        // more: an attacker streaming an endless header block is cut
        // off at the cap, not buffered.
        if head.len() > limits.max_header_bytes {
            return Err(overlong_head(&head, limits));
        }
        if Instant::now() >= deadline {
            return Err(HttpError::Timeout);
        }
        let want = chunk.len().min(limits.max_header_bytes + 4 - head.len() + 1);
        match reader.read(&mut chunk[..want.max(1)]) {
            Ok(0) => {
                return Err(if head.is_empty() {
                    HttpError::ConnectionClosed
                } else {
                    HttpError::BadRequest("truncated header block")
                });
            }
            Ok(n) => {
                if head.try_reserve_exact(n).is_err() {
                    return Err(HttpError::HeadersTooLarge);
                }
                head.extend_from_slice(&chunk[..n]);
            }
            Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(HttpError::ConnectionClosed),
        }
    };
    if header_end > limits.max_header_bytes {
        return Err(overlong_head(&head[..header_end], limits));
    }
    let header_text =
        std::str::from_utf8(&head[..header_end]).map_err(|_| HttpError::BadRequest("non-UTF-8 header block"))?;
    let mut lines = header_text.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::BadRequest("empty request"))?;
    if request_line.len() > limits.max_request_line {
        return Err(HttpError::UriTooLong);
    }
    let mut parts = request_line.split(' ');
    let method = parts.next().filter(|m| !m.is_empty()).ok_or(HttpError::BadRequest("no method"))?;
    let path = parts.next().filter(|p| p.starts_with('/')).ok_or(HttpError::BadRequest("bad target"))?;
    let version = parts.next().ok_or(HttpError::BadRequest("no version"))?;
    if parts.next().is_some() || !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(HttpError::BadRequest("bad version"));
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest("bad method"));
    }

    // --- headers we care about ------------------------------------
    let mut content_length: Option<usize> = None;
    let mut keep_alive = version == "HTTP/1.1";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest("junk header line"));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadRequest("bad header name"));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let len: usize =
                value.parse().map_err(|_| HttpError::BadRequest("bad content-length"))?;
            if content_length.replace(len).is_some() {
                return Err(HttpError::BadRequest("duplicate content-length"));
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Chunked framing is out of dialect; demand a plain length.
            return Err(HttpError::LengthRequired);
        } else if name.eq_ignore_ascii_case("connection")
            && value.split(',').any(|token| token.trim().eq_ignore_ascii_case("close"))
        {
            keep_alive = false;
        }
    }

    // --- body ------------------------------------------------------
    let already = head.len() - header_end - 4;
    let declared = match content_length {
        Some(len) => len,
        None if method == "POST" || method == "PUT" => return Err(HttpError::LengthRequired),
        None if already > 0 => return Err(HttpError::BadRequest("body without content-length")),
        None => 0,
    };
    if declared > limits.max_body_bytes || already > declared {
        return Err(HttpError::PayloadTooLarge);
    }
    // Fail-closed allocation: the reservation is bounded by the limit
    // check above, and an allocator refusal degrades to a 413 instead
    // of aborting the worker.
    let mut body: Vec<u8> = Vec::new();
    if body.try_reserve_exact(declared).is_err() {
        return Err(HttpError::PayloadTooLarge);
    }
    body.extend_from_slice(&head[header_end + 4..]);
    while body.len() < declared {
        if Instant::now() >= deadline {
            return Err(HttpError::Timeout);
        }
        let want = chunk.len().min(declared - body.len());
        match reader.read(&mut chunk[..want]) {
            Ok(0) => return Err(HttpError::BadRequest("truncated body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(HttpError::ConnectionClosed),
        }
    }
    Ok(Request { method: method.to_owned(), path: path.to_owned(), body, keep_alive })
}

/// Distinguishes an overlong request line (414) from an overlong
/// header block (431) when the cap is blown before the terminator.
fn overlong_head(head: &[u8], limits: &HttpLimits) -> HttpError {
    let first_line_done = head.iter().position(|&b| b == b'\n');
    match first_line_done {
        Some(_) => HttpError::HeadersTooLarge,
        None if head.len() > limits.max_request_line => HttpError::UriTooLong,
        None => HttpError::HeadersTooLarge,
    }
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes one response that ends its connection
/// (`connection: close`).
pub fn render_response(status: u16, content_type: &str, body: &[u8]) -> Vec<u8> {
    render_reply(status, content_type, body, false)
}

/// Serializes one response, telling the client whether the connection
/// stays open for another request (`connection: keep-alive`) or ends
/// with this one (`connection: close`).
pub fn render_reply(status: u16, content_type: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    use std::io::Write;
    // One allocation for head and body; the head is ≈ 100 bytes.
    let mut out = Vec::with_capacity(160 + body.len());
    write!(
        out,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )
    .expect("writing to a Vec cannot fail");
    out.extend_from_slice(body);
    out
}

/// One response as a client reads it off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code of the status line.
    pub status: u16,
    /// Exactly `content-length` body bytes.
    pub body: Vec<u8>,
    /// Whether the server left the connection open for another request.
    pub keep_alive: bool,
}

/// Cap on the status line plus headers [`read_response`] will buffer.
const MAX_RESPONSE_HEAD: u64 = 8192;

/// Serializes one request in the server's dialect; `close` adds
/// `connection: close`, asking for a one-request connection.
pub fn render_request(method: &str, path: &str, body: &str, close: bool) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: lpvs\r\ncontent-length: {}\r\n{}\r\n{body}",
        body.len(),
        if close { "connection: close\r\n" } else { "" }
    )
    .into_bytes()
}

/// Reads exactly one response off `reader`: the status line, headers up
/// to the blank line, then `content-length` body bytes and not one
/// more — never to end of stream, which a persistent connection only
/// reaches when the server's idle limit fires.
///
/// # Errors
///
/// `UnexpectedEof` when the stream ends before a complete response (a
/// closed or evicted connection reads as that before the status line),
/// `InvalidData` on malformed framing, and whatever the reader returns.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let bad = |what: &'static str| io::Error::new(io::ErrorKind::InvalidData, what);
    let mut head = reader.by_ref().take(MAX_RESPONSE_HEAD);
    let mut line = String::new();
    if head.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed before a response"));
    }
    let mut parts = line.split_whitespace();
    let version = parts.next().ok_or_else(|| bad("empty status line"))?;
    let status: u16 =
        parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("status line without a status"))?;
    let mut keep_alive = version.eq_ignore_ascii_case("HTTP/1.1");
    let mut length: Option<usize> = None;
    loop {
        line.clear();
        if head.read_line(&mut line)? == 0 {
            return Err(bad("headers ended without a blank line"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header.split_once(':').ok_or_else(|| bad("header without a colon"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse().map_err(|_| bad("content-length is not a number"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| bad("response without content-length"))?;
    // Grows with the bytes that actually arrive, so a lying length
    // cannot make the client reserve memory up front.
    let mut body = Vec::new();
    reader.take(length as u64).read_to_end(&mut body)?;
    if body.len() < length {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "body cut short"));
    }
    Ok(Response { status, body, keep_alive })
}

/// Renders a JSON error body for `status` with a short detail string.
pub fn error_body(status: u16, detail: &str) -> Vec<u8> {
    use lpvs_obs::json::Json;
    Json::obj([
        ("error", Json::Str(reason(status).to_owned())),
        ("status", Json::Num(f64::from(status))),
        ("detail", Json::Str(detail.to_owned())),
    ])
    .to_string()
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::time::Duration;

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        parse_request(&mut Cursor::new(bytes), &HttpLimits::default(), far())
    }

    #[test]
    fn parses_a_get_and_a_post() {
        let r = parse(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        assert_eq!((r.method.as_str(), r.path.as_str()), ("GET", "/healthz"));
        assert!(r.body.is_empty());
        let r = parse(b"POST /v1/tick HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}").unwrap();
        assert_eq!(r.body, b"{}");
    }

    #[test]
    fn truncation_and_junk_fail_closed() {
        assert_eq!(parse(b""), Err(HttpError::ConnectionClosed));
        assert_eq!(parse(b"GET /x HTTP/1.1\r\n"), Err(HttpError::BadRequest("truncated header block")));
        assert!(matches!(parse(b"\x00\xffgarbage\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert_eq!(
            parse(b"POST /x HTTP/1.1\r\n\r\n"),
            Err(HttpError::LengthRequired)
        );
        assert_eq!(
            parse(b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\ncontent-length: 2\r\n\r\nhi"),
            Err(HttpError::LengthRequired)
        );
    }

    #[test]
    fn oversized_inputs_hit_their_caps() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(4096));
        assert_eq!(parse(long_line.as_bytes()), Err(HttpError::UriTooLong));
        let many_headers =
            format!("GET / HTTP/1.1\r\n{}\r\n", "x-pad: yyyyyyyyyyyyyyyy\r\n".repeat(512));
        assert_eq!(parse(many_headers.as_bytes()), Err(HttpError::HeadersTooLarge));
        let big_body = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 64 << 20);
        assert_eq!(parse(big_body.as_bytes()), Err(HttpError::PayloadTooLarge));
    }

    #[test]
    fn reuse_is_the_http11_default_and_close_or_http10_opt_out() {
        let keep = |bytes: &[u8]| parse(bytes).unwrap().keep_alive;
        assert!(keep(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n"));
        assert!(keep(b"GET /healthz HTTP/1.1\r\nconnection: keep-alive\r\n\r\n"));
        assert!(!keep(b"GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n"));
        assert!(!keep(b"GET /healthz HTTP/1.1\r\nconnection: keep-alive, close\r\n\r\n"));
        assert!(!keep(b"GET /healthz HTTP/1.0\r\n\r\n"));
        assert!(!keep(b"GET /healthz HTTP/1.0\r\nconnection: keep-alive\r\n\r\n"));
    }

    #[test]
    fn bytes_after_a_complete_request_fail_closed() {
        // Pipelining is out of dialect: the second request is not
        // buffered, the first one fails.
        let two = b"POST /v1/tick HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}GET /healthz HTTP/1.1\r\n\r\n";
        assert_eq!(parse(two), Err(HttpError::PayloadTooLarge));
        let two = b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n";
        assert_eq!(parse(two), Err(HttpError::BadRequest("body without content-length")));
    }

    #[test]
    fn response_rendering_frames_the_body() {
        let bytes = render_response(429, "application/json", b"{}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn responses_frame_by_length_and_carry_the_connection_verdict() {
        let mut wire = render_reply(202, "application/json", b"{\"queued\":true}", true);
        wire.extend_from_slice(&render_response(200, "text/plain", b"ok"));
        let mut reader = Cursor::new(wire);
        let first = read_response(&mut reader).unwrap();
        assert_eq!((first.status, first.body.as_slice(), first.keep_alive), (202, &b"{\"queued\":true}"[..], true));
        // The second response is untouched by the first read.
        let second = read_response(&mut reader).unwrap();
        assert_eq!((second.status, second.body.as_slice(), second.keep_alive), (200, &b"ok"[..], false));
        let end = read_response(&mut reader).unwrap_err();
        assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_response_without_a_length_or_cut_short_is_an_error() {
        let no_length = b"HTTP/1.1 200 OK\r\n\r\nbody";
        assert!(read_response(&mut Cursor::new(&no_length[..])).is_err());
        let short = b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nshort";
        assert!(read_response(&mut Cursor::new(&short[..])).is_err());
        let endless = format!("HTTP/1.1 200 OK\r\n{}", "x-pad: y\r\n".repeat(2048));
        assert!(read_response(&mut Cursor::new(endless.as_bytes())).is_err());
    }

    #[test]
    fn rendered_requests_parse_back() {
        let r = parse(&render_request("POST", "/v1/tick", "{}", false)).unwrap();
        assert_eq!((r.method.as_str(), r.path.as_str(), r.body.as_slice(), r.keep_alive), ("POST", "/v1/tick", &b"{}"[..], true));
        assert!(!parse(&render_request("GET", "/healthz", "", true)).unwrap().keep_alive);
    }
}
