//! Fail-closed property tests for the hand-rolled HTTP parser.
//!
//! The parser fronts an open TCP port, so its contract is adversarial:
//! whatever bytes arrive — random junk, truncated requests, oversized
//! declarations, one-byte trickles, stalled peers — it must answer with
//! a bounded-allocation 4xx and never panic, hang, or buffer without
//! limit. On a persistent connection it has one more duty: junk ends
//! the connection, visibly (`connection: close`, then end of stream),
//! because after a framing error there is no trustworthy boundary at
//! which a next request could start.

use lpvs_serve::http::{parse_request, read_response, render_request, HttpError, HttpLimits};
use lpvs_serve::{serve, ServeConfig};
use proptest::prelude::*;
use std::io::{BufReader, Cursor, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

fn far() -> Instant {
    Instant::now() + Duration::from_secs(5)
}

fn parse(bytes: &[u8]) -> Result<lpvs_serve::Request, HttpError> {
    parse_request(&mut Cursor::new(bytes), &HttpLimits::default(), far())
}

/// A reader that hands out at most `step` bytes per `read` call —
/// a well-behaved but slow peer.
struct Trickle<'a> {
    bytes: &'a [u8],
    pos: usize,
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A peer that never sends anything: every read times out.
struct Stalled;

impl Read for Stalled {
    fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
        Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
    }
}

/// A well-formed POST whose framing the truncation property can cut.
fn valid_post(path_pad: usize, body_len: usize) -> Vec<u8> {
    let body: String = "x".repeat(body_len);
    format!(
        "POST /v1/t{} HTTP/1.1\r\nhost: a\r\ncontent-length: {}\r\n\r\n{}",
        "e".repeat(path_pad),
        body.len(),
        body
    )
    .into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the parser; any accepted request
    /// stays within the configured body cap.
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let limits = HttpLimits::default();
        match parse_request(&mut Cursor::new(&bytes), &limits, far()) {
            Ok(req) => prop_assert!(req.body.len() <= limits.max_body_bytes),
            Err(e) => {
                let s = e.status();
                prop_assert!((400..500).contains(&s), "non-4xx status {s} for {e:?}");
            }
        }
    }

    /// Any strict prefix of a valid POST fails closed — the parser
    /// never fabricates a request out of a half-delivered one.
    fn truncated_posts_fail_closed(
        pad in 0usize..32,
        body_len in 1usize..256,
        cut_frac in 0.0f64..1.0,
    ) {
        let full = valid_post(pad, body_len);
        let cut = 1 + ((full.len() - 2) as f64 * cut_frac) as usize; // in [1, len-1]
        let r = parse(&full[..cut]);
        prop_assert!(r.is_err(), "prefix of {} bytes parsed: {r:?}", cut);
        let status = r.unwrap_err().status();
        prop_assert!((400..500).contains(&status));
    }

    /// A header line without a colon is junk: always a 400, wherever
    /// it lands in the block.
    fn junk_header_lines_are_400(
        junk in prop::collection::vec(97u8..123, 1..40),
        before in 0usize..3,
    ) {
        let mut req = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..before {
            req.push_str(&format!("x-pad-{i}: y\r\n"));
        }
        req.push_str(std::str::from_utf8(&junk).unwrap());
        req.push_str("\r\nhost: a\r\n\r\n");
        let status = parse(req.as_bytes()).unwrap_err().status();
        prop_assert!(
            status == 400,
            "junk line {:?} got {status}, not 400",
            String::from_utf8_lossy(&junk)
        );
    }

    /// A huge declared content-length is refused up front (413) — the
    /// parser must reject on the declaration, not after buffering.
    fn oversized_declarations_are_413_before_any_body(extra in 1u64..u64::MAX / 2) {
        let limits = HttpLimits::default();
        let declared = limits.max_body_bytes as u64 + extra;
        let head = format!("POST /v1/telemetry HTTP/1.1\r\ncontent-length: {declared}\r\n\r\n");
        // No body bytes follow the declaration: if the parser tried to
        // read (or reserve) the declared length it would error on
        // truncation or allocation instead of the cap.
        let r = parse_request(&mut Cursor::new(head.as_bytes()), &limits, far());
        prop_assert_eq!(r, Err(HttpError::PayloadTooLarge));
    }

    /// A peer that trickles `step` bytes per read still parses to the
    /// same request as one that delivers everything at once.
    fn slow_trickle_parses_identically(
        pad in 0usize..32,
        body_len in 0usize..128,
        step in 1usize..17,
    ) {
        let full = valid_post(pad, body_len.max(1));
        let want = parse(&full).expect("reference parse");
        let mut trickle = Trickle { bytes: &full, pos: 0, step };
        let got = parse_request(&mut trickle, &HttpLimits::default(), far());
        prop_assert_eq!(got, Ok(want));
    }
}

/// Every family of junk the properties above feed the parser, as one
/// strategy of raw request bytes.
fn junk() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 1..2048),
        (0usize..32, 1usize..256, 0.0f64..1.0).prop_map(|(pad, body_len, cut_frac)| {
            let full = valid_post(pad, body_len);
            let cut = 1 + ((full.len() - 2) as f64 * cut_frac) as usize;
            full[..cut].to_vec()
        }),
        prop::collection::vec(97u8..123, 1..40).prop_map(|line| {
            let mut req = b"GET /healthz HTTP/1.1\r\n".to_vec();
            req.extend_from_slice(&line);
            req.extend_from_slice(b"\r\nhost: a\r\n\r\n");
            req
        }),
        (1u64..u64::MAX / 2).prop_map(|extra| {
            let declared = HttpLimits::default().max_body_bytes as u64 + extra;
            format!("POST /v1/telemetry HTTP/1.1\r\ncontent-length: {declared}\r\n\r\n").into_bytes()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Reuse is the HTTP/1.1 default; a `close` token (any case, any
    /// position in the list) or HTTP/1.0 turns it off, and nothing
    /// turns it on for HTTP/1.0.
    fn connection_header_decides_reuse(
        http11 in any::<bool>(),
        header in prop_oneof![
            Just(None::<&'static str>),
            Just(Some("keep-alive")),
            Just(Some("close")),
            Just(Some("Close")),
            Just(Some("CLOSE")),
            Just(Some("keep-alive, close")),
            Just(Some("close , keep-alive")),
            Just(Some("upgrade")),
        ],
        pad in 0usize..3,
    ) {
        let mut req = format!("GET /healthz HTTP/1.{}\r\n", u8::from(http11));
        for i in 0..pad {
            req.push_str(&format!("x-pad-{i}: y\r\n"));
        }
        if let Some(value) = header {
            req.push_str(&format!("Connection: {value}\r\n"));
        }
        req.push_str("\r\n");
        let asked_to_close = header.is_some_and(|v: &str| v.to_ascii_lowercase().contains("close"));
        let got = parse(req.as_bytes()).expect("well-formed request");
        prop_assert!(got.keep_alive == (http11 && !asked_to_close), "{:?} parsed keep_alive={}", req, got.keep_alive);
    }
}

proptest! {
    // Each case boots one server and sends it a batch of junk, so the
    // batch size, not the case count, sets the coverage.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// On the wire, junk as the *second* request of a kept-alive
    /// connection is answered at most once, with `connection: close`,
    /// and then the connection ends — it never stays open waiting for
    /// a third request, and never hangs.
    fn junk_ends_a_kept_alive_connection_on_the_wire(batch in prop::collection::vec(junk(), 32)) {
        let mut config = ServeConfig::loopback(8);
        // Far longer than the client's patience: a connection the
        // server merely lets idle out fails the property.
        config.request_deadline = Duration::from_secs(30);
        let handle = serve(config).expect("bind");
        for junk in &batch {
            let mut stream = TcpStream::connect(handle.addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
            stream.write_all(&render_request("GET", "/healthz", "", false)).expect("first request");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let first = read_response(&mut reader).expect("first response");
            prop_assert!(first.status == 200 && first.keep_alive, "first request: {first:?}");
            // The junk, then end of stream, so that a truncated request
            // reads as truncated instead of as a slow one.
            stream.write_all(junk).expect("junk");
            stream.shutdown(Shutdown::Write).expect("half-close");
            match read_response(&mut reader) {
                Ok(reply) => {
                    prop_assert!(
                        (400..500).contains(&reply.status) && !reply.keep_alive,
                        "junk {:?} answered {} keep_alive={}",
                        String::from_utf8_lossy(junk), reply.status, reply.keep_alive
                    );
                }
                // The server may hang up without a word (and with unread
                // junk in its buffer that is a reset), never time out.
                Err(e) => prop_assert!(
                    matches!(e.kind(), ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset),
                    "junk {:?}: {e}", String::from_utf8_lossy(junk)
                ),
            }
            let mut rest = Vec::new();
            match reader.read_to_end(&mut rest) {
                Ok(_) => prop_assert!(rest.is_empty(), "bytes after the closing response: {rest:?}"),
                Err(e) => prop_assert!(e.kind() == ErrorKind::ConnectionReset, "{e}"),
            }
        }
        let mut stream = TcpStream::connect(handle.addr).expect("connect");
        stream.write_all(&render_request("POST", "/v1/shutdown", "{}", true)).expect("shutdown");
        prop_assert_eq!(read_response(&mut BufReader::new(stream)).expect("drain ack").status, 200);
        handle.join();
    }
}

#[test]
fn stalled_peer_hits_the_deadline_not_a_hang() {
    let deadline = Instant::now() + Duration::from_millis(5);
    let r = parse_request(&mut Stalled, &HttpLimits::default(), deadline);
    assert_eq!(r, Err(HttpError::Timeout));
}

#[test]
fn trickled_stall_mid_body_times_out() {
    // Headers arrive, then the peer goes quiet mid-body.
    struct HalfThenStall {
        sent: bool,
    }
    impl Read for HalfThenStall {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.sent {
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            self.sent = true;
            let head = b"POST /x HTTP/1.1\r\ncontent-length: 64\r\n\r\nhalf";
            buf[..head.len()].copy_from_slice(head);
            Ok(head.len())
        }
    }
    let deadline = Instant::now() + Duration::from_millis(20);
    let r = parse_request(&mut HalfThenStall { sent: false }, &HttpLimits::default(), deadline);
    assert_eq!(r, Err(HttpError::Timeout));
}
