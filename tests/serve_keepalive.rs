//! Persistent connections in `lpvs-serve`, over real loopback sockets
//! against an in-process server.
//!
//! A device reports every slot, so the server keeps its connection open
//! between reports. These tests pin the three things that can go wrong
//! with that: a connection that should have ended stays open (or the
//! reverse), an idle connection holds a worker of the fixed pool that a
//! queued connection needs, and a drain waits out idle limits.

use lpvs_serve::http::{read_response, render_request, Response};
use lpvs_serve::server::REQUESTS_PER_CONNECTION;
use lpvs_serve::{serve, ServeConfig, ServerHandle};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client-side patience; shorter than [`IDLE_LIMIT`], so a connection
/// the server should have closed but only idles out fails the test.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);
/// The server's `request_deadline` wherever a test is not about it.
const IDLE_LIMIT: Duration = Duration::from_secs(5);

/// One persistent connection.
struct Conn(BufReader<TcpStream>);

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT).expect("connect");
        stream.set_read_timeout(Some(CLIENT_TIMEOUT)).expect("read timeout");
        stream.set_write_timeout(Some(CLIENT_TIMEOUT)).expect("write timeout");
        stream.set_nodelay(true).expect("nodelay");
        Conn(BufReader::new(stream))
    }

    fn try_send(&mut self, wire: &[u8]) -> std::io::Result<Response> {
        self.0.get_mut().write_all(wire)?;
        read_response(&mut self.0)
    }

    fn send(&mut self, wire: &[u8]) -> Response {
        self.try_send(wire).expect("framed response")
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Response {
        self.send(&render_request(method, path, body, false))
    }

    /// The server has closed its end: the next read is end of stream,
    /// promptly, not a timeout.
    fn assert_eof(&mut self, what: &str) {
        let mut byte = [0u8; 1];
        match self.0.read(&mut byte) {
            Ok(0) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
            other => panic!("{what}: connection still open after `connection: close` ({other:?})"),
        }
    }
}

fn boot(config: ServeConfig) -> (ServerHandle, SocketAddr) {
    let handle = serve(config).expect("bind");
    let addr = handle.addr;
    let mut conn = Conn::open(addr);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !text(&conn.request("GET", "/healthz", "")).contains("\"live\"") {
        assert!(Instant::now() < deadline, "server never went live");
        std::thread::sleep(Duration::from_millis(5));
    }
    (handle, addr)
}

fn config() -> ServeConfig {
    let mut config = ServeConfig::loopback(8);
    config.request_deadline = IDLE_LIMIT;
    config
}

fn shutdown(handle: ServerHandle) {
    let reply = Conn::open(handle.addr).request("POST", "/v1/shutdown", "{}");
    assert_eq!(reply.status, 200);
    assert!(!reply.keep_alive, "the shutdown response ends its connection");
    handle.join();
}

fn text(response: &Response) -> String {
    String::from_utf8_lossy(&response.body).into_owned()
}

#[test]
fn one_socket_carries_a_mixed_session_in_order() {
    let (handle, addr) = boot(config());
    let mut conn = Conn::open(addr);
    let arrive = |d: usize| format!("{{\"action\":\"arrive\",\"device\":{d},\"energy_j\":21000,\"gamma\":0.35}}");
    let script: Vec<(&str, String, String, u16)> = vec![
        ("GET", "/healthz".into(), String::new(), 200),
        ("POST", "/v1/sessions".into(), arrive(0), 202),
        ("POST", "/v1/sessions".into(), arrive(1), 202),
        ("POST", "/v1/sessions".into(), arrive(1), 422),
        ("GET", "/healthz".into(), String::new(), 200),
        ("POST", "/v1/telemetry".into(), "{\"device\":0,\"energy_j\":20000,\"observed\":0.4}".into(), 202),
        ("GET", "/v1/schedule/banana".into(), String::new(), 400),
        ("GET", "/v1/schedule/999".into(), String::new(), 404),
        ("POST", "/v1/tick".into(), "{}".into(), 202),
        ("GET", "/nope".into(), String::new(), 404),
        ("GET", "/metrics".into(), String::new(), 200),
        ("GET", "/healthz".into(), String::new(), 200),
    ];
    for (i, (method, path, body, want)) in script.iter().enumerate() {
        let reply = conn.request(method, path, body);
        assert_eq!(reply.status, *want, "request {i} ({method} {path}): {}", text(&reply));
        assert!(reply.keep_alive, "request {i} ({method} {path}) closed a reusable connection");
        if path == "/healthz" {
            assert!(text(&reply).contains("\"status\":\"live\""), "request {i}: {}", text(&reply));
        }
    }
    // Routed 4xx responses (422, 404, 400 above) are answers, not parse
    // errors: they did not end the connection. The arrivals made over
    // the socket landed on the server the health checks talked to.
    let adm = handle.shared().admission.lock().unwrap();
    assert_eq!((adm.accepted, adm.active_sessions()), (2, 2));
    drop(adm);
    drop(conn);
    shutdown(handle);
}

#[test]
fn opt_out_budget_and_parse_errors_end_the_connection() {
    let (handle, addr) = boot(config());

    // Client `connection: close`.
    let mut conn = Conn::open(addr);
    assert!(conn.request("GET", "/healthz", "").keep_alive);
    let reply = conn.send(&render_request("GET", "/healthz", "", true));
    assert_eq!(reply.status, 200);
    assert!(!reply.keep_alive, "client asked to close");
    conn.assert_eof("connection: close");

    // HTTP/1.0 never persists, whatever it asks for.
    let mut conn = Conn::open(addr);
    let reply = conn.send(b"GET /healthz HTTP/1.0\r\nconnection: keep-alive\r\n\r\n");
    assert_eq!(reply.status, 200);
    assert!(!reply.keep_alive, "HTTP/1.0 request");
    conn.assert_eof("HTTP/1.0");

    // The request budget: the last request it covers says close.
    let mut conn = Conn::open(addr);
    for i in 1..REQUESTS_PER_CONNECTION {
        assert!(conn.request("GET", "/healthz", "").keep_alive, "request {i} is inside the budget");
    }
    let reply = conn.request("GET", "/healthz", "");
    assert_eq!(reply.status, 200);
    assert!(!reply.keep_alive, "request {REQUESTS_PER_CONNECTION} exhausts the budget");
    conn.assert_eof("budget");

    // A malformed *second* request: a 4xx, then the connection ends.
    for junk in [
        &b"BOGUS\r\n\r\n"[..],
        b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
        b"POST /v1/tick HTTP/1.1\r\n\r\n",
        b"POST /v1/tick HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}GET /healthz HTTP/1.1\r\n\r\n",
    ] {
        let mut conn = Conn::open(addr);
        assert!(conn.request("POST", "/v1/tick", "{}").keep_alive);
        let started = Instant::now();
        let reply = conn.send(junk);
        assert!((400..500).contains(&reply.status), "{:?} got {}", String::from_utf8_lossy(junk), reply.status);
        assert!(!reply.keep_alive, "a 4xx from the parser always closes");
        conn.assert_eof("parse error");
        assert!(started.elapsed() < Duration::from_secs(1), "parse error answered late");
    }

    // An operator reads all of that from a scrape.
    let metrics = text(&Conn::open(addr).request("GET", "/metrics", ""));
    assert!(metrics.contains("serve_connections_total"), "{metrics}");
    assert!(metrics.contains("serve_connection_requests_count"), "{metrics}");
    for reason in ["client", "budget", "error"] {
        let series = format!("serve_connection_close_total{{reason=\"{reason}\"}}");
        assert!(metrics.contains(&series), "missing {series}:\n{metrics}");
    }
    shutdown(handle);
}

#[test]
fn one_tick_serves_the_slots_decision() {
    // A slot's decision is published inside that slot: sessions, one
    // tick, and the schedule is there — no second tick to flush it.
    let (handle, addr) = boot(config());
    let mut conn = Conn::open(addr);
    for d in 0..3 {
        let arrive = format!("{{\"action\":\"arrive\",\"device\":{d},\"energy_j\":9000,\"gamma\":0.4}}");
        assert_eq!(conn.request("POST", "/v1/sessions", &arrive).status, 202);
    }
    assert_eq!(conn.request("GET", "/v1/schedule/0", "").status, 404, "nothing decided before the tick");
    assert_eq!(conn.request("POST", "/v1/tick", "{}").status, 202);
    let ticked = Instant::now();
    let decision = loop {
        let reply = conn.request("GET", "/v1/schedule/0", "");
        if reply.status == 200 {
            break text(&reply);
        }
        assert!(ticked.elapsed() < CLIENT_TIMEOUT, "slot 0 undecided {:?} after its only tick", ticked.elapsed());
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(decision.contains("\"slot\":0") && decision.contains("\"tier\":\"exact\""), "{decision}");
    drop(conn);
    shutdown(handle);
}

/// A client that reconnects once when its kept-alive connection turns
/// out to have been closed under it — what any persistent HTTP client
/// does, and what an evicted one has to.
struct Reconnecting {
    addr: SocketAddr,
    conn: Option<Conn>,
    connects: usize,
}

impl Reconnecting {
    fn healthz(&mut self) -> Response {
        let wire = render_request("GET", "/healthz", "", false);
        if let Some(mut conn) = self.conn.take() {
            if let Ok(reply) = conn.try_send(&wire) {
                self.conn = reply.keep_alive.then_some(conn);
                return reply;
            }
        }
        self.connects += 1;
        let mut conn = Conn::open(self.addr);
        let reply = conn.send(&wire);
        self.conn = reply.keep_alive.then_some(conn);
        reply
    }
}

#[test]
fn idle_connections_never_starve_a_queued_one() {
    // Two workers, three persistent clients taking turns: whoever's
    // turn it is finds both workers parked on the other two clients'
    // idle connections. Without eviction that request waits for an idle
    // limit (seconds); with it, for one reconnect.
    let mut config = config();
    config.http_workers = 2;
    let (handle, addr) = boot(config);
    let mut clients: Vec<Reconnecting> =
        (0..3).map(|_| Reconnecting { addr, conn: None, connects: 0 }).collect();
    const TURNS: usize = 10;
    const BURST: usize = 5;
    for turn in 0..TURNS {
        for (c, client) in clients.iter_mut().enumerate() {
            for _ in 0..BURST {
                let started = Instant::now();
                let reply = client.healthz();
                let waited = started.elapsed();
                assert_eq!(reply.status, 200);
                assert!(
                    waited < Duration::from_millis(250),
                    "turn {turn}, client {c}: answered after {waited:?} — starved behind idle connections"
                );
            }
        }
    }
    // Eviction costs a client at most one reconnect per turn (its
    // connection was the longest idle while the others worked), never
    // one per request: the server degrades towards one request per
    // connection under pressure, not below it.
    let connects: usize = clients.iter().map(|c| c.connects).sum();
    assert!(connects <= 3 * TURNS, "{connects} connects for {} requests", 3 * TURNS * BURST);
    drop(clients);
    shutdown(handle);
}

#[test]
fn shutdown_evicts_idle_connections_so_join_is_prompt() {
    let (handle, addr) = boot(config());
    let mut idle: Vec<Conn> = (0..3).map(|_| Conn::open(addr)).collect();
    for conn in &mut idle {
        assert!(conn.request("GET", "/healthz", "").keep_alive);
    }
    // Three of the four workers are now parked on idle connections
    // with `IDLE_LIMIT` to go.
    let started = Instant::now();
    shutdown(handle);
    let took = started.elapsed();
    assert!(took < IDLE_LIMIT / 4, "join waited {took:?} of a {IDLE_LIMIT:?} idle limit");
    for conn in &mut idle {
        conn.assert_eof("drain");
    }
}

#[test]
fn a_trickled_second_request_earns_408_from_its_own_first_byte() {
    const DEADLINE: Duration = Duration::from_millis(400);
    let mut config = config();
    config.request_deadline = DEADLINE;
    let (handle, addr) = boot(config);
    let mut conn = Conn::open(addr);
    assert!(conn.request("POST", "/v1/tick", "{}").keep_alive);
    // Sit idle for half the limit: were the parse deadline counted from
    // here, the request below would be cut off 200 ms in.
    std::thread::sleep(DEADLINE / 2);

    let wire = b"POST /v1/telemetry HTTP/1.1\r\ncontent-length: 4096\r\n\r\n";
    let first_byte = Instant::now();
    let stream = conn.0.get_mut();
    stream.write_all(wire).expect("request head");
    // One body byte every 20 ms: each read succeeds, so only the
    // deadline check between reads can end this. Stop as soon as the
    // server has answered, so nothing is written into a closed socket.
    stream.set_nonblocking(true).expect("nonblocking");
    while first_byte.elapsed() < 4 * DEADLINE {
        match stream.peek(&mut [0u8; 1]) {
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            _ => break,
        }
        let _ = stream.write(b"x");
        std::thread::sleep(Duration::from_millis(20));
    }
    stream.set_nonblocking(false).expect("blocking");
    let answered = first_byte.elapsed();
    let reply = read_response(&mut conn.0).expect("a 408, not a dropped connection");
    assert_eq!(reply.status, 408, "{}", text(&reply));
    assert!(!reply.keep_alive);
    conn.assert_eof("timeout");
    assert!(
        answered >= DEADLINE - Duration::from_millis(50),
        "cut off after {answered:?}: the deadline must start at the request's first byte"
    );
    assert!(answered < 3 * DEADLINE, "408 took {answered:?} against a {DEADLINE:?} deadline");
    shutdown(handle);
}
