//! Minimal blocking HTTP/1.1 client for the serve integration tests.
//!
//! A request is: connect, write, read one response framed by its
//! `content-length` ([`lpvs_serve::http::read_response`]), drop the
//! connection. Never read to end of stream: the server keeps
//! connections alive, so EOF only comes when its idle limit fires.

#![allow(dead_code)]

use lpvs_serve::http::{read_response, render_request};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Sends one request and returns `(status, body)`.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    try_request(addr, method, path, body).expect("request failed")
}

/// Fallible flavor of [`request`] for polling loops that race boot.
pub fn try_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(&render_request(method, path, body, false))?;
    let response = read_response(&mut BufReader::new(stream))?;
    Ok((response.status, String::from_utf8_lossy(&response.body).into_owned()))
}

/// Polls `/healthz` until the server reports the wanted phase.
pub fn wait_phase(addr: SocketAddr, phase: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok((200, body)) = try_request(addr, "GET", "/healthz", "") {
            if body.contains(&format!("\"status\":\"{phase}\"")) {
                return;
            }
        }
        assert!(Instant::now() < deadline, "server never reached phase {phase:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Polls `GET /v1/schedule/{slot}` until the decision lands; returns
/// the response body.
pub fn wait_schedule(addr: SocketAddr, slot: usize, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok((200, body)) = try_request(addr, "GET", &format!("/v1/schedule/{slot}"), "") {
            return body;
        }
        assert!(Instant::now() < deadline, "slot {slot} was never decided");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Pulls a quoted string field out of a flat JSON body.
pub fn str_field(body: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = body.find(&marker)? + marker.len();
    let end = body[start..].find('"')?;
    Some(body[start..start + end].to_owned())
}
