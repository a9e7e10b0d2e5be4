//! Minimal HTTP/1.1 scrape endpoint: `GET /metrics` returns the
//! Prometheus text exposition, nothing else is served.
//!
//! This is deliberately not a web server: one blocking accept loop woken
//! by the daemon's stop (the same discipline as the main protocol
//! listener), connections handled inline because a scrape
//! is a render of in-memory atomics and takes microseconds, and every
//! response closes the connection. Stock Prometheus speaks exactly this
//! much HTTP.

use crate::Shared;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::ACCEPT_RETRY;

/// Deadline for reading a whole request head, and the write timeout for
/// its answer: generous for a scraper, short enough that a stuck or
/// trickling client cannot wedge the (single-threaded) scrape loop.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// Bind `addr` (TCP only; port 0 picks a free port). Returns the
/// listener and its bound address.
pub(crate) fn bind(addr: &str) -> std::io::Result<(TcpListener, String)> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?.to_string();
    Ok((listener, bound))
}

/// Serve scrapes on `listener` until the daemon stops.
pub(crate) fn spawn(listener: TcpListener, shared: Arc<Shared>) -> JoinHandle<()> {
    std::thread::spawn(move || scrape_loop(listener, &shared))
}

fn scrape_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.stopping() {
            return;
        }
        match accepted {
            // One slow scraper must not take the endpoint down with it;
            // errors just drop the connection.
            Ok((stream, _)) => drop(serve_scrape(stream, shared)),
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
}

/// Read one request head, answer it, close.
fn serve_scrape(mut stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    stream.set_write_timeout(Some(SCRAPE_TIMEOUT))?;

    let head = read_head(&mut stream, SCRAPE_TIMEOUT)?;
    let mut first = head.lines().next().unwrap_or("").split_whitespace();
    let method = first.next().unwrap_or("");
    let path = first.next().unwrap_or("");

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else if path == "/metrics" {
        (
            "200 OK",
            // The Prometheus text exposition content type, version 0.0.4.
            "text/plain; version=0.0.4; charset=utf-8",
            shared.metrics_text(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try GET /metrics\n".to_string(),
        )
    };

    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Read until the blank line ending the request head, failing once
/// `budget` has elapsed in total: the read timeout is re-armed with the
/// time left before every read, so a client trickling bytes cannot
/// stretch the head past one budget. Request bodies are ignored (GET has
/// none; anything else is refused anyway).
fn read_head(stream: &mut TcpStream, budget: Duration) -> std::io::Result<String> {
    let deadline = Instant::now() + budget;
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n") {
        if head.len() > 16 * 1024 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request head not received in time",
            ));
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut byte)? {
            0 => break, // client closed early
            _ => head.push(byte[0]),
        }
    }
    Ok(String::from_utf8_lossy(&head).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trickled_head_fails_within_one_budget() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // One byte every 50 ms for up to 3 s: every single read finishes
        // well inside the budget, only the head as a whole does not.
        let writer = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            for _ in 0..60 {
                if c.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let (mut server, _) = listener.accept().unwrap();
        let budget = Duration::from_millis(300);
        let t0 = Instant::now();
        let res = read_head(&mut server, budget);
        let took = t0.elapsed();
        drop(server);
        writer.join().unwrap();
        assert!(res.is_err(), "trickled head was accepted: {res:?}");
        assert!(took < budget * 3, "read_head took {took:?}");
    }
}
