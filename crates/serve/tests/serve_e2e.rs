//! End-to-end tests of the `spt-serve` daemon over real sockets:
//! differential identity vs direct mode, in-flight coalescing, the warm
//! on-disk store across daemon restarts, timeouts, and graceful
//! shutdown.

use spt::{run_experiment, ExperimentOutput, ExperimentRequest, Json, RunConfig, Sweep, ToJson};
use spt_serve::{client, ServeConfig, Server};
use spt_workloads::Scale;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("spt-serve-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn start(cache: Option<PathBuf>) -> Server {
    Server::start(&ServeConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: cache,
        workers: 1,
        read_timeout: Duration::from_secs(60),
        metrics: None,
    })
    .expect("daemon starts")
}

fn experiment_body(req: &ExperimentRequest) -> Json {
    let mut body = Json::obj().with("op", "experiment");
    if let Json::Object(pairs) = req.to_json() {
        for (k, v) in pairs {
            body = body.with(&k, v);
        }
    }
    body
}

/// One raw protocol exchange: send `line`, return the raw response line
/// (for byte-level comparisons the typed client would mask).
fn raw_request(addr: &str, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    reply
}

#[test]
fn ping_stats_and_refusals() {
    let server = start(None);
    let addr = server.addr().to_string();

    let pong = client::request(&addr, &Json::obj().with("op", "ping")).unwrap();
    assert_eq!(pong.payload.as_str(), Some("pong"));

    // Malformed lines and unknown ops come back as refusals, and the
    // daemon stays up.
    for bad in [
        "{",
        "{}",
        "{\"op\":\"nope\"}",
        "{\"op\":\"eval\",\"bench\":\"x\"}",
    ] {
        let reply = raw_request(&addr, bad);
        let doc = Json::parse(reply.trim()).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
        assert!(doc.get("error").is_some(), "{bad}");
    }

    let stats = client::request(&addr, &Json::obj().with("op", "stats")).unwrap();
    assert!(
        stats
            .payload
            .get("requests")
            .and_then(Json::as_u64)
            .unwrap()
            >= 5
    );
    assert_eq!(stats.payload.get("errors").and_then(Json::as_u64), Some(4));
    server.shutdown();
}

/// Send `line` (plus newline) on an open connection and read one reply.
fn exchange(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &[u8]) -> Json {
    stream.write_all(line).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    Json::parse(reply.trim()).expect("reply is JSON")
}

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn assert_refused(doc: &Json, needle: &str) {
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(false),
        "{doc:?}"
    );
    let err = doc.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(err.contains(needle), "error {err:?} lacks {needle:?}");
}

#[test]
fn nesting_bomb_is_refused_and_daemon_survives() {
    let server = start(None);
    let addr = server.addr().to_string();
    // Deep enough to overflow a connection thread's stack through a
    // recursive parser, short enough to pass the line-length limit.
    let bomb = "[".repeat(spt_serve::MAX_REQUEST_LINE - 1);
    let (mut stream, mut reader) = connect(&addr);
    let doc = exchange(&mut stream, &mut reader, bomb.as_bytes());
    assert_refused(&doc, "nesting");
    // The same connection and a new one both still answer.
    let pong = exchange(&mut stream, &mut reader, br#"{"op":"ping"}"#);
    assert_eq!(pong.get("payload").and_then(Json::as_str), Some("pong"));
    drop((stream, reader));
    let pong = client::request(&addr, &Json::obj().with("op", "ping")).unwrap();
    assert_eq!(pong.payload.as_str(), Some("pong"));
    server.shutdown();
}

#[test]
fn overlong_request_line_is_refused_and_daemon_survives() {
    let server = start(None);
    let addr = server.addr().to_string();
    // 200 KB of `[` on one line: past the line limit, so it is refused
    // unread and the connection resynchronises at the newline.
    let (mut stream, mut reader) = connect(&addr);
    let doc = exchange(&mut stream, &mut reader, "[".repeat(200_000).as_bytes());
    assert_refused(&doc, "longer than");
    let pong = exchange(&mut stream, &mut reader, br#"{"op":"ping"}"#);
    assert_eq!(pong.get("payload").and_then(Json::as_str), Some("pong"));
    // Bytes that are not UTF-8 are refused the same way.
    let doc = exchange(&mut stream, &mut reader, b"{\"op\":\"\xff\"}");
    assert_refused(&doc, "UTF-8");
    drop((stream, reader));

    // A line with no end in sight: the daemon gives up on that
    // connection, and only that one.
    let (mut stream, mut reader) = connect(&addr);
    let writer = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..64 {
            if stream.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    // The daemon answers (the reply may be lost to a reset, since the
    // rest of the line goes unread) and closes the connection.
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    writer.join().unwrap();
    let pong = client::request(&addr, &Json::obj().with("op", "ping")).unwrap();
    assert_eq!(pong.payload.as_str(), Some("pong"));
    let stats = client::request(&addr, &Json::obj().with("op", "stats")).unwrap();
    assert_eq!(stats.payload.get("errors").and_then(Json::as_u64), Some(3));
    server.shutdown();
}

#[test]
fn served_experiment_is_identical_to_direct_mode() {
    let server = start(None);
    let addr = server.addr().to_string();
    // The acceptance contract: the full fig_scale suite, served vs
    // direct, must agree byte-for-byte on the deterministic surface.
    for name in ["fig_scale", "fig8"] {
        let req = ExperimentRequest::new(name, Scale::Test);
        let resp = client::request(&addr, &experiment_body(&req)).unwrap();
        let served = ExperimentOutput::from_json(&resp.payload).unwrap();
        let direct = run_experiment(&Sweep::sequential(), &req, &RunConfig::default()).unwrap();
        assert_eq!(served.table, direct.table, "{name}: tables differ");
        assert_eq!(
            served.report.deterministic_json().dump(),
            direct.report.deterministic_json().dump(),
            "{name}: deterministic reports differ"
        );
    }
    server.shutdown();
}

#[test]
fn eval_op_matches_direct_evaluation() {
    let server = start(None);
    let addr = server.addr().to_string();
    let body = Json::obj()
        .with("op", "eval")
        .with("bench", "parsers")
        .with("scale", "test");
    let resp = client::request(&addr, &body).unwrap();
    let w = spt_workloads::benchmark("parsers", Scale::Test);
    let (outcome, _) = Sweep::sequential().evaluate(w.name, &w.program, &RunConfig::default());
    assert_eq!(
        resp.payload.get("outcome").unwrap().dump(),
        outcome.to_json().dump()
    );
    assert!(resp.payload.get("record").is_some());
    server.shutdown();
}

#[test]
fn concurrent_duplicate_requests_return_identical_bytes() {
    let server = start(None);
    let addr = server.addr().to_string();

    // A small property sweep: for every request shape, a burst of
    // concurrent duplicates must (a) all get byte-identical response
    // lines and (b) trigger exactly one computation.
    let shapes = [
        ExperimentRequest::new("fig8", Scale::Test),
        ExperimentRequest::new("fig1", Scale::Test),
        ExperimentRequest::new("fig5", Scale::Test),
    ];
    for req in &shapes {
        let line = experiment_body(req).dump();
        let replies: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| raw_request(&addr, &line)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut computed = 0;
        for r in &replies {
            let doc = Json::parse(r.trim()).unwrap();
            // The spliced payload keeps the line canonical: re-encoding
            // the parsed response reproduces it byte for byte.
            assert_eq!(doc.dump(), r.trim(), "{}: non-canonical line", req.name);
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
            let served = doc.get("served").and_then(Json::as_str).unwrap();
            assert!(
                ["computed", "coalesced", "memo"].contains(&served),
                "unexpected served={served}"
            );
            if served == "computed" {
                computed += 1;
            }
        }
        assert_eq!(computed, 1, "{}: exactly one computation", req.name);
        // Byte-identical modulo the served label (computed/coalesced/memo
        // legitimately differs per caller).
        let canon: Vec<String> = replies
            .iter()
            .map(|r| {
                let mut doc = Json::parse(r.trim()).unwrap();
                if let Json::Object(pairs) = &mut doc {
                    pairs.retain(|(k, _)| k != "served");
                }
                doc.dump()
            })
            .collect();
        for c in &canon {
            assert_eq!(c, &canon[0], "{}: divergent response bytes", req.name);
        }
    }
    server.shutdown();
}

#[test]
fn warm_store_survives_restart_and_is_10x_faster() {
    let dir = tmp_dir("warm");
    let req = ExperimentRequest::new("fig_scale", Scale::Test);
    let body = experiment_body(&req);

    // Cold daemon: computes, persists.
    let a = Server::start(&ServeConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: Some(dir.clone()),
        workers: 1,
        read_timeout: Duration::from_secs(60),
        metrics: None,
    })
    .unwrap();
    let t0 = Instant::now();
    let cold = client::request(a.addr(), &body).unwrap();
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold.served, "computed");
    a.shutdown();

    // Fresh daemon, same store: served from disk without simulating.
    let b = Server::start(&ServeConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: Some(dir.clone()),
        workers: 1,
        read_timeout: Duration::from_secs(60),
        metrics: None,
    })
    .unwrap();
    let t1 = Instant::now();
    let warm = client::request(b.addr(), &body).unwrap();
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert_eq!(warm.served, "store");
    assert_eq!(
        warm.payload.dump(),
        cold.payload.dump(),
        "warm payload must be byte-identical to the cold one"
    );
    assert!(
        warm_ms * 10.0 <= cold_ms,
        "warm store must be ≥10× faster: cold {cold_ms:.1} ms vs warm {warm_ms:.1} ms"
    );
    b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_and_flushes_the_store() {
    let dir = tmp_dir("flush");
    let server = Server::start(&ServeConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: Some(dir.clone()),
        workers: 1,
        read_timeout: Duration::from_secs(60),
        metrics: None,
    })
    .unwrap();
    let addr = server.addr().to_string();
    let _ = client::request(
        &addr,
        &experiment_body(&ExperimentRequest::new("fig1", Scale::Test)),
    )
    .unwrap();
    // Protocol-level shutdown: daemon stops accepting, drains, flushes.
    let bye = client::request(&addr, &Json::obj().with("op", "shutdown")).unwrap();
    assert_eq!(bye.payload.as_str(), Some("shutting down"));
    server.wait();
    let meta = std::fs::read_to_string(dir.join("_meta.json")).expect("store flushed");
    let doc = Json::parse(&meta).unwrap();
    assert_eq!(
        doc.get("spt_store_schema").and_then(Json::as_u64),
        Some(spt::STORE_SCHEMA as u64)
    );
    // New connections are refused after shutdown.
    assert!(client::request(&addr, &Json::obj().with("op", "ping")).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_connection_times_out_but_daemon_stays_healthy() {
    let server = Server::start(&ServeConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: None,
        workers: 1,
        read_timeout: Duration::from_millis(200),
        metrics: None,
    })
    .unwrap();
    let addr = server.addr().to_string();
    // Open a connection and send nothing: the daemon's read timeout
    // reaps it instead of pinning a thread forever.
    let idle = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    // The daemon still answers new requests promptly.
    let pong = client::request(&addr, &Json::obj().with("op", "ping")).unwrap();
    assert_eq!(pong.payload.as_str(), Some("pong"));
    drop(idle);
    server.shutdown();
}

#[test]
fn unix_socket_transport_works() {
    let sock = std::env::temp_dir().join(format!("spt-serve-e2e-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let server = Server::start(&ServeConfig {
        listen: sock.to_str().unwrap().to_string(),
        cache_dir: None,
        workers: 1,
        read_timeout: Duration::from_secs(60),
        metrics: None,
    })
    .unwrap();
    let addr = sock.to_str().unwrap();
    let pong = client::request(addr, &Json::obj().with("op", "ping")).unwrap();
    assert_eq!(pong.payload.as_str(), Some("pong"));
    server.shutdown();
    assert!(!sock.exists(), "socket file removed on shutdown");
}

#[test]
fn connection_flood_beyond_the_cap_is_refused_busy() {
    let server = start(None);
    let addr = server.addr().to_string();
    // Hold the cap's worth of live connections; a ping on each proves
    // the daemon accepted it and is serving it.
    let mut held = Vec::new();
    for _ in 0..spt_serve::MAX_CONNS {
        let (mut s, mut r) = connect(&addr);
        let pong = exchange(&mut s, &mut r, b"{\"op\":\"ping\"}");
        assert_eq!(pong.get("payload").and_then(Json::as_str), Some("pong"));
        held.push((s, r));
    }
    // Each connection beyond the cap gets one `busy` line, then EOF.
    for _ in 0..4 {
        let (_s, mut r) = connect(&addr);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_refused(&Json::parse(line.trim()).unwrap(), "busy");
        line.clear();
        assert_eq!(
            r.read_line(&mut line).unwrap(),
            0,
            "refused connection closed"
        );
    }
    // Released connections free their slots; until their threads have
    // exited a new connection may still be refused, but only as busy.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (mut s, mut r) = connect(&addr);
        let reply = exchange(&mut s, &mut r, b"{\"op\":\"ping\"}");
        if reply.get("payload").and_then(Json::as_str) == Some("pong") {
            break;
        }
        assert_refused(&reply, "busy");
        assert!(Instant::now() < deadline, "slots never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}
