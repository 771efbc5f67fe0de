//! Connection-level chaos and graceful-drain tests over real sockets.
//!
//! Three claims. First, misbehaving clients — truncated heads, mid-body
//! disconnects, slowloris drips, raw garbage — never leak a connection
//! and never crash the server: each one ends in a well-formed 4xx or a
//! clean reap within the read deadline, and afterwards the server still
//! answers bit-identically to the in-process pipeline. Second, shutdown
//! drains: in-flight requests finish, requests arriving mid-drain get
//! `503 + Connection: close`, idle connections close, and every handler
//! thread is joined before `shutdown` returns. Third, the accept loop
//! holds live connections to `max_connections`.

use cqp_core::prelude::*;
use cqp_datagen::{generate_movie_db, MovieDbConfig};
use cqp_obs::Json;
use cqp_server::http::{parse_response, ClientResponse, HttpError};
use cqp_server::server::Phase;
use cqp_server::{
    json, run_chaos, start, ChaosConfig, ChaosMode, ChaosOutcome, ServerConfig, ServerHandle,
};
use cqp_storage::Database;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const PROFILE_WIRE: &str = "# cqp-profile v1\n\
    profile al\n\
    join 0.9 MOVIE.mid GENRE.mid\n\
    select 0.8 GENRE.genre eq \"comedy\"\n\
    select 0.6 MOVIE.year ge 1990\n";

const SQL: &str = "SELECT title FROM MOVIE";

fn boot(config: ServerConfig) -> (Arc<Database>, ServerHandle) {
    let db = Arc::new(generate_movie_db(&MovieDbConfig::tiny(7)));
    let handle = start(Arc::clone(&db), config).expect("server start");
    (db, handle)
}

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> ClientResponse {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n");
    if let Some(b) = body {
        head.push_str(&format!("content-length: {}\r\n", b.len()));
    }
    head.push_str("\r\n");
    let mut payload = head.into_bytes();
    if let Some(b) = body {
        payload.extend_from_slice(b.as_bytes());
    }
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&payload).expect("write");
    parse_response(&mut BufReader::new(stream)).expect("response")
}

fn personalize_body() -> String {
    format!(
        "{{\"user\":\"al\",\"sql\":\"{SQL}\",\"problem\":{{\"kind\":\"p2\",\"cmax\":500}},\
         \"algorithm\":\"c_maxbounds\"}}"
    )
}

#[test]
fn chaos_modes_answer_or_reap_and_server_stays_bit_exact() {
    let (db, mut handle) = boot(ServerConfig {
        // A short read deadline so slowloris is reaped quickly; chaos
        // patience below comfortably exceeds it.
        read_timeout_ms: 400,
        seed_users: 2,
        seed: 11,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    assert_eq!(
        request(addr, "POST", "/profiles/al", Some(PROFILE_WIRE)).status,
        200
    );

    let report = run_chaos(&ChaosConfig {
        addr: addr.to_string(),
        seed: 0xC4A05,
        iterations: 3,
        patience_ms: 4_000,
        drip_interval_ms: 60,
        drip_bytes: 24,
    })
    .expect("chaos run");

    // The hard invariant: nothing leaks, nothing earns a 5xx.
    assert_eq!(report.leaked(), 0, "{:?}", report.outcomes);
    for (mode, outcomes) in &report.outcomes {
        assert_eq!(outcomes.len(), 3);
        for o in outcomes {
            match o {
                ChaosOutcome::Answered { status } => assert!(
                    (400..500).contains(status),
                    "{}: answered {status}",
                    mode.as_str()
                ),
                ChaosOutcome::Reaped => {}
                ChaosOutcome::Leaked => unreachable!(),
            }
        }
    }
    // Mode-specific shapes. Garbage is a parse failure the server can
    // still answer; a slowloris never completes its head, so only the
    // read deadline ends it — a 408, written while the socket still
    // listens. Truncated sends end in EOF mid-parse: a clean reap.
    for o in report.for_mode(ChaosMode::GarbageBytes) {
        assert!(
            matches!(o, ChaosOutcome::Answered { status } if *status == 400 || *status == 431),
            "garbage: {o:?}"
        );
    }
    for o in report.for_mode(ChaosMode::Slowloris) {
        assert!(
            matches!(
                o,
                ChaosOutcome::Answered { status: 408 } | ChaosOutcome::Reaped
            ),
            "slowloris: {o:?}"
        );
    }
    for o in report.for_mode(ChaosMode::TruncatedHead) {
        assert!(matches!(o, ChaosOutcome::Reaped), "truncated head: {o:?}");
    }

    // Post-chaos smoke: the answer over the abused server is
    // bit-identical to the in-process pipeline.
    let resp = request(addr, "POST", "/personalize", Some(&personalize_body()));
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let served = json::parse(&resp.body_text()).unwrap();
    let profile = cqp_prefs::from_text(PROFILE_WIRE, db.catalog()).unwrap();
    let driver = BatchDriver::new(Arc::clone(&db), 1);
    let item = driver
        .submit(BatchRequest {
            query: cqp_engine::parse_query(SQL, db.catalog()).unwrap(),
            profile,
            problem: ProblemSpec::p2(500),
            config: SolverConfig {
                algorithm: Algorithm::CMaxBounds,
                ..Default::default()
            },
        })
        .unwrap();
    assert_eq!(
        served.get("sql").and_then(Json::as_str),
        Some(item.sql.as_str())
    );
    let served_prefs: Vec<u64> = served
        .get("solution")
        .and_then(|s| s.get("prefs"))
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(Json::as_u64)
        .collect();
    let local_prefs: Vec<u64> = item.solution.prefs.iter().map(|&p| p as u64).collect();
    assert_eq!(served_prefs, local_prefs);
    assert_eq!(
        served
            .get("solution")
            .and_then(|s| s.get("doi"))
            .and_then(Json::as_f64),
        Some(item.solution.doi.value())
    );

    // Nothing panicked and every chaos connection was accounted for.
    assert_eq!(handle.state().driver.submit_panics(), 0);
    let stats = handle.shutdown(Duration::from_millis(5_000));
    assert!(stats.graceful, "{stats:?}");
    assert_eq!(stats.forced, 0);
    assert_eq!(handle.state().active_connections(), 0);
}

#[test]
fn drain_finishes_inflight_rejects_arrivals_and_joins_every_thread() {
    let (_db, handle) = boot(ServerConfig {
        read_timeout_ms: 5_000,
        drain_deadline_ms: 5_000,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let state = Arc::clone(handle.state());

    // conn1: a request mid-arrival — the head promises a body that has
    // not been sent yet, so the handler is blocked reading it.
    let mut conn1 = TcpStream::connect(addr).expect("conn1");
    let body = PROFILE_WIRE;
    conn1
        .write_all(
            format!(
                "POST /profiles/al HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();

    // conn2: idle keep-alive — no bytes at all.
    let mut conn2 = TcpStream::connect(addr).expect("conn2");
    conn2
        .set_read_timeout(Some(Duration::from_millis(3_000)))
        .unwrap();

    // Let both handlers spawn, then drain in the background.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(state.phase(), Phase::Live);
    let drainer = std::thread::spawn(move || {
        let mut handle = handle;
        let stats = handle.shutdown(Duration::from_millis(5_000));
        (handle, stats)
    });
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(state.phase(), Phase::Draining);

    // New connections are no longer accepted while draining.
    assert!(
        TcpStream::connect_timeout(&addr.clone(), Duration::from_millis(300)).is_err(),
        "listener must be closed during drain"
    );

    // conn1's body now arrives: the request completes its arrival during
    // the drain and is answered 503 draining + Connection: close.
    conn1.write_all(body.as_bytes()).unwrap();
    let resp = parse_response(&mut BufReader::new(&mut conn1)).expect("conn1 response");
    assert_eq!(resp.status, 503, "{}", resp.body_text());
    assert_eq!(resp.header("connection"), Some("close"));
    let parsed = json::parse(&resp.body_text()).unwrap();
    assert_eq!(
        parsed
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("draining")
    );

    // conn2 was idle: the drain closes it without a response.
    let mut buf = [0u8; 16];
    assert_eq!(conn2.read(&mut buf).expect("conn2 EOF"), 0);

    // The drain itself: graceful, nothing force-severed, every handler
    // joined, and the server is stopped.
    let (handle, stats) = drainer.join().expect("drainer");
    assert!(stats.graceful, "{stats:?}");
    assert_eq!(stats.forced, 0, "{stats:?}");
    assert!(stats.drain_ms < 5_000);
    assert_eq!(state.phase(), Phase::Stopped);
    assert_eq!(state.active_connections(), 0);
    assert!(state.drain_rejected() >= 1);
    drop(handle);
}

#[test]
fn healthz_stays_reachable_and_reports_draining_mid_drain() {
    let (_db, handle) = boot(ServerConfig {
        read_timeout_ms: 5_000,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let state = Arc::clone(handle.state());

    // Readiness before drain: 200 ready, breaker closed.
    let resp = request(addr, "GET", "/healthz/ready", None);
    assert_eq!(resp.status, 200);
    let body = json::parse(&resp.body_text()).unwrap();
    assert_eq!(body.get("status").and_then(Json::as_str), Some("ready"));
    assert_eq!(body.get("breaker").and_then(Json::as_str), Some("closed"));
    let resp = request(addr, "GET", "/healthz/live", None);
    assert_eq!(resp.status, 200);

    // A readiness probe whose head is still arriving when the drain
    // begins: health endpoints answer during drain, and this one reports
    // the transition.
    let mut probe = TcpStream::connect(addr).expect("probe");
    probe
        .write_all(b"GET /healthz/ready HTTP/1.1\r\nhost: t\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let drainer = std::thread::spawn(move || {
        let mut handle = handle;
        let stats = handle.shutdown(Duration::from_millis(5_000));
        (handle, stats)
    });
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(state.phase(), Phase::Draining);

    probe.write_all(b"\r\n").unwrap();
    let resp = parse_response(&mut BufReader::new(&mut probe)).expect("probe response");
    assert_eq!(resp.status, 503, "{}", resp.body_text());
    let body = json::parse(&resp.body_text()).unwrap();
    assert_eq!(body.get("status").and_then(Json::as_str), Some("draining"));

    let (_handle, stats) = drainer.join().expect("drainer");
    assert!(stats.graceful, "{stats:?}");
    assert_eq!(stats.forced, 0);
}

#[test]
fn keep_alive_connections_close_at_the_request_cap() {
    let (_db, mut handle) = boot(ServerConfig {
        max_requests_per_conn: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Three pipelined keep-alive requests on one connection: the cap
    // answers two, marks the second `Connection: close`, and closes.
    let mut conn = TcpStream::connect(addr).expect("connect");
    for _ in 0..3 {
        conn.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
    }
    conn.set_read_timeout(Some(Duration::from_millis(3_000)))
        .unwrap();
    let mut reader = BufReader::new(conn);
    let first = parse_response(&mut reader).expect("first");
    assert_eq!(first.status, 200);
    assert_ne!(first.header("connection"), Some("close"));
    let second = parse_response(&mut reader).expect("second");
    assert_eq!(second.status, 200);
    assert_eq!(second.header("connection"), Some("close"));
    match parse_response(&mut reader) {
        Err(HttpError::ConnectionClosed) => {}
        other => panic!("third request must hit a closed connection, got {other:?}"),
    }
    handle.stop();
}

/// The accept loop caps live connections: with `max_connections` held
/// open, one more is closed on accept without an answer, counted as
/// `server.over_capacity`, and exported on `/metrics`. A freed slot is
/// usable again.
#[test]
fn connections_past_the_cap_are_closed_and_counted() {
    let (_db, mut handle) = boot(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let state = Arc::clone(handle.state());
    let healthz = b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";

    // Two keep-alive connections, each proven served, fill the cap.
    let mut held: Vec<BufReader<TcpStream>> = (0..2)
        .map(|_| {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.write_all(healthz).unwrap();
            let mut reader = BufReader::new(conn);
            assert_eq!(parse_response(&mut reader).expect("held").status, 200);
            reader
        })
        .collect();

    // One past the cap: closed (FIN or reset), never answered.
    let mut over = TcpStream::connect(addr).expect("connect");
    over.set_read_timeout(Some(Duration::from_millis(3_000)))
        .unwrap();
    let _ = over.write_all(healthz);
    let mut buf = [0u8; 64];
    let closed = match over.read(&mut buf) {
        Ok(n) => n == 0,
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
    };
    assert!(closed, "a connection past the cap must be closed on accept");
    assert_eq!(state.obs.registry().counter("server.over_capacity"), 1);

    // The held connections still work, and /metrics shows the refusal.
    let conn = held[0].get_mut();
    conn.write_all(b"GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let metrics = parse_response(&mut held[0]).expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics
            .body_text()
            .lines()
            .any(|l| l == "cqp_server_over_capacity_total 1"),
        "{}",
        metrics.body_text()
    );

    // Closing one held connection frees its slot for a newcomer.
    drop(held.pop());
    let t0 = std::time::Instant::now();
    while state.active_connections() > 1 && t0.elapsed() < Duration::from_secs(3) {
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(100));
    let resp = request(addr, "GET", "/healthz", None);
    assert_eq!(resp.status, 200);
    assert_eq!(state.obs.registry().counter("server.over_capacity"), 1);
    drop(held);
    handle.stop();
}
