//! End-to-end tests of the `cqp-server` serving layer over real sockets.
//!
//! The load-bearing claim: serving adds *transport*, not *behavior*. A
//! personalization answer obtained through a socket must be bit-identical
//! to the one the in-process pipeline produces from the same database,
//! profile, and configuration — same SQL, same selected preferences, same
//! doi, same ranked rows.

use cqp_core::prelude::*;
use cqp_datagen::{generate_movie_db, MovieDbConfig};
use cqp_engine::{execute_ranked, parse_query, Matching};
use cqp_obs::Json;
use cqp_server::http::{parse_response, ClientResponse};
use cqp_server::{json, start, ServerConfig, ServerHandle};
use cqp_storage::{Database, IoMeter};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const PROFILE_WIRE: &str = "# cqp-profile v1\n\
    profile al\n\
    join 0.9 MOVIE.mid GENRE.mid\n\
    join 1.0 MOVIE.did DIRECTOR.did\n\
    select 0.8 GENRE.genre eq \"comedy\"\n\
    select 0.6 MOVIE.year ge 1990\n";

const SQL: &str = "SELECT title FROM MOVIE";
const CMAX: u64 = 500;

fn boot(config: ServerConfig) -> (Arc<Database>, ServerHandle) {
    let db = Arc::new(generate_movie_db(&MovieDbConfig::tiny(7)));
    let handle = start(Arc::clone(&db), config).expect("server start");
    (db, handle)
}

/// One request over a fresh connection; closes after the response.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> ClientResponse {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n");
    if let Some(b) = body {
        head.push_str(&format!("content-length: {}\r\n", b.len()));
    }
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    let mut payload = head.into_bytes();
    if let Some(b) = body {
        payload.extend_from_slice(b.as_bytes());
    }
    raw(addr, &payload)
}

/// Sends raw bytes, returns the parsed response.
fn raw(addr: SocketAddr, payload: &[u8]) -> ClientResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(payload).expect("write");
    stream.flush().expect("flush");
    parse_response(&mut BufReader::new(stream)).expect("response")
}

fn personalize_body(extra: &str) -> String {
    format!(
        "{{\"user\":\"al\",\"sql\":\"{SQL}\",\"problem\":{{\"kind\":\"p2\",\"cmax\":{CMAX}}},\
         \"algorithm\":\"c_maxbounds\"{extra}}}"
    )
}

fn error_code(resp: &ClientResponse) -> String {
    json::parse(&resp.body_text())
        .expect("error body is JSON")
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .expect("error.code present")
        .to_string()
}

#[test]
fn socket_answer_is_bit_identical_to_in_process_pipeline() {
    let (db, mut handle) = boot(ServerConfig::default());
    let addr = handle.addr();

    // Upsert the profile over the wire, then read it back.
    let resp = request(addr, "POST", "/profiles/al", &[], Some(PROFILE_WIRE));
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let body = json::parse(&resp.body_text()).unwrap();
    assert_eq!(body.get("version").and_then(Json::as_u64), Some(1));
    assert_eq!(body.get("preferences").and_then(Json::as_u64), Some(4));
    let stored = request(addr, "GET", "/profiles/al", &[], None);
    assert_eq!(stored.status, 200);

    // Personalize over the socket, asking for ranked rows.
    let resp = request(
        addr,
        "POST",
        "/personalize",
        &[],
        Some(&personalize_body(
            ",\"rank\":{\"min_match\":1},\"rows\":true",
        )),
    );
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let served = json::parse(&resp.body_text()).unwrap();

    // The same pipeline in-process: same db, same profile text, same
    // problem and algorithm.
    let profile = cqp_prefs::from_text(PROFILE_WIRE, db.catalog()).unwrap();
    assert_eq!(
        stored.body_text(),
        cqp_prefs::to_text(&profile, db.catalog()),
        "wire round-trip of the stored profile"
    );
    let driver = BatchDriver::new(Arc::clone(&db), 1);
    let item = driver
        .submit(BatchRequest {
            query: parse_query(SQL, db.catalog()).unwrap(),
            profile,
            problem: ProblemSpec::p2(CMAX),
            config: SolverConfig {
                algorithm: Algorithm::CMaxBounds,
                ..Default::default()
            },
        })
        .unwrap();

    // SQL: the personalized query the client would run.
    assert_eq!(
        served.get("sql").and_then(Json::as_str),
        Some(item.sql.as_str())
    );
    // Selected preferences, bit for bit.
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
    // Objective value and dois: f64s survive the JSON round trip exactly
    // (shortest-round-trip rendering on both sides).
    assert_eq!(
        served
            .get("solution")
            .and_then(|s| s.get("doi"))
            .and_then(Json::as_f64),
        Some(item.solution.doi.value())
    );
    let served_dois: Vec<f64> = served
        .get("pref_dois")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    assert_eq!(served_dois, item.pref_dois);
    assert!(!served_dois.is_empty(), "personalization selected nothing");

    // Ranked execution: same rows, same order, same per-row doi.
    let meter = IoMeter::new(0.0);
    let ranked = execute_ranked(
        &db,
        &item.query,
        &item.pref_dois,
        Matching::AtLeast(1),
        &meter,
    )
    .unwrap();
    let served_ranked = served.get("ranked").and_then(Json::as_array).unwrap();
    assert_eq!(served_ranked.len(), ranked.len());
    for (s, l) in served_ranked.iter().zip(&ranked) {
        assert_eq!(s.get("doi").and_then(Json::as_f64), Some(l.doi));
        let served_row: Vec<String> = s
            .get("row")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect();
        let local_row: Vec<String> = l.row.iter().map(|v| v.to_string()).collect();
        assert_eq!(served_row, local_row);
    }

    assert_eq!(handle.state().driver.submit_panics(), 0);
    handle.stop();
}

#[test]
fn overload_is_shed_with_429_and_zero_panics() {
    let (_db, mut handle) = boot(ServerConfig {
        max_inflight: 1,
        queue_cap: 0,
        retry_after_ms: 250,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    assert_eq!(
        request(addr, "POST", "/profiles/al", &[], Some(PROFILE_WIRE)).status,
        200
    );

    // Hold the only execution slot through the handle, then knock.
    let permit = handle
        .state()
        .gate
        .admit(Duration::ZERO)
        .expect("slot free");
    for _ in 0..3 {
        let resp = request(
            addr,
            "POST",
            "/personalize",
            &[],
            Some(&personalize_body("")),
        );
        assert_eq!(resp.status, 429, "{}", resp.body_text());
        assert_eq!(error_code(&resp), "overloaded");
        let retry_after = resp.header("retry-after").expect("retry-after on 429");
        assert!(retry_after.parse::<u64>().unwrap() >= 1);
    }
    drop(permit);

    // The slot freed: the same request now succeeds, and nothing panicked
    // anywhere in the shedding path.
    let resp = request(
        addr,
        "POST",
        "/personalize",
        &[],
        Some(&personalize_body("")),
    );
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let (_, rejected, _) = handle.state().gate.counters();
    assert_eq!(rejected, 3);
    assert_eq!(handle.state().driver.submit_panics(), 0);
    handle.stop();
}

#[test]
fn zero_deadline_degrades_but_answer_stays_well_formed() {
    let (_db, mut handle) = boot(ServerConfig::default());
    let addr = handle.addr();
    assert_eq!(
        request(addr, "POST", "/profiles/al", &[], Some(PROFILE_WIRE)).status,
        200
    );

    // The header wins over the body and a 0-ms deadline trips the budget
    // before the first state is expanded — deterministically degraded.
    let resp = request(
        addr,
        "POST",
        "/personalize",
        &[("x-cqp-deadline-ms", "0")],
        Some(&personalize_body("")),
    );
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let body = json::parse(&resp.body_text()).unwrap();
    let solution = body.get("solution").expect("solution present");
    let degraded = solution.get("degraded").expect("degraded present");
    assert_eq!(
        degraded.get("reason").and_then(Json::as_str),
        Some("deadline_exceeded"),
        "{}",
        resp.body_text()
    );
    // Degraded, not broken: the incumbent it returns is a complete,
    // feasible answer the client can still run.
    assert!(solution.get("prefs").and_then(Json::as_array).is_some());
    assert!(solution.get("cost_blocks").and_then(Json::as_u64).is_some());
    assert!(body.get("sql").and_then(Json::as_str).is_some());
    handle.stop();
}

#[test]
fn malformed_requests_get_typed_4xx_never_500() {
    let (_db, mut handle) = boot(ServerConfig::default());
    let addr = handle.addr();
    assert_eq!(
        request(addr, "POST", "/profiles/al", &[], Some(PROFILE_WIRE)).status,
        200
    );

    // (status, expected error code, request)
    let cases: Vec<(u16, &str, ClientResponse)> = vec![
        (
            400,
            "bad_json",
            request(addr, "POST", "/personalize", &[], Some("{not json")),
        ),
        (
            400,
            "missing_field",
            request(addr, "POST", "/personalize", &[], Some("{}")),
        ),
        (
            404,
            "unknown_user",
            request(
                addr,
                "POST",
                "/personalize",
                &[],
                Some(&personalize_body("").replace("\"al\"", "\"nobody\"")),
            ),
        ),
        (
            400,
            "bad_query",
            request(
                addr,
                "POST",
                "/personalize",
                &[],
                Some(&personalize_body("").replace(SQL, "SELECT nope FROM NOWHERE")),
            ),
        ),
        (
            400,
            "bad_problem",
            request(
                addr,
                "POST",
                "/personalize",
                &[],
                Some(&personalize_body("").replace("\"p2\"", "\"p9\"")),
            ),
        ),
        (
            400,
            "bad_algorithm",
            request(
                addr,
                "POST",
                "/personalize",
                &[],
                Some(&personalize_body("").replace("c_maxbounds", "quantum")),
            ),
        ),
        (
            400,
            "bad_deadline",
            request(
                addr,
                "POST",
                "/personalize",
                &[("x-cqp-deadline-ms", "soon")],
                Some(&personalize_body("")),
            ),
        ),
        (
            400,
            "bad_profile",
            request(addr, "POST", "/profiles/al", &[], Some("select nonsense")),
        ),
        (
            404,
            "unknown_user",
            request(addr, "GET", "/profiles/nobody", &[], None),
        ),
        (
            404,
            "not_found",
            request(addr, "GET", "/nope/nope", &[], None),
        ),
        (
            405,
            "method_not_allowed",
            request(addr, "DELETE", "/healthz", &[], None),
        ),
    ];
    for (status, code, resp) in cases {
        assert_eq!(resp.status, status, "{code}: {}", resp.body_text());
        assert_eq!(error_code(&resp), code);
    }

    // Protocol-level garbage is a 4xx too, never a 500.
    let resp = raw(addr, b"BLARG\r\n\r\n");
    assert_eq!(resp.status, 400);
    let resp = raw(addr, b"POST /personalize HTTP/1.1\r\n\r\n"); // no content-length
    assert_eq!(resp.status, 400);
    let oversized = format!(
        "POST /personalize HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        cqp_server::http::MAX_BODY_BYTES + 1
    );
    let resp = raw(addr, oversized.as_bytes());
    assert_eq!(resp.status, 413);
    let raw_cases: [(&[u8], &str); 6] = [
        (b"GET nopath HTTP/1.1\r\n\r\n", "bad_request"),
        (b"GET / HTTP/9.9\r\n\r\n", "bad_request"),
        (
            b"POST /personalize HTTP/1.1\r\ncontent-length: nan\r\n\r\n",
            "bad_request",
        ),
        (
            b"GET /healthz HTTP/1.1\r\nbroken header line\r\n\r\n",
            "bad_request",
        ),
        (
            b"POST /profiles/al HTTP/1.1\r\nconnection: close\r\ncontent-length: 7\r\n\r\nnot the",
            "bad_profile",
        ),
        (b"\x00\x01\x02\x03\r\n\r\n", "bad_request"),
    ];
    for (payload, code) in raw_cases {
        let resp = raw(addr, payload);
        assert_eq!(resp.status, 400, "{:?}", String::from_utf8_lossy(payload));
        assert_eq!(error_code(&resp), code);
    }

    // After all that abuse: still healthy, nothing panicked, no 500 was
    // ever minted.
    let resp = request(addr, "GET", "/healthz", &[], None);
    assert_eq!(resp.status, 200);
    assert_eq!(handle.state().driver.submit_panics(), 0);
    let resp = request(
        addr,
        "POST",
        "/personalize",
        &[],
        Some(&personalize_body("")),
    );
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    handle.stop();
}

#[test]
fn metrics_endpoint_reports_counters_and_top_k_depth_works() {
    let (_db, mut handle) = boot(ServerConfig::default());
    let addr = handle.addr();
    assert_eq!(
        request(addr, "POST", "/profiles/al", &[], Some(PROFILE_WIRE)).status,
        200
    );
    // Personalize at depth 1: only the highest-doi selection survives, so
    // the answer can never select more preferences than a full-depth run.
    let shallow = request(
        addr,
        "POST",
        "/personalize",
        &[],
        Some(&personalize_body(",\"top_k\":1")),
    );
    assert_eq!(shallow.status, 200, "{}", shallow.body_text());
    let full = request(
        addr,
        "POST",
        "/personalize",
        &[],
        Some(&personalize_body("")),
    );
    assert_eq!(full.status, 200);
    let count = |resp: &ClientResponse| {
        json::parse(&resp.body_text())
            .unwrap()
            .get("solution")
            .and_then(|s| s.get("prefs"))
            .and_then(Json::as_array)
            .map(<[Json]>::len)
            .unwrap()
    };
    assert!(count(&shallow) <= count(&full));

    let resp = request(addr, "GET", "/metrics", &[], None);
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8"),
        "Prometheus exposition content type"
    );
    let text = resp.body_text();
    // Exact serving-tier counters.
    assert_eq!(prom_value(&text, "cqp_admission_admitted_total"), Some(2.0));
    assert_eq!(prom_value(&text, "cqp_submit_panics_total"), Some(0.0));
    assert!(prom_value(&text, "cqp_profile_upserts_total") >= Some(1.0));
    assert_eq!(prom_value(&text, "cqp_admission_queue_depth"), Some(0.0));
    assert!(prom_value(&text, "cqp_connections_active").is_some());
    // Labeled request accounting: both personalize calls were clean 200s.
    assert_eq!(
        prom_value(
            &text,
            "cqp_requests_total{endpoint=\"personalize\",outcome=\"ok\"}"
        ),
        Some(2.0)
    );
    assert!(text.contains("algorithm=\"c_maxbounds\""));
    // SLO gauges exist and the window saw both requests.
    assert_eq!(prom_value(&text, "cqp_slo_window_requests"), Some(2.0));
    assert!(prom_value(&text, "cqp_slo_burn_ratio").is_some());
    // The solver's own registry flows through the same document, with the
    // latency histogram as a full le-bucket family.
    assert!(text.contains("# TYPE cqp_server_latency_us histogram"));
    assert_eq!(prom_value(&text, "cqp_server_latency_us_count"), Some(2.0));
    // Every sample line is well-formed `name[{labels}] value`.
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (_, value) = line.rsplit_once(' ').expect("sample line");
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "bad sample: {line}"
        );
    }
    handle.stop();
}

/// The value of the first sample line starting with `prefix` (a bare
/// metric name or a full `name{labels}` form).
fn prom_value(text: &str, prefix: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| {
            l.strip_prefix(prefix)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}
