//! Loopback end-to-end tests for the networked verification server:
//! the binary protocol streams frame-exact reports (fingerprint-equal
//! to solo runs at any worker count), sessions are served fairly from
//! per-client lanes, and every failure path — malformed frames,
//! mid-stream disconnects — settles cleanly with nothing leaked.

use aggchecker::core::{ClaimProgress, ProgressObserver, SubmitOptions};
use aggchecker::corpus::{generate_multi_doc_case, CorpusSpec};
use aggchecker::relational::{Database, Table};
use aggchecker::server::client::{BinaryClient, ClientError};
use aggchecker::server::protocol::{self, errcode, FrameReader, Opcode, ReadOutcome};
use aggchecker::server::{json, ServerConfig, VerifyServer};
use aggchecker::{
    AggChecker, CheckerConfig, IntakePolicy, StreamConfig, StreamingVerifier, Ticket,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Fast-polling server config so tests never wait on the 30 s idle
/// default.
fn test_config() -> ServerConfig {
    ServerConfig {
        idle_timeout: Duration::from_secs(10),
        poll_interval: Duration::from_millis(5),
    }
}

/// An observer that parks the (sole) worker inside the first evaluation
/// wave until released — the deterministic way to hold a service busy
/// while a test stages queue states.
#[derive(Default)]
struct Gate {
    entered: Mutex<bool>,
    entered_cv: Condvar,
    released: Mutex<bool>,
    released_cv: Condvar,
}

impl Gate {
    fn wait_entered(&self) {
        let mut entered = self.entered.lock().unwrap();
        while !*entered {
            entered = self.entered_cv.wait(entered).unwrap();
        }
    }

    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.released_cv.notify_all();
    }
}

impl ProgressObserver for Gate {
    fn wave_complete(&self, _wave: usize, _last: bool, _claims: &[ClaimProgress]) {
        {
            let mut entered = self.entered.lock().unwrap();
            *entered = true;
            self.entered_cv.notify_all();
        }
        let mut released = self.released.lock().unwrap();
        while !*released {
            released = self.released_cv.wait(released).unwrap();
        }
    }
}

/// Tiny single-table database plus a one-claim article, for tests where
/// verification content is irrelevant.
fn small_db() -> (Database, String) {
    let table = Table::from_columns(
        "sales",
        vec![("region", vec!["west".into(), "west".into(), "east".into()])],
    )
    .unwrap();
    let mut db = Database::new("demo");
    db.add_table(table);
    let article = "<p>There were two sales in the west region.</p>".to_string();
    (db, article)
}

/// Submit a gate document in-process (lane 0) on the server's service,
/// pinning its single worker; returns the ticket to await after
/// `gate.release()`.
fn pin_worker(service: &StreamingVerifier, article: &str, gate: &Arc<Gate>) -> Ticket {
    let ticket = service
        .submit_text_with(
            article,
            SubmitOptions {
                deadline: None,
                lane: 0,
                observer: Some(Arc::clone(gate) as Arc<dyn ProgressObserver>),
            },
        )
        .expect("gate submission accepted");
    gate.wait_entered();
    ticket
}

/// A complete report streamed over the wire reassembles bit-identically
/// to a solo in-process run — at every worker count — and each document
/// pushed at least one incremental progress frame before completing.
#[test]
fn wire_reports_match_solo_fingerprints_at_any_worker_count() {
    let case = generate_multi_doc_case(&CorpusSpec::default(), 1, 3);
    let cfg = CheckerConfig::default();
    let checker = AggChecker::new(case.db.clone(), cfg.clone()).unwrap();
    let expected: Vec<String> = case
        .articles
        .iter()
        .map(|article| checker.check_text(article).unwrap().content_fingerprint())
        .collect();

    for workers in [1usize, 2, 4, 8] {
        let service = StreamingVerifier::new(
            case.db.clone(),
            cfg.clone(),
            StreamConfig {
                workers,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        let server = VerifyServer::start(
            "127.0.0.1:0",
            vec![("case".to_string(), service)],
            test_config(),
        )
        .unwrap();
        let mut client = BinaryClient::connect(server.local_addr(), "case").unwrap();
        let docs: Vec<u64> = case
            .articles
            .iter()
            .map(|article| client.submit(article, None).unwrap())
            .collect();
        for (doc, expected) in docs.iter().zip(&expected) {
            let report = client.await_report(*doc).unwrap();
            assert_eq!(
                &report.content_fingerprint(),
                expected,
                "{workers} workers: wire-reassembled report drifted from solo"
            );
            assert!(
                client.progress_waves(*doc) >= 1,
                "{workers} workers: no incremental progress frame arrived"
            );
        }
        let wire_stats = client.stats().unwrap();
        assert_eq!(wire_stats.stream.completed, case.articles.len() as u64);
        client.goodbye().unwrap();
        let service = server.namespace("case").unwrap();
        server.shutdown();
        assert_eq!(service.in_flight(), 0, "{workers} workers: in-flight leak");
        assert_eq!(service.queue_depth(), 0, "{workers} workers: queue leak");
    }
}

/// One HTTP exchange on a fresh connection (`Connection: close`), raw
/// over TCP — the tests deliberately avoid the crate's own client types
/// for the HTTP side so the bytes on the wire are the contract.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, json::Json) {
    let mut sock = TcpStream::connect(addr).unwrap();
    write!(
        sock,
        "{method} {path} HTTP/1.1\r\nHost: verifyd\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    sock.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let json_body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default();
    (
        status,
        json::parse(json_body).expect("response body is JSON"),
    )
}

/// The HTTP JSON API: submit → poll → report; cancel settles a queued
/// document as `cancelled`; stats expose both server counters and
/// per-namespace stream counters; errors use the documented statuses.
#[test]
fn http_api_submit_poll_cancel_stats() {
    let (db, article) = small_db();
    let service = StreamingVerifier::new(
        db.clone(),
        CheckerConfig::default(),
        StreamConfig {
            workers: 1,
            ..StreamConfig::default()
        },
    )
    .unwrap();
    let server = VerifyServer::start(
        "127.0.0.1:0",
        vec![("demo".to_string(), service)],
        test_config(),
    )
    .unwrap();
    let addr = server.local_addr();
    let expected = AggChecker::new(db, CheckerConfig::default())
        .unwrap()
        .check_text(&article)
        .unwrap()
        .content_fingerprint();

    // Pin the single worker so the next submission stays queued.
    let gate = Arc::new(Gate::default());
    let service = server.namespace("demo").unwrap();
    let gate_ticket = pin_worker(&service, &article, &gate);

    // Submit B (queued behind the gate), then cancel it: determinism by
    // construction — B cannot start while the gate holds the worker.
    let (status, accepted) = http(
        addr,
        "POST",
        "/v1/documents",
        &format!("{{\"text\":\"{}\"}}", json::escape(&article)),
    );
    assert_eq!(status, 202);
    let doc_b = accepted.get("id").and_then(json::Json::as_u64).unwrap();
    assert_eq!(
        accepted.get("status").and_then(json::Json::as_str),
        Some("pending")
    );
    let (status, polled) = http(addr, "GET", &format!("/v1/documents/{doc_b}"), "");
    assert_eq!(status, 200);
    assert_eq!(
        polled.get("status").and_then(json::Json::as_str),
        Some("pending")
    );
    let (status, cancelled) = http(addr, "POST", &format!("/v1/documents/{doc_b}/cancel"), "");
    assert_eq!(status, 200);
    assert_eq!(cancelled.get("cancelled"), Some(&json::Json::Bool(true)));
    let (_, polled) = http(addr, "GET", &format!("/v1/documents/{doc_b}"), "");
    assert_eq!(
        polled.get("status").and_then(json::Json::as_str),
        Some("cancelled"),
        "a queued document cancels deterministically"
    );

    gate.release();
    gate_ticket.wait().unwrap();

    // Happy path: submit, poll to completion, fingerprint matches solo.
    let (status, accepted) = http(
        addr,
        "POST",
        "/v1/documents",
        &format!(
            "{{\"text\":\"{}\",\"namespace\":\"demo\"}}",
            json::escape(&article)
        ),
    );
    assert_eq!(status, 202);
    let doc_c = accepted.get("id").and_then(json::Json::as_u64).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let report = loop {
        let (_, polled) = http(addr, "GET", &format!("/v1/documents/{doc_c}"), "");
        match polled.get("status").and_then(json::Json::as_str) {
            Some("pending") => {
                assert!(Instant::now() < deadline, "document never completed");
                std::thread::sleep(Duration::from_millis(10));
            }
            Some("complete") => break polled,
            other => panic!("unexpected status {other:?}"),
        }
    };
    assert_eq!(
        report.get("fingerprint").and_then(json::Json::as_str),
        Some(expected.as_str()),
        "HTTP-reported fingerprint drifted from solo"
    );
    match report.get("claims") {
        Some(json::Json::Arr(claims)) => assert!(!claims.is_empty()),
        other => panic!("expected claims array, got {other:?}"),
    }

    // Error contract: bad JSON, missing text, unknown namespace/document.
    let (status, _) = http(addr, "POST", "/v1/documents", "{not json");
    assert_eq!(status, 400);
    let (status, _) = http(addr, "POST", "/v1/documents", "{\"deadline_ms\":5}");
    assert_eq!(status, 400);
    // Hostile nesting, far under the request-size ceiling: a 400 from the
    // parser's depth limit, not a stack overflow that takes the process
    // (and every tenant) down — the stats request below must still answer.
    let (status, _) = http(addr, "POST", "/v1/documents", &"[".repeat(200_000));
    assert_eq!(status, 400);
    let (status, _) = http(
        addr,
        "POST",
        "/v1/documents",
        "{\"text\":\"x\",\"namespace\":\"nope\"}",
    );
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/v1/documents/999999", "");
    assert_eq!(status, 404);

    // Stats: server counters plus this namespace's stream counters.
    let (status, stats) = http(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert!(
        stats
            .get("connections")
            .and_then(json::Json::as_u64)
            .unwrap()
            >= 1
    );
    let demo = stats.get("namespaces").and_then(|n| n.get("demo")).unwrap();
    assert_eq!(demo.get("cancelled").and_then(json::Json::as_u64), Some(1));
    assert!(demo.get("completed").and_then(json::Json::as_u64).unwrap() >= 2);

    server.shutdown();
    assert_eq!(service.in_flight(), 0);
}

/// Two binary sessions compete for one worker: each session's
/// submissions ride its own intake lane, a flooding client is capped at
/// its lane capacity (excess rejected `FULL`), and the modest client is
/// admitted regardless — bounded skew by construction.
#[test]
fn competing_sessions_get_fair_lanes_and_bounded_skew() {
    let (db, article) = small_db();
    let service = StreamingVerifier::new(
        db,
        CheckerConfig::default(),
        StreamConfig {
            workers: 1,
            lane_capacity: 2,
            policy: IntakePolicy::Reject,
            ..StreamConfig::default()
        },
    )
    .unwrap();
    let server = VerifyServer::start(
        "127.0.0.1:0",
        vec![("demo".to_string(), service)],
        test_config(),
    )
    .unwrap();
    let service = server.namespace("demo").unwrap();
    let gate = Arc::new(Gate::default());
    let gate_ticket = pin_worker(&service, &article, &gate);

    let mut client_a = BinaryClient::connect(server.local_addr(), "demo").unwrap();
    let mut client_b = BinaryClient::connect(server.local_addr(), "demo").unwrap();

    // A floods 4 submissions against a lane capacity of 2: exactly the
    // first two are admitted, the rest shed with FULL.
    let mut admitted = Vec::new();
    let mut shed = 0;
    for _ in 0..4 {
        match client_a.submit(&article, None) {
            Ok(doc) => admitted.push(doc),
            Err(ClientError::Rejected { code, .. }) => {
                assert_eq!(code, errcode::FULL);
                shed += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(admitted.len(), 2, "lane capacity admits exactly 2");
    assert_eq!(shed, 2, "the flood beyond the lane is shed");

    // B's single submission is admitted despite A's flood: B has its
    // own lane.
    let doc_b = client_b
        .submit(&article, None)
        .expect("the modest client is never starved by the flood");

    // The service sees one queued lane per session, depths 2 and 1.
    let mut lanes = service.lane_depths();
    lanes.sort();
    assert_eq!(
        lanes,
        vec![(client_a.session(), 2usize), (client_b.session(), 1usize)],
        "per-session lanes with the staged depths"
    );

    gate.release();
    gate_ticket.wait().unwrap();
    for doc in admitted {
        let report = client_a.await_report(doc).unwrap();
        assert!(!report.claims.is_empty());
    }
    let report = client_b.await_report(doc_b).unwrap();
    assert!(!report.claims.is_empty());

    let stats = client_a.stats().unwrap();
    // Policy sheds never enqueue, so the service-side `rejected` counter
    // (tickets settled unrun) stays 0: the shed count is wire-visible
    // through the Rejected frames asserted above.
    assert_eq!(stats.stream.rejected, 0);
    assert_eq!(stats.stream.completed, 4); // gate + 2×A + B

    client_a.goodbye().unwrap();
    client_b.goodbye().unwrap();
    server.shutdown();
    assert_eq!(service.in_flight(), 0);
    assert_eq!(service.queue_depth(), 0);
}

/// A malformed frame (here: length 0) draws one `Error` frame with
/// `BAD_FRAME`, a counted malformed-frame, and a closed connection.
#[test]
fn malformed_frames_error_and_close() {
    let (db, _) = small_db();
    let service =
        StreamingVerifier::new(db, CheckerConfig::default(), StreamConfig::default()).unwrap();
    let server = VerifyServer::start(
        "127.0.0.1:0",
        vec![("demo".to_string(), service)],
        test_config(),
    )
    .unwrap();

    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    protocol::write_frame(&mut sock, Opcode::Hello, &protocol::hello("demo")).unwrap();
    let mut reader = FrameReader::new();
    let hello_ok = loop {
        if let ReadOutcome::Frame(f) = reader.read_from(&mut sock).unwrap() {
            break f;
        }
    };
    assert_eq!(hello_ok.opcode, Opcode::HelloOk as u8);

    // A zero-length frame is never legal.
    sock.write_all(&[0, 0, 0, 0]).unwrap();
    let error = loop {
        if let ReadOutcome::Frame(f) = reader.read_from(&mut sock).unwrap() {
            break f;
        }
    };
    assert_eq!(error.opcode, Opcode::Error as u8);
    let (code, _message) = protocol::parse_error(&error.payload).unwrap();
    assert_eq!(code, errcode::BAD_FRAME);
    // ... and the connection is closed behind it.
    assert!(matches!(
        reader.read_from(&mut sock).unwrap(),
        ReadOutcome::Eof
    ));

    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().open_connections > 0 {
        assert!(Instant::now() < deadline, "connection thread never exited");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.stats().malformed_frames, 1);
    server.shutdown();
}

/// Dropping a connection mid-stream cancels that session's outstanding
/// documents: the tickets settle (nothing blocks forever) and the
/// service drains to zero.
#[test]
fn mid_stream_disconnect_settles_outstanding_documents() {
    let (db, article) = small_db();
    let service = StreamingVerifier::new(
        db,
        CheckerConfig::default(),
        StreamConfig {
            workers: 1,
            ..StreamConfig::default()
        },
    )
    .unwrap();
    let server = VerifyServer::start(
        "127.0.0.1:0",
        vec![("demo".to_string(), service)],
        test_config(),
    )
    .unwrap();
    let service = server.namespace("demo").unwrap();
    let gate = Arc::new(Gate::default());
    let gate_ticket = pin_worker(&service, &article, &gate);

    // Accepted but queued behind the gate — outstanding at disconnect.
    let mut client = BinaryClient::connect(server.local_addr(), "demo").unwrap();
    client.submit(&article, None).unwrap();
    drop(client); // vanish without Goodbye

    // The server observes EOF and cancels the queued document.
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().cancelled < 1 {
        assert!(
            Instant::now() < deadline,
            "disconnected session's document never settled"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    gate.release();
    gate_ticket.wait().unwrap();
    server.shutdown();
    // The ticket settles before the worker releases its in-flight slot,
    // so poll to quiescence: a leak is a *permanently* nonzero gauge.
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.in_flight() != 0 {
        assert!(Instant::now() < deadline, "in-flight leak after disconnect");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(service.queue_depth(), 0, "queue leak after disconnect");
    let stats = service.stats();
    assert_eq!(stats.submitted, stats.settled(), "every ticket settled");
}

/// Hostile HTTP inputs stay bounded: a request that never ends its header
/// block is refused at the head cap instead of being buffered (and
/// re-searched) up to the body ceiling, and a long run of submissions
/// does not make the server remember every report forever. The server
/// keeps answering `/v1/stats` after each.
#[test]
fn hostile_http_inputs_are_bounded_and_stats_still_answers() {
    let (db, _) = small_db();
    let service =
        StreamingVerifier::new(db, CheckerConfig::default(), StreamConfig::default()).unwrap();
    let server = VerifyServer::start(
        "127.0.0.1:0",
        vec![("demo".to_string(), service)],
        test_config(),
    )
    .unwrap();
    let addr = server.local_addr();
    let stats_ok = || assert_eq!(http(addr, "GET", "/v1/stats", "").0, 200);

    // One byte past the 64 KiB head cap, no blank line anywhere: the
    // answer is an immediate 400, not a wait for the idle timeout.
    let started = Instant::now();
    let mut sock = TcpStream::connect(addr).unwrap();
    let mut flood = b"GET /".to_vec();
    flood.resize(64 * 1024 + 1, b'a');
    sock.write_all(&flood).unwrap();
    let mut response = String::new();
    sock.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(started.elapsed() < test_config().idle_timeout);
    stats_ok();

    // Ten more settled documents than the registry retains: the oldest
    // are forgotten, the newest still poll.
    // (One persistent connection: a request per document, the response
    // framed by its Content-Length.)
    let total = aggchecker::server::MAX_SETTLED_DOCS as u64 + 10;
    let mut sock = TcpStream::connect(addr).unwrap();
    let mut exchange = |method: &str, path: &str, body: &str| -> json::Json {
        // One segment per request: a piecemeal write stalls on Nagle.
        let request = format!(
            "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        sock.write_all(request.as_bytes()).unwrap();
        let mut head = Vec::new();
        while !head.ends_with(b"\r\n\r\n") {
            let mut byte = [0u8];
            sock.read_exact(&mut byte).unwrap();
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).unwrap();
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("framed response")
            .parse()
            .unwrap();
        let mut body = vec![0u8; length];
        sock.read_exact(&mut body).unwrap();
        json::parse(std::str::from_utf8(&body).unwrap()).unwrap()
    };
    for expected in 1..=total {
        let accepted = exchange("POST", "/v1/documents", "{\"text\":\"<p>No claims.</p>\"}");
        let id = accepted.get("id").and_then(json::Json::as_u64).unwrap();
        assert_eq!(id, expected);
        while exchange("GET", &format!("/v1/documents/{id}"), "")
            .get("status")
            .and_then(json::Json::as_str)
            == Some("pending")
        {}
    }
    let (status, body) = http(addr, "GET", "/v1/documents/1", "");
    assert_eq!(status, 404);
    assert_eq!(
        body.get("error").and_then(json::Json::as_str),
        Some("unknown document")
    );
    assert_eq!(
        http(addr, "GET", &format!("/v1/documents/{total}"), "").0,
        200
    );
    stats_ok();

    server.shutdown();
}
