//! `serve_open`: the `shared_warm` articles sent as raw `AGGV` frames over
//! one loopback TCP connection to an in-process `VerifyServer` whose
//! `StreamingVerifier` has two workers. The only workload that crosses
//! `core::stream` (intake, queue wait, single-flight between concurrent
//! documents) and `server` (frame codec, connection threads, poll loops);
//! its distance from `shared_warm` on the same kind of documents *is* the
//! front-end's cost.
//!
//! Load comes from this thread (the sender) and one reader thread, nothing
//! more. Phase 1 is an open loop with **paced** arrivals — one request
//! every [`INTERVAL`], about half of the two-worker capacity — timed from
//! the instant each request was *due*, so a stalled generator or server
//! charges its delay to every request behind it. The article list is sent
//! for several laps on the same schedule and an article's latency is the
//! median over its laps: a burst of interference lasting seconds (seen on
//! the 2-vCPU box: one lap's 32-request stretch at 58 ms against 45 ms for
//! the same articles a lap later) moved a pooled median by up to 25%
//! between runs of one seed, and per-article medians by under 4%.
//! (Poisson arrivals were tried first and rejected: queueing amplifies
//! service jitter into a 13% run-to-run spread. So was pacing at a third
//! of capacity: cores idle between requests, every document starts on a
//! cold one, and the median came out higher and twice as noisy as at half
//! capacity.) Phase 2 is a closed loop with [`IN_FLIGHT`] documents
//! outstanding and gives the saturation throughput.

use crate::closed::{beside, SETUP_OPS};
use crate::inputs::SharedCase;
use crate::measure::{cpu_ms, lower_median, ms, percentile, OpSeries};
use crate::outcome::{core_layers, fingerprint, repeat_setup, Outcome, WARMUP_DOCS};
use crate::replay::Engine;
use crate::trace::{mean, Tracer};
use agg_core::report::wire;
use agg_core::{
    AggChecker, CheckedClaim, CheckerConfig, ReportStatus, RunStats, StreamConfig,
    StreamingVerifier,
};
use agg_server::protocol::{self, FrameReader, Opcode, ReadOutcome};
use agg_server::{ServerConfig, VerifyServer};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const NAMESPACE: &str = "bench";
const WORKERS: usize = 2;
/// Open-loop arrival interval: 24 documents per second.
const INTERVAL: Duration = Duration::from_micros(41_667);
/// Paced laps over the article list, at least: an article's latency is
/// the lower median over its laps.
const MIN_PACED_LAPS: usize = 2;
/// Documents outstanding in the closed-loop phase.
const IN_FLIGHT: usize = 4;
/// Closed-loop laps over the article list. The phase is an epilogue of
/// fixed size on top of `--seconds`, which the open loop fills.
const SATURATING_LAPS: usize = 2;
/// Completions per window of the closed loop. A window is to throughput
/// what an operation is to latency: its time is the lower median over the
/// laps, and `docs_per_s` is documents over the sum of those.
const WINDOW: usize = 32;
/// An open-loop phase whose generator ran later than this at the 90th
/// percentile did not offer the schedule it claims.
const MAX_LAG_P90_MS: f64 = 1.0;
/// How often an invalid open-loop phase is run again before giving up.
const PHASE1_ATTEMPTS: usize = 3;

/// One frame as the reader thread saw it arrive.
struct Event {
    at: Instant,
    opcode: u8,
    payload: Vec<u8>,
}

impl Event {
    /// Every server→client frame but `Error` starts with the document id.
    fn doc(&self) -> Option<u64> {
        let id: [u8; 8] = self.payload.get(..8)?.try_into().ok()?;
        Some(u64::from_le_bytes(id))
    }

    fn settles(&self) -> bool {
        self.opcode == Opcode::Complete as u8 || self.opcode == Opcode::Rejected as u8
    }
}

/// A raw-frame session: this thread writes, a reader thread timestamps
/// what comes back.
struct Client {
    stream: TcpStream,
    events: mpsc::Receiver<Event>,
    reader: Option<JoinHandle<()>>,
    next_doc: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let mut stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        protocol::write_frame(&mut stream, Opcode::Hello, &protocol::hello(NAMESPACE))
            .expect("send Hello");
        let mut frames = FrameReader::new();
        let hello_ok = loop {
            match frames.read_from(&mut stream).expect("read HelloOk") {
                ReadOutcome::Frame(frame) => break frame,
                ReadOutcome::Eof => panic!("server closed during the handshake"),
                ReadOutcome::Idle => {}
            }
        };
        assert_eq!(hello_ok.opcode, Opcode::HelloOk as u8, "handshake refused");
        let (tx, events) = mpsc::channel();
        let mut read_half = stream.try_clone().expect("clone the socket for the reader");
        let reader = std::thread::Builder::new()
            .name("bench-reader".into())
            .spawn(move || loop {
                match frames.read_from(&mut read_half) {
                    Ok(ReadOutcome::Frame(frame)) => {
                        let event = Event {
                            at: Instant::now(),
                            opcode: frame.opcode,
                            payload: frame.payload,
                        };
                        if tx.send(event).is_err() {
                            return;
                        }
                    }
                    Ok(ReadOutcome::Idle) => {}
                    Ok(ReadOutcome::Eof) | Err(_) => return,
                }
            })
            .expect("spawn the reader thread");
        Client {
            stream,
            events,
            reader: Some(reader),
            next_doc: 0,
        }
    }

    fn submit(&mut self, text: &str) -> u64 {
        self.next_doc += 1;
        protocol::write_frame(
            &mut self.stream,
            Opcode::Submit,
            &protocol::submit(self.next_doc, 0, text),
        )
        .expect("send Submit");
        self.next_doc
    }

    fn next_event(&self) -> Event {
        self.events
            .recv_timeout(Duration::from_secs(60))
            .expect("the server answers within a minute")
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Goodbye makes the server close once nothing is outstanding; the
        // reader thread ends on that EOF.
        let _ = protocol::write_frame(&mut self.stream, Opcode::Goodbye, &[]);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Server and session; the session closes first.
struct Serving {
    client: Client,
    server: VerifyServer,
}

fn start(case: &SharedCase, cfg: &CheckerConfig) -> Serving {
    let checker = AggChecker::new(case.load(), cfg.clone()).expect("checker over the table");
    let service = StreamingVerifier::from_checker(
        checker,
        StreamConfig {
            workers: WORKERS,
            ..StreamConfig::default()
        },
    )
    .expect("streaming service");
    let server = VerifyServer::start(
        "127.0.0.1:0",
        vec![(NAMESPACE.to_string(), service)],
        ServerConfig::default(),
    )
    .expect("bind a loopback port");
    let mut client = Client::connect(server.local_addr());
    for article in case.articles.iter().take(WARMUP_DOCS) {
        let doc = client.submit(&article.text);
        loop {
            let event = client.next_event();
            if event.settles() && event.doc() == Some(doc) {
                break;
            }
        }
    }
    Serving { client, server }
}

/// One request of a phase: which article, when it was due and sent, and
/// every frame that came back for it.
struct Request {
    article: usize,
    due: Instant,
    send_start: Instant,
    sent: Instant,
    frames: Vec<Event>,
}

impl Request {
    fn settled_at(&self) -> Option<Instant> {
        self.frames.iter().find(|e| e.settles()).map(|e| e.at)
    }

    fn latency_ms(&self) -> f64 {
        ms(self
            .settled_at()
            .expect("phase ends when every request settled")
            .duration_since(self.due))
    }
}

/// Sleep until shortly before `due`, then spin: `thread::sleep` alone
/// overshoots by the timer slack.
fn wait_until(due: Instant) {
    let margin = Duration::from_micros(300);
    if let Some(left) = due.checked_duration_since(Instant::now()) {
        if left > margin {
            std::thread::sleep(left - margin);
        }
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn file_event(
    requests: &mut [Request],
    by_doc: &HashMap<u64, usize>,
    event: Event,
) -> Option<usize> {
    assert_ne!(
        event.opcode,
        Opcode::Error as u8,
        "server reported a connection-level error"
    );
    let idx = *by_doc.get(&event.doc()?)?;
    let settled = event.settles();
    requests[idx].frames.push(event);
    settled.then_some(idx)
}

/// Open loop: one request every [`INTERVAL`], each article once per lap.
fn paced(client: &mut Client, case: &SharedCase, laps: usize) -> Vec<Request> {
    let total = case.articles.len() * laps;
    let mut requests: Vec<Request> = Vec::with_capacity(total);
    let mut by_doc = HashMap::with_capacity(total);
    let t0 = Instant::now() + Duration::from_millis(20);
    for i in 0..total {
        let article = i % case.articles.len();
        let due = t0 + INTERVAL * i as u32;
        wait_until(due);
        let send_start = Instant::now();
        let doc = client.submit(&case.articles[article].text);
        by_doc.insert(doc, i);
        requests.push(Request {
            article,
            due,
            send_start,
            sent: Instant::now(),
            frames: Vec::new(),
        });
    }
    let mut settled = 0;
    // Frames queued up while this thread was pacing; the rest as they come.
    while settled < total {
        let event = client.next_event();
        if file_event(&mut requests, &by_doc, event).is_some() {
            settled += 1;
        }
    }
    requests
}

/// Closed loop: `laps` laps over the articles with [`IN_FLIGHT`]
/// outstanding, without a pause between laps. Returns the requests and
/// how long each successive window of [`WINDOW`] completions took, in ms.
fn saturating(client: &mut Client, case: &SharedCase, laps: usize) -> (Vec<Request>, Vec<f64>) {
    let total = case.articles.len() * laps;
    let mut requests: Vec<Request> = Vec::with_capacity(total);
    let mut by_doc = HashMap::with_capacity(total);
    let mut window_ms = Vec::with_capacity(total / WINDOW);
    let mut window_started = Instant::now();
    let (mut next, mut settled) = (0, 0);
    while settled < total {
        while next < total && next - settled < IN_FLIGHT {
            let send_start = Instant::now();
            let article = next % case.articles.len();
            let doc = client.submit(&case.articles[article].text);
            by_doc.insert(doc, next);
            requests.push(Request {
                article,
                due: send_start,
                send_start,
                sent: Instant::now(),
                frames: Vec::new(),
            });
            next += 1;
        }
        let event = client.next_event();
        let at = event.at;
        if file_event(&mut requests, &by_doc, event).is_some() {
            settled += 1;
            if settled % WINDOW == 0 {
                window_ms.push(ms(at.duration_since(window_started)));
                window_started = at;
            }
        }
    }
    (requests, window_ms)
}

/// Decoded answer to one request.
struct Answer {
    claims: Vec<(u32, CheckedClaim)>,
    settled: Option<(ReportStatus, RunStats)>,
    rejected: Option<String>,
}

fn decode(request: &Request) -> Answer {
    let mut answer = Answer {
        claims: Vec::new(),
        settled: None,
        rejected: None,
    };
    for event in &request.frames {
        match Opcode::from_u8(event.opcode) {
            Some(Opcode::ClaimVerdict) => {
                let (_, index, claim) =
                    protocol::parse_claim_verdict(&event.payload).expect("ClaimVerdict decodes");
                answer.claims.push((index, claim));
            }
            Some(Opcode::Complete) => {
                let (_, status, stats) =
                    protocol::parse_complete(&event.payload).expect("Complete decodes");
                answer.settled = Some((status, stats));
            }
            Some(Opcode::Rejected) => {
                let (_, code, message) =
                    protocol::parse_rejected(&event.payload).expect("Rejected decodes");
                answer.rejected = Some(format!("code {code}: {message}"));
            }
            _ => {}
        }
    }
    answer.claims.sort_by_key(|(index, _)| *index);
    answer
}

/// Count a phase's requests: rejected, partial, or reassembling to a
/// report whose fingerprint differs from the reference, all fail. Unless
/// `keep_payloads`, the checked frames then shrink to their timestamps, so
/// the benchmark's own buffers stay out of `peak_rss_mb`.
fn check_phase(
    out: &mut Outcome,
    phase: &str,
    requests: &mut [Request],
    reference: &[Option<u64>],
    keep_payloads: bool,
) {
    for (i, request) in requests.iter_mut().enumerate() {
        let answer = decode(request);
        if !keep_payloads {
            for event in &mut request.frames {
                event.payload = Vec::new();
            }
        }
        let result = match (answer.rejected, answer.settled) {
            (Some(why), _) => Err(agg_core::CheckerError::Stream(format!("rejected, {why}"))),
            (None, None) => Err(agg_core::CheckerError::Stream("never settled".into())),
            (None, Some((status, stats))) => Ok(wire::assemble_report(
                answer.claims.into_iter().map(|(_, c)| c).collect(),
                stats,
                status,
            )),
        };
        let what = || format!("serve_open {phase} request {i} (doc {})", request.article);
        out.tally.check(what, &result, reference[request.article]);
    }
}

/// Why the generator did not offer the schedule it claims, if it did not.
fn phase1_defect(requests: &[Request]) -> (f64, Option<String>) {
    let lags: Vec<f64> = requests
        .iter()
        .map(|r| ms(r.send_start.duration_since(r.due)))
        .collect();
    let lag_p90 = percentile(&lags, 0.9);
    if lag_p90 > MAX_LAG_P90_MS {
        return (
            lag_p90,
            Some(format!(
                "generator lag p90 {lag_p90:.3} ms exceeds {MAX_LAG_P90_MS} ms"
            )),
        );
    }
    // Backlog at each send: earlier requests not yet settled when this
    // one was due. An offered load below capacity keeps it flat.
    let settled: Vec<Option<Instant>> = requests.iter().map(Request::settled_at).collect();
    let backlog: Vec<f64> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            settled[..i]
                .iter()
                .filter(|at| at.is_none_or(|at| at > r.due))
                .count() as f64
        })
        .collect();
    let quarter = (requests.len() / 4).max(1);
    let first = mean(&backlog[..quarter]);
    let last = mean(&backlog[backlog.len() - quarter..]);
    if last > first + 2.0 {
        return (
            lag_p90,
            Some(format!(
                "backlog grew from {first:.1} to {last:.1} requests"
            )),
        );
    }
    (lag_p90, None)
}

pub fn serve_open(case: &SharedCase, seconds: f64, trace: bool) -> Outcome {
    let cfg = CheckerConfig::default();
    let mut out = Outcome::new();
    let (setup_s, mut serving) = repeat_setup(trace, || start(case, &cfg));
    out.setup_s = setup_s;
    let service = serving
        .server
        .namespace(NAMESPACE)
        .expect("the namespace the server was started with");

    // First touch of every document through the solo path of the served
    // checker: the reference, and the cache made resident.
    let n = case.articles.len();
    let mut reference: Vec<Option<u64>> = vec![None; n];
    let checker = service.checker();
    for (i, article) in case.articles.iter().enumerate() {
        let result = checker.check_text(&article.text);
        let what = || format!("serve_open doc {i} first touch");
        if let Some((report, fp)) = out.tally.check(what, &result, None) {
            reference[i] = Some(fp);
            out.accuracy.record(report, &article.truth);
        }
    }
    let cpu0 = cpu_ms();
    let mut sent = 0usize;

    // Phase 1 fills `--seconds` with paced laps.
    let lap_s = INTERVAL.as_secs_f64() * n as f64;
    // (A traced run splits one lap into stages instead of repeating it.)
    let laps = if trace {
        1
    } else {
        ((seconds / lap_s).round() as usize).max(MIN_PACED_LAPS)
    };
    let mut phase1 = Vec::new();
    let mut lag_p90 = 0.0;
    let (mut frames_before, mut waits_before) = (0, 0);
    for attempt in 1..=PHASE1_ATTEMPTS {
        frames_before = serving.server.stats().frames_out;
        waits_before = service.stats().singleflight_waits;
        phase1 = paced(&mut serving.client, case, laps);
        sent += phase1.len();
        check_phase(&mut out, "open loop", &mut phase1, &reference, trace);
        let defect;
        (lag_p90, defect) = phase1_defect(&phase1);
        match defect {
            None => {
                out.valid = Ok(());
                break;
            }
            Some(why) => {
                eprintln!("serve_open: open-loop attempt {attempt} invalid: {why}");
                out.valid = Err(why);
            }
        }
    }
    let frames_out = serving.server.stats().frames_out - frames_before;
    let singleflight_waits = service.stats().singleflight_waits - waits_before;
    out.op_ms = (0..n)
        .map(|article| {
            let over_laps: Vec<f64> = phase1
                .iter()
                .filter(|r| r.article == article)
                .map(Request::latency_ms)
                .collect();
            lower_median(&over_laps)
        })
        .collect();

    // Phase 2: saturation throughput. (A traced run reports none; one lap
    // keeps the phase exercised.)
    assert_eq!(n % WINDOW, 0, "windows tile a lap");
    let (mut requests, window_ms) = saturating(
        &mut serving.client,
        case,
        if trace { 1 } else { SATURATING_LAPS },
    );
    sent += requests.len();
    check_phase(&mut out, "closed loop", &mut requests, &reference, false);
    let windows = n / WINDOW;
    let mut per_window = OpSeries::new(windows);
    for (j, elapsed) in window_ms.iter().enumerate() {
        per_window.record(j % windows, *elapsed);
    }
    out.docs_per_s = n as f64 / (per_window.estimates().iter().sum::<f64>() / 1e3);
    out.cpu_ms_per_doc = (cpu_ms() - cpu0) / sent as f64;

    if trace {
        let mut tr = Tracer::new();
        wire_layers(
            &mut out,
            &mut tr,
            &phase1,
            frames_out,
            singleflight_waits,
            lag_p90,
        );
        let ticket_ms = stream_layers(&mut out, &mut tr, &service, case);
        // What the wire adds, article by article on the same schedule.
        let wire_ms: Vec<f64> = out
            .op_ms
            .iter()
            .zip(&ticket_ms)
            .map(|(c, t)| c - t)
            .collect();
        out.layers
            .insert("server.wire_ms_p50", percentile(&wire_ms, 0.5));

        // The core layers under the front-end: each document through the
        // served checker's solo path (the untraced base) and through the
        // replay, both over the resident cache.
        let (engine, setup) = Engine::for_case(case, &cfg, Some(checker.cache().clone()), tr.t0());
        let mut core = Tracer::starting_at(tr.t0());
        let mut solo_ms = Vec::with_capacity(n);
        for (i, article) in case.articles.iter().enumerate() {
            let mut report = None;
            let replay = || report = Some(engine.check_doc("doc", &article.text, &mut core, i));
            beside(i, Some(replay), || {
                let started = Instant::now();
                std::hint::black_box(
                    checker
                        .check_text(&article.text)
                        .expect("resident verification"),
                );
                solo_ms.push(ms(started.elapsed()));
            });
            let report = report.expect("the replay ran");
            if Some(fingerprint(&report)) != reference[i] {
                out.tally.fail(format!(
                    "serve_open doc {i}: replay differs from check_text"
                ));
            }
        }
        core_layers(&core, mean(&solo_ms), &mut out.layers);
        // Request spans keep their ids; document replays follow them.
        tr.absorb(core, phase1.len() as u32);
        tr.absorb(setup, SETUP_OPS);
        out.tracer = Some(tr);
    }
    drop(serving.client);
    serving.server.shutdown();
    out
}

/// Client-side spans of the open-loop requests and what the wire costs.
fn wire_layers(
    out: &mut Outcome,
    tr: &mut Tracer,
    requests: &[Request],
    frames_out: u64,
    singleflight_waits: u64,
    lag_p90: f64,
) {
    let first =
        |r: &Request, op: Opcode| r.frames.iter().find(|e| e.opcode == op as u8).map(|e| e.at);
    for (i, r) in requests.iter().enumerate() {
        let settled = r.settled_at().expect("every request settled");
        let root = tr.record("request", i, None, r.due, settled);
        tr.record("client.send", i, Some(root), r.due, r.sent);
        let accepted = first(r, Opcode::Accepted).unwrap_or(r.sent);
        tr.record("server.accept", i, Some(root), r.sent, accepted);
        let verdict = first(r, Opcode::ClaimVerdict).unwrap_or(settled);
        tr.record("core.stream.verify", i, Some(root), accepted, verdict);
        tr.record("server.stream_out", i, Some(root), verdict, settled);
    }
    out.layers.insert("bench.sched_lag_ms_p90", lag_p90);
    out.layers.insert(
        "server.frames_out_per_doc",
        frames_out as f64 / requests.len() as f64,
    );
    out.layers
        .insert("core.stream.singleflight_waits", singleflight_waits as f64);

    // Codec cost of one document's exchange, from the frames it produced:
    // re-encode them all (with the Submit that asked for them), then decode
    // the bytes again.
    let mut encode_us = Vec::with_capacity(requests.len());
    let mut decode_us = Vec::with_capacity(requests.len());
    for r in requests {
        let answer = decode(r);
        let Some((status, stats)) = answer.settled else {
            continue;
        };
        let started = Instant::now();
        let mut bytes = Vec::new();
        let mut put = |op: Opcode, payload: Vec<u8>| {
            protocol::write_frame(&mut bytes, op, &payload).expect("write to a Vec")
        };
        put(Opcode::Submit, protocol::submit(1, 0, ""));
        put(Opcode::Accepted, protocol::doc_id(1));
        for e in r
            .frames
            .iter()
            .filter(|e| e.opcode == Opcode::Progress as u8)
        {
            let (_, wave, last, claims) =
                protocol::parse_progress(&e.payload).expect("Progress decodes");
            put(Opcode::Progress, protocol::progress(1, wave, last, &claims));
        }
        for (index, claim) in &answer.claims {
            put(
                Opcode::ClaimVerdict,
                protocol::claim_verdict(1, *index, claim),
            );
        }
        put(Opcode::Complete, protocol::complete(1, status, &stats));
        encode_us.push(started.elapsed().as_secs_f64() * 1e6);

        let started = Instant::now();
        let mut frames = FrameReader::with_buffered(bytes);
        while let Ok(ReadOutcome::Frame(frame)) = frames.read_from(&mut std::io::empty()) {
            match Opcode::from_u8(frame.opcode) {
                Some(Opcode::Submit) => drop(protocol::parse_submit(&frame.payload)),
                Some(Opcode::Accepted) => drop(protocol::parse_doc_id(&frame.payload)),
                Some(Opcode::Progress) => drop(protocol::parse_progress(&frame.payload)),
                Some(Opcode::ClaimVerdict) => drop(protocol::parse_claim_verdict(&frame.payload)),
                Some(Opcode::Complete) => drop(protocol::parse_complete(&frame.payload)),
                _ => {}
            }
        }
        decode_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    // The Submit above carries no text; its real payload is a memcpy of
    // the article either way.
    out.layers
        .insert("server.protocol.encode_us_per_doc", mean(&encode_us));
    out.layers
        .insert("server.protocol.decode_us_per_doc", mean(&decode_us));
}

/// One lap of the same paced schedule against
/// `StreamingVerifier::submit_text` in-process: ticket latency without the
/// wire (returned per article), split into queue wait and service time.
fn stream_layers(
    out: &mut Outcome,
    tr: &mut Tracer,
    service: &StreamingVerifier,
    case: &SharedCase,
) -> Vec<f64> {
    let total = case.articles.len();
    let t0 = Instant::now() + Duration::from_millis(20);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for i in 0..total {
            let due = t0 + INTERVAL * i as u32;
            wait_until(due);
            let ticket = service
                .submit_text(&case.articles[i].text)
                .expect("intake has room at a third of capacity");
            let tx = tx.clone();
            // One waiter per ticket, so each settlement is seen when it
            // happens and not when an earlier ticket lets go.
            scope.spawn(move || {
                let report = ticket.wait();
                let _ = tx.send((i, due, Instant::now(), report));
            });
        }
    });
    drop(tx);
    let mut ticket_ms = vec![0.0; total];
    let mut service_ms = Vec::with_capacity(total);
    let mut queue_ms = Vec::with_capacity(total);
    for (i, due, settled, report) in rx {
        let report = report.expect("in-process verification");
        let latency = ms(settled.duration_since(due));
        let service = ms(report.stats.elapsed);
        let root = tr.record("ticket", 100_000 + i, None, due, settled);
        tr.record(
            "core.stream.service",
            100_000 + i,
            Some(root),
            settled - report.stats.elapsed,
            settled,
        );
        ticket_ms[i] = latency;
        service_ms.push(service);
        queue_ms.push(latency - service);
    }
    out.layers
        .insert("core.stream.queue_wait_ms_p50", percentile(&queue_ms, 0.5));
    out.layers
        .insert("core.stream.queue_wait_ms_p90", percentile(&queue_ms, 0.9));
    out.layers
        .insert("core.stream.service_ms_p50", percentile(&service_ms, 0.5));
    ticket_ms
}
