//! The length-prefixed binary protocol — frame codec and payload
//! encoders/decoders shared by [`crate::VerifyServer`] and
//! [`crate::client::BinaryClient`].
//!
//! `docs/protocol.md` is the normative specification of everything in
//! this module; the unit tests below read it and fail if its opcode table
//! drifts from the [`Opcode`] enum, or its stats tables from the field
//! lists the codecs run on. The byte-level encodings of reports reuse
//! [`agg_core::report::wire`], so a report reassembled from frames is
//! bit-identical to the in-process original.
//!
//! # Frame layout
//!
//! ```text
//! [len: u32 LE] [opcode: u8] [payload: (len - 1) bytes]
//! ```
//!
//! `len` counts the opcode byte plus the payload, never itself; a frame
//! with `len == 0` or `len > MAX_FRAME_LEN` is malformed and closes the
//! connection. All integers are little-endian; all floats are IEEE-754
//! bit patterns ([`wire::put_f64`]); all strings are u32-length-prefixed
//! UTF-8 ([`wire::put_str`]).

use agg_core::report::wire::{self, Slot, StatField, WireError};
use agg_core::{CheckedClaim, Verdict};
use agg_core::{ClaimProgress, ReportStatus, RunStats, StreamStats};
use std::io::{self, Read, Write};

/// First four bytes of every `Hello` payload.
pub const MAGIC: [u8; 4] = *b"AGGV";

/// Protocol version spoken by this build (in `Hello` and `HelloOk`).
pub const VERSION: u8 = 1;

/// Upper bound on one frame's `len` field. Far above any real document
/// or report; a bigger length is a malformed (or hostile) frame.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Every frame type. Client→server opcodes are `0x01..=0x7F`;
/// server→client opcodes have the high bit set (`0x81..=0xFF`). The
/// table in `docs/protocol.md` must list exactly these names and values
/// (a unit test compares the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Client handshake: magic, version, namespace.
    Hello = 0x01,
    /// Submit one document for verification.
    Submit = 0x02,
    /// Cancel a previously submitted document.
    Cancel = 0x03,
    /// Request a service + server counter snapshot.
    Stats = 0x04,
    /// Graceful end of session: the server finishes streaming results
    /// for every outstanding document, then closes the connection.
    Goodbye = 0x05,
    /// Handshake accepted: version, session id.
    HelloOk = 0x81,
    /// A submission entered the intake queue.
    Accepted = 0x82,
    /// Incremental per-wave verdict snapshot (pushed as evaluation waves
    /// complete; advisory — the `ClaimVerdict`/`Complete` frames carry
    /// the authoritative result).
    Progress = 0x83,
    /// One settled claim of a finished document, every field exact.
    ClaimVerdict = 0x84,
    /// A document finished: terminal status plus its `RunStats`.
    Complete = 0x85,
    /// Counter snapshot reply.
    StatsOk = 0x86,
    /// A submission (or cancel) was not accepted; carries an error code.
    Rejected = 0x87,
    /// Connection-level failure; the server closes after sending it.
    Error = 0x8F,
}

impl Opcode {
    /// Every opcode, in wire-value order.
    pub const ALL: [Opcode; 13] = [
        Opcode::Hello,
        Opcode::Submit,
        Opcode::Cancel,
        Opcode::Stats,
        Opcode::Goodbye,
        Opcode::HelloOk,
        Opcode::Accepted,
        Opcode::Progress,
        Opcode::ClaimVerdict,
        Opcode::Complete,
        Opcode::StatsOk,
        Opcode::Rejected,
        Opcode::Error,
    ];

    /// Decode a wire byte.
    pub fn from_u8(op: u8) -> Option<Opcode> {
        Opcode::ALL.iter().copied().find(|o| *o as u8 == op)
    }

    /// The identifier `docs/protocol.md` tabulates.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Hello => "Hello",
            Opcode::Submit => "Submit",
            Opcode::Cancel => "Cancel",
            Opcode::Stats => "Stats",
            Opcode::Goodbye => "Goodbye",
            Opcode::HelloOk => "HelloOk",
            Opcode::Accepted => "Accepted",
            Opcode::Progress => "Progress",
            Opcode::ClaimVerdict => "ClaimVerdict",
            Opcode::Complete => "Complete",
            Opcode::StatsOk => "StatsOk",
            Opcode::Rejected => "Rejected",
            Opcode::Error => "Error",
        }
    }
}

/// Error codes carried by `Rejected` and `Error` frames (also tabulated
/// in `docs/protocol.md`).
pub mod errcode {
    /// Intake queue (or the client's lane) is at capacity.
    pub const FULL: u8 = 1;
    /// The service is closed or draining; no new submissions.
    pub const CLOSED: u8 = 2;
    /// `Cancel` named a document id this session does not know.
    pub const UNKNOWN_DOC: u8 = 3;
    /// `Submit` reused a document id still outstanding on this session.
    pub const DUPLICATE_DOC: u8 = 4;
    /// Malformed frame: bad length, truncated payload, or a field that
    /// does not decode. The server closes the connection after `Error`.
    pub const BAD_FRAME: u8 = 5;
    /// `Hello` did not start with the `AGGV` magic.
    pub const BAD_MAGIC: u8 = 6;
    /// `Hello` requested a protocol version this server does not speak.
    pub const BAD_VERSION: u8 = 7;
    /// `Hello` named a namespace this server does not serve.
    pub const UNKNOWN_NAMESPACE: u8 = 8;
    /// Opcode outside the table, or a server→client opcode sent by a
    /// client.
    pub const UNKNOWN_OPCODE: u8 = 9;
    /// Verification itself failed; the message carries the error text.
    pub const VERIFY_FAILED: u8 = 10;
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub opcode: u8,
    pub payload: Vec<u8>,
}

/// Write one frame (length prefix, opcode, payload) and flush.
pub fn write_frame(w: &mut impl Write, opcode: Opcode, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() as u32 + 1;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME_LEN",
        ));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[opcode as u8])?;
    w.write_all(payload)?;
    w.flush()
}

/// What one [`FrameReader::read_from`] call produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame.
    Frame(Frame),
    /// The peer closed the connection (any buffered partial frame is a
    /// truncation, reported as `Eof` all the same).
    Eof,
    /// The read timed out with no complete frame buffered — the caller's
    /// chance to check idle/shutdown conditions before retrying.
    Idle,
}

/// Incremental frame decoder over a byte stream. Survives read timeouts
/// mid-frame: partial bytes stay buffered across calls, so a socket with
/// a short `read_timeout` (the server's liveness poll) never tears a
/// frame.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Seed the buffer with bytes already read (protocol sniffing).
    pub fn with_buffered(buf: Vec<u8>) -> FrameReader {
        FrameReader { buf }
    }

    /// Pop one complete frame from the buffer, if present. A malformed
    /// length (`0` or `> MAX_FRAME_LEN`) is an `InvalidData` error.
    fn try_pop(&mut self) -> io::Result<Option<Frame>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed frame length {len}"),
            ));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let opcode = self.buf[4];
        let payload = self.buf[5..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Frame { opcode, payload }))
    }

    /// Read until one complete frame is available (or EOF / timeout).
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<ReadOutcome> {
        loop {
            if let Some(frame) = self.try_pop()? {
                return Ok(ReadOutcome::Frame(frame));
            }
            let mut chunk = [0u8; 4096];
            match r.read(&mut chunk) {
                Ok(0) => return Ok(ReadOutcome::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(ReadOutcome::Idle)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

// --- payload codecs (one pair per frame type) -------------------------

/// `Hello`: magic, version, namespace.
pub fn hello(namespace: &str) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&MAGIC);
    wire::put_u8(&mut p, VERSION);
    wire::put_str(&mut p, namespace);
    p
}

/// Parse `Hello`; the error side is `(errcode, message)` ready for an
/// `Error` frame.
pub fn parse_hello(mut buf: &[u8]) -> Result<String, (u8, String)> {
    let bad = |msg: &str| (errcode::BAD_FRAME, msg.to_string());
    if buf.len() < 4 {
        return Err(bad("hello payload truncated"));
    }
    let (magic, rest) = buf.split_at(4);
    if magic != MAGIC {
        return Err((errcode::BAD_MAGIC, "hello magic is not AGGV".into()));
    }
    buf = rest;
    let version = wire::get_u8(&mut buf).map_err(|e| bad(&e.to_string()))?;
    if version != VERSION {
        return Err((
            errcode::BAD_VERSION,
            format!("protocol version {version} unsupported (server speaks {VERSION})"),
        ));
    }
    wire::get_str(&mut buf).map_err(|e| bad(&e.to_string()))
}

/// `HelloOk`: version, session id (also the client's intake lane).
pub fn hello_ok(session: u64) -> Vec<u8> {
    let mut p = Vec::new();
    wire::put_u8(&mut p, VERSION);
    wire::put_u64(&mut p, session);
    p
}

/// Parse `HelloOk` → session id.
pub fn parse_hello_ok(mut buf: &[u8]) -> Result<u64, WireError> {
    let _version = wire::get_u8(&mut buf)?;
    wire::get_u64(&mut buf)
}

/// `Submit`: client-chosen document id, deadline in ms (0 = none), text.
pub fn submit(doc: u64, deadline_ms: u64, text: &str) -> Vec<u8> {
    let mut p = Vec::new();
    wire::put_u64(&mut p, doc);
    wire::put_u64(&mut p, deadline_ms);
    wire::put_str(&mut p, text);
    p
}

/// Parse `Submit` → (doc id, deadline ms, text).
pub fn parse_submit(mut buf: &[u8]) -> Result<(u64, u64, String), WireError> {
    Ok((
        wire::get_u64(&mut buf)?,
        wire::get_u64(&mut buf)?,
        wire::get_str(&mut buf)?,
    ))
}

/// `Cancel` / `Accepted`: just the document id.
pub fn doc_id(doc: u64) -> Vec<u8> {
    let mut p = Vec::new();
    wire::put_u64(&mut p, doc);
    p
}

/// Parse a document-id-only payload.
pub fn parse_doc_id(mut buf: &[u8]) -> Result<u64, WireError> {
    wire::get_u64(&mut buf)
}

/// `Rejected`: document id, error code, message.
pub fn rejected(doc: u64, code: u8, message: &str) -> Vec<u8> {
    let mut p = Vec::new();
    wire::put_u64(&mut p, doc);
    wire::put_u8(&mut p, code);
    wire::put_str(&mut p, message);
    p
}

/// Parse `Rejected` → (doc id, code, message).
pub fn parse_rejected(mut buf: &[u8]) -> Result<(u64, u8, String), WireError> {
    Ok((
        wire::get_u64(&mut buf)?,
        wire::get_u8(&mut buf)?,
        wire::get_str(&mut buf)?,
    ))
}

/// `Error`: code, message (connection-level; no document id).
pub fn error(code: u8, message: &str) -> Vec<u8> {
    let mut p = Vec::new();
    wire::put_u8(&mut p, code);
    wire::put_str(&mut p, message);
    p
}

/// Parse `Error` → (code, message).
pub fn parse_error(mut buf: &[u8]) -> Result<(u8, String), WireError> {
    Ok((wire::get_u8(&mut buf)?, wire::get_str(&mut buf)?))
}

/// `Progress`: doc id, wave number, last-wave flag, then per-claim
/// (claim index, claimed value, verdict code, correctness probability).
pub fn progress(doc: u64, wave: u64, last: bool, claims: &[ClaimProgress]) -> Vec<u8> {
    let mut p = Vec::new();
    wire::put_u64(&mut p, doc);
    wire::put_u64(&mut p, wave);
    wire::put_bool(&mut p, last);
    wire::put_u32(&mut p, claims.len() as u32);
    for c in claims {
        wire::put_usize(&mut p, c.claim);
        wire::put_f64(&mut p, c.claimed_value);
        wire::put_u8(&mut p, wire::verdict_code(c.verdict));
        wire::put_f64(&mut p, c.correctness_probability);
    }
    p
}

/// Parse `Progress` → (doc id, wave, last, claims).
pub fn parse_progress(mut buf: &[u8]) -> Result<(u64, u64, bool, Vec<ClaimProgress>), WireError> {
    let doc = wire::get_u64(&mut buf)?;
    let wave = wire::get_u64(&mut buf)?;
    let last = wire::get_bool(&mut buf)?;
    let n = wire::get_u32(&mut buf)? as usize;
    let mut claims = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        claims.push(ClaimProgress {
            claim: wire::get_usize(&mut buf)?,
            claimed_value: wire::get_f64(&mut buf)?,
            verdict: wire::verdict_from(wire::get_u8(&mut buf)?)?,
            correctness_probability: wire::get_f64(&mut buf)?,
        });
    }
    Ok((doc, wave, last, claims))
}

/// `ClaimVerdict`: doc id, claim index, the full settled claim
/// ([`wire::put_claim`] — exact round trip, fingerprint-preserving).
pub fn claim_verdict(doc: u64, index: u32, claim: &CheckedClaim) -> Vec<u8> {
    let mut p = Vec::new();
    wire::put_u64(&mut p, doc);
    wire::put_u32(&mut p, index);
    wire::put_claim(&mut p, claim);
    p
}

/// Parse `ClaimVerdict` → (doc id, claim index, claim).
pub fn parse_claim_verdict(mut buf: &[u8]) -> Result<(u64, u32, CheckedClaim), WireError> {
    Ok((
        wire::get_u64(&mut buf)?,
        wire::get_u32(&mut buf)?,
        wire::get_claim(&mut buf)?,
    ))
}

/// `Complete`: doc id, terminal status code, the run's stats.
pub fn complete(doc: u64, status: ReportStatus, stats: &RunStats) -> Vec<u8> {
    let mut p = Vec::new();
    wire::put_u64(&mut p, doc);
    wire::put_u8(&mut p, wire::status_code(status));
    wire::put_stats(&mut p, stats);
    p
}

/// Parse `Complete` → (doc id, status, stats).
pub fn parse_complete(mut buf: &[u8]) -> Result<(u64, ReportStatus, RunStats), WireError> {
    Ok((
        wire::get_u64(&mut buf)?,
        wire::status_from(wire::get_u8(&mut buf)?)?,
        wire::get_stats(&mut buf)?,
    ))
}

/// The `StatsOk` snapshot: the namespace's [`StreamStats`], its live
/// queue/lane state, and the server-level connection counters
/// (`docs/operations.md` documents every field).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
    pub stream: StreamStats,
    pub queue_depth: u64,
    pub in_flight: u64,
    pub lane_depths: Vec<(u64, u64)>,
    pub connections: u64,
    pub frames_in: u64,
    pub frames_out: u64,
    pub malformed_frames: u64,
}

/// The `StatsOk` layout — the `StatsOk` table of `docs/protocol.md`, in
/// order (a unit test in this crate holds the two together); `/v1/stats`
/// renders its namespace objects from the same accessors. The order is a
/// written v1 contract — note the `u32` gauge sits *after* the counters
/// added later — so it is spelled out rather than derived.
#[rustfmt::skip] // one row per wire field
pub const STATS_OK_FIELDS: [StatField<WireStats>; 32] = [
    ("submitted", |w| Slot::U64(&mut w.stream.submitted)),
    ("completed", |w| Slot::U64(&mut w.stream.completed)),
    ("failed", |w| Slot::U64(&mut w.stream.failed)),
    ("rejected", |w| Slot::U64(&mut w.stream.rejected)),
    ("timed_out", |w| Slot::U64(&mut w.stream.timed_out)),
    ("cancelled", |w| Slot::U64(&mut w.stream.cancelled)),
    ("partial", |w| Slot::U64(&mut w.stream.partial)),
    ("respawns", |w| Slot::U64(&mut w.stream.respawns)),
    ("poison_retries", |w| Slot::U64(&mut w.stream.scan.poison_retries)),
    ("queue_depth_high_water", |w| Slot::U64(&mut w.stream.queue_depth_high_water)),
    ("in_flight_high_water", |w| Slot::U64(&mut w.stream.in_flight_high_water)),
    ("claims", |w| Slot::U64(&mut w.stream.claims)),
    ("rows_scanned", |w| Slot::U64(&mut w.stream.scan.rows_scanned)),
    ("tasks_executed", |w| Slot::U64(&mut w.stream.scan.tasks_executed)),
    ("tasks_deduped", |w| Slot::U64(&mut w.stream.tasks_deduped)),
    ("singleflight_waits", |w| Slot::U64(&mut w.stream.singleflight_waits)),
    ("scan_passes", |w| Slot::U64(&mut w.stream.scan.scan_passes)),
    ("blocks_scanned", |w| Slot::U64(&mut w.stream.scan.blocks_scanned)),
    ("blocks_skipped", |w| Slot::U64(&mut w.stream.scan.blocks_skipped)),
    ("bytes_scanned", |w| Slot::U64(&mut w.stream.scan.bytes_scanned)),
    ("partitions_scanned", |w| Slot::U64(&mut w.stream.scan.partitions_scanned)),
    ("partition_merges", |w| Slot::U64(&mut w.stream.scan.partition_merges)),
    ("grids_patched", |w| Slot::U64(&mut w.stream.scan.grids_patched)),
    ("delta_rows_scanned", |w| Slot::U64(&mut w.stream.scan.delta_rows_scanned)),
    ("partition_parallelism", |w| Slot::U32(&mut w.stream.scan.partition_parallelism)),
    ("queue_depth", |w| Slot::U64(&mut w.queue_depth)),
    ("in_flight", |w| Slot::U64(&mut w.in_flight)),
    ("lanes", |w| Slot::Pairs(&mut w.lane_depths, ["lane", "depth"])),
    ("connections", |w| Slot::U64(&mut w.connections)),
    ("frames_in", |w| Slot::U64(&mut w.frames_in)),
    ("frames_out", |w| Slot::U64(&mut w.frames_out)),
    ("malformed_frames", |w| Slot::U64(&mut w.malformed_frames)),
];

/// `StatsOk`: every field of [`STATS_OK_FIELDS`], in order.
pub fn stats_ok(s: &WireStats) -> Vec<u8> {
    let mut p = Vec::new();
    wire::put_fields(&mut p, s, &STATS_OK_FIELDS);
    p
}

/// Parse `StatsOk`.
pub fn parse_stats_ok(mut buf: &[u8]) -> Result<WireStats, WireError> {
    let mut s = WireStats::default();
    wire::get_fields(&mut buf, &mut s, &STATS_OK_FIELDS)?;
    Ok(s)
}

/// Map a [`Verdict`] to the lowercase identifier the HTTP JSON uses.
pub fn verdict_name(v: Verdict) -> &'static str {
    match v {
        Verdict::Correct => "correct",
        Verdict::Erroneous => "erroneous",
        Verdict::Unverifiable => "unverifiable",
        Verdict::Unverified => "unverified",
    }
}

/// Map a [`ReportStatus`] to the lowercase identifier the HTTP JSON uses.
pub fn status_name(s: ReportStatus) -> &'static str {
    match s {
        ReportStatus::Complete => "complete",
        ReportStatus::TimedOut => "timed_out",
        ReportStatus::Cancelled => "cancelled",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_core::Verdict;

    #[test]
    fn opcode_codes_are_stable_and_distinct() {
        // The numbers docs/protocol.md tabulates.
        assert_eq!(Opcode::Hello as u8, 0x01);
        assert_eq!(Opcode::Submit as u8, 0x02);
        assert_eq!(Opcode::Cancel as u8, 0x03);
        assert_eq!(Opcode::Stats as u8, 0x04);
        assert_eq!(Opcode::Goodbye as u8, 0x05);
        assert_eq!(Opcode::HelloOk as u8, 0x81);
        assert_eq!(Opcode::Accepted as u8, 0x82);
        assert_eq!(Opcode::Progress as u8, 0x83);
        assert_eq!(Opcode::ClaimVerdict as u8, 0x84);
        assert_eq!(Opcode::Complete as u8, 0x85);
        assert_eq!(Opcode::StatsOk as u8, 0x86);
        assert_eq!(Opcode::Rejected as u8, 0x87);
        assert_eq!(Opcode::Error as u8, 0x8F);
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_u8(op as u8), Some(op), "{op:?}");
        }
        assert_eq!(Opcode::from_u8(0x42), None);
    }

    #[test]
    fn frames_round_trip_through_the_reader() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, Opcode::Hello, &hello("default")).unwrap();
        write_frame(&mut bytes, Opcode::Stats, &[]).unwrap();
        let mut reader = FrameReader::new();
        let mut cursor = &bytes[..];
        let first = match reader.read_from(&mut cursor).unwrap() {
            ReadOutcome::Frame(f) => f,
            other => panic!("expected a frame, got {other:?}"),
        };
        assert_eq!(first.opcode, Opcode::Hello as u8);
        assert_eq!(parse_hello(&first.payload).unwrap(), "default");
        let second = match reader.read_from(&mut cursor).unwrap() {
            ReadOutcome::Frame(f) => f,
            other => panic!("expected a frame, got {other:?}"),
        };
        assert_eq!(second.opcode, Opcode::Stats as u8);
        assert!(second.payload.is_empty());
        assert!(matches!(
            reader.read_from(&mut cursor).unwrap(),
            ReadOutcome::Eof
        ));
    }

    #[test]
    fn reader_survives_byte_at_a_time_delivery() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, Opcode::Submit, &submit(7, 0, "hello")).unwrap();
        let mut reader = FrameReader::new();
        for (i, b) in bytes.iter().enumerate() {
            let mut one = &[*b][..];
            match reader.read_from(&mut one).unwrap() {
                ReadOutcome::Frame(f) => {
                    assert_eq!(i, bytes.len() - 1, "frame must complete on the last byte");
                    let (doc, deadline, text) = parse_submit(&f.payload).unwrap();
                    assert_eq!((doc, deadline, text.as_str()), (7, 0, "hello"));
                    return;
                }
                ReadOutcome::Eof => {} // the one-byte cursor drained
                ReadOutcome::Idle => panic!("blocking read never idles"),
            }
        }
        panic!("frame never completed");
    }

    #[test]
    fn malformed_lengths_are_invalid_data() {
        // len == 0
        let mut reader = FrameReader::with_buffered(vec![0, 0, 0, 0]);
        let err = reader.read_from(&mut &[][..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // len > MAX_FRAME_LEN
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        let mut reader = FrameReader::with_buffered(huge);
        let err = reader.read_from(&mut &[][..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn hello_rejects_bad_magic_and_version() {
        let mut p = hello("default");
        p[0] = b'X';
        assert_eq!(parse_hello(&p).unwrap_err().0, errcode::BAD_MAGIC);
        let mut p = hello("default");
        p[4] = VERSION + 1;
        assert_eq!(parse_hello(&p).unwrap_err().0, errcode::BAD_VERSION);
        assert_eq!(parse_hello(&[1, 2]).unwrap_err().0, errcode::BAD_FRAME);
    }

    #[test]
    fn payloads_round_trip() {
        assert_eq!(parse_hello_ok(&hello_ok(42)).unwrap(), 42);
        assert_eq!(parse_doc_id(&doc_id(9)).unwrap(), 9);
        assert_eq!(
            parse_rejected(&rejected(3, errcode::FULL, "full")).unwrap(),
            (3, errcode::FULL, "full".to_string())
        );
        assert_eq!(
            parse_error(&error(errcode::BAD_FRAME, "oops")).unwrap(),
            (errcode::BAD_FRAME, "oops".to_string())
        );
        let claims = vec![ClaimProgress {
            claim: 0,
            claimed_value: 4.0,
            verdict: Verdict::Correct,
            correctness_probability: 0.75,
        }];
        let (doc, wave, last, decoded) = parse_progress(&progress(5, 2, true, &claims)).unwrap();
        assert_eq!((doc, wave, last), (5, 2, true));
        assert_eq!(decoded, claims);
        let stats = WireStats {
            stream: StreamStats {
                submitted: 8,
                completed: 7,
                scan: agg_relational::ScanCounters {
                    rows_scanned: 5060,
                    scan_passes: 11,
                    partitions_scanned: 22,
                    partition_merges: 14,
                    partition_parallelism: 4,
                    grids_patched: 3,
                    delta_rows_scanned: 512,
                    ..Default::default()
                },
                ..StreamStats::default()
            },
            queue_depth: 1,
            in_flight: 2,
            lane_depths: vec![(3, 4), (9, 1)],
            connections: 2,
            frames_in: 20,
            frames_out: 40,
            malformed_frames: 0,
        };
        assert_eq!(parse_stats_ok(&stats_ok(&stats)).unwrap(), stats);
    }

    const PROTOCOL_MD: &str = include_str!("../../../docs/protocol.md");

    /// The body rows of the first markdown table after the line containing
    /// `after`, as trimmed cells (header and `|---|` separator dropped).
    fn doc_table(after: &str) -> Vec<Vec<&'static str>> {
        let rows = PROTOCOL_MD
            .lines()
            .skip_while(|line| !line.contains(after))
            .skip_while(|line| !line.starts_with('|'))
            .take_while(|line| line.starts_with('|'))
            .skip(2);
        rows.map(|row| row.trim_matches('|').split('|').map(str::trim).collect())
            .collect()
    }

    /// Every opcode and byte, in both directions: the docs table and
    /// `Opcode::ALL` must be the same list.
    #[test]
    fn docs_opcode_table_matches_the_enum() {
        let documented: Vec<(String, String)> = doc_table("## Opcodes")
            .iter()
            .map(|row| (row[0].to_string(), row[1].to_string()))
            .collect();
        let defined: Vec<(String, String)> = Opcode::ALL
            .iter()
            .map(|op| (format!("0x{:02X}", *op as u8), op.name().to_string()))
            .collect();
        assert_eq!(documented, defined);
    }

    /// Every name, type and position of the two normative stats tables.
    #[test]
    fn docs_stats_tables_match_the_field_lists() {
        fn listed<S: Default>(fields: &[StatField<S>]) -> Vec<(&'static str, &'static str)> {
            let mut s = S::default();
            fields
                .iter()
                .map(|(name, slot)| {
                    // The wire type as `docs/protocol.md` spells it.
                    let ty = match slot(&mut s) {
                        Slot::U64(_) | Slot::Usize(_) => "u64",
                        Slot::U32(_) => "u32",
                        Slot::F64(_) => "f64",
                        Slot::Pairs(..) => "u32 count, then (u64, u64) each",
                    };
                    (*name, ty)
                })
                .collect()
        }
        let documented = |after: &str| -> Vec<(&str, &str)> {
            doc_table(after)
                .iter()
                .map(|row| (row[0], row[1]))
                .collect()
        };
        assert_eq!(
            documented("Run stats encoding"),
            listed(&wire::RUN_STATS_FIELDS)
        );
        assert_eq!(documented("### StatsOk (0x86)"), listed(&STATS_OK_FIELDS));
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The exact `StatsOk` bytes of a snapshot whose every field is a
    /// distinct value, two lanes included: the v1 layout is a written
    /// contract (`docs/protocol.md`), so it is pinned as a literal.
    #[test]
    fn stats_ok_bytes_are_pinned() {
        const STATS_OK_HEX: &str = concat!(
            "0100000000000000", // submitted
            "0200000000000000", // completed
            "0300000000000000", // failed
            "0400000000000000", // rejected
            "0500000000000000", // timed_out
            "0600000000000000", // cancelled
            "0700000000000000", // partial
            "0800000000000000", // respawns
            "0900000000000000", // poison_retries
            "0a00000000000000", // queue_depth_high_water
            "0b00000000000000", // in_flight_high_water
            "0c00000000000000", // claims
            "0d00000000000000", // rows_scanned
            "0e00000000000000", // tasks_executed
            "0f00000000000000", // tasks_deduped
            "1000000000000000", // singleflight_waits
            "1100000000000000", // scan_passes
            "1200000000000000", // blocks_scanned
            "1300000000000000", // blocks_skipped
            "1400000000000000", // bytes_scanned
            "1500000000000000", // partitions_scanned
            "1600000000000000", // partition_merges
            "1700000000000000", // grids_patched
            "1800000000000000", // delta_rows_scanned
            "19000000",         // partition_parallelism (u32)
            "1a00000000000000", // queue_depth
            "1b00000000000000", // in_flight
            "02000000",         // lane count (u32)
            "1c00000000000000", // lane
            "1d00000000000000", // depth
            "1e00000000000000", // lane
            "1f00000000000000", // depth
            "2000000000000000", // connections
            "2100000000000000", // frames_in
            "2200000000000000", // frames_out
            "2300000000000000", // malformed_frames
        );
        let bytes = unhex(STATS_OK_HEX);
        let s = parse_stats_ok(&bytes).unwrap();
        let st = &s.stream;
        assert_eq!(
            [
                st.submitted,
                st.completed,
                st.failed,
                st.rejected,
                st.timed_out,
                st.cancelled,
                st.partial,
                st.respawns,
                st.poison_retries,
                st.queue_depth_high_water,
                st.in_flight_high_water,
                st.claims,
                st.rows_scanned,
                st.tasks_executed,
                st.tasks_deduped,
                st.singleflight_waits,
                st.scan_passes,
                st.blocks_scanned,
                st.blocks_skipped,
                st.bytes_scanned,
                st.partitions_scanned,
                st.partition_merges,
                st.grids_patched,
                st.delta_rows_scanned,
                u64::from(st.partition_parallelism),
                s.queue_depth,
                s.in_flight,
            ],
            std::array::from_fn::<u64, 27, _>(|i| i as u64 + 1)
        );
        assert_eq!(s.lane_depths, vec![(28, 29), (30, 31)]);
        assert_eq!(
            [s.connections, s.frames_in, s.frames_out, s.malformed_frames],
            [32, 33, 34, 35]
        );
        assert_eq!(stats_ok(&s), bytes, "re-encoding reproduces the literal");
    }
}
