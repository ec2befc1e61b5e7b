//! Just enough HTTP/1.1 for the JSON API: an incremental request reader
//! that tolerates read timeouts (the server's liveness poll) and a
//! response writer. Persistent connections are the default
//! (`Connection: close` opts out); bodies are `Content-Length`-framed
//! only — no chunked transfer encoding, which no client of this API
//! needs for small JSON documents.

use std::collections::HashMap;
use std::io::{self, Read, Write};

/// Largest accepted body. Documents are text summaries, not uploads;
/// anything bigger is a client error.
pub const MAX_REQUEST_LEN: usize = 16 * 1024 * 1024;

/// Largest accepted header block (request line + headers, up to the blank
/// line). A peer that streams more than this without a blank line is
/// rejected as malformed instead of being buffered and re-searched.
pub const MAX_HEAD_LEN: usize = 64 * 1024;

/// One parsed request. Header names are lowercased.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub headers: HashMap<String, String>,
    pub body: Vec<u8>,
}

impl Request {
    /// Did the client ask to drop the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// What one [`HttpReader::read_from`] call produced.
#[derive(Debug)]
pub enum HttpOutcome {
    Request(Request),
    /// Peer closed the connection.
    Eof,
    /// Read timed out with no complete request buffered.
    Idle,
}

/// Incremental request decoder; partial requests stay buffered across
/// read timeouts.
#[derive(Debug, Default)]
pub struct HttpReader {
    buf: Vec<u8>,
    /// Prefix of `buf` already searched for the head terminator, so each
    /// read searches only its own bytes (a headerless stream costs linear,
    /// not quadratic, CPU).
    searched: usize,
}

impl HttpReader {
    pub fn new() -> HttpReader {
        HttpReader::default()
    }

    /// Seed the buffer with bytes already read (protocol sniffing).
    pub fn with_buffered(buf: Vec<u8>) -> HttpReader {
        HttpReader { buf, searched: 0 }
    }

    fn try_pop(&mut self) -> io::Result<Option<Request>> {
        // Resume where the last search stopped, backing up over the three
        // bytes a terminator split across two reads may have left behind.
        let from = self.searched.saturating_sub(3);
        let head_end = find_subslice(&self.buf[from..], b"\r\n\r\n").map(|i| from + i);
        if head_end.unwrap_or(self.buf.len()) > MAX_HEAD_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request header block too large",
            ));
        }
        let Some(head_end) = head_end else {
            self.searched = self.buf.len();
            return Ok(None);
        };
        self.searched = head_end;
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 request head"))?
            .to_string();
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed request line",
            ));
        };
        let mut headers = HashMap::new();
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
            }
        }
        let content_length: usize = match headers.get("content-length") {
            Some(v) => v.parse().map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "malformed Content-Length")
            })?,
            None => 0,
        };
        if content_length > MAX_REQUEST_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request body too large",
            ));
        }
        let body_start = head_end + 4;
        if self.buf.len() < body_start + content_length {
            return Ok(None);
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        let request = Request {
            method: method.to_string(),
            path: path.to_string(),
            headers,
            body,
        };
        self.buf.drain(..body_start + content_length);
        self.searched = 0;
        Ok(Some(request))
    }

    /// Read until one complete request is available (or EOF / timeout).
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<HttpOutcome> {
        loop {
            if let Some(request) = self.try_pop()? {
                return Ok(HttpOutcome::Request(request));
            }
            let mut chunk = [0u8; 4096];
            match r.read(&mut chunk) {
                Ok(0) => return Ok(HttpOutcome::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(HttpOutcome::Idle)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Write one response (status line, minimal headers, body) and flush.
pub fn respond(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        w,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len(),
    )?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_post_with_body_and_keeps_pipelined_bytes() {
        let raw = b"POST /v1/documents HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbodyGET /v1/stats HTTP/1.1\r\n\r\n";
        let mut reader = HttpReader::new();
        let mut cursor = &raw[..];
        let first = match reader.read_from(&mut cursor).unwrap() {
            HttpOutcome::Request(r) => r,
            other => panic!("expected request, got {other:?}"),
        };
        assert_eq!(first.method, "POST");
        assert_eq!(first.path, "/v1/documents");
        assert_eq!(first.body, b"body");
        assert!(!first.wants_close());
        let second = match reader.read_from(&mut cursor).unwrap() {
            HttpOutcome::Request(r) => r,
            other => panic!("expected request, got {other:?}"),
        };
        assert_eq!(
            (second.method.as_str(), second.path.as_str()),
            ("GET", "/v1/stats")
        );
        assert!(matches!(
            reader.read_from(&mut cursor).unwrap(),
            HttpOutcome::Eof
        ));
    }

    #[test]
    fn byte_at_a_time_delivery_completes() {
        let raw = b"GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = HttpReader::new();
        for (i, b) in raw.iter().enumerate() {
            let mut one = &[*b][..];
            if let HttpOutcome::Request(r) = reader.read_from(&mut one).unwrap() {
                assert_eq!(i, raw.len() - 1);
                assert!(r.wants_close());
                return;
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn malformed_heads_are_invalid_data() {
        let mut reader = HttpReader::with_buffered(b"NOT-A-REQUEST\r\n\r\n".to_vec());
        assert!(reader.read_from(&mut &[][..]).is_err());
        let mut reader =
            HttpReader::with_buffered(b"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n".to_vec());
        assert!(reader.read_from(&mut &[][..]).is_err());
    }

    /// Delivers `data` in reads of at most `step` bytes, like a TCP peer
    /// sending MSS-sized segments, and counts what the reader consumed.
    struct Trickle<'d> {
        data: &'d [u8],
        step: usize,
        consumed: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            self.consumed += n;
            Ok(n)
        }
    }

    #[test]
    fn headerless_stream_is_rejected_at_the_head_cap() {
        let flood = vec![b'a'; 16 * 1024 * 1024];
        let mut peer = Trickle {
            data: &flood,
            step: 1460,
            consumed: 0,
        };
        let mut reader = HttpReader::with_buffered(b"GET ".to_vec());
        let err = reader.read_from(&mut peer).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            peer.consumed <= MAX_HEAD_LEN + 1460,
            "gave up after {} bytes",
            peer.consumed
        );
    }

    #[test]
    fn oversized_header_block_is_invalid_data_even_when_terminated() {
        let mut raw = b"GET /v1/stats HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.resize(65 * 1024, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        let mut reader = HttpReader::with_buffered(raw);
        let err = reader.read_from(&mut &[][..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn terminator_split_across_reads_is_found() {
        let raw = b"GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n";
        for cut in raw.len() - 4..raw.len() {
            let mut reader = HttpReader::new();
            assert!(matches!(
                reader.read_from(&mut &raw[..cut]).unwrap(),
                HttpOutcome::Eof
            ));
            match reader.read_from(&mut &raw[cut..]).unwrap() {
                HttpOutcome::Request(r) => assert_eq!(r.path, "/v1/stats"),
                other => panic!("cut {cut}: expected request, got {other:?}"),
            }
        }
    }

    #[test]
    fn large_body_after_a_small_head_still_parses() {
        let body = vec![b'x'; 1024 * 1024];
        let mut raw = format!(
            "POST /v1/documents HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(&body);
        let mut peer = Trickle {
            data: &raw,
            step: 1460,
            consumed: 0,
        };
        match HttpReader::new().read_from(&mut peer).unwrap() {
            HttpOutcome::Request(r) => assert_eq!(r.body, body),
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn respond_writes_a_framed_response() {
        let mut out = Vec::new();
        respond(&mut out, 404, "Not Found", "{\"error\":\"x\"}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Content-Length: 13\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"error\":\"x\"}"));
    }
}
