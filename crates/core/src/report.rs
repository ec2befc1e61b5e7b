//! Rendering verification results — the visual markup of Figure 3.
//!
//! Claims are colored by verdict: correct claims green, suspected errors
//! red, unverifiable claims yellow. Two renderers are provided: ANSI
//! (terminal) and HTML (the original tool's medium).

use crate::pipeline::{CheckedClaim, Verdict, VerificationReport};
use agg_nlp::structure::Document;
use std::fmt::Write as _;

/// Render the document with ANSI-colored claim markup plus a per-claim
/// explanation block (most likely query, its result, the verdict).
pub fn render_ansi(doc: &Document, report: &VerificationReport) -> String {
    let mut out = String::new();
    if let Some(title) = &doc.title {
        let _ = writeln!(out, "\x1b[1m{}\x1b[0m\n", title.text);
    }
    let mut claim_idx = 0usize;
    doc.for_each_paragraph(|path, para_idx, paragraph| {
        for (si, sentence) in paragraph.sentences.iter().enumerate() {
            let sentence_claims: Vec<&CheckedClaim> = report
                .claims
                .iter()
                .filter(|c| {
                    c.mention.section == *path
                        && c.mention.paragraph == para_idx
                        && c.mention.sentence == si
                })
                .collect();
            if sentence_claims.is_empty() {
                let _ = writeln!(out, "{}", sentence.text);
                continue;
            }
            let _ = writeln!(out, "{}", colorize_sentence(sentence, &sentence_claims));
            for claim in sentence_claims {
                claim_idx += 1;
                let marker = match claim.verdict {
                    Verdict::Correct => "\x1b[32m✓\x1b[0m",
                    Verdict::Erroneous => "\x1b[31m✗\x1b[0m",
                    Verdict::Unverifiable => "\x1b[33m?\x1b[0m",
                    Verdict::Unverified => "\x1b[90m-\x1b[0m",
                };
                let _ = write!(
                    out,
                    "  {marker} claim #{claim_idx} «{}» (P(correct) = {:.3})",
                    claim.claimed_value, claim.correctness_probability
                );
                if let Some(ml) = claim.ml_query() {
                    let result = ml
                        .result
                        .map(|r| format!("{r:.4}"))
                        .unwrap_or_else(|| "NULL".to_string());
                    let _ = write!(out, "\n      → {} = {result}", ml.description);
                }
                let _ = writeln!(out);
            }
        }
        let _ = writeln!(out);
    });
    out
}

/// Render the document as standalone HTML with claim spans colored by
/// verdict and hover titles describing the most likely query.
pub fn render_html(doc: &Document, report: &VerificationReport) -> String {
    let mut out = String::from(
        "<!doctype html><meta charset=\"utf-8\">\n<style>\n\
         .claim-correct { background: #c8f7c5; }\n\
         .claim-erroneous { background: #f7c5c5; }\n\
         .claim-unverifiable { background: #f7f3c5; }\n\
         .claim-unverified { background: #e0e0e0; }\n\
         </style>\n",
    );
    if let Some(title) = &doc.title {
        let _ = writeln!(out, "<h1>{}</h1>", escape(&title.text));
    }
    doc.for_each_paragraph(|path, para_idx, paragraph| {
        out.push_str("<p>");
        for (si, sentence) in paragraph.sentences.iter().enumerate() {
            let sentence_claims: Vec<&CheckedClaim> = report
                .claims
                .iter()
                .filter(|c| {
                    c.mention.section == *path
                        && c.mention.paragraph == para_idx
                        && c.mention.sentence == si
                })
                .collect();
            out.push_str(&html_sentence(sentence, &sentence_claims));
            out.push(' ');
        }
        out.push_str("</p>\n");
    });
    out
}

/// A short plain-text summary: one line per claim (plus a leading status
/// line when the report is partial — complete reports stay one line per
/// claim, which downstream line-counting consumers rely on).
pub fn render_summary(report: &VerificationReport) -> String {
    let mut out = String::new();
    if report.status.is_partial() {
        let _ = writeln!(
            out,
            "[PARTIAL: {:?}] unevaluated claims are marked '-'",
            report.status
        );
    }
    for (i, claim) in report.claims.iter().enumerate() {
        let verdict = match claim.verdict {
            Verdict::Correct => "OK ",
            Verdict::Erroneous => "ERR",
            Verdict::Unverifiable => "???",
            Verdict::Unverified => "-- ",
        };
        let ml = claim
            .ml_query()
            .map(|q| {
                format!(
                    "{} = {}",
                    q.description,
                    q.result
                        .map(|r| format!("{r:.4}"))
                        .unwrap_or_else(|| "NULL".into())
                )
            })
            .unwrap_or_else(|| "no candidate query".into());
        let _ = writeln!(
            out,
            "[{verdict}] #{i} claimed {} | P(correct)={:.3} | {ml}",
            claim.claimed_value, claim.correctness_probability
        );
    }
    out
}

fn colorize_sentence(sentence: &agg_nlp::structure::Sentence, claims: &[&CheckedClaim]) -> String {
    // Color each claim's token span within the sentence text.
    let mut spans: Vec<(usize, usize, &str)> = claims
        .iter()
        .filter_map(|c| {
            let start = sentence.tokens.get(c.mention.number.token_start)?.start;
            let end = sentence
                .tokens
                .get(c.mention.number.token_end.saturating_sub(1))?
                .end;
            let color = match c.verdict {
                Verdict::Correct => "\x1b[42;30m",
                Verdict::Erroneous => "\x1b[41;37m",
                Verdict::Unverifiable => "\x1b[43;30m",
                Verdict::Unverified => "\x1b[100;37m",
            };
            Some((start, end, color))
        })
        .collect();
    spans.sort_by_key(|(s, _, _)| *s);
    let mut out = String::new();
    let mut pos = 0;
    for (start, end, color) in spans {
        if start < pos {
            continue;
        }
        out.push_str(&sentence.text[pos..start]);
        let _ = write!(out, "{color}{}\x1b[0m", &sentence.text[start..end]);
        pos = end;
    }
    out.push_str(&sentence.text[pos..]);
    out
}

fn html_sentence(sentence: &agg_nlp::structure::Sentence, claims: &[&CheckedClaim]) -> String {
    let mut spans: Vec<(usize, usize, String)> = claims
        .iter()
        .filter_map(|c| {
            let start = sentence.tokens.get(c.mention.number.token_start)?.start;
            let end = sentence
                .tokens
                .get(c.mention.number.token_end.saturating_sub(1))?
                .end;
            let class = match c.verdict {
                Verdict::Correct => "claim-correct",
                Verdict::Erroneous => "claim-erroneous",
                Verdict::Unverifiable => "claim-unverifiable",
                Verdict::Unverified => "claim-unverified",
            };
            let title = c
                .ml_query()
                .map(|q| {
                    format!(
                        "{} = {}",
                        q.description,
                        q.result
                            .map(|r| format!("{r:.4}"))
                            .unwrap_or_else(|| "NULL".into())
                    )
                })
                .unwrap_or_default();
            Some((
                start,
                end,
                format!("<span class=\"{class}\" title=\"{}\">", escape(&title)),
            ))
        })
        .collect();
    spans.sort_by_key(|(s, _, _)| *s);
    let mut out = String::new();
    let mut pos = 0;
    for (start, end, open) in spans {
        if start < pos {
            continue;
        }
        out.push_str(&escape(&sentence.text[pos..start]));
        out.push_str(&open);
        out.push_str(&escape(&sentence.text[start..end]));
        out.push_str("</span>");
        pos = end;
    }
    out.push_str(&escape(&sentence.text[pos..]));
    out
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Exact binary round-trip encoding of verification results — the payload
/// layer of the server's verdict frames (`crates/server` wraps these in
/// length-prefixed frames; `docs/protocol.md` is the normative spec).
///
/// The contract is **bit-exactness**: a [`CheckedClaim`] decoded on the
/// client compares equal (field by field, including every `f64` bit
/// pattern — floats travel as IEEE-754 bits, never as text) to the one
/// the server encoded, so a report reassembled from streamed claim frames
/// reproduces [`VerificationReport::content_fingerprint`] exactly. The
/// loopback test suite and the `server_loopback` bench variant hold this
/// against solo `check_document` runs.
///
/// Primitive layer (all integers little-endian):
/// `u8` | `u32` | `u64` (also carries `usize`) | `f64` as `to_bits` |
/// `bool` as one byte 0/1 | strings and sequences as a `u32` count
/// followed by the elements.
pub mod wire {
    use crate::pipeline::{
        CheckedClaim, RankedQuery, ReportStatus, RunStats, Verdict, VerificationReport,
    };
    use agg_nlp::claims::ClaimMention;
    use agg_nlp::numbers::NumberMention;
    use agg_relational::{
        AggColumn, AggFunction, ColumnRef, Predicate, SimpleAggregateQuery, Value,
    };
    use std::fmt;

    /// A malformed or truncated wire payload.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireError(pub String);

    impl fmt::Display for WireError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "wire decode error: {}", self.0)
        }
    }

    impl std::error::Error for WireError {}

    fn err(what: &str) -> WireError {
        WireError(format!("truncated or invalid {what}"))
    }

    // --- primitive writers ---

    pub fn put_u8(out: &mut Vec<u8>, v: u8) {
        out.push(v);
    }

    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(out: &mut Vec<u8>, v: usize) {
        put_u64(out, v as u64);
    }

    pub fn put_f64(out: &mut Vec<u8>, v: f64) {
        put_u64(out, v.to_bits());
    }

    pub fn put_bool(out: &mut Vec<u8>, v: bool) {
        put_u8(out, v as u8);
    }

    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        put_u32(out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }

    // --- primitive readers (cursor style: the slice advances) ---

    pub fn get_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
        let (&b, rest) = buf.split_first().ok_or_else(|| err("u8"))?;
        *buf = rest;
        Ok(b)
    }

    pub fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
        if buf.len() < 4 {
            return Err(err("u32"));
        }
        let (head, rest) = buf.split_at(4);
        *buf = rest;
        Ok(u32::from_le_bytes(head.try_into().expect("4 bytes")))
    }

    pub fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
        if buf.len() < 8 {
            return Err(err("u64"));
        }
        let (head, rest) = buf.split_at(8);
        *buf = rest;
        Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
    }

    pub fn get_usize(buf: &mut &[u8]) -> Result<usize, WireError> {
        Ok(get_u64(buf)? as usize)
    }

    pub fn get_f64(buf: &mut &[u8]) -> Result<f64, WireError> {
        Ok(f64::from_bits(get_u64(buf)?))
    }

    pub fn get_bool(buf: &mut &[u8]) -> Result<bool, WireError> {
        match get_u8(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(err("bool")),
        }
    }

    pub fn get_str(buf: &mut &[u8]) -> Result<String, WireError> {
        let len = get_u32(buf)? as usize;
        if buf.len() < len {
            return Err(err("string body"));
        }
        let (head, rest) = buf.split_at(len);
        *buf = rest;
        String::from_utf8(head.to_vec()).map_err(|_| err("string utf-8"))
    }

    // --- enum codes (the numbers docs/protocol.md tabulates) ---

    /// Stable one-byte code of a [`Verdict`].
    pub fn verdict_code(v: Verdict) -> u8 {
        match v {
            Verdict::Correct => 0,
            Verdict::Erroneous => 1,
            Verdict::Unverifiable => 2,
            Verdict::Unverified => 3,
        }
    }

    /// Inverse of [`verdict_code`].
    pub fn verdict_from(code: u8) -> Result<Verdict, WireError> {
        Ok(match code {
            0 => Verdict::Correct,
            1 => Verdict::Erroneous,
            2 => Verdict::Unverifiable,
            3 => Verdict::Unverified,
            _ => return Err(err("verdict code")),
        })
    }

    /// Stable one-byte code of a [`ReportStatus`].
    pub fn status_code(s: ReportStatus) -> u8 {
        match s {
            ReportStatus::Complete => 0,
            ReportStatus::TimedOut => 1,
            ReportStatus::Cancelled => 2,
        }
    }

    /// Inverse of [`status_code`].
    pub fn status_from(code: u8) -> Result<ReportStatus, WireError> {
        Ok(match code {
            0 => ReportStatus::Complete,
            1 => ReportStatus::TimedOut,
            2 => ReportStatus::Cancelled,
            _ => return Err(err("report status code")),
        })
    }

    fn function_code(f: AggFunction) -> u8 {
        match f {
            AggFunction::Count => 0,
            AggFunction::CountDistinct => 1,
            AggFunction::Sum => 2,
            AggFunction::Avg => 3,
            AggFunction::Min => 4,
            AggFunction::Max => 5,
            AggFunction::Percentage => 6,
            AggFunction::ConditionalProbability => 7,
            AggFunction::Median => 8,
        }
    }

    fn function_from(code: u8) -> Result<AggFunction, WireError> {
        Ok(match code {
            0 => AggFunction::Count,
            1 => AggFunction::CountDistinct,
            2 => AggFunction::Sum,
            3 => AggFunction::Avg,
            4 => AggFunction::Min,
            5 => AggFunction::Max,
            6 => AggFunction::Percentage,
            7 => AggFunction::ConditionalProbability,
            8 => AggFunction::Median,
            _ => return Err(err("aggregate function code")),
        })
    }

    // --- composite encoders/decoders ---

    fn put_column_ref(out: &mut Vec<u8>, c: ColumnRef) {
        put_usize(out, c.table);
        put_usize(out, c.column);
    }

    fn get_column_ref(buf: &mut &[u8]) -> Result<ColumnRef, WireError> {
        Ok(ColumnRef {
            table: get_usize(buf)?,
            column: get_usize(buf)?,
        })
    }

    fn put_value(out: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Null => put_u8(out, 0),
            Value::Int(i) => {
                put_u8(out, 1);
                put_u64(out, *i as u64);
            }
            Value::Float(f) => {
                put_u8(out, 2);
                put_f64(out, *f);
            }
            Value::Str(s) => {
                put_u8(out, 3);
                put_str(out, s);
            }
        }
    }

    fn get_value(buf: &mut &[u8]) -> Result<Value, WireError> {
        Ok(match get_u8(buf)? {
            0 => Value::Null,
            1 => Value::Int(get_u64(buf)? as i64),
            2 => Value::Float(get_f64(buf)?),
            3 => Value::Str(get_str(buf)?),
            _ => return Err(err("value tag")),
        })
    }

    /// Encode a [`SimpleAggregateQuery`] (function code, column, predicates).
    pub fn put_query(out: &mut Vec<u8>, q: &SimpleAggregateQuery) {
        put_u8(out, function_code(q.function));
        match q.column {
            AggColumn::Star => put_u8(out, 0),
            AggColumn::Column(c) => {
                put_u8(out, 1);
                put_column_ref(out, c);
            }
        }
        put_u32(out, q.predicates.len() as u32);
        for p in &q.predicates {
            put_column_ref(out, p.column);
            put_value(out, &p.value);
        }
    }

    /// Inverse of [`put_query`].
    pub fn get_query(buf: &mut &[u8]) -> Result<SimpleAggregateQuery, WireError> {
        let function = function_from(get_u8(buf)?)?;
        let column = match get_u8(buf)? {
            0 => AggColumn::Star,
            1 => AggColumn::Column(get_column_ref(buf)?),
            _ => return Err(err("aggregate column tag")),
        };
        let n = get_u32(buf)? as usize;
        let mut predicates = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            predicates.push(Predicate {
                column: get_column_ref(buf)?,
                value: get_value(buf)?,
            });
        }
        Ok(SimpleAggregateQuery {
            function,
            column,
            predicates,
        })
    }

    fn put_mention(out: &mut Vec<u8>, m: &ClaimMention) {
        put_u32(out, m.section.len() as u32);
        for step in &m.section {
            put_usize(out, *step);
        }
        put_usize(out, m.paragraph);
        put_usize(out, m.sentence);
        let n = &m.number;
        put_f64(out, n.value);
        put_usize(out, n.token_start);
        put_usize(out, n.token_end);
        put_u32(out, n.significant_digits);
        put_u32(out, n.decimal_places);
        let flags =
            (n.is_percentage as u8) | (n.spelled_out as u8) << 1 | (n.had_separator as u8) << 2;
        put_u8(out, flags);
        put_usize(out, m.id);
    }

    fn get_mention(buf: &mut &[u8]) -> Result<ClaimMention, WireError> {
        let depth = get_u32(buf)? as usize;
        let mut section = Vec::with_capacity(depth.min(1024));
        for _ in 0..depth {
            section.push(get_usize(buf)?);
        }
        let paragraph = get_usize(buf)?;
        let sentence = get_usize(buf)?;
        let value = get_f64(buf)?;
        let token_start = get_usize(buf)?;
        let token_end = get_usize(buf)?;
        let significant_digits = get_u32(buf)?;
        let decimal_places = get_u32(buf)?;
        let flags = get_u8(buf)?;
        if flags & !0b111 != 0 {
            return Err(err("number-mention flags"));
        }
        let id = get_usize(buf)?;
        Ok(ClaimMention {
            section,
            paragraph,
            sentence,
            number: NumberMention {
                value,
                token_start,
                token_end,
                significant_digits,
                decimal_places,
                is_percentage: flags & 1 != 0,
                spelled_out: flags & 2 != 0,
                had_separator: flags & 4 != 0,
            },
            id,
        })
    }

    /// Encode one settled claim, every field exactly.
    pub fn put_claim(out: &mut Vec<u8>, c: &CheckedClaim) {
        put_mention(out, &c.mention);
        put_str(out, &c.sentence);
        put_f64(out, c.claimed_value);
        put_u32(out, c.top_queries.len() as u32);
        for rq in &c.top_queries {
            put_query(out, &rq.query);
            put_f64(out, rq.probability);
            match rq.result {
                None => put_u8(out, 0),
                Some(r) => {
                    put_u8(out, 1);
                    put_f64(out, r);
                }
            }
            put_bool(out, rq.matches);
            put_str(out, &rq.description);
        }
        put_f64(out, c.correctness_probability);
        put_u8(out, verdict_code(c.verdict));
    }

    /// Inverse of [`put_claim`].
    pub fn get_claim(buf: &mut &[u8]) -> Result<CheckedClaim, WireError> {
        let mention = get_mention(buf)?;
        let sentence = get_str(buf)?;
        let claimed_value = get_f64(buf)?;
        let k = get_u32(buf)? as usize;
        let mut top_queries = Vec::with_capacity(k.min(1024));
        for _ in 0..k {
            let query = get_query(buf)?;
            let probability = get_f64(buf)?;
            let result = match get_u8(buf)? {
                0 => None,
                1 => Some(get_f64(buf)?),
                _ => return Err(err("result tag")),
            };
            let matches = get_bool(buf)?;
            let description = get_str(buf)?;
            top_queries.push(RankedQuery {
                query,
                probability,
                result,
                matches,
                description,
            });
        }
        let correctness_probability = get_f64(buf)?;
        let verdict = verdict_from(get_u8(buf)?)?;
        Ok(CheckedClaim {
            mention,
            sentence,
            claimed_value,
            top_queries,
            correctness_probability,
            verdict,
        })
    }

    // --- stats field lists ---

    /// A mutable view of one stats field, typed as it travels. One accessor
    /// per field serves encode ([`put_fields`], on a copy), decode
    /// ([`get_fields`], into a default) and the JSON emitters
    /// ([`Slot::text`]), so a format is one ordered list and cannot
    /// disagree with itself.
    pub enum Slot<'a> {
        U64(&'a mut u64),
        /// A `usize` in memory, a `u64` on the wire.
        Usize(&'a mut usize),
        U32(&'a mut u32),
        F64(&'a mut f64),
        /// A `u32`-counted sequence of `(u64, u64)` pairs, with the two
        /// keys its JSON objects use.
        Pairs(&'a mut Vec<(u64, u64)>, [&'static str; 2]),
    }

    /// One entry of a format's ordered field list: the name
    /// `docs/protocol.md` tabulates (and the JSON key), and the accessor.
    pub type StatField<S> = (&'static str, fn(&mut S) -> Slot<'_>);

    /// A float as JSON text: finite values print bare; NaN/inf have no JSON
    /// spelling and become `null`.
    pub fn json_f64(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    impl Slot<'_> {
        /// The value as JSON text (pairs render as an array of two-key
        /// objects).
        pub fn text(&self) -> String {
            match self {
                Slot::U64(v) => v.to_string(),
                Slot::Usize(v) => v.to_string(),
                Slot::U32(v) => v.to_string(),
                Slot::F64(v) => json_f64(**v),
                Slot::Pairs(pairs, [ka, kb]) => {
                    let items: Vec<String> = pairs
                        .iter()
                        .map(|(a, b)| format!("{{\"{ka}\":{a},\"{kb}\":{b}}}"))
                        .collect();
                    format!("[{}]", items.join(","))
                }
            }
        }

        fn put(&self, out: &mut Vec<u8>) {
            match self {
                Slot::U64(v) => put_u64(out, **v),
                Slot::Usize(v) => put_usize(out, **v),
                Slot::U32(v) => put_u32(out, **v),
                Slot::F64(v) => put_f64(out, **v),
                Slot::Pairs(pairs, _) => {
                    put_u32(out, pairs.len() as u32);
                    for (a, b) in pairs.iter() {
                        put_u64(out, *a);
                        put_u64(out, *b);
                    }
                }
            }
        }

        fn fill(self, buf: &mut &[u8]) -> Result<(), WireError> {
            match self {
                Slot::U64(v) => *v = get_u64(buf)?,
                Slot::Usize(v) => *v = get_usize(buf)?,
                Slot::U32(v) => *v = get_u32(buf)?,
                Slot::F64(v) => *v = get_f64(buf)?,
                Slot::Pairs(pairs, _) => {
                    let n = get_u32(buf)? as usize;
                    pairs.clear();
                    pairs.reserve(n.min(1024));
                    for _ in 0..n {
                        pairs.push((get_u64(buf)?, get_u64(buf)?));
                    }
                }
            }
            Ok(())
        }
    }

    /// Encode every field of `fields`, in list order.
    pub fn put_fields<S: Clone>(out: &mut Vec<u8>, s: &S, fields: &[StatField<S>]) {
        let mut s = s.clone();
        for (_, slot) in fields {
            slot(&mut s).put(out);
        }
    }

    /// Decode every field of `fields`, in list order, into `s`.
    pub fn get_fields<S>(
        buf: &mut &[u8],
        s: &mut S,
        fields: &[StatField<S>],
    ) -> Result<(), WireError> {
        fields.iter().try_for_each(|(_, slot)| slot(s).fill(buf))
    }

    /// The [`RunStats`] wire layout — the "Run stats encoding" table of
    /// `docs/protocol.md`, in order (a server unit test holds the two
    /// together). Wall-clock durations are not wire-visible: they are
    /// excluded from [`VerificationReport::content_fingerprint`] and
    /// decode as zero. The order is a written v1 contract, so it is
    /// spelled out rather than derived from the struct.
    #[rustfmt::skip] // one row per wire field
    pub const RUN_STATS_FIELDS: [StatField<RunStats>; 20] = [
        ("claims", |s| Slot::Usize(&mut s.claims)),
        ("em_iterations", |s| Slot::Usize(&mut s.em_iterations)),
        ("candidates_evaluated", |s| Slot::U64(&mut s.candidates_evaluated)),
        ("cubes_executed", |s| Slot::U64(&mut s.cubes_executed)),
        ("cubes_cached", |s| Slot::U64(&mut s.cubes_cached)),
        ("rows_scanned", |s| Slot::U64(&mut s.scan.rows_scanned)),
        ("tasks_executed", |s| Slot::U64(&mut s.scan.tasks_executed)),
        ("tasks_deduped", |s| Slot::U64(&mut s.tasks_deduped)),
        ("singleflight_waits", |s| Slot::U64(&mut s.singleflight_waits)),
        ("scan_passes", |s| Slot::U64(&mut s.scan.scan_passes)),
        ("poison_retries", |s| Slot::U64(&mut s.scan.poison_retries)),
        ("blocks_scanned", |s| Slot::U64(&mut s.scan.blocks_scanned)),
        ("blocks_skipped", |s| Slot::U64(&mut s.scan.blocks_skipped)),
        ("bytes_scanned", |s| Slot::U64(&mut s.scan.bytes_scanned)),
        ("partitions_scanned", |s| Slot::U64(&mut s.scan.partitions_scanned)),
        ("partition_merges", |s| Slot::U64(&mut s.scan.partition_merges)),
        ("partition_parallelism", |s| Slot::U32(&mut s.scan.partition_parallelism)),
        ("grids_patched", |s| Slot::U64(&mut s.scan.grids_patched)),
        ("delta_rows_scanned", |s| Slot::U64(&mut s.scan.delta_rows_scanned)),
        ("candidate_space_log10", |s| Slot::F64(&mut s.candidate_space_log10)),
    ];

    /// Encode the wire-visible [`RunStats`] fields ([`RUN_STATS_FIELDS`]).
    pub fn put_stats(out: &mut Vec<u8>, s: &RunStats) {
        put_fields(out, s, &RUN_STATS_FIELDS);
    }

    /// Inverse of [`put_stats`].
    pub fn get_stats(buf: &mut &[u8]) -> Result<RunStats, WireError> {
        let mut s = RunStats::default();
        get_fields(buf, &mut s, &RUN_STATS_FIELDS)?;
        Ok(s)
    }

    /// Reassemble a [`VerificationReport`] from decoded parts — what a
    /// binary client does after its last claim frame.
    pub fn assemble_report(
        claims: Vec<CheckedClaim>,
        stats: RunStats,
        status: ReportStatus,
    ) -> VerificationReport {
        VerificationReport {
            claims,
            stats,
            status,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheckerConfig;
    use crate::pipeline::AggChecker;
    use agg_nlp::structure::parse_document;
    use agg_relational::{Database, Table};

    fn setup() -> (AggChecker, Document, VerificationReport) {
        let t = Table::from_columns(
            "nflsuspensions",
            vec![
                (
                    "games",
                    vec![
                        "indef".into(),
                        "indef".into(),
                        "indef".into(),
                        "indef".into(),
                        "10".into(),
                    ],
                ),
                (
                    "category",
                    vec![
                        "substance abuse, repeated offense".into(),
                        "substance abuse, repeated offense".into(),
                        "substance abuse, repeated offense".into(),
                        "gambling".into(),
                        "peds".into(),
                    ],
                ),
            ],
        )
        .unwrap();
        let mut db = Database::new("nfl");
        db.add_table(t);
        let checker = AggChecker::new(db, CheckerConfig::default()).unwrap();
        let text = "<h1>Lifetime bans</h1><p>There were four previous lifetime bans. One was for gambling.</p>";
        let doc = parse_document(text);
        let report = checker.check_document(&doc).unwrap();
        (checker, doc, report)
    }

    #[test]
    fn ansi_rendering_marks_claims() {
        let (_, doc, report) = setup();
        let out = render_ansi(&doc, &report);
        assert!(
            out.contains("\x1b[42;30m") || out.contains("\x1b[41;37m"),
            "{out}"
        );
        assert!(out.contains("P(correct)"));
        assert!(out.contains("→"), "most likely query shown");
    }

    #[test]
    fn html_rendering_is_well_formed() {
        let (_, doc, report) = setup();
        let out = render_html(&doc, &report);
        assert_eq!(out.matches("<span").count(), out.matches("</span>").count());
        assert!(out.contains("claim-"));
        assert!(out.contains("title="));
    }

    #[test]
    fn summary_lists_every_claim() {
        let (_, doc, report) = setup();
        let _ = doc;
        let out = render_summary(&report);
        assert_eq!(out.lines().count(), report.claims.len());
    }

    #[test]
    fn html_escapes_content() {
        assert_eq!(escape("a<b&c\"d"), "a&lt;b&amp;c&quot;d");
    }

    /// The wire contract at its core: claims and stats decoded from their
    /// binary encoding reproduce the report's `content_fingerprint`
    /// bit-exactly (f64s travel as IEEE-754 bits, never as text).
    #[test]
    fn wire_round_trip_preserves_fingerprint() {
        let (_, _, report) = setup();
        assert!(!report.claims.is_empty());
        let mut decoded_claims = Vec::new();
        for claim in &report.claims {
            let mut buf = Vec::new();
            wire::put_claim(&mut buf, claim);
            let mut cursor = &buf[..];
            let decoded = wire::get_claim(&mut cursor).unwrap();
            assert!(cursor.is_empty(), "decode must consume the payload");
            assert_eq!(format!("{claim:?}"), format!("{decoded:?}"));
            decoded_claims.push(decoded);
        }
        let mut buf = Vec::new();
        wire::put_stats(&mut buf, &report.stats);
        let stats = wire::get_stats(&mut &buf[..]).unwrap();
        let reassembled = wire::assemble_report(decoded_claims, stats, report.status);
        assert_eq!(
            reassembled.content_fingerprint(),
            report.content_fingerprint()
        );
    }

    /// The exact `RunStats` bytes inside a `Complete` frame, every field a
    /// distinct value: the v1 layout is a written contract
    /// (`docs/protocol.md`, "Run stats encoding"), so it is pinned as a
    /// literal. Durations are not wire-visible and decode as zero.
    #[test]
    fn put_stats_bytes_are_pinned() {
        const RUN_STATS_HEX: &str = concat!(
            "0100000000000000", // claims
            "0200000000000000", // em_iterations
            "0300000000000000", // candidates_evaluated
            "0400000000000000", // cubes_executed
            "0500000000000000", // cubes_cached
            "0600000000000000", // rows_scanned
            "0700000000000000", // tasks_executed
            "0800000000000000", // tasks_deduped
            "0900000000000000", // singleflight_waits
            "0a00000000000000", // scan_passes
            "0b00000000000000", // poison_retries
            "0c00000000000000", // blocks_scanned
            "0d00000000000000", // blocks_skipped
            "0e00000000000000", // bytes_scanned
            "0f00000000000000", // partitions_scanned
            "1000000000000000", // partition_merges
            "11000000",         // partition_parallelism (u32)
            "1200000000000000", // grids_patched
            "1300000000000000", // delta_rows_scanned
            "0000000000000440", // candidate_space_log10 = 2.5
        );
        let bytes: Vec<u8> = (0..RUN_STATS_HEX.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&RUN_STATS_HEX[i..i + 2], 16).unwrap())
            .collect();
        let mut cursor = &bytes[..];
        let s = wire::get_stats(&mut cursor).unwrap();
        assert!(cursor.is_empty(), "decode must consume the payload");
        assert_eq!(
            [
                s.claims as u64,
                s.em_iterations as u64,
                s.candidates_evaluated,
                s.cubes_executed,
                s.cubes_cached,
                s.rows_scanned,
                s.tasks_executed,
                s.tasks_deduped,
                s.singleflight_waits,
                s.scan_passes,
                s.poison_retries,
                s.blocks_scanned,
                s.blocks_skipped,
                s.bytes_scanned,
                s.partitions_scanned,
                s.partition_merges,
                u64::from(s.partition_parallelism),
                s.grids_patched,
                s.delta_rows_scanned,
            ],
            std::array::from_fn::<u64, 19, _>(|i| i as u64 + 1)
        );
        assert_eq!(s.candidate_space_log10, 2.5);
        assert_eq!((s.elapsed, s.query_time), Default::default());
        let mut out = Vec::new();
        wire::put_stats(&mut out, &s);
        assert_eq!(out, bytes, "re-encoding reproduces the literal");
    }

    /// Truncated payloads and bad tags decode to errors, never panics.
    #[test]
    fn wire_rejects_malformed_payloads() {
        let (_, _, report) = setup();
        let mut buf = Vec::new();
        wire::put_claim(&mut buf, &report.claims[0]);
        for cut in 0..buf.len() {
            assert!(
                wire::get_claim(&mut &buf[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
        assert!(wire::verdict_from(200).is_err());
        assert!(wire::status_from(9).is_err());
        assert!(wire::get_str(&mut &[255u8, 255, 255, 255][..]).is_err());
    }

    /// The enum codes are part of the written protocol (docs/protocol.md)
    /// and must never drift.
    #[test]
    fn wire_enum_codes_are_stable() {
        use crate::pipeline::{ReportStatus, Verdict};
        assert_eq!(wire::verdict_code(Verdict::Correct), 0);
        assert_eq!(wire::verdict_code(Verdict::Erroneous), 1);
        assert_eq!(wire::verdict_code(Verdict::Unverifiable), 2);
        assert_eq!(wire::verdict_code(Verdict::Unverified), 3);
        assert_eq!(wire::status_code(ReportStatus::Complete), 0);
        assert_eq!(wire::status_code(ReportStatus::TimedOut), 1);
        assert_eq!(wire::status_code(ReportStatus::Cancelled), 2);
        for v in [
            Verdict::Correct,
            Verdict::Erroneous,
            Verdict::Unverifiable,
            Verdict::Unverified,
        ] {
            assert_eq!(wire::verdict_from(wire::verdict_code(v)).unwrap(), v);
        }
    }
}
