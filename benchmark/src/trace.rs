//! In-memory spans recorded around calls into each layer, written out when
//! the benchmark ends. Spans come only from the benchmark's own files (the
//! program has none yet); a span's parent is the span that caused it and
//! all spans of one operation share its `op` id.

use crate::measure::median;
use agg_core::EvalStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Operation (document) the span belongs to.
    pub op: u32,
    /// Pass (repetition) of the operation list.
    pub pass: u32,
    pub parent: Option<u32>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Counts taken at the same boundary as the `core.evaluate` spans of one
/// operation in one pass.
pub struct OpCounts {
    pub op: u32,
    pub pass: u32,
    pub claims: u64,
    pub em_iterations: u64,
    pub eval: EvalStats,
}

pub struct Tracer {
    t0: Instant,
    pass: u32,
    pub spans: Vec<Span>,
    pub counts: Vec<OpCounts>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::starting_at(Instant::now())
    }

    /// A tracer whose timestamps count from `t0` (several tracers of one
    /// run share it, so their spans line up after [`Tracer::absorb`]).
    pub fn starting_at(t0: Instant) -> Tracer {
        Tracer {
            t0,
            pass: 0,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn t0(&self) -> Instant {
        self.t0
    }

    /// Append another tracer's spans and counts, shifting its operation
    /// ids by `op_offset` so the two id spaces stay apart in the file.
    pub fn absorb(&mut self, other: Tracer, op_offset: u32) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.op += op_offset;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.counts.extend(other.counts.into_iter().map(|mut c| {
            c.op += op_offset;
            c
        }));
    }

    pub fn set_pass(&mut self, pass: usize) {
        self.pass = pass as u32;
    }

    pub fn pass(&self) -> u32 {
        self.pass
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: usize, parent: Option<u32>) -> u32 {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            op: op as u32,
            pass: self.pass,
            parent,
            start_us,
            end_us: start_us,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_us = self.now_us();
    }

    /// A leaf span around one call.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// A span with explicit timestamps (client-side stages of a request
    /// whose boundaries were observed on another thread).
    pub fn record(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            op: op as u32,
            pass: self.pass,
            parent,
            start_us: at(start),
            end_us: at(end),
        });
        (self.spans.len() - 1) as u32
    }

    /// Per operation, the time spent in spans called `name`: summed within
    /// a pass, median across passes. Operations without such a span are
    /// left out.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u32, BTreeMap<u32, f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default().entry(s.pass).or_default() += s.ms();
        }
        by_op
            .values()
            .map(|passes| median(&passes.values().copied().collect::<Vec<_>>()))
            .collect()
    }

    /// Mean over operations of [`Tracer::per_op_ms`]: the layer's time per
    /// document. 0 when the layer never ran.
    pub fn layer_ms(&self, name: &str) -> f64 {
        mean(&self.per_op_ms(name))
    }

    /// Mean per operation-pass of a counter.
    pub fn count_per_op(&self, f: impl Fn(&OpCounts) -> u64) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        self.counts.iter().map(|c| f(c) as f64).sum::<f64>() / self.counts.len() as f64
    }

    /// Sum of a counter over every recorded operation-pass.
    pub fn count_total(&self, f: impl Fn(&OpCounts) -> u64) -> u64 {
        self.counts.iter().map(f).sum()
    }

    /// Write spans and counts as JSON.
    pub fn write(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 256);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"pass\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name, s.op, s.pass, s.start_us, s.end_us
            );
        }
        out.push_str("\n],\"counts\":[");
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let e = &c.eval;
            let _ = write!(
                out,
                "\n{{\"op\":{},\"pass\":{},\"claims\":{},\"em_iterations\":{},\"candidates_evaluated\":{},\"cubes_executed\":{},\"cubes_cached\":{},\"rows_scanned\":{},\"tasks_executed\":{},\"scan_passes\":{},\"blocks_scanned\":{},\"blocks_skipped\":{},\"partitions_scanned\":{},\"grids_patched\":{},\"delta_rows_scanned\":{}}}",
                c.op, c.pass, c.claims, c.em_iterations, e.candidates_evaluated, e.cubes_executed,
                e.cubes_cached, e.rows_scanned, e.tasks_executed, e.scan_passes, e.blocks_scanned,
                e.blocks_skipped, e.partitions_scanned, e.grids_patched, e.delta_rows_scanned
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
