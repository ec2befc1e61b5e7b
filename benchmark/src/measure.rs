//! Clocks, process accounting and the estimators every workload shares.
//!
//! **Estimator rule.** A workload is a fixed, seeded list of operations
//! repeated for several passes. An operation's latency is the (lower)
//! median of its repetitions ([`OpSeries::estimates`]); percentiles are
//! taken *across operations*; closed-loop throughput is operations over the
//! sum of those per-operation medians. A burst of interference therefore
//! has to hit the same operation in most passes before it moves a reported
//! number.

use std::time::{Duration, Instant};

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The ⌈n/2⌉-th smallest value of a non-empty sample.
pub fn lower_median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Linear-interpolated percentile (`p` in 0..=1) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Per-operation latency samples, one per pass.
#[derive(Default)]
pub struct OpSeries {
    reps: Vec<Vec<f64>>,
}

impl OpSeries {
    pub fn new(ops: usize) -> OpSeries {
        OpSeries {
            reps: vec![Vec::new(); ops],
        }
    }

    pub fn record(&mut self, op: usize, latency_ms: f64) {
        self.reps[op].push(latency_ms);
    }

    /// One latency per operation: the lower median of its repetitions —
    /// the ⌈R/2⌉-th smallest of R, so the best of two, the middle of three.
    /// Interference only ever adds time, and this way half of an
    /// operation's repetitions (rounded down) may be disturbed without
    /// moving its estimate, for even R too.
    pub fn estimates(&self) -> Vec<f64> {
        self.reps.iter().map(|r| lower_median(r)).collect()
    }
}

/// Runs `pass` until `seconds` are used up, at least `min_passes` times. A
/// further pass starts only while half of an average pass still fits, so
/// the measured loop ends near the budget instead of one pass beyond it.
pub fn run_passes(seconds: f64, min_passes: usize, mut pass: impl FnMut(usize)) -> usize {
    let started = Instant::now();
    let mut done = 0usize;
    loop {
        pass(done);
        done += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if done >= min_passes && elapsed + 0.5 * elapsed / done as f64 > seconds {
            return done;
        }
    }
}

/// Process user+system CPU time in ms, all threads, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of 1/100 s on every Linux this runs on).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric stat field");
    // `rest` starts at field 3, so fields 14 and 15 are at 11 and 12.
    (ticks(11) + ticks(12)) * 10.0
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM in /proc/self/status");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value");
    kb / 1024.0
}

/// FNV-1a, the input-pinning hash.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A fixed integer loop timed in ms: how fast this machine is right now.
/// Run before and after a workload, it tells a slow run from a slow box.
pub fn calibrate_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..20_000_000u64 {
        x = (x ^ i).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(13);
    }
    std::hint::black_box(x);
    ms(started.elapsed())
}
