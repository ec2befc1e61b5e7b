//! Evaluation metrics: precision/recall/F1 on erroneous-claim detection
//! (Definitions 4 and 5 of the paper) and top-k coverage (Definition 6).

/// Confusion counts for erroneous-claim detection. "Positive" means
/// *flagged as erroneous*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    pub true_positives: usize,
    pub false_positives: usize,
    pub false_negatives: usize,
    pub true_negatives: usize,
}

impl Confusion {
    /// Record one claim: `truly_erroneous` from ground truth, `flagged`
    /// from the system under test.
    pub fn record(&mut self, truly_erroneous: bool, flagged: bool) {
        match (truly_erroneous, flagged) {
            (true, true) => self.true_positives += 1,
            (false, true) => self.false_positives += 1,
            (true, false) => self.false_negatives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Fraction of flagged claims that are truly erroneous (Definition 4).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Fraction of truly erroneous claims that were flagged (Definition 5).
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.false_negatives + self.true_negatives
    }
}

/// Top-k coverage accumulator (Definition 6): for how many claims is the
/// ground-truth query among the k most likely candidates?
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    /// `ranks[i]` — number of claims whose ground-truth query ranked at
    /// position i (0-based).
    ranks: Vec<usize>,
    /// Claims whose ground-truth query appeared at no rank.
    missed: usize,
}

impl Coverage {
    /// Record one claim's ground-truth rank (`None` = not in the top list).
    pub fn record(&mut self, rank: Option<usize>) {
        match rank {
            Some(r) => {
                if self.ranks.len() <= r {
                    self.ranks.resize(r + 1, 0);
                }
                self.ranks[r] += 1;
            }
            None => self.missed += 1,
        }
    }

    /// Total claims recorded.
    pub fn total(&self) -> usize {
        self.ranks.iter().sum::<usize>() + self.missed
    }

    /// Top-k coverage in [0, 1].
    pub fn at(&self, k: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let hits: usize = self.ranks.iter().take(k).sum();
        hits as f64 / total as f64
    }

    /// Merge another accumulator in.
    pub fn merge(&mut self, other: &Coverage) {
        if self.ranks.len() < other.ranks.len() {
            self.ranks.resize(other.ranks.len(), 0);
        }
        for (i, c) in other.ranks.iter().enumerate() {
            self.ranks[i] += c;
        }
        self.missed += other.missed;
    }
}

/// Format a ratio as the paper prints them ("70.8%").
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Median wall-clock sample over `samples` timed runs of `f`, after one
/// untimed warmup run. Returns `(nanoseconds, payload)` **from the same
/// (median-time) run** — payloads such as rows-scanned counts can be
/// nondeterministic across runs (e.g. racing batch workers duplicating a
/// cube execution), so pairing one run's payload with another run's time
/// would misstate derived rates. Used by the `bench_cube` bin.
pub fn median_timed_ns<T, F: FnMut() -> T>(samples: usize, mut f: F) -> (u64, T) {
    f(); // warmup
    let mut runs: Vec<(u64, T)> = (0..samples.max(1))
        .map(|_| {
            let start = std::time::Instant::now();
            let payload = f();
            (start.elapsed().as_nanos() as u64, payload)
        })
        .collect();
    runs.sort_unstable_by_key(|run| run.0);
    let mid = runs.len() / 2;
    runs.into_iter().nth(mid).expect("at least one sample")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_metrics() {
        let mut c = Confusion::default();
        // 3 erroneous claims, 2 flagged correctly; 1 correct claim flagged.
        c.record(true, true);
        c.record(true, true);
        c.record(true, false);
        c.record(false, true);
        c.record(false, false);
        assert!((c.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.f1() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn empty_confusion_is_zero_not_nan() {
        let c = Confusion::default();
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.f1(), 0.0);
    }

    #[test]
    fn coverage_accumulates_by_rank() {
        let mut cov = Coverage::default();
        cov.record(Some(0));
        cov.record(Some(0));
        cov.record(Some(3));
        cov.record(None);
        assert_eq!(cov.total(), 4);
        assert!((cov.at(1) - 0.5).abs() < 1e-12);
        assert!((cov.at(4) - 0.75).abs() < 1e-12);
        assert!((cov.at(100) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn coverage_merge() {
        let mut a = Coverage::default();
        a.record(Some(0));
        let mut b = Coverage::default();
        b.record(Some(1));
        b.record(None);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert!((a.at(2) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.708), "70.8%");
        assert_eq!(pct(1.0), "100.0%");
    }
}
