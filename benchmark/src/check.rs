//! Output checks: operation outcomes against a reference fingerprint, and
//! accuracy against the generator's ground truth.

use agg_core::{CheckerError, ReportStatus, Verdict, VerificationReport};
use agg_corpus::stats::align_claims;
use agg_corpus::GroundTruthClaim;

/// Erroneous-claim detection (paper Table 5) and top-10 coverage (paper
/// Fig. 10) over every ground-truth claim, aligned to detected claims the
/// way `agg_bench::runner::run_corpus_with` aligns them: an undetected
/// claim is "not flagged" and a coverage miss.
#[derive(Default)]
pub struct Accuracy {
    true_positives: u64,
    false_positives: u64,
    false_negatives: u64,
    claims: u64,
    top10_hits: u64,
}

impl Accuracy {
    pub fn record(&mut self, report: &VerificationReport, truth: &[GroundTruthClaim]) {
        let detected: Vec<f64> = report.claims.iter().map(|c| c.claimed_value).collect();
        for (g, slot) in truth.iter().zip(align_claims(&detected, truth)) {
            let claim = slot.map(|idx| &report.claims[idx]);
            let flagged = claim.is_some_and(|c| c.verdict == Verdict::Erroneous);
            match (!g.is_correct, flagged) {
                (true, true) => self.true_positives += 1,
                (false, true) => self.false_positives += 1,
                (true, false) => self.false_negatives += 1,
                (false, false) => {}
            }
            self.claims += 1;
            let rank = claim.and_then(|c| {
                c.top_queries
                    .iter()
                    .position(|rq| rq.query.semantically_equal(&g.query))
            });
            if rank.is_some_and(|r| r < 10) {
                self.top10_hits += 1;
            }
        }
    }

    pub fn f1(&self) -> f64 {
        let denom = 2 * self.true_positives + self.false_positives + self.false_negatives;
        if denom == 0 {
            0.0
        } else {
            2.0 * self.true_positives as f64 / denom as f64
        }
    }

    pub fn top10_coverage(&self) -> f64 {
        if self.claims == 0 {
            0.0
        } else {
            self.top10_hits as f64 / self.claims as f64
        }
    }

    pub fn claims(&self) -> u64 {
        self.claims
    }
}

/// Attempts and failures of one run. An operation fails if it errors, is
/// rejected, settles with a status other than `Complete`, or its
/// `content_fingerprint()` differs from the reference for the same
/// document on the same snapshot.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        // The first failure explains a run; the rest are counted.
        if self.failed == 1 {
            eprintln!("FAILED operation: {what}");
        }
    }

    /// Count one operation; returns the report and its fingerprint hash
    /// when it completed.
    pub fn check<'r>(
        &mut self,
        what: impl Fn() -> String,
        result: &'r Result<VerificationReport, CheckerError>,
        reference: Option<u64>,
    ) -> Option<(&'r VerificationReport, u64)> {
        self.attempted += 1;
        match result {
            Err(e) => {
                self.fail(format!("{}: {e}", what()));
                None
            }
            Ok(report) if report.status != ReportStatus::Complete => {
                self.fail(format!("{}: settled {:?}", what(), report.status));
                None
            }
            Ok(report) => {
                let fp = crate::outcome::fingerprint(report);
                if reference.is_some_and(|r| r != fp) {
                    self.fail(format!(
                        "{}: fingerprint differs from the reference",
                        what()
                    ));
                }
                Some((report, fp))
            }
        }
    }
}
