//! The probabilistic model (§5 of the paper).
//!
//! Each claim `c` is mapped to a distribution over candidate queries:
//!
//! ```text
//! Pr(Q_c = q | S_c, E_c) ∝ Pr(S_c | q) · Pr(E_c | q) · Pr(q)
//! ```
//!
//! * `Pr(S_c | q)` — keyword likelihood: the product of the relevance
//!   scores of q's fragments (function, aggregation column, and one factor
//!   per restricted column, normalized against the *unrestricted*
//!   pseudo-score `s₀`).
//! * `Pr(E_c | q)` — evaluation likelihood: `p_T` when q's result rounds to
//!   the claimed value, `1 − p_T` otherwise.
//! * `Pr(q)` — the document prior from Θ: `p_f(f_q) · p_a(a_q) ·
//!   ∏_{restricted i} p_r(i)` (Eq. 5; optionally `· ∏_{unrestricted}
//!   (1 − p_r(i))`, an ablation the paper omits).
//!
//! Document parameters Θ and claim distributions are refined jointly by
//! expectation maximization (Algorithm 3): the E-step computes the
//! distributions above; the M-step re-estimates Θ from the maximum
//! likelihood query of every claim.

use crate::candidates::{Candidate, CandidateSet};
use crate::config::CheckerConfig;
use crate::evaluate::ResultsMatrix;
use crate::fragments::FragmentCatalog;
use crate::matching::ClaimScores;
use crate::rounding::ClaimMatcher;
use agg_nlp::numbers::NumberMention;
use serde::{Deserialize, Serialize};

/// Document-specific priors (Eq. 1 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Theta {
    /// Prior of each aggregation function (sums to 1).
    pub p_fn: Vec<f64>,
    /// Prior of each aggregation column (sums to 1).
    pub p_agg: Vec<f64>,
    /// Per predicate column: prior probability that a claim query restricts
    /// it (independent Bernoullis — a query may restrict several columns).
    pub p_restrict: Vec<f64>,
}

impl Theta {
    /// The uniform initialization of Algorithm 3, line 6.
    pub fn uniform(n_fn: usize, n_agg: usize, n_pred_cols: usize) -> Theta {
        Theta {
            p_fn: vec![1.0 / n_fn.max(1) as f64; n_fn],
            p_agg: vec![1.0 / n_agg.max(1) as f64; n_agg],
            p_restrict: vec![0.5; n_pred_cols],
        }
    }

    /// Largest absolute component change (convergence check).
    pub fn max_change(&self, other: &Theta) -> f64 {
        let diff = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max)
        };
        diff(&self.p_fn, &other.p_fn)
            .max(diff(&self.p_agg, &other.p_agg))
            .max(diff(&self.p_restrict, &other.p_restrict))
    }
}

/// The outcome of the E-step for one claim.
#[derive(Debug, Clone)]
pub struct ClaimDistribution {
    /// Top candidates with normalized probabilities, descending.
    pub top: Vec<(Candidate, f64)>,
    /// Total probability mass on candidates whose result matches the
    /// claimed value — the claim's correctness probability.
    pub correctness: f64,
    /// Whether the maximum-likelihood candidate's result matches.
    pub ml_matches: bool,
    /// Number of candidates scored.
    pub scored: usize,
}

impl ClaimDistribution {
    /// The maximum-likelihood candidate, if any.
    pub fn ml(&self) -> Option<Candidate> {
        self.top.first().map(|(c, _)| *c)
    }

    fn empty() -> ClaimDistribution {
        ClaimDistribution {
            top: Vec::new(),
            correctness: 0.0,
            ml_matches: false,
            scored: 0,
        }
    }
}

/// How many top candidates each distribution retains (the UI shows top-10;
/// coverage experiments need no more than 20).
pub const TOP_K: usize = 20;

/// E-step for one claim: score every candidate and form the distribution.
#[allow(clippy::too_many_arguments)]
pub fn score_claim(
    catalog: &FragmentCatalog,
    scores: &ClaimScores,
    candidates: &CandidateSet,
    results: &ResultsMatrix,
    theta: Option<&Theta>,
    claim_number: &NumberMention,
    cfg: &CheckerConfig,
) -> ClaimDistribution {
    if candidates.is_empty() {
        return ClaimDistribution::empty();
    }
    // Unrestricted pseudo-score s₀ (DESIGN.md §4): restricting on a literal
    // scoring above s₀ increases the keyword likelihood, below decreases.
    let s0 = (scores.max_predicate_score * cfg.unrestricted_factor).max(1e-9);

    // Per-combo factor: ∏ (score/s₀) [ · p_r or odds ].
    let n_combos = candidates.combos.len();
    let mut combo_factor = vec![0.0f64; n_combos];
    for (ci, combo) in candidates.combos.iter().enumerate() {
        let mut w = 1.0f64;
        for &(c, l) in combo {
            let s = scores.predicates[c as usize][l as usize];
            w *= (s / s0).max(1e-12);
            if let Some(t) = theta {
                let p = t.p_restrict[c as usize].clamp(1e-6, 1.0 - 1e-6);
                if cfg.penalize_unrestricted {
                    w *= p / (1.0 - p); // odds form ≡ ∏ p · ∏ (1−p) up to a constant
                } else {
                    w *= p;
                }
            }
        }
        combo_factor[ci] = w;
    }

    // Per-pair factor: S(f)·S(a) [ · p_f·p_a ].
    let n_pairs = candidates.agg_pairs.len();
    let mut pair_factor = vec![0.0f64; n_pairs];
    for (pi, &(fi, ai)) in candidates.agg_pairs.iter().enumerate() {
        let mut w = scores.functions[fi as usize] * scores.agg_columns[ai as usize];
        if let Some(t) = theta {
            w *= t.p_fn[fi as usize] * t.p_agg[ai as usize];
        }
        pair_factor[pi] = w;
    }

    // Conditional probability needs a condition predicate.
    let needs_condition: Vec<bool> = candidates
        .agg_pairs
        .iter()
        .map(|&(fi, _)| {
            catalog.functions[fi as usize] == agg_relational::AggFunction::ConditionalProbability
        })
        .collect();

    let p_t = cfg.p_true;
    let use_eval = cfg.model.use_evaluation;
    let matcher = ClaimMatcher::new(claim_number);

    let mut total = 0.0f64;
    let mut matching = 0.0f64;
    let mut top: Vec<(Candidate, f64)> = Vec::with_capacity(TOP_K + 1);
    let mut scored = 0usize;

    for (ci, &cf) in combo_factor.iter().enumerate() {
        let combo_empty = candidates.combos[ci].is_empty();
        for (pi, (&pf, &result)) in pair_factor.iter().zip(results.row(ci)).enumerate() {
            if combo_empty && needs_condition[pi] {
                continue;
            }
            scored += 1;
            let is_match = result.is_some_and(|r| matcher.matches(r));
            let mut w = cf * pf;
            if use_eval {
                w *= if is_match { p_t } else { 1.0 - p_t };
            }
            if w <= 0.0 {
                continue;
            }
            total += w;
            if is_match {
                matching += w;
            }
            push_top(
                &mut top,
                Candidate {
                    combo: ci as u32,
                    pair: pi as u32,
                },
                w,
            );
        }
    }

    if total <= 0.0 {
        return ClaimDistribution {
            scored,
            ..ClaimDistribution::empty()
        };
    }
    for (_, w) in &mut top {
        *w /= total;
    }
    let ml_matches = top
        .first()
        .map(|(c, _)| {
            results
                .get(c.combo as usize, c.pair as usize)
                .is_some_and(|r| matcher.matches(r))
        })
        .unwrap_or(false);
    ClaimDistribution {
        top,
        correctness: matching / total,
        ml_matches,
        scored,
    }
}

/// Insert into a bounded, descending top-k list.
#[inline]
fn push_top(top: &mut Vec<(Candidate, f64)>, cand: Candidate, w: f64) {
    // A full list only admits weights above its last: nearly every
    // candidate leaves here, without the binary search.
    if top.len() == TOP_K && top[TOP_K - 1].1 >= w {
        return;
    }
    let pos = top.partition_point(|(_, tw)| *tw >= w);
    top.insert(pos, (cand, w));
    top.truncate(TOP_K);
}

/// M-step (Algorithm 3, line 17): re-estimate Θ from maximum-likelihood
/// candidates, with additive smoothing `λ`.
pub fn m_step(
    catalog: &FragmentCatalog,
    ml_candidates: &[(Option<Candidate>, &CandidateSet)],
    smoothing: f64,
) -> Theta {
    let n_fn = catalog.functions.len();
    let n_agg = catalog.agg_columns.len();
    let n_pred = catalog.predicate_columns.len();
    let mut fn_counts = vec![0.0f64; n_fn];
    let mut agg_counts = vec![0.0f64; n_agg];
    let mut restrict_counts = vec![0.0f64; n_pred];
    let mut n = 0.0f64;
    for (ml, set) in ml_candidates {
        let Some(cand) = ml else { continue };
        n += 1.0;
        let (fi, ai) = set.agg_pairs[cand.pair as usize];
        fn_counts[fi as usize] += 1.0;
        agg_counts[ai as usize] += 1.0;
        for &(c, _) in &set.combos[cand.combo as usize] {
            restrict_counts[c as usize] += 1.0;
        }
    }
    let lambda = smoothing;
    Theta {
        p_fn: fn_counts
            .iter()
            .map(|c| (c + lambda) / (n + lambda * n_fn as f64).max(1e-12))
            .collect(),
        p_agg: agg_counts
            .iter()
            .map(|c| (c + lambda) / (n + lambda * n_agg as f64).max(1e-12))
            .collect(),
        p_restrict: restrict_counts
            .iter()
            .map(|c| ((c + lambda) / (n + 2.0 * lambda).max(1e-12)).min(1.0 - 1e-6))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_theta_sums_to_one() {
        let t = Theta::uniform(8, 5, 3);
        assert!((t.p_fn.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((t.p_agg.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(t.p_restrict.iter().all(|p| *p == 0.5));
    }

    #[test]
    fn max_change_detects_movement() {
        let a = Theta::uniform(4, 2, 2);
        let mut b = a.clone();
        assert_eq!(a.max_change(&b), 0.0);
        b.p_restrict[1] = 0.9;
        assert!((a.max_change(&b) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn push_top_keeps_descending_bounded_list() {
        let mut top = Vec::new();
        for (i, w) in [(0u32, 0.1), (1, 0.5), (2, 0.3)] {
            push_top(&mut top, Candidate { combo: i, pair: 0 }, w);
        }
        let ws: Vec<f64> = top.iter().map(|(_, w)| *w).collect();
        assert_eq!(ws, vec![0.5, 0.3, 0.1]);
        for i in 0..100 {
            push_top(&mut top, Candidate { combo: i, pair: 1 }, 1.0 + i as f64);
        }
        assert_eq!(top.len(), TOP_K);
        assert!(top[0].1 >= top[TOP_K - 1].1);
    }
}
