//! Rounding-aware comparison of query results against claimed values.
//!
//! Definition 1 of the paper: a claim is correct if there is an *admissible
//! rounding function* ρ with ρ(q(D)) = e; *"we currently consider rounding
//! to any number of significant digits as admissible"*. The implementation
//! lives in [`agg_nlp::rounding`] (the corpus generator labels its claims
//! with the same matcher); this module re-exports it and documents the
//! paper-facing contract.

pub use agg_nlp::rounding::{
    matches_claim, matches_value, round_decimals, round_significant, ClaimMatcher,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_matches() {
        assert!(matches_value(4.0, 4.0, 1, 0));
        assert!(matches_value(0.0, 0.0, 1, 0));
        assert!(!matches_value(4.0, 3.0, 1, 0));
    }

    #[test]
    fn paper_table9_examples() {
        // "three were for repeated substance abuse" — true count 4: no
        // rounding of 4 gives 3 → erroneous.
        assert!(!matches_value(4.0, 3.0, 1, 0));
        // "64 candidates" — true count 63: 63 does not round to 64.
        assert!(!matches_value(63.0, 64.0, 2, 0));
        // "13% self-taught" — true percentage ≈13.5%: stated at 2
        // significant digits, 13.5 rounds to 14, not 13 → erroneous,
        // matching the author's "rounding error/typo on our part".
        assert!(!matches_value(13.5, 13.0, 2, 0));
        assert!(matches_value(13.5, 14.0, 2, 0));
    }

    #[test]
    fn significant_digit_rounding() {
        assert_eq!(round_significant(423.0, 1), 400.0);
        assert_eq!(round_significant(423.0, 2), 420.0);
        assert_eq!(round_significant(0.0456, 2), 0.046);
        assert_eq!(round_significant(-37.0, 1), -40.0);
        assert_eq!(round_significant(0.0, 3), 0.0);
    }

    #[test]
    fn rounded_matches() {
        // "about 400 cases" (1 significant digit) vs an exact count of 423.
        assert!(matches_value(423.0, 400.0, 1, 0));
        assert!(!matches_value(470.0, 400.0, 1, 0));
        // "66%" vs 66.666…%.
        assert!(matches_value(66.6667, 67.0, 2, 0));
        assert!(!matches_value(66.6667, 66.0, 2, 0), "66.67 rounds to 67");
        // "41 percent" vs 41.3.
        assert!(matches_value(41.3, 41.0, 2, 0));
    }

    #[test]
    fn decimal_place_matches() {
        assert!(matches_value(2.4997, 2.5, 2, 1));
        assert!(matches_value(13.4999, 13.5, 4, 2));
        assert!(!matches_value(13.51, 13.5, 4, 2));
    }

    #[test]
    fn non_finite_results_never_match() {
        assert!(!matches_value(f64::NAN, 4.0, 1, 0));
        assert!(!matches_value(f64::INFINITY, 4.0, 1, 0));
    }

    #[test]
    fn number_mention_overload() {
        use agg_nlp::numbers::NumberMention;
        let claim = NumberMention {
            value: 400.0,
            token_start: 0,
            token_end: 1,
            significant_digits: 1,
            decimal_places: 0,
            is_percentage: false,
            spelled_out: true,
            had_separator: false,
        };
        assert!(matches_claim(423.0, &claim));
        assert!(!matches_claim(470.0, &claim));
    }

    #[test]
    fn negative_results() {
        assert!(matches_value(-4.2, -4.0, 1, 0));
        assert!(!matches_value(-4.2, 4.0, 1, 0));
    }

    #[test]
    fn small_fractions() {
        assert!(matches_value(0.04567, 0.046, 2, 3));
        assert!(!matches_value(0.04567, 0.047, 2, 3));
    }

    #[test]
    fn trailing_zero_semantics_from_parser() {
        use agg_nlp::numbers::parse_number_mentions;
        use agg_nlp::tokenize::tokenize;
        // "4,300,000" states 2 significant digits.
        let m = &parse_number_mentions(&tokenize("about 4,300,000 users"))[0];
        assert_eq!(m.significant_digits, 2);
        assert!(matches_claim(4_283_456.0, m));
        assert!(!matches_claim(4_420_000.0, m));
    }
}
