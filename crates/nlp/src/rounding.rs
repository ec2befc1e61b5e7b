//! Rounding-aware value matching (Definition 1 of the paper).
//!
//! A claim is correct if an *admissible rounding function* maps the exact
//! query result to the claimed value; the paper admits rounding to any
//! number of significant digits. The claimed value's own stated precision
//! (significant digits, decimal places) bounds the comparison.
//!
//! This lives in `agg-nlp` because the claimed value's precision is a
//! property of how the number was *written* — both the checker core and
//! the corpus generator (which must label its claims exactly as the
//! checker would judge them) depend on it.

use crate::numbers::NumberMention;

/// Round `x` to `digits` significant digits.
pub fn round_significant(x: f64, digits: u32) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let digits = digits.max(1) as i32;
    let magnitude = x.abs().log10().floor() as i32;
    let factor = 10f64.powi(digits - 1 - magnitude);
    (x * factor).round() / factor
}

/// Round `x` to `places` decimal places.
pub fn round_decimals(x: f64, places: u32) -> f64 {
    let factor = 10f64.powi(places.min(12) as i32);
    (x * factor).round() / factor
}

/// Does a query result match a claimed number under admissible rounding?
/// Accepts a match at the claim's significant-digit count or at its stated
/// decimal places.
pub fn matches_value(
    result: f64,
    claimed: f64,
    significant_digits: u32,
    decimal_places: u32,
) -> bool {
    if !result.is_finite() || !claimed.is_finite() {
        return false;
    }
    if approx_eq(result, claimed) {
        return true;
    }
    if approx_eq(round_significant(result, significant_digits), claimed) {
        return true;
    }
    approx_eq(round_decimals(result, decimal_places), claimed)
}

/// [`matches_value`] for a parsed [`NumberMention`].
pub fn matches_claim(result: f64, claim: &NumberMention) -> bool {
    matches_value(
        result,
        claim.value,
        claim.significant_digits,
        claim.decimal_places,
    )
}

/// [`matches_claim`] for one claim against many results: the claim's
/// precision is turned once into an interval no matching result can lie
/// outside, so a far-off result costs two comparisons instead of a `log10`
/// and two `powi`; inside the interval [`matches_value`] decides, so the
/// two agree on every input by construction.
///
/// The interval is the hull of what each admissible rounding can reach,
/// around the claimed value `c`, with `s` the slack `approx_eq` grants:
/// exact `|r − c| ≤ s`; decimal places `|r − c| ≤ 0.5·10^(−dp) + s`;
/// significant digits `|r − c| ≤ e·|r| + s` with `e = 0.5·10^(1−sd)`, i.e.
/// `|r|` between `(|c| − s)/(1 + e)` and `(|c| + s)/(1 − e)`, and — when
/// `|c| ≤ s` — a result of the other sign no larger than `2s`. `e` and `s`
/// are padded far beyond the rounding error of the functions above.
#[derive(Debug, Clone, Copy)]
pub struct ClaimMatcher {
    claimed: f64,
    significant_digits: u32,
    decimal_places: u32,
    lo: f64,
    hi: f64,
}

impl ClaimMatcher {
    pub fn new(claim: &NumberMention) -> ClaimMatcher {
        let claimed = claim.value;
        let (lo, hi) = if claimed.is_finite() {
            let a = claimed.abs();
            let s = 1e-8 * a + 1e-8;
            let e =
                0.5 * 10f64.powi(1 - claim.significant_digits.clamp(1, 32) as i32) * (1.0 + 1e-9);
            let dec = 0.5 * 10f64.powi(-(claim.decimal_places.min(12) as i32)) * (1.0 + 1e-9);
            let near = ((a - s) / (1.0 + e) - 2.0 * s).min(a - dec - s);
            let far = ((a + s) / (1.0 - e)).max(a + dec + s);
            if claimed >= 0.0 {
                (near, far)
            } else {
                (-far, -near)
            }
        } else {
            // Nothing matches a non-finite claim: the empty interval.
            (f64::INFINITY, f64::NEG_INFINITY)
        };
        ClaimMatcher {
            claimed,
            significant_digits: claim.significant_digits,
            decimal_places: claim.decimal_places,
            lo,
            hi,
        }
    }

    /// Does `result` match the claim under admissible rounding?
    #[inline]
    pub fn matches(&self, result: f64) -> bool {
        // NaN fails both comparisons, like it fails `matches_value`.
        result >= self.lo
            && result <= self.hi
            && matches_value(
                result,
                self.claimed,
                self.significant_digits,
                self.decimal_places,
            )
    }
}

fn approx_eq(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs());
    if scale < 1e-9 {
        return (a - b).abs() < 1e-9;
    }
    ((a - b) / scale).abs() < 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn significant_rounding() {
        assert_eq!(round_significant(423.0, 1), 400.0);
        assert_eq!(round_significant(0.0456, 2), 0.046);
        assert_eq!(round_significant(-37.0, 1), -40.0);
    }

    #[test]
    fn matching_respects_precision() {
        assert!(matches_value(423.0, 400.0, 1, 0));
        assert!(!matches_value(470.0, 400.0, 1, 0));
        assert!(matches_value(66.6667, 67.0, 2, 0));
        assert!(!matches_value(66.6667, 66.0, 2, 0));
    }

    fn mention(value: f64, significant_digits: u32, decimal_places: u32) -> NumberMention {
        NumberMention {
            value,
            token_start: 0,
            token_end: 1,
            significant_digits,
            decimal_places,
            is_percentage: false,
            spelled_out: false,
            had_separator: false,
        }
    }

    #[test]
    fn claim_matcher_decides_like_matches_claim() {
        for claim in [
            mention(400.0, 1, 0),
            mention(67.0, 2, 0),
            mention(-12.5, 3, 1),
            mention(0.0, 1, 0),
            mention(f64::NAN, 1, 0),
        ] {
            let matcher = ClaimMatcher::new(&claim);
            for r in [
                423.0,
                470.0,
                349.9,
                350.0,
                66.6667,
                66.4,
                -12.46,
                -12.54,
                0.4,
                -0.4,
                0.6,
                1e300,
                f64::NAN,
                f64::INFINITY,
            ] {
                assert_eq!(
                    matcher.matches(r),
                    matches_claim(r, &claim),
                    "{r} vs {claim:?}"
                );
            }
        }
        // Far-off results never reach the rounding functions.
        let matcher = ClaimMatcher::new(&mention(400.0, 1, 0));
        assert!(matcher.hi < 1000.0 && matcher.lo > 100.0);
    }

    #[test]
    fn non_finite_never_matches() {
        assert!(!matches_value(f64::NAN, 1.0, 1, 0));
        assert!(!matches_value(1.0, f64::INFINITY, 1, 0));
    }
}
