//! Aggregate accumulators.
//!
//! [`Accumulator`] covers the value-based aggregates (`Count`,
//! `CountDistinct`, `Sum`, `Avg`, `Min`, `Max`, `Median`). The two ratio aggregates
//! (`Percentage`, `ConditionalProbability`) are *derived* from counts of row
//! subsets — the executor and the cube operator compute them from `Count`
//! results per footnote 1 of the paper.

use crate::fxhash::FxHashSet;
use crate::query::AggFunction;

/// Streaming accumulator for one aggregate over one row group.
#[derive(Debug, Clone)]
pub enum Accumulator {
    Count(u64),
    /// Distinct group codes of the aggregated column.
    CountDistinct(FxHashSet<u64>),
    Sum {
        sum: f64,
        n: u64,
    },
    Avg {
        sum: f64,
        n: u64,
    },
    Min(Option<f64>),
    Max(Option<f64>),
    /// Collects values; the median is computed on finish. Memory is bounded
    /// by group size — acceptable for the engine's in-memory scale.
    Median(Vec<f64>),
}

impl Accumulator {
    /// A fresh accumulator for the given function.
    ///
    /// Ratio aggregates have no accumulator of their own; callers must
    /// accumulate counts instead (see module docs). Requesting one here is a
    /// programming error.
    pub fn new(function: AggFunction) -> Accumulator {
        match function {
            AggFunction::Count => Accumulator::Count(0),
            AggFunction::CountDistinct => Accumulator::CountDistinct(FxHashSet::default()),
            AggFunction::Sum => Accumulator::Sum { sum: 0.0, n: 0 },
            AggFunction::Avg => Accumulator::Avg { sum: 0.0, n: 0 },
            AggFunction::Min => Accumulator::Min(None),
            AggFunction::Max => Accumulator::Max(None),
            AggFunction::Median => Accumulator::Median(Vec::new()),
            AggFunction::Percentage | AggFunction::ConditionalProbability => {
                panic!("ratio aggregates are derived from counts, not accumulated directly")
            }
        }
    }

    /// Fold one row into the accumulator.
    ///
    /// * `numeric` — the aggregation column's numeric value (`None` for NULL
    ///   cells, string cells, or `*`).
    /// * `group_code` — an equality-comparable code for the aggregation
    ///   column's value (`None` for NULL or `*`); only `CountDistinct` uses it.
    /// * `non_null` — whether the aggregation column's cell is non-NULL
    ///   (`true` for `*`). `Count` counts rows with `non_null`.
    #[inline]
    pub fn update(&mut self, numeric: Option<f64>, group_code: Option<u64>, non_null: bool) {
        match self {
            Accumulator::Count(c) => {
                if non_null {
                    *c += 1;
                }
            }
            Accumulator::CountDistinct(set) => {
                if let Some(code) = group_code {
                    set.insert(code);
                }
            }
            Accumulator::Sum { sum, n } | Accumulator::Avg { sum, n } => {
                if let Some(v) = numeric {
                    *sum += v;
                    *n += 1;
                }
            }
            Accumulator::Min(m) => {
                if let Some(v) = numeric {
                    *m = Some(m.map_or(v, |cur| cur.min(v)));
                }
            }
            Accumulator::Max(m) => {
                if let Some(v) = numeric {
                    *m = Some(m.map_or(v, |cur| cur.max(v)));
                }
            }
            Accumulator::Median(values) => {
                if let Some(v) = numeric {
                    values.push(v);
                }
            }
        }
    }

    /// Merge another accumulator of the same kind (used by cube rollups).
    /// Panics on kind mismatch.
    pub fn merge(&mut self, other: &Accumulator) {
        match (self, other) {
            (Accumulator::Count(a), Accumulator::Count(b)) => *a += b,
            (Accumulator::CountDistinct(a), Accumulator::CountDistinct(b)) => {
                a.extend(b.iter().copied())
            }
            (Accumulator::Sum { sum: s1, n: n1 }, Accumulator::Sum { sum: s2, n: n2 })
            | (Accumulator::Avg { sum: s1, n: n1 }, Accumulator::Avg { sum: s2, n: n2 }) => {
                *s1 += s2;
                *n1 += n2;
            }
            (Accumulator::Min(a), Accumulator::Min(b)) => {
                if let Some(v) = b {
                    *a = Some(a.map_or(*v, |cur| cur.min(*v)));
                }
            }
            (Accumulator::Max(a), Accumulator::Max(b)) => {
                if let Some(v) = b {
                    *a = Some(a.map_or(*v, |cur| cur.max(*v)));
                }
            }
            (Accumulator::Median(a), Accumulator::Median(b)) => {
                a.extend_from_slice(b);
            }
            _ => panic!("cannot merge accumulators of different kinds"),
        }
    }

    /// Final aggregate value. SQL semantics: `Count` of an empty group is 0;
    /// `Sum`/`Avg`/`Min`/`Max` of an empty group are NULL (`None`).
    pub fn finish(&self) -> Option<f64> {
        match self {
            Accumulator::Count(c) => Some(*c as f64),
            Accumulator::CountDistinct(set) => Some(set.len() as f64),
            Accumulator::Sum { sum, n } => (*n > 0).then_some(*sum),
            Accumulator::Avg { sum, n } => (*n > 0).then_some(*sum / *n as f64),
            Accumulator::Min(m) => *m,
            Accumulator::Max(m) => *m,
            Accumulator::Median(values) => median_in_place(&mut values.clone()),
        }
    }
}

/// The median of `values` under [`f64::total_cmp`], reordering the slice;
/// `None` when it is empty. Values that compare equal under the total
/// order are bit-identical, so the result is a function of the multiset
/// alone — not of row or merge order, even for `±0.0` ties or NaN.
pub(crate) fn median_in_place(values: &mut [f64]) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let (below, &mut upper, _) = values.select_nth_unstable_by(n / 2, f64::total_cmp);
    if n % 2 == 1 {
        return Some(upper);
    }
    let lower = below.iter().copied().max_by(f64::total_cmp);
    lower.map(|lower| (lower + upper) / 2.0)
}

/// Derive a ratio aggregate from counts (footnote 1 of the paper).
///
/// * `Percentage`: `100 · full / base`, where `full` is the count under all
///   predicates and `base` the count with no predicates.
/// * `ConditionalProbability`: `100 · full / condition`, where `condition`
///   is the count under the first predicate only.
pub fn ratio_from_counts(numerator: f64, denominator: f64) -> Option<f64> {
    (denominator > 0.0).then_some(100.0 * numerator / denominator)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_counts_non_null_rows() {
        let mut a = Accumulator::new(AggFunction::Count);
        a.update(None, None, true);
        a.update(None, None, true);
        a.update(None, None, false); // NULL aggregation cell
        assert_eq!(a.finish(), Some(2.0));
    }

    #[test]
    fn count_distinct_uses_group_codes() {
        let mut a = Accumulator::new(AggFunction::CountDistinct);
        for code in [1u64, 2, 2, 3, 3, 3] {
            a.update(None, Some(code), true);
        }
        a.update(None, None, false);
        assert_eq!(a.finish(), Some(3.0));
    }

    #[test]
    fn sum_and_avg_skip_nulls() {
        let mut s = Accumulator::new(AggFunction::Sum);
        let mut m = Accumulator::new(AggFunction::Avg);
        for v in [1.0, 2.0, 3.0] {
            s.update(Some(v), None, true);
            m.update(Some(v), None, true);
        }
        s.update(None, None, false);
        m.update(None, None, false);
        assert_eq!(s.finish(), Some(6.0));
        assert_eq!(m.finish(), Some(2.0));
    }

    #[test]
    fn empty_groups_follow_sql_semantics() {
        assert_eq!(Accumulator::new(AggFunction::Count).finish(), Some(0.0));
        assert_eq!(Accumulator::new(AggFunction::Sum).finish(), None);
        assert_eq!(Accumulator::new(AggFunction::Avg).finish(), None);
        assert_eq!(Accumulator::new(AggFunction::Min).finish(), None);
        assert_eq!(Accumulator::new(AggFunction::Max).finish(), None);
    }

    #[test]
    fn min_max_track_extremes() {
        let mut mn = Accumulator::new(AggFunction::Min);
        let mut mx = Accumulator::new(AggFunction::Max);
        for v in [5.0, -1.0, 3.0] {
            mn.update(Some(v), None, true);
            mx.update(Some(v), None, true);
        }
        assert_eq!(mn.finish(), Some(-1.0));
        assert_eq!(mx.finish(), Some(5.0));
    }

    #[test]
    fn merge_is_consistent_with_streaming() {
        let values = [1.0, 4.0, 2.0, 8.0, 5.0];
        for f in [
            AggFunction::Count,
            AggFunction::CountDistinct,
            AggFunction::Sum,
            AggFunction::Avg,
            AggFunction::Min,
            AggFunction::Max,
        ] {
            let mut whole = Accumulator::new(f);
            let mut left = Accumulator::new(f);
            let mut right = Accumulator::new(f);
            for (i, v) in values.iter().enumerate() {
                whole.update(Some(*v), Some(v.to_bits()), true);
                let half = if i < 2 { &mut left } else { &mut right };
                half.update(Some(*v), Some(v.to_bits()), true);
            }
            left.merge(&right);
            assert_eq!(left.finish(), whole.finish(), "function {f}");
        }
    }

    #[test]
    fn median_is_a_function_of_the_multiset() {
        let median = |values: &[f64]| {
            let mut acc = Accumulator::new(AggFunction::Median);
            for v in values {
                acc.update(Some(*v), None, true);
            }
            acc.finish().map(f64::to_bits)
        };
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0f64.to_bits()));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5f64.to_bits()));
        // A ±0 tie: the total order puts -0.0 first, whatever the row order.
        let zero = Some(0.0f64.to_bits());
        assert_eq!(median(&[0.0, -0.0, 0.0]), zero);
        assert_eq!(median(&[-0.0, 0.0, 0.0]), zero);
        assert_eq!(median(&[0.0, 0.0, -0.0]), zero);
        let neg = Some((-0.0f64).to_bits());
        assert_eq!(median(&[-0.0, 0.0, -0.0]), neg);
        assert_eq!(median(&[0.0, -0.0, -0.0]), neg);
        // NaN sorts above every number, so it no longer scrambles the order.
        assert_eq!(median(&[f64::NAN, 1.0, 5.0]), Some(5.0f64.to_bits()));
        assert_eq!(median(&[5.0, f64::NAN, 1.0]), Some(5.0f64.to_bits()));
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn merging_mismatched_kinds_panics() {
        let mut a = Accumulator::new(AggFunction::Count);
        a.merge(&Accumulator::new(AggFunction::Sum));
    }

    #[test]
    #[should_panic(expected = "ratio aggregates")]
    fn ratio_aggregates_have_no_accumulator() {
        let _ = Accumulator::new(AggFunction::Percentage);
    }

    #[test]
    fn ratio_from_counts_handles_zero_denominator() {
        assert_eq!(ratio_from_counts(1.0, 4.0), Some(25.0));
        assert_eq!(ratio_from_counts(1.0, 0.0), None);
    }
}
