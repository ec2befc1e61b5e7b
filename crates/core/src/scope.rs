//! Evaluation-scope selection — `PickScope` of Algorithm 4 (§6.1).
//!
//! Myriads of queries are possible; only fragments with sufficient marginal
//! probability enter candidate enumeration. The scope expands in descending
//! marginal-probability order — keyword score times the current prior —
//! until the cost model's budget is exhausted or the hard caps are reached.

use crate::config::ScopeConfig;
use crate::fragments::FragmentCatalog;
use crate::matching::ClaimScores;
use crate::model::Theta;
use agg_relational::CostModel;

/// The fragments admitted for one claim's candidate enumeration.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Catalog positions of admitted aggregation columns (always includes
    /// position 0, the `*` column).
    pub agg_columns: Vec<usize>,
    /// Admitted `(catalog predicate column, literal)` pairs, descending by
    /// marginal probability.
    pub predicate_pairs: Vec<(usize, usize)>,
}

/// Pick the evaluation scope for one claim.
///
/// `catalog` and `cost` are currently unused: every fragment is charged one
/// pass over `rows_hint` rows against the budget, whatever its cube would
/// cost. They stay in the signature for its callers.
pub fn pick_scope(
    _catalog: &FragmentCatalog,
    scores: &ClaimScores,
    theta: Option<&Theta>,
    _cost: &CostModel,
    rows_hint: usize,
    cfg: &ScopeConfig,
) -> Scope {
    let budget = cfg.budget_per_claim;
    let row_cost = rows_hint.max(1) as f64;
    let mut spent = 0.0f64;

    // --- Aggregation columns: rank by score × prior ----------------------
    let mut ranked_cols: Vec<(usize, f64)> = scores
        .agg_columns
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let prior = theta.map(|t| t.p_agg[i]).unwrap_or(1.0);
            (i, s * prior)
        })
        .collect();
    ranked_cols.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut agg_columns = vec![0usize]; // `*` is always in scope
    spent += row_cost;
    for (i, _) in ranked_cols {
        if i == 0 {
            continue;
        }
        if agg_columns.len() >= cfg.max_agg_columns || spent + row_cost > budget {
            break;
        }
        agg_columns.push(i);
        spent += row_cost;
    }

    // --- Predicate pairs: rank by score × restriction prior --------------
    let mut ranked_pairs: Vec<(usize, usize, f64)> = scores
        .scored_predicates()
        .into_iter()
        .map(|(c, l, s)| {
            let prior = theta.map(|t| t.p_restrict[c]).unwrap_or(1.0);
            (c, l, s * prior)
        })
        .collect();
    ranked_pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));

    let mut predicate_pairs: Vec<(usize, usize)> = Vec::new();
    // Admitted literals per predicate column, and how many columns have any.
    let mut per_column = vec![0usize; scores.predicates.len()];
    let mut columns_used = 0usize;
    for (c, l, _) in ranked_pairs {
        if spent + row_cost > budget {
            break;
        }
        let count = &mut per_column[c];
        if *count == 0 && columns_used >= cfg.max_predicate_columns {
            continue;
        }
        if *count >= cfg.max_literals_per_column {
            continue;
        }
        if *count == 0 {
            columns_used += 1;
        }
        *count += 1;
        predicate_pairs.push((c, l));
        spent += row_cost;
    }

    Scope {
        agg_columns,
        predicate_pairs,
    }
}

impl Scope {
    /// Number of admitted fragments (diagnostic).
    pub fn fragment_count(&self) -> usize {
        self.agg_columns.len() + self.predicate_pairs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragments::CatalogConfig;
    use crate::keywords::WeightedKeyword;
    use crate::matching::match_claim;
    use agg_nlp::stem::stem;
    use agg_relational::{Database, Table, Value};

    fn db() -> Database {
        let t = Table::from_columns(
            "teams",
            vec![
                (
                    "color",
                    vec!["red".into(), "blue".into(), "green".into(), "white".into()],
                ),
                (
                    "flavor",
                    vec!["sweet".into(), "sour".into(), "salty".into(), "mild".into()],
                ),
                (
                    "num",
                    vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)],
                ),
            ],
        )
        .unwrap();
        let mut d = Database::new("d");
        d.add_table(t);
        d
    }

    fn kw(term: &str, weight: f64) -> WeightedKeyword {
        WeightedKeyword {
            term: stem(term),
            weight,
            source: crate::keywords::KeywordSource::ClaimSentence,
        }
    }

    #[test]
    fn star_is_always_in_scope() {
        let d = db();
        let cat = FragmentCatalog::build(&d, &CatalogConfig::default());
        let scores = match_claim(&cat, &[], 20);
        let scope = pick_scope(
            &cat,
            &scores,
            None,
            &CostModel::new(&d),
            d.total_rows(),
            &ScopeConfig::default(),
        );
        assert!(scope.agg_columns.contains(&0));
    }

    #[test]
    fn caps_limit_scope() {
        let d = db();
        let cat = FragmentCatalog::build(&d, &CatalogConfig::default());
        let scores = match_claim(&cat, &[kw("color", 1.0), kw("flavor", 0.9)], 30);
        let tight = ScopeConfig {
            max_agg_columns: 1,
            max_predicate_columns: 1,
            max_literals_per_column: 2,
            ..Default::default()
        };
        let scope = pick_scope(
            &cat,
            &scores,
            None,
            &CostModel::new(&d),
            d.total_rows(),
            &tight,
        );
        assert_eq!(scope.agg_columns, vec![0]);
        let cols: std::collections::HashSet<usize> =
            scope.predicate_pairs.iter().map(|(c, _)| *c).collect();
        assert!(cols.len() <= 1);
        assert!(scope.predicate_pairs.len() <= 2);
    }

    #[test]
    fn budget_limits_scope() {
        let d = db();
        let cat = FragmentCatalog::build(&d, &CatalogConfig::default());
        let scores = match_claim(&cat, &[kw("color", 1.0)], 30);
        let starving = ScopeConfig {
            budget_per_claim: 4.0, // one row-cost unit for `*` only
            ..Default::default()
        };
        let scope = pick_scope(
            &cat,
            &scores,
            None,
            &CostModel::new(&d),
            d.total_rows(),
            &starving,
        );
        assert_eq!(scope.fragment_count(), 1, "only `*` fits the budget");
    }

    #[test]
    fn priors_reorder_predicates() {
        let d = db();
        let cat = FragmentCatalog::build(&d, &CatalogConfig::default());
        // Equal keyword pull on both columns.
        let scores = match_claim(&cat, &[kw("color", 1.0), kw("flavor", 1.0)], 30);
        let mut theta = Theta::uniform(
            cat.functions.len(),
            cat.agg_columns.len(),
            cat.predicate_columns.len(),
        );
        // Find the catalog position of column "flavor" and boost it.
        let flavor_pos = cat
            .predicate_columns
            .iter()
            .position(|c| d.short_column_name(*c) == "flavor")
            .unwrap();
        theta.p_restrict[flavor_pos] = 0.9;
        let color_pos = cat
            .predicate_columns
            .iter()
            .position(|c| d.short_column_name(*c) == "color")
            .unwrap();
        theta.p_restrict[color_pos] = 0.01;
        let scope = pick_scope(
            &cat,
            &scores,
            Some(&theta),
            &CostModel::new(&d),
            d.total_rows(),
            &ScopeConfig::default(),
        );
        let first_col = scope.predicate_pairs.first().map(|(c, _)| *c);
        assert_eq!(first_col, Some(flavor_pos), "prior must dominate ordering");
    }
}
