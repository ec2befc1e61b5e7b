//! A simple evaluation cost model (§6.1).
//!
//! `PickScope` in the paper *"uses a cost model that takes into account the
//! size of the database as well as the number of claims to verify"* and
//! expands the evaluation scope, prioritizing likely alternatives, until the
//! estimated cost reaches a threshold. This module provides those estimates.
//!
//! Costs are in abstract *work units* roughly proportional to cells touched:
//! scanning R rows with d cube dimensions and a aggregates costs
//! `R · (d + a)`, plus rollup work proportional to the number of finest
//! groups times `2^d`.

use crate::cube::CubeQuery;
use crate::database::{ColumnRef, Database};

/// Cost model over a fixed database.
#[derive(Debug, Clone)]
pub struct CostModel {
    row_counts: Vec<usize>,
}

impl CostModel {
    pub fn new(db: &Database) -> Self {
        Self {
            row_counts: db.tables().iter().map(|t| t.row_count()).collect(),
        }
    }

    /// Estimated output rows of an equi-join over `tables`. PK-FK joins do
    /// not multiply cardinalities: the fact side bounds the output, so we
    /// use the maximum member size.
    pub fn join_rows(&self, tables: &[usize]) -> usize {
        tables
            .iter()
            .map(|&t| self.row_counts.get(t).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
    }

    /// Estimated cost of one cube execution.
    pub fn cube_cost(&self, cube: &CubeQuery) -> f64 {
        let rows = self.join_rows(&cube.tables_referenced()) as f64;
        let d = cube.dims.len() as f64;
        let a = cube.aggregates.len() as f64;
        // Finest group estimate: product of (relevant literals + OTHER).
        let finest: f64 = cube
            .relevant
            .iter()
            .map(|lits| (lits.len() + 1) as f64)
            .product();
        let rollup = finest * (2f64).powi(cube.dims.len() as i32);
        rows * (d + a) + rollup
    }

    /// Estimated cost of evaluating one simple aggregate query naively.
    pub fn naive_query_cost(&self, tables: &[usize], n_predicates: usize) -> f64 {
        self.join_rows(tables) as f64 * (n_predicates as f64 + 1.0)
    }

    /// A scope budget scaled to the document: the paper evaluates tens of
    /// thousands of candidates per article, so the default budget allows
    /// roughly `budget_per_claim` work units per claim.
    pub fn scope_budget(&self, n_claims: usize, budget_per_claim: f64) -> f64 {
        (n_claims.max(1) as f64) * budget_per_claim
    }

    /// Estimated cost of grouping on `dims` over the whole database (used
    /// when ranking which predicate columns to admit into the scope).
    pub fn dims_cost(&self, db: &Database, dims: &[ColumnRef]) -> f64 {
        let tables: Vec<usize> = {
            let mut t: Vec<usize> = dims.iter().map(|d| d.table).collect();
            t.sort_unstable();
            t.dedup();
            if t.is_empty() {
                t.push(0);
            }
            t
        };
        let rows = self.join_rows(&tables) as f64;
        let distinct: f64 = dims
            .iter()
            .map(|d| db.column(*d).distinct_count().max(1) as f64)
            .product::<f64>()
            .min(rows.max(1.0));
        rows + distinct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{AggColumn, AggFunction};
    use crate::table::Table;
    use crate::value::Value;

    fn db() -> Database {
        let big = Table::from_columns(
            "big",
            vec![("x", (0..1000).map(Value::Int).collect::<Vec<_>>())],
        )
        .unwrap();
        let small = Table::from_columns("small", vec![("y", vec![Value::Int(1)])]).unwrap();
        let mut db = Database::new("d");
        db.add_table(big);
        db.add_table(small);
        db
    }

    #[test]
    fn join_rows_uses_largest_member() {
        let m = CostModel::new(&db());
        assert_eq!(m.join_rows(&[0]), 1000);
        assert_eq!(m.join_rows(&[0, 1]), 1000);
        assert_eq!(m.join_rows(&[1]), 1);
    }

    #[test]
    fn cube_cost_grows_with_dims_and_aggregates() {
        let d = db();
        let m = CostModel::new(&d);
        let x = d.resolve("big", "x").unwrap();
        let one_dim = CubeQuery {
            dims: vec![x],
            relevant: vec![vec![Value::Int(1)].into()],
            aggregates: vec![(AggFunction::Count, AggColumn::Star)],
        };
        let two_dim = CubeQuery {
            dims: vec![x, x],
            relevant: vec![vec![Value::Int(1)].into(), vec![Value::Int(2)].into()],
            aggregates: vec![
                (AggFunction::Count, AggColumn::Star),
                (AggFunction::Sum, AggColumn::Column(x)),
            ],
        };
        assert!(m.cube_cost(&two_dim) > m.cube_cost(&one_dim));
    }

    #[test]
    fn scope_budget_scales_with_claims() {
        let m = CostModel::new(&db());
        assert!(m.scope_budget(10, 1e5) > m.scope_budget(2, 1e5));
        assert_eq!(m.scope_budget(0, 1e5), 1e5, "at least one claim's worth");
    }

    #[test]
    fn naive_cost_scales_with_predicates() {
        let m = CostModel::new(&db());
        assert!(m.naive_query_cost(&[0], 3) > m.naive_query_cost(&[0], 1));
    }
}
