//! Query fragments and their keyword index (§4.2 of the paper).
//!
//! When a database is loaded, the catalog forms every potentially relevant
//! query fragment:
//!
//! * **aggregation functions** — the eight supported functions, each with a
//!   fixed keyword set;
//! * **aggregation columns** — `*` plus every numeric column, with keywords
//!   from the (decomposed) column name, the table name, synonym-free
//!   dictionary words, and the data-dictionary description if present;
//! * **equality predicates** — one fragment per `(column, literal)` pair,
//!   with keywords from the column and the literal's text.
//!
//! Keyword bags are indexed in three IR indexes (one per fragment
//! category), queried per claim by [`crate::matching`].

use crate::textutil::{is_stopword, keyword_terms};
use agg_ir::{Index, IndexBuilder};
use agg_nlp::stem::stem;
use agg_nlp::wordbreak::decompose_identifier;
use agg_relational::{AggColumn, AggFunction, ColumnRef, Database, Literals, Value};

/// Index-time limits.
#[derive(Debug, Clone, Copy)]
pub struct CatalogConfig {
    /// Cap on distinct literals indexed per predicate column.
    pub max_literals_per_column: usize,
    /// Numeric columns become predicate columns only when their distinct
    /// count is at most this (years, ratings, … — not free-form measures).
    pub numeric_predicate_max_distinct: usize,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        Self {
            max_literals_per_column: 5000,
            numeric_predicate_max_distinct: 60,
        }
    }
}

/// All query fragments of a database plus their keyword indexes.
pub struct FragmentCatalog {
    /// The eight aggregation functions, in [`AggFunction::ALL`] order.
    pub functions: Vec<AggFunction>,
    /// `*` first, then every column. Numeric columns serve every function;
    /// categorical columns only count-like ones (the paper's Table 9
    /// ground truth includes `CountDistinct(Recipient)` over a string
    /// column, so aggregation columns cannot be numeric-only).
    pub agg_columns: Vec<AggColumn>,
    /// Whether each aggregation column is numeric (aligned with
    /// `agg_columns`; `*` counts as non-numeric).
    pub agg_col_numeric: Vec<bool>,
    /// Columns usable in equality predicates.
    pub predicate_columns: Vec<ColumnRef>,
    /// Distinct literals per predicate column (aligned with
    /// `predicate_columns`). Every list is value-distinct and free of
    /// self-unequal values (NaN), so a literal's position *is* its index in
    /// any cube built over the list; the lists are shared with those cubes
    /// rather than copied into them.
    pub literals: Vec<Literals>,
    fn_index: Index,
    col_index: Index,
    pred_index: Index,
    /// Maps predicate-index doc ids to `(column position, literal position)`.
    pred_docs: Vec<(u32, u32)>,
}

impl FragmentCatalog {
    /// Build the catalog for a database.
    pub fn build(db: &Database, config: &CatalogConfig) -> FragmentCatalog {
        // --- Aggregation functions --------------------------------------
        let functions: Vec<AggFunction> = AggFunction::ALL.to_vec();
        let mut fn_builder = IndexBuilder::new();
        for f in &functions {
            let terms: Vec<(String, f32)> = f.keywords().iter().map(|k| (stem(k), 1.0)).collect();
            fn_builder.add_document(terms.iter().map(|(t, w)| (t.as_str(), *w)));
        }

        // --- Aggregation columns ----------------------------------------
        let mut agg_columns = vec![AggColumn::Star];
        let mut agg_col_numeric = vec![false];
        for col in db.all_columns() {
            agg_columns.push(AggColumn::Column(col));
            agg_col_numeric.push(db.column(col).is_numeric());
        }
        let mut col_builder = IndexBuilder::new();
        for col in &agg_columns {
            let terms = match col {
                AggColumn::Star => star_keywords(db),
                AggColumn::Column(c) => column_keywords(db, *c),
            };
            col_builder.add_document(terms.iter().map(|(t, w)| (t.as_str(), *w)));
        }

        // --- Equality predicates ----------------------------------------
        let mut predicate_columns = Vec::new();
        let mut literals: Vec<Literals> = Vec::new();
        for col in db.all_columns() {
            let data = db.column(col);
            let col_literals: Literals = match data {
                agg_relational::ColumnData::Str { .. } => data
                    .dictionary()
                    .expect("string column has dictionary")
                    .iter()
                    .take(config.max_literals_per_column)
                    .map(|(_, s)| Value::Str(s.to_string()))
                    .collect(),
                _ => {
                    if data.distinct_count() > config.numeric_predicate_max_distinct {
                        continue;
                    }
                    distinct_numeric_literals(data, config.max_literals_per_column)
                }
            };
            if col_literals.is_empty() {
                continue;
            }
            predicate_columns.push(col);
            literals.push(col_literals);
        }

        let mut pred_builder = IndexBuilder::new();
        let mut pred_docs = Vec::new();
        for (ci, (col, lits)) in predicate_columns.iter().zip(&literals).enumerate() {
            let col_terms = column_keywords(db, *col);
            for (li, lit) in lits.iter().enumerate() {
                let mut terms: Vec<(String, f32)> = col_terms
                    .iter()
                    .map(|(t, w)| (t.clone(), w * 0.7))
                    .collect();
                terms.extend(literal_keywords(lit));
                pred_builder.add_document(terms.iter().map(|(t, w)| (t.as_str(), *w)));
                pred_docs.push((ci as u32, li as u32));
            }
        }

        FragmentCatalog {
            functions,
            agg_columns,
            agg_col_numeric,
            predicate_columns,
            literals,
            fn_index: fn_builder.build(),
            col_index: col_builder.build(),
            pred_index: pred_builder.build(),
            pred_docs,
        }
    }

    pub fn fn_index(&self) -> &Index {
        &self.fn_index
    }

    pub fn col_index(&self) -> &Index {
        &self.col_index
    }

    pub fn pred_index(&self) -> &Index {
        &self.pred_index
    }

    /// Resolve a predicate-index document id.
    pub fn pred_doc(&self, doc: u32) -> (usize, usize) {
        let (c, l) = self.pred_docs[doc as usize];
        (c as usize, l as usize)
    }

    /// Total number of predicate fragments.
    pub fn predicate_fragment_count(&self) -> usize {
        self.pred_docs.len()
    }

    /// The number of *simple aggregate queries* expressible over this
    /// database (Figure 8 of the paper): every function × aggregation
    /// column × choice of at most one literal per predicate column.
    /// Returned as `f64` — real data sets reach beyond 10¹².
    pub fn candidate_space(&self) -> f64 {
        let combos: f64 = self.literals.iter().map(|l| 1.0 + l.len() as f64).product();
        self.functions.len() as f64 * self.agg_columns.len() as f64 * combos
    }

    /// Log₁₀ of [`Self::candidate_space`] (safe for astronomically large
    /// spaces).
    pub fn candidate_space_log10(&self) -> f64 {
        let log_combos: f64 = self
            .literals
            .iter()
            .map(|l| (1.0 + l.len() as f64).log10())
            .sum();
        (self.functions.len() as f64).log10() + (self.agg_columns.len() as f64).log10() + log_combos
    }
}

/// Position of an aggregation function in a catalog's function list.
pub fn fn_position(catalog: &FragmentCatalog, f: AggFunction) -> Option<usize> {
    catalog.functions.iter().position(|g| *g == f)
}

/// Keywords for the `*` aggregation column: the table names plus generic
/// row-count vocabulary.
fn star_keywords(db: &Database) -> Vec<(String, f32)> {
    let mut terms: Vec<(String, f32)> = Vec::new();
    for t in db.tables() {
        for w in decompose_identifier(t.name()) {
            if !is_stopword(&w) {
                terms.push((stem(&w), 0.8));
            }
        }
    }
    for w in ["row", "record", "entry", "case", "instance", "all"] {
        terms.push((stem(w), 0.5));
    }
    terms
}

/// Keywords for a concrete column: decomposed column name (weight 1),
/// table name (0.5), and data-dictionary description terms (0.6).
fn column_keywords(db: &Database, col: ColumnRef) -> Vec<(String, f32)> {
    let table = &db.tables()[col.table];
    let meta = &table.schema.columns[col.column];
    let mut terms: Vec<(String, f32)> = Vec::new();
    for w in decompose_identifier(&meta.name) {
        if !is_stopword(&w) {
            terms.push((stem(&w), 1.0));
        }
    }
    for w in decompose_identifier(table.name()) {
        if !is_stopword(&w) {
            terms.push((stem(&w), 0.5));
        }
    }
    if let Some(desc) = &meta.description {
        for term in keyword_terms(desc) {
            terms.push((term, 0.6));
        }
    }
    terms
}

/// Keywords for a literal value: its words (stemmed) and digit strings.
fn literal_keywords(value: &Value) -> Vec<(String, f32)> {
    let text = match value {
        Value::Str(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Null => return Vec::new(),
    };
    let mut terms: Vec<(String, f32)> =
        keyword_terms(&text).into_iter().map(|t| (t, 1.0)).collect();
    // Also decompose identifier-ish literals ("self-taught", "substance_abuse").
    for w in decompose_identifier(&text) {
        let s = stem(&w);
        if !is_stopword(&w) && !terms.iter().any(|(t, _)| *t == s) {
            terms.push((s, 0.8));
        }
    }
    terms
}

fn distinct_numeric_literals(data: &agg_relational::ColumnData, cap: usize) -> Literals {
    let mut seen = std::collections::BTreeSet::new();
    for row in 0..data.len() {
        // NaN equals no literal and -0.0 equals 0.0: neither may add an
        // entry, or the list would not be value-distinct.
        if let Some(v) = data.get_f64(row).filter(|v| !v.is_nan()) {
            // Store integral values as ints for clean display.
            let bits = (v + 0.0).to_bits();
            seen.insert(bits);
            if seen.len() >= cap {
                break;
            }
        }
    }
    seen.into_iter()
        .map(|bits| {
            let v = f64::from_bits(bits);
            if v.fract() == 0.0 && v.abs() < i64::MAX as f64 {
                Value::Int(v as i64)
            } else {
                Value::Float(v)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_ir::Scorer;
    use agg_relational::Table;

    fn nfl_db() -> Database {
        let mut t = Table::from_columns(
            "nflsuspensions",
            vec![
                (
                    "games",
                    vec!["indef".into(), "indef".into(), "10".into(), "4".into()],
                ),
                (
                    "category",
                    vec![
                        "gambling".into(),
                        "substance abuse, repeated offense".into(),
                        "peds".into(),
                        "personal conduct".into(),
                    ],
                ),
                (
                    "year",
                    vec![
                        Value::Int(1983),
                        Value::Int(1989),
                        Value::Int(2014),
                        Value::Int(2014),
                    ],
                ),
            ],
        )
        .unwrap();
        t.schema.columns[0].description =
            Some("number of games suspended, indef for lifetime bans".into());
        let mut db = Database::new("nfl");
        db.add_table(t);
        db
    }

    #[test]
    fn catalog_enumerates_fragments() {
        let db = nfl_db();
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        assert_eq!(cat.functions.len(), 9);
        // Star + games + category + year.
        assert_eq!(cat.agg_columns.len(), 4);
        assert_eq!(cat.agg_col_numeric, vec![false, false, false, true]);
        // games, category (strings) + year (low-cardinality numeric).
        assert_eq!(cat.predicate_columns.len(), 3);
        // games: {indef, 10, 4}; category: 4 values; year: {1983, 1989, 2014}.
        let total: usize = cat.literals.iter().map(|l| l.len()).sum();
        assert_eq!(total, 3 + 4 + 3);
        assert_eq!(cat.predicate_fragment_count(), total);
    }

    #[test]
    fn candidate_space_counts_combinations() {
        let db = nfl_db();
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        // 9 fns × 4 agg cols × (1+3)(1+4)(1+3) combos = 9 × 4 × 80 = 2880.
        assert_eq!(cat.candidate_space(), 2880.0);
        assert!((cat.candidate_space_log10() - 2880f64.log10()).abs() < 1e-9);
    }

    #[test]
    fn predicate_search_finds_gambling() {
        let db = nfl_db();
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        let hits =
            cat.pred_index()
                .search([(stem("gambling").as_str(), 1.0f32)], 5, Scorer::default());
        assert!(!hits.is_empty());
        let (col, lit) = cat.pred_doc(hits[0].doc);
        assert_eq!(db.short_column_name(cat.predicate_columns[col]), "category");
        assert_eq!(cat.literals[col][lit], Value::Str("gambling".into()));
    }

    #[test]
    fn data_dictionary_terms_reach_the_index() {
        let db = nfl_db();
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        // "lifetime" appears only in the games column's description.
        let hits =
            cat.pred_index()
                .search([(stem("lifetime").as_str(), 1.0f32)], 10, Scorer::default());
        assert!(!hits.is_empty(), "description keyword must be indexed");
        let (col, _) = cat.pred_doc(hits[0].doc);
        assert_eq!(db.short_column_name(cat.predicate_columns[col]), "games");
    }

    #[test]
    fn function_search_maps_keywords() {
        let db = nfl_db();
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        let hits =
            cat.fn_index()
                .search([(stem("average").as_str(), 1.0f32)], 1, Scorer::default());
        assert_eq!(cat.functions[hits[0].doc as usize], AggFunction::Avg);
        let hits = cat.fn_index().search(
            [(stem("percentage").as_str(), 1.0f32)],
            1,
            Scorer::default(),
        );
        assert_eq!(cat.functions[hits[0].doc as usize], AggFunction::Percentage);
    }

    #[test]
    fn numeric_predicate_columns_respect_cardinality_cap() {
        let wide =
            Table::from_columns("t", vec![("metric", (0..200).map(Value::Int).collect())]).unwrap();
        let mut db = Database::new("d");
        db.add_table(wide);
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        assert!(
            cat.predicate_columns.is_empty(),
            "high-cardinality numeric column excluded"
        );
        assert_eq!(
            cat.agg_columns.len(),
            2,
            "but it still aggregates (* + metric)"
        );
    }

    #[test]
    fn year_literals_are_integers() {
        let db = nfl_db();
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        let year_pos = cat
            .predicate_columns
            .iter()
            .position(|c| db.short_column_name(*c) == "year")
            .unwrap();
        assert!(cat.literals[year_pos].contains(&Value::Int(2014)));
    }

    /// Literal lists are value-distinct and self-equal, so a literal's
    /// position is its code in any cube over the list: NaN (equal to
    /// nothing) is left out and the two zeros are one literal.
    #[test]
    fn numeric_literals_are_value_distinct() {
        let t = Table::from_columns(
            "t",
            vec![(
                "x",
                vec![
                    Value::Float(0.0),
                    Value::Float(-0.0),
                    Value::Float(f64::NAN),
                    Value::Float(1.5),
                    Value::Float(0.0),
                ],
            )],
        )
        .unwrap();
        let mut db = Database::new("d");
        db.add_table(t);
        let cat = FragmentCatalog::build(&db, &CatalogConfig::default());
        let lits = &cat.literals[0];
        assert_eq!(lits.len(), 2, "{lits:?}");
        for (i, a) in lits.iter().enumerate() {
            assert_eq!(lits.iter().position(|b| a == b), Some(i));
        }
    }

    #[test]
    fn literal_cap_is_enforced() {
        let many = Table::from_columns(
            "t",
            vec![(
                "cat",
                (0..100).map(|i| Value::Str(format!("v{i}"))).collect(),
            )],
        )
        .unwrap();
        let mut db = Database::new("d");
        db.add_table(many);
        let cat = FragmentCatalog::build(
            &db,
            &CatalogConfig {
                max_literals_per_column: 10,
                ..Default::default()
            },
        );
        assert_eq!(cat.literals[0].len(), 10);
    }
}
