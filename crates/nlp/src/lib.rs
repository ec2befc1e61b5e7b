//! # agg-nlp
//!
//! The natural-language substrate of the AggChecker reproduction. The
//! original system uses Stanford CoreNLP for parsing and WordNet for
//! synonyms; this crate provides from-scratch Rust equivalents of exactly
//! the capabilities the checker needs:
//!
//! * a tokenizer and sentence splitter ([`mod@tokenize`], [`sentence`]),
//! * numeral recognition — digit strings, number words, magnitudes,
//!   percentages ([`numbers`]),
//! * the Porter stemming algorithm ([`mod@stem`]),
//! * a synonym dictionary standing in for WordNet ([`synonyms`]),
//! * identifier decomposition: splitting concatenated column names like
//!   `totalsalary` into dictionary words ([`dictionary`], [`wordbreak`]),
//! * a clause-structured *pseudo-dependency tree* providing the
//!   `TreeDistance` measure of Algorithm 2 ([`deptree`]),
//! * a hierarchical document model with an HTML-subset parser
//!   ([`structure`]), and
//! * claim-detection heuristics over numbers in text ([`claims`]).
//!
//! Substitutions relative to the paper are documented in `DESIGN.md` §2.

pub mod claims;
pub mod deptree;
pub mod dictionary;
pub mod numbers;
pub mod rounding;
pub mod sentence;
pub mod stem;
pub mod structure;
pub mod synonyms;
pub mod tokenize;
pub mod wordbreak;

pub use claims::{detect_claims, ClaimDetectorConfig, ClaimMention};
pub use deptree::DependencyTree;
pub use numbers::{parse_number_mentions, NumberMention};
pub use rounding::{matches_claim, matches_value, round_decimals, round_significant, ClaimMatcher};
pub use sentence::split_sentences;
pub use stem::stem;
pub use structure::{parse_document, Document, Paragraph, Section, SectionPath, Sentence};
pub use synonyms::SynonymDict;
pub use tokenize::{tokenize, Token, TokenKind};
pub use wordbreak::decompose_identifier;
