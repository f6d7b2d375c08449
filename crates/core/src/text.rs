//! Column-to-text transformation (paper §3.1, Table 1).
//!
//! A column is *contextualized* into a text sequence before encoding. All
//! seven options from Table 1 are implemented; `title-colname-stat-col` is
//! the paper's best and the default. Variables, as in the paper:
//!
//! * `$column_name$`, `$table_title$`, `$table_context$` — from metadata;
//! * `$n$` — number of distinct cell values;
//! * `$max_len$/$min_len$/$avg_len$` — word-count statistics over cells;
//! * `$col$` — the distinct cell values joined with `", "`.
//!
//! When the contextualized sequence would exceed the encoder's token budget,
//! §3.2 keeps the cells with the highest *frequency* (the number of target
//! columns containing the value); [`CellFrequencies`] supplies those counts.

use deepjoin_lake::column::Column;
use deepjoin_lake::fxhash::FxHashMap;
use deepjoin_lake::repository::Repository;
use serde::{Deserialize, Serialize};

/// The seven contextualization options of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransformOption {
    /// `$cell_1$,$cell_2$,…,$cell_n$`
    Col,
    /// `$column_name$: $col$.`
    ColnameCol,
    /// `$colname-col$. $table_context$`
    ColnameColContext,
    /// `$column_name$ contains $n$ values ($max$, $min$, $avg$): $col$.`
    ColnameStatCol,
    /// `$table_title$. $colname-col$.`
    TitleColnameCol,
    /// `$title-colname-col$. $table_context$`
    TitleColnameColContext,
    /// `$table_title$. $colname-stat-col$.` — the paper's best option.
    TitleColnameStatCol,
}

impl TransformOption {
    /// All options, in Table 1 order.
    pub const ALL: [TransformOption; 7] = [
        TransformOption::Col,
        TransformOption::ColnameCol,
        TransformOption::ColnameColContext,
        TransformOption::ColnameStatCol,
        TransformOption::TitleColnameCol,
        TransformOption::TitleColnameColContext,
        TransformOption::TitleColnameStatCol,
    ];

    /// The paper's name for this option.
    pub fn name(self) -> &'static str {
        match self {
            TransformOption::Col => "col",
            TransformOption::ColnameCol => "colname-col",
            TransformOption::ColnameColContext => "colname-col-context",
            TransformOption::ColnameStatCol => "colname-stat-col",
            TransformOption::TitleColnameCol => "title-colname-col",
            TransformOption::TitleColnameColContext => "title-colname-col-context",
            TransformOption::TitleColnameStatCol => "title-colname-stat-col",
        }
    }

    /// Whether the option includes the column name.
    pub fn has_colname(self) -> bool {
        !matches!(self, TransformOption::Col)
    }

    /// Whether the option includes the table title.
    pub fn has_title(self) -> bool {
        matches!(
            self,
            TransformOption::TitleColnameCol
                | TransformOption::TitleColnameColContext
                | TransformOption::TitleColnameStatCol
        )
    }

    /// Whether the option includes the table context.
    pub fn has_context(self) -> bool {
        matches!(
            self,
            TransformOption::ColnameColContext | TransformOption::TitleColnameColContext
        )
    }

    /// Whether the option includes the statistics clause.
    pub fn has_stat(self) -> bool {
        matches!(
            self,
            TransformOption::ColnameStatCol | TransformOption::TitleColnameStatCol
        )
    }
}

/// Document frequency of cell values across a repository: the number of
/// target columns containing each value (§3.2's truncation criterion).
#[derive(Debug, Clone, Default)]
pub struct CellFrequencies {
    counts: FxHashMap<String, u32>,
}

impl CellFrequencies {
    /// Count cell document-frequencies over `repo`.
    pub fn build(repo: &Repository) -> Self {
        let mut counts: FxHashMap<String, u32> = FxHashMap::default();
        for col in repo.columns() {
            for cell in col.distinct() {
                *counts.entry(cell.clone()).or_insert(0) += 1;
            }
        }
        Self { counts }
    }

    /// Frequency of `cell` (0 when unseen).
    pub fn get(&self, cell: &str) -> u32 {
        self.counts.get(cell).copied().unwrap_or(0)
    }

    /// Number of distinct values tracked.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when nothing was counted.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate `(cell, count)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Rebuild from `(cell, count)` pairs (persistence path).
    pub fn from_pairs<I: IntoIterator<Item = (String, u32)>>(pairs: I) -> Self {
        Self {
            counts: pairs.into_iter().collect(),
        }
    }
}

/// The contextualizer: option + cell budget + optional frequency table.
#[derive(Debug, Clone)]
pub struct Textizer {
    /// Which Table 1 option to apply.
    pub option: TransformOption,
    /// Maximum number of cells included in `$col$` (the stand-in for the
    /// PLM's 512-token input limit). `usize::MAX` disables truncation.
    pub max_cells: usize,
    freq: Option<CellFrequencies>,
}

impl Textizer {
    /// A textizer without frequency-guided truncation.
    pub fn new(option: TransformOption, max_cells: usize) -> Self {
        Self {
            option,
            max_cells,
            freq: None,
        }
    }

    /// Attach repository cell frequencies for §3.2's truncation rule.
    pub fn with_frequencies(mut self, freq: CellFrequencies) -> Self {
        self.freq = Some(freq);
        self
    }

    /// The attached frequencies, if any (persistence path).
    pub fn frequencies(&self) -> Option<&CellFrequencies> {
        self.freq.as_ref()
    }

    /// Contextualize `column` into a text sequence.
    pub fn transform(&self, column: &Column) -> String {
        let mut cells = column.distinct_in_order();
        // `$n$` counts every distinct value, before the budget truncates.
        let n = cells.len();
        self.truncate_cells(&mut cells);
        let col = cells.join(", ");
        let name = column.meta.column_name.as_str();
        let title = column.meta.table_title.as_str();
        let context = column.meta.table_context.as_str();

        match self.option {
            TransformOption::Col => col,
            TransformOption::ColnameCol => format!("{name}: {col}."),
            TransformOption::ColnameColContext => format!("{name}: {col}. {context}"),
            TransformOption::ColnameStatCol => {
                format!("{}: {col}.", stat_clause(column, name, n))
            }
            TransformOption::TitleColnameCol => format!("{title}. {name}: {col}."),
            TransformOption::TitleColnameColContext => {
                format!("{title}. {name}: {col}. {context}")
            }
            TransformOption::TitleColnameStatCol => {
                format!("{title}. {}: {col}.", stat_clause(column, name, n))
            }
        }
    }

    /// Truncate the distinct cells to the budget — by repository frequency
    /// when available (highest first, §3.2), otherwise by first-occurrence
    /// order.
    fn truncate_cells(&self, cells: &mut Vec<&str>) {
        if cells.len() <= self.max_cells {
            return;
        }
        if let Some(freq) = &self.freq {
            // Stable sort keeps first-occurrence order among ties.
            cells.sort_by_key(|c| std::cmp::Reverse(freq.get(c)));
        }
        cells.truncate(self.max_cells);
    }
}

/// `$column_name$ contains $n$ values ($max$, $min$, $avg$)`, with `n` the
/// column's distinct-value count.
fn stat_clause(column: &Column, name: &str, n: usize) -> String {
    let (max, min, avg) = column.word_stats();
    format!("{name} contains {n} values ({max}, {min}, {avg:.1})")
}

impl Default for Textizer {
    fn default() -> Self {
        Self::new(TransformOption::TitleColnameStatCol, 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepjoin_lake::column::ColumnMeta;

    fn column() -> Column {
        Column::new(
            vec!["paris".into(), "new york".into(), "paris".into(), "tokyo".into()],
            ColumnMeta {
                table_title: "World capitals".into(),
                column_name: "city".into(),
                table_context: "a listing of capitals".into(),
                table_id: None,
            },
        )
    }

    #[test]
    fn col_concatenates_distinct_cells() {
        let t = Textizer::new(TransformOption::Col, usize::MAX);
        assert_eq!(t.transform(&column()), "paris, new york, tokyo");
    }

    #[test]
    fn colname_prefixes() {
        let t = Textizer::new(TransformOption::ColnameCol, usize::MAX);
        assert_eq!(t.transform(&column()), "city: paris, new york, tokyo.");
    }

    #[test]
    fn context_appends() {
        let t = Textizer::new(TransformOption::ColnameColContext, usize::MAX);
        let s = t.transform(&column());
        assert!(s.ends_with("a listing of capitals"));
        assert!(s.starts_with("city:"));
    }

    #[test]
    fn stat_clause_contains_counts() {
        let t = Textizer::new(TransformOption::ColnameStatCol, usize::MAX);
        let s = t.transform(&column());
        // 4 cells with word counts 1, 2, 1, 1 -> avg 1.25, printed "1.2".
        assert!(s.contains("city contains 3 values (2, 1, 1.2)"), "{s}");
    }

    #[test]
    fn title_options_lead_with_title() {
        for opt in [
            TransformOption::TitleColnameCol,
            TransformOption::TitleColnameColContext,
            TransformOption::TitleColnameStatCol,
        ] {
            let t = Textizer::new(opt, usize::MAX);
            assert!(t.transform(&column()).starts_with("World capitals."), "{opt:?}");
        }
    }

    #[test]
    fn all_options_distinct_output() {
        let outputs: Vec<String> = TransformOption::ALL
            .iter()
            .map(|&o| Textizer::new(o, usize::MAX).transform(&column()))
            .collect();
        for i in 0..outputs.len() {
            for j in (i + 1)..outputs.len() {
                assert_ne!(outputs[i], outputs[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn budget_truncates_by_frequency() {
        use deepjoin_lake::repository::Repository;
        // "common" appears in 3 columns, "rare" in 1.
        let repo = Repository::from_columns(vec![
            Column::from_cells(["common", "a1", "a2", "a3", "a4"]),
            Column::from_cells(["common", "b1", "b2", "b3", "b4"]),
            Column::from_cells(["common", "rare", "c1", "c2", "c3"]),
        ]);
        let freq = CellFrequencies::build(&repo);
        assert_eq!(freq.get("common"), 3);
        assert_eq!(freq.get("rare"), 1);

        let t = Textizer::new(TransformOption::Col, 1).with_frequencies(freq);
        let q = Column::from_cells(["rare", "common"]);
        assert_eq!(t.transform(&q), "common");
    }

    #[test]
    fn budget_without_frequencies_keeps_order() {
        let t = Textizer::new(TransformOption::Col, 2);
        assert_eq!(t.transform(&column()), "paris, new york");
    }

    /// `$n$` is the distinct count of the whole column, also when the
    /// budget keeps fewer cells.
    #[test]
    fn stat_count_is_taken_before_truncation() {
        let col = Column::from_cells(["a", "b", "a", "c", "d", "b"]);
        let t = Textizer::new(TransformOption::ColnameStatCol, 2);
        let (max, min, avg) = col.word_stats();
        let want = format!(" contains 4 values ({max}, {min}, {avg:.1}): a, b.");
        assert_eq!(t.transform(&col), want);
        assert_eq!(col.distinct_len(), 4);
    }

    /// The query path's scanner-fed lookup gives the ids of the token list
    /// the vocabulary was built from, on contextualized generated columns
    /// under every option, budget-truncated or not.
    #[test]
    fn hybrid_encoding_matches_token_lists_on_generated_columns() {
        use deepjoin_lake::corpus::{Corpus, CorpusConfig, CorpusProfile};
        use deepjoin_lake::tokenizer::{tokenize_hybrid, Vocabulary};
        for profile in [CorpusProfile::Webtable, CorpusProfile::Wikitable] {
            let corpus = Corpus::generate(CorpusConfig::new(profile, 60, 17).with_noise_rate(0.3));
            let (repo, _) = corpus.to_repository();
            let freq = CellFrequencies::build(&repo);
            for option in TransformOption::ALL {
                let t = Textizer::new(option, 8).with_frequencies(freq.clone());
                let texts: Vec<String> = repo.columns().iter().map(|c| t.transform(c)).collect();
                // Build from half the texts so the rest also hit OOV buckets.
                let half = texts.len() / 2;
                let vocab = Vocabulary::build_hybrid(texts[..half].iter().map(String::as_str), 1);
                for text in &texts {
                    assert_eq!(
                        vocab.encode_hybrid_bucketed(text, 97),
                        vocab.encode_tokens_bucketed(&tokenize_hybrid(text), 97),
                        "{option:?}: {text}"
                    );
                }
            }
        }
    }

    #[test]
    fn option_predicates() {
        assert!(!TransformOption::Col.has_colname());
        assert!(TransformOption::TitleColnameStatCol.has_stat());
        assert!(TransformOption::ColnameColContext.has_context());
        assert!(TransformOption::TitleColnameCol.has_title());
        assert_eq!(TransformOption::TitleColnameStatCol.name(), "title-colname-stat-col");
    }
}
