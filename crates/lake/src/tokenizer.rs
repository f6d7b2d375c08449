//! A small word-level tokenizer and vocabulary.
//!
//! Both the SGNS pre-training (in `deepjoin-embed`) and the column encoder
//! (in `deepjoin-nn` / `deepjoin`) consume token ids produced here. Tokens
//! are lowercased alphanumeric runs; punctuation separates tokens; numbers
//! are kept as-is (cell values like zip codes matter for joins).

use serde::{Deserialize, Serialize};

use crate::fxhash::FxHashMap;

/// Split text into lowercase tokens: maximal runs of alphanumeric characters.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut lower = String::new();
    for run in alnum_runs(text) {
        out.push(lowercase(run, &mut lower).to_string());
    }
    out
}

/// Maximal runs of alphanumeric characters, as slices of `text`.
fn alnum_runs(text: &str) -> impl Iterator<Item = &str> + Clone {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|run| !run.is_empty())
}

/// `run` lowercased character by character (`char::to_lowercase`, so
/// `'İ'` becomes two characters and there is no context-dependent final
/// sigma). Returns `run` itself when no character changes, and otherwise
/// writes the lowercase form into `buf`, which callers reuse across runs.
fn lowercase<'a>(run: &'a str, buf: &'a mut String) -> &'a str {
    let unchanged = |c: char| {
        let mut lc = c.to_lowercase();
        lc.next() == Some(c) && lc.next().is_none()
    };
    match run.char_indices().find(|&(_, c)| !unchanged(c)) {
        None => run,
        Some((at, _)) => {
            buf.clear();
            buf.push_str(&run[..at]);
            buf.extend(run[at..].chars().flat_map(char::to_lowercase));
            buf
        }
    }
}

/// The hybrid scanner: hands every token of [`tokenize_hybrid`] to `emit`
/// in order, as a slice of `text` or of one reused lowercase buffer, so
/// nothing is allocated per token. Both the vocabulary build and query
/// encoding go through it, so the tokenization rules live only here.
fn for_each_hybrid_token(text: &str, mut emit: impl FnMut(&str)) {
    let mut lower = String::new();
    for raw in text.split_whitespace() {
        let surface = raw.trim_matches(|c: char| matches!(c, ',' | ':' | '.' | ';' | '(' | ')'));
        if surface.is_empty() {
            continue;
        }
        emit(surface);
        // Lowercase alphanumeric subtokens, unless they are exactly the
        // surface token again.
        let mut runs = alnum_runs(surface);
        let Some(first) = runs.next() else { continue };
        let first = lowercase(first, &mut lower);
        if first == surface && runs.clone().next().is_none() {
            continue;
        }
        emit(first);
        for run in runs {
            emit(lowercase(run, &mut lower));
        }
    }
}

/// Hybrid tokenization — the miniature of PLM subword tokenization.
///
/// A WordPiece/BPE tokenizer gives a transformer *both* surface identity
/// (the exact piece sequence distinguishes `Fort_Kelso` from `fort kelso`)
/// and content overlap (the pieces still share subwords). This hybrid
/// scheme reproduces that: each whitespace-delimited word emits
///
/// 1. its **surface token** — the word with case and inner punctuation
///    preserved (template delimiters `,:.()` are trimmed from the edges);
/// 2. its lowercase alphanumeric **subtokens**, when they differ from the
///    surface form.
///
/// `"Fort_Kelso, 12"` → `["Fort_Kelso", "fort", "kelso", "12"]`.
///
/// Equi-trained encoders can attend to the surface tokens (exact-match
/// identity), semantic-trained encoders to the subtokens (format-invariant
/// content); the attention pooling decides which matters.
pub fn tokenize_hybrid(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_hybrid_token(text, |tok| out.push(tok.to_string()));
    out
}

/// Token id. `0` is reserved for the unknown token.
pub type TokenId = u32;

/// The reserved id for out-of-vocabulary tokens.
pub const UNK: TokenId = 0;

/// A frequency-built vocabulary mapping tokens to dense ids.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vocabulary {
    token_to_id: FxHashMap<String, TokenId>,
    id_to_token: Vec<String>,
    counts: Vec<u64>,
}

impl Vocabulary {
    /// An empty vocabulary containing only `<unk>`.
    pub fn new() -> Self {
        let mut v = Self {
            token_to_id: FxHashMap::default(),
            id_to_token: Vec::new(),
            counts: Vec::new(),
        };
        v.id_to_token.push("<unk>".to_string());
        v.counts.push(0);
        v.token_to_id.insert("<unk>".to_string(), UNK);
        v
    }

    /// Build a vocabulary from an iterator of texts, keeping tokens that
    /// occur at least `min_count` times. Ids are assigned in descending
    /// frequency order (ties broken lexicographically) for determinism.
    pub fn build<'a, I: IntoIterator<Item = &'a str>>(texts: I, min_count: u64) -> Self {
        Self::build_tokenized(texts.into_iter().map(tokenize), min_count)
    }

    /// Build from texts using the hybrid (surface + subtoken) scheme of
    /// [`tokenize_hybrid`].
    pub fn build_hybrid<'a, I: IntoIterator<Item = &'a str>>(texts: I, min_count: u64) -> Self {
        Self::build_tokenized(texts.into_iter().map(tokenize_hybrid), min_count)
    }

    /// Rebuild a vocabulary from `(token, count)` pairs **in id order**
    /// (ids 1..; id 0 stays `<unk>`). Persistence path: preserves the exact
    /// id assignment of the saved vocabulary.
    pub fn from_id_order<I: IntoIterator<Item = (String, u64)>>(pairs: I) -> Self {
        let mut v = Self::new();
        for (tok, count) in pairs {
            let id = v.id_to_token.len() as TokenId;
            v.token_to_id.insert(tok.clone(), id);
            v.id_to_token.push(tok);
            v.counts.push(count);
        }
        v
    }

    /// Build from pre-tokenized token lists.
    pub fn build_tokenized<I: IntoIterator<Item = Vec<String>>>(lists: I, min_count: u64) -> Self {
        let mut freq: FxHashMap<String, u64> = FxHashMap::default();
        for toks in lists {
            for tok in toks {
                *freq.entry(tok).or_insert(0) += 1;
            }
        }
        let mut entries: Vec<(String, u64)> =
            freq.into_iter().filter(|(_, c)| *c >= min_count).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        let mut v = Self::new();
        for (tok, count) in entries {
            let id = v.id_to_token.len() as TokenId;
            v.token_to_id.insert(tok.clone(), id);
            v.id_to_token.push(tok);
            v.counts.push(count);
        }
        v
    }

    /// Number of tokens including `<unk>`.
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// True when only `<unk>` is present.
    pub fn is_empty(&self) -> bool {
        self.id_to_token.len() <= 1
    }

    /// Id of `token`, or [`UNK`].
    pub fn id(&self, token: &str) -> TokenId {
        self.token_to_id.get(token).copied().unwrap_or(UNK)
    }

    /// Token string for `id`. Panics on out-of-range ids.
    pub fn token(&self, id: TokenId) -> &str {
        &self.id_to_token[id as usize]
    }

    /// Corpus count recorded for `id` at build time.
    pub fn count(&self, id: TokenId) -> u64 {
        self.counts[id as usize]
    }

    /// Encode text to token ids (OOV → `UNK`).
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        tokenize(text).iter().map(|t| self.id(t)).collect()
    }

    /// Encode text with hash-bucket fallback: out-of-vocabulary tokens map
    /// deterministically to one of `buckets` reserved ids in
    /// `[len(), len() + buckets)` instead of `UNK`.
    ///
    /// This is the "hashing trick" fastText uses for its n-gram table: two
    /// occurrences of the same unseen word still receive the same id, so the
    /// encoder keeps an *identity* signal for cell values never seen during
    /// training — essential for equi-joins over a large test repository.
    pub fn encode_bucketed(&self, text: &str, buckets: u32) -> Vec<TokenId> {
        self.encode_tokens_bucketed(&tokenize(text), buckets)
    }

    /// Hybrid-tokenized variant of [`Self::encode_bucketed`]: the query
    /// path, which looks each token up as it is scanned, without building
    /// token strings.
    pub fn encode_hybrid_bucketed(&self, text: &str, buckets: u32) -> Vec<TokenId> {
        assert!(buckets > 0, "need at least one bucket");
        let mut ids = Vec::new();
        for_each_hybrid_token(text, |tok| ids.push(self.bucketed_id(tok, buckets)));
        ids
    }

    /// Bucket-encode pre-tokenized tokens (see [`Self::encode_bucketed`]).
    pub fn encode_tokens_bucketed(&self, tokens: &[String], buckets: u32) -> Vec<TokenId> {
        assert!(buckets > 0, "need at least one bucket");
        tokens
            .iter()
            .map(|t| self.bucketed_id(t, buckets))
            .collect()
    }

    /// The id of `token`, or its hash bucket past the vocabulary.
    fn bucketed_id(&self, token: &str, buckets: u32) -> TokenId {
        match self.token_to_id.get(token) {
            Some(&id) => id,
            None => {
                let h = crate::fxhash::hash_bytes(token.as_bytes());
                self.len() as TokenId + (h % buckets as u64) as TokenId
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(tokenize("a-b_c"), vec!["a", "b", "c"]);
        assert_eq!(tokenize("ZIP 90210"), vec!["zip", "90210"]);
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("  ,,  "), Vec::<String>::new());
    }

    #[test]
    fn tokenize_handles_unicode() {
        assert_eq!(tokenize("Əlif Ba"), vec!["əlif", "ba"]);
        assert_eq!(tokenize("東京 tower"), vec!["東京", "tower"]);
    }

    #[test]
    fn vocabulary_orders_by_frequency() {
        let texts = ["b b b a a c", "a b"];
        let v = Vocabulary::build(texts.iter().copied(), 1);
        // b appears 4x, a 3x, c 1x
        assert_eq!(v.id("b"), 1);
        assert_eq!(v.id("a"), 2);
        assert_eq!(v.id("c"), 3);
        assert_eq!(v.count(1), 4);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn min_count_filters() {
        let texts = ["a a b"];
        let v = Vocabulary::build(texts.iter().copied(), 2);
        assert_eq!(v.id("a"), 1);
        assert_eq!(v.id("b"), UNK);
    }

    #[test]
    fn encode_roundtrip() {
        let texts = ["tokyo paris tokyo"];
        let v = Vocabulary::build(texts.iter().copied(), 1);
        let ids = v.encode("Tokyo osaka");
        assert_eq!(ids.len(), 2);
        assert_eq!(v.token(ids[0]), "tokyo");
        assert_eq!(ids[1], UNK);
    }

    #[test]
    fn hybrid_tokenize_emits_surface_and_subtokens() {
        assert_eq!(
            tokenize_hybrid("Fort_Kelso, 12"),
            vec!["Fort_Kelso", "fort", "kelso", "12"]
        );
        // Plain lowercase words emit only themselves.
        assert_eq!(tokenize_hybrid("paris tokyo"), vec!["paris", "tokyo"]);
        // Template punctuation is trimmed; inner punctuation preserved.
        assert_eq!(
            tokenize_hybrid("city: a.b@c.com."),
            vec!["city", "a.b@c.com", "a", "b", "c", "com"]
        );
        assert_eq!(tokenize_hybrid("  ,,  "), Vec::<String>::new());
    }

    #[test]
    fn hybrid_formats_share_subtokens_but_not_surface() {
        let a = tokenize_hybrid("fort kelso");
        let b = tokenize_hybrid("Fort_Kelso");
        // Different surfaces…
        assert!(!b.contains(&"fort kelso".to_string()));
        assert_ne!(a, b);
        // …same content subtokens.
        assert!(b.contains(&"fort".to_string()) && b.contains(&"kelso".to_string()));
        assert!(a.contains(&"fort".to_string()) && a.contains(&"kelso".to_string()));
    }

    #[test]
    fn hybrid_vocab_and_encoding_roundtrip() {
        let v = Vocabulary::build_hybrid(["Fort_Kelso rest"].iter().copied(), 1);
        assert_ne!(v.id("Fort_Kelso"), UNK);
        assert_ne!(v.id("fort"), UNK);
        let ids = v.encode_hybrid_bucketed("Fort_Kelso unseen_word", 512);
        assert_eq!(ids[0], v.id("Fort_Kelso"));
        // OOV surface + subtokens land in buckets.
        assert!(ids[3] >= v.len() as TokenId);
    }

    /// The string-building hybrid tokenizer the scanner replaced, kept as
    /// the oracle for its token stream.
    fn reference_hybrid(text: &str) -> Vec<String> {
        fn lower_runs(text: &str) -> Vec<String> {
            let mut out = Vec::new();
            let mut cur = String::new();
            for ch in text.chars() {
                if ch.is_alphanumeric() {
                    cur.extend(ch.to_lowercase());
                } else if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            if !cur.is_empty() {
                out.push(cur);
            }
            out
        }
        let mut out = Vec::new();
        for raw in text.split_whitespace() {
            let surface =
                raw.trim_matches(|c: char| matches!(c, ',' | ':' | '.' | ';' | '(' | ')'));
            if surface.is_empty() {
                continue;
            }
            out.push(surface.to_string());
            let subs = lower_runs(surface);
            if !(subs.len() == 1 && subs[0] == surface) {
                out.extend(subs);
            }
        }
        out
    }

    const ADVERSARIAL: &[&str] = &[
        "İstanbul İ i̇ iİ",
        "Straße STRASSE ß ẞ",
        "ﬁle ﬁ Ǆemal ǅ ǆ",
        "東京 tower 東京タワー 서울 Москва ΟΔΟΣ Σίσυφος",
        "... ,,, ;:() -- __ @@ !? ¿¡ —",
        "a_b a-b _a_ -a- a__b a--b Fort_Kelso-12 x.y.z",
        "(Paris), Tokyo; :LONDON: new-york.",
        "x² ½ Ⅻ ⅻ ①",
        "\u{00a0}nbsp\u{2003}em\u{3000}ideographic tab\tnl\nend",
        "",
        "   ",
        "MiXeD123abc 123 0xFF",
    ];

    #[test]
    fn hybrid_scanner_matches_the_reference_tokenizer() {
        for text in ADVERSARIAL {
            assert_eq!(tokenize_hybrid(text), reference_hybrid(text), "{text:?}");
        }
        let expected_changes = tokenize_hybrid("İ ẞ ΟΔΟΣ");
        assert_eq!(
            expected_changes,
            vec!["İ", "i\u{307}", "ẞ", "ß", "ΟΔΟΣ", "οδοσ"]
        );
    }

    #[test]
    fn hybrid_bucketed_encoding_matches_the_token_list() {
        let vocab = Vocabulary::build_hybrid(ADVERSARIAL[..6].iter().copied(), 1);
        for text in ADVERSARIAL {
            assert_eq!(
                vocab.encode_hybrid_bucketed(text, 64),
                vocab.encode_tokens_bucketed(&tokenize_hybrid(text), 64),
                "{text:?}"
            );
        }
    }

    #[test]
    fn bucketed_encode_is_stable_for_oov() {
        let v = Vocabulary::build(["seen words here"].iter().copied(), 1);
        let a = v.encode_bucketed("seen unseen1 unseen1 unseen2", 4096);
        assert_eq!(a[0], v.id("seen"));
        assert!(a[1] >= v.len() as TokenId && a[1] < (v.len() + 4096) as TokenId);
        assert_eq!(a[1], a[2], "same OOV word -> same bucket");
        // Different OOV words *usually* differ (these two do under FxHash).
        assert_ne!(a[1], a[3]);
    }

    #[test]
    fn deterministic_ids_on_ties() {
        let v1 = Vocabulary::build(["x y", "y x"].iter().copied(), 1);
        let v2 = Vocabulary::build(["y x", "x y"].iter().copied(), 1);
        assert_eq!(v1.id("x"), v2.id("x"));
        assert_eq!(v1.id("y"), v2.id("y"));
    }
}
