//! Deterministic approximate subword tokenizer.
//!
//! The paper sizes its sliding windows in *LLM tokens* (8000-token
//! windows, 500-token overlap, per the Llama-3 context limit). We
//! cannot ship a real BPE vocabulary, so we approximate with a
//! deterministic rule that tracks real tokenizers closely on the kind
//! of text the incident encoder produces (identifiers, punctuation,
//! short literals):
//!
//! * runs of alphanumerics are split into pieces of at most
//!   [`MAX_PIECE`] characters (subword behaviour on long words);
//! * every punctuation character is its own token;
//! * whitespace is attached to the *following* token, so that the
//!   concatenation of all tokens reproduces the input exactly — the
//!   property the window chunker relies on.

/// Maximum characters of an alphanumeric run per token piece.
pub const MAX_PIECE: usize = 4;

/// Splits `text` into tokens. Lossless:
/// `tokens.concat() == text`.
pub fn tokenize(text: &str) -> Vec<&str> {
    let mut out = Vec::with_capacity(text.len() / 3 + 1);
    let mut start = 0;
    while start < text.len() {
        let end = token_end(text.as_bytes(), start);
        out.push(&text[start..end]);
        start = end;
    }
    out
}

/// Number of tokens in `text`: the [`tokenize`] scan without
/// materialising the pieces.
pub fn token_count(text: &str) -> usize {
    let bytes = text.as_bytes();
    let mut count = 0;
    let mut i = 0;
    while i < bytes.len() {
        i = token_end(bytes, i);
        count += 1;
    }
    count
}

/// End (exclusive byte offset) of the token starting at `i < len`.
/// Always inlined: the scans here and the window chunker run it once
/// per token over the whole encoding, and a call per token costs
/// `tokenize` ~10%.
#[inline(always)]
pub(crate) fn token_end(bytes: &[u8], mut i: usize) -> usize {
    // Leading whitespace rides along with the token.
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if i >= bytes.len() {
        // Trailing whitespace becomes one final token.
        return bytes.len();
    }
    if bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' {
        let mut taken = 0;
        while i < bytes.len()
            && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
            && taken < MAX_PIECE
        {
            i += 1;
            taken += 1;
        }
        i
    } else {
        // Punctuation or non-ASCII: single scalar value.
        i + utf8_len(bytes[i])
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_roundtrip() {
        let text = "Node n0 with labels Person has properties {name: 'Ada'}.";
        assert_eq!(tokenize(text).concat(), text);
    }

    #[test]
    fn long_words_split_into_pieces() {
        let toks = tokenize("IN_TOURNAMENT");
        assert!(toks.len() >= 3, "{toks:?}");
        assert_eq!(toks.concat(), "IN_TOURNAMENT");
    }

    #[test]
    fn punctuation_is_tokenized_separately() {
        let toks = tokenize("{a: 1}");
        assert!(toks.iter().any(|t| t.trim() == "{"));
        assert!(toks.iter().any(|t| t.trim() == ":"));
    }

    #[test]
    fn whitespace_attaches_forward() {
        let toks = tokenize("a  b");
        assert_eq!(toks, vec!["a", "  b"]);
    }

    #[test]
    fn trailing_whitespace_kept() {
        assert_eq!(tokenize("a \n").concat(), "a \n");
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert_eq!(token_count(""), 0);
    }

    #[test]
    fn token_count_scales_roughly_with_chars_over_four() {
        // 100 chars of dense identifier → ~25 tokens.
        let word = "a".repeat(100);
        assert_eq!(token_count(&word), 25);
    }

    #[test]
    fn unicode_is_not_split_mid_scalar() {
        let text = "héllo ✓ done";
        assert_eq!(tokenize(text).concat(), text);
    }
}
