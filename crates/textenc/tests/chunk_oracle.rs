//! Differential test of the window chunker: `chunk` against the
//! straightforward tokenize-then-concatenate reference below, which
//! materialises every token and scans every window per node block.

use grm_textenc::{chunk, tokenize, BrokenPattern, Window, WindowConfig, WindowSet};
use proptest::prelude::*;

/// Reference chunker: materialises the token vector, concatenates each
/// window's tokens, and tests every block against every window.
fn oracle_chunk(text: &str, config: WindowConfig) -> WindowSet {
    let tokens = tokenize(text);
    let total = tokens.len();
    let stride = config.window_size - config.overlap;

    let mut windows = Vec::new();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    let mut index = 0usize;
    while start < total {
        let end = (start + config.window_size).min(total);
        windows.push(Window {
            index,
            text: tokens[start..end].concat(),
            start_token: start,
            token_len: end - start,
        });
        ranges.push((start, end));
        index += 1;
        if end == total {
            break;
        }
        start += stride;
    }

    let breakages = oracle_breakages(text, &tokens, &ranges);
    WindowSet { windows, config, total_tokens: total, broken_patterns: breakages.len(), breakages }
}

fn oracle_breakages(text: &str, tokens: &[&str], ranges: &[(usize, usize)]) -> Vec<BrokenPattern> {
    if ranges.len() <= 1 {
        return Vec::new();
    }
    let mut offsets = Vec::with_capacity(tokens.len() + 1);
    let mut pos = 0usize;
    for t in tokens {
        offsets.push(pos);
        pos += t.len();
    }
    offsets.push(pos);
    let byte_ranges: Vec<(usize, usize)> =
        ranges.iter().map(|(s, e)| (offsets[*s], offsets[*e])).collect();

    let mut broken = Vec::new();
    let mut block_start = 0usize;
    let mut block_id: Option<&str> = None;
    let mut line_start = 0usize;
    let flush = |start: usize, end: usize, id: Option<&str>, broken: &mut Vec<BrokenPattern>| {
        if end > start {
            let contained = byte_ranges.iter().any(|(ws, we)| *ws <= start && end <= *we);
            if !contained {
                let overlaps = |(ws, we): &(usize, usize)| *ws < end && start < *we;
                broken.push(BrokenPattern {
                    node: id.map(|n| format!("n{n}")).unwrap_or_else(|| "-".to_owned()),
                    first_window: byte_ranges.iter().position(overlaps).unwrap_or(0),
                    last_window: byte_ranges.iter().rposition(overlaps).unwrap_or(0),
                });
            }
        }
    };
    for line in text.split_inclusive('\n') {
        let line_end = line_start + line.len();
        let id = node_id_of(line);
        if id != block_id {
            flush(block_start, line_start, block_id, &mut broken);
            block_start = line_start;
            block_id = id;
        }
        line_start = line_end;
    }
    flush(block_start, line_start, block_id, &mut broken);
    broken
}

fn node_id_of(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("Node n")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    (end > 0).then(|| &rest[..end])
}

/// Text pieces: incident-style node and edge lines over a few ids (so
/// consecutive lines often share a node block), arbitrary characters
/// (multibyte included), and whitespace runs.
fn arb_piece() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u32..4, "[a-zA-Z0-9_ :{}',.é✓]{0,40}")
            .prop_map(|(id, rest)| format!("Node n{id} with labels {rest}.\n")),
        (0u32..4, 0u32..9, "[A-Z_]{1,12}").prop_map(|(src, dst, label)| format!(
            "Node n{src} -[{label} {{}}]-> Node n{dst} (X).\n"
        )),
        ".{0,30}",
        "[ \t\n]{1,6}",
        "Node n[0-9]{0,2}[ \n]{0,2}",
    ]
}

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_piece(), 0..24).prop_map(|pieces| pieces.concat())
}

/// Window sizes with zero, maximal (`window - 1`) and arbitrary
/// overlap.
fn arb_config() -> impl Strategy<Value = WindowConfig> {
    (1usize..48, 0usize..3, 0usize..1000).prop_map(|(window, mode, pick)| {
        let overlap = match mode {
            0 => 0,
            1 => window - 1,
            _ => pick % window,
        };
        WindowConfig::new(window, overlap)
    })
}

fn assert_same(text: &str, config: WindowConfig) {
    let got = chunk(text, config);
    let want = oracle_chunk(text, config);
    assert_eq!(got.windows, want.windows, "windows, {config:?}, {text:?}");
    assert_eq!(got.breakages, want.breakages, "breakages, {config:?}, {text:?}");
    assert_eq!(got.broken_patterns, want.broken_patterns, "{config:?}, {text:?}");
    assert_eq!(got.total_tokens, want.total_tokens, "{config:?}, {text:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `chunk` equals the reference on arbitrary text and configs.
    #[test]
    fn chunk_matches_tokenizing_oracle(text in arb_text(), config in arb_config()) {
        assert_same(&text, config);
    }

    /// The same on text that is one node block after another, where
    /// windows much shorter than a block break most of them.
    #[test]
    fn chunk_matches_oracle_on_node_blocks(
        blocks in prop::collection::vec((0u32..1000, 1usize..5), 1..40),
        config in arb_config(),
    ) {
        let text: String = blocks
            .iter()
            .flat_map(|&(id, lines)| {
                (0..lines).map(move |l| format!("Node n{id} -[R{l} {{w: {l}}}]-> Node n{l} (A).\n"))
            })
            .collect();
        assert_same(&text, config);
    }
}

#[test]
fn chunk_matches_oracle_on_edge_cases() {
    for text in ["", " ", "\n", "Node n", "Node n1", "é", "a  b\n\n", "Node n1\nNode n1\n"] {
        for (window, overlap) in [(1, 0), (2, 1), (3, 0), (8000, 500)] {
            assert_same(text, WindowConfig::new(window, overlap));
        }
    }
}
