//! Sliding-window chunking of the encoded graph text.
//!
//! Implements §3.1.1 of the paper: the text-encoded graph is divided
//! into windows of `window_size` tokens with `overlap` tokens shared
//! between consecutive windows, "the maximum allowed by the LLMs
//! limit, that is 8000 tokens for the window size, and 500 tokens
//! overlap". The overlap exists because a boundary may split a graph
//! element ("the last part of a window might contain the text `Node
//! node_id` while the next starts with `with label ...`"); §4.5
//! reports how many patterns were still broken despite the overlap
//! (6 / 11 / 6 for the three datasets) — [`WindowSet::broken_patterns`]
//! measures exactly that.

use crate::tokenizer::token_end;

/// Paper defaults (§3.1.1).
pub const DEFAULT_WINDOW_SIZE: usize = 8000;
/// Paper default overlap.
pub const DEFAULT_OVERLAP: usize = 500;

/// Chunking configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Window size in tokens.
    pub window_size: usize,
    /// Overlap between consecutive windows, in tokens.
    pub overlap: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig { window_size: DEFAULT_WINDOW_SIZE, overlap: DEFAULT_OVERLAP }
    }
}

impl WindowConfig {
    /// Validated constructor.
    ///
    /// # Panics
    /// Panics when `overlap >= window_size` or `window_size == 0` —
    /// such a configuration cannot make progress.
    pub fn new(window_size: usize, overlap: usize) -> Self {
        assert!(window_size > 0, "window_size must be positive");
        assert!(overlap < window_size, "overlap must be smaller than the window");
        WindowConfig { window_size, overlap }
    }
}

/// One window of encoded text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// Window index (0-based).
    pub index: usize,
    /// The window's text.
    pub text: String,
    /// Token offset of the window start within the full stream.
    pub start_token: usize,
    /// Token count of this window.
    pub token_len: usize,
}

/// One pattern (per-node line block) that no window contains entirely
/// — it straddles the seam between `first_window` and `last_window`.
/// The journal serialises these as v4 `Boundary` records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokenPattern {
    /// Node id of the broken block (`n<id>`), or `-` for a block of
    /// non-node lines.
    pub node: String,
    /// First window whose byte range overlaps the block.
    pub first_window: usize,
    /// Last window whose byte range overlaps the block. Always
    /// greater than `first_window`: windows cover the whole text, so
    /// a block no single window contains must span at least two.
    pub last_window: usize,
}

/// The result of chunking a text.
#[derive(Debug, Clone)]
pub struct WindowSet {
    pub windows: Vec<Window>,
    pub config: WindowConfig,
    /// Total token count of the source text.
    pub total_tokens: usize,
    /// Number of source lines not fully contained in any window —
    /// the §4.5 "patterns broken" count. Always `breakages.len()`.
    pub broken_patterns: usize,
    /// The broken patterns themselves, in text order.
    pub breakages: Vec<BrokenPattern>,
}

impl WindowSet {
    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when the text fit into zero windows (empty input).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

/// Chunks `text` per `config`.
///
/// A *pattern* for breakage accounting is one encoder line (the
/// incident encoder emits exactly one graph element per line). A line
/// is intact iff at least one window contains it entirely.
///
/// One scan over the tokens finds every window's byte range; each
/// window's text is then sliced from `text`. No per-token buffer is
/// built, so the cost is linear in the text length.
pub fn chunk(text: &str, config: WindowConfig) -> WindowSet {
    let (total, ranges) = window_byte_ranges(text.as_bytes(), config);
    let stride = config.window_size - config.overlap;
    let windows = ranges
        .iter()
        .enumerate()
        .map(|(index, &(b0, b1))| {
            let start_token = index * stride;
            Window {
                index,
                text: text[b0..b1].to_owned(),
                start_token,
                token_len: (start_token + config.window_size).min(total) - start_token,
            }
        })
        .collect();
    let breakages = broken_pattern_details(text, &ranges);
    WindowSet { windows, config, total_tokens: total, broken_patterns: breakages.len(), breakages }
}

/// Counts the tokens of `bytes` and finds the byte range of every
/// window in one pass: window `k` spans tokens `k·stride ..
/// k·stride + window_size`, clipped to the text, and the last window
/// is the first one that reaches the final token. Both the starts and
/// the ends of the ranges are non-decreasing.
fn window_byte_ranges(bytes: &[u8], config: WindowConfig) -> (usize, Vec<(usize, usize)>) {
    let stride = config.window_size - config.overlap;
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    // Token indices of the next window start and end to record, and
    // the number of windows whose end has been recorded.
    let (mut next_start, mut next_end, mut closed) = (0usize, config.window_size, 0usize);
    let (mut tokens, mut pos) = (0usize, 0usize);
    while pos < bytes.len() {
        if tokens == next_start.min(next_end) {
            if tokens == next_start {
                ranges.push((pos, bytes.len()));
                next_start += stride;
            }
            if tokens == next_end {
                ranges[closed].1 = pos;
                closed += 1;
                next_end += stride;
            }
        }
        pos = token_end(bytes, pos);
        tokens += 1;
    }
    // Windows `..closed` end before the last token, so window
    // `closed` is the one that reaches it; later starts are unused.
    ranges.truncate(closed + 1);
    (tokens, ranges)
}

/// Finds the *patterns* that no window contains entirely.
///
/// A pattern is one graph element's full incident description: in the
/// incident encoding that is the maximal run of consecutive lines
/// describing the same node (its header line plus its outgoing-edge
/// lines — all begin `Node n<id>`). A hub node whose block exceeds the
/// window overlap can straddle a boundary without any single window
/// seeing it whole; those are the paper's broken patterns (§4.5
/// reports 6 / 11 / 6 of them across the three datasets). Each is
/// reported with the node id and the first/last window overlapping
/// its bytes.
///
/// `ranges` are the windows' byte ranges, with non-decreasing starts
/// and ends, so each block is placed by binary search.
fn broken_pattern_details(text: &str, ranges: &[(usize, usize)]) -> Vec<BrokenPattern> {
    if ranges.len() <= 1 {
        return Vec::new();
    }
    let mut broken = Vec::new();
    let mut block_start = 0usize;
    let mut block_id: Option<&str> = None;
    let mut line_start = 0usize;
    let flush = |start: usize, end: usize, id: Option<&str>, broken: &mut Vec<BrokenPattern>| {
        if end > start {
            // Of the windows starting at or before the block, the last
            // one reaches furthest: a window contains the block iff
            // that one does.
            let starts_before = ranges.partition_point(|r| r.0 <= start);
            let contained = starts_before > 0 && ranges[starts_before - 1].1 >= end;
            if !contained {
                // The overlapping windows are the contiguous run that
                // ends after `start` and starts before `end`.
                let first = ranges.partition_point(|r| r.1 <= start);
                let past = ranges.partition_point(|r| r.0 < end);
                let (first_window, last_window) =
                    if first < past { (first, past - 1) } else { (0, 0) };
                broken.push(BrokenPattern {
                    node: id.map(|n| format!("n{n}")).unwrap_or_else(|| "-".to_owned()),
                    first_window,
                    last_window,
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

/// The `n<id>` token of an incident-encoder line, if it has one.
fn node_id_of(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("Node n")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    (end > 0).then(|| &rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::token_count;

    fn text_of_lines(n: usize) -> String {
        (0..n)
            .map(|i| format!("Node n{i} with labels Person has properties {{id: {i}}}.\n"))
            .collect()
    }

    #[test]
    fn single_window_when_text_fits() {
        let text = text_of_lines(3);
        let ws = chunk(&text, WindowConfig::new(10_000, 500));
        assert_eq!(ws.len(), 1);
        assert_eq!(ws.windows[0].text, text);
        assert_eq!(ws.broken_patterns, 0);
    }

    #[test]
    fn windows_cover_all_tokens() {
        let text = text_of_lines(100);
        let cfg = WindowConfig::new(300, 50);
        let ws = chunk(&text, cfg);
        assert!(ws.len() > 1);
        // Last window ends at the last token.
        let last = ws.windows.last().unwrap();
        assert_eq!(last.start_token + last.token_len, ws.total_tokens);
        // Every window except possibly the last is full-size.
        for w in &ws.windows[..ws.len() - 1] {
            assert_eq!(w.token_len, cfg.window_size);
        }
    }

    #[test]
    fn consecutive_windows_overlap_by_config() {
        let text = text_of_lines(100);
        let cfg = WindowConfig::new(300, 50);
        let ws = chunk(&text, cfg);
        for pair in ws.windows.windows(2) {
            assert_eq!(pair[1].start_token, pair[0].start_token + cfg.window_size - cfg.overlap);
        }
    }

    #[test]
    fn overlap_reduces_broken_patterns() {
        let text = text_of_lines(400);
        let with_overlap = chunk(&text, WindowConfig::new(200, 60));
        let without = chunk(&text, WindowConfig::new(200, 0));
        assert!(
            with_overlap.broken_patterns <= without.broken_patterns,
            "{} > {}",
            with_overlap.broken_patterns,
            without.broken_patterns
        );
    }

    #[test]
    fn broken_patterns_counts_lines_split_across_all_windows() {
        // Window much smaller than a line: every line must break.
        let text = text_of_lines(10);
        let per_line = token_count(&text) / 10;
        let ws = chunk(&text, WindowConfig::new(per_line / 2, 2));
        assert!(ws.broken_patterns > 0);
    }

    #[test]
    fn breakages_carry_node_ids_and_window_seams() {
        let text = text_of_lines(400);
        let ws = chunk(&text, WindowConfig::new(200, 0));
        assert_eq!(ws.breakages.len(), ws.broken_patterns);
        assert!(!ws.breakages.is_empty(), "zero overlap must break some block");
        for b in &ws.breakages {
            // Every broken block names its node and spans >= 2 windows.
            assert!(b.node.starts_with('n'), "{b:?}");
            assert!(b.first_window < b.last_window, "{b:?}");
            assert!(b.last_window < ws.len(), "{b:?}");
        }
        // Breakages come in text order: seams are non-decreasing.
        for pair in ws.breakages.windows(2) {
            assert!(pair[0].first_window <= pair[1].first_window);
        }
        // An intact chunking reports no breakage details either.
        let intact = chunk(&text, WindowConfig::new(100_000, 0));
        assert!(intact.breakages.is_empty());
        assert_eq!(intact.broken_patterns, 0);
    }

    #[test]
    fn empty_text_chunks_to_nothing() {
        let ws = chunk("", WindowConfig::default());
        assert!(ws.is_empty());
        assert_eq!(ws.total_tokens, 0);
        assert_eq!(ws.broken_patterns, 0);
    }

    #[test]
    #[should_panic(expected = "overlap must be smaller")]
    fn invalid_config_panics() {
        WindowConfig::new(100, 100);
    }

    #[test]
    fn window_text_concatenation_includes_full_source() {
        // With zero overlap the windows partition the text exactly.
        let text = text_of_lines(50);
        let ws = chunk(&text, WindowConfig::new(100, 0));
        let rebuilt: String = ws.windows.iter().map(|w| w.text.as_str()).collect();
        assert_eq!(rebuilt, text);
    }
}
