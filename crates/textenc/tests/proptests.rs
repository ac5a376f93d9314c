//! Property-based tests for tokenization, windowing, and fragment
//! decoding.

use grm_pgraph::{props, PropertyGraph, Value};
use grm_textenc::{chunk, encode_incident, token_count, tokenize, GraphFragment, WindowConfig};
use proptest::prelude::*;

proptest! {
    /// The tokenizer is lossless on arbitrary input.
    #[test]
    fn tokenizer_is_lossless(text in ".{0,300}") {
        prop_assert_eq!(tokenize(&text).concat(), text);
    }

    /// Counting tokens agrees with materialising them.
    #[test]
    fn token_count_matches_tokenize(text in ".{0,300}") {
        prop_assert_eq!(token_count(&text), tokenize(&text).len());
    }

    /// The same on the encoder's alphabet, whitespace runs included.
    #[test]
    fn token_count_matches_tokenize_on_encoder_text(text in "[a-zA-Z0-9_ \t\n.,:{}'é✓]{0,300}") {
        prop_assert_eq!(token_count(&text), tokenize(&text).len());
    }

    /// No token is empty and alphanumeric runs respect the piece cap.
    #[test]
    fn tokens_are_nonempty_and_bounded(text in "[a-zA-Z0-9 .,:{}']{0,200}") {
        for t in tokenize(&text) {
            prop_assert!(!t.is_empty());
            let core = t.trim_start();
            if core.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                prop_assert!(core.chars().count() <= grm_textenc::MAX_PIECE);
            }
        }
    }

    /// Zero-overlap windows partition the token stream exactly.
    #[test]
    fn zero_overlap_windows_partition(
        text in "[a-z0-9 \n]{1,400}",
        window in 4usize..60,
    ) {
        let ws = chunk(&text, WindowConfig::new(window, 0));
        let rebuilt: String = ws.windows.iter().map(|w| w.text.as_str()).collect();
        prop_assert_eq!(rebuilt, text);
    }

    /// With overlap, consecutive windows share exactly the configured
    /// token stride, and the final window reaches the last token.
    #[test]
    fn overlapping_windows_cover(
        text in "[a-z0-9 \n]{1,400}",
        window in 6usize..60,
        overlap_frac in 0usize..5,
    ) {
        let overlap = (window * overlap_frac / 10).min(window - 1);
        let ws = chunk(&text, WindowConfig::new(window, overlap));
        prop_assume!(!ws.is_empty());
        for pair in ws.windows.windows(2) {
            prop_assert_eq!(pair[1].start_token, pair[0].start_token + window - overlap);
        }
        let last = ws.windows.last().unwrap();
        prop_assert_eq!(last.start_token + last.token_len, ws.total_tokens);
    }
}

fn arb_safe_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(|i| Value::Int(i64::from(i))),
        "[a-zA-Z0-9 .:_-]{0,12}".prop_map(Value::Str),
        any::<i32>().prop_map(|t| Value::DateTime(i64::from(t))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode → decode is the identity on nodes, edges, labels and
    /// property values, for random graphs.
    #[test]
    fn incident_roundtrip(
        node_count in 1usize..12,
        kvs in prop::collection::vec(("[a-z][a-z0-9]{0,6}", arb_safe_value()), 0..4),
        edges in prop::collection::vec((0u8..12, 0u8..12), 0..16),
    ) {
        let mut g = PropertyGraph::new();
        for i in 0..node_count {
            let mut p = grm_pgraph::PropertyMap::new();
            for (k, v) in &kvs {
                p.insert(format!("{k}{i}"), v.clone());
            }
            g.add_node(["Node2"], p);
        }
        for (s, d) in &edges {
            let src = grm_pgraph::NodeId(u32::from(s % node_count as u8));
            let dst = grm_pgraph::NodeId(u32::from(d % node_count as u8));
            g.add_edge(src, dst, "LINKS", props([("w", 1i64)]));
        }

        let frag = GraphFragment::parse(&encode_incident(&g));
        prop_assert_eq!(frag.skipped_lines, 0);
        prop_assert_eq!(frag.nodes.len(), g.node_count());
        prop_assert_eq!(frag.edges.len(), g.edge_count());
        for (fnode, gnode) in frag.nodes.iter().zip(g.nodes()) {
            prop_assert_eq!(&fnode.labels, &gnode.labels);
            prop_assert_eq!(&fnode.props, &gnode.props);
        }
    }

    /// Fragment parsing is total on arbitrary text and never reports
    /// more elements than lines.
    #[test]
    fn fragment_parse_is_total(text in ".{0,400}") {
        let frag = GraphFragment::parse(&text);
        let lines = text.lines().count();
        prop_assert!(frag.nodes.len() + frag.edges.len() + frag.skipped_lines <= lines + 1);
    }

    /// Any contiguous window of an encoding parses without panicking
    /// and recovers a subset of the graph.
    #[test]
    fn windows_decode_to_subsets(cut_a in 0usize..1000, cut_b in 0usize..1000) {
        let mut g = PropertyGraph::new();
        for i in 0..20i64 {
            g.add_node(["User"], props([("id", i)]));
        }
        let text = encode_incident(&g);
        let (a, b) = (cut_a % text.len(), cut_b % text.len());
        let (lo, hi) = (a.min(b), a.max(b));
        // Snap to char boundaries.
        let lo = (lo..text.len()).find(|i| text.is_char_boundary(*i)).unwrap_or(0);
        let hi = (hi..text.len()).find(|i| text.is_char_boundary(*i)).unwrap_or(text.len());
        let frag = GraphFragment::parse(&text[lo..hi]);
        prop_assert!(frag.nodes.len() <= g.node_count());
        for n in &frag.nodes {
            prop_assert!(n.labels == vec!["User".to_owned()]);
        }
    }
}
