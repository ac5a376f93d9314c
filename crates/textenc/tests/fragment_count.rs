//! `GraphFragment::count_elements` counts exactly the elements
//! `GraphFragment::parse` recovers, and neither panics, on encoder
//! output, its truncations and byte mutations, and random text.

use grm_pgraph::{PropertyGraph, PropertyMap, Value};
use grm_textenc::{encode_incident, GraphFragment};
use proptest::prelude::*;

fn parsed_elements(text: &str) -> usize {
    let frag = GraphFragment::parse(text);
    frag.nodes.len() + frag.edges.len()
}

fn assert_counts_agree(text: &str) {
    assert_eq!(GraphFragment::count_elements(text), parsed_elements(text), "{text:?}");
}

/// Every `Value` kind, with quotes and backslashes in strings and
/// nested lists.
fn arb_value() -> impl Strategy<Value = Value> {
    let scalar = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (any::<i32>(), 0u32..1000)
            .prop_map(|(i, f)| Value::Float(f64::from(i) + f64::from(f) / 1e3)),
        "[a-z '\\\\,:{}\\[\\]é]{0,10}".prop_map(Value::Str),
        any::<i64>().prop_map(Value::DateTime),
    ];
    let scalar = scalar.boxed();
    prop_oneof![
        scalar.clone(),
        scalar.clone(),
        prop::collection::vec(scalar.clone(), 0..4).prop_map(Value::List),
        prop::collection::vec(prop::collection::vec(scalar, 0..3).prop_map(Value::List), 0..3)
            .prop_map(Value::List),
    ]
}

fn arb_props() -> impl Strategy<Value = PropertyMap> {
    prop::collection::vec(("[a-z_][a-z0-9_]{0,5}", arb_value()), 0..4)
        .prop_map(|kvs| kvs.into_iter().collect())
}

fn arb_encoding() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(("[A-Z][a-z]{0,5}", arb_props()), 1..8),
        prop::collection::vec((0usize..8, 0usize..8, "[A-Z_]{1,8}", arb_props()), 0..12),
    )
        .prop_map(|(nodes, edges)| {
            let mut g = PropertyGraph::new();
            let ids: Vec<_> = nodes.into_iter().map(|(label, p)| g.add_node([label], p)).collect();
            for (s, d, label, p) in edges {
                g.add_edge(ids[s % ids.len()], ids[d % ids.len()], label, p);
            }
            encode_incident(&g)
        })
}

/// Fragments of the line grammar, shuffled together by the random-text
/// test so that near-miss lines are common.
const GRAMMAR_PIECES: [&str; 24] = [
    "Node n",
    "7",
    "42",
    " with labels ",
    "A",
    ":",
    " has properties ",
    "{",
    "}",
    ".",
    ": ",
    ", ",
    " -[",
    "]-> ",
    " (",
    ").",
    "'",
    "\\",
    "[",
    "]",
    "null",
    "datetime(",
    "-1.5",
    "\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whole encodings count every element, as `parse` does.
    #[test]
    fn count_matches_parse_on_encodings(text in arb_encoding()) {
        assert_counts_agree(&text);
    }

    /// Encodings cut at any two character boundaries, as window and
    /// chunk seams cut them.
    #[test]
    fn count_matches_parse_on_truncations(text in arb_encoding(), a in 0usize..4096, b in 0usize..4096) {
        let (a, b) = (a % (text.len() + 1), b % (text.len() + 1));
        let (lo, hi) = (a.min(b), a.max(b));
        let lo = (lo..=text.len()).find(|i| text.is_char_boundary(*i)).unwrap();
        let hi = (hi..=text.len()).find(|i| text.is_char_boundary(*i)).unwrap();
        assert_counts_agree(&text[lo..hi]);
    }

    /// Encodings with bytes overwritten; invalid UTF-8 is replaced the
    /// way a lossy reader of outside bytes would.
    #[test]
    fn count_matches_parse_on_byte_mutations(
        text in arb_encoding(),
        edits in prop::collection::vec((0usize..4096, any::<u8>()), 1..6),
    ) {
        let mut bytes = text.into_bytes();
        for (at, byte) in edits {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        assert_counts_agree(&String::from_utf8_lossy(&bytes));
    }

    /// Arbitrary text, and text built from the grammar's own pieces.
    #[test]
    fn count_matches_parse_on_random_text(
        text in ".{0,300}",
        pieces in prop::collection::vec(0usize..GRAMMAR_PIECES.len(), 0..40),
    ) {
        assert_counts_agree(&text);
        assert_counts_agree(&pieces.iter().map(|&i| GRAMMAR_PIECES[i]).collect::<String>());
    }
}

#[test]
fn count_matches_parse_on_fixed_lines() {
    for text in [
        "",
        "Graph with 2 nodes and 1 edges.\n",
        "Node n0 with labels A has properties {}.\n",
        "Node n0 -[R {}]-> Node n1 (A).\n",
        "Node n0 -[R]-> Node n1 (A).\n",
        "  Node n1 with labels A:B has properties {s: 'it\\'s', l: [1, [2.5, null]], t: datetime(-3)}.  \n",
        "Node n1 with labels A has properties {s: 'open}.\n",
        "Node n99999999999 with labels A has properties {}.\n",
        "Node n0 -[R {w: 1}]-> Node nx (A).\nNode n0 with labels A has properties {k: -}.\n",
    ] {
        assert_counts_agree(text);
    }
}

#[test]
fn count_sees_every_element_of_an_encoding_with_every_value_kind() {
    let mut g = PropertyGraph::new();
    let kinds: PropertyMap = [
        ("n", Value::Null),
        ("b", Value::Bool(true)),
        ("i", Value::Int(-7)),
        ("f", Value::Float(2.5)),
        ("s", Value::from("it's {a, b}: [c]")),
        ("t", Value::DateTime(1_700_000_000)),
        ("l", Value::List(vec![Value::Int(1), Value::List(vec![Value::from("x'y")])])),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    let a = g.add_node(["A", "B"], kinds.clone());
    let b = g.add_node(["C"], PropertyMap::new());
    g.add_edge(a, b, "R", kinds);
    g.add_edge(b, a, "S", PropertyMap::new());
    let text = encode_incident(&g);
    assert_eq!(GraphFragment::count_elements(&text), 4);
    assert_counts_agree(&text);
}
