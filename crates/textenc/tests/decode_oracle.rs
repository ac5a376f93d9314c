//! `decode_graph` against the two-step decoder it replaced: the old
//! string-building `GraphFragment::parse` followed by `to_graph`, kept
//! here verbatim as the reference. Decoded graphs must match it
//! element by element — node order, sorted labels, properties, stubs,
//! edges and the edges dropped for an unseen source — as must the
//! library's `GraphFragment::parse` and `count_elements`, on encoder
//! output, window-like cuts, byte mutations, random text and the
//! grammar's known pitfalls.

use std::collections::HashSet;

use grm_pgraph::{PropertyGraph, PropertyMap, Value};
use grm_textenc::{decode_graph, encode_incident, GraphFragment};
use proptest::prelude::*;

/// The reference: the old line parser and `to_graph`.
mod oracle {
    use grm_pgraph::{PropertyGraph, PropertyMap, Value};

    pub struct FragmentNode {
        pub id: u32,
        pub labels: Vec<String>,
        pub props: PropertyMap,
    }

    pub struct FragmentEdge {
        pub src: u32,
        pub label: String,
        pub props: PropertyMap,
        pub dst: u32,
        pub dst_labels: Vec<String>,
    }

    #[derive(Default)]
    pub struct GraphFragment {
        pub nodes: Vec<FragmentNode>,
        pub edges: Vec<FragmentEdge>,
        pub skipped_lines: usize,
    }

    impl GraphFragment {
        pub fn parse(text: &str) -> GraphFragment {
            let mut frag = GraphFragment::default();
            for line in element_lines(text) {
                if let Some(edge) = parse_edge_line(line) {
                    frag.edges.push(edge);
                } else if let Some(node) = parse_node_line(line) {
                    frag.nodes.push(node);
                } else {
                    frag.skipped_lines += 1;
                }
            }
            frag
        }

        pub fn to_graph(&self) -> PropertyGraph {
            let mut g = PropertyGraph::new();
            let mut ids = std::collections::HashMap::new();
            for n in &self.nodes {
                let id = g.add_node(n.labels.clone(), n.props.clone());
                ids.insert(n.id, id);
            }
            for e in &self.edges {
                let Some(&src) = ids.get(&e.src) else { continue };
                let dst = *ids
                    .entry(e.dst)
                    .or_insert_with(|| g.add_node(e.dst_labels.clone(), PropertyMap::new()));
                g.add_edge(src, dst, e.label.clone(), e.props.clone());
            }
            g
        }
    }

    /// The trimmed lines of `text` that may hold a graph element: blank
    /// lines and the `Graph with ...` header are left out.
    fn element_lines(text: &str) -> impl Iterator<Item = &str> {
        text.lines()
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with("Graph with "))
    }

    /// `Node n0 with labels A:B has properties {k: v}.`
    fn parse_node_line(line: &str) -> Option<FragmentNode> {
        let rest = line.strip_prefix("Node n")?;
        let (id_str, rest) = rest.split_once(" with labels ")?;
        let id: u32 = id_str.parse().ok()?;
        let (labels_str, rest) = rest.split_once(" has properties ")?;
        let props_str = rest.strip_suffix('.')?;
        let props = parse_props(props_str)?;
        Some(FragmentNode { id, labels: labels_str.split(':').map(str::to_owned).collect(), props })
    }

    /// `Node n0 -[TYPE {k: v}]-> Node n5 (Match).`
    fn parse_edge_line(line: &str) -> Option<FragmentEdge> {
        let rest = line.strip_prefix("Node n")?;
        let (src_str, rest) = rest.split_once(" -[")?;
        let src: u32 = src_str.parse().ok()?;
        let (head, rest) = rest.split_once("]-> Node n")?;
        let (label, props_str) = match head.split_once(' ') {
            Some((l, p)) => (l, p),
            None => (head, "{}"),
        };
        let props = parse_props(props_str)?;
        let (dst_str, rest) = rest.split_once(" (")?;
        let dst: u32 = dst_str.parse().ok()?;
        let dst_labels_str = rest.strip_suffix(").")?;
        Some(FragmentEdge {
            src,
            label: label.to_owned(),
            props,
            dst,
            dst_labels: dst_labels_str.split(':').map(str::to_owned).collect(),
        })
    }

    /// `{k: v, k2: v2}` — must consume the whole string.
    fn parse_props(s: &str) -> Option<PropertyMap> {
        let inner = s.strip_prefix('{')?.strip_suffix('}')?;
        let mut props = PropertyMap::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            let (key, after) = rest.split_once(':')?;
            let key = key.trim();
            if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return None;
            }
            let (value, remainder) = parse_value(after.trim())?;
            props.insert(key.to_owned(), value);
            rest = remainder.trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
            } else if !rest.is_empty() {
                return None;
            }
        }
        Some(props)
    }

    /// Parses one literal, returning it and the remaining input.
    fn parse_value(s: &str) -> Option<(Value, &str)> {
        if let Some(rest) = s.strip_prefix('\'') {
            // String with backslash escapes.
            let mut out = String::new();
            let mut chars = rest.char_indices();
            while let Some((i, c)) = chars.next() {
                match c {
                    '\\' => {
                        let (_, esc) = chars.next()?;
                        out.push(esc);
                    }
                    '\'' => return Some((Value::Str(out), &rest[i + 1..])),
                    other => out.push(other),
                }
            }
            return None; // unterminated
        }
        if let Some(rest) = s.strip_prefix("datetime(") {
            let (num, rest) = rest.split_once(')')?;
            return Some((Value::DateTime(num.trim().parse().ok()?), rest));
        }
        if let Some(mut rest) = s.strip_prefix('[') {
            let mut items = Vec::new();
            rest = rest.trim_start();
            if let Some(r) = rest.strip_prefix(']') {
                return Some((Value::List(items), r));
            }
            loop {
                let (v, r) = parse_value(rest)?;
                items.push(v);
                rest = r.trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r.trim_start();
                } else if let Some(r) = rest.strip_prefix(']') {
                    return Some((Value::List(items), r));
                } else {
                    return None;
                }
            }
        }
        for (word, value) in
            [("null", Value::Null), ("true", Value::Bool(true)), ("false", Value::Bool(false))]
        {
            if let Some(rest) = s.strip_prefix(word) {
                return Some((value, rest));
            }
        }
        // Number: consume [-0-9.] prefix.
        let end = s
            .char_indices()
            .take_while(|(i, c)| c.is_ascii_digit() || *c == '.' || (*i == 0 && *c == '-'))
            .map(|(i, c)| i + c.len_utf8())
            .last()?;
        let num = &s[..end];
        let rest = &s[end..];
        if num.contains('.') {
            Some((Value::Float(num.parse().ok()?), rest))
        } else {
            Some((Value::Int(num.parse().ok()?), rest))
        }
    }
}

/// Checks `decode_graph`, `GraphFragment::parse` and `count_elements`
/// on `text` against the oracle.
fn assert_matches_oracle(text: &str) {
    let want = oracle::GraphFragment::parse(text);

    let frag = GraphFragment::parse(text);
    assert_eq!(frag.skipped_lines, want.skipped_lines, "skipped lines of {text:?}");
    assert_eq!(frag.nodes.len(), want.nodes.len(), "nodes of {text:?}");
    for (got, want) in frag.nodes.iter().zip(&want.nodes) {
        assert_eq!((got.id, &got.labels, &got.props), (want.id, &want.labels, &want.props));
    }
    assert_eq!(frag.edges.len(), want.edges.len(), "edges of {text:?}");
    for (got, want) in frag.edges.iter().zip(&want.edges) {
        assert_eq!(
            (got.src, &got.label, &got.props, got.dst, &got.dst_labels),
            (want.src, &want.label, &want.props, want.dst, &want.dst_labels)
        );
    }

    assert_eq!(
        GraphFragment::count_elements(text),
        want.nodes.len() + want.edges.len(),
        "element count of {text:?}"
    );

    let decoded = decode_graph(text);
    assert_graphs_equal(&decoded, &want.to_graph(), text);
    // An edge is dropped when its source is neither a node line nor a
    // stub an earlier edge created.
    let mut seen: HashSet<u32> = want.nodes.iter().map(|n| n.id).collect();
    let mut kept = 0;
    for e in &want.edges {
        if seen.contains(&e.src) {
            seen.insert(e.dst);
            kept += 1;
        }
    }
    assert_eq!(decoded.edge_count(), kept, "dropped edges of {text:?}");
}

fn assert_graphs_equal(got: &PropertyGraph, want: &PropertyGraph, text: &str) {
    assert_eq!(got.node_count(), want.node_count(), "node count of {text:?}");
    for (g, w) in got.nodes().zip(want.nodes()) {
        assert_eq!((g.id, &g.labels, &g.props), (w.id, &w.labels, &w.props), "{text:?}");
        let out = |graph: &PropertyGraph| graph.out_edges(g.id).map(|e| e.id).collect::<Vec<_>>();
        assert_eq!(out(got), out(want), "out edges of {} in {text:?}", g.id);
    }
    assert_eq!(got.edge_count(), want.edge_count(), "edge count of {text:?}");
    for (g, w) in got.edges().zip(want.edges()) {
        assert_eq!(
            (g.id, g.src, g.dst, &g.label, &g.props),
            (w.id, w.src, w.dst, &w.label, &w.props),
            "{text:?}"
        );
    }
    assert_eq!(got.node_labels(), want.node_labels(), "{text:?}");
    assert_eq!(got.edge_labels(), want.edge_labels(), "{text:?}");
    for label in want.node_labels() {
        let ids = |graph: &PropertyGraph| {
            graph.nodes_with_label(&label).map(|n| n.id).collect::<Vec<_>>()
        };
        assert_eq!(ids(got), ids(want), "label index of {label} in {text:?}");
    }
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
        "[a-z '\\\\,:{}\\[\\]é -]{0,10}".prop_map(Value::Str),
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

/// The incident encoding of a random graph: one to three labels per
/// node, self-loops and parallel edges allowed.
fn arb_encoding() -> impl Strategy<Value = String> {
    (
        prop::collection::vec((prop::collection::vec("[A-Z][a-z]{0,5}", 1..4), arb_props()), 1..8),
        prop::collection::vec((0usize..8, 0usize..8, "[A-Z_]{1,8}", arb_props()), 0..12),
    )
        .prop_map(|(nodes, edges)| {
            let mut g = PropertyGraph::new();
            let ids: Vec<_> = nodes.into_iter().map(|(labels, p)| g.add_node(labels, p)).collect();
            for (s, d, label, p) in edges {
                g.add_edge(ids[s % ids.len()], ids[d % ids.len()], label, p);
            }
            encode_incident(&g)
        })
}

/// The character boundary at or after `at % (len + 1)`.
fn boundary(text: &str, at: usize) -> usize {
    (at % (text.len() + 1)..=text.len()).find(|i| text.is_char_boundary(*i)).unwrap()
}

/// Fragments of the line grammar, shuffled together by the random-text
/// test so that near-miss lines are common.
const GRAMMAR_PIECES: [&str; 31] = [
    "Node n",
    "7",
    "42",
    "+",
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
    "]-> Node n",
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
    "\r\n",
    "\u{a0}",
    "\u{b}",
    " ",
    "k",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whole encodings, and two encodings back to back (every node id
    /// then appears twice).
    #[test]
    fn decoder_matches_oracle_on_encodings(a in arb_encoding(), b in arb_encoding()) {
        assert_matches_oracle(&a);
        assert_matches_oracle(&format!("{a}{b}"));
    }

    /// Encodings cut at any two character boundaries, as window and
    /// chunk seams cut them.
    #[test]
    fn decoder_matches_oracle_on_window_cuts(
        text in arb_encoding(),
        a in 0usize..4096,
        b in 0usize..4096,
    ) {
        let (a, b) = (boundary(&text, a), boundary(&text, b));
        assert_matches_oracle(&text[a.min(b)..a.max(b)]);
    }

    /// Encodings with bytes overwritten; invalid UTF-8 is replaced the
    /// way a lossy reader of outside bytes would.
    #[test]
    fn decoder_matches_oracle_on_byte_mutations(
        text in arb_encoding(),
        edits in prop::collection::vec((0usize..4096, any::<u8>()), 1..6),
    ) {
        let mut bytes = text.into_bytes();
        for (at, byte) in edits {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        assert_matches_oracle(&String::from_utf8_lossy(&bytes));
    }

    /// Arbitrary text, and text built from the grammar's own pieces.
    #[test]
    fn decoder_matches_oracle_on_random_text(
        text in ".{0,300}",
        pieces in prop::collection::vec(0usize..GRAMMAR_PIECES.len(), 0..40),
    ) {
        assert_matches_oracle(&text);
        assert_matches_oracle(&pieces.iter().map(|&i| GRAMMAR_PIECES[i]).collect::<String>());
    }
}

#[test]
fn decoder_matches_oracle_on_fixed_lines() {
    for text in [
        "",
        "Graph with 2 nodes and 1 edges.\n",
        "Node n0 with labels A has properties {}.\n",
        "Node n0 -[R {}]-> Node n1 (A).\n",
        "Node n0 with labels A has properties {}.\nNode n0 -[R]-> Node n1 (A).\n",
        "Node n0 with labels A has properties {}.\nNode n0 -[ {}]-> Node n1 ().\n",
        "  Node n1 with labels A:B has properties {s: 'it\\'s', l: [1, [2.5, null]], t: datetime(-3)}.  \n",
        "Node n1 with labels A has properties {s: 'open}.\n",
        "Node n99999999999 with labels A has properties {}.\n",
        "Node n4294967295 with labels A has properties {}.\nNode n4294967296 with labels B has properties {}.\n",
        "Node n0 -[R {w: 1}]-> Node nx (A).\nNode n0 with labels A has properties {k: -}.\n",
        // `u32::from_str` reads a leading `+`, but not `-` or a bare `+`.
        "Node n+5 with labels A has properties {}.\nNode n+5 -[R {}]-> Node n+6 (B).\n",
        "Node n-5 with labels A has properties {}.\nNode n+ with labels A has properties {}.\n",
        "Node n++5 with labels A has properties {}.\nNode n5+ with labels A has properties {}.\n",
        // Whitespace `str::trim` strips but the ASCII checks do not.
        "\u{a0}Node n0 with labels A has properties {\u{2028}k\u{a0}: \u{a0}1\u{3000}}.\u{2028}\n",
        "Node n0 with labels A has properties {t: datetime(\u{a0}5\u{a0}), l: [\u{a0}1\u{a0}]}.\n",
        "Node n0 with labels A has properties {k\u{a0}x: 1}.\n",
        "Node n0 with labels A has properties { k\u{b}: 1 ,\u{b}j\t: [ 2 ,\u{85}3 ] , m : null ,}.\n",
        "Node n0 with labels A has properties {k x: 1}.\nNode n1 with labels A has properties {k:1,,}.\n",
        "Node n0 with labels A has properties {é: 1}.\nNode n1 with labels A has properties {: 1}.\n",
        "Node n0 with labels A has properties {k}.\nNode n1 with labels A has properties {k:}.\n",
        "Node n0 with labels A has properties {t: datetime( +5 ), u: datetime(5, v: date}.\n",
        // `\r\n` line endings, and a lone `\r` inside a line.
        "Node n0 with labels A has properties {k: 1}.\r\nNode n0 -[R {}]-> Node n1 (B).\r\n",
        "Node n0 with labels A has properties {k: 'a\rb'}.\r\n",
        // Escaped quote and backslash, multibyte escapes, nested lists.
        "Node n0 with labels A has properties {s: 'a\\'b\\\\c\\é', l: [[[]], [1, ['x\\'']], []]}.\n",
        "Node n0 with labels A has properties {s: 'dangling\\}.\n",
        "Node n0 with labels A has properties {l: [1,]}.\nNode n1 with labels A has properties {l: [,]}.\n",
        // Duplicate node ids: edges attach to the last node.
        "Node n0 with labels A has properties {v: 1}.\nNode n0 with labels B has properties {v: 2}.\n\
         Node n0 -[R {}]-> Node n0 (A).\n",
        // One stub reached by two edges with different target labels.
        "Node n0 with labels A has properties {}.\nNode n0 -[R {}]-> Node n9 (B).\n\
         Node n0 -[S {}]-> Node n9 (C:D).\nNode n3 -[T {}]-> Node n9 (E).\n",
        // An edge to a node whose line comes later is no stub.
        "Node n0 -[R {}]-> Node n1 (Stub).\nNode n0 with labels A has properties {}.\n\
         Node n1 with labels Real has properties {x: 1}.\n",
        // Node lines whose string literals hold the edge separators.
        "Node n1 with labels A has properties {s: 'x -[R {}]-> Node n2 (B).'}.\n",
        "Node n1 with labels A has properties {s: ' -[', t: ']-> Node n', u: ' ('}.\n",
        // An edge literal holding `]-> Node n` ends the head early.
        "Node n0 with labels A has properties {}.\nNode n0 -[R {s: ']-> Node n7 (Z).'}]-> Node n1 (B).\n",
        // Repeated keys keep the last value; labels repeat and unsort.
        "Node n0 with labels B:A:B has properties {k: 1, k: 'two'}.\n",
        "Node n0 with labels A has properties {k: nullx}.\nNode n1 with labels A has properties {k: 1.2.3}.\n",
        "Node n0 with labels A has properties {k: .5, m: 7., n: -0.25}.\n",
        "Node n0 with labels A has properties {j: -.}.\nNode n1 with labels A has properties {j: 1.2.3}.\n",
    ] {
        assert_matches_oracle(text);
    }
}

#[test]
fn decoder_sees_every_element_of_an_encoding_with_every_value_kind() {
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
    let a = g.add_node(["B", "A"], kinds.clone());
    let b = g.add_node(["C"], PropertyMap::new());
    g.add_edge(a, b, "R", kinds);
    g.add_edge(b, a, "S", PropertyMap::new());
    let text = encode_incident(&g);
    assert_eq!(GraphFragment::count_elements(&text), 4);
    assert_graphs_equal(&decode_graph(&text), &g, &text);
    assert_matches_oracle(&text);
}
