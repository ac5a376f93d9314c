//! Fragment decoding: reading incident-encoded text back into a
//! partial graph.
//!
//! The simulated LLM in `grm-llm` can only "know" what is inside its
//! prompt. This module gives it that knowledge honestly: it re-reads
//! the (possibly truncated) incident-encoded fragment it was handed —
//! a window from the sliding-window chunker, or retrieved chunks from
//! the RAG store — with [`decode_graph`], straight into the property
//! graph the model reasons over. Lines cut in half by a window
//! boundary fail to parse and are *dropped*, which is precisely the
//! context-fragmentation effect §3.1.1/§4.5 of the paper discusses.
//!
//! One line grammar serves [`decode_graph`], [`GraphFragment::parse`]
//! and [`GraphFragment::count_elements`]; the last runs it in a
//! validate-only mode that builds no values.

use std::collections::HashMap;

use grm_pgraph::{NodeId, PropertyGraph, PropertyMap, Value};

/// A node recovered from encoded text.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentNode {
    pub id: u32,
    pub labels: Vec<String>,
    pub props: PropertyMap,
}

/// An edge recovered from encoded text.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentEdge {
    pub src: u32,
    pub label: String,
    pub props: PropertyMap,
    pub dst: u32,
    pub dst_labels: Vec<String>,
}

/// A partial view of the graph, as recovered from a text fragment.
#[derive(Debug, Clone, Default)]
pub struct GraphFragment {
    pub nodes: Vec<FragmentNode>,
    pub edges: Vec<FragmentEdge>,
    /// Lines that did not parse (typically window-boundary fragments
    /// and the `Graph with ...` header).
    pub skipped_lines: usize,
}

impl GraphFragment {
    /// Parses a fragment of incident-encoded text. Never fails: bad
    /// lines are counted in `skipped_lines`.
    pub fn parse(text: &str) -> GraphFragment {
        let mut frag = GraphFragment::default();
        for line in element_lines(text) {
            match parse_line::<true>(line) {
                Some(Line::Node { id, labels, props }) => {
                    frag.nodes.push(FragmentNode { id, labels: owned_labels(labels), props });
                }
                Some(Line::Edge(e)) => frag.edges.push(FragmentEdge {
                    src: e.src,
                    label: e.label.to_owned(),
                    props: e.props,
                    dst: e.dst,
                    dst_labels: owned_labels(e.dst_labels),
                }),
                None => frag.skipped_lines += 1,
            }
        }
        frag
    }

    /// The element count of [`GraphFragment::parse`]: `nodes.len() +
    /// edges.len()`, from the same line grammar run in validate-only
    /// mode, so it allocates nothing.
    pub fn count_elements(text: &str) -> usize {
        element_lines(text).filter(|line| parse_line::<false>(line).is_some()).count()
    }

    /// Fraction of all graph elements this fragment covers, given the
    /// full element count.
    pub fn coverage(&self, total_elements: usize) -> f64 {
        if total_elements == 0 {
            0.0
        } else {
            (self.nodes.len() + self.edges.len()) as f64 / total_elements as f64
        }
    }
}

/// Decodes a fragment of incident-encoded text into a small property
/// graph — the "mental model" the simulated LLM reasons over — in one
/// pass over the text.
///
/// Node lines become nodes in the order they are read. Edge lines are
/// held back and added after the last line: an edge whose source node
/// is not in the text is dropped (its source labels are unknown), and
/// an unseen target becomes a label-only stub, created when the first
/// edge reaching it is added. When a node id repeats, edges attach to
/// its last node. Lines that do not parse are skipped.
pub fn decode_graph(text: &str) -> PropertyGraph {
    let mut graph = PropertyGraph::new();
    let mut ids: HashMap<u32, NodeId> = HashMap::new();
    let mut edges = Vec::new();
    for line in element_lines(text) {
        match parse_line::<true>(line) {
            Some(Line::Node { id, labels, props }) => {
                ids.insert(id, graph.add_node(labels.split(':'), props));
            }
            Some(Line::Edge(e)) => edges.push(e),
            None => {}
        }
    }
    for e in edges {
        let Some(&src) = ids.get(&e.src) else { continue };
        let dst = *ids
            .entry(e.dst)
            .or_insert_with(|| graph.add_node(e.dst_labels.split(':'), PropertyMap::new()));
        graph.add_edge(src, dst, e.label, e.props);
    }
    graph
}

/// The trimmed lines of `text` that may hold a graph element: blank
/// lines and the `Graph with ...` header are left out.
fn element_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().map(str::trim).filter(|line| !line.is_empty() && !line.starts_with("Graph with "))
}

fn owned_labels(labels: &str) -> Vec<String> {
    labels.split(':').map(str::to_owned).collect()
}

/// One element line. Labels stay borrowed, `:`-joined slices of the
/// line; property maps are empty when the grammar runs validate-only.
enum Line<'a> {
    Node { id: u32, labels: &'a str, props: PropertyMap },
    Edge(EdgeLine<'a>),
}

struct EdgeLine<'a> {
    src: u32,
    label: &'a str,
    props: PropertyMap,
    dst: u32,
    dst_labels: &'a str,
}

/// The line grammar:
///
/// * `Node n0 with labels A:B has properties {k: v}.`
/// * `Node n0 -[TYPE {k: v}]-> Node n5 (Match).`
///
/// The bytes after the id tell the two apart. With `BUILD` false the
/// line is only validated: no property map, string or list is built.
fn parse_line<const BUILD: bool>(line: &str) -> Option<Line<'_>> {
    let (id, rest) = split_id(line.strip_prefix("Node n")?)?;
    if let Some(rest) = rest.strip_prefix(" -[") {
        // The first `]-> Node n` ends the head, even inside a string
        // literal (the literal then fails to parse).
        let (head, rest) = split_at_first(rest, "]-> Node n")?;
        let (dst_str, rest) = split_at_first(rest, " (")?;
        let dst = dst_str.parse().ok()?;
        let dst_labels = rest.strip_suffix(").")?;
        let (label, props_str) = head.split_once(' ').unwrap_or((head, "{}"));
        let props = parse_props::<BUILD>(props_str)?;
        return Some(Line::Edge(EdgeLine { src: id, label, props, dst, dst_labels }));
    }
    let rest = rest.strip_prefix(" with labels ")?;
    let (labels, rest) = split_at_first(rest, " has properties ")?;
    let props = parse_props::<BUILD>(rest.strip_suffix('.')?)?;
    Some(Line::Node { id, labels, props })
}

/// Reads a node id as `u32::from_str` does (an optional `+`, then
/// ASCII digits) and returns it with the rest of the line.
fn split_id(s: &str) -> Option<(u32, &str)> {
    let bytes = s.as_bytes();
    let sign = usize::from(bytes.first() == Some(&b'+'));
    let end = sign + bytes[sign..].iter().take_while(|b| b.is_ascii_digit()).count();
    Some((s[..end].parse().ok()?, &s[end..]))
}

/// Splits `s` around the first occurrence of `needle`, as
/// `str::split_once` does, scanning for its first byte.
fn split_at_first<'a>(s: &'a str, needle: &str) -> Option<(&'a str, &'a str)> {
    let (hay, pat) = (s.as_bytes(), needle.as_bytes());
    let mut from = 0;
    while let Some(at) = hay[from..].iter().position(|&b| b == pat[0]) {
        let at = from + at;
        if hay[at..].starts_with(pat) {
            return Some((&s[..at], &s[at + pat.len()..]));
        }
        from = at + 1;
    }
    None
}

/// `s.trim_start()`, with a fast path for a leading printable ASCII byte.
#[inline]
fn skip_ws(s: &str) -> &str {
    match s.as_bytes().first() {
        Some(b'!'..=b'~') => s,
        _ => s.trim_start(),
    }
}

/// `{k: v, k2: v2}` — must consume the whole string.
fn parse_props<const BUILD: bool>(s: &str) -> Option<PropertyMap> {
    let inner = s.strip_prefix('{')?.strip_suffix('}')?;
    let mut props = PropertyMap::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        // A key is the trimmed text before the next `:`; it must be
        // ASCII alphanumerics and `_`, so it ends at the first other byte.
        let end = rest.bytes().take_while(|b| b.is_ascii_alphanumeric() || *b == b'_').count();
        if end == 0 {
            return None;
        }
        let key = &rest[..end];
        let after = skip_ws(&rest[end..]).strip_prefix(':')?;
        let (value, remainder) = parse_value::<BUILD>(skip_ws(after))?;
        if BUILD {
            props.insert(key.to_owned(), value);
        }
        rest = skip_ws(remainder);
        if let Some(r) = rest.strip_prefix(',') {
            rest = skip_ws(r);
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some(props)
}

/// Parses one literal, returning it and the remaining input. With
/// `BUILD` false every value reads as `Null`.
fn parse_value<const BUILD: bool>(s: &str) -> Option<(Value, &str)> {
    let keyword = |word: &str, value: Value| Some((value, s.strip_prefix(word)?));
    match s.as_bytes().first()? {
        b'\'' => parse_string::<BUILD>(&s[1..]),
        b'd' => {
            let (num, rest) = s.strip_prefix("datetime(")?.split_once(')')?;
            Some((Value::DateTime(num.trim().parse().ok()?), rest))
        }
        b'[' => parse_list::<BUILD>(&s[1..]),
        b'n' => keyword("null", Value::Null),
        b't' => keyword("true", Value::Bool(true)),
        b'f' => keyword("false", Value::Bool(false)),
        _ => parse_number(s),
    }
}

/// The items of a `[`-opened list, up to its `]`.
fn parse_list<const BUILD: bool>(s: &str) -> Option<(Value, &str)> {
    let mut items = Vec::new();
    let list = |items| if BUILD { Value::List(items) } else { Value::Null };
    let mut rest = s.trim_start();
    if let Some(r) = rest.strip_prefix(']') {
        return Some((list(items), r));
    }
    loop {
        let (v, r) = parse_value::<BUILD>(rest)?;
        if BUILD {
            items.push(v);
        }
        rest = skip_ws(r);
        if let Some(r) = rest.strip_prefix(',') {
            rest = skip_ws(r);
        } else if let Some(r) = rest.strip_prefix(']') {
            return Some((list(items), r));
        } else {
            return None;
        }
    }
}

/// A `[-0-9.]` prefix (`-` only first): a float if it holds a `.`.
fn parse_number(s: &str) -> Option<(Value, &str)> {
    let bytes = s.as_bytes();
    let mut end = usize::from(bytes.first() == Some(&b'-'));
    let mut float = false;
    while let Some(&b) = bytes.get(end) {
        match b {
            b'0'..=b'9' => {}
            b'.' => float = true,
            _ => break,
        }
        end += 1;
    }
    if end == 0 {
        return None;
    }
    let (num, rest) = s.split_at(end);
    if float {
        Some((Value::Float(num.parse().ok()?), rest))
    } else {
        Some((Value::Int(num.parse().ok()?), rest))
    }
}

/// The body of a `'`-quoted string with backslash escapes (a
/// backslash takes the next character literally). Runs between
/// escapes are copied whole.
fn parse_string<const BUILD: bool>(body: &str) -> Option<(Value, &str)> {
    let bytes = body.as_bytes();
    let mut out = String::new();
    let mut run = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                let escaped = body[i + 1..].chars().next()?;
                if BUILD {
                    out.push_str(&body[run..i]);
                    out.push(escaped);
                }
                i += 1 + escaped.len_utf8();
                run = i;
            }
            b'\'' => {
                if !BUILD {
                    return Some((Value::Null, &body[i + 1..]));
                }
                out.push_str(&body[run..i]);
                return Some((Value::Str(out), &body[i + 1..]));
            }
            _ => i += 1,
        }
    }
    None // unterminated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incident::encode_incident;
    use grm_pgraph::{props, GraphSchema};

    fn tiny() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a =
            g.add_node(["Person"], props([("name", Value::from("Ada")), ("age", Value::Int(36))]));
        let m = g.add_node(["Match"], props([("id", "m1"), ("date", "2019-06-11")]));
        g.add_edge(a, m, "PLAYED_IN", props([("minutes", 90i64)]));
        g
    }

    #[test]
    fn roundtrip_full_graph() {
        let g = tiny();
        let frag = GraphFragment::parse(&encode_incident(&g));
        assert_eq!(frag.nodes.len(), 2);
        assert_eq!(frag.edges.len(), 1);
        assert_eq!(frag.skipped_lines, 0);
        assert_eq!(frag.nodes[0].props["name"], Value::from("Ada"));
        assert_eq!(frag.edges[0].label, "PLAYED_IN");
        assert_eq!(frag.edges[0].props["minutes"], Value::Int(90));
        assert_eq!(frag.edges[0].dst_labels, vec!["Match"]);
    }

    #[test]
    fn truncated_lines_are_skipped_not_fatal() {
        let g = tiny();
        let text = encode_incident(&g);
        // Cut mid-line, as a window boundary would.
        // The final line is the Match node header; cutting it loses
        // that node but must not fail the parse.
        let cut = &text[..text.len() - 25];
        let frag = GraphFragment::parse(cut);
        assert!(frag.skipped_lines > 0);
        assert_eq!(frag.nodes.len(), 1);
        assert_eq!(frag.edges.len(), 1);
        // The decoded graph stubs the unseen Match target.
        let graph = decode_graph(cut);
        assert_eq!((graph.node_count(), graph.edge_count()), (2, 1));
        assert!(graph.node(NodeId(1)).props.is_empty());
    }

    #[test]
    fn decoded_schema_recovers_the_graph_schema() {
        let g = tiny();
        let schema = GraphSchema::infer(&decode_graph(&encode_incident(&g)));
        assert!(schema.has_node_label("Person"));
        assert!(schema.node_has_property("Match", "date"));
        assert!(schema.signature("PLAYED_IN").unwrap().connects("Person", "Match"));
    }

    #[test]
    fn decoded_schema_of_a_partial_fragment_is_partial() {
        let g = tiny();
        let text = encode_incident(&g);
        // Keep only the Person node line (drop Match + the edge).
        let person_line: String =
            text.lines().filter(|l| l.contains("Person")).map(|l| format!("{l}\n")).collect();
        let schema = GraphSchema::infer(&decode_graph(&person_line));
        assert!(schema.has_node_label("Person"));
        assert!(!schema.has_node_label("Match"));
    }

    #[test]
    fn value_literals_roundtrip() {
        let (v, rest) = parse_value::<true>("'a\\'b' , tail").unwrap();
        assert_eq!(v, Value::from("a'b"));
        assert!(rest.trim_start().starts_with(','));
        assert_eq!(parse_value::<true>("42)").unwrap().0, Value::Int(42));
        assert_eq!(parse_value::<true>("-3.5,").unwrap().0, Value::Float(-3.5));
        assert_eq!(parse_value::<true>("true").unwrap().0, Value::Bool(true));
        assert_eq!(parse_value::<true>("datetime(120)").unwrap().0, Value::DateTime(120));
        assert_eq!(
            parse_value::<true>("[1, 'x']").unwrap().0,
            Value::List(vec![Value::Int(1), Value::from("x")])
        );
        assert_eq!(parse_value::<true>("'é\\\\✓'").unwrap().0, Value::from("é\\✓"));
        assert!(parse_value::<true>("'open").is_none());
        assert!(parse_value::<true>("'dangling\\").is_none());
    }

    #[test]
    fn garbage_is_counted_not_parsed() {
        let frag = GraphFragment::parse("with labels Person has properties\nnot a line\n");
        assert_eq!(frag.nodes.len(), 0);
        assert_eq!(frag.skipped_lines, 2);
    }

    #[test]
    fn coverage_fraction() {
        let g = tiny();
        let frag = GraphFragment::parse(&encode_incident(&g));
        let total = g.node_count() + g.edge_count();
        assert!((frag.coverage(total) - 1.0).abs() < 1e-9);
        assert_eq!(GraphFragment::default().coverage(0), 0.0);
    }

    #[test]
    fn edge_without_props_parses() {
        let frag = GraphFragment::parse("Node n0 -[FOLLOWS {}]-> Node n1 (User).\n");
        assert_eq!(frag.edges.len(), 1);
        assert!(frag.edges[0].props.is_empty());
    }

    #[test]
    fn multi_label_nodes() {
        let text = "Node n3 with labels Person:Coach has properties {x: 1}.\n";
        let frag = GraphFragment::parse(text);
        assert_eq!(frag.nodes[0].labels, vec!["Person", "Coach"]);
        assert_eq!(decode_graph(text).node(NodeId(0)).labels, vec!["Coach", "Person"]);
    }
}
