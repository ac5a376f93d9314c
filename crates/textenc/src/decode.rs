//! Fragment decoding: parsing incident-encoded text back into a
//! partial graph.
//!
//! The simulated LLM in `grm-llm` can only "know" what is inside its
//! prompt. This module gives it that knowledge honestly: it re-parses
//! the (possibly truncated) incident-encoded fragment it was handed —
//! a window from the sliding-window chunker, or retrieved chunks from
//! the RAG store — into a [`GraphFragment`]. Lines cut in half by a
//! window boundary fail to parse and are *dropped*, which is precisely
//! the context-fragmentation effect §3.1.1/§4.5 of the paper discusses.

use grm_pgraph::{GraphSchema, PropertyGraph, PropertyMap, Value};

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

    /// The element count of [`GraphFragment::parse`]: `nodes.len() +
    /// edges.len()`, from the same line grammar, without keeping the
    /// parsed elements.
    pub fn count_elements(text: &str) -> usize {
        element_lines(text)
            .filter(|line| parse_edge_line(line).is_some() || parse_node_line(line).is_some())
            .count()
    }

    /// Rebuilds a small property graph from the fragment — the
    /// "mental model" the simulated LLM reasons over. Edges whose
    /// source node is outside the fragment are dropped (their source
    /// labels are unknown); unseen targets become label-only stubs.
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

    /// Infers the schema of [`GraphFragment::to_graph`].
    pub fn sketch(&self) -> GraphSchema {
        GraphSchema::infer(&self.to_graph())
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

/// The trimmed lines of `text` that may hold a graph element: blank
/// lines and the `Graph with ...` header are left out.
fn element_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().map(str::trim).filter(|line| !line.is_empty() && !line.starts_with("Graph with "))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incident::encode_incident;
    use grm_pgraph::props;

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
    }

    #[test]
    fn sketch_recovers_schema() {
        let g = tiny();
        let frag = GraphFragment::parse(&encode_incident(&g));
        let schema = frag.sketch();
        assert!(schema.has_node_label("Person"));
        assert!(schema.node_has_property("Match", "date"));
        assert!(schema.signature("PLAYED_IN").unwrap().connects("Person", "Match"));
    }

    #[test]
    fn sketch_from_partial_fragment_is_partial() {
        let g = tiny();
        let text = encode_incident(&g);
        // Keep only the Person node line (drop Match + the edge).
        let person_line: String =
            text.lines().filter(|l| l.contains("Person")).map(|l| format!("{l}\n")).collect();
        let frag = GraphFragment::parse(&person_line);
        let schema = frag.sketch();
        assert!(schema.has_node_label("Person"));
        assert!(!schema.has_node_label("Match"));
    }

    #[test]
    fn value_literals_roundtrip() {
        let (v, rest) = parse_value("'a\\'b' , tail").unwrap();
        assert_eq!(v, Value::from("a'b"));
        assert!(rest.trim_start().starts_with(','));
        assert_eq!(parse_value("42)").unwrap().0, Value::Int(42));
        assert_eq!(parse_value("-3.5,").unwrap().0, Value::Float(-3.5));
        assert_eq!(parse_value("true").unwrap().0, Value::Bool(true));
        assert_eq!(parse_value("datetime(120)").unwrap().0, Value::DateTime(120));
        assert_eq!(
            parse_value("[1, 'x']").unwrap().0,
            Value::List(vec![Value::Int(1), Value::from("x")])
        );
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
        let frag =
            GraphFragment::parse("Node n3 with labels Coach:Person has properties {x: 1}.\n");
        assert_eq!(frag.nodes[0].labels, vec!["Coach", "Person"]);
    }
}
