//! Schema inference over a property graph.
//!
//! Neo4j exposes `db.schema.visualization()`; the paper's pipeline
//! feeds schema facts (labels, relationship types, property keys) into
//! the Cypher-generation prompt. We infer the same facts by a single
//! pass over the store. The inferred schema is also what the semantic
//! analyzer in `grm-cypher` validates queries against — a property
//! absent from the schema is how a *hallucinated* property (error
//! class 2 of §4.4) is detected.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::graph::PropertyGraph;
use crate::value::{Value, ValueKey};

/// Observed statistics for one property key under one label.
#[derive(Debug, Clone, Default)]
pub struct PropertyStats {
    /// How many elements with the label carry the key (non-null).
    pub present: usize,
    /// How many elements carry the label at all.
    pub total: usize,
    /// Value type names observed, e.g. `{"STRING"}`.
    pub types: BTreeSet<&'static str>,
    /// Number of distinct values observed (exact; datasets are small).
    pub distinct: usize,
    /// Up to [`SAMPLE_LIMIT`](Self::SAMPLE_LIMIT) sample values,
    /// rendered as literals.
    pub samples: Vec<String>,
}

impl PropertyStats {
    /// Max sample literals retained per property.
    pub const SAMPLE_LIMIT: usize = 5;

    /// Fraction of labelled elements carrying the key.
    pub fn presence_ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.present as f64 / self.total as f64
        }
    }

    /// True when every labelled element carries the key — a candidate
    /// "mandatory property" rule.
    pub fn is_total(&self) -> bool {
        self.total > 0 && self.present == self.total
    }

    /// True when every present value is distinct — a candidate
    /// "unique property / primary key" rule.
    pub fn is_unique(&self) -> bool {
        self.present > 0 && self.distinct == self.present
    }
}

/// What [`GraphSchema::infer`] accumulates for one (label, key),
/// borrowing the values from the graph.
#[derive(Default)]
struct PropertyAcc<'g> {
    present: usize,
    types: BTreeSet<&'static str>,
    samples: Vec<String>,
    seen: HashSet<ValueKey<&'g Value>>,
}

impl<'g> PropertyAcc<'g> {
    fn add(&mut self, value: &'g Value) {
        self.present += 1;
        self.types.insert(value.type_name());
        if self.samples.len() < PropertyStats::SAMPLE_LIMIT {
            self.samples.push(value.to_string());
        }
        self.seen.insert(ValueKey(value));
    }

    fn finish(self, total: usize) -> PropertyStats {
        PropertyStats {
            present: self.present,
            total,
            types: self.types,
            distinct: self.seen.len(),
            samples: self.samples,
        }
    }
}

/// Endpoint signature of a relationship type: which (source-label,
/// target-label) pairs it was observed to connect, with counts.
#[derive(Debug, Clone, Default)]
pub struct EdgeSignature {
    /// `(src_label, dst_label) -> occurrence count`.
    pub endpoints: BTreeMap<(String, String), usize>,
}

impl EdgeSignature {
    /// True when the type was observed connecting `src` to `dst` in
    /// that direction.
    pub fn connects(&self, src: &str, dst: &str) -> bool {
        self.endpoints.keys().any(|(s, d)| s == src && d == dst)
    }
}

/// Inferred schema of a property graph.
#[derive(Debug, Clone, Default)]
pub struct GraphSchema {
    /// `node label -> property key -> stats`.
    pub node_props: BTreeMap<String, BTreeMap<String, PropertyStats>>,
    /// `edge type -> property key -> stats`.
    pub edge_props: BTreeMap<String, BTreeMap<String, PropertyStats>>,
    /// `edge type -> endpoint signature`.
    pub edge_signatures: BTreeMap<String, EdgeSignature>,
}

impl GraphSchema {
    /// Infers the schema in one pass over the graph. Statistics
    /// accumulate per (label, key) under strings borrowed from the
    /// graph, distinct values as [`ValueKey`]s of borrowed values; the
    /// owned `String` keys are allocated once per distinct (label, key)
    /// at the end.
    pub fn infer(g: &PropertyGraph) -> Self {
        let mut nodes: HashMap<&str, HashMap<&str, PropertyAcc<'_>>> = HashMap::new();
        for node in g.nodes() {
            for label in &node.labels {
                let per_label = nodes.entry(label.as_str()).or_default();
                for (key, value) in &node.props {
                    if !value.is_null() {
                        per_label.entry(key.as_str()).or_default().add(value);
                    }
                }
            }
        }
        let mut edges: HashMap<&str, HashMap<&str, PropertyAcc<'_>>> = HashMap::new();
        let mut signatures: HashMap<&str, HashMap<(&str, &str), usize>> = HashMap::new();
        for edge in g.edges() {
            let per_label = edges.entry(edge.label.as_str()).or_default();
            for (key, value) in &edge.props {
                if !value.is_null() {
                    per_label.entry(key.as_str()).or_default().add(value);
                }
            }
            let sig = signatures.entry(edge.label.as_str()).or_default();
            let src = g.node(edge.src);
            let dst = g.node(edge.dst);
            for sl in &src.labels {
                for dl in &dst.labels {
                    *sig.entry((sl.as_str(), dl.as_str())).or_insert(0) += 1;
                }
            }
        }

        let finish = |per_label: HashMap<&str, PropertyAcc<'_>>, total: usize| {
            per_label
                .into_iter()
                .map(|(key, acc)| (key.to_owned(), acc.finish(total)))
                .collect::<BTreeMap<String, PropertyStats>>()
        };
        let mut schema = GraphSchema::default();
        for (label, per_label) in nodes {
            schema.node_props.insert(label.to_owned(), finish(per_label, g.label_count(label)));
        }
        for (label, per_label) in edges {
            schema
                .edge_props
                .insert(label.to_owned(), finish(per_label, g.edge_label_count(label)));
        }
        for (label, sig) in signatures {
            let endpoints = sig.into_iter().map(|((s, d), n)| ((s.to_owned(), d.to_owned()), n));
            schema
                .edge_signatures
                .insert(label.to_owned(), EdgeSignature { endpoints: endpoints.collect() });
        }
        // Labels with no properties at all still belong to the schema.
        for label in g.node_labels() {
            schema.node_props.entry(label).or_default();
        }
        for label in g.edge_labels() {
            schema.edge_props.entry(label.clone()).or_default();
            schema.edge_signatures.entry(label).or_default();
        }
        schema
    }

    /// True when the node label exists.
    pub fn has_node_label(&self, label: &str) -> bool {
        self.node_props.contains_key(label)
    }

    /// True when the relationship type exists.
    pub fn has_edge_label(&self, label: &str) -> bool {
        self.edge_props.contains_key(label)
    }

    /// True when nodes with `label` were observed carrying `key`.
    pub fn node_has_property(&self, label: &str, key: &str) -> bool {
        self.node_props.get(label).is_some_and(|m| m.contains_key(key))
    }

    /// True when edges of `label` were observed carrying `key`.
    pub fn edge_has_property(&self, label: &str, key: &str) -> bool {
        self.edge_props.get(label).is_some_and(|m| m.contains_key(key))
    }

    /// True when *any* node label carries `key` (used when a query
    /// binds an unlabelled node).
    pub fn any_node_has_property(&self, key: &str) -> bool {
        self.node_props.values().any(|m| m.contains_key(key))
    }

    /// Endpoint signature of a relationship type, if known.
    pub fn signature(&self, label: &str) -> Option<&EdgeSignature> {
        self.edge_signatures.get(label)
    }

    /// All node labels, sorted.
    pub fn node_labels(&self) -> impl Iterator<Item = &str> {
        self.node_props.keys().map(String::as_str)
    }

    /// All relationship types, sorted.
    pub fn edge_labels(&self) -> impl Iterator<Item = &str> {
        self.edge_props.keys().map(String::as_str)
    }

    /// Compact textual summary of the schema — what the pipeline puts
    /// in the Cypher-generation prompt ("information about the
    /// property graph including nodes edge labels, and properties",
    /// §3.2).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str("Node labels:\n");
        for (label, propmap) in &self.node_props {
            let keys: Vec<&str> = propmap.keys().map(String::as_str).collect();
            out.push_str(&format!("  {} ({})\n", label, keys.join(", ")));
        }
        out.push_str("Relationship types:\n");
        for (label, sig) in &self.edge_signatures {
            let keys: Vec<&str> = self
                .edge_props
                .get(label)
                .map(|m| m.keys().map(String::as_str).collect())
                .unwrap_or_default();
            let eps: Vec<String> =
                sig.endpoints.keys().map(|(s, d)| format!("({s})->({d})")).collect();
            out.push_str(&format!(
                "  {} [{}] connects {}\n",
                label,
                keys.join(", "),
                eps.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{props, PropertyMap};
    use proptest::prelude::*;

    fn sample() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["Person"], props([("name", "Ada"), ("id", "p1")]));
        let b = g.add_node(["Person"], props([("name", "Bo"), ("id", "p2")]));
        let m = g.add_node(["Match"], props([("id", "m1"), ("date", "2019-06-01")]));
        g.add_edge(a, m, "PLAYED_IN", props([("minutes", 90i64)]));
        g.add_edge(b, m, "PLAYED_IN", PropertyMap::new());
        g
    }

    #[test]
    fn infers_labels_and_properties() {
        let s = GraphSchema::infer(&sample());
        assert!(s.has_node_label("Person"));
        assert!(s.has_node_label("Match"));
        assert!(s.has_edge_label("PLAYED_IN"));
        assert!(s.node_has_property("Person", "name"));
        assert!(!s.node_has_property("Person", "date"));
        assert!(s.edge_has_property("PLAYED_IN", "minutes"));
    }

    #[test]
    fn presence_and_uniqueness() {
        let s = GraphSchema::infer(&sample());
        let stats = &s.node_props["Person"]["id"];
        assert!(stats.is_total());
        assert!(stats.is_unique());
        assert_eq!(stats.presence_ratio(), 1.0);
        let minutes = &s.edge_props["PLAYED_IN"]["minutes"];
        assert!(!minutes.is_total()); // one PLAYED_IN edge lacks it
        assert_eq!(minutes.total, 2);
        assert_eq!(minutes.present, 1);
    }

    #[test]
    fn signatures_record_direction() {
        let s = GraphSchema::infer(&sample());
        let sig = s.signature("PLAYED_IN").unwrap();
        assert!(sig.connects("Person", "Match"));
        assert!(!sig.connects("Match", "Person"));
    }

    #[test]
    fn summary_mentions_everything() {
        let s = GraphSchema::infer(&sample());
        let text = s.summary();
        assert!(text.contains("Person"));
        assert!(text.contains("PLAYED_IN"));
        assert!(text.contains("(Person)->(Match)"));
    }

    #[test]
    fn empty_graph_has_empty_schema() {
        let s = GraphSchema::infer(&PropertyGraph::new());
        assert_eq!(s.node_labels().count(), 0);
        assert_eq!(s.edge_labels().count(), 0);
    }

    /// The straightforward owned-key inference: clones every label and
    /// key per property occurrence and keeps owned distinct values.
    /// [`GraphSchema::infer`] must agree with it exactly.
    fn oracle(g: &PropertyGraph) -> GraphSchema {
        let mut schema = GraphSchema::default();
        let mut node_seen: BTreeMap<(String, String), HashSet<ValueKey<Value>>> = BTreeMap::new();
        let mut edge_seen: BTreeMap<(String, String), HashSet<ValueKey<Value>>> = BTreeMap::new();
        let add = |stats: &mut PropertyStats, value: &Value| {
            stats.present += 1;
            stats.types.insert(value.type_name());
            if stats.samples.len() < PropertyStats::SAMPLE_LIMIT {
                stats.samples.push(value.to_string());
            }
        };
        for node in g.nodes() {
            for label in &node.labels {
                let per_label = schema.node_props.entry(label.clone()).or_default();
                for (key, value) in node.props.iter().filter(|(_, v)| !v.is_null()) {
                    add(per_label.entry(key.clone()).or_default(), value);
                    node_seen
                        .entry((label.clone(), key.clone()))
                        .or_default()
                        .insert(ValueKey(value.clone()));
                }
            }
        }
        for edge in g.edges() {
            let per_label = schema.edge_props.entry(edge.label.clone()).or_default();
            for (key, value) in edge.props.iter().filter(|(_, v)| !v.is_null()) {
                add(per_label.entry(key.clone()).or_default(), value);
                edge_seen
                    .entry((edge.label.clone(), key.clone()))
                    .or_default()
                    .insert(ValueKey(value.clone()));
            }
            let sig = schema.edge_signatures.entry(edge.label.clone()).or_default();
            for sl in &g.node(edge.src).labels {
                for dl in &g.node(edge.dst).labels {
                    *sig.endpoints.entry((sl.clone(), dl.clone())).or_insert(0) += 1;
                }
            }
        }
        for (label, per_label) in &mut schema.node_props {
            for (key, stats) in per_label.iter_mut() {
                stats.total = g.label_count(label);
                stats.distinct = node_seen[&(label.clone(), key.clone())].len();
            }
        }
        for (label, per_label) in &mut schema.edge_props {
            for (key, stats) in per_label.iter_mut() {
                stats.total = g.edge_label_count(label);
                stats.distinct = edge_seen[&(label.clone(), key.clone())].len();
            }
        }
        for label in g.node_labels() {
            schema.node_props.entry(label).or_default();
        }
        for label in g.edge_labels() {
            schema.edge_props.entry(label.clone()).or_default();
            schema.edge_signatures.entry(label).or_default();
        }
        schema
    }

    #[test]
    fn distinct_counts_do_not_merge_lists_that_render_alike() {
        let mut g = PropertyGraph::new();
        g.add_node(["N"], props([("k", Value::List(vec![Value::from("a,s:b")]))]));
        g.add_node(["N"], props([("k", Value::List(vec![Value::from("a"), Value::from("b")]))]));
        let s = GraphSchema::infer(&g);
        assert_eq!(s.node_props["N"]["k"].distinct, 2);
        assert!(s.node_props["N"]["k"].is_unique());
    }

    #[test]
    fn matches_the_owned_key_oracle_on_the_sample() {
        let g = sample();
        assert_eq!(format!("{:?}", GraphSchema::infer(&g)), format!("{:?}", oracle(&g)));
    }

    fn arb_scalar() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            (-3i64..3).prop_map(Value::Int),
            (-3i64..3).prop_map(Value::DateTime),
            (-2.0f64..2.0).prop_map(Value::Float),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(-f64::NAN)),
            Just(Value::Float(-0.0)),
            "[ab,:s]{0,4}".prop_map(Value::Str),
        ]
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![arb_scalar(), prop::collection::vec(arb_scalar(), 0..3).prop_map(Value::List),]
    }

    fn arb_props() -> impl Strategy<Value = Vec<(String, Value)>> {
        prop::collection::vec(("[kv]", arb_value()), 0..3)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn infer_matches_the_owned_key_oracle(
            nodes in prop::collection::vec(
                (prop::collection::vec("[ABC]", 1..3), arb_props()),
                1..12,
            ),
            edges in prop::collection::vec((any::<u16>(), any::<u16>(), "[RS]", arb_props()), 0..16),
        ) {
            let mut g = PropertyGraph::new();
            for (labels, ps) in &nodes {
                g.add_node(labels.iter().map(String::as_str), ps.iter().cloned().collect());
            }
            let n = g.node_count() as u16;
            for (s, d, label, ps) in &edges {
                g.add_edge(
                    crate::graph::NodeId(u32::from(s % n)),
                    crate::graph::NodeId(u32::from(d % n)),
                    label.as_str(),
                    ps.iter().cloned().collect(),
                );
            }
            prop_assert_eq!(format!("{:?}", GraphSchema::infer(&g)), format!("{:?}", oracle(&g)));
        }
    }

    #[test]
    fn property_free_label_still_listed() {
        let mut g = PropertyGraph::new();
        g.add_node(["Bare"], PropertyMap::new());
        let s = GraphSchema::infer(&g);
        assert!(s.has_node_label("Bare"));
    }
}
