//! Window chunking and RAG ingestion cost grow linearly with the
//! encoded graph: 8× the node blocks and 8× the windows must cost
//! about 8× the time, where testing every block against every window
//! would cost ~64×. The graph is many small nodes, so blocks are short
//! and numerous — the shape where a per-block scan over the windows
//! shows first.

use std::time::{Duration, Instant};

use graph_rule_mining::pgraph::{props, PropertyGraph};
use graph_rule_mining::textenc::{chunk, encode_incident, WindowConfig};
use graph_rule_mining::vecstore::{RagConfig, Retriever};

/// The incident encoding of `nodes` one-property nodes: one short
/// block per node.
fn encoding_of(nodes: i64) -> String {
    let mut g = PropertyGraph::new();
    for i in 0..nodes {
        g.add_node(["User"], props([("id", i)]));
    }
    encode_incident(&g)
}

fn best_of_3(mut job: impl FnMut() -> usize) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(job());
            start.elapsed()
        })
        .min()
        .unwrap()
}

fn assert_linear(what: &str, small: &str, large: &str, job: impl Fn(&str) -> usize) {
    let (t1, t8) = (best_of_3(|| job(small)), best_of_3(|| job(large)));
    let ratio = t8.as_secs_f64() / t1.as_secs_f64();
    eprintln!("{what}: {} → {} bytes, {t1:?} → {t8:?}, {ratio:.1}×", small.len(), large.len());
    assert!(
        ratio <= 24.0,
        "{what} of {} bytes took {t8:?}, {ratio:.1}× the {t1:?} for {} bytes",
        large.len(),
        small.len()
    );
}

/// A chunker that tests every node block against the windows one by
/// one fails the first check: at 40k blocks that scan already
/// outweighs the linear work. Ingest embeds every byte, which
/// dominates at any size a unit test can afford, so its check guards
/// ingest's own steps on a smaller pair.
#[test]
fn chunking_and_rag_ingest_cost_is_linear_in_graph_size() {
    let (small, large) = (encoding_of(40_000), encoding_of(320_000));
    assert_linear("chunk(512, 0)", &small, &large, |text| {
        chunk(text, WindowConfig::new(512, 0)).len()
    });
    let (small, large) = (encoding_of(8_000), encoding_of(64_000));
    assert_linear("Retriever::ingest", &small, &large, |text| {
        Retriever::ingest(text, RagConfig::default()).chunk_count()
    });
}
