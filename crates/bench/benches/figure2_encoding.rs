//! Figure 2 bench: the two context strategies' machinery — encoding,
//! tokenization, window chunking, RAG ingestion and retrieval — plus
//! the incident-vs-adjacency encoder ablation from DESIGN.md §5.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use grm_core::RAG_QUERY;
use grm_datasets::{generate, DatasetId, GenConfig};
use grm_textenc::{chunk, encode_adjacency, encode_incident, token_count, WindowConfig};
use grm_vecstore::{RagConfig, Retriever};

fn bench_encoding(c: &mut Criterion) {
    let graph =
        generate(DatasetId::Wwc2019, &GenConfig { seed: 42, scale: 0.2, clean: false }).graph;
    let elements = (graph.node_count() + graph.edge_count()) as u64;

    let mut group = c.benchmark_group("figure2/encode");
    group.throughput(Throughput::Elements(elements));
    group.bench_function("incident", |b| b.iter(|| encode_incident(&graph)));
    group.bench_function("adjacency", |b| b.iter(|| encode_adjacency(&graph)));
    group.finish();

    let encoded = encode_incident(&graph);
    let mut group = c.benchmark_group("figure2/window");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("tokenize", |b| b.iter(|| token_count(&encoded)));
    group.bench_function("chunk_8000_500", |b| {
        b.iter(|| chunk(&encoded, WindowConfig::default()).len())
    });
    // The RAG ingest config: short windows, many of them.
    group.bench_function("chunk_512_0", |b| {
        b.iter(|| chunk(&encoded, WindowConfig::new(512, 0)).len())
    });
    group.finish();

    let mut group = c.benchmark_group("figure2/rag");
    group.bench_function("ingest", |b| {
        b.iter(|| Retriever::ingest(&encoded, RagConfig::default()).chunk_count())
    });
    let retriever = Retriever::ingest(&encoded, RagConfig::default());
    group.bench_function("retrieve", |b| b.iter(|| retriever.retrieve(RAG_QUERY).visible_elements));
    group.finish();
}

criterion_group!(benches, bench_encoding);
criterion_main!(benches);
