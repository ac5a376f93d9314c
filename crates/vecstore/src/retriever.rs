//! RAG retrieval over an encoded graph (Figure 2b of the paper).
//!
//! The encoded graph text is chunked, each chunk embedded and stored;
//! at prompt time the rule-mining request is embedded and the top-k
//! chunks are returned as the LLM's context. The paper observes this
//! underperforms (§4.5): the generic "generate consistency rules"
//! query is not close to any specific chunk, so retrieval returns a
//! small, biased slice of the graph. That failure mode falls out of
//! this implementation naturally — it is measured by
//! [`Retrieval::coverage`].

use grm_textenc::{chunk, token_count, GraphFragment, WindowConfig};

use crate::store::VectorStore;

/// Default chunk size in tokens for RAG ingestion. Smaller than the
/// SWA window: retrieval granularity benefits from tighter chunks.
pub const DEFAULT_CHUNK_TOKENS: usize = 512;
/// Default number of chunks retrieved per query.
pub const DEFAULT_TOP_K: usize = 4;

/// Configuration for the RAG pathway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RagConfig {
    /// Ingestion chunk size (tokens).
    pub chunk_tokens: usize,
    /// Chunks retrieved per query.
    pub top_k: usize,
}

impl Default for RagConfig {
    fn default() -> Self {
        RagConfig { chunk_tokens: DEFAULT_CHUNK_TOKENS, top_k: DEFAULT_TOP_K }
    }
}

/// A populated retriever.
#[derive(Debug)]
pub struct Retriever {
    store: VectorStore,
    config: RagConfig,
    total_elements: usize,
    /// `(start_token, token_len)` of each ingested chunk, indexed by
    /// store id (= ingest order) — the stable chunk identity lineage
    /// records refer to as `chunk-<id>`.
    chunk_spans: Vec<(usize, usize)>,
}

/// The outcome of one retrieval.
#[derive(Debug, Clone)]
pub struct Retrieval {
    /// Retrieved chunk texts, best first.
    pub chunks: Vec<String>,
    /// Stable chunk ids (ingest order) aligned with `chunks`.
    pub chunk_ids: Vec<usize>,
    /// `(start_token, token_len)` of each chunk in the encoded text,
    /// aligned with `chunks`.
    pub chunk_spans: Vec<(usize, usize)>,
    /// Similarity scores aligned with `chunks`.
    pub scores: Vec<f32>,
    /// Graph elements visible in the retrieved context.
    pub visible_elements: usize,
    /// Total elements in the ingested graph text.
    pub total_elements: usize,
}

impl Retrieval {
    /// The concatenated context handed to the LLM.
    pub fn context(&self) -> String {
        self.chunks.join("\n")
    }

    /// Fraction of the graph's elements visible in the retrieved
    /// context — the quantity whose smallness explains the paper's
    /// RAG results.
    pub fn coverage(&self) -> f64 {
        if self.total_elements == 0 {
            0.0
        } else {
            self.visible_elements as f64 / self.total_elements as f64
        }
    }
}

impl Retriever {
    /// Ingests encoded graph text: chunk → embed → store. Chunk ids
    /// are store insertion order, which equals chunk order in the
    /// encoded text — `chunk-<id>` is a stable origin id.
    pub fn ingest(encoded: &str, config: RagConfig) -> Self {
        let windows = chunk(encoded, WindowConfig::new(config.chunk_tokens, 0));
        let mut store = VectorStore::new();
        let mut chunk_spans = Vec::with_capacity(windows.len());
        for w in windows.windows {
            chunk_spans.push((w.start_token, w.token_len));
            store.insert(w.text);
        }
        Retriever {
            store,
            config,
            total_elements: GraphFragment::count_elements(encoded),
            chunk_spans,
        }
    }

    /// Number of ingested chunks.
    pub fn chunk_count(&self) -> usize {
        self.store.len()
    }

    /// Byte-exact footprint of the underlying store (plus the chunk
    /// span table), deterministic for a fixed ingest sequence.
    pub fn footprint(&self) -> crate::store::ChunkFootprint {
        let mut fp = self.store.footprint();
        fp.entry_bytes +=
            (self.chunk_spans.capacity() * std::mem::size_of::<(usize, usize)>()) as u64;
        fp
    }

    /// Retrieves context for `query`.
    pub fn retrieve(&self, query: &str) -> Retrieval {
        let hits = self.store.top_k(query, self.config.top_k);
        let chunks: Vec<String> = hits.iter().map(|h| h.entry.text.clone()).collect();
        let chunk_ids: Vec<usize> = hits.iter().map(|h| h.entry.id).collect();
        let chunk_spans: Vec<(usize, usize)> = chunk_ids
            .iter()
            .map(|id| self.chunk_spans.get(*id).copied().unwrap_or((0, 0)))
            .collect();
        let scores: Vec<f32> = hits.iter().map(|h| h.score).collect();
        let visible_elements = GraphFragment::count_elements(&chunks.join("\n"));
        Retrieval {
            chunks,
            chunk_ids,
            chunk_spans,
            scores,
            visible_elements,
            total_elements: self.total_elements,
        }
    }

    /// Token count of the context a retrieval would produce — used by
    /// the timing model (RAG prompts once, with this much context).
    pub fn context_tokens(&self, query: &str) -> usize {
        token_count(&self.retrieve(query).context())
    }

    /// [`Retriever::ingest`] under a `rag.ingest` span, counting the
    /// chunks embedded into the store.
    pub fn ingest_traced(encoded: &str, config: RagConfig, scope: &grm_obs::Scope) -> Self {
        let span = scope.span("rag.ingest");
        let retriever = Retriever::ingest(encoded, config);
        span.scope().add(grm_obs::Counter::ChunksIngested, retriever.chunk_count() as u64);
        span.finish();
        retriever
    }

    /// [`Retriever::retrieve`] under a `rag.retrieve` span, counting
    /// retrieved chunks, recording the per-chunk similarity-score
    /// distribution, and the coverage gauge whose smallness explains
    /// the paper's RAG results.
    pub fn retrieve_traced(&self, query: &str, scope: &grm_obs::Scope) -> Retrieval {
        let span = scope.span("rag.retrieve");
        let retrieval = self.retrieve(query);
        let inner = span.scope();
        inner.add(grm_obs::Counter::ChunksRetrieved, retrieval.chunks.len() as u64);
        for score in &retrieval.scores {
            inner.observe(grm_obs::Histo::RetrievalScore, *score as f64);
        }
        inner.gauge(grm_obs::Gauge::RagCoverage, retrieval.coverage());
        span.finish();
        retrieval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_pgraph::{props, PropertyGraph};
    use grm_textenc::encode_incident;

    fn bigish_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let mut users = Vec::new();
        for i in 0..80i64 {
            users.push(g.add_node(["User"], props([("id", i), ("followers", i * 3)])));
        }
        for i in 0..60i64 {
            let t = g.add_node(["Tweet"], props([("id", 1000 + i)]));
            g.add_edge(users[(i % 80) as usize], t, "POSTS", Default::default());
        }
        g
    }

    #[test]
    fn ingest_creates_multiple_chunks() {
        let text = encode_incident(&bigish_graph());
        let r = Retriever::ingest(&text, RagConfig { chunk_tokens: 256, top_k: 3 });
        assert!(r.chunk_count() > 3, "{}", r.chunk_count());
    }

    #[test]
    fn retrieval_returns_top_k_chunks() {
        let text = encode_incident(&bigish_graph());
        let r = Retriever::ingest(&text, RagConfig { chunk_tokens: 256, top_k: 3 });
        let ret = r.retrieve("consistency rules about User followers");
        assert_eq!(ret.chunks.len(), 3);
        assert!(ret.scores[0] >= ret.scores[2]);
    }

    #[test]
    fn retrieval_carries_stable_chunk_ids_and_spans() {
        let text = encode_incident(&bigish_graph());
        let cfg = RagConfig { chunk_tokens: 256, top_k: 3 };
        let r = Retriever::ingest(&text, cfg);
        let ret = r.retrieve("consistency rules about User followers");
        assert_eq!(ret.chunk_ids.len(), ret.chunks.len());
        assert_eq!(ret.chunk_spans.len(), ret.chunks.len());
        for (id, (start, len)) in ret.chunk_ids.iter().zip(&ret.chunk_spans) {
            assert!(*id < r.chunk_count());
            // Ingest chunks with zero overlap: id * chunk_tokens is
            // the chunk's start token, and every chunk is non-empty.
            assert_eq!(*start, id * cfg.chunk_tokens);
            assert!(*len > 0 && *len <= cfg.chunk_tokens);
        }
        // The same query retrieves the same ids, deterministically.
        assert_eq!(r.retrieve("consistency rules about User followers").chunk_ids, ret.chunk_ids);
    }

    #[test]
    fn generic_query_covers_only_part_of_the_graph() {
        // The paper's §4.5 observation: a generic rule-mining prompt
        // retrieves a small slice of the graph.
        let text = encode_incident(&bigish_graph());
        let r = Retriever::ingest(&text, RagConfig { chunk_tokens: 256, top_k: 3 });
        let ret = r.retrieve("Generate consistency rules for this property graph");
        assert!(ret.coverage() < 0.9, "coverage {}", ret.coverage());
        assert!(ret.coverage() > 0.0);
    }

    #[test]
    fn context_is_parseable_fragment_text() {
        let text = encode_incident(&bigish_graph());
        let r = Retriever::ingest(&text, RagConfig::default());
        let ret = r.retrieve("rules");
        let frag = GraphFragment::parse(&ret.context());
        assert_eq!(frag.nodes.len() + frag.edges.len(), ret.visible_elements);
    }

    #[test]
    fn traced_retrieval_records_chunks_and_coverage() {
        let text = encode_incident(&bigish_graph());
        let rec = grm_obs::Recorder::new();
        let scope = rec.root_scope();
        let cfg = RagConfig { chunk_tokens: 256, top_k: 3 };
        let r = Retriever::ingest_traced(&text, cfg, &scope);
        let ret = r.retrieve_traced("Generate consistency rules for this property graph", &scope);

        let journal = rec.snapshot();
        assert_eq!(
            journal.span("rag.ingest").unwrap().counter("chunks_ingested"),
            r.chunk_count() as u64
        );
        assert_eq!(journal.total("chunks_retrieved"), ret.chunks.len() as u64);
        assert_eq!(journal.gauge("rag_coverage"), Some(ret.coverage()));
    }

    #[test]
    fn retriever_footprint_covers_store_and_span_table() {
        let text = encode_incident(&bigish_graph());
        let cfg = RagConfig { chunk_tokens: 256, top_k: 3 };
        let r = Retriever::ingest(&text, cfg);
        let fp = r.footprint();
        assert_eq!(fp.chunks, r.chunk_count() as u64);
        assert!(fp.embedding_bytes >= fp.chunks * 256 * 4);
        // The span table rides on entry_bytes, so the retriever
        // accounts for strictly more than its bare store.
        let again = Retriever::ingest(&text, cfg);
        assert_eq!(again.footprint(), fp, "same ingest, byte-identical accounting");
    }

    #[test]
    fn context_tokens_bounded_by_chunks() {
        let text = encode_incident(&bigish_graph());
        let cfg = RagConfig { chunk_tokens: 128, top_k: 2 };
        let r = Retriever::ingest(&text, cfg);
        let tokens = r.context_tokens("rules");
        // top_k chunks of ≤128 tokens plus joining newlines.
        assert!(tokens <= cfg.chunk_tokens * cfg.top_k + cfg.top_k);
    }
}
