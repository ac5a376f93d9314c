//! The traced probe: replays one `MiningPipeline::run` call layer by
//! layer through each layer's public function, in pipeline order,
//! with a span around every layer.
//!
//! The probe must do the same work as the pipeline call it replays,
//! so it mirrors the pipeline's private glue: the rule-budget draw,
//! the merge, and the per-rule classify → correct → evaluate steps.
//! Its [`Digest`] must equal the pipeline report's; a pipeline change
//! that alters that glue shows up as a failed probe check.

use std::collections::HashMap;

use grm_core::{ContextStrategy, PipelineConfig, RAG_QUERY};
use grm_cypher::{BatchConfig, BatchSession, BatchStats, PlanCacheConfig};
use grm_llm::{GeneratedRule, MiningPrompt, PromptStyle, SimLlm};
use grm_metrics::{aggregate, classify, correct, evaluate_labeled_batched, QueryClass};
use grm_obs::Recorder;
use grm_pgraph::{GraphSchema, PropertyGraph};
use grm_rules::RuleQueries;
use grm_textenc::{chunk, encode, token_count};
use grm_vecstore::Retriever;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::digest::{scores, Digest};
use crate::trace::Tracer;

/// The span names of the probed pipeline layers, in pipeline order.
/// Everything else in the pipeline call (merge, schema inference, the
/// pipeline's internal `Recorder`) is its unattributed remainder.
pub const LAYERS: [&str; 8] = [
    "textenc.encode",
    "textenc.chunk",
    "vecstore.ingest",
    "vecstore.retrieve",
    "llm.mine",
    "llm.translate",
    "metrics.classify",
    "metrics.evaluate",
];

/// The model contexts the graph-only layers built (encode, then chunk
/// or RAG ingest + retrieve), with their work counts. They depend on
/// the graph and the strategy, not on the pipeline seed.
#[derive(Debug)]
pub struct Contexts {
    pub texts: Vec<String>,
    pub windows: usize,
    pub broken_patterns: usize,
    pub rag_coverage: Option<f64>,
    pub tokens: usize,
    pub chunks: usize,
    pub vecstore_bytes: u64,
}

/// What the seed-dependent layers computed: the digest to compare
/// with the pipeline report, plus their work counts.
#[derive(Debug)]
pub struct Scored {
    pub digest: Digest,
    pub rules_translated: usize,
    pub batch: BatchStats,
}

/// Steps 1–2 of the pipeline call for `config` on `graph`, one span
/// per layer under `parent`.
pub fn contexts(
    graph: &PropertyGraph,
    config: &PipelineConfig,
    tr: &mut Tracer,
    parent: usize,
) -> Contexts {
    let span = tr.open("textenc.encode", Some(parent));
    let encoded = encode(graph, config.encoder);
    tr.close(span);
    let mut out = Contexts {
        texts: Vec::new(),
        windows: 0,
        broken_patterns: 0,
        rag_coverage: None,
        tokens: token_count(&encoded),
        chunks: 0,
        vecstore_bytes: 0,
    };
    match config.strategy {
        ContextStrategy::SlidingWindow(wc) => {
            let span = tr.open("textenc.chunk", Some(parent));
            let ws = chunk(&encoded, wc);
            tr.close(span);
            out.windows = ws.len();
            out.broken_patterns = ws.broken_patterns;
            out.texts = ws.windows.into_iter().map(|w| w.text).collect();
        }
        ContextStrategy::Rag(rc) => {
            let span = tr.open("vecstore.ingest", Some(parent));
            let retriever = Retriever::ingest(&encoded, rc);
            tr.close(span);
            let span = tr.open("vecstore.retrieve", Some(parent));
            let retrieval = retriever.retrieve(RAG_QUERY);
            tr.close(span);
            out.chunks = retriever.chunk_count();
            out.vecstore_bytes = retriever.footprint().total_bytes();
            out.rag_coverage = Some(retrieval.coverage());
            out.texts = vec![retrieval.context()];
        }
        ContextStrategy::Summary(_) => panic!("the benchmark has no summary workload"),
    }
    out
}

/// Steps 3–7 of the pipeline call for `config` on `graph` over `ctx`:
/// mine, merge, translate, classify + correct, evaluate; one span per
/// probed layer under `parent`.
pub fn score(
    graph: &PropertyGraph,
    config: &PipelineConfig,
    ctx: &Contexts,
    tr: &mut Tracer,
    parent: usize,
) -> Scored {
    let mut model = SimLlm::new(config.model, config.seed);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15);

    // The pipeline's budget draw and per-prompt rule target.
    let rag = ctx.rag_coverage.is_some();
    let (lo, hi) = match (rag, config.prompting) {
        (false, PromptStyle::ZeroShot) => (8, 12),
        (false, PromptStyle::FewShot) => (5, 9),
        (true, PromptStyle::ZeroShot) => (6, 8),
        (true, PromptStyle::FewShot) => (4, 6),
    };
    let budget = config.rule_budget.unwrap_or_else(|| rng.gen_range(lo..=hi));

    let span = tr.open("llm.mine", Some(parent));
    let mut mining_seconds = 0.0;
    let mut mined = Vec::new();
    for context in &ctx.texts {
        let mut prompt = MiningPrompt::new(config.prompting, context.clone());
        prompt.target_rules = rag.then_some(budget);
        let resp = model.mine(&prompt);
        mining_seconds += resp.seconds;
        mined.extend(resp.rules);
    }
    tr.close(span);

    let selected: Vec<GeneratedRule> = merge(mined).into_iter().take(budget).collect();
    let schema = GraphSchema::infer(graph);
    let schema_summary = schema.summary();

    let span = tr.open("llm.translate", Some(parent));
    let translations: Vec<_> =
        selected.iter().map(|r| model.translate_rule(&r.rule, &schema_summary)).collect();
    tr.close(span);

    let span = tr.open("metrics.classify", Some(parent));
    let fixed: Vec<_> = translations
        .iter()
        .map(|t| {
            std::hint::black_box(classify(&t.translation.cypher, &schema));
            correct(&t.translation.cypher, &schema)
        })
        .collect();
    tr.close(span);

    // An enabled recorder, as inside `MiningPipeline::run`: evaluation
    // profiles every query it executes, and the probe must pay that too.
    let recorder = Recorder::new();
    let scope = recorder.root_scope();
    let mut session = BatchSession::new(BatchConfig {
        plan_cache: PlanCacheConfig {
            capacity: config.scoring.plan_cache_size,
            ..PlanCacheConfig::default()
        },
        ..BatchConfig::default()
    });
    let span = tr.open("metrics.evaluate", Some(parent));
    let metrics: Vec<_> = fixed
        .iter()
        .zip(&translations)
        .enumerate()
        .map(|(i, (f, t))| {
            if !matches!(f.final_class, QueryClass::Correct | QueryClass::HallucinatedProperty) {
                return None;
            }
            let queries = RuleQueries {
                satisfied: f.corrected.clone(),
                body: t.translation.reference.body.clone(),
                head_total: t.translation.reference.head_total.clone(),
            };
            evaluate_labeled_batched(graph, &queries, &scope, &format!("rule-{i}"), &mut session)
                .ok()
        })
        .collect();
    tr.close(span);

    let scored: Vec<_> = metrics.iter().flatten().copied().collect();
    let digest = Digest {
        rules: fixed
            .iter()
            .zip(&metrics)
            .map(|(f, m)| (f.final_class.name(), m.map(scores)))
            .collect(),
        ..Digest::new(
            aggregate(&scored),
            ctx.texts.len(),
            ctx.windows,
            ctx.broken_patterns,
            ctx.rag_coverage,
            mining_seconds,
        )
    };
    Scored { digest, rules_translated: selected.len(), batch: session.stats() }
}

/// The pipeline's merge: deduplicate by rule key, keep the strongest
/// evidence, rank by how many prompts produced the rule, then by
/// evidence; first-seen order breaks ties.
fn merge(mined: Vec<GeneratedRule>) -> Vec<GeneratedRule> {
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut merged: Vec<(GeneratedRule, usize)> = Vec::new();
    for rule in mined {
        match index.get(&rule.rule.dedup_key()) {
            Some(&at) => {
                let (best, frequency) = &mut merged[at];
                *frequency += 1;
                if rule.evidence > best.evidence {
                    *best = rule;
                }
            }
            None => {
                index.insert(rule.rule.dedup_key(), merged.len());
                merged.push((rule, 1));
            }
        }
    }
    merged.sort_by(|(a, fa), (b, fb)| {
        fb.cmp(fa).then(b.evidence.partial_cmp(&a.evidence).unwrap_or(std::cmp::Ordering::Equal))
    });
    merged.into_iter().map(|(rule, _)| rule).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_core::MiningPipeline;
    use grm_datasets::{generate, DatasetId, GenConfig};
    use grm_llm::ModelKind;

    fn assert_probe_matches(model: ModelKind, strategy: ContextStrategy) {
        let graph =
            generate(DatasetId::Twitter, &GenConfig { scale: 0.05, ..Default::default() }).graph;
        let config = PipelineConfig::new(model, strategy, PromptStyle::ZeroShot);
        let report = MiningPipeline::new(config.clone()).run(&graph);
        let mut tr = Tracer::new();
        let root = tr.open("probe", None);
        let ctx = contexts(&graph, &config, &mut tr, root);
        let scored = score(&graph, &config, &ctx, &mut tr, root);
        tr.close(root);
        assert!(!report.rules.is_empty());
        assert_eq!(scored.digest, Digest::of_report(&report));
        assert_eq!(scored.rules_translated, report.rules.len());
    }

    #[test]
    fn probe_replays_the_sliding_window_pipeline() {
        assert_probe_matches(ModelKind::Llama3, ContextStrategy::default_sliding_window());
    }

    #[test]
    fn probe_replays_the_rag_pipeline() {
        assert_probe_matches(ModelKind::Mixtral, ContextStrategy::default_rag());
    }
}
