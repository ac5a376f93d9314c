//! Golden pin of executor behaviour on the queries the pipeline
//! actually runs.
//!
//! The corpus is every query of every rule the pipeline mines for each
//! dataset × {sliding window, RAG} × {Llama-3, Mixtral} at seed 42 and
//! scale 0.05: the generated Cypher, the corrected Cypher and the three
//! reference metric queries. Each query runs through both
//! `execute_profiled` and `execute_optimized_profiled`; the golden file
//! records the result rows in order and, per plan operator, its name,
//! detail, calls, rows in, rows out and db-hits. Self-time is host time
//! and is left out.
//!
//! Regenerate the file (only after an intended behaviour change) with
//! `cargo test -p grm-cypher --test executor_golden -- --ignored`.

use std::fmt::Write as _;
use std::path::PathBuf;

use grm_core::{ContextStrategy, MiningPipeline, PipelineConfig};
use grm_cypher::{execute_optimized_profiled, execute_profiled, QueryProfile, ResultSet};
use grm_datasets::{generate, DatasetId, GenConfig};
use grm_llm::{ModelKind, PromptStyle};
use grm_pgraph::PropertyGraph;
use grm_rules::reference_queries;

const SEED: u64 = 42;
const SCALE: f64 = 0.05;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/executor.txt")
}

fn graph(id: DatasetId) -> PropertyGraph {
    generate(id, &GenConfig { seed: SEED, scale: SCALE, clean: false }).graph
}

/// The corpus, mined fresh: per dataset, every distinct query in
/// first-seen order.
fn mine_corpus() -> Vec<(DatasetId, Vec<String>)> {
    DatasetId::ALL
        .into_iter()
        .map(|id| {
            let g = graph(id);
            let mut queries: Vec<String> = Vec::new();
            for strategy in
                [ContextStrategy::default_sliding_window(), ContextStrategy::default_rag()]
            {
                for model in ModelKind::ALL {
                    let config = PipelineConfig {
                        seed: SEED,
                        ..PipelineConfig::new(model, strategy, PromptStyle::ZeroShot)
                    };
                    for rule in MiningPipeline::new(config).run(&g).rules {
                        let refs = reference_queries(&rule.rule);
                        for q in [
                            rule.generated_cypher,
                            rule.corrected_cypher,
                            refs.satisfied,
                            refs.body,
                            refs.head_total,
                        ] {
                            if !queries.contains(&q) {
                                queries.push(q);
                            }
                        }
                    }
                }
            }
            (id, queries)
        })
        .collect()
}

/// The corpus as recorded in the golden file.
fn read_corpus(text: &str) -> Vec<(DatasetId, Vec<String>)> {
    let mut corpus: Vec<(DatasetId, Vec<String>)> = Vec::new();
    for line in text.lines() {
        if let Some(name) = line.strip_prefix("dataset ") {
            let id = DatasetId::ALL
                .into_iter()
                .find(|d| d.name() == name)
                .unwrap_or_else(|| panic!("unknown dataset {name}"));
            corpus.push((id, Vec::new()));
        } else if let Some(q) = line.strip_prefix("query ") {
            let q: String = serde_json::from_str(q).expect("query line is a JSON string");
            corpus.last_mut().expect("query before any dataset line").1.push(q);
        }
    }
    corpus
}

fn render_run(out: &mut String, entry: &str, run: Result<(ResultSet, QueryProfile), String>) {
    match run {
        Err(e) => writeln!(out, "  {entry} error {e}").unwrap(),
        Ok((rs, profile)) => {
            writeln!(out, "  {entry} columns {:?} rows {:?}", rs.columns, rs.rows).unwrap();
            for op in profile.plan_ops() {
                writeln!(
                    out,
                    "    {} [{}] calls={} in={} rows={} hits={}/{}/{}",
                    op.path,
                    op.detail,
                    op.calls,
                    op.rows_in,
                    op.rows,
                    op.db_nodes,
                    op.db_edges,
                    op.db_props
                )
                .unwrap();
            }
        }
    }
}

/// Runs the corpus and renders the golden file.
fn render(corpus: &[(DatasetId, Vec<String>)]) -> String {
    let mut out = String::from(
        "# Executor golden file: see crates/cypher/tests/executor_golden.rs.\n\
         # hits = db-hits as nodes/edges/props.\n",
    );
    for (id, queries) in corpus {
        let g = graph(*id);
        writeln!(out, "dataset {}", id.name()).unwrap();
        for q in queries {
            writeln!(out, "query {}", serde_json::to_string(q).unwrap()).unwrap();
            render_run(&mut out, "plain", execute_profiled(&g, q).map_err(|e| e.to_string()));
            render_run(
                &mut out,
                "optimized",
                execute_optimized_profiled(&g, q)
                    .map(|(rs, profile, _)| (rs, profile))
                    .map_err(|e| e.to_string()),
            );
        }
    }
    out
}

#[test]
fn executor_matches_golden_file() {
    let committed = std::fs::read_to_string(golden_path()).expect("golden file present");
    let corpus = read_corpus(&committed);
    assert_eq!(corpus.len(), 3, "one corpus section per dataset");
    assert!(corpus.iter().all(|(_, qs)| !qs.is_empty()));
    let rendered = render(&corpus);
    if rendered != committed {
        let (n, (want, got)) = committed
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((0, ("<length differs>", "<length differs>")));
        panic!("executor output diverges at line {}:\n  want: {want}\n  got:  {got}", n + 1);
    }
}

#[test]
#[ignore = "regenerates tests/golden/executor.txt"]
fn bless_golden_file() {
    std::fs::write(golden_path(), render(&mine_corpus())).unwrap();
}
