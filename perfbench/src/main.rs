//! Host wall-clock benchmark of full-scale `grm mine` jobs, timed
//! end to end and layer by layer. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload twitter-swa [--seed 42] [--seconds 10] [--trace 0|1]
//! ```
//!
//! One process, one client, closed loop: each job gets the graph
//! (from disk, or a resident snapshot), calls `MiningPipeline::run`
//! with one worker, and serializes and writes the `MiningReport`.
//! The last line of stdout is the JSON result; stderr carries a
//! table of every metric.

mod digest;
mod probe;
mod trace;

use std::borrow::Cow;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use grm_core::{ContextStrategy, MiningPipeline, MiningReport, PipelineConfig};
use grm_datasets::{generate, DatasetId, GenConfig};
use grm_llm::{ModelKind, PromptStyle};
use grm_obs::TrackingAlloc;
use grm_pgraph::{from_json, to_json_pretty, PropertyGraph};

use crate::digest::Digest;
use crate::probe::{Contexts, Scored, LAYERS};
use crate::trace::Tracer;

// Jobs pay the allocator cost `grm` users pay, and `peak_heap_mb`
// reads its high-water mark.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Where runs leave the graph file, the last report, the span file
/// and the digest, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    CyberDiskSwa,
    TwitterSwa,
    TwitterRag,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::CyberDiskSwa, Workload::TwitterSwa, Workload::TwitterRag];

    fn name(self) -> &'static str {
        match self {
            Workload::CyberDiskSwa => "cyber-disk-swa",
            Workload::TwitterSwa => "twitter-swa",
            Workload::TwitterRag => "twitter-rag",
        }
    }

    fn dataset(self) -> DatasetId {
        match self {
            Workload::CyberDiskSwa => DatasetId::Cybersecurity,
            Workload::TwitterSwa | Workload::TwitterRag => DatasetId::Twitter,
        }
    }

    /// True when each job loads the graph file, as `grm mine --graph`
    /// does; otherwise jobs share a resident graph, as `grm serve` does.
    fn loads_from_disk(self) -> bool {
        self == Workload::CyberDiskSwa
    }

    fn config(self, seed: u64) -> PipelineConfig {
        let (model, strategy) = match self {
            Workload::CyberDiskSwa | Workload::TwitterSwa => {
                (ModelKind::Llama3, ContextStrategy::default_sliding_window())
            }
            Workload::TwitterRag => (ModelKind::Mixtral, ContextStrategy::default_rag()),
        };
        PipelineConfig { seed, ..PipelineConfig::new(model, strategy, PromptStyle::ZeroShot) }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: Workload::TwitterSwa, seed: 42, seconds: 10, trace: false };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::ALL.into_iter().find(|w| w.name() == value).ok_or_else(bad)?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Where a job gets its graph.
enum Source {
    /// A JSON file each job reads and parses.
    Disk(PathBuf),
    /// A graph generated once and kept in memory.
    Resident(PropertyGraph),
}

/// Builds the workload's input once and returns it with its wall time.
fn setup(workload: Workload, seed: u64, dir: &Path) -> Result<(Source, f64), String> {
    let start = Instant::now();
    let graph = generate(workload.dataset(), &GenConfig { seed, scale: 1.0, clean: false }).graph;
    let source = if workload.loads_from_disk() {
        // Written the way `grm generate` writes it.
        let path = dir.join("graph.json");
        let json = to_json_pretty(&graph).map_err(|e| e.to_string())?;
        fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        Source::Disk(path)
    } else {
        Source::Resident(graph)
    };
    Ok((source, start.elapsed().as_secs_f64()))
}

/// Reads and parses a graph file, as `grm mine --graph` does; returns
/// the graph and the file's size in bytes.
fn load(path: &Path) -> Result<(PropertyGraph, usize), String> {
    let json = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let graph = from_json(&json).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    Ok((graph, json.len()))
}

/// Serializes and writes the report, as `grm mine --json` does;
/// returns the bytes written.
fn write_report(report: &MiningReport, path: &Path) -> Result<usize, String> {
    let json = report.to_json_pretty().map_err(|e| e.to_string())?;
    fs::write(path, &json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(json.len())
}

/// One untraced job.
fn job(source: &Source, pipeline: &MiningPipeline, out: &Path) -> Result<MiningReport, String> {
    let loaded;
    let graph = match source {
        Source::Disk(path) => {
            loaded = load(path)?.0;
            &loaded
        }
        Source::Resident(graph) => graph,
    };
    let report = pipeline.run(graph);
    write_report(&report, out)?;
    Ok(report)
}

/// A reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What the traced pass measured.
struct Traced<'a> {
    /// The graph the traced job used; the output checks replay on it.
    graph: Cow<'a, PropertyGraph>,
    tracer: Tracer,
    report: MiningReport,
    contexts: Contexts,
    scored: Scored,
    load_bytes: usize,
    report_bytes: usize,
    graph_bytes: u64,
}

/// One job with a span around each of its steps, then the probe
/// replaying its pipeline call layer by layer on the same graph.
fn traced_pass<'a>(
    source: &'a Source,
    pipeline: &MiningPipeline,
    out: &Path,
) -> Result<Traced<'a>, String> {
    let mut tr = Tracer::new();
    let root = tr.open("traced", None);
    let job = tr.open("job", Some(root));
    let (graph, load_bytes) = match source {
        Source::Disk(path) => {
            let span = tr.open("pgraph.load", Some(job));
            let (graph, bytes) = load(path)?;
            tr.close(span);
            (Cow::Owned(graph), bytes)
        }
        Source::Resident(graph) => (Cow::Borrowed(graph), 0),
    };
    let span = tr.open("core.pipeline", Some(job));
    let report = pipeline.run(&graph);
    tr.close(span);
    let span = tr.open("report.write", Some(job));
    let report_bytes = write_report(&report, out)?;
    tr.close(span);
    tr.close(job);

    let span = tr.open("probe", Some(root));
    let contexts = probe::contexts(&graph, &pipeline.config, &mut tr, span);
    let scored = probe::score(&graph, &pipeline.config, &contexts, &mut tr, span);
    tr.close(span);
    tr.close(root);
    Ok(Traced {
        graph_bytes: graph.footprint().total_bytes(),
        graph,
        tracer: tr,
        report,
        contexts,
        scored,
        load_bytes,
        report_bytes,
    })
}

/// The pipeline seed of job `i`: the run's seed for job 0, then a
/// well-mixed stream derived from it.
fn job_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        grm_resil::mix(seed, i as u64)
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The pipeline's `stage_timings` rows each probe layer corresponds
/// to; `merge` has no probed layer and stays unattributed.
fn stage_layers(stage: &str) -> &'static [&'static str] {
    match stage {
        "encode" => &["textenc.encode"],
        "chunk" => &["textenc.chunk"],
        "rag.ingest" => &["vecstore.ingest"],
        "rag.retrieve" => &["vecstore.retrieve"],
        "mine" => &["llm.mine"],
        "translate" => &["llm.translate"],
        "evaluate" => &["metrics.classify", "metrics.evaluate"],
        _ => &[],
    }
}

/// The per-layer metrics of the traced pass, as `(name, value, unit)`.
fn per_layer_metrics(traced: &Traced, job_median: f64) -> Vec<Metric> {
    let tr = &traced.tracer;
    let (ctx, batch) = (&traced.contexts, &traced.scored.batch);
    let pipeline_ms = tr.ms("core.pipeline");
    let layers_ms: f64 = LAYERS.iter().map(|l| tr.ms(l)).sum();
    let load_ms = tr.ms("pgraph.load");
    let per_byte = |ms: f64, bytes: usize| if bytes == 0 { 0.0 } else { ms * 1e6 / bytes as f64 };
    let count = |n: usize| n as f64;
    vec![
        ("pgraph.load_ms", load_ms, "ms"),
        ("pgraph.load_bytes", count(traced.load_bytes), "bytes"),
        ("pgraph.load_ns_per_byte", per_byte(load_ms, traced.load_bytes), "ns/byte"),
        ("pgraph.graph_bytes", traced.graph_bytes as f64, "bytes"),
        ("textenc.encode_ms", tr.ms("textenc.encode"), "ms"),
        ("textenc.tokens", count(ctx.tokens), "count"),
        ("textenc.chunk_ms", tr.ms("textenc.chunk"), "ms"),
        ("textenc.windows", count(traced.scored.digest.windows), "count"),
        ("textenc.broken_patterns", count(traced.scored.digest.broken_patterns), "count"),
        ("vecstore.ingest_ms", tr.ms("vecstore.ingest"), "ms"),
        ("vecstore.retrieve_ms", tr.ms("vecstore.retrieve"), "ms"),
        ("vecstore.chunks", count(ctx.chunks), "count"),
        ("vecstore.bytes", ctx.vecstore_bytes as f64, "bytes"),
        ("llm.mine_ms", tr.ms("llm.mine"), "ms"),
        ("llm.prompts", count(traced.scored.digest.prompts), "count"),
        (
            "llm.mine_ms_per_prompt",
            tr.ms("llm.mine") / count(traced.scored.digest.prompts.max(1)),
            "ms",
        ),
        ("llm.translate_ms", tr.ms("llm.translate"), "ms"),
        ("llm.rules_translated", count(traced.scored.rules_translated), "count"),
        ("metrics.classify_ms", tr.ms("metrics.classify"), "ms"),
        ("metrics.evaluate_ms", tr.ms("metrics.evaluate"), "ms"),
        (
            "metrics.rules_scored",
            count(traced.scored.digest.rules.iter().filter(|r| r.1.is_some()).count()),
            "count",
        ),
        ("cypher.queries_executed", batch.executed as f64, "count"),
        ("cypher.queries_memoized", batch.memo_hits as f64, "count"),
        ("cypher.memo_hit_ratio", ratio(batch.memo_hits, batch.queries), "ratio"),
        (
            "cypher.plan_cache_hit_ratio",
            ratio(batch.plan_cache.hits, batch.plan_cache.lookups),
            "ratio",
        ),
        ("report.write_ms", tr.ms("report.write"), "ms"),
        ("report.bytes", count(traced.report_bytes), "bytes"),
        ("core.pipeline_ms", pipeline_ms, "ms"),
        ("core.unattributed_ms", pipeline_ms - layers_ms, "ms"),
        ("trace.overhead_ms", tr.ms("job") - job_median, "ms"),
    ]
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let dir = Path::new(OUT_DIR).join(w.name());
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let report_path = dir.join("report.json");

    // Set-up, repeated; the last input is the one jobs use. The
    // previous input is dropped first so set-ups never overlap in memory.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut source = None;
    for _ in 0..SETUP_REPEATS {
        drop(source.take());
        let (s, secs) = setup(w, args.seed, &dir)?;
        source = Some(s);
        setup_s.push(secs);
    }
    let source = source.expect("SETUP_REPEATS is positive");

    // Untraced jobs, closed loop, for the requested time. Job `i` mines
    // with its own pipeline seed, so a run's median spans many rule
    // sets rather than the one a single seed happens to draw.
    let peak_before = TrackingAlloc::snapshot().peak_bytes;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut job_ms = Vec::new();
    let mut outcomes = Vec::new();
    while job_ms.is_empty() || start.elapsed() < budget {
        let pipeline = MiningPipeline::new(w.config(job_seed(args.seed, job_ms.len())));
        let t = Instant::now();
        let result = job(&source, &pipeline, &report_path);
        job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        outcomes.push((pipeline.config, result.map(|report| Digest::of_report(&report))));
    }
    let peak_bytes = TrackingAlloc::snapshot().peak_bytes;

    // The traced pass replays job 0, whose pipeline seed is the run's seed.
    let traced = traced_pass(&source, &MiningPipeline::new(w.config(args.seed)), &report_path)?;
    let reference = &traced.scored.digest;

    // Output checks. Each job's report must equal the probe's
    // independent layer-by-layer replay of its configuration; the
    // traced job must equal the traced probe; and at the default seed,
    // job 0 must equal the committed digest.
    let mut problems = Vec::new();
    if let Err(e) = Digest::of_report(&traced.report).check(reference) {
        problems.push(format!("traced job: {e}"));
    }
    let mut failed = 0;
    for (i, (config, outcome)) in outcomes.iter().enumerate() {
        let verdict = outcome.as_ref().map_err(|e| format!("error: {e}")).and_then(|digest| {
            if config.seed == args.seed {
                return digest.check(reference);
            }
            let mut check_tracer = Tracer::new();
            let root = check_tracer.open("check", None);
            let expected =
                probe::score(&traced.graph, config, &traced.contexts, &mut check_tracer, root);
            digest.check(&expected.digest)
        });
        if let Err(e) = verdict {
            problems.push(format!("job {i} (pipeline seed {}): {e}", config.seed));
            failed += 1;
        }
    }
    fs::write(dir.join("digest.txt"), reference.text())
        .map_err(|e| format!("writing digest: {e}"))?;
    if args.seed == 42 && digest::reference(w.name()) != Some(reference.text().as_str()) {
        problems.push(format!(
            "default-seed output differs from perfbench/reference/{}.txt; see {}",
            w.name(),
            dir.join("digest.txt").display()
        ));
    }
    let spans_path = dir.join("spans.jsonl");
    fs::write(&spans_path, traced.tracer.to_jsonl()).map_err(|e| format!("writing spans: {e}"))?;

    let job_median = median(&job_ms);
    let end_to_end = vec![
        ("job_ms", job_median, "ms"),
        ("setup_s", median(&setup_s), "s"),
        ("peak_heap_mb", peak_bytes as f64 / (1024.0 * 1024.0), "MiB"),
    ];

    let per_layer = per_layer_metrics(&traced, job_median);
    let tr = &traced.tracer;

    // The human-readable report, on stderr.
    eprintln!(
        "workload {} · seed {} · {} job(s) in {:.1} s",
        w.name(),
        args.seed,
        job_ms.len(),
        start.elapsed().as_secs_f64()
    );
    eprintln!(
        "  fail_rate {:.4} ({failed} of {} jobs)",
        ratio(failed as u64, job_ms.len() as u64),
        job_ms.len()
    );
    eprintln!(
        "  end-to-end (untraced; job_ms over {} samples, setup_s over {SETUP_REPEATS}):",
        job_ms.len()
    );
    for (name, value, unit) in &end_to_end {
        eprintln!("    {name:<28} {value:>14.4} {unit}");
    }
    eprintln!("    job_ms samples: {:?}", job_ms.iter().map(|ms| ms.round()).collect::<Vec<_>>());
    if peak_bytes == peak_before {
        eprintln!("    (peak_heap_mb was set during set-up, not by a job)");
    }
    eprintln!("  per-layer (traced pass):");
    for (name, value, unit) in &per_layer {
        eprintln!("    {name:<28} {value:>14.4} {unit}");
    }
    eprintln!("  cross-check: pipeline stage_timings real ms vs probe layers");
    for stage in &traced.report.stage_timings {
        let layers = stage_layers(&stage.stage);
        let probed: f64 = layers.iter().map(|l| tr.ms(l)).sum();
        let names =
            if layers.is_empty() { "(unattributed)".to_owned() } else { layers.join(" + ") };
        eprintln!(
            "    {:<14} {:>12.3} ms   {names:<36} {probed:>12.3} ms",
            stage.stage, stage.real_ms
        );
    }
    eprintln!("  spans: {}", spans_path.display());
    for p in &problems {
        eprintln!("  CHECK FAILED: {p}");
    }

    let metrics: Vec<String> = (if args.trace { per_layer } else { end_to_end })
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        problems.is_empty(),
        job_ms.len(),
        metrics.join(",")
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: grm-perfbench --workload cyber-disk-swa|twitter-swa|twitter-rag \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
