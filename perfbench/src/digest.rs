//! The output check: a digest of everything a `MiningReport` decides
//! that does not depend on host time.

use grm_core::MiningReport;
use grm_metrics::{AggregateMetrics, RuleMetrics};

/// One rule's support, coverage % and confidence %.
pub type Scores = (i64, f64, f64);

/// Rule count, per-rule final class and scores, aggregate scores, and
/// the context counts of one pipeline run. `stage_timings.real_ms` is
/// deliberately absent: it is host time and differs on every run.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    /// `(final class, support, coverage %, confidence %)` per rule, in
    /// report order; the scores are `None` for an unexecutable query.
    pub rules: Vec<(&'static str, Option<Scores>)>,
    pub support: f64,
    pub coverage_pct: f64,
    pub confidence_pct: f64,
    pub prompts: usize,
    pub windows: usize,
    pub broken_patterns: usize,
    pub rag_coverage: Option<f64>,
    /// Simulated mining seconds, summed over prompts in prompt order.
    pub mining_seconds: f64,
}

impl Digest {
    pub fn of_report(report: &MiningReport) -> Digest {
        Digest {
            rules: report
                .rules
                .iter()
                .map(|r| (r.final_class.name(), r.metrics.map(scores)))
                .collect(),
            ..Digest::new(
                report.aggregate,
                report.prompts,
                report.windows,
                report.broken_patterns,
                report.rag_coverage,
                report.mining_seconds,
            )
        }
    }

    /// A digest with no rules yet; the caller fills `rules`.
    pub fn new(
        aggregate: AggregateMetrics,
        prompts: usize,
        windows: usize,
        broken_patterns: usize,
        rag_coverage: Option<f64>,
        mining_seconds: f64,
    ) -> Digest {
        Digest {
            rules: Vec::new(),
            support: aggregate.support,
            coverage_pct: aggregate.coverage_pct,
            confidence_pct: aggregate.confidence_pct,
            prompts,
            windows,
            broken_patterns,
            rag_coverage,
            mining_seconds,
        }
    }

    /// The committed-reference form, one rule per line. Floats print
    /// with `{:?}`, which keeps every digit needed to read them back
    /// exactly, so two digests are equal exactly when their texts are.
    pub fn text(&self) -> String {
        let mut out = format!("rules {}\n", self.rules.len());
        for (i, (class, scores)) in self.rules.iter().enumerate() {
            match scores {
                Some((s, cov, conf)) => {
                    out += &format!(
                        "rule {i} {class} support {s} coverage {cov:?} confidence {conf:?}\n"
                    )
                }
                None => out += &format!("rule {i} {class} unscored\n"),
            }
        }
        out += &format!(
            "aggregate support {:?} coverage {:?} confidence {:?}\n",
            self.support, self.coverage_pct, self.confidence_pct
        );
        out += &format!(
            "prompts {} windows {} broken_patterns {} rag_coverage {:?}\nmining_seconds {:?}\n",
            self.prompts,
            self.windows,
            self.broken_patterns,
            self.rag_coverage,
            self.mining_seconds
        );
        out
    }

    /// `Ok` when `self` equals `reference`, else a one-line reason.
    pub fn check(&self, reference: &Digest) -> Result<(), String> {
        if self == reference {
            return Ok(());
        }
        let field = if self.rules.len() != reference.rules.len() {
            format!("rule count {} != {}", self.rules.len(), reference.rules.len())
        } else if let Some(i) = (0..self.rules.len()).find(|&i| self.rules[i] != reference.rules[i])
        {
            format!("rule {i}: {:?} != {:?}", self.rules[i], reference.rules[i])
        } else {
            let mut ours = self.clone();
            ours.rules.clear();
            let mut theirs = reference.clone();
            theirs.rules.clear();
            format!("{ours:?} != {theirs:?}")
        };
        Err(format!("output differs from reference: {field}"))
    }
}

pub fn scores(m: RuleMetrics) -> Scores {
    (m.support, m.coverage_pct, m.confidence_pct)
}

/// The committed digest of `workload` at the default seed.
pub fn reference(workload: &str) -> Option<&'static str> {
    match workload {
        "cyber-disk-swa" => Some(include_str!("../reference/cyber-disk-swa.txt")),
        "twitter-swa" => Some(include_str!("../reference/twitter-swa.txt")),
        "twitter-rag" => Some(include_str!("../reference/twitter-rag.txt")),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_core::{ContextStrategy, MiningPipeline, PipelineConfig};
    use grm_datasets::{generate, DatasetId, GenConfig};
    use grm_llm::{ModelKind, PromptStyle};
    use grm_metrics::QueryClass;

    fn small_report() -> MiningReport {
        let graph =
            generate(DatasetId::Twitter, &GenConfig { scale: 0.05, ..Default::default() }).graph;
        let config = PipelineConfig::new(
            ModelKind::Llama3,
            ContextStrategy::default_sliding_window(),
            PromptStyle::ZeroShot,
        );
        MiningPipeline::new(config).run(&graph)
    }

    #[test]
    fn perturbed_reports_fail_the_check() {
        let report = small_report();
        let reference = Digest::of_report(&report);
        assert!(Digest::of_report(&report).check(&reference).is_ok());
        assert!(reference.rules.iter().any(|r| r.1.is_some()), "nothing was scored");

        let mut flipped = report.clone();
        flipped.rules[0].final_class = match flipped.rules[0].final_class {
            QueryClass::Correct => QueryClass::SyntaxError,
            _ => QueryClass::Correct,
        };
        let err = Digest::of_report(&flipped).check(&reference).unwrap_err();
        assert!(err.contains("rule 0"), "{err}");

        let mut rescored = report.clone();
        let scored = rescored.rules.iter_mut().find_map(|r| r.metrics.as_mut()).unwrap();
        scored.support += 1;
        assert!(Digest::of_report(&rescored).check(&reference).is_err());

        let mut dropped = report.clone();
        dropped.rules.pop();
        let err = Digest::of_report(&dropped).check(&reference).unwrap_err();
        assert!(err.contains("rule count"), "{err}");

        let mut fewer_windows = report;
        fewer_windows.windows -= 1;
        assert!(Digest::of_report(&fewer_windows).check(&reference).is_err());
    }

    #[test]
    fn host_time_is_not_part_of_the_digest() {
        let report = small_report();
        let mut retimed = report.clone();
        for stage in &mut retimed.stage_timings {
            stage.real_ms += 1000.0;
        }
        assert_eq!(Digest::of_report(&retimed), Digest::of_report(&report));
    }
}
