//! The disk path `grm generate` → `grm mine --graph` takes, at full
//! Table-1 scale: every dataset survives a write/read round trip, and
//! the JSON loader's cost grows linearly with its input.

use std::time::{Duration, Instant};

use graph_rule_mining::datasets::{generate, DatasetId, GenConfig};
use graph_rule_mining::pgraph::{from_json, to_json};

#[test]
fn full_scale_graphs_round_trip_through_disk() {
    for id in DatasetId::ALL {
        let g = generate(id, &GenConfig::default()).graph;
        let path =
            std::env::temp_dir().join(format!("grm-full-scale-{id:?}-{}.json", std::process::id()));
        std::fs::write(&path, to_json(&g).unwrap()).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let loaded = from_json(&json).unwrap();

        assert_eq!(
            (loaded.node_count(), loaded.edge_count()),
            (g.node_count(), g.edge_count()),
            "{id:?}"
        );
        for (a, b) in g.nodes().zip(loaded.nodes()) {
            assert_eq!((&a.labels, &a.props), (&b.labels, &b.props), "{id:?} node {}", a.id);
        }
        for (a, b) in g.edges().zip(loaded.edges()) {
            assert_eq!(
                (a.src, a.dst, &a.label, &a.props),
                (b.src, b.dst, &b.label, &b.props),
                "{id:?} edge {}",
                a.id
            );
        }
    }
}

/// A string-heavy document of `items` entries, with multibyte
/// characters and escapes in every string.
fn string_heavy_json(items: usize) -> String {
    let strings: Vec<String> = (0..items)
        .map(|i| format!("tweet {i}: café → 東京 \"quoted\" line\nbreak {}", "x".repeat(40)))
        .collect();
    serde_json::to_string(&strings).unwrap()
}

fn best_parse_time(json: &str) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let parsed: Vec<String> = serde_json::from_str(json).unwrap();
            std::hint::black_box(parsed);
            start.elapsed()
        })
        .min()
        .unwrap()
}

/// 8× the input must cost about 8× the time: a loader that rescans
/// the rest of its input per character would take ~64×.
#[test]
fn json_load_cost_is_linear_in_input_size() {
    let small = string_heavy_json(2_000);
    let large = string_heavy_json(16_000);
    let (t1, t8) = (best_parse_time(&small), best_parse_time(&large));
    let ratio = t8.as_secs_f64() / t1.as_secs_f64();
    assert!(
        ratio <= 24.0,
        "parsing {} bytes took {t8:?}, {ratio:.1}× the {t1:?} for {} bytes",
        large.len(),
        small.len()
    );
}
