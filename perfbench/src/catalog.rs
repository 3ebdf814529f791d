//! Every metric the benchmark prints, with its unit. `BENCHMARK.json`
//! lists the same names and units (a test holds the two together).

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("f1", "ratio"),
    ("resume_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("similarity.analysis_build_ms", "ms"),
    ("similarity.analysis_bytes", "bytes"),
    ("similarity.pairs_vectorized", "count"),
    ("similarity.single_features", "count"),
    ("blocker.ms", "ms"),
    ("blocker.sample_pairs", "count"),
    ("blocker.al_iterations", "count"),
    ("blocker.rules_kept", "count"),
    ("blocker.labels", "pairs"),
    ("blocker.cents", "cents"),
    ("blocker.umbrella_ratio", "ratio"),
    ("blocker.recall", "ratio"),
    ("source.generate_ms", "ms"),
    ("source.pairs_out", "count"),
    ("candidates.build_ms", "ms"),
    ("candidates.pairs_per_s", "1/s"),
    ("learner.ms", "ms"),
    ("learner.al_iterations", "count"),
    ("learner.labels", "pairs"),
    ("estimator.ms", "ms"),
    ("estimator.labels", "pairs"),
    ("estimator.eps_p", "ratio"),
    ("estimator.eps_r", "ratio"),
    ("estimator.f1_est_err", "ratio"),
    ("locator.ms", "ms"),
    ("locator.labels", "pairs"),
    ("locator.difficult_pairs", "count"),
    ("crowd.answers", "count"),
    ("crowd.hits", "count"),
    ("crowd.label_cache_ratio", "ratio"),
    ("crowd.cost_usd", "USD"),
    ("crowd.labels", "pairs"),
    ("crowd.hours", "h"),
    ("memory.peak_rss_mb", "MiB"),
    ("cache.hit_ratio", "ratio"),
    ("cache.entries", "count"),
    ("store.snapshot_bytes", "bytes"),
    ("store.write_ms", "ms"),
    ("store.read_ms", "ms"),
    ("store.read_mb_per_s", "MB/s"),
    ("service.makespan_s", "s"),
    ("service.submit_ms", "ms"),
    ("service.tick_ms_p50", "ms"),
    ("service.tick_ms_tail", "ms"),
    ("service.start_tick_ms", "ms"),
    ("service.iter_tick_ms", "ms"),
    ("service.analysis_hit_ratio", "ratio"),
    ("service.tenants_resumed", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The unit of a known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;
    use std::collections::HashSet;

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_follow_the_grammar_and_are_unique() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_metric_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
    }

    /// `BENCHMARK.json` must list exactly these metrics, with these units.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(serde::Value::Arr(items)) = doc.get(key) else {
                panic!("{key} is not a list");
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| match m.get(f) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        other => panic!("{key} entry has no string {f}: {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }
}
