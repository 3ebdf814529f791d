//! The traced run: the engine's pipeline replayed in the engine's order
//! through each layer's public function, with a span around every call.
//!
//! The program itself is not instrumented; spans are recorded here, kept
//! in memory and written out when the benchmark ends. The replay must
//! reproduce the untraced report's counters exactly (see [`Fidelity`]) —
//! if it does not, it is timing a different program.

use crate::inputs::InputSpec;
use crate::solo::f1_against;
use corleone::cache::DEFAULT_CACHE_CAPACITY;
use corleone::ruleeval::RuleEvalConfig;
use corleone::{
    estimate_accuracy, locate_difficult_pairs, plan_blocking_source, run_active_learning,
    run_blocker, AccuracyEstimate, BlockerReport, CandidateSet, CandidateSource, FeatureCache,
    LocatorReport, MatchTask, RunEnv, RunReport, StopReason, Threads,
};
use crowd::{CrowdPlatform, PairKey};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Crowd-ledger and kernel counters, read at span boundaries.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Counters {
    /// Worker answers solicited.
    pub answers: u64,
    /// HITs posted.
    pub hits: u64,
    /// Distinct pairs labeled by the crowd.
    pub labels: u64,
    /// Pairs served from the platform's label cache.
    pub label_cache_hits: u64,
    /// Crowd spend, in cents.
    pub cents: f64,
    /// Pairs fully vectorized.
    pub pairs_vectorized: u64,
    /// Single-feature evaluations.
    pub single_features: u64,
}

impl Counters {
    fn read(platform: &CrowdPlatform, task: &MatchTask) -> Counters {
        let l = platform.ledger();
        let k = task.kernel_counters();
        Counters {
            answers: l.answers_solicited,
            hits: l.hits_posted,
            labels: l.pairs_labeled,
            label_cache_hits: l.cache_hits,
            cents: l.total_cents,
            pairs_vectorized: k.pairs_vectorized,
            single_features: k.single_features,
        }
    }

    fn plus(self, o: Counters) -> Counters {
        Counters {
            answers: self.answers + o.answers,
            hits: self.hits + o.hits,
            labels: self.labels + o.labels,
            label_cache_hits: self.label_cache_hits + o.label_cache_hits,
            cents: self.cents + o.cents,
            pairs_vectorized: self.pairs_vectorized + o.pairs_vectorized,
            single_features: self.single_features + o.single_features,
        }
    }

    fn minus(self, o: Counters) -> Counters {
        Counters {
            answers: self.answers - o.answers,
            hits: self.hits - o.hits,
            labels: self.labels - o.labels,
            label_cache_hits: self.label_cache_hits - o.label_cache_hits,
            cents: self.cents - o.cents,
            pairs_vectorized: self.pairs_vectorized - o.pairs_vectorized,
            single_features: self.single_features - o.single_features,
        }
    }
}

/// One recorded span: seconds since the tracer's origin, the index of
/// the span that caused it, and the counter deltas inside it.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer-qualified name, e.g. `blocker` or `estimator`.
    pub name: &'static str,
    /// Start, in seconds since the tracer was created.
    pub start_s: f64,
    /// End, in seconds since the tracer was created.
    pub end_s: f64,
    /// Index of the parent span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Counter deltas between start and end.
    pub counters: Counters,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1000.0
    }
}

/// In-memory span recorder with an explicit enter/exit stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Counters)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, now: Counters) {
        let parent = self.open.last().map(|&(i, _)| i);
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            parent,
            counters: now,
        });
        self.open.push((self.spans.len() - 1, now));
    }

    /// Close the innermost open span; returns its index.
    pub fn exit(&mut self, now: Counters) -> usize {
        let (i, start) = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_s = self.origin.elapsed().as_secs_f64();
        self.spans[i].counters = now.minus(start);
        i
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of `root`'s direct children ÷ `root`'s duration.
    pub fn coverage(&self, root: usize) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::ms)
            .sum();
        covered / self.spans[root].ms()
    }

    /// Summed duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Summed counters of every span named `name`.
    pub fn total_counters(&self, name: &str) -> Counters {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(Counters::default(), |acc, s| acc.plus(s.counters))
    }
}

/// The counters a traced replay must reproduce from the untraced report:
/// the blocker report, each iteration's matcher labels and cents,
/// estimate and locator report, and the run totals.
#[derive(Debug, Serialize)]
pub struct Fidelity {
    blocker: BlockerReport,
    iterations: Vec<IterationCounters>,
    total_cost_cents: f64,
    total_pairs_labeled: u64,
    predicted_matches: Vec<PairKey>,
}

#[derive(Debug, Serialize)]
struct IterationCounters {
    al_iterations: usize,
    stop: String,
    labels: u64,
    cents: f64,
    estimate: AccuracyEstimate,
    locator: Option<LocatorReport>,
}

impl Fidelity {
    /// The counters of an untraced run's report.
    pub fn of_report(r: &RunReport) -> Fidelity {
        Fidelity {
            blocker: r.blocker.clone(),
            iterations: r
                .iterations
                .iter()
                .map(|it| IterationCounters {
                    al_iterations: it.matcher_al_iterations,
                    stop: it.matcher_stop.clone(),
                    labels: it.matcher_pairs_labeled,
                    cents: it.matcher_cost_cents,
                    estimate: it.estimate.clone(),
                    locator: it.locator.clone(),
                })
                .collect(),
            total_cost_cents: r.total_cost_cents,
            total_pairs_labeled: r.total_pairs_labeled,
            predicted_matches: r.predicted_matches.clone(),
        }
    }

    /// Canonical JSON for comparison.
    pub fn json(&self) -> String {
        serde_json::to_string(self).expect("counters serialize")
    }
}

/// The engine's label for a matcher stop reason.
fn stop_label(stop: StopReason) -> String {
    match stop {
        StopReason::Pattern(d) => format!("{d:?}"),
        StopReason::Exhausted => "Exhausted".to_string(),
        StopReason::MaxIterations => "MaxIterations".to_string(),
        StopReason::Budget => "Budget".to_string(),
    }
}

/// What one traced replay produced.
pub struct Replay {
    /// The replay's counters, to compare with the untraced report's.
    pub fidelity: Fidelity,
    /// Per-layer metrics, by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Wall time of the whole replay (the root span), in seconds.
    pub wall_s: f64,
    /// The recorded spans.
    pub tracer: Tracer,
}

/// Replay one run of `spec` in the engine's order — analysis, blocker,
/// then per iteration matcher, estimator and locator — with the same
/// configuration, seed, thread budget and feature cache a session uses.
/// Afterwards the blocker's candidate source and the candidate-set build
/// are re-timed on their own, outside the root span.
pub fn replay(spec: &InputSpec, threads: usize) -> Replay {
    let mut input = spec.build();
    let cfg = bench::experiment_config();
    let task = &input.task;
    let platform = &mut input.platform;
    let oracle = &input.gold;
    let gold = input.gold.matches();
    let th = Threads::new(threads);
    let cache = FeatureCache::with_capacity(DEFAULT_CACHE_CAPACITY);
    let env = RunEnv {
        threads: th,
        cache: Some(&cache),
    };
    let mut rng = StdRng::seed_from_u64(spec.run_seed);
    let mut tr = Tracer::default();
    let mut layers = BTreeMap::new();

    tr.enter("run", Counters::read(platform, task));
    let run_start = Counters::read(platform, task);

    tr.enter("similarity", Counters::read(platform, task));
    task.ensure_analysis(th);
    tr.exit(Counters::read(platform, task));

    tr.enter("blocker", Counters::read(platform, task));
    let blocked = run_blocker(
        task,
        platform,
        oracle,
        &cfg.blocker,
        &cfg.matcher,
        &mut rng,
        &env,
    );
    tr.exit(Counters::read(platform, task));
    let cand = blocked.candidates;
    let umbrella: HashSet<PairKey> = cand.pairs().iter().copied().collect();
    let recall = corleone::metrics::blocking_recall(&umbrella, gold);

    tr.enter("matcher.seeds", Counters::read(platform, task));
    let seed_vectors: Vec<(Vec<f64>, bool)> = task
        .seeds
        .iter()
        .map(|&(k, l)| (env.vectorize(task, k), l))
        .collect();
    tr.exit(Counters::read(platform, task));

    let mut predictions = vec![false; cand.len()];
    let mut known_labels: HashMap<usize, bool> = HashMap::new();
    let mut region: Vec<usize> = (0..cand.len()).collect();
    let mut best: Option<(AccuracyEstimate, Vec<bool>)> = None;
    let mut iterations = Vec::new();
    let eval_cfg = RuleEvalConfig {
        batch: cfg.blocker.eval_batch,
        p_min: cfg.blocker.p_min,
        eps_max: cfg.blocker.eps_max,
        confidence: cfg.blocker.confidence,
        budget_cents_cap: None,
        ..Default::default()
    };
    let mut difficult_pairs = 0usize;
    let mut al_iterations = 0usize;
    for iter_no in 1.. {
        if iter_no > cfg.engine.max_iterations || region.is_empty() {
            break;
        }
        tr.enter("matcher.subset", Counters::read(platform, task));
        let sub = cand.subset(&region);
        tr.exit(Counters::read(platform, task));

        tr.enter("learner", Counters::read(platform, task));
        let learn = run_active_learning(
            &sub,
            &seed_vectors,
            platform,
            oracle,
            &cfg.matcher,
            &mut rng,
            th,
        );
        let learned = tr.exit(Counters::read(platform, task));
        al_iterations += learn.iterations;
        for (sub_idx, label) in learn.crowd_labels() {
            known_labels.insert(region[sub_idx], label);
        }

        tr.enter("matcher.predict", Counters::read(platform, task));
        let region_preds = learn
            .forest
            .predict_batch(sub.matrix(), sub.n_features(), th);
        for (j, &global) in region.iter().enumerate() {
            predictions[global] = region_preds[j];
        }
        tr.exit(Counters::read(platform, task));

        tr.enter("estimator", Counters::read(platform, task));
        let estimate = estimate_accuracy(
            &cand,
            &predictions,
            &learn.forest,
            &known_labels,
            platform,
            oracle,
            &cfg.estimator,
            &mut rng,
            &env,
        );
        tr.exit(Counters::read(platform, task));

        let m = tr.spans()[learned].counters;
        let mut it = IterationCounters {
            al_iterations: learn.iterations,
            stop: stop_label(learn.stop),
            labels: m.labels,
            cents: m.cents,
            estimate: estimate.clone(),
            locator: None,
        };
        let improved = best.as_ref().is_none_or(|(b, _)| estimate.f1 > b.f1);
        if !improved {
            if let Some((_, snap)) = &best {
                predictions.clone_from(snap);
            }
            iterations.push(it);
            break;
        }
        best = Some((estimate, predictions.clone()));
        if iter_no == cfg.engine.max_iterations {
            iterations.push(it);
            break;
        }

        tr.enter("locator", Counters::read(platform, task));
        let located = locate_difficult_pairs(
            &cand,
            &region,
            &learn.forest,
            &known_labels,
            platform,
            oracle,
            &cfg.locator,
            &eval_cfg,
            &mut rng,
            &env,
        );
        tr.exit(Counters::read(platform, task));
        difficult_pairs += located.report.difficult_size;
        it.locator = Some(located.report);
        iterations.push(it);
        match located.difficult {
            Some(next) => region = next,
            None => break,
        }
    }

    tr.enter("report", Counters::read(platform, task));
    let (final_estimate, final_predictions) = best.expect("at least one iteration ran");
    let mut predicted_matches: Vec<PairKey> = final_predictions
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p)
        .map(|(i, _)| cand.pair(i))
        .collect();
    predicted_matches.sort();
    let f1 = f1_against(&predicted_matches, gold);
    tr.exit(Counters::read(platform, task));

    let run_total = Counters::read(platform, task).minus(run_start);
    let root = tr.exit(Counters::read(platform, task));
    let wall_s = tr.spans()[root].ms() / 1000.0;

    // Re-time candidate generation on the blocker's applied rules, and
    // the candidate-set build on the umbrella pairs with no warm cache.
    let source = plan_blocking_source(task, &blocked.applied_rules);
    let t = Instant::now();
    let generated = source.generate(th);
    let generate_ms = t.elapsed().as_secs_f64() * 1000.0;
    let t = Instant::now();
    let rebuilt = CandidateSet::build_with(task, cand.pairs().to_vec(), th, None);
    let build_s = t.elapsed().as_secs_f64();
    assert_eq!(rebuilt.len(), cand.len());

    let report = blocked.report;
    let an = task.analysis.get().expect("analysis built by the replay");
    let blk = tr.total_counters("blocker");
    let cache_stats = cache.stats();
    let lookups = run_total.labels + run_total.label_cache_hits;
    for (name, value) in [
        ("similarity.analysis_build_ms", tr.total_ms("similarity")),
        ("similarity.analysis_bytes", an.stats.resident_bytes as f64),
        (
            "similarity.pairs_vectorized",
            run_total.pairs_vectorized as f64,
        ),
        (
            "similarity.single_features",
            run_total.single_features as f64,
        ),
        ("blocker.ms", tr.total_ms("blocker")),
        ("blocker.sample_pairs", report.sample_size as f64),
        ("blocker.al_iterations", report.al_iterations as f64),
        ("blocker.rules_kept", report.rules_kept as f64),
        ("blocker.labels", blk.labels as f64),
        ("blocker.cents", blk.cents),
        (
            "blocker.umbrella_ratio",
            report.umbrella_size as f64 / report.cartesian as f64,
        ),
        ("blocker.recall", recall),
        ("source.generate_ms", generate_ms),
        ("source.pairs_out", generated.len() as f64),
        ("candidates.build_ms", build_s * 1000.0),
        ("candidates.pairs_per_s", cand.len() as f64 / build_s),
        ("learner.ms", tr.total_ms("learner")),
        ("learner.al_iterations", al_iterations as f64),
        ("learner.labels", tr.total_counters("learner").labels as f64),
        ("estimator.ms", tr.total_ms("estimator")),
        (
            "estimator.labels",
            tr.total_counters("estimator").labels as f64,
        ),
        ("estimator.eps_p", final_estimate.eps_p),
        ("estimator.eps_r", final_estimate.eps_r),
        ("estimator.f1_est_err", (final_estimate.f1 - f1).abs()),
        ("locator.ms", tr.total_ms("locator")),
        ("locator.labels", tr.total_counters("locator").labels as f64),
        ("locator.difficult_pairs", difficult_pairs as f64),
        ("crowd.answers", run_total.answers as f64),
        ("crowd.hits", run_total.hits as f64),
        (
            "crowd.label_cache_ratio",
            run_total.label_cache_hits as f64 / lookups.max(1) as f64,
        ),
        ("cache.hit_ratio", cache_stats.hit_rate()),
        ("cache.entries", cache_stats.entries as f64),
        ("trace.coverage", tr.coverage(root)),
    ] {
        layers.insert(name, value);
    }

    let fidelity = Fidelity {
        blocker: report,
        iterations,
        total_cost_cents: run_total.cents,
        total_pairs_labeled: run_total.labels,
        predicted_matches,
    };
    Replay {
        fidelity,
        layers,
        wall_s,
        tracer: tr,
    }
}
