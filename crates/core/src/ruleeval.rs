//! Rule scoring and crowd-based rule evaluation (paper §4.2), shared by
//! the Blocker, the Accuracy Estimator, and the Difficult Pairs' Locator.
//!
//! Selection (§4.2 step 1): candidate rules are ranked by an *upper bound*
//! on their precision — a covered example can only break the rule if the
//! crowd already labeled it with the opposite class — and the top `k` go
//! to evaluation.
//!
//! Evaluation (§4.2 step 2, joint variant): examples are sampled from the
//! union of the undecided rules' coverages so one crowd label feeds every
//! rule covering it; per rule, the estimated precision `P = n_ok/n` with a
//! finite-population margin `ε` decides keep (`P ≥ P_min`, `ε ≤ ε_max`) or
//! drop (`P + ε < P_min`, or `ε ≤ ε_max` with `P < P_min`).

use crate::candidates::{crowd_label, CandidateSet};
use crowd::stats::{fpc_margin, z_for_confidence};
use crowd::{CrowdPlatform, Scheme, TruthOracle};
use forest::{Predicate, Rule, RuleCoverage};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A candidate rule with its coverage and precision upper bound.
#[derive(Debug, Clone)]
pub struct ScoredRule {
    /// The rule.
    pub rule: Rule,
    /// Candidate indices the rule covers (predicts its label for).
    pub coverage: Vec<usize>,
    /// Upper bound on `prec(R, S)` from already-known labels (§4.2).
    pub ub_precision: f64,
}

/// A label pool keyed by candidate index as a dense array over the `n`
/// candidates: `out[i]` is the known label of candidate `i`, if any.
pub fn dense_labels(labels: &HashMap<usize, bool>, n: usize) -> Vec<Option<bool>> {
    let mut out = vec![None; n];
    for (&i, &l) in labels { // lint:allow(D2): each entry writes its own slot, so the array is independent of visit order
        out[i] = Some(l);
    }
    out
}

/// Score the forest's rules predicting `label` and keep the top `k` by
/// precision upper bound, breaking ties by coverage size (§4.2 step 1).
/// `known` holds the crowd labels gathered so far, by candidate index
/// (see [`dense_labels`]); a covered example known to carry the opposite
/// label is a violation. Rules with empty coverage and duplicate rules
/// (same predicates, from different trees) are discarded.
pub fn select_top_rules(
    coverage: &RuleCoverage,
    label: bool,
    known: &[Option<bool>],
    k: usize,
) -> Vec<ScoredRule> {
    let mut seen: Vec<&[Predicate]> = Vec::new();
    let mut ranked: Vec<(usize, f64)> = Vec::new();
    for (r, rule) in coverage.rules().iter().enumerate() {
        if rule.label != label || seen.contains(&rule.predicates.as_slice()) {
            continue;
        }
        seen.push(&rule.predicates);
        let covered = coverage.covered(r);
        if covered.is_empty() {
            continue;
        }
        let violations = covered.iter().filter(|&&i| known[i] == Some(!label)).count();
        ranked.push((r, (covered.len() - violations) as f64 / covered.len() as f64));
    }
    ranked.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then(coverage.covered(b.0).len().cmp(&coverage.covered(a.0).len()))
    });
    ranked.truncate(k);
    ranked
        .into_iter()
        .map(|(r, ub_precision)| ScoredRule {
            rule: coverage.rules()[r].clone(),
            coverage: coverage.covered(r).to_vec(),
            ub_precision,
        })
        .collect()
}

/// Parameters for crowd rule evaluation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RuleEvalConfig {
    /// Examples sampled per round (`b`, §4.2).
    pub batch: usize,
    /// Minimum precision `P_min`.
    pub p_min: f64,
    /// Maximum margin `ε_max`.
    pub eps_max: f64,
    /// Confidence level `δ`.
    pub confidence: f64,
    /// Voting scheme for the labels (rule evaluation is
    /// estimation-sensitive, so the hybrid scheme is the default).
    pub scheme: Scheme,
    /// Absolute ledger cap (cents): stop soliciting labels once
    /// `Ledger.total_cents` reaches it, deciding remaining rules from the
    /// labels in hand. `None` leaves evaluation unbudgeted.
    pub budget_cents_cap: Option<f64>,
}

impl Default for RuleEvalConfig {
    fn default() -> Self {
        RuleEvalConfig {
            batch: 20,
            p_min: 0.95,
            eps_max: 0.05,
            confidence: 0.95,
            scheme: Scheme::Hybrid,
            budget_cents_cap: None,
        }
    }
}

/// A rule after crowd evaluation.
#[derive(Debug, Clone)]
pub struct EvaluatedRule {
    /// The rule.
    pub rule: Rule,
    /// Its coverage (as given at selection time).
    pub coverage: Vec<usize>,
    /// Estimated precision over the coverage.
    pub est_precision: f64,
    /// Error margin of the estimate.
    pub margin: f64,
    /// Labeled examples that informed the estimate.
    pub n_labeled: usize,
    /// Whether the rule passed (`P ≥ P_min` within `ε_max`).
    pub kept: bool,
}

/// Jointly evaluate rules with the crowd (§4.2 step 2, joint variant).
/// Also returns the pool of labels gathered, keyed by candidate index, so
/// callers can reuse them.
pub fn evaluate_rules_jointly(
    scored: Vec<ScoredRule>,
    cand: &CandidateSet,
    platform: &mut CrowdPlatform,
    oracle: &dyn TruthOracle,
    cfg: &RuleEvalConfig,
    rng: &mut StdRng,
    prior_labels: &mut HashMap<usize, bool>,
) -> Vec<EvaluatedRule> {
    let z = z_for_confidence(cfg.confidence);

    struct State {
        scored: ScoredRule,
        decided: Option<EvaluatedRule>,
    }
    let mut states: Vec<State> = scored
        .into_iter()
        .map(|s| State { scored: s, decided: None })
        .collect();

    // Dense mirror of `prior_labels`, updated in step with it.
    let mut labels = dense_labels(prior_labels, cand.len());
    // (labeled, labeled with the rule's own label) over a rule's coverage.
    let stats = |s: &ScoredRule, labels: &[Option<bool>]| -> (usize, usize) {
        let mut n = 0;
        let mut ok = 0;
        for &i in &s.coverage {
            if let Some(l) = labels[i] {
                n += 1;
                if l == s.rule.label {
                    ok += 1;
                }
            }
        }
        (n, ok)
    };

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        // Decide what we can with current labels.
        for st in states.iter_mut().filter(|s| s.decided.is_none()) {
            let (n, ok) = stats(&st.scored, &labels);
            let m = st.scored.coverage.len();
            if n == 0 {
                continue;
            }
            let p = ok as f64 / n as f64;
            // Margin with Laplace-smoothed proportion: at p̂ ∈ {0, 1} the
            // plain normal margin collapses to 0 and would accept/reject a
            // rule after a single label.
            let p_smooth = (ok as f64 + 1.0) / (n as f64 + 2.0);
            let eps = fpc_margin(p_smooth, n, m, z);
            let keep = p >= cfg.p_min && eps <= cfg.eps_max;
            let drop = (p + eps) < cfg.p_min || (eps <= cfg.eps_max && p < cfg.p_min);
            if keep || drop || n >= m {
                st.decided = Some(EvaluatedRule {
                    rule: st.scored.rule.clone(),
                    coverage: st.scored.coverage.clone(),
                    est_precision: p,
                    margin: eps,
                    n_labeled: n,
                    kept: keep || (n >= m && p >= cfg.p_min),
                });
            }
        }
        let undecided_any = states.iter().any(|s| s.decided.is_none());
        // Finalize whatever is still undecided from the labels in hand —
        // used when sampling must stop (coverage exhausted, budget cap,
        // round cap, or a crowd that stopped returning labels).
        let finalize = |states: &mut Vec<State>, labels: &[Option<bool>]| {
            for st in states.iter_mut().filter(|s| s.decided.is_none()) {
                let (n, ok) = stats(&st.scored, labels);
                let p = if n > 0 { ok as f64 / n as f64 } else { 0.0 };
                st.decided = Some(EvaluatedRule {
                    rule: st.scored.rule.clone(),
                    coverage: st.scored.coverage.clone(),
                    est_precision: p,
                    margin: 0.0,
                    n_labeled: n,
                    kept: p >= cfg.p_min && n > 0,
                });
            }
        };
        if !undecided_any {
            break;
        }
        if rounds > 500 {
            finalize(&mut states, &labels);
            break;
        }
        if let Some(cap) = cfg.budget_cents_cap {
            if platform.ledger().total_cents >= cap {
                finalize(&mut states, &labels);
                break;
            }
        }
        // Sample from the union of undecided coverages, unlabeled only.
        // The shuffle below makes its order part of the result: ascending.
        let mut in_union = vec![false; cand.len()];
        for st in states.iter().filter(|s| s.decided.is_none()) {
            for &i in &st.scored.coverage {
                in_union[i] = labels[i].is_none();
            }
        }
        let mut union: Vec<usize> = (0..cand.len()).filter(|&i| in_union[i]).collect();
        if union.is_empty() {
            // Exhausted: finalize the stragglers from exact coverage stats.
            finalize(&mut states, &labels);
            break;
        }
        union.shuffle(rng);
        union.truncate(cfg.batch);
        for (i, label) in crowd_label(platform, oracle, cand, &union, cfg.scheme) {
            labels[i] = Some(label);
            prior_labels.insert(i, label);
        }
    }

    states
        .into_iter()
        .map(|s| s.decided.expect("all rules decided at loop exit"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{task_from_parts, MatchTask};
    use crowd::{CrowdConfig, GoldOracle, PairKey, WorkerPool};
    use exec::Threads;
    use forest::tree::Node;
    use forest::{DecisionTree, Op, RandomForest};
    use rand::SeedableRng;
    use similarity::{Attribute, Schema, Table, Value};
    use std::sync::Arc;

    /// Task with one text feature set; gold = identical names.
    fn toy() -> (MatchTask, GoldOracle, CandidateSet) {
        let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
        let a_rows: Vec<Vec<Value>> = (0..12)
            .map(|i| vec![Value::Text(format!("alpha item number {i}"))])
            .collect();
        let b_rows: Vec<Vec<Value>> = (0..12)
            .map(|i| vec![Value::Text(format!("alpha item number {i}"))])
            .collect();
        let a = Table::new("a", schema.clone(), a_rows);
        let b = Table::new("b", schema, b_rows);
        let task = task_from_parts(a, b, "same?", [(0, 0), (1, 1)], [(0, 5), (2, 7)]);
        let gold = GoldOracle::from_pairs((0..12).map(|i| (i, i)));
        let cand = CandidateSet::full_cartesian(&task);
        (task, gold, cand)
    }

    /// The scan that leaf routing replaces: indices of `cand` (optionally
    /// only those in `within`, in that order) the rule matches.
    fn coverage_of(rule: &Rule, cand: &CandidateSet, within: Option<&[usize]>) -> Vec<usize> {
        let all: Vec<usize> = (0..cand.len()).collect();
        within
            .unwrap_or(&all)
            .iter()
            .copied()
            .filter(|&i| rule.matches(cand.row(i)))
            .collect()
    }

    /// A tree splitting on the exact-match feature at 0.5 (NaN left): the
    /// left leaf (`exact <= 0.5`) says NO, the right leaf says `right`.
    fn exact_tree(task: &MatchTask, right: bool) -> DecisionTree {
        let f = task
            .feature_names()
            .iter()
            .position(|n| n == "name_exact")
            .unwrap();
        DecisionTree::from_nodes(vec![
            Node::Split { feature: f as u32, threshold: 0.5, nan_left: true, left: 1, right: 2 },
            Node::Leaf { label: false, n_pos: 0, n_neg: 0 },
            Node::Leaf { label: right, n_pos: 0, n_neg: 0 },
        ])
    }

    /// A single-leaf tree: its one rule covers everything.
    fn stump(label: bool) -> DecisionTree {
        DecisionTree::from_nodes(vec![Node::Leaf { label, n_pos: 0, n_neg: 0 }])
    }

    fn route(trees: Vec<DecisionTree>, cand: &CandidateSet) -> RuleCoverage {
        let forest = RandomForest::from_trees(trees);
        RuleCoverage::route(&forest, cand.matrix(), cand.n_features(), None, Threads::new(2))
    }

    fn no_labels(cand: &CandidateSet) -> Vec<Option<bool>> {
        vec![None; cand.len()]
    }

    fn evaluate(
        scored: Vec<ScoredRule>,
        cand: &CandidateSet,
        gold: &GoldOracle,
        seed: u64,
        labels: &mut HashMap<usize, bool>,
    ) -> Vec<EvaluatedRule> {
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        evaluate_rules_jointly(
            scored,
            cand,
            &mut platform,
            gold,
            &RuleEvalConfig::default(),
            &mut rng,
            labels,
        )
    }

    #[test]
    fn coverage_of_counts_correctly() {
        let (task, _, cand) = toy();
        let cov = route(vec![exact_tree(&task, true)], &cand);
        let neg = &cov.rules()[0];
        assert!(!neg.label);
        let all = coverage_of(neg, &cand, None);
        assert_eq!(all.len(), 144 - 12, "all off-diagonal pairs");
        assert_eq!(cov.covered(0), all.as_slice(), "leaf routing equals the scan");
        let within: Vec<usize> = (0..24).rev().collect();
        let part = coverage_of(neg, &cand, Some(&within));
        assert!(part.len() < all.len());
        assert!(part.iter().all(|i| within.contains(i)));
        let forest = RandomForest::from_trees(vec![exact_tree(&task, true)]);
        let (m, nf) = (cand.matrix(), cand.n_features());
        let routed = RuleCoverage::route(&forest, m, nf, Some(&within), Threads::new(1));
        assert_eq!(routed.covered(0), part.as_slice(), "routed rows keep `within` order");
    }

    #[test]
    fn select_top_rules_ranks_by_upper_bound() {
        let (task, _, cand) = toy();
        // Tree 0's rule covers everything incl. positives; tree 1's NO
        // leaf covers only true negatives.
        let cov = route(vec![stump(false), exact_tree(&task, true)], &cand);
        // Crowd has labeled two diagonal pairs positive.
        let mut known = no_labels(&cand);
        known[cand.index_of(PairKey::new(0, 0)).unwrap()] = Some(true);
        known[cand.index_of(PairKey::new(1, 1)).unwrap()] = Some(true);
        let top = select_top_rules(&cov, false, &known, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].rule.tree, 1, "clean rule must rank first");
        assert_eq!(top[0].ub_precision, 1.0);
        assert!(top[1].ub_precision < 1.0);
    }

    #[test]
    fn duplicate_rules_are_collapsed() {
        let (task, _, cand) = toy();
        let cov = route((0..3).map(|_| exact_tree(&task, true)).collect(), &cand);
        let top = select_top_rules(&cov, false, &no_labels(&cand), 10);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].rule.tree, 0, "the first of the duplicates is kept");
    }

    #[test]
    fn evaluation_keeps_precise_rule_and_drops_imprecise() {
        let (task, gold, cand) = toy();
        // Both leaves say NO. The right one fires exactly on the matching
        // (diagonal) pairs, so its precision is 0 — it must be dropped
        // decisively.
        let cov = route(vec![exact_tree(&task, false)], &cand);
        let scored = select_top_rules(&cov, false, &no_labels(&cand), 2);
        assert_eq!(scored.len(), 2);
        let mut labels = HashMap::new();
        let out = evaluate(scored, &cand, &gold, 3, &mut labels);
        let is_good = |e: &&EvaluatedRule| e.rule.predicates[0].op == Op::Le;
        let good_eval = out.iter().find(is_good).unwrap();
        assert!(good_eval.kept, "precise rule must be kept");
        assert!(good_eval.est_precision >= 0.95);
        let bad_eval = out.iter().find(|e| !is_good(e)).unwrap();
        assert!(!bad_eval.kept, "imprecise rule must be dropped");
        assert!(!labels.is_empty(), "labels pool returned for reuse");
    }

    #[test]
    fn positive_rules_judged_against_positive_labels() {
        let (task, gold, cand) = toy();
        // exact > 0.5 → MATCH, covers the diagonal.
        let cov = route(vec![exact_tree(&task, true)], &cand);
        let scored = select_top_rules(&cov, true, &no_labels(&cand), 1);
        assert_eq!(scored[0].coverage.len(), 12);
        let out = evaluate(scored, &cand, &gold, 4, &mut HashMap::new());
        assert!(out[0].kept);
        assert_eq!(out[0].est_precision, 1.0);
    }

    #[test]
    fn evaluation_is_frugal_with_labels() {
        let (task, gold, cand) = toy();
        let cov = route(vec![exact_tree(&task, true)], &cand);
        let scored = select_top_rules(&cov, false, &no_labels(&cand), 1);
        let out = evaluate(scored, &cand, &gold, 5, &mut HashMap::new());
        // Coverage is 132; deciding at P=1 needs far fewer labels.
        assert!(out[0].n_labeled < 132, "labeled {}", out[0].n_labeled);
        assert!(out[0].kept);
    }

    #[test]
    fn dense_labels_places_each_label_at_its_index() {
        let labels: HashMap<usize, bool> = [(0, true), (3, false)].into_iter().collect();
        assert_eq!(dense_labels(&labels, 4), vec![Some(true), None, None, Some(false)]);
    }
}
