//! Property-based tests for the forest substrate. The load-bearing
//! invariant for Corleone is rule/tree agreement: the extracted rules of a
//! tree partition the feature space, and the one rule matching a vector
//! carries exactly the tree's prediction. Blocking correctness (§4) depends
//! on this, and so does computing rule coverage by leaf routing
//! ([`RuleCoverage`]) instead of scanning with [`forest::Rule::matches`].

use exec::Threads;
use forest::tree::Node;
use forest::{
    extract_rules, rules::extract_tree_rules, Dataset, ForestConfig, RandomForest, RuleCoverage,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Row-major copy of a dataset's feature rows.
fn matrix_of(ds: &Dataset) -> Vec<f64> {
    (0..ds.len()).flat_map(|i| ds.row(i).to_vec()).collect()
}

/// Check leaf-routed coverage against the `Rule::matches` scan for every
/// rule of `f`, over all rows and over a shuffled subset of them.
fn assert_routing_matches_scan(f: &RandomForest, ds: &Dataset, seed: u64, threads: usize) {
    let matrix = matrix_of(ds);
    let nf = ds.n_features();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut within: Vec<usize> = (0..ds.len()).filter(|_| rng.gen_bool(0.6)).collect();
    within.shuffle(&mut rng);
    let all: Vec<usize> = (0..ds.len()).collect();
    for subset in [None, Some(within.as_slice())] {
        let cov = RuleCoverage::route(f, &matrix, nf, subset, Threads::new(threads));
        assert_eq!(cov.rules(), extract_rules(f).as_slice());
        for (r, rule) in cov.rules().iter().enumerate() {
            let scan: Vec<usize> = subset
                .unwrap_or(&all)
                .iter()
                .copied()
                .filter(|&i| rule.matches(ds.row(i)))
                .collect();
            assert_eq!(cov.covered(r), scan.as_slice(), "rule {r} ({rule})");
        }
    }
}

/// Random labeled dataset: values in [0,1] with ~10% NaN, arbitrary labels.
fn dataset(max_rows: usize, n_features: usize) -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        (
            prop::collection::vec(
                prop_oneof![9 => 0.0f64..1.0, 1 => Just(f64::NAN)],
                n_features,
            ),
            any::<bool>(),
        ),
        2..max_rows,
    )
    .prop_filter("need both classes", |rows| {
        rows.iter().any(|(_, l)| *l) && rows.iter().any(|(_, l)| !*l)
    })
    .prop_map(|rows| {
        let (xs, ls): (Vec<Vec<f64>>, Vec<bool>) = rows.into_iter().unzip();
        Dataset::from_rows(&xs, &ls)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rules_agree_with_trees(ds in dataset(40, 4), seed in 0u64..1000) {
        let cfg = ForestConfig { n_trees: 3, ..ForestConfig::default() };
        let f = RandomForest::train_all(&ds, &cfg, &mut StdRng::seed_from_u64(seed));
        for (ti, tree) in f.trees().iter().enumerate() {
            let rules = extract_tree_rules(tree, ti);
            for i in 0..ds.len() {
                let x = ds.row(i);
                let matched: Vec<_> = rules.iter().filter(|r| r.matches(x)).collect();
                prop_assert_eq!(matched.len(), 1,
                    "rules of a tree must partition the space");
                prop_assert_eq!(matched[0].label, tree.predict(x));
            }
        }
    }

    #[test]
    fn rules_partition_on_unseen_vectors(ds in dataset(30, 3),
                                         probe in prop::collection::vec(
                                             prop_oneof![9 => 0.0f64..1.0, 1 => Just(f64::NAN)], 3),
                                         seed in 0u64..1000) {
        let cfg = ForestConfig { n_trees: 2, ..ForestConfig::default() };
        let f = RandomForest::train_all(&ds, &cfg, &mut StdRng::seed_from_u64(seed));
        for (ti, tree) in f.trees().iter().enumerate() {
            let rules = extract_tree_rules(tree, ti);
            let matched: Vec<_> = rules.iter().filter(|r| r.matches(&probe)).collect();
            prop_assert_eq!(matched.len(), 1);
            prop_assert_eq!(matched[0].label, tree.predict(&probe));
        }
    }

    #[test]
    fn entropy_confidence_duality(ds in dataset(30, 3), seed in 0u64..1000) {
        let f = RandomForest::train_all(&ds, &ForestConfig::default(),
                                        &mut StdRng::seed_from_u64(seed));
        for i in 0..ds.len() {
            let x = ds.row(i);
            let h = f.entropy(x);
            prop_assert!((0.0..=std::f64::consts::LN_2 + 1e-12).contains(&h));
            prop_assert!((f.confidence(x) - (1.0 - h)).abs() < 1e-12);
            let p = f.positive_fraction(x);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert_eq!(f.predict(x), p >= 0.5);
        }
    }

    #[test]
    fn leaf_routed_coverage_equals_rule_scan(ds in dataset(60, 4), seed in 0u64..1000) {
        let cfg = ForestConfig { n_trees: 4, ..ForestConfig::default() };
        let f = RandomForest::train_all(&ds, &cfg, &mut StdRng::seed_from_u64(seed));
        assert_routing_matches_scan(&f, &ds, seed, 2);
        // Repeated trees give rules with identical signatures in different
        // trees; each copy must still cover exactly what it matches.
        let t = f.trees();
        let dup = RandomForest::from_trees(vec![t[0].clone(), t[1].clone(), t[0].clone()]);
        assert_routing_matches_scan(&dup, &ds, seed + 1, 3);
    }

    #[test]
    fn predict_is_the_label_of_the_routed_leaf(ds in dataset(40, 3), seed in 0u64..1000) {
        let cfg = ForestConfig { n_trees: 3, ..ForestConfig::default() };
        let f = RandomForest::train_all(&ds, &cfg, &mut StdRng::seed_from_u64(seed));
        for tree in f.trees() {
            for i in 0..ds.len() {
                let x = ds.row(i);
                let leaf = &tree.nodes()[tree.leaf_of(x)];
                let label = match leaf {
                    Node::Leaf { label, .. } => *label,
                    Node::Split { .. } => panic!("leaf_of returned a split node"),
                };
                prop_assert_eq!(tree.predict(x), label);
            }
        }
    }

    #[test]
    fn leaf_counts_sum_to_bag_size(ds in dataset(40, 3), seed in 0u64..1000) {
        let cfg = ForestConfig { n_trees: 2, bagging_fraction: 1.0, ..Default::default() };
        let f = RandomForest::train_all(&ds, &cfg, &mut StdRng::seed_from_u64(seed));
        for rules in f.trees().iter().enumerate()
            .map(|(ti, t)| extract_tree_rules(t, ti)) {
            let total: u32 = rules.iter().map(|r| r.n_pos + r.n_neg).sum();
            prop_assert_eq!(total as usize, ds.len(),
                "with full bagging every training row lands in exactly one leaf");
        }
    }

    #[test]
    fn forest_fits_training_data_reasonably(seed in 0u64..200) {
        // On cleanly separable data the forest must be near-perfect.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..100 {
            let v = i as f64 / 100.0;
            rows.push(vec![v]);
            labels.push(v >= 0.5);
        }
        let ds = Dataset::from_rows(&rows, &labels);
        let f = RandomForest::train_all(&ds, &ForestConfig::default(),
                                        &mut StdRng::seed_from_u64(seed));
        let acc = (0..ds.len())
            .filter(|&i| f.predict(ds.row(i)) == ds.label(i))
            .count() as f64 / ds.len() as f64;
        prop_assert!(acc >= 0.95, "accuracy {acc}");
        prop_assert!(!extract_rules(&f).is_empty());
    }
}

/// Enough rows for several parallel routing blocks, at 1 and 4 threads.
#[test]
fn leaf_routed_coverage_is_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(17);
    let rows: Vec<Vec<f64>> = (0..5000)
        .map(|_| {
            (0..5)
                .map(|_| if rng.gen_bool(0.1) { f64::NAN } else { rng.gen_range(0.0..1.0) })
                .collect()
        })
        .collect();
    let labels: Vec<bool> = rows.iter().map(|r| r[0] > 0.6 || r[1].is_nan()).collect();
    let ds = Dataset::from_rows(&rows, &labels);
    let f = RandomForest::train_all(&ds, &ForestConfig::default(), &mut StdRng::seed_from_u64(3));
    assert_routing_matches_scan(&f, &ds, 5, 1);
    assert_routing_matches_scan(&f, &ds, 5, 4);
}

#[test]
fn forest_serde_roundtrip_preserves_predictions() {
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..60 {
        let v = i as f64 / 60.0;
        rows.push(vec![v, (i % 7) as f64 / 7.0, if i % 11 == 0 { f64::NAN } else { 1.0 - v }]);
        labels.push(v > 0.5);
    }
    let ds = Dataset::from_rows(&rows, &labels);
    let f = RandomForest::train_all(&ds, &ForestConfig::default(), &mut StdRng::seed_from_u64(5));
    let json = serde_json::to_string(&f).expect("forest serializes");
    let back: RandomForest = serde_json::from_str(&json).expect("forest deserializes");
    for i in 0..ds.len() {
        assert_eq!(back.predict(ds.row(i)), f.predict(ds.row(i)));
        assert_eq!(back.positive_fraction(ds.row(i)), f.positive_fraction(ds.row(i)));
    }
    // Extracted rules survive the roundtrip too.
    assert_eq!(extract_rules(&back).len(), extract_rules(&f).len());
}
