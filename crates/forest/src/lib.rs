#![forbid(unsafe_code)]
//! # forest — decision trees, random forests, and rule extraction
//!
//! A from-scratch implementation of the learning substrate Corleone builds
//! on (paper §5.1): an ensemble-of-decision-trees classifier configured like
//! Weka's `RandomForest` defaults the paper uses — `k = 10` trees, each
//! trained on a random 60% portion of the training data, with
//! `m = log2(n) + 1` random candidate features per node.
//!
//! Beyond train/predict, the crate exposes the two capabilities Corleone's
//! crowd modules need and off-the-shelf ML crates do not provide:
//!
//! * **Ensemble disagreement** ([`RandomForest::entropy`],
//!   [`RandomForest::confidence`]): the entropy of the trees' votes (paper
//!   Eq. 1) drives active-learning example selection and the stopping rules.
//! * **Rule extraction** ([`rules`]): every root→leaf path of every tree is
//!   a conjunctive rule; paths to "no" leaves are *negative rules* usable as
//!   blocking/reduction rules, paths to "yes" leaves are *positive rules*
//!   (paper §4.1 step 4, Fig. 2).
//! * **Rule coverage by leaf routing** ([`RuleCoverage`]): the rows each
//!   rule covers, for every rule of a forest, from one pass that routes
//!   each row through every tree.
//!
//! Feature vectors are `f64` slices; `NaN` encodes a missing value and is
//! routed at each split to the branch that was better during training.
//!
//! ```
//! use forest::{Dataset, ForestConfig, RandomForest, negative_rules};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Toy task: positive iff feature 0 is high.
//! let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
//! let labels: Vec<bool> = (0..100).map(|i| i >= 50).collect();
//! let ds = Dataset::from_rows(&rows, &labels);
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let forest = RandomForest::train_all(&ds, &ForestConfig::default(), &mut rng);
//! assert!(forest.predict(&[0.9]));
//! assert!(!forest.predict(&[0.1]));
//!
//! // Every "no" leaf is a candidate blocking rule.
//! let blocking_candidates = negative_rules(&forest);
//! assert!(blocking_candidates.iter().all(|r| !r.label));
//! ```

pub mod coverage;
pub mod data;
pub mod forest;
pub mod linear;
pub mod rules;
pub mod split;
pub mod tree;

pub use crate::forest::{ForestConfig, RandomForest};
pub use coverage::RuleCoverage;
pub use data::Dataset;
pub use linear::{LogRegConfig, LogisticRegression};
pub use rules::{extract_rules, negative_rules, positive_rules, Op, Predicate, Rule};
pub use tree::DecisionTree;
