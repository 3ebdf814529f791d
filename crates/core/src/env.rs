//! Shared execution resources for one engine run.
//!
//! A [`RunEnv`] carries what every phase of the pipeline needs but no
//! phase should own: the parallelism budget. The engine builds one per
//! run from the session's thread setting and threads it through the
//! Blocker, Matcher, Accuracy Estimator, and Difficult Pairs' Locator.
//! Engine runs never attach a [`FeatureCache`]: the candidate set's
//! matrix already holds every vector a later phase reads, so the `cache`
//! field is only for phase replays outside the engine that want lookup
//! counters.

use crate::cache::FeatureCache;
use crate::task::MatchTask;
use crowd::PairKey;
pub use exec::Threads;

/// Per-run execution context: the thread budget, plus an optional
/// feature cache that engine runs leave at `None`.
#[derive(Debug, Clone, Copy)]
pub struct RunEnv<'c> {
    /// Parallelism budget for every hot loop in this run.
    pub threads: Threads,
    /// A read-through feature cache; `None` in every engine run.
    pub cache: Option<&'c FeatureCache>,
}

impl RunEnv<'_> {
    /// Vectorize one pair, through the cache when one is attached.
    pub fn vectorize(&self, task: &MatchTask, key: PairKey) -> Vec<f64> {
        match self.cache {
            Some(c) => c.get_or_compute(key, || task.vectorize(key)).as_ref().clone(),
            None => task.vectorize(key),
        }
    }
}

impl Default for RunEnv<'_> {
    fn default() -> Self {
        RunEnv { threads: Threads::auto(), cache: None }
    }
}
