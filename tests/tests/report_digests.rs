//! Golden report digests: the `store::fingerprint64` of each run's
//! `deterministic_json`, compared against committed values.
//!
//! A performance change must leave every report body byte-identical, so
//! these digests must not move. A change that is *meant* to alter results
//! (new behaviour, a fixed bug) regenerates them: run
//!
//! ```text
//! cargo test -q -p integration --test report_digests
//! ```
//!
//! copy the `got` value from each failure message into its test, and say in
//! `CHANGES.md` why the reports changed.
//!
//! Each case is built exactly like the `smoke` bin builds its run
//! (`bench::{dataset, make_task, make_faulty_platform, experiment_config}`),
//! so a digest here matches `smoke --emit-json` for the same flags.

use bench::{dataset, experiment_config, make_faulty_platform, make_task, ExpOptions};
use corleone::Engine;

/// Run `name` at scale 0.05 and compare its report digest to `digest`.
/// `threads: None` keeps the session default (all cores).
fn check(name: &str, seed: u64, error_rate: f64, threads: Option<usize>, digest: &str) {
    let opts = ExpOptions {
        scale: 0.05,
        seed,
        error_rate,
        ..Default::default()
    };
    let ds = dataset(name, &opts, 0);
    let (task, gold) = make_task(&ds);
    let mut platform = make_faulty_platform(&ds, error_rate, seed, opts.fault_config());
    let engine = Engine::new(experiment_config()).with_seed(seed);
    let mut session = engine
        .session(&task)
        .platform(&mut platform)
        .oracle(&gold)
        .gold(gold.matches());
    if let Some(n) = threads {
        session = session.threads(n);
    }
    let got = store::fingerprint64(session.run().deterministic_json().as_bytes());
    assert_eq!(
        got, digest,
        "report digest of {name} (seed {seed}, error {error_rate}, threads {threads:?}) changed: \
         got {got}, committed {digest}. If the report is meant to change, paste the new \
         value into tests/tests/report_digests.rs and justify it in CHANGES.md; a pure \
         performance change must never move it."
    );
}

#[test]
fn smoke_restaurants() {
    check("restaurants", 42, 0.05, None, "a12279d146e59565");
}

#[test]
fn smoke_citations() {
    check("citations", 42, 0.05, None, "1946bb5bd385ea1b");
}

#[test]
fn smoke_products() {
    check("products", 42, 0.05, None, "d27b52c8ab97ba39");
}

/// Three iterations; the last one rolls back (paper §3).
#[test]
fn restaurants_seed9_rollback() {
    check("restaurants", 9, 0.15, None, "95e4fabdc4ea358c");
}

/// The blocking path at one thread; must equal the all-core digest.
#[test]
fn citations_one_thread() {
    check("citations", 42, 0.05, Some(1), "1946bb5bd385ea1b");
}

/// The blocking path at eight threads; must equal the all-core digest.
#[test]
fn citations_eight_threads() {
    check("citations", 42, 0.05, Some(8), "1946bb5bd385ea1b");
}
