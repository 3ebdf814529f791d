//! One solo run through the path users take: `Engine::session(..).try_run()`.

use crate::inputs::InputSpec;
use corleone::RunReport;
use crowd::PairKey;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often the resident set is sampled during a run.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(2);

/// What one solo run measured and returned.
pub struct SoloRun {
    /// `try_run`, from call to report.
    pub run_s: f64,
    /// The run's `deterministic_json`.
    pub json: String,
    /// True F1 of the returned matches against gold.
    pub f1: f64,
    /// Crowd spend in dollars.
    pub cost_usd: f64,
    /// Distinct pairs the crowd labeled.
    pub labels: f64,
    /// Simulated crowd wall-clock, in hours.
    pub crowd_hours: f64,
    /// Highest resident set size sampled during `try_run`, in MiB.
    pub peak_rss_mb: f64,
    /// The report itself.
    pub report: RunReport,
}

/// F1 of `predicted` against `gold`, computed here rather than taken from
/// the report so the report's own `final_true` is checked.
pub fn f1_against(predicted: &[PairKey], gold: &HashSet<PairKey>) -> f64 {
    let tp = predicted.iter().filter(|k| gold.contains(k)).count() as f64;
    if tp == 0.0 {
        return 0.0;
    }
    let p = tp / predicted.len() as f64;
    let r = tp / gold.len() as f64;
    2.0 * p * r / (p + r)
}

/// Run `spec` once on `threads` worker threads. A typed engine error or a
/// report that disagrees with gold comes back as `Err`.
pub fn run(spec: &InputSpec, threads: usize) -> Result<SoloRun, String> {
    let mut input = spec.build();
    let engine = spec.engine();

    // A sampler thread watches the resident set while the run executes;
    // the process-wide high-water mark would only show the largest input.
    let running = AtomicBool::new(true);
    let (result, run_s, peak_kib) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0;
            while running.load(Ordering::Relaxed) {
                peak = peak.max(rss_kib().unwrap_or(0));
                std::thread::sleep(RSS_SAMPLE_EVERY);
            }
            peak.max(rss_kib().unwrap_or(0))
        });
        let t1 = Instant::now();
        let result = engine
            .session(&input.task)
            .platform(&mut input.platform)
            .oracle(&input.gold)
            .gold(input.gold.matches())
            .threads(threads)
            .try_run();
        let run_s = t1.elapsed().as_secs_f64();
        running.store(false, Ordering::Relaxed);
        (
            result,
            run_s,
            sampler.join().expect("the RSS sampler does not panic"),
        )
    });
    let report = result.map_err(|e| format!("{} seed {}: {e}", spec.dataset, spec.data_seed))?;
    if peak_kib == 0 {
        return Err("cannot read the resident set size from /proc/self/status".into());
    }

    let f1 = check_report(&report, input.gold.matches())?;
    let json = report.try_deterministic_json().map_err(|e| e.to_string())?;
    Ok(SoloRun {
        run_s,
        json,
        f1,
        cost_usd: report.total_cost_cents / 100.0,
        labels: report.total_pairs_labeled as f64,
        crowd_hours: input.platform.ledger().simulated_secs / 3600.0,
        peak_rss_mb: peak_kib as f64 / 1024.0,
        report,
    })
}

/// Current resident set size (`VmRSS`), in KiB.
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Check a report's outputs against gold and return its true F1.
pub fn check_report(report: &RunReport, gold: &HashSet<PairKey>) -> Result<f64, String> {
    let f1 = f1_against(&report.predicted_matches, gold);
    match report.final_true {
        Some(t) if (t.f1 - f1).abs() <= 1e-9 => Ok(f1),
        Some(t) => Err(format!(
            "report claims true F1 {} but gold gives {f1}",
            t.f1
        )),
        None => Err("report has no true F1 although gold was supplied".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Workload;

    /// The smallest workload input gives the same report bytes on one
    /// thread and on every core.
    #[test]
    fn one_thread_and_all_cores_give_identical_reports() {
        let spec = Workload::Restaurants.plan(7).tenants(0)[0];
        let cores = std::thread::available_parallelism()
            .map_or(2, |n| n.get())
            .max(2);
        let one = run(&spec, 1).expect("one-thread run");
        let all = run(&spec, cores).expect("all-core run");
        assert_eq!(one.json, all.json);
        assert!(one.f1 > 0.0);
    }
}
