//! One service round, all through the public `service` API:
//!
//! 1. serve every tenant uninterrupted on a fresh registry (the makespan
//!    and the tick latencies);
//! 2. serve them again on a second fresh registry and drop the service
//!    once every tenant has written snapshot 0 (the kill);
//! 3. reopen that registry, resubmit every tenant and run to completion
//!    (the resume).

use crate::inputs::{InputSpec, TENANTS};
use crate::solo::check_report;
use corleone::RunSnapshot;
use crowd::PairKey;
use service::{MatchService, ServiceConfig, ServiceEvent, TenantSpec};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;
use store::{Registry, Snapshotter};

/// Pass 1 runs this many times in a traced round, for more makespan and
/// tick samples than one pass gives. A timed round, which reports neither,
/// runs it once.
pub const UNINTERRUPTED_PASSES: usize = 3;

/// What one service round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Pass 1: first submit → every tenant finished, once per repeat.
    pub makespan_s: Vec<f64>,
    /// Pass 1: wall time of every `tick`, in milliseconds.
    pub tick_ms: Vec<f64>,
    /// Pass 1 ticks that started a tenant (analysis, blocker, snapshot 0).
    pub start_tick_ms: Vec<f64>,
    /// Pass 1 ticks that ran a pipeline iteration.
    pub iter_tick_ms: Vec<f64>,
    /// Pass 1: analysis-registry hits ÷ lookups.
    pub analysis_hit_ratio: f64,
    /// Pass 3: reopen → every tenant resubmitted, resumed and finished.
    pub resume_s: f64,
    /// Pass 3: wall time of every resubmission (includes the snapshot
    /// read), in milliseconds.
    pub submit_ms: Vec<f64>,
    /// Pass 3: tenants the service reports as resumed.
    pub tenants_resumed: u64,
    /// Snapshot I/O measured between the kill and the restart, when asked.
    pub store: Option<StoreProbe>,
    /// Tenant runs attempted (every pass-1 run and pass 3).
    pub attempted: u64,
    /// Failed runs and failed output checks, one line each.
    pub failures: Vec<String>,
}

/// Snapshot I/O on each tenant's newest snapshot after the kill.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreProbe {
    /// Mean snapshot size, in bytes.
    pub snapshot_bytes: f64,
    /// Mean `Snapshotter::write` time, in milliseconds.
    pub write_ms: f64,
    /// Mean `store::read_snapshot_checked` time, in milliseconds.
    pub read_ms: f64,
    /// Bytes read ÷ read time, in MB/s.
    pub read_mb_per_s: f64,
}

fn run_id(j: usize) -> String {
    format!("tenant-{j}")
}

fn tenant_spec(spec: &InputSpec, j: usize) -> (TenantSpec, HashSet<PairKey>) {
    let input = spec.build();
    let gold = input.gold.matches().clone();
    let tenant = TenantSpec {
        run_id: run_id(j),
        task: input.task,
        platform: input.platform,
        oracle: Box::new(input.gold),
        gold: Some(gold.clone()),
        config: bench::experiment_config(),
        seed: spec.run_seed,
    };
    (tenant, gold)
}

/// Open a durable service (`checkpoint_every 1`) with its registry at
/// `root`. Every tenant is active at once, so the kill after snapshot 0
/// lands before any tenant has iterated.
pub fn open(root: &Path, threads: usize) -> Result<MatchService, String> {
    let cfg = ServiceConfig {
        threads,
        max_active: TENANTS as usize,
        checkpoint_root: Some(root.to_path_buf()),
        checkpoint_every: 1,
        ..Default::default()
    };
    MatchService::new(cfg).map_err(|e| format!("open service at {}: {e}", root.display()))
}

/// Run one round over `tenants`. `reference[j]` is tenant `j`'s solo
/// `deterministic_json`; a service report must match it byte for byte
/// (the service's determinism contract), and every resumed report must
/// match the uninterrupted one. `work` is an empty scratch directory. A
/// traced round repeats pass 1 [`UNINTERRUPTED_PASSES`] times and probes
/// the store; a timed one runs pass 1 once.
pub fn round(
    tenants: &[InputSpec],
    reference: &[String],
    threads: usize,
    work: &Path,
    traced: bool,
) -> Round {
    let mut out = Round::default();
    let passes = if traced { UNINTERRUPTED_PASSES } else { 1 };
    if let Err(e) = round_inner(tenants, reference, threads, work, passes, traced, &mut out) {
        // Every tenant run the round did not get to counts as attempted.
        let planned = (tenants.len() * (passes + 1)) as u64;
        out.attempted = out.attempted.max(planned);
        out.failures.push(e);
    }
    out
}

fn round_inner(
    tenants: &[InputSpec],
    reference: &[String],
    threads: usize,
    work: &Path,
    passes: usize,
    probe_store: bool,
    out: &mut Round,
) -> Result<(), String> {
    // ---- Pass 1: uninterrupted.
    for pass in 0..passes {
        let (specs, golds) = tenant_specs(tenants);
        let mut svc = open(&work.join(format!("uninterrupted-{pass}")), threads)?;
        let t = Instant::now();
        for spec in specs {
            svc.submit(spec).map_err(|e| format!("submit: {e}"))?;
        }
        serve_to_completion(&mut svc, out);
        out.makespan_s.push(t.elapsed().as_secs_f64());
        let perf = svc.service_perf();
        let lookups = perf.analysis_cache_hits + perf.analysis_cache_misses;
        out.analysis_hit_ratio = perf.analysis_cache_hits as f64 / lookups.max(1) as f64;
        check_reports(&mut svc, &golds, reference, "uninterrupted", out);
    }

    // ---- Pass 2: serve on a fresh registry, kill after every snapshot 0.
    let root = work.join("restart");
    let (specs, _) = tenant_specs(tenants);
    let fingerprints: Vec<String> = specs
        .iter()
        .map(|s| {
            let engine = corleone::Engine::new(s.config).with_seed(s.seed);
            engine.run_fingerprint(&s.task).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut svc = open(&root, threads)?;
    for spec in specs {
        svc.submit(spec).map_err(|e| format!("submit: {e}"))?;
    }
    let mut checkpointed = 0;
    while checkpointed < tenants.len() {
        if !svc.tick() {
            return Err("service went idle before every tenant wrote snapshot 0".into());
        }
        for e in svc.poll_events() {
            match e {
                ServiceEvent::Checkpointed { iteration: 0, .. } => checkpointed += 1,
                ServiceEvent::Failed { run_id, message } => {
                    return Err(format!("{run_id} (before the kill): {message}"))
                }
                _ => {}
            }
        }
    }
    drop(svc);

    if probe_store {
        out.store = Some(probe(&root, &fingerprints, &work.join("probe"))?);
    }

    // ---- Pass 3: reopen, resubmit, finish.
    let (specs, golds) = tenant_specs(tenants);
    let t = Instant::now();
    let mut svc = open(&root, threads)?;
    for spec in specs {
        let t_submit = Instant::now();
        svc.submit(spec).map_err(|e| format!("resubmit: {e}"))?;
        out.submit_ms
            .push(t_submit.elapsed().as_secs_f64() * 1000.0);
    }
    svc.run_all();
    out.resume_s = t.elapsed().as_secs_f64();
    for e in svc.poll_events() {
        if let ServiceEvent::Failed { run_id, message } = e {
            out.failures.push(format!("{run_id} (resumed): {message}"));
        }
    }
    out.tenants_resumed = svc.service_perf().tenants_resumed;
    if out.tenants_resumed != tenants.len() as u64 {
        out.failures.push(format!(
            "{} of {} tenants resumed",
            out.tenants_resumed,
            tenants.len()
        ));
    }
    // The uninterrupted reports equal the solo ones, so comparing the
    // resumed reports with the solo ones compares them with those too.
    check_reports(&mut svc, &golds, reference, "resumed", out);
    Ok(())
}

/// Fresh tenant submissions for `tenants`, with each tenant's gold set.
fn tenant_specs(tenants: &[InputSpec]) -> (Vec<TenantSpec>, Vec<HashSet<PairKey>>) {
    tenants
        .iter()
        .enumerate()
        .map(|(j, s)| tenant_spec(s, j))
        .unzip()
}

/// Take every tenant's report from a finished service, check it against
/// gold, and compare it byte for byte with the tenant's solo report.
fn check_reports(
    svc: &mut MatchService,
    golds: &[HashSet<PairKey>],
    reference: &[String],
    pass: &str,
    out: &mut Round,
) {
    for (j, gold) in golds.iter().enumerate() {
        out.attempted += 1;
        let checked = svc
            .take_report(&run_id(j))
            .map_err(|e| e.to_string())
            .and_then(|report| {
                check_report(&report, gold)?;
                if report.deterministic_json() == reference[j] {
                    Ok(())
                } else {
                    Err("report differs from the tenant's solo run".into())
                }
            });
        if let Err(e) = checked {
            out.failures.push(format!("{} ({pass}): {e}", run_id(j)));
        }
    }
}

/// Tick `svc` until idle, recording each tick's wall time by kind and
/// every tenant failure.
fn serve_to_completion(svc: &mut MatchService, out: &mut Round) {
    loop {
        let t = Instant::now();
        let busy = svc.tick();
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        if !busy {
            return;
        }
        out.tick_ms.push(ms);
        let events = svc.poll_events();
        let iterated = events.iter().any(|e| {
            matches!(
                e,
                ServiceEvent::IterationCompleted { .. } | ServiceEvent::Terminated { .. }
            )
        });
        if iterated {
            out.iter_tick_ms.push(ms);
        } else {
            out.start_tick_ms.push(ms);
        }
        for e in events {
            if let ServiceEvent::Failed { run_id, message } = e {
                out.failures.push(format!("{run_id}: {message}"));
            }
        }
    }
}

/// Time `Snapshotter::write` and `store::read_snapshot_checked` on each
/// tenant's newest snapshot in the registry at `root`.
fn probe(root: &Path, fingerprints: &[String], scratch: &Path) -> Result<StoreProbe, String> {
    let registry = Registry::open(root.to_path_buf()).map_err(|e| e.to_string())?;
    let (mut bytes, mut read_s, mut write_s) = (0.0, 0.0, 0.0);
    for (j, fp) in fingerprints.iter().enumerate() {
        let path: PathBuf = registry
            .latest_snapshot(&run_id(j))
            .map_err(|e| e.to_string())?;
        bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;
        let t = Instant::now();
        let snap: RunSnapshot =
            store::read_snapshot_checked(&path, Some(fp)).map_err(|e| e.to_string())?;
        read_s += t.elapsed().as_secs_f64();
        let sn = Snapshotter::create(scratch.join(run_id(j)))
            .map_err(|e| e.to_string())?
            .with_fingerprint(fp.clone());
        let t = Instant::now();
        sn.write(0, &snap).map_err(|e| e.to_string())?;
        write_s += t.elapsed().as_secs_f64();
    }
    let n = fingerprints.len() as f64;
    Ok(StoreProbe {
        snapshot_bytes: bytes / n,
        write_ms: write_s * 1000.0 / n,
        read_ms: read_s * 1000.0 / n,
        read_mb_per_s: bytes / 1e6 / read_s,
    })
}
