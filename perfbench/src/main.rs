//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--commit <id>]` — run one workload and print its metrics. Build and
//! run it through `python3 perfbench/run.py`, which passes the commit.

use perfbench::catalog::{unit_of, END_TO_END, PER_LAYER};
use perfbench::inputs::{InputSpec, Plan, Workload, MAX_ROUNDS};
use perfbench::serve::{self, Round};
use perfbench::solo::{self, SoloRun};
use perfbench::stats::{interquartile_mean, median, tail};
use perfbench::trace::{self, Fidelity};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Everything the benchmark writes lives under this directory of the
/// working directory; the per-process work area is removed on exit.
const OUT_DIR: &str = ".perfbench";

/// `setup_s` is the median of this many full input generations.
const SETUP_REPEATS: usize = 9;

/// Service rounds in a timed run, at least: one round gives a single
/// `resume_s` sample.
const MIN_SERVICE_ROUNDS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--commit" => {
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let need = |f: &str| flags.get(f).copied().ok_or_else(|| format!("missing {f}"));
    let name = need("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let commit = flags.get("--commit").unwrap_or(&"unknown").to_string();
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        commit,
    })
}

/// Outcome bookkeeping shared by both modes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    context: BTreeMap<&'static str, String>,
}

impl Tally {
    fn solo(&mut self, spec_label: String, r: Result<SoloRun, String>) -> Option<SoloRun> {
        self.attempted += 1;
        match r {
            Ok(run) => Some(run),
            Err(e) => {
                self.failures.push(format!("{spec_label}: {e}"));
                None
            }
        }
    }

    fn service(&mut self, round: &Round) {
        self.attempted += round.attempted;
        self.failures.extend(round.failures.iter().cloned());
    }
}

/// Each tenant's solo report: the byte-for-byte reference its service
/// report must equal.
fn tenant_references(tenants: &[InputSpec], threads: usize, tally: &mut Tally) -> Vec<String> {
    tenants
        .iter()
        .map(|spec| {
            let label = format!("tenant reference {spec:?}");
            let r = solo::run(spec, threads);
            tally.solo(label, r).map(|r| r.json).unwrap_or_default()
        })
        .collect()
}

fn round_dir(work: &Path, r: usize) -> PathBuf {
    work.join(format!("round-{r}"))
}

/// Generate every input of the workload and open a service over an empty
/// registry, [`SETUP_REPEATS`] times; the median time is `setup_s`.
fn setup_s(plan: &Plan, threads: usize, work: &Path, tally: &mut Tally) -> f64 {
    let mut times = Vec::new();
    for i in 0..SETUP_REPEATS {
        let root = work.join(format!("setup-{i}"));
        let t = Instant::now();
        let inputs: Vec<_> = plan
            .solo
            .iter()
            .chain(&plan.tenants(0))
            .map(|s| s.build())
            .collect();
        match serve::open(&root, threads) {
            Ok(_svc) => times.push(t.elapsed().as_secs_f64()),
            Err(e) => tally.failures.push(e),
        }
        drop(inputs);
        let _ = std::fs::remove_dir_all(&root);
    }
    median(&times)
}

/// `--trace 0`. Solo phase: every solo input once, then the first input
/// again, whose report must be byte-identical. Service phase: service
/// rounds, each on tenants of its own, until `seconds` are used, at least
/// [`MIN_SERVICE_ROUNDS`].
fn timed(args: &Args, plan: &Plan, threads: usize, work: &Path, tally: &mut Tally) {
    let start = Instant::now();
    let setup = setup_s(plan, threads, work, tally);

    let mut runs: Vec<Vec<SoloRun>> = plan.solo.iter().map(|_| Vec::new()).collect();
    let order = (0..plan.solo.len()).chain([0]);
    for i in order {
        let spec = &plan.solo[i];
        let label = format!("solo {} seed {}", spec.dataset, spec.data_seed);
        if let Some(run) = tally.solo(label.clone(), solo::run(spec, threads)) {
            if runs[i].first().is_some_and(|first| first.json != run.json) {
                tally
                    .failures
                    .push(format!("{label}: report differs between runs"));
            }
            runs[i].push(run);
        }
    }

    let mut rounds: Vec<Round> = Vec::new();
    let t_rounds = Instant::now();
    while rounds.len() < MAX_ROUNDS {
        let tenants = plan.tenants(rounds.len());
        let reference = tenant_references(&tenants, threads, tally);
        let dir = round_dir(work, rounds.len());
        let round = serve::round(&tenants, &reference, threads, &dir, false);
        let _ = std::fs::remove_dir_all(&dir);
        tally.service(&round);
        rounds.push(round);
        let per_round = t_rounds.elapsed().as_secs_f64() / rounds.len() as f64;
        if rounds.len() >= MIN_SERVICE_ROUNDS
            && start.elapsed().as_secs_f64() + per_round > args.seconds
        {
            break;
        }
    }

    let f1: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.first())
        .map(|r| r.f1)
        .collect();
    let run_s: Vec<f64> = runs
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| median(&r.iter().map(|x| x.run_s).collect::<Vec<_>>()))
        .collect();
    let m = &mut tally.metrics;
    m.insert("setup_s", setup);
    m.insert("run_s", interquartile_mean(&run_s));
    m.insert("f1", interquartile_mean(&f1));
    m.insert(
        "resume_s",
        median(&rounds.iter().map(|r| r.resume_s).collect::<Vec<_>>()),
    );

    let c = &mut tally.context;
    c.insert(
        "solo_runs",
        runs.iter().map(Vec::len).sum::<usize>().to_string(),
    );
    c.insert("service_rounds", rounds.len().to_string());
    let per_round: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.3}", r.resume_s))
        .collect();
    c.insert("resume_s_by_round", per_round.join(" "));
}

/// `--trace 1`: replay the first solo input layer by layer next to an
/// untraced run of it (repeated while time allows), then one service
/// round with the snapshot-I/O probe.
fn traced(args: &Args, plan: &Plan, threads: usize, work: &Path, tally: &mut Tally) {
    let start = Instant::now();
    let spec = &plan.solo[0];
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut spans = None;
    let t_loop = Instant::now();
    let mut loops = 0;
    loop {
        let label = format!("untraced {} seed {}", spec.dataset, spec.data_seed);
        let Some(untraced) = tally.solo(label, solo::run(spec, threads)) else {
            break;
        };
        tally.attempted += 1;
        let replay = trace::replay(spec, threads);
        if replay.fidelity.json() != Fidelity::of_report(&untraced.report).json() {
            tally
                .failures
                .push("traced replay's counters differ from the untraced report".into());
        }
        for (name, v) in replay.layers {
            layers.entry(name).or_default().push(v);
        }
        for (name, v) in [
            ("trace.overhead_ratio", replay.wall_s / untraced.run_s),
            ("crowd.cost_usd", untraced.cost_usd),
            ("crowd.labels", untraced.labels),
            ("crowd.hours", untraced.crowd_hours),
            ("memory.peak_rss_mb", untraced.peak_rss_mb),
        ] {
            layers.entry(name).or_default().push(v);
        }
        spans.get_or_insert(replay.tracer);
        loops += 1;
        let per_loop = t_loop.elapsed().as_secs_f64() / loops as f64;
        if start.elapsed().as_secs_f64() + per_loop > args.seconds / 2.0 {
            break;
        }
    }

    let tenants = plan.tenants(0);
    let reference = tenant_references(&tenants, threads, tally);
    let dir = round_dir(work, 0);
    let round = serve::round(&tenants, &reference, threads, &dir, true);
    tally.service(&round);
    let m = &mut tally.metrics;
    for (name, vs) in &layers {
        m.insert(name, median(vs));
    }
    if let Some(st) = round.store {
        m.insert("store.snapshot_bytes", st.snapshot_bytes);
        m.insert("store.write_ms", st.write_ms);
        m.insert("store.read_ms", st.read_ms);
        m.insert("store.read_mb_per_s", st.read_mb_per_s);
        let n = tenants.len() as f64;
        let c = &mut tally.context;
        c.insert("resume_s", format!("{:.4}", round.resume_s));
        c.insert(
            "store_read_share",
            format!("{:.3}", st.read_ms * n / 1000.0 / round.resume_s),
        );
        let submit_s: f64 = round.submit_ms.iter().sum::<f64>() / 1000.0;
        c.insert("submit_share", format!("{:.3}", submit_s / round.resume_s));
    }
    m.insert("service.makespan_s", median(&round.makespan_s));
    m.insert("service.submit_ms", median(&round.submit_ms));
    m.insert("service.tick_ms_p50", median(&round.tick_ms));
    let tick_tail = tail(&round.tick_ms);
    m.insert(
        "service.tick_ms_tail",
        tick_tail.map_or(f64::NAN, |t| t.value),
    );
    if let Some(t) = tick_tail {
        let detail = format!(
            "p{} ({} of {} ticks beyond)",
            t.percentile, t.beyond, t.samples
        );
        tally.context.insert("tick_ms_tail", detail);
    }
    m.insert("service.start_tick_ms", median(&round.start_tick_ms));
    m.insert("service.iter_tick_ms", median(&round.iter_tick_ms));
    m.insert("service.analysis_hit_ratio", round.analysis_hit_ratio);
    m.insert("service.tenants_resumed", round.tenants_resumed as f64);
    if let Some(cov) = m.get("trace.coverage") {
        if *cov < 0.95 {
            tally
                .failures
                .push(format!("trace.coverage {cov:.3} is below 0.95"));
        }
    }
    tally.context.insert("traced_loops", loops.to_string());
    if let Some(tr) = spans {
        let path = Path::new(OUT_DIR).join("traces").join(format!(
            "{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let written =
            std::fs::create_dir_all(path.parent().expect("has a parent")).and_then(|()| {
                std::fs::write(
                    &path,
                    serde_json::to_string(tr.spans()).expect("spans serialize"),
                )
            });
        match written {
            Ok(()) => tally.context.insert("spans", path.display().to_string()),
            Err(e) => tally.context.insert("spans", format!("not written: {e}")),
        };
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = args.workload.plan(args.seed);
    let work = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }

    let mut tally = Tally::default();
    if args.trace {
        traced(&args, &plan, threads, &work, &mut tally);
    } else {
        timed(&args, &plan, threads, &work, &mut tally);
    }
    let _ = std::fs::remove_dir_all(&work);

    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in expected {
        match tally.metrics.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => tally.failures.push(format!("metric {name} is {v}")),
            None => tally
                .failures
                .push(format!("metric {name} was not measured")),
        }
    }

    let failed = tally.failures.len() as u64;
    let attempted = tally.attempted.max(failed).max(1);
    let specs = |v: &[InputSpec]| {
        v.iter()
            .map(|s| format!("{}@{}/{}/{}", s.dataset, s.scale, s.data_seed, s.run_seed))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let c = &mut tally.context;
    c.insert("workload", args.workload.name().to_string());
    c.insert("seed", args.seed.to_string());
    c.insert("seconds", args.seconds.to_string());
    c.insert("trace", u8::from(args.trace).to_string());
    c.insert("threads", threads.to_string());
    c.insert("host_cores", threads.to_string());
    c.insert("commit", args.commit.clone());
    c.insert("solo_inputs", specs(&plan.solo));
    c.insert("tenants", specs(&plan.tenants(0)));
    c.insert(
        "error_rate",
        format!("{}", failed as f64 / attempted as f64),
    );
    for f in &tally.failures {
        eprintln!("perfbench: FAILED {f}");
    }

    let mut context = String::from("{\"context\":{");
    for (i, (k, v)) in tally.context.iter().enumerate() {
        let _ = write!(
            context,
            "{}{}:{}",
            if i > 0 { "," } else { "" },
            json_str(k),
            json_str(v)
        );
    }
    context.push_str("}}");
    println!("{context}");

    let mut metrics = String::new();
    for (i, (name, _)) in expected.iter().enumerate() {
        let v = tally
            .metrics
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let unit = unit_of(name).expect("catalog names have units");
        let _ = write!(
            metrics,
            "{}{}:{{\"value\":{v},\"unit\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(name),
            json_str(unit)
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}
