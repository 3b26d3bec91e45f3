//! Running one workload: untraced sweeps for the end-to-end metrics, or a
//! traced pass for the per-layer split, with the output checks of both.

use crate::metrics::{int, num, obj, string};
use crate::replica::{self, Traced};
use crate::sharded::{self, ShardedSweep};
use crate::sink::{SetupProbe, Sweep, TimedSink};
use crate::stats::{median, percentile, supported_tail};
use crate::workloads::{Spec, WORKERS};
use ehdl::ehsim::Integrity;
use ehdl_fleet::{FleetDigest, FleetRunner, Json, PhaseProfile, ScenarioMatrix};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Timed sweeps per run, however short `--seconds` is.
const MIN_SWEEPS: usize = 3;

/// Extra set-up measurements per in-process run, each a full sweep
/// stopped at its first merge.
const SETUP_PROBES: usize = 8;

/// Below this many scenarios per sweep, scenario percentiles are taken
/// over each scenario's median across sweeps instead of over every sample.
const FEW_SCENARIOS: usize = 100;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

/// Work attempted, work failed, and the named output checks.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
}

impl Ledger {
    fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.checks.push((name.to_string(), ok));
    }
}

pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub ledger: Ledger,
    pub header: Vec<(&'static str, Json)>,
    /// Self time per module of the traced pass, largest first.
    pub layers: Vec<(String, f64)>,
}

pub fn run(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    if opts.trace {
        traced(spec, opts)
    } else if spec.shard_size.is_some() {
        untraced_sharded(spec, opts)
    } else {
        untraced(spec, opts)
    }
}

/// One in-process sweep at `workers` through the timing sink.
struct Timed {
    sweep: Sweep,
    wall_s: f64,
    setup_s: f64,
}

fn timed(matrix: &ScenarioMatrix, workers: usize) -> Result<Timed, String> {
    let started = Instant::now();
    let sweep = FleetRunner::builder()
        .workers(workers)
        .sink(TimedSink::default())
        .run(matrix)
        .map_err(|e| e.to_string())?;
    let wall_s = started.elapsed().as_secs_f64();
    let setup_s = sweep
        .first_open
        .map_or(wall_s, |t| t.duration_since(started).as_secs_f64());
    Ok(Timed {
        sweep,
        wall_s,
        setup_s,
    })
}

/// One set-up measurement: from the sweep call to its first
/// `MetricsSink::open`, on a sweep stopped right after.
fn setup_probe(matrix: &ScenarioMatrix) -> Result<f64, String> {
    let first_open = Arc::new(OnceLock::new());
    let started = Instant::now();
    let stopped = FleetRunner::builder()
        .workers(WORKERS)
        .sink(SetupProbe(Arc::clone(&first_open)))
        .run(matrix);
    match (stopped, first_open.get()) {
        (Err(e), Some(t)) if e.to_string().contains(SetupProbe::STOP) => {
            Ok(t.duration_since(started).as_secs_f64())
        }
        (Err(e), _) => Err(e.to_string()),
        (Ok(()), _) => Err("the setup probe's sweep did not stop".to_string()),
    }
}

/// A profiled check sweep: the digest plus the runner's cache counters.
fn profiled(matrix: &ScenarioMatrix, workers: usize) -> Result<(Sweep, PhaseProfile), String> {
    FleetRunner::builder()
        .workers(workers)
        .sink(TimedSink::default())
        .run_profiled(matrix)
        .map_err(|e| e.to_string())
}

fn untraced(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    let n = spec.matrix.len() as u64;
    let mut ledger = Ledger::default();
    let mut sweeps = Vec::new();
    let mut peak_rss_mb = 0.0;
    let started = Instant::now();
    while sweeps.len() < MIN_SWEEPS || started.elapsed().as_secs_f64() < opts.seconds {
        ledger.attempted += n;
        sweeps.push(timed(&spec.matrix, WORKERS)?);
        if sweeps.len() == 1 {
            peak_rss_mb = peak_rss_mb_now()?;
        }
    }
    let mut setup_s: Vec<f64> = sweeps.iter().map(|s| s.setup_s).collect();
    for _ in 0..SETUP_PROBES {
        setup_s.push(setup_probe(&spec.matrix)?);
    }
    let reference = sweeps[0].sweep.digest.to_json();
    ledger.check(
        "every timed sweep reproduces the first digest",
        sweeps.iter().all(|s| s.sweep.digest.to_json() == reference),
    );
    ledger.attempted += n;
    let (one, profile) = profiled(&spec.matrix, 1)?;
    ledger.check(
        "the digest wire form is identical at 1 and 2 workers",
        one.digest.to_json() == reference,
    );
    modelled_checks(spec, &one.digest, &mut ledger);
    let host = Host {
        setup_s,
        runs_per_s: sweeps
            .iter()
            .map(|s| s.sweep.digest.runs as f64 / s.wall_s)
            .collect(),
        scenario_ms: sweeps.iter().map(|s| s.sweep.scenario_ms.clone()).collect(),
        peak_rss_mb,
    };
    let mut header = host.header(sweeps.len(), &sweeps[0].sweep);
    header.push(("replay_served_runs", int(profile.caches.trace.hits)));
    Ok(Outcome {
        metrics: host.metrics(&sweeps[0].sweep)?,
        ledger,
        header,
        layers: Vec::new(),
    })
}

fn untraced_sharded(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    let n = spec.matrix.len() as u64;
    let dir = checkpoint_dir(opts);
    let mut ledger = Ledger::default();
    let mut sweeps: Vec<ShardedSweep> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let started = Instant::now();
    while sweeps.len() < MIN_SWEEPS || started.elapsed().as_secs_f64() < opts.seconds {
        ledger.attempted += n;
        sweeps.push(sharded::sweep(spec, &dir)?);
        if sweeps.len() == 1 {
            // The coordinator process only: no in-process sweep has run.
            peak_rss_mb = peak_rss_mb_now()?;
        }
    }
    shard_checks(&sweeps, &mut ledger);
    let reference = sweeps[0].report.digest.to_json();
    ledger.check(
        "every sharded sweep reproduces the first digest",
        sweeps
            .iter()
            .all(|s| s.report.digest.to_json() == reference),
    );
    ledger.attempted += n;
    let (inproc, profile) = profiled(&spec.matrix, WORKERS)?;
    ledger.check(
        "the sharded digest equals the in-process digest",
        inproc.digest.to_json() == reference,
    );
    modelled_checks(spec, &inproc.digest, &mut ledger);
    let host = Host {
        setup_s: sweeps.iter().map(|s| s.setup_s).collect(),
        runs_per_s: sweeps
            .iter()
            .map(|s| s.report.digest.runs as f64 / s.wall_s)
            .collect(),
        scenario_ms: sweeps.iter().map(|s| s.scenario_ms.clone()).collect(),
        peak_rss_mb,
    };
    let mut header = host.header(sweeps.len(), &inproc);
    header.push(("replay_served_runs", int(profile.caches.trace.hits)));
    header.push((
        "setup_point",
        string("the first shard worker's first heartbeat (after its first scenario)"),
    ));
    header.push((
        "scenario_latency",
        string("shard worker wall time over the shard's scenario count"),
    ));
    Ok(Outcome {
        metrics: host.metrics(&inproc)?,
        ledger,
        header,
        layers: Vec::new(),
    })
}

fn checkpoint_dir(opts: &Options) -> PathBuf {
    opts.out.join(format!("ckpt-{}", std::process::id()))
}

/// Scenarios of failed shards count as failed work; every report must
/// also be complete.
fn shard_checks(sweeps: &[ShardedSweep], ledger: &mut Ledger) {
    for sweep in sweeps {
        ledger.failed += sweep
            .report
            .failed
            .iter()
            .map(|f| f.len as u64)
            .sum::<u64>();
    }
    ledger.check(
        "every sharded report is complete with no failed shard",
        sweeps.iter().all(|s| s.report.is_complete()),
    );
}

/// Checks on modelled outcomes that hold for any seed.
fn modelled_checks(spec: &Spec, digest: &FleetDigest, ledger: &mut Ledger) {
    let storm = spec.matrix.fault_axis().iter().any(|f| !f.is_none());
    if storm && spec.matrix.integrity_axis() == [Integrity::Secded] {
        ledger.check(
            "the SECDED storm injected faults and no corruption went silent",
            digest.resilience.faulted_runs > 0
                && digest.resilience.silent_corruptions == 0
                && digest.integrity.silent_restores == 0,
        );
    }
}

/// Host-side figures of the timed sweeps, one entry per sweep.
struct Host {
    setup_s: Vec<f64>,
    runs_per_s: Vec<f64>,
    scenario_ms: Vec<Vec<f64>>,
    peak_rss_mb: f64,
}

impl Host {
    /// The per-scenario latency samples percentiles are taken over. A
    /// sweep of many scenarios pools every sweep's samples. A sweep of few
    /// scenarios (`gateway_world` has 4) repeats the same ones many times,
    /// so its pooled percentiles would follow the slowest repetitions:
    /// each scenario first gets its median over the sweeps (every sweep
    /// merges in matrix order, so position `i` is scenario `i`).
    fn scenario_samples(&self) -> Vec<f64> {
        let scenarios = self.scenario_ms.first().map_or(0, Vec::len);
        if scenarios >= FEW_SCENARIOS {
            return self.scenario_ms.concat();
        }
        (0..scenarios)
            .filter_map(|i| median(&self.scenario_ms.iter().map(|v| v[i]).collect::<Vec<_>>()))
            .collect()
    }

    /// Every end-to-end metric; the modelled ones come from `modelled`.
    fn metrics(&self, modelled: &Sweep) -> Result<Vec<(&'static str, f64)>, String> {
        let need = |v: Option<f64>, what: &str| v.ok_or(format!("no samples for {what}"));
        let d = &modelled.digest;
        if d.runs == 0 {
            return Err("the sweep ran nothing".to_string());
        }
        let lat = &modelled.sim_latency_ms;
        Ok(vec![
            ("setup_s", need(median(&self.setup_s), "setup_s")?),
            ("runs_per_s", need(median(&self.runs_per_s), "runs_per_s")?),
            (
                "scenario_p50_ms",
                need(
                    percentile(&self.scenario_samples(), 50.0),
                    "scenario latency",
                )?,
            ),
            ("peak_rss_mb", self.peak_rss_mb),
            ("completed_frac", d.completion_rate()),
            (
                "sim_latency_p50_s",
                need(percentile(lat, 50.0), "modelled latency")? / 1e3,
            ),
            (
                "sim_latency_p99_s",
                need(percentile(lat, 99.0), "modelled latency")? / 1e3,
            ),
            ("sim_energy_mj_per_run", d.total_energy_mj() / d.runs as f64),
        ])
    }

    /// Sample counts and tails. The scenario tail is reported here, not
    /// as a metric: on `deploy_grid` its p99 moved by 30-50% between runs,
    /// past any allowed bound.
    fn header(&self, sweeps: usize, modelled: &Sweep) -> Vec<(&'static str, Json)> {
        let tail = |v: &[f64]| {
            supported_tail(v).map_or(Json::Null, |(p, value)| {
                obj(vec![("percentile", num(p)), ("value", num(value))])
            })
        };
        let scenarios = self.scenario_samples();
        vec![
            ("sweeps", int(sweeps as u64)),
            ("scenario_latency_samples", int(scenarios.len() as u64)),
            ("scenario_latency_tail_ms", tail(&scenarios)),
            (
                "sim_latency_samples",
                int(modelled.sim_latency_ms.len() as u64),
            ),
            ("sim_latency_tail_ms", tail(&modelled.sim_latency_ms)),
        ]
    }
}

/// This process's peak resident set so far (VmHWM), in MB. Read after
/// the first timed sweep: later sweeps only add allocator drift.
fn peak_rss_mb_now() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM line in the process status".to_string())
}

/// The traced run: untraced 1- and 2-worker sweeps (and sharded ones on
/// a sharded workload), a profiled 1-worker sweep for the runner's cache
/// counters, and the traced replica.
fn traced(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    let n = spec.matrix.len() as u64;
    let dir = checkpoint_dir(opts);
    let mut ledger = Ledger::default();
    let (mut one, mut two, mut shards) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while one.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        ledger.attempted += 2 * n;
        two.push(timed(&spec.matrix, WORKERS)?);
        one.push(timed(&spec.matrix, 1)?);
        if spec.shard_size.is_some() {
            ledger.attempted += n;
            shards.push(sharded::sweep(spec, &dir)?);
        }
    }
    let reference = two[0].sweep.digest.to_json();
    ledger.check(
        "the digest wire form is identical at 1 and 2 workers",
        one.iter()
            .chain(&two)
            .all(|t| t.sweep.digest.to_json() == reference),
    );
    if !shards.is_empty() {
        shard_checks(&shards, &mut ledger);
        ledger.check(
            "the sharded digest equals the in-process digest",
            shards
                .iter()
                .all(|s| s.report.digest.to_json() == reference),
        );
    }
    ledger.attempted += n;
    let (_, profile) = profiled(&spec.matrix, 1)?;
    ledger.attempted += n;
    let traced = replica::run(spec)?;
    ledger.check(
        "the traced replica's digest equals the runner's",
        traced.digest.to_json() == reference,
    );
    modelled_checks(spec, &two[0].sweep.digest, &mut ledger);

    fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let spans_path = opts
        .out
        .join(format!("{}-seed{}.spans.jsonl", spec.name, opts.seed));
    fs::write(&spans_path, replica::spans_jsonl(traced.tracer.spans()))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let walls = |v: &[Timed]| median(&v.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let (wall1, wall2) = (
        walls(&one).ok_or("no 1-worker sweep")?,
        walls(&two).ok_or("no 2-worker sweep")?,
    );
    let sharded_wall = median(&shards.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let figures = Figures {
        traced: &traced,
        profile: &profile,
        modelled: &two[0].sweep,
        wall1,
        wall2,
        shards: shards.last(),
        sharded_wall,
    };
    let header = vec![
        ("sweeps", int((one.len() + two.len() + shards.len()) as u64)),
        ("replay_served_runs", int(profile.caches.trace.hits)),
        ("traced_wall_s", num(traced.wall_s)),
        ("untraced_1_worker_wall_s", num(wall1)),
        ("spans", int(traced.tracer.spans().len() as u64)),
        ("spans_file", string(&spans_path.display().to_string())),
    ];
    Ok(Outcome {
        metrics: figures.metrics(),
        ledger,
        header,
        layers: module_self_times(&traced),
    })
}

/// Self time per module (the span name up to its first dot), largest
/// first; the replica's own per-scenario glue is left out.
fn module_self_times(traced: &Traced) -> Vec<(String, f64)> {
    let mut modules: BTreeMap<String, f64> = BTreeMap::new();
    for (name, (_, busy)) in replica::self_times(traced.tracer.spans()) {
        if name == "run.scenario" {
            continue;
        }
        let module = name.split('.').next().unwrap_or(name);
        *modules.entry(module.to_string()).or_default() += busy;
    }
    let mut out: Vec<(String, f64)> = modules.into_iter().collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

/// Everything the per-layer metrics are computed from.
struct Figures<'a> {
    traced: &'a Traced,
    profile: &'a PhaseProfile,
    modelled: &'a Sweep,
    wall1: f64,
    wall2: f64,
    shards: Option<&'a ShardedSweep>,
    sharded_wall: Option<f64>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Figures<'_> {
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let spans = replica::self_times(self.traced.tracer.spans());
        let count = |name: &str| spans.get(name).map_or(0.0, |s| s.0 as f64);
        let busy = |name: &str| spans.get(name).map_or(0.0, |s| s.1);
        let attributed: f64 = spans
            .iter()
            .filter(|(name, _)| **name != "run.scenario")
            .map(|(_, s)| s.1)
            .sum();
        let d = &self.modelled.digest;
        let probe = &self.traced.probe;
        let caches = &self.profile.caches;
        let exec_busy = busy("ehsim.live") + busy("ehsim.replay");
        let faults = &d.resilience;
        let shard = |f: fn(&ShardedSweep) -> f64| self.shards.map_or(0.0, f);
        vec![
            ("datasets.builds", count("datasets.build")),
            ("datasets.busy_s", busy("datasets.build")),
            ("nn.model_builds", count("nn.model")),
            ("nn.busy_s", busy("nn.model")),
            ("compress.calibrations", count("compress.calibrate")),
            ("compress.busy_s", busy("compress.calibrate")),
            (
                "compress.distinct_ratio",
                ratio(
                    self.traced.distinct_calibrations as f64,
                    self.traced.calibrations as f64,
                ),
            ),
            ("ace.quantizations", count("ace.quantize")),
            ("ace.quantize_busy_s", busy("ace.quantize")),
            ("ace.compiles", count("ace.compile")),
            ("ace.compile_busy_s", busy("ace.compile")),
            ("core.accuracy_evals", count("core.accuracy")),
            ("core.accuracy_busy_s", busy("core.accuracy")),
            ("flex.lowerings", count("flex.lower")),
            ("flex.lower_busy_s", busy("flex.lower")),
            ("ehsim.plan_compiles", count("ehsim.plan")),
            ("ehsim.plan_busy_s", busy("ehsim.plan")),
            ("ehsim.live_runs", count("ehsim.live")),
            ("ehsim.live_busy_s", busy("ehsim.live")),
            ("ehsim.replays", count("ehsim.replay")),
            ("ehsim.replay_busy_s", busy("ehsim.replay")),
            ("ehsim.charge_solves", probe.charge_solve_s.count() as f64),
            ("ehsim.charge_solve_busy_s", probe.charge_solve_s.sum()),
            (
                "ehsim.checkpoint_restores",
                probe.checkpoint_restore_s.count() as f64,
            ),
            (
                "ehsim.checkpoint_restore_busy_s",
                probe.checkpoint_restore_s.sum(),
            ),
            ("ehsim.executed_ops", d.executed_ops as f64),
            (
                "ehsim.host_ns_per_op",
                ratio(exec_busy * 1e9, d.executed_ops as f64),
            ),
            (
                "ehsim.sim_s_per_host_s",
                ratio(d.active_seconds + d.charging_seconds, exec_busy),
            ),
            (
                "ehsim.wasted_op_frac",
                ratio(d.wasted_ops as f64, d.executed_ops as f64),
            ),
            ("ehsim.outages", d.outages as f64),
            ("ehsim.restores", d.restores as f64),
            (
                "ehsim.faults_injected",
                (faults.spurious_resets
                    + faults.torn_commits
                    + faults.sag_ops
                    + faults.corrupt_restores) as f64,
            ),
            ("ehsim.flips_repaired", d.integrity.flips_repaired as f64),
            ("ehsim.silent_corruptions", faults.silent_corruptions as f64),
            ("fleet.deploy_cache_misses", caches.deployment.misses as f64),
            ("fleet.plan_cache_misses", caches.plan.misses as f64),
            ("fleet.trace_cache_misses", caches.trace.misses as f64),
            ("fleet.trace_cache_evictions", caches.trace.evictions as f64),
            ("fleet.trace_hit_frac", caches.trace.hit_rate()),
            (
                "fleet.parallel_efficiency",
                ratio(self.wall1, 2.0 * self.wall2),
            ),
            ("fleet.unattributed_s", self.wall1 - attributed),
            (
                "fleet.trace_overhead_frac",
                ratio(self.traced.wall_s, self.wall1) - 1.0,
            ),
            ("fleet.sink_folds", count("fleet.sink_fold")),
            ("fleet.sink_fold_busy_s", busy("fleet.sink_fold")),
            ("fleet.sink_merges", count("fleet.sink_merge")),
            ("fleet.sink_merge_busy_s", busy("fleet.sink_merge")),
            ("fleet.wire_bytes", self.traced.wire_bytes as f64),
            ("fleet.wire_encode_busy_s", busy("fleet.wire_encode")),
            ("fleet.wire_parse_busy_s", busy("fleet.wire_parse")),
            ("shard.shards", shard(|s| s.report.shards as f64)),
            ("shard.retries", shard(|s| s.report.retries as f64)),
            ("shard.failed", shard(|s| s.report.failed.len() as f64)),
            ("shard.partial_bytes", shard(|s| s.partial_bytes as f64)),
            (
                "shard.overhead_ratio",
                self.sharded_wall.map_or(0.0, |w| ratio(w, self.wall2)),
            ),
            ("netsim.worlds", d.slo.worlds as f64),
            ("netsim.devices", d.slo.devices as f64),
            ("netsim.field_busy_s", busy("netsim.field")),
            ("netsim.resolve_busy_s", busy("netsim.resolve")),
            ("netsim.polls", d.slo.polls as f64),
            ("netsim.starved_devices", d.slo.starved_devices as f64),
            ("netsim.served_frac", d.slo.served_fraction()),
            (
                "netsim.staleness_p99_s",
                percentile(&self.modelled.staleness_s, 99.0).unwrap_or(0.0),
            ),
        ]
    }
}

/// The revision of the checkout the benchmark was built from, read from
/// the `.git` directory beside it; "unknown" outside a git checkout.
pub fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
