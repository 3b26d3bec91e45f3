//! The fixed-pool executor that sweeps a [`ScenarioMatrix`] into a
//! [`MetricsSink`].

use crate::metrics::{FullReportSink, MetricsSink, RunRecord};
use crate::profile::PhaseProfile;
use crate::report::FleetReport;
use crate::scenario::{Scenario, ScenarioMatrix, Workload};
use ehdl::deployment::quantized_accuracy;
use ehdl::ehsim::{
    Environment, ExecPhase, ExecutionPlan, FaultPlan, Integrity, IntermittentExecutor, NullProbe,
    RunReport, RunTrace, TimelineRecorder,
};
use ehdl::{BoardSpec, Deployment, DeviceSession, Error, Strategy};
use ehdl_netsim::{DeviceTimeline, SharedField, WorldSim};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// The default [`cache_entries`](FleetBuilder::cache_entries) bound for
/// the built-model and trace caches — generous enough that every sweep
/// in the repo (and any reasonably shaped matrix) runs eviction-free,
/// while still capping residency on adversarially wide axes.
pub(crate) const DEFAULT_CACHE_ENTRIES: usize = 1024;

/// A tiny deterministic LRU for the runner's bounded caches: keys are
/// the dense cache indices scenario expansion derives, values are
/// `Arc`s handed out while the lock is released. Lookups are O(len),
/// which is fine at the capacities involved (default 1024), and the
/// back-of-vec recency order makes eviction a pure function of the
/// lookup sequence.
struct Lru<V> {
    cap: usize,
    entries: Vec<(usize, V)>,
    evictions: u64,
}

impl<V: Clone> Lru<V> {
    fn new(cap: usize) -> Self {
        Lru {
            cap: cap.max(1),
            entries: Vec::new(),
            evictions: 0,
        }
    }

    /// The value under `key`, refreshed to most-recently-used.
    fn get(&mut self, key: usize) -> Option<V> {
        let pos = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(pos);
        let value = entry.1.clone();
        self.entries.push(entry);
        Some(value)
    }

    /// Inserts `value` unless a racing worker already filled the slot
    /// (first insert wins, like the trace-recording race), evicting the
    /// least-recently-used entry when over capacity. Returns the
    /// resident value.
    fn insert(&mut self, key: usize, value: V) -> V {
        if let Some(existing) = self.get(key) {
            return existing;
        }
        self.entries.push((key, value.clone()));
        if self.entries.len() > self.cap {
            self.entries.remove(0);
            self.evictions += 1;
        }
        value
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// Everything a worker needs for one scenario: the shared built model
/// retargeted to the scenario's board and strategy, its priced
/// accuracy, and its shared execution plan with the plan's stable slot
/// index (the trace-cache key component).
struct DeployState {
    deployment: Deployment,
    accuracy: f64,
    plan_slot: usize,
    plan: Arc<ExecutionPlan>,
}

/// The bounded cache of built models, keyed by the dense (workload,
/// seed) index: one deployment per key (retargeted per scenario) plus
/// its accuracy, which depends only on the model and its data slice and
/// so is priced once per resident entry.
type ArtifactCache = Mutex<Lru<(Deployment, f64)>>;

/// The bounded cache of recorded deterministic trajectories, keyed by
/// the dense (plan, environment, budget, fault) index. A rebuilt entry
/// is bit-identical to the evicted one (recording is deterministic), so
/// eviction trades wall-clock for memory without touching any report.
/// The bound counts entries, not bytes; each trace is run-length
/// encoded, O(outages + checkpoints) however long the run.
type TraceCache = Mutex<Lru<Arc<RunTrace>>>;

/// The append-only store of compiled execution plans, one per
/// (workload, board, strategy, integrity scheme) — the scheme is part
/// of the key because it changes the plan's durable-write pricing; the
/// Vec position doubles as the stable `plan_slot` the trace-cache key
/// is built from.
type PlanStore = Mutex<
    Vec<(
        (Workload, BoardSpec, Strategy, Integrity),
        Arc<ExecutionPlan>,
    )>,
>;

/// Executes a [`ScenarioMatrix`] across a fixed pool of worker threads,
/// streaming one [`RunRecord`] per (scenario, run) into a
/// [`MetricsSink`].
///
/// Work is handed out scenario-by-scenario from an atomic cursor, so
/// any interleaving of workers visits every scenario exactly once. Each
/// scenario's runs fold into the sink's per-scenario accumulator inside
/// one worker in run order; completed accumulators flow back to the
/// coordinating thread, which merges them **in matrix order** as soon
/// as the ordered prefix is complete. That makes every sink's report a
/// pure function of the matrix: same matrix ⇒ identical report,
/// whether 1 or 64 workers ran it — and sinks that fold into fixed-size
/// state (e.g. [`DigestSink`](crate::DigestSink)) keep the whole sweep
/// in O(1) memory, with nothing retained per run.
///
/// The runner builds each model once per (workload, seed) — RAD's
/// deployment pass does not depend on board, strategy or integrity
/// scheme — and [`retarget`](Deployment::retarget)s it per scenario.
/// It compiles one costed
/// [`ExecutionPlan`] per (workload, board, strategy, integrity scheme)
/// — op costs are program-, board- and scheme-derived, never data- or
/// environment-derived — and shares it (via `Arc`) across every
/// environment, seed and worker, so a 10k-scenario sweep prices each
/// distinct program exactly once. Built models and recorded traces live
/// in **bounded LRU caches** ([`cache_entries`](FleetBuilder::cache_entries)
/// deep, default 1024): entries are built lazily by the first worker
/// that needs them, and an evicted entry is rebuilt deterministically
/// on its next miss, so the cap trades wall-clock for memory without
/// changing a single report bit.
///
/// Deterministic environments (every catalog entry except the burst
/// sources) go one step further: an intermittent run is a pure function
/// of (plan, environment, budget, fault schedule) — it never reads
/// input data — so the runner records the trajectory once as a
/// [`RunTrace`] and replays it for every other seed, run and worker of
/// that tuple. Replays are bit-identical to live runs by construction
/// (the per-op meter records are re-applied in order against each
/// board's own tallies), which is what keeps the report
/// worker-count-independent.
///
/// Live runs that cannot be replayed go two at a time through the
/// executor's lockstep pair entry — a scenario's runs in pairs, a
/// world's devices in pairs — so one core overlaps their capacitor
/// dependency chains. Reports stay bit-identical to running them one
/// by one.
///
/// Fault injection rides the same machinery: each
/// [`FaultSpec`](crate::FaultSpec) on the matrix's fault axis compiles
/// to one seeded [`FaultPlan`] shared across the sweep, and the
/// fault-free spec compiles to a disabled plan whose runs are
/// bit-identical to a pre-fault sweep.
#[derive(Debug, Clone)]
pub struct FleetRunner {
    workers: usize,
    reference: bool,
    cache_entries: usize,
}

impl FleetRunner {
    /// A runner with the given worker-pool size (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        FleetRunner {
            workers: workers.max(1),
            reference: false,
            cache_entries: DEFAULT_CACHE_ENTRIES,
        }
    }

    /// A builder defaulting to one worker per available core and the
    /// compatibility [`FullReportSink`]; swap the sink with
    /// [`sink`](FleetBuilder::sink):
    ///
    /// ```no_run
    /// use ehdl_fleet::{DigestSink, FleetRunner, ScenarioMatrix};
    ///
    /// let digest = FleetRunner::builder()
    ///     .workers(8)
    ///     .sink(DigestSink::new())
    ///     .run(&ScenarioMatrix::new())?;
    /// println!("{digest}");
    /// # Ok::<(), ehdl::Error>(())
    /// ```
    pub fn builder() -> FleetBuilder<FullReportSink> {
        FleetBuilder {
            workers: std::thread::available_parallelism().map_or(1, usize::from),
            reference: false,
            cache_entries: DEFAULT_CACHE_ENTRIES,
            sink: FullReportSink::new(),
        }
    }

    /// Routes every intermittent run through the retained op-by-op
    /// reference interpreter instead of the compiled execution plans,
    /// with a freshly lowered program per scenario — the pre-plan
    /// executor, kept so parity suites can diff the two paths over a
    /// whole matrix. Slow by design; not for production sweeps.
    pub fn reference_executor(mut self, reference: bool) -> Self {
        self.reference = reference;
        self
    }

    /// The pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sweeps the matrix into the compatibility [`FullReportSink`],
    /// retaining every scenario's report — the classic dense
    /// [`FleetReport`].
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing scenario (or a
    /// deployment-build error), so failures are deterministic too.
    pub fn run(&self, matrix: &ScenarioMatrix) -> Result<FleetReport, Error> {
        self.run_with_sink(matrix, FullReportSink::new())
    }

    /// Sweeps the matrix: fans the scenarios out over the pool (each
    /// (workload, seed) model is built once, lazily, by the first worker
    /// that needs it) and streams every run into `sink` under the
    /// deterministic fold/merge contract of [`MetricsSink`].
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing scenario (or a
    /// deployment-build error, or the sink's first write error), so
    /// failures are deterministic too.
    pub fn run_with_sink<S: MetricsSink + Send>(
        &self,
        matrix: &ScenarioMatrix,
        sink: S,
    ) -> Result<S::Report, Error> {
        self.run_range_with_sink(matrix, 0..matrix.len(), sink)
    }

    /// Sweeps one contiguous index range of the matrix into `sink` —
    /// the entry point shard workers use. Scenario indices, fold order
    /// and per-scenario results are identical to the corresponding
    /// stretch of a whole-matrix sweep; only the range's models and
    /// plans are built, so memory stays O(range), not O(matrix). Ends
    /// beyond the matrix clamp.
    ///
    /// # Errors
    ///
    /// See [`run_with_sink`](Self::run_with_sink).
    pub fn run_range_with_sink<S: MetricsSink + Send>(
        &self,
        matrix: &ScenarioMatrix,
        range: std::ops::Range<usize>,
        sink: S,
    ) -> Result<S::Report, Error> {
        self.run_range_inner(matrix, range, sink, false)
            .map(|(report, _)| report)
    }

    /// [`run_with_sink`](Self::run_with_sink) with phase profiling: the
    /// sweep additionally collects a [`PhaseProfile`] — wall-clock span
    /// digests for charge solving, plan execution, checkpoint/restore,
    /// trace replay and sink folding, plus plan/trace/deployment cache
    /// counters.
    ///
    /// The profile is a side channel: the sink report stays
    /// **bit-identical** to the unprofiled sweep at any worker count.
    /// Span and cache-lookup *counts* are deterministic at one worker;
    /// at higher worker counts `hits + misses` totals stay fixed but
    /// racing workers can shift the trace cache's hit/miss split (both
    /// recordings of a deterministic pair are bit-identical, so either
    /// outcome is equally valid). Timings are wall-clock and therefore
    /// never deterministic.
    ///
    /// # Errors
    ///
    /// See [`run_with_sink`](Self::run_with_sink).
    pub fn run_profiled_with_sink<S: MetricsSink + Send>(
        &self,
        matrix: &ScenarioMatrix,
        sink: S,
    ) -> Result<(S::Report, PhaseProfile), Error> {
        self.run_range_profiled_with_sink(matrix, 0..matrix.len(), sink)
    }

    /// [`run_range_with_sink`](Self::run_range_with_sink) with phase
    /// profiling (see
    /// [`run_profiled_with_sink`](Self::run_profiled_with_sink)).
    /// Per-range profiles combine with [`PhaseProfile::merge`] in
    /// range order, reassembling every span count and cache counter of
    /// the whole-matrix sweep exactly.
    ///
    /// # Errors
    ///
    /// See [`run_with_sink`](Self::run_with_sink).
    pub fn run_range_profiled_with_sink<S: MetricsSink + Send>(
        &self,
        matrix: &ScenarioMatrix,
        range: std::ops::Range<usize>,
        sink: S,
    ) -> Result<(S::Report, PhaseProfile), Error> {
        self.run_range_inner(matrix, range, sink, true)
            .map(|(report, profile)| (report, profile.unwrap_or_default()))
    }

    fn run_range_inner<S: MetricsSink + Send>(
        &self,
        matrix: &ScenarioMatrix,
        range: std::ops::Range<usize>,
        sink: S,
        profiled: bool,
    ) -> Result<(S::Report, Option<PhaseProfile>), Error> {
        // Reject executor tunables that would hang a worker (zero stall
        // budget, NaN wall clock, non-positive legacy charge step) with
        // a typed error before any deployment is built — for the base
        // config and for every budget-axis override of it.
        matrix.executor.validate().map_err(Error::from)?;
        let mut executors: Vec<IntermittentExecutor> = Vec::with_capacity(matrix.budgets.len());
        for budget in &matrix.budgets {
            let mut config = matrix.executor.clone();
            if let Some(nj) = *budget {
                config.energy_budget_nj = Some(nj);
            }
            config.validate().map_err(Error::from)?;
            executors.push(IntermittentExecutor::new(config));
        }
        // Reject malformed fault specs (out-of-range rates, sag factor
        // below 1) up front, then compile each spec's schedule exactly
        // once — like execution plans, fault plans are shared across
        // every scenario, seed and worker of the axis value. The
        // fault-free spec compiles to a disabled plan, which the
        // executor treats as the pre-fault arithmetic bit for bit.
        let mut fault_plans: Vec<FaultPlan> = Vec::with_capacity(matrix.faults.len());
        for spec in &matrix.faults {
            spec.validate().map_err(Error::from)?;
            fault_plans.push(FaultPlan::compile(spec));
        }
        let mut profile = profiled.then(PhaseProfile::new);
        let scenarios = matrix.scenarios_range(range);
        if scenarios.is_empty() {
            return sink.finish().map(|report| (report, profile));
        }

        // One built model per (workload, seed), built lazily under the
        // cache lock by the first worker that needs it (see
        // `deploy_scenario`) and kept `cache_entries` deep.
        let artifacts: ArtifactCache = Mutex::new(Lru::new(self.cache_entries));

        // One execution plan per (workload, board, strategy,
        // integrity scheme), shared across seeds too: the lowered op
        // stream and its costs depend on the model architecture, the
        // cost table and the scheme's checkpoint padding, not on the
        // calibration data, so seed-variant deployments compile
        // bit-identical plans. Plans are tiny relative to deployments
        // and their slot index keys the trace cache, so this store is
        // append-only, not LRU.
        let plans: PlanStore = Mutex::new(Vec::new());

        // One trace slot per (plan, environment, budget, fault) tuple;
        // only deterministic environments ever populate theirs. Budget
        // and fault schedule are part of the key because both change
        // the trajectory a recording captures.
        let environments = matrix.environments.len();
        let budgets = matrix.budgets.len();
        let faults = matrix.faults.len();
        let traces: TraceCache = Mutex::new(Lru::new(self.cache_entries));

        // The sink is shared: workers briefly lock it to `open` each
        // scenario's accumulator as they claim it (so at most one
        // accumulator per worker is live — a fixed-size sink keeps the
        // whole sweep O(1)), and the coordinator locks it to `merge`
        // completed accumulators in matrix order.
        let sink = Mutex::new(sink);

        // Per-worker profiles (trace-cache counters plus every span a
        // worker times), merged into the coordinator's profile in
        // worker-index order after the sweep — timings are wall-clock
        // and thus never deterministic, but the merge order is.
        let worker_profiles: Mutex<Vec<(usize, PhaseProfile)>> = Mutex::new(Vec::new());

        let cursor = AtomicUsize::new(0);
        // The merge frontier (scenarios merged so far), mirrored into an
        // atomic so workers can apply backpressure: nobody claims a
        // scenario more than `window` ahead of it, which caps the
        // coordinator's reorder buffer even when one early scenario is
        // far slower than the rest.
        let merged = AtomicUsize::new(0);
        let window = 4 * self.workers.min(scenarios.len()) + 16;
        let total = scenarios.len();
        let (tx, rx) = mpsc::channel::<(usize, Result<S::Partial, Error>)>();

        // Lowest-indexed scenario failure and first sink failure, kept
        // separate so the error we return is deterministic.
        let mut run_error: Option<(usize, Error)> = None;
        let mut sink_error: Option<Error> = None;

        std::thread::scope(|scope| {
            let scenarios = &scenarios;
            let artifacts = &artifacts;
            let plans = &plans;
            let traces = &traces;
            let executors = &executors;
            let fault_plans = &fault_plans;
            let cursor = &cursor;
            let merged = &merged;
            let sink = &sink;
            let worker_profiles = &worker_profiles;
            for w in 0..self.workers.min(total) {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut local = profiled.then(PhaseProfile::new);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(scenario) = scenarios.get(i) else {
                            break;
                        };
                        // Backpressure: the worker holding the lowest
                        // in-flight index never waits (everything below it
                        // has been sent, so the frontier reaches it), which
                        // rules out deadlock; everyone else idles on a timed
                        // doze — negligible CPU, and at most a stall-length
                        // wakeup lag — instead of inflating the reorder
                        // buffer.
                        while i >= merged.load(Ordering::Relaxed).saturating_add(window) {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        let deploy = match deploy_scenario(
                            scenario,
                            matrix,
                            artifacts,
                            plans,
                            local.as_mut(),
                        ) {
                            Ok(deploy) => deploy,
                            Err(e) => {
                                if tx.send((i, Err(e))).is_err() {
                                    break;
                                }
                                continue;
                            }
                        };
                        let trace_key = (!self.reference && !scenario.environment.is_stochastic())
                            .then(|| {
                                ((deploy.plan_slot * environments + scenario.environment_key)
                                    * budgets
                                    + scenario.budget_key)
                                    * faults
                                    + scenario.fault_key
                            });
                        let mut partial = sink
                            .lock()
                            .expect("sink lock")
                            .open(scenario, deploy.accuracy);
                        let result = if scenario.topology.is_solo() {
                            run_scenario::<S>(
                                scenario,
                                &deploy,
                                trace_key,
                                traces,
                                &executors[scenario.budget_key],
                                &fault_plans[scenario.fault_key],
                                matrix.runs,
                                self.reference,
                                &mut partial,
                                local.as_mut(),
                            )
                        } else {
                            run_world_scenario::<S>(
                                scenario,
                                &deploy,
                                &executors[scenario.budget_key],
                                &fault_plans[scenario.fault_key],
                                matrix.runs,
                                self.reference,
                                &mut partial,
                                local.as_mut(),
                            )
                        };
                        if tx.send((i, result.map(|()| partial))).is_err() {
                            break; // coordinator gone (a sibling panicked)
                        }
                    }
                    if let Some(p) = local {
                        worker_profiles.lock().expect("profile lock").push((w, p));
                    }
                });
            }
            drop(tx);

            // Stream-merge on this thread: absorb each scenario's
            // accumulator the moment the ordered prefix allows, buffering
            // only out-of-order stragglers. Sinks see matrix order; the
            // buffer stays tiny because workers drain the cursor roughly
            // in order.
            let mut pending: BTreeMap<usize, S::Partial> = BTreeMap::new();
            let mut next = 0usize;
            for _ in 0..total {
                let Ok((i, result)) = rx.recv() else {
                    break; // worker panicked; scope join re-raises it
                };
                let failed = run_error.is_some() || sink_error.is_some();
                match result {
                    Ok(partial) if !failed => {
                        pending.insert(i, partial);
                    }
                    // Once anything has failed the sweep's result is
                    // already Err: later accumulators are dropped, not
                    // buffered (dispatch was halted below).
                    Ok(_) => {}
                    Err(e) => {
                        if run_error.as_ref().is_none_or(|(j, _)| i < *j) {
                            run_error = Some((i, e));
                        }
                    }
                }
                while let Some(partial) = pending.remove(&next) {
                    if sink_error.is_none() {
                        let t0 = profiled.then(Instant::now);
                        if let Err(e) = sink.lock().expect("sink lock").merge(partial) {
                            sink_error = Some(e);
                        }
                        if let (Some(p), Some(t0)) = (profile.as_mut(), t0) {
                            p.record(ExecPhase::SinkFold, t0.elapsed().as_secs_f64());
                        }
                    }
                    next += 1;
                    merged.store(next, Ordering::Relaxed);
                }
                if run_error.is_some() || sink_error.is_some() {
                    // Halt dispatch (in-flight scenarios still drain
                    // through the channel), release any backpressured
                    // worker, and drop the unmergeable suffix.
                    cursor.store(total, Ordering::Relaxed);
                    merged.store(total, Ordering::Relaxed);
                    pending.clear();
                }
            }
        });

        if let Some((_, e)) = run_error {
            return Err(e);
        }
        if let Some(e) = sink_error {
            return Err(e);
        }
        if let Some(p) = profile.as_mut() {
            let mut collected = worker_profiles.into_inner().expect("profile lock");
            collected.sort_by_key(|&(w, _)| w);
            for (_, worker) in &collected {
                p.merge(worker);
            }
            // Residency and eviction counts live in the shared caches,
            // not in any worker's local profile.
            let artifact_cache = artifacts.into_inner().expect("artifact cache lock");
            p.caches.deployment.entries = artifact_cache.len() as u64;
            p.caches.deployment.evictions = artifact_cache.evictions();
            p.caches.plan.entries = plans.into_inner().expect("plan cache lock").len() as u64;
            let trace_cache = traces.into_inner().expect("trace cache lock");
            p.caches.trace.entries = trace_cache.len() as u64;
            p.caches.trace.evictions = trace_cache.evictions();
        }
        sink.into_inner()
            .expect("sink lock")
            .finish()
            .map(|report| (report, profile))
    }
}

/// Configures a [`FleetRunner`] together with the [`MetricsSink`] a
/// sweep folds into. Created by [`FleetRunner::builder`]; swapping the
/// sink retypes the builder, so [`run`](Self::run) returns whatever
/// that sink reports.
#[derive(Debug)]
pub struct FleetBuilder<S: MetricsSink> {
    workers: usize,
    reference: bool,
    cache_entries: usize,
    sink: S,
}

impl<S: MetricsSink> FleetBuilder<S> {
    /// Sets the worker-pool size (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Routes runs through the op-by-op reference interpreter (see
    /// [`FleetRunner::reference_executor`]).
    pub fn reference_executor(mut self, reference: bool) -> Self {
        self.reference = reference;
        self
    }

    /// Bounds the runner's built-model cache (one entry per (workload,
    /// seed), shared by every board, strategy and integrity scheme) and
    /// its trace cache to at most `entries` resident entries each
    /// (clamped to ≥ 1; default 1024).
    /// Evicted entries are rebuilt deterministically on the next miss,
    /// so a tighter cap trades wall-clock for memory without changing
    /// any report bit. Evictions are counted in the profiled sweep's
    /// [`CacheCounters`](crate::CacheCounters).
    pub fn cache_entries(mut self, entries: usize) -> Self {
        self.cache_entries = entries.max(1);
        self
    }

    /// Replaces the sink, retyping the builder.
    pub fn sink<T: MetricsSink>(self, sink: T) -> FleetBuilder<T> {
        FleetBuilder {
            workers: self.workers,
            reference: self.reference,
            cache_entries: self.cache_entries,
            sink,
        }
    }

    /// Sweeps the matrix into the configured sink.
    ///
    /// # Errors
    ///
    /// See [`FleetRunner::run_with_sink`].
    pub fn run(self, matrix: &ScenarioMatrix) -> Result<S::Report, Error>
    where
        S: Send,
    {
        FleetRunner {
            workers: self.workers,
            reference: self.reference,
            cache_entries: self.cache_entries,
        }
        .run_with_sink(matrix, self.sink)
    }

    /// Sweeps the matrix into the configured sink with phase profiling
    /// (see [`FleetRunner::run_profiled_with_sink`]): same report, plus
    /// a [`PhaseProfile`] of where the wall-clock time went.
    ///
    /// # Errors
    ///
    /// See [`FleetRunner::run_with_sink`].
    pub fn run_profiled(self, matrix: &ScenarioMatrix) -> Result<(S::Report, PhaseProfile), Error>
    where
        S: Send,
    {
        FleetRunner {
            workers: self.workers,
            reference: self.reference,
            cache_entries: self.cache_entries,
        }
        .run_profiled_with_sink(matrix, self.sink)
    }
}

impl FleetBuilder<FullReportSink> {
    /// Finishes into a reusable [`FleetRunner`] (full-report sweeps
    /// only; sinks are consumed per sweep, so sink-typed builders run
    /// directly).
    pub fn build(self) -> FleetRunner {
        FleetRunner {
            workers: self.workers,
            reference: self.reference,
            cache_entries: self.cache_entries,
        }
    }
}

/// Readies one scenario: fetches the (workload, seed) model and its
/// accuracy, retargets it to the scenario's board and strategy, and
/// looks up the shared execution plan. Models build under the cache
/// lock and plans compile under the plan-store lock, so at most one
/// build per key is in flight and miss counts stay deterministic at any
/// worker count. A pure function of the scenario (and the matrix's
/// calibration), which is what lets the bounded cache rebuild evicted
/// models without changing any report.
fn deploy_scenario(
    scenario: &Scenario,
    matrix: &ScenarioMatrix,
    artifacts: &ArtifactCache,
    plans: &PlanStore,
    mut profile: Option<&mut PhaseProfile>,
) -> Result<DeployState, Error> {
    let (built, accuracy) = {
        let mut cache = artifacts.lock().expect("artifact cache lock");
        let cached = cache.get(scenario.artifact_key);
        if let Some(p) = profile.as_deref_mut() {
            p.caches.deployment.count(cached.is_some());
        }
        match cached {
            Some(entry) => entry,
            None => {
                let data = scenario.workload.dataset(scenario.seed);
                let mut model = scenario.workload.model();
                let deployment = Deployment::builder(&mut model, &data)
                    .calibration(matrix.calibration)
                    .build()?;
                let accuracy = quantized_accuracy(deployment.quantized(), &data)?;
                cache.insert(scenario.artifact_key, (deployment, accuracy))
            }
        }
    };
    let deployment = built.retarget(scenario.board.clone(), scenario.strategy);
    let key = (
        scenario.workload,
        scenario.board.clone(),
        scenario.strategy,
        scenario.integrity,
    );
    let mut plans = plans.lock().expect("plan cache lock");
    let slot = plans.iter().position(|(k, _)| *k == key);
    if let Some(p) = profile {
        p.caches.plan.count(slot.is_some());
    }
    let plan_slot = slot.unwrap_or_else(|| {
        let plan = deployment.compile_plan_with_integrity(scenario.integrity);
        plans.push((key, Arc::new(plan)));
        plans.len() - 1
    });
    let plan = Arc::clone(&plans[plan_slot].1);
    Ok(DeployState {
        deployment,
        accuracy,
        plan_slot,
        plan,
    })
}

/// Runs one scenario on its shared deployment and shared execution
/// plan: `runs` intermittent inferences with per-run re-seeding, each
/// folded into the sink accumulator as a [`RunRecord`] in run order
/// (accuracy was priced once per built model by the runner). Every run
/// consults the scenario's compiled [`FaultPlan`] — the fault-free
/// axis value compiles to a disabled plan, which executes the exact
/// pre-fault arithmetic. Live stochastic runs go in lockstep pairs
/// (runs 0 and 1, 2 and 3, …; an odd last run goes alone) through
/// [`DeviceSession::infer_intermittent_pair`], which leaves the session
/// board exactly as running them one by one would. In `reference` mode
/// the session compiles its own plan and replays the op-by-op
/// interpreter instead — the pre-plan behavior parity suites compare
/// against.
#[allow(clippy::too_many_arguments)]
fn run_scenario<S: MetricsSink>(
    scenario: &Scenario,
    deploy: &DeployState,
    trace_key: Option<usize>,
    traces: &TraceCache,
    executor: &IntermittentExecutor,
    fault: &FaultPlan,
    runs: u32,
    reference: bool,
    partial: &mut S::Partial,
    mut profile: Option<&mut PhaseProfile>,
) -> Result<(), Error> {
    let mut session = open_session(scenario, deploy, reference);
    let runs = u64::from(runs);
    let supply = |run: u64| {
        // Stochastic environments get a fresh, reproducible seed per
        // run (the reference path reseeds deterministic ones too — a
        // no-op replay of the same waveform).
        scenario
            .environment
            .reseeded(mix(scenario.seed, run))
            .supply()
    };
    let mut run = 0u64;
    while run < runs {
        if trace_key.is_none() && !reference && run + 1 < runs {
            let (mut supply_a, mut supply_b) = (supply(run), supply(run + 1));
            let supplies = [&mut supply_a, &mut supply_b];
            let reports = if let Some(p) = profile.as_deref_mut() {
                // Each lane gets its own profile, merged afterwards.
                let mut lane_b = PhaseProfile::new();
                let t0 = Instant::now();
                let reports = session.infer_intermittent_pair(
                    None,
                    executor,
                    supplies,
                    fault,
                    (&mut *p, &mut lane_b),
                );
                record_pair_exec(p, t0);
                p.merge(&lane_b);
                reports
            } else {
                session.infer_intermittent_pair(
                    None,
                    executor,
                    supplies,
                    fault,
                    (&mut NullProbe, &mut NullProbe),
                )
            };
            for (k, r) in reports.iter().enumerate() {
                let run = (run + k as u64) as u32;
                fold_run::<S>(scenario, run, deploy, r, partial, profile.as_deref_mut());
            }
            run += 2;
            continue;
        }
        let r = if let Some(key) = trace_key {
            // Deterministic environment: every (seed, run) replays the
            // one trajectory this (plan, environment, budget, fault)
            // tuple can take. Record it on first demand, replay it ever
            // after — replays re-apply the same per-op meter records
            // (fault effects included), so they are bit-identical to
            // live runs on this session's board.
            let existing = traces.lock().expect("trace cache lock").get(key);
            match existing {
                Some(recorded) => {
                    let t0 = profile.is_some().then(Instant::now);
                    let r = session.infer_intermittent_replay(executor, &recorded);
                    if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t0) {
                        p.caches.trace.hits += 1;
                        p.record(ExecPhase::TraceReplay, t0.elapsed().as_secs_f64());
                    }
                    r
                }
                None => {
                    // The recording run *is* this run — it executes live
                    // on this session's board with the lock released, so
                    // workers needing the same tuple never idle. Racing
                    // recorders duplicate only this one run (every
                    // recording of a deterministic tuple is
                    // bit-identical, so whichever lands first is equally
                    // valid — the LRU keeps the first insert).
                    let mut supply = scenario.environment.supply();
                    let (report, recorded) = if let Some(p) = profile.as_deref_mut() {
                        let t0 = Instant::now();
                        let out = session.infer_intermittent_faulted_traced_probed(
                            executor,
                            &mut supply,
                            fault,
                            p,
                        );
                        p.caches.trace.misses += 1;
                        p.record(ExecPhase::PlanExec, t0.elapsed().as_secs_f64());
                        out
                    } else {
                        session.infer_intermittent_faulted_traced(executor, &mut supply, fault)
                    };
                    traces
                        .lock()
                        .expect("trace cache lock")
                        .insert(key, Arc::new(recorded));
                    report
                }
            }
        } else {
            let mut supply = supply(run);
            if let Some(p) = profile.as_deref_mut() {
                let t0 = Instant::now();
                let r = if reference {
                    session.infer_intermittent_faulted_reference_probed(
                        executor,
                        &mut supply,
                        fault,
                        p,
                    )
                } else {
                    session.infer_intermittent_faulted_probed(executor, &mut supply, fault, p)
                };
                p.record(ExecPhase::PlanExec, t0.elapsed().as_secs_f64());
                r
            } else if reference {
                session.infer_intermittent_faulted_reference(executor, &mut supply, fault)
            } else {
                session.infer_intermittent_faulted(executor, &mut supply, fault)
            }
        };
        fold_run::<S>(
            scenario,
            run as u32,
            deploy,
            &r,
            partial,
            profile.as_deref_mut(),
        );
        run += 1;
    }
    Ok(())
}

/// A session over the scenario's shared plan — or, in `reference` mode,
/// over its own fresh plan at the scenario's integrity scheme, so the
/// reference interpreter prices and recovers identically to the planned
/// path.
fn open_session<'d>(
    scenario: &Scenario,
    deploy: &'d DeployState,
    reference: bool,
) -> DeviceSession<'d> {
    let plan = if reference {
        Arc::new(
            deploy
                .deployment
                .compile_plan_with_integrity(scenario.integrity),
        )
    } else {
        Arc::clone(&deploy.plan)
    };
    deploy.deployment.session_with_plan(plan)
}

/// Records a lockstep pair's wall time as two `plan_exec` spans, one per
/// run, so the phase still counts one sample per run.
fn record_pair_exec(profile: &mut PhaseProfile, started: Instant) {
    let half = started.elapsed().as_secs_f64() / 2.0;
    profile.record(ExecPhase::PlanExec, half);
    profile.record(ExecPhase::PlanExec, half);
}

/// Folds one run's report into the scenario's sink accumulator.
fn fold_run<S: MetricsSink>(
    scenario: &Scenario,
    run: u32,
    deploy: &DeployState,
    report: &RunReport,
    partial: &mut S::Partial,
    profile: Option<&mut PhaseProfile>,
) {
    let record = RunRecord {
        scenario,
        run,
        accuracy: deploy.accuracy,
        report,
    };
    let t0 = profile.is_some().then(Instant::now);
    S::fold(partial, &record);
    if let (Some(p), Some(t0)) = (profile, t0) {
        p.record(ExecPhase::SinkFold, t0.elapsed().as_secs_f64());
    }
}

/// Runs one networked scenario: every device of the topology executes
/// `runs` intermittent inferences on the scenario's shared deployment
/// and execution plan, each under its [`SharedField`] share of the
/// harvest field, while a [`TimelineRecorder`] probe captures the
/// device's dark intervals and completion times. The assembled
/// [`WorldSim`] then resolves the gateway's polling schedule into one
/// `SloOutcome`, folded via [`MetricsSink::fold_slo`].
///
/// Devices never interact mid-run — the field is allocated up front and
/// the gateway only observes recorded timelines — so the result is a
/// pure function of the scenario at any worker count. Devices `d` and
/// `d + 1` run in lockstep pairs on their own sessions (an odd last
/// device, and every device in `reference` mode, runs alone); records
/// are folded and timelines added in device order. Device 0 keeps the
/// scenario seed (which is what makes a single-device topology
/// reproduce the solo executor's records bit for bit); higher ids salt
/// it so no two devices replay the same stochastic waveform.
#[allow(clippy::too_many_arguments)]
fn run_world_scenario<S: MetricsSink>(
    scenario: &Scenario,
    deploy: &DeployState,
    executor: &IntermittentExecutor,
    fault: &FaultPlan,
    runs: u32,
    reference: bool,
    partial: &mut S::Partial,
    mut profile: Option<&mut PhaseProfile>,
) -> Result<(), Error> {
    let topology = scenario.topology;
    let field = SharedField::for_topology(&topology);
    let mut world = WorldSim::new(topology);
    // A device's share of the field, and the supply of one of its runs.
    let environment = |device: u32| {
        let scale = field.scale(device);
        // Scaling by exactly 1.0 is a bitwise identity, but skipping it
        // keeps the single-device fast path obvious.
        if scale == 1.0 {
            scenario.environment.clone()
        } else {
            scenario.environment.scaled(scale)
        }
    };
    let supply = |env: &Environment, device: u32, run: u64| {
        if env.is_stochastic() {
            let device_seed = scenario
                .seed
                .wrapping_add(u64::from(device).wrapping_mul(0xD1B5_4A32_D192_ED03));
            env.reseeded(mix(device_seed, run)).supply()
        } else {
            env.supply()
        }
    };
    let record_id = |device: u32, run: u64| device * runs + run as u32;
    let mut recorder = TimelineRecorder::new();
    let mut partner_recorder = TimelineRecorder::new();
    let mut device = 0;
    while device < topology.devices {
        let env = environment(device);
        let mut session = open_session(scenario, deploy, reference);
        let mut timeline = DeviceTimeline::new();
        if !reference && device + 1 < topology.devices {
            let partner_id = device + 1;
            let partner_env = environment(partner_id);
            let mut partner = open_session(scenario, deploy, false);
            let mut partner_timeline = DeviceTimeline::new();
            // The partner's records fold after all of this device's, so
            // its reports wait here — all but the last, so a one-run
            // world allocates nothing per device.
            let mut held = Vec::new();
            let mut last = None;
            for run in 0..u64::from(runs) {
                let t0 = profile.is_some().then(Instant::now);
                let [a, b] = session.infer_intermittent_pair(
                    Some(&mut partner),
                    executor,
                    [
                        &mut supply(&env, device, run),
                        &mut supply(&partner_env, partner_id, run),
                    ],
                    fault,
                    (&mut recorder, &mut partner_recorder),
                );
                if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t0) {
                    record_pair_exec(p, t0);
                }
                timeline.push_run(&recorder.take());
                partner_timeline.push_run(&partner_recorder.take());
                let id = record_id(device, run);
                fold_run::<S>(scenario, id, deploy, &a, partial, profile.as_deref_mut());
                held.extend(last.replace(b));
            }
            for (run, r) in held.iter().chain(&last).enumerate() {
                let id = record_id(partner_id, run as u64);
                fold_run::<S>(scenario, id, deploy, r, partial, profile.as_deref_mut());
            }
            world.add_device(device, timeline);
            world.add_device(partner_id, partner_timeline);
            device += 2;
        } else {
            for run in 0..u64::from(runs) {
                let mut supply = supply(&env, device, run);
                let t0 = profile.is_some().then(Instant::now);
                let r = if reference {
                    session.infer_intermittent_faulted_reference_probed(
                        executor,
                        &mut supply,
                        fault,
                        &mut recorder,
                    )
                } else {
                    session.infer_intermittent_faulted_probed(
                        executor,
                        &mut supply,
                        fault,
                        &mut recorder,
                    )
                };
                if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t0) {
                    p.record(ExecPhase::PlanExec, t0.elapsed().as_secs_f64());
                }
                timeline.push_run(&recorder.take());
                let id = record_id(device, run);
                fold_run::<S>(scenario, id, deploy, &r, partial, profile.as_deref_mut());
            }
            world.add_device(device, timeline);
            device += 1;
        }
    }
    let outcome = world.resolve();
    let t0 = profile.is_some().then(Instant::now);
    S::fold_slo(partial, &outcome);
    if let (Some(p), Some(t0)) = (profile, t0) {
        p.record(ExecPhase::SinkFold, t0.elapsed().as_secs_f64());
    }
    Ok(())
}

/// SplitMix64-style mix of (scenario seed, run index) — the per-run
/// reseed the runner applies to stochastic environments. Public so
/// external harnesses (e.g. the `exec_plan` bench) can replay exactly
/// the supplies a fleet sweep would see.
pub fn mix(seed: u64, run: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(run.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CsvSink, DigestSink, GroupAxis, GroupBySink, JsonlSink};
    use crate::scenario::Workload;
    use ehdl::ehsim::{catalog, ExecutorConfig};
    use ehdl::Strategy;

    fn quick_executor() -> ExecutorConfig {
        ExecutorConfig {
            stall_outages: 6,
            ..ExecutorConfig::default()
        }
    }

    #[test]
    fn invalid_executor_config_is_rejected_before_the_sweep() {
        let matrix = ScenarioMatrix::new().executor(ExecutorConfig {
            stall_outages: 0,
            ..ExecutorConfig::default()
        });
        let err = FleetRunner::new(2).run(&matrix).unwrap_err();
        assert!(
            matches!(err, ehdl::Error::Config(_)),
            "want a typed config error, got {err}"
        );
        assert!(err.to_string().contains("stall_outages"), "{err}");
        // A NaN wall clock would disable the time limit silently.
        let matrix = ScenarioMatrix::new().executor(ExecutorConfig {
            max_wall_seconds: f64::NAN,
            ..ExecutorConfig::default()
        });
        assert!(FleetRunner::new(1).run(&matrix).is_err());
    }

    #[test]
    fn empty_matrix_yields_empty_report() {
        let matrix = ScenarioMatrix::new().environments(vec![]);
        let report = FleetRunner::new(4).run(&matrix).unwrap();
        assert!(report.is_empty());
        assert_eq!(report.total_runs(), 0);
        let digest = FleetRunner::builder()
            .sink(DigestSink::new())
            .run(&matrix)
            .unwrap();
        assert_eq!(digest.scenarios, 0);
    }

    #[test]
    fn bench_supply_flex_completes_and_reports() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply()])
            .workloads(vec![Workload::Har { samples: 6 }])
            .executor(quick_executor());
        let report = FleetRunner::new(2).run(&matrix).unwrap();
        assert_eq!(report.len(), 1);
        let s = &report.scenarios[0];
        assert_eq!(s.completed_runs, 1);
        assert_eq!(s.outages, 0, "bench supply never browns out");
        assert_eq!(s.latencies_ms.len(), 1);
        assert!(s.latencies_ms[0] > 0.0);
        assert!(s.energy_nj > 0.0);
        assert!((s.forward_progress() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stochastic_runs_vary_but_deterministic_runs_replay() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::office_rf()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .strategies(vec![Strategy::Sonic])
            .runs(2)
            .executor(quick_executor());
        let a = FleetRunner::new(1).run(&matrix).unwrap();
        let b = FleetRunner::new(1).run(&matrix).unwrap();
        // Reproducible across identical sweeps…
        assert_eq!(a, b);
        // …and the per-run reseeding makes burst runs differ from each
        // other (two identical latencies would mean the reseed is dead).
        let lat = &a.scenarios[0].latencies_ms;
        if lat.len() == 2 {
            assert_ne!(lat[0], lat[1]);
        }
    }

    #[test]
    fn reference_executor_reproduces_the_planned_report() {
        // The plan fast path and the op-by-op interpreter must agree bit
        // for bit over a matrix mixing strategies, environments and
        // seeds (two seeds exercise the cross-seed plan sharing).
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::piezo_gait()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .seeds(vec![0, 3])
            .runs(2)
            .executor(quick_executor());
        let planned = FleetRunner::new(2).run(&matrix).unwrap();
        let reference = FleetRunner::new(2)
            .reference_executor(true)
            .run(&matrix)
            .unwrap();
        assert_eq!(planned, reference);
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::piezo_gait()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .executor(quick_executor());
        let one = FleetRunner::new(1).run(&matrix).unwrap();
        let four = FleetRunner::new(4).run(&matrix).unwrap();
        assert_eq!(one, four);
        assert_eq!(one.to_string(), four.to_string());
    }

    #[test]
    fn builder_full_report_matches_run() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::piezo_gait()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .executor(quick_executor());
        let classic = FleetRunner::new(3).run(&matrix).unwrap();
        let built = FleetRunner::builder()
            .workers(3)
            .build()
            .run(&matrix)
            .unwrap();
        assert_eq!(classic, built);
        let sunk = FleetRunner::builder()
            .workers(3)
            .sink(FullReportSink::new())
            .run(&matrix)
            .unwrap();
        assert_eq!(classic, sunk);
    }

    #[test]
    fn digest_sink_agrees_with_the_full_report() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::piezo_gait()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .runs(2)
            .executor(quick_executor());
        let full = FleetRunner::new(2).run(&matrix).unwrap();
        let digest = FleetRunner::builder()
            .workers(2)
            .sink(DigestSink::new())
            .run(&matrix)
            .unwrap();
        assert_eq!(digest.scenarios as usize, full.len());
        assert_eq!(digest.runs, full.total_runs());
        assert_eq!(digest.completed_runs, full.completed_runs());
        assert_eq!(digest.outages, full.total_outages());
        assert_eq!(digest.latency_ms.count(), full.completed_runs());
        assert!((digest.total_energy_mj() - full.total_energy_mj()).abs() < 1e-9);
        // Sketched percentiles sit within the documented bound of the
        // exact ones.
        let exact = full.latency_percentile_ms(50.0).unwrap();
        let est = digest.latency_ms.p50().unwrap();
        assert!((est - exact).abs() / exact <= crate::StatsDigest::RELATIVE_ERROR);
    }

    #[test]
    fn grouped_and_row_sinks_cover_every_run() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::piezo_gait()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .runs(2)
            .executor(quick_executor());
        let grouped = FleetRunner::builder()
            .workers(2)
            .sink(GroupBySink::new(GroupAxis::Environment))
            .run(&matrix)
            .unwrap();
        assert_eq!(grouped.groups.len(), 2);
        assert_eq!(grouped.groups[0].0, "bench_supply");
        assert_eq!(
            grouped.groups.iter().map(|(_, d)| d.runs).sum::<u64>(),
            matrix.len() as u64 * 2
        );
        let (bytes, rows) = FleetRunner::builder()
            .workers(2)
            .sink(JsonlSink::new(Vec::new()))
            .run(&matrix)
            .unwrap();
        assert_eq!(rows, matrix.len() as u64 * 2);
        assert_eq!(String::from_utf8(bytes).unwrap().lines().count(), 8);
        let (bytes, rows) = FleetRunner::builder()
            .workers(2)
            .sink(CsvSink::new(Vec::new()))
            .run(&matrix)
            .unwrap();
        assert_eq!(rows, 8);
        assert_eq!(String::from_utf8(bytes).unwrap().lines().count(), 9);
    }

    #[test]
    fn profiled_sweep_report_is_bit_identical_and_counts_caches() {
        // 2 envs (one stochastic) × 2 strategies × 2 seeds × 2 runs.
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::office_rf()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .seeds(vec![0, 3])
            .runs(2)
            .executor(quick_executor());
        let plain = FleetRunner::builder()
            .workers(1)
            .sink(DigestSink::new())
            .run(&matrix)
            .unwrap();
        let (profiled, profile) = FleetRunner::builder()
            .workers(1)
            .sink(DigestSink::new())
            .run_profiled(&matrix)
            .unwrap();
        // The profile is a pure side channel.
        assert_eq!(plain, profiled);

        // Built models: one per (workload, seed) = 2, shared by both
        // strategies, looked up once per scenario (8).
        assert_eq!(profile.caches.deployment.entries, 2);
        assert_eq!(profile.caches.deployment.misses, 2);
        assert_eq!(profile.caches.deployment.hits, 6);
        // Plans: shared across seeds = 2 entries, also looked up once
        // per scenario.
        assert_eq!(profile.caches.plan.entries, 2);
        assert_eq!(profile.caches.plan.misses, 2);
        assert_eq!(profile.caches.plan.hits, 6);
        // Traces: only the deterministic env records — 2 (plan, env)
        // pairs over 2 seeds × 2 runs = 8 lookups.
        assert_eq!(profile.caches.trace.entries, 2);
        assert_eq!(profile.caches.trace.misses, 2);
        assert_eq!(profile.caches.trace.hits, 6);

        // Every run was timed exactly once: 8 deterministic lookups +
        // 8 stochastic runs.
        assert_eq!(
            profile.plan_exec_s.count() + profile.trace_replay_s.count(),
            16
        );
        // Sink folds: one per run plus one coordinator merge per
        // scenario.
        assert_eq!(profile.sink_fold_s.count(), 16 + 8);
        assert!(profile.total_seconds() > 0.0);

        // At any worker count the report stays identical and cache
        // totals are conserved (the trace hit/miss split may shift).
        let (profiled4, profile4) = FleetRunner::builder()
            .workers(4)
            .sink(DigestSink::new())
            .run_profiled(&matrix)
            .unwrap();
        assert_eq!(plain, profiled4);
        assert_eq!(profile4.caches.deployment, profile.caches.deployment);
        assert_eq!(profile4.caches.plan, profile.caches.plan);
        assert_eq!(
            profile4.caches.trace.lookups(),
            profile.caches.trace.lookups()
        );

        // The profile survives its wire format bit-identically.
        let back = PhaseProfile::from_json(&profile.to_json()).unwrap();
        assert_eq!(back, profile);
    }

    #[test]
    fn range_profiles_merge_to_the_whole_sweep_counts() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::piezo_gait()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .executor(quick_executor());
        let runner = FleetRunner::new(1);
        let (_, whole) = runner
            .run_profiled_with_sink(&matrix, DigestSink::new())
            .unwrap();
        let mut merged = PhaseProfile::new();
        let mid = matrix.len() / 2;
        for range in [0..mid, mid..matrix.len()] {
            let (_, part) = runner
                .run_range_profiled_with_sink(&matrix, range, DigestSink::new())
                .unwrap();
            merged.merge(&part);
        }
        // Lookups and span counts reassemble exactly. Built-model keys
        // are (workload, seed), not contiguous over ranges: both halves
        // (one strategy, so one plan, each) build the one model.
        assert_eq!(
            merged.caches.deployment.lookups(),
            whole.caches.deployment.lookups()
        );
        assert!(merged.caches.deployment.misses >= whole.caches.deployment.misses);
        assert_eq!(merged.caches.plan, whole.caches.plan);
        assert_eq!(merged.caches.trace.lookups(), whole.caches.trace.lookups());
        for phase in ehdl::ehsim::ExecPhase::ALL {
            assert_eq!(
                merged.digest(phase).count(),
                whole.digest(phase).count(),
                "{}",
                phase.name()
            );
        }
    }

    #[test]
    fn energy_budget_aborts_are_counted_by_sinks() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .executor(ExecutorConfig {
                // Far below one accelerated inference (~120 µJ).
                energy_budget_nj: Some(1_000.0),
                ..quick_executor()
            });
        let report = FleetRunner::new(1).run(&matrix).unwrap();
        assert_eq!(report.scenarios[0].completed_runs, 0);
        assert_eq!(report.scenarios[0].energy_limited_runs, 1);
        let digest = FleetRunner::builder()
            .workers(1)
            .sink(DigestSink::new())
            .run(&matrix)
            .unwrap();
        assert_eq!(digest.energy_limited_runs, 1);
        assert_eq!(digest.completed_runs, 0);
    }
}
