//! The traced pass: a single-threaded replica of the fleet runner that
//! calls each layer's public functions itself, in the runner's order,
//! and records a span around every call.
//!
//! No span lives inside the program: a layer's time is the time of the
//! calls into it. The replica folds into a `DigestSink` like the runner
//! does, so its digest must equal the runner's bit for bit — the check
//! that the replica still times the program's real work.

use crate::workloads::Spec;
use ehdl::ace::{AceProgram, QuantizedModel};
use ehdl::compress::normalize;
use ehdl::deployment::quantized_accuracy;
use ehdl::ehsim::{
    ExecutionPlan, FaultPlan, Integrity, IntermittentExecutor, RunTrace, TimelineRecorder,
};
use ehdl::nn::Tensor;
use ehdl::{BoardSpec, Deployment, Strategy};
use ehdl_fleet::{
    mix, DigestSink, FleetDigest, MetricsSink, PhaseProfile, RunRecord, Scenario, SharedField,
    Workload, WorldSim,
};
use ehdl_netsim::DeviceTimeline;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Marks a span with no parent.
const ROOT: u32 = u32::MAX;

/// One timed call: name, start and end (ns since the pass began), the
/// index of the enclosing span, and the scenario it served.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub scenario: u32,
}

/// Keeps every span in memory; nothing is written until the pass ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        scenario: u32,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            scenario,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Call count and self time (span time not covered by child spans) per
/// span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != ROOT {
            child_ns[span.parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for (span, child) in spans.iter().zip(child_ns) {
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += (span.end_ns - span.start_ns).saturating_sub(child) as f64 * 1e-9;
    }
    out
}

/// Spans as JSON lines, one object per span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for span in spans {
        let parent = if span.parent == ROOT {
            "null".to_string()
        } else {
            span.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"scenario\": {}}}",
            span.name, span.start_ns, span.end_ns, span.scenario
        );
    }
    out
}

/// The traced pass's outputs.
pub struct Traced {
    pub digest: FleetDigest,
    pub wall_s: f64,
    pub tracer: Tracer,
    /// Charge-solve and checkpoint/restore spans the executor reports to
    /// its probe from inside live runs.
    pub probe: PhaseProfile,
    pub wire_bytes: u64,
    pub calibrations: u64,
    pub distinct_calibrations: u64,
}

struct Deployed {
    deployment: Deployment,
    accuracy: f64,
    plan_slot: usize,
}

type PlanKey = (Workload, BoardSpec, Strategy, Integrity);

/// Everything the pass shares across scenarios, as the runner does.
struct State<'s> {
    spec: &'s Spec,
    executors: Vec<IntermittentExecutor>,
    faults: Vec<FaultPlan>,
    deployments: BTreeMap<usize, Deployed>,
    plans: Vec<(PlanKey, Arc<ExecutionPlan>)>,
    traces: BTreeMap<(usize, usize, usize, usize), RunTrace>,
    sink: DigestSink,
    probe: PhaseProfile,
    wire_bytes: u64,
    /// Distinct (workload, seed) pairs calibrated: the matrix's calibration
    /// recipe is shared, so these are the distinct calibration inputs.
    calibration_keys: Vec<(Workload, u64)>,
    calibrations: u64,
}

/// Runs the traced replica over the whole matrix on this thread.
pub fn run(spec: &Spec) -> Result<Traced, String> {
    let matrix = &spec.matrix;
    let executors = matrix
        .energy_budget_axis()
        .iter()
        .map(|budget| {
            let mut config = spec.executor.clone();
            if let Some(nj) = *budget {
                config.energy_budget_nj = Some(nj);
            }
            IntermittentExecutor::new(config)
        })
        .collect();
    let faults = matrix.fault_axis().iter().map(FaultPlan::compile).collect();
    let mut state = State {
        spec,
        executors,
        faults,
        deployments: BTreeMap::new(),
        plans: Vec::new(),
        traces: BTreeMap::new(),
        sink: DigestSink::new(),
        probe: PhaseProfile::new(),
        wire_bytes: 0,
        calibration_keys: Vec::new(),
        calibrations: 0,
    };
    let mut tracer = Tracer::new();
    let started = Instant::now();
    for scenario in matrix.scenarios() {
        let id = scenario.index as u32;
        tracer.span("run.scenario", id, |t| state.scenario(t, &scenario, id))?;
    }
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Traced {
        digest: state.sink.finish().map_err(|e| e.to_string())?,
        wall_s,
        tracer,
        probe: state.probe,
        wire_bytes: state.wire_bytes,
        calibrations: state.calibrations,
        distinct_calibrations: state.calibration_keys.len() as u64,
    })
}

impl State<'_> {
    fn scenario(&mut self, t: &mut Tracer, scenario: &Scenario, id: u32) -> Result<(), String> {
        let key = scenario.deployment_key();
        if !self.deployments.contains_key(&key) {
            let built = t.span("fleet.deploy", id, |t| self.deploy(t, scenario, id))?;
            self.deployments.insert(key, built);
        }
        let deployed = &self.deployments[&key];
        let mut partial = t.span("fleet.sink_open", id, |_| {
            self.sink.open(scenario, deployed.accuracy)
        });
        let plan = &self.plans[deployed.plan_slot].1;
        let executor = &self.executors[scenario.budget_key()];
        let fault = &self.faults[scenario.fault_key()];
        let runs = self.spec.runs;
        if scenario.topology.is_solo() {
            let mut session = t.span("core.session", id, |_| {
                deployed.deployment.session_with_plan(Arc::clone(plan))
            });
            let trace_key = (!scenario.environment.is_stochastic()).then_some((
                deployed.plan_slot,
                scenario.environment_key(),
                scenario.budget_key(),
                scenario.fault_key(),
            ));
            for run in 0..u64::from(runs) {
                let report = match trace_key {
                    Some(tk) => match self.traces.get(&tk) {
                        Some(trace) => t.span("ehsim.replay", id, |_| {
                            session.infer_intermittent_replay(executor, trace)
                        }),
                        None => {
                            let mut supply = scenario.environment.supply();
                            let probe = &mut self.probe;
                            let (report, trace) = t.span("ehsim.live", id, |_| {
                                session.infer_intermittent_faulted_traced_probed(
                                    executor,
                                    &mut supply,
                                    fault,
                                    probe,
                                )
                            });
                            self.traces.insert(tk, trace);
                            report
                        }
                    },
                    None => {
                        let env = scenario.environment.reseeded(mix(scenario.seed, run));
                        let mut supply = env.supply();
                        let probe = &mut self.probe;
                        t.span("ehsim.live", id, |_| {
                            session.infer_intermittent_faulted_probed(
                                executor,
                                &mut supply,
                                fault,
                                probe,
                            )
                        })
                    }
                };
                let record = RunRecord {
                    scenario,
                    run: run as u32,
                    accuracy: deployed.accuracy,
                    report: &report,
                };
                t.span("fleet.sink_fold", id, |_| {
                    DigestSink::fold(&mut partial, &record)
                });
            }
        } else {
            // The runner's networked path: every device runs under its
            // share of the field, a timeline recorder watches each run,
            // and the world resolves the gateway's polls at the end.
            let topology = scenario.topology;
            let field = t.span("netsim.field", id, |_| SharedField::for_topology(&topology));
            let mut world = WorldSim::new(topology);
            let mut probe = (TimelineRecorder::new(), PhaseProfile::new());
            for device in 0..topology.devices {
                let scale = field.scale(device);
                let env = if scale == 1.0 {
                    scenario.environment.clone()
                } else {
                    scenario.environment.scaled(scale)
                };
                // The runner's per-device seed salt: device 0 keeps the
                // scenario seed.
                let device_seed = scenario
                    .seed
                    .wrapping_add(u64::from(device).wrapping_mul(0xD1B5_4A32_D192_ED03));
                let mut session = t.span("core.session", id, |_| {
                    deployed.deployment.session_with_plan(Arc::clone(plan))
                });
                let mut timeline = DeviceTimeline::new();
                for run in 0..u64::from(runs) {
                    let run_env = if env.is_stochastic() {
                        env.reseeded(mix(device_seed, run))
                    } else {
                        env.clone()
                    };
                    let mut supply = run_env.supply();
                    let report = t.span("ehsim.live", id, |_| {
                        session.infer_intermittent_faulted_probed(
                            executor,
                            &mut supply,
                            fault,
                            &mut probe,
                        )
                    });
                    timeline.push_run(&probe.0.take());
                    let record = RunRecord {
                        scenario,
                        run: device * runs + run as u32,
                        accuracy: deployed.accuracy,
                        report: &report,
                    };
                    t.span("fleet.sink_fold", id, |_| {
                        DigestSink::fold(&mut partial, &record)
                    });
                }
                world.add_device(device, timeline);
            }
            self.probe.merge(&probe.1);
            let outcome = t.span("netsim.resolve", id, |_| world.resolve());
            t.span("fleet.sink_fold", id, |_| {
                DigestSink::fold_slo(&mut partial, &outcome)
            });
        }
        // Each scenario's partial crosses the shard wire format before it
        // merges, as a sharded sweep's records do.
        let json = t.span("fleet.wire_encode", id, |_| partial.to_json());
        self.wire_bytes += json.len() as u64;
        let parsed = t.span("fleet.wire_parse", id, |_| FleetDigest::from_json(&json))?;
        t.span("fleet.sink_merge", id, |_| self.sink.merge(parsed))
            .map_err(|e| e.to_string())
    }

    /// Builds one deployment the way `DeploymentBuilder::build` does, then
    /// prices its accuracy and compiles (or reuses) its execution plan,
    /// as the runner's deployment cache does on a miss.
    fn deploy(&mut self, t: &mut Tracer, scenario: &Scenario, id: u32) -> Result<Deployed, String> {
        let calibration = self.spec.calibration;
        self.calibrations += 1;
        let calibrated = (scenario.workload, scenario.seed);
        if !self.calibration_keys.contains(&calibrated) {
            self.calibration_keys.push(calibrated);
        }
        let data = t.span("datasets.build", id, |_| {
            scenario.workload.dataset(scenario.seed)
        });
        let mut model = t.span("nn.model", id, |_| scenario.workload.model());
        let inputs: Vec<Tensor> = data
            .samples()
            .iter()
            .take(calibration.samples)
            .map(|s| s.input.clone())
            .collect();
        let normalized = t.span("compress.calibrate", id, |_| {
            normalize::normalize_model(&mut model, &inputs, calibration.percentile)
        });
        let normalized = normalized.map_err(|e| e.to_string())?;
        let quantized = t
            .span("ace.quantize", id, |_| QuantizedModel::from_model(&model))
            .map_err(|e| e.to_string())?;
        let program = t
            .span("ace.compile", id, |_| AceProgram::compile(&quantized))
            .map_err(|e| e.to_string())?;
        let deployment = Deployment::from_parts(
            quantized,
            program,
            normalized,
            scenario.board.clone(),
            scenario.strategy,
        );
        let accuracy = t
            .span("core.accuracy", id, |_| {
                quantized_accuracy(deployment.quantized(), &data)
            })
            .map_err(|e| e.to_string())?;
        let key = (
            scenario.workload,
            scenario.board.clone(),
            scenario.strategy,
            scenario.integrity,
        );
        let plan_slot = match self.plans.iter().position(|(k, _)| *k == key) {
            Some(slot) => slot,
            None => {
                let lowered = t.span("flex.lower", id, |_| {
                    scenario
                        .strategy
                        .lower(deployment.quantized(), deployment.program())
                });
                let board = scenario.board.board();
                let plan = t.span("ehsim.plan", id, |_| {
                    ExecutionPlan::compile_with_integrity(lowered, &board, scenario.integrity)
                });
                self.plans.push((key, Arc::new(plan)));
                self.plans.len() - 1
            }
        };
        Ok(Deployed {
            deployment,
            accuracy,
            plan_slot,
        })
    }
}
