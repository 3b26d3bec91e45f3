//! The intermittent executor: programs vs. the capacitor.

use crate::fault::{FaultKind, FaultPlan, FaultState, FaultTally, OpFault};
use crate::harvester::{Harvester, SlotMemo};
use crate::integrity::{self, Integrity, IntegrityState, IntegrityTally, WearCurve};
use crate::plan::ExecutionPlan;
use crate::probe::{ExecEvent, ExecPhase, ExecProbe, NullProbe, SpanTimer};
use crate::program::Program;
use crate::{Capacitor, PowerSupply};
use core::fmt;
use ehdl_device::{Board, Component, Cost, Cycles, DeviceOp, Energy, EnergyMeter, VoltageMonitor};

/// Tunables for an intermittent run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorConfig {
    /// Give up after this many power failures.
    pub max_outages: u64,
    /// Give up after this many consecutive outages with no committed
    /// progress — how BASE and bare ACE earn their "✗" in Figure 7(b).
    pub stall_outages: u64,
    /// `None` (the default): dark recharge phases are fast-forwarded
    /// analytically — the wake time is solved in closed form from
    /// [`Capacitor::joules_to_boot`] and
    /// [`Harvester::time_to_energy_within`], so an outage costs
    /// O(waveform segments crossed) regardless of how long the device
    /// stays dark. `Some(step)`: the legacy quantized integrator — the
    /// dark phase advances in fixed `step`-second increments and the
    /// device wakes at the first step boundary where the capacitor can
    /// boot (retained for reproducing pre-solver trajectories and as
    /// the property-test oracle for the solver).
    pub charge_step_s: Option<f64>,
    /// Hard cap on simulated wall-clock time.
    pub max_wall_seconds: f64,
    /// Per-run energy budget in nanojoules: the run aborts with
    /// [`RunOutcome::EnergyLimit`] once the energy drawn from the
    /// capacitor (ops, checkpoints and restores) exceeds this, the way
    /// a deployment scored against a joule budget would be cut off.
    /// `None` (the default) disables the budget. The check sits next to
    /// the wall-clock check — before each op attempt — so the budget
    /// can be overshot by whatever one loop iteration spends after the
    /// last check (up to an on-demand checkpoint plus the op that
    /// crossed it, or a post-outage restore), and a run whose final op
    /// tips over still counts as completed.
    pub energy_budget_nj: Option<f64>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            max_outages: 1_000_000,
            stall_outages: 50,
            charge_step_s: None,
            max_wall_seconds: 7200.0,
            energy_budget_nj: None,
        }
    }
}

impl ExecutorConfig {
    /// Checks the tunables for values that would hang or never trigger:
    /// a non-finite or non-positive legacy `charge_step_s` (the stepped
    /// dark loop would stall in place), a non-finite or non-positive
    /// `max_wall_seconds` (a NaN limit disables the wall clock
    /// entirely), and `stall_outages == 0` (every first outage would be
    /// declared a stall). A negative or non-finite `energy_budget_nj`
    /// is rejected for the same reason.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExecutorConfigError`] found, in field order.
    pub fn validate(&self) -> Result<(), ExecutorConfigError> {
        if self.stall_outages == 0 {
            return Err(ExecutorConfigError::ZeroStallOutages);
        }
        if let Some(step) = self.charge_step_s {
            if !(step > 0.0 && step.is_finite()) {
                return Err(ExecutorConfigError::BadChargeStep(step));
            }
        }
        if !(self.max_wall_seconds > 0.0 && self.max_wall_seconds.is_finite()) {
            return Err(ExecutorConfigError::BadWallLimit(self.max_wall_seconds));
        }
        if let Some(budget) = self.energy_budget_nj {
            if !(budget >= 0.0 && budget.is_finite()) {
                return Err(ExecutorConfigError::BadEnergyBudget(budget));
            }
        }
        Ok(())
    }
}

/// An [`ExecutorConfig`] that would hang the simulation or misfire its
/// limits, rejected when an executor is constructed.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ExecutorConfigError {
    /// `stall_outages` is zero: every first outage would count as a
    /// stall and abort the run as `NoProgress`.
    ZeroStallOutages,
    /// The legacy `charge_step_s` is non-positive or not finite: the
    /// stepped dark loop would never advance time.
    BadChargeStep(f64),
    /// `max_wall_seconds` is non-positive or not finite: a NaN or
    /// infinite limit silently disables the wall clock.
    BadWallLimit(f64),
    /// `energy_budget_nj` is negative or not finite.
    BadEnergyBudget(f64),
}

impl fmt::Display for ExecutorConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutorConfigError::ZeroStallOutages => {
                write!(f, "stall_outages must be at least 1")
            }
            ExecutorConfigError::BadChargeStep(step) => {
                write!(f, "charge_step_s must be positive and finite, got {step}")
            }
            ExecutorConfigError::BadWallLimit(limit) => write!(
                f,
                "max_wall_seconds must be positive and finite, got {limit}"
            ),
            ExecutorConfigError::BadEnergyBudget(budget) => write!(
                f,
                "energy_budget_nj must be non-negative and finite, got {budget}"
            ),
        }
    }
}

impl std::error::Error for ExecutorConfigError {}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// All ops executed.
    Completed,
    /// Consecutive outages without progress — the inference can never
    /// finish under this supply (insufficient per-discharge energy for
    /// the distance between commit points).
    NoProgress,
    /// The outage budget was exhausted.
    OutageLimit,
    /// The simulated time budget was exhausted.
    TimeLimit,
    /// The per-run energy budget
    /// ([`ExecutorConfig::energy_budget_nj`]) was exhausted.
    EnergyLimit,
}

impl RunOutcome {
    /// `true` for [`RunOutcome::Completed`].
    pub fn is_completed(self) -> bool {
        self == RunOutcome::Completed
    }

    /// A stable snake_case token for machine-readable streams (the
    /// `Display` form is for humans and may carry decoration).
    pub fn label(self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::NoProgress => "no_progress",
            RunOutcome::OutageLimit => "outage_limit",
            RunOutcome::TimeLimit => "time_limit",
            RunOutcome::EnergyLimit => "energy_limit",
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RunOutcome::Completed => "completed",
            RunOutcome::NoProgress => "no progress (✗)",
            RunOutcome::OutageLimit => "outage limit",
            RunOutcome::TimeLimit => "time limit",
            RunOutcome::EnergyLimit => "energy limit",
        })
    }
}

/// Everything measured during one intermittent run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Number of power failures.
    pub outages: u64,
    /// On-demand (voltage-triggered) checkpoints taken.
    pub ondemand_checkpoints: u64,
    /// Restores performed after outages.
    pub restores: u64,
    /// Ops executed, including re-execution after rollbacks.
    pub executed_ops: u64,
    /// Ops whose work was lost to rollbacks (re-executed later).
    pub wasted_ops: u64,
    /// Cycles spent computing (excludes charging) — Figure 7(b)'s metric.
    pub active_cycles: Cycles,
    /// Seconds spent computing.
    pub active_seconds: f64,
    /// Seconds spent dark, waiting for the capacitor.
    pub charging_seconds: f64,
    /// Total simulated wall-clock seconds.
    pub wall_seconds: f64,
    /// Total energy drawn from the capacitor.
    pub energy: Energy,
    /// Energy attributed to checkpoint/restore traffic (§IV-A.5).
    pub checkpoint_energy: Energy,
    /// Full per-component breakdown.
    pub meter: EnergyMeter,
    /// Injected-fault accounting — all zeros unless the run was driven
    /// through a faulted entry point with an enabled
    /// [`FaultPlan`](crate::FaultPlan).
    pub faults: FaultTally,
    /// Checkpoint payload integrity accounting (bit flips, repairs,
    /// recovery-ladder depths) — all zeros unless the run was driven
    /// through a faulted entry point with bit-flips armed or a
    /// non-`None` [`Integrity`] scheme.
    pub integrity: IntegrityTally,
}

impl RunReport {
    /// `true` if the inference finished.
    pub fn completed(&self) -> bool {
        self.outcome.is_completed()
    }

    /// End-to-end latency in milliseconds for a **completed** run, else
    /// `None` — the value latency aggregations fold (aborted runs have a
    /// wall-clock but no meaningful inference latency).
    pub fn latency_ms(&self) -> Option<f64> {
        self.completed().then_some(self.wall_seconds * 1e3)
    }

    /// Checkpoint overhead as a fraction of total energy.
    pub fn checkpoint_overhead(&self) -> f64 {
        if self.energy.nanojoules() == 0.0 {
            0.0
        } else {
            self.checkpoint_energy.nanojoules() / self.energy.nanojoules()
        }
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} outages, {} ondemand ckpts, active {:.2} ms, charging {:.2} ms, {}",
            self.outcome,
            self.outages,
            self.ondemand_checkpoints,
            self.active_seconds * 1e3,
            self.charging_seconds * 1e3,
            self.energy
        )
    }
}

/// Replays [`Program`]s against a [`PowerSupply`].
///
/// # Example
///
/// ```
/// use ehdl_device::{Board, DeviceOp};
/// use ehdl_ehsim::{
///     Capacitor, CheckpointSpec, ExecutorConfig, Harvester, IntermittentExecutor,
///     PowerSupply, Program,
/// };
///
/// let mut program = Program::new("tiny");
/// for _ in 0..100 {
///     program.push(DeviceOp::CpuOps { count: 1000 }, CheckpointSpec::COMMIT);
/// }
/// let mut board = Board::msp430fr5994();
/// let mut supply = PowerSupply::new(
///     Harvester::constant(0.002),
///     Capacitor::paper_100uf(),
/// );
/// let report = IntermittentExecutor::new(ExecutorConfig::default())
///     .run(&program, &mut board, &mut supply);
/// assert!(report.completed());
/// ```
#[derive(Debug, Clone, Default)]
pub struct IntermittentExecutor {
    config: ExecutorConfig,
}

impl IntermittentExecutor {
    /// Creates an executor with the given tunables.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ExecutorConfig::validate`]); use [`try_new`](Self::try_new) to
    /// handle the error instead.
    pub fn new(config: ExecutorConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("invalid executor config: {e}"))
    }

    /// Creates an executor, rejecting configurations that would hang
    /// the simulation or misfire its limits.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExecutorConfigError`] of
    /// [`ExecutorConfig::validate`].
    pub fn try_new(config: ExecutorConfig) -> Result<Self, ExecutorConfigError> {
        config.validate()?;
        Ok(IntermittentExecutor { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Runs `program` on `board` powered by `supply`.
    ///
    /// Compiles a throwaway [`ExecutionPlan`] and replays it — identical
    /// results to the op-by-op interpreter, priced once up front. Callers
    /// replaying the same program many times should compile the plan
    /// themselves (or hold a `DeviceSession`, which does) and call
    /// [`run_plan`](Self::run_plan) to amortize the pricing pass.
    ///
    /// The board's meter keeps accumulating across calls; use
    /// [`Board::reset_clock`] between runs for isolated measurements.
    pub fn run(&self, program: &Program, board: &mut Board, supply: &mut PowerSupply) -> RunReport {
        let plan = ExecutionPlan::compile(program.clone(), board);
        self.run_plan(&plan, board, supply)
    }

    /// Replays a compiled [`ExecutionPlan`] on `board` powered by
    /// `supply`.
    ///
    /// The run is one *lane* of the planned executor: a state machine
    /// whose step makes one op attempt against the plan's flat cost
    /// arrays and the capacitor — no cost-table lookups, no `DeviceOp`
    /// dispatch. The capacitor is copied out of `supply` for the run and
    /// written back at its end. A segment is a special op (one that
    /// commits or allows an on-demand checkpoint) plus the plain ops
    /// after it; each completed segment is reported as one
    /// [`ExecEvent::SegmentRetired`]. On-demand checkpoints, outages,
    /// dark phases, restores and the recovery ladder run out of line.
    /// [`run_plan_pair`](Self::run_plan_pair) drives two lanes in
    /// lockstep. Results are bit-identical to
    /// [`run_unplanned`](Self::run_unplanned) on the same inputs.
    ///
    /// The plan must have been compiled against a board with the same
    /// cost table as `board` (checked against the clock in debug builds).
    pub fn run_plan(
        &self,
        plan: &ExecutionPlan,
        board: &mut Board,
        supply: &mut PowerSupply,
    ) -> RunReport {
        self.run_plan_inner(plan, board, supply, &mut NullProbe, &FaultPlan::NONE)
    }

    /// [`run_plan`](Self::run_plan) under a seeded [`FaultPlan`]: the
    /// executor consults the plan's SplitMix64 decision stream at every
    /// op attempt (spurious reset / voltage sag), every successful
    /// on-demand commit (torn write) and every restore (slot
    /// corruption), tallying injections into
    /// [`RunReport::faults`]. With [`FaultPlan::NONE`] this is
    /// bit-identical to [`run_plan`](Self::run_plan).
    pub fn run_plan_faulted(
        &self,
        plan: &ExecutionPlan,
        board: &mut Board,
        supply: &mut PowerSupply,
        fault: &FaultPlan,
    ) -> RunReport {
        self.run_plan_inner(plan, board, supply, &mut NullProbe, fault)
    }

    /// [`run_plan_faulted`](Self::run_plan_faulted) with an
    /// [`ExecProbe`] observing the run — injected faults additionally
    /// emit [`ExecEvent::FaultInjected`] /
    /// [`ExecEvent::CorruptionDetected`] events.
    pub fn run_plan_faulted_probed<P: ExecProbe>(
        &self,
        plan: &ExecutionPlan,
        board: &mut Board,
        supply: &mut PowerSupply,
        fault: &FaultPlan,
        probe: &mut P,
    ) -> RunReport {
        self.run_plan_inner(plan, board, supply, probe, fault)
    }

    /// [`run_plan`](Self::run_plan) with an [`ExecProbe`] observing the
    /// run: the probe receives sim-time-stamped [`ExecEvent`]s (boots,
    /// brown-outs, commits, dark skips, run end) and — if it is
    /// [`TIMED`](ExecProbe::TIMED) — wall-clock spans for the charge
    /// solver and checkpoint/restore phases.
    ///
    /// Probes observe only: the report (and the board/supply state) is
    /// bit-identical to [`run_plan`](Self::run_plan) whatever the probe
    /// does. With [`NullProbe`](crate::NullProbe) this monomorphizes to
    /// exactly the unprobed loop.
    pub fn run_plan_probed<P: ExecProbe>(
        &self,
        plan: &ExecutionPlan,
        board: &mut Board,
        supply: &mut PowerSupply,
        probe: &mut P,
    ) -> RunReport {
        self.run_plan_inner(plan, board, supply, probe, &FaultPlan::NONE)
    }

    /// [`run_plan`](Self::run_plan), additionally recording the ordered
    /// sequence of applied costs as a [`RunTrace`].
    ///
    /// Against a *deterministic* supply (any harvester whose output is a
    /// pure function of time — everything except a re-seeded burst
    /// source), a run is a pure function of (plan, supply): replaying
    /// the trace with [`replay_trace`](Self::replay_trace) reproduces
    /// the run bit for bit at a fraction of the cost. Fleet sweeps use
    /// this to execute each (plan, environment) trajectory once and
    /// replay it across every seed, run and worker.
    pub fn run_plan_traced(
        &self,
        plan: &ExecutionPlan,
        board: &mut Board,
        supply: &mut PowerSupply,
    ) -> (RunReport, RunTrace) {
        self.run_plan_traced_inner(plan, board, supply, &mut NullProbe, &FaultPlan::NONE)
    }

    /// [`run_plan_traced`](Self::run_plan_traced) with an [`ExecProbe`]
    /// observing the recording run (see
    /// [`run_plan_probed`](Self::run_plan_probed)). The recorded trace
    /// and report are bit-identical to the unprobed call.
    pub fn run_plan_traced_probed<P: ExecProbe>(
        &self,
        plan: &ExecutionPlan,
        board: &mut Board,
        supply: &mut PowerSupply,
        probe: &mut P,
    ) -> (RunReport, RunTrace) {
        self.run_plan_traced_inner(plan, board, supply, probe, &FaultPlan::NONE)
    }

    /// [`run_plan_traced`](Self::run_plan_traced) under a seeded
    /// [`FaultPlan`]. A faulted run is still a pure function of
    /// (plan, supply, fault seed) against a deterministic supply: every
    /// fault effect either applies an op's *nominal* board cost through
    /// the step sink or applies no cost at all, so replaying the trace
    /// reproduces the faulted run bit for bit (the template report
    /// carries the fault tally).
    pub fn run_plan_faulted_traced(
        &self,
        plan: &ExecutionPlan,
        board: &mut Board,
        supply: &mut PowerSupply,
        fault: &FaultPlan,
    ) -> (RunReport, RunTrace) {
        self.run_plan_traced_inner(plan, board, supply, &mut NullProbe, fault)
    }

    /// [`run_plan_faulted_traced`](Self::run_plan_faulted_traced) with an
    /// [`ExecProbe`] observing the recording run.
    pub fn run_plan_faulted_traced_probed<P: ExecProbe>(
        &self,
        plan: &ExecutionPlan,
        board: &mut Board,
        supply: &mut PowerSupply,
        fault: &FaultPlan,
        probe: &mut P,
    ) -> (RunReport, RunTrace) {
        self.run_plan_traced_inner(plan, board, supply, probe, fault)
    }

    fn run_plan_traced_inner<P: ExecProbe>(
        &self,
        plan: &ExecutionPlan,
        board: &mut Board,
        supply: &mut PowerSupply,
        probe: &mut P,
        fault: &FaultPlan,
    ) -> (RunReport, RunTrace) {
        let mut lane = Lane::new(
            self,
            plan,
            board,
            supply,
            TraceRecorder::new(true),
            probe,
            fault,
        );
        lane.run();
        let (report, recorder) = lane.finish();
        let trace = recorder.into_trace(plan, &report);
        (report, trace)
    }

    /// Runs two independent live runs of `plan` in lockstep on one
    /// thread — one op attempt from each in turn — so the CPU overlaps
    /// the two capacitor dependency chains. Each run is a `(board,
    /// supply, probe)` triple on its own board; when one run ends, the
    /// other continues alone. Both runs consult `fault`, each from a
    /// fresh decision stream, exactly as a solo run does.
    ///
    /// Every report, board, supply and probe event stream is
    /// bit-identical to running `a` then `b` through
    /// [`run_plan_faulted_probed`](Self::run_plan_faulted_probed). With
    /// `trace_b`, run `b` is also recorded, as
    /// [`run_plan_faulted_traced_probed`](Self::run_plan_faulted_traced_probed)
    /// would record it. That is how a caller puts both runs on one
    /// board: run `b` on a scratch copy of the board, then replay its
    /// trace with [`replay_trace`](Self::replay_trace) after `a`.
    pub fn run_plan_pair<PA: ExecProbe, PB: ExecProbe>(
        &self,
        plan: &ExecutionPlan,
        fault: &FaultPlan,
        a: (&mut Board, &mut PowerSupply, &mut PA),
        b: (&mut Board, &mut PowerSupply, &mut PB),
        trace_b: bool,
    ) -> (RunReport, RunReport, Option<RunTrace>) {
        let (board_a, supply_a, probe_a) = a;
        let (board_b, supply_b, probe_b) = b;
        let mut lane_a = Lane::new(self, plan, board_a, supply_a, NoTrace, probe_a, fault);
        let recorder = TraceRecorder::new(trace_b);
        let mut lane_b = Lane::new(self, plan, board_b, supply_b, recorder, probe_b, fault);
        lockstep(&mut lane_a, &mut lane_b);
        let (report_b, recorder) = lane_b.finish();
        let trace = trace_b.then(|| recorder.into_trace(plan, &report_b));
        (lane_a.finish().0, report_b, trace)
    }

    /// Replays a recorded [`RunTrace`] on `board`: applies the exact
    /// sequence of per-op meter records the original run performed (so
    /// the board's meter and clock advance bit-identically) and returns
    /// the report that run would produce on this board.
    ///
    /// Valid only when the run being replaced is deterministic — same
    /// plan, an identical supply whose harvester is a pure function of
    /// time, and the same executor configuration as the recording run.
    /// The capacitor dynamics are not re-simulated; the caller owns the
    /// supply and must treat it as consumed.
    ///
    /// # Panics
    ///
    /// Panics if `trace` was recorded from a plan of a different shape
    /// (op or checkpoint count mismatch) — decoding its steps against
    /// this plan would silently meter garbage.
    pub fn replay_trace(
        &self,
        plan: &ExecutionPlan,
        trace: &RunTrace,
        board: &mut Board,
    ) -> RunReport {
        assert_eq!(
            (trace.op_count as usize, trace.checkpoint_count as usize),
            (plan.len(), plan.checkpoints.len()),
            "trace was recorded from a differently shaped plan"
        );
        let meter_before = board.meter().clone();
        for run in &trace.runs {
            match run.mark {
                TraceMark::None => {}
                TraceMark::Restore => {
                    board.apply_cost(Component::Checkpoint, plan.restore_cost().cost());
                }
                TraceMark::Checkpoint(slot) => {
                    board.apply_cost(
                        Component::Checkpoint,
                        plan.checkpoints[slot as usize].cost(),
                    );
                }
            }
            for i in run.first as usize..run.end as usize {
                board.apply_cost(
                    plan.component[i],
                    Cost {
                        cycles: Cycles::new(plan.cycles[i]),
                        energy: Energy::from_nanojoules(plan.energy_nj[i]),
                    },
                );
            }
        }
        // The dynamics (outcome, timing, op counts) are cached; the
        // meter share is re-derived against this board's prior tallies,
        // exactly as a live run would compute it.
        let meter = diff_meters(board.meter(), &meter_before);
        let mut report = trace.template.clone();
        report.energy = meter.total_energy();
        report.checkpoint_energy = meter.energy_of(Component::Checkpoint);
        report.meter = meter;
        report
    }

    fn run_plan_inner<P: ExecProbe>(
        &self,
        plan: &ExecutionPlan,
        board: &mut Board,
        supply: &mut PowerSupply,
        probe: &mut P,
        fault: &FaultPlan,
    ) -> RunReport {
        let mut lane = Lane::new(self, plan, board, supply, NoTrace, probe, fault);
        lane.run();
        lane.finish().0
    }

    /// Runs `program` op by op, pricing every op against the board as it
    /// goes — the original interpreter, retained as the reference
    /// implementation that parity suites diff [`run_plan`](Self::run_plan)
    /// against. Prefer [`run`](Self::run): same results, priced once.
    pub fn run_unplanned(
        &self,
        program: &Program,
        board: &mut Board,
        supply: &mut PowerSupply,
    ) -> RunReport {
        self.run_unplanned_inner(
            program,
            board,
            supply,
            &mut NullProbe,
            &FaultPlan::NONE,
            Integrity::None,
        )
    }

    /// [`run_unplanned`](Self::run_unplanned) under a seeded
    /// [`FaultPlan`] — the reference-path twin of
    /// [`run_plan_faulted`](Self::run_plan_faulted). Both paths advance
    /// the same decision stream at the same logical points (one draw per
    /// op attempt, per successful commit, per restore), so a faulted
    /// planned run and its faulted reference run stay bit-identical.
    pub fn run_unplanned_faulted(
        &self,
        program: &Program,
        board: &mut Board,
        supply: &mut PowerSupply,
        fault: &FaultPlan,
    ) -> RunReport {
        self.run_unplanned_inner(
            program,
            board,
            supply,
            &mut NullProbe,
            fault,
            Integrity::None,
        )
    }

    /// [`run_unplanned_faulted`](Self::run_unplanned_faulted) under a
    /// checkpoint payload [`Integrity`] scheme — the reference-path twin
    /// of [`run_plan_faulted`](Self::run_plan_faulted) on a plan
    /// compiled with
    /// [`compile_with_integrity`](ExecutionPlan::compile_with_integrity):
    /// checkpoints and restores pay the scheme's padded word counts, and
    /// restores walk the same recovery ladder, so the two paths stay
    /// bit-identical scheme by scheme.
    pub fn run_unplanned_faulted_integrity(
        &self,
        program: &Program,
        board: &mut Board,
        supply: &mut PowerSupply,
        fault: &FaultPlan,
        scheme: Integrity,
    ) -> RunReport {
        self.run_unplanned_inner(program, board, supply, &mut NullProbe, fault, scheme)
    }

    /// [`run_unplanned_faulted_integrity`](Self::run_unplanned_faulted_integrity)
    /// with an [`ExecProbe`] observing the run.
    pub fn run_unplanned_faulted_integrity_probed<P: ExecProbe>(
        &self,
        program: &Program,
        board: &mut Board,
        supply: &mut PowerSupply,
        fault: &FaultPlan,
        scheme: Integrity,
        probe: &mut P,
    ) -> RunReport {
        self.run_unplanned_inner(program, board, supply, probe, fault, scheme)
    }

    /// [`run_unplanned_faulted`](Self::run_unplanned_faulted) with an
    /// [`ExecProbe`] observing the run.
    pub fn run_unplanned_faulted_probed<P: ExecProbe>(
        &self,
        program: &Program,
        board: &mut Board,
        supply: &mut PowerSupply,
        fault: &FaultPlan,
        probe: &mut P,
    ) -> RunReport {
        self.run_unplanned_inner(program, board, supply, probe, fault, Integrity::None)
    }

    /// [`run_unplanned`](Self::run_unplanned) with an [`ExecProbe`]
    /// observing the run — the reference-path twin of
    /// [`run_plan_probed`](Self::run_plan_probed), emitting the same
    /// events except [`SegmentRetired`](ExecEvent::SegmentRetired) (the
    /// op-by-op interpreter has no segments); the `slot` of a
    /// [`CheckpointCommit`](ExecEvent::CheckpointCommit) is the program
    /// op index the checkpoint fired ahead of, since the reference path
    /// has no deduplicated checkpoint slots.
    pub fn run_unplanned_probed<P: ExecProbe>(
        &self,
        program: &Program,
        board: &mut Board,
        supply: &mut PowerSupply,
        probe: &mut P,
    ) -> RunReport {
        self.run_unplanned_inner(
            program,
            board,
            supply,
            probe,
            &FaultPlan::NONE,
            Integrity::None,
        )
    }

    fn run_unplanned_inner<P: ExecProbe>(
        &self,
        program: &Program,
        board: &mut Board,
        supply: &mut PowerSupply,
        probe: &mut P,
        fault: &FaultPlan,
        scheme: Integrity,
    ) -> RunReport {
        let clock = board.costs().clock_hz;
        let monitor = board.monitor();
        let ops = program.ops();
        let n = ops.len();
        let budget_nj = self.config.energy_budget_nj.unwrap_or(f64::INFINITY);

        let meter_before = board.meter().clone();
        let mut t = 0.0f64;
        let mut i = 0usize;
        let mut committed = 0usize;
        let mut outages = 0u64;
        let mut wasted = 0u64;
        let mut executed = 0u64;
        let mut ondemand = 0u64;
        let mut restores = 0u64;
        let mut active_cycles = 0u64;
        let mut charging_s = 0.0f64;
        let mut committed_at_last_outage = usize::MAX;
        let mut stall = 0u64;
        let mut spent_nj = 0.0f64;

        // Fault machinery — mirrors the plan lane draw for draw so a
        // faulted reference run stays in bit parity with the plan path.
        let faulting = fault.enabled();
        let mut fstate = fault.state();
        let mut faults = FaultTally::default();
        let mut prev_committed = 0usize;

        // Payload-integrity machinery, mirroring the plan lane.
        let iactive = faulting && (fault.flips_armed() || scheme != Integrity::None);
        let payload_bits = program.restore_words() as u64 * 16;
        let wear = WearCurve {
            endurance_commits: fault.wear_endurance(),
        };
        let mut istate = IntegrityState::new();
        let mut itally = IntegrityTally::default();

        let outcome = 'run: loop {
            if i >= n {
                break 'run RunOutcome::Completed;
            }
            if t > self.config.max_wall_seconds {
                break 'run RunOutcome::TimeLimit;
            }
            if spent_nj > budget_nj {
                break 'run RunOutcome::EnergyLimit;
            }

            let mut failed = false;
            let mut spurious = false;

            // On-demand (voltage-triggered) checkpoint before op i.
            if let Some(words) = ops[i].spec.ondemand_words {
                if committed < i && monitor.warns(supply.capacitor().volts()) {
                    let ck = DeviceOp::Checkpoint {
                        words: scheme.padded_words(words as u64),
                    };
                    let span = SpanTimer::start::<P>();
                    let committed_now = self.try_execute(
                        &ck,
                        board,
                        supply,
                        &mut t,
                        clock,
                        &mut active_cycles,
                        &mut spent_nj,
                        None,
                    );
                    span.finish(probe, ExecPhase::CheckpointRestore);
                    if committed_now {
                        executed += 1;
                        if faulting && fault.tears(&mut fstate) {
                            // Paid for, but power died before the slot's
                            // commit marker flipped: the previous
                            // checkpoint still stands.
                            faults.torn_commits += 1;
                            probe.event(ExecEvent::FaultInjected {
                                t,
                                kind: FaultKind::TornCommit,
                            });
                            failed = true;
                        } else {
                            // Checkpoint committed atomically
                            // (double-buffered in FRAM): progress up to
                            // i is now durable.
                            prev_committed = committed;
                            committed = i;
                            ondemand += 1;
                            probe.event(ExecEvent::CheckpointCommit { t, slot: i as u32 });
                            if faulting && fault.flips_armed() {
                                commit_flips(
                                    fault,
                                    &mut fstate,
                                    &mut istate,
                                    &mut itally,
                                    wear,
                                    payload_bits,
                                    t,
                                    probe,
                                );
                            }
                        }
                    }
                    // If it failed, the previous checkpoint still stands;
                    // fall through and let the op attempt trigger the
                    // outage path.
                }
            }

            if !failed {
                let pop = &ops[i];
                let mut sag = None;
                if faulting {
                    match fault.op_fault(&mut fstate) {
                        OpFault::Reset => {
                            // Power glitches before the op runs: time
                            // passes (harvest keeps flowing), no energy
                            // drains, no work happens.
                            let cost = board.cost(&pop.op);
                            let dt = cost.cycles.raw() as f64 / clock;
                            let harvested = supply.harvester().energy_over(t, dt);
                            supply.capacitor_mut().charge_joules(harvested);
                            t += dt;
                            faults.spurious_resets += 1;
                            probe.event(ExecEvent::FaultInjected {
                                t,
                                kind: FaultKind::SpuriousReset,
                            });
                            failed = true;
                            spurious = true;
                        }
                        OpFault::Sag => {
                            faults.sag_ops += 1;
                            probe.event(ExecEvent::FaultInjected {
                                t,
                                kind: FaultKind::VoltageSag,
                            });
                            sag = Some(fault.sag_factor());
                        }
                        OpFault::None => {}
                    }
                }
                if !failed {
                    if self.try_execute(
                        &pop.op,
                        board,
                        supply,
                        &mut t,
                        clock,
                        &mut active_cycles,
                        &mut spent_nj,
                        sag,
                    ) {
                        executed += 1;
                        if pop.spec.commits {
                            prev_committed = committed;
                            committed = i + 1;
                            if faulting && fault.flips_armed() {
                                commit_flips(
                                    fault,
                                    &mut fstate,
                                    &mut istate,
                                    &mut itally,
                                    wear,
                                    payload_bits,
                                    t,
                                    probe,
                                );
                            }
                        }
                        i += 1;
                        continue;
                    }
                    failed = true;
                }
            }
            debug_assert!(failed);

            // ---- power failure ----
            outages += 1;
            wasted += (i - committed) as u64;
            if !spurious {
                supply.capacitor_mut().collapse_to_off();
            }
            probe.event(ExecEvent::BrownOut { t });

            if committed == committed_at_last_outage {
                stall += 1;
            } else {
                stall = 0;
            }
            committed_at_last_outage = committed;
            if stall >= self.config.stall_outages {
                break 'run RunOutcome::NoProgress;
            }
            if outages >= self.config.max_outages {
                break 'run RunOutcome::OutageLimit;
            }

            // ---- dark charging phase ----
            {
                let (harvester, capacitor) = supply.parts_mut();
                let dark_t0 = t;
                let dark_joules = if P::ENABLED {
                    capacitor.joules_to_boot().max(0.0)
                } else {
                    0.0
                };
                let span = SpanTimer::start::<P>();
                let booted = self.charge_until_boot(harvester, capacitor, &mut t, &mut charging_s);
                span.finish(probe, ExecPhase::ChargeSolve);
                probe.event(ExecEvent::DarkSkip {
                    t0: dark_t0,
                    t1: t,
                    joules: dark_joules,
                });
                if !booted {
                    break 'run RunOutcome::TimeLimit;
                }
            }

            // ---- restore ----
            let span = SpanTimer::start::<P>();
            let restore = DeviceOp::Restore {
                words: scheme.padded_words(program.restore_words() as u64),
            };
            // Freshly booted at v_on: the restore always fits.
            let cost = board.execute(&restore);
            spent_nj += cost.energy.nanojoules();
            supply
                .capacitor_mut()
                .drain_joules(cost.energy.nanojoules() * 1e-9);
            t += cost.cycles.raw() as f64 / clock;
            active_cycles += cost.cycles.raw();
            restores += 1;
            if iactive {
                resolve_restore_ladder(
                    scheme,
                    fault,
                    &mut fstate,
                    &mut istate,
                    &mut itally,
                    &mut faults,
                    &mut committed,
                    &mut prev_committed,
                    &mut wasted,
                    t,
                    probe,
                );
            } else if faulting && fault.corrupts(&mut fstate) {
                // The freshest slot reads corrupt. The commit bitset /
                // slot versioning detects it, and the runtime falls back
                // to the previous durable commit (cold boot if none).
                faults.corrupt_restores += 1;
                faults.detected_corruptions += 1;
                wasted += (committed - prev_committed) as u64;
                committed = prev_committed;
                if committed == 0 {
                    faults.cold_boots += 1;
                }
                probe.event(ExecEvent::CorruptionDetected { t });
            }
            i = committed;
            span.finish(probe, ExecPhase::CheckpointRestore);
            probe.event(ExecEvent::Boot { t });
        };

        if outcome == RunOutcome::EnergyLimit {
            probe.event(ExecEvent::EnergyLimit { t });
        }
        probe.event(ExecEvent::RunEnd { t, outcome });

        if iactive {
            itally.wear_max_commits = istate.max_writes();
        }

        // Report only this run's share.
        let meter = diff_meters(board.meter(), &meter_before);

        RunReport {
            outcome,
            outages,
            ondemand_checkpoints: ondemand,
            restores,
            executed_ops: executed,
            wasted_ops: wasted,
            active_cycles: Cycles::new(active_cycles),
            active_seconds: active_cycles as f64 / clock,
            charging_seconds: charging_s,
            wall_seconds: t,
            energy: meter.total_energy(),
            checkpoint_energy: meter.energy_of(Component::Checkpoint),
            meter,
            faults,
            integrity: itally,
        }
    }

    /// Attempts one op: harvests over its duration, checks the budget,
    /// executes and drains on success (tallying the drawn energy into
    /// `spent_nj`). Returns `false` on power failure (capacitor
    /// collapsed by the caller). A `sag` factor inflates the energy the
    /// op draws from the capacitor (an injected voltage-sag fault); the
    /// board meter keeps the nominal cost either way.
    #[allow(clippy::too_many_arguments)]
    fn try_execute(
        &self,
        op: &DeviceOp,
        board: &mut Board,
        supply: &mut PowerSupply,
        t: &mut f64,
        clock: f64,
        active_cycles: &mut u64,
        spent_nj: &mut f64,
        sag: Option<f64>,
    ) -> bool {
        let cost = board.cost(op);
        let dt = cost.cycles.raw() as f64 / clock;
        let harvested = supply.harvester().energy_over(*t, dt);
        supply.capacitor_mut().charge_joules(harvested);
        let (need_j, drawn_nj) = match sag {
            Some(factor) => (
                cost.energy.nanojoules() * 1e-9 * factor,
                cost.energy.nanojoules() * factor,
            ),
            None => (cost.energy.nanojoules() * 1e-9, cost.energy.nanojoules()),
        };
        if supply.capacitor().usable_joules() < need_j {
            // Dies partway through the op; time passes anyway.
            *t += dt;
            return false;
        }
        supply.capacitor_mut().drain_joules(need_j);
        board.execute(op);
        *spent_nj += drawn_nj;
        *t += dt;
        *active_cycles += cost.cycles.raw();
        true
    }

    /// The dark phase: advances `t` and `charging_s` until the
    /// capacitor can boot, or until the wall-clock limit — in which
    /// case `t` and `charging_s` are clamped **at** the limit and
    /// `false` is returned (the run ends as
    /// [`RunOutcome::TimeLimit`]).
    ///
    /// Shared verbatim by both executor paths so their float arithmetic
    /// is identical and `run_plan` / `run_unplanned` stay bit-for-bit
    /// in parity. Two modes (see [`ExecutorConfig::charge_step_s`]):
    ///
    /// * **analytic** (default): one closed-form solve — the capacitor
    ///   deficit from [`Capacitor::joules_to_boot`] fed to
    ///   [`Harvester::time_to_energy_within`], bounded by the remaining
    ///   wall budget. The capacitor wakes *exactly* at its boot
    ///   threshold, and the cost is independent of how long the dark
    ///   phase lasts.
    /// * **stepped** (legacy): fixed-step integration, waking at the
    ///   first step boundary where the capacitor can boot; the final
    ///   step is clamped to the wall limit instead of overshooting it.
    fn charge_until_boot(
        &self,
        harvester: &Harvester,
        capacitor: &mut Capacitor,
        t: &mut f64,
        charging_s: &mut f64,
    ) -> bool {
        let max_wall = self.config.max_wall_seconds;
        match self.config.charge_step_s {
            Some(step) => {
                while !capacitor.can_boot() {
                    let dt = step.min(max_wall - *t);
                    if dt <= 0.0 {
                        return false;
                    }
                    let harvested = harvester.energy_over(*t, dt);
                    capacitor.charge_joules(harvested);
                    *t += dt;
                    *charging_s += dt;
                }
                true
            }
            None => {
                let needed = capacitor.joules_to_boot();
                if needed <= 0.0 {
                    return true;
                }
                let horizon = max_wall - *t;
                let dt = harvester.time_to_energy_within(*t, needed, horizon);
                if dt > horizon || dt.is_nan() {
                    // Unreachable within the wall budget (or ever):
                    // report the run dark up to the limit, exactly.
                    let clamp = horizon.max(0.0);
                    *t += clamp;
                    *charging_s += clamp;
                    return false;
                }
                capacitor.recharge_to_on();
                *t += dt;
                *charging_s += dt;
                true
            }
        }
    }
}

/// The ordered cost-application sequence of one run (ops, on-demand
/// checkpoints, restores) plus the report it produced — everything
/// needed to replay a *deterministic* run bit-identically without
/// re-simulating the capacitor. Produced by
/// [`IntermittentExecutor::run_plan_traced`], consumed by
/// [`IntermittentExecutor::replay_trace`].
///
/// The sequence is run-length encoded against the plan the trace was
/// recorded from. Each entry is an optional restore or on-demand
/// checkpoint (by the plan's deduplicated checkpoint index) followed by
/// a `[first, end)` range of plan ops applied in order. Ops only ever
/// advance one by one between a restore or checkpoint and the next, so
/// a trace holds at most one entry per restore or applied checkpoint,
/// plus one: O(outages + checkpoints) entries of 16 bytes, however many
/// ops the run executed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    runs: Vec<TraceRun>,
    /// Applied costs, summed over the runs.
    len: usize,
    /// Shape of the plan the trace was recorded from; replays against a
    /// differently shaped plan are rejected rather than decoded wrong.
    op_count: u32,
    checkpoint_count: u32,
    template: RunReport,
}

impl RunTrace {
    /// Number of applied costs (executed ops + checkpoints + restores).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the run applied no costs at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The report the recording run produced (its meter share reflects
    /// the recording board; replays re-derive theirs).
    pub fn report(&self) -> &RunReport {
        &self.template
    }
}

/// One run-length-encoded [`RunTrace`] entry: `mark`'s cost, then plan
/// ops `first..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TraceRun {
    mark: TraceMark,
    first: u32,
    end: u32,
}

/// The checkpoint-component cost a [`TraceRun`] applies before its ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceMark {
    None,
    Restore,
    /// The plan's `k`-th deduplicated on-demand checkpoint.
    Checkpoint(u32),
}

/// Recording hook threaded through the plan executor's lane.
/// [`NoTrace`] is a zero-sized no-op the optimizer erases, so the
/// untraced path pays nothing.
trait StepSink {
    fn op(&mut self, i: u32);
    fn checkpoint(&mut self, slot: u32);
    fn restore(&mut self);
}

struct NoTrace;

impl StepSink for NoTrace {
    #[inline(always)]
    fn op(&mut self, _i: u32) {}
    #[inline(always)]
    fn checkpoint(&mut self, _slot: u32) {}
    #[inline(always)]
    fn restore(&mut self) {}
}

/// Builds a [`RunTrace`]'s run-length encoding when `on`; an off
/// recorder records nothing (the second lane of an untraced pair).
struct TraceRecorder {
    on: bool,
    runs: Vec<TraceRun>,
    len: usize,
}

impl TraceRecorder {
    fn new(on: bool) -> Self {
        TraceRecorder {
            on,
            runs: Vec::new(),
            len: 0,
        }
    }

    fn mark(&mut self, mark: TraceMark) {
        if !self.on {
            return;
        }
        self.len += 1;
        self.runs.push(TraceRun {
            mark,
            first: 0,
            end: 0,
        });
    }

    fn into_trace(self, plan: &ExecutionPlan, report: &RunReport) -> RunTrace {
        RunTrace {
            runs: self.runs,
            len: self.len,
            op_count: plan.len() as u32,
            checkpoint_count: plan.checkpoints.len() as u32,
            template: report.clone(),
        }
    }
}

impl StepSink for TraceRecorder {
    #[inline]
    fn op(&mut self, i: u32) {
        if !self.on {
            return;
        }
        self.len += 1;
        if let Some(run) = self.runs.last_mut() {
            if run.first == run.end {
                // A fresh mark's empty range starts at this op.
                run.first = i;
                run.end = i;
            }
            if run.end == i {
                run.end = i + 1;
                return;
            }
        }
        self.runs.push(TraceRun {
            mark: TraceMark::None,
            first: i,
            end: i + 1,
        });
    }
    #[inline]
    fn checkpoint(&mut self, slot: u32) {
        self.mark(TraceMark::Checkpoint(slot));
    }
    #[inline]
    fn restore(&mut self) {
        self.mark(TraceMark::Restore);
    }
}

/// How one op attempt ended.
enum Attempt {
    /// The op ran and was paid for.
    Ran,
    /// The capacitor could not cover the op: a brown-out.
    Died,
    /// An injected spurious reset pre-empted the op.
    Reset,
}

/// One live run of a plan: the planned executor's state machine.
/// [`step`](Lane::step) makes one op attempt; everything else — the
/// on-demand checkpoint once the monitor warns, commit bit flips,
/// outages, the dark phase, restores and the recovery ladder — runs out
/// of line. The capacitor is held by value for the run and written
/// back by [`finish`](Lane::finish): reaching it through the supply
/// would put a store and a reload on its dependency chain every op.
struct Lane<'a, S: StepSink, P: ExecProbe> {
    exec: &'a IntermittentExecutor,
    plan: &'a ExecutionPlan,
    board: &'a mut Board,
    harvester: &'a Harvester,
    /// Where the capacitor's final state is written back.
    home: &'a mut Capacitor,
    sink: S,
    probe: &'a mut P,
    fault: &'a FaultPlan,
    monitor: VoltageMonitor,
    cap: Capacitor,
    harvest: SlotMemo,
    meter_before: EnergyMeter,

    // The plan's per-op arrays and the run limits, bound once.
    durations: &'a [f64],
    needs: &'a [f64],
    cycles_of: &'a [u64],
    energy_of: &'a [f64],
    component_of: &'a [Component],
    max_wall: f64,
    budget_nj: f64,

    // Per-op state.
    t: f64,
    i: usize,
    /// First op of the segment in flight.
    seg_start: usize,
    /// End of the segment's trailing plain ops: the next step begins a
    /// new segment once `i` reaches it.
    seg_end: usize,
    spent_nj: f64,
    active_cycles: u64,
    executed: u64,

    // Commit and outage state.
    committed: usize,
    /// The commit level *before* the latest commit — where a detected
    /// corrupt restore falls back to.
    prev_committed: usize,
    committed_at_last_outage: usize,
    stall: u64,
    outages: u64,
    wasted: u64,
    ondemand: u64,
    restores: u64,
    charging_s: f64,

    // Fault machinery: `faulting` gates every fault branch so a disabled
    // plan leaves the arithmetic untouched. Payload integrity is live
    // (`iactive`) only on faulted runs with bit flips armed or a
    // non-`None` scheme; otherwise every restore takes the legacy
    // corrupt branch bit-identically.
    faulting: bool,
    fstate: FaultState,
    faults: FaultTally,
    iactive: bool,
    payload_bits: u64,
    wear: WearCurve,
    istate: IntegrityState,
    itally: IntegrityTally,

    /// Why the run ended, once [`step`](Lane::step) returned `false`.
    outcome: RunOutcome,
}

impl<'a, S: StepSink, P: ExecProbe> Lane<'a, S, P> {
    fn new(
        exec: &'a IntermittentExecutor,
        plan: &'a ExecutionPlan,
        board: &'a mut Board,
        supply: &'a mut PowerSupply,
        sink: S,
        probe: &'a mut P,
        fault: &'a FaultPlan,
    ) -> Self {
        debug_assert_eq!(
            plan.clock_hz(),
            board.costs().clock_hz,
            "plan compiled for a different board clock"
        );
        let n = plan.len();
        let (harvester, home) = supply.parts_mut();
        let faulting = fault.enabled();
        Lane {
            monitor: board.monitor(),
            cap: home.clone(),
            harvest: SlotMemo::new(harvester),
            meter_before: board.meter().clone(),
            durations: &plan.duration_s[..n],
            needs: &plan.need_j[..n],
            cycles_of: &plan.cycles[..n],
            energy_of: &plan.energy_nj[..n],
            component_of: &plan.component[..n],
            max_wall: exec.config.max_wall_seconds,
            budget_nj: exec.config.energy_budget_nj.unwrap_or(f64::INFINITY),
            t: 0.0,
            i: 0,
            seg_start: 0,
            seg_end: 0,
            spent_nj: 0.0,
            active_cycles: 0,
            executed: 0,
            committed: 0,
            prev_committed: 0,
            committed_at_last_outage: usize::MAX,
            stall: 0,
            outages: 0,
            wasted: 0,
            ondemand: 0,
            restores: 0,
            charging_s: 0.0,
            faulting,
            fstate: fault.state(),
            faults: FaultTally::default(),
            iactive: faulting && (fault.flips_armed() || plan.integrity() != Integrity::None),
            payload_bits: plan.program().restore_words() as u64 * 16,
            wear: WearCurve {
                endurance_commits: fault.wear_endurance(),
            },
            istate: IntegrityState::new(),
            itally: IntegrityTally::default(),
            outcome: RunOutcome::Completed,
            exec,
            plan,
            board,
            harvester,
            home,
            sink,
            probe,
            fault,
        }
    }

    /// Steps the lane until its run ends. One out-of-line loop per lane
    /// type, shared by solo runs and the survivor of a lockstep pair.
    #[inline(never)]
    fn run(&mut self) {
        while self.step() {}
    }

    /// Makes one op attempt (with the on-demand checkpoint and commit
    /// of a segment's first op, and the outage path if it fails).
    /// Returns `false` once the run has ended.
    #[inline(always)]
    fn step(&mut self) -> bool {
        let head = self.i >= self.seg_end;
        if head {
            if self.i >= self.plan.len() {
                return self.end(RunOutcome::Completed);
            }
            self.seg_start = self.i;
        }
        if self.t > self.max_wall {
            return self.end(RunOutcome::TimeLimit);
        }
        if self.spent_nj > self.budget_nj {
            return self.end(RunOutcome::EnergyLimit);
        }
        if head {
            if let Some(slot) = self.plan.ondemand_slot(self.i) {
                // On-demand (voltage-triggered) checkpoint before op i.
                if self.committed < self.i
                    && self.monitor.warns(self.cap.volts())
                    && self.checkpoint(slot)
                {
                    return self.outage(false);
                }
            }
        }
        match self.attempt() {
            Attempt::Ran => {}
            Attempt::Died => return self.outage(false),
            Attempt::Reset => return self.outage(true),
        }
        if head && self.plan.commits(self.i) {
            self.prev_committed = self.committed;
            self.committed = self.i + 1;
            if self.faulting && self.fault.flips_armed() {
                self.commit_flips();
            }
        }
        self.i += 1;
        if head {
            self.seg_end = self.plan.plain_run_end(self.i);
        }
        if self.i >= self.seg_end {
            self.probe.event(ExecEvent::SegmentRetired {
                t: self.t,
                start: self.seg_start as u32,
                end: self.i as u32,
            });
        }
        true
    }

    /// Attempts op `i`: draws its fault, harvests over its duration,
    /// and executes and drains on success. A sagged op draws
    /// `sag_factor` times its nominal energy from the capacitor; the
    /// board meter keeps the nominal cost (the silicon did the same
    /// work).
    #[inline(always)]
    fn attempt(&mut self) -> Attempt {
        let i = self.i;
        let mut need = self.needs[i];
        let mut drawn_nj = self.energy_of[i];
        if self.faulting {
            match self.fault.op_fault(&mut self.fstate) {
                OpFault::Reset => {
                    self.spurious_reset();
                    return Attempt::Reset;
                }
                OpFault::Sag => {
                    self.faults.sag_ops += 1;
                    self.probe.event(ExecEvent::FaultInjected {
                        t: self.t,
                        kind: FaultKind::VoltageSag,
                    });
                    need *= self.fault.sag_factor();
                    drawn_nj *= self.fault.sag_factor();
                }
                OpFault::None => {}
            }
        }
        let dt = self.durations[i];
        let harvested = self.harvest.energy_over(self.harvester, self.t, dt);
        self.cap.charge_joules(harvested);
        if self.cap.usable_joules() < need {
            // Dies partway through the op; time passes anyway.
            self.t += dt;
            return Attempt::Died;
        }
        self.cap.drain_joules(need);
        self.board.apply_cost(
            self.component_of[i],
            Cost {
                cycles: Cycles::new(self.cycles_of[i]),
                energy: Energy::from_nanojoules(self.energy_of[i]),
            },
        );
        self.sink.op(i as u32);
        self.spent_nj += drawn_nj;
        self.t += dt;
        self.active_cycles += self.cycles_of[i];
        self.executed += 1;
        Attempt::Ran
    }

    /// An injected power glitch before op `i` runs: time passes (and
    /// harvest keeps flowing), but no energy is drained and no work
    /// happens.
    #[cold]
    #[inline(never)]
    fn spurious_reset(&mut self) {
        let dt = self.durations[self.i];
        let harvested = self.harvest.energy_over(self.harvester, self.t, dt);
        self.cap.charge_joules(harvested);
        self.t += dt;
        self.faults.spurious_resets += 1;
        self.probe.event(ExecEvent::FaultInjected {
            t: self.t,
            kind: FaultKind::SpuriousReset,
        });
    }

    /// The on-demand checkpoint before op `i`, taken once the monitor
    /// warns. Returns `true` if an injected tear killed the device after
    /// the write was paid for.
    #[cold]
    #[inline(never)]
    fn checkpoint(&mut self, slot: u32) -> bool {
        let plan = self.plan;
        let ck = &plan.checkpoints[slot as usize];
        let span = SpanTimer::start::<P>();
        let harvested = self
            .harvest
            .energy_over(self.harvester, self.t, ck.duration_s);
        self.cap.charge_joules(harvested);
        if self.cap.usable_joules() < ck.need_j {
            span.finish(self.probe, ExecPhase::CheckpointRestore);
            // Dies partway through; the previous checkpoint still
            // stands. Fall through and let the op attempt trigger the
            // outage path.
            self.t += ck.duration_s;
            return false;
        }
        // The write happens (and is paid for) either way; a torn commit
        // dies after the cost is sunk but before the slot's commit
        // marker flips, so the previous checkpoint still stands.
        self.cap.drain_joules(ck.need_j);
        self.board.apply_cost(Component::Checkpoint, ck.cost());
        self.sink.checkpoint(slot);
        self.spent_nj += ck.energy_nj;
        self.t += ck.duration_s;
        self.active_cycles += ck.cycles;
        self.executed += 1;
        if self.faulting && self.fault.tears(&mut self.fstate) {
            self.faults.torn_commits += 1;
            span.finish(self.probe, ExecPhase::CheckpointRestore);
            self.probe.event(ExecEvent::FaultInjected {
                t: self.t,
                kind: FaultKind::TornCommit,
            });
            return true;
        }
        // Checkpoint committed atomically (double-buffered in FRAM):
        // progress up to i is now durable.
        self.prev_committed = self.committed;
        self.committed = self.i;
        self.ondemand += 1;
        span.finish(self.probe, ExecPhase::CheckpointRestore);
        self.probe
            .event(ExecEvent::CheckpointCommit { t: self.t, slot });
        if self.faulting && self.fault.flips_armed() {
            self.commit_flips();
        }
        false
    }

    #[cold]
    #[inline(never)]
    fn commit_flips(&mut self) {
        commit_flips(
            self.fault,
            &mut self.fstate,
            &mut self.istate,
            &mut self.itally,
            self.wear,
            self.payload_bits,
            self.t,
            self.probe,
        );
    }

    /// A power failure (real, or an injected reset that keeps the
    /// capacitor's charge): the stall and outage limits, the dark
    /// phase, then the restore and its recovery ladder. Returns `false`
    /// if the run ended instead of rebooting.
    #[cold]
    #[inline(never)]
    fn outage(&mut self, spurious: bool) -> bool {
        self.outages += 1;
        self.wasted += (self.i - self.committed) as u64;
        if !spurious {
            self.cap.collapse_to_off();
        }
        self.probe.event(ExecEvent::BrownOut { t: self.t });

        if self.committed == self.committed_at_last_outage {
            self.stall += 1;
        } else {
            self.stall = 0;
        }
        self.committed_at_last_outage = self.committed;
        if self.stall >= self.exec.config.stall_outages {
            return self.end(RunOutcome::NoProgress);
        }
        if self.outages >= self.exec.config.max_outages {
            return self.end(RunOutcome::OutageLimit);
        }

        // ---- dark charging phase ----
        let dark_t0 = self.t;
        let dark_joules = if P::ENABLED {
            self.cap.joules_to_boot().max(0.0)
        } else {
            0.0
        };
        let span = SpanTimer::start::<P>();
        let booted = self.exec.charge_until_boot(
            self.harvester,
            &mut self.cap,
            &mut self.t,
            &mut self.charging_s,
        );
        span.finish(self.probe, ExecPhase::ChargeSolve);
        self.probe.event(ExecEvent::DarkSkip {
            t0: dark_t0,
            t1: self.t,
            joules: dark_joules,
        });
        if !booted {
            return self.end(RunOutcome::TimeLimit);
        }

        // ---- restore ----
        // Freshly booted at v_on: the restore always fits.
        let span = SpanTimer::start::<P>();
        let restore = self.plan.restore_cost();
        self.board.apply_cost(Component::Checkpoint, restore.cost());
        self.sink.restore();
        self.spent_nj += restore.energy_nj;
        self.cap.drain_joules(restore.need_j);
        self.t += restore.duration_s;
        self.active_cycles += restore.cycles;
        self.restores += 1;
        if self.iactive {
            resolve_restore_ladder(
                self.plan.integrity(),
                self.fault,
                &mut self.fstate,
                &mut self.istate,
                &mut self.itally,
                &mut self.faults,
                &mut self.committed,
                &mut self.prev_committed,
                &mut self.wasted,
                self.t,
                self.probe,
            );
        } else if self.faulting && self.fault.corrupts(&mut self.fstate) {
            // The freshest slot reads corrupt. The commit bitset / slot
            // versioning detects it, and the runtime falls back to the
            // previous durable commit (cold boot if none).
            self.faults.corrupt_restores += 1;
            self.faults.detected_corruptions += 1;
            self.wasted += (self.committed - self.prev_committed) as u64;
            self.committed = self.prev_committed;
            if self.committed == 0 {
                self.faults.cold_boots += 1;
            }
            self.probe
                .event(ExecEvent::CorruptionDetected { t: self.t });
        }
        self.i = self.committed;
        self.seg_end = 0;
        span.finish(self.probe, ExecPhase::CheckpointRestore);
        self.probe.event(ExecEvent::Boot { t: self.t });
        true
    }

    /// Ends the run with `outcome`; always `false`.
    #[cold]
    #[inline(never)]
    fn end(&mut self, outcome: RunOutcome) -> bool {
        self.outcome = outcome;
        if outcome == RunOutcome::EnergyLimit {
            self.probe.event(ExecEvent::EnergyLimit { t: self.t });
        }
        self.probe.event(ExecEvent::RunEnd { t: self.t, outcome });
        false
    }

    /// Writes the capacitor back into the supply and reports this run's
    /// share of the board meter, handing the step sink back.
    fn finish(mut self) -> (RunReport, S) {
        if self.iactive {
            self.itally.wear_max_commits = self.istate.max_writes();
        }
        *self.home = self.cap.clone();
        let meter = diff_meters(self.board.meter(), &self.meter_before);
        let report = RunReport {
            outcome: self.outcome,
            outages: self.outages,
            ondemand_checkpoints: self.ondemand,
            restores: self.restores,
            executed_ops: self.executed,
            wasted_ops: self.wasted,
            active_cycles: Cycles::new(self.active_cycles),
            active_seconds: self.active_cycles as f64 / self.plan.clock_hz(),
            charging_seconds: self.charging_s,
            wall_seconds: self.t,
            energy: meter.total_energy(),
            checkpoint_energy: meter.energy_of(Component::Checkpoint),
            meter,
            faults: self.faults,
            integrity: self.itally,
        };
        (report, self.sink)
    }
}

/// Drives two lanes one op attempt each in turn until one ends, then
/// runs the survivor alone.
fn lockstep<SA: StepSink, PA: ExecProbe, SB: StepSink, PB: ExecProbe>(
    a: &mut Lane<'_, SA, PA>,
    b: &mut Lane<'_, SB, PB>,
) {
    let (mut live_a, mut live_b) = (true, true);
    while live_a && live_b {
        live_a = a.step();
        live_b = b.step();
    }
    if live_a {
        a.run();
    } else if live_b {
        b.run();
    }
}

/// One per-commit bit-flip draw, shared verbatim by both executor paths:
/// draws the flip count for the freshly written slot (wear-accelerated
/// by that slot's lifetime write count), records the write in the
/// integrity state, and tallies/probes any damage. Called only when
/// flips are armed, so unarmed decision streams are untouched.
#[allow(clippy::too_many_arguments)]
#[inline]
fn commit_flips<P: ExecProbe>(
    fault: &FaultPlan,
    fstate: &mut FaultState,
    istate: &mut IntegrityState,
    itally: &mut IntegrityTally,
    wear: WearCurve,
    payload_bits: u64,
    t: f64,
    probe: &mut P,
) {
    let mult = wear.multiplier(istate.next_write_count());
    let flips = fault.flips(fstate, payload_bits, mult);
    istate.commit(flips);
    if flips > 0 {
        itally.flips_injected += u64::from(flips);
        probe.event(ExecEvent::BitFlipInjected { t, flips });
    }
}

/// One restore resolved through the recovery ladder, shared verbatim by
/// both executor paths. Consumes the same slot-corruption draw the
/// legacy branch takes (exactly one stream step per restore), walks
/// [`integrity::resolve_restore`], and translates the resolution into
/// tallies, probe events, and the commit-level fallback:
///
/// * rung 0/1 — the active slot stands (possibly silently wrong, or
///   SECDED-repaired in place); no progress is lost.
/// * rung 2 — fall back to the previous durable commit.
/// * rung 3 — the previous slot was rejected too: cold boot, all
///   committed progress is lost.
#[allow(clippy::too_many_arguments)]
fn resolve_restore_ladder<P: ExecProbe>(
    scheme: Integrity,
    fault: &FaultPlan,
    fstate: &mut FaultState,
    istate: &mut IntegrityState,
    itally: &mut IntegrityTally,
    faults: &mut FaultTally,
    committed: &mut usize,
    prev_committed: &mut usize,
    wasted: &mut u64,
    t: f64,
    probe: &mut P,
) {
    let slot_bad = fault.corrupts(fstate);
    if slot_bad {
        // Slot-level metadata corruption: always detected, exactly as
        // the legacy branch counts it.
        faults.corrupt_restores += 1;
        faults.detected_corruptions += 1;
        probe.event(ExecEvent::CorruptionDetected { t });
    }
    let res = integrity::resolve_restore(scheme, istate, slot_bad);
    itally.ladder[res.rung as usize] += 1;
    if res.repairs > 0 {
        itally.flips_repaired += u64::from(res.repairs);
        probe.event(ExecEvent::PayloadRepaired { t });
    }
    if res.payload_rejects > 0 {
        itally.flips_detected += u64::from(res.payload_rejects);
        faults.detected_corruptions += u64::from(res.payload_rejects);
        probe.event(ExecEvent::PayloadRejected { t });
    }
    if res.silent {
        // The scheme accepted a flipped payload: the run continues from
        // plausible-but-wrong state, and only a golden-twin diff can
        // tell. This is the counter the crash-consistency audit exists
        // to keep at zero for `Checksum`/`Secded`.
        itally.silent_restores += 1;
        faults.silent_corruptions += 1;
        probe.event(ExecEvent::SilentRestore { t });
    }
    if res.rung >= 2 {
        *wasted += (*committed - *prev_committed) as u64;
        *committed = *prev_committed;
        if res.rung == 3 {
            // The fallback slot was rejected too: nothing durable
            // remains anywhere.
            *wasted += *committed as u64;
            *committed = 0;
            *prev_committed = 0;
        }
        if *committed == 0 {
            faults.cold_boots += 1;
        }
    }
}

/// `a - b`, component-wise, assuming `a` extends `b`. Both energy and
/// cycles subtract saturating, so a caller passing meters from different
/// boards gets clamped zeros instead of nonsense.
fn diff_meters(a: &EnergyMeter, b: &EnergyMeter) -> EnergyMeter {
    let mut out = EnergyMeter::new();
    for &c in Component::ALL.iter() {
        let e = a.energy_of(c).saturating_sub(b.energy_of(c));
        let cy = Cycles::new(a.cycles_of(c).raw().saturating_sub(b.cycles_of(c).raw()));
        out.record(c, cy, e);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Capacitor, CheckpointSpec, Harvester};

    fn cpu_heavy_program(ops: usize, cycles_per_op: u64, spec: CheckpointSpec) -> Program {
        let mut p = Program::new("test");
        for _ in 0..ops {
            p.push(
                DeviceOp::CpuOps {
                    count: cycles_per_op,
                },
                spec,
            );
        }
        p
    }

    fn bench_supply() -> PowerSupply {
        PowerSupply::new(Harvester::constant(0.010), Capacitor::paper_100uf())
    }

    fn weak_supply() -> PowerSupply {
        // 2 mW average square wave: forces many outages on mJ workloads.
        PowerSupply::new(
            Harvester::square(0.004, 0.05, 0.5),
            Capacitor::paper_100uf(),
        )
    }

    #[test]
    fn strong_supply_completes_without_outage() {
        // 10 mW in vs ~5.7 mW CPU draw: never browns out.
        let p = cpu_heavy_program(100, 10_000, CheckpointSpec::COMMIT);
        let mut board = Board::msp430fr5994();
        let mut supply = bench_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(r.completed());
        assert_eq!(r.outages, 0);
        assert_eq!(r.wasted_ops, 0);
        assert_eq!(r.executed_ops, 100);
    }

    #[test]
    fn committing_program_survives_weak_supply() {
        // ~3.6 mJ total, ~288 µJ per discharge -> needs many outages but
        // commits every op, so it always progresses.
        let p = cpu_heavy_program(1000, 10_000, CheckpointSpec::COMMIT);
        let mut board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(r.completed(), "{r}");
        assert!(r.outages > 3, "expected several outages, got {}", r.outages);
        assert!(r.charging_seconds > 0.0);
        assert_eq!(r.wasted_ops, 0); // every op commits: nothing re-done
    }

    #[test]
    fn base_style_program_never_completes() {
        // No commits: every outage restarts. Total energy far exceeds one
        // discharge -> stalls forever -> NoProgress (the paper's ✗).
        let p = cpu_heavy_program(1000, 10_000, CheckpointSpec::NONE);
        let mut board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert_eq!(r.outcome, RunOutcome::NoProgress);
        assert!(!r.completed());
        assert!(r.wasted_ops > 0);
    }

    #[test]
    fn sparse_commits_cause_wasted_work() {
        // Commit every 50 ops: failures roll back within the window.
        let mut p = Program::new("sparse");
        for k in 0..1000usize {
            let spec = if k % 50 == 49 {
                CheckpointSpec::COMMIT
            } else {
                CheckpointSpec::NONE
            };
            p.push(DeviceOp::CpuOps { count: 10_000 }, spec);
        }
        let mut board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(r.completed(), "{r}");
        assert!(r.wasted_ops > 0, "rollbacks must waste work");
        assert!(r.executed_ops > 1000);
    }

    #[test]
    fn ondemand_checkpoint_rescues_commitless_program() {
        // No eager commits, but on-demand checkpoints allowed everywhere:
        // the voltage monitor fires near brown-out and saves progress.
        let mut p = Program::new("ondemand");
        for _ in 0..1000usize {
            p.push(
                DeviceOp::CpuOps { count: 10_000 },
                CheckpointSpec::ondemand(64),
            );
        }
        let mut board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(r.completed(), "{r}");
        assert!(r.ondemand_checkpoints > 0);
        assert!(r.checkpoint_energy.nanojoules() > 0.0);
        // Wasted work is bounded by the ops between warning and death.
        assert!(r.wasted_ops < 200, "wasted = {}", r.wasted_ops);
    }

    #[test]
    fn checkpoint_overhead_is_small_fraction() {
        let mut p = Program::new("ondemand");
        for _ in 0..2000usize {
            p.push(
                DeviceOp::CpuOps { count: 5_000 },
                CheckpointSpec::ondemand(64),
            );
        }
        let mut board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(r.completed());
        assert!(
            r.checkpoint_overhead() < 0.05,
            "overhead = {}",
            r.checkpoint_overhead()
        );
    }

    #[test]
    fn active_and_wall_time_split() {
        let p = cpu_heavy_program(500, 10_000, CheckpointSpec::COMMIT);
        let mut board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(r.completed());
        assert!(r.wall_seconds >= r.active_seconds + r.charging_seconds - 1e-9);
        // Active time ≈ cycles/clock.
        assert!((r.active_seconds - r.active_cycles.raw() as f64 / 16e6).abs() < 1e-9);
    }

    #[test]
    fn empty_program_completes_trivially() {
        let p = Program::new("empty");
        let mut board = Board::msp430fr5994();
        let mut supply = bench_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(r.completed());
        assert_eq!(r.executed_ops, 0);
    }

    #[test]
    fn planned_run_matches_reference_interpreter() {
        // Same program, same supply: the plan-driven loop and the
        // op-by-op interpreter must agree bit for bit, including the
        // outage/rollback dynamics a weak supply forces.
        let mut p = Program::new("mixed");
        for k in 0..800usize {
            let spec = match k % 7 {
                0 => CheckpointSpec::COMMIT,
                1 | 2 => CheckpointSpec::ondemand(32),
                _ => CheckpointSpec::NONE,
            };
            p.push(DeviceOp::CpuOps { count: 8_000 }, spec);
        }
        let exec = IntermittentExecutor::default();
        for supply in [bench_supply(), weak_supply()] {
            let mut board_a = Board::msp430fr5994();
            let mut board_b = Board::msp430fr5994();
            let mut supply_a = supply.clone();
            let mut supply_b = supply;
            let planned = exec.run(&p, &mut board_a, &mut supply_a);
            let reference = exec.run_unplanned(&p, &mut board_b, &mut supply_b);
            assert_eq!(planned, reference);
            assert_eq!(board_a.meter(), board_b.meter());
            assert_eq!(board_a.elapsed_cycles(), board_b.elapsed_cycles());
        }
    }

    #[test]
    fn planned_run_parity_holds_across_sequential_runs() {
        // Second run on the same board starts from a nonzero meter; the
        // report diff must still match the reference bit for bit.
        let p = cpu_heavy_program(300, 10_000, CheckpointSpec::COMMIT);
        let exec = IntermittentExecutor::default();
        let mut board_a = Board::msp430fr5994();
        let mut board_b = Board::msp430fr5994();
        for _ in 0..2 {
            let mut sa = weak_supply();
            let mut sb = weak_supply();
            let planned = exec.run(&p, &mut board_a, &mut sa);
            let reference = exec.run_unplanned(&p, &mut board_b, &mut sb);
            assert_eq!(planned, reference);
        }
    }

    #[test]
    fn trace_replay_is_bit_identical_for_deterministic_supplies() {
        // Record against a weak (but deterministic) square wave, then
        // replay: reports and board state must match a live run exactly,
        // including on boards whose meters already hold prior runs.
        let mut p = Program::new("mixed");
        for k in 0..600usize {
            let spec = match k % 5 {
                0 => CheckpointSpec::COMMIT,
                1 => CheckpointSpec::ondemand(32),
                _ => CheckpointSpec::NONE,
            };
            p.push(DeviceOp::CpuOps { count: 9_000 }, spec);
        }
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();

        let mut recording_board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let (recorded, trace) = exec.run_plan_traced(&plan, &mut recording_board, &mut supply);
        assert_eq!(&recorded, trace.report());
        assert!(recorded.outages > 0, "want outage coverage in the trace");

        let mut live_board = Board::msp430fr5994();
        let mut replay_board = Board::msp430fr5994();
        for _ in 0..3 {
            let mut live_supply = weak_supply();
            let live = exec.run_plan(&plan, &mut live_board, &mut live_supply);
            let replayed = exec.replay_trace(&plan, &trace, &mut replay_board);
            assert_eq!(live, replayed);
        }
        assert_eq!(live_board.meter(), replay_board.meter());
        assert_eq!(live_board.elapsed_cycles(), replay_board.elapsed_cycles());
    }

    #[test]
    fn tracing_does_not_change_the_run() {
        let p = cpu_heavy_program(400, 10_000, CheckpointSpec::COMMIT);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();
        let mut board_a = Board::msp430fr5994();
        let mut supply_a = weak_supply();
        let plain = exec.run_plan(&plan, &mut board_a, &mut supply_a);
        let mut board_b = Board::msp430fr5994();
        let mut supply_b = weak_supply();
        let (traced, trace) = exec.run_plan_traced(&plan, &mut board_b, &mut supply_b);
        assert_eq!(plain, traced);
        // Every executed op, checkpoint and restore left a step.
        assert_eq!(
            trace.len() as u64,
            traced.executed_ops + traced.restores,
            "commit-only program: steps = ops + restores"
        );
        assert!(!trace.is_empty());
    }

    #[test]
    fn probes_observe_without_changing_either_path() {
        use crate::probe::EventRing;

        // Mixed commit/ondemand/plain program on a weak supply: plenty
        // of brown-outs, dark skips, boots and on-demand commits.
        let mut p = Program::new("mixed");
        for k in 0..600usize {
            let spec = match k % 5 {
                0 => CheckpointSpec::COMMIT,
                1 => CheckpointSpec::ondemand(32),
                _ => CheckpointSpec::NONE,
            };
            p.push(DeviceOp::CpuOps { count: 9_000 }, spec);
        }
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();

        let mut plain_board = Board::msp430fr5994();
        let mut plain_supply = weak_supply();
        let plain = exec.run_plan(&plan, &mut plain_board, &mut plain_supply);

        let mut probed_board = Board::msp430fr5994();
        let mut probed_supply = weak_supply();
        let mut ring = EventRing::new(1 << 16);
        let probed = exec.run_plan_probed(&plan, &mut probed_board, &mut probed_supply, &mut ring);
        assert_eq!(plain, probed, "probe must not perturb the run");
        assert_eq!(plain_board.meter(), probed_board.meter());

        // Event-stream sanity against the report's own counters.
        let count = |label: &str| ring.events().filter(|e| e.label() == label).count() as u64;
        assert_eq!(count("brown_out"), probed.outages);
        assert_eq!(count("boot"), probed.restores);
        assert_eq!(count("dark_skip"), probed.restores);
        assert_eq!(count("checkpoint_commit"), probed.ondemand_checkpoints);
        assert_eq!(count("run_end"), 1);
        assert!(probed.outages > 0, "want outage coverage");
        let last = ring.events().last().copied().unwrap();
        assert_eq!(
            last,
            ExecEvent::RunEnd {
                t: probed.wall_seconds,
                outcome: probed.outcome
            }
        );
        // Dark skips carry the solved deficit and a positive duration.
        assert!(ring.events().all(|e| match *e {
            ExecEvent::DarkSkip { t0, t1, joules } => t1 > t0 && joules > 0.0,
            _ => true,
        }));

        // The reference interpreter under the same probe agrees bit for
        // bit and emits the same outage/boot/commit stream (it has no
        // segments to retire).
        let mut ref_board = Board::msp430fr5994();
        let mut ref_supply = weak_supply();
        let mut ref_ring = EventRing::new(1 << 16);
        let reference =
            exec.run_unplanned_probed(&p, &mut ref_board, &mut ref_supply, &mut ref_ring);
        assert_eq!(plain, reference);
        let ref_count =
            |label: &str| ref_ring.events().filter(|e| e.label() == label).count() as u64;
        assert_eq!(ref_count("brown_out"), probed.outages);
        assert_eq!(ref_count("boot"), probed.restores);
        assert_eq!(ref_count("checkpoint_commit"), probed.ondemand_checkpoints);
        assert_eq!(ref_count("segment_retired"), 0);

        // Exports render every retained event.
        assert_eq!(ring.to_jsonl().lines().count(), ring.len());
        assert!(ring.to_chrome_trace().contains("\"traceEvents\""));
    }

    #[test]
    #[should_panic(expected = "differently shaped plan")]
    fn replaying_a_trace_against_the_wrong_plan_panics() {
        let board = Board::msp430fr5994();
        let recorded_plan =
            ExecutionPlan::compile(cpu_heavy_program(50, 1_000, CheckpointSpec::COMMIT), &board);
        let other_plan =
            ExecutionPlan::compile(cpu_heavy_program(60, 1_000, CheckpointSpec::COMMIT), &board);
        let exec = IntermittentExecutor::default();
        let mut b = Board::msp430fr5994();
        let mut supply = bench_supply();
        let (_, trace) = exec.run_plan_traced(&recorded_plan, &mut b, &mut supply);
        let _ = exec.replay_trace(&other_plan, &trace, &mut b);
    }

    #[test]
    fn run_plan_reuses_one_compilation() {
        let p = cpu_heavy_program(200, 10_000, CheckpointSpec::COMMIT);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();
        let mut board_a = Board::msp430fr5994();
        let mut supply_a = weak_supply();
        let a = exec.run_plan(&plan, &mut board_a, &mut supply_a);
        let mut board_b = Board::msp430fr5994();
        let mut supply_b = weak_supply();
        let b = exec.run_plan(&plan, &mut board_b, &mut supply_b);
        assert_eq!(a, b);
        assert!(a.completed());
    }

    #[test]
    fn energy_budget_aborts_the_run() {
        let p = cpu_heavy_program(500, 10_000, CheckpointSpec::COMMIT);
        let mut board = Board::msp430fr5994();
        let mut supply = bench_supply();
        // Price the whole program once to pick a budget that cuts the
        // run roughly in half.
        let full = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(full.completed());
        let budget = full.energy.nanojoules() / 2.0;

        let exec = IntermittentExecutor::new(ExecutorConfig {
            energy_budget_nj: Some(budget),
            ..ExecutorConfig::default()
        });
        let mut board = Board::msp430fr5994();
        let mut supply = bench_supply();
        let r = exec.run(&p, &mut board, &mut supply);
        assert_eq!(r.outcome, RunOutcome::EnergyLimit);
        assert!(!r.completed());
        assert!(r.executed_ops < full.executed_ops);
        // The budget can be overshot by at most one op's energy.
        let per_op = full.energy.nanojoules() / full.executed_ops as f64;
        assert!(r.energy.nanojoules() > budget);
        assert!(r.energy.nanojoules() <= budget + 2.0 * per_op);
    }

    #[test]
    fn generous_energy_budget_changes_nothing() {
        let p = cpu_heavy_program(300, 10_000, CheckpointSpec::COMMIT);
        let exec_budgeted = IntermittentExecutor::new(ExecutorConfig {
            energy_budget_nj: Some(1e15),
            ..ExecutorConfig::default()
        });
        let mut board_a = Board::msp430fr5994();
        let mut supply_a = weak_supply();
        let budgeted = exec_budgeted.run(&p, &mut board_a, &mut supply_a);
        let mut board_b = Board::msp430fr5994();
        let mut supply_b = weak_supply();
        let unbudgeted = IntermittentExecutor::default().run(&p, &mut board_b, &mut supply_b);
        assert_eq!(budgeted, unbudgeted);
        assert!(budgeted.completed());
    }

    #[test]
    fn energy_budget_parity_between_planned_and_reference_paths() {
        // The budget check must sit at the same point in both executors:
        // same outcome, same counters, bit for bit — including under a
        // weak supply where restores and rollbacks also spend energy.
        let mut p = Program::new("mixed");
        for k in 0..600usize {
            let spec = match k % 7 {
                0 => CheckpointSpec::COMMIT,
                1 | 2 => CheckpointSpec::ondemand(32),
                _ => CheckpointSpec::NONE,
            };
            p.push(DeviceOp::CpuOps { count: 8_000 }, spec);
        }
        for budget in [5e4, 5e5, 5e6] {
            let exec = IntermittentExecutor::new(ExecutorConfig {
                energy_budget_nj: Some(budget),
                ..ExecutorConfig::default()
            });
            for supply in [bench_supply(), weak_supply()] {
                let mut board_a = Board::msp430fr5994();
                let mut board_b = Board::msp430fr5994();
                let mut supply_a = supply.clone();
                let mut supply_b = supply.clone();
                let planned = exec.run(&p, &mut board_a, &mut supply_a);
                let reference = exec.run_unplanned(&p, &mut board_b, &mut supply_b);
                assert_eq!(planned, reference, "budget {budget}");
                assert_eq!(board_a.meter(), board_b.meter());
            }
        }
    }

    #[test]
    fn energy_limited_traces_replay_bit_identically() {
        let p = cpu_heavy_program(400, 10_000, CheckpointSpec::COMMIT);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p, &board);
        let exec = IntermittentExecutor::new(ExecutorConfig {
            energy_budget_nj: Some(1e5),
            ..ExecutorConfig::default()
        });
        let mut record_board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let (recorded, trace) = exec.run_plan_traced(&plan, &mut record_board, &mut supply);
        assert_eq!(recorded.outcome, RunOutcome::EnergyLimit);
        let mut replay_board = Board::msp430fr5994();
        let replayed = exec.replay_trace(&plan, &trace, &mut replay_board);
        assert_eq!(recorded, replayed);
        assert_eq!(record_board.meter(), replay_board.meter());
    }

    #[test]
    fn analytic_dark_phase_matches_the_stepped_oracle_window() {
        // The solver's wake time must land inside the step window the
        // legacy quantized loop would wake in: stepped wake time is the
        // first multiple of the step at/after the analytic one.
        let p = cpu_heavy_program(400, 10_000, CheckpointSpec::COMMIT);
        let step = 1e-3;
        let stepped_exec = IntermittentExecutor::new(ExecutorConfig {
            charge_step_s: Some(step),
            ..ExecutorConfig::default()
        });
        let analytic_exec = IntermittentExecutor::default();
        let mut board_a = Board::msp430fr5994();
        let mut board_b = Board::msp430fr5994();
        let mut sa = weak_supply();
        let mut sb = weak_supply();
        let analytic = analytic_exec.run(&p, &mut board_a, &mut sa);
        let stepped = stepped_exec.run(&p, &mut board_b, &mut sb);
        assert!(analytic.completed() && stepped.completed());
        assert!(analytic.outages > 0);
        // The analytic run never waits longer than the quantized one,
        // and the quantization slack is bounded by one step per outage.
        assert!(
            analytic.charging_seconds <= stepped.charging_seconds + 1e-9,
            "analytic {} vs stepped {}",
            analytic.charging_seconds,
            stepped.charging_seconds
        );
        assert!(
            stepped.charging_seconds - analytic.charging_seconds
                <= step * stepped.outages as f64 + 1e-9,
            "quantization slack exceeds one step per outage"
        );
    }

    #[test]
    fn stepped_legacy_mode_keeps_both_paths_in_parity() {
        let mut p = Program::new("mixed");
        for k in 0..600usize {
            let spec = match k % 7 {
                0 => CheckpointSpec::COMMIT,
                1 | 2 => CheckpointSpec::ondemand(32),
                _ => CheckpointSpec::NONE,
            };
            p.push(DeviceOp::CpuOps { count: 8_000 }, spec);
        }
        let exec = IntermittentExecutor::new(ExecutorConfig {
            charge_step_s: Some(1e-3),
            ..ExecutorConfig::default()
        });
        let mut board_a = Board::msp430fr5994();
        let mut board_b = Board::msp430fr5994();
        let mut sa = weak_supply();
        let mut sb = weak_supply();
        let planned = exec.run(&p, &mut board_a, &mut sa);
        let reference = exec.run_unplanned(&p, &mut board_b, &mut sb);
        assert_eq!(planned, reference);
        assert_eq!(board_a.meter(), board_b.meter());
    }

    #[test]
    fn time_limited_dark_phase_reports_exactly_at_the_limit() {
        // A dead harvester: the first outage charges forever. Both
        // modes must clamp t and charging_s at the wall limit instead
        // of overshooting by a step (or reporting infinity).
        let p = cpu_heavy_program(1000, 10_000, CheckpointSpec::COMMIT);
        let max_wall = 1.5;
        for charge_step_s in [None, Some(1e-3)] {
            let exec = IntermittentExecutor::new(ExecutorConfig {
                charge_step_s,
                max_wall_seconds: max_wall,
                ..ExecutorConfig::default()
            });
            let mut board = Board::msp430fr5994();
            let mut supply = PowerSupply::new(Harvester::constant(0.0), Capacitor::paper_100uf());
            let r = exec.run(&p, &mut board, &mut supply);
            assert_eq!(r.outcome, RunOutcome::TimeLimit, "{charge_step_s:?}");
            assert_eq!(r.wall_seconds, max_wall, "{charge_step_s:?}");
            assert!(
                r.charging_seconds <= max_wall,
                "{charge_step_s:?}: charging {} past the limit",
                r.charging_seconds
            );

            // The reference interpreter clamps identically.
            let mut board_b = Board::msp430fr5994();
            let mut supply_b = PowerSupply::new(Harvester::constant(0.0), Capacitor::paper_100uf());
            let reference = exec.run_unplanned(&p, &mut board_b, &mut supply_b);
            assert_eq!(r, reference, "{charge_step_s:?}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        use crate::ExecutorConfigError;
        let cases = [
            (
                ExecutorConfig {
                    stall_outages: 0,
                    ..ExecutorConfig::default()
                },
                ExecutorConfigError::ZeroStallOutages,
            ),
            (
                ExecutorConfig {
                    charge_step_s: Some(0.0),
                    ..ExecutorConfig::default()
                },
                ExecutorConfigError::BadChargeStep(0.0),
            ),
            (
                ExecutorConfig {
                    charge_step_s: Some(f64::NAN),
                    ..ExecutorConfig::default()
                },
                ExecutorConfigError::BadChargeStep(f64::NAN),
            ),
            (
                ExecutorConfig {
                    max_wall_seconds: 0.0,
                    ..ExecutorConfig::default()
                },
                ExecutorConfigError::BadWallLimit(0.0),
            ),
            (
                ExecutorConfig {
                    max_wall_seconds: f64::INFINITY,
                    ..ExecutorConfig::default()
                },
                ExecutorConfigError::BadWallLimit(f64::INFINITY),
            ),
            (
                ExecutorConfig {
                    energy_budget_nj: Some(-1.0),
                    ..ExecutorConfig::default()
                },
                ExecutorConfigError::BadEnergyBudget(-1.0),
            ),
        ];
        for (config, want) in cases {
            let got = IntermittentExecutor::try_new(config.clone()).unwrap_err();
            // NaN payloads compare unequal; match on the Display text.
            assert_eq!(got.to_string(), want.to_string(), "{config:?}");
            assert!(config.validate().is_err());
        }
        assert!(ExecutorConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid executor config")]
    fn new_panics_on_invalid_config() {
        let _ = IntermittentExecutor::new(ExecutorConfig {
            stall_outages: 0,
            ..ExecutorConfig::default()
        });
    }

    fn mixed_program(ops: usize) -> Program {
        let mut p = Program::new("mixed");
        for k in 0..ops {
            let spec = match k % 7 {
                0 => CheckpointSpec::COMMIT,
                1 | 2 => CheckpointSpec::ondemand(32),
                _ => CheckpointSpec::NONE,
            };
            p.push(DeviceOp::CpuOps { count: 8_000 }, spec);
        }
        p
    }

    fn noisy_fault_spec(seed: u64) -> crate::FaultSpec {
        crate::FaultSpec {
            seed,
            reset_per_op: 0.002,
            sag_per_op: 0.01,
            sag_factor: 1.5,
            tear_per_commit: 0.2,
            corrupt_per_restore: 0.25,
            burst_len: 0,
            flip_per_commit_bit: 0.0,
            wear: WearCurve::NONE,
        }
    }

    #[test]
    fn faulted_runs_keep_planned_reference_parity() {
        // The fault decision stream must advance at the same logical
        // points in both executors: same injections, same dynamics, bit
        // for bit — across seeds and supplies.
        let p = mixed_program(800);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();
        let mut saw_faults = false;
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let fault = FaultPlan::compile(&noisy_fault_spec(seed));
            for supply in [bench_supply(), weak_supply()] {
                let mut board_a = Board::msp430fr5994();
                let mut board_b = Board::msp430fr5994();
                let mut sa = supply.clone();
                let mut sb = supply.clone();
                let planned = exec.run_plan_faulted(&plan, &mut board_a, &mut sa, &fault);
                let reference = exec.run_unplanned_faulted(&p, &mut board_b, &mut sb, &fault);
                assert_eq!(planned, reference, "seed {seed}");
                assert_eq!(board_a.meter(), board_b.meter());
                saw_faults |= planned.faults.injected() > 0;
            }
        }
        assert!(saw_faults, "fault coverage: at least one run must inject");
    }

    #[test]
    fn disabled_fault_plan_changes_nothing() {
        let p = mixed_program(600);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();
        let mut board_a = Board::msp430fr5994();
        let mut sa = weak_supply();
        let plain = exec.run_plan(&plan, &mut board_a, &mut sa);
        let mut board_b = Board::msp430fr5994();
        let mut sb = weak_supply();
        let faulted = exec.run_plan_faulted(&plan, &mut board_b, &mut sb, &FaultPlan::NONE);
        assert_eq!(plain, faulted);
        assert!(faulted.faults.is_clean());
        // An all-zero spec compiles to the disabled plan, too.
        let mut board_c = Board::msp430fr5994();
        let mut sc = weak_supply();
        let none = exec.run_plan_faulted(
            &plan,
            &mut board_c,
            &mut sc,
            &FaultPlan::compile(&crate::FaultSpec::none()),
        );
        assert_eq!(plain, none);
    }

    #[test]
    fn armed_empty_plan_draws_but_never_fires() {
        // The overhead-bench baseline: an enabled plan with all-zero
        // thresholds pays for every draw yet injects nothing, so the
        // report matches the unfaulted run exactly.
        let p = mixed_program(600);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();
        let mut board_a = Board::msp430fr5994();
        let mut sa = weak_supply();
        let plain = exec.run_plan(&plan, &mut board_a, &mut sa);
        let mut board_b = Board::msp430fr5994();
        let mut sb = weak_supply();
        let armed = exec.run_plan_faulted(&plan, &mut board_b, &mut sb, &FaultPlan::armed_empty(7));
        assert_eq!(plain, armed);
        assert!(armed.faults.is_clean());
    }

    #[test]
    fn faulted_traces_replay_bit_identically() {
        // Every fault effect either applies a nominal board cost through
        // the step sink or applies none, so a faulted run against a
        // deterministic supply replays exactly — tally included.
        let p = mixed_program(600);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p, &board);
        let exec = IntermittentExecutor::default();
        let fault = FaultPlan::compile(&noisy_fault_spec(99));
        let mut record_board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let (recorded, trace) =
            exec.run_plan_faulted_traced(&plan, &mut record_board, &mut supply, &fault);
        assert!(recorded.faults.injected() > 0, "want fault coverage");
        let mut replay_board = Board::msp430fr5994();
        let replayed = exec.replay_trace(&plan, &trace, &mut replay_board);
        assert_eq!(recorded, replayed);
        assert_eq!(record_board.meter(), replay_board.meter());
    }

    #[test]
    fn fault_probe_events_match_the_tally() {
        use crate::probe::EventRing;
        let p = mixed_program(800);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();
        let fault = FaultPlan::compile(&noisy_fault_spec(5));

        let mut plain_board = Board::msp430fr5994();
        let mut plain_supply = weak_supply();
        let plain = exec.run_plan_faulted(&plan, &mut plain_board, &mut plain_supply, &fault);

        let mut probed_board = Board::msp430fr5994();
        let mut probed_supply = weak_supply();
        let mut ring = EventRing::new(1 << 16);
        let probed = exec.run_plan_faulted_probed(
            &plan,
            &mut probed_board,
            &mut probed_supply,
            &fault,
            &mut ring,
        );
        assert_eq!(plain, probed, "probe must not perturb a faulted run");
        assert!(probed.faults.injected() > 0, "want fault coverage");

        let kind_count = |kind: FaultKind| {
            ring.events()
                .filter(|e| matches!(e, ExecEvent::FaultInjected { kind: k, .. } if *k == kind))
                .count() as u64
        };
        assert_eq!(
            kind_count(FaultKind::SpuriousReset),
            probed.faults.spurious_resets
        );
        assert_eq!(
            kind_count(FaultKind::TornCommit),
            probed.faults.torn_commits
        );
        assert_eq!(kind_count(FaultKind::VoltageSag), probed.faults.sag_ops);
        let detected = ring
            .events()
            .filter(|e| matches!(e, ExecEvent::CorruptionDetected { .. }))
            .count() as u64;
        assert_eq!(detected, probed.faults.detected_corruptions);
        assert_eq!(probed.faults.silent_corruptions, 0);
        // The JSONL exporter renders the new variants.
        let jsonl = ring.to_jsonl();
        assert!(jsonl.contains("\"type\":\"fault_injected\""), "{jsonl}");
    }

    #[test]
    fn corrupt_restores_fall_back_and_count_cold_boots() {
        // Corrupt every restore of a commit-less program: every fallback
        // lands at op 0, so every corrupt restore is a cold boot and the
        // run (which can never bank progress anyway) ends NoProgress.
        let p = cpu_heavy_program(1000, 10_000, CheckpointSpec::NONE);
        let spec = crate::FaultSpec {
            seed: 11,
            reset_per_op: 0.0,
            sag_per_op: 0.0,
            sag_factor: 1.0,
            tear_per_commit: 0.0,
            corrupt_per_restore: 1.0,
            burst_len: 0,
            flip_per_commit_bit: 0.0,
            wear: WearCurve::NONE,
        };
        let fault = FaultPlan::compile(&spec);
        let mut board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let r = IntermittentExecutor::default().run_unplanned_faulted(
            &p,
            &mut board,
            &mut supply,
            &fault,
        );
        assert!(r.faults.corrupt_restores > 0);
        assert_eq!(r.faults.corrupt_restores, r.faults.detected_corruptions);
        assert_eq!(r.faults.corrupt_restores, r.faults.cold_boots);
        assert_eq!(r.faults.silent_corruptions, 0);
        assert_eq!(r.outcome, RunOutcome::NoProgress);
    }

    #[test]
    fn flip_storms_keep_planned_reference_parity() {
        // The flip draw and the recovery ladder must sit at the same
        // logical points in both executors, scheme by scheme.
        let mut p = mixed_program(800);
        p.set_restore_words(256);
        let exec = IntermittentExecutor::default();
        let spec = crate::FaultSpec {
            flip_per_commit_bit: 2e-4,
            wear: WearCurve {
                endurance_commits: 10,
            },
            ..noisy_fault_spec(21)
        };
        let fault = FaultPlan::compile(&spec);
        let mut saw_flips = false;
        let mut saw_ladder = false;
        for scheme in Integrity::ALL {
            let plan =
                ExecutionPlan::compile_with_integrity(p.clone(), &Board::msp430fr5994(), scheme);
            for supply in [bench_supply(), weak_supply()] {
                let mut board_a = Board::msp430fr5994();
                let mut board_b = Board::msp430fr5994();
                let mut sa = supply.clone();
                let mut sb = supply.clone();
                let planned = exec.run_plan_faulted(&plan, &mut board_a, &mut sa, &fault);
                let reference =
                    exec.run_unplanned_faulted_integrity(&p, &mut board_b, &mut sb, &fault, scheme);
                assert_eq!(planned, reference, "{scheme}");
                assert_eq!(board_a.meter(), board_b.meter());
                saw_flips |= planned.integrity.flips_injected > 0;
                saw_ladder |= planned.integrity.restores_resolved() > 0;
            }
        }
        assert!(saw_flips, "flip coverage: at least one run must flip");
        assert!(saw_ladder, "ladder coverage: at least one restore resolved");
    }

    #[test]
    fn schemes_disagree_only_on_detection_not_on_the_flip_stream() {
        // Spurious resets on the bench supply force restores without
        // brown-outs. Every scheme faces the same per-commit upset
        // rate; what differs is what each scheme *does* about the
        // damage — None swallows it, Checksum rejects and falls back
        // (re-executing, hence drawing more flips overall), SECDED
        // repairs single-bit upsets in place.
        let mut p = mixed_program(800);
        p.set_restore_words(256);
        let spec = crate::FaultSpec {
            seed: 29,
            reset_per_op: 0.02,
            flip_per_commit_bit: 2e-4,
            ..crate::FaultSpec::none()
        };
        let fault = FaultPlan::compile(&spec);
        let exec = IntermittentExecutor::default();
        let mut reports = Vec::new();
        for scheme in Integrity::ALL {
            let plan =
                ExecutionPlan::compile_with_integrity(p.clone(), &Board::msp430fr5994(), scheme);
            let mut board = Board::msp430fr5994();
            let mut supply = bench_supply();
            reports.push(exec.run_plan_faulted(&plan, &mut board, &mut supply, &fault));
        }
        let [none, checksum, secded] = &reports[..] else {
            unreachable!()
        };
        for r in &reports {
            assert!(r.integrity.flips_injected > 0, "want flip coverage");
        }
        // None restores damage silently and detects nothing.
        assert!(none.integrity.silent_restores > 0);
        assert_eq!(
            none.faults.silent_corruptions,
            none.integrity.silent_restores
        );
        assert_eq!(none.integrity.flips_detected, 0);
        assert_eq!(none.integrity.flips_repaired, 0);
        // Checksum detects (and never repairs); SECDED repairs singles.
        assert_eq!(checksum.integrity.silent_restores, 0);
        assert_eq!(checksum.faults.silent_corruptions, 0);
        assert!(checksum.integrity.flips_detected > 0);
        assert_eq!(checksum.integrity.flips_repaired, 0);
        assert_eq!(secded.integrity.silent_restores, 0);
        assert_eq!(secded.faults.silent_corruptions, 0);
        assert!(secded.integrity.flips_repaired > 0);
        // Every restore resolves through exactly one ladder rung.
        for r in &reports {
            assert_eq!(r.integrity.restores_resolved(), r.restores);
        }
    }

    #[test]
    fn armed_empty_integrity_changes_only_the_integrity_tally() {
        // The wear-sweep inert baseline: flip draws armed at rate zero
        // walk the full ladder on every restore but never land damage,
        // so everything except the integrity telemetry is bit-identical
        // to the unfaulted run.
        let p = mixed_program(600);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();
        let mut board_a = Board::msp430fr5994();
        let mut sa = weak_supply();
        let plain = exec.run_plan(&plan, &mut board_a, &mut sa);
        let mut board_b = Board::msp430fr5994();
        let mut sb = weak_supply();
        let armed = exec.run_plan_faulted(
            &plan,
            &mut board_b,
            &mut sb,
            &FaultPlan::armed_empty_integrity(7),
        );
        let mut stripped = armed.clone();
        stripped.integrity = plain.integrity;
        assert_eq!(plain, stripped);
        assert!(armed.faults.is_clean());
        assert_eq!(armed.integrity.flips_injected, 0);
        assert_eq!(armed.integrity.silent_restores, 0);
        assert_eq!(armed.integrity.flips_detected, 0);
        assert_eq!(armed.integrity.ladder, [armed.restores, 0, 0, 0]);
        assert!(armed.integrity.wear_max_commits > 0, "commits were tracked");
    }

    /// The pre-encoding trace format, kept as the oracle for the
    /// run-length encoding: one code per applied cost (`0..len` ops,
    /// `len` a restore, `len + 1 + k` checkpoint slot `k`).
    #[derive(Default)]
    struct FlatRecorder {
        steps: Vec<u32>,
        op_count: u32,
    }

    impl StepSink for FlatRecorder {
        fn op(&mut self, i: u32) {
            self.steps.push(i);
        }
        fn checkpoint(&mut self, slot: u32) {
            self.steps.push(self.op_count + 1 + slot);
        }
        fn restore(&mut self) {
            self.steps.push(self.op_count);
        }
    }

    /// `trace` expanded back into [`FlatRecorder`] codes.
    fn flat_codes(trace: &RunTrace) -> Vec<u32> {
        let n = trace.op_count;
        let mut codes = Vec::new();
        for run in &trace.runs {
            match run.mark {
                TraceMark::None => {}
                TraceMark::Restore => codes.push(n),
                TraceMark::Checkpoint(slot) => codes.push(n + 1 + slot),
            }
            codes.extend(run.first..run.end);
        }
        codes
    }

    #[test]
    fn run_length_traces_encode_the_flat_sequence_and_replay_identically() {
        let p = mixed_program(900);
        let board = Board::msp430fr5994();
        let exec = IntermittentExecutor::default();
        let mut flipping = noisy_fault_spec(5);
        flipping.flip_per_commit_bit = 1e-3;
        let faults = [
            FaultPlan::NONE,
            FaultPlan::compile(&noisy_fault_spec(17)),
            FaultPlan::compile(&flipping),
        ];
        for integrity in Integrity::ALL {
            let plan = ExecutionPlan::compile_with_integrity(p.clone(), &board, integrity);
            for fault in &faults {
                for supply in [bench_supply(), weak_supply()] {
                    let mut flat_board = Board::msp430fr5994();
                    let mut flat_supply = supply.clone();
                    let flat = FlatRecorder {
                        op_count: plan.len() as u32,
                        ..FlatRecorder::default()
                    };
                    let mut probe = NullProbe;
                    let mut lane = Lane::new(
                        &exec,
                        &plan,
                        &mut flat_board,
                        &mut flat_supply,
                        flat,
                        &mut probe,
                        fault,
                    );
                    while lane.step() {}
                    let (flat_report, flat) = lane.finish();

                    let mut record_board = Board::msp430fr5994();
                    let mut record_supply = supply.clone();
                    let (recorded, trace) = exec.run_plan_faulted_traced(
                        &plan,
                        &mut record_board,
                        &mut record_supply,
                        fault,
                    );
                    assert_eq!(recorded, flat_report);
                    assert_eq!(flat_codes(&trace), flat.steps);
                    assert_eq!(trace.len(), flat.steps.len());
                    assert_eq!(
                        trace.len() as u64,
                        recorded.executed_ops + recorded.restores
                    );
                    // One entry per restore or applied (possibly torn)
                    // checkpoint, plus the first run of ops.
                    let marks = recorded.restores
                        + recorded.ondemand_checkpoints
                        + recorded.faults.torn_commits;
                    assert!(trace.runs.len() as u64 <= marks + 1);

                    // Replays onto a board with prior history match a
                    // live run on an identical board.
                    let mut live_board = Board::msp430fr5994();
                    let mut replay_board = Board::msp430fr5994();
                    for _ in 0..2 {
                        let mut s = supply.clone();
                        let live = exec.run_plan_faulted(&plan, &mut live_board, &mut s, fault);
                        let replayed = exec.replay_trace(&plan, &trace, &mut replay_board);
                        assert_eq!(live, replayed);
                    }
                    assert_eq!(live_board.meter(), replay_board.meter());
                    assert_eq!(live_board.elapsed_cycles(), replay_board.elapsed_cycles());
                }
            }
        }
    }

    #[test]
    fn pair_lanes_match_solo_runs_and_their_event_streams() {
        use crate::probe::EventRing;

        let p = mixed_program(700);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile_with_integrity(p, &board, Integrity::Secded);
        let exec = IntermittentExecutor::default();
        let mut flipping = noisy_fault_spec(23);
        flipping.flip_per_commit_bit = 1e-3;
        let solo = |supply: &PowerSupply, fault: &FaultPlan| {
            let mut b = Board::msp430fr5994();
            let mut s = supply.clone();
            let mut ring = EventRing::new(1 << 16);
            let r = exec.run_plan_faulted_probed(&plan, &mut b, &mut s, fault, &mut ring);
            let events: Vec<ExecEvent> = ring.events().copied().collect();
            (r, b.meter().clone(), s.capacitor().clone(), events)
        };
        for fault in [FaultPlan::NONE, FaultPlan::compile(&flipping)] {
            let (a, b) = (weak_supply(), bench_supply());
            let (want_a, want_b) = (solo(&a, &fault), solo(&b, &fault));
            let (mut board_a, mut board_b) = (Board::msp430fr5994(), Board::msp430fr5994());
            let (mut sa, mut sb) = (a.clone(), b.clone());
            let (mut ring_a, mut ring_b) = (EventRing::new(1 << 16), EventRing::new(1 << 16));
            let (ra, rb, trace) = exec.run_plan_pair(
                &plan,
                &fault,
                (&mut board_a, &mut sa, &mut ring_a),
                (&mut board_b, &mut sb, &mut ring_b),
                true,
            );
            let got_a = (
                ra,
                board_a.meter().clone(),
                sa.capacitor().clone(),
                ring_a.events().copied().collect::<Vec<_>>(),
            );
            let got_b = (
                rb,
                board_b.meter().clone(),
                sb.capacitor().clone(),
                ring_b.events().copied().collect::<Vec<_>>(),
            );
            assert_eq!(got_a, want_a);
            assert_eq!(got_b, want_b);
            assert!(got_a.0.outages > 0, "want outage coverage");
            assert_eq!(trace.expect("recorded").report(), &want_b.0);
        }
    }

    #[test]
    fn run_continuous_sums_costs() {
        let p = cpu_heavy_program(10, 100, CheckpointSpec::NONE);
        let mut board = Board::msp430fr5994();
        let c = crate::run_continuous(&p, &mut board);
        assert_eq!(c.cycles.raw(), 1000);
        assert!(c.energy.nanojoules() > 0.0);
    }
}
