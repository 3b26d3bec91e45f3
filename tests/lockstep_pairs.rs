//! Lockstep pairs: two live runs interleaved op by op through
//! `IntermittentExecutor::run_plan_pair` (and the session's
//! `infer_intermittent_pair`) must be bit-identical to the same two runs
//! executed one after the other — reports, board meters and clocks,
//! capacitor end states and each run's probe event stream — across every
//! strategy, fault regime, integrity scheme and catalog environment.

use ehdl::device::{Board, Component};
use ehdl::ehsim::{
    catalog, Capacitor, EventRing, ExecEvent, ExecutorConfig, FaultPlan, FaultSpec, Harvester,
    Integrity, IntermittentExecutor, NullProbe, PowerSupply, WearCurve,
};
use ehdl::prelude::*;

/// Bounded executor so strategies that can never finish under harvested
/// power declare their ✗ quickly.
fn quick_executor() -> ExecutorConfig {
    ExecutorConfig {
        stall_outages: 6,
        max_wall_seconds: 600.0,
        ..ExecutorConfig::default()
    }
}

/// An armed storm of every fault kind, bit flips included.
fn storm() -> FaultPlan {
    FaultPlan::compile(&FaultSpec {
        seed: 0xF1A5_C0DE,
        reset_per_op: 2e-4,
        sag_per_op: 1e-3,
        sag_factor: 1.5,
        tear_per_commit: 0.1,
        corrupt_per_restore: 0.25,
        burst_len: 0,
        flip_per_commit_bit: 1e-4,
        wear: WearCurve::NONE,
    })
}

fn har_deployment() -> Deployment {
    let mut model = ehdl::nn::zoo::har();
    let data = ehdl::datasets::har(8, 3);
    Deployment::builder(&mut model, &data)
        .build()
        .expect("deployment builds")
}

/// Every meter bin's energy and cycles as raw bits, then the clock.
fn board_bits(board: &Board) -> Vec<u64> {
    let meter = board.meter();
    Component::ALL
        .iter()
        .flat_map(|&c| {
            [
                meter.energy_of(c).nanojoules().to_bits(),
                meter.cycles_of(c).raw(),
            ]
        })
        .chain([board.elapsed_cycles().raw()])
        .collect()
}

fn events(ring: &EventRing) -> Vec<ExecEvent> {
    ring.events().copied().collect()
}

/// One solo run on a fresh board, observed by an event ring.
fn solo(
    executor: &IntermittentExecutor,
    plan: &ehdl::ehsim::ExecutionPlan,
    fault: &FaultPlan,
    supply: &PowerSupply,
    board: &Board,
) -> (ehdl::ehsim::RunReport, Vec<u64>, u64, Vec<ExecEvent>) {
    let mut board = board.clone();
    let mut supply = supply.clone();
    let mut ring = EventRing::new(1 << 20);
    let report = executor.run_plan_faulted_probed(plan, &mut board, &mut supply, fault, &mut ring);
    let volts = supply.capacitor().volts().to_bits();
    (report, board_bits(&board), volts, events(&ring))
}

/// Runs `a` and `b` solo and as a lockstep pair (untraced and traced)
/// and asserts every observable agrees bit for bit.
fn assert_pair_matches_solo(
    executor: &IntermittentExecutor,
    plan: &ehdl::ehsim::ExecutionPlan,
    fault: &FaultPlan,
    [a, b]: [&PowerSupply; 2],
    board: &Board,
    label: &str,
) {
    let solo_a = solo(executor, plan, fault, a, board);
    let solo_b = solo(executor, plan, fault, b, board);
    for trace_b in [false, true] {
        let (mut board_a, mut board_b) = (board.clone(), board.clone());
        let (mut supply_a, mut supply_b) = (a.clone(), b.clone());
        let (mut ring_a, mut ring_b) = (EventRing::new(1 << 20), EventRing::new(1 << 20));
        let (report_a, report_b, trace) = executor.run_plan_pair(
            plan,
            fault,
            (&mut board_a, &mut supply_a, &mut ring_a),
            (&mut board_b, &mut supply_b, &mut ring_b),
            trace_b,
        );
        assert_eq!(trace.is_some(), trace_b, "{label}");
        let pair_a = (
            report_a,
            board_bits(&board_a),
            supply_a.capacitor().volts().to_bits(),
            events(&ring_a),
        );
        let pair_b = (
            report_b,
            board_bits(&board_b),
            supply_b.capacitor().volts().to_bits(),
            events(&ring_b),
        );
        assert_eq!(pair_a, solo_a, "{label}: lane a (trace_b {trace_b})");
        assert_eq!(pair_b, solo_b, "{label}: lane b (trace_b {trace_b})");
        if let Some(trace) = trace {
            assert_eq!(trace.report(), &solo_b.0, "{label}: recorded template");
        }
    }
}

#[test]
fn pairs_match_solo_runs_across_strategies_faults_integrity_and_catalog() {
    let deployment = har_deployment();
    let executor = IntermittentExecutor::new(quick_executor());
    let board = deployment.board_spec().board();
    let environments = catalog::all();
    for strategy in Strategy::ALL {
        let program = strategy.lower(deployment.quantized(), deployment.program());
        for integrity in Integrity::ALL {
            let plan = ehdl::ehsim::ExecutionPlan::compile_with_integrity(
                program.clone(),
                &board,
                integrity,
            );
            for (fault_label, fault) in [("no faults", FaultPlan::NONE), ("storm", storm())] {
                for (k, env) in environments.iter().enumerate() {
                    // Lane b runs a different environment (and seed), so
                    // the two lanes differ in length and outage pattern.
                    let other = &environments[(k + 1) % environments.len()];
                    let a = env.reseeded(11).supply();
                    let b = other.reseeded(12).supply();
                    let label = format!(
                        "{strategy} / {integrity:?} / {fault_label} / {} + {}",
                        env.name(),
                        other.name()
                    );
                    assert_pair_matches_solo(&executor, &plan, &fault, [&a, &b], &board, &label);
                }
            }
        }
    }
}

#[test]
fn pairs_match_solo_runs_under_an_energy_budget_and_the_stepped_dark_phase() {
    let deployment = har_deployment();
    let board = deployment.board_spec().board();
    let budget = IntermittentExecutor::new(ExecutorConfig {
        energy_budget_nj: Some(40_000.0),
        ..quick_executor()
    });
    let stepped = IntermittentExecutor::new(ExecutorConfig {
        charge_step_s: Some(1e-3),
        ..quick_executor()
    });
    let rf = catalog::office_rf();
    for strategy in Strategy::ALL {
        let program = strategy.lower(deployment.quantized(), deployment.program());
        let plan = ehdl::ehsim::ExecutionPlan::compile(program, &board);
        for (label, executor) in [("budget", &budget), ("stepped", &stepped)] {
            for fault in [FaultPlan::NONE, storm()] {
                let a = rf.reseeded(3).supply();
                let b = catalog::piezo_gait().supply();
                let label = format!("{strategy} / {label}");
                assert_pair_matches_solo(executor, &plan, &fault, [&a, &b], &board, &label);
            }
        }
    }
}

#[test]
fn a_short_lane_ends_while_a_long_one_runs_on() {
    let deployment = har_deployment();
    let board = deployment.board_spec().board();
    let executor = IntermittentExecutor::new(quick_executor());
    let program = Strategy::Tails.lower(deployment.quantized(), deployment.program());
    let plan = ehdl::ehsim::ExecutionPlan::compile(program, &board);
    // A dead source runs one discharge's worth of ops and then stays
    // dark until the wall-clock limit; the bench supply runs the whole
    // program — in either lane.
    let short = PowerSupply::new(Harvester::constant(0.0), Capacitor::paper_100uf());
    let long = catalog::bench_supply().supply();
    let (solo_short, ..) = solo(&executor, &plan, &FaultPlan::NONE, &short, &board);
    let (solo_long, ..) = solo(&executor, &plan, &FaultPlan::NONE, &long, &board);
    assert!(!solo_short.completed() && solo_long.completed());
    assert!(solo_long.executed_ops > 2 * solo_short.executed_ops);
    for (order, supplies) in [
        ("short first", [&short, &long]),
        ("long first", [&long, &short]),
    ] {
        for fault in [FaultPlan::NONE, storm()] {
            assert_pair_matches_solo(&executor, &plan, &fault, supplies, &board, order);
        }
    }
}

/// The session pair lands both runs on one board back to back — or on a
/// partner session's board — exactly as two solo calls would.
#[test]
fn session_pairs_match_back_to_back_solo_calls() {
    let deployment = har_deployment();
    let executor = IntermittentExecutor::new(quick_executor());
    let env = catalog::office_rf();
    for strategy in Strategy::ALL {
        let deployment = deployment.retarget(deployment.board_spec().clone(), strategy);
        let plan = std::sync::Arc::new(deployment.compile_plan_with_integrity(Integrity::Secded));
        for fault in [FaultPlan::NONE, storm()] {
            let supply = |run: u64| env.reseeded(run).supply();

            // Solo: runs 0..4 back to back on one session.
            let mut solo = deployment.session_with_plan(plan.clone());
            let solo_reports: Vec<_> = (0..4)
                .map(|run| {
                    solo.infer_intermittent_faulted_probed(
                        &executor,
                        &mut supply(run),
                        &fault,
                        &mut NullProbe,
                    )
                })
                .collect();

            // Pairs (0, 1) and (2, 3) on one session.
            let mut paired = deployment.session_with_plan(plan.clone());
            let mut pair_reports = Vec::new();
            for run in [0, 2] {
                let (mut a, mut b) = (supply(run), supply(run + 1));
                pair_reports.extend(paired.infer_intermittent_pair(
                    None,
                    &executor,
                    [&mut a, &mut b],
                    &fault,
                    (&mut NullProbe, &mut NullProbe),
                ));
            }
            assert_eq!(pair_reports, solo_reports, "{strategy}: one board");
            assert_eq!(
                board_bits(paired.board()),
                board_bits(solo.board()),
                "{strategy}: session board"
            );

            // Partner sessions: each keeps its own board.
            let mut solo_b = deployment.session_with_plan(plan.clone());
            let want_b = solo_b.infer_intermittent_faulted_probed(
                &executor,
                &mut supply(9),
                &fault,
                &mut NullProbe,
            );
            let mut lead = deployment.session_with_plan(plan.clone());
            let mut partner = deployment.session_with_plan(plan.clone());
            let (mut a, mut b) = (supply(0), supply(9));
            let [got_a, got_b] = lead.infer_intermittent_pair(
                Some(&mut partner),
                &executor,
                [&mut a, &mut b],
                &fault,
                (&mut NullProbe, &mut NullProbe),
            );
            assert_eq!(got_a, solo_reports[0], "{strategy}: lead");
            assert_eq!(got_b, want_b, "{strategy}: partner");
            assert_eq!(board_bits(partner.board()), board_bits(solo_b.board()));
        }
    }
}
