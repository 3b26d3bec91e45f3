//! Deterministic fault injection: the crash-consistency acceptance
//! suite. A disabled fault plan must leave every executor path
//! bit-identical to the unfaulted engine (the no-regression bar), a
//! seeded plan must replay bit-identically across executor paths and
//! worker counts, and no strategy may ever complete with silently
//! corrupted progress — every corrupt restore is detected and rolled
//! back to the last good checkpoint.

use ehdl::ehsim::{
    catalog, ExecutorConfig, FaultPlan, FaultSpec, Integrity, IntermittentExecutor, WearCurve,
};
use ehdl::prelude::*;
use ehdl_fleet::{
    DigestSink, FleetRunner, GroupAxis, GroupBySink, JsonlSink, ScenarioMatrix, Workload,
};
use std::sync::Arc;

fn quick_executor() -> ExecutorConfig {
    ExecutorConfig {
        stall_outages: 6,
        max_wall_seconds: 600.0,
        ..ExecutorConfig::default()
    }
}

/// An aggressive-but-survivable schedule: every fault kind fires.
fn storm(seed: u64) -> FaultSpec {
    FaultSpec {
        seed,
        reset_per_op: 2e-4,
        sag_per_op: 1e-3,
        sag_factor: 1.5,
        tear_per_commit: 0.1,
        corrupt_per_restore: 0.25,
        burst_len: 0,
        flip_per_commit_bit: 0.0,
        wear: WearCurve::NONE,
    }
}

/// A payload-upset storm: spurious resets force restores without
/// brown-outs, every successful commit draws a per-bit flip, and a
/// short wear-endurance curve accelerates the rate as slots age.
fn bit_storm(seed: u64) -> FaultSpec {
    FaultSpec {
        seed,
        reset_per_op: 0.01,
        flip_per_commit_bit: 2e-4,
        wear: WearCurve {
            endurance_commits: 20_000,
        },
        ..FaultSpec::none()
    }
}

fn har_deployment(strategy: Strategy) -> Deployment {
    let mut model = ehdl::nn::zoo::har();
    let data = ehdl::datasets::har(8, 3);
    Deployment::builder(&mut model, &data)
        .strategy(strategy)
        .build()
        .unwrap()
}

/// `FaultPlan::NONE` is the identity: for every (strategy, environment)
/// pair the faulted entry points reproduce the unfaulted runs bit for
/// bit — report, board meter and recorded trace. This is what keeps a
/// no-fault sweep byte-identical to the pre-fault-injection engine.
#[test]
fn disabled_fault_plan_is_bit_identical_to_the_unfaulted_engine() {
    let executor = IntermittentExecutor::new(quick_executor());
    for strategy in Strategy::ALL {
        let deployment = har_deployment(strategy);
        for environment in catalog::all() {
            let name = environment.name();

            let mut plain_session = deployment.session();
            let mut supply = environment.supply();
            let plain = plain_session.infer_intermittent_with(&executor, &mut supply);

            let mut faulted_session = deployment.session();
            let mut supply = environment.supply();
            let faulted = faulted_session.infer_intermittent_faulted(
                &executor,
                &mut supply,
                &FaultPlan::NONE,
            );
            assert_eq!(plain, faulted, "{strategy} in {name}");
            assert!(faulted.faults.is_clean(), "{strategy} in {name}");

            let mut traced_session = deployment.session();
            let mut supply = environment.supply();
            let (plain_report, plain_trace) =
                traced_session.infer_intermittent_traced(&executor, &mut supply);
            let mut traced_faulted = deployment.session();
            let mut supply = environment.supply();
            let (faulted_report, faulted_trace) = traced_faulted.infer_intermittent_faulted_traced(
                &executor,
                &mut supply,
                &FaultPlan::NONE,
            );
            assert_eq!(plain_report, faulted_report, "{strategy} in {name}");
            assert_eq!(plain_trace, faulted_trace, "{strategy} in {name}");
        }
    }
}

/// Plan-vs-reference parity under fire: the compiled fast path and the
/// op-by-op interpreter must agree bit for bit on a seeded fault
/// schedule — same injections, same recovery, same meter.
#[test]
fn faulted_plan_and_reference_paths_agree_across_strategies() {
    let executor = IntermittentExecutor::new(quick_executor());
    let fault = FaultPlan::compile(&storm(42));
    for strategy in Strategy::ALL {
        let deployment = har_deployment(strategy);
        for environment in catalog::all() {
            let name = environment.name();
            let mut planned_session = deployment.session();
            let mut supply = environment.supply();
            let planned =
                planned_session.infer_intermittent_faulted(&executor, &mut supply, &fault);
            let mut reference_session = deployment.session();
            let mut supply = environment.supply();
            let reference = reference_session.infer_intermittent_faulted_reference(
                &executor,
                &mut supply,
                &fault,
            );
            assert_eq!(planned, reference, "{strategy} in {name}");
        }
    }
}

/// The crash-consistency audit. Under a hostile schedule every strategy
/// must end in one of two honest states: recovered (completed with
/// exactly the work a fault-free run performs) or aborted with its
/// faults on the record. Corrupt restores are always detected — the
/// executor falls back to the last good slot — and a silently wrong
/// result (corrupted progress treated as valid) must be structurally
/// impossible.
#[test]
fn every_strategy_recovers_or_reports_detected_corruption() {
    let executor = IntermittentExecutor::new(quick_executor());
    let fault = FaultPlan::compile(&storm(7));
    let mut injected_total = 0;
    for strategy in Strategy::ALL {
        let deployment = har_deployment(strategy);
        for environment in catalog::all() {
            let name = environment.name();

            let mut clean_session = deployment.session();
            let mut supply = environment.supply();
            let clean = clean_session.infer_intermittent_with(&executor, &mut supply);

            let mut session = deployment.session();
            let mut supply = environment.supply();
            let report = session.infer_intermittent_faulted(&executor, &mut supply, &fault);
            let tally = &report.faults;
            injected_total += tally.injected();

            // Never a silent corruption: every corrupt restore is
            // detected the moment the slot is read back.
            assert_eq!(tally.silent_corruptions, 0, "{strategy} in {name}");
            assert_eq!(
                tally.detected_corruptions, tally.corrupt_restores,
                "{strategy} in {name}: undetected corrupt restore"
            );

            // Recovery means the full op stream ran: a completed
            // faulted run performs exactly the useful work a completed
            // fault-free run does. Re-done work lands in wasted_ops and
            // checkpoint writes (committed or torn) ride executed_ops
            // outside the op stream, so subtract both before comparing.
            let useful = |r: &ehdl::ehsim::RunReport| {
                r.executed_ops - r.wasted_ops - r.ondemand_checkpoints - r.faults.torn_commits
            };
            if report.completed() && clean.completed() {
                assert_eq!(
                    useful(&report),
                    useful(&clean),
                    "{strategy} in {name}: completed with missing work"
                );
            }
            // Checkpoint-free strategies starve under harvested power
            // with or without injected faults — the ✗ stays honest.
            if !strategy.survives_intermittence() && !clean.completed() {
                assert!(
                    !report.completed(),
                    "{strategy} in {name}: faults cannot make a doomed strategy complete"
                );
            }
        }
    }
    assert!(injected_total > 0, "the storm schedule never fired");
}

/// Fleet-level fault determinism: a seeded-fault sweep folds to a
/// bit-identical digest and byte-identical row stream at 1, 2 and 8
/// workers, its resilience tally is populated, and the no-fault axis
/// entry inside the same matrix stays clean.
#[test]
fn seeded_fault_sweeps_are_bit_identical_across_worker_counts() {
    let matrix = ScenarioMatrix::new()
        .environments(catalog::all())
        .strategies(vec![Strategy::Sonic, Strategy::Flex])
        .workloads(vec![Workload::Har { samples: 6 }])
        .faults(vec![FaultSpec::none(), storm(9)])
        .executor(quick_executor());
    assert_eq!(matrix.len(), 4 * 2 * 2);

    let one = FleetRunner::builder()
        .workers(1)
        .sink(DigestSink::new())
        .run(&matrix)
        .unwrap();
    for workers in [2, 8] {
        let many = FleetRunner::builder()
            .workers(workers)
            .sink(DigestSink::new())
            .run(&matrix)
            .unwrap();
        assert_eq!(one, many, "{workers} workers");
        assert_eq!(one.to_string(), many.to_string(), "{workers} workers");
    }
    // The storm half of the matrix actually faulted, nothing was
    // silently corrupted, and the report surfaces the tally.
    let r = &one.resilience;
    assert!(r.faulted_runs > 0);
    assert!(r.spurious_resets + r.torn_commits + r.sag_ops + r.corrupt_restores > 0);
    assert_eq!(r.silent_corruptions, 0);
    assert!((0.0..=1.0).contains(&r.recovery_rate()));
    assert!(one.to_string().contains("resilience:"), "{one}");

    // Row streams hold the same bar, and rows carry the fault label.
    let (jsonl_one, rows_one) = FleetRunner::builder()
        .workers(1)
        .sink(JsonlSink::new(Vec::new()))
        .run(&matrix)
        .unwrap();
    let (jsonl_eight, rows_eight) = FleetRunner::builder()
        .workers(8)
        .sink(JsonlSink::new(Vec::new()))
        .run(&matrix)
        .unwrap();
    assert_eq!(rows_one, rows_eight);
    assert_eq!(jsonl_one, jsonl_eight);
    let text = String::from_utf8(jsonl_one).unwrap();
    assert!(text.contains("\"fault\":\"none\""), "missing clean label");
    assert!(text.contains("\"fault\":\"f9:"), "missing storm label");
}

/// A no-fault matrix (the default axis) folds to the same digest as one
/// that never mentions faults — the fault axis defaults to a single
/// disabled spec, so existing sweeps cannot move a bit.
#[test]
fn default_fault_axis_leaves_sweeps_unchanged() {
    let base = ScenarioMatrix::new()
        .environments(vec![catalog::bench_supply(), catalog::office_rf()])
        .strategies(vec![Strategy::Flex])
        .workloads(vec![Workload::Har { samples: 6 }])
        .executor(quick_executor());
    let explicit = base.clone().faults(vec![FaultSpec::none()]);
    let implicit_digest = FleetRunner::builder()
        .workers(2)
        .sink(DigestSink::new())
        .run(&base)
        .unwrap();
    let explicit_digest = FleetRunner::builder()
        .workers(2)
        .sink(DigestSink::new())
        .run(&explicit)
        .unwrap();
    assert_eq!(implicit_digest, explicit_digest);
    assert_eq!(implicit_digest.resilience.faulted_runs, 0);
    assert!(!implicit_digest.to_string().contains("resilience:"));
}

/// Cache pressure cannot move results: squeezing the runner's
/// built-model and trace caches down to one entry forces evictions and
/// deterministic rebuilds, and the digest stays bit-identical to an
/// uncapped sweep at every worker count. Built models are keyed by
/// (workload, seed), so two seeds — alternating as the strategy axis
/// advances — make a one-entry cache evict.
#[test]
fn lru_evictions_leave_the_digest_bit_identical() {
    let matrix = ScenarioMatrix::new()
        .environments(catalog::all())
        .strategies(vec![Strategy::Sonic, Strategy::Flex])
        .workloads(vec![Workload::Har { samples: 6 }])
        .seeds(vec![0, 1])
        .executor(quick_executor());
    let uncapped = FleetRunner::builder()
        .workers(2)
        .sink(DigestSink::new())
        .run(&matrix)
        .unwrap();
    for workers in [1, 4] {
        let (capped, profile) = FleetRunner::builder()
            .workers(workers)
            .cache_entries(1)
            .sink(DigestSink::new())
            .run_profiled(&matrix)
            .unwrap();
        assert_eq!(uncapped, capped, "{workers} workers");
        assert!(
            profile.caches.deployment.evictions > 0,
            "{workers} workers: cap 1 never evicted ({:?})",
            profile.caches.deployment
        );
        assert_eq!(profile.caches.deployment.entries, 1, "{workers} workers");
    }
}

/// The payload-integrity audit. Under a bit-flip storm the `None`
/// scheme restores flipped payloads as if they were good: its own
/// in-band machinery detects nothing and repairs nothing, so the run
/// looks clean from the device's point of view. Only the golden-twin
/// diff catches it — the SECDED-guarded twin of the *same* deployment
/// under the *same* storm resolves its restores through repair and
/// fallback rungs, while the unguarded run accepts every one at rung
/// zero despite carrying injected flips. `Checksum` and `Secded`
/// make `silent_corruptions == 0` a property of the modeled detection
/// scheme, and both faulted paths (compiled plan and op-by-op
/// reference) agree bit for bit under every scheme.
#[test]
fn bit_flip_storm_is_silent_under_none_and_caught_only_by_the_golden_twin() {
    let executor = IntermittentExecutor::new(quick_executor());
    let fault = FaultPlan::compile(&bit_storm(29));
    let deployment = har_deployment(Strategy::Sonic);
    let environment = catalog::bench_supply();

    let mut reports = Vec::new();
    for scheme in Integrity::ALL {
        let plan = Arc::new(deployment.compile_plan_with_integrity(scheme));

        let mut planned_session = deployment.session_with_plan(Arc::clone(&plan));
        let mut supply = environment.supply();
        let planned = planned_session.infer_intermittent_faulted(&executor, &mut supply, &fault);

        let mut reference_session = deployment.session_with_plan(Arc::clone(&plan));
        let mut supply = environment.supply();
        let reference =
            reference_session.infer_intermittent_faulted_reference(&executor, &mut supply, &fault);

        // Bit-identical across executor paths, flips included.
        assert_eq!(planned, reference, "{scheme}");
        assert!(planned.integrity.flips_injected > 0, "{scheme}: no flips");
        assert!(planned.restores > 0, "{scheme}: storm forced no restores");
        assert_eq!(
            planned.integrity.restores_resolved(),
            planned.restores,
            "{scheme}: ladder must account for every restore"
        );
        assert!(
            planned.integrity.wear_max_commits > 0,
            "{scheme}: wear curve never tracked a commit"
        );
        reports.push(planned);
    }
    let [none, checksum, secded] = &reports[..] else {
        unreachable!()
    };

    // The unguarded run is in-band silent: nothing detected, nothing
    // repaired, every restore accepted at the first ladder rung…
    assert_eq!(none.integrity.flips_detected, 0);
    assert_eq!(none.integrity.flips_repaired, 0);
    assert_eq!(none.integrity.ladder[0], none.restores);
    // …yet the golden-twin bookkeeping proves corrupted payloads were
    // restored as if they were good.
    assert!(none.integrity.silent_restores > 0);
    assert_eq!(
        none.faults.silent_corruptions,
        none.integrity.silent_restores
    );
    // The SECDED twin of the same deployment under the same storm
    // resolves restores past rung zero — the diff that catches `None`.
    assert!(
        secded.integrity.ladder[1] + secded.integrity.ladder[2] + secded.integrity.ladder[3] > 0,
        "twin ladder never left rung zero"
    );

    // Guarded schemes keep silent corruption at zero by construction.
    assert_eq!(checksum.integrity.silent_restores, 0);
    assert_eq!(checksum.faults.silent_corruptions, 0);
    assert!(checksum.integrity.flips_detected > 0);
    assert_eq!(
        checksum.integrity.flips_repaired, 0,
        "checksum cannot repair"
    );
    assert_eq!(secded.integrity.silent_restores, 0);
    assert_eq!(secded.faults.silent_corruptions, 0);
    assert!(
        secded.integrity.flips_repaired > 0,
        "secded repairs singles"
    );
}

/// Fleet-level integrity determinism: a bit-flip storm swept across the
/// full integrity axis folds to a bit-identical digest at 1, 2 and 8
/// workers, and grouping by scheme shows silent corruption exactly
/// where the audit predicts it — in the `none` group and nowhere else.
#[test]
fn integrity_axis_sweeps_are_bit_identical_across_worker_counts() {
    let matrix = ScenarioMatrix::new()
        .environments(vec![catalog::bench_supply(), catalog::office_rf()])
        .strategies(vec![Strategy::Sonic])
        .workloads(vec![Workload::Har { samples: 4 }])
        .faults(vec![bit_storm(11)])
        .integrities(Integrity::ALL.to_vec())
        .executor(quick_executor());
    assert_eq!(matrix.len(), 2 * 3);

    let (one, by_scheme) = FleetRunner::builder()
        .workers(1)
        .sink((DigestSink::new(), GroupBySink::new(GroupAxis::Integrity)))
        .run(&matrix)
        .unwrap();
    for workers in [2, 8] {
        let (many, grouped) = FleetRunner::builder()
            .workers(workers)
            .sink((DigestSink::new(), GroupBySink::new(GroupAxis::Integrity)))
            .run(&matrix)
            .unwrap();
        assert_eq!(one, many, "{workers} workers");
        assert_eq!(by_scheme, grouped, "{workers} workers");
    }

    let none = by_scheme.get("none").unwrap();
    let checksum = by_scheme.get("checksum").unwrap();
    let secded = by_scheme.get("secded").unwrap();
    for (label, digest) in [("none", none), ("checksum", checksum), ("secded", secded)] {
        assert!(digest.integrity.flips_injected > 0, "{label}: no flips");
    }
    assert!(none.resilience.silent_corruptions > 0);
    assert!(none.integrity.silent_restores > 0);
    assert_eq!(checksum.resilience.silent_corruptions, 0);
    assert!(checksum.integrity.flips_detected > 0);
    assert_eq!(secded.resilience.silent_corruptions, 0);
    assert!(secded.integrity.flips_repaired > 0);
    // The merged digest surfaces the integrity line.
    assert!(one.to_string().contains("integrity:"), "{one}");
}
