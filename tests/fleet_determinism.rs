//! Fleet determinism: the same `ScenarioMatrix` must fold to an
//! identical report at any worker count — for the dense `FleetReport`
//! *and* for every streaming telemetry sink — the acceptance bar for
//! the sweep engine (4 environments × 6 strategies × 2 boards = 48
//! scenarios).

use ehdl::device::CostTable;
use ehdl::ehsim::{catalog, ExecutorConfig};
use ehdl::prelude::*;
use ehdl_fleet::{
    CsvSink, DigestSink, FleetRunner, FullReportSink, GroupAxis, GroupBySink, JsonlSink,
    ScenarioMatrix, StatsDigest, Workload,
};

/// The full acceptance matrix: every catalog environment, every
/// strategy, the paper board plus a 2× slower CPU ablation board.
fn acceptance_matrix() -> ScenarioMatrix {
    let mut slow_cpu = CostTable::msp430fr5994();
    slow_cpu.cpu_op_cycles *= 2;
    ScenarioMatrix::new()
        .environments(catalog::all())
        .strategies(Strategy::ALL.to_vec())
        .boards(vec![BoardSpec::Msp430Fr5994, BoardSpec::Custom(slow_cpu)])
        .workloads(vec![Workload::Har { samples: 6 }])
        .executor(ExecutorConfig {
            // BASE and bare ACE stall forever in harvested environments;
            // declare the ✗ after a few fruitless reboots to keep the
            // 48-scenario sweep fast.
            stall_outages: 6,
            ..ExecutorConfig::default()
        })
}

#[test]
fn fleet_report_is_identical_across_worker_counts() {
    let matrix = acceptance_matrix();
    assert_eq!(matrix.len(), 4 * 6 * 2);

    let one = FleetRunner::new(1).run(&matrix).unwrap();
    let two = FleetRunner::new(2).run(&matrix).unwrap();
    let eight = FleetRunner::new(8).run(&matrix).unwrap();

    assert_eq!(one.len(), 48);
    // Deterministic fold: equal reports and byte-identical rendering.
    assert_eq!(one, two);
    assert_eq!(one, eight);
    assert_eq!(one.to_string(), eight.to_string());
}

#[test]
fn fleet_results_match_paper_expectations() {
    let report = FleetRunner::new(8).run(&acceptance_matrix()).unwrap();

    for s in &report.scenarios {
        // The bench supply never browns out: everything completes there,
        // even the checkpoint-free baselines.
        if s.environment == "bench_supply" {
            assert_eq!(s.completed_runs, s.runs, "{}", s.name);
            assert_eq!(s.outages, 0, "{}", s.name);
        }
        // Strategies that persist no progress must never finish in a
        // harvested environment (Figure 7(b)'s ✗ columns), while FLEX
        // completes everywhere.
        if s.environment != "bench_supply" {
            match s.strategy {
                Strategy::Base | Strategy::Bare => {
                    assert_eq!(s.completed_runs, 0, "{}", s.name);
                    assert!(s.outages > 0, "{}", s.name);
                }
                Strategy::Flex => {
                    assert_eq!(s.completed_runs, s.runs, "{}", s.name);
                }
                _ => {}
            }
        }
        // Accuracy comes from the shared deployment: identical for every
        // environment of the same (workload, board, strategy, seed).
        assert!((0.0..=1.0).contains(&s.accuracy), "{}", s.name);
    }

    // Completed latencies feed the percentile pipeline.
    assert!(report.completed_runs() > 0);
    let p50 = report.latency_percentile_ms(50.0).unwrap();
    let p99 = report.latency_percentile_ms(99.0).unwrap();
    assert!(p50 > 0.0 && p99 >= p50);
}

#[test]
fn full_report_sink_reproduces_the_classic_report() {
    // The sink-based pipeline is a redesign of the reporting layer, not
    // of the results: FleetRunner::run (which now folds through
    // FullReportSink) and an explicitly sunk sweep must both equal the
    // classic dense report over the whole acceptance matrix.
    let matrix = acceptance_matrix();
    let classic = FleetRunner::new(4).run(&matrix).unwrap();
    let sunk = FleetRunner::builder()
        .workers(4)
        .sink(FullReportSink::new())
        .run(&matrix)
        .unwrap();
    assert_eq!(classic, sunk);
    assert_eq!(classic.to_string(), sunk.to_string());
}

#[test]
fn digest_sink_is_bit_identical_across_worker_counts() {
    // The streaming digest must be a pure function of the matrix: equal
    // (PartialEq over every counter, f64 sum and histogram bin) at 1, 2
    // and 8 workers over the 48-scenario acceptance matrix.
    let matrix = acceptance_matrix();
    let one = FleetRunner::builder()
        .workers(1)
        .sink(DigestSink::new())
        .run(&matrix)
        .unwrap();
    let two = FleetRunner::builder()
        .workers(2)
        .sink(DigestSink::new())
        .run(&matrix)
        .unwrap();
    let eight = FleetRunner::builder()
        .workers(8)
        .sink(DigestSink::new())
        .run(&matrix)
        .unwrap();
    assert_eq!(one, two);
    assert_eq!(one, eight);
    assert_eq!(one.to_string(), eight.to_string());

    // And it summarizes the same sweep the dense report sees.
    let full = FleetRunner::new(8).run(&matrix).unwrap();
    assert_eq!(one.scenarios as usize, full.len());
    assert_eq!(one.runs, full.total_runs());
    assert_eq!(one.completed_runs, full.completed_runs());
    assert_eq!(one.outages, full.total_outages());
    assert!((one.total_energy_mj() - full.total_energy_mj()).abs() < 1e-9);
    let exact = full.latency_percentile_ms(90.0).unwrap();
    let est = one.latency_ms.p90().unwrap();
    assert!(
        (est - exact).abs() / exact <= StatsDigest::RELATIVE_ERROR,
        "p90 sketch {est} vs exact {exact}"
    );
}

#[test]
fn dark_time_telemetry_reaches_every_sink() {
    let matrix = acceptance_matrix();
    let digest = FleetRunner::builder()
        .workers(4)
        .sink(DigestSink::new())
        .run(&matrix)
        .unwrap();
    // One dark-time sample per run, whatever the outcome, and the
    // sketch's sum must reconcile with the exact counter.
    assert_eq!(digest.dark_s.count(), digest.runs);
    assert!(
        (digest.dark_s.sum() - digest.charging_seconds).abs() <= 1e-9,
        "sketch sum {} vs exact {}",
        digest.dark_s.sum(),
        digest.charging_seconds
    );
    // Harvested environments actually spend dark time; the display
    // surfaces it for budget sweeps.
    assert!(digest.charging_seconds > 0.0);
    assert!(digest.to_string().contains("dark time"), "{digest}");

    // Grouped by strategy: completing strategies in harvested
    // environments must show nonzero dark time (they rode out outages),
    // and the per-group sketch counts cover every run.
    let grouped = FleetRunner::builder()
        .workers(2)
        .sink(GroupBySink::new(GroupAxis::Strategy))
        .run(&matrix)
        .unwrap();
    let total: u64 = grouped.groups.iter().map(|(_, d)| d.dark_s.count()).sum();
    assert_eq!(total, digest.runs);
    let flex = grouped.get("ACE+FLEX").unwrap();
    assert!(flex.dark_s.max().unwrap() > 0.0, "FLEX never went dark?");

    // Row sinks carry the per-run dark_s column.
    let (csv, _) = FleetRunner::builder()
        .workers(2)
        .sink(CsvSink::new(Vec::new()))
        .run(&matrix)
        .unwrap();
    let text = String::from_utf8(csv).unwrap();
    let header = text.lines().next().unwrap();
    assert!(header.split(',').any(|c| c == "dark_s"), "{header}");
    let (jsonl, _) = FleetRunner::builder()
        .workers(2)
        .sink(JsonlSink::new(Vec::new()))
        .run(&matrix)
        .unwrap();
    assert!(String::from_utf8(jsonl).unwrap().contains("\"dark_s\":"));
}

#[test]
fn grouped_and_streaming_sinks_are_worker_count_independent() {
    let matrix = acceptance_matrix();
    let grouped_one = FleetRunner::builder()
        .workers(1)
        .sink(GroupBySink::new(GroupAxis::Strategy))
        .run(&matrix)
        .unwrap();
    let grouped_eight = FleetRunner::builder()
        .workers(8)
        .sink(GroupBySink::new(GroupAxis::Strategy))
        .run(&matrix)
        .unwrap();
    assert_eq!(grouped_one, grouped_eight);
    assert_eq!(grouped_one.groups.len(), 6, "one group per strategy");
    // FLEX completes everywhere; BASE only on the bench supply.
    let flex = grouped_one.get("ACE+FLEX").unwrap();
    assert_eq!(flex.completed_runs, flex.runs);
    let base = grouped_one.get("BASE").unwrap();
    assert!(base.completed_runs < base.runs);

    // Row streams: byte-identical at any worker count, one row per run
    // in (matrix, run) order.
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
    assert_eq!(rows_one, matrix.len() as u64);
    assert_eq!(rows_one, rows_eight);
    assert_eq!(jsonl_one, jsonl_eight);
    let (csv_one, _) = FleetRunner::builder()
        .workers(1)
        .sink(CsvSink::new(Vec::new()))
        .run(&matrix)
        .unwrap();
    let (csv_eight, _) = FleetRunner::builder()
        .workers(8)
        .sink(CsvSink::new(Vec::new()))
        .run(&matrix)
        .unwrap();
    assert_eq!(csv_one, csv_eight);
    assert_eq!(
        String::from_utf8(csv_one).unwrap().lines().count(),
        matrix.len() + 1,
        "header plus one row per run"
    );
}

#[test]
fn paired_sinks_match_their_standalone_runs() {
    // A (digest, jsonl) pair folds both sinks over one sweep and must
    // equal each sink run by itself.
    let matrix = ScenarioMatrix::new()
        .environments(catalog::all())
        .strategies(vec![Strategy::Sonic, Strategy::Flex])
        .workloads(vec![Workload::Har { samples: 6 }])
        .executor(ExecutorConfig {
            stall_outages: 6,
            ..ExecutorConfig::default()
        });
    let (digest, (jsonl, rows)) = FleetRunner::builder()
        .workers(4)
        .sink((DigestSink::new(), JsonlSink::new(Vec::new())))
        .run(&matrix)
        .unwrap();
    let digest_alone = FleetRunner::builder()
        .workers(2)
        .sink(DigestSink::new())
        .run(&matrix)
        .unwrap();
    let (jsonl_alone, rows_alone) = FleetRunner::builder()
        .workers(1)
        .sink(JsonlSink::new(Vec::new()))
        .run(&matrix)
        .unwrap();
    assert_eq!(digest, digest_alone);
    assert_eq!(jsonl, jsonl_alone);
    assert_eq!(rows, rows_alone);
}

#[test]
fn energy_budgeted_matrix_counts_aborts_in_every_sink() {
    // A budget far below one inference cuts every run; the dense report
    // and the digest must agree on the abort counts.
    let matrix = ScenarioMatrix::new()
        .environments(vec![catalog::bench_supply()])
        .strategies(vec![Strategy::Sonic, Strategy::Flex])
        .workloads(vec![Workload::Har { samples: 4 }])
        .runs(2)
        .executor(ExecutorConfig {
            energy_budget_nj: Some(1_000.0),
            stall_outages: 6,
            ..ExecutorConfig::default()
        });
    let report = FleetRunner::new(2).run(&matrix).unwrap();
    for s in &report.scenarios {
        assert_eq!(s.completed_runs, 0, "{}", s.name);
        assert_eq!(s.energy_limited_runs, s.runs, "{}", s.name);
        assert_eq!(s.p50_ms(), None, "{}: no completed runs", s.name);
    }
    let digest = FleetRunner::builder()
        .workers(2)
        .sink(DigestSink::new())
        .run(&matrix)
        .unwrap();
    assert_eq!(digest.energy_limited_runs, digest.runs);
    assert_eq!(digest.completed_runs, 0);
    assert_eq!(digest.latency_ms.count(), 0);
}

#[test]
fn profiled_sweeps_leave_every_sink_bit_identical() {
    // Turning phase profiling on must not move a single bit of any
    // sink's report, at any worker count — the observability PR's
    // determinism bar. The profile itself rides a side channel.
    let matrix = acceptance_matrix();
    let plain = FleetRunner::builder()
        .workers(2)
        .sink(DigestSink::new())
        .run(&matrix)
        .unwrap();
    for workers in [1, 2, 8] {
        let (profiled, profile) = FleetRunner::builder()
            .workers(workers)
            .sink(DigestSink::new())
            .run_profiled(&matrix)
            .unwrap();
        assert_eq!(plain, profiled, "{workers} workers");
        assert_eq!(plain.to_string(), profiled.to_string(), "{workers} workers");
        assert!(profile.total_seconds() > 0.0, "{workers} workers");
        // The deployment cache is consulted exactly once per scenario;
        // the 48 scenarios (6 strategies × 2 boards, one workload and
        // seed) share a single built model.
        assert_eq!(profile.caches.deployment.lookups(), 48, "{workers} workers");
        assert_eq!(profile.caches.deployment.entries, 1, "{workers} workers");
    }

    // Row streams: byte-identical with profiling on.
    let (jsonl_plain, rows_plain) = FleetRunner::builder()
        .workers(2)
        .sink(JsonlSink::new(Vec::new()))
        .run(&matrix)
        .unwrap();
    let ((jsonl_profiled, rows_profiled), _) = FleetRunner::builder()
        .workers(8)
        .sink(JsonlSink::new(Vec::new()))
        .run_profiled(&matrix)
        .unwrap();
    assert_eq!(rows_plain, rows_profiled);
    assert_eq!(jsonl_plain, jsonl_profiled);

    // Grouped sinks too.
    let grouped_plain = FleetRunner::builder()
        .workers(4)
        .sink(GroupBySink::new(GroupAxis::Strategy))
        .run(&matrix)
        .unwrap();
    let (grouped_profiled, _) = FleetRunner::builder()
        .workers(4)
        .sink(GroupBySink::new(GroupAxis::Strategy))
        .run_profiled(&matrix)
        .unwrap();
    assert_eq!(grouped_plain, grouped_profiled);
}

#[test]
fn phase_profile_counters_are_deterministic_and_merge_across_shards() {
    use ehdl::ehsim::ExecPhase;

    let matrix = acceptance_matrix();

    // At one worker the profile's span counts and cache counters are a
    // pure function of the matrix: two runs agree exactly (only the
    // wall-clock sums differ).
    let (_, first) = FleetRunner::builder()
        .workers(1)
        .sink(DigestSink::new())
        .run_profiled(&matrix)
        .unwrap();
    let (_, second) = FleetRunner::builder()
        .workers(1)
        .sink(DigestSink::new())
        .run_profiled(&matrix)
        .unwrap();
    for phase in ExecPhase::ALL {
        assert_eq!(
            first.digest(phase).count(),
            second.digest(phase).count(),
            "{} span count drifted between identical runs",
            phase.name()
        );
    }
    assert_eq!(first.caches, second.caches);

    // Across worker counts: the coordinator-side deployment and plan
    // counters are identical; the worker-side trace cache conserves its
    // lookup total (racing workers may shift the hit/miss split, both
    // recordings being bit-identical), and executed-vs-replayed work is
    // likewise conserved.
    let executed =
        first.digest(ExecPhase::PlanExec).count() + first.digest(ExecPhase::TraceReplay).count();
    for workers in [2, 8] {
        let (_, profile) = FleetRunner::builder()
            .workers(workers)
            .sink(DigestSink::new())
            .run_profiled(&matrix)
            .unwrap();
        assert_eq!(
            profile.caches.deployment, first.caches.deployment,
            "{workers} workers"
        );
        assert_eq!(profile.caches.plan, first.caches.plan, "{workers} workers");
        assert_eq!(
            profile.caches.trace.lookups(),
            first.caches.trace.lookups(),
            "{workers} workers"
        );
        assert_eq!(
            profile.digest(ExecPhase::PlanExec).count()
                + profile.digest(ExecPhase::TraceReplay).count(),
            executed,
            "{workers} workers"
        );
    }

    // Shard merge: profiling two disjoint ranges and merging the
    // profiles in range order reassembles the whole sweep's span counts
    // and lookup totals — what a resumed shard sweep folds together.
    let mid = matrix.len() / 2;
    let runner = FleetRunner::new(1);
    let (_, mut lo) = runner
        .run_range_profiled_with_sink(&matrix, 0..mid, DigestSink::new())
        .unwrap();
    let (_, hi) = runner
        .run_range_profiled_with_sink(&matrix, mid..matrix.len(), DigestSink::new())
        .unwrap();
    lo.merge(&hi);
    for phase in ExecPhase::ALL {
        assert_eq!(
            lo.digest(phase).count(),
            first.digest(phase).count(),
            "{} span count lost in the shard merge",
            phase.name()
        );
    }
    assert_eq!(lo.caches.deployment.lookups(), 48);
    assert_eq!(
        lo.caches.trace.lookups(),
        first.caches.trace.lookups(),
        "trace lookups lost in the shard merge"
    );
}

#[test]
fn deployment_sharing_gives_equal_accuracy_across_environments() {
    let matrix = ScenarioMatrix::new()
        .environments(catalog::all())
        .strategies(vec![Strategy::Flex])
        .workloads(vec![Workload::Har { samples: 8 }]);
    let report = FleetRunner::new(4).run(&matrix).unwrap();
    assert_eq!(report.len(), 4);
    let acc = report.scenarios[0].accuracy;
    for s in &report.scenarios {
        assert_eq!(s.accuracy, acc, "{}", s.name);
    }
}
