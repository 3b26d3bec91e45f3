//! Golden behaviour fence: pins the bits a fleet sweep produces, so a
//! refactor of the deployment, plan or cache machinery that changes
//! any modelled number fails here even when it edits both sides of a
//! parity suite. The pins are the FNV-1a 64 of `FleetDigest::to_json()`
//! and the per-scenario accuracy column of the `FleetReport`, asserted
//! at one and two workers and with every runner cache capped at one
//! entry (so evicted state is rebuilt mid-sweep).
//!
//! An intended behaviour change must update the pins in the same
//! change and say why.

use ehdl::ehsim::{catalog, ExecutorConfig, Integrity};
use ehdl::prelude::*;
use ehdl_fleet::{DigestSink, FleetReport, FleetRunner, FullReportSink, ScenarioMatrix, Workload};

/// FNV-1a 64 of `FleetDigest::to_json()` over [`fence_matrix`].
const DIGEST_JSON_FNV64: u64 = 0x24b8_af5e_ba79_505b;

/// Quantized accuracy per (workload, seed), in matrix order: HAR seeds
/// 1 and 2, then MNIST seeds 1 and 2. Every scenario of a (workload,
/// seed) pair runs the same built model, whatever its strategy,
/// integrity scheme or environment.
const ACCURACY: [(&str, u64, f64); 4] = [
    ("har", 1, 0.25),
    ("har", 2, 0.25),
    ("mnist", 1, 0.0),
    ("mnist", 2, 0.125),
];

/// HAR+MNIST × every strategy × {None, SECDED} × 2 seeds ×
/// {bench_supply, office_rf}, 2 runs: 96 scenarios with one
/// deterministic (replayed) and one stochastic (live) environment.
fn fence_matrix() -> ScenarioMatrix {
    ScenarioMatrix::new()
        .environments(vec![catalog::bench_supply(), catalog::office_rf()])
        .strategies(Strategy::ALL.to_vec())
        .workloads(vec![
            Workload::Har { samples: 8 },
            Workload::Mnist { samples: 8 },
        ])
        .integrities(vec![Integrity::None, Integrity::Secded])
        .seeds(vec![1, 2])
        .runs(2)
        .calibration(CalibrationConfig {
            samples: 4,
            percentile: 0.9,
        })
        .executor(ExecutorConfig {
            stall_outages: 6,
            ..ExecutorConfig::default()
        })
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn assert_accuracy_column(report: &FleetReport, label: &str) {
    assert_eq!(report.len(), fence_matrix().len(), "{label}");
    for s in &report.scenarios {
        let &(_, _, want) = ACCURACY
            .iter()
            .find(|(w, seed, _)| *w == s.workload && *seed == s.seed)
            .unwrap_or_else(|| panic!("{label}: no pin for {}", s.name));
        assert_eq!(
            s.accuracy.to_bits(),
            want.to_bits(),
            "{label}: {} accuracy {} != pinned {want}",
            s.name,
            s.accuracy
        );
    }
}

#[test]
fn fleet_sweep_matches_the_golden_pins() {
    let matrix = fence_matrix();
    for (label, workers, cache_entries) in [
        ("1 worker", 1, 1024),
        ("2 workers", 2, 1024),
        ("cache_entries(1)", 2, 1),
    ] {
        let (digest, report) = FleetRunner::builder()
            .workers(workers)
            .cache_entries(cache_entries)
            .sink((DigestSink::new(), FullReportSink::new()))
            .run(&matrix)
            .unwrap();
        let checksum = fnv64(digest.to_json().as_bytes());
        assert_eq!(
            checksum, DIGEST_JSON_FNV64,
            "{label}: digest checksum {checksum:#018x} drifted from the pin"
        );
        assert_accuracy_column(&report, label);
    }
}
