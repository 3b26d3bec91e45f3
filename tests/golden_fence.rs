//! Golden behaviour fence: pins the bits a fleet sweep produces, so a
//! refactor of the deployment, plan or cache machinery that changes
//! any modelled number fails here even when it edits both sides of a
//! parity suite. The pins are the FNV-1a 64 of `FleetDigest::to_json()`
//! and the per-scenario accuracy column of the `FleetReport`, asserted
//! at one and two workers and with every runner cache capped at one
//! entry (so evicted state is rebuilt mid-sweep), for a HAR+MNIST
//! matrix and for an OKG matrix (three BCM layers, blocks 256/128/64).
//!
//! Two more sweep pins guard the live executor, where no trace replay
//! can hide a change: a fault storm (resets, sags, torn commits,
//! corrupt restores and bit flips under SECDED on a stochastic supply,
//! three runs per scenario) and a small gateway world (an odd line of
//! devices sharing one RF field under SONIC and FLEX).
//!
//! A second fence pins the host kernels the deployment build runs, one
//! level below the sweep: each zoo model's RAD calibration
//! (`Calibration::observed_max` and `scales`, bit for bit) and the Q15
//! reference logits and saturation count of the calibrated, quantized
//! model. The accuracy column only sees the argmax; these see every bit.
//!
//! An intended behaviour change must update the pins in the same
//! change and say why.

use ehdl::ace::reference;
use ehdl::compress::normalize;
use ehdl::deployment::{quantize_input, quantized_accuracy};
use ehdl::ehsim::{catalog, ExecutorConfig, FaultSpec, Integrity, WearCurve};
use ehdl::fixed::OverflowStats;
use ehdl::prelude::*;
use ehdl_fleet::{
    DigestSink, FleetReport, FleetRunner, FullReportSink, NetworkTopology, ScenarioMatrix, Workload,
};

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

/// FNV-1a 64 of `FleetDigest::to_json()` over [`okg_fence_matrix`].
const OKG_DIGEST_JSON_FNV64: u64 = 0xa502_6a16_d750_cc16;

/// Quantized accuracy of the OKG seed-1 model over its 8-sample slice.
const OKG_ACCURACY: [(&str, u64, f64); 1] = [("okg", 1, 0.125)];

/// FNV-1a 64 of `FleetDigest::to_json()` over [`storm_fence_matrix`].
const STORM_DIGEST_JSON_FNV64: u64 = 0x04a0_2bba_b5c7_fb81;

/// FNV-1a 64 of `FleetDigest::to_json()` over [`world_fence_matrix`].
const WORLD_DIGEST_JSON_FNV64: u64 = 0x0203_8a51_07d2_f5e1;

/// Quantized accuracy of the HAR seed-1 model over its 8-sample slice.
const WORLD_ACCURACY: [(&str, u64, f64); 1] = [("har", 1, 0.25)];

/// Per zoo model, calibrated at target 0.9 on its 8-sample seed-1 slice:
/// FNV-1a 64 over the bits of `observed_max` then `scales`; FNV-1a 64
/// over the raw Q15 logits of every sample in order, then the
/// saturation and tracked-op counts; and `quantized_accuracy` on the
/// slice.
const KERNEL_PINS: [(&str, u64, u64, f64); 3] = [
    ("mnist", 0xce12_5e28_0ef9_2ca7, 0x4427_41b1_eb53_c7a7, 0.0),
    ("har", 0xc00c_3f7c_3e27_ff99, 0x5e01_e886_4a60_56f9, 0.25),
    ("okg", 0x04fc_0877_8ea4_c741, 0x47e7_a102_39de_d5d8, 0.125),
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

/// OKG × every strategy × {bench_supply, office_rf}, one seed, 2 runs:
/// 12 scenarios over one built model.
fn okg_fence_matrix() -> ScenarioMatrix {
    ScenarioMatrix::new()
        .environments(vec![catalog::bench_supply(), catalog::office_rf()])
        .strategies(Strategy::ALL.to_vec())
        .workloads(vec![Workload::Okg { samples: 8 }])
        .integrities(vec![Integrity::None])
        .seeds(vec![1])
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

/// HAR+MNIST × every strategy × {no faults, a storm of every fault
/// kind} × SECDED × office_rf × 2 seeds, 3 runs: 48 scenarios, every
/// run live on a stochastic supply.
fn storm_fence_matrix() -> ScenarioMatrix {
    let storm = FaultSpec {
        seed: 0x5EED_F00D,
        reset_per_op: 2e-4,
        sag_per_op: 1e-3,
        sag_factor: 1.5,
        tear_per_commit: 0.1,
        corrupt_per_restore: 0.25,
        burst_len: 0,
        flip_per_commit_bit: 1e-4,
        wear: WearCurve::NONE,
    };
    ScenarioMatrix::new()
        .environments(vec![catalog::office_rf()])
        .strategies(Strategy::ALL.to_vec())
        .workloads(vec![
            Workload::Har { samples: 8 },
            Workload::Mnist { samples: 8 },
        ])
        .faults(vec![FaultSpec::none(), storm])
        .integrities(vec![Integrity::Secded])
        .seeds(vec![1, 2])
        .runs(3)
        .calibration(CalibrationConfig {
            samples: 4,
            percentile: 0.9,
        })
        .executor(ExecutorConfig::default())
}

/// HAR on a line of 9 devices sharing one office_rf field, under SONIC
/// and FLEX, 2 runs per device: 2 scenarios of 18 runs each.
fn world_fence_matrix() -> ScenarioMatrix {
    let line = NetworkTopology {
        field_budget: 9.0 * 0.9,
        ..NetworkTopology::line(9, 0.05, 0.5)
    };
    ScenarioMatrix::new()
        .environments(vec![catalog::office_rf()])
        .strategies(vec![Strategy::Sonic, Strategy::Flex])
        .workloads(vec![Workload::Har { samples: 8 }])
        .topologies(vec![line])
        .seeds(vec![1])
        .runs(2)
        .calibration(CalibrationConfig {
            samples: 4,
            percentile: 0.9,
        })
        .executor(ExecutorConfig::default())
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn assert_accuracy_column(
    report: &FleetReport,
    matrix: &ScenarioMatrix,
    pins: &[(&str, u64, f64)],
    label: &str,
) {
    assert_eq!(report.len(), matrix.len(), "{label}");
    for s in &report.scenarios {
        let &(_, _, want) = pins
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

fn assert_sweep_pins(matrix: &ScenarioMatrix, digest_pin: u64, accuracy: &[(&str, u64, f64)]) {
    for (label, workers, cache_entries) in [
        ("1 worker", 1, 1024),
        ("2 workers", 2, 1024),
        ("cache_entries(1)", 2, 1),
    ] {
        let (digest, report) = FleetRunner::builder()
            .workers(workers)
            .cache_entries(cache_entries)
            .sink((DigestSink::new(), FullReportSink::new()))
            .run(matrix)
            .unwrap();
        let checksum = fnv64(digest.to_json().as_bytes());
        assert_eq!(
            checksum, digest_pin,
            "{label}: digest checksum {checksum:#018x} drifted from the pin"
        );
        assert_accuracy_column(&report, matrix, accuracy, label);
    }
}

#[test]
fn fleet_sweep_matches_the_golden_pins() {
    assert_sweep_pins(&fence_matrix(), DIGEST_JSON_FNV64, &ACCURACY);
}

#[test]
fn okg_fleet_sweep_matches_the_golden_pins() {
    assert_sweep_pins(&okg_fence_matrix(), OKG_DIGEST_JSON_FNV64, &OKG_ACCURACY);
}

#[test]
fn fault_storm_sweep_matches_the_golden_pins() {
    assert_sweep_pins(&storm_fence_matrix(), STORM_DIGEST_JSON_FNV64, &ACCURACY);
}

#[test]
fn gateway_world_sweep_matches_the_golden_pins() {
    assert_sweep_pins(
        &world_fence_matrix(),
        WORLD_DIGEST_JSON_FNV64,
        &WORLD_ACCURACY,
    );
}

#[test]
fn calibration_and_reference_logits_match_the_golden_pins() {
    for workload in [
        Workload::Mnist { samples: 8 },
        Workload::Har { samples: 8 },
        Workload::Okg { samples: 8 },
    ] {
        let name = workload.name();
        let &(_, cal_pin, logits_pin, accuracy_pin) = KERNEL_PINS
            .iter()
            .find(|(w, ..)| *w == name)
            .unwrap_or_else(|| panic!("no pin for {name}"));
        let mut model = workload.model();
        let data = workload.dataset(1);
        let inputs: Vec<Tensor> = data.samples().iter().map(|s| s.input.clone()).collect();

        let cal = normalize::calibrate(&model, &inputs, 0.9).unwrap();
        let cal_bytes: Vec<u8> = cal
            .observed_max
            .iter()
            .chain(&cal.scales)
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        let cal_sum = fnv64(&cal_bytes);

        normalize::apply_calibration(&mut model, &cal);
        let quantized = QuantizedModel::from_model(&model).unwrap();
        let mut stats = OverflowStats::new();
        let mut logit_bytes = Vec::new();
        for s in data.samples() {
            let logits =
                reference::forward_with_stats(&quantized, &quantize_input(&s.input), &mut stats)
                    .unwrap();
            logit_bytes.extend(logits.iter().flat_map(|q| q.raw().to_le_bytes()));
        }
        logit_bytes.extend(stats.saturations().to_le_bytes());
        logit_bytes.extend(stats.tracked_ops().to_le_bytes());
        let logits_sum = fnv64(&logit_bytes);
        let accuracy = quantized_accuracy(&quantized, &data).unwrap();

        assert_eq!(
            cal_sum, cal_pin,
            "{name}: calibration checksum {cal_sum:#018x} drifted from the pin"
        );
        assert_eq!(
            logits_sum, logits_pin,
            "{name}: logits checksum {logits_sum:#018x} drifted from the pin"
        );
        assert_eq!(
            accuracy.to_bits(),
            accuracy_pin.to_bits(),
            "{name}: accuracy {accuracy} != pinned {accuracy_pin}"
        );
    }
}
