//! Cross-strategy orderings on all three workloads (the Figure 7(a) and
//! 7(c) shapes, continuous power).

use ehdl::ace::QuantizedModel;
use ehdl::flex::compare::{compare, paper_supply, Comparison};

fn comparison(model: ehdl::nn::Model) -> Comparison {
    let q = QuantizedModel::from_model(&model).unwrap();
    let (h, c) = paper_supply();
    compare(&q, &h, &c, false).unwrap()
}

fn speedup(cmp: &Comparison, baseline: &str) -> f64 {
    cmp.speedup_over(baseline).expect("baseline present")
}

fn energy_saving(cmp: &Comparison, baseline: &str) -> f64 {
    cmp.energy_saving_over(baseline).expect("baseline present")
}

#[test]
fn fig7a_orderings_hold_on_all_models() {
    for model in [
        ehdl::nn::zoo::mnist(),
        ehdl::nn::zoo::har(),
        ehdl::nn::zoo::okg(),
    ] {
        let name = model.name().to_string();
        let cmp = comparison(model);
        // ACE+FLEX beats every baseline on latency.
        for baseline in ["BASE", "SONIC", "TAILS"] {
            let s = speedup(&cmp, baseline);
            assert!(s > 1.0, "{name}: no speedup over {baseline} ({s})");
        }
        // SONIC is the slowest system (BASE does the same software work
        // without checkpoint writes).
        assert!(
            speedup(&cmp, "SONIC") > speedup(&cmp, "BASE"),
            "{name}: SONIC should be slower than BASE"
        );
        // TAILS (accelerated) sits between SONIC and ACE+FLEX.
        assert!(
            speedup(&cmp, "SONIC") > speedup(&cmp, "TAILS"),
            "{name}: TAILS should beat SONIC"
        );
    }
}

#[test]
fn fig7a_magnitudes_are_in_band() {
    // Paper: ACE+FLEX vs SONIC = 4x (MNIST), 5.7x (HAR), 3.3x (OKG).
    //
    // Reproduction note: our baselines evaluate the
    // compressed FC layers by *direct circulant* loops (the only
    // memory-feasible software execution — dense OKG FC weights would
    // not fit the 256 KB FRAM), which costs the full `in×out` MAC count.
    // On the conv-dominated MNIST this reproduces the paper's factor
    // closely; on the FC-heavy HAR/OKG it *amplifies* the gap beyond the
    // paper's numbers (the paper does not specify its baselines' FC
    // implementation). We therefore band-check MNIST tightly and only
    // lower-bound the FC-heavy models.
    let mnist = speedup(&comparison(ehdl::nn::zoo::mnist()), "SONIC");
    assert!(
        (2.0..12.0).contains(&mnist),
        "mnist speedup {mnist} vs paper 4.0"
    );
    let har = speedup(&comparison(ehdl::nn::zoo::har()), "SONIC");
    assert!(har > 5.7 / 2.0, "har speedup {har} vs paper 5.7");
    let okg = speedup(&comparison(ehdl::nn::zoo::okg()), "SONIC");
    assert!(okg > 3.3 / 2.0, "okg speedup {okg} vs paper 3.3");
}

#[test]
fn fig7c_energy_savings_are_in_band() {
    // Paper: energy saving vs SONIC = 6.1x / 10.9x / 6.25x. Same
    // reproduction note as fig7a: MNIST is band-checked, FC-heavy
    // models are lower-bounded (our baselines' direct-circulant FC
    // amplifies their gap).
    let cases = [
        (ehdl::nn::zoo::mnist(), 6.1, Some(20.0)),
        (ehdl::nn::zoo::har(), 10.9, None),
        (ehdl::nn::zoo::okg(), 6.25, None),
    ];
    for (model, paper_factor, upper) in cases {
        let name = model.name().to_string();
        let cmp = comparison(model);
        let got = energy_saving(&cmp, "SONIC");
        assert!(
            got > paper_factor / 3.0,
            "{name}: energy saving {got} vs paper {paper_factor}"
        );
        if let Some(up) = upper {
            assert!(got < up, "{name}: energy saving {got} implausibly high");
        }
        assert!(
            energy_saving(&cmp, "TAILS") < got,
            "{name}: TAILS saving should be smaller than SONIC saving"
        );
    }
}

#[test]
fn speedup_grows_with_fc_fraction() {
    // The BCM+FFT contribution targets FC layers, so the gap over the
    // software baseline must grow with the workload's FC share:
    // MNIST (conv-dominated) < HAR < OKG (almost all FC). The paper
    // shows the same MNIST-vs-HAR ordering; its OKG column is smaller,
    // which no memory-feasible baseline cost model reproduces — see the
    // reproduction note in `fig7a_magnitudes_are_in_band`.
    let mnist = speedup(&comparison(ehdl::nn::zoo::mnist()), "SONIC");
    let har = speedup(&comparison(ehdl::nn::zoo::har()), "SONIC");
    let okg = speedup(&comparison(ehdl::nn::zoo::okg()), "SONIC");
    assert!(mnist < har, "mnist {mnist} < har {har}");
    assert!(har < okg, "har {har} < okg {okg}");
}

#[test]
fn lea_energy_dominates_less_than_cpu_in_flex() {
    // Fig 7(c): LEA+DMA run in low-power mode, so the accelerated
    // strategy's energy is not CPU-dominated the way SONIC's is.
    use ehdl::device::Component;
    let cmp = comparison(ehdl::nn::zoo::mnist());
    let flex = cmp.expect("ACE+FLEX");
    let sonic = cmp.expect("SONIC");
    let flex_cpu_share = flex.continuous_meter.energy_of(Component::Cpu).nanojoules()
        / flex.continuous_meter.total_energy().nanojoules();
    let sonic_cpu_share = sonic
        .continuous_meter
        .energy_of(Component::Cpu)
        .nanojoules()
        / sonic.continuous_meter.total_energy().nanojoules();
    assert!(
        flex_cpu_share < sonic_cpu_share,
        "flex cpu share {flex_cpu_share} vs sonic {sonic_cpu_share}"
    );
    assert!(flex.continuous_meter.energy_of(Component::Lea).nanojoules() > 0.0);
}
