//! Ablation study: which ACE/FLEX design choice buys what.
//!
//! ACE and FLEX rest on four design decisions; this harness removes each
//! in turn on the MNIST workload and reports the cost:
//!
//! 1. **LEA acceleration** (vs CPU-only software math),
//! 2. **DMA bulk moves** (vs CPU word-copy loops),
//! 3. **circular ping-pong buffers** (vs per-layer allocation — a memory
//!    ablation, Figure 5),
//! 4. **on-demand (voltage-triggered) checkpointing** (vs eager per-
//!    iteration commits — FLEX vs a SONIC-style discipline on the same
//!    accelerated program).
//!
//! ```text
//! cargo run --release -p ehdl-bench --bin ablations
//! ```

use ehdl::ace::dataflow::DataflowPolicy;
use ehdl::ace::{AceProgram, CircularBufferPlan, QuantizedModel};
use ehdl::flex::strategies;
use ehdl::prelude::*;
use ehdl_bench::section;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let q = QuantizedModel::from_model(&ehdl::nn::zoo::mnist())?;

    section("Ablation 1+2 — accelerator and data movement (MNIST, continuous)");
    println!(
        "{:<26} {:>10} {:>14} {:>10}",
        "configuration", "ms", "energy", "slowdown"
    );
    let configs = [
        ("ACE (LEA + DMA)", DataflowPolicy::ace()),
        (
            "no DMA (CPU copies)",
            DataflowPolicy {
                dma_threshold_words: u64::MAX,
                ..DataflowPolicy::ace()
            },
        ),
        (
            "no LEA (CPU math)",
            DataflowPolicy {
                use_lea: false,
                ..DataflowPolicy::ace()
            },
        ),
        ("neither (software)", DataflowPolicy::cpu_only()),
    ];
    let mut baseline_ms = None;
    for (label, policy) in configs {
        let ace = AceProgram::compile_with(&q, policy)?;
        let program = strategies::ace_bare_program(&ace);
        let mut board = Board::msp430fr5994();
        let cost = ehdl::ehsim::run_continuous(&program, &mut board);
        let ms = cost.cycles.as_millis(16e6);
        let base = *baseline_ms.get_or_insert(ms);
        println!(
            "{:<26} {:>10.2} {:>14} {:>9.2}x",
            label,
            ms,
            cost.energy.to_string(),
            ms / base
        );
    }

    section("Ablation 3 — circular buffers (Figure 5 memory claim)");
    for model in [
        ehdl::nn::zoo::mnist(),
        ehdl::nn::zoo::har(),
        ehdl::nn::zoo::okg(),
    ] {
        let qm = QuantizedModel::from_model(&model)?;
        let plan = CircularBufferPlan::new(&qm);
        println!(
            "{:<8} circular 2x{} words vs per-layer {} words  ({:.1}x less scratch)",
            model.name(),
            plan.max_elems(),
            plan.per_layer_words(),
            plan.saving_factor()
        );
    }

    section("Ablation 4 — on-demand vs eager checkpointing (MNIST)");
    let ace = AceProgram::compile(&q)?;
    let (h, c) = ehdl::flex::compare::paper_supply();
    println!(
        "{:<22} {:>12} {:>12} {:>10} {:>10}",
        "discipline", "cont. ms", "interm. ms", "ckpts", "ckpt %"
    );
    for (label, program) in [
        ("FLEX (on-demand)", strategies::flex_program(&ace)),
        ("eager per-iteration", strategies::flex_eager_program(&ace)),
    ] {
        let mut b1 = Board::msp430fr5994();
        let cont = ehdl::ehsim::run_continuous(&program, &mut b1);
        let mut b2 = Board::msp430fr5994();
        let mut supply = PowerSupply::new(h.clone(), c.clone());
        let report = IntermittentExecutor::default().run(&program, &mut b2, &mut supply);
        assert!(report.completed(), "{label}: {report}");
        println!(
            "{:<22} {:>12.2} {:>12.2} {:>10} {:>9.2}%",
            label,
            cont.cycles.as_millis(16e6),
            report.active_seconds * 1e3,
            report.ondemand_checkpoints + report.restores,
            100.0 * report.checkpoint_overhead()
        );
    }
    println!(
        "\nShape check: every removed mechanism costs latency/energy/memory; the\n\
         on-demand monitor eliminates the continuous-power checkpoint tax entirely."
    );
    Ok(())
}
