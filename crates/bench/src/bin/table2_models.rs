//! Table II: structure, compression and accuracy of the three DNNs.
//!
//! Trains each Table II topology on its synthetic dataset, deploys it
//! (normalize + quantize), and prints per-layer structure/compression
//! plus float and quantized accuracy next to the paper's numbers.
//! Accuracies are measured on the *synthetic* substitutes (`ehdl-datasets`);
//! the paper's MNIST/UCI-HAR/Speech-Commands numbers are shown for
//! reference.
//!
//! ```text
//! cargo run --release -p ehdl-bench --bin table2_models [--quick]
//! ```

use ehdl::nn::Layer;
use ehdl::prelude::*;
use ehdl::train::{TrainConfig, Trainer};
use ehdl_bench::{pairs_of, quick_mode, section, workloads};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = quick_mode();
    let (samples, epochs) = if quick { (40, 3) } else { (240, 10) };

    for (mut model, data, paper_acc) in workloads(samples, 1234) {
        section(&format!("Table II — {}", model.name()));
        for (i, layer) in model.layers().iter().enumerate() {
            match layer {
                Layer::Conv2d(c) => println!(
                    "  [{i}] Conv {}x{}x{}x{}  {}",
                    c.out_ch(),
                    c.in_ch(),
                    c.kh(),
                    c.kw(),
                    if c.kept_positions() < c.kernel_mask().len() {
                        format!(
                            "Structured Pruning {:.0}x",
                            c.kernel_mask().len() as f64 / c.kept_positions() as f64
                        )
                    } else {
                        "—".into()
                    }
                ),
                Layer::BcmDense(d) => println!(
                    "  [{i}] FC {}x{}  BCM {:.0}x",
                    d.in_dim(),
                    d.out_dim(),
                    d.compression_factor()
                ),
                Layer::Dense(d) => {
                    println!("  [{i}] FC {}x{}  —", d.in_dim(), d.out_dim())
                }
                _ => {}
            }
        }

        let (train_set, test_set) = data.split(0.8);
        let report = Trainer::new(TrainConfig {
            epochs,
            lr: 0.001,
            momentum: 0.9,
        })
        .train_pairs(&mut model, &pairs_of(&train_set))?;
        let float_acc = ehdl::deployment::float_accuracy(&model, &test_set)?;
        let deployment = Deployment::builder(&mut model, &train_set).build()?;
        let q_acc = deployment.session().accuracy(&test_set)?;

        println!(
            "  params: {} active, {} KB quantized FRAM",
            model.active_param_count(),
            deployment.quantized().fram_bytes() / 1024
        );
        println!(
            "  accuracy: train {:.1}%, test float {:.1}%, test quantized {:.1}%  \
             (paper, real dataset: {:.0}%)",
            100.0 * report.final_accuracy,
            100.0 * float_acc,
            100.0 * q_acc,
            100.0 * paper_acc
        );
    }
    Ok(())
}
