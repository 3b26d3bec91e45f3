//! The [`Deployment`] builder: every scenario axis — calibration, board,
//! checkpoint strategy — as a first-class parameter.
//!
//! The paper's experiments vary the model (Table II), the execution
//! strategy (Figure 7: BASE / SONIC / TAILS / ACE / ACE+FLEX), the power
//! supply, and implicitly the calibration recipe. The original free
//! functions (the since-removed `pipeline` shims) hardcoded all but the
//! model; the builder makes each axis explicit:
//!
//! ```
//! use ehdl::prelude::*;
//!
//! let mut model = ehdl::nn::zoo::har();
//! let data = ehdl::datasets::har(40, 7);
//! let deployment = Deployment::builder(&mut model, &data)
//!     .calibration(CalibrationConfig { samples: 16, percentile: 0.95 })
//!     .board(BoardSpec::Msp430Fr5994)
//!     .strategy(Strategy::Flex)
//!     .build()?;
//! let mut session = deployment.session();
//! let outcome = session.infer(&data.samples()[0].input)?;
//! assert!(outcome.prediction < 6);
//! # Ok::<(), ehdl::Error>(())
//! ```

use crate::error::{ConfigError, Error};
use crate::session::DeviceSession;
use ehdl_ace::{reference, AceProgram, QuantizedModel};
use ehdl_compress::normalize::{self, Calibration};
use ehdl_datasets::Dataset;
use ehdl_device::{Board, CostTable, VoltageMonitor};
use ehdl_ehsim::{ExecutionPlan, Integrity, Program};
use ehdl_fixed::Q15;
use ehdl_flex::strategies;
use ehdl_nn::{Model, Tensor};
use std::sync::Arc;

/// How RAD calibrates intermediate ranges before quantization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// How many dataset samples to run forward during calibration.
    pub samples: usize,
    /// The per-layer range percentile mapped to full scale (`(0, 1]`;
    /// `1.0` calibrates on the absolute maximum).
    pub percentile: f32,
}

impl Default for CalibrationConfig {
    /// The paper-bench recipe: 32 samples at the 0.9 percentile.
    fn default() -> Self {
        CalibrationConfig {
            samples: 32,
            percentile: 0.9,
        }
    }
}

impl CalibrationConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        if self.samples == 0 {
            return Err(ConfigError::NoCalibrationSamples);
        }
        if !(self.percentile > 0.0 && self.percentile <= 1.0) {
            return Err(ConfigError::BadPercentile(self.percentile));
        }
        Ok(())
    }
}

/// Which simulated device a session runs on.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub enum BoardSpec {
    /// The paper's evaluation board (MSP430FR5994: 16 MHz, 8 KB SRAM,
    /// 256 KB FRAM, LEA, DMA).
    #[default]
    Msp430Fr5994,
    /// An FR5994-class board with a custom cost table (ablations,
    /// sensitivity studies, hypothetical silicon).
    Custom(CostTable),
}

impl BoardSpec {
    /// Instantiates a fresh board for this spec.
    pub fn board(&self) -> Board {
        match self {
            BoardSpec::Msp430Fr5994 => Board::msp430fr5994(),
            BoardSpec::Custom(costs) => Board::with_costs(costs.clone()),
        }
    }

    /// Human-readable spec name.
    pub fn name(&self) -> &'static str {
        match self {
            BoardSpec::Msp430Fr5994 => "MSP430FR5994",
            BoardSpec::Custom(_) => "custom",
        }
    }
}

/// The execution/checkpointing strategy a session runs under — the
/// columns of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Strategy {
    /// Software baseline: CPU-only, no checkpoints. Dies under harvested
    /// power (Figure 7(b) "✗").
    Base,
    /// Software loop continuation: commits loop indices after every
    /// iteration.
    Sonic,
    /// LEA/DMA strips with chain rollback (Figure 6, left).
    Tails,
    /// ACE acceleration + voltage-triggered on-demand checkpoints — the
    /// paper's system (Figure 6, right).
    #[default]
    Flex,
    /// Ablation: FLEX's program with eager per-position commits instead
    /// of the voltage monitor.
    FlexEager,
    /// Bare ACE: accelerated but with no intermittence support at all —
    /// the second "✗" of Figure 7(b).
    Bare,
}

impl Strategy {
    /// Every strategy, in Figure 7 order (the ablation and bare-ACE
    /// variants last).
    pub const ALL: [Strategy; 6] = [
        Strategy::Base,
        Strategy::Sonic,
        Strategy::Tails,
        Strategy::Flex,
        Strategy::FlexEager,
        Strategy::Bare,
    ];

    /// The paper's name for this strategy.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Base => "BASE",
            Strategy::Sonic => "SONIC",
            Strategy::Tails => "TAILS",
            Strategy::Flex => "ACE+FLEX",
            Strategy::FlexEager => "ACE+FLEX-eager",
            Strategy::Bare => "ACE",
        }
    }

    /// `true` if the strategy persists progress and can complete under
    /// intermittent power.
    pub fn survives_intermittence(self) -> bool {
        !matches!(self, Strategy::Base | Strategy::Bare)
    }

    /// Lowers the deployed model to this strategy's device program.
    pub fn lower(self, quantized: &QuantizedModel, ace: &AceProgram) -> Program {
        match self {
            Strategy::Base => strategies::base_program(quantized),
            Strategy::Sonic => strategies::sonic_program(quantized),
            Strategy::Tails => strategies::tails_program(quantized),
            Strategy::Flex => strategies::flex_program(ace),
            Strategy::FlexEager => strategies::flex_eager_program(ace),
            Strategy::Bare => strategies::ace_bare_program(ace),
        }
    }
}

impl core::fmt::Display for Strategy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A model deployed through RAD: quantized weights, the compiled ACE op
/// stream, and the full scenario configuration (board, strategy,
/// calibration bookkeeping). Create one with [`Deployment::builder`],
/// then open a [`DeviceSession`] to run inferences.
///
/// A deployment is one built model plus a cheap per-target lowering.
/// The built part — quantized model, ACE program and calibration —
/// depends only on the model, its calibration data and the calibration
/// recipe, so it sits behind an `Arc` and is shared by every
/// [`retarget`](Self::retarget)ed copy; only the board, the strategy
/// and the monitor override are per deployment. Cloning a deployment is
/// likewise cheap.
#[derive(Debug, Clone)]
pub struct Deployment {
    artifact: Arc<Artifact>,
    board_spec: BoardSpec,
    strategy: Strategy,
    monitor: Option<VoltageMonitor>,
}

/// The board- and strategy-independent product of RAD's deployment
/// pass, shared between retargeted deployments.
#[derive(Debug, Clone)]
struct Artifact {
    quantized: QuantizedModel,
    program: AceProgram,
    calibration: Calibration,
}

impl Deployment {
    /// Starts a deployment of `model` calibrated on `data`.
    pub fn builder<'a>(model: &'a mut Model, data: &'a Dataset) -> DeploymentBuilder<'a> {
        DeploymentBuilder {
            model,
            data,
            calibration: CalibrationConfig::default(),
            board: BoardSpec::default(),
            strategy: Strategy::default(),
            monitor: None,
        }
    }

    /// Assembles a deployment from pre-built parts (e.g. a model
    /// quantized elsewhere). `program` must be compiled from `quantized`.
    pub fn from_parts(
        quantized: QuantizedModel,
        program: AceProgram,
        calibration: Calibration,
        board_spec: BoardSpec,
        strategy: Strategy,
    ) -> Self {
        Deployment {
            artifact: Arc::new(Artifact {
                quantized,
                program,
                calibration,
            }),
            board_spec,
            strategy,
            monitor: None,
        }
    }

    /// The same built model targeted at another board and strategy: the
    /// quantized model, ACE program and calibration are shared with
    /// `self` (no rebuild, no copy), and the monitor override carries
    /// over. Sessions on the result behave exactly like sessions on a
    /// deployment freshly built with `board` and `strategy`.
    pub fn retarget(&self, board: BoardSpec, strategy: Strategy) -> Deployment {
        Deployment {
            artifact: Arc::clone(&self.artifact),
            board_spec: board,
            strategy,
            monitor: self.monitor,
        }
    }

    /// Opens a session: instantiates the board, lowers the strategy
    /// program and compiles its costed [`ExecutionPlan`] **once**, so
    /// per-inference calls on the session re-price nothing.
    pub fn session(&self) -> DeviceSession<'_> {
        self.session_with_plan(Arc::new(self.compile_plan()))
    }

    /// Opens a session running a pre-compiled, shared [`ExecutionPlan`]
    /// — the fleet-sweep fast path, where one plan per (workload, board,
    /// strategy) is reused across every environment, seed and worker.
    ///
    /// `plan` must have been compiled from a deployment with this
    /// deployment's board spec, strategy and model architecture (e.g. by
    /// [`compile_plan`](Self::compile_plan) on any seed-variant of it);
    /// the plan's cost arrays are board- and program-derived, never
    /// data-derived, so seed-variants share bit-identical plans.
    pub fn session_with_plan(&self, plan: Arc<ExecutionPlan>) -> DeviceSession<'_> {
        let mut board = self.board_spec.board();
        if let Some(monitor) = self.monitor {
            board.set_monitor(monitor);
        }
        DeviceSession::new(self, board, plan)
    }

    /// Lowers the strategy program and prices it against this
    /// deployment's board into a reusable [`ExecutionPlan`].
    pub fn compile_plan(&self) -> ExecutionPlan {
        self.compile_plan_with_integrity(Integrity::None)
    }

    /// [`compile_plan`](Self::compile_plan) with checkpoint payloads
    /// guarded by `integrity`: durable writes are priced at the padded
    /// word count (checksum or SECDED check bits), and sessions opened
    /// on the plan walk the recovery ladder on every faulted restore.
    pub fn compile_plan_with_integrity(&self, integrity: Integrity) -> ExecutionPlan {
        let board = self.board_spec.board();
        let lowered = self.strategy.lower(self.quantized(), self.program());
        ExecutionPlan::compile_with_integrity(lowered, &board, integrity)
    }

    /// The quantized (device) model.
    pub fn quantized(&self) -> &QuantizedModel {
        &self.artifact.quantized
    }

    /// The compiled ACE op stream.
    pub fn program(&self) -> &AceProgram {
        &self.artifact.program
    }

    /// Per-layer normalization divisors applied by RAD.
    pub fn calibration(&self) -> &Calibration {
        &self.artifact.calibration
    }

    /// The board this deployment targets.
    pub fn board_spec(&self) -> &BoardSpec {
        &self.board_spec
    }

    /// The checkpoint strategy sessions run under.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Decomposes the deployment into its owned parts (the inverse of
    /// [`from_parts`](Self::from_parts), minus the monitor override).
    /// The built model is moved out when this deployment is its only
    /// owner and cloned when it is shared with a retargeted copy.
    pub fn into_parts(self) -> (QuantizedModel, AceProgram, Calibration, BoardSpec, Strategy) {
        let Artifact {
            quantized,
            program,
            calibration,
        } = Arc::unwrap_or_clone(self.artifact);
        (
            quantized,
            program,
            calibration,
            self.board_spec,
            self.strategy,
        )
    }
}

/// Configures and builds a [`Deployment`]. Created by
/// [`Deployment::builder`].
#[derive(Debug)]
pub struct DeploymentBuilder<'a> {
    model: &'a mut Model,
    data: &'a Dataset,
    calibration: CalibrationConfig,
    board: BoardSpec,
    strategy: Strategy,
    monitor: Option<VoltageMonitor>,
}

impl DeploymentBuilder<'_> {
    /// Sets the calibration recipe (default: 32 samples, 0.9 percentile).
    pub fn calibration(mut self, config: CalibrationConfig) -> Self {
        self.calibration = config;
        self
    }

    /// Sets the target board (default: [`BoardSpec::Msp430Fr5994`]).
    pub fn board(mut self, spec: BoardSpec) -> Self {
        self.board = spec;
        self
    }

    /// Sets the execution strategy (default: [`Strategy::Flex`]).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the board's voltage-monitor thresholds (warn/brown-out)
    /// for every session of this deployment.
    pub fn monitor(mut self, monitor: VoltageMonitor) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Runs RAD's deployment pass: calibrates intermediates into
    /// `[-1, 1]` on the configured sample budget, quantizes to Q15, and
    /// compiles the ACE program.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] on an invalid configuration, [`Error::Model`] if
    /// calibration forward passes fail, [`Error::Ace`] if compilation
    /// fails.
    pub fn build(self) -> Result<Deployment, Error> {
        self.calibration.validate()?;
        if self.data.is_empty() {
            return Err(ConfigError::EmptyDataset.into());
        }
        let inputs: Vec<Tensor> = self
            .data
            .samples()
            .iter()
            .take(self.calibration.samples)
            .map(|s| s.input.clone())
            .collect();
        let calibration =
            normalize::normalize_model(self.model, &inputs, self.calibration.percentile)?;
        let quantized = QuantizedModel::from_model(self.model)?;
        let program = AceProgram::compile(&quantized)?;
        Ok(Deployment {
            monitor: self.monitor,
            ..Deployment::from_parts(quantized, program, calibration, self.board, self.strategy)
        })
    }
}

/// Quantizes a float input tensor for the device.
pub fn quantize_input(input: &Tensor) -> Vec<Q15> {
    input.as_slice().iter().map(|&v| Q15::from_f32(v)).collect()
}

/// Float-model accuracy over a dataset (for quantization-gap reporting).
///
/// # Errors
///
/// Returns [`Error::Model`] on shape mismatch.
pub fn float_accuracy(model: &Model, data: &Dataset) -> Result<f64, Error> {
    if data.is_empty() {
        return Ok(0.0);
    }
    let mut correct = 0usize;
    for s in data.samples() {
        if model.forward(&s.input)?.argmax() == s.label {
            correct += 1;
        }
    }
    Ok(correct as f64 / data.len() as f64)
}

/// Quantized-model accuracy over a dataset (the Table II "Accuracy"
/// column, measured post-compression and post-quantization).
///
/// # Errors
///
/// Returns [`Error::Ace`] on shape mismatch.
pub fn quantized_accuracy(quantized: &QuantizedModel, data: &Dataset) -> Result<f64, Error> {
    if data.is_empty() {
        return Ok(0.0);
    }
    let mut correct = 0usize;
    for s in data.samples() {
        let x = quantize_input(&s.input);
        let logits = reference::forward(quantized, &x)?;
        if reference::argmax(&logits) == s.label {
            correct += 1;
        }
    }
    Ok(correct as f64 / data.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn har_deployment(strategy: Strategy) -> (Deployment, Dataset) {
        let mut model = ehdl_nn::zoo::har();
        let data = ehdl_datasets::har(40, 11);
        let d = Deployment::builder(&mut model, &data)
            .strategy(strategy)
            .build()
            .unwrap();
        (d, data)
    }

    #[test]
    fn builder_defaults_match_paper_recipe() {
        let cfg = CalibrationConfig::default();
        assert_eq!(cfg.samples, 32);
        assert!((cfg.percentile - 0.9).abs() < 1e-6);
        assert_eq!(Strategy::default(), Strategy::Flex);
        assert_eq!(BoardSpec::default(), BoardSpec::Msp430Fr5994);
    }

    #[test]
    fn build_rejects_bad_configs() {
        let mut model = ehdl_nn::zoo::har();
        let data = ehdl_datasets::har(10, 1);
        let err = Deployment::builder(&mut model, &data)
            .calibration(CalibrationConfig {
                samples: 0,
                percentile: 0.9,
            })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Config(ConfigError::NoCalibrationSamples)
        ));

        let mut model = ehdl_nn::zoo::har();
        let err = Deployment::builder(&mut model, &data)
            .calibration(CalibrationConfig {
                samples: 8,
                percentile: 1.5,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(ConfigError::BadPercentile(_))));

        let mut model = ehdl_nn::zoo::har();
        let empty = Dataset::new("e", 6, vec![]);
        let err = Deployment::builder(&mut model, &empty).build().unwrap_err();
        assert!(matches!(err, Error::Config(ConfigError::EmptyDataset)));
    }

    #[test]
    fn custom_calibration_changes_divisors() {
        let mut a = ehdl_nn::zoo::har();
        let mut b = ehdl_nn::zoo::har();
        let data = ehdl_datasets::har(40, 3);
        let da = Deployment::builder(&mut a, &data).build().unwrap();
        let db = Deployment::builder(&mut b, &data)
            .calibration(CalibrationConfig {
                samples: 4,
                percentile: 1.0,
            })
            .build()
            .unwrap();
        assert_ne!(da.calibration(), db.calibration());
    }

    #[test]
    fn strategy_lowering_matches_free_functions() {
        let (d, _) = har_deployment(Strategy::Flex);
        let want = strategies::flex_program(d.program());
        let got = Strategy::Flex.lower(d.quantized(), d.program());
        assert_eq!(got.len(), want.len());
        assert_eq!(got.commit_points(), want.commit_points());
        let bare = Strategy::Bare.lower(d.quantized(), d.program());
        assert_eq!(bare.commit_points(), 0);
    }

    #[test]
    fn strategy_metadata_is_consistent() {
        assert_eq!(Strategy::ALL.len(), 6);
        for s in Strategy::ALL {
            assert!(!s.name().is_empty());
            assert_eq!(s.to_string(), s.name());
        }
        assert!(!Strategy::Base.survives_intermittence());
        assert!(!Strategy::Bare.survives_intermittence());
        assert!(Strategy::Flex.survives_intermittence());
        assert!(Strategy::FlexEager.survives_intermittence());
    }

    #[test]
    fn custom_board_spec_builds_custom_board() {
        let mut costs = CostTable::msp430fr5994();
        costs.cpu_op_cycles *= 2;
        let spec = BoardSpec::Custom(costs.clone());
        assert_eq!(spec.name(), "custom");
        assert_eq!(spec.board().costs(), &costs);
    }

    #[test]
    fn retargeting_matches_a_fresh_build_on_every_target() {
        let (base, data) = har_deployment(Strategy::Flex);
        let mut costs = CostTable::msp430fr5994();
        costs.cpu_op_cycles *= 2;
        let supply = ehdl_ehsim::catalog::bench_supply().supply();
        for board in [BoardSpec::Msp430Fr5994, BoardSpec::Custom(costs)] {
            for strategy in Strategy::ALL {
                let label = format!("{} on {}", strategy, board.name());
                let mut model = ehdl_nn::zoo::har();
                let fresh = Deployment::builder(&mut model, &data)
                    .board(board.clone())
                    .strategy(strategy)
                    .build()
                    .unwrap();
                let retargeted = base.retarget(board.clone(), strategy);
                assert!(
                    std::ptr::eq(base.quantized(), retargeted.quantized()),
                    "{label}: retargeting must share the built model"
                );
                assert_eq!(retargeted.board_spec(), &board, "{label}");
                assert_eq!(retargeted.strategy(), strategy, "{label}");

                let (mut want, mut got) = (fresh.session(), retargeted.session());
                assert_eq!(got.program().len(), want.program().len(), "{label}");
                assert_eq!(
                    got.program().commit_points(),
                    want.program().commit_points(),
                    "{label}"
                );
                assert_eq!(got.continuous_cost(), want.continuous_cost(), "{label}");
                assert_eq!(got.continuous_meter(), want.continuous_meter(), "{label}");
                assert_eq!(
                    got.infer_intermittent(&supply),
                    want.infer_intermittent(&supply),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn into_parts_on_a_shared_deployment_returns_equal_owned_parts() {
        let (d, _) = har_deployment(Strategy::Sonic);
        let twin = d.retarget(BoardSpec::Msp430Fr5994, Strategy::Tails);
        let (quantized, program, calibration, board, strategy) = twin.into_parts();
        assert_eq!(&quantized, d.quantized());
        assert_eq!(&program, d.program());
        assert_eq!(&calibration, d.calibration());
        assert_eq!(board, BoardSpec::Msp430Fr5994);
        assert_eq!(strategy, Strategy::Tails);
        // With the twin gone, `d` is the sole owner and moves its parts.
        let (sole_quantized, ..) = d.into_parts();
        assert_eq!(sole_quantized, quantized);
    }

    #[test]
    fn monitor_override_reaches_session_board() {
        let mut model = ehdl_nn::zoo::har();
        let data = ehdl_datasets::har(20, 5);
        let monitor = VoltageMonitor::new(2.5, 1.8);
        let d = Deployment::builder(&mut model, &data)
            .monitor(monitor)
            .build()
            .unwrap();
        assert_eq!(d.session().board().monitor(), monitor);
    }
}
