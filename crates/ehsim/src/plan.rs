//! Compile-once costed execution plans.
//!
//! The cost of a [`DeviceOp`](ehdl_device::DeviceOp) depends only on the
//! program and the board — never on input data or the power environment —
//! yet the original executor re-priced every op on every run. An
//! [`ExecutionPlan`] is a one-time lowering pass that prices a whole
//! [`Program`] against a [`Board`] into flat structure-of-arrays form:
//! per-op cycles, energy, duration, capacitor draw, meter component, a
//! commit-flag bitset and deduplicated on-demand checkpoint costs. The
//! intermittent executor's inner loop then touches only these arrays and
//! the capacitor — no cost-table dispatch, no `DeviceOp` match — and a
//! fleet sweep shares one plan (behind an `Arc`) across every
//! environment, seed and worker that replays the same (program, board)
//! pair.
//!
//! Plans also pre-fold the continuous-power pricing (total cost plus the
//! per-component meter of one bench-powered inference), so session-level
//! pricing is a lookup instead of a second full program replay.
//!
//! Results are bit-identical to op-by-op interpretation: compilation
//! evaluates exactly the arithmetic [`Board::cost`] would, in the same
//! order, and the plan-driven executor replays the same float operations
//! the interpreter performs (see `tests/exec_plan_parity.rs`).

use crate::integrity::Integrity;
use crate::program::Program;
use ehdl_device::{Board, Component, Cost, Cycles, DeviceOp, Energy, EnergyMeter};

/// Sentinel for "no on-demand checkpoint allowed before this op".
pub(crate) const NO_ONDEMAND: u32 = u32::MAX;

/// One pre-priced device action: the four numbers the executor's inner
/// loop consumes, with every derived quantity (duration, joules drawn
/// from the capacitor) computed once at plan-compile time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedCost {
    /// Wall-clock cycles the op occupies.
    pub cycles: u64,
    /// Metered energy in nanojoules.
    pub energy_nj: f64,
    /// Op duration in seconds (`cycles / clock_hz`).
    pub duration_s: f64,
    /// Energy drawn from the capacitor in joules (`energy_nj * 1e-9`).
    pub need_j: f64,
}

impl PlannedCost {
    fn price(board: &Board, op: &DeviceOp, clock_hz: f64) -> (PlannedCost, Component) {
        let (cost, component) = board.cost_with_component(op);
        let cycles = cost.cycles.raw();
        let energy_nj = cost.energy.nanojoules();
        (
            PlannedCost {
                cycles,
                energy_nj,
                // Exactly the expressions the op-by-op interpreter
                // evaluates per attempt; precomputing them preserves
                // bit-identical capacitor and timing arithmetic.
                duration_s: cycles as f64 / clock_hz,
                need_j: energy_nj * 1e-9,
            },
            component,
        )
    }

    /// The cost as a [`Cost`] value.
    pub fn cost(&self) -> Cost {
        Cost {
            cycles: Cycles::new(self.cycles),
            energy: Energy::from_nanojoules(self.energy_nj),
        }
    }
}

/// A [`Program`] priced once against a [`Board`]: flat per-op cost
/// arrays plus pre-resolved checkpoint/restore costs, ready for the
/// dispatch-free executor loop.
///
/// A plan is valid for any board built from the same cost table as the
/// one it was compiled against (boards of the same
/// [`BoardSpec`](ehdl_device::CostTable)-equivalent configuration);
/// voltage-monitor thresholds are read from the live board at run time
/// and do not affect the plan.
///
/// # Example
///
/// ```
/// use ehdl_device::{Board, DeviceOp};
/// use ehdl_ehsim::{CheckpointSpec, ExecutionPlan, Program};
///
/// let mut program = Program::new("tiny");
/// for _ in 0..10 {
///     program.push(DeviceOp::CpuOps { count: 100 }, CheckpointSpec::COMMIT);
/// }
/// let board = Board::msp430fr5994();
/// let plan = ExecutionPlan::compile(program, &board);
/// assert_eq!(plan.len(), 10);
/// assert_eq!(plan.continuous_cost().cycles.raw(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    program: Program,
    clock_hz: f64,
    // ---- per-op structure-of-arrays, all of length `len()` ----
    pub(crate) cycles: Vec<u64>,
    pub(crate) energy_nj: Vec<f64>,
    pub(crate) duration_s: Vec<f64>,
    pub(crate) need_j: Vec<f64>,
    pub(crate) component: Vec<Component>,
    /// Commit flags, one bit per op.
    commit_bits: Vec<u64>,
    /// Per-op index into `checkpoints`, or [`NO_ONDEMAND`].
    pub(crate) ondemand: Vec<u32>,
    /// Deduplicated on-demand checkpoint costs (one entry per distinct
    /// word count in the program).
    pub(crate) checkpoints: Vec<PlannedCost>,
    /// `plain_end[i]` is the first index `>= i` whose op is *special*
    /// (commits or allows an on-demand checkpoint), or `len()`. A special
    /// op plus the plain ops after it form one segment: the executor
    /// checks commit and checkpoint flags only at its first op. Length
    /// `len() + 1`.
    plain_end: Vec<u32>,
    restore: PlannedCost,
    integrity: Integrity,
    continuous_cost: Cost,
    continuous_meter: EnergyMeter,
}

impl ExecutionPlan {
    /// Prices `program` against `board` into a reusable plan. The
    /// program is taken by value and retained (see
    /// [`program`](Self::program)); callers holding only a reference can
    /// clone at the call site.
    ///
    /// This walks the program once, evaluating the same cost arithmetic
    /// [`Board::cost`] performs per op, and folds the continuous-power
    /// totals in op order (bit-identical to
    /// [`run_continuous`](crate::run_continuous) on a fresh board).
    pub fn compile(program: Program, board: &Board) -> Self {
        ExecutionPlan::compile_with_integrity(program, board, Integrity::None)
    }

    /// [`compile`](Self::compile) with a checkpoint payload integrity
    /// scheme: every checkpoint and restore is priced at the scheme's
    /// padded word count (see [`Integrity::padded_words`]), so stronger
    /// guards cost real commit energy. `Integrity::None` is
    /// bit-identical to plain [`compile`](Self::compile).
    pub fn compile_with_integrity(program: Program, board: &Board, integrity: Integrity) -> Self {
        let clock_hz = board.costs().clock_hz;
        let n = program.len();

        let mut cycles = Vec::with_capacity(n);
        let mut energy_nj = Vec::with_capacity(n);
        let mut duration_s = Vec::with_capacity(n);
        let mut need_j = Vec::with_capacity(n);
        let mut component = Vec::with_capacity(n);
        let mut commit_bits = vec![0u64; n.div_ceil(64)];
        let mut ondemand = vec![NO_ONDEMAND; n];
        let mut checkpoints: Vec<PlannedCost> = Vec::new();
        let mut checkpoint_words: Vec<u64> = Vec::new();

        let mut total = Cost::ZERO;
        let mut meter = EnergyMeter::new();

        for (i, pop) in program.ops().iter().enumerate() {
            let (planned, comp) = PlannedCost::price(board, &pop.op, clock_hz);
            cycles.push(planned.cycles);
            energy_nj.push(planned.energy_nj);
            duration_s.push(planned.duration_s);
            need_j.push(planned.need_j);
            component.push(comp);

            if pop.spec.commits {
                commit_bits[i >> 6] |= 1 << (i & 63);
            }
            if let Some(words) = pop.spec.ondemand_words {
                let words = words as u64;
                let slot = checkpoint_words
                    .iter()
                    .position(|&w| w == words)
                    .unwrap_or_else(|| {
                        let (ck, _) = PlannedCost::price(
                            board,
                            &DeviceOp::Checkpoint {
                                words: integrity.padded_words(words),
                            },
                            clock_hz,
                        );
                        checkpoints.push(ck);
                        checkpoint_words.push(words);
                        checkpoints.len() - 1
                    });
                ondemand[i] = slot as u32;
            }

            // Continuous-power fold, in op order from zero — the same
            // accumulation run_continuous and a fresh pricing board do.
            total.cycles += Cycles::new(planned.cycles);
            total.energy += Energy::from_nanojoules(planned.energy_nj);
            meter.record(
                comp,
                Cycles::new(planned.cycles),
                Energy::from_nanojoules(planned.energy_nj),
            );
        }

        // Segment map: for every position, where the run of plain
        // (non-commit, non-ondemand) ops starting there ends.
        let mut plain_end = vec![n as u32; n + 1];
        for i in (0..n).rev() {
            let special = commit_bits[i >> 6] >> (i & 63) & 1 != 0 || ondemand[i] != NO_ONDEMAND;
            plain_end[i] = if special { i as u32 } else { plain_end[i + 1] };
        }

        let (restore, _) = PlannedCost::price(
            board,
            &DeviceOp::Restore {
                words: integrity.padded_words(program.restore_words() as u64),
            },
            clock_hz,
        );

        ExecutionPlan {
            program,
            clock_hz,
            cycles,
            energy_nj,
            duration_s,
            need_j,
            component,
            commit_bits,
            ondemand,
            checkpoints,
            plain_end,
            restore,
            integrity,
            continuous_cost: total,
            continuous_meter: meter,
        }
    }

    /// The checkpoint payload integrity scheme the plan was priced for.
    #[inline]
    pub fn integrity(&self) -> Integrity {
        self.integrity
    }

    /// The source program the plan was compiled from.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The clock frequency of the board the plan was priced for.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Number of planned ops.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// `true` for an empty plan.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// `true` if completing op `i` commits progress past it.
    #[inline]
    pub fn commits(&self, i: usize) -> bool {
        self.commit_bits[i >> 6] >> (i & 63) & 1 != 0
    }

    /// The pre-priced on-demand checkpoint allowed before op `i`, if any.
    #[inline]
    pub fn ondemand_checkpoint(&self, i: usize) -> Option<&PlannedCost> {
        self.ondemand_slot(i).map(|s| &self.checkpoints[s as usize])
    }

    /// Index into the plan's deduplicated checkpoint table for op `i`,
    /// if an on-demand checkpoint is allowed there.
    #[inline]
    pub fn ondemand_slot(&self, i: usize) -> Option<u32> {
        let slot = self.ondemand[i];
        if slot == NO_ONDEMAND {
            None
        } else {
            Some(slot)
        }
    }

    /// End (exclusive) of the run of plain ops starting at `i`: the
    /// first index `>= i` that commits or allows an on-demand
    /// checkpoint, or [`len`](Self::len). `i` may equal `len`.
    #[inline]
    pub fn plain_run_end(&self, i: usize) -> usize {
        self.plain_end[i] as usize
    }

    /// Number of plain runs of at least two ops — a compile-time
    /// diagnostic for how many ops the executor runs without checking
    /// commit and checkpoint flags.
    pub fn coalesced_segments(&self) -> usize {
        let n = self.len();
        let mut count = 0;
        let mut i = 0;
        while i < n {
            let end = self.plain_run_end(i);
            if end > i + 1 {
                count += 1;
                i = end;
            } else {
                i = end.max(i + 1);
            }
        }
        count
    }

    /// The pre-priced restore op replayed after every outage.
    pub fn restore_cost(&self) -> &PlannedCost {
        &self.restore
    }

    /// The largest single capacitor draw the plan can schedule in one
    /// post-boot burst: the restore plus the hungriest op (an op always
    /// follows a restore before the supply can top up the capacitor
    /// again). A run is outage-free only if one full discharge covers
    /// the whole program; it can make *progress* only if each discharge
    /// covers at least this much — the feasibility bound outage-heavy
    /// benches check before calling a matrix "outage-dominated".
    pub fn max_burst_need_j(&self) -> f64 {
        let op_max = self.need_j.iter().copied().fold(0.0f64, f64::max);
        self.restore.need_j + op_max
    }

    /// Total cost of one continuous-power (bench) replay of the program —
    /// identical to [`run_continuous`](crate::run_continuous) on a fresh
    /// board, folded at compile time.
    pub fn continuous_cost(&self) -> Cost {
        self.continuous_cost
    }

    /// Per-component meter of one continuous-power replay (the Figure
    /// 7(c) breakdown), folded at compile time.
    pub fn continuous_meter(&self) -> &EnergyMeter {
        &self.continuous_meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_continuous, CheckpointSpec};
    use ehdl_device::{DeviceOp, LeaOp, MemoryKind};

    fn mixed_program() -> Program {
        let mut p = Program::new("mixed");
        p.push(DeviceOp::CpuOps { count: 100 }, CheckpointSpec::NONE);
        p.push(
            DeviceOp::DmaTransfer {
                from: MemoryKind::Fram,
                to: MemoryKind::Sram,
                words: 64,
            },
            CheckpointSpec::NONE,
        );
        p.push(DeviceOp::Lea(LeaOp::Mac { len: 32 }), CheckpointSpec::NONE);
        p.push(
            DeviceOp::MemWrite {
                mem: MemoryKind::Fram,
                words: 2,
            },
            CheckpointSpec::COMMIT,
        );
        p.push(DeviceOp::CpuOps { count: 50 }, CheckpointSpec::ondemand(16));
        p.push(DeviceOp::CpuOps { count: 50 }, CheckpointSpec::NONE);
        p.push(DeviceOp::CpuOps { count: 50 }, CheckpointSpec::NONE);
        p.push(
            DeviceOp::Checkpoint { words: 16 },
            CheckpointSpec::ondemand(16),
        );
        p
    }

    #[test]
    fn per_op_costs_match_board_pricing() {
        let p = mixed_program();
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        assert_eq!(plan.len(), p.len());
        for (i, pop) in p.ops().iter().enumerate() {
            let (cost, comp) = board.cost_with_component(&pop.op);
            assert_eq!(plan.cycles[i], cost.cycles.raw(), "op {i}");
            assert_eq!(plan.energy_nj[i], cost.energy.nanojoules(), "op {i}");
            assert_eq!(plan.component[i], comp, "op {i}");
            assert_eq!(
                plan.duration_s[i],
                cost.cycles.raw() as f64 / board.costs().clock_hz
            );
            assert_eq!(plan.need_j[i], cost.energy.nanojoules() * 1e-9);
        }
    }

    #[test]
    fn commit_bits_and_ondemand_follow_specs() {
        let p = mixed_program();
        let plan = ExecutionPlan::compile(p.clone(), &Board::msp430fr5994());
        for (i, pop) in p.ops().iter().enumerate() {
            assert_eq!(plan.commits(i), pop.spec.commits, "op {i}");
            assert_eq!(
                plan.ondemand_checkpoint(i).is_some(),
                pop.spec.ondemand_words.is_some(),
                "op {i}"
            );
        }
    }

    #[test]
    fn ondemand_costs_are_deduplicated_and_priced() {
        let p = mixed_program();
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        // Two ondemand ops with identical word counts share one entry.
        assert_eq!(plan.checkpoints.len(), 1);
        let ck = plan.ondemand_checkpoint(4).unwrap();
        let want = board.cost(&DeviceOp::Checkpoint { words: 16 });
        assert_eq!(ck.cycles, want.cycles.raw());
        assert_eq!(ck.energy_nj, want.energy.nanojoules());
    }

    #[test]
    fn plain_segments_span_between_special_ops() {
        let p = mixed_program();
        let plan = ExecutionPlan::compile(p.clone(), &Board::msp430fr5994());
        // Ops 0..3 are plain, op 3 commits: the run starting at 0 ends at 3.
        assert_eq!(plan.plain_run_end(0), 3);
        assert_eq!(plan.plain_run_end(3), 3); // special op: empty run
        assert_eq!(plan.plain_run_end(4), 4); // ondemand op: empty run
        assert_eq!(plan.plain_run_end(5), 7); // two plain ops before op 7
        assert_eq!(plan.plain_run_end(8), 8); // == len: end sentinel
        assert_eq!(plan.coalesced_segments(), 2);
    }

    #[test]
    fn continuous_fold_matches_run_continuous() {
        let p = mixed_program();
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let mut pricing = Board::msp430fr5994();
        let cost = run_continuous(&p, &mut pricing);
        assert_eq!(plan.continuous_cost(), cost);
        assert_eq!(plan.continuous_meter(), pricing.meter());
    }

    #[test]
    fn restore_cost_matches_board_pricing() {
        let mut p = mixed_program();
        p.set_restore_words(260);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let want = board.cost(&DeviceOp::Restore { words: 260 });
        assert_eq!(plan.restore_cost().cycles, want.cycles.raw());
        assert_eq!(plan.restore_cost().energy_nj, want.energy.nanojoules());
        assert_eq!(plan.restore_cost().cost(), want);
    }

    #[test]
    fn integrity_schemes_inflate_only_durable_write_pricing() {
        let p = mixed_program();
        let board = Board::msp430fr5994();
        let none = ExecutionPlan::compile_with_integrity(p.clone(), &board, Integrity::None);
        assert_eq!(none, ExecutionPlan::compile(p.clone(), &board));
        assert_eq!(none.integrity(), Integrity::None);
        for scheme in [Integrity::Checksum, Integrity::Secded] {
            let plan = ExecutionPlan::compile_with_integrity(p.clone(), &board, scheme);
            assert_eq!(plan.integrity(), scheme);
            // Checkpoints and restores pay for the scheme metadata...
            assert!(plan.restore_cost().energy_nj > none.restore_cost().energy_nj);
            assert!(
                plan.ondemand_checkpoint(4).unwrap().energy_nj
                    > none.ondemand_checkpoint(4).unwrap().energy_nj
            );
            // ...while the per-op compute arrays are untouched.
            assert_eq!(plan.energy_nj, none.energy_nj);
            assert_eq!(plan.cycles, none.cycles);
            let want = board.cost(&DeviceOp::Restore {
                words: scheme.padded_words(p.restore_words() as u64),
            });
            assert_eq!(plan.restore_cost().cycles, want.cycles.raw());
            assert_eq!(plan.restore_cost().energy_nj, want.energy.nanojoules());
        }
    }

    #[test]
    fn empty_program_compiles_to_empty_plan() {
        let p = Program::new("empty");
        let plan = ExecutionPlan::compile(p.clone(), &Board::msp430fr5994());
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(plan.plain_run_end(0), 0);
        assert_eq!(plan.continuous_cost(), Cost::ZERO);
        assert_eq!(plan.coalesced_segments(), 0);
    }
}
