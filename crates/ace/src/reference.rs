//! The bit-exact quantized forward pass.
//!
//! This module defines the arithmetic ACE performs on device, in plain
//! software. It is the **golden reference**: the device program emitted
//! by [`AceProgram`](crate::AceProgram) charges cycles and energy for
//! exactly these operations, and every intermittent execution strategy
//! must reproduce these outputs bit-for-bit (FLEX's "correct inference"
//! claim — tested in `ehdl-flex`).
//!
//! The BCM layer follows Algorithm 1 with the fixed-point scaling
//! discipline below:
//!
//! 1. both FFTs scale per stage (the LEA discipline), so the transforms
//!    return `X/N` and `W/N` — this *is* SCALE-DOWN, applied
//!    multiplicatively inside the transform rather than up front;
//! 2. the element-wise complex product is computed in the wide
//!    accumulator (`Z/N²`) and scaled **up by N** on the way back to
//!    Q15 (`Z/N`), which cannot overflow because the calibrated weights
//!    keep `‖w‖₁ ≤ 1` per block;
//! 3. the IFFT returns `y/N`; block results accumulate in wide
//!    registers, the bias joins at the same scale, and the final
//!    SCALE-UP by `N` (the `lI·lW` recovery of Algorithm 1 lines 17–22,
//!    split as `N` mid-chain + `N` here) restores the true value.
//!
//! The net precision cost is ≈ `log2(N)` bits — the mechanism behind the
//! paper's "larger block size … accuracy degradation" trade-off.

use crate::quantized::{QBcmDense, QConv2d, QDense, QLayer, QuantizedModel};
use crate::AceError;
use ehdl_dsp::FftPlan;
use ehdl_fixed::{ComplexQ15, MacAcc, OverflowStats, Q15};

/// Runs the full quantized forward pass, returning the logits.
///
/// # Errors
///
/// Returns [`AceError::BadInput`] on input length mismatch.
pub fn forward(model: &QuantizedModel, input: &[Q15]) -> Result<Vec<Q15>, AceError> {
    let mut stats = OverflowStats::new();
    forward_with_stats(model, input, &mut stats)
}

/// Forward pass that also counts fixed-point saturations — zero on a
/// properly normalized model (the overflow-aware computation guarantee).
///
/// # Errors
///
/// Returns [`AceError::BadInput`] on input length mismatch.
pub fn forward_with_stats(
    model: &QuantizedModel,
    input: &[Q15],
    stats: &mut OverflowStats,
) -> Result<Vec<Q15>, AceError> {
    Ok(forward_trace(model, input, stats)?
        .pop()
        .expect("trace contains at least the input"))
}

/// Forward pass retaining every layer activation.
///
/// # Errors
///
/// Returns [`AceError::BadInput`] on input length mismatch.
pub fn forward_trace(
    model: &QuantizedModel,
    input: &[Q15],
    stats: &mut OverflowStats,
) -> Result<Vec<Vec<Q15>>, AceError> {
    PreparedModel::new(model)?.forward_trace(input, stats)
}

/// A quantized model ready for many reference passes: each BCM layer's
/// FFT plan and weight spectra are computed once, so a pass transforms
/// only its inputs. Outputs and saturation counts are those of
/// [`forward_trace`], which prepares a model per call.
#[derive(Debug, Clone)]
pub struct PreparedModel<'m> {
    model: &'m QuantizedModel,
    /// Per layer: the weight spectra of a BCM layer, `None` otherwise.
    spectra: Vec<Option<BcmSpectra>>,
}

impl<'m> PreparedModel<'m> {
    /// Transforms every BCM weight block of `model`.
    ///
    /// # Errors
    ///
    /// Returns [`AceError::Fft`] if a BCM block size is invalid.
    pub fn new(model: &'m QuantizedModel) -> Result<Self, AceError> {
        let spectra = model
            .layers()
            .iter()
            .map(|layer| match layer {
                QLayer::BcmDense(d) => BcmSpectra::new(d).map(Some),
                _ => Ok(None),
            })
            .collect::<Result<_, _>>()?;
        Ok(PreparedModel { model, spectra })
    }

    /// Forward pass counting fixed-point saturations, returning the
    /// logits (see [`forward_with_stats`]).
    ///
    /// # Errors
    ///
    /// Returns [`AceError::BadInput`] on input length mismatch.
    pub fn forward_with_stats(
        &self,
        input: &[Q15],
        stats: &mut OverflowStats,
    ) -> Result<Vec<Q15>, AceError> {
        Ok(self
            .forward_trace(input, stats)?
            .pop()
            .expect("trace contains at least the input"))
    }

    /// Forward pass retaining every layer activation (see
    /// [`forward_trace`]).
    ///
    /// # Errors
    ///
    /// Returns [`AceError::BadInput`] on input length mismatch.
    pub fn forward_trace(
        &self,
        input: &[Q15],
        stats: &mut OverflowStats,
    ) -> Result<Vec<Vec<Q15>>, AceError> {
        let model = self.model;
        if input.len() != model.input_len() {
            return Err(AceError::BadInput {
                expected: model.input_len(),
                got: input.len(),
            });
        }
        let mut acts: Vec<Vec<Q15>> = vec![input.to_vec()];
        for (i, (layer, spectra)) in model.layers().iter().zip(&self.spectra).enumerate() {
            let x = acts.last().expect("non-empty");
            let y = match (layer, spectra) {
                (QLayer::BcmDense(d), Some(spectra)) => spectra.forward(d, x, stats)?,
                _ => layer_forward(layer, x, model.layer_input_shape(i), stats)?,
            };
            acts.push(y);
        }
        Ok(acts)
    }
}

/// Applies one quantized layer.
///
/// # Errors
///
/// Returns [`AceError::Fft`] if a BCM block size is invalid.
pub fn layer_forward(
    layer: &QLayer,
    x: &[Q15],
    in_shape: &[usize],
    stats: &mut OverflowStats,
) -> Result<Vec<Q15>, AceError> {
    Ok(match layer {
        QLayer::Conv2d(c) => conv_forward(c, x, in_shape, stats),
        QLayer::MaxPool2d { size } => maxpool_forward(x, in_shape, *size),
        QLayer::Relu => x
            .iter()
            .map(|&v| if v.is_negative() { Q15::ZERO } else { v })
            .collect(),
        QLayer::Flatten => x.to_vec(),
        QLayer::Dense(d) => dense_forward(d, x, stats),
        QLayer::BcmDense(d) => bcm_forward(d, x, stats)?,
        QLayer::ArgmaxHead => x.to_vec(),
    })
}

/// Whole-kernel MAC convolution (Figure 4: one accumulation per window).
pub fn conv_forward(
    c: &QConv2d,
    x: &[Q15],
    in_shape: &[usize],
    stats: &mut OverflowStats,
) -> Vec<Q15> {
    let (ih, iw) = (in_shape[1], in_shape[2]);
    let (oh, ow) = (ih - c.kh + 1, iw - c.kw + 1);
    let klen = c.kept.len();
    let mut out = vec![Q15::ZERO; c.out_ch * oh * ow];
    // Input offset of each kept position from the window's top-left
    // element, decoded once.
    let offsets: Vec<usize> = c
        .kept
        .iter()
        .map(|&k| {
            let k = k as usize;
            let (ch, u, v) = (k / (c.kh * c.kw), (k / c.kw) % c.kh, k % c.kw);
            (ch * ih + u) * iw + v
        })
        .collect();
    for (o, plane) in out.chunks_exact_mut(oh * ow).enumerate() {
        let wrow = &c.weights[o * klen..(o + 1) * klen];
        for (i, row) in plane.chunks_exact_mut(ow).enumerate() {
            for (j, out_v) in row.iter_mut().enumerate() {
                let window = &x[i * iw + j..];
                let mut acc = MacAcc::from_q15(c.bias[o]);
                for (&w, &off) in wrow.iter().zip(&offsets) {
                    acc.mac(w, window[off]);
                }
                let (q, sat) = acc.overflowing_to_q15();
                if sat {
                    stats.record_saturation();
                } else {
                    stats.record_ok();
                }
                *out_v = q;
            }
        }
    }
    out
}

fn maxpool_forward(x: &[Q15], in_shape: &[usize], size: usize) -> Vec<Q15> {
    let (ch, ih, iw) = (in_shape[0], in_shape[1], in_shape[2]);
    let (oh, ow) = (ih / size, iw / size);
    let mut out = vec![Q15::MIN; ch * oh * ow];
    for c in 0..ch {
        for i in 0..oh {
            for j in 0..ow {
                let mut m = Q15::MIN;
                for u in 0..size {
                    for v in 0..size {
                        m = m.max(x[(c * ih + i * size + u) * iw + (j * size + v)]);
                    }
                }
                out[(c * oh + i) * ow + j] = m;
            }
        }
    }
    out
}

/// Row-streamed dense matvec (one LEA MAC per output).
pub fn dense_forward(d: &QDense, x: &[Q15], stats: &mut OverflowStats) -> Vec<Q15> {
    let mut out = vec![Q15::ZERO; d.out_dim];
    for (o, out_v) in out.iter_mut().enumerate() {
        let row = &d.weights[o * d.in_dim..(o + 1) * d.in_dim];
        let mut acc = MacAcc::from_q15(d.bias[o]);
        for (&w, &xv) in row.iter().zip(x) {
            acc.mac(w, xv);
        }
        let (q, sat) = acc.overflowing_to_q15();
        if sat {
            stats.record_saturation();
        } else {
            stats.record_ok();
        }
        *out_v = q;
    }
    out
}

/// The on-device BCM pipeline of Algorithm 1 for a whole layer.
///
/// # Errors
///
/// Returns [`AceError::Fft`] if the block size is not a power of two.
pub fn bcm_forward(
    d: &QBcmDense,
    x: &[Q15],
    stats: &mut OverflowStats,
) -> Result<Vec<Q15>, AceError> {
    BcmSpectra::new(d)?.forward(d, x, stats)
}

/// A BCM layer's FFT plan and weight spectra (`W/N` per block, grid
/// row-major) — input-independent, so computed once per model.
#[derive(Debug, Clone)]
struct BcmSpectra {
    plan: FftPlan,
    blocks: Vec<Vec<ComplexQ15>>,
}

impl BcmSpectra {
    fn new(d: &QBcmDense) -> Result<Self, AceError> {
        let plan = FftPlan::new(d.block)?;
        let blocks = d
            .blocks
            .iter()
            .map(|w| plan.fft_real(w))
            .collect::<Result<_, _>>()?;
        Ok(BcmSpectra { plan, blocks })
    }

    /// [`bcm_block_matvec`] for every block, row blocks accumulated in
    /// wide registers; each input column block is transformed once and
    /// shared by every row block.
    fn forward(
        &self,
        d: &QBcmDense,
        x: &[Q15],
        stats: &mut OverflowStats,
    ) -> Result<Vec<Q15>, AceError> {
        let b = d.block;
        let shift = b.trailing_zeros();

        // Zero-pad the input to the block grid, then X/N per column block.
        let mut xp = vec![Q15::ZERO; d.cols_b * b];
        xp[..d.in_dim].copy_from_slice(x);
        let fx = xp
            .chunks_exact(b)
            .map(|blk| self.plan.fft_real(blk))
            .collect::<Result<Vec<_>, _>>()?;

        let mut out = vec![Q15::ZERO; d.out_dim];
        let mut acc = vec![MacAcc::ZERO; b];
        for rb in 0..d.rows_b {
            // Wide accumulator holding y_rb / N across column blocks.
            acc.fill(MacAcc::ZERO);
            let fw_row = &self.blocks[rb * d.cols_b..(rb + 1) * d.cols_b];
            for (fxb, fw) in fx.iter().zip(fw_row) {
                let mut z = bcm_freq_mul(fxb, fw, shift, stats);
                self.plan.ifft(&mut z)?; // IDFT(Z/N) = y/N
                for (a, v) in acc.iter_mut().zip(&z) {
                    *a += MacAcc::from_q15(v.real());
                }
            }
            // Bias joins at the same 1/N scale, then SCALE-UP by N.
            bcm_row_finalize(&acc, &d.bias, rb * b, &mut out, shift, stats);
        }
        Ok(out)
    }
}

/// One circulant block through `FFT → wide CMPY (+N recovery) → IFFT`,
/// returning `y/N`.
///
/// # Errors
///
/// Returns [`AceError::Fft`] on plan/operand mismatch.
pub fn bcm_block_matvec(
    plan: &FftPlan,
    w: &[Q15],
    x: &[Q15],
    stats: &mut OverflowStats,
) -> Result<Vec<Q15>, AceError> {
    let shift = plan.len().trailing_zeros();
    let fx = plan.fft_real(x)?; // X/N
    let fw = plan.fft_real(w)?; // W/N
    let mut z = bcm_freq_mul(&fx, &fw, shift, stats);
    plan.ifft(&mut z)?; // IDFT(Z/N) = y/N
    Ok(z.into_iter().map(|c| c.real()).collect())
}

/// The element-wise complex multiply between the two transforms (the MPY
/// stage of Figure 6), with the mid-chain `×N` scale recovery done in the
/// wide accumulator. Public so the FLEX state machine in `ehdl-flex`
/// executes the *same* arithmetic stage by stage.
pub fn bcm_freq_mul(
    fx: &[ComplexQ15],
    fw: &[ComplexQ15],
    shift: u32,
    stats: &mut OverflowStats,
) -> Vec<ComplexQ15> {
    let mut z: Vec<ComplexQ15> = Vec::with_capacity(fx.len());
    for (&a, &bq) in fx.iter().zip(fw) {
        // Wide product = Z/N² at Q30; shift left N to get Z/N.
        let mut re = MacAcc::product(a.re, bq.re);
        re.mac(-a.im, bq.im);
        let mut im = MacAcc::product(a.re, bq.im);
        im.mac(a.im, bq.re);
        let (zre, s1) = shl_wide(re, shift).overflowing_to_q15();
        let (zim, s2) = shl_wide(im, shift).overflowing_to_q15();
        if s1 || s2 {
            stats.record_saturation();
        } else {
            stats.record_ok();
        }
        z.push(ComplexQ15::new(zre, zim));
    }
    z
}

/// Finalizes one BCM output row block: adds the bias at `1/N` scale and
/// applies the terminal SCALE-UP. Shared with the FLEX state machine so
/// both paths round identically.
pub fn bcm_row_finalize(
    acc: &[MacAcc],
    bias: &[Q15],
    row_base: usize,
    out: &mut [Q15],
    shift: u32,
    stats: &mut OverflowStats,
) {
    for (i, a) in acc.iter().enumerate() {
        let row = row_base + i;
        if row >= out.len() {
            break;
        }
        let with_bias = *a + MacAcc::from_q15(bias[row]).shr_round(shift);
        let (q, sat) = shl_wide(with_bias, shift).overflowing_to_q15();
        if sat {
            stats.record_saturation();
        } else {
            stats.record_ok();
        }
        out[row] = q;
    }
}

/// Left-shifts a wide accumulator (scale recovery); `MacAcc` has 30+
/// headroom bits, so shifts up to the block exponent are exact.
#[inline]
fn shl_wide(a: MacAcc, shift: u32) -> MacAcc {
    a << shift
}

/// Argmax of a logit vector (the device's classification output).
pub fn argmax(logits: &[Q15]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by_key(|&(_, &v)| v)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantizedModel;
    use ehdl_nn::{zoo, Tensor, WeightRng};

    fn q(v: f32) -> Q15 {
        Q15::from_f32(v)
    }

    #[test]
    fn relu_and_maxpool_match_float_semantics() {
        let mut stats = OverflowStats::new();
        let x = vec![q(-0.5), q(0.25)];
        let y = layer_forward(&QLayer::Relu, &x, &[2], &mut stats).unwrap();
        assert_eq!(y, vec![Q15::ZERO, q(0.25)]);

        let x = vec![q(0.1), q(0.9), q(-0.2), q(0.3)];
        let y = layer_forward(&QLayer::MaxPool2d { size: 2 }, &x, &[1, 2, 2], &mut stats).unwrap();
        assert_eq!(y, vec![q(0.9)]);
    }

    #[test]
    fn dense_forward_matches_wide_math() {
        let d = QDense {
            in_dim: 3,
            out_dim: 2,
            weights: vec![q(0.5), q(0.0), q(-0.5), q(0.25), q(0.25), q(0.25)],
            bias: vec![q(0.1), q(-0.1)],
        };
        let mut stats = OverflowStats::new();
        let y = dense_forward(&d, &[q(0.4), q(0.8), q(0.2)], &mut stats);
        assert!((y[0].to_f64() - (0.2 - 0.1 + 0.1)).abs() < 1e-3);
        assert!((y[1].to_f64() - (0.1 + 0.2 + 0.05 - 0.1)).abs() < 1e-3);
        assert_eq!(stats.saturations(), 0);
    }

    #[test]
    fn bcm_block_matvec_tracks_exact_circulant() {
        let b = 16usize;
        let plan = FftPlan::new(b).unwrap();
        let w: Vec<Q15> = (0..b).map(|i| q(0.04 * ((i as f32 * 1.3).sin()))).collect();
        let x: Vec<Q15> = (0..b).map(|i| q(0.5 * ((i as f32 * 0.7).cos()))).collect();
        let mut stats = OverflowStats::new();
        let got = bcm_block_matvec(&plan, &w, &x, &mut stats).unwrap();
        let exact = ehdl_dsp::circulant::matvec_direct_q15(&w, &x);
        for (g, e) in got.iter().zip(&exact) {
            let want = e.to_f64() / b as f64; // result is y/N
            assert!(
                (g.to_f64() - want).abs() < 8.0 / 32768.0,
                "{} vs {want}",
                g.to_f64()
            );
        }
        assert_eq!(stats.saturations(), 0);
    }

    #[test]
    fn bcm_forward_approximates_float_layer() {
        let mut rng = WeightRng::new(71);
        let mut f = ehdl_nn::BcmDense::new(32, 32, 16, &mut rng);
        // Keep weights small so ‖w‖₁ per block stays below 1.
        for rb in 0..f.rows_b() {
            for cb in 0..f.cols_b() {
                for w in f.block_at_mut(rb, cb) {
                    *w *= 0.2;
                }
            }
        }
        let x_f: Vec<f32> = (0..32).map(|i| 0.5 * ((i as f32) * 0.37).sin()).collect();
        let want = ehdl_nn::Layer::BcmDense(f.clone())
            .forward(&Tensor::from_vec(x_f.clone(), &[32]).unwrap())
            .unwrap();

        let qd = match QuantizedModel::from_model(
            &ehdl_nn::Model::builder("one", &[32])
                .layer(ehdl_nn::Layer::BcmDense(f))
                .build()
                .unwrap(),
        )
        .unwrap()
        .layers()[0]
            .clone()
        {
            QLayer::BcmDense(d) => d,
            _ => panic!(),
        };
        let xq: Vec<Q15> = x_f.iter().map(|&v| q(v)).collect();
        let mut stats = OverflowStats::new();
        let got = bcm_forward(&qd, &xq, &mut stats).unwrap();
        // Precision budget ~ b/32768 * constant.
        for (g, w) in got.iter().zip(want.as_slice()) {
            assert!(
                (g.to_f64() - *w as f64).abs() < 0.02,
                "{} vs {}",
                g.to_f64(),
                w
            );
        }
        assert_eq!(stats.saturations(), 0, "{stats}");
    }

    #[test]
    fn conv_forward_matches_float_within_quantization() {
        let m = zoo::mnist();
        let qm = QuantizedModel::from_model(&m).unwrap();
        let QLayer::Conv2d(qc) = &qm.layers()[0] else {
            panic!()
        };
        let input_f: Vec<f32> = (0..784)
            .map(|i| ((i * 7 % 29) as f32 / 29.0) - 0.5)
            .collect();
        let want = m.layers()[0]
            .forward(&Tensor::from_vec(input_f.clone(), &[1, 28, 28]).unwrap())
            .unwrap();
        let xq: Vec<Q15> = input_f.iter().map(|&v| q(v)).collect();
        let mut stats = OverflowStats::new();
        let got = conv_forward(qc, &xq, &[1, 28, 28], &mut stats);
        let mut max_err = 0.0f64;
        for (g, w) in got.iter().zip(want.as_slice()) {
            max_err = max_err.max((g.to_f64() - *w as f64).abs());
        }
        // Xavier weights on 25-long windows stay in range; only
        // quantization noise remains.
        assert!(max_err < 0.01, "max_err {max_err}");
    }

    /// The direct layer loops, kept as bit-exact oracles of the fast
    /// kernels: the convolution decodes `(ch, u, v)` per tap, and the BCM
    /// layer runs [`bcm_block_matvec`] per block, transforming both
    /// operands every time.
    fn conv_forward_oracle(
        c: &QConv2d,
        x: &[Q15],
        in_shape: &[usize],
        stats: &mut OverflowStats,
    ) -> Vec<Q15> {
        let (ih, iw) = (in_shape[1], in_shape[2]);
        let (oh, ow) = (ih - c.kh + 1, iw - c.kw + 1);
        let klen = c.kept.len();
        let mut out = Vec::with_capacity(c.out_ch * oh * ow);
        for o in 0..c.out_ch {
            for i in 0..oh {
                for j in 0..ow {
                    let mut acc = MacAcc::from_q15(c.bias[o]);
                    for (t, &k) in c.kept.iter().enumerate() {
                        let k = k as usize;
                        let (ch, u, v) = (k / (c.kh * c.kw), (k / c.kw) % c.kh, k % c.kw);
                        acc.mac(c.weights[o * klen + t], x[(ch * ih + i + u) * iw + (j + v)]);
                    }
                    let (q, sat) = acc.overflowing_to_q15();
                    if sat {
                        stats.record_saturation();
                    } else {
                        stats.record_ok();
                    }
                    out.push(q);
                }
            }
        }
        out
    }

    fn bcm_forward_oracle(d: &QBcmDense, x: &[Q15], stats: &mut OverflowStats) -> Vec<Q15> {
        let b = d.block;
        let plan = FftPlan::new(b).unwrap();
        let mut xp = vec![Q15::ZERO; d.cols_b * b];
        xp[..d.in_dim].copy_from_slice(x);
        let mut out = vec![Q15::ZERO; d.out_dim];
        for rb in 0..d.rows_b {
            let mut acc = vec![MacAcc::ZERO; b];
            for cb in 0..d.cols_b {
                let xblk = &xp[cb * b..(cb + 1) * b];
                let w = &d.blocks[rb * d.cols_b + cb];
                let y_over_n = bcm_block_matvec(&plan, w, xblk, stats).unwrap();
                for (a, &v) in acc.iter_mut().zip(&y_over_n) {
                    *a += MacAcc::from_q15(v);
                }
            }
            bcm_row_finalize(&acc, &d.bias, rb * b, &mut out, b.trailing_zeros(), stats);
        }
        out
    }

    fn forward_oracle(
        model: &QuantizedModel,
        input: &[Q15],
        stats: &mut OverflowStats,
    ) -> Vec<Q15> {
        let mut x = input.to_vec();
        for (i, layer) in model.layers().iter().enumerate() {
            let in_shape = model.layer_input_shape(i);
            x = match layer {
                QLayer::Conv2d(c) => conv_forward_oracle(c, &x, in_shape, stats),
                QLayer::BcmDense(d) => bcm_forward_oracle(d, &x, stats),
                other => layer_forward(other, &x, in_shape, stats).unwrap(),
            };
        }
        x
    }

    #[test]
    fn fast_kernels_are_bit_identical_to_the_direct_loops() {
        // A padded BCM grid next to the zoo's layers.
        let mut rng = WeightRng::new(5);
        let padded = ehdl_nn::Model::builder("padded", &[10])
            .layer(ehdl_nn::Layer::BcmDense(ehdl_nn::BcmDense::new(
                10, 6, 4, &mut rng,
            )))
            .build()
            .unwrap();
        // Uncalibrated weights saturate, so the counts are exercised too.
        let mut saturated = false;
        for model in [zoo::mnist(), zoo::har(), zoo::okg(), padded] {
            let qm = QuantizedModel::from_model(&model).unwrap();
            let prepared = PreparedModel::new(&qm).unwrap();
            for seed in 0..2u64 {
                let x: Vec<Q15> = (0..qm.input_len())
                    .map(|i| {
                        Q15::from_raw(
                            (((i as u64 * 7919 + seed * 104_729) % 65_536) as i32 - 32_768) as i16,
                        )
                    })
                    .collect();
                let mut want_stats = OverflowStats::new();
                let want = forward_oracle(&qm, &x, &mut want_stats);
                let mut got_stats = OverflowStats::new();
                let got = forward_with_stats(&qm, &x, &mut got_stats).unwrap();
                assert_eq!(got, want, "{} seed {seed}", model.name());
                assert_eq!(got_stats, want_stats, "{} seed {seed}", model.name());
                let mut prepared_stats = OverflowStats::new();
                let again = prepared
                    .forward_with_stats(&x, &mut prepared_stats)
                    .unwrap();
                assert_eq!(again, want, "{} seed {seed} (prepared)", model.name());
                assert_eq!(prepared_stats, want_stats, "{} seed {seed}", model.name());
                saturated |= want_stats.any();
            }
        }
        assert!(saturated);
    }

    #[test]
    fn unnormalized_hot_weights_saturate_and_are_counted() {
        let d = QDense {
            in_dim: 8,
            out_dim: 1,
            weights: vec![Q15::MAX; 8],
            bias: vec![Q15::ZERO],
        };
        let mut stats = OverflowStats::new();
        let _ = dense_forward(&d, &[Q15::MAX; 8], &mut stats);
        assert!(stats.any());
    }

    #[test]
    fn full_model_forward_runs_and_argmax_works() {
        let qm = QuantizedModel::from_model(&zoo::har()).unwrap();
        let x = vec![q(0.1); qm.input_len()];
        let logits = forward(&qm, &x).unwrap();
        assert_eq!(logits.len(), 6);
        assert!(argmax(&logits) < 6);
    }

    #[test]
    fn forward_rejects_wrong_input_length() {
        let qm = QuantizedModel::from_model(&zoo::mnist()).unwrap();
        assert!(matches!(
            forward(&qm, &[Q15::ZERO; 3]),
            Err(AceError::BadInput {
                expected: 784,
                got: 3
            })
        ));
    }
}
