//! Circulant matrix-vector products — the kernel of BCM compression.
//!
//! A circulant matrix is fully determined by its first column `c`:
//! `C[i][j] = c[(i - j) mod n]`, and `C·x` equals the circular convolution
//! `c ⊛ x`, computable as `IDFT(DFT(c) ∘ DFT(x))`. The paper stores one
//! length-`b` vector per `b×b` block of a fully-connected weight matrix
//! (Table I) and evaluates the product with the LEA's FFT commands
//! (Algorithm 1). This module supplies all four evaluation routes —
//! {direct, FFT} × {f64, Q15} — so higher layers can cross-check them.

use crate::fft_f64::{fft_f64, ifft_f64, Cf64};
use crate::{FftError, FftPlan};
use ehdl_fixed::{ComplexQ15, MacAcc, Q15};

/// Direct `O(n²)` circulant matvec in double precision:
/// `y[i] = Σ_j c[(i-j) mod n] · x[j]`, each sum taken in ascending `j`.
///
/// # Panics
///
/// Panics if `c` and `x` lengths differ.
pub fn matvec_f64(c: &[f64], x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; c.len()];
    matvec_add_f64(c, x, &mut y, &mut Vec::new());
    y
}

/// Rows summed per pass over `x` in [`matvec_add_f64`].
const ROWS: usize = 16;

/// Adds the direct circulant product to `y`:
/// `y[i] += Σ_j c[(i-j) mod n] · x[j]`. Each sum runs in ascending `j`
/// in its own accumulator before it joins `y[i]`, so the result is bit
/// for bit that of adding [`matvec_f64`]'s output. The column may be any
/// float type that widens to `f64` (BCM layers store `f32`).
///
/// The column is laid out doubled, `cc[t] = c[t mod n]`, so element
/// `(i, j)` is `cc[n + i - j]` with no modulo, and at column `j` the rows
/// `i..i + ROWS` read one ascending window `cc[n + i - j..]`. Those rows
/// share one pass over `x`, each with its own accumulator. `cc` is
/// scratch space: a buffer reused across calls saves the allocation.
///
/// # Panics
///
/// Panics if `c`, `x` and `y` lengths differ.
pub fn matvec_add_f64<T: Copy + Into<f64>>(c: &[T], x: &[f64], y: &mut [f64], cc: &mut Vec<f64>) {
    assert_eq!(c.len(), x.len(), "circulant dimension mismatch");
    assert_eq!(c.len(), y.len(), "circulant dimension mismatch");
    let n = c.len();
    cc.clear();
    cc.extend(c.iter().chain(c).map(|&v| v.into()));
    let mut i = 0;
    while i + ROWS <= n {
        let mut acc = [0.0f64; ROWS];
        for (j, &xj) in x.iter().enumerate() {
            let window = &cc[n + i - j..n + i - j + ROWS];
            for (a, &w) in acc.iter_mut().zip(window) {
                *a += w * xj;
            }
        }
        for (yi, a) in y[i..i + ROWS].iter_mut().zip(acc) {
            *yi += a;
        }
        i += ROWS;
    }
    for (i, yi) in y.iter_mut().enumerate().skip(i) {
        let mut acc = 0.0;
        for (&w, &xj) in cc[i + 1..=n + i].iter().rev().zip(x) {
            acc += w * xj;
        }
        *yi += acc;
    }
}

/// FFT-based `O(n log n)` circulant matvec in double precision.
///
/// # Panics
///
/// Panics if lengths differ or are not a power of two.
pub fn matvec_fft_f64(c: &[f64], x: &[f64]) -> Vec<f64> {
    assert_eq!(c.len(), x.len(), "circulant dimension mismatch");
    let mut fc: Vec<Cf64> = c.iter().copied().map(Cf64::from_real).collect();
    let mut fx: Vec<Cf64> = x.iter().copied().map(Cf64::from_real).collect();
    fft_f64(&mut fc);
    fft_f64(&mut fx);
    let mut fy: Vec<Cf64> = fc.iter().zip(&fx).map(|(&a, &b)| a * b).collect();
    ifft_f64(&mut fy);
    fy.into_iter().map(|v| v.re).collect()
}

/// Direct fixed-point circulant matvec with exact wide accumulation —
/// the bit-accurate reference for what the LEA pipeline should produce.
///
/// Returns the accumulators (Q30 scale) so the caller chooses where to
/// round (C-INTERMEDIATE).
///
/// # Panics
///
/// Panics if `c` and `x` lengths differ.
pub fn matvec_direct_q15(c: &[Q15], x: &[Q15]) -> Vec<MacAcc> {
    assert_eq!(c.len(), x.len(), "circulant dimension mismatch");
    let n = c.len();
    let mut y = vec![MacAcc::ZERO; n];
    for (i, yi) in y.iter_mut().enumerate() {
        for (j, &xj) in x.iter().enumerate() {
            yi.mac(c[(n + i - j) % n], xj);
        }
    }
    y
}

/// The full fixed-point FFT route of Algorithm 1 for one circulant block:
/// `REAL(IFFT(FFT(c) ∘ FFT(x)))`, returned at `1/N²` scale (the caller —
/// ACE — applies SCALE-UP, possibly after accumulating across blocks).
///
/// # Errors
///
/// Returns [`FftError::LengthMismatch`] if the operand lengths differ from
/// the plan length.
pub fn matvec_fft_q15(plan: &FftPlan, c: &[Q15], x: &[Q15]) -> Result<Vec<Q15>, FftError> {
    let fc = plan.fft_real(c)?;
    let fx = plan.fft_real(x)?;
    let mut fy: Vec<ComplexQ15> = fc.iter().zip(&fx).map(|(&a, &b)| a.mul_exact(b)).collect();
    plan.ifft(&mut fy)?;
    Ok(fy.into_iter().map(|v| v.real()).collect())
}

/// Builds the dense `n×n` matrix represented by first column `c` —
/// used by tests and by RAD's projection of trained dense weights onto
/// the circulant set.
pub fn to_dense_f64(c: &[f64]) -> Vec<Vec<f64>> {
    let n = c.len();
    (0..n)
        .map(|i| (0..n).map(|j| c[(n + i - j) % n]).collect())
        .collect()
}

/// Projects a dense `n×n` matrix onto the nearest circulant matrix in the
/// Frobenius norm: each diagonal `(i - j) mod n = d` is replaced by its
/// mean. This is the projection step RAD's ADMM-style training uses to
/// impose BCM structure on FC layers.
///
/// # Panics
///
/// Panics if `m` is not square (rows of equal length `m.len()`).
pub fn project_to_circulant(m: &[Vec<f64>]) -> Vec<f64> {
    let n = m.len();
    for row in m {
        assert_eq!(row.len(), n, "matrix must be square");
    }
    let mut sums = vec![0.0; n];
    for (i, row) in m.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            sums[(n + i - j) % n] += v;
        }
    }
    sums.iter().map(|s| s / n as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(v: f32) -> Q15 {
        Q15::from_f32(v)
    }

    /// The textbook modulo-indexed loop, kept as the bit-exact oracle of
    /// the fast kernel.
    fn matvec_f64_oracle(c: &[f64], x: &[f64]) -> Vec<f64> {
        let n = c.len();
        let mut y = vec![0.0; n];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, &xj) in x.iter().enumerate() {
                acc += c[(n + i - j) % n] * xj;
            }
            *yi = acc;
        }
        y
    }

    #[test]
    fn matvec_f64_is_bit_identical_to_the_modulo_loop() {
        // Sizes below and at multiples of the row unroll, with tails.
        for n in [1usize, 2, 3, 5, 7, 64, 128, 256] {
            let c: Vec<f64> = (0..n)
                .map(|i| ((i * 37 % 101) as f64 - 50.0) / 33.3)
                .collect();
            let x: Vec<f64> = (0..n)
                .map(|i| ((i * 53 % 97) as f64 - 48.0) / 17.1)
                .collect();
            let want = matvec_f64_oracle(&c, &x);
            let got = matvec_f64(&c, &x);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "n={n} row {i}: {g} vs {w}");
            }
            // Accumulating onto a running sum adds each row's fresh sum,
            // whatever the column's float type.
            let c32: Vec<f32> = c.iter().map(|&v| v as f32).collect();
            let c32_wide: Vec<f64> = c32.iter().map(|&v| f64::from(v)).collect();
            let base: Vec<f64> = (0..n).map(|i| i as f64 * 0.37 - 1.0).collect();
            let mut y = base.clone();
            let mut scratch = vec![9.0; 3];
            matvec_add_f64(&c32, &x, &mut y, &mut scratch);
            let want32 = matvec_f64_oracle(&c32_wide, &x);
            for i in 0..n {
                assert_eq!(
                    y[i].to_bits(),
                    (base[i] + want32[i]).to_bits(),
                    "n={n} row {i}"
                );
            }
        }
    }

    #[test]
    fn identity_kernel_is_identity() {
        let c = [1.0, 0.0, 0.0, 0.0];
        let x = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(matvec_f64(&c, &x), x.to_vec());
    }

    #[test]
    fn shift_kernel_rotates() {
        // c = e_1 -> y[i] = x[i-1 mod n].
        let c = [0.0, 1.0, 0.0, 0.0];
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(matvec_f64(&c, &x), vec![4.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn fft_route_matches_direct_f64() {
        let n = 32;
        let c: Vec<f64> = (0..n)
            .map(|i| ((i * 13 % 17) as f64 - 8.0) / 20.0)
            .collect();
        let x: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64 - 5.0) / 11.0).collect();
        let direct = matvec_f64(&c, &x);
        let fast = matvec_fft_f64(&c, &x);
        for (a, b) in direct.iter().zip(&fast) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn q15_fft_route_matches_direct_at_scale() {
        let n = 16usize;
        let plan = FftPlan::new(n).unwrap();
        let c: Vec<Q15> = (0..n).map(|i| q(0.3 * ((i as f32 * 0.9).sin()))).collect();
        let x: Vec<Q15> = (0..n).map(|i| q(0.5 * ((i as f32 * 0.4).cos()))).collect();

        let exact = matvec_direct_q15(&c, &x);
        let fft = matvec_fft_q15(&plan, &c, &x).unwrap();
        // FFT route is at 1/N^2 scale.
        for (f, e) in fft.iter().zip(&exact) {
            let want = e.to_f64() / (n * n) as f64;
            assert!(
                (f.to_f64() - want).abs() < 6.0 / 32768.0,
                "{} vs {}",
                f.to_f64(),
                want
            );
        }
    }

    #[test]
    fn dense_expansion_matches_matvec() {
        let c = [0.5, -0.25, 0.1, 0.0];
        let x = [1.0, -1.0, 0.5, 0.25];
        let dense = to_dense_f64(&c);
        let via_dense: Vec<f64> = dense
            .iter()
            .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum())
            .collect();
        let direct = matvec_f64(&c, &x);
        for (a, b) in via_dense.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_of_circulant_is_identity() {
        let c = [0.3, -0.1, 0.7, 0.2];
        let dense = to_dense_f64(&c);
        let back = project_to_circulant(&dense);
        for (a, b) in back.iter().zip(&c) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_minimizes_frobenius_distance() {
        // For any matrix M and its projection C, replacing any diagonal
        // value with something else must not reduce the distance.
        let m = vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 10.0],
        ];
        let c = project_to_circulant(&m);
        let dist = |cvec: &[f64]| -> f64 {
            let n = m.len();
            let mut d = 0.0;
            for i in 0..n {
                for j in 0..n {
                    let diff = m[i][j] - cvec[(n + i - j) % n];
                    d += diff * diff;
                }
            }
            d
        };
        let base = dist(&c);
        for k in 0..c.len() {
            for delta in [-0.1, 0.1] {
                let mut perturbed = c.clone();
                perturbed[k] += delta;
                assert!(dist(&perturbed) >= base - 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_lengths_panic() {
        let _ = matvec_f64(&[1.0], &[1.0, 2.0]);
    }
}
