//! # ehdl-datasets — synthetic, shape-faithful dataset substitutes
//!
//! The paper evaluates on MNIST, UCI-HAR and Google Speech Commands
//! (§IV "DNN Models"). Those corpora are not available offline here, so
//! this crate generates deterministic synthetic substitutes with the
//! **same tensor shapes and class counts**, which preserves everything
//! the evaluation actually measures — compute, memory traffic, latency
//! and energy are functions of the model topology (Table II), not of the
//! pixel values. Accuracy numbers measured on these sets are synthetic,
//! and the bench binaries that print them (e.g. `table2_models`) say so.
//!
//! Generation recipes:
//!
//! * [`mnist`] — 28×28 grayscale "digits": one seeded prototype blob
//!   pattern per class, plus per-sample jitter (translation ±2 px and
//!   Gaussian noise),
//! * [`har`] — 121-sample single-channel accelerometer windows: per-class
//!   frequency/amplitude signatures plus noise (6 classes, UCI-HAR's
//!   activity count),
//! * [`okg`] — 28×28 log-mel-style spectrogram patches: per-class formant
//!   ridge layouts plus noise (12 classes, the Speech Commands 12-way
//!   split).
//!
//! # Example
//!
//! ```
//! use ehdl_datasets::{mnist, Dataset};
//!
//! let data = mnist(50, 7);
//! assert_eq!(data.len(), 50);
//! assert_eq!(data.classes(), 10);
//! let (train, test) = data.split(0.8);
//! assert_eq!(train.len() + test.len(), 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ehdl_nn::{Tensor, WeightRng};

/// One labeled example.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The input tensor (already normalized into `[-1, 1]`).
    pub input: Tensor,
    /// The class label.
    pub label: usize,
}

/// A labeled dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    name: String,
    classes: usize,
    samples: Vec<Sample>,
}

impl Dataset {
    /// Creates a dataset from parts.
    pub fn new(name: impl Into<String>, classes: usize, samples: Vec<Sample>) -> Self {
        Dataset {
            name: name.into(),
            classes,
            samples,
        }
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Iterates over samples.
    pub fn iter(&self) -> core::slice::Iter<'_, Sample> {
        self.samples.iter()
    }

    /// Splits into (train, test) by the given train fraction. Samples are
    /// interleaved by class in generation order, so a simple prefix split
    /// keeps classes balanced.
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is outside `[0, 1]`.
    pub fn split(&self, train_fraction: f64) -> (Dataset, Dataset) {
        assert!(
            (0.0..=1.0).contains(&train_fraction),
            "train_fraction must be in [0, 1]"
        );
        let cut = (self.samples.len() as f64 * train_fraction).round() as usize;
        let cut = cut.min(self.samples.len());
        (
            Dataset::new(
                format!("{}-train", self.name),
                self.classes,
                self.samples[..cut].to_vec(),
            ),
            Dataset::new(
                format!("{}-test", self.name),
                self.classes,
                self.samples[cut..].to_vec(),
            ),
        )
    }

    /// Per-class sample counts.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.classes];
        for s in &self.samples {
            hist[s.label] += 1;
        }
        hist
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Sample;
    type IntoIter = core::slice::Iter<'a, Sample>;
    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

/// Synthetic MNIST: `n` samples of shape `[1, 28, 28]`, 10 classes.
pub fn mnist(n: usize, seed: u64) -> Dataset {
    let classes = 10;
    let mut rng = WeightRng::new(seed ^ 0x4D4E);
    // Class prototypes: sparse blob patterns.
    let prototypes: Vec<Vec<f32>> = (0..classes)
        .map(|c| {
            let mut proto_rng = WeightRng::new(seed.wrapping_mul(31).wrapping_add(c as u64));
            blob_pattern(&mut proto_rng, 28, 28, 5 + c % 3)
        })
        .collect();
    let samples = (0..n)
        .map(|i| {
            let label = i % classes;
            let img = jitter_2d(&prototypes[label], 28, 28, &mut rng, 2, 0.15);
            Sample {
                input: Tensor::from_vec(img, &[1, 28, 28]).expect("shape fixed"),
                label,
            }
        })
        .collect();
    Dataset::new("mnist-synth", classes, samples)
}

/// Synthetic HAR: `n` windows of shape `[1, 1, 121]`, 6 classes.
pub fn har(n: usize, seed: u64) -> Dataset {
    let classes = 6;
    let window = ehdl_nn::zoo::HAR_WINDOW;
    let mut rng = WeightRng::new(seed ^ 0x4841);
    let samples = (0..n)
        .map(|i| {
            let label = i % classes;
            // Class signature: base frequency and harmonic mix.
            let f0 = 0.05 + 0.06 * label as f32;
            let amp2 = 0.2 + 0.1 * (label % 3) as f32;
            let phase: f32 = rng.range_f32(0.0, core::f32::consts::TAU);
            let data: Vec<f32> = (0..window)
                .map(|t| {
                    let t = t as f32;
                    let v = 0.5 * (core::f32::consts::TAU * f0 * t + phase).sin()
                        + amp2 * (core::f32::consts::TAU * 2.3 * f0 * t).cos()
                        + 0.08 * rng.range_f32(-1.0, 1.0);
                    v.clamp(-1.0, 1.0)
                })
                .collect();
            Sample {
                input: Tensor::from_vec(data, &[1, 1, window]).expect("shape fixed"),
                label,
            }
        })
        .collect();
    Dataset::new("har-synth", classes, samples)
}

/// Synthetic OKG: `n` spectrogram patches of shape `[1, 28, 28]`,
/// 12 classes.
pub fn okg(n: usize, seed: u64) -> Dataset {
    let classes = 12;
    let mut rng = WeightRng::new(seed ^ 0x4F4B);
    let samples = (0..n)
        .map(|i| {
            let label = i % classes;
            // Class signature: two formant ridges at class-specific rows
            // with class-specific slopes.
            let r1 = 3.0 + 2.0 * (label % 6) as f32;
            let r2 = 14.0 + 2.0 * (label % 5) as f32;
            let slope = 0.15 * ((label % 4) as f32 - 1.5);
            let mut img = vec![0.0f32; 28 * 28];
            for t in 0..28 {
                for f in 0..28 {
                    let c1 = f as f32 - (r1 + slope * t as f32);
                    let c2 = f as f32 - (r2 - slope * t as f32);
                    let ridge = (-c1 * c1 / 2.0).exp() + 0.8 * (-c2 * c2 / 2.0).exp();
                    img[f * 28 + t] = (ridge + 0.1 * rng.range_f32(-1.0, 1.0)).clamp(-1.0, 1.0);
                }
            }
            Sample {
                input: Tensor::from_vec(img, &[1, 28, 28]).expect("shape fixed"),
                label,
            }
        })
        .collect();
    Dataset::new("okg-synth", classes, samples)
}

/// A sparse pattern of Gaussian blobs, normalized into `[0, 1]`.
fn blob_pattern(rng: &mut WeightRng, h: usize, w: usize, blobs: usize) -> Vec<f32> {
    let mut img = vec![0.0f32; h * w];
    for _ in 0..blobs {
        let cy = rng.range_f32(4.0, h as f32 - 4.0);
        let cx = rng.range_f32(4.0, w as f32 - 4.0);
        let sigma: f32 = rng.range_f32(1.2, 2.8);
        for y in 0..h {
            for x in 0..w {
                let d2 = (y as f32 - cy).powi(2) + (x as f32 - cx).powi(2);
                img[y * w + x] += (-d2 / (2.0 * sigma * sigma)).exp();
            }
        }
    }
    let max = img.iter().fold(0.0f32, |m, &v| m.max(v)).max(1e-6);
    for v in &mut img {
        *v /= max;
    }
    img
}

/// Random translation plus Gaussian-ish noise, clamped to `[-1, 1]`.
fn jitter_2d(
    proto: &[f32],
    h: usize,
    w: usize,
    rng: &mut WeightRng,
    max_shift: i64,
    noise: f32,
) -> Vec<f32> {
    let dy = rng.range_i64(-max_shift, max_shift);
    let dx = rng.range_i64(-max_shift, max_shift);
    let mut out = vec![0.0f32; h * w];
    for y in 0..h as i64 {
        for x in 0..w as i64 {
            let sy = y - dy;
            let sx = x - dx;
            let base = if (0..h as i64).contains(&sy) && (0..w as i64).contains(&sx) {
                proto[(sy as usize) * w + sx as usize]
            } else {
                0.0
            };
            let n: f32 = rng.range_f32(-noise, noise);
            out[(y as usize) * w + x as usize] = (base + n).clamp(-1.0, 1.0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_table2_inputs() {
        assert_eq!(mnist(4, 1).samples()[0].input.shape(), &[1, 28, 28]);
        assert_eq!(har(4, 1).samples()[0].input.shape(), &[1, 1, 121]);
        assert_eq!(okg(4, 1).samples()[0].input.shape(), &[1, 28, 28]);
    }

    #[test]
    fn class_counts_match_paper() {
        assert_eq!(mnist(10, 1).classes(), 10);
        assert_eq!(har(6, 1).classes(), 6);
        assert_eq!(okg(12, 1).classes(), 12);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(mnist(20, 9), mnist(20, 9));
        assert_eq!(har(20, 9), har(20, 9));
        assert_eq!(okg(20, 9), okg(20, 9));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(mnist(20, 1), mnist(20, 2));
    }

    #[test]
    fn labels_are_balanced() {
        let d = mnist(100, 3);
        let hist = d.class_histogram();
        assert!(hist.iter().all(|&c| c == 10), "{hist:?}");
    }

    #[test]
    fn inputs_are_normalized() {
        for d in [mnist(30, 4), har(30, 4), okg(30, 4)] {
            for s in &d {
                assert!(s.input.max_abs() <= 1.0, "{} out of range", d.name());
            }
        }
    }

    #[test]
    fn split_is_exact_and_named() {
        let d = har(50, 5);
        let (train, test) = d.split(0.8);
        assert_eq!(train.len(), 40);
        assert_eq!(test.len(), 10);
        assert!(train.name().ends_with("-train"));
        assert!(test.name().ends_with("-test"));
    }

    #[test]
    fn same_class_samples_are_similar_but_not_identical() {
        let d = mnist(20, 6);
        let a = &d.samples()[0]; // class 0
        let b = &d.samples()[10]; // class 0 again
        assert_eq!(a.label, b.label);
        assert_ne!(a.input, b.input);
        // Same prototype: correlation should beat cross-class pairs.
        let corr = |x: &Tensor, y: &Tensor| -> f32 {
            x.as_slice()
                .iter()
                .zip(y.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let same = corr(&a.input, &b.input);
        let cross = corr(&a.input, &d.samples()[1].input);
        assert!(same > cross, "same {same} cross {cross}");
    }

    #[test]
    fn models_accept_their_datasets() {
        let m = ehdl_nn::zoo::mnist();
        let d = mnist(2, 7);
        assert!(m.forward(&d.samples()[0].input).is_ok());
        let m = ehdl_nn::zoo::har();
        let d = har(2, 7);
        assert!(m.forward(&d.samples()[0].input).is_ok());
        let m = ehdl_nn::zoo::okg();
        let d = okg(2, 7);
        assert!(m.forward(&d.samples()[0].input).is_ok());
    }

    #[test]
    #[should_panic(expected = "train_fraction")]
    fn bad_split_panics() {
        let _ = mnist(10, 1).split(1.5);
    }
}
