//! Harvested-power source waveforms.

use core::fmt;

/// A deterministic power waveform `P(t)` in watts.
///
/// The paper drives its board from a SIGLENT SDG1032X function generator
/// "to simulate the energy harvesting scenario" (§III-D); [`Harvester::square`]
/// is that instrument. The other shapes cover common harvesting profiles
/// (solar flicker, RF bursts, recorded traces) so the intermittent runtime
/// can be stress-tested beyond the paper's setup.
///
/// Waveforms are value types evaluated analytically; the executor
/// integrates them in closed form over each op's duration
/// ([`Harvester::energy_over`]) and *inverts* them in closed form over
/// dark recharge phases ([`Harvester::time_to_energy`]), so simulation
/// cost depends on waveform features crossed, never on simulated time.
#[derive(Debug, Clone, PartialEq)]
pub enum Harvester {
    /// Constant power (bench supply through a current limiter).
    Constant {
        /// Power in watts.
        watts: f64,
    },
    /// Square wave: `watts` during the first `duty` fraction of each
    /// `period_s`, zero otherwise — the function generator.
    Square {
        /// On-phase power in watts.
        watts: f64,
        /// Waveform period in seconds.
        period_s: f64,
        /// On-phase fraction in `(0, 1]`.
        duty: f64,
    },
    /// Rectified sine: `watts · max(0, sin(2πt/period))` — solar/vibration
    /// style slow variation.
    Sine {
        /// Peak power in watts.
        watts: f64,
        /// Waveform period in seconds.
        period_s: f64,
    },
    /// Pseudo-random on/off bursts from a counter-based hash — RF-style
    /// unpredictable power, deterministic per seed.
    Bursts {
        /// On-phase power in watts.
        watts: f64,
        /// Length of one on/off decision slot in seconds.
        slot_s: f64,
        /// Probability a slot is on, in `[0, 1]`.
        p_on: f64,
        /// Hash seed.
        seed: u64,
    },
    /// Piecewise-constant recorded trace, cycled. Samples are
    /// `(duration_s, watts)` segments.
    Trace {
        /// The `(duration, power)` segments, repeated forever.
        segments: Vec<(f64, f64)>,
    },
}

impl Harvester {
    /// Constant supply.
    pub fn constant(watts: f64) -> Self {
        Harvester::Constant { watts }
    }

    /// Function-generator square wave.
    ///
    /// # Panics
    ///
    /// Panics unless `period_s > 0` and `0 < duty <= 1`.
    pub fn square(watts: f64, period_s: f64, duty: f64) -> Self {
        assert!(period_s > 0.0, "period must be positive");
        assert!(duty > 0.0 && duty <= 1.0, "duty must be in (0, 1]");
        Harvester::Square {
            watts,
            period_s,
            duty,
        }
    }

    /// Rectified sine source.
    ///
    /// # Panics
    ///
    /// Panics unless `period_s > 0`.
    pub fn sine(watts: f64, period_s: f64) -> Self {
        assert!(period_s > 0.0, "period must be positive");
        Harvester::Sine { watts, period_s }
    }

    /// Random burst source (deterministic per seed).
    ///
    /// # Panics
    ///
    /// Panics unless `slot_s > 0` and `p_on` is a probability.
    pub fn bursts(watts: f64, slot_s: f64, p_on: f64, seed: u64) -> Self {
        assert!(slot_s > 0.0, "slot must be positive");
        assert!((0.0..=1.0).contains(&p_on), "p_on must be in [0, 1]");
        Harvester::Bursts {
            watts,
            slot_s,
            p_on,
            seed,
        }
    }

    /// Piecewise-constant trace, cycled forever.
    ///
    /// # Panics
    ///
    /// Panics if the segments are invalid; see [`Harvester::try_trace`]
    /// for the non-panicking constructor and the validation rules.
    pub fn trace(segments: Vec<(f64, f64)>) -> Self {
        Self::try_trace(segments).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Piecewise-constant trace, cycled forever, validated on
    /// construction: a trace must have at least one segment, every
    /// duration must be positive and finite, and every power must be
    /// non-negative (a recorded trace with NaNs, zero-length segments or
    /// negative watts would otherwise silently cycle garbage).
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] found, in segment order.
    pub fn try_trace(segments: Vec<(f64, f64)>) -> Result<Self, TraceError> {
        if segments.is_empty() {
            return Err(TraceError::Empty);
        }
        for (index, &(duration_s, watts)) in segments.iter().enumerate() {
            if !(duration_s > 0.0 && duration_s.is_finite()) {
                return Err(TraceError::BadDuration { index, duration_s });
            }
            if !(watts >= 0.0 && watts.is_finite()) {
                return Err(TraceError::BadPower { index, watts });
            }
        }
        Ok(Harvester::Trace { segments })
    }

    /// Piecewise-constant trace parsed from a recorded harvester log in
    /// CSV form: one `seconds,milliwatts` row per segment (the segment's
    /// duration and its constant power). Blank lines and `#` comments
    /// are skipped, and a leading non-numeric header row (e.g.
    /// `seconds,milliwatts`) is tolerated. Parsed segments go through
    /// the same validation as [`Harvester::try_trace`].
    ///
    /// # Errors
    ///
    /// Returns the [`TraceError`] for the first malformed row, carrying
    /// its 1-based line number, or [`TraceError::Empty`] when the log
    /// has no data rows.
    pub fn try_trace_csv(csv: &str) -> Result<Self, TraceError> {
        let mut segments: Vec<(f64, f64)> = Vec::new();
        let mut first_row = true;
        for (index, raw) in csv.lines().enumerate() {
            let line = index + 1;
            let row = raw.trim();
            if row.is_empty() || row.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = row.split(',').map(str::trim).collect();
            let parsed: Vec<Result<f64, _>> = fields.iter().map(|f| f.parse::<f64>()).collect();
            let header_candidate = first_row;
            first_row = false;
            if header_candidate && parsed.iter().all(Result::is_err) {
                // The one allowed header row ("seconds,milliwatts");
                // later non-numeric rows get line-numbered errors, so a
                // wholly wrong-format log is diagnosed, not swallowed.
                continue;
            }
            if fields.len() != 2 {
                return Err(TraceError::Csv {
                    line,
                    message: format!(
                        "expected 2 fields (seconds,milliwatts), found {}",
                        fields.len()
                    ),
                });
            }
            let value = |slot: usize, what: &str| -> Result<f64, TraceError> {
                parsed[slot].clone().map_err(|_| TraceError::Csv {
                    line,
                    message: format!("{what} `{}` is not a number", fields[slot]),
                })
            };
            let duration_s = value(0, "duration")?;
            let milliwatts = value(1, "power")?;
            if !(duration_s > 0.0 && duration_s.is_finite()) {
                return Err(TraceError::Csv {
                    line,
                    message: format!("non-positive or non-finite duration {duration_s} s"),
                });
            }
            if !(milliwatts >= 0.0 && milliwatts.is_finite()) {
                return Err(TraceError::Csv {
                    line,
                    message: format!("negative or non-finite power {milliwatts} mW"),
                });
            }
            segments.push((duration_s, milliwatts * 1e-3));
        }
        Self::try_trace(segments)
    }

    /// The same waveform with its randomness re-seeded: replaces the
    /// seed of a [`Harvester::Bursts`] source and leaves the
    /// deterministic shapes untouched. Lets a sweep engine derive many
    /// distinct-but-reproducible environments from one catalog entry.
    #[must_use]
    pub fn with_seed(&self, seed: u64) -> Self {
        match self {
            Harvester::Bursts {
                watts,
                slot_s,
                p_on,
                ..
            } => Harvester::Bursts {
                watts: *watts,
                slot_s: *slot_s,
                p_on: *p_on,
                seed,
            },
            other => other.clone(),
        }
    }

    /// The same waveform with every power level multiplied by `factor`
    /// — the shape (periods, duties, slots, seeds) is untouched, only
    /// the wattage scales. This is how a shared RF field imposes
    /// per-device path loss: each device sees the common waveform
    /// attenuated by its own gain. Scaling by exactly `1.0` returns a
    /// bit-identical waveform (IEEE multiplication by one is exact), so
    /// a lossless device is indistinguishable from an unscaled one.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and non-negative.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "scale factor must be finite and non-negative"
        );
        match self {
            Harvester::Constant { watts } => Harvester::Constant {
                watts: watts * factor,
            },
            Harvester::Square {
                watts,
                period_s,
                duty,
            } => Harvester::Square {
                watts: watts * factor,
                period_s: *period_s,
                duty: *duty,
            },
            Harvester::Sine { watts, period_s } => Harvester::Sine {
                watts: watts * factor,
                period_s: *period_s,
            },
            Harvester::Bursts {
                watts,
                slot_s,
                p_on,
                seed,
            } => Harvester::Bursts {
                watts: watts * factor,
                slot_s: *slot_s,
                p_on: *p_on,
                seed: *seed,
            },
            Harvester::Trace { segments } => Harvester::Trace {
                segments: segments.iter().map(|&(d, w)| (d, w * factor)).collect(),
            },
        }
    }

    /// `true` for waveforms with re-seedable randomness (the burst
    /// source). Non-stochastic waveforms are pure functions of time —
    /// [`with_seed`](Self::with_seed) leaves them untouched — so any run
    /// driven by one is deterministic and can be trace-replayed.
    pub fn is_stochastic(&self) -> bool {
        matches!(self, Harvester::Bursts { .. })
    }

    /// Instantaneous power at time `t` seconds.
    pub fn power_at(&self, t: f64) -> f64 {
        match self {
            Harvester::Constant { watts } => *watts,
            Harvester::Square {
                watts,
                period_s,
                duty,
            } => {
                let phase = (t / period_s).rem_euclid(1.0);
                if phase < *duty {
                    *watts
                } else {
                    0.0
                }
            }
            Harvester::Sine { watts, period_s } => {
                let s = (core::f64::consts::TAU * t / period_s).sin();
                watts * s.max(0.0)
            }
            Harvester::Bursts {
                watts,
                slot_s,
                p_on,
                seed,
            } => {
                let slot = (t / slot_s).floor() as i64 as u64;
                if split_mix(slot.wrapping_add(*seed)) < burst_threshold(*p_on) {
                    *watts
                } else {
                    0.0
                }
            }
            Harvester::Trace { segments } => {
                let total: f64 = segments.iter().map(|&(d, _)| d).sum();
                let mut phase = t.rem_euclid(total);
                for &(d, w) in segments {
                    if phase < d {
                        return w;
                    }
                    phase -= d;
                }
                segments.last().map(|&(_, w)| w).unwrap_or(0.0)
            }
        }
    }

    /// Energy in joules delivered over `[t0, t0 + dt]`.
    ///
    /// Closed form for **every** waveform: constant and square are
    /// elementary, traces combine whole-cycle skipping with a bounded
    /// segment walk, the rectified sine integrates its half-waves
    /// analytically, and bursts sum their piecewise-constant slots under
    /// the counter-based hash. No numeric quadrature is involved, so the
    /// result is exact up to float rounding and
    /// [`time_to_energy`](Self::time_to_energy) can invert it tightly.
    pub fn energy_over(&self, t0: f64, dt: f64) -> f64 {
        if dt <= 0.0 {
            return 0.0;
        }
        match self {
            Harvester::Constant { watts } => watts * dt,
            Harvester::Square {
                watts,
                period_s,
                duty,
            } => {
                // Integrate the on-fraction of [t0, t0+dt] exactly.
                let on_time = square_on_time(t0, dt, *period_s, *duty);
                watts * on_time
            }
            Harvester::Trace { segments } => {
                // Whole cycles in closed form, then a bounded walk over
                // the remainder. (A naive boundary walk can take
                // denormal-sized steps from rem_euclid rounding and never
                // terminate — caught by the executor property tests.)
                let total: f64 = segments.iter().map(|&(d, _)| d).sum();
                let per_cycle: f64 = segments.iter().map(|&(d, w)| d * w).sum();
                let cycles = (dt / total).floor();
                let mut energy = cycles * per_cycle;
                let start = t0 + cycles * total;
                let mut remaining = (t0 + dt) - start;

                // Locate the segment containing the starting phase.
                let mut phase = start.rem_euclid(total);
                let mut idx = 0usize;
                for _ in 0..segments.len() {
                    if phase < segments[idx].0 {
                        break;
                    }
                    phase -= segments[idx].0;
                    idx = (idx + 1) % segments.len();
                }

                // The remainder spans < 2 cycles even with floor slack.
                for _ in 0..3 * segments.len() {
                    if remaining <= 1e-15 {
                        break;
                    }
                    let (d, w) = segments[idx];
                    let step = (d - phase).max(0.0).min(remaining);
                    energy += w * step;
                    remaining -= step;
                    phase = 0.0;
                    idx = (idx + 1) % segments.len();
                }
                energy
            }
            Harvester::Sine { watts, period_s } => {
                // Whole periods each deliver watts·T/π, then the
                // remainder (spanning at most two period boundaries)
                // integrates analytically half-wave by half-wave.
                let per_period = watts * period_s / core::f64::consts::PI;
                let full = (dt / period_s).floor();
                let mut energy = full * per_period;
                let start = t0 + full * period_s;
                let mut remaining = (t0 + dt) - start;
                let mut phase = (start / period_s).rem_euclid(1.0) * period_s;
                for _ in 0..4 {
                    if remaining <= 0.0 {
                        break;
                    }
                    let span = (*period_s - phase).min(remaining);
                    energy += sine_energy_within(*watts, *period_s, phase, span);
                    remaining -= span;
                    phase = 0.0;
                }
                energy
            }
            Harvester::Bursts {
                watts,
                slot_s,
                p_on,
                seed,
            } => {
                // Exact slot walk: the waveform is constant within each
                // hash-decided slot, so the integral is a sum of slot
                // overlaps — O(slots crossed).
                let threshold = burst_threshold(*p_on);
                let end = t0 + dt;
                let mut k = (t0 / slot_s).floor() as i64;
                let mut cursor = t0;
                let mut energy = 0.0;
                loop {
                    let slot_end = (k + 1) as f64 * slot_s;
                    let upper = slot_end.min(end);
                    if upper > cursor && split_mix((k as u64).wrapping_add(*seed)) < threshold {
                        energy += watts * (upper - cursor);
                    }
                    if slot_end >= end {
                        break;
                    }
                    cursor = cursor.max(slot_end);
                    k += 1;
                }
                energy
            }
        }
    }

    /// The exact inverse of [`energy_over`](Self::energy_over): the
    /// smallest `dt >= 0` such that `energy_over(t0, dt) >= joules`, or
    /// `f64::INFINITY` when the waveform can never deliver that much
    /// energy (a dead source). This is the charge solver the
    /// intermittent executor's analytic dark-phase fast-forward is built
    /// on: a multi-second recharge is answered in O(segments crossed)
    /// instead of thousands of fixed integration steps.
    ///
    /// Per-waveform strategy and accuracy:
    ///
    /// * **Constant** — direct division; exact up to one rounding.
    /// * **Square** — whole periods are skipped via the precomputed
    ///   energy-per-period, then a ≤ 2-period segment walk finishes
    ///   inside the on-phase by division. Exact up to float rounding.
    /// * **Trace** — whole-cycle skipping on the summed per-cycle
    ///   energy, then a bounded walk over the remaining segments (the
    ///   same walk [`energy_over`](Self::energy_over) performs, run in
    ///   reverse). Exact up to float rounding.
    /// * **Sine** — period skipping, then the final half-wave is
    ///   inverted through `acos` and polished with a bracket-guarded
    ///   Newton step against the analytic integral; the residual energy
    ///   error is a few ULPs of the target.
    /// * **Bursts** — multi-slot skipping under the counter-based hash:
    ///   off slots cost one hash evaluation each, the final on-slot
    ///   finishes by division. Exact up to float rounding. A source
    ///   whose `p_on` rounds to a zero hash threshold is dead and
    ///   returns infinity; otherwise the walk halts with probability 1
    ///   (use [`time_to_energy_within`](Self::time_to_energy_within) to
    ///   bound it by a horizon, as the executor does).
    ///
    /// The roundtrip `energy_over(t0, time_to_energy(t0, e)) ≈ e` holds
    /// within a relative error of ~1e-9 for every waveform (property
    /// tested in `crates/ehsim/tests/proptests.rs`).
    pub fn time_to_energy(&self, t0: f64, joules: f64) -> f64 {
        self.time_to_energy_within(t0, joules, f64::INFINITY)
    }

    /// [`time_to_energy`](Self::time_to_energy) bounded by a horizon:
    /// returns `f64::INFINITY` when the energy is not reached within
    /// `max_dt` seconds. For burst sources the slot walk itself is
    /// capped at the horizon, so a nearly dead source costs
    /// O(horizon / slot) hash evaluations instead of walking forever.
    pub fn time_to_energy_within(&self, t0: f64, joules: f64, max_dt: f64) -> f64 {
        if joules <= 0.0 {
            return 0.0;
        }
        if max_dt <= 0.0 || max_dt.is_nan() {
            return f64::INFINITY;
        }
        let dt = match self {
            Harvester::Constant { watts } => {
                if *watts <= 0.0 {
                    return f64::INFINITY;
                }
                joules / watts
            }
            Harvester::Square {
                watts,
                period_s,
                duty,
            } => {
                if *watts <= 0.0 {
                    return f64::INFINITY;
                }
                let on_len = period_s * duty;
                let per_period = watts * on_len;
                let (skip, mut rem) = skip_cycles(joules, per_period);
                let mut dt = skip * period_s;
                let mut phase = (t0 / period_s).rem_euclid(1.0) * period_s;
                // rem < 2·per_period, so ≤ 2 on-windows plus a partial.
                let mut guard = 0;
                while rem > 0.0 {
                    guard += 1;
                    if guard > 8 {
                        break;
                    }
                    if phase < on_len {
                        let cap = watts * (on_len - phase);
                        if cap >= rem {
                            dt += rem / watts;
                            break;
                        }
                        rem -= cap;
                        dt += on_len - phase;
                        phase = on_len;
                    }
                    dt += period_s - phase; // dark tail of the period
                    phase = 0.0;
                }
                dt
            }
            Harvester::Trace { segments } => {
                let total: f64 = segments.iter().map(|&(d, _)| d).sum();
                let per_cycle: f64 = segments.iter().map(|&(d, w)| d * w).sum();
                if per_cycle <= 0.0 {
                    return f64::INFINITY;
                }
                let (skip, mut rem) = skip_cycles(joules, per_cycle);
                let mut dt = skip * total;
                // Locate the segment containing t0's phase — whole-cycle
                // skipping preserves it.
                let mut phase = t0.rem_euclid(total);
                let mut idx = 0usize;
                for _ in 0..segments.len() {
                    if phase < segments[idx].0 {
                        break;
                    }
                    phase -= segments[idx].0;
                    idx = (idx + 1) % segments.len();
                }
                let mut guard = 0;
                while rem > 0.0 {
                    guard += 1;
                    if guard > 4 * segments.len() + 8 {
                        break;
                    }
                    let (d, w) = segments[idx];
                    let window = (d - phase).max(0.0);
                    if w > 0.0 && w * window >= rem {
                        dt += rem / w;
                        break;
                    }
                    rem -= w * window;
                    dt += window;
                    phase = 0.0;
                    idx = (idx + 1) % segments.len();
                }
                dt
            }
            Harvester::Sine { watts, period_s } => {
                if *watts <= 0.0 {
                    return f64::INFINITY;
                }
                let per_period = watts * period_s / core::f64::consts::PI;
                let (skip, mut rem) = skip_cycles(joules, per_period);
                let mut dt = skip * period_s;
                let mut phase = (t0 / period_s).rem_euclid(1.0) * period_s;
                let half = period_s / 2.0;
                let amp = watts * period_s / core::f64::consts::TAU;
                let theta = |x: f64| core::f64::consts::TAU * x / period_s;
                let mut guard = 0;
                while rem > 0.0 {
                    guard += 1;
                    if guard > 8 {
                        break;
                    }
                    if phase < half {
                        let cos_p = theta(phase).cos();
                        let avail = amp * (cos_p + 1.0);
                        if avail >= rem {
                            // Invert the half-wave integral: the acos
                            // seed is already accurate; one
                            // bracket-guarded Newton step against the
                            // analytic integral polishes it to ULPs.
                            let c = (cos_p - rem / amp).clamp(-1.0, 1.0);
                            let mut x = c.acos() * period_s / core::f64::consts::TAU;
                            for _ in 0..2 {
                                let g = amp * (cos_p - theta(x).cos()) - rem;
                                let slope = watts * theta(x).sin();
                                if slope > 0.0 {
                                    x = (x - g / slope).clamp(phase, half);
                                }
                            }
                            dt += x - phase;
                            break;
                        }
                        rem -= avail;
                        dt += half - phase;
                        phase = half;
                    }
                    dt += period_s - phase; // dark half-wave
                    phase = 0.0;
                }
                dt
            }
            Harvester::Bursts {
                watts,
                slot_s,
                p_on,
                seed,
            } => {
                let threshold = burst_threshold(*p_on);
                if *watts <= 0.0 || threshold == 0 {
                    return f64::INFINITY;
                }
                let mut k = (t0 / slot_s).floor() as i64;
                let mut cursor = t0;
                let mut dt = 0.0f64;
                let mut rem = joules;
                loop {
                    let slot_end = (k + 1) as f64 * slot_s;
                    let window = slot_end - cursor;
                    if window > 0.0 {
                        if split_mix((k as u64).wrapping_add(*seed)) < threshold {
                            let cap = watts * window;
                            if cap >= rem {
                                dt += rem / watts;
                                break;
                            }
                            rem -= cap;
                        }
                        dt += window;
                        if dt > max_dt {
                            return f64::INFINITY;
                        }
                    }
                    cursor = cursor.max(slot_end);
                    k += 1;
                }
                dt
            }
        };
        if dt <= max_dt {
            dt
        } else {
            f64::INFINITY
        }
    }

    /// Long-run average power in watts.
    pub fn average_power(&self) -> f64 {
        match self {
            Harvester::Constant { watts } => *watts,
            Harvester::Square { watts, duty, .. } => watts * duty,
            Harvester::Sine { watts, .. } => watts / core::f64::consts::PI,
            Harvester::Bursts { watts, p_on, .. } => watts * p_on,
            Harvester::Trace { segments } => {
                let total: f64 = segments.iter().map(|&(d, _)| d).sum();
                let energy: f64 = segments.iter().map(|&(d, w)| d * w).sum();
                energy / total
            }
        }
    }
}

/// A per-run memo of the [`Harvester::Bursts`] slot the run is in, so
/// the executor's per-op harvest skips the slot walk's division,
/// `floor`, float-to-int conversion and SplitMix hash while an op stays
/// inside the memoized slot.
///
/// [`energy_over`](Self::energy_over) returns exactly the bits of
/// [`Harvester::energy_over`]: inside one slot the walk adds a single
/// overlap to `0.0`, which the memo reproduces term for term. It falls
/// back to the walk for `dt <= 0`, for an op that crosses the slot's
/// end, and for every other waveform.
#[derive(Debug, Clone)]
pub(crate) struct SlotMemo {
    /// The burst source's slot length; NaN disables the memo.
    slot_s: f64,
    watts: f64,
    threshold: u64,
    seed: u64,
    /// The memoized slot `k` (NaN when none), its end `(k + 1) * slot_s`
    /// and its power: `watts` when on, `0.0` when off.
    k: f64,
    slot_end: f64,
    power: f64,
}

impl SlotMemo {
    /// An empty memo for `harvester`; disabled unless it is a burst
    /// source with finite power and a finite positive slot.
    pub(crate) fn new(harvester: &Harvester) -> Self {
        let mut memo = SlotMemo {
            slot_s: f64::NAN,
            watts: 0.0,
            threshold: 0,
            seed: 0,
            k: f64::NAN,
            slot_end: f64::NAN,
            power: 0.0,
        };
        if let Harvester::Bursts {
            watts,
            slot_s,
            p_on,
            seed,
        } = *harvester
        {
            if watts.is_finite() && slot_s > 0.0 && slot_s.is_finite() {
                memo.slot_s = slot_s;
                memo.watts = watts;
                memo.threshold = burst_threshold(p_on);
                memo.seed = seed;
            }
        }
        memo
    }

    /// [`Harvester::energy_over`] of `harvester` (the source the memo
    /// was made for), bit for bit.
    #[inline(always)]
    pub(crate) fn energy_over(&mut self, harvester: &Harvester, t0: f64, dt: f64) -> f64 {
        if self.slot_s.is_nan() {
            return harvester.energy_over(t0, dt);
        }
        let end = t0 + dt;
        let q = t0 / self.slot_s;
        // `k <= q < k + 1` is `floor(q) == k` without the `floor`; an
        // empty memo's NaN slot fails it.
        if dt > 0.0 && self.k <= q && q < self.k + 1.0 && end <= self.slot_end {
            // The walk's single in-slot term: `0.0 + watts * (end - t0)`
            // when on (zero when `end == t0`), `0.0` when off.
            0.0 + self.power * (end - t0)
        } else {
            self.miss(harvester, t0, dt)
        }
    }

    /// The slot walk, then a refresh to the slot the next op starts in.
    #[cold]
    #[inline(never)]
    fn miss(&mut self, harvester: &Harvester, t0: f64, dt: f64) -> f64 {
        let energy = harvester.energy_over(t0, dt);
        let q = (t0 + dt.max(0.0)) / self.slot_s;
        // Memoize only slots whose index and neighbour are exact floats.
        if q >= 0.0 && q < (1u64 << 52) as f64 {
            let k = q.floor() as i64;
            self.k = k as f64;
            self.slot_end = (k + 1) as f64 * self.slot_s;
            self.power = if split_mix((k as u64).wrapping_add(self.seed)) < self.threshold {
                self.watts
            } else {
                0.0
            };
        } else {
            self.k = f64::NAN;
        }
        energy
    }
}

impl fmt::Display for Harvester {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Harvester::Constant { watts } => write!(f, "constant {:.1} mW", watts * 1e3),
            Harvester::Square {
                watts,
                period_s,
                duty,
            } => write!(
                f,
                "square {:.1} mW, {:.0} ms period, {:.0}% duty",
                watts * 1e3,
                period_s * 1e3,
                duty * 100.0
            ),
            Harvester::Sine { watts, period_s } => write!(
                f,
                "sine {:.1} mW peak, {:.0} ms period",
                watts * 1e3,
                period_s * 1e3
            ),
            Harvester::Bursts { watts, p_on, .. } => {
                write!(f, "bursts {:.1} mW, {:.0}% on", watts * 1e3, p_on * 100.0)
            }
            Harvester::Trace { segments } => write!(f, "trace ({} segments)", segments.len()),
        }
    }
}

/// Exact on-time of a square wave over `[t0, t0+dt]`.
fn square_on_time(t0: f64, dt: f64, period: f64, duty: f64) -> f64 {
    let on_len = period * duty;
    // Whole periods contribute on_len each.
    let full = (dt / period).floor();
    let mut on = full * on_len;
    let mut t = t0 + full * period;
    let end = t0 + dt;
    // Remainder: walk at most two phase boundaries.
    while t < end - 1e-15 {
        let phase = (t / period).rem_euclid(1.0) * period;
        let (is_on, boundary) = if phase < on_len {
            (true, on_len)
        } else {
            (false, period)
        };
        let step = (boundary - phase).min(end - t);
        let next = t + step;
        if next <= t {
            // Rounding corner: `rem_euclid(1.0) * period` can round up
            // to exactly `period` (or within an ULP of a boundary), so
            // `step` underflows to nothing and `t` would never advance.
            // The true position is a sub-ULP sliver from the boundary —
            // snap to the next period start; the skipped tail is off
            // (or immeasurably thin), so no on-time is lost.
            t = ((t / period).floor() + 1.0) * period;
            continue;
        }
        if is_on {
            on += step;
        }
        t = next;
    }
    on
}

/// Analytic energy of a rectified sine (`watts · max(0, sin(2πt/T))`)
/// over `[phase, phase + span]`, where `phase` lies within one period
/// and the window does not cross the period boundary: the overlap with
/// the on half-wave integrates to
/// `watts·T/2π · (cos(2π·lo/T) − cos(2π·hi/T))`.
fn sine_energy_within(watts: f64, period: f64, phase: f64, span: f64) -> f64 {
    let half = period / 2.0;
    let lo = phase.min(half);
    let hi = (phase + span).min(half);
    if hi <= lo {
        return 0.0;
    }
    let amp = watts * period / core::f64::consts::TAU;
    let theta = core::f64::consts::TAU / period;
    amp * ((theta * lo).cos() - (theta * hi).cos())
}

/// Whole-cycle skip for the charge solver: how many full waveform
/// cycles (each delivering `per_cycle` joules) fit strictly below the
/// target, and the energy left over. The floor is nudged down one cycle
/// when float slack would leave a zero or negative remainder, so the
/// caller's segment walk always terminates inside a cycle.
fn skip_cycles(joules: f64, per_cycle: f64) -> (f64, f64) {
    let mut skip = (joules / per_cycle).floor();
    if skip >= 1.0 && skip * per_cycle >= joules {
        skip -= 1.0;
    }
    let skip = skip.max(0.0);
    (skip, joules - skip * per_cycle)
}

/// A malformed recorded power trace, rejected by
/// [`Harvester::try_trace`] at construction.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The trace has no segments.
    Empty,
    /// A segment's duration is non-positive or not finite.
    BadDuration {
        /// Index of the offending segment.
        index: usize,
        /// The rejected duration in seconds.
        duration_s: f64,
    },
    /// A segment's power is negative or not finite.
    BadPower {
        /// Index of the offending segment.
        index: usize,
        /// The rejected power in watts.
        watts: f64,
    },
    /// A malformed row in a CSV harvester log
    /// ([`Harvester::try_trace_csv`]).
    Csv {
        /// 1-based line number of the offending row.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace needs at least one segment"),
            TraceError::BadDuration { index, duration_s } => write!(
                f,
                "trace segment {index} has non-positive or non-finite duration {duration_s} s"
            ),
            TraceError::BadPower { index, watts } => {
                write!(
                    f,
                    "trace segment {index} has negative or non-finite power {watts} W"
                )
            }
            TraceError::Csv { line, message } => {
                write!(f, "trace CSV line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The burst source's on-slot hash threshold for a given `p_on`. One
/// definition shared by `power_at`, `energy_over` and
/// `time_to_energy_within`: their bit-exact agreement on which slots
/// are on is what makes the solver the exact inverse of the integral.
fn burst_threshold(p_on: f64) -> u64 {
    (p_on * u64::MAX as f64) as u64
}

/// SplitMix64 — tiny counter-based hash for the burst source.
fn split_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_energy_is_linear() {
        let h = Harvester::constant(0.002);
        assert!((h.energy_over(0.0, 2.0) - 0.004).abs() < 1e-12);
        assert_eq!(h.energy_over(5.0, 0.0), 0.0);
    }

    #[test]
    fn square_on_phase_and_off_phase() {
        let h = Harvester::square(0.004, 0.1, 0.5);
        assert_eq!(h.power_at(0.01), 0.004); // first half: on
        assert_eq!(h.power_at(0.06), 0.0); // second half: off
        assert_eq!(h.power_at(0.11), 0.004); // wraps
    }

    #[test]
    fn square_energy_exact_over_full_periods() {
        let h = Harvester::square(0.004, 0.1, 0.25);
        // 10 periods: on 25% of 1 s = 0.25 s at 4 mW = 1 mJ.
        assert!((h.energy_over(0.0, 1.0) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn square_energy_partial_window() {
        let h = Harvester::square(1.0, 1.0, 0.5);
        // [0.25, 0.75]: on during [0.25, 0.5] = 0.25 s.
        assert!((h.energy_over(0.25, 0.5) - 0.25).abs() < 1e-12);
        // [0.6, 1.2]: on during [1.0, 1.2] = 0.2 s.
        assert!((h.energy_over(0.6, 0.6) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sine_average_power_matches_integral() {
        let h = Harvester::sine(0.003, 0.05);
        let integral = h.energy_over(0.0, 1.0);
        assert!((integral - h.average_power()).abs() < 1e-5);
    }

    #[test]
    fn bursts_are_deterministic_and_respect_p_on() {
        let h = Harvester::bursts(0.005, 0.01, 0.3, 42);
        let a = h.power_at(0.123);
        let b = h.power_at(0.123);
        assert_eq!(a, b);
        let on_fraction = (0..10_000)
            .filter(|i| h.power_at(*i as f64 * 0.01 + 0.005) > 0.0)
            .count() as f64
            / 10_000.0;
        assert!((on_fraction - 0.3).abs() < 0.03, "fraction = {on_fraction}");
    }

    #[test]
    fn trace_cycles_segments() {
        let h = Harvester::trace(vec![(0.1, 0.001), (0.1, 0.0)]);
        assert_eq!(h.power_at(0.05), 0.001);
        assert_eq!(h.power_at(0.15), 0.0);
        assert_eq!(h.power_at(0.25), 0.001); // wrapped
        let e = h.energy_over(0.0, 0.4); // two full cycles
        assert!((e - 2.0 * 0.1 * 0.001).abs() < 1e-12);
    }

    #[test]
    fn average_power_by_shape() {
        assert!((Harvester::square(4.0, 1.0, 0.5).average_power() - 2.0).abs() < 1e-12);
        assert!((Harvester::bursts(2.0, 0.1, 0.25, 1).average_power() - 0.5).abs() < 1e-12);
        let t = Harvester::trace(vec![(1.0, 1.0), (3.0, 0.0)]);
        assert!((t.average_power() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn bad_duty_panics() {
        let _ = Harvester::square(1.0, 1.0, 0.0);
    }

    /// Midpoint-rule reference integrator, written independently of the
    /// closed forms.
    fn riemann(h: &Harvester, t0: f64, dt: f64, steps: usize) -> f64 {
        let step = dt / steps as f64;
        (0..steps)
            .map(|i| h.power_at(t0 + (i as f64 + 0.5) * step) * step)
            .sum()
    }

    #[test]
    fn sine_closed_form_matches_riemann_reference() {
        let h = Harvester::sine(0.003, 0.07);
        for (t0, dt) in [(0.0, 0.07), (0.013, 0.2), (0.05, 0.011), (1.23, 0.456)] {
            let exact = h.energy_over(t0, dt);
            let approx = riemann(&h, t0, dt, 200_000);
            assert!(
                (exact - approx).abs() < 1e-9,
                "[{t0}, {t0}+{dt}]: {exact} vs {approx}"
            );
        }
    }

    #[test]
    fn bursts_energy_is_exact_slotwise() {
        let h = Harvester::bursts(0.005, 0.01, 0.4, 9);
        // Sum the on-slots by hand over [0.003, 0.003 + 0.25].
        let (t0, dt) = (0.003f64, 0.25f64);
        let mut expected = 0.0;
        let mut t = t0;
        while t < t0 + dt {
            let slot_end = ((t / 0.01).floor() + 1.0) * 0.01;
            let upper = slot_end.min(t0 + dt);
            expected += h.power_at((t + upper) / 2.0) * (upper - t);
            t = upper;
        }
        let got = h.energy_over(t0, dt);
        assert!((got - expected).abs() < 1e-15, "{got} vs {expected}");
    }

    #[test]
    fn slot_memo_matches_energy_over_bit_for_bit() {
        let base = Harvester::bursts(0.002, 0.01, 0.35, 0x000F_F1CE);
        let sources = [
            base.clone(),
            base.scaled(0.37),
            base.scaled(0.0),
            base.with_seed(99),
            Harvester::bursts(1e-3, 3e-7, 0.5, 7),
            Harvester::bursts(5e-3, 0.01, 1.0, 1),
            Harvester::bursts(5e-3, 0.01, 0.0, 1),
            Harvester::constant(0.002),
            Harvester::sine(0.002, 0.2),
        ];
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let down = |x: f64| {
            if x > 0.0 {
                f64::from_bits(x.to_bits() - 1)
            } else {
                x
            }
        };
        for h in &sources {
            let slot = match *h {
                Harvester::Bursts { slot_s, .. } => slot_s,
                _ => 0.01,
            };
            // Adversarial (t, dt): exact slot edges and their neighbours,
            // zero and negative dt, sub-ulp dt, dt landing exactly on (or
            // one ulp past) the slot end, and multi-slot dt — in order,
            // through one memo, so hits and misses interleave.
            let mut cases = Vec::new();
            for k in [0u64, 1, 2, 7, 1000, 123_457] {
                let edge = k as f64 * slot;
                let next = (k + 1) as f64 * slot;
                for t in [edge, up(edge), down(next), edge + 0.5 * slot, next] {
                    for dt in [
                        0.0,
                        -1e-9,
                        1e-300,
                        f64::MIN_POSITIVE,
                        next - t,
                        up(next - t),
                        down(next - t),
                        1e-6 * slot,
                        0.5 * slot,
                        3.7 * slot,
                        40.0 * slot,
                    ] {
                        cases.push((t, dt));
                    }
                }
            }
            // Then an op-like walk: many short steps per slot.
            let mut t = 0.0;
            let mut z = 0x1234_5678_u64;
            for _ in 0..20_000 {
                z = split_mix(z);
                let dt = slot * 1e-3 * (1 + z % 400) as f64;
                cases.push((t, dt));
                t += dt;
            }
            let mut memo = SlotMemo::new(h);
            for (t, dt) in cases {
                assert_eq!(
                    memo.energy_over(h, t, dt).to_bits(),
                    h.energy_over(t, dt).to_bits(),
                    "{h}: t {t:e}, dt {dt:e}"
                );
            }
        }
    }

    #[test]
    fn time_to_energy_inverts_energy_over() {
        let waveforms = [
            Harvester::constant(0.002),
            Harvester::square(0.004, 0.05, 0.25),
            Harvester::sine(0.002, 0.2),
            Harvester::bursts(0.003, 0.01, 0.5, 7),
            Harvester::trace(vec![(0.02, 0.003), (0.08, 0.0002)]),
        ];
        for h in &waveforms {
            for (t0, joules) in [(0.0, 40e-6), (0.037, 1e-6), (2.4, 950e-6)] {
                let dt = h.time_to_energy(t0, joules);
                assert!(dt.is_finite(), "{h}: t0 {t0}, {joules} J");
                let back = h.energy_over(t0, dt);
                assert!(
                    (back - joules).abs() <= 1e-9 * joules.max(1e-12),
                    "{h}: t0 {t0}, want {joules} J got {back} J after {dt} s"
                );
            }
            assert_eq!(h.time_to_energy(0.1, 0.0), 0.0);
            assert_eq!(h.time_to_energy(0.1, -1.0), 0.0);
        }
    }

    #[test]
    fn dead_sources_never_reach_the_energy() {
        let dead = [
            Harvester::constant(0.0),
            Harvester::Square {
                watts: 0.0,
                period_s: 0.1,
                duty: 0.5,
            },
            Harvester::Sine {
                watts: 0.0,
                period_s: 0.1,
            },
            Harvester::bursts(0.002, 0.01, 0.0, 3),
            Harvester::trace(vec![(0.1, 0.0)]),
        ];
        for h in &dead {
            assert_eq!(h.time_to_energy(0.0, 1e-6), f64::INFINITY, "{h}");
        }
    }

    #[test]
    fn time_to_energy_within_caps_at_the_horizon() {
        let h = Harvester::constant(0.001);
        // 1 mJ at 1 mW takes 1 s.
        assert!((h.time_to_energy_within(0.0, 1e-3, 2.0) - 1.0).abs() < 1e-12);
        assert_eq!(h.time_to_energy_within(0.0, 1e-3, 0.5), f64::INFINITY);
        // The burst walk stops at the horizon instead of hashing on.
        let b = Harvester::bursts(0.002, 0.01, 0.3, 11);
        assert_eq!(b.time_to_energy_within(0.0, 1.0, 0.25), f64::INFINITY);
    }

    #[test]
    fn time_to_energy_is_monotone_in_the_target() {
        let h = Harvester::square(0.004, 0.05, 0.5);
        let mut last = 0.0;
        for k in 1..40 {
            let dt = h.time_to_energy(0.017, k as f64 * 13e-6);
            assert!(dt >= last, "k={k}: {dt} < {last}");
            last = dt;
        }
    }

    #[test]
    fn try_trace_rejects_malformed_segments() {
        assert_eq!(Harvester::try_trace(vec![]), Err(TraceError::Empty));
        assert_eq!(
            Harvester::try_trace(vec![(0.1, 0.001), (0.0, 0.002)]),
            Err(TraceError::BadDuration {
                index: 1,
                duration_s: 0.0
            })
        );
        assert!(matches!(
            Harvester::try_trace(vec![(f64::NAN, 0.001)]),
            Err(TraceError::BadDuration { index: 0, .. })
        ));
        assert_eq!(
            Harvester::try_trace(vec![(0.1, -0.5)]),
            Err(TraceError::BadPower {
                index: 0,
                watts: -0.5
            })
        );
        assert!(matches!(
            Harvester::try_trace(vec![(0.1, f64::INFINITY)]),
            Err(TraceError::BadPower { index: 0, .. })
        ));
        assert!(Harvester::try_trace(vec![(0.1, 0.0), (0.2, 0.003)]).is_ok());
    }

    #[test]
    fn try_trace_csv_parses_valid_logs() {
        let h = Harvester::try_trace_csv("0.1,1.0\n0.1,0.0\n").unwrap();
        assert_eq!(h, Harvester::trace(vec![(0.1, 0.001), (0.1, 0.0)]));
        // Header, comments, blank lines and padding are all tolerated.
        let padded =
            Harvester::try_trace_csv("# log\nseconds,milliwatts\n\n 0.1 , 1.0 \n0.1,0.0\n")
                .unwrap();
        assert_eq!(padded, h);
        // Scientific notation is plain f64 parsing.
        let sci = Harvester::try_trace_csv("1e-1,1e0\n1e-1,0\n").unwrap();
        assert_eq!(sci, h);
    }

    #[test]
    fn try_trace_csv_rejects_malformed_rows() {
        let line_of = |csv: &str| match Harvester::try_trace_csv(csv) {
            Err(TraceError::Csv { line, message }) => (line, message),
            other => panic!("expected a CSV error, got {other:?}"),
        };
        // Wrong column counts (header only excuses the first data row).
        assert_eq!(line_of("0.1\n").0, 1);
        assert_eq!(line_of("0.1,1.0,9\n").0, 1);
        // Non-numeric fields after data has started.
        let (line, message) = line_of("0.1,1.0\n0.1,fast\n");
        assert_eq!(line, 2);
        assert!(message.contains("fast"), "{message}");
        // Only ONE header row is forgiven: a wholly wrong-format log is
        // diagnosed at its second line, not swallowed as all-headers.
        let (line, message) = line_of("time,power\n00:00:01,3mW\n00:00:02,0mW\n");
        assert_eq!(line, 2);
        assert!(message.contains("00:00:01"), "{message}");
        // Invalid durations and powers, with comment lines still counted.
        assert_eq!(line_of("# log\n0.0,1.0\n").0, 2);
        assert_eq!(line_of("0.1,1.0\nnan,1.0\n").0, 2);
        assert_eq!(line_of("0.1,1.0\n0.1,-3.0\n").0, 2);
        assert_eq!(line_of("0.1,inf\n").0, 1);
        // A log with nothing but comments has no segments.
        assert_eq!(
            Harvester::try_trace_csv("# empty\n"),
            Err(TraceError::Empty)
        );
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_trace_panics_through_infallible_constructor() {
        let _ = Harvester::trace(vec![]);
    }

    #[test]
    fn with_seed_reseeds_only_bursts() {
        let b = Harvester::bursts(0.005, 0.01, 0.3, 1);
        let reseeded = b.with_seed(2);
        assert_eq!(reseeded, Harvester::bursts(0.005, 0.01, 0.3, 2));
        assert_ne!(b, reseeded);
        let sq = Harvester::square(0.004, 0.05, 0.5);
        assert_eq!(sq.with_seed(99), sq);
    }

    #[test]
    fn scaled_multiplies_power_and_preserves_shape() {
        let waveforms = [
            Harvester::constant(0.002),
            Harvester::square(0.004, 0.05, 0.25),
            Harvester::sine(0.002, 0.2),
            Harvester::bursts(0.003, 0.01, 0.5, 7),
            Harvester::trace(vec![(0.02, 0.003), (0.08, 0.0002)]),
        ];
        for h in &waveforms {
            let half = h.scaled(0.5);
            for t in [0.0, 0.013, 0.11, 2.7] {
                assert_eq!(half.power_at(t), h.power_at(t) * 0.5, "{h} at t={t}");
            }
            // Scaling by exactly one is the identity, bit for bit.
            assert_eq!(h.scaled(1.0), *h, "{h}");
            // The dead scale yields a dead source.
            assert_eq!(h.scaled(0.0).average_power(), 0.0, "{h}");
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn scaled_rejects_negative_factors() {
        let _ = Harvester::constant(0.002).scaled(-1.0);
    }

    #[test]
    fn display_names_waveforms() {
        assert!(Harvester::constant(0.002).to_string().contains("constant"));
        assert!(Harvester::square(0.004, 0.05, 0.5)
            .to_string()
            .contains("square"));
    }
}
