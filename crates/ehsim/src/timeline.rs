//! Run-to-event timelines: the executor's interaction points, captured
//! through the probe layer for discrete-event composition.
//!
//! A networked world simulator needs to know *when a device is awake*
//! and *when its results complete* — but it must not re-implement (or
//! even perturb) the intermittent executor. The executor already
//! advances each device between interaction points analytically: every
//! dark recharge phase is solved in closed form and surfaced as a
//! [`DarkSkip`](ExecEvent::DarkSkip) span, and the run's end arrives as
//! [`RunEnd`](ExecEvent::RunEnd). A [`TimelineRecorder`] is an ordinary
//! [`ExecProbe`] that collects exactly those events into a
//! [`RunTimeline`]: the device's availability as a function of sim
//! time, byte-for-byte faithful to the run that produced it (probes are
//! pure observers — attaching one never changes the run).
//!
//! The world scheduler (crate `ehdl-netsim`) then *walks* timelines
//! instead of stepping devices: it advances straight from one
//! interaction point (a gateway poll, a wake boundary) to the next,
//! reusing `ExecutionPlan`s and `ExecProbe` events unchanged.

use crate::executor::RunOutcome;
use crate::probe::{ExecEvent, ExecPhase, ExecProbe};

/// One run's availability timeline: the dark (asleep) intervals and the
/// run's end, in simulated seconds since the run booted.
///
/// Dark intervals are non-overlapping and sorted (the executor emits
/// them in run order). Time outside every dark interval — including
/// `t >= end_t`, when the device idles with its finished result — is
/// *awake*: the device can answer a gateway poll.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTimeline {
    dark: Vec<(f64, f64)>,
    end_t: f64,
    outcome: Option<RunOutcome>,
}

impl RunTimeline {
    /// The dark (recharging, unresponsive) intervals, sorted by start.
    pub fn dark_intervals(&self) -> &[(f64, f64)] {
        &self.dark
    }

    /// Total simulated seconds the run covered.
    pub fn end_t(&self) -> f64 {
        self.end_t
    }

    /// How the run ended, or `None` if no `RunEnd` event was seen
    /// (a truncated recording).
    pub fn outcome(&self) -> Option<RunOutcome> {
        self.outcome
    }

    /// `true` when the run delivered a result
    /// ([`RunOutcome::Completed`]).
    pub fn completed(&self) -> bool {
        self.outcome == Some(RunOutcome::Completed)
    }

    /// Total seconds spent dark.
    pub fn dark_seconds(&self) -> f64 {
        self.dark.iter().map(|&(t0, t1)| t1 - t0).sum()
    }

    /// Is the device awake (able to answer a poll) at sim time `t`?
    ///
    /// Binary search over the sorted dark intervals; interval bounds
    /// are half-open `[t0, t1)` so a device polled at the exact instant
    /// it re-boots counts as awake.
    pub fn awake_at(&self, t: f64) -> bool {
        let idx = self.dark.partition_point(|&(t0, _)| t0 <= t);
        if idx == 0 {
            return true;
        }
        let (_, t1) = self.dark[idx - 1];
        t >= t1
    }
}

/// An [`ExecProbe`] that records a [`RunTimeline`]: dark spans and the
/// run end, nothing else. Untimed, so attaching it never reads the OS
/// clock; pure observer, so the run it watches is bit-identical to an
/// unprobed one.
///
/// One recorder serves many runs: [`TimelineRecorder::take`] hands out
/// the finished timeline and resets the recorder for the next run.
#[derive(Debug, Clone, Default)]
pub struct TimelineRecorder {
    dark: Vec<(f64, f64)>,
    end_t: f64,
    outcome: Option<RunOutcome>,
}

impl TimelineRecorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the recorded timeline, resetting the recorder for the next
    /// run. The dark-interval buffer's capacity is recycled.
    pub fn take(&mut self) -> RunTimeline {
        let timeline = RunTimeline {
            dark: self.dark.clone(),
            end_t: self.end_t,
            outcome: self.outcome.take(),
        };
        self.dark.clear();
        self.end_t = 0.0;
        timeline
    }
}

impl ExecProbe for TimelineRecorder {
    const ENABLED: bool = true;
    const TIMED: bool = false;

    #[inline]
    fn event(&mut self, event: ExecEvent) {
        match event {
            ExecEvent::DarkSkip { t0, t1, .. } if t1 > t0 => {
                self.dark.push((t0, t1));
            }
            ExecEvent::RunEnd { t, outcome } => {
                self.end_t = t;
                self.outcome = Some(outcome);
            }
            _ => {}
        }
    }

    #[inline(always)]
    fn span(&mut self, _phase: ExecPhase, _seconds: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunTimeline {
        let mut rec = TimelineRecorder::new();
        rec.event(ExecEvent::Boot { t: 0.0 });
        rec.event(ExecEvent::DarkSkip {
            t0: 0.1,
            t1: 0.3,
            joules: 1e-4,
        });
        rec.event(ExecEvent::CheckpointCommit { t: 0.35, slot: 1 });
        rec.event(ExecEvent::DarkSkip {
            t0: 0.5,
            t1: 0.9,
            joules: 2e-4,
        });
        rec.event(ExecEvent::RunEnd {
            t: 1.0,
            outcome: RunOutcome::Completed,
        });
        rec.take()
    }

    #[test]
    fn recorder_collects_dark_spans_and_the_end() {
        let tl = sample();
        assert_eq!(tl.dark_intervals(), &[(0.1, 0.3), (0.5, 0.9)]);
        assert_eq!(tl.end_t(), 1.0);
        assert!(tl.completed());
        assert!((tl.dark_seconds() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn awake_at_honors_half_open_intervals() {
        let tl = sample();
        assert!(tl.awake_at(0.0));
        assert!(tl.awake_at(0.05));
        assert!(!tl.awake_at(0.1)); // dark starts
        assert!(!tl.awake_at(0.2));
        assert!(tl.awake_at(0.3)); // reboot instant counts as awake
        assert!(tl.awake_at(0.4));
        assert!(!tl.awake_at(0.6));
        assert!(tl.awake_at(0.95));
        assert!(tl.awake_at(2.0)); // idling past the end
    }

    #[test]
    fn take_resets_the_recorder() {
        let mut rec = TimelineRecorder::new();
        rec.event(ExecEvent::DarkSkip {
            t0: 0.0,
            t1: 0.5,
            joules: 1e-5,
        });
        rec.event(ExecEvent::RunEnd {
            t: 0.75,
            outcome: RunOutcome::EnergyLimit,
        });
        let first = rec.take();
        assert_eq!(first.outcome(), Some(RunOutcome::EnergyLimit));
        assert!(!first.completed());
        let second = rec.take();
        assert!(second.dark_intervals().is_empty());
        assert_eq!(second.end_t(), 0.0);
        assert_eq!(second.outcome(), None);
        assert!(second.awake_at(0.1));
    }

    #[test]
    fn zero_length_dark_spans_are_dropped() {
        let mut rec = TimelineRecorder::new();
        rec.event(ExecEvent::DarkSkip {
            t0: 0.5,
            t1: 0.5,
            joules: 0.0,
        });
        assert!(rec.take().dark_intervals().is_empty());
    }
}
