//! A timing sink: the fleet's `DigestSink` plus what the digest does not
//! keep — per-scenario host latency, when the first scenario opened, and
//! exact (unsketched) modelled latencies and staleness.

use ehdl_fleet::{DigestSink, FleetDigest, MetricsSink, RunRecord, Scenario, SloOutcome};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What one sweep through a [`TimedSink`] leaves behind.
pub struct Sweep {
    pub digest: FleetDigest,
    /// The earliest `MetricsSink::open` of the sweep.
    pub first_open: Option<Instant>,
    /// Host time per scenario, from `open` to its in-order `merge`, in ms.
    pub scenario_ms: Vec<f64>,
    /// Modelled latency of every completed run, in ms, exact.
    pub sim_latency_ms: Vec<f64>,
    /// Modelled staleness of every served gateway poll, in s, exact.
    pub staleness_s: Vec<f64>,
}

#[derive(Default)]
pub struct TimedSink {
    digest: DigestSink,
    first_open: Option<Instant>,
    scenario_ms: Vec<f64>,
    sim_latency_ms: Vec<f64>,
    staleness_s: Vec<f64>,
}

pub struct Partial {
    opened: Instant,
    digest: FleetDigest,
    sim_latency_ms: Vec<f64>,
    staleness_s: Vec<f64>,
}

impl MetricsSink for TimedSink {
    type Partial = Partial;
    type Report = Sweep;

    fn open(&self, scenario: &Scenario, accuracy: f64) -> Partial {
        Partial {
            opened: Instant::now(),
            digest: self.digest.open(scenario, accuracy),
            sim_latency_ms: Vec::new(),
            staleness_s: Vec::new(),
        }
    }

    fn fold(partial: &mut Partial, record: &RunRecord<'_>) {
        DigestSink::fold(&mut partial.digest, record);
        if let Some(ms) = record.latency_ms() {
            partial.sim_latency_ms.push(ms);
        }
    }

    fn fold_slo(partial: &mut Partial, outcome: &SloOutcome) {
        DigestSink::fold_slo(&mut partial.digest, outcome);
        partial.staleness_s.extend_from_slice(&outcome.staleness_s);
    }

    fn merge(&mut self, partial: Partial) -> Result<(), ehdl::Error> {
        self.scenario_ms
            .push(partial.opened.elapsed().as_secs_f64() * 1e3);
        self.first_open = Some(
            self.first_open
                .map_or(partial.opened, |t| t.min(partial.opened)),
        );
        self.sim_latency_ms.extend(partial.sim_latency_ms);
        self.staleness_s.extend(partial.staleness_s);
        self.digest.merge(partial.digest)
    }

    fn finish(self) -> Result<Sweep, ehdl::Error> {
        Ok(Sweep {
            digest: self.digest.finish()?,
            first_open: self.first_open,
            scenario_ms: self.scenario_ms,
            sim_latency_ms: self.sim_latency_ms,
            staleness_s: self.staleness_s,
        })
    }
}

/// A sink that records when the sweep first opened a scenario, then
/// stops the sweep at its first merge: a set-up measurement that costs a
/// scenario or two instead of a whole sweep.
pub struct SetupProbe(pub Arc<OnceLock<Instant>>);

impl SetupProbe {
    /// The error `merge` stops the sweep with.
    pub const STOP: &'static str = "setup probe: stop after the first scenario";
}

impl MetricsSink for SetupProbe {
    type Partial = ();
    type Report = ();

    fn open(&self, _scenario: &Scenario, _accuracy: f64) {
        self.0.get_or_init(Instant::now);
    }

    fn fold(_partial: &mut (), _record: &RunRecord<'_>) {}

    fn merge(&mut self, _partial: ()) -> Result<(), ehdl::Error> {
        Err(std::io::Error::other(Self::STOP).into())
    }

    fn finish(self) -> Result<(), ehdl::Error> {
        Ok(())
    }
}
