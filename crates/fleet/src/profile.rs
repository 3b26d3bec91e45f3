//! Phase profiling for fleet sweeps: where the wall-clock time goes
//! (charge solving, plan execution, checkpoint/restore, trace replay,
//! sink folding) and how well the runner's caches work (plan, trace,
//! deployment hit/miss/size counters — the evidence the ROADMAP's cache
//! eviction follow-on needs).
//!
//! A [`PhaseProfile`] is an [`ExecProbe`] with
//! [`TIMED`](ExecProbe::TIMED) `= true`: handed to a probed executor
//! run it collects charge-solve and checkpoint/restore spans from
//! inside the hot loop, while the fleet runner adds the spans only it
//! can see (whole plan executions, trace replays, sink folds) plus the
//! cache counters. Spans aggregate into mergeable [`StatsDigest`]s, so
//! per-worker and per-shard profiles combine like the fleet's metric
//! sinks: merging chunks in stream order reassembles every span count,
//! histogram bin, min/max and cache counter exactly, and the merge is a
//! pure function — the same parts in the same order always reproduce
//! the same bits (float *sums* reassociate across chunk boundaries, so
//! they agree with an unchunked accumulation to rounding).
//!
//! Profiles are a **side channel**: wall-clock timings are
//! machine-dependent, so they never enter a [`FleetDigest`]
//! (crate::FleetDigest) or any other sink — those stay bit-identical
//! with profiling on or off. What *is* deterministic: every span/lookup
//! **count** at one worker, and cache `hits + misses` totals at any
//! worker count (the trace hit/miss *split* can shift when racing
//! workers both record the same trajectory).

use crate::digest::StatsDigest;
use core::fmt;
use ehdl::ehsim::{ExecEvent, ExecPhase, ExecProbe};

/// Hit/miss/size counters for one runner cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups served by an existing entry.
    pub hits: u64,
    /// Lookups that had to build the entry.
    pub misses: u64,
    /// Entries resident at the end of the sweep.
    pub entries: u64,
    /// Entries evicted to stay under the cache's capacity bound — a
    /// nonzero count means later lookups rebuilt evicted state, so a
    /// larger [`cache_entries`](crate::FleetBuilder::cache_entries) cap
    /// would trade memory for fewer rebuilds.
    pub evictions: u64,
}

impl CacheCounters {
    /// Total lookups (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from cache (0 when never consulted).
    pub fn hit_rate(&self) -> f64 {
        match self.lookups() {
            0 => 0.0,
            n => self.hits as f64 / n as f64,
        }
    }

    /// Counts one lookup as a hit or a miss.
    pub(crate) fn count(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Adds `other`'s counters.
    pub fn merge(&mut self, other: &CacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries += other.entries;
        self.evictions += other.evictions;
    }
}

/// The fleet runner's three caches.
///
/// Lookup granularity differs per cache and is part of the contract:
/// the **deployment** and **plan** caches are each consulted once per
/// scenario, and the **trace** cache once per run of a
/// deterministic-environment scenario. Misses stay deterministic at any
/// worker count (both caches build under their lock); with a tight
/// [`cache_entries`](crate::FleetBuilder::cache_entries) cap, evicted
/// built models miss again on their next lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Compiled [`ExecutionPlan`](ehdl::ehsim::ExecutionPlan)s, keyed
    /// by (workload, board, strategy, integrity scheme); append-only,
    /// so never evicted.
    pub plan: CacheCounters,
    /// Recorded [`RunTrace`](ehdl::ehsim::RunTrace)s, keyed by
    /// (plan, environment, budget, fault schedule).
    pub trace: CacheCounters,
    /// Built [`Deployment`](ehdl::Deployment)s, keyed by
    /// (workload, seed): one calibrated, quantized and ACE-compiled
    /// model, [`retarget`](ehdl::Deployment::retarget)ed to each
    /// scenario's board and strategy.
    pub deployment: CacheCounters,
}

impl CacheStats {
    /// Adds `other`'s counters, cache by cache.
    pub fn merge(&mut self, other: &CacheStats) {
        self.plan.merge(&other.plan);
        self.trace.merge(&other.trace);
        self.deployment.merge(&other.deployment);
    }
}

/// Wall-clock phase spans (as [`StatsDigest`]s of seconds) plus cache
/// counters for one sweep, worker or shard. See the module docs for
/// the merge and determinism contract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseProfile {
    /// Dark-phase charge solves (from inside the executor).
    pub charge_solve_s: StatsDigest,
    /// Whole live plan (or reference-interpreter) executions.
    pub plan_exec_s: StatsDigest,
    /// On-demand checkpoints and post-outage restores (from inside the
    /// executor).
    pub checkpoint_restore_s: StatsDigest,
    /// Recorded-trace replays.
    pub trace_replay_s: StatsDigest,
    /// Per-record metric-sink folds and in-order merges.
    pub sink_fold_s: StatsDigest,
    /// Plan / trace / deployment cache counters.
    pub caches: CacheStats,
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one wall-clock span into the phase's digest.
    pub fn record(&mut self, phase: ExecPhase, seconds: f64) {
        self.digest_mut(phase).record(seconds);
    }

    /// The span digest for one phase.
    pub fn digest(&self, phase: ExecPhase) -> &StatsDigest {
        match phase {
            ExecPhase::ChargeSolve => &self.charge_solve_s,
            ExecPhase::PlanExec => &self.plan_exec_s,
            ExecPhase::CheckpointRestore => &self.checkpoint_restore_s,
            ExecPhase::TraceReplay => &self.trace_replay_s,
            ExecPhase::SinkFold => &self.sink_fold_s,
        }
    }

    /// Replaces one phase's digest wholesale (wire deserialization).
    pub(crate) fn digest_replace(&mut self, phase: ExecPhase, digest: StatsDigest) {
        *self.digest_mut(phase) = digest;
    }

    fn digest_mut(&mut self, phase: ExecPhase) -> &mut StatsDigest {
        match phase {
            ExecPhase::ChargeSolve => &mut self.charge_solve_s,
            ExecPhase::PlanExec => &mut self.plan_exec_s,
            ExecPhase::CheckpointRestore => &mut self.checkpoint_restore_s,
            ExecPhase::TraceReplay => &mut self.trace_replay_s,
            ExecPhase::SinkFold => &mut self.sink_fold_s,
        }
    }

    /// Merges `other` into `self`, phase by phase in [`ExecPhase::ALL`]
    /// order then caches. A pure function: merging the same parts in
    /// the same order always reproduces the same bits, and every span
    /// count, histogram bin, min/max and cache counter reassembles
    /// exactly (sums reassociate; see [`StatsDigest::merge`]).
    pub fn merge(&mut self, other: &PhaseProfile) {
        for phase in ExecPhase::ALL {
            let theirs = other.digest(phase).clone();
            self.digest_mut(phase).merge(&theirs);
        }
        self.caches.merge(&other.caches);
    }

    /// Total profiled wall-clock seconds across every phase.
    pub fn total_seconds(&self) -> f64 {
        ExecPhase::ALL
            .iter()
            .map(|&phase| self.digest(phase).sum())
            .sum()
    }

    /// Serializes the profile as one canonical JSON object (floats as
    /// bit-exact hex, like every fleet wire format).
    pub fn to_json(&self) -> String {
        crate::wire::profile_json(self)
    }

    /// Rebuilds a profile from [`to_json`](Self::to_json)'s output —
    /// bit-identical, digests included.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(text: &str) -> Result<PhaseProfile, String> {
        crate::wire::profile_from_json(text)
    }
}

impl ExecProbe for PhaseProfile {
    // Events are ignored, so let the executor skip computing their
    // payloads; spans are what a profile consumes.
    const ENABLED: bool = false;
    const TIMED: bool = true;

    #[inline(always)]
    fn event(&mut self, _event: ExecEvent) {}

    #[inline]
    fn span(&mut self, phase: ExecPhase, seconds: f64) {
        self.record(phase, seconds);
    }
}

impl fmt::Display for PhaseProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total_seconds();
        writeln!(f, "phase profile ({total:.3} s profiled):")?;
        for phase in ExecPhase::ALL {
            let d = self.digest(phase);
            let share = if total > 0.0 {
                d.sum() / total * 100.0
            } else {
                0.0
            };
            writeln!(
                f,
                "  {:<18} {:>10.4} s ({:5.1}%) over {} spans",
                phase.name(),
                d.sum(),
                share,
                d.count()
            )?;
        }
        for (name, c) in [
            ("plan", &self.caches.plan),
            ("trace", &self.caches.trace),
            ("deployment", &self.caches.deployment),
        ] {
            writeln!(
                f,
                "  {:<18} cache: {} hits / {} misses ({:.1}% hit), {} entries, {} evictions",
                name,
                c.hits,
                c.misses,
                c.hit_rate() * 100.0,
                c.entries,
                c.evictions
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_fold_into_the_right_phase() {
        let mut p = PhaseProfile::new();
        p.span(ExecPhase::ChargeSolve, 0.5);
        p.span(ExecPhase::ChargeSolve, 0.25);
        p.record(ExecPhase::SinkFold, 1.0);
        assert_eq!(p.charge_solve_s.count(), 2);
        assert_eq!(p.charge_solve_s.sum(), 0.75);
        assert_eq!(p.sink_fold_s.count(), 1);
        assert_eq!(p.plan_exec_s.count(), 0);
        assert_eq!(p.total_seconds(), 1.75);
    }

    #[test]
    fn chunked_merge_in_stream_order_survives_sharding() {
        // The shard-merge contract: per-chunk profiles of a span
        // stream, merged in stream order, reassemble every piece of
        // integer state (span counts, histogram bins, cache counters)
        // and min/max exactly; float sums reassociate, so they agree to
        // rounding. And the merge itself is a pure function — repeating
        // it over the same parts (even round-tripped through the wire)
        // is bit-identical, which is what a resumed shard merge relies
        // on.
        let spans: Vec<(ExecPhase, f64)> = (0..500)
            .map(|i| {
                let phase = ExecPhase::ALL[i % ExecPhase::ALL.len()];
                (phase, 1e-4 * (i as f64 + 0.3) * (1.0 + (i % 7) as f64))
            })
            .collect();
        let mut whole = PhaseProfile::new();
        for &(phase, s) in &spans {
            whole.record(phase, s);
        }
        for chunk_size in [1usize, 7, 100, 500] {
            let parts: Vec<PhaseProfile> = spans
                .chunks(chunk_size)
                .map(|chunk| {
                    let mut part = PhaseProfile::new();
                    for &(phase, s) in chunk {
                        part.record(phase, s);
                    }
                    part
                })
                .collect();
            let mut merged = PhaseProfile::new();
            for part in &parts {
                merged.merge(part);
            }
            for phase in ExecPhase::ALL {
                let (m, w) = (merged.digest(phase), whole.digest(phase));
                assert_eq!(m.count(), w.count(), "chunk size {chunk_size}");
                assert_eq!(m.min(), w.min(), "chunk size {chunk_size}");
                assert_eq!(m.max(), w.max(), "chunk size {chunk_size}");
                assert!(
                    (m.sum() - w.sum()).abs() <= 1e-12 * w.sum(),
                    "chunk size {chunk_size}: {} vs {}",
                    m.sum(),
                    w.sum()
                );
            }
            // Single-span chunks preserve the exact left-to-right
            // addition order, so they are bit-identical outright.
            if chunk_size == 1 {
                assert_eq!(merged, whole);
            }
            // Re-merging the same parts — straight or through the wire
            // format — reproduces the merge bit for bit.
            let mut again = PhaseProfile::new();
            for part in &parts {
                let wired = PhaseProfile::from_json(&part.to_json()).unwrap();
                again.merge(&wired);
            }
            assert_eq!(again, merged, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn cache_counters_summarize() {
        let c = CacheCounters {
            hits: 3,
            misses: 1,
            entries: 1,
            evictions: 0,
        };
        assert_eq!(c.lookups(), 4);
        assert_eq!(c.hit_rate(), 0.75);
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
        let mut a = c;
        a.merge(&c);
        assert_eq!(a.lookups(), 8);
    }

    #[test]
    fn json_round_trip_is_bit_identical() {
        let mut p = PhaseProfile::new();
        for i in 0..50 {
            p.record(ExecPhase::ALL[i % 5], 1e-5 * (i as f64 + 0.123_456_789));
        }
        p.caches.plan = CacheCounters {
            hits: 10,
            misses: 2,
            entries: 2,
            evictions: 0,
        };
        p.caches.deployment = CacheCounters {
            hits: 90,
            misses: 6,
            entries: 6,
            evictions: 3,
        };
        let json = p.to_json();
        let back = PhaseProfile::from_json(&json).unwrap();
        assert_eq!(back, p);
        // Canonical: re-serialization is byte-identical.
        assert_eq!(back.to_json(), json);
        assert!(PhaseProfile::from_json("{\"phases\":{}}").is_err());
        // The empty profile round-trips too.
        let empty = PhaseProfile::new();
        assert_eq!(PhaseProfile::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn display_lists_every_phase_and_cache() {
        let mut p = PhaseProfile::new();
        p.record(ExecPhase::PlanExec, 2.0);
        let s = p.to_string();
        for phase in ExecPhase::ALL {
            assert!(s.contains(phase.name()), "{s}");
        }
        assert!(s.contains("deployment"), "{s}");
    }
}
