//! The benchmark's metric catalogue and its results format.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; a unit test keeps the two in step.

use ehdl_fleet::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// A modelled device statistic: repeats exactly for a given seed.
    pub modelled: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        modelled: false,
    }
}

const fn modelled(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        modelled: true,
        ..host(name, unit, better, bound)
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        modelled: false,
    }
}

use Better::{Higher, Lower};

/// Printed by untraced runs. Host metrics time the simulator; modelled
/// metrics are device statistics of the same sweeps.
///
/// Host timings get the widest bound: on a shared two-core machine the
/// whole machine's speed drifts by up to 15% over minutes. The modelled
/// median latency of `fault_storm` is a sample median of a few hundred
/// stochastic runs and moves by up to a fifth between seeds.
pub const END_TO_END: &[Metric] = &[
    host("setup_s", "s", Lower, 0.25),
    host("runs_per_s", "1/s", Higher, 0.25),
    host("scenario_p50_ms", "ms", Lower, 0.25),
    host("peak_rss_mb", "MB", Lower, 0.1),
    modelled("completed_frac", "frac", Higher, 0.05),
    modelled("sim_latency_p50_s", "s", Lower, 0.25),
    modelled("sim_latency_p99_s", "s", Lower, 0.1),
    modelled("sim_energy_mj_per_run", "mJ", Lower, 0.15),
];

/// Printed by traced runs: one count and one busy (self) time per layer
/// boundary, plus waste ratios; 0 where a layer does not run.
pub const PER_LAYER: &[Metric] = &[
    layer("datasets.builds", "count", Lower),
    layer("datasets.busy_s", "s", Lower),
    layer("nn.model_builds", "count", Lower),
    layer("nn.busy_s", "s", Lower),
    layer("compress.calibrations", "count", Lower),
    layer("compress.busy_s", "s", Lower),
    layer("compress.distinct_ratio", "frac", Higher),
    layer("ace.quantizations", "count", Lower),
    layer("ace.quantize_busy_s", "s", Lower),
    layer("ace.compiles", "count", Lower),
    layer("ace.compile_busy_s", "s", Lower),
    layer("core.accuracy_evals", "count", Lower),
    layer("core.accuracy_busy_s", "s", Lower),
    layer("flex.lowerings", "count", Lower),
    layer("flex.lower_busy_s", "s", Lower),
    layer("ehsim.plan_compiles", "count", Lower),
    layer("ehsim.plan_busy_s", "s", Lower),
    layer("ehsim.live_runs", "count", Lower),
    layer("ehsim.live_busy_s", "s", Lower),
    layer("ehsim.replays", "count", Higher),
    layer("ehsim.replay_busy_s", "s", Lower),
    layer("ehsim.charge_solves", "count", Lower),
    layer("ehsim.charge_solve_busy_s", "s", Lower),
    layer("ehsim.checkpoint_restores", "count", Lower),
    layer("ehsim.checkpoint_restore_busy_s", "s", Lower),
    layer("ehsim.executed_ops", "count", Lower),
    layer("ehsim.host_ns_per_op", "ns/op", Lower),
    layer("ehsim.sim_s_per_host_s", "s/s", Higher),
    layer("ehsim.wasted_op_frac", "frac", Lower),
    layer("ehsim.outages", "count", Lower),
    layer("ehsim.restores", "count", Lower),
    layer("ehsim.faults_injected", "count", Lower),
    layer("ehsim.flips_repaired", "count", Higher),
    layer("ehsim.silent_corruptions", "count", Lower),
    layer("fleet.deploy_cache_misses", "count", Lower),
    layer("fleet.plan_cache_misses", "count", Lower),
    layer("fleet.trace_cache_misses", "count", Lower),
    layer("fleet.trace_cache_evictions", "count", Lower),
    layer("fleet.trace_hit_frac", "frac", Higher),
    layer("fleet.parallel_efficiency", "frac", Higher),
    layer("fleet.unattributed_s", "s", Lower),
    layer("fleet.trace_overhead_frac", "frac", Lower),
    layer("fleet.sink_folds", "count", Lower),
    layer("fleet.sink_fold_busy_s", "s", Lower),
    layer("fleet.sink_merges", "count", Lower),
    layer("fleet.sink_merge_busy_s", "s", Lower),
    layer("fleet.wire_bytes", "bytes", Lower),
    layer("fleet.wire_encode_busy_s", "s", Lower),
    layer("fleet.wire_parse_busy_s", "s", Lower),
    layer("shard.shards", "count", Lower),
    layer("shard.retries", "count", Lower),
    layer("shard.failed", "count", Lower),
    layer("shard.partial_bytes", "bytes", Lower),
    layer("shard.overhead_ratio", "ratio", Lower),
    layer("netsim.worlds", "count", Higher),
    layer("netsim.devices", "count", Higher),
    layer("netsim.field_busy_s", "s", Lower),
    layer("netsim.resolve_busy_s", "s", Lower),
    layer("netsim.polls", "count", Higher),
    layer("netsim.starved_devices", "count", Lower),
    layer("netsim.served_frac", "frac", Higher),
    layer("netsim.staleness_p99_s", "s", Lower),
];

/// The catalogue entry named `name`, searching both lists.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// `true` when `name` is a valid metric name: a letter or digit first,
/// then at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

// ------------------------------------------------------------ JSON out

/// A JSON number for a finite float, with all its digits.
pub fn num(value: f64) -> Json {
    assert!(value.is_finite(), "metric values are finite");
    Json::Num(format!("{value}"))
}

pub fn int(value: u64) -> Json {
    Json::Num(value.to_string())
}

pub fn string(value: &str) -> Json {
    Json::Str(value.to_string())
}

pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Renders a JSON value on one line.
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    write_json(&mut out, value);
    out
}

fn write_json(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(raw) => out.push_str(raw),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_json(out, item);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(out, key);
                out.push_str(": ");
                write_json(out, item);
            }
            out.push('}');
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The result object the benchmark prints last:
/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
pub fn result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> Json {
    let metrics = metrics
        .iter()
        .map(|&(name, value)| {
            assert!(valid_name(name), "metric name {name:?}");
            let unit = lookup(name).map_or("", |m| m.unit);
            (
                name.to_string(),
                obj(vec![("value", num(value)), ("unit", string(unit))]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn results_round_trip_through_the_fleet_json_parser() {
        let value = result(
            true,
            1234,
            0,
            &[
                ("setup_s", 0.012_345_678_901_234_5),
                ("runs_per_s", 98_765.432_1),
                ("sim_latency_p50_s", 1e-7),
            ],
        );
        let text = render(&value);
        let back = Json::parse(&text).expect("the results line parses");
        assert_eq!(back, value);
        let setup = back.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(
            setup.get("value").and_then(Json::as_f64),
            Some(0.012_345_678_901_234_5)
        );
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        let tricky = obj(vec![("rev", string("a\"b\\c\nd\u{1}"))]);
        assert_eq!(Json::parse(&render(&tricky)).unwrap(), tricky);
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text.trim()).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (entry, metric) in listed.iter().zip(catalogue) {
                let field = |f: &str| entry.get(f).and_then(Json::as_str);
                assert_eq!(field("name"), Some(metric.name));
                assert_eq!(field("unit"), Some(metric.unit), "{}", metric.name);
                assert_eq!(
                    field("better"),
                    Some(metric.better.name()),
                    "{}",
                    metric.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    metric.bound,
                    "{}",
                    metric.name
                );
            }
        }
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }
}
