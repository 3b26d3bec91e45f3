//! # ehdl-bench — the experiment harness
//!
//! One binary per table/figure of the paper (indexed in the table
//! below) plus [`micro`] wall-clock microbenches for the hot kernels
//! (`cargo bench` — self-contained, no external harness). The binaries
//! print the same rows/series the paper reports, with the paper's
//! numbers alongside for comparison.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1_bcm_compression` | Table I |
//! | `table2_models` | Table II |
//! | `fig7a_continuous` | Figure 7(a) |
//! | `fig7b_intermittent` | Figure 7(b) |
//! | `fig7c_energy` | Figure 7(c) |
//! | `fig8_fc_blocksize` | Figure 8(a,b) |
//! | `checkpoint_overhead` | §IV-A.5 |
//! | `fig6_rollback_demo` | Figure 6 (mechanism) |
//! | `fleet_sweep` | beyond the paper: scenario-matrix sweep scaling |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;

use ehdl::datasets::Dataset;
use ehdl::nn::{Model, Tensor};

/// Prints a separator header for a report section.
pub fn section(title: &str) {
    println!("\n==== {title} ====");
}

/// Formats a reproduced-vs-paper factor pair.
pub fn vs_paper(label: &str, measured: f64, paper: f64) -> String {
    format!("{label}: measured {measured:.2}x (paper {paper:.1}x)")
}

/// Training pairs from a dataset.
pub fn pairs_of(data: &Dataset) -> Vec<(Tensor, usize)> {
    data.samples()
        .iter()
        .map(|s| (s.input.clone(), s.label))
        .collect()
}

/// The three Table II models with their synthetic datasets and the
/// paper's reported accuracies.
pub fn workloads(n: usize, seed: u64) -> Vec<(Model, Dataset, f64)> {
    vec![
        (ehdl::nn::zoo::mnist(), ehdl::datasets::mnist(n, seed), 0.99),
        (ehdl::nn::zoo::har(), ehdl::datasets::har(n, seed), 0.89),
        (ehdl::nn::zoo::okg(), ehdl::datasets::okg(n, seed), 0.82),
    ]
}

/// `--quick` flag helper for CI-friendly runs.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Inserts or replaces one named datapoint in a machine-readable bench
/// file shaped `{"name": { ... }, ...}` (e.g. `BENCH_fleet.json`), so
/// independent bench binaries can each own an entry without clobbering
/// the others. `body` is the entry's JSON object text; existing entries
/// are kept in order and an unparseable file is started fresh.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be written.
pub fn upsert_bench_json(path: &str, name: &str, body: &str) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut entries = parse_bench_entries(&existing);
    let body = body.trim().to_string();
    match entries.iter_mut().find(|(k, _)| k == name) {
        Some((_, v)) => *v = body,
        None => entries.push((name.to_string(), body)),
    }
    let mut out = String::from("{\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        out.push_str(&format!("  \"{key}\": "));
        // Re-indent the (flat) entry body under its key, normalizing
        // whatever indentation it arrived with.
        let lines: Vec<&str> = value.lines().map(str::trim).collect();
        for (j, line) in lines.iter().enumerate() {
            match j {
                0 => {}
                j if j + 1 == lines.len() => out.push_str("  "),
                _ => out.push_str("    "),
            }
            out.push_str(line);
            out.push('\n');
        }
        out.pop();
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    std::fs::write(path, out)
}

/// Parses the top-level `"name": { ... }` entries of a bench file.
/// Returns an empty list on any shape mismatch (including the legacy
/// single-object layout), which makes the caller start fresh.
fn parse_bench_entries(text: &str) -> Vec<(String, String)> {
    let mut entries = Vec::new();
    let body = text.trim();
    let Some(body) = body.strip_prefix('{').and_then(|b| b.strip_suffix('}')) else {
        return entries;
    };
    let mut rest = body.trim();
    while !rest.is_empty() {
        // "key"
        let Some(after_quote) = rest.strip_prefix('"') else {
            return Vec::new();
        };
        let Some(quote_end) = after_quote.find('"') else {
            return Vec::new();
        };
        let key = &after_quote[..quote_end];
        let Some(after_colon) = after_quote[quote_end + 1..].trim_start().strip_prefix(':') else {
            return Vec::new();
        };
        // { balanced object } — our bench values hold no braces inside
        // strings, so plain depth counting suffices.
        let value = after_colon.trim_start();
        if !value.starts_with('{') {
            return Vec::new();
        }
        let mut depth = 0usize;
        let mut end = None;
        for (i, c) in value.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(end) = end else {
            return Vec::new();
        };
        entries.push((key.to_string(), value[..=end].to_string()));
        rest = value[end + 1..]
            .trim_start()
            .trim_start_matches(',')
            .trim_start();
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_cover_three_tasks() {
        let w = workloads(6, 1);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].1.classes(), 10);
        assert_eq!(w[1].1.classes(), 6);
        assert_eq!(w[2].1.classes(), 12);
    }

    #[test]
    fn vs_paper_formats() {
        let s = vs_paper("speedup", 3.9, 4.0);
        assert!(s.contains("3.90x") && s.contains("4.0x"));
    }

    #[test]
    fn pairs_match_dataset_len() {
        let d = ehdl::datasets::har(10, 2);
        assert_eq!(pairs_of(&d).len(), 10);
    }

    #[test]
    fn bench_entries_round_trip() {
        let text = "{\n  \"a\": {\n    \"x\": 1\n  },\n  \"b\": {\"y\": 2.5}\n}\n";
        let entries = parse_bench_entries(text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "a");
        assert!(entries[1].1.contains("2.5"));
        // Legacy flat layouts (non-object values) start fresh.
        assert!(parse_bench_entries("{\n  \"bench\": \"exec_plan\"\n}").is_empty());
        assert!(parse_bench_entries("not json").is_empty());
    }

    #[test]
    fn upsert_replaces_and_appends() {
        let path = std::env::temp_dir().join("ehdl_bench_upsert_test.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        upsert_bench_json(path, "first", "{\n  \"v\": 1\n}").unwrap();
        upsert_bench_json(path, "second", "{\n  \"v\": 2\n}").unwrap();
        upsert_bench_json(path, "first", "{\n  \"v\": 3\n}").unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let entries = parse_bench_entries(&text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "first");
        assert!(entries[0].1.contains('3'));
        assert!(entries[1].1.contains('2'));
        std::fs::remove_file(path).unwrap();
    }
}
