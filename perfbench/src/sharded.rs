//! The sharded sweep, timed from outside the shard coordinator.
//!
//! The benchmark binary is its own shard worker: the coordinator relaunches
//! it with `--shard-worker`, which runs `worker_main` and then leaves a
//! note beside the shard's partial with the worker's wall time and the
//! partial's size (partials are deleted once merged, so the coordinator
//! process cannot measure them itself).

use crate::workloads::{Spec, WORKERS};
use ehdl_fleet::{ShardCoordinator, ShardReport};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The argument that routes the binary into shard-worker mode.
pub const WORKER_FLAG: &str = "--shard-worker";

fn note_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("bench-note-{shard:06}.txt"))
}

/// Shard-worker mode: runs one shard, then writes its note.
pub fn worker(args: &[String]) -> Result<(), String> {
    let started = Instant::now();
    ehdl_fleet::shard::worker_main(args).map_err(|e| e.to_string())?;
    let wall_s = started.elapsed().as_secs_f64();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("worker arguments lack {flag}"))
    };
    let job = PathBuf::from(value("--job")?);
    let shard: usize = value("--shard")?
        .parse()
        .map_err(|e| format!("bad --shard: {e}"))?;
    let dir = job.parent().unwrap_or(Path::new("."));
    let partial = dir.join(format!("partial-{shard:06}.ehsp"));
    let bytes = fs::metadata(&partial)
        .map_err(|e| format!("{}: {e}", partial.display()))?
        .len();
    fs::write(note_path(dir, shard), format!("{wall_s} {bytes}\n")).map_err(|e| e.to_string())
}

/// One sharded sweep as seen from the coordinator's side.
pub struct ShardedSweep {
    pub report: ShardReport,
    pub wall_s: f64,
    /// From the `run` call to the first worker heartbeat (written on the
    /// worker's first in-order merge, right after its first scenario).
    pub setup_s: f64,
    /// Per scenario: its shard's worker wall time over the shard's
    /// scenario count, in ms.
    pub scenario_ms: Vec<f64>,
    pub partial_bytes: u64,
}

/// Runs the workload's matrix through the shard coordinator in a fresh
/// checkpoint directory `dir`, which is removed afterwards.
pub fn sweep(spec: &Spec, dir: &Path) -> Result<ShardedSweep, String> {
    let shard_size = spec.shard_size.ok_or("not a sharded workload")?;
    let _ = fs::remove_dir_all(dir);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let coordinator = ShardCoordinator::new(shard_size)
        .concurrency(WORKERS)
        .worker_threads(1)
        .backoff(Duration::from_millis(50))
        .checkpoint_dir(dir)
        .worker_command(exe, vec![WORKER_FLAG.to_string()]);
    let beats: Vec<PathBuf> = (0..WORKERS)
        .map(|shard| dir.join(format!("heartbeat-{shard:06}.json")))
        .collect();
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let (report, first_beat) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if beats.iter().any(|p| p.exists()) {
                    return Some(Instant::now());
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            None
        });
        let report = coordinator.run(&spec.matrix);
        done.store(true, Ordering::SeqCst);
        (
            report,
            watcher.join().expect("the heartbeat watcher never panics"),
        )
    });
    let wall_s = started.elapsed().as_secs_f64();
    let report = report.map_err(|e| e.to_string())?;
    let first_beat = first_beat.ok_or("no worker heartbeat was seen")?;
    let mut scenario_ms = Vec::with_capacity(spec.matrix.len());
    let mut partial_bytes = 0;
    for shard in 0..report.shards {
        if report.failed.iter().any(|f| f.shard == shard) {
            continue; // counted as failed by the caller
        }
        let len = shard_size.min(spec.matrix.len() - shard * shard_size);
        let note = fs::read_to_string(note_path(dir, shard))
            .map_err(|e| format!("shard {shard} left no note: {e}"))?;
        let mut fields = note.split_whitespace();
        let mut next = || fields.next().ok_or(format!("short note for shard {shard}"));
        let wall: f64 = next()?.parse().map_err(|e| format!("{e}"))?;
        let bytes: u64 = next()?.parse().map_err(|e| format!("{e}"))?;
        scenario_ms.extend(std::iter::repeat_n(wall * 1e3 / len as f64, len));
        partial_bytes += bytes;
    }
    fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(ShardedSweep {
        report,
        wall_s,
        setup_s: first_beat.duration_since(started).as_secs_f64(),
        scenario_ms,
        partial_bytes,
    })
}
