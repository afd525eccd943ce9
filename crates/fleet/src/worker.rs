//! The fleet worker: claims shard tasks and executes them.
//!
//! Workers are plain OS processes (`laec-cli fleet worker`) sharing the
//! fleet root over the filesystem.  The claim protocol is one atomic
//! rename — `tasks/<stem>.json` → `claims/<stem>.<worker>.<pid>` — so
//! exactly one worker wins each task.  Because rename preserves the
//! file's mtime, the winner immediately rewrites the claim's bytes (and
//! again after every sampling round): the claim's mtime *is* the
//! worker's heartbeat, and the server steals claims whose heartbeat goes
//! quiet or whose pid is gone.
//!
//! Results are published durably (staging + rename) into `results/`
//! *before* the claim is removed, so every crash window is covered: die
//! before the result lands and the claim is stolen; die after and the
//! leftover claim is debris the server sweeps up.

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::time::Duration;

use laec_core::sampling::Sampler;
use laec_core::spec::{Campaign, ExecutionMode};
use serde::Serializer;

use crate::paths::{sorted_dir, write_atomic, FleetPaths};
use crate::task::{claim_name, result_name, task_stem, Task, TaskKind};
use crate::{io_err, FleetError};

/// How a worker process behaves.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The worker's name in claim/result files (sanitized to
    /// `[A-Za-z0-9_-]`, which keeps file names parseable).
    pub id: String,
    /// How long to sleep when the task pool is empty.
    pub poll: Duration,
    /// Exit after this many tasks (`None` = run until the stop file).
    pub max_tasks: Option<u64>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            id: "w0".to_string(),
            poll: Duration::from_millis(50),
            max_tasks: None,
        }
    }
}

/// Replaces everything outside `[A-Za-z0-9_-]` so the id can live
/// inside dot-separated file names.
#[must_use]
pub fn sanitize_worker_id(id: &str) -> String {
    let cleaned: String = id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "w0".to_string()
    } else {
        cleaned
    }
}

/// Runs the worker loop: claim, execute, publish, repeat — until the
/// stop file appears (or `max_tasks` is reached).  Returns the number of
/// tasks executed.
pub fn run_worker(paths: &FleetPaths, config: &WorkerConfig) -> Result<u64, FleetError> {
    let worker = sanitize_worker_id(&config.id);
    let pid = std::process::id();
    let mut executed = 0u64;
    loop {
        if paths.stop_file().exists() {
            return Ok(executed);
        }
        match claim_next(paths, &worker, pid)? {
            Some((task, claim)) => {
                if let Err(error) = execute_task(paths, &task, &claim, &worker) {
                    // Put the task back for someone else before dying.
                    let name = format!("{}.json", task_stem(task.job, task.shard));
                    let _ = fs::rename(&claim, paths.tasks_dir().join(name));
                    return Err(error);
                }
                executed += 1;
                if config.max_tasks.is_some_and(|max| executed >= max) {
                    return Ok(executed);
                }
            }
            None => std::thread::sleep(config.poll),
        }
    }
}

/// Tries to claim the lexicographically first available task.  `None`
/// when the pool is empty (or every rename race was lost).
pub fn claim_next(
    paths: &FleetPaths,
    worker: &str,
    pid: u32,
) -> Result<Option<(Task, PathBuf)>, FleetError> {
    for name in sorted_dir(&paths.tasks_dir())? {
        let Some(stem) = name.strip_suffix(".json") else {
            continue;
        };
        let claim = paths.claims_dir().join(claim_name(stem, worker, pid));
        if fs::rename(paths.tasks_dir().join(&name), &claim).is_err() {
            continue; // someone else won the rename
        }
        let text = match fs::read_to_string(&claim) {
            Ok(text) => text,
            Err(error) => return Err(io_err(format!("read {}", claim.display()), error)),
        };
        let task = Task::from_json(&text).map_err(|what| FleetError::Malformed {
            path: claim.clone(),
            what,
        })?;
        // Rename preserved the task file's mtime; rewrite the bytes so
        // the heartbeat starts now, not when the server journaled the
        // task.
        heartbeat(&claim, &task);
        return Ok(Some((task, claim)));
    }
    Ok(None)
}

/// Executes one claimed task and publishes its result.
///
/// Strata tasks sample their absolute stratum range one round at a time,
/// beating the claim's heartbeat between rounds; the published result is
/// the restricted sampler's full-grid checkpoint.  Whole tasks run the
/// entire campaign in-process and publish the rendered artifacts as
/// JSON.
pub fn execute_task(
    paths: &FleetPaths,
    task: &Task,
    claim: &Path,
    worker: &str,
) -> Result<(), FleetError> {
    let spec_path = paths.root().join(&task.spec_rel);
    let spec_text = match fs::read_to_string(&spec_path) {
        Ok(text) => text,
        Err(error) if error.kind() == ErrorKind::NotFound => {
            // The job was completed (or abandoned) while we held a stolen
            // duplicate of its task; drop the claim and move on.
            let _ = fs::remove_file(claim);
            return Ok(());
        }
        Err(error) => return Err(io_err(format!("read {}", spec_path.display()), error)),
    };
    let validated = crate::queue::validate_spec(&spec_text)?;
    let stem = task_stem(task.job, task.shard);
    match task.kind {
        TaskKind::Whole => {
            let outcome = Campaign::new(validated).run(1);
            let mut s = Serializer::compact();
            s.begin_object();
            s.field("worker", worker);
            s.field("equivalent", &outcome.architecturally_equivalent());
            s.field("report_json", &outcome.to_json());
            s.field("report_txt", &outcome.render());
            s.end_object();
            let mut line = s.finish();
            line.push('\n');
            let result = paths.results_dir().join(result_name(&stem, worker, "json"));
            write_atomic(&result, line.as_bytes())?;
        }
        TaskKind::Strata { lo, hi } => {
            let ExecutionMode::Sampled { plan, execution } = validated.mode() else {
                return Err(FleetError::Malformed {
                    path: claim.to_path_buf(),
                    what: "strata task for a non-sampled spec".to_string(),
                });
            };
            let grid = validated.grid();
            let mut sampler = Sampler::new_restricted(grid, plan, execution, 1, lo..hi);
            while !sampler.run_rounds(1, Some(1)) {
                heartbeat(claim, task);
            }
            let result = paths.results_dir().join(result_name(&stem, worker, "ckpt"));
            write_atomic(&result, &sampler.checkpoint().encode())?;
        }
    }
    // The result is durable; the claim is now just debris (the server
    // also sweeps claims whose result already landed, covering a crash
    // on the next line).
    let _ = fs::remove_file(claim);
    Ok(())
}

/// Rewrites the claim file, which bumps its mtime — the heartbeat the
/// server's staleness detector reads.  Best-effort: if the claim was
/// stolen meanwhile, the rewrite recreates it and the duplicate result
/// is byte-identical debris either way.
fn heartbeat(claim: &Path, task: &Task) {
    let mut line = task.to_json();
    line.push('\n');
    let _ = fs::write(claim, line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::read_text;

    #[test]
    fn worker_ids_sanitize_to_file_name_safe_tokens() {
        assert_eq!(sanitize_worker_id("w1"), "w1");
        assert_eq!(sanitize_worker_id("host.7/a b"), "host-7-a-b");
        assert_eq!(sanitize_worker_id(""), "w0");
    }

    fn scratch_root(tag: &str) -> FleetPaths {
        let root = std::env::temp_dir().join(format!(
            "laec-fleet-worker-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        let paths = FleetPaths::new(&root);
        paths.init().expect("init fleet root");
        paths
    }

    #[test]
    fn claims_are_exclusive_and_carry_the_task() {
        let paths = scratch_root("claims");
        let task = Task {
            job: 3,
            shard: 1,
            kind: TaskKind::Whole,
            spec_rel: "active/j5-0000000003.json".to_string(),
        };
        task.journal(&paths).expect("journal task");

        let (claimed, claim_path) = claim_next(&paths, "w1", 111)
            .expect("claim scan")
            .expect("one task is claimable");
        assert_eq!(claimed, task);
        assert!(claim_path.ends_with("t0000000003-001.w1.111"));
        assert_eq!(
            read_text(&claim_path).expect("claim bytes"),
            task.to_json() + "\n"
        );

        // The pool is now empty: a second worker finds nothing.
        assert!(claim_next(&paths, "w2", 222)
            .expect("second scan")
            .is_none());
        let _ = fs::remove_dir_all(paths.root());
    }

    #[test]
    fn orphaned_tasks_are_dropped_without_a_result() {
        let paths = scratch_root("orphan");
        let task = Task {
            job: 9,
            shard: 0,
            kind: TaskKind::Whole,
            spec_rel: "active/j5-0000000009.json".to_string(), // never written
        };
        task.journal(&paths).expect("journal task");
        let (claimed, claim) = claim_next(&paths, "w1", 111)
            .expect("claim scan")
            .expect("claimable");
        execute_task(&paths, &claimed, &claim, "w1").expect("orphans are not errors");
        assert!(!claim.exists(), "orphan claim must be dropped");
        assert!(
            sorted_dir(&paths.results_dir())
                .expect("results")
                .is_empty(),
            "orphans must not publish results"
        );
        let _ = fs::remove_dir_all(paths.root());
    }
}
