//! Shard tasks: the unit of work-stealing.
//!
//! The server splits a job into tasks and journals each as a JSON file
//! in `tasks/`.  A worker claims one by renaming it into `claims/` —
//! rename is atomic, so exactly one worker wins — and publishes its
//! result into `results/`.  File names carry the routing information
//! (`t<job>-<shard>` plus the claiming worker), so a directory listing
//! answers "what is in flight?" without opening anything.
//!
//! Sampled jobs shard into contiguous absolute stratum ranges
//! ([`plan_shards`]).  Per-stratum injection seeds depend only on
//! absolute grid coordinates, which is what makes any split (and any
//! re-split after stealing) merge back into the uninterrupted run's
//! checkpoint byte for byte.  Grid jobs are a single [`TaskKind::Whole`]
//! task: the grid engines are cell-parallel in-process, and their report
//! is thread-count invariant, so one worker process suffices.

use laec_core::sampling::stratum_count;
use laec_core::spec::{ExecutionMode, ValidatedSpec};
use serde::Serializer;

use crate::paths::write_atomic;
use crate::paths::FleetPaths;
use crate::FleetError;

/// What a task asks a worker to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Run the whole campaign in-process (grid modes).
    Whole,
    /// Sample the absolute stratum range `lo..hi` of a sampled campaign.
    Strata {
        /// First stratum index (inclusive).
        lo: usize,
        /// One past the last stratum index.
        hi: usize,
    },
}

/// One claimable unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// The job this task belongs to.
    pub job: u64,
    /// Zero-based shard index within the job.
    pub shard: u64,
    /// What to execute.
    pub kind: TaskKind,
    /// The spec file, relative to the fleet root (e.g.
    /// `active/j5-0000000001.json`).
    pub spec_rel: String,
}

/// The `t<job>-<shard>` stem shared by task, claim and result names.
#[must_use]
pub fn task_stem(job: u64, shard: u64) -> String {
    format!("t{job:010}-{shard:03}")
}

/// The claim file name for a task stem: `<stem>.<worker>.<pid>`.
#[must_use]
pub fn claim_name(stem: &str, worker: &str, pid: u32) -> String {
    format!("{stem}.{worker}.{pid}")
}

/// Parses a claim name back into `(stem, worker, pid)`.
#[must_use]
pub fn parse_claim_name(name: &str) -> Option<(&str, &str, u32)> {
    let mut parts = name.rsplitn(3, '.');
    let pid = parts.next()?.parse().ok()?;
    let worker = parts.next()?;
    let stem = parts.next()?;
    Some((stem, worker, pid))
}

/// The result file name for a task stem: `<stem>.<worker>.<ext>` where
/// `ext` is `ckpt` (strata checkpoints) or `json` (whole-job reports).
#[must_use]
pub fn result_name(stem: &str, worker: &str, ext: &str) -> String {
    format!("{stem}.{worker}.{ext}")
}

impl Task {
    /// Encodes the task as compact JSON (the task/claim file contents).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = Serializer::compact();
        s.begin_object();
        s.field("job", &self.job);
        s.field("shard", &self.shard);
        match self.kind {
            TaskKind::Whole => s.field("kind", "whole"),
            TaskKind::Strata { lo, hi } => {
                s.field("kind", "strata");
                s.field("lo", &lo);
                s.field("hi", &hi);
            }
        }
        s.field("spec", &self.spec_rel);
        s.end_object();
        s.finish()
    }

    /// Decodes a task file; the error names what was wrong.
    pub fn from_json(text: &str) -> Result<Task, String> {
        let value = serde_json::parse(text).map_err(|error| error.to_string())?;
        let field_u64 = |key: &str| {
            value
                .get(key)
                .and_then(serde_json::Value::as_u64)
                .ok_or_else(|| format!("missing `{key}`"))
        };
        let kind_text = value
            .get("kind")
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| "missing `kind`".to_string())?;
        let kind = match kind_text {
            "whole" => TaskKind::Whole,
            "strata" => {
                let range = |key: &str| {
                    usize::try_from(field_u64(key)?).map_err(|_| format!("`{key}` overflows usize"))
                };
                TaskKind::Strata {
                    lo: range("lo")?,
                    hi: range("hi")?,
                }
            }
            other => return Err(format!("unknown task kind `{other}`")),
        };
        Ok(Task {
            job: field_u64("job")?,
            shard: field_u64("shard")?,
            kind,
            spec_rel: value
                .get("spec")
                .and_then(serde_json::Value::as_str)
                .ok_or_else(|| "missing `spec`".to_string())?
                .to_string(),
        })
    }

    /// Journals the task into `tasks/` (atomically), making it claimable.
    pub fn journal(&self, paths: &FleetPaths) -> Result<(), FleetError> {
        let name = format!("{}.json", task_stem(self.job, self.shard));
        let mut line = self.to_json();
        line.push('\n');
        write_atomic(&paths.tasks_dir().join(name), line.as_bytes())
    }
}

/// Splits a validated spec into shard kinds, at most `max_shards` of
/// them.
///
/// Sampled campaigns shard into balanced contiguous stratum ranges; a
/// budget larger than the stratum count clamps to one stratum per shard.
/// Every other mode is one [`TaskKind::Whole`] task.
#[must_use]
pub fn plan_shards(validated: &ValidatedSpec, max_shards: usize) -> Vec<TaskKind> {
    let ExecutionMode::Sampled { .. } = validated.mode() else {
        return vec![TaskKind::Whole];
    };
    let total = stratum_count(validated.grid());
    let shards = max_shards.clamp(1, total.max(1));
    let base = total / shards;
    let extra = total % shards;
    let mut kinds = Vec::with_capacity(shards);
    let mut lo = 0;
    for index in 0..shards {
        let len = base + usize::from(index < extra);
        kinds.push(TaskKind::Strata { lo, hi: lo + len });
        lo += len;
    }
    kinds
}

#[cfg(test)]
mod tests {
    use super::*;
    use laec_core::spec::CampaignBuilder;

    fn sampled_spec(workloads: &[&str]) -> ValidatedSpec {
        CampaignBuilder::smoke()
            .named_workloads(workloads.iter().copied())
            .sampled(8)
            .validate()
            .expect("valid sampled spec")
    }

    #[test]
    fn tasks_round_trip_through_json() {
        for kind in [TaskKind::Whole, TaskKind::Strata { lo: 3, hi: 9 }] {
            let task = Task {
                job: 7,
                shard: 2,
                kind,
                spec_rel: "active/j5-0000000007.json".to_string(),
            };
            assert_eq!(Task::from_json(&task.to_json()), Ok(task));
        }
    }

    #[test]
    fn claim_names_round_trip() {
        let stem = task_stem(7, 2);
        let name = claim_name(&stem, "w1", 4242);
        assert_eq!(parse_claim_name(&name), Some((stem.as_str(), "w1", 4242)));
        assert_eq!(parse_claim_name("t0000000007-002"), None);
    }

    #[test]
    fn sampled_jobs_shard_into_balanced_contiguous_ranges() {
        // 3 workloads x 1 platform x N schemes: smoke() carries the four
        // Figure 8 schemes, so the grid has 12 strata.
        let validated = sampled_spec(&["vector_sum", "fir_filter", "matrix_multiply"]);
        let total = stratum_count(validated.grid());
        let kinds = plan_shards(&validated, 5);
        assert_eq!(kinds.len(), 5);
        let mut expected_lo = 0;
        let mut sizes = Vec::new();
        for kind in &kinds {
            let TaskKind::Strata { lo, hi } = *kind else {
                panic!("sampled jobs shard into strata");
            };
            assert_eq!(lo, expected_lo, "ranges must be contiguous");
            expected_lo = hi;
            sizes.push(hi - lo);
        }
        assert_eq!(expected_lo, total, "ranges must cover the grid");
        let (min, max) = (
            sizes.iter().copied().min().unwrap_or(0),
            sizes.iter().copied().max().unwrap_or(0),
        );
        assert!(max - min <= 1, "unbalanced shard sizes {sizes:?}");
    }

    #[test]
    fn shard_budgets_clamp_to_the_stratum_count() {
        let validated = sampled_spec(&["vector_sum"]);
        let total = stratum_count(validated.grid());
        assert_eq!(plan_shards(&validated, 100).len(), total);
        assert_eq!(plan_shards(&validated, 0).len(), 1);
    }

    #[test]
    fn grid_jobs_are_one_whole_task() {
        let validated = CampaignBuilder::smoke()
            .validate()
            .expect("valid grid spec");
        assert_eq!(plan_shards(&validated, 4), vec![TaskKind::Whole]);
    }
}
