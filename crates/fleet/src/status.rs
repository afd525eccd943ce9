//! `fleet status`: one read-only snapshot of a fleet root.

use serde::Serializer;

use crate::paths::{sorted_dir, FleetPaths};
use crate::queue;
use crate::store;
use crate::{FleetError, JobRecord};

/// A point-in-time snapshot of the fleet.
#[derive(Debug, Clone)]
pub struct StatusReport {
    /// Pending queue entries (dispatch order).
    pub queue_depth: u64,
    /// Jobs currently executing (entries in `active/`).
    pub active: u64,
    /// Published result-store entries.
    pub store_entries: u64,
    /// Shard tasks awaiting a worker.
    pub tasks_pending: u64,
    /// Shard tasks claimed by workers.
    pub claims: u64,
    /// Every job record, by id.
    pub jobs: Vec<JobRecord>,
}

struct JobsJson<'a>(&'a [JobRecord]);

impl serde::Serialize for JobsJson<'_> {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_array();
        for job in self.0 {
            job.serialize_into(s);
        }
        s.end_array();
    }
}

/// Snapshots `paths`.  Works on any root, including one never served
/// (everything reads as empty).
pub fn status(paths: &FleetPaths) -> Result<StatusReport, FleetError> {
    let mut jobs = Vec::new();
    for name in sorted_dir(&paths.jobs_dir())? {
        let Some(id) = name
            .strip_suffix(".json")
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        jobs.push(JobRecord::load(paths, id)?);
    }
    Ok(StatusReport {
        queue_depth: queue::scan(paths)?.len() as u64,
        active: sorted_dir(&paths.active_dir())?.len() as u64,
        store_entries: store::count(paths)?,
        tasks_pending: sorted_dir(&paths.tasks_dir())?.len() as u64,
        claims: sorted_dir(&paths.claims_dir())?.len() as u64,
        jobs,
    })
}

impl StatusReport {
    /// Machine-readable snapshot (one compact JSON object).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = Serializer::compact();
        s.begin_object();
        s.field("queue_depth", &self.queue_depth);
        s.field("active", &self.active);
        s.field("store_entries", &self.store_entries);
        s.field("tasks_pending", &self.tasks_pending);
        s.field("claims", &self.claims);
        s.field("jobs", &JobsJson(&self.jobs));
        s.end_object();
        s.finish()
    }

    /// Human-readable snapshot.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "fleet: {} job(s) | queue {} | active {} | store {} | tasks {} | claims {}\n",
            self.jobs.len(),
            self.queue_depth,
            self.active,
            self.store_entries,
            self.tasks_pending,
            self.claims,
        );
        if self.jobs.is_empty() {
            return out;
        }
        out.push_str(&format!(
            "{:>10}  {:>3}  {:<7}  {:<6}  {:>6}  {}\n",
            "JOB", "PRI", "STATE", "CACHED", "SHARDS", "STORE KEY"
        ));
        for job in &self.jobs {
            out.push_str(&format!(
                "{:>10}  {:>3}  {:<7}  {:<6}  {:>6}  {}{}\n",
                job.id,
                job.priority,
                job.state.as_str(),
                if job.cached { "yes" } else { "no" },
                job.shards,
                job.store_key,
                job.error
                    .as_deref()
                    .map(|e| format!("  ({e})"))
                    .unwrap_or_default(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobState, Submission};
    use std::fs;

    fn scratch_root(tag: &str) -> FleetPaths {
        let root = std::env::temp_dir().join(format!(
            "laec-fleet-status-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        FleetPaths::new(&root)
    }

    #[test]
    fn unserved_roots_read_as_empty() {
        let paths = scratch_root("empty");
        let report = status(&paths).expect("status");
        assert_eq!(report.queue_depth, 0);
        assert_eq!(report.store_entries, 0);
        assert!(report.jobs.is_empty());
        assert!(report.render().starts_with("fleet: 0 job(s)"));
    }

    #[test]
    fn submissions_show_up_queued() {
        let paths = scratch_root("queued");
        let spec = laec_core::spec::CampaignBuilder::smoke()
            .build()
            .expect("well-formed")
            .to_json();
        let Submission { id, .. } =
            crate::submit(&paths, &spec, crate::DEFAULT_PRIORITY).expect("submit");
        let report = status(&paths).expect("status");
        assert_eq!(report.queue_depth, 1);
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.jobs[0].id, id);
        assert_eq!(report.jobs[0].state, JobState::Queued);
        let json = report.to_json();
        assert!(json.contains("\"queue_depth\":1"), "bad json: {json}");
        assert!(json.contains("\"state\":\"queued\""), "bad json: {json}");
        let _ = fs::remove_dir_all(paths.root());
    }
}
