//! Submission and the persistent priority+FIFO queue.
//!
//! `submit` is the fleet's write path: validate the spec, journal its
//! *canonical* JSON (not the submitted bytes — two cosmetically
//! different files of the same campaign share one queue identity and one
//! store key) into `queue/j<priority>-<id>.json` via staging-file +
//! rename, and record the job in `jobs/`.  Nothing here talks to the
//! server: a submission against a dead server sits in the queue until
//! one starts, which is the whole point of a journaled queue.
//!
//! A submission whose key is already published in the store never
//! touches the queue — it is answered `cached` immediately.

use std::fs::OpenOptions;
use std::io::ErrorKind;

use laec_core::spec::ValidatedSpec;

use crate::paths::{sorted_dir, write_atomic, FleetPaths};
use crate::store::{lookup, store_key};
use crate::{io_err, FleetError, JobRecord, JobState};

/// The default queue priority digit (middle of `0..=9`).
pub const DEFAULT_PRIORITY: u8 = 5;

/// What `submit` tells the submitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// The assigned job id.
    pub id: u64,
    /// The queue priority it was filed under.
    pub priority: u8,
    /// The spec's store key.
    pub store_key: String,
    /// `true` when the store already held the answer (nothing queued).
    pub cached: bool,
}

/// Parses and validates a submitted spec.
pub(crate) fn validate_spec(text: &str) -> Result<ValidatedSpec, FleetError> {
    laec_core::spec::CampaignSpec::from_json(text)
        .map_err(|error| FleetError::Spec {
            message: error.to_string(),
        })?
        .validate()
        .map_err(|error| FleetError::Spec {
            message: error.to_string(),
        })
}

/// Submits a campaign spec (JSON text) at `priority` (`0` most urgent,
/// `9` least).  Returns the assigned job id and whether the store
/// answered from cache.
pub fn submit(paths: &FleetPaths, spec_text: &str, priority: u8) -> Result<Submission, FleetError> {
    if priority > 9 {
        return Err(FleetError::Spec {
            message: format!("priority {priority} outside 0..=9"),
        });
    }
    let validated = validate_spec(spec_text)?;
    let key = store_key(&validated);
    paths.init()?;
    let id = allocate_job_id(paths)?;
    let cached = lookup(paths, &key).is_some();
    let mut record = JobRecord::new(id, priority, key.clone());
    if cached {
        record.state = JobState::Done;
        record.cached = true;
    }
    record.save(paths)?;
    if !cached {
        let mut canonical = validated.spec().to_json();
        canonical.push('\n');
        write_atomic(&paths.queue_entry(priority, id), canonical.as_bytes())?;
    }
    Ok(Submission {
        id,
        priority,
        store_key: key,
        cached,
    })
}

/// Reserves the next free job id by `create_new`-ing its record file —
/// the filesystem arbitrates concurrent submitters.
fn allocate_job_id(paths: &FleetPaths) -> Result<u64, FleetError> {
    let mut id = 1 + sorted_dir(&paths.jobs_dir())?
        .iter()
        .filter_map(|name| name.strip_suffix(".json")?.parse::<u64>().ok())
        .max()
        .unwrap_or(0);
    loop {
        let path = paths.job_file(id);
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(_) => return Ok(id),
            Err(error) if error.kind() == ErrorKind::AlreadyExists => id += 1,
            Err(error) => return Err(io_err(format!("reserve {}", path.display()), error)),
        }
    }
}

/// One pending queue entry, in dispatch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueEntry {
    /// The entry's file name (`j<priority>-<id>.json`).
    pub name: String,
    /// Queue priority digit.
    pub priority: u8,
    /// Job id.
    pub id: u64,
}

/// The pending queue in dispatch order (priority digit, then FIFO by
/// id) — which is simply the sorted directory listing.
pub fn scan(paths: &FleetPaths) -> Result<Vec<QueueEntry>, FleetError> {
    Ok(sorted_dir(&paths.queue_dir())?
        .into_iter()
        .filter_map(|name| {
            let (priority, id) = FleetPaths::parse_queue_name(&name)?;
            Some(QueueEntry { name, priority, id })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch_root(tag: &str) -> FleetPaths {
        let root = std::env::temp_dir().join(format!(
            "laec-fleet-queue-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        FleetPaths::new(&root)
    }

    fn smoke_spec_json() -> String {
        laec_core::spec::CampaignBuilder::smoke()
            .build()
            .expect("well-formed")
            .to_json()
    }

    #[test]
    fn submissions_journal_canonical_bytes_in_dispatch_order() {
        let paths = scratch_root("journal");
        // Whitespace-mangled spec text: the queue must hold canonical
        // bytes, not the submitted ones.
        let mangled = smoke_spec_json().replace(",\"", ",  \"");
        let low = submit(&paths, &mangled, 7).expect("submit low");
        let high = submit(&paths, &smoke_spec_json(), 1).expect("submit high");
        assert_eq!((low.id, high.id), (1, 2));
        assert_eq!(low.store_key, high.store_key, "canonicalization failed");
        assert!(!low.cached && !high.cached);

        let entries = scan(&paths).expect("scan");
        assert_eq!(
            entries.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![2, 1],
            "priority 1 dispatches before priority 7"
        );
        let queued = fs::read_to_string(paths.queue_entry(7, 1)).expect("read entry");
        assert_eq!(queued, smoke_spec_json() + "\n");
        let _ = fs::remove_dir_all(paths.root());
    }

    #[test]
    fn invalid_specs_are_rejected_up_front() {
        let paths = scratch_root("invalid");
        let error = submit(&paths, "{\"not\": \"a spec\"}", DEFAULT_PRIORITY)
            .expect_err("garbage must not enqueue");
        assert!(matches!(error, FleetError::Spec { .. }), "got {error:?}");
        assert!(scan(&paths).expect("scan").is_empty());
        let _ = fs::remove_dir_all(paths.root());
    }

    #[test]
    fn out_of_range_priorities_are_rejected() {
        let paths = scratch_root("priority");
        let error = submit(&paths, &smoke_spec_json(), 10).expect_err("priority 10");
        assert!(matches!(error, FleetError::Spec { .. }), "got {error:?}");
        let _ = fs::remove_dir_all(paths.root());
    }

    #[test]
    fn published_store_entries_answer_submissions_from_cache() {
        let paths = scratch_root("cached");
        let spec = smoke_spec_json();
        let validated = validate_spec(&spec).expect("valid spec");
        let key = store_key(&validated);
        paths.init().expect("init");
        crate::store::publish(
            &paths,
            &key,
            &crate::store::Artifacts {
                spec_json: spec.clone() + "\n",
                report_json: "{}\n".to_string(),
                report_txt: "REPORT\n".to_string(),
                job: 1,
                mode: "full".to_string(),
                shards: 1,
            },
        )
        .expect("publish");
        let submission = submit(&paths, &spec, DEFAULT_PRIORITY).expect("submit");
        assert!(submission.cached, "store hit must answer at submit time");
        assert!(scan(&paths).expect("scan").is_empty(), "nothing to queue");
        let record = JobRecord::load(&paths, submission.id).expect("record");
        assert_eq!(record.state, JobState::Done);
        assert!(record.cached);
        let _ = fs::remove_dir_all(paths.root());
    }
}
