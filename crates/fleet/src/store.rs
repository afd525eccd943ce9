//! The spec-addressed result store under `store/`.
//!
//! Determinism is what makes this cache sound: a campaign's report is a
//! pure function of its canonical spec bytes, so the 128-bit content
//! hash of those bytes ([`laec_core::spec::ValidatedSpec::fingerprint`])
//! is a *complete* address for the result.  Two submissions with the
//! same key would have produced byte-identical artifacts; serving the
//! second from disk is indistinguishable from running it.
//!
//! Each entry is a directory `store/<32 hex digits>/` holding:
//!
//! * `spec.json`   — the canonical spec bytes the key hashes,
//! * `report.json` — exactly what `laec-cli campaign --spec … --json`
//!   prints (trailing newline included), so `cmp` against a redirected
//!   flag-driven run passes,
//! * `report.txt`  — the rendered text report,
//! * `meta.json`   — provenance (job id, engine, shard count) plus the
//!   [`hash128`] digest of each artifact above; written last, its presence
//!   is the publication marker.
//!
//! Publication stages the whole directory and renames it into place: a
//! reader never observes a partial entry, and the losing side of a
//! concurrent publish race simply discards its staging copy (the bytes
//! were identical anyway — that is the whole point of the key).
//!
//! Nothing read back from the store is trusted: [`lookup`] re-hashes every
//! artifact against the digests in `meta.json` and evicts an entry that
//! fails (bit rot, a hand edit, an entry without digests), so the job is
//! recomputed instead of served.

use std::fs;
use std::path::{Path, PathBuf};

use laec_core::hash128;
use laec_core::spec::ValidatedSpec;
use serde::{Serialize, Serializer};

use crate::paths::{sorted_dir, staging_path, FleetPaths};
use crate::{io_err, FleetError};

/// The store key of a validated spec: 32 lowercase hex digits of the
/// 128-bit content hash of its canonical JSON.
#[must_use]
pub fn store_key(validated: &ValidatedSpec) -> String {
    format!("{:032x}", validated.fingerprint())
}

/// The artifact files of an entry, in publication order (`meta.json`
/// follows them and records their digests).
const ARTIFACT_FILES: [&str; 3] = ["spec.json", "report.json", "report.txt"];

/// The published entry directory for `key`, if it exists and every
/// artifact still matches the digest `meta.json` recorded for it.
///
/// `meta.json` is written into the staged directory before the rename
/// and therefore can only be observed inside a complete entry.  An entry
/// that fails verification is evicted, so the caller recomputes it.
#[must_use]
pub fn lookup(paths: &FleetPaths, key: &str) -> Option<PathBuf> {
    let dir = paths.store_entry(key);
    if !is_published(&dir) {
        return None;
    }
    if verified(&dir) {
        return Some(dir);
    }
    evict(&dir);
    None
}

fn is_published(dir: &Path) -> bool {
    dir.join("meta.json").is_file()
}

/// `true` if every artifact's bytes hash to the digest in `meta.json`.
fn verified(dir: &Path) -> bool {
    let Ok(meta) = fs::read_to_string(dir.join("meta.json")) else {
        return false;
    };
    let Ok(meta) = serde_json::parse(&meta) else {
        return false;
    };
    let Some(digests) = meta.get("digests") else {
        return false;
    };
    ARTIFACT_FILES.iter().all(|name| {
        let recorded = digests.get(name).and_then(|d| d.as_str());
        let actual = fs::read(dir.join(name)).map(|bytes| digest_hex(&bytes));
        matches!((recorded, actual), (Some(recorded), Ok(actual)) if recorded == actual)
    })
}

/// Removes a corrupt entry: renamed out of the store first, so concurrent
/// readers see it either whole or gone, then deleted.  Best-effort — a
/// concurrent evictor may have won the rename.
fn evict(dir: &Path) {
    let doomed = staging_path(dir);
    if fs::rename(dir, &doomed).is_ok() {
        let _ = fs::remove_dir_all(&doomed);
    }
}

fn digest_hex(bytes: &[u8]) -> String {
    format!("0x{:032x}", hash128(bytes))
}

/// The artifact set one publication writes.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// Canonical spec bytes (what the key hashes), newline-terminated.
    pub spec_json: String,
    /// The campaign's JSON report, byte-identical to the CLI's stdout.
    pub report_json: String,
    /// The campaign's rendered text report.
    pub report_txt: String,
    /// The job that produced the entry (provenance).
    pub job: u64,
    /// The execution-mode kind the job ran under (provenance).
    pub mode: String,
    /// How many shards the job ran as (provenance).
    pub shards: u64,
}

impl Artifacts {
    /// The `meta.json` line: provenance plus one digest per artifact file.
    fn meta_json(&self, key: &str) -> String {
        let mut s = Serializer::compact();
        s.begin_object();
        s.field("store_key", key);
        s.field("mode", self.mode.as_str());
        s.field("job", &self.job);
        s.field("shards", &self.shards);
        s.field("digests", &Digests(self.contents()));
        s.end_object();
        let mut line = s.finish();
        line.push('\n');
        line
    }

    fn contents(&self) -> [&str; 3] {
        [&self.spec_json, &self.report_json, &self.report_txt]
    }
}

/// The `digests` object of `meta.json`: artifact file name → digest.
struct Digests<'a>([&'a str; 3]);

impl Serialize for Digests<'_> {
    fn serialize(&self, serializer: &mut Serializer) {
        serializer.begin_object();
        for (name, contents) in ARTIFACT_FILES.iter().zip(self.0) {
            serializer.field(name, digest_hex(contents.as_bytes()).as_str());
        }
        serializer.end_object();
    }
}

/// Publishes `artifacts` under `key`.  Idempotent: an already-published
/// entry (including one that won a concurrent race) is left untouched,
/// because equal keys imply equal bytes.
pub fn publish(
    paths: &FleetPaths,
    key: &str,
    artifacts: &Artifacts,
) -> Result<PathBuf, FleetError> {
    let dir = paths.store_entry(key);
    if lookup(paths, key).is_some() {
        return Ok(dir);
    }
    let stage = staging_path(&dir);
    fs::create_dir_all(&stage)
        .map_err(|error| io_err(format!("create {}", stage.display()), error))?;
    let meta = artifacts.meta_json(key);
    let files = ARTIFACT_FILES.iter().zip(artifacts.contents());
    // meta.json is written last: see the module docs — presence marks
    // completion.
    for (name, contents) in files.chain([(&"meta.json", meta.as_str())]) {
        let path = stage.join(name);
        fs::write(&path, contents)
            .map_err(|error| io_err(format!("write {}", path.display()), error))?;
    }
    match fs::rename(&stage, &dir) {
        Ok(()) => Ok(dir),
        Err(error) => {
            // Lost a publish race: the winner's bytes are ours, byte for
            // byte.  Anything else is a real error.
            let _ = fs::remove_dir_all(&stage);
            if lookup(paths, key).is_some() {
                Ok(dir)
            } else {
                Err(io_err(format!("publish {}", dir.display()), error))
            }
        }
    }
}

/// Number of published entries in the store (not verified: counting
/// never evicts).
pub fn count(paths: &FleetPaths) -> Result<u64, FleetError> {
    let mut published = 0;
    for name in sorted_dir(&paths.store_dir())? {
        if is_published(&paths.store_entry(&name)) {
            published += 1;
        }
    }
    Ok(published)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_root(tag: &str) -> FleetPaths {
        let root = std::env::temp_dir().join(format!(
            "laec-fleet-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        let paths = FleetPaths::new(&root);
        paths.init().expect("init fleet root");
        paths
    }

    fn artifacts() -> Artifacts {
        Artifacts {
            spec_json: "{\"v\":2}\n".to_string(),
            report_json: "{\"report\":true}\n".to_string(),
            report_txt: "REPORT\n".to_string(),
            job: 1,
            mode: "full".to_string(),
            shards: 1,
        }
    }

    #[test]
    fn publish_then_lookup_round_trips_the_artifacts() {
        let paths = scratch_root("roundtrip");
        let key = "ab".repeat(16);
        assert!(lookup(&paths, &key).is_none());
        let dir = publish(&paths, &key, &artifacts()).expect("publish");
        assert_eq!(lookup(&paths, &key), Some(dir.clone()));
        let report = fs::read_to_string(dir.join("report.json")).expect("read report");
        assert_eq!(report, "{\"report\":true}\n");
        assert_eq!(count(&paths).expect("count"), 1);
        let _ = fs::remove_dir_all(paths.root());
    }

    #[test]
    fn publish_is_idempotent() {
        let paths = scratch_root("idempotent");
        let key = "cd".repeat(16);
        publish(&paths, &key, &artifacts()).expect("first publish");
        let mut second = artifacts();
        second.report_json = "{\"other\":1}\n".to_string();
        // The second publish is a no-op: equal keys imply equal bytes, so
        // the first copy stands.
        publish(&paths, &key, &second).expect("second publish");
        let report =
            fs::read_to_string(paths.store_entry(&key).join("report.json")).expect("read report");
        assert_eq!(report, "{\"report\":true}\n");
        let _ = fs::remove_dir_all(paths.root());
    }

    #[test]
    fn corrupt_artifacts_are_evicted_on_lookup() {
        let paths = scratch_root("corrupt");
        for name in ARTIFACT_FILES.iter().chain(&["meta.json"]) {
            let key = "12".repeat(16);
            let dir = publish(&paths, &key, &artifacts()).expect("publish");
            let path = dir.join(name);
            let mut bytes = fs::read(&path).expect("read artifact");
            bytes[1] ^= 0x01;
            fs::write(&path, bytes).expect("corrupt artifact");
            assert!(lookup(&paths, &key).is_none(), "corrupt {name} served");
            assert!(!dir.exists(), "corrupt {name} not evicted");
            // A fresh publication replaces the evicted entry.
            publish(&paths, &key, &artifacts()).expect("republish");
            assert_eq!(lookup(&paths, &key), Some(dir));
        }
        let _ = fs::remove_dir_all(paths.root());
    }

    #[test]
    fn entries_without_digests_are_evicted_on_lookup() {
        let paths = scratch_root("undigested");
        let key = "34".repeat(16);
        let dir = publish(&paths, &key, &artifacts()).expect("publish");
        fs::write(dir.join("meta.json"), "{\"job\":1}\n").expect("rewrite meta");
        assert!(lookup(&paths, &key).is_none());
        assert!(!dir.exists());
        let _ = fs::remove_dir_all(paths.root());
    }

    #[test]
    fn half_published_entries_are_invisible() {
        let paths = scratch_root("torn");
        let key = "ef".repeat(16);
        let dir = paths.store_entry(&key);
        fs::create_dir_all(&dir).expect("create torn entry");
        fs::write(dir.join("report.json"), "{}").expect("write torn report");
        // No meta.json: the entry must read as absent.
        assert!(lookup(&paths, &key).is_none());
        assert_eq!(count(&paths).expect("count"), 0);
        let _ = fs::remove_dir_all(paths.root());
    }
}
