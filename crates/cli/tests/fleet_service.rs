//! End-to-end fleet contract of the `laec-cli` binary, at the process
//! level: real `serve` servers, real spawned `fleet worker` processes,
//! and real `kill -9` crashes.  Every path is judged by the determinism
//! contract — the published store artifact must be byte-identical to
//! the single-process `campaign --spec <FILE> --json` run.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use laec_core::spec::{CampaignBuilder, ValidatedSpec};
use laec_pipeline::EccScheme;

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_laec-cli"))
        .args(args)
        .output()
        .expect("laec-cli runs")
}

fn spawn_cli(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_laec-cli"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("laec-cli spawns")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("laec-cli-fleet-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A small grid campaign (one Whole task through the fleet).
fn grid_spec() -> ValidatedSpec {
    CampaignBuilder::smoke()
        .named_workloads(["vector_sum"])
        .schemes([EccScheme::Laec])
        .fault_seeds([1, 2])
        .validate()
        .expect("a valid grid spec")
}

/// A sampled campaign with `budget` samples per stratum over
/// 2 workloads x 2 schemes = 4 strata (so 4-shard runs split real work).
fn sampled_spec(budget: u64, min_samples: u64) -> ValidatedSpec {
    CampaignBuilder::smoke()
        .named_workloads(["vector_sum", "fir_filter"])
        .schemes([EccScheme::NoEcc, EccScheme::Laec])
        .sampled(budget)
        .batch(4)
        .min_samples(min_samples)
        .validate()
        .expect("a valid sampled spec")
}

fn write_spec(dir: &Path, validated: &ValidatedSpec) -> PathBuf {
    let path = dir.join("spec.json");
    fs::write(&path, validated.spec().to_json()).expect("write spec");
    path
}

/// What the fleet must reproduce: the flag-driven single-process bytes.
fn reference_bytes(spec: &Path) -> Vec<u8> {
    let output = cli(&[
        "campaign",
        "--spec",
        spec.to_str().expect("utf-8"),
        "--json",
    ]);
    assert!(output.status.success(), "reference campaign run failed");
    output.stdout
}

/// Extracts `"store_key":"<hex>"` from a `submit --json` receipt.
fn submitted_key(output: &Output) -> String {
    assert!(output.status.success(), "submit failed: {output:?}");
    let text = String::from_utf8_lossy(&output.stdout);
    let tail = text
        .split("\"store_key\":\"")
        .nth(1)
        .unwrap_or_else(|| panic!("no store_key in receipt: {text}"));
    tail[..tail.find('"').expect("terminated key")].to_string()
}

fn store_report(fleet: &Path, key: &str) -> Vec<u8> {
    fs::read(fleet.join("store").join(key).join("report.json"))
        .unwrap_or_else(|e| panic!("read store report for {key}: {e}"))
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn repeat_submissions_are_deduplicated_through_the_store() {
    let dir = scratch_dir("cache");
    let fleet = dir.join("fleet");
    let fleet_arg = fleet.to_str().expect("utf-8");
    let spec = write_spec(&dir, &grid_spec());
    let spec_arg = spec.to_str().expect("utf-8");

    let first = cli(&[
        "submit",
        "--spec",
        spec_arg,
        "--fleet-dir",
        fleet_arg,
        "--json",
    ]);
    let second = cli(&[
        "submit",
        "--spec",
        spec_arg,
        "--fleet-dir",
        fleet_arg,
        "--json",
    ]);
    let key = submitted_key(&first);
    assert_eq!(key, submitted_key(&second), "one spec, one store key");

    let served = cli(&[
        "serve",
        "--fleet-dir",
        fleet_arg,
        "--drain",
        "--workers",
        "0",
        "--poll-ms",
        "5",
        "--json",
    ]);
    assert!(served.status.success(), "serve failed: {served:?}");
    let summary = String::from_utf8_lossy(&served.stdout);
    assert!(
        summary.contains("\"jobs_run\":1") && summary.contains("\"jobs_cached\":1"),
        "the second copy must be served from the store: {summary}"
    );

    assert_eq!(
        store_report(&fleet, &key),
        reference_bytes(&spec),
        "the cached artifact is the flag-driven run's bytes"
    );

    // A third submission is answered at submit time, queueing nothing.
    let third = cli(&[
        "submit",
        "--spec",
        spec_arg,
        "--fleet-dir",
        fleet_arg,
        "--json",
    ]);
    assert!(
        String::from_utf8_lossy(&third.stdout).contains("\"cached\":true"),
        "published artifacts answer at submit time"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A corrupted store artifact is never served: the resubmission misses
/// the store (the entry fails its digest check and is evicted), the job
/// reruns, and the republished bytes are clean again.
#[test]
fn a_corrupt_store_entry_is_recomputed_not_served() {
    let dir = scratch_dir("corrupt");
    let fleet = dir.join("fleet");
    let fleet_arg = fleet.to_str().expect("utf-8");
    let spec = write_spec(&dir, &grid_spec());
    let spec_arg = spec.to_str().expect("utf-8");
    let submit = || {
        cli(&[
            "submit",
            "--spec",
            spec_arg,
            "--fleet-dir",
            fleet_arg,
            "--json",
        ])
    };
    let drain = || {
        let served = cli(&[
            "serve",
            "--fleet-dir",
            fleet_arg,
            "--drain",
            "--workers",
            "0",
            "--poll-ms",
            "5",
            "--json",
        ]);
        assert!(served.status.success(), "serve failed: {served:?}");
    };
    let reference = reference_bytes(&spec);

    let key = submitted_key(&submit());
    drain();
    assert_eq!(store_report(&fleet, &key), reference);

    let report = fleet.join("store").join(&key).join("report.json");
    let mut bytes = fs::read(&report).expect("published report");
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x01;
    fs::write(&report, bytes).expect("corrupt the published report");

    let resubmitted = submit();
    assert!(
        String::from_utf8_lossy(&resubmitted.stdout).contains("\"cached\":false"),
        "a corrupt entry must not answer from the store"
    );
    drain();
    assert_eq!(store_report(&fleet, &key), reference, "recomputed bytes");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn four_worker_processes_reproduce_the_single_process_bytes() {
    let dir = scratch_dir("four");
    let fleet = dir.join("fleet");
    let fleet_arg = fleet.to_str().expect("utf-8");
    let spec = write_spec(&dir, &sampled_spec(8, 4));
    let spec_arg = spec.to_str().expect("utf-8");

    let key = submitted_key(&cli(&[
        "submit",
        "--spec",
        spec_arg,
        "--fleet-dir",
        fleet_arg,
        "--json",
    ]));
    let served = cli(&[
        "serve",
        "--fleet-dir",
        fleet_arg,
        "--drain",
        "--workers",
        "4",
        "--shards",
        "4",
        "--poll-ms",
        "5",
        "--json",
    ]);
    assert!(served.status.success(), "serve failed: {served:?}");

    assert_eq!(
        store_report(&fleet, &key),
        reference_bytes(&spec),
        "a 4-worker 4-shard run must be byte-identical to the single-process run"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_worker_killed_mid_shard_does_not_change_the_bytes() {
    let dir = scratch_dir("kill-worker");
    let fleet = dir.join("fleet");
    let fleet_arg = fleet.to_str().expect("utf-8");
    // A heavier sampled job: enough rounds per shard that a claim is held
    // long enough to be killed while executing.
    let spec = write_spec(&dir, &sampled_spec(64, 16));
    let spec_arg = spec.to_str().expect("utf-8");

    let key = submitted_key(&cli(&[
        "submit",
        "--spec",
        spec_arg,
        "--fleet-dir",
        fleet_arg,
        "--json",
    ]));
    let mut server = spawn_cli(&[
        "serve",
        "--fleet-dir",
        fleet_arg,
        "--drain",
        "--workers",
        "1",
        "--shards",
        "4",
        "--poll-ms",
        "5",
        "--stall-timeout-ms",
        "60000",
    ]);

    // The claim file name carries the worker's pid: wait for one, then
    // kill that process outright.  Reclaim must steal the shard (the pid
    // is dead) and the respawned worker must finish the job.
    let claims = fleet.join("claims");
    let mut victim = None;
    wait_until("a worker claim", || {
        victim = fs::read_dir(&claims).ok().and_then(|entries| {
            entries.flatten().find_map(|entry| {
                let name = entry.file_name().into_string().ok()?;
                name.rsplit('.').next()?.parse::<u32>().ok()
            })
        });
        victim.is_some()
    });
    let victim = victim.expect("a claimed shard");
    assert_ne!(victim, std::process::id(), "the claim belongs to a worker");
    let killed = Command::new("kill")
        .args(["-9", &victim.to_string()])
        .status()
        .expect("kill runs")
        .success();

    let status = server.wait().expect("server exits");
    assert!(status.success(), "serve must survive the worker's death");
    assert!(killed, "the victim worker was alive when killed");
    assert_eq!(
        store_report(&fleet, &key),
        reference_bytes(&spec),
        "a stolen shard must not change the report"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_server_killed_mid_job_recovers_to_identical_bytes() {
    let dir = scratch_dir("kill-server");
    let fleet = dir.join("fleet");
    let fleet_arg = fleet.to_str().expect("utf-8");
    let spec = write_spec(&dir, &sampled_spec(64, 16));
    let spec_arg = spec.to_str().expect("utf-8");

    let key = submitted_key(&cli(&[
        "submit",
        "--spec",
        spec_arg,
        "--fleet-dir",
        fleet_arg,
        "--json",
    ]));
    // Inline execution (no worker children): killing the server also
    // kills the executor mid-shard, the deepest crash window.
    let mut server = spawn_cli(&[
        "serve",
        "--fleet-dir",
        fleet_arg,
        "--drain",
        "--workers",
        "0",
        "--shards",
        "4",
        "--poll-ms",
        "5",
    ]);

    // Wait until at least one shard result has landed, so the restarted
    // server must merge pre-crash work, then kill the server outright.
    let results = fleet.join("results");
    wait_until("a landed shard result", || {
        fs::read_dir(&results).is_ok_and(|entries| entries.flatten().next().is_some())
    });
    server.kill().expect("kill the server");
    let _ = server.wait();
    assert!(
        store_report_missing(&fleet, &key),
        "the kill landed before the job published"
    );

    let served = cli(&[
        "serve",
        "--fleet-dir",
        fleet_arg,
        "--drain",
        "--workers",
        "0",
        "--poll-ms",
        "5",
        "--json",
    ]);
    assert!(
        served.status.success(),
        "restarted serve failed: {served:?}"
    );
    assert!(
        String::from_utf8_lossy(&served.stdout).contains("\"jobs_run\":1"),
        "recovery re-queues and re-runs the interrupted job"
    );
    assert_eq!(
        store_report(&fleet, &key),
        reference_bytes(&spec),
        "recovery must reproduce the uninterrupted bytes"
    );
    let _ = fs::remove_dir_all(&dir);
}

fn store_report_missing(fleet: &Path, key: &str) -> bool {
    !fleet.join("store").join(key).join("meta.json").is_file()
}
