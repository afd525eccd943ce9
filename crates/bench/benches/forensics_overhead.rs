//! Forensics overhead: the zero-cost claim of the fault-forensics layer.
//!
//! The per-fault lifecycle hooks are Option-gated (`ForensicsLog` is `None`
//! unless a run asks for forensics), so a plain campaign pays one
//! `is_some()` branch per hook site and nothing else.  This bench runs the
//! golden CI spec (`specs/ci_smoke.json`) both ways and prints the measured
//! overhead of each path:
//!
//! * `campaign_plain` — the disabled path, which must stay within noise
//!   (<1 %) of the pre-forensics baseline (`BENCH_forensics_overhead.json`
//!   committed under `bench_baselines/` is the trajectory CI artifacts are
//!   compared against),
//! * `campaign_forensic` — the enabled path, whose cost is the price of a
//!   per-fault record stream plus outcome classification.

use criterion::{criterion_group, criterion_main, Criterion};
use laec_bench::{run_full, run_mode_with};
use laec_core::campaign::CampaignSpec as GridSpec;
use laec_core::{CampaignReport, ExecutionMode, ForensicsReport, RunOptions};
use std::hint::black_box;
use std::time::Instant;

/// The golden CI spec's grid axes, loaded from the committed file so this
/// bench and the CI determinism gates measure the same campaign.
fn golden_grid() -> GridSpec {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/ci_smoke.json");
    let text = std::fs::read_to_string(path).expect("specs/ci_smoke.json is committed");
    laec_core::spec::CampaignSpec::from_json(&text)
        .expect("golden spec parses")
        .grid
}

/// Full-simulation mode with per-fault lifecycle forensics enabled.
fn run_traced(spec: &GridSpec) -> (CampaignReport, Option<ForensicsReport>) {
    let options = RunOptions {
        forensics: true,
        ..RunOptions::default()
    };
    let (outcome, forensics) = run_mode_with(spec, ExecutionMode::Full, 1, &options);
    (outcome.into_grid().expect("grid report"), forensics)
}

fn report_overhead(spec: &GridSpec) {
    let runs = 5u32;
    let start = Instant::now();
    for _ in 0..runs {
        black_box(run_full(spec, 1));
    }
    let plain = start.elapsed();
    let start = Instant::now();
    let mut faults = 0;
    for _ in 0..runs {
        let (report, forensics) = run_traced(spec);
        faults = forensics.as_ref().map_or(0, |f| f.total_faults());
        black_box((report, forensics));
    }
    let forensic = start.elapsed();
    println!(
        "forensics: plain {:?} vs enabled {:?} -> +{:.2}% with {} fault lifecycles traced \
         (disabled-path hooks are Option-gated; their cost is the plain number itself)",
        plain / runs,
        forensic / runs,
        100.0 * (forensic.as_secs_f64() / plain.as_secs_f64() - 1.0),
        faults,
    );
}

fn bench(c: &mut Criterion) {
    let spec = golden_grid();
    report_overhead(&spec);
    let mut group = c.benchmark_group("forensics_overhead");
    group.sample_size(10);
    group.bench_function("campaign_plain", |b| {
        b.iter(|| black_box(run_full(&spec, 1).total_jobs))
    });
    group.bench_function("campaign_forensic", |b| {
        b.iter(|| {
            let (report, forensics) = run_traced(&spec);
            black_box((report.total_jobs, forensics.map(|f| f.total_faults())))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
