//! The LAEC campaign benchmark.
//!
//! ```text
//! laec-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                [--out-dir DIR] [--perturb-reference]
//! laec-perfbench --workload NAME --seed N --write-reference
//! laec-perfbench --workload NAME --seed N --dump-spec
//! ```
//!
//! `--trace 0` runs the workload's campaign through `Campaign::run` with
//! one thread, back to back for `S` seconds, checks every cell of every run
//! against the reference and prints the end-to-end metrics.  `--trace 1`
//! drives the same cells through each layer's public functions inside
//! spans and prints the per-layer metrics derived from the span file.  The
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.  A failed check exits with code 1.  `perfbench/README.md`
//! describes the workloads and metrics.

mod check;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use laec_core::spec::{Campaign, CampaignOutcome};

use check::{Digests, Reference};
use stats::Summary;
use workloads::Workload;

/// Timed `Campaign::run` calls made even when `--seconds` is shorter.
const MIN_RUNS: usize = 3;
/// Set-up repetitions before each timed run; `setup_s` is the median of
/// all of them, so it samples the whole measuring period.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
    perturb_reference: bool,
    write_reference: bool,
    dump_spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::FullGrid,
        seed: workloads::DEFAULT_SEED,
        seconds: 10,
        trace: false,
        out_dir: PathBuf::from(".bench_results"),
        perturb_reference: false,
        write_reference: false,
        dump_spec: false,
    };
    let mut workload = None;
    let mut rest = std::env::args().skip(1);
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{flag} needs a value"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|e| format!("{flag} `{text}`: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload `{name}` (expected one of {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--perturb-reference" => args.perturb_reference = true,
            "--write-reference" => args.write_reference = true,
            "--dump-spec" => args.dump_spec = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One reported metric with the samples behind it.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric whose value is the median of `samples`.
    pub fn median(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        let value = Summary::of(samples).map_or(0.0, |s| s.median);
        Metric::total(name, unit, value, samples)
    }

    /// A metric with a value of its own (a total or a ratio of totals),
    /// optionally with the per-cell samples it aggregates.
    pub fn total(name: &str, unit: &'static str, value: f64, samples: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: samples.to_vec(),
        }
    }

    pub fn summary(&self) -> Option<Summary> {
        Summary::of(&self.samples)
    }
}

/// What a run found and measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks beyond the per-unit digests (layer results that disagree with
    /// the campaign's report); any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Metrics for the final JSON line.
    pub metrics: Vec<Metric>,
    /// Printed and saved, but not in the final JSON line.
    pub extra: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("laec-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec(args.seed);
    if args.dump_spec {
        print!("{}", spec.to_json());
        return ExitCode::SUCCESS;
    }
    if args.write_reference {
        let reference = Reference::compute(args.workload, args.seed);
        let path =
            PathBuf::from("perfbench/reference").join(format!("{}.txt", args.workload.name()));
        if let Err(e) = std::fs::write(&path, reference.render(args.workload, args.seed)) {
            eprintln!("laec-perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
        return ExitCode::SUCCESS;
    }

    let mut reference = match Reference::for_seed(args.workload, args.seed) {
        Ok(reference) => reference,
        Err(message) => {
            eprintln!("laec-perfbench: committed reference unreadable: {message}");
            return ExitCode::FAILURE;
        }
    };
    if args.perturb_reference {
        reference.perturb();
    }
    println!(
        "laec-perfbench workload={} seed={} seconds={} trace={} threads=1",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let calibration_ms = calibration_ms();
    let outcome = if args.trace {
        traced::run(&args, &reference)
    } else {
        untraced(&args, &reference)
    };
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    report(&args, &outcome, correct, calibration_ms);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end measurement: back-to-back single-threaded
/// `Campaign::run` calls, each checked against the reference.
fn untraced(args: &Args, reference: &Reference) -> Outcome {
    let spec = args.workload.spec(args.seed);
    // Set-up: spec validation plus workload generation.
    let mut setup = Vec::new();
    let mut set_up = || {
        for _ in 0..SETUP_REPS {
            let spec = spec.clone();
            let start = Instant::now();
            let validated = spec.validate().expect("benchmark specs validate");
            let workloads = validated.grid().materialize_workloads();
            setup.push(start.elapsed().as_secs_f64());
            std::hint::black_box(workloads);
        }
    };

    let campaign = Campaign::new(spec.clone().validate().expect("benchmark specs validate"));
    let mut attempted = 0;
    let mut failed = 0;
    let mut check_run = |outcome: &std::thread::Result<CampaignOutcome>| {
        let units = reference.digests.units.len() as u64;
        attempted += units;
        failed += match outcome {
            Ok(outcome) => Digests::of(outcome).mismatches(&reference.digests),
            Err(_) => units,
        };
    };
    // Warm-up run, checked like the rest but not timed.
    check_run(&catch_unwind(AssertUnwindSafe(|| campaign.run(1))));

    let mut cells_per_s = Vec::new();
    let mut mips = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut runs = 0;
    while runs < MIN_RUNS || start.elapsed() < budget {
        runs += 1;
        set_up();
        let run_start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| campaign.run(1)));
        let seconds = run_start.elapsed().as_secs_f64();
        check_run(&outcome);
        if let Ok(outcome) = outcome {
            let (cells, instructions) = work_done(&outcome, reference);
            cells_per_s.push(cells as f64 / seconds);
            mips.push(instructions as f64 / seconds / 1e6);
        }
    }

    let fail_ratio = failed as f64 / attempted as f64;
    Outcome {
        attempted,
        failed,
        problems: Vec::new(),
        metrics: vec![
            Metric::median("cells_per_s", "cells/s", &cells_per_s),
            Metric::median("sim_mips", "Minstr/s", &mips),
            Metric::median("setup_s", "s", &setup),
            Metric::total("peak_rss_mb", "MiB", peak_rss_mib(), &[]),
        ],
        extra: vec![Metric::total("fail_ratio", "ratio", fail_ratio, &[])],
    }
}

/// Cells (or sampled runs) completed, and simulated instructions retired,
/// by one campaign.
fn work_done(outcome: &CampaignOutcome, reference: &Reference) -> (u64, u64) {
    match outcome {
        CampaignOutcome::Grid { report, .. } => (
            report.cells.len() as u64,
            report.cells.iter().map(|c| c.instructions).sum(),
        ),
        // Each stratum retires its fault-free instruction count once for
        // the recording and once per sample.
        CampaignOutcome::Sampled { report, .. } => (
            report.total_samples,
            report
                .strata
                .iter()
                .zip(&reference.instructions)
                .map(|(stratum, instructions)| (stratum.samples + 1) * instructions)
                .sum(),
        ),
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A fixed pure-ALU loop, timed once: host metadata for comparing result
/// files across machines (not a metric — dividing by it did not reduce
/// run-to-run noise).
fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..(1u32 << 26) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "metrics are finite by construction");
    format!("{value}")
}

fn report(args: &Args, outcome: &Outcome, correct: bool, calibration_ms: f64) {
    for metric in outcome.metrics.iter().chain(&outcome.extra) {
        let spread = metric.summary().map_or(String::new(), |s| {
            format!(
                "  median {:.6} q1 {:.6} q3 {:.6} n {}",
                s.median, s.q1, s.q3, s.n
            )
        });
        println!(
            "  {:<32} {:>16.6} {:<9}{spread}",
            metric.name, metric.value, metric.unit
        );
    }
    for problem in &outcome.problems {
        println!("  CHECK FAILED: {problem}");
    }
    println!(
        "  check: {} of {} units failed{}",
        outcome.failed,
        outcome.attempted,
        if correct { "" } else { " — INCORRECT" }
    );

    let metric_json = |metric: &Metric, detail: bool| {
        let mut json = format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
            metric.name,
            json_number(metric.value),
            metric.unit
        );
        if let (true, Some(s)) = (detail, metric.summary()) {
            json.push_str(&format!(
                ",\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"samples\":[{}]",
                json_number(s.median),
                json_number(s.q1),
                json_number(s.q3),
                s.n,
                metric
                    .samples
                    .iter()
                    .map(|&v| json_number(v))
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
        json.push('}');
        json
    };
    let head = format!(
        "\"correct\":{correct},\"attempted\":{},\"failed\":{}",
        outcome.attempted, outcome.failed
    );
    let detailed: Vec<String> = outcome
        .metrics
        .iter()
        .chain(&outcome.extra)
        .map(|m| metric_json(m, true))
        .collect();
    let results = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},{head},\
         \"host\":{{\"calibration_ms\":{},\"available_parallelism\":{}}},\"metrics\":{{{}}}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_number(calibration_ms),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        detailed.join(",")
    );
    let path = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, results)) {
        Ok(()) => println!("  results: {}", path.display()),
        Err(e) => eprintln!("laec-perfbench: writing {}: {e}", path.display()),
    }

    let brief: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| metric_json(m, false))
        .collect();
    println!("{{{head},\"metrics\":{{{}}}}}", brief.join(","));
}
