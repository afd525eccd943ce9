//! The traced run: the workload's cells driven through each layer's public
//! functions from here, one span per call, and the per-layer metrics
//! derived from the spans' self times as read back from the span file.
//!
//! Two root spans split the run.  `bench.replica` does exactly the work
//! `Campaign::run` does for the workload, call by call (its length against
//! the untraced run is the tracing overhead).  `bench.probes` then drives
//! the same cells through the layers the campaign does not isolate: trace
//! record/encode/decode/replay, the memory hierarchy fed the recorded
//! access stream without a pipeline, batched ECC loops, the sampler, and
//! the 1-core SMP system.  Every layer result that the campaign's report
//! also contains is checked against it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use laec_core::campaign::CampaignSpec as Grid;
use laec_core::spec::ExecutionMode;
use laec_core::{
    record_cell, replay_cell_events, run_observed_core, run_with_config, CampaignCell,
    PlatformVariant, SampleExecution, Sampler, SamplingPlan,
};
use laec_ecc::CodeKind;
use laec_mem::{FaultCampaignConfig, MemorySystem};
use laec_pipeline::{EccScheme, SimResult};
use laec_trace::{Trace, TraceDetail, TraceEvent};
use laec_workloads::Workload as Program;

use crate::check::{self, Digests, Reference};
use crate::spans::{read_self_times, FileSpan, Tracer};
use crate::workloads::{self, Job, Workload};
use crate::{Args, Metric, Outcome};

/// Replica passes, each right after an untraced `Campaign::run`; the
/// tracing overhead is the median of their pairwise ratios.
const REPLICA_PASSES: usize = 3;
/// Spec validations per `core.validate` span (one takes about a µs).
const VALIDATIONS: usize = 2_000;
/// `workloads.materialize` spans in the probe phase.
const MATERIALIZE_REPS: usize = 10;
/// `core.render` spans.
const RENDER_REPS: usize = 5;
/// Sample seeds per stratum replayed by the `sampled_replay` probes.
const PROBE_SAMPLES: u64 = 4;
/// Per-stratum budget of the sampler probe on the grid workloads.
const PROBE_SAMPLE_BUDGET: u64 = 16;
/// Codec calls per ECC span (≈ 4 ms at the ≈ 17 ns an encode costs).
const ECC_OPS: usize = 1 << 18;
/// Spans per ECC loop.
const ECC_REPS: usize = 5;
/// Distinct stored values the ECC loops cycle through.
const ECC_VALUES: usize = 1 << 16;

/// What the run learnt about one cell, keyed by the span cell id.
#[derive(Debug, Default, Clone)]
struct CellInfo {
    /// The cell's own platform is the write-back one.
    write_back: bool,
    /// The cell's scheme protects the DL1 with SEC-DED.
    secded: bool,
    instructions: u64,
    cycles: u64,
    faulty_instructions: u64,
    smp_instructions: u64,
    events: u64,
    encoded_bytes: u64,
    /// Faults injected by the fault replays that completed.
    replay_faults: u64,
    wb_accesses: u64,
    wt_accesses: u64,
    wb_dl1_reads: u64,
    wb_dl1_writes: u64,
}

/// One fault-free single-core cell the probes drive through the layers.
struct Probe {
    job: Job,
    scheme: EccScheme,
    platform: PlatformVariant,
    faults: Vec<FaultCampaignConfig>,
}

#[derive(Default)]
struct MemTotals {
    dl1_hits: u64,
    dl1_accesses: u64,
    l2_accesses: u64,
    bus_transactions: u64,
}

/// What the samplers reported: (replayed, fell back) per round of every
/// sampler driven, in round-span order, and the first sampler's totals
/// (rounds, replayed, fell back) — one campaign's worth.
#[derive(Default)]
struct SamplerCounts {
    rounds: Vec<(u64, u64)>,
    campaign: Option<(u64, u64, u64)>,
}

pub fn run(args: &Args, reference: &Reference) -> Outcome {
    let workload = args.workload;
    let spec = workload.spec(args.seed);
    let grid = spec.grid();
    let mut problems = Vec::new();
    let mut tracer = Tracer::new();
    let mut cells: BTreeMap<u64, CellInfo> = BTreeMap::new();
    let mut sampler_counts = SamplerCounts::default();
    let mut smp_counts = (0u64, 0u64); // (snoop lookups, bus transactions)

    // ---- replica: the campaign's own work, call by call, alternating
    // with plain campaign runs (checked like any other) ----
    let mut attempted = 0;
    let mut failed = 0;
    let mut untraced = Vec::new();
    let mut outcome = check::run(spec.clone()); // warm-up
    let mut programs = Vec::new();
    for pass in 0..REPLICA_PASSES {
        let start = Instant::now();
        outcome = check::run(spec.clone());
        untraced.push(start.elapsed().as_secs_f64());
        attempted += reference.digests.units.len() as u64;
        failed += Digests::of(&outcome).mismatches(&reference.digests);

        let replica = tracer.open("bench.replica", None);
        programs = tracer.span("workloads.materialize", None, || {
            grid.materialize_workloads()
        });
        let report_cells: &[CampaignCell] = outcome.grid().map_or(&[], |r| &r.cells);
        match &spec.mode {
            ExecutionMode::Sampled { plan, execution } => {
                let sampler =
                    drive_sampler(&mut tracer, &grid, plan, execution, &mut sampler_counts);
                let digest = laec_core::hash128(sampler.report().to_json().as_bytes());
                if digest != reference.digests.report {
                    problems
                        .push("sampler driven round by round disagrees with the reference".into());
                }
            }
            _ => {
                for job in &workloads::jobs(&grid, programs.len()) {
                    let platform = grid.platforms[job.platform];
                    let mut config = workloads::clean_config(grid.schemes[job.scheme], platform);
                    if let Some(fault) = job.fault {
                        config =
                            config.with_fault_campaign(workloads::job_fault(&grid, job, fault));
                    }
                    let program = &programs[job.workload];
                    let info = cells.entry(job.id).or_default();
                    let result = if platform.cores() > 1 {
                        let result = tracer.span("smp.run", Some(job.id), || {
                            run_observed_core(program, config, platform.cores(), grid.protocol)
                        });
                        info.smp_instructions = result.stats.instructions;
                        if pass == 0 {
                            smp_counts.0 += result.stats.mem.snoop_lookups;
                            smp_counts.1 += result.stats.mem.bus_transactions;
                        }
                        result
                    } else {
                        let name = if job.fault.is_some() {
                            "pipeline.run_faulty"
                        } else {
                            "pipeline.run"
                        };
                        let result =
                            tracer.span(name, Some(job.id), || run_with_config(program, config));
                        note_pipeline(info, job.fault.is_some(), &result);
                        result
                    };
                    if let Some(problem) = agrees(&result, report_cells.get(job.id as usize)) {
                        problems.push(format!("cell {}: {problem}", job.id));
                    }
                }
            }
        }
        tracer.close(replica);
    }
    let jobs = workloads::jobs(&grid, programs.len());

    // ---- probes: the same cells, layer by layer ----
    let probes_root = tracer.open("bench.probes", None);
    let specs: Vec<_> = (0..VALIDATIONS).map(|_| spec.clone()).collect();
    tracer.span("core.validate", None, || {
        for spec in specs {
            black_box(spec.validate().expect("benchmark specs validate"));
        }
    });
    for _ in 0..MATERIALIZE_REPS {
        black_box(tracer.span("workloads.materialize", None, || {
            grid.materialize_workloads()
        }));
    }
    for _ in 0..RENDER_REPS {
        tracer.span("core.render", None, || {
            black_box((outcome.render(), outcome.to_json()))
        });
    }

    let probes = probes(workload, &grid, &jobs);
    let mut mem = MemTotals::default();
    let mut store_values: Vec<u32> = Vec::new();
    for probe in &probes {
        let program = &programs[probe.job.workload];
        let id = probe.job.id;
        let clean = workloads::clean_config(probe.scheme, probe.platform);
        {
            let info = cells.entry(id).or_default();
            info.write_back = probe.platform == PlatformVariant::WriteBack;
            info.secded = clean.hierarchy.dl1.protection == CodeKind::Hsiao39_32;
        }
        if workload != Workload::FullGrid {
            // The grid workload ran these in the replica already.
            let result = tracer.span("pipeline.run", Some(id), || {
                run_with_config(program, clean.clone())
            });
            note_pipeline(cells.entry(id).or_default(), false, &result);
            if let Some(&fault) = probe.faults.first() {
                let config = clean.clone().with_fault_campaign(fault);
                let result = tracer.span("pipeline.run_faulty", Some(id), || {
                    run_with_config(program, config)
                });
                note_pipeline(cells.entry(id).or_default(), true, &result);
            }
        }

        let (recorded, trace) = tracer.span("trace.record", Some(id), || {
            record_cell(
                &grid,
                program,
                probe.scheme,
                probe.platform,
                TraceDetail::Replay,
            )
        });
        let info = cells.entry(id).or_default();
        if recorded.cycles != info.cycles || recorded.instructions != info.instructions {
            problems.push(format!(
                "cell {id}: recording disagrees with the pipeline run"
            ));
        }
        info.events += trace.header.event_count;
        let bytes = tracer.span("trace.encode", Some(id), || trace.encode());
        info.encoded_bytes += bytes.len() as u64;
        let decoded = tracer.span("trace.decode", Some(id), || Trace::decode(&bytes));
        if decoded.as_ref() != Ok(&trace) {
            problems.push(format!("cell {id}: trace container does not round-trip"));
        }
        let events = tracer
            .span("trace.decode_events", Some(id), || trace.decode_events())
            .expect("a fresh recording decodes");

        for (name, platform) in [
            ("mem.access.wb", PlatformVariant::WriteBack),
            ("mem.access.wt", PlatformVariant::WriteThrough),
        ] {
            let mut system =
                MemorySystem::new(workloads::clean_config(probe.scheme, platform).hierarchy);
            system.reserve_memory(program.program.data().len());
            for &(address, value) in program.program.data() {
                system.preload_word(address, value);
            }
            let accesses = tracer.span(name, Some(id), || drive_hierarchy(&mut system, &events));
            let stats = system.stats();
            mem.dl1_hits += stats.dl1.read_hits + stats.dl1.write_hits;
            mem.dl1_accesses += stats.dl1.accesses();
            mem.l2_accesses += stats.l2.accesses();
            mem.bus_transactions += stats.bus_transactions;
            let info = cells.entry(id).or_default();
            if platform == PlatformVariant::WriteBack {
                info.wb_accesses += accesses;
                info.wb_dl1_reads += stats.dl1.reads();
                info.wb_dl1_writes += stats.dl1.writes();
            } else {
                info.wt_accesses += accesses;
            }
        }
        if store_values.len() < ECC_VALUES {
            store_values.extend(events.iter().filter_map(|event| match event {
                TraceEvent::MemWrite { value, .. } => Some(*value),
                _ => None,
            }));
        }

        let replayed = tracer.span("trace.replay", Some(id), || {
            replay_cell_events(&grid, &trace, &events, program, None, None)
        });
        if replayed.map(|c| c.memory_checksum) != Ok(recorded.memory_checksum) {
            problems.push(format!(
                "cell {id}: fault-free replay disagrees with the recording"
            ));
        }
        for &fault in &probe.faults {
            let result = tracer.span("trace.replay_faulty", Some(id), || {
                replay_cell_events(&grid, &trace, &events, program, Some(fault), None)
            });
            match result {
                Ok(cell) => {
                    cells.entry(id).or_default().replay_faults +=
                        cell.faults_injected + cell.meta_faults_injected;
                }
                Err(_) => tracer.relabel_last("trace.replay_diverged"),
            }
        }

        if probe.platform == PlatformVariant::WriteBack {
            let result = tracer.span("smp.one_core", Some(id), || {
                run_observed_core(program, clean.clone(), 1, grid.protocol)
            });
            if result.stats.cycles != cells[&id].cycles {
                problems.push(format!(
                    "cell {id}: 1-core SMP run disagrees with the pipeline"
                ));
            }
            if workload != Workload::SmpMeta {
                smp_counts.0 += result.stats.mem.snoop_lookups;
                smp_counts.1 += result.stats.mem.bus_transactions;
            }
        }
    }

    if workload != Workload::SampledReplay {
        let (plan, execution, probe_grid) = sampler_probe(&grid);
        drive_sampler(
            &mut tracer,
            &probe_grid,
            &plan,
            &execution,
            &mut sampler_counts,
        );
    }
    store_values.truncate(ECC_VALUES);
    ecc_loops(&mut tracer, &store_values);
    tracer.close(probes_root);

    // ---- the span file, and every number from it ----
    let path = args
        .out_dir
        .join(format!("spans-{}-seed{}.json", workload.name(), args.seed));
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, tracer.chrome_json()))
        .map_err(|e| e.to_string())
        .and_then(|()| std::fs::read_to_string(&path).map_err(|e| e.to_string()))
        .and_then(|text| read_self_times(&text));
    let spans = match written {
        Ok(spans) => spans,
        Err(e) => {
            problems.push(format!("span file {}: {e}", path.display()));
            Vec::new()
        }
    };
    println!("  spans: {}", path.display());
    let table = SpanTable::new(spans);
    let (metrics, extra) = derive_metrics(
        &table,
        &cells,
        &programs,
        &mem,
        &sampler_counts,
        smp_counts,
        workload,
        &untraced,
        &mut problems,
    );
    Outcome {
        attempted,
        failed,
        problems,
        metrics,
        extra,
    }
}

fn note_pipeline(info: &mut CellInfo, faulty: bool, result: &SimResult) {
    if faulty {
        info.faulty_instructions = result.stats.instructions;
    } else {
        info.instructions = result.stats.instructions;
        info.cycles = result.stats.cycles;
    }
}

/// `None` when a layer's result agrees with the report's cell.
fn agrees(result: &SimResult, cell: Option<&CampaignCell>) -> Option<String> {
    let cell = cell?;
    let ours = (
        result.stats.cycles,
        result.stats.instructions,
        result.memory_checksum,
        result.stats.faults_injected,
    );
    let theirs = (
        cell.cycles,
        cell.instructions,
        cell.memory_checksum,
        cell.faults_injected,
    );
    (ours != theirs).then(|| format!("layer gave {ours:?}, report has {theirs:?}"))
}

/// The fault-free single-core cells the probes drive, with the fault
/// campaigns their replays use: the grid's own fault axis, or the first
/// sample seeds of each stratum.  `smp_meta`'s cells run on core 0 of the
/// write-back platform.
fn probes(workload: Workload, grid: &Grid, jobs: &[Job]) -> Vec<Probe> {
    jobs.iter()
        .filter(|job| job.fault.is_none())
        .map(|job| {
            let faults = match workload {
                Workload::SampledReplay => (0..PROBE_SAMPLES)
                    .map(|index| workloads::sample_fault(grid, job, index))
                    .collect(),
                _ => (0..grid.fault_seeds.len())
                    .map(|fault| workloads::job_fault(grid, job, fault))
                    .collect(),
            };
            let platform = match grid.platforms[job.platform] {
                PlatformVariant::Smp(_) => PlatformVariant::WriteBack,
                other => other,
            };
            Probe {
                job: *job,
                scheme: grid.schemes[job.scheme],
                platform,
                faults,
            }
        })
        .collect()
}

/// Feeds a recorded access stream to a memory hierarchy, at the recorded
/// cycles; returns the accesses made.
fn drive_hierarchy(system: &mut MemorySystem, events: &[TraceEvent]) -> u64 {
    let mut accesses = 0;
    for event in events {
        match *event {
            TraceEvent::MemRead { address, cycle, .. } => {
                black_box(system.load_word(address, cycle));
                accesses += 1;
            }
            TraceEvent::MemWrite {
                address,
                cycle,
                value,
                byte_mask,
                ..
            } => {
                black_box(system.store_word_masked(address, value, byte_mask, cycle));
                accesses += 1;
            }
            _ => {}
        }
    }
    accesses
}

/// A trace-backed sampled campaign over the grid workload's cells, on
/// single-core platforms, with a small fixed budget.
fn sampler_probe(grid: &Grid) -> (SamplingPlan, SampleExecution, Grid) {
    let mut probe = grid.clone();
    probe.fault_seeds.clear();
    for platform in &mut probe.platforms {
        if platform.cores() > 1 {
            *platform = PlatformVariant::WriteBack;
        }
    }
    let mut plan = SamplingPlan::new(PROBE_SAMPLE_BUDGET);
    plan.min_samples = PROBE_SAMPLE_BUDGET;
    plan.batch = PROBE_SAMPLE_BUDGET;
    (
        plan,
        SampleExecution::TraceBacked { cache_dir: None },
        probe,
    )
}

/// `Sampler::new`, then one span per round until every stratum is done.
/// The span's cell id is the round number.
fn drive_sampler(
    tracer: &mut Tracer,
    grid: &Grid,
    plan: &SamplingPlan,
    execution: &SampleExecution,
    counts: &mut SamplerCounts,
) -> Sampler {
    let mut sampler = tracer.span("core.sampler_new", None, || {
        Sampler::new(grid, plan, execution, 1)
    });
    let first_round = counts.rounds.len();
    while !sampler.complete() {
        let before = sampler.trace_stats();
        let round = counts.rounds.len() as u64;
        tracer.span("core.round", Some(round), || sampler.run_rounds(1, Some(1)));
        let after = sampler.trace_stats();
        counts.rounds.push((
            after.replayed - before.replayed,
            after.fallbacks - before.fallbacks,
        ));
    }
    let stats = sampler.trace_stats();
    let rounds = (counts.rounds.len() - first_round) as u64;
    counts
        .campaign
        .get_or_insert((rounds, stats.replayed, stats.fallbacks));
    sampler
}

/// Batched codec loops over the values the cells store.
fn ecc_loops(tracer: &mut Tracer, values: &[u32]) {
    let values: Vec<u64> = if values.is_empty() {
        vec![0x5A5A_5A5A]
    } else {
        values.iter().map(|&v| u64::from(v)).collect()
    };
    let hsiao = CodeKind::Hsiao39_32.instantiate();
    let parity = CodeKind::EvenParity32.instantiate();
    let checks: Vec<u64> = values.iter().map(|&v| hsiao.encode(v)).collect();
    let flipped: Vec<u64> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| v ^ (1 << (i % 32)))
        .collect();
    for (i, &data) in flipped.iter().enumerate() {
        let decoded = hsiao.decode(data, checks[i]);
        assert!(
            decoded.outcome.is_corrected() && decoded.data == values[i],
            "a single flipped data bit is corrected"
        );
    }
    for _ in 0..ECC_REPS {
        batched(tracer, "ecc.hsiao39_32.encode", &values, |_, v| {
            hsiao.encode(v)
        });
        batched(tracer, "ecc.hsiao39_32.decode", &values, |i, v| {
            hsiao.decode(v, checks[i]).data
        });
        batched(tracer, "ecc.hsiao39_32.correct", &flipped, |i, v| {
            hsiao.decode(v, checks[i]).data
        });
        batched(tracer, "ecc.parity32.encode", &values, |_, v| {
            parity.encode(v)
        });
    }
}

/// One span around `ECC_OPS` calls of `op`, cycling through `inputs`.
fn batched(
    tracer: &mut Tracer,
    name: &'static str,
    inputs: &[u64],
    op: impl Fn(usize, u64) -> u64,
) {
    tracer.span(name, None, || {
        let mut acc = 0;
        for call in 0..ECC_OPS {
            let i = call % inputs.len();
            acc ^= op(i, black_box(inputs[i]));
        }
        black_box(acc)
    });
}

/// Self times from the span file, by span name and cell.
struct SpanTable {
    /// name → cell → (self ns, spans)
    by_name: BTreeMap<String, BTreeMap<Option<u64>, (u64, u64)>>,
    spans: Vec<FileSpan>,
}

impl SpanTable {
    fn new(spans: Vec<FileSpan>) -> Self {
        let mut by_name: BTreeMap<String, BTreeMap<Option<u64>, (u64, u64)>> = BTreeMap::new();
        for span in &spans {
            let entry = by_name
                .entry(span.name.clone())
                .or_default()
                .entry(span.cell)
                .or_default();
            entry.0 += span.self_ns;
            entry.1 += 1;
        }
        SpanTable { by_name, spans }
    }

    /// (cell, total self ns, spans) of every cell with a span `name`.
    fn cells(&self, name: &str) -> impl Iterator<Item = (Option<u64>, f64, u64)> + '_ {
        self.by_name
            .get(name)
            .into_iter()
            .flat_map(|cells| cells.iter().map(|(cell, &(ns, n))| (*cell, ns as f64, n)))
    }

    /// Total self ns and spans of `name`.
    fn total(&self, name: &str) -> (f64, u64) {
        self.cells(name)
            .fold((0.0, 0), |(ns, n), (_, s, c)| (ns + s, n + c))
    }

    /// Mean self ns of one `name` call on `cell` (0 without one).
    fn mean(&self, name: &str, cell: Option<u64>) -> f64 {
        self.by_name
            .get(name)
            .and_then(|cells| cells.get(&cell))
            .map_or(0.0, |&(ns, n)| ns as f64 / n as f64)
    }

    /// Every span named `name`, in span order.
    fn each<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a FileSpan> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn derive_metrics(
    table: &SpanTable,
    cells: &BTreeMap<u64, CellInfo>,
    programs: &[Program],
    mem: &MemTotals,
    sampler: &SamplerCounts,
    smp_counts: (u64, u64),
    workload: Workload,
    untraced: &[f64],
    problems: &mut Vec<String>,
) -> (Vec<Metric>, Vec<Metric>) {
    let none = CellInfo::default();
    let info = |cell: Option<u64>| cell.and_then(|c| cells.get(&c)).unwrap_or(&none);
    let sum = |field: fn(&CellInfo) -> u64| cells.values().map(field).sum::<u64>() as f64;
    // ns per unit of work: `count` is the work of one call on a cell.
    let unit_cost = |name: &str, count: fn(&CellInfo) -> u64, metric: &str| {
        let mut work = 0.0;
        let mut samples = Vec::new();
        for (cell, ns, n) in table.cells(name) {
            let per_call = count(info(cell)) as f64;
            work += per_call * n as f64;
            if per_call > 0.0 {
                samples.push(ns / (per_call * n as f64));
            }
        }
        Metric::total(metric, "ns", ratio(table.total(name).0, work), &samples)
    };
    // Self time per call, where one span makes `per` calls, in ns ÷ `scale`.
    let per_call = |name: &str, per: f64, unit: &'static str, metric: &str| {
        let scale = if unit == "ms" { 1e6 } else { 1.0 };
        let (ns, n) = table.total(name);
        let each: Vec<f64> = table
            .each(name)
            .map(|s| s.self_ns as f64 / per / scale)
            .collect();
        Metric::total(metric, unit, ratio(ns / per, n as f64) / scale, &each)
    };
    let count = |name: &str, value: f64| Metric::total(name, "count", value, &[]);
    // Mean fault-free pipeline time of the cells `keep` accepts.
    let pipeline_ns = |keep: &dyn Fn(&CellInfo) -> bool| -> f64 {
        table
            .cells("pipeline.run")
            .filter(|(cell, _, _)| keep(info(*cell)))
            .map(|(cell, _, _)| table.mean("pipeline.run", cell))
            .sum()
    };

    let mut m = Vec::new();
    m.push(per_call(
        "workloads.materialize",
        1.0,
        "ms",
        "workloads.gen_ms",
    ));
    let static_instrs: usize = programs.iter().map(|w| w.program.len()).sum();
    m.push(count("workloads.static_instrs", static_instrs as f64));
    m.push(per_call(
        "core.validate",
        VALIDATIONS as f64,
        "ms",
        "core.validate_ms",
    ));
    m.push(per_call("core.render", 1.0, "ms", "core.render_ms"));

    // pipeline
    m.push(unit_cost(
        "pipeline.run",
        |c| c.instructions,
        "pipeline.ns_per_instr",
    ));
    m.push(unit_cost(
        "pipeline.run",
        |c| c.cycles,
        "pipeline.ns_per_cycle",
    ));
    m.push(unit_cost(
        "pipeline.run_faulty",
        |c| c.faulty_instructions,
        "pipeline.faulty_ns_per_instr",
    ));
    m.push(count("pipeline.instructions", sum(|c| c.instructions)));
    m.push(count("pipeline.cycles", sum(|c| c.cycles)));

    // mem
    m.push(unit_cost(
        "mem.access.wb",
        |c| c.wb_accesses,
        "mem.ns_per_access.wb",
    ));
    m.push(unit_cost(
        "mem.access.wt",
        |c| c.wt_accesses,
        "mem.ns_per_access.wt",
    ));
    m.push(count(
        "mem.accesses",
        sum(|c| c.wb_accesses + c.wt_accesses),
    ));
    m.push(Metric::total(
        "mem.dl1_hit_rate",
        "ratio",
        ratio(mem.dl1_hits as f64, mem.dl1_accesses as f64),
        &[],
    ));
    m.push(count("mem.l2_accesses", mem.l2_accesses as f64));
    m.push(count("mem.bus_transactions", mem.bus_transactions as f64));
    let mem_wb: f64 = table
        .cells("mem.access.wb")
        .filter(|(cell, _, _)| info(*cell).write_back)
        .map(|(_, ns, _)| ns)
        .sum();
    let pipeline_wb = pipeline_ns(&|c| c.write_back);
    m.push(Metric::total(
        "mem.sim_share",
        "ratio",
        ratio(mem_wb, pipeline_wb),
        &[],
    ));
    // Faulty replays minus the clean replay of the same trace, per fault.
    let mut extra_ns = 0.0;
    let mut per_fault = Vec::new();
    for (cell, ns, n) in table.cells("trace.replay_faulty") {
        let extra = ns - n as f64 * table.mean("trace.replay", cell);
        extra_ns += extra;
        let faults = info(cell).replay_faults;
        if faults > 0 {
            per_fault.push(extra / faults as f64);
        }
    }
    let faults = sum(|c| c.replay_faults);
    m.push(Metric::total(
        "mem.ns_per_fault",
        "ns",
        ratio(extra_ns, faults),
        &per_fault,
    ));
    m.push(count("mem.faults_injected", faults));

    // ecc: batched loops, ECC_OPS calls per span
    let mut ecc = BTreeMap::new();
    for (span, metric) in [
        ("ecc.hsiao39_32.encode", "ecc.hsiao39_32.encode_ns"),
        ("ecc.hsiao39_32.decode", "ecc.hsiao39_32.decode_ns"),
        ("ecc.hsiao39_32.correct", "ecc.hsiao39_32.correct_ns"),
        ("ecc.parity32.encode", "ecc.parity32.encode_ns"),
    ] {
        let metric = per_call(span, ECC_OPS as f64, "ns", metric);
        ecc.insert(span, metric.value);
        m.push(metric);
    }
    // SEC-DED DL1 reads decode and writes encode, on the write-back cells.
    let secded = |c: &CellInfo| c.write_back && c.secded;
    let (reads, writes) = cells
        .values()
        .filter(|c| secded(c))
        .fold((0, 0), |(r, w), c| {
            (r + c.wb_dl1_reads, w + c.wb_dl1_writes)
        });
    let codec_ns =
        ecc["ecc.hsiao39_32.decode"] * reads as f64 + ecc["ecc.hsiao39_32.encode"] * writes as f64;
    m.push(Metric::total(
        "ecc.est_share",
        "ratio",
        ratio(codec_ns, pipeline_ns(&secded)),
        &[],
    ));

    // trace
    let events = sum(|c| c.events);
    let mut record_extra = 0.0;
    let mut record_samples = Vec::new();
    for (cell, ns, _) in table.cells("trace.record") {
        let extra = ns - table.mean("pipeline.run", cell);
        record_extra += extra;
        let n = info(cell).events;
        if n > 0 {
            record_samples.push(extra / n as f64);
        }
    }
    m.push(Metric::total(
        "trace.record_ns_per_event",
        "ns",
        ratio(record_extra, events),
        &record_samples,
    ));
    m.push(unit_cost(
        "trace.encode",
        |c| c.events,
        "trace.encode_ns_per_event",
    ));
    let decode = unit_cost("trace.decode", |c| c.events, "trace.decode_ns_per_event");
    let decode_events = unit_cost("trace.decode_events", |c| c.events, "-");
    let samples: Vec<f64> = decode
        .samples
        .iter()
        .zip(&decode_events.samples)
        .map(|(a, b)| a + b)
        .collect();
    m.push(Metric::total(
        "trace.decode_ns_per_event",
        "ns",
        decode.value + decode_events.value,
        &samples,
    ));
    m.push(Metric::total(
        "trace.bytes_per_event",
        "B",
        ratio(sum(|c| c.encoded_bytes), events),
        &[],
    ));
    m.push(unit_cost(
        "trace.replay",
        |c| c.events,
        "trace.replay_ns_per_event",
    ));
    let (rounds, replayed, fallbacks) = sampler.campaign.unwrap_or_default();
    m.push(Metric::total(
        "trace.replay_useful_ratio",
        "ratio",
        ratio(replayed as f64, (replayed + fallbacks) as f64),
        &[],
    ));
    m.push(count("trace.events", events));

    // core: the sampler
    m.push(per_call(
        "core.sampler_new",
        1.0,
        "ms",
        "core.sampler_new_ms",
    ));
    m.push(per_call("core.round", 1.0, "ms", "core.round_ms"));
    // A round's time not explained by its samples: replays at the mean
    // replay time, fallbacks at the mean faulty full simulation.
    let (replay_ns, replays) = table.total("trace.replay_faulty");
    let (fallback_ns, fallback_runs) = table.total("pipeline.run_faulty");
    let mean_replay = ratio(replay_ns, replays as f64);
    let mean_fallback = ratio(fallback_ns, fallback_runs as f64);
    let residuals: Vec<f64> = table
        .each("core.round")
        .filter_map(|span| {
            let &(replayed, fallbacks) = sampler.rounds.get(usize::try_from(span.cell?).ok()?)?;
            let explained = replayed as f64 * mean_replay + fallbacks as f64 * mean_fallback;
            Some((span.self_ns as f64 - explained) / 1e3)
        })
        .collect();
    m.push(Metric::total(
        "core.round_residual_us",
        "us",
        ratio(residuals.iter().sum(), residuals.len() as f64),
        &residuals,
    ));
    m.push(count("core.rounds", rounds as f64));
    m.push(count("core.samples", (replayed + fallbacks) as f64));

    // smp
    m.push(if workload == Workload::SmpMeta {
        unit_cost("smp.run", |c| c.smp_instructions, "smp.ns_per_instr")
    } else {
        unit_cost("smp.one_core", |c| c.instructions, "smp.ns_per_instr")
    });
    m.push(count("smp.snoop_lookups", smp_counts.0 as f64));
    m.push(count("smp.bus_transactions", smp_counts.1 as f64));
    let one_core: Vec<f64> = table
        .cells("smp.one_core")
        .map(|(cell, ns, _)| ratio(ns, table.mean("pipeline.run", cell)))
        .collect();
    m.push(Metric::total(
        "smp.one_core_ratio",
        "ratio",
        ratio(table.total("smp.one_core").0, pipeline_wb),
        &one_core,
    ));

    // bench: each replica pass against the untraced run just before it
    let overheads: Vec<f64> = table
        .each("bench.replica")
        .zip(untraced)
        .map(|(span, wall)| span.dur_ns as f64 / 1e9 / wall - 1.0)
        .collect();
    m.push(Metric::median(
        "bench.tracing_overhead",
        "ratio",
        &overheads,
    ));

    // Self time per layer; together the layers account for every root ns.
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for span in &table.spans {
        let layer = span.name.split('.').next().unwrap_or(&span.name);
        *layers.entry(layer).or_default() += span.self_ns;
    }
    let roots: u64 = table
        .spans
        .iter()
        .filter(|s| s.root)
        .map(|s| s.dur_ns)
        .sum();
    let selves: u64 = layers.values().sum();
    if selves != roots {
        problems.push(format!(
            "span self times sum to {selves} ns, root spans last {roots} ns"
        ));
    }
    let extra = layers
        .iter()
        .map(|(layer, ns)| Metric::total(&format!("self_ms.{layer}"), "ms", *ns as f64 / 1e6, &[]))
        .chain(std::iter::once(Metric::total(
            "self_ms.total",
            "ms",
            roots as f64 / 1e6,
            &[],
        )))
        .collect();
    (m, extra)
}
