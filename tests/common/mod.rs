//! Shared test plumbing: run a grid description through the unified
//! `spec::Campaign` dispatch in a given execution mode.
//!
//! Each integration-test crate pulls in the subset it needs (hence the
//! `dead_code` allowance).

#![allow(dead_code)]

use std::path::Path;

use laec::core::campaign::CampaignSpec;
use laec::core::sampling::{SampleExecution, SampledReport, SamplingPlan};
use laec::core::trace_backed::TracedCampaign;
use laec::core::{Campaign, CampaignOutcome, CampaignReport, ExecutionMode};

/// Runs a grid through the unified dispatch in the given mode.
pub fn run_mode(grid: &CampaignSpec, mode: ExecutionMode, threads: usize) -> CampaignOutcome {
    let spec = laec::core::spec::CampaignSpec {
        grid: grid.clone(),
        mode,
    };
    Campaign::new(spec.validate().expect("valid spec")).run(threads)
}

/// Full-simulation mode.
pub fn run_campaign(spec: &CampaignSpec, threads: usize) -> CampaignReport {
    run_mode(spec, ExecutionMode::Full, threads)
        .into_grid()
        .expect("full mode yields a grid report")
}

/// The forced-SMP engine (every cell as an N-core system).
pub fn run_campaign_smp(spec: &CampaignSpec, threads: usize) -> CampaignReport {
    run_mode(spec, ExecutionMode::Smp, threads)
        .into_grid()
        .expect("smp mode yields a grid report")
}

/// Trace-backed mode, with the record/replay counters.
pub fn run_campaign_trace_backed(
    spec: &CampaignSpec,
    threads: usize,
    cache_dir: Option<&Path>,
) -> TracedCampaign {
    let mode = ExecutionMode::TraceBacked {
        cache_dir: cache_dir.map(Path::to_path_buf),
    };
    match run_mode(spec, mode, threads) {
        CampaignOutcome::Grid {
            report,
            trace_stats,
        } => TracedCampaign {
            report,
            stats: trace_stats.expect("trace-backed mode reports its counters"),
        },
        CampaignOutcome::Sampled { .. } => unreachable!("trace-backed mode is a grid mode"),
    }
}

/// Sampled (stratified Monte-Carlo) mode.
pub fn run_campaign_sampled(
    spec: &CampaignSpec,
    plan: &SamplingPlan,
    threads: usize,
    execution: &SampleExecution,
) -> SampledReport {
    let mode = ExecutionMode::Sampled {
        plan: *plan,
        execution: execution.clone(),
    };
    run_mode(spec, mode, threads)
        .into_sampled()
        .expect("sampled mode yields a statistical report")
}
