//! The benchmark's named workloads: each is a campaign spec built from the
//! workload seed, plus the grid coordinates the traced run drives through
//! the layers one by one.

use laec_core::campaign::CampaignSpec as Grid;
use laec_core::spec::{CampaignBuilder, CampaignSpec};
use laec_core::PlatformVariant;
use laec_mem::{FaultCampaignConfig, FaultTarget};
use laec_pipeline::{EccScheme, PipelineConfig};

/// The seed whose reference digests are committed under `reference/`.
pub const DEFAULT_SEED: u64 = 1;

/// Sparse data-fault axis of `full_grid`.
const FULL_GRID_FAULT_SEEDS: u64 = 3;
/// Metadata-fault axis of `smp_meta`.
const SMP_FAULT_SEEDS: u64 = 2;
/// Per-stratum sample budget of `sampled_replay` (no early stop).
const SAMPLE_BUDGET: u64 = 32;
/// Samples per stratum per sampler round.
const SAMPLE_BATCH: u64 = 16;
/// Dense data faults of `sampled_replay`: one upset per 200 opportunities.
const DENSE_FAULT_INTERVAL: u64 = 200;
/// Cores of `smp_meta`'s MESI platform.
const SMP_CORES: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FullGrid,
    SampledReplay,
    SmpMeta,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FullGrid,
        Workload::SampledReplay,
        Workload::SmpMeta,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FullGrid => "full_grid",
            Workload::SampledReplay => "sampled_replay",
            Workload::SmpMeta => "smp_meta",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured spec.  Every axis but the seed is fixed; the seed
    /// generates the 16 EEMBC-like programs and every injection seed.
    pub fn spec(self, seed: u64) -> CampaignSpec {
        let paper = CampaignBuilder::paper().seed(spec_seed(seed));
        let builder = match self {
            Workload::FullGrid => paper
                .platforms([PlatformVariant::WriteBack, PlatformVariant::WriteThrough])
                .fault_seeds(fault_axis(seed, FULL_GRID_FAULT_SEEDS)),
            Workload::SampledReplay => sampled(paper).trace_backed(),
            Workload::SmpMeta => paper
                .platforms([PlatformVariant::smp(SMP_CORES)])
                .fault_target(FaultTarget::State)
                .fault_seeds(fault_axis(seed, SMP_FAULT_SEEDS)),
        };
        builder.build().expect("benchmark specs are well-formed")
    }

    /// The spec whose report is the reference for [`Workload::spec`]: the
    /// same spec, except that `sampled_replay` is checked against
    /// full-simulation sampling.
    pub fn reference_spec(self, seed: u64) -> CampaignSpec {
        match self {
            Workload::SampledReplay => sampled(CampaignBuilder::paper().seed(spec_seed(seed)))
                .build()
                .expect("benchmark specs are well-formed"),
            _ => self.spec(seed),
        }
    }
}

fn sampled(builder: CampaignBuilder) -> CampaignBuilder {
    builder
        .fault_interval(DENSE_FAULT_INTERVAL)
        .sampled(SAMPLE_BUDGET)
        .min_samples(SAMPLE_BUDGET)
        .batch(SAMPLE_BATCH)
}

/// The campaign seed a workload seed expands to.
fn spec_seed(seed: u64) -> u64 {
    mix64(seed ^ 0x1AEC)
}

fn fault_axis(seed: u64, count: u64) -> Vec<u64> {
    (0..count)
        .map(|i| mix64(seed.rotate_left(32) ^ i))
        .collect()
}

/// SplitMix64 finaliser — the mixer `laec_core` derives injection seeds
/// with.
fn mix64(mut value: u64) -> u64 {
    value = value.wrapping_add(0x9E37_79B9_7F4A_7C15);
    value = (value ^ (value >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    value = (value ^ (value >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    value ^ (value >> 31)
}

/// One grid job, in the campaign engine's order (workload-major, then
/// platform, scheme, fault-free run first).  `id` is its index in the
/// report's `cells`.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub id: u64,
    pub workload: usize,
    pub platform: usize,
    pub scheme: usize,
    pub fault: Option<usize>,
}

pub fn jobs(grid: &Grid, workloads: usize) -> Vec<Job> {
    let mut jobs = Vec::new();
    for workload in 0..workloads {
        for platform in 0..grid.platforms.len() {
            for scheme in 0..grid.schemes.len() {
                for fault in std::iter::once(None).chain((0..grid.fault_seeds.len()).map(Some)) {
                    jobs.push(Job {
                        id: jobs.len() as u64,
                        workload,
                        platform,
                        scheme,
                        fault,
                    });
                }
            }
        }
    }
    jobs
}

/// The fault-free configuration of a job's scheme on `platform`.
pub fn clean_config(scheme: EccScheme, platform: PlatformVariant) -> PipelineConfig {
    platform.apply_config(PipelineConfig::for_scheme(scheme))
}

/// The fault campaign the engine gives a job on the fixed fault axis.
pub fn job_fault(grid: &Grid, job: &Job, fault: usize) -> FaultCampaignConfig {
    let seed = mix64(
        grid.seed
            ^ grid.fault_seeds[fault].rotate_left(17)
            ^ ((job.workload as u64) << 40)
            ^ ((job.scheme as u64) << 20)
            ^ (job.platform as u64),
    );
    FaultCampaignConfig::single_bit(seed, grid.fault_interval).with_target(grid.fault_target)
}

/// The fault campaign of sample `index` of one sampler stratum.
pub fn sample_fault(grid: &Grid, job: &Job, index: u64) -> FaultCampaignConfig {
    const SAMPLE_SALT: u64 = 0x51A7_1571_CA15_AB1E;
    let stratum = mix64(
        grid.seed
            ^ SAMPLE_SALT
            ^ ((job.workload as u64) << 40)
            ^ ((job.scheme as u64) << 20)
            ^ (job.platform as u64),
    );
    FaultCampaignConfig::single_bit(mix64(stratum ^ index), grid.fault_interval)
        .with_target(grid.fault_target)
}
