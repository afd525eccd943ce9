//! Convenience layer for running workloads under the different schemes.

use laec_pipeline::{EccScheme, PipelineConfig, SimResult, Simulator};
use laec_workloads::Workload;

/// Result of running one workload under every Figure 8 scheme.
#[derive(Debug, Clone)]
pub struct SchemeComparison {
    /// Workload name.
    pub name: String,
    /// Result under the ideal no-ECC baseline.
    pub no_ecc: SimResult,
    /// Result under the Extra-Cycle scheme.
    pub extra_cycle: SimResult,
    /// Result under the Extra-Stage scheme.
    pub extra_stage: SimResult,
    /// Result under LAEC.
    pub laec: SimResult,
}

impl SchemeComparison {
    /// Execution-time increase of `scheme` relative to the no-ECC baseline
    /// (1.0 means no overhead) — the y-axis of the paper's Fig. 8.
    #[must_use]
    pub fn slowdown(&self, scheme: EccScheme) -> f64 {
        let result = match scheme {
            EccScheme::NoEcc => &self.no_ecc,
            EccScheme::ExtraCycle => &self.extra_cycle,
            EccScheme::ExtraStage => &self.extra_stage,
            EccScheme::Laec | EccScheme::SpeculateFlush { .. } => &self.laec,
        };
        result.stats.slowdown_versus(&self.no_ecc.stats)
    }

    /// `true` if all four schemes produced identical architectural state.
    #[must_use]
    pub fn architecturally_equivalent(&self) -> bool {
        let reference = (&self.no_ecc.registers, self.no_ecc.memory_checksum);
        [&self.extra_cycle, &self.extra_stage, &self.laec]
            .iter()
            .all(|r| (&r.registers, r.memory_checksum) == reference)
    }
}

/// Runs one workload under one scheme with the default platform.
#[must_use]
pub fn run_scheme(workload: &Workload, scheme: EccScheme) -> SimResult {
    run_with_config(workload, PipelineConfig::for_scheme(scheme))
}

/// Runs one workload under an explicit configuration.
#[must_use]
pub fn run_with_config(workload: &Workload, config: PipelineConfig) -> SimResult {
    Simulator::run(workload.program.clone(), config)
}

/// Runs one workload under the four Figure 8 schemes.
#[must_use]
pub fn compare_schemes(workload: &Workload) -> SchemeComparison {
    SchemeComparison {
        name: workload.name.clone(),
        no_ecc: run_scheme(workload, EccScheme::NoEcc),
        extra_cycle: run_scheme(workload, EccScheme::ExtraCycle),
        extra_stage: run_scheme(workload, EccScheme::ExtraStage),
        laec: run_scheme(workload, EccScheme::Laec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laec_workloads::{kernel_suite, GeneratorConfig};

    #[test]
    fn kernel_comparison_is_equivalent_and_ordered() {
        let workload = kernel_suite()
            .into_iter()
            .find(|w| w.name == "vector_sum")
            .unwrap();
        let comparison = compare_schemes(&workload);
        assert!(comparison.architecturally_equivalent());
        assert!(comparison.slowdown(EccScheme::NoEcc) == 1.0);
        assert!(comparison.slowdown(EccScheme::Laec) <= comparison.slowdown(EccScheme::ExtraStage));
        // vector_sum's only load has a distance-1 consumer, for which
        // Extra-Stage and Extra-Cycle stall identically (Figs. 3 vs 4); allow
        // the one-cycle pipeline-drain difference of the longer pipeline.
        assert!(
            comparison.slowdown(EccScheme::ExtraStage)
                <= comparison.slowdown(EccScheme::ExtraCycle) + 0.01
        );
    }

    #[test]
    fn eembc_workload_runs_under_explicit_config() {
        let workload = laec_workloads::eembc_workload("cacheb", &GeneratorConfig::smoke()).unwrap();
        let result = run_with_config(&workload, PipelineConfig::laec().with_trace(8));
        assert!(result.stats.instructions > 500);
        assert_eq!(result.chronogram.len(), 8);
    }
}
