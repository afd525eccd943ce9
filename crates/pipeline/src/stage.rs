//! Pipeline stages of the NGMP-like core.
//!
//! The baseline LEON4/NGMP pipeline has seven stages (paper Fig. 1):
//! Fetch, Decode, Register Access, Execute, Memory, Exception, Write-back.
//! The Extra-Stage and LAEC designs insert an ECC stage between Memory and
//! Exception, growing the pipeline to eight stages (paper §III.D/E).

use std::fmt;

/// One pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Instruction fetch.
    Fetch,
    /// Decode.
    Decode,
    /// Register access (operand read; LAEC also computes load addresses here).
    RegisterAccess,
    /// Execute (ALU; LAEC accesses the DL1 here for anticipated loads).
    Execute,
    /// Memory (DL1 access; LAEC computes the ECC here for anticipated loads).
    Memory,
    /// ECC check stage (only present in Extra-Stage and LAEC pipelines).
    EccCheck,
    /// Exception resolution.
    Exception,
    /// Write-back.
    WriteBack,
}

impl Stage {
    /// The seven-stage baseline pipeline (no-ECC, Extra-Cycle,
    /// Speculate-and-Flush).
    pub const BASELINE: [Stage; 7] = [
        Stage::Fetch,
        Stage::Decode,
        Stage::RegisterAccess,
        Stage::Execute,
        Stage::Memory,
        Stage::Exception,
        Stage::WriteBack,
    ];

    /// The eight-stage pipeline with a dedicated ECC stage (Extra-Stage and
    /// LAEC).
    pub const WITH_ECC_STAGE: [Stage; 8] = [
        Stage::Fetch,
        Stage::Decode,
        Stage::RegisterAccess,
        Stage::Execute,
        Stage::Memory,
        Stage::EccCheck,
        Stage::Exception,
        Stage::WriteBack,
    ];

    /// Short label used in chronograms (mirrors the paper's figures).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stage::Fetch => "F",
            Stage::Decode => "D",
            Stage::RegisterAccess => "RA",
            Stage::Execute => "Exe",
            Stage::Memory => "M",
            Stage::EccCheck => "ECC",
            Stage::Exception => "Exc",
            Stage::WriteBack => "WB",
        }
    }
}

/// Most stages any pipeline variant has.
pub(crate) const MAX_STAGES: usize = Stage::WITH_ECC_STAGE.len();

/// Where the stages the simulator's timing rules name sit in one pipeline
/// variant: its stage count `n` and the indices of Register Access,
/// Execute and Memory.  Computed once per scheme, so the per-instruction
/// step never searches the stage table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StageLayout {
    pub(crate) n: usize,
    pub(crate) ra: usize,
    pub(crate) ex: usize,
    pub(crate) m: usize,
}

impl StageLayout {
    /// The layout of [`Stage::BASELINE`].
    pub(crate) const BASELINE: StageLayout = StageLayout {
        n: Stage::BASELINE.len(),
        ra: 2,
        ex: 3,
        m: 4,
    };

    /// The layout of [`Stage::WITH_ECC_STAGE`]: the ECC stage follows
    /// Memory, so only the count differs.
    pub(crate) const WITH_ECC_STAGE: StageLayout = StageLayout {
        n: Stage::WITH_ECC_STAGE.len(),
        ..StageLayout::BASELINE
    };
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_figure_1() {
        let labels: Vec<&str> = Stage::BASELINE.iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["F", "D", "RA", "Exe", "M", "Exc", "WB"]);
    }

    #[test]
    fn ecc_pipeline_adds_one_stage_after_memory() {
        assert_eq!(Stage::WITH_ECC_STAGE.len(), Stage::BASELINE.len() + 1);
        let position = Stage::WITH_ECC_STAGE
            .iter()
            .position(|&s| s == Stage::EccCheck)
            .unwrap();
        assert_eq!(Stage::WITH_ECC_STAGE[position - 1], Stage::Memory);
        assert_eq!(Stage::WITH_ECC_STAGE[position + 1], Stage::Exception);
    }

    #[test]
    fn layouts_match_the_stage_tables() {
        for (layout, stages) in [
            (StageLayout::BASELINE, &Stage::BASELINE[..]),
            (StageLayout::WITH_ECC_STAGE, &Stage::WITH_ECC_STAGE[..]),
        ] {
            assert_eq!(layout.n, stages.len());
            assert!(layout.n <= MAX_STAGES);
            assert_eq!(stages[layout.ra], Stage::RegisterAccess);
            assert_eq!(stages[layout.ex], Stage::Execute);
            assert_eq!(stages[layout.m], Stage::Memory);
        }
        for scheme in crate::EccScheme::figure8_set()
            .into_iter()
            .chain([crate::EccScheme::SpeculateFlush { flush_penalty: 3 }])
        {
            assert_eq!(scheme.layout().n, scheme.stages().len(), "{scheme}");
        }
    }

    #[test]
    fn stages_are_ordered() {
        assert!(Stage::Fetch < Stage::Memory);
        assert!(Stage::Memory < Stage::WriteBack);
        assert_eq!(Stage::Execute.to_string(), "Exe");
    }
}
