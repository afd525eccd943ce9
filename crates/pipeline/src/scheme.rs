//! The DL1 ECC deployment schemes compared in the paper.

use std::fmt;

use crate::stage::{Stage, StageLayout};

/// How the DL1's error-correction check is woven into the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccScheme {
    /// Ideal error-free design without any ECC (the paper's baseline for
    /// Fig. 8).  Loads deliver data at the end of the Memory stage.
    NoEcc,
    /// §III.C — the Memory stage takes two cycles on DL1 load hits so the
    /// check fits; structural hazard for the following instruction plus one
    /// extra stall for dependent consumers.
    ExtraCycle,
    /// §III.D — a dedicated ECC stage after Memory; dependent consumers at
    /// distance 1 or 2 of a load hit stall.
    ExtraStage,
    /// §III.E — the proposal: anticipate address computation, DL1 access and
    /// ECC check by one cycle whenever there is no data hazard with the
    /// immediately preceding instruction and no DL1-port resource hazard;
    /// otherwise behave exactly like [`EccScheme::ExtraStage`].
    Laec,
    /// §II.B option 4 — deliver unchecked data and flush on a detected error
    /// (discarded by the paper for complexity; implemented as an ablation).
    SpeculateFlush {
        /// Cycles lost to squash consumers and restore state on a detected
        /// error.
        flush_penalty: u32,
    },
}

impl EccScheme {
    /// The three schemes of the paper's Fig. 8, in presentation order, plus
    /// the no-ECC baseline they are normalised to.
    #[must_use]
    pub fn figure8_set() -> [EccScheme; 4] {
        [
            EccScheme::NoEcc,
            EccScheme::ExtraCycle,
            EccScheme::ExtraStage,
            EccScheme::Laec,
        ]
    }

    /// The pipeline stages this scheme uses.
    #[must_use]
    pub fn stages(self) -> &'static [Stage] {
        if self.has_ecc_stage() {
            &Stage::WITH_ECC_STAGE
        } else {
            &Stage::BASELINE
        }
    }

    /// Where the stages the simulator indexes sit in [`EccScheme::stages`].
    pub(crate) fn layout(self) -> StageLayout {
        if self.has_ecc_stage() {
            StageLayout::WITH_ECC_STAGE
        } else {
            StageLayout::BASELINE
        }
    }

    /// `true` if the pipeline carries a dedicated ECC stage after Memory.
    #[must_use]
    pub fn has_ecc_stage(self) -> bool {
        matches!(self, EccScheme::ExtraStage | EccScheme::Laec)
    }

    /// `true` if DL1 load hits occupy the Memory stage for two cycles.
    #[must_use]
    pub fn doubles_memory_stage(self) -> bool {
        matches!(self, EccScheme::ExtraCycle)
    }

    /// `true` if the scheme may anticipate loads by one cycle.
    #[must_use]
    pub fn supports_look_ahead(self) -> bool {
        matches!(self, EccScheme::Laec)
    }

    /// `true` if loaded data is delivered to consumers before the check
    /// completes (requiring squash support on error).
    #[must_use]
    pub fn is_speculative(self) -> bool {
        matches!(self, EccScheme::SpeculateFlush { .. })
    }

    /// `true` if dirty DL1 data is protected by a correcting code under this
    /// scheme (only the no-ECC baseline leaves it unprotected).
    #[must_use]
    pub fn protects_dirty_data(self) -> bool {
        !matches!(self, EccScheme::NoEcc)
    }

    /// Short identifier used in reports and bench names.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            EccScheme::NoEcc => "no-ecc",
            EccScheme::ExtraCycle => "extra-cycle",
            EccScheme::ExtraStage => "extra-stage",
            EccScheme::Laec => "laec",
            EccScheme::SpeculateFlush { .. } => "speculate-flush",
        }
    }
}

impl fmt::Display for EccScheme {
    /// The scheme's canonical label — the exact string reports, traces and
    /// the CLI use (`no-ecc`, `extra-cycle`, `extra-stage`, `laec`,
    /// `speculate-flushN`).  The [`FromStr`](std::str::FromStr) impl parses it back, so
    /// `Display`/`FromStr` round-trip for every variant.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EccScheme::SpeculateFlush { flush_penalty } => {
                write!(f, "speculate-flush{flush_penalty}")
            }
            other => f.write_str(other.id()),
        }
    }
}

/// The error of [`EccScheme`]'s `FromStr`: the offending label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError {
    /// The label that named no scheme.
    pub label: String,
}

impl fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown scheme `{}`", self.label)
    }
}

impl std::error::Error for ParseSchemeError {}

impl std::str::FromStr for EccScheme {
    type Err = ParseSchemeError;

    /// Parses a canonical scheme label (see the [`fmt::Display`] impl);
    /// `speculate-flushN` selects an N-cycle flush penalty, and `noecc` is
    /// accepted as an alias for `no-ecc`.
    fn from_str(label: &str) -> Result<Self, Self::Err> {
        match label {
            "no-ecc" | "noecc" => Ok(EccScheme::NoEcc),
            "extra-cycle" => Ok(EccScheme::ExtraCycle),
            "extra-stage" => Ok(EccScheme::ExtraStage),
            "laec" => Ok(EccScheme::Laec),
            _ => label
                .strip_prefix("speculate-flush")
                .and_then(|n| n.parse().ok())
                .map(|flush_penalty| EccScheme::SpeculateFlush { flush_penalty })
                .ok_or_else(|| ParseSchemeError {
                    label: label.to_string(),
                }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_set_matches_paper() {
        let set = EccScheme::figure8_set();
        assert_eq!(set[0], EccScheme::NoEcc);
        assert_eq!(set[3], EccScheme::Laec);
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn stage_counts_per_scheme() {
        assert_eq!(EccScheme::NoEcc.stages().len(), 7);
        assert_eq!(EccScheme::ExtraCycle.stages().len(), 7);
        assert_eq!(EccScheme::ExtraStage.stages().len(), 8);
        assert_eq!(EccScheme::Laec.stages().len(), 8);
        assert_eq!(
            EccScheme::SpeculateFlush { flush_penalty: 5 }
                .stages()
                .len(),
            7
        );
    }

    #[test]
    fn capability_flags() {
        assert!(!EccScheme::NoEcc.protects_dirty_data());
        assert!(EccScheme::ExtraCycle.doubles_memory_stage());
        assert!(!EccScheme::ExtraStage.doubles_memory_stage());
        assert!(EccScheme::Laec.supports_look_ahead());
        assert!(!EccScheme::ExtraStage.supports_look_ahead());
        assert!(EccScheme::SpeculateFlush { flush_penalty: 3 }.is_speculative());
        assert!(EccScheme::Laec.protects_dirty_data());
    }

    #[test]
    fn ids_and_display() {
        assert_eq!(EccScheme::Laec.id(), "laec");
        assert_eq!(EccScheme::Laec.to_string(), "laec");
        assert_eq!(
            EccScheme::SpeculateFlush { flush_penalty: 7 }.to_string(),
            "speculate-flush7"
        );
    }

    /// Display and FromStr are inverses over every variant, including the
    /// `speculate-flush0` payload edge; bad labels are typed errors.
    #[test]
    fn display_from_str_round_trips_every_variant() {
        for scheme in [
            EccScheme::NoEcc,
            EccScheme::ExtraCycle,
            EccScheme::ExtraStage,
            EccScheme::Laec,
            EccScheme::SpeculateFlush { flush_penalty: 0 },
            EccScheme::SpeculateFlush {
                flush_penalty: u32::MAX,
            },
        ] {
            assert_eq!(scheme.to_string().parse(), Ok(scheme));
        }
        assert_eq!("noecc".parse(), Ok(EccScheme::NoEcc));
        let error = "nope".parse::<EccScheme>().unwrap_err();
        assert_eq!(error.label, "nope");
        assert_eq!(error.to_string(), "unknown scheme `nope`");
    }
}
