//! Output checking: per-cell digests of a campaign outcome against a
//! reference.
//!
//! A unit is one grid cell (grid workloads) or one stratum (sampled
//! workloads).  Its digest is `laec_core::hash128` of the unit's JSON
//! bytes, so a unit passes only if every byte the report prints for it
//! matches.  For the default seed the reference is committed under
//! `reference/`; for any other seed it is computed once, before timing, by
//! full simulation.

use laec_core::hash128;
use laec_core::spec::{Campaign, CampaignOutcome, CampaignSpec, ExecutionMode};

use crate::workloads::{Workload, DEFAULT_SEED};

/// Digests of one outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Digests {
    /// Digest of the whole report (`CampaignOutcome::to_json`).
    pub report: u128,
    /// One digest per cell or stratum, in report order.
    pub units: Vec<u128>,
}

impl Digests {
    pub fn of(outcome: &CampaignOutcome) -> Digests {
        let units = match outcome {
            CampaignOutcome::Grid { report, .. } => report.cells.iter().map(unit_digest).collect(),
            CampaignOutcome::Sampled { report, .. } => {
                report.strata.iter().map(unit_digest).collect()
            }
        };
        Digests {
            report: hash128(outcome.to_json().as_bytes()),
            units,
        }
    }

    /// Units of `self` that differ from `reference`: all of them when the
    /// shapes disagree, and one when only the report's summary sections
    /// (slowdowns, equivalence, totals) differ.
    pub fn mismatches(&self, reference: &Digests) -> u64 {
        if self.units.len() != reference.units.len() {
            return self.units.len().max(reference.units.len()) as u64;
        }
        let units = self
            .units
            .iter()
            .zip(&reference.units)
            .filter(|(a, b)| a != b)
            .count() as u64;
        units.max(u64::from(self.report != reference.report))
    }
}

fn unit_digest<T: serde::Serialize>(unit: &T) -> u128 {
    let json = serde_json::to_string(unit).expect("report units serialize");
    hash128(json.as_bytes())
}

/// The reference a run is checked against, plus the fault-free
/// instruction count of each unit (what one sample of a stratum retires).
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub digests: Digests,
    pub instructions: Vec<u64>,
}

impl Reference {
    /// The committed reference for the default seed, else one computed by
    /// full simulation of [`Workload::reference_spec`].
    pub fn for_seed(workload: Workload, seed: u64) -> Result<Reference, String> {
        if seed == DEFAULT_SEED {
            return Reference::parse(committed(workload));
        }
        Ok(Reference::compute(workload, seed))
    }

    pub fn compute(workload: Workload, seed: u64) -> Reference {
        let outcome = run(workload.reference_spec(seed));
        let digests = Digests::of(&outcome);
        let instructions = match &outcome {
            CampaignOutcome::Grid { report, .. } => {
                report.cells.iter().map(|c| c.instructions).collect()
            }
            CampaignOutcome::Sampled { .. } => {
                // A stratum's samples retire its fault-free run's
                // instructions: take them from the fault-free grid.
                let mut grid = workload.reference_spec(seed);
                grid.mode = ExecutionMode::Full;
                run(grid)
                    .grid()
                    .expect("full mode yields a grid")
                    .cells
                    .iter()
                    .map(|c| c.instructions)
                    .collect()
            }
        };
        Reference {
            digests,
            instructions,
        }
    }

    pub fn render(&self, workload: Workload, seed: u64) -> String {
        let mut out = format!(
            "# laec-perfbench reference: workload {}, seed {seed}\n\
             # Regenerate: python3 perfbench/run.py --workload {} --seed {seed} --write-reference\n\
             report {:032x}\n",
            workload.name(),
            workload.name(),
            self.digests.report
        );
        for (digest, instructions) in self.digests.units.iter().zip(&self.instructions) {
            out.push_str(&format!("unit {digest:032x} {instructions}\n"));
        }
        out
    }

    fn parse(text: &str) -> Result<Reference, String> {
        let mut report = None;
        let mut units = Vec::new();
        let mut instructions = Vec::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let hex = |s: &str| u128::from_str_radix(s, 16).map_err(|e| format!("`{line}`: {e}"));
            match fields.as_slice() {
                ["report", digest] => report = Some(hex(digest)?),
                ["unit", digest, count] => {
                    units.push(hex(digest)?);
                    instructions.push(count.parse().map_err(|e| format!("`{line}`: {e}"))?);
                }
                _ => return Err(format!("malformed reference line `{line}`")),
            }
        }
        Ok(Reference {
            digests: Digests {
                report: report.ok_or("reference without a report digest")?,
                units,
            },
            instructions,
        })
    }

    /// Flips one bit of the first unit digest: the negative control, under
    /// which every run must fail.
    pub fn perturb(&mut self) {
        if let Some(first) = self.digests.units.first_mut() {
            *first ^= 1;
        }
    }
}

fn committed(workload: Workload) -> &'static str {
    match workload {
        Workload::FullGrid => include_str!("../reference/full_grid.txt"),
        Workload::SampledReplay => include_str!("../reference/sampled_replay.txt"),
        Workload::SmpMeta => include_str!("../reference/smp_meta.txt"),
    }
}

/// One single-threaded `Campaign::run` of `spec`.
pub fn run(spec: CampaignSpec) -> CampaignOutcome {
    let validated = spec.validate().expect("benchmark specs validate");
    Campaign::new(validated).run(1)
}
