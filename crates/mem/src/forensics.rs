//! Per-fault lifecycle forensics: strike → latent residency → first
//! activation → classified outcome.
//!
//! The paper's central claim is about *when* an error is caught — look-ahead
//! correction trades detection latency against pipeline cost — so the
//! forensics layer records, for every injected fault, the simulation cycle of
//! the strike, the cycle and kind of the first access that architecturally
//! touches the damaged storage, and what the machinery made of it.
//!
//! Everything here is stamped with **simulation cycles**, never wall-clock,
//! and every record is derived from the same deterministic access stream that
//! already produces byte-identical campaign counters.  Forensics therefore
//! inherits the repo's byte-identity contract: the same records come out for
//! any worker thread count, and for full-sim vs trace-backed replay of the
//! same cell.
//!
//! The log is `Option`-gated on [`crate::MemorySystem`] (like `Obs` in
//! `laec_obs`): when disabled the hot paths pay one `is_some()` branch and
//! nothing else.
//!
//! ## Classification rules
//!
//! Data faults capture the *pre-strike* decoded word value (the ground
//! truth), so the first activation can distinguish a genuinely silent
//! corruption from an ineffective strike:
//!
//! | observation at first activation              | outcome    |
//! |----------------------------------------------|------------|
//! | decode uncorrectable                         | `Detected` |
//! | decode usable but value ≠ ground truth       | `Sdc`      |
//! | decode corrected and value == ground truth   | `Corrected`|
//! | decode clean and value == ground truth       | `Masked`   |
//!
//! The `Sdc` row covers both unprotected reads of flipped bits and
//! *miscorrections* (a multi-bit pattern aliasing to a valid single-bit
//! syndrome).  Metadata faults (state/tag) are classified from the cache's
//! own corruption bookkeeping: a stale read of a shadowed line is
//! `StaleMetadataRead`, a dirty line whose writeback never drains is
//! `LostWriteback`, and a corruption that is healed or retired without
//! consequence is `Masked`.  Faults still latent when the cell drains are
//! closed as `Masked` with no activation.

use crate::fault::FaultTarget;

/// The first architectural access that touched a damaged location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ActivationKind {
    /// A demand load decoded the word (or consulted the corrupted metadata).
    Read,
    /// A store probed the word before merging into it.
    Write,
    /// An eviction or end-of-run flush drained the line toward L2/memory.
    WritebackDrain,
    /// A coherence snoop consulted the line (reserved for the SMP engine;
    /// the uniprocessor hierarchy never emits it).
    Snoop,
}

impl ActivationKind {
    /// Stable snake_case label used in reports and histograms.
    pub fn label(self) -> &'static str {
        match self {
            ActivationKind::Read => "read",
            ActivationKind::Write => "write",
            ActivationKind::WritebackDrain => "writeback_drain",
            ActivationKind::Snoop => "snoop",
        }
    }
}

/// Terminal classification of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultOutcome {
    /// The fault never architecturally mattered: overwritten, evicted clean,
    /// ineffective (e.g. a check-bit flip under `CodeKind::None`), or still
    /// latent at end of run.
    Masked,
    /// The code repaired the word and the consumer saw the true value.
    Corrected,
    /// The code flagged the word uncorrectable (the machine can recover by
    /// refetch when the line is clean, or must signal DUE when dirty).
    Detected,
    /// Silent data corruption: a consumer observed a wrong value with no
    /// error signal — including miscorrections.
    Sdc,
    /// A metadata strike hid a dirty line from the writeback path.
    LostWriteback,
    /// A metadata strike made a load consume a shadowed stale line.
    StaleMetadataRead,
}

impl FaultOutcome {
    /// Stable snake_case label used in reports and histograms.
    pub fn label(self) -> &'static str {
        match self {
            FaultOutcome::Masked => "masked",
            FaultOutcome::Corrected => "corrected",
            FaultOutcome::Detected => "detected",
            FaultOutcome::Sdc => "sdc",
            FaultOutcome::LostWriteback => "lost_writeback",
            FaultOutcome::StaleMetadataRead => "stale_metadata_read",
        }
    }

    /// Every outcome, in the canonical report order.
    pub fn all() -> [FaultOutcome; 6] {
        [
            FaultOutcome::Masked,
            FaultOutcome::Corrected,
            FaultOutcome::Detected,
            FaultOutcome::Sdc,
            FaultOutcome::LostWriteback,
            FaultOutcome::StaleMetadataRead,
        ]
    }
}

/// One fault's closed lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Which structure the strike hit.
    pub target: FaultTarget,
    /// Word address for data strikes; line base address for metadata strikes.
    pub address: u32,
    /// Simulation cycle of the strike (the memory clock at injection).
    pub strike_cycle: u64,
    /// Cycle of the first activation, `None` if the fault evaporated or was
    /// still latent at end of run.
    pub activation_cycle: Option<u64>,
    /// What kind of access first touched the damage.
    pub activation: Option<ActivationKind>,
    /// Terminal classification.
    pub outcome: FaultOutcome,
}

impl FaultRecord {
    /// Detection latency in cycles (activation − strike), when activated.
    pub fn latency(&self) -> Option<u64> {
        self.activation_cycle
            .map(|cycle| cycle.saturating_sub(self.strike_cycle))
    }
}

/// The closed forensics record set for one campaign cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellForensics {
    /// All records, canonically sorted by
    /// (strike_cycle, address, target, activation_cycle, outcome).
    pub records: Vec<FaultRecord>,
}

impl CellForensics {
    /// True when the cell recorded no faults.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Per-outcome tallies in canonical order (zero entries included).
    pub fn outcome_tallies(&self) -> [(&'static str, u64); 6] {
        let mut tallies = FaultOutcome::all().map(|outcome| (outcome.label(), 0u64));
        for record in &self.records {
            for slot in tallies.iter_mut() {
                if slot.0 == record.outcome.label() {
                    slot.1 += 1;
                }
            }
        }
        tallies
    }
}

/// Events the cache journals for the forensics log when journaling is on.
///
/// The cache does not know about pending forensics records; it only reports
/// what happened, in program order, and [`ForensicsLog::apply`] matches the
/// events against open records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheEvent {
    /// A data strike landed on `address`.  `true_value` is the pre-strike
    /// decoded word when it was decodable (ground truth for SDC detection).
    DataStrike {
        address: u32,
        true_value: Option<u32>,
    },
    /// A metadata strike landed on the line based at `base`.
    MetaStrike { base: u32, target: FaultTarget },
    /// A journalled metadata corruption on the line based at `base` resolved.
    /// `activation` is `None` when the corruption evaporated (healed or
    /// retired without consequence).
    MetaOutcome {
        base: u32,
        outcome: FaultOutcome,
        activation: Option<ActivationKind>,
    },
}

#[derive(Debug, Clone, Copy)]
struct PendingData {
    address: u32,
    strike_cycle: u64,
    true_value: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
struct PendingMeta {
    base: u32,
    strike_cycle: u64,
    target: FaultTarget,
}

/// The live forensics state carried by an enabled memory system.
#[derive(Debug, Clone, Default)]
pub(crate) struct ForensicsLog {
    /// Memory clock: the max cycle stamp seen on any load/store.  Strikes are
    /// injected between commits and carry no cycle of their own, so they are
    /// stamped with this clock — which replays identically because the
    /// trace-backed engine re-issues the same (event, cycle) stream.
    clock: u64,
    pending_data: Vec<PendingData>,
    pending_meta: Vec<PendingMeta>,
    records: Vec<FaultRecord>,
}

impl ForensicsLog {
    /// Advances the memory clock; call with the cycle of every load/store.
    pub(crate) fn tick(&mut self, now: u64) {
        self.clock = self.clock.max(now);
    }

    /// True when any data-fault record is still open.
    pub(crate) fn has_pending_data(&self) -> bool {
        !self.pending_data.is_empty()
    }

    /// True when a data-fault record is open at this word address.
    pub(crate) fn pending_at(&self, address: u32) -> bool {
        self.pending_data.iter().any(|p| p.address == address)
    }

    /// Word addresses of all open data-fault records.
    pub(crate) fn pending_data_addresses(&self) -> Vec<u32> {
        self.pending_data.iter().map(|p| p.address).collect()
    }

    /// Word addresses of open data-fault records inside a line.
    pub(crate) fn pending_in_line(&self, base: u32, line_bytes: u32) -> Vec<u32> {
        self.pending_data
            .iter()
            .filter(|p| p.address.wrapping_sub(base) < line_bytes)
            .map(|p| p.address)
            .collect()
    }

    /// Applies one journalled cache event.
    pub(crate) fn apply(&mut self, event: CacheEvent) {
        match event {
            CacheEvent::DataStrike {
                address,
                true_value,
            } => self.pending_data.push(PendingData {
                address,
                strike_cycle: self.clock,
                true_value,
            }),
            CacheEvent::MetaStrike { base, target } => self.pending_meta.push(PendingMeta {
                base,
                strike_cycle: self.clock,
                target,
            }),
            CacheEvent::MetaOutcome {
                base,
                outcome,
                activation,
            } => {
                if let Some(at) = self.pending_meta.iter().position(|p| p.base == base) {
                    let pending = self.pending_meta.remove(at);
                    self.records.push(FaultRecord {
                        target: pending.target,
                        address: pending.base,
                        strike_cycle: pending.strike_cycle,
                        activation_cycle: activation.map(|_| self.clock),
                        activation,
                        outcome: pending_meta_outcome(outcome),
                    });
                }
            }
        }
    }

    /// Closes every open data record at `address` using the decode the
    /// activating access observed.
    pub(crate) fn activate_data(
        &mut self,
        address: u32,
        kind: ActivationKind,
        observed: DataObservation,
    ) {
        let clock = self.clock;
        let mut index = 0;
        while index < self.pending_data.len() {
            if self.pending_data[index].address == address {
                let pending = self.pending_data.remove(index);
                let outcome = observed.classify(pending.true_value);
                self.records.push(FaultRecord {
                    target: FaultTarget::Data,
                    address,
                    strike_cycle: pending.strike_cycle,
                    activation_cycle: Some(clock),
                    activation: Some(kind),
                    outcome,
                });
            } else {
                index += 1;
            }
        }
    }

    /// Closes every open data record at `address` as masked with no
    /// activation (the damage evaporated: clean eviction, stale incarnation
    /// replaced by a fresh fill, full overwrite of a non-resident word).
    pub(crate) fn evaporate_data(&mut self, address: u32) {
        let mut index = 0;
        while index < self.pending_data.len() {
            if self.pending_data[index].address == address {
                let pending = self.pending_data.remove(index);
                self.records.push(FaultRecord {
                    target: FaultTarget::Data,
                    address,
                    strike_cycle: pending.strike_cycle,
                    activation_cycle: None,
                    activation: None,
                    outcome: FaultOutcome::Masked,
                });
            } else {
                index += 1;
            }
        }
    }

    /// Closes everything still open as latent-masked and returns the sorted
    /// record set.
    pub(crate) fn finish(&mut self) -> CellForensics {
        let pending_data = std::mem::take(&mut self.pending_data);
        for pending in pending_data {
            self.records.push(FaultRecord {
                target: FaultTarget::Data,
                address: pending.address,
                strike_cycle: pending.strike_cycle,
                activation_cycle: None,
                activation: None,
                outcome: FaultOutcome::Masked,
            });
        }
        let pending_meta = std::mem::take(&mut self.pending_meta);
        for pending in pending_meta {
            self.records.push(FaultRecord {
                target: pending.target,
                address: pending.base,
                strike_cycle: pending.strike_cycle,
                activation_cycle: None,
                activation: None,
                outcome: FaultOutcome::Masked,
            });
        }
        let mut records = std::mem::take(&mut self.records);
        records.sort_by_key(|r| {
            (
                r.strike_cycle,
                r.address,
                r.target.label(),
                r.activation_cycle.unwrap_or(u64::MAX),
                r.outcome,
            )
        });
        CellForensics { records }
    }
}

/// What an activating access saw when it decoded the struck word.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DataObservation {
    /// Decoded value the consumer would use (post-correction).
    pub value: u32,
    /// The decode flagged the word uncorrectable.
    pub uncorrectable: bool,
    /// The decode repaired at least one bit.
    pub corrected: bool,
    /// Byte-enable mask of bytes the consumer actually kept; bytes about to
    /// be overwritten by a store cannot carry SDC.  `0xF` for loads/drains.
    pub kept_mask: u8,
}

impl DataObservation {
    fn classify(self, true_value: Option<u32>) -> FaultOutcome {
        if self.uncorrectable {
            return FaultOutcome::Detected;
        }
        let wrong = match true_value {
            Some(truth) => (self.value ^ truth) & expand_mask(self.kept_mask) != 0,
            // Ground truth unknown (the word was already undecodable before
            // this strike): trust the outcome flags.
            None => false,
        };
        if wrong {
            FaultOutcome::Sdc
        } else if self.corrected {
            FaultOutcome::Corrected
        } else {
            FaultOutcome::Masked
        }
    }
}

fn expand_mask(byte_mask: u8) -> u32 {
    let mut mask = 0u32;
    for byte in 0..4 {
        if byte_mask & (1 << byte) != 0 {
            mask |= 0xFF << (byte * 8);
        }
    }
    mask
}

/// Metadata corruptions never yield data-style outcomes; keep the journal
/// honest if a future site mislabels one.
fn pending_meta_outcome(outcome: FaultOutcome) -> FaultOutcome {
    match outcome {
        FaultOutcome::LostWriteback => FaultOutcome::LostWriteback,
        FaultOutcome::StaleMetadataRead => FaultOutcome::StaleMetadataRead,
        _ => FaultOutcome::Masked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_lifecycle_classifies_sdc_and_corrected() {
        let mut log = ForensicsLog::default();
        log.tick(10);
        log.apply(CacheEvent::DataStrike {
            address: 0x100,
            true_value: Some(42),
        });
        log.apply(CacheEvent::DataStrike {
            address: 0x200,
            true_value: Some(7),
        });
        log.tick(25);
        log.activate_data(
            0x100,
            ActivationKind::Read,
            DataObservation {
                value: 43,
                uncorrectable: false,
                corrected: false,
                kept_mask: 0xF,
            },
        );
        log.tick(40);
        log.activate_data(
            0x200,
            ActivationKind::Read,
            DataObservation {
                value: 7,
                uncorrectable: false,
                corrected: true,
                kept_mask: 0xF,
            },
        );
        let cell = log.finish();
        assert_eq!(cell.records.len(), 2);
        assert_eq!(cell.records[0].outcome, FaultOutcome::Sdc);
        assert_eq!(cell.records[0].latency(), Some(15));
        assert_eq!(cell.records[1].outcome, FaultOutcome::Corrected);
        assert_eq!(cell.records[1].latency(), Some(30));
    }

    #[test]
    fn store_kept_mask_shields_overwritten_bytes() {
        let observed = DataObservation {
            value: 0x1111_1144,
            uncorrectable: false,
            corrected: false,
            kept_mask: 0x0E,
        };
        // The flipped low byte is about to be overwritten: not SDC.
        assert_eq!(observed.classify(Some(0x1111_1142)), FaultOutcome::Masked);
        let observed = DataObservation {
            kept_mask: 0x0F,
            ..observed
        };
        assert_eq!(observed.classify(Some(0x1111_1142)), FaultOutcome::Sdc);
    }

    #[test]
    fn meta_lifecycle_matches_fifo_per_base() {
        let mut log = ForensicsLog::default();
        log.tick(5);
        log.apply(CacheEvent::MetaStrike {
            base: 0x400,
            target: FaultTarget::State,
        });
        log.tick(90);
        log.apply(CacheEvent::MetaOutcome {
            base: 0x400,
            outcome: FaultOutcome::LostWriteback,
            activation: Some(ActivationKind::WritebackDrain),
        });
        // Unmatched outcome events are dropped.
        log.apply(CacheEvent::MetaOutcome {
            base: 0x800,
            outcome: FaultOutcome::StaleMetadataRead,
            activation: Some(ActivationKind::Read),
        });
        let cell = log.finish();
        assert_eq!(cell.records.len(), 1);
        assert_eq!(cell.records[0].outcome, FaultOutcome::LostWriteback);
        assert_eq!(
            cell.records[0].activation,
            Some(ActivationKind::WritebackDrain)
        );
        assert_eq!(cell.records[0].latency(), Some(85));
    }

    #[test]
    fn latent_faults_close_as_masked_without_activation() {
        let mut log = ForensicsLog::default();
        log.tick(3);
        log.apply(CacheEvent::DataStrike {
            address: 0x10,
            true_value: Some(1),
        });
        let cell = log.finish();
        assert_eq!(cell.records[0].outcome, FaultOutcome::Masked);
        assert_eq!(cell.records[0].activation_cycle, None);
        assert_eq!(cell.records[0].latency(), None);
    }

    #[test]
    fn tallies_cover_every_outcome_label() {
        let cell = CellForensics::default();
        let tallies = cell.outcome_tallies();
        assert_eq!(tallies.len(), 6);
        assert!(tallies.iter().all(|(_, count)| *count == 0));
    }
}
