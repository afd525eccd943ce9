//! The memory interface the pipeline drives.
//!
//! `laec_pipeline::Simulator` talks to its data memory exclusively through
//! this trait, so the same pipeline model runs against a single-core
//! [`MemorySystem`] it owns *and* against one core's port of a shared
//! multi-core [`MemorySystem`] in `laec_smp`.  Both forward to the same
//! core-indexed access flows, which is what makes single-core SMP campaign
//! reports byte-identical to the uniprocessor engine.

use laec_ecc::ErrorInjector;

use crate::fault::FaultCampaignConfig;
use crate::forensics::CellForensics;
use crate::hierarchy::{LoadResponse, MemorySystem, StoreResponse};
use crate::stats::MemStats;

/// The per-core data-memory interface: timed loads/stores, end-of-run
/// draining, statistics and fault injection.
pub trait MemoryPort {
    /// Performs a load of the aligned word containing `address` at cycle
    /// `now`.
    fn load_word(&mut self, address: u32, now: u64) -> LoadResponse;

    /// Performs a store of `value` (bytes selected by `byte_mask`) to the
    /// aligned word containing `address` at cycle `now`.
    fn store_word_masked(
        &mut self,
        address: u32,
        value: u32,
        byte_mask: u8,
        now: u64,
    ) -> StoreResponse;

    /// Flushes all dirty state this core is responsible for down to main
    /// memory and returns the memory image's checksum.
    fn drain_to_memory(&mut self) -> u64;

    /// Accumulated per-core statistics.
    fn stats(&self) -> MemStats;

    /// Uncorrectable errors on dirty data (unrecoverable data loss).
    fn unrecoverable_errors(&self) -> u64;

    /// Uncorrectable errors recovered by refetching from the level below.
    fn recovered_by_refetch(&self) -> u64;

    /// Dirty lines silently dropped because of corrupted cache metadata
    /// (MESI state / tag strikes) — a silent-data-corruption class.
    fn lost_writebacks(&self) -> u64 {
        0
    }

    /// Reads served wrong data because of corrupted cache metadata — the
    /// other silent-data-corruption class.
    fn stale_metadata_reads(&self) -> u64 {
        0
    }

    /// Metadata faults injected so far (state/tag strikes).
    fn meta_faults_injected(&self) -> u64 {
        0
    }

    /// Injects one random fault into this core's DL1 following the
    /// campaign's target and strike pattern, returning the struck address
    /// (or `None` if nothing was resident to strike).
    fn inject_random_fault(
        &mut self,
        injector: &mut ErrorInjector,
        config: &FaultCampaignConfig,
    ) -> Option<u32>;

    /// Turns on per-fault lifecycle forensics, if the port supports it.
    /// Ports without forensics (e.g. the coherent SMP port) silently ignore
    /// the request and keep returning `None` from
    /// [`MemoryPort::take_forensics`].
    fn enable_forensics(&mut self) {}

    /// Takes the closed forensics record set, or `None` when forensics was
    /// never enabled (or is unsupported).  Call after
    /// [`MemoryPort::drain_to_memory`].
    fn take_forensics(&mut self) -> Option<CellForensics> {
        None
    }
}

impl MemoryPort for MemorySystem {
    fn load_word(&mut self, address: u32, now: u64) -> LoadResponse {
        MemorySystem::load_word(self, address, now)
    }

    fn store_word_masked(
        &mut self,
        address: u32,
        value: u32,
        byte_mask: u8,
        now: u64,
    ) -> StoreResponse {
        MemorySystem::store_word_masked(self, address, value, byte_mask, now)
    }

    fn drain_to_memory(&mut self) -> u64 {
        MemorySystem::drain_to_memory(self)
    }

    fn stats(&self) -> MemStats {
        MemorySystem::stats(self)
    }

    fn unrecoverable_errors(&self) -> u64 {
        MemorySystem::unrecoverable_errors(self)
    }

    fn recovered_by_refetch(&self) -> u64 {
        MemorySystem::recovered_by_refetch(self)
    }

    fn lost_writebacks(&self) -> u64 {
        self.dl1().lost_writebacks()
    }

    fn stale_metadata_reads(&self) -> u64 {
        self.dl1().stale_reads()
    }

    fn meta_faults_injected(&self) -> u64 {
        self.dl1().meta_faults_injected()
    }

    fn inject_random_fault(
        &mut self,
        injector: &mut ErrorInjector,
        config: &FaultCampaignConfig,
    ) -> Option<u32> {
        self.inject_random_dl1_fault(injector, config)
    }

    fn enable_forensics(&mut self) {
        MemorySystem::enable_forensics(self);
    }

    fn take_forensics(&mut self) -> Option<CellForensics> {
        MemorySystem::take_forensics(self)
    }
}
