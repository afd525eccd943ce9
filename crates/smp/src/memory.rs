//! The shared handle on the coherent multi-core hierarchy.
//!
//! The hierarchy itself — N private DL1s, the snoop phase, the protocol's
//! write actions, the shared bus, L2 and memory — is
//! [`laec_mem::MemorySystem`] built with
//! [`MemorySystem::with_cores`]; this module only shares it between the
//! cores' pipelines.  [`CoherentMemory`] owns the `Rc<RefCell<…>>` and hands
//! out one [`CorePort`] per core: the port is the system plus a core index,
//! and every access it forwards runs the same flows a uniprocessor's
//! accesses run.  With one core those flows snoop nobody, so a 1-core system
//! *is* the uniprocessor hierarchy; `tests/smp_equivalence.rs` at the
//! workspace root asserts the resulting campaign reports are byte-identical
//! across the full workload × scheme grid.

use std::cell::RefCell;
use std::rc::Rc;

use laec_ecc::ErrorInjector;
use laec_mem::{
    CoherenceStats, FaultCampaignConfig, HierarchyConfig, Interference, LineState, LoadResponse,
    MemStats, MemoryPort, MemorySystem, ProtocolKind, StoreResponse,
};

/// The shared, coherent memory system: construction, inspection and the
/// per-core [`CorePort`] factory.
#[derive(Debug, Clone)]
pub struct CoherentMemory {
    shared: Rc<RefCell<MemorySystem>>,
}

impl CoherentMemory {
    /// Builds an empty MESI-coherent hierarchy for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or a cache configuration is invalid.
    #[must_use]
    pub fn new(config: HierarchyConfig, cores: usize) -> Self {
        CoherentMemory::with_protocol(config, cores, ProtocolKind::Mesi)
    }

    /// Builds an empty coherent hierarchy for `cores` cores governed by
    /// `protocol`'s decision table.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or a cache configuration is invalid.
    #[must_use]
    pub fn with_protocol(config: HierarchyConfig, cores: usize, protocol: ProtocolKind) -> Self {
        CoherentMemory {
            shared: Rc::new(RefCell::new(MemorySystem::with_cores(
                config, cores, protocol,
            ))),
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.shared.borrow().cores()
    }

    /// Installs bus interference (stand-in for off-model traffic).
    pub fn set_bus_interference(&self, interference: Interference) {
        self.shared.borrow_mut().set_bus_interference(interference);
    }

    /// Pre-sizes main memory for a data image of about `words` words.
    pub fn reserve_memory(&self, words: usize) {
        self.shared.borrow_mut().reserve_memory(words);
    }

    /// Pre-loads a word into main memory (program data images).
    pub fn preload_word(&self, address: u32, value: u32) {
        self.shared.borrow_mut().preload_word(address, value);
    }

    /// Reads a word from main memory without touching caches or counters.
    #[must_use]
    pub fn peek_memory(&self, address: u32) -> u32 {
        self.shared.borrow().peek_memory(address)
    }

    /// The architecturally current value of the aligned word at `address`
    /// (see [`MemorySystem::peek_coherent`]).
    #[must_use]
    pub fn peek_coherent(&self, address: u32) -> u32 {
        self.shared.borrow().peek_coherent(address)
    }

    /// The coherence state of `address` in `core`'s DL1.
    #[must_use]
    pub fn state(&self, core: usize, address: u32) -> LineState {
        self.shared
            .borrow()
            .core(core)
            .dl1()
            .coherence_state(address)
    }

    /// A timed load issued by `core` (test/inspection convenience; the
    /// pipelines go through their [`CorePort`]s).
    pub fn load(&self, core: usize, address: u32, now: u64) -> LoadResponse {
        self.shared.borrow_mut().core_load_word(core, address, now)
    }

    /// A timed store issued by `core`.
    pub fn store(&self, core: usize, address: u32, value: u32, now: u64) -> StoreResponse {
        self.shared
            .borrow_mut()
            .core_store_word_masked(core, address, value, 0xF, now)
    }

    /// Forces eviction of the DL1 line holding `address` in `core`'s DL1 by
    /// filling the set with conflicting lines (test helper).
    pub fn evict(&self, core: usize, address: u32, now: u64) {
        let dl1 = self.shared.borrow().config().dl1;
        let stride = dl1.sets() * dl1.line_bytes;
        for i in 1..=dl1.ways {
            let conflicting = address.wrapping_add(i * stride);
            self.load(core, conflicting, now + u64::from(i));
        }
    }

    /// System-wide coherence counters.
    #[must_use]
    pub fn coherence_stats(&self) -> CoherenceStats {
        self.shared.borrow().coherence_stats()
    }

    /// Per-core memory statistics.
    #[must_use]
    pub fn core_stats(&self, core: usize) -> MemStats {
        self.shared.borrow().core_stats(core)
    }

    /// The final memory checksum (after the cores drained).
    #[must_use]
    pub fn memory_checksum(&self) -> u64 {
        self.shared.borrow().memory_checksum()
    }

    /// The port core `core` plugs into its pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn port(&self, core: usize) -> CorePort {
        assert!(core < self.cores(), "core {core} out of range");
        CorePort {
            shared: Rc::clone(&self.shared),
            core,
        }
    }
}

/// One core's view of the coherent hierarchy — what its
/// [`laec_pipeline::Simulator`] drives.
#[derive(Debug)]
pub struct CorePort {
    shared: Rc<RefCell<MemorySystem>>,
    core: usize,
}

impl MemoryPort for CorePort {
    fn load_word(&mut self, address: u32, now: u64) -> LoadResponse {
        self.shared
            .borrow_mut()
            .core_load_word(self.core, address, now)
    }

    fn store_word_masked(
        &mut self,
        address: u32,
        value: u32,
        byte_mask: u8,
        now: u64,
    ) -> StoreResponse {
        self.shared
            .borrow_mut()
            .core_store_word_masked(self.core, address, value, byte_mask, now)
    }

    fn drain_to_memory(&mut self) -> u64 {
        self.shared.borrow_mut().core_drain(self.core)
    }

    fn stats(&self) -> MemStats {
        self.shared.borrow().core_stats(self.core)
    }

    fn unrecoverable_errors(&self) -> u64 {
        self.shared.borrow().core(self.core).unrecoverable_errors()
    }

    fn recovered_by_refetch(&self) -> u64 {
        self.shared.borrow().core(self.core).recovered_by_refetch()
    }

    fn lost_writebacks(&self) -> u64 {
        self.shared.borrow().core(self.core).dl1().lost_writebacks()
    }

    fn stale_metadata_reads(&self) -> u64 {
        self.shared.borrow().core(self.core).dl1().stale_reads()
    }

    fn meta_faults_injected(&self) -> u64 {
        self.shared
            .borrow()
            .core(self.core)
            .dl1()
            .meta_faults_injected()
    }

    fn inject_random_fault(
        &mut self,
        injector: &mut ErrorInjector,
        config: &FaultCampaignConfig,
    ) -> Option<u32> {
        self.shared
            .borrow_mut()
            .inject_random_core_fault(self.core, injector, config)
    }
}
