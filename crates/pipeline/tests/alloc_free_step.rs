//! The per-instruction step allocates nothing once the simulator is warm.
//!
//! A counting global allocator tallies the calling thread's allocations
//! while `step_one` runs two loops.  In the first, loads stream through
//! twice the DL1's capacity (so they both hit and miss, and every miss
//! evicts a clean line) while stores keep hitting one resident line.  In
//! the second, stores stream through twice the write-back DL1's capacity,
//! so every store misses and evicts a dirty line into the L2.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use laec_isa::Program;
use laec_mem::HierarchyConfig;
use laec_pipeline::{EccScheme, PipelineConfig, Simulator};

/// Counts allocations per thread, so the test harness's own threads do not
/// disturb the count.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over.  The counter is a
// const-initialised thread-local without a destructor, so touching it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Loads stream over 32 KB (twice the 16 KB DL1) starting at 0x10000;
/// stores accumulate into the word at 0x40.  One pass is about 41k
/// instructions.
fn stream_program() -> Program {
    Program::assemble(
        r#"
            addi r5, r0, 64
            addi r6, r0, 1
            slli r6, r6, 16
            addi r7, r0, 1
            slli r7, r7, 15
            add  r7, r6, r7
        outer:
            add  r1, r6, r0
        inner:
            ld   r2, [r1 + 0]
            add  r3, r3, r2
            st   r3, [r5 + 0]
            addi r1, r1, 4
            bne  r1, r7, inner
            jmp  outer
        "#,
    )
    .expect("stream program assembles")
}

/// Stores stream over 32 KB (twice the 16 KB DL1) starting at 0x10000,
/// one store per 32 B line.  One pass is about 4.1k instructions and 1 024
/// store misses.
fn store_stream_program() -> Program {
    Program::assemble(
        r#"
            addi r6, r0, 1
            slli r6, r6, 16
            addi r7, r0, 1
            slli r7, r7, 15
            add  r7, r6, r7
        outer:
            add  r1, r6, r0
        inner:
            st   r3, [r1 + 0]
            addi r3, r3, 1
            addi r1, r1, 32
            bne  r1, r7, inner
            jmp  outer
        "#,
    )
    .expect("store stream program assembles")
}

#[test]
fn warm_dirty_evictions_make_no_allocations() {
    const PASS: usize = 4_100;
    for scheme in EccScheme::figure8_set() {
        let mut simulator =
            Simulator::new(store_stream_program(), PipelineConfig::for_scheme(scheme));
        for _ in 0..PASS + 100 {
            assert!(simulator.step_one());
        }
        // A copy drained now counts the warm-up's writebacks plus the same
        // final flush of a DL1 full of dirty lines as the measured run.
        let warm = simulator.try_clone().expect("untraced").finalize();
        let before = allocations();
        for _ in 0..2 * PASS {
            assert!(simulator.step_one());
        }
        let allocated = allocations() - before;
        let result = simulator.finalize();
        assert_eq!(allocated, 0, "{scheme}: warm dirty evictions allocated");
        // The measured window really evicted dirty lines into the L2.
        let writebacks = result.stats.mem.dl1.writebacks - warm.stats.mem.dl1.writebacks;
        assert!(writebacks >= 2 * 1_000, "{scheme}: {writebacks} writebacks");
    }
}

#[test]
fn warm_step_one_makes_no_allocations() {
    const PASS: usize = 41_000;
    for hierarchy in [
        HierarchyConfig::ngmp_write_back(),
        HierarchyConfig::ngmp_write_through(),
    ] {
        for scheme in EccScheme::figure8_set() {
            let mut config = PipelineConfig::for_scheme(scheme);
            config.hierarchy.dl1.write_policy = hierarchy.dl1.write_policy;
            config.hierarchy.dl1.allocate_policy = hierarchy.dl1.allocate_policy;
            let mut simulator = Simulator::new(stream_program(), config);
            for _ in 0..PASS + 1_000 {
                assert!(simulator.step_one());
            }
            let before = allocations();
            for _ in 0..2 * PASS {
                assert!(simulator.step_one());
            }
            let allocated = allocations() - before;
            let result = simulator.finalize();
            let label = format!("{scheme} / {:?}", hierarchy.dl1.write_policy);
            assert_eq!(allocated, 0, "{label}: warm steps allocated");
            // The measured window really hit, missed and evicted.
            assert!(result.stats.load_misses >= 2 * 1024, "{label}");
            assert!(result.stats.load_hits >= 2 * 7 * 1024, "{label}");
            assert!(result.stats.mem.dl1.evictions >= 2 * 1024, "{label}");
        }
    }
}
