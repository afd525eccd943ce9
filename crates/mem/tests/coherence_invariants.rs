//! Coherence invariants on the real hierarchy.
//!
//! `laec_analyze::protocols` model-checks the protocol decision tables on
//! an abstract one-line system.  This suite checks the same safety
//! invariants on [`MemorySystem`] itself: 2 and 4 cores issue seeded random
//! loads, masked stores and conflict evictions over a handful of lines that
//! share DL1 sets, under MESI, Dragon and MOESI.  After every access:
//!
//! * **single writer** — at most one `M` copy, and an `M` or `E` copy is the
//!   only valid copy of its line;
//! * **unique owner** — at most one `O` and at most one `Sm` copy;
//! * **single dirty copy** — at most one of `M`/`Sm`/`O` overall;
//! * **coherent value** — [`MemorySystem::peek_coherent`] returns the last
//!   value stored to every word (a flat shadow map of the program's view).
//!
//! At the end every core drains, and main memory must equal the shadow map.

use std::collections::BTreeMap;

use laec_mem::{HierarchyConfig, LineState, MemorySystem, ProtocolKind};

/// Minimal deterministic generator (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Tracked line bases: six lines in one DL1 set and five in a neighbouring
/// one — more than the four ways, so accesses evict each other.
fn tracked_lines(config: &HierarchyConfig) -> Vec<u32> {
    let stride = config.dl1.sets() * config.dl1.line_bytes;
    let set0 = (0..6).map(|k| 0x10_0000 + k * stride);
    let set1 = (0..5).map(|k| 0x10_0000 + config.dl1.line_bytes + k * stride);
    set0.chain(set1).collect()
}

fn check_line(system: &MemorySystem, base: u32, context: &str) {
    let states: Vec<LineState> = (0..system.cores())
        .map(|core| system.core(core).dl1().coherence_state(base))
        .collect();
    let count = |wanted: LineState| states.iter().filter(|&&s| s == wanted).count();
    let valid = states.iter().filter(|s| s.is_valid()).count();
    let exclusive = count(LineState::Modified) + count(LineState::Exclusive);
    assert!(
        count(LineState::Modified) <= 1 && (exclusive == 0 || valid == 1),
        "single writer violated at {base:#x} {context}: {states:?}"
    );
    assert!(
        count(LineState::Owned) <= 1 && count(LineState::SharedModified) <= 1,
        "unique owner violated at {base:#x} {context}: {states:?}"
    );
    assert!(
        states.iter().filter(|s| s.is_dirty()).count() <= 1,
        "single dirty copy violated at {base:#x} {context}: {states:?}"
    );
}

fn expand(byte_mask: u8) -> u32 {
    (0..4)
        .filter(|byte| byte_mask & (1 << byte) != 0)
        .fold(0, |mask, byte| mask | (0xFF << (8 * byte)))
}

fn run(protocol: ProtocolKind, cores: usize, seed: u64, accesses: usize) {
    let config = HierarchyConfig::ngmp_write_back();
    let mut system = MemorySystem::with_cores(config, cores, protocol);
    let lines = tracked_lines(&config);
    // Two words per line: cores touching different words of one line
    // falsely share it.
    let words: Vec<u32> = lines.iter().flat_map(|&base| [base, base + 4]).collect();
    let mut shadow = BTreeMap::new();
    for (i, &address) in words.iter().enumerate() {
        let value = 0x5EED_0000 + i as u32;
        system.preload_word(address, value);
        shadow.insert(address, value);
    }
    let mut rng = Rng(seed);
    let mut now = 0u64;
    for step in 0..accesses {
        now += 1 + rng.below(8);
        let core = rng.below(cores as u64) as usize;
        let address = words[rng.below(words.len() as u64) as usize];
        let op = rng.below(10);
        if op < 5 {
            let response = system.core_load_word(core, address, now);
            assert_eq!(
                response.value, shadow[&address],
                "{protocol:?}/{cores} step {step}: core {core} loaded a stale {address:#x}"
            );
        } else if op < 9 {
            let value = rng.next() as u32;
            let byte_mask = if rng.below(4) == 0 {
                1 + rng.below(15) as u8
            } else {
                0xF
            };
            system.core_store_word_masked(core, address, value, byte_mask, now);
            let mask = expand(byte_mask);
            let old = shadow[&address];
            shadow.insert(address, (old & !mask) | (value & mask));
        } else {
            // Conflict eviction: load enough other tracked lines of the same
            // set to push `address`'s line out of this core's DL1.
            let set_of = |a: u32| (a / config.dl1.line_bytes) % config.dl1.sets();
            let line = address & !(config.dl1.line_bytes - 1);
            let set_mates: Vec<u32> = lines
                .iter()
                .copied()
                .filter(|&base| base != line && set_of(base) == set_of(address))
                .collect();
            for &mate in set_mates.iter().take(config.dl1.ways as usize) {
                now += 1;
                let response = system.core_load_word(core, mate, now);
                assert_eq!(response.value, shadow[&mate]);
            }
        }
        let context = format!("({protocol:?}, {cores} cores, seed {seed}, step {step})");
        for &base in &lines {
            check_line(&system, base, &context);
        }
        for (&word, &value) in &shadow {
            assert_eq!(
                system.peek_coherent(word),
                value,
                "peek_coherent({word:#x}) {context}"
            );
        }
    }
    for core in 0..cores {
        system.core_drain(core);
    }
    for (&word, &value) in &shadow {
        assert_eq!(
            system.peek_memory(word),
            value,
            "drained memory at {word:#x} ({protocol:?}, {cores} cores, seed {seed})"
        );
    }
}

#[test]
fn coherence_invariants_hold_on_the_real_hierarchy() {
    for protocol in ProtocolKind::ALL {
        for cores in [2, 4] {
            for seed in 1..=3 {
                run(protocol, cores, seed, 2_000);
            }
        }
    }
}

#[test]
fn the_random_traffic_exercises_every_protocol_action() {
    // Guard against a vacuous pass: the traffic must actually share, invalidate,
    // intervene and (under Dragon) broadcast updates.
    for protocol in ProtocolKind::ALL {
        let config = HierarchyConfig::ngmp_write_back();
        let mut system = MemorySystem::with_cores(config, 4, protocol);
        let lines = tracked_lines(&config);
        let mut rng = Rng(7);
        for now in 0..4_000u64 {
            let core = rng.below(4) as usize;
            let address = lines[rng.below(lines.len() as u64) as usize] + 4 * rng.below(2) as u32;
            if rng.below(2) == 0 {
                system.core_load_word(core, address, now);
            } else {
                system.core_store_word_masked(core, address, now as u32, 0xF, now);
            }
        }
        let coherence = system.coherence_stats();
        assert!(coherence.snoop_lookups > 0, "{protocol:?}: {coherence:?}");
        assert!(coherence.interventions > 0, "{protocol:?}: {coherence:?}");
        if protocol == ProtocolKind::Dragon {
            assert!(coherence.bus_updates > 0, "{protocol:?}: {coherence:?}");
        } else {
            assert!(coherence.invalidations > 0, "{protocol:?}: {coherence:?}");
            assert!(coherence.upgrades > 0, "{protocol:?}: {coherence:?}");
        }
    }
}
