//! A faulty run forked from a fault-free prefix is the from-scratch run.
//!
//! Campaigns simulate a group's fault-free prefix once, snapshot it with
//! [`Simulator::try_clone`] just before the first injection, and finish
//! each faulty run from a copy with [`Simulator::arm_fault_campaign`].
//! Every `SimResult` field — statistics, registers, memory checksum,
//! chronogram, metadata counters and forensics records — must equal the
//! run that had the campaign from instruction 0.

use laec_isa::Program;
use laec_mem::{FaultCampaignConfig, FaultTarget, HierarchyConfig};
use laec_pipeline::{EccScheme, PipelineConfig, SimResult, Simulator};

/// Fills 96 words, sums them back, then streams stores over 3 KB (more
/// than the 1 KB DL1 of [`config`]), so the run hits, misses, and evicts
/// dirty lines.
fn program() -> Program {
    Program::assemble(
        r#"
            addi r1, r0, 0x600
            addi r2, r0, 96
        init:
            st   r2, [r1 + 0]
            addi r1, r1, 4
            subi r2, r2, 1
            bne  r2, r0, init
            addi r1, r0, 0x600
            addi r2, r0, 96
        sum:
            ld   r3, [r1 + 0]
            add  r4, r4, r3
            addi r1, r1, 4
            subi r2, r2, 1
            bne  r2, r0, sum
            addi r1, r0, 1
            slli r1, r1, 16
            addi r2, r0, 96
        stream:
            st   r4, [r1 + 0]
            ld   r5, [r1 + 4]
            addi r1, r1, 32
            subi r2, r2, 1
            bne  r2, r0, stream
            halt
        "#,
    )
    .expect("program assembles")
}

/// `scheme` on `hierarchy`'s DL1 policies, shrunk to 1 KB (8 sets × 4
/// ways) so a short program churns it.
fn config(scheme: EccScheme, hierarchy: HierarchyConfig) -> PipelineConfig {
    let mut config = PipelineConfig::for_scheme(scheme).with_trace(8);
    config.hierarchy.dl1.size_bytes = 1024;
    config.hierarchy.dl1.write_policy = hierarchy.dl1.write_policy;
    config.hierarchy.dl1.allocate_policy = hierarchy.dl1.allocate_policy;
    config
}

fn simulator(config: PipelineConfig, forensics: bool) -> Simulator {
    let mut simulator = Simulator::new(program(), config);
    if forensics {
        simulator.enable_forensics();
    }
    simulator
}

/// Forks two faulty runs from one fault-free prefix of `interval − 1`
/// instructions — one from a copy, one from the snapshot itself — and
/// returns them with the fault-free run finished from the same prefix.
fn forked(
    config: &PipelineConfig,
    forensics: bool,
    campaigns: [FaultCampaignConfig; 2],
) -> (SimResult, [SimResult; 2]) {
    let interval = campaigns[0].interval;
    let mut base = simulator(config.clone(), forensics);
    base.run_to(interval.checked_sub(1).unwrap_or(u64::MAX));
    let mut snapshot = base.try_clone().expect("untraced simulators clone");
    let fault_free = base.execute();
    let mut copy = snapshot.try_clone().expect("untraced simulators clone");
    assert!(copy.arm_fault_campaign(campaigns[0]));
    assert!(snapshot.arm_fault_campaign(campaigns[1]));
    (fault_free, [copy.execute(), snapshot.execute()])
}

#[test]
fn forked_faulty_runs_equal_runs_from_scratch() {
    let probe = Simulator::run(
        program(),
        config(EccScheme::NoEcc, HierarchyConfig::ngmp_write_back()),
    );
    let length = probe.stats.instructions;
    assert!(length > 1_000, "a program of {length} instructions");
    assert!(probe.stats.mem.dl1.writebacks > 64, "dirty evictions");
    let mut injected = 0;
    for scheme in EccScheme::figure8_set() {
        for hierarchy in [
            HierarchyConfig::ngmp_write_back(),
            HierarchyConfig::ngmp_write_through(),
        ] {
            let config = config(scheme, hierarchy);
            for forensics in [false, true] {
                let fault_free = simulator(config.clone(), forensics).execute();
                for target in [FaultTarget::Data, FaultTarget::State, FaultTarget::Tag] {
                    for interval in [0, 1, 2, 37, length - 1, length, length + 1] {
                        let campaigns = [0xF00D, 0xBEEF].map(|seed| {
                            FaultCampaignConfig::single_bit(seed, interval).with_target(target)
                        });
                        let (forked_fault_free, forked_faulty) =
                            forked(&config, forensics, campaigns);
                        let label = format!(
                            "{scheme} / {:?} / {target:?} / interval {interval} / forensics {forensics}",
                            hierarchy.dl1.write_policy
                        );
                        assert_eq!(forked_fault_free, fault_free, "{label}: fault-free");
                        for (campaign, forked) in campaigns.into_iter().zip(forked_faulty) {
                            let scratch =
                                simulator(config.clone().with_fault_campaign(campaign), forensics)
                                    .execute();
                            assert_eq!(forked, scratch, "{label}: seed {:#x}", campaign.seed);
                            injected += forked.stats.faults_injected;
                        }
                    }
                }
            }
        }
    }
    assert!(injected > 1_000, "the grid injected {injected} faults");
}

#[test]
fn arming_is_refused_past_the_first_injection_or_twice() {
    let campaign = FaultCampaignConfig::single_bit(7, 10);
    let mut simulator = Simulator::new(program(), PipelineConfig::laec());
    assert!(simulator.run_to(9));
    let mut late = simulator.try_clone().expect("untraced");
    assert!(late.run_to(10));
    assert!(!late.arm_fault_campaign(campaign), "instruction 10 injects");
    assert!(simulator.arm_fault_campaign(campaign));
    assert!(!simulator.arm_fault_campaign(campaign), "already armed");
}

#[test]
fn a_traced_simulator_is_not_copied() {
    let mut traced = Simulator::new(program(), PipelineConfig::laec());
    traced.attach_trace_sink(Box::new(laec_trace::NullSink));
    assert!(traced.try_clone().is_none(), "pipeline sink");
    let mut traced = Simulator::new(program(), PipelineConfig::laec());
    traced.attach_mem_trace_sink(Box::new(laec_trace::NullSink));
    assert!(traced.try_clone().is_none(), "hierarchy sink");
}
