//! Wire-format compatibility: spec documents written before the coherence
//! protocol became a grid axis must keep parsing, and must parse to the
//! same campaign they always described (MESI).
//!
//! `fixtures/ci_smoke_pre_protocol.json` is the byte-exact `specs/
//! ci_smoke.json` golden as committed before the `protocol` field existed.
//! It must never be regenerated — its whole point is to be old.

use laec_core::campaign::{PlatformVariant, WorkloadSet};
use laec_core::spec::{CampaignBuilder, CampaignSpec, ExecutionMode};
use laec_mem::{FaultTarget, ProtocolKind};
use laec_pipeline::EccScheme;

const PRE_PROTOCOL: &str = include_str!("fixtures/ci_smoke_pre_protocol.json");

#[test]
fn pre_protocol_spec_documents_still_parse() {
    let spec = CampaignSpec::from_json(PRE_PROTOCOL).expect("old spec bytes stay readable");
    assert_eq!(
        spec.grid.protocol,
        ProtocolKind::Mesi,
        "absent protocol is MESI"
    );
    // Every other axis decodes exactly as it did when the file was written.
    assert_eq!(spec.grid.seed, 6892);
    assert_eq!(
        spec.grid.workloads,
        WorkloadSet::Named(vec!["vector_sum".to_string(), "fir_filter".to_string()])
    );
    assert_eq!(spec.grid.schemes, vec![EccScheme::NoEcc, EccScheme::Laec]);
    assert_eq!(spec.grid.platforms, vec![PlatformVariant::WriteBack]);
    assert_eq!(spec.grid.fault_seeds, vec![1, 2]);
    assert_eq!(spec.grid.fault_interval, 200);
    assert_eq!(spec.grid.fault_target, FaultTarget::Data);
    assert_eq!(spec.mode, ExecutionMode::Full);
    spec.validate().expect("old specs stay runnable");
}

#[test]
fn pre_protocol_fixture_equals_the_modern_spec_for_the_same_campaign() {
    let old = CampaignSpec::from_json(PRE_PROTOCOL).expect("old spec parses");
    let new = CampaignBuilder::smoke()
        .named_workloads(["vector_sum", "fir_filter"])
        .schemes([EccScheme::NoEcc, EccScheme::Laec])
        .fault_seeds([1, 2])
        .fault_interval(200)
        .build()
        .expect("well-formed");
    assert_eq!(
        old, new,
        "the field's absence and its default are the same spec"
    );
    // Re-serializing the old document upgrades it in place: the modern form
    // carries the protocol explicitly and round-trips to itself.
    let upgraded = old.to_json();
    assert!(upgraded.contains("\"protocol\": \"mesi\""));
    assert_eq!(CampaignSpec::from_json(&upgraded), Ok(new));
}
