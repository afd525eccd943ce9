//! The MESI conformance suite, also run as a `laec-smp` test target.
//!
//! The suite lives in `crates/mem/tests/mesi_conformance.rs` next to the
//! Dragon and MOESI suites; this entry point keeps
//! `cargo test -p laec-smp --test mesi_conformance` running the same tests.

#[path = "../../mem/tests/mesi_conformance.rs"]
mod suite;
