//! Campaign-level fault forensics: per-fault lifecycle records projected
//! into reports, histograms and a Chrome-trace export.
//!
//! The memory layer (`laec_mem::forensics`) closes one record per injected
//! fault — strike cycle, latent residency, first activation, classified
//! outcome.  This module assembles those per-cell record sets into a
//! [`ForensicsReport`] aligned with the campaign's grid cells, and renders
//! it three ways:
//!
//! * [`ForensicsReport::to_json`] — deterministic pretty JSON (the CI
//!   artifact the determinism tests `cmp` across thread counts and
//!   engines),
//! * [`ForensicsReport::render`] — aligned text: outcome totals, the
//!   detection-latency and latent-residency histograms, and per-cell
//!   strike → outcome tables,
//! * [`ForensicsReport::chrome_trace_json`] — Chrome trace-event JSON for
//!   chrome://tracing or Perfetto: one process per cell, one track per
//!   fault, spans from strike to activation, flow arrows from the cell
//!   track to each activation.
//!
//! Everything is keyed on simulation cycles (1 trace microsecond = 1
//! simulated cycle); no wall-clock value ever enters a forensics artifact,
//! so the bytes inherit the campaign determinism contract.

use laec_mem::{CellForensics, FaultOutcome};
use serde::{Deserialize, Serialize, Serializer};

use crate::campaign::CampaignReport;

/// Decade buckets shared by the report histograms and the metrics
/// projection (`forensics.*` histograms in the metrics dump).  Labels are
/// chosen so lexicographic order (the `BTreeMap` dump order) equals
/// semantic order.
pub(crate) const LATENCY_BUCKETS: [&str; 7] =
    ["0", "<10", "<100", "<1000", "<10000", "<100000", ">=100000"];

/// The decade bucket a cycle count falls into (see [`LATENCY_BUCKETS`]).
#[must_use]
pub(crate) fn decade_bucket(cycles: u64) -> &'static str {
    match cycles {
        0 => "0",
        1..=9 => "<10",
        10..=99 => "<100",
        100..=999 => "<1000",
        1000..=9999 => "<10000",
        10000..=99_999 => "<100000",
        _ => ">=100000",
    }
}

/// One fault's closed lifecycle, in report form (stable string labels).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForensicsRecord {
    /// Struck structure (`data`, `state`, `tag`).
    pub target: String,
    /// Word address (data strikes) or line base (metadata strikes).
    pub address: u32,
    /// Simulation cycle of the strike.
    pub strike_cycle: u64,
    /// First access kind that touched the damage, if any.
    pub activation: Option<String>,
    /// Simulation cycle of that first activation.
    pub activation_cycle: Option<u64>,
    /// `activation_cycle - strike_cycle`, when activated.
    pub latency: Option<u64>,
    /// Terminal classification (`masked`, `corrected`, `detected`, `sdc`,
    /// `lost_writeback`, `stale_metadata_read`).
    pub outcome: String,
}

/// One grid cell's forensics: its coordinates plus every fault record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForensicsCell {
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Platform label.
    pub platform: String,
    /// Fault-axis seed (`None` for fault-free cells, which never appear
    /// here — they record no faults).
    pub fault_seed: Option<u64>,
    /// Cycles the cell retired (the time axis of the cell's trace track).
    pub cycles: u64,
    /// The cell's fault records, canonically sorted by the memory layer.
    pub records: Vec<ForensicsRecord>,
}

/// The campaign's full forensics artifact: axes context plus every cell
/// that recorded at least one fault, in the report's cell order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForensicsReport {
    /// The campaign's fault target label.
    pub fault_target: String,
    /// The campaign's coherence protocol label.
    pub protocol: String,
    /// Committed instructions between injected upsets (`0`: none).
    pub fault_interval: u64,
    /// The campaign's master seed.
    pub seed: u64,
    /// Cells with a non-empty record set, in grid order.
    pub cells: Vec<ForensicsCell>,
}

impl ForensicsReport {
    /// Zips a finished grid report with the engine's per-cell record sets
    /// (same cell order), keeping only cells that recorded faults.
    #[must_use]
    pub(crate) fn build(
        spec: &crate::campaign::CampaignSpec,
        report: &CampaignReport,
        forensics: &[CellForensics],
    ) -> Self {
        debug_assert_eq!(report.cells.len(), forensics.len());
        let cells = report
            .cells
            .iter()
            .zip(forensics)
            .filter(|(_, records)| !records.is_empty())
            .map(|(cell, records)| ForensicsCell {
                workload: cell.workload.clone(),
                scheme: cell.scheme.clone(),
                platform: cell.platform.clone(),
                fault_seed: cell.fault_seed,
                cycles: cell.cycles,
                records: records
                    .records
                    .iter()
                    .map(|r| ForensicsRecord {
                        target: r.target.label().to_string(),
                        address: r.address,
                        strike_cycle: r.strike_cycle,
                        activation: r.activation.map(|a| a.label().to_string()),
                        activation_cycle: r.activation_cycle,
                        latency: r.latency(),
                        outcome: r.outcome.label().to_string(),
                    })
                    .collect(),
            })
            .collect();
        ForensicsReport {
            fault_target: spec.fault_target.label().to_string(),
            protocol: spec.protocol.table().name().to_string(),
            fault_interval: spec.fault_interval,
            seed: spec.seed,
            cells,
        }
    }

    /// `true` when no cell recorded a fault.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total fault records across all cells.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.cells.iter().map(|c| c.records.len() as u64).sum()
    }

    /// Records whose damage was architecturally touched before end of run.
    #[must_use]
    pub fn activated(&self) -> u64 {
        self.records().filter(|r| r.activation.is_some()).count() as u64
    }

    /// Per-outcome totals, in [`FaultOutcome::all`]'s canonical order
    /// (zero entries included).
    #[must_use]
    pub fn outcome_totals(&self) -> Vec<(&'static str, u64)> {
        FaultOutcome::all()
            .into_iter()
            .map(|outcome| {
                let label = outcome.label();
                let count = self.records().filter(|r| r.outcome == label).count() as u64;
                (label, count)
            })
            .collect()
    }

    /// Decade histogram of detection latency — strike to the access whose
    /// decode *flagged* the fault (outcomes `detected` and `corrected`).
    #[must_use]
    pub fn detection_latency_histogram(&self) -> Vec<(&'static str, u64)> {
        self.latency_histogram(|r| r.outcome == "detected" || r.outcome == "corrected")
    }

    /// Decade histogram of latent residency — strike to the *first* access
    /// that touched the damage, whatever the machinery made of it.
    #[must_use]
    pub fn latent_residency_histogram(&self) -> Vec<(&'static str, u64)> {
        self.latency_histogram(|_| true)
    }

    fn records(&self) -> impl Iterator<Item = &ForensicsRecord> {
        self.cells.iter().flat_map(|c| c.records.iter())
    }

    fn latency_histogram<F>(&self, keep: F) -> Vec<(&'static str, u64)>
    where
        F: Fn(&ForensicsRecord) -> bool,
    {
        let mut counts = [0u64; LATENCY_BUCKETS.len()];
        for record in self.records().filter(|r| keep(r)) {
            if let Some(latency) = record.latency {
                let bucket = decade_bucket(latency);
                if let Some(at) = LATENCY_BUCKETS.iter().position(|b| *b == bucket) {
                    counts[at] += 1;
                }
            }
        }
        LATENCY_BUCKETS.into_iter().zip(counts).collect()
    }

    /// Serializes the report as deterministic pretty-printed JSON: the same
    /// campaign produces the same bytes for any worker thread count and for
    /// the full-simulation and trace-backed engines (CI `cmp`s all three).
    #[must_use]
    pub fn to_json(&self) -> String {
        // laec-lint: allow(panic-in-library) -- serialization of an owned
        // in-memory report cannot fail; an error would be a serde-stub bug.
        serde_json::to_string_pretty(self).expect("forensics report serializes")
    }

    /// Renders the report as aligned text: context line, outcome totals,
    /// the two latency histograms and a per-cell outcome table.  With
    /// `detail`, every individual fault record follows (the
    /// `laec-cli forensics` strike → outcome tables).
    #[must_use]
    pub fn render(&self, detail: bool) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fault forensics  target={}  protocol={}  interval={}\n",
            self.fault_target, self.protocol, self.fault_interval
        ));
        out.push_str(&format!(
            "  faults={}  activated={}  cells-with-faults={}\n\n",
            self.total_faults(),
            self.activated(),
            self.cells.len()
        ));

        out.push_str("outcome totals\n");
        for (label, count) in self.outcome_totals() {
            out.push_str(&format!("  {label:<20} {count:>8}\n"));
        }

        out.push_str("\ndetection latency (strike -> flagging access, cycles)\n");
        render_histogram(&mut out, &self.detection_latency_histogram());
        out.push_str("\nlatent residency (strike -> first touch, cycles)\n");
        render_histogram(&mut out, &self.latent_residency_histogram());

        out.push_str(&format!(
            "\nper-cell outcomes\n  {:<16} {:<12} {:<10} {:>6} {:>7}",
            "workload", "scheme", "platform", "seed", "faults"
        ));
        for outcome in FaultOutcome::all() {
            out.push_str(&format!(" {:>9}", short_outcome(outcome.label())));
        }
        out.push('\n');
        for cell in &self.cells {
            let seed = cell
                .fault_seed
                .map_or_else(|| "-".to_string(), |s| s.to_string());
            out.push_str(&format!(
                "  {:<16} {:<12} {:<10} {:>6} {:>7}",
                cell.workload,
                cell.scheme,
                cell.platform,
                seed,
                cell.records.len()
            ));
            for outcome in FaultOutcome::all() {
                let label = outcome.label();
                let count = cell.records.iter().filter(|r| r.outcome == label).count();
                out.push_str(&format!(" {count:>9}"));
            }
            out.push('\n');
        }

        if detail {
            out.push_str("\nrecords\n");
            for cell in &self.cells {
                let seed = cell
                    .fault_seed
                    .map_or_else(|| "-".to_string(), |s| s.to_string());
                out.push_str(&format!(
                    "  {}/{}/{} seed={seed}\n",
                    cell.workload, cell.scheme, cell.platform
                ));
                out.push_str(&format!(
                    "    {:<6} {:<10} {:>8} {:<16} {:>8} {}\n",
                    "target", "address", "strike", "activation", "latency", "outcome"
                ));
                for r in &cell.records {
                    let activation = match (&r.activation, r.activation_cycle) {
                        (Some(kind), Some(cycle)) => format!("{kind}@{cycle}"),
                        _ => "-".to_string(),
                    };
                    let latency = r.latency.map_or_else(|| "-".to_string(), |l| l.to_string());
                    out.push_str(&format!(
                        "    {:<6} 0x{:08x} {:>8} {:<16} {:>8} {}\n",
                        r.target, r.address, r.strike_cycle, activation, latency, r.outcome
                    ));
                }
            }
        }
        out
    }

    /// Exports the report in the Chrome trace-event JSON format (load into
    /// chrome://tracing or <https://ui.perfetto.dev>).
    ///
    /// Mapping: one *process* per cell (named by its grid coordinates), a
    /// `cell` span on track 0 covering the cell's retired cycles, one named
    /// track per fault carrying either a strike → activation span (duration
    /// = detection latency, clamped to ≥ 1 so zero-latency activations stay
    /// visible) or a `latent` instant for faults never touched, and a flow
    /// arrow from the cell track at the strike cycle to the fault's
    /// activation.  Timestamps are simulation cycles (1 µs = 1 cycle).
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        let mut events: Vec<ChromeEvent<'_>> = Vec::new();
        let mut flow_id = 0u64;
        for (index, cell) in self.cells.iter().enumerate() {
            let pid = index as u64;
            let seed = cell
                .fault_seed
                .map_or_else(|| "-".to_string(), |s| s.to_string());
            events.push(ChromeEvent::ProcessName {
                pid,
                name: format!(
                    "{}/{}/{} seed={seed}",
                    cell.workload, cell.scheme, cell.platform
                ),
            });
            events.push(ChromeEvent::ThreadName {
                pid,
                tid: 0,
                name: "cell".to_string(),
            });
            events.push(ChromeEvent::CellSpan {
                pid,
                cycles: cell.cycles.max(1),
            });
            for (slot, record) in cell.records.iter().enumerate() {
                let tid = slot as u64 + 1;
                events.push(ChromeEvent::ThreadName {
                    pid,
                    tid,
                    name: format!("{} fault 0x{:08x}", record.target, record.address),
                });
                match (record.activation_cycle, record.latency) {
                    (Some(activation_cycle), Some(latency)) => {
                        events.push(ChromeEvent::FaultSpan {
                            pid,
                            tid,
                            ts: record.strike_cycle,
                            dur: latency.max(1),
                            record,
                        });
                        events.push(ChromeEvent::Flow {
                            pid,
                            tid: 0,
                            ts: record.strike_cycle,
                            id: flow_id,
                            end: false,
                        });
                        events.push(ChromeEvent::Flow {
                            pid,
                            tid,
                            ts: activation_cycle,
                            id: flow_id,
                            end: true,
                        });
                        flow_id += 1;
                    }
                    _ => events.push(ChromeEvent::Latent {
                        pid,
                        tid,
                        ts: record.strike_cycle,
                        record,
                    }),
                }
            }
        }
        let mut s = Serializer::compact();
        s.begin_object();
        s.field("traceEvents", &events);
        s.field("displayTimeUnit", "ms");
        s.end_object();
        s.finish()
    }
}

fn render_histogram(out: &mut String, histogram: &[(&'static str, u64)]) {
    for (bucket, count) in histogram {
        out.push_str(&format!("  {bucket:<10} {count:>8}\n"));
    }
}

/// Column-width-friendly outcome abbreviations for the per-cell table.
fn short_outcome(label: &str) -> &str {
    match label {
        "lost_writeback" => "lost_wb",
        "stale_metadata_read" => "stale_rd",
        other => other,
    }
}

/// One Chrome trace event; each variant serializes exactly the members its
/// phase (`ph`) defines, so no viewer ever sees spurious `null` fields.
enum ChromeEvent<'a> {
    /// `"M"` process-name metadata.
    ProcessName { pid: u64, name: String },
    /// `"M"` thread-name metadata.
    ThreadName { pid: u64, tid: u64, name: String },
    /// `"X"` span on track 0 covering the cell's whole run.
    CellSpan { pid: u64, cycles: u64 },
    /// `"X"` strike → activation span on the fault's own track.
    FaultSpan {
        pid: u64,
        tid: u64,
        ts: u64,
        dur: u64,
        record: &'a ForensicsRecord,
    },
    /// `"i"` instant for a fault never touched before end of run.
    Latent {
        pid: u64,
        tid: u64,
        ts: u64,
        record: &'a ForensicsRecord,
    },
    /// `"s"`/`"f"` flow arrow endpoint (strike → activation).
    Flow {
        pid: u64,
        tid: u64,
        ts: u64,
        id: u64,
        end: bool,
    },
}

impl Serialize for ChromeEvent<'_> {
    fn serialize(&self, serializer: &mut Serializer) {
        serializer.begin_object();
        match self {
            ChromeEvent::ProcessName { pid, name } => {
                serializer.field("name", "process_name");
                serializer.field("ph", "M");
                serializer.field("pid", pid);
                serializer.field("tid", &0u64);
                serializer.field("args", &NameArgs(name));
            }
            ChromeEvent::ThreadName { pid, tid, name } => {
                serializer.field("name", "thread_name");
                serializer.field("ph", "M");
                serializer.field("pid", pid);
                serializer.field("tid", tid);
                serializer.field("args", &NameArgs(name));
            }
            ChromeEvent::CellSpan { pid, cycles } => {
                serializer.field("name", "cell");
                serializer.field("cat", "cell");
                serializer.field("ph", "X");
                serializer.field("ts", &0u64);
                serializer.field("dur", cycles);
                serializer.field("pid", pid);
                serializer.field("tid", &0u64);
            }
            ChromeEvent::FaultSpan {
                pid,
                tid,
                ts,
                dur,
                record,
            } => {
                serializer.field("name", record.outcome.as_str());
                serializer.field("cat", record.target.as_str());
                serializer.field("ph", "X");
                serializer.field("ts", ts);
                serializer.field("dur", dur);
                serializer.field("pid", pid);
                serializer.field("tid", tid);
                serializer.field("args", &RecordArgs(record));
            }
            ChromeEvent::Latent {
                pid,
                tid,
                ts,
                record,
            } => {
                serializer.field("name", "latent");
                serializer.field("cat", record.target.as_str());
                serializer.field("ph", "i");
                serializer.field("s", "t");
                serializer.field("ts", ts);
                serializer.field("pid", pid);
                serializer.field("tid", tid);
                serializer.field("args", &RecordArgs(record));
            }
            ChromeEvent::Flow {
                pid,
                tid,
                ts,
                id,
                end,
            } => {
                serializer.field("name", "lifecycle");
                serializer.field("cat", "fault");
                serializer.field("ph", if *end { "f" } else { "s" });
                if *end {
                    serializer.field("bp", "e");
                }
                serializer.field("id", id);
                serializer.field("ts", ts);
                serializer.field("pid", pid);
                serializer.field("tid", tid);
            }
        }
        serializer.end_object();
    }
}

/// `args: {"name": ...}` for metadata events.
struct NameArgs<'a>(&'a str);

impl Serialize for NameArgs<'_> {
    fn serialize(&self, serializer: &mut Serializer) {
        serializer.begin_object();
        serializer.field("name", self.0);
        serializer.end_object();
    }
}

/// `args` payload carrying a fault record's coordinates.
struct RecordArgs<'a>(&'a ForensicsRecord);

impl Serialize for RecordArgs<'_> {
    fn serialize(&self, serializer: &mut Serializer) {
        serializer.begin_object();
        serializer.field("address", &format!("0x{:08x}", self.0.address));
        serializer.field("outcome", self.0.outcome.as_str());
        if let Some(activation) = &self.0.activation {
            serializer.field("activation", activation.as_str());
        }
        if let Some(latency) = self.0.latency {
            serializer.field("latency", &latency);
        }
        serializer.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(outcome: &str, strike: u64, activation: Option<u64>) -> ForensicsRecord {
        ForensicsRecord {
            target: "data".to_string(),
            address: 0x1000,
            strike_cycle: strike,
            activation: activation.map(|_| "read".to_string()),
            activation_cycle: activation,
            latency: activation.map(|cycle| cycle - strike),
            outcome: outcome.to_string(),
        }
    }

    fn report() -> ForensicsReport {
        ForensicsReport {
            fault_target: "data".to_string(),
            protocol: "mesi".to_string(),
            fault_interval: 200,
            seed: 7,
            cells: vec![ForensicsCell {
                workload: "vector_sum".to_string(),
                scheme: "laec".to_string(),
                platform: "wb".to_string(),
                fault_seed: Some(1),
                cycles: 5000,
                records: vec![
                    record("corrected", 100, Some(130)),
                    record("sdc", 400, Some(2400)),
                    record("masked", 900, None),
                ],
            }],
        }
    }

    #[test]
    fn decade_buckets_cover_the_line() {
        assert_eq!(decade_bucket(0), "0");
        assert_eq!(decade_bucket(1), "<10");
        assert_eq!(decade_bucket(9), "<10");
        assert_eq!(decade_bucket(10), "<100");
        assert_eq!(decade_bucket(99_999), "<100000");
        assert_eq!(decade_bucket(100_000), ">=100000");
        // Lexicographic order (the metrics-dump order) == semantic order.
        let mut sorted = LATENCY_BUCKETS;
        sorted.sort_unstable();
        assert_eq!(sorted, LATENCY_BUCKETS);
    }

    #[test]
    fn totals_and_histograms_classify_records() {
        let report = report();
        assert_eq!(report.total_faults(), 3);
        assert_eq!(report.activated(), 2);
        let totals = report.outcome_totals();
        assert_eq!(totals[0], ("masked", 1));
        assert_eq!(totals[1], ("corrected", 1));
        assert_eq!(totals[3], ("sdc", 1));
        // Only the corrected record counts toward detection latency...
        let detection = report.detection_latency_histogram();
        assert_eq!(detection.iter().map(|(_, c)| c).sum::<u64>(), 1);
        // ...but both activated records sat resident.
        let residency = report.latent_residency_histogram();
        assert_eq!(residency.iter().map(|(_, c)| c).sum::<u64>(), 2);
    }

    #[test]
    fn render_tabulates_cells_and_records() {
        let text = report().render(true);
        assert!(text.contains("fault forensics"));
        assert!(text.contains("per-cell outcomes"));
        assert!(text.contains("vector_sum"));
        assert!(text.contains("read@130"));
        assert!(text.contains("0x00001000"));
    }

    #[test]
    fn chrome_trace_is_valid_and_carries_the_lifecycle() {
        let json = report().chrome_trace_json();
        let value = serde_json::parse(&json).expect("valid JSON");
        let events = value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        for event in events {
            assert!(event.get("ph").and_then(|v| v.as_str()).is_some());
            assert!(event.get("pid").and_then(|v| v.as_u64()).is_some());
        }
        // Two activated faults -> two spans + one latent instant + flows.
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 3, "cell + 2");
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "s").count(), 1 + 1);
        assert_eq!(phases.iter().filter(|p| **p == "f").count(), 2);
    }
}
