//! The correctness gate: every run's books must be exactly what its
//! configuration demands.

use tytan_fleet::{FleetConfig, FleetOutcome};
use tytan_trace::Counters;

use crate::workload::Pinned;

/// The verdict counts of one run, read either from a [`FleetOutcome`]
/// (untraced) or from the verifier's counters (traced), so both kinds of
/// run are judged, and compared, on the same fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    pub reports: u64,
    pub accepted: u64,
    pub rejected_replay: u64,
    pub rejected_bad_mac: u64,
    pub rejected_nonce: u64,
    pub rejected_digest: u64,
    pub rejected_inadmissible: u64,
    pub rejected_unproven: u64,
    pub rejected_chain: u64,
    pub unknown_device: u64,
    pub decode_errors: u64,
    pub cfa_reports: u64,
    pub cfa_edges: u64,
    pub cfa_runs: u64,
    pub bundles: u64,
    pub device_errors: u64,
}

impl From<&FleetOutcome> for Tally {
    fn from(o: &FleetOutcome) -> Self {
        Tally {
            reports: o.reports,
            accepted: o.accepted,
            rejected_replay: o.rejected_replay,
            rejected_bad_mac: o.rejected_bad_mac,
            rejected_nonce: o.rejected_nonce,
            rejected_digest: o.rejected_digest,
            rejected_inadmissible: o.rejected_inadmissible,
            rejected_unproven: o.rejected_unproven,
            rejected_chain: o.rejected_chain,
            unknown_device: o.unknown_device,
            decode_errors: o.decode_errors,
            cfa_reports: o.cfa_reports,
            cfa_edges: o.cfa_edges,
            cfa_runs: o.cfa_runs,
            bundles: o.bundles,
            device_errors: o.device_errors,
        }
    }
}

impl Tally {
    /// Reads the `fleet_*` counters a `FleetVerifier` reports into, the
    /// same ones `run_fleet` builds its outcome from.
    pub fn from_counters(counters: &Counters, device_errors: u64) -> Self {
        let get = |name: &str| counters.get(name).unwrap_or(0);
        Tally {
            reports: get("fleet_reports"),
            accepted: get("fleet_accepted"),
            rejected_replay: get("fleet_rejected_replay"),
            rejected_bad_mac: get("fleet_rejected_bad_mac"),
            rejected_nonce: get("fleet_rejected_nonce"),
            rejected_digest: get("fleet_rejected_digest"),
            rejected_inadmissible: get("fleet_rejected_inadmissible"),
            rejected_unproven: get("fleet_rejected_unproven"),
            rejected_chain: get("fleet_rejected_chain"),
            unknown_device: get("fleet_unknown_device"),
            decode_errors: get("fleet_decode_errors"),
            cfa_reports: get("fleet_cfa_reports"),
            cfa_edges: get("fleet_cfa_edges"),
            cfa_runs: get("fleet_cfa_runs"),
            bundles: get("fleet_bundles"),
            device_errors,
        }
    }
}

/// Operations one run attempted and how many got the wrong verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Books {
    /// Reports the configuration sends: genuine plus injected copies.
    pub attempted: u64,
    /// Reports whose verdict was not their expected class, or that a
    /// failed device never sent.
    pub failed: u64,
    /// Every way the run differs from exact books; empty means correct.
    pub problems: Vec<String>,
}

/// Judges `tally` against what `config` demands. `clean` is the
/// program's own verdict (`FleetOutcome::clean`) where there is one.
pub fn judge(config: &FleetConfig, pinned: &Pinned, tally: &Tally, clean: bool) -> Books {
    let genuine = config.devices * config.rounds;
    let replays = config.injected_replays();
    let forgeries = config.injected_corrupt();
    let detours = config.injected_detours();
    let attempted = genuine + replays + forgeries + detours;
    let correct = tally.accepted.min(genuine)
        + tally.rejected_replay.min(replays)
        + tally.rejected_bad_mac.min(forgeries)
        + tally.rejected_inadmissible.min(detours);
    let mut problems = Vec::new();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            problems.push(format!("{what}: got {got}, expected {want}"));
        }
    };
    expect("accepted", tally.accepted, genuine);
    expect("rejected replay", tally.rejected_replay, replays);
    expect("rejected bad mac", tally.rejected_bad_mac, forgeries);
    expect(
        "rejected inadmissible",
        tally.rejected_inadmissible,
        detours,
    );
    expect("reports", tally.reports, attempted);
    expect("rejected nonce", tally.rejected_nonce, 0);
    expect("rejected digest", tally.rejected_digest, 0);
    expect("rejected unproven", tally.rejected_unproven, 0);
    expect("rejected chain", tally.rejected_chain, 0);
    expect("unknown device", tally.unknown_device, 0);
    expect("decode errors", tally.decode_errors, 0);
    expect("device errors", tally.device_errors, 0);
    expect("bundles", tally.bundles, attempted - genuine);
    let cfa_reports = if config.cfa { attempted } else { 0 };
    expect("cfa reports", tally.cfa_reports, cfa_reports);
    expect(
        "cfa edges",
        tally.cfa_edges,
        cfa_reports * pinned.cfa_edges_per_report,
    );
    expect(
        "cfa runs",
        tally.cfa_runs,
        cfa_reports * pinned.cfa_runs_per_report,
    );
    if !clean {
        problems.push("FleetOutcome::clean() is false".to_string());
    }
    Books {
        attempted,
        failed: attempted - correct,
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;
    use std::time::Duration;

    fn hostile_outcome() -> (FleetConfig, Pinned, FleetOutcome) {
        let w = by_name("hostile").expect("hostile exists");
        let config = w.config(20260809, 1);
        let genuine = config.devices * config.rounds;
        let (replays, forgeries) = (config.injected_replays(), config.injected_corrupt());
        let outcome = FleetOutcome {
            devices: config.devices,
            rounds: config.rounds,
            reports: genuine + replays + forgeries,
            accepted: genuine,
            rejected_replay: replays,
            rejected_bad_mac: forgeries,
            rejected_nonce: 0,
            rejected_digest: 0,
            unknown_device: 0,
            decode_errors: 0,
            cfa_reports: 0,
            cfa_edges: 0,
            cfa_runs: 0,
            rejected_inadmissible: 0,
            rejected_unproven: 0,
            rejected_chain: 0,
            injected_replays: replays,
            injected_corrupt: forgeries,
            injected_detours: 0,
            device_errors: 0,
            elapsed: Duration::from_millis(1),
            throughput: 1.0,
            verify_p50_ns: 0,
            verify_p99_ns: 0,
            batch_p50_ns: 0,
            batch_p99_ns: 0,
            batches: 1,
            bundles: replays + forgeries,
            events: 0,
            events_dropped: 0,
            trace_dropped: 0,
        };
        (config, w.pinned, outcome)
    }

    #[test]
    fn exact_books_pass() {
        let (config, pinned, outcome) = hostile_outcome();
        assert!(outcome.clean());
        let books = judge(&config, &pinned, &Tally::from(&outcome), outcome.clean());
        assert_eq!(books.problems, Vec::<String>::new());
        assert_eq!(books.failed, 0);
        assert_eq!(books.attempted, outcome.reports);
    }

    #[test]
    fn a_dirty_outcome_is_rejected_and_counted() {
        let (config, pinned, mut outcome) = hostile_outcome();
        // One forgery slipped through as accepted.
        outcome.rejected_bad_mac -= 1;
        outcome.bundles -= 1;
        outcome.accepted += 1;
        assert!(!outcome.clean());
        let books = judge(&config, &pinned, &Tally::from(&outcome), outcome.clean());
        assert_eq!(books.failed, 1);
        assert!(books.problems.iter().any(|p| p.starts_with("accepted")));
        assert!(books.problems.iter().any(|p| p.contains("clean()")));
    }

    #[test]
    fn a_device_error_fails_its_missing_reports() {
        let (config, pinned, mut outcome) = hostile_outcome();
        // Device 1 (no injections) died before its last round.
        outcome.device_errors = 1;
        outcome.accepted -= 1;
        outcome.reports -= 1;
        let books = judge(&config, &pinned, &Tally::from(&outcome), outcome.clean());
        assert_eq!(books.failed, 1);
        assert!(!books.problems.is_empty());
    }

    #[test]
    fn clean_by_the_program_but_off_pinned_counts_is_rejected() {
        let w = by_name("cfa_long").expect("cfa_long exists");
        let config = w.config(1, 1);
        let n = config.devices;
        let tally = Tally {
            reports: n,
            accepted: n,
            cfa_reports: n,
            cfa_edges: n * w.pinned.cfa_edges_per_report,
            cfa_runs: n * w.pinned.cfa_runs_per_report + 1,
            ..Tally::default()
        };
        let books = judge(&config, &w.pinned, &tally, true);
        assert_eq!(books.failed, 0);
        assert_eq!(books.problems.len(), 1, "{:?}", books.problems);
        assert!(books.problems[0].starts_with("cfa runs"));
    }
}
