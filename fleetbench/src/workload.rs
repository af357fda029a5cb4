//! The four fleet workloads and the configuration each hands the program.
//!
//! Every workload is a closed loop: a device sends its next report only
//! after it has received the challenge for it, so the farm's worker count
//! is the number of conversations in flight. The seed reaches the program
//! only as [`FleetConfig::seed`] (fleet master secret, nonces).

use tytan_fleet::FleetConfig;

/// Wire chunk size every workload fragments frames into.
pub const CHUNK: usize = 13;

/// Deterministic counts a run must reproduce exactly. They depend on the
/// task image and the cycle model, never on the seed or the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    /// Guest cycles of one `remote_attest` / `remote_attest_cfa` call.
    pub attest_guest_cycles: u64,
    /// Guest cycles of one fleet-task load (`begin_load` to `wait_load`).
    pub load_guest_cycles: u64,
    /// Raw control-flow edges in one CFA report (0 for static workloads).
    pub cfa_edges_per_report: u64,
    /// Run-length runs in one CFA report (0 for static workloads).
    pub cfa_runs_per_report: u64,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub devices: u64,
    pub rounds: u64,
    pub cfa: bool,
    pub monitored_cycles: u64,
    pub replay_every: Option<u64>,
    pub corrupt_every: Option<u64>,
    pub pinned: Pinned,
}

const STATIC_PINNED: Pinned = Pinned {
    attest_guest_cycles: 15_600,
    load_guest_cycles: 49_631,
    cfa_edges_per_report: 0,
    cfa_runs_per_report: 0,
};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "enroll",
        devices: 300,
        rounds: 1,
        cfa: false,
        monitored_cycles: 0,
        replay_every: None,
        corrupt_every: None,
        pinned: STATIC_PINNED,
    },
    Workload {
        name: "reattest",
        devices: 20,
        rounds: 200,
        cfa: false,
        monitored_cycles: 0,
        replay_every: None,
        corrupt_every: None,
        pinned: STATIC_PINNED,
    },
    Workload {
        name: "cfa_long",
        devices: 10,
        rounds: 1,
        cfa: true,
        monitored_cycles: 1_000_000,
        replay_every: None,
        corrupt_every: None,
        pinned: Pinned {
            attest_guest_cycles: 257_400,
            load_guest_cycles: 49_631,
            cfa_edges_per_report: 61_097,
            cfa_runs_per_report: 62,
        },
    },
    Workload {
        name: "hostile",
        devices: 20,
        rounds: 100,
        cfa: false,
        monitored_cycles: 0,
        replay_every: Some(2),
        corrupt_every: Some(3),
        pinned: STATIC_PINNED,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

fn hit(every: Option<u64>, device: u64) -> bool {
    matches!(every, Some(n) if n > 0 && device.is_multiple_of(n))
}

impl Workload {
    /// The configuration `run_fleet` receives for `seed` on a farm of
    /// `workers` threads.
    pub fn config(&self, seed: u64, workers: usize) -> FleetConfig {
        FleetConfig {
            devices: self.devices,
            rounds: self.rounds,
            seed,
            workers,
            chunk: CHUNK,
            replay_every: self.replay_every,
            corrupt_every: self.corrupt_every,
            cfa: self.cfa,
            monitored_cycles: self.monitored_cycles,
            ..FleetConfig::default()
        }
    }

    /// The same shape cut down to a handful of devices and at most two
    /// rounds: the round the Chrome trace export follows.
    pub fn small(&self) -> Workload {
        Workload {
            devices: self.devices.min(6),
            rounds: self.rounds.min(2),
            ..*self
        }
    }

    /// Whether `device` re-sends each report verbatim.
    pub fn replays(&self, device: u64) -> bool {
        hit(self.replay_every, device)
    }

    /// Whether `device` also sends a MAC-corrupted copy of each report.
    pub fn forges(&self, device: u64) -> bool {
        hit(self.corrupt_every, device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_injections_match_the_workload_predicates() {
        for w in WORKLOADS {
            let config = w.config(1, 1);
            let replays = (0..w.devices).filter(|&d| w.replays(d)).count() as u64 * w.rounds;
            let forgeries = (0..w.devices).filter(|&d| w.forges(d)).count() as u64 * w.rounds;
            assert_eq!(config.injected_replays(), replays, "{}", w.name);
            assert_eq!(config.injected_corrupt(), forgeries, "{}", w.name);
            assert_eq!(config.injected_detours(), 0, "{}", w.name);
        }
    }

    #[test]
    fn names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(by_name(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(by_name("nope").is_none());
    }
}
