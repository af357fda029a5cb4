//! Fleet attestation benchmark.
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload <enroll|reattest|cfa_long|hostile> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` times `tytan_fleet::run_fleet` (the entry point the `fleet`
//! CLI uses) with tracing off and reports the end-to-end metrics.
//! `--trace 1` replays the same conversation through the layers' public
//! functions with a span around every call, alternating with untraced
//! calls, and reports the per-layer metrics; it also writes a Chrome trace
//! of one small round to `.fleetbench_out/<workload>.trace.json`.
//!
//! Every run checks its books: exact verdict counts, `clean()` outcomes,
//! pinned guest-cycle and edge counts, and traced books equal to untraced
//! ones. A run that fails a check prints `"correct": false` and exits 1.
//! The last line of standard output is the result object; the line before
//! it (`record {...}`) says what ran where.

mod books;
mod calib;
mod host;
mod spans;
mod spec;
mod stats;
mod traced;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use tytan::attest::DeviceId;
use tytan::platform::{Platform, PlatformConfig};
use tytan_fleet::verifier::FleetVerifier;
use tytan_fleet::{farm, run_fleet, FleetConfig, FleetOutcome};
use tytan_trace::chrome::{chrome_trace_json, escape_json_string};
use tytan_trace::Tracer;

use books::{judge, Books, Tally};
use spec::Mode;
use stats::{mean, median, sorted, tail};
use traced::TracedRun;
use workload::Workload;

const DEFAULT_SEED: u64 = 20260809;
const DEFAULT_SECONDS: f64 = 10.0;
/// Where the traced run writes its Chrome trace and span list.
const OUT_DIR: &str = ".fleetbench_out";
/// Fewest timed calls a run reports a median over.
const MIN_CALLS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Everything a run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Extra run-record fields, already JSON-encoded.
    record: Vec<(&'static str, String)>,
}

impl Report {
    fn book(&mut self, what: &str, books: Books) {
        self.attempted += books.attempted;
        self.failed += books.failed;
        self.problems
            .extend(books.problems.into_iter().map(|p| format!("{what}: {p}")));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fleetbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one measurement and prints it; `Ok(false)` if a check failed.
fn run(args: &Args) -> Result<bool, String> {
    let w = &args.workload;
    let nproc = host::nproc();
    let workers = nproc.saturating_sub(1).max(1);
    let config = w.config(args.seed, workers);
    let mut report = Report::default();
    let mut probe = calib::HostProbe::new();
    let mode = if args.trace {
        per_layer(w, &config, args.seconds, &mut report, &mut probe)?;
        report
            .metrics
            .insert("host.sha1_mb_per_s", probe.sha1_mb_per_s());
        Mode::PerLayer
    } else {
        end_to_end(w, &config, args.seconds, &mut report, &mut probe)?;
        Mode::EndToEnd
    };
    let sha1 = probe.sha1_mb_per_s();
    let engine = engine_in_use()?;
    let metrics = spec::render(mode, &report.metrics)?;
    let correct = report.problems.is_empty();

    println!(
        "fleetbench: workload {} ({} devices x {} rounds{}), seed {}, {} mode",
        w.name,
        w.devices,
        w.rounds,
        if w.cfa { ", CFA" } else { "" },
        args.seed,
        if args.trace { "traced" } else { "untraced" },
    );
    let units: HashMap<String, String> = spec::metrics(mode)?
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect();
    for (name, value) in &report.metrics {
        println!("  {name:<34} {value:>16.4} {}", units[*name]);
    }
    let fail_share = report.failed as f64 / report.attempted.max(1) as f64;
    if !args.trace {
        println!("  {:<34} {fail_share:>16.4} ratio", "fail_share");
    }
    for problem in &report.problems {
        eprintln!("fleetbench: CHECK FAILED: {problem}");
    }

    let mut record = vec![
        ("workload", format!("\"{}\"", w.name)),
        ("trace", args.trace.to_string()),
        ("seed", args.seed.to_string()),
        ("engine", format!("\"{engine}\"")),
        ("nproc", nproc.to_string()),
        ("farm_workers", workers.to_string()),
        (
            "git_commit",
            format!("\"{}\"", host::git_commit(Path::new("."))),
        ),
        ("host.sha1_mb_per_s", sha1.to_string()),
        ("host.unit_ms", (probe.unit_s() * 1e3).to_string()),
        ("fail_share", fail_share.to_string()),
    ];
    record.append(&mut report.record);
    record.push((
        "problems",
        format!(
            "[{}]",
            report
                .problems
                .iter()
                .map(|p| format!("\"{}\"", escape_json_string(p)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));
    let record: Vec<String> = record
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("record {{{}}}", record.join(", "));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.attempted, report.failed
    );
    Ok(correct)
}

/// The execution engine a default-configured platform runs (the program
/// resolves it from `TYTAN_EXEC_ENGINE`, which the benchmark leaves alone).
fn engine_in_use() -> Result<String, String> {
    let platform: Platform =
        Platform::boot(PlatformConfig::default()).map_err(|e| format!("boot: {e:?}"))?;
    Ok(format!("{:?}", platform.machine().engine()).to_lowercase())
}

/// The verifier's public bring-up before its first challenge.
fn bring_up(config: &FleetConfig) -> Result<FleetVerifier, String> {
    let (_, digest) = farm::reference_digest().map_err(|e| format!("reference boot: {e:?}"))?;
    let mut verifier = FleetVerifier::new(config.master(), digest, config.seed, Tracer::null());
    if config.cfa {
        verifier.provision_edge_set(farm::fleet_admissible_edges());
    }
    for d in 0..config.devices {
        verifier.provision(DeviceId::from_u64(d));
    }
    Ok(verifier)
}

/// One untraced `run_fleet` call: outcome, wall seconds, CPU nanoseconds.
fn fleet_call(config: &FleetConfig) -> Result<(FleetOutcome, f64, u64), String> {
    let cpu = host::process_cpu_ns();
    let began = Instant::now();
    let outcome = run_fleet(config).map_err(|e| format!("run_fleet: {e:?}"))?;
    let wall = began.elapsed().as_secs_f64();
    Ok((outcome, wall, host::process_cpu_ns() - cpu))
}

fn book_call(report: &mut Report, w: &Workload, config: &FleetConfig, outcome: &FleetOutcome) {
    let books = judge(config, &w.pinned, &Tally::from(outcome), outcome.clean());
    report.book("run_fleet", books);
}

/// `--trace 0`: timed `run_fleet` calls for `seconds`, each followed by a
/// host probe and a timed set-up.
fn end_to_end(
    w: &Workload,
    config: &FleetConfig,
    seconds: f64,
    report: &mut Report,
    probe: &mut calib::HostProbe,
) -> Result<(), String> {
    // The first call warms allocator and caches, untimed. Until it returns
    // the process has run nothing but this workload: its peak resident
    // set is the workload's.
    let (outcome, _, _) = fleet_call(config)?;
    book_call(report, w, config, &outcome);
    report.metrics.insert("peak_rss_mb", host::peak_rss_mib()?);
    drop(bring_up(config)?);

    // Every timing is scaled to reference host speed by the probe run right
    // after its call (see `calib`). Set-up is sampled between the calls,
    // over the same window, not in a burst of its own.
    let mut raw = [Vec::new(), Vec::new(), Vec::new()];
    let (mut rates, mut cpu_per_report, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let began = Instant::now();
    while rates.len() < MIN_CALLS || began.elapsed().as_secs_f64() < seconds {
        let (outcome, wall, cpu_ns) = fleet_call(config)?;
        book_call(report, w, config, &outcome);
        let slowdown = probe.slowdown();

        let t = Instant::now();
        let verifier = bring_up(config)?;
        let setup_s = t.elapsed().as_secs_f64();
        if verifier.provisioned() as u64 != config.devices {
            report.problems.push(format!(
                "set-up provisioned {} of {} devices",
                verifier.provisioned(),
                config.devices
            ));
        }

        let rate = outcome.accepted as f64 / wall;
        let cpu_us = cpu_ns as f64 / 1e3 / outcome.reports.max(1) as f64;
        rates.push(rate * slowdown);
        cpu_per_report.push(cpu_us / slowdown);
        setup.push(setup_s / slowdown);
        for (series, value) in raw.iter_mut().zip([rate, cpu_us, setup_s]) {
            series.push(value);
        }
    }

    report.metrics.insert("atts_per_s", median(&rates));
    report
        .metrics
        .insert("cpu_us_per_report", median(&cpu_per_report));
    report.metrics.insert("setup_s", median(&setup));
    report.record.push(("calls", rates.len().to_string()));
    for (name, series) in ["raw.atts_per_s", "raw.cpu_us_per_report", "raw.setup_s"]
        .into_iter()
        .zip(&raw)
    {
        report.record.push((name, median(series).to_string()));
    }
    Ok(())
}

/// Per-layer metrics that are the median of a span's durations (µs) or
/// of a recorded sample, by span or sample name.
const MEDIANS: [(&str, &str); 28] = [
    ("farm.kdf_us.p50", "farm.kdf"),
    ("platform.boot_us.p50", "platform.boot"),
    ("farm.task_source_us.p50", "farm.task_source"),
    ("loader.load_us.p50", "loader.load"),
    ("attest.respond_us.p50", "attest.respond"),
    ("cfa.arm_us.p50", "cfa.arm"),
    ("emu.run_us.p50", "emu.run"),
    ("attest.respond_cfa_us.p50", "attest.respond_cfa"),
    ("proto.encode_us.p50", "proto.encode"),
    ("proto.device_decode_us.p50", "proto.device_decode"),
    ("transport.device_wait_us.p50", "transport.device_wait"),
    ("verifier.provision_us.p50", "verifier.provision"),
    ("verifier.ingest_us.p50", "verifier.ingest"),
    ("verifier.challenge_us.p50", "verifier.challenge"),
    ("setup.reference_boot_us", "setup.reference_boot"),
    ("setup.edge_set_us", "setup.edge_set"),
    ("setup.roster_us", "setup.roster"),
    ("loader.load_guest_cycles", "loader.load_guest_cycles"),
    ("attest.guest_cycles", "attest.guest_cycles"),
    ("emu.guest_mcycles_per_s", "emu.guest_mcycles_per_s"),
    ("cfa.runs_per_report", "cfa.runs_per_report"),
    ("cfa.edges_per_report", "cfa.edges_per_report"),
    ("proto.frame_bytes", "proto.frame_bytes"),
    ("proto.chunks_per_report", "proto.chunks_per_report"),
    ("verifier.flush_us.p50", "verifier.flush_us"),
    ("verifier.turnaround_us.p50", "verifier.turnaround_us"),
    ("verifier.reject_flush_us.p50", "verifier.reject_flush_us"),
    ("recorder.bundles", "recorder.bundles"),
];

/// Per-layer tail metrics: the highest percentile up to p99 that leaves
/// ten samples beyond it.
const TAILS: [(&str, &str); 8] = [
    ("platform.boot_us.p99", "platform.boot"),
    ("loader.load_us.p99", "loader.load"),
    ("attest.respond_us.p99", "attest.respond"),
    ("emu.run_us.p99", "emu.run"),
    ("transport.device_wait_us.p99", "transport.device_wait"),
    ("verifier.ingest_us.p99", "verifier.ingest"),
    ("verifier.flush_us.p99", "verifier.flush_us"),
    ("verifier.turnaround_us.p99", "verifier.turnaround_us"),
];

/// Per-layer metrics that are a mean of a recorded sample.
const MEANS: [(&str, &str); 2] = [
    ("verifier.batch_size.mean", "verifier.batch_size"),
    (
        "recorder.bundle_json_bytes.mean",
        "recorder.bundle_json_bytes",
    ),
];

/// Ledger rows (see [`spans::ledger_row`]) and the metric each feeds.
const LEDGER: [(&str, &str); 10] = [
    ("provisioning", "ledger.provisioning_pct"),
    ("attest", "ledger.attest_pct"),
    ("engine", "ledger.engine_pct"),
    ("wire", "ledger.wire_pct"),
    ("transport", "ledger.transport_pct"),
    ("verifier", "ledger.verifier_pct"),
    ("recorder", "ledger.recorder_pct"),
    ("setup", "ledger.setup_pct"),
    ("wait", "ledger.wait_pct"),
    ("trace", "ledger.trace_pct"),
];

/// Traced runs pooled: samples and the durations (µs) of the spans a
/// metric reads, by name; ledger rows; thread and run walls.
#[derive(Default)]
struct Pool {
    samples: HashMap<&'static str, Vec<f64>>,
    rows: BTreeMap<&'static str, u64>,
    wall: u64,
    unattributed: u64,
    idle_shares: Vec<f64>,
    walls: Vec<f64>,
}

impl Pool {
    fn add(&mut self, run: &TracedRun) {
        let read = |name: &str| MEDIANS.iter().chain(&TAILS).any(|&(_, n)| n == name);
        for trace in &run.traces {
            for span in trace.spans.iter().filter(|s| read(s.name)) {
                self.samples
                    .entry(span.name)
                    .or_default()
                    .push(span.dur() as f64 / 1e3);
            }
            for &(name, value) in &trace.samples {
                self.samples.entry(name).or_default().push(value);
            }
        }
        for (row, ns) in spans::ledger(&run.traces) {
            *self.rows.entry(row).or_insert(0) += ns;
        }
        for t in spans::thread_times(&run.traces).values() {
            self.wall += t.wall;
            self.unattributed += t.unattributed;
        }
        self.idle_shares
            .push(run.verifier_idle_ns as f64 / run.wall_ns.max(1) as f64);
        self.walls.push(run.wall_ns as f64 / 1e9);
    }

    fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Checks that every sample of a pinned count equals its pinned value.
fn check_pinned(pool: &Pool, name: &str, pinned: u64, problems: &mut Vec<String>) {
    let samples = pool.samples(name);
    if pinned != 0 && samples.is_empty() {
        problems.push(format!("{name}: no samples, pinned at {pinned}"));
    }
    if let Some(off) = samples.iter().find(|&&v| v != pinned as f64) {
        problems.push(format!("{name}: measured {off}, pinned at {pinned}"));
    }
}

/// `--trace 1`: untraced and traced runs alternate for `seconds`; the
/// traced ones give the per-layer metrics.
fn per_layer(
    w: &Workload,
    config: &FleetConfig,
    seconds: f64,
    report: &mut Report,
    probe: &mut calib::HostProbe,
) -> Result<(), String> {
    let (outcome, _, _) = fleet_call(config)?;
    book_call(report, w, config, &outcome);

    let mut pool = Pool::default();
    let mut untraced_walls = Vec::new();
    let began = Instant::now();
    while pool.walls.len() < 2 || began.elapsed().as_secs_f64() < seconds {
        let (outcome, wall, _) = fleet_call(config)?;
        book_call(report, w, config, &outcome);
        untraced_walls.push(wall);
        let run = traced::run(w, config)?;
        report.book("traced", judge(config, &w.pinned, &run.tally, true));
        let untraced = Tally::from(&outcome);
        if run.tally != untraced {
            report.problems.push(format!(
                "traced books differ from untraced: {:?} vs {:?}",
                run.tally, untraced
            ));
        }
        pool.add(&run);
        probe.slowdown();
    }

    let pinned = &w.pinned;
    for (name, value) in [
        ("attest.guest_cycles", pinned.attest_guest_cycles),
        ("loader.load_guest_cycles", pinned.load_guest_cycles),
        ("cfa.edges_per_report", pinned.cfa_edges_per_report),
        ("cfa.runs_per_report", pinned.cfa_runs_per_report),
    ] {
        check_pinned(&pool, name, value, &mut report.problems);
    }

    let m = &mut report.metrics;
    for (metric, name) in MEDIANS {
        m.insert(metric, median(pool.samples(name)));
    }
    for (metric, name) in MEANS {
        m.insert(metric, mean(pool.samples(name)));
    }
    let mut tails = Vec::new();
    for (metric, name) in TAILS {
        let (q, value) = tail(&sorted(pool.samples(name).to_vec()), 0.99);
        m.insert(metric, value);
        tails.push(format!("\"{metric}\": {q}"));
    }
    let longest_log = pool
        .samples("cfa.edges_per_report")
        .iter()
        .copied()
        .fold(0.0, f64::max);
    let cap = sp_emu::CF_LOG_CAP as f64;
    m.insert("cfa.log_cap_headroom", (cap - longest_log) / cap);
    m.insert("transport.verifier_idle_share", median(&pool.idle_shares));
    let wall = pool.wall.max(1) as f64;
    for (row, metric) in LEDGER {
        let own = pool.rows.get(row).copied().unwrap_or(0);
        m.insert(metric, own as f64 / wall * 100.0);
    }
    let unattributed = pool.unattributed as f64 / wall * 100.0;
    m.insert("trace.unattributed_pct", unattributed);
    m.insert(
        "trace.overhead_pct",
        (median(&pool.walls) / median(&untraced_walls) - 1.0) * 100.0,
    );
    if unattributed >= 10.0 {
        report.problems.push(format!(
            "trace.unattributed_pct is {unattributed:.2}, over the ledger bound of 10"
        ));
    }
    report
        .record
        .push(("traced_runs", pool.walls.len().to_string()));
    report
        .record
        .push(("tail_percentiles", format!("{{{}}}", tails.join(", "))));

    export_small_round(w, config, report)
}

/// Traces one small round of the workload and writes it as a Chrome
/// trace plus a JSONL span list under [`OUT_DIR`].
fn export_small_round(
    w: &Workload,
    config: &FleetConfig,
    report: &mut Report,
) -> Result<(), String> {
    let small = w.small();
    let config = small.config(config.seed, config.workers);
    let run = traced::run(&small, &config)?;
    report.book(
        "small round",
        judge(&config, &small.pinned, &run.tally, true),
    );
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let trace_path = format!("{OUT_DIR}/{}.trace.json", w.name);
    let spans_path = format!("{OUT_DIR}/{}.spans.jsonl", w.name);
    let events = spans::chrome_events(&run.traces);
    std::fs::write(&trace_path, chrome_trace_json(&events))
        .map_err(|e| format!("write {trace_path}: {e}"))?;
    std::fs::write(&spans_path, spans::spans_jsonl(&run.traces))
        .map_err(|e| format!("write {spans_path}: {e}"))?;
    report
        .record
        .push(("chrome_trace", format!("\"{trace_path}\"")));
    Ok(())
}
