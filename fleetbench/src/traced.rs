//! The traced replay: the conversation `run_fleet` holds, rebuilt from
//! the layers' public functions with a span around every call.
//!
//! Device jobs run on a [`WorkStealingPool`] of the same size, the
//! verifier serves on the calling thread, frames cross the same
//! in-memory channels fragmented at the same chunk size, and the same
//! replays and forgeries are injected, so the verifier's books come out
//! identical to an untraced `run_fleet` of the same configuration.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tytan::attest::DeviceId;
use tytan::platform::{Platform, PlatformConfig};
use tytan_fleet::farm;
use tytan_fleet::pool::WorkStealingPool;
use tytan_fleet::proto::{decode, encode, FrameDecoder, Message, PROTOCOL_VERSION};
use tytan_fleet::verifier::{FleetVerifier, FlushEntry};
use tytan_fleet::FleetConfig;
use tytan_trace::events::{EventLog, LogFields, Severity};
use tytan_trace::metrics::DeltaWindow;
use tytan_trace::Tracer;

use crate::books::Tally;
use crate::spans::{Kind, Recorder, Trace};
use crate::workload::Workload;

/// Guest-cycle budget for one fleet-task load (as the farm uses).
const LOAD_BUDGET: u64 = 400_000_000;

/// Flushes between windowed metric snapshots (as `run_fleet` serves).
const WINDOW_BATCHES: u64 = 32;

/// Forensic bundles serialised to measure their JSON size.
const BUNDLE_SAMPLE: usize = 64;

/// What one traced run produced.
pub struct TracedRun {
    /// The verifier's books.
    pub tally: Tally,
    /// Set-up start to pool drop on the verifier thread: the interval an
    /// untraced `run_fleet` call covers.
    pub wall_ns: u64,
    /// Time the verifier spent blocked on an empty inbound channel.
    pub verifier_idle_ns: u64,
    /// The verifier thread's trace plus one per device job.
    pub traces: Vec<Trace>,
}

/// Transport events from device jobs to the verifier thread.
enum Inbound {
    Connect {
        device: DeviceId,
        reply: Sender<Vec<u8>>,
    },
    Data {
        device: DeviceId,
        bytes: Vec<u8>,
    },
}

fn chunk_len(chunk: usize, frame: &[u8]) -> usize {
    if chunk == 0 {
        frame.len().max(1)
    } else {
        chunk
    }
}

/// Runs `workload` under `config` with every layer call spanned.
pub fn run(workload: &Workload, config: &FleetConfig) -> Result<TracedRun, String> {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, "verifier".to_string(), false);
    let master = config.master();

    let s = rec.enter("setup.reference_boot", Kind::Layer);
    let (_, digest) = farm::reference_digest().map_err(|e| format!("reference boot: {e:?}"))?;
    rec.exit(s);
    let s = rec.enter("verifier.new", Kind::Layer);
    let mut verifier = FleetVerifier::new(master, digest, config.seed, Tracer::null());
    let event_log = Arc::new(EventLog::new(1 << 16));
    verifier.attach_event_log(event_log.clone());
    rec.exit(s);
    if config.cfa {
        let s = rec.enter("setup.edge_set", Kind::Layer);
        verifier.provision_edge_set(farm::fleet_admissible_edges());
        rec.exit(s);
    }
    let roster = rec.enter("setup.roster", Kind::Layer);
    for d in 0..config.devices {
        rec.attestation(Some(d), 0);
        let s = rec.enter("verifier.provision", Kind::Layer);
        verifier.provision(DeviceId::from_u64(d));
        rec.exit(s);
    }
    rec.attestation(None, 0);
    rec.exit(roster);

    let s = rec.enter("pool.new", Kind::Layer);
    let pool = WorkStealingPool::new(config.workers.max(1));
    rec.exit(s);
    let device_errors = Arc::new(AtomicU64::new(0));
    let jobs: Arc<Mutex<Vec<Trace>>> = Arc::new(Mutex::new(Vec::new()));
    let (inbound_tx, inbound_rx) = channel::<Inbound>();
    let s = rec.enter("pool.spawn", Kind::Layer);
    for d in 0..config.devices {
        let (workload, config) = (*workload, config.clone());
        let (inbound, device_errors, jobs) =
            (inbound_tx.clone(), device_errors.clone(), jobs.clone());
        pool.spawn(move || {
            let thread = std::thread::current()
                .name()
                .unwrap_or("farm-worker")
                .to_string();
            let mut rec = Recorder::new(epoch, thread, true);
            rec.attestation(Some(d), 0);
            let job = rec.enter("farm.job", Kind::Group);
            if converse(&mut rec, d, &workload, &config, &master, inbound).is_err() {
                device_errors.fetch_add(1, Ordering::Relaxed);
            }
            rec.exit(job);
            jobs.lock()
                .expect("a device job panicked holding the trace list")
                .push(rec.finish());
        });
    }
    rec.exit(s);
    drop(inbound_tx);

    serve(&mut rec, &mut verifier, inbound_rx, config, &event_log);
    let s = rec.enter("pool.wait_idle", Kind::Wait);
    pool.wait_idle();
    rec.exit(s);
    let s = rec.enter("pool.drop", Kind::Layer);
    drop(pool);
    let wall_ns = rec.exit(s).end;

    let s = rec.enter("recorder.bundle_json", Kind::Layer);
    let bundles = verifier.take_bundles();
    for bundle in bundles.iter().take(BUNDLE_SAMPLE) {
        rec.sample("recorder.bundle_json_bytes", bundle.to_json().len() as f64);
    }
    rec.exit(s);
    rec.sample("recorder.bundles", bundles.len() as f64);

    let tally = Tally::from_counters(
        verifier.tracer().counters(),
        device_errors.load(Ordering::Relaxed),
    );
    let verifier_trace = rec.finish();
    let verifier_idle_ns = verifier_trace
        .spans
        .iter()
        .filter(|s| s.name == "verifier.idle")
        .map(|s| s.dur())
        .sum();
    let mut traces = vec![verifier_trace];
    traces.append(&mut jobs.lock().expect("device jobs are done").split_off(0));
    Ok(TracedRun {
        tally,
        wall_ns,
        verifier_idle_ns,
        traces,
    })
}

/// Sends one frame in `chunk`-byte pieces; a closed channel ends it.
fn send(
    rec: &mut Recorder,
    inbound: &Sender<Inbound>,
    device: DeviceId,
    frame: &[u8],
    chunk: usize,
) {
    let s = rec.enter("transport.send", Kind::Layer);
    for piece in frame.chunks(chunk_len(chunk, frame)) {
        let bytes = piece.to_vec();
        if inbound.send(Inbound::Data { device, bytes }).is_err() {
            break;
        }
    }
    rec.exit(s);
}

/// Decodes the next verifier message, blocking on the reply channel
/// whenever the decoder needs more bytes.
fn next_message(
    rec: &mut Recorder,
    decoder: &mut FrameDecoder,
    replies: &Receiver<Vec<u8>>,
) -> Result<Message, String> {
    let mut arrived: Option<Vec<u8>> = None;
    loop {
        let s = rec.enter("proto.device_decode", Kind::Layer);
        if let Some(bytes) = arrived.take() {
            decoder.push(&bytes);
        }
        let next = decoder.next_message();
        rec.exit(s);
        match next {
            Ok(Some(message)) => return Ok(message),
            Ok(None) => {
                let s = rec.enter("transport.recv", Kind::Wait);
                let bytes = replies.recv();
                rec.exit(s);
                arrived = Some(bytes.map_err(|_| "verifier hung up".to_string())?);
            }
            Err(e) => return Err(format!("reply stream: {e}")),
        }
    }
}

/// One device's whole conversation, as the farm holds it: provision,
/// (in CFA) a monitored slice, connect, hello, then every round's
/// challenge and report plus the workload's injected copies.
fn converse(
    rec: &mut Recorder,
    d: u64,
    workload: &Workload,
    config: &FleetConfig,
    master: &[u8; 20],
    inbound: Sender<Inbound>,
) -> Result<(), String> {
    let device = DeviceId::from_u64(d);
    let s = rec.enter("farm.kdf", Kind::Layer);
    let platform_key = farm::device_platform_key(master, device);
    rec.exit(s);
    let s = rec.enter("platform.boot", Kind::Layer);
    let mut platform: Platform = Platform::boot(PlatformConfig {
        platform_key,
        ..PlatformConfig::default()
    })
    .map_err(|e| format!("{device}: boot: {e:?}"))?;
    rec.exit(s);
    let s = rec.enter("farm.task_source", Kind::Layer);
    let source = farm::fleet_task_source();
    rec.exit(s);
    let s = rec.enter("loader.load", Kind::Layer);
    let before = platform.machine().cycles();
    let token = platform.begin_load(&source, 2);
    let (_, task) = platform
        .wait_load(token, LOAD_BUDGET)
        .map_err(|e| format!("{device}: load: {e:?}"))?;
    let load_cycles = platform.machine().cycles() - before;
    rec.exit(s);
    rec.sample("loader.load_guest_cycles", load_cycles as f64);

    if config.cfa {
        let s = rec.enter("cfa.arm", Kind::Layer);
        platform
            .arm_cf_monitor(task)
            .map_err(|e| format!("{device}: arm: {e:?}"))?;
        rec.exit(s);
        let s = rec.enter("emu.run", Kind::Layer);
        platform
            .run_for(config.monitored_cycles)
            .map_err(|e| format!("{device}: monitored run: {e:?}"))?;
        let ran = rec.exit(s).dur().max(1);
        rec.sample(
            "emu.guest_mcycles_per_s",
            config.monitored_cycles as f64 * 1e3 / ran as f64,
        );
        let monitor = platform.cf_monitor().ok_or("monitor disarmed")?;
        let (edges, runs) = (monitor.edges(), monitor.runs().len());
        rec.sample("cfa.edges_per_report", edges as f64);
        rec.sample("cfa.runs_per_report", runs as f64);
    }

    let (reply_tx, reply_rx) = channel::<Vec<u8>>();
    let s = rec.enter("transport.connect", Kind::Layer);
    let connected = inbound.send(Inbound::Connect {
        device,
        reply: reply_tx,
    });
    rec.exit(s);
    connected.map_err(|_| "verifier gone".to_string())?;

    let s = rec.enter("proto.encode", Kind::Layer);
    let hello = encode(
        &Message::Hello {
            device,
            max_version: PROTOCOL_VERSION,
        },
        PROTOCOL_VERSION,
    );
    rec.exit(s);
    send(rec, &inbound, device, &hello, config.chunk);

    let mut decoder = FrameDecoder::new();
    let version = match next_message(rec, &mut decoder, &reply_rx)? {
        Message::Welcome { version } => version,
        other => return Err(format!("{device}: expected welcome, got {other:?}")),
    };

    for round in 0..config.rounds {
        rec.attestation(Some(d), round);
        let wait = rec.enter("transport.device_wait", Kind::Wait);
        let (corr, nonce) = loop {
            match next_message(rec, &mut decoder, &reply_rx)? {
                Message::Challenge { corr, nonce, .. } => break (corr, nonce),
                Message::Verdict { .. } => continue,
                other => return Err(format!("{device}: round {round}: got {other:?}")),
            }
        };
        rec.exit(wait);

        let message = if config.cfa {
            let s = rec.enter("attest.respond_cfa", Kind::Layer);
            let before = platform.machine().cycles();
            let report = platform
                .remote_attest_cfa(task, &nonce)
                .map_err(|e| format!("{device}: cfa attest: {e:?}"))?;
            rec.sample(
                "attest.guest_cycles",
                (platform.machine().cycles() - before) as f64,
            );
            rec.exit(s);
            Message::CfaReport {
                device,
                corr,
                report,
            }
        } else {
            let s = rec.enter("attest.respond", Kind::Layer);
            let before = platform.machine().cycles();
            let report = platform
                .remote_attest(task, &nonce)
                .map_err(|e| format!("{device}: attest: {e:?}"))?;
            rec.sample(
                "attest.guest_cycles",
                (platform.machine().cycles() - before) as f64,
            );
            rec.exit(s);
            Message::Report {
                device,
                corr,
                report,
            }
        };
        let s = rec.enter("proto.encode", Kind::Layer);
        let frame = encode(&message, version);
        rec.exit(s);
        rec.sample("proto.frame_bytes", frame.len() as f64);
        rec.sample(
            "proto.chunks_per_report",
            frame.len().div_ceil(chunk_len(config.chunk, &frame)) as f64,
        );
        send(rec, &inbound, device, &frame, config.chunk);
        if workload.replays(d) {
            // The identical bytes again: a verbatim replay.
            send(rec, &inbound, device, &frame, config.chunk);
        }
        // As in the farm, only static reports get a forged copy.
        if let (Message::Report { mut report, .. }, true) = (message, workload.forges(d)) {
            report.mac[0] ^= 0x80;
            let s = rec.enter("proto.encode", Kind::Layer);
            let frame = encode(
                &Message::Report {
                    device,
                    corr,
                    report,
                },
                version,
            );
            rec.exit(s);
            send(rec, &inbound, device, &frame, config.chunk);
        }
    }
    Ok(())
}

/// The verifier's side: `run_fleet`'s serve loop with every call spanned,
/// plus the challenge-to-verdict turnaround of each attestation.
fn serve(
    rec: &mut Recorder,
    verifier: &mut FleetVerifier,
    inbound: Receiver<Inbound>,
    config: &FleetConfig,
    event_log: &EventLog,
) {
    let mut replies: HashMap<DeviceId, Sender<Vec<u8>>> = HashMap::new();
    let mut rounds_done: HashMap<DeviceId, u64> = HashMap::new();
    // Correlation id -> time its challenge frame was issued.
    let mut issued: HashMap<u64, u64> = HashMap::new();
    let mut window = DeltaWindow::new(verifier.tracer().counters());
    let mut batches_since_window = 0u64;
    let chunk = config.chunk;

    loop {
        rec.attestation(None, 0);
        let s = rec.enter("verifier.idle", Kind::Wait);
        let first = inbound.recv();
        rec.exit(s);
        let Ok(event) = first else {
            // Every device finished; verify whatever is still queued.
            for entry in flush(rec, verifier, &mut issued) {
                verdict(rec, &replies, &entry, chunk);
            }
            return;
        };
        let mut next = Some(event);
        while let Some(event) = next.take() {
            handle(
                rec,
                verifier,
                &mut replies,
                &rounds_done,
                &mut issued,
                event,
                chunk,
            );
            let s = rec.enter("transport.recv", Kind::Layer);
            next = inbound.try_recv().ok();
            rec.exit(s);
        }
        let entries = flush(rec, verifier, &mut issued);
        if !entries.is_empty() {
            batches_since_window += 1;
            if batches_since_window >= WINDOW_BATCHES {
                batches_since_window = 0;
                let s = rec.enter("recorder.window", Kind::Layer);
                let snapshot = window.tick(verifier.tracer().counters());
                event_log.emit(
                    Severity::Info,
                    "fleet.serve",
                    "metrics.window",
                    LogFields {
                        detail: snapshot.compact(),
                        ..LogFields::default()
                    },
                );
                rec.exit(s);
            }
        }
        for entry in entries {
            let device = entry.device;
            let done = rounds_done.entry(device).or_insert(0);
            rec.attestation(Some(device.as_u64()), *done);
            verdict(rec, &replies, &entry, chunk);
            if entry.result.is_ok() {
                *done += 1;
                if *done < config.rounds {
                    let s = rec.enter("verifier.challenge", Kind::Layer);
                    let frame = verifier.challenge_frame(device, PROTOCOL_VERSION);
                    let at = rec.exit(s).end;
                    if let Some(frame) = frame {
                        note_challenge(rec, &mut issued, &frame, at);
                        reply(rec, &replies, device, &frame, chunk);
                    }
                }
            }
        }
    }
}

fn handle(
    rec: &mut Recorder,
    verifier: &mut FleetVerifier,
    replies: &mut HashMap<DeviceId, Sender<Vec<u8>>>,
    rounds_done: &HashMap<DeviceId, u64>,
    issued: &mut HashMap<u64, u64>,
    event: Inbound,
    chunk: usize,
) {
    match event {
        Inbound::Connect { device, reply } => {
            rec.attestation(Some(device.as_u64()), 0);
            let s = rec.enter("transport.connect", Kind::Layer);
            replies.insert(device, reply);
            rec.exit(s);
        }
        Inbound::Data { device, bytes } => {
            let round = rounds_done.get(&device).copied().unwrap_or(0);
            rec.attestation(Some(device.as_u64()), round);
            let s = rec.enter("verifier.ingest", Kind::Layer);
            let frames = verifier.ingest(device, &bytes);
            let at = rec.exit(s).end;
            for frame in frames {
                note_challenge(rec, issued, &frame, at);
                reply(rec, replies, device, &frame, chunk);
            }
        }
    }
    rec.attestation(None, 0);
}

/// Remembers when a challenge frame was issued, by its correlation id.
fn note_challenge(rec: &mut Recorder, issued: &mut HashMap<u64, u64>, frame: &[u8], at: u64) {
    let s = rec.enter("trace.corr", Kind::Layer);
    if let Ok((Message::Challenge { corr, .. }, _)) = decode(frame) {
        issued.insert(corr, at);
    }
    rec.exit(s);
}

fn flush(
    rec: &mut Recorder,
    verifier: &mut FleetVerifier,
    issued: &mut HashMap<u64, u64>,
) -> Vec<FlushEntry> {
    let s = rec.enter("verifier.flush", Kind::Layer);
    let entries = verifier.flush();
    let span = rec.exit(s);
    if entries.is_empty() {
        return entries;
    }
    let us = span.dur() as f64 / 1e3;
    rec.sample("verifier.flush_us", us);
    rec.sample("verifier.batch_size", entries.len() as f64);
    if entries.iter().any(|e| e.result.is_err()) {
        rec.sample("verifier.reject_flush_us", us);
    }
    for entry in entries.iter().filter(|e| e.result.is_ok()) {
        if let Some(at) = issued.remove(&entry.corr) {
            rec.sample(
                "verifier.turnaround_us",
                span.end.saturating_sub(at) as f64 / 1e3,
            );
        }
    }
    entries
}

fn verdict(
    rec: &mut Recorder,
    replies: &HashMap<DeviceId, Sender<Vec<u8>>>,
    entry: &FlushEntry,
    chunk: usize,
) {
    let s = rec.enter("proto.verdict_encode", Kind::Layer);
    let frame = entry.to_frame(PROTOCOL_VERSION);
    rec.exit(s);
    reply(rec, replies, entry.device, &frame, chunk);
}

/// Sends a verifier frame to `device` in `chunk`-byte pieces.
fn reply(
    rec: &mut Recorder,
    replies: &HashMap<DeviceId, Sender<Vec<u8>>>,
    device: DeviceId,
    frame: &[u8],
    chunk: usize,
) {
    let s = rec.enter("transport.reply", Kind::Layer);
    if let Some(tx) = replies.get(&device) {
        for piece in frame.chunks(chunk_len(chunk, frame)) {
            if tx.send(piece.to_vec()).is_err() {
                break;
            }
        }
    }
    rec.exit(s);
}
