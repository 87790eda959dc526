//! Seeded multi-client simulation against a running serve daemon.
//!
//! [`SimPlan::build`] deterministically derives, per client: a unique
//! synthetic stream, a *stable* query cut from that stream's own
//! fingerprints (so it is guaranteed to fire), optional churn queries
//! (far-off cells that never fire, subscribed and unsubscribed
//! mid-ingest), seeded chunk slicing, and a role — clean, bitstream
//! faults on the wire, stalled reader, or mid-run disconnect. It also
//! precomputes the *oracle*: the detections one plain [`Detector`]
//! produces for the clean stream, which the daemon must reproduce
//! bit-for-bit for every clean client regardless of chunking,
//! concurrency, churn, or other clients' faults.
//!
//! [`run_sim`] drives one thread per client against a connector, then
//! has a control session capture health and request the drain;
//! [`verify`] checks the oracle contract, the laggard's `Lagged`
//! accounting (`received + missed == expected`), and drain delivery.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use vdsms_codec::{Encoder, EncoderConfig, IngestHealth};
use vdsms_core::{Detection, Detector, DetectorConfig, QuerySet};
use vdsms_features::{FeatureConfig, FeatureExtractor, FingerprintStream};
use vdsms_serve::client::{Client, ClientError, DetectionEvent, StreamEndInfo};
use vdsms_serve::ingest::ChunkedIngest;
use vdsms_serve::protocol::HealthReport;
use vdsms_video::source::{ClipGenerator, SourceSpec};
use vdsms_video::Fps;

use crate::faults::{inject_faults, FaultSpec};

/// What a simulated client does besides streaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Streams cleanly, reads promptly.
    Clean,
    /// Streams a fault-injected bitstream (daemon must recover).
    Faulty,
    /// Stops reading mid-run: must lag, never block others.
    Stalled,
    /// Drops the connection mid-stream without goodbye.
    Disconnect,
}

/// Simulation shape; everything downstream derives from `seed`.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed.
    pub seed: u64,
    /// Total clients.
    pub clients: usize,
    /// Clients (from the end of the roster) that stall their reader.
    pub stalled: usize,
    /// Clients that stream faulted bytes.
    pub faulty: usize,
    /// Clients that disconnect mid-stream.
    pub disconnect: usize,
    /// Per-client stream length in seconds (10 fps, gop 5 → 2 key
    /// frames per second).
    pub seconds: f64,
    /// Subscribe/unsubscribe churn queries while streaming.
    pub churn: bool,
    /// Detector configuration — must match the daemon's.
    pub detector: DetectorConfig,
    /// Feature configuration — must match the daemon's.
    pub features: FeatureConfig,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            seed: 7,
            clients: 8,
            stalled: 0,
            faulty: 0,
            disconnect: 0,
            seconds: 8.0,
            churn: true,
            detector: DetectorConfig { window_keyframes: 4, ..DetectorConfig::default() },
            features: FeatureConfig::default(),
        }
    }
}

/// One expected detection, similarity kept as raw bits for exact
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedDetection {
    /// Session-local query id.
    pub query_id: u32,
    /// First frame of the span.
    pub start_frame: u64,
    /// Last frame of the span.
    pub end_frame: u64,
    /// Span length in windows.
    pub windows: u64,
    /// `f64::to_bits` of the similarity.
    pub similarity_bits: u64,
}

/// Everything one simulated client will do.
#[derive(Debug, Clone)]
pub struct ClientPlan {
    /// Roster index.
    pub index: usize,
    /// Tenant id (four clients per tenant).
    pub tenant: u64,
    /// The client's role.
    pub role: Role,
    /// The clean encoded stream.
    pub clean_bytes: Vec<u8>,
    /// What actually goes on the wire (faulted for `Role::Faulty`).
    pub wire_bytes: Vec<u8>,
    /// Seeded chunk sizes, cycled over the wire bytes.
    pub chunk_sizes: Vec<usize>,
    /// The stable query's cells (a subsequence of the clean stream).
    pub stable_cells: Vec<u64>,
    /// Query ids `stable_cells` is subscribed under. Clean clients use
    /// one; stalled clients fan the same cells out over several ids so
    /// every ingest pass multiplies into enough pushes to overflow a
    /// small bounded queue while their reader is paused.
    pub qids: Vec<u32>,
    /// Cells for churn queries (never fire).
    pub churn_cells: Vec<u64>,
    /// Key frames the clean stream decodes to.
    pub keyframes: u64,
    /// Key frames the *wire* stream decodes to in recovery mode (equals
    /// `keyframes` unless faults removed or destroyed key frame records).
    pub wire_keyframes: u64,
    /// Ingest damage the wire stream provokes in recovery mode — the
    /// ground truth for whether the server must report degradation.
    /// Faults are not always observable: a cleanly dropped record or a
    /// payload-only bit flip leaves framing intact.
    pub wire_health: IngestHealth,
    /// Serial-fleet oracle detections for the clean stream.
    pub expected: Vec<ExpectedDetection>,
}

/// The full simulation plan.
#[derive(Debug, Clone)]
pub struct SimPlan {
    /// Shape used to build the plan.
    pub config: SimConfig,
    /// Per-client plans.
    pub clients: Vec<ClientPlan>,
}

/// The session-local id every client uses for its stable query/stream.
const STABLE_ID: u32 = 1;
/// How many query ids a stalled client subscribes its cells under.
const STALL_FANOUT: u32 = 8;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn clean_fingerprints(bytes: &[u8], features: &FeatureConfig) -> Vec<(u64, u64)> {
    let ex = FeatureExtractor::new(*features);
    let mut fs = FingerprintStream::new(bytes, ex).expect("clean stream must open");
    let mut got = Vec::new();
    while let Some(p) = fs.next_fingerprint().expect("clean stream must decode") {
        got.push(p);
    }
    got
}

/// Decode a (possibly damaged) wire stream the way the server does —
/// recovery-mode chunked ingest — and report what it yields.
fn wire_ingest_oracle(bytes: &[u8], features: &FeatureConfig) -> (u64, IngestHealth) {
    let ex = FeatureExtractor::new(*features);
    let mut ingest = ChunkedIngest::new(ex, true, 64 << 20);
    let mut out = Vec::new();
    ingest.push_chunk(bytes, &mut out).expect("recovery mode does not error on damage");
    ingest.finish(&mut out).expect("recovery mode does not error on damage");
    (ingest.keyframes(), ingest.health())
}

/// The oracle, free of fleet and daemon code: one [`Detector`] with the
/// stable queries subscribed, fed the clean stream and flushed.
fn oracle(
    cfg: &DetectorConfig,
    qids: &[u32],
    cells: &[u64],
    fingerprints: &[(u64, u64)],
) -> Vec<ExpectedDetection> {
    let mut det = Detector::new(*cfg, QuerySet::new());
    for &qid in qids {
        det.subscribe(det.make_query(qid, cells));
    }
    let expected = |d: Detection| ExpectedDetection {
        query_id: d.query_id,
        start_frame: d.start_frame,
        end_frame: d.end_frame,
        windows: d.windows as u64,
        similarity_bits: d.similarity.to_bits(),
    };
    let mut out = Vec::new();
    for &(frame, cell) in fingerprints {
        out.extend(det.push_keyframe(frame, cell).into_iter().map(expected));
    }
    out.extend(det.finish().into_iter().map(expected));
    out
}

impl SimPlan {
    /// Deterministically derive the full plan from the config.
    ///
    /// # Panics
    /// Panics if the role counts exceed `clients` or a generated stream
    /// is too short to cut a query from.
    pub fn build(config: SimConfig) -> SimPlan {
        assert!(
            config.stalled + config.faulty + config.disconnect <= config.clients,
            "role counts exceed the client count"
        );
        let mut clients = Vec::with_capacity(config.clients);
        for index in 0..config.clients {
            // Roles from the end of the roster: disconnects, then
            // faulty, then stalled — so index 0 is always clean.
            let from_end = config.clients - 1 - index;
            let role = if from_end < config.disconnect {
                Role::Disconnect
            } else if from_end < config.disconnect + config.faulty {
                Role::Faulty
            } else if from_end < config.disconnect + config.faulty + config.stalled {
                Role::Stalled
            } else {
                Role::Clean
            };
            let seed = splitmix(config.seed ^ ((index as u64) << 17));
            let spec = SourceSpec {
                width: 48,
                height: 32,
                fps: Fps::integer(10),
                seed,
                min_scene_s: 1.0,
                max_scene_s: 2.0,
                motifs: None,
            };
            let clip = ClipGenerator::new(spec).clip(config.seconds);
            let clean_bytes = Encoder::encode_clip(
                &clip,
                EncoderConfig { gop: 5, quality: 80, motion_search: true },
            );
            let fps = clean_fingerprints(&clean_bytes, &config.features);
            // The stable query: 8 consecutive cells from the stream's
            // own fingerprints — two full detector windows, cut on a
            // window boundary so the sliding sketch lines up and the
            // query is guaranteed to fire.
            let wk = config.detector.window_keyframes.max(1);
            let start = wk * (1 + index % 2);
            assert!(
                fps.len() >= start + 8,
                "stream too short for a stable query: {} key frames, need {}",
                fps.len(),
                start + 8
            );
            let stable_cells: Vec<u64> =
                fps[start..start + 8].iter().map(|&(_, c)| c).collect();
            let churn_cells: Vec<u64> =
                (0..6).map(|k| 0xdead_0000_0000 + (index as u64) * 64 + k).collect();
            let qids: Vec<u32> = if role == Role::Stalled {
                (STABLE_ID..STABLE_ID + STALL_FANOUT).collect()
            } else {
                vec![STABLE_ID]
            };
            let expected = oracle(&config.detector, &qids, &stable_cells, &fps);
            let wire_bytes = if role == Role::Faulty {
                inject_faults(
                    &clean_bytes,
                    &FaultSpec {
                        seed,
                        flip_rate: 0.02,
                        drop_rate: 0.01,
                        delete_rate: 0.005,
                        insert_rate: 0.005,
                        ..FaultSpec::default()
                    },
                )
                .bytes
            } else {
                clean_bytes.clone()
            };
            let (wire_keyframes, wire_health) = if role == Role::Faulty {
                wire_ingest_oracle(&wire_bytes, &config.features)
            } else {
                (fps.len() as u64, IngestHealth::default())
            };
            let mut chunk_sizes = Vec::with_capacity(16);
            let mut h = seed;
            for _ in 0..16 {
                h = splitmix(h);
                chunk_sizes.push(1 + (h % 700) as usize);
            }
            clients.push(ClientPlan {
                index,
                tenant: (index / 4) as u64,
                role,
                clean_bytes,
                wire_bytes,
                chunk_sizes,
                stable_cells,
                qids,
                churn_cells,
                keyframes: fps.len() as u64,
                wire_keyframes,
                wire_health,
                expected,
            });
        }
        SimPlan { config, clients }
    }
}

/// What one simulated client experienced.
#[derive(Debug)]
pub struct ClientOutcome {
    /// Roster index.
    pub index: usize,
    /// The client's role.
    pub role: Role,
    /// Detections received, in arrival order.
    pub detections: Vec<DetectionEvent>,
    /// Total server-reported dropped pushes (`Lagged` sum).
    pub lagged: u64,
    /// The `StreamEnd` acknowledgement, if the stream ended cleanly.
    pub end_info: Option<StreamEndInfo>,
    /// Whether the server's `Drained` frame arrived.
    pub drained: bool,
    /// Hard failure description, if the client's run broke.
    pub failure: Option<String>,
}

/// Full simulation result.
#[derive(Debug)]
pub struct SimReport {
    /// Per-client outcomes, roster order.
    pub outcomes: Vec<ClientOutcome>,
    /// Health snapshot captured after all data phases, before drain.
    pub health: Option<HealthReport>,
    /// The daemon acknowledged the shutdown request.
    pub shutdown_ok: bool,
}

/// Drive the plan against a daemon reachable through `connect`; blocks
/// until every client drained or failed. The caller owns the daemon
/// (typically `Daemon::run` on another thread) and joins it afterwards.
pub fn run_sim<F>(plan: &SimPlan, connect: F) -> SimReport
where
    F: Fn() -> Result<Client, ClientError> + Sync,
{
    let data_done = AtomicU64::new(0);
    let drain_done = AtomicBool::new(false);
    let connect = &connect;
    let data_done = &data_done;
    let drain_done = &drain_done;
    let mut outcomes: Vec<ClientOutcome> = Vec::with_capacity(plan.clients.len());
    let mut health = None;
    let mut shutdown_ok = false;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(plan.clients.len());
        for cp in &plan.clients {
            handles.push(scope.spawn(move || run_client(cp, connect, data_done, drain_done)));
        }
        // Wait for every client to finish its data phase (disconnects
        // and failures count too), then capture health and drain.
        while data_done.load(Ordering::SeqCst) < plan.clients.len() as u64 {
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Ok(control) = connect() {
            if control.hello(u64::MAX).is_ok() {
                health = control.health().ok();
                shutdown_ok = control.shutdown_server().is_ok();
                control.wait_drained(Duration::from_secs(30));
            }
        }
        // Release the stalled clients: the drain has stranded whatever
        // their bounded queues could not hold, so they can now read the
        // backlog and the final `Lagged`/`Drained` accounting.
        drain_done.store(true, Ordering::SeqCst);
        for h in handles {
            outcomes.push(h.join().expect("client threads catch their own failures"));
        }
    });
    outcomes.sort_by_key(|o| o.index);
    SimReport { outcomes, health, shutdown_ok }
}

fn run_client<F>(
    cp: &ClientPlan,
    connect: &F,
    data_done: &AtomicU64,
    drain_done: &AtomicBool,
) -> ClientOutcome
where
    F: Fn() -> Result<Client, ClientError> + Sync,
{
    let mut outcome = ClientOutcome {
        index: cp.index,
        role: cp.role,
        detections: Vec::new(),
        lagged: 0,
        end_info: None,
        drained: false,
        failure: None,
    };
    let finished_data = |o: &mut ClientOutcome, msg: Option<String>| {
        o.failure = msg;
        data_done.fetch_add(1, Ordering::SeqCst);
    };
    let client = match connect() {
        Ok(c) => c,
        Err(e) => {
            finished_data(&mut outcome, Some(format!("connect: {e}")));
            return outcome;
        }
    };
    let setup = (|| -> Result<(), ClientError> {
        client.hello(cp.tenant)?;
        for &qid in &cp.qids {
            client.subscribe(qid, cp.stable_cells.clone())?;
        }
        client.attach_stream(STABLE_ID)?;
        Ok(())
    })();
    if let Err(e) = setup {
        finished_data(&mut outcome, Some(format!("setup: {e}")));
        return outcome;
    }
    if cp.role == Role::Stalled {
        client.pause_reading(true);
    }
    let total = cp.wire_bytes.len();
    let disconnect_at = if cp.role == Role::Disconnect { total / 2 } else { usize::MAX };
    let mut pos = 0usize;
    let mut chunk_idx = 0usize;
    let mut churn_no = 0u32;
    while pos < total {
        if pos >= disconnect_at {
            // Vanish without goodbye: drop the socket mid-stream.
            drop(client);
            finished_data(&mut outcome, None);
            return outcome;
        }
        let sz = cp.chunk_sizes[chunk_idx % cp.chunk_sizes.len()];
        chunk_idx += 1;
        let end = (pos + sz).min(total);
        if let Err(e) = client.send_chunk(STABLE_ID, cp.wire_bytes[pos..end].to_vec()) {
            finished_data(&mut outcome, Some(format!("send: {e}")));
            return outcome;
        }
        pos = end;
        // Churn: a stalled client cannot do round trips while paused.
        if cp.role != Role::Stalled && chunk_idx.is_multiple_of(4) {
            churn_no += 1;
            let qid = 1000 + churn_no;
            let sub = client.subscribe(qid, cp.churn_cells.clone());
            let unsub = sub.and_then(|()| client.unsubscribe(qid));
            if let Err(e) = unsub {
                finished_data(&mut outcome, Some(format!("churn: {e}")));
                return outcome;
            }
        }
    }
    if cp.role == Role::Stalled {
        // Stay deaf through the entire drain: no `StreamEnd`, no reads,
        // no credit. The server must run on regardless, flush this
        // stream at drain time, and strand what the bounded queue could
        // not hold — so the lag accounting is deterministic, not a race
        // against the kernel's socket buffer. Once the coordinator
        // confirms the drain, resume and read the backlog.
        finished_data(&mut outcome, None);
        let mut waited = 0u32;
        while !drain_done.load(Ordering::SeqCst) && waited < 30_000 {
            std::thread::sleep(Duration::from_millis(2));
            waited += 1;
        }
        client.pause_reading(false);
    } else {
        match client.end_stream(STABLE_ID) {
            Ok(info) => outcome.end_info = Some(info),
            Err(e) => {
                finished_data(&mut outcome, Some(format!("end: {e}")));
                return outcome;
            }
        }
        finished_data(&mut outcome, None);
    }
    // Wait for the drain the control session will trigger.
    outcome.drained = client.wait_drained(Duration::from_secs(30));
    // The final `Lagged` can land right behind `Drained`; wait for the
    // server-side close so the accounting is complete.
    let mut waited = 0u32;
    while !client.closed() && waited < 5_000 {
        std::thread::sleep(Duration::from_millis(2));
        waited += 1;
    }
    outcome.detections = client.take_detections();
    outcome.lagged = client.lagged_total();
    outcome
}

/// Check the report against the plan; returns human-readable
/// discrepancies (empty = pass).
pub fn verify(plan: &SimPlan, report: &SimReport) -> Vec<String> {
    let mut problems = Vec::new();
    if !report.shutdown_ok {
        problems.push("shutdown request was not acknowledged".into());
    }
    for (cp, out) in plan.clients.iter().zip(&report.outcomes) {
        let tag = format!("client {} ({:?})", cp.index, cp.role);
        if let Some(f) = &out.failure {
            if cp.role != Role::Disconnect {
                problems.push(format!("{tag}: {f}"));
            }
            continue;
        }
        match cp.role {
            Role::Disconnect => {} // nothing is promised after a vanish
            Role::Clean => {
                if !out.drained {
                    problems.push(format!("{tag}: no Drained frame"));
                }
                let got: Vec<ExpectedDetection> = out
                    .detections
                    .iter()
                    .map(|d| ExpectedDetection {
                        query_id: d.query_id,
                        start_frame: d.start_frame,
                        end_frame: d.end_frame,
                        windows: d.windows,
                        similarity_bits: d.similarity.to_bits(),
                    })
                    .collect();
                if got != cp.expected {
                    problems.push(format!(
                        "{tag}: detections diverge from the serial oracle \
                         (got {}, expected {})",
                        got.len(),
                        cp.expected.len()
                    ));
                }
                if out.lagged != 0 {
                    problems.push(format!("{tag}: unexpected lag ({})", out.lagged));
                }
                if let Some(info) = out.end_info {
                    if info.frames_dropped != 0 || info.resyncs != 0 {
                        problems.push(format!("{tag}: clean stream reported damage"));
                    }
                    if info.keyframes != cp.keyframes {
                        problems.push(format!(
                            "{tag}: server ingested {} key frames, stream has {}",
                            info.keyframes, cp.keyframes
                        ));
                    }
                } else {
                    problems.push(format!("{tag}: missing StreamEndAck"));
                }
            }
            Role::Stalled => {
                if !out.drained {
                    problems.push(format!("{tag}: no Drained frame"));
                }
                let expected: std::collections::BTreeSet<(u32, u64, u64)> = cp
                    .expected
                    .iter()
                    .map(|e| (e.query_id, e.start_frame, e.end_frame))
                    .collect();
                for d in &out.detections {
                    if !expected.contains(&(d.query_id, d.start_frame, d.end_frame)) {
                        problems.push(format!(
                            "{tag}: received a detection outside the oracle set"
                        ));
                        break;
                    }
                }
                let balance = out.detections.len() as u64 + out.lagged;
                if balance != cp.expected.len() as u64 {
                    problems.push(format!(
                        "{tag}: ledger imbalance: received {} + lagged {} != expected {}",
                        out.detections.len(),
                        out.lagged,
                        cp.expected.len()
                    ));
                }
            }
            Role::Faulty => {
                if !out.drained {
                    problems.push(format!("{tag}: no Drained frame"));
                }
                // Damage is only required where the plan's ingest oracle
                // says the faults are observable at all (a clean record
                // drop or payload-only flip leaves framing intact).
                let observable =
                    !cp.wire_health.is_clean() || cp.wire_keyframes != cp.keyframes;
                match out.end_info {
                    None => problems.push(format!("{tag}: missing StreamEndAck")),
                    Some(info) => {
                        let reported = info.frames_dropped > 0
                            || info.bytes_skipped > 0
                            || info.resyncs > 0
                            || info.keyframes != cp.keyframes;
                        if observable && !reported {
                            problems.push(format!(
                                "{tag}: faults are observable (oracle {:?}, {} of {} \
                                 key frames) but the server reported a clean stream",
                                cp.wire_health, cp.wire_keyframes, cp.keyframes
                            ));
                        }
                    }
                }
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_plan_is_deterministic_and_roles_are_assigned_from_the_end() {
        let cfg = SimConfig {
            clients: 6,
            stalled: 1,
            faulty: 1,
            disconnect: 1,
            seconds: 8.0,
            ..SimConfig::default()
        };
        let a = SimPlan::build(cfg.clone());
        let b = SimPlan::build(cfg);
        assert_eq!(a.clients.len(), 6);
        let roles: Vec<Role> = a.clients.iter().map(|c| c.role).collect();
        assert_eq!(
            roles,
            vec![
                Role::Clean,
                Role::Clean,
                Role::Clean,
                Role::Stalled,
                Role::Faulty,
                Role::Disconnect
            ]
        );
        for (x, y) in a.clients.iter().zip(&b.clients) {
            assert_eq!(x.wire_bytes, y.wire_bytes);
            assert_eq!(x.chunk_sizes, y.chunk_sizes);
            assert_eq!(x.expected, y.expected);
        }
        // Every client's stable query fires on its own stream.
        for c in &a.clients {
            assert!(!c.expected.is_empty(), "client {} oracle is empty", c.index);
        }
        // Faulty wire bytes actually differ.
        assert_ne!(a.clients[4].wire_bytes, a.clients[4].clean_bytes);
    }
}
