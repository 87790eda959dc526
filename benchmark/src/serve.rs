//! `serve_live`: the released `vdsms serve` daemon as a child process,
//! driven over a unix socket by one `Client` connection from one thread.
//!
//! Eight 30 s programs (filler, a catalogue clip, filler) are replayed as
//! successive stream sessions in 16 KiB chunks:
//!
//! * Phase A, closed loop: sessions back to back, each chunk sent as soon
//!   as the socket takes it, timed to the last `StreamEndAck`.
//! * Phase B, open loop: chunks due on a fixed schedule worth
//!   [`OPEN_LOOP_KF_PER_S`]; a detection's latency runs from the due time
//!   of the chunk that emits it to its receipt here.
//! * Phase C: subscribe -> ack / unsubscribe -> ack round trips with one
//!   idle stream attached.

use crate::inputs::{self, Inputs, Kind, REAL_QUERIES};
use crate::layers::{self, timed};
use crate::library;
use crate::metrics::{median, tail};
use crate::procstat;
use crate::sut::{self, AnyFleet, Client, DetectionEvent, StreamDetection, StreamId};
use crate::trace::{SpanId, Tracer};
use crate::{Opts, Outcome};
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Phase B's offered load in key frames per second: a tenth of what the
/// daemon sustained in Phase A when the benchmark was written, so no
/// backlog builds and latency is the path's own. Not 6000 (ISSUE 12): there
/// the daemon's CPU idles ~190 us between chunks, right at the 200 us for
/// which the hypervisor polls before it really halts a virtual CPU, and a
/// whole run lands on one side or the other (median 0.058 or 0.076 ms). At
/// 3000 it halts every time.
const OPEN_LOOP_KF_PER_S: f64 = 3000.0;
/// Local id of the one stream a session streams on.
const STREAM: u32 = 0;
/// Daemon instances an untraced run starts, one after another.
const INSTANCES: usize = 5;
/// Decoys Phase C may subscribe: part of the generated inputs.
const MAX_ROUND_TRIPS: u32 = 300;

/// Pin every thread of process `pid` to one CPU with `taskset`; false if
/// that did not work (no `taskset` on the path).
///
/// Unpinned, a whole run falls into one of two regimes that differ twofold
/// in Phase A throughput and threefold in detection latency, depending on
/// where the kernel happens to put the daemon's threads relative to the
/// load generator's: either short replies are there when
/// `Client::round_trip` first looks (~0.05 ms a call), or it finds nothing
/// and sleeps its 1 ms. With the daemon on the last CPU and the generator
/// on the first, every run is in the first regime from start to end.
fn pin(pid: u32, cpu: usize) -> bool {
    Command::new("taskset")
        .args(["-a", "-c", "-p", &cpu.to_string(), &pid.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// The CPUs for (load generator, daemon), if there are two to tell apart.
fn cpus() -> Option<(usize, usize)> {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    (n >= 2).then_some((0, n - 1))
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

fn ms(secs: &[f64]) -> Vec<f64> {
    secs.iter().map(|s| s * 1e3).collect()
}

/// The daemon child. Dropping it kills and reaps the child and removes
/// its socket directory, whatever happened in between.
struct Daemon {
    child: Child,
    dir: PathBuf,
}

impl Daemon {
    /// Spawn the daemon on a socket in a fresh directory, connect, say
    /// hello and subscribe the real queries: what `setup_s` times.
    fn start(opts: &Opts, inputs: &Inputs) -> io::Result<(Daemon, Client)> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = opts.out_dir.join(format!(
            "daemon-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let socket = dir.join("s");
        let child = sut::daemon_command(&opts.daemon, &socket).spawn().map_err(|e| {
            io::Error::other(format!("cannot start {}: {e}", opts.daemon.display()))
        })?;
        let mut daemon = Daemon { child, dir };
        if let Some((_, cpu)) = cpus() {
            pin(daemon.child.id(), cpu);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let client = loop {
            match Client::connect_unix(&socket) {
                Ok(c) => break c,
                Err(e) if Instant::now() > deadline => return Err(other(e)),
                Err(_) => {
                    if let Some(status) = daemon.child.try_wait()? {
                        return Err(io::Error::other(format!("daemon exited at start: {status}")));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        };
        client.hello(1).map_err(other)?;
        for (id, cells) in inputs.queries.iter().enumerate() {
            client.subscribe(id as u32, cells.clone()).map_err(other)?;
        }
        Ok((daemon, client))
    }

    /// The child as `/proc` names it.
    fn pid(&self) -> String {
        procstat::proc_name(Some(self.child.id()))
    }

    /// Ask the daemon to drain and exit, and wait until it has.
    fn stop(mut self, client: Client) -> io::Result<()> {
        client.shutdown_server().map_err(other)?;
        client.wait_drained(Duration::from_secs(5));
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                if status.success() {
                    return Ok(());
                }
                return Err(io::Error::other(format!("daemon exited uncleanly: {status}")));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(io::Error::other("daemon did not exit within 10 s of shutdown"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // An error here means the child has already gone; it is reaped
        // either way.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One program through `ChunkedIngest` into `fleet`, as the daemon's
/// engine thread does it: attach, one `push_batch` per chunk, flush and
/// detach at the end. `found` gets each detection with the chunk that
/// emitted it (`None`: flushed by the end of the stream). Returns the key
/// frames ingested.
fn stream_in_process(
    fleet: &mut AnyFleet,
    chunks: &[Vec<u8>],
    mut found: impl FnMut(Option<usize>, StreamDetection),
) -> u64 {
    fleet.add_stream(STREAM).expect("stream id is free");
    let mut ingest = sut::chunked_ingest();
    let mut fps = Vec::new();
    let mut batch: Vec<(StreamId, u64, u64)> = Vec::new();
    for j in 0..=chunks.len() {
        fps.clear();
        match chunks.get(j) {
            Some(chunk) => ingest.push_chunk(chunk, &mut fps).expect("clean stream ingests"),
            None => ingest.finish(&mut fps).expect("clean stream ends"),
        }
        batch.clear();
        batch.extend(fps.iter().map(|&(frame, cell)| (STREAM, frame, cell)));
        for d in fleet.push_batch(&batch).expect("stream is attached") {
            found(chunks.get(j).map(|_| j), d);
        }
    }
    let (flushed, _) =
        fleet.detach_stream(STREAM).expect("serial fleet").expect("stream is attached");
    for d in flushed {
        found(None, d);
    }
    ingest.keyframes()
}

/// What the in-process oracle says one program's session must produce.
struct Program {
    chunks: Vec<Vec<u8>>,
    keyframes: u64,
    /// Detections in emission order with the chunk that emits each; the
    /// `stream_id` is filled in per session.
    expected: Vec<(Option<usize>, DetectionEvent)>,
}

fn oracle(inputs: &Inputs, fleet: &mut AnyFleet) -> Vec<Program> {
    inputs
        .streams
        .iter()
        .map(|stream| {
            let chunks: Vec<Vec<u8>> = layers::chunks(stream).map(<[u8]>::to_vec).collect();
            let mut expected = Vec::new();
            let keyframes = stream_in_process(fleet, &chunks, |chunk, d| {
                let event = DetectionEvent {
                    query_id: d.detection.query_id,
                    stream_id: 0,
                    start_frame: d.detection.start_frame,
                    end_frame: d.detection.end_frame,
                    windows: d.detection.windows as u64,
                    similarity: d.detection.similarity,
                };
                expected.push((chunk, event));
            });
            Program { chunks, keyframes, expected }
        })
        .collect()
}

/// A serial fleet subscribed to the real queries, no stream attached.
fn oracle_fleet(inputs: &Inputs) -> AnyFleet {
    library::set_up(&inputs.queries, 1, 0)
}

/// One stream session as the load generator saw it.
struct Session {
    program: usize,
    /// The fleet-global stream id the daemon tags its detections with.
    global: u32,
    /// Open loop: when each chunk was due.
    due: Vec<Instant>,
    /// Traced: the span of each chunk's send.
    sends: Vec<SpanId>,
    wall_s: f64,
}

/// The load generator: one thread, one connection.
struct Load<'a> {
    client: &'a Client,
    programs: &'a [Program],
    tracer: Option<&'a mut Tracer>,
    sessions: Vec<Session>,
    received: Vec<(Instant, DetectionEvent)>,
    attach_s: Vec<f64>,
    end_s: Vec<f64>,
    late_s: Vec<f64>,
    chunks_sent: u64,
    frames_dropped: u64,
    resyncs: u64,
}

impl<'a> Load<'a> {
    fn new(
        client: &'a Client,
        programs: &'a [Program],
        tracer: Option<&'a mut Tracer>,
    ) -> Load<'a> {
        Load {
            client,
            programs,
            tracer,
            sessions: Vec::new(),
            received: Vec::new(),
            attach_s: Vec::new(),
            end_s: Vec::new(),
            late_s: Vec::new(),
            chunks_sent: 0,
            frames_dropped: 0,
            resyncs: 0,
        }
    }

    /// Collect detections that have arrived; their receipt time is now.
    fn poll(&mut self) {
        let events = self.client.take_detections();
        if !events.is_empty() {
            let now = Instant::now();
            self.received.extend(events.into_iter().map(|e| (now, e)));
        }
    }

    /// Spin until `due`, polling meanwhile and yielding the core between
    /// looks so the client's reader thread is never starved by the spin.
    fn wait_until(&mut self, due: Instant) {
        while Instant::now() < due {
            self.poll();
            std::thread::yield_now();
        }
    }

    fn open_span(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let unit = self.sessions.len() as u32;
        self.tracer.as_mut().map(|t| t.open(name, parent, unit, STREAM))
    }

    fn close_span(&mut self, id: Option<SpanId>) {
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), id) {
            t.close(id);
        }
    }

    /// Stream one program as one session. With a schedule (open loop) the
    /// attach is due at `start` and chunk `j` at `start + j x gap`; without
    /// one (closed loop) everything goes as fast as the socket takes it.
    fn session(
        &mut self,
        program: usize,
        schedule: Option<(Instant, Duration)>,
        outcome: &mut Outcome,
    ) {
        let programs = self.programs;
        let prog = &programs[program];
        let mut session =
            Session { program, global: u32::MAX, due: Vec::new(), sends: Vec::new(), wall_s: 0.0 };
        if let Some((start, _)) = schedule {
            self.wait_until(start);
        }
        let started = Instant::now();
        let root = self.open_span("session", None);

        let span = self.open_span("serve.attach", root);
        let (attach_s, attached) = timed(|| self.client.attach_stream(STREAM));
        self.close_span(span);
        self.attach_s.push(attach_s);
        outcome.expect(1, u64::from(attached.is_err()), || "attach_stream failed".to_string());
        session.global = attached.unwrap_or(u32::MAX);

        for (j, chunk) in prog.chunks.iter().enumerate() {
            if let Some((start, gap)) = schedule {
                let due = start + gap * j as u32;
                self.wait_until(due);
                self.late_s.push(Instant::now().saturating_duration_since(due).as_secs_f64());
                session.due.push(due);
            }
            let span = self.open_span("serve.send_chunk", root);
            let sent = self.client.send_chunk(STREAM, chunk.clone());
            self.close_span(span);
            session.sends.extend(span);
            outcome.expect(1, u64::from(sent.is_err()), || "send_chunk failed".to_string());
            self.chunks_sent += 1;
            self.poll();
        }

        let span = self.open_span("serve.end_stream", root);
        let (end_s, ended) = timed(|| self.client.end_stream(STREAM));
        self.close_span(span);
        self.end_s.push(end_s);
        match ended {
            Ok(info) => {
                outcome.expect(1, u64::from(info.keyframes != prog.keyframes), || {
                    format!("StreamEndAck.keyframes {} != {}", info.keyframes, prog.keyframes)
                });
                self.frames_dropped += info.frames_dropped;
                self.resyncs += info.resyncs;
            }
            Err(e) => outcome.expect(1, 1, || format!("end_stream failed: {e}")),
        }
        self.poll();
        self.close_span(root);
        session.wall_s = started.elapsed().as_secs_f64();
        self.sessions.push(session);
    }

    /// Sessions back to back until `budget` is spent, at least one per
    /// program. Returns key frames sent and wall seconds.
    fn closed_loop(&mut self, budget: Duration, outcome: &mut Outcome) -> (u64, f64) {
        let started = Instant::now();
        let first = self.sessions.len();
        let mut keyframes = 0;
        while self.sessions.len() - first < self.programs.len() || started.elapsed() < budget {
            let program = self.sessions.len() % self.programs.len();
            self.session(program, None, outcome);
            keyframes += self.programs[program].keyframes;
        }
        (keyframes, started.elapsed().as_secs_f64())
    }

    /// Sessions on the fixed schedule until `budget` is spent, at least
    /// one per program. The schedule never waits for the system.
    fn open_loop(&mut self, budget: Duration, outcome: &mut Outcome) {
        let started = Instant::now();
        let first = self.sessions.len();
        let mut next = started;
        while self.sessions.len() - first < self.programs.len() || started.elapsed() < budget {
            let program = self.sessions.len() % self.programs.len();
            let prog = &self.programs[program];
            let length = Duration::from_secs_f64(prog.keyframes as f64 / OPEN_LOOP_KF_PER_S);
            self.session(program, Some((next, length / prog.chunks.len() as u32)), outcome);
            next += length;
        }
    }

    /// Wait for detections still in flight, then compare what arrived,
    /// session by session, with the oracle: a missing, extra or not
    /// bit-identical detection is one failure each, as is every detection
    /// the daemon dropped for a lagging reader and every asynchronous
    /// server error.
    fn settle_and_check(&mut self, outcome: &mut Outcome) {
        let expected: usize =
            self.sessions.iter().map(|s| self.programs[s.program].expected.len()).sum();
        let deadline = Instant::now() + Duration::from_secs(3);
        while self.received.len() < expected && Instant::now() < deadline {
            self.poll();
            std::thread::sleep(Duration::from_millis(1));
        }
        for s in &self.sessions {
            let want = &self.programs[s.program].expected;
            let got: Vec<&DetectionEvent> =
                self.received.iter().map(|(_, e)| e).filter(|e| e.stream_id == s.global).collect();
            let wrong = (0..want.len().max(got.len()))
                .filter(|&i| match (want.get(i), got.get(i)) {
                    (Some((_, w)), Some(g)) => {
                        DetectionEvent { stream_id: s.global, ..w.clone() } != **g
                    }
                    _ => true,
                })
                .count();
            outcome.expect(want.len() as u64, wrong as u64, || {
                format!(
                    "program {}: {wrong} of {} detections wrong, missing or extra",
                    s.program,
                    want.len()
                )
            });
        }
        let lagged = self.client.lagged_total();
        outcome.expect(0, lagged, || format!("{lagged} detections dropped as Lagged"));
        let errors = self.client.take_async_errors();
        outcome
            .expect(0, errors.len() as u64, || format!("asynchronous server errors: {errors:?}"));
    }

    /// Open-loop detection latencies in seconds: receipt minus the due
    /// time of the emitting chunk. Detections flushed by the end of a
    /// stream were checked above but have no chunk to be timed from. With
    /// a tracer, each becomes a `serve.detect` span caused by that chunk's
    /// send.
    fn detect_latencies(&mut self) -> Vec<f64> {
        let mut out = Vec::new();
        for (unit, s) in self.sessions.iter().enumerate().filter(|(_, s)| !s.due.is_empty()) {
            let arrivals = self.received.iter().filter(|(_, e)| e.stream_id == s.global);
            for ((at, _), (chunk, _)) in arrivals.zip(&self.programs[s.program].expected) {
                let Some(chunk) = *chunk else { continue };
                out.push(at.saturating_duration_since(s.due[chunk]).as_secs_f64());
                if let Some(t) = self.tracer.as_mut() {
                    t.record(
                        "serve.detect",
                        s.sends.get(chunk).copied(),
                        unit as u32,
                        STREAM,
                        s.due[chunk],
                        *at,
                    );
                }
            }
        }
        out
    }
}

/// Phase C: subscribe -> ack and unsubscribe -> ack round trips of fresh
/// decoys with one idle stream attached. Returns the two calls' seconds.
fn subscription_round_trips(
    client: &Client,
    inputs: &Inputs,
    budget: Duration,
    outcome: &mut Outcome,
) -> (Vec<f64>, Vec<f64>) {
    let idle = STREAM + 1;
    let attached = client.attach_stream(idle);
    outcome
        .expect(1, u64::from(attached.is_err()), || "attaching the idle stream failed".to_string());
    let started = Instant::now();
    let (mut subs, mut unsubs) = (Vec::new(), Vec::new());
    for i in 0..MAX_ROUND_TRIPS {
        if i >= 20 && started.elapsed() >= budget {
            break;
        }
        let id = REAL_QUERIES as u32 + i;
        let cells = inputs::decoy(inputs, u64::from(i));
        let (s, subscribed) = timed(|| client.subscribe(id, cells));
        let (u, unsubscribed) = timed(|| client.unsubscribe(id));
        subs.push(s);
        unsubs.push(u);
        outcome.expect(
            2,
            u64::from(subscribed.is_err()) + u64::from(unsubscribed.is_err()),
            || "a subscription round trip failed".to_string(),
        );
    }
    let detached = client.detach_stream(idle);
    outcome
        .expect(1, u64::from(detached.is_err()), || "detaching the idle stream failed".to_string());
    (subs, unsubs)
}

/// Load the programs; pin this process before any client thread exists.
fn load_inputs(opts: &Opts, outcome: &mut Outcome) -> io::Result<Inputs> {
    let pinned = cpus().is_some_and(|(cpu, _)| pin(std::process::id(), cpu));
    outcome.note("pinned", pinned);
    let inputs = inputs::load(&opts.cache_dir, Kind::Programs, opts.seed)?;
    let digest = inputs::digest_with_decoys(&inputs, u64::from(MAX_ROUND_TRIPS));
    outcome.note("inputs_digest", format!("{digest:016x}"));
    Ok(inputs)
}

/// The untraced run: the six end-to-end metrics.
///
/// Detection latency settles into a regime per daemon instance (medians
/// from 0.06 to 0.10 ms on one machine within one minute, with an
/// unchanged clock), so Phase B is split over [`INSTANCES`] instances,
/// whose starts are also the `setup_s` samples, and reported as the mean of
/// their medians. Phases A and C then run on the last instance.
pub fn run(opts: &Opts) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let inputs = load_inputs(opts, &mut outcome)?;
    let programs = oracle(&inputs, &mut oracle_fleet(&inputs));
    // A `--quick` run sets up once, a full one `INSTANCES` times.
    let instances = if opts.setup_repeats == 1 { 1 } else { INSTANCES };
    let budget = |share: f64| Duration::from_secs_f64(opts.seconds * share);

    let (mut setup_s, mut latency_ms_p50, mut late_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut timed_detections, mut chunks_sent, mut frames_dropped, mut resyncs) = (0, 0, 0, 0);
    let mut running = None;
    for _ in 0..instances {
        if let Some((daemon, client)) = running.take() {
            Daemon::stop(daemon, client)?;
        }
        let (s, started) = timed(|| Daemon::start(opts, &inputs));
        let (daemon, client) = started?;
        setup_s.push(s);
        let mut load = Load::new(&client, &programs, None);
        load.open_loop(budget(0.45) / instances as u32, &mut outcome);
        load.settle_and_check(&mut outcome);
        let latency_ms = ms(&load.detect_latencies());
        if !latency_ms.is_empty() {
            latency_ms_p50.push(median(&latency_ms));
        }
        timed_detections += latency_ms.len();
        late_s.append(&mut load.late_s);
        chunks_sent += load.chunks_sent;
        frames_dropped += load.frames_dropped;
        resyncs += load.resyncs;
        drop(load);
        running = Some((daemon, client));
    }
    let (daemon, client) = running.expect("at least one instance");
    outcome.metrics.set("setup_s", median(&setup_s));
    outcome.note("setup_s.n", setup_s.len());
    if !latency_ms_p50.is_empty() {
        let mean = latency_ms_p50.iter().sum::<f64>() / latency_ms_p50.len() as f64;
        outcome.metrics.set("detect_latency_ms_p50", mean);
    }
    outcome.note("detect_latency_ms_p50.n", timed_detections);
    outcome.note("detect_latency_ms_p50.by_instance", format!("{latency_ms_p50:.4?}"));
    outcome.note("sender_late_ms_tail", tail(&ms(&late_s), 0.99));

    let mut load = Load::new(&client, &programs, None);
    let cpu_before = procstat::cpu_seconds(&daemon.pid());
    let (keyframes, wall_s) = load.closed_loop(budget(0.45), &mut outcome);
    let cpu_s = procstat::cpu_seconds(&daemon.pid()) - cpu_before;
    load.settle_and_check(&mut outcome);
    outcome.metrics.set("ingest_kf_per_s", keyframes as f64 / wall_s);
    outcome.metrics.set("cpu_us_per_kf", cpu_s * 1e6 / keyframes as f64);
    outcome.note("phase_a.sessions", load.sessions.len());
    outcome.note("phase_a.keyframes", keyframes);
    outcome.note("phase_a.attach_ms_p50", median(&ms(&load.attach_s)));
    outcome.note("phase_a.end_stream_ms_p50", median(&ms(&load.end_s)));
    outcome.note("chunks_sent", chunks_sent + load.chunks_sent);
    outcome.note("frames_dropped", frames_dropped + load.frames_dropped);
    outcome.note("resyncs", resyncs + load.resyncs);
    drop(load);

    let (subs, _) = subscription_round_trips(&client, &inputs, budget(0.10), &mut outcome);
    outcome.metrics.set("subscribe_ms_p50", median(&ms(&subs)));
    outcome.note("subscribe_ms_p50.n", subs.len());
    outcome.metrics.set("peak_rss_mb", procstat::peak_rss_mb(&daemon.pid()));
    daemon.stop(client)?;
    Ok(outcome)
}

/// The traced run: every layer alone on the programs, then short phases
/// against the daemon with a span around every client call.
pub fn run_traced(opts: &Opts) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let inputs = load_inputs(opts, &mut outcome)?;
    let slice = Duration::from_secs_f64(opts.seconds / 10.0);
    library::layer_metrics(&inputs, &inputs.queries, slice, &mut outcome.metrics);
    let mut fleet = library::set_up(&inputs.queries, 1, inputs::STREAMS);
    library::fleet_metrics(&inputs, &inputs.queries, &mut fleet, 0, slice, &mut outcome);

    // The daemon's own work on the same chunking, in process: the base of
    // `serve.daemon_overhead_ratio` and `serve.handoff_us_per_chunk`.
    let mut fleet = oracle_fleet(&inputs);
    let programs = oracle(&inputs, &mut fleet);
    let program_kf: u64 = programs.iter().map(|p| p.keyframes).sum();
    let program_chunks: usize = programs.iter().map(|p| p.chunks.len()).sum();
    let in_process_s = median(&layers::repeat_for(slice, || {
        for p in &programs {
            stream_in_process(&mut fleet, &p.chunks, |_, d| {
                std::hint::black_box(d);
            });
        }
    }));

    let (daemon, client) = Daemon::start(opts, &inputs)?;
    let rtt_s = layers::repeat_for(slice / 2, || {
        let health = client.health();
        outcome.expect(1, u64::from(health.is_err()), || "health round trip failed".to_string());
    });

    // Phase A untraced for the base, then traced; then Phase B traced.
    let mut plain = Load::new(&client, &programs, None);
    let (keyframes, wall_s) = plain.closed_loop(slice, &mut outcome);
    plain.settle_and_check(&mut outcome);
    let untraced_s = median(&plain.sessions.iter().map(|s| s.wall_s).collect::<Vec<f64>>());
    let wall_per_chunk_s = wall_s / plain.chunks_sent as f64;
    let (mut frames_dropped, mut resyncs) = (plain.frames_dropped, plain.resyncs);

    let mut tracer = Tracer::new();
    let mut load = Load::new(&client, &programs, Some(&mut tracer));
    load.closed_loop(slice, &mut outcome);
    let closed = load.sessions.len();
    let traced_s = median(&load.sessions.iter().map(|s| s.wall_s).collect::<Vec<f64>>());
    load.open_loop(2 * slice, &mut outcome);
    load.settle_and_check(&mut outcome);
    let latency_ms = ms(&load.detect_latencies());
    let late_ms = ms(&load.late_s);
    let (attach_ms, end_ms) = (ms(&load.attach_s), ms(&load.end_s));
    frames_dropped += load.frames_dropped;
    resyncs += load.resyncs;
    drop(load);

    let (subs, unsubs) = subscription_round_trips(&client, &inputs, slice, &mut outcome);
    let lagged = client.lagged_total();
    daemon.stop(client)?;

    // The client calls' self time per closed-loop session against the
    // untraced session time.
    let calls_s = tracer
        .self_ns_by_name(|s| {
            s.name != "session" && s.name != "serve.detect" && (s.unit as usize) < closed
        })
        .values()
        .sum::<u64>() as f64
        / 1e9
        / closed as f64;
    let out = &mut outcome.metrics;
    out.set("trace.overhead_ratio", traced_s / untraced_s);
    out.set("trace.budget_residual_ratio", (calls_s - untraced_s).abs() / untraced_s);
    out.set("serve.rtt_ms_p50", median(&ms(&rtt_s)));
    out.set("serve.attach_ms_p50", median(&attach_ms));
    out.set("serve.end_stream_ms_p50", median(&end_ms));
    out.set("serve.unsubscribe_ms_p50", median(&ms(&unsubs)));
    if !latency_ms.is_empty() {
        out.set("serve.detect_latency_ms_p95", tail(&latency_ms, 0.95));
    }
    out.set("serve.sender_late_ms_p95", tail(&late_ms, 0.95));
    // How many times slower than its own work in process the daemon runs;
    // base: Phase A's rate.
    let phase_a_rate = keyframes as f64 / wall_s;
    let in_process_rate = program_kf as f64 / in_process_s;
    out.set("serve.daemon_overhead_ratio", in_process_rate / phase_a_rate);
    // Derived: what a chunk costs the daemon beyond framing and its own
    // ingest and push, i.e. sockets, queues, threads and acknowledgements.
    let wire_s = (out.get("serve.wire_encode_ns_per_chunk").expect("layer ran")
        + out.get("serve.wire_parse_ns_per_chunk").expect("layer ran"))
        / 1e9;
    let work_s = in_process_s / program_chunks as f64;
    out.set("serve.handoff_us_per_chunk", (wall_per_chunk_s - wire_s - work_s) * 1e6);
    out.set("serve.lagged_total", lagged as f64);
    out.set("serve.frames_dropped", frames_dropped as f64);
    out.set("serve.resyncs", resyncs as f64);
    outcome.note("serve.phase_a_kf_per_s", phase_a_rate);
    outcome.note("serve.in_process_kf_per_s", in_process_rate);
    outcome.note("serve.subscribe_ms_p50", median(&ms(&subs)));
    outcome.note("serve.detect_latency.n", latency_ms.len());
    crate::zero_fill_layers(&mut outcome.metrics);
    std::fs::create_dir_all(&opts.out_dir)?;
    tracer.write_json("serve_live", &opts.out_dir.join("trace-serve_live.json"))?;
    Ok(outcome)
}
