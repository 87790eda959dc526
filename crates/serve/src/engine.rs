//! The engine: sole owner of the fleet and all session state.
//!
//! There is one `Engine` per daemon and no thread of its own: it
//! lives behind one lock, and each session thread applies its own
//! commands to it (`Engine::execute`) one at a time. Every fleet
//! interaction is therefore serialized, and every client observes the
//! fleet through one command order, as the serial oracle requires.
//! Replies and detection pushes go back through each session's bounded
//! [`SessionQueue`], which never blocks, so a slow client can never
//! hold the engine.
//!
//! Fault posture: a panic while applying one command is caught,
//! counted, and surfaced to that session as an `Internal` error — one
//! hostile request cannot take the daemon down. Bitstream damage
//! detaches the offending stream only; the session and every other
//! stream keep going.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vdsms_codec::IngestHealth;
use vdsms_core::{Fleet, FleetError, Query, Stats, StreamDetection, StreamId};
use vdsms_features::FeatureExtractor;
use vdsms_sketch::MinHashFamily;

use crate::config::ServeConfig;
use crate::ingest::{ChunkedIngest, IngestError};
use crate::protocol::{
    encode_reply, ErrorCode, HealthReport, Inbound, Reply, Request, PROTOCOL_VERSION, TAG_ATTACH,
    TAG_DETACH, TAG_GOODBYE, TAG_HELLO, TAG_SHUTDOWN, TAG_STREAM_DATA, TAG_STREAM_END,
    TAG_SUBSCRIBE, TAG_UNSUBSCRIBE,
};
use crate::queue::SessionQueue;

/// What a session's threads apply to the engine.
pub(crate) enum Command<'a> {
    /// A connection was admitted: register its outbound queue.
    Open(Arc<SessionQueue>),
    /// A parsed request; stream bytes are borrowed from the session's
    /// receive buffer.
    Request(Inbound<'a>),
    /// The session's connection is gone (EOF, error, or timeout):
    /// release everything it owned.
    Closed,
}

/// Whether the daemon keeps serving after a command.
pub(crate) enum Flow {
    Continue,
    /// A `Shutdown` was applied: drain with [`Engine::finish`].
    Stop,
}

/// Final accounting returned when the daemon exits.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The fleet drain exceeded its deadline and detached workers.
    pub drain_timed_out: bool,
    /// Sessions admitted over the daemon's lifetime.
    pub sessions_served: u64,
    /// Detection frames pushed (pre-backpressure).
    pub detections_pushed: u64,
    /// Engine-side panics caught and survived.
    pub engine_panics: u64,
    /// Aggregate detector statistics (live + retired streams).
    pub stats: Stats,
}

impl ServeReport {
    /// What `run` reports when the engine's own report is lost (its drain
    /// panicked).
    pub(crate) fn lost() -> ServeReport {
        ServeReport {
            drain_timed_out: true,
            sessions_served: 0,
            detections_pushed: 0,
            engine_panics: 1,
            stats: Stats::default(),
        }
    }
}

struct StreamState {
    global: StreamId,
    ingest: ChunkedIngest,
}

struct SessionState {
    queue: Arc<SessionQueue>,
    /// `Some` once `Hello` succeeded.
    tenant: Option<u64>,
    /// Session-local query id → fleet-global query id.
    queries: BTreeMap<u32, u32>,
    /// Session-local stream id → fleet-global id + reassembly state.
    streams: BTreeMap<u32, StreamState>,
}

/// The engine: owns the fleet and every session's state; consumed by
/// [`Engine::finish`] at shutdown.
pub(crate) struct Engine {
    cfg: ServeConfig,
    fleet: Fleet,
    family: MinHashFamily,
    extractor: FeatureExtractor,
    sessions: BTreeMap<u64, SessionState>,
    /// Fleet-global query id → (session, session-local query id).
    routes: BTreeMap<u32, (u64, u32)>,
    /// Live subscriptions per tenant (admission control).
    tenant_subs: BTreeMap<u64, usize>,
    /// Ingest health of streams that already ended, so reports stay
    /// monotone.
    retired_health: IngestHealth,
    /// Streams that ended degraded.
    retired_degraded: u64,
    /// Detector stats of streams already removed from the fleet.
    retired_stats: Stats,
    next_global_query: u32,
    next_global_stream: StreamId,
    shutting_down: bool,
    stop: Arc<AtomicBool>,
    sessions_served: u64,
    detections_pushed: u64,
    engine_panics: u64,
    drain_timed_out: bool,
    /// Scratch for fingerprints produced by one chunk.
    fp_scratch: Vec<(u64, u64)>,
    /// Scratch for the same fingerprints as the fleet's batch rows.
    batch_scratch: Vec<(StreamId, u64, u64)>,
}

impl Engine {
    /// Build the engine. `stop` is shared with the daemon's listeners:
    /// the engine raises it when it drains.
    pub(crate) fn new(cfg: ServeConfig, stop: Arc<AtomicBool>) -> Engine {
        let family = vdsms_core::Detector::family_for(&cfg.detector);
        let extractor = FeatureExtractor::new(cfg.features);
        let fleet = Fleet::new(cfg.detector);
        Engine {
            cfg,
            fleet,
            family,
            extractor,
            sessions: BTreeMap::new(),
            routes: BTreeMap::new(),
            tenant_subs: BTreeMap::new(),
            retired_health: IngestHealth::default(),
            retired_degraded: 0,
            retired_stats: Stats::default(),
            next_global_query: 0,
            next_global_stream: 0,
            shutting_down: false,
            stop,
            sessions_served: 0,
            detections_pushed: 0,
            engine_panics: 0,
            drain_timed_out: false,
            fp_scratch: Vec::new(),
            batch_scratch: Vec::new(),
        }
    }

    /// Apply one session's command. One hostile or buggy command must
    /// not take the daemon down: a panic is caught, counted and reported
    /// to the session, and the engine keeps serving.
    pub(crate) fn execute(&mut self, session: u64, cmd: Command<'_>) -> Flow {
        let flow = catch_unwind(AssertUnwindSafe(|| match cmd {
            Command::Open(queue) => {
                self.open(session, queue);
                Flow::Continue
            }
            Command::Request(req) => self.handle_request(session, req),
            Command::Closed => {
                self.teardown_session(session);
                Flow::Continue
            }
        }));
        flow.unwrap_or_else(|_| {
            self.engine_panics += 1;
            self.error(session, 0, ErrorCode::Internal, "engine panic handling request");
            Flow::Continue
        })
    }

    /// Drain after a `Shutdown` and report.
    pub(crate) fn finish(mut self) -> ServeReport {
        self.drain();
        // Detector stats cannot see ingest-layer damage; fold it in (as
        // `vdsms monitor` does) so `is_degraded` on the report holds for
        // corruption that recovery absorbed, not just shard trouble.
        let mut stats = self.total_stats();
        let mut ingest = self.retired_health;
        for s in self.sessions.values() {
            for st in s.streams.values() {
                ingest.merge(&st.ingest.health());
            }
        }
        stats.frames_dropped += ingest.frames_dropped;
        stats.bytes_skipped += ingest.bytes_skipped;
        stats.resyncs += ingest.resyncs;
        ServeReport {
            drain_timed_out: self.drain_timed_out,
            sessions_served: self.sessions_served,
            detections_pushed: self.detections_pushed,
            engine_panics: self.engine_panics,
            stats,
        }
    }

    fn open(&mut self, session: u64, queue: Arc<SessionQueue>) {
        self.sessions.insert(
            session,
            SessionState {
                queue,
                tenant: None,
                queries: BTreeMap::new(),
                streams: BTreeMap::new(),
            },
        );
        self.sessions_served += 1;
    }

    fn reply(&self, session: u64, reply: &Reply) {
        if let Some(s) = self.sessions.get(&session) {
            s.queue.push_control(encode_reply(reply));
        }
    }

    fn error(&self, session: u64, re: u8, code: ErrorCode, msg: &str) {
        self.reply(session, &Reply::Error { re, code, msg: msg.into() });
    }

    /// Reply with a fatal error, then close the session from the server
    /// side: finishing the queue makes the writer flush the error frame
    /// and shut the socket down, which the reader observes as EOF.
    fn fatal(&mut self, session: u64, re: u8, code: ErrorCode, msg: &str) {
        self.error(session, re, code, msg);
        self.teardown_session(session);
    }

    // vdsms-lint: entry(no-panic-hot-path, loop-progress)
    fn handle_request(&mut self, session: u64, req: Inbound<'_>) -> Flow {
        if !self.sessions.contains_key(&session) {
            return Flow::Continue; // raced with teardown
        }
        let hello_done = self.sessions.get(&session).map(|s| s.tenant.is_some()).unwrap_or(false);
        if !hello_done && !matches!(req, Inbound::Request(Request::Hello { .. })) {
            self.fatal(session, 0, ErrorCode::HelloRequired, "hello must be the first frame");
            return Flow::Continue;
        }
        let req = match req {
            Inbound::StreamData { stream_id, bytes } => {
                return self.on_stream_data(session, stream_id, bytes)
            }
            Inbound::Request(req) => req,
        };
        match req {
            Request::Hello { version, tenant } => self.on_hello(session, version, tenant),
            Request::Subscribe { query_id, cells } => self.on_subscribe(session, query_id, &cells),
            Request::Unsubscribe { query_id } => self.on_unsubscribe(session, query_id),
            Request::AttachStream { stream_id } => self.on_attach(session, stream_id),
            Request::StreamData { stream_id, bytes } => {
                self.on_stream_data(session, stream_id, &bytes)
            }
            Request::StreamEnd { stream_id } => self.on_stream_end(session, stream_id),
            Request::DetachStream { stream_id } => self.on_detach(session, stream_id),
            Request::Health => self.on_health(session),
            Request::Credit { n } => {
                // Normally granted reader-side; granting here too is
                // harmless and keeps direct-driven engines correct.
                if let Some(s) = self.sessions.get(&session) {
                    s.queue.grant(n);
                }
                Flow::Continue
            }
            Request::Goodbye => {
                self.reply(session, &Reply::Ok { re: TAG_GOODBYE });
                self.teardown_session(session);
                Flow::Continue
            }
            Request::Shutdown => {
                self.reply(session, &Reply::Ok { re: TAG_SHUTDOWN });
                Flow::Stop
            }
        }
    }

    fn on_hello(&mut self, session: u64, version: u64, tenant: u64) -> Flow {
        if self.shutting_down {
            self.fatal(session, TAG_HELLO, ErrorCode::ShuttingDown, "daemon is draining");
            return Flow::Continue;
        }
        if version != PROTOCOL_VERSION {
            self.fatal(session, TAG_HELLO, ErrorCode::BadVersion, "unsupported protocol version");
            return Flow::Continue;
        }
        let Some(s) = self.sessions.get_mut(&session) else { return Flow::Continue };
        if s.tenant.is_some() {
            self.fatal(session, TAG_HELLO, ErrorCode::Malformed, "duplicate hello");
            return Flow::Continue;
        }
        s.tenant = Some(tenant);
        self.reply(session, &Reply::HelloOk { version: PROTOCOL_VERSION, session });
        Flow::Continue
    }

    fn on_subscribe(&mut self, session: u64, query_id: u32, cells: &[u64]) -> Flow {
        if self.shutting_down {
            self.error(session, TAG_SUBSCRIBE, ErrorCode::ShuttingDown, "daemon is draining");
            return Flow::Continue;
        }
        if cells.is_empty() {
            // `Query::from_cell_ids` panics on empty input; reject at
            // the protocol boundary instead.
            self.fatal(session, TAG_SUBSCRIBE, ErrorCode::Malformed, "query has no cells");
            return Flow::Continue;
        }
        let Some(s) = self.sessions.get(&session) else { return Flow::Continue };
        let tenant = s.tenant.unwrap_or(0);
        if s.queries.contains_key(&query_id) {
            self.error(session, TAG_SUBSCRIBE, ErrorCode::DuplicateQuery, "query id in use");
            return Flow::Continue;
        }
        let live = self.tenant_subs.get(&tenant).copied().unwrap_or(0);
        if live >= self.cfg.max_subscriptions_per_tenant {
            self.error(
                session,
                TAG_SUBSCRIBE,
                ErrorCode::QuotaExceeded,
                "tenant subscription quota exhausted",
            );
            return Flow::Continue;
        }
        let global = self.next_global_query;
        self.next_global_query += 1;
        let query = Query::from_cell_ids(global, &self.family, cells);
        if let Err(e) = self.fleet.subscribe(query) {
            self.error(session, TAG_SUBSCRIBE, ErrorCode::Internal, &e.to_string());
            return Flow::Continue;
        }
        self.routes.insert(global, (session, query_id));
        self.tenant_subs.insert(tenant, live + 1);
        if let Some(s) = self.sessions.get_mut(&session) {
            s.queries.insert(query_id, global);
        }
        self.reply(session, &Reply::Ok { re: TAG_SUBSCRIBE });
        Flow::Continue
    }

    fn on_unsubscribe(&mut self, session: u64, query_id: u32) -> Flow {
        let Some(s) = self.sessions.get_mut(&session) else { return Flow::Continue };
        let tenant = s.tenant.unwrap_or(0);
        let Some(global) = s.queries.remove(&query_id) else {
            self.error(session, TAG_UNSUBSCRIBE, ErrorCode::UnknownQuery, "query id not known");
            return Flow::Continue;
        };
        self.routes.remove(&global);
        if let Some(n) = self.tenant_subs.get_mut(&tenant) {
            *n = n.saturating_sub(1);
        }
        if let Err(e) = self.fleet.unsubscribe(global) {
            self.error(session, TAG_UNSUBSCRIBE, ErrorCode::Internal, &e.to_string());
            return Flow::Continue;
        }
        self.reply(session, &Reply::Ok { re: TAG_UNSUBSCRIBE });
        Flow::Continue
    }

    fn on_attach(&mut self, session: u64, stream_id: u32) -> Flow {
        if self.shutting_down {
            self.error(session, TAG_ATTACH, ErrorCode::ShuttingDown, "daemon is draining");
            return Flow::Continue;
        }
        let Some(s) = self.sessions.get(&session) else { return Flow::Continue };
        if s.streams.contains_key(&stream_id) {
            self.error(session, TAG_ATTACH, ErrorCode::DuplicateStream, "stream id in use");
            return Flow::Continue;
        }
        if s.streams.len() >= self.cfg.max_streams_per_session {
            self.error(
                session,
                TAG_ATTACH,
                ErrorCode::QuotaExceeded,
                "session stream quota exhausted",
            );
            return Flow::Continue;
        }
        let global = self.next_global_stream;
        self.next_global_stream += 1;
        if let Err(e) = self.fleet.add_stream(global) {
            self.error(session, TAG_ATTACH, ErrorCode::Internal, &e.to_string());
            return Flow::Continue;
        }
        let ingest = ChunkedIngest::new(
            self.extractor.clone(),
            self.cfg.recover,
            self.cfg.max_stream_buffer,
        );
        if let Some(s) = self.sessions.get_mut(&session) {
            s.streams.insert(stream_id, StreamState { global, ingest });
        }
        self.reply(session, &Reply::Attached { stream_id, global_id: global });
        Flow::Continue
    }

    /// Remove a failed stream everywhere and tell the session why; the
    /// session itself survives.
    fn fail_stream(&mut self, session: u64, stream_id: u32, re: u8, err: &IngestError) {
        let code = match err {
            IngestError::BadBitstream(_) => ErrorCode::BadBitstream,
            IngestError::BufferOverflow { .. } => ErrorCode::Oversized,
        };
        if let Some(s) = self.sessions.get_mut(&session) {
            if let Some(st) = s.streams.remove(&stream_id) {
                self.retire_health(st.ingest.health());
                if let Ok(Some(stats)) = self.fleet.remove_stream(st.global) {
                    self.retired_stats.merge(&stats);
                }
            }
        }
        self.error(session, re, code, &err.to_string());
    }

    fn on_stream_data(&mut self, session: u64, stream_id: u32, bytes: &[u8]) -> Flow {
        let Some(s) = self.sessions.get_mut(&session) else { return Flow::Continue };
        let Some(st) = s.streams.get_mut(&stream_id) else {
            // Asynchronous error: stream-data frames have no reply slot.
            self.error(session, TAG_STREAM_DATA, ErrorCode::UnknownStream, "stream not attached");
            return Flow::Continue;
        };
        let global = st.global;
        let mut fps = std::mem::take(&mut self.fp_scratch);
        fps.clear();
        let pushed = st.ingest.push_chunk(bytes, &mut fps);
        match pushed {
            Err(e) => {
                self.fp_scratch = fps;
                self.fail_stream(session, stream_id, TAG_STREAM_DATA, &e);
            }
            Ok(()) => {
                self.ingest_fingerprints(session, stream_id, global, &fps);
                self.fp_scratch = fps;
            }
        }
        Flow::Continue
    }

    /// Push fingerprints into the fleet and route resulting detections.
    fn ingest_fingerprints(
        &mut self,
        session: u64,
        stream_id: u32,
        global: StreamId,
        fps: &[(u64, u64)],
    ) {
        if fps.is_empty() {
            return;
        }
        self.batch_scratch.clear();
        self.batch_scratch.extend(fps.iter().map(|&(frame, cell)| (global, frame, cell)));
        match self.fleet.push_batch(&self.batch_scratch) {
            Ok(detections) => self.route_detections(&detections),
            Err(e) => {
                // ShardDied after a failed restart: the stream's shard is
                // gone. Detach this stream and surface the fault.
                if let Some(s) = self.sessions.get_mut(&session) {
                    if let Some(st) = s.streams.remove(&stream_id) {
                        self.retire_health(st.ingest.health());
                        if let Ok(Some(stats)) = self.fleet.remove_stream(st.global) {
                            self.retired_stats.merge(&stats);
                        }
                    }
                }
                self.error(session, TAG_STREAM_DATA, ErrorCode::Internal, &e.to_string());
            }
        }
    }

    fn route_detections(&mut self, detections: &[StreamDetection]) {
        for sd in detections {
            let Some(&(session, client_qid)) = self.routes.get(&sd.detection.query_id) else {
                continue; // query unsubscribed while the window was open
            };
            let Some(s) = self.sessions.get(&session) else { continue };
            s.queue.push_droppable(encode_reply(&Reply::Detection {
                query_id: client_qid,
                stream_id: sd.stream_id,
                start_frame: sd.detection.start_frame,
                end_frame: sd.detection.end_frame,
                windows: sd.detection.windows as u64,
                similarity: sd.detection.similarity,
            }));
            self.detections_pushed += 1;
        }
    }

    fn on_stream_end(&mut self, session: u64, stream_id: u32) -> Flow {
        let Some(s) = self.sessions.get_mut(&session) else { return Flow::Continue };
        let Some(st) = s.streams.get_mut(&stream_id) else {
            self.error(session, TAG_STREAM_END, ErrorCode::UnknownStream, "stream not attached");
            return Flow::Continue;
        };
        let global = st.global;
        let mut fps = std::mem::take(&mut self.fp_scratch);
        fps.clear();
        let finished = st.ingest.finish(&mut fps);
        match finished {
            Err(e) => {
                self.fp_scratch = fps;
                self.fail_stream(session, stream_id, TAG_STREAM_END, &e);
                return Flow::Continue;
            }
            Ok(()) => {
                self.ingest_fingerprints(session, stream_id, global, &fps);
                self.fp_scratch = fps;
            }
        }
        // The ingest tail may itself have detached the stream on a shard
        // fault; only acknowledge if it is still ours.
        let Some(st) = self.sessions.get_mut(&session).and_then(|s| s.streams.remove(&stream_id))
        else {
            return Flow::Continue;
        };
        let health = st.ingest.health();
        let keyframes = st.ingest.keyframes();
        self.retire_health(health);
        match self.fleet.detach_stream(global) {
            Ok(flushed) => {
                if let Some((detections, stats)) = flushed {
                    self.retired_stats.merge(&stats);
                    self.route_detections(&detections);
                }
                self.reply(
                    session,
                    &Reply::StreamEndAck {
                        stream_id,
                        keyframes,
                        frames_dropped: health.frames_dropped,
                        bytes_skipped: health.bytes_skipped,
                        resyncs: health.resyncs,
                    },
                );
            }
            Err(e) => {
                self.error(session, TAG_STREAM_END, ErrorCode::Internal, &e.to_string());
            }
        }
        Flow::Continue
    }

    fn on_detach(&mut self, session: u64, stream_id: u32) -> Flow {
        let Some(s) = self.sessions.get_mut(&session) else { return Flow::Continue };
        let Some(st) = s.streams.remove(&stream_id) else {
            self.error(session, TAG_DETACH, ErrorCode::UnknownStream, "stream not attached");
            return Flow::Continue;
        };
        self.retire_health(st.ingest.health());
        if let Ok(Some(stats)) = self.fleet.remove_stream(st.global) {
            self.retired_stats.merge(&stats);
        }
        self.reply(session, &Reply::Ok { re: TAG_DETACH });
        Flow::Continue
    }

    fn retire_health(&mut self, health: IngestHealth) {
        if !health.is_clean() {
            self.retired_degraded += 1;
        }
        self.retired_health.merge(&health);
    }

    fn total_stats(&self) -> Stats {
        let mut stats = self.fleet.total_stats();
        stats.merge(&self.retired_stats);
        stats
    }

    fn on_health(&mut self, session: u64) -> Flow {
        let tenant = self.sessions.get(&session).and_then(|s| s.tenant).unwrap_or(0);
        let stats = self.total_stats();
        let mut ingest = self.retired_health;
        let mut degraded = self.retired_degraded;
        let mut streams = 0u64;
        let mut queries = 0u64;
        let mut queue_depth = 0u64;
        let mut queue_dropped = 0u64;
        for s in self.sessions.values() {
            streams += s.streams.len() as u64;
            queries += s.queries.len() as u64;
            for st in s.streams.values() {
                let h = st.ingest.health();
                if !h.is_clean() {
                    degraded += 1;
                }
                ingest.merge(&h);
            }
            if s.tenant == Some(tenant) {
                queue_depth += s.queue.depth() as u64;
                queue_dropped += s.queue.dropped_total();
            }
        }
        let report = HealthReport {
            sessions: self.sessions.len() as u64,
            streams,
            queries,
            shard_restarts: stats.shard_restarts,
            frames_lost: stats.frames_lost,
            frames_dropped: ingest.frames_dropped,
            bytes_skipped: ingest.bytes_skipped,
            resyncs: ingest.resyncs,
            degraded_streams: degraded,
            queue_depth,
            queue_dropped,
            detections: stats.detections,
            windows: stats.windows,
        };
        self.reply(session, &Reply::Health(report));
        Flow::Continue
    }

    /// Release everything a departed session owned. Safe to call twice.
    fn teardown_session(&mut self, session: u64) {
        let Some(s) = self.sessions.remove(&session) else { return };
        let tenant = s.tenant.unwrap_or(0);
        for (_, st) in s.streams {
            self.retire_health(st.ingest.health());
            if let Ok(Some(stats)) = self.fleet.remove_stream(st.global) {
                self.retired_stats.merge(&stats);
            }
        }
        for (_, global) in s.queries {
            self.routes.remove(&global);
            if let Some(n) = self.tenant_subs.get_mut(&tenant) {
                *n = n.saturating_sub(1);
            }
            // vdsms-lint: allow(no-swallowed-error) reason="session teardown is best-effort: the only failure is ShardDied, and the dead shard has already dropped the subscription with its state"
            let _ = self.fleet.unsubscribe(global);
        }
        s.queue.finish();
    }

    /// Graceful drain: stop admission, flush every attached stream
    /// through its partial window, shut the fleet down within the
    /// deadline, and tell every session it is over.
    fn drain(&mut self) {
        self.shutting_down = true;
        self.stop.store(true, Ordering::SeqCst);
        let session_ids: Vec<u64> = self.sessions.keys().copied().collect();
        for session in session_ids {
            let stream_ids: Vec<u32> = self
                .sessions
                .get(&session)
                .map(|s| s.streams.keys().copied().collect())
                .unwrap_or_default();
            for stream_id in stream_ids {
                // Same path as an explicit StreamEnd: flush buffered
                // bytes and the partial window, route what fires, ack.
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    self.on_stream_end(session, stream_id);
                }))
                .map_err(|_| self.engine_panics += 1);
            }
        }
        // 1 ms per join poll: the deadline bounds each worker's join.
        let polls = u32::try_from(self.cfg.drain_deadline_ms).unwrap_or(u32::MAX).max(1);
        self.fleet.set_drain_join_polls(polls);
        match self.fleet.drain() {
            Ok(()) => {}
            Err(FleetError::DrainTimedOut { .. }) => self.drain_timed_out = true,
            Err(_) => self.drain_timed_out = true,
        }
        for s in self.sessions.values() {
            s.queue.push_control(encode_reply(&Reply::Drained));
            s.queue.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_reply, TAG_CREDIT};
    use crate::queue::Outbound;
    use vdsms_codec::{Encoder, EncoderConfig};
    use vdsms_core::DetectorConfig;
    use vdsms_features::{FeatureConfig, FingerprintStream};
    use vdsms_video::source::{ClipGenerator, SourceSpec};
    use vdsms_video::Fps;

    fn stream_bytes(seed: u64, seconds: f64) -> Vec<u8> {
        let spec = SourceSpec {
            width: 48,
            height: 32,
            fps: Fps::integer(10),
            seed,
            min_scene_s: 1.0,
            max_scene_s: 2.0,
            motifs: None,
        };
        let clip = ClipGenerator::new(spec).clip(seconds);
        Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 80, motion_search: true })
    }

    fn fingerprints(bytes: &[u8]) -> Vec<(u64, u64)> {
        let ex = FeatureExtractor::new(FeatureConfig::default());
        let mut fs = FingerprintStream::new(bytes, ex).unwrap();
        let mut got = Vec::new();
        while let Some(p) = fs.next_fingerprint().unwrap() {
            got.push(p);
        }
        got
    }

    fn engine(cfg: ServeConfig) -> Engine {
        Engine::new(cfg, Arc::new(AtomicBool::new(false)))
    }

    fn open(engine: &mut Engine, session: u64, queue: &Arc<SessionQueue>) {
        assert!(matches!(
            engine.execute(session, Command::Open(Arc::clone(queue))),
            Flow::Continue
        ));
    }

    /// Apply one request as a session reader does; whether it stopped the
    /// engine.
    fn send(engine: &mut Engine, session: u64, req: Request) -> bool {
        matches!(engine.execute(session, Command::Request(Inbound::Request(req))), Flow::Stop)
    }

    fn pop_reply(q: &SessionQueue) -> Reply {
        match q.pop() {
            Outbound::Data(bytes) => parse_reply(&bytes[crate::protocol::LEN_PREFIX..]).unwrap(),
            Outbound::Lagged(missed) => Reply::Lagged { missed },
            Outbound::Finished => panic!("queue finished while expecting a reply"),
        }
    }

    #[test]
    fn a_session_subscribes_streams_and_detects_its_own_query() {
        let cfg = ServeConfig {
            detector: DetectorConfig { window_keyframes: 4, ..Default::default() },
            ..Default::default()
        };
        let mut engine = engine(cfg);
        let q = Arc::new(SessionQueue::new(64, 1_000));
        open(&mut engine, 1, &q);
        send(&mut engine, 1, Request::Hello { version: PROTOCOL_VERSION, tenant: 7 });
        assert_eq!(pop_reply(&q), Reply::HelloOk { version: PROTOCOL_VERSION, session: 1 });

        // Subscribe a query made from a span of the stream's own cells:
        // ingesting the stream must fire it.
        let bytes = stream_bytes(9, 8.0);
        let fps = fingerprints(&bytes);
        assert!(fps.len() >= 12, "need enough key frames: got {}", fps.len());
        let cells: Vec<u64> = fps[4..12].iter().map(|&(_, c)| c).collect();
        send(&mut engine, 1, Request::Subscribe { query_id: 3, cells });
        assert_eq!(pop_reply(&q), Reply::Ok { re: TAG_SUBSCRIBE });

        send(&mut engine, 1, Request::AttachStream { stream_id: 5 });
        let Reply::Attached { stream_id: 5, global_id } = pop_reply(&q) else {
            panic!("expected Attached")
        };

        // Chunks go in borrowed, as a session reader hands them over.
        for chunk in bytes.chunks(777) {
            let data = Inbound::StreamData { stream_id: 5, bytes: chunk };
            assert!(matches!(engine.execute(1, Command::Request(data)), Flow::Continue));
        }
        send(&mut engine, 1, Request::StreamEnd { stream_id: 5 });

        // Collect until the StreamEndAck; detections arrive interleaved.
        let mut detections = Vec::new();
        let ack = loop {
            match pop_reply(&q) {
                Reply::Detection { query_id, stream_id, .. } => {
                    detections.push((query_id, stream_id));
                }
                Reply::StreamEndAck { stream_id, keyframes, frames_dropped, .. } => {
                    break (stream_id, keyframes, frames_dropped);
                }
                other => panic!("unexpected reply: {other:?}"),
            }
        };
        assert_eq!(ack.0, 5);
        assert_eq!(ack.1, fps.len() as u64, "every key frame ingested");
        assert_eq!(ack.2, 0, "clean stream");
        assert!(!detections.is_empty(), "own-subsequence query must fire");
        assert!(detections.iter().all(|&(qid, sid)| qid == 3 && sid == global_id));

        assert!(send(&mut engine, 1, Request::Shutdown), "shutdown stops the engine");
        assert_eq!(pop_reply(&q), Reply::Ok { re: TAG_SHUTDOWN });
        let report = engine.finish();
        assert_eq!(pop_reply(&q), Reply::Drained);
        assert_eq!(q.pop(), Outbound::Finished);
        assert!(!report.drain_timed_out);
        assert_eq!(report.sessions_served, 1);
        assert_eq!(report.engine_panics, 0);
        assert_eq!(report.detections_pushed, detections.len() as u64);
        assert!(report.stats.windows > 0, "retired stats survive into the report");
    }

    #[test]
    fn admission_quotas_and_typed_errors() {
        let cfg = ServeConfig {
            max_subscriptions_per_tenant: 1,
            max_streams_per_session: 1,
            ..Default::default()
        };
        let mut engine = engine(cfg);
        let q = Arc::new(SessionQueue::new(64, 64));
        open(&mut engine, 1, &q);
        let mut send = |req: Request| send(&mut engine, 1, req);
        send(Request::Hello { version: PROTOCOL_VERSION, tenant: 1 });
        assert!(matches!(pop_reply(&q), Reply::HelloOk { .. }));

        send(Request::Subscribe { query_id: 1, cells: vec![10, 20, 30] });
        assert_eq!(pop_reply(&q), Reply::Ok { re: TAG_SUBSCRIBE });
        send(Request::Subscribe { query_id: 2, cells: vec![11, 21, 31] });
        assert!(matches!(
            pop_reply(&q),
            Reply::Error { re: TAG_SUBSCRIBE, code: ErrorCode::QuotaExceeded, .. }
        ));
        send(Request::Subscribe { query_id: 1, cells: vec![12, 22] });
        assert!(matches!(
            pop_reply(&q),
            Reply::Error { re: TAG_SUBSCRIBE, code: ErrorCode::DuplicateQuery, .. }
        ));
        send(Request::Unsubscribe { query_id: 9 });
        assert!(matches!(
            pop_reply(&q),
            Reply::Error { re: TAG_UNSUBSCRIBE, code: ErrorCode::UnknownQuery, .. }
        ));

        send(Request::AttachStream { stream_id: 1 });
        assert!(matches!(pop_reply(&q), Reply::Attached { .. }));
        send(Request::AttachStream { stream_id: 2 });
        assert!(matches!(
            pop_reply(&q),
            Reply::Error { re: TAG_ATTACH, code: ErrorCode::QuotaExceeded, .. }
        ));
        send(Request::StreamData { stream_id: 42, bytes: vec![1, 2, 3] });
        assert!(matches!(
            pop_reply(&q),
            Reply::Error { re: TAG_STREAM_DATA, code: ErrorCode::UnknownStream, .. }
        ));

        // Credit never reaches the queue as a frame.
        send(Request::Credit { n: 5 });
        send(Request::Health);
        assert!(matches!(pop_reply(&q), Reply::Health(_)));
        let _ = TAG_CREDIT; // tag exists for the wire, not the engine

        send(Request::Shutdown);
        assert_eq!(pop_reply(&q), Reply::Ok { re: TAG_SHUTDOWN });
        let report = engine.finish();
        assert_eq!(report.engine_panics, 0);
    }

    #[test]
    fn bad_bitstream_detaches_one_stream_but_spares_the_session() {
        let mut engine = engine(ServeConfig { recover: false, ..Default::default() });
        let q = Arc::new(SessionQueue::new(64, 64));
        open(&mut engine, 1, &q);
        let mut send = |req: Request| send(&mut engine, 1, req);
        send(Request::Hello { version: PROTOCOL_VERSION, tenant: 1 });
        assert!(matches!(pop_reply(&q), Reply::HelloOk { .. }));
        send(Request::AttachStream { stream_id: 1 });
        assert!(matches!(pop_reply(&q), Reply::Attached { .. }));
        send(Request::StreamData { stream_id: 1, bytes: vec![0xAA; 256] });
        assert!(matches!(
            pop_reply(&q),
            Reply::Error { re: TAG_STREAM_DATA, code: ErrorCode::BadBitstream, .. }
        ));
        // The stream is gone; the session still answers.
        send(Request::StreamData { stream_id: 1, bytes: vec![0xAA; 8] });
        assert!(matches!(
            pop_reply(&q),
            Reply::Error { re: TAG_STREAM_DATA, code: ErrorCode::UnknownStream, .. }
        ));
        send(Request::Health);
        let Reply::Health(report) = pop_reply(&q) else { panic!("expected health") };
        assert_eq!(report.sessions, 1);
        assert_eq!(report.streams, 0);
        send(Request::Shutdown);
        assert_eq!(pop_reply(&q), Reply::Ok { re: TAG_SHUTDOWN });
        engine.finish();
    }

    #[test]
    fn hello_gate_version_check_and_session_teardown_release_quota() {
        let mut engine = engine(ServeConfig::default());
        // No hello → fatal HelloRequired, queue finishes.
        let q1 = Arc::new(SessionQueue::new(8, 8));
        open(&mut engine, 1, &q1);
        send(&mut engine, 1, Request::Health);
        assert!(matches!(pop_reply(&q1), Reply::Error { code: ErrorCode::HelloRequired, .. }));
        assert_eq!(q1.pop(), Outbound::Finished);

        // Wrong version → fatal BadVersion.
        let q2 = Arc::new(SessionQueue::new(8, 8));
        open(&mut engine, 2, &q2);
        send(&mut engine, 2, Request::Hello { version: 999, tenant: 0 });
        assert!(matches!(pop_reply(&q2), Reply::Error { code: ErrorCode::BadVersion, .. }));
        assert_eq!(q2.pop(), Outbound::Finished);

        // A closed session releases its tenant quota for the next one.
        let cfg_check = |engine: &mut Engine, tenant: u64, session: u64| {
            let q = Arc::new(SessionQueue::new(8, 8));
            open(engine, session, &q);
            send(engine, session, Request::Hello { version: PROTOCOL_VERSION, tenant });
            assert!(matches!(pop_reply(&q), Reply::HelloOk { .. }));
            send(engine, session, Request::Subscribe { query_id: 1, cells: vec![5, 6] });
            assert_eq!(pop_reply(&q), Reply::Ok { re: TAG_SUBSCRIBE });
            q
        };
        let q3 = cfg_check(&mut engine, 42, 3);
        engine.execute(3, Command::Closed);
        assert_eq!(q3.pop(), Outbound::Finished);
        let q4 = cfg_check(&mut engine, 42, 4);

        send(&mut engine, 4, Request::Shutdown);
        assert_eq!(pop_reply(&q4), Reply::Ok { re: TAG_SHUTDOWN });
        let report = engine.finish();
        assert_eq!(report.sessions_served, 4);
        assert_eq!(report.engine_panics, 0);
    }

    #[test]
    fn borrowed_stream_data_passes_the_gates_every_request_does() {
        let mut engine = engine(ServeConfig::default());
        let data = || Command::Request(Inbound::StreamData { stream_id: 1, bytes: &[1, 2, 3] });

        // Before hello: fatal HelloRequired, queue finishes.
        let q = Arc::new(SessionQueue::new(8, 8));
        open(&mut engine, 1, &q);
        assert!(matches!(engine.execute(1, data()), Flow::Continue));
        assert!(matches!(pop_reply(&q), Reply::Error { code: ErrorCode::HelloRequired, .. }));
        assert_eq!(q.pop(), Outbound::Finished);

        // After teardown: dropped without a reply, as any request is.
        assert!(matches!(engine.execute(1, data()), Flow::Continue));
        assert!(!send(&mut engine, 1, Request::Shutdown), "a torn-down session cannot stop it");
        assert_eq!(q.pop(), Outbound::Finished);

        // After hello, on a stream never attached: UnknownStream.
        let q = Arc::new(SessionQueue::new(8, 8));
        open(&mut engine, 2, &q);
        send(&mut engine, 2, Request::Hello { version: PROTOCOL_VERSION, tenant: 0 });
        assert!(matches!(pop_reply(&q), Reply::HelloOk { .. }));
        engine.execute(2, data());
        assert!(matches!(
            pop_reply(&q),
            Reply::Error { re: TAG_STREAM_DATA, code: ErrorCode::UnknownStream, .. }
        ));
        assert_eq!(engine.finish().engine_panics, 0);
    }
}
