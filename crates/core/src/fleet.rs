//! Multi-stream monitoring: one query catalogue, many concurrent streams.
//!
//! The paper's setting is explicitly multi-stream ("there are many
//! concurrent video streams and for each stream, there could be many
//! continuous video copy monitoring queries"). A [`Fleet`] runs one
//! detector's worth of state per stream against one catalogue of
//! subscriptions, and aggregates statistics and detections per stream.
//!
//! Candidate state is inherently per-stream, and per-stream state is all a
//! stream holds. The query catalogue and its HQ index have **one owner
//! per executor**, which lends them to the stream whose key frame is
//! being processed, for the length of that call — so catalogue memory is
//! O(1) in the number of streams, and a subscription change is one write
//! to the owner's copy, not an installation on every stream.
//!
//! ## One stream table, two executors
//!
//! The per-stream operations (add, remove/detach, process-batch,
//! finish-all) have one implementation, the private `StreamTable`.
//! [`DetectorConfig::shards`] picks who runs it, and with that who owns
//! the catalogue:
//!
//! - `shards <= 1` — **inline**: the fleet owns one table and calls it on
//!   the caller's thread, lending it the fleet's own catalogue. No
//!   thread, channel, lock, journal or batch partitioning exists on this
//!   path; it is what every product default (CLI, daemon, benchmark
//!   workloads) runs.
//! - `shards > 1` — **workers**: streams are hash-sharded onto `shards`
//!   supervised worker threads, one table each, so every stream's key
//!   frames are processed by exactly one thread, in order — detection
//!   per stream is bit-identical to the inline executor. Every worker
//!   holds a clone of the fleet's catalogue `Arc`s and lends that to its
//!   table. A subscription change sends fresh clones down every shard's
//!   FIFO command channel and waits for all acknowledgments — a
//!   **quiesce barrier**: every key frame pushed before `subscribe`
//!   returns is evaluated against the old catalogue, every one pushed
//!   after against the new one, on every shard.
//!
//! Two ingestion modes, at either shard count:
//! - [`Fleet::push_batch`] — synchronous: returns the batch's detections
//!   (worker shards run concurrently within the call).
//! - [`Fleet::push_batch_async`] — pipelined: returns once the work is
//!   queued; detections accumulate in a sink drained by
//!   [`Fleet::take_detections`] after a [`Fleet::quiesce`] (or any other
//!   barrier-forming call). Inline, the work simply runs in the call.
//!
//! ## What a subscription change costs
//!
//! [`Fleet::subscribe`] / [`Fleet::unsubscribe`] write the fleet's
//! catalogue through [`Arc::make_mut`] — the same line at both executors;
//! the reference count decides what it does. Inline the count is 1 (no
//! stream, table or snapshot holds a second reference), so the write is
//! the index's own `O(K)` update — the query's values copied into its
//! slab, after which the query itself is dropped — plus one id pushed
//! onto the list, in place: tens of microseconds at `m = 1024`, no
//! allocation once the vectors have grown. With workers the count is
//! `shards + 1`, so the write first copies both halves (≈ 15 MB at
//! `m = 1024`, nearly all of it the index, a few milliseconds), the shards swap their clones for the new ones at the
//! barrier, and the old copy is freed by the last shard to let go.
//! Holding the only reference is an optimisation, never a requirement: a
//! clone held anywhere costs one copy, not a panic or a torn read. Because
//! an in-place write has no old snapshot to fall back on, every rejection
//! (duplicate id, `K` mismatch, full index) is decided before the first
//! write, and an unknown id is found out before anything is copied or
//! sent. A change lands between key frames and applies to each stream's
//! open window when that window closes.

use crate::config::DetectorConfig;
use crate::detection::Detection;
use crate::engine::{Catalogue, StreamState};
use crate::error::FleetError;
use crate::query::{Query, QueryId};
use crate::stats::Stats;
use crate::sync::{channel, sync_channel, Receiver, SendError, Sender, SyncSender};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Identifier of one monitored stream.
pub type StreamId = u32;

/// A detection tagged with the stream it occurred on.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamDetection {
    /// Which stream matched.
    pub stream_id: StreamId,
    /// The detection.
    pub detection: Detection,
}

/// One key frame of a batch: `(stream, frame index, cell id)`.
type Frame = (StreamId, u64, u64);

/// What leaving the fleet yields for one stream: the detections of its
/// final flush (empty when removed unflushed) and its final statistics.
type Departure = (Vec<StreamDetection>, Stats);

fn tag(stream_id: StreamId, detections: Vec<Detection>) -> impl Iterator<Item = StreamDetection> {
    detections.into_iter().map(move |detection| StreamDetection { stream_id, detection })
}

/// One shard's streams: the only implementation of the per-stream
/// operations. The inline executor calls it on the caller's thread; each
/// worker owns one behind its command channel. The table holds per-stream
/// state only: every operation that evaluates a window borrows the
/// catalogue from the table's owner for the call. Streams live in a
/// `BTreeMap` so whole-table walks run in stream-id order, keeping
/// detection and stats output deterministic across runs (this crate's
/// `clippy.toml` bans `HashMap` and `HashSet`).
struct StreamTable {
    cfg: DetectorConfig,
    streams: BTreeMap<StreamId, StreamState>,
}

impl StreamTable {
    fn new(cfg: DetectorConfig) -> StreamTable {
        StreamTable { cfg, streams: BTreeMap::new() }
    }

    /// Start a stream (the coordinator has already validated uniqueness).
    fn add(&mut self, stream_id: StreamId) {
        self.streams.insert(stream_id, StreamState::new(self.cfg));
    }

    /// Stop a stream, evaluating its partial window first iff `flush`.
    fn remove(
        &mut self,
        catalogue: &Catalogue,
        stream_id: StreamId,
        flush: bool,
    ) -> Option<Departure> {
        let mut stream = self.streams.remove(&stream_id)?;
        let flushed =
            if flush { tag(stream_id, stream.finish(catalogue)).collect() } else { Vec::new() };
        Some((flushed, *stream.stats()))
    }

    /// Feed key frames in order, appending the detections they trigger.
    // vdsms-lint: entry
    fn process(&mut self, catalogue: &Catalogue, frames: &[Frame], out: &mut Vec<StreamDetection>) {
        for &(stream_id, frame_index, cell_id) in frames {
            // The coordinator validates stream ids before any frame is
            // applied, so an unknown id here is a routing bug; skip the
            // frame rather than kill the thread.
            let Some(stream) = self.streams.get_mut(&stream_id) else {
                debug_assert!(false, "stream {stream_id} not routed to this table");
                continue;
            };
            // Called by path so the lint's name-based call graph sees the
            // per-stream state, not every `push_keyframe` in the workspace.
            let found = StreamState::push_keyframe(stream, catalogue, frame_index, cell_id);
            // vdsms-lint: allow(no-alloc-hot-path) reason="detection events only; extending from an empty iterator does not allocate"
            out.extend(tag(stream_id, found));
        }
    }

    /// Flush every stream's partial window, in ascending stream-id order.
    fn finish_all(&mut self, catalogue: &Catalogue) -> Vec<StreamDetection> {
        let mut out = Vec::new();
        for (&stream_id, stream) in &mut self.streams {
            out.extend(tag(stream_id, stream.finish(catalogue)));
        }
        out
    }
}

/// Commands processed by each worker, in FIFO order.
enum Cmd {
    /// [`StreamTable::add`].
    Add(StreamId),
    /// [`StreamTable::remove`] with the given flush flag.
    Remove(StreamId, bool, SyncSender<Option<Departure>>),
    /// Replace the worker's catalogue, then acknowledge (the quiesce
    /// barrier).
    Install(Catalogue, SyncSender<()>),
    /// [`StreamTable::process`] the shard's slice of a batch and reply
    /// with its detections.
    BatchSync(Vec<Frame>, SyncSender<Vec<StreamDetection>>),
    /// As `BatchSync`, but detections go to the shard's sink.
    BatchAsync(Vec<Frame>),
    /// [`StreamTable::finish_all`].
    FinishAll(SyncSender<Vec<StreamDetection>>),
    /// Acknowledge once everything queued before this command is done.
    Quiesce(SyncSender<()>),
    /// Test hook ([`Fleet::inject_shard_panic`]): panic inside the worker.
    Crash,
    /// Test hook ([`Fleet::inject_shard_stall`]): sleep this many
    /// milliseconds inside the worker.
    Stall(u64),
}

impl Cmd {
    /// Key frames this command carries — what is lost if the worker dies
    /// before acknowledging anything after it.
    fn frames(&self) -> u64 {
        match self {
            Cmd::BatchSync(frames, _) | Cmd::BatchAsync(frames) => frames.len() as u64,
            _ => 0,
        }
    }
}

/// Detections produced by `BatchAsync`, drained by the coordinator.
type Sink = Arc<Mutex<Vec<StreamDetection>>>;
/// Per-stream stats as a worker last published them, readable by the
/// coordinator without a command round-trip.
type Published = Arc<RwLock<BTreeMap<StreamId, Stats>>>;

/// What a worker thread owns.
struct Worker {
    table: StreamTable,
    /// This shard's catalogue: a clone of the coordinator's `Arc` pair,
    /// lent to `table` on every call.
    catalogue: Catalogue,
    sink: Sink,
    stats: Published,
}

impl Worker {
    /// Serve commands until the channel closes. An arm that moves a
    /// stream's counters publishes them before it replies, so stats read
    /// after a synchronous call reflect it.
    fn run(mut self, rx: Receiver<Cmd>) {
        while let Ok(cmd) = rx.recv() {
            let delivered = match cmd {
                Cmd::Add(stream_id) => {
                    self.table.add(stream_id);
                    true
                }
                Cmd::Remove(stream_id, flush, reply) => {
                    let departure = self.table.remove(&self.catalogue, stream_id, flush);
                    self.stats.write().remove(&stream_id);
                    reply.send(departure).is_ok()
                }
                Cmd::Install(catalogue, ack) => {
                    self.catalogue = catalogue;
                    ack.send(()).is_ok()
                }
                Cmd::BatchSync(frames, reply) => reply.send(self.process(&frames)).is_ok(),
                Cmd::BatchAsync(frames) => {
                    let dets = self.process(&frames);
                    if !dets.is_empty() {
                        self.sink.lock().extend(dets);
                    }
                    true
                }
                Cmd::FinishAll(reply) => {
                    let dets = self.table.finish_all(&self.catalogue);
                    self.publish();
                    reply.send(dets).is_ok()
                }
                Cmd::Quiesce(ack) => ack.send(()).is_ok(),
                Cmd::Crash => {
                    // vdsms-lint: allow(no-panic-hot-path) reason="deliberate crash point: Cmd::Crash exists so shard-supervision tests can exercise panic recovery"
                    panic!("injected shard crash");
                }
                Cmd::Stall(millis) => {
                    std::thread::sleep(std::time::Duration::from_millis(millis));
                    true
                }
            };
            if !delivered {
                return; // the coordinator dropped the reply: the fleet is shutting down
            }
        }
    }

    // vdsms-lint: entry
    fn process(&mut self, frames: &[Frame]) -> Vec<StreamDetection> {
        let mut out = Vec::new();
        self.table.process(&self.catalogue, frames, &mut out);
        self.publish();
        out
    }

    fn publish(&self) {
        let mut slot = self.stats.write();
        for (&stream_id, stream) in &self.table.streams {
            // vdsms-lint: allow(no-alloc-hot-path) reason="Stats is Copy; the key set only changes on Add/Remove, so steady-state inserts overwrite in place"
            slot.insert(stream_id, *stream.stats());
        }
    }
}

/// Coordinator-side handle to one worker.
struct Shard {
    tx: Sender<Cmd>,
    sink: Sink,
    stats: Published,
    handle: Option<JoinHandle<()>>,
}

/// Spawn one worker on the given shared handles. A panic in the worker
/// ends its thread and closes the command channel; the coordinator
/// notices on its next command and restarts the shard.
fn spawn_worker(
    cfg: DetectorConfig,
    shard: usize,
    catalogue: &Catalogue,
    sink: &Sink,
    stats: &Published,
) -> std::io::Result<(Sender<Cmd>, JoinHandle<()>)> {
    let worker = Worker {
        table: StreamTable::new(cfg),
        catalogue: catalogue.clone(),
        sink: Arc::clone(sink),
        stats: Arc::clone(stats),
    };
    let (tx, rx) = channel();
    let handle = std::thread::Builder::new()
        .name(format!("vdsms-fleet-shard-{shard}"))
        .spawn(move || worker.run(rx))?;
    Ok((tx, handle))
}

/// SplitMix64 finalizer used for stream→shard assignment. Mixing avoids
/// pathological placements when stream ids are sequential multiples of
/// the shard count.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The coordinator's record of one monitored stream.
#[derive(Default)]
struct Route {
    /// Owning shard (always 0 on the inline executor).
    shard: usize,
    /// Workers only: the current partial window's frames, replayed into a
    /// restarted shard to re-arm its window state. Length stays
    /// `< cfg.window_keyframes`: it is cleared whenever a window
    /// completes, so completed windows are never re-processed.
    journal: Vec<(u64, u64)>,
    /// Workers only: last published stats of dead workers, merged into
    /// [`Fleet::stats`] / [`Fleet::total_stats`] so counters stay
    /// monotone across a restart.
    carried: Stats,
}

/// A fleet of per-stream detectors sharing one query catalogue; see the
/// module docs for the two executors and the concurrency protocol.
///
/// ## Supervision (worker executor)
///
/// If a worker panics, the next fleet call touching its shard observes
/// the closed channel and restarts the shard instead of returning
/// [`FleetError::ShardDied`]: a fresh worker is spawned on the current
/// catalogue snapshot, the shard's streams are re-added, and each
/// stream's **current partial window** is replayed from a
/// coordinator-side journal (bounded by `window_keyframes` frames per
/// stream, so a replay can never complete a window and never duplicates
/// a detection). What cannot be recovered — cross-window candidate state
/// and frames in flight at the moment of the crash — is surfaced through
/// [`Stats::shard_restarts`] and [`Stats::frames_lost`] (an upper
/// bound). [`FleetError::ShardDied`] is reserved for the unrecoverable
/// cases: the restart itself failed, or the fleet was already
/// [`Fleet::drain`]ed.
pub struct Fleet {
    cfg: DetectorConfig,
    /// The catalogue, and the only place it is written. Inline this is
    /// its one holder and the table borrows it; with workers every shard
    /// holds a clone, and a restarted shard starts on this one.
    catalogue: Catalogue,
    /// Every monitored stream, at either executor.
    streams: BTreeMap<StreamId, Route>,
    /// The inline executor: `Some` iff `cfg.shards <= 1`.
    inline: Option<StreamTable>,
    /// Inline detections of [`Fleet::push_batch_async`].
    inline_sink: Vec<StreamDetection>,
    /// The worker executor: empty iff inline.
    shards: Vec<Shard>,
    /// Scratch: per-shard slices of the batch being partitioned.
    partition: Vec<Vec<Frame>>,
    /// Frames dispatched to each shard since its last synchronous
    /// acknowledgment — the upper bound on loss if it crashes now.
    in_flight: Vec<u64>,
    /// Restart accounting ([`Stats::shard_restarts`] /
    /// [`Stats::frames_lost`]), merged into [`Fleet::total_stats`].
    supervisor: Stats,
    /// Test hook ([`Fleet::dangerously_skip_install_acks`]).
    skip_install_acks: bool,
    /// Acknowledgment receivers parked by a skipped barrier. Held (not
    /// dropped) so the workers' `ack.send(())` still succeeds — the hook
    /// must remove only the *wait*, not kill the workers.
    parked_acks: Vec<Receiver<()>>,
    /// See [`Fleet::set_drain_join_polls`].
    drain_join_polls: u32,
    /// Set by [`Fleet::drain`] on a worker fleet: no worker is ever
    /// spawned again.
    drained: bool,
}

impl Fleet {
    /// Create an empty fleet; `cfg.shards` selects the executor.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: DetectorConfig) -> Fleet {
        cfg.validate();
        let catalogue = Catalogue::empty(&cfg);
        let workers = if cfg.shards > 1 { cfg.shards } else { 0 };
        let shards: Vec<Shard> = (0..workers)
            .map(|i| {
                let (sink, stats) = (Sink::default(), Published::default());
                let (tx, handle) = spawn_worker(cfg, i, &catalogue, &sink, &stats)
                    // vdsms-lint: allow(no-panic-hot-path) reason="construction-time spawn failure is unrecoverable resource exhaustion, not a streaming-path fault"
                    .expect("spawn fleet shard worker");
                Shard { tx, sink, stats, handle: Some(handle) }
            })
            .collect();
        Fleet {
            inline: shards.is_empty().then(|| StreamTable::new(cfg)),
            cfg,
            catalogue,
            streams: BTreeMap::new(),
            inline_sink: Vec::new(),
            shards,
            partition: vec![Vec::new(); workers],
            in_flight: vec![0; workers],
            supervisor: Stats::default(),
            skip_install_acks: false,
            parked_acks: Vec::new(),
            drain_join_polls: DEFAULT_DRAIN_JOIN_POLLS,
            drained: false,
        }
    }

    /// The configuration every stream's detector uses.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Number of stream tables: the worker count, or 1 inline.
    pub fn shard_count(&self) -> usize {
        self.shards.len().max(1)
    }

    /// Number of monitored streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Number of subscribed queries.
    pub fn query_count(&self) -> usize {
        self.catalogue.queries().len()
    }

    fn shard_of(&self, stream_id: StreamId) -> usize {
        (mix64(u64::from(stream_id)) % self.shard_count() as u64) as usize
    }

    /// Send a command, restarting the shard once if its worker has died.
    /// [`SendError`] returns the unsent command, so the re-dispatch after
    /// the restart is lossless; every command is safe to re-send because
    /// the restart's journal replay re-arms only the current partial
    /// window, which never includes frames from a not-yet-journaled batch
    /// (batches are journaled *after* dispatch).
    fn send_supervised(&mut self, shard: usize, cmd: Cmd) -> Result<(), FleetError> {
        if self.drained {
            return Err(FleetError::ShardDied { shard });
        }
        let frames = cmd.frames();
        if let Err(SendError(cmd)) = self.shards[shard].tx.send(cmd) {
            self.restart_shard(shard)?;
            self.shards[shard].tx.send(cmd).map_err(|_| FleetError::ShardDied { shard })?;
        }
        self.in_flight[shard] += frames;
        Ok(())
    }

    /// Send a reply-bearing command; the reply is collected by
    /// [`Fleet::answer`].
    fn ask<T>(
        &mut self,
        shard: usize,
        make: impl FnOnce(SyncSender<T>) -> Cmd,
    ) -> Result<Receiver<T>, FleetError> {
        let (reply, rx) = sync_channel(1);
        self.send_supervised(shard, make(reply))?;
        Ok(rx)
    }

    /// Collect the reply to an [`Fleet::ask`]. A worker that died before
    /// replying is restarted; its reply is then `None`, unless `retry`
    /// re-asks the fresh worker (whose streams and partial windows were
    /// rebuilt from the journal).
    fn answer<T>(
        &mut self,
        shard: usize,
        rx: Receiver<T>,
        retry: Option<&dyn Fn(SyncSender<T>) -> Cmd>,
    ) -> Result<Option<T>, FleetError> {
        if let Ok(reply) = rx.recv() {
            self.in_flight[shard] = 0;
            return Ok(Some(reply));
        }
        self.restart_shard(shard)?;
        let Some(make) = retry else { return Ok(None) };
        let rx = self.ask(shard, make)?;
        rx.recv().map(Some).map_err(|_| FleetError::ShardDied { shard })
    }

    /// [`Fleet::ask`] every shard, in shard-index order.
    fn ask_all<T>(
        &mut self,
        make: impl Fn(SyncSender<T>) -> Cmd,
    ) -> Result<Vec<Receiver<T>>, FleetError> {
        (0..self.shards.len()).map(|shard| self.ask(shard, &make)).collect()
    }

    /// Join a dead worker, absorb its last published stats, spawn a
    /// fresh one on the same sink/stats handles, re-add its streams and
    /// replay their journaled partial windows. Cold path: runs only
    /// after a worker death, never per frame.
    fn restart_shard(&mut self, shard: usize) -> Result<(), FleetError> {
        if let Some(handle) = self.shards[shard].handle.take() {
            // The worker died of a panic the supervisor is about to
            // account for; its payload carries nothing further.
            let _ = handle.join();
        }
        // Keep the dead worker's last published per-stream counters so
        // `stats`/`total_stats` stay monotone across the restart. (The
        // handful of frames between the last publication and the crash
        // are part of the `frames_lost` bound below.)
        let published = {
            let mut slot = self.shards[shard].stats.write();
            std::mem::take(&mut *slot)
        };
        for (stream_id, stats) in published {
            if let Some(route) = self.streams.get_mut(&stream_id) {
                route.carried.merge(&stats);
            }
        }
        self.supervisor.shard_restarts += 1;
        self.supervisor.frames_lost += self.in_flight[shard];
        self.in_flight[shard] = 0;
        let (tx, handle) = spawn_worker(
            self.cfg,
            shard,
            &self.catalogue,
            &self.shards[shard].sink,
            &self.shards[shard].stats,
        )
        .map_err(|_| FleetError::ShardDied { shard })?;
        self.shards[shard].tx = tx;
        self.shards[shard].handle = Some(handle);
        // Re-add the shard's streams, then replay every journaled
        // current-window prefix in one batch so window phase matches the
        // frames the fleet has accepted so far.
        let tx = &self.shards[shard].tx;
        let mut replay: Vec<Frame> = Vec::new();
        for (&stream_id, route) in self.streams.iter().filter(|(_, r)| r.shard == shard) {
            tx.send(Cmd::Add(stream_id)).map_err(|_| FleetError::ShardDied { shard })?;
            replay.extend(route.journal.iter().map(|&(frame, cell)| (stream_id, frame, cell)));
        }
        if !replay.is_empty() {
            let (reply, rx) = sync_channel(1);
            tx.send(Cmd::BatchSync(replay, reply)).map_err(|_| FleetError::ShardDied { shard })?;
            // Each stream replays strictly fewer frames than one window,
            // so the replay cannot complete a window or emit detections.
            let dets = rx.recv().map_err(|_| FleetError::ShardDied { shard })?;
            debug_assert!(dets.is_empty(), "journal replay must not complete a window");
        }
        Ok(())
    }

    /// Record a dispatched batch in the per-stream journals. Each
    /// journal holds exactly the current partial window's frames: it is
    /// cleared when the accepted-frame count crosses a window boundary,
    /// so a restart replay can re-arm window state but never re-complete
    /// a window.
    fn journal_batch(&mut self, batch: &[Frame]) {
        let w = self.cfg.window_keyframes;
        for &(stream_id, frame_index, cell_id) in batch {
            let Some(route) = self.streams.get_mut(&stream_id) else { continue };
            route.journal.push((frame_index, cell_id));
            if route.journal.len() >= w {
                route.journal.clear();
            }
        }
    }

    /// Start monitoring a new stream; it immediately watches every
    /// subscribed query.
    ///
    /// # Errors
    /// [`FleetError::StreamAlreadyMonitored`] if the id is already in
    /// use; [`FleetError::ShardDied`] if the owning worker is gone and
    /// could not be restarted.
    pub fn add_stream(&mut self, stream_id: StreamId) -> Result<(), FleetError> {
        if self.streams.contains_key(&stream_id) {
            return Err(FleetError::StreamAlreadyMonitored(stream_id));
        }
        let shard = self.shard_of(stream_id);
        match &mut self.inline {
            Some(table) => table.add(stream_id),
            None => self.send_supervised(shard, Cmd::Add(stream_id))?,
        }
        self.streams.insert(stream_id, Route { shard, ..Route::default() });
        Ok(())
    }

    /// Stop monitoring a stream; returns its final statistics, or
    /// `Ok(None)` if the id was not monitored. The stream's partial
    /// window is dropped unflushed — the right call when a feed vanished
    /// without a clean end-of-stream; use [`Fleet::detach_stream`] for an
    /// orderly end-of-life that still evaluates the tail.
    ///
    /// # Errors
    /// As [`Fleet::detach_stream`].
    pub fn remove_stream(&mut self, stream_id: StreamId) -> Result<Option<Stats>, FleetError> {
        Ok(self.depart(stream_id, false)?.map(|(_, stats)| stats))
    }

    /// Stop monitoring a stream after flushing its partial window: the
    /// per-stream equivalent of [`Fleet::finish_all`], for serving
    /// layers where streams end independently. Returns the detections
    /// the flush triggered and the stream's final statistics, or
    /// `Ok(None)` if the id was not monitored. If the owning worker
    /// died, the shard is restarted (journal replay re-arms the partial
    /// window) and the command retried, so the flush still evaluates the
    /// recovered window state and the statistics still reflect every
    /// counter published before the crash.
    ///
    /// # Errors
    /// [`FleetError::ShardDied`] if the owning worker is gone and could
    /// not be restarted.
    pub fn detach_stream(
        &mut self,
        stream_id: StreamId,
    ) -> Result<Option<(Vec<StreamDetection>, Stats)>, FleetError> {
        self.depart(stream_id, true)
    }

    fn depart(&mut self, stream_id: StreamId, flush: bool) -> Result<Option<Departure>, FleetError> {
        let Some(shard) = self.streams.get(&stream_id).map(|route| route.shard) else {
            return Ok(None);
        };
        let departure = match &mut self.inline {
            Some(table) => table.remove(&self.catalogue, stream_id, flush),
            None => {
                let make = move |reply| Cmd::Remove(stream_id, flush, reply);
                let rx = self.ask(shard, make)?;
                self.answer(shard, rx, Some(&make))?.flatten()
            }
        };
        let carried = self.streams.remove(&stream_id).map(|r| r.carried).unwrap_or_default();
        let (flushed, mut stats) = departure.unwrap_or_default();
        stats.merge(&carried);
        Ok(Some((flushed, stats)))
    }

    /// Subscribe a query on every stream (and for all future streams).
    /// With workers, returns after every shard has installed the new
    /// catalogue — the quiesce barrier described in the module docs. A
    /// rejected query leaves the catalogue exactly as it was.
    ///
    /// # Errors
    /// [`FleetError::ShardDied`] if a worker is gone and could not be
    /// restarted.
    ///
    /// # Panics
    /// Panics on duplicate query id, sketch `K` mismatch or a full index.
    pub fn subscribe(&mut self, query: Query) -> Result<(), FleetError> {
        self.refuse_if_drained()?;
        self.catalogue.subscribe(query);
        self.broadcast_catalogue()
    }

    /// Unsubscribe a query everywhere (with the same barrier as
    /// [`Fleet::subscribe`]). Returns `Ok(false)` if it was not
    /// subscribed, having written, copied and sent nothing.
    ///
    /// # Errors
    /// As [`Fleet::subscribe`].
    pub fn unsubscribe(&mut self, id: QueryId) -> Result<bool, FleetError> {
        self.refuse_if_drained()?;
        if !self.catalogue.unsubscribe(id) {
            return Ok(false);
        }
        self.broadcast_catalogue()?;
        Ok(true)
    }

    /// A drained fleet's catalogue is frozen with the rest of it.
    fn refuse_if_drained(&self) -> Result<(), FleetError> {
        if self.drained {
            return Err(FleetError::ShardDied { shard: 0 });
        }
        Ok(())
    }

    /// Hand every worker a clone of `self.catalogue` and wait for all of
    /// them to install it. Inline there is no worker to ask: the table
    /// borrows `self.catalogue` itself on its next call.
    ///
    /// The write that precedes this has already published the catalogue:
    /// a shard restarted during the broadcast is spawned on
    /// `self.catalogue`, which then already holds the new snapshot — its
    /// install is satisfied by construction.
    fn broadcast_catalogue(&mut self) -> Result<(), FleetError> {
        let catalogue = self.catalogue.clone();
        let mut acks = self.ask_all(|ack| Cmd::Install(catalogue.clone(), ack))?;
        if self.skip_install_acks {
            // Deliberately broken barrier (test hook): return before the
            // shards have drained the work queued ahead of the install.
            self.parked_acks.append(&mut acks);
        }
        for (shard, rx) in acks.into_iter().enumerate() {
            self.answer(shard, rx, None)?;
        }
        Ok(())
    }

    /// Feed one key frame of one stream (synchronous).
    ///
    /// # Errors
    /// As [`Fleet::push_batch`].
    pub fn push_keyframe(
        &mut self,
        stream_id: StreamId,
        frame_index: u64,
        cell_id: u64,
    ) -> Result<Vec<StreamDetection>, FleetError> {
        self.push_batch(&[(stream_id, frame_index, cell_id)])
    }

    /// Reject a batch naming an unknown stream before any of its frames
    /// is applied, at either executor.
    fn check_streams(&self, batch: &[Frame]) -> Result<(), FleetError> {
        match batch.iter().find(|(stream_id, ..)| !self.streams.contains_key(stream_id)) {
            Some(&(stream_id, ..)) => Err(FleetError::StreamNotMonitored(stream_id)),
            None => Ok(()),
        }
    }

    /// Feed a batch of key frames spanning any number of streams, in
    /// order, and return all detections it triggered. Ordering within
    /// one stream is preserved; with workers the batch is partitioned by
    /// shard, the shards run concurrently, and detections come back
    /// grouped by shard rather than in feed order.
    ///
    /// # Errors
    /// [`FleetError::StreamNotMonitored`] if any referenced stream id is
    /// unknown: the whole batch is rejected and no detector state
    /// changes. [`FleetError::ShardDied`] if a worker is gone and could
    /// not be restarted. A worker dying *mid-batch* is not an error: the
    /// shard is restarted (journal replay re-arms the current window),
    /// its slice's detections are lost, and the loss is recorded in
    /// [`Stats::frames_lost`].
    pub fn push_batch(
        &mut self,
        batch: &[(StreamId, u64, u64)],
    ) -> Result<Vec<StreamDetection>, FleetError> {
        self.check_streams(batch)?;
        let mut out = Vec::new();
        if let Some(table) = &mut self.inline {
            table.process(&self.catalogue, batch, &mut out);
            return Ok(out);
        }
        let mut replies = Vec::new();
        for shard in self.partition_batch(batch) {
            let frames = std::mem::take(&mut self.partition[shard]);
            replies.push((shard, self.ask(shard, |reply| Cmd::BatchSync(frames, reply))?));
        }
        self.journal_batch(batch);
        for (shard, rx) in replies {
            out.extend(self.answer(shard, rx, None)?.unwrap_or_default());
        }
        Ok(out)
    }

    /// Feed a batch without waiting: with workers the call returns as
    /// soon as every shard has the work queued. Detections accumulate in
    /// a sink; call [`Fleet::quiesce`] then [`Fleet::take_detections`] to
    /// collect them.
    ///
    /// # Errors
    /// As [`Fleet::push_batch`].
    pub fn push_batch_async(&mut self, batch: &[(StreamId, u64, u64)]) -> Result<(), FleetError> {
        self.check_streams(batch)?;
        if let Some(table) = &mut self.inline {
            table.process(&self.catalogue, batch, &mut self.inline_sink);
            return Ok(());
        }
        for shard in self.partition_batch(batch) {
            let frames = std::mem::take(&mut self.partition[shard]);
            self.send_supervised(shard, Cmd::BatchAsync(frames))?;
        }
        self.journal_batch(batch);
        Ok(())
    }

    /// Split a validated batch into the per-shard scratch vectors,
    /// preserving per-stream order; returns the shards that received
    /// work, in first-touched order. Starts by clearing whatever a failed
    /// dispatch left behind.
    fn partition_batch(&mut self, batch: &[Frame]) -> Vec<usize> {
        self.partition.iter_mut().for_each(Vec::clear);
        let mut involved = Vec::new();
        for &frame in batch {
            let Some(route) = self.streams.get(&frame.0) else { continue };
            if self.partition[route.shard].is_empty() {
                involved.push(route.shard);
            }
            self.partition[route.shard].push(frame);
        }
        involved
    }

    /// Block until every shard has processed everything queued so far
    /// (immediate inline). A shard whose worker died is restarted instead
    /// (a fresh worker's queue is empty, so it is quiesced by
    /// construction); the loss is recorded in [`Stats::shard_restarts`] /
    /// [`Stats::frames_lost`].
    ///
    /// # Errors
    /// [`FleetError::ShardDied`] if a worker is gone and could not be
    /// restarted.
    pub fn quiesce(&mut self) -> Result<(), FleetError> {
        for (shard, rx) in self.ask_all(Cmd::Quiesce)?.into_iter().enumerate() {
            self.answer(shard, rx, None)?;
        }
        Ok(())
    }

    /// Drain the detections produced by [`Fleet::push_batch_async`] since
    /// the last drain. Call [`Fleet::quiesce`] first for a complete view
    /// of all queued work.
    pub fn take_detections(&mut self) -> Vec<StreamDetection> {
        let mut out = std::mem::take(&mut self.inline_sink);
        for shard in &self.shards {
            out.append(&mut shard.sink.lock());
        }
        out
    }

    /// Flush every stream's partial window (end of monitoring epoch).
    /// Forms a barrier: all previously queued batches complete first. If
    /// a worker died, its shard is restarted (journal replay re-arms the
    /// partial windows) and the flush re-dispatched, so the caller still
    /// gets end-of-epoch detections from the recovered state.
    ///
    /// # Errors
    /// [`FleetError::ShardDied`] if a worker is gone and could not be
    /// restarted.
    pub fn finish_all(&mut self) -> Result<Vec<StreamDetection>, FleetError> {
        if let Some(table) = &mut self.inline {
            return Ok(table.finish_all(&self.catalogue));
        }
        let mut out = Vec::new();
        for (shard, rx) in self.ask_all(Cmd::FinishAll)?.into_iter().enumerate() {
            out.extend(self.answer(shard, rx, Some(&Cmd::FinishAll))?.unwrap_or_default());
        }
        // Every partial window has been flushed; nothing to replay.
        for route in self.streams.values_mut() {
            route.journal.clear();
        }
        Ok(out)
    }

    /// Per-stream statistics, as of the last completed call (after
    /// [`Fleet::push_batch_async`], [`Fleet::quiesce`] first). Counters
    /// survive shard restarts: the dead worker's last published values
    /// are carried over and merged with the fresh worker's.
    pub fn stats(&self, stream_id: StreamId) -> Option<Stats> {
        let route = self.streams.get(&stream_id)?;
        let live = match &self.inline {
            Some(table) => table.streams.get(&stream_id).map(|stream| *stream.stats()),
            None => self.shards[route.shard].stats.read().get(&stream_id).copied(),
        };
        // A stream whose worker has not reached its `Add` yet has
        // processed nothing.
        let mut stats = live.unwrap_or_default();
        stats.merge(&route.carried);
        Some(stats)
    }

    /// Aggregate statistics across all streams (counter-wise sum; peaks
    /// take the max), plus the supervisor's [`Stats::shard_restarts`] /
    /// [`Stats::frames_lost`].
    pub fn total_stats(&self) -> Stats {
        let mut total = self.supervisor;
        for route in self.streams.values() {
            total.merge(&route.carried);
        }
        for stream in self.inline.iter().flat_map(|table| table.streams.values()) {
            total.merge(stream.stats());
        }
        for shard in &self.shards {
            for stats in shard.stats.read().values() {
                total.merge(stats);
            }
        }
        total
    }

    /// Configure the bounded join wait [`Fleet::drain`] and `Drop` give
    /// each worker before detaching it: `polls` polls of
    /// [`JoinHandle::is_finished`] a millisecond apart (so `polls` is
    /// roughly a per-worker deadline in milliseconds). A serving layer
    /// reuses this as its fleet drain deadline. Clamped to at least 1;
    /// without workers there is nothing to wait for.
    pub fn set_drain_join_polls(&mut self, polls: u32) {
        self.drain_join_polls = polls.max(1);
    }

    /// Gracefully shut the workers down: close every command channel and
    /// join every worker within the configured bounded wait
    /// ([`Fleet::set_drain_join_polls`]). Call [`Fleet::finish_all`]
    /// first if end-of-epoch detections are wanted — after `drain` a
    /// worker fleet is terminal: no worker is ever spawned again and
    /// every command-dispatching call reports [`FleetError::ShardDied`].
    /// An inline fleet has no worker to stop; there `drain` does nothing.
    ///
    /// # Errors
    /// [`FleetError::DrainTimedOut`] if some workers were still running
    /// when their bounded wait expired; they are detached (they exit on
    /// their own once they observe the closed channel) and the caller
    /// knows the shutdown was not clean.
    pub fn drain(&mut self) -> Result<(), FleetError> {
        let (_unrestarted, detached) = self.shutdown_workers();
        if detached > 0 {
            return Err(FleetError::DrainTimedOut { detached });
        }
        Ok(())
    }

    /// Shared teardown for [`Fleet::drain`] and `Drop`. Returns how many
    /// workers had panicked without being restarted and how many
    /// exceeded the bounded wait and were detached. Idempotent: a second
    /// call finds the handles taken.
    fn shutdown_workers(&mut self) -> (usize, usize) {
        self.drained = !self.shards.is_empty();
        // Phase 1: close every command channel, in shard-index order, so
        // each worker's `recv` loop sees disconnection. Ordering the
        // closes (rather than letting a struct-drop glue order decide)
        // makes the shutdown sequence deterministic — the schedule
        // harness replays it under many interleavings and the trace must
        // mean the same thing every run.
        for shard in &mut self.shards {
            shard.tx = channel().0;
        }
        // Phase 2: join, again in shard-index order, with a bounded
        // wait per worker.
        let (mut unrestarted, mut detached) = (0, 0);
        for handle in self.shards.iter_mut().filter_map(|shard| shard.handle.take()) {
            let mut polls = 0;
            while !handle.is_finished() && polls < self.drain_join_polls {
                std::thread::sleep(std::time::Duration::from_millis(1));
                polls += 1;
            }
            if !handle.is_finished() {
                detached += 1;
            } else if handle.join().is_err() {
                unrestarted += 1;
            }
        }
        (unrestarted, detached)
    }

    /// Test hook: make worker `shard` panic on its next command,
    /// exercising the supervision path end to end. The next fleet call
    /// touching the shard observes the death and restarts it. A
    /// best-effort send: the shard already being dead is exactly the
    /// state this hook exists to produce. No-op without workers.
    #[doc(hidden)]
    pub fn inject_shard_panic(&mut self, shard: usize) {
        if let Some(shard) = self.shards.get(shard) {
            shard.tx.send_best_effort(Cmd::Crash);
        }
    }

    /// Test hook: make worker `shard` sleep for `millis` on its next
    /// command, exercising the bounded-join drain path — a short
    /// [`Fleet::set_drain_join_polls`] deadline then makes
    /// [`Fleet::drain`] observably time out. Best-effort, like
    /// [`Fleet::inject_shard_panic`].
    #[doc(hidden)]
    pub fn inject_shard_stall(&mut self, shard: usize, millis: u64) {
        if let Some(shard) = self.shards.get(shard) {
            shard.tx.send_best_effort(Cmd::Stall(millis));
        }
    }

    /// Test hook: disarm (or re-arm) the catalogue broadcast's
    /// acknowledgment wait. With the wait skipped, [`Fleet::subscribe`] /
    /// [`Fleet::unsubscribe`] return while shards may still be processing
    /// work queued before the install — re-introducing, on demand, the
    /// barrier bug the schedule-exploration harness exists to catch: a
    /// [`Fleet::take_detections`] right after the call can miss
    /// detections from frames pushed before it.
    #[doc(hidden)]
    pub fn dangerously_skip_install_acks(&mut self, skip: bool) {
        self.skip_install_acks = skip;
    }
}

/// Default upper bound on the per-worker join wait at [`Fleet::drain`] /
/// `Drop`: polls of [`JoinHandle::is_finished`] a millisecond apart. A
/// worker that has not exited after ~2 s is detached instead of hanging
/// the shutdown (it still terminates on its own once it observes the
/// closed channel; the `Arc`-shared sink and stats handles keep its
/// references valid). Configurable per fleet via
/// [`Fleet::set_drain_join_polls`].
pub const DEFAULT_DRAIN_JOIN_POLLS: u32 = 2000;

impl Drop for Fleet {
    fn drop(&mut self) {
        // Record failures in the log instead of panicking in Drop. After
        // a `drain` (which reported its outcome as a value) every handle
        // is already taken and this finds nothing.
        let (unrestarted, detached) = self.shutdown_workers();
        if (unrestarted > 0 || detached > 0) && !std::thread::panicking() {
            eprintln!(
                "vdsms: fleet shutdown: {unrestarted} worker(s) had panicked and were \
                 never restarted; {detached} worker(s) exceeded the bounded join and \
                 were detached (they exit on their own once they observe the closed \
                 command channel)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, QuerySet};
    use vdsms_sketch::MinHashFamily;

    const K: usize = 64;
    /// Inline, and two worker layouts.
    const SHARDS: [usize; 3] = [1, 2, 4];

    fn cfg(shards: usize) -> DetectorConfig {
        DetectorConfig { k: K, window_keyframes: 4, shards, ..Default::default() }
    }

    fn query(id: QueryId, base: u64) -> Query {
        let family = MinHashFamily::new(K, crate::config::DEFAULT_HASH_SEED);
        let ids: Vec<u64> = (base..base + 24).collect();
        Query::from_cell_ids(id, &family, &ids)
    }

    /// 80 frames of stream `s`, airing `copy_base` content at `copy_at`.
    fn airing(s: StreamId, copy_base: u64, copy_at: std::ops::Range<u64>) -> Vec<Frame> {
        (0..80u64)
            .map(|i| {
                let id = if copy_at.contains(&i) {
                    copy_base + (i - copy_at.start) % 24
                } else {
                    500_000 + u64::from(s) * 1000 + i
                };
                (s, i, id)
            })
            .collect()
    }

    /// Interleaved multi-stream batch: stream `s` airs `query(s, 1000 * s)`
    /// content at frames 30..54.
    fn workload(streams: &[StreamId]) -> Vec<Frame> {
        let per_stream: Vec<Vec<Frame>> =
            streams.iter().map(|&s| airing(s, 1000 * u64::from(s), 30..54)).collect();
        (0..80).flat_map(|i| per_stream.iter().map(move |frames| frames[i])).collect()
    }

    type Key = (StreamId, u32, u64, u64);

    fn sorted_key(dets: Vec<StreamDetection>) -> Vec<Key> {
        let mut keys: Vec<Key> = dets
            .iter()
            .map(|d| {
                (d.stream_id, d.detection.query_id, d.detection.start_frame, d.detection.end_frame)
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// The reference, free of fleet code: one plain [`Detector`] per
    /// stream, fed the batch and then flushed.
    fn oracle(queries: &[Query], streams: &[StreamId], batch: &[Frame]) -> (Vec<Key>, Stats) {
        let mut dets = Vec::new();
        let mut total = Stats::default();
        for &s in streams {
            let mut det = Detector::new(cfg(1), QuerySet::new());
            for q in queries {
                det.subscribe(q.clone());
            }
            for &(_, frame, cell) in batch.iter().filter(|f| f.0 == s) {
                dets.extend(tag(s, det.push_keyframe(frame, cell)));
            }
            dets.extend(tag(s, det.finish()));
            total.merge(det.stats());
        }
        (sorted_key(dets), total)
    }

    #[test]
    fn matches_a_detector_per_stream_at_every_shard_count() {
        let streams: Vec<StreamId> = (0..6).collect();
        let queries: Vec<Query> = streams.iter().map(|&s| query(s, 1000 * u64::from(s))).collect();
        let batch = workload(&streams);
        let (want, want_stats) = oracle(&queries, &streams, &batch);
        assert!(!want.is_empty(), "workload must produce detections");

        for shards in SHARDS {
            let mut fleet = Fleet::new(cfg(shards));
            // Streams before, between and after the subscriptions: a late
            // stream sees the existing catalogue, a late query reaches the
            // existing streams.
            for (&s, q) in streams.iter().zip(&queries) {
                fleet.add_stream(s).unwrap();
                fleet.subscribe(q.clone()).unwrap();
            }
            let mut dets = fleet.push_batch(&batch).unwrap();
            dets.extend(fleet.finish_all().unwrap());
            assert_eq!(sorted_key(dets), want, "shards={shards}");
            assert_eq!(fleet.total_stats(), want_stats, "shards={shards}");
        }
    }

    #[test]
    fn async_mode_with_quiesce_matches_sync() {
        let streams: Vec<StreamId> = (0..5).collect();
        let batch = workload(&streams);
        let (want, _) = oracle(&[query(2, 2000)], &streams, &batch);
        assert!(!want.is_empty());
        for shards in [1, 3] {
            let mut fleet = Fleet::new(cfg(shards));
            for &s in &streams {
                fleet.add_stream(s).unwrap();
            }
            fleet.subscribe(query(2, 2000)).unwrap();
            for chunk in batch.chunks(37) {
                fleet.push_batch_async(chunk).unwrap();
            }
            fleet.quiesce().unwrap();
            let mut got = fleet.take_detections();
            assert!(fleet.take_detections().is_empty(), "the sink drains once");
            got.extend(fleet.finish_all().unwrap());
            assert_eq!(sorted_key(got), want, "shards={shards}");
        }
    }

    #[test]
    fn subscribe_forms_a_barrier_between_batches() {
        for shards in [1, 4] {
            let mut fleet = Fleet::new(cfg(shards));
            for s in 0..8 {
                fleet.add_stream(s).unwrap();
            }
            // Queue work async, then subscribe: the barrier must order the
            // subscription after all queued frames on every shard.
            fleet.push_batch_async(&workload(&(0..8).collect::<Vec<_>>())).unwrap();
            fleet.subscribe(query(1, 1000)).unwrap();
            let pre = fleet.take_detections();
            assert!(
                pre.iter().all(|d| d.detection.query_id != 1),
                "no frame queued before subscribe may match the new query"
            );
            // A second airing after the subscription is detected.
            let mut dets = Vec::new();
            for i in 80..140u64 {
                let id = if (90..114).contains(&i) { 1000 + (i - 90) % 24 } else { 700_000 + i };
                dets.extend(fleet.push_keyframe(1, i, id).unwrap());
            }
            dets.extend(fleet.finish_all().unwrap());
            assert!(dets.iter().any(|d| d.detection.query_id == 1 && d.stream_id == 1), "{dets:?}");
        }
    }

    #[test]
    fn streams_and_stats_lifecycle() {
        for shards in SHARDS {
            let mut fleet = Fleet::new(cfg(shards));
            fleet.subscribe(query(1, 1000)).unwrap();
            fleet.add_stream(10).unwrap();
            fleet.add_stream(20).unwrap();
            assert_eq!(fleet.add_stream(10), Err(FleetError::StreamAlreadyMonitored(10)));
            assert_eq!((fleet.stream_count(), fleet.query_count()), (2, 1));
            assert_eq!(fleet.shard_count(), shards);

            let batch: Vec<Frame> = (0..40u64).map(|i| (10, i, 555_000 + i)).collect();
            fleet.push_batch(&batch).unwrap();
            assert_eq!(fleet.stats(10).unwrap().windows, 10);
            assert_eq!(fleet.stats(20).unwrap().windows, 0);
            assert!(fleet.stats(99).is_none());
            assert_eq!(fleet.total_stats().windows, 10);

            assert_eq!(fleet.remove_stream(10).unwrap().unwrap().windows, 10);
            assert!(fleet.remove_stream(10).unwrap().is_none());
            assert_eq!(fleet.stream_count(), 1);
            assert!(fleet.stats(10).is_none());
            assert_eq!(fleet.total_stats().windows, 0);
            assert!(!fleet.unsubscribe(42).unwrap());
            assert!(fleet.unsubscribe(1).unwrap());
            assert_eq!(fleet.query_count(), 0);
            // The unsubscription reached the surviving stream.
            let mut dets = fleet.push_batch(&airing(20, 1000, 10..34)).unwrap();
            dets.extend(fleet.finish_all().unwrap());
            assert!(dets.is_empty(), "shards={shards}: {dets:?}");
        }
    }

    /// Drive `frames` (`streams` of them interleaved) through push →
    /// subscribe → push → unsubscribe → push, both changes landing two
    /// frames into a window (w = 4), and return what `push` reported.
    fn churned<T>(
        target: &mut T,
        (frames, streams): (&[Frame], usize),
        subscribe: impl Fn(&mut T, Query),
        unsubscribe: impl Fn(&mut T, QueryId),
        push: impl Fn(&mut T, &[Frame]) -> Vec<StreamDetection>,
    ) -> Vec<StreamDetection> {
        let mut dets = push(target, &frames[..6 * streams]);
        subscribe(target, query(1, 1000));
        dets.extend(push(target, &frames[6 * streams..42 * streams]));
        unsubscribe(target, 1);
        dets.extend(push(target, &frames[42 * streams..]));
        dets
    }

    #[test]
    fn a_change_mid_window_matches_detectors_and_is_written_in_place() {
        // Every stream airs query 1 while it is subscribed (10..34) and
        // again after it has left (46..70).
        let streams: Vec<StreamId> = (0..5).collect();
        let per_stream: Vec<Vec<Frame>> = streams
            .iter()
            .map(|&s| {
                let mut frames = airing(s, 1000, 10..34);
                let again = airing(s, 1000, 46..70);
                frames[46..70].copy_from_slice(&again[46..70]);
                frames
            })
            .collect();
        let frames: Vec<Frame> =
            (0..80).flat_map(|i| per_stream.iter().map(move |f| f[i])).collect();

        let (mut want, mut want_stats) = (Vec::new(), Stats::default());
        for (&s, own) in streams.iter().zip(&per_stream) {
            let mut det = Detector::new(cfg(1), QuerySet::new());
            want.extend(churned(
                &mut det,
                (own, 1),
                |det, q| det.subscribe(q),
                |det, id| assert!(det.unsubscribe(id)),
                |det, frames| {
                    frames.iter().flat_map(|f| tag(s, det.push_keyframe(f.1, f.2))).collect()
                },
            ));
            want.extend(tag(s, det.finish()));
            want_stats.merge(det.stats());
        }
        let want = sorted_key(want);
        assert!(!want.is_empty() && want.iter().all(|k| k.3 < 46), "{want:?}");

        for shards in SHARDS {
            let mut fleet = Fleet::new(cfg(shards));
            for &s in &streams {
                fleet.add_stream(s).unwrap();
            }
            // Inline, the fleet is the catalogue's only holder: what the
            // table probes is what `subscribe` wrote, and nothing copied.
            let sole_holder = |fleet: &Fleet| {
                assert!(shards > 1 || fleet.catalogue.holders() == (1, 1), "shards={shards}");
            };
            let mut got = churned(
                &mut fleet,
                (&frames, streams.len()),
                |fleet, q| {
                    fleet.subscribe(q).unwrap();
                    sole_holder(fleet);
                },
                |fleet, id| {
                    assert!(fleet.unsubscribe(id).unwrap());
                    sole_holder(fleet);
                },
                |fleet, frames| fleet.push_batch(frames).unwrap(),
            );
            got.extend(fleet.finish_all().unwrap());
            assert_eq!(sorted_key(got), want, "shards={shards}");
            assert_eq!(fleet.total_stats(), want_stats, "shards={shards}");
        }
    }

    #[test]
    fn a_rejected_subscribe_leaves_the_fleet_as_it_was() {
        let streams: Vec<StreamId> = (0..5).collect();
        let batch = workload(&streams);
        let (head, tail) = batch.split_at(22 * streams.len()); // two frames into a window
        for shards in SHARDS {
            let mut fleet = Fleet::new(cfg(shards));
            let mut clean = Fleet::new(cfg(shards));
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (f, dets) in [(&mut fleet, &mut got), (&mut clean, &mut want)] {
                for &s in &streams {
                    f.add_stream(s).unwrap();
                    f.subscribe(query(s, 1000 * u64::from(s))).unwrap();
                }
                dets.extend(f.push_batch(head).unwrap());
            }
            // Id 2 is taken; the sketch is another clip's, so a write that
            // got as far as either half would change what stream 3 matches.
            let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fleet.subscribe(query(2, 3000))
            }));
            assert!(rejected.is_err(), "shards={shards}: a duplicate id must panic");
            assert_eq!(fleet.query_count(), clean.query_count());
            for (f, dets) in [(&mut fleet, &mut got), (&mut clean, &mut want)] {
                dets.extend(f.push_batch(tail).unwrap());
                dets.extend(f.finish_all().unwrap());
            }
            assert!(!want.is_empty());
            assert_eq!(got, want, "shards={shards}");
            assert_eq!(fleet.total_stats(), clean.total_stats(), "shards={shards}");
        }
    }

    #[test]
    fn a_batch_naming_an_unknown_stream_is_rejected_whole() {
        let frames = airing(1, 1000, 10..34);
        for shards in SHARDS {
            let mut fleet = Fleet::new(cfg(shards));
            let mut clean = Fleet::new(cfg(shards));
            for f in [&mut fleet, &mut clean] {
                f.subscribe(query(1, 1000)).unwrap();
                f.add_stream(1).unwrap();
            }
            // A full window ahead of the unknown id: applying the prefix
            // would complete it.
            let mut bad = frames[..4].to_vec();
            bad.push((3, 0, 0));
            assert_eq!(fleet.push_batch(&bad), Err(FleetError::StreamNotMonitored(3)));
            assert_eq!(fleet.push_batch_async(&bad), Err(FleetError::StreamNotMonitored(3)));
            assert_eq!(fleet.push_keyframe(3, 0, 0), Err(FleetError::StreamNotMonitored(3)));
            assert_eq!(fleet.stats(1).unwrap().windows, 0, "shards={shards}");
            assert!(fleet.take_detections().is_empty());

            let mut got = fleet.push_batch(&frames).unwrap();
            got.extend(fleet.finish_all().unwrap());
            let mut want = clean.push_batch(&frames).unwrap();
            want.extend(clean.finish_all().unwrap());
            assert!(!want.is_empty());
            assert_eq!(got, want, "shards={shards}");
            assert_eq!(fleet.total_stats(), clean.total_stats(), "shards={shards}");
        }
    }

    #[test]
    fn detach_stream_flushes_the_partial_window() {
        // 6 frames with w = 4: one completed window plus a 2-frame
        // partial that only a flush evaluates.
        let frames: Vec<Frame> = (0..6u64).map(|i| (7, i, 1000 + i % 24)).collect();
        let (want, want_stats) = oracle(&[query(1, 1000)], &[7], &frames);
        assert_eq!(want_stats.windows, 2, "{want_stats:?}");
        for shards in SHARDS {
            let mut fleet = Fleet::new(cfg(shards));
            fleet.subscribe(query(1, 1000)).unwrap();
            fleet.add_stream(7).unwrap();
            let mut dets = fleet.push_batch(&frames).unwrap();
            let (flushed, stats) = fleet.detach_stream(7).unwrap().unwrap();
            dets.extend(flushed);
            assert_eq!(sorted_key(dets), want, "shards={shards}");
            assert_eq!(stats, want_stats, "shards={shards}");
            assert_eq!(fleet.stream_count(), 0);
            assert!(fleet.detach_stream(7).unwrap().is_none());
        }
    }

    #[test]
    fn shards_select_the_executor() {
        let mut inline = Fleet::new(cfg(1));
        assert!(inline.inline.is_some() && inline.shards.is_empty(), "no thread is spawned");
        assert_eq!(inline.shard_count(), 1);
        // Nothing to crash, stall, or join: the worker-only calls are inert.
        inline.inject_shard_panic(0);
        inline.inject_shard_stall(0, 10_000);
        inline.drain().unwrap();
        inline.add_stream(1).unwrap();
        inline.push_keyframe(1, 0, 9).unwrap();
        assert_eq!(inline.total_stats().shard_restarts, 0);

        let workers = Fleet::new(cfg(4));
        assert_eq!(workers.shard_count(), 4);
        assert!(workers.inline.is_none());
        assert!(workers.shards.iter().all(|s| s.handle.is_some()));
    }

    #[test]
    fn shard_panic_is_supervised_and_restarted() {
        let mut fleet = Fleet::new(cfg(2));
        fleet.subscribe(query(1, 1000)).unwrap();
        for s in 0..6 {
            fleet.add_stream(s).unwrap();
        }
        // Two frames per stream so every detector holds partial-window
        // state the journal must re-arm.
        let batch: Vec<Frame> =
            (0..2u64).flat_map(|i| (0..6u32).map(move |s| (s, i, 900_000 + i))).collect();
        fleet.push_batch(&batch).unwrap();

        fleet.inject_shard_panic(0);
        fleet.quiesce().unwrap(); // observes the death and restarts shard 0
        let total = fleet.total_stats();
        assert_eq!(total.shard_restarts, 1, "{total:?}");
        assert!(total.frames_lost <= batch.len() as u64, "{total:?}");

        // The fleet keeps working: stream 1 airs query 1 after the
        // restart and is detected, wherever it is sharded.
        let mut dets = Vec::new();
        for i in 2..62u64 {
            let id = if (20..44).contains(&i) { 1000 + (i - 20) % 24 } else { 800_000 + i };
            dets.extend(fleet.push_keyframe(1, i, id).unwrap());
        }
        dets.extend(fleet.finish_all().unwrap());
        assert!(dets.iter().any(|d| d.detection.query_id == 1 && d.stream_id == 1), "{dets:?}");
        // Window counts stay monotone through the carried-over counters.
        assert!(fleet.stats(1).unwrap().windows >= 15, "{:?}", fleet.stats(1));
    }

    #[test]
    fn crash_mid_async_batch_accounts_bounded_loss() {
        let mut fleet = Fleet::new(cfg(2));
        for s in 0..4 {
            fleet.add_stream(s).unwrap();
        }
        fleet.inject_shard_panic(0);
        fleet.inject_shard_panic(1);
        let batch: Vec<Frame> =
            (0..3u64).flat_map(|i| (0..4u32).map(move |s| (s, i, 1_000 + i))).collect();
        // Depending on timing the sends land before or after the worker
        // processes the crash command; both paths must recover without
        // surfacing an error.
        fleet.push_batch_async(&batch).unwrap();
        fleet.quiesce().unwrap();
        let total = fleet.total_stats();
        assert_eq!(total.shard_restarts, 2, "{total:?}");
        assert!(total.frames_lost <= batch.len() as u64, "{total:?}");
        // Still alive: synchronous pushes succeed on both shards.
        for s in 0..4 {
            fleet.push_keyframe(s, 3, 5).unwrap();
        }
        assert_eq!(fleet.total_stats().shard_restarts, 2);
    }

    #[test]
    fn leaving_after_a_crash_returns_the_carried_counters() {
        for flush in [false, true] {
            let mut fleet = Fleet::new(cfg(2));
            fleet.add_stream(10).unwrap();
            fleet.add_stream(20).unwrap();
            let batch: Vec<Frame> = (0..8u64).map(|i| (10, i, 555_000 + i)).collect();
            fleet.push_batch(&batch).unwrap(); // 2 completed windows (w = 4)
            fleet.inject_shard_panic(fleet.shard_of(10));
            let stats = if flush {
                fleet.detach_stream(10).unwrap().unwrap().1
            } else {
                fleet.remove_stream(10).unwrap().unwrap()
            };
            assert_eq!(stats.windows, 2, "{stats:?}");
            assert_eq!(fleet.total_stats().shard_restarts, 1);
            assert!(fleet.stats(10).is_none());
        }
    }

    #[test]
    fn dropping_a_fleet_with_dead_workers_does_not_panic() {
        let mut fleet = Fleet::new(cfg(2));
        fleet.add_stream(1).unwrap();
        fleet.inject_shard_panic(0);
        fleet.inject_shard_panic(1);
        // Give the workers a moment to process the crash commands so the
        // drop below joins already-dead threads at least some of the time.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(fleet); // must log, not panic
    }

    #[test]
    fn drain_joins_workers_and_is_terminal() {
        let mut fleet = Fleet::new(cfg(2));
        fleet.add_stream(1).unwrap();
        fleet.push_keyframe(1, 0, 42).unwrap();
        assert_eq!(fleet.drain_join_polls, DEFAULT_DRAIN_JOIN_POLLS);
        fleet.drain().unwrap();
        assert!(fleet.shards.iter().all(|s| s.handle.is_none()), "every worker was joined");

        // Terminal: every command-dispatching call fails, nothing is
        // respawned to serve it, and nothing of the fleet's state moves.
        let died = |r: FleetError| assert!(matches!(r, FleetError::ShardDied { .. }), "{r:?}");
        died(fleet.push_keyframe(1, 1, 43).unwrap_err());
        died(fleet.push_batch_async(&[(1, 1, 43)]).unwrap_err());
        died(fleet.add_stream(2).unwrap_err());
        died(fleet.subscribe(query(1, 1000)).unwrap_err());
        died(fleet.quiesce().unwrap_err());
        died(fleet.finish_all().unwrap_err());
        died(fleet.remove_stream(1).unwrap_err());
        assert!(fleet.shards.iter().all(|s| s.handle.is_none()), "no worker is spawned");
        assert_eq!(fleet.total_stats().shard_restarts, 0);
        assert_eq!((fleet.stream_count(), fleet.query_count()), (1, 0));
        fleet.drain().unwrap(); // idempotent
        drop(fleet); // Drop after drain must be a quiet no-op
    }

    #[test]
    fn drain_with_a_stalled_worker_times_out_with_a_typed_error() {
        let mut fleet = Fleet::new(cfg(2));
        fleet.set_drain_join_polls(0); // clamped to 1: ~1 ms per worker
        assert_eq!(fleet.drain_join_polls, 1);
        fleet.inject_shard_stall(0, 400);
        // Give the worker a moment to start sleeping so the bounded
        // join reliably observes a still-running thread.
        std::thread::sleep(std::time::Duration::from_millis(20));
        match fleet.drain() {
            Err(FleetError::DrainTimedOut { detached }) => {
                assert!(detached >= 1, "stalled worker must be detached")
            }
            other => panic!("expected DrainTimedOut, got {other:?}"),
        }
        drop(fleet); // the detached worker exits on its own; no hang
    }
}
