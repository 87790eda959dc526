//! The daemon: sockets, session threads, and supervision.
//!
//! Thread topology per daemon:
//!
//! ```text
//! run() thread ── spawns the accept thread, waits for the engine's report
//!   ├─ accept thread ─ blocks in accept(); admission control per
//!   │                  connection (per-accept catch_unwind)
//!   └─ per session:
//!        reader thread ─ socket → session buffer → frames, each applied
//!                        to the one engine under its lock (Credit stays
//!                        local)
//!        writer thread ─ SessionQueue → socket (bounded stall aborts)
//! ```
//!
//! There is no engine thread. The [`Engine`](crate::engine) sits behind
//! one lock, shared by the accept thread (it registers a session), every
//! reader (it applies that session's requests) and every session's drop
//! guard (it releases what the session owned). A reader takes the lock
//! for one frame and releases it before the next; it never holds it
//! across a `read()`. Commands are still applied one at a time, so every
//! client sees one serialized command order.
//!
//! Both directions push back. Outbound, each session has its bounded
//! [`SessionQueue`] and the engine never waits on it. Inbound, a reader
//! that waits for the lock, or is busy applying a frame, is not reading
//! its socket, and the kernel's socket buffer pushes back on the sender:
//! the daemon holds at most one session buffer of a session's bytes, not
//! a backlog that grows with how far behind it is.
//!
//! A session reader receives straight into one session buffer
//! (`SESSION_BUF_LEN`, 64 KiB, so a 16 KiB chunk frame arrives in one read)
//! and parses frames in place; a partial frame left at the end is moved
//! to the front before the next read. A chunk's bytes go from the
//! session buffer to the stream's reassembly buffer as a borrowed slice,
//! and the decoder reads that buffer in place (see [`crate::ingest`]).
//!
//! A panic anywhere stays contained: the accept loop survives a
//! panicking admission path, a session thread's panic tears down only
//! that session (its drop guard still releases the slot and tells the
//! engine), and the engine catches per-command panics itself.
//!
//! Shutdown is protocol-driven: the reader that applies a `Shutdown`
//! takes the engine out of the lock, drains it with the lock released,
//! and sends the [`ServeReport`] to `run`. Any later locker finds no
//! engine and ends its session. The drain raises the shared stop flag,
//! stops admission and finishes every queue; writers flush `Drained` and
//! shut their sockets down, which unblocks their readers. `run` wakes the
//! accept thread with one connection to its own address, waits (bounded)
//! for the session threads and returns the report.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use vdsms_core::sync::{channel, sync_channel, RecvTimeoutError, Sender, SyncSender};

use crate::config::ServeConfig;
use crate::engine::{Command, Engine, Flow, ServeReport};
use crate::protocol::{
    encode_reply, parse_inbound, peek_frame, ErrorCode, FrameStatus, Inbound, Reply, Request,
};
use crate::queue::{Outbound, SessionQueue};

pub use crate::engine::ServeReport as Report;

/// Initial length of a session's receive buffer: room for three 16 KiB
/// chunk frames and most of a fourth, so a chunk and its frame header
/// arrive in one read. Grows only for a single frame longer than this
/// (bounded by `ServeConfig::max_frame_len`).
const SESSION_BUF_LEN: usize = 64 * 1024;

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address like `127.0.0.1:7400` (`0` picks a free port).
    Tcp(String),
    /// A unix-domain socket path (any stale file is replaced).
    Unix(PathBuf),
}

/// One accepted connection, TCP or unix; everything the session layer
/// needs from either.
pub(crate) enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    pub(crate) fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }

    pub(crate) fn set_write_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(t),
            Conn::Unix(s) => s.set_write_timeout(t),
        }
    }

    /// Shut both directions down (best effort).
    pub(crate) fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// A bound daemon; [`Daemon::run`] serves until a `Shutdown` frame.
pub struct Daemon {
    listener: Listener,
    cfg: ServeConfig,
    local_addr: String,
    /// The bound address as something to connect to: how `run` wakes
    /// its accept thread at shutdown.
    local: Endpoint,
}

/// The one engine, shared by the accept thread, every session reader and
/// every session guard, and the one-shot channel its report leaves by.
struct Shared {
    /// `None` once a `Shutdown` took the engine out to drain it.
    engine: Mutex<Option<Engine>>,
    report: SyncSender<ServeReport>,
}

impl Shared {
    /// Apply one command to the engine; whether it is still serving.
    ///
    /// The lock is held for this one command. The command that stops the
    /// engine takes it out of the lock, drains it with the lock released
    /// (the fleet's drain joins its workers) and sends the report; every
    /// later caller finds no engine.
    fn submit(&self, session: u64, cmd: Command<'_>) -> bool {
        let mut slot = self.engine.lock();
        let Some(engine) = slot.as_mut() else { return false };
        // vdsms-lint: allow(guard-across-blocking) reason="the witnesses are name collisions (the fleet's and a stream's methods resolved to Client's round trips); the one real wait is a sharded fleet's round trip to its workers, which never take this lock, and the drain runs after the guard is dropped"
        if let Flow::Continue = engine.execute(session, cmd) {
            return true;
        }
        let engine = slot.take();
        drop(slot);
        if let Some(engine) = engine {
            // The engine contains per-command panics itself; one in the
            // drain still owes `run` a report.
            let report = catch_unwind(AssertUnwindSafe(|| engine.finish()))
                .unwrap_or_else(|_| ServeReport::lost());
            self.report.send_best_effort(report);
        }
        false
    }
}

/// Releases a session slot and tells the engine the connection is gone,
/// even if the reader thread panicked.
struct SessionGuard {
    session: u64,
    shared: Arc<Shared>,
    count: Arc<AtomicUsize>,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.shared.submit(self.session, Command::Closed);
        self.count.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Daemon {
    /// Bind the endpoint (replacing a stale unix socket file).
    ///
    /// # Errors
    /// Propagates socket bind errors.
    pub fn bind(endpoint: &Endpoint, cfg: ServeConfig) -> std::io::Result<Daemon> {
        let (listener, local_addr, local) = match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let local = l.local_addr()?.to_string();
                (Listener::Tcp(l), local.clone(), Endpoint::Tcp(local))
            }
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                (Listener::Unix(l), path.display().to_string(), Endpoint::Unix(path.clone()))
            }
        };
        Ok(Daemon { listener, cfg, local_addr, local })
    }

    /// The bound address (useful with an ephemeral TCP port).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Serve until a client sends `Shutdown`, then drain and report.
    pub fn run(self) -> ServeReport {
        let Daemon { listener, cfg, local, .. } = self;
        let stop = Arc::new(AtomicBool::new(false));
        let (report_tx, report_rx) = sync_channel::<ServeReport>(1);
        let engine = Engine::new(cfg.clone(), Arc::clone(&stop));
        let shared = Arc::new(Shared { engine: Mutex::new(Some(engine)), report: report_tx });

        // Every session thread holds a clone of `alive` until it exits
        // and nothing is ever sent on it: `exited` disconnects when the
        // last of them (and the accept thread) is gone.
        let (alive, exited) = channel::<()>();
        // The writer's own patience with a wedged peer: the longest any
        // session thread outlives the drain by design.
        let patience = Duration::from_millis(cfg.drain_deadline_ms.max(1) + cfg.write_timeout_ms);
        // The listener stays open here until `run` returns, so the
        // wake-up below reaches it even if the accept thread is gone.
        let listener = Arc::new(listener);
        let acceptor = Acceptor {
            listener: Arc::clone(&listener),
            cfg,
            shared,
            stop: Arc::clone(&stop),
            alive,
        };
        let accept_handle = std::thread::spawn(move || acceptor.run());

        // The reader that applies `Shutdown` drains the engine and sends
        // its report. The channel disconnects without one only if every
        // holder of the engine is gone, which the accept thread alone
        // prevents until `stop`: report it instead of dying.
        let report = report_rx.recv().unwrap_or_else(|_| ServeReport::lost());

        // The engine raised `stop` in its drain (raise it here too, for
        // a lost report); the accept thread sees it after its
        // next accept, which one connection to our own address provides.
        // If that connection cannot be made (the socket file was
        // unlinked under us) the thread stays parked in accept() and is
        // left behind rather than waited for.
        stop.store(true, Ordering::SeqCst);
        let session_threads = if local.connect_once() {
            accept_handle.join().unwrap_or_default()
        } else {
            Vec::new()
        };

        // Writers flush `Drained` and shut sockets down; wait for the
        // session threads, bounded so a wedged peer cannot hold the exit.
        let all_exited =
            matches!(exited.recv_timeout(patience), Err(RecvTimeoutError::Disconnected));
        for h in session_threads {
            if all_exited || h.is_finished() {
                let _ = h.join();
            }
        }
        if let Endpoint::Unix(path) = &local {
            let _ = std::fs::remove_file(path);
        }
        report
    }
}

impl Endpoint {
    /// Open one connection and drop it; whether it could be opened.
    fn connect_once(&self) -> bool {
        match self {
            Endpoint::Tcp(addr) => TcpStream::connect(addr).is_ok(),
            Endpoint::Unix(path) => UnixStream::connect(path).is_ok(),
        }
    }
}

/// The accept thread's state: the listener and what admission needs.
struct Acceptor {
    listener: Arc<Listener>,
    cfg: ServeConfig,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    alive: Sender<()>,
}

impl Acceptor {
    /// Accept and admit connections until `stop` is up; returns the
    /// session threads not yet reaped.
    fn run(self) -> Vec<JoinHandle<()>> {
        let session_count = Arc::new(AtomicUsize::new(0));
        let mut next_session: u64 = 1;
        let mut session_threads: Vec<JoinHandle<()>> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok(conn) => {
                    let session = next_session;
                    next_session += 1;
                    // One hostile connection must not kill the accept
                    // loop: contain any panic in the admission path. A
                    // connection that arrives with `stop` already up (a
                    // late client, or `run`'s wake-up) is refused there.
                    let admitted = catch_unwind(AssertUnwindSafe(|| {
                        self.admit(conn, session, &session_count)
                    }));
                    if let Ok(Some((r, w))) = admitted {
                        session_threads.push(r);
                        session_threads.push(w);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Out of descriptors or the like: back off instead of
                // spinning on an accept() that fails at once.
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
            if session_threads.len() >= 64 {
                session_threads.retain(|h| !h.is_finished());
            }
        }
        session_threads
    }

    /// Admission control + session thread spawn. Returns the reader and
    /// writer join handles, or `None` if the connection was refused.
    fn admit(
        &self,
        conn: Conn,
        session: u64,
        session_count: &Arc<AtomicUsize>,
    ) -> Option<(JoinHandle<()>, JoinHandle<()>)> {
        let Acceptor { cfg, shared, stop, alive, .. } = self;
        // vdsms-lint: allow(no-swallowed-error) reason="a socket that cannot take a timeout still works with blocking writes; the stall bound in write_session just gets coarser"
        let _ = conn.set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms.max(1))));
        let refuse = |code: ErrorCode, msg: &str| {
            let mut c = conn.try_clone().ok()?;
            let frame = encode_reply(&Reply::Error { re: 0, code, msg: msg.into() });
            let _ = c.write(&frame);
            conn.shutdown();
            None
        };
        if stop.load(Ordering::SeqCst) {
            return refuse(ErrorCode::ShuttingDown, "daemon is draining");
        }
        if session_count.load(Ordering::SeqCst) >= cfg.max_sessions {
            return refuse(ErrorCode::AdmissionDenied, "session limit reached");
        }
        session_count.fetch_add(1, Ordering::SeqCst);

        let queue = Arc::new(SessionQueue::new(cfg.queue_capacity, cfg.initial_credit));
        if !shared.submit(session, Command::Open(Arc::clone(&queue))) {
            session_count.fetch_sub(1, Ordering::SeqCst);
            conn.shutdown();
            return None;
        }
        // vdsms-lint: allow(no-swallowed-error) reason="without the read timeout the reader blocks until the writer-side socket shutdown unblocks it at teardown; idle expiry degrades, the session still works"
        let _ = conn.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1))));
        let write_half = match conn.try_clone() {
            Ok(c) => c,
            Err(_) => {
                // The guard path is not set up yet; release by hand.
                shared.submit(session, Command::Closed);
                session_count.fetch_sub(1, Ordering::SeqCst);
                conn.shutdown();
                return None;
            }
        };

        let reader = {
            let guard = SessionGuard {
                session,
                shared: Arc::clone(shared),
                count: Arc::clone(session_count),
            };
            let queue = Arc::clone(&queue);
            let cfg = cfg.clone();
            let alive = alive.clone();
            std::thread::spawn(move || {
                let _alive = alive;
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    read_session(conn, session, &guard.shared, &queue, &cfg);
                }));
                drop(guard);
            })
        };
        let writer = {
            let queue = Arc::clone(&queue);
            let cfg = cfg.clone();
            let alive = alive.clone();
            std::thread::spawn(move || {
                let _alive = alive;
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    write_session(write_half, &queue, &cfg);
                }));
            })
        };
        Some((reader, writer))
    }
}

/// The session reader: socket bytes → frames → engine commands.
///
/// Receives into the unfilled part of one buffer, parses frames where
/// they land and applies each to the engine before the next read. Exits
/// on EOF, socket error, idle expiry, a framing violation
/// (oversized/malformed) or a gone engine; the caller's drop guard tells
/// the engine. Generic over the byte source so tests can choose how the
/// bytes are cut into reads.
// vdsms-lint: entry(no-panic-hot-path, loop-progress)
fn read_session(
    mut conn: impl Read,
    session: u64,
    shared: &Shared,
    queue: &Arc<SessionQueue>,
    cfg: &ServeConfig,
) {
    // Invariant: `buf[..filled]` is received and not yet parsed, and
    // `buf[filled..]` is never empty (an empty read would look like EOF).
    let mut buf = vec![0u8; SESSION_BUF_LEN];
    let mut filled = 0usize;
    let tick_ms = cfg.read_timeout_ms.max(1);
    // Idle expiry counts read-timeout ticks with no inbound frame.
    let idle_ticks_limit =
        if cfg.idle_timeout_ms == 0 { u64::MAX } else { cfg.idle_timeout_ms / tick_ms + 1 };
    let mut idle_ticks: u64 = 0;

    // On a protocol violation: queue the typed error, finish the queue
    // (the writer flushes it and shuts the socket down), and exit.
    let fatal = |code: ErrorCode, msg: &str| {
        queue.push_control(encode_reply(&Reply::Error { re: 0, code, msg: msg.into() }));
        queue.finish();
    };

    loop {
        match conn.read(&mut buf[filled..]) {
            Ok(0) => return, // EOF
            Ok(n) => {
                idle_ticks = 0;
                filled += n;
                let mut consumed = 0usize;
                loop {
                    match peek_frame(&buf[consumed..filled], cfg.max_frame_len) {
                        FrameStatus::NeedMore => break,
                        FrameStatus::Oversized { len } => {
                            fatal(
                                ErrorCode::Oversized,
                                &format!("frame of {len} bytes exceeds the limit"),
                            );
                            return;
                        }
                        FrameStatus::Frame { start, end } => {
                            let body = &buf[consumed + start..consumed + end];
                            match parse_inbound(body) {
                                Err(e) => {
                                    fatal(ErrorCode::Malformed, &e.to_string());
                                    return;
                                }
                                // Flow control is reader-local: grants
                                // must work even while another session
                                // holds the engine.
                                Ok(Inbound::Request(Request::Credit { n })) => queue.grant(n),
                                // Waits while another session holds the
                                // engine: that is the inbound backpressure.
                                Ok(req) => {
                                    if !shared.submit(session, Command::Request(req)) {
                                        return; // engine drained
                                    }
                                }
                            }
                            consumed += end;
                        }
                    }
                }
                // Keep the partial frame at the end, if any, and make
                // room: it passed the length check, so doubling until it
                // fits stops at twice `max_frame_len`.
                buf.copy_within(consumed..filled, 0);
                filled -= consumed;
                if filled == buf.len() {
                    buf.resize(filled * 2, 0);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                idle_ticks += 1;
                if idle_ticks >= idle_ticks_limit {
                    fatal(ErrorCode::IdleTimeout, "session idle too long");
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return, // connection error (or writer-side shutdown)
        }
    }
}

/// The session writer: queue → socket, with bounded patience for a
/// stalled peer. After the queue finishes, shuts the socket down so the
/// reader unblocks.
// vdsms-lint: entry(no-panic-hot-path, loop-progress)
fn write_session(mut conn: Conn, queue: &Arc<SessionQueue>, cfg: &ServeConfig) {
    let tick_ms = cfg.write_timeout_ms.max(1);
    // A peer making zero progress for a full drain deadline is dead to
    // us; time is measured in write-timeout ticks, not wall clock.
    let stall_ticks_limit = cfg.drain_deadline_ms / tick_ms + 1;
    'outer: loop {
        let frame = match queue.pop() {
            Outbound::Data(bytes) => bytes,
            Outbound::Lagged(missed) => encode_reply(&Reply::Lagged { missed }),
            Outbound::Finished => break,
        };
        let mut off = 0usize;
        let mut stall_ticks: u64 = 0;
        while off < frame.len() {
            match conn.write(&frame[off..]) {
                Ok(0) => break 'outer,
                Ok(n) => {
                    off += n;
                    stall_ticks = 0;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    stall_ticks += 1;
                    if stall_ticks >= stall_ticks_limit {
                        break 'outer; // peer wedged: abandon the session
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break 'outer,
            }
        }
    }
    conn.shutdown(); // unblock the reader
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::{encode_request, parse_reply, LEN_PREFIX, PROTOCOL_VERSION};
    use vdsms_codec::{Encoder, EncoderConfig};
    use vdsms_core::DetectorConfig;
    use vdsms_features::{FeatureExtractor, FingerprintStream};
    use vdsms_video::source::{ClipGenerator, SourceSpec};
    use vdsms_video::Fps;

    fn stream_bytes(seed: u64, seconds: f64) -> Vec<u8> {
        let spec = SourceSpec {
            width: 176,
            height: 120,
            fps: Fps::integer(10),
            seed,
            min_scene_s: 1.0,
            max_scene_s: 2.0,
            motifs: None,
        };
        let clip = ClipGenerator::new(spec).clip(seconds);
        Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 80, motion_search: true })
    }

    /// An engine behind its lock, as `Daemon::run` builds it.
    fn shared(cfg: ServeConfig) -> Arc<Shared> {
        let engine = Engine::new(cfg, Arc::new(AtomicBool::new(false)));
        let (report, _) = sync_channel(1);
        Arc::new(Shared { engine: Mutex::new(Some(engine)), report })
    }

    /// A byte source that hands out at most `step` bytes per read.
    struct Drip<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Run a reader over `wire` cut into `step`-byte reads against a
    /// fresh engine, drain it, and return every reply the session's
    /// queue then yields, and the detections the engine pushed.
    fn replies(wire: &[u8], step: usize, cfg: &ServeConfig) -> (Vec<Reply>, u64) {
        let shared = shared(cfg.clone());
        // No credit of its own: a detection leaves only on credit the
        // reader granted.
        let queue = Arc::new(SessionQueue::new(64, 0));
        assert!(shared.submit(9, Command::Open(Arc::clone(&queue))));
        read_session(Drip { bytes: wire, step }, 9, &shared, &queue, cfg);
        let engine = shared.engine.lock().take().expect("no Shutdown on the wire");
        let report = engine.finish();
        let mut replies = Vec::new();
        loop {
            match queue.pop() {
                Outbound::Data(bytes) => replies.push(parse_reply(&bytes[LEN_PREFIX..]).unwrap()),
                Outbound::Lagged(missed) => replies.push(Reply::Lagged { missed }),
                Outbound::Finished => break,
            }
        }
        (replies, report.detections_pushed)
    }

    #[test]
    fn the_engine_replies_the_same_however_the_bytes_arrive() {
        let cfg = ServeConfig {
            detector: DetectorConfig { window_keyframes: 4, ..Default::default() },
            ..Default::default()
        };
        let bytes = stream_bytes(9, 12.0);
        assert!(bytes.len() > SESSION_BUF_LEN + (32 << 10), "stream of {} bytes", bytes.len());
        let extractor = FeatureExtractor::new(cfg.features);
        let mut fs = FingerprintStream::new(&bytes, extractor).unwrap();
        let mut cells = Vec::new();
        while let Some((_, cell)) = fs.next_fingerprint().unwrap() {
            cells.push(cell);
        }
        // A query made from the stream's own cells fires on it.
        let cells = cells[4..12].to_vec();

        let (head, rest) = bytes.split_at(16 << 10);
        // One frame longer than the session buffer: it has to grow.
        let (long, tail) = rest.split_at(SESSION_BUF_LEN + 1234);
        let mut requests = vec![
            Request::Hello { version: PROTOCOL_VERSION, tenant: 3 },
            Request::Subscribe { query_id: 2, cells },
            Request::AttachStream { stream_id: 1 },
            Request::StreamData { stream_id: 1, bytes: head.to_vec() },
            Request::Credit { n: 3 },
            Request::StreamData { stream_id: 1, bytes: long.to_vec() },
        ];
        requests.extend(
            tail.chunks(5000).map(|c| Request::StreamData { stream_id: 1, bytes: c.to_vec() }),
        );
        requests.extend([Request::StreamEnd { stream_id: 1 }, Request::Health]);
        let wire: Vec<u8> = requests.iter().flat_map(encode_request).collect();

        let (expected, pushed) = replies(&wire, usize::MAX, &cfg);
        assert!(pushed > 0, "the stream's own query must fire");
        let sent = expected.iter().filter(|r| matches!(r, Reply::Detection { .. })).count();
        assert_eq!(sent as u64, pushed.min(3), "detections leave on the reader's grant only");
        assert!(matches!(expected[0], Reply::HelloOk { session: 9, .. }));
        assert!(expected.iter().any(|r| matches!(r, Reply::StreamEndAck { stream_id: 1, .. })));
        assert!(matches!(expected[expected.len() - 2], Reply::Health(_)));
        assert_eq!(expected[expected.len() - 1], Reply::Drained);
        for step in [1, 7, 64 << 10] {
            let (got, _) = replies(&wire, step, &cfg);
            assert_eq!(got, expected, "reads of {step} bytes");
        }
    }

    /// Counts the bytes a reader has taken out of its socket.
    struct Counted {
        conn: UnixStream,
        taken: Arc<AtomicUsize>,
    }

    impl Read for Counted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.conn.read(buf)?;
            self.taken.fetch_add(n, Ordering::SeqCst);
            Ok(n)
        }
    }

    #[test]
    fn a_held_engine_stops_the_reader_and_the_socket_pushes_back() {
        let (mut ours, theirs) = UnixStream::pair().unwrap();
        ours.set_write_timeout(Some(Duration::from_millis(250))).unwrap();
        let taken = Arc::new(AtomicUsize::new(0));
        let shared = shared(ServeConfig::default());
        // Another session's command in flight, for as long as the test
        // likes.
        let mut held = shared.engine.lock();
        let reader = {
            let conn = Counted { conn: theirs, taken: Arc::clone(&taken) };
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let queue = Arc::new(SessionQueue::new(8, 0));
                read_session(conn, 1, &shared, &queue, &ServeConfig::default());
            })
        };

        // A sender that never stops of its own accord: 64 MiB is far
        // past anything the kernel buffers, so only backpressure ends it.
        let frame = encode_request(&Request::StreamData { stream_id: 0, bytes: vec![1; 16 << 10] });
        let mut pushed_back = false;
        for _ in 0..4096 {
            if ours.write_all(&frame).is_err() {
                pushed_back = true; // no progress for a whole write timeout
                break;
            }
        }
        assert!(pushed_back, "the sender was never made to wait");
        // The reader waits on the lock with its first frame, so it took
        // no more than one buffer's worth of the socket.
        let took = taken.load(Ordering::SeqCst);
        assert!(
            took <= SESSION_BUF_LEN + frame.len(),
            "reader took {took} bytes from a socket nobody was draining"
        );

        // The engine going away releases the waiting reader.
        *held = None;
        drop(held);
        reader.join().unwrap();
    }

    #[test]
    fn a_flooding_session_does_not_starve_its_neighbour() {
        let path =
            std::env::temp_dir().join(format!("vdsms-neighbour-{}.sock", std::process::id()));
        let daemon = Daemon::bind(&Endpoint::Unix(path.clone()), ServeConfig::default()).unwrap();
        let server = std::thread::spawn(move || daemon.run());

        let flooding = Arc::new(AtomicBool::new(true));
        let chunks_sent = Arc::new(AtomicUsize::new(0));
        let flooder = {
            let (path, flooding, chunks_sent) =
                (path.clone(), Arc::clone(&flooding), Arc::clone(&chunks_sent));
            std::thread::spawn(move || {
                let bytes = stream_bytes(11, 20.0);
                let client = Client::connect_unix(&path).unwrap();
                client.hello(1).unwrap();
                let mut stream_id = 0;
                while flooding.load(Ordering::SeqCst) && stream_id < 1000 {
                    client.attach_stream(stream_id).unwrap();
                    for chunk in bytes.chunks(16 << 10) {
                        client.send_chunk(stream_id, chunk.to_vec()).unwrap();
                        chunks_sent.fetch_add(1, Ordering::SeqCst);
                    }
                    client.end_stream(stream_id).unwrap();
                    stream_id += 1;
                }
                client.close();
                stream_id
            })
        };
        while chunks_sent.load(Ordering::SeqCst) < 8 {
            std::thread::yield_now();
        }

        let neighbour = Client::connect_unix(&path).unwrap();
        neighbour.hello(2).unwrap();
        let before = chunks_sent.load(Ordering::SeqCst);
        for i in 0..50 {
            if let Err(e) = neighbour.health() {
                panic!("health round trip {i} beside a flooding session: {e:?}");
            }
        }
        let during = chunks_sent.load(Ordering::SeqCst) - before;
        flooding.store(false, Ordering::SeqCst);
        let streams = flooder.join().unwrap();
        assert!(streams > 0 && during > 0, "the flood ran beside the round trips");

        neighbour.shutdown_server().unwrap();
        assert!(neighbour.wait_drained(Duration::from_secs(30)), "no Drained frame");
        neighbour.close();
        let report = server.join().unwrap();
        assert_eq!(report.engine_panics, 0);
        assert!(!report.drain_timed_out);
    }
}
