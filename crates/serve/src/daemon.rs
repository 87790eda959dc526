//! The daemon: sockets, session threads, and supervision.
//!
//! Thread topology per daemon:
//!
//! ```text
//! run() thread ── spawns the two below, joins the engine, then the rest
//!   ├─ engine thread ─ owns the fleet (see crate::engine); reads the inbox
//!   ├─ accept thread ─ blocks in accept(); admission control per
//!   │                  connection (per-accept catch_unwind)
//!   └─ per session:
//!        reader thread ─ socket → session buffer → frames → EngineCmd
//!                        into the bounded inbox (Credit stays local)
//!        writer thread ─ SessionQueue → socket (bounded stall aborts)
//! ```
//!
//! Both directions push back. Outbound, each session has its bounded
//! [`SessionQueue`] and the engine never waits on it. Inbound, every
//! reader feeds one `sync_channel` of `INBOX_DEPTH` (16) commands: a sender
//! faster than the engine finds its reader blocked in `send`, the reader
//! stops reading its socket, and the kernel's socket buffer pushes back
//! on the sender — the daemon holds at most `INBOX_DEPTH` commands plus
//! one per reader, not a backlog that grows with how far behind it is.
//! The engine always drains the inbox (its pushes to sessions never
//! wait), so a flooding session delays only the commands queued behind
//! its own.
//!
//! A session reader receives straight into one session buffer
//! (`SESSION_BUF_LEN`, 64 KiB, so a 16 KiB chunk frame arrives in one read)
//! and parses frames in place; a partial frame left at the end is moved
//! to the front before the next read. Stream bytes are copied twice more
//! on their way to the decoder: out of the session buffer into the
//! `Request::StreamData` that crosses the inbox, and from there into the
//! stream's reassembly buffer, which the decoder reads in place (see
//! [`crate::ingest`]).
//!
//! A panic anywhere stays contained: the accept loop survives a
//! panicking admission path, a session thread's panic tears down only
//! that session (its drop guard still releases the slot and notifies
//! the engine), and the engine catches per-command panics itself.
//!
//! Shutdown is protocol-driven: any session sends `Shutdown`, the
//! engine stops admission via the shared flag, drains the fleet, and
//! finishes every queue; writers flush `Drained` and shut their
//! sockets down, which unblocks their readers; `run` joins the engine,
//! wakes the accept thread with one connection to its own address,
//! waits (bounded) for the session threads and returns the
//! [`ServeReport`].

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use vdsms_core::sync::{channel, sync_channel, RecvTimeoutError, Sender, SyncSender};

use crate::config::ServeConfig;
use crate::engine::{Engine, EngineCmd, ServeReport};
use crate::protocol::{
    encode_reply, parse_request, peek_frame, ErrorCode, FrameStatus, Reply, Request,
};
use crate::queue::{Outbound, SessionQueue};

pub use crate::engine::ServeReport as Report;

/// Commands the engine's inbox holds before a session reader blocks in
/// `send`. Small on purpose: it only has to cover the engine's wake-up,
/// and every slot can pin a chunk-sized `Vec`.
const INBOX_DEPTH: usize = 16;

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

/// Releases a session slot and tells the engine the connection is gone,
/// even if the reader thread panicked.
struct SessionGuard {
    session: u64,
    tx: SyncSender<EngineCmd>,
    count: Arc<AtomicUsize>,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        let _ = self.tx.send_best_effort(EngineCmd::Closed { session: self.session });
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
        let (tx, rx) = sync_channel::<EngineCmd>(INBOX_DEPTH);
        let engine = Engine::new(cfg.clone(), Arc::clone(&stop));
        let engine_handle = std::thread::spawn(move || engine.run(rx));

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
        let acceptor =
            Acceptor { listener: Arc::clone(&listener), cfg, tx, stop: Arc::clone(&stop), alive };
        let accept_handle = std::thread::spawn(move || acceptor.run());

        // The engine initiated the stop; it exits after draining. The
        // engine catches per-command panics itself, so a join failure
        // means something unrecoverable — report it instead of dying.
        let report = engine_handle.join().unwrap_or_else(|_| ServeReport {
            drain_timed_out: true,
            sessions_served: 0,
            detections_pushed: 0,
            engine_panics: 1,
            stats: vdsms_core::Stats::default(),
        });

        // The engine raised `stop` in its drain (raise it here too, for
        // the join-failure case); the accept thread sees it after its
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
    tx: SyncSender<EngineCmd>,
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
        let Acceptor { cfg, tx, stop, alive, .. } = self;
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
        if !tx.send_best_effort(EngineCmd::Open { session, queue: Arc::clone(&queue) }) {
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
                let _ = tx.send_best_effort(EngineCmd::Closed { session });
                session_count.fetch_sub(1, Ordering::SeqCst);
                conn.shutdown();
                return None;
            }
        };

        let reader = {
            let guard = SessionGuard {
                session,
                tx: tx.clone(),
                count: Arc::clone(session_count),
            };
            let queue = Arc::clone(&queue);
            let tx = tx.clone();
            let cfg = cfg.clone();
            let alive = alive.clone();
            std::thread::spawn(move || {
                let (_guard, _alive) = (guard, alive);
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    read_session(conn, session, &tx, &queue, &cfg);
                }));
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
/// Receives into the unfilled part of one buffer and parses frames
/// where they land. Exits on EOF, socket error, idle expiry, a framing
/// violation (oversized/malformed) or a gone engine; the caller's drop
/// guard notifies the engine. Generic over the byte source so tests can
/// choose how the bytes are cut into reads.
// vdsms-lint: entry(no-panic-hot-path, loop-progress)
fn read_session(
    mut conn: impl Read,
    session: u64,
    tx: &SyncSender<EngineCmd>,
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
                            match parse_request(body) {
                                Err(e) => {
                                    fatal(ErrorCode::Malformed, &e.to_string());
                                    return;
                                }
                                // Flow control is reader-local: grants
                                // must work even while the engine is
                                // busy with someone else's chunk.
                                Ok(Request::Credit { n }) => queue.grant(n),
                                // Blocks while the inbox is full: that
                                // is the inbound backpressure.
                                Ok(req) => {
                                    if !tx.send_best_effort(EngineCmd::Request { session, req }) {
                                        return; // engine gone (post-drain)
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
    use crate::protocol::encode_request;

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

    /// Run a reader over `wire` cut into `step`-byte reads; the requests
    /// it forwarded and the credit it granted locally.
    fn forwarded(wire: &[u8], step: usize) -> (Vec<Request>, u64) {
        let (tx, rx) = sync_channel::<EngineCmd>(1024);
        let queue = Arc::new(SessionQueue::new(8, 0));
        read_session(Drip { bytes: wire, step }, 9, &tx, &queue, &ServeConfig::default());
        drop(tx);
        let mut requests = Vec::new();
        while let Ok(cmd) = rx.recv() {
            match cmd {
                EngineCmd::Request { session: 9, req } => requests.push(req),
                _ => panic!("a reader forwards only its own session's requests"),
            }
        }
        // Credit went to the queue, not the engine: one droppable frame
        // pops per unit granted.
        let mut credit = 0;
        for _ in 0..8 {
            queue.push_droppable(vec![0]);
        }
        queue.finish();
        while let Outbound::Data(_) = queue.pop() {
            credit += 1;
        }
        (requests, credit)
    }

    #[test]
    fn a_request_sequence_reads_the_same_however_the_bytes_arrive() {
        let requests = vec![
            Request::Hello { version: 1, tenant: 3 },
            Request::Subscribe { query_id: 2, cells: (0..500).collect() },
            Request::AttachStream { stream_id: 1 },
            Request::StreamData { stream_id: 1, bytes: vec![0xA5; 16 << 10] },
            Request::Credit { n: 3 },
            // One frame longer than the session buffer: it has to grow.
            Request::StreamData { stream_id: 1, bytes: vec![0x5A; SESSION_BUF_LEN + 1234] },
            Request::StreamData { stream_id: 1, bytes: vec![7; 100] },
            Request::StreamEnd { stream_id: 1 },
            Request::Health,
        ];
        let wire: Vec<u8> = requests.iter().flat_map(encode_request).collect();
        let expected: Vec<Request> =
            requests.into_iter().filter(|r| !matches!(r, Request::Credit { .. })).collect();
        for step in [1, 7, SESSION_BUF_LEN, usize::MAX] {
            let (got, credit) = forwarded(&wire, step);
            assert_eq!(got, expected, "reads of {step} bytes");
            assert_eq!(credit, 3, "reads of {step} bytes");
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
    fn a_full_inbox_stops_the_reader_and_the_socket_pushes_back() {
        let (mut ours, theirs) = UnixStream::pair().unwrap();
        ours.set_write_timeout(Some(Duration::from_millis(250))).unwrap();
        let taken = Arc::new(AtomicUsize::new(0));
        // An engine that never receives: the inbox fills and stays full.
        let (tx, rx) = sync_channel::<EngineCmd>(INBOX_DEPTH);
        let reader = {
            let conn = Counted { conn: theirs, taken: Arc::clone(&taken) };
            std::thread::spawn(move || {
                let queue = Arc::new(SessionQueue::new(8, 0));
                read_session(conn, 1, &tx, &queue, &ServeConfig::default());
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
        // The reader forwarded at most the inbox plus the one command it
        // is blocked sending, so it took no more than those frames and
        // what one buffer had room for behind them.
        let held = taken.load(Ordering::SeqCst);
        assert!(
            held <= (INBOX_DEPTH + 1) * frame.len() + SESSION_BUF_LEN,
            "reader took {held} bytes from a socket nobody was draining"
        );

        // The engine going away releases the blocked reader.
        drop(rx);
        reader.join().unwrap();
    }
}
