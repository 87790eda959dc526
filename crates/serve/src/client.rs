//! A blocking client for the serve protocol.
//!
//! One background reader thread demultiplexes server frames: replies go
//! to the request/reply rendezvous, asynchronous pushes (`Detection`,
//! `Lagged`, untied errors) land in an inbox, and `Drained` raises a
//! flag. A round trip writes its request and then blocks on the
//! rendezvous channel with a bound — it wakes when the reader thread
//! hands over the reply, when that thread exits (the connection closed),
//! or when the bound runs out. Every reply names the request it answers,
//! so one that does not answer the outstanding request — the late answer
//! to a round trip that timed out — is discarded, not handed to the
//! wrong caller. The client grants flow-control credit as it consumes
//! detections, so a client that stops reading
//! ([`Client::pause_reading`] — the test harness's stalled-reader
//! primitive) deterministically starves the server of credit and becomes
//! the one session that lags.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use vdsms_core::sync::{channel, Receiver, RecvTimeoutError, Sender};

use crate::daemon::Conn;
use crate::protocol::{
    encode_request, parse_reply, peek_frame, ErrorCode, FrameStatus, HealthReport, Reply, Request,
    MAX_FRAME_LEN_DEFAULT, PROTOCOL_VERSION,
};

/// How often the reader thread wakes to notice pauses and shutdowns.
const READ_TICK_MS: u64 = 5;
/// Detections consumed between automatic `Credit` grants. Kept small so
/// the flow keeps moving even against a server configured with a tiny
/// `initial_credit` (the soak test runs with credit 8 to make lagging
/// deterministic).
const CREDIT_BATCH: u64 = 8;
/// Bound on one blocking wait for a reply.
const REPLY_WAIT_MS: u64 = 10_000;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server answered with a typed error.
    Server {
        /// The error code.
        code: ErrorCode,
        /// The server's message.
        msg: String,
    },
    /// No reply arrived within the round-trip bound.
    Timeout,
    /// The connection closed mid round trip.
    Closed,
    /// The server sent something unparseable or out of protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server { code, msg } => write!(f, "server error {code:?}: {msg}"),
            ClientError::Timeout => write!(f, "reply timed out"),
            ClientError::Closed => write!(f, "connection closed"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One detection push received from the server.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionEvent {
    /// The session-local query id that matched.
    pub query_id: u32,
    /// The fleet-global stream id it matched on.
    pub stream_id: u32,
    /// First frame of the matched span.
    pub start_frame: u64,
    /// Last frame of the matched span (inclusive).
    pub end_frame: u64,
    /// Span length in basic windows.
    pub windows: u64,
    /// Estimated similarity.
    pub similarity: f64,
}

/// Final accounting from an orderly `StreamEnd`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEndInfo {
    /// Key frames the server ingested for this stream.
    pub keyframes: u64,
    /// Damaged records skipped (recovery mode).
    pub frames_dropped: u64,
    /// Bytes discarded while resynchronizing.
    pub bytes_skipped: u64,
    /// Resynchronization events.
    pub resyncs: u64,
}

#[derive(Default)]
struct Inbox {
    detections: Vec<DetectionEvent>,
    errors: Vec<(ErrorCode, String)>,
}

struct Shared {
    inbox: Mutex<Inbox>,
    lagged_total: AtomicU64,
    drained: AtomicBool,
    closed: AtomicBool,
    paused: AtomicBool,
}

/// A connected client session.
pub struct Client {
    writer: Mutex<Conn>,
    /// Round trips that timed out with their reply still owed: the most
    /// out-of-turn replies later round trips may discard. (Round trips
    /// need no lock to stay one at a time: the receiving halves below
    /// make `Client` `!Sync`, so a `&Client` is only ever on one thread.)
    owed: AtomicU64,
    replies: Receiver<Reply>,
    /// One `()` from the reader thread when `Drained` arrives;
    /// disconnected once that thread has exited.
    drained_rx: Receiver<()>,
    shared: Arc<Shared>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Client {
    /// Connect over TCP.
    ///
    /// # Errors
    /// Propagates connection errors.
    pub fn connect_tcp(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Client::start(Conn::Tcp(stream))
    }

    /// Connect over a unix socket.
    ///
    /// # Errors
    /// Propagates connection errors.
    pub fn connect_unix(path: &Path) -> Result<Client, ClientError> {
        let stream = UnixStream::connect(path)?;
        Client::start(Conn::Unix(stream))
    }

    fn start(conn: Conn) -> Result<Client, ClientError> {
        conn.set_read_timeout(Some(Duration::from_millis(READ_TICK_MS)))?;
        let read_half = conn.try_clone()?;
        let (reply_tx, replies) = channel::<Reply>();
        let (drained_tx, drained_rx) = channel::<()>();
        let shared = Arc::new(Shared {
            inbox: Mutex::new(Inbox::default()),
            lagged_total: AtomicU64::new(0),
            drained: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            paused: AtomicBool::new(false),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || read_loop(read_half, &reply_tx, &drained_tx, &shared))
        };
        Ok(Client {
            writer: Mutex::new(conn),
            owed: AtomicU64::new(0),
            replies,
            drained_rx,
            shared,
            reader: Some(reader),
        })
    }

    fn write_frame(&self, req: &Request) -> Result<(), ClientError> {
        let frame = encode_request(req);
        let mut w = self.writer.lock();
        w.write_all(&frame).map_err(ClientError::Io)?;
        Ok(())
    }

    /// One request → reply round trip.
    fn round_trip(&self, req: &Request) -> Result<Reply, ClientError> {
        self.round_trip_within(req, Duration::from_millis(REPLY_WAIT_MS))
    }

    /// [`Self::round_trip`] with the bound on each wait as a parameter.
    ///
    /// The reader thread owns the sending half of `replies` and drops it
    /// when it exits, so a closed connection wakes the wait at once — and
    /// a reply it forwarded just before exiting (a fatal typed error) is
    /// still delivered first. A reply that does not answer `req` is the
    /// late answer to an earlier round trip that timed out: it is
    /// dropped and the wait starts over, at most once per such timeout
    /// (the crate reads no clock, so the bound is per wait, not per
    /// call). The protocol has no sequence numbers: a late reply of the
    /// same kind as `req` cannot be told from its answer.
    fn round_trip_within(&self, req: &Request, wait: Duration) -> Result<Reply, ClientError> {
        self.write_frame(req)?;
        loop {
            match self.replies.recv_timeout(wait) {
                Ok(reply) if !answers(req, &reply) && self.owed.load(Ordering::SeqCst) > 0 => {
                    self.owed.fetch_sub(1, Ordering::SeqCst);
                }
                Ok(Reply::Error { code, msg, .. }) => {
                    return Err(ClientError::Server { code, msg })
                }
                Ok(reply) => return Ok(reply),
                Err(RecvTimeoutError::Timeout) => {
                    self.owed.fetch_add(1, Ordering::SeqCst);
                    return Err(ClientError::Timeout);
                }
                Err(RecvTimeoutError::Disconnected) => return Err(ClientError::Closed),
            }
        }
    }

    /// Open the session.
    ///
    /// # Errors
    /// Typed server errors (`BadVersion`, `ShuttingDown`, admission).
    pub fn hello(&self, tenant: u64) -> Result<u64, ClientError> {
        match self.round_trip(&Request::Hello { version: PROTOCOL_VERSION, tenant })? {
            Reply::HelloOk { session, .. } => Ok(session),
            other => Err(ClientError::Protocol(format!("expected hello-ok, got {other:?}"))),
        }
    }

    /// Subscribe a query built from raw cell ids.
    ///
    /// # Errors
    /// `DuplicateQuery`, `QuotaExceeded`, or transport failures.
    pub fn subscribe(&self, query_id: u32, cells: Vec<u64>) -> Result<(), ClientError> {
        match self.round_trip(&Request::Subscribe { query_id, cells })? {
            Reply::Ok { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!("expected ok, got {other:?}"))),
        }
    }

    /// Unsubscribe a query.
    ///
    /// # Errors
    /// `UnknownQuery` or transport failures.
    pub fn unsubscribe(&self, query_id: u32) -> Result<(), ClientError> {
        match self.round_trip(&Request::Unsubscribe { query_id })? {
            Reply::Ok { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!("expected ok, got {other:?}"))),
        }
    }

    /// Attach a stream; returns the fleet-global id its detections carry.
    ///
    /// # Errors
    /// `DuplicateStream`, `QuotaExceeded`, or transport failures.
    pub fn attach_stream(&self, stream_id: u32) -> Result<u32, ClientError> {
        match self.round_trip(&Request::AttachStream { stream_id })? {
            Reply::Attached { global_id, .. } => Ok(global_id),
            other => Err(ClientError::Protocol(format!("expected attached, got {other:?}"))),
        }
    }

    /// Fire-and-forget a bitstream chunk (no reply; ingest errors arrive
    /// asynchronously via [`Client::take_async_errors`]).
    ///
    /// # Errors
    /// Socket-level failures only.
    pub fn send_chunk(&self, stream_id: u32, bytes: Vec<u8>) -> Result<(), ClientError> {
        self.write_frame(&Request::StreamData { stream_id, bytes })
    }

    /// Orderly end of stream: flushes the partial window server-side.
    ///
    /// # Errors
    /// `UnknownStream`, `BadBitstream`, or transport failures.
    pub fn end_stream(&self, stream_id: u32) -> Result<StreamEndInfo, ClientError> {
        match self.round_trip(&Request::StreamEnd { stream_id })? {
            Reply::StreamEndAck { keyframes, frames_dropped, bytes_skipped, resyncs, .. } => {
                Ok(StreamEndInfo { keyframes, frames_dropped, bytes_skipped, resyncs })
            }
            other => Err(ClientError::Protocol(format!("expected ack, got {other:?}"))),
        }
    }

    /// Abandon a stream without flushing.
    ///
    /// # Errors
    /// `UnknownStream` or transport failures.
    pub fn detach_stream(&self, stream_id: u32) -> Result<(), ClientError> {
        match self.round_trip(&Request::DetachStream { stream_id })? {
            Reply::Ok { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!("expected ok, got {other:?}"))),
        }
    }

    /// Fetch the daemon's health/stats snapshot.
    ///
    /// # Errors
    /// Transport failures.
    pub fn health(&self) -> Result<HealthReport, ClientError> {
        match self.round_trip(&Request::Health)? {
            Reply::Health(report) => Ok(report),
            other => Err(ClientError::Protocol(format!("expected health, got {other:?}"))),
        }
    }

    /// Ask the daemon to drain and exit.
    ///
    /// # Errors
    /// Transport failures.
    pub fn shutdown_server(&self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Reply::Ok { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!("expected ok, got {other:?}"))),
        }
    }

    /// Stop (or resume) consuming server pushes — the stalled-reader
    /// primitive: a paused client grants no credit, so its queue on the
    /// server overflows deterministically while everyone else runs on.
    pub fn pause_reading(&self, paused: bool) {
        self.shared.paused.store(paused, Ordering::SeqCst);
    }

    /// Detections received since the last call.
    pub fn take_detections(&self) -> Vec<DetectionEvent> {
        std::mem::take(&mut self.shared.inbox.lock().detections)
    }

    /// Asynchronous server errors received since the last call.
    pub fn take_async_errors(&self) -> Vec<(ErrorCode, String)> {
        std::mem::take(&mut self.shared.inbox.lock().errors)
    }

    /// Total detections the server told us it dropped for this session.
    pub fn lagged_total(&self) -> u64 {
        self.shared.lagged_total.load(Ordering::SeqCst)
    }

    /// Whether the server's final `Drained` frame has arrived.
    pub fn drained(&self) -> bool {
        self.shared.drained.load(Ordering::SeqCst)
    }

    /// Whether the connection has closed.
    pub fn closed(&self) -> bool {
        self.shared.closed.load(Ordering::SeqCst)
    }

    /// Wait until `Drained` arrives or the connection closes.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        if self.drained() {
            return true;
        }
        // The reader thread's signal, its exit or the timeout: whichever
        // ended the wait, the flag (set before the signal is sent, and
        // before the thread exits) is the answer.
        match self.drained_rx.recv_timeout(timeout) {
            Ok(()) | Err(_) => self.drained(),
        }
    }

    /// Orderly close: `Goodbye`, then socket shutdown.
    pub fn close(mut self) {
        // vdsms-lint: allow(no-swallowed-error) reason="goodbye is best-effort courtesy; the socket shutdown below is the real close and works on a dead peer too"
        let _ = self.round_trip(&Request::Goodbye);
        self.writer.lock().shutdown();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.writer.lock().shutdown();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// The reader thread: demultiplex server frames until EOF/error.
fn read_loop(
    mut conn: Conn,
    reply_tx: &Sender<Reply>,
    drained_tx: &Sender<()>,
    shared: &Arc<Shared>,
) {
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 16 * 1024];
    let mut to_credit: u64 = 0;
    loop {
        if shared.paused.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(READ_TICK_MS));
            continue;
        }
        // Flush any credit owed from frames consumed while processing.
        if to_credit >= CREDIT_BATCH {
            let frame = encode_request(&Request::Credit { n: to_credit });
            if conn.write_all(&frame).is_ok() {
                to_credit = 0;
            }
        }
        match conn.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&tmp[..n]);
                let mut consumed = 0usize;
                loop {
                    match peek_frame(&buf[consumed..], MAX_FRAME_LEN_DEFAULT) {
                        FrameStatus::NeedMore => break,
                        FrameStatus::Oversized { .. } => {
                            // A server that frames nonsense has left the
                            // protocol; the session is unusable.
                            shared.closed.store(true, Ordering::SeqCst);
                            return;
                        }
                        FrameStatus::Frame { start, end } => {
                            let body = &buf[consumed + start..consumed + end];
                            match parse_reply(body) {
                                Err(_) => {
                                    shared.closed.store(true, Ordering::SeqCst);
                                    return;
                                }
                                Ok(reply) => {
                                    to_credit += dispatch(reply, reply_tx, drained_tx, shared);
                                }
                            }
                            consumed += end;
                        }
                    }
                }
                if consumed > 0 {
                    buf.drain(..consumed);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                // Idle: return any leftover credit below the batch
                // threshold so a server running on a small credit
                // window is never starved between pushes.
                if to_credit > 0 {
                    let frame = encode_request(&Request::Credit { n: to_credit });
                    if conn.write_all(&frame).is_ok() {
                        to_credit = 0;
                    }
                }
            }
            Err(_) => break,
        }
    }
    shared.closed.store(true, Ordering::SeqCst);
}

/// Route one server frame; returns how much credit its consumption earns.
fn dispatch(
    reply: Reply,
    reply_tx: &Sender<Reply>,
    drained_tx: &Sender<()>,
    shared: &Arc<Shared>,
) -> u64 {
    match reply {
        Reply::Detection { query_id, stream_id, start_frame, end_frame, windows, similarity } => {
            shared.inbox.lock().detections.push(DetectionEvent {
                query_id,
                stream_id,
                start_frame,
                end_frame,
                windows,
                similarity,
            });
            1
        }
        Reply::Lagged { missed } => {
            shared.lagged_total.fetch_add(missed, Ordering::SeqCst);
            0
        }
        Reply::Drained => {
            shared.drained.store(true, Ordering::SeqCst);
            let _ = drained_tx.send_best_effort(());
            0
        }
        Reply::Error { re, code, msg } if re == 0 || re == crate::protocol::TAG_STREAM_DATA => {
            // Untied to any round trip: surface asynchronously.
            shared.inbox.lock().errors.push((code, msg));
            0
        }
        other => {
            let _ = reply_tx.send_best_effort(other);
            0
        }
    }
}

/// Whether `reply` can be the answer to `req`: every reply names the
/// request it answers, by tag or by the stream it is about.
fn answers(req: &Request, reply: &Reply) -> bool {
    match (reply, req) {
        (Reply::Ok { re } | Reply::Error { re, .. }, _) => *re == req.tag(),
        (Reply::HelloOk { .. }, Request::Hello { .. }) | (Reply::Health(_), Request::Health) => {
            true
        }
        (Reply::Attached { stream_id: got, .. }, Request::AttachStream { stream_id })
        | (Reply::StreamEndAck { stream_id: got, .. }, Request::StreamEnd { stream_id }) => {
            got == stream_id
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_reply, parse_request, LEN_PREFIX, TAG_HELLO};

    /// A client on one end of a socket pair; the test plays the server
    /// on the other.
    fn connected() -> (Client, UnixStream) {
        let (ours, theirs) = UnixStream::pair().unwrap();
        (Client::start(Conn::Unix(ours)).unwrap(), theirs)
    }

    fn read_request(server: &mut UnixStream) -> Request {
        let mut len = [0u8; LEN_PREFIX];
        server.read_exact(&mut len).unwrap();
        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
        server.read_exact(&mut body).unwrap();
        parse_request(&body).unwrap()
    }

    fn write_reply(server: &mut UnixStream, reply: &Reply) {
        server.write_all(&encode_reply(reply)).unwrap();
    }

    /// Longer than any test should take: a wait that ends sooner was
    /// ended by the event under test, not by its bound.
    const LONG: Duration = Duration::from_secs(60);

    #[test]
    fn a_silent_server_times_the_round_trip_out_at_the_bound() {
        let (client, _server) = connected();
        let got = client.round_trip_within(&Request::Health, Duration::from_millis(50));
        assert!(matches!(got, Err(ClientError::Timeout)), "{got:?}");
    }

    #[test]
    fn a_server_that_closes_mid_round_trip_is_reported_closed_at_once() {
        let (client, mut server) = connected();
        let closer = std::thread::spawn(move || {
            assert_eq!(read_request(&mut server), Request::Health);
            // Dropping `server` closes the connection with no reply.
        });
        let got = client.round_trip_within(&Request::Health, LONG);
        assert!(matches!(got, Err(ClientError::Closed)), "{got:?}");
        closer.join().unwrap();
    }

    #[test]
    fn a_typed_error_written_just_before_the_close_is_still_surfaced() {
        let (client, mut server) = connected();
        let refuser = std::thread::spawn(move || {
            assert!(matches!(read_request(&mut server), Request::Hello { .. }));
            write_reply(
                &mut server,
                &Reply::Error { re: TAG_HELLO, code: ErrorCode::BadVersion, msg: "no".into() },
            );
        });
        // The reader thread forwards the error and then sees the close;
        // whichever the round trip wakes for, the reply comes out first.
        let hello = Request::Hello { version: 999, tenant: 0 };
        let first = client.round_trip_within(&hello, LONG);
        assert!(
            matches!(first, Err(ClientError::Server { code: ErrorCode::BadVersion, .. })),
            "{first:?}"
        );
        refuser.join().unwrap();
        let second = client.round_trip_within(&Request::Health, LONG);
        assert!(matches!(second, Err(ClientError::Closed | ClientError::Io(_))), "{second:?}");
    }

    #[test]
    fn a_late_reply_is_not_handed_to_the_next_request() {
        let (client, mut server) = connected();
        let slow = std::thread::spawn(move || {
            // Answer the first request only once the second has arrived,
            // i.e. after the client gave up on it.
            assert_eq!(read_request(&mut server), Request::Health);
            assert_eq!(read_request(&mut server), Request::AttachStream { stream_id: 7 });
            write_reply(&mut server, &Reply::Health(HealthReport::default()));
            write_reply(&mut server, &Reply::Attached { stream_id: 7, global_id: 42 });
            assert_eq!(read_request(&mut server), Request::Health);
            write_reply(
                &mut server,
                &Reply::Health(HealthReport { sessions: 5, ..Default::default() }),
            );
            server
        });
        let first = client.round_trip_within(&Request::Health, Duration::from_millis(50));
        assert!(matches!(first, Err(ClientError::Timeout)), "{first:?}");
        let second = client.round_trip_within(&Request::AttachStream { stream_id: 7 }, LONG);
        assert!(
            matches!(second, Ok(Reply::Attached { stream_id: 7, global_id: 42 })),
            "{second:?}"
        );
        // Nothing is owed any more: the next reply is taken as it comes.
        let third = client.round_trip_within(&Request::Health, LONG);
        assert!(matches!(third, Ok(Reply::Health(h)) if h.sessions == 5), "{third:?}");
        drop(slow.join().unwrap());
    }
}
