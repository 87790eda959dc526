//! The `vdsms serve` wire protocol: length-prefixed binary frames.
//!
//! Every frame is `len: u32le` followed by `len` body bytes; the first
//! body byte is the frame tag, the rest is tag-specific and encoded
//! with the codec crate's varint primitives
//! ([`vdsms_codec::bitio::ByteWriter`] / `ByteReader`) — the same
//! machinery the bitstream uses, so the protocol layer is fuzz-able
//! with the decoder-fuzz idiom. The length prefix is validated against
//! a configured cap *before* any allocation: an oversized length can
//! never make the server reserve memory for it.
//!
//! Grammar (client → server tags `0x01..`, server → client `0x81..`):
//!
//! ```text
//! frame        := len:u32le body[len]            (len >= 1, len <= max_frame_len)
//! hello        := 0x01 version:v tenant:v
//! subscribe    := 0x02 query_id:v n:v cell:v{n}
//! unsubscribe  := 0x03 query_id:v
//! attach       := 0x04 stream_id:v
//! stream_data  := 0x05 stream_id:v bytes*        (bytes = rest of body)
//! stream_end   := 0x06 stream_id:v
//! detach       := 0x07 stream_id:v
//! health       := 0x08
//! credit       := 0x09 n:v
//! goodbye      := 0x0a
//! shutdown     := 0x0b
//!
//! hello_ok     := 0x81 version:v session:v
//! ok           := 0x82 re:u8
//! error        := 0x83 re:u8 code:u8 n:v msg[n]
//! detection    := 0x84 query_id:v stream_id:v start:v end:v windows:v sim:u32le*2
//! lagged       := 0x85 missed:v
//! health_rep   := 0x86 <fixed varint field list, see HealthReport>
//! end_ack      := 0x87 stream_id:v keyframes:v dropped:v skipped:v resyncs:v
//! attached     := 0x88 stream_id:v global_id:v
//! drained      := 0x89
//! ```
//!
//! (`v` = codec varint; `sim` is the detection similarity's `f64` bit
//! pattern split into two `u32le` words, so a round trip is bit-exact.)

use vdsms_codec::bitio::{ByteReader, ByteWriter};

/// Protocol version spoken by this build; `Hello` must match.
pub const PROTOCOL_VERSION: u64 = 1;

/// Byte length of the frame length prefix.
pub const LEN_PREFIX: usize = 4;

/// Default cap on one frame's body length (1 MiB).
pub const MAX_FRAME_LEN_DEFAULT: usize = 1 << 20;

// Client → server frame tags.
pub(crate) const TAG_HELLO: u8 = 0x01;
pub(crate) const TAG_SUBSCRIBE: u8 = 0x02;
pub(crate) const TAG_UNSUBSCRIBE: u8 = 0x03;
pub(crate) const TAG_ATTACH: u8 = 0x04;
pub(crate) const TAG_STREAM_DATA: u8 = 0x05;
pub(crate) const TAG_STREAM_END: u8 = 0x06;
pub(crate) const TAG_DETACH: u8 = 0x07;
pub(crate) const TAG_HEALTH: u8 = 0x08;
pub(crate) const TAG_CREDIT: u8 = 0x09;
pub(crate) const TAG_GOODBYE: u8 = 0x0a;
pub(crate) const TAG_SHUTDOWN: u8 = 0x0b;

// Server → client frame tags.
pub(crate) const TAG_HELLO_OK: u8 = 0x81;
pub(crate) const TAG_OK: u8 = 0x82;
pub(crate) const TAG_ERROR: u8 = 0x83;
pub(crate) const TAG_DETECTION: u8 = 0x84;
pub(crate) const TAG_LAGGED: u8 = 0x85;
pub(crate) const TAG_HEALTH_REPORT: u8 = 0x86;
pub(crate) const TAG_STREAM_END_ACK: u8 = 0x87;
pub(crate) const TAG_ATTACHED: u8 = 0x88;
pub(crate) const TAG_DRAINED: u8 = 0x89;

/// Typed protocol error codes carried by `error` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame body did not parse (bad tag, truncated field, bad
    /// count). Fatal: after garbage, framing can no longer be trusted.
    Malformed = 1,
    /// The frame length prefix exceeded the configured cap. Fatal.
    Oversized = 2,
    /// The server is at its session limit; the connection is refused.
    AdmissionDenied = 3,
    /// A per-tenant or per-session quota (subscriptions, streams) is
    /// exhausted. Recoverable: the session continues.
    QuotaExceeded = 4,
    /// The referenced stream id is not attached on this session.
    UnknownStream = 5,
    /// The stream id is already attached on this session.
    DuplicateStream = 6,
    /// The referenced query id is not subscribed on this session.
    UnknownQuery = 7,
    /// The query id is already subscribed on this session.
    DuplicateQuery = 8,
    /// Stream bytes could not be ingested (bad header, unrecoverable
    /// corruption, or per-stream buffer overflow). The stream is
    /// detached; the session continues.
    BadBitstream = 9,
    /// A request other than `hello` arrived before `hello`. Fatal.
    HelloRequired = 10,
    /// The server is draining and accepts no new work. Recoverable: a
    /// `drained` frame follows.
    ShuttingDown = 11,
    /// The session sent nothing for longer than the idle timeout. Fatal.
    IdleTimeout = 12,
    /// `hello` named an unsupported protocol version. Fatal.
    BadVersion = 13,
    /// The request's handler panicked; the reply is best-effort and the
    /// session state for that request may be inconsistent.
    Internal = 14,
}

impl ErrorCode {
    /// Decode a wire byte.
    pub fn from_byte(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Oversized,
            3 => ErrorCode::AdmissionDenied,
            4 => ErrorCode::QuotaExceeded,
            5 => ErrorCode::UnknownStream,
            6 => ErrorCode::DuplicateStream,
            7 => ErrorCode::UnknownQuery,
            8 => ErrorCode::DuplicateQuery,
            9 => ErrorCode::BadBitstream,
            10 => ErrorCode::HelloRequired,
            11 => ErrorCode::ShuttingDown,
            12 => ErrorCode::IdleTimeout,
            13 => ErrorCode::BadVersion,
            14 => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// Whether the server closes the session after reporting this code.
    pub fn is_fatal(self) -> bool {
        matches!(
            self,
            ErrorCode::Malformed
                | ErrorCode::Oversized
                | ErrorCode::AdmissionDenied
                | ErrorCode::HelloRequired
                | ErrorCode::IdleTimeout
                | ErrorCode::BadVersion
        )
    }
}

/// A wire-level parse failure (distinct from [`ErrorCode`], which is
/// what the server *reports*; a `WireError` is what the parser *finds*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before a field did.
    Truncated,
    /// Unknown frame tag.
    BadTag(u8),
    /// A field failed validation (named for diagnostics).
    BadField(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame body truncated"),
            WireError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            WireError::BadField(name) => write!(f, "bad frame field: {name}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A client → server request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open the session; must be the first frame.
    Hello { version: u64, tenant: u64 },
    /// Subscribe a query (session-local id) from raw cell ids.
    Subscribe { query_id: u32, cells: Vec<u64> },
    /// Unsubscribe a session-local query id.
    Unsubscribe { query_id: u32 },
    /// Attach a stream (session-local id) for ingestion.
    AttachStream { stream_id: u32 },
    /// A chunk of raw bitstream bytes for an attached stream. Generates
    /// no reply (errors surface as asynchronous `error` frames).
    StreamData { stream_id: u32, bytes: Vec<u8> },
    /// Orderly end-of-stream: flush, detach, acknowledge.
    StreamEnd { stream_id: u32 },
    /// Abandon a stream without flushing its partial window.
    DetachStream { stream_id: u32 },
    /// Request a health/stats report.
    Health,
    /// Grant the server `n` more droppable pushes (flow control).
    Credit { n: u64 },
    /// Orderly session close.
    Goodbye,
    /// Ask the daemon to drain and exit.
    Shutdown,
}

impl Request {
    /// The frame tag this request is sent under — what an `ok` or
    /// `error` reply to it carries as `re`.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            Request::Hello { .. } => TAG_HELLO,
            Request::Subscribe { .. } => TAG_SUBSCRIBE,
            Request::Unsubscribe { .. } => TAG_UNSUBSCRIBE,
            Request::AttachStream { .. } => TAG_ATTACH,
            Request::StreamData { .. } => TAG_STREAM_DATA,
            Request::StreamEnd { .. } => TAG_STREAM_END,
            Request::DetachStream { .. } => TAG_DETACH,
            Request::Health => TAG_HEALTH,
            Request::Credit { .. } => TAG_CREDIT,
            Request::Goodbye => TAG_GOODBYE,
            Request::Shutdown => TAG_SHUTDOWN,
        }
    }
}

/// A server → client reply or push.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `Hello` accepted.
    HelloOk { version: u64, session: u64 },
    /// Generic success for the request tagged `re`.
    Ok { re: u8 },
    /// Typed failure for the request tagged `re` (0 for asynchronous
    /// errors not tied to a request round trip).
    Error { re: u8, code: ErrorCode, msg: String },
    /// An asynchronous detection push (droppable under backpressure).
    Detection {
        query_id: u32,
        stream_id: u32,
        start_frame: u64,
        end_frame: u64,
        windows: u64,
        similarity: f64,
    },
    /// `missed` droppable frames were discarded for this session since
    /// the last `Lagged` — the overflow policy's accounting.
    Lagged { missed: u64 },
    /// Health/stats snapshot.
    Health(HealthReport),
    /// `StreamEnd` completed; final per-stream ingest accounting.
    StreamEndAck {
        stream_id: u32,
        keyframes: u64,
        frames_dropped: u64,
        bytes_skipped: u64,
        resyncs: u64,
    },
    /// `AttachStream` completed; the fleet-global stream id detections
    /// will carry.
    Attached { stream_id: u32, global_id: u32 },
    /// The daemon finished draining; no further frames follow.
    Drained,
}

/// The health/stats snapshot a `health` request returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Open sessions.
    pub sessions: u64,
    /// Attached streams across all sessions.
    pub streams: u64,
    /// Subscribed queries across all sessions.
    pub queries: u64,
    /// Fleet worker restarts ([`vdsms_core::Stats::shard_restarts`]).
    pub shard_restarts: u64,
    /// Upper bound on frames lost to worker crashes.
    pub frames_lost: u64,
    /// Damaged records skipped across all streams' ingest.
    pub frames_dropped: u64,
    /// Bytes skipped while resyncing damaged streams.
    pub bytes_skipped: u64,
    /// Resync events across all streams' ingest.
    pub resyncs: u64,
    /// Streams whose ingest health is not clean.
    pub degraded_streams: u64,
    /// Outbound frames queued for the requesting tenant's sessions.
    pub queue_depth: u64,
    /// Droppable frames discarded for the requesting tenant so far.
    pub queue_dropped: u64,
    /// Detections evaluated by the fleet.
    pub detections: u64,
    /// Windows evaluated by the fleet.
    pub windows: u64,
}

/// Result of scanning a receive buffer for one complete frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameStatus {
    /// Not enough bytes yet; read more.
    NeedMore,
    /// The length prefix exceeds the cap — reject before allocating.
    Oversized {
        /// The declared body length.
        len: usize,
    },
    /// One complete frame: body is `buf[start..end]`; consume
    /// `end` bytes.
    Frame {
        /// Body start offset in the scanned buffer.
        start: usize,
        /// Body end offset; also the total bytes to consume.
        end: usize,
    },
}

/// Scan `buf` for one complete frame without copying or allocating.
pub fn peek_frame(buf: &[u8], max_frame_len: usize) -> FrameStatus {
    if buf.len() < LEN_PREFIX {
        return FrameStatus::NeedMore;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > max_frame_len {
        return FrameStatus::Oversized { len };
    }
    let Some(end) = LEN_PREFIX.checked_add(len) else {
        return FrameStatus::Oversized { len };
    };
    if buf.len() < end {
        return FrameStatus::NeedMore;
    }
    FrameStatus::Frame { start: LEN_PREFIX, end }
}

/// Wrap a finished body in the length prefix.
fn frame(body: ByteWriter) -> Vec<u8> {
    let body = body.into_bytes();
    let mut out = Vec::with_capacity(LEN_PREFIX + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Encode a request into a complete wire frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(req.tag());
    match req {
        Request::Hello { version, tenant } => {
            w.put_varint(*version);
            w.put_varint(*tenant);
        }
        Request::Subscribe { query_id, cells } => {
            w.put_varint(u64::from(*query_id));
            w.put_varint(cells.len() as u64);
            for &c in cells {
                w.put_varint(c);
            }
        }
        Request::Unsubscribe { query_id } => w.put_varint(u64::from(*query_id)),
        Request::StreamData { stream_id, bytes } => {
            w.put_varint(u64::from(*stream_id));
            w.put_bytes(bytes);
        }
        Request::AttachStream { stream_id }
        | Request::StreamEnd { stream_id }
        | Request::DetachStream { stream_id } => w.put_varint(u64::from(*stream_id)),
        Request::Credit { n } => w.put_varint(*n),
        Request::Health | Request::Goodbye | Request::Shutdown => {}
    }
    frame(w)
}

/// Encode a reply into a complete wire frame.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match reply {
        Reply::HelloOk { version, session } => {
            w.put_u8(TAG_HELLO_OK);
            w.put_varint(*version);
            w.put_varint(*session);
        }
        Reply::Ok { re } => {
            w.put_u8(TAG_OK);
            w.put_u8(*re);
        }
        Reply::Error { re, code, msg } => {
            w.put_u8(TAG_ERROR);
            w.put_u8(*re);
            w.put_u8(*code as u8);
            let bytes = msg.as_bytes();
            w.put_varint(bytes.len() as u64);
            w.put_bytes(bytes);
        }
        Reply::Detection { query_id, stream_id, start_frame, end_frame, windows, similarity } => {
            w.put_u8(TAG_DETECTION);
            w.put_varint(u64::from(*query_id));
            w.put_varint(u64::from(*stream_id));
            w.put_varint(*start_frame);
            w.put_varint(*end_frame);
            w.put_varint(*windows);
            let bits = similarity.to_bits();
            w.put_u32_le(bits as u32);
            w.put_u32_le((bits >> 32) as u32);
        }
        Reply::Lagged { missed } => {
            w.put_u8(TAG_LAGGED);
            w.put_varint(*missed);
        }
        Reply::Health(h) => {
            w.put_u8(TAG_HEALTH_REPORT);
            for v in [
                h.sessions,
                h.streams,
                h.queries,
                h.shard_restarts,
                h.frames_lost,
                h.frames_dropped,
                h.bytes_skipped,
                h.resyncs,
                h.degraded_streams,
                h.queue_depth,
                h.queue_dropped,
                h.detections,
                h.windows,
            ] {
                w.put_varint(v);
            }
        }
        Reply::StreamEndAck { stream_id, keyframes, frames_dropped, bytes_skipped, resyncs } => {
            w.put_u8(TAG_STREAM_END_ACK);
            w.put_varint(u64::from(*stream_id));
            w.put_varint(*keyframes);
            w.put_varint(*frames_dropped);
            w.put_varint(*bytes_skipped);
            w.put_varint(*resyncs);
        }
        Reply::Attached { stream_id, global_id } => {
            w.put_u8(TAG_ATTACHED);
            w.put_varint(u64::from(*stream_id));
            w.put_varint(u64::from(*global_id));
        }
        Reply::Drained => w.put_u8(TAG_DRAINED),
    }
    frame(w)
}

/// Read a varint that must fit a `u32` id.
fn get_id(r: &mut ByteReader<'_>, field: &'static str) -> Result<u32, WireError> {
    let v = r.get_varint().map_err(|_| WireError::Truncated)?;
    u32::try_from(v).map_err(|_| WireError::BadField(field))
}

/// A request as the daemon's session reader parses it: a `StreamData`
/// body stays borrowed from the receive buffer, everything else is an
/// owned [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inbound<'a> {
    /// A chunk of raw bitstream bytes for an attached stream, still in
    /// the buffer the frame was received into.
    StreamData { stream_id: u32, bytes: &'a [u8] },
    /// Any other request.
    Request(Request),
}

/// Parse a request frame body (everything after the length prefix)
/// without copying stream bytes out of it. Bounded memory: element
/// counts are validated against the remaining body bytes before any
/// allocation sized from them.
pub fn parse_inbound(body: &[u8]) -> Result<Inbound<'_>, WireError> {
    let mut r = ByteReader::new(body);
    let tag = r.get_u8().map_err(|_| WireError::Truncated)?;
    let req = match tag {
        TAG_HELLO => {
            let version = r.get_varint().map_err(|_| WireError::Truncated)?;
            let tenant = r.get_varint().map_err(|_| WireError::Truncated)?;
            Request::Hello { version, tenant }
        }
        TAG_SUBSCRIBE => {
            let query_id = get_id(&mut r, "query id")?;
            let n = r.get_varint().map_err(|_| WireError::Truncated)?;
            // Each cell takes at least one body byte, so a count beyond
            // the remaining bytes is lying about the payload.
            if n as usize > r.remaining() {
                return Err(WireError::BadField("cell count"));
            }
            let mut cells = Vec::with_capacity(n as usize);
            for _ in 0..n {
                cells.push(r.get_varint().map_err(|_| WireError::Truncated)?);
            }
            Request::Subscribe { query_id, cells }
        }
        TAG_UNSUBSCRIBE => Request::Unsubscribe { query_id: get_id(&mut r, "query id")? },
        TAG_ATTACH => Request::AttachStream { stream_id: get_id(&mut r, "stream id")? },
        TAG_STREAM_DATA => {
            // The bytes are the rest of the body: nothing can trail them.
            let stream_id = get_id(&mut r, "stream id")?;
            let n = r.remaining();
            let bytes = r.get_bytes(n).map_err(|_| WireError::Truncated)?;
            return Ok(Inbound::StreamData { stream_id, bytes });
        }
        TAG_STREAM_END => Request::StreamEnd { stream_id: get_id(&mut r, "stream id")? },
        TAG_DETACH => Request::DetachStream { stream_id: get_id(&mut r, "stream id")? },
        TAG_HEALTH => Request::Health,
        TAG_CREDIT => Request::Credit { n: r.get_varint().map_err(|_| WireError::Truncated)? },
        TAG_GOODBYE => Request::Goodbye,
        TAG_SHUTDOWN => Request::Shutdown,
        other => return Err(WireError::BadTag(other)),
    };
    if !r.is_at_end() {
        return Err(WireError::BadField("trailing bytes"));
    }
    Ok(Inbound::Request(req))
}

/// Parse a request frame body into an owned [`Request`]: [`parse_inbound`]
/// with a `StreamData` body copied out of `body`.
pub fn parse_request(body: &[u8]) -> Result<Request, WireError> {
    Ok(match parse_inbound(body)? {
        Inbound::StreamData { stream_id, bytes } => {
            Request::StreamData { stream_id, bytes: bytes.to_vec() }
        }
        Inbound::Request(req) => req,
    })
}

/// Parse a reply frame body (everything after the length prefix).
pub fn parse_reply(body: &[u8]) -> Result<Reply, WireError> {
    let mut r = ByteReader::new(body);
    let tag = r.get_u8().map_err(|_| WireError::Truncated)?;
    let reply = match tag {
        TAG_HELLO_OK => {
            let version = r.get_varint().map_err(|_| WireError::Truncated)?;
            let session = r.get_varint().map_err(|_| WireError::Truncated)?;
            Reply::HelloOk { version, session }
        }
        TAG_OK => Reply::Ok { re: r.get_u8().map_err(|_| WireError::Truncated)? },
        TAG_ERROR => {
            let re = r.get_u8().map_err(|_| WireError::Truncated)?;
            let code_byte = r.get_u8().map_err(|_| WireError::Truncated)?;
            let code = ErrorCode::from_byte(code_byte).ok_or(WireError::BadField("error code"))?;
            let n = r.get_varint().map_err(|_| WireError::Truncated)? as usize;
            if n > r.remaining() {
                return Err(WireError::BadField("message length"));
            }
            let bytes = r.get_bytes(n).map_err(|_| WireError::Truncated)?;
            Reply::Error { re, code, msg: String::from_utf8_lossy(bytes).into_owned() }
        }
        TAG_DETECTION => {
            let query_id = get_id(&mut r, "query id")?;
            let stream_id = get_id(&mut r, "stream id")?;
            let start_frame = r.get_varint().map_err(|_| WireError::Truncated)?;
            let end_frame = r.get_varint().map_err(|_| WireError::Truncated)?;
            let windows = r.get_varint().map_err(|_| WireError::Truncated)?;
            let lo = r.get_u32_le().map_err(|_| WireError::Truncated)?;
            let hi = r.get_u32_le().map_err(|_| WireError::Truncated)?;
            let similarity = f64::from_bits(u64::from(lo) | (u64::from(hi) << 32));
            Reply::Detection { query_id, stream_id, start_frame, end_frame, windows, similarity }
        }
        TAG_LAGGED => Reply::Lagged { missed: r.get_varint().map_err(|_| WireError::Truncated)? },
        TAG_HEALTH_REPORT => {
            let mut vals = [0u64; 13];
            for v in &mut vals {
                *v = r.get_varint().map_err(|_| WireError::Truncated)?;
            }
            Reply::Health(HealthReport {
                sessions: vals[0],
                streams: vals[1],
                queries: vals[2],
                shard_restarts: vals[3],
                frames_lost: vals[4],
                frames_dropped: vals[5],
                bytes_skipped: vals[6],
                resyncs: vals[7],
                degraded_streams: vals[8],
                queue_depth: vals[9],
                queue_dropped: vals[10],
                detections: vals[11],
                windows: vals[12],
            })
        }
        TAG_STREAM_END_ACK => {
            let stream_id = get_id(&mut r, "stream id")?;
            let keyframes = r.get_varint().map_err(|_| WireError::Truncated)?;
            let frames_dropped = r.get_varint().map_err(|_| WireError::Truncated)?;
            let bytes_skipped = r.get_varint().map_err(|_| WireError::Truncated)?;
            let resyncs = r.get_varint().map_err(|_| WireError::Truncated)?;
            Reply::StreamEndAck { stream_id, keyframes, frames_dropped, bytes_skipped, resyncs }
        }
        TAG_ATTACHED => {
            let stream_id = get_id(&mut r, "stream id")?;
            let global_id = get_id(&mut r, "global id")?;
            Reply::Attached { stream_id, global_id }
        }
        TAG_DRAINED => Reply::Drained,
        other => return Err(WireError::BadTag(other)),
    };
    if !r.is_at_end() {
        return Err(WireError::BadField("trailing bytes"));
    }
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Hello { version: PROTOCOL_VERSION, tenant: 42 },
            Request::Subscribe { query_id: 7, cells: vec![1, 2, u64::MAX] },
            Request::Unsubscribe { query_id: 7 },
            Request::AttachStream { stream_id: 3 },
            Request::StreamData { stream_id: 3, bytes: vec![0, 1, 2, 255] },
            Request::StreamEnd { stream_id: 3 },
            Request::DetachStream { stream_id: 3 },
            Request::Health,
            Request::Credit { n: 64 },
            Request::Goodbye,
            Request::Shutdown,
        ];
        for req in cases {
            let bytes = encode_request(&req);
            match peek_frame(&bytes, MAX_FRAME_LEN_DEFAULT) {
                FrameStatus::Frame { start, end } => {
                    assert_eq!(end, bytes.len());
                    assert_eq!(parse_request(&bytes[start..end]).unwrap(), req);
                }
                other => panic!("{req:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn replies_round_trip() {
        let cases = vec![
            Reply::HelloOk { version: 1, session: 9 },
            Reply::Ok { re: TAG_SUBSCRIBE },
            Reply::Error { re: 0, code: ErrorCode::BadBitstream, msg: "oops".into() },
            Reply::Detection {
                query_id: 1,
                stream_id: 2,
                start_frame: 30,
                end_frame: 54,
                windows: 3,
                similarity: 0.123_456_789_f64,
            },
            Reply::Lagged { missed: 12 },
            Reply::Health(HealthReport { sessions: 2, detections: 5, ..Default::default() }),
            Reply::StreamEndAck {
                stream_id: 3,
                keyframes: 40,
                frames_dropped: 1,
                bytes_skipped: 77,
                resyncs: 1,
            },
            Reply::Attached { stream_id: 3, global_id: 19 },
            Reply::Drained,
        ];
        for reply in cases {
            let bytes = encode_reply(&reply);
            match peek_frame(&bytes, MAX_FRAME_LEN_DEFAULT) {
                FrameStatus::Frame { start, end } => {
                    assert_eq!(end, bytes.len());
                    assert_eq!(parse_reply(&bytes[start..end]).unwrap(), reply);
                }
                other => panic!("{reply:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn similarity_survives_bit_exact() {
        let sim = f64::from_bits(0x3FE5_5555_5555_5555); // no round decimal
        let reply = Reply::Detection {
            query_id: 0,
            stream_id: 0,
            start_frame: 0,
            end_frame: 0,
            windows: 0,
            similarity: sim,
        };
        let bytes = encode_reply(&reply);
        let FrameStatus::Frame { start, end } = peek_frame(&bytes, MAX_FRAME_LEN_DEFAULT) else {
            panic!()
        };
        let Reply::Detection { similarity, .. } = parse_reply(&bytes[start..end]).unwrap() else {
            panic!()
        };
        assert_eq!(similarity.to_bits(), sim.to_bits());
    }

    #[test]
    fn oversized_length_is_rejected_before_buffering() {
        let mut buf = (1_000_000u32).to_le_bytes().to_vec();
        buf.push(TAG_HELLO);
        assert_eq!(peek_frame(&buf, 1024), FrameStatus::Oversized { len: 1_000_000 });
    }

    #[test]
    fn truncation_asks_for_more_bytes() {
        let full = encode_request(&Request::Credit { n: 300 });
        for cut in 0..full.len() {
            assert_eq!(
                peek_frame(&full[..cut], MAX_FRAME_LEN_DEFAULT),
                FrameStatus::NeedMore,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn lying_cell_count_is_rejected_without_allocation() {
        // A subscribe frame claiming u64::MAX cells with a 3-byte body.
        let mut w = ByteWriter::new();
        w.put_u8(TAG_SUBSCRIBE);
        w.put_varint(1);
        w.put_varint(u64::MAX);
        let body = w.into_bytes();
        assert_eq!(parse_request(&body), Err(WireError::BadField("cell count")));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut w = ByteWriter::new();
        w.put_u8(TAG_HEALTH);
        w.put_u8(0xFF);
        assert_eq!(parse_request(&w.into_bytes()), Err(WireError::BadField("trailing bytes")));
    }

    #[test]
    fn fatal_codes_are_the_framing_and_admission_ones() {
        assert!(ErrorCode::Malformed.is_fatal());
        assert!(ErrorCode::Oversized.is_fatal());
        assert!(ErrorCode::AdmissionDenied.is_fatal());
        assert!(!ErrorCode::QuotaExceeded.is_fatal());
        assert!(!ErrorCode::BadBitstream.is_fatal());
        assert!(!ErrorCode::ShuttingDown.is_fatal());
        for b in 0..=255u8 {
            if let Some(code) = ErrorCode::from_byte(b) {
                assert_eq!(code as u8, b);
            }
        }
    }
}
