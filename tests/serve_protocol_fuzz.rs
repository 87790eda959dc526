//! Serve wire-protocol fuzz properties, mirroring `decoder_fuzz.rs`:
//! the codec must never panic and never hang for arbitrary byte soup,
//! truncated frames, or lying length prefixes; valid frames must
//! round-trip byte-identically (similarity travels as raw `f64` bits,
//! so the comparison is on encoded bytes, NaN included); and a live
//! daemon fed garbage must fail the offending session with a typed
//! error while staying up for everyone else.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use proptest::prelude::*;
use vdsms::serve::protocol::{
    encode_reply, encode_request, parse_inbound, parse_reply, parse_request, peek_frame,
    FrameStatus, Inbound, LEN_PREFIX, MAX_FRAME_LEN_DEFAULT,
};
use vdsms::serve::{Client, Daemon, Endpoint, ErrorCode, Reply, Request, ServeConfig};

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u64>(), any::<u64>())
            .prop_map(|(version, tenant)| Request::Hello { version, tenant }),
        (any::<u32>(), proptest::collection::vec(any::<u64>(), 0..24))
            .prop_map(|(query_id, cells)| Request::Subscribe { query_id, cells }),
        any::<u32>().prop_map(|query_id| Request::Unsubscribe { query_id }),
        any::<u32>().prop_map(|stream_id| Request::AttachStream { stream_id }),
        (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..200))
            .prop_map(|(stream_id, bytes)| Request::StreamData { stream_id, bytes }),
        any::<u32>().prop_map(|stream_id| Request::StreamEnd { stream_id }),
        any::<u32>().prop_map(|stream_id| Request::DetachStream { stream_id }),
        Just(Request::Health),
        any::<u64>().prop_map(|n| Request::Credit { n }),
        Just(Request::Goodbye),
        Just(Request::Shutdown),
    ]
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::Malformed),
        Just(ErrorCode::Oversized),
        Just(ErrorCode::AdmissionDenied),
        Just(ErrorCode::QuotaExceeded),
        Just(ErrorCode::UnknownStream),
        Just(ErrorCode::DuplicateStream),
        Just(ErrorCode::UnknownQuery),
        Just(ErrorCode::DuplicateQuery),
        Just(ErrorCode::BadBitstream),
        Just(ErrorCode::HelloRequired),
        Just(ErrorCode::ShuttingDown),
        Just(ErrorCode::IdleTimeout),
        Just(ErrorCode::BadVersion),
        Just(ErrorCode::Internal),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        (any::<u64>(), any::<u64>())
            .prop_map(|(version, session)| Reply::HelloOk { version, session }),
        any::<u8>().prop_map(|re| Reply::Ok { re }),
        (any::<u8>(), arb_error_code(), proptest::collection::vec(any::<u8>(), 0..80))
            .prop_map(|(re, code, msg)| Reply::Error {
                re,
                code,
                msg: String::from_utf8_lossy(&msg).into_owned(),
            }),
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(query_id, stream_id, start_frame, end_frame, windows, bits)| {
                Reply::Detection {
                    query_id,
                    stream_id,
                    start_frame,
                    end_frame,
                    windows,
                    // Raw bits: NaNs and infinities must survive the wire.
                    similarity: f64::from_bits(bits),
                }
            }),
        any::<u64>().prop_map(|missed| Reply::Lagged { missed }),
        (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(stream_id, keyframes, frames_dropped, bytes_skipped, resyncs)| {
                Reply::StreamEndAck {
                    stream_id,
                    keyframes,
                    frames_dropped,
                    bytes_skipped,
                    resyncs,
                }
            }
        ),
        (any::<u32>(), any::<u32>())
            .prop_map(|(stream_id, global_id)| Reply::Attached { stream_id, global_id }),
        Just(Reply::Drained),
    ]
}

/// Scan a buffer the way the session reader does; returns frames found.
/// Panics (failing the property) if a scan step fails to make progress.
fn scan_all(buf: &[u8], max_frame_len: usize) -> usize {
    let mut consumed = 0usize;
    let mut frames = 0usize;
    loop {
        match peek_frame(&buf[consumed..], max_frame_len) {
            FrameStatus::NeedMore => return frames,
            FrameStatus::Oversized { len } => {
                assert!(len > max_frame_len, "oversized with in-bounds len {len}");
                return frames;
            }
            FrameStatus::Frame { start, end } => {
                assert!(start == LEN_PREFIX, "body must start after the prefix");
                assert!(end >= start, "frame end before its body");
                assert!(consumed + end <= buf.len(), "frame end past the buffer");
                // Parsers must never panic, whatever the body holds.
                let body = &buf[consumed + start..consumed + end];
                let _ = parse_request(body);
                let _ = parse_reply(body);
                frames += 1;
                consumed += end;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary byte soup: frame scanning terminates, never panics, and
    /// every framed body parses to `Ok` or a typed `WireError`.
    #[test]
    fn byte_soup_never_panics_or_hangs(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        max_shift in 4u32..18,
    ) {
        scan_all(&bytes, MAX_FRAME_LEN_DEFAULT);
        scan_all(&bytes, 1usize << max_shift);
    }

    /// The daemon's borrowed parser and `parse_request` agree on any
    /// body: the same request (stream bytes borrowed from the body
    /// instead of copied) or the same typed error. Every tag, valid or
    /// not, leads a soup tail.
    #[test]
    fn the_borrowed_parser_agrees_with_parse_request(
        tag in 0u8..16,
        tail in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let body = [&[tag][..], &tail].concat();
        let borrowed = match parse_inbound(&body) {
            Ok(Inbound::StreamData { stream_id, bytes }) => {
                // A view into the body, not a copy of it.
                prop_assert!(std::ptr::eq(bytes.as_ptr_range().end, body.as_ptr_range().end));
                Ok(Request::StreamData { stream_id, bytes: bytes.to_vec() })
            }
            Ok(Inbound::Request(req)) => Ok(req),
            Err(e) => Err(e),
        };
        prop_assert_eq!(borrowed, parse_request(&body));
    }

    /// Requests round-trip byte-identically through encode → frame scan
    /// → parse → re-encode.
    #[test]
    fn requests_round_trip(req in arb_request()) {
        let wire = encode_request(&req);
        let FrameStatus::Frame { start, end } = peek_frame(&wire, MAX_FRAME_LEN_DEFAULT)
        else {
            panic!("encoded request did not scan as one frame");
        };
        prop_assert_eq!(end, wire.len());
        let parsed = parse_request(&wire[start..end]).expect("encoded request must parse");
        prop_assert_eq!(encode_request(&parsed), wire);
    }

    /// Replies round-trip byte-identically — including `Detection`
    /// similarities that are NaN or infinite, which is why the
    /// comparison is on encoded bytes rather than values.
    #[test]
    fn replies_round_trip(reply in arb_reply()) {
        let wire = encode_reply(&reply);
        let FrameStatus::Frame { start, end } = peek_frame(&wire, MAX_FRAME_LEN_DEFAULT)
        else {
            panic!("encoded reply did not scan as one frame");
        };
        prop_assert_eq!(end, wire.len());
        let parsed = parse_reply(&wire[start..end]).expect("encoded reply must parse");
        prop_assert_eq!(encode_reply(&parsed), wire);
    }

    /// Any strict prefix of a valid frame reads as `NeedMore` (never a
    /// short parse), and truncated bodies fail typed, not loudly.
    #[test]
    fn truncation_is_need_more_not_a_panic(
        req in arb_request(),
        cut_frac in 0.0f64..1.0,
    ) {
        let wire = encode_request(&req);
        let cut = ((wire.len() - 1) as f64 * cut_frac) as usize;
        prop_assert_eq!(peek_frame(&wire[..cut], MAX_FRAME_LEN_DEFAULT), FrameStatus::NeedMore);
        if cut > LEN_PREFIX {
            // A truncated body must parse to a typed error or to some
            // shorter valid frame — never panic.
            let _ = parse_request(&wire[LEN_PREFIX..cut]);
            let _ = parse_reply(&wire[LEN_PREFIX..cut]);
        }
    }

    /// A lying length prefix is rejected before any buffering: the scan
    /// reports `Oversized` with the declared length, for any tail.
    #[test]
    fn lying_length_prefix_is_rejected_without_buffering(
        declared in (MAX_FRAME_LEN_DEFAULT as u64 + 1)..u32::MAX as u64,
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut wire = (declared as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&tail);
        prop_assert_eq!(
            peek_frame(&wire, MAX_FRAME_LEN_DEFAULT),
            FrameStatus::Oversized { len: declared as usize }
        );
    }
}

/// A live daemon fed protocol garbage: each hostile connection is failed
/// with a typed error and closed, the daemon survives all of them, and a
/// well-behaved client still gets full service afterwards.
#[test]
fn a_live_daemon_survives_hostile_connections() {
    let cfg = ServeConfig {
        // A small frame cap so the lying-length-prefix probe is cheap.
        max_frame_len: 4096,
        ..ServeConfig::default()
    };
    let daemon = Daemon::bind(&Endpoint::Tcp("127.0.0.1:0".into()), cfg).expect("bind");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    // Hostile sequences: raw soup, an oversized length prefix, a valid
    // hello followed by soup, and a request before hello.
    let hello = encode_request(&Request::Hello { version: 1, tenant: 0 });
    let subscribe = encode_request(&Request::Subscribe { query_id: 1, cells: vec![1, 2, 3] });
    let mut oversized = (u32::MAX).to_le_bytes().to_vec();
    oversized.extend_from_slice(&[0xAA; 32]);
    let soup: Vec<u8> = (0..512u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
    let sequences: Vec<Vec<u8>> = vec![
        soup.clone(),
        oversized,
        [hello.clone(), soup].concat(),
        subscribe, // before hello → HelloRequired
        vec![0x00, 0x00, 0x00, 0x00], // zero-length frame → malformed
    ];

    for (i, seq) in sequences.iter().enumerate() {
        let mut conn = TcpStream::connect(&addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // The server may close mid-write; that is the expected outcome,
        // not a test failure.
        let _ = conn.write_all(seq);
        // The server must close the connection within the timeout —
        // reading to EOF both proves that and drains any error frame.
        let mut reply = Vec::new();
        let mut tmp = [0u8; 4096];
        loop {
            match conn.read(&mut tmp) {
                Ok(0) => break,
                Ok(n) => {
                    reply.extend_from_slice(&tmp[..n]);
                    assert!(reply.len() < 1 << 20, "unbounded error reply on sequence {i}");
                }
                Err(e) => panic!("sequence {i}: server neither replied nor closed: {e}"),
            }
        }
        // Whatever came back must itself be well-formed protocol.
        let mut consumed = 0usize;
        while let FrameStatus::Frame { start, end } = peek_frame(&reply[consumed..], 1 << 20) {
            parse_reply(&reply[consumed + start..consumed + end])
                .expect("server sent an unparseable frame");
            consumed += end;
        }
    }

    // Full service still available afterwards.
    let client = Client::connect_tcp(&addr).expect("connect");
    client.hello(1).expect("hello after hostile traffic");
    client.subscribe(1, vec![1, 2, 3]).expect("subscribe");
    client.health().expect("health");
    client.shutdown_server().expect("shutdown");
    assert!(client.wait_drained(Duration::from_secs(30)), "no Drained frame");
    client.close();
    let report = server.join().expect("daemon thread");
    assert_eq!(report.engine_panics, 0, "engine panicked: {report:?}");
    assert!(!report.drain_timed_out);
}
