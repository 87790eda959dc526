//! Chunk-oriented bitstream ingestion for attached streams.
//!
//! The wire delivers a stream's bitstream in arbitrary network-sized
//! pieces; the decoder wants whole records. [`ChunkedIngest`] sits
//! between them: it accumulates bytes, parses the stream header once it
//! is complete (and keeps the parsed [`StreamHeader`], not its bytes),
//! then on every chunk decodes the longest prefix of *complete* records
//! (walked with [`vdsms_codec::complete_record_end`]) straight out of
//! the accumulation buffer — a trailing partial record waits for more
//! bytes. Each such pass is one [`Segment`](vdsms_features::Segment) of
//! the stream's pooled [`FrontEnd`], which is built once per attached
//! stream: after the first key frame a pass constructs nothing and
//! allocates nothing. Frame indices are offset by the segments'
//! [`frame cursors`](vdsms_codec::PartialDecoder::frame_cursor), so on a
//! clean stream the chunked fingerprints are bit-identical to a
//! whole-buffer [`FingerprintStream`](vdsms_features::FingerprintStream)
//! pass no matter how the bytes were sliced.
//!
//! In recovery mode a damaged record head does not stall the stream:
//! the scan extends the pass across the damage to the next complete
//! plausible record and lets the decoder's own resync machinery skip
//! and account it. Buffered-but-undecodable bytes are capped by
//! `max_buffer`; a pathological stream hits the cap and either gets a
//! forced recovery pass (recover mode) or a typed error (strict mode),
//! never unbounded memory.

use vdsms_codec::bitio::{find_byte_le_one, ByteReader};
use vdsms_codec::{complete_record_end, CodecError, IngestHealth, StreamHeader};
use vdsms_features::{CellId, FeatureExtractor, FrontEnd};

/// A stream header is `magic(4) version(1)` plus five varints — never
/// longer than this. If this many bytes cannot parse as a header, the
/// stream is junk and waiting for more bytes will not fix it.
const MAX_HEADER_LEN: usize = 64;

/// Why ingestion of a stream failed (the stream is then detached; the
/// session survives).
#[derive(Debug)]
pub enum IngestError {
    /// The bytes are not a decodable bitstream (bad header, or damage
    /// in strict mode).
    BadBitstream(CodecError),
    /// More than `max_buffer` bytes accumulated without a decodable
    /// record in strict mode.
    BufferOverflow {
        /// Bytes buffered when the cap tripped.
        buffered: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::BadBitstream(e) => write!(f, "bad bitstream: {e}"),
            IngestError::BufferOverflow { buffered } => {
                write!(f, "stream buffer overflow at {buffered} bytes without a decodable record")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Per-attached-stream reassembly and fingerprinting state.
#[derive(Debug)]
pub struct ChunkedIngest {
    /// The stream header, once enough bytes arrived to parse it.
    header: Option<StreamHeader>,
    /// Received bytes not yet ingested: the header's until it parses,
    /// bare records after.
    pending: Vec<u8>,
    /// Stream frames accounted by previous passes.
    frame_offset: u64,
    /// Key frames fingerprinted so far.
    keyframes: u64,
    /// Degradation accounting merged across passes.
    health: IngestHealth,
    /// The fused front end's pooled state, lent to each pass.
    front: FrontEnd,
    recover: bool,
    max_buffer: usize,
    finished: bool,
}

impl ChunkedIngest {
    /// Fresh state for one attached stream.
    pub fn new(extractor: FeatureExtractor, recover: bool, max_buffer: usize) -> ChunkedIngest {
        ChunkedIngest {
            header: None,
            pending: Vec::new(),
            frame_offset: 0,
            keyframes: 0,
            health: IngestHealth::default(),
            front: FrontEnd::new(extractor),
            recover,
            max_buffer: max_buffer.max(MAX_HEADER_LEN),
            finished: false,
        }
    }

    /// Degradation counters accumulated so far.
    pub fn health(&self) -> IngestHealth {
        self.health
    }

    /// Key frames fingerprinted so far.
    pub fn keyframes(&self) -> u64 {
        self.keyframes
    }

    /// Bytes buffered but not yet ingested.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Feed one chunk; complete records are fingerprinted into `out` as
    /// `(frame_index, cell_id)` pairs with stream-global frame indices.
    ///
    /// # Errors
    /// [`IngestError::BadBitstream`] if the bytes cannot be a bitstream
    /// (the caller should detach the stream); [`IngestError::BufferOverflow`]
    /// if the un-ingestable backlog exceeds the cap in strict mode.
    // vdsms-lint: entry(no-panic-hot-path, loop-progress)
    pub fn push_chunk(
        &mut self,
        chunk: &[u8],
        out: &mut Vec<(u64, CellId)>,
    ) -> Result<(), IngestError> {
        if self.finished {
            return Ok(());
        }
        self.pending.extend_from_slice(chunk);
        if self.header.is_none() && !self.parse_header(false)? {
            return Ok(());
        }
        let span = self.complete_span()?;
        if span > 0 {
            self.run_pass(span, out)?;
        }
        if self.pending.len() > self.max_buffer {
            if self.recover {
                // The backlog holds no complete record but is over the
                // cap: force a recovery pass over everything buffered;
                // the decoder resyncs past the damage and accounts it.
                let all = self.pending.len();
                self.run_pass(all, out)?;
            } else {
                return Err(IngestError::BufferOverflow { buffered: self.pending.len() });
            }
        }
        Ok(())
    }

    /// End of stream: ingest every remaining buffered byte (in recovery
    /// mode a damaged or truncated tail is skipped and accounted; in
    /// strict mode it surfaces as an error) and seal the state.
    ///
    /// # Errors
    /// [`IngestError::BadBitstream`] on a strict-mode damaged tail or a
    /// stream too short to even carry a header.
    pub fn finish(&mut self, out: &mut Vec<(u64, CellId)>) -> Result<(), IngestError> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        if self.header.is_none() {
            if self.pending.is_empty() {
                return Ok(()); // attached but never fed: trivially clean
            }
            // Final chance: a tiny stream may deliver its whole header
            // only now; a header still incomplete is an error.
            self.parse_header(true)?;
        }
        if !self.pending.is_empty() {
            let all = self.pending.len();
            self.run_pass(all, out)?;
        }
        Ok(())
    }

    /// Try to parse the stream header from the front of `pending` and
    /// strip it. Returns `Ok(false)` when more bytes are needed — which
    /// at the end of the stream (`last`) is an error instead.
    fn parse_header(&mut self, last: bool) -> Result<bool, IngestError> {
        let mut r = ByteReader::new(&self.pending);
        match StreamHeader::read(&mut r) {
            Ok(header) => {
                let pos = r.position();
                self.header = Some(header);
                self.pending.drain(..pos);
                Ok(true)
            }
            Err(CodecError::UnexpectedEof) if !last && self.pending.len() < MAX_HEADER_LEN => {
                Ok(false)
            }
            Err(e) => Err(IngestError::BadBitstream(e)),
        }
    }

    /// Length of the longest ingestable prefix of `pending`: complete
    /// records, extended across damaged spans (recovery mode) whenever
    /// a complete record exists on the far side.
    fn complete_span(&self) -> Result<usize, IngestError> {
        let buf = &self.pending;
        let mut end = 0usize;
        loop {
            match complete_record_end(buf, end) {
                // A record is at least its header long, so `e > end`;
                // written as += to make the cursor's advance explicit.
                Some(e) => end += e - end,
                None => {
                    if end >= buf.len() {
                        break; // exactly consumed
                    }
                    // Either an incomplete trailing record (wait) or a
                    // damaged head. A head that already has its 2-byte
                    // kind/quality prefix in the buffer and fails the
                    // plausibility check is definitely damaged — length
                    // alone cannot fix it.
                    let definitely_damaged = end + 2 <= buf.len()
                        && (buf[end] > 1 || buf[end + 1] == 0 || buf[end + 1] > 100);
                    if !definitely_damaged {
                        break; // plausible-but-incomplete: wait for more
                    }
                    if !self.recover {
                        return Err(IngestError::BadBitstream(CodecError::InvalidField(
                            "frame record header",
                        )));
                    }
                    // Extend the span across the damage to the next
                    // *complete* plausible record, if one has arrived;
                    // the decoder's resync does the actual skipping.
                    let mut probe = end + 1;
                    let mut extended = None;
                    while let Some(cand) = find_byte_le_one(buf, probe) {
                        if let Some(e) = complete_record_end(buf, cand) {
                            extended = Some(e);
                            break;
                        }
                        // `cand >= probe`: step past the candidate.
                        probe += cand - probe + 1;
                    }
                    match extended {
                        Some(e) => end += e - end,
                        None => break, // damage not yet bridged: wait
                    }
                }
            }
        }
        Ok(end)
    }

    /// Decode and fingerprint `pending[..span]` as one segment of the
    /// stream, in place, pushing globally-indexed fingerprints into `out`
    /// and advancing the frame offset by the segment's cursor.
    fn run_pass(&mut self, span: usize, out: &mut Vec<(u64, CellId)>) -> Result<(), IngestError> {
        let Some(header) = self.header else {
            return Ok(()); // both callers parse the header first
        };
        let mut segment = self.front.segment(header, &self.pending[..span], self.recover);
        let decoded = loop {
            match segment.next_fingerprint() {
                Ok(Some((frame_index, cell))) => {
                    out.push((self.frame_offset + frame_index, cell));
                    self.keyframes += 1;
                }
                Ok(None) => break Ok(()),
                Err(e) => break Err(IngestError::BadBitstream(e)),
            }
        };
        // Closing the segment returns the pooled buffers to the front
        // end, so do it before reporting a failed pass too.
        let (cursor, health) = segment.finish();
        decoded?;
        self.frame_offset += cursor;
        self.health.merge(&health);
        self.pending.drain(..span);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdsms_codec::{Encoder, EncoderConfig};
    use vdsms_features::{FeatureConfig, FingerprintStream};
    use vdsms_video::source::{ClipGenerator, SourceSpec};
    use vdsms_video::Fps;

    fn stream_bytes(seed: u64, seconds: f64) -> Vec<u8> {
        let spec = SourceSpec {
            width: 96,
            height: 64,
            fps: Fps::integer(10),
            seed,
            min_scene_s: 1.0,
            max_scene_s: 2.0,
            motifs: None,
        };
        let clip = ClipGenerator::new(spec).clip(seconds);
        Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 80, motion_search: true })
    }

    /// Fingerprints, total stream frames and health of a whole-buffer
    /// pass: what any slicing of the same bytes must reproduce.
    fn whole_buffer(bytes: &[u8]) -> (Vec<(u64, CellId)>, u64, IngestHealth) {
        let ex = FeatureExtractor::new(FeatureConfig::default());
        let mut fs = FingerprintStream::new(bytes, ex).unwrap();
        let mut got = Vec::new();
        while let Some(pair) = fs.next_fingerprint().unwrap() {
            got.push(pair);
        }
        (got, fs.frame_cursor(), fs.health())
    }

    fn chunked(
        bytes: &[u8],
        chunk_sizes: impl Iterator<Item = usize>,
    ) -> (Vec<(u64, CellId)>, u64, IngestHealth) {
        let ex = FeatureExtractor::new(FeatureConfig::default());
        let mut ci = ChunkedIngest::new(ex, false, 4 << 20);
        let mut got = Vec::new();
        let mut pos = 0usize;
        for sz in chunk_sizes {
            if pos >= bytes.len() {
                break;
            }
            let end = (pos + sz.max(1)).min(bytes.len());
            ci.push_chunk(&bytes[pos..end], &mut got).unwrap();
            pos = end;
        }
        if pos < bytes.len() {
            ci.push_chunk(&bytes[pos..], &mut got).unwrap();
        }
        ci.finish(&mut got).unwrap();
        assert_eq!(ci.buffered(), 0);
        assert_eq!(ci.keyframes(), got.len() as u64);
        (got, ci.frame_offset, ci.health())
    }

    #[test]
    fn chunked_matches_whole_buffer_for_any_slicing() {
        let bytes = stream_bytes(41, 4.0);
        let expected = whole_buffer(&bytes);
        assert!(!expected.0.is_empty());
        assert!(expected.2.is_clean());

        // One byte at a time — the worst case for reassembly.
        assert_eq!(chunked(&bytes, std::iter::repeat(1)), expected);
        // A few odd sizes.
        assert_eq!(chunked(&bytes, [7usize, 1, 1000, 3, 50_000].into_iter().cycle()), expected);
        // Everything at once.
        assert_eq!(chunked(&bytes, std::iter::once(bytes.len())), expected);
        // A first chunk that ends inside the stream header, a second that
        // completes it mid-record.
        let header_len = record_head_offset(&bytes, 0);
        assert!(header_len > 6);
        assert_eq!(chunked(&bytes, [header_len - 3, 5, 16 << 10].into_iter().cycle()), expected);
    }

    /// Byte offset of the `n`-th record head (0-based), walking the
    /// record chain from the end of the stream header.
    fn record_head_offset(bytes: &[u8], n: usize) -> usize {
        let mut r = ByteReader::new(bytes);
        StreamHeader::read(&mut r).unwrap();
        let mut pos = r.position();
        for _ in 0..n {
            pos = complete_record_end(bytes, pos).unwrap();
        }
        pos
    }

    #[test]
    fn recovery_bridges_mid_stream_damage() {
        let bytes = stream_bytes(42, 4.0);
        let ex = FeatureExtractor::new(FeatureConfig::default());
        let mut damaged = bytes.clone();
        // Stomp a record head mid-stream: the kind byte becomes
        // implausible, which forces an actual resync.
        let head = record_head_offset(&bytes, 4);
        for b in &mut damaged[head..head + 8] {
            *b = 0xEE;
        }
        let mut ci = ChunkedIngest::new(ex, true, 4 << 20);
        let mut got = Vec::new();
        for chunk in damaged.chunks(501) {
            ci.push_chunk(chunk, &mut got).unwrap();
        }
        ci.finish(&mut got).unwrap();
        assert!(!got.is_empty(), "intact prefix must fingerprint");
        assert!(!ci.health().is_clean(), "damage must be accounted: {:?}", ci.health());
    }

    #[test]
    fn strict_mode_rejects_damage_with_a_typed_error() {
        let bytes = stream_bytes(43, 2.0);
        let ex = FeatureExtractor::new(FeatureConfig::default());
        let mut damaged = bytes.clone();
        let head = record_head_offset(&bytes, 2);
        for b in &mut damaged[head..head + 8] {
            *b = 0xEE;
        }
        let mut ci = ChunkedIngest::new(ex, false, 4 << 20);
        let mut got = Vec::new();
        let mut failed = false;
        for chunk in damaged.chunks(64) {
            if ci.push_chunk(chunk, &mut got).is_err() {
                failed = true;
                break;
            }
        }
        if !failed {
            failed = ci.finish(&mut got).is_err();
        }
        assert!(failed, "strict mode must surface the damage");
    }

    #[test]
    fn junk_that_never_parses_a_header_errors_quickly() {
        let ex = FeatureExtractor::new(FeatureConfig::default());
        let mut ci = ChunkedIngest::new(ex, true, 4 << 20);
        let mut got = Vec::new();
        let junk = vec![0xAAu8; 256];
        assert!(ci.push_chunk(&junk, &mut got).is_err(), "junk must not buffer forever");
    }

    #[test]
    fn buffer_cap_bounds_memory_in_strict_mode() {
        let bytes = stream_bytes(44, 1.0);
        let ex = FeatureExtractor::new(FeatureConfig::default());
        let mut ci = ChunkedIngest::new(ex, false, 1024);
        let mut got = Vec::new();
        // Valid header, then a record header lying about a huge payload:
        // plausible forever, never complete.
        let mut lying = bytes[..40].to_vec();
        lying.extend_from_slice(&[0u8, 80]); // kind=I, quality=80
        lying.extend_from_slice(&(u32::MAX / 2).to_le_bytes());
        lying.extend_from_slice(&vec![0x11u8; 4096]);
        let mut overflowed = false;
        for chunk in lying.chunks(256) {
            match ci.push_chunk(chunk, &mut got) {
                Err(IngestError::BufferOverflow { .. }) => {
                    overflowed = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
                Ok(()) => {}
            }
        }
        assert!(overflowed, "the cap must trip instead of buffering without bound");
        assert!(ci.buffered() <= 8192);
    }
}
