//! Fused bytes→fingerprint streaming ingestion.
//!
//! There is one fused front end, in two parts. [`FrontEnd`] is the owned,
//! lifetime-free state that outlives any one run of bytes: the extractor,
//! the pooled [`DcFrame`], the feature scratch with its memoized
//! [`RegionPlan`](crate::RegionPlan), and the partial decoder's pooled
//! buffers. A reader borrows the bytes: [`FrontEnd::segment`] opens a
//! [`Segment`] over a run of bare frame records whose stream header was
//! parsed earlier — what the serving layer's chunked ingest does once per
//! network chunk — and [`FingerprintStream`] owns a `FrontEnd` beside a
//! decoder over one whole bitstream, header included. Both pull key
//! frames with the pooled partial decoder
//! ([`vdsms_codec::PartialDecoder::next_dc_frame_into`]) and map each
//! through the precomputed-plan fingerprint path
//! ([`FeatureExtractor::fingerprint_into`]), yielding
//! `(frame_index, cell_id)` pairs with **zero heap allocations per key
//! frame** in the steady state. The CLI, the fleet feeders, the daemon
//! and the benches all ingest through this module, so the
//! compressed-domain cost story is measured on the path production code
//! actually runs.
//!
//! Output is bit-identical to the unfused
//! `PartialDecoder::decode_all` → `FeatureExtractor::fingerprint_sequence`
//! composition — same cell ids, same frame indices — which the property
//! tests in `tests/` assert byte for byte.

use crate::extract::{FeatureExtractor, FingerprintScratch};
use crate::CellId;
use vdsms_codec::{DcFrame, DecodeScratch, IngestHealth, PartialDecoder, Result, StreamHeader};

/// The fused front end's pooled state: everything that survives from one
/// run of stream bytes to the next. Holds no borrow, so a long-lived
/// owner (one per attached stream in the daemon) keeps it across chunks.
#[derive(Debug)]
pub struct FrontEnd {
    extractor: FeatureExtractor,
    frame: DcFrame,
    scratch: FingerprintScratch,
    /// The decoder's pooled buffers between segments; `None` while a
    /// [`Segment`] has them, and until the first segment builds them.
    decode: Option<DecodeScratch>,
}

impl FrontEnd {
    /// Pooled state for one stream. Buffers that depend on the stream's
    /// geometry are sized by its first key frame.
    pub fn new(extractor: FeatureExtractor) -> FrontEnd {
        let scratch = extractor.scratch();
        FrontEnd { extractor, frame: DcFrame::empty(), scratch, decode: None }
    }

    /// Borrow the state to read one segment: a run of bare frame records
    /// of the stream `header` describes. [`Segment::finish`] hands the
    /// decoder's buffers back; a segment dropped without it (a caught
    /// panic) costs the next one a rebuild, nothing else.
    pub fn segment<'s>(
        &'s mut self,
        header: StreamHeader,
        records: &'s [u8],
        recover: bool,
    ) -> Segment<'s> {
        let scratch = self.decode.take().unwrap_or_default();
        Segment {
            decoder: PartialDecoder::over_records(header, records, recover, scratch),
            front: self,
        }
    }

    /// The one fused step: decode the next key frame of `decoder` into
    /// the pooled frame and fingerprint it.
    fn next_fingerprint(
        &mut self,
        decoder: &mut PartialDecoder<'_>,
    ) -> Result<Option<(u64, CellId)>> {
        if decoder.next_dc_frame_into(&mut self.frame)? {
            let cell = self.extractor.fingerprint_into(&mut self.scratch, &self.frame);
            Ok(Some((self.frame.frame_index, cell)))
        } else {
            Ok(None)
        }
    }
}

/// A borrowed reader over one segment of a stream, opened by
/// [`FrontEnd::segment`]. Frame indices count from the segment's first
/// record; the caller offsets them by the cursors of earlier segments.
#[derive(Debug)]
pub struct Segment<'s> {
    decoder: PartialDecoder<'s>,
    front: &'s mut FrontEnd,
}

impl Segment<'_> {
    /// Decode and fingerprint the segment's next key frame, or
    /// `Ok(None)` at its end. See [`FingerprintStream::next_fingerprint`].
    pub fn next_fingerprint(&mut self) -> Result<Option<(u64, CellId)>> {
        self.front.next_fingerprint(&mut self.decoder)
    }

    /// Close the segment, returning the pooled buffers to the
    /// [`FrontEnd`]. Yields the stream frames the segment advanced past
    /// (see [`PartialDecoder::frame_cursor`]) and the damage it
    /// accounted.
    pub fn finish(self) -> (u64, IngestHealth) {
        let done = (self.decoder.frame_cursor(), self.decoder.health());
        self.front.decode = Some(self.decoder.into_scratch());
        done
    }
}

/// Streaming adapter yielding `(frame_index, cell_id)` directly from
/// the bytes of one whole bitstream: a [`FrontEnd`] beside the decoder
/// that borrows the bytes. Steady-state pulls are allocation-free.
#[derive(Debug)]
pub struct FingerprintStream<'a> {
    decoder: PartialDecoder<'a>,
    front: FrontEnd,
    /// Whether the underlying decoder runs in corruption-recovery mode;
    /// preserved across [`Self::reopen`].
    recover: bool,
    /// Health carried over from segments consumed before a `reopen` —
    /// degradation accounting survives segment chaining.
    carried_health: IngestHealth,
}

impl<'a> FingerprintStream<'a> {
    /// Open a bitstream for fused ingestion, parsing its header.
    pub fn new(bytes: &'a [u8], extractor: FeatureExtractor) -> Result<FingerprintStream<'a>> {
        FingerprintStream::new_with_recovery(bytes, extractor, false)
    }

    /// Open a bitstream in strict or corruption-recovery mode (see
    /// [`PartialDecoder::new_with_recovery`]). In recovery mode,
    /// mid-record corruption is skipped and accounted in
    /// [`Self::health`] instead of ending the stream with an error.
    pub fn new_with_recovery(
        bytes: &'a [u8],
        extractor: FeatureExtractor,
        recover: bool,
    ) -> Result<FingerprintStream<'a>> {
        Ok(FingerprintStream {
            decoder: PartialDecoder::new_with_recovery(bytes, recover)?,
            front: FrontEnd::new(extractor),
            recover,
            carried_health: IngestHealth::default(),
        })
    }

    /// Degradation counters accumulated over every segment this stream
    /// has ingested (all zero in strict mode and on clean streams).
    pub fn health(&self) -> IngestHealth {
        let mut h = self.carried_health;
        h.merge(&self.decoder.health());
        h
    }

    /// The stream's header.
    pub fn header(&self) -> &StreamHeader {
        self.decoder.header()
    }

    /// Number of stream frames consumed from the *current* bitstream —
    /// every record (key and predicted) and every resynced damage span
    /// counts one; resets on [`Self::reopen`] (see
    /// [`vdsms_codec::PartialDecoder::frame_cursor`]).
    pub fn frame_cursor(&self) -> u64 {
        self.decoder.frame_cursor()
    }

    /// Key frames per second implied by the stream's fps and GOP length.
    pub fn key_frame_rate(&self) -> f64 {
        self.decoder.key_frame_rate()
    }

    /// The extractor this stream fingerprints with.
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.front.extractor
    }

    /// Restart ingestion on a (possibly different) bitstream while
    /// keeping every pooled buffer — the allocation-free way to chain
    /// segments or re-ingest a stream.
    pub fn reopen(&mut self, bytes: &'a [u8]) -> Result<()> {
        self.carried_health.merge(&self.decoder.health());
        self.decoder.reopen(bytes, self.recover)
    }

    /// Decode and fingerprint the next key frame, or `Ok(None)` at end of
    /// stream. P-frames are skipped in O(1); the returned index counts
    /// them, so detections report true stream positions.
    // vdsms-lint: entry
    pub fn next_fingerprint(&mut self) -> Result<Option<(u64, CellId)>> {
        self.front.next_fingerprint(&mut self.decoder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::FeatureConfig;
    use vdsms_codec::{Encoder, EncoderConfig};
    use vdsms_video::source::{ClipGenerator, SourceSpec};
    use vdsms_video::{Clip, Fps};

    fn test_clip(seed: u64, seconds: f64) -> Clip {
        let spec = SourceSpec {
            width: 176,
            height: 120,
            fps: Fps::integer(10),
            seed,
            min_scene_s: 1.0,
            max_scene_s: 2.0,
            motifs: None,
        };
        ClipGenerator::new(spec).clip(seconds)
    }

    #[test]
    fn fused_stream_matches_unfused_composition() {
        let clip = test_clip(21, 5.0);
        let bytes =
            Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 80, motion_search: true });
        let ex = FeatureExtractor::new(FeatureConfig::default());

        let dcs = PartialDecoder::new(&bytes).unwrap().decode_all().unwrap();
        let expected: Vec<(u64, CellId)> = dcs
            .iter()
            .map(|d| d.frame_index)
            .zip(ex.fingerprint_sequence(&dcs))
            .collect();

        let mut fs = FingerprintStream::new(&bytes, ex).unwrap();
        let mut got = Vec::new();
        while let Some(pair) = fs.next_fingerprint().unwrap() {
            got.push(pair);
        }
        assert_eq!(got, expected, "fused path must be bit-identical");
        assert_eq!(fs.next_fingerprint().unwrap(), None, "exhausted stream stays exhausted");
    }

    #[test]
    fn segments_over_bare_records_match_the_whole_stream() {
        let clip = test_clip(25, 4.0);
        let bytes =
            Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 80, motion_search: true });
        let ex = FeatureExtractor::new(FeatureConfig::default());
        let mut whole = FingerprintStream::new(&bytes, ex.clone()).unwrap();
        let mut expected = Vec::new();
        while let Some(pair) = whole.next_fingerprint().unwrap() {
            expected.push(pair);
        }

        // Cut the records after the header into three-record segments and
        // read them through one pooled FrontEnd.
        let mut r = vdsms_codec::bitio::ByteReader::new(&bytes);
        let header = StreamHeader::read(&mut r).unwrap();
        let mut front = FrontEnd::new(ex);
        let (mut got, mut offset, mut start) = (Vec::new(), 0u64, r.position());
        while start < bytes.len() {
            let mut end = start;
            for _ in 0..3 {
                end = vdsms_codec::complete_record_end(&bytes, end).unwrap_or(end);
            }
            let mut seg = front.segment(header, &bytes[start..end], false);
            while let Some((frame, cell)) = seg.next_fingerprint().unwrap() {
                got.push((offset + frame, cell));
            }
            let (cursor, health) = seg.finish();
            assert!(health.is_clean());
            offset += cursor;
            start = end;
        }
        assert_eq!(got, expected);
        assert_eq!(offset, whole.frame_cursor());
    }

    #[test]
    fn a_failed_segment_still_returns_the_pooled_buffers() {
        let clip = test_clip(26, 2.0);
        let bytes = Encoder::encode_clip(&clip, EncoderConfig::default());
        let mut r = vdsms_codec::bitio::ByteReader::new(&bytes);
        let header = StreamHeader::read(&mut r).unwrap();
        let records = &bytes[r.position()..];
        let mut front = FrontEnd::new(FeatureExtractor::new(FeatureConfig::default()));

        // Strict mode over records cut mid-payload: the pass fails.
        let mut seg = front.segment(header, &records[..records.len() - 5], false);
        let failed = loop {
            match seg.next_fingerprint() {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert!(failed.is_err(), "{failed:?}");
        seg.finish();
        assert!(front.decode.is_some(), "the decoder's buffers came back");

        // The same front end reads the intact records as if nothing had
        // happened.
        let mut seg = front.segment(header, records, false);
        let mut n = 0;
        while seg.next_fingerprint().unwrap().is_some() {
            n += 1;
        }
        let (cursor, health) = seg.finish();
        assert!(n > 0 && cursor as usize == clip.len() && health.is_clean());
    }

    #[test]
    fn reopen_replays_the_same_fingerprints() {
        let clip = test_clip(22, 3.0);
        let bytes =
            Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 70, motion_search: true });
        let ex = FeatureExtractor::new(FeatureConfig::default());
        let mut fs = FingerprintStream::new(&bytes, ex).unwrap();
        let mut first = Vec::new();
        while let Some(pair) = fs.next_fingerprint().unwrap() {
            first.push(pair);
        }
        fs.reopen(&bytes).unwrap();
        let mut second = Vec::new();
        while let Some(pair) = fs.next_fingerprint().unwrap() {
            second.push(pair);
        }
        assert_eq!(first, second);
        assert!(!first.is_empty());
    }

    #[test]
    fn truncated_stream_surfaces_an_error() {
        let clip = test_clip(23, 2.0);
        let bytes = Encoder::encode_clip(&clip, EncoderConfig::default());
        let cut = &bytes[..bytes.len() - bytes.len() / 3];
        let ex = FeatureExtractor::new(FeatureConfig::default());
        let mut fs = FingerprintStream::new(cut, ex).unwrap();
        let result = loop {
            match fs.next_fingerprint() {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert!(result.is_err(), "truncation must surface as an error, got {result:?}");
    }

    #[test]
    fn recovery_mode_survives_truncation_and_reports_health() {
        let clip = test_clip(24, 3.0);
        let bytes = Encoder::encode_clip(&clip, EncoderConfig::default());
        let cut = &bytes[..bytes.len() - bytes.len() / 3];
        let ex = FeatureExtractor::new(FeatureConfig::default());
        let mut fs = FingerprintStream::new_with_recovery(cut, ex, true).unwrap();
        let mut n = 0usize;
        while fs.next_fingerprint().unwrap().is_some() {
            n += 1;
        }
        assert!(n > 0, "intact prefix must still fingerprint");
        assert!(fs.health().frames_dropped >= 1, "{:?}", fs.health());

        // Health carries across `reopen`; the recovery flag does too, so
        // re-ingesting the same truncated bytes doubles the counters
        // instead of erroring.
        let before = fs.health();
        fs.reopen(cut).unwrap();
        while fs.next_fingerprint().unwrap().is_some() {}
        let after = fs.health();
        assert_eq!(after.frames_dropped, 2 * before.frames_dropped);
        assert_eq!(after.bytes_skipped, 2 * before.bytes_skipped);
    }
}
