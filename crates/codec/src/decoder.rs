//! Full and partial decoders.
//!
//! [`Decoder`] reconstructs every pixel of every frame (what a player would
//! do). [`PartialDecoder`] implements the paper's compressed-domain fast
//! path: it skips P-frames entirely via their length prefix, and for each
//! I-frame recovers only the per-block DC coefficients — no dequantization
//! of AC terms, no inverse DCT, no pixel reconstruction. The cost ratio
//! between the two is the paper's motivation for compressed-domain feature
//! extraction.

use crate::bitio::{find_byte_le_one, ByteReader};
use crate::bitstream::{FrameRecord, FrameType, StreamHeader};
use crate::block::{store_block, store_diff_block, BlockGrid};
use crate::dct;
use crate::quant::QuantizerCache;
use crate::zigzag::decode_block;
use crate::{CodecError, Result};
use vdsms_video::Frame;

/// Per-block DC coefficients of one key frame — the partial decoder's
/// output and the feature layer's input.
#[derive(Debug, Clone, PartialEq)]
pub struct DcFrame {
    /// Index of this frame in the *stream* (counting skipped P-frames), so
    /// detections can be reported as stream positions.
    pub frame_index: u64,
    /// Blocks per row.
    pub blocks_w: u32,
    /// Block rows.
    pub blocks_h: u32,
    /// Dequantized DC coefficient per block, raster order. The DC of a
    /// block equals `8 × (mean pixel − 128)` under the orthonormal DCT.
    pub dc: Vec<f32>,
}

impl DcFrame {
    /// A detached, zero-block frame: the reusable buffer for
    /// [`PartialDecoder::next_dc_frame_into`]. Allocates nothing until
    /// the first decode sizes it.
    pub fn empty() -> DcFrame {
        DcFrame { frame_index: 0, blocks_w: 0, blocks_h: 0, dc: Vec::new() }
    }

    /// Mean luma of block `(bx, by)` implied by its DC coefficient.
    pub fn block_mean(&self, bx: u32, by: u32) -> f32 {
        assert!(bx < self.blocks_w && by < self.blocks_h);
        self.dc[(by * self.blocks_w + bx) as usize] / 8.0 + 128.0
    }
}

/// Degradation counters for one ingestion stream.
///
/// All zeros on a clean stream. Only the recovery-enabled decoder
/// ([`PartialDecoder::new_with_recovery`]) ever increments these; the
/// strict decoder surfaces the first corruption as an error instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestHealth {
    /// Frame records lost to corruption (each damaged span is accounted
    /// as at least one frame; the true count inside a span is unknowable
    /// once record boundaries are gone).
    pub frames_dropped: u64,
    /// Bytes discarded while scanning for the next plausible record.
    pub bytes_skipped: u64,
    /// Successful resynchronizations onto a later record boundary.
    pub resyncs: u64,
}

impl IngestHealth {
    /// Fold another stream's (or stream segment's) counters into this one.
    pub fn merge(&mut self, other: &IngestHealth) {
        self.frames_dropped += other.frames_dropped;
        self.bytes_skipped += other.bytes_skipped;
        self.resyncs += other.resyncs;
    }

    /// Whether no corruption has been observed.
    pub fn is_clean(&self) -> bool {
        *self == IngestHealth::default()
    }
}

/// Frame-record headers are `type(u8) quality(u8) payload_len(u32le)`.
const RECORD_HEADER_LEN: usize = 6;

/// If a plausible frame-record header starts at `p`, return the offset
/// one past the record's payload. "Plausible" = the exact invariants
/// [`FrameRecord::read`] enforces (kind byte 0/1, quality 1..=100) plus
/// an in-bounds payload length — the same format, no extra markers, so
/// recovery needs no bitstream change.
/// If a complete, plausible frame record starts at `pos`, return the
/// offset one past its payload; `None` if the bytes at `pos` are not a
/// plausible record header **or** the record's payload extends past the
/// end of `buf`. This is the chunk-assembly primitive for serving-layer
/// streaming ingest: a front-end receiving a bitstream in arbitrary
/// network-sized pieces walks complete records with this and feeds the
/// decoder only whole-record prefixes, deferring a trailing partial
/// record until more bytes arrive.
pub fn complete_record_end(buf: &[u8], pos: usize) -> Option<usize> {
    plausible_record_end(buf, pos)
}

fn plausible_record_end(buf: &[u8], p: usize) -> Option<usize> {
    let kind = *buf.get(p)?;
    if kind > 1 {
        return None;
    }
    let quality = *buf.get(p.checked_add(1)?)?;
    if quality == 0 || quality > 100 {
        return None;
    }
    let len_bytes = buf.get(p.checked_add(2)?..p.checked_add(RECORD_HEADER_LEN)?)?;
    let payload_len = u32::from_le_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]);
    let end = p.checked_add(RECORD_HEADER_LEN)?.checked_add(payload_len as usize)?;
    (end <= buf.len()).then_some(end)
}

/// Count the frame records remaining in `reader`'s stream by walking the
/// fixed-width length prefixes only (no entropy decoding); returns
/// `(frames, key_frames)`. Stops at the first malformed record — the
/// actual decode surfaces that error.
fn scan_frame_counts(reader: &ByteReader<'_>) -> (usize, usize) {
    let mut r = reader.clone();
    let mut frames = 0usize;
    let mut intra = 0usize;
    while !r.is_at_end() {
        let Ok(rec) = FrameRecord::read(&mut r) else { break };
        if r.skip(rec.payload_len as usize).is_err() {
            break;
        }
        frames += 1;
        if rec.frame_type == FrameType::Intra {
            intra += 1;
        }
    }
    (frames, intra)
}

/// Full pixel decoder; iterates over reconstructed [`Frame`]s.
#[derive(Debug)]
pub struct Decoder<'a> {
    header: StreamHeader,
    grid: BlockGrid,
    reader: ByteReader<'a>,
    reference: Option<Frame>,
    frame_index: u64,
    quants: QuantizerCache,
}

impl<'a> Decoder<'a> {
    /// Open a bitstream, parsing its header.
    pub fn new(bytes: &'a [u8]) -> Result<Decoder<'a>> {
        let mut reader = ByteReader::new(bytes);
        let header = StreamHeader::read(&mut reader)?;
        let grid = BlockGrid::for_dims(header.width, header.height);
        Ok(Decoder {
            header,
            grid,
            reader,
            reference: None,
            frame_index: 0,
            quants: QuantizerCache::new(),
        })
    }

    /// Stream header.
    pub fn header(&self) -> &StreamHeader {
        &self.header
    }

    /// Decode the next frame, or `Ok(None)` at end of stream.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        if self.reader.is_at_end() {
            return Ok(None);
        }
        let rec = FrameRecord::read(&mut self.reader)?;
        let quantizer = self.quants.for_quality(rec.quality);
        let mut frame = Frame::filled(self.header.width, self.header.height, 0);
        let mut prev_dc = 0i32;
        for by in 0..self.grid.blocks_h {
            for bx in 0..self.grid.blocks_w {
                let mv = match rec.frame_type {
                    FrameType::Intra => (0i8, 0i8),
                    FrameType::Predicted => {
                        let read_mv = |r: &mut crate::bitio::ByteReader<'_>| -> crate::Result<i8> {
                            i8::try_from(r.get_signed()?)
                                .map_err(|_| crate::CodecError::CorruptEntropy("motion vector out of range"))
                        };
                        (read_mv(&mut self.reader)?, read_mv(&mut self.reader)?)
                    }
                };
                let (levels, dc) = decode_block(&mut self.reader, prev_dc)?;
                prev_dc = dc;
                let samples = dct::inverse(&quantizer.dequantize(&levels));
                match rec.frame_type {
                    FrameType::Intra => store_block(&mut frame, bx, by, &samples),
                    FrameType::Predicted => {
                        let reference = self
                            .reference
                            .as_ref()
                            .ok_or(crate::CodecError::CorruptEntropy("P-frame before first I"))?;
                        store_diff_block(&mut frame, reference, bx, by, mv, &samples);
                    }
                }
            }
        }
        self.reference = Some(frame.clone());
        self.frame_index += 1;
        Ok(Some(frame))
    }

    /// Decode the whole stream into frames. The output is pre-sized by a
    /// prefix-only scan of the remaining records, so the returned `Vec`
    /// never reallocates during the decode.
    pub fn decode_all(mut self) -> Result<Vec<Frame>> {
        let (frames, _) = scan_frame_counts(&self.reader);
        let mut out = Vec::with_capacity(frames);
        while let Some(f) = self.next_frame()? {
            out.push(f);
        }
        Ok(out)
    }
}

/// The partial decoder's pooled buffers, detached from any bitstream: the
/// integer DC levels and the memoized quantizer. A caller that decodes a
/// stream segment by segment (the serving layer's chunked ingest) lends
/// them to each segment's decoder with [`PartialDecoder::over_records`]
/// and takes them back with [`PartialDecoder::into_scratch`], so only the
/// first segment of a stream sizes anything.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    quants: QuantizerCache,
    dc_levels: Vec<i32>,
}

/// Compressed-domain partial decoder; iterates over [`DcFrame`]s of key
/// frames only.
#[derive(Debug)]
pub struct PartialDecoder<'a> {
    header: StreamHeader,
    grid: BlockGrid,
    reader: ByteReader<'a>,
    frame_index: u64,
    quants: QuantizerCache,
    /// Corruption-recovery mode: instead of surfacing mid-record
    /// `CorruptEntropy`/`UnexpectedEof`, resync onto the next plausible
    /// record header and account the damage in [`Self::health`].
    recover: bool,
    health: IngestHealth,
    /// Pooled integer DC levels for the SoA dequant split: pass 1 parses
    /// varints and runs the DPCM prediction in pure integer code, pass 2
    /// is a branch-free multiply loop the compiler can vectorize. Sized
    /// once per stream geometry, like `DcFrame::dc`.
    dc_levels: Vec<i32>,
}

impl<'a> PartialDecoder<'a> {
    /// Open a bitstream, parsing its header.
    pub fn new(bytes: &'a [u8]) -> Result<PartialDecoder<'a>> {
        PartialDecoder::new_with_recovery(bytes, false)
    }

    /// Open a bitstream in strict or corruption-recovery mode.
    ///
    /// In recovery mode a mid-record error skips the damaged span (see
    /// [`IngestHealth`]) instead of killing the stream. A corrupt *stream
    /// header* is still an error in either mode: without the geometry
    /// there is nothing to decode into.
    pub fn new_with_recovery(bytes: &'a [u8], recover: bool) -> Result<PartialDecoder<'a>> {
        let mut reader = ByteReader::new(bytes);
        let header = StreamHeader::read(&mut reader)?;
        let grid = BlockGrid::for_dims(header.width, header.height);
        Ok(PartialDecoder {
            header,
            grid,
            reader,
            frame_index: 0,
            quants: QuantizerCache::new(),
            recover,
            health: IngestHealth::default(),
            dc_levels: Vec::new(),
        })
    }

    /// Open a decoder over bare frame records — a segment of a stream
    /// whose header was parsed earlier (`StreamHeader` is `Copy`) — with
    /// pooled buffers from a previous segment. Frame indices, the
    /// [`frame cursor`](Self::frame_cursor) and [`Self::health`] start at
    /// zero; resync accounting is position-relative, so a segment decodes
    /// exactly as the same records would behind their header.
    pub fn over_records(
        header: StreamHeader,
        records: &'a [u8],
        recover: bool,
        scratch: DecodeScratch,
    ) -> PartialDecoder<'a> {
        PartialDecoder {
            header,
            grid: BlockGrid::for_dims(header.width, header.height),
            reader: ByteReader::new(records),
            frame_index: 0,
            quants: scratch.quants,
            recover,
            health: IngestHealth::default(),
            dc_levels: scratch.dc_levels,
        }
    }

    /// Give the pooled buffers back for the next segment's decoder.
    pub fn into_scratch(self) -> DecodeScratch {
        DecodeScratch { quants: self.quants, dc_levels: self.dc_levels }
    }

    /// Re-open this decoder over a (possibly different) bitstream in
    /// place, keeping the pooled scratch — `dc_levels` and the memoized
    /// quantizer cache — so steady-state reopen→drain cycles perform zero
    /// heap allocations. On a header error the old stream state is left
    /// untouched, matching the constructor's strictness.
    pub fn reopen(&mut self, bytes: &'a [u8], recover: bool) -> Result<()> {
        let mut reader = ByteReader::new(bytes);
        let header = StreamHeader::read(&mut reader)?;
        self.grid = BlockGrid::for_dims(header.width, header.height);
        self.header = header;
        self.reader = reader;
        self.frame_index = 0;
        self.recover = recover;
        self.health = IngestHealth::default();
        Ok(())
    }

    /// Number of stream frames this decoder has advanced past on the
    /// current bitstream: every record consumed (key and predicted) and
    /// every damaged span resynced over counts one, matching the
    /// `frame_index` values reported on decoded frames. Resets to 0 on
    /// [`Self::reopen`]. A chunked caller uses this to offset frame
    /// indices across segment boundaries.
    pub fn frame_cursor(&self) -> u64 {
        self.frame_index
    }

    /// Degradation counters accumulated so far (all zero in strict mode
    /// and on clean streams).
    pub fn health(&self) -> IngestHealth {
        self.health
    }

    /// Stream header.
    pub fn header(&self) -> &StreamHeader {
        &self.header
    }

    /// Key frames per second implied by the stream's fps and GOP length.
    pub fn key_frame_rate(&self) -> f64 {
        self.header.fps.as_f64() / f64::from(self.header.gop)
    }

    /// Decode the next key frame's DC coefficients *into* a caller-owned
    /// buffer, returning `Ok(false)` at end of stream. P-frames are skipped
    /// in O(1) via their length prefix.
    ///
    /// This is the steady-state ingestion core: after the first key frame
    /// sizes `out.dc`, subsequent calls on the same geometry perform **zero
    /// heap allocations**. Per block it reads the DC delta varint and then
    /// byte-scans to the end-of-block marker
    /// ([`ByteReader::skip_past_zero_byte`]) instead of parsing every AC
    /// token — valid for this bitstream because no minimal varint of a
    /// non-zero value contains a `0x00` byte (see `vdsms_codec::zigzag`).
    // vdsms-lint: entry
    pub fn next_dc_frame_into(&mut self, out: &mut DcFrame) -> Result<bool> {
        // Termination: every iteration either returns or strictly advances
        // the cursor (a resync lands past the damaged record's start), so
        // the loop runs at most `buffer len + 1` times even on adversarial
        // input — the fuzz suite's byte-count bound.
        loop {
            if self.reader.is_at_end() {
                return Ok(false);
            }
            let record_start = self.reader.position();
            let rec = match FrameRecord::read(&mut self.reader) {
                Ok(rec) => rec,
                Err(e) => {
                    if self.recover {
                        self.resync(record_start);
                        continue;
                    }
                    return Err(e);
                }
            };
            match rec.frame_type {
                FrameType::Predicted => {
                    if self.reader.skip(rec.payload_len as usize).is_err() {
                        if self.recover {
                            self.resync(record_start);
                            continue;
                        }
                        return Err(CodecError::UnexpectedEof);
                    }
                    self.frame_index += 1;
                }
                FrameType::Intra => {
                    // Slice the payload out so the per-block loop cannot
                    // read past the frame boundary even on corrupt input.
                    let payload = match self.reader.get_bytes(rec.payload_len as usize) {
                        Ok(p) => p,
                        Err(e) => {
                            if self.recover {
                                self.resync(record_start);
                                continue;
                            }
                            return Err(e);
                        }
                    };
                    let index = self.frame_index;
                    self.frame_index += 1;
                    match self.decode_intra_payload(payload, rec.quality, index, out) {
                        Ok(()) => return Ok(true),
                        Err(e) => {
                            if self.recover {
                                // The length prefix was intact (the payload
                                // sliced cleanly), so the cursor already
                                // sits on the next record boundary: drop
                                // the frame, no rescan needed.
                                self.health.frames_dropped += 1;
                                continue;
                            }
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// Decode one I-frame payload into `out`. On error `out` may hold a
    /// partial mix of this frame and the previous one; recovery callers
    /// discard it.
    fn decode_intra_payload(
        &mut self,
        payload: &[u8],
        quality: u8,
        index: u64,
        out: &mut DcFrame,
    ) -> Result<()> {
        let step = self.quants.for_quality(quality).dc_step();
        let n = self.grid.num_blocks();
        if self.dc_levels.len() != n {
            // vdsms-lint: allow(no-alloc-hot-path) reason="capacity-stable: sizes the pooled buffer once per stream geometry, never on the per-keyframe steady state"
            self.dc_levels.resize(n, 0);
        }
        // Pass 1 — integer only: varint parse, DPCM prediction and the
        // SWAR end-of-block scan. No float work mixes into this loop.
        let mut pr = ByteReader::new(payload);
        let mut prev_dc = 0i32;
        for slot in self.dc_levels.iter_mut() {
            let delta = pr.get_signed()?;
            let dc = i64::from(prev_dc)
                .checked_add(delta)
                .ok_or(CodecError::CorruptEntropy("dc out of range"))?;
            let dc = i32::try_from(dc)
                .map_err(|_| CodecError::CorruptEntropy("dc out of range"))?;
            prev_dc = dc;
            *slot = dc;
            pr.skip_past_zero_byte()?;
        }
        out.frame_index = index;
        out.blocks_w = self.grid.blocks_w;
        out.blocks_h = self.grid.blocks_h;
        if out.dc.len() != n {
            // vdsms-lint: allow(no-alloc-hot-path) reason="capacity-stable: sizes the pooled buffer once per stream geometry, never on the per-keyframe steady state"
            out.dc.resize(n, 0.0);
        }
        // Pass 2 — SoA dequant: one multiply per lane over contiguous
        // slices, which the compiler auto-vectorizes. `lvl as f32 * step`
        // is the exact expression the fused loop used, so outputs are
        // bit-identical.
        for (slot, &lvl) in out.dc.iter_mut().zip(&self.dc_levels) {
            *slot = lvl as f32 * step;
        }
        Ok(())
    }

    /// Scan forward from a damaged record for the next plausible record
    /// header. A candidate only counts if the record *after* it is also
    /// plausible or it ends the stream exactly (double-header validation
    /// — a lone 6-byte pattern inside entropy bytes is common; two
    /// chained ones are not). Accounts the damage in [`Self::health`] and
    /// leaves the cursor on the resync point, or at end-of-stream when no
    /// boundary survives (truncated tail). Allocation-free and panic-free:
    /// this runs on the hot ingestion path.
    fn resync(&mut self, damage_start: usize) {
        let buf = self.reader.buffer();
        // Each damaged span loses at least one record; records carry no
        // frame index, so the synthesized counter is advanced by exactly
        // one and stays monotone.
        self.health.frames_dropped += 1;
        self.frame_index += 1;
        // A plausible header must start with a kind byte of 0 or 1, so
        // the SWAR byte scan rules out every other offset 8 bytes at a
        // time; the full plausibility check only runs on candidates.
        let mut p = damage_start.saturating_add(1);
        while let Some(cand) = find_byte_le_one(buf, p) {
            if let Some(end) = plausible_record_end(buf, cand) {
                if end == buf.len() || plausible_record_end(buf, end).is_some() {
                    self.health.resyncs += 1;
                    self.health.bytes_skipped += (cand - damage_start) as u64;
                    self.reader.seek(cand);
                    return;
                }
            }
            p = cand + 1;
        }
        self.health.bytes_skipped += (buf.len() - damage_start) as u64;
        self.reader.seek(buf.len());
    }

    /// Decode the next key frame's DC coefficients, or `Ok(None)` at end of
    /// stream. Convenience wrapper over [`Self::next_dc_frame_into`] that
    /// allocates a fresh [`DcFrame`] per key frame; steady-state callers
    /// should hold a pooled frame and call the `_into` variant directly.
    pub fn next_dc_frame(&mut self) -> Result<Option<DcFrame>> {
        let mut out = DcFrame::empty();
        Ok(self.next_dc_frame_into(&mut out)?.then_some(out))
    }

    /// Decode all key frames' DC coefficients. The output is pre-sized by
    /// a prefix-only scan of the remaining records.
    pub fn decode_all(mut self) -> Result<Vec<DcFrame>> {
        let (_, intra) = scan_frame_counts(&self.reader);
        let mut out = Vec::with_capacity(intra);
        while let Some(d) = self.next_dc_frame()? {
            out.push(d);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};
    use vdsms_video::source::{ClipGenerator, SourceSpec};
    use vdsms_video::{Clip, Fps};

    fn test_clip(seed: u64, seconds: f64) -> Clip {
        let spec = SourceSpec {
            width: 48,
            height: 32,
            fps: Fps::integer(10),
            seed,
            min_scene_s: 1.0,
            max_scene_s: 2.0,
            motifs: None,
        };
        ClipGenerator::new(spec).clip(seconds)
    }

    #[test]
    fn full_decode_reconstructs_frames_closely() {
        let clip = test_clip(1, 2.0);
        let bytes = Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 85, motion_search: true });
        let frames = Decoder::new(&bytes).unwrap().decode_all().unwrap();
        assert_eq!(frames.len(), clip.len());
        for (orig, dec) in clip.frames().iter().zip(&frames) {
            let err = orig.mean_abs_diff(dec);
            assert!(err < 4.0, "reconstruction error too high: {err}");
        }
    }

    #[test]
    fn low_quality_reconstruction_is_worse_but_bounded() {
        let clip = test_clip(2, 1.0);
        let hi = Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 90, motion_search: true });
        let lo = Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 20, motion_search: true });
        let err_hi: f64 = Decoder::new(&hi)
            .unwrap()
            .decode_all()
            .unwrap()
            .iter()
            .zip(clip.frames())
            .map(|(d, o)| o.mean_abs_diff(d))
            .sum::<f64>();
        let err_lo: f64 = Decoder::new(&lo)
            .unwrap()
            .decode_all()
            .unwrap()
            .iter()
            .zip(clip.frames())
            .map(|(d, o)| o.mean_abs_diff(d))
            .sum::<f64>();
        assert!(err_lo > err_hi, "lower quality must lose more");
        assert!(err_lo / (clip.len() as f64) < 15.0, "even q20 must stay recognizable");
    }

    #[test]
    fn partial_decode_yields_one_dc_frame_per_key_frame() {
        let clip = test_clip(3, 3.0); // 30 frames
        let bytes = Encoder::encode_clip(&clip, EncoderConfig { gop: 10, quality: 75, motion_search: true });
        let dcs = PartialDecoder::new(&bytes).unwrap().decode_all().unwrap();
        assert_eq!(dcs.len(), 3); // frames 0, 10, 20
        assert_eq!(dcs[0].frame_index, 0);
        assert_eq!(dcs[1].frame_index, 10);
        assert_eq!(dcs[2].frame_index, 20);
    }

    #[test]
    fn partial_dc_matches_pixel_domain_block_means() {
        let clip = test_clip(4, 1.0);
        let bytes = Encoder::encode_clip(&clip, EncoderConfig { gop: 10, quality: 95, motion_search: true });
        let dcs = PartialDecoder::new(&bytes).unwrap().decode_all().unwrap();
        let d = &dcs[0];
        let f = &clip.frames()[0];
        // Interior blocks (no padding): DC/8 + 128 ≈ pixel-domain block mean.
        for by in 0..d.blocks_h - 1 {
            for bx in 0..d.blocks_w - 1 {
                let mean_pix = f.region_mean(bx * 8, by * 8, bx * 8 + 8, by * 8 + 8);
                let mean_dc = f64::from(d.block_mean(bx, by));
                assert!(
                    (mean_pix - mean_dc).abs() < 3.0,
                    "block ({bx},{by}): pixel mean {mean_pix} vs DC mean {mean_dc}"
                );
            }
        }
    }

    #[test]
    fn partial_dc_agrees_with_full_decode_dc() {
        let clip = test_clip(5, 2.0);
        let bytes = Encoder::encode_clip(&clip, EncoderConfig { gop: 4, quality: 60, motion_search: true });
        let dcs = PartialDecoder::new(&bytes).unwrap().decode_all().unwrap();
        let frames = Decoder::new(&bytes).unwrap().decode_all().unwrap();
        for d in &dcs {
            let f = &frames[d.frame_index as usize];
            for by in 0..d.blocks_h - 1 {
                for bx in 0..d.blocks_w - 1 {
                    let mean_pix = f.region_mean(bx * 8, by * 8, bx * 8 + 8, by * 8 + 8);
                    let mean_dc = f64::from(d.block_mean(bx, by));
                    assert!((mean_pix - mean_dc).abs() < 2.0);
                }
            }
        }
    }

    #[test]
    fn truncated_stream_errors_cleanly() {
        let clip = test_clip(6, 1.0);
        let bytes = Encoder::encode_clip(&clip, EncoderConfig::default());
        let cut = &bytes[..bytes.len() / 2];
        let mut dec = Decoder::new(cut).unwrap();
        let result = loop {
            match dec.next_frame() {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert!(result.is_err(), "truncation must surface as an error");
    }

    #[test]
    fn pooled_dc_decode_matches_allocating_path_and_reuses_capacity() {
        let clip = test_clip(7, 4.0);
        let bytes = Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 70, motion_search: true });
        let expected = PartialDecoder::new(&bytes).unwrap().decode_all().unwrap();

        let mut dec = PartialDecoder::new(&bytes).unwrap();
        let mut frame = DcFrame::empty();
        let mut got = Vec::new();
        let mut cap_after_first = 0usize;
        while dec.next_dc_frame_into(&mut frame).unwrap() {
            if got.is_empty() {
                cap_after_first = frame.dc.capacity();
            } else {
                assert_eq!(frame.dc.capacity(), cap_after_first, "pooled buffer must not regrow");
            }
            got.push(frame.clone());
        }
        assert_eq!(got, expected, "pooled decode must be bit-identical");
        assert!(!dec.next_dc_frame_into(&mut frame).unwrap(), "stream exhausted");
    }

    #[test]
    fn garbage_input_is_rejected() {
        assert!(Decoder::new(b"not a stream").is_err());
        assert!(PartialDecoder::new(&[]).is_err());
    }

    /// Decode every key frame with recovery enabled, returning the frames
    /// and the final health counters.
    fn recover_all(bytes: &[u8]) -> (Vec<DcFrame>, IngestHealth) {
        let mut dec = PartialDecoder::new_with_recovery(bytes, true).unwrap();
        let mut frame = DcFrame::empty();
        let mut out = Vec::new();
        while dec.next_dc_frame_into(&mut frame).unwrap() {
            out.push(frame.clone());
        }
        (out, dec.health())
    }

    #[test]
    fn recovery_on_clean_stream_is_bit_identical_to_strict() {
        let clip = test_clip(8, 3.0);
        let bytes = Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 80, motion_search: true });
        let strict = PartialDecoder::new(&bytes).unwrap().decode_all().unwrap();
        let (recovered, health) = recover_all(&bytes);
        assert_eq!(recovered, strict);
        assert!(health.is_clean(), "{health:?}");
    }

    #[test]
    fn recovery_resyncs_past_a_corrupted_record() {
        let clip = test_clip(9, 4.0); // 40 frames, gop 5 → 8 key frames
        let mut bytes =
            Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 80, motion_search: true });
        let strict = PartialDecoder::new(&bytes).unwrap().decode_all().unwrap();
        assert_eq!(strict.len(), 8);

        // Find the third record (second key frame region) and wreck its
        // header so strict decode dies there.
        let mut r = ByteReader::new(&bytes);
        StreamHeader::read(&mut r).unwrap();
        let rec = FrameRecord::read(&mut r).unwrap(); // frame 0 (I)
        r.skip(rec.payload_len as usize).unwrap();
        let second = r.position();
        bytes[second] = 0xee; // invalid frame type byte

        let mut strict_dec = PartialDecoder::new(&bytes).unwrap();
        let mut f = DcFrame::empty();
        assert!(strict_dec.next_dc_frame_into(&mut f).unwrap());
        let err = loop {
            match strict_dec.next_dc_frame_into(&mut f) {
                Ok(true) => continue,
                Ok(false) => panic!("strict decode must error on the wrecked record"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, CodecError::InvalidField(_) | CodecError::CorruptEntropy(_)));

        let (recovered, health) = recover_all(&bytes);
        // The first key frame decodes before the damage; later key frames
        // are recovered after resync.
        assert_eq!(recovered[0], strict[0]);
        assert!(recovered.len() >= strict.len() - 2, "{} of 8 recovered", recovered.len());
        assert!(health.resyncs >= 1, "{health:?}");
        assert!(health.frames_dropped >= 1, "{health:?}");
        assert!(health.bytes_skipped >= 1, "{health:?}");
        // Key frames from intact records are bit-identical to the clean
        // decode of the same records.
        for rf in &recovered {
            if let Some(sf) = strict.iter().find(|s| s.frame_index == rf.frame_index) {
                if rf.frame_index > 10 {
                    assert_eq!(rf, sf, "frame {}", rf.frame_index);
                }
            }
        }
    }

    #[test]
    fn recovery_survives_truncation() {
        let clip = test_clip(10, 2.0);
        let bytes = Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 80, motion_search: true });
        let cut = &bytes[..bytes.len() - bytes.len() / 3];
        let (recovered, health) = recover_all(cut);
        assert!(!recovered.is_empty());
        assert!(health.frames_dropped >= 1, "{health:?}");
    }

    #[test]
    fn recovery_never_diverges_on_arbitrary_suffixes() {
        // Whatever junk follows a valid header must terminate cleanly.
        let clip = test_clip(11, 1.0);
        let bytes = Encoder::encode_clip(&clip, EncoderConfig::default());
        for cut in [8, 9, 10, 15] {
            let mut junk = bytes[..cut.min(bytes.len())].to_vec();
            junk.extend(std::iter::repeat_n(0xa5u8, 64));
            if let Ok(mut dec) = PartialDecoder::new_with_recovery(&junk, true) {
                let mut f = DcFrame::empty();
                let mut iters = 0usize;
                while dec.next_dc_frame_into(&mut f).unwrap() {
                    iters += 1;
                    assert!(iters <= junk.len(), "unbounded recovery loop");
                }
            }
        }
    }
}
