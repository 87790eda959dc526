//! Byte-oriented entropy I/O: LEB128 varints with zigzag signed mapping.
//!
//! The codec's entropy layer is run-length + varint rather than Huffman:
//! it keeps the bitstream compact enough to be honest about compressed-
//! domain costs while remaining skippable at byte granularity, which is
//! what the partial decoder exploits.
//!
//! The two byte scans are SWAR-accelerated: away from the buffer tail,
//! the resync scan ([`find_byte_le_one`]) and the AC-tail skip
//! ([`ByteReader::skip_past_zero_byte`]) load 8 bytes at a time and find
//! the byte of interest with word-parallel bit tricks, finishing with a
//! scalar tail loop; `tests/swar_varint_props.rs` holds them identical to
//! a byte-at-a-time reference. Varint decoding is a byte-at-a-time loop:
//! most varints in a stream are one byte, where a word decode buys
//! nothing.

use crate::{CodecError, Result};

/// `0x01` repeated in every byte lane.
const SWAR_LSB: u64 = 0x0101_0101_0101_0101;

/// `0x80` repeated in every byte lane.
const SWAR_MSB: u64 = 0x8080_8080_8080_8080;

/// Load 8 little-endian bytes starting at `pos`.
///
/// # Panics
/// Panics if fewer than 8 bytes remain — callers guard with a length
/// check, keeping the SWAR fast paths in-bounds by construction.
#[inline]
fn load_u64_le(buf: &[u8], pos: usize) -> u64 {
    let mut arr = [0u8; 8];
    arr.copy_from_slice(&buf[pos..pos + 8]);
    u64::from_le_bytes(arr)
}

/// Word-parallel zero-byte detector: the classic `(w - 0x01…) & !w &
/// 0x80…` trick. The result has bit `8i+7` set iff byte `i` of `w` is
/// zero — exact for every byte up to and including the *first* zero
/// (borrow propagation can only perturb lanes above it), which is all a
/// `trailing_zeros`-based first-match scan ever reads.
#[inline]
fn swar_zero_bytes(w: u64) -> u64 {
    w.wrapping_sub(SWAR_LSB) & !w & SWAR_MSB
}

/// Position of the first byte `<= 1` at or after `from`, scanning 8
/// bytes per step. This is the corruption-recovery resync accelerator:
/// a plausible frame-record header must start with a kind byte of 0
/// or 1, so every other byte value can be skipped at word speed before
/// the full header plausibility check runs.
// vdsms-lint: entry
pub fn find_byte_le_one(buf: &[u8], from: usize) -> Option<usize> {
    let mut p = from;
    let end = buf.len();
    while p.saturating_add(8) <= end {
        let w = load_u64_le(buf, p);
        // A byte is <= 1 when it is 0x00 in `w` or 0x00 in `w ^ 0x01…`;
        // each detector is exact at its first match, so the OR's lowest
        // set bit is the first qualifying byte.
        let hits = swar_zero_bytes(w) | swar_zero_bytes(w ^ SWAR_LSB);
        if hits != 0 {
            return Some(p + (hits.trailing_zeros() >> 3) as usize);
        }
        p += 8;
    }
    while p < end {
        if buf[p] <= 1 {
            return Some(p);
        }
        p += 1;
    }
    None
}

/// Append-only varint writer over a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter { buf: Vec::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the buffer.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Write one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian u32 (used for fixed-width length prefixes the
    /// partial decoder needs for O(1) frame skipping).
    pub fn put_u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an unsigned LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        // vdsms-lint: allow(loop-progress) reason="v strictly shrinks by a 7-bit shift every iteration; terminates within 10 steps for any u64"
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Write a signed value with zigzag mapping (`0, -1, 1, -2, ...` →
    /// `0, 1, 2, 3, ...`) then LEB128.
    pub fn put_signed(&mut self, v: i64) {
        self.put_varint(zigzag_encode(v));
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Overwrite 4 bytes at `pos` with a little-endian u32 (back-patching a
    /// length prefix after the payload is known).
    pub fn patch_u32_le(&mut self, pos: usize, v: u32) {
        self.buf[pos..pos + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// Cursor-based varint reader over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// New reader at position 0.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor is at the end.
    pub fn is_at_end(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Read one raw byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a little-endian u32.
    pub fn get_u32_le(&mut self) -> Result<u32> {
        if self.remaining() < 4 {
            return Err(CodecError::UnexpectedEof);
        }
        let mut arr = [0u8; 4];
        arr.copy_from_slice(&self.buf[self.pos..self.pos + 4]);
        self.pos += 4;
        Ok(u32::from_le_bytes(arr))
    }

    /// Read an unsigned LEB128 varint. A 10-byte encoding is accepted
    /// with payload bits above bit 63 dropped, an 11th continuation byte
    /// is `CorruptEntropy`, and EOF inside a varint is `UnexpectedEof`.
    // vdsms-lint: entry
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(CodecError::CorruptEntropy("varint overflow"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a zigzag-mapped signed varint.
    pub fn get_signed(&mut self) -> Result<i64> {
        Ok(zigzag_decode(self.get_varint()?))
    }

    /// Read exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The entire underlying buffer, independent of the cursor. The
    /// decoder's corruption-recovery scan needs to inspect raw bytes ahead
    /// of the cursor without consuming them.
    pub fn buffer(&self) -> &'a [u8] {
        self.buf
    }

    /// Move the cursor to an absolute byte offset, clamped to the end of
    /// the buffer (resync after a corrupt record).
    pub fn seek(&mut self, pos: usize) {
        self.pos = pos.min(self.buf.len());
    }

    /// Advance the cursor by `n` bytes without reading (frame skipping).
    pub fn skip(&mut self, n: usize) -> Result<()> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        self.pos += n;
        Ok(())
    }

    /// Advance the cursor just past the next `0x00` byte.
    ///
    /// This is the fused ingestion path's AC-tail skip: inside an I-frame
    /// payload, every varint the encoder emits is minimal and non-zero
    /// except the end-of-block token and a zero DC delta, and the DC
    /// delta is always consumed *before* this scan starts — so the first
    /// `0x00` byte after a block's DC is exactly its EOB marker (see
    /// `vdsms_codec::zigzag`). A plain byte scan replaces per-token
    /// varint parsing.
    /// The scan itself is SWAR: 8 bytes per step through the bulk of
    /// the payload, with a scalar tail for the last partial word.
    // vdsms-lint: entry
    pub fn skip_past_zero_byte(&mut self) -> Result<()> {
        let end = self.buf.len();
        let mut p = self.pos;
        while p.saturating_add(8) <= end {
            let z = swar_zero_bytes(load_u64_le(self.buf, p));
            if z != 0 {
                self.pos = p + (z.trailing_zeros() >> 3) as usize + 1;
                return Ok(());
            }
            p += 8;
        }
        while p < end {
            if self.buf[p] == 0 {
                self.pos = p + 1;
                return Ok(());
            }
            p += 1;
        }
        self.pos = end;
        Err(CodecError::UnexpectedEof)
    }
}

/// Zigzag-map a signed integer to unsigned.
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_boundaries() {
        let cases = [0u64, 1, 127, 128, 129, 16383, 16384, u32::MAX as u64, u64::MAX];
        let mut w = ByteWriter::new();
        for &c in &cases {
            w.put_varint(c);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for &c in &cases {
            assert_eq!(r.get_varint().unwrap(), c);
        }
        assert!(r.is_at_end());
    }

    #[test]
    fn signed_round_trip() {
        let cases = [0i64, -1, 1, -2, 2, 255, -255, i32::MAX as i64, i32::MIN as i64];
        let mut w = ByteWriter::new();
        for &c in &cases {
            w.put_signed(c);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for &c in &cases {
            assert_eq!(r.get_signed().unwrap(), c);
        }
    }

    #[test]
    fn zigzag_mapping_is_compact_for_small_magnitudes() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        for v in -1000..1000 {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn u32_le_and_patching() {
        let mut w = ByteWriter::new();
        w.put_u32_le(0);
        w.put_u8(7);
        w.patch_u32_le(0, 0xdead_beef);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u32_le().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u8().unwrap(), 7);
    }

    #[test]
    fn reader_eof_is_an_error_not_a_panic() {
        let mut r = ByteReader::new(&[0x80]); // unterminated varint
        assert_eq!(r.get_varint(), Err(CodecError::UnexpectedEof));
        let mut r2 = ByteReader::new(&[]);
        assert_eq!(r2.get_u32_le(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn skip_past_zero_byte_lands_after_terminator() {
        let data = [5u8, 0x83, 0x10, 0, 7, 0];
        let mut r = ByteReader::new(&data);
        r.skip_past_zero_byte().unwrap();
        assert_eq!(r.position(), 4);
        r.skip_past_zero_byte().unwrap();
        assert!(r.is_at_end());
        assert_eq!(r.skip_past_zero_byte(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn skip_moves_cursor() {
        let data = [1u8, 2, 3, 4, 5];
        let mut r = ByteReader::new(&data);
        r.skip(3).unwrap();
        assert_eq!(r.get_u8().unwrap(), 4);
        assert!(r.skip(2).is_err());
    }

    #[test]
    fn varint_rejects_overlong_encodings() {
        // 11 continuation bytes exceed 64 bits of payload.
        let data = [0xff; 11];
        let mut r = ByteReader::new(&data);
        assert!(matches!(r.get_varint(), Err(CodecError::CorruptEntropy(_))));
    }
}
