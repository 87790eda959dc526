//! Reference properties for the entropy layer's read side.
//!
//! `ByteReader::get_varint` must agree exactly with the byte-at-a-time
//! LEB128 reference below: same value on success, same error variant on
//! failure, and the same cursor position afterwards on every path —
//! including 10-byte maximum-length varints, overlong continuation runs
//! and truncation at every distance from end-of-buffer.
//! `skip_past_zero_byte`'s SWAR word scan gets the same treatment against
//! an inline scalar reference.

use proptest::prelude::*;
use vdsms_codec::bitio::{ByteReader, ByteWriter};
use vdsms_codec::CodecError;

/// Byte-at-a-time LEB128 reference decode of `buf` from `pos`: the value
/// (or error) and the cursor after it. A 10-byte encoding drops payload
/// bits above bit 63; an 11th continuation byte is `CorruptEntropy`; EOF
/// inside a varint is `UnexpectedEof`.
fn reference_varint(buf: &[u8], mut pos: usize) -> (Result<u64, CodecError>, usize) {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(pos) else {
            return (Err(CodecError::UnexpectedEof), pos);
        };
        pos += 1;
        if shift >= 64 {
            return (Err(CodecError::CorruptEntropy("varint overflow")), pos);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return (Ok(v), pos);
        }
        shift += 7;
    }
}

/// Decode from `start` repeatedly until an error or the end of the
/// buffer, asserting result AND cursor against the reference each time.
fn assert_matches_reference(buf: &[u8], start: usize) {
    let mut r = ByteReader::new(buf);
    r.seek(start);
    loop {
        let before = r.position();
        let (want, want_pos) = reference_varint(buf, before);
        let got = r.get_varint();
        assert_eq!(got, want, "value/error divergence at pos {before}");
        assert_eq!(r.position(), want_pos, "cursor divergence after result {got:?}");
        if got.is_err() || r.is_at_end() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte soup: single-byte values, multi-byte varints,
    /// overlong continuation runs and truncation near EOF, from every
    /// prefix offset.
    #[test]
    fn varint_matches_reference_on_random_buffers(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        start in 0usize..16,
    ) {
        let start = start.min(bytes.len());
        assert_matches_reference(&bytes, start);
    }

    /// Buffers biased toward continuation bytes (bit 7 set) reach the
    /// overflow error much more often than uniform bytes do.
    #[test]
    fn varint_matches_reference_on_continuation_heavy_buffers(
        bytes in proptest::collection::vec(0x80u8..=0xff, 0..32),
        tail in proptest::collection::vec(any::<u8>(), 0..4),
        start in 0usize..8,
    ) {
        let mut buf = bytes;
        buf.extend_from_slice(&tail);
        let start = start.min(buf.len());
        assert_matches_reference(&buf, start);
    }

    /// Every encoded value decodes back, whatever junk precedes it.
    #[test]
    fn varint_round_trips_after_any_prefix(
        prefix_len in 0usize..16,
        values in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let mut w = ByteWriter::new();
        for _ in 0..prefix_len {
            w.put_u8(0xff); // junk continuation bytes, skipped via seek
        }
        for &v in &values {
            w.put_varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.seek(prefix_len);
        for &v in &values {
            prop_assert_eq!(r.get_varint().unwrap(), v);
        }
        prop_assert!(r.is_at_end());
    }

    /// Truncate a valid stream at EVERY byte offset: the decoder must
    /// match the reference and never read past the buffer (the truncated
    /// slice is all it is given, so an out-of-bounds read would panic,
    /// not just misbehave).
    #[test]
    fn varint_handles_truncation_at_every_offset(
        values in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let mut w = ByteWriter::new();
        for &v in &values {
            w.put_varint(v);
        }
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert_matches_reference(&bytes[..cut], 0);
        }
    }

    /// `skip_past_zero_byte`'s word scan against a byte-at-a-time
    /// reference: same cursor on success, same error and end-position on
    /// a zero-free buffer.
    #[test]
    fn swar_zero_scan_matches_scalar(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        start in 0usize..16,
    ) {
        let start = start.min(bytes.len());
        let mut fast = ByteReader::new(&bytes);
        fast.seek(start);
        let got = fast.skip_past_zero_byte();
        // Scalar reference: position just past the first zero byte.
        match bytes[start..].iter().position(|&b| b == 0) {
            Some(i) => {
                prop_assert_eq!(got, Ok(()));
                prop_assert_eq!(fast.position(), start + i + 1);
            }
            None => {
                prop_assert_eq!(got, Err(CodecError::UnexpectedEof));
                prop_assert_eq!(fast.position(), bytes.len());
            }
        }
    }
}

/// Encodings of every width from one byte to the 10-byte maximum.
#[test]
fn varint_width_corners() {
    for n_bytes in [1usize, 2, 7, 8, 9, 10] {
        // Smallest value needing exactly `n_bytes`: 2^(7*(n-1)), except
        // n=1 which is 0. u64::MAX needs the full 10 bytes.
        let v = if n_bytes == 1 {
            0u64
        } else if n_bytes == 10 {
            u64::MAX
        } else {
            1u64 << (7 * (n_bytes - 1))
        };
        let mut w = ByteWriter::new();
        w.put_varint(v);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), n_bytes, "encoding width for {v}");
        assert_matches_reference(&bytes, 0);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_varint().unwrap(), v);
        assert_eq!(r.position(), n_bytes);
    }
}

/// An 11th continuation byte is rejected with the reference's error and
/// cursor, from every start alignment.
#[test]
fn varint_overflow_matches_reference_at_every_alignment() {
    for align in 0..9 {
        let mut buf = vec![0xffu8; align];
        buf.extend_from_slice(&[0x80; 10]); // 10 continuation bytes
        buf.push(0x01); // terminator arrives one byte too late
        let mut r = ByteReader::new(&buf);
        r.seek(align);
        let got = r.get_varint();
        assert!(matches!(got, Err(CodecError::CorruptEntropy(_))), "{got:?}");
        assert_eq!((got, r.position()), reference_varint(&buf, align));
    }
}
