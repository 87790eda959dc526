//! # vdsms-codec — compressed-domain video codec substrate
//!
//! The paper's feature extraction runs in the *compressed domain*: "We
//! partially decode incoming video bit streams to Discrete Cosine (DC)
//! sequence and extract the DC coefficients of key (or I) frames"
//! (Section III-A). Reproducing that claim requires an actual block codec
//! whose bitstream can be *partially* decoded — recovering DC terms while
//! skipping dequantization, inverse DCT and motion compensation.
//!
//! This crate is that substrate, built from scratch:
//!
//! * 8×8 orthonormal DCT-II / inverse DCT ([`dct`]);
//! * JPEG-style quantization with a quality knob ([`quant`]) — re-encoding a
//!   copy at a different quality reproduces the paper's "re-compress with
//!   different settings" perturbation;
//! * zigzag scan + run-length + signed-varint entropy coding ([`zigzag`],
//!   [`bitio`]);
//! * a GOP structure with intra (I) and predicted (P) frames ([`encoder`]);
//! * a **full decoder** (pixel reconstruction) and a **partial decoder**
//!   that touches only I-frame DC terms, skipping P-frames entirely via
//!   frame-length prefixes ([`decoder`]). The asymptotic cost gap between
//!   the two is structural, exactly as in MPEG.
//!
//! The bitstream format is documented in [`bitstream`].

#![forbid(unsafe_code)]

pub mod bitio;
pub mod bitstream;
pub mod block;
pub mod dct;
pub mod decoder;
pub mod encoder;
pub mod quant;
pub mod zigzag;

pub use bitstream::{FrameType, StreamHeader};
pub use decoder::{
    complete_record_end, DcFrame, DecodeScratch, Decoder, IngestHealth, PartialDecoder,
};
pub use encoder::{Encoder, EncoderConfig};
pub use quant::{Quantizer, QuantizerCache};

/// Errors produced while parsing a bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream does not begin with the expected magic bytes.
    BadMagic,
    /// The stream ended in the middle of a record.
    UnexpectedEof,
    /// A field held an invalid value (e.g. zero dimensions).
    InvalidField(&'static str),
    /// Entropy-coded data was malformed.
    CorruptEntropy(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bitstream does not start with VDSM magic"),
            CodecError::UnexpectedEof => write!(f, "bitstream truncated"),
            CodecError::InvalidField(name) => write!(f, "invalid bitstream field: {name}"),
            CodecError::CorruptEntropy(what) => write!(f, "corrupt entropy data: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Convenience alias for codec results.
pub type Result<T> = std::result::Result<T, CodecError>;
