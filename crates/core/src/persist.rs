//! Query persistence: serialize sketched queries so they can be built
//! offline (the paper's "the sketches of the query sequences can be
//! min-hashed offline") and loaded at subscription time without
//! re-decoding the query video.
//!
//! Format (little-endian, versioned):
//!
//! ```text
//! file   := magic("VDSQ") version(u8=1) count(u32) query*
//! query  := id(u32) keyframes(u32) k(u32) mins(u64 × k)
//! ```
//!
//! The hash family `(k, hash_seed)` is *not* stored — sketches are only
//! meaningful against the family they were built with, so the loader
//! checks `k` and the caller is responsible for using the same seed
//! (store it alongside, e.g. in the deployment config).

use crate::query::{Query, QuerySet};
use vdsms_sketch::Sketch;

/// Magic bytes of the query-set format.
pub const MAGIC: &[u8; 4] = b"VDSQ";
/// Current format version.
pub const VERSION: u8 = 1;

/// Errors while loading a persisted query set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Bad magic or version.
    BadHeader,
    /// Truncated input.
    UnexpectedEof,
    /// A query's `K` differs from the expected one.
    KMismatch {
        /// `K` expected by the caller.
        expected: usize,
        /// `K` found in the file.
        found: usize,
    },
    /// Duplicate query id in the file.
    DuplicateId(u32),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadHeader => write!(f, "not a VDSQ query-set file"),
            PersistError::UnexpectedEof => write!(f, "query-set file truncated"),
            PersistError::KMismatch { expected, found } => {
                write!(f, "sketch K mismatch: expected {expected}, file has {found}")
            }
            PersistError::DuplicateId(id) => write!(f, "duplicate query id {id}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Serialize a query set.
pub fn save_queries(queries: &QuerySet) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(queries.len() as u32).to_le_bytes());
    for q in queries.iter() {
        out.extend_from_slice(&q.id.to_le_bytes());
        out.extend_from_slice(&(q.keyframes as u32).to_le_bytes());
        out.extend_from_slice(&(q.sketch.k() as u32).to_le_bytes());
        for &m in q.sketch.mins() {
            out.extend_from_slice(&m.to_le_bytes());
        }
    }
    out
}

/// Deserialize a query set, verifying every sketch uses `expected_k`.
pub fn load_queries(bytes: &[u8], expected_k: usize) -> Result<QuerySet, PersistError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], PersistError> {
        if *pos + n > bytes.len() {
            return Err(PersistError::UnexpectedEof);
        }
        let s = &bytes[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    let u32_at = |pos: &mut usize| -> Result<u32, PersistError> {
        let s = take(pos, 4)?;
        let arr = s.try_into().map_err(|_| PersistError::UnexpectedEof)?;
        Ok(u32::from_le_bytes(arr))
    };

    if take(&mut pos, 4)? != MAGIC || take(&mut pos, 1)? != [VERSION] {
        return Err(PersistError::BadHeader);
    }
    let count = u32_at(&mut pos)?;
    let mut set = QuerySet::new();
    for _ in 0..count {
        let id = u32_at(&mut pos)?;
        let keyframes = u32_at(&mut pos)? as usize;
        let k = u32_at(&mut pos)? as usize;
        if k != expected_k {
            return Err(PersistError::KMismatch { expected: expected_k, found: k });
        }
        let mut mins = Vec::with_capacity(k);
        for _ in 0..k {
            let s = take(&mut pos, 8)?;
            let arr = s.try_into().map_err(|_| PersistError::UnexpectedEof)?;
            mins.push(u64::from_le_bytes(arr));
        }
        if set.get(id).is_some() {
            return Err(PersistError::DuplicateId(id));
        }
        set.insert(Query { id, keyframes, sketch: Sketch::from_mins(mins) });
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdsms_sketch::MinHashFamily;

    fn sample_set(k: usize) -> QuerySet {
        let family = MinHashFamily::new(k, 3);
        QuerySet::from_queries(
            (0..5u32)
                .map(|i| {
                    let ids: Vec<u64> = (0..20).map(|j| u64::from(i) * 100 + j).collect();
                    Query::from_cell_ids(i, &family, &ids)
                })
                .collect(),
        )
    }

    #[test]
    fn round_trip_preserves_everything() {
        let set = sample_set(64);
        let bytes = save_queries(&set);
        let loaded = load_queries(&bytes, 64).unwrap();
        assert_eq!(loaded.len(), set.len());
        for q in set.iter() {
            let l = loaded.get(q.id).unwrap();
            assert_eq!(l.keyframes, q.keyframes);
            assert_eq!(l.sketch, q.sketch);
        }
    }

    #[test]
    fn k_mismatch_is_rejected() {
        let bytes = save_queries(&sample_set(64));
        assert_eq!(
            load_queries(&bytes, 128).err(),
            Some(PersistError::KMismatch { expected: 128, found: 64 })
        );
    }

    #[test]
    fn garbage_and_truncation_are_rejected() {
        assert_eq!(load_queries(b"nope", 8).err(), Some(PersistError::BadHeader));
        assert_eq!(load_queries(b"nop", 8).err(), Some(PersistError::UnexpectedEof));
        let bytes = save_queries(&sample_set(16));
        assert_eq!(
            load_queries(&bytes[..bytes.len() - 3], 16).err(),
            Some(PersistError::UnexpectedEof)
        );
        assert_eq!(load_queries(&[], 16).err(), Some(PersistError::UnexpectedEof));
    }

    #[test]
    fn empty_set_round_trips() {
        let bytes = save_queries(&QuerySet::new());
        assert!(load_queries(&bytes, 800).unwrap().is_empty());
    }

    #[test]
    fn loaded_queries_work_in_a_detector() {
        let cfg = crate::DetectorConfig { k: 64, window_keyframes: 4, ..Default::default() };
        let family = crate::Detector::family_for(&cfg);
        let ids: Vec<u64> = (0..30).collect();
        let set = QuerySet::from_queries(vec![Query::from_cell_ids(9, &family, &ids)]);
        let loaded = load_queries(&save_queries(&set), 64).unwrap();
        let mut det = crate::Detector::new(cfg, loaded);
        let dets = det.run(ids.iter().copied().enumerate().map(|(i, v)| (i as u64, v)));
        assert!(dets.iter().any(|d| d.query_id == 9));
    }

    /// A file's way into the catalogue, against the set it was saved
    /// from. The catalogue is near-miss duplicates — twelve queries over
    /// four shared runs of cell ids, so whole runs of min-hash values are
    /// held by several queries. Detectors built from the loaded set must
    /// emit what detectors built from the in-memory one do in every
    /// configuration; an index built over the loaded set must probe and
    /// encode like one built over the original; and a catalogue's slab
    /// must hold the saved minima under every id.
    #[test]
    fn a_loaded_catalogue_detects_probes_and_encodes_like_the_saved_one() {
        use crate::bitsig::{BitSig, CandidatePlane};
        use crate::config::{DetectorConfig, Order, Representation};
        use crate::engine::Catalogue;
        use crate::hq::HqIndex;
        use crate::Detector;
        const K: usize = 64;
        let base = DetectorConfig { k: K, delta: 0.7, window_keyframes: 4, ..Default::default() };
        let family = Detector::family_for(&base);
        let run = |r: u32| (0..16).map(move |j| u64::from(r % 4) * 1_000 + j);
        let cells = |i: u32| -> Vec<u64> {
            let neighbour = run(i + 1).take(4 + 4 * (i as usize / 4));
            run(i).chain(neighbour).chain([50_000 + u64::from(i)]).collect()
        };
        let set = QuerySet::from_queries(
            (0..12u32).map(|i| Query::from_cell_ids(i, &family, &cells(i))).collect(),
        );
        let loaded = load_queries(&save_queries(&set), K).unwrap();

        // Plants of three near-miss queries, one of them reversed, between
        // stretches of background.
        let background = |n: u64, at: u64| (0..n).map(move |j| 9_000_000 + at * 100 + j);
        let stream: Vec<u64> = background(13, 0)
            .chain(cells(0))
            .chain(background(9, 1))
            .chain(cells(5).into_iter().rev())
            .chain(background(11, 2))
            .chain(cells(10))
            .chain(background(7, 3))
            .collect();
        let frames = || stream.iter().copied().enumerate().map(|(i, v)| (i as u64, v));
        for order in [Order::Sequential, Order::Geometric] {
            for representation in [Representation::Sketch, Representation::Bit] {
                for use_index in [false, true] {
                    let cfg = DetectorConfig { order, representation, use_index, ..base };
                    let want = Detector::new(cfg, set.clone()).run(frames());
                    let got = Detector::new(cfg, loaded.clone()).run(frames());
                    let label = format!("{order:?}/{representation:?}/use_index={use_index}");
                    assert!(want.iter().any(|d| d.query_id == 5), "{label}: no plant found");
                    assert_eq!(got, want, "{label}");
                }
            }
        }

        let (original, reloaded) = (HqIndex::build(K, &set), HqIndex::build(K, &loaded));
        let hits = |ix: &HqIndex, sk: &Sketch| -> Vec<(u32, usize, BitSig)> {
            let hits = ix.probe(sk, base.delta).hits;
            hits.into_iter().map(|h| (h.query_id, h.keyframes, h.sig)).collect()
        };
        let windows = stream.chunks(4).map(|w| Sketch::from_ids(&family, w.iter().copied()));
        let (mut plane, mut reloaded_plane) =
            (CandidatePlane::default(), CandidatePlane::default());
        for sk in windows.chain(set.iter().map(|q| q.sketch.clone())) {
            assert_eq!(hits(&reloaded, &sk), hits(&original, &sk));
            plane.clear();
            reloaded_plane.clear();
            for id in 0..14u32 {
                let (mut want, mut got) = (BitSig::default(), BitSig::default());
                let mins = sk.mins();
                let counts = original.encode_against(id, mins, plane.of(mins), &mut want);
                let reloaded_counts =
                    reloaded.encode_against(id, mins, reloaded_plane.of(mins), &mut got);
                assert_eq!((reloaded_counts, got), (counts, want), "query {id}");
            }
        }

        let catalogue = Catalogue::shared(&base, &loaded, None);
        for q in set.iter() {
            assert_eq!(catalogue.values(q.id), Some(q.sketch.mins()), "query {}", q.id);
        }
        assert_eq!(catalogue.values(12), None);
    }
}
