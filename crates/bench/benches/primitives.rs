//! Micro-benchmarks of the engine's primitive operations — the `C_comp` /
//! `C_comb` terms of the paper's Section IV-B cost model. The Bit-vs-
//! Sketch gap measured here is the mechanism behind Figure 6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vdsms_codec::bitio::{ByteReader, ByteWriter};
use vdsms_core::BitSig;
use vdsms_features::RegionPlan;
use vdsms_sketch::{HashColumnCache, MinHashFamily, Sketch};

const KS: &[usize] = &[100, 800, 3000];

fn sketch_of(family: &MinHashFamily, base: u64, n: u64) -> Sketch {
    Sketch::from_ids(family, base..base + n)
}

fn bench_sketch_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("sketch");
    g.sample_size(30);
    for &k in KS {
        let family = MinHashFamily::new(k, 1);
        let a = sketch_of(&family, 0, 50);
        let b = sketch_of(&family, 25, 60);

        g.bench_with_input(BenchmarkId::new("build_window_50ids", k), &k, |bench, _| {
            bench.iter(|| Sketch::from_ids(&family, black_box(0u64..50)));
        });
        g.bench_with_input(BenchmarkId::new("combine", k), &k, |bench, _| {
            bench.iter(|| {
                let mut x = a.clone();
                x.combine(black_box(&b));
                x
            });
        });
        g.bench_with_input(BenchmarkId::new("compare", k), &k, |bench, _| {
            bench.iter(|| black_box(&a).equal_count(black_box(&b)));
        });
    }
    g.finish();
}

fn bench_bitsig_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitsig");
    g.sample_size(30);
    for &k in KS {
        let family = MinHashFamily::new(k, 1);
        let q = sketch_of(&family, 0, 50);
        let p1 = sketch_of(&family, 25, 60);
        let p2 = sketch_of(&family, 40, 70);
        let s1 = BitSig::encode(&p1, &q);
        let s2 = BitSig::encode(&p2, &q);

        g.bench_with_input(BenchmarkId::new("encode", k), &k, |bench, _| {
            bench.iter(|| BitSig::encode(black_box(&p1), black_box(&q)));
        });
        g.bench_with_input(BenchmarkId::new("or_combine", k), &k, |bench, _| {
            bench.iter(|| {
                let mut x = s1.clone();
                x.or_with(black_box(&s2));
                x
            });
        });
        g.bench_with_input(BenchmarkId::new("similarity", k), &k, |bench, _| {
            bench.iter(|| black_box(&s1).similarity());
        });
    }
    g.finish();
}

/// Per-stage rows for the fused ingestion hot path. Each stage pairs the
/// vectorized kernel with its scalar/naive "before" shape **in the same
/// build**, so the per-stage speedups in `BENCH_ingest.json` are
/// reproducible from a single commit. Varint decoding is the exception:
/// there is one decoder, byte at a time, because the word-at-a-time
/// decode `BENCH_ingest.json` records was a wash on this mixed-width
/// stream (three varints in four are one byte).
fn bench_varint_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("varint");
    g.sample_size(30);
    // A stream shaped like real entropy data: mostly small zigzagged
    // deltas, some mid-width values, occasional full-width outliers.
    let mut w = ByteWriter::new();
    let mut x = 0x243f_6a88_85a3_08d3u64; // fixed xorshift seed
    const N: usize = 4096;
    for _ in 0..N {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = match x % 16 {
            0 => x,
            1..=3 => x % 100_000,
            _ => x % 128,
        };
        w.put_varint(v);
    }
    let bytes = w.into_bytes();

    g.bench_function("decode_4096", |bench| {
        bench.iter(|| {
            let mut r = ByteReader::new(black_box(&bytes));
            let mut acc = 0u64;
            while !r.is_at_end() {
                acc = acc.wrapping_add(r.get_varint().unwrap());
            }
            acc
        });
    });
    g.finish();
}

/// The naive per-frame region-averaging double loop, inlined here as the
/// "before" shape (the library now routes everything through
/// [`RegionPlan`]; `tests/region_plan_props.rs` holds the two
/// bit-identical).
fn naive_region_averages(
    dc: &[f32],
    blocks_w: u32,
    blocks_h: u32,
    rows: u32,
    cols: u32,
    out: &mut [f32],
) {
    let overlap = |b: u32, r: u32, n: u32, total: u32| -> f64 {
        let r0 = f64::from(r) * f64::from(total) / f64::from(n);
        let r1 = f64::from(r + 1) * f64::from(total) / f64::from(n);
        (f64::from(b) + 1.0).min(r1) - f64::from(b).max(r0)
    };
    for rr in 0..rows {
        for rc in 0..cols {
            let mut sum = 0.0f64;
            let mut weight = 0.0f64;
            for by in 0..blocks_h {
                let wy = overlap(by, rr, rows, blocks_h);
                if wy <= 0.0 {
                    continue;
                }
                for bx in 0..blocks_w {
                    let wx = overlap(bx, rc, cols, blocks_w);
                    if wx <= 0.0 {
                        continue;
                    }
                    let w = wy * wx;
                    sum += w * f64::from(dc[(by * blocks_w + bx) as usize]);
                    weight += w;
                }
            }
            out[(rr * cols + rc) as usize] = (sum / weight) as f32;
        }
    }
}

fn bench_region_averaging(c: &mut Criterion) {
    let mut g = c.benchmark_group("region_avg");
    g.sample_size(30);
    // CIF-ish geometry from the ingest benches: 176×120 → 22×15 blocks,
    // 3×3 regions (paper Table I).
    let (bw, bh, rows, cols) = (22u32, 15u32, 3u32, 3u32);
    let dc: Vec<f32> = (0..bw * bh).map(|i| (i as f32 * 0.37).sin() * 100.0).collect();
    let mut out = vec![0.0f32; (rows * cols) as usize];
    let plan = RegionPlan::build(bw, bh, rows, cols);

    g.bench_function("planned_soa_22x15", |bench| {
        bench.iter(|| {
            plan.region_averages_into(black_box(&dc), &mut out);
            out[0]
        });
    });
    g.bench_function("naive_22x15", |bench| {
        bench.iter(|| {
            naive_region_averages(black_box(&dc), bw, bh, rows, cols, &mut out);
            out[0]
        });
    });
    g.finish();
}

/// The per-window sketch fold (`w` key-frame ids into `K` minima) and the
/// signature merge+count — the two engine kernels between decode and the
/// candidate stores.
fn bench_window_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("window");
    g.sample_size(30);
    let k = 800;
    let family = MinHashFamily::new(k, 1);
    let ids: Vec<u64> = (0..8u64).map(|i| i * 0x9e37_79b9 + 17).collect();
    let mut mins = vec![u64::MAX; k];

    g.bench_function("fold8_batched", |bench| {
        bench.iter(|| {
            mins.fill(u64::MAX);
            family.update_mins_batch(black_box(&ids), &mut mins);
            mins[0]
        });
    });
    g.bench_function("fold8_one_at_a_time", |bench| {
        bench.iter(|| {
            mins.fill(u64::MAX);
            for &id in black_box(&ids) {
                family.update_mins(id, &mut mins);
            }
            mins[0]
        });
    });
    // Steady-state cached fold: all 8 ids hit the hash-column cache
    // (the streaming common case — ~70% of key frames repeat the
    // previous cell id), so each fold is one element-wise min pass.
    let mut cache = HashColumnCache::new(&family, 64);
    for &id in &ids {
        cache.fold_min(&family, id, &mut mins);
    }
    g.bench_function("fold8_cached_hits", |bench| {
        bench.iter(|| {
            mins.fill(u64::MAX);
            for &id in black_box(&ids) {
                cache.fold_min(&family, id, &mut mins);
            }
            mins[0]
        });
    });

    let q = sketch_of(&family, 0, 50);
    let p1 = sketch_of(&family, 25, 60);
    let p2 = sketch_of(&family, 40, 70);
    let s1 = BitSig::encode(&p1, &q);
    let s2 = BitSig::encode(&p2, &q);
    let mut acc = s1.clone();

    g.bench_function("merge_count_fused", |bench| {
        bench.iter(|| {
            acc.clone_from(&s1);
            acc.or_with_counts(black_box(&s2))
        });
    });
    g.bench_function("merge_then_count", |bench| {
        bench.iter(|| {
            acc.clone_from(&s1);
            acc.or_with(black_box(&s2));
            (acc.count_less(), acc.count_equal())
        });
    });

    // `or_with_counts` as it is — the two one-bit-per-pair masks summed in
    // their 2-bit fields, three words to a fold — and as it was, two
    // `count_ones` per word, which the baseline x86-64 target expands to
    // fifteen operations each. Same signatures, same copy into the
    // accumulator first (a slice copy, unlike the `clone_from` above).
    g.bench_function("or_with_counts_field_sums", |bench| {
        bench.iter(|| {
            acc.copy_from(&s1);
            acc.or_with_counts(black_box(&s2))
        });
    });
    let (w1, w2) = (signature_words(&p1, &q), signature_words(&p2, &q));
    let mut words = w1.clone();
    g.bench_function("or_with_counts_popcount_per_word", |bench| {
        bench.iter(|| {
            words.copy_from_slice(&w1);
            or_with_counts_popcount_per_word(&mut words, black_box(&w2))
        });
    });
    g.finish();
}

/// A signature's words, for the inlined kernel below (`BitSig` keeps its
/// own private): pair `r` at bits `2r`, `2r + 1` of word `r / 32`.
fn signature_words(candidate: &Sketch, query: &Sketch) -> Vec<u64> {
    let mut words = vec![0u64; candidate.k().div_ceil(32)];
    for (r, (c, q)) in candidate.mins().iter().zip(query.mins()).enumerate() {
        words[r / 32] |= (u64::from(c < q) | u64::from(c <= q) << 1) << (2 * (r % 32));
    }
    words
}

/// `BitSig::or_with_counts` before the field sums, for a `K` that fills
/// its last word: OR, then two population counts, per word.
fn or_with_counts_popcount_per_word(ours: &mut [u64], theirs: &[u64]) -> (usize, usize) {
    const MASK_A: u64 = 0x5555_5555_5555_5555;
    let (mut lt, mut eq) = (0u32, 0u32);
    for (a, &b) in ours.iter_mut().zip(theirs) {
        let w = *a | b;
        *a = w;
        lt += (w & MASK_A).count_ones();
        eq += (!w & (w >> 1) & MASK_A).count_ones();
    }
    (lt as usize, eq as usize)
}

criterion_group!(
    benches,
    bench_sketch_ops,
    bench_bitsig_ops,
    bench_varint_decode,
    bench_region_averaging,
    bench_window_kernels
);
criterion_main!(benches);
