//! HQ-index probe vs brute-force query scan — the mechanism behind
//! Figure 9's flat-vs-linear CPU curves — and the cost of one online
//! subscription change, each from `m = 10` to `m = 1024` — on the index
//! alone, and through a [`Fleet`] at either executor; and one signature
//! encode at `m = 1024`, from a query's own sketch with the value kernel
//! and from the index's slab with the discriminator-plane kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use vdsms_core::bitsig::CandidatePlane;
use vdsms_core::{BitSig, DetectorConfig, Fleet, HqIndex, Query, QuerySet};
use vdsms_sketch::{MinHashFamily, Sketch};

const K: usize = 800;

/// Query `id`: 60 cell ids no other query shares.
fn query(family: &MinHashFamily, id: u32) -> Query {
    let ids: Vec<u64> = (0..60u64).map(|j| u64::from(id) * 1000 + j).collect();
    Query::from_cell_ids(id, family, &ids)
}

fn query_set(family: &MinHashFamily, m: u32) -> QuerySet {
    QuerySet::from_queries((0..m).map(|i| query(family, i)).collect())
}

fn bench_probe(c: &mut Criterion) {
    let family = MinHashFamily::new(K, 9);
    let mut g = c.benchmark_group("hq_probe");
    g.sample_size(20);
    for m in [10u32, 50, 200, 1024] {
        let qs = query_set(&family, m);
        let ix = HqIndex::build(K, &qs);
        // A window related to one query (the common case).
        let sk = Sketch::from_ids(&family, 3000..3040u64);
        g.bench_with_input(BenchmarkId::new("indexed", m), &m, |bench, _| {
            bench.iter(|| ix.probe(black_box(&sk), 0.7));
        });
        // A window related to none: discovery alone.
        let unrelated = Sketch::from_ids(&family, 5_000_000..5_000_040u64);
        g.bench_with_input(BenchmarkId::new("indexed_unrelated", m), &m, |bench, _| {
            bench.iter(|| ix.probe(black_box(&unrelated), 0.7));
        });
        g.bench_with_input(BenchmarkId::new("bruteforce", m), &m, |bench, _| {
            bench.iter(|| ix.probe_bruteforce(black_box(&sk), 0.7, &qs));
        });
    }
    g.finish();
}

fn bench_index_maintenance(c: &mut Criterion) {
    let family = MinHashFamily::new(K, 9);
    let mut g = c.benchmark_group("hq_maintenance");
    g.sample_size(20);
    let new_q = {
        let ids: Vec<u64> = (0..60u64).map(|j| 999_000 + j).collect();
        Query::from_cell_ids(9999, &family, &ids)
    };
    {
        // `broadcast_fanin`'s regime: one warm index of 8 and a ninth
        // query coming and going, where a subscribe is 3 µs and what it
        // writes beside the `K` cells, the column's plane, shows. A
        // different query each time, as there: `insert` branches on
        // whether each value's home cell is taken, and 800 outcomes that
        // repeat are outcomes the predictor has learnt.
        let ix = RefCell::new(HqIndex::build(K, &query_set(&family, 8)));
        let decoys: Vec<Query> = (0..256).map(|i| query(&family, 5000 + i)).collect();
        let next = Cell::new(0usize);
        g.bench_function("subscribe_into_8", |bench| {
            bench.iter_batched(
                || {
                    let at = next.replace((next.get() + 1) % decoys.len());
                    ix.borrow_mut().remove(decoys[(at + decoys.len() - 1) % decoys.len()].id);
                    &decoys[at]
                },
                |q| ix.borrow_mut().insert(black_box(q)),
                criterion::BatchSize::PerIteration,
            );
        });
    }
    for m in [100u32, 1024] {
        let qs = query_set(&family, m);
        let built = HqIndex::build(K, &qs);
        // What a catalogue with more than one holder pays around the
        // `O(K)` insert or remove: `Arc::make_mut` copies the query set
        // and the index first (a worker fleet; a shared `Detector`).
        g.bench_function(format!("copy_query_set_{m}"), |bench| bench.iter(|| qs.clone()));
        g.bench_function(format!("copy_index_{m}"), |bench| bench.iter(|| built.clone()));
        // The steady state of a catalogue that churns around `m`: one
        // subscription beyond it has come and gone, so the slabs have
        // room for one more and, at a width boundary (m = 1024), the
        // rows have already doubled.
        let churned = || {
            let mut ix = built.clone();
            ix.insert(&new_q);
            ix.remove(new_q.id);
            ix
        };
        g.bench_function(format!("subscribe_into_{m}"), |bench| {
            bench.iter_batched(
                churned,
                |mut ix| {
                    ix.insert(black_box(&new_q));
                    ix
                },
                criterion::BatchSize::LargeInput,
            );
        });
        g.bench_function(format!("unsubscribe_from_{m}"), |bench| {
            bench.iter_batched(
                churned,
                |mut ix| {
                    ix.remove(black_box(m / 2));
                    ix
                },
                criterion::BatchSize::LargeInput,
            );
        });
        if m == 1024 {
            // The one subscription in `m` that re-lays every row.
            g.bench_function("subscribe_doubling_rows_at_1024", |bench| {
                bench.iter_batched(
                    || built.clone(),
                    |mut ix| {
                        ix.insert(black_box(&new_q));
                        ix
                    },
                    criterion::BatchSize::LargeInput,
                );
            });
        }
    }
    g.finish();
}

/// One encode of a window against one of 1024 queries, the two ways a
/// detector can make it, both from the query's slot of the slab:
/// `reference` is [`HqIndex::values`], then the value kernel
/// [`BitSig::encode_counts_from_mins`] (the no-index path), `planes` is
/// [`HqIndex::encode_against`] — the directory lookup, then the plane
/// kernel. Every query holds four cells in common, so one
/// window (`related`, those four cells: ≈ 50 of 800 values equal, the
/// probe's phase-2 regime) ties with all of them and another (`unrelated`:
/// no value equal, the on-demand regime) with none. `hot` repeats one
/// query; `slab_walk` takes the next of the 1024 each time, so the query
/// comes from memory the way it does between two windows of a stream.
fn bench_encode(c: &mut Criterion) {
    const M: u32 = 1024;
    let family = MinHashFamily::new(K, 9);
    let shared = [77_000_001u64, 77_000_002, 77_000_003, 77_000_004];
    let qs = QuerySet::from_queries(
        (0..M)
            .map(|id| {
                let own = (0..56u64).map(|j| u64::from(id) * 1000 + j);
                Query::from_cell_ids(
                    id,
                    &family,
                    &shared.into_iter().chain(own).collect::<Vec<_>>(),
                )
            })
            .collect(),
    );
    let ix = HqIndex::build(K, &qs);
    let related = Sketch::from_ids(&family, shared);
    let unrelated = Sketch::from_ids(&family, 5_000_000..5_000_004u64);
    let equal_with_0 =
        |sk: &Sketch| BitSig::encode(sk, &qs.get(0).expect("query 0").sketch).count_equal();
    assert!((30..80).contains(&equal_with_0(&related)) && equal_with_0(&unrelated) == 0);

    let mut g = c.benchmark_group("encode_1024");
    g.sample_size(20);
    let mut sig = BitSig::default();
    for (regime, sk) in [("unrelated", &unrelated), ("related", &related)] {
        let mut plane = CandidatePlane::default();
        for (walk, step) in [("hot", 0u32), ("slab_walk", 1)] {
            let next = Cell::new(0u32);
            let id = || next.replace((next.get() + step) % M);
            g.bench_function(format!("reference/{regime}_{walk}"), |bench| {
                bench.iter(|| {
                    let values = ix.values(id()).expect("every id is subscribed");
                    sig.encode_counts_from_mins(black_box(sk.mins()), values)
                });
            });
            g.bench_function(format!("planes/{regime}_{walk}"), |bench| {
                bench.iter(|| {
                    let mins = black_box(sk.mins());
                    ix.encode_against(id(), mins, plane.of(mins), &mut sig)
                });
            });
        }
    }
    g.finish();
}

/// One subscription change through a fleet with 8 streams attached, at
/// `m = 1024`: inline the fleet is the catalogue's only holder and writes
/// in place; with workers every shard holds a clone, so the write copies
/// both halves and then waits for every shard to install them.
fn bench_fleet_subscription(c: &mut Criterion) {
    let cfg = DetectorConfig { k: K, ..Default::default() };
    let family = MinHashFamily::new(K, cfg.hash_seed);
    let catalogue = query_set(&family, 1024);
    // A fresh decoy per iteration, sketched outside the timed call.
    let next_id = Cell::new(1_000_000u32);
    let decoy = || query(&family, next_id.replace(next_id.get() + 1));
    for (executor, shards) in [("inline", 1), ("shards2", 2)] {
        let mut fleet = Fleet::new(DetectorConfig { shards, ..cfg });
        for q in catalogue.iter() {
            fleet.subscribe(q.clone()).expect("fresh fleet subscribes");
        }
        for s in 0..8 {
            fleet.add_stream(s).expect("fresh stream id");
            fleet.push_keyframe(s, 0, 7).expect("stream was added"); // a window is open
        }
        // As in `hq_maintenance`: the rows have already doubled.
        let warm_up = decoy();
        let id = warm_up.id;
        fleet.subscribe(warm_up).expect("fleet is live");
        fleet.unsubscribe(id).expect("fleet is live");
        let fleet = RefCell::new(fleet);

        let mut g = c.benchmark_group("fleet_subscribe_1024");
        g.sample_size(20);
        let subscribed = Cell::new(None);
        g.bench_function(executor, |bench| {
            bench.iter_batched(
                || {
                    // Take the previous iteration's decoy out again.
                    if let Some(id) = subscribed.take() {
                        fleet.borrow_mut().unsubscribe(id).expect("fleet is live");
                    }
                    decoy()
                },
                |q| {
                    subscribed.set(Some(q.id));
                    fleet.borrow_mut().subscribe(black_box(q))
                },
                criterion::BatchSize::PerIteration,
            );
        });
        g.finish();
        if let Some(id) = subscribed.take() {
            fleet.borrow_mut().unsubscribe(id).expect("fleet is live");
        }

        let mut g = c.benchmark_group("fleet_unsubscribe_1024");
        g.sample_size(20);
        g.bench_function(executor, |bench| {
            bench.iter_batched(
                || {
                    let q = decoy();
                    let id = q.id;
                    fleet.borrow_mut().subscribe(q).expect("fleet is live");
                    id
                },
                |id| fleet.borrow_mut().unsubscribe(black_box(id)),
                criterion::BatchSize::PerIteration,
            );
        });
        g.finish();
    }
}

criterion_group!(
    benches,
    bench_probe,
    bench_encode,
    bench_index_maintenance,
    bench_fleet_subscription
);
criterion_main!(benches);
