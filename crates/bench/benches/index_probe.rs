//! HQ-index probe vs brute-force query scan — the mechanism behind
//! Figure 9's flat-vs-linear CPU curves — and the cost of one online
//! subscription change, each from `m = 10` to `m = 1024`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vdsms_core::{HqIndex, Query, QuerySet};
use vdsms_sketch::{MinHashFamily, Sketch};

const K: usize = 800;

fn query_set(family: &MinHashFamily, m: u32) -> QuerySet {
    QuerySet::from_queries(
        (0..m)
            .map(|i| {
                let ids: Vec<u64> = (0..60u64).map(|j| u64::from(i) * 1000 + j).collect();
                Query::from_cell_ids(i, family, &ids)
            })
            .collect(),
    )
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
    for m in [100u32, 1024] {
        let qs = query_set(&family, m);
        let built = HqIndex::build(K, &qs);
        // What a fleet pays around the `O(K)` insert or remove: every
        // catalogue change copies the query set and the index
        // (`Arc::make_mut` on a shared snapshot).
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

criterion_group!(benches, bench_probe, bench_index_maintenance);
criterion_main!(benches);
