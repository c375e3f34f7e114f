//! Micro-benchmarks for LSH evaluation and key construction — the
//! dominant cost in Theorem 3.4's encode phase (`t` in the theorem is
//! "an upper bound on the time to evaluate functions from H").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsr_hash::keys::{BatchKeyer, MultiScaleKeyer};
use rsr_hash::{BitSamplingFamily, GridFamily, LshFamily, PStableFamily};
use rsr_metric::Point;
use std::hint::black_box;

fn bench_single_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("lsh_single_eval");
    let dim = 64;
    let p = Point::new((0..dim as i64).map(|i| i % 2).collect());
    let mut rng = StdRng::seed_from_u64(1);

    // One sampled function each: a one-draw set, evaluated alone.
    let bit = BitSamplingFamily::new(dim, 128.0).sample_draws(&mut rng, 1);
    group.bench_function("bit_sampling_d64", |b| {
        b.iter(|| bit.hash(0, black_box(&p)))
    });

    let grid = GridFamily::new(dim, 20.0).sample_draws(&mut rng, 1);
    group.bench_function("grid_d64", |b| b.iter(|| grid.hash(0, black_box(&p))));

    let ps = PStableFamily::new(dim, 20.0).sample_draws(&mut rng, 1);
    group.bench_function("pstable_d64", |b| b.iter(|| ps.hash(0, black_box(&p))));
    group.finish();
}

fn bench_keyers(c: &mut Criterion) {
    let mut group = c.benchmark_group("key_construction");
    let dim = 64;
    let p = Point::new((0..dim as i64).map(|i| i % 2).collect());
    let fam = BitSamplingFamily::new(dim, 128.0);
    for &s in &[64usize, 512, 4096] {
        group.bench_with_input(BenchmarkId::new("multiscale_all_levels", s), &s, |b, &s| {
            let mut rng = StdRng::seed_from_u64(2);
            let keyer = MultiScaleKeyer::sample(&fam, s, 32, &mut rng);
            let lens: Vec<usize> = (0..8).map(|i| ((s >> i).max(1)).min(s)).rev().collect();
            b.iter(|| keyer.level_keys(black_box(&p), &lens));
        });
    }
    group.bench_function("gap_key_h32_m4", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        let keyer = BatchKeyer::sample(&fam, 32, 4, 24, &mut rng);
        b.iter(|| keyer.key(black_box(&p)));
    });
    group.finish();
}

criterion_group!(benches, bench_single_eval, bench_keyers);
criterion_main!(benches);
