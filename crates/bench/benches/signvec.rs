//! Micro-benchmarks of the bit-packed sign-vector substrate: packing,
//! word-parallel boolean ops, the Bernoulli transient vector, and the
//! segment moves — the per-hop costs behind Marsit's "compression" sliver
//! in Fig 5.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use marsit_tensor::rng::FastRng;
use marsit_tensor::{SignVec, Tensor};

fn bench_pack(c: &mut Criterion) {
    let mut group = c.benchmark_group("signvec_pack");
    for &d in &[1 << 12, 1 << 16, 1 << 20] {
        let mut rng = FastRng::new(1, 0);
        let grad = Tensor::gaussian(1, d, 1.0, &mut rng).into_vec();
        group.throughput(Throughput::Elements(d as u64));
        group.bench_with_input(BenchmarkId::from_parameter(d), &grad, |b, grad| {
            b.iter(|| SignVec::from_signs(black_box(grad)));
        });
    }
    group.finish();
}

fn bench_bitops(c: &mut Criterion) {
    let d = 1 << 20;
    let mut rng = FastRng::new(2, 0);
    let a = SignVec::bernoulli_uniform(d, 0.5, &mut rng);
    let b2 = SignVec::bernoulli_uniform(d, 0.5, &mut rng);
    let mut group = c.benchmark_group("signvec_bitops");
    group.throughput(Throughput::Elements(d as u64));
    group.bench_function("and_or_xor_chain", |b| {
        b.iter(|| {
            let x = black_box(&a).and(&b2);
            let y = black_box(&a).xor(&b2);
            x.or(&y)
        });
    });
    group.bench_function("matching_rate", |b| {
        b.iter(|| black_box(&a).matching_rate(&b2));
    });
    group.finish();
}

fn bench_transient(c: &mut Criterion) {
    let mut group = c.benchmark_group("transient_vector");
    for &d in &[1 << 16, 1 << 20] {
        group.throughput(Throughput::Elements(d as u64));
        group.bench_with_input(BenchmarkId::new("word_parallel", d), &d, |b, &d| {
            let mut rng = FastRng::new(3, 0);
            b.iter(|| SignVec::bernoulli_uniform(black_box(d), 0.25, &mut rng));
        });
        group.bench_with_input(BenchmarkId::new("scalar_baseline", d), &d, |b, &d| {
            let mut rng = FastRng::new(3, 0);
            b.iter(|| SignVec::bernoulli_uniform_scalar(black_box(d), 0.25, &mut rng));
        });
        // Worst case for the word-parallel path: a non-dyadic probability
        // that needs the full 32-digit expansion.
        group.bench_with_input(
            BenchmarkId::new("word_parallel_nondyadic", d),
            &d,
            |b, &d| {
                let mut rng = FastRng::new(3, 0);
                b.iter(|| SignVec::bernoulli_uniform(black_box(d), 1.0 / 3.0, &mut rng));
            },
        );
    }
    group.finish();
}

fn bench_unpack(c: &mut Criterion) {
    let d = 1 << 20;
    let mut rng = FastRng::new(4, 0);
    let v = SignVec::bernoulli_uniform(d, 0.5, &mut rng);
    let mut out = vec![0.0f32; d];
    let mut group = c.benchmark_group("signvec_unpack");
    group.throughput(Throughput::Elements(d as u64));
    group.bench_function("write_scaled_signs", |b| {
        b.iter(|| black_box(&v).write_scaled_signs(0.01, &mut out));
    });
    group.finish();
}

/// One ring segment of `sync_large` (150 k bits) cut out of a vector and
/// spliced back, at a word-aligned offset and at two unaligned ones. An
/// unaligned move is the aligned copy plus a second load and a shift-and-or
/// per word: with the segment in L1 and the baseline x86-64 build (SSE2
/// shifts against `memcpy`'s wide moves) the unaligned rows run ~3× the
/// aligned one, and do not depend on which unaligned offset it is.
fn bench_slice_splice(c: &mut Criterion) {
    let seg = 150_000;
    let mut rng = FastRng::new(5, 0);
    let src = SignVec::bernoulli_uniform(seg + 64, 0.5, &mut rng);
    let mut dst = SignVec::zeros(seg + 64);
    let mut cell = SignVec::zeros(0);
    let mut group = c.benchmark_group("slice_splice");
    group.throughput(Throughput::Elements(seg as u64));
    for offset in [0usize, 1, 37] {
        group.bench_with_input(BenchmarkId::new("offset", offset), &offset, |b, &offset| {
            b.iter(|| {
                cell.assign_slice_of(black_box(&src), offset, seg);
                dst.splice(offset, black_box(&cell));
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pack, bench_bitops, bench_transient, bench_unpack, bench_slice_splice
}
criterion_main!(benches);
