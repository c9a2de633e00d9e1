//! Criterion microbenchmarks of the min-plus DP microkernel in isolation:
//! the packed fused min+add entry (`packed_min_add`) against the scalar
//! per-config loop (`scalar_min_add`), at the row widths the paper models
//! actually produce after pruning (k = 32/84/210 ≈ AlexNet p=32, the
//! Transformer's widest pruned class, and InceptionV3's p=64 maximum).
//! `add_strided` is measured alongside `add_rows` to show what the pack
//! phase's one-time transposition buys on every subsequent access: the
//! strided gather is the access pattern the scalar loop pays per
//! `(entry, config)` pair for column-wise edge matrices and `vi_coef > 1`
//! child tables.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pase_core::kernel::{
    add_rows, add_strided, packed_min_add, row_min, scalar_min_add, sum_row_min,
};

const WIDTHS: [usize; 3] = [32, 84, 210];

fn test_row(k: usize, seed: usize) -> Vec<f64> {
    (0..k)
        .map(|i| ((i * 31 + seed * 7 + 3) % 97) as f64 * 0.125)
        .collect()
}

/// One DP entry's combine — layer-cost base plus two operand rows,
/// reduced to (min, argmin) — scalar loop vs packed fused passes.
fn bench_min_add(c: &mut Criterion) {
    for k in WIDTHS {
        let base = test_row(k, 0);
        let r1 = test_row(k, 1);
        let r2 = test_row(k, 2);
        let rows = [r1.as_slice(), r2.as_slice()];
        c.bench_function(format!("min_add/scalar/k{k}"), |b| {
            b.iter(|| scalar_min_add(black_box(&base), black_box(&rows)))
        });
        let mut acc = vec![0.0; k];
        c.bench_function(format!("min_add/packed/k{k}"), |b| {
            b.iter(|| packed_min_add(black_box(&mut acc), black_box(&base), black_box(&rows)))
        });
    }
}

/// The single-varying-operand fast path: fused sum+min with no
/// accumulator writes (what an innermost-digit run with a hoisted
/// invariant prefix pays per entry).
fn bench_fused_single_op(c: &mut Criterion) {
    for k in WIDTHS {
        let pre = test_row(k, 0);
        let row = test_row(k, 1);
        c.bench_function(format!("sum_row_min/k{k}"), |b| {
            b.iter(|| sum_row_min(black_box(&pre), black_box(&row)))
        });
        c.bench_function(format!("row_min/k{k}"), |b| {
            b.iter(|| row_min(black_box(&pre)))
        });
    }
}

/// Contiguous accumulate vs the strided gather it replaces: `add_strided`
/// with stride = k is how the unpacked scalar loop walks a column-wise
/// edge matrix (or a `vi_coef > 1` child table) for one entry.
fn bench_accumulate(c: &mut Criterion) {
    for k in WIDTHS {
        let src = test_row(k * k, 1);
        let mut acc = test_row(k, 0);
        c.bench_function(format!("add_rows/k{k}"), |b| {
            b.iter(|| add_rows(black_box(&mut acc), black_box(&src[..k])))
        });
        c.bench_function(format!("add_strided/k{k}"), |b| {
            b.iter(|| add_strided(black_box(&mut acc), black_box(&src), black_box(k)))
        });
    }
}

criterion_group!(
    benches,
    bench_min_add,
    bench_fused_single_op,
    bench_accumulate
);
criterion_main!(benches);
