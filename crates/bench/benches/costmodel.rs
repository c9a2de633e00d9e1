//! Criterion microbenchmarks of the analytical cost model: configuration
//! enumeration, per-layer cost evaluation, transfer costs, and full
//! strategy evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use pase_baselines::data_parallel;
use pase_cost::{
    enumerate_configs, evaluate, layer_cost, transfer_bytes, Config, ConfigRule, MachineSpec,
};
use pase_models::{inception_v3, Benchmark, InceptionConfig};

fn bench_enumerate(c: &mut Criterion) {
    let g = inception_v3(&InceptionConfig::paper());
    // a representative 7-d convolution node
    let conv = g
        .nodes()
        .iter()
        .find(|n| n.name.contains("b3x3b") && n.name.ends_with("conv"))
        .expect("conv node");
    for p in [8u32, 64] {
        c.bench_function(format!("enumerate_configs/conv/p{p}"), |b| {
            b.iter(|| enumerate_configs(conv, &ConfigRule::new(p)))
        });
    }
}

fn bench_layer_cost(c: &mut Criterion) {
    let g = inception_v3(&InceptionConfig::paper());
    let conv = g
        .nodes()
        .iter()
        .find(|n| n.name.contains("b3x3b") && n.name.ends_with("conv"))
        .expect("conv node");
    let cfg = Config::new(&[8, 1, 2, 2, 1, 1, 1]);
    c.bench_function("layer_cost/conv", |b| {
        b.iter(|| layer_cost(conv, &cfg, 941.0))
    });
}

fn bench_transfer(c: &mut Criterion) {
    let g = inception_v3(&InceptionConfig::paper());
    let e = g.edges()[40];
    let (u, v) = (g.node(e.src), g.node(e.dst));
    let cu = Config::ones(u.rank());
    let cv = Config::ones(v.rank());
    c.bench_function("transfer_bytes/edge", |b| {
        b.iter(|| transfer_bytes(u, &cu, v, e.dst_slot as usize, &cv))
    });
}

fn bench_full_evaluate(c: &mut Criterion) {
    let g = Benchmark::InceptionV3.build_for(32);
    let s = data_parallel(&g, 32);
    let r = MachineSpec::gtx1080ti().flop_byte_ratio();
    c.bench_function("evaluate/inception_v3/dp32", |b| {
        b.iter(|| evaluate(&g, &s, r))
    });
}

criterion_group!(
    benches,
    bench_enumerate,
    bench_layer_cost,
    bench_transfer,
    bench_full_evaluate
);
criterion_main!(benches);
