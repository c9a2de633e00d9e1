//! Criterion microbenchmarks of the execution simulator (the FlexFlow-style
//! MCMC calls this per proposal, so its speed bounds the baseline's search
//! throughput) and of a short MCMC run itself.

use criterion::{criterion_group, criterion_main, Criterion};
use pase_baselines::{data_parallel, McmcOptions};
use pase_bench::{flexflow_strategy, relaxed_space};
use pase_cost::MachineSpec;
use pase_models::Benchmark;
use pase_sim::{memory_per_device, simulate_step, SimOptions, Topology};
use std::time::Duration;

fn bench_simulate_step(c: &mut Criterion) {
    let topo = Topology::cluster(MachineSpec::gtx1080ti(), 32).unwrap();
    for bench in Benchmark::all() {
        let g = bench.build_for(32);
        let s = data_parallel(&g, 32);
        c.bench_function(format!("simulate_step/{}/dp32", bench.name()), |b| {
            b.iter(|| simulate_step(&g, &s, &topo, &SimOptions::default()))
        });
    }
}

fn bench_memory(c: &mut Criterion) {
    let topo = Topology::cluster(MachineSpec::gtx1080ti(), 32).unwrap();
    let g = Benchmark::InceptionV3.build_for(32);
    let s = data_parallel(&g, 32);
    c.bench_function("memory_per_device/inception_v3/dp32", |b| {
        b.iter(|| memory_per_device(&g, &s, &topo))
    });
}

fn bench_mcmc_short(c: &mut Criterion) {
    let machine = MachineSpec::gtx1080ti();
    let topo = Topology::cluster(machine, 8).unwrap();
    let bench = Benchmark::Rnnlm;
    let g = bench.build_for(8);
    let space = relaxed_space(&g, 8);
    let mut group = c.benchmark_group("mcmc");
    group.sample_size(10);
    group.bench_function("rnnlm/p8/2k-iters", |b| {
        b.iter(|| {
            flexflow_strategy(
                bench,
                &g,
                &space,
                &topo,
                &McmcOptions {
                    max_iters: 2_000,
                    half_time_rule: false,
                    max_time: Duration::from_secs(60),
                    ..Default::default()
                },
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_simulate_step, bench_memory, bench_mcmc_short);
criterion_main!(benches);
