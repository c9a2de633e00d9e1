//! Criterion microbenchmarks of the search hot paths: GenerateSeq
//! ordering, the full FindBestStrategy DP per benchmark, and the naive
//! recurrence on the path-shaped models where it is feasible.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pase_core::{generate_seq, naive_best_strategy, optcnn_search, Search, SearchBudget};
use pase_cost::{ConfigRule, CostTables, MachineSpec, PruneOptions, PrunedTables, TableOptions};
use pase_models::Benchmark;

fn bench_generate_seq(c: &mut Criterion) {
    let g = Benchmark::InceptionV3.build();
    c.bench_function("generate_seq/inception_v3", |b| b.iter(|| generate_seq(&g)));
}

fn bench_table_build(c: &mut Criterion) {
    let machine = MachineSpec::gtx1080ti();
    let g = Benchmark::InceptionV3.build_for(8);
    c.bench_function("cost_tables/inception_v3/p8", |b| {
        b.iter(|| CostTables::build(&g, ConfigRule::new(8), &machine))
    });
    // A/B baseline: the pre-interning build path (every node and edge gets
    // its own table, built sequentially).
    c.bench_function("cost_tables_uninterned/inception_v3/p8", |b| {
        b.iter(|| {
            CostTables::build_with(
                &g,
                ConfigRule::new(8),
                &machine,
                &TableOptions {
                    intern: false,
                    parallel: false,
                    ..TableOptions::default()
                },
            )
        })
    });
}

fn bench_find_best_strategy(c: &mut Criterion) {
    let machine = MachineSpec::gtx1080ti();
    let mut group = c.benchmark_group("find_best_strategy");
    group.sample_size(10);
    for bench in Benchmark::all() {
        for p in [8u32, 32] {
            let g = bench.build_for(p);
            let tables = CostTables::build(&g, ConfigRule::new(p), &machine);
            group.bench_function(format!("{}/p{}", bench.name(), p), |b| {
                b.iter_batched(
                    || (),
                    |_| Search::new(&g).tables(&tables).run(),
                    BatchSize::PerIteration,
                )
            });
        }
    }
    group.finish();

    // A/B baseline: the same DP on a 1-thread rayon pool.
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread pool");
    let mut group = c.benchmark_group("find_best_strategy_sequential");
    group.sample_size(10);
    for bench in Benchmark::all() {
        let p = 8u32;
        let g = bench.build_for(p);
        let tables = CostTables::build(&g, ConfigRule::new(p), &machine);
        group.bench_function(format!("{}/p{}", bench.name(), p), |b| {
            b.iter_batched(
                || (),
                |_| single.install(|| Search::new(&g).tables(&tables).run()),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

fn bench_pruned_search(c: &mut Criterion) {
    // A/B for dominance pruning: the same DP over pruned tables (plus the
    // standalone cost of the pruning pass itself).
    let machine = MachineSpec::gtx1080ti();
    let mut group = c.benchmark_group("find_best_strategy_pruned");
    group.sample_size(10);
    for bench in Benchmark::all() {
        let p = 32u32;
        let g = bench.build_for(p);
        let tables = CostTables::build(&g, ConfigRule::new(p), &machine);
        let pruned = PrunedTables::build(&g, &tables, &PruneOptions::default());
        group.bench_function(format!("{}/p{}", bench.name(), p), |b| {
            b.iter_batched(
                || (),
                |_| Search::new(&g).tables(pruned.tables()).run(),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();

    let mut group = c.benchmark_group("prune_pass");
    group.sample_size(20);
    for bench in Benchmark::all() {
        let p = 32u32;
        let g = bench.build_for(p);
        let tables = CostTables::build(&g, ConfigRule::new(p), &machine);
        group.bench_function(format!("{}/p{}", bench.name(), p), |b| {
            b.iter(|| PrunedTables::build(&g, &tables, &PruneOptions::default()))
        });
    }
    group.finish();
}

fn bench_naive_on_path_graphs(c: &mut Criterion) {
    let machine = MachineSpec::gtx1080ti();
    let mut group = c.benchmark_group("naive_bf");
    group.sample_size(10);
    for bench in [Benchmark::AlexNet, Benchmark::Rnnlm] {
        let g = bench.build_for(8);
        let tables = CostTables::build(&g, ConfigRule::new(8), &machine);
        group.bench_function(format!("{}/p8", bench.name()), |b| {
            b.iter(|| naive_best_strategy(&g, &tables, SearchBudget::default()))
        });
    }
    group.finish();
}

fn bench_optcnn_reduction(c: &mut Criterion) {
    // §VI comparison: graph reduction vs the DP on the reducible models.
    let machine = MachineSpec::gtx1080ti();
    let mut group = c.benchmark_group("optcnn");
    group.sample_size(20);
    for bench in [Benchmark::AlexNet, Benchmark::InceptionV3] {
        let g = bench.build_for(8);
        let tables = CostTables::build(&g, ConfigRule::new(8), &machine);
        group.bench_function(format!("{}/p8", bench.name()), |b| {
            b.iter(|| optcnn_search(&g, &tables))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_generate_seq,
    bench_table_build,
    bench_find_best_strategy,
    bench_pruned_search,
    bench_naive_on_path_graphs,
    bench_optcnn_reduction
);
criterion_main!(benches);
