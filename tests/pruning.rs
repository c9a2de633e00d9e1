//! Dominance pruning must be invisible to the search: on every paper
//! benchmark and every device count the pruned DP returns the *bit-identical*
//! optimal cost (see `pase_cost::prune` for why equality is exact, not just
//! approximate), while strictly shrinking the configuration space whenever a
//! dominated configuration exists.

use pase::core::{Error, Search};
use pase::cost::{
    enumerate_configs, Config, ConfigRule, ConfigSpace, CostTables, DeviceMesh, MachineSpec,
    PruneOptions, PrunedTables, TableOptions,
};
use pase::graph::NodeId;
use pase::models::{build_named, Benchmark};

/// The ISSUE acceptance criterion: pruned search is bit-identical to
/// unpruned search on all four benchmark models at `p ∈ {8, 32, 64}`.
/// Tiny variants keep the debug-mode DP feasible; the release-mode
/// `bench_search` binary asserts the same identity on the full graphs.
#[test]
fn pruned_search_is_bit_identical_on_all_benchmarks() {
    let machine = MachineSpec::test_machine();
    for bench in Benchmark::all() {
        let graph = bench.build_tiny();
        for p in [8u32, 32, 64] {
            let tables = CostTables::build(&graph, ConfigRule::new(p), &machine);
            let label = format!("{} p={p}", bench.name());

            let plain = Search::new(&graph)
                .tables(&tables)
                .run()
                .expect_found(&label);
            let pruned = Search::new(&graph)
                .tables(&tables)
                .pruning(PruneOptions::default())
                .run()
                .expect_found(&label);

            assert_eq!(
                pruned.cost.to_bits(),
                plain.cost.to_bits(),
                "{label}: pruned optimum {} != unpruned {}",
                pruned.cost,
                plain.cost
            );

            // The back-mapped strategy is valid in the original space and
            // achieves the optimum there.
            assert_eq!(pruned.config_ids.len(), graph.len());
            for v in graph.node_ids() {
                assert!(
                    (pruned.config_ids[v.index()] as usize) < tables.k(v),
                    "{label}: back-mapped id out of range at {:?}",
                    v
                );
            }
            let eval = tables.evaluate_ids(&graph, &pruned.config_ids);
            assert!(
                (eval - plain.cost).abs() <= 1e-9 * plain.cost.abs().max(1.0),
                "{label}: back-mapped strategy {} vs optimum {}",
                eval,
                plain.cost
            );

            // Pruning accounting is consistent and visible in the stats.
            assert_eq!(pruned.stats.k_before, tables.max_k(), "{label}");
            assert!(pruned.stats.max_configs <= pruned.stats.k_before, "{label}");
        }
    }
}

/// Pruning never empties any per-node configuration list, even at device
/// counts where most configurations are dominated.
#[test]
fn pruning_keeps_every_benchmark_config_list_nonempty() {
    let machine = MachineSpec::test_machine();
    for bench in Benchmark::all() {
        let graph = bench.build_tiny();
        for p in [8u32, 64] {
            let tables = CostTables::build(&graph, ConfigRule::new(p), &machine);
            let pruned = PrunedTables::build(&graph, &tables, &PruneOptions::default());
            for v in graph.node_ids() {
                assert!(
                    !pruned.kept_ids(v).is_empty(),
                    "{} p={p}: C({:?}) emptied",
                    bench.name(),
                    v
                );
            }
        }
    }
}

/// A vertex with an empty configuration list leaves nothing to search:
/// `Search::run` reports it as an error instead of panicking in the DP
/// kernels, with and without the prune, and the prune itself neither
/// panics nor invents a configuration.
#[test]
fn an_empty_config_list_is_an_error_not_a_panic() {
    let g = build_named("rnnlm", 8, false).expect("rnnlm builds");
    let rule = ConfigRule::new(8);
    let mut lists: Vec<Vec<Config>> = g
        .nodes()
        .iter()
        .map(|n| enumerate_configs(n, &rule))
        .collect();
    lists[1].clear();
    let space = ConfigSpace::from_lists(lists);
    let mesh = DeviceMesh::flat(&MachineSpec::gtx1080ti());
    let tables =
        CostTables::build_mesh_with_space(&g, rule, &mesh, &space, &TableOptions::default());
    for prune in [None, Some(PruneOptions::default())] {
        let from_space = Search::new(&g).rule(rule).space(&space);
        let from_tables = Search::new(&g).tables(&tables);
        for search in [from_space, from_tables] {
            let search = match prune {
                Some(opts) => search.pruning(opts),
                None => search,
            };
            match search.run().result() {
                Err(Error::Graph(e)) => {
                    assert!(e.to_string().contains("no configuration"), "{e}")
                }
                other => panic!("prune {prune:?}: expected an error, got {other:?}"),
            }
        }
    }
    let pruned = PrunedTables::build(&g, &tables, &PruneOptions::default());
    assert!(pruned.kept_ids(NodeId(1)).is_empty());
    for v in g.node_ids().filter(|v| v.index() != 1) {
        assert!(!pruned.kept_ids(v).is_empty(), "C({v}) emptied");
    }
}
