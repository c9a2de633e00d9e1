//! Pruned-vs-unpruned parity: the exact (ε = 0) dominance prune may change
//! how long a search takes, never what it returns. A pruned search must
//! give the unpruned search's cost bit for bit *and* the same config ids,
//! on random DAGs and on the four paper benchmarks at full size.

use pase::core::{Search, SearchResult};
use pase::cost::{ConfigRule, CostTables, MachineSpec, PruneOptions};
use pase::graph::{DimRole, Graph, GraphBuilder, IterDim, Node, NodeId, OpKind, TensorRef};
use pase::models::Benchmark;
use proptest::prelude::*;

/// A compact description of a random DAG (same generator family as
/// `proptests.rs`): per node, a width and the earlier nodes feeding it.
#[derive(Clone, Debug)]
struct RandomDag {
    widths: Vec<u64>,
    feeds: Vec<Vec<usize>>,
}

fn arb_dag(max_nodes: usize) -> impl Strategy<Value = RandomDag> {
    let widths =
        prop::collection::vec(prop::sample::select(vec![16u64, 32, 64, 128]), 2..max_nodes);
    widths.prop_flat_map(|widths| {
        let n = widths.len();
        let feeds = (1..n)
            .map(|i| prop::collection::vec(0..i, 1..=i.min(3)))
            .collect::<Vec<_>>();
        (Just(widths), feeds).prop_map(|(widths, mut feeds)| {
            for f in &mut feeds {
                f.sort_unstable();
                f.dedup();
            }
            let mut all = vec![Vec::new()];
            all.extend(feeds);
            RandomDag { widths, feeds: all }
        })
    })
}

fn fc_node(name: &str, batch: u64, out_w: u64, in_w: u64, ins: usize) -> Node {
    Node {
        name: name.into(),
        op: OpKind::FullyConnected,
        iter_space: vec![
            IterDim::new("b", batch, DimRole::Batch),
            IterDim::new("n", out_w, DimRole::Param),
            IterDim::new("c", in_w, DimRole::Reduction),
        ],
        inputs: (0..ins)
            .map(|_| TensorRef::new(vec![0, 2], vec![batch, in_w]))
            .collect(),
        output: TensorRef::new(vec![0, 1], vec![batch, out_w]),
        params: vec![TensorRef::new(vec![1, 2], vec![out_w, in_w])],
    }
}

fn build_graph(dag: &RandomDag) -> Graph {
    let mut b = GraphBuilder::new();
    let batch = 32;
    let mut ids: Vec<NodeId> = Vec::new();
    for (i, &w) in dag.widths.iter().enumerate() {
        let producers = &dag.feeds[i];
        let in_w = producers.first().map(|&p| dag.widths[p]).unwrap_or(16);
        ids.push(b.add_node(fc_node(&format!("n{i}"), batch, w, in_w, producers.len())));
    }
    for (i, producers) in dag.feeds.iter().enumerate() {
        for &p in producers {
            b.connect(ids[p], ids[i]);
        }
    }
    b.build().expect("random dag builds")
}

/// Run the search over prebuilt tables, with or without the exact prune.
fn run(graph: &Graph, tables: &CostTables, prune: bool) -> SearchResult {
    let mut search = Search::new(graph).tables(tables);
    if prune {
        search = search.pruning(PruneOptions::default());
    }
    search.run().expect_found("search")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pruned search is bit-identical to the unpruned one on random
    /// DAGs, ids included.
    #[test]
    fn pruned_matches_unpruned_on_random_dags(dag in arb_dag(7)) {
        let g = build_graph(&dag);
        let tables = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let pruned = run(&g, &tables, true);
        let plain = run(&g, &tables, false);
        prop_assert_eq!(pruned.cost.to_bits(), plain.cost.to_bits());
        prop_assert_eq!(&pruned.config_ids, &plain.config_ids);
    }
}

/// The four paper benchmarks at full size, p = 8: parity must hold on the
/// real workloads, where the prune removes configurations.
#[test]
fn pruned_matches_unpruned_on_paper_benchmarks() {
    for bench in Benchmark::all() {
        let p = 8;
        let graph = bench.build_for(p);
        let tables = CostTables::build(&graph, ConfigRule::new(p), &MachineSpec::gtx1080ti());
        let label = bench.name();
        let pruned = run(&graph, &tables, true);
        let plain = run(&graph, &tables, false);
        assert_eq!(
            pruned.cost.to_bits(),
            plain.cost.to_bits(),
            "{label}: pruned vs unpruned cost"
        );
        assert_eq!(pruned.config_ids, plain.config_ids, "{label}: ids");
    }
}
