//! Property-based tests over randomly generated computation graphs.
//!
//! Generated graphs are small DAGs of fully-connected layers with random
//! shapes and connectivity, so that brute-force enumeration stays feasible
//! and every search engine can be cross-checked on thousands of topologies.

use pase::core::{
    brute_force, dependent_set_sizes, generate_seq_with_sets, naive_best_strategy, optcnn_search,
    random_strategy_costs, ConnectedSetMode, OrderingKind, ReductionOutcome, Search, SearchBudget,
    VertexStructure,
};
use pase::cost::{
    all_gather_bytes, all_reduce_bytes, enumerate_configs, evaluate, Config, ConfigRule,
    CostTables, MachineSpec, PruneOptions, PrunedTables, Strategy as ParallelStrategy,
    TableOptions,
};
use pase::graph::{EdgeId, Graph, GraphBuilder, IterDim, Node, NodeId, OpKind, TensorRef};
use proptest::prelude::*;

/// A compact description of a random DAG: per node, the (pow-2-ish) width
/// and the set of earlier nodes feeding it.
#[derive(Clone, Debug)]
struct RandomDag {
    widths: Vec<u64>,
    feeds: Vec<Vec<usize>>, // for node i: indices < i of its producers
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

/// A fully-connected node whose input width is the sum of its producers'
/// output widths (multi-input nodes sum elementwise-style over slots).
fn fc_node(name: &str, batch: u64, out_w: u64, in_w: u64, ins: usize) -> Node {
    let dims = vec![
        IterDim::new("b", batch, pase::graph::DimRole::Batch),
        IterDim::new("n", out_w, pase::graph::DimRole::Param),
        IterDim::new("c", in_w, pase::graph::DimRole::Reduction),
    ];
    Node {
        name: name.into(),
        op: OpKind::FullyConnected,
        iter_space: dims,
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
        // all producers of node i feed tensors of their own width; use the
        // first producer's width as this layer's contraction width (other
        // slots share the tensor map — the cost model only needs shapes).
        let in_w = producers.first().map(|&p| dag.widths[p]).unwrap_or(16);
        let node = fc_node(&format!("n{i}"), batch, w, in_w, producers.len());
        ids.push(b.add_node(node));
    }
    for (i, producers) in dag.feeds.iter().enumerate() {
        for &p in producers {
            b.connect(ids[p], ids[i]);
        }
    }
    b.build().expect("random dag builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1: the efficient DP equals brute force on random DAGs.
    #[test]
    fn dp_equals_brute_force(dag in arb_dag(7)) {
        let g = build_graph(&dag);
        let tables = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let (bf, _) = brute_force(&g, &tables);
        let r = Search::new(&g).tables(&tables).run().expect_found("dp");
        prop_assert!((r.cost - bf).abs() <= 1e-9 * bf.abs().max(1.0),
            "dp {} vs brute {}", r.cost, bf);
        // extraction consistency
        let eval = tables.evaluate_ids(&g, &r.config_ids);
        prop_assert!((eval - r.cost).abs() <= 1e-9 * r.cost.abs().max(1.0));
    }

    /// All orderings and both recurrence modes agree.
    #[test]
    fn orderings_agree(dag in arb_dag(8), seed in 0u64..1000) {
        let g = build_graph(&dag);
        let tables = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let base = Search::new(&g).tables(&tables).run()
            .expect_found("generate-seq").cost;
        let naive = naive_best_strategy(&g, &tables, SearchBudget::default())
            .expect_found("naive").cost;
        let rnd = Search::new(&g).tables(&tables)
            .ordering(OrderingKind::Random { seed })
            .run().expect_found("random").cost;
        let tol = 1e-9 * base.abs().max(1.0);
        prop_assert!((base - naive).abs() <= tol);
        prop_assert!((base - rnd).abs() <= tol);
    }

    /// Theorem 2 on random DAGs: maintained sets equal first-principles
    /// dependent sets, under the GenerateSeq ordering.
    #[test]
    fn theorem2_on_random_dags(dag in arb_dag(10)) {
        let g = build_graph(&dag);
        let (order, maintained) = generate_seq_with_sets(&g);
        let s = VertexStructure::build(&g, &order, ConnectedSetMode::Exact);
        for (i, m) in maintained.iter().enumerate() {
            prop_assert_eq!(m, s.dependent_set(i));
        }
    }

    /// Wherever OptCNN's graph reduction applies, it must agree exactly
    /// with the DP; when it reports an irreducible core, the DP must still
    /// solve the graph (§VI).
    #[test]
    fn optcnn_agrees_with_dp_when_reducible(dag in arb_dag(9)) {
        let g = build_graph(&dag);
        let tables = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let dp = Search::new(&g).tables(&tables).run().expect_found("dp");
        match optcnn_search(&g, &tables) {
            ReductionOutcome::Reduced { cost, config_ids, .. } => {
                prop_assert!((cost - dp.cost).abs() <= 1e-9 * dp.cost.abs().max(1.0),
                    "optcnn {} vs dp {}", cost, dp.cost);
                let eval = tables.evaluate_ids(&g, &config_ids);
                prop_assert!((eval - cost).abs() <= 1e-9 * cost.abs().max(1.0));
            }
            ReductionOutcome::Irreducible { remaining } => {
                prop_assert!(remaining.len() > 1);
            }
        }
    }

    /// The DP result lower-bounds every random strategy.
    #[test]
    fn dp_lower_bounds_samples(dag in arb_dag(9), seed in 0u64..1000) {
        let g = build_graph(&dag);
        let tables = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
        let r = Search::new(&g).tables(&tables).run().expect_found("dp");
        for cost in random_strategy_costs(&g, &tables, seed, 25) {
            prop_assert!(r.cost <= cost + 1e-9 * cost.abs().max(1.0));
        }
    }

    /// Dependent sets under GenerateSeq never exceed the graph's maximum
    /// degree bound and are monotone sane.
    #[test]
    fn dependent_sets_are_bounded(dag in arb_dag(10)) {
        let g = build_graph(&dag);
        let (order, _) = generate_seq_with_sets(&g);
        let sizes = dependent_set_sizes(&g, &order);
        prop_assert_eq!(sizes.len(), g.len());
        // last position of a connected graph has an empty dependent set;
        // in general every component root does.
        let s = VertexStructure::build(&g, &order, ConnectedSetMode::Exact);
        for &root in s.roots() {
            prop_assert!(s.dependent_set(root).is_empty());
        }
    }

    /// Configuration enumeration: products within bounds, splits within
    /// extents, all-devices rule tight when reachable.
    #[test]
    fn config_enumeration_invariants(
        b in prop::sample::select(vec![8u64, 32, 128]),
        n in prop::sample::select(vec![4u64, 64, 1000]),
        c in prop::sample::select(vec![2u64, 16, 512]),
        p in prop::sample::select(vec![2u32, 4, 8, 16]),
    ) {
        let node = fc_node("t", b, n, c, 0);
        let cfgs = enumerate_configs(&node, &ConfigRule::new(p));
        prop_assert!(!cfgs.is_empty());
        let max_product = cfgs.iter().map(Config::product).max().unwrap();
        for cfg in &cfgs {
            prop_assert!(cfg.product() <= u64::from(p));
            prop_assert_eq!(cfg.product(), max_product); // all-devices rule
            for (i, d) in node.iter_space.iter().enumerate() {
                prop_assert!(u64::from(cfg.split(i)) <= d.size.max(1));
            }
        }
        // relaxed rule is a superset containing all-ones
        let relaxed = enumerate_configs(&node, &ConfigRule::new(p).allow_idle());
        prop_assert!(relaxed.len() >= cfgs.len());
        prop_assert!(relaxed.contains(&Config::ones(3)));
    }

    /// Collective volume formulas are monotone in group size and bounded.
    #[test]
    fn collective_bounds(bytes in 1.0f64..1e9, g1 in 2u32..64) {
        let ar = all_reduce_bytes(bytes, g1);
        prop_assert!(ar > 0.0 && ar < 2.0 * bytes);
        prop_assert!(ar >= all_gather_bytes(bytes, g1));
        prop_assert!(all_reduce_bytes(bytes, g1 + 1) > ar);
    }

    /// Structural interning is invisible: on any random DAG the interned
    /// tables return bit-identical `layer_cost` / `edge_cost` entries to a
    /// build with interning disabled.
    #[test]
    fn interned_tables_are_bit_identical(dag in arb_dag(9)) {
        let g = build_graph(&dag);
        let machine = MachineSpec::test_machine();
        // intern_min_nodes: 0 — random DAGs here are below the default size
        // gate, and this test is specifically about interning correctness.
        let single = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("thread pool");
        let (interned, plain) = single.install(|| {
            let interned = CostTables::build_with(
                &g,
                ConfigRule::new(8),
                &machine,
                &TableOptions { intern_min_nodes: 0 },
            );
            let plain = CostTables::build_with(
                &g,
                ConfigRule::new(8),
                &machine,
                &TableOptions { intern_min_nodes: usize::MAX },
            );
            (interned, plain)
        });
        for v in g.node_ids() {
            prop_assert_eq!(interned.k(v), plain.k(v));
            prop_assert_eq!(interned.configs_of(v), plain.configs_of(v));
            for c in 0..interned.k(v) as u16 {
                prop_assert_eq!(
                    interned.layer_cost(v, c).to_bits(),
                    plain.layer_cost(v, c).to_bits(),
                    "layer cost differs at node {:?} config {}", v, c
                );
            }
        }
        for e in 0..g.edge_count() {
            let e = EdgeId(e as u32);
            let (u, v) = {
                let edge = g.edge(e);
                (edge.src, edge.dst)
            };
            for cu in 0..interned.k(u) as u16 {
                for cv in 0..interned.k(v) as u16 {
                    prop_assert_eq!(
                        interned.edge_cost(e, cu, cv).to_bits(),
                        plain.edge_cost(e, cu, cv).to_bits(),
                        "edge cost differs at edge {:?} ({}, {})", e, cu, cv
                    );
                }
            }
        }
    }

    /// Exact dominance pruning is invisible to the search: on any random
    /// DAG the pruned DP returns the same optimal cost (bit-identical) and
    /// a strategy that, after id back-mapping, is valid in the original
    /// configuration space and achieves that optimum.
    #[test]
    fn pruned_search_matches_unpruned(dag in arb_dag(8), p in prop::sample::select(vec![2u32, 4, 8])) {
        let g = build_graph(&dag);
        let tables = CostTables::build(&g, ConfigRule::new(p), &MachineSpec::test_machine());
        let plain = Search::new(&g).tables(&tables).run()
            .expect_found("unpruned");
        let pruned = Search::new(&g).tables(&tables)
            .pruning(PruneOptions::default())
            .run().expect_found("pruned");
        prop_assert_eq!(
            pruned.cost.to_bits(), plain.cost.to_bits(),
            "pruned {} vs unpruned {}", pruned.cost, plain.cost
        );
        // The back-mapped ids are valid in the original tables...
        for v in g.node_ids() {
            prop_assert!((pruned.config_ids[v.index()] as usize) < tables.k(v));
        }
        // ...and evaluate to the optimum there.
        let eval = tables.evaluate_ids(&g, &pruned.config_ids);
        prop_assert!((eval - plain.cost).abs() <= 1e-9 * plain.cost.abs().max(1.0),
            "back-mapped strategy {} vs optimum {}", eval, plain.cost);
    }

    /// Pruning never empties any per-node configuration list, and every
    /// survivor is one of the original configurations.
    #[test]
    fn pruning_keeps_every_config_list_nonempty(dag in arb_dag(9), p in prop::sample::select(vec![2u32, 4, 8, 16])) {
        let g = build_graph(&dag);
        let tables = CostTables::build(&g, ConfigRule::new(p), &MachineSpec::test_machine());
        let pruned = PrunedTables::build(&g, &tables, &PruneOptions::default());
        for v in g.node_ids() {
            let kept = pruned.kept_ids(v);
            prop_assert!(!kept.is_empty(), "C({:?}) emptied", v);
            prop_assert!(kept.len() <= tables.k(v));
            prop_assert_eq!(kept.len(), pruned.tables().k(v));
            for (new_id, &orig) in kept.iter().enumerate() {
                prop_assert!((orig as usize) < tables.k(v));
                prop_assert_eq!(
                    pruned.tables().config(v, new_id as u16),
                    tables.config(v, orig)
                );
            }
        }
    }

    /// The sequential strategy's cost is exactly the model FLOPs, for any
    /// random DAG (no communication on one device).
    #[test]
    fn sequential_cost_is_flops(dag in arb_dag(8)) {
        let g = build_graph(&dag);
        let s = ParallelStrategy::sequential(&g);
        let cost = evaluate(&g, &s, 1234.5);
        prop_assert!((cost - g.total_step_flops()).abs() <= 1e-9 * cost.abs().max(1.0));
    }
}
