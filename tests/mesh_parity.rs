//! The tentpole's parity anchor: a **flat single-axis [`DeviceMesh`]**
//! must reproduce the scalar machine model **bit-identically** — not
//! within a tolerance. Two layers of assertion:
//!
//! * *table level*: every layer-cost entry equals the independent scalar
//!   reference [`layer_cost`] and every edge entry equals the scalar
//!   [`transfer_cost`], compared via `to_bits` (the scalar functions are
//!   deliberately untouched by the mesh refactor so they stay a fixed
//!   reference);
//! * *search level*: the DP over flat-mesh tables returns the same cost
//!   bits and the same strategy under both schedulers (wavefront-parallel
//!   and sequential) as the scalar reference loop
//!   (`pase_core::reference::scalar_search`).
//!
//! Covered on proptest-random skip DAGs and on all four paper benchmarks
//! at p ∈ {8, 32, 64}.

use pase::core::{reference, Search, SearchOutcome};
use pase::cost::{
    layer_cost, transfer_cost, ConfigRule, CostTables, DeviceMesh, MachineSpec, TableOptions,
};
use pase::graph::{Graph, GraphBuilder, IterDim, Node, NodeId, OpKind, TensorRef};
use pase::models::Benchmark;
use proptest::prelude::*;

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

fn random_graph(widths: &[u64], skips: &[bool]) -> Graph {
    let mut b = GraphBuilder::new();
    let batch = 32;
    let mut ids: Vec<NodeId> = Vec::new();
    for (i, &w) in widths.iter().enumerate() {
        let in_w = if i == 0 { 16 } else { widths[i - 1] };
        let extra = i >= 2 && skips[i % skips.len()];
        let node = fc_node(
            &format!("n{i}"),
            batch,
            w,
            in_w,
            usize::from(i > 0) + usize::from(extra),
        );
        ids.push(b.add_node(node));
    }
    for i in 1..widths.len() {
        b.connect(ids[i - 1], ids[i]);
        if i >= 2 && skips[i % skips.len()] {
            b.connect(ids[i - 2], ids[i]);
        }
    }
    b.build().expect("mesh parity graph builds")
}

/// Every table entry of a flat-mesh build must be bitwise equal to the
/// scalar reference model at `r = F/B`.
fn assert_tables_match_scalar(label: &str, graph: &Graph, tables: &CostTables, m: &MachineSpec) {
    let r = m.flop_byte_ratio();
    for (id, node) in graph.iter() {
        for (c, cfg) in tables.configs_of(id).iter().enumerate() {
            let got = tables.layer_cost(id, c as u16);
            let want = layer_cost(node, cfg, r);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{label}: layer cost of {} config {c} is {got}, scalar model says {want}",
                node.name
            );
        }
    }
    for (eid, e) in graph.edges().iter().enumerate() {
        let u = graph.node(e.src);
        let v = graph.node(e.dst);
        for (cu, ucfg) in tables.configs_of(e.src).iter().enumerate() {
            for (cv, vcfg) in tables.configs_of(e.dst).iter().enumerate() {
                let got = tables.edge_cost(pase::graph::EdgeId(eid as u32), cu as u16, cv as u16);
                let want = transfer_cost(u, ucfg, v, e.dst_slot as usize, vcfg, r);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{label}: edge {}->{} cost ({cu},{cv}) is {got}, scalar model says {want}",
                    u.name,
                    v.name
                );
            }
        }
    }
}

/// Run the DP over the given tables under both schedulers and assert both
/// outcomes are bit-identical to the scalar reference loop's. Returns the
/// wavefront-parallel outcome.
fn assert_dp_combos_agree(label: &str, graph: &Graph, tables: &CostTables) -> SearchOutcome {
    let want = reference::scalar_search(graph, tables, None);
    let mut outcomes: Vec<SearchOutcome> = [true, false]
        .into_iter()
        .map(|parallel| {
            let outcome = Search::new(graph)
                .tables(tables)
                .parallel(parallel)
                .run()
                .into_outcome();
            let got = outcome
                .found()
                .unwrap_or_else(|| panic!("{label}: parallel={parallel} failed"));
            assert_eq!(
                want.cost.to_bits(),
                got.cost.to_bits(),
                "{label}: parallel={parallel} cost diverges from the scalar oracle"
            );
            assert_eq!(
                want.config_ids, got.config_ids,
                "{label}: parallel={parallel} strategy diverges from the scalar oracle"
            );
            outcome
        })
        .collect();
    outcomes.swap_remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat mesh == scalar model on random skip DAGs, at table level and
    /// through the DP under every kernel/scheduler combination.
    #[test]
    fn flat_mesh_is_bit_identical_on_random_dags(
        widths in prop::collection::vec(prop::sample::select(vec![16u64, 32, 64]), 2..7),
        skips in prop::collection::vec(prop::sample::select(vec![false, true]), 3..=3),
        p in prop::sample::select(vec![2u32, 4, 8]),
    ) {
        let g = random_graph(&widths, &skips);
        let m = MachineSpec::test_machine();
        let tables = CostTables::build_mesh(
            &g,
            ConfigRule::new(p),
            &DeviceMesh::flat(&m),
            &TableOptions::default(),
            None,
        );
        assert_tables_match_scalar("random dag", &g, &tables, &m);
        assert_dp_combos_agree("random dag", &g, &tables);
    }
}

/// The twelve benchmark cells of the acceptance criterion: AlexNet,
/// InceptionV3, RNNLM, Transformer × p ∈ {8, 32, 64} (tiny variants keep
/// the debug-mode DP feasible).
#[test]
fn flat_mesh_is_bit_identical_on_paper_benchmarks() {
    let m = MachineSpec::gtx1080ti();
    for bench in Benchmark::all() {
        let graph = bench.build_tiny();
        for p in [8u32, 32, 64] {
            let label = format!("{} p={p}", bench.name());
            let tables = CostTables::build_mesh(
                &graph,
                ConfigRule::new(p),
                &DeviceMesh::flat(&m),
                &TableOptions::default(),
                None,
            );
            assert_tables_match_scalar(&label, &graph, &tables, &m);
            let outcome = assert_dp_combos_agree(&label, &graph, &tables);
            // The scalar convenience constructor must route through the
            // exact same flat mesh: identical tables, identical optimum.
            let scalar_tables = CostTables::build(&graph, ConfigRule::new(p), &m);
            let scalar = Search::new(&graph)
                .tables(&scalar_tables)
                .run()
                .into_outcome();
            assert_eq!(
                outcome.found().unwrap().cost.to_bits(),
                scalar.found().unwrap().cost.to_bits(),
                "{label}: CostTables::build diverges from explicit flat mesh"
            );
            assert_eq!(
                outcome.found().unwrap().config_ids,
                scalar.found().unwrap().config_ids,
                "{label}: CostTables::build strategy diverges"
            );
        }
    }
}

/// A multi-tier mesh is *not* the scalar model: on a cluster mesh whose
/// inter-node fabric is slower than the intra-node bus, wide collectives
/// get strictly more expensive, so at least the cost (and typically the
/// chosen strategy) must move.
#[test]
fn multi_tier_mesh_diverges_from_flat() {
    let m = MachineSpec::gtx1080ti();
    let graph = Benchmark::Transformer.build_tiny();
    let p = 32;
    let flat = CostTables::build_mesh(
        &graph,
        ConfigRule::new(p),
        &DeviceMesh::flat(&m),
        &TableOptions::default(),
        None,
    );
    let tiered = CostTables::build_mesh(
        &graph,
        ConfigRule::new(p),
        &DeviceMesh::cluster(&m, 4, 8),
        &TableOptions::default(),
        None,
    );
    let flat_best = Search::new(&graph)
        .tables(&flat)
        .run()
        .into_outcome()
        .expect_found("flat");
    let tiered_best = Search::new(&graph)
        .tables(&tiered)
        .run()
        .into_outcome()
        .expect_found("tiered");
    assert!(
        tiered_best.cost > flat_best.cost,
        "slower inter-node links must not make the optimum cheaper \
         (flat {}, tiered {})",
        flat_best.cost,
        tiered_best.cost
    );
}
