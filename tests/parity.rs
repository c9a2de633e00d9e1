//! Parity: every path into the `Search` builder must be **bit-identical**
//! to every other path that describes the same search — same optimal cost
//! (compared via `to_bits`, not a tolerance) and the same per-node
//! configuration ids. Three equivalences are pinned:
//!
//! * precomputed `.tables(...)` == internal build from `.machine(...)` ==
//!   internal build from the flat `.mesh(...)` of the same profile;
//! * pruning/tracing/custom-ordering knobs behave identically across
//!   those entry paths;
//! * a flat single-axis [`DeviceMesh`] reproduces the scalar machine
//!   model exactly (the deeper per-`p`, per-kernel sweep lives in
//!   `mesh_parity.rs`).
//!
//! This is the contract that let callers of the removed
//! `find_best_strategy*` free-function grid migrate mechanically.

use pase::core::{OrderingKind, Search, SearchOutcome};
use pase::cost::{ConfigRule, CostTables, DeviceMesh, MachineSpec, PruneOptions};
use pase::graph::{Graph, GraphBuilder, IterDim, Node, NodeId, OpKind, TensorRef};
use pase::models::Benchmark;
use pase::obs::Trace;
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

/// A random chain-with-skips DAG of fully-connected layers, mirroring the
/// generator in `proptests.rs` but compact enough for a per-case DP.
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
    b.build().expect("parity graph builds")
}

fn assert_identical(label: &str, reference: &SearchOutcome, other: &SearchOutcome) {
    let r = reference
        .found()
        .unwrap_or_else(|| panic!("{label}: reference path failed"));
    let o = other
        .found()
        .unwrap_or_else(|| panic!("{label}: compared path failed"));
    assert_eq!(
        r.cost.to_bits(),
        o.cost.to_bits(),
        "{label}: cost {} != reference cost {}",
        o.cost,
        r.cost
    );
    assert_eq!(
        r.config_ids, o.config_ids,
        "{label}: strategy differs from reference"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All entry paths agree on random DAGs, across plain/pruned/custom
    /// orderings.
    #[test]
    fn entry_paths_agree_on_random_dags(
        widths in prop::collection::vec(prop::sample::select(vec![16u64, 32, 64]), 2..7),
        skips in prop::collection::vec(prop::sample::select(vec![false, true]), 3..=3),
        p in prop::sample::select(vec![2u32, 4, 8]),
    ) {
        let g = random_graph(&widths, &skips);
        let m = MachineSpec::test_machine();
        let tables = CostTables::build(&g, ConfigRule::new(p), &m);

        let precomputed = Search::new(&g).tables(&tables).run().into_outcome();
        let from_machine = Search::new(&g)
            .devices(p)
            .machine(m.clone())
            .run()
            .into_outcome();
        assert_identical("machine knob", &precomputed, &from_machine);
        let from_mesh = Search::new(&g)
            .devices(p)
            .mesh(DeviceMesh::flat(&m))
            .run()
            .into_outcome();
        assert_identical("flat mesh knob", &precomputed, &from_mesh);

        let pruned_pre = Search::new(&g).tables(&tables)
            .pruning(PruneOptions::default())
            .run().into_outcome();
        let pruned_mesh = Search::new(&g)
            .devices(p)
            .mesh(DeviceMesh::flat(&m))
            .pruning(PruneOptions::default())
            .run().into_outcome();
        assert_identical("pruned", &pruned_pre, &pruned_mesh);
        // Pruning is an optimization, never a different optimum.
        assert_eq!(
            precomputed.found().unwrap().cost.to_bits(),
            pruned_pre.found().unwrap().cost.to_bits(),
            "pruning changed the optimal cost"
        );

        let ordering = OrderingKind::Random { seed: widths.len() as u64 };
        let order_pre = Search::new(&g).tables(&tables)
            .ordering(ordering).run().into_outcome();
        let order_mesh = Search::new(&g)
            .devices(p)
            .mesh(DeviceMesh::flat(&m))
            .ordering(ordering)
            .run().into_outcome();
        assert_identical("custom ordering", &order_pre, &order_mesh);
    }
}

/// Entry-path parity on AlexNet, InceptionV3, RNNLM, and Transformer
/// (tiny variants keep the debug-mode DP feasible, as in `pruning.rs`),
/// including traced runs recording the same phases.
#[test]
fn entry_paths_agree_on_paper_benchmarks() {
    let machine = MachineSpec::test_machine();
    for bench in Benchmark::all() {
        let graph = bench.build_tiny();
        let p = 8;
        let tables = CostTables::build(&graph, ConfigRule::new(p), &machine);
        let label = format!("{} p={p}", bench.name());

        let precomputed = Search::new(&graph).tables(&tables).run().into_outcome();
        let internal = Search::new(&graph)
            .devices(p)
            .machine(machine.clone())
            .run()
            .into_outcome();
        assert_identical(&label, &precomputed, &internal);

        let pre_trace = Trace::new();
        let mesh_trace = Trace::new();
        let traced_pre = Search::new(&graph)
            .tables(&tables)
            .trace(&pre_trace)
            .run()
            .into_outcome();
        let traced_mesh = Search::new(&graph)
            .devices(p)
            .mesh(DeviceMesh::flat(&machine))
            .trace(&mesh_trace)
            .run()
            .into_outcome();
        assert_identical(&format!("{label} traced"), &traced_pre, &traced_mesh);
        // Both paths record the same DP phases (the internal-build path
        // additionally records its table-build spans).
        let names = |t: &Trace| {
            let mut v: Vec<String> = t.spans().iter().map(|s| s.name.clone()).collect();
            v.sort();
            v
        };
        let pre_names = names(&pre_trace);
        let mesh_names = names(&mesh_trace);
        for n in &pre_names {
            assert!(
                mesh_names.contains(n),
                "{label}: phase {n} missing from internal-build trace"
            );
        }

        let pruned_pre = Search::new(&graph)
            .tables(&tables)
            .pruning(PruneOptions::default())
            .run()
            .into_outcome();
        let pruned_mesh = Search::new(&graph)
            .devices(p)
            .mesh(DeviceMesh::flat(&machine))
            .pruning(PruneOptions::default())
            .run()
            .into_outcome();
        assert_identical(&format!("{label} pruned"), &pruned_pre, &pruned_mesh);
    }
}
