//! Kernel parity: the tiled microkernel that fills every production DP
//! table must be **bit-identical** to the scalar reference loop
//! (`pase_core::reference::scalar_search`) — same optimal cost (compared
//! via `to_bits`, not a tolerance) and the same per-node configuration ids
//! — on random DAGs and on all four paper benchmarks across device counts,
//! at one and at several worker threads. This is the contract that makes the tiled
//! microkernel a pure performance change: the packed panels preserve the
//! scalar loop's exact f64 addition order (layer cost, then later edges in
//! order, then children in order), blocked `min` over non-NaN costs equals
//! sequential `min`, and the separate argmin recovery pass returns the same
//! first-improving index the scalar loop tracks inline.
//!
//! The sweep deliberately covers ragged shapes: per-vertex config counts
//! that are not multiples of the kernel's LANES blocking (so remainder
//! lanes run), chunk boundaries that split innermost-digit runs, and
//! p = 64 cells whose tables span multiple `CHUNK`-sized fill chunks.

use pase::core::{reference, Search, SearchOutcome};
use pase::cost::{ConfigRule, CostTables, MachineSpec};
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

/// A random chain-with-skips DAG of fully-connected layers (the same
/// generator family as `parity.rs`): skip edges exercise multi-child
/// dependent sets, i.e. the kernel's strided-gather child accumulation.
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
    b.build().expect("kernel-parity graph builds")
}

/// Run `f` on a rayon pool capped at `threads` workers.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
        .install(f)
}

fn run(g: &Graph, tables: &CostTables, threads: usize) -> SearchOutcome {
    with_threads(threads, || {
        Search::new(g).tables(tables).run().into_outcome()
    })
}

/// Run the production search on a multi-worker and a 1-thread rayon pool
/// and require results bit-identical to the scalar reference loop's.
fn assert_kernel_parity(label: &str, g: &Graph, tables: &CostTables) {
    let s = reference::scalar_search(g, tables, None);
    for threads in [4, 1] {
        let tiled = run(g, tables, threads);
        let t = tiled
            .found()
            .unwrap_or_else(|| panic!("{label}: tiled search failed (threads={threads})"));
        assert_eq!(
            s.cost.to_bits(),
            t.cost.to_bits(),
            "{label} (threads={threads}): tiled cost {} != scalar cost {}",
            t.cost,
            s.cost
        );
        assert_eq!(
            s.config_ids, t.config_ids,
            "{label} (threads={threads}): tiled strategy differs from scalar"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tiled == scalar on random DAGs. Widths of 16/24/48 give per-vertex
    /// config counts (and hence table sizes) that are rarely multiples of
    /// the LANES = 8 blocking, so ragged remainder lanes run in almost
    /// every case.
    #[test]
    fn tiled_matches_scalar_on_random_dags(
        widths in prop::collection::vec(prop::sample::select(vec![16u64, 24, 32, 48]), 2..7),
        skips in prop::collection::vec(prop::sample::select(vec![false, true]), 3..=3),
        p in prop::sample::select(vec![2u32, 4, 8]),
    ) {
        let g = random_graph(&widths, &skips);
        let tables = CostTables::build(&g, ConfigRule::new(p), &MachineSpec::test_machine());
        assert_kernel_parity("random dag", &g, &tables);
    }
}

/// The ISSUE acceptance criterion: tiled == scalar on AlexNet,
/// InceptionV3, RNNLM, and Transformer at p ∈ {8, 32, 64} (tiny variants
/// keep the debug-mode DP feasible, as in `parity.rs`; the p = 64 cells
/// still produce DP tables larger than one fill chunk, so chunk-boundary
/// odometer re-seeding is exercised too).
#[test]
fn tiled_matches_scalar_on_paper_benchmarks() {
    let machine = MachineSpec::test_machine();
    for bench in Benchmark::all() {
        let graph = bench.build_tiny();
        for p in [8u32, 32, 64] {
            let tables = CostTables::build(&graph, ConfigRule::new(p), &machine);
            let label = format!("{} p={p}", bench.name());
            assert_kernel_parity(&label, &graph, &tables);
        }
    }
}
