//! Frontier parity: the Pareto-frontier DP must be a **pure
//! generalization** of the scalar DP. Two contracts, checked for the
//! production microkernel on a 1-thread and a multi-worker rayon pool and
//! for the incremental reference fill (`pase_core::reference::frontier`):
//!
//! (a) the frontier's min-time point is bit-identical (`to_bits`, not a
//!     tolerance) to the single-objective optimum of the scalar reference
//!     loop — the frontier fill preserves the scalar path's exact f64
//!     addition order, so turning the feature on cannot change the answer
//!     it subsumes;
//! (b) a `max_memory_bytes` search answers with exactly the cheapest
//!     frontier point that fits the cap, and an impossible cap reports
//!     `Infeasible` carrying the frontier's true memory floor.
//!
//! Across the two fills, the frontiers share their memory floor at the
//! default width and are set-identical at width 0 (thinning disabled).
//!
//! Covered on random chain-with-skips DAGs (the same generator family as
//! `parity.rs` / `kernel_parity.rs`) and on all four paper benchmarks at
//! p ∈ {8, 32, 64} — the acceptance grid.

use pase::core::{reference, Search, SearchOutcome, StrategyFrontier};
use pase::cost::{ConfigRule, CostTables, MachineSpec};
use pase::graph::{Graph, GraphBuilder, IterDim, Node, NodeId, OpKind, TensorRef};
use pase::models::Benchmark;
use proptest::prelude::*;

/// The per-state frontier width the frontier engine uses by default.
const DEFAULT_WIDTH: usize = 8;

/// Run `f` on a rayon pool capped at `threads` workers.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
        .install(f)
}

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

/// A random chain-with-skips DAG of fully-connected layers; skip edges
/// exercise multi-child dependent sets, where per-state frontiers merge
/// across more than one downstream consumer.
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
    b.build().expect("frontier-parity graph builds")
}

fn frontier_run(
    g: &Graph,
    tables: &CostTables,
    threads: usize,
    max_memory: Option<u64>,
) -> (SearchOutcome, Option<StrategyFrontier>) {
    let mut search = Search::new(g).tables(tables).frontier();
    if let Some(bytes) = max_memory {
        search = search.max_memory_bytes(bytes);
    }
    let run = with_threads(threads, || search.run());
    let frontier = run.frontier().cloned();
    (run.into_outcome(), frontier)
}

/// Contract (b) for one budget: the answer is the cheapest frontier point
/// that fits, or `Infeasible` naming the frontier's memory floor.
fn assert_budget_answer(
    label: &str,
    g: &Graph,
    tables: &CostTables,
    threads: usize,
    frontier: &StrategyFrontier,
    budget: u64,
) {
    let (outcome, _) = frontier_run(g, tables, threads, Some(budget));
    match frontier.cheapest_within(budget) {
        Some(expected) => {
            let r = outcome.found().unwrap_or_else(|| {
                panic!(
                    "{label}: budget {budget} should be feasible, got {}",
                    outcome.tag()
                )
            });
            assert_eq!(
                r.cost.to_bits(),
                expected.cost.to_bits(),
                "{label}: budget {budget} answered cost {} but the cheapest \
                 fitting frontier point costs {}",
                r.cost,
                expected.cost
            );
            assert_eq!(
                r.stats.peak_strategy_bytes, expected.memory_bytes,
                "{label}: budget {budget} peak memory disagrees with the frontier point"
            );
            assert!(
                r.stats.peak_strategy_bytes <= budget,
                "{label}: answer violates its own budget"
            );
        }
        None => match outcome {
            SearchOutcome::Infeasible {
                min_memory_bytes, ..
            } => assert_eq!(
                min_memory_bytes,
                frontier.min_memory_bytes(),
                "{label}: infeasible floor disagrees with the frontier"
            ),
            other => panic!(
                "{label}: budget {budget} fits no frontier point but the search \
                 answered {}",
                other.tag()
            ),
        },
    }
}

/// The frontier is well-formed: cost strictly ascending, memory strictly
/// descending (dominance-pruned), and its min-time point bit-identical to
/// the scalar optimum `optimum` — contract (a).
fn assert_min_time_parity(label: &str, f: &StrategyFrontier, optimum: f64) {
    assert_eq!(
        f.min_time().cost.to_bits(),
        optimum.to_bits(),
        "{label}: frontier min-time {} != scalar optimum {optimum}",
        f.min_time().cost,
    );
    for w in f.points().windows(2) {
        assert!(
            w[0].cost < w[1].cost && w[0].memory_bytes > w[1].memory_bytes,
            "{label}: frontier is not dominance-pruned: {w:?}"
        );
    }
}

/// Both contracts: (a) for the incremental reference fill and for the
/// production fill at each listed thread count, (b) for the production
/// fill. `probes` sets how much of contract (b) runs — every budget probe
/// pays a full frontier fill, so the heaviest cells dial it down:
/// 0 = contract (a) only; 1 = the two boundary regimes (the memory floor
/// and one impossible cap); 2 = additionally every exact point memory
/// (each cap that fits point k but not k−1 must answer point k).
fn assert_frontier_parity(
    label: &str,
    g: &Graph,
    tables: &CostTables,
    thread_counts: &[usize],
    probes: u8,
) {
    let optimum = reference::scalar_search(g, tables, None).cost;
    let oracle = reference::frontier(g, tables, DEFAULT_WIDTH, None);
    assert_min_time_parity(&format!("{label} (reference)"), &oracle, optimum);
    for &threads in thread_counts {
        let label = format!("{label} (threads={threads})");
        let scalar = with_threads(threads, || {
            Search::new(g).tables(tables).run().into_outcome()
        });
        let s = scalar
            .found()
            .unwrap_or_else(|| panic!("{label}: scalar search failed"));
        assert_eq!(
            s.cost.to_bits(),
            optimum.to_bits(),
            "{label}: scalar optimum {} != the reference loop's {optimum}",
            s.cost
        );

        let (outcome, frontier) = frontier_run(g, tables, threads, None);
        let f = frontier.unwrap_or_else(|| panic!("{label}: no frontier"));
        let r = outcome
            .found()
            .unwrap_or_else(|| panic!("{label}: frontier search failed"));

        // (a) min-time parity, bit for bit — and the unconstrained search
        // selects exactly that point.
        assert_min_time_parity(&label, &f, optimum);
        assert_eq!(
            r.cost.to_bits(),
            optimum.to_bits(),
            "{label}: unconstrained frontier answer differs from the scalar optimum"
        );
        assert_eq!(
            r.stats.frontier_len,
            f.len(),
            "{label}: stats disagree with the returned frontier"
        );

        // (b) the two boundary regimes: only the floor fits, and nothing
        // fits.
        if probes >= 1 {
            let floor = f.min_memory_bytes();
            assert_budget_answer(&label, g, tables, threads, &f, floor);
            if floor > 0 {
                assert_budget_answer(&label, g, tables, threads, &f, floor - 1);
            }
        }
        if probes >= 2 {
            for pt in f.points() {
                assert_budget_answer(&label, g, tables, threads, &f, pt.memory_bytes);
            }
        }
    }
}

/// The `width == 0` exactness contract: with thinning disabled the
/// microkernel's batch prunes are off, and its frontier must be
/// **set-identical** to the incremental reference fill's — bitwise times,
/// equal memories, point for point.
fn assert_set_identical_to_the_oracle_exact(
    label: &str,
    g: &Graph,
    tables: &CostTables,
    threads: usize,
) {
    let a = reference::frontier(g, tables, 0, None);
    let b = with_threads(threads, || {
        Search::new(g)
            .tables(tables)
            .frontier_width(0)
            .frontier()
            .run()
            .into_frontier()
    })
    .unwrap_or_else(|| panic!("{label}: no width-0 frontier"));
    assert_eq!(
        a.len(),
        b.len(),
        "{label}: width-0 frontier lengths differ ({} vs {})",
        a.len(),
        b.len()
    );
    for (x, y) in a.points().iter().zip(b.points()) {
        assert_eq!(
            x.cost.to_bits(),
            y.cost.to_bits(),
            "{label}: width-0 frontier times differ ({} vs {})",
            x.cost,
            y.cost
        );
        assert_eq!(
            x.memory_bytes, y.memory_bytes,
            "{label}: width-0 frontier memories differ"
        );
    }
}

/// At the default (width-capped) frontier, the microkernel's batch prunes
/// keep two things exact besides the min-time bits of contract (a): the
/// frontier's memory floor, and the max-memory endpoint's membership. The
/// microkernel must agree with the reference fill on the floor.
fn assert_shares_the_oracle_memory_floor(
    label: &str,
    g: &Graph,
    tables: &CostTables,
    threads: usize,
) {
    let tiled = frontier_run(g, tables, threads, None)
        .1
        .unwrap_or_else(|| panic!("{label}: no frontier"));
    assert_eq!(
        reference::frontier(g, tables, DEFAULT_WIDTH, None).min_memory_bytes(),
        tiled.min_memory_bytes(),
        "{label}: the microkernel disagrees with the reference on the memory floor"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Frontier == scalar on random DAGs for the reference fill and the
    /// microkernel at one and at several threads, with budget answers equal to the
    /// cheapest fitting frontier point at every exact point memory.
    #[test]
    fn frontier_matches_scalar_on_random_dags(
        widths in prop::collection::vec(prop::sample::select(vec![16u64, 24, 32, 48]), 2..6),
        skips in prop::collection::vec(prop::sample::select(vec![false, true]), 3..=3),
        p in prop::sample::select(vec![2u32, 4, 8]),
    ) {
        let g = random_graph(&widths, &skips);
        let tables = CostTables::build(&g, ConfigRule::new(p), &MachineSpec::test_machine());
        assert_frontier_parity("random dag", &g, &tables, &[1, 4], 2);
        for threads in [1, 4] {
            let label = format!("random dag (threads={threads})");
            assert_set_identical_to_the_oracle_exact(&label, &g, &tables, threads);
            assert_shares_the_oracle_memory_floor(&label, &g, &tables, threads);
        }
    }
}

/// The acceptance grid: frontier min-time == scalar optimum on AlexNet,
/// InceptionV3, RNNLM, and Transformer at p ∈ {8, 32, 64} (tiny variants
/// keep the debug-mode DP feasible, as in `parity.rs`). Each cell checks
/// the reference fill and the microkernel at one and at several threads.
///
/// InceptionV3's dense concat blocks make its frontier fill by far the
/// grid's most expensive (tens of seconds per reference fill in debug at
/// p ≥ 32), so debug builds cover it at p = 8 at one thread count and
/// leave the full InceptionV3 column to release runs — `bench_search`
/// asserts min-time bit-parity on every grid cell in release on every
/// tier-1 run.
#[test]
fn frontier_matches_scalar_on_paper_benchmarks() {
    let machine = MachineSpec::test_machine();
    for (b, bench) in Benchmark::all().iter().enumerate() {
        let graph = bench.build_tiny();
        for (i, p) in [8u32, 32, 64].into_iter().enumerate() {
            let inception = matches!(bench, Benchmark::InceptionV3);
            if cfg!(debug_assertions) && inception && p > 8 {
                continue;
            }
            let tables = CostTables::build(&graph, ConfigRule::new(p), &machine);
            let label = format!("{} p={p}", bench.name());
            // Alternate which thread count goes first (or alone).
            let (first, second) = if (b + i) % 2 == 0 { (4, 1) } else { (1, 4) };
            let thread_counts: &[usize] = if cfg!(debug_assertions) && inception {
                &[first]
            } else {
                &[first, second]
            };
            assert_frontier_parity(&label, &graph, &tables, thread_counts, 1);
            // The cross-fill exactness contracts, on the cheapest cell of
            // each model's column (width-0 fills disable thinning, so they
            // are the grid's most expensive runs).
            if p == 8 && !(cfg!(debug_assertions) && inception) {
                let (exact, floor) = if b % 2 == 0 { (4, 1) } else { (1, 4) };
                assert_set_identical_to_the_oracle_exact(&label, &graph, &tables, exact);
                assert_shares_the_oracle_memory_floor(&label, &graph, &tables, floor);
            }
        }
    }
}
