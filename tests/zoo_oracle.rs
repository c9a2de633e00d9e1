//! Zoo-wide scalar oracle sweep: on every `pase_models::build_named` model
//! at p ∈ {8, 32, 64} on the flat GTX 1080 Ti mesh, and on the four
//! two-tier p = 32 cells of the planner benchmark's `plan` workload, the
//! production search — pruned and unpruned — must return the optimum of
//! `reference::scalar_search` bit for bit, with the same configuration ids.
//!
//! The reference fill keeps every table whole until back-substitution
//! ends, while the production fill frees each child table's costs once its
//! parent is filled; equal answers show that nothing still read was freed.
//! Pruned vs unpruned at ε = 0 on every cell is also the first step of the
//! ε = 0 cache-key merge.
//!
//! The frontier fill likewise frees each child table's `(time, mem)`
//! points once its parent is filled. On the six cells of the benchmark's
//! `plan-frontier` workload, at 1 and 4 threads, every frontier point's
//! configuration ids must reproduce its memory exactly and its cost to
//! 1e-9, the min-time point must be the scalar reference optimum bit for
//! bit, and at width 0 (on Transformer p8 and AlexNet p64) the whole
//! frontier must equal the reference frontier fill's point for point.
//!
//! The sweep takes minutes in a debug build, so it is `#[ignore]`d and runs
//! in release: `cargo test -q --release --test zoo_oracle -- --include-ignored`.

use pase::core::{reference, Search, SearchOutcome, StrategyFrontier};
use pase::cost::{ConfigRule, CostTables, DeviceMesh, MachineSpec, PruneOptions, TableOptions};
use pase::models::{build_named, MODEL_NAMES};

/// The two-tier 8 × 4 cluster mesh of the `plan` workload.
const TWO_TIER_MESH: &str = r#"{"name": "twotier", "axes": [{"name": "gpu", "size": 8, "alpha": 5e-6, "bandwidth": 12.0e9, "peak_flops": 11.3e12}, {"name": "node", "size": 4, "alpha": 15e-6, "bandwidth": 6.0e9, "peak_flops": 11.3e12}]}"#;

/// The cells of the planner benchmark's `plan-frontier` workload (flat
/// GTX 1080 Ti mesh, unpruned), and whether to check them at width 0.
const FRONTIER_CELLS: [(&str, u32, bool); 6] = [
    ("alexnet", 64, true),
    ("transformer", 8, true),
    ("rnnlm", 64, false),
    ("inception", 8, false),
    ("resnet", 8, false),
    ("bert", 8, false),
];

/// Run `f` on a rayon pool capped at `threads` workers.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
        .install(f)
}

fn check_cell(model: &str, p: u32, mesh: &DeviceMesh) {
    let label = format!("{model} p{p} {}", mesh.name);
    let g = build_named(model, p, false).expect("zoo model builds");
    let tables =
        CostTables::build_mesh(&g, ConfigRule::new(p), mesh, &TableOptions::default(), None);
    let run = |prune: bool| {
        let search = Search::new(&g).tables(&tables);
        let search = if prune {
            search.pruning(PruneOptions::default())
        } else {
            search
        };
        search.run().into_outcome()
    };
    let (plain, pruned) = (run(false), run(true));
    if let SearchOutcome::Oom { .. } = plain {
        assert_eq!(pruned.tag(), plain.tag(), "{label}: pruned search");
        // The reference panics when the default budget cannot hold its
        // tables; silence the hook for the expected panic.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let reference = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reference::scalar_search(&g, &tables, None)
        }));
        std::panic::set_hook(hook);
        let message = reference
            .err()
            .and_then(|e| e.downcast::<String>().ok())
            .unwrap_or_else(|| panic!("{label}: the reference fit the budget"));
        assert!(
            message.contains(plain.tag()),
            "{label}: reference {message}"
        );
        return;
    }
    let want = reference::scalar_search(&g, &tables, None);
    for (engine, outcome) in [("unpruned", plain), ("pruned", pruned)] {
        let got = outcome.expect_found(&label);
        assert_eq!(
            got.cost.to_bits(),
            want.cost.to_bits(),
            "{label} {engine}: cost {} != reference {}",
            got.cost,
            want.cost
        );
        assert_eq!(got.config_ids, want.config_ids, "{label} {engine}: ids");
    }
}

#[test]
#[ignore = "release sweep: cargo test --release --test zoo_oracle -- --include-ignored"]
fn zoo_searches_match_the_scalar_reference() {
    let flat = DeviceMesh::flat(&MachineSpec::gtx1080ti());
    for p in [8, 32, 64] {
        for model in MODEL_NAMES {
            check_cell(model, p, &flat);
        }
    }
    let two_tier = DeviceMesh::from_json_str(TWO_TIER_MESH).expect("mesh parses");
    for model in ["resnet", "vgg", "bert", "gnmt"] {
        check_cell(model, 32, &two_tier);
    }
}

/// Every point of `f` is the strategy its ids describe: exact memory, cost
/// to 1e-9.
fn assert_points_reproduce(
    label: &str,
    f: &StrategyFrontier,
    g: &pase::graph::Graph,
    tables: &CostTables,
) {
    for (i, pt) in f.points().iter().enumerate() {
        assert_eq!(
            tables.strategy_memory_bytes(&pt.config_ids),
            pt.memory_bytes,
            "{label}: point {i} memory"
        );
        let eval = tables.evaluate_ids(g, &pt.config_ids);
        assert!(
            (eval - pt.cost).abs() <= 1e-9 * pt.cost.abs(),
            "{label}: point {i} evaluates to {eval}, frontier says {}",
            pt.cost
        );
    }
}

#[test]
#[ignore = "release sweep: cargo test --release --test zoo_oracle -- --include-ignored"]
fn released_frontier_tables_keep_every_answer() {
    let flat = DeviceMesh::flat(&MachineSpec::gtx1080ti());
    for (model, p, exact) in FRONTIER_CELLS {
        let g = build_named(model, p, false).expect("zoo model builds");
        let tables = CostTables::build_mesh(
            &g,
            ConfigRule::new(p),
            &flat,
            &TableOptions::default(),
            None,
        );
        let optimum = reference::scalar_search(&g, &tables, None).cost;
        let want_exact = exact.then(|| reference::frontier(&g, &tables, 0, None));
        for threads in [1, 4] {
            let label = format!("{model} p{p}, {threads} threads");
            let search = |width: usize| {
                with_threads(threads, || {
                    Search::new(&g)
                        .tables(&tables)
                        .frontier()
                        .frontier_width(width)
                        .run()
                        .into_frontier()
                        .unwrap_or_else(|| panic!("{label}: no frontier at width {width}"))
                })
            };
            let f = search(8);
            assert_points_reproduce(&label, &f, &g, &tables);
            assert_eq!(
                f.min_time().cost.to_bits(),
                optimum.to_bits(),
                "{label}: min-time {} != scalar reference {optimum}",
                f.min_time().cost
            );
            let Some(want) = &want_exact else { continue };
            let got = search(0);
            assert_points_reproduce(&format!("{label} width 0"), &got, &g, &tables);
            assert_eq!(got.len(), want.len(), "{label}: width-0 frontier size");
            for (i, (a, b)) in got.points().iter().zip(want.points()).enumerate() {
                assert_eq!(
                    a.cost.to_bits(),
                    b.cost.to_bits(),
                    "{label}: point {i} cost"
                );
                assert_eq!(a.memory_bytes, b.memory_bytes, "{label}: point {i} memory");
                assert_eq!(a.config_ids, b.config_ids, "{label}: point {i} ids");
            }
        }
    }
}
