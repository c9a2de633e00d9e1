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
//! The sweep takes minutes in a debug build, so it is `#[ignore]`d and runs
//! in release: `cargo test -q --release --test zoo_oracle -- --include-ignored`.

use pase::core::{reference, Search, SearchOutcome};
use pase::cost::{ConfigRule, CostTables, DeviceMesh, MachineSpec, PruneOptions, TableOptions};
use pase::models::{build_named, MODEL_NAMES};

/// The two-tier 8 × 4 cluster mesh of the `plan` workload.
const TWO_TIER_MESH: &str = r#"{"name": "twotier", "axes": [{"name": "gpu", "size": 8, "alpha": 5e-6, "bandwidth": 12.0e9, "peak_flops": 11.3e12}, {"name": "node", "size": 4, "alpha": 15e-6, "bandwidth": 6.0e9, "peak_flops": 11.3e12}]}"#;

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
