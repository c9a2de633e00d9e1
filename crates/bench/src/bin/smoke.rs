//! Quick timing smoke test (not part of the paper reproduction).
use pase_bench::{pase_strategy, standard_tables};
use pase_cost::MachineSpec;
use pase_models::Benchmark;
use std::time::Instant;

fn main() {
    let machine = MachineSpec::gtx1080ti();
    for b in Benchmark::all() {
        let g = b.build();
        for p in [8u32, 32] {
            let t0 = Instant::now();
            let tables = standard_tables(&g, p, &machine);
            let t_build = t0.elapsed();
            let t1 = Instant::now();
            let (outcome, _) = pase_strategy(&g, &tables);
            let stats = outcome.stats().clone();
            println!(
                "{:<12} p={:<3} K={:<4} M={} tables={:.1?} search={:.1?} entries={} outcome={}",
                b.name(),
                p,
                stats.max_configs,
                stats.max_dependent_set,
                t_build,
                t1.elapsed(),
                stats.table_entries,
                outcome.tag()
            );
        }
    }
}
