//! **Table II reproduction** — best strategies found by FindBestStrategy
//! for a system of 4 nodes × 8 GPUs (p = 32, 1080Ti profile).
//!
//! Prints the per-layer configurations (consecutive identical layers
//! merged, as the paper reports module-level rows) together with the
//! Table II dimension legend, and highlights the paper's headline
//! qualitative findings (alternating FC splits on AlexNet, vocabulary
//! splits on the LM/NMT embedding and softmax, the LSTM's layer-dimension
//! split, …).
//!
//! ```text
//! cargo run -p pase-bench --release --bin table2 [-- --devices 32]
//! ```

use pase_bench::{compressed_report, pase_strategy, standard_tables};
use pase_cost::MachineSpec;
use pase_models::Benchmark;

fn main() {
    let mut p = 32u32;
    let mut fixed_batch = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--devices" => p = it.next().expect("value").parse().expect("device count"),
            // Global batch fixed at the paper's 128/64 instead of scaling
            // per device: strategies shift further from data parallelism
            // (4 samples/device leave nothing for batch splits to do).
            "--fixed-batch" => fixed_batch = true,
            other => panic!("unknown argument: {other}"),
        }
    }
    let machine = MachineSpec::gtx1080ti();

    println!(
        "Table II: best strategies found by FindBestStrategy (p = {p}, {}, {})",
        machine.name,
        if fixed_batch {
            "fixed global batch"
        } else {
            "weak scaling"
        }
    );
    println!();
    println!("Legend: conv dims b c h w n r s = batch, in-chan, height, width,");
    println!("        out-chan, filter h, filter w; fc dims b n c = batch, out, in;");
    println!("        embedding b s d v = batch, seq, embed, vocab;");
    println!("        lstm l b s d e = layers, batch, seq, embed, hidden;");
    println!("        attention b s h c k = batch, seq, heads, query ch, kv ch.");

    for bench in Benchmark::all() {
        let graph = if fixed_batch {
            bench.build()
        } else {
            bench.build_for(p)
        };
        let tables = standard_tables(&graph, p, &machine);
        let (outcome, strategy) = pase_strategy(&graph, &tables);
        println!("\n=== {} ===", bench.name());
        match strategy {
            Some(s) => {
                let r = outcome.found().expect("strategy implies found");
                println!(
                    "search: {:?}, cost {:.4e} FLOP-units, K = {}, M = {}\n",
                    r.stats.elapsed, r.cost, r.stats.max_configs, r.stats.max_dependent_set
                );
                println!("{:<44} {:<9} configuration", "layers", "dims");
                for (name, dims, cfg) in compressed_report(&graph, &s) {
                    println!("{name:<44} {dims:<9} {cfg}");
                }
            }
            None => println!("search failed: {}", outcome.tag()),
        }
    }
}
