//! **Fig. 6 reproduction** — simulated speedup over data parallelism of
//! the expert strategy, the FlexFlow-style MCMC strategy, and PaSE's
//! strategy, on the 1080Ti and 2080Ti cluster profiles.
//!
//! The paper measures real Mesh-TensorFlow throughput; here every strategy
//! is run through the hierarchical cluster simulator (`pase-sim`). Absolute
//! numbers are not comparable, but the *shape* should match Fig. 6: PaSE ≥
//! expert ≥ data parallelism everywhere, with larger gaps on the 2080Ti
//! profile (up to ~4× vs ~1.85× on 1080Ti).
//!
//! ```text
//! cargo run -p pase-bench --release --bin figure6 [-- --machine 2080ti \
//!     --devices 4,8,16,32,64 --mcmc-iters 25000 --skip-flexflow]
//! ```

use pase_baselines::McmcOptions;
use pase_bench::{
    dp_strategy, expert_strategy, flexflow_strategy, pase_strategy, relaxed_space, standard_space,
    standard_tables_with_space,
};
use pase_cost::{ConfigSpace, MachineSpec};
use pase_graph::Graph;
use pase_models::Benchmark;
use pase_sim::{memory_per_device, simulate_step, SimOptions, Topology};
use std::time::Duration;

struct Args {
    machines: Vec<MachineSpec>,
    devices: Vec<u32>,
    mcmc_iters: u64,
    skip_flexflow: bool,
    csv: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        machines: vec![MachineSpec::gtx1080ti(), MachineSpec::rtx2080ti()],
        devices: vec![4, 8, 16, 32, 64],
        mcmc_iters: 250_000,
        skip_flexflow: false,
        csv: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--machine" => {
                let m = it.next().expect("--machine needs a value");
                args.machines = vec![match m.as_str() {
                    "1080ti" => MachineSpec::gtx1080ti(),
                    "2080ti" => MachineSpec::rtx2080ti(),
                    other => panic!("unknown machine profile: {other}"),
                }];
            }
            "--devices" => {
                let v = it.next().expect("--devices needs a list");
                args.devices = v
                    .split(',')
                    .map(|s| s.parse().expect("device count"))
                    .collect();
            }
            "--mcmc-iters" => {
                args.mcmc_iters = it.next().expect("value").parse().expect("iterations");
            }
            "--skip-flexflow" => args.skip_flexflow = true,
            "--csv" => args.csv = Some(it.next().expect("--csv needs a path")),
            other => panic!("unknown argument: {other}"),
        }
    }
    args
}

/// Everything about a `(benchmark, p)` data point that is independent of
/// the machine profile: the scaled graph and its configuration spaces.
struct Point {
    bench: Benchmark,
    p: u32,
    graph: Graph,
    /// Exact-`p` space feeding [`standard_tables_with_space`].
    standard: ConfigSpace,
    /// Relaxed (`∏ c_i ≤ p`) space for the MCMC baseline, skipped with
    /// `--skip-flexflow`.
    relaxed: Option<ConfigSpace>,
}

fn main() {
    let args = parse_args();
    let sim_opts = SimOptions::default();
    // CSV rows for plotting: machine,benchmark,p,strategy,speedup
    let mut csv = String::from("machine,benchmark,p,strategy,speedup\n");

    // Graphs and configuration spaces depend only on (benchmark, p); hoist
    // them out of the machine sweep so each is enumerated once instead of
    // once per profile.
    let benches = Benchmark::all();
    let points: Vec<Point> = benches
        .iter()
        .flat_map(|&bench| args.devices.iter().map(move |&p| (bench, p)))
        .map(|(bench, p)| {
            let graph = bench.build_for(p);
            let standard = standard_space(&graph, p);
            let relaxed = (!args.skip_flexflow).then(|| relaxed_space(&graph, p));
            Point {
                bench,
                p,
                graph,
                standard,
                relaxed,
            }
        })
        .collect();

    for machine in &args.machines {
        println!(
            "Fig. 6 ({}): simulated speedup over data parallelism",
            machine.name
        );
        println!(
            "{:<12} {:>4} {:>10} {:>10} {:>10} {:>10}   {:>12} {:>10}",
            "benchmark", "p", "DP", "expert", "flexflow", "ours", "DP mem/dev", "ours mem"
        );
        for point in &points {
            let (bench, p, graph) = (point.bench, point.p, &point.graph);
            let topo = Topology::cluster(machine.clone(), p).unwrap();
            let dp = dp_strategy(graph, p);
            let dp_rep = simulate_step(graph, &dp, &topo, &sim_opts);

            let expert = expert_strategy(bench, graph, p);
            let expert_speedup =
                simulate_step(graph, &expert, &topo, &sim_opts).throughput / dp_rep.throughput;
            use std::fmt::Write as _;
            let _ = writeln!(csv, "{},{},{p},dp,1.0", machine.name, bench.name());
            let _ = writeln!(
                csv,
                "{},{},{p},expert,{expert_speedup:.4}",
                machine.name,
                bench.name()
            );

            let mut ff_speedup = None;
            let ff_cell = match &point.relaxed {
                None => "-".to_string(),
                Some(space) => {
                    let ff = flexflow_strategy(
                        bench,
                        graph,
                        space,
                        &topo,
                        &McmcOptions {
                            max_iters: args.mcmc_iters,
                            max_time: Duration::from_secs(300),
                            ..Default::default()
                        },
                    );
                    let s = simulate_step(graph, &ff.strategy, &topo, &sim_opts).throughput
                        / dp_rep.throughput;
                    ff_speedup = Some(s);
                    format!("{s:.2}x")
                }
            };
            if let Some(s) = ff_speedup {
                let _ = writeln!(csv, "{},{},{p},flexflow,{s:.4}", machine.name, bench.name());
            }

            let tables = standard_tables_with_space(graph, p, machine, &point.standard);
            let (_, ours) = pase_strategy(graph, &tables);
            let (ours_cell, mem_cell) = match ours {
                Some(s) => {
                    let rep = simulate_step(graph, &s, &topo, &sim_opts);
                    let _ = writeln!(
                        csv,
                        "{},{},{p},pase,{:.4}",
                        machine.name,
                        bench.name(),
                        rep.throughput / dp_rep.throughput
                    );
                    (
                        format!("{:.2}x", rep.throughput / dp_rep.throughput),
                        format!(
                            "{:.0} MiB",
                            memory_per_device(graph, &s, &topo) / (1 << 20) as f64
                        ),
                    )
                }
                None => ("fail".to_string(), "-".to_string()),
            };

            println!(
                "{:<12} {:>4} {:>10} {:>9.2}x {:>10} {:>10}   {:>12} {:>10}",
                bench.name(),
                p,
                "1.00x",
                expert_speedup,
                ff_cell,
                ours_cell,
                format!(
                    "{:.0} MiB",
                    memory_per_device(graph, &dp, &topo) / (1 << 20) as f64
                ),
                mem_cell,
            );
        }
        println!();
    }
    if let Some(path) = &args.csv {
        std::fs::write(path, csv).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote CSV series to {path}");
    }
}
