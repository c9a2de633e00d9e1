//! Bit-identity of the cost-table fill against the per-entry cost model.
//!
//! `CostTables` fills its layer vectors and edge matrices with a factored
//! loop that hoists per-configuration work out of the per-entry model.
//! Every entry must still equal the per-entry functions exactly:
//! `mesh_layer_cost` and `config_memory_bytes` for layer entries,
//! `mesh_transfer_cost` for edge entries, compared with `to_bits()`.
//!
//! Covered: every zoo model at p ∈ {8, 32} on four meshes (flat GTX 1080
//! Ti, flat RTX 2080 Ti, the two-tier 8×4 cluster and a three-tier
//! heterogeneous mesh), under the default rule, `allow_idle()`,
//! `with_max_split(4)` and a memory limit, interned and uninterned; plus a
//! property test over random graphs and configuration spaces. The p = 64
//! sweep (and InceptionV3 p = 32) is `#[ignore]`d and runs in release:
//! `cargo test -q --release --test table_parity -- --include-ignored`.

use pase::cost::{
    config_memory_bytes, enumerate_configs, layer_footprint_bytes, mesh_layer_cost,
    mesh_transfer_cost, Config, ConfigRule, ConfigSpace, CostTables, DeviceMesh, MachineSpec,
    MeshAxis, TableOptions, MAX_RANK,
};
use pase::graph::{DimRole, EdgeId, Graph, GraphBuilder, IterDim, Node, NodeId, OpKind, TensorRef};
use pase::models::{build_named, MODEL_NAMES};
use proptest::prelude::*;
use std::collections::HashMap;

/// The three-tier heterogeneous mesh of the tier-1 mesh smoke.
fn hetero() -> DeviceMesh {
    DeviceMesh::from_json_str(
        r#"{"name": "hetero", "axes": [
          {"name": "gpu",  "size": 2, "alpha": 5e-6,  "bandwidth": 12.0e9, "peak_flops": 11.3e12},
          {"name": "node", "size": 2, "alpha": 15e-6, "bandwidth": 6.0e9,  "peak_flops": 13.4e12},
          {"name": "rack", "size": 2, "alpha": 30e-6, "bandwidth": 1.5e9,  "peak_flops": 11.3e12}]}"#,
    )
    .expect("hetero mesh parses")
}

fn meshes() -> Vec<(&'static str, DeviceMesh)> {
    vec![
        ("flat-1080ti", DeviceMesh::flat(&MachineSpec::gtx1080ti())),
        ("flat-2080ti", DeviceMesh::flat(&MachineSpec::rtx2080ti())),
        (
            "two-tier-8x4",
            DeviceMesh::cluster(&MachineSpec::gtx1080ti(), 4, 8),
        ),
        ("hetero-3-tier", hetero()),
    ]
}

/// A memory limit that excludes configurations but leaves every node at
/// least one: the largest over nodes of the smallest footprint.
fn tight_memory_limit(g: &Graph, p: u32) -> f64 {
    let rule = ConfigRule::new(p);
    g.nodes()
        .iter()
        .map(|n| {
            enumerate_configs(n, &rule)
                .iter()
                .map(|c| layer_footprint_bytes(n, c))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0, f64::max)
}

fn rules(g: &Graph, p: u32) -> Vec<(&'static str, ConfigRule)> {
    vec![
        ("default", ConfigRule::new(p)),
        ("allow_idle", ConfigRule::new(p).allow_idle()),
        ("max_split_4", ConfigRule::new(p).with_max_split(4)),
        (
            "memory_limit",
            ConfigRule::new(p).with_memory_limit(tight_memory_limit(g, p)),
        ),
    ]
}

fn interned() -> TableOptions {
    TableOptions {
        intern_min_nodes: 0,
    }
}

fn uninterned() -> TableOptions {
    TableOptions {
        intern_min_nodes: usize::MAX,
    }
}

/// Compare every entry of each of `builds` (same graph, rule and mesh)
/// with the per-entry model, bit for bit. The oracle runs once per entry
/// and is checked against every build.
fn assert_bit_identical(g: &Graph, mesh: &DeviceMesh, builds: &[&CostTables], label: &str) {
    let first = builds[0];
    for t in builds {
        for v in g.node_ids() {
            assert_eq!(
                t.configs_of(v),
                first.configs_of(v),
                "{label}: config lists"
            );
        }
    }
    for v in g.node_ids() {
        let n = g.node(v);
        for (c, cfg) in first.configs_of(v).iter().enumerate() {
            let cost = mesh_layer_cost(n, cfg, mesh).to_bits();
            let mem = config_memory_bytes(n, cfg);
            for t in builds {
                assert_eq!(
                    t.layer_cost(v, c as u16).to_bits(),
                    cost,
                    "{label}: layer '{}' {cfg}",
                    n.name
                );
                assert_eq!(
                    t.memory_bytes(v, c as u16),
                    mem,
                    "{label}: memory '{}' {cfg}",
                    n.name
                );
            }
        }
    }
    for (i, e) in g.edges().iter().enumerate() {
        let eid = EdgeId(i as u32);
        let (src, dst) = (g.node(e.src), g.node(e.dst));
        for (a, cu) in first.configs_of(e.src).iter().enumerate() {
            for (b, cv) in first.configs_of(e.dst).iter().enumerate() {
                let want =
                    mesh_transfer_cost(src, cu, dst, e.dst_slot as usize, cv, mesh).to_bits();
                for t in builds {
                    assert_eq!(
                        t.edge_cost(eid, a as u16, b as u16).to_bits(),
                        want,
                        "{label}: edge '{}' {cu} -> '{}' {cv}",
                        src.name,
                        dst.name
                    );
                }
            }
        }
    }
    for t in builds {
        assert!(t.check_finite().is_ok(), "{label}: finite tables rejected");
    }
}

/// Every mesh with the default rule, and every rule on the flat GTX 1080
/// Ti mesh; interned and uninterned each time.
fn check_model(name: &str, p: u32) {
    let g = build_named(name, p, false).expect("zoo model builds");
    let flat = DeviceMesh::flat(&MachineSpec::gtx1080ti());
    let mut cells: Vec<(String, ConfigRule, DeviceMesh)> = meshes()
        .into_iter()
        .map(|(m, mesh)| (format!("{name} p{p} default {m}"), ConfigRule::new(p), mesh))
        .collect();
    cells.extend(
        rules(&g, p)
            .into_iter()
            .skip(1)
            .map(|(r, rule)| (format!("{name} p{p} {r} flat-1080ti"), rule, flat.clone())),
    );
    for (label, rule, mesh) in cells {
        let a = CostTables::build_mesh(&g, rule, &mesh, &interned(), None);
        let b = CostTables::build_mesh(&g, rule, &mesh, &uninterned(), None);
        assert_bit_identical(&g, &mesh, &[&a, &b], &label);
    }
}

#[test]
fn zoo_tables_are_bit_identical_to_the_per_entry_model() {
    for name in MODEL_NAMES {
        for p in [8, 32] {
            // InceptionV3 p32 is the slowest oracle pass; the release
            // sweep below covers it.
            if name == "inception" && p == 32 {
                continue;
            }
            check_model(name, p);
        }
    }
}

#[test]
#[ignore = "release sweep: cargo test --release --test table_parity -- --include-ignored"]
fn zoo_tables_are_bit_identical_at_p64() {
    check_model("inception", 32);
    for name in MODEL_NAMES {
        check_model(name, 64);
    }
}

/// The oracle partition of structural interning: nodes share a class iff
/// their owned structural keys are equal, and after 32 hit-free probes the
/// remaining nodes each get a fresh class.
fn oracle_classes(g: &Graph) -> Vec<usize> {
    type OwnedKey = (String, Vec<IterDim>, usize, Vec<(Vec<u32>, Vec<u64>, u32)>);
    let key = |n: &Node| -> OwnedKey {
        (
            format!("{:?}", n.op),
            n.iter_space.clone(),
            n.inputs.len(),
            n.inputs
                .iter()
                .chain(std::iter::once(&n.output))
                .chain(&n.params)
                .map(|t| (t.dims.clone(), t.sizes.clone(), t.elem_bytes))
                .collect(),
        )
    };
    let mut seen: HashMap<OwnedKey, usize> = HashMap::new();
    let mut classes = Vec::new();
    let mut next = 0;
    for (i, n) in g.nodes().iter().enumerate() {
        if i >= 32 && next == i {
            classes.extend(next..g.len());
            break;
        }
        let class = *seen.entry(key(n)).or_insert_with(|| {
            next += 1;
            next - 1
        });
        classes.push(class);
    }
    classes
}

#[test]
fn interning_classes_match_owned_structural_keys_on_the_zoo() {
    for name in MODEL_NAMES {
        let g = build_named(name, 8, false).expect("zoo model builds");
        let t = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::gtx1080ti());
        let stats = t.intern_stats();
        if !stats.attempted {
            continue;
        }
        let want = oracle_classes(&g);
        // Two nodes share a class iff they share the class's cost row.
        let row = |v: usize| t.layer_cost_row(NodeId(v as u32)).as_ptr();
        for a in 0..g.len() {
            for b in a + 1..g.len() {
                assert_eq!(
                    row(a) == row(b),
                    want[a] == want[b],
                    "{name}: nodes {a} and {b}"
                );
            }
        }
        let unique_layers = want.iter().max().map_or(0, |&m| m + 1);
        assert_eq!(stats.unique_layer_tables, unique_layers, "{name}");
        let mut edge_keys: Vec<_> = g
            .edges()
            .iter()
            .map(|e| (want[e.src.index()], want[e.dst.index()], e.dst_slot))
            .collect();
        edge_keys.sort_unstable();
        edge_keys.dedup();
        assert_eq!(stats.unique_edge_tables, edge_keys.len(), "{name}");
        assert_eq!((stats.nodes, stats.edges), (g.len(), g.edge_count()));
    }
}

/// Reads small numbers off a proptest-generated pool, cycling.
struct Draw<'a> {
    pool: &'a [u32],
    at: usize,
}

impl Draw<'_> {
    fn below(&mut self, n: u32) -> u32 {
        let x = self.pool[self.at % self.pool.len()];
        self.at += 1;
        x % n.max(1)
    }
}

const NAMES: [&str; MAX_RANK] = ["b", "s", "e", "h", "k", "d", "l", "c"];
const ROLES: [DimRole; 5] = [
    DimRole::Batch,
    DimRole::Spatial,
    DimRole::Param,
    DimRole::Reduction,
    DimRole::Pipeline,
];

/// `len` distinct dims of a rank-`rank` space, in a drawn rotation.
fn tensor(d: &mut Draw, rank: usize, len: usize) -> TensorRef {
    let off = d.below(rank as u32) as usize;
    let dims = (0..len).map(|t| ((off + t) % rank) as u32).collect();
    let sizes = (0..len).map(|_| 1 + u64::from(d.below(96))).collect();
    TensorRef::new(dims, sizes)
}

/// A random chain-with-skips graph whose nodes share a rank-`rank`
/// iteration space; every edge tensor has a drawn rank up to `rank`.
fn random_graph(d: &mut Draw, rank: usize, nodes: usize) -> Graph {
    let out_ranks: Vec<usize> = (0..nodes)
        .map(|_| d.below(rank as u32 + 1) as usize)
        .collect();
    let producers: Vec<Vec<usize>> = (0..nodes)
        .map(|i| {
            let mut p: Vec<usize> = (0..i).filter(|_| d.below(3) == 0).collect();
            if i > 0 && p.is_empty() {
                p.push(i - 1);
            }
            p
        })
        .collect();
    let mut b = GraphBuilder::new();
    for i in 0..nodes {
        let op = match d.below(6) {
            0 => OpKind::FullyConnected,
            1 => OpKind::Conv2d {
                kernel_h: 3,
                kernel_w: 1 + d.below(3),
                stride: 1,
            },
            2 => OpKind::Lstm { layers: 2 },
            3 => OpKind::Attention,
            4 => OpKind::FeedForward,
            _ => OpKind::Elementwise {
                flops_per_point: 1.0 + f64::from(d.below(4)),
            },
        };
        let iter_space = (0..rank)
            .map(|k| {
                IterDim::new(
                    NAMES[k],
                    1 + u64::from(d.below(200)),
                    ROLES[d.below(5) as usize],
                )
            })
            .collect();
        let inputs = producers[i]
            .iter()
            .map(|&p| tensor(d, rank, out_ranks[p]))
            .collect();
        let output = tensor(d, rank, out_ranks[i]);
        let params = (0..d.below(3))
            .map(|_| {
                let len = 1 + d.below(rank as u32) as usize;
                tensor(d, rank, len)
            })
            .collect();
        b.add_node(Node {
            name: format!("n{i}"),
            op,
            iter_space,
            inputs,
            output,
            params,
        });
    }
    for (i, ps) in producers.iter().enumerate() {
        for &p in ps {
            b.connect(NodeId(p as u32), NodeId(i as u32));
        }
    }
    b.build().expect("random graph builds")
}

/// Random configurations with arbitrary (non-power-of-two) split factors;
/// the all-ones configuration is listed often, so aligned pairs move zero
/// bytes and exercise the latency branch's `bytes > 0` guard.
fn random_space(d: &mut Draw, g: &Graph) -> ConfigSpace {
    ConfigSpace::from_lists(
        g.nodes()
            .iter()
            .map(|n| {
                let k = 1 + d.below(5) as usize;
                (0..k)
                    .map(|_| {
                        if d.below(3) == 0 {
                            Config::ones(n.rank())
                        } else {
                            let f: Vec<u32> = (0..n.rank()).map(|_| 1 + d.below(9)).collect();
                            Config::new(&f)
                        }
                    })
                    .collect()
            })
            .collect(),
    )
}

/// A flat α = 0 mesh, or 1–3 drawn tiers (some with α = 0, some with
/// equal bandwidths so two spans share one bandwidth class).
fn random_mesh(d: &mut Draw) -> DeviceMesh {
    if d.below(3) == 0 {
        return DeviceMesh::flat(&MachineSpec::test_machine());
    }
    let axes = (0..1 + d.below(3))
        .map(|i| MeshAxis {
            name: format!("a{i}"),
            size: 1 + d.below(5),
            alpha: [0.0, 5e-6, 2e-5][d.below(3) as usize],
            bandwidth: [12.0e9, 6.0e9, 1.5e9][d.below(3) as usize],
            peak_flops: [11.3e12, 13.4e12][d.below(2) as usize],
        })
        .collect();
    let mesh = DeviceMesh {
        name: "random".into(),
        axes,
    };
    mesh.validate().expect("drawn mesh is valid");
    mesh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random ranks up to MAX_RANK, random tensor maps and split factors,
    /// random meshes: the fill agrees with the per-entry model bit for bit.
    #[test]
    fn random_spaces_are_bit_identical(
        rank in 1usize..=MAX_RANK,
        nodes in 2usize..6,
        pool in prop::collection::vec(0u32..10_000, 64..256),
    ) {
        let mut d = Draw { pool: &pool, at: 0 };
        let g = random_graph(&mut d, rank, nodes);
        let space = random_space(&mut d, &g);
        let mesh = random_mesh(&mut d);
        let rule = ConfigRule::new(8).allow_idle();
        let a = CostTables::build_mesh_with_space(&g, rule, &mesh, &space, &interned());
        let b = CostTables::build_mesh_with_space(&g, rule, &mesh, &space, &uninterned());
        assert_bit_identical(&g, &mesh, &[&a, &b], "random");
    }
}
