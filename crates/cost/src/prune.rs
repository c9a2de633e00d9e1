//! Exact dominance pruning of the per-vertex configuration space.
//!
//! FindBestStrategy's complexity is `O(|V|² K^{M+1})` (§III-B): the
//! per-vertex configuration count `K` is the multiplicative lever on both
//! table sizes and fill work. Once [`CostTables`] are built, *every* cost
//! the DP will ever read is materialized, so configurations that can never
//! appear in an optimal strategy are decidable locally:
//!
//! > configuration `c` of vertex `v` is **dominated** by `c'` when
//! > `layer_cost(v, c') ≤ layer_cost(v, c)` and, for every edge incident to
//! > `v` and every configuration `d` of the neighbor,
//! > `edge_cost(c', d) ≤ edge_cost(c, d)` (row-wise for out-edges,
//! > column-wise for in-edges).
//!
//! ## Exactness
//!
//! Take any strategy `φ` with `φ(v) = c` where `c` is dominated by a kept
//! `c'`. Substituting `c'` for `c` changes only `v`'s layer term and `v`'s
//! incident edge terms, each of which is replaced by a `≤` value *whatever
//! the neighbors' configurations are* — including after the neighbors are
//! themselves pruned, since dominance is established against the neighbors'
//! full configuration lists. `F(G, φ') ≤ F(G, φ)` follows term-wise, and
//! because float addition is monotone in each argument it holds in f64
//! arithmetic too, not just over the reals. Applying the substitution to
//! every pruned vertex of an optimal strategy yields a strategy inside the
//! pruned space of no greater cost, so
//! `min over pruned space = min over full space` — bit-identical, as the
//! DP's sums are over the very same table entries.
//!
//! Candidates are scanned in `(layer cost, id)` order and each is kept
//! unless an *already-kept* candidate dominates it, so every pruned
//! configuration has a kept dominator and no `C(v)` ever becomes empty.
//!
//! ## ε-approximate mode
//!
//! With `epsilon > 0` the comparison relaxes to
//! `cost(c') ≤ (1 + ε) · cost(c)` per entry. This prunes more at very large
//! `p` but is **not exact**: each substitution can lose up to a `(1 + ε)`
//! factor per cost term, so the returned optimum is only guaranteed within
//! `(1 + ε)` of the true one. Exact mode (`ε = 0`) is the default.
//!
//! ## Sharing
//!
//! The dominance outcome for a vertex depends only on its layer-cost table
//! and its incident edge tables with orientation — i.e. on the vertex's
//! *pruning signature* `(layer class, sorted {(edge class, is-source)})`.
//! Structurally repeated vertices (InceptionV3 blocks, Transformer layers)
//! share signatures, so the per-signature dominance checks run once each,
//! rayon-parallel, and the compacted pool stays interned by signature.

use crate::tables::{CostTables, EdgeTable, LayerEntry, NonFiniteCost};
use pase_graph::{Graph, NodeId};
use pase_obs::{phase, span_in, OptSpan, Trace};
use rayon::prelude::*;
use rustc_hash::FxHashMap;
use std::time::{Duration, Instant};

/// How [`PrunedTables::build`] prunes.
#[derive(Clone, Copy, Debug)]
pub struct PruneOptions {
    /// Dominance slack: `c'` dominates `c` when every cost entry satisfies
    /// `cost(c') ≤ (1 + epsilon) · cost(c)`. `0.0` (the default) is exact —
    /// the pruned optimum is bit-identical to the unpruned one. Positive
    /// values prune harder but only bound the optimum within `(1 + ε)`.
    pub epsilon: f64,
    /// Also require `memory_bytes(c') ≤ memory_bytes(c)` for `c'` to
    /// dominate `c` (always exact on the memory coordinate — ε applies to
    /// costs only). The frontier search needs this: a time-dominator with
    /// *more* memory could prune away a Pareto point. The memory-aware
    /// keep set is a superset of the time-only one, so the scalar min-time
    /// optimum stays bit-identical under either setting.
    pub memory_aware: bool,
}

impl Default for PruneOptions {
    fn default() -> Self {
        Self {
            epsilon: 0.0,
            memory_aware: false,
        }
    }
}

/// What a pruning pass removed (see [`PrunedTables::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PruneStats {
    /// `K = max_v |C(v)|` before pruning.
    pub k_before: usize,
    /// `K` after pruning.
    pub k_after: usize,
    /// `Σ_v |C(v)|` before pruning.
    pub configs_before: u64,
    /// `Σ_v |C(v)|` after pruning.
    pub configs_after: u64,
    /// Vertices that lost at least one configuration.
    pub nodes_pruned: usize,
    /// Wall-clock time of the pruning pass.
    pub elapsed: Duration,
}

impl PruneStats {
    /// Fraction of all configurations removed, `0.0` for an empty graph.
    pub fn pruned_fraction(&self) -> f64 {
        if self.configs_before == 0 {
            return 0.0;
        }
        1.0 - self.configs_after as f64 / self.configs_before as f64
    }
}

/// A dominance-pruned view of a [`CostTables`]: compacted configuration
/// lists, layer vectors, and edge matrices, plus the id back-mapping needed
/// to express search results in the original configuration space.
#[derive(Clone, Debug)]
pub struct PrunedTables {
    tables: CostTables,
    /// Per node: pruned local id → original local id (sorted ascending).
    keep: Vec<Vec<u16>>,
    stats: PruneStats,
}

/// A vertex's pruning signature: everything the dominance decision reads.
/// Vertices with equal signatures provably share a keep set.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Signature {
    layer_class: u32,
    /// Sorted, deduplicated incident `(edge class, vertex-is-source)`
    /// pairs. Duplicates impose the same constraint twice, so deduping is
    /// harmless and saves work.
    edges: Vec<(u32, bool)>,
}

/// Compute the kept (non-dominated) configuration ids for one signature.
/// `edge_views` pairs each incident edge table with the orientation flag.
fn keep_set(
    layer: &LayerEntry,
    edge_views: &[(&EdgeTable, bool)],
    epsilon: f64,
    memory_aware: bool,
) -> Vec<u16> {
    let k = layer.configs.len();
    if k <= 1 {
        return (0..k as u16).collect();
    }
    let t = 1.0 + epsilon;

    // Candidates in (layer cost, id) order: any dominator of `c` has layer
    // cost ≤ (1+ε)·layer(c), and scanning cheapest-first lets the kept
    // list double as the only dominator pool we ever need to consult.
    let mut order: Vec<u16> = (0..k as u16).collect();
    order.sort_by(|&a, &b| {
        layer.costs[a as usize]
            .total_cmp(&layer.costs[b as usize])
            .then(a.cmp(&b))
    });

    // Row/column dominance of candidate `a` over `b` on one edge view.
    let edge_dominates = |a: usize, b: usize, view: &(&EdgeTable, bool)| -> bool {
        let (table, is_src) = *view;
        let kd = table.k_dst as usize;
        if is_src {
            let ra = &table.costs[a * kd..(a + 1) * kd];
            let rb = &table.costs[b * kd..(b + 1) * kd];
            ra.iter().zip(rb).all(|(x, y)| *x <= t * *y)
        } else {
            let rows = table.costs.len() / kd;
            (0..rows).all(|r| table.costs[r * kd + a] <= t * table.costs[r * kd + b])
        }
    };

    let mut kept: Vec<u16> = Vec::with_capacity(k);
    for &c in &order {
        let dominated = kept.iter().any(|&c2| {
            layer.costs[c2 as usize] <= t * layer.costs[c as usize]
                && (!memory_aware || layer.mem[c2 as usize] <= layer.mem[c as usize])
                && edge_views
                    .iter()
                    .all(|view| edge_dominates(c2 as usize, c as usize, view))
        });
        if !dominated {
            kept.push(c);
        }
    }
    kept.sort_unstable();
    kept
}

/// Estimate the cost-comparison count a [`PrunedTables::build`] over these
/// tables would pay, for the adaptive prune gate: per distinct pruning
/// signature, the worst-case dominance scan is `k²` candidate pairs, each
/// comparing one layer cost plus every entry of every incident edge view
/// (`k_dst` per out-edge row, `k_src` per in-edge column). This
/// deliberately re-runs only the cheap `O(|V| + |E|)` signature-grouping
/// pass — never the scans themselves — so the gate's overhead stays
/// negligible against either branch of its decision. Saturating, for the
/// same reason the DP estimate saturates: enormous estimates only ever
/// compare against other enormous numbers.
pub fn estimate_prune_work(graph: &Graph, tables: &CostTables) -> u64 {
    let mut seen: FxHashMap<Signature, ()> = FxHashMap::default();
    let mut total: u64 = 0;
    for v in graph.node_ids() {
        let mut edges: Vec<(u32, bool)> = graph
            .out_edges(v)
            .iter()
            .map(|&e| (tables.edge_class[e.index()], true))
            .chain(
                graph
                    .in_edges(v)
                    .iter()
                    .map(|&e| (tables.edge_class[e.index()], false)),
            )
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let sig = Signature {
            layer_class: tables.node_class[v.index()],
            edges,
        };
        if seen.contains_key(&sig) {
            continue;
        }
        let k = tables.layer_pool[sig.layer_class as usize].configs.len() as u64;
        let mut per_pair: u64 = 1; // the layer-cost comparison
        for &(ec, is_src) in &sig.edges {
            let table = &tables.edge_pool[ec as usize];
            let kd = table.k_dst as usize;
            let len = if is_src {
                kd
            } else {
                table.costs.len() / kd.max(1)
            };
            per_pair = per_pair.saturating_add(len as u64);
        }
        total = total.saturating_add(k.saturating_mul(k).saturating_mul(per_pair));
        seen.insert(sig, ());
    }
    total
}

impl PrunedTables {
    /// Prune `tables` (built for `graph`) by exact dominance — or
    /// ε-approximate dominance when `opts.epsilon > 0` — and compact the
    /// surviving configurations into a standalone [`CostTables`] the search
    /// engines consume unchanged.
    pub fn build(graph: &Graph, tables: &CostTables, opts: &PruneOptions) -> Self {
        Self::build_traced(graph, tables, opts, None)
    }

    /// [`PrunedTables::build`], recording a `prune` phase span (with
    /// before/after configuration counts) into `trace` when one is given.
    /// The produced tables are identical with and without a trace.
    pub fn build_traced(
        graph: &Graph,
        tables: &CostTables,
        opts: &PruneOptions,
        trace: Option<&Trace>,
    ) -> Self {
        let mut span = span_in(trace, phase::PRUNE);
        let start = Instant::now();
        let n = graph.len();

        // Group vertices by pruning signature.
        let mut sig_of_node: Vec<u32> = Vec::with_capacity(n);
        let mut sigs: Vec<Signature> = Vec::new();
        {
            let mut seen: FxHashMap<Signature, u32> = FxHashMap::default();
            for v in graph.node_ids() {
                let mut edges: Vec<(u32, bool)> = graph
                    .out_edges(v)
                    .iter()
                    .map(|&e| (tables.edge_class[e.index()], true))
                    .chain(
                        graph
                            .in_edges(v)
                            .iter()
                            .map(|&e| (tables.edge_class[e.index()], false)),
                    )
                    .collect();
                edges.sort_unstable();
                edges.dedup();
                let sig = Signature {
                    layer_class: tables.node_class[v.index()],
                    edges,
                };
                let next = sigs.len() as u32;
                let id = *seen.entry(sig.clone()).or_insert_with(|| {
                    sigs.push(sig);
                    next
                });
                sig_of_node.push(id);
            }
        }

        // One dominance pass per distinct signature.
        let compute = |sig: &Signature| -> Vec<u16> {
            let layer = &tables.layer_pool[sig.layer_class as usize];
            let views: Vec<(&EdgeTable, bool)> = sig
                .edges
                .iter()
                .map(|&(ec, is_src)| (&tables.edge_pool[ec as usize], is_src))
                .collect();
            keep_set(layer, &views, opts.epsilon, opts.memory_aware)
        };
        let keep_of_sig: Vec<Vec<u16>> = (0..sigs.len())
            .into_par_iter()
            .map(|i| compute(&sigs[i]))
            .collect();

        // Compact the layer pool: one entry per signature (signatures
        // refine the structural node classes, so interning survives).
        let layer_pool: Vec<LayerEntry> = sigs
            .iter()
            .zip(&keep_of_sig)
            .map(|(sig, kept)| {
                let src = &tables.layer_pool[sig.layer_class as usize];
                LayerEntry {
                    configs: kept.iter().map(|&c| src.configs[c as usize]).collect(),
                    costs: kept.iter().map(|&c| src.costs[c as usize]).collect(),
                    mem: kept.iter().map(|&c| src.mem[c as usize]).collect(),
                }
            })
            .collect();
        let node_class: Vec<u32> = sig_of_node.clone();

        // Compact the edge pool, re-interned by (original edge class,
        // endpoint signatures) — equal keys select identical sub-matrices.
        let mut edge_class: Vec<u32> = Vec::with_capacity(graph.edge_count());
        let mut edge_pool: Vec<EdgeTable> = Vec::new();
        {
            let mut seen: FxHashMap<(u32, u32, u32), u32> = FxHashMap::default();
            for e in graph.edges() {
                let old = tables.edge_class[edge_class.len()];
                let (su, sv) = (sig_of_node[e.src.index()], sig_of_node[e.dst.index()]);
                let next = edge_pool.len() as u32;
                let id = *seen.entry((old, su, sv)).or_insert_with(|| {
                    let src_table = &tables.edge_pool[old as usize];
                    let kd_old = src_table.k_dst as usize;
                    let (ku_keep, kv_keep) = (&keep_of_sig[su as usize], &keep_of_sig[sv as usize]);
                    let mut costs = Vec::with_capacity(ku_keep.len() * kv_keep.len());
                    for &cu in ku_keep {
                        let row = &src_table.costs[cu as usize * kd_old..][..kd_old];
                        for &cv in kv_keep {
                            costs.push(row[cv as usize]);
                        }
                    }
                    edge_pool.push(EdgeTable {
                        k_dst: kv_keep.len() as u32,
                        costs,
                    });
                    next
                });
                edge_class.push(id);
            }
        }

        let keep: Vec<Vec<u16>> = sig_of_node
            .iter()
            .map(|&s| keep_of_sig[s as usize].clone())
            .collect();

        let stats = PruneStats {
            k_before: tables.max_k(),
            k_after: layer_pool
                .iter()
                .map(|e| e.configs.len())
                .max()
                .unwrap_or(0),
            configs_before: graph.node_ids().map(|v| tables.k(v) as u64).sum(),
            configs_after: keep.iter().map(|k| k.len() as u64).sum(),
            nodes_pruned: graph
                .node_ids()
                .filter(|&v| keep[v.index()].len() < tables.k(v))
                .count(),
            elapsed: start.elapsed(),
        };
        span.arg("k_before", stats.k_before);
        span.arg("k_after", stats.k_after);
        span.arg("configs_before", stats.configs_before);
        span.arg("configs_after", stats.configs_after);
        span.arg("nodes_pruned", stats.nodes_pruned);
        drop(span);

        // The compacted pools hold a subset of the source entries.
        let non_finite = tables
            .non_finite
            .as_ref()
            .and_then(|_| NonFiniteCost::scan(&layer_pool, &edge_pool))
            .map(Box::new);
        Self {
            tables: CostTables {
                rule: tables.rule,
                r: tables.r,
                mesh: tables.mesh.clone(),
                node_class,
                layer_pool,
                edge_class,
                edge_pool,
                intern_attempted: tables.intern_attempted,
                non_finite,
            },
            keep,
            stats,
        }
    }

    /// The compacted cost tables over the surviving configurations. Every
    /// search engine (the `Search` DP, `brute_force`, `optcnn_search`)
    /// consumes this exactly like an unpruned build — table sizes, and with
    /// them the DP's `K^{M+1}` budget accounting, shrink multiplicatively.
    pub fn tables(&self) -> &CostTables {
        &self.tables
    }

    /// What the pass removed and how long it took.
    pub fn stats(&self) -> &PruneStats {
        &self.stats
    }

    /// Surviving original configuration ids of node `v`, ascending.
    pub fn kept_ids(&self, v: NodeId) -> &[u16] {
        &self.keep[v.index()]
    }

    /// Map per-node configuration ids of the *pruned* space back to ids of
    /// the original [`CostTables`] the pruning ran on.
    pub fn to_original_ids(&self, ids: &[u16]) -> Vec<u16> {
        assert_eq!(ids.len(), self.keep.len());
        ids.iter()
            .enumerate()
            .map(|(v, &c)| self.keep[v][c as usize])
            .collect()
    }

    /// Map original-space configuration ids into the pruned space; `None`
    /// if any id was pruned away.
    pub fn to_pruned_ids(&self, ids: &[u16]) -> Option<Vec<u16>> {
        if ids.len() != self.keep.len() {
            return None;
        }
        ids.iter()
            .enumerate()
            .map(|(v, &c)| self.keep[v].binary_search(&c).ok().map(|i| i as u16))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigRule;
    use crate::machine::MachineSpec;
    use pase_graph::{DimRole, GraphBuilder, IterDim, Node, OpKind, TensorRef};

    fn fc(name: &str, ins: usize, b: u64, n: u64, c: u64) -> Node {
        Node {
            name: name.into(),
            op: OpKind::FullyConnected,
            iter_space: vec![
                IterDim::new("b", b, DimRole::Batch),
                IterDim::new("n", n, DimRole::Param),
                IterDim::new("c", c, DimRole::Reduction),
            ],
            inputs: (0..ins)
                .map(|_| TensorRef::new(vec![0, 2], vec![b, c]))
                .collect(),
            output: TensorRef::new(vec![0, 1], vec![b, n]),
            params: vec![TensorRef::new(vec![1, 2], vec![n, c])],
        }
    }

    fn chain(k: usize, p: u32) -> (pase_graph::Graph, CostTables) {
        let mut bld = GraphBuilder::new();
        let ids: Vec<_> = (0..k)
            .map(|i| bld.add_node(fc(&format!("fc{i}"), usize::from(i > 0), 64, 128, 256)))
            .collect();
        for w in ids.windows(2) {
            bld.connect(w[0], w[1]);
        }
        let g = bld.build().unwrap();
        let t = CostTables::build(&g, ConfigRule::new(p), &MachineSpec::test_machine());
        (g, t)
    }

    #[test]
    fn pruning_never_empties_a_config_list() {
        for p in [2u32, 4, 8, 16, 32] {
            let (g, t) = chain(4, p);
            let pruned = PrunedTables::build(&g, &t, &PruneOptions::default());
            for v in g.node_ids() {
                assert!(
                    pruned.tables().k(v) >= 1,
                    "p = {p}: C({v}) emptied by pruning"
                );
                assert!(pruned.tables().k(v) <= t.k(v));
            }
        }
    }

    #[test]
    fn kept_entries_match_the_original_tables() {
        let (g, t) = chain(3, 8);
        let pruned = PrunedTables::build(&g, &t, &PruneOptions::default());
        let pt = pruned.tables();
        for v in g.node_ids() {
            for (new_id, &orig_id) in pruned.kept_ids(v).iter().enumerate() {
                assert_eq!(
                    pt.config(v, new_id as u16),
                    t.config(v, orig_id),
                    "config mismatch at {v}"
                );
                assert_eq!(
                    pt.layer_cost(v, new_id as u16).to_bits(),
                    t.layer_cost(v, orig_id).to_bits()
                );
            }
        }
        for (i, e) in g.edges().iter().enumerate() {
            let eid = pase_graph::EdgeId(i as u32);
            for (nu, &ou) in pruned.kept_ids(e.src).iter().enumerate() {
                for (nv, &ov) in pruned.kept_ids(e.dst).iter().enumerate() {
                    assert_eq!(
                        pt.edge_cost(eid, nu as u16, nv as u16).to_bits(),
                        t.edge_cost(eid, ou, ov).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn every_pruned_config_has_a_kept_dominator() {
        let (g, t) = chain(3, 16);
        let pruned = PrunedTables::build(&g, &t, &PruneOptions::default());
        for v in g.node_ids() {
            let kept = pruned.kept_ids(v);
            'outer: for c in 0..t.k(v) as u16 {
                if kept.binary_search(&c).is_ok() {
                    continue;
                }
                for &c2 in kept {
                    let layer_ok = t.layer_cost(v, c2) <= t.layer_cost(v, c);
                    let edges_ok = g.out_edges(v).iter().all(|&e| {
                        (0..t.k(g.edge(e).dst) as u16)
                            .all(|d| t.edge_cost(e, c2, d) <= t.edge_cost(e, c, d))
                    }) && g.in_edges(v).iter().all(|&e| {
                        (0..t.k(g.edge(e).src) as u16)
                            .all(|d| t.edge_cost(e, d, c2) <= t.edge_cost(e, d, c))
                    });
                    if layer_ok && edges_ok {
                        continue 'outer;
                    }
                }
                panic!("pruned config {c} of {v} has no kept dominator");
            }
        }
    }

    #[test]
    fn isolated_node_keeps_exactly_the_cheapest_configs() {
        // With no edges, dominance degenerates to the layer cost: only the
        // minimum-cost configurations survive.
        let mut bld = GraphBuilder::new();
        bld.add_node(fc("solo", 0, 64, 128, 256));
        let g = bld.build().unwrap();
        let t = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
        let pruned = PrunedTables::build(&g, &t, &PruneOptions::default());
        let v = NodeId(0);
        let min = (0..t.k(v) as u16)
            .map(|c| t.layer_cost(v, c))
            .fold(f64::INFINITY, f64::min);
        assert!(pruned.tables().k(v) >= 1);
        for c in 0..pruned.tables().k(v) as u16 {
            assert_eq!(pruned.tables().layer_cost(v, c), min);
        }
    }

    #[test]
    fn id_mappings_roundtrip() {
        let (g, t) = chain(3, 8);
        let pruned = PrunedTables::build(&g, &t, &PruneOptions::default());
        let ids: Vec<u16> = g
            .node_ids()
            .map(|v| (pruned.tables().k(v) - 1) as u16)
            .collect();
        let orig = pruned.to_original_ids(&ids);
        assert_eq!(pruned.to_pruned_ids(&orig), Some(ids.clone()));
        // Costs agree through the mapping.
        assert_eq!(
            pruned.tables().evaluate_ids(&g, &ids).to_bits(),
            t.evaluate_ids(&g, &orig).to_bits()
        );
    }

    #[test]
    fn epsilon_prunes_at_least_as_much_as_exact() {
        let (g, t) = chain(4, 32);
        let exact = PrunedTables::build(&g, &t, &PruneOptions::default());
        let approx = PrunedTables::build(
            &g,
            &t,
            &PruneOptions {
                epsilon: 0.05,
                ..PruneOptions::default()
            },
        );
        assert!(approx.stats().configs_after <= exact.stats().configs_after);
        for v in g.node_ids() {
            assert!(approx.tables().k(v) >= 1);
        }
    }

    #[test]
    fn parallel_and_sequential_pruning_agree() {
        let (g, t) = chain(5, 16);
        let with_threads = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("thread pool")
                .install(|| PrunedTables::build(&g, &t, &PruneOptions::default()))
        };
        let seq = with_threads(1);
        let par = with_threads(4);
        for v in g.node_ids() {
            assert_eq!(par.kept_ids(v), seq.kept_ids(v));
        }
    }

    #[test]
    fn memory_aware_keep_set_is_a_superset_of_the_time_only_one() {
        // Every time-only keep decision must survive when the memory
        // coordinate is added (the extra condition can only *block*
        // dominations, never create new ones) — this is the superset
        // property the frontier-exactness argument rests on.
        for p in [8u32, 16, 32] {
            let (g, t) = chain(4, p);
            let plain = PrunedTables::build(&g, &t, &PruneOptions::default());
            let mem = PrunedTables::build(
                &g,
                &t,
                &PruneOptions {
                    memory_aware: true,
                    ..PruneOptions::default()
                },
            );
            for v in g.node_ids() {
                for c in plain.kept_ids(v) {
                    assert!(
                        mem.kept_ids(v).binary_search(c).is_ok(),
                        "p = {p}: time-only keeper {c} of {v} dropped by memory-aware prune"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_account_for_the_removal() {
        let (g, t) = chain(4, 16);
        let pruned = PrunedTables::build(&g, &t, &PruneOptions::default());
        let s = pruned.stats();
        assert_eq!(s.k_before, t.max_k());
        assert_eq!(s.k_after, pruned.tables().max_k());
        assert!(s.k_after <= s.k_before);
        assert_eq!(
            s.configs_before,
            g.node_ids().map(|v| t.k(v) as u64).sum::<u64>()
        );
        assert_eq!(
            s.configs_after,
            g.node_ids()
                .map(|v| pruned.tables().k(v) as u64)
                .sum::<u64>()
        );
        assert!(s.pruned_fraction() >= 0.0 && s.pruned_fraction() < 1.0);
    }
}
