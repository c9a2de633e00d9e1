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
//! configuration has a kept dominator and no non-empty `C(v)` ever becomes
//! empty.
//!
//! ## ε-approximate mode
//!
//! With `epsilon > 0` the comparison relaxes to
//! `cost(c') ≤ (1 + ε) · cost(c)` per entry. This prunes more at very large
//! `p` but is **not exact**: each substitution can lose up to a `(1 + ε)`
//! factor per cost term, so the returned optimum is only guaranteed within
//! `(1 + ε)` of the true one. Exact mode (`ε = 0`) is the default.
//!
//! ## Speed
//!
//! A configuration's *profile* is the concatenation of its rows of the
//! incident out-edge tables and its columns of the incident in-edge
//! tables. Deciding whether a kept `c'` dominates a candidate `c` compares
//! the two profiles entry by entry, and most pairs agree on dozens of
//! entries before they fail. Two tests reject almost every such pair
//! first, without changing any decision:
//!
//! * **Zero pattern.** Each configuration gets a bitmask whose bit `j` is
//!   set when profile entry `j` is `≤ 0`. If `c'` dominates `c` then
//!   `mask(c) ⊆ mask(c')`: wherever `y = cost(c, j) ≤ 0`, dominance gives
//!   `x = cost(c', j) ≤ (1 + ε)·y`, and `(1 + ε)·y ≤ 0` because
//!   `1 + ε ≥ 0` (or the product is NaN and the comparison fails, so `c'`
//!   does not dominate at all). Zero entries are the layout-compatible
//!   pairs — a transfer of zero bytes — so the masks are structural: on
//!   the zoo models they reject 92–99.7% of the candidate pairs (InceptionV3
//!   p = 32 passes 1,452 of 449,236). The filter is skipped when `1 + ε`
//!   is negative or NaN, where the implication fails.
//! * **Witnesses.** The last few profile positions that refuted a kept
//!   configuration are re-tested before the full comparison; they tend to
//!   refute the next pair too.
//!
//! Both are necessary conditions of the full comparison, which still runs
//! on every pair they pass, so the keep sets are the ones the plain
//! pairwise scan produces. The masks take one row-major pass per incident
//! table: an out-edge row packs into whole words of one configuration's
//! mask, an in-edge row sets one bit in every configuration's mask. A pair
//! first compares the OR of each mask's words, one word that settles most
//! pairs before the masks themselves.
//!
//! ## Sharing
//!
//! The dominance outcome for a vertex depends only on its layer-cost table
//! and its incident edge tables with orientation — i.e. on the vertex's
//! *pruning signature* `(layer class, sorted {(edge class, is-source)})`.
//! Structurally repeated vertices (InceptionV3 blocks, Transformer layers)
//! share signatures, so the per-signature dominance checks run once each,
//! rayon-parallel. The compacted pools are interned by keep set: a layer
//! entry per `(layer class, keep set)` and an edge table per `(edge
//! class, source keep set, destination keep set)`. Edge storage is
//! reference-counted, so an edge whose endpoints both keep every
//! configuration shares the source matrix instead of copying it, and a
//! table whose destination keeps everything is compacted one row slice
//! at a time.

use crate::tables::{CostTables, EdgeTable, LayerEntry, NonFiniteCost};
use pase_graph::{EdgeId, Graph, NodeId};
use pase_obs::{phase, span_in, OptSpan, Trace};
use rayon::prelude::*;
use rustc_hash::FxHashMap;
use std::sync::Arc;
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
    /// Per compacted layer class: pruned local id → original local id
    /// (sorted ascending).
    keep: Vec<Vec<u16>>,
    stats: PruneStats,
}

/// A vertex's pruning signature: everything the dominance decision reads.
/// Vertices with equal signatures provably share a keep set. Packed as the
/// sorted, deduplicated incident `(edge class << 1) | vertex-is-source`
/// codes followed by the layer class, so a lookup can probe with a reused
/// buffer. Duplicate edges impose the same constraint twice, so deduping
/// is harmless and saves work.
type Signature = Box<[u64]>;

fn layer_class(sig: &[u64]) -> usize {
    sig[sig.len() - 1] as usize
}

/// The incident edge tables of a signature with their orientation
/// (`true` when the vertex is the edge's source).
fn sig_edges<'t>(
    sig: &'t [u64],
    tables: &'t CostTables,
) -> impl Iterator<Item = (&'t EdgeTable, bool)> + 't {
    sig[..sig.len() - 1]
        .iter()
        .map(|&code| (&tables.edge_pool[(code >> 1) as usize], code & 1 == 1))
}

/// Vertices grouped by pruning signature.
struct SignatureGroups {
    /// Node → index into `distinct`.
    of_node: Vec<u32>,
    distinct: Vec<Signature>,
}

/// Group the vertices of `graph` by pruning signature, in first-seen
/// order. One `O(|V| + |E|)` pass that allocates once per distinct
/// signature.
fn group_signatures(graph: &Graph, tables: &CostTables) -> SignatureGroups {
    let mut ids: FxHashMap<Signature, u32> = FxHashMap::default();
    let mut of_node = Vec::with_capacity(graph.len());
    let mut buf: Vec<u64> = Vec::new();
    let code = |e: &EdgeId, is_src: bool| {
        (u64::from(tables.edge_class[e.index()]) << 1) | u64::from(is_src)
    };
    for v in graph.node_ids() {
        buf.clear();
        buf.extend(graph.out_edges(v).iter().map(|e| code(e, true)));
        buf.extend(graph.in_edges(v).iter().map(|e| code(e, false)));
        buf.sort_unstable();
        buf.dedup();
        buf.push(u64::from(tables.node_class[v.index()]));
        let id = match ids.get(buf.as_slice()) {
            Some(&id) => id,
            None => {
                let id = ids.len() as u32;
                ids.insert(buf.as_slice().into(), id);
                id
            }
        };
        of_node.push(id);
    }
    let mut distinct = vec![Signature::default(); ids.len()];
    for (sig, id) in ids {
        distinct[id as usize] = sig;
    }
    SignatureGroups { of_node, distinct }
}

/// The dominance test on one cost entry: `x` (the dominator's) against
/// `y` (the candidate's) under slack `t = 1 + ε`.
#[inline]
fn entry_dominates(x: f64, y: f64, t: f64) -> bool {
    x <= t * y
}

/// One incident edge table as the pruned vertex sees it: configuration
/// `c`'s profile segment is row `c` of `costs` for an out-edge, column `c`
/// for an in-edge. `stride` is the table's `k_dst`; `len` the segment
/// length (the neighbor's configuration count).
struct View<'t> {
    costs: &'t [f64],
    stride: usize,
    len: usize,
    is_src: bool,
}

impl View<'_> {
    #[inline]
    fn at(&self, c: usize, j: usize) -> f64 {
        if self.is_src {
            self.costs[c * self.stride + j]
        } else {
            self.costs[j * self.stride + c]
        }
    }

    /// The first position where `a`'s segment fails to dominate `b`'s.
    fn first_violation(&self, a: usize, b: usize, t: f64) -> Option<usize> {
        if self.is_src {
            let ra = &self.costs[a * self.stride..][..self.len];
            let rb = &self.costs[b * self.stride..][..self.len];
            ra.iter()
                .zip(rb)
                .position(|(&x, &y)| !entry_dominates(x, y, t))
        } else {
            let col = |c: usize| self.costs.iter().skip(c).step_by(self.stride);
            col(a)
                .zip(col(b))
                .position(|(&x, &y)| !entry_dominates(x, y, t))
        }
    }
}

/// Zero-pattern masks of `k` configurations over `views`: bit `j` of
/// configuration `c` is set when entry `j` of its profile is `≤ 0`.
/// Returns the masks, `words` u64s per configuration, and `words`; each
/// view's segment starts on a word boundary.
fn zero_masks(views: &[View], k: usize) -> (Vec<u64>, usize) {
    let words = views.iter().map(|v| v.len.div_ceil(64)).sum();
    // Built word-major (`planes[w * k + c]`) in one row-major pass per
    // table: an out-edge row packs into whole words of one
    // configuration, an in-edge row sets one bit of one plane across all
    // configurations. Then transposed to configuration-major.
    let mut planes = vec![0u64; k * words];
    let mut first_word = 0;
    for view in views {
        let rows = view.costs.chunks_exact(view.stride.max(1));
        if view.is_src {
            for (c, row) in rows.enumerate() {
                for (i, chunk) in row.chunks(64).enumerate() {
                    planes[(first_word + i) * k + c] = chunk
                        .iter()
                        .enumerate()
                        .fold(0, |w, (j, &x)| w | u64::from(x <= 0.0) << j);
                }
            }
        } else {
            for (r, row) in rows.enumerate() {
                let plane = &mut planes[(first_word + r / 64) * k..][..k];
                for (w, &x) in plane.iter_mut().zip(row) {
                    *w |= u64::from(x <= 0.0) << (r % 64);
                }
            }
        }
        first_word += view.len.div_ceil(64);
    }
    let masks = (0..k * words)
        .map(|i| planes[(i % words) * k + i / words])
        .collect();
    (masks, words)
}

/// How many refuting `(view, position)` entries a scan remembers.
const WITNESSES: usize = 4;

/// Compute the kept (non-dominated) configuration ids for one signature
/// over `layer` and its incident `edges` (see the module docs, "Speed").
fn keep_set<'t>(
    layer: &LayerEntry,
    edges: impl Iterator<Item = (&'t EdgeTable, bool)>,
    epsilon: f64,
    memory_aware: bool,
) -> Vec<u16> {
    let k = layer.configs.len();
    if k <= 1 {
        return (0..k as u16).collect();
    }
    let t = 1.0 + epsilon;
    // An in-edge's `k_dst` is this vertex's `k ≥ 2`, so the row count
    // below never divides by zero.
    let views: Vec<View> = edges
        .map(|(table, is_src)| {
            let stride = table.k_dst as usize;
            let len = if is_src {
                stride
            } else {
                table.costs.len() / stride
            };
            View {
                costs: &table.costs,
                stride,
                len,
                is_src,
            }
        })
        .collect();

    // The zero-pattern filter needs `1 + ε ≥ 0`; without it every mask is
    // empty and the subset tests pass vacuously.
    let (masks, words) = if t >= 0.0 {
        zero_masks(&views, k)
    } else {
        (Vec::new(), 0)
    };
    let mask = |c: usize| &masks[c * words..(c + 1) * words];
    // The OR of a configuration's mask words: `mask(c) ⊆ mask(c2)` implies
    // `fold(c) ⊆ fold(c2)`, a one-word test that settles most pairs.
    let fold = |c: usize| mask(c).iter().fold(0, |acc, m| acc | m);

    // Candidates in (layer cost, id) order: any dominator of `c` has layer
    // cost ≤ (1+ε)·layer(c), and scanning cheapest-first lets the kept
    // list double as the only dominator pool we ever need to consult.
    let mut order: Vec<u16> = (0..k as u16).collect();
    order.sort_by(|&a, &b| {
        layer.costs[a as usize]
            .total_cmp(&layer.costs[b as usize])
            .then(a.cmp(&b))
    });

    // Kept configurations with their folded masks.
    let mut kept: Vec<(u64, u16)> = Vec::with_capacity(k);
    let mut witnesses: Vec<(usize, usize)> = Vec::with_capacity(WITNESSES);
    for &c in &order {
        let c = c as usize;
        let folded = fold(c);
        let mut dominated = false;
        for &(folded2, c2) in &kept {
            let c2 = c2 as usize;
            if folded & !folded2 != 0
                || !entry_dominates(layer.costs[c2], layer.costs[c], t)
                || (memory_aware && layer.mem[c2] > layer.mem[c])
                || mask(c).iter().zip(mask(c2)).any(|(m, m2)| m & !m2 != 0)
                || witnesses
                    .iter()
                    .any(|&(v, j)| !entry_dominates(views[v].at(c2, j), views[v].at(c, j), t))
            {
                continue;
            }
            let refuted = views
                .iter()
                .enumerate()
                .find_map(|(v, view)| view.first_violation(c2, c, t).map(|j| (v, j)));
            match refuted {
                None => {
                    dominated = true;
                    break;
                }
                Some(w) => {
                    witnesses.truncate(WITNESSES - 1);
                    witnesses.insert(0, w);
                }
            }
        }
        if !dominated {
            kept.push((folded, c as u16));
        }
    }
    let mut kept: Vec<u16> = kept.into_iter().map(|(_, c)| c).collect();
    kept.sort_unstable();
    kept
}

/// The entries of `src` at the kept configurations.
fn compact_layer(src: &LayerEntry, kept: &[u16]) -> LayerEntry {
    LayerEntry {
        configs: kept.iter().map(|&c| src.configs[c as usize]).collect(),
        costs: kept.iter().map(|&c| src.costs[c as usize]).collect(),
        mem: kept.iter().map(|&c| src.mem[c as usize]).collect(),
    }
}

/// The sub-matrix of `src` at the kept rows and columns, each side given
/// with whether it keeps every configuration. Shares `src`'s storage when
/// both do and copies whole rows when the columns do.
fn compact_edge(
    src: &EdgeTable,
    (rows, all_rows): (&[u16], bool),
    (cols, all_cols): (&[u16], bool),
) -> EdgeTable {
    if all_rows && all_cols {
        return src.clone();
    }
    let kd = src.k_dst as usize;
    let mut costs = Vec::with_capacity(rows.len() * cols.len());
    for &r in rows {
        let row = &src.costs[r as usize * kd..][..kd];
        if all_cols {
            costs.extend_from_slice(row);
        } else {
            costs.extend(cols.iter().map(|&c| row[c as usize]));
        }
    }
    EdgeTable {
        k_dst: cols.len() as u32,
        costs: Arc::new(costs),
    }
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
        let groups = group_signatures(graph, tables);

        // One dominance pass per distinct signature.
        let sigs = &groups.distinct;
        let keep_of_sig: Vec<Vec<u16>> = (0..sigs.len())
            .into_par_iter()
            .map(|i| {
                keep_set(
                    &tables.layer_pool[layer_class(&sigs[i])],
                    sig_edges(&sigs[i], tables),
                    opts.epsilon,
                    opts.memory_aware,
                )
            })
            .collect();

        // Compact the layer pool: one entry per (layer class, keep set).
        // `full[class]` records whether the class kept every configuration.
        let mut layer_pool: Vec<LayerEntry> = Vec::new();
        let mut keep: Vec<Vec<u16>> = Vec::new();
        let mut full: Vec<bool> = Vec::new();
        let mut class_of_sig: Vec<u32> = Vec::with_capacity(sigs.len());
        {
            let mut ids: FxHashMap<(usize, &[u16]), u32> = FxHashMap::default();
            for (sig, kept) in sigs.iter().zip(&keep_of_sig) {
                let lc = layer_class(sig);
                let next = layer_pool.len() as u32;
                let id = *ids.entry((lc, kept)).or_insert_with(|| {
                    let src = &tables.layer_pool[lc];
                    layer_pool.push(compact_layer(src, kept));
                    keep.push(kept.clone());
                    full.push(kept.len() == src.configs.len());
                    next
                });
                class_of_sig.push(id);
            }
        }
        let node_class: Vec<u32> = groups
            .of_node
            .iter()
            .map(|&s| class_of_sig[s as usize])
            .collect();

        // Compact the edge pool, interned by (edge class, endpoint layer
        // classes): equal keys select identical sub-matrices.
        let mut edge_class: Vec<u32> = Vec::with_capacity(graph.edge_count());
        let mut edge_pool: Vec<EdgeTable> = Vec::new();
        {
            let mut ids: FxHashMap<(u32, u32, u32), u32> = FxHashMap::default();
            for (e, &old) in graph.edges().iter().zip(&tables.edge_class) {
                let (cu, cv) = (node_class[e.src.index()], node_class[e.dst.index()]);
                let next = edge_pool.len() as u32;
                let id = *ids.entry((old, cu, cv)).or_insert_with(|| {
                    let (cu, cv) = (cu as usize, cv as usize);
                    edge_pool.push(compact_edge(
                        &tables.edge_pool[old as usize],
                        (&keep[cu], full[cu]),
                        (&keep[cv], full[cv]),
                    ));
                    next
                });
                edge_class.push(id);
            }
        }

        let kept_of = |v: NodeId| keep[node_class[v.index()] as usize].len();
        let stats = PruneStats {
            k_before: tables.max_k(),
            k_after: layer_pool
                .iter()
                .map(|e| e.configs.len())
                .max()
                .unwrap_or(0),
            configs_before: graph.node_ids().map(|v| tables.k(v) as u64).sum(),
            configs_after: graph.node_ids().map(|v| kept_of(v) as u64).sum(),
            nodes_pruned: graph
                .node_ids()
                .filter(|&v| kept_of(v) < tables.k(v))
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
        &self.keep[self.tables.node_class[v.index()] as usize]
    }

    /// Map per-node configuration ids of the *pruned* space back to ids of
    /// the original [`CostTables`] the pruning ran on.
    pub fn to_original_ids(&self, ids: &[u16]) -> Vec<u16> {
        assert_eq!(ids.len(), self.tables.len());
        ids.iter()
            .enumerate()
            .map(|(v, &c)| self.kept_ids(NodeId(v as u32))[c as usize])
            .collect()
    }

    /// Map original-space configuration ids into the pruned space; `None`
    /// if any id was pruned away.
    pub fn to_pruned_ids(&self, ids: &[u16]) -> Option<Vec<u16>> {
        if ids.len() != self.tables.len() {
            return None;
        }
        ids.iter()
            .enumerate()
            .map(|(v, &c)| {
                self.kept_ids(NodeId(v as u32))
                    .binary_search(&c)
                    .ok()
                    .map(|i| i as u16)
            })
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

    /// A two-vertex chain with hand-set tables: node 0 has the layer costs
    /// `layer` and the out-edge rows `rows` (one entry each: node 1 keeps a
    /// single configuration).
    fn hand_tables(layer: [f64; 2], rows: [f64; 2]) -> (pase_graph::Graph, CostTables) {
        let (g, t) = chain(2, 8);
        let entry = |src: &LayerEntry, costs: Vec<f64>| LayerEntry {
            configs: src.configs[..costs.len()].to_vec(),
            mem: vec![0; costs.len()],
            costs,
        };
        let layer_pool = vec![
            entry(&t.layer_pool[t.node_class[0] as usize], layer.to_vec()),
            entry(&t.layer_pool[t.node_class[1] as usize], vec![0.0]),
        ];
        let edge = EdgeTable {
            k_dst: 1,
            costs: Arc::new(rows.to_vec()),
        };
        let t = CostTables {
            node_class: vec![0, 1],
            layer_pool,
            edge_class: vec![0],
            edge_pool: vec![edge],
            ..t
        };
        (g, t)
    }

    #[test]
    fn negative_slack_skips_the_zero_pattern_filter() {
        // With 1 + ε = -1, configuration 0 dominates 1: -1 ≤ -1·1 on the
        // layer and 1 ≤ -1·-1 on the edge, although only 1's edge entry
        // is ≤ 0. The zero-pattern implication needs 1 + ε ≥ 0.
        let (g, t) = hand_tables([-1.0, 1.0], [1.0, -1.0]);
        let opts = |epsilon| PruneOptions {
            epsilon,
            ..PruneOptions::default()
        };
        let pruned = PrunedTables::build(&g, &t, &opts(-2.0));
        assert_eq!(pruned.kept_ids(NodeId(0)), [0]);
        // At ε = 0 neither dominates the other.
        let pruned = PrunedTables::build(&g, &t, &opts(0.0));
        assert_eq!(pruned.kept_ids(NodeId(0)), [0, 1]);
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
