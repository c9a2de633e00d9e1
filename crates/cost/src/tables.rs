//! Precomputed cost tables.
//!
//! The dynamic program in `pase-core` evaluates `H_V(i, φ)` for an enormous
//! number of substrategies; every evaluation touches only per-node layer
//! costs and per-edge transfer costs. [`CostTables`] precomputes both —
//! `layer[v][c]` for every configuration `c ∈ C(v)` and
//! `edge[e][c_u][c_v]` for every configuration pair of an edge's endpoints —
//! so the search's inner loop is pure dense-array lookups.
//!
//! ## Structural interning
//!
//! DNN benchmark graphs repeat layer shapes heavily (InceptionV3 stacks the
//! same convolution/concat blocks, RNNLM unrolls one cell, Transformer
//! repeats identical encoder layers), and both `enumerate_configs` and the
//! cost formulas depend only on a node's *structure* — its op, iteration
//! space, and tensor maps — never on its name or identity. `build` therefore
//! keys layer tables by that structure (plus the shared [`ConfigRule`]) and
//! edge tables by `(producer class, consumer class, dst_slot)`, computes
//! each distinct table once (in parallel across distinct tables), and maps
//! nodes/edges to indices into the interned pools. Lookups stay `O(1)`;
//! results are bit-identical to an uninterned build because shared entries
//! are produced by the very same computation. The structural key borrows
//! the node's iteration space and tensors rather than copying them.
//!
//! ## The factored fill
//!
//! Each class is filled once, by `crate::fill`, without calling the
//! per-entry model per entry. A per-build `GroupTable` holds the mesh
//! rates per *span* (the outermost axis a group reaches). A layer class
//! costs every configuration in one allocation-free pass over its
//! communication events, reusing one bandwidth-class list. An edge class
//! hoists each side's per-dimension quotients `s_t / split` and span, and
//! each consumer's `need` product, so a pair costs a `min` and a multiply
//! per tensor dimension plus the rate and latency terms. Every f64
//! operation sees the operands and order of [`crate::mesh_layer_cost`],
//! [`crate::config_memory_bytes`] and [`crate::mesh_transfer_cost`], which
//! stay the per-entry API and the test oracle: every entry is
//! bit-identical to them (`tests/table_parity.rs`). The fill also records
//! the first non-finite entry, so [`CostTables::check_finite`] is `O(1)`.

use crate::config::{enumerate_configs, Config, ConfigRule};
use crate::fill::{fill_edge, fill_layer, first_non_finite, LayerFill, NonFinite};
use crate::machine::MachineSpec;
use crate::mesh::{DeviceMesh, GroupTable};
use crate::strategy::Strategy;
use pase_graph::{EdgeId, Graph, Node, NodeId, OpKind, TensorRef};
use pase_obs::{phase, span_in, OptSpan, Trace};
use rayon::prelude::*;
use rustc_hash::FxHashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// How [`CostTables::build_with`] constructs the tables.
#[derive(Clone, Copy, Debug)]
pub struct TableOptions {
    /// Share tables between structurally identical nodes/edges (always
    /// bit-identical to an uninterned build; disable only for A/B
    /// measurement).
    pub intern: bool,
    /// Smallest graph (node count) on which interning is attempted. On tiny
    /// graphs the structural-key hashing costs more than the table work it
    /// could share (AlexNet/RNNLM regress with 0% hit rate), so interning is
    /// skipped below this size. Set to 0 to always intern.
    pub intern_min_nodes: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        Self {
            intern: true,
            intern_min_nodes: 16,
        }
    }
}

/// After this many structural-key probes with zero pool hits, interning
/// gives up on the rest of the graph: a prefix this long with no repeated
/// structure predicts a heterogeneous graph where keying is pure overhead.
const INTERN_PROBE_LIMIT: usize = 32;

/// Interning effectiveness counters (see [`CostTables::intern_stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InternStats {
    /// Whether structural interning was attempted at all. `false` when the
    /// build disabled it (`TableOptions::intern = false`) or the
    /// `intern_min_nodes` size gate skipped it; `true` when keying ran,
    /// even if the probe limit later abandoned a hit-free prefix (that is
    /// a *measured* ~0% hit rate, not a skipped measurement).
    pub attempted: bool,
    /// Number of graph nodes covered.
    pub nodes: usize,
    /// Distinct layer tables actually computed.
    pub unique_layer_tables: usize,
    /// Number of graph edges covered.
    pub edges: usize,
    /// Distinct edge tables actually computed.
    pub unique_edge_tables: usize,
}

impl InternStats {
    /// Fraction of all tables (layer + edge) served from the intern pool
    /// instead of being computed: `1 − unique/total`. 0 for an uninterned
    /// build or an empty graph.
    pub fn hit_rate(&self) -> f64 {
        let total = self.nodes + self.edges;
        if total == 0 {
            return 0.0;
        }
        let unique = self.unique_layer_tables + self.unique_edge_tables;
        1.0 - unique as f64 / total as f64
    }

    /// [`InternStats::hit_rate`], distinguishing "interning never ran"
    /// (`None` — the size gate or `intern: false` skipped it) from a
    /// measured rate (`Some`, possibly 0.0). Reports that would otherwise
    /// print a misleading `0.0` for a skipped pass use this.
    pub fn hit_rate_opt(&self) -> Option<f64> {
        self.attempted.then(|| self.hit_rate())
    }
}

/// Structural identity of a node for interning: everything the
/// configuration enumeration and cost formulas read, nothing else (in
/// particular not the node's name). Float op parameters are keyed by their
/// bit patterns so `Hash`/`Eq` stay consistent. The key borrows the node's
/// iteration space and tensors instead of copying them.
struct NodeKey<'a> {
    op_tag: u8,
    op_bits: [u64; 3],
    node: &'a Node,
}

impl NodeKey<'_> {
    /// Inputs, then the output, then the parameters.
    fn tensors(&self) -> impl Iterator<Item = &TensorRef> {
        let n = self.node;
        n.inputs
            .iter()
            .chain(std::iter::once(&n.output))
            .chain(&n.params)
    }
}

impl PartialEq for NodeKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.node, other.node);
        self.op_tag == other.op_tag
            && self.op_bits == other.op_bits
            && a.iter_space == b.iter_space
            && a.inputs.len() == b.inputs.len()
            && a.params.len() == b.params.len()
            && self.tensors().zip(other.tensors()).all(|(x, y)| {
                x.dims == y.dims && x.sizes == y.sizes && x.elem_bytes == y.elem_bytes
            })
    }
}

impl Eq for NodeKey<'_> {}

impl Hash for NodeKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.op_tag.hash(state);
        self.op_bits.hash(state);
        self.node.iter_space.hash(state);
        self.node.inputs.len().hash(state);
        for t in self.tensors() {
            t.dims.hash(state);
            t.sizes.hash(state);
            t.elem_bytes.hash(state);
        }
    }
}

fn node_key(n: &Node) -> NodeKey<'_> {
    let (op_tag, op_bits): (u8, [u64; 3]) = match n.op {
        OpKind::Conv2d {
            kernel_h,
            kernel_w,
            stride,
        } => (0, [kernel_h.into(), kernel_w.into(), stride.into()]),
        OpKind::Pool2d { kernel, stride } => (1, [kernel.into(), stride.into(), 0]),
        OpKind::FullyConnected => (2, [0; 3]),
        OpKind::Matmul => (3, [0; 3]),
        OpKind::Softmax => (4, [0; 3]),
        OpKind::Embedding => (5, [0; 3]),
        OpKind::Lstm { layers } => (6, [layers.into(), 0, 0]),
        OpKind::Attention => (7, [0; 3]),
        OpKind::FeedForward => (8, [0; 3]),
        OpKind::LayerNorm => (9, [0; 3]),
        OpKind::BatchNorm => (10, [0; 3]),
        OpKind::Elementwise { flops_per_point } => (11, [flops_per_point.to_bits(), 0, 0]),
        OpKind::Concat => (12, [0; 3]),
    };
    NodeKey {
        op_tag,
        op_bits,
        node: n,
    }
}

/// One interned layer table: the configuration list, per-configuration
/// layer cost, and per-configuration memory charge of a structural node
/// class.
#[derive(Clone, Debug)]
pub(crate) struct LayerEntry {
    pub(crate) configs: Vec<Config>,
    pub(crate) costs: Vec<f64>,
    pub(crate) mem: Vec<u64>,
}

/// A non-finite entry found by [`CostTables::check_finite`]: which pool
/// (`"layer"` or `"edge"`), which interned class, the flat index within
/// that class's cost vector, and the offending value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NonFiniteCost {
    /// `"layer"` or `"edge"`.
    pub kind: &'static str,
    /// Index of the interned table class containing the entry.
    pub class: usize,
    /// Flat index of the entry within the class's cost vector.
    pub index: usize,
    /// The non-finite cost itself (NaN or ±∞).
    pub value: f64,
}

impl std::fmt::Display for NonFiniteCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "non-finite {} cost {} at class {} entry {} (check the MachineSpec rates)",
            self.kind, self.value, self.class, self.index
        )
    }
}

impl std::error::Error for NonFiniteCost {}

impl NonFiniteCost {
    /// The first non-finite entry of a `kind` pool, given each class's own
    /// first non-finite entry in class order.
    pub(crate) fn first(
        kind: &'static str,
        classes: impl Iterator<Item = NonFinite>,
    ) -> Option<Self> {
        classes.enumerate().find_map(|(class, nf)| {
            nf.map(|(index, value)| Self {
                kind,
                class,
                index,
                value,
            })
        })
    }

    /// The first non-finite entry of already-filled pools, in
    /// layer-then-edge class order.
    pub(crate) fn scan(layer_pool: &[LayerEntry], edge_pool: &[EdgeTable]) -> Option<Self> {
        Self::first(
            "layer",
            layer_pool.iter().map(|e| first_non_finite(&e.costs)),
        )
        .or_else(|| Self::first("edge", edge_pool.iter().map(|t| first_non_finite(&t.costs))))
    }
}

/// Dense transfer-cost matrix for one structural edge class:
/// `costs[cu * k_dst + cv]`. The storage is reference-counted so a pruned
/// pool can share a matrix its prune left whole (see [`crate::prune`]).
#[derive(Clone, Debug)]
pub(crate) struct EdgeTable {
    pub(crate) k_dst: u32,
    pub(crate) costs: Arc<Vec<f64>>,
}

/// Precomputed configuration lists and cost tables for a (graph, rule,
/// mesh) triple.
#[derive(Clone, Debug)]
pub struct CostTables {
    pub(crate) rule: ConfigRule,
    pub(crate) r: f64,
    pub(crate) mesh: DeviceMesh,
    /// Node → index into `layer_pool`.
    pub(crate) node_class: Vec<u32>,
    pub(crate) layer_pool: Vec<LayerEntry>,
    /// Edge → index into `edge_pool`.
    pub(crate) edge_class: Vec<u32>,
    pub(crate) edge_pool: Vec<EdgeTable>,
    /// Whether structural interning was attempted for this build (see
    /// [`InternStats::attempted`]).
    pub(crate) intern_attempted: bool,
    /// The first non-finite entry in layer-then-edge class order, recorded
    /// by whoever filled the pools ([`CostTables::check_finite`]).
    pub(crate) non_finite: Option<Box<NonFiniteCost>>,
}

impl CostTables {
    /// Enumerate all configurations and precompute every cost entry, with
    /// structural interning and parallel table construction (the defaults
    /// of [`TableOptions`]). The scalar `machine` is costed as its flat
    /// single-axis mesh ([`DeviceMesh::flat`]) — bit-identical to the
    /// historical `compute + r·bytes` model.
    pub fn build(graph: &Graph, rule: ConfigRule, machine: &MachineSpec) -> Self {
        Self::build_with(graph, rule, machine, &TableOptions::default())
    }

    /// [`CostTables::build`] with explicit construction options.
    pub fn build_with(
        graph: &Graph,
        rule: ConfigRule,
        machine: &MachineSpec,
        opts: &TableOptions,
    ) -> Self {
        Self::build_mesh(graph, rule, &DeviceMesh::flat(machine), opts, None)
    }

    /// Build topology-aware tables for a [`DeviceMesh`], recording
    /// `interning` / `enumeration` / `table_build` phase spans (with entry
    /// and byte counters) into `trace` when one is given. The produced
    /// tables are identical with and without a trace.
    pub fn build_mesh(
        graph: &Graph,
        rule: ConfigRule,
        mesh: &DeviceMesh,
        opts: &TableOptions,
        trace: Option<&Trace>,
    ) -> Self {
        Self::build_impl(graph, rule, mesh, opts, trace, |v| {
            enumerate_configs(graph.node(v), &rule)
        })
    }

    /// [`CostTables::build_mesh`] over a pre-enumerated [`crate::ConfigSpace`].
    ///
    /// The space must cover the same graph and have been built under the
    /// same `rule` — sweeps that reuse one enumeration across several
    /// machine profiles (figure6, the mesh sweep of `bench_search`) call
    /// this to skip the redundant `enumerate_configs` passes.
    pub fn build_mesh_with_space(
        graph: &Graph,
        rule: ConfigRule,
        mesh: &DeviceMesh,
        space: &crate::config::ConfigSpace,
        opts: &TableOptions,
    ) -> Self {
        assert_eq!(
            space.len(),
            graph.len(),
            "ConfigSpace does not cover the graph"
        );
        Self::build_impl(graph, rule, mesh, opts, None, |v| {
            space.configs_of(v).to_vec()
        })
    }

    fn build_impl(
        graph: &Graph,
        rule: ConfigRule,
        mesh: &DeviceMesh,
        opts: &TableOptions,
        trace: Option<&Trace>,
        configs_for: impl Fn(NodeId) -> Vec<Config> + Sync,
    ) -> Self {
        let r = mesh.ratio_for_group(1);

        // Phase 1 — interning: node classes (one per distinct structural
        // key when interning, one per node otherwise; `layer_reps[class]`
        // is a representative) and edge classes (keyed by endpoint classes
        // plus consumer slot — independent of the not-yet-built tables).
        // Interning is skipped outright on tiny graphs and abandoned after
        // a long hit-free probe prefix — in both regimes the keying costs
        // more than the sharing it could win, and the produced tables are
        // identical either way.
        let mut span = span_in(trace, phase::INTERNING);
        let nodes = graph.nodes();
        let mut intern = opts.intern && nodes.len() >= opts.intern_min_nodes;
        // "Attempted" is the *initial* decision: a probe-limit abandonment
        // below still measured a real (near-zero) hit rate.
        let intern_attempted = intern;
        let mut node_class = Vec::with_capacity(nodes.len());
        let mut layer_reps: Vec<NodeId> = Vec::new();
        if intern {
            let mut classes: FxHashMap<NodeKey, u32> = FxHashMap::default();
            for (i, n) in nodes.iter().enumerate() {
                if i >= INTERN_PROBE_LIMIT && layer_reps.len() == i {
                    // No hit in the whole prefix: stop keying, assign the
                    // rest fresh classes.
                    for j in i..nodes.len() {
                        node_class.push(layer_reps.len() as u32);
                        layer_reps.push(NodeId(j as u32));
                    }
                    intern = false;
                    break;
                }
                let next = layer_reps.len() as u32;
                let class = *classes.entry(node_key(n)).or_insert_with(|| {
                    layer_reps.push(NodeId(i as u32));
                    next
                });
                node_class.push(class);
            }
        } else {
            for i in 0..nodes.len() {
                node_class.push(i as u32);
                layer_reps.push(NodeId(i as u32));
            }
        }
        let edges = graph.edges();
        let mut edge_class = Vec::with_capacity(edges.len());
        let mut edge_reps: Vec<EdgeId> = Vec::new();
        if intern {
            let mut classes: FxHashMap<(u32, u32, u32), u32> = FxHashMap::default();
            for (i, e) in edges.iter().enumerate() {
                let key = (
                    node_class[e.src.index()],
                    node_class[e.dst.index()],
                    e.dst_slot,
                );
                let next = edge_reps.len() as u32;
                let class = *classes.entry(key).or_insert_with(|| {
                    edge_reps.push(EdgeId(i as u32));
                    next
                });
                edge_class.push(class);
            }
        } else {
            for i in 0..edges.len() {
                edge_class.push(i as u32);
                edge_reps.push(EdgeId(i as u32));
            }
        }
        span.arg("nodes", nodes.len());
        span.arg("unique_layer_tables", layer_reps.len());
        span.arg("edges", edges.len());
        span.arg("unique_edge_tables", edge_reps.len());
        drop(span);

        // Phase 2 — configuration enumeration, once per layer class.
        let mut span = span_in(trace, phase::ENUMERATION);
        let rep_configs: Vec<Vec<Config>> = layer_reps
            .clone()
            .into_par_iter()
            .map(configs_for)
            .collect();
        span.arg("tables", rep_configs.len());
        span.arg(
            "configs",
            rep_configs.iter().map(Vec::len).sum::<usize>() as u64,
        );
        drop(span);

        // Phase 3 — cost-table fill: layer classes, then edge classes over
        // the enumerated configuration lists (see `crate::fill`).
        let mut span = span_in(trace, phase::TABLE_BUILD);
        let groups = GroupTable::new(mesh);
        let layer_fills: Vec<LayerFill> = layer_reps
            .into_iter()
            .zip(rep_configs)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(v, configs)| fill_layer(graph.node(v), configs, &groups))
            .collect();
        let fill_of = |v: NodeId| (graph.node(v), &layer_fills[node_class[v.index()] as usize]);
        let edge_fills: Vec<(EdgeTable, NonFinite)> = edge_reps
            .into_par_iter()
            .map(|eid| {
                let e = graph.edge(eid);
                fill_edge(fill_of(e.src), fill_of(e.dst), e.dst_slot as usize, &groups)
            })
            .collect();
        let non_finite = NonFiniteCost::first("layer", layer_fills.iter().map(|f| f.non_finite))
            .or_else(|| NonFiniteCost::first("edge", edge_fills.iter().map(|(_, nf)| *nf)))
            .map(Box::new);
        let layer_pool: Vec<LayerEntry> = layer_fills.into_iter().map(|f| f.entry).collect();
        let edge_pool: Vec<EdgeTable> = edge_fills.into_iter().map(|(t, _)| t).collect();
        if span.is_some() {
            let entries = layer_pool.iter().map(|t| t.costs.len()).sum::<usize>()
                + edge_pool.iter().map(|t| t.costs.len()).sum::<usize>();
            span.arg("entries", entries);
            span.arg("bytes", (entries * std::mem::size_of::<f64>()) as u64);
        }
        drop(span);

        Self {
            rule,
            r,
            mesh: mesh.clone(),
            node_class,
            layer_pool,
            edge_class,
            edge_pool,
            intern_attempted,
            non_finite,
        }
    }

    /// The configuration rule the tables were built under.
    pub fn rule(&self) -> &ConfigRule {
        &self.rule
    }

    /// The innermost-axis FLOP-to-byte ratio `r` — on flat meshes, the
    /// scalar machine balance the historical model used everywhere.
    pub fn flop_byte_ratio(&self) -> f64 {
        self.r
    }

    /// The device mesh the tables were costed against (a flat single-axis
    /// mesh when built from a scalar [`MachineSpec`]).
    pub fn mesh(&self) -> &DeviceMesh {
        &self.mesh
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.node_class.len()
    }

    /// Whether the tables cover no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_class.is_empty()
    }

    /// How much work interning shared (see [`InternStats::hit_rate`]).
    pub fn intern_stats(&self) -> InternStats {
        InternStats {
            attempted: self.intern_attempted,
            nodes: self.node_class.len(),
            unique_layer_tables: self.layer_pool.len(),
            edges: self.edge_class.len(),
            unique_edge_tables: self.edge_pool.len(),
        }
    }

    #[inline]
    fn layer_entry(&self, v: NodeId) -> &LayerEntry {
        &self.layer_pool[self.node_class[v.index()] as usize]
    }

    /// `|C(v)|` — the number of valid configurations of node `v`.
    pub fn k(&self, v: NodeId) -> usize {
        self.layer_entry(v).configs.len()
    }

    /// The largest `|C(v)|` over all nodes (the paper's `K`).
    pub fn max_k(&self) -> usize {
        self.layer_pool
            .iter()
            .map(|e| e.configs.len())
            .max()
            .unwrap_or(0)
    }

    /// The configuration list of node `v`.
    pub fn configs_of(&self, v: NodeId) -> &[Config] {
        &self.layer_entry(v).configs
    }

    /// The configuration of node `v` with local id `c`.
    pub fn config(&self, v: NodeId, c: u16) -> &Config {
        &self.layer_entry(v).configs[c as usize]
    }

    /// `t_l(v, C_c, r)` in FLOPs.
    #[inline]
    pub fn layer_cost(&self, v: NodeId, c: u16) -> f64 {
        self.layer_entry(v).costs[c as usize]
    }

    /// `r · t_x` for edge `e` under configuration ids `(cu, cv)` of its
    /// endpoints.
    #[inline]
    pub fn edge_cost(&self, e: EdgeId, cu: u16, cv: u16) -> f64 {
        let t = &self.edge_pool[self.edge_class[e.index()] as usize];
        t.costs[cu as usize * t.k_dst as usize + cv as usize]
    }

    /// Per-device memory charge in bytes of node `v` under its local
    /// configuration id `c` (see [`crate::config_memory_bytes`]).
    #[inline]
    pub fn memory_bytes(&self, v: NodeId, c: u16) -> u64 {
        self.layer_entry(v).mem[c as usize]
    }

    /// The contiguous per-configuration memory row of node `v`:
    /// `row[c] == memory_bytes(v, c)` for every `c < k(v)`.
    #[inline]
    pub fn memory_row(&self, v: NodeId) -> &[u64] {
        &self.layer_entry(v).mem
    }

    /// Peak per-device memory of a complete strategy given as per-node
    /// configuration ids: the sum of every node's charge (the additive
    /// model the frontier DP optimizes).
    pub fn strategy_memory_bytes(&self, ids: &[u16]) -> u64 {
        assert_eq!(ids.len(), self.node_class.len());
        ids.iter()
            .enumerate()
            .map(|(v, &c)| self.memory_bytes(NodeId(v as u32), c))
            .sum()
    }

    /// Verify every layer and edge cost is finite. A hostile or
    /// miscalibrated [`MachineSpec`] (zero/NaN bandwidth) yields NaN or
    /// infinite table entries that would silently poison the dominance
    /// prune (`total_cmp` sorts NaN largest, `fold(INFINITY, min)` keeps
    /// it) and the DP argmin — reject them loudly at build time instead.
    ///
    /// The fill records the first such entry as it builds the tables, so
    /// this answers without scanning them.
    pub fn check_finite(&self) -> Result<(), NonFiniteCost> {
        self.non_finite.as_deref().map_or(Ok(()), |e| Err(*e))
    }

    /// The contiguous per-configuration layer-cost row of node `v`:
    /// `row[c] == layer_cost(v, c)` for every `c < k(v)`. Lets the DP's
    /// tiled kernel hoist the row once per chunk instead of re-resolving
    /// the class indirection per entry.
    #[inline]
    pub fn layer_cost_row(&self, v: NodeId) -> &[f64] {
        &self.layer_entry(v).costs
    }

    /// The dense transfer matrix of edge `e` plus its row length:
    /// `(matrix, k_dst)` with `matrix[cu * k_dst + cv] == edge_cost(e, cu,
    /// cv)` and `matrix.len() == k(src) * k_dst`. The DP's tiled kernel
    /// packs rows (or transposed columns) of this into panel-major scratch.
    #[inline]
    pub fn edge_cost_matrix(&self, e: EdgeId) -> (&[f64], usize) {
        let t = &self.edge_pool[self.edge_class[e.index()] as usize];
        (&t.costs, t.k_dst as usize)
    }

    /// Evaluate `F(G, φ)` for a strategy given as per-node configuration
    /// ids, using only the precomputed tables. Must agree exactly with
    /// [`crate::evaluate`] on the corresponding [`Strategy`].
    pub fn evaluate_ids(&self, graph: &Graph, ids: &[u16]) -> f64 {
        assert_eq!(ids.len(), graph.len());
        let mut total = 0.0;
        for v in graph.node_ids() {
            total += self.layer_cost(v, ids[v.index()]);
        }
        for (i, e) in graph.edges().iter().enumerate() {
            total += self.edge_cost(EdgeId(i as u32), ids[e.src.index()], ids[e.dst.index()]);
        }
        total
    }

    /// Convert per-node configuration ids into a [`Strategy`].
    pub fn ids_to_strategy(&self, ids: &[u16]) -> Strategy {
        assert_eq!(ids.len(), self.node_class.len());
        Strategy::new(
            ids.iter()
                .enumerate()
                .map(|(v, &c)| self.layer_entry(NodeId(v as u32)).configs[c as usize])
                .collect(),
        )
    }

    /// Find the configuration ids of a [`Strategy`]; `None` if any node's
    /// configuration is not in its enumerated list.
    pub fn strategy_to_ids(&self, strategy: &Strategy) -> Option<Vec<u16>> {
        if strategy.len() != self.node_class.len() {
            return None;
        }
        strategy
            .configs()
            .iter()
            .enumerate()
            .map(|(v, cfg)| {
                self.configs_of(NodeId(v as u32))
                    .iter()
                    .position(|c| c == cfg)
                    .map(|i| i as u16)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::evaluate;
    use pase_graph::{DimRole, GraphBuilder, IterDim, Node, OpKind, TensorRef};

    fn fc_chain(k: usize) -> Graph {
        let mk = |name: &str, ins: usize| {
            let dims = vec![
                IterDim::new("b", 64, DimRole::Batch),
                IterDim::new("n", 128, DimRole::Param),
                IterDim::new("c", 128, DimRole::Reduction),
            ];
            Node {
                name: name.into(),
                op: OpKind::FullyConnected,
                iter_space: dims,
                inputs: (0..ins)
                    .map(|_| TensorRef::new(vec![0, 2], vec![64, 128]))
                    .collect(),
                output: TensorRef::new(vec![0, 1], vec![64, 128]),
                params: vec![TensorRef::new(vec![1, 2], vec![128, 128])],
            }
        };
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..k)
            .map(|i| b.add_node(mk(&format!("fc{i}"), usize::from(i > 0))))
            .collect();
        for w in ids.windows(2) {
            b.connect(w[0], w[1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn tables_match_direct_evaluation_on_all_pairs() {
        let g = fc_chain(2);
        let t = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let r = t.flop_byte_ratio();
        for cu in 0..t.k(NodeId(0)) as u16 {
            for cv in 0..t.k(NodeId(1)) as u16 {
                let ids = vec![cu, cv];
                let direct = evaluate(&g, &t.ids_to_strategy(&ids), r);
                let tabled = t.evaluate_ids(&g, &ids);
                assert!(
                    (direct - tabled).abs() <= 1e-9 * direct.abs().max(1.0),
                    "mismatch at ({cu},{cv}): {direct} vs {tabled}"
                );
            }
        }
    }

    #[test]
    fn strategy_id_roundtrip() {
        let g = fc_chain(3);
        let t = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
        let ids = vec![0u16, (t.k(NodeId(1)) - 1) as u16, 1u16];
        let s = t.ids_to_strategy(&ids);
        assert_eq!(t.strategy_to_ids(&s), Some(ids));
    }

    #[test]
    fn unknown_config_is_rejected() {
        let g = fc_chain(1);
        let t = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
        // all-ones uses 1 device; rule requires all 8 → not enumerated
        let s = Strategy::sequential(&g);
        assert_eq!(t.strategy_to_ids(&s), None);
    }

    #[test]
    fn k_reflects_enumeration() {
        let g = fc_chain(1);
        let t = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
        assert_eq!(t.k(NodeId(0)), 10); // pow-2 compositions of 8 over 3 dims
        assert_eq!(t.max_k(), 10);
    }

    #[test]
    fn edge_cost_lookup_matches_formula() {
        let g = fc_chain(2);
        let t = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let r = t.flop_byte_ratio();
        let cu = 0u16;
        let cv = 3u16;
        let expect = r * crate::transfer::transfer_bytes(
            g.node(NodeId(0)),
            t.config(NodeId(0), cu),
            g.node(NodeId(1)),
            0,
            t.config(NodeId(1), cv),
        );
        assert_eq!(t.edge_cost(EdgeId(0), cu, cv), expect);
    }

    /// Interning options with the size gate disabled (unit graphs here are
    /// all below the default `intern_min_nodes`).
    fn always_intern() -> TableOptions {
        TableOptions {
            intern_min_nodes: 0,
            ..TableOptions::default()
        }
    }

    #[test]
    fn interning_shares_repeated_structures() {
        // fc1..fc4 are structurally identical (fc0 differs: no input
        // tensor), and the three interior edges share one class.
        let g = fc_chain(5);
        let t = CostTables::build_with(
            &g,
            ConfigRule::new(4),
            &MachineSpec::test_machine(),
            &always_intern(),
        );
        let s = t.intern_stats();
        assert_eq!(s.nodes, 5);
        assert_eq!(s.unique_layer_tables, 2);
        assert_eq!(s.edges, 4);
        // Edge fc0→fc1 (src class differs) vs the identical fc_i→fc_{i+1}.
        assert_eq!(s.unique_edge_tables, 2);
        assert!(s.hit_rate() > 0.5, "hit rate {}", s.hit_rate());
    }

    #[test]
    fn interned_and_uninterned_tables_are_bit_identical() {
        let g = fc_chain(4);
        let rule = ConfigRule::new(8);
        let m = MachineSpec::test_machine();
        let interned = CostTables::build_with(&g, rule, &m, &always_intern());
        // The plain build runs on one thread, like the old sequential path.
        let plain = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("thread pool")
            .install(|| {
                CostTables::build_with(
                    &g,
                    rule,
                    &m,
                    &TableOptions {
                        intern: false,
                        ..TableOptions::default()
                    },
                )
            });
        assert_eq!(plain.intern_stats().hit_rate(), 0.0);
        for v in g.node_ids() {
            assert_eq!(interned.k(v), plain.k(v));
            assert_eq!(interned.configs_of(v), plain.configs_of(v));
            for c in 0..interned.k(v) as u16 {
                assert_eq!(
                    interned.layer_cost(v, c).to_bits(),
                    plain.layer_cost(v, c).to_bits()
                );
            }
        }
        for (i, e) in g.edges().iter().enumerate() {
            let eid = EdgeId(i as u32);
            for cu in 0..interned.k(e.src) as u16 {
                for cv in 0..interned.k(e.dst) as u16 {
                    assert_eq!(
                        interned.edge_cost(eid, cu, cv).to_bits(),
                        plain.edge_cost(eid, cu, cv).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn node_names_do_not_affect_interning() {
        let mut b = GraphBuilder::new();
        let mk = |name: &str| {
            let mut n = fc_chain(1).nodes()[0].clone();
            n.name = name.into();
            n
        };
        b.add_node(mk("alpha"));
        b.add_node(mk("a completely different name"));
        let g = b.build().unwrap();
        let t = CostTables::build_with(
            &g,
            ConfigRule::new(4),
            &MachineSpec::test_machine(),
            &always_intern(),
        );
        assert_eq!(t.intern_stats().unique_layer_tables, 1);
    }

    #[test]
    fn small_graphs_skip_interning_by_default() {
        // Below `intern_min_nodes`, the default build produces one table
        // per node/edge (identical values, no keying overhead).
        let g = fc_chain(5);
        let t = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let s = t.intern_stats();
        assert_eq!(s.unique_layer_tables, s.nodes);
        assert_eq!(s.unique_edge_tables, s.edges);
        assert_eq!(s.hit_rate(), 0.0);
        // ... and the tables match an explicitly interned build entry-wise.
        let interned = CostTables::build_with(
            &g,
            ConfigRule::new(4),
            &MachineSpec::test_machine(),
            &always_intern(),
        );
        for v in g.node_ids() {
            assert_eq!(t.configs_of(v), interned.configs_of(v));
            for c in 0..t.k(v) as u16 {
                assert_eq!(
                    t.layer_cost(v, c).to_bits(),
                    interned.layer_cost(v, c).to_bits()
                );
            }
        }
    }

    #[test]
    fn attempted_distinguishes_skipped_from_measured_zero() {
        let g = fc_chain(5);
        let m = MachineSpec::test_machine();
        // Size gate skips interning (5 < intern_min_nodes): not attempted.
        let gated = CostTables::build(&g, ConfigRule::new(4), &m);
        assert!(!gated.intern_stats().attempted);
        assert_eq!(gated.intern_stats().hit_rate_opt(), None);
        // Explicitly disabled: not attempted either.
        let off = CostTables::build_with(
            &g,
            ConfigRule::new(4),
            &m,
            &TableOptions {
                intern: false,
                ..always_intern()
            },
        );
        assert!(!off.intern_stats().attempted);
        // Forced on: attempted, with a measured (here positive) rate.
        let on = CostTables::build_with(&g, ConfigRule::new(4), &m, &always_intern());
        let s = on.intern_stats();
        assert!(s.attempted);
        assert_eq!(s.hit_rate_opt(), Some(s.hit_rate()));
        assert!(s.hit_rate() > 0.0);
    }

    #[test]
    fn panel_accessors_match_scalar_lookups() {
        let g = fc_chain(3);
        let t = CostTables::build_with(
            &g,
            ConfigRule::new(8),
            &MachineSpec::test_machine(),
            &always_intern(),
        );
        for v in g.node_ids() {
            let row = t.layer_cost_row(v);
            assert_eq!(row.len(), t.k(v));
            for c in 0..t.k(v) as u16 {
                assert_eq!(row[c as usize].to_bits(), t.layer_cost(v, c).to_bits());
            }
        }
        for (i, e) in g.edges().iter().enumerate() {
            let eid = EdgeId(i as u32);
            let (mat, k_dst) = t.edge_cost_matrix(eid);
            assert_eq!(k_dst, t.k(e.dst));
            assert_eq!(mat.len(), t.k(e.src) * k_dst);
            for cu in 0..t.k(e.src) as u16 {
                for cv in 0..k_dst as u16 {
                    assert_eq!(
                        mat[cu as usize * k_dst + cv as usize].to_bits(),
                        t.edge_cost(eid, cu, cv).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn memory_rows_match_the_direct_model() {
        let g = fc_chain(3);
        let t = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
        for v in g.node_ids() {
            let row = t.memory_row(v);
            assert_eq!(row.len(), t.k(v));
            for c in 0..t.k(v) as u16 {
                let direct = crate::memory::config_memory_bytes(g.node(v), t.config(v, c));
                assert_eq!(t.memory_bytes(v, c), direct);
                assert_eq!(row[c as usize], direct);
            }
        }
        let ids: Vec<u16> = g.node_ids().map(|_| 0).collect();
        assert_eq!(
            t.strategy_memory_bytes(&ids),
            g.node_ids().map(|v| t.memory_bytes(v, 0)).sum::<u64>()
        );
    }

    #[test]
    fn non_finite_costs_are_rejected_by_check_finite() {
        // A zero-bandwidth machine yields r = ∞, so any config with
        // nonzero communication produces an infinite layer cost; NaN
        // arises from ∞·0 in edge entries. Before check_finite existed,
        // these silently poisoned the dominance prune and the DP argmin.
        let g = fc_chain(2);
        let hostile = MachineSpec {
            name: "hostile".to_string(),
            peak_flops: 1.0,
            link_bandwidth: 0.0,
            internode_bandwidth: 0.0,
        };
        let t = CostTables::build(&g, ConfigRule::new(8), &hostile);
        let err = t.check_finite().expect_err("NaN/∞ table passed the check");
        assert!(!err.value.is_finite());
        assert!(err.to_string().contains("non-finite"));
        // ... while a sane machine passes.
        let ok = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
        assert!(ok.check_finite().is_ok());
    }

    #[test]
    fn check_finite_reports_what_a_scan_finds() {
        // The fill records the first non-finite entry instead of
        // `check_finite` rescanning the pools; both constructors (the
        // build and the pruned compaction) must agree with a scan.
        let g = fc_chain(3);
        let hostile = MachineSpec {
            name: "hostile".to_string(),
            peak_flops: 1.0,
            link_bandwidth: 0.0,
            internode_bandwidth: 0.0,
        };
        let m = MachineSpec::test_machine();
        for machine in [&hostile, &m] {
            for opts in [always_intern(), TableOptions::default()] {
                let t = CostTables::build_with(&g, ConfigRule::new(8), machine, &opts);
                let scan = NonFiniteCost::scan(&t.layer_pool, &t.edge_pool);
                assert_eq!(t.check_finite().err(), scan);
                let pruned = crate::PrunedTables::build(&g, &t, &crate::PruneOptions::default());
                let p = pruned.tables();
                assert_eq!(
                    p.check_finite().err(),
                    NonFiniteCost::scan(&p.layer_pool, &p.edge_pool)
                );
            }
        }
        let bad = CostTables::build(&g, ConfigRule::new(8), &hostile);
        assert!(bad.check_finite().is_err());
    }

    #[test]
    fn space_built_tables_match_enumerating_build() {
        let g = fc_chain(3);
        let rule = ConfigRule::new(8);
        let m = MachineSpec::test_machine();
        let space = crate::config::ConfigSpace::build(&g, &rule);
        let from_space = CostTables::build_mesh_with_space(
            &g,
            rule,
            &DeviceMesh::flat(&m),
            &space,
            &TableOptions::default(),
        );
        let direct = CostTables::build(&g, rule, &m);
        for v in g.node_ids() {
            assert_eq!(from_space.configs_of(v), direct.configs_of(v));
            for c in 0..direct.k(v) as u16 {
                assert_eq!(
                    from_space.layer_cost(v, c).to_bits(),
                    direct.layer_cost(v, c).to_bits()
                );
            }
        }
        for (i, e) in g.edges().iter().enumerate() {
            let eid = EdgeId(i as u32);
            for cu in 0..direct.k(e.src) as u16 {
                for cv in 0..direct.k(e.dst) as u16 {
                    assert_eq!(
                        from_space.edge_cost(eid, cu, cv).to_bits(),
                        direct.edge_cost(eid, cu, cv).to_bits()
                    );
                }
            }
        }
    }
}
