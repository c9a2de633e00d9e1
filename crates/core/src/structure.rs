//! Connected sets, connected subsets, and dependent sets (§III-B).
//!
//! For an ordering `V = (v^(1), …, v^(|V|))` and a position `i`:
//!
//! * the **connected set** `X(i)` is the set of vertices of `V_{≤i}`
//!   connected to `v^(i)` by paths inside `V_{≤i}` (including `v^(i)`);
//! * the **dependent set** `D(i) = N(X(i)) ∩ V_{>i}` is the set of
//!   *later* vertices whose configurations the sub-solution for `X(i)`
//!   depends on;
//! * the **connected subsets** `S(i)` are the vertex sets of the connected
//!   components of `X(i) − {v^(i)}` (induced in `V_{<i}`); each component
//!   is identified by its *anchor* — its maximum-position vertex `j` —
//!   whose DP table `R_V(j, ·)` summarizes it.
//!
//! [`ConnectedSetMode::Prefix`] forces `X(i) = V_{≤i}`, which turns
//! recurrence (4) into the naive recurrence (2) with breadth-first
//! dependent sets `D_B(i) = N(V_{≤i}) ∩ V_{>i}` — the §III-A baseline whose
//! tables explode on non-path graphs.

use pase_graph::{dfs_reachable_within, Graph, NodeId};

/// How connected sets are computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnectedSetMode {
    /// `X(i)` = component of `v^(i)` in `V_{≤i}` (recurrence (4)).
    Exact,
    /// `X(i) = V_{≤i}` (the naive recurrence (2); dependent sets become
    /// `D_B(i)` and the recursion has the single child `B(i−1)`). Valid
    /// with any ordering — `D_B(i−1) ⊆ D_B(i) ∪ {v^(i)}` holds because
    /// every later neighbor of `V_{≤i−1}` is either `v^(i)` or still later
    /// — but exponentially slower than [`ConnectedSetMode::Exact`] on
    /// non-path graphs (the paper's Table I `OOM` column).
    Prefix,
}

/// All per-position structure the dynamic program needs, precomputed for a
/// `(graph, ordering, mode)` triple.
#[derive(Clone, Debug)]
pub struct VertexStructure {
    order: Vec<NodeId>,
    pos: Vec<u32>,
    dep_sets: Vec<Vec<NodeId>>,
    subsets: Vec<Vec<usize>>,
    roots: Vec<usize>,
    wavefronts: Vec<Vec<usize>>,
    levels: Vec<u32>,
    mode: ConnectedSetMode,
}

impl VertexStructure {
    /// Compute `X`, `S`, `D` for every position of `order` (which must be a
    /// permutation of the graph's vertices).
    pub fn build(g: &Graph, order: &[NodeId], mode: ConnectedSetMode) -> Self {
        let n = g.len();
        assert_eq!(order.len(), n, "ordering must cover every vertex");
        let mut pos = vec![u32::MAX; n];
        for (i, v) in order.iter().enumerate() {
            assert!(pos[v.index()] == u32::MAX, "ordering repeats {v}");
            pos[v.index()] = i as u32;
        }

        let mut dep_sets = Vec::with_capacity(n);
        let mut subsets = Vec::with_capacity(n);
        let mut prefix_mask = vec![false; n]; // positions ≤ i
        for (i, &vi) in order.iter().enumerate() {
            prefix_mask[vi.index()] = true;
            // X(i)
            let x: Vec<NodeId> = match mode {
                ConnectedSetMode::Exact => dfs_reachable_within(g, &prefix_mask, vi),
                ConnectedSetMode::Prefix => order[..=i].to_vec(),
            };
            // D(i) = N(X(i)) ∩ V_{>i}, sorted by node id for canonical keys.
            let mut dep: Vec<NodeId> = Vec::new();
            for &u in &x {
                for &w in g.neighbors(u) {
                    if pos[w.index()] > i as u32 {
                        dep.push(w);
                    }
                }
            }
            dep.sort_unstable();
            dep.dedup();
            // S(i). Exact mode: the connected components of X(i) − {v_i}
            // within V_{<i}, each identified by its max-position anchor.
            // Prefix mode is the paper's recurrence (2) verbatim: a single
            // child B(i−1) summarizing *all* of V_{<i} — decomposing into
            // components here would double-count any component reachable
            // both directly and through another child's table.
            let anchors = match mode {
                ConnectedSetMode::Prefix => {
                    if i == 0 {
                        Vec::new()
                    } else {
                        vec![i - 1]
                    }
                }
                ConnectedSetMode::Exact => {
                    let mut sub_mask = vec![false; n];
                    for &u in &x {
                        if u != vi {
                            sub_mask[u.index()] = true;
                        }
                    }
                    let mut anchors = Vec::new();
                    let mut remaining: Vec<NodeId> =
                        x.iter().copied().filter(|&u| u != vi).collect();
                    let mut seen = vec![false; n];
                    // Components in deterministic order (smallest member
                    // first).
                    remaining.sort_unstable();
                    for u in remaining {
                        if seen[u.index()] {
                            continue;
                        }
                        let comp = dfs_reachable_within(g, &sub_mask, u);
                        let mut anchor = 0u32;
                        for &w in &comp {
                            seen[w.index()] = true;
                            anchor = anchor.max(pos[w.index()]);
                        }
                        anchors.push(anchor as usize);
                    }
                    anchors
                }
            };
            dep_sets.push(dep);
            subsets.push(anchors);
        }

        // Roots: positions whose table yields a final component cost. A
        // position is a root iff its dependent set is empty and it is the
        // maximum position of its component — equivalently, iff it is never
        // referenced as a child anchor by any later position and is not
        // inside any later X. The simplest correct characterization: the
        // max position of each weakly-connected component of G (Exact), or
        // just the last position (Prefix: S-sums cover all components).
        let roots = match mode {
            ConnectedSetMode::Prefix => {
                if n == 0 {
                    vec![]
                } else {
                    vec![n - 1]
                }
            }
            ConnectedSetMode::Exact => pase_graph::components(g)
                .iter()
                .map(|comp| {
                    comp.iter()
                        .map(|v| pos[v.index()] as usize)
                        .max()
                        .expect("nonempty")
                })
                .collect(),
        };

        // Wavefront levels over the table-dependency DAG: the table at
        // position `i` reads exactly the tables at `subset_anchors(i)`, all
        // of which are earlier positions, so
        // `level(i) = 1 + max level(anchor)` (0 with no anchors) gives a
        // schedule where every table in one level can be filled
        // concurrently once the previous levels are done.
        let mut levels = vec![0u32; n];
        for i in 0..n {
            let lvl = subsets[i].iter().map(|&j| levels[j] + 1).max().unwrap_or(0);
            levels[i] = lvl;
        }
        let n_waves = levels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
        let mut wavefronts: Vec<Vec<usize>> = vec![Vec::new(); n_waves];
        for (i, &l) in levels.iter().enumerate() {
            wavefronts[l as usize].push(i);
        }

        Self {
            order: order.to_vec(),
            pos,
            dep_sets,
            subsets,
            roots,
            wavefronts,
            levels,
            mode,
        }
    }

    /// The ordering this structure was built for.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Position of vertex `v` in the ordering.
    pub fn position(&self, v: NodeId) -> usize {
        self.pos[v.index()] as usize
    }

    /// Vertex at position `i`.
    pub fn vertex(&self, i: usize) -> NodeId {
        self.order[i]
    }

    /// `D(i)` for every position, each sorted by node id.
    pub fn dependent_sets(&self) -> &[Vec<NodeId>] {
        &self.dep_sets
    }

    /// `D(i)` of one position.
    pub fn dependent_set(&self, i: usize) -> &[NodeId] {
        &self.dep_sets[i]
    }

    /// Anchor positions of `S(i)`.
    pub fn subset_anchors(&self, i: usize) -> &[usize] {
        &self.subsets[i]
    }

    /// Positions whose tables hold final component costs; the minimum total
    /// cost of the graph is the sum of the root tables' (empty-substrategy)
    /// entries.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Size of the largest dependent set (the paper's `M`).
    pub fn max_dependent_set(&self) -> usize {
        self.dep_sets.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Positions grouped by dependency level: all tables of
    /// `wavefronts()[l]` depend (transitively, via [`Self::subset_anchors`])
    /// only on tables in waves `< l`, so each wave can be filled
    /// concurrently. Waves are ordered; positions within a wave are in
    /// ascending order.
    pub fn wavefronts(&self) -> &[Vec<usize>] {
        &self.wavefronts
    }

    /// Dependency level of position `i` (its index in [`Self::wavefronts`]).
    pub fn level(&self, i: usize) -> usize {
        self.levels[i] as usize
    }

    /// Size of the largest wavefront (peak table-level parallelism).
    pub fn max_wavefront_width(&self) -> usize {
        self.wavefronts.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The mode this structure was built with.
    pub fn mode(&self) -> ConnectedSetMode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::{generate_seq, make_ordering, OrderingKind};
    use pase_graph::{DimRole, GraphBuilder, IterDim, Node, OpKind, TensorRef};
    use proptest::prelude::*;

    fn ew(name: &str, ins: usize) -> Node {
        Node {
            name: name.into(),
            op: OpKind::Elementwise {
                flops_per_point: 1.0,
            },
            iter_space: vec![IterDim::new("b", 4, DimRole::Batch)],
            inputs: (0..ins).map(|_| TensorRef::new(vec![0], vec![4])).collect(),
            output: TensorRef::new(vec![0], vec![4]),
            params: vec![],
        }
    }

    /// The toy graph of the paper's Fig. 2 caption intuition: a fan
    /// structure where an ordering separates two components until a late
    /// vertex joins them.
    ///
    /// Edges: 0–1, 1–2 | 3–4 | 2–5, 4–5 (5 joins both chains), 5–6.
    fn two_chains_join() -> Graph {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(ew("0", 0));
        let n1 = b.add_node(ew("1", 1));
        let n2 = b.add_node(ew("2", 1));
        let n3 = b.add_node(ew("3", 0));
        let n4 = b.add_node(ew("4", 1));
        let n5 = b.add_node(ew("5", 2));
        let n6 = b.add_node(ew("6", 1));
        b.connect(n0, n1);
        b.connect(n1, n2);
        b.connect(n3, n4);
        b.connect(n2, n5);
        b.connect(n4, n5);
        b.connect(n5, n6);
        b.build().unwrap()
    }

    #[test]
    fn identity_ordering_structure() {
        let g = two_chains_join();
        let order: Vec<NodeId> = g.node_ids().collect();
        let s = VertexStructure::build(&g, &order, ConnectedSetMode::Exact);
        // position 2 (vertex 2): X = {0,1,2}; D = {5}
        assert_eq!(s.dependent_set(2), &[NodeId(5)]);
        // position 4 (vertex 4): X = {3,4}; D = {5}
        assert_eq!(s.dependent_set(4), &[NodeId(5)]);
        // position 5 (vertex 5): X = everything ≤ 5; D = {6};
        // S(5) = two components {0,1,2} (anchor 2) and {3,4} (anchor 4)
        assert_eq!(s.dependent_set(5), &[NodeId(6)]);
        assert_eq!(s.subset_anchors(5), &[2, 4]);
        // final position is the single root with empty D
        assert_eq!(s.roots(), &[6]);
        assert!(s.dependent_set(6).is_empty());
    }

    #[test]
    fn exact_mode_shrinks_dependent_sets_vs_prefix() {
        let g = two_chains_join();
        let order: Vec<NodeId> = g.node_ids().collect();
        let exact = VertexStructure::build(&g, &order, ConnectedSetMode::Exact);
        let prefix = VertexStructure::build(&g, &order, ConnectedSetMode::Prefix);
        // At position 3 (vertex 3, isolated so far): exact X = {3} → D = {4};
        // prefix X = {0,1,2,3} → D = {4, 5}.
        assert_eq!(exact.dependent_set(3), &[NodeId(4)]);
        assert_eq!(prefix.dependent_set(3), &[NodeId(4), NodeId(5)]);
        assert!(exact.max_dependent_set() <= prefix.max_dependent_set());
    }

    #[test]
    fn prefix_mode_root_is_last_position() {
        let g = two_chains_join();
        let order: Vec<NodeId> = g.node_ids().collect();
        let s = VertexStructure::build(&g, &order, ConnectedSetMode::Prefix);
        assert_eq!(s.roots(), &[g.len() - 1]);
    }

    #[test]
    fn disconnected_graph_has_one_root_per_component() {
        let mut b = GraphBuilder::new();
        let a0 = b.add_node(ew("a0", 0));
        let a1 = b.add_node(ew("a1", 1));
        let _c0 = b.add_node(ew("c0", 0));
        b.connect(a0, a1);
        let g = b.build().unwrap();
        let order: Vec<NodeId> = g.node_ids().collect();
        let s = VertexStructure::build(&g, &order, ConnectedSetMode::Exact);
        let mut roots = s.roots().to_vec();
        roots.sort_unstable();
        assert_eq!(roots, vec![1, 2]);
    }

    #[test]
    fn theorem2_generate_seq_sets_match_first_principles() {
        // Theorem 2: the sets maintained by GenerateSeq equal D(i) computed
        // from the definitions. `generate_seq_with_sets` exposes the
        // maintained sets at pick time.
        let g = two_chains_join();
        let (order, maintained) = crate::ordering::generate_seq_with_sets(&g);
        let s = VertexStructure::build(&g, &order, ConnectedSetMode::Exact);
        for (i, m) in maintained.iter().enumerate() {
            assert_eq!(
                m,
                s.dependent_set(i),
                "maintained set diverges from D({i}) for ordering {order:?}"
            );
        }
    }

    #[test]
    fn generate_seq_orders_join_vertex_late() {
        // Vertex 5 has degree 3; GenerateSeq should sequence it only after
        // its chains, keeping every dependent set ≤ 1 on this graph.
        let g = two_chains_join();
        let order = generate_seq(&g);
        let s = VertexStructure::build(&g, &order, ConnectedSetMode::Exact);
        assert!(s.max_dependent_set() <= 1, "M = {}", s.max_dependent_set());
    }

    #[test]
    fn wavefronts_partition_positions_and_respect_anchors() {
        let g = two_chains_join();
        for mode in [ConnectedSetMode::Exact, ConnectedSetMode::Prefix] {
            let order: Vec<NodeId> = g.node_ids().collect();
            let s = VertexStructure::build(&g, &order, mode);
            let mut seen = vec![false; g.len()];
            for (l, wave) in s.wavefronts().iter().enumerate() {
                assert!(!wave.is_empty(), "empty wave {l}");
                for &i in wave {
                    assert_eq!(s.level(i), l);
                    assert!(!seen[i], "position {i} in two waves");
                    seen[i] = true;
                    for &j in s.subset_anchors(i) {
                        assert!(
                            s.level(j) < l,
                            "anchor {j} (level {}) not before {i} (level {l})",
                            s.level(j)
                        );
                    }
                }
            }
            assert!(
                seen.iter().all(|&b| b),
                "wavefronts must cover all positions"
            );
            assert!(s.max_wavefront_width() >= 1);
        }
    }

    #[test]
    fn prefix_mode_wavefronts_are_singletons() {
        // Recurrence (2) chains every table to its predecessor, so the
        // dependency DAG is a path: n waves of width 1.
        let g = two_chains_join();
        let order: Vec<NodeId> = g.node_ids().collect();
        let s = VertexStructure::build(&g, &order, ConnectedSetMode::Prefix);
        assert_eq!(s.wavefronts().len(), g.len());
        assert_eq!(s.max_wavefront_width(), 1);
    }

    #[test]
    fn independent_chains_share_waves() {
        // Two disconnected 2-chains: positions 0 and 2 have no anchors
        // (wave 0), positions 1 and 3 anchor on them (wave 1).
        let mut b = GraphBuilder::new();
        let a0 = b.add_node(ew("a0", 0));
        let a1 = b.add_node(ew("a1", 1));
        let c0 = b.add_node(ew("c0", 0));
        let c1 = b.add_node(ew("c1", 1));
        b.connect(a0, a1);
        b.connect(c0, c1);
        let g = b.build().unwrap();
        let order: Vec<NodeId> = g.node_ids().collect();
        let s = VertexStructure::build(&g, &order, ConnectedSetMode::Exact);
        assert_eq!(s.wavefronts()[0], vec![0, 2]);
        assert_eq!(s.wavefronts()[1], vec![1, 3]);
        assert_eq!(s.max_wavefront_width(), 2);
    }

    /// Every position but a root is the anchor of exactly one later
    /// position's connected subsets, and a root of none: the anchors form
    /// a forest. The DP relies on it to free a child table's costs as soon
    /// as its one parent is filled.
    fn assert_anchor_forest(label: &str, g: &Graph) {
        for ordering in [
            OrderingKind::GenerateSeq,
            OrderingKind::BreadthFirst,
            OrderingKind::Random { seed: 11 },
        ] {
            let order = make_ordering(g, ordering);
            for mode in [ConnectedSetMode::Exact, ConnectedSetMode::Prefix] {
                let s = VertexStructure::build(g, &order, mode);
                let mut parents = vec![0usize; g.len()];
                for i in 0..g.len() {
                    for &j in s.subset_anchors(i) {
                        parents[j] += 1;
                    }
                }
                for (j, &n) in parents.iter().enumerate() {
                    let want = usize::from(!s.roots().contains(&j));
                    assert_eq!(
                        n, want,
                        "{label} {ordering:?}/{mode:?}: position {j} is a child of {n} tables"
                    );
                }
            }
        }
    }

    /// A random DAG, not always connected: node `i` is fed by up to three
    /// earlier nodes, picked from `seeds[i]`.
    fn random_dag(seeds: &[usize]) -> Graph {
        let mut b = GraphBuilder::new();
        let mut ids: Vec<NodeId> = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let mut feeds: Vec<usize> = if i == 0 {
                Vec::new()
            } else {
                (0..seed % 4).map(|k| (seed / 4 + 7 * k) % i).collect()
            };
            feeds.sort_unstable();
            feeds.dedup();
            let v = b.add_node(ew(&format!("n{i}"), feeds.len()));
            for &f in &feeds {
                b.connect(ids[f], v);
            }
            ids.push(v);
        }
        b.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn subset_anchors_form_a_forest_on_random_dags(
            seeds in prop::collection::vec(0usize..1000, 1..14),
        ) {
            assert_anchor_forest("random dag", &random_dag(&seeds));
        }
    }

    #[test]
    fn subset_anchors_form_a_forest_on_the_zoo() {
        assert_anchor_forest("two chains", &two_chains_join());
        for name in pase_models::MODEL_NAMES {
            let g = pase_models::build_named(name, 8, false).expect("zoo model builds");
            assert_anchor_forest(name, &g);
        }
    }

    #[test]
    #[should_panic(expected = "ordering repeats")]
    fn repeated_vertex_in_ordering_panics() {
        let g = two_chains_join();
        let mut order: Vec<NodeId> = g.node_ids().collect();
        order[1] = order[0];
        let _ = VertexStructure::build(&g, &order, ConnectedSetMode::Exact);
    }
}
