//! Exhaustive strategy enumeration (the §III-A "naïve approach" in its
//! purest form).
//!
//! Enumerates the full cartesian product `∏_v C(v)` and evaluates `F(G, φ)`
//! directly for each strategy. Exponential in `|V|` — usable only on small
//! graphs — but it is the ground truth for Theorem 1: the DP must return
//! exactly this minimum.

use pase_cost::CostTables;
use pase_graph::Graph;

/// Find `min_φ F(G, φ)` and one argmin by exhaustive enumeration. Panics if
/// the strategy space exceeds `2^32` combinations (use the DP for anything
/// bigger). A vertex with an empty `C(v)` leaves no strategy at all: the
/// answer is `(∞, [])`, since no id would name a real configuration.
pub fn brute_force(graph: &Graph, tables: &CostTables) -> (f64, Vec<u16>) {
    let n = graph.len();
    if n == 0 {
        return (0.0, vec![]);
    }
    let ks: Vec<u64> = graph.node_ids().map(|v| tables.k(v) as u64).collect();
    if ks.contains(&0) {
        return (f64::INFINITY, vec![]);
    }
    let total: u64 = ks
        .iter()
        .try_fold(1u64, |acc, &k| {
            let t = acc.checked_mul(k)?;
            (t <= 1 << 32).then_some(t)
        })
        .expect("strategy space too large for brute force");

    let mut best = f64::INFINITY;
    let mut best_ids = vec![0u16; n];
    let mut ids = vec![0u16; n];
    for flat in 0..total {
        let mut rem = flat;
        for v in (0..n).rev() {
            ids[v] = (rem % ks[v]) as u16;
            rem /= ks[v];
        }
        let cost = tables.evaluate_ids(graph, &ids);
        if cost < best {
            best = cost;
            best_ids.copy_from_slice(&ids);
        }
    }
    (best, best_ids)
}

/// Sample `count` random strategies (seeded) and return their costs; used
/// by property tests to bound the DP's result from above.
pub fn random_strategy_costs(
    graph: &Graph,
    tables: &CostTables,
    seed: u64,
    count: usize,
) -> Vec<f64> {
    let n = graph.len();
    let ks: Vec<u64> = graph.node_ids().map(|v| tables.k(v) as u64).collect();
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..count)
        .map(|_| {
            let ids: Vec<u16> = (0..n).map(|v| (next() % ks[v].max(1)) as u16).collect();
            tables.evaluate_ids(graph, &ids)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pase_cost::{ConfigRule, MachineSpec};
    use pase_graph::{DimRole, GraphBuilder, IterDim, Node, NodeId, OpKind, TensorRef};

    fn fc(name: &str, ins: usize) -> Node {
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
    }

    #[test]
    fn brute_force_beats_every_random_strategy() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(fc("x", 0));
        let y = b.add_node(fc("y", 1));
        b.connect(x, y);
        let g = b.build().unwrap();
        let t = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let (best, ids) = brute_force(&g, &t);
        assert!((t.evaluate_ids(&g, &ids) - best).abs() < 1e-9);
        for cost in random_strategy_costs(&g, &t, 123, 50) {
            assert!(best <= cost + 1e-9);
        }
    }

    #[test]
    fn brute_force_on_single_node_picks_cheapest_config() {
        let mut b = GraphBuilder::new();
        b.add_node(fc("solo", 0));
        let g = b.build().unwrap();
        let t = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let (best, ids) = brute_force(&g, &t);
        let min_direct = (0..t.k(NodeId(0)) as u16)
            .map(|c| t.evaluate_ids(&g, &[c]))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(best, min_direct);
        assert_eq!(ids.len(), 1);
    }
}
