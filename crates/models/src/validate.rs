//! Model-graph validation helpers.

use pase_graph::Graph;

/// Check that every edge's producer output and consumer input describe the
/// same tensor: per-dimension extents within `slack` relative tolerance
/// (strided convolutions/poolings round their inferred input extents, e.g.
/// a 3×3/2 pooling of a 55-wide map reads 54-of-55 rows, so exact equality
/// is deliberately not required). Equal rank is already guaranteed by
/// `GraphBuilder::build`.
pub fn validate_edge_tensors(g: &Graph, slack: f64) -> Result<(), String> {
    for e in g.edges() {
        let src = g.node(e.src);
        let dst = g.node(e.dst);
        let out = &src.output;
        let inp = &dst.inputs[e.dst_slot as usize];
        for t in 0..out.rank() {
            let a = out.sizes[t] as f64;
            let b = inp.sizes[t] as f64;
            let ratio = if a > b { a / b } else { b / a };
            if ratio > 1.0 + slack {
                return Err(format!(
                    "size mismatch on '{}' → '{}' slot {} dim {}: {} vs {}",
                    src.name, dst.name, e.dst_slot, t, out.sizes[t], inp.sizes[t]
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use pase_graph::GraphBuilder;

    #[test]
    fn accepts_matched_chain() {
        let mut b = GraphBuilder::new();
        let c1 = b.add_node(ops::conv2d("c1", 8, 3, 32, 32, 16, 3, 3, 1));
        let c2 = b.add_node(ops::conv2d("c2", 8, 16, 32, 32, 32, 3, 3, 1));
        b.connect(c1, c2);
        let g = b.build().unwrap();
        assert!(validate_edge_tensors(&g, 0.15).is_ok());
    }

    #[test]
    fn rejects_gross_size_mismatch() {
        let mut b = GraphBuilder::new();
        let c1 = b.add_node(ops::conv2d("c1", 8, 3, 32, 32, 16, 3, 3, 1));
        let c2 = b.add_node(ops::conv2d("c2", 8, 64, 32, 32, 32, 3, 3, 1)); // expects 64 ch
        b.connect(c1, c2);
        let g = b.build().unwrap();
        assert!(validate_edge_tensors(&g, 0.15).is_err());
    }
}
