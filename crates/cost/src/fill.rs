//! The factored cost-table fill behind [`crate::CostTables`].
//!
//! [`fill_layer`] and [`fill_edge`] produce exactly the entries the
//! per-entry model would — [`crate::mesh_layer_cost`],
//! [`crate::config_memory_bytes`] and [`crate::mesh_transfer_cost`], bit
//! for bit — but hoist everything that depends on one configuration only
//! out of the per-entry work, and allocate nothing per configuration or
//! per pair. Each f64 operation sees the same operands in the same order
//! as in the per-entry functions; hoisting only changes *when* a value is
//! computed, never how.

use crate::config::{layer_footprint_bytes, Config};
use crate::events::{compute_flops, for_each_comm_event, traffic_bytes};
use crate::memory::memory_charge;
use crate::mesh::GroupTable;
use crate::tables::{EdgeTable, LayerEntry};
use pase_graph::Node;
use std::sync::Arc;

/// The first non-finite entry of one class: flat index and value.
pub(crate) type NonFinite = Option<(usize, f64)>;

/// One filled layer class plus what its edges reuse.
pub(crate) struct LayerFill {
    pub(crate) entry: LayerEntry,
    /// Span ([`GroupTable::span`]) of each configuration's device count —
    /// the group an edge transfer from or to that configuration reaches.
    pub(crate) spans: Vec<u32>,
    pub(crate) non_finite: NonFinite,
}

/// Layer cost and memory charge of every configuration of `node`.
///
/// Per configuration this evaluates `mesh_layer_cost`'s expression —
/// compute, then `r · bytes` per bandwidth class in first-seen order, then
/// the summed latency — and `config_memory_bytes`'s largest-buffer fold,
/// from one pass over the events with the class list reused across
/// configurations.
pub(crate) fn fill_layer(node: &Node, configs: Vec<Config>, groups: &GroupTable) -> LayerFill {
    let step_flops = node.step_flops();
    let mut costs = Vec::with_capacity(configs.len());
    let mut mem = Vec::with_capacity(configs.len());
    let mut spans = Vec::with_capacity(configs.len());
    // (ratio bits, ratio, summed bytes) per bandwidth class.
    let mut classes: Vec<(u64, f64, f64)> = Vec::new();
    for cfg in &configs {
        let product = cfg.product();
        spans.push(groups.span(product.min(u64::from(u32::MAX)) as u32) as u32);
        let compute = compute_flops(node, step_flops, product, cfg);
        classes.clear();
        let mut latency = 0.0;
        let mut comm_buf = 0.0_f64;
        for_each_comm_event(node, cfg, |e| {
            let span = groups.span(e.group);
            let r = groups.ratio[span];
            let bits = r.to_bits();
            let traffic = traffic_bytes(e.collective, e.volume, e.group);
            match classes.iter_mut().find(|(b, _, _)| *b == bits) {
                Some(c) => c.2 += traffic,
                None => classes.push((bits, r, traffic)),
            }
            latency += groups.latency(e.collective, e.group, span);
            comm_buf = f64::max(comm_buf, e.volume);
        });
        let mut cost = compute;
        for &(_, r, bytes) in &classes {
            cost += r * bytes;
        }
        costs.push(cost + latency);
        mem.push(memory_charge(layer_footprint_bytes(node, cfg), comm_buf));
    }
    let non_finite = first_non_finite(&costs);
    LayerFill {
        entry: LayerEntry {
            configs,
            costs,
            mem,
        },
        spans,
        non_finite,
    }
}

/// The transfer matrix of the edge feeding `slot` of `dst` from `src`:
/// entry `cu * |v| + cv` is `mesh_transfer_cost` of that pair.
///
/// `try_transfer_bytes` computes, per tensor dimension `t` of extent
/// `s_t`, `need *= s_t / b_t` and `overlap *= s_t / max(a_t, b_t)`. Each
/// quotient depends on one side only, so it is divided once per
/// configuration and dimension; and `s_t / max(a_t, b_t)` is the smaller
/// of the two sides' quotients, because dividing `s_t ≥ 0` by a larger
/// split never rounds to a larger result. `need` is a consumer-only
/// product, taken once per consumer in the same dimension order. The group
/// a pair reaches is the larger of the two endpoints' spans (the span is
/// monotone in the device count). What is left per pair is a `min` and a
/// multiply per dimension, the `bytes` expression, one rate multiply and
/// the latency branch; the consumer quotients are stored column-major so
/// the per-dimension pass runs over contiguous memory.
///
/// The graph builder guarantees `slot` exists and the two tensors have the
/// same rank.
pub(crate) fn fill_edge(
    (src, u): (&Node, &LayerFill),
    (dst, v): (&Node, &LayerFill),
    slot: usize,
    groups: &GroupTable,
) -> (EdgeTable, NonFinite) {
    let out = &src.output;
    let inp = &dst.inputs[slot];
    assert_eq!(
        out.rank(),
        inp.rank(),
        "edge tensor rank mismatch: '{}' → '{}' slot {slot}",
        src.name,
        dst.name
    );
    let rank = inp.rank();
    let (cu_list, cv_list) = (&u.entry.configs, &v.entry.configs);
    let k_dst = cv_list.len();
    let extent = |t: usize| inp.sizes[t] as f64;
    // Producer quotients row-major (`rank` per configuration), consumer
    // quotients column-major (`k_dst` per dimension).
    let quot_u: Vec<f64> = cu_list
        .iter()
        .flat_map(|c| (0..rank).map(move |t| extent(t) / f64::from(c.split(out.dims[t] as usize))))
        .collect();
    let quot_v: Vec<f64> = (0..rank)
        .flat_map(|t| {
            cv_list
                .iter()
                .map(move |c| extent(t) / f64::from(c.split(inp.dims[t] as usize)))
        })
        .collect();
    let needs: Vec<f64> = (0..k_dst)
        .map(|b| {
            let mut need = 1.0;
            for t in 0..rank {
                need *= quot_v[t * k_dst + b];
            }
            need
        })
        .collect();
    let elem = f64::from(inp.elem_bytes);
    let mut costs = vec![0.0; cu_list.len() * k_dst];
    let mut overlap = vec![0.0; k_dst];
    for (a, row) in costs.chunks_exact_mut(k_dst.max(1)).enumerate() {
        overlap.fill(1.0);
        for t in 0..rank {
            let q_a = quot_u[a * rank + t];
            for (o, &q_b) in overlap.iter_mut().zip(&quot_v[t * k_dst..][..k_dst]) {
                *o *= q_a.min(q_b);
            }
        }
        let span_u = u.spans[a];
        for (((cost, &need), &overlap), &span_v) in
            row.iter_mut().zip(&needs).zip(&overlap).zip(&v.spans)
        {
            let bytes = 2.0 * (need - overlap).max(0.0) * elem;
            let span = span_u.max(span_v) as usize;
            let c = groups.ratio[span] * bytes;
            *cost = if bytes > 0.0 { c + groups.p2p[span] } else { c };
        }
    }
    let non_finite = first_non_finite(&costs);
    (
        EdgeTable {
            k_dst: k_dst as u32,
            costs: Arc::new(costs),
        },
        non_finite,
    )
}

/// The first non-finite entry of one class's cost vector.
pub(crate) fn first_non_finite(costs: &[f64]) -> NonFinite {
    costs
        .iter()
        .position(|x| !x.is_finite())
        .map(|i| (i, costs[i]))
}
