//! Hierarchical device meshes — the topology-aware machine model.
//!
//! [`MachineSpec`] reduces the whole cluster to one scalar balance
//! `r = F/B`. A [`DeviceMesh`] refines that into a small tree of
//! *axes* — innermost (fastest) first — each carrying the per-link
//! latency `α`, the per-link bandwidth `B` (stored as bytes/s, not as the
//! inverse `β`, so the flat mesh reproduces the scalar division `F / B`
//! bit-for-bit), and the per-device peak FLOP rate of the weakest device
//! reachable over that tier. Heterogeneous fleets (NVLink islands under a
//! PCIe host fabric, mixed GPU generations across nodes) become one mesh
//! instead of one pessimistic scalar.
//!
//! The cost rules extend PaSE §II/§V:
//!
//! * **compute** is charged in FLOPs of the *weakest* device anywhere in
//!   the mesh ([`DeviceMesh::effective_flops`]) — the paper's §V
//!   bottleneck argument: the slowest member sets the step clock;
//! * a collective over a group of `g` devices spans the smallest prefix
//!   of axes whose sizes multiply to at least `g` (canonical aligned
//!   placement fills inner axes first) and its ring is bottlenecked by the
//!   **slowest link** in that prefix, so its bytes are converted to
//!   FLOP-equivalents with `r_g = F_min / B_slowest(g)`
//!   ([`DeviceMesh::ratio_for_group`]);
//! * each ring step additionally pays the **largest `α`** in the spanned
//!   prefix, normalized to FLOPs ([`DeviceMesh::latency_flops`]).
//!
//! A flat single-axis mesh ([`DeviceMesh::flat`]) has one bandwidth class
//! and `α = 0`, which makes [`mesh_layer_cost`] and [`mesh_transfer_cost`]
//! evaluate the *identical* floating-point expressions as the scalar
//! [`crate::layer_cost`] / `r·transfer_bytes` model — the bit-exact parity
//! anchor that `tests/mesh_parity.rs` and `bench_search` pin.

use crate::config::Config;
use crate::events::{layer_comm_events, layer_compute_flops, Collective};
use crate::machine::MachineSpec;
use crate::transfer::transfer_bytes;
use pase_graph::Node;
use pase_obs::json;
use std::fmt::Write as _;

/// One tier of a [`DeviceMesh`]: `size` devices (or groups of the inner
/// tiers) connected by links with identical characteristics.
#[derive(Clone, Debug, PartialEq)]
pub struct MeshAxis {
    /// Axis name (reports / JSON; never enters the cost model or cache key).
    pub name: String,
    /// Number of devices (innermost axis) or inner groups (outer axes)
    /// along this axis.
    pub size: u32,
    /// Per-message link latency in seconds (`α`).
    pub alpha: f64,
    /// Per-link bandwidth in bytes/s (`B`).
    pub bandwidth: f64,
    /// Peak FLOP/s of the weakest device reachable over this tier (`F`).
    pub peak_flops: f64,
}

/// A hierarchical cluster: a list of [`MeshAxis`] tiers, innermost
/// (fastest) first.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceMesh {
    /// Mesh name (reports / logs; never enters the cost model or cache key).
    pub name: String,
    /// Axes, innermost first. Non-empty for every validated mesh.
    pub axes: Vec<MeshAxis>,
}

impl DeviceMesh {
    /// The flat single-axis mesh of a scalar [`MachineSpec`] — one
    /// bandwidth class (`link_bandwidth`) and zero latency, so every cost
    /// the mesh model produces is bit-identical to the scalar model's
    /// `compute + r·bytes`. The axis `size` is nominal (1): group
    /// resolution saturates at the outermost axis, so groups of any size
    /// see the same single link class.
    pub fn flat(spec: &MachineSpec) -> Self {
        Self {
            name: spec.name.clone(),
            axes: vec![MeshAxis {
                name: "link".to_string(),
                size: 1,
                alpha: 0.0,
                bandwidth: spec.link_bandwidth,
                peak_flops: spec.peak_flops,
            }],
        }
    }

    /// The paper's two-tier testbed shape (§IV-B): `per_node` devices on
    /// the intra-node bus, `nodes` nodes on the inter-node fabric, with
    /// the simulator's canonical latencies (5 µs intra, 15 µs inter).
    pub fn cluster(spec: &MachineSpec, nodes: u32, per_node: u32) -> Self {
        Self {
            name: spec.name.clone(),
            axes: vec![
                MeshAxis {
                    name: "gpu".to_string(),
                    size: per_node,
                    alpha: 5e-6,
                    bandwidth: spec.link_bandwidth,
                    peak_flops: spec.peak_flops,
                },
                MeshAxis {
                    name: "node".to_string(),
                    size: nodes,
                    alpha: 15e-6,
                    bandwidth: spec.internode_bandwidth,
                    peak_flops: spec.peak_flops,
                },
            ],
        }
    }

    /// Shape and rate validation: at least one axis, every `size ≥ 1`,
    /// positive finite `bandwidth` and `peak_flops`, non-negative finite
    /// `alpha`. The parse boundaries (wire requests, `--machine-file`)
    /// call this so hostile inputs surface as protocol errors instead of
    /// non-finite cost tables deep in a build.
    pub fn validate(&self) -> Result<(), String> {
        if self.axes.is_empty() {
            return Err("mesh has no axes".to_string());
        }
        for a in &self.axes {
            if a.size < 1 {
                return Err(format!("axis '{}': size must be >= 1", a.name));
            }
            if !(a.bandwidth.is_finite() && a.bandwidth > 0.0) {
                return Err(format!(
                    "axis '{}': bandwidth must be positive and finite, got {}",
                    a.name, a.bandwidth
                ));
            }
            if !(a.peak_flops.is_finite() && a.peak_flops > 0.0) {
                return Err(format!(
                    "axis '{}': peak_flops must be positive and finite, got {}",
                    a.name, a.peak_flops
                ));
            }
            if !(a.alpha.is_finite() && a.alpha >= 0.0) {
                return Err(format!(
                    "axis '{}': alpha must be non-negative and finite, got {}",
                    a.name, a.alpha
                ));
            }
        }
        Ok(())
    }

    /// Total devices across all axes (`∏ size`). Nominal for flat meshes
    /// (see [`DeviceMesh::flat`]).
    pub fn total_devices(&self) -> u64 {
        self.axes.iter().map(|a| u64::from(a.size)).product()
    }

    /// Peak FLOP/s of the weakest device in the mesh — the §V bottleneck
    /// rate the whole cost model is normalized to.
    pub fn effective_flops(&self) -> f64 {
        self.axes
            .iter()
            .map(|a| a.peak_flops)
            .fold(f64::INFINITY, f64::min)
    }

    /// Index of the outermost axis a group of `g` devices spans: the
    /// smallest prefix of axes whose sizes multiply to at least `g`
    /// (canonical aligned placement fills inner axes first), saturating at
    /// the outermost axis for oversubscribed groups.
    fn spanned(&self, g: u32) -> usize {
        self.reach()
            .position(|r| r >= u64::from(g))
            .unwrap_or(self.axes.len() - 1)
    }

    /// Saturating prefix products of the axis sizes: the `i`-th item is
    /// the number of devices axes `0..=i` hold.
    fn reach(&self) -> impl Iterator<Item = u64> + '_ {
        self.axes.iter().scan(1u64, |prod, a| {
            *prod = prod.saturating_mul(u64::from(a.size.max(1)));
            Some(*prod)
        })
    }

    /// Bandwidth of the slowest link within axes `0..=last`.
    fn bandwidth_through(&self, last: usize) -> f64 {
        self.axes[..=last]
            .iter()
            .map(|a| a.bandwidth)
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest per-message latency within axes `0..=last`.
    fn alpha_through(&self, last: usize) -> f64 {
        self.axes[..=last]
            .iter()
            .map(|a| a.alpha)
            .fold(0.0, f64::max)
    }

    /// Bandwidth of the slowest link a group of `g` devices spans — the
    /// ring-collective bottleneck.
    pub fn slowest_bandwidth(&self, g: u32) -> f64 {
        self.bandwidth_through(self.spanned(g))
    }

    /// Per-message latency of the slowest link a group of `g` devices
    /// spans.
    pub fn slowest_alpha(&self, g: u32) -> f64 {
        self.alpha_through(self.spanned(g))
    }

    /// FLOP-to-byte ratio `r_g = F_min / B_slowest(g)` for a communication
    /// group of `g` devices. On a flat mesh this is the scalar
    /// [`MachineSpec::flop_byte_ratio`] division, bit for bit, for every
    /// `g`.
    pub fn ratio_for_group(&self, g: u32) -> f64 {
        self.effective_flops() / self.slowest_bandwidth(g)
    }

    /// Latency of one collective over a group of `g` devices, normalized
    /// to FLOPs: ring steps × slowest `α` × `F_min`. Zero (exactly) on
    /// `α = 0` meshes.
    pub fn latency_flops(&self, collective: Collective, g: u32) -> f64 {
        self.slowest_alpha(g) * f64::from(ring_steps(collective, g)) * self.effective_flops()
    }

    /// The flat profile a mesh degrades to when a consumer needs a scalar
    /// [`MachineSpec`] (the execution simulator's inputs, display): the
    /// weakest compute, the innermost bandwidth as the link rate, and the
    /// slowest bandwidth anywhere as the internode rate.
    pub fn effective_spec(&self) -> MachineSpec {
        MachineSpec {
            name: self.name.clone(),
            peak_flops: self.effective_flops(),
            link_bandwidth: self.axes.first().map_or(f64::NAN, |a| a.bandwidth),
            internode_bandwidth: self
                .axes
                .iter()
                .map(|a| a.bandwidth)
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// Parse a mesh from a JSON value. Two shapes are accepted:
    ///
    /// * a scalar machine object
    ///   `{"name": …, "peak_flops": F, "link_bandwidth": B, …}` — becomes
    ///   the flat single-axis mesh of that profile
    ///   (`internode_bandwidth` is accepted and ignored by the flat
    ///   analytical model);
    /// * a mesh object `{"name": …, "axes": [{"name": …, "size": n,
    ///   "bandwidth": B, "peak_flops": F, "alpha": a}, …]}` with axes
    ///   innermost first (`alpha` defaults to 0).
    ///
    /// The result is [validated](DeviceMesh::validate).
    pub fn from_json_value(v: &json::Value) -> Result<Self, String> {
        let name = v
            .get("name")
            .and_then(json::Value::as_str)
            .unwrap_or("custom")
            .to_string();
        let mesh = if let Some(axes) = v.get("axes") {
            let axes = axes
                .as_array()
                .ok_or_else(|| "\"axes\" must be an array".to_string())?;
            let mut parsed = Vec::with_capacity(axes.len());
            for (i, a) in axes.iter().enumerate() {
                let num = |key: &str| {
                    a.get(key)
                        .and_then(json::Value::as_f64)
                        .ok_or_else(|| format!("axis {i}: missing or non-numeric \"{key}\""))
                };
                parsed.push(MeshAxis {
                    name: a
                        .get("name")
                        .and_then(json::Value::as_str)
                        .map_or_else(|| format!("axis{i}"), str::to_string),
                    size: a
                        .get("size")
                        .and_then(json::Value::as_u64)
                        .ok_or_else(|| format!("axis {i}: missing or invalid \"size\""))?
                        .try_into()
                        .map_err(|_| format!("axis {i}: \"size\" out of range"))?,
                    alpha: a.get("alpha").and_then(json::Value::as_f64).unwrap_or(0.0),
                    bandwidth: num("bandwidth")?,
                    peak_flops: num("peak_flops")?,
                });
            }
            Self { name, axes: parsed }
        } else {
            let num = |key: &str| {
                v.get(key)
                    .and_then(json::Value::as_f64)
                    .ok_or_else(|| format!("machine object needs \"axes\" or a numeric \"{key}\""))
            };
            Self::flat(&MachineSpec {
                name,
                peak_flops: num("peak_flops")?,
                link_bandwidth: num("link_bandwidth")?,
                internode_bandwidth: v
                    .get("internode_bandwidth")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(f64::INFINITY),
            })
        };
        mesh.validate()?;
        Ok(mesh)
    }

    /// Parse a mesh from JSON text (see [`DeviceMesh::from_json_value`]).
    pub fn from_json_str(src: &str) -> Result<Self, String> {
        Self::from_json_value(&json::parse(src)?)
    }

    /// Serialize as a canonical mesh-shaped JSON object (the second shape
    /// [`DeviceMesh::from_json_value`] accepts; round-trips exactly).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"axes\": [",
            json::escape(&self.name)
        );
        for (i, a) in self.axes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"size\": {}, \"alpha\": {}, \
                 \"bandwidth\": {}, \"peak_flops\": {}}}",
                json::escape(&a.name),
                a.size,
                json::number(a.alpha),
                json::number(a.bandwidth),
                json::number(a.peak_flops)
            );
        }
        out.push_str("]}");
        out
    }
}

/// Number of ring steps (messages per member) one `collective` over `g`
/// devices takes.
fn ring_steps(collective: Collective, g: u32) -> u32 {
    match collective {
        Collective::AllReduce => 2 * g.saturating_sub(1),
        Collective::AllGather => g.saturating_sub(1),
        Collective::PointToPoint => 1,
    }
}

/// Per-build lookup table of the mesh rates, indexed by *span*: the
/// outermost axis a group reaches ([`GroupTable::span`]). A group's ratio
/// and latency depend on its size only through its span, and the span is
/// monotone in the size, so `span(max(g, h)) == max(span(g), span(h))` —
/// the edge fill takes the larger of two hoisted spans instead of
/// resolving a group per configuration pair. Every entry is computed by
/// the same expression as [`DeviceMesh::ratio_for_group`] /
/// [`DeviceMesh::latency_flops`], so lookups are bit-identical to them.
pub(crate) struct GroupTable {
    reach: Vec<u64>,
    /// `ratio_for_group(g)` for every `g` of span `i`.
    pub(crate) ratio: Vec<f64>,
    /// `slowest_alpha(g)` for every `g` of span `i`.
    alpha: Vec<f64>,
    /// `latency_flops(PointToPoint, g)` for every `g` of span `i`.
    pub(crate) p2p: Vec<f64>,
    flops: f64,
}

impl GroupTable {
    pub(crate) fn new(mesh: &DeviceMesh) -> Self {
        let flops = mesh.effective_flops();
        let spans = 0..mesh.axes.len();
        let ratio: Vec<f64> = spans
            .clone()
            .map(|i| flops / mesh.bandwidth_through(i))
            .collect();
        let alpha: Vec<f64> = spans.map(|i| mesh.alpha_through(i)).collect();
        let p2p = alpha
            .iter()
            .map(|&a| a * f64::from(ring_steps(Collective::PointToPoint, 1)) * flops)
            .collect();
        Self {
            reach: mesh.reach().collect(),
            ratio,
            alpha,
            p2p,
            flops,
        }
    }

    /// The span of a group of `g` devices (`DeviceMesh::spanned`).
    #[inline]
    pub(crate) fn span(&self, g: u32) -> usize {
        self.reach
            .iter()
            .position(|&r| r >= u64::from(g))
            .unwrap_or(self.reach.len() - 1)
    }

    /// `latency_flops(collective, g)` for a group of `g` devices of span
    /// `span`.
    #[inline]
    pub(crate) fn latency(&self, collective: Collective, g: u32, span: usize) -> f64 {
        self.alpha[span] * f64::from(ring_steps(collective, g)) * self.flops
    }
}

/// Topology-aware `t_l(v, φ)`: like [`crate::layer_cost`] but with each
/// communication event charged at the ratio of the links its group
/// actually spans, plus per-ring-step latency.
///
/// Events are grouped into bandwidth classes in first-seen order and each
/// class's bytes are summed before the single `r_class · bytes` multiply —
/// so a flat mesh (one class, `α = 0`) evaluates the identical expression
/// `compute + r · Σ bytes` as the scalar model, bit for bit.
pub fn mesh_layer_cost(node: &Node, cfg: &Config, mesh: &DeviceMesh) -> f64 {
    debug_assert_eq!(
        cfg.rank(),
        node.rank(),
        "config rank mismatch for '{}'",
        node.name
    );
    let compute = layer_compute_flops(node, cfg);
    // (ratio bits, ratio, summed bytes) per bandwidth class.
    let mut classes: Vec<(u64, f64, f64)> = Vec::new();
    let mut latency = 0.0;
    for e in layer_comm_events(node, cfg) {
        let r = mesh.ratio_for_group(e.group);
        let bits = r.to_bits();
        match classes.iter_mut().find(|(b, _, _)| *b == bits) {
            Some(c) => c.2 += e.traffic_bytes(),
            None => classes.push((bits, r, e.traffic_bytes())),
        }
        latency += mesh.latency_flops(e.collective, e.group);
    }
    let mut cost = compute;
    for (_, r, bytes) in classes {
        cost += r * bytes;
    }
    cost + latency
}

/// Topology-aware `t_x(u, v, φ)` in FLOP units: the redistribution bytes
/// of the edge charged at the ratio of the group the two endpoint
/// configurations span (`max` of their device counts — the redistribution
/// reaches across the larger footprint), plus one point-to-point latency
/// when any bytes move. Bit-identical to `r · transfer_bytes(…)` on a
/// flat mesh.
pub fn mesh_transfer_cost(
    src: &Node,
    cu: &Config,
    dst: &Node,
    dst_slot: usize,
    cv: &Config,
    mesh: &DeviceMesh,
) -> f64 {
    let bytes = transfer_bytes(src, cu, dst, dst_slot, cv);
    let g = cu.product().max(cv.product()).min(u64::from(u32::MAX)) as u32;
    let cost = mesh.ratio_for_group(g) * bytes;
    if bytes > 0.0 {
        cost + mesh.latency_flops(Collective::PointToPoint, g)
    } else {
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigRule;
    use crate::enumerate_configs;
    use crate::layer::layer_cost;
    use pase_graph::{DimRole, IterDim, OpKind, TensorRef};

    fn fc() -> Node {
        let dims = vec![
            IterDim::new("b", 64, DimRole::Batch),
            IterDim::new("n", 256, DimRole::Param),
            IterDim::new("c", 512, DimRole::Reduction),
        ];
        let sizes: Vec<u64> = dims.iter().map(|d| d.size).collect();
        Node {
            name: "fc".into(),
            op: OpKind::FullyConnected,
            iter_space: dims,
            inputs: vec![TensorRef::aligned(vec![0, 2], &sizes)],
            output: TensorRef::aligned(vec![0, 1], &sizes),
            params: vec![TensorRef::aligned(vec![1, 2], &sizes)],
        }
    }

    fn two_tier() -> DeviceMesh {
        DeviceMesh::cluster(&MachineSpec::gtx1080ti(), 4, 8)
    }

    #[test]
    fn flat_mesh_reproduces_scalar_ratio_bitwise() {
        for spec in [
            MachineSpec::gtx1080ti(),
            MachineSpec::rtx2080ti(),
            MachineSpec::test_machine(),
        ] {
            let mesh = DeviceMesh::flat(&spec);
            for g in [1, 2, 8, 64, 4096] {
                assert_eq!(
                    mesh.ratio_for_group(g).to_bits(),
                    spec.flop_byte_ratio().to_bits()
                );
                assert_eq!(mesh.slowest_alpha(g), 0.0);
            }
        }
    }

    #[test]
    fn flat_mesh_layer_cost_is_bit_identical_to_scalar() {
        let n = fc();
        let spec = MachineSpec::gtx1080ti();
        let mesh = DeviceMesh::flat(&spec);
        let r = spec.flop_byte_ratio();
        for cfg in enumerate_configs(&n, &ConfigRule::new(16).allow_idle()) {
            assert_eq!(
                mesh_layer_cost(&n, &cfg, &mesh).to_bits(),
                layer_cost(&n, &cfg, r).to_bits(),
                "diverged at {cfg}"
            );
        }
    }

    #[test]
    fn group_resolution_picks_the_smallest_covering_prefix() {
        let m = two_tier(); // 8 gpus/node × 4 nodes
                            // groups within one node see only the PCIe tier
        assert_eq!(m.slowest_bandwidth(2), 12.0e9);
        assert_eq!(m.slowest_bandwidth(8), 12.0e9);
        // larger groups cross InfiniBand, the slower link
        assert_eq!(m.slowest_bandwidth(9), 6.0e9);
        assert_eq!(m.slowest_bandwidth(32), 6.0e9);
        // oversubscribed groups saturate at the outermost tier
        assert_eq!(m.slowest_bandwidth(1000), 6.0e9);
        assert!(m.slowest_alpha(8) < m.slowest_alpha(9));
    }

    #[test]
    fn cross_node_groups_cost_more_than_intra_node() {
        let m = two_tier();
        assert!(m.ratio_for_group(32) > m.ratio_for_group(8));
        // latency: all-reduce pays 2(g−1) ring steps
        let lat8 = m.latency_flops(Collective::AllReduce, 8);
        assert_eq!(lat8, 5e-6 * 14.0 * 11.3e12);
        assert!(m.latency_flops(Collective::AllReduce, 16) > lat8);
    }

    #[test]
    fn heterogeneous_compute_is_bottlenecked_by_the_weakest_device() {
        let mut m = two_tier();
        m.axes[1].peak_flops = 5.0e12; // older GPUs on the far nodes
        assert_eq!(m.effective_flops(), 5.0e12);
        assert_eq!(m.effective_spec().peak_flops, 5.0e12);
    }

    #[test]
    fn validate_rejects_hostile_shapes() {
        let spec = MachineSpec::gtx1080ti();
        assert!(DeviceMesh {
            name: "e".into(),
            axes: vec![]
        }
        .validate()
        .is_err());
        let mut m = DeviceMesh::flat(&spec);
        m.axes[0].size = 0;
        assert!(m.validate().is_err());
        let mut m = DeviceMesh::flat(&spec);
        m.axes[0].bandwidth = 0.0;
        assert!(m.validate().is_err());
        let mut m = DeviceMesh::flat(&spec);
        m.axes[0].alpha = -1.0;
        assert!(m.validate().is_err());
        assert!(DeviceMesh::flat(&spec).validate().is_ok());
        assert!(two_tier().validate().is_ok());
    }

    #[test]
    fn json_round_trips_and_accepts_both_shapes() {
        let m = two_tier();
        let back = DeviceMesh::from_json_str(&m.to_json()).unwrap();
        assert_eq!(back, m);
        // scalar machine shape becomes a flat mesh
        let flat = DeviceMesh::from_json_str(
            "{\"name\": \"lab\", \"peak_flops\": 1e12, \"link_bandwidth\": 1e9}",
        )
        .unwrap();
        assert_eq!(flat.axes.len(), 1);
        assert_eq!(flat.ratio_for_group(8), 1000.0);
        assert_eq!(flat.name, "lab");
        // hostile inputs are parse errors, not NaN costs
        assert!(DeviceMesh::from_json_str("{\"axes\": []}").is_err());
        assert!(DeviceMesh::from_json_str(
            "{\"axes\": [{\"size\": 0, \"bandwidth\": 1e9, \"peak_flops\": 1e12}]}"
        )
        .is_err());
        assert!(DeviceMesh::from_json_str("{\"name\": \"x\"}").is_err());
    }

    #[test]
    fn transfer_cost_uses_the_span_of_the_larger_endpoint() {
        let n = fc();
        let mesh = two_tier();
        let cu = Config::new(&[8, 1, 1]);
        let cv = Config::new(&[1, 32, 1]);
        let bytes = transfer_bytes(&n, &cu, &n, 0, &cv);
        assert!(bytes > 0.0);
        let got = mesh_transfer_cost(&n, &cu, &n, 0, &cv, &mesh);
        let expect =
            mesh.ratio_for_group(32) * bytes + mesh.latency_flops(Collective::PointToPoint, 32);
        assert_eq!(got.to_bits(), expect.to_bits());
    }
}
