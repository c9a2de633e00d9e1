//! Strategy export.
//!
//! PaSE's output is a per-layer sharding decision; "frameworks such as
//! GShard can take user-specified parallelization strategies, such as the
//! ones computed by our approach, and automatically perform efficient
//! device assignment by simply aligning the sharding decisions of adjacent
//! layers" (§II). This module serializes a [`Strategy`] into a stable JSON
//! document of exactly that shape: one annotation per layer with the
//! iteration-dimension names, extents, and split factors — everything a
//! Mesh-TF/GShard-style runtime needs to materialize the device meshes.

use crate::strategy::Strategy;
use pase_graph::Graph;
use std::fmt::Write;

/// RFC 8259 string escaping (quotes, backslashes, and *all* control
/// characters — a node name containing `\n` or `\t` must still produce a
/// valid JSON document).
fn escape(s: &str) -> String {
    pase_obs::json::escape(s)
}

/// Serialize `strategy` as a GShard-style JSON sharding specification.
///
/// ```json
/// {
///   "devices": 8,
///   "layers": [
///     {"name": "fc0", "op": "fc", "dims": ["b","n","c"],
///      "sizes": [64,4096,1024], "splits": [1,4,2]},
///     ...
///   ]
/// }
/// ```
pub fn to_sharding_json(graph: &Graph, strategy: &Strategy) -> String {
    to_sharding_json_with(graph, strategy, &[])
}

/// [`to_sharding_json`] with additional top-level `(key, raw JSON value)`
/// entries injected before `"devices"` — the CLI uses this to embed the
/// machine-readable search report alongside the sharding spec. Importers
/// ([`from_sharding_json`]) ignore unknown keys, so the document remains a
/// valid input for `pase simulate`.
pub fn to_sharding_json_with(graph: &Graph, strategy: &Strategy, extra: &[(&str, &str)]) -> String {
    assert_eq!(
        strategy.len(),
        graph.len(),
        "strategy must cover every node"
    );
    let mut out = String::with_capacity(128 * graph.len());
    out.push_str("{\n");
    for (key, value) in extra {
        let _ = writeln!(out, "  \"{}\": {value},", escape(key));
    }
    let devices = strategy.max_devices_used();
    let _ = write!(out, "  \"devices\": {devices},\n  \"layers\": [\n");
    for (idx, (id, node)) in graph.iter().enumerate() {
        let cfg = strategy.config(id);
        let dims: Vec<String> = node
            .iter_space
            .iter()
            .map(|d| format!("\"{}\"", escape(d.name)))
            .collect();
        let sizes: Vec<String> = node.iter_space.iter().map(|d| d.size.to_string()).collect();
        let splits: Vec<String> = cfg.splits().iter().map(|c| c.to_string()).collect();
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"op\": \"{}\", \"dims\": [{}], \"sizes\": [{}], \"splits\": [{}]}}",
            escape(&node.name),
            node.op.tag(),
            dims.join(","),
            sizes.join(","),
            splits.join(",")
        );
        out.push_str(if idx + 1 < graph.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parse a sharding specification produced by [`to_sharding_json`] back
/// into a [`Strategy`] for `graph`. Layers are matched **by name**, so the
/// file may list them in any order; every graph layer must be covered and
/// split counts must match the layer's iteration-space rank.
pub fn from_sharding_json(graph: &Graph, json: &str) -> Result<Strategy, String> {
    let value = json::parse(json)?;
    let layers = value
        .get("layers")
        .and_then(json::Value::as_array)
        .ok_or("missing \"layers\" array")?;
    let mut by_name = std::collections::HashMap::new();
    for layer in layers {
        let name = layer
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or("layer without \"name\"")?;
        let splits: Vec<u32> = layer
            .get("splits")
            .and_then(json::Value::as_array)
            .ok_or_else(|| format!("layer '{name}' without \"splits\""))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|x| u32::try_from(x).ok())
                    .ok_or_else(|| format!("layer '{name}': non-integer split"))
            })
            .collect::<Result<_, _>>()?;
        if by_name.insert(name.to_string(), splits).is_some() {
            return Err(format!("duplicate layer '{name}' in spec"));
        }
    }
    let mut configs = Vec::with_capacity(graph.len());
    for node in graph.nodes() {
        let splits = by_name
            .remove(&node.name)
            .ok_or_else(|| format!("spec does not cover layer '{}'", node.name))?;
        if splits.len() != node.rank() {
            return Err(format!(
                "layer '{}': {} splits for a rank-{} iteration space",
                node.name,
                splits.len(),
                node.rank()
            ));
        }
        configs.push(crate::config::Config::new(&splits));
    }
    Ok(Strategy::new(configs))
}

// The JSON subset parser these importers rely on is shared workspace-wide
// (sharding specs here, cache entries and the planner-service wire protocol
// in `pase-serve`) and lives in [`pase_obs::json`].
use pase_obs::json;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use pase_graph::{DimRole, GraphBuilder, IterDim, Node, OpKind, TensorRef};

    fn tiny_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let fc = Node {
            name: "fc \"quoted\"".into(),
            op: OpKind::FullyConnected,
            iter_space: vec![
                IterDim::new("b", 64, DimRole::Batch),
                IterDim::new("n", 128, DimRole::Param),
            ],
            inputs: vec![],
            output: TensorRef::new(vec![0, 1], vec![64, 128]),
            params: vec![],
        };
        b.add_node(fc);
        b.build().unwrap()
    }

    #[test]
    fn json_contains_layer_annotations() {
        let g = tiny_graph();
        let s = Strategy::new(vec![Config::new(&[4, 2])]);
        let json = to_sharding_json(&g, &s);
        assert!(json.contains("\"devices\": 8"));
        assert!(json.contains("\"splits\": [4,2]"));
        assert!(json.contains("\"sizes\": [64,128]"));
        assert!(json.contains("\"dims\": [\"b\",\"n\"]"));
        assert!(json.contains("\"op\": \"fc\""));
    }

    #[test]
    fn names_are_escaped() {
        let g = tiny_graph();
        let s = Strategy::new(vec![Config::ones(2)]);
        let json = to_sharding_json(&g, &s);
        assert!(json.contains("fc \\\"quoted\\\""));
    }

    #[test]
    fn roundtrip_through_json() {
        let mut b = GraphBuilder::new();
        let mk = |name: &str| Node {
            name: name.into(),
            op: OpKind::FullyConnected,
            iter_space: vec![
                IterDim::new("b", 64, DimRole::Batch),
                IterDim::new("n", 128, DimRole::Param),
                IterDim::new("c", 128, DimRole::Reduction),
            ],
            inputs: vec![],
            output: TensorRef::new(vec![0, 1], vec![64, 128]),
            params: vec![],
        };
        b.add_node(mk("fc0"));
        b.add_node(mk("fc1"));
        let g = b.build().unwrap();
        let s = Strategy::new(vec![Config::new(&[2, 4, 1]), Config::new(&[1, 1, 8])]);
        let json = to_sharding_json(&g, &s);
        let back = from_sharding_json(&g, &json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn import_rejects_missing_and_mismatched_layers() {
        let g = tiny_graph();
        assert!(from_sharding_json(&g, "{\"layers\": []}")
            .unwrap_err()
            .contains("does not cover"));
        let wrong_rank = "{\"layers\": [{\"name\": \"fc \\\"quoted\\\"\", \"splits\": [2]}]}";
        assert!(from_sharding_json(&g, wrong_rank)
            .unwrap_err()
            .contains("rank"));
    }

    #[test]
    fn import_rejects_malformed_json() {
        let g = tiny_graph();
        for bad in ["{", "[1,2", "{\"layers\": [}]}", "{\"layers\": 3}", ""] {
            assert!(from_sharding_json(&g, bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn control_characters_roundtrip() {
        // Node names with \n, \t, and raw control bytes used to produce
        // invalid JSON (only '"' and '\\' were escaped). The document must
        // now be RFC 8259-clean and parse back to the same strategy.
        let mut b = GraphBuilder::new();
        b.add_node(Node {
            name: "weird\n\tname \u{1}\u{7}".into(),
            op: OpKind::FullyConnected,
            iter_space: vec![
                IterDim::new("b", 64, DimRole::Batch),
                IterDim::new("n", 128, DimRole::Param),
            ],
            inputs: vec![],
            output: TensorRef::new(vec![0, 1], vec![64, 128]),
            params: vec![],
        });
        let g = b.build().unwrap();
        let s = Strategy::new(vec![Config::new(&[2, 2])]);
        let json = to_sharding_json(&g, &s);
        // No raw control characters other than the newlines we emit as
        // layout may remain inside the document.
        assert!(!json.chars().any(|c| (c as u32) < 0x20 && c != '\n'));
        assert!(json.contains("\\n") && json.contains("\\t") && json.contains("\\u0001"));
        let back = from_sharding_json(&g, &json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn parser_handles_unicode_and_floats() {
        // Multi-byte UTF-8 must survive parsing (the old byte-wise parser
        // mangled it), and float/negative numbers must be accepted so a
        // search report can be embedded in the document.
        let v = json::parse("{\"λ名\": \"καλá\", \"x\": -1.5e2, \"n\": 7}").unwrap();
        assert_eq!(v.get("λ名").and_then(json::Value::as_str), Some("καλá"));
        assert_eq!(v.get("x").and_then(json::Value::as_f64), Some(-150.0));
        assert_eq!(v.get("n").and_then(json::Value::as_u64), Some(7));
        // Escape sequences including surrogate pairs.
        let s = json::parse("\"a\\u0041\\ud83d\\ude00\\n\\/\"").unwrap();
        assert_eq!(s.as_str(), Some("aA😀\n/"));
        // Malformed escapes are rejected, not mangled.
        for bad in ["\"\\u12\"", "\"\\ud83d\"", "\"\\q\"", "\"\\ud83d\\u0041\""] {
            assert!(json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn extra_keys_are_injected_and_ignored_by_import() {
        let g = tiny_graph();
        let s = Strategy::new(vec![Config::new(&[4, 2])]);
        let json = to_sharding_json_with(&g, &s, &[("report", "{\"elapsed\": 0.25}")]);
        assert!(json.contains("\"report\": {\"elapsed\": 0.25}"));
        let back = from_sharding_json(&g, &json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn document_is_balanced() {
        let g = tiny_graph();
        let s = Strategy::new(vec![Config::ones(2)]);
        let json = to_sharding_json(&g, &s);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.ends_with("}\n"));
    }
}
