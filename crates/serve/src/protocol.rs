//! The planner service's wire protocol: newline-delimited JSON.
//!
//! A client sends one JSON object per line and receives one JSON object per
//! line in return. Requests name a model from [`pase_models::MODEL_NAMES`]
//! and a machine — a registry profile from [`MachineSpec::by_name`] or an
//! inline [`DeviceMesh`] object; responses embed a full
//! [`pase_core::SearchReport`] plus the strategy and cache metadata.
//!
//! ## Request
//!
//! ```json
//! {"model": "alexnet", "devices": 8, "machine": "1080ti",
//!  "weak_scaling": true, "prune": true, "epsilon": 0.0,
//!  "budget_entries": 268435456, "budget_seconds": 600.0,
//!  "deadline_ms": 30000}
//! ```
//!
//! Only `"model"` is required. Defaults: 8 devices, the `1080ti` profile,
//! weak scaling on, pruning off, the standard [`SearchBudget`], and the
//! server's configured per-request deadline. With `"prune": true` the
//! dominance prune always runs. Unknown fields are ignored — among them
//! two that older servers accepted and that never changed an answer:
//! `"dp_kernel"`, which picked the DP fill loop (`stats.dp_kernel` in the
//! embedded report still names the engine that ran), and `"prune_gate"`,
//! which could skip the prune.
//!
//! `"machine"` also accepts an **inline object** (schema_version 4+)
//! instead of a profile name — either a scalar machine
//! (`{"name": "a100", "peak_flops": 1e13, "link_bandwidth": 2e10}`,
//! costed as a flat single-axis mesh, bit-identical to the scalar model)
//! or a hierarchical device mesh with axes innermost first:
//!
//! ```json
//! {"model": "alexnet", "machine": {"name": "pod", "axes": [
//!   {"name": "gpu",  "size": 8, "bandwidth": 2e10, "peak_flops": 1e13,
//!    "alpha": 5e-6},
//!   {"name": "node", "size": 4, "bandwidth": 3e9,  "peak_flops": 1e13,
//!    "alpha": 15e-6}]}}
//! ```
//!
//! Inline machines are validated up front: non-finite or non-positive
//! rates and empty axis lists are protocol errors, and an unknown profile
//! *name* is a protocol error listing the known registry. Distinct meshes
//! cache separately — the cache key hashes every axis.
//!
//! Two optional fields select the **frontier family** of searches:
//! `"max_memory_bytes": N` asks for the fastest strategy whose peak
//! per-device memory fits in `N` bytes, and `"frontier": true` asks for
//! the whole `(step time, peak memory)` Pareto frontier. Either one makes
//! the server run (and cache) a frontier search; the cache key excludes
//! the budget, so any number of `max_memory_bytes` variants of the same
//! search are answered from one cached frontier by point selection — only
//! the first costs a DP fill.
//!
//! ## Response
//!
//! ```json
//! {"schema_version": 4, "cached": false, "cache_key": "9a3f…",
//!  "cost": 1.23e9, "strategy": [0, 4, 2],
//!  "report": {"schema_version": 4, "model": "alexnet", …}}
//! ```
//!
//! or, on failure, `{"schema_version": 4, "error": "…"}`.
//!
//! Frontier-family responses add `"peak_memory_bytes"` (the selected
//! strategy's peak per-device memory) and `"infeasible"`; when no point
//! fits the requested budget, `"infeasible"` is `true`, `"cost"` and
//! `"strategy"` are `null`, and `"min_memory_bytes"` reports the smallest
//! peak memory any strategy achieves. A `"frontier": true` request
//! additionally gets the full frontier as
//! `"frontier": [{"cost": …, "memory_bytes": …, "strategy": […]}, …]`,
//! sorted by increasing cost / strictly decreasing memory.
//!
//! ## Batch
//!
//! `{"batch": [{"model": "mlp", "devices": 4}, {"model": "alexnet"}, …]}`
//! runs up to [`MAX_BATCH`] searches and answers them as **one** response
//! array written in a single syscall:
//!
//! ```json
//! {"schema_version": 4, "batch": [{"cached": false, …}, {"cached": true, …}]}
//! ```
//!
//! Elements are answered in order through the same cache/singleflight
//! path as single requests, so a batch of N identical queries costs one
//! search plus N−1 cache hits. Batches parse strictly: one malformed
//! element rejects the whole line with an error naming its index.
//!
//! ## Stats
//!
//! `{"stats": true}` returns the server's counters instead of running a
//! search:
//!
//! ```json
//! {"schema_version": 4, "stats": {"requests": 120, "cache_hits": 80,
//!  "cache_misses": 25, "coalesced": 15, "in_flight": 2, "entries": 31,
//!  "cache_bytes": 48123}}
//! ```
//!
//! `coalesced` counts requests answered by waiting on another request's
//! identical in-flight search (the singleflight layer); `in_flight` is the
//! number of searches running at the instant of the probe; `entries` is
//! the in-memory strategy-cache population and `cache_bytes` its
//! approximate resident footprint (the byte-weighted LRU's accounting
//! unit).

use pase_core::{Error, FrontierPoint, PruneGate, SearchBudget, SCHEMA_VERSION};
use pase_cost::{DeviceMesh, MachineSpec};
use pase_obs::json;
use std::fmt::Write as _;
use std::time::Duration;

/// Maximum number of search requests in one `{"batch": […]}` line. Bounds
/// the time a single wire request can hold a worker; clients wanting more
/// split into multiple batch lines.
pub const MAX_BATCH: usize = 1024;

/// One parsed request line: a strategy search, a batch of searches, or a
/// stats probe.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestKind {
    /// A strategy-search request.
    Search(Box<Request>),
    /// A `{"batch": […]}` request: several searches answered as one
    /// response array in one write.
    Batch(Vec<Request>),
    /// A `{"stats": true}` counter probe.
    Stats,
}

impl RequestKind {
    /// Parse one request line, dispatching on the `"batch"` / `"stats"`
    /// markers. A batch is parsed strictly: any malformed element rejects
    /// the whole line with an error naming the element index, so a client
    /// never has to correlate partial failures.
    pub fn parse(line: &str) -> Result<Self, Error> {
        let v = json::parse(line).map_err(Error::Protocol)?;
        if let Some(b) = v.get("batch") {
            let elems = b
                .as_array()
                .ok_or_else(|| Error::Protocol("\"batch\" must be an array".into()))?;
            if elems.is_empty() {
                return Err(Error::Protocol("\"batch\" must not be empty".into()));
            }
            if elems.len() > MAX_BATCH {
                return Err(Error::Protocol(format!(
                    "\"batch\" holds {} requests, the limit is {MAX_BATCH}",
                    elems.len()
                )));
            }
            let requests = elems
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    Request::from_value(e)
                        .map_err(|err| Error::Protocol(format!("batch[{i}]: {err}")))
                })
                .collect::<Result<Vec<Request>, Error>>()?;
            return Ok(RequestKind::Batch(requests));
        }
        if let Some(s) = v.get("stats") {
            return match s.as_bool() {
                Some(true) => Ok(RequestKind::Stats),
                _ => Err(Error::Protocol("\"stats\" must be true".into())),
            };
        }
        Request::from_value(&v).map(|r| RequestKind::Search(Box::new(r)))
    }
}

/// A parsed, validated planner request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Model name (must resolve via [`pase_models::build_named`]).
    pub model: String,
    /// Device count `p` (default 8).
    pub devices: u32,
    /// Machine model: a named profile's flat mesh, or an inline
    /// hierarchical mesh (default: the GTX 1080 Ti profile's flat mesh).
    pub machine: DeviceMesh,
    /// Scale the global mini-batch by `p` (default true, the §IV
    /// throughput protocol).
    pub weak_scaling: bool,
    /// Run dominance pruning before the DP (default false).
    pub prune: bool,
    /// Prune slack ε (default 0.0 = exact; only meaningful with `prune`).
    pub epsilon: f64,
    /// Always [`PruneGate::On`]: the wire's `"prune_gate"` is ignored.
    #[doc(hidden)]
    pub prune_gate: PruneGate,
    /// Search budget (entry cap / wall clock from the request, with the
    /// time cap still subject to the server's per-request deadline).
    pub budget: SearchBudget,
    /// Explicit per-request deadline, if the client sent one.
    pub deadline: Option<Duration>,
    /// Peak per-device memory cap for the returned strategy, in bytes
    /// (`None` = unconstrained). Selects the frontier search family.
    pub max_memory_bytes: Option<u64>,
    /// Return the whole `(step time, peak memory)` Pareto frontier.
    pub frontier: bool,
}

impl Request {
    /// Whether this request runs the frontier DP (either facet of it).
    pub fn wants_frontier(&self) -> bool {
        self.frontier || self.max_memory_bytes.is_some()
    }
}

impl Request {
    /// Parse one request line. Unknown models/machines and malformed JSON
    /// become [`Error::UnknownName`] / [`Error::Protocol`].
    pub fn parse(line: &str) -> Result<Self, Error> {
        let v = json::parse(line).map_err(Error::Protocol)?;
        Self::from_value(&v)
    }

    /// Parse one already-parsed request object (a top-level line or one
    /// element of a `"batch"` array).
    pub fn from_value(v: &json::Value) -> Result<Self, Error> {
        let model = v
            .get("model")
            .and_then(|m| m.as_str())
            .ok_or_else(|| Error::Protocol("request must have a string \"model\" field".into()))?
            .to_string();
        if !pase_models::MODEL_NAMES.contains(&model.as_str()) {
            return Err(Error::UnknownName {
                kind: "model",
                name: model,
            });
        }
        let devices = match v.get("devices") {
            Some(d) => d
                .as_u64()
                .and_then(|d| u32::try_from(d).ok())
                .filter(|&d| d >= 1)
                .ok_or_else(|| Error::Protocol("\"devices\" must be a positive integer".into()))?,
            None => 8,
        };
        let machine = parse_machine(v.get("machine"))?;
        let bool_field = |name: &str, default: bool| match v.get(name) {
            Some(b) => b
                .as_bool()
                .ok_or_else(|| Error::Protocol(format!("\"{name}\" must be a boolean"))),
            None => Ok(default),
        };
        let mut budget = SearchBudget::default();
        if let Some(e) = v.get("budget_entries") {
            budget.max_table_entries = e
                .as_u64()
                .ok_or_else(|| Error::Protocol("\"budget_entries\" must be an integer".into()))?;
        }
        if let Some(s) = v.get("budget_seconds") {
            // try_from_secs_f64 rejects NaN, negatives, and values that
            // overflow Duration — from_secs_f64 would panic on those.
            budget.max_time = s
                .as_f64()
                .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                .ok_or_else(|| {
                    Error::Protocol("\"budget_seconds\" must be a finite number ≥ 0".into())
                })?;
        }
        let deadline = match v.get("deadline_ms") {
            Some(d) => Some(Duration::from_millis(d.as_u64().ok_or_else(|| {
                Error::Protocol("\"deadline_ms\" must be an integer".into())
            })?)),
            None => None,
        };
        let epsilon = match v.get("epsilon") {
            Some(e) => e
                .as_f64()
                .filter(|e| *e >= 0.0)
                .ok_or_else(|| Error::Protocol("\"epsilon\" must be a number ≥ 0".into()))?,
            None => 0.0,
        };
        let max_memory_bytes = match v.get("max_memory_bytes") {
            Some(b) => Some(b.as_u64().ok_or_else(|| {
                Error::Protocol("\"max_memory_bytes\" must be a non-negative integer".into())
            })?),
            None => None,
        };
        Ok(Request {
            model,
            devices,
            machine,
            weak_scaling: bool_field("weak_scaling", true)?,
            prune: bool_field("prune", false)?,
            epsilon,
            prune_gate: PruneGate::On,
            budget,
            deadline,
            max_memory_bytes,
            frontier: bool_field("frontier", false)?,
        })
    }
}

/// Resolve the `"machine"` field of a request: absent = the default
/// GTX 1080 Ti flat mesh, a string = a registry profile's flat mesh, an
/// object = an inline scalar-machine or hierarchical-mesh description
/// (validated — hostile rates are protocol errors, not poisoned tables).
/// Unknown profile names list the known registry so clients can
/// self-correct.
fn parse_machine(v: Option<&json::Value>) -> Result<DeviceMesh, Error> {
    let Some(m) = v else {
        return Ok(DeviceMesh::flat(&MachineSpec::gtx1080ti()));
    };
    if let Some(name) = m.as_str() {
        return match MachineSpec::by_name(name) {
            Some(spec) => Ok(DeviceMesh::flat(&spec)),
            None => Err(Error::Protocol(format!(
                "unknown machine '{name}'; known profiles: {}",
                MachineSpec::known_names().join(", ")
            ))),
        };
    }
    DeviceMesh::from_json_value(m).map_err(|e| {
        Error::Protocol(format!(
            "\"machine\" must be a profile name or a machine/mesh object: {e}"
        ))
    })
}

/// Render a success response line (no trailing newline) into `out`,
/// appending — clear the buffer first to reuse it across requests (the
/// serve workers hold one buffer each instead of allocating per response).
///
/// `report_json` is spliced in verbatim — it is already a JSON object —
/// and `strategy` is `Some` only when the search found an optimum.
pub fn write_response_json(
    out: &mut String,
    cache_key: u64,
    cached: bool,
    cost: Option<f64>,
    strategy: Option<&[u16]>,
    report_json: &str,
) {
    out.reserve(128 + report_json.len());
    let _ = write!(
        out,
        "{{\"schema_version\": {SCHEMA_VERSION}, \"cached\": {cached}, \
         \"cache_key\": \"{cache_key:016x}\", \"cost\": "
    );
    match cost {
        Some(c) => out.push_str(&json::number(c)),
        None => out.push_str("null"),
    }
    out.push_str(", \"strategy\": ");
    match strategy {
        Some(ids) => {
            out.push('[');
            for (i, id) in ids.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{id}");
            }
            out.push(']');
        }
        None => out.push_str("null"),
    }
    let _ = write!(out, ", \"report\": {report_json}}}");
}

/// Render a frontier-family success response line (no trailing newline)
/// into `out`, appending. `picked` is the selected Pareto point as
/// `(cost, peak_memory_bytes, strategy)`, or `None` when no point fits the
/// requested budget — then `min_memory_bytes` (the frontier's smallest
/// peak memory) is reported alongside `"infeasible": true`. `frontier` is
/// `Some` only when the client asked for the full Pareto set.
pub fn write_frontier_response_json(
    out: &mut String,
    cache_key: u64,
    cached: bool,
    picked: Option<(f64, u64, &[u16])>,
    min_memory_bytes: u64,
    frontier: Option<&[FrontierPoint]>,
    report_json: &str,
) {
    out.reserve(192 + report_json.len());
    let _ = write!(
        out,
        "{{\"schema_version\": {SCHEMA_VERSION}, \"cached\": {cached}, \
         \"cache_key\": \"{cache_key:016x}\", \"cost\": "
    );
    let write_ids = |out: &mut String, ids: &[u16]| {
        out.push('[');
        for (i, id) in ids.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{id}");
        }
        out.push(']');
    };
    match picked {
        Some((cost, peak, ids)) => {
            out.push_str(&json::number(cost));
            out.push_str(", \"strategy\": ");
            write_ids(out, ids);
            let _ = write!(
                out,
                ", \"peak_memory_bytes\": {peak}, \"infeasible\": false"
            );
        }
        None => {
            let _ = write!(
                out,
                "null, \"strategy\": null, \"peak_memory_bytes\": null, \
                 \"infeasible\": true, \"min_memory_bytes\": {min_memory_bytes}"
            );
        }
    }
    if let Some(points) = frontier {
        out.push_str(", \"frontier\": [");
        for (i, p) in points.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"cost\": {}, \"memory_bytes\": {}, \"strategy\": ",
                json::number(p.cost),
                p.memory_bytes
            );
            write_ids(out, &p.config_ids);
            out.push('}');
        }
        out.push(']');
    }
    let _ = write!(out, ", \"report\": {report_json}}}");
}

/// [`write_response_json`] into a fresh `String`.
pub fn response_json(
    cache_key: u64,
    cached: bool,
    cost: Option<f64>,
    strategy: Option<&[u16]>,
    report_json: &str,
) -> String {
    let mut out = String::new();
    write_response_json(&mut out, cache_key, cached, cost, strategy, report_json);
    out
}

/// Render an error response line (no trailing newline) into `out`,
/// appending.
pub fn write_error_json(out: &mut String, err: &Error) {
    let _ = write!(
        out,
        "{{\"schema_version\": {SCHEMA_VERSION}, \"error\": \"{}\"}}",
        json::escape(&err.to_string())
    );
}

/// [`write_error_json`] into a fresh `String`.
pub fn error_json(err: &Error) -> String {
    let mut out = String::new();
    write_error_json(&mut out, err);
    out
}

/// Open the envelope of a batch response: every per-request response
/// object is appended between [`write_batch_open`] and
/// [`write_batch_close`], comma-separated by the caller, and the whole
/// array goes to the client as one line in one write.
pub fn write_batch_open(out: &mut String) {
    let _ = write!(out, "{{\"schema_version\": {SCHEMA_VERSION}, \"batch\": [");
}

/// Close the batch-response envelope opened by [`write_batch_open`].
pub fn write_batch_close(out: &mut String) {
    out.push_str("]}");
}

/// Render the `stats` response line (no trailing newline) into `out`,
/// appending. Field meanings are documented in the module docs.
#[allow(clippy::too_many_arguments)]
pub fn write_stats_json(
    out: &mut String,
    requests: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    in_flight: u64,
    entries: u64,
    cache_bytes: u64,
) {
    let _ = write!(
        out,
        "{{\"schema_version\": {SCHEMA_VERSION}, \"stats\": {{\
         \"requests\": {requests}, \"cache_hits\": {hits}, \
         \"cache_misses\": {misses}, \"coalesced\": {coalesced}, \
         \"in_flight\": {in_flight}, \"entries\": {entries}, \
         \"cache_bytes\": {cache_bytes}}}}}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_uses_defaults() {
        let r = Request::parse("{\"model\": \"alexnet\"}").unwrap();
        assert_eq!(r.model, "alexnet");
        assert_eq!(r.devices, 8);
        assert_eq!(r.machine, DeviceMesh::flat(&MachineSpec::gtx1080ti()));
        assert!(r.weak_scaling);
        assert!(!r.prune);
        assert_eq!(r.budget, SearchBudget::default());
        assert_eq!(r.deadline, None);
        assert_eq!(r.max_memory_bytes, None);
        assert!(!r.frontier && !r.wants_frontier());
    }

    #[test]
    fn retired_fields_are_ignored_like_any_unknown_field() {
        let plain = Request::parse("{\"model\": \"mlp\"}").unwrap();
        for legacy in [
            "{\"model\": \"mlp\", \"dp_kernel\": \"scalar\"}",
            "{\"model\": \"mlp\", \"dp_kernel\": \"tiled\"}",
            "{\"model\": \"mlp\", \"dp_kernel\": 1}",
            "{\"model\": \"mlp\", \"prune_gate\": \"off\"}",
            "{\"model\": \"mlp\", \"prune_gate\": \"maybe\"}",
        ] {
            assert_eq!(Request::parse(legacy).unwrap(), plain, "{legacy}");
        }
    }

    #[test]
    fn frontier_fields_parse_and_select_the_frontier_family() {
        let r = Request::parse("{\"model\": \"mlp\", \"max_memory_bytes\": 1000000}").unwrap();
        assert_eq!(r.max_memory_bytes, Some(1_000_000));
        assert!(!r.frontier);
        assert!(r.wants_frontier());
        let r = Request::parse("{\"model\": \"mlp\", \"frontier\": true}").unwrap();
        assert!(r.frontier && r.wants_frontier());
        assert_eq!(r.max_memory_bytes, None);
        for bad in [
            "{\"model\": \"mlp\", \"max_memory_bytes\": -1}",
            "{\"model\": \"mlp\", \"max_memory_bytes\": \"lots\"}",
            "{\"model\": \"mlp\", \"frontier\": 1}",
        ] {
            assert!(
                matches!(Request::parse(bad), Err(Error::Protocol(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn full_request_round_trips_every_field() {
        let r = Request::parse(
            "{\"model\": \"mlp\", \"devices\": 4, \"machine\": \"test\", \
             \"weak_scaling\": false, \"prune\": true, \"epsilon\": 0.25, \
             \"budget_entries\": 1024, \"budget_seconds\": 1.5, \
             \"deadline_ms\": 250}",
        )
        .unwrap();
        assert_eq!(r.devices, 4);
        assert_eq!(r.machine, DeviceMesh::flat(&MachineSpec::test_machine()));
        assert!(!r.weak_scaling);
        assert!(r.prune);
        assert_eq!(r.epsilon, 0.25);
        assert_eq!(r.budget.max_table_entries, 1024);
        assert_eq!(r.budget.max_time, Duration::from_secs_f64(1.5));
        assert_eq!(r.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn bad_requests_are_rejected_with_specific_errors() {
        assert!(matches!(
            Request::parse("not json"),
            Err(Error::Protocol(_))
        ));
        assert!(matches!(
            Request::parse("{\"devices\": 8}"),
            Err(Error::Protocol(_))
        ));
        assert!(matches!(
            Request::parse("{\"model\": \"gpt5\"}"),
            Err(Error::UnknownName { kind: "model", .. })
        ));
        // Unknown machine names are protocol errors that list the
        // registry, so a client can self-correct without a docs lookup.
        let err = Request::parse("{\"model\": \"mlp\", \"machine\": \"abacus\"}").unwrap_err();
        assert!(matches!(err, Error::Protocol(_)), "{err}");
        let msg = err.to_string();
        for known in MachineSpec::known_names() {
            assert!(msg.contains(&known), "{msg} must list '{known}'");
        }
        assert!(matches!(
            Request::parse("{\"model\": \"mlp\", \"devices\": 0}"),
            Err(Error::Protocol(_))
        ));
        // Values Duration cannot represent must be a protocol error, not a
        // from_secs_f64 panic that kills the worker thread.
        for bad in [
            "{\"model\": \"mlp\", \"budget_seconds\": 1e20}",
            "{\"model\": \"mlp\", \"budget_seconds\": -1}",
        ] {
            assert!(
                matches!(Request::parse(bad), Err(Error::Protocol(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn inline_machine_objects_parse_in_both_shapes() {
        // A scalar machine object becomes its flat single-axis mesh.
        let r = Request::parse(
            "{\"model\": \"mlp\", \"machine\": {\"name\": \"a100\", \
             \"peak_flops\": 1e13, \"link_bandwidth\": 2e10, \
             \"internode_bandwidth\": 3e9}}",
        )
        .unwrap();
        assert_eq!(r.machine.axes.len(), 1);
        assert_eq!(r.machine.name, "a100");
        assert_eq!(r.machine.axes[0].bandwidth, 2e10);

        // A hierarchical mesh keeps every axis, innermost first.
        let r = Request::parse(
            "{\"model\": \"mlp\", \"machine\": {\"name\": \"pod\", \"axes\": [\
             {\"name\": \"gpu\", \"size\": 8, \"bandwidth\": 2e10, \
              \"peak_flops\": 1e13, \"alpha\": 5e-6}, \
             {\"name\": \"node\", \"size\": 4, \"bandwidth\": 3e9, \
              \"peak_flops\": 1e13, \"alpha\": 1.5e-5}]}}",
        )
        .unwrap();
        assert_eq!(r.machine.axes.len(), 2);
        assert_eq!(r.machine.axes[0].name, "gpu");
        assert_eq!(r.machine.axes[1].size, 4);
        assert_eq!(r.machine.total_devices(), 32);
    }

    #[test]
    fn hostile_inline_machines_are_protocol_errors() {
        // Regression: a zero-bandwidth or non-finite inline machine must be
        // rejected at the parse boundary, never reach a table build, and
        // never panic the worker.
        for bad in [
            // zero bandwidth → infinite comm cost
            "{\"model\": \"mlp\", \"machine\": {\"name\": \"x\", \
             \"peak_flops\": 1.0, \"link_bandwidth\": 0.0}}",
            // empty axis list
            "{\"model\": \"mlp\", \"machine\": {\"name\": \"x\", \"axes\": []}}",
            // zero-size axis
            "{\"model\": \"mlp\", \"machine\": {\"name\": \"x\", \"axes\": [\
             {\"name\": \"a\", \"size\": 0, \"bandwidth\": 1.0, \
              \"peak_flops\": 1.0}]}}",
            // negative alpha
            "{\"model\": \"mlp\", \"machine\": {\"name\": \"x\", \"axes\": [\
             {\"name\": \"a\", \"size\": 2, \"bandwidth\": 1.0, \
              \"peak_flops\": 1.0, \"alpha\": -1.0}]}}",
            // not a string or object at all
            "{\"model\": \"mlp\", \"machine\": 42}",
        ] {
            assert!(
                matches!(Request::parse(bad), Err(Error::Protocol(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn stats_requests_parse() {
        assert_eq!(
            RequestKind::parse("{\"stats\": true}").unwrap(),
            RequestKind::Stats
        );
        assert!(matches!(
            RequestKind::parse("{\"stats\": 1}"),
            Err(Error::Protocol(_))
        ));
    }

    #[test]
    fn stats_response_shape() {
        let mut out = String::new();
        write_stats_json(&mut out, 10, 5, 3, 2, 1, 4, 2048);
        let v = json::parse(&out).unwrap();
        let stats = v.get("stats").expect("stats object");
        assert_eq!(stats.get("requests").and_then(|x| x.as_u64()), Some(10));
        assert_eq!(stats.get("cache_hits").and_then(|x| x.as_u64()), Some(5));
        assert_eq!(stats.get("cache_misses").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(stats.get("coalesced").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(stats.get("in_flight").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(stats.get("entries").and_then(|x| x.as_u64()), Some(4));
        assert_eq!(
            stats.get("cache_bytes").and_then(|x| x.as_u64()),
            Some(2048)
        );
    }

    #[test]
    fn frontier_responses_are_valid_json_in_every_shape() {
        let points = vec![
            FrontierPoint {
                cost: 1.0,
                memory_bytes: 900,
                config_ids: vec![1, 2],
            },
            FrontierPoint {
                cost: 2.0,
                memory_bytes: 400,
                config_ids: vec![0, 0],
            },
        ];

        // A budgeted request: selected point, no frontier array.
        let mut out = String::new();
        write_frontier_response_json(
            &mut out,
            9,
            true,
            Some((2.0, 400, &[0, 0])),
            400,
            None,
            "{}",
        );
        let v = json::parse(&out).unwrap();
        assert_eq!(v.get("cost").and_then(|c| c.as_f64()), Some(2.0));
        assert_eq!(
            v.get("peak_memory_bytes").and_then(|p| p.as_u64()),
            Some(400)
        );
        assert_eq!(v.get("infeasible").and_then(|i| i.as_bool()), Some(false));
        assert!(v.get("frontier").is_none());
        assert!(v.get("min_memory_bytes").is_none());

        // An infeasible budget: null cost/strategy, the floor reported.
        let mut out = String::new();
        write_frontier_response_json(&mut out, 9, true, None, 400, None, "{}");
        let v = json::parse(&out).unwrap();
        assert!(v.get("cost").unwrap().as_f64().is_none());
        assert!(v.get("strategy").unwrap().as_array().is_none());
        assert_eq!(v.get("infeasible").and_then(|i| i.as_bool()), Some(true));
        assert_eq!(
            v.get("min_memory_bytes").and_then(|m| m.as_u64()),
            Some(400)
        );

        // A frontier request: the full Pareto set rides along.
        let mut out = String::new();
        write_frontier_response_json(
            &mut out,
            9,
            false,
            Some((1.0, 900, &[1, 2])),
            400,
            Some(&points),
            "{}",
        );
        let v = json::parse(&out).unwrap();
        let f = v.get("frontier").and_then(|f| f.as_array()).expect("array");
        assert_eq!(f.len(), 2);
        assert_eq!(f[1].get("memory_bytes").and_then(|m| m.as_u64()), Some(400));
        assert_eq!(
            f[0].get("strategy")
                .and_then(|s| s.as_array())
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn batch_requests_parse_in_order_with_per_element_defaults() {
        let kind = RequestKind::parse(
            "{\"batch\": [{\"model\": \"mlp\", \"devices\": 4}, \
             {\"model\": \"alexnet\"}]}",
        )
        .unwrap();
        let reqs = match kind {
            RequestKind::Batch(reqs) => reqs,
            other => panic!("expected a batch, got {other:?}"),
        };
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].model, "mlp");
        assert_eq!(reqs[0].devices, 4);
        assert_eq!(reqs[1].model, "alexnet");
        assert_eq!(reqs[1].devices, 8, "element defaults match single requests");
    }

    #[test]
    fn malformed_batches_are_rejected_whole() {
        // Not an array, empty, element without a model, element with an
        // unknown model — each rejects the entire line.
        for bad in [
            "{\"batch\": true}",
            "{\"batch\": []}",
            "{\"batch\": [{\"devices\": 4}]}",
            "{\"batch\": [{\"model\": \"mlp\"}, {\"model\": \"gpt5\"}]}",
        ] {
            assert!(
                matches!(RequestKind::parse(bad), Err(Error::Protocol(_))),
                "{bad}"
            );
        }
        // The error names the offending element.
        let err = RequestKind::parse("{\"batch\": [{\"model\": \"mlp\"}, {\"model\": \"gpt5\"}]}")
            .unwrap_err();
        assert!(err.to_string().contains("batch[1]"), "{err}");
        // Oversized batches are refused up front.
        let mut line = String::from("{\"batch\": [");
        for i in 0..=MAX_BATCH {
            if i > 0 {
                line.push_str(", ");
            }
            line.push_str("{\"model\": \"mlp\"}");
        }
        line.push_str("]}");
        let err = RequestKind::parse(&line).unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
    }

    #[test]
    fn batch_envelope_is_valid_json() {
        let mut out = String::new();
        write_batch_open(&mut out);
        write_response_json(&mut out, 1, false, Some(1.0), Some(&[2]), "{}");
        out.push_str(", ");
        write_response_json(&mut out, 1, true, Some(1.0), Some(&[2]), "{}");
        write_batch_close(&mut out);
        let v = json::parse(&out).unwrap();
        let batch = v.get("batch").and_then(|b| b.as_array()).expect("array");
        assert_eq!(batch.len(), 2);
        assert_eq!(
            batch[0].get("cached").and_then(|c| c.as_bool()),
            Some(false)
        );
        assert_eq!(batch[1].get("cached").and_then(|c| c.as_bool()), Some(true));
    }

    #[test]
    fn buffered_writers_match_the_allocating_forms() {
        let mut buf = String::from("junk");
        buf.clear();
        write_response_json(&mut buf, 7, false, Some(1.0), Some(&[3]), "{}");
        assert_eq!(buf, response_json(7, false, Some(1.0), Some(&[3]), "{}"));
        buf.clear();
        write_error_json(&mut buf, &Error::Protocol("x".into()));
        assert_eq!(buf, error_json(&Error::Protocol("x".into())));
    }

    #[test]
    fn responses_are_valid_json() {
        let ok = response_json(0xabc, true, Some(2.5), Some(&[1, 2]), "{\"x\": 1}");
        let v = json::parse(&ok).unwrap();
        assert_eq!(v.get("cached").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(
            v.get("cache_key").and_then(|k| k.as_str()),
            Some("0000000000000abc")
        );
        assert_eq!(v.get("cost").and_then(|c| c.as_f64()), Some(2.5));
        assert_eq!(
            v.get("strategy")
                .and_then(|s| s.as_array())
                .map(|a| a.len()),
            Some(2)
        );
        assert!(v.get("report").and_then(|r| r.get("x")).is_some());

        let fail = response_json(1, false, None, None, "{}");
        let v = json::parse(&fail).unwrap();
        assert!(v.get("cost").unwrap().as_f64().is_none());

        let err = error_json(&Error::Protocol("bad \"line\"".into()));
        let v = json::parse(&err).unwrap();
        assert_eq!(
            v.get("error").and_then(|e| e.as_str()),
            Some("protocol: bad \"line\"")
        );
    }
}
