//! Zoo prewarm: fill the strategy cache before the first accept.
//!
//! A spec names a cross-product of `models:devices[:machines]` (each part
//! a comma-separated list, machines defaulting to the wire default GTX
//! 1080 Ti) — e.g. `mlp,resnet:4,8:test` is four cells. Every cell is
//! searched through [`crate::server::answer_search`], i.e. the normal
//! sharded singleflight lookup path, so a prewarmed server answers a
//! matching query (same model/p/machine with wire-default options) as a
//! cache hit, and the prewarm searches themselves show up as cache
//! misses in the counters and `{"stats": true}`.

use crate::protocol::Request;
use crate::server::{answer_search, Shared};
use pase_core::SearchBudget;
use pase_cost::{DeviceMesh, MachineSpec};
use pase_models::MODEL_NAMES;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Expand a `models:devices[:machines]` spec into wire-default requests
/// (weak scaling on, no pruning, default budget), one per cross-product
/// cell. Errors name the offending part.
pub fn parse_prewarm_spec(spec: &str) -> Result<Vec<Request>, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() < 2 || parts.len() > 3 {
        return Err(format!(
            "prewarm spec '{spec}' must be models:devices[:machines], \
             e.g. 'mlp,resnet:4,8:test'"
        ));
    }
    let models: Vec<&str> = parts[0].split(',').filter(|s| !s.is_empty()).collect();
    if models.is_empty() {
        return Err("prewarm spec names no models".into());
    }
    for m in &models {
        if !MODEL_NAMES.contains(m) {
            return Err(format!("prewarm spec: unknown model '{m}'"));
        }
    }
    let devices = parts[1]
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|d| {
            d.parse::<u32>()
                .ok()
                .filter(|&d| d >= 1)
                .ok_or_else(|| format!("prewarm spec: '{d}' is not a positive device count"))
        })
        .collect::<Result<Vec<u32>, String>>()?;
    if devices.is_empty() {
        return Err("prewarm spec names no device counts".into());
    }
    let machines = match parts.get(2) {
        Some(names) => names
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|n| {
                MachineSpec::by_name(n)
                    .map(|m| DeviceMesh::flat(&m))
                    .ok_or_else(|| format!("prewarm spec: unknown machine '{n}'"))
            })
            .collect::<Result<Vec<DeviceMesh>, String>>()?,
        None => vec![DeviceMesh::flat(&MachineSpec::gtx1080ti())],
    };
    if machines.is_empty() {
        return Err("prewarm spec names no machines".into());
    }

    let mut cells = Vec::with_capacity(models.len() * devices.len() * machines.len());
    for model in &models {
        for &p in &devices {
            for machine in &machines {
                cells.push(Request {
                    model: model.to_string(),
                    devices: p,
                    machine: machine.clone(),
                    weak_scaling: true,
                    prune: false,
                    epsilon: 0.0,
                    prune_gate: Default::default(),
                    budget: SearchBudget::default(),
                    deadline: None,
                    max_memory_bytes: None,
                    frontier: false,
                });
            }
        }
    }
    Ok(cells)
}

/// Search every cell of the spec with up to `cfg.workers` threads, all
/// through the singleflight lookup path (duplicate cells coalesce).
/// Returns the number of cells searched.
pub(crate) fn prewarm(spec: &str, shared: &Shared) -> Result<u64, String> {
    let cells = parse_prewarm_spec(spec)?;
    let threads = shared.cfg.workers.max(1).min(cells.len()).max(1);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut out = String::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = cells.get(i) else { break };
                    out.clear();
                    // The response text is discarded; the side effect —
                    // the cache entry — is the point.
                    answer_search(req, shared, &mut out);
                }
            });
        }
    });
    Ok(cells.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_expands_the_cross_product_in_order() {
        let cells = parse_prewarm_spec("mlp,resnet:2,4:test").expect("valid spec");
        assert_eq!(cells.len(), 4);
        let names: Vec<(String, u32)> =
            cells.iter().map(|r| (r.model.clone(), r.devices)).collect();
        assert_eq!(
            names,
            [
                ("mlp".into(), 2),
                ("mlp".into(), 4),
                ("resnet".into(), 2),
                ("resnet".into(), 4)
            ]
        );
        assert!(cells.iter().all(|r| r.weak_scaling && !r.prune));
    }

    #[test]
    fn machines_default_to_the_wire_default() {
        let cells = parse_prewarm_spec("mlp:8").expect("valid spec");
        assert_eq!(cells.len(), 1);
        assert_eq!(
            cells[0].machine,
            DeviceMesh::flat(&MachineSpec::gtx1080ti())
        );
    }

    #[test]
    fn bad_specs_name_the_offending_part() {
        for (spec, needle) in [
            ("mlp", "must be models:devices"),
            ("gpt5:4", "unknown model 'gpt5'"),
            ("mlp:zero", "not a positive device count"),
            ("mlp:0", "not a positive device count"),
            ("mlp:4:abacus", "unknown machine 'abacus'"),
            (":4", "no models"),
        ] {
            let err = parse_prewarm_spec(spec).expect_err(spec);
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }
}
