//! Machine-readable search reports.
//!
//! A [`SearchReport`] aggregates one search invocation — what was searched,
//! how it ended, the [`SearchStats`], and a per-phase wall-time breakdown
//! derived from a [`pase_obs::Trace`] — into a stable JSON object. The CLI
//! embeds it in `--json` output and `bench_search` emits one per
//! `(model, devices)` cell, so Table I-style runs can be diffed and plotted
//! without scraping log text.

use crate::budget::{SearchOutcome, SearchStats};
use pase_obs::{json, phase, Trace};
use std::fmt::Write;
use std::time::Duration;

/// Version of every persisted JSON artifact of the search stack — the
/// [`SearchReport`] wire/`--json` format and the strategy cache's on-disk
/// entries. Consumers must reject artifacts whose `schema_version` differs
/// (see [`crate::Error::SchemaVersion`]); bump this whenever a persisted
/// field changes shape or meaning.
///
/// Version history: 2 made `stats.intern_hit_rate` nullable (`null` =
/// interning never ran, distinct from a measured 0%) and added
/// `stats.dp_kernel`. 3 added the frontier fields
/// (`stats.frontier_len`, `stats.peak_strategy_bytes`) and the
/// `"infeasible"` outcome tag of memory-constrained searches. 4
/// introduced topology-aware device meshes: `stats.mesh_axes`, the wire
/// protocol's inline `"machine"` object, and a cache key that hashes the
/// full mesh-axis list instead of three scalar machine rates. 5 dropped
/// the retired adaptive prune gate's `stats.prune_skipped`,
/// `stats.gate_dp_est` and `stats.gate_prune_est`.
pub const SCHEMA_VERSION: u64 = 5;

/// Aggregated wall time of one pipeline phase.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseReport {
    /// Phase name (a [`pase_obs::phase`] constant; per-wavefront fill
    /// spans are folded into a single `"dp_fill"` entry).
    pub name: String,
    /// Summed duration of the phase's spans.
    pub time: Duration,
    /// Number of spans folded into this entry (1 for ordinary phases, the
    /// wavefront count for `"dp_fill"`).
    pub spans: usize,
}

/// One search invocation, ready for JSON serialization.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchReport {
    /// Model name (e.g. `"transformer"`).
    pub model: String,
    /// Device count the strategy was searched for.
    pub devices: u32,
    /// Outcome tag: `"ok"`, `"OOM"`, `"timeout"`, or `"infeasible"`.
    pub outcome: String,
    /// Optimal cost in FLOP units (`None` unless the outcome is `"ok"`).
    pub cost: Option<f64>,
    /// The search statistics.
    pub stats: SearchStats,
    /// Per-phase wall-time breakdown (empty when no trace was recorded).
    pub phases: Vec<PhaseReport>,
}

impl SearchReport {
    /// Build a report from a search outcome plus the trace that observed
    /// it (pass `None` when tracing was off — `phases` stays empty).
    pub fn new(
        model: impl Into<String>,
        devices: u32,
        outcome: &SearchOutcome,
        trace: Option<&Trace>,
    ) -> Self {
        Self {
            model: model.into(),
            devices,
            outcome: outcome.tag().to_string(),
            cost: outcome.found().map(|r| r.cost),
            stats: outcome.stats().clone(),
            phases: trace.map(phase_breakdown).unwrap_or_default(),
        }
    }

    /// Serialize as a JSON object (one line per field, stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        let _ = write!(out, "\"schema_version\": {SCHEMA_VERSION}");
        let _ = write!(out, ", \"model\": \"{}\"", json::escape(&self.model));
        let _ = write!(out, ", \"devices\": {}", self.devices);
        let _ = write!(out, ", \"outcome\": \"{}\"", json::escape(&self.outcome));
        match self.cost {
            Some(c) => {
                let _ = write!(out, ", \"cost\": {}", json::number(c));
            }
            None => out.push_str(", \"cost\": null"),
        }
        let s = &self.stats;
        let _ = write!(
            out,
            ", \"stats\": {{\"max_dependent_set\": {}, \"max_configs\": {}, \
             \"k_before\": {}, \"prune_time\": {}, \"table_entries\": {}, \
             \"peak_table_bytes\": {}, \"states_evaluated\": {}, \
             \"wavefronts\": {}, \"max_wavefront_width\": {}, \
             \"intern_hit_rate\": {}, \"dp_kernel\": \"{}\", \
             \"frontier_len\": {}, \"peak_strategy_bytes\": {}, \
             \"mesh_axes\": {}, \"elapsed\": {}}}",
            s.max_dependent_set,
            s.max_configs,
            s.k_before,
            json::number(s.prune_time.as_secs_f64()),
            s.table_entries,
            s.peak_table_bytes,
            s.states_evaluated,
            s.wavefronts,
            s.max_wavefront_width,
            s.intern_hit_rate
                .map_or_else(|| "null".to_string(), |h| json::number(h).to_string()),
            json::escape(s.dp_kernel),
            s.frontier_len,
            s.peak_strategy_bytes,
            s.mesh_axes,
            json::number(s.elapsed.as_secs_f64())
        );
        out.push_str(", \"phases\": {");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"time\": {}, \"spans\": {}}}",
                json::escape(&p.name),
                json::number(p.time.as_secs_f64()),
                p.spans
            );
        }
        out.push_str("}}");
        out
    }
}

/// Fold a trace's spans into per-phase totals, with the per-wavefront fill
/// spans collapsed into one `"dp_fill"` entry. Phases appear in first-seen
/// (pipeline) order.
fn phase_breakdown(trace: &Trace) -> Vec<PhaseReport> {
    let mut phases: Vec<PhaseReport> = Vec::new();
    for span in trace.spans() {
        let name = if phase::is_wavefront(&span.name) {
            "dp_fill"
        } else {
            span.name.as_str()
        };
        match phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.time += span.dur;
                p.spans += 1;
            }
            None => phases.push(PhaseReport {
                name: name.to_string(),
                time: span.dur,
                spans: 1,
            }),
        }
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::SearchResult;

    fn found_outcome() -> SearchOutcome {
        SearchOutcome::Found(SearchResult {
            cost: 42.5,
            config_ids: vec![0, 1],
            stats: SearchStats {
                table_entries: 100,
                peak_table_bytes: 1000,
                wavefronts: 2,
                elapsed: Duration::from_millis(5),
                ..SearchStats::default()
            },
        })
    }

    #[test]
    fn report_captures_outcome_and_phases() {
        let trace = Trace::new();
        trace.span(phase::STRUCTURE).finish();
        trace.span(phase::wavefront_name(0)).finish();
        trace.span(phase::wavefront_name(1)).finish();
        trace.span(phase::BACKTRACK).finish();
        let r = SearchReport::new("mlp", 8, &found_outcome(), Some(&trace));
        assert_eq!(r.outcome, "ok");
        assert_eq!(r.cost, Some(42.5));
        let fill = r.phases.iter().find(|p| p.name == "dp_fill").unwrap();
        assert_eq!(fill.spans, 2);
        assert!(r.phases.iter().any(|p| p.name == phase::STRUCTURE));
    }

    #[test]
    fn json_is_stable_and_parseable_shape() {
        let r = SearchReport::new("trans\"former", 64, &found_outcome(), None);
        let js = r.to_json();
        assert!(js.starts_with('{') && js.ends_with('}'));
        assert!(js.starts_with("{\"schema_version\": 5"));
        assert!(js.contains("\"mesh_axes\": 0"));
        assert!(js.contains("\"model\": \"trans\\\"former\""));
        assert!(js.contains("\"devices\": 64"));
        assert!(js.contains("\"cost\": 42.5"));
        assert!(js.contains("\"peak_table_bytes\": 1000"));
        // Interning never ran for these stats: absent, not 0.
        assert!(js.contains("\"intern_hit_rate\": null"));
        assert!(js.contains("\"phases\": {}"));
        assert_eq!(js.matches('{').count(), js.matches('}').count());
    }

    #[test]
    fn measured_hit_rate_and_kernel_are_reported() {
        let outcome = SearchOutcome::Found(SearchResult {
            cost: 1.0,
            config_ids: vec![0],
            stats: SearchStats {
                intern_hit_rate: Some(0.25),
                dp_kernel: "tiled",
                ..SearchStats::default()
            },
        });
        let js = SearchReport::new("m", 8, &outcome, None).to_json();
        assert!(js.contains("\"intern_hit_rate\": 0.25"));
        assert!(js.contains("\"dp_kernel\": \"tiled\""));
    }

    #[test]
    fn frontier_fields_and_infeasible_tag_are_reported() {
        let inf = SearchOutcome::Infeasible {
            min_memory_bytes: 123,
            stats: SearchStats {
                frontier_len: 4,
                ..SearchStats::default()
            },
        };
        let js = SearchReport::new("m", 8, &inf, None).to_json();
        assert!(js.contains("\"outcome\": \"infeasible\""));
        assert!(js.contains("\"cost\": null"));
        assert!(js.contains("\"frontier_len\": 4"));
        assert!(js.contains("\"peak_strategy_bytes\": 0"));
    }

    #[test]
    fn failed_outcome_has_null_cost() {
        let oom = SearchOutcome::Oom {
            needed_entries: 7,
            stats: SearchStats::default(),
        };
        let js = SearchReport::new("m", 8, &oom, None).to_json();
        assert!(js.contains("\"outcome\": \"OOM\""));
        assert!(js.contains("\"cost\": null"));
    }
}
