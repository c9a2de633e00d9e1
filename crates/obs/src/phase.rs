//! Canonical span names for the search-pipeline phases.
//!
//! Producers (`pase-cost`, `pase-core`) and consumers (the CLI's trace
//! smoke test, report tooling) agree on these strings; free-form span
//! names are still allowed for anything outside the standard pipeline.

/// Per-node configuration enumeration (`enumerate_configs` over the layer
/// representatives).
pub const ENUMERATION: &str = "enumeration";

/// Structural interning: node/edge classing by structural key.
pub const INTERNING: &str = "interning";

/// Cost-table construction: layer-cost vectors and edge transfer matrices.
pub const TABLE_BUILD: &str = "table_build";

/// Exact dominance pruning of the configuration space.
pub const PRUNE: &str = "prune";

/// Vertex ordering plus connected/dependent-set structure construction.
pub const STRUCTURE: &str = "structure";

/// The DP's sequential budget-accounting pass (table sizing, OOM checks).
pub const PLAN: &str = "plan";

/// Prefix of the per-wavefront DP fill spans: wavefront `w` is recorded as
/// `"wavefront <w>"` (see [`wavefront_name`]).
pub const WAVEFRONT_PREFIX: &str = "wavefront ";

/// Strategy extraction by back-substitution from the filled tables.
pub const BACKTRACK: &str = "backtrack";

/// The whole table-fill loop of the sequential (`parallel = false`) DP
/// path, which fills in position order rather than by wavefront.
pub const SEQUENTIAL_FILL: &str = "sequential_fill";

/// The tiled min-plus microkernel's time inside a fill span — a *nested*
/// sub-span of the enclosing `"wavefront <w>"` (or
/// [`SEQUENTIAL_FILL`]) span, recorded by every DP fill (scalar and
/// frontier). Consumers summing disjoint pipeline phases must
/// exclude it (its time is already counted by the parent span).
pub const KERNEL: &str = "kernel";

/// Span name of DP wavefront `w`.
pub fn wavefront_name(w: usize) -> String {
    format!("{WAVEFRONT_PREFIX}{w}")
}

/// Whether `name` is a per-wavefront fill span.
pub fn is_wavefront(name: &str) -> bool {
    name.starts_with(WAVEFRONT_PREFIX)
}
