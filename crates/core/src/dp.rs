//! The FindBestStrategy dynamic program (Fig. 4) over recurrence (4):
//!
//! ```text
//! R_V(i, φ) = min_{C ∈ C(v^(i))}  H_V(i, φ ∪ {(v^(i), C)})
//!                                  + Σ_{X(j) ∈ S(i)} R_V(j, φ''|D(j))
//! ```
//!
//! where `H_V(i, φ')` is the layer cost of `v^(i)` plus its transfer costs
//! with neighbors *later* in the sequence (Eq. (3)).
//!
//! ## Implementation notes
//!
//! * DP tables are **dense mixed-radix arrays**, not hash maps: `D(i)` is
//!   sorted by node id and a substrategy `φ ∈ Φ_{|D(i)}` is its flat index
//!   `Σ_t stride_t · cfg_t`. The table for position `i` has exactly
//!   `∏_{w ∈ D(i)} |C(w)|` entries — the `K^M` of the complexity analysis —
//!   so memory accounting is exact and lookups are branch-free.
//! * Child-table lookups are **linear in the parent's digits**: every
//!   vertex of a child's `D(j)` is either the parent vertex `v^(i)` itself
//!   or a member of `D(i)` (see the containment argument in the module
//!   tests), so the child index is `Σ_t A_t · digit_t + B · C` with
//!   precomputed coefficients.
//! * One driver, [`drive`], fills the tables for every DP value
//!   ([`DpValue`]): the min-plus `f64` of [`MinTime`] here, or the Pareto
//!   set of `crate::frontier` — TensorOpt's generalization of the same
//!   recurrence. Tables are filled **wavefront-parallel**: the table at
//!   position `i` reads exactly the tables at `subset_anchors(i)`, so the
//!   positions form a DAG whose levels ([`VertexStructure::wavefronts`])
//!   can each be filled concurrently — parallelism across *tables*, not
//!   just across one table's entries. Within a wave, every table is cut
//!   into fixed-size entry chunks and the chunks of all tables share one
//!   work queue, so a wave with one huge and many tiny tables still
//!   balances. Without parallel workers (a 1-thread rayon pool) or with
//!   less than one chunk of work, the same wave is filled inline, one
//!   table at a time. Entries are computed independently, so the result
//!   is bit-identical at any thread count. Budget accounting runs
//!   sequentially in position order first (table sizes are
//!   content-independent), preserving the exact OOM/timeout semantics of a
//!   sequential fill.
//! * Each scalar chunk is filled by the packed, run-blocked min-plus
//!   microkernel of [`crate::kernel`]: it decodes its first substrategy
//!   index once, then walks the mixed-radix odometer **incrementally**,
//!   one innermost-digit run at a time. Costs and choices are written
//!   straight into the table's final arrays. The per-entry scalar loop it
//!   replaced survives only as the test oracle
//!   [`crate::reference::scalar_search`].
//! * Budgets are enforced *before* each allocation (`Oom`) and per chunk of
//!   work (`Timeout`), reproducing Table I's failure modes without actually
//!   exhausting the machine. Values whose size depends on table contents
//!   (Pareto sets) are also checked against the byte cap after each wave.

use crate::budget::{SearchBudget, SearchOutcome, SearchResult, SearchStats, DP_ENTRY_BYTES};
use crate::kernel::{self, PackedVertex};
use crate::ordering::{make_ordering, OrderingKind};
use crate::pool::{free_list, Poolable, Pooled, Scratch, MAX_POOLED_ENTRIES};
use crate::search::Filled;
use crate::structure::{ConnectedSetMode, VertexStructure};
use pase_cost::CostTables;
use pase_graph::{EdgeId, Graph, GraphError, NodeId};
use pase_obs::{phase, span_in, OptSpan, Trace};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::time::Instant;

/// Options for the DP engine, assembled by [`crate::Search`] from its
/// builder knobs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DpOptions {
    /// Vertex ordering (GenerateSeq by default).
    pub(crate) ordering: OrderingKind,
    /// Connected-set mode: `Exact` = recurrence (4), `Prefix` = the naive
    /// recurrence (2).
    pub(crate) mode: ConnectedSetMode,
    /// Resource limits.
    pub(crate) budget: SearchBudget,
    /// Frontier searches only: maximum points kept per DP state (see
    /// [`crate::Search::frontier_width`]).
    pub(crate) frontier_width: usize,
}

/// Default per-state frontier width (see [`crate::Search::frontier_width`]).
pub(crate) const DEFAULT_FRONTIER_WIDTH: usize = 8;

impl Default for DpOptions {
    fn default() -> Self {
        Self {
            ordering: OrderingKind::GenerateSeq,
            mode: ConnectedSetMode::Exact,
            budget: SearchBudget::default(),
            frontier_width: DEFAULT_FRONTIER_WIDTH,
        }
    }
}

/// One DP table: `R_V(i, ·)` and the argmin configurations over the dense
/// substrategy space of `D(i)`, indexed as its position's [`Plan`] lays
/// the space out.
#[derive(Default)]
pub(crate) struct Table {
    /// `R_V(i, φ)` per flat index.
    pub(crate) costs: Vec<f64>,
    /// Argmin configuration id of `v^(i)` per flat index.
    pub(crate) choice: Vec<u16>,
}

impl Table {
    /// Take a pooled table for `plan`, zero-filled: content-identical to
    /// fresh `vec![0; size]` buffers.
    pub(crate) fn take(plan: &Plan) -> Pooled<Table> {
        let mut t = Pooled::<Table>::take();
        t.costs.resize(plan.size as usize, 0.0);
        t.choice.resize(plan.size as usize, 0);
        t
    }
}

impl Plan {
    /// Flat index of the substrategy selecting `assignment`'s configuration
    /// for every vertex of `dep`. Both `dep` and `assignment` are sorted by
    /// node id and `assignment ⊇ dep`, so one merge walk suffices.
    fn flat_index_of(&self, assignment: &[(NodeId, u16)]) -> usize {
        let mut idx = 0u64;
        let mut a = assignment.iter();
        for (t, &w) in self.dep.iter().enumerate() {
            let cfg = loop {
                let &(n, c) = a.next().expect("assignment must cover the dependent set");
                if n == w {
                    break c;
                }
                debug_assert!(n < w, "assignment must be sorted by node id");
            };
            idx += self.strides[t] * u64::from(cfg);
        }
        idx as usize
    }
}

impl Poolable for Table {
    free_list!(Table);
    fn reset(&mut self) {
        self.costs.clear();
        self.choice.clear();
    }
    fn shed(&mut self) -> bool {
        self.costs.capacity() <= MAX_POOLED_ENTRIES
    }
}

/// Content-independent fill plan for one position, prepared during the
/// sequential budget-accounting pass.
pub(crate) struct Plan {
    pub(crate) vi: NodeId,
    pub(crate) dep: Vec<NodeId>,
    pub(crate) radix: Vec<u32>,
    pub(crate) strides: Vec<u64>,
    pub(crate) size: u64,
    pub(crate) kv: u16,
    /// Edges from `v^(i)` to its later neighbors: (edge, digit slot of the
    /// neighbor, whether `v^(i)` is the edge's source).
    pub(crate) later_edges: Vec<(EdgeId, usize, bool)>,
}

/// Linear-lookup coefficients of one child table (connected subset):
/// `child_index = Σ_t parent_coef[t]·digit_t + vi_coef·C`.
pub(crate) struct ChildCoef {
    /// Anchor position (index into the `dp` table vector).
    pub(crate) anchor: usize,
    pub(crate) parent_coef: Vec<u64>,
    pub(crate) vi_coef: u64,
}

/// One unit of scalar fill work: a contiguous entry range of one table,
/// starting at entry `start`, with the output slices it writes.
pub(crate) struct FillChunk<'a> {
    pub(crate) start: u64,
    pub(crate) costs: &'a mut [f64],
    pub(crate) choice: &'a mut [u16],
}

/// Run FindBestStrategy with breadth-first ordering and prefix connected
/// sets — the naive §III-A baseline (recurrence (2)) used for the Table I
/// `BF` column.
pub fn naive_best_strategy(
    graph: &Graph,
    tables: &CostTables,
    budget: SearchBudget,
) -> SearchOutcome {
    crate::Search::new(graph)
        .tables(tables)
        .ordering(OrderingKind::BreadthFirst)
        .connected_sets(ConnectedSetMode::Prefix)
        .budget(budget)
        .run()
        .into_outcome()
}

/// Build the vertex ordering and its connected/dependent-set structure
/// under a [`pase_obs::phase::STRUCTURE`] span. The structure depends only
/// on `(graph, ordering, mode)`, never on the cost tables.
pub(crate) fn build_structure(
    graph: &Graph,
    ordering: OrderingKind,
    mode: ConnectedSetMode,
    trace: Option<&Trace>,
) -> VertexStructure {
    let mut span = span_in(trace, phase::STRUCTURE);
    let order = make_ordering(graph, ordering);
    let s = VertexStructure::build(graph, &order, mode);
    span.arg("nodes", graph.len());
    span.arg("wavefronts", s.wavefronts().len());
    s
}

/// Everything a table fill needs that does not depend on the DP value:
/// the structure, every position's fill plan, the wall-clock window, and
/// the stats accumulated so far.
pub(crate) struct Prepared {
    pub(crate) start: Instant,
    pub(crate) deadline: Instant,
    pub(crate) structure: VertexStructure,
    pub(crate) plans: Vec<Plan>,
    pub(crate) stats: SearchStats,
}

/// The prelude of every DP fill — [`drive`] and the [`crate::reference`]
/// oracles: stats initialization tagged with `engine`, the structure build
/// (unless `prebuilt` is supplied — the adaptive gate builds it once for
/// its estimate), and the budget-accounted plan pass. `Err` carries the
/// `Oom`/`Timeout` the plan pass hit before any fill.
pub(crate) fn prepare(
    graph: &Graph,
    tables: &CostTables,
    opts: &DpOptions,
    trace: Option<&Trace>,
    prebuilt: Option<VertexStructure>,
    engine: &'static str,
) -> Result<Prepared, Box<SearchOutcome>> {
    let start = Instant::now();
    let structure =
        prebuilt.unwrap_or_else(|| build_structure(graph, opts.ordering, opts.mode, trace));
    let deadline = start + opts.budget.max_time;
    let mut stats = SearchStats {
        max_dependent_set: structure.max_dependent_set(),
        max_configs: tables.max_k(),
        k_before: tables.max_k(),
        wavefronts: structure.wavefronts().len(),
        max_wavefront_width: structure.max_wavefront_width(),
        intern_hit_rate: tables.intern_stats().hit_rate_opt(),
        dp_kernel: engine,
        ..SearchStats::default()
    };
    let plans = build_plans(
        graph,
        tables,
        &structure,
        &opts.budget,
        start,
        deadline,
        &mut stats,
        trace,
    )?;
    Ok(Prepared {
        start,
        deadline,
        structure,
        plans,
        stats,
    })
}

/// The sequential budget-accounting plan pass: every position's fill plan,
/// or the early `Oom`/`Timeout` the budget forced. Table sizes are
/// independent of table *contents*, so accounting in position order gives
/// exactly the OOM/timeout behavior of a fully sequential fill, regardless
/// of how the fill is later scheduled. Accumulates entry/state counts into
/// `stats`.
#[allow(clippy::too_many_arguments)]
fn build_plans(
    graph: &Graph,
    tables: &CostTables,
    structure: &VertexStructure,
    budget: &SearchBudget,
    start: Instant,
    deadline: Instant,
    stats: &mut SearchStats,
    trace: Option<&Trace>,
) -> Result<Vec<Plan>, Box<SearchOutcome>> {
    let n = graph.len();
    let mut plan_span = span_in(trace, phase::PLAN);
    let mut plans: Vec<Plan> = Vec::with_capacity(n);
    for i in 0..n {
        let vi = structure.vertex(i);
        let dep = structure.dependent_set(i).to_vec();

        let radix: Vec<u32> = dep.iter().map(|&w| tables.k(w) as u32).collect();
        let mut size: u64 = 1;
        for &k in &radix {
            match size.checked_mul(u64::from(k)) {
                Some(s) => size = s,
                None => {
                    stats.elapsed = start.elapsed();
                    return Err(Box::new(SearchOutcome::Oom {
                        needed_entries: u64::MAX,
                        stats: stats.clone(),
                    }));
                }
            }
        }
        if stats.table_entries.saturating_add(size) > budget.max_table_entries {
            stats.elapsed = start.elapsed();
            return Err(Box::new(SearchOutcome::Oom {
                needed_entries: stats.table_entries.saturating_add(size),
                stats: stats.clone(),
            }));
        }
        if Instant::now() > deadline {
            stats.elapsed = start.elapsed();
            return Err(Box::new(SearchOutcome::Timeout {
                stats: stats.clone(),
            }));
        }
        let mut strides = vec![1u64; dep.len()];
        for t in (0..dep.len().saturating_sub(1)).rev() {
            strides[t] = strides[t + 1] * u64::from(radix[t + 1]);
        }

        let mut later_edges: Vec<(EdgeId, usize, bool)> = Vec::new();
        {
            let mut add = |e: EdgeId, other: NodeId, vi_is_src: bool| {
                if structure.position(other) > i {
                    let slot = dep
                        .binary_search(&other)
                        .expect("later neighbor must be in the dependent set");
                    later_edges.push((e, slot, vi_is_src));
                }
            };
            for &e in graph.out_edges(vi) {
                add(e, graph.edge(e).dst, true);
            }
            for &e in graph.in_edges(vi) {
                add(e, graph.edge(e).src, false);
            }
        }

        let kv = tables.k(vi) as u16;
        stats.states_evaluated += size * u64::from(kv);
        stats.table_entries += size;
        stats.peak_table_bytes = stats.table_entries.saturating_mul(DP_ENTRY_BYTES);
        plans.push(Plan {
            vi,
            dep,
            radix,
            strides,
            size,
            kv,
            later_edges,
        });
    }
    plan_span.arg("tables", n);
    plan_span.arg("entries", stats.table_entries);
    drop(plan_span);
    Ok(plans)
}

/// Linear-lookup coefficients of position `i`'s child tables. Needs only
/// the plans (dep + strides), never table contents.
pub(crate) fn child_coefs(plans: &[Plan], structure: &VertexStructure, i: usize) -> Vec<ChildCoef> {
    let plan = &plans[i];
    structure
        .subset_anchors(i)
        .iter()
        .map(|&j| {
            let child = &plans[j];
            let mut parent_coef = vec![0u64; plan.dep.len()];
            let mut vi_coef = 0u64;
            for (t, &w) in child.dep.iter().enumerate() {
                if w == plan.vi {
                    vi_coef += child.strides[t];
                } else {
                    let slot = plan.dep.binary_search(&w).unwrap_or_else(|_| {
                        panic!(
                            "D(j) ⊆ D(i) ∪ {{v_i}} violated: {w} not in D({i}) of {}",
                            plan.vi
                        )
                    });
                    parent_coef[slot] += child.strides[t];
                }
            }
            ChildCoef {
                anchor: j,
                parent_coef,
                vi_coef,
            }
        })
        .collect()
}

/// Back-substitution over fully filled scalar tables: the optimum (the sum
/// of the singleton root tables, in root order) and the argmin
/// configuration of every node. Walks from each root, assigning the stored
/// argmin configuration and recursing into the connected subsets with the
/// restricted substrategy. Assignments are kept sorted by node id so
/// lookups are binary searches / merge walks instead of linear scans.
pub(crate) fn backtrack(
    structure: &VertexStructure,
    plans: &[Plan],
    dp: &[Option<Pooled<Table>>],
) -> (f64, Vec<u16>) {
    let mut total = 0.0;
    for &r in structure.roots() {
        debug_assert!(
            plans[r].dep.is_empty(),
            "root must have an empty dependent set"
        );
        total += dp[r].as_ref().expect("root table").costs[0];
    }
    let mut ids = vec![u16::MAX; dp.len()];
    let mut stack: Vec<(usize, Vec<(NodeId, u16)>)> =
        structure.roots().iter().map(|&r| (r, Vec::new())).collect();
    while let Some((i, assignment)) = stack.pop() {
        let t = dp[i].as_ref().expect("table");
        let vi = structure.vertex(i);
        let flat = plans[i].flat_index_of(&assignment);
        let c = t.choice[flat];
        ids[vi.index()] = c;
        let mut extended = assignment;
        let at = extended.partition_point(|&(w, _)| w < vi);
        extended.insert(at, (vi, c));
        for &j in structure.subset_anchors(i) {
            let child_dep = &plans[j].dep;
            // child_dep is sorted, so the mapped assignment stays sorted.
            let child_assignment: Vec<(NodeId, u16)> = child_dep
                .iter()
                .map(|&w| {
                    let slot = extended
                        .binary_search_by_key(&w, |&(n, _)| n)
                        .expect("child dependent set must be covered");
                    (w, extended[slot].1)
                })
                .collect();
            stack.push((j, child_assignment));
        }
    }
    debug_assert!(
        ids.iter().all(|&c| c != u16::MAX),
        "every node must be assigned"
    );
    (total, ids)
}

/// The per-state value of the DP: everything [`drive`] needs to know to
/// fill tables of it and read the answer back. [`MinTime`] is PaSE's
/// min-plus `f64`; `crate::frontier::Pareto` is a dominance-pruned set of
/// `(time, memory)` points.
pub(crate) trait DpValue: Sync {
    /// The `stats.dp_kernel` tag.
    const ENGINE: &'static str;
    /// Entries per fill call: the granularity of the shared work queue and
    /// of deadline checks.
    const CHUNK: usize;
    /// One filled table.
    type Table: Poolable + Sync;
    /// One vertex's entry-invariant operands, packed once and shared by
    /// every chunk of its table.
    type Pack: Send + Sync;
    /// Per-worker fill scratch.
    type Scratch: Poolable;
    /// The buffers one table's parts fill, before [`DpValue::finish`].
    type Out: Send;
    /// One disjoint, contiguous entry range of an `Out`.
    type Part<'a>: Send;

    /// Pack `plan`'s entry-invariant operands; `children` are its child
    /// tables' lookup coefficients.
    fn pack(
        &self,
        tables: &CostTables,
        plan: &Plan,
        children: &[ChildCoef],
        dp: &[Option<Pooled<Self::Table>>],
    ) -> Self::Pack;
    /// Bytes the pack copied into panels (the `packed_bytes` counter).
    fn packed_bytes(pack: &Self::Pack) -> u64;
    /// Fresh output buffers for `plan`'s table, in parts of `part_len`
    /// entries.
    fn take_out(plan: &Plan, part_len: usize) -> Self::Out;
    /// `out` cut into its `part_len`-entry parts, in entry order.
    fn parts(out: &mut Self::Out, part_len: usize) -> impl Iterator<Item = Self::Part<'_>>;
    /// Fill entries `start .. start + len` of `cx.plan`'s table into
    /// `part`, the part holding them; a part is filled in entry order.
    fn fill(
        &self,
        cx: &FillCx<'_, Self>,
        scratch: &mut Self::Scratch,
        start: u64,
        len: usize,
        part: &mut Self::Part<'_>,
    ) -> Result<(), GraphError>;
    /// The table a filled `out` holds.
    fn finish(out: Self::Out) -> Pooled<Self::Table>;
    /// Bytes `table` holds, checked against the budget's byte cap after
    /// each wave; `n_children` is its position's child-table count.
    fn table_bytes(table: &Self::Table, n_children: usize) -> u64;
    /// Back-substitution over the filled tables: the search's answer, with
    /// `stats` attached.
    fn backtrack(
        &self,
        tables: &CostTables,
        structure: &VertexStructure,
        plans: &[Plan],
        dp: &[Option<Pooled<Self::Table>>],
        stats: SearchStats,
    ) -> Filled;
}

/// What one chunk fill reads: the cost tables, the position's plan and
/// pack, and the tables of earlier waves.
pub(crate) struct FillCx<'a, V: DpValue + ?Sized> {
    pub(crate) tables: &'a CostTables,
    pub(crate) plan: &'a Plan,
    pub(crate) pack: &'a V::Pack,
    pub(crate) dp: &'a [Option<Pooled<V::Table>>],
}

/// PaSE's DP value: the minimum step time `R_V(i, φ)`, filled by the tiled
/// min-plus microkernel of [`crate::kernel`] straight into each table's
/// final arrays.
pub(crate) struct MinTime;

impl DpValue for MinTime {
    const ENGINE: &'static str = "tiled";
    const CHUNK: usize = 4096;
    type Table = Table;
    type Pack = PackedVertex;
    type Scratch = Scratch;
    type Out = Pooled<Table>;
    type Part<'a> = FillChunk<'a>;

    fn pack(
        &self,
        tables: &CostTables,
        plan: &Plan,
        children: &[ChildCoef],
        dp: &[Option<Pooled<Table>>],
    ) -> PackedVertex {
        kernel::pack_vertex(tables, plan, children, dp)
    }

    fn packed_bytes(pack: &PackedVertex) -> u64 {
        pack.packed_bytes
    }

    fn take_out(plan: &Plan, _part_len: usize) -> Pooled<Table> {
        Table::take(plan)
    }

    fn parts(out: &mut Pooled<Table>, part_len: usize) -> impl Iterator<Item = FillChunk<'_>> {
        let t = &mut **out;
        (t.costs
            .chunks_mut(part_len)
            .zip(t.choice.chunks_mut(part_len)))
        .enumerate()
        .map(move |(k, (costs, choice))| FillChunk {
            start: (k * part_len) as u64,
            costs,
            choice,
        })
    }

    fn fill(
        &self,
        cx: &FillCx<'_, Self>,
        scratch: &mut Scratch,
        start: u64,
        len: usize,
        part: &mut FillChunk<'_>,
    ) -> Result<(), GraphError> {
        let off = (start - part.start) as usize;
        let mut chunk = FillChunk {
            start,
            costs: &mut part.costs[off..off + len],
            choice: &mut part.choice[off..off + len],
        };
        kernel::fill_chunk_tiled(cx.tables, cx.plan, cx.pack, cx.dp, scratch, &mut chunk)
    }

    fn finish(out: Pooled<Table>) -> Pooled<Table> {
        out
    }

    fn table_bytes(table: &Table, _n_children: usize) -> u64 {
        table.costs.len() as u64 * DP_ENTRY_BYTES
    }

    fn backtrack(
        &self,
        _tables: &CostTables,
        structure: &VertexStructure,
        plans: &[Plan],
        dp: &[Option<Pooled<Table>>],
        stats: SearchStats,
    ) -> Filled {
        let (cost, config_ids) = backtrack(structure, plans, dp);
        Filled {
            outcome: SearchOutcome::Found(SearchResult {
                cost,
                config_ids,
                stats,
            }),
            frontier: None,
        }
    }
}

/// The DP engine behind [`crate::Search`], for any DP value: the shared
/// [`prepare`] prelude, the wavefront-parallel table fill (see the module
/// docs), then back-substitution. Records into `trace`, when one is given, a
/// [`pase_obs::phase::STRUCTURE`] span for ordering + structure
/// construction, [`pase_obs::phase::PLAN`] for the budget-accounting pass,
/// one `"wavefront <w>"` span per DP wavefront, each with a nested
/// [`pase_obs::phase::KERNEL`] span, the `table_bytes` and `packed_bytes`
/// counters after each wave, and [`pase_obs::phase::BACKTRACK`] for
/// strategy extraction. Results are identical with and without a trace,
/// and at any rayon thread count.
///
/// Accepts a caller-supplied [`VertexStructure`] (which depends only on the
/// graph, ordering, and connected-set mode — never on the tables, so one
/// build serves the adaptive gate's estimation, a pruned DP, and an
/// unpruned DP alike).
pub(crate) fn drive<V: DpValue>(
    value: &V,
    graph: &Graph,
    tables: &CostTables,
    opts: &DpOptions,
    trace: Option<&Trace>,
    prebuilt: Option<VertexStructure>,
) -> Result<Filled, GraphError> {
    let Prepared {
        start,
        deadline,
        structure,
        plans,
        mut stats,
    } = match prepare(graph, tables, opts, trace, prebuilt, V::ENGINE) {
        Ok(p) => p,
        Err(outcome) => {
            return Ok(Filled {
                outcome: *outcome,
                frontier: None,
            })
        }
    };
    let mut dp: Vec<Option<Pooled<V::Table>>> = (0..plans.len()).map(|_| None).collect();
    let byte_cap = opts.budget.max_table_bytes();
    // Bytes held by finished tables, and bytes transposed into panel
    // scratch so far (the pase-obs `table_bytes` / `packed_bytes`
    // counters).
    let (mut table_bytes, mut packed_bytes) = (0u64, 0u64);

    for (wi, wave) in structure.wavefronts().iter().enumerate() {
        let mut wave_span = trace.map(|t| t.span(phase::wavefront_name(wi)));
        let kernel_span = span_in(trace, phase::KERNEL);
        let total_entries: u64 = wave.iter().map(|&i| plans[i].size).sum();
        // Every table of a wave depends only on tables of earlier waves, so
        // the chunks of all of them go into one shared work queue, one
        // `CHUNK`-entry part each. A wave of less than one chunk, or a
        // 1-thread pool, gains nothing from the queue: it is filled inline,
        // one table at a time and each table as one part, so each table's
        // pack and output stay in cache and nothing is stitched.
        let shared = total_entries >= V::CHUNK as u64 && rayon::current_num_threads() > 1;
        let part_len = |i: usize| {
            if shared {
                V::CHUNK
            } else {
                (plans[i].size as usize).max(1)
            }
        };
        let mut scratch = Pooled::<V::Scratch>::take();
        for batch in wave.chunks(if shared { wave.len() } else { 1 }) {
            // Pack each table's entry-invariant operands once (in parallel
            // for a shared queue); every chunk of a table shares its pack.
            let pack =
                |i: usize| value.pack(tables, &plans[i], &child_coefs(&plans, &structure, i), &dp);
            let packs: Vec<V::Pack> = if shared {
                (0..batch.len())
                    .into_par_iter()
                    .map(|w| pack(batch[w]))
                    .collect()
            } else {
                batch.iter().map(|&i| pack(i)).collect()
            };
            packed_bytes += packs.iter().map(V::packed_bytes).sum::<u64>();
            let mut outs: Vec<V::Out> = batch
                .iter()
                .map(|&i| V::take_out(&plans[i], part_len(i)))
                .collect();
            let mut parts = Vec::new();
            for (w, out) in outs.iter_mut().enumerate() {
                let (size, n) = (plans[batch[w]].size as usize, part_len(batch[w]));
                for (k, part) in V::parts(out, n).enumerate() {
                    parts.push((w, k * n, (size - k * n).min(n), part));
                }
            }
            // Set by a timeout or a fill error (the kernels only fail on a
            // malformed plan); later chunks drain without working.
            let aborted = AtomicBool::new(false);
            let fill_error: Mutex<Option<GraphError>> = Mutex::new(None);
            let fill = |scratch: &mut V::Scratch,
                        (w, lo, len, mut part): (usize, usize, usize, _)| {
                let cx = FillCx {
                    tables,
                    plan: &plans[batch[w]],
                    pack: &packs[w],
                    dp: &dp,
                };
                for start in (lo..lo + len).step_by(V::CHUNK) {
                    if aborted.load(AtomicOrdering::Relaxed) {
                        return;
                    }
                    if Instant::now() > deadline {
                        aborted.store(true, AtomicOrdering::Relaxed);
                        return;
                    }
                    let n = (lo + len - start).min(V::CHUNK);
                    if let Err(e) = value.fill(&cx, scratch, start as u64, n, &mut part) {
                        aborted.store(true, AtomicOrdering::Relaxed);
                        fill_error.lock().unwrap().get_or_insert(e);
                        return;
                    }
                }
            };
            if shared {
                parts
                    .into_par_iter()
                    .for_each_init(Pooled::<V::Scratch>::take, |scratch, part| {
                        fill(scratch, part)
                    });
            } else {
                for part in parts {
                    fill(&mut scratch, part);
                }
            }
            if aborted.into_inner() {
                if let Some(e) = fill_error.into_inner().unwrap() {
                    return Err(e);
                }
                stats.elapsed = start.elapsed();
                return Ok(Filled {
                    outcome: SearchOutcome::Timeout { stats },
                    frontier: None,
                });
            }
            for (&i, out) in batch.iter().zip(outs) {
                let table = V::finish(out);
                table_bytes += V::table_bytes(&table, structure.subset_anchors(i).len());
                dp[i] = Some(table);
            }
        }
        drop(kernel_span);
        wave_span.arg("tables", wave.len());
        wave_span.arg("entries", total_entries);
        drop(wave_span);
        if let Some(t) = trace {
            t.counter("table_bytes", table_bytes);
            t.counter("packed_bytes", packed_bytes);
        }
        // Scalar tables were accounted exactly by the plan pass; this only
        // trips for values whose size depends on table contents.
        if table_bytes > byte_cap {
            stats.peak_table_bytes = stats.peak_table_bytes.max(table_bytes);
            stats.elapsed = start.elapsed();
            return Ok(Filled {
                outcome: SearchOutcome::Oom {
                    needed_entries: table_bytes / DP_ENTRY_BYTES,
                    stats,
                },
                frontier: None,
            });
        }
    }
    stats.peak_table_bytes = stats.peak_table_bytes.max(table_bytes);

    let mut backtrack_span = span_in(trace, phase::BACKTRACK);
    backtrack_span.arg("roots", structure.roots().len());
    let mut filled = value.backtrack(tables, &structure, &plans, &dp, stats);
    drop(backtrack_span);
    drop(dp);
    filled.outcome.stats_mut().elapsed = start.elapsed();
    Ok(filled)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::brute::brute_force;
    use crate::Search;
    use pase_cost::{ConfigRule, MachineSpec, PruneOptions};
    use pase_graph::{DimRole, GraphBuilder, IterDim, Node, OpKind, TensorRef};

    /// Run `f` on a rayon pool capped at `threads` workers.
    pub(crate) fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool")
            .install(f)
    }

    fn fc(name: &str, ins: usize, b: u64, n: u64, c: u64) -> Node {
        let dims = vec![
            IterDim::new("b", b, DimRole::Batch),
            IterDim::new("n", n, DimRole::Param),
            IterDim::new("c", c, DimRole::Reduction),
        ];
        Node {
            name: name.into(),
            op: OpKind::FullyConnected,
            iter_space: dims,
            inputs: (0..ins)
                .map(|_| TensorRef::new(vec![0, 2], vec![b, c]))
                .collect(),
            output: TensorRef::new(vec![0, 1], vec![b, n]),
            params: vec![TensorRef::new(vec![1, 2], vec![n, c])],
        }
    }

    /// fc1 → fc2 → fc3 chain with distinct shapes.
    fn chain3() -> Graph {
        let mut bld = GraphBuilder::new();
        let a = bld.add_node(fc("fc1", 0, 64, 128, 256));
        let b = bld.add_node(fc("fc2", 1, 64, 256, 128));
        let c = bld.add_node(fc("fc3", 1, 64, 64, 256));
        bld.connect(a, b);
        bld.connect(b, c);
        bld.build().unwrap()
    }

    /// Diamond: fc1 → {fc2, fc3} → concat-like fc4 (two inputs).
    fn diamond() -> Graph {
        let mut bld = GraphBuilder::new();
        let a = bld.add_node(fc("a", 0, 64, 128, 128));
        let b = bld.add_node(fc("b", 1, 64, 128, 128));
        let c = bld.add_node(fc("c", 1, 64, 128, 128));
        let d = bld.add_node(fc("d", 2, 64, 128, 128));
        bld.connect(a, b);
        bld.connect(a, c);
        bld.connect(b, d);
        bld.connect(c, d);
        bld.build().unwrap()
    }

    fn check_against_brute(g: &Graph, p: u32) {
        let tables = CostTables::build(g, ConfigRule::new(p), &MachineSpec::test_machine());
        let (bf_cost, _) = brute_force(g, &tables);
        for (label, ordering, mode) in [
            (
                "generate-seq/exact",
                OrderingKind::GenerateSeq,
                ConnectedSetMode::Exact,
            ),
            (
                "bfs/prefix",
                OrderingKind::BreadthFirst,
                ConnectedSetMode::Prefix,
            ),
            (
                "random/exact",
                OrderingKind::Random { seed: 7 },
                ConnectedSetMode::Exact,
            ),
        ] {
            let r = Search::new(g)
                .tables(&tables)
                .ordering(ordering)
                .connected_sets(mode)
                .run()
                .expect_found(label);
            assert!(
                (r.cost - bf_cost).abs() <= 1e-6 * bf_cost.abs().max(1.0),
                "{label}: DP cost {} != brute-force {}",
                r.cost,
                bf_cost
            );
            // The extracted strategy must evaluate to exactly the DP cost.
            let eval = tables.evaluate_ids(g, &r.config_ids);
            assert!(
                (eval - r.cost).abs() <= 1e-6 * r.cost.abs().max(1.0),
                "{label}: extracted strategy evaluates to {} but DP claims {}",
                eval,
                r.cost
            );
        }
    }

    #[test]
    fn dp_matches_brute_force_on_chain() {
        check_against_brute(&chain3(), 4);
    }

    #[test]
    fn dp_matches_brute_force_on_diamond() {
        check_against_brute(&diamond(), 4);
    }

    #[test]
    fn dp_matches_brute_force_on_disconnected_graph() {
        let mut bld = GraphBuilder::new();
        let a = bld.add_node(fc("a", 0, 64, 128, 128));
        let b = bld.add_node(fc("b", 1, 64, 128, 128));
        bld.connect(a, b);
        let _ = bld.add_node(fc("solo", 0, 64, 256, 64));
        let g = bld.build().unwrap();
        check_against_brute(&g, 4);
    }

    #[test]
    fn oom_budget_aborts_cleanly() {
        let g = diamond();
        let tables = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
        let run = Search::new(&g)
            .tables(&tables)
            .budget(SearchBudget::with_max_entries(2))
            .run();
        match run.into_outcome() {
            SearchOutcome::Oom { needed_entries, .. } => assert!(needed_entries > 2),
            other => panic!("expected OOM, got {}", other.tag()),
        }
    }

    #[test]
    fn timeout_budget_aborts_cleanly() {
        let g = diamond();
        let tables = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
        let outcome = Search::new(&g)
            .tables(&tables)
            .budget(SearchBudget::with_max_time(std::time::Duration::ZERO))
            .run()
            .into_outcome();
        match outcome {
            SearchOutcome::Timeout { .. } => {}
            other => panic!("expected timeout, got {}", other.tag()),
        }
    }

    #[test]
    fn empty_graph_is_trivially_solved() {
        let g = GraphBuilder::new().build().unwrap();
        let tables = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let r = Search::new(&g).tables(&tables).run().expect_found("empty");
        assert_eq!(r.cost, 0.0);
        assert!(r.config_ids.is_empty());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let g = diamond();
        let tables = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
        let run = |threads| with_threads(threads, || Search::new(&g).tables(&tables).run());
        let par = run(4).expect_found("parallel");
        let ser = run(1).expect_found("serial");
        assert_eq!(par.cost, ser.cost);
        assert_eq!(par.config_ids, ser.config_ids);
    }

    #[test]
    fn one_and_many_threads_agree_on_benchmarks() {
        // Spreading a wave's chunks over workers must be a pure reordering
        // of the work: on every paper benchmark model the costs AND the
        // extracted per-node configuration ids must match a 1-thread fill
        // exactly.
        for bench in pase_models::Benchmark::all() {
            let g = bench.build();
            let tables = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
            let run = |threads| {
                with_threads(threads, || {
                    Search::new(&g)
                        .tables(&tables)
                        .run()
                        .expect_found(bench.name())
                })
            };
            let (wavefront, sequential) = (run(4), run(1));
            assert_eq!(
                wavefront.cost.to_bits(),
                sequential.cost.to_bits(),
                "{}: 4-thread cost {} != 1-thread cost {}",
                bench.name(),
                wavefront.cost,
                sequential.cost
            );
            assert_eq!(
                wavefront.config_ids,
                sequential.config_ids,
                "{}: thread counts disagree on the argmin strategy",
                bench.name()
            );
            assert!(wavefront.stats.wavefronts > 0);
            assert!(wavefront.stats.max_wavefront_width >= 1);
        }
    }

    #[test]
    fn naive_helper_equals_efficient_result() {
        let g = chain3();
        let tables = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let eff = Search::new(&g)
            .tables(&tables)
            .run()
            .expect_found("efficient");
        let naive = naive_best_strategy(&g, &tables, SearchBudget::default()).expect_found("naive");
        assert!((eff.cost - naive.cost).abs() <= 1e-9 * eff.cost);
    }

    #[test]
    fn prefix_mode_is_ordering_agnostic() {
        // Recurrence (2)'s single-child form is exact for *any* vertex
        // ordering — including ones that interleave two chains before
        // their join (this graph caught a components-based prefix
        // implementation double-counting shared sub-solutions).
        let mut bld = GraphBuilder::new();
        let a0 = bld.add_node(fc("a0", 0, 32, 64, 64));
        let a1 = bld.add_node(fc("a1", 1, 32, 64, 64));
        let b0 = bld.add_node(fc("b0", 0, 32, 64, 64));
        let b1 = bld.add_node(fc("b1", 1, 32, 64, 64));
        let hub = bld.add_node(fc("hub", 2, 32, 64, 64));
        bld.connect(a0, a1);
        bld.connect(b0, b1);
        bld.connect(a1, hub);
        bld.connect(b1, hub);
        let g = bld.build().unwrap();
        let tables = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let exact = Search::new(&g).tables(&tables).run().expect_found("exact");
        for ordering in [
            OrderingKind::GenerateSeq,
            OrderingKind::BreadthFirst,
            OrderingKind::Random { seed: 5 },
        ] {
            let got = Search::new(&g)
                .tables(&tables)
                .ordering(ordering)
                .connected_sets(ConnectedSetMode::Prefix)
                .run()
                .expect_found("prefix")
                .cost;
            assert!(
                (got - exact.cost).abs() <= 1e-9 * exact.cost,
                "{ordering:?}: prefix {got} vs exact {}",
                exact.cost
            );
        }
    }

    #[test]
    fn stats_are_populated() {
        let g = diamond();
        // Force interning despite the tiny graph so the hit-rate stat is
        // exercised (diamond is below the default size gate).
        let tables = CostTables::build_with(
            &g,
            ConfigRule::new(4),
            &MachineSpec::test_machine(),
            &pase_cost::TableOptions {
                intern_min_nodes: 0,
                ..pase_cost::TableOptions::default()
            },
        );
        let r = Search::new(&g).tables(&tables).run().expect_found("stats");
        assert!(r.stats.states_evaluated > 0);
        assert!(r.stats.table_entries > 0);
        assert!(r.stats.max_configs > 0);
        assert_eq!(r.stats.k_before, r.stats.max_configs);
        assert!(r.stats.wavefronts > 0);
        assert!(r.stats.max_wavefront_width >= 1);
        // Diamond has repeated structures (b/c identical), so the interned
        // build must report sharing.
        assert!(r.stats.intern_hit_rate.expect("interning ran") > 0.0);
        assert_eq!(r.stats.dp_kernel, MinTime::ENGINE);
    }

    #[test]
    fn skipped_interning_reports_no_hit_rate() {
        // Diamond is below the default `intern_min_nodes` size gate, so the
        // interning pass never runs — the hit rate must be absent, not a
        // misleading 0%.
        let g = diamond();
        let tables = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let r = Search::new(&g).tables(&tables).run().expect_found("gated");
        assert_eq!(r.stats.intern_hit_rate, None);
    }

    #[test]
    fn search_records_kernel_span_and_packed_bytes() {
        use pase_obs::Trace;
        let g = diamond();
        let tables = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
        let trace = Trace::new();
        Search::new(&g)
            .tables(&tables)
            .trace(&trace)
            .run()
            .expect_found("tiled traced");
        let names: Vec<String> = trace.spans().iter().map(|s| s.name.clone()).collect();
        assert!(names.iter().any(|n| n == phase::KERNEL), "spans: {names:?}");
        // Diamond has at least one later edge with the vertex on the source
        // side, so the tiled kernel must report transposed panel bytes.
        assert!(trace
            .counters()
            .iter()
            .any(|c| c.name == "packed_bytes" && c.value > 0));
    }

    #[test]
    fn pruned_search_elapsed_includes_prune_time() {
        let g = diamond();
        let tables = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
        let r = Search::new(&g)
            .tables(&tables)
            .pruning(PruneOptions::default())
            .run()
            .expect_found("pruned");
        assert!(r.stats.prune_time > std::time::Duration::ZERO);
        assert!(
            r.stats.elapsed >= r.stats.prune_time,
            "elapsed {:?} must include prune_time {:?}",
            r.stats.elapsed,
            r.stats.prune_time
        );
    }

    #[test]
    fn peak_table_bytes_tracks_real_entry_size() {
        use crate::budget::DP_ENTRY_BYTES;
        let g = diamond();
        let tables = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let r = Search::new(&g).tables(&tables).run().expect_found("peak");
        // Tables are never freed before back-substitution, so the peak is
        // exactly the total accounted entries times the real entry size.
        assert!(r.stats.table_entries > 0);
        assert_eq!(
            r.stats.peak_table_bytes,
            r.stats.table_entries * DP_ENTRY_BYTES
        );
    }

    #[test]
    fn traced_search_records_pipeline_spans() {
        use pase_obs::Trace;
        let g = diamond();
        let tables = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let trace = Trace::new();
        let r = Search::new(&g)
            .tables(&tables)
            .trace(&trace)
            .run()
            .expect_found("traced");
        let spans = trace.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&phase::STRUCTURE), "spans: {names:?}");
        assert!(names.contains(&phase::PLAN), "spans: {names:?}");
        assert!(names.contains(&phase::BACKTRACK), "spans: {names:?}");
        let waves = names.iter().filter(|n| phase::is_wavefront(n)).count();
        assert_eq!(waves, r.stats.wavefronts, "one span per DP wavefront");
        // The table-memory counter was sampled after each wave and ends at
        // the accounted total.
        let samples: Vec<u64> = trace
            .counters()
            .iter()
            .filter(|c| c.name == "table_bytes")
            .map(|c| c.value)
            .collect();
        assert_eq!(samples.len(), r.stats.wavefronts);
        assert_eq!(samples.last().copied(), Some(r.stats.peak_table_bytes));
        assert!(samples.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn traced_pruned_search_records_prune_span() {
        use pase_obs::Trace;
        let g = diamond();
        let tables = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
        let trace = Trace::new();
        let r = Search::new(&g)
            .tables(&tables)
            .pruning(PruneOptions::default())
            .trace(&trace)
            .run()
            .expect_found("pruned traced");
        let names: Vec<String> = trace.spans().iter().map(|s| s.name.clone()).collect();
        assert!(names.iter().any(|n| n == phase::PRUNE), "spans: {names:?}");
        // The disjoint pipeline spans must account for (nearly) all of the
        // reported elapsed time; they are a partition of the run, so their
        // sum cannot exceed it either.
        let sum = trace.span_time_where(|n| {
            n == phase::PRUNE
                || n == phase::STRUCTURE
                || n == phase::PLAN
                || n == phase::BACKTRACK
                || phase::is_wavefront(n)
        });
        assert!(
            sum <= r.stats.elapsed * 11 / 10,
            "span sum {sum:?} exceeds elapsed {:?}",
            r.stats.elapsed
        );
    }

    #[test]
    fn pruned_search_is_bit_identical_and_back_maps() {
        for g in [chain3(), diamond()] {
            for p in [4u32, 8] {
                let tables =
                    CostTables::build(&g, ConfigRule::new(p), &MachineSpec::test_machine());
                let plain = Search::new(&g).tables(&tables).run().expect_found("plain");
                let pruned = Search::new(&g)
                    .tables(&tables)
                    .pruning(PruneOptions::default())
                    .run()
                    .expect_found("pruned");
                assert_eq!(
                    pruned.cost.to_bits(),
                    plain.cost.to_bits(),
                    "p = {p}: pruned cost {} != unpruned {}",
                    pruned.cost,
                    plain.cost
                );
                // Back-mapped ids index the *original* tables and evaluate
                // to the optimum there (up to summation-order rounding).
                let eval = tables.evaluate_ids(&g, &pruned.config_ids);
                assert!(
                    (eval - plain.cost).abs() <= 1e-9 * plain.cost.abs().max(1.0),
                    "back-mapped strategy evaluates to {eval}, optimum {}",
                    plain.cost
                );
                assert!(pruned.stats.k_before >= pruned.stats.max_configs);
                assert!(pruned.stats.k_before > 0);
            }
        }
    }
}
