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
//! * Tables are filled **wavefront-parallel**: the table at position `i`
//!   reads exactly the tables at `subset_anchors(i)`, so the positions form
//!   a DAG whose levels ([`VertexStructure::wavefronts`]) can each be
//!   filled concurrently — parallelism across *tables*, not just across
//!   one table's entries. Within a wave, every table is cut into fixed-size
//!   entry chunks and the chunks of all tables share one work queue, so a
//!   wave with one huge and many tiny tables still balances. Budget
//!   accounting runs sequentially in position order first (table sizes are
//!   content-independent), preserving the exact OOM/timeout semantics of a
//!   sequential fill.
//! * Each chunk is filled by the packed, run-blocked min-plus microkernel
//!   of [`crate::kernel`]: it decodes its first substrategy index once,
//!   then walks the mixed-radix odometer **incrementally**, one
//!   innermost-digit run at a time. Costs and choices are written straight
//!   into the table's final arrays. The per-entry scalar loop it replaced
//!   survives only as the test oracle [`crate::reference::scalar_search`].
//! * Budgets are enforced *before* each allocation (`Oom`) and per chunk of
//!   work (`Timeout`), reproducing Table I's failure modes without actually
//!   exhausting the machine.

use crate::budget::{SearchBudget, SearchOutcome, SearchResult, SearchStats, DP_ENTRY_BYTES};
use crate::kernel;
use crate::ordering::{make_ordering, OrderingKind};
use crate::pool;
use crate::structure::{ConnectedSetMode, VertexStructure};
use pase_cost::CostTables;
use pase_graph::{EdgeId, Graph, GraphError, NodeId};
use pase_obs::{phase, span_in, OptSpan, Trace};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::time::Instant;

/// Entries per work chunk: the granularity of parallel scheduling and of
/// deadline checks.
const CHUNK: usize = 4096;

/// The `stats.dp_kernel` tag of the scalar engine: the tiled min-plus
/// microkernel of [`crate::kernel`].
pub(crate) const ENGINE: &str = "tiled";

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
    /// Fill tables wavefront-parallel with rayon; `false` fills strictly
    /// sequentially in position order (bit-identical results either way).
    pub(crate) parallel: bool,
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
            parallel: true,
            frontier_width: DEFAULT_FRONTIER_WIDTH,
        }
    }
}

/// One DP table: `R_V(i, ·)` and the argmin configurations over the dense
/// substrategy space of `D(i)`.
pub(crate) struct Table {
    /// `D(i)`, sorted by node id (canonical digit order).
    dep: Vec<NodeId>,
    /// Mixed-radix strides per digit (row-major, last digit contiguous).
    strides: Vec<u64>,
    /// `R_V(i, φ)` per flat index.
    pub(crate) costs: Vec<f64>,
    /// Argmin configuration id of `v^(i)` per flat index.
    choice: Vec<u16>,
}

impl Table {
    /// Install a filled `(costs, choice)` pair as `plan`'s table.
    pub(crate) fn new(plan: &Plan, costs: Vec<f64>, choice: Vec<u16>) -> Self {
        Self {
            dep: plan.dep.clone(),
            strides: plan.strides.clone(),
            costs,
            choice,
        }
    }

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

/// One unit of fill work: a contiguous entry range of one table, with the
/// output slices it writes.
pub(crate) struct FillChunk<'a> {
    pub(crate) plan_idx: usize,
    pub(crate) start: u64,
    pub(crate) costs: &'a mut [f64],
    pub(crate) choice: &'a mut [u16],
}

/// Return every finished table's buffers to this thread's pool (see
/// [`crate::pool`]) once the search no longer reads them.
fn recycle_tables(dp: Vec<Option<Table>>) {
    for t in dp.into_iter().flatten() {
        pool::recycle_table(t.costs, t.choice);
    }
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

/// The prelude every DP driver shares — the scalar and frontier engines
/// and the [`crate::reference`] oracles: stats initialization tagged with
/// `engine`, the structure build (unless `prebuilt` is supplied — the
/// adaptive gate builds it once for its estimate), and the
/// budget-accounted plan pass. `Err` carries an outcome settled before any
/// fill: the zero-cost strategy of an empty graph (`Found`), or the
/// `Oom`/`Timeout` the plan pass hit.
pub(crate) fn prepare(
    graph: &Graph,
    tables: &CostTables,
    opts: &DpOptions,
    trace: Option<&Trace>,
    prebuilt: Option<VertexStructure>,
    engine: &'static str,
) -> Result<Prepared, SearchOutcome> {
    let start = Instant::now();
    if graph.is_empty() {
        return Err(SearchOutcome::Found(SearchResult {
            cost: 0.0,
            config_ids: vec![],
            stats: SearchStats {
                dp_kernel: engine,
                ..SearchStats::default()
            },
        }));
    }
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
) -> Result<Vec<Plan>, SearchOutcome> {
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
                    return Err(SearchOutcome::Oom {
                        needed_entries: u64::MAX,
                        stats: stats.clone(),
                    });
                }
            }
        }
        if stats.table_entries.saturating_add(size) > budget.max_table_entries {
            stats.elapsed = start.elapsed();
            return Err(SearchOutcome::Oom {
                needed_entries: stats.table_entries.saturating_add(size),
                stats: stats.clone(),
            });
        }
        if Instant::now() > deadline {
            stats.elapsed = start.elapsed();
            return Err(SearchOutcome::Timeout {
                stats: stats.clone(),
            });
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
/// the plans (dep + strides), never table contents — shared by the scalar
/// and frontier fills.
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
pub(crate) fn backtrack(structure: &VertexStructure, dp: &[Option<Table>]) -> (f64, Vec<u16>) {
    let mut total = 0.0;
    for &r in structure.roots() {
        let t = dp[r].as_ref().expect("root table");
        debug_assert!(t.dep.is_empty(), "root must have an empty dependent set");
        total += t.costs[0];
    }
    let mut ids = vec![u16::MAX; dp.len()];
    let mut stack: Vec<(usize, Vec<(NodeId, u16)>)> =
        structure.roots().iter().map(|&r| (r, Vec::new())).collect();
    while let Some((i, assignment)) = stack.pop() {
        let t = dp[i].as_ref().expect("table");
        let vi = structure.vertex(i);
        let flat = t.flat_index_of(&assignment);
        let c = t.choice[flat];
        ids[vi.index()] = c;
        let mut extended = assignment;
        let at = extended.partition_point(|&(w, _)| w < vi);
        extended.insert(at, (vi, c));
        for &j in structure.subset_anchors(i) {
            let child_dep = &dp[j].as_ref().expect("child").dep;
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

/// The scalar DP engine behind [`crate::Search`]: the shared [`prepare`]
/// prelude, then the wavefront-parallel (or sequential) table fill through
/// the tiled min-plus microkernel of [`crate::kernel`], then
/// back-substitution. Records into `trace`, when one is given, a
/// [`pase_obs::phase::STRUCTURE`] span for ordering + structure
/// construction, [`pase_obs::phase::PLAN`] for the budget-accounting pass,
/// one `"wavefront <w>"` span per DP wavefront — or one
/// [`pase_obs::phase::SEQUENTIAL_FILL`] span when `opts.parallel` is off —
/// each with a nested [`pase_obs::phase::KERNEL`] span, the `table_bytes`
/// and `packed_bytes` counters, and [`pase_obs::phase::BACKTRACK`] for
/// strategy extraction. Results are identical with and without a trace.
///
/// Accepts a caller-supplied [`VertexStructure`] (which depends only on the
/// graph, ordering, and connected-set mode — never on the tables, so one
/// build serves the adaptive gate's estimation, a pruned DP, and an
/// unpruned DP alike).
pub(crate) fn run_with_structure(
    graph: &Graph,
    tables: &CostTables,
    opts: &DpOptions,
    trace: Option<&Trace>,
    prebuilt: Option<VertexStructure>,
) -> Result<SearchOutcome, GraphError> {
    let Prepared {
        start,
        deadline,
        structure,
        plans,
        mut stats,
    } = match prepare(graph, tables, opts, trace, prebuilt, ENGINE) {
        Ok(p) => p,
        Err(outcome) => return Ok(outcome),
    };
    let n = plans.len();

    // Child coefficients need only the child's *plan* (dep + strides), so
    // they are precomputable for every position up front.
    let children_of = |i: usize| -> Vec<ChildCoef> { child_coefs(&plans, &structure, i) };

    let timed_out = AtomicBool::new(false);
    let errored = AtomicBool::new(false);
    // First fill error (the kernel only fails on a malformed plan); chunks
    // observe `errored` and drain without working, like a timeout.
    let fill_error: Mutex<Option<GraphError>> = Mutex::new(None);
    // Cumulative bytes transposed into panel scratch (the pase-obs
    // `packed_bytes` counter).
    let packed_bytes = AtomicU64::new(0);
    let mut dp: Vec<Option<Table>> = (0..n).map(|_| None).collect();

    let mut allocated_entries = 0u64;
    if opts.parallel {
        // Wavefront schedule: every table of a wave depends only on tables
        // of earlier waves, so all chunks of all tables in the wave go into
        // one shared work queue.
        for (wi, wave) in structure.wavefronts().iter().enumerate() {
            let mut wave_span = trace.map(|t| t.span(phase::wavefront_name(wi)));
            let mut outs: Vec<(Vec<f64>, Vec<u16>)> = wave
                .iter()
                .map(|&i| pool::take_table(plans[i].size as usize))
                .collect();
            let total_entries: usize = wave.iter().map(|&i| plans[i].size as usize).sum();

            let kernel_span = span_in(trace, phase::KERNEL);
            // Pack each table's entry-invariant operands once, up front and
            // in parallel; every chunk of a table shares its pack.
            let wave_packed: Vec<kernel::PackedVertex> = {
                let dp_ref = &dp;
                (0..wave.len())
                    .into_par_iter()
                    .map(|w| {
                        let i = wave[w];
                        kernel::pack_vertex(tables, &plans[i], &children_of(i), dp_ref)
                    })
                    .collect()
            };
            packed_bytes.fetch_add(
                wave_packed.iter().map(|p| p.packed_bytes).sum::<u64>(),
                AtomicOrdering::Relaxed,
            );
            if total_entries >= CHUNK {
                let mut chunks: Vec<FillChunk<'_>> = Vec::new();
                for (w, (costs, choice)) in outs.iter_mut().enumerate() {
                    let mut start = 0u64;
                    for (cs, ch) in costs.chunks_mut(CHUNK).zip(choice.chunks_mut(CHUNK)) {
                        let len = cs.len() as u64;
                        chunks.push(FillChunk {
                            plan_idx: w,
                            start,
                            costs: cs,
                            choice: ch,
                        });
                        start += len;
                    }
                }
                let dp_ref = &dp;
                let plans_ref = &plans;
                let wave_packed_ref = &wave_packed;
                let timed_out_ref = &timed_out;
                let errored_ref = &errored;
                let fill_error_ref = &fill_error;
                chunks
                    .into_par_iter()
                    .for_each_init(pool::take_scratch, |scratch, mut chunk| {
                        if timed_out_ref.load(AtomicOrdering::Relaxed)
                            || errored_ref.load(AtomicOrdering::Relaxed)
                        {
                            return;
                        }
                        if Instant::now() > deadline {
                            timed_out_ref.store(true, AtomicOrdering::Relaxed);
                            return;
                        }
                        let i = wave[chunk.plan_idx];
                        if let Err(e) = kernel::fill_chunk_tiled(
                            tables,
                            &plans_ref[i],
                            &wave_packed_ref[chunk.plan_idx],
                            dp_ref,
                            scratch,
                            &mut chunk,
                        ) {
                            errored_ref.store(true, AtomicOrdering::Relaxed);
                            fill_error_ref.lock().unwrap().get_or_insert(e);
                        }
                    });
            } else {
                let mut scratch = pool::take_scratch();
                for (w, (costs, choice)) in outs.iter_mut().enumerate() {
                    if Instant::now() > deadline {
                        timed_out.store(true, AtomicOrdering::Relaxed);
                        break;
                    }
                    let i = wave[w];
                    let mut chunk = FillChunk {
                        plan_idx: w,
                        start: 0,
                        costs,
                        choice,
                    };
                    if let Err(e) = kernel::fill_chunk_tiled(
                        tables,
                        &plans[i],
                        &wave_packed[w],
                        &dp,
                        &mut scratch,
                        &mut chunk,
                    ) {
                        errored.store(true, AtomicOrdering::Relaxed);
                        fill_error.lock().unwrap().get_or_insert(e);
                        break;
                    }
                }
            }
            drop(kernel_span);
            wave_span.arg("tables", wave.len());
            wave_span.arg("entries", total_entries);
            drop(wave_span);
            if timed_out.load(AtomicOrdering::Relaxed) || errored.load(AtomicOrdering::Relaxed) {
                for (costs, choice) in outs {
                    pool::recycle_table(costs, choice);
                }
                recycle_tables(dp);
                if let Some(e) = fill_error.lock().unwrap().take() {
                    return Err(e);
                }
                stats.elapsed = start.elapsed();
                return Ok(SearchOutcome::Timeout { stats });
            }
            for (w, (costs, choice)) in outs.into_iter().enumerate() {
                dp[wave[w]] = Some(Table::new(&plans[wave[w]], costs, choice));
            }
            if let Some(t) = trace {
                allocated_entries += total_entries as u64;
                t.counter("table_bytes", allocated_entries * DP_ENTRY_BYTES);
                t.counter("packed_bytes", packed_bytes.load(AtomicOrdering::Relaxed));
            }
        }
    } else {
        // Strictly sequential fill in position order (the wavefront
        // schedule produces bit-identical tables; this path exists for
        // measurement and as the oracle in scheduling tests).
        let mut fill_span = span_in(trace, phase::SEQUENTIAL_FILL);
        fill_span.arg("tables", n);
        fill_span.arg("entries", stats.table_entries);
        let kernel_span = span_in(trace, phase::KERNEL);
        let mut scratch = pool::take_scratch();
        for i in 0..n {
            let packed = kernel::pack_vertex(tables, &plans[i], &children_of(i), &dp);
            packed_bytes.fetch_add(packed.packed_bytes, AtomicOrdering::Relaxed);
            let size = plans[i].size as usize;
            let (mut costs, mut choice) = pool::take_table(size);
            for lo in (0..size).step_by(CHUNK) {
                if Instant::now() > deadline {
                    pool::recycle_table(costs, choice);
                    recycle_tables(dp);
                    stats.elapsed = start.elapsed();
                    return Ok(SearchOutcome::Timeout { stats });
                }
                let hi = (lo + CHUNK).min(size);
                let mut chunk = FillChunk {
                    plan_idx: i,
                    start: lo as u64,
                    costs: &mut costs[lo..hi],
                    choice: &mut choice[lo..hi],
                };
                if let Err(e) = kernel::fill_chunk_tiled(
                    tables,
                    &plans[i],
                    &packed,
                    &dp,
                    &mut scratch,
                    &mut chunk,
                ) {
                    pool::recycle_table(costs, choice);
                    recycle_tables(dp);
                    return Err(e);
                }
            }
            dp[i] = Some(Table::new(&plans[i], costs, choice));
        }
        drop(kernel_span);
        if let Some(t) = trace {
            t.counter("packed_bytes", packed_bytes.load(AtomicOrdering::Relaxed));
        }
    }

    let mut backtrack_span = span_in(trace, phase::BACKTRACK);
    backtrack_span.arg("roots", structure.roots().len());
    let (cost, config_ids) = backtrack(&structure, &dp);
    drop(backtrack_span);
    recycle_tables(dp);

    stats.elapsed = start.elapsed();
    Ok(SearchOutcome::Found(SearchResult {
        cost,
        config_ids,
        stats,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force;
    use crate::Search;
    use pase_cost::{ConfigRule, MachineSpec, PruneOptions};
    use pase_graph::{DimRole, GraphBuilder, IterDim, Node, OpKind, TensorRef};

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
        let par = Search::new(&g)
            .tables(&tables)
            .run()
            .expect_found("parallel");
        let ser = Search::new(&g)
            .tables(&tables)
            .parallel(false)
            .run()
            .expect_found("serial");
        assert_eq!(par.cost, ser.cost);
        assert_eq!(par.config_ids, ser.config_ids);
    }

    #[test]
    fn wavefront_and_sequential_schedules_agree_on_benchmarks() {
        // The wavefront schedule must be a pure reordering of the work: on
        // every paper benchmark model the costs AND the extracted per-node
        // configuration ids must match the sequential fill exactly.
        for bench in pase_models::Benchmark::all() {
            let g = bench.build();
            let tables = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
            let wavefront = Search::new(&g)
                .tables(&tables)
                .run()
                .expect_found(bench.name());
            let sequential = Search::new(&g)
                .tables(&tables)
                .parallel(false)
                .run()
                .expect_found(bench.name());
            assert_eq!(
                wavefront.cost.to_bits(),
                sequential.cost.to_bits(),
                "{}: wavefront cost {} != sequential cost {}",
                bench.name(),
                wavefront.cost,
                sequential.cost
            );
            assert_eq!(
                wavefront.config_ids,
                sequential.config_ids,
                "{}: schedules disagree on the argmin strategy",
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
        assert_eq!(r.stats.dp_kernel, ENGINE);
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
    fn traced_sequential_fill_records_fill_span() {
        use pase_obs::Trace;
        let g = chain3();
        let tables = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let trace = Trace::new();
        Search::new(&g)
            .tables(&tables)
            .parallel(false)
            .trace(&trace)
            .run()
            .expect_found("sequential traced");
        let names: Vec<String> = trace.spans().iter().map(|s| s.name.clone()).collect();
        assert!(names.iter().any(|n| n == phase::SEQUENTIAL_FILL));
        assert!(!names.iter().any(|n| phase::is_wavefront(n)));
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
