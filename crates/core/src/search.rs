//! The unified search entry point.
//!
//! Historically every combination of knobs had its own free function —
//! `find_best_strategy`, `_traced`, `_pruned`, `_pruned_traced` — times the
//! `CostTables::build{,_with,_traced,_with_space}` constructor family at
//! every call site. [`Search`] collapses that combinatorial explosion into
//! one builder:
//!
//! ```text
//! Search::new(&graph).devices(p).machine(m).budget(b).pruning(popts).trace(&t).run()
//! ```
//!
//! Every knob is optional; the defaults reproduce the paper's standard
//! configuration (GenerateSeq ordering, exact connected sets, wavefront-
//! parallel fill, GTX 1080 Ti profile, 8 devices, no pruning, no trace).
//! The legacy free-function grid has been removed; this builder is the
//! only entry point. Machines are modeled as [`pase_cost::DeviceMesh`]es —
//! [`Search::machine`] wraps a scalar profile in its flat single-axis
//! mesh (bit-identical to the historical scalar model), while
//! [`Search::mesh`] runs the topology-aware cost model on a hierarchical
//! mesh.

use crate::budget::{SearchBudget, SearchOutcome, SearchResult, SearchStats};
use crate::dp::{drive, DpOptions, DpValue, MinTime};
use crate::error::Error;
use crate::frontier::{Pareto, StrategyFrontier};
use crate::ordering::OrderingKind;
use crate::structure::ConnectedSetMode;
use pase_cost::{
    ConfigRule, ConfigSpace, CostTables, DeviceMesh, MachineSpec, NonFiniteCost, PruneOptions,
    PrunedTables, TableOptions,
};
use pase_graph::{Graph, GraphError};
use pase_obs::Trace;
use std::fmt;

/// A configured-but-not-yet-run strategy search. See the module docs.
///
/// ```
/// use pase_core::Search;
/// use pase_graph::{DimRole, GraphBuilder, IterDim, Node, OpKind, TensorRef};
///
/// // One fully-connected layer on 4 devices.
/// let mut b = GraphBuilder::new();
/// b.add_node(Node {
///     name: "fc".into(),
///     op: OpKind::FullyConnected,
///     iter_space: vec![
///         IterDim::new("b", 64, DimRole::Batch),
///         IterDim::new("n", 256, DimRole::Param),
///         IterDim::new("c", 256, DimRole::Reduction),
///     ],
///     inputs: vec![],
///     output: TensorRef::new(vec![0, 1], vec![64, 256]),
///     params: vec![TensorRef::new(vec![1, 2], vec![256, 256])],
/// });
/// let graph = b.build().unwrap();
/// let result = Search::new(&graph)
///     .devices(4)
///     .run()
///     .expect_found("single layer");
/// // An isolated layer avoids all communication by sharding its weight:
/// // the optimum is the ideal compute division.
/// assert_eq!(result.cost, graph.total_step_flops() / 4.0);
/// ```
#[derive(Clone)]
pub struct Search<'a> {
    graph: &'a Graph,
    devices: u32,
    mesh: DeviceMesh,
    rule: Option<ConfigRule>,
    space: Option<&'a ConfigSpace>,
    tables: Option<&'a CostTables>,
    prune: Option<PruneOptions>,
    dp: DpOptions,
    trace: Option<&'a Trace>,
    max_memory_bytes: Option<u64>,
    want_frontier: bool,
}

impl<'a> Search<'a> {
    /// Start configuring a search over `graph` with the standard defaults
    /// (8 devices on the GTX 1080 Ti profile, exact DP, no pruning).
    pub fn new(graph: &'a Graph) -> Self {
        Self {
            graph,
            devices: 8,
            mesh: DeviceMesh::flat(&MachineSpec::gtx1080ti()),
            rule: None,
            space: None,
            tables: None,
            prune: None,
            dp: DpOptions::default(),
            trace: None,
            max_memory_bytes: None,
            want_frontier: false,
        }
    }

    /// Number of devices `p` to parallelize over (default 8). Ignored when
    /// a full [`ConfigRule`] is supplied via [`Search::rule`].
    pub fn devices(mut self, p: u32) -> Self {
        self.devices = p;
        self
    }

    /// Machine profile (default [`MachineSpec::gtx1080ti`]), costed as its
    /// flat single-axis [`DeviceMesh`] — bit-identical to the historical
    /// scalar `r = F/B` model.
    pub fn machine(mut self, m: MachineSpec) -> Self {
        self.mesh = DeviceMesh::flat(&m);
        self
    }

    /// Hierarchical device mesh to cost against — the topology-aware
    /// model: each collective is charged at the slowest link its group
    /// spans, plus per-ring-step latency. Overrides [`Search::machine`].
    pub fn mesh(mut self, mesh: DeviceMesh) -> Self {
        self.mesh = mesh;
        self
    }

    /// Full configuration-enumeration rule, overriding [`Search::devices`]
    /// (for idle-device, split-cap, or memory-limit variations).
    pub fn rule(mut self, rule: ConfigRule) -> Self {
        self.rule = Some(rule);
        self
    }

    /// Resource limits for the DP (default [`SearchBudget::default`]).
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.dp.budget = budget;
        self
    }

    /// Run dominance pruning over the configuration space before the DP
    /// (off by default). With `PruneOptions::default()` (ε = 0) the result
    /// is bit-identical to the unpruned search.
    pub fn pruning(mut self, opts: PruneOptions) -> Self {
        self.prune = Some(opts);
        self
    }

    /// A no-op kept so that callers written against the retired adaptive
    /// gate still compile: the prune runs iff [`Search::pruning`] was
    /// called.
    #[doc(hidden)]
    pub fn prune_gate(self, _gate: PruneGate) -> Self {
        self
    }

    /// Vertex ordering (default [`OrderingKind::GenerateSeq`]).
    pub fn ordering(mut self, ordering: OrderingKind) -> Self {
        self.dp.ordering = ordering;
        self
    }

    /// Connected-set mode (default [`ConnectedSetMode::Exact`];
    /// [`ConnectedSetMode::Prefix`] gives the naive recurrence (2)).
    pub fn connected_sets(mut self, mode: ConnectedSetMode) -> Self {
        self.dp.mode = mode;
        self
    }

    /// Reuse a pre-enumerated [`ConfigSpace`] instead of re-enumerating
    /// per-node configurations (machine-profile sweeps). Ignored when
    /// prebuilt [`Search::tables`] are supplied.
    pub fn space(mut self, space: &'a ConfigSpace) -> Self {
        self.space = Some(space);
        self
    }

    /// Run on prebuilt [`CostTables`], skipping table construction
    /// entirely. The tables must cover `graph`; machine/devices/rule/space
    /// settings are ignored.
    pub fn tables(mut self, tables: &'a CostTables) -> Self {
        self.tables = Some(tables);
        self
    }

    /// Record phase spans and counters into `trace` (table build, prune,
    /// DP wavefronts, backtrack). Results are identical with and without.
    pub fn trace(mut self, trace: &'a Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Constrain the returned strategy's peak per-device memory (the
    /// additive model of [`pase_cost::config_memory_bytes`]) to at most
    /// `bytes`. Switches the search to the frontier engine: the result is
    /// the *fastest strategy that fits*, or
    /// [`SearchOutcome::Infeasible`] when even the smallest-memory
    /// strategy exceeds the budget. Without this knob the search is
    /// unconstrained and the optimum is bit-identical to the scalar DP.
    pub fn max_memory_bytes(mut self, bytes: u64) -> Self {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// Compute the full (step-time × peak-memory) Pareto frontier instead
    /// of just the single optimum. The returned [`SearchResult`] is still
    /// the selected point (min-time, or the cheapest fitting one under
    /// [`Search::max_memory_bytes`]); the whole frontier is available via
    /// [`SearchRun::frontier`]. The tables are filled by the run-blocked
    /// frontier microkernel (`stats.dp_kernel == "frontier-tiled"`).
    pub fn frontier(mut self) -> Self {
        self.want_frontier = true;
        self
    }

    /// Cap the per-state (and returned) frontier at `width` points (default
    /// 8); `0` disables the cap (exact, and potentially exponential). Only
    /// affects frontier searches.
    ///
    /// Per-state Pareto sets can grow combinatorially on deep graphs, so
    /// each state's frontier is deterministically thinned to this width
    /// after exact dominance pruning. Both endpoints always survive: the
    /// min-time point, preserving scalar bit-parity, and the min-memory
    /// point, preserving the feasibility floor.
    pub fn frontier_width(mut self, width: usize) -> Self {
        self.dp.frontier_width = width;
        self
    }

    /// Execute the search: build (or borrow) the cost tables, optionally
    /// prune, run the DP, and return the outcome together with the tables
    /// the returned configuration ids index into.
    pub fn run(self) -> SearchRun<'a> {
        let tables = match self.tables {
            Some(t) => TablesHandle::Borrowed(t),
            None => {
                let rule = self.rule.unwrap_or_else(|| ConfigRule::new(self.devices));
                let built = match self.space {
                    Some(space) => CostTables::build_mesh_with_space(
                        self.graph,
                        rule,
                        &self.mesh,
                        space,
                        &TableOptions::default(),
                    ),
                    None => CostTables::build_mesh(
                        self.graph,
                        rule,
                        &self.mesh,
                        &TableOptions::default(),
                        self.trace,
                    ),
                };
                TablesHandle::Owned(built)
            }
        };
        // A NaN/∞ table entry silently poisons both the dominance prune
        // (`total_cmp` sorts NaN largest; it survives `fold(∞, min)`) and
        // the DP argmin — reject it before any search runs.
        if let Err(e) = tables.get().check_finite() {
            return SearchRun {
                outcome: Err(BuildFailure::NonFinite(e)),
                tables,
                frontier: None,
            };
        }
        // A vertex with no configuration leaves no strategy to search (and
        // the DP kernels index its empty table rows).
        if let Some(v) = self.graph.node_ids().find(|&v| tables.get().k(v) == 0) {
            let e = GraphError::InvalidNode(format!(
                "node {} ('{}') has no configuration to search",
                v.index(),
                self.graph.node(v).name
            ));
            return SearchRun {
                outcome: Err(BuildFailure::Graph(e)),
                tables,
                frontier: None,
            };
        }
        let filled = if self.frontier_mode() {
            let value = Pareto {
                width: self.dp.frontier_width,
            };
            self.fill(&value, tables.get())
        } else {
            self.fill(&MinTime, tables.get())
        };
        let Filled {
            mut outcome,
            frontier,
        } = match filled {
            Ok(filled) => filled,
            Err(e) => {
                return SearchRun {
                    outcome: Err(BuildFailure::Graph(e)),
                    tables,
                    frontier: None,
                }
            }
        };
        if let Some(frontier) = &frontier {
            // Unconstrained: the min-time point (bit-identical to the
            // scalar optimum). Constrained: the cheapest point that fits,
            // or Infeasible when none does.
            let stats = outcome.stats_mut().clone();
            let picked = match self.max_memory_bytes {
                Some(b) => frontier.cheapest_within(b),
                None => Some(frontier.min_time()),
            };
            outcome = match picked {
                Some(p) => SearchOutcome::Found(SearchResult {
                    cost: p.cost,
                    config_ids: p.config_ids.clone(),
                    stats: SearchStats {
                        peak_strategy_bytes: p.memory_bytes,
                        ..stats
                    },
                }),
                None => SearchOutcome::Infeasible {
                    min_memory_bytes: frontier.min_memory_bytes(),
                    stats,
                },
            };
        } else if let SearchOutcome::Found(r) = &mut outcome {
            r.stats.peak_strategy_bytes = tables.get().strategy_memory_bytes(&r.config_ids);
        }
        outcome.stats_mut().mesh_axes = tables.get().mesh().axes.len();
        SearchRun {
            outcome: Ok(outcome),
            tables,
            frontier,
        }
    }

    /// Whether this search fills Pareto frontiers rather than scalar
    /// tables.
    fn frontier_mode(&self) -> bool {
        self.want_frontier || self.max_memory_bytes.is_some()
    }

    /// Run the DP driver over `value` — the scalar or the frontier DP
    /// value — on `tables`, behind the dominance prune when
    /// [`Search::pruning`] was called.
    ///
    /// The prune (a [`pase_obs::phase::PRUNE`] span) compacts the tables
    /// first — every dependent-set table is `∏ |C(w)|` entries wide, so the
    /// pruned `K` shrinks table sizes, fill work, and the budget accounting
    /// multiplicatively. Frontier searches force the memory-aware
    /// dominance condition: a time-only dominator with more memory could
    /// delete a Pareto point, and the memory-aware keep set is a superset
    /// of the time-only one, so min-time parity is unaffected. The engine
    /// then runs on the remaining wall clock, and the result's ids (or
    /// every frontier point's ids) are mapped back into the id space of
    /// `tables`. With `epsilon == 0.0` the prune is exact and the answer is
    /// bit-identical to the unpruned engine's; with a positive ε it is only
    /// guaranteed within `(1 + ε)` of the true optimum.
    ///
    /// `stats.k_before` reports the pre-pruning `K` (while
    /// `stats.max_configs` is the pruned `K` the engine saw) and
    /// `stats.prune_time` the prune's cost, which is *included* in the
    /// budget's wall clock and in `stats.elapsed`. If the prune alone
    /// exhausts the time budget the outcome is [`SearchOutcome::Timeout`] —
    /// the engine is never entered with a zero budget, where its OOM check
    /// could fire first and mislabel the failure.
    fn fill<V: DpValue>(&self, value: &V, tables: &CostTables) -> Result<Filled, GraphError> {
        let Some(mut popts) = self.prune else {
            return drive(value, self.graph, tables, &self.dp, self.trace);
        };
        popts.memory_aware |= self.frontier_mode();
        let pruned = PrunedTables::build_traced(self.graph, tables, &popts, self.trace);
        let ps = *pruned.stats();
        let mut filled = if ps.elapsed >= self.dp.budget.max_time {
            let stats = SearchStats {
                max_configs: pruned.tables().max_k(),
                dp_kernel: V::ENGINE,
                ..SearchStats::default()
            };
            Filled {
                outcome: SearchOutcome::Timeout { stats },
                frontier: None,
            }
        } else {
            let mut remaining = self.dp;
            remaining.budget.max_time -= ps.elapsed;
            drive(value, self.graph, pruned.tables(), &remaining, self.trace)?
        };
        if let SearchOutcome::Found(r) = &mut filled.outcome {
            r.config_ids = pruned.to_original_ids(&r.config_ids);
        }
        for p in filled.frontier.iter_mut().flat_map(|f| f.points_mut()) {
            p.config_ids = pruned.to_original_ids(&p.config_ids);
        }
        let stats = filled.outcome.stats_mut();
        stats.k_before = ps.k_before;
        stats.prune_time = ps.elapsed;
        stats.elapsed += ps.elapsed;
        Ok(filled)
    }
}

/// What one engine run produced: the outcome, plus the full frontier when
/// a frontier fill completed. For a completed frontier fill the outcome is
/// its min-time point; [`Search::run`] then selects the answer.
pub(crate) struct Filled {
    pub(crate) outcome: SearchOutcome,
    pub(crate) frontier: Option<StrategyFrontier>,
}

/// The one prune behaviour: prune iff [`Search::pruning`] was called. The
/// type survives only so that callers of [`Search::prune_gate`] and
/// `pase_serve::Request::prune_gate` keep compiling.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PruneGate {
    /// Prune iff [`Search::pruning`] was called.
    #[default]
    On,
}

/// The cost tables a [`SearchRun`] ran on: borrowed when the caller
/// supplied them, owned when the builder constructed them.
enum TablesHandle<'a> {
    Owned(CostTables),
    Borrowed(&'a CostTables),
}

impl TablesHandle<'_> {
    fn get(&self) -> &CostTables {
        match self {
            TablesHandle::Owned(t) => t,
            TablesHandle::Borrowed(t) => t,
        }
    }
}

/// A failure that prevented the search from running at all: a
/// structurally malformed fill plan, or cost tables containing a
/// non-finite entry. Kept private — [`SearchRun::result`] maps it onto
/// the public [`Error`].
#[derive(Clone, Debug)]
enum BuildFailure {
    Graph(GraphError),
    NonFinite(NonFiniteCost),
}

impl fmt::Display for BuildFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildFailure::Graph(e) => write!(f, "{e}"),
            BuildFailure::NonFinite(e) => write!(f, "{e}"),
        }
    }
}

/// The result of [`Search::run`]: the [`SearchOutcome`] plus the
/// [`CostTables`] whose configuration-id space the result's
/// `config_ids` index into, and — for frontier searches — the full
/// [`StrategyFrontier`].
///
/// A structurally malformed fill plan (an internal invariant violation the
/// DP kernels detect rather than silently wrap on), a vertex with an empty
/// configuration list, and non-finite cost tables are carried as a build
/// failure: [`SearchRun::result`] surfaces them as [`Error::Graph`] /
/// [`Error::NonFiniteCost`], while the
/// infallible accessors panic — either way the search ran no DP at all.
pub struct SearchRun<'a> {
    outcome: Result<SearchOutcome, BuildFailure>,
    tables: TablesHandle<'a>,
    frontier: Option<StrategyFrontier>,
}

impl<'a> SearchRun<'a> {
    /// The search outcome. Panics if the search could not run (see the
    /// type docs); use [`SearchRun::result`] to handle that case.
    pub fn outcome(&self) -> &SearchOutcome {
        match &self.outcome {
            Ok(o) => o,
            Err(e) => panic!("search failed structurally: {e}"),
        }
    }

    /// Consume the run, keeping only the outcome. Panics like
    /// [`SearchRun::outcome`] on a structural failure.
    pub fn into_outcome(self) -> SearchOutcome {
        match self.outcome {
            Ok(o) => o,
            Err(e) => panic!("search failed structurally: {e}"),
        }
    }

    /// The cost tables the search ran on (owned by the run unless they
    /// were supplied via [`Search::tables`]).
    pub fn tables(&self) -> &CostTables {
        self.tables.get()
    }

    /// The full Pareto frontier of a completed frontier search (requested
    /// via [`Search::frontier`] or [`Search::max_memory_bytes`]); `None`
    /// for scalar searches and aborted frontier fills. Present even when
    /// the outcome is [`SearchOutcome::Infeasible`] — the frontier is what
    /// proves infeasibility.
    pub fn frontier(&self) -> Option<&StrategyFrontier> {
        self.frontier.as_ref()
    }

    /// Consume the run, keeping only the frontier (see
    /// [`SearchRun::frontier`]).
    pub fn into_frontier(self) -> Option<StrategyFrontier> {
        self.frontier
    }

    /// The successful result, or the matching [`Error`] ([`Error::Oom`] /
    /// [`Error::Timeout`] for an exhausted budget, [`Error::Infeasible`]
    /// for an unsatisfiable memory constraint, [`Error::Graph`] /
    /// [`Error::NonFiniteCost`] for a search that could not run).
    pub fn result(&self) -> Result<&SearchResult, Error> {
        match &self.outcome {
            Ok(SearchOutcome::Found(r)) => Ok(r),
            Ok(other) => {
                Err(Error::from_outcome(other).expect("non-Found outcome maps to an error"))
            }
            Err(BuildFailure::Graph(e)) => Err(Error::Graph(e.clone())),
            Err(BuildFailure::NonFinite(e)) => Err(Error::NonFiniteCost(*e)),
        }
    }

    /// Unwrap the successful result, panicking with `msg` otherwise
    /// (mirrors [`SearchOutcome::expect_found`]).
    pub fn expect_found(self, msg: &str) -> SearchResult {
        match self.outcome {
            Ok(o) => o.expect_found(msg),
            Err(e) => panic!("{msg}: search failed structurally: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::tests::with_threads;
    use pase_graph::{DimRole, GraphBuilder, IterDim, Node, OpKind, TensorRef};

    fn fc(name: &str, ins: usize) -> Node {
        Node {
            name: name.into(),
            op: OpKind::FullyConnected,
            iter_space: vec![
                IterDim::new("b", 64, DimRole::Batch),
                IterDim::new("n", 128, DimRole::Param),
                IterDim::new("c", 128, DimRole::Reduction),
            ],
            inputs: (0..ins)
                .map(|_| TensorRef::new(vec![0, 2], vec![64, 128]))
                .collect(),
            output: TensorRef::new(vec![0, 1], vec![64, 128]),
            params: vec![TensorRef::new(vec![1, 2], vec![128, 128])],
        }
    }

    fn chain2() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.add_node(fc("fc1", 0));
        let y = b.add_node(fc("fc2", 1));
        b.connect(x, y);
        b.build().unwrap()
    }

    #[test]
    fn builder_defaults_find_a_strategy() {
        let g = chain2();
        let run = Search::new(&g).devices(4).run();
        let r = run.result().expect("found");
        assert!(r.cost > 0.0);
        assert_eq!(r.config_ids.len(), g.len());
        // The returned ids index the run's own tables.
        let eval = run.tables().evaluate_ids(&g, &r.config_ids);
        assert!((eval - r.cost).abs() <= 1e-9 * r.cost);
    }

    #[test]
    fn prebuilt_tables_are_borrowed_not_rebuilt() {
        let g = chain2();
        let tables = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let via_tables = Search::new(&g).tables(&tables).run();
        let via_build = Search::new(&g)
            .devices(4)
            .machine(MachineSpec::test_machine())
            .run();
        let a = via_tables.result().expect("prebuilt").cost;
        let b = via_build.result().expect("built").cost;
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(std::ptr::eq(via_tables.tables(), &tables));
    }

    #[test]
    fn space_reuse_matches_direct_enumeration() {
        let g = chain2();
        let rule = ConfigRule::new(4);
        let space = ConfigSpace::build(&g, &rule);
        let m = MachineSpec::test_machine();
        let with_space = Search::new(&g)
            .rule(rule)
            .machine(m.clone())
            .space(&space)
            .run()
            .expect_found("space");
        let direct = Search::new(&g)
            .rule(rule)
            .machine(m)
            .run()
            .expect_found("direct");
        assert_eq!(with_space.cost.to_bits(), direct.cost.to_bits());
        assert_eq!(with_space.config_ids, direct.config_ids);
    }

    #[test]
    fn pruning_with_zero_epsilon_is_bit_identical() {
        let g = chain2();
        let plain = Search::new(&g).devices(8).run().expect_found("plain");
        let pruned = Search::new(&g)
            .devices(8)
            .pruning(PruneOptions::default())
            .run()
            .expect_found("pruned");
        assert_eq!(plain.cost.to_bits(), pruned.cost.to_bits());
        assert!(pruned.stats.k_before >= pruned.stats.max_configs);
    }

    #[test]
    fn budget_failures_surface_as_errors() {
        let g = chain2();
        let run = Search::new(&g)
            .devices(8)
            .budget(SearchBudget::with_max_entries(1))
            .run();
        match run.result() {
            Err(Error::Oom { needed_entries, .. }) => assert!(needed_entries > 1),
            other => panic!("expected Err(Oom), got {other:?}"),
        }
    }

    #[test]
    fn frontier_min_time_is_bit_identical_to_the_scalar_optimum() {
        let g = chain2();
        for threads in [1, 4] {
            let (scalar, run) = with_threads(threads, || {
                (
                    Search::new(&g).devices(8).run().expect_found("scalar"),
                    Search::new(&g).devices(8).frontier().run(),
                )
            });
            let r = run.result().expect("frontier");
            assert_eq!(r.cost.to_bits(), scalar.cost.to_bits());
            assert_eq!(r.stats.dp_kernel, "frontier-tiled");
            let f = run.frontier().expect("frontier retained");
            assert_eq!(r.stats.frontier_len, f.len());
            assert!(!f.is_empty());
            // The selected point IS the frontier's min-time point, and the
            // ids it carries reproduce the cost through the cost model.
            assert_eq!(f.min_time().cost.to_bits(), r.cost.to_bits());
            let eval = run.tables().evaluate_ids(&g, &r.config_ids);
            assert_eq!(eval.to_bits(), r.cost.to_bits());
            assert_eq!(
                run.tables().strategy_memory_bytes(&r.config_ids),
                r.stats.peak_strategy_bytes
            );
        }
    }

    #[test]
    fn memory_budget_picks_the_cheapest_fitting_point_or_infeasible() {
        let g = chain2();
        let full = Search::new(&g).devices(8).frontier().run();
        let f = full.frontier().expect("frontier");
        // Querying with exactly each point's memory must return that point.
        for p in f.points() {
            let run = Search::new(&g)
                .devices(8)
                .max_memory_bytes(p.memory_bytes)
                .run();
            let r = run.result().expect("fits");
            assert_eq!(r.cost.to_bits(), p.cost.to_bits());
            assert_eq!(r.stats.peak_strategy_bytes, p.memory_bytes);
        }
        // Below the min-memory point nothing fits: Infeasible, reporting
        // how much the cheapest strategy actually needs.
        let min_mem = f.min_memory_bytes();
        let run = Search::new(&g)
            .devices(8)
            .max_memory_bytes(min_mem - 1)
            .run();
        match run.result() {
            Err(Error::Infeasible {
                min_memory_bytes, ..
            }) => assert_eq!(min_memory_bytes, min_mem),
            other => panic!("expected Err(Infeasible), got {other:?}"),
        }
        // The frontier that proved infeasibility is still available.
        assert_eq!(run.frontier().expect("kept").len(), f.len());
        assert_eq!(run.outcome().tag(), "infeasible");
    }

    #[test]
    fn frontier_budget_failures_surface_like_scalar_ones() {
        let g = chain2();
        let run = Search::new(&g)
            .devices(8)
            .frontier()
            .budget(SearchBudget::with_max_entries(1))
            .run();
        match run.result() {
            Err(Error::Oom { needed_entries, .. }) => assert!(needed_entries > 1),
            other => panic!("expected Err(Oom), got {other:?}"),
        }
        assert!(run.frontier().is_none());
    }

    #[test]
    fn frontier_points_over_the_byte_cap_abort_the_fill() {
        // The plan pass accounts 10 bytes per entry, but every frontier
        // entry holds a 4-byte offset and at least one point of 16 bytes
        // of `(time, mem)` plus a 2-byte choice: a budget of exactly the
        // accounted entries passes the plan pass (the scalar search fits
        // in it) and trips the driver's peak-byte check during the fill.
        let g = chain2();
        let entries = Search::new(&g)
            .devices(8)
            .frontier()
            .run()
            .result()
            .expect("unbounded")
            .stats
            .table_entries;
        let budget = SearchBudget::with_max_entries(entries);
        for threads in [1, 4] {
            let (scalar, run) = with_threads(threads, || {
                (
                    Search::new(&g).devices(8).budget(budget).run(),
                    Search::new(&g).devices(8).frontier().budget(budget).run(),
                )
            });
            assert!(scalar.result().is_ok(), "the scalar tables fit the cap");
            match run.result() {
                Err(Error::Oom {
                    needed_entries,
                    stats,
                }) => {
                    assert!(needed_entries > entries);
                    assert_eq!(stats.table_entries, entries, "the plan pass completed");
                    assert!(stats.peak_table_bytes >= budget.max_table_bytes());
                }
                other => panic!("expected Err(Oom), got {other:?}"),
            }
            assert!(run.frontier().is_none());
        }
    }

    /// A zero time budget behind the exact prune: the prune alone uses up
    /// the clock, so the search reports Timeout before the engine runs,
    /// with the prune's time and the pre-prune K accounted.
    fn assert_prune_alone_times_out(search: Search<'_>, engine: &str) {
        let outcome = search
            .budget(SearchBudget::with_max_time(std::time::Duration::ZERO))
            .pruning(PruneOptions::default())
            .run()
            .into_outcome();
        match outcome {
            SearchOutcome::Timeout { stats } => {
                assert!(stats.prune_time > std::time::Duration::ZERO);
                assert_eq!(stats.elapsed, stats.prune_time);
                assert!(stats.k_before > 0);
                // The engine never ran: no states were evaluated.
                assert_eq!(stats.states_evaluated, 0);
                assert_eq!(stats.dp_kernel, engine);
            }
            other => panic!("expected timeout, got {}", other.tag()),
        }
    }

    #[test]
    fn prune_exhausting_the_budget_times_out_before_the_scalar_dp() {
        let g = chain2();
        assert_prune_alone_times_out(Search::new(&g).devices(8), "tiled");
    }

    #[test]
    fn prune_exhausting_the_budget_times_out_before_the_frontier_dp() {
        let g = chain2();
        let run = Search::new(&g).devices(8).frontier();
        assert_prune_alone_times_out(run, "frontier-tiled");
    }

    #[test]
    fn non_finite_tables_are_rejected_before_the_dp_runs() {
        // A zero-bandwidth machine makes every communication cost infinite;
        // such tables used to poison the prune and the argmin silently.
        let g = chain2();
        let hostile = MachineSpec {
            name: "hostile".to_string(),
            peak_flops: 1.0,
            link_bandwidth: 0.0,
            internode_bandwidth: 0.0,
        };
        let run = Search::new(&g).devices(8).machine(hostile).run();
        match run.result() {
            Err(Error::NonFiniteCost(e)) => assert!(!e.value.is_finite()),
            other => panic!("expected Err(NonFiniteCost), got {other:?}"),
        }
    }

    #[test]
    fn trace_records_table_build_and_dp_phases() {
        use pase_obs::phase;
        let g = chain2();
        let trace = Trace::new();
        Search::new(&g)
            .devices(4)
            .trace(&trace)
            .run()
            .expect_found("traced");
        let names: Vec<String> = trace.spans().iter().map(|s| s.name.clone()).collect();
        assert!(names.iter().any(|n| n == phase::TABLE_BUILD), "{names:?}");
        assert!(names.iter().any(|n| n == phase::STRUCTURE), "{names:?}");
        assert!(names.iter().any(|n| phase::is_wavefront(n)), "{names:?}");
    }
}
