//! Pareto-frontier dynamic program over (step-time, peak-memory).
//!
//! The scalar DP in [`crate::dp`] carries one number per state — the
//! minimum step time `R_V(i, φ)`. This module generalizes the value to a
//! **dominance-pruned frontier** of `(time, memory)` pairs per state, where
//! memory is the additive per-node model of
//! [`pase_cost::config_memory_bytes`]. One frontier fill then answers every
//! memory-budget variant of the same `(graph, machine)` query: the
//! unconstrained optimum is the frontier's min-time point, and a
//! `max_memory_bytes` query is the cheapest point that fits.
//!
//! ## Exactness and the width cap
//!
//! Per-state Pareto sets can grow combinatorially with graph depth (every
//! distinct downstream (time, memory) tradeoff survives dominance), so
//! each state's frontier is deterministically thinned to
//! [`crate::Search::frontier_width`] points after exact pruning. The
//! thinning always keeps both endpoints — the min-time point (so the
//! bit-parity argument below is unaffected) and the min-memory point (so
//! the feasibility floor reported by `Infeasible` stays exact) — and
//! evenly index-samples the interior. With `frontier_width = 0` the fill
//! is fully exact; the properties below hold at any width.
//!
//! * **Component-wise combine.** Both coordinates are sums over nodes
//!   (time in f64, memory in exact u64), so the recurrence combines child
//!   values by a Minkowski sum: every combination of one point per child,
//!   added coordinate-wise to the head vertex's base cost.
//! * **Pruning between children is lossless.** If partial sum `a` is
//!   dominated by `a'` (`time' ≤ time` and `mem' ≤ mem`), then for any
//!   completion `z`, `a' + z ≤ a + z` in both coordinates — float addition
//!   is monotone in each argument — so every final point reachable from
//!   `a` is matched-or-beaten from `a'`. The surviving point *set* is the
//!   exact frontier.
//! * **Min-time bit-parity.** The base cost uses the same addition order
//!   as the scalar DP (layer cost, then later-edge costs in plan
//!   order), children are folded in the same order the scalar loop adds
//!   child table values, and the root frontiers are combined in the same
//!   root order the scalar path sums. Each child frontier's min-time point
//!   equals the child's scalar table value bit-for-bit (induction), and
//!   `min(a + b) = min(a) + min(b)` under monotone addition, so the global
//!   frontier's min-time point is **bit-identical** to the scalar optimum.
//!
//! The tables are filled by the one wavefront driver, [`crate::dp::drive`],
//! with [`Pareto`] as its DP value. Entries are computed independently, so
//! the result is bit-identical at any thread count.
//!
//! ## Table lifetime
//!
//! An [`FTable`] keeps each point's `(time, mem)` pair apart from its
//! configuration id and its child-point indices. Only the parent's fill
//! reads the pairs, so once that one parent is filled the driver releases
//! them ([`Pareto`]'s `release`), as it frees a scalar table's costs;
//! back-substitution walks the ids and child indices, and reads pairs
//! only of the roots, which are never released.
//!
//! ## The frontier microkernel
//!
//! Tables are filled by a run-blocked microkernel
//! ([`fill_chunk_frontier_tiled`], `stats.dp_kernel == "frontier-tiled"`)
//! mirroring `crate::kernel`: later-edge matrices are packed through the
//! same [`crate::kernel::pack_edges`] panel layout so the per-entry time
//! row is computed by fused slice passes instead of per-`(entry, config)`
//! accessor calls; entries are processed in innermost-digit runs with the
//! run-invariant *prefix merge* hoisted once per run (the frontier analogue
//! of the hoisted prefix sum — invariant leading children's frontiers are
//! folded once per run per configuration, and only the varying operands are
//! merged per entry); per-child folds and single-child entries go through
//! the batched k-way engine ([`merge_runs_tiled`]) over reused,
//! `crate::pool`-recycled scratch arenas with two per-run batch-rejection
//! tests (below); whole configuration folds are skipped by the same
//! endpoint test against the entry's evolving frontier; and a
//! degenerate-frontier fast path collapses to the scalar tiled kernel's
//! packed row pipeline (time panels plus parallel packed memory-row panels)
//! whenever every contributing child frontier has length 1. The
//! incremental per-entry fill it replaced — per-entry div/mod digit decode,
//! per-configuration accessor reads, and a two-pointer merge per child
//! fold — survives only as the test oracle [`crate::reference::frontier`].
//!
//! **Exactness contract.** Every f64 addition tree is unchanged (hoisting
//! computes a shared prefix once; folds replay the incremental fill's run
//! order, width-cap thinning, and existing-wins tie rule), so at
//! `frontier_width = 0` the only batch rejection in effect is the *exact*
//! corner test ([`run_dominated`]) and the tables — not just the final
//! frontier — are set-identical to the incremental oracle's, point for
//! point, bitwise. At a positive width the microkernel additionally
//! rejects any run or configuration that does not strictly improve the
//! evolving frontier's min time or its memory floor (ties reject —
//! existing wins). A rejected run's min time is at-or-above the running
//! min time and its floor at-or-above the running floor, so the min-time
//! *value* stays bit-identical to the scalar optimum and the memory-floor
//! *value* stays exact at any width — the two answers
//! `tests/frontier_parity.rs` pins — while each extreme point's companion
//! coordinate and the width-thinned interior may differ from the oracle's.

use crate::budget::{SearchOutcome, SearchResult, SearchStats};
use crate::dp::{child_coefs, ChildCoef, DpValue, FillCx, Plan};
use crate::kernel;
use crate::pool::{free_list, shed_vec, Poolable, Pooled, MAX_POOLED_ENTRIES, MAX_POOLED_PANEL};
use crate::search::Filled;
use crate::structure::VertexStructure;
use pase_cost::CostTables;
use pase_graph::GraphError;

/// Bytes of one `(time, mem)` point in [`FTable::pts`] — what the parent's
/// fill reads; freed by [`Pareto`]'s release.
const PT_BYTES: u64 = std::mem::size_of::<Pt>() as u64;
/// Bytes of one point's configuration id in [`FTable::choice`].
const CHOICE_BYTES: u64 = std::mem::size_of::<u16>() as u64;
/// Bytes of one point's index into one child's entry, in [`FTable::kids`].
const KID_BYTES: u64 = std::mem::size_of::<u32>() as u64;
/// Bytes of one entry's start in [`FTable::offsets`].
const OFFSET_BYTES: u64 = std::mem::size_of::<u32>() as u64;

/// One Pareto point of a [`StrategyFrontier`].
#[derive(Clone, Debug, PartialEq)]
pub struct FrontierPoint {
    /// Step time `F(G, φ)` of the strategy, in FLOP units — same scale as
    /// [`crate::SearchResult::cost`].
    pub cost: f64,
    /// Peak per-device memory of the strategy under the additive model
    /// (see [`pase_cost::config_memory_bytes`]).
    pub memory_bytes: u64,
    /// The strategy, as per-node configuration ids into the
    /// [`pase_cost::CostTables`] the search ran on.
    pub config_ids: Vec<u16>,
}

/// The Pareto frontier of `(step time, peak memory)` over the whole
/// strategy space: points sorted by ascending cost with strictly
/// decreasing memory (no point dominates another).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StrategyFrontier {
    points: Vec<FrontierPoint>,
}

impl StrategyFrontier {
    pub(crate) fn new(points: Vec<FrontierPoint>) -> Self {
        debug_assert!(points
            .windows(2)
            .all(|w| w[0].cost <= w[1].cost && w[0].memory_bytes > w[1].memory_bytes));
        Self { points }
    }

    /// All points, cost ascending / memory strictly descending.
    pub fn points(&self) -> &[FrontierPoint] {
        &self.points
    }

    /// Number of Pareto points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the frontier is empty (only for a search that never ran).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The unconstrained optimum: the minimum-cost point. Bit-identical in
    /// cost to the scalar search's optimum.
    pub fn min_time(&self) -> &FrontierPoint {
        &self.points[0]
    }

    /// The smallest peak memory any strategy achieves (the last point's).
    pub fn min_memory_bytes(&self) -> u64 {
        self.points.last().map_or(0, |p| p.memory_bytes)
    }

    /// The cheapest point whose memory fits `max_bytes`, or `None` when
    /// even the min-memory point exceeds the budget (see
    /// [`cheapest_within`]).
    pub fn cheapest_within(&self, max_bytes: u64) -> Option<&FrontierPoint> {
        cheapest_within(&self.points, max_bytes)
    }

    /// Mutable access to the points' strategies, for mapping their
    /// configuration ids into another id space (the order is unchanged).
    pub(crate) fn points_mut(&mut self) -> &mut [FrontierPoint] {
        &mut self.points
    }
}

/// The cheapest of `points` whose memory fits `max_bytes`, or `None` when
/// even the min-memory point exceeds the budget. `points` must be sorted as
/// a [`StrategyFrontier`] is — cost ascending, memory strictly descending —
/// so the over-budget points form a prefix and one binary search finds the
/// answer.
pub fn cheapest_within(points: &[FrontierPoint], max_bytes: u64) -> Option<&FrontierPoint> {
    let i = points.partition_point(|p| p.memory_bytes > max_bytes);
    points.get(i)
}

/// One `(time, memory)` pair of a per-state frontier.
#[derive(Clone, Copy)]
pub(crate) struct Pt {
    pub(crate) time: f64,
    pub(crate) mem: u64,
}

/// Frontier analogue of the scalar DP table, stored flat: entry `i`'s
/// points are `pts[offsets[i]..offsets[i+1]]`, their configuration ids sit
/// at the same positions in `choice`, and their packed child-choice rows
/// at the same positions (× children) in `kids`. Child lookups are the
/// hottest reads of the fill; one contiguous buffer per table keeps them
/// prefetchable instead of chasing a `Vec` header per entry.
///
/// The parent's fill reads `pts`; back-substitution reads `offsets`,
/// `choice` and `kids` (and the roots' `pts`). Once the one parent is
/// filled, [`Pareto`]'s release drops `pts`, so a released table holds
/// `choice`, `kids` and `offsets` only. Buffers are recycled through
/// `crate::pool`; a taken table is empty, its offsets holding only the
/// leading 0.
#[derive(Default)]
pub(crate) struct FTable {
    pub(crate) offsets: Vec<u32>,
    pub(crate) pts: Vec<Pt>,
    pub(crate) choice: Vec<u16>,
    pub(crate) kids: Vec<u32>,
}

impl Poolable for FTable {
    free_list!(FTable);
    fn reset(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.pts.clear();
        self.choice.clear();
        self.kids.clear();
    }
    fn shed(&mut self) -> bool {
        // A released table's `pts` is empty, so check `choice` too.
        self.pts.capacity() <= MAX_POOLED_ENTRIES
            && self.choice.capacity() <= MAX_POOLED_ENTRIES
            && self.kids.capacity() <= MAX_POOLED_ENTRIES
            && self.offsets.capacity() <= MAX_POOLED_ENTRIES
    }
}

impl FTable {
    /// Entry `i`'s frontier points.
    pub(crate) fn entry_pts(&self, i: usize) -> &[Pt] {
        &self.pts[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Entry `i`'s packed child rows (`stride` = children of the position).
    fn entry_kids(&self, i: usize, stride: usize) -> &[u32] {
        &self.kids[self.offsets[i] as usize * stride..self.offsets[i + 1] as usize * stride]
    }

    /// Re-append the last entry verbatim — the microkernel's replication
    /// step for fully run-invariant entries.
    fn duplicate_last_entry(&mut self, stride: usize) {
        let n = self.offsets.len();
        let (s, e) = (self.offsets[n - 2] as usize, self.offsets[n - 1] as usize);
        self.pts.extend_from_within(s..e);
        self.choice.extend_from_within(s..e);
        self.kids.extend_from_within(s * stride..e * stride);
        self.offsets.push(self.pts.len() as u32);
    }

    /// Splice a chunk-local table (offsets relative to 0) onto this one —
    /// the stitch step of the chunk-parallel fill.
    fn append_table(&mut self, part: &FTable) {
        let base = self.pts.len() as u32;
        self.pts.extend_from_slice(&part.pts);
        self.choice.extend_from_slice(&part.choice);
        self.kids.extend_from_slice(&part.kids);
        self.offsets
            .extend(part.offsets[1..].iter().map(|&o| base + o));
    }

    /// Append one point of the entry being filled.
    fn push(&mut self, time: f64, mem: u64, choice: u32) {
        self.pts.push(Pt { time, mem });
        self.choice.push(choice as u16);
    }

    /// Whether every entry's frontier has exactly one point — the
    /// degenerate-frontier condition the microkernel's fast path keys on.
    fn all_singleton(&self) -> bool {
        self.pts.len() + 1 == self.offsets.len()
            && self.offsets.windows(2).all(|w| w[1] - w[0] == 1)
    }
}

/// A partial Minkowski sum during the per-entry child fold.
struct Partial {
    time: f64,
    mem: u64,
    kids: Vec<u32>,
}

/// Reusable buffers for the frontier microkernel
/// ([`fill_chunk_frontier_tiled`]), recycled through `crate::pool`. The
/// hot fold works on flat parallel arrays — coordinates separate from the
/// packed child-choice rows — so the combine/merge/prune inner loop moves
/// small tuples instead of allocating a `Vec<u32>` per candidate point.
#[derive(Default)]
pub(crate) struct FrontierScratch {
    digits: Vec<u16>,
    /// Current partial set for one configuration: `(time, mem)` pairs …
    acc: Vec<(f64, u64)>,
    /// … and, row-parallel, their child choices so far (stride = number
    /// of children folded in).
    acc_kids: Vec<u32>,
    /// Merge buffer, `(time, mem, run index, point index)` …
    cand: Vec<(f64, u64, u32, u32)>,
    /// … and its double buffer.
    cand2: Vec<(f64, u64, u32, u32)>,
    /// Materialized shifted run fed to each batched merge.
    run_buf: Vec<(f64, u64, u32, u32)>,
    /// Double buffer for rebuilding `acc_kids` after a fold stage.
    new_kids: Vec<u32>,
    /// Per-entry child rows of every folded configuration's points
    /// (stride = children), indexed by the merge candidates' point index.
    result_kids: Vec<u32>,
    /// The runs fed to each merge.
    runs: Vec<MergeRun>,
    /// Per-child running row offsets, innermost contribution stripped.
    child_base: Vec<u64>,
    /// Per-child row-offset step per innermost-digit increment.
    child_step: Vec<u64>,
    /// Hoisted run-invariant prefix of the time row.
    pre: Vec<f64>,
    /// Per-entry time row (layer + later edges, fused slice passes).
    trow: Vec<f64>,
    /// Per-entry memory row of the degenerate fast path.
    mrow: Vec<u64>,
    /// Cross-configuration running frontier and its double buffer.
    xm: Vec<(f64, u64, u32, u32)>,
    xm2: Vec<(f64, u64, u32, u32)>,
    /// Per-run hoisted per-configuration partial states: configuration
    /// `c`'s points are `hoist_pts[hoist_offsets[c]..hoist_offsets[c+1]]`,
    /// kids stride = number of hoisted children.
    hoist_offsets: Vec<u32>,
    hoist_pts: Vec<(f64, u64)>,
    hoist_kids: Vec<u32>,
}

impl Poolable for FrontierScratch {
    free_list!(FrontierScratch);
    /// The fill clears what it uses, so content is irrelevant.
    fn reset(&mut self) {}
    /// The arenas scale with `kv × width`, but a width-0 exact search can
    /// grow them arbitrarily, and a one-off giant must not pin the thread.
    fn shed(&mut self) -> bool {
        let cap = MAX_POOLED_PANEL;
        shed_vec(&mut self.acc, cap);
        shed_vec(&mut self.acc_kids, cap);
        shed_vec(&mut self.cand, cap);
        shed_vec(&mut self.cand2, cap);
        shed_vec(&mut self.run_buf, cap);
        shed_vec(&mut self.new_kids, cap);
        shed_vec(&mut self.result_kids, cap);
        shed_vec(&mut self.runs, cap);
        shed_vec(&mut self.pre, cap);
        shed_vec(&mut self.trow, cap);
        shed_vec(&mut self.mrow, cap);
        shed_vec(&mut self.xm, cap);
        shed_vec(&mut self.xm2, cap);
        shed_vec(&mut self.hoist_offsets, cap);
        shed_vec(&mut self.hoist_pts, cap);
        shed_vec(&mut self.hoist_kids, cap);
        true
    }
}

/// One cursor of a k-way frontier merge: a contiguous, already-pruned run
/// of a shared `&[Pt]` buffer (time ascending, memory strictly
/// descending), shifted by a per-run base `(bt, bm)`.
pub(crate) struct MergeRun {
    pub(crate) bt: f64,
    pub(crate) bm: u64,
    pub(crate) head: u32,
    pub(crate) end: u32,
}

/// Dominance-prune `v` in place: sort by (time, memory) ascending — the
/// sort is stable, so insertion order (configuration id, then child point
/// combination) breaks exact ties deterministically — then keep each point
/// only if its memory strictly improves on everything cheaper.
pub(crate) fn prune_pareto<T>(v: &mut Vec<T>, key: impl Fn(&T) -> (f64, u64)) {
    v.sort_by(|a, b| {
        let (ta, ma) = key(a);
        let (tb, mb) = key(b);
        ta.total_cmp(&tb).then(ma.cmp(&mb))
    });
    let mut best = u64::MAX;
    v.retain(|x| {
        let (_, m) = key(x);
        if m < best {
            best = m;
            true
        } else {
            false
        }
    });
}

/// Deterministically thin a dominance-pruned frontier to at most `width`
/// points: keep both endpoints — index 0 is the min-time point (required
/// for scalar bit-parity) and the last index is the min-memory point
/// (required for an exact feasibility floor) — plus evenly index-sampled
/// interior points. Any subset of a dominance-free sorted set is itself a
/// valid frontier. `width == 0` disables thinning; `width == 1` would
/// lose the memory floor, so it is clamped to 2.
pub(crate) fn thin_frontier<T>(v: &mut Vec<T>, width: usize) {
    if width == 0 || v.len() <= width {
        return;
    }
    let width = width.max(2);
    let last = v.len() - 1;
    // i*last/(width-1) is strictly increasing (len > width ⇒ step ≥ 1),
    // hits 0 and `last`, and is pure integer math — deterministic across
    // schedulers.
    let mut kept = 0usize;
    let mut idx = 0usize;
    v.retain(|_| {
        let keep = kept < width && idx == kept * last / (width - 1);
        kept += usize::from(keep);
        idx += 1;
        keep
    });
}

/// One merge candidate: `(time, memory, run index, point index)`.
pub(crate) type Cand = (f64, u64, u32, u32);

/// Whether a pruned run whose minimum time is exactly `t_lb` and minimum
/// memory exactly `m_lb` is wholly dominated by the running frontier `m` —
/// the microkernel's **batch prune**. `m` is time-ascending with strictly
/// descending memory, so the points at-or-left of `t_lb` form a prefix
/// whose last element holds its minimum memory; if that memory also
/// matches-or-beats `m_lb`, every run candidate `q` (with `q.time ≥ t_lb`,
/// `q.mem ≥ m_lb`) fails the merge's strict-improvement sweep, and the run
/// can be skipped without materializing it. Sound and exact: a skipped run
/// leaves `m` bit-identical to merging it (a no-contribution merge is the
/// identity and its width-cap thin is a no-op).
fn run_dominated(m: &[Cand], t_lb: f64, m_lb: u64) -> bool {
    let j = m.partition_point(|e| e.0.total_cmp(&t_lb).is_le());
    j > 0 && m[j - 1].1 <= m_lb
}

/// The microkernel's k-way merge: merges already-pruned runs into the
/// dominance-pruned frontier of their union, leaving `(time, mem, run,
/// point index)` survivors in `m` in exactly the order — including
/// tie-breaking — that a stable `(time, mem)` sort over all materialized
/// candidates (in run-major insertion order) followed by a best-memory
/// sweep would produce, as the incremental oracle's `merge_pruned_runs`
/// (`crate::reference`) does. Two batched rejection tests run per run
/// before the contribution scan touches any interior point.
///
/// * **Exact corner rejection** (always on): a merged point at-or-left of
///   the run's first point in time and at-or-below its last point in
///   memory dominates the whole run — one binary search, bit-identical
///   to letting the scan walk the run.
/// * **Endpoint rejection** (`lossy`, the `width > 0` regime): skip the
///   run unless it strictly improves the running frontier's min-time or
///   its memory floor — two scalar compares, with ties rejected
///   (existing wins). A rejected run has a min time at-or-above the
///   frontier's and a floor at-or-above its floor, so the merged
///   min-time *value* (bitwise) and the exact memory floor *value* are
///   preserved; the companion coordinate of each extreme point and the
///   interior of the width-thinned frontier may differ from the
///   incremental fill's. Callers gate this on `width > 0` — at
///   `width == 0` the merge stays exact and set-identical.
fn merge_runs_tiled(
    runs: &[MergeRun],
    pts: &[Pt],
    width: usize,
    lossy: bool,
    m: &mut Vec<Cand>,
    m2: &mut Vec<Cand>,
) {
    m.clear();
    for (r, run) in runs.iter().enumerate() {
        if run.head >= run.end {
            continue;
        }
        let r = r as u32;
        let emit = |h: u32| {
            let p = &pts[h as usize];
            (run.bt + p.time, run.bm + p.mem, r, h)
        };
        if m.is_empty() {
            m.extend((run.head..run.end).map(emit));
            thin_frontier(m, width);
            continue;
        }
        let first = &pts[run.head as usize];
        let last = &pts[run.end as usize - 1];
        let t0 = run.bt + first.time;
        let m1 = run.bm + last.mem;
        let rejected = if lossy {
            t0.total_cmp(&m[0].0).is_ge() && m1 >= m[m.len() - 1].1
        } else {
            run_dominated(m, t0, m1)
        };
        if rejected {
            continue;
        }
        // Exact contribution scan (a run point survives iff the merged
        // prefix at-or-left of it in time does not already match-or-beat
        // its memory), then the two-pointer merge with existing points
        // winning exact ties and dominated spans skipped by binary search.
        let mut contributes = false;
        let mut i = 0usize;
        for h in run.head..run.end {
            let (t, mm, _, _) = emit(h);
            while i < m.len() && m[i].0.total_cmp(&t).is_le() {
                i += 1;
            }
            if i == 0 || m[i - 1].1 > mm {
                contributes = true;
                break;
            }
        }
        if !contributes {
            continue;
        }
        m2.clear();
        let mut i = 0usize;
        let mut h = run.head;
        let mut best = u64::MAX;
        loop {
            let from_m = if i < m.len() && h < run.end {
                let e = &m[i];
                let (t, mm, _, _) = emit(h);
                e.0.total_cmp(&t).then(e.1.cmp(&mm)).is_le()
            } else if i < m.len() {
                true
            } else if h < run.end {
                false
            } else {
                break;
            };
            if from_m {
                let e = m[i];
                i += 1;
                if e.1 < best {
                    best = e.1;
                    m2.push(e);
                } else {
                    i += m[i..].partition_point(|e| e.1 >= best);
                }
            } else {
                let e = emit(h);
                h += 1;
                if e.1 < best {
                    best = e.1;
                    m2.push(e);
                } else {
                    let tail = &pts[h as usize..run.end as usize];
                    h += tail.partition_point(|p| run.bm + p.mem >= best) as u32;
                }
            }
        }
        std::mem::swap(m, m2);
        thin_frontier(m, width);
    }
}

/// Batched counterpart of one incremental merge step: merge one
/// already-pruned, already-shifted run (time ascending, memory strictly
/// descending) into the running frontier `m`, then thin to `width`. The
/// linear merge-then-prune drops exactly the candidates the incremental
/// version's span-skipping binary searches drop — at the typical width of
/// 8 the straight-line sweep beats the branchy searches — and keeps the
/// same existing-wins rule on exact `(time, mem)` ties, so the resulting
/// `m` is bit-identical run for run.
pub(crate) fn merge_run_batched(m: &mut Vec<Cand>, m2: &mut Vec<Cand>, run: &[Cand], width: usize) {
    if run.is_empty() {
        return;
    }
    if m.is_empty() {
        m.extend_from_slice(run);
        thin_frontier(m, width);
        return;
    }
    m2.clear();
    let (mut i, mut j) = (0usize, 0usize);
    let mut best = u64::MAX;
    while i < m.len() || j < run.len() {
        let from_m = if i == m.len() {
            false
        } else if j == run.len() {
            true
        } else {
            let (e, c) = (&m[i], &run[j]);
            e.0.total_cmp(&c.0).then(e.1.cmp(&c.1)).is_le()
        };
        let e = if from_m {
            i += 1;
            m[i - 1]
        } else {
            j += 1;
            run[j - 1]
        };
        if e.1 < best {
            best = e.1;
            m2.push(e);
        }
    }
    std::mem::swap(m, m2);
    thin_frontier(m, width);
}

/// One child-fold stage of the microkernel's per-configuration fold —
/// the k-way merge the incremental oracle makes per child, plus the kids
/// rebuild: acc-major runs over the child's frontier, merged exactly
/// ([`merge_runs_tiled`] without the lossy endpoint test), so the fold
/// matches the oracle's bit for bit.
#[allow(clippy::too_many_arguments)]
fn fold_child_batched(
    cf_pts: &[Pt],
    depth: usize,
    width: usize,
    acc: &mut Vec<(f64, u64)>,
    acc_kids: &mut Vec<u32>,
    cand: &mut Vec<Cand>,
    cand2: &mut Vec<Cand>,
    runs: &mut Vec<MergeRun>,
    new_kids: &mut Vec<u32>,
) {
    if acc.len() == 1 && !cf_pts.is_empty() {
        // Singleton accumulator: the Minkowski sum is a pure translation of
        // the child's frontier, which stays sorted, dominance-free, and
        // within `width` — bit-identical to the merge below, with no
        // pruning or thinning work.
        let (at, am) = acc[0];
        new_kids.clear();
        for pi in 0..cf_pts.len() as u32 {
            new_kids.extend_from_slice(&acc_kids[..depth]);
            new_kids.push(pi);
        }
        std::mem::swap(acc_kids, new_kids);
        acc.clear();
        acc.extend(cf_pts.iter().map(|p| (at + p.time, am + p.mem)));
        return;
    }
    runs.clear();
    runs.extend(acc.iter().map(|&(at, am)| MergeRun {
        bt: at,
        bm: am,
        head: 0,
        end: cf_pts.len() as u32,
    }));
    merge_runs_tiled(runs, cf_pts, width, false, cand, cand2);
    new_kids.clear();
    for &(_, _, ai, pi) in cand.iter() {
        new_kids.extend_from_slice(&acc_kids[ai as usize * depth..][..depth]);
        new_kids.push(pi);
    }
    std::mem::swap(acc_kids, new_kids);
    acc.clear();
    acc.extend(cand.iter().map(|&(t, m, _, _)| (t, m)));
}

/// `acc[i] += row[i]` over `u64` memory rows (exact, so unlike the time
/// rows no ordering care is needed — these exist for symmetry and speed).
#[inline]
fn add_mem_rows(acc: &mut [u64], row: &[u64]) {
    let n = acc.len().min(row.len());
    for i in 0..n {
        acc[i] += row[i];
    }
}

/// `acc[i] += v` over a `u64` memory row.
#[inline]
fn add_mem_scalar(acc: &mut [u64], v: u64) {
    for a in acc {
        *a += v;
    }
}

/// Where one child's frontier values live for the microkernel.
enum FChildRows {
    /// General case: read the child `FTable`'s per-entry frontier slice.
    Frontier,
    /// Degenerate (every entry a singleton): times and memories copied
    /// into panel-major rows — `panel[t + b ..][.. kv]` and
    /// `mem_panel[m + b ..][.. kv]` are the rows for substrategy offset
    /// `b` — addressed by re-derived coefficients exactly like
    /// `crate::kernel`'s transposed child tables.
    Panel { t: usize, m: usize },
    /// Degenerate with `vi_coef == 0`: one point per entry, independent of
    /// the configuration — read `pts[b]` directly (singleton tables have
    /// the identity offsets map).
    Broadcast,
}

/// One child's packed addressing for the microkernel.
struct FChild {
    anchor: usize,
    /// Row/entry-offset coefficients in the parent's digits (re-derived
    /// for the transposed panel layout, original otherwise).
    coef: Vec<u64>,
    /// The configuration stride of the *entry* index (general case only;
    /// folded into the panel rows in the degenerate case).
    vi_coef: u64,
    rows: FChildRows,
}

/// Entry-invariant operands of one vertex's frontier fill, packed once by
/// [`pack_frontier_vertex`] and shared read-only by every chunk: the
/// later-edge panels of [`kernel::pack_edges`] (time component) plus, on
/// the degenerate fast path, packed per-child time rows and a parallel
/// packed memory-row panel. Panels return to the thread pool on drop.
pub(crate) struct FrontierPack {
    panel: Pooled<Vec<f64>>,
    mem_panel: Pooled<Vec<u64>>,
    edges: Vec<(usize, kernel::EdgeRows)>,
    children: Vec<FChild>,
    /// Every child table is all-singleton — the degenerate fast path.
    degenerate: bool,
    packed_bytes: u64,
}

/// Pack one vertex's entry-invariant operands for the frontier
/// microkernel: later-edge matrices through the shared
/// [`kernel::pack_edges`], and — when every child frontier is degenerate
/// (all entries singletons) — each child's times and memories transposed
/// into contiguous `kv`-wide rows so the whole fold collapses to the
/// scalar tiled kernel's fused slice passes.
fn pack_frontier_vertex(
    tables: &CostTables,
    plan: &Plan,
    children: &[ChildCoef],
    dp: &[Option<Pooled<FTable>>],
) -> FrontierPack {
    let kv = plan.kv as usize;
    let mut panel = Pooled::<Vec<f64>>::take();
    let mut mem_panel = Pooled::<Vec<u64>>::take();
    let mut packed_bytes = 0u64;
    let edges = kernel::pack_edges(tables, plan, &mut panel, &mut packed_bytes);

    let degenerate = children.iter().all(|ch| {
        dp[ch.anchor]
            .as_ref()
            .expect("child frontier")
            .all_singleton()
    });
    let children = children
        .iter()
        .map(|ch| {
            if !degenerate {
                FChild {
                    anchor: ch.anchor,
                    coef: ch.parent_coef.clone(),
                    vi_coef: ch.vi_coef,
                    rows: FChildRows::Frontier,
                }
            } else if ch.vi_coef == 0 {
                FChild {
                    anchor: ch.anchor,
                    coef: ch.parent_coef.clone(),
                    vi_coef: 0,
                    rows: FChildRows::Broadcast,
                }
            } else {
                // Singleton entries at idx = base + vi_coef·c: copy the kv
                // points of each substrategy out into one contiguous time
                // row and one memory row ((`Pt` interleaves the
                // coordinates, so even vi_coef == 1 needs the copy),
                // using the same transposed layout and re-derived
                // coefficients as `kernel::pack_vertex`'s child tables.
                let pts = &dp[ch.anchor].as_ref().expect("child frontier").pts;
                let vc = ch.vi_coef as usize;
                debug_assert_eq!(pts.len() % (vc * kv), 0);
                let t_off = panel.len();
                let m_off = mem_panel.len();
                panel.reserve(pts.len());
                mem_panel.reserve(pts.len());
                for block in pts.chunks_exact(vc * kv) {
                    for lo in 0..vc {
                        for p in block[lo..].iter().step_by(vc).take(kv) {
                            panel.push(p.time);
                            mem_panel.push(p.mem);
                        }
                    }
                }
                packed_bytes +=
                    (pts.len() * (std::mem::size_of::<f64>() + std::mem::size_of::<u64>())) as u64;
                let coef = ch
                    .parent_coef
                    .iter()
                    .map(|&s| if s < ch.vi_coef { s * kv as u64 } else { s })
                    .collect();
                FChild {
                    anchor: ch.anchor,
                    coef,
                    vi_coef: ch.vi_coef,
                    rows: FChildRows::Panel { t: t_off, m: m_off },
                }
            }
        })
        .collect();

    FrontierPack {
        panel,
        mem_panel,
        edges,
        children,
        degenerate,
        packed_bytes,
    }
}

/// The run-blocked frontier fill of one chunk over a
/// [`pack_frontier_vertex`] pack — the frontier analogue of
/// `kernel::fill_chunk_tiled`, appending `len` entries starting at `start`
/// onto `out`. Entries are processed in innermost-digit runs:
///
/// * the invariant prefix of the **time row** (layer cost plus leading
///   later-edges that never read the innermost digit) is summed by fused
///   slice passes once per run; the remaining edges are added per entry —
///   the same addition tree as the incremental oracle, computed `kv` lanes
///   at a time;
/// * when the whole time row is run-invariant, the per-configuration folds
///   of the leading innermost-invariant children (the **prefix merge**)
///   are hoisted once per run, and each entry resumes the fold at the
///   first varying child;
/// * a run in which *every* operand is invariant computes one entry and
///   replicates it across the run;
/// * each configuration's fold is **batch-pruned**: its exact
///   `(min-time, min-memory)` lower bound (the left-fold of child minima —
///   bitwise the fold's eventual min-time point) is tested against the
///   running cross-configuration frontier, and provably dominated
///   configurations are skipped without folding;
/// * on the degenerate fast path (every child table all-singleton) the
///   fold collapses entirely to packed row arithmetic: fused `f64` passes
///   over the time panels and exact `u64` passes over the memory panels,
///   followed by the per-entry cross-configuration merge.
///
/// Every merge replays the incremental oracle's run order, thinning, and
/// tie rules through [`merge_run_batched`], so at `width == 0` the produced
/// table is set-identical to the oracle's.
#[allow(clippy::too_many_arguments)]
fn fill_chunk_frontier_tiled(
    tables: &CostTables,
    plan: &Plan,
    pack: &FrontierPack,
    dp: &[Option<Pooled<FTable>>],
    width: usize,
    start: u64,
    len: usize,
    s: &mut FrontierScratch,
    out: &mut FTable,
) -> Result<(), GraphError> {
    let n_dep = plan.dep.len();
    let kv = plan.kv as usize;
    let n_edges = pack.edges.len();
    let n_children = pack.children.len();

    let FrontierScratch {
        digits,
        acc,
        acc_kids,
        cand,
        cand2,
        run_buf,
        runs,
        new_kids,
        result_kids,
        child_base,
        child_step,
        pre,
        trow,
        mrow,
        xm,
        xm2,
        hoist_offsets,
        hoist_pts,
        hoist_kids,
        ..
    } = s;

    // Initial digit decode and child offsets — the only div/mod in the
    // chunk; runs advance by odometer carries.
    digits.clear();
    digits.extend(
        (plan.strides.iter().zip(&plan.radix)).map(|(&s, &r)| ((start / s) % u64::from(r)) as u16),
    );
    child_base.clear();
    child_step.clear();
    for ch in &pack.children {
        child_base.push(
            ch.coef
                .iter()
                .zip(digits.iter())
                .map(|(&coef, &d)| coef * u64::from(d))
                .sum(),
        );
        child_step.push(if n_dep == 0 { 0 } else { ch.coef[n_dep - 1] });
    }
    let last = n_dep.wrapping_sub(1);
    let rlast = if n_dep == 0 {
        1u64
    } else {
        u64::from(plan.radix[last])
    };
    // Strip the innermost-digit contribution out of `child_base`: rows at
    // digit value `d` are addressed as `child_base + child_step·d`.
    let d0 = if n_dep == 0 {
        0
    } else {
        u64::from(digits[last])
    };
    for (b, st) in child_base.iter_mut().zip(child_step.iter()) {
        *b -= st * d0;
    }

    let base_row = tables.layer_cost_row(plan.vi);
    let mem_row = tables.memory_row(plan.vi);
    debug_assert_eq!(base_row.len(), kv);
    let edge_mats: Vec<&[f64]> = pack
        .edges
        .iter()
        .map(|(_, rows)| kernel::edge_row_block(tables, rows, &pack.panel, kv))
        .collect();
    let child_fts: Vec<&FTable> = pack
        .children
        .iter()
        .map(|ch| dp[ch.anchor].as_deref().expect("child frontier"))
        .collect();

    // Longest invariant prefix of the later-edge sum (operands that never
    // read the innermost digit) — hoisted into `pre` once per run.
    let n_pre_e = pack
        .edges
        .iter()
        .take_while(|&&(slot, _)| n_dep == 0 || slot != last)
        .count();
    let edges_invariant = n_pre_e == n_edges;
    let all_invariant = edges_invariant && child_step.iter().all(|&st| st == 0);
    // Leading children whose row offset ignores the innermost digit: with
    // an invariant time row their per-configuration folds hoist once per
    // run (pointless when the whole run replicates one entry).
    let n_hoist = if edges_invariant && !all_invariant && !pack.degenerate {
        child_step.iter().take_while(|&&st| st == 0).count()
    } else {
        0
    };

    pre.clear();
    pre.resize(kv, 0.0);
    trow.clear();
    trow.resize(kv, 0.0);
    mrow.clear();
    mrow.resize(kv, 0);

    let mut off = 0usize;
    // First innermost-digit value of the current run (the chunk may start
    // mid-run; later runs always start at 0).
    let mut d_first = d0;
    while off < len {
        let run = ((rlast - d_first) as usize).min(len - off);

        // Edge row `j` at innermost-digit value `d` (invariant edges
        // ignore `d` and resolve the same row for the whole run).
        let edge_row = |j: usize, d: u64| -> &[f64] {
            let (slot, _) = pack.edges[j];
            let w = if n_dep > 0 && slot == last {
                d as usize
            } else {
                digits[slot] as usize
            };
            &edge_mats[j][w * kv..][..kv]
        };

        // Hoist the invariant prefix of the time row once per run — the
        // same addition tree, its shared head computed once.
        let pre_row: &[f64] = if n_pre_e == 0 {
            base_row
        } else {
            kernel::set_sum(pre, base_row, edge_row(0, d_first));
            for j in 1..n_pre_e {
                kernel::add_rows(pre, edge_row(j, d_first));
            }
            pre
        };

        // Hoist the prefix merge: fold the leading invariant children once
        // per run, per configuration.
        if n_hoist > 0 {
            hoist_offsets.clear();
            hoist_pts.clear();
            hoist_kids.clear();
            hoist_offsets.push(0);
            for c in 0..kv {
                acc.clear();
                acc_kids.clear();
                acc.push((pre_row[c], mem_row[c]));
                for ci in 0..n_hoist {
                    let idx = (child_base[ci] + pack.children[ci].vi_coef * c as u64) as usize;
                    fold_child_batched(
                        child_fts[ci].entry_pts(idx),
                        ci,
                        width,
                        acc,
                        acc_kids,
                        cand,
                        cand2,
                        runs,
                        new_kids,
                    );
                }
                hoist_pts.extend_from_slice(acc);
                hoist_kids.extend_from_slice(acc_kids);
                hoist_offsets.push(hoist_pts.len() as u32);
            }
        }

        let entries = if all_invariant { 1 } else { run };
        for step in 0..entries {
            let d = d_first + step as u64;

            if pack.degenerate {
                // Degenerate fast path: every child is a singleton, so the
                // fold is row arithmetic — fused f64 passes for time,
                // exact u64 passes for memory, in the fold's exact
                // operand order (edges in plan order, then children).
                let trow_ref: &[f64] = if n_pre_e == n_edges && n_children == 0 {
                    pre_row
                } else {
                    let mut seeded = false;
                    for j in n_pre_e..n_edges {
                        if seeded {
                            kernel::add_rows(trow, edge_row(j, d));
                        } else {
                            kernel::set_sum(trow, pre_row, edge_row(j, d));
                            seeded = true;
                        }
                    }
                    for (ci, ch) in pack.children.iter().enumerate() {
                        let b = (child_base[ci] + child_step[ci] * d) as usize;
                        match ch.rows {
                            FChildRows::Panel { t, .. } => {
                                let row = &pack.panel[t + b..][..kv];
                                if seeded {
                                    kernel::add_rows(trow, row);
                                } else {
                                    kernel::set_sum(trow, pre_row, row);
                                    seeded = true;
                                }
                            }
                            FChildRows::Broadcast => {
                                let p = &child_fts[ci].pts[b];
                                if seeded {
                                    kernel::add_scalar(trow, p.time);
                                } else {
                                    kernel::set_sum_scalar(trow, pre_row, p.time);
                                    seeded = true;
                                }
                            }
                            FChildRows::Frontier => unreachable!("degenerate pack"),
                        }
                    }
                    trow
                };
                let mrow_ref: &[u64] = if n_children == 0 {
                    mem_row
                } else {
                    mrow.copy_from_slice(mem_row);
                    for (ci, ch) in pack.children.iter().enumerate() {
                        let b = (child_base[ci] + child_step[ci] * d) as usize;
                        match ch.rows {
                            FChildRows::Panel { m, .. } => {
                                add_mem_rows(mrow, &pack.mem_panel[m + b..][..kv]);
                            }
                            FChildRows::Broadcast => {
                                add_mem_scalar(mrow, child_fts[ci].pts[b].mem);
                            }
                            FChildRows::Frontier => unreachable!("degenerate pack"),
                        }
                    }
                    mrow
                };
                // Cross-configuration merge over kv singleton runs; the
                // lower-bound test IS the contribution scan here. Kids are
                // all zero (each child frontier has exactly one point).
                xm.clear();
                for c in 0..kv {
                    let (t, mm) = (trow_ref[c], mrow_ref[c]);
                    if !xm.is_empty() && run_dominated(xm, t, mm) {
                        continue;
                    }
                    merge_run_batched(xm, xm2, &[(t, mm, c as u32, c as u32)], width);
                }
                thin_frontier(xm, width);
                for &(t, mm, c, _) in xm.iter() {
                    out.push(t, mm, c);
                }
                out.kids
                    .extend(std::iter::repeat_n(0u32, xm.len() * n_children));
                out.offsets.push(out.pts.len() as u32);
            } else {
                // General path: per-entry time row by slice passes, then
                // the batch-pruned per-configuration fold.
                let trow_ref: &[f64] = if edges_invariant {
                    pre_row
                } else {
                    kernel::set_sum(trow, pre_row, edge_row(n_pre_e, d));
                    for j in n_pre_e + 1..n_edges {
                        kernel::add_rows(trow, edge_row(j, d));
                    }
                    trow
                };
                if n_children == 1 && n_hoist == 0 {
                    // Single non-hoistable child: every configuration's fold
                    // is a pure translation of one child entry, so the whole
                    // entry is a single k-way merge-prune whose runs point
                    // straight into the child's packed point arena — no fold
                    // and no result arena. At `width > 0` the merge
                    // batch-prunes endpoint-dominated configurations
                    // (min-time bit-parity and the exact memory floor are
                    // preserved); at `width == 0` it is exact.
                    let ft0 = child_fts[0];
                    let vi_coef = pack.children[0].vi_coef;
                    let cb = child_base[0] + child_step[0] * d;
                    runs.clear();
                    runs.extend((0..kv).map(|c| {
                        let idx = (cb + vi_coef * c as u64) as usize;
                        MergeRun {
                            bt: trow_ref[c],
                            bm: mem_row[c],
                            head: ft0.offsets[idx],
                            end: ft0.offsets[idx + 1],
                        }
                    }));
                    merge_runs_tiled(runs, &ft0.pts, width, width > 0, xm, xm2);
                    for &(t, mm, c, h) in xm.iter() {
                        out.push(t, mm, c);
                        out.kids.push(h - runs[c as usize].head);
                    }
                    out.offsets.push(out.pts.len() as u32);
                    continue;
                }
                xm.clear();
                result_kids.clear();
                'config: for c in 0..kv {
                    // Exact endpoints of the configuration's fold, computed
                    // without folding: the left-fold of child min-time points
                    // is, bitwise, the min-time endpoint the fold would
                    // produce (same f64 addition order), and the u64 sums of
                    // child memory extremes are its exact memory floor and
                    // min-time-path memory.
                    let (mut t_lb, mut m_lb) = if n_hoist > 0 {
                        let h =
                            &hoist_pts[hoist_offsets[c] as usize..hoist_offsets[c + 1] as usize];
                        match h.first() {
                            Some(&(t, _)) => (t, h[h.len() - 1].1),
                            None => continue 'config,
                        }
                    } else {
                        (trow_ref[c], mem_row[c])
                    };
                    for ci in n_hoist..n_children {
                        let idx = (child_base[ci]
                            + child_step[ci] * d
                            + pack.children[ci].vi_coef * c as u64)
                            as usize;
                        let cf = child_fts[ci].entry_pts(idx);
                        match cf.first() {
                            Some(p) => {
                                t_lb += p.time;
                                m_lb += cf[cf.len() - 1].mem;
                            }
                            None => continue 'config,
                        }
                    }
                    // Batch prune: skip the fold outright unless it can
                    // improve the running cross-configuration frontier's
                    // min-time head or its memory floor (non-strict, so ties
                    // fold and resolve exactly) — `t_lb` and `m_lb` are the
                    // fold's exact endpoints, computed without folding.
                    // Gated to the width-capped regime — at `width == 0` the
                    // fill is exact and every configuration is folded.
                    if width > 0
                        && !xm.is_empty()
                        && t_lb.total_cmp(&xm[0].0).is_ge()
                        && m_lb >= xm[xm.len() - 1].1
                    {
                        continue 'config;
                    }
                    // Fold, resuming from the hoisted prefix state.
                    if n_hoist > 0 {
                        let (s0, s1) = (hoist_offsets[c] as usize, hoist_offsets[c + 1] as usize);
                        acc.clear();
                        acc.extend_from_slice(&hoist_pts[s0..s1]);
                        acc_kids.clear();
                        acc_kids.extend_from_slice(&hoist_kids[s0 * n_hoist..s1 * n_hoist]);
                    } else {
                        acc.clear();
                        acc_kids.clear();
                        acc.push((trow_ref[c], mem_row[c]));
                    }
                    for ci in n_hoist..n_children {
                        let idx = (child_base[ci]
                            + child_step[ci] * d
                            + pack.children[ci].vi_coef * c as u64)
                            as usize;
                        fold_child_batched(
                            child_fts[ci].entry_pts(idx),
                            ci,
                            width,
                            acc,
                            acc_kids,
                            cand,
                            cand2,
                            runs,
                            new_kids,
                        );
                    }
                    debug_assert!(!acc.is_empty());
                    debug_assert_eq!(acc[0].0.to_bits(), t_lb.to_bits());
                    debug_assert_eq!(acc[acc.len() - 1].1, m_lb);
                    // Read-only contribution scan: when every fold point is
                    // dominated by the running cross-configuration frontier
                    // the merge below is the identity (and re-thinning a
                    // ≤-width frontier is too), so skip the arena traffic
                    // and the merge outright — bit-identical either way.
                    if !xm.is_empty() && acc.iter().all(|&(t, mm)| run_dominated(xm, t, mm)) {
                        continue 'config;
                    }
                    // General entries have at least one child (a childless
                    // pack is degenerate), so the kids rows count the points.
                    let astart = (result_kids.len() / n_children) as u32;
                    result_kids.extend_from_slice(&acc_kids[..acc.len() * n_children]);
                    run_buf.clear();
                    run_buf.extend(
                        acc.iter()
                            .enumerate()
                            .map(|(i, &(t, mm))| (t, mm, c as u32, astart + i as u32)),
                    );
                    merge_run_batched(xm, xm2, run_buf, width);
                }
                thin_frontier(xm, width);
                // The candidates carry each point's coordinates and
                // configuration verbatim from the fold.
                for &(t, mm, c, pi) in xm.iter() {
                    out.push(t, mm, c);
                    out.kids
                        .extend_from_slice(&result_kids[pi as usize * n_children..][..n_children]);
                }
                out.offsets.push(out.pts.len() as u32);
            }
        }
        if all_invariant {
            for _ in 1..run {
                out.duplicate_last_entry(n_children);
            }
        }

        off += run;
        d_first = 0;
        if off < len {
            // Carry out of the innermost digit, once per run.
            let mut t = last;
            loop {
                if t == 0 {
                    return Err(kernel::odometer_overflow(plan, start));
                }
                t -= 1;
                digits[t] += 1;
                for (b, ch) in child_base.iter_mut().zip(&pack.children) {
                    *b += ch.coef[t];
                }
                if u32::from(digits[t]) < plan.radix[t] {
                    break;
                }
                digits[t] = 0;
                for (b, ch) in child_base.iter_mut().zip(&pack.children) {
                    *b -= ch.coef[t] * u64::from(plan.radix[t]);
                }
            }
            digits[last] = 0;
        }
    }
    Ok(())
}

/// The DP value of frontier searches ([`crate::Search::frontier`] /
/// [`crate::Search::max_memory_bytes`]): a frontier of `(time, memory)`
/// points per table entry, each thinned to `width` points, filled by the
/// microkernel; a table filled in several parts is stitched once its wave
/// completes.
/// Its backtrack extracts the full strategy of *every* global Pareto point
/// and returns the frontier plus its min-time point as the `Found`
/// outcome; a budget abort returns no frontier.
pub(crate) struct Pareto {
    pub(crate) width: usize,
}

impl DpValue for Pareto {
    const ENGINE: &'static str = "frontier-tiled";
    const CHUNK: usize = 1024;
    type Table = FTable;
    type Pack = FrontierPack;
    type Scratch = FrontierScratch;
    type Out = Vec<Pooled<FTable>>;
    type Part<'a> = &'a mut FTable;

    fn pack(
        &self,
        tables: &CostTables,
        plan: &Plan,
        children: &[ChildCoef],
        dp: &[Option<Pooled<FTable>>],
    ) -> FrontierPack {
        pack_frontier_vertex(tables, plan, children, dp)
    }

    fn packed_bytes(pack: &FrontierPack) -> u64 {
        pack.packed_bytes
    }

    fn take_out(plan: &Plan, part_len: usize) -> Vec<Pooled<FTable>> {
        let size = plan.size as usize;
        (0..size)
            .step_by(part_len)
            .map(|lo| {
                let mut part = Pooled::<FTable>::take();
                part.offsets.reserve((size - lo).min(part_len));
                part
            })
            .collect()
    }

    fn parts(out: &mut Vec<Pooled<FTable>>, _part_len: usize) -> impl Iterator<Item = &mut FTable> {
        out.iter_mut().map(|part| &mut **part)
    }

    fn fill(
        &self,
        cx: &FillCx<'_, Self>,
        scratch: &mut FrontierScratch,
        start: u64,
        len: usize,
        part: &mut &mut FTable,
    ) -> Result<(), GraphError> {
        fill_chunk_frontier_tiled(
            cx.tables, cx.plan, cx.pack, cx.dp, self.width, start, len, scratch, part,
        )
    }

    fn finish(mut out: Vec<Pooled<FTable>>) -> Pooled<FTable> {
        if out.len() == 1 {
            return out.pop().expect("one part");
        }
        let mut table = Pooled::<FTable>::take();
        table
            .offsets
            .reserve(out.iter().map(|p| p.offsets.len() - 1).sum());
        let points = out.iter().map(|p| p.pts.len()).sum();
        table.pts.reserve(points);
        table.choice.reserve(points);
        table.kids.reserve(out.iter().map(|p| p.kids.len()).sum());
        for part in &out {
            table.append_table(part);
        }
        table
    }

    /// Backtrack reads a child's `choice`, `kids` and `offsets`; its `pts`
    /// were read by the parent's fill and are dead.
    fn release(table: &mut FTable) {
        table.pts = Vec::new();
    }

    fn table_bytes(table: &FTable) -> u64 {
        table.pts.len() as u64 * PT_BYTES
            + table.choice.len() as u64 * CHOICE_BYTES
            + table.kids.len() as u64 * KID_BYTES
            + table.offsets.len() as u64 * OFFSET_BYTES
    }

    fn backtrack(
        &self,
        tables: &CostTables,
        structure: &VertexStructure,
        plans: &[Plan],
        dp: &[Option<Pooled<FTable>>],
        mut stats: SearchStats,
    ) -> Filled {
        let points = backtrack_frontier(tables, structure, plans, dp, self.width);
        stats.frontier_len = points.len();
        let best = &points[0];
        let outcome = SearchOutcome::Found(SearchResult {
            cost: best.cost,
            config_ids: best.config_ids.clone(),
            stats,
        });
        Filled {
            outcome,
            frontier: Some(StrategyFrontier::new(points)),
        }
    }
}

/// Back-substitution over fully filled frontier tables: combines the
/// (singleton) root frontiers in root order — the same order, and
/// therefore the same addition tree, as the scalar root sum — prunes and
/// thins the global set to `width`, then extracts the full strategy of
/// every surviving Pareto point. Reads `pts` of the roots only, so every
/// other table may have been released.
pub(crate) fn backtrack_frontier(
    tables: &CostTables,
    structure: &VertexStructure,
    plans: &[Plan],
    dp: &[Option<Pooled<FTable>>],
    width: usize,
) -> Vec<FrontierPoint> {
    let n = plans.len();
    let mut acc = vec![Partial {
        time: 0.0,
        mem: 0,
        kids: Vec::new(),
    }];
    for &r in structure.roots() {
        let rf = dp[r].as_ref().expect("root frontier").entry_pts(0);
        let mut next: Vec<Partial> = Vec::with_capacity(acc.len() * rf.len());
        for a in &acc {
            for (pi, p) in rf.iter().enumerate() {
                let mut kids = a.kids.clone();
                kids.push(pi as u32);
                next.push(Partial {
                    time: a.time + p.time,
                    mem: a.mem + p.mem,
                    kids,
                });
            }
        }
        prune_pareto(&mut next, |p| (p.time, p.mem));
        thin_frontier(&mut next, width);
        acc = next;
    }

    let children_all: Vec<Vec<ChildCoef>> =
        (0..n).map(|i| child_coefs(plans, structure, i)).collect();
    acc.into_iter()
        .map(|global| {
            let mut ids = vec![u16::MAX; n];
            let mut stack: Vec<(usize, u64, u32)> = structure
                .roots()
                .iter()
                .zip(&global.kids)
                .map(|(&r, &pi)| (r, 0u64, pi))
                .collect();
            while let Some((i, flat, pi)) = stack.pop() {
                let table = dp[i].as_ref().expect("table");
                let children = &children_all[i];
                let choice = table.choice[(table.offsets[flat as usize] + pi) as usize];
                ids[plans[i].vi.index()] = choice;
                let kids = &table.entry_kids(flat as usize, children.len())
                    [pi as usize * children.len()..][..children.len()];
                for (ch, &kid) in children.iter().zip(kids) {
                    let base: u64 = ch
                        .parent_coef
                        .iter()
                        .enumerate()
                        .map(|(t, &coef)| {
                            let d = (flat / plans[i].strides[t]) % u64::from(plans[i].radix[t]);
                            coef * d
                        })
                        .sum();
                    let child_flat = base + ch.vi_coef * u64::from(choice);
                    stack.push((ch.anchor, child_flat, kid));
                }
            }
            debug_assert!(ids.iter().all(|&c| c != u16::MAX));
            debug_assert_eq!(tables.strategy_memory_bytes(&ids), global.mem);
            FrontierPoint {
                cost: global.time,
                memory_bytes: global.mem,
                config_ids: ids,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::tests::with_threads;
    use crate::search::Search;
    use pase_cost::{MachineSpec, PruneOptions};
    use pase_graph::{DimRole, Graph, GraphBuilder, IterDim, Node, OpKind, TensorRef};

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

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(fc("a", 0));
        let l = b.add_node(fc("l", 1));
        let r = b.add_node(fc("r", 1));
        let d = b.add_node(fc("d", 2));
        b.connect(a, l);
        b.connect(a, r);
        b.connect(l, d);
        b.connect(r, d);
        b.build().unwrap()
    }

    /// The exact frontier by exhaustive enumeration: every strategy's
    /// (cost, memory), Pareto-pruned with the same tie-breaking as the DP.
    fn brute_frontier(g: &Graph, tables: &CostTables) -> Vec<(f64, u64)> {
        let n = g.len();
        let ks: Vec<u64> = g.node_ids().map(|v| tables.k(v) as u64).collect();
        let total: u64 = ks.iter().product();
        let mut pts: Vec<(f64, u64)> = (0..total)
            .map(|flat| {
                let mut ids = vec![0u16; n];
                let mut rem = flat;
                for v in (0..n).rev() {
                    ids[v] = (rem % ks[v]) as u16;
                    rem /= ks[v];
                }
                (
                    tables.evaluate_ids(g, &ids),
                    tables.strategy_memory_bytes(&ids),
                )
            })
            .collect();
        prune_pareto(&mut pts, |&(t, m)| (t, m));
        pts
    }

    #[test]
    fn frontier_matches_exhaustive_enumeration() {
        let g = diamond();
        for p in [4u32, 8] {
            let run = Search::new(&g)
                .devices(p)
                .machine(MachineSpec::test_machine())
                .frontier()
                .frontier_width(0)
                .run();
            let f = run.frontier().expect("frontier");
            let brute = brute_frontier(&g, run.tables());
            assert_eq!(f.len(), brute.len(), "p = {p}");
            for (got, want) in f.points().iter().zip(&brute) {
                // Times agree to float identity; memory is exact. (The DP's
                // addition tree differs from evaluate_ids' flat sum, so
                // compare with an ulp-scale tolerance, not to_bits.)
                assert!(
                    (got.cost - want.0).abs() <= 1e-9 * want.0.abs(),
                    "p = {p}: {} vs {}",
                    got.cost,
                    want.0
                );
                assert_eq!(got.memory_bytes, want.1, "p = {p}");
                // Each point's ids reproduce its coordinates.
                assert_eq!(
                    run.tables().strategy_memory_bytes(&got.config_ids),
                    got.memory_bytes
                );
                let eval = run.tables().evaluate_ids(&g, &got.config_ids);
                assert!((eval - got.cost).abs() <= 1e-9 * eval.abs());
            }
        }
    }

    #[test]
    fn pruned_frontier_equals_the_unpruned_one() {
        let g = diamond();
        let plain = Search::new(&g)
            .devices(8)
            .machine(MachineSpec::test_machine())
            .frontier()
            .run();
        let pruned = Search::new(&g)
            .devices(8)
            .machine(MachineSpec::test_machine())
            .frontier()
            .pruning(PruneOptions::default())
            .run();
        let (pf, qf) = (
            plain.frontier().expect("plain"),
            pruned.frontier().expect("pruned"),
        );
        assert_eq!(pf.len(), qf.len());
        for (a, b) in pf.points().iter().zip(qf.points()) {
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            assert_eq!(a.memory_bytes, b.memory_bytes);
            // Every point's ids were mapped back to the *original* id space:
            // on the unpruned tables they reproduce the point's memory
            // exactly and its cost up to summation-order rounding.
            let eval = plain.tables().evaluate_ids(&g, &b.config_ids);
            assert!(
                (eval - b.cost).abs() <= 1e-9 * b.cost.abs(),
                "back-mapped point evaluates to {eval}, frontier says {}",
                b.cost
            );
            assert_eq!(
                plain.tables().strategy_memory_bytes(&b.config_ids),
                b.memory_bytes
            );
        }
        assert!(pruned.result().expect("found").stats.k_before >= pruned.tables().max_k());
    }

    #[test]
    fn thread_count_does_not_change_the_frontier() {
        let g = diamond();
        let run = |threads| with_threads(threads, || Search::new(&g).devices(8).frontier().run());
        let (seq, par) = (run(1), run(4));
        let (sf, pf) = (seq.frontier().expect("seq"), par.frontier().expect("par"));
        assert_eq!(sf.len(), pf.len());
        for (a, b) in sf.points().iter().zip(pf.points()) {
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            assert_eq!(a.memory_bytes, b.memory_bytes);
            assert_eq!(a.config_ids, b.config_ids);
        }
    }

    #[test]
    fn the_width_cap_keeps_both_endpoints() {
        let g = diamond();
        let exact = Search::new(&g)
            .devices(8)
            .machine(MachineSpec::test_machine())
            .frontier()
            .frontier_width(0)
            .run();
        let capped = Search::new(&g)
            .devices(8)
            .machine(MachineSpec::test_machine())
            .frontier()
            .frontier_width(2)
            .run();
        let (ef, cf) = (
            exact.frontier().expect("exact"),
            capped.frontier().expect("capped"),
        );
        assert!(cf.len() <= 2, "cap of 2 exceeded: {}", cf.len());
        // Min-time survives thinning bit-for-bit (per-state index 0 is
        // always kept), and so does the global memory floor (per-state
        // last index is always kept).
        assert_eq!(cf.min_time().cost.to_bits(), ef.min_time().cost.to_bits());
        assert_eq!(cf.min_memory_bytes(), ef.min_memory_bytes());
        // Every capped point is a real strategy reproducing its own
        // coordinates.
        for p in cf.points() {
            assert_eq!(
                capped.tables().strategy_memory_bytes(&p.config_ids),
                p.memory_bytes
            );
        }
    }

    #[test]
    fn frontier_table_bytes_count_every_buffer() {
        assert_eq!(
            (PT_BYTES, CHOICE_BYTES, KID_BYTES, OFFSET_BYTES),
            (16, 2, 4, 4)
        );
        // Two entries of a two-child position: two points, then one.
        let mut t = FTable::default();
        t.push(1.0, 20, 0);
        t.push(2.0, 10, 1);
        t.push(3.0, 10, 0);
        t.kids = vec![0; 6];
        t.offsets = vec![0, 2, 3];
        assert_eq!(Pareto::table_bytes(&t), 3 * 16 + 3 * 2 + 6 * 4 + 3 * 4);
        // Released, a table keeps what back-substitution reads.
        Pareto::release(&mut t);
        assert_eq!(Pareto::table_bytes(&t), 3 * 2 + 6 * 4 + 3 * 4);
        assert_eq!(t.choice, vec![0, 1, 0]);
    }

    #[test]
    fn thin_frontier_is_deterministic_and_keeps_endpoints() {
        let mut v: Vec<u32> = (0..10).collect();
        thin_frontier(&mut v, 4);
        assert_eq!(v, vec![0, 3, 6, 9]);
        let mut w: Vec<u32> = (0..3).collect();
        thin_frontier(&mut w, 4);
        assert_eq!(w, vec![0, 1, 2]);
        let mut x: Vec<u32> = (0..100).collect();
        thin_frontier(&mut x, 0);
        assert_eq!(x.len(), 100);
        let mut y: Vec<u32> = (0..100).collect();
        thin_frontier(&mut y, 1);
        assert_eq!(y, vec![0, 99], "width 1 clamps to 2 to keep the floor");
    }

    #[test]
    fn prune_pareto_is_exact_and_deterministic() {
        let mut v = vec![(2.0, 5u64), (1.0, 10), (1.0, 10), (3.0, 1), (2.5, 9)];
        prune_pareto(&mut v, |&(t, m)| (t, m));
        assert_eq!(v, vec![(1.0, 10), (2.0, 5), (3.0, 1)]);
        // NaN-free inputs only: tables are checked finite before any fill.
    }

    #[test]
    fn cheapest_within_is_exact_at_the_budget_boundary() {
        let pt = |cost: f64, memory_bytes: u64| FrontierPoint {
            cost,
            memory_bytes,
            config_ids: vec![],
        };
        let f = StrategyFrontier::new(vec![pt(1.0, 100), pt(2.0, 60), pt(4.0, 10)]);
        // A budget exactly at a point's memory admits that point (≤, not <).
        assert_eq!(f.cheapest_within(100).expect("fits").cost, 1.0);
        assert_eq!(f.cheapest_within(60).expect("fits").cost, 2.0);
        assert_eq!(f.cheapest_within(10).expect("fits").cost, 4.0);
        // One byte under a boundary falls through to the next point.
        assert_eq!(f.cheapest_within(99).expect("fits").cost, 2.0);
        assert_eq!(f.cheapest_within(59).expect("fits").cost, 4.0);
        assert_eq!(f.cheapest_within(11).expect("fits").cost, 4.0);
        // Under the memory floor: infeasible.
        assert!(f.cheapest_within(9).is_none());
        assert!(f.cheapest_within(0).is_none());
        // Unbounded budgets select the min-time point.
        assert_eq!(f.cheapest_within(u64::MAX).expect("fits").cost, 1.0);
        assert!(StrategyFrontier::default()
            .cheapest_within(u64::MAX)
            .is_none());
    }

    #[test]
    fn empty_graph_has_the_trivial_frontier() {
        let g = GraphBuilder::new().build().unwrap();
        let run = Search::new(&g).frontier().run();
        let f = run.frontier().expect("frontier");
        assert_eq!(f.len(), 1);
        assert_eq!(f.min_time().cost, 0.0);
        assert_eq!(f.min_memory_bytes(), 0);
        assert_eq!(run.result().expect("found").cost, 0.0);
    }
}
