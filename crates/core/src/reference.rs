//! Reference implementations of the two DP fills, kept as test oracles.
//!
//! The production engines fill their tables with packed, run-blocked
//! microkernels ([`crate::kernel`] for the scalar DP value, the frontier
//! microkernel in `crate::frontier` for the Pareto value). This module keeps
//! the straightforward loops those kernels replaced, behind two small
//! sequential drivers, so the kernels' exactness contracts can be checked
//! against an independent implementation:
//!
//! * [`scalar_search`] fills every table with the per-entry scalar loop: an
//!   incremental mixed-radix odometer, one pass over the vertex's
//!   configurations per entry, every cost operand resolved through the
//!   table accessors, the argmin tracked inline. The production optimum
//!   must match it bit for bit (cost bits and configuration ids).
//! * [`frontier`] fills every table with the incremental per-entry
//!   frontier loop: per-entry digit decode, per-configuration accessor
//!   reads, and a two-pointer k-way merge per child fold. The production
//!   frontier's min-time point and memory floor must match it at any width,
//!   and at width 0 the whole frontier must be set-identical.
//!
//! Both drivers reuse the production prelude (structure, plans, budget
//! accounting) and backtrack, with the default ordering (GenerateSeq) and
//! exact connected sets; only the table fill differs. They run
//! single-threaded and are meant for tests and the `bench_search` A/B
//! timings, not for serving.

use crate::budget::SearchResult;
use crate::dp::{self, child_coefs, ChildCoef, DpOptions, FillChunk, Plan, Prepared, Table};
use crate::frontier::{backtrack_frontier, thin_frontier, FTable, MergeRun, Pt, StrategyFrontier};
use crate::kernel;
use crate::pool::{Pooled, Scratch};
use pase_cost::CostTables;
use pase_graph::{Graph, GraphError};
use pase_obs::{phase, span_in, OptSpan, Trace};

/// The optimal strategy of `graph` on `tables`, computed by the scalar
/// reference fill. Records the [`pase_obs::phase::SEQUENTIAL_FILL`] span
/// (plus the prelude's structure and plan spans) into `trace` when one is
/// given; `stats.dp_kernel` is `"scalar"`. Panics if the default
/// [`crate::SearchBudget`] cannot hold the tables.
pub fn scalar_search(graph: &Graph, tables: &CostTables, trace: Option<&Trace>) -> SearchResult {
    let Prepared {
        start,
        structure,
        plans,
        mut stats,
        ..
    } = prepare(graph, tables, trace, "scalar");
    let mut fill_span = span_in(trace, phase::SEQUENTIAL_FILL);
    fill_span.arg("tables", plans.len());
    let mut dp: Vec<Option<Pooled<Table>>> = (0..plans.len()).map(|_| None).collect();
    let mut scratch = Scratch::default();
    for (i, plan) in plans.iter().enumerate() {
        let size = plan.size as usize;
        let (mut costs, mut choice) = (vec![0.0; size], vec![0u16; size]);
        fill_chunk_scalar(
            tables,
            plan,
            &child_coefs(&plans, &structure, i),
            &dp,
            &mut scratch,
            &mut FillChunk {
                start: 0,
                costs: &mut costs,
                choice: &mut choice,
            },
        )
        .expect("the reference fill plan is well formed");
        dp[i] = Some(Table { costs, choice }.into());
    }
    drop(fill_span);
    let (cost, config_ids) = dp::backtrack(&structure, &plans, &dp);
    stats.elapsed = start.elapsed();
    SearchResult {
        cost,
        config_ids,
        stats,
    }
}

/// The `(step time × peak memory)` Pareto frontier of `graph` on `tables`,
/// computed by the incremental reference fill with every per-state
/// frontier thinned to `width` points (`0` = exact). Records the
/// [`pase_obs::phase::SEQUENTIAL_FILL`] span into `trace` when one is
/// given. Panics if the default [`crate::SearchBudget`] cannot hold the
/// tables.
pub fn frontier(
    graph: &Graph,
    tables: &CostTables,
    width: usize,
    trace: Option<&Trace>,
) -> StrategyFrontier {
    let Prepared {
        structure, plans, ..
    } = prepare(graph, tables, trace, "frontier");
    let mut fill_span = span_in(trace, phase::SEQUENTIAL_FILL);
    fill_span.arg("tables", plans.len());
    let mut dp: Vec<Option<Pooled<FTable>>> = (0..plans.len()).map(|_| None).collect();
    let mut scratch = EntryScratch::default();
    for (i, plan) in plans.iter().enumerate() {
        let children = child_coefs(&plans, &structure, i);
        let mut table = FTable::default();
        table.offsets.reserve(plan.size as usize + 1);
        table.offsets.push(0);
        for flat in 0..plan.size {
            fill_entry(
                tables,
                plan,
                &children,
                &dp,
                flat,
                width,
                &mut scratch,
                &mut table,
            );
        }
        dp[i] = Some(table.into());
    }
    drop(fill_span);
    StrategyFrontier::new(backtrack_frontier(tables, &structure, &plans, &dp, width))
}

/// The production prelude on the default options; the reference drivers
/// run on the default budget, so a plan-pass abort is a misuse.
fn prepare(
    graph: &Graph,
    tables: &CostTables,
    trace: Option<&Trace>,
    engine: &'static str,
) -> Prepared {
    dp::prepare(graph, tables, &DpOptions::default(), trace, engine)
        .unwrap_or_else(|o| panic!("reference search ended {} before the fill", o.tag()))
}

/// The scalar fill: decodes the first index once, then advances the digit
/// odometer and the child base offsets incrementally, resolving every cost
/// operand per `(entry, config)` pair through the table accessors.
fn fill_chunk_scalar(
    tables: &CostTables,
    plan: &Plan,
    children: &[ChildCoef],
    dp: &[Option<Pooled<Table>>],
    scratch: &mut Scratch,
    chunk: &mut FillChunk<'_>,
) -> Result<(), GraphError> {
    let n_dep = plan.dep.len();
    scratch.digits.clear();
    scratch.digits.resize(n_dep, 0);
    scratch.child_base.clear();
    scratch.child_base.resize(children.len(), 0);

    // Initial digit decode and child base offsets for the chunk's first
    // entry — the only div/mod decode in the whole chunk.
    for t in 0..n_dep {
        scratch.digits[t] = ((chunk.start / plan.strides[t]) % u64::from(plan.radix[t])) as u16;
    }
    for (b, ch) in scratch.child_base.iter_mut().zip(children) {
        *b = ch
            .parent_coef
            .iter()
            .zip(scratch.digits.iter())
            .map(|(&coef, &d)| coef * u64::from(d))
            .sum();
    }

    let vi = plan.vi;
    let kv = plan.kv;
    let len = chunk.costs.len();
    for off in 0..len {
        let mut best = f64::INFINITY;
        let mut best_c = 0u16;
        for c in 0..kv {
            let mut cost = tables.layer_cost(vi, c);
            for &(e, slot, vi_is_src) in &plan.later_edges {
                let w_cfg = scratch.digits[slot];
                cost += if vi_is_src {
                    tables.edge_cost(e, c, w_cfg)
                } else {
                    tables.edge_cost(e, w_cfg, c)
                };
            }
            for (b, ch) in scratch.child_base.iter().zip(children) {
                let idx = b + ch.vi_coef * u64::from(c);
                cost += dp[ch.anchor].as_ref().expect("child table").costs[idx as usize];
            }
            if cost < best {
                best = cost;
                best_c = c;
            }
        }
        chunk.costs[off] = best;
        chunk.choice[off] = best_c;

        if off + 1 == len {
            break;
        }
        // Advance the odometer: bump the last digit; on wrap, carry. Each
        // digit change adjusts every child base by the matching coefficient
        // delta (+coef on increment, −coef·radix on wrap-around).
        let mut t = n_dep;
        loop {
            if t == 0 {
                return Err(kernel::odometer_overflow(plan, chunk.start));
            }
            t -= 1;
            scratch.digits[t] += 1;
            for (b, ch) in scratch.child_base.iter_mut().zip(children) {
                *b += ch.parent_coef[t];
            }
            if u32::from(scratch.digits[t]) < plan.radix[t] {
                break;
            }
            scratch.digits[t] = 0;
            for (b, ch) in scratch.child_base.iter_mut().zip(children) {
                *b -= ch.parent_coef[t] * u64::from(plan.radix[t]);
            }
        }
    }
    Ok(())
}

/// Reusable buffers of the incremental frontier fill. The fold works on
/// flat parallel arrays — coordinates separate from the packed
/// child-choice rows — so the combine/merge/prune loop moves small tuples
/// instead of allocating a `Vec<u32>` per candidate point.
#[derive(Default)]
struct EntryScratch {
    digits: Vec<u16>,
    /// Current partial set for one configuration: `(time, mem)` pairs …
    acc: Vec<(f64, u64)>,
    /// … and, row-parallel, their child choices so far (stride = number
    /// of children folded in).
    acc_kids: Vec<u32>,
    /// Merge buffer, `(time, mem, run index, point index)`, and its double
    /// buffer.
    cand: Vec<(f64, u64, u32, u32)>,
    cand2: Vec<(f64, u64, u32, u32)>,
    /// Double buffer for rebuilding `acc_kids` after a fold stage.
    new_kids: Vec<u32>,
    /// Per-entry result across configurations (kids stride = children).
    result: Vec<Pt>,
    result_kids: Vec<u32>,
    /// Per-configuration `[start, end)` ranges into `result`.
    run_ranges: Vec<(u32, u32)>,
    /// The runs fed to each merge.
    runs: Vec<MergeRun>,
}

/// Compute the frontier of table entry `flat` and append it to `out`.
/// Mirrors the scalar loop's addition order exactly: layer cost, later-edge
/// costs in plan order, then child values in child order.
#[allow(clippy::too_many_arguments)]
fn fill_entry(
    tables: &CostTables,
    plan: &Plan,
    children: &[ChildCoef],
    dp: &[Option<Pooled<FTable>>],
    flat: u64,
    width: usize,
    s: &mut EntryScratch,
    out: &mut FTable,
) {
    s.digits.clear();
    for t in 0..plan.dep.len() {
        s.digits
            .push(((flat / plan.strides[t]) % u64::from(plan.radix[t])) as u16);
    }
    let vi = plan.vi;
    let mem_row = tables.memory_row(vi);
    let n_children = children.len();

    s.result.clear();
    s.result_kids.clear();
    s.run_ranges.clear();
    for c in 0..plan.kv {
        let mut time = tables.layer_cost(vi, c);
        for &(e, slot, vi_is_src) in &plan.later_edges {
            let w_cfg = s.digits[slot];
            time += if vi_is_src {
                tables.edge_cost(e, c, w_cfg)
            } else {
                tables.edge_cost(e, w_cfg, c)
            };
        }
        s.acc.clear();
        s.acc_kids.clear();
        s.acc.push((time, mem_row[c as usize]));
        for (depth, ch) in children.iter().enumerate() {
            let base: u64 = ch
                .parent_coef
                .iter()
                .zip(s.digits.iter())
                .map(|(&coef, &d)| coef * u64::from(d))
                .sum();
            let idx = (base + ch.vi_coef * u64::from(c)) as usize;
            let cf_pts = dp[ch.anchor]
                .as_ref()
                .expect("child frontier")
                .entry_pts(idx);
            // Combine: one run per partial, all over the child's frontier.
            // Run order is acc-major, so the merge's tie-break reproduces
            // the insertion order a materialize-and-stable-sort had.
            s.runs.clear();
            for &(at, am) in s.acc.iter() {
                s.runs.push(MergeRun {
                    bt: at,
                    bm: am,
                    head: 0,
                    end: cf_pts.len() as u32,
                });
            }
            merge_pruned_runs(&s.runs, cf_pts, width, &mut s.cand, &mut s.cand2);
            thin_frontier(&mut s.cand, width);
            // Rebuild the partial set (rows grow by one choice per stage).
            s.new_kids.clear();
            for &(_, _, ai, pi) in &s.cand {
                s.new_kids
                    .extend_from_slice(&s.acc_kids[ai as usize * depth..][..depth]);
                s.new_kids.push(pi);
            }
            std::mem::swap(&mut s.acc_kids, &mut s.new_kids);
            s.acc.clear();
            s.acc.extend(s.cand.iter().map(|&(t, m, _, _)| (t, m)));
        }
        let start = s.result.len() as u32;
        for (i, &(t, m)) in s.acc.iter().enumerate() {
            s.result.push(Pt { time: t, mem: m });
            s.result_kids
                .extend_from_slice(&s.acc_kids[i * n_children..][..n_children]);
        }
        s.run_ranges.push((start, s.result.len() as u32));
    }

    // Final prune across configurations: each configuration's partial set
    // is already a frontier, so this is another pruned merge — run order
    // is configuration-major, matching an index-sort's stable tie-break —
    // collecting surviving indices so the packed kids rows move once.
    s.runs.clear();
    for &(start, end) in &s.run_ranges {
        s.runs.push(MergeRun {
            bt: 0.0,
            bm: 0,
            head: start,
            end,
        });
    }
    merge_pruned_runs(&s.runs, &s.result, width, &mut s.cand, &mut s.cand2);
    thin_frontier(&mut s.cand, width);

    // One run per configuration, so a survivor's run index is its choice.
    for &(_, _, c, i) in &s.cand {
        out.pts.push(s.result[i as usize]);
        out.choice.push(c as u16);
        out.kids
            .extend_from_slice(&s.result_kids[i as usize * n_children..][..n_children]);
    }
    out.offsets.push(out.pts.len() as u32);
}

/// Merge already-pruned runs into the dominance-pruned frontier of their
/// union, leaving `(time, mem, run, point index)` survivors in `m` in
/// exactly the order — including tie-breaking — that a stable
/// `(time, mem)` sort over all materialized candidates (in run-major
/// insertion order) followed by a best-memory sweep would produce: the
/// Pareto set is unique up to exact `(time, mem)` duplicates, which both
/// formulations resolve to the lowest run index.
///
/// The fold is incremental — each run merges into the running frontier
/// `m` — so two properties keep it near-linear in the *surviving* points:
///
/// * **Wholesale rejection.** If some merged point sits at-or-left of the
///   run's first point in time and at-or-below its last point in memory,
///   it dominates every point of the run (time only grows along the run,
///   memory only shrinks to the last), and the run is skipped after one
///   read-only scan.
/// * **Span skipping.** Memory strictly decreases within both inputs of
///   the two-pointer merge, so once a side's next point fails
///   `mem < best` the whole dominated span is skipped with one binary
///   search — those candidates sort later, where the sweep's `best` can
///   only be smaller, so the sweep would drop them too.
fn merge_pruned_runs(
    runs: &[MergeRun],
    pts: &[Pt],
    width: usize,
    m: &mut Vec<(f64, u64, u32, u32)>,
    m2: &mut Vec<(f64, u64, u32, u32)>,
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
        // Contribution scan, read-only: a run point survives the sweep
        // iff the merged prefix at-or-left of it in time (whose last
        // element holds the prefix's minimum memory) does not already
        // match-or-beat its memory. Within the run, earlier points never
        // dominate later ones (memory strictly decreases), so domination
        // can only come from `m` — the scan is exact, and a
        // no-contribution run leaves `m` untouched at zero copy cost.
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
        // Two-pointer merge of `m` and the run, existing points winning
        // exact ties.
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
        // Keep the running frontier within the width cap between runs so
        // later merges copy a bounded set. Thinning keeps index 0 and the
        // last index, and later runs can only improve them, so the global
        // min-time point (bit-parity) and the memory floor stay exact.
        thin_frontier(m, width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::tests::with_threads;
    use crate::frontier::{merge_run_batched, prune_pareto, Cand};
    use crate::Search;
    use pase_cost::{ConfigRule, MachineSpec};
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

    fn chain3() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.add_node(fc("fc1", 0));
        let y = b.add_node(fc("fc2", 1));
        let z = b.add_node(fc("fc3", 1));
        b.connect(x, y);
        b.connect(y, z);
        b.build().unwrap()
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

    #[test]
    fn tiled_search_matches_the_scalar_oracle_bitwise() {
        for g in [chain3(), diamond()] {
            let tables = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
            let oracle = scalar_search(&g, &tables, None);
            assert_eq!(oracle.stats.dp_kernel, "scalar");
            for threads in [1, 4] {
                let tiled = with_threads(threads, || {
                    Search::new(&g).tables(&tables).run().expect_found("tiled")
                });
                assert_eq!(tiled.cost.to_bits(), oracle.cost.to_bits());
                assert_eq!(tiled.config_ids, oracle.config_ids);
                assert_eq!(tiled.stats.dp_kernel, "tiled");
            }
        }
    }

    #[test]
    fn frontier_microkernel_matches_the_incremental_oracle_bitwise() {
        let g = diamond();
        let tables = CostTables::build(&g, ConfigRule::new(8), &MachineSpec::test_machine());
        for width in [0usize, 2, 8] {
            let oracle = frontier(&g, &tables, width, None);
            for threads in [1, 4] {
                let tiled = with_threads(threads, || {
                    Search::new(&g)
                        .tables(&tables)
                        .frontier()
                        .frontier_width(width)
                        .run()
                });
                assert_eq!(
                    tiled.result().expect("tiled").stats.dp_kernel,
                    "frontier-tiled"
                );
                let tf = tiled.frontier().expect("tiled");
                assert_eq!(oracle.len(), tf.len(), "width = {width}");
                for (a, b) in oracle.points().iter().zip(tf.points()) {
                    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
                    assert_eq!(a.memory_bytes, b.memory_bytes);
                    assert_eq!(a.config_ids, b.config_ids);
                }
            }
        }
    }

    #[test]
    fn oracles_solve_the_empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        let tables = CostTables::build(&g, ConfigRule::new(4), &MachineSpec::test_machine());
        let r = scalar_search(&g, &tables, None);
        assert_eq!(r.cost, 0.0);
        assert!(r.config_ids.is_empty());
        let f = frontier(&g, &tables, 8, None);
        assert_eq!(f.len(), 1);
        assert_eq!(f.min_memory_bytes(), 0);
    }

    #[test]
    fn batched_merge_replays_the_incremental_merge() {
        // Four runs over a shared point arena, including an empty run, a
        // non-contributing run, and exact (time, mem) ties; each run is a
        // valid frontier (ascending time, strictly decreasing memory).
        let p = |time: f64, mem: u64| Pt { time, mem };
        let pts = vec![
            // run 0 (base 0, 0)
            p(1.0, 100),
            p(2.0, 50),
            p(5.0, 7),
            // run 1 (base 0.5, 20): lands interleaved with run 0
            p(1.0, 90),
            p(3.0, 5),
            // run 2 (base 0, 0): exact tie with run 0's head, then dominated
            p(1.0, 100),
            p(2.5, 80),
            // run 3 (base 0, 0): fully dominated, contributes nothing
            p(1.5, 120),
            p(6.0, 60),
        ];
        let runs = [
            (0.0, 0u64, 0u32, 3u32),
            (0.5, 20, 3, 5),
            (0.0, 0, 5, 7),
            (0.0, 0, 7, 7), // empty
            (0.0, 0, 7, 9),
        ];
        for width in [0usize, 2, 3, 8] {
            let merge_runs: Vec<MergeRun> = runs
                .iter()
                .map(|&(bt, bm, head, end)| MergeRun { bt, bm, head, end })
                .collect();
            let (mut m, mut m2) = (Vec::new(), Vec::new());
            merge_pruned_runs(&merge_runs, &pts, width, &mut m, &mut m2);
            let (mut bm, mut bm2) = (Vec::new(), Vec::new());
            for (r, &(bt, base_m, head, end)) in runs.iter().enumerate() {
                let run: Vec<Cand> = (head..end)
                    .map(|h| {
                        let pt = &pts[h as usize];
                        (bt + pt.time, base_m + pt.mem, r as u32, h)
                    })
                    .collect();
                merge_run_batched(&mut bm, &mut bm2, &run, width);
            }
            assert_eq!(m, bm, "width = {width}");
        }
    }

    #[test]
    fn prune_pareto_and_the_incremental_merge_agree() {
        // One run per point set: the incremental merge of single-point runs
        // is the sort-and-sweep prune of their union.
        let raw = [(2.0, 5u64), (1.0, 10), (1.0, 10), (3.0, 1), (2.5, 9)];
        let pts: Vec<Pt> = raw.iter().map(|&(time, mem)| Pt { time, mem }).collect();
        let runs: Vec<MergeRun> = (0..pts.len() as u32)
            .map(|h| MergeRun {
                bt: 0.0,
                bm: 0,
                head: h,
                end: h + 1,
            })
            .collect();
        let (mut m, mut m2) = (Vec::new(), Vec::new());
        merge_pruned_runs(&runs, &pts, 0, &mut m, &mut m2);
        let mut sorted = raw.to_vec();
        prune_pareto(&mut sorted, |&(t, m)| (t, m));
        let merged: Vec<(f64, u64)> = m.iter().map(|&(t, mm, _, _)| (t, mm)).collect();
        assert_eq!(merged, sorted);
    }
}
