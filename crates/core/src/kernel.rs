//! The tiled min-plus DP microkernel.
//!
//! The DP combine step (recurrence (4)) is a **min-plus matrix product**:
//! per table entry it minimizes, over the `kv` configurations of the
//! current vertex, a sum of a layer-cost term, one edge-cost term per
//! later neighbor, and one child-table term per connected subset. The
//! scalar reference loop ([`crate::reference`]) re-resolves every operand
//! per `(entry, config)` pair — class indirections, strided edge-matrix gathers, strided
//! child-table gathers, a branchy running argmin. This module restructures
//! the fill the way a GEMM library structures a block:
//!
//! 1. **Pack** — operands that do not change across the *entire vertex
//!    table* are hoisted once per vertex (`pack_vertex`), shared
//!    read-only by every fill chunk of that table: the layer-cost row is
//!    borrowed directly (it is already a contiguous `base[c]` vector);
//!    every edge matrix that the inner loop would read *column-wise* (when
//!    the current vertex is the edge's source, the row over `c` for a
//!    fixed neighbor digit has stride `k_dst`) is transposed into a
//!    panel-major buffer `panel[w·kv + c]` so each neighbor digit selects
//!    a contiguous row; and every child DP table whose current-vertex
//!    digit is not innermost (`vi_coef > 1` — a per-`(entry, config)`
//!    strided gather in the scalar loop) is transposed so the `kv`
//!    configuration costs of each substrategy become one contiguous row,
//!    addressed by re-derived mixed-radix coefficients that the odometer
//!    maintains incrementally just like the original base offsets. Edge
//!    matrices already row-major for our access (current vertex on the
//!    destination side) and child tables with `vi_coef == 1` are used in
//!    place — packing them would be a pure copy with no locality gain.
//! 2. **Tile** — entries are processed in **innermost-digit runs**: the
//!    `radix[last]` consecutive entries over which only the fastest-moving
//!    odometer digit changes. Within a run, every operand that does not
//!    read that digit contributes the *same* row to every entry, so the
//!    longest invariant **prefix** of the summation (layer cost plus
//!    leading constant operands) is summed into a `pre` row once per run
//!    and reused by every entry — bit-exact, because each entry's addition
//!    tree is unchanged, its shared head is merely computed once. The
//!    remaining per-entry passes are fused contiguous slice loops
//!    ([`set_sum`] folds the prefix copy into the first add,
//!    [`add_rows_min`] folds the min reduction into the last, and a single
//!    varying operand skips the accumulator entirely via [`sum_row_min`])
//!    that the autovectorizer turns into SIMD `addpd`/`minpd` — no
//!    `std::simd`, no intrinsics. Odometer carries happen once per run,
//!    not once per entry, and a run with *no* varying operand reduces once
//!    and broadcasts one `(cost, choice)` pair.
//! 3. **Reduce** — the minimum of an accumulated row comes from a
//!    branch-free lane-blocked pass (the fused `*_min` primitives, blocked
//!    by [`LANES`]), and only then is the argmin recovered by a second
//!    cheap equality scan ([`row_argmin`]). Keeping the `best_c`
//!    bookkeeping out of the hot loop removes the loop-carried
//!    compare-and-branch that blocks vectorization of the scalar version.
//!
//! ## Bit-identical contract
//!
//! The tiled fill must produce the same `costs` and `choice` arrays as the
//! scalar reference loop **bit for bit** (asserted against
//! [`crate::reference::scalar_search`] by `tests/kernel_parity.rs` and the
//! bench gate). Two properties make that hold:
//!
//! * every accumulator entry performs the same f64 additions in the same
//!   order as the scalar loop (layer cost, then `later_edges` in order,
//!   then children in order) — only the loop nesting changes, never the
//!   summation order;
//! * `min` over finite values is associative/commutative, so the blocked
//!   reduction returns the same minimum the scalar scan finds, and the
//!   first `c` with `row[c] == min` is exactly the scalar loop's "first
//!   strictly smaller" winner. (NaN costs and `-0.0`-vs-`+0.0` ties are
//!   outside the contract; real cost tables are finite and non-negative.)

use crate::dp::{ChildCoef, FillChunk, Plan, Table};
use crate::pool::Scratch;
use pase_cost::CostTables;
use pase_graph::GraphError;

/// f64 lanes the min reduction is blocked by. Eight doubles span a full
/// AVX-512 register or two AVX2 registers; the compiler maps the fixed
/// `[f64; LANES]` array onto whatever the target has.
pub const LANES: usize = 8;

/// `acc[i] += row[i]` over equal-length slices — the kernel's contiguous
/// accumulate step. The explicit equal-length split lets the
/// autovectorizer drop bounds checks and emit packed adds.
#[inline]
pub fn add_rows(acc: &mut [f64], row: &[f64]) {
    let n = acc.len().min(row.len());
    let (acc, row) = (&mut acc[..n], &row[..n]);
    for i in 0..n {
        acc[i] += row[i];
    }
}

/// `acc[i] += v` — the broadcast accumulate for a child whose dependent
/// set does not contain the current vertex (its cost is constant over the
/// `kv` configurations).
#[inline]
pub fn add_scalar(acc: &mut [f64], v: f64) {
    for a in acc {
        *a += v;
    }
}

/// `acc[i] = base[i] + row[i]` — the fused first accumulate, replacing a
/// `copy_from_slice` followed by [`add_rows`] with a single pass.
#[inline]
pub fn set_sum(acc: &mut [f64], base: &[f64], row: &[f64]) {
    let n = acc.len().min(base.len()).min(row.len());
    let (acc, base, row) = (&mut acc[..n], &base[..n], &row[..n]);
    for i in 0..n {
        acc[i] = base[i] + row[i];
    }
}

/// `acc[i] = base[i] + v` — the fused first accumulate for a broadcast
/// operand.
#[inline]
pub fn set_sum_scalar(acc: &mut [f64], base: &[f64], v: f64) {
    let n = acc.len().min(base.len());
    let (acc, base) = (&mut acc[..n], &base[..n]);
    for i in 0..n {
        acc[i] = base[i] + v;
    }
}

/// `acc[i] += row[i]`, returning the minimum of the *final* values — the
/// fused last accumulate + reduce pass, saving one full re-read of the
/// accumulator. Lane-blocked like [`row_min`]; equal to it on the summed
/// row for any non-NaN input.
#[inline]
pub fn add_rows_min(acc: &mut [f64], row: &[f64]) -> f64 {
    let n = acc.len().min(row.len());
    let (acc, row) = (&mut acc[..n], &row[..n]);
    let mut lanes = [f64::INFINITY; LANES];
    let mut achunks = acc.chunks_exact_mut(LANES);
    let mut rchunks = row.chunks_exact(LANES);
    for (a, r) in (&mut achunks).zip(&mut rchunks) {
        for j in 0..LANES {
            let v = a[j] + r[j];
            a[j] = v;
            if v < lanes[j] {
                lanes[j] = v;
            }
        }
    }
    let mut best = f64::INFINITY;
    for (a, &r) in achunks.into_remainder().iter_mut().zip(rchunks.remainder()) {
        let v = *a + r;
        *a = v;
        if v < best {
            best = v;
        }
    }
    for &v in &lanes {
        if v < best {
            best = v;
        }
    }
    best
}

/// `acc[i] += v`, returning the minimum of the final values — the fused
/// last pass for a broadcast operand.
#[inline]
pub fn add_scalar_min(acc: &mut [f64], v: f64) -> f64 {
    let mut lanes = [f64::INFINITY; LANES];
    let mut achunks = acc.chunks_exact_mut(LANES);
    for a in &mut achunks {
        for j in 0..LANES {
            let s = a[j] + v;
            a[j] = s;
            if s < lanes[j] {
                lanes[j] = s;
            }
        }
    }
    let mut best = f64::INFINITY;
    for a in achunks.into_remainder() {
        let s = *a + v;
        *a = s;
        if s < best {
            best = s;
        }
    }
    for &l in &lanes {
        if l < best {
            best = l;
        }
    }
    best
}

/// Minimum of `base[i] + row[i]` *without materializing* the sums — the
/// single-operand fast path (one edge or one child and nothing else), where
/// writing an accumulator just to reduce it again would double the memory
/// traffic.
#[inline]
pub fn sum_row_min(base: &[f64], row: &[f64]) -> f64 {
    let n = base.len().min(row.len());
    let (base, row) = (&base[..n], &row[..n]);
    let mut lanes = [f64::INFINITY; LANES];
    let mut bchunks = base.chunks_exact(LANES);
    let mut rchunks = row.chunks_exact(LANES);
    for (b, r) in (&mut bchunks).zip(&mut rchunks) {
        for j in 0..LANES {
            let v = b[j] + r[j];
            if v < lanes[j] {
                lanes[j] = v;
            }
        }
    }
    let mut best = f64::INFINITY;
    for (&b, &r) in bchunks.remainder().iter().zip(rchunks.remainder()) {
        let v = b + r;
        if v < best {
            best = v;
        }
    }
    for &v in &lanes {
        if v < best {
            best = v;
        }
    }
    best
}

/// First index where `base[i] + row[i]` equals `min` — argmin recovery for
/// the [`sum_row_min`] fast path, recomputing the (deterministic) sums
/// instead of storing them.
#[inline]
pub fn sum_row_argmin(base: &[f64], row: &[f64], min: f64) -> u16 {
    base.iter()
        .zip(row)
        .position(|(&b, &r)| b + r == min)
        .unwrap_or(0) as u16
}

/// Minimum of `base[i] + v` (single broadcast operand fast path).
#[inline]
pub fn sum_scalar_min(base: &[f64], v: f64) -> f64 {
    let mut lanes = [f64::INFINITY; LANES];
    let mut bchunks = base.chunks_exact(LANES);
    for b in &mut bchunks {
        for j in 0..LANES {
            let s = b[j] + v;
            if s < lanes[j] {
                lanes[j] = s;
            }
        }
    }
    let mut best = f64::INFINITY;
    for &b in bchunks.remainder() {
        let s = b + v;
        if s < best {
            best = s;
        }
    }
    for &l in &lanes {
        if l < best {
            best = l;
        }
    }
    best
}

/// First index where `base[i] + v` equals `min` (companion of
/// [`sum_scalar_min`]).
#[inline]
pub fn sum_scalar_argmin(base: &[f64], v: f64, min: f64) -> u16 {
    base.iter().position(|&b| b + v == min).unwrap_or(0) as u16
}

/// `acc[i] += src[i * stride]` — the strided child-table gather the scalar
/// loop performs when the current vertex's digit is not innermost
/// (`vi_coef > 1`). The tiled kernel *eliminates* this access pattern by
/// transposing such child tables at pack time; the primitive is kept for
/// the A/B microbenchmark, which shows why. `src` must cover
/// `(acc.len() - 1) * stride` elements.
#[inline]
pub fn add_strided(acc: &mut [f64], src: &[f64], stride: usize) {
    for (i, a) in acc.iter_mut().enumerate() {
        *a += src[i * stride];
    }
}

/// Branch-free blocked minimum of a row: [`LANES`] independent running
/// minima over the exact chunks, folded with the scalar remainder at the
/// end. Equals the sequential `min` for any row without NaNs (and ignores
/// NaNs exactly like a `<` scan does).
#[inline]
pub fn row_min(row: &[f64]) -> f64 {
    let mut lanes = [f64::INFINITY; LANES];
    let mut chunks = row.chunks_exact(LANES);
    for ch in &mut chunks {
        for j in 0..LANES {
            if ch[j] < lanes[j] {
                lanes[j] = ch[j];
            }
        }
    }
    let mut best = f64::INFINITY;
    for &v in chunks.remainder() {
        if v < best {
            best = v;
        }
    }
    for &v in &lanes {
        if v < best {
            best = v;
        }
    }
    best
}

/// First index whose value equals `min` — the argmin-recovery pass run
/// *after* [`row_min`], so the hot reduction carries no index bookkeeping.
/// Returns 0 when nothing matches (all-NaN rows, mirroring the scalar
/// loop's untouched initial `best_c`).
#[inline]
pub fn row_argmin(row: &[f64], min: f64) -> u16 {
    row.iter().position(|&v| v == min).unwrap_or(0) as u16
}

/// The scalar per-entry combine the tiled kernel replaces, exposed for the
/// A/B microbenchmark (`benches/kernel.rs`): one pass over the configs,
/// summing `base[c] + Σ rows[r][c]` and tracking the argmin inline.
pub fn scalar_min_add(base: &[f64], rows: &[&[f64]]) -> (f64, u16) {
    let mut best = f64::INFINITY;
    let mut best_c = 0u16;
    for c in 0..base.len() {
        let mut cost = base[c];
        for row in rows {
            cost += row[c];
        }
        if cost < best {
            best = cost;
            best_c = c as u16;
        }
    }
    (best, best_c)
}

/// The packed counterpart for the same microbenchmark, combining the
/// kernel's fused passes exactly as the fill does: one operand avoids the
/// accumulator entirely ([`sum_row_min`]); otherwise the first add fuses
/// the base copy ([`set_sum`]) and the last add fuses the min reduction
/// ([`add_rows_min`]), with the argmin recovered by equality afterwards.
pub fn packed_min_add(acc: &mut [f64], base: &[f64], rows: &[&[f64]]) -> (f64, u16) {
    match rows {
        [] => {
            let best = row_min(base);
            (best, row_argmin(base, best))
        }
        [only] => {
            let best = sum_row_min(base, only);
            (best, sum_row_argmin(base, only, best))
        }
        [first, middle @ .., last] => {
            set_sum(acc, base, first);
            for row in middle {
                add_rows(acc, row);
            }
            let best = add_rows_min(acc, last);
            (best, row_argmin(acc, best))
        }
    }
}

/// Where one later-edge's cost rows live for the tiled kernels (scalar
/// tables here, frontier tables in `crate::frontier` — both share
/// [`pack_edges`]).
pub(crate) enum EdgeRows {
    /// Transposed into the pack's panel at this element offset
    /// (`panel[off + w·kv ..][.. kv]` is the row for neighbor digit `w`).
    Panel(usize),
    /// Used in place: the edge matrix is already row-major over `c` for a
    /// fixed neighbor digit (`mat[w·kv ..][.. kv]`), resolved through
    /// `tables` at fill time.
    Direct(pase_graph::EdgeId),
}

/// Pack one vertex's later-edge matrices (the edge half of [`pack_vertex`],
/// shared with the frontier microkernel): every matrix the inner loop would
/// read column-wise (current vertex on the source side) is transposed into
/// `panel` so each neighbor digit selects a contiguous `kv`-cost row;
/// matrices already row-major for our access are referenced in place.
pub(crate) fn pack_edges(
    tables: &CostTables,
    plan: &Plan,
    panel: &mut Vec<f64>,
    packed_bytes: &mut u64,
) -> Vec<(usize, EdgeRows)> {
    let kv = plan.kv as usize;
    plan.later_edges
        .iter()
        .map(|&(e, slot, vi_is_src)| {
            let rows = if vi_is_src {
                // mat[c·k_dst + w]: the row over c for fixed w is strided.
                // Transpose the whole kw × kv block once per vertex.
                let (mat, k_dst) = tables.edge_cost_matrix(e);
                let kw = plan.radix[slot] as usize;
                debug_assert_eq!(k_dst, kw);
                debug_assert_eq!(mat.len(), kv * kw);
                let off = panel.len();
                panel.reserve(kw * kv);
                for w in 0..kw {
                    panel.extend(mat[w..].iter().step_by(k_dst).take(kv));
                }
                *packed_bytes += (kw * kv * std::mem::size_of::<f64>()) as u64;
                EdgeRows::Panel(off)
            } else {
                EdgeRows::Direct(e)
            };
            (slot, rows)
        })
        .collect()
}

/// Resolve one packed edge's row block for fill time: the panel slice for
/// transposed matrices, the raw (already row-major) matrix otherwise.
pub(crate) fn edge_row_block<'a>(
    tables: &'a CostTables,
    rows: &EdgeRows,
    panel: &'a [f64],
    kv: usize,
) -> &'a [f64] {
    match rows {
        EdgeRows::Panel(off) => &panel[*off..],
        EdgeRows::Direct(e) => {
            let (mat, k_dst) = tables.edge_cost_matrix(*e);
            debug_assert_eq!(k_dst, kv);
            mat
        }
    }
}

/// Where one child table's cost rows live for the tiled kernel.
enum ChildRows {
    /// `vi_coef == 1`: the child's `kv` costs for a substrategy are already
    /// contiguous in the DP table (`costs[b ..][.. kv]`).
    Dp,
    /// Transposed into the pack's panel at this element offset: the row for
    /// substrategy offset `b` is `panel[off + b ..][.. kv]`.
    Panel(usize),
    /// `vi_coef == 0`: the child's dependent set does not contain the
    /// current vertex, so its cost is one scalar per entry, broadcast over
    /// all `kv` configurations.
    Broadcast,
}

/// One child's packed addressing: where its rows live plus the mixed-radix
/// coefficients of the row *offset* in the parent's digits. For
/// [`ChildRows::Dp`] these are the original `parent_coef`; for
/// [`ChildRows::Panel`] they are re-derived for the transposed layout
/// (child stride `s` becomes `s·kv` when `s < vi_coef`, stays `s`
/// otherwise — the mixed-radix strides form a divisibility chain, so every
/// non-`vi` stride is either below `vi_coef` or a multiple of
/// `vi_coef·kv`). Either way the offset is linear in the parent digits, so
/// the odometer maintains it incrementally exactly like a base offset.
pub(crate) struct PackedChild {
    anchor: usize,
    coef: Vec<u64>,
    rows: ChildRows,
}

/// Entry-invariant operands of one vertex's table fill, packed once by
/// [`pack_vertex`] and shared read-only by every [`FillChunk`] of that
/// table. The panel buffer is recycled to the thread pool on drop.
pub(crate) struct PackedVertex {
    panel: Vec<f64>,
    /// Per later-edge: the neighbor's digit slot and its row source.
    edges: Vec<(usize, EdgeRows)>,
    children: Vec<PackedChild>,
    /// Bytes copied into `panel` (the pase-obs `packed_bytes` counter).
    pub(crate) packed_bytes: u64,
}

impl Drop for PackedVertex {
    fn drop(&mut self) {
        crate::pool::recycle_panel(std::mem::take(&mut self.panel));
    }
}

/// Pack one vertex's entry-invariant operands (see the module docs):
/// column-accessed edge matrices and strided child tables are transposed
/// into a panel-major buffer; operands already row-contiguous are
/// referenced in place.
pub(crate) fn pack_vertex(
    tables: &CostTables,
    plan: &Plan,
    children: &[ChildCoef],
    dp: &[Option<Table>],
) -> PackedVertex {
    let kv = plan.kv as usize;
    let mut panel = crate::pool::take_panel();
    let mut packed_bytes = 0u64;

    let edges = pack_edges(tables, plan, &mut panel, &mut packed_bytes);

    let children = children
        .iter()
        .map(|ch| {
            if ch.vi_coef <= 1 {
                PackedChild {
                    anchor: ch.anchor,
                    coef: ch.parent_coef.clone(),
                    rows: if ch.vi_coef == 1 {
                        ChildRows::Dp
                    } else {
                        ChildRows::Broadcast
                    },
                }
            } else {
                // costs[lo + vc·(c + kv·hi)] with lo < vc: transpose so
                // each (hi, lo) substrategy's kv costs are one contiguous
                // row at (lo + vc·hi)·kv.
                let costs = &dp[ch.anchor].as_ref().expect("child table").costs;
                let vc = ch.vi_coef as usize;
                debug_assert_eq!(costs.len() % (vc * kv), 0);
                let off = panel.len();
                panel.reserve(costs.len());
                for block in costs.chunks_exact(vc * kv) {
                    for lo in 0..vc {
                        panel.extend(block[lo..].iter().step_by(vc).take(kv));
                    }
                }
                packed_bytes += (costs.len() * std::mem::size_of::<f64>()) as u64;
                let coef = ch
                    .parent_coef
                    .iter()
                    .map(|&s| if s < ch.vi_coef { s * kv as u64 } else { s })
                    .collect();
                PackedChild {
                    anchor: ch.anchor,
                    coef,
                    rows: ChildRows::Panel(off),
                }
            }
        })
        .collect();

    PackedVertex {
        panel,
        edges,
        children,
        packed_bytes,
    }
}

/// The tiled fill of one chunk over a [`pack_vertex`] pack, processed as
/// **innermost-digit runs** (see the module docs): within one run of the
/// fastest-moving odometer digit, every operand that does not read that
/// digit contributes the *same* row to every entry, so
///
/// * the longest such **invariant prefix** of the summation (layer cost
///   plus leading constant operands) is summed once per run and reused —
///   bit-exact, because each entry's addition tree is unchanged, merely
///   computed once;
/// * a run whose operands are *all* invariant reduces once and broadcasts
///   one `(cost, choice)` over the whole run;
/// * odometer carries happen once per run instead of once per entry.
///
/// Bit-identical to the scalar reference loop in [`crate::reference`];
/// raises the same odometer-overflow error on a malformed plan.
pub(crate) fn fill_chunk_tiled(
    tables: &CostTables,
    plan: &Plan,
    packed: &PackedVertex,
    dp: &[Option<Table>],
    scratch: &mut Scratch,
    chunk: &mut FillChunk<'_>,
) -> Result<(), GraphError> {
    let n_dep = plan.dep.len();
    let kv = plan.kv as usize;
    let len = chunk.costs.len();
    let n_edges = packed.edges.len();
    let n_children = packed.children.len();
    let n_ops = n_edges + n_children;

    let Scratch {
        digits,
        child_base,
        acc,
        pre,
    } = scratch;

    // Initial digit decode and child row offsets for the chunk's first
    // entry — the only div/mod decode in the whole chunk.
    digits.clear();
    digits.resize(n_dep, 0);
    for t in 0..n_dep {
        digits[t] = ((chunk.start / plan.strides[t]) % u64::from(plan.radix[t])) as u16;
    }
    child_base.clear();
    child_base.resize(n_children, 0);
    for (b, ch) in child_base.iter_mut().zip(&packed.children) {
        *b = ch
            .coef
            .iter()
            .zip(digits.iter())
            .map(|(&coef, &d)| coef * u64::from(d))
            .sum();
    }

    // The innermost (fastest-moving) digit defines the run length. A
    // dependency-free table has a single entry — one run of one.
    let last = n_dep.wrapping_sub(1);
    let rlast = if n_dep == 0 {
        1u64
    } else {
        u64::from(plan.radix[last])
    };
    // Per child: how its row offset moves per step of the innermost digit
    // (0 ⇒ the child is invariant within a run).
    let child_step: Vec<u64> = packed
        .children
        .iter()
        .map(|ch| if n_dep == 0 { 0 } else { ch.coef[last] })
        .collect();
    // Strip the innermost-digit contribution out of `child_base`: rows at
    // digit value `d` are addressed as `child_base + child_step·d`, so the
    // running offsets only ever track the outer digits.
    let d0 = if n_dep == 0 {
        0
    } else {
        u64::from(digits[last])
    };
    for (b, step) in child_base.iter_mut().zip(&child_step) {
        *b -= step * d0;
    }

    // Resolve each operand's row storage once per chunk.
    let edge_mats: Vec<&[f64]> = packed
        .edges
        .iter()
        .map(|(_, rows)| edge_row_block(tables, rows, &packed.panel, kv))
        .collect();
    let child_mats: Vec<&[f64]> = packed
        .children
        .iter()
        .map(|ch| match ch.rows {
            ChildRows::Dp | ChildRows::Broadcast => dp[ch.anchor]
                .as_ref()
                .expect("child table")
                .costs
                .as_slice(),
            ChildRows::Panel(off) => &packed.panel[off..],
        })
        .collect();
    let base = tables.layer_cost_row(plan.vi);
    debug_assert_eq!(base.len(), kv);

    // Longest invariant prefix of the summation order (edges first, then
    // children): operands that never read the innermost digit. Their sum is
    // hoisted out of the run's entry loop below.
    let op_varies = |j: usize| -> bool {
        if j < n_edges {
            packed.edges[j].0 == last
        } else {
            child_step[j - n_edges] != 0
        }
    };
    let n_pre = (0..n_ops).take_while(|&j| !op_varies(j)).count();

    acc.clear();
    acc.resize(kv, 0.0);
    pre.clear();
    pre.resize(kv, 0.0);

    let mut off = 0usize;
    // First innermost-digit value of the current run (the chunk may start
    // mid-run; later runs always start at 0).
    let mut d_first = d0;
    while off < len {
        let run = ((rlast - d_first) as usize).min(len - off);

        // Operand `j` at innermost-digit value `d`, in summation order;
        // broadcast children contribute a scalar. Invariant operands ignore
        // `d` and resolve the same row for the whole run.
        let op = |j: usize, d: u64| -> Op<'_> {
            if j < n_edges {
                let (slot, _) = packed.edges[j];
                let w = if slot == last {
                    d as usize
                } else {
                    digits[slot] as usize
                };
                Op::Row(&edge_mats[j][w * kv..][..kv])
            } else {
                let ci = j - n_edges;
                let b = (child_base[ci] + child_step[ci] * d) as usize;
                match packed.children[ci].rows {
                    ChildRows::Broadcast => Op::Scalar(child_mats[ci][b]),
                    _ => Op::Row(&child_mats[ci][b..][..kv]),
                }
            }
        };

        // Hoist the invariant prefix: `pre = base + ops[..n_pre]`, summed
        // once per run. Bit-exact — each entry's addition tree is
        // unchanged, the shared head is merely computed once. An empty
        // prefix aliases the layer-cost row directly.
        let pre_row: &[f64] = if n_pre == 0 {
            base
        } else {
            match op(0, d_first) {
                Op::Row(r) => set_sum(pre, base, r),
                Op::Scalar(v) => set_sum_scalar(pre, base, v),
            }
            for j in 1..n_pre {
                match op(j, d_first) {
                    Op::Row(r) => add_rows(pre, r),
                    Op::Scalar(v) => add_scalar(pre, v),
                }
            }
            pre
        };

        if n_pre == n_ops {
            // Every operand is invariant: the whole run shares one cost
            // row — reduce once, broadcast one (cost, choice) pair.
            let best = row_min(pre_row);
            let best_c = row_argmin(pre_row, best);
            chunk.costs[off..off + run].fill(best);
            chunk.choice[off..off + run].fill(best_c);
        } else if n_ops - n_pre == 1 {
            // One varying operand: fuse sum + min over (pre, row) with no
            // accumulator writes, then recover the argmin by equality.
            for m in 0..run {
                let d = d_first + m as u64;
                let (best, best_c) = match op(n_pre, d) {
                    Op::Row(r) => {
                        let best = sum_row_min(pre_row, r);
                        (best, sum_row_argmin(pre_row, r, best))
                    }
                    Op::Scalar(v) => {
                        let best = sum_scalar_min(pre_row, v);
                        (best, sum_scalar_argmin(pre_row, v, best))
                    }
                };
                chunk.costs[off + m] = best;
                chunk.choice[off + m] = best_c;
            }
        } else {
            // General case: the first varying operand fuses the prefix
            // copy (`set_sum`), the last fuses the min reduction
            // (`add_rows_min`); only then is the argmin recovered.
            for m in 0..run {
                let d = d_first + m as u64;
                match op(n_pre, d) {
                    Op::Row(r) => set_sum(acc, pre_row, r),
                    Op::Scalar(v) => set_sum_scalar(acc, pre_row, v),
                }
                for j in n_pre + 1..n_ops - 1 {
                    match op(j, d) {
                        Op::Row(r) => add_rows(acc, r),
                        Op::Scalar(v) => add_scalar(acc, v),
                    }
                }
                let best = match op(n_ops - 1, d) {
                    Op::Row(r) => add_rows_min(acc, r),
                    Op::Scalar(v) => add_scalar_min(acc, v),
                };
                chunk.costs[off + m] = best;
                chunk.choice[off + m] = row_argmin(acc, best);
            }
        }

        off += run;
        d_first = 0;
        if off < len {
            // Carry out of the innermost digit, once per run: the digit
            // above it increments (`child_base` excludes the innermost
            // contribution, so only the outer digits move).
            let mut t = last;
            loop {
                if t == 0 {
                    return Err(odometer_overflow(plan, chunk.start));
                }
                t -= 1;
                digits[t] += 1;
                for (b, ch) in child_base.iter_mut().zip(&packed.children) {
                    *b += ch.coef[t];
                }
                if u32::from(digits[t]) < plan.radix[t] {
                    break;
                }
                digits[t] = 0;
                for (b, ch) in child_base.iter_mut().zip(&packed.children) {
                    *b -= ch.coef[t] * u64::from(plan.radix[t]);
                }
            }
            digits[last] = 0;
        }
    }
    Ok(())
}

/// One resolved summation operand of one entry: a contiguous `kv`-cost row
/// or a broadcast scalar.
enum Op<'a> {
    Row(&'a [f64]),
    Scalar(f64),
}

/// The error a malformed plan raises when the entry odometer would wrap
/// past the table end (shared with the scalar reference loop — previously
/// a `debug_assert!` that silently wrapped in release builds).
pub(crate) fn odometer_overflow(plan: &Plan, start: u64) -> GraphError {
    GraphError::InvalidNode(format!(
        "DP fill for vertex {:?} overflowed its entry odometer (table size {}, chunk start {}): \
         the fill plan is inconsistent with the table layout",
        plan.vi, plan.size, start
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_min_matches_sequential_scan() {
        // Exercise lengths around the lane width, including ragged tails.
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 84, 210] {
            let row: Vec<f64> = (0..n).map(|i| ((i * 7919 + 13) % 101) as f64).collect();
            let seq = row.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(row_min(&row).to_bits(), seq.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn argmin_recovery_equals_first_strict_improvement() {
        // Ties: the scalar loop keeps the FIRST config attaining the min;
        // equality recovery must agree.
        let row = [5.0, 3.0, 7.0, 3.0, 9.0];
        let min = row_min(&row);
        assert_eq!(min, 3.0);
        assert_eq!(row_argmin(&row, min), 1);
        // All-infinite row: scalar leaves best_c at 0... and the first
        // entry *equals* the (infinite) min, so recovery also yields 0.
        let inf = [f64::INFINITY; 4];
        assert_eq!(row_argmin(&inf, row_min(&inf)), 0);
    }

    #[test]
    fn packed_and_scalar_min_add_agree_bitwise() {
        for k in [3usize, 8, 32, 84, 210] {
            let base: Vec<f64> = (0..k).map(|i| (i % 17) as f64 * 0.5).collect();
            let r1: Vec<f64> = (0..k).map(|i| ((i * 31 + 7) % 23) as f64).collect();
            let r2: Vec<f64> = (0..k).map(|i| ((i * 13 + 3) % 19) as f64 * 0.25).collect();
            let rows = [r1.as_slice(), r2.as_slice()];
            let (sc, sci) = scalar_min_add(&base, &rows);
            let mut acc = vec![0.0; k];
            let (pc, pci) = packed_min_add(&mut acc, &base, &rows);
            assert_eq!(sc.to_bits(), pc.to_bits(), "k = {k}");
            assert_eq!(sci, pci, "k = {k}");
        }
    }

    #[test]
    fn add_strided_gathers_with_stride() {
        let src: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let mut acc = vec![1.0; 4];
        add_strided(&mut acc, &src, 3);
        assert_eq!(acc, vec![1.0, 4.0, 7.0, 10.0]);
    }

    /// Pseudo-random but deterministic test row of length `k`.
    fn test_row(k: usize, seed: usize) -> Vec<f64> {
        (0..k)
            .map(|i| ((i * 31 + seed * 7 + 3) % 97) as f64 * 0.125)
            .collect()
    }

    #[test]
    fn fused_primitives_match_their_unfused_pipelines() {
        // Each fused op must be bitwise-equal to the unfused sequence it
        // replaces (same additions, same blocked min) — including ragged
        // lengths around the LANES = 8 blocking.
        for k in [1usize, 7, 8, 9, 15, 28, 84, 205] {
            let base = test_row(k, 0);
            let r1 = test_row(k, 1);
            let v = 2.75;

            // set_sum == copy + add_rows.
            let mut fused = vec![f64::NAN; k];
            set_sum(&mut fused, &base, &r1);
            let mut plain = base.clone();
            add_rows(&mut plain, &r1);
            assert_eq!(fused, plain, "set_sum k = {k}");

            // set_sum_scalar == copy + add_scalar.
            set_sum_scalar(&mut fused, &base, v);
            let mut plain_s = base.clone();
            add_scalar(&mut plain_s, v);
            assert_eq!(fused, plain_s, "set_sum_scalar k = {k}");

            // add_rows_min == add_rows + row_min (and mutates identically).
            let mut acc = base.clone();
            let fused_min = add_rows_min(&mut acc, &r1);
            assert_eq!(acc, plain, "add_rows_min acc k = {k}");
            assert_eq!(
                fused_min.to_bits(),
                row_min(&plain).to_bits(),
                "add_rows_min min k = {k}"
            );

            // add_scalar_min == add_scalar + row_min.
            let mut acc_s = base.clone();
            let fused_min_s = add_scalar_min(&mut acc_s, v);
            assert_eq!(acc_s, plain_s, "add_scalar_min acc k = {k}");
            assert_eq!(
                fused_min_s.to_bits(),
                row_min(&plain_s).to_bits(),
                "add_scalar_min min k = {k}"
            );

            // sum_row_min / sum_row_argmin == materialize + reduce + recover,
            // with no accumulator at all.
            assert_eq!(
                sum_row_min(&base, &r1).to_bits(),
                row_min(&plain).to_bits(),
                "sum_row_min k = {k}"
            );
            assert_eq!(
                sum_row_argmin(&base, &r1, fused_min),
                row_argmin(&plain, fused_min),
                "sum_row_argmin k = {k}"
            );
            assert_eq!(
                sum_scalar_min(&base, v).to_bits(),
                row_min(&plain_s).to_bits(),
                "sum_scalar_min k = {k}"
            );
            assert_eq!(
                sum_scalar_argmin(&base, v, fused_min_s),
                row_argmin(&plain_s, fused_min_s),
                "sum_scalar_argmin k = {k}"
            );
        }
    }
}
