//! Thread-local buffer pools for the DP hot path.
//!
//! Every search allocates one `(Vec<f64>, Vec<u16>)` pair per DP table plus
//! per-thread odometer scratch. A standalone search pays that once, but the
//! planner service runs many small searches per second on a fixed worker
//! pool — the same sizes over and over — so the allocations are pure churn.
//! These pools recycle the buffers per thread: a serve worker's second
//! request on a model reuses its first request's tables.
//!
//! Reuse is bounded and safe:
//! * table buffers are handed out zero-filled via `clear()` + `resize(…, 0)`
//!   — content-identical to a fresh `vec![0; n]`, no `unsafe`;
//! * only buffers of at most [`MAX_POOLED_ENTRIES`] entries are retained,
//!   and at most [`MAX_POOLED_TABLES`] of them, so a worker thread never
//!   pins more than ~26 MiB (the Transformer-p64-class giants are freed
//!   normally);
//! * pools are `thread_local!`, so there is no locking and no cross-thread
//!   aliasing.

use crate::frontier::{FTable, FrontierScratch};
use std::cell::RefCell;

/// Per-thread scratch buffers for the table-fill loop, grown on demand to
/// the widest dependent set / child list a chunk needs. The last two
/// fields are the tiled kernel's working set (see `crate::kernel`): one
/// `kv`-wide accumulator row and one `kv`-wide hoisted-prefix row. The
/// scalar reference loop (`crate::reference`) leaves them empty. (The
/// packed operand *panels* are not per-chunk scratch — they are packed
/// once per vertex and shared by all of its chunks; see [`take_panel`].)
#[derive(Default)]
pub(crate) struct Scratch {
    pub(crate) digits: Vec<u16>,
    pub(crate) child_base: Vec<u64>,
    /// The fused min-plus accumulator row (`kv` wide).
    pub(crate) acc: Vec<f64>,
    /// The hoisted invariant-prefix row (`kv` wide): layer cost plus every
    /// leading operand that is constant within an innermost-digit run,
    /// summed once per run instead of once per entry.
    pub(crate) pre: Vec<f64>,
}

/// Retain at most this many `(costs, choice)` pairs per thread.
const MAX_POOLED_TABLES: usize = 32;

/// Do not retain kernel panel/accumulator scratch above this element count
/// (2 MiB of `f64`): panels scale with `Σ kw·kv` over packed edges plus the
/// transposed child tables, and a one-off giant vertex must not pin its
/// high-water mark on the thread.
const MAX_POOLED_PANEL: usize = 1 << 18;

/// Do not retain buffers above this capacity (entries): 2^18 entries is
/// 2 MiB of `f64` + 0.5 MiB of `u16`, so the per-thread high-water mark is
/// bounded at `MAX_POOLED_TABLES × 2.5 MiB`.
const MAX_POOLED_ENTRIES: usize = 1 << 18;

thread_local! {
    static SCRATCH: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
    static TABLES: RefCell<Vec<(Vec<f64>, Vec<u16>)>> = const { RefCell::new(Vec::new()) };
    static PANELS: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
    static MEM_PANELS: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
    static FRONTIER_SCRATCH: RefCell<Vec<FrontierScratch>> = const { RefCell::new(Vec::new()) };
    static FRONTIER_TABLES: RefCell<Vec<FTable>> = const { RefCell::new(Vec::new()) };
}

/// Take an empty panel buffer for the tiled kernel's per-vertex operand
/// pack (recycled from this thread's pool when available).
pub(crate) fn take_panel() -> Vec<f64> {
    PANELS
        .with(|pool| pool.borrow_mut().pop())
        .map(|mut p| {
            p.clear();
            p
        })
        .unwrap_or_default()
}

/// Return a panel buffer to this thread's pool. Oversized (above
/// [`MAX_POOLED_PANEL`] elements) or surplus buffers are freed instead.
pub(crate) fn recycle_panel(panel: Vec<f64>) {
    if panel.capacity() > MAX_POOLED_PANEL {
        return;
    }
    PANELS.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < MAX_POOLED_TABLES {
            pool.push(panel);
        }
    });
}

/// A pooled [`Scratch`] that returns itself to the thread's pool on drop.
pub(crate) struct PooledScratch(Scratch);

impl std::ops::Deref for PooledScratch {
    type Target = Scratch;
    fn deref(&self) -> &Scratch {
        &self.0
    }
}

impl std::ops::DerefMut for PooledScratch {
    fn deref_mut(&mut self) -> &mut Scratch {
        &mut self.0
    }
}

impl Drop for PooledScratch {
    fn drop(&mut self) {
        let mut s = std::mem::take(&mut self.0);
        if s.acc.capacity() > MAX_POOLED_PANEL {
            s.acc = Vec::new();
        }
        if s.pre.capacity() > MAX_POOLED_PANEL {
            s.pre = Vec::new();
        }
        SCRATCH.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < MAX_POOLED_TABLES {
                pool.push(s);
            }
        });
    }
}

/// Take a scratch buffer from this thread's pool (or a fresh one).
pub(crate) fn take_scratch() -> PooledScratch {
    PooledScratch(
        SCRATCH
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_default(),
    )
}

/// Take a zero-filled `(costs, choice)` pair of length `size` — recycled
/// from this thread's pool when a buffer is available, freshly allocated
/// otherwise. Content is identical to `(vec![0.0; size], vec![0; size])`.
pub(crate) fn take_table(size: usize) -> (Vec<f64>, Vec<u16>) {
    let pooled = TABLES.with(|pool| pool.borrow_mut().pop());
    match pooled {
        Some((mut costs, mut choice)) => {
            costs.clear();
            costs.resize(size, 0.0);
            choice.clear();
            choice.resize(size, 0);
            (costs, choice)
        }
        None => (vec![0.0; size], vec![0; size]),
    }
}

/// Return a `(costs, choice)` pair to this thread's pool. Oversized or
/// surplus buffers are dropped (freed) instead of retained.
pub(crate) fn recycle_table(costs: Vec<f64>, choice: Vec<u16>) {
    if costs.capacity() > MAX_POOLED_ENTRIES {
        return;
    }
    TABLES.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < MAX_POOLED_TABLES {
            pool.push((costs, choice));
        }
    });
}

/// Take an empty `u64` panel for the frontier microkernel's packed
/// memory rows (the memory-side companion of [`take_panel`]).
pub(crate) fn take_mem_panel() -> Vec<u64> {
    MEM_PANELS
        .with(|pool| pool.borrow_mut().pop())
        .map(|mut p| {
            p.clear();
            p
        })
        .unwrap_or_default()
}

/// Return a memory panel to this thread's pool, under the same
/// [`MAX_POOLED_PANEL`] element cap as the `f64` panels.
pub(crate) fn recycle_mem_panel(panel: Vec<u64>) {
    if panel.capacity() > MAX_POOLED_PANEL {
        return;
    }
    MEM_PANELS.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < MAX_POOLED_TABLES {
            pool.push(panel);
        }
    });
}

/// A pooled [`FrontierScratch`] that returns itself to the thread's pool
/// on drop, shedding any buffer grown past [`MAX_POOLED_PANEL`] elements
/// first (the frontier fill's arenas scale with `kv × width`, but a
/// width-0 exact search can grow them arbitrarily).
pub(crate) struct PooledFrontierScratch(FrontierScratch);

impl std::ops::Deref for PooledFrontierScratch {
    type Target = FrontierScratch;
    fn deref(&self) -> &FrontierScratch {
        &self.0
    }
}

impl std::ops::DerefMut for PooledFrontierScratch {
    fn deref_mut(&mut self) -> &mut FrontierScratch {
        &mut self.0
    }
}

impl Drop for PooledFrontierScratch {
    fn drop(&mut self) {
        let mut s = std::mem::take(&mut self.0);
        s.shed_oversized(MAX_POOLED_PANEL);
        FRONTIER_SCRATCH.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < MAX_POOLED_TABLES {
                pool.push(s);
            }
        });
    }
}

/// Take a frontier-fill scratch from this thread's pool (or a fresh one).
pub(crate) fn take_frontier_scratch() -> PooledFrontierScratch {
    PooledFrontierScratch(
        FRONTIER_SCRATCH
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_default(),
    )
}

/// Take an empty frontier table primed for `n` entries — recycled
/// capacity when available, with the offsets sentinel already pushed.
pub(crate) fn take_ftable(n: usize) -> FTable {
    let mut t = FRONTIER_TABLES
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    t.reset(n);
    t
}

/// Return a frontier table's buffers to this thread's pool. Oversized
/// (above [`MAX_POOLED_ENTRIES`] points) or surplus tables are freed.
pub(crate) fn recycle_ftable(t: FTable) {
    if t.pts.capacity() > MAX_POOLED_ENTRIES
        || t.kids.capacity() > MAX_POOLED_ENTRIES
        || t.offsets.capacity() > MAX_POOLED_ENTRIES
    {
        return;
    }
    FRONTIER_TABLES.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < MAX_POOLED_TABLES {
            pool.push(t);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_tables_come_back_zeroed() {
        let (mut costs, mut choice) = take_table(8);
        costs.fill(7.5);
        choice.fill(3);
        recycle_table(costs, choice);
        let (costs, choice) = take_table(16);
        assert_eq!(costs.len(), 16);
        assert_eq!(choice.len(), 16);
        assert!(costs.iter().all(|&c| c == 0.0));
        assert!(choice.iter().all(|&c| c == 0));
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        recycle_table(
            vec![0.0; MAX_POOLED_ENTRIES + 1],
            vec![0; MAX_POOLED_ENTRIES + 1],
        );
        TABLES.with(|pool| {
            assert!(pool
                .borrow()
                .iter()
                .all(|(c, _)| c.capacity() <= MAX_POOLED_ENTRIES));
        });
    }

    #[test]
    fn pool_size_is_bounded() {
        for _ in 0..3 * MAX_POOLED_TABLES {
            recycle_table(vec![0.0; 4], vec![0; 4]);
        }
        TABLES.with(|pool| assert!(pool.borrow().len() <= MAX_POOLED_TABLES));
        for _ in 0..3 * MAX_POOLED_TABLES {
            let _ = take_scratch();
        }
        SCRATCH.with(|pool| assert!(pool.borrow().len() <= MAX_POOLED_TABLES));
    }

    #[test]
    fn oversized_panels_are_dropped_on_recycle() {
        {
            let mut s = take_scratch();
            s.acc.resize(MAX_POOLED_PANEL + 1, 0.0);
        } // dropped → pooled, but with the giant accumulator released
        SCRATCH.with(|pool| {
            assert!(pool
                .borrow()
                .iter()
                .all(|s| s.acc.capacity() <= MAX_POOLED_PANEL));
        });
        recycle_panel(vec![0.0; MAX_POOLED_PANEL + 1]);
        PANELS.with(|pool| {
            assert!(pool
                .borrow()
                .iter()
                .all(|p| p.capacity() <= MAX_POOLED_PANEL));
        });
    }

    #[test]
    fn panels_round_trip_and_come_back_empty() {
        let mut p = take_panel();
        p.extend_from_slice(&[1.0, 2.0, 3.0]);
        recycle_panel(p);
        let p = take_panel();
        assert!(p.is_empty(), "recycled panels must be cleared");
        for _ in 0..3 * MAX_POOLED_TABLES {
            recycle_panel(vec![0.0; 4]);
        }
        PANELS.with(|pool| assert!(pool.borrow().len() <= MAX_POOLED_TABLES));
    }

    #[test]
    fn frontier_buffers_round_trip_through_the_pool() {
        let mut t = take_ftable(4);
        assert_eq!(t.offsets, vec![0u32]);
        t.pts.reserve(8);
        recycle_ftable(t);
        let t2 = take_ftable(2);
        assert_eq!(t2.offsets, vec![0u32]);
        assert!(t2.pts.is_empty() && t2.kids.is_empty());
        recycle_ftable(t2);
        for _ in 0..3 * MAX_POOLED_TABLES {
            let _ = take_frontier_scratch();
        }
        FRONTIER_SCRATCH.with(|pool| assert!(pool.borrow().len() <= MAX_POOLED_TABLES));
        recycle_mem_panel(vec![0; MAX_POOLED_PANEL + 1]);
        MEM_PANELS.with(|pool| {
            assert!(pool
                .borrow()
                .iter()
                .all(|p| p.capacity() <= MAX_POOLED_PANEL));
        });
        let mut p = take_mem_panel();
        p.push(7);
        recycle_mem_panel(p);
        assert!(
            take_mem_panel().is_empty(),
            "recycled mem panels are cleared"
        );
    }

    #[test]
    fn scratch_round_trips_through_the_pool() {
        {
            let mut s = take_scratch();
            s.digits.resize(5, 1);
            s.child_base.resize(5, 2);
        } // dropped → pooled
        let s = take_scratch();
        // Capacity may be reused; the DP clears before use, so content is
        // irrelevant — only that we got a scratch at all.
        let _ = (s.digits.capacity(), s.child_base.capacity());
    }
}
