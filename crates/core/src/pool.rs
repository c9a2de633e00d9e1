//! Thread-local buffer pools for the DP hot path.
//!
//! Every search allocates one buffer set per DP table plus per-thread fill
//! scratch and per-vertex operand panels. A standalone search pays that
//! once, but the planner service runs many small searches per second on a
//! fixed worker pool — the same sizes over and over — so the allocations
//! are pure churn. These pools recycle the buffers per thread: a serve
//! worker's second request on a model reuses its first request's tables.
//!
//! One mechanism serves every pooled type: a type implements [`Poolable`]
//! (its thread-local free list, a reset hook, and a shed hook), and
//! [`Pooled::take`] hands out a guard that returns the value to its free
//! list on drop. Reuse is bounded and safe:
//! * a recycled value is [`Poolable::reset`] before reuse (vectors come
//!   back empty, so a `resize(…, 0)` is content-identical to a fresh
//!   `vec![0; n]`) — no `unsafe`;
//! * [`Poolable::shed`] releases any buffer grown past its cap
//!   ([`MAX_POOLED_ENTRIES`] table entries, [`MAX_POOLED_PANEL`] panel or
//!   scratch elements) and at most [`MAX_POOLED_TABLES`] values are kept
//!   per type, so a worker thread never pins a one-off giant;
//! * pools are `thread_local!`, so there is no locking and no cross-thread
//!   aliasing.

use std::cell::RefCell;
use std::thread::LocalKey;

/// Retain at most this many values per pooled type per thread.
const MAX_POOLED_TABLES: usize = 32;

/// Do not retain kernel panel/accumulator scratch above this element count
/// (2 MiB of `f64`): panels scale with `Σ kw·kv` over packed edges plus the
/// transposed child tables, and a one-off giant vertex must not pin its
/// high-water mark on the thread.
pub(crate) const MAX_POOLED_PANEL: usize = 1 << 18;

/// Do not retain tables above this capacity (entries, or frontier points):
/// 2^18 entries is 2 MiB of `f64` + 0.5 MiB of `u16`, so the per-thread
/// high-water mark is bounded at `MAX_POOLED_TABLES × 2.5 MiB`.
pub(crate) const MAX_POOLED_ENTRIES: usize = 1 << 18;

/// A type recycled through a thread-local pool (see the module docs).
pub(crate) trait Poolable: Default + 'static {
    /// This type's thread-local free list (declared by [`free_list!`]).
    fn free_list() -> &'static LocalKey<RefCell<Vec<Self>>>;
    /// Prepare a value for its next user.
    fn reset(&mut self);
    /// Release buffers grown past their cap before pooling; `false` frees
    /// the whole value instead.
    fn shed(&mut self) -> bool;
}

/// Declare the thread-local free list of a [`Poolable`] impl.
macro_rules! free_list {
    ($t:ty) => {
        fn free_list() -> &'static std::thread::LocalKey<std::cell::RefCell<Vec<$t>>> {
            thread_local! {
                static FREE: std::cell::RefCell<Vec<$t>> =
                    const { std::cell::RefCell::new(Vec::new()) };
            }
            &FREE
        }
    };
}
pub(crate) use free_list;

/// Free `v`'s buffer if its capacity exceeds `cap`.
pub(crate) fn shed_vec<T>(v: &mut Vec<T>, cap: usize) {
    if v.capacity() > cap {
        *v = Vec::new();
    }
}

/// A pooled value: derefs to `T` and returns it to this thread's pool on
/// drop.
pub(crate) struct Pooled<T: Poolable>(T);

impl<T: Poolable> Pooled<T> {
    /// Take a reset value from this thread's pool (or a fresh one).
    pub(crate) fn take() -> Self {
        let mut v = T::free_list()
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_default();
        v.reset();
        Self(v)
    }
}

impl<T: Poolable> From<T> for Pooled<T> {
    /// Adopt a value built elsewhere; it joins the pool on drop.
    fn from(v: T) -> Self {
        Self(v)
    }
}

impl<T: Poolable> std::ops::Deref for Pooled<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Poolable> std::ops::DerefMut for Pooled<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: Poolable> Drop for Pooled<T> {
    fn drop(&mut self) {
        let mut v = std::mem::take(&mut self.0);
        if v.shed() {
            T::free_list().with(|pool| {
                let mut pool = pool.borrow_mut();
                if pool.len() < MAX_POOLED_TABLES {
                    pool.push(v);
                }
            });
        }
    }
}

/// Per-thread scratch buffers for the table-fill loop, grown on demand to
/// the widest dependent set / child list a chunk needs. The last two
/// fields are the tiled kernel's working set (see `crate::kernel`): one
/// `kv`-wide accumulator row and one `kv`-wide hoisted-prefix row. The
/// scalar reference loop (`crate::reference`) leaves them empty. (The
/// packed operand *panels* are not per-chunk scratch — they are packed
/// once per vertex and shared by all of its chunks.)
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

impl Poolable for Scratch {
    free_list!(Scratch);
    /// The fill clears what it uses, so content is irrelevant.
    fn reset(&mut self) {}
    fn shed(&mut self) -> bool {
        shed_vec(&mut self.acc, MAX_POOLED_PANEL);
        shed_vec(&mut self.pre, MAX_POOLED_PANEL);
        true
    }
}

/// Operand panels: `f64` time rows for both kernels, `u64` memory rows for
/// the frontier microkernel.
macro_rules! panel_poolable {
    ($($t:ty),*) => {$(
        impl Poolable for Vec<$t> {
            free_list!(Vec<$t>);
            fn reset(&mut self) {
                self.clear();
            }
            fn shed(&mut self) -> bool {
                self.capacity() <= MAX_POOLED_PANEL
            }
        }
    )*};
}
panel_poolable!(f64, u64);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::Table;
    use crate::frontier::{FTable, FrontierScratch};

    fn pooled_len<T: Poolable>() -> usize {
        T::free_list().with(|pool| pool.borrow().len())
    }

    #[test]
    fn recycled_tables_come_back_zeroed() {
        let mut t = Pooled::<Table>::take();
        t.costs.resize(8, 7.5);
        t.choice.resize(8, 3);
        drop(t);
        let mut t = Pooled::<Table>::take();
        t.costs.resize(16, 0.0);
        t.choice.resize(16, 0);
        assert_eq!(t.costs.len(), 16);
        assert_eq!(t.choice.len(), 16);
        assert!(t.costs.iter().all(|&c| c == 0.0));
        assert!(t.choice.iter().all(|&c| c == 0));
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let mut t = Pooled::<Table>::take();
        t.costs = vec![0.0; MAX_POOLED_ENTRIES + 1];
        t.choice = vec![0; MAX_POOLED_ENTRIES + 1];
        drop(t);
        Table::free_list().with(|pool| {
            assert!(pool
                .borrow()
                .iter()
                .all(|t| t.costs.capacity() <= MAX_POOLED_ENTRIES));
        });
    }

    #[test]
    fn pool_size_is_bounded() {
        let tables: Vec<Pooled<Table>> = (0..3 * MAX_POOLED_TABLES)
            .map(|_| Pooled::from(Table::default()))
            .collect();
        drop(tables);
        assert!(pooled_len::<Table>() <= MAX_POOLED_TABLES);
        let scratch: Vec<Pooled<Scratch>> =
            (0..3 * MAX_POOLED_TABLES).map(|_| Pooled::take()).collect();
        drop(scratch);
        assert!(pooled_len::<Scratch>() <= MAX_POOLED_TABLES);
    }

    #[test]
    fn oversized_panels_are_dropped_on_recycle() {
        {
            let mut s = Pooled::<Scratch>::take();
            s.acc.resize(MAX_POOLED_PANEL + 1, 0.0);
        } // dropped → pooled, but with the giant accumulator released
        Scratch::free_list().with(|pool| {
            assert!(pool
                .borrow()
                .iter()
                .all(|s| s.acc.capacity() <= MAX_POOLED_PANEL));
        });
        drop(Pooled::from(vec![0.0f64; MAX_POOLED_PANEL + 1]));
        Vec::<f64>::free_list().with(|pool| {
            assert!(pool
                .borrow()
                .iter()
                .all(|p| p.capacity() <= MAX_POOLED_PANEL));
        });
    }

    #[test]
    fn panels_round_trip_and_come_back_empty() {
        let mut p = Pooled::<Vec<f64>>::take();
        p.extend_from_slice(&[1.0, 2.0, 3.0]);
        drop(p);
        let p = Pooled::<Vec<f64>>::take();
        assert!(p.is_empty(), "recycled panels must be cleared");
        let panels: Vec<Pooled<Vec<f64>>> = (0..3 * MAX_POOLED_TABLES)
            .map(|_| Pooled::from(vec![0.0; 4]))
            .collect();
        drop(panels);
        assert!(pooled_len::<Vec<f64>>() <= MAX_POOLED_TABLES);
    }

    #[test]
    fn frontier_buffers_round_trip_through_the_pool() {
        let mut t = Pooled::<FTable>::take();
        assert_eq!(t.offsets, vec![0u32]);
        t.pts.reserve(8);
        drop(t);
        let t2 = Pooled::<FTable>::take();
        assert_eq!(t2.offsets, vec![0u32]);
        assert!(t2.pts.is_empty() && t2.kids.is_empty());
        drop(t2);
        let scratch: Vec<Pooled<FrontierScratch>> =
            (0..3 * MAX_POOLED_TABLES).map(|_| Pooled::take()).collect();
        drop(scratch);
        assert!(pooled_len::<FrontierScratch>() <= MAX_POOLED_TABLES);
        drop(Pooled::from(vec![0u64; MAX_POOLED_PANEL + 1]));
        Vec::<u64>::free_list().with(|pool| {
            assert!(pool
                .borrow()
                .iter()
                .all(|p| p.capacity() <= MAX_POOLED_PANEL));
        });
        let mut p = Pooled::<Vec<u64>>::take();
        p.push(7);
        drop(p);
        assert!(
            Pooled::<Vec<u64>>::take().is_empty(),
            "recycled mem panels are cleared"
        );
    }

    #[test]
    fn scratch_round_trips_through_the_pool() {
        {
            let mut s = Pooled::<Scratch>::take();
            s.digits.resize(5, 1);
            s.child_base.resize(5, 2);
        } // dropped → pooled
        let s = Pooled::<Scratch>::take();
        // Capacity may be reused; the DP clears before use, so content is
        // irrelevant — only that we got a scratch at all.
        let _ = (s.digits.capacity(), s.child_base.capacity());
    }
}
