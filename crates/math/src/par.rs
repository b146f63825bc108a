//! Limb-level parallelism: fans independent per-RNS-limb closures across a
//! shared scoped thread pool, mirroring the paper's PE-group limb
//! partitioning (residues of distinct limbs never interact inside an NTT,
//! element-wise op or BConv target-limb accumulation, §4.2).
//!
//! The worker count comes from the `BTS_THREADS` environment variable
//! (default 1, i.e. fully serial) and can be overridden at runtime with
//! [`set_threads`]. Because every limb task writes a disjoint slice and
//! performs exact integer arithmetic, results are bit-identical for any
//! thread count — determinism is covered by the `thread_determinism`
//! integration test.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Runtime override of the worker count; 0 means "use `BTS_THREADS`".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `BTS_THREADS` parsed once; the variable is read at first use.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// Shared pool, grown (never shrunk) to the largest worker count requested.
static POOL: Mutex<Option<Arc<rayon::ThreadPool>>> = Mutex::new(None);

thread_local! {
    /// Set while executing inside a pool worker so nested fan-outs degrade to
    /// serial execution instead of deadlocking the fixed-size pool.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The number of threads limb fan-outs currently use.
///
/// Resolution order: the [`set_threads`] override if one is active, otherwise
/// the `BTS_THREADS` environment variable (read once), otherwise 1.
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    *ENV_THREADS.get_or_init(|| {
        std::env::var("BTS_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    })
}

/// Overrides the thread count at runtime (e.g. from tests or a driver that
/// wants per-phase control). Passing 0 clears the override, falling back to
/// `BTS_THREADS`.
pub fn set_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

fn pool_with_at_least(workers: usize) -> Arc<rayon::ThreadPool> {
    let mut guard = POOL.lock().expect("pool registry poisoned");
    if let Some(pool) = guard.as_ref() {
        if pool.current_num_threads() >= workers {
            return Arc::clone(pool);
        }
    }
    let pool = Arc::new(
        rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .expect("spawning pool workers"),
    );
    *guard = Some(Arc::clone(&pool));
    pool
}

/// Runs `f(index, item)` for every item, fanning the calls across the shared
/// pool when more than one thread is configured.
///
/// Items are distributed in contiguous index blocks; the calling thread
/// executes the first block itself, so `num_threads() == 1` (the default)
/// never touches the pool and is exactly the serial loop — which walks the
/// iterator in place and allocates nothing; only the fan-out collects its
/// blocks. Outputs must only depend on `(index, item)` — every caller in
/// this crate writes a disjoint `&mut [u64]` limb slice — which makes the
/// result independent of the thread count.
pub fn par_limbs<I, F>(items: I, f: F)
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    F: Fn(usize, I::Item) + Sync,
{
    let items = items.into_iter();
    let len = items.len();
    let threads = num_threads().min(len.max(1));
    if threads <= 1 || IN_WORKER.with(Cell::get) {
        for (j, item) in items.enumerate() {
            f(j, item);
        }
        return;
    }

    // Contiguous blocks: ceil(len / threads) items per task.
    let block = len.div_ceil(threads);
    let mut blocks: Vec<Vec<(usize, I::Item)>> = Vec::with_capacity(threads);
    let mut current = Vec::with_capacity(block);
    for (j, item) in items.enumerate() {
        current.push((j, item));
        if current.len() == block {
            blocks.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        blocks.push(current);
    }

    let pool = pool_with_at_least(threads - 1);
    let f = &f;
    // Workers write telemetry into the caller's sink, not their own.
    let sink = bts_telemetry::current();
    pool.scope(|scope| {
        let mut blocks = blocks.into_iter();
        let first = blocks.next().expect("at least one block");
        for blk in blocks {
            let sink = sink.clone();
            scope.spawn(move || {
                let _sink = sink.map(bts_telemetry::Sink::install);
                IN_WORKER.with(|w| w.set(true));
                for (j, item) in blk {
                    f(j, item);
                }
                IN_WORKER.with(|w| w.set(false));
            });
        }
        // The caller participates instead of idling on the latch.
        for (j, item) in first {
            f(j, item);
        }
    });
}

/// `a` then `b` as one [`ExactSizeIterator`] — what [`par_limbs`] takes and
/// [`Iterator::chain`] is not (its length could overflow). Key-switching
/// fans out over the limbs on either side of a decomposition slice this way.
pub fn chain<A, B>(a: A, b: B) -> Chain<A::IntoIter, B::IntoIter>
where
    A: IntoIterator,
    A::IntoIter: ExactSizeIterator,
    B: IntoIterator<Item = A::Item>,
    B::IntoIter: ExactSizeIterator,
{
    Chain {
        a: a.into_iter(),
        b: b.into_iter(),
    }
}

/// The iterator [`chain`] returns.
#[derive(Debug)]
pub struct Chain<A, B> {
    a: A,
    b: B,
}

impl<A, B> Iterator for Chain<A, B>
where
    A: ExactSizeIterator,
    B: ExactSizeIterator<Item = A::Item>,
{
    type Item = A::Item;

    fn next(&mut self) -> Option<A::Item> {
        self.a.next().or_else(|| self.b.next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.a.len() + self.b.len();
        (len, Some(len))
    }
}

impl<A, B> ExactSizeIterator for Chain<A, B>
where
    A: ExactSizeIterator,
    B: ExactSizeIterator<Item = A::Item>,
{
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_fill_identically() {
        let run = |threads: usize| {
            let mut data = vec![0u64; 64 * 7];
            set_threads(threads);
            par_limbs(data.chunks_exact_mut(64), |j, limb: &mut [u64]| {
                for (c, v) in limb.iter_mut().enumerate() {
                    *v = (j as u64) << 32 | c as u64;
                }
            });
            set_threads(0);
            data
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn nested_fanout_degrades_to_serial() {
        set_threads(2);
        let mut outer = vec![0u64; 4];
        par_limbs(outer.iter_mut(), |j, slot: &mut u64| {
            // A nested fan-out from a worker must not deadlock.
            let mut inner = [0u64; 2];
            par_limbs(inner.iter_mut(), |i, v: &mut u64| {
                *v = (j + i) as u64;
            });
            *slot = inner.iter().sum();
        });
        set_threads(0);
        assert_eq!(outer, vec![1, 3, 5, 7]);
    }

    #[test]
    fn empty_input_is_a_no_op() {
        par_limbs(Vec::<&mut [u64]>::new(), |_, _| unreachable!());
    }

    #[test]
    fn chain_fans_out_over_both_sides() {
        for threads in [1, 3] {
            set_threads(threads);
            let mut data = vec![0u64; 10];
            let (left, right) = data.split_at_mut(4);
            let both = chain(left.iter_mut(), right.iter_mut());
            assert_eq!(both.len(), 10);
            par_limbs(both, |j, v: &mut u64| *v = j as u64);
            set_threads(0);
            assert_eq!(data, (0..10).collect::<Vec<u64>>());
        }
    }
}
