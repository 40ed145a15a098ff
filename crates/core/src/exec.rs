//! Deterministic parallel execution for the batch pipeline.
//!
//! One primitive with a hard ordering contract: **results come back in
//! input order**, no matter how work was scheduled across threads. That
//! contract is what lets `analyze --threads N` produce output byte-identical
//! to the serial path — every parallel stage is an order-preserving map, and
//! every merge is a deterministic index-ordered concatenation (DESIGN.md
//! §13).
//!
//! [`par_map`] maps over an in-memory `Vec` on a work-stealing pool. Items
//! go into a shared [`Injector`]; each worker drains its local deque first,
//! refills from the injector in batches, and steals from siblings when both
//! are dry. Tagging every item with its index makes the merge trivially
//! deterministic. It falls back to a plain serial loop for `threads <= 1`
//! or trivially small inputs, so the serial pipeline does not pay for
//! thread spawns.

use crossbeam::channel;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};

/// Below this many items a parallel map is all overhead; run serial.
const PAR_MIN_ITEMS: usize = 2;

/// Maps `f` over `items` using `threads` workers, returning results in
/// input order.
///
/// Work is distributed by work stealing: all items start in a shared
/// injector; workers pull batches into local deques and steal from each
/// other when starved, so uneven per-item cost (one chunk full of corrupt
/// lines, one run with thousands of candidate events) cannot idle a core.
///
/// Determinism: `f` is applied exactly once per item and the output vector
/// is assembled by item index, so the result equals
/// `items.into_iter().map(f).collect()` for any thread count — only faster.
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let len = items.len();
    if threads <= 1 || len < PAR_MIN_ITEMS {
        return items.into_iter().map(f).collect();
    }
    let workers = threads.min(len);

    let injector = Injector::new();
    for task in items.into_iter().enumerate() {
        injector.push(task);
    }

    let locals: Vec<Worker<(usize, T)>> = (0..workers).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<(usize, T)>> = locals.iter().map(Worker::stealer).collect();
    let (tx, rx) = channel::unbounded::<(usize, R)>();

    let mut slots: Vec<Option<R>> = Vec::with_capacity(len);
    slots.resize_with(len, || None);

    std::thread::scope(|scope| {
        for (wi, local) in locals.into_iter().enumerate() {
            let tx = tx.clone();
            let injector = &injector;
            let stealers = &stealers;
            let f = &f;
            scope.spawn(move || {
                while let Some((idx, item)) = next_task(&local, injector, stealers, wi) {
                    // The receiver outlives all workers (it is drained in
                    // this scope after the senders drop), so send cannot
                    // fail while work remains.
                    let _ = tx.send((idx, f(item)));
                }
            });
        }
        drop(tx);
        for (idx, result) in rx.iter() {
            slots[idx] = Some(result);
        }
    });

    slots
        .into_iter()
        // lint: allow(no-panic) the scope join above guarantees every slot was filled; a panicking worker has already propagated through the scope
        .map(|r| r.expect("par_map worker dropped a task"))
        .collect()
}

/// One scheduling step: local deque first, then an injector batch, then a
/// sweep over sibling deques. `None` means no task was observable anywhere —
/// with a fixed task population that worker is done (any task it missed is
/// held by the worker that will execute it).
fn next_task<T>(
    local: &Worker<T>,
    injector: &Injector<T>,
    stealers: &[Stealer<T>],
    own_index: usize,
) -> Option<T> {
    if let Some(task) = local.pop() {
        return Some(task);
    }
    loop {
        match injector.steal_batch_and_pop(local) {
            Steal::Success(task) => return Some(task),
            Steal::Retry => continue,
            Steal::Empty => break,
        }
    }
    for (si, stealer) in stealers.iter().enumerate() {
        if si == own_index {
            continue;
        }
        loop {
            match stealer.steal_batch_and_pop(local) {
                Steal::Success(task) => return Some(task),
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
    }
    None
}

/// The worker count to use for "all cores": the machine's available
/// parallelism, with a serial fallback when it cannot be queried.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 4, 8] {
            let items: Vec<u64> = (0..10_000).collect();
            let out = par_map(threads, items.clone(), |x| x * 3 + 1);
            let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_uneven_work() {
        // A few very expensive items early on must not serialize the rest.
        let items: Vec<usize> = (0..256).collect();
        let out = par_map(4, items, |i| {
            let spins = if i < 4 { 200_000 } else { 10 };
            let mut acc = i as u64;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            (i, acc)
        });
        assert_eq!(out.len(), 256);
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    fn par_map_empty_and_tiny() {
        assert_eq!(par_map(8, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(8, vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
