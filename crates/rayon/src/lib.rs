//! Vendored stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! provides the small parallel-iterator surface the workspace uses:
//! `par_iter()` / `into_par_iter()` on slices and `Vec`s, `map`, and an
//! order-preserving `collect` (including `collect::<Result<_, _>>()`).
//!
//! Work is executed eagerly on `std::thread::scope` threads pulling from
//! a shared index-tagged queue, so outputs keep their input order and a
//! panic in any closure propagates to the caller.  Experiment fan-outs in
//! this workspace are coarse-grained (each item is a whole simulation
//! run), so queue overhead is irrelevant.
//!
//! The thread count defaults to the machine's available parallelism and
//! can be pinned with `RAYON_NUM_THREADS` (upstream-compatible) or
//! `EUCON_THREADS`.

#![warn(missing_docs)]

use std::sync::Mutex;

/// What `use rayon::prelude::*` is expected to bring into scope.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

/// Number of worker threads used by parallel iterators.
///
/// `RAYON_NUM_THREADS` (or `EUCON_THREADS`) overrides the default of the
/// machine's available parallelism.
pub fn current_num_threads() -> usize {
    for var in ["RAYON_NUM_THREADS", "EUCON_THREADS"] {
        if let Some(n) = std::env::var(var)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Conversion into a parallel iterator (mirrors rayon's trait of the same
/// name).
pub trait IntoParallelIterator {
    /// The type of items yielded.
    type Item: Send;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

/// `par_iter()` on borrowed collections (mirrors rayon's
/// `IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'a> {
    /// The type of borrowed items yielded.
    type Item: Send + 'a;

    /// Returns a parallel iterator over borrowed items.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a [T] {
    type Item = &'a T;

    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;

    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// A parallel iterator over an already-materialized item list.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Applies `f` to every item on a pool of scoped threads, preserving
    /// input order in the output.
    pub fn map<O: Send, F: Fn(T) -> O + Sync>(self, f: F) -> ParIter<O> {
        ParIter {
            items: par_map(self.items, None, f),
        }
    }

    /// Collects the (ordered) results; `FromIterator` gives `Vec`,
    /// `Result<Vec<_>, E>`, etc. for free.
    pub fn collect<B: FromIterator<T>>(self) -> B {
        self.items.into_iter().collect()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the iterator is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Maps `items` on a pool of work-stealing scoped threads, preserving
/// input order in the output.
///
/// `threads` overrides the pool size (`None` falls back to
/// [`current_num_threads`]); fleets that must reproduce bit-identical
/// results across pool sizes pass it explicitly rather than racing on
/// process-wide environment variables. With one thread (or one item)
/// everything runs sequentially on the caller's thread — no spawn, same
/// item order.
pub fn par_map<T, O, F>(items: Vec<T>, threads: Option<usize>, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    let n = items.len();
    let threads = threads.unwrap_or_else(current_num_threads).max(1).min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Index-tagged work queue; slots collect results in input order.
    let queue: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().rev().collect());
    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = queue.lock().expect("work queue poisoned").pop();
                match next {
                    Some((i, item)) => {
                        *slots[i].lock().expect("result slot poisoned") = Some(f(item));
                    }
                    None => break,
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every queued item produces a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_consumes() {
        let v = vec![String::from("a"), String::from("bb"), String::from("ccc")];
        let out: Vec<usize> = v.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn collects_results_short_circuit_style() {
        let v: Vec<i32> = (0..100).collect();
        let ok: Result<Vec<i32>, String> = v.par_iter().map(|&x| Ok(x + 1)).collect();
        assert_eq!(ok.unwrap().len(), 100);
        let err: Result<Vec<i32>, String> = v
            .par_iter()
            .map(|&x| {
                if x == 50 {
                    Err(format!("boom {x}"))
                } else {
                    Ok(x)
                }
            })
            .collect();
        assert_eq!(err.unwrap_err(), "boom 50");
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<i32> = Vec::new();
        let out: Vec<i32> = empty.into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
        let one: Vec<i32> = vec![7].into_par_iter().map(|x| x * 3).collect();
        assert_eq!(one, vec![21]);
    }

    #[test]
    fn range_fan_out() {
        let squares: Vec<usize> = (0usize..16).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares[15], 225);
    }

    #[test]
    fn par_map_matches_sequential_across_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1usize, 2, 8] {
            let out = crate::par_map(items.clone(), Some(threads), |x| x * x + 1);
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_input() {
        let out: Vec<i32> = crate::par_map(Vec::<i32>::new(), Some(8), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let v: Vec<i32> = (0..8).collect();
            let _: Vec<i32> = v
                .par_iter()
                .map(|&x| {
                    if x == 3 {
                        panic!("worker died");
                    }
                    x
                })
                .collect();
        });
        assert!(result.is_err());
    }
}
