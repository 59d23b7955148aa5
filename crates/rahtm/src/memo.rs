//! A memo table shared by concurrent slice workers that computes each key
//! once.
//!
//! The pipeline's sub-problem and merge caches are looked up from every
//! slice worker at once. A plain get-compute-insert lets two workers miss
//! the same key together and both solve it, so the work done, the cache
//! counters and the fault plan's solve count all depend on scheduling.
//! [`SingleFlight`] makes the first claimant of a missing key compute it
//! while later claimants wait for its value. A claimant that panics
//! releases its claim, and one waiter computes the key instead, so fault
//! injection and slice salvage keep working.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A memo table whose concurrent lookups of one missing key compute it
/// once. A slot holding `None` is claimed and being computed.
pub(crate) struct SingleFlight<K, V> {
    slots: Mutex<HashMap<K, Option<V>>>,
    filled: Condvar,
}

impl<K: Eq + Hash + Clone, V: Clone> SingleFlight<K, V> {
    pub(crate) fn new() -> Self {
        SingleFlight {
            slots: Mutex::new(HashMap::new()),
            filled: Condvar::new(),
        }
    }

    // no critical section below can panic, so a poisoned lock still
    // guards a consistent table
    fn lock(&self) -> MutexGuard<'_, HashMap<K, Option<V>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value of `key` and whether it was already known (a hit). The
    /// first claimant of a missing key runs `compute`; a later claimant
    /// waits for that value and counts as a hit. If `compute` panics, the
    /// claim is released before the panic propagates.
    pub(crate) fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        let mut slots = self.lock();
        loop {
            match slots.get(&key) {
                Some(Some(v)) => return (v.clone(), true),
                Some(None) => {
                    slots = self
                        .filled
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => break,
            }
        }
        slots.insert(key.clone(), None);
        drop(slots);
        let mut claim = Claim {
            table: self,
            key: Some(key),
        };
        let v = compute();
        if let Some(key) = claim.key.take() {
            self.lock().insert(key, Some(v.clone()));
            self.filled.notify_all();
        }
        (v, false)
    }
}

/// An open claim on a key; dropping it unfilled (a panicking `compute`)
/// frees the key for a waiter.
struct Claim<'a, K: Eq + Hash + Clone, V: Clone> {
    table: &'a SingleFlight<K, V>,
    key: Option<K>,
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.table.lock().remove(&key);
            self.table.filled.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    /// The claimant meets the second thread at the barrier inside
    /// `compute` and keeps computing for a while, so the second lookup
    /// lands on the claimed slot.
    #[test]
    fn overlapping_lookups_compute_once() {
        let table = SingleFlight::new();
        let (barrier, computes) = (Barrier::new(2), AtomicUsize::new(0));
        let compute = || {
            computes.fetch_add(1, Ordering::SeqCst);
            barrier.wait();
            std::thread::sleep(Duration::from_millis(50));
            42
        };
        let (first, second) = std::thread::scope(|s| {
            let first = s.spawn(|| table.get_or_compute("k", compute));
            barrier.wait();
            let second = table.get_or_compute("k", || {
                computes.fetch_add(1, Ordering::SeqCst);
                0
            });
            (first.join().expect("claimant"), second)
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
        assert_eq!(first, (42, false));
        assert_eq!(
            second,
            (42, true),
            "the waiter gets the claimant's value as a hit"
        );
    }

    #[test]
    fn panicking_claimant_does_not_block_the_waiter() {
        let table = SingleFlight::new();
        let barrier = Barrier::new(2);
        let (first, second) = std::thread::scope(|s| {
            let first = s.spawn(|| {
                table.get_or_compute("k", || -> i32 {
                    barrier.wait();
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("claimant fails")
                })
            });
            barrier.wait();
            let second = table.get_or_compute("k", || 7);
            (first.join(), second)
        });
        assert!(first.is_err(), "the claimant's panic propagates");
        assert_eq!(second, (7, false), "the waiter computes the released key");
        assert_eq!(table.get_or_compute("k", || 0), (7, true));
    }
}
