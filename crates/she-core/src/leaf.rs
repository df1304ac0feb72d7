//! Leaf mutexes: a thread holds at most one lock at a time.
//!
//! Nothing on the sketch path is shared — each worker owns its shard —
//! so the few locks in the workspace guard registries and logs at the
//! edges of the serving tier, and none is ever taken while another is
//! held. [`LeafMutex`] makes that the rule: in debug and test builds
//! each thread records where it took the lock it holds, and locking a
//! second `LeafMutex` — or the same one again — panics naming both call
//! sites. A nesting that could deadlock under the wrong interleaving
//! therefore fails every time, on the first run, in a single thread.
//! Release builds compile the check out: a `LeafMutex` is then a plain
//! `Mutex`.
//!
//! Poisoning is deliberately ignored (`into_inner` on a poisoned lock):
//! the serving path treats a panicking worker as a shard loss, not a
//! reason to wedge every other thread that shares the lock.
//!
//! A raw `std::sync::Mutex` anywhere else is a clippy `disallowed_types`
//! finding (the workspace `clippy.toml`); this module is the one place
//! that names it.
#![expect(clippy::disallowed_types, reason = "the LeafMutex wrapper is built on std's Mutex")]

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

#[cfg(debug_assertions)]
mod held {
    use std::cell::Cell;
    use std::panic::Location;

    thread_local! {
        /// Where this thread took the `LeafMutex` it holds, if it holds one.
        static HELD: Cell<Option<&'static Location<'static>>> = const { Cell::new(None) };
    }

    /// Record that this thread takes a lock at `at`.
    #[expect(
        clippy::panic,
        reason = "debug-only; this panic IS the feature — a nested acquisition must abort the test deterministically"
    )]
    pub(super) fn take(at: &'static Location<'static>) {
        if let Some(held) = HELD.get() {
            panic!(
                "lock nesting: LeafMutex locked at {at} while this thread holds the one locked at {held}; every LeafMutex is a leaf — release the first guard before taking another"
            );
        }
        HELD.set(Some(at));
    }

    /// Record that this thread released its lock.
    pub(super) fn release() {
        HELD.set(None);
    }
}

/// A [`Mutex`] that is never held together with another. See the
/// module docs.
#[derive(Debug, Default)]
pub struct LeafMutex<T> {
    inner: Mutex<T>,
}

impl<T> LeafMutex<T> {
    /// Wrap `value` in a leaf mutex.
    pub fn new(value: T) -> Self {
        LeafMutex { inner: Mutex::new(value) }
    }

    /// Acquire the lock, recovering from poisoning. Panics in debug and
    /// test builds if this thread already holds a `LeafMutex`.
    #[track_caller]
    pub fn lock(&self) -> LeafGuard<'_, T> {
        #[cfg(debug_assertions)]
        held::take(std::panic::Location::caller());
        let guard = self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        LeafGuard { guard: Some(guard) }
    }
}

/// RAII guard returned by [`LeafMutex::lock`]; frees this thread's lock
/// slot when dropped.
#[derive(Debug)]
pub struct LeafGuard<'a, T> {
    /// `Some` until the guard is consumed by [`LeafGuard::wait_timeout`]
    /// (which re-wraps) or dropped.
    guard: Option<MutexGuard<'a, T>>,
}

impl<'a, T> LeafGuard<'a, T> {
    /// Block on `cvar` with a timeout, releasing and re-acquiring the
    /// underlying mutex exactly like [`Condvar::wait_timeout`]. Returns
    /// the re-acquired guard and whether the wait timed out. The thread
    /// keeps its lock slot across the wait: it is blocked, so it cannot
    /// take anything else meanwhile, and on wake it holds the same lock
    /// again.
    pub fn wait_timeout(mut self, cvar: &Condvar, dur: Duration) -> (Self, bool) {
        #[expect(
            clippy::unreachable,
            reason = "guard is Some for every reachable caller — only wait_timeout itself takes it, and it always restores"
        )]
        let guard =
            self.guard.take().unwrap_or_else(|| unreachable!("LeafGuard inner guard taken"));
        let (guard, result) = match cvar.wait_timeout(guard, dur) {
            Ok((g, r)) => (g, r.timed_out()),
            Err(poisoned) => {
                let (g, r) = poisoned.into_inner();
                (g, r.timed_out())
            }
        };
        self.guard = Some(guard);
        (self, result)
    }
}

impl<'a, T> Deref for LeafGuard<'a, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.guard {
            Some(g) => g,
            #[expect(clippy::unreachable, reason = "structurally impossible — see wait_timeout")]
            None => unreachable!("LeafGuard dereferenced while empty"),
        }
    }
}

impl<'a, T> DerefMut for LeafGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.guard {
            Some(g) => g,
            #[expect(clippy::unreachable, reason = "structurally impossible — see wait_timeout")]
            None => unreachable!("LeafGuard dereferenced while empty"),
        }
    }
}

impl<'a, T> Drop for LeafGuard<'a, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The message `f` panics with; fails the test if it returns.
    #[cfg(debug_assertions)]
    fn panic_message(f: impl FnOnce()) -> String {
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("must panic");
        payload.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    /// `file:line:` of a call site on `line` of this file, as a panic
    /// message quotes it.
    #[cfg(debug_assertions)]
    fn site(line: u32) -> String {
        format!("{}:{line}:", file!())
    }

    #[test]
    fn lock_and_mutate() {
        let m = LeafMutex::new(0u64);
        *m.lock() += 41;
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn sequential_lock_and_unlock_is_fine() {
        let (a, b) = (LeafMutex::new(()), LeafMutex::new(()));
        drop(a.lock());
        drop(b.lock());
        drop(a.lock());
        let g = b.lock();
        drop(g);
        drop(a.lock());
    }

    #[test]
    #[cfg(debug_assertions)]
    fn nesting_two_leaf_mutexes_panics_in_either_order_naming_both_sites() {
        let (a, b) = (LeafMutex::new(1u8), LeafMutex::new(2u8));
        for (outer, inner) in [(&a, &b), (&b, &a)] {
            let held_at = line!() + 1;
            let held = outer.lock();
            let nested_at = line!() + 1;
            let msg = panic_message(|| drop(inner.lock()));
            assert!(msg.starts_with("lock nesting"), "{msg}");
            assert!(msg.contains(&site(held_at)), "{msg} must name the held lock's site");
            assert!(msg.contains(&site(nested_at)), "{msg} must name the nested lock's site");
            drop(held);
            // The refused lock took nothing: the slot is free again.
            drop(inner.lock());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn relocking_the_same_mutex_panics_instead_of_deadlocking() {
        let m = LeafMutex::new(0u32);
        let held_at = line!() + 1;
        let _held = m.lock();
        let msg = panic_message(|| drop(m.lock()));
        assert!(msg.contains(&site(held_at)), "{msg}");
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(LeafMutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn wait_timeout_keeps_the_slot_across_the_wait() {
        let (m, other) = (LeafMutex::new(0u32), LeafMutex::new(()));
        let cvar = Condvar::new();
        let (g, timed_out) = m.lock().wait_timeout(&cvar, Duration::from_millis(5));
        assert!(timed_out);
        assert_eq!(*g, 0);
        #[cfg(debug_assertions)]
        assert!(panic_message(|| drop(other.lock())).starts_with("lock nesting"));
        drop(g);
        // Dropping the re-acquired guard frees the slot.
        drop(other.lock());
        drop(m.lock());
    }
}
