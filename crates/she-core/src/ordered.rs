//! Rank-checked mutexes: deadlocks become deterministic panics.
//!
//! Every lock in the serving crates is an [`OrderedMutex`] constructed
//! with a name whose rank lives in the committed `audit-locks.toml`
//! manifest at the workspace root (embedded here at compile time). In
//! debug and test builds each thread tracks the ranks it holds; locking
//! a mutex whose rank is not **strictly greater** than everything
//! already held panics immediately with both lock names — so any
//! acquisition order that *could* deadlock under the wrong interleaving
//! fails every time, on the first run, in a single thread. Release
//! builds compile the checks out entirely: an `OrderedMutex` is then a
//! plain `Mutex` plus one `&'static str`.
//!
//! Poisoning is deliberately ignored (`into_inner` on a poisoned lock):
//! the serving path treats a panicking worker as a shard loss, not a
//! reason to wedge every other thread that shares the lock.
//!
//! The static half of the contract — every name in the manifest, no raw
//! `Mutex::new` in policed crates, no duplicate ranks — is enforced by
//! `she audit`'s lock-order rule.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

#[cfg(debug_assertions)]
mod ranks {
    use std::collections::HashMap;
    use std::sync::OnceLock;

    const MANIFEST: &str =
        include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../audit-locks.toml"));

    /// Parse the `[locks]` table: `name = rank` lines, `#` comments.
    /// Invalid manifest lines panic at first use — the manifest is a
    /// committed file, and `she audit` parses it strictly too.
    fn table() -> &'static HashMap<&'static str, u16> {
        static TABLE: OnceLock<HashMap<&'static str, u16>> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut map = HashMap::new();
            let mut in_locks = false;
            for raw in MANIFEST.lines() {
                let line = raw.split('#').next().unwrap_or("").trim();
                if line.is_empty() {
                    continue;
                }
                if let Some(section) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                    in_locks = section.trim() == "locks";
                    continue;
                }
                if !in_locks {
                    continue;
                }
                if let Some((name, rank)) = line.split_once('=') {
                    if let Ok(rank) = rank.trim().parse::<u16>() {
                        map.insert(name.trim(), rank);
                    }
                }
            }
            map
        })
    }

    pub(super) fn rank_of(name: &'static str) -> u16 {
        match table().get(name) {
            Some(&rank) => rank,
            #[expect(
                clippy::panic,
                reason = "debug-only; an unregistered lock name is a build bug the first test run must surface"
            )]
            None => panic!("OrderedMutex name {name:?} has no rank in audit-locks.toml"),
        }
    }

    thread_local! {
        /// Stack of (rank, name) this thread currently holds, in
        /// acquisition order (strictly increasing by construction).
        pub(super) static HELD: std::cell::RefCell<Vec<(u16, &'static str)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    pub(super) fn push(rank: u16, name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(top_rank, top_name)) = held.last() {
                #[expect(
                    clippy::panic,
                    reason = "debug-only; this panic IS the feature — a lock-order inversion must abort the test deterministically"
                )]
                if rank <= top_rank {
                    panic!(
                        "lock-order violation: acquiring {name:?} (rank {rank}) while holding {top_name:?} (rank {top_rank}); ranks must strictly increase — see audit-locks.toml"
                    );
                }
            }
            held.push((rank, name));
        });
    }

    pub(super) fn pop(rank: u16) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(at) = held.iter().rposition(|&(r, _)| r == rank) {
                held.remove(at);
            }
        });
    }
}

/// A named, rank-checked [`Mutex`]. See the module docs.
#[derive(Debug, Default)]
pub struct OrderedMutex<T> {
    name: &'static str,
    inner: Mutex<T>, // audit:allow(lock): this is the OrderedMutex wrapper itself
}

impl<T> OrderedMutex<T> {
    /// Wrap `value` in a mutex named `name`. The name must have a rank
    /// in `audit-locks.toml` (checked on first lock in debug builds,
    /// and statically by `she audit`).
    pub fn new(name: &'static str, value: T) -> Self {
        OrderedMutex { name, inner: Mutex::new(value) } // audit:allow(lock): wrapper internals
    }

    /// The manifest name this mutex was constructed with.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquire the lock, recovering from poisoning. Panics in debug and
    /// test builds if this thread already holds a lock of equal or
    /// higher rank.
    pub fn lock(&self) -> OrderedGuard<'_, T> {
        #[cfg(debug_assertions)]
        let rank = {
            let rank = ranks::rank_of(self.name);
            ranks::push(rank, self.name);
            rank
        };
        let guard = self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        OrderedGuard {
            guard: Some(guard),
            #[cfg(debug_assertions)]
            rank,
        }
    }
}

/// RAII guard returned by [`OrderedMutex::lock`]; releases the rank slot
/// when dropped.
#[derive(Debug)]
pub struct OrderedGuard<'a, T> {
    /// `Some` until the guard is consumed by [`OrderedGuard::wait_timeout`]
    /// (which re-wraps) or dropped.
    guard: Option<MutexGuard<'a, T>>,
    #[cfg(debug_assertions)]
    rank: u16,
}

impl<'a, T> OrderedGuard<'a, T> {
    /// Block on `cvar` with a timeout, releasing and re-acquiring the
    /// underlying mutex exactly like [`Condvar::wait_timeout`]. Returns
    /// the re-acquired guard and whether the wait timed out. The rank
    /// stays on this thread's held-stack across the wait: the thread is
    /// blocked, so it cannot acquire anything else meanwhile, and on
    /// wake it holds the same lock again.
    pub fn wait_timeout(mut self, cvar: &Condvar, dur: Duration) -> (Self, bool) {
        #[expect(
            clippy::unreachable,
            reason = "guard is Some for every reachable caller — only wait_timeout itself takes it, and it always restores"
        )]
        let guard =
            self.guard.take().unwrap_or_else(|| unreachable!("OrderedGuard inner guard taken"));
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

impl<'a, T> Deref for OrderedGuard<'a, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.guard {
            Some(g) => g,
            #[expect(clippy::unreachable, reason = "structurally impossible — see wait_timeout")]
            None => unreachable!("OrderedGuard dereferenced while empty"),
        }
    }
}

impl<'a, T> DerefMut for OrderedGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.guard {
            Some(g) => g,
            #[expect(clippy::unreachable, reason = "structurally impossible — see wait_timeout")]
            None => unreachable!("OrderedGuard dereferenced while empty"),
        }
    }
}

impl<'a, T> Drop for OrderedGuard<'a, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        ranks::pop(self.rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = OrderedMutex::new("cluster-map", 0u64);
        *m.lock() += 41;
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.name(), "cluster-map");
    }

    #[test]
    fn increasing_rank_order_is_fine() {
        let log = OrderedMutex::new("repl-log", ());
        let map = OrderedMutex::new("cluster-map", ());
        let rng = OrderedMutex::new("chaos-rng", ());
        let _a = log.lock(); // rank 10
        let _b = map.lock(); // rank 30
        let _c = rng.lock(); // rank 60
    }

    #[test]
    fn sequential_reacquisition_is_fine() {
        let map = OrderedMutex::new("cluster-map", ());
        drop(map.lock());
        drop(map.lock());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn out_of_rank_acquisition_panics_deterministically() {
        let rng = OrderedMutex::new("chaos-rng", ()); // rank 60
        let log = OrderedMutex::new("repl-log", ()); // rank 10
        let _high = rng.lock();
        let _low = log.lock(); // must abort: 10 <= 60
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn equal_rank_nesting_panics() {
        let a = OrderedMutex::new("cluster-map", ());
        let b = OrderedMutex::new("cluster-map", ());
        let _a = a.lock();
        let _b = b.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "no rank in audit-locks.toml")]
    fn unknown_name_panics() {
        let m = OrderedMutex::new("never-in-the-manifest", ());
        let _g = m.lock();
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(OrderedMutex::new("repl-log", 7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn wait_timeout_releases_and_reacquires() {
        let m = OrderedMutex::new("repl-log", 0u32);
        let cvar = Condvar::new();
        let g = m.lock();
        let (g, timed_out) = g.wait_timeout(&cvar, Duration::from_millis(5));
        assert!(timed_out);
        assert_eq!(*g, 0);
        drop(g);
        // The rank slot must be free again: a lower-or-equal rank lock
        // in fresh sequence succeeds.
        drop(m.lock());
    }
}
