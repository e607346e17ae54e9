//! A minimal, API-compatible stand-in for the `parking_lot` crate, built on
//! `std::sync`. The build environment has no access to crates.io, so the
//! workspace vendors the small slice of the API it actually uses:
//!
//! * [`Mutex`] — `lock()` returns the guard directly (non-poisoning; a
//!   poisoned std lock is recovered transparently).
//!
//! Semantics match `parking_lot` for the patterns used in this workspace:
//! panics while holding a lock do not poison it for other threads. One
//! addition: every actor of a simulation is a coroutine on one OS thread,
//! so a guard alive across a blocking call followed by another actor's
//! `lock()` is a same-thread re-lock — a futex wait nothing can end. In a
//! build with `debug_assertions` (what `cargo test` runs) it panics, naming
//! where the lock is held and where it was asked for; a release build
//! records no owner, because the two stores per lock showed on the
//! benchmark (`smallop_mix` `host_run_s` 1.06x, lower in 1 of 6 pairs).

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering::Relaxed};

/// A mutual-exclusion lock with `parking_lot`'s non-poisoning interface.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    /// [`this_thread`] of the holder, 0 while free. Relaxed throughout: a
    /// thread acts on this value and on `site` only when it reads its own
    /// id, which no other thread stores, and then both are its own stores.
    owner: AtomicUsize,
    /// Where the holder locked.
    site: AtomicPtr<Location<'static>>,
    inner: std::sync::Mutex<T>,
}

/// The lock held: released, and its owner forgotten, on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    owner: &'a AtomicUsize,
    inner: std::sync::MutexGuard<'a, T>,
}

/// A nonzero value no other live thread has: the address of a thread-local.
fn this_thread() -> usize {
    thread_local!(static ME: u8 = const { 0 });
    ME.with(|me| ptr::from_ref(me) as usize)
}

impl<T> Mutex<T> {
    /// Create a new mutex protecting `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            owner: AtomicUsize::new(0),
            site: AtomicPtr::new(ptr::null_mut()),
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking the current thread until it is available.
    /// With `debug_assertions`, panics if the current thread is the one
    /// holding it.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(guard) = self.try_lock() {
            return guard;
        }
        if cfg!(debug_assertions) && self.owner.load(Relaxed) == this_thread() {
            // SAFETY: `site` holds null or a `Location::caller()`, which
            // is `&'static`.
            let held = unsafe { self.site.load(Relaxed).as_ref() };
            panic!(
                "lock() at {} on a mutex this thread locked at {} and still holds",
                Location::caller(),
                held.expect("an owner stores its site first"),
            );
        }
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.held(inner)
    }

    /// Try to acquire the lock without blocking.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(self.held(g)),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(self.held(e.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    #[track_caller]
    fn held<'a>(&'a self, inner: std::sync::MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        if cfg!(debug_assertions) {
            self.site
                .store(ptr::from_ref(Location::caller()).cast_mut(), Relaxed);
            self.owner.store(this_thread(), Relaxed);
        }
        MutexGuard {
            owner: &self.owner,
            inner,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Before `inner` unlocks: the next holder's store must not be the
        // one cleared.
        if cfg!(debug_assertions) {
            self.owner.store(0, Relaxed);
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_second_lock_on_the_holding_thread_panics_with_both_sites() {
        let m = Mutex::new(0);
        let (_held, first) = (m.lock(), line!());
        let (relock, second) = (std::panic::catch_unwind(|| drop(m.lock())), line!());
        let msg = *relock.unwrap_err().downcast::<String>().unwrap();
        let file = file!();
        assert!(
            msg.contains(&format!("lock() at {file}:{second}:"))
                && msg.contains(&format!("locked at {file}:{first}:")),
            "{msg}"
        );
    }

    #[test]
    fn panic_does_not_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 0);
    }
}
