//! A minimal, API-compatible stand-in for the `parking_lot` crate's
//! [`Mutex`], for a program whose simulation runs on one OS thread. The build
//! environment has no access to crates.io, so the workspace vendors the small
//! slice of the API it uses: `Mutex::{new, lock, try_lock, get_mut}`, with
//! `lock()` returning the guard directly (non-poisoning).
//!
//! Every actor of a simulation is a coroutine on the one OS thread inside
//! `SimKernel::run`, so no lock here is ever contended and none needs a futex
//! or a locked instruction. A [`Mutex`] is a single-thread lock cell: the
//! first thread that locks it claims it, with one compare-and-swap in the
//! cell's life, and from then on a lock is a plain load of the owner compared
//! with this thread's id, and a plain flag. Another thread's `lock` panics
//! before it touches the value (its `try_lock` answers `None`), so state that
//! really crosses threads keeps the standard library's mutex.
//!
//! A second `lock` on the owning thread while a guard is alive — a guard held
//! across a blocking call, then another actor's `lock()` — is a wait nothing
//! could end. It panics instead, in every build, naming where the lock is
//! held and where it was asked for. A panic under a guard does not poison the
//! cell: the guard's drop frees it on the way out.

#![warn(missing_docs)]

use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::panic::{Location, RefUnwindSafe, UnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// A mutual-exclusion cell with `parking_lot`'s non-poisoning interface,
/// serving the one thread that first locks it.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    /// [`this_thread`] of the thread that claimed the cell, 0 until one has.
    /// Stored once, by the claim's compare-and-swap; every other access is a
    /// load. `Relaxed` is enough: a thread acts on `held` and `value` only
    /// when it reads its own id here, and then every earlier access to them
    /// was its own.
    owner: AtomicUsize,
    /// Where the live guard was taken; `None` while the cell is free. Read
    /// and written by the owner only.
    held: Cell<Option<&'static Location<'static>>>,
    value: UnsafeCell<T>,
}

// SAFETY: a shared `Mutex` hands out `held` and `value` only on the thread
// that claimed it, and only to one guard at a time (`lock` and `try_lock`
// check `owner`, then `held`), so no two threads ever touch them through it.
// The value may still be used on a thread other than the one that made it,
// hence `T: Send`.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T: ?Sized> UnwindSafe for Mutex<T> {}
impl<T: ?Sized> RefUnwindSafe for Mutex<T> {}

/// The lock held: released on drop. It stays on its cell's thread:
///
/// ```compile_fail
/// fn send<T: Send>(_: T) {}
/// let m = parking_lot::Mutex::new(0);
/// send(m.lock());
/// ```
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    _not_send: PhantomData<*const ()>,
}

/// A nonzero id no other thread of the process ever has.
#[inline]
fn this_thread() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    thread_local!(static ME: Cell<usize> = const { Cell::new(0) });
    ME.with(|me| match me.get() {
        0 => {
            let id = NEXT.fetch_add(1, Relaxed);
            me.set(id);
            id
        }
        id => id,
    })
}

impl<T> Mutex<T> {
    /// Create a new mutex protecting `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            owner: AtomicUsize::new(0),
            held: Cell::new(None),
            value: UnsafeCell::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock. Panics if the current thread holds it already, or
    /// if another thread claimed the cell.
    #[inline]
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if !self.owned_here() {
            panic!(
                "lock() at {} on a mutex another thread owns: a lock cell serves \
                 the one thread that locked it first",
                Location::caller()
            );
        }
        if let Some(site) = self.held.get() {
            panic!(
                "lock() at {} on a mutex this thread locked at {site} and still holds",
                Location::caller()
            );
        }
        self.guard()
    }

    /// Try to acquire the lock without blocking: `None` while a guard is
    /// alive, or when another thread claimed the cell.
    #[inline]
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        (self.owned_here() && self.held.get().is_none()).then(|| self.guard())
    }

    /// Whether this thread may use the cell: it claimed it before, or it
    /// claims it now.
    #[inline]
    fn owned_here(&self) -> bool {
        let me = this_thread();
        let owner = self.owner.load(Relaxed);
        owner == me
            || (owner == 0 && (self.owner.compare_exchange(0, me, Relaxed, Relaxed)).is_ok())
    }

    /// Hold the cell; the caller checked it may.
    #[inline]
    #[track_caller]
    fn guard(&self) -> MutexGuard<'_, T> {
        self.held.set(Some(Location::caller()));
        MutexGuard {
            lock: self,
            _not_send: PhantomData,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.held.set(None);
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: this guard is the one holder, on the owning thread.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, and `&mut self` makes this the only view.
        unsafe { &mut *self.lock.value.get() }
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

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
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
        assert!(m.try_lock().is_none());
    }

    #[test]
    fn a_lock_from_a_second_thread_panics_and_leaves_the_value() {
        let m = Mutex::new(7);
        *m.lock() += 1;
        std::thread::scope(|s| {
            let (other, line) = (s.spawn(|| *m.lock() = 0), line!());
            let msg = *other.join().unwrap_err().downcast::<String>().unwrap();
            assert!(
                msg.contains(&format!("lock() at {}:{line}:", file!()))
                    && msg.contains("another thread owns"),
                "{msg}"
            );
            assert!(s.spawn(|| m.try_lock().is_none()).join().unwrap());
        });
        assert_eq!(*m.lock(), 8);
    }

    #[test]
    fn panic_does_not_poison() {
        let m = Mutex::new(0);
        let panicked = std::panic::catch_unwind(|| {
            let mut g = m.lock();
            *g = 1;
            panic!("poison attempt");
        });
        assert!(panicked.is_err());
        assert_eq!(*m.lock(), 1);
    }
}
