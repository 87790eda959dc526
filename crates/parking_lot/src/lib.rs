//! Offline stand-in for the `parking_lot` crate.
//!
//! Wraps `std::sync` primitives behind parking_lot's panic-free-guard API
//! (`lock()` returns the guard directly; a poisoned lock — a thread
//! panicked while holding it — propagates the panic rather than returning
//! `Err`, matching how this workspace uses parking_lot).
//!
//! Every blocking operation passes through a [`schedule::yield_point`]
//! before touching the underlying primitive: outside a schedule session
//! this is one relaxed atomic load (the production path); inside one, a
//! seeded controller perturbs the interleaving so concurrency tests can
//! explore many schedules deterministically. See [`schedule`].
#![allow(clippy::disallowed_types, reason = "the shim wraps the std locks")]

pub mod schedule;

use std::sync::{self, TryLockError};

/// A mutual-exclusion lock whose `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// Guard for [`Mutex`].
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Create a mutex holding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex { inner: sync::Mutex::new(value) }
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        schedule::yield_point("mutex.lock");
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A readers-writer lock whose `read`/`write` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared guard for [`RwLock`].
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// Exclusive guard for [`RwLock`].
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Create a lock holding `value`.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock { inner: sync::RwLock::new(value) }
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard, blocking.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        schedule::yield_point("rwlock.read");
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire an exclusive write guard, blocking.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        schedule::yield_point("rwlock.write");
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A condition variable matching parking_lot's guard-based API.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Condvar {
        Condvar { inner: sync::Condvar::new() }
    }

    /// Block until notified, atomically releasing the guard.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        schedule::yield_point("condvar.wait");
        // std's API consumes and returns the guard; parking_lot's mutates
        // in place. Bridge via a raw pointer swap-free replace.
        replace_with(guard, |g| self.inner.wait(g).unwrap_or_else(|e| e.into_inner()));
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        schedule::yield_point("condvar.notify");
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        schedule::yield_point("condvar.notify");
        self.inner.notify_all();
    }
}

/// Replace `*slot` through a consuming closure. Aborts the process if the
/// closure panics (the slot would otherwise be left invalid).
fn replace_with<T>(slot: &mut T, f: impl FnOnce(T) -> T) {
    struct AbortOnPanic;
    impl Drop for AbortOnPanic {
        fn drop(&mut self) {
            std::process::abort();
        }
    }
    // SAFETY: `slot` is a valid, exclusively borrowed `T`; the value read
    // out is always written back (or the process aborts before the slot is
    // observable), so no double-drop or use of a moved-out value occurs.
    unsafe {
        let bomb = AbortOnPanic;
        let old = std::ptr::read(slot);
        let new = f(old);
        std::ptr::write(slot, new);
        std::mem::forget(bomb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// These tests pass through yield points, which a schedule session in
    /// a parallel test would record and draw decisions for: hold the
    /// session lock so that no session is running.
    fn outside_any_session() -> sync::MutexGuard<'static, ()> {
        schedule::SESSION.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn mutex_round_trip() {
        let _session = outside_any_session();
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_shared_and_exclusive() {
        let _session = outside_any_session();
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_signals_across_threads() {
        let _session = outside_any_session();
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn poisoned_lock_recovers_value() {
        let _session = outside_any_session();
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
