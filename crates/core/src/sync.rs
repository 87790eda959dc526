//! Schedule-aware channels: thin wrappers over [`std::sync::mpsc`] whose
//! operations pass through [`parking_lot::schedule::yield_point`] before
//! delegating.
//!
//! The fleet's concurrency protocol is built on exactly three channel
//! shapes — the per-shard command queue (`channel`), one-shot reply /
//! acknowledgment channels (`sync_channel(1)`), and nothing else — and
//! its correctness arguments (the quiesce barrier, journal replay,
//! drain-on-shutdown) are all statements about the *order* of channel
//! operations relative to lock operations. Routing every send and
//! receive through a yield point puts those orderings under the seeded
//! schedule controller's control, so `tests/schedule_exploration.rs`
//! can drive the fleet through thousands of distinct interleavings
//! deterministically. Outside a schedule session each yield point is a
//! single relaxed atomic load.
//!
//! The API mirrors the `std::sync::mpsc` subset the workspace uses;
//! error types are re-exported unchanged so callers keep `std`'s
//! recovery idioms (e.g. taking the unsent value back out of a
//! [`SendError`]). One addition: [`Sender::send_best_effort`], the
//! sanctioned fire-and-forget send for shutdown and fault-injection
//! paths where a gone receiver is an expected state, not an error to
//! handle (the `channel-protocol` lint rule flags bare discarded
//! `send`s; this names the intent instead of suppressing the finding).
//! The bounded [`SyncSender`] has the same method; its one user is the
//! serve daemon's one-shot report (`sync_channel(1)`), which the command
//! that stops the engine sends best-effort once the drain is done.

use parking_lot::schedule;
use std::sync::mpsc;
use std::time::Duration;

pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};

/// The asynchronous (unbounded) sending half — [`mpsc::Sender`] with a
/// schedule yield point on every operation.
#[derive(Debug)]
pub struct Sender<T>(mpsc::Sender<T>);

/// The bounded sending half — [`mpsc::SyncSender`] with a schedule
/// yield point on every operation. A `send` on a full channel blocks.
#[derive(Debug)]
pub struct SyncSender<T>(mpsc::SyncSender<T>);

/// The receiving half — [`mpsc::Receiver`] with a schedule yield point
/// on every operation.
#[derive(Debug)]
pub struct Receiver<T>(mpsc::Receiver<T>);

/// Create an unbounded schedule-aware channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    (Sender(tx), Receiver(rx))
}

/// Create a bounded schedule-aware channel: sends block once `bound`
/// values are buffered (`bound == 1` is the fleet's one-shot reply
/// shape).
pub fn sync_channel<T>(bound: usize) -> (SyncSender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::sync_channel(bound);
    (SyncSender(tx), Receiver(rx))
}

impl<T> Sender<T> {
    /// Send a value; fails iff the receiver is gone, returning it.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        schedule::yield_point("chan.send");
        self.0.send(value)
    }

    /// Fire-and-forget send for teardown paths: returns whether the
    /// value was accepted. A `false` means the receiver is already gone
    /// — on a shutdown or deliberate-crash path that is the expected
    /// outcome, not a fault, so there is no `Result` to propagate.
    pub fn send_best_effort(&self, value: T) -> bool {
        schedule::yield_point("chan.send");
        self.0.send(value).is_ok()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        Sender(self.0.clone())
    }
}

impl<T> SyncSender<T> {
    /// Send a value, blocking while the channel is full; fails iff the
    /// receiver is gone, returning the value.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        schedule::yield_point("chan.send_bounded");
        self.0.send(value)
    }

    /// Send without blocking: fails if the channel is full or the
    /// receiver is gone.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        schedule::yield_point("chan.try_send");
        self.0.try_send(value)
    }

    /// [`Sender::send_best_effort`] for the bounded shape: blocks while
    /// the channel is full, and returns whether the value was accepted
    /// (`false` iff the receiver is gone).
    pub fn send_best_effort(&self, value: T) -> bool {
        schedule::yield_point("chan.send_bounded");
        self.0.send(value).is_ok()
    }
}

impl<T> Clone for SyncSender<T> {
    fn clone(&self) -> SyncSender<T> {
        SyncSender(self.0.clone())
    }
}

impl<T> Receiver<T> {
    /// Receive a value, blocking; fails iff every sender is gone and
    /// the buffer is drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        schedule::yield_point("chan.recv");
        self.0.recv()
    }

    /// Receive without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        schedule::yield_point("chan.try_recv");
        self.0.try_recv()
    }

    /// Receive a value, blocking for at most `timeout`. A value buffered
    /// before the last sender went away is still delivered;
    /// `Disconnected` means gone *and* drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        schedule::yield_point("chan.recv_timeout");
        self.0.recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_round_trip_and_disconnect() {
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        tx.clone().send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_error_returns_the_value() {
        let (tx, rx) = channel();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
        assert!(!tx.send_best_effort(8), "gone receiver is a clean false");
    }

    #[test]
    fn sync_channel_bounds_and_replies() {
        let (tx, rx) = sync_channel(1);
        tx.send(1).unwrap();
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        assert_eq!(rx.recv(), Ok(1));
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert!(tx.send_best_effort(3), "room in the channel: accepted");
        drop(rx);
        assert!(!tx.send_best_effort(4), "gone receiver is a clean false");
    }

    #[test]
    fn recv_timeout_returns_a_value_a_timeout_or_a_disconnect() {
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(1));
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
        // A value sent before the last sender went away comes out first.
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(2));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn recv_timeout_wakes_for_a_value_sent_while_it_waits() {
        let (tx, rx) = sync_channel(0);
        // A rendezvous channel: `send` returns only once the receiver
        // below is inside `recv_timeout`, so the wake-up is forced, not
        // raced.
        let sender = std::thread::spawn(move || tx.send(9));
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(9));
        sender.join().unwrap().unwrap();
    }

    #[test]
    fn operations_are_visible_to_the_schedule_controller() {
        let guard = parking_lot::schedule::begin(11, 16);
        let (tx, rx) = channel();
        tx.send(5).unwrap();
        let _ = rx.recv();
        let _ = rx.recv_timeout(Duration::from_millis(1));
        let trace = guard.finish();
        let sites: Vec<&str> = trace.iter().map(|s| s.site).collect();
        assert!(sites.contains(&"chan.send"), "{sites:?}");
        assert!(sites.contains(&"chan.recv"), "{sites:?}");
        assert!(sites.contains(&"chan.recv_timeout"), "{sites:?}");
    }
}
