//! Per-session bounded outbound queue with drop-oldest overflow and
//! credit-based flow control.
//!
//! The invariant that makes a slow client harmless: the engine
//! only ever *pushes* here — push never blocks and never allocates
//! beyond the configured bound, so ingest throughput is independent of
//! any client's read speed. Frames come in two classes:
//!
//! - **droppable** (detection pushes): bounded by `capacity`; overflow
//!   evicts the oldest droppable frame and counts it, and the writer
//!   inserts a `Lagged{missed}` frame before the next droppable send so
//!   the client can account every loss. Droppable frames are also
//!   gated by *credit*: the server sends at most as many as the client
//!   has granted, which makes overflow deterministic under test instead
//!   of hiding behind kernel socket buffering.
//! - **control** (replies, acks, health, `Drained`): never dropped,
//!   never credit-gated; a session's request/reply protocol stays
//!   lossless under any backpressure.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// What the writer thread gets from [`SessionQueue::pop`].
#[derive(Debug, PartialEq, Eq)]
pub enum Outbound {
    /// A wire frame to send.
    Data(Vec<u8>),
    /// Synthesize and send a `Lagged { missed }` frame.
    Lagged(u64),
    /// The queue is finished and empty; the writer exits.
    Finished,
}

/// One queued frame.
struct QFrame {
    bytes: Vec<u8>,
    droppable: bool,
}

struct Inner {
    frames: VecDeque<QFrame>,
    /// Count of droppable frames currently queued.
    droppable: usize,
    /// Bound on `droppable`.
    capacity: usize,
    /// Droppable sends remaining before the client must grant more.
    credit: u64,
    /// Drops since the last `Lagged` emission.
    missed: u64,
    /// Total drops over the queue's lifetime.
    dropped_total: u64,
    finished: bool,
}

/// The bounded outbound queue shared by the engine (producer) and one
/// session's writer thread (consumer).
pub struct SessionQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl SessionQueue {
    /// An empty queue holding up to `capacity` droppable frames, with
    /// `initial_credit` sends pre-granted.
    pub fn new(capacity: usize, initial_credit: u64) -> SessionQueue {
        SessionQueue {
            inner: Mutex::new(Inner {
                frames: VecDeque::new(),
                droppable: 0,
                capacity: capacity.max(1),
                credit: initial_credit,
                missed: 0,
                dropped_total: 0,
                finished: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Queue a control frame: never dropped, never credit-gated.
    pub fn push_control(&self, bytes: Vec<u8>) {
        {
            let mut inner = self.inner.lock();
            if inner.finished {
                return; // writer is gone; nothing will ever send this
            }
            inner.frames.push_back(QFrame { bytes, droppable: false });
        }
        self.ready.notify_one();
    }

    /// Queue a droppable frame, evicting the oldest droppable frame if
    /// the bound is reached. Never blocks.
    pub fn push_droppable(&self, bytes: Vec<u8>) {
        {
            let mut inner = self.inner.lock();
            if inner.finished {
                return;
            }
            if inner.droppable >= inner.capacity {
                // Evict front-most droppable; control frames keep their
                // positions.
                if let Some(pos) = inner.frames.iter().position(|f| f.droppable) {
                    inner.frames.remove(pos);
                    inner.droppable -= 1;
                    inner.missed += 1;
                    inner.dropped_total += 1;
                }
            }
            inner.frames.push_back(QFrame { bytes, droppable: true });
            inner.droppable += 1;
        }
        self.ready.notify_one();
    }

    /// Grant `n` more droppable sends (a client `Credit` frame).
    pub fn grant(&self, n: u64) {
        {
            let mut inner = self.inner.lock();
            inner.credit = inner.credit.saturating_add(n);
        }
        self.ready.notify_all();
    }

    /// Mark the queue finished: `pop` drains what is still sendable,
    /// converts stranded droppable frames into one final `Lagged`, then
    /// reports [`Outbound::Finished`]. Idempotent.
    pub fn finish(&self) {
        {
            let mut inner = self.inner.lock();
            inner.finished = true;
        }
        self.ready.notify_all();
    }

    /// Frames currently queued (droppable + control).
    pub fn depth(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Droppable frames discarded over the queue's lifetime.
    pub fn dropped_total(&self) -> u64 {
        self.inner.lock().dropped_total
    }

    /// Blocking pop for the writer thread. Control frames are returned
    /// in order regardless of credit; a droppable frame is returned
    /// only when credit is available (consuming one credit), and is
    /// preceded by [`Outbound::Lagged`] whenever drops happened since
    /// the last accounting. Blocks until something is sendable or
    /// [`SessionQueue::finish`] runs.
    pub fn pop(&self) -> Outbound {
        let mut inner = self.inner.lock();
        loop {
            let has_credit = inner.credit > 0;
            let idx = inner.frames.iter().position(|f| !f.droppable || has_credit);
            if let Some(idx) = idx {
                if inner.frames[idx].droppable && inner.missed > 0 {
                    let missed = inner.missed;
                    inner.missed = 0;
                    return Outbound::Lagged(missed);
                }
                let Some(f) = inner.frames.remove(idx) else { continue };
                if f.droppable {
                    inner.droppable -= 1;
                    inner.credit -= 1;
                }
                return Outbound::Data(f.bytes);
            }
            if inner.finished {
                // Whatever droppable frames remain can never be sent
                // (no credit will arrive after finish): account them as
                // missed so the client's ledger still balances.
                let stranded = inner.droppable as u64;
                if stranded > 0 || inner.missed > 0 {
                    inner.frames.retain(|f| !f.droppable);
                    inner.droppable = 0;
                    inner.dropped_total += stranded;
                    let missed = inner.missed + stranded;
                    inner.missed = 0;
                    return Outbound::Lagged(missed);
                }
                return Outbound::Finished;
            }
            self.ready.wait(&mut inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn data(tag: u8) -> Vec<u8> {
        vec![tag]
    }

    #[test]
    fn overflow_drops_oldest_and_accounts_before_next_droppable() {
        let q = SessionQueue::new(2, 100);
        q.push_droppable(data(1));
        q.push_droppable(data(2));
        q.push_droppable(data(3)); // evicts 1
        q.push_droppable(data(4)); // evicts 2
        assert_eq!(q.dropped_total(), 2);
        assert_eq!(q.pop(), Outbound::Lagged(2));
        assert_eq!(q.pop(), Outbound::Data(data(3)));
        assert_eq!(q.pop(), Outbound::Data(data(4)));
        q.finish();
        assert_eq!(q.pop(), Outbound::Finished);
    }

    #[test]
    fn control_frames_bypass_capacity_and_credit() {
        let q = SessionQueue::new(1, 0); // no credit at all
        q.push_droppable(data(1));
        q.push_control(data(9));
        // The droppable frame is credit-blocked; the control frame is
        // returned immediately, from behind it.
        assert_eq!(q.pop(), Outbound::Data(data(9)));
        q.grant(1);
        assert_eq!(q.pop(), Outbound::Data(data(1)));
    }

    #[test]
    fn finish_converts_stranded_droppables_into_a_final_lagged() {
        let q = SessionQueue::new(8, 0);
        q.push_droppable(data(1));
        q.push_droppable(data(2));
        q.push_control(data(9));
        q.finish();
        assert_eq!(q.pop(), Outbound::Data(data(9)));
        assert_eq!(q.pop(), Outbound::Lagged(2));
        assert_eq!(q.pop(), Outbound::Finished);
        assert_eq!(q.dropped_total(), 2);
        // Idempotent after finish.
        assert_eq!(q.pop(), Outbound::Finished);
    }

    #[test]
    fn credit_unblocks_a_parked_writer() {
        let q = Arc::new(SessionQueue::new(4, 0));
        q.push_droppable(data(7));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.grant(1);
        assert_eq!(popper.join().unwrap(), Outbound::Data(data(7)));
    }

    #[test]
    fn pushes_never_block_without_a_consumer() {
        let q = SessionQueue::new(4, 0);
        for i in 0..10_000u32 {
            q.push_droppable(data((i % 251) as u8));
        }
        assert_eq!(q.depth(), 4);
        assert_eq!(q.dropped_total(), 9_996);
    }
}
