// channel-protocol negative fixture: protocol-respecting look-alikes.
// Must be silent.

use std::sync::mpsc::{self, Sender};

// A one-shot reply used exactly once.
pub fn single_reply() {
    let (tx, rx) = mpsc::sync_channel(1);
    let _ = tx.send(1);
    let _ = rx.recv();
}

// Two sends are fine when the bound has room for both.
pub fn wide_reply() {
    let (tx, rx) = mpsc::sync_channel(4);
    let _ = tx.send(1);
    let _ = tx.send(2);
    let _ = rx.recv();
    let _ = rx.recv();
}

// Sends complete before the receiver goes away.
pub fn send_then_close() {
    let (tx, rx) = mpsc::channel();
    let _ = tx.send(1);
    let _ = rx.recv();
    drop(rx);
}

// Dropping the *sender* then receiving is the normal drain idiom.
pub fn drain_after_sender_drop() {
    let (tx, rx) = mpsc::channel();
    let _ = tx.send(1);
    drop(tx);
    let _ = rx.recv();
}

// A statement-position send drops its `Result`, but rustc's
// `unused_must_use` rejects that under `-D warnings`: not this rule's
// shape, whatever the function is called.
pub fn notify(tx: &Sender<u64>) {
    tx.send(0);
}

// A semicolon-less tail is the function's return value, not a discard —
// the wrapper-delegation idiom.
pub fn delegated_send(tx: &Sender<u64>, v: u64) -> Result<(), mpsc::SendError<u64>> {
    tx.send(v)
}
