// channel-protocol positive fixture. Expected findings: 3 — a one-shot
// reply channel sent twice, one sent in a loop, and a send after the
// receiver was dropped.

use std::sync::mpsc;

pub fn double_reply() {
    let (tx, rx) = mpsc::sync_channel(1);
    let _ = tx.send(1);
    let _ = tx.send(2);
    let _ = rx.recv();
}

pub fn looped_reply(n: u64) {
    let (tx, rx) = mpsc::sync_channel(1);
    for i in 0..n {
        let _ = tx.send(i);
    }
    let _ = rx.recv();
}

pub fn send_into_void() {
    let (tx, rx) = mpsc::channel();
    let _ = tx.send(1);
    drop(rx);
    let _ = tx.send(2);
}
