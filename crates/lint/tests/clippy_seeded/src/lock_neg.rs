// Fixture: the sanctioned shim, scoped guards, and I/O `.read(buf)`
// look-alikes — all clean.
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::AtomicU64;

struct Shared {
    inner: Mutex<Vec<u32>>,
}

fn transfer(a: &Shared, b: &Shared) {
    let item = {
        let mut from = a.inner.lock();
        from.pop()
    };
    let mut to = b.inner.lock();
    to.extend(item);
}

fn copy(r: &mut impl std::io::Read, buf: &mut [u8]) {
    let n = r.read(buf);
    let m = r.read(buf);
    let _ = (n, m);
}
