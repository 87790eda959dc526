// Fixture: audited unsafe — a SAFETY comment directly above the block.
fn read_raw(p: *const u8) -> u8 {
    // SAFETY: callers guarantee `p` is valid for reads (library contract
    // documented on the public wrapper).
    unsafe { p.read() }
}
