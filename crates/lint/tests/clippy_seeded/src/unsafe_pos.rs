// Fixture: undocumented unsafe. Expected: undocumented_unsafe_blocks x1.
fn read_raw(p: *const u8) -> u8 {
    unsafe { p.read() }
}
