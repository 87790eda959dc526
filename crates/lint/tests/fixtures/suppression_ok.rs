// Fixture: one real violation silenced by a well-formed directive.
// Expected: zero diagnostics, suppressed == 1.
// vdsms-lint: entry
fn frame_rate(frames: u64, seconds: Option<u64>) -> u64 {
    // vdsms-lint: allow(no-panic-hot-path) reason="the caller checked seconds is Some"
    frames / seconds.unwrap().max(1)
}
