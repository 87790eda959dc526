// Fixture: malformed directives. Expected findings: invalid-suppression x3
// (missing reason, unknown rule, attempt to allow invalid-suppression)
// plus the surviving no-panic-hot-path finding the first directive failed
// to cover.
// vdsms-lint: entry
fn frame_rate(frames: u64, seconds: Option<u64>) -> u64 {
    // vdsms-lint: allow(no-panic-hot-path)
    frames / seconds.unwrap().max(1)
}

// vdsms-lint: allow(made-up-rule) reason="no such rule"
// vdsms-lint: allow(invalid-suppression) reason="nice try"
