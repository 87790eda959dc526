// Fixture: wall-clock reads. Expected: disallowed_methods x2.
fn stamp() -> (std::time::Instant, std::time::SystemTime) {
    let t = std::time::Instant::now();
    let s = std::time::SystemTime::now();
    (t, s)
}
