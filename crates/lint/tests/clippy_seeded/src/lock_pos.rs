// Fixture: std locks. Expected: disallowed_types x2 (std::sync::Mutex in
// the use-group, std::sync::Condvar in a type path).
use std::sync::{Arc, Mutex};

fn wait(c: &std::sync::Condvar) {}
