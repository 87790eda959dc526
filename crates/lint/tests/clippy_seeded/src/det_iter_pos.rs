// Fixture: order-randomized collections. Expected: disallowed_types x3
// (use path, type position, module path), under the three crate copies
// of clippy.toml only.
use std::collections::HashMap;

struct Index {
    rows: HashMap<u64, Vec<u32>>,
}

fn bucket(e: std::collections::hash_map::Entry<u64, u32>) {}
