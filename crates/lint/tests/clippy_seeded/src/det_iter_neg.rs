// Fixture: ordered collections are fine. Test code is in scope, so the
// test module's hash set is reported under the crate copies.
use std::collections::{BTreeMap, BTreeSet};

struct Index {
    rows: BTreeMap<u64, Vec<u32>>,
    seen: BTreeSet<u64>,
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    #[test]
    fn hash_collections_are_reported_in_tests_too() {
        let _ = HashSet::<u32>::new();
    }
}
