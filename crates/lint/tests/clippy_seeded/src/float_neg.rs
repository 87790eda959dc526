// Fixture: deterministic orderings — total_cmp on floats and integer
// sort keys. Test code is in scope, so the test module's partial_cmp
// is reported.
fn rank(scores: &mut [(f32, u32)]) {
    scores.sort_by(|a, b| a.0.total_cmp(&b.0));
}

fn by_key(xs: &mut [(u64, u32)]) {
    xs.sort_by_key(|a| a.0);
}

#[cfg(test)]
mod tests {
    #[test]
    fn partial_cmp_is_reported_in_tests_too() {
        assert!(0.1f32.partial_cmp(&0.2).is_some());
    }
}
