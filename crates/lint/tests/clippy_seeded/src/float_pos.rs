// Fixture: NaN-unstable float comparisons. Expected: disallowed_methods
// x2 (sort_by with partial_cmp, bare partial_cmp).
fn rank(scores: &mut [(f32, u32)]) {
    scores.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
}

fn better(a: f64, b: f64) -> bool {
    matches!(a.partial_cmp(&b), Some(core::cmp::Ordering::Greater))
}
