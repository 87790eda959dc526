// taint-unchecked-flow negative fixture: every flow here is cut by a
// bounds check, a clamp, or a checked conversion — the rule must stay
// silent.

pub struct Reader;

impl Reader {
    fn read_u8(&mut self) -> u8 {
        0
    }
}

// Comparison against the slice length sanitizes the index.
pub fn checked_index(r: &mut Reader, table: &[u32]) -> u32 {
    let i = r.read_u8() as usize;
    if i < table.len() {
        table[i]
    } else {
        0
    }
}

// A guard clause bounds the index for the rest of the body, though the
// byte stays raw for `no-unchecked-arith`.
pub fn guarded_index(r: &mut Reader, table: &[u32]) -> u32 {
    let i = r.read_u8() as usize;
    if i >= table.len() {
        return 0;
    }
    table[i]
}

// `.min(…)` caps the capacity before it reaches the allocator.
pub fn clamped_capacity(r: &mut Reader) -> Vec<u8> {
    let n = (r.read_u8() as usize).min(4096);
    Vec::with_capacity(n)
}

// A checked conversion is a sanitizing boundary.
pub fn converted(r: &mut Reader, vals: &[u32]) -> u32 {
    let want = r.read_u8();
    let i = usize::try_from(want).unwrap_or(0).min(vals.len() - 1);
    vals[i]
}

// No taint at all: a constant index is none of this rule's business.
pub fn constant_bound(table: &[u32]) -> u32 {
    let i = 3;
    table[i]
}

// `contains` / membership checks also clear the flow.
pub fn membership(r: &mut Reader, seen: &std::collections::BTreeSet<usize>, t: &[u32]) -> u32 {
    let i = r.read_u8() as usize;
    if seen.contains(&i) {
        t[i]
    } else {
        0
    }
}
