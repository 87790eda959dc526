// taint-unchecked-flow positive fixture: untrusted stream bytes reach
// indexing, capacity and loop-bound sinks with no bounds check between.

pub struct Reader;

impl Reader {
    fn read_u8(&mut self) -> u8 {
        0
    }
}

// 1. Source and sink in one function: byte -> slice indexing. The cast
//    that would make `b` legal arithmetic bounds nothing.
pub fn direct_index(r: &mut Reader, table: &[u32]) -> u32 {
    let b = r.read_u8();
    table[b as usize]
}

// 2. Source -> Vec::with_capacity (attacker-controlled allocation).
pub fn direct_capacity(r: &mut Reader) -> Vec<u8> {
    let n = r.read_u8() as usize;
    Vec::with_capacity(n)
}

// 3. Through a call return: the callee reads the wire, the caller sinks.
fn wire_len(r: &mut Reader) -> usize {
    r.read_u8() as usize
}

pub fn via_return(r: &mut Reader, v: &mut Vec<u8>) {
    let n = wire_len(r);
    v.reserve(n);
}

// 4. Through a call argument: the caller reads, the callee indexes.
fn pick(table: &[u32], idx: usize) -> u32 {
    table[idx]
}

pub fn via_param(r: &mut Reader, table: &[u32]) -> u32 {
    let i = r.read_u8() as usize;
    pick(table, i)
}

// 5. Source -> loop upper bound (attacker-controlled iteration count).
pub fn loop_bound(r: &mut Reader) -> u64 {
    let count = r.read_u8() as usize;
    let mut acc = 0u64;
    for _step in 0..count {
        acc += 1;
    }
    acc
}
