// Fixture: unchecked arithmetic on untrusted stream bytes. Expected
// findings: no-unchecked-arith x3 (shift of a raw byte, add through a
// tainted let-binding, multiply of a raw byte). The comparison on `lo`
// bounds it for an index, not for arithmetic: the multiply still fires.
fn decode_len(buf: &mut Reader) -> u32 {
    let hi = buf.get_u8();
    let lo = buf.get_u8();
    if lo > 15 {
        return 0;
    }
    let word = hi << 8 | lo;
    let bumped = word + 1;
    let scaled = lo * 4;
    finish(bumped, scaled)
}
