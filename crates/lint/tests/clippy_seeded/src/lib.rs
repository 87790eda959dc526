//! Seeded violations for the clippy rules: read by clippy, never run.
//! Unused items are their nature, so rustc's unused-code lints are off.
#![allow(dead_code, unused_imports, unused_variables)]

mod det_iter_neg;
mod det_iter_pos;
mod float_neg;
mod float_pos;
mod lock_neg;
mod lock_pos;
mod unsafe_neg;
mod unsafe_pos;
mod wall_clock_neg;
mod wall_clock_pos;
