//! Fixture: a file every lint is happy with.

pub fn id(x: &u8) -> u8 {
    *x
}
