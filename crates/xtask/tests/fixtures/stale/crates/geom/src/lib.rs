//! Fixture for `cargo xtask waivers`: a well-formed waiver whose line
//! holds no finding of its rule — the code it excused has been fixed —
//! must fail the inventory.

pub fn f(x: Option<u8>) -> u8 {
    x.unwrap_or(0) // lint: allow(unwrap) — excused an unwrap that is gone
}
