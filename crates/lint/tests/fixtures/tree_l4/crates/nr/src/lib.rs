//! Fixture: a relaxed and an acquiring atomic outside the reviewed-site
//! allowlist.

use std::sync::atomic::{AtomicUsize, Ordering};

pub fn bump(c: &AtomicUsize) -> usize {
    c.fetch_add(1, Ordering::Relaxed)
}

pub fn peek(c: &AtomicUsize) -> usize {
    c.load(Ordering::Acquire)
}
