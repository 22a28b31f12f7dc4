//! Bad: ad-hoc thread creation outside the pv-par runtime and the
//! pv-serve pool.

use std::thread::spawn;

pub fn run() -> u64 {
    let h = spawn(|| 42u64);
    let scoped = std::thread::scope(|s| s.spawn(|| 1u64).join().unwrap_or(0));
    let named = std::thread::Builder::new().name("adhoc".into());
    drop(named);
    h.join().unwrap_or(0) + scoped
}
