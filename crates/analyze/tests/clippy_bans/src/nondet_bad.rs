//! Bad: environment reads are hidden inputs to experiment code.

use std::env::var;

pub fn seed() -> u64 {
    let from_env = var("SEED").ok();
    let raw = std::env::var_os("SEED");
    let all = std::env::vars().count();
    drop((from_env, raw, all));
    7
}
