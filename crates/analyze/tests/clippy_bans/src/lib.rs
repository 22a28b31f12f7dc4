//! Seeded violations of the call bans in `crates/clippy.toml`.
//!
//! `scripts/check.sh` runs `cargo clippy -- -D warnings` on this crate and
//! requires it to fail naming every banned path, so a ban that stops
//! firing (a typo in a path, a clippy upgrade, a lost config file) fails
//! the gate instead of going quiet.

pub mod nondet_bad;
pub mod print_bad;
pub mod thread_bad;
pub mod wallclock_bad;
