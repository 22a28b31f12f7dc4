//! The serving layer's sanctioned thread-spawn seam.
//!
//! The workspace bans `std::thread` creation outside `pv-tensor::par`
//! (`disallowed-methods` in `crates/clippy.toml`), because fork–join data
//! parallelism must stay bitwise thread-count-invariant. A server is the
//! one other legitimate home for threads — long-lived acceptor/worker/
//! connection loops that *coordinate* rather than compute — so this
//! module holds the ban's only other `#[expect]`. Every thread in
//! pv-serve is created through [`spawn`], which names the thread for
//! debuggability and keeps the audit surface to a single call site.
//!
//! Numeric work done *on* these threads still goes through the pv-par
//! kernels, so inference results remain bitwise identical for any
//! `PV_NUM_THREADS` setting.

use std::thread::JoinHandle;

/// Spawns a named service thread running `f`.
///
/// # Panics
///
/// Panics if the OS refuses to spawn a thread (resource exhaustion at
/// startup — there is nothing useful a server can do without its threads).
pub fn spawn<F>(name: &str, f: F) -> JoinHandle<()>
where
    F: FnOnce() + Send + 'static,
{
    #[expect(
        clippy::disallowed_methods,
        reason = "pv-serve's one thread-spawn seam: named, long-lived service threads"
    )]
    std::thread::Builder::new()
        .name(format!("pv-serve/{name}"))
        .spawn(f)
        // pv-analyze: allow(lib-panic) -- thread spawn fails only on OS resource exhaustion; documented panic contract
        .unwrap_or_else(|e| panic!("failed to spawn service thread '{name}': {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_runs_and_names_the_thread() {
        let handle = spawn("test", || {
            assert_eq!(
                std::thread::current().name(),
                Some("pv-serve/test"),
                "service threads carry the pv-serve/ prefix"
            );
        });
        handle.join().expect("thread completes");
    }
}
