//! Bad: wall-clock reads in a library crate must go through pv-obs.

pub fn measure() {
    let t0 = std::time::Instant::now();
    let wall = std::time::SystemTime::now();
    let _ = (t0, wall);
}
