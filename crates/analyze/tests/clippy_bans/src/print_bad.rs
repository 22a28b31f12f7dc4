//! Bad: console output from a library crate.

pub fn report(x: f64) {
    println!("x = {x}");
    print!("x = {x}");
    eprintln!("x = {x}");
    eprint!("x = {x}");
    dbg!(x);
}
