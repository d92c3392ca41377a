//@ lint-path: crates/sweep/src/fixture.rs
pub fn threads(arg: Option<&str>) -> usize {
    // The worker count arrives as a command-line value, not from the
    // environment.
    arg.and_then(|v| v.parse().ok()).unwrap_or(1)
}
