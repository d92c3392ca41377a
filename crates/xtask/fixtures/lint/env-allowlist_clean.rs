//@ lint-path: crates/sweep/src/fixture.rs
pub const THREADS_ENV: &str = "ROTOR_SWEEP_THREADS";

pub fn threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}
