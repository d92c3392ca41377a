//@ lint-path: crates/sweep/src/fixture.rs
pub const BATCH_ENV: &str = "ROTOR_BATCH";

pub fn threads() -> usize {
    std::env::var("NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

// A retired override: reading it again needs a reviewed allowlist entry.
pub fn batch_width() -> usize {
    std::env::var(BATCH_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}
