//@ lint-path: crates/sweep/src/fixture.rs
pub const SEGMENTS_ENV: &str = "ROTOR_SEGMENTS";

// Retired overrides: every input to a result comes from the command line.
pub fn segments() -> usize {
    std::env::var(SEGMENTS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

pub fn batch_width() -> usize {
    std::env::var("ROTOR_BATCH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}
