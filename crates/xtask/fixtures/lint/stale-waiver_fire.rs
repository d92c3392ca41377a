//@ lint-path: crates/analysis/src/fixture.rs
// lint: allow(float-accumulation) -- nothing on this line or the next folds a float
pub fn plus_one(x: u64) -> u64 {
    x + 1
}
