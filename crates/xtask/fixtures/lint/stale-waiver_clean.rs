//@ lint-path: crates/analysis/src/fixture.rs
pub fn mean(xs: &[f64]) -> f64 {
    // lint: allow(float-accumulation) -- demonstration of a used waiver: serial fold in index order
    xs.iter().sum::<f64>() / xs.len() as f64
}
