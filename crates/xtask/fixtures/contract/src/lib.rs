//! The determinism contract's compiler-checked rules, one rejected site
//! each in [`fire`] and a reasoned, fulfilled waiver for each in [`clean`].
//! `expected.txt` pins the `(line, lint)` pairs clippy must report.

/// Sites that break the contract; every one is in `expected.txt`.
pub mod fire {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{HashMap, HashSet};
    use std::hash::RandomState;
    use std::time::{Instant, SystemTime};

    /// The `DelaySchedule` store before it moved to a `BTreeMap`: the
    /// held-entry iteration order depended on the hasher, not the schedule.
    pub struct DelaySchedule {
        held: HashMap<(u32, u64), u32>,
    }

    impl DelaySchedule {
        /// Holds `count` agents at `v` in `round`.
        pub fn hold(&mut self, v: u32, round: u64, count: u32) -> &mut Self {
            self.held.insert((v, round), count);
            self
        }
    }

    /// A hash-ordered set with an entropy-seeded hasher.
    pub fn distinct(xs: &[u32]) -> usize {
        let set: HashSet<u32, RandomState> = xs.iter().copied().collect();
        set.len()
    }

    /// Wall-clock reads.
    pub fn stamps() -> (Instant, SystemTime) {
        let t = Instant::now();
        (t, SystemTime::now())
    }

    /// Undeclared inputs.
    pub fn batch_width() -> usize {
        let width = std::env::var("ROTOR_BATCH");
        let others = (std::env::var_os("ROTOR_BATCH"), std::env::vars());
        drop((others, std::env::vars_os()));
        width.ok().and_then(|v| v.parse().ok()).unwrap_or(1)
    }

    /// A seed that names no stream.
    pub fn draw(seed: u64) -> u32 {
        SmallRng::seed_from_u64(seed).gen_range(0..6)
    }

    /// Unsafe code.
    pub fn first(xs: &[u8]) -> u8 {
        unsafe { *xs.get_unchecked(0) }
    }

    /// A waiver that waives nothing.
    #[expect(clippy::disallowed_methods, reason = "nothing here reads a clock")]
    pub fn plus_one(x: u64) -> u64 {
        x + 1
    }

    /// A waiver without a reason.
    pub fn elapsed_ns() -> u128 {
        #[expect(clippy::disallowed_methods)]
        let t = Instant::now();
        t.elapsed().as_nanos()
    }

    /// An `#[allow]`, which never reports going stale.
    #[allow(dead_code, reason = "an allow cannot go stale, so it is denied")]
    fn unused() {}
}

/// The same sites, each waived by a reasoned `#[expect]` that fires.
pub mod clean {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::time::Instant;

    /// Wall-clock timing that feeds only a declared timing field.
    pub fn elapsed_ns() -> u128 {
        #[expect(
            clippy::disallowed_methods,
            reason = "feeds a declared nondeterministic timing field"
        )]
        let t = Instant::now();
        t.elapsed().as_nanos()
    }

    /// A seed the caller derived via a named stream.
    pub fn draw(seed: u64) -> u32 {
        #[expect(
            clippy::disallowed_methods,
            reason = "callers hand in a seed derived via a STREAM_* constant"
        )]
        let mut rng = SmallRng::seed_from_u64(seed);
        rng.gen_range(0..6)
    }
}
