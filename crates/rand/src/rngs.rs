//! Named generator configurations.

use crate::{Rng, SeedableRng, Xoshiro256StarStar};

/// The workspace's standard generator: [`Xoshiro256StarStar`] behind a
/// stable name, seeded via splitmix64.
///
/// Unlike `rand`'s `StdRng`, the algorithm here is **pinned forever**:
/// every seeded stream is part of the repository's experimental record
/// (EXPERIMENTS.md), so this type will never silently change engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng(Xoshiro256StarStar);

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        StdRng(Xoshiro256StarStar::from_seed(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_rng_matches_raw_engine() {
        let mut raw = Xoshiro256StarStar::seed_from_u64(99);
        let mut std = StdRng::seed_from_u64(99);
        for _ in 0..16 {
            assert_eq!(std.next_u64(), raw.next_u64());
        }
    }
}
