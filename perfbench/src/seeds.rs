//! Seeds derived from the workload seed, so one `--seed` fixes every input.

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Stream offsets, one per kind of derived seed.
pub const JOBS: u64 = 0;
pub const WARMUP: u64 = 1 << 32;
pub const PROBE: u64 = 1 << 48;

/// The `index`-th seed derived from `seed`, kept below 10^9 so job specs
/// stay readable.
pub fn derive(seed: u64, index: u64) -> u64 {
    mix(seed.wrapping_add(GOLDEN.wrapping_mul(index.wrapping_add(1)))) % 1_000_000_000
}

/// A small deterministic generator for the probe's sampling.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(GOLDEN);
        (mix(self.0) % n as u64) as usize
    }
}
