//! SplitMix64: the benchmark's only source of randomness, so that one
//! `--seed` fixes every input byte and the request order.

pub struct Rng(u64);

/// First element of a stream name: what the numbers are for.
pub mod stream {
    pub const RHS: u64 = 1;
    pub const COLD_VARIANT: u64 = 2;
    pub const MIX_ORDER: u64 = 3;
    pub const MIX_VARIANT: u64 = 4;
}

impl Rng {
    /// An independent stream for `(seed, stream)`; `stream` starts with one
    /// of [`stream`]'s constants and goes on with what distinguishes the
    /// use (a right-hand side index, a round, a connection).
    pub fn new(seed: u64, stream: &[u64]) -> Rng {
        let mut r = Rng(seed ^ 0x9E37_79B9_7F4A_7C15);
        for &s in stream {
            r.0 = r.next_u64() ^ s.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        }
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
