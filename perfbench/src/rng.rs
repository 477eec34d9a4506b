//! The benchmark's own seeded random streams: SplitMix64, Fisher–Yates
//! permutations and a Zipf sampler. Kept out of the program's crates so a
//! change there cannot move the workload.

/// SplitMix64 (Steele, Lea & Flood): a tiny, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `stream` of the run seeded with `seed`; distinct
    /// streams of one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed, stream| {
            let mut g = SplitMix64::new(seed, stream);
            (0..8).map(|_| g.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn permutations_are_bijections() {
        let mut g = SplitMix64::new(3, 0);
        let mut p = g.permutation(257);
        p.sort_unstable();
        assert_eq!(p, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_favors_low_ranks() {
        let z = Zipf::new(512, 1.1);
        let mut g = SplitMix64::new(11, 0);
        let mut counts = vec![0usize; 512];
        for _ in 0..20_000 {
            counts[z.sample(&mut g)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        assert!(counts[0] > 2_000, "rank 0 holds ~15% of the mass");
    }
}
