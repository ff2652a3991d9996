//! Seeded input generation: the PRNG every workload draws from, the
//! Zipf sampler for query sources and the Poisson arrival schedule of the
//! open loop. The program under test never sees the seed, only what is
//! generated here.

/// SplitMix64: small, fast, and every seed (0 included) is a good seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for a named purpose, so adding draws to
    /// one part of a workload never shifts the inputs of another.
    pub fn fork(&self, salt: u64) -> Rng {
        let mut r = Rng(self.0 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
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

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift: unbiased enough for workload generation and
        // free of the low-bit patterns of `%`.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }

    /// Probability mass of the `k` most popular ranks.
    #[cfg(test)]
    fn head_mass(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[k.min(self.cdf.len()) - 1]
        }
    }
}

/// Due times (seconds from phase start, ascending) of a Poisson arrival
/// process of `rate_per_s` over `duration_s`.
pub fn poisson_schedule(rate_per_s: f64, duration_s: f64, rng: &mut Rng) -> Vec<f64> {
    assert!(rate_per_s > 0.0);
    let mut due = Vec::with_capacity((rate_per_s * duration_s * 1.1) as usize + 8);
    let mut t = 0.0;
    loop {
        // Inverse-CDF exponential gap; `1 - u` keeps the log finite.
        t += -(1.0 - rng.unit()).ln() / rate_per_s;
        if t >= duration_s {
            return due;
        }
        due.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_are_independent() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let base = Rng::new(7);
        assert_ne!(base.fork(1).next_u64(), base.fork(2).next_u64());
        assert_eq!(base.fork(1).next_u64(), base.fork(1).next_u64());
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = Rng::new(0);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_same_seed_same_draws_and_head_is_heavy() {
        let z = Zipf::new(1024, 1.0);
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..50_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        assert!(a.iter().all(|&k| k < 1024));
        // Rank 0 carries 1/H_1024 = 0.1332 of the mass; the 32 most
        // popular ranks carry H_32/H_1024 = 0.5406.
        let share = |k: usize| a.iter().filter(|&&x| x < k).count() as f64 / a.len() as f64;
        assert!((share(1) - 0.1332).abs() < 0.01, "{}", share(1));
        assert!((share(32) - 0.5406).abs() < 0.01, "{}", share(32));
        assert!((z.head_mass(32) - 0.5406).abs() < 1e-3);
        // Popularity falls with rank.
        let count = |k: usize| a.iter().filter(|&&x| x == k).count();
        assert!(count(0) > count(1) && count(1) > count(3) && count(3) > count(15));
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_has_the_rate() {
        let a = poisson_schedule(200.0, 50.0, &mut Rng::new(11));
        let b = poisson_schedule(200.0, 50.0, &mut Rng::new(11));
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(200.0, 50.0, &mut Rng::new(12)));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..50.0).contains(&t)));
        // 10 000 expected arrivals, standard deviation 100.
        assert!((a.len() as f64 - 10_000.0).abs() < 500.0, "{}", a.len());
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let long = a.windows(2).filter(|w| w[1] - w[0] > 1.0 / 200.0).count() as f64;
        assert!((long / a.len() as f64 - 0.3679).abs() < 0.02);
    }
}
