//! Order statistics and the seeded generator every input comes from.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. Empty input gives 0.
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the values (mean of the two middle ones for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method, which the benchmark's driver uses for
/// its own steadiness check): the value at position `(n + 1) · p` of the
/// ascending values, counted from 1 and interpolated between neighbours.
/// A single value is both its own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let at = |p: f64| {
        let position = ((n + 1) as f64 * p).clamp(1.0, n as f64);
        let below = position.floor() as usize;
        let above = (below + 1).min(n);
        let share = position - below as f64;
        sorted[below - 1] + (sorted[above - 1] - sorted[below - 1]) * share
    };
    (at(0.25), at(0.75))
}

/// One metric over a run's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// First and third quartile: their distance is the run's spread.
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// `values` must not be empty.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&v);
        Summary {
            median: median(&v),
            min: v[0],
            max: v[v.len() - 1],
            q1,
            q3,
        }
    }

    /// (max − min) / median in percent: the run's own noise.
    pub fn spread_pct(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs() * 100.0
        }
    }
}

/// splitmix64: the only source of generated inputs, so a seed fixes the
/// payload bytes and the op sequence exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// FNV-1a over the payload: the content check `get` replies are held to.
pub fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.9), 9);
        assert_eq!(percentile(&v, 0.99), 10);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 1.0), 10);
        assert_eq!(percentile(&[7u64], 0.5), 7);
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
        // 15, 20, 35, 40, 50: the textbook nearest-rank example.
        let w = [15u64, 20, 35, 40, 50];
        assert_eq!(percentile(&w, 0.30), 20);
        assert_eq!(percentile(&w, 0.40), 20);
        assert_eq!(percentile(&w, 0.50), 35);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s = Summary::of(&[90.0, 100.0, 110.0]);
        assert_eq!((s.median, s.min, s.max), (100.0, 90.0, 110.0));
        assert_eq!(s.spread_pct(), 20.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([50, 99, 100, 103, 400], n=4) == [74.5, 100, 251.5]
        let five = Summary::of(&[400.0, 99.0, 50.0, 103.0, 100.0]);
        assert_eq!((five.min, five.max), (50.0, 400.0));
        assert_eq!((five.q1, five.median, five.q3), (74.5, 100.0, 251.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; clamped
        // to the values here, since no repetition measured beyond them.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 2.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn seed_fixes_the_stream() {
        let a = Rng::new(7).bytes(100);
        assert_eq!(a, Rng::new(7).bytes(100));
        assert_ne!(a, Rng::new(8).bytes(100));
        assert_eq!(a.len(), 100);
        assert_ne!(checksum(&a), checksum(&Rng::new(8).bytes(100)));
    }
}
