//! Order statistics for the per-run figures, plus the seeded generator that
//! derives every input of a run from `--seed`.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// in-run spread reads like the spread `spread.py` computes across runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Percentiles a tail may be read at, in tenths of a percent, highest first.
const TAIL_LADDER: [usize; 6] = [999, 990, 980, 950, 900, 500];

/// The highest percentile of the ladder 99.9/99/98/95/90/50 that has at
/// least ten samples above it, and its value (nearest rank); `None` with
/// fewer than twenty samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    TAIL_LADDER.iter().find_map(|&per_mille| {
        let above = n * (1000 - per_mille) / 1000;
        (above >= 10).then(|| (per_mille as f64 / 10.0, s[n - above - 1]))
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: a tiny, seedable, reproducible generator for workload inputs
/// (dataset seeds, predicates, fault positions).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seed of dataset `index` under workload seed `seed`.
pub fn dataset_seed(seed: u64, index: usize) -> u64 {
    Rng::new(seed ^ (index as u64).wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_above() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 989.0)));
        assert_eq!(tail(&v[..640]), Some((98.0, 627.0)));
        assert_eq!(tail(&v[..100]), Some((90.0, 89.0)));
        assert_eq!(tail(&v[..19]), None);
    }
}
