//! Order statistics: exact percentiles over stored samples, Python-compatible
//! quartiles for the repeat tooling, and a fixed log-bucket histogram for the
//! per-layer accumulators.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Sort a copy ascending (total order, NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's bounds are checked against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// The fastest time of each of a fixed set of work units a run repeats (a
/// query, a minibatch, a slice of the request cycle).
///
/// On a shared host the same work runs up to twice as slowly for seconds
/// at a time while a neighbour is busy; a rate built from every unit's
/// fastest repetition measures the code, not the neighbour, and still
/// moves in proportion when any unit gets slower.
pub struct Fastest {
    best: Vec<f64>,
}

impl Fastest {
    pub fn new(units: usize) -> Fastest {
        Fastest {
            best: vec![f64::INFINITY; units],
        }
    }

    pub fn record(&mut self, unit: usize, secs: f64) {
        let n = self.best.len();
        let b = &mut self.best[unit % n];
        *b = b.min(secs);
    }

    /// Seconds one pass over every unit takes at each unit's fastest;
    /// infinite until every unit has been measured.
    pub fn pass_s(&self) -> f64 {
        self.best.iter().sum()
    }
}

/// Sub-buckets per power of two: values keep 6 significant bits, so a
/// bucket's width is at most 1/64 of its value.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Fixed log-bucket histogram of nanosecond durations (or any `u64`).
#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    ((shift + 1) as usize) * SUB + ((v >> shift) as usize & (SUB - 1))
}

/// Midpoint of a bucket's value range.
fn bucket_mid(b: usize) -> f64 {
    if b < SUB {
        return b as f64;
    }
    let shift = (b / SUB - 1) as u32;
    let lo = ((SUB + b % SUB) as u64) << shift;
    lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl LogHist {
    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    /// Nearest-rank quantile, reported at its bucket's midpoint.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(b);
            }
        }
        bucket_mid(BUCKETS - 1)
    }
}

/// FNV-1a over a stream of 64-bit words: the digests the output checks
/// compare (routes, parameter bits).
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket() {
        let mut h = LogHist::default();
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 10_000_000.0;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 1.0 / 64.0,
                "q{q}: {got} vs {exact}"
            );
        }
        let mut small = LogHist::default();
        small.record(3);
        assert_eq!(small.quantile(0.5), 3.0);
    }

    #[test]
    fn fastest_sums_each_units_minimum() {
        let mut f = Fastest::new(2);
        f.record(0, 3.0);
        assert!(f.pass_s().is_infinite());
        for (unit, secs) in [(1, 2.0), (2, 1.0), (3, 5.0), (0, 4.0)] {
            f.record(unit, secs);
        }
        assert_eq!(f.pass_s(), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
    }
}
