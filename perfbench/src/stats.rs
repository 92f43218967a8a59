//! The benchmark's own arithmetic: medians, percentiles, ratios.
//!
//! Everything here is pure so the unit tests below can pin it.

/// The percentiles a timing may be reported at, highest first.
const PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile in [`PERCENTILES`] with at least
/// [`TAIL_SAMPLES`] of `n` samples strictly beyond its nearest-rank
/// position, or `None` when even the median is not supported.
pub fn supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES.into_iter().find(|&p| n - nearest_rank(n, p).min(n) >= TAIL_SAMPLES)
}

/// Requests a run needs before `p` is supported.
pub fn samples_needed(p: f64) -> usize {
    (1..).find(|&n| n - nearest_rank(n, p).min(n) >= TAIL_SAMPLES).expect("some n supports p")
}

/// 1-based nearest-rank position of percentile `p` among `n` samples,
/// in integer tenths of a percent so that 99.9 % of 10 000 is exactly
/// rank 9 990.
fn nearest_rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).max(1)
}

/// Nearest-rank percentile of `values` (sorted internally); 0 for an
/// empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p).min(v.len()) - 1]
}

/// Median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Failed over attempted operations.
pub fn error_rate(attempted: u64, failed: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}

/// How much longer a parallel sweep took than perfectly balanced work:
/// sweep wall ÷ (Σ point wall ÷ threads). 1.0 means no straggler.
pub fn straggler_ratio(sweep_wall: f64, point_walls: &[f64], threads: usize) -> f64 {
    ratio(sweep_wall, point_walls.iter().sum::<f64>() / threads.max(1) as f64)
}

/// Total length of the union of half-open `[start, end)` intervals,
/// each clipped to `[lo, hi)`.
pub fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|&(s, e)| s < e).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Quantile `q` of a cumulative histogram given as `(upper_edge,
/// cumulative_count)` pairs sorted by edge, interpolating linearly inside
/// the bucket that holds the rank (the way Prometheus'
/// `histogram_quantile` does). 0 when the histogram is empty.
pub fn histogram_quantile(buckets: &[(f64, f64)], q: f64) -> f64 {
    let Some(&(_, total)) = buckets.last() else { return 0.0 };
    if total <= 0.0 {
        return 0.0;
    }
    let rank = q * total;
    let (mut lo_edge, mut lo_count) = (0.0, 0.0);
    for &(edge, count) in buckets {
        if count >= rank {
            if !edge.is_finite() {
                return lo_edge;
            }
            let in_bucket = count - lo_count;
            let frac = if in_bucket > 0.0 { (rank - lo_count) / in_bucket } else { 1.0 };
            return lo_edge + (edge - lo_edge) * frac;
        }
        (lo_edge, lo_count) = (edge, count);
    }
    lo_edge
}

/// 64-bit FNV-1a: the digest of a report's JSON text.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// SplitMix64: the benchmark's seeded input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_selection_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(10), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(9999), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(50.0), 20);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn union_counts_overlap_once_and_clips() {
        assert_eq!(union_len(&[], 0, 100), 0);
        assert_eq!(union_len(&[(10, 20), (15, 30), (40, 50)], 0, 100), 30);
        // Nested and touching intervals.
        assert_eq!(union_len(&[(10, 50), (20, 30), (50, 60)], 0, 100), 50);
        // Children that leak past the parent are clipped to it.
        assert_eq!(union_len(&[(0, 20), (90, 120)], 10, 100), 20);
    }

    #[test]
    fn error_rate_counts_failures_over_attempts() {
        assert_eq!(error_rate(0, 0), 0.0);
        assert_eq!(error_rate(1000, 0), 0.0);
        assert_eq!(error_rate(1000, 10), 0.01);
        assert_eq!(error_rate(4, 4), 1.0);
    }

    #[test]
    fn straggler_ratio_is_wall_over_balanced_share() {
        // Two threads, four 1 s points, 2 s wall: perfectly balanced.
        assert_eq!(straggler_ratio(2.0, &[1.0; 4], 2), 1.0);
        // The 3 s point started last, after one thread had run the three
        // 1 s points: 4.5 s of wall against a balanced 3 s.
        assert_eq!(straggler_ratio(4.5, &[3.0, 1.0, 1.0, 1.0], 2), 1.5);
        assert_eq!(straggler_ratio(1.0, &[], 2), 0.0);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        let b = [(1.0, 0.0), (2.0, 50.0), (4.0, 100.0), (f64::INFINITY, 100.0)];
        assert_eq!(histogram_quantile(&b, 0.5), 2.0);
        assert_eq!(histogram_quantile(&b, 0.25), 1.5);
        assert_eq!(histogram_quantile(&b, 0.75), 3.0);
        assert_eq!(histogram_quantile(&[], 0.5), 0.0);
        // Rank in the +Inf bucket reads as the last finite edge.
        let tail = [(1.0, 5.0), (f64::INFINITY, 10.0)];
        assert_eq!(histogram_quantile(&tail, 0.9), 1.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).scan(Rng::new(42), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..4).scan(Rng::new(42), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..4).scan(Rng::new(43), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
