//! Fixed-size log-linear histogram for nanosecond timings.
//!
//! Every recorder in the benchmark goes through this type, so the
//! benchmark's own memory does not grow with the number of samples and
//! stays out of `peak_rss_mib`. Values are bucketed with 128 linear
//! sub-buckets per power of two (under 0.8% relative width), and a
//! quantile interpolates linearly by rank inside its bucket, so reported
//! figures keep all their digits instead of snapping to bucket edges.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the linear range; covers values up to 2^48 ns (~3 days).
const OCTAVES: usize = 48 - SUB_BITS as usize + 1;
const BUCKETS: usize = SUB + OCTAVES * SUB;

/// A log-linear histogram of `u64` samples (nanoseconds by convention).
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist")
            .field("count", &self.total)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) as usize) - SUB; // in [0, SUB)
    let idx = SUB + (shift as usize) * SUB + sub;
    idx.min(BUCKETS - 1)
}

/// `[lo, hi)` value range of bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, idx as u64 + 1);
    }
    let shift = ((idx - SUB) / SUB) as u32;
    let sub = ((idx - SUB) % SUB + SUB) as u64;
    (sub << shift, (sub + 1) << shift)
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`q` in `[0, 1]`), interpolated by rank inside
    /// its bucket and clamped to the exact min/max. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        // Rank of the wanted sample, 0-based, as a real number.
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 > rank {
                let (lo, hi) = bucket_range(idx);
                let within = (rank - below as f64 + 0.5) / c as f64;
                let v = lo as f64 + (hi - lo) as f64 * within;
                return v.clamp(self.min as f64, self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_and_order() {
        let mut prev = 0;
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            1 << 20,
            (1 << 40) + 12345,
        ] {
            let b = bucket_of(v);
            assert!(b >= prev);
            prev = b;
            let (lo, hi) = bucket_range(b);
            assert!(lo <= v && v < hi, "{v} not in [{lo},{hi})");
        }
    }

    #[test]
    fn quantiles_track_exact_values() {
        let mut h = Hist::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 / 5_000_000.0 - 1.0).abs() < 0.01, "{p50}");
        assert!((p99 / 9_900_000.0 - 1.0).abs() < 0.01, "{p99}");
        assert_eq!(h.quantile(1.0), 10_000_000.0);
        assert_eq!(h.count(), 10_000);
    }
}
