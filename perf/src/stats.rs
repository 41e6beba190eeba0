//! Sample statistics and the trace digest.
//!
//! Every timing the benchmark reports goes through the same two steps:
//! rounds that do *identical* work (same seed, same period count) are
//! folded with [`MinFold`] — period `k` of every round executes the same
//! instructions, so its fastest observation is the one least disturbed
//! by the host — and the folded series is then summarised by
//! [`percentile`].  The README's "Noise method" section has the measured
//! reason.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice:
/// the smallest sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, 99th percentile and maximum of a sample (nanoseconds in,
/// microseconds out).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
    pub sum_s: f64,
    pub count: usize,
}

pub fn summarize(samples_ns: &[u64]) -> Summary {
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    Summary {
        p50_us: percentile(&sorted, 0.50) as f64 / 1e3,
        p99_us: percentile(&sorted, 0.99) as f64 / 1e3,
        max_us: *sorted.last().expect("non-empty") as f64 / 1e3,
        sum_s: sorted.iter().sum::<u64>() as f64 / 1e9,
        count: sorted.len(),
    }
}

/// Element-wise minimum across rounds of equal length, folded as the
/// rounds arrive: entry `k` is the fastest observation of period `k`.
/// Memory stays one round's worth however many rounds the host had time
/// for.
#[derive(Debug, Default, Clone)]
pub struct MinFold {
    pub rounds: usize,
    pub best_ns: Vec<u64>,
}

impl MinFold {
    pub fn push(&mut self, round_ns: &[u64]) {
        if self.rounds == 0 {
            self.best_ns = round_ns.to_vec();
        } else {
            assert_eq!(
                round_ns.len(),
                self.best_ns.len(),
                "rounds must do identical work"
            );
            for (best, &x) in self.best_ns.iter_mut().zip(round_ns) {
                *best = (*best).min(x);
            }
        }
        self.rounds += 1;
    }

    pub fn summary(&self) -> Summary {
        summarize(&self.best_ns)
    }
}

/// Median of a float sample (mean of the two middle values for even
/// counts); `NaN`-free input assumed.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// FNV-1a 64 over `f64` bit patterns — the digest the repository's
/// golden-trace suites and the fleet runner use, so a digest printed here
/// can be compared with theirs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn f64(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn slice(&mut self, xs: &[f64]) {
        for &x in xs {
            self.f64(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        // 1000 samples leave exactly ten beyond the 99th percentile.
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 0.99), 990);
    }

    #[test]
    fn summarize_converts_units_and_ignores_order() {
        let s = summarize(&[3000, 1000, 2000]);
        assert_eq!(s.p50_us, 2.0);
        assert_eq!(s.p99_us, 3.0);
        assert_eq!(s.max_us, 3.0);
        assert_eq!(s.count, 3);
        assert!((s.sum_s - 6e-6).abs() < 1e-15);
    }

    fn folded(rounds: &[Vec<u64>]) -> MinFold {
        let mut f = MinFold::default();
        for r in rounds {
            f.push(r);
        }
        f
    }

    #[test]
    fn min_fold_takes_the_fastest_observation_per_period() {
        let rounds = vec![vec![5, 9, 7], vec![6, 2, 8], vec![9, 9, 1]];
        assert_eq!(folded(&rounds).best_ns, vec![5, 2, 1]);
        assert_eq!(folded(&rounds).rounds, 3);
        assert_eq!(folded(&rounds[..1]).best_ns, vec![5, 9, 7]);
        assert!(folded(&[]).best_ns.is_empty());
    }

    #[test]
    fn min_fold_removes_a_disturbed_round_from_the_tail() {
        // One round hit by a 100x stall on every tenth period: its own
        // p99 is ruined, the folded series' is not.
        let clean: Vec<u64> = (0..1000).map(|k| 100 + (k % 7)).collect();
        let mut noisy = clean.clone();
        for x in noisy.iter_mut().step_by(10) {
            *x *= 100;
        }
        assert!(summarize(&noisy).p99_us > 10.0);
        assert_eq!(folded(&[noisy, clean.clone()]).summary(), summarize(&clean));
    }

    #[test]
    #[should_panic(expected = "identical work")]
    fn min_fold_rejects_rounds_of_different_length() {
        folded(&[vec![1, 2], vec![1]]);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_matches_the_repository_fnv() {
        // Offset basis for the empty input; order and sign sensitive.
        assert_eq!(Fnv::default().0, 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv::default();
        a.slice(&[0.5, 0.25]);
        let mut b = Fnv::default();
        b.slice(&[0.25, 0.5]);
        assert_ne!(a, b);
        let mut z = Fnv::default();
        z.f64(0.0);
        let mut nz = Fnv::default();
        nz.f64(-0.0);
        assert_ne!(z, nz, "bit patterns, not values");
        // One f64 = eight FNV-1a byte steps.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in 1.0f64.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut one = Fnv::default();
        one.f64(1.0);
        assert_eq!(one.0, h);
    }
}
