//! Statistics the benchmark reports with: medians, the tail-percentile
//! rule, the Fig. 10 fits, and the selection hash.

use lpvs_emulator::LineFit;

/// Median of the samples (mean of the two middle ones for an even
/// count). Zero for an empty slice, so a layer nobody exercised reads 0.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Nearest-rank percentile `p` in `[0, 1]` of the samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank]
}

/// The percentiles a tail may be reported at, per mille, highest first.
const TAIL_CANDIDATES: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest candidate percentile that still has at least ten samples
/// beyond it, or `None` when even p75 has fewer (under 40 samples).
pub fn tail_level(count: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|per_mille| count * (1000 - per_mille) >= 10 * 1000)
        .map(|per_mille| per_mille as f64 / 1000.0)
}

/// A timing the way every report states it: median, the supported tail,
/// and how many samples stand behind both.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    pub median: f64,
    /// `(percentile, value)` at [`tail_level`], when the count allows.
    pub tail: Option<(f64, f64)>,
    pub count: usize,
}

impl Timing {
    pub fn of(samples: &[f64]) -> Self {
        Self {
            median: median(samples),
            tail: tail_level(samples.len()).map(|p| (p, percentile(samples, p))),
            count: samples.len(),
        }
    }
}

/// Median over rounds of a per-round rate `count / seconds`.
pub fn median_rate(rounds: &[(u64, f64)]) -> f64 {
    let rates: Vec<f64> = rounds
        .iter()
        .filter(|(_, secs)| *secs > 0.0)
        .map(|(count, secs)| *count as f64 / secs)
        .collect();
    median(&rates)
}

/// Least-squares slope of `ln(t)` on `ln(n)`: the scaling exponent.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|&(n, t)| (n.ln(), t.ln())).collect();
    LineFit::fit(&logs).slope
}

/// R² of the straight-line fit of `t` on `n` (the paper's Fig. 10
/// statistic).
pub fn linear_r2(points: &[(f64, f64)]) -> f64 {
    LineFit::fit(points).r_squared
}

/// FNV-1a over a selection, so two runs of one seed compare exactly.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn bools(&mut self, selection: &[bool]) {
        for &x in selection {
            self.byte(u8::from(x));
        }
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Spread of a set of runs the way the acceptance check takes it:
/// the distance between the first and third quartile as a share of the
/// median. Quartiles follow Python's `statistics.quantiles(v, n=4)`
/// (exclusive method).
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    ((quartile(3) - quartile(1)) / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loglog_fit_recovers_quadratic_and_linear_slopes() {
        let sizes = [2000.0, 4000.0, 8000.0, 16000.0];
        let quadratic: Vec<(f64, f64)> = sizes.iter().map(|&n| (n, 3e-9 * n * n)).collect();
        let linear: Vec<(f64, f64)> = sizes.iter().map(|&n| (n, 7e-6 * n)).collect();
        assert!((loglog_slope(&quadratic) - 2.0).abs() < 1e-9);
        assert!((loglog_slope(&linear) - 1.0).abs() < 1e-9);
        assert!(linear_r2(&linear) > 0.999_999);
        assert!(linear_r2(&quadratic) < 0.99);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_level(39), None);
        assert_eq!(tail_level(40), Some(0.75));
        assert_eq!(tail_level(100), Some(0.90));
        assert_eq!(tail_level(239), Some(0.95));
        assert_eq!(tail_level(1_000), Some(0.99));
        assert_eq!(tail_level(59_000), Some(0.999));
        let samples: Vec<f64> = (1..=239).map(f64::from).collect();
        let t = Timing::of(&samples);
        assert_eq!(t.median, 120.0);
        assert_eq!(t.count, 239);
        let (p, v) = t.tail.expect("239 samples support a tail");
        assert_eq!(p, 0.95);
        assert!((226.0..=228.0).contains(&v));
    }

    #[test]
    fn median_of_rounds_ignores_the_odd_slow_round() {
        let rounds = [
            (3000, 0.5),
            (3000, 0.5),
            (3000, 5.0),
            (3000, 0.4),
            (3000, 0.6),
        ];
        assert_eq!(median_rate(&rounds), 6000.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn fnv_separates_selections() {
        let mut a = Fnv::new();
        a.bools(&[true, false, true]);
        let mut b = Fnv::new();
        b.bools(&[true, true, false]);
        assert_ne!(a.finish(), b.finish());
    }
}
