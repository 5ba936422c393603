//! Session-duration histogram (the paper's Fig. 5).

use crate::channel::Trace;
use serde::{Deserialize, Serialize};

/// Histogram of session durations in fixed-width minute bins.
///
/// # Example
///
/// ```
/// use lpvs_trace::generator::TraceGenerator;
/// use lpvs_trace::histogram::DurationHistogram;
///
/// let trace = TraceGenerator::new(100, 2).generate();
/// let hist = DurationHistogram::from_trace(&trace, 30.0);
/// assert_eq!(hist.total(), trace.session_count());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurationHistogram {
    bin_minutes: f64,
    counts: Vec<usize>,
}

impl DurationHistogram {
    /// Builds the histogram of all session durations in `trace` with
    /// the given bin width (minutes).
    ///
    /// # Panics
    ///
    /// Panics if `bin_minutes` is not strictly positive.
    pub fn from_trace(trace: &Trace, bin_minutes: f64) -> Self {
        assert!(bin_minutes > 0.0, "bin width must be positive");
        let mut counts: Vec<usize> = Vec::new();
        for (_, s) in trace.sessions() {
            let bin = (s.duration_minutes() / bin_minutes).floor() as usize;
            if counts.len() <= bin {
                counts.resize(bin + 1, 0);
            }
            counts[bin] += 1;
        }
        Self { bin_minutes, counts }
    }

    /// Counts per bin (bin `i` covers `[i·w, (i+1)·w)` minutes).
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total sessions histogrammed.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Rows `(bin start minutes, bin end minutes, count)` for printing.
    pub fn rows(&self) -> Vec<(f64, f64, usize)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64 * self.bin_minutes, (i + 1) as f64 * self.bin_minutes, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, ChannelId};
    use crate::generator::TraceGenerator;
    use crate::session::Session;

    fn toy_trace() -> Trace {
        // Durations: 10, 35, 40, 60 minutes (2, 7, 8, 12 slots).
        Trace::new(vec![Channel::new(
            ChannelId(0),
            3000.0,
            vec![
                Session::new(0, vec![1; 2]),
                Session::new(10, vec![1; 7]),
                Session::new(30, vec![1; 8]),
                Session::new(50, vec![1; 12]),
            ],
        )])
    }

    #[test]
    fn binning_is_correct() {
        let h = DurationHistogram::from_trace(&toy_trace(), 30.0);
        // Bins: [0,30): 1 session (10 min); [30,60): 2; [60,90): 1.
        assert_eq!(h.counts(), &[1, 2, 1]);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn rows_cover_all_bins() {
        let h = DurationHistogram::from_trace(&toy_trace(), 30.0);
        let rows = h.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1], (30.0, 60.0, 2));
    }

    #[test]
    fn generated_trace_is_capped_at_ten_hours() {
        let t = TraceGenerator::new(200, 4).generate();
        let h = DurationHistogram::from_trace(&t, 30.0);
        assert!(h.counts().len() <= 21, "bins beyond 10 h: {}", h.counts().len());
    }

    #[test]
    fn empty_trace_yields_empty_histogram() {
        let h = DurationHistogram::from_trace(&Trace::default(), 30.0);
        assert_eq!(h.total(), 0);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_width_rejected() {
        let _ = DurationHistogram::from_trace(&Trace::default(), 0.0);
    }
}
