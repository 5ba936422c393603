//! Ordinary least-squares line fitting (for the Fig. 10 regression).

use serde::{Deserialize, Serialize};

/// A fitted line `y = slope·x + intercept` with its R².
///
/// # Example
///
/// ```
/// use lpvs_emulator::fit::LineFit;
///
/// let fit = LineFit::fit(&[(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]);
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.r_squared - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LineFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
}

impl LineFit {
    /// Fits a line to `(x, y)` points by ordinary least squares.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two points or when all x are identical.
    pub fn fit(points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "need at least two points to fit a line");
        let n = points.len() as f64;
        let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
        let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
        let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
        assert!(sxx > 0.0, "x values must not all coincide");
        let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        let ss_res: f64 = points
            .iter()
            .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
            .sum();
        let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
        let r_squared = if ss_tot <= 0.0 { 1.0 } else { 1.0 - ss_res / ss_tot };
        Self { slope, intercept, r_squared }
    }
}

impl std::fmt::Display for LineFit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "y = {:.4}x {} {:.4} (R² = {:.4})",
            self.slope,
            if self.intercept >= 0.0 { "+" } else { "-" },
            self.intercept.abs(),
            self.r_squared
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> =
            (0..10).map(|i| (i as f64, 0.055 * i as f64 - 0.324)).collect();
        let fit = LineFit::fit(&pts);
        assert!((fit.slope - 0.055).abs() < 1e-12);
        assert!((fit.intercept + 0.324).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_fits_well() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = i as f64;
                (x, 2.0 * x + 1.0 + if i % 2 == 0 { 0.3 } else { -0.3 })
            })
            .collect();
        let fit = LineFit::fit(&pts);
        assert!((fit.slope - 2.0).abs() < 0.01);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn flat_data_has_full_r_squared() {
        let fit = LineFit::fit(&[(0.0, 3.0), (1.0, 3.0), (2.0, 3.0)]);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn display_formatting() {
        let fit = LineFit::fit(&[(0.0, -0.324), (1.0, -0.269)]);
        let s = fit.to_string();
        assert!(s.contains("0.0550"), "{s}");
        assert!(s.contains("R²"), "{s}");
    }

    #[test]
    #[should_panic(expected = "two points")]
    fn single_point_rejected() {
        let _ = LineFit::fit(&[(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "coincide")]
    fn vertical_data_rejected() {
        let _ = LineFit::fit(&[(1.0, 1.0), (1.0, 2.0)]);
    }
}
