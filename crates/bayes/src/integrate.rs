//! Numerical quadrature.
//!
//! The paper's eq. 18 marginalizes the likelihood over the truncated
//! prior. With the Gaussian–Gaussian conjugate pair that integral has a
//! closed form; this module provides composite Simpson quadrature for
//! cross-validating the closed forms in tests.

/// Composite Simpson integration of `f` on `[a, b]` with `n` panels
/// (rounded up to the next even number).
///
/// # Panics
///
/// Panics if `n == 0` or `a > b`.
///
/// # Example
///
/// ```
/// use lpvs_bayes::simpson;
///
/// let integral = simpson(|x| x * x, 0.0, 3.0, 64);
/// assert!((integral - 9.0).abs() < 1e-10);
/// ```
pub fn simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, n: usize) -> f64 {
    assert!(n > 0, "need at least one panel");
    assert!(a <= b, "inverted interval");
    if a == b {
        return 0.0;
    }
    let n = if n.is_multiple_of(2) { n } else { n + 1 };
    let h = (b - a) / n as f64;
    let mut sum = f(a) + f(b);
    for i in 1..n {
        let x = a + i as f64 * h;
        sum += if i % 2 == 1 { 4.0 * f(x) } else { 2.0 * f(x) };
    }
    sum * h / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polynomial_exact() {
        // Simpson is exact for cubics.
        let v = simpson(|x| x.powi(3) - 2.0 * x + 1.0, -1.0, 2.0, 2);
        let exact = |x: f64| x.powi(4) / 4.0 - x * x + x;
        assert!((v - (exact(2.0) - exact(-1.0))).abs() < 1e-12);
    }

    #[test]
    fn odd_panel_count_rounds_up() {
        let v = simpson(|x| x, 0.0, 1.0, 3);
        assert!((v - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_interval_is_zero() {
        assert_eq!(simpson(|x| x.exp(), 2.0, 2.0, 8), 0.0);
    }

    #[test]
    fn transcendental_converges() {
        let v = simpson(f64::sin, 0.0, std::f64::consts::PI, 256);
        assert!((v - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "inverted interval")]
    fn inverted_interval_rejected() {
        let _ = simpson(|x| x, 1.0, 0.0, 4);
    }
}
