//! Numerical routines used by the cost models.
//!
//! The tail of the Speculative-Restart cost (Theorem 4) is a Gauss
//! hypergeometric function, which [`gauss_series`] sums directly. The
//! closed forms take an integer `r`, and the optimizer (Algorithm 1) walks
//! the integers (see [`crate::optimizer`]). The quadrature routines
//! [`integrate_adaptive`] and [`integrate_tail`] have no caller in the
//! models: they stay as general-purpose tools and as the oracle the tests
//! check the closed forms against, including the Theorem 4 tail at
//! non-integer `r`.

use crate::error::ChronosError;

/// Absolute tolerance used by default for quadrature.
pub const DEFAULT_QUAD_TOL: f64 = 1e-10;

/// Maximum recursion depth for adaptive Simpson quadrature.
const MAX_DEPTH: u32 = 48;

/// Largest transformed upper limit [`integrate_tail`] integrates to: the
/// substitution `x = a·e^u` maps `u = 700` to `x ≈ a·1e304`.
const TAIL_U_CAP: f64 = 700.0;

/// Relative size of the bounded remainder at which [`gauss_series`] stops.
const SERIES_REL_TOL: f64 = 1e-17;

/// Most terms [`gauss_series`] sums before reporting a failure; reached only
/// when `y` is within about `5e-5` of 1.
const MAX_SERIES_TERMS: u32 = 1 << 20;

/// The Gauss hypergeometric series `₂F₁(b, 1; c; y) = Σ_k (b)_k/(c)_k · y^k`
/// for `0 < b ≤ c` and `0 ≤ y < 1`.
///
/// Each term is the previous one times `(b+k)/(c+k)·y ≤ y`, so the terms
/// after the current one sum to at most `term·y/(1−y)`. The loop stops once
/// that bound falls below `1e-17` of the running sum. Every term is positive
/// and at most 1, so the sum cannot overflow.
///
/// # Errors
///
/// Returns [`ChronosError::NumericalFailure`] if the arguments are outside
/// the domain above or the series has not converged after 2^20 terms.
///
/// # Examples
///
/// ```
/// use chronos_core::numeric::gauss_series;
///
/// # fn main() -> Result<(), chronos_core::ChronosError> {
/// // b = c collapses to the geometric series 1/(1 − y).
/// let v = gauss_series(2.0, 2.0, 0.5)?;
/// assert!((v - 2.0).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
pub fn gauss_series(b: f64, c: f64, y: f64) -> Result<f64, ChronosError> {
    if !(b > 0.0 && c >= b && c.is_finite() && (0.0..1.0).contains(&y)) {
        return Err(ChronosError::numerical(format!(
            "gauss series needs 0 < b <= c and 0 <= y < 1, got b = {b}, c = {c}, y = {y}"
        )));
    }
    let tail_bound = y / (1.0 - y);
    let mut term = 1.0;
    let mut sum = 1.0;
    let mut k = 0.0;
    for _ in 0..MAX_SERIES_TERMS {
        if term * tail_bound <= SERIES_REL_TOL * sum {
            return Ok(sum);
        }
        term *= (b + k) / (c + k) * y;
        sum += term;
        k += 1.0;
    }
    Err(ChronosError::numerical(format!(
        "gauss series did not converge in {MAX_SERIES_TERMS} terms (b = {b}, c = {c}, y = {y})"
    )))
}

/// Adaptive Simpson quadrature of `f` over the finite interval `[a, b]`.
///
/// # Errors
///
/// Returns [`ChronosError::NumericalFailure`] if the bounds are not finite or
/// `a > b`.
///
/// # Examples
///
/// ```
/// use chronos_core::numeric::integrate_adaptive;
///
/// # fn main() -> Result<(), chronos_core::ChronosError> {
/// let area = integrate_adaptive(|x| x * x, 0.0, 3.0, 1e-10)?;
/// assert!((area - 9.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn integrate_adaptive<F>(f: F, a: f64, b: f64, tol: f64) -> Result<f64, ChronosError>
where
    F: Fn(f64) -> f64,
{
    if !a.is_finite() || !b.is_finite() {
        return Err(ChronosError::numerical(format!(
            "integration bounds must be finite, got [{a}, {b}]"
        )));
    }
    if a > b {
        return Err(ChronosError::numerical(format!(
            "integration requires a <= b, got [{a}, {b}]"
        )));
    }
    if a == b {
        return Ok(0.0);
    }
    let tol = if tol > 0.0 { tol } else { DEFAULT_QUAD_TOL };
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let whole = simpson(a, b, fa, fm, fb);
    Ok(adaptive_step(&f, a, b, fa, fm, fb, whole, tol, MAX_DEPTH))
}

/// Integrates `f` from `a` to infinity assuming `f` eventually decays at
/// least as fast as `x^(-p)` with `p = decay_exponent > 1`.
///
/// Internally substitutes `x = a * exp(u)` which turns power-law decay into
/// exponential decay, then truncates the transformed domain where the
/// integrand magnitude falls below the requested tolerance.
///
/// # Errors
///
/// Returns [`ChronosError::NumericalFailure`] if `a <= 0`, if
/// `decay_exponent <= 1`, if the decay is too slow for the truncation to
/// reach `~1e-14` within `u = 700` (`32/(p−1) > 700`), or if the underlying
/// quadrature fails.
///
/// # Examples
///
/// ```
/// use chronos_core::numeric::integrate_tail;
///
/// # fn main() -> Result<(), chronos_core::ChronosError> {
/// // ∫_1^∞ x^-2 dx = 1
/// let v = integrate_tail(|x| x.powi(-2), 1.0, 2.0, 1e-10)?;
/// assert!((v - 1.0).abs() < 1e-7);
/// # Ok(())
/// # }
/// ```
pub fn integrate_tail<F>(f: F, a: f64, decay_exponent: f64, tol: f64) -> Result<f64, ChronosError>
where
    F: Fn(f64) -> f64,
{
    if a <= 0.0 || !a.is_finite() {
        return Err(ChronosError::numerical(format!(
            "tail integration requires a finite positive lower bound, got {a}"
        )));
    }
    if decay_exponent <= 1.0 {
        return Err(ChronosError::numerical(format!(
            "tail integration requires decay exponent > 1, got {decay_exponent}"
        )));
    }
    // After x = a e^u the integrand becomes f(a e^u) * a e^u, which decays
    // like e^{-(p-1) u}. Truncate where that factor reaches ~1e-14.
    let u_max = 32.0 / (decay_exponent - 1.0);
    if u_max > TAIL_U_CAP {
        return Err(ChronosError::numerical(format!(
            "tail integration cannot truncate decay exponent {decay_exponent} within u = {TAIL_U_CAP}"
        )));
    }
    let transformed = |u: f64| {
        let x = a * u.exp();
        f(x) * x
    };
    integrate_adaptive(transformed, 0.0, u_max, tol)
}

#[allow(clippy::too_many_arguments)]
fn adaptive_step<F>(
    f: &F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> f64
where
    F: Fn(f64) -> f64,
{
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson(a, m, fa, flm, fm);
    let right = simpson(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if depth == 0 || delta.abs() <= 15.0 * tol {
        left + right + delta / 15.0
    } else {
        adaptive_step(f, a, m, fa, flm, fm, left, tol * 0.5, depth - 1)
            + adaptive_step(f, m, b, fm, frm, fb, right, tol * 0.5, depth - 1)
    }
}

fn simpson(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

/// Clamps a floating-point value into a probability in `[0, 1]`.
///
/// Closed-form PoCD expressions can drift marginally outside `[0, 1]` due to
/// floating-point rounding when the per-task failure probability is tiny.
#[must_use]
pub fn clamp_probability(p: f64) -> f64 {
    if p.is_nan() {
        return 0.0;
    }
    p.clamp(0.0, 1.0)
}

/// Returns `true` when two floats agree within an absolute and a relative
/// tolerance; convenience helper used heavily in tests.
#[must_use]
pub fn approx_eq(a: f64, b: f64, abs_tol: f64, rel_tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= abs_tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= rel_tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simpson_exact_for_cubics() {
        // Simpson's rule is exact up to cubic polynomials.
        let v = integrate_adaptive(|x| x * x * x, 0.0, 2.0, 1e-12).unwrap();
        assert!((v - 4.0).abs() < 1e-9);
    }

    #[test]
    fn integrates_transcendental() {
        let v = integrate_adaptive(|x| x.sin(), 0.0, std::f64::consts::PI, 1e-12).unwrap();
        assert!((v - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_width_interval_is_zero() {
        let v = integrate_adaptive(|x| x.exp(), 1.5, 1.5, 1e-10).unwrap();
        assert_eq!(v, 0.0);
    }

    #[test]
    fn rejects_reversed_bounds() {
        let err = integrate_adaptive(|x| x, 2.0, 1.0, 1e-10).unwrap_err();
        assert!(matches!(err, ChronosError::NumericalFailure { .. }));
    }

    #[test]
    fn rejects_non_finite_bounds() {
        let err = integrate_adaptive(|x| x, 0.0, f64::INFINITY, 1e-10).unwrap_err();
        assert!(matches!(err, ChronosError::NumericalFailure { .. }));
    }

    #[test]
    fn tail_integral_of_power_law() {
        // ∫_2^∞ x^-3 dx = 1/(2*4) = 0.125
        let v = integrate_tail(|x| x.powi(-3), 2.0, 3.0, 1e-12).unwrap();
        assert!((v - 0.125).abs() < 1e-8, "got {v}");
    }

    #[test]
    fn tail_integral_pareto_survival() {
        // ∫_a^∞ (a/x)^β dx = a/(β-1)
        let a = 5.0;
        let beta = 1.5;
        let v = integrate_tail(|x| (a / x).powf(beta), a, beta, 1e-12).unwrap();
        assert!((v - a / (beta - 1.0)).abs() < 1e-6, "got {v}");
    }

    #[test]
    fn tail_rejects_slow_decay() {
        let err = integrate_tail(|x| 1.0 / x, 1.0, 1.0, 1e-10).unwrap_err();
        assert!(matches!(err, ChronosError::NumericalFailure { .. }));
    }

    #[test]
    fn tail_rejects_nonpositive_start() {
        let err = integrate_tail(|x| x.powi(-2), 0.0, 2.0, 1e-10).unwrap_err();
        assert!(matches!(err, ChronosError::NumericalFailure { .. }));
    }

    #[test]
    fn tail_rejects_decay_too_slow_to_truncate() {
        // p = 1.01 needs u up to 3200; truncating at 700 would silently
        // drop ~1e-3 of the integral.
        let err = integrate_tail(|x| x.powf(-1.01), 1.0, 1.01, 1e-10).unwrap_err();
        assert!(matches!(err, ChronosError::NumericalFailure { .. }));
        assert!(integrate_tail(|x| x.powf(-1.05), 1.0, 1.05, 1e-10).is_ok());
    }

    #[test]
    fn gauss_series_matches_closed_forms() {
        // b = c: geometric series.
        for y in [0.0, 0.3, 0.9, 0.999] {
            let v = gauss_series(1.7, 1.7, y).unwrap();
            assert!(approx_eq(v, 1.0 / (1.0 - y), 0.0, 1e-12), "y={y}: {v}");
        }
        // ₂F₁(1, 1; 2; y) = −ln(1 − y)/y.
        for y in [0.1, 0.5, 0.95] {
            let v = gauss_series(1.0, 2.0, y).unwrap();
            let exact = -(-y).ln_1p() / y;
            assert!(approx_eq(v, exact, 0.0, 1e-14), "y={y}: {v} vs {exact}");
        }
    }

    #[test]
    fn gauss_series_rejects_outside_domain_and_non_convergence() {
        for (b, c, y) in [
            (0.0, 1.0, 0.5),
            (2.0, 1.0, 0.5),
            (1.0, 2.0, 1.0),
            (1.0, 2.0, -0.1),
            (1.0, f64::INFINITY, 0.5),
            (f64::NAN, 2.0, 0.5),
        ] {
            let err = gauss_series(b, c, y).unwrap_err();
            assert!(matches!(err, ChronosError::NumericalFailure { .. }));
        }
        // Within the domain but too close to y = 1 for the term cap.
        let err = gauss_series(1.0, 1.0, 1.0 - 1e-9).unwrap_err();
        assert!(matches!(err, ChronosError::NumericalFailure { .. }));
    }

    #[test]
    fn clamp_probability_handles_nan_and_overflow() {
        assert_eq!(clamp_probability(f64::NAN), 0.0);
        assert_eq!(clamp_probability(1.2), 1.0);
        assert_eq!(clamp_probability(-0.3), 0.0);
        assert_eq!(clamp_probability(0.42), 0.42);
    }

    #[test]
    fn approx_eq_behaviour() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9, 1e-9));
        assert!(approx_eq(1e9, 1e9 * (1.0 + 1e-10), 1e-9, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9, 1e-9));
    }
}
