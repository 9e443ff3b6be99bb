//! Discrete-time second-order low-pass filter.

use serde::{Deserialize, Serialize};

/// An underdamped second-order system
/// `y'' + 2ζωₙ y' + ωₙ² y = ωₙ² u`,
/// integrated with semi-implicit Euler.
///
/// With ζ < 1 the step response overshoots — the source of the PDN's
/// characteristic droop-then-ring shape. Stability of the explicit
/// integration requires `ωₙ·dt ≪ 1`; with the default 5 MHz natural
/// frequency and 3.33 ns steps, `ωₙ·dt ≈ 0.1`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SecondOrderFilter {
    /// Natural (angular) frequency, rad/s.
    pub omega_n: f64,
    /// Damping ratio (0 < ζ < 1 for the underdamped regime).
    pub zeta: f64,
    y: f64,
    y_dot: f64,
}

impl SecondOrderFilter {
    /// Creates a filter at rest with the given natural frequency (Hz) and
    /// damping ratio.
    pub fn new(f_natural_hz: f64, zeta: f64) -> Self {
        SecondOrderFilter {
            omega_n: 2.0 * std::f64::consts::PI * f_natural_hz,
            zeta,
            y: 0.0,
            y_dot: 0.0,
        }
    }

    /// Advances the filter by `dt` seconds with input `u`; returns the
    /// new output.
    #[inline]
    pub fn step(&mut self, u: f64, dt: f64) -> f64 {
        let (omega_sq, damping) = self.coefficients();
        self.step_with(omega_sq, damping, u, dt)
    }

    /// `(ωₙ·ωₙ, 2·ζ·ωₙ)`, left-associated as `step` forms them, so a
    /// caller that hoists them out of its loop rounds identically.
    #[inline]
    pub(crate) fn coefficients(&self) -> (f64, f64) {
        (self.omega_n * self.omega_n, 2.0 * self.zeta * self.omega_n)
    }

    /// [`SecondOrderFilter::step`] with the coefficients precomputed by
    /// [`SecondOrderFilter::coefficients`].
    #[inline]
    pub(crate) fn step_with(&mut self, omega_sq: f64, damping: f64, u: f64, dt: f64) -> f64 {
        let acc = omega_sq * (u - self.y) - damping * self.y_dot;
        self.y_dot += dt * acc;
        self.y += dt * self.y_dot;
        // Flush-to-zero: once settled, the state decays into denormal
        // territory where x86 FP ops run ~100× slower — a real-time trap
        // for a filter stepped hundreds of millions of times.
        if self.y_dot.abs() < 1e-18 {
            self.y_dot = 0.0;
        }
        if self.y.abs() < 1e-18 {
            self.y = 0.0;
        }
        self.y
    }

    /// Current output without advancing time.
    pub fn output(&self) -> f64 {
        self.y
    }

    /// Resets the state to rest.
    pub fn reset(&mut self) {
        self.y = 0.0;
        self.y_dot = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: f64 = 3.33e-9;

    #[test]
    fn settles_to_step_input() {
        let mut f = SecondOrderFilter::new(5e6, 0.3);
        let mut y = 0.0;
        for _ in 0..300_000 {
            y = f.step(1.0, DT);
        }
        assert!((y - 1.0).abs() < 1e-3, "settled at {y}");
    }

    #[test]
    fn underdamped_overshoots() {
        let mut f = SecondOrderFilter::new(5e6, 0.3);
        let mut peak: f64 = 0.0;
        for _ in 0..10_000 {
            peak = peak.max(f.step(1.0, DT));
        }
        assert!(peak > 1.2, "peak = {peak}");
        // Analytic overshoot for ζ=0.3 is exp(-πζ/√(1-ζ²)) ≈ 0.37.
        assert!((peak - 1.37).abs() < 0.05, "peak = {peak}");
    }

    #[test]
    fn overdamped_does_not_overshoot() {
        let mut f = SecondOrderFilter::new(5e6, 1.5);
        let mut peak: f64 = 0.0;
        for _ in 0..300_000 {
            peak = peak.max(f.step(1.0, DT));
        }
        assert!(peak <= 1.0 + 1e-6, "peak = {peak}");
    }

    #[test]
    fn bounded_for_bounded_input() {
        let mut f = SecondOrderFilter::new(5e6, 0.2);
        let mut max_abs: f64 = 0.0;
        for i in 0..100_000 {
            let u = if i % 2 == 0 { 1.0 } else { -1.0 };
            max_abs = max_abs.max(f.step(u, DT).abs());
        }
        assert!(max_abs < 10.0, "unstable: {max_abs}");
    }

    #[test]
    fn reset_restores_rest() {
        let mut f = SecondOrderFilter::new(5e6, 0.3);
        f.step(1.0, DT);
        f.step(1.0, DT);
        f.reset();
        assert_eq!(f.output(), 0.0);
    }
}
