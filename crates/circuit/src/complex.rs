//! Complex double-precision arithmetic.
//!
//! Implemented from scratch (the sanctioned offline crate set has no
//! `num-complex`). The relational encoding of the paper stores the real and
//! imaginary parts as two `DOUBLE` columns (`r`, `i`); this type is the
//! in-memory counterpart used by gates, simulators, and result checking.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    pub re: f64,
    pub im: f64,
}

/// Shorthand constructor.
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    pub const ONE: Complex64 = c64(1.0, 0.0);
    pub const I: Complex64 = c64(0.0, 1.0);

    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// Squared modulus |z|² (a measurement probability for amplitudes).
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus |z|.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument in (-π, π].
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// e^{iθ} — the phase factor used by rotation and phase gates.
    pub fn from_phase(theta: f64) -> Self {
        c64(theta.cos(), theta.sin())
    }

    /// Polar constructor r·e^{iθ}.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        c64(r * theta.cos(), r * theta.sin())
    }

    /// Multiplicative inverse (∞ components if zero, like f64 division).
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        c64(self.re / d, -self.im / d)
    }

    /// Componentwise closeness.
    pub fn approx_eq(self, other: Self, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }

    /// True if both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Scale by a real factor.
    pub fn scale(self, k: f64) -> Self {
        c64(self.re * k, self.im * k)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, rhs: Self) -> Self {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, rhs: Self) -> Self {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, rhs: Self) -> Self {
        c64(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    // Division via the multiplicative inverse is the intended definition.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Self {
        c64(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        c64(re, 0.0)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn field_operations() {
        let a = c64(1.0, 2.0);
        let b = c64(3.0, -1.0);
        assert_eq!(a + b, c64(4.0, 1.0));
        assert_eq!(a - b, c64(-2.0, 3.0));
        assert_eq!(a * b, c64(5.0, 5.0)); // (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
        let q = (a * b) / b;
        assert!(q.approx_eq(a, TOL));
        assert_eq!(-a, c64(-1.0, -2.0));
    }

    #[test]
    fn conj_and_norms() {
        let z = c64(3.0, 4.0);
        assert_eq!(z.conj(), c64(3.0, -4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert!((z * z.conj()).approx_eq(c64(25.0, 0.0), TOL));
    }

    #[test]
    fn phase_and_polar() {
        let p = Complex64::from_phase(std::f64::consts::FRAC_PI_2);
        assert!(p.approx_eq(Complex64::I, TOL));
        let z = Complex64::from_polar(2.0, std::f64::consts::PI);
        assert!(z.approx_eq(c64(-2.0, 0.0), TOL));
        assert!((Complex64::from_phase(0.7).arg() - 0.7).abs() < TOL);
    }

    #[test]
    fn inverse_and_unit_modulus() {
        let z = c64(0.6, 0.8);
        assert!((z.abs() - 1.0).abs() < TOL);
        assert!(z.inv().approx_eq(z.conj(), TOL), "inverse of unit z is conj");
    }

    #[test]
    fn sum_and_assign_ops() {
        let total: Complex64 = [c64(1.0, 1.0), c64(2.0, -1.0)].into_iter().sum();
        assert_eq!(total, c64(3.0, 0.0));
        let mut z = c64(1.0, 0.0);
        z += Complex64::I;
        z *= c64(0.0, 1.0);
        assert!(z.approx_eq(c64(-1.0, 1.0), TOL));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(c64(1.0, -2.0).to_string(), "1-2i");
        assert_eq!(c64(0.5, 0.25).to_string(), "0.5+0.25i");
    }
}
