use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::Complex64;

/// A field scalar usable in the generic dense kernels ([`crate::Matrix`],
/// [`crate::Lu`]).
///
/// Implemented for `f64` and [`Complex64`]. The trait is deliberately small:
/// it captures exactly what LU factorization with partial pivoting needs —
/// ring arithmetic, division, a magnitude for pivoting, and the conjugate
/// for Hermitian-style products.
///
/// This trait is sealed in spirit: downstream crates may implement it, but
/// the kernels are only tested against the two provided types.
pub trait Scalar:
    Copy
    + Debug
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Embed a real value.
    fn from_f64(v: f64) -> Self;
    /// Magnitude used for pivot selection (any norm works; we use the
    /// absolute value / modulus).
    fn modulus(self) -> f64;
    /// Complex conjugate (identity for reals).
    fn conj(self) -> Self;
    /// `true` when the value is finite (both parts for complex numbers).
    fn is_finite_scalar(self) -> bool;

    /// `self` in the form [`Scalar::div_prepared`] divides by. A kernel
    /// that divides many values by one pivot prepares it once.
    ///
    /// The default is the value itself (one correctly rounded division
    /// per quotient, as for `f64`); [`Complex64`] returns its reciprocal,
    /// because its `Div` is by definition `* recip()`.
    #[inline]
    fn prepare_divisor(self) -> Self {
        self
    }

    /// `self / d`, bit for bit, given `prepared = d.prepare_divisor()`.
    #[inline]
    fn div_prepared(self, prepared: Self) -> Self {
        self / prepared
    }
}

impl Scalar for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn conj(self) -> Self {
        self
    }
    #[inline]
    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }
}

impl Scalar for Complex64 {
    #[inline]
    fn zero() -> Self {
        Complex64::ZERO
    }
    #[inline]
    fn one() -> Self {
        Complex64::ONE
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        Complex64::new(v, 0.0)
    }
    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn conj(self) -> Self {
        Complex64::conj(self)
    }
    #[inline]
    fn is_finite_scalar(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
    #[inline]
    fn prepare_divisor(self) -> Self {
        self.recip()
    }
    #[inline]
    fn div_prepared(self, prepared: Self) -> Self {
        self * prepared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_scalar_contract() {
        assert_eq!(<f64 as Scalar>::zero(), 0.0);
        assert_eq!(<f64 as Scalar>::one(), 1.0);
        assert_eq!(<f64 as Scalar>::from_f64(2.5), 2.5);
        assert_eq!((-3.0f64).modulus(), 3.0);
        assert_eq!(Scalar::conj(4.0f64), 4.0);
        assert!(Scalar::is_finite_scalar(1.0f64));
        assert!(!Scalar::is_finite_scalar(f64::NAN));
    }

    #[test]
    fn complex_scalar_contract() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z.modulus(), 5.0);
        assert_eq!(Scalar::conj(z), Complex64::new(3.0, 4.0));
        assert!(Scalar::is_finite_scalar(z));
        assert!(!Scalar::is_finite_scalar(Complex64::new(
            f64::INFINITY,
            0.0
        )));
        assert_eq!(<Complex64 as Scalar>::one(), Complex64::new(1.0, 0.0));
    }
}
