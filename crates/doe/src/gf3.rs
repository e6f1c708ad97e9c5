//! Arithmetic over GF(3), the three-element Galois field.
//!
//! Rao–Hamming orthogonal arrays are built from linear functionals over
//! GF(3)^k; this module supplies the (tiny) field kernel.

/// An element of GF(3), stored as `0`, `1`, or `2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Gf3(u8);

impl Gf3 {
    /// The additive identity.
    pub const ZERO: Gf3 = Gf3(0);
    /// The multiplicative identity.
    pub const ONE: Gf3 = Gf3(1);

    /// Creates an element, reducing the input modulo 3.
    #[inline]
    pub const fn new(v: u8) -> Gf3 {
        Gf3(v % 3)
    }

    /// The canonical representative in `{0, 1, 2}`.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Field addition.
    #[inline]
    pub const fn add(self, rhs: Gf3) -> Gf3 {
        Gf3((self.0 + rhs.0) % 3)
    }

    /// Field multiplication.
    #[inline]
    pub const fn mul(self, rhs: Gf3) -> Gf3 {
        Gf3((self.0 * rhs.0) % 3)
    }

    /// Additive inverse.
    #[inline]
    pub const fn neg(self) -> Gf3 {
        Gf3((3 - self.0) % 3)
    }

    /// Iterator over all three field elements.
    pub fn all() -> impl Iterator<Item = Gf3> {
        (0u8..3).map(Gf3)
    }
}

/// Dot product of two GF(3) vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[Gf3], b: &[Gf3]) -> Gf3 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b.iter())
        .fold(Gf3::ZERO, |acc, (&x, &y)| acc.add(x.mul(y)))
}

/// Enumerates all vectors of GF(3)^k in lexicographic order
/// (least-significant coordinate varies fastest).
pub fn all_vectors(k: usize) -> Vec<Vec<Gf3>> {
    let n = 3usize.pow(k as u32);
    let mut out = Vec::with_capacity(n);
    for mut idx in 0..n {
        let mut v = Vec::with_capacity(k);
        for _ in 0..k {
            v.push(Gf3::new((idx % 3) as u8));
            idx /= 3;
        }
        out.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The element two (= −1 in GF(3)).
    const TWO: Gf3 = Gf3(2);

    #[test]
    fn addition_table() {
        assert_eq!(Gf3::ONE.add(TWO), Gf3::ZERO);
        assert_eq!(TWO.add(TWO), Gf3::ONE);
        assert_eq!(Gf3::ZERO.add(Gf3::ONE), Gf3::ONE);
    }

    #[test]
    fn multiplication_table() {
        assert_eq!(TWO.mul(TWO), Gf3::ONE);
        assert_eq!(Gf3::ONE.mul(TWO), TWO);
        assert_eq!(Gf3::ZERO.mul(TWO), Gf3::ZERO);
    }

    #[test]
    fn negation_is_additive_inverse() {
        for v in Gf3::all() {
            assert_eq!(v.add(v.neg()), Gf3::ZERO);
        }
    }

    #[test]
    fn new_reduces_mod_three() {
        assert_eq!(Gf3::new(7), Gf3::ONE);
        assert_eq!(Gf3::new(3), Gf3::ZERO);
    }

    #[test]
    fn dot_product_is_bilinear() {
        let a = [Gf3::ONE, TWO, Gf3::ZERO];
        let b = [TWO, TWO, Gf3::ONE];
        // 1·2 + 2·2 + 0·1 = 2 + 4 = 6 ≡ 0
        assert_eq!(dot(&a, &b), Gf3::ZERO);
    }

    #[test]
    fn all_vectors_enumerates_exactly_3_pow_k() {
        let vecs = all_vectors(3);
        assert_eq!(vecs.len(), 27);
        // All distinct.
        let mut sorted: Vec<Vec<u8>> = vecs
            .iter()
            .map(|v| v.iter().map(|g| g.value()).collect())
            .collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 27);
    }

    #[test]
    fn all_returns_three_elements() {
        assert_eq!(Gf3::all().count(), 3);
    }
}
