//! The flat-row LU kernel is pinned, bit for bit, to the indexed kernel it
//! replaced (`caffeine_bench::perf::ReferenceLu`): every solution, every
//! `Singular { pivot }` error and every determinant agree exactly, for
//! real and complex matrices with exact zeros, signed zeros, pivot ties,
//! near-singular and non-finite entries. The kernel factors through
//! `Scalar::prepare_divisor` and pivots on `Complex64::abs`'s zero-part
//! shortcuts, so `Complex64::abs` is pinned to `hypot` here as well.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use caffeine_bench::perf::{mna_like_system, ReferenceLu, ReferenceScalar};
use caffeine_linalg::{Complex64, LinalgError, Lu, Matrix, Scalar};

/// The bit patterns of a scalar, one word per real part. Every NaN maps
/// to one word: Rust leaves the sign and payload of an arithmetic NaN
/// unspecified, so even `x / d` and its inlined definition `x * d.recip()`
/// may differ there. Everything else compares bit for bit.
trait Bits: Copy {
    fn bits(self) -> Vec<u64>;
}

fn word(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

impl Bits for f64 {
    fn bits(self) -> Vec<u64> {
        vec![word(self)]
    }
}

impl Bits for Complex64 {
    fn bits(self) -> Vec<u64> {
        vec![word(self.re), word(self.im)]
    }
}

/// One real value of the kinds that make pivoting interesting.
fn part(rng: &mut StdRng, zero_weight: u32) -> f64 {
    let kind = rng.gen_range(0..10 + zero_weight);
    match kind {
        0 => -0.0,
        // Small integers: equal magnitudes of either sign tie as pivots.
        1 | 2 => f64::from(rng.gen_range(-3..4i32)),
        3 => rng.gen_range(-1.0..1.0) * 1e-300,
        4 => rng.gen_range(-1.0..1.0) * 1e300,
        5 => rng.gen_range(-1.0..1.0) * 1e-20,
        6 if rng.gen_range(0..8u32) == 0 => {
            [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3usize)]
        }
        7..=9 => rng.gen_range(-2.0..2.0),
        _ => 0.0,
    }
}

fn real(rng: &mut StdRng) -> f64 {
    part(rng, 4)
}

fn complex(rng: &mut StdRng) -> Complex64 {
    Complex64::new(part(rng, 6), part(rng, 6))
}

/// A random `n × n` matrix and right-hand side of one of six shapes:
/// independent entries; a row repeated (exactly singular); a row repeated
/// with a perturbation near the singularity threshold; an MNA-shaped
/// system; a column of equal magnitudes of random sign among generic
/// entries (pivot ties whose resolution moves bits); or a sparse matrix
/// of signed zeros, sometimes with one NaN (zero multipliers, whose skip
/// keeps a `-0.0` and a NaN where they are). `pair(re, im)` makes a
/// scalar from two parts (a real scalar keeps `re`).
fn system<T: Scalar>(
    rng: &mut StdRng,
    entry: fn(&mut StdRng) -> T,
    pair: fn(f64, f64) -> T,
) -> (Matrix<T>, Vec<T>) {
    let n = rng.gen_range(1..=12usize);
    let generic = |rng: &mut StdRng| pair(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
    let zero = |rng: &mut StdRng| if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
    let signed_zero = |rng: &mut StdRng| pair(zero(rng), zero(rng));
    match rng.gen_range(0..6u32) {
        3 => mna_like_system(n.max(2) + 8, rng.gen_range(0..u64::MAX), pair),
        4 => {
            let tied = rng.gen_range(0..n);
            let v = generic(rng);
            let a = Matrix::from_fn(n, n, |_, j| {
                if j != tied {
                    generic(rng)
                } else if rng.gen_bool(0.5) {
                    v
                } else {
                    -v
                }
            });
            let b = (0..n).map(|_| generic(rng)).collect();
            (a, b)
        }
        5 => {
            let sparse = |rng: &mut StdRng| match rng.gen_range(0..10u32) {
                0..=6 => signed_zero(rng),
                _ => generic(rng),
            };
            let mut a = Matrix::from_fn(n, n, |_, _| sparse(rng));
            if rng.gen_bool(0.5) {
                a[(rng.gen_range(0..n), rng.gen_range(0..n))] = T::from_f64(f64::NAN);
            }
            let b = (0..n).map(|_| sparse(rng)).collect();
            (a, b)
        }
        shape => {
            let mut a = Matrix::from_fn(n, n, |_, _| entry(rng));
            if shape > 0 && n > 1 {
                let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let eps = if shape == 1 { 0.0 } else { 1e-17 };
                for j in 0..n {
                    let v = a[(src, j)];
                    a[(dst, j)] = v + v * T::from_f64(eps);
                }
            }
            let b = (0..n).map(|_| entry(rng)).collect();
            (a, b)
        }
    }
}

/// Factor, solve and determinant, by bits; errors by their description.
type Outcome = Result<(Vec<u64>, Vec<u64>), String>;

fn current<T: Scalar + Bits>(a: &Matrix<T>, b: &[T]) -> Outcome {
    let lu = Lu::factor(a.clone()).map_err(|e| format!("{e:?}"))?;
    let x = lu.solve(b).map_err(|e| format!("{e:?}"))?;
    Ok((x.iter().flat_map(|v| v.bits()).collect(), lu.det().bits()))
}

fn reference<T: ReferenceScalar + Bits>(a: &Matrix<T>, b: &[T]) -> Outcome {
    let lu = ReferenceLu::factor(a).map_err(|e| format!("{e:?}"))?;
    let x = lu.solve(b).map_err(|e| format!("{e:?}"))?;
    Ok((x.iter().flat_map(|v| v.bits()).collect(), lu.det().bits()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn real_lu_matches_the_reference_bitwise(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = system(&mut rng, real, |g, _| g);
        prop_assert_eq!(current(&a, &b), reference(&a, &b));
    }

    #[test]
    fn complex_lu_matches_the_reference_bitwise(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = system(&mut rng, complex, Complex64::new);
        prop_assert_eq!(current(&a, &b), reference(&a, &b));
    }
}

/// The random shapes reach every outcome the oracle has to pin: fits,
/// singular pivots at several positions, and non-finite solutions.
#[test]
fn the_random_shapes_cover_fits_singular_pivots_and_non_finite_values() {
    let mut rng = StdRng::seed_from_u64(36);
    let (mut fits, mut non_finite) = (0, 0);
    let mut pivots = std::collections::BTreeSet::new();
    for _ in 0..2000 {
        let (a, b) = system(&mut rng, complex, Complex64::new);
        match Lu::factor(a) {
            Ok(lu) => {
                fits += 1;
                let x = lu.solve(&b).unwrap();
                non_finite += usize::from(x.iter().any(|v| !v.is_finite()));
            }
            Err(LinalgError::Singular { pivot }) => {
                pivots.insert(pivot);
            }
            Err(e) => panic!("unexpected {e:?}"),
        }
    }
    assert!(fits > 500, "{fits} fits");
    assert!(pivots.len() > 4, "singular pivots {pivots:?}");
    assert!(non_finite > 0, "no non-finite solution");
}

/// Ties: a pivot candidate of equal magnitude (either sign, or a signed
/// zero against a zero) never displaces the one above it.
#[test]
fn pivot_ties_keep_the_upper_row() {
    for (top, below) in [(1.0, -1.0), (-2.0, 2.0), (0.0, -0.0), (-0.0, 0.0)] {
        let a: Matrix = Matrix::from_rows(&[vec![top, 1.0], vec![below, 3.0]]);
        let b = [1.0, -2.0];
        assert_eq!(current(&a, &b), reference(&a, &b), "{top} over {below}");
    }
    let j = Complex64::I;
    let a = Matrix::from_rows(&[
        vec![Complex64::new(3.0, 0.0), Complex64::ONE],
        vec![Complex64::new(0.0, -3.0), j],
    ]);
    let b = [Complex64::ONE, j];
    assert_eq!(current(&a, &b), reference(&a, &b));
}

/// `Complex64::abs` short-cuts a zero part; C99 Annex F makes that
/// `hypot`'s own answer, so the bits match `re.hypot(im)` everywhere but
/// on NaN inputs, which still map to NaN.
#[test]
fn complex_abs_is_hypot_bit_for_bit() {
    let specials = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 3.0,
        -f64::from_bits(1),
        f64::from_bits(1),
        f64::MAX,
        -f64::MAX,
        1.0,
        -3.5,
        1e-300,
        1e300,
    ];
    let mut rng = StdRng::seed_from_u64(7);
    let randoms: Vec<f64> = (0..400)
        .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-320..308)))
        .collect();
    let values: Vec<f64> = specials.iter().chain(&randoms).copied().collect();
    let mut checked = 0;
    for &re in &values {
        for &im in &values {
            let (abs, hypot) = (Complex64::new(re, im).abs(), re.hypot(im));
            if hypot.is_nan() {
                assert!(abs.is_nan(), "|{re:e} + {im:e}j| = {abs:e}, hypot NaN");
            } else {
                assert_eq!(
                    abs.to_bits(),
                    hypot.to_bits(),
                    "|{re:e} + {im:e}j|: {abs:e} vs hypot {hypot:e}"
                );
            }
            assert_eq!(
                Complex64::new(re, im).reference_modulus().to_bits(),
                hypot.to_bits()
            );
            checked += 1;
        }
    }
    assert!(Complex64::new(f64::NAN, 0.0).abs().is_nan());
    assert!(Complex64::new(0.0, f64::NAN).abs().is_nan());
    assert_eq!(checked, values.len() * values.len());
}

/// Dividing through a prepared divisor is the division, bit for bit but
/// for NaN signs and payloads: `Complex64`'s `Div` is `* recip()`, and
/// `f64` keeps its division.
#[test]
fn prepared_division_is_division_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..20_000 {
        let (x, d) = (complex(&mut rng), complex(&mut rng));
        assert_eq!(x.div_prepared(d.prepare_divisor()).bits(), (x / d).bits());
        let (x, d) = (real(&mut rng), real(&mut rng));
        assert_eq!(x.div_prepared(d.prepare_divisor()).bits(), (x / d).bits());
    }
}
