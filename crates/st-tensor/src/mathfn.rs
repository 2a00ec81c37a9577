//! Deterministic, vectorizable transcendental kernels (`exp`, `sigmoid`,
//! `tanh`) shared by the taped ops and the tape-free inference runtime.
//!
//! # Why not libm?
//!
//! Two reasons, both rooted in the workspace's reproducibility contract:
//!
//! 1. **Bit-identical results everywhere.** `f32::exp` / `f32::tanh` call
//!    the platform libm, whose results differ between libc versions and
//!    vectorized math libraries. Every sigmoid/tanh in this crate — taped
//!    or infer — now routes through these polynomials, so a model produces
//!    the same bits on every host, and the fused inference epilogues stay
//!    bit-identical to the taped oracle *by construction* (same code).
//! 2. **Vectorization.** glibc's scalar `tanhf` costs ~17 ns/call on the
//!    benchmark host — at `beam × 3·hidden` activations per GRU step that
//!    alone exceeds the decode latency budget. These kernels are
//!    branch-free (compute-both-sides + select), so LLVM vectorizes them
//!    8 lanes wide under the crate's AVX2 tier, and every build executes
//!    the same f32 operations in the same order — results are identical
//!    whichever build runs.
//!
//! Branch-free is not enough on its own. `exp` once built its `2^n` scale
//! from `n as i32`: Rust's saturating float-to-int cast has no single packed
//! instruction, so LLVM converted the lanes one at a time (18 scalar
//! `vcvttss2si` in the AVX2 GRU gate epilogue) and every kernel that calls
//! `exp` ran at a fraction of its width while still looking vectorized in
//! the source. `exp` now reads `n` out of the bits of `n + 1.5·2²³`, which
//! is exact for the integers `exp` produces and is plain lane-wise float
//! and integer arithmetic. `scripts/check_vectorized.sh`, run in CI, fails
//! if a scalar conversion reappears in the tier builds of the slice
//! kernels or the GRU epilogue.
//!
//! Accuracy: ≤ a few ulp of the correctly-rounded result over the ranges
//! the models use (validated against an `f64` reference in the tests).
//! `exp` clamps its argument to ±87/88, which saturates ~1e-38 / 1.65e38 —
//! ample for activations, not a general-purpose libm replacement.
//!
//! The polynomial forms follow the classic Cephes `expf`/`tanhf`
//! (Cody–Waite argument reduction, degree-5/6 minimax polynomials).

/// log2(e), the reduction constant for `exp`.
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// ln(2) split for Cody–Waite reduction: high part (exact in 12 bits —
/// the literal is the exact decimal expansion of that bit pattern, not a
/// rounded ln 2).
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693_359_375;
/// ...and the low-order correction.
const LN2_LO: f32 = -2.121_944_4e-4;
/// 1.5·2²³: adding it to an integer-valued `f32` of magnitude below 2²²
/// leaves that integer, in two's complement, in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// Branch-free `e^x` with the argument clamped to `[-87, 88]`.
///
/// `exp(-87) ≈ 1.6e-38` (smallest normal neighborhood) and `exp(88) ≈
/// 1.65e38` (just under `f32::MAX`), so the clamp only flattens inputs that
/// are saturated anyway for sigmoid/tanh purposes. NaN propagates.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let x = x.clamp(-87.0, 88.0);
    // n = round(x / ln 2), as a float so the Cody–Waite subtraction below
    // stays exact; floor(x·log2e + 0.5) is correct over the clamped range.
    let n = (x * LOG2E + 0.5).floor();
    // r = x − n·ln2, in two steps to keep the reduction error below 1 ulp.
    let r = x - n * LN2_HI - n * LN2_LO;
    // Degree-5 minimax polynomial for e^r on r ∈ [−ln2/2, ln2/2] (Cephes).
    let mut p = 1.987_569_2e-4;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 5e-1;
    let y = p * (r * r) + r + 1.0;
    // Scale by 2^n through the exponent bits (n ∈ [−126, 127] after the
    // argument clamp, so the bit pattern is always a normal number). Adding
    // 1.5·2²³ puts the integer n in the low mantissa bits exactly (|n| is
    // far below 2²²), and those bits plus the bias, shifted into the
    // exponent field, are `(n + 127) << 23`: the high bits of the sum shift
    // out. Unlike `n as i32`, every step vectorizes.
    let shifted = (n + ROUND_MAGIC).to_bits();
    let scale = f32::from_bits(shifted.wrapping_add(127) << 23);
    y * scale
}

/// Branch-free logistic sigmoid `1 / (1 + e^{-x})`.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// Branch-free `tanh(x)` (Cephes form).
///
/// Small arguments (|x| < 0.625) use an odd minimax polynomial; the rest
/// use `1 − 2/(e^{2|x|} + 1)` with the sign restored. Both sides are
/// computed and selected, so the function if-converts and vectorizes.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let ax = x.abs();
    // Large branch: saturates to ±1.0 naturally (for |x| ≳ 9 the quotient
    // underflows below 1 ulp of 1.0, and `exp`'s clamp keeps it finite).
    let big = 1.0 - 2.0 / (exp(2.0 * ax) + 1.0);
    // Small branch: x + x³·P(x²) on |x| < 0.625 (Cephes minimax).
    let z = x * x;
    let mut p = -5.704_988_7e-3;
    p = p * z + 2.063_909e-2;
    p = p * z - 5.373_971_4e-2;
    p = p * z + 1.333_144_2e-1;
    p = p * z - 3.333_328_3e-1;
    let small = p * z * x + x;
    if ax < 0.625 {
        small
    } else if x.is_sign_negative() {
        -big
    } else {
        big
    }
}

crate::dispatch::tiered! {
    /// In-place sigmoid over a slice, on the widest SIMD tier the host has.
    /// Every tier runs identical arithmetic.
    pub fn sigmoid_slice_mut / sigmoid_slice_on(xs: &mut [f32]) => sigmoid_slice_impl;
}

#[inline(always)]
fn sigmoid_slice_impl(xs: &mut [f32]) {
    for x in xs {
        *x = sigmoid(*x);
    }
}

crate::dispatch::tiered! {
    /// In-place tanh over a slice, dispatched like [`sigmoid_slice_mut`].
    pub fn tanh_slice_mut / tanh_slice_on(xs: &mut [f32]) => tanh_slice_impl;
}

#[inline(always)]
fn tanh_slice_impl(xs: &mut [f32]) {
    for x in xs {
        *x = tanh(*x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worst acceptable relative error vs the f64 reference (≈ 4 ulp).
    const REL_TOL: f64 = 5e-7;

    #[test]
    fn exp_matches_f64_reference() {
        let mut worst = 0.0f64;
        for i in -8700..=8700 {
            let x = i as f32 * 0.01;
            let got = exp(x) as f64;
            let want = (x as f64).exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
        }
        assert!(worst < REL_TOL, "exp worst rel err {worst:e}");
    }

    #[test]
    fn exp_clamps_not_overflows() {
        assert!(exp(1000.0).is_finite());
        assert!(exp(-1000.0) > 0.0);
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(exp(0.0), 1.0);
    }

    #[test]
    fn sigmoid_matches_f64_reference() {
        let mut worst = 0.0f64;
        for i in -4000..=4000 {
            let x = i as f32 * 0.01;
            let got = sigmoid(x) as f64;
            let want = 1.0 / (1.0 + (-(x as f64)).exp());
            let rel = ((got - want) / want.max(1e-30)).abs();
            worst = worst.max(rel);
        }
        assert!(worst < REL_TOL, "sigmoid worst rel err {worst:e}");
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(100.0), 1.0);
        // exp's clamp leaves a subnormal remainder instead of exact 0.
        assert!(sigmoid(-100.0) < 1e-37);
    }

    #[test]
    fn tanh_matches_f64_reference() {
        let mut worst = 0.0f64;
        for i in -2000..=2000 {
            let x = i as f32 * 0.01;
            let got = tanh(x) as f64;
            let want = (x as f64).tanh();
            let denom = want.abs().max(1e-3); // abs error near 0, rel elsewhere
            let rel = ((got - want) / denom).abs();
            worst = worst.max(rel);
        }
        assert!(worst < REL_TOL, "tanh worst rel err {worst:e}");
        assert_eq!(tanh(0.0), 0.0);
        assert_eq!(tanh(25.0), 1.0);
        assert_eq!(tanh(-25.0), -1.0);
    }

    #[test]
    fn tanh_is_odd_and_continuous_at_branch() {
        for i in 0..100 {
            let x = 0.6 + i as f32 * 0.0005; // straddles the 0.625 switch
            assert_eq!(tanh(-x), -tanh(x));
            let d = (tanh(x + 5e-4) - tanh(x)).abs();
            assert!(d < 1e-3, "jump at {x}: {d}");
        }
    }

    /// `exp` as it built its `2^n` scale before the bit trick: through the
    /// saturating `n as i32` cast, which LLVM cannot vectorize. The oracle
    /// the current `exp` must match bit for bit.
    fn exp_cast(x: f32) -> f32 {
        let x = x.clamp(-87.0, 88.0);
        let n = (x * LOG2E + 0.5).floor();
        let r = x - n * LN2_HI - n * LN2_LO;
        let mut p = 1.987_569_2e-4;
        p = p * r + 1.398_199_9e-3;
        p = p * r + 8.333_452e-3;
        p = p * r + 4.166_579_6e-2;
        p = p * r + 1.666_666_5e-1;
        p = p * r + 5e-1;
        let y = p * (r * r) + r + 1.0;
        let scale = f32::from_bits((((n as i32) + 127) << 23) as u32);
        y * scale
    }

    fn sigmoid_cast(x: f32) -> f32 {
        1.0 / (1.0 + exp_cast(-x))
    }

    fn tanh_cast(x: f32) -> f32 {
        let ax = x.abs();
        let big = 1.0 - 2.0 / (exp_cast(2.0 * ax) + 1.0);
        let z = x * x;
        let mut p = -5.704_988_7e-3;
        p = p * z + 2.063_909e-2;
        p = p * z - 5.373_971_4e-2;
        p = p * z + 1.333_144_2e-1;
        p = p * z - 3.333_328_3e-1;
        let small = p * z * x + x;
        if ax < 0.625 {
            small
        } else if x.is_sign_negative() {
            -big
        } else {
            big
        }
    }

    /// Equal bits, or both NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// The bit-trick `exp`, and `sigmoid` and `tanh` through it, return the
    /// cast formula's bits on 2²⁴ bit patterns — every value of the top 24
    /// bits (sign, exponent and high mantissa), so all of f32 is covered
    /// evenly, with hashed low bits — and on the special values: signed
    /// zeros and infinities, NaNs, subnormals, and both clamp edges and the
    /// inputs around them.
    #[test]
    fn bit_trick_matches_the_cast_formula() {
        let special = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(1),           // smallest subnormal
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff), // largest subnormal
            -f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            -87.0,
            88.0,
            -88.0,
            87.0,
            // The clamp edges' neighbours and the 2^n steps around them.
            f32::from_bits((-87.0f32).to_bits() - 1),
            f32::from_bits((-87.0f32).to_bits() + 1),
            f32::from_bits(88.0f32.to_bits() - 1),
            f32::from_bits(88.0f32.to_bits() + 1),
            126.5 * std::f32::consts::LN_2,
            -125.5 * std::f32::consts::LN_2,
            -126.5 * std::f32::consts::LN_2,
        ];
        let hashed =
            (0..1u32 << 24).map(|i| f32::from_bits((i << 8) | (i.wrapping_mul(0x9E37_79B1) >> 24)));
        let mut checked = 0usize;
        for x in special.into_iter().chain(hashed) {
            assert!(
                same(exp(x), exp_cast(x)),
                "exp({x:e}) [{:#010x}]",
                x.to_bits()
            );
            assert!(same(sigmoid(x), sigmoid_cast(x)), "sigmoid({x:e})");
            assert!(same(tanh(x), tanh_cast(x)), "tanh({x:e})");
            checked += 1;
        }
        assert!(checked > 1 << 24);
    }

    #[test]
    fn slice_kernels_match_scalar_exactly() {
        let xs: Vec<f32> = (-300..300).map(|i| i as f32 * 0.037).collect();
        let mut s = xs.clone();
        sigmoid_slice_mut(&mut s);
        for (y, &x) in s.iter().zip(&xs) {
            assert_eq!(*y, sigmoid(x));
        }
        let mut t = xs.clone();
        tanh_slice_mut(&mut t);
        for (y, &x) in t.iter().zip(&xs) {
            assert_eq!(*y, tanh(x));
        }
    }
}
