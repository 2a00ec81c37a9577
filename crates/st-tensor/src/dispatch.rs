//! Runtime SIMD tier selection shared by every multiply-compiled kernel.
//!
//! A kernel is one safe `#[inline(always)]` body. The [`tiered!`] macro
//! compiles it once per [`Tier`] — baseline, then inside a
//! `#[target_feature]` wrapper for AVX2+FMA — and runs the widest build
//! the host has, picked once per process. The crate therefore stays
//! portable without `-C target-cpu`, while hot loops run 8 lanes wide on
//! AVX2 hosts.
//!
//! There is no AVX-512 tier. One built the same way returned the same bits
//! and ran up to 1.5× faster than AVX2 on a quiet host, but lost most of
//! that lead whenever other virtual machines loaded the host's cores, so a
//! server's capacity depended on when it was measured (DESIGN §12.3).
//!
//! Every tier returns the baseline's bits. The bodies never call
//! `mul_add` (st-lint's `fma-forbidden` rule), and LLVM does not contract
//! a separate multiply and add into an FMA, so each build runs the same
//! IEEE operations on each element in the same order; wider registers only
//! change how many elements one instruction carries. The `tier_kernels`
//! test checks every kernel on every tier the host has against the
//! baseline body.

/// A code-generation tier: which instruction-set extensions a kernel build
/// may use. Ordered by width, so `a <= b` means a host that runs `b` also
/// runs `a`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Tier {
    /// The target's baseline (SSE2 on x86-64; every build off x86-64).
    Baseline,
    /// AVX2 + FMA: 8-lane `f32` vectors.
    Avx2,
}

impl Tier {
    /// Every tier, narrowest first.
    #[cfg(test)]
    pub(crate) const ALL: [Tier; 2] = [Tier::Baseline, Tier::Avx2];

    /// The tier's name as benchmark records print it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Tier::Baseline => "baseline",
            Tier::Avx2 => "avx2",
        }
    }

    /// The widest tier this CPU can execute, checked once per process.
    /// `ST_TENSOR_FORCE_SCALAR` does not lower it: it says what may run,
    /// not what runs (see [`Tier::active`]).
    pub(crate) fn host() -> Tier {
        use std::sync::OnceLock;
        static HOST: OnceLock<Tier> = OnceLock::new();
        *HOST.get_or_init(detect)
    }

    /// The tier the kernels run on: [`Tier::host`], or [`Tier::Baseline`]
    /// when the `ST_TENSOR_FORCE_SCALAR` environment variable is set to
    /// anything non-empty — the escape hatch CI uses to run the portable
    /// kernels on SIMD hardware. Checked once per process.
    pub(crate) fn active() -> Tier {
        use std::sync::OnceLock;
        static ACTIVE: OnceLock<Tier> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            if std::env::var_os("ST_TENSOR_FORCE_SCALAR").is_some_and(|v| !v.is_empty()) {
                Tier::Baseline
            } else {
                Tier::host()
            }
        })
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Tier {
    if cfg!(miri) {
        // Miri interprets MIR and does not model the SIMD extensions; force
        // the portable kernels so the unsafe paths stay checkable under it.
        return Tier::Baseline;
    }
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        Tier::Avx2
    } else {
        Tier::Baseline
    }
}

/// Off x86-64 the baseline kernels are the only kernels.
#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Tier {
    Tier::Baseline
}

/// The kernel tier this process runs — `"avx2"` or `"baseline"` — public
/// so benchmark writers can record which kernels produced their numbers.
pub fn simd_tier() -> &'static str {
    Tier::active().name()
}

/// Defines a kernel compiled once per [`Tier`] from one `#[inline(always)]`
/// body:
///
/// ```text
/// tiered! {
///     /// docs
///     pub fn name / name_on(arg: Ty, ...) => body;
/// }
/// ```
///
/// `name(args)` runs `body(args)` built for [`Tier::active`];
/// `name_on(tier, args)` runs the `tier` build and panics if the host
/// lacks it (the `tier_kernels` test calls it for every tier). A macro and
/// not a generic runner taking a closure: LLVM did not inline a closure
/// into a `#[target_feature]` runner, so every tier ran the baseline code.
macro_rules! tiered {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident / $on:ident($($arg:ident: $ty:ty),* $(,)?) => $body:path;
    ) => {
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        $vis fn $name($($arg: $ty),*) {
            $on($crate::dispatch::Tier::active(), $($arg),*)
        }

        #[doc = concat!("[`", stringify!($name), "`] compiled for `tier`.")]
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn $on(tier: $crate::dispatch::Tier, $($arg: $ty),*) {
            use $crate::dispatch::Tier;
            assert!(
                tier <= Tier::host(),
                "{} kernels requested on a {} host",
                tier.name(),
                Tier::host().name()
            );
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2,fma")]
                #[allow(clippy::too_many_arguments)]
                fn avx2($($arg: $ty),*) {
                    $body($($arg),*)
                }
                // SAFETY: the wrapper's only unsafety is `#[target_feature]`:
                // it is the safe body, with no raw pointers or intrinsics of
                // its own, compiled for AVX2 and FMA. The assert above proved
                // the CPU has them (`Tier::host` probes with
                // `is_x86_feature_detected!`), so no instruction can be
                // illegal here.
                if tier == Tier::Avx2 {
                    return unsafe { avx2($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}

pub(crate) use tiered;

#[cfg(test)]
mod tests {
    use super::Tier;
    use crate::array::Array;
    use crate::infer::ConvShape;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// `len` values in `[-4, 4)`, about one in eight an exact `±0.0`.
    fn vals(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| match rng.gen_range(0..16) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-4.0f32..4.0),
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A kernel run on one tier over a sweep of shapes, as output bits.
    type Run = Box<dyn Fn(Tier) -> Vec<u32>>;

    /// A GEMM kernel's `_on` entry: `(tier, m, k, n, a, b, out, acc)`.
    type GemmOn = fn(Tier, usize, usize, usize, &[f32], &[f32], &mut [f32], bool);

    /// GEMM shapes `(m, k, n)`: every row count up to two 4-row blocks
    /// plus a tail, against one to twelve column tiles, full and partial.
    fn gemm_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for m in 1..=9 {
            for (k, n) in [
                (1, 1),
                (2, 5),
                (3, 20),
                (13, 37),
                (7, 16),
                (16, 64),
                (5, 100),
                (64, 192),
            ] {
                shapes.push((m, k, n));
            }
        }
        shapes
    }

    fn kernels() -> Vec<(&'static str, Run)> {
        let gemm = |f: GemmOn, b_len: fn(usize, usize) -> usize| -> Run {
            Box::new(move |tier| {
                let mut got = Vec::new();
                for (seed, (m, k, n)) in gemm_shapes().into_iter().enumerate() {
                    let seed = seed as u64 * 3;
                    let (a, b) = (vals(m * k, seed), vals(b_len(k, n), seed + 1));
                    for acc in [false, true] {
                        let mut out = vals(m * n, seed + 2);
                        f(tier, m, k, n, &a, &b, &mut out, acc);
                        got.extend(bits(&out));
                    }
                }
                got
            })
        };
        let packed_len = |k: usize, n: usize| n.div_ceil(crate::gemm::NR) * k * crate::gemm::NR;
        let rows = |f: fn(Tier, &mut Array)| -> Run {
            Box::new(move |tier| {
                let mut got = Vec::new();
                for m in 1..=5 {
                    for w in [1, 7, 16, 33, 100] {
                        let mut a = Array::from_vec(&[m, w], vals(m * w, (m * 100 + w) as u64));
                        f(tier, &mut a);
                        got.extend(bits(a.data()));
                    }
                }
                got
            })
        };
        let slice = |f: fn(Tier, &mut [f32])| -> Run {
            Box::new(move |tier| {
                // Bit patterns spread over all of f32 (NaNs, infinities and
                // subnormals included), then the activations' working range.
                let mut xs: Vec<f32> = (0..1u32 << 14)
                    .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B1) ^ (i << 18)))
                    .collect();
                xs.extend(vals(4099, 5).iter().map(|v| v * 6.0));
                f(tier, &mut xs);
                bits(&xs)
            })
        };
        vec![
            ("gemm_packed", gemm(crate::gemm::gemm_packed_on, packed_len)),
            (
                "gemm_rowmajor",
                gemm(crate::gemm::gemm_rowmajor_on, |k, n| k * n),
            ),
            (
                "bt_dot_rows",
                gemm(crate::gemm::bt_dot_rows_on, |k, n| k * n),
            ),
            (
                "outer_at",
                Box::new(|tier| {
                    let mut got = Vec::new();
                    for k in 1..=2 {
                        for m in 3..=9 {
                            for n in [1, 7, 16, 33] {
                                let seed = (k * 100 + m * 10 + n) as u64;
                                let (a, b) = (vals(k * m, seed), vals(k * n, seed + 1));
                                for acc in [false, true] {
                                    let mut out = vals(m * n, seed + 2);
                                    crate::gemm::outer_at_on(tier, m, k, n, &a, &b, &mut out, acc);
                                    got.extend(bits(&out));
                                }
                            }
                        }
                    }
                    got
                }),
            ),
            (
                "add_bias_rows",
                rows(|tier, a| {
                    let bias = vals(a.cols(), 9);
                    crate::infer::add_bias_rows_on(tier, a, &bias)
                }),
            ),
            ("softmax_rows", rows(crate::infer::softmax_rows_on)),
            ("log_softmax_rows", rows(crate::infer::log_softmax_rows_on)),
            (
                "gru_gates_fused",
                Box::new(|tier| {
                    let mut got = Vec::new();
                    for h in [1, 7, 16, 64] {
                        for m in 1..=9 {
                            let seed = (h * 100 + m) as u64 * 4;
                            let mut gx = Array::from_vec(&[m, 3 * h], vals(m * 3 * h, seed));
                            let gh = Array::from_vec(&[m, 3 * h], vals(m * 3 * h, seed + 1));
                            let bias = vals(3 * h, seed + 2);
                            let mut st = Array::from_vec(&[m, h], vals(m * h, seed + 3));
                            crate::infer::gru_gates_fused_on(tier, h, &mut gx, &gh, &bias, &mut st);
                            got.extend(bits(gx.data()));
                            got.extend(bits(st.data()));
                        }
                    }
                    got
                }),
            ),
            (
                "gate_grads",
                Box::new(|tier| {
                    let mut got = Vec::new();
                    for h in [1, 7, 16, 64] {
                        for m in 1..=5 {
                            let seed = (h * 100 + m) as u64 * 8;
                            let (g, hv) = (vals(m * h, seed), vals(m * h, seed + 1));
                            let (gates, gh) =
                                (vals(m * 3 * h, seed + 2), vals(m * 3 * h, seed + 3));
                            let mut dh = vals(m * h, seed + 4);
                            let mut dgx = vec![0.0; m * 3 * h];
                            let mut dgh = vec![0.0; m * 3 * h];
                            crate::gru::gate_grads_on(
                                tier, h, &g, &gates, &gh, &hv, &mut dh, &mut dgx, &mut dgh,
                            );
                            got.extend(bits(&dh));
                            got.extend(bits(&dgx));
                            got.extend(bits(&dgh));
                        }
                    }
                    got
                }),
            ),
            ("sigmoid_slice", slice(crate::mathfn::sigmoid_slice_on)),
            ("tanh_slice", slice(crate::mathfn::tanh_slice_on)),
            (
                "conv_scatter",
                Box::new(|tier| {
                    let mut got = Vec::new();
                    for (stride, pad) in [(1, 1), (2, 0), (2, 1)] {
                        let (n, c, h, w, o, kh, kw) = (3, 2, 5, 6, 4, 3, 3);
                        let s = ConvShape {
                            n,
                            c,
                            h,
                            w,
                            o,
                            kh,
                            kw,
                            oh: (h + 2 * pad - kh) / stride + 1,
                            ow: (w + 2 * pad - kw) / stride + 1,
                            stride,
                            pad,
                        };
                        let seed = (stride * 10 + pad) as u64 * 3;
                        let gt = vals(o * s.oh * s.ow * n, seed);
                        let kt = vals(o * kh * kw * c, seed + 1);
                        let mut gxt = vals(h * w * c * n, seed + 2);
                        crate::conv::scatter_on(tier, &s, &gt, &kt, &mut gxt);
                        got.extend(bits(&gxt));
                    }
                    got
                }),
            ),
        ]
    }

    /// Every tiered kernel, run on each tier the host has, returns the bits
    /// of its baseline body. A tier the host lacks is reported as not run.
    #[test]
    fn tier_kernels() {
        let (ran, missing): (Vec<Tier>, Vec<Tier>) =
            Tier::ALL.into_iter().partition(|&t| t <= Tier::host());
        let kernels = kernels();
        for (name, run) in &kernels {
            let want = run(Tier::Baseline);
            for &tier in &ran[1..] {
                assert!(run(tier) == want, "{name}: {} bits differ", tier.name());
            }
        }
        let names = |ts: &[Tier]| ts.iter().map(|t| t.name()).collect::<Vec<_>>().join(", ");
        println!(
            "tier_kernels: {} kernels bit-identical on: {}; not run (host lacks them): {}",
            kernels.len(),
            names(&ran),
            if missing.is_empty() {
                "none".to_string()
            } else {
                names(&missing)
            }
        );
    }
}
