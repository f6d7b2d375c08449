//! # deepjoin-simd
//!
//! Runtime-dispatched `f32` kernels for the hot distance paths (DESIGN.md
//! §"Performance"). Every index in `deepjoin-ann`, the embedding helpers in
//! `deepjoin-embed` and the matrix loops in `deepjoin-nn` funnel their inner
//! products through this crate, so one dispatch decision accelerates the
//! whole system. The column encoder's inference forward also runs on the
//! vector×matrix ([`vecmat`]) and vector `tanh` ([`tanh`]) kernels here.
//!
//! Three implementations of each kernel exist:
//!
//! * **scalar** — the straight-line reference (`iter().zip()` chains), kept
//!   as the parity oracle and the before-side of the bench baseline;
//! * **portable** — an 8-accumulator unrolled loop with a fixed reduction
//!   tree, written so LLVM autovectorizes it on any target;
//! * **avx2** — explicit AVX2+FMA intrinsics behind
//!   `is_x86_feature_detected!`, with a 4-row blocked one-query-vs-many
//!   kernel ([`l2_sq_block`]/[`dot_block`]).
//!
//! Dispatch is decided once per process (cached CPUID probe) and can be
//! pinned with [`force_kernel`] so benchmarks can measure before/after in
//! one binary. Results are deterministic for a fixed kernel: each variant
//! uses a fixed accumulation order, so the same inputs always produce the
//! same bits regardless of thread count or call site.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which kernel implementation serves the dispatched entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Straight-line reference implementation.
    Scalar,
    /// Portable 8-lane unrolled accumulators (autovectorizes).
    Portable8,
    /// AVX2 + FMA intrinsics (x86-64 only, runtime-detected).
    Avx2,
}

impl Kernel {
    /// Stable lower-case name (used in bench output).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Portable8 => "portable8",
            Kernel::Avx2 => "avx2",
        }
    }
}

/// 0 = no override, otherwise `Kernel as u8 + 1`.
static FORCED: AtomicU8 = AtomicU8::new(0);
static DETECTED: OnceLock<Kernel> = OnceLock::new();

fn detect() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Kernel::Avx2;
        }
    }
    Kernel::Portable8
}

/// The kernel the dispatched entry points currently use.
#[inline]
pub fn active_kernel() -> Kernel {
    match FORCED.load(Ordering::Relaxed) {
        1 => Kernel::Scalar,
        2 => Kernel::Portable8,
        3 => Kernel::Avx2,
        _ => *DETECTED.get_or_init(detect),
    }
}

/// Pin the dispatched kernel (`None` restores auto-detection).
///
/// Intended for benchmarks that measure before/after in one process; the
/// override is process-global, so don't flip it while other threads are
/// mid-search. Forcing [`Kernel::Avx2`] on a machine without AVX2+FMA falls
/// back to auto-detection.
pub fn force_kernel(kernel: Option<Kernel>) {
    let tag = match kernel {
        Some(Kernel::Scalar) => 1,
        Some(Kernel::Portable8) => 2,
        Some(Kernel::Avx2) if detect() == Kernel::Avx2 => 3,
        _ => 0,
    };
    FORCED.store(tag, Ordering::Relaxed);
}

/// `kernel`, with [`Kernel::Avx2`] demoted to [`Kernel::Portable8`] on a
/// machine without AVX2+FMA, so an explicitly chosen kernel can never
/// reach an unsupported instruction.
#[inline]
fn supported(kernel: Kernel) -> Kernel {
    if kernel == Kernel::Avx2 && *DETECTED.get_or_init(detect) != Kernel::Avx2 {
        Kernel::Portable8
    } else {
        kernel
    }
}

/// Constants of the rational `tanh` used by the portable and AVX2 kernels:
/// the `[13/6]` minimax approximation Eigen uses for `float`,
/// `tanh(x) ≈ x·P(x²)/Q(x²)` on a clamped input, with `tanh(x) = x` below
/// [`TINY`](tanh_coef::TINY).
mod tanh_coef {
    /// `P` coefficients, `x¹` through `x¹³` (odd powers, as `P(x²)`).
    pub const ALPHA: [f32; 7] = [
        4.893_524_6e-3,
        6.372_619_3e-4,
        1.485_722_35e-5,
        5.122_297_3e-8,
        -8.604_672e-11,
        2.000_188e-13,
        -2.760_768_4e-16,
    ];
    /// `Q` coefficients, `x⁰` through `x⁶`.
    pub const BETA: [f32; 4] = [4.893_525e-3, 2.268_434_7e-3, 1.185_347_1e-4, 1.198_258_4e-6];
    /// Below this magnitude `tanh(x)` rounds to `x` within one ulp, so the
    /// input passes through: `±0` and subnormals stay exact.
    pub const TINY: f32 = 4e-4;
    /// Clamps at which each evaluation order first gives exactly `1.0`;
    /// every smaller input gives less, so the result never leaves
    /// `[-1, 1]` and `±∞` maps to `±1`. The FMA Horner steps round
    /// differently from separate multiply and add, hence two values.
    pub const CLAMP_UNFUSED: f32 = 7.905_311;
    pub const CLAMP_FUSED: f32 = 7.998_811_7;
}

/// Scalar reference kernels — the parity oracle for the optimized paths.
pub mod scalar {
    /// Dot product.
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Squared Euclidean distance.
    #[inline]
    pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }

    /// `acc[i] += s * x[i]`.
    #[inline]
    pub fn axpy(acc: &mut [f32], x: &[f32], s: f32) {
        debug_assert_eq!(acc.len(), x.len());
        for (a, v) in acc.iter_mut().zip(x) {
            *a += s * v;
        }
    }

    /// `out += x · w` for a row-major `x.len() × out.len()` matrix `w`:
    /// one [`axpy`] per row with a nonzero `x[p]`, rows in order.
    #[inline]
    pub fn vecmat(x: &[f32], w: &[f32], out: &mut [f32]) {
        for (&s, row) in x.iter().zip(w.chunks_exact(out.len())) {
            if s != 0.0 {
                axpy(out, row, s);
            }
        }
    }

    /// Element-wise `tanh` through libm.
    #[inline]
    pub fn tanh(xs: &mut [f32]) {
        for x in xs {
            *x = x.tanh();
        }
    }

    /// Dot product of two u8 code rows, accumulated exactly in `u32`.
    /// Exact for `len ≤ 66051` (255² · len must fit in u32) — far beyond
    /// any embedding dimension this crate serves.
    #[inline]
    pub fn dot_u8(a: &[u8], b: &[u8]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| x as u32 * y as u32).sum()
    }

    /// Dot product of an f32 query against a u8 code row:
    /// `Σ q[i] · c[i]` with the codes widened to f32.
    #[inline]
    pub fn dot_f32u8(q: &[f32], c: &[u8]) -> f32 {
        debug_assert_eq!(q.len(), c.len());
        q.iter().zip(c).map(|(&x, &y)| x * y as f32).sum()
    }

    /// Asymmetric squared L2 between a prepared query and a u8 code row:
    /// `Σ (t[i] − s[i]·c[i])²`, where `t = query − offset` and `s` is the
    /// per-dimension scale — i.e. the exact squared distance between the
    /// query and the *dequantized* row, in one pass over the codes.
    #[inline]
    pub fn l2_sq_f32u8(t: &[f32], s: &[f32], c: &[u8]) -> f32 {
        debug_assert_eq!(t.len(), c.len());
        debug_assert_eq!(s.len(), c.len());
        t.iter()
            .zip(s)
            .zip(c)
            .map(|((&ti, &si), &ci)| {
                let d = ti - si * ci as f32;
                d * d
            })
            .sum()
    }
}

/// Portable unrolled kernels: 8 independent accumulators reduced in a fixed
/// tree, so LLVM can keep 8 lanes in flight without needing permission to
/// reassociate the final sum.
mod portable {
    #[inline]
    fn reduce8(acc: [f32; 8]) -> f32 {
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    }

    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0f32; 8];
        let ca = a.chunks_exact(8);
        let cb = b.chunks_exact(8);
        let (ra, rb) = (ca.remainder(), cb.remainder());
        for (xa, xb) in ca.zip(cb) {
            for k in 0..8 {
                acc[k] += xa[k] * xb[k];
            }
        }
        let mut s = reduce8(acc);
        for (x, y) in ra.iter().zip(rb) {
            s += x * y;
        }
        s
    }

    #[inline]
    pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0f32; 8];
        let ca = a.chunks_exact(8);
        let cb = b.chunks_exact(8);
        let (ra, rb) = (ca.remainder(), cb.remainder());
        for (xa, xb) in ca.zip(cb) {
            for k in 0..8 {
                let d = xa[k] - xb[k];
                acc[k] += d * d;
            }
        }
        let mut s = reduce8(acc);
        for (x, y) in ra.iter().zip(rb) {
            let d = x - y;
            s += d * d;
        }
        s
    }

    #[inline]
    pub fn axpy(acc: &mut [f32], x: &[f32], s: f32) {
        let ca = acc.chunks_exact_mut(8);
        let cx = x.chunks_exact(8);
        let n8 = x.len() - x.len() % 8;
        for (xa, xx) in ca.zip(cx) {
            for k in 0..8 {
                xa[k] += s * xx[k];
            }
        }
        for (a, v) in acc[n8..].iter_mut().zip(&x[n8..]) {
            *a += s * v;
        }
    }

    /// Columns per block of [`vecmat`]: a block of `out` stays in L1 (and
    /// mostly in registers) while every row of `w` is folded into it.
    const VECMAT_BLOCK: usize = 32;

    /// `out += x · w`, element for element the same `+= s * v` sequence as
    /// one [`axpy`] per nonzero row, blocked over columns.
    #[inline]
    pub fn vecmat(x: &[f32], w: &[f32], out: &mut [f32]) {
        let n = out.len();
        for (b, block) in out.chunks_mut(VECMAT_BLOCK).enumerate() {
            let j0 = b * VECMAT_BLOCK;
            for (&s, row) in x.iter().zip(w.chunks_exact(n)) {
                if s == 0.0 {
                    continue;
                }
                for (o, &v) in block.iter_mut().zip(&row[j0..]) {
                    *o += s * v;
                }
            }
        }
    }

    /// Element-wise rational `tanh` (see [`super::tanh`]): unfused
    /// multiply-adds, so the clamp is the point where this evaluation
    /// order reaches exactly 1.
    #[inline]
    pub fn tanh(xs: &mut [f32]) {
        use super::tanh_coef::*;
        for v in xs {
            let x = *v;
            let c = x.clamp(-CLAMP_UNFUSED, CLAMP_UNFUSED);
            let x2 = c * c;
            let mut p = ALPHA[6];
            for &a in ALPHA[..6].iter().rev() {
                p = x2 * p + a;
            }
            let mut q = BETA[3];
            for &b in BETA[..3].iter().rev() {
                q = x2 * q + b;
            }
            let r = c * p / q;
            *v = if x.abs() < TINY { x } else { r };
        }
    }

    #[inline]
    fn reduce8_u32(acc: [u32; 8]) -> u32 {
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    }

    #[inline]
    pub fn dot_u8(a: &[u8], b: &[u8]) -> u32 {
        let mut acc = [0u32; 8];
        let ca = a.chunks_exact(8);
        let cb = b.chunks_exact(8);
        let (ra, rb) = (ca.remainder(), cb.remainder());
        for (xa, xb) in ca.zip(cb) {
            for k in 0..8 {
                acc[k] += xa[k] as u32 * xb[k] as u32;
            }
        }
        let mut s = reduce8_u32(acc);
        for (x, y) in ra.iter().zip(rb) {
            s += *x as u32 * *y as u32;
        }
        s
    }

    #[inline]
    pub fn dot_f32u8(q: &[f32], c: &[u8]) -> f32 {
        let mut acc = [0f32; 8];
        let cq = q.chunks_exact(8);
        let cc = c.chunks_exact(8);
        let (rq, rc) = (cq.remainder(), cc.remainder());
        for (xq, xc) in cq.zip(cc) {
            for k in 0..8 {
                acc[k] += xq[k] * xc[k] as f32;
            }
        }
        let mut s = reduce8(acc);
        for (x, y) in rq.iter().zip(rc) {
            s += x * *y as f32;
        }
        s
    }

    #[inline]
    pub fn l2_sq_f32u8(t: &[f32], s: &[f32], c: &[u8]) -> f32 {
        let mut acc = [0f32; 8];
        let ct = t.chunks_exact(8);
        let cs = s.chunks_exact(8);
        let cc = c.chunks_exact(8);
        let n8 = c.len() - c.len() % 8;
        for ((xt, xs), xc) in ct.zip(cs).zip(cc) {
            for k in 0..8 {
                let d = xt[k] - xs[k] * xc[k] as f32;
                acc[k] += d * d;
            }
        }
        let mut sum = reduce8(acc);
        for ((x, y), z) in t[n8..].iter().zip(&s[n8..]).zip(&c[n8..]) {
            let d = x - y * *z as f32;
            sum += d * d;
        }
        sum
    }
}

/// AVX2+FMA kernels. Safety: every function is `#[target_feature]`-gated and
/// only reachable through [`active_kernel`] after a successful CPUID probe.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    #[inline]
    unsafe fn hsum256(v: __m256) -> f32 {
        // (hi + lo) -> 128; then horizontal pairwise adds.
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let shuf = _mm_movehdup_ps(s);
        let sums = _mm_add_ps(s, shuf);
        let shuf2 = _mm_movehl_ps(shuf, sums);
        _mm_cvtss_f32(_mm_add_ss(sums, shuf2))
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
                acc1,
            );
            i += 16;
        }
        if i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            i += 8;
        }
        let mut s = hsum256(_mm256_add_ps(acc0, acc1));
        while i < n {
            s += *pa.add(i) * *pb.add(i);
            i += 1;
        }
        s
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            let d1 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i + 8)), _mm256_loadu_ps(pb.add(i + 8)));
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            i += 16;
        }
        if i + 8 <= n {
            let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            i += 8;
        }
        let mut s = hsum256(_mm256_add_ps(acc0, acc1));
        while i < n {
            let d = *pa.add(i) - *pb.add(i);
            s += d * d;
            i += 1;
        }
        s
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy(acc: &mut [f32], x: &[f32], s: f32) {
        let n = acc.len();
        let pa = acc.as_mut_ptr();
        let px = x.as_ptr();
        let vs = _mm256_set1_ps(s);
        let mut i = 0;
        while i + 8 <= n {
            let r = _mm256_fmadd_ps(vs, _mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(pa.add(i)));
            _mm256_storeu_ps(pa.add(i), r);
            i += 8;
        }
        while i < n {
            *pa.add(i) += s * *px.add(i);
            i += 1;
        }
    }

    /// `out += x · w` (row-major `x.len() × out.len()` `w`), register
    /// blocked: 32 columns of `out` stay in four accumulators across every
    /// row. Per element this is the FMA sequence of one [`axpy`] per
    /// nonzero row, and the `n % 8` tail columns take `axpy`'s unfused
    /// tail, so the result is bit-equal to that loop.
    ///
    /// Caller guarantees `w.len() == x.len() * out.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn vecmat(x: &[f32], w: &[f32], out: &mut [f32]) {
        let n = out.len();
        let pw = w.as_ptr();
        let po = out.as_mut_ptr();
        let n8 = n - n % 8;
        let mut j = 0;
        while j + 32 <= n8 {
            let mut a0 = _mm256_loadu_ps(po.add(j));
            let mut a1 = _mm256_loadu_ps(po.add(j + 8));
            let mut a2 = _mm256_loadu_ps(po.add(j + 16));
            let mut a3 = _mm256_loadu_ps(po.add(j + 24));
            for (p, &s) in x.iter().enumerate() {
                if s == 0.0 {
                    continue;
                }
                let vs = _mm256_set1_ps(s);
                let row = pw.add(p * n + j);
                a0 = _mm256_fmadd_ps(vs, _mm256_loadu_ps(row), a0);
                a1 = _mm256_fmadd_ps(vs, _mm256_loadu_ps(row.add(8)), a1);
                a2 = _mm256_fmadd_ps(vs, _mm256_loadu_ps(row.add(16)), a2);
                a3 = _mm256_fmadd_ps(vs, _mm256_loadu_ps(row.add(24)), a3);
            }
            _mm256_storeu_ps(po.add(j), a0);
            _mm256_storeu_ps(po.add(j + 8), a1);
            _mm256_storeu_ps(po.add(j + 16), a2);
            _mm256_storeu_ps(po.add(j + 24), a3);
            j += 32;
        }
        while j < n8 {
            let mut a = _mm256_loadu_ps(po.add(j));
            for (p, &s) in x.iter().enumerate() {
                if s != 0.0 {
                    a = _mm256_fmadd_ps(_mm256_set1_ps(s), _mm256_loadu_ps(pw.add(p * n + j)), a);
                }
            }
            _mm256_storeu_ps(po.add(j), a);
            j += 8;
        }
        if n8 < n {
            for (p, &s) in x.iter().enumerate() {
                if s == 0.0 {
                    continue;
                }
                for jj in n8..n {
                    *po.add(jj) += s * *pw.add(p * n + jj);
                }
            }
        }
    }

    /// Eight lanes of the rational `tanh` (see [`super::tanh`]), with FMA
    /// Horner steps. NaN propagates: `max_ps`/`min_ps` return their
    /// *second* operand when either is NaN, so the clamp takes `x` second.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tanh8(x: __m256) -> __m256 {
        use super::tanh_coef::*;
        let c = _mm256_min_ps(
            _mm256_set1_ps(CLAMP_FUSED),
            _mm256_max_ps(_mm256_set1_ps(-CLAMP_FUSED), x),
        );
        let x2 = _mm256_mul_ps(c, c);
        let mut p = _mm256_set1_ps(ALPHA[6]);
        for &a in ALPHA[..6].iter().rev() {
            p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(a));
        }
        let mut q = _mm256_set1_ps(BETA[3]);
        for &b in BETA[..3].iter().rev() {
            q = _mm256_fmadd_ps(x2, q, _mm256_set1_ps(b));
        }
        let r = _mm256_div_ps(_mm256_mul_ps(c, p), q);
        let abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0), x);
        let tiny = _mm256_cmp_ps::<_CMP_LT_OQ>(abs, _mm256_set1_ps(TINY));
        _mm256_blendv_ps(r, x, tiny)
    }

    /// Element-wise rational `tanh`; a partial last vector goes through a
    /// zero-padded stack copy so every element takes the same lane code.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tanh(xs: &mut [f32]) {
        let mut chunks = xs.chunks_exact_mut(8);
        for c in &mut chunks {
            _mm256_storeu_ps(c.as_mut_ptr(), tanh8(_mm256_loadu_ps(c.as_ptr())));
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let mut buf = [0f32; 8];
            buf[..rest.len()].copy_from_slice(rest);
            _mm256_storeu_ps(buf.as_mut_ptr(), tanh8(_mm256_loadu_ps(buf.as_ptr())));
            rest.copy_from_slice(&buf[..rest.len()]);
        }
    }

    /// Blocked one-query-vs-many dot: 4 rows share each query load, so the
    /// query streams from registers while rows stream from memory.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_block(query: &[f32], data: &[f32], out: &mut [f32]) {
        let dim = query.len();
        let rows = out.len();
        let pq = query.as_ptr();
        let pd = data.as_ptr();
        let d8 = dim - dim % 8;
        let mut r = 0;
        while r + 4 <= rows {
            let (r0, r1, r2, r3) = (
                pd.add(r * dim),
                pd.add((r + 1) * dim),
                pd.add((r + 2) * dim),
                pd.add((r + 3) * dim),
            );
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            let mut j = 0;
            while j < d8 {
                let q = _mm256_loadu_ps(pq.add(j));
                a0 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r0.add(j)), a0);
                a1 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r1.add(j)), a1);
                a2 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r2.add(j)), a2);
                a3 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r3.add(j)), a3);
                j += 8;
            }
            let mut s0 = hsum256(a0);
            let mut s1 = hsum256(a1);
            let mut s2 = hsum256(a2);
            let mut s3 = hsum256(a3);
            while j < dim {
                let q = *pq.add(j);
                s0 += q * *r0.add(j);
                s1 += q * *r1.add(j);
                s2 += q * *r2.add(j);
                s3 += q * *r3.add(j);
                j += 1;
            }
            out[r] = s0;
            out[r + 1] = s1;
            out[r + 2] = s2;
            out[r + 3] = s3;
            r += 4;
        }
        while r < rows {
            out[r] = dot(query, std::slice::from_raw_parts(pd.add(r * dim), dim));
            r += 1;
        }
    }

    /// Blocked one-query-vs-many squared L2 (see [`dot_block`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn l2_sq_block(query: &[f32], data: &[f32], out: &mut [f32]) {
        let dim = query.len();
        let rows = out.len();
        let pq = query.as_ptr();
        let pd = data.as_ptr();
        let d8 = dim - dim % 8;
        let mut r = 0;
        while r + 4 <= rows {
            let (r0, r1, r2, r3) = (
                pd.add(r * dim),
                pd.add((r + 1) * dim),
                pd.add((r + 2) * dim),
                pd.add((r + 3) * dim),
            );
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            let mut j = 0;
            while j < d8 {
                let q = _mm256_loadu_ps(pq.add(j));
                let d0 = _mm256_sub_ps(q, _mm256_loadu_ps(r0.add(j)));
                a0 = _mm256_fmadd_ps(d0, d0, a0);
                let d1 = _mm256_sub_ps(q, _mm256_loadu_ps(r1.add(j)));
                a1 = _mm256_fmadd_ps(d1, d1, a1);
                let d2 = _mm256_sub_ps(q, _mm256_loadu_ps(r2.add(j)));
                a2 = _mm256_fmadd_ps(d2, d2, a2);
                let d3 = _mm256_sub_ps(q, _mm256_loadu_ps(r3.add(j)));
                a3 = _mm256_fmadd_ps(d3, d3, a3);
                j += 8;
            }
            let mut s0 = hsum256(a0);
            let mut s1 = hsum256(a1);
            let mut s2 = hsum256(a2);
            let mut s3 = hsum256(a3);
            while j < dim {
                let q = *pq.add(j);
                let (e0, e1, e2, e3) = (
                    q - *r0.add(j),
                    q - *r1.add(j),
                    q - *r2.add(j),
                    q - *r3.add(j),
                );
                s0 += e0 * e0;
                s1 += e1 * e1;
                s2 += e2 * e2;
                s3 += e3 * e3;
                j += 1;
            }
            out[r] = s0;
            out[r + 1] = s1;
            out[r + 2] = s2;
            out[r + 3] = s3;
            r += 4;
        }
        while r < rows {
            out[r] = l2_sq(query, std::slice::from_raw_parts(pd.add(r * dim), dim));
            r += 1;
        }
    }

    #[inline]
    unsafe fn hsum256_epi32(v: __m256i) -> u32 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256(v, 1);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x55));
        _mm_cvtsi128_si32(s) as u32
    }

    /// Widen 8 u8 codes (at `p`) to a `__m256` of f32s.
    #[inline]
    unsafe fn load8_u8_ps(p: *const u8) -> __m256 {
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(p as *const __m128i)))
    }

    /// u8×u8 dot. `_mm256_maddubs_epi16` saturates for unsigned×unsigned
    /// (products reach 255² = 65025 > i16::MAX), so both sides widen to i16
    /// via `cvtepu8_epi16` first and `madd_epi16` pairs them into i32 lanes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_u8(a: &[u8], b: &[u8]) -> u32 {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= n {
            let va = _mm256_cvtepu8_epi16(_mm_loadu_si128(pa.add(i) as *const __m128i));
            let vb = _mm256_cvtepu8_epi16(_mm_loadu_si128(pb.add(i) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
            i += 16;
        }
        let mut s = hsum256_epi32(acc);
        while i < n {
            s += *pa.add(i) as u32 * *pb.add(i) as u32;
            i += 1;
        }
        s
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_f32u8(q: &[f32], c: &[u8]) -> f32 {
        let n = q.len();
        let pq = q.as_ptr();
        let pc = c.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i)), load8_u8_ps(pc.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pq.add(i + 8)),
                load8_u8_ps(pc.add(i + 8)),
                acc1,
            );
            i += 16;
        }
        if i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i)), load8_u8_ps(pc.add(i)), acc0);
            i += 8;
        }
        let mut s = hsum256(_mm256_add_ps(acc0, acc1));
        while i < n {
            s += *pq.add(i) * *pc.add(i) as f32;
            i += 1;
        }
        s
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn l2_sq_f32u8(t: &[f32], s: &[f32], c: &[u8]) -> f32 {
        let n = t.len();
        let pt = t.as_ptr();
        let ps = s.as_ptr();
        let pc = c.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            // fnmadd(s, c, t) = t − s·c, the residual against the
            // dequantized coordinate.
            let d0 = _mm256_fnmadd_ps(
                _mm256_loadu_ps(ps.add(i)),
                load8_u8_ps(pc.add(i)),
                _mm256_loadu_ps(pt.add(i)),
            );
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            let d1 = _mm256_fnmadd_ps(
                _mm256_loadu_ps(ps.add(i + 8)),
                load8_u8_ps(pc.add(i + 8)),
                _mm256_loadu_ps(pt.add(i + 8)),
            );
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            i += 16;
        }
        if i + 8 <= n {
            let d = _mm256_fnmadd_ps(
                _mm256_loadu_ps(ps.add(i)),
                load8_u8_ps(pc.add(i)),
                _mm256_loadu_ps(pt.add(i)),
            );
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            i += 8;
        }
        let mut sum = hsum256(_mm256_add_ps(acc0, acc1));
        while i < n {
            let d = *pt.add(i) - *ps.add(i) * *pc.add(i) as f32;
            sum += d * d;
            i += 1;
        }
        sum
    }

    /// Blocked one-query-vs-many f32×u8 dot (see [`dot_block`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_f32u8_block(query: &[f32], codes: &[u8], out: &mut [f32]) {
        let dim = query.len();
        let rows = out.len();
        let pq = query.as_ptr();
        let pc = codes.as_ptr();
        let d8 = dim - dim % 8;
        let mut r = 0;
        while r + 4 <= rows {
            let (r0, r1, r2, r3) = (
                pc.add(r * dim),
                pc.add((r + 1) * dim),
                pc.add((r + 2) * dim),
                pc.add((r + 3) * dim),
            );
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            let mut j = 0;
            while j < d8 {
                let q = _mm256_loadu_ps(pq.add(j));
                a0 = _mm256_fmadd_ps(q, load8_u8_ps(r0.add(j)), a0);
                a1 = _mm256_fmadd_ps(q, load8_u8_ps(r1.add(j)), a1);
                a2 = _mm256_fmadd_ps(q, load8_u8_ps(r2.add(j)), a2);
                a3 = _mm256_fmadd_ps(q, load8_u8_ps(r3.add(j)), a3);
                j += 8;
            }
            let mut s0 = hsum256(a0);
            let mut s1 = hsum256(a1);
            let mut s2 = hsum256(a2);
            let mut s3 = hsum256(a3);
            while j < dim {
                let q = *pq.add(j);
                s0 += q * *r0.add(j) as f32;
                s1 += q * *r1.add(j) as f32;
                s2 += q * *r2.add(j) as f32;
                s3 += q * *r3.add(j) as f32;
                j += 1;
            }
            out[r] = s0;
            out[r + 1] = s1;
            out[r + 2] = s2;
            out[r + 3] = s3;
            r += 4;
        }
        while r < rows {
            out[r] = dot_f32u8(query, std::slice::from_raw_parts(pc.add(r * dim), dim));
            r += 1;
        }
    }

    /// Blocked one-query-vs-many asymmetric squared L2 (see
    /// [`l2_sq_f32u8`]): 4 code rows share each `t`/`s` load.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn l2_sq_f32u8_block(t: &[f32], s: &[f32], codes: &[u8], out: &mut [f32]) {
        let dim = t.len();
        let rows = out.len();
        let pt = t.as_ptr();
        let ps = s.as_ptr();
        let pc = codes.as_ptr();
        let d8 = dim - dim % 8;
        let mut r = 0;
        while r + 4 <= rows {
            let (r0, r1, r2, r3) = (
                pc.add(r * dim),
                pc.add((r + 1) * dim),
                pc.add((r + 2) * dim),
                pc.add((r + 3) * dim),
            );
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            let mut j = 0;
            while j < d8 {
                let vt = _mm256_loadu_ps(pt.add(j));
                let vs = _mm256_loadu_ps(ps.add(j));
                let d0 = _mm256_fnmadd_ps(vs, load8_u8_ps(r0.add(j)), vt);
                a0 = _mm256_fmadd_ps(d0, d0, a0);
                let d1 = _mm256_fnmadd_ps(vs, load8_u8_ps(r1.add(j)), vt);
                a1 = _mm256_fmadd_ps(d1, d1, a1);
                let d2 = _mm256_fnmadd_ps(vs, load8_u8_ps(r2.add(j)), vt);
                a2 = _mm256_fmadd_ps(d2, d2, a2);
                let d3 = _mm256_fnmadd_ps(vs, load8_u8_ps(r3.add(j)), vt);
                a3 = _mm256_fmadd_ps(d3, d3, a3);
                j += 8;
            }
            let mut s0 = hsum256(a0);
            let mut s1 = hsum256(a1);
            let mut s2 = hsum256(a2);
            let mut s3 = hsum256(a3);
            while j < dim {
                let tj = *pt.add(j);
                let sj = *ps.add(j);
                let (e0, e1, e2, e3) = (
                    tj - sj * *r0.add(j) as f32,
                    tj - sj * *r1.add(j) as f32,
                    tj - sj * *r2.add(j) as f32,
                    tj - sj * *r3.add(j) as f32,
                );
                s0 += e0 * e0;
                s1 += e1 * e1;
                s2 += e2 * e2;
                s3 += e3 * e3;
                j += 1;
            }
            out[r] = s0;
            out[r + 1] = s1;
            out[r + 2] = s2;
            out[r + 3] = s3;
            r += 4;
        }
        while r < rows {
            out[r] = l2_sq_f32u8(t, s, std::slice::from_raw_parts(pc.add(r * dim), dim));
            r += 1;
        }
    }
}

/// Dot product with an explicitly chosen kernel (parity tests; prefer
/// [`dot`] everywhere else).
#[inline]
pub fn dot_with(kernel: Kernel, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    match kernel {
        Kernel::Scalar => scalar::dot(a, b),
        Kernel::Portable8 => portable::dot(a, b),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::dot(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => portable::dot(a, b),
    }
}

/// Squared L2 with an explicitly chosen kernel (parity tests).
#[inline]
pub fn l2_sq_with(kernel: Kernel, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    match kernel {
        Kernel::Scalar => scalar::l2_sq(a, b),
        Kernel::Portable8 => portable::l2_sq(a, b),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::l2_sq(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => portable::l2_sq(a, b),
    }
}

/// Dot product (runtime-dispatched).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with(active_kernel(), a, b)
}

/// Squared Euclidean distance (runtime-dispatched).
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    l2_sq_with(active_kernel(), a, b)
}

/// Cosine similarity (0 when either vector is zero), built on the
/// dispatched dot product.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// `acc[i] += s * x[i]` with an explicitly chosen kernel.
#[inline]
pub fn axpy_with(kernel: Kernel, acc: &mut [f32], x: &[f32], s: f32) {
    assert_eq!(acc.len(), x.len(), "dimension mismatch");
    match supported(kernel) {
        Kernel::Scalar => scalar::axpy(acc, x, s),
        Kernel::Portable8 => portable::axpy(acc, x, s),
        // SAFETY: `supported` keeps `Kernel::Avx2` only when the CPUID
        // probe found AVX2+FMA; the lengths were asserted equal above.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::axpy(acc, x, s) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => portable::axpy(acc, x, s),
    }
}

/// `acc[i] += s * x[i]` (runtime-dispatched).
#[inline]
pub fn axpy(acc: &mut [f32], x: &[f32], s: f32) {
    axpy_with(active_kernel(), acc, x, s)
}

/// `out += x · w` with an explicitly chosen kernel, for a row-major
/// `x.len() × out.len()` matrix `w`.
///
/// Bit-equal, for every kernel, to calling [`axpy_with`] with that kernel
/// once per row `p` with `x[p] != 0`, rows in order: each output element
/// sees the same multiply-adds in the same order. The blocked kernels keep
/// a block of `out` in registers across all rows instead of re-loading it
/// per row.
#[inline]
pub fn vecmat_with(kernel: Kernel, x: &[f32], w: &[f32], out: &mut [f32]) {
    assert_eq!(w.len(), x.len() * out.len(), "row-major shape mismatch");
    if out.is_empty() {
        return;
    }
    match supported(kernel) {
        Kernel::Scalar => scalar::vecmat(x, w, out),
        Kernel::Portable8 => portable::vecmat(x, w, out),
        // SAFETY: `supported` keeps `Kernel::Avx2` only when the CPUID
        // probe found AVX2+FMA, and the shape was asserted above.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::vecmat(x, w, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => portable::vecmat(x, w, out),
    }
}

/// `out += x · w` (runtime-dispatched, see [`vecmat_with`]).
#[inline]
pub fn vecmat(x: &[f32], w: &[f32], out: &mut [f32]) {
    vecmat_with(active_kernel(), x, w, out)
}

/// Element-wise `tanh` in place with an explicitly chosen kernel.
///
/// The scalar kernel calls libm. The portable and AVX2 kernels evaluate
/// a rational approximation: within 4.2e-7 absolute error of the exact
/// value over all of `f32` (at most 7 ulp from libm), odd-symmetric,
/// within `[-1, 1]`, exact at `±0` and subnormals, `±∞ → ±1`, and NaN in
/// gives NaN out. Each kernel is deterministic; the two approximations
/// differ from each other in the last bits (FMA vs separate rounding).
#[inline]
pub fn tanh_with(kernel: Kernel, xs: &mut [f32]) {
    match supported(kernel) {
        Kernel::Scalar => scalar::tanh(xs),
        Kernel::Portable8 => portable::tanh(xs),
        // SAFETY: `supported` keeps `Kernel::Avx2` only when the CPUID
        // probe found AVX2+FMA; the kernel touches only `xs` and a stack
        // copy.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::tanh(xs) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => portable::tanh(xs),
    }
}

/// Element-wise `tanh` in place (runtime-dispatched, see [`tanh_with`]).
#[inline]
pub fn tanh(xs: &mut [f32]) {
    tanh_with(active_kernel(), xs)
}

/// Score one query against `out.len()` contiguous row-major rows of `data`
/// with the dot product: `out[i] = query · data[i]`.
///
/// `data.len()` must equal `out.len() * query.len()`.
pub fn dot_block(query: &[f32], data: &[f32], out: &mut [f32]) {
    assert_eq!(
        data.len(),
        out.len() * query.len(),
        "row-major shape mismatch"
    );
    if query.is_empty() {
        out.fill(0.0);
        return;
    }
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::dot_block(query, data, out) },
        Kernel::Scalar => {
            for (o, row) in out.iter_mut().zip(data.chunks_exact(query.len())) {
                *o = scalar::dot(query, row);
            }
        }
        _ => {
            for (o, row) in out.iter_mut().zip(data.chunks_exact(query.len())) {
                *o = portable::dot(query, row);
            }
        }
    }
}

/// Score one query against `out.len()` contiguous row-major rows of `data`
/// with squared L2: `out[i] = ||query − data[i]||²`.
///
/// `data.len()` must equal `out.len() * query.len()`.
pub fn l2_sq_block(query: &[f32], data: &[f32], out: &mut [f32]) {
    assert_eq!(
        data.len(),
        out.len() * query.len(),
        "row-major shape mismatch"
    );
    if query.is_empty() {
        out.fill(0.0);
        return;
    }
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::l2_sq_block(query, data, out) },
        Kernel::Scalar => {
            for (o, row) in out.iter_mut().zip(data.chunks_exact(query.len())) {
                *o = scalar::l2_sq(query, row);
            }
        }
        _ => {
            for (o, row) in out.iter_mut().zip(data.chunks_exact(query.len())) {
                *o = portable::l2_sq(query, row);
            }
        }
    }
}

/// u8×u8 dot product with an explicitly chosen kernel (parity tests).
#[inline]
pub fn dot_u8_with(kernel: Kernel, a: &[u8], b: &[u8]) -> u32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    match kernel {
        Kernel::Scalar => scalar::dot_u8(a, b),
        Kernel::Portable8 => portable::dot_u8(a, b),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::dot_u8(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => portable::dot_u8(a, b),
    }
}

/// f32×u8 dot product with an explicitly chosen kernel (parity tests).
#[inline]
pub fn dot_f32u8_with(kernel: Kernel, q: &[f32], c: &[u8]) -> f32 {
    assert_eq!(q.len(), c.len(), "dimension mismatch");
    match kernel {
        Kernel::Scalar => scalar::dot_f32u8(q, c),
        Kernel::Portable8 => portable::dot_f32u8(q, c),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::dot_f32u8(q, c) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => portable::dot_f32u8(q, c),
    }
}

/// Asymmetric squared L2 with an explicitly chosen kernel (parity tests).
#[inline]
pub fn l2_sq_f32u8_with(kernel: Kernel, t: &[f32], s: &[f32], c: &[u8]) -> f32 {
    assert_eq!(t.len(), c.len(), "dimension mismatch");
    assert_eq!(s.len(), c.len(), "dimension mismatch");
    match kernel {
        Kernel::Scalar => scalar::l2_sq_f32u8(t, s, c),
        Kernel::Portable8 => portable::l2_sq_f32u8(t, s, c),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::l2_sq_f32u8(t, s, c) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => portable::l2_sq_f32u8(t, s, c),
    }
}

/// Dot product of two u8 code rows (runtime-dispatched). Exact: the
/// accumulation is integer, so every kernel returns identical bits.
#[inline]
pub fn dot_u8(a: &[u8], b: &[u8]) -> u32 {
    dot_u8_with(active_kernel(), a, b)
}

/// Dot product of an f32 query against a u8 code row
/// (runtime-dispatched).
#[inline]
pub fn dot_f32u8(q: &[f32], c: &[u8]) -> f32 {
    dot_f32u8_with(active_kernel(), q, c)
}

/// Asymmetric squared L2 `Σ (t[i] − s[i]·c[i])²` between a prepared query
/// (`t = query − offset`, per-dim scales `s`) and a u8 code row
/// (runtime-dispatched). Equals the exact f32 squared distance between the
/// query and the dequantized row.
#[inline]
pub fn l2_sq_f32u8(t: &[f32], s: &[f32], c: &[u8]) -> f32 {
    l2_sq_f32u8_with(active_kernel(), t, s, c)
}

/// Score one f32 query against `out.len()` contiguous row-major u8 code
/// rows with the dot product: `out[i] = query · codes[i]`.
///
/// `codes.len()` must equal `out.len() * query.len()`.
pub fn dot_f32u8_block(query: &[f32], codes: &[u8], out: &mut [f32]) {
    assert_eq!(
        codes.len(),
        out.len() * query.len(),
        "row-major shape mismatch"
    );
    if query.is_empty() {
        out.fill(0.0);
        return;
    }
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::dot_f32u8_block(query, codes, out) },
        Kernel::Scalar => {
            for (o, row) in out.iter_mut().zip(codes.chunks_exact(query.len())) {
                *o = scalar::dot_f32u8(query, row);
            }
        }
        _ => {
            for (o, row) in out.iter_mut().zip(codes.chunks_exact(query.len())) {
                *o = portable::dot_f32u8(query, row);
            }
        }
    }
}

/// Score one prepared query (`t`, per-dim scales `s`) against `out.len()`
/// contiguous row-major u8 code rows with asymmetric squared L2:
/// `out[i] = Σ_d (t[d] − s[d]·codes[i][d])²`.
///
/// `codes.len()` must equal `out.len() * t.len()`; `s.len()` must equal
/// `t.len()`.
pub fn l2_sq_f32u8_block(t: &[f32], s: &[f32], codes: &[u8], out: &mut [f32]) {
    assert_eq!(s.len(), t.len(), "dimension mismatch");
    assert_eq!(codes.len(), out.len() * t.len(), "row-major shape mismatch");
    if t.is_empty() {
        out.fill(0.0);
        return;
    }
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::l2_sq_f32u8_block(t, s, codes, out) },
        Kernel::Scalar => {
            for (o, row) in out.iter_mut().zip(codes.chunks_exact(t.len())) {
                *o = scalar::l2_sq_f32u8(t, s, row);
            }
        }
        _ => {
            for (o, row) in out.iter_mut().zip(codes.chunks_exact(t.len())) {
                *o = portable::l2_sq_f32u8(t, s, row);
            }
        }
    }
}

/// The kernels available on this machine (always includes scalar and
/// portable; AVX2 only when detected).
pub fn available_kernels() -> Vec<Kernel> {
    let mut out = vec![Kernel::Scalar, Kernel::Portable8];
    if detect() == Kernel::Avx2 {
        out.push(Kernel::Avx2);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Lengths exercising every unroll boundary: empty, sub-lane, odd, the
    /// 8/16 block edges, and larger-than-block sizes.
    const LENS: &[usize] = &[0, 1, 2, 3, 5, 7, 8, 9, 13, 15, 16, 17, 24, 31, 33, 64, 100, 257];

    fn vecs(len: usize, seed: u64, scale: f32) -> (Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = (0..len).map(|_| rng.gen_range(-1.0f32..1.0) * scale).collect();
        let b = (0..len).map(|_| rng.gen_range(-1.0f32..1.0) * scale).collect();
        (a, b)
    }

    /// |got − want| ≤ 1e-5 · (magnitude of the summed terms), the right
    /// relative notion for reduction kernels (tolerant of reassociation and
    /// FMA, tight enough to catch indexing bugs).
    fn assert_close(got: f32, want: f64, terms_magnitude: f64, ctx: &str) {
        let tol = 1e-5 * terms_magnitude.max(1e-30);
        assert!(
            ((got as f64) - want).abs() <= tol,
            "{ctx}: got {got}, want {want}, tol {tol}"
        );
    }

    fn check_parity(scale: f32, seed: u64) {
        for &len in LENS {
            let (a, b) = vecs(len, seed ^ len as u64, scale);
            let dot_ref: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
            let dot_mag: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x as f64 * y as f64).abs())
                .sum();
            let l2_ref: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
                .sum();
            for k in available_kernels() {
                let ctx = format!("kernel {} len {len} scale {scale}", k.name());
                assert_close(dot_with(k, &a, &b), dot_ref, dot_mag, &format!("dot {ctx}"));
                assert_close(l2_sq_with(k, &a, &b), l2_ref, l2_ref, &format!("l2 {ctx}"));
            }
        }
    }

    #[test]
    fn kernels_agree_on_random_inputs() {
        check_parity(1.0, 11);
        check_parity(1000.0, 12);
    }

    #[test]
    fn kernels_agree_on_denormal_adjacent_inputs() {
        // Products of ±1e-19 values land around 1e-38, the f32 denormal
        // boundary; sums must still agree relatively.
        check_parity(1e-19, 13);
    }

    #[test]
    fn blocks_match_per_row_kernels() {
        let mut rng = StdRng::seed_from_u64(21);
        for &dim in &[1usize, 3, 8, 17, 32, 64, 96] {
            for &rows in &[0usize, 1, 2, 3, 4, 5, 7, 9, 16] {
                let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let data: Vec<f32> = (0..rows * dim)
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect();
                let mut got_d = vec![0f32; rows];
                let mut got_l = vec![0f32; rows];
                dot_block(&q, &data, &mut got_d);
                l2_sq_block(&q, &data, &mut got_l);
                for r in 0..rows {
                    let row = &data[r * dim..(r + 1) * dim];
                    let wd: f64 = q.iter().zip(row).map(|(&x, &y)| x as f64 * y as f64).sum();
                    let wl: f64 = q
                        .iter()
                        .zip(row)
                        .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
                        .sum();
                    let mag: f64 = q
                        .iter()
                        .zip(row)
                        .map(|(&x, &y)| (x as f64 * y as f64).abs())
                        .sum();
                    assert_close(got_d[r], wd, mag, &format!("dot_block dim {dim} row {r}"));
                    assert_close(got_l[r], wl, wl.max(mag), &format!("l2_block dim {dim} row {r}"));
                }
            }
        }
    }

    #[test]
    fn axpy_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(31);
        for &len in LENS {
            let x: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let base: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let s = rng.gen_range(-2.0f32..2.0);
            let mut want = base.clone();
            scalar::axpy(&mut want, &x, s);
            let mut got = base.clone();
            axpy(&mut got, &x, s);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-6 * w.abs().max(1.0), "axpy len {len}");
            }
        }
    }

    #[test]
    fn vecmat_is_bit_equal_to_the_axpy_loop() {
        let mut rng = StdRng::seed_from_u64(32);
        for &cols in &[
            1usize, 3, 7, 8, 9, 15, 16, 24, 31, 32, 33, 40, 63, 64, 65, 100,
        ] {
            for &rows in &[0usize, 1, 2, 5, 17, 64] {
                // Every third input is zero, so the skipped rows are covered.
                let x: Vec<f32> = (0..rows)
                    .map(|p| {
                        if p % 3 == 1 {
                            0.0
                        } else {
                            rng.gen_range(-1.0f32..1.0)
                        }
                    })
                    .collect();
                let w: Vec<f32> = (0..rows * cols)
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect();
                let init: Vec<f32> = (0..cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                for k in available_kernels() {
                    let mut want = init.clone();
                    for (&s, row) in x.iter().zip(w.chunks_exact(cols)) {
                        if s != 0.0 {
                            axpy_with(k, &mut want, row, s);
                        }
                    }
                    let mut got = init.clone();
                    vecmat_with(k, &x, &w, &mut got);
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "vecmat kernel {} rows {rows} cols {cols}",
                        k.name()
                    );
                }
            }
        }
    }

    /// `tanh_with(k, x)` for one value, through a one-element slice.
    fn tanh1(k: Kernel, x: f32) -> f32 {
        let mut v = [x];
        tanh_with(k, &mut v);
        v[0]
    }

    #[test]
    fn tanh_kernels_are_within_1e6_of_f64_on_a_dense_sweep() {
        // 2M+1 points over [-10, 10], in one odd-length slice so the
        // vector kernels' partial last block is exercised too.
        const STEPS: i32 = 2_000_000;
        let xs: Vec<f32> = (-STEPS / 2..=STEPS / 2)
            .map(|i| i as f32 * (20.0 / STEPS as f32))
            .collect();
        for k in available_kernels() {
            let mut ys = xs.clone();
            tanh_with(k, &mut ys);
            let mut worst = (0f64, 0f32);
            for (&x, &y) in xs.iter().zip(&ys) {
                let err = (y as f64 - (x as f64).tanh()).abs();
                if err > worst.0 {
                    worst = (err, x);
                }
                assert!(y.abs() <= 1.0, "kernel {} |tanh({x})| = {y} > 1", k.name());
            }
            assert!(
                worst.0 <= 1e-6,
                "kernel {}: error {:e} at x = {}",
                k.name(),
                worst.0,
                worst.1
            );
        }
    }

    #[test]
    fn tanh_kernels_are_odd_and_position_independent() {
        let mut rng = StdRng::seed_from_u64(33);
        let xs: Vec<f32> = (0..4099)
            .map(|i| rng.gen_range(-12.0f32..12.0) * if i % 5 == 0 { 1e-3 } else { 1.0 })
            .collect();
        for k in available_kernels() {
            let mut ys = xs.clone();
            tanh_with(k, &mut ys);
            let mut neg: Vec<f32> = xs.iter().map(|x| -x).collect();
            tanh_with(k, &mut neg);
            for i in 0..xs.len() {
                let ctx = format!("kernel {} x {}", k.name(), xs[i]);
                assert_eq!(neg[i].to_bits(), (-ys[i]).to_bits(), "odd symmetry, {ctx}");
                // Same bits whether the value sits in a full vector, the
                // partial tail, or a slice of its own.
                assert_eq!(
                    tanh1(k, xs[i]).to_bits(),
                    ys[i].to_bits(),
                    "position, {ctx}"
                );
            }
        }
    }

    #[test]
    fn tanh_kernels_handle_special_values_exactly() {
        let tiny = f32::from_bits(1); // smallest subnormal
        let sub = f32::MIN_POSITIVE / 3.0;
        for k in available_kernels() {
            let name = k.name();
            for x in [
                0.0f32,
                -0.0,
                tiny,
                -tiny,
                sub,
                -sub,
                f32::MIN_POSITIVE,
                1e-30,
            ] {
                assert_eq!(
                    tanh1(k, x).to_bits(),
                    x.to_bits(),
                    "kernel {name}: tanh({x:e})"
                );
            }
            for (x, want) in [
                (f32::INFINITY, 1.0f32),
                (f32::NEG_INFINITY, -1.0),
                (f32::MAX, 1.0),
                (f32::MIN, -1.0),
                (1e10, 1.0),
                (-20.0, -1.0),
            ] {
                assert_eq!(tanh1(k, x), want, "kernel {name}: tanh({x:e})");
            }
            assert!(
                tanh1(k, f32::NAN).is_nan(),
                "kernel {name}: NaN must propagate"
            );
            assert!(
                tanh1(k, -f32::NAN).is_nan(),
                "kernel {name}: -NaN must propagate"
            );
            // A NaN lane must not disturb its neighbours.
            let mut v = [
                0.5f32,
                f32::NAN,
                -0.5,
                f32::INFINITY,
                0.0,
                3.0,
                -3.0,
                1e-5,
                2.0,
            ];
            tanh_with(k, &mut v);
            assert!(v[1].is_nan());
            assert_eq!(v[0].to_bits(), tanh1(k, 0.5).to_bits());
            assert_eq!(v[3], 1.0);
            assert_eq!(v[8].to_bits(), tanh1(k, 2.0).to_bits());
        }
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1., 0., 0.], &[2., 0., 0.]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1., 0.], &[0., 1.]).abs() < 1e-6);
        assert_eq!(cosine(&[0., 0.], &[1., 1.]), 0.0);
    }

    fn codes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect()
    }

    #[test]
    fn u8_dot_kernels_are_bit_exact() {
        for &len in LENS {
            let a = codes(len, 41 ^ len as u64);
            let b = codes(len, 42 ^ len as u64);
            let want: u32 = a.iter().zip(&b).map(|(&x, &y)| x as u32 * y as u32).sum();
            for k in available_kernels() {
                assert_eq!(
                    dot_u8_with(k, &a, &b),
                    want,
                    "dot_u8 kernel {} len {len}",
                    k.name()
                );
            }
        }
    }

    /// The asymmetric kernels must agree with the dequantize-then-f32-kernel
    /// route: dequantize the codes (x̂ = off + s·c), run the f32 reference,
    /// and compare. This is the parity property the two-stage scan relies on.
    #[test]
    fn int8_kernels_match_dequantized_f32() {
        let mut rng = StdRng::seed_from_u64(51);
        for &len in LENS {
            let q: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let c = codes(len, 52 ^ len as u64);
            let s: Vec<f32> = (0..len).map(|_| rng.gen_range(0.001f32..0.01)).collect();
            let off: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..0.0)).collect();
            let deq: Vec<f32> = (0..len).map(|i| off[i] + s[i] * c[i] as f32).collect();
            // dot_f32u8 computes q·c (raw codes), reference in f64.
            let dot_ref: f64 = q.iter().zip(&c).map(|(&x, &y)| x as f64 * y as f64).sum();
            let dot_mag: f64 = q
                .iter()
                .zip(&c)
                .map(|(&x, &y)| (x as f64 * y as f64).abs())
                .sum();
            // l2_sq_f32u8 on t = q − off equals ‖q − deq‖².
            let t: Vec<f32> = q.iter().zip(&off).map(|(&x, &o)| x - o).collect();
            let l2_ref: f64 = q
                .iter()
                .zip(&deq)
                .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
                .sum();
            for k in available_kernels() {
                let ctx = format!("kernel {} len {len}", k.name());
                assert_close(
                    dot_f32u8_with(k, &q, &c),
                    dot_ref,
                    dot_mag,
                    &format!("dot_f32u8 {ctx}"),
                );
                assert_close(
                    l2_sq_f32u8_with(k, &t, &s, &c),
                    l2_ref,
                    l2_ref.max(dot_mag * 0.02),
                    &format!("l2_sq_f32u8 {ctx}"),
                );
            }
        }
    }

    #[test]
    fn int8_blocks_match_per_row_kernels() {
        let mut rng = StdRng::seed_from_u64(61);
        for &dim in &[1usize, 3, 8, 17, 32, 64, 96] {
            for &rows in &[0usize, 1, 2, 3, 4, 5, 7, 9, 16] {
                let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let s: Vec<f32> = (0..dim).map(|_| rng.gen_range(0.001f32..0.01)).collect();
                let data = codes(rows * dim, (dim * 31 + rows) as u64);
                let mut got_d = vec![0f32; rows];
                let mut got_l = vec![0f32; rows];
                dot_f32u8_block(&q, &data, &mut got_d);
                l2_sq_f32u8_block(&q, &s, &data, &mut got_l);
                for r in 0..rows {
                    let row = &data[r * dim..(r + 1) * dim];
                    let wd: f64 = q.iter().zip(row).map(|(&x, &y)| x as f64 * y as f64).sum();
                    let wl: f64 = q
                        .iter()
                        .zip(&s)
                        .zip(row)
                        .map(|((&t, &sc), &cc)| (t as f64 - sc as f64 * cc as f64).powi(2))
                        .sum();
                    let mag: f64 = q
                        .iter()
                        .zip(row)
                        .map(|(&x, &y)| (x as f64 * y as f64).abs())
                        .sum();
                    assert_close(
                        got_d[r],
                        wd,
                        mag,
                        &format!("dot_f32u8_block dim {dim} row {r}"),
                    );
                    assert_close(
                        got_l[r],
                        wl,
                        wl.max(mag * 0.02),
                        &format!("l2_sq_f32u8_block dim {dim} row {r}"),
                    );
                }
            }
        }
    }

    #[test]
    fn forcing_kernels_is_reversible() {
        // Note: other tests in this file run concurrently, so only assert
        // on the explicit-kernel paths, not the dispatched ones.
        for k in available_kernels() {
            assert!(!k.name().is_empty());
        }
        force_kernel(None);
        let auto = active_kernel();
        assert!(available_kernels().contains(&auto));
    }
}
