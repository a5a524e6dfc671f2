//! The Eq. (5) moment kernels, written in one canonical lane schedule
//! (DESIGN.md §16).
//!
//! Every MUAA solver pass bottoms out in two tiny loops: the
//! *pair-side* accumulation `(swy, swyy, swxy)` over
//! `(weights, xs, ys)` and the *customer-side* accumulation
//! `(sw, swx, swxx)` over `(weights, xs)` — see
//! [`crate::utility::PearsonUtility`]. This module owns both
//! ([`pair_moments`], [`weight_moments`]), plus a *fused* kernel
//! ([`fused_moments`]) streaming all six moments in one pass for callers
//! with no precomputed customer moments (the uncached path).
//!
//! ## The canonical lane schedule
//!
//! Floating-point addition is not associative, so "same sums" is not
//! enough for the workspace's 0 ULP guarantees — every evaluation must
//! perform *the same additions in the same order*. The schedule is:
//!
//! 1. split the input into `len / LANES` full chunks of [`LANES`] (= 4)
//!    elements; element `chunk*LANES + l` accumulates into per-lane
//!    partial `l` (so lane `l` sums elements `t ≡ l (mod 4)` of the
//!    chunked prefix, each lane a strictly sequential add chain);
//! 2. reduce horizontally in one fixed order: `(l0 + l1) + (l2 + l3)`;
//! 3. fold the ragged tail (`len % LANES` elements) into the reduced
//!    sum sequentially, in index order.
//!
//! Products are separate multiplies and adds, never FMA: a fused
//! multiply-add skips the intermediate rounding and would change
//! results. The four independent lane chains are also what lets the
//! compiler vectorize the loops with baseline SSE2/NEON and no
//! intrinsics — the schedule, not the instruction set, fixes the bits.

/// Width of the canonical lane schedule. Fixed at 4 on every platform,
/// so the accumulation order (and therefore every bit of every result)
/// is platform-independent.
pub const LANES: usize = 4;

/// The schedule's horizontal reduction, `(l0 + l1) + (l2 + l3)`, of
/// each lane accumulator.
///
/// Kept out of line on purpose: inlined, LLVM's SLP vectorizer packs
/// the chunk loops' accumulators to suit this reduction — lanes 0/2 and
/// 1/3, or one lane of two moments — and pays shuffles on every chunk.
/// Behind the call it packs them by adjacent lanes, so each chunk is
/// plain loads, multiplies and adds: about a fifth less time per pair
/// at the Foursquare fixture's 60 tags on a 2-vCPU Xeon.
#[inline(never)]
fn reduce<const N: usize>(acc: &[[f64; LANES]; N]) -> [f64; N] {
    std::array::from_fn(|k| (acc[k][0] + acc[k][1]) + (acc[k][2] + acc[k][3]))
}

/// The mask of the full [`LANES`]-wide blocks of `ys` that hold a
/// non-zero: bit `k` is set iff one of `ys[4k..4k + 4]` is not `±0.0`
/// (a NaN counts as non-zero). Only the first 64 blocks have a bit;
/// [`pair_moments`] visits every later block and the ragged tail
/// whatever the mask says.
pub fn nonzero_blocks(ys: &[f64]) -> u64 {
    let mut mask = 0;
    for (k, block) in ys.chunks_exact(LANES).take(64).enumerate() {
        if block.iter().any(|&y| y != 0.0) {
            mask |= 1 << k;
        }
    }
    mask
}

/// Pair-side moments `(swy, swyy, swxy) = Σ (w·y, (w·y)·y, (w·x)·y)` in
/// the canonical lane schedule, visiting only the full blocks among the
/// first 64 whose bit `blocks` sets (DESIGN.md §16.1).
///
/// With `blocks` from [`nonzero_blocks`]`(ys)` the result is bit-identical
/// to passing `u64::MAX` (every block) whenever the products `w·x` are
/// finite, as they are for weights and scores in `[0, 1]`: a block of
/// zero scores adds `±0.0` to each lane, and a lane starts at `+0.0` and
/// never holds `−0.0`, so the add changes no bit. Callers without a
/// cached mask pass `u64::MAX`.
#[inline]
#[cfg_attr(any(), muaa::hot)]
pub fn pair_moments(weights: &[f64], xs: &[f64], ys: &[f64], blocks: u64) -> (f64, f64, f64) {
    debug_assert_eq!(weights.len(), xs.len());
    debug_assert_eq!(weights.len(), ys.len());
    let n = ys.len();
    let (weights, xs) = (&weights[..n], &xs[..n]);
    let mut ly = [0.0f64; LANES];
    let mut lyy = [0.0f64; LANES];
    let mut lxy = [0.0f64; LANES];
    let mut add = |w: &[f64], x: &[f64], y: &[f64]| {
        for l in 0..LANES {
            let wy = w[l] * y[l];
            ly[l] += wy;
            lyy[l] += wy * y[l];
            lxy[l] += (w[l] * x[l]) * y[l];
        }
    };
    let full = n / LANES;
    // The blocks the mask can name, and which of them it names.
    let named = match full {
        64.. => u64::MAX,
        _ => (1 << full) - 1,
    };
    let mut bits = blocks & named;
    if bits == named {
        // Every block (dense tags): the plain chunk loop. The bit scan's
        // per-block index work made dense rows 15–25 % slower per pair.
        let chunks = weights
            .chunks_exact(LANES)
            .zip(xs.chunks_exact(LANES))
            .zip(ys.chunks_exact(LANES));
        for ((w, x), y) in chunks {
            add(w, x, y);
        }
    } else {
        while bits != 0 {
            let at = bits.trailing_zeros() as usize * LANES;
            let run = at..at + LANES;
            add(&weights[run.clone()], &xs[run.clone()], &ys[run]);
            bits &= bits - 1;
        }
        for at in (64 * LANES..full * LANES).step_by(LANES) {
            let run = at..at + LANES;
            add(&weights[run.clone()], &xs[run.clone()], &ys[run]);
        }
    }
    let [mut swy, mut swyy, mut swxy] = reduce(&[ly, lyy, lxy]);
    for t in n - n % LANES..n {
        let w = weights[t];
        let y = ys[t];
        let wy = w * y;
        swy += wy;
        swyy += wy * y;
        swxy += (w * xs[t]) * y;
    }
    (swy, swyy, swxy)
}

/// Customer-side moments `(sw, swx, swxx) = Σ (w, w·x, (w·x)·x)` in the
/// canonical lane schedule.
#[inline]
#[cfg_attr(any(), muaa::hot)]
pub fn weight_moments(weights: &[f64], xs: &[f64]) -> (f64, f64, f64) {
    debug_assert_eq!(weights.len(), xs.len());
    let n = weights.len();
    let xs = &xs[..n];
    let mut lw = [0.0f64; LANES];
    let mut lwx = [0.0f64; LANES];
    let mut lwxx = [0.0f64; LANES];
    for (w, x) in weights.chunks_exact(LANES).zip(xs.chunks_exact(LANES)) {
        for l in 0..LANES {
            let wx = w[l] * x[l];
            lw[l] += w[l];
            lwx[l] += wx;
            lwxx[l] += wx * x[l];
        }
    }
    let [mut sw, mut swx, mut swxx] = reduce(&[lw, lwx, lwxx]);
    for t in n - n % LANES..n {
        let w = weights[t];
        let x = xs[t];
        let wx = w * x;
        sw += w;
        swx += wx;
        swxx += wx * x;
    }
    (sw, swx, swxx)
}

/// All six Eq. (5) raw moments `(sw, swx, swxx, swy, swyy, swxy)`
/// streamed in one pass over `(weights, xs, ys)` in the canonical lane
/// schedule. Bit-identical to composing [`weight_moments`] +
/// [`pair_moments`]: each moment's per-lane add chain performs exactly
/// the additions its split kernel performs, in the same order.
#[inline]
#[cfg_attr(any(), muaa::hot)]
pub fn fused_moments(weights: &[f64], xs: &[f64], ys: &[f64]) -> (f64, f64, f64, f64, f64, f64) {
    debug_assert_eq!(weights.len(), xs.len());
    debug_assert_eq!(weights.len(), ys.len());
    let n = ys.len();
    let (weights, xs) = (&weights[..n], &xs[..n]);
    let mut lw = [0.0f64; LANES];
    let mut lwx = [0.0f64; LANES];
    let mut lwxx = [0.0f64; LANES];
    let mut lwy = [0.0f64; LANES];
    let mut lwyy = [0.0f64; LANES];
    let mut lwxy = [0.0f64; LANES];
    let chunks = weights
        .chunks_exact(LANES)
        .zip(xs.chunks_exact(LANES))
        .zip(ys.chunks_exact(LANES));
    for ((w, x), y) in chunks {
        for l in 0..LANES {
            let wx = w[l] * x[l];
            let wy = w[l] * y[l];
            lw[l] += w[l];
            lwx[l] += wx;
            lwxx[l] += wx * x[l];
            lwy[l] += wy;
            lwyy[l] += wy * y[l];
            lwxy[l] += wx * y[l];
        }
    }
    let [mut sw, mut swx, mut swxx, mut swy, mut swyy, mut swxy] =
        reduce(&[lw, lwx, lwxx, lwy, lwyy, lwxy]);
    for t in n - n % LANES..n {
        let w = weights[t];
        let x = xs[t];
        let y = ys[t];
        let wx = w * x;
        let wy = w * y;
        sw += w;
        swx += wx;
        swxx += wx * x;
        swy += wy;
        swyy += wy * y;
        swxy += wx * y;
    }
    (sw, swx, swxx, swy, swyy, swxy)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random data in `[0, 1]` (no `rand` needed).
    fn data(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    fn bits3(m: (f64, f64, f64)) -> [u64; 3] {
        [m.0.to_bits(), m.1.to_bits(), m.2.to_bits()]
    }

    fn bits6(m: (f64, f64, f64, f64, f64, f64)) -> [u64; 6] {
        [
            m.0.to_bits(),
            m.1.to_bits(),
            m.2.to_bits(),
            m.3.to_bits(),
            m.4.to_bits(),
            m.5.to_bits(),
        ]
    }

    // The indexed spelling of the canonical schedule the kernels above
    // replaced: the bit-identity reference for them.

    fn pair_moments_indexed(weights: &[f64], xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
        let n = ys.len();
        let chunks = n / LANES;
        let mut ly = [0.0f64; LANES];
        let mut lyy = [0.0f64; LANES];
        let mut lxy = [0.0f64; LANES];
        for k in 0..chunks {
            let base = k * LANES;
            for l in 0..LANES {
                let w = weights[base + l];
                let x = xs[base + l];
                let y = ys[base + l];
                let wy = w * y;
                ly[l] += wy;
                lyy[l] += wy * y;
                lxy[l] += (w * x) * y;
            }
        }
        let mut swy = (ly[0] + ly[1]) + (ly[2] + ly[3]);
        let mut swyy = (lyy[0] + lyy[1]) + (lyy[2] + lyy[3]);
        let mut swxy = (lxy[0] + lxy[1]) + (lxy[2] + lxy[3]);
        for t in chunks * LANES..n {
            let w = weights[t];
            let y = ys[t];
            let wy = w * y;
            swy += wy;
            swyy += wy * y;
            swxy += (w * xs[t]) * y;
        }
        (swy, swyy, swxy)
    }

    fn weight_moments_indexed(weights: &[f64], xs: &[f64]) -> (f64, f64, f64) {
        let n = weights.len();
        let chunks = n / LANES;
        let mut lw = [0.0f64; LANES];
        let mut lwx = [0.0f64; LANES];
        let mut lwxx = [0.0f64; LANES];
        for k in 0..chunks {
            let base = k * LANES;
            for l in 0..LANES {
                let w = weights[base + l];
                let x = xs[base + l];
                let wx = w * x;
                lw[l] += w;
                lwx[l] += wx;
                lwxx[l] += wx * x;
            }
        }
        let mut sw = (lw[0] + lw[1]) + (lw[2] + lw[3]);
        let mut swx = (lwx[0] + lwx[1]) + (lwx[2] + lwx[3]);
        let mut swxx = (lwxx[0] + lwxx[1]) + (lwxx[2] + lwxx[3]);
        for t in chunks * LANES..n {
            let w = weights[t];
            let x = xs[t];
            let wx = w * x;
            sw += w;
            swx += wx;
            swxx += wx * x;
        }
        (sw, swx, swxx)
    }

    fn fused_moments_indexed(
        weights: &[f64],
        xs: &[f64],
        ys: &[f64],
    ) -> (f64, f64, f64, f64, f64, f64) {
        let n = ys.len();
        let chunks = n / LANES;
        let mut lw = [0.0f64; LANES];
        let mut lwx = [0.0f64; LANES];
        let mut lwxx = [0.0f64; LANES];
        let mut lwy = [0.0f64; LANES];
        let mut lwyy = [0.0f64; LANES];
        let mut lwxy = [0.0f64; LANES];
        for k in 0..chunks {
            let base = k * LANES;
            for l in 0..LANES {
                let w = weights[base + l];
                let x = xs[base + l];
                let y = ys[base + l];
                let wx = w * x;
                let wy = w * y;
                lw[l] += w;
                lwx[l] += wx;
                lwxx[l] += wx * x;
                lwy[l] += wy;
                lwyy[l] += wy * y;
                lwxy[l] += wx * y;
            }
        }
        let mut sw = (lw[0] + lw[1]) + (lw[2] + lw[3]);
        let mut swx = (lwx[0] + lwx[1]) + (lwx[2] + lwx[3]);
        let mut swxx = (lwxx[0] + lwxx[1]) + (lwxx[2] + lwxx[3]);
        let mut swy = (lwy[0] + lwy[1]) + (lwy[2] + lwy[3]);
        let mut swyy = (lwyy[0] + lwyy[1]) + (lwyy[2] + lwyy[3]);
        let mut swxy = (lwxy[0] + lwxy[1]) + (lwxy[2] + lwxy[3]);
        for t in chunks * LANES..n {
            let w = weights[t];
            let x = xs[t];
            let y = ys[t];
            let wx = w * x;
            let wy = w * y;
            sw += w;
            swx += wx;
            swxx += wx * x;
            swy += wy;
            swyy += wy * y;
            swxy += wx * y;
        }
        (sw, swx, swxx, swy, swyy, swxy)
    }

    // The pre-§16 strictly sequential spellings: plain index-order sums.
    // Not bit-compatible with the canonical schedule once `len > LANES`,
    // though both agree to ~1e-12 relative accuracy, and exactly when
    // `len ≤ LANES` (zero full chunks).

    fn pair_moments_sequential(weights: &[f64], xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
        let (mut swy, mut swyy, mut swxy) = (0.0, 0.0, 0.0);
        for t in 0..ys.len() {
            let w = weights[t];
            let y = ys[t];
            swy += w * y;
            swyy += w * y * y;
            swxy += w * xs[t] * y;
        }
        (swy, swyy, swxy)
    }

    fn weight_moments_sequential(weights: &[f64], xs: &[f64]) -> (f64, f64, f64) {
        let (mut sw, mut swx, mut swxx) = (0.0, 0.0, 0.0);
        for t in 0..weights.len() {
            let w = weights[t];
            let x = xs[t];
            sw += w;
            swx += w * x;
            swxx += w * x * x;
        }
        (sw, swx, swxx)
    }

    fn fused_moments_sequential(
        weights: &[f64],
        xs: &[f64],
        ys: &[f64],
    ) -> (f64, f64, f64, f64, f64, f64) {
        let (mut sw, mut swx, mut swxx) = (0.0, 0.0, 0.0);
        let (mut swy, mut swyy, mut swxy) = (0.0, 0.0, 0.0);
        for t in 0..ys.len() {
            let w = weights[t];
            let x = xs[t];
            let y = ys[t];
            let wx = w * x;
            let wy = w * y;
            sw += w;
            swx += wx;
            swxx += wx * x;
            swy += wy;
            swyy += wy * y;
            swxy += wx * y;
        }
        (sw, swx, swxx, swy, swyy, swxy)
    }

    #[test]
    fn kernels_match_the_indexed_spelling_bit_for_bit_at_all_widths() {
        // Widths 0..=65 cover empty input, tail-only, exact multiples of
        // LANES and every ragged-tail residue.
        for n in 0..=65usize {
            let w = data(n, 1 + n as u64);
            let x = data(n, 1000 + n as u64);
            let y = data(n, 2000 + n as u64);
            assert_eq!(
                bits3(pair_moments(&w, &x, &y, u64::MAX)),
                bits3(pair_moments_indexed(&w, &x, &y)),
                "pair_moments diverged from the indexed spelling at width {n}"
            );
            assert_eq!(
                bits3(weight_moments(&w, &x)),
                bits3(weight_moments_indexed(&w, &x)),
                "weight_moments diverged from the indexed spelling at width {n}"
            );
            assert_eq!(
                bits6(fused_moments(&w, &x, &y)),
                bits6(fused_moments_indexed(&w, &x, &y)),
                "fused_moments diverged from the indexed spelling at width {n}"
            );
        }
    }

    #[test]
    fn fused_spelling_is_bit_identical_to_the_split_kernels() {
        // The fused kernel streams both loops in one pass; each moment's
        // per-lane add chain must still be exactly the one its split
        // kernel performs.
        for n in 0..=65usize {
            let w = data(n, 31 + n as u64);
            let x = data(n, 3100 + n as u64);
            let y = data(n, 6200 + n as u64);
            let (sw, swx, swxx) = weight_moments(&w, &x);
            let (swy, swyy, swxy) = pair_moments(&w, &x, &y, u64::MAX);
            assert_eq!(
                bits6(fused_moments(&w, &x, &y)),
                bits6((sw, swx, swxx, swy, swyy, swxy)),
                "fused vs split kernels diverged at width {n}"
            );
        }
    }

    #[test]
    fn tail_only_widths_degenerate_to_the_sequential_order() {
        // With fewer than LANES elements there are zero full chunks, so
        // the canonical schedule *is* the sequential loop — bitwise.
        for n in 0..LANES {
            let w = data(n, 7);
            let x = data(n, 8);
            let y = data(n, 9);
            assert_eq!(
                bits3(pair_moments(&w, &x, &y, u64::MAX)),
                bits3(pair_moments_sequential(&w, &x, &y)),
                "tail-only width {n} must match the sequential spelling"
            );
            assert_eq!(
                bits3(weight_moments(&w, &x)),
                bits3(weight_moments_sequential(&w, &x))
            );
            assert_eq!(
                bits6(fused_moments(&w, &x, &y)),
                bits6(fused_moments_sequential(&w, &x, &y))
            );
        }
    }

    #[test]
    fn chunked_and_sequential_orders_agree_numerically() {
        // The canonical reorder is a pure reassociation: identical terms,
        // different add order — so the spellings agree to ~1e-12 even
        // where they are not bitwise equal.
        for n in [5usize, 16, 33, 64, 257] {
            let w = data(n, 11);
            let x = data(n, 12);
            let y = data(n, 13);
            let a = pair_moments(&w, &x, &y, u64::MAX);
            let b = pair_moments_sequential(&w, &x, &y);
            for (ca, cb) in [(a.0, b.0), (a.1, b.1), (a.2, b.2)] {
                assert!(
                    (ca - cb).abs() <= 1e-12 * cb.abs().max(1.0),
                    "reassociation drifted at width {n}: {ca} vs {cb}"
                );
            }
        }
    }

    #[test]
    fn nonzero_blocks_marks_the_first_64_full_blocks_holding_a_non_zero() {
        assert_eq!(nonzero_blocks(&[]), 0);
        // A non-zero in the ragged tail has no bit; ±0 is zero, NaN is not.
        assert_eq!(nonzero_blocks(&[0.0, -0.0, 0.0, 0.0, 1.0]), 0);
        assert_eq!(nonzero_blocks(&[0.0, 0.0, 0.0, f64::NAN]), 1);
        let mut ys = vec![0.0; 4 * 70 + 3];
        for k in [1, 5, 63, 64, 69] {
            ys[4 * k + 3] = 0.5;
        }
        assert_eq!(nonzero_blocks(&ys), 1 << 1 | 1 << 5 | 1 << 63);
    }

    #[test]
    fn moments_of_empty_input_are_zero() {
        assert_eq!(pair_moments(&[], &[], &[], u64::MAX), (0.0, 0.0, 0.0));
        assert_eq!(weight_moments(&[], &[]), (0.0, 0.0, 0.0));
        assert_eq!(fused_moments(&[], &[], &[]), (0.0, 0.0, 0.0, 0.0, 0.0, 0.0));
    }
}
