//! Fixture (D17): manual f64 accumulation in hot loops and clean
//! twins. The broken shapes never spell `.sum()`/`.fold(` — the gap
//! D14's reduction scan leaves — but still accumulate in loop order.

/// BROKEN: loop-carried `+=` into an f64 in a hot fn.
#[muaa::hot]
pub fn broken_hot_sum(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    for x in xs {
        total += *x;
    }
    total
}

/// BROKEN: indexed lane accumulator in a hot fn.
#[muaa::hot]
pub fn broken_hot_lanes(xs: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut i = 0;
    while i < xs.len() {
        lanes[i % 4] += xs[i];
        i += 1;
    }
    lanes[0] + lanes[1] + lanes[2] + lanes[3]
}

/// Clean: the accumulator resets inside the loop, so it is not
/// loop-carried — each iteration's order is self-contained.
#[muaa::hot]
pub fn clean_per_item(xs: &[f64], out: &mut [f64]) {
    for (i, x) in xs.iter().enumerate() {
        let mut local = 0.0;
        local += *x;
        out[i] = local;
    }
}

/// Clean: integer accumulation is exact; order cannot drift it.
#[muaa::hot]
pub fn clean_int_count(xs: &[u32]) -> u32 {
    let mut count = 0;
    for x in xs {
        count += *x;
    }
    count
}

/// Clean: hot, but routes the reduction through the sanctioned
/// reducer instead of a manual loop.
#[muaa::hot]
pub fn clean_routed(xs: &[f64]) -> f64 {
    muaa_core::par::sum_f64(xs)
}
