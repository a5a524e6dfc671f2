//! Fixture (allow hygiene × D12 interplay): an `allow(nondet)` on a fn waives
//! the taint *introduced* on that line, but taint flowing *through*
//! the same fn from deeper in the chain is untouched. Exactly one
//! D12 must fire here — the environment read in `deep`, witnessed
//! through `mid` — while the annotated `Instant::now` stays quiet and
//! the annotation itself counts as used (not stale).

pub fn solve() -> u64 {
    mid()
}

fn mid() -> u64 {
    // Probe timing only feeds the debug log line, never the
    // assignment values. lint: allow(nondet)
    let t = std::time::Instant::now();
    let v = deep();
    let _ = t.elapsed();
    v
}

fn deep() -> u64 {
    if std::env::var("MUAA_FAST").is_ok() {
        1
    } else {
        2
    }
}
