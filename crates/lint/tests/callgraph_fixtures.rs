//! Call-graph resolution and taint fixtures, fed through the full
//! pipeline (`run_sources`, every rule) so they also pin the rule
//! *interactions*: an allow a rule uses is not stale, and a hot-alloc
//! waiver at a call site does not waive the allocation in its callee.
//!
//! Each fixture under `fixtures/callgraph/` isolates one resolution
//! edge case; the synthetic workspace paths place them in the crates
//! whose rules they exercise.

use muaa_lint::Report;

fn run(files: &[(&str, &str)]) -> Report {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    muaa_lint::run_sources(&owned)
}

/// 1-indexed line of the first occurrence of `needle`.
fn line_of(src: &str, needle: &str) -> u32 {
    src.lines()
        .position(|l| l.contains(needle))
        .map(|i| i as u32 + 1)
        .unwrap_or_else(|| panic!("fixture lost its `{needle}` line"))
}

#[test]
fn trait_object_calls_widen_to_every_impl() {
    let src = include_str!("fixtures/callgraph/trait_method_calls.rs");
    let report = run(&[("crates/algorithms/src/stage.rs", src)]);
    let v = &report.violations;
    assert_eq!(v.len(), 1, "{}", report.render());
    assert_eq!(v[0].rule, "D12");
    // Anchored at the entry point, witnessed through the wall-clock impl.
    assert_eq!(v[0].line, line_of(src, "pub fn solve"));
    assert!(v[0].message.contains("Instant::now"), "{}", v[0].message);
    assert!(v[0].message.contains("Wall::run_stage"), "{}", v[0].message);
}

#[test]
fn turbofish_generic_call_taints_the_root() {
    let src = include_str!("fixtures/callgraph/generic_fns.rs");
    let report = run(&[("crates/algorithms/src/seeded.rs", src)]);
    let v = &report.violations;
    assert_eq!(v.len(), 1, "{}", report.render());
    assert_eq!(v[0].rule, "D12");
    assert_eq!(v[0].line, line_of(src, "pub fn solve"));
    assert!(v[0].message.contains("env::var"), "{}", v[0].message);
    assert!(v[0].message.contains("seed"), "{}", v[0].message);
}

#[test]
fn match_guard_calls_are_edges() {
    let src = include_str!("fixtures/callgraph/match_guards.rs");
    let report = run(&[("crates/algorithms/src/guards.rs", src)]);
    let v = &report.violations;
    assert_eq!(v.len(), 1, "{}", report.render());
    assert_eq!(v[0].rule, "D12");
    assert_eq!(v[0].line, line_of(src, "pub fn solve"));
    assert!(v[0].message.contains("noisy"), "{}", v[0].message);
}

#[test]
fn shadowed_method_without_a_type_mention_stays_a_vec_call() {
    let registry = include_str!("fixtures/callgraph/shadowed_registry.rs");
    let caller = include_str!("fixtures/callgraph/shadowed_vec_caller.rs");
    let report = run(&[
        ("crates/core/src/shadowed_registry.rs", registry),
        ("crates/core/src/shadowed_vec_caller.rs", caller),
    ]);
    // The hot fn's own push is waived by its allow; without a
    // `Registry` mention in the calling file there is no edge into
    // `Registry::push`, so D13 has nothing to say.
    assert!(report.clean(), "{}", report.render());
}

#[test]
fn shadowed_method_with_a_type_mention_keeps_the_edge() {
    let registry = include_str!("fixtures/callgraph/shadowed_registry.rs");
    let caller = include_str!("fixtures/callgraph/shadowed_registry_caller.rs");
    let report = run(&[
        ("crates/core/src/shadowed_registry.rs", registry),
        ("crates/core/src/shadowed_registry_caller.rs", caller),
    ]);
    let v = &report.violations;
    assert_eq!(v.len(), 1, "{}", report.render());
    assert_eq!(v[0].rule, "D13");
    // The waiver on the call site does not waive the *transitive*
    // finding, which lands on the allocation inside the callee.
    assert_eq!(v[0].file, "crates/core/src/shadowed_registry.rs");
    assert_eq!(v[0].line, line_of(registry, "self.items.push"));
    assert!(v[0].message.contains("feed"), "{}", v[0].message);
}

#[test]
fn allow_nondet_waives_introduction_but_not_transit() {
    let src = include_str!("fixtures/callgraph/allow_nondet_midchain.rs");
    let report = run(&[("crates/algorithms/src/midchain.rs", src)]);
    let v = &report.violations;
    // Exactly one finding: the env read in `deep`, flowing *through*
    // the annotated `mid`. The annotated Instant stays quiet, and the
    // annotation counts as used, so it is not stale either.
    assert_eq!(v.len(), 1, "{}", report.render());
    assert_eq!(v[0].rule, "D12");
    assert!(v[0].message.contains("env::var"), "{}", v[0].message);
    assert!(v[0].message.contains("deep"), "{}", v[0].message);
    assert!(!v[0].message.contains("Instant"), "{}", v[0].message);
}

#[test]
fn fixture_taint_disappears_when_routed_through_the_clock_shim() {
    // The same wall-clock read is fine when it lives in the sanctioned
    // clock module: the wrapper absorbs the taint.
    let shim = "pub fn probe() -> u64 {\n    let t = std::time::Instant::now();\n    t.elapsed().as_nanos() as u64\n}\n";
    let solver = "pub fn solve() -> u64 {\n    probe()\n}\n";
    let report = run(&[
        ("crates/core/src/clock.rs", shim),
        ("crates/algorithms/src/uses_shim.rs", solver),
    ]);
    assert!(report.clean(), "{}", report.render());
}
