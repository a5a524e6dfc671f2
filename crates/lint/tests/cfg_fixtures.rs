//! CFG construction and typestate-rule fixtures (DESIGN.md §19).
//!
//! The shape fixtures under `fixtures/cfg/` pin the lowering — loop
//! back edges, labeled break/continue targets, match-arm branching,
//! `?` error edges, early-return reachability, and the dataflow
//! fixpoint on a diamond-with-back-edge — against real on-disk
//! sources. The typestate fixtures are deliberately broken in exactly
//! one way each and run through the full pipeline (`check_source`),
//! so they also prove D15 and D16 produce *only* the intended findings
//! and stay quiet on the clean twins sharing the file.

use muaa_lint::cfg::{self, Cfg, EdgeKind};
use muaa_lint::rules::FileAnalysis;
use muaa_lint::tree;

/// Build the CFG of fn `name` inside `src`.
fn cfg_of(src: &str, name: &str) -> Cfg {
    let fa = FileAnalysis::new("crates/core/src/fixture.rs", src);
    let items = tree::build(&fa);
    let f = items
        .fns
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("fixture lost fn `{name}`"));
    cfg::build_fn(
        &fa,
        f.body.unwrap_or_else(|| panic!("`{name}` has no body")),
    )
}

fn kind_count(cfg: &Cfg, kind: EdgeKind) -> usize {
    cfg.edges.iter().filter(|&&(_, _, k)| k == kind).count()
}

/// 1-indexed line of the first occurrence of `needle`.
fn line_of(src: &str, needle: &str) -> u32 {
    src.lines()
        .position(|l| l.contains(needle))
        .map(|i| i as u32 + 1)
        .unwrap_or_else(|| panic!("fixture lost its `{needle}` line"))
}

#[test]
fn nested_loops_resolve_labeled_and_bare_jumps() {
    let src = include_str!("fixtures/cfg/nested_loops.rs");
    let g = cfg_of(src, "scan");
    assert_eq!(kind_count(&g, EdgeKind::Back), 2, "{g:?}");
    assert_eq!(kind_count(&g, EdgeKind::Break), 2);
    assert_eq!(kind_count(&g, EdgeKind::Continue), 2);
    // The outer head is the target of the outer back edge (created
    // first, so it has the smaller block id).
    let outer_head = g
        .edges
        .iter()
        .filter(|&&(_, _, k)| k == EdgeKind::Back)
        .map(|&(_, t, _)| t)
        .min()
        .expect("back edges");
    let continue_targets: Vec<usize> = g
        .edges
        .iter()
        .filter(|&&(_, _, k)| k == EdgeKind::Continue)
        .map(|&(_, t, _)| t)
        .collect();
    assert!(
        continue_targets.contains(&outer_head),
        "continue 'outer must target the outer head: {g:?}"
    );
    assert!(
        continue_targets.iter().any(|&t| t != outer_head),
        "the bare continue must target the inner head: {g:?}"
    );
    // break 'outer lands where the outer loop's zero-iteration edge
    // does; the bare break lands at the inner loop's after-block.
    let outer_after = g
        .edges
        .iter()
        .find(|&&(f, _, k)| f == outer_head && k == EdgeKind::Branch)
        .map(|&(_, t, _)| t)
        .expect("outer zero-iteration exit");
    let break_targets: Vec<usize> = g
        .edges
        .iter()
        .filter(|&&(_, _, k)| k == EdgeKind::Break)
        .map(|&(_, t, _)| t)
        .collect();
    assert!(break_targets.contains(&outer_after), "{g:?}");
    assert!(break_targets.iter().any(|&t| t != outer_after), "{g:?}");
    assert!(g.reachable()[g.exit]);
}

#[test]
fn breakless_loop_escapes_only_through_the_labeled_break() {
    let src = include_str!("fixtures/cfg/labeled_flow.rs");
    let g = cfg_of(src, "drain");
    // Two real loops (the labeled block is not one), three breaks.
    assert_eq!(kind_count(&g, EdgeKind::Back), 2, "{g:?}");
    assert_eq!(kind_count(&g, EdgeKind::Break), 3);
    let reach = g.reachable();
    assert!(
        reach[g.exit],
        "break 'done must make the tail reachable: {g:?}"
    );
    // The bare outer loop has no zero-iteration branch: its after
    // block is reachable only via the labeled break.
    let outer_head = g
        .edges
        .iter()
        .filter(|&&(_, _, k)| k == EdgeKind::Back)
        .map(|&(_, t, _)| t)
        .min()
        .expect("back edges");
    let head_branches = g
        .edges
        .iter()
        .filter(|&&(f, _, k)| f == outer_head && k == EdgeKind::Branch)
        .count();
    assert_eq!(
        head_branches, 1,
        "bare loop head only enters its body: {g:?}"
    );
}

#[test]
fn match_guards_branch_per_arm_with_guard_error_edges() {
    let src = include_str!("fixtures/cfg/match_guards.rs");
    let g = cfg_of(src, "area");
    // One Branch per arm, all out of the scrutinee block.
    let branch_sources: Vec<usize> = g
        .edges
        .iter()
        .filter(|&&(_, _, k)| k == EdgeKind::Branch)
        .map(|&(f, _, _)| f)
        .collect();
    assert_eq!(branch_sources, vec![g.entry; 5], "{g:?}");
    // The `checked(base)?` guard contributes the only Err edge, from
    // an arm block — not from the scrutinee.
    let errs: Vec<usize> = g
        .edges
        .iter()
        .filter(|&&(_, _, k)| k == EdgeKind::Err)
        .map(|&(f, _, _)| f)
        .collect();
    assert_eq!(errs.len(), 1, "{g:?}");
    assert_ne!(errs[0], g.entry, "guard `?` belongs to its arm: {g:?}");
    // `Shape::Ring(r) if *r == 0 => return Err(())`.
    assert_eq!(kind_count(&g, EdgeKind::Return), 1);
}

#[test]
fn try_and_return_edges_reach_the_exit() {
    let src = include_str!("fixtures/cfg/try_and_return.rs");
    let g = cfg_of(src, "load");
    assert_eq!(kind_count(&g, EdgeKind::Err), 2, "two `?` sites: {g:?}");
    assert_eq!(
        kind_count(&g, EdgeKind::Return),
        2,
        "two early returns: {g:?}"
    );
    for &(_, to, k) in &g.edges {
        if matches!(k, EdgeKind::Err | EdgeKind::Return) {
            assert_eq!(to, g.exit, "{g:?}");
        }
    }
    assert!(g.reachable()[g.exit]);
}

#[test]
fn dataflow_fixpoint_converges_around_the_back_edge() {
    let src = include_str!("fixtures/cfg/diamond_back_edge.rs");
    let g = cfg_of(src, "alternate");
    let states = cfg::forward(
        &g,
        &(1u64 << g.entry),
        &0u64,
        |a, b| a | b,
        |s, b| s | (1 << b),
    );
    let head = g
        .edges
        .iter()
        .find(|&&(_, _, k)| k == EdgeKind::Back)
        .map(|&(_, t, _)| t)
        .expect("back edge");
    let branch_blocks: Vec<usize> = g
        .edges
        .iter()
        .filter(|&&(f, _, k)| k == EdgeKind::Branch && f != head)
        .map(|&(_, t, _)| t)
        .collect();
    assert_eq!(
        branch_blocks.len(),
        2,
        "then/else of the body diamond: {g:?}"
    );
    for b in branch_blocks {
        assert!(
            states[head] & (1 << b) != 0,
            "facts from block {b} must flow around the back edge into the head"
        );
    }
}

#[test]
fn guard_lifetime_fixture_trips_d15_three_ways() {
    let src = include_str!("fixtures/cfg/guard_lifetime.rs");
    let violations = muaa_lint::check_source("crates/algorithms/src/guard_fixture.rs", src);
    let report: Vec<String> = violations.iter().map(ToString::to_string).collect();
    assert_eq!(violations.len(), 3, "{report:?}");
    assert!(violations.iter().all(|v| v.rule == "D15"), "{report:?}");
    let lines: Vec<u32> = violations.iter().map(|v| v.line).collect();
    assert!(
        lines.contains(&line_of(src, "let _ = AllocGuard::strict")),
        "{report:?}"
    );
    assert!(
        lines.contains(&line_of(src, "std::mem::forget(g)")),
        "{report:?}"
    );
    assert!(lines.contains(&line_of(src, "drop(sw)")), "{report:?}");
}

#[test]
fn epoch_protocol_fixture_trips_d16_three_ways() {
    let src = include_str!("fixtures/cfg/epoch_protocol.rs");
    let violations = muaa_lint::check_source("crates/algorithms/src/epoch_fixture.rs", src);
    let report: Vec<String> = violations.iter().map(ToString::to_string).collect();
    assert_eq!(violations.len(), 3, "{report:?}");
    assert!(violations.iter().all(|v| v.rule == "D16"), "{report:?}");
    let mutation_first = violations
        .iter()
        .find(|v| v.line == line_of(src, "self.cache.invalidate_customer(*id);"))
        .unwrap_or_else(|| panic!("mutation-before-bump finding missing: {report:?}"));
    assert!(
        mutation_first.message.contains("without an epoch bump"),
        "{report:?}"
    );
    let torn = violations
        .iter()
        .find(|v| v.line == line_of(src, "return Err(());"))
        .unwrap_or_else(|| panic!("Err-after-mutation finding missing: {report:?}"));
    assert!(torn.message.contains("valid-prefix"), "{report:?}");
    let double = violations
        .iter()
        .find(|v| v.line == line_of(src, "self.rows.push_row(0);"))
        .unwrap_or_else(|| panic!("double-bump finding missing: {report:?}"));
    assert!(double.message.contains("more than one"), "{report:?}");
}

#[test]
fn shape_fixtures_stay_clean_under_the_full_rule_set() {
    for (path, src) in [
        (
            "crates/algorithms/src/nested_loops.rs",
            include_str!("fixtures/cfg/nested_loops.rs"),
        ),
        (
            "crates/algorithms/src/labeled_flow.rs",
            include_str!("fixtures/cfg/labeled_flow.rs"),
        ),
        (
            "crates/algorithms/src/match_guards.rs",
            include_str!("fixtures/cfg/match_guards.rs"),
        ),
        (
            "crates/algorithms/src/try_and_return.rs",
            include_str!("fixtures/cfg/try_and_return.rs"),
        ),
        (
            "crates/algorithms/src/diamond_back_edge.rs",
            include_str!("fixtures/cfg/diamond_back_edge.rs"),
        ),
    ] {
        let violations = muaa_lint::check_source(path, src);
        let report: Vec<String> = violations.iter().map(ToString::to_string).collect();
        assert!(violations.is_empty(), "{path} must stay clean: {report:?}");
    }
}
