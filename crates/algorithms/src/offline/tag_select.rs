//! Vendor-side broadcast tag selection: an *outer* optimization loop
//! over the tag vectors `ψ_j` the vendors advertise.
//!
//! The paper fixes each vendor's tags and optimizes the assignment.
//! This module asks the dual question a broker faces at onboarding
//! time: given the customer population, which `k` tags should each
//! vendor broadcast to maximize the utility the *inner* solver can
//! then extract? The search is a per-vendor coordinate ascent —
//! greedy forward selection with an optional swap-improvement pass —
//! where every candidate evaluation is one [`Delta::VendorTags`]
//! application (a memo *column reset*, never a context rebuild)
//! followed by an incremental GREEDY re-solve.
//!
//! The loop is written against [`SelectionEngine`], which
//! [`SolverContext`] implements. The loop branches only on utility
//! comparisons of byte-identical solves, so the *selected tags* do not
//! depend on the thread count.
//!
//! Candidate order is deterministic: tags are ranked by an optional
//! per-vendor seed score (e.g. taxonomy interest-propagation mass
//! from `muaa-taxonomy`), descending, with index order breaking ties;
//! utility ties keep the earlier candidate. Vendors are processed in
//! ascending id order.

use crate::context::SolverContext;
use crate::offline::greedy::Greedy;
use crate::offline::OfflineSolver;
use muaa_core::{
    AssignmentSet, CoreError, Delta, ProblemInstance, TagVector, UtilityModel, VendorId,
};

/// A solver stack the tag-selection loop can drive.
///
/// [`SolverContext`] routes `set_tags` through its `Delta::VendorTags`
/// arm, so the cost of a candidate evaluation is one memo column reset
/// plus an incremental re-solve, never a from-scratch rebuild. Callers
/// may wrap a context in their own engine, e.g. to time each call.
pub trait SelectionEngine {
    /// Replace vendor `vid`'s broadcast tag vector incrementally.
    fn set_tags(&mut self, vid: VendorId, tags: TagVector) -> Result<(), CoreError>;

    /// Solve the current world with GREEDY and return the assignments.
    fn solve(&mut self) -> AssignmentSet;

    /// The instance in its current (post-delta) state.
    fn instance(&self) -> &ProblemInstance;

    /// The utility model the engine scores with.
    fn model(&self) -> &dyn UtilityModel;

    /// Total utility of `set` under the current world, summed in
    /// assignment order, so equal assignment sets score to bit-equal
    /// utilities.
    fn utility_of(&self, set: &AssignmentSet) -> f64 {
        set.total_utility(self.instance(), self.model())
    }
}

impl SelectionEngine for SolverContext<'_> {
    fn set_tags(&mut self, vid: VendorId, tags: TagVector) -> Result<(), CoreError> {
        self.apply(&Delta::VendorTags(vid, tags))
    }

    fn solve(&mut self) -> AssignmentSet {
        Greedy.assign(self)
    }

    fn instance(&self) -> &ProblemInstance {
        SolverContext::instance(self)
    }

    fn model(&self) -> &dyn UtilityModel {
        SolverContext::model(self)
    }
}

/// Configuration for [`select_tags`].
#[derive(Clone, Debug)]
pub struct TagSelectConfig {
    /// Number of tags each vendor broadcasts (each at score 1.0).
    /// Clamped per vendor to the tag-universe size.
    pub k: usize,
    /// Candidate pool per vendor: only the first `pool` tags in seed
    /// order are considered. `0` means the whole universe. Clamped up
    /// to `k` so a selection always exists.
    pub pool: usize,
    /// After the greedy build, run swap-improvement passes (replace
    /// one chosen tag by one unchosen candidate whenever that strictly
    /// raises utility) until a fixpoint.
    pub swap_pass: bool,
    /// Optional per-vendor candidate-ranking scores, outer `Vec`
    /// indexed by vendor id, inner by tag index (e.g. taxonomy
    /// interest-propagation mass over the customer population).
    /// Higher score = tried earlier. `None` ranks tags by index.
    pub seed_scores: Option<Vec<Vec<f64>>>,
}

impl TagSelectConfig {
    /// Greedy forward selection of `k` tags, full candidate pool, no
    /// swap pass, index-ordered candidates.
    pub fn greedy(k: usize) -> Self {
        TagSelectConfig {
            k,
            pool: 0,
            swap_pass: false,
            seed_scores: None,
        }
    }

    /// Enable the swap-improvement local search.
    pub fn with_swap_pass(mut self) -> Self {
        self.swap_pass = true;
        self
    }

    /// Restrict each vendor's candidate pool to the first `pool` tags
    /// in seed order.
    pub fn with_pool(mut self, pool: usize) -> Self {
        self.pool = pool;
        self
    }

    /// Rank candidates by per-vendor seed scores.
    pub fn with_seed_scores(mut self, scores: Vec<Vec<f64>>) -> Self {
        self.seed_scores = Some(scores);
        self
    }
}

/// Result of a tag-selection run.
#[derive(Clone, Debug)]
pub struct TagSelection {
    /// Chosen tag indices per vendor, ascending within each vendor.
    pub chosen: Vec<Vec<usize>>,
    /// Total utility of the final configuration's GREEDY solve.
    pub utility: f64,
    /// The final GREEDY assignment set under the selected tags.
    pub assignments: AssignmentSet,
    /// Number of incremental re-solves performed (one per candidate
    /// evaluation — the quantity the column reset makes cheap).
    pub resolves: usize,
}

/// A `k`-hot broadcast vector: score 1.0 at each index in `tags`,
/// 0.0 elsewhere.
fn k_hot(universe: usize, tags: &[usize]) -> TagVector {
    let mut scores = vec![0.0; universe];
    for &t in tags {
        scores[t] = 1.0;
    }
    TagVector::new_unchecked(scores)
}

/// Candidate tag order for vendor `j`: seed score descending, index
/// ascending on ties, truncated to the pool size.
fn candidate_order(cfg: &TagSelectConfig, j: usize, universe: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..universe).collect();
    if let Some(scores) = &cfg.seed_scores {
        let row = &scores[j];
        assert_eq!(
            row.len(),
            universe,
            "seed-score row {j} must cover the tag universe"
        );
        order.sort_by(|&a, &b| row[b].total_cmp(&row[a]).then(a.cmp(&b)));
    }
    let pool = if cfg.pool == 0 {
        universe
    } else {
        cfg.pool.max(cfg.k).min(universe)
    };
    order.truncate(pool);
    order
}

/// Evaluate one candidate tag set for one vendor: apply it (column
/// reset), re-solve, score.
fn evaluate<E: SelectionEngine>(
    engine: &mut E,
    vid: VendorId,
    universe: usize,
    tags: &[usize],
    resolves: &mut usize,
) -> f64 {
    engine
        .set_tags(vid, k_hot(universe, tags))
        .expect("k-hot vector matches the tag universe");
    *resolves += 1;
    let set = engine.solve();
    engine.utility_of(&set)
}

/// Select `k` broadcast tags for every vendor by per-vendor greedy
/// forward selection (plus optional swap local search), re-solving
/// incrementally after each candidate column reset. Leaves the engine
/// with the selected tags applied.
///
/// Deterministic: the same instance and config yield bit-identical
/// `chosen`, `utility`, and `assignments`.
pub fn select_tags<E: SelectionEngine>(engine: &mut E, cfg: &TagSelectConfig) -> TagSelection {
    let universe = engine.instance().tag_universe();
    let num_vendors = engine.instance().num_vendors();
    let k = cfg.k.min(universe);
    let mut chosen: Vec<Vec<usize>> = vec![Vec::new(); num_vendors];
    let mut resolves = 0usize;

    for (j, chosen_j) in chosen.iter_mut().enumerate() {
        if k == 0 || universe == 0 {
            continue;
        }
        let vid = VendorId::from(j);
        let candidates = candidate_order(cfg, j, universe);
        let mut current: Vec<usize> = Vec::with_capacity(k);

        // Greedy forward selection: fill the k slots one at a time,
        // each slot taking the candidate whose addition scores
        // highest. Ties keep the earlier candidate.
        for _slot in 0..k {
            let mut best: Option<(usize, f64)> = None;
            for &cand in &candidates {
                if current.contains(&cand) {
                    continue;
                }
                let mut trial = current.clone();
                trial.push(cand);
                let u = evaluate(engine, vid, universe, &trial, &mut resolves);
                if best.is_none_or(|(_, bu)| u > bu) {
                    best = Some((cand, u));
                }
            }
            let Some((cand, _)) = best else { break };
            current.push(cand);
        }

        // Swap local search: replace one chosen tag with one unchosen
        // candidate whenever that strictly improves utility; repeat to
        // a fixpoint. Each sweep tries swaps in (chosen-slot,
        // candidate) order and commits the first improvement found.
        if cfg.swap_pass && current.len() == k {
            let mut incumbent = evaluate(engine, vid, universe, &current, &mut resolves);
            loop {
                let mut improved = false;
                'sweep: for slot in 0..current.len() {
                    for &cand in &candidates {
                        if current.contains(&cand) {
                            continue;
                        }
                        let mut trial = current.clone();
                        trial[slot] = cand;
                        let u = evaluate(engine, vid, universe, &trial, &mut resolves);
                        if u > incumbent {
                            current = trial;
                            incumbent = u;
                            improved = true;
                            break 'sweep;
                        }
                    }
                }
                if !improved {
                    break;
                }
            }
        }

        // Commit the winner (later trials may have left a losing
        // vector applied).
        engine
            .set_tags(vid, k_hot(universe, &current))
            .expect("k-hot vector matches the tag universe");
        current.sort_unstable();
        *chosen_j = current;
    }

    let assignments = engine.solve();
    let utility = engine.utility_of(&assignments);
    TagSelection {
        chosen,
        utility,
        assignments,
        resolves,
    }
}

/// Exhaustive per-vendor selection: for each vendor (ascending id),
/// enumerate *every* `k`-subset of its candidate pool and keep the
/// best (ties keep the first subset in enumeration order, which is
/// lexicographic over the candidate order). Exponential in `k` — for
/// verifying [`select_tags`] on small instances only.
pub fn select_tags_exhaustive<E: SelectionEngine>(
    engine: &mut E,
    cfg: &TagSelectConfig,
) -> TagSelection {
    let universe = engine.instance().tag_universe();
    let num_vendors = engine.instance().num_vendors();
    let k = cfg.k.min(universe);
    let mut chosen: Vec<Vec<usize>> = vec![Vec::new(); num_vendors];
    let mut resolves = 0usize;

    for (j, chosen_j) in chosen.iter_mut().enumerate() {
        if k == 0 || universe == 0 {
            continue;
        }
        let vid = VendorId::from(j);
        let candidates = candidate_order(cfg, j, universe);
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut subset = Vec::with_capacity(k);
        enumerate_subsets(&candidates, k, 0, &mut subset, &mut |trial| {
            let u = evaluate(engine, vid, universe, trial, &mut resolves);
            if best.as_ref().is_none_or(|(_, bu)| u > *bu) {
                best = Some((trial.to_vec(), u));
            }
        });
        let Some((mut winner, _)) = best else {
            continue;
        };
        engine
            .set_tags(vid, k_hot(universe, &winner))
            .expect("k-hot vector matches the tag universe");
        winner.sort_unstable();
        *chosen_j = winner;
    }

    let assignments = engine.solve();
    let utility = engine.utility_of(&assignments);
    TagSelection {
        chosen,
        utility,
        assignments,
        resolves,
    }
}

/// Visit every `k`-subset of `candidates[start..]` appended to the
/// current prefix, in lexicographic order over the candidate order.
fn enumerate_subsets(
    candidates: &[usize],
    k: usize,
    start: usize,
    prefix: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]),
) {
    if prefix.len() == k {
        visit(prefix);
        return;
    }
    let needed = k - prefix.len();
    // Prune: not enough candidates left to fill the subset.
    for i in start..=candidates.len().saturating_sub(needed) {
        prefix.push(candidates[i]);
        enumerate_subsets(candidates, k, i + 1, prefix, visit);
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muaa_core::{
        AdType, Customer, InstanceBuilder, Money, PearsonUtility, Point, ProblemInstance,
        Timestamp, Vendor,
    };

    /// Small instance with a 4-tag universe where each vendor's
    /// nearby customers have a clearly dominant interest pair.
    fn instance() -> ProblemInstance {
        let interests = [
            vec![1.0, 0.8, 0.1, 0.0],
            vec![0.9, 1.0, 0.0, 0.2],
            vec![0.1, 0.0, 1.0, 0.9],
            vec![0.0, 0.2, 0.8, 1.0],
        ];
        InstanceBuilder::new()
            .ad_types([
                AdType::new("TL", Money::from_dollars(1.0), 0.1),
                AdType::new("PL", Money::from_dollars(2.0), 0.4),
            ])
            .customers((0..12).map(|i| Customer {
                location: Point::new(0.1 + 0.05 * (i % 6) as f64, if i < 6 { 0.3 } else { 0.7 }),
                capacity: 2,
                view_probability: 0.3 + 0.1 * (i % 3) as f64,
                interests: TagVector::new(interests[i % 4].clone()).unwrap(),
                arrival: Timestamp::from_hours(i as f64),
            }))
            .vendors([
                Vendor {
                    location: Point::new(0.2, 0.3),
                    radius: 0.35,
                    budget: Money::from_dollars(5.0),
                    tags: TagVector::new(vec![0.5, 0.5, 0.5, 0.5]).unwrap(),
                },
                Vendor {
                    location: Point::new(0.3, 0.7),
                    radius: 0.35,
                    budget: Money::from_dollars(5.0),
                    tags: TagVector::new(vec![0.5, 0.5, 0.5, 0.5]).unwrap(),
                },
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn k1_greedy_matches_exhaustive() {
        let inst = instance();
        let model = PearsonUtility::uniform(4);
        let cfg = TagSelectConfig::greedy(1);

        let mut ctx = SolverContext::indexed(&inst, &model);
        let greedy = select_tags(&mut ctx, &cfg);

        let inst2 = instance();
        let mut ctx2 = SolverContext::indexed(&inst2, &model);
        let exact = select_tags_exhaustive(&mut ctx2, &cfg);

        // With k = 1 both enumerate single candidates in the same
        // order with the same tie rule, so agreement is structural.
        assert_eq!(greedy.chosen, exact.chosen);
        assert_eq!(greedy.utility.to_bits(), exact.utility.to_bits());
        assert_eq!(
            greedy.assignments.assignments(),
            exact.assignments.assignments()
        );
    }

    #[test]
    fn k2_greedy_matches_exhaustive_on_separable_instance() {
        // Interests are block-structured (tags {0,1} vs {2,3}), so the
        // marginal gains are monotone and greedy finds the optimum.
        let inst = instance();
        let model = PearsonUtility::uniform(4);
        let cfg = TagSelectConfig::greedy(2);

        let mut ctx = SolverContext::indexed(&inst, &model);
        let greedy = select_tags(&mut ctx, &cfg);

        let inst2 = instance();
        let mut ctx2 = SolverContext::indexed(&inst2, &model);
        let exact = select_tags_exhaustive(&mut ctx2, &cfg);

        assert_eq!(greedy.chosen, exact.chosen);
        assert_eq!(greedy.utility.to_bits(), exact.utility.to_bits());
    }

    #[test]
    fn swap_pass_never_lowers_utility() {
        let inst = instance();
        let model = PearsonUtility::uniform(4);

        let mut plain_ctx = SolverContext::indexed(&inst, &model);
        let plain = select_tags(&mut plain_ctx, &TagSelectConfig::greedy(2));

        let inst2 = instance();
        let mut swap_ctx = SolverContext::indexed(&inst2, &model);
        let swapped = select_tags(&mut swap_ctx, &TagSelectConfig::greedy(2).with_swap_pass());

        assert!(swapped.utility >= plain.utility);
    }

    #[test]
    fn seed_scores_reorder_candidates_without_changing_the_optimum() {
        // Seed scores only reorder evaluation; with exhaustive search
        // the winning *utility* is order-independent.
        let inst = instance();
        let model = PearsonUtility::uniform(4);

        let mut a_ctx = SolverContext::indexed(&inst, &model);
        let a = select_tags_exhaustive(&mut a_ctx, &TagSelectConfig::greedy(2));

        let inst2 = instance();
        let mut b_ctx = SolverContext::indexed(&inst2, &model);
        let b = select_tags_exhaustive(
            &mut b_ctx,
            &TagSelectConfig::greedy(2)
                .with_seed_scores(vec![vec![0.1, 0.2, 0.9, 0.8], vec![0.9, 0.1, 0.4, 0.2]]),
        );

        assert_eq!(a.utility.to_bits(), b.utility.to_bits());
    }

    #[test]
    fn pool_restricts_candidates() {
        let inst = instance();
        let model = PearsonUtility::uniform(4);
        // Pool of 2 over seed order [2, 3, ...] for both vendors:
        // only tags {2, 3} may be chosen.
        let cfg = TagSelectConfig::greedy(2)
            .with_pool(2)
            .with_seed_scores(vec![vec![0.0, 0.1, 1.0, 0.9], vec![0.0, 0.1, 1.0, 0.9]]);
        let mut ctx = SolverContext::indexed(&inst, &model);
        let out = select_tags(&mut ctx, &cfg);
        for tags in &out.chosen {
            assert_eq!(tags, &vec![2usize, 3]);
        }
    }

    #[test]
    fn engine_is_left_with_selected_tags_applied() {
        let inst = instance();
        let model = PearsonUtility::uniform(4);
        let mut ctx = SolverContext::indexed(&inst, &model);
        let out = select_tags(&mut ctx, &TagSelectConfig::greedy(2));
        for (j, tags) in out.chosen.iter().enumerate() {
            let applied = SelectionEngine::instance(&ctx).vendor(VendorId::from(j));
            let expect = k_hot(4, tags);
            assert_eq!(applied.tags.as_slice(), expect.as_slice());
        }
        // And the context still satisfies the rebuild invariant.
        ctx.debug_validate();
    }

    #[test]
    fn resolve_count_is_deterministic() {
        let inst = instance();
        let model = PearsonUtility::uniform(4);
        let count = |swap: bool| {
            let inst = instance();
            let mut ctx = SolverContext::indexed(&inst, &model);
            let cfg = if swap {
                TagSelectConfig::greedy(2).with_swap_pass()
            } else {
                TagSelectConfig::greedy(2)
            };
            select_tags(&mut ctx, &cfg).resolves
        };
        let _ = inst;
        assert_eq!(count(false), count(false));
        assert!(count(true) >= count(false));
    }
}
