//! [`BrokerSession`]: the stateful, user-facing streaming API.
//!
//! The paper's deployment story (§IV): vendors register campaigns with
//! budgets up front; customers appear one at a time and must receive
//! their ads within interactive latency. `BrokerSession` owns the
//! instance snapshot, the spatial indexes and the online solver state,
//! exposes a single [`BrokerSession::serve`] call per arriving
//! customer, and records per-arrival latency statistics so operators
//! can verify the paper's responsiveness claim ("ONLINE can respond to
//! each incoming customer ... in less than 1 second even when there
//! are 20K vendors").
//!
//! Since DESIGN.md §12 the session is *dynamic*: the world may change
//! between arrivals. [`BrokerSession::apply_delta`] streams
//! [`Delta`]s — new customers, departures, relocations, vendor
//! budget/radius updates, ad-type repricing — straight into the
//! context's incremental engine ([`SolverContext::apply_delta`]), and
//! [`BrokerSession::serve_arrival`] is the O-AFA arrival path on top of
//! it: the engine's `AddCustomer` patch on an owned customer plus one
//! serve, never an index rebuild.

use crate::context::SolverContext;
use crate::online::oafa::OAfa;
use crate::online::threshold::ThresholdFn;
use muaa_core::clock::Stopwatch;
use muaa_core::{
    Assignment, AssignmentSet, CoreError, Customer, CustomerId, Delta, DeltaBatch, Money,
    ProblemInstance, UtilityModel,
};
use std::time::Duration;

/// Latency statistics over the arrivals served so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyStats {
    /// Number of arrivals served.
    pub served: usize,
    /// Total time spent serving.
    pub total: Duration,
    /// Worst single-arrival latency.
    pub max: Duration,
}

impl LatencyStats {
    /// Mean service latency (zero when nothing was served), rounded
    /// down to the nanosecond. Divides in `u128` nanoseconds, so it
    /// holds past 2³² arrivals, where `Duration / u32` would truncate
    /// the count.
    pub fn mean(&self) -> Duration {
        if self.served == 0 {
            return Duration::ZERO;
        }
        const NANOS_PER_SEC: u128 = 1_000_000_000;
        let nanos = self.total.as_nanos() / self.served as u128;
        // `nanos` ≤ `total`'s, so the seconds fit `total`'s `u64`.
        Duration::new(
            (nanos / NANOS_PER_SEC) as u64,
            (nanos % NANOS_PER_SEC) as u32,
        )
    }

    fn record(&mut self, d: Duration) {
        self.served += 1;
        self.total += d;
        self.max = self.max.max(d);
    }
}

/// Sampling parameters [`BrokerSession::start`] uses for its γ
/// estimate. Re-estimates after tag churn reuse them, so an
/// auto-thresholded session's policy is a pure function of the current
/// world state — the same function a fresh `start` on the mutated
/// instance would compute.
const GAMMA_SAMPLES: usize = 1_000;
const GAMMA_SEED: u64 = 0x5E55;

/// A live broker session over a fixed vendor snapshot.
///
/// ```
/// use muaa_algorithms::online::session::BrokerSession;
/// use muaa_core::*;
///
/// let instance = InstanceBuilder::new()
///     .ad_type(AdType::new("TL", Money::from_dollars(1.0), 0.1))
///     .customer(Customer {
///         location: Point::new(0.5, 0.5),
///         capacity: 1,
///         view_probability: 0.5,
///         interests: TagVector::new(vec![1.0, 0.2]).unwrap(),
///         arrival: Timestamp::MIDNIGHT,
///     })
///     .vendor(Vendor {
///         location: Point::new(0.5, 0.55),
///         radius: 0.2,
///         budget: Money::from_dollars(3.0),
///         tags: TagVector::new(vec![0.9, 0.1]).unwrap(),
///     })
///     .build()
///     .unwrap();
/// let model = PearsonUtility::uniform(2);
/// let mut session = BrokerSession::start(&instance, &model);
/// let ads = session.serve(CustomerId::new(0));
/// assert_eq!(ads.len(), 1);
/// assert!(session.latency().served == 1);
/// ```
pub struct BrokerSession<'a> {
    ctx: SolverContext<'a>,
    solver: OAfa,
    state: AssignmentSet,
    latency: LatencyStats,
    served: Vec<bool>,
    /// `true` for sessions built via [`start`](Self::start), whose
    /// threshold is a γ estimate over the snapshot: a delta that
    /// reshapes the efficiency landscape (vendor tag churn) re-derives
    /// it. Explicit [`with_threshold`](Self::with_threshold) sessions
    /// keep their policy verbatim.
    auto_threshold: bool,
}

// Manual impl: `ctx` borrows a `&dyn UtilityModel`, so the session
// cannot derive; report serving progress instead.
impl std::fmt::Debug for BrokerSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerSession")
            .field("ctx", &self.ctx)
            .field("served", &self.latency.served)
            .field("customers", &self.served.len())
            .finish_non_exhaustive()
    }
}

impl<'a> BrokerSession<'a> {
    /// Start a session with the O-AFA solver, estimating `γ_min`/`g`
    /// from the snapshot (paper §IV-C). Falls back to an unfiltered
    /// policy on degenerate snapshots.
    pub fn start(instance: &'a ProblemInstance, model: &'a dyn UtilityModel) -> Self {
        let ctx = Self::memo_free_context(instance, model);
        let threshold = ThresholdFn::estimated(&ctx, GAMMA_SAMPLES, GAMMA_SEED);
        let mut session = Self::from_context(ctx, threshold);
        session.auto_threshold = true;
        session
    }

    /// The session's context, built without a pair-base memo: O-AFA
    /// scores each (arrival, vendor) pair once, so memo slots would
    /// only cost memory and fills.
    fn memo_free_context(
        instance: &'a ProblemInstance,
        model: &'a dyn UtilityModel,
    ) -> SolverContext<'a> {
        SolverContext::indexed(instance, model).with_pair_cache_cap(0)
    }

    /// Start a session with an explicit threshold policy.
    pub fn with_threshold(
        instance: &'a ProblemInstance,
        model: &'a dyn UtilityModel,
        threshold: ThresholdFn,
    ) -> Self {
        Self::from_context(Self::memo_free_context(instance, model), threshold)
    }

    fn from_context(ctx: SolverContext<'a>, threshold: ThresholdFn) -> Self {
        let solver = OAfa::new(threshold);
        let state = AssignmentSet::new(ctx.instance());
        let served = vec![false; ctx.instance().num_customers()];
        BrokerSession {
            ctx,
            solver,
            state,
            latency: LatencyStats::default(),
            served,
            auto_threshold: false,
        }
    }

    /// Stream world changes into the live session: the context's
    /// indexes are patched incrementally (no rebuild) and the solver
    /// state is re-keyed in lockstep. Deltas apply front to back; on
    /// the first failure the valid prefix stays applied and the session
    /// remains consistent.
    ///
    /// Session-level restriction on top of
    /// [`SolverContext::apply_delta`]: a customer who already received
    /// ads cannot be removed (their committed assignments must stay
    /// addressable). The swap-renamed former *last* customer keeps its
    /// assignments and served flag under its new id.
    /// Auto-thresholded sessions additionally treat the solver's γ
    /// estimate as a memo over the efficiency landscape: a
    /// [`Delta::VendorTags`] in the batch re-derives it (same sampling
    /// parameters as [`start`](Self::start), so the refreshed policy is
    /// exactly what a fresh session on the mutated world would use).
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<(), CoreError> {
        let mut tags_changed = false;
        let result = self.apply_all(batch, &mut tags_changed);
        // Runs even when a later delta failed: the valid prefix stays
        // applied, so a tag change inside it already invalidated the
        // estimate.
        if tags_changed && self.auto_threshold {
            let threshold = ThresholdFn::estimated(&self.ctx, GAMMA_SAMPLES, GAMMA_SEED);
            self.solver.set_threshold(threshold);
        }
        result
    }

    fn apply_all(&mut self, batch: &DeltaBatch, tags_changed: &mut bool) -> Result<(), CoreError> {
        for delta in batch {
            *tags_changed |= self.apply_one(delta)?;
        }
        Ok(())
    }

    /// Apply one delta to the context and re-key the session state in
    /// lockstep. Returns whether it changed a vendor's tags.
    fn apply_one(&mut self, delta: &Delta) -> Result<bool, CoreError> {
        match delta {
            Delta::AddCustomer(_) => {
                self.ctx.apply(delta)?;
                self.track_new_customer();
            }
            Delta::RemoveCustomer(cid) => {
                if cid.index() < self.served.len() && self.state.customer_load(*cid) > 0 {
                    return Err(CoreError::InvalidCustomer {
                        id: *cid,
                        reason: "cannot remove a customer with committed assignments".to_string(),
                    });
                }
                self.ctx.apply(delta)?;
                let rekeyed = self.state.on_customer_swap_removed(*cid);
                debug_assert!(rekeyed, "load checked before apply");
                self.served.swap_remove(cid.index());
            }
            Delta::VendorTags(..) => {
                self.ctx.apply(delta)?;
                return Ok(true);
            }
            Delta::MoveCustomer(..)
            | Delta::VendorBudget(..)
            | Delta::VendorRadius(..)
            | Delta::AdType(..) => self.ctx.apply(delta)?,
        }
        Ok(false)
    }

    /// Session bookkeeping for a customer the context just appended:
    /// no load, not served yet.
    fn track_new_customer(&mut self) {
        self.state.on_customer_added();
        self.served.push(false);
    }

    /// The threshold policy currently in force.
    pub fn threshold(&self) -> ThresholdFn {
        self.solver.threshold()
    }

    /// The O-AFA arrival path on deltas: register a brand-new customer
    /// (the `AddCustomer` patch of the incremental engine, through
    /// [`SolverContext::add_customer`], which moves the customer into
    /// the instance instead of copying it) and immediately serve them.
    /// Returns the id the customer received and the committed ads.
    ///
    /// An arrival does only the work its result needs. Its id is the
    /// largest, so it is appended to each covering vendor's row without
    /// a search; the covering scan and O-AFA's candidates reuse buffers
    /// the context and solver keep; and a vendor whose remaining budget
    /// affords no ad type is skipped before the pair kernel. Past the
    /// first arrival (which clones the instance) the returned `Vec` is
    /// the only per-arrival allocation, apart from amortized growth of
    /// the session's tables and the customer grid's per-cell overflow
    /// lists.
    pub fn serve_arrival(
        &mut self,
        customer: Customer,
    ) -> Result<(CustomerId, Vec<Assignment>), CoreError> {
        // An arrival changes no vendor's tags, so the threshold stands.
        let cid = self.ctx.add_customer(customer)?;
        self.track_new_customer();
        Ok((cid, self.serve(cid)))
    }

    /// The session's instance epoch: one bump per applied delta.
    pub fn epoch(&self) -> u64 {
        self.ctx.epoch()
    }

    /// Serve an arriving customer: decide and commit their ads.
    /// Serving the same customer twice returns an empty batch (the
    /// decisions are irrevocable and the pair constraint would forbid
    /// re-serving anyway).
    pub fn serve(&mut self, customer: CustomerId) -> Vec<Assignment> {
        if std::mem::replace(&mut self.served[customer.index()], true) {
            return Vec::new();
        }
        let sw = Stopwatch::start();
        let ads = self.solver.process(&self.ctx, &mut self.state, customer);
        self.latency.record(sw.elapsed());
        ads
    }

    /// Serve every not-yet-served customer in arrival order; returns
    /// the number of ads pushed.
    pub fn serve_remaining(&mut self) -> usize {
        let mut pushed = 0;
        for i in 0..self.ctx.instance().num_customers() {
            pushed += self.serve(CustomerId::from(i)).len();
        }
        pushed
    }

    /// The assignments committed so far.
    pub fn assignments(&self) -> &AssignmentSet {
        &self.state
    }

    /// Total utility accumulated so far.
    pub fn total_utility(&self) -> f64 {
        self.state
            .total_utility(self.ctx.instance(), self.ctx.model())
    }

    /// Remaining budget of a vendor.
    pub fn remaining_budget(&self, vendor: muaa_core::VendorId) -> Money {
        self.state.remaining_budget(self.ctx.instance(), vendor)
    }

    /// Latency statistics over the served arrivals.
    pub fn latency(&self) -> LatencyStats {
        self.latency
    }

    /// The underlying context (for inspection/diagnostics).
    pub fn context(&self) -> &SolverContext<'a> {
        &self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muaa_core::{
        AdType, Customer, InstanceBuilder, PearsonUtility, Point, TagVector, Timestamp, Vendor,
        VendorId,
    };

    fn instance(m: usize) -> ProblemInstance {
        InstanceBuilder::new()
            .ad_types([
                AdType::new("TL", Money::from_dollars(1.0), 0.1),
                AdType::new("PL", Money::from_dollars(2.0), 0.4),
            ])
            .customers((0..m).map(|i| Customer {
                location: Point::new(0.45 + 0.01 * (i % 10) as f64, 0.5),
                capacity: 2,
                view_probability: 0.4,
                interests: TagVector::new(vec![0.9, 0.3]).unwrap(),
                arrival: Timestamp::from_hours(i as f64 * 0.1),
            }))
            .vendors((0..3).map(|j| Vendor {
                location: Point::new(0.5, 0.45 + 0.03 * j as f64),
                radius: 0.3,
                budget: Money::from_dollars(5.0),
                tags: TagVector::new(vec![0.8, 0.2]).unwrap(),
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn serves_customers_and_tracks_latency() {
        let inst = instance(10);
        let model = PearsonUtility::uniform(2);
        let mut session = BrokerSession::start(&inst, &model);
        let ads = session.serve(CustomerId::new(0));
        assert!(!ads.is_empty());
        assert_eq!(session.latency().served, 1);
        assert!(session.latency().max >= session.latency().mean());
        assert!(session.total_utility() > 0.0);
    }

    /// The mean divides by the full `served` count: at 2³² arrivals a
    /// `u32` cast would make the divisor 0 (a panic), and just past it
    /// 1, which returns the total.
    #[test]
    fn mean_latency_holds_past_u32_arrivals() {
        for served in [1usize << 32, (1 << 32) + 1] {
            let stats = LatencyStats {
                served,
                total: Duration::from_micros(served as u64),
                max: Duration::from_millis(3),
            };
            assert_eq!(stats.mean(), Duration::from_micros(1), "{served} arrivals");
        }
        let odd = LatencyStats {
            served: 3,
            total: Duration::new(1, 2),
            max: Duration::ZERO,
        };
        assert_eq!(odd.mean(), Duration::from_nanos(333_333_334));
        assert_eq!(LatencyStats::default().mean(), Duration::ZERO);
    }

    #[test]
    fn sessions_run_without_a_pair_memo() {
        let inst = instance(10);
        let model = PearsonUtility::uniform(2);
        for session in [
            BrokerSession::start(&inst, &model),
            BrokerSession::with_threshold(&inst, &model, ThresholdFn::Disabled),
        ] {
            assert!(session.context().has_pair_cache());
            assert_eq!(session.context().memo_slots(), 0);
        }
    }

    #[test]
    fn double_serving_is_a_noop() {
        let inst = instance(5);
        let model = PearsonUtility::uniform(2);
        let mut session = BrokerSession::start(&inst, &model);
        let first = session.serve(CustomerId::new(2));
        let again = session.serve(CustomerId::new(2));
        assert!(!first.is_empty());
        assert!(again.is_empty());
        // Latency only counts real servings.
        assert_eq!(session.latency().served, 1);
    }

    #[test]
    fn serve_remaining_covers_everyone_once() {
        let inst = instance(8);
        let model = PearsonUtility::uniform(2);
        let mut session = BrokerSession::start(&inst, &model);
        let early = session.serve(CustomerId::new(3)).len();
        let pushed = session.serve_remaining();
        assert_eq!(session.latency().served, 8);
        assert_eq!(session.assignments().len(), early + pushed);
        // Re-serving after the sweep is still a no-op.
        assert!(session.serve(CustomerId::new(3)).is_empty());
        let report = session.assignments().check_feasibility(&inst, &model);
        assert!(report.is_feasible());
    }

    #[test]
    fn budgets_deplete_monotonically() {
        let inst = instance(20);
        let model = PearsonUtility::uniform(2);
        let mut session = BrokerSession::with_threshold(&inst, &model, ThresholdFn::Disabled);
        let mut prev = session.remaining_budget(VendorId::new(0));
        for i in 0..20 {
            session.serve(CustomerId::new(i));
            let now = session.remaining_budget(VendorId::new(0));
            assert!(now <= prev);
            prev = now;
        }
    }

    fn arrival(i: usize) -> Customer {
        Customer {
            location: Point::new(0.45 + 0.01 * (i % 10) as f64, 0.5),
            capacity: 2,
            view_probability: 0.4,
            interests: TagVector::new(vec![0.9, 0.3]).unwrap(),
            arrival: Timestamp::from_hours(i as f64 * 0.1),
        }
    }

    /// The delta-driven arrival path must reproduce the static replay:
    /// a session seeded with only the first arrivals and fed the rest
    /// through `serve_arrival` commits exactly the assignments of a
    /// session built over the full instance up front.
    #[test]
    fn dynamic_arrivals_match_static_session() {
        let full = instance(12);
        let prefix = instance(4);
        let model = PearsonUtility::uniform(2);

        let mut static_session =
            BrokerSession::with_threshold(&full, &model, ThresholdFn::Disabled);
        static_session.serve_remaining();

        let mut dynamic = BrokerSession::with_threshold(&prefix, &model, ThresholdFn::Disabled);
        for i in 0..4usize {
            dynamic.serve(CustomerId::from(i));
        }
        for i in 4..12 {
            let (cid, _) = dynamic.serve_arrival(arrival(i)).unwrap();
            assert_eq!(cid, CustomerId::from(i));
        }
        assert_eq!(dynamic.epoch(), 8);
        assert_eq!(
            dynamic.assignments().assignments(),
            static_session.assignments().assignments()
        );
        let report = dynamic
            .assignments()
            .check_feasibility(dynamic.context().instance(), &model);
        assert!(report.is_feasible());
    }

    /// `serve_arrival` applies its `AddCustomer` without a batch: over
    /// an arrival stream it hands out the same ids and ads, and reaches
    /// the same utility and epoch, as a one-delta `apply_delta`
    /// followed by `serve`, for estimated and explicit thresholds.
    #[test]
    fn serve_arrival_matches_apply_delta_then_serve() {
        let inst = instance(3);
        let model = PearsonUtility::uniform(2);
        for explicit in [None, Some(ThresholdFn::Disabled)] {
            let open = || match explicit {
                None => BrokerSession::start(&inst, &model),
                Some(t) => BrokerSession::with_threshold(&inst, &model, t),
            };
            let (mut direct, mut batched) = (open(), open());
            for i in 3..40 {
                let (cid, ads) = direct.serve_arrival(arrival(i)).unwrap();
                batched
                    .apply_delta(&DeltaBatch::new().add_customer(arrival(i)))
                    .unwrap();
                let last = CustomerId::from(batched.context().instance().num_customers() - 1);
                assert_eq!(cid, last);
                assert_eq!(ads, batched.serve(last), "arrival {i}");
            }
            assert_eq!(direct.epoch(), batched.epoch());
            assert_eq!(direct.threshold(), batched.threshold());
            assert_eq!(
                direct.total_utility().to_bits(),
                batched.total_utility().to_bits()
            );
            assert_eq!(
                direct.assignments().assignments(),
                batched.assignments().assignments()
            );
        }
    }

    /// `serve_arrival` moves the arriving customer into the session's
    /// instance: the interest vector the instance holds afterwards is
    /// the buffer the caller handed in, not a copy.
    #[test]
    fn serve_arrival_moves_the_customer_into_the_instance() {
        let inst = instance(3);
        let model = PearsonUtility::uniform(2);
        let mut session = BrokerSession::with_threshold(&inst, &model, ThresholdFn::Disabled);
        for i in 3..6 {
            let customer = arrival(i);
            let buffer = customer.interests.as_slice().as_ptr();
            let (cid, _) = session.serve_arrival(customer).unwrap();
            let held = session.context().instance().customer(cid);
            assert_eq!(held.interests.as_slice().as_ptr(), buffer, "arrival {i}");
        }
        assert_eq!(session.epoch(), 3);
    }

    /// Mid-session world changes flow through the incremental engine
    /// and keep the session consistent; removing an ad-carrying
    /// customer is refused.
    #[test]
    fn mid_session_deltas_and_removal_guard() {
        let inst = instance(6);
        let model = PearsonUtility::uniform(2);
        let mut session = BrokerSession::with_threshold(&inst, &model, ThresholdFn::Disabled);
        let ads = session.serve(CustomerId::new(0));
        assert!(!ads.is_empty());
        // Served customers with committed ads cannot be removed...
        let err =
            session.apply_delta(&muaa_core::DeltaBatch::new().remove_customer(CustomerId::new(0)));
        assert!(err.is_err());
        // ...but unserved ones can, and vendor updates stream through.
        session
            .apply_delta(
                &muaa_core::DeltaBatch::new()
                    .remove_customer(CustomerId::new(5))
                    .vendor_budget(VendorId::new(0), Money::from_dollars(1.0))
                    .vendor_radius(VendorId::new(1), 0.1),
            )
            .unwrap();
        assert_eq!(session.context().instance().num_customers(), 5);
        assert_eq!(session.epoch(), 3);
        // Serving still works and respects the shrunk budget.
        session.serve_remaining();
        assert!(session.remaining_budget(VendorId::new(0)) <= Money::from_dollars(1.0));
        let report = session
            .assignments()
            .check_feasibility(session.context().instance(), &model);
        assert!(report.is_feasible(), "{:?}", report.violations);
    }

    /// Tag churn re-derives the auto session's γ estimate in lockstep:
    /// after a `VendorTags` batch the live policy equals what a fresh
    /// `start` on the mutated instance computes. Explicit-threshold
    /// sessions keep their policy verbatim.
    #[test]
    fn vendor_tags_delta_refreshes_auto_threshold() {
        let inst = instance(20);
        let model = PearsonUtility::uniform(2);
        let mut auto = BrokerSession::start(&inst, &model);
        let before = auto.threshold();
        assert!(
            matches!(before, ThresholdFn::Adaptive { .. }),
            "snapshot has positive efficiencies"
        );
        // Anti-correlate every vendor with the (uniform) interests:
        // similarities clamp to 0, so the refreshed estimate must fall
        // back to the unfiltered policy.
        let mut batch = muaa_core::DeltaBatch::new();
        for j in 0..3usize {
            batch = batch.vendor_tags(VendorId::from(j), TagVector::new(vec![0.1, 0.95]).unwrap());
        }
        auto.apply_delta(&batch).unwrap();
        assert_ne!(auto.threshold(), before, "tag churn must move the estimate");
        let mut mirror = inst.clone();
        mirror.apply_delta(&batch).unwrap();
        let fresh = BrokerSession::start(&mirror, &model);
        assert_eq!(auto.threshold(), fresh.threshold());
        // Explicit sessions never re-estimate.
        let mut pinned = BrokerSession::with_threshold(&inst, &model, ThresholdFn::Disabled);
        pinned.apply_delta(&batch).unwrap();
        assert_eq!(pinned.threshold(), ThresholdFn::Disabled);
    }

    #[test]
    fn matches_run_online_outcome() {
        let inst = instance(15);
        let model = PearsonUtility::uniform(2);
        let ctx = SolverContext::indexed(&inst, &model);
        let mut raw = OAfa::new(ThresholdFn::Disabled);
        let expected = crate::online::run_online(&mut raw, &ctx);

        let mut session = BrokerSession::with_threshold(&inst, &model, ThresholdFn::Disabled);
        session.serve_remaining();
        assert_eq!(
            session.assignments().assignments(),
            expected.assignments.assignments()
        );
    }
}
