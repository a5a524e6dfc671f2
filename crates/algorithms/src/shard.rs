//! The tile-sharded solver engine (DESIGN.md §15).
//!
//! [`ShardedContext`] partitions the data plane into rectangular
//! [`TileGrid`] tiles and keeps one fully-indexed [`SolverContext`]
//! *shard* per tile. A shard's sub-instance holds:
//!
//! * the customers whose location lies in the tile (each customer lives
//!   in exactly one shard — the tiling is a partition), and
//! * every vendor whose broadcast disc intersects the tile (vendors
//!   *replicate* into all such shards; [`TileGrid::disc_tiles`] is
//!   conservative, so replication is a superset and shards re-check
//!   pair validity exactly).
//!
//! Candidate generation — grid builds, eligibility CSR scans, pair-base
//! kernels — runs shard-parallel. A deterministic merge then
//! reconstructs each vendor's *global* eligibility row by gathering its
//! per-shard rows, mapping local → global customer ids and sorting by
//! the (unique) global id. Because
//!
//! 1. every valid pair `(i, j)` satisfies `distance ≤ r_j`, hence
//!    customer `i`'s tile is among vendor `j`'s disc tiles (the
//!    coverage property of [`TileGrid`]), so the pair appears in
//!    exactly one shard (customer `i`'s), and
//! 2. pair bases are bit-identical wherever they are computed (the
//!    memo/fused/uncached equivalence the context tests pin),
//!
//! the merged rows equal the unsharded CSR rows *byte for byte*. The
//! offline solver bodies ([`crate::offline::greedy::greedy_assign`],
//! [`crate::offline::recon::recon_assign`],
//! [`crate::offline::batched::batched_assign`]) are generic over
//! [`PairOracle`] and run unchanged on the merged view — so sharded
//! GREEDY / RECON / BATCHED-RECON output is byte-identical to the
//! unsharded solvers at any tile count and any thread count.
//!
//! ## Deltas
//!
//! [`ShardedContext::apply`] routes [`Delta`]s by location: customer
//! deltas go to the owning tile's shard (a cross-tile move becomes a
//! local remove + add), vendor budget and ad-type deltas fan out to the
//! shards holding the vendor, and a radius change diffs the old and new
//! disc-tile ranges — retained shards take a cheap local delta, while
//! gained/lost tiles rebuild their shard from the global mirror. Every
//! routed delta preserves per-shard rebuild-equivalence, so the engine
//! inherits the epoch/delta guarantees of [`SolverContext`].
//!
//! Like [`SolverContext::indexed`], the engine assumes a geometric
//! utility model whose distance dominates the Euclidean distance and
//! whose per-pair values depend only on the entities (not their ids) —
//! true of [`muaa_core::PearsonUtility`] and every paper model.

use crate::context::SolverContext;
use crate::offline::batched::{batched_assign, BatchedRecon};
use crate::offline::greedy::greedy_assign;
use crate::offline::recon::{recon_assign, Recon};
use crate::oracle::PairOracle;
use muaa_core::{
    par, AdTypeId, AssignmentSet, CoreError, CustomerId, Delta, DeltaBatch, Money, ProblemInstance,
    UtilityModel, VendorId,
};
use muaa_spatial::TileGrid;
use std::borrow::Cow;

/// One tile's shard: a self-contained [`SolverContext`] over the tile's
/// sub-instance plus the local ↔ global id maps and a flat arena of the
/// shard's pair bases (vendor-major, aligned with its CSR rows).
#[derive(Debug)]
struct Shard<'a> {
    ctx: SolverContext<'a>,
    /// Local customer id → global customer id.
    customers: Vec<CustomerId>,
    /// Local vendor id → global vendor id, strictly ascending.
    vendors: Vec<VendorId>,
    /// Per local vendor: offset of its row in `bases`.
    base_offsets: Vec<usize>,
    /// Flat pair bases aligned with the shard's CSR rows.
    bases: Vec<f64>,
    /// Shard epoch `bases` was computed at; `None` = stale.
    bases_epoch: Option<u64>,
}

impl<'a> Shard<'a> {
    /// Build a shard over `customers` × `vendors` cloned from the
    /// global instance. The customer list order is preserved verbatim
    /// (it defines the local ids the routing tables reference).
    fn build(
        global: &ProblemInstance,
        model: &'a dyn UtilityModel,
        customers: &[CustomerId],
        vendors: &[VendorId],
    ) -> Shard<'a> {
        let sub = ProblemInstance::new(
            customers
                .iter()
                .map(|&c| global.customer(c).clone())
                .collect(),
            vendors.iter().map(|&v| global.vendor(v).clone()).collect(),
            global.ad_types().to_vec(),
        )
        .expect("shard sub-instance inherits a validated global instance");
        // Per-shard memoization would multiply the global memo across
        // replicas; the merge arena stores every base once instead.
        let ctx = SolverContext::indexed_owned(sub, model).with_pair_cache_cap(0);
        Shard {
            ctx,
            customers: customers.to_vec(),
            vendors: vendors.to_vec(),
            base_offsets: Vec::new(),
            bases: Vec::new(),
            bases_epoch: None,
        }
    }

    /// Evaluate every CSR row's pair bases into a fresh flat arena.
    /// Runs inside the shard-parallel refresh; the kernel scratch is
    /// thread-local and reused across vendors.
    fn compute_bases(&self) -> (Vec<usize>, Vec<f64>) {
        use std::cell::RefCell;
        thread_local! {
            static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
        }
        let sub = self.ctx.instance();
        let mut offsets = Vec::with_capacity(sub.num_vendors());
        let mut flat = Vec::new();
        SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            for j in 0..sub.num_vendors() {
                let vid = VendorId::from(j);
                offsets.push(flat.len());
                self.ctx
                    .pair_base_block(vid, self.ctx.eligible_customers(vid), scratch);
                flat.extend_from_slice(scratch);
            }
        });
        (offsets, flat)
    }
}

/// The merged global-row arena: CSR-shaped `(offsets, cids, bases)`
/// over global ids, rebuilt (capacity-preserving) whenever the global
/// epoch moves.
#[derive(Debug, Default)]
struct MergedArena {
    offsets: Vec<usize>,
    cids: Vec<CustomerId>,
    bases: Vec<f64>,
    /// Global epoch the arena matches; `None` = never built.
    epoch: Option<u64>,
}

/// A borrowed view of the merged arena implementing [`PairOracle`] —
/// the sharded engine's stand-in for [`SolverContext`] in the shared
/// solver bodies.
#[derive(Debug)]
pub(crate) struct MergedView<'v> {
    inst: &'v ProblemInstance,
    offsets: &'v [usize],
    cids: &'v [CustomerId],
    bases: &'v [f64],
}

impl<'v> MergedView<'v> {
    #[inline]
    fn row(&self, j: usize) -> (&'v [CustomerId], &'v [f64]) {
        let (lo, hi) = (self.offsets[j], self.offsets[j + 1]);
        (&self.cids[lo..hi], &self.bases[lo..hi])
    }

    /// Stored base of an eligible pair; 0.0 (→ `None` upstream) for
    /// pairs outside the row. Solvers only query pairs from eligible
    /// rows, where the stored base is bit-identical to
    /// [`SolverContext::pair_base`].
    #[inline]
    fn base_of(&self, cid: CustomerId, vid: VendorId) -> f64 {
        let (row, vals) = self.row(vid.index());
        match row.binary_search(&cid) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }
}

impl PairOracle for MergedView<'_> {
    #[inline]
    fn eligible(&self, vid: VendorId) -> &[CustomerId] {
        self.row(vid.index()).0
    }

    /// Two-pointer gather: `cids` is an ascending subset of the row, so
    /// one forward walk serves the whole block. Zero allocations at
    /// steady state (the caller's scratch keeps its capacity).
    #[cfg_attr(any(), muaa::hot)]
    fn bases_into(&self, vid: VendorId, cids: &[CustomerId], out: &mut Vec<f64>) {
        let _hot = muaa_core::sanitize::AllocGuard::counting("shard.bases_into");
        out.clear();
        out.reserve(cids.len());
        let (row, vals) = self.row(vid.index());
        let mut i = 0usize;
        for &c in cids {
            while i < row.len() && row[i] < c {
                i += 1;
            }
            debug_assert!(
                i < row.len() && row[i] == c,
                "requested customer not in merged row"
            );
            // Into the capacity reserved above. lint: allow(hot_alloc)
            out.push(vals[i]);
            i += 1;
        }
    }

    /// Byte-for-byte the selection rule of
    /// [`SolverContext::best_ad_type`], fed by the stored merged base.
    #[cfg_attr(any(), muaa::hot)]
    fn best_ad_type(
        &self,
        cid: CustomerId,
        vid: VendorId,
        remaining: Money,
    ) -> Option<(AdTypeId, f64, f64)> {
        let _hot = muaa_core::sanitize::AllocGuard::strict("shard.best_ad_type");
        let base = self.base_of(cid, vid);
        if base <= 0.0 {
            return None;
        }
        let mut best: Option<(AdTypeId, f64, f64)> = None;
        for (tid, t) in self.inst.ad_types_enumerated() {
            if t.cost > remaining {
                continue;
            }
            let lambda = base * t.effectiveness;
            let gamma = lambda / t.cost.as_dollars();
            if lambda <= 0.0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((_, _, bg)) => gamma > bg,
            };
            if better {
                best = Some((tid, lambda, gamma));
            }
        }
        best
    }
}

/// The tile-sharded solver engine. See the module docs for the
/// partitioning/replication scheme and the byte-identity argument.
pub struct ShardedContext<'a> {
    /// Global mirror (borrowed until the first routed delta).
    instance: Cow<'a, ProblemInstance>,
    model: &'a dyn UtilityModel,
    tiles: TileGrid,
    /// One shard per tile; shard index == tile index.
    shards: Vec<Shard<'a>>,
    /// Global customer id → (shard, local id).
    cust_route: Vec<(u32, u32)>,
    /// Global vendor id → its placements (shard, local id), strictly
    /// ascending by shard.
    vendor_route: Vec<Vec<(u32, u32)>>,
    merged: MergedArena,
}

impl std::fmt::Debug for ShardedContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedContext")
            .field("tiles", &self.tiles)
            .field("shards", &self.shards.len())
            .field("customers", &self.instance.num_customers())
            .field("vendors", &self.instance.num_vendors())
            .finish_non_exhaustive()
    }
}

impl<'a> ShardedContext<'a> {
    /// Shard the instance over roughly `tiles` tiles covering the
    /// bounding box of its customers.
    pub fn new(instance: &'a ProblemInstance, model: &'a dyn UtilityModel, tiles: usize) -> Self {
        let points: Vec<muaa_core::Point> =
            instance.customers().iter().map(|c| c.location).collect();
        let grid = TileGrid::new(&points, tiles);
        Self::build(Cow::Borrowed(instance), model, grid)
    }

    fn build(
        instance: Cow<'a, ProblemInstance>,
        model: &'a dyn UtilityModel,
        grid: TileGrid,
    ) -> Self {
        let ntiles = grid.tiles();
        let mut tile_customers: Vec<Vec<CustomerId>> = vec![Vec::new(); ntiles];
        for (cid, c) in instance.customers_enumerated() {
            tile_customers[grid.tile_of(c.location) as usize].push(cid);
        }
        let mut tile_vendors: Vec<Vec<VendorId>> = vec![Vec::new(); ntiles];
        for (vid, v) in instance.vendors_enumerated() {
            for t in grid.disc_tiles(v.location, v.radius) {
                tile_vendors[t as usize].push(vid);
            }
        }
        let mut cust_route = vec![(0u32, 0u32); instance.num_customers()];
        for (t, list) in tile_customers.iter().enumerate() {
            for (l, &cid) in list.iter().enumerate() {
                cust_route[cid.index()] = (t as u32, l as u32);
            }
        }
        let mut vendor_route: Vec<Vec<(u32, u32)>> = vec![Vec::new(); instance.num_vendors()];
        for (t, list) in tile_vendors.iter().enumerate() {
            for (l, &vid) in list.iter().enumerate() {
                vendor_route[vid.index()].push((t as u32, l as u32));
            }
        }
        // Shard builds are independent — the engine's candidate
        // generation fan-out. Worker threads do not inherit thread
        // overrides, so the inner index builds are forced sequential:
        // the tile axis is the only parallel axis here.
        let members: Vec<(Vec<CustomerId>, Vec<VendorId>)> =
            tile_customers.into_iter().zip(tile_vendors).collect();
        let global = &*instance;
        let shards: Vec<Shard<'a>> = par::par_map(&members, 1, |_, (cs, vs)| {
            par::with_sequential(|| Shard::build(global, model, cs, vs))
        });
        ShardedContext {
            instance,
            model,
            tiles: grid,
            shards,
            cust_route,
            vendor_route,
            merged: MergedArena::default(),
        }
    }

    /// The global instance mirror.
    #[inline]
    pub fn instance(&self) -> &ProblemInstance {
        &self.instance
    }

    /// The utility model.
    #[inline]
    pub fn model(&self) -> &'a dyn UtilityModel {
        self.model
    }

    /// The tile grid the engine shards over.
    #[inline]
    pub fn grid(&self) -> &TileGrid {
        &self.tiles
    }

    /// Number of shards (== tiles).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Bring per-shard base arenas and the merged rows up to the
    /// current global epoch. Stale shards re-evaluate their kernels in
    /// parallel; the merge itself is a sequential, zero-allocation
    /// (steady-state) gather into capacity-preserved arenas.
    fn refresh(&mut self) {
        if self.merged.epoch == Some(self.instance.epoch()) {
            return;
        }
        let fresh: Vec<Option<(Vec<usize>, Vec<f64>)>> = par::par_map(&self.shards, 1, |_, sh| {
            if sh.bases_epoch == Some(sh.ctx.epoch()) {
                None
            } else {
                Some(sh.compute_bases())
            }
        });
        for (sh, f) in self.shards.iter_mut().zip(fresh) {
            if let Some((offsets, flat)) = f {
                sh.base_offsets = offsets;
                sh.bases = flat;
                sh.bases_epoch = Some(sh.ctx.epoch());
            }
        }
        self.gather_rows();
        self.merged.epoch = Some(self.instance.epoch());
    }

    /// The deterministic merge: rebuild every global vendor row from
    /// its shard placements. Placements ascend by shard and each global
    /// customer lives in exactly one shard, so sorting the gathered
    /// `(global cid, base)` pairs by their unique cid reproduces the
    /// unsharded CSR row order exactly.
    #[cfg_attr(any(), muaa::hot)]
    fn gather_rows(&mut self) {
        use std::cell::RefCell;
        thread_local! {
            // One-time thread-local init. lint: allow(hot_alloc)
            static PAIRS: RefCell<Vec<(CustomerId, f64)>> = const { RefCell::new(Vec::new()) };
        }
        let _hot = muaa_core::sanitize::AllocGuard::counting("shard.merge_rows");
        let n = self.instance.num_vendors();
        self.merged.offsets.clear();
        self.merged.cids.clear();
        self.merged.bases.clear();
        // Warm-capacity push, proven zero at steady state by the
        // counting guard above. lint: allow(hot_alloc)
        self.merged.offsets.push(0);
        PAIRS.with(|p| {
            let pairs = &mut *p.borrow_mut();
            for j in 0..n {
                pairs.clear();
                for &(s, l) in &self.vendor_route[j] {
                    let sh = &self.shards[s as usize];
                    let lvid = VendorId::from(l as usize);
                    let row = sh.ctx.eligible_customers(lvid);
                    let off = sh.base_offsets[l as usize];
                    for (k, &lc) in row.iter().enumerate() {
                        // Warm scratch, same guard. lint: allow(hot_alloc)
                        pairs.push((sh.customers[lc.index()], sh.bases[off + k]));
                    }
                }
                // Unique keys (one shard per customer) make the
                // unstable sort deterministic.
                pairs.sort_unstable_by_key(|&(c, _)| c);
                for &(c, b) in pairs.iter() {
                    // Warm arena, same guard. lint: allow(hot_alloc)
                    self.merged.cids.push(c);
                    // Warm arena, same guard. lint: allow(hot_alloc)
                    self.merged.bases.push(b);
                }
                // Warm arena, same guard. lint: allow(hot_alloc)
                self.merged.offsets.push(self.merged.cids.len());
            }
        });
    }

    fn view(&self) -> MergedView<'_> {
        MergedView {
            inst: &self.instance,
            offsets: &self.merged.offsets,
            cids: &self.merged.cids,
            bases: &self.merged.bases,
        }
    }

    /// Sharded GREEDY — byte-identical to
    /// [`Greedy`](crate::Greedy)`.assign` on the unsharded context.
    pub fn greedy(&mut self) -> AssignmentSet {
        self.refresh();
        let view = self.view();
        greedy_assign(&self.instance, &view)
    }

    /// Sharded RECON — byte-identical to `solver.assign` on the
    /// unsharded context.
    pub fn recon(&mut self, solver: &Recon) -> AssignmentSet {
        self.refresh();
        let view = self.view();
        recon_assign(&self.instance, &view, solver.backend(), solver.seed())
    }

    /// Sharded BATCHED-RECON — byte-identical to `solver.assign` on the
    /// unsharded context.
    pub fn batched_recon(&mut self, solver: &BatchedRecon) -> AssignmentSet {
        self.refresh();
        let view = self.view();
        batched_assign(
            &self.instance,
            &view,
            solver.windows(),
            solver.backend(),
            solver.seed(),
        )
    }

    /// Apply a batch of deltas, routing each to the affected shards.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<(), CoreError> {
        for delta in batch {
            self.apply(delta)?;
        }
        Ok(())
    }

    /// Apply one delta to the global mirror and route it to the shards
    /// it touches. Failed deltas leave the engine unchanged.
    pub fn apply(&mut self, delta: &Delta) -> Result<(), CoreError> {
        match delta {
            Delta::AddCustomer(_) => {
                self.instance.to_mut().apply(delta)?;
                let gid = CustomerId::from(self.instance.num_customers() - 1);
                let t = self.tiles.tile_of(self.instance.customer(gid).location);
                self.add_to_shard(t, gid);
            }
            Delta::RemoveCustomer(gid) => {
                let gid = *gid;
                let glast = CustomerId::from(self.instance.num_customers().saturating_sub(1));
                self.instance.to_mut().apply(delta)?;
                let (s1, l1) = self.cust_route[gid.index()];
                self.remove_from_shard(s1, l1);
                // Mirror the global swap rename: the former last
                // customer took `gid`'s id. Read its route *after* the
                // local removal above so a shard-locally moved `glast`
                // resolves to its fresh slot.
                if gid != glast {
                    let (s2, l2) = self.cust_route[glast.index()];
                    self.shards[s2 as usize].customers[l2 as usize] = gid;
                    self.cust_route[gid.index()] = (s2, l2);
                }
                self.cust_route.pop();
            }
            Delta::MoveCustomer(gid, p) => {
                let gid = *gid;
                let (s1, l1) = self.cust_route[gid.index()];
                let t_new = self.tiles.tile_of(*p);
                self.instance.to_mut().apply(delta)?;
                if t_new == s1 {
                    self.shards[s1 as usize]
                        .ctx
                        .apply(&Delta::MoveCustomer(CustomerId::from(l1 as usize), *p))
                        .expect("local move mirrors a validated global move");
                } else {
                    // Cross-tile: leave the old shard, join the new one
                    // (the global id is unchanged — no rename).
                    self.remove_from_shard(s1, l1);
                    self.add_to_shard(t_new, gid);
                }
            }
            Delta::VendorBudget(vid, b) => {
                self.instance.to_mut().apply(delta)?;
                for k in 0..self.vendor_route[vid.index()].len() {
                    let (s, l) = self.vendor_route[vid.index()][k];
                    self.shards[s as usize]
                        .ctx
                        .apply(&Delta::VendorBudget(VendorId::from(l as usize), *b))
                        .expect("local budget update mirrors a validated global one");
                }
            }
            Delta::VendorTags(vid, tags) => {
                self.instance.to_mut().apply(delta)?;
                // Tags leave the vendor's disc unchanged, so the route
                // is stable: fan the new vector out to exactly the
                // shards whose tiles intersect the disc. Each local
                // apply performs its own memo column reset.
                for k in 0..self.vendor_route[vid.index()].len() {
                    let (s, l) = self.vendor_route[vid.index()][k];
                    self.shards[s as usize]
                        .ctx
                        .apply(&Delta::VendorTags(VendorId::from(l as usize), tags.clone()))
                        .expect("local tag update mirrors a validated global one");
                }
            }
            Delta::VendorRadius(vid, r) => {
                let v = self.instance.vendor(*vid);
                let new_tiles: Vec<u32> = self.tiles.disc_tiles(v.location, *r).collect();
                self.instance.to_mut().apply(delta)?;
                // Retained tiles take a cheap local delta; gained/lost
                // tiles change the shard's vendor population and
                // rebuild from the (already updated) global mirror.
                let mut to_rebuild: Vec<u32> = Vec::new();
                for k in 0..self.vendor_route[vid.index()].len() {
                    let (s, l) = self.vendor_route[vid.index()][k];
                    if new_tiles.binary_search(&s).is_ok() {
                        self.shards[s as usize]
                            .ctx
                            .apply(&Delta::VendorRadius(VendorId::from(l as usize), *r))
                            .expect("local radius update mirrors a validated global one");
                    } else {
                        to_rebuild.push(s);
                    }
                }
                let old_tiles: Vec<u32> = self.vendor_route[vid.index()]
                    .iter()
                    .map(|&(s, _)| s)
                    .collect();
                for &s in &new_tiles {
                    if old_tiles.binary_search(&s).is_err() {
                        to_rebuild.push(s);
                    }
                }
                for s in to_rebuild {
                    self.rebuild_shard(s);
                }
            }
            Delta::AdType(..) => {
                self.instance.to_mut().apply(delta)?;
                // Every sub-instance carries the full ad-type list, so
                // the delta fans out verbatim.
                for sh in &mut self.shards {
                    sh.ctx
                        .apply(delta)
                        .expect("ad-type deltas apply to every shard unchanged");
                }
            }
        }
        Ok(())
    }

    /// Route (already globally applied) customer `gid` into shard `t`.
    fn add_to_shard(&mut self, t: u32, gid: CustomerId) {
        let local = self.shards[t as usize].customers.len() as u32;
        if gid.index() == self.cust_route.len() {
            self.cust_route.push((t, local));
        } else {
            self.cust_route[gid.index()] = (t, local);
        }
        self.shards[t as usize].customers.push(gid);
        let sub = self.shards[t as usize].ctx.instance();
        if sub.num_customers() == 0 && sub.num_vendors() == 0 {
            // An entity-free sub-instance has tag universe 0, which
            // would reject the first real customer; rebuild from the
            // global mirror instead (the pushed id above is the
            // customer list the rebuild uses).
            self.rebuild_shard(t);
        } else {
            let c = self.instance.customer(gid).clone();
            self.shards[t as usize]
                .ctx
                .apply(&Delta::AddCustomer(c))
                .expect("local arrival mirrors a validated global arrival");
        }
    }

    /// Shard-local swap remove of local customer `l1` in shard `s1`,
    /// with the route of the shard-locally moved customer repaired.
    fn remove_from_shard(&mut self, s1: u32, l1: u32) {
        let sh = &mut self.shards[s1 as usize];
        sh.ctx
            .apply(&Delta::RemoveCustomer(CustomerId::from(l1 as usize)))
            .expect("local removal mirrors a validated global removal");
        sh.customers.swap_remove(l1 as usize);
        if (l1 as usize) < sh.customers.len() {
            let moved_g = sh.customers[l1 as usize];
            self.cust_route[moved_g.index()] = (s1, l1);
        }
    }

    /// Rebuild shard `t` from the global mirror: recompute its vendor
    /// population (exact disc-tile membership), rebuild the
    /// sub-instance and context, and repair `vendor_route`. The shard's
    /// customer list — and with it every `cust_route` entry — is
    /// preserved verbatim.
    fn rebuild_shard(&mut self, t: u32) {
        for k in 0..self.shards[t as usize].vendors.len() {
            let vid = self.shards[t as usize].vendors[k];
            self.vendor_route[vid.index()].retain(|&(s, _)| s != t);
        }
        let mut vendors: Vec<VendorId> = Vec::new();
        for (vid, v) in self.instance.vendors_enumerated() {
            if self.tiles.disc_covers_tile(v.location, v.radius, t) {
                vendors.push(vid);
            }
        }
        let customers = std::mem::take(&mut self.shards[t as usize].customers);
        self.shards[t as usize] = Shard::build(&self.instance, self.model, &customers, &vendors);
        for (l, &vid) in vendors.iter().enumerate() {
            let route = &mut self.vendor_route[vid.index()];
            let at = route.partition_point(|&(s, _)| s < t);
            route.insert(at, (t, l as u32));
        }
    }

    /// Structural self-check (debug builds only): routing bijections,
    /// exact vendor replication, shard ↔ global entity mirroring, and
    /// every shard's own [`SolverContext::debug_validate`].
    pub fn debug_validate(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        self.tiles.debug_validate();
        assert_eq!(self.shards.len(), self.tiles.tiles());
        assert_eq!(self.cust_route.len(), self.instance.num_customers());
        assert_eq!(self.vendor_route.len(), self.instance.num_vendors());
        for (gid, c) in self.instance.customers_enumerated() {
            let (s, l) = self.cust_route[gid.index()];
            assert_eq!(
                self.tiles.tile_of(c.location),
                s,
                "customer {gid} routed off its tile"
            );
            assert_eq!(
                self.shards[s as usize].customers[l as usize], gid,
                "customer route does not round-trip"
            );
        }
        for (t, sh) in self.shards.iter().enumerate() {
            assert_eq!(sh.customers.len(), sh.ctx.instance().num_customers());
            assert_eq!(sh.vendors.len(), sh.ctx.instance().num_vendors());
            assert!(
                sh.vendors.windows(2).all(|w| w[0] < w[1]),
                "shard vendor list must ascend"
            );
            for (l, &gid) in sh.customers.iter().enumerate() {
                let lc = sh.ctx.instance().customer(CustomerId::from(l));
                let gc = self.instance.customer(gid);
                assert_eq!(lc.location, gc.location, "stale shard customer location");
                assert_eq!(lc.capacity, gc.capacity, "stale shard customer capacity");
            }
            for (l, &vid) in sh.vendors.iter().enumerate() {
                let gv = self.instance.vendor(vid);
                assert!(
                    self.tiles
                        .disc_covers_tile(gv.location, gv.radius, t as u32),
                    "vendor {vid} replicated into uncovered tile {t}"
                );
                let lv = sh.ctx.instance().vendor(VendorId::from(l));
                assert_eq!(lv.budget, gv.budget, "stale shard vendor budget");
                assert_eq!(lv.radius, gv.radius, "stale shard vendor radius");
                assert!(
                    self.vendor_route[vid.index()].contains(&(t as u32, l as u32)),
                    "vendor placement missing from route"
                );
            }
            sh.ctx.debug_validate();
        }
        for (vid, v) in self.instance.vendors_enumerated() {
            let disc: Vec<u32> = self.tiles.disc_tiles(v.location, v.radius).collect();
            let placed: Vec<u32> = self.vendor_route[vid.index()]
                .iter()
                .map(|&(s, _)| s)
                .collect();
            assert_eq!(
                placed, disc,
                "vendor {vid} placements diverge from its disc tiles"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::greedy::Greedy;
    use crate::offline::recon::MckpBackend;
    use crate::offline::OfflineSolver;
    use muaa_core::{
        AdType, Customer, InstanceBuilder, PearsonUtility, Point, TagVector, Timestamp, Vendor,
    };

    /// Deterministic 2-D spread with overlapping vendor discs and tight
    /// capacities, so RECON's phase 2 actually fires.
    fn instance(m: usize, n: usize, budget: f64) -> ProblemInstance {
        InstanceBuilder::new()
            .ad_types([
                AdType::new("TL", Money::from_dollars(1.0), 0.1),
                AdType::new("PL", Money::from_dollars(2.0), 0.4),
            ])
            .customers((0..m).map(|i| {
                Customer {
                    location: Point::new(
                        (i as f64 * 0.618_033_988_75) % 1.0,
                        (i as f64 * 0.754_877_666_25) % 1.0,
                    ),
                    capacity: 1 + (i % 2) as u32,
                    view_probability: 0.1 + 0.8 * ((i * 7) % 11) as f64 / 11.0,
                    interests: TagVector::new(vec![
                        0.2 + 0.6 * ((i % 5) as f64 / 5.0),
                        0.5,
                        0.9 - 0.5 * ((i % 4) as f64 / 4.0),
                    ])
                    .unwrap(),
                    arrival: Timestamp::from_hours(24.0 * i as f64 / m.max(1) as f64),
                }
            }))
            .vendors((0..n).map(|j| Vendor {
                location: Point::new(
                    (j as f64 * 0.381_966_011_25 + 0.07) % 1.0,
                    (j as f64 * 0.245_122_333_75 + 0.13) % 1.0,
                ),
                radius: 0.15 + 0.2 * ((j % 3) as f64 / 3.0),
                budget: Money::from_dollars(budget),
                tags: TagVector::new(vec![0.4, 0.5, 0.7]).unwrap(),
            }))
            .build()
            .unwrap()
    }

    fn assert_identical(a: &AssignmentSet, b: &AssignmentSet, inst: &ProblemInstance, what: &str) {
        let model = PearsonUtility::uniform(inst.tag_universe());
        assert_eq!(
            a.assignments(),
            b.assignments(),
            "{what}: assignments differ"
        );
        assert_eq!(
            a.total_utility(inst, &model).to_bits(),
            b.total_utility(inst, &model).to_bits(),
            "{what}: utility bits differ"
        );
        for (vid, _) in inst.vendors_enumerated() {
            assert_eq!(
                a.vendor_spend(vid),
                b.vendor_spend(vid),
                "{what}: budget remainder differs for {vid}"
            );
        }
    }

    /// The merge invariant the whole engine rests on: merged rows ==
    /// unsharded CSR rows, ids and base bits alike.
    #[test]
    fn merged_rows_match_unsharded_csr() {
        let inst = instance(150, 9, 5.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let mut reference = Vec::new();
        let mut merged = Vec::new();
        for tiles in [1, 5, 16, 64] {
            let mut sharded = ShardedContext::new(&inst, &model, tiles);
            sharded.refresh();
            sharded.debug_validate();
            let view = sharded.view();
            for (vid, _) in inst.vendors_enumerated() {
                let row = ctx.eligible_customers(vid);
                assert_eq!(view.eligible(vid), row, "tiles={tiles} row for {vid}");
                ctx.pair_base_block(vid, row, &mut reference);
                view.bases_into(vid, row, &mut merged);
                let rb: Vec<u64> = reference.iter().map(|b| b.to_bits()).collect();
                let mb: Vec<u64> = merged.iter().map(|b| b.to_bits()).collect();
                assert_eq!(rb, mb, "tiles={tiles} bases for {vid}");
            }
        }
    }

    #[test]
    fn sharded_solvers_match_unsharded_byte_for_byte() {
        let inst = instance(120, 8, 4.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let greedy = Greedy.assign(&ctx);
        let recon = Recon::new().assign(&ctx);
        let exact = Recon::new().with_backend(MckpBackend::ExactDp).assign(&ctx);
        let batched = BatchedRecon::new(5).assign(&ctx);
        for tiles in [1, 3, 8, 25] {
            let mut sharded = ShardedContext::new(&inst, &model, tiles);
            assert_identical(&sharded.greedy(), &greedy, &inst, "greedy");
            assert_identical(&sharded.recon(&Recon::new()), &recon, &inst, "recon");
            assert_identical(
                &sharded.recon(&Recon::new().with_backend(MckpBackend::ExactDp)),
                &exact,
                &inst,
                "recon/exact",
            );
            assert_identical(
                &sharded.batched_recon(&BatchedRecon::new(5)),
                &batched,
                &inst,
                "batched",
            );
            sharded.debug_validate();
        }
    }

    #[test]
    fn sequential_and_parallel_runs_agree() {
        let inst = instance(100, 6, 4.0);
        let model = PearsonUtility::uniform(3);
        let parallel = ShardedContext::new(&inst, &model, 9).greedy();
        let sequential = par::with_sequential(|| ShardedContext::new(&inst, &model, 9).greedy());
        assert_identical(&parallel, &sequential, &inst, "threading");
    }

    /// Delta routing must be rebuild-equivalent: a delta-routed engine
    /// and one built fresh from the mutated instance produce identical
    /// output (and both validate structurally).
    #[test]
    fn delta_routing_matches_fresh_rebuild() {
        let inst = instance(80, 6, 4.0);
        let model = PearsonUtility::uniform(3);
        let mut sharded = ShardedContext::new(&inst, &model, 16);
        let new_customer = |x: f64, y: f64| Customer {
            location: Point::new(x, y),
            capacity: 2,
            view_probability: 0.4,
            interests: TagVector::new(vec![0.6, 0.5, 0.4]).unwrap(),
            arrival: Timestamp::from_hours(3.0),
        };
        let batch = DeltaBatch::new()
            .add_customer(new_customer(0.91, 0.88))
            .add_customer(new_customer(0.11, 0.07))
            // Same-tile nudge vs a far cross-tile hop.
            .move_customer(CustomerId::from(3usize), Point::new(0.95, 0.93))
            .remove_customer(CustomerId::from(10usize))
            .vendor_budget(VendorId::from(2usize), Money::from_dollars(7.5))
            .vendor_radius(VendorId::from(1usize), 0.45)
            .vendor_radius(VendorId::from(4usize), 0.03)
            .vendor_tags(
                VendorId::from(0usize),
                TagVector::new(vec![0.9, 0.2, 0.1]).unwrap(),
            )
            .ad_type(
                AdTypeId::from(0usize),
                AdType::new("TL", Money::from_dollars(1.5), 0.15),
            );
        sharded.apply_delta(&batch).unwrap();
        sharded.debug_validate();

        let mut mirror = inst.clone();
        mirror.apply_delta(&batch).unwrap();
        let mut fresh = ShardedContext::new(&mirror, &model, 16);
        fresh.debug_validate();
        let unsharded = Greedy.assign(&SolverContext::indexed(&mirror, &model));
        assert_identical(
            &sharded.greedy(),
            &unsharded,
            &mirror,
            "routed vs unsharded",
        );
        assert_identical(&fresh.greedy(), &unsharded, &mirror, "fresh vs unsharded");
        let recon = Recon::new();
        assert_identical(
            &sharded.recon(&recon),
            &fresh.recon(&recon),
            &mirror,
            "routed vs fresh recon",
        );
    }

    /// A customer arriving in a tile whose shard is entirely empty (no
    /// customers, no vendors — tag universe 0) must trigger the rebuild
    /// path, not a validation error.
    #[test]
    fn empty_shard_gains_its_first_customer() {
        // Everything clustered near the origin → far tiles are empty.
        let inst = InstanceBuilder::new()
            .ad_type(AdType::new("TL", Money::from_dollars(1.0), 0.1))
            .customers((0..6).map(|i| Customer {
                location: Point::new(0.01 + 0.002 * i as f64, 0.012 + 0.0015 * i as f64),
                capacity: 1,
                view_probability: 0.5,
                interests: TagVector::new(vec![0.9, 0.1]).unwrap(),
                arrival: Timestamp::MIDNIGHT,
            }))
            .vendor(Vendor {
                location: Point::new(0.012, 0.013),
                radius: 0.004,
                budget: Money::from_dollars(3.0),
                tags: TagVector::new(vec![0.8, 0.3]).unwrap(),
            })
            .build()
            .unwrap();
        let model = PearsonUtility::uniform(2);
        let mut sharded = ShardedContext::new(&inst, &model, 16);
        let arrival = Customer {
            location: Point::new(0.9, 0.9), // far outside every disc
            capacity: 1,
            view_probability: 0.5,
            interests: TagVector::new(vec![0.5, 0.5]).unwrap(),
            arrival: Timestamp::MIDNIGHT,
        };
        sharded.apply(&Delta::AddCustomer(arrival.clone())).unwrap();
        sharded.debug_validate();
        let mut mirror = inst.clone();
        mirror.apply(&Delta::AddCustomer(arrival)).unwrap();
        let unsharded = Greedy.assign(&SolverContext::indexed(&mirror, &model));
        assert_identical(&sharded.greedy(), &unsharded, &mirror, "empty-shard add");
    }

    #[test]
    fn remove_last_and_swap_rename_cases() {
        let inst = instance(40, 4, 3.0);
        let model = PearsonUtility::uniform(3);
        let mut sharded = ShardedContext::new(&inst, &model, 9);
        // Remove the last id (no rename), then an interior id (rename).
        let batch = DeltaBatch::new()
            .remove_customer(CustomerId::from(39usize))
            .remove_customer(CustomerId::from(0usize))
            .remove_customer(CustomerId::from(17usize));
        sharded.apply_delta(&batch).unwrap();
        sharded.debug_validate();
        let mut mirror = inst.clone();
        mirror.apply_delta(&batch).unwrap();
        let unsharded = Greedy.assign(&SolverContext::indexed(&mirror, &model));
        assert_identical(&sharded.greedy(), &unsharded, &mirror, "removals");
    }

    /// VendorTags routing: the delta fans out to exactly the shards
    /// holding a replica (the vendor's disc tiles), each of which does
    /// its own column reset — and the routed engine stays byte-identical
    /// to unsharded solves across tile counts, with warm merge state on
    /// both sides of the change.
    #[test]
    fn vendor_tags_routing_matches_unsharded() {
        let inst = instance(90, 7, 4.0);
        let model = PearsonUtility::uniform(3);
        for tiles in [1, 4, 16] {
            let mut sharded = ShardedContext::new(&inst, &model, tiles);
            // Warm the merged substrate before the churn.
            let _ = sharded.greedy();
            let batch = DeltaBatch::new()
                .vendor_tags(
                    VendorId::from(3usize),
                    TagVector::new(vec![1.0, 0.0, 0.3]).unwrap(),
                )
                .vendor_tags(VendorId::from(5usize), TagVector::zeros(3));
            sharded.apply_delta(&batch).unwrap();
            sharded.debug_validate();
            let mut mirror = inst.clone();
            mirror.apply_delta(&batch).unwrap();
            let ctx = SolverContext::indexed(&mirror, &model);
            assert_identical(
                &sharded.greedy(),
                &Greedy.assign(&ctx),
                &mirror,
                "tags greedy",
            );
            assert_identical(
                &sharded.recon(&Recon::new()),
                &Recon::new().assign(&ctx),
                &mirror,
                "tags recon",
            );
        }
    }

    #[test]
    fn failed_delta_leaves_engine_unchanged() {
        let inst = instance(20, 3, 3.0);
        let model = PearsonUtility::uniform(3);
        let mut sharded = ShardedContext::new(&inst, &model, 4);
        let before = sharded.greedy();
        assert!(sharded
            .apply(&Delta::RemoveCustomer(CustomerId::from(99usize)))
            .is_err());
        assert!(sharded
            .apply(&Delta::VendorRadius(VendorId::from(0usize), -1.0))
            .is_err());
        sharded.debug_validate();
        assert_identical(&sharded.greedy(), &before, &inst, "failed delta");
    }

    #[test]
    fn empty_instance_shards_cleanly() {
        let inst = InstanceBuilder::new()
            .ad_type(AdType::new("TL", Money::from_dollars(1.0), 0.1))
            .build()
            .unwrap();
        let model = PearsonUtility::uniform(0);
        let mut sharded = ShardedContext::new(&inst, &model, 8);
        sharded.debug_validate();
        assert!(sharded.greedy().is_empty());
        assert!(sharded.recon(&Recon::new()).is_empty());
    }
}
