//! The `MpqSpace` abstraction: cost and region representations.
//!
//! RRPA (Algorithm 1) is agnostic about how cost functions and relevance
//! regions are represented — the paper notes that the implementation of the
//! elementary operations "depends on the considered class of cost
//! functions" (Section 5.1). This trait captures exactly the elementary
//! operations the algorithm needs; the three implementations
//! ([`crate::grid_space::GridSpace`], [`crate::pwl_space::PwlSpace`],
//! [`crate::sampled::SampledSpace`]) realise PWL-RRPA in two variants and
//! the generic RRPA respectively. The two PWL variants differ only in
//! their cost representation and region granularity — the
//! cutout/witness/emptiness machinery behind `subtract_dominated` and
//! `region_is_empty` is one shared implementation, the
//! [`mpq_geometry::region::RegionEngine`].
//!
//! # Ties and strictness
//!
//! Dominance (`Dom`) is non-strict; strict dominance (`StD`) additionally
//! excludes equal-cost points (paper Section 2). RRPA reduces the **new**
//! plan's region with `Dom` (a retained tie partner covers the tie points)
//! but retained plans' regions must be reduced with `StD` semantics — the
//! `strict` flag of [`MpqSpace::subtract_dominated`] — so exactly one
//! representative of each tie class stays relevant everywhere.
//! Symmetrically, [`MpqSpace::region_contains`] treats subtracted regions
//! as *open* sets: a point on a dominance boundary (where the competitor
//! merely ties) still belongs to the region.

/// Cost-function and relevance-region representation for one optimization
/// run.
pub trait MpqSpace {
    /// Representation of a vector-valued parametric cost function `c(p)`.
    type Cost: Clone;
    /// Representation of a relevance region (a subset of the parameter
    /// space X).
    type Region: Clone;

    /// Number of cost metrics.
    fn num_metrics(&self) -> usize;

    /// Number of parameters (the dimension of X).
    fn dim(&self) -> usize;

    /// The space a query with `params` parameters is optimized in: the
    /// face of X spanned by its first `max(params, 1)` axes. A query's
    /// costs read only `x[..params]` (`Query::validate` bounds every
    /// parameter index), so each relevance region in X is a cylinder over
    /// its set in that face, and deciding it there is the same question
    /// at a fraction of the geometry. A face is the same type as the
    /// space, cut to fewer axes; its costs and regions are read at
    /// `x[..face.dim()]`.
    ///
    /// `params >= self.dim()` returns `self`. The default returns `self`
    /// for every count: a space may always optimize in the full X.
    fn face(&self, _params: usize) -> &Self {
        self
    }

    /// Lifts an arbitrary cost closure (parameter vector ↦ cost vector)
    /// into this space's representation. PWL spaces approximate by grid
    /// interpolation (exact at grid vertices); the sampled space is exact
    /// at its sample points.
    ///
    /// # Panics
    /// All three spaces panic, naming the point, if `f` returns a
    /// non-finite value at a point they sample.
    fn lift(&self, f: &(dyn Fn(&[f64]) -> Vec<f64> + '_)) -> Self::Cost;

    /// Pointwise cost accumulation `a + b` (the `AccumulateCost` step of
    /// Algorithm 1 / Algorithm 3).
    fn add(&self, a: &Self::Cost, b: &Self::Cost) -> Self::Cost;

    /// Fused accumulation `(a + b) + c` — the per-candidate cost of RRPA
    /// (left sub-plan + right sub-plan + join operator). Implementations
    /// can override this to skip the intermediate sum; the default matches
    /// the nested form exactly (including float association order).
    fn add3(&self, a: &Self::Cost, b: &Self::Cost, c: &Self::Cost) -> Self::Cost {
        self.add(&self.add(a, b), c)
    }

    /// Evaluates a cost function at a parameter point.
    fn eval(&self, cost: &Self::Cost, x: &[f64]) -> Vec<f64>;

    /// The full parameter space X (the initial relevance region of every
    /// new plan, Algorithm 1 line 36).
    fn full_region(&self) -> Self::Region;

    /// Removes from `region` — the relevance region of the plan with cost
    /// `own` — every point where `competitor` dominates `own`
    /// (`R ← R ∖ Dom(competitor, own)`, Algorithm 1 lines 39/49).
    ///
    /// With `strict`, parts where the two cost functions are *identical*
    /// are kept (`StD` semantics) — used when reducing retained plans so
    /// tie classes keep one relevant representative.
    ///
    /// Returns `true` if the region may have changed (callers skip the
    /// emptiness check otherwise).
    fn subtract_dominated(
        &self,
        region: &mut Self::Region,
        own: &Self::Cost,
        competitor: &Self::Cost,
        strict: bool,
    ) -> bool;

    /// True iff the region is empty (Algorithm 2 `IsEmpty` for the PWL
    /// spaces). May solve LPs. Takes `&mut` so implementations can cache
    /// the verdict (e.g. mark a covered simplex as empty).
    fn region_is_empty(&self, region: &mut Self::Region) -> bool;

    /// Cheap *exact* sufficient test that `dominator` dominates
    /// `dominated` over the whole parameter space. Must never return a
    /// false positive (plans are discarded on its say-so); returning
    /// `false` when unsure is always sound. Default: no fast path.
    fn dominates_everywhere(&self, _dominator: &Self::Cost, _dominated: &Self::Cost) -> bool {
        false
    }

    /// [`MpqSpace::dominates_everywhere`] under a multiplicative band: a
    /// sound test that `dominator ≤ band · dominated` over the whole
    /// parameter space — the **whole-plan discard** of ε-approximate
    /// pruning (the many-objective approximation scheme of
    /// arXiv 1404.0046, applied per DP level): a newcomer that some
    /// retained plan `(1+ε)`-dominates everywhere is dropped entirely,
    /// and all region subtraction stays exact. Keeping the band out of
    /// *partial* region cuts is what makes the cover compose: exact
    /// removals transfer coverage at factor 1 and every coverage chain
    /// crosses at most one banded link (the discard itself), so one run
    /// compounds at most one band per DP level. Banded partial cuts, by
    /// contrast, let near-tied plans remove each other (the strict
    /// retained-phase reduction can fire where the band also fires),
    /// leaving points no relevant plan covers.
    ///
    /// Same soundness bar as the exact test (no false positives), and
    /// `band == 1.0` must equal the exact fast path bit for bit.
    /// Default: delegate to the exact test (sound — exact dominance
    /// implies banded dominance for `band ≥ 1`, never approximate).
    fn dominates_everywhere_banded(
        &self,
        dominator: &Self::Cost,
        dominated: &Self::Cost,
        _band: f64,
    ) -> bool {
        self.dominates_everywhere(dominator, dominated)
    }

    /// True iff `x` belongs to `region` (diagnostics and plan selection).
    /// Subtracted dominance regions are treated as open: boundary points,
    /// where the competitor ties, remain members.
    fn region_contains(&self, region: &Self::Region, x: &[f64]) -> bool;

    /// Adds this space's per-site LP fast-path growth since its last
    /// publish to an observability registry's counters (see
    /// [`mpq_lp::LpCtx::publish_to`]). Spaces without an LP context
    /// publish nothing.
    fn publish_obs(&self, _registry: &mpq_obs::Registry) {}
}
