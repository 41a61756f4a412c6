//! The shared region engine: cutout bookkeeping, relevance points,
//! interior witnesses, and emptiness decisions over a convex base region.
//!
//! Both PWL backends of the optimizer track relevance regions as a convex
//! **base** region minus a list of convex **cutouts** (Theorem 4 of the
//! MPQ paper). The grid-aligned space keeps one such state per grid
//! simplex (base = the simplex; every cutout is the simplex intersected
//! with at most one halfspace per metric, Theorem 2). The general space
//! keeps one global state (base = the whole parameter box; cutouts are
//! the dominance polytopes of Algorithm 3). This module is the single
//! audited implementation of "subtract a dominance polytope and decide
//! emptiness" shared by both:
//!
//! * cutouts are stored as just their **extra halfspaces** relative to the
//!   base (inline in a [`HalfspaceList`] — no heap traffic for the common
//!   one- and two-halfspace cutouts, and the base polytope is never
//!   cloned per cutout);
//! * the §6.2 refinements (redundant-constraint and redundant-cutout
//!   removal) are answered by **exact vertex-enumeration fast paths**
//!   over the base's known vertex set whenever the decisive margin clears
//!   [`FASTPATH_MARGIN`]; only ambiguous-band queries reach the LP solver
//!   ([`Polytope::max_linear_with`], staged and borrow-based);
//! * relevance points (§6.2 refinement 3) are stored as **indices** into a
//!   probe set owned by the base, so shrinking a region allocates nothing;
//! * emptiness runs the piecewise coverage check (the worklist behind
//!   [`crate::difference_is_empty`], resumed incrementally per region)
//!   and extracts a margin-certified **interior witness** that keeps
//!   later checks free until a cutout actually covers it. For cutouts
//!   contained in the base — true for both backends — this verdict is
//!   the one the paper's Algorithm 2 reaches through a convexity test of
//!   the cutout union followed by a containment test: the union covers
//!   the base iff it *equals* the base, in which case it is convex.

use crate::{Halfspace, Polytope, INTERIOR_TOL, TOL, WITNESS_MARGIN};
use mpq_lp::{dense::dot, FastPathSite, LpCtx, LpOutcome};
use smallvec::SmallVec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Inline storage for cutout halfspace lists: two-metric workloads almost
/// never produce cutouts with more than two extra halfspaces over a grid
/// simplex (general dominance polytopes spill to the heap transparently).
pub type HalfspaceList = SmallVec<[Halfspace; 2]>;

/// Surviving relevance points, as indices into the base's probe set.
/// Inline for the grid backend's `dim + 2` probes per simplex; the general
/// backend's global probe sets spill to the heap once per region.
pub type ProbeSet = SmallVec<[u16; 8]>;

/// Safety margin for the LP-free fast paths: geometric queries whose
/// decisive quantity sits within this distance of its tolerance threshold
/// are answered by the LP solver instead, so fast-path verdicts can never
/// disagree with solver verdicts (LP round-off is ≤ ~1e-7; the margin is
/// an order of magnitude above it).
pub const FASTPATH_MARGIN: f64 = 1e-6;

/// A convex base region with the exact metadata the engine's fast paths
/// need: the vertex set (linear functionals attain extrema there), an
/// interior point for inscribed-ball certificates, and the probe set that
/// seeds relevance points.
#[derive(Debug, Clone)]
pub struct RegionBase {
    /// `Arc`-shared so bases built over interned grid polytopes
    /// ([`crate::grid::ParamGrid::simplex_poly`]) do not re-clone the
    /// constraint lists.
    polytope: Arc<Polytope>,
    vertices: Vec<Vec<f64>>,
    probes: Vec<Vec<f64>>,
    interior: Vec<f64>,
}

impl RegionBase {
    /// Builds a base region.
    ///
    /// `vertices` must be the exact vertex set of `polytope` (used by the
    /// LP-free fast paths), `interior` an interior point (used for ball
    /// certificates — a centroid works), and `probes` the relevance-point
    /// candidates (at most `u16::MAX` of them).
    pub fn new(
        polytope: Arc<Polytope>,
        vertices: Vec<Vec<f64>>,
        probes: Vec<Vec<f64>>,
        interior: Vec<f64>,
    ) -> Self {
        debug_assert!(vertices.iter().all(|v| v.len() == polytope.dim()));
        debug_assert!(probes.iter().all(|p| p.len() == polytope.dim()));
        debug_assert_eq!(interior.len(), polytope.dim());
        debug_assert!(probes.len() <= u16::MAX as usize);
        Self {
            polytope,
            vertices,
            probes,
            interior,
        }
    }

    /// The base polytope.
    pub fn polytope(&self) -> &Polytope {
        &self.polytope
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.polytope.dim()
    }

    /// The probe (relevance-point candidate) coordinates.
    pub fn probes(&self) -> &[Vec<f64>] {
        &self.probes
    }

    /// Coordinates of probe `idx`.
    #[inline]
    fn probe(&self, idx: u16) -> &[f64] {
        &self.probes[idx as usize]
    }
}

/// One cutout: the subtracted region is the base intersected with these
/// halfspaces (the base polytope itself is shared and implied).
#[derive(Debug, Clone)]
pub struct Cutout {
    halfspaces: HalfspaceList,
}

impl Cutout {
    /// The extra halfspaces over the base.
    pub fn halfspaces(&self) -> &[Halfspace] {
        &self.halfspaces
    }

    /// True iff `x` (already inside the base) lies strictly inside the
    /// cutout's halfspaces. Open semantics: dominance-boundary points
    /// (ties) are not considered removed.
    #[inline]
    fn strictly_contains(&self, x: &[f64]) -> bool {
        self.halfspaces.iter().all(|h| h.slack(x) > TOL)
    }

    /// True iff `x` lies in the closed cutout.
    #[inline]
    fn contains(&self, x: &[f64]) -> bool {
        self.halfspaces.iter().all(|h| h.contains(x))
    }
}

/// Where the ball of radius `TOL + WITNESS_MARGIN` around `w` sits in
/// `cutout`'s worklist subdivision (scanning the cutout's halfspaces in
/// order, as the coverage worklist's subdivision does):
///
/// * `Some(true)` — the ball lies wholly in a cell *outside* the cutout
///   (each halfspace cleared by the margin, the first outside-side one
///   certifying avoidance);
/// * `Some(false)` — the ball lies wholly inside the cutout;
/// * `None` — a boundary straddles the ball, so the subdivision could
///   slice it into sub-tolerance slivers that a coverage re-check would
///   drop.
///
/// A witness certifies future non-emptiness verdicts only while every
/// cutout places it at `Some(true)` — that keeps witness-based verdicts
/// exactly consistent with re-running the piecewise coverage check.
#[inline]
fn cell_placement(cutout: &Cutout, w: &[f64]) -> Option<bool> {
    for h in &cutout.halfspaces {
        let s = h.slack(w);
        if s <= -(TOL + WITNESS_MARGIN) {
            return Some(true);
        }
        if s < TOL + WITNESS_MARGIN {
            return None;
        }
    }
    Some(false)
}

/// The terms of a halfspace conjunction that the LP-free pass left
/// undecided, as indices into its halfspace list (see
/// [`RegionEngine::cover_fast_pass`]).
type Undecided = SmallVec<[usize; 2]>;

/// Extra-halfspace cap for the general 2-D vertex enumeration: the
/// O((nv² + m²)·m) candidate sweep stops beating an LP well above it, and
/// optimizer cutouts stay far below.
const VERTEX2D_MAX_EXTRAS: usize = 12;

/// Sound two-sided bounds on a region's linear maximum — see
/// [`RegionEngine::region_max_bounds`] for which verdict each side
/// certifies.
#[derive(Debug, Default, Clone, Copy)]
pub struct RegionMaxBounds {
    /// Max over `-TOL`-inclusive candidates (`None` = region empty).
    pub upper: Option<f64>,
    /// Max over exactly feasible candidates (`None` = no certified point).
    pub lower: Option<f64>,
    /// A candidate generator was skipped for conditioning reasons (a
    /// near-parallel boundary pair below the determinant gate), so `upper`
    /// may understate the true maximum by more than enumeration round-off.
    /// Verdicts with sub-[`FASTPATH_MARGIN`] margins (the exact-tie rule)
    /// must not trust such bounds.
    pub degenerate: bool,
}

impl RegionMaxBounds {
    #[inline]
    fn take(&mut self, value: f64, exactly_feasible: bool) {
        self.upper = Some(self.upper.map_or(value, |b| b.max(value)));
        if exactly_feasible {
            self.lower = Some(self.lower.map_or(value, |b| b.max(value)));
        }
    }
}

/// Relevance-region state over one base.
#[derive(Debug, Clone)]
pub enum CutoutRegion {
    /// The whole base is relevant.
    Full,
    /// The base minus the cutouts is relevant.
    Partial {
        /// The subtracted cutouts.
        cutouts: Vec<Cutout>,
        /// Surviving relevance points (witnesses of non-emptiness), as
        /// indices into the base's probe set.
        points: ProbeSet,
        /// Interior witness extracted from the last coverage check: the
        /// centre of a ball of radius > `INTERIOR_TOL` inside the
        /// remainder. Stays valid — and keeps emptiness checks free —
        /// until some cutout contains it.
        witness: Option<Vec<f64>>,
        /// A completed coverage check proved the remainder non-empty and
        /// no cutout has been added since (cached verdict).
        verified_nonempty: bool,
        /// Incremental coverage state: the worklist decomposition of
        /// `base ∖ cutouts[..processed]` left by the last coverage check
        /// (`processed` = first element). The worklist loop is
        /// cutout-at-a-time, so a later check resumes here and only
        /// subtracts the cutouts appended since — re-running the prefix
        /// would repeat bit-identical deterministic queries. Pieces carry
        /// their cached Chebyshev witness verdicts
        /// ([`crate::difference::CoveragePiece`]), so witness extraction
        /// over pieces surviving a resumption never re-runs the
        /// `chebyshev_center` LP. Invalidated whenever the cutout list
        /// changes other than by appending (redundant-cutout removal).
        remainder: Option<(usize, Vec<crate::difference::CoveragePiece>)>,
    },
    /// Nothing of the base is relevant.
    Empty,
}

impl CutoutRegion {
    /// True iff the region is known to be empty.
    #[inline]
    pub fn is_marked_empty(&self) -> bool {
        matches!(self, CutoutRegion::Empty)
    }

    /// Marks the region empty without any geometry.
    #[inline]
    pub fn mark_empty(&mut self) {
        *self = CutoutRegion::Empty;
    }

    /// The cutouts subtracted so far (empty for `Full` and `Empty`).
    pub fn cutouts(&self) -> &[Cutout] {
        match self {
            CutoutRegion::Partial { cutouts, .. } => cutouts,
            _ => &[],
        }
    }

    /// True iff `x` (a point of the base) belongs to the region. Cutouts
    /// are open for membership: dominance-boundary points (ties) remain
    /// members.
    #[inline]
    pub fn contains(&self, x: &[f64]) -> bool {
        match self {
            CutoutRegion::Full => true,
            CutoutRegion::Empty => false,
            CutoutRegion::Partial { cutouts, .. } => {
                !cutouts.iter().any(|c| c.strictly_contains(x))
            }
        }
    }
}

/// The shared cutout/witness/emptiness machinery. One engine serves all
/// regions of an optimization run; it is `Sync` (the LP context is shared
/// by reference and the emptiness counters are atomic), so the queries of
/// a session batch can use one engine concurrently.
///
/// Each predicate has one path: an exact LP-free verdict where it is
/// decisive, the solver where it is not. Cutout emptiness goes through
/// [`Polytope::is_empty_with_fastpath`]; halfspace coverage (both §6.2
/// cutout refinements) through one LP-free pass over all terms
/// (`cover_fast_pass`) and one LP pass over the terms it left undecided
/// (`cover_lp_pass`). The only switches are the three §6.2 refinements,
/// which the ablation study turns off one at a time.
#[derive(Debug)]
pub struct RegionEngine {
    /// §6.2 refinement 3: keep relevance points, skip emptiness checks
    /// while any survives.
    relevance_points: bool,
    /// §6.2 refinement 2: drop cutouts covered by another cutout.
    redundant_cutout_removal: bool,
    /// §6.2 refinement 1: drop cutout halfspaces implied by the base and
    /// the cutout's other halfspaces.
    redundant_constraint_removal: bool,
    emptiness_checks: AtomicU64,
    emptiness_skipped: AtomicU64,
}

impl RegionEngine {
    /// Builds an engine with the given §6.2 refinement switches.
    pub fn new(
        relevance_points: bool,
        redundant_cutout_removal: bool,
        redundant_constraint_removal: bool,
    ) -> Self {
        Self {
            relevance_points,
            redundant_cutout_removal,
            redundant_constraint_removal,
            emptiness_checks: AtomicU64::new(0),
            emptiness_skipped: AtomicU64::new(0),
        }
    }

    /// A new engine with this one's switches and zeroed counters.
    pub fn with_same_switches(&self) -> Self {
        Self::new(
            self.relevance_points,
            self.redundant_cutout_removal,
            self.redundant_constraint_removal,
        )
    }

    /// Emptiness checks executed / skipped via relevance points, witnesses
    /// and cached verdicts.
    pub fn emptiness_counters(&self) -> (u64, u64) {
        (
            self.emptiness_checks.load(Ordering::Relaxed),
            self.emptiness_skipped.load(Ordering::Relaxed),
        )
    }

    /// Initial relevance points of a base: all its probes (by index —
    /// nothing is copied).
    #[inline]
    fn initial_points(&self, base: &RegionBase) -> ProbeSet {
        if !self.relevance_points {
            return ProbeSet::new();
        }
        (0..base.probes.len() as u16).collect()
    }

    /// Exact bounds on the maximum of `w · x` over `base ∩ extra`, by
    /// enumerating the region's vertex set (a bounded polytope attains
    /// linear maxima at vertices). Supported for at most one extra
    /// halfspace in any dimension, any number of extras (up to an
    /// internal cap of 12) in two dimensions, and any number of extras in
    /// one dimension (exact interval arithmetic). Returns `None` for
    /// unsupported shapes; otherwise `Some(RegionMaxBounds)` with:
    ///
    /// * `upper` — max over candidates accepted with the inclusive `-TOL`
    ///   slack threshold. A true region vertex is never missed and any
    ///   overstatement is bounded by `TOL`, so `upper` soundly certifies
    ///   **"covered"** verdicts (and `upper == None` certifies the region
    ///   empty — the LP would report `Infeasible`).
    /// * `lower` — max over candidates that are *exactly* feasible
    ///   (slack ≥ 0), hence true region points: soundly certifies
    ///   **"not covered"** verdicts. `None` when no candidate is exactly
    ///   feasible (the region may still be a tolerance-band sliver, so
    ///   nothing can be concluded in the "not covered" direction).
    ///
    /// Public for differential testing against the LP answer
    /// (`tests/vertex_enum_proptest.rs`); the optimizer consumes it only
    /// through the engine's verdict paths.
    #[inline]
    pub fn region_max_bounds(
        &self,
        base: &RegionBase,
        extra: &[Halfspace],
        w: &[f64],
    ) -> Option<RegionMaxBounds> {
        let verts = &base.vertices;
        let nv = verts.len();
        let mut bounds = RegionMaxBounds::default();
        match extra.len() {
            0 => {
                for v in verts {
                    bounds.take(dot(w, v), true);
                }
            }
            1 => {
                let e = &extra[0];
                let slacks: SmallVec<[f64; 8]> = verts.iter().map(|v| e.slack(v)).collect();
                let values: SmallVec<[f64; 8]> = verts.iter().map(|v| dot(w, v)).collect();
                for i in 0..nv {
                    if slacks[i] >= -TOL {
                        bounds.take(values[i], slacks[i] >= 0.0);
                    }
                }
                // Edge crossings of the halfspace boundary (exactly on it).
                for i in 0..nv {
                    for j in (i + 1)..nv {
                        if (slacks[i] > 0.0 && slacks[j] < 0.0)
                            || (slacks[i] < 0.0 && slacks[j] > 0.0)
                        {
                            let t = slacks[i] / (slacks[i] - slacks[j]);
                            bounds.take(values[i] + t * (values[j] - values[i]), true);
                        }
                    }
                }
            }
            // General 2-D enumeration (two or more extras): vertices of
            // `base ∩ extra` are base vertices surviving every extra,
            // base-edge crossings of one extra boundary surviving the
            // others, or pairwise extra-boundary intersections inside the
            // base and the remaining extras.
            m if base.dim() == 2 && m <= VERTEX2D_MAX_EXTRAS => {
                // Base vertices.
                for v in verts {
                    let min_slack = extra
                        .iter()
                        .map(|e| e.slack(v))
                        .fold(f64::INFINITY, f64::min);
                    if min_slack >= -TOL {
                        bounds.take(dot(w, v), min_slack >= 0.0);
                    }
                }
                // Base-edge crossings of each extra boundary.
                for (ei, e) in extra.iter().enumerate() {
                    let slacks: SmallVec<[f64; 8]> = verts.iter().map(|v| e.slack(v)).collect();
                    for i in 0..nv {
                        for j in (i + 1)..nv {
                            if (slacks[i] > 0.0 && slacks[j] < 0.0)
                                || (slacks[i] < 0.0 && slacks[j] > 0.0)
                            {
                                let t = slacks[i] / (slacks[i] - slacks[j]);
                                let p = [
                                    verts[i][0] + t * (verts[j][0] - verts[i][0]),
                                    verts[i][1] + t * (verts[j][1] - verts[i][1]),
                                ];
                                let others = extra
                                    .iter()
                                    .enumerate()
                                    .filter(|&(oi, _)| oi != ei)
                                    .map(|(_, o)| o.slack(&p))
                                    .fold(f64::INFINITY, f64::min);
                                if others >= -TOL {
                                    bounds.take(dot(w, &p), others >= 0.0);
                                }
                            }
                        }
                    }
                }
                // Pairwise extra-boundary intersections.
                for ei in 0..extra.len() {
                    for ej in (ei + 1)..extra.len() {
                        let (n1, n2) = (extra[ei].normal(), extra[ej].normal());
                        let det = n1[0] * n2[1] - n1[1] * n2[0];
                        if det.abs() <= 1e-12 {
                            bounds.degenerate = true;
                            continue;
                        }
                        let p = [
                            (extra[ei].offset() * n2[1] - extra[ej].offset() * n1[1]) / det,
                            (n1[0] * extra[ej].offset() - n2[0] * extra[ei].offset()) / det,
                        ];
                        let min_slack = base
                            .polytope
                            .halfspaces()
                            .iter()
                            .chain(
                                extra
                                    .iter()
                                    .enumerate()
                                    .filter(|&(oi, _)| oi != ei && oi != ej)
                                    .map(|(_, o)| o),
                            )
                            .map(|f| f.slack(&p))
                            .fold(f64::INFINITY, f64::min);
                        if min_slack >= -TOL {
                            bounds.take(dot(w, &p), min_slack >= 0.0);
                        }
                    }
                }
            }
            _ if base.dim() == 1 => {
                let (lo, hi) = base.polytope.interval_1d(extra);
                if lo > hi + FASTPATH_MARGIN {
                    // Certainly empty: leave `upper` at None.
                } else if hi >= lo {
                    // The exact feasible interval: both endpoints are true
                    // region points. Unbounded sides fall back to the LP
                    // (never the case for optimizer bases, which are
                    // bounded boxes and simplices).
                    if !lo.is_finite() || !hi.is_finite() {
                        return None;
                    }
                    bounds.take(w[0] * lo, true);
                    bounds.take(w[0] * hi, true);
                } else {
                    // Tolerance-band sliver: ambiguous, use the LP.
                    return None;
                }
            }
            _ => return None,
        }
        Some(bounds)
    }

    /// LP-free verdict on one term of the coverage conjunction, "does `h`
    /// contain `base ∩ extra`": `Some(verdict)` when the exact enumeration
    /// decides the query, `None` when only the solver can (unsupported
    /// shape, or inside the ambiguous band).
    ///
    /// Public for differential testing against the LP answer
    /// (`tests/vertex_enum_proptest.rs`); the optimizer consumes it only
    /// through the engine's coverage pass (`cover_fast_pass`).
    #[inline]
    pub fn halfspace_covers_fast(
        &self,
        base: &RegionBase,
        extra: &[Halfspace],
        h: &Halfspace,
    ) -> Option<bool> {
        let bounds = self.region_max_bounds(base, extra, h.normal())?;
        // The 0–2-extras arms keep their historical behaviour bit for bit
        // (their verdicts are pinned trajectory); the general arm (3+
        // extras) additionally refuses "covered"
        // verdicts when a candidate generator was conditioning-skipped —
        // `upper` may then understate the true maximum by more than any
        // margin absorbs (a thin wedge's missed tip).
        let trust_upper = extra.len() <= 2 || !bounds.degenerate;
        match bounds.upper {
            // Empty region: vacuously covered (the LP reports
            // Infeasible).
            None if trust_upper => return Some(true),
            Some(upper) if trust_upper && upper <= h.offset() + TOL - FASTPATH_MARGIN => {
                return Some(true)
            }
            _ => {}
        }
        if let Some(lower) = bounds.lower {
            if lower > h.offset() + TOL + FASTPATH_MARGIN {
                return Some(false);
            }
        }
        // Narrow-band rule: shared sub-plans make a large share of
        // redundancy queries tie exactly at the halfspace offset —
        // distance `TOL` inside the decision boundary, which the
        // symmetric [`FASTPATH_MARGIN`] above cannot take. The LP's
        // verdict is still predictable there: with every row pair
        // well-conditioned (exactly parallel or clearly crossing — see
        // [`crate::rows_well_conditioned_2d`]) its round-off stays
        // orders of magnitude below `TOL`, so both verdicts can be
        // taken at a `3e-8` margin. Enumeration bounds are trusted at
        // this granularity only when no candidate generator was
        // conditioning-skipped (`degenerate`); ill-conditioned inputs
        // have been observed to push the LP ~5e-6 past the true
        // maximum, and those verdicts (right or wrong) are pinned
        // trajectory, so they keep the LP. In 1-D every unit normal is
        // ±1: no row pair can be ill-conditioned, so the rule needs no
        // conditioning test there.
        if matches!(base.dim(), 1 | 2) && !bounds.degenerate {
            let decisive = match (bounds.upper, bounds.lower) {
                (Some(u), _) if u <= h.offset() + TOL - crate::LP_AGREEMENT_MARGIN => Some(true),
                (_, Some(l)) if l > h.offset() + TOL + crate::LP_AGREEMENT_MARGIN => Some(false),
                _ => None,
            };
            if decisive.is_some() {
                if base.dim() == 1 {
                    return decisive;
                }
                let rows: SmallVec<[&Halfspace; 8]> = base
                    .polytope
                    .halfspaces()
                    .iter()
                    .chain(extra)
                    .chain(std::iter::once(h))
                    .collect();
                if crate::rows_well_conditioned_2d(&rows) {
                    return decisive;
                }
            }
        }
        None
    }

    /// LP-free pass of the conjunction "`base ∩ extra` lies in every `h` of
    /// `hs`", the one predicate behind both §6.2 refinements: each term
    /// gets its [`Self::halfspace_covers_fast`] verdict in list order, and
    /// the first decisive `false` settles the conjunction. Returns
    /// `Ok(verdict)` when no LP is needed, and otherwise the undecided
    /// terms for [`Self::cover_lp_pass`]. Every term is a deterministic
    /// predicate, so deferring the undecided ones changes no verdict: a
    /// decisive LP-free `false` on a later term settles the query before
    /// the earlier ambiguous terms pay their solver calls.
    #[inline]
    fn cover_fast_pass(
        &self,
        ctx: &LpCtx,
        base: &RegionBase,
        extra: &[Halfspace],
        hs: &[Halfspace],
    ) -> Result<bool, Undecided> {
        let mut undecided = Undecided::new();
        for (i, h) in hs.iter().enumerate() {
            match self.halfspace_covers_fast(base, extra, h) {
                Some(covered) => {
                    ctx.fastpath_hit(FastPathSite::CutoutRedundancy);
                    if !covered {
                        return Ok(false);
                    }
                }
                None => undecided.push(i),
            }
        }
        if undecided.is_empty() {
            Ok(true)
        } else {
            Err(undecided)
        }
    }

    /// LP pass of the conjunction over the terms [`Self::cover_fast_pass`]
    /// left undecided, in order, stopping at the first term whose
    /// halfspace does not contain `base ∩ extra`: one maximum of
    /// `h.normal() · x` over the region per term, compared with
    /// `h.offset() + TOL`.
    fn cover_lp_pass(
        &self,
        ctx: &LpCtx,
        base: &RegionBase,
        extra: &[Halfspace],
        hs: &[Halfspace],
        undecided: &[usize],
    ) -> bool {
        undecided.iter().all(|&i| {
            let h = &hs[i];
            ctx.fastpath_fallback(FastPathSite::CutoutRedundancy);
            match base.polytope.max_linear_with(ctx, h.normal(), extra) {
                LpOutcome::Optimal(sol) => sol.value <= h.offset() + TOL,
                LpOutcome::Unbounded => false,
                LpOutcome::Infeasible => true,
            }
        })
    }

    /// True iff `base ∩ extra` lies in every `h` of `hs`: the fast pass,
    /// then the LP pass over whatever it left undecided.
    #[inline]
    fn covers(
        &self,
        ctx: &LpCtx,
        base: &RegionBase,
        extra: &[Halfspace],
        hs: &[Halfspace],
    ) -> bool {
        self.cover_fast_pass(ctx, base, extra, hs)
            .unwrap_or_else(|undecided| self.cover_lp_pass(ctx, base, extra, hs, &undecided))
    }

    /// Adds a cutout (base ∩ halfspaces) to a region, applying the
    /// configured refinements. `known_nonempty` skips the emptiness
    /// precheck when the caller has already verified the cutout has
    /// interior (as Algorithm 3's dominance-region construction does).
    #[inline]
    pub fn add_cutout(
        &self,
        ctx: &LpCtx,
        base: &RegionBase,
        state: &mut CutoutRegion,
        mut halfspaces: HalfspaceList,
        known_nonempty: bool,
    ) {
        debug_assert!(!halfspaces.is_empty());
        if state.is_marked_empty() {
            return;
        }
        // With several extra halfspaces the intersection can be empty; one
        // LP avoids accumulating junk cutouts. (A single proper split
        // always has interior on both sides.) A ball certificate around a
        // candidate interior point settles the common non-empty case
        // without the LP: all normals are unit vectors, so a point with
        // slack > r on every constraint admits an inscribed ball of
        // radius r.
        if !known_nonempty && halfspaces.len() >= 2 {
            // Only an interior point can certify: vertices sit on facets.
            let certified_nonempty = {
                let r = base
                    .polytope
                    .halfspaces()
                    .iter()
                    .chain(&halfspaces)
                    .map(|h| h.slack(&base.interior))
                    .fold(f64::INFINITY, f64::min);
                r > INTERIOR_TOL + FASTPATH_MARGIN
            };
            // Otherwise the exact interval (1-D) / slab-and-triple (2-D)
            // fast paths decide, with the tolerance band of the
            // piece-algebra predicates, and the LP answers what they leave
            // open.
            if certified_nonempty {
                ctx.fastpath_hit(FastPathSite::CutoutEmptiness);
            } else if base.polytope.is_empty_with_fastpath(
                ctx,
                &halfspaces,
                FastPathSite::CutoutEmptiness,
            ) {
                return;
            }
        }
        // §6.2 refinement 1 (targeted): the base facets are kept
        // irredundant by construction, so only the extra halfspaces can be
        // redundant against the base + the other extras. The candidate is
        // popped off the list, so "the others" are simply the remaining
        // entries — no scratch copies.
        if self.redundant_constraint_removal && halfspaces.len() >= 2 {
            let mut i = 0;
            while i < halfspaces.len() && halfspaces.len() > 1 {
                let candidate = halfspaces.remove(i);
                if self.covers(ctx, base, &halfspaces, std::slice::from_ref(&candidate)) {
                    // Redundant: leave it out.
                } else {
                    halfspaces.insert(i, candidate);
                    i += 1;
                }
            }
        }
        let cutout = Cutout { halfspaces };
        let (cutouts, points, witness, verified, remainder) = match state {
            CutoutRegion::Empty => return,
            CutoutRegion::Full => {
                *state = CutoutRegion::Partial {
                    cutouts: Vec::with_capacity(4),
                    points: self.initial_points(base),
                    witness: None,
                    verified_nonempty: false,
                    remainder: None,
                };
                match state {
                    CutoutRegion::Partial {
                        cutouts,
                        points,
                        witness,
                        verified_nonempty,
                        remainder,
                    } => (cutouts, points, witness, verified_nonempty, remainder),
                    _ => unreachable!(),
                }
            }
            CutoutRegion::Partial {
                cutouts,
                points,
                witness,
                verified_nonempty,
                remainder,
            } => (cutouts, points, witness, verified_nonempty, remainder),
        };
        // §6.2 refinement 2: drop cutouts covered by another cutout.
        // Containment between cutouts of one base only needs the extra
        // halfspaces of the candidate container. The absorption test is a
        // disjunction of deterministic predicates, so it runs LP-last:
        // any existing cutout that covers the candidate LP-free absorbs
        // it before other cutouts' ambiguous terms pay their solver
        // calls; only then do the undecided candidates solve.
        if self.redundant_cutout_removal {
            let mut pending: SmallVec<[(usize, Undecided); 8]> = SmallVec::new();
            let absorbed = cutouts.iter().enumerate().any(|(i, c)| {
                self.cover_fast_pass(ctx, base, &cutout.halfspaces, &c.halfspaces)
                    .unwrap_or_else(|undecided| {
                        pending.push((i, undecided));
                        false
                    })
            }) || pending.iter().any(|(i, undecided)| {
                let container = &cutouts[*i].halfspaces;
                self.cover_lp_pass(ctx, base, &cutout.halfspaces, container, undecided)
            });
            if absorbed {
                return;
            }
            // The cached coverage worklist survives removals as a
            // **retained-prefix** decomposition: a removed cutout is
            // covered by the incoming one, which is appended at the end
            // of the list — inside the *unprocessed* suffix of any cached
            // decomposition — so pieces that already subtracted a removed
            // prefix cutout only anticipate a subtraction the suffix
            // replay performs anyway (`removed ⊆ incoming`). A removal
            // below the processed watermark therefore just lowers the
            // watermark; a removal at or past it leaves the cached pieces
            // untouched. The containment queries run in the exact order
            // the wholesale `retain` used to issue them.
            let mut i = 0;
            while i < cutouts.len() {
                if self.covers(ctx, base, &cutouts[i].halfspaces, &cutout.halfspaces) {
                    cutouts.remove(i);
                    if let Some((processed, _)) = remainder {
                        if i < *processed {
                            *processed -= 1;
                        }
                    }
                } else {
                    i += 1;
                }
            }
        }
        points.retain(|&mut p| !cutout.contains(base.probe(p)));
        // The witness stays valid only while its margin ball lands wholly
        // inside an *outside-the-cutout* cell of the new cutout's
        // subdivision; anything else (straddled boundary, covered) could
        // make a re-run coverage check — which tests decomposition pieces
        // individually — reach a different verdict, so the witness is
        // dropped and the next emptiness query runs for real.
        if witness
            .as_ref()
            .is_some_and(|w| cell_placement(&cutout, w) != Some(true))
        {
            *witness = None;
        }
        cutouts.push(cutout);
        *verified = false;
    }

    /// True iff the region is empty: the cutouts cover the base up to
    /// measure zero. Skips the coverage check whenever a relevance point,
    /// a margin-certified witness, or a cached verdict proves
    /// non-emptiness; a coverage verdict of "covered" marks the state
    /// [`CutoutRegion::Empty`].
    ///
    /// The coverage check itself is **incremental**: the worklist
    /// decomposition left by the last check is cached in the region state
    /// and — as long as the cutout list only grew by appends since — the
    /// check resumes there and subtracts only the new cutouts. The
    /// worklist loop processes one cutout at a time, so the resumed run
    /// issues exactly the queries a from-scratch run would issue for the
    /// suffix, and every skipped prefix query is a bit-identical repeat
    /// of a deterministic predicate: verdicts (and therefore retained
    /// plans) are unchanged, only the duplicate LP volume disappears.
    ///
    /// Each cutout is subtracted through its extra rows alone. Every
    /// worklist piece lies inside the base and carries its rows verbatim,
    /// so a base row could only yield a piece with no interior; the
    /// worklist skips such rows anyway (see the `difference` module), and
    /// leaving them out spares a copy of the base per cutout.
    #[inline]
    pub fn region_is_empty(
        &self,
        ctx: &LpCtx,
        base: &RegionBase,
        state: &mut CutoutRegion,
    ) -> bool {
        let covered = match state {
            CutoutRegion::Empty => return true,
            CutoutRegion::Full => return false,
            CutoutRegion::Partial {
                cutouts,
                points,
                witness,
                verified_nonempty,
                remainder,
            } => {
                if self.relevance_points && !points.is_empty() {
                    // A surviving relevance point proves non-emptiness.
                    self.emptiness_skipped.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                if witness.is_some() {
                    // The interior witness of the last coverage check is
                    // uncovered by every cutout added since.
                    self.emptiness_skipped.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                if *verified_nonempty {
                    // Nothing was subtracted since the last check.
                    self.emptiness_skipped.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                self.emptiness_checks.fetch_add(1, Ordering::Relaxed);
                // Resume the cached worklist, or start from the base
                // (optimizer bases are boxes and simplices — never empty,
                // but the entry check mirrors the standalone coverage
                // routine).
                let (processed, mut remaining) = match remainder.take() {
                    Some((done, pieces)) => (done, pieces),
                    None if base.polytope.is_empty_with_fastpath(
                        ctx,
                        &[],
                        FastPathSite::Coverage,
                    ) =>
                    {
                        (cutouts.len(), Vec::new())
                    }
                    None => (
                        0,
                        vec![crate::difference::CoveragePiece::new(
                            (*base.polytope).clone(),
                        )],
                    ),
                };
                for c in &cutouts[processed..] {
                    if remaining.is_empty() {
                        break;
                    }
                    remaining = crate::difference::subtract_cutout_from_worklist(
                        ctx,
                        remaining,
                        &c.halfspaces,
                    );
                }
                if remaining.is_empty() {
                    true
                } else {
                    // Trust the witness for future skips only if its ball
                    // sits wholly inside one cell of every existing
                    // cutout's subdivision (see `cell_placement`): the
                    // worklist's miss fast path lets a piece penetrate a
                    // cutout by a sub-tolerance cap, so creation-time
                    // placement must be re-certified against all cutouts.
                    let w = crate::difference::worklist_witness(ctx, &mut remaining);
                    *witness =
                        w.filter(|w| cutouts.iter().all(|c| cell_placement(c, w) == Some(true)));
                    *verified_nonempty = true;
                    *remainder = Some((cutouts.len(), remaining));
                    false
                }
            }
        };
        if covered {
            *state = CutoutRegion::Empty;
        }
        covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_lp::LpCtx;

    fn interval_base(lo: f64, hi: f64) -> RegionBase {
        RegionBase::new(
            Arc::new(Polytope::from_box(&[lo], &[hi])),
            vec![vec![lo], vec![hi]],
            vec![vec![lo], vec![hi], vec![(lo + hi) / 2.0]],
            vec![(lo + hi) / 2.0],
        )
    }

    fn engine() -> RegionEngine {
        RegionEngine::new(true, true, true)
    }

    fn hs(a: f64, b: f64) -> Halfspace {
        Halfspace::proper(vec![a], b)
    }

    #[test]
    fn full_region_is_nonempty_and_contains() {
        let ctx = LpCtx::new();
        let base = interval_base(0.0, 1.0);
        let eng = engine();
        let mut state = CutoutRegion::Full;
        assert!(!eng.region_is_empty(&ctx, &base, &mut state));
        assert!(state.contains(&[0.5]));
    }

    #[test]
    fn cutouts_cover_base_jointly() {
        let ctx = LpCtx::new();
        let base = interval_base(0.0, 1.0);
        let eng = engine();
        let mut state = CutoutRegion::Full;
        // Cut out [0, 0.6]: region keeps (0.6, 1].
        eng.add_cutout(
            &ctx,
            &base,
            &mut state,
            HalfspaceList::from_iter([hs(1.0, 0.6)]),
            false,
        );
        assert!(!eng.region_is_empty(&ctx, &base, &mut state));
        assert!(!state.contains(&[0.3]));
        assert!(state.contains(&[0.9]));
        // Cut out [0.5, 1]: nothing remains.
        eng.add_cutout(
            &ctx,
            &base,
            &mut state,
            HalfspaceList::from_iter([hs(-1.0, -0.5)]),
            false,
        );
        assert!(eng.region_is_empty(&ctx, &base, &mut state));
        assert!(state.is_marked_empty());
    }

    #[test]
    fn relevance_points_skip_coverage_checks() {
        let ctx = LpCtx::new();
        let base = interval_base(0.0, 1.0);
        let eng = engine();
        let mut state = CutoutRegion::Full;
        eng.add_cutout(
            &ctx,
            &base,
            &mut state,
            HalfspaceList::from_iter([hs(1.0, 0.25)]),
            false,
        );
        // Probes at 0.5 and 1.0 survive, so no coverage check runs.
        assert!(!eng.region_is_empty(&ctx, &base, &mut state));
        let (checks, skipped) = eng.emptiness_counters();
        assert_eq!(checks, 0);
        assert!(skipped > 0);
    }

    #[test]
    fn empty_intersection_cutout_is_dropped() {
        let ctx = LpCtx::new();
        let base = interval_base(0.0, 1.0);
        let eng = engine();
        let mut state = CutoutRegion::Full;
        // x ≥ 0.8 and x ≤ 0.2 — empty within the base.
        eng.add_cutout(
            &ctx,
            &base,
            &mut state,
            HalfspaceList::from_iter([hs(-1.0, -0.8), hs(1.0, 0.2)]),
            false,
        );
        assert!(matches!(state, CutoutRegion::Full));
    }

    #[test]
    fn redundant_cutout_is_absorbed() {
        let ctx = LpCtx::new();
        let base = interval_base(0.0, 1.0);
        let eng = engine();
        let mut state = CutoutRegion::Full;
        eng.add_cutout(
            &ctx,
            &base,
            &mut state,
            HalfspaceList::from_iter([hs(1.0, 0.6)]),
            false,
        );
        // Covered by the first cutout: must not be stored.
        eng.add_cutout(
            &ctx,
            &base,
            &mut state,
            HalfspaceList::from_iter([hs(1.0, 0.3)]),
            false,
        );
        assert_eq!(state.cutouts().len(), 1);
    }

    #[test]
    fn removal_keeps_retained_prefix_worklist() {
        let ctx = LpCtx::new();
        let base = interval_base(0.0, 1.0);
        // No relevance points, so the emptiness checks below run the
        // coverage worklist for real and cache a remainder.
        let eng = RegionEngine::new(false, true, true);
        let mut state = CutoutRegion::Full;
        // A = [0, 0.3], B = [0.8, 1]: the gap (0.3, 0.8) stays relevant.
        eng.add_cutout(
            &ctx,
            &base,
            &mut state,
            HalfspaceList::from_iter([hs(1.0, 0.3)]),
            false,
        );
        eng.add_cutout(
            &ctx,
            &base,
            &mut state,
            HalfspaceList::from_iter([hs(-1.0, -0.8)]),
            false,
        );
        assert!(!eng.region_is_empty(&ctx, &base, &mut state));
        match &state {
            CutoutRegion::Partial { remainder, .. } => {
                let (processed, pieces) = remainder.as_ref().expect("worklist cached");
                assert_eq!(*processed, 2);
                assert!(!pieces.is_empty());
            }
            _ => panic!("expected a partial region"),
        }
        // C = [0, 0.45] covers A — a removal *below* the processed
        // watermark. The cached worklist must survive with the watermark
        // lowered, not be invalidated wholesale.
        eng.add_cutout(
            &ctx,
            &base,
            &mut state,
            HalfspaceList::from_iter([hs(1.0, 0.45)]),
            false,
        );
        match &state {
            CutoutRegion::Partial {
                cutouts, remainder, ..
            } => {
                assert_eq!(cutouts.len(), 2, "A replaced by C alongside B");
                let (processed, pieces) = remainder
                    .as_ref()
                    .expect("worklist retained across the removal");
                assert_eq!(*processed, 1);
                assert!(!pieces.is_empty());
            }
            _ => panic!("expected a partial region"),
        }
        // D = [0.45, 1] covers B and closes the gap; resuming the
        // retained worklist must reach the from-scratch verdict: covered.
        eng.add_cutout(
            &ctx,
            &base,
            &mut state,
            HalfspaceList::from_iter([hs(-1.0, -0.45)]),
            false,
        );
        assert!(eng.region_is_empty(&ctx, &base, &mut state));
        assert!(state.is_marked_empty());
    }

    #[test]
    fn exact_interval_mode_matches_lp_mode() {
        // A 1-D cutout script decided by the interval fast paths reaches
        // the verdicts the LP would. The fast verdicts themselves are
        // compared with the LP's by `vertex_enum_proptest`'s
        // `interval_redundancy_fast_verdicts_agree_with_lp` and
        // `emptiness_fast_path_agrees_with_lp`.
        let ctx = LpCtx::new();
        let base = interval_base(0.0, 1.0);
        let eng = engine();
        let mut state = CutoutRegion::Full;
        eng.add_cutout(
            &ctx,
            &base,
            &mut state,
            HalfspaceList::from_iter([hs(1.0, 0.5), hs(-1.0, -0.1)]),
            false,
        );
        assert!(!eng.region_is_empty(&ctx, &base, &mut state));
        eng.add_cutout(
            &ctx,
            &base,
            &mut state,
            HalfspaceList::from_iter([hs(-1.0, -0.4)]),
            false,
        );
        eng.add_cutout(
            &ctx,
            &base,
            &mut state,
            HalfspaceList::from_iter([hs(1.0, 0.15)]),
            false,
        );
        assert!(eng.region_is_empty(&ctx, &base, &mut state));
    }
}
