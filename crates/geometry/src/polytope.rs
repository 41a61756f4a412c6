//! LP-backed predicates and transformations on [`Polytope`], plus exact
//! one- and two-dimensional fast paths that answer decisive queries
//! without an LP.

use crate::{
    Halfspace, Polytope, EMPTY_MARGIN, FASTPATH_MARGIN, INTERIOR_TOL, TOL, WELL_CONDITIONED_MIN_DET,
};
use mpq_lp::{FastPathSite, LpCtx, LpOutcome};
use smallvec::SmallVec;

/// Stack-allocated objective buffer (parameter dimensions are tiny).
type ObjBuf = SmallVec<[f64; 8]>;

/// Row cap for the 2-D exact emptiness fast path: beyond it the O(k³)
/// active-triple enumeration stops beating the simplex solver, and the
/// optimizer's piece regions and cutouts stay far below it anyway.
const QUICK2D_MAX_ROWS: usize = 24;

/// Candidate-feasibility slack for exactly enumerated active-set points:
/// a true vertex satisfies its constraints exactly, so anything beyond
/// solve round-off is a genuine violation.
const QUICK2D_FEAS_EPS: f64 = 1e-9;

/// Exact 2-D constraint-redundancy test for [`Polytope::remove_redundant`]:
/// decides whether `kept[i]` is implied by the other rows by enumerating
/// the vertices of the region they define (all pairwise boundary
/// intersections, feasibility-filtered) and comparing the maximum of the
/// candidate's normal against its offset.
///
/// Sound on both sides with the usual two-bound discipline: the `-TOL`
/// inclusive maximum never misses a true vertex (certifies "redundant"),
/// the exactly-feasible maximum only uses true region points (certifies
/// "not redundant"), and verdicts within [`FASTPATH_MARGIN`] of the
/// threshold fall back to the LP. The enumeration requires the region to
/// be bounded, which is certified by exact axis-aligned bounds on both
/// coordinates — present in every optimizer region (parameter boxes and
/// grid cells); unbounded or oversized shapes return `None`.
fn quick_redundant_2d(kept: &[Halfspace], i: usize) -> Option<bool> {
    if kept[0].dim() != 2 || kept.len() > QUICK2D_MAX_ROWS + 1 {
        return None;
    }
    let rows: SmallVec<[&Halfspace; QUICK2D_MAX_ROWS]> = kept
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .map(|(_, h)| h)
        .collect();
    let mut bounded = [[false; 2]; 2];
    for r in &rows {
        let n = r.normal();
        for axis in 0..2 {
            if n[axis] == 1.0 && n[1 - axis] == 0.0 {
                bounded[axis][0] = true;
            } else if n[axis] == -1.0 && n[1 - axis] == 0.0 {
                bounded[axis][1] = true;
            }
        }
    }
    if !bounded.iter().all(|b| b[0] && b[1]) {
        return None;
    }
    let w = kept[i].normal();
    let threshold = kept[i].offset() + TOL;
    let mut upper: Option<f64> = None;
    let mut lower: Option<f64> = None;
    for a in 0..rows.len() {
        for b in (a + 1)..rows.len() {
            let (na, nb) = (rows[a].normal(), rows[b].normal());
            let det = na[0] * nb[1] - na[1] * nb[0];
            if det == 0.0 {
                // Exactly parallel: no crossing to enumerate (a vertex on
                // such a pair is also a crossing of better-conditioned
                // rows).
                continue;
            }
            if det.abs() < WELL_CONDITIONED_MIN_DET {
                // Near-parallel: the crossing solve loses up to
                // ~1e-16/det of accuracy, so the candidate (possibly the
                // true maximum vertex — a thin wedge's tip) could fail
                // the feasibility filter and silently understate `upper`.
                // No sound verdict without it: leave the query to the LP.
                return None;
            }
            let p = [
                (rows[a].offset() * nb[1] - rows[b].offset() * na[1]) / det,
                (na[0] * rows[b].offset() - nb[0] * rows[a].offset()) / det,
            ];
            let min_slack = rows
                .iter()
                .map(|r| r.slack(&p))
                .fold(f64::INFINITY, f64::min);
            if min_slack >= -TOL {
                let v = w[0] * p[0] + w[1] * p[1];
                upper = Some(upper.map_or(v, |u| u.max(v)));
                if min_slack >= 0.0 {
                    lower = Some(lower.map_or(v, |l| l.max(v)));
                }
            }
        }
    }
    match upper {
        // No feasible vertex of a bounded region: empty within tolerance,
        // so the candidate is vacuously implied (the LP is infeasible).
        None => Some(true),
        Some(u) if u <= threshold - FASTPATH_MARGIN => Some(true),
        _ => match lower {
            Some(l) if l > threshold + FASTPATH_MARGIN => Some(false),
            _ => None,
        },
    }
}

/// A 2-D row `a · x ≤ b` stored as `[a₀, a₁, b]`.
type Row2 = [f64; 3];

/// `b − a · x` of a compact row: the same arithmetic as
/// [`Halfspace::slack`], so verdicts match the slice form.
#[inline]
fn slack2(r: &Row2, x: [f64; 2]) -> f64 {
    r[2] - (r[0] * x[0] + r[1] * x[1])
}

/// Vertex capacity of [`clipped_vertex_centroid`]'s polygon buffers: each
/// clip of a convex polygon adds at most one vertex, so the box plus 12
/// rows needs 16; round-off that splits a near-degenerate edge gives up.
const CLIP_MAX_VERTICES: usize = 24;

/// Vertex centroid of the box `[lo, hi]` clipped by `rows`
/// (Sutherland–Hodgman, one row at a time). `None` when fewer than three
/// vertices survive or the buffer would overflow. The centroid is only a
/// candidate point: callers certify it by its slack on every row.
fn clipped_vertex_centroid(lo: [f64; 2], hi: [f64; 2], rows: &[Row2]) -> Option<[f64; 2]> {
    let mut poly = [[0.0; 2]; CLIP_MAX_VERTICES];
    let mut next = [[0.0; 2]; CLIP_MAX_VERTICES];
    poly[..4].copy_from_slice(&[
        [lo[0], lo[1]],
        [hi[0], lo[1]],
        [hi[0], hi[1]],
        [lo[0], hi[1]],
    ]);
    let mut len = 4;
    for r in rows {
        let mut out = 0;
        let mut push = |p: [f64; 2]| {
            if out == CLIP_MAX_VERTICES {
                return false;
            }
            next[out] = p;
            out += 1;
            true
        };
        for i in 0..len {
            let (p, q) = (poly[i], poly[(i + 1) % len]);
            let (sp, sq) = (slack2(r, p), slack2(r, q));
            if sp >= 0.0 && !push(p) {
                return None;
            }
            if (sp >= 0.0) != (sq >= 0.0) {
                let t = sp / (sp - sq);
                if !push([p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])]) {
                    return None;
                }
            }
        }
        if out < 3 {
            return None;
        }
        std::mem::swap(&mut poly, &mut next);
        len = out;
    }
    let (sx, sy) = poly[..len]
        .iter()
        .fold((0.0, 0.0), |(x, y), p| (x + p[0], y + p[1]));
    Some([sx / len as f64, sy / len as f64])
}

/// Solves the 3×3 system `m · x = b` by Gaussian elimination with partial
/// pivoting; `None` when (numerically) singular.
#[inline]
fn solve3(mut m: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot = (col..3)
            .max_by(|&i, &j| m[i][col].abs().partial_cmp(&m[j][col].abs()).unwrap())
            .unwrap();
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..3 {
            let f = m[row][col] / m[col][col];
            if f != 0.0 {
                #[allow(clippy::needless_range_loop)] // m[row] and m[col] alias
                for k in col..3 {
                    m[row][k] -= f * m[col][k];
                }
                b[row] -= f * b[col];
            }
        }
    }
    let mut x = [0.0; 3];
    for row in (0..3).rev() {
        let mut v = b[row];
        for k in (row + 1)..3 {
            v -= m[row][k] * x[k];
        }
        x[row] = v / m[row][row];
    }
    Some(x)
}

impl Polytope {
    /// Exact interval `[lo, hi]` of a one-dimensional polytope intersected
    /// with `extra` (normals are unit, so every constraint is `x ≤ b` or
    /// `−x ≤ b` exactly; unbounded sides are infinite).
    ///
    /// # Panics
    /// Debug-asserts `dim == 1`.
    #[inline]
    pub(crate) fn interval_1d(&self, extra: &[Halfspace]) -> (f64, f64) {
        debug_assert_eq!(self.dim(), 1);
        let mut lo = f64::NEG_INFINITY;
        let mut hi = f64::INFINITY;
        for h in self.halfspaces.iter().chain(extra) {
            if h.normal()[0] > 0.0 {
                hi = hi.min(h.offset());
            } else {
                lo = lo.max(-h.offset());
            }
        }
        (lo, hi)
    }

    /// Exact fast path for [`Polytope::is_empty_with`]: `Some(verdict)`
    /// when the verdict is certain without an LP, `None` when the query is
    /// unsupported (dimension > 2, or too many distinct constraints in two
    /// dimensions) or the inscribed radius sits within the ambiguous band
    /// around [`INTERIOR_TOL`].
    ///
    /// Both arms answer "empty" with a tight `1e-9` margin:
    /// the interval arithmetic of one dimension is exact, and so are the
    /// opposite-normal slab test and the well-conditioned active triples
    /// of the 2-D arm (`quick_is_empty_2d`), so exactly-adjacent regions
    /// (radius 0), the dominant case in piecewise cost algebra and the
    /// coverage worklist, are answered for free.
    #[inline]
    pub fn quick_is_empty_with(&self, extra: &[Halfspace]) -> Option<bool> {
        if self.is_trivially_empty() {
            return Some(true);
        }
        match self.dim() {
            1 => {
                let (lo, hi) = self.interval_1d(extra);
                let radius = (hi - lo) / 2.0; // may be infinite (unbounded sides)
                if radius <= INTERIOR_TOL - EMPTY_MARGIN {
                    Some(true)
                } else if radius > INTERIOR_TOL + FASTPATH_MARGIN {
                    Some(false)
                } else {
                    None
                }
            }
            2 => self.quick_is_empty_2d(extra),
            _ => None,
        }
    }

    /// The two-dimensional arm of [`Polytope::quick_is_empty_with`],
    /// answering `self ∩ extra` interior-emptiness queries exactly, in
    /// stages of rising cost:
    ///
    /// 1. five interior probes of the exact axis-aligned bounding box: a
    ///    probe whose slack clears `INTERIOR_TOL + FASTPATH_MARGIN` on
    ///    every row certifies "non-empty" in O(k);
    /// 2. constraints are deduplicated syntactically — aligned piece
    ///    regions share most rows, so the effective row count is small;
    /// 3. any pair of rows with **exactly negated** unit normals bounds
    ///    the inscribed radius by half the slab width. Grid-aligned
    ///    geometry produces such pairs for every cell boundary and every
    ///    Kuhn diagonal (the two triangle orientations of a cell state the
    ///    diagonal with exactly negated coefficients), and the coverage
    ///    worklist cuts each piece with a row's exact
    ///    [`Halfspace::complement`] — so adjacent and identical-boundary
    ///    regions (width ≤ 0) resolve for free with a tight
    ///    exact-arithmetic margin;
    /// 4. the bounding box is clipped by the deduplicated rows in O(k·v)
    ///    and the clipped polygon's vertex centroid is tested like a
    ///    probe — the same exact "non-empty" certificate, which settles
    ///    almost every non-empty query the box probes miss;
    /// 5. otherwise the exact Chebyshev radius is enumerated: the optimum
    ///    of `max t  s.t.  aᵢ·x + t ≤ bᵢ, t ≤ 1` (the LP behind
    ///    [`Polytope::is_empty_with`]) is attained where three constraints
    ///    are active, so all O(k³) triples are solved and the best
    ///    feasible candidate is the radius. Any feasible candidate with
    ///    `t = r` certifies an inscribed ball of radius `r − ε` (sound
    ///    "non-empty"); the *maximum* is sound for "empty" only when the
    ///    region is bounded — guaranteed here by requiring exact
    ///    axis-aligned bounds on both coordinates, which every optimizer
    ///    region carries (parameter boxes and grid cells).
    ///
    /// Conditioning is checked where a vertex is solved for: a triple
    /// whose determinant is below [`WELL_CONDITIONED_MIN_DET`] may
    /// be solved inaccurately, so it blocks the "empty" verdict. Non-empty
    /// verdicts inside the [`crate::VERDICT_MARGIN`] band above
    /// [`INTERIOR_TOL`] (the probes keep [`FASTPATH_MARGIN`]), and empty
    /// verdicts inside the [`crate::EMPTY_MARGIN`] band below it, are left
    /// to the LP (`None`).
    fn quick_is_empty_2d(&self, extra: &[Halfspace]) -> Option<bool> {
        debug_assert_eq!(self.dim(), 2);
        // Every stage reads the rows as compact `[a₀, a₁, b]` copies: one
        // pass up front, then tight loops without slice indirection.
        let all: SmallVec<[Row2; 32]> = self
            .halfspaces
            .iter()
            .chain(extra)
            .map(|h| {
                let a = h.normal();
                [a[0], a[1], h.offset()]
            })
            .collect();
        // Cheap first pass over the raw (undeduplicated — duplicates do
        // not change slack minima or bounds) rows: exact axis bounds, and
        // bounding-box interior probes. Normals are unit vectors, so
        // axis-aligned rows have coefficients exactly ±1, and a probe
        // whose minimum slack clears the conservative bar is an
        // inscribed-ball certificate — the dominant non-empty case for
        // genuinely overlapping aligned regions, answered in O(k).
        let mut lo = [f64::NEG_INFINITY; 2];
        let mut hi = [f64::INFINITY; 2];
        for r in &all {
            for axis in 0..2 {
                if r[axis] == 1.0 && r[1 - axis] == 0.0 {
                    hi[axis] = hi[axis].min(r[2]);
                } else if r[axis] == -1.0 && r[1 - axis] == 0.0 {
                    lo[axis] = lo[axis].max(-r[2]);
                }
            }
        }
        let is_bounded =
            lo[0].is_finite() && lo[1].is_finite() && hi[0].is_finite() && hi[1].is_finite();
        let bar = INTERIOR_TOL + FASTPATH_MARGIN;
        // Probes cannot clear the bar when the box itself is thinner than
        // it (a probe's slack is capped by its distance to the box rows),
        // so sliver queries skip straight to the exact machinery.
        if is_bounded && (hi[0] - lo[0]).min(hi[1] - lo[1]) > 2.0 * bar {
            let c = [(lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0];
            let q = [(hi[0] - lo[0]) / 4.0, (hi[1] - lo[1]) / 4.0];
            'probe: for probe in [
                c,
                [c[0] - q[0], c[1] - q[1]],
                [c[0] - q[0], c[1] + q[1]],
                [c[0] + q[0], c[1] - q[1]],
                [c[0] + q[0], c[1] + q[1]],
            ] {
                if all.iter().any(|r| slack2(r, probe) <= bar) {
                    continue 'probe;
                }
                return Some(false);
            }
        }
        // The heavier exact machinery works on deduplicated rows (aligned
        // piece regions share most rows, so the effective count is small).
        let mut rows: SmallVec<[Row2; 16]> = SmallVec::new();
        for h in &all {
            if !rows.iter().any(|r| r == h) {
                if rows.len() == QUICK2D_MAX_ROWS {
                    return None;
                }
                rows.push(*h);
            }
        }
        // Opposite-normal slab test (exact): aᵢ = −aⱼ forces
        // 2t ≤ bᵢ + bⱼ in the Chebyshev LP.
        for (i, a) in rows.iter().enumerate() {
            for b in &rows[i + 1..] {
                if a[0] == -b[0]
                    && a[1] == -b[1]
                    && (a[2] + b[2]) / 2.0 <= INTERIOR_TOL - EMPTY_MARGIN
                {
                    return Some(true);
                }
            }
        }
        // The O(k³) triple scan below stops beating the LP beyond 12 rows.
        let n = rows.len();
        if n > 12 {
            return None;
        }
        // Clipped-centroid certificate: the vertex centroid of the clipped
        // polygon sits inside it, usually well away from every edge, so a
        // centroid slack clearing the probe bar proves an inscribed ball
        // in O(k·v) — the verdict the triple scan below would reach in
        // O(k³) for almost every non-empty region.
        if is_bounded {
            if let Some(c) = clipped_vertex_centroid(lo, hi, &rows) {
                if rows.iter().all(|r| slack2(r, c) > bar) {
                    return Some(false);
                }
            }
        }
        // Active-triple Chebyshev enumeration, for the shapes the probes
        // miss: the optimum of `max t s.t. aᵢ·x + t ≤ bᵢ, t ≤ 1` (the LP
        // behind `is_empty_with`) is attained where three constraints are
        // active. A feasible candidate clearing the bar certifies
        // non-emptiness immediately, however it was solved (its slacks
        // are checked directly); the full maximum is only needed for the
        // deeply infeasible empty verdicts.
        let nonempty_bar = INTERIOR_TOL + crate::VERDICT_MARGIN;
        let mut best: Option<f64> = None;
        // Set when a triple is ill-conditioned: its solve may be off by
        // far more than round-off, so the enumerated maximum may miss the
        // true optimum and no empty verdict may be taken.
        let mut missed_triple = false;
        // Index n stands for the radius cap `t ≤ 1` of the Chebyshev LP.
        let row3 = |i: usize| -> ([f64; 3], f64) {
            if i == n {
                ([0.0, 0.0, 1.0], 1.0)
            } else {
                let r = rows[i];
                ([r[0], r[1], 1.0], r[2])
            }
        };
        for i in 0..=n {
            for j in (i + 1)..=n {
                for k in (j + 1)..=n {
                    let (ri, bi) = row3(i);
                    let (rj, bj) = row3(j);
                    let (rk, bk) = row3(k);
                    // An exactly singular triple has no unique vertex and
                    // is safe to skip: any optimum on such a dependent
                    // face is also attained at an independent triple (the
                    // region is bounded).
                    let det3 = ri[0] * (rj[1] * rk[2] - rj[2] * rk[1])
                        - ri[1] * (rj[0] * rk[2] - rj[2] * rk[0])
                        + ri[2] * (rj[0] * rk[1] - rj[1] * rk[0]);
                    if det3 == 0.0 {
                        continue;
                    }
                    missed_triple |= det3.abs() < WELL_CONDITIONED_MIN_DET;
                    let Some([x0, x1, t]) = solve3([ri, rj, rk], [bi, bj, bk]) else {
                        missed_triple = true;
                        continue;
                    };
                    if best.is_some_and(|b| t <= b) {
                        continue;
                    }
                    let feasible = t <= 1.0 + QUICK2D_FEAS_EPS
                        && rows
                            .iter()
                            .all(|r| slack2(r, [x0, x1]) - t >= -QUICK2D_FEAS_EPS);
                    if feasible {
                        // A feasible candidate with a decisively large
                        // radius certifies an inscribed ball regardless of
                        // boundedness.
                        if t > nonempty_bar {
                            return Some(false);
                        }
                        best = Some(t);
                    }
                }
            }
        }
        match best {
            // The empty verdict needs the enumerated maximum to be the
            // true optimum: bounded regions only (the `max t` LP is always
            // feasible — `t` is free downward — and attains its optimum at
            // an active triple when `x` is bounded), with every triple
            // well-conditioned.
            Some(r) if is_bounded && !missed_triple && r <= INTERIOR_TOL - EMPTY_MARGIN => {
                Some(true)
            }
            _ => None,
        }
    }

    /// [`Polytope::is_empty_with`] behind the exact fast path: only
    /// ambiguous or unsupported queries reach the LP solver. The verdict
    /// (LP-free or fallback) is recorded under `site` in the context's
    /// [`mpq_lp::FastPathBreakdown`].
    #[inline]
    pub fn is_empty_with_fastpath(
        &self,
        ctx: &LpCtx,
        extra: &[Halfspace],
        site: FastPathSite,
    ) -> bool {
        match self.quick_is_empty_with(extra) {
            Some(verdict) => {
                ctx.fastpath_hit(site);
                verdict
            }
            None => {
                ctx.fastpath_fallback(site);
                self.is_empty_with(ctx, extra)
            }
        }
    }

    /// True iff `self ∩ other` has empty interior, without materialising
    /// the intersection and — in one and two dimensions — usually without
    /// an LP (grid-aligned cross pairs resolve through the exact
    /// slab/interval tests).
    #[inline]
    pub fn intersection_is_empty(&self, ctx: &LpCtx, other: &Polytope, site: FastPathSite) -> bool {
        if self.is_trivially_empty() || other.is_trivially_empty() {
            ctx.fastpath_hit(site);
            return true;
        }
        self.is_empty_with_fastpath(ctx, other.halfspaces(), site)
    }

    /// Intersection of two polytopes, skipping constraints of `other` that
    /// are exactly present in `self` (piecewise cost algebra intersects
    /// many regions sharing identical rows; duplicates only slow every
    /// downstream predicate).
    pub fn intersect_dedup(&self, other: &Polytope) -> Polytope {
        debug_assert_eq!(self.dim(), other.dim());
        let mut out = self.clone();
        for h in other.halfspaces() {
            if !out.halfspaces.contains(h) {
                out.halfspaces.push(h.clone());
            }
        }
        out.trivially_empty |= other.trivially_empty;
        out
    }

    /// Maximizes `w · x` over `self ∩ extra` without materialising the
    /// intersection — the hot predicate behind cutout-redundancy tests.
    pub fn max_linear_with(&self, ctx: &LpCtx, w: &[f64], extra: &[Halfspace]) -> LpOutcome {
        debug_assert_eq!(w.len(), self.dim());
        if self.is_trivially_empty() {
            return LpOutcome::Infeasible;
        }
        ctx.solve_staged(w, |stage| {
            for h in self.halfspaces.iter().chain(extra) {
                stage.push_row(h.normal(), h.offset());
            }
        })
    }

    /// True iff `self ∩ extra` has empty interior — no ball of radius
    /// greater than [`INTERIOR_TOL`] fits inside, see the crate-level
    /// emptiness discussion — without materialising the intersection.
    ///
    /// Implemented as a Chebyshev-radius LP: maximize `t` subject to
    /// `aᵢ · x + t ≤ bᵢ` (the normals are unit vectors) and `t ≤ 1` so the
    /// objective stays bounded on unbounded polytopes.
    pub fn is_empty_with(&self, ctx: &LpCtx, extra: &[Halfspace]) -> bool {
        if self.is_trivially_empty() {
            return true;
        }
        if self.halfspaces.is_empty() && extra.is_empty() {
            return false;
        }
        let dim = self.dim();
        // Variables: x (dim entries) followed by the radius t.
        let mut objective: ObjBuf = std::iter::repeat_n(0.0, dim + 1).collect();
        objective[dim] = 1.0;
        let outcome = ctx.solve_staged(&objective, |stage| {
            for h in self.halfspaces.iter().chain(extra) {
                stage.push_row_aug(h.normal(), 1.0, h.offset());
            }
            // Cap the radius so the objective stays bounded.
            let zeros: ObjBuf = std::iter::repeat_n(0.0, dim).collect();
            stage.push_row_aug(&zeros, 1.0, 1.0);
        });
        match outcome {
            LpOutcome::Infeasible => true,
            LpOutcome::Unbounded => false,
            LpOutcome::Optimal(sol) => sol.value <= INTERIOR_TOL,
        }
    }

    /// The Chebyshev centre: a point maximising the radius of an inscribed
    /// ball (radius capped at `1e6` to stay bounded). Returns `None` for
    /// empty polytopes.
    pub fn chebyshev_center(&self, ctx: &LpCtx) -> Option<(Vec<f64>, f64)> {
        if self.is_trivially_empty() {
            return None;
        }
        let dim = self.dim();
        if self.halfspaces.is_empty() {
            return Some((vec![0.0; dim], 1e6));
        }
        let mut objective: ObjBuf = std::iter::repeat_n(0.0, dim + 1).collect();
        objective[dim] = 1.0;
        let outcome = ctx.solve_staged(&objective, |stage| {
            for h in &self.halfspaces {
                stage.push_row_aug(h.normal(), 1.0, h.offset());
            }
            let zeros: ObjBuf = std::iter::repeat_n(0.0, dim).collect();
            stage.push_row_aug(&zeros, 1.0, 1e6); // cap the radius
            stage.push_row_aug(&zeros, -1.0, 0.0); // radius >= 0
        });
        match outcome {
            LpOutcome::Optimal(mut sol) => {
                let r = sol.x.pop().expect("radius variable present");
                Some((sol.x, r))
            }
            _ => None,
        }
    }

    /// Removes redundant constraints (the paper's first §6.2 refinement):
    /// a constraint is redundant when it is implied by the remaining ones.
    ///
    /// Uses a cheap syntactic pass (duplicate / parallel-weaker constraints)
    /// followed by one LP per surviving constraint.
    pub fn remove_redundant(&self, ctx: &LpCtx) -> Polytope {
        if self.is_trivially_empty() || self.halfspaces.len() <= 1 {
            return self.clone();
        }
        // Syntactic pass: drop constraints implied by a parallel tighter one.
        let mut kept: Vec<Halfspace> = Vec::with_capacity(self.halfspaces.len());
        for h in &self.halfspaces {
            if kept.iter().any(|k| k.implies(h)) {
                continue;
            }
            kept.retain(|k| !h.implies(k));
            kept.push(h.clone());
        }
        // One dimension is fully resolved syntactically: all normals are
        // ±1, so at most the tightest bound per direction survives, and
        // the LP pass never removes either of an opposite-direction pair
        // (maximising one over the other alone is unbounded).
        if self.dim == 1 {
            return Polytope {
                dim: self.dim,
                halfspaces: kept,
                trivially_empty: false,
            };
        }
        // LP pass: maximize the constraint's normal over the others
        // (staged directly — no intermediate polytope). Two-dimensional
        // queries try the exact vertex enumeration first; only ambiguous
        // or unsupported (unbounded-shape) queries reach the solver.
        let mut i = 0;
        while i < kept.len() && kept.len() > 1 {
            let candidate = &kept[i];
            let redundant = match quick_redundant_2d(&kept, i) {
                Some(verdict) => {
                    ctx.fastpath_hit(FastPathSite::PieceAlgebra);
                    verdict
                }
                None => {
                    ctx.fastpath_fallback(FastPathSite::PieceAlgebra);
                    let outcome = ctx.solve_staged(candidate.normal(), |stage| {
                        for (j, h) in kept.iter().enumerate() {
                            if j != i {
                                stage.push_row(h.normal(), h.offset());
                            }
                        }
                    });
                    match outcome {
                        LpOutcome::Optimal(sol) => sol.value <= candidate.offset() + TOL,
                        LpOutcome::Unbounded => false,
                        LpOutcome::Infeasible => true,
                    }
                }
            };
            if redundant {
                kept.remove(i);
            } else {
                i += 1;
            }
        }
        Polytope {
            dim: self.dim,
            halfspaces: kept,
            trivially_empty: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Polytope;

    fn ctx() -> LpCtx {
        LpCtx::new()
    }

    #[test]
    fn box_is_not_empty() {
        let p = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(!p.is_empty_with(&ctx(), &[]));
    }

    #[test]
    fn contradictory_constraints_are_empty() {
        let mut p = Polytope::from_box(&[0.0], &[1.0]);
        p.add_inequality(vec![1.0], -1.0); // x <= -1 contradicts x >= 0
        assert!(p.is_empty_with(&ctx(), &[]));
    }

    #[test]
    fn lower_dimensional_polytope_is_empty() {
        // The segment {x = 0.5} × [0, 1] inside the unit square.
        let mut p = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
        p.add_inequality(vec![1.0, 0.0], 0.5);
        p.add_inequality(vec![-1.0, 0.0], -0.5);
        assert!(p.is_empty_with(&ctx(), &[]), "segment has no interior");
    }

    #[test]
    fn chebyshev_center_of_unit_square() {
        let p = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
        let (c, r) = p.chebyshev_center(&ctx()).unwrap();
        assert!((r - 0.5).abs() < 1e-6);
        assert!((c[0] - 0.5).abs() < 1e-6 && (c[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn redundancy_elimination_keeps_geometry() {
        let ctx = ctx();
        let mut p = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
        p.add_inequality(vec![1.0, 0.0], 5.0); // implied by x <= 1
        p.add_inequality(vec![1.0, 1.0], 10.0); // implied by the box
        p.add_inequality(vec![1.0, 0.0], 1.0); // duplicate of x <= 1
        let r = p.remove_redundant(&ctx);
        assert_eq!(r.halfspaces().len(), 4, "only the box rows survive");
        // Same set: each side minus the other has no interior.
        assert!(crate::difference_is_empty(
            &ctx,
            &r,
            std::slice::from_ref(&p)
        ));
        assert!(crate::difference_is_empty(
            &ctx,
            &p,
            std::slice::from_ref(&r)
        ));
    }

    #[test]
    fn redundancy_on_unbounded_polytope() {
        let ctx = ctx();
        // x >= 0 plus a redundant x >= -1.
        let mut p = Polytope::full(1);
        p.add_inequality(vec![-1.0], 0.0);
        p.add_inequality(vec![-1.0], 1.0);
        let r = p.remove_redundant(&ctx);
        assert_eq!(r.halfspaces().len(), 1);
        assert!(r.contains_point(&[0.5]));
        assert!(!r.contains_point(&[-0.5]));
    }
}
