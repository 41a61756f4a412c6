//! Differential tests of the region engine's 2-D vertex enumeration
//! ([`RegionEngine::region_max_bounds`]) and of the 2-D emptiness fast
//! path ([`Polytope::quick_is_empty_with`],
//! [`Polytope::is_empty_with_fastpath`]) against the LP answer.
//!
//! The enumeration returns two-sided bounds on `max w·x` over
//! `base ∩ extra`:
//!
//! * `upper` never misses a true vertex (candidates are accepted with an
//!   inclusive `-TOL` slack), so the LP optimum can exceed it by at most
//!   enumeration round-off — unless a crossing of two extra boundaries
//!   was skipped or solved ill-conditioned, which the `degenerate` flag
//!   reports;
//! * `lower` only uses exactly feasible candidates, so it is always an
//!   achievable objective value.
//!
//! Randomized halfspace sets include exact duplicates of base facets,
//! exact complements (zero-width slivers), near-parallel pairs and
//! ambiguity-band offsets — the degenerate shapes the optimizer actually
//! produces.
//!
//! Interval (1-D) bases pin the redundancy fast path's verdicts
//! ([`RegionEngine::halfspace_covers_fast`]) against the LP at exact ties.
//! The LP is not the oracle everywhere: on ill-conditioned 2-D rows its
//! round-off exceeds the fast path's margin. Two queries logged from the
//! optimizer pin the fast path's verdicts there against exact rational
//! arithmetic over the same `f64` inputs.
//!
//! The same shapes also pin the coverage check's row skip: a subtracted
//! row that a piece already carries yields no piece, which is sound only
//! because `P ∩ ¬h` has no interior for every row `h` of `P`, and must
//! reach the verdicts of the subtraction that tested every row.

use mpq_geometry::{difference_is_empty, Halfspace, Polytope, RegionBase, RegionEngine};
use mpq_lp::{FastPathSite, LpCtx, LpOutcome};
use proptest::prelude::*;
use std::sync::Arc;

/// Unit-square base with its exact vertex set.
fn square_base() -> RegionBase {
    let poly = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
    let verts = vec![
        vec![0.0, 0.0],
        vec![1.0, 0.0],
        vec![0.0, 1.0],
        vec![1.0, 1.0],
    ];
    RegionBase::new(Arc::new(poly), verts.clone(), verts, vec![0.5, 0.5])
}

/// Kuhn lower-triangle base (`y ≤ x` within the unit square) with its
/// exact vertex set — the grid backend's per-simplex shape.
fn triangle_base() -> RegionBase {
    let mut poly = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
    poly.add_inequality(vec![-1.0, 1.0], 0.0); // y <= x
    let verts = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![1.0, 1.0]];
    RegionBase::new(
        Arc::new(poly),
        verts.clone(),
        verts,
        vec![2.0 / 3.0, 1.0 / 3.0],
    )
}

/// Raw halfspace ingredients: a normal picked from a pool that includes
/// axis directions, diagonals and near-parallel perturbations, plus an
/// offset pool that includes exact ties and band-width values.
fn extra_halfspace() -> impl Strategy<Value = Halfspace> {
    let normal = (0usize..8, -1.0..1.0f64);
    let offset = (0usize..6, -0.5..1.5f64);
    (normal, offset).prop_map(|((nk, nr), (ok, or))| {
        let a = match nk {
            0 => vec![1.0, 0.0],
            1 => vec![-1.0, 0.0],
            2 => vec![0.0, 1.0],
            3 => vec![0.0, -1.0],
            4 => vec![1.0, -1.0],
            5 => vec![-1.0, 1.0],
            6 => vec![1.0, 1e-6], // near-parallel to a base facet
            _ => vec![nr, 1.0 - nr.abs()],
        };
        let b = match ok {
            0 => 0.0,
            1 => 0.5,
            2 => -1e-8,      // ambiguity band
            3 => 0.5 + 1e-7, // tolerance-distance tie
            4 => -0.25,      // empty-leaning
            _ => or,
        };
        Halfspace::proper(a, b)
    })
}

fn check_bounds_against_lp(
    base: &RegionBase,
    extras: &[Halfspace],
    w: &[f64],
) -> Result<(), TestCaseError> {
    let engine = RegionEngine::new(true, true, true);
    let Some(bounds) = engine.region_max_bounds(base, extras, w) else {
        return Ok(()); // unsupported shape: nothing to compare
    };
    let ctx = LpCtx::new();
    let outcome = base.polytope().max_linear_with(&ctx, w, extras);
    match outcome {
        LpOutcome::Optimal(sol) => {
            if let Some(lower) = bounds.lower {
                // `lower` is achieved by a true region point; the LP
                // optimum cannot be decisively below it.
                prop_assert!(
                    sol.value >= lower - 1e-6,
                    "LP value {} below achievable lower bound {}",
                    sol.value,
                    lower
                );
            }
            if let Some(upper) = bounds.upper {
                if !bounds.degenerate {
                    // No candidate generator was skipped, so every true
                    // vertex was enumerated: the optimum cannot
                    // decisively exceed the upper bound.
                    prop_assert!(
                        sol.value <= upper + 1e-6,
                        "LP value {} above sound upper bound {} (extras {:?})",
                        sol.value,
                        upper,
                        extras
                    );
                }
            } else {
                // upper == None certifies emptiness; a clearly feasible
                // LP optimum contradicts it. (Tolerance-band slivers may
                // legitimately differ, hence the margin.)
                prop_assert!(
                    extras.iter().any(|e| e.slack(&sol.x) < 1e-6)
                        || base
                            .polytope()
                            .halfspaces()
                            .iter()
                            .any(|h| h.slack(&sol.x) < 1e-6),
                    "LP found interior optimum {:?} in a region certified empty",
                    sol.x
                );
            }
        }
        LpOutcome::Infeasible => {
            // The region is empty as a closed set: no exactly feasible
            // candidate may exist.
            prop_assert!(
                bounds.lower.is_none(),
                "enumeration certified point {:?} in an LP-infeasible region",
                bounds.lower
            );
        }
        LpOutcome::Unbounded => {
            // Bases are bounded boxes/triangles; unbounded cannot happen.
            prop_assert!(false, "unbounded LP over a bounded base");
        }
    }
    Ok(())
}

/// Every verdict the 2-D emptiness fast path gives — the tight
/// [`Polytope::quick_is_empty_with`] and the coverage site's
/// [`Polytope::is_empty_with_fastpath`] — must match the Chebyshev LP
/// ([`Polytope::is_empty_with`]). Queries the fast path leaves to the LP
/// have nothing to compare.
fn check_emptiness_against_lp(base: &Polytope, extras: &[Halfspace]) -> Result<(), TestCaseError> {
    let lp = base.is_empty_with(&LpCtx::new(), extras);
    if let Some(quick) = base.quick_is_empty_with(extras) {
        prop_assert_eq!(
            quick,
            lp,
            "quick_is_empty_with disagrees with the LP (extras {:?})",
            extras
        );
    }
    let ctx = LpCtx::new();
    let fast_before = ctx.fastpath_breakdown().fast[FastPathSite::Coverage as usize];
    let verdict = base.is_empty_with_fastpath(&ctx, extras, FastPathSite::Coverage);
    if ctx.fastpath_breakdown().fast[FastPathSite::Coverage as usize] > fast_before {
        prop_assert_eq!(
            verdict,
            lp,
            "coverage fast path disagrees with the LP (extras {:?})",
            extras
        );
    }
    Ok(())
}

/// The coverage check as it ran before the row skip: every row of every
/// cutout is tested against the running prefix and pushed onto it, rows
/// the piece already carries included.
fn every_row_difference_is_empty(ctx: &LpCtx, base: &Polytope, cutouts: &[Polytope]) -> bool {
    if base.is_empty_with_fastpath(ctx, &[], FastPathSite::Coverage) {
        return true;
    }
    let mut remaining = vec![base.clone()];
    for cutout in cutouts {
        if remaining.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for piece in remaining {
            if piece.is_empty_with_fastpath(ctx, cutout.halfspaces(), FastPathSite::Coverage) {
                next.push(piece);
                continue;
            }
            let mut prefix = piece;
            for h in cutout.halfspaces() {
                let comp = h.complement();
                if !prefix.is_empty_with_fastpath(
                    ctx,
                    std::slice::from_ref(&comp),
                    FastPathSite::Coverage,
                ) {
                    next.push(prefix.with(comp));
                }
                prefix.push(h.clone());
            }
        }
        remaining = next;
    }
    remaining.is_empty()
}

/// A 1-D grid cell `[lo, hi]` with its exact vertex set.
fn interval_base(lo: f64, hi: f64) -> RegionBase {
    let poly = Polytope::from_box(&[lo], &[hi]);
    let verts = vec![vec![lo], vec![hi]];
    let mid = vec![(lo + hi) / 2.0];
    let mut probes = verts.clone();
    probes.push(mid.clone());
    RegionBase::new(Arc::new(poly), verts, probes, mid)
}

/// A 1-D halfspace `±x ≤ b` whose boundary sits on a grid point (or a
/// random point), shifted by an offset from a pool of exact ties,
/// tolerance-distance ties and values inside the LP-agreement band —
/// the redundancy queries shared sub-plans produce.
fn tie_halfspace_1d() -> impl Strategy<Value = Halfspace> {
    (0usize..2, 0usize..6, 0usize..9, -0.5..1.5f64).prop_map(|(sign, ak, dk, r)| {
        let s = if sign == 0 { 1.0 } else { -1.0 };
        let anchor = [0.0, 1.0, 0.25, 0.5, 0.75, r][ak];
        let delta = [0.0, 1e-7, -1e-7, 3e-8, -3e-8, 5e-8, -5e-8, 1e-9, -1e-9][dk];
        Halfspace::proper(vec![s], s * anchor + delta)
    })
}

/// The LP's redundancy verdict — what the engine falls back to when the
/// fast path has none: `h` contains `base ∩ extras` iff the maximum of
/// `h.normal() · x` there is at most `h.offset() + TOL`.
fn lp_covers(base: &RegionBase, extras: &[Halfspace], h: &Halfspace) -> bool {
    let ctx = LpCtx::new();
    match base.polytope().max_linear_with(&ctx, h.normal(), extras) {
        LpOutcome::Optimal(sol) => sol.value <= h.offset() + mpq_geometry::TOL,
        LpOutcome::Unbounded => false,
        LpOutcome::Infeasible => true,
    }
}

/// The narrow-band rule applies to interval bases: a redundancy query
/// that ties exactly at the offset is decided without the LP.
#[test]
fn interval_tie_is_decided_without_lp() {
    let engine = RegionEngine::new(true, true, true);
    let base = interval_base(0.25, 0.5);
    let tie = Halfspace::proper(vec![1.0], 0.5);
    assert_eq!(engine.halfspace_covers_fast(&base, &[], &tie), Some(true));
    assert!(lp_covers(&base, &[], &tie));
}

/// A halfspace from the bit patterns of `(a₀, a₁, b)`: the exact f64
/// inputs of a logged optimizer query.
fn row_from_bits((a0, a1, b): (u64, u64, u64)) -> Halfspace {
    Halfspace::proper(
        vec![f64::from_bits(a0), f64::from_bits(a1)],
        f64::from_bits(b),
    )
}

/// A 2-D base from logged rows and its exact vertex set (interior point:
/// the vertex centroid).
fn logged_base(rows: &[(u64, u64, u64)], verts: &[[f64; 2]]) -> RegionBase {
    let mut poly = Polytope::full(2);
    for &r in rows {
        poly.push(row_from_bits(r));
    }
    let verts: Vec<Vec<f64>> = verts.iter().map(|v| v.to_vec()).collect();
    let n = verts.len() as f64;
    let centroid = (0..2)
        .map(|i| verts.iter().map(|v| v[i]).sum::<f64>() / n)
        .collect();
    RegionBase::new(Arc::new(poly), verts.clone(), verts, centroid)
}

/// A redundancy query from chain-8/2 seed 0 whose base has a
/// near-parallel row pair. Every candidate is a base vertex or a base-edge
/// crossing of the single extra, and the enumerated maximum clears the
/// narrow margin, so the fast path must say "covered": in exact rational
/// arithmetic over these f64 inputs the maximum of `h.normal() · x` sits
/// 9.87e-7 below `h.offset() + TOL`. The LP, which a conditioning test
/// over all row pairs used to send this query to, overstates the maximum
/// (2.3153e-4 against a threshold of 2.3010e-4) and answers "not covered".
#[test]
fn ill_conditioned_base_tie_is_decided_exactly() {
    let base = logged_base(
        &[
            (4607182418800017408, 0, 4607182418800017408),
            (13830554455654793216, 0, 13828302655841107968),
            (0, 4607182418800017408, 4598175219545276416),
            (0, 13830554455654793216, 9223372036854775808),
            (
                4604544271217802188,
                13827916308072577996,
                4602952008299670745,
            ),
        ],
        &[[0.75, 0.0], [1.0, 0.25], [0.75, 0.25]],
    );
    let extra = row_from_bits((
        4556019332081994849,
        13830554454933238241,
        4554128742842750426,
    ));
    let h = row_from_bits((
        4554330377261070581,
        13830554455225582835,
        4552617563116954129,
    ));
    let engine = RegionEngine::new(true, true, true);
    assert_eq!(
        engine.halfspace_covers_fast(&base, &[extra], &h),
        Some(true)
    );
}

/// Two near-parallel extras crossing inside the base at `|det| = 0.0036`:
/// the crossing is the region's maximum of `h.normal() · x`, 7.76e-5
/// above `h.offset() + TOL` in exact arithmetic. An ill-conditioned
/// crossing must still be enumerated (it only flags the bounds
/// `degenerate`): skipping it understates `upper`, which two-extra
/// regions still trust, and turns the verdict into a wrong "covered".
#[test]
fn ill_conditioned_extra_crossing_is_enumerated() {
    let base = logged_base(
        &[
            (4607182418800017408, 0, 4598175219545276416),
            (13830554455654793216, 0, 9223372036854775808),
            (0, 4607182418800017408, 4598175219545276416),
            (0, 13830554455654793216, 9223372036854775808),
            (13827916308072577996, 4604544271217802188, 0),
        ],
        &[[0.0, 0.0], [0.25, 0.0], [0.25, 0.25]],
    );
    let extras = [
        row_from_bits((
            4571448577150395463,
            13830554377638892126,
            4554699628454734000,
        )),
        row_from_bits((
            4558335003381638962,
            13830554454225629830,
            13774144443637259579,
        )),
    ];
    let h = row_from_bits((
        4567649240133708176,
        13830554430005750648,
        9223372036854775808,
    ));
    let engine = RegionEngine::new(true, true, true);
    assert_eq!(
        engine.halfspace_covers_fast(&base, &extras, &h),
        Some(false)
    );
}

/// `base` with `extras` appended, the shape of a region-engine cutout.
fn with_rows(base: &Polytope, extras: &[Halfspace]) -> Polytope {
    let mut p = base.clone();
    for h in extras {
        p.push(h.clone());
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The premise of the row skip: for every row `h` of a polytope `P`,
    /// the Chebyshev LP finds no interior in `P ∩ ¬h`.
    #[test]
    fn own_row_complement_has_no_interior(
        use_triangle in 0usize..2,
        extras in prop::collection::vec(extra_halfspace(), 0..6),
    ) {
        let base = if use_triangle == 1 {
            triangle_base()
        } else {
            square_base()
        };
        let p = with_rows(base.polytope(), &extras);
        let ctx = LpCtx::new();
        for h in p.halfspaces() {
            prop_assert!(
                p.is_empty_with(&ctx, &[h.complement()]),
                "P ∩ ¬h has interior for row {:?} of {:?}",
                h,
                p.halfspaces()
            );
        }
    }

    /// The coverage check with the row skip reaches the every-row
    /// subtraction's verdict, whether a cutout carries the base rows
    /// (`difference_is_empty`'s callers) or only its extra rows (the
    /// region engine's worklist).
    #[test]
    fn row_skip_keeps_coverage_verdicts(
        use_triangle in 0usize..2,
        cutout_extras in prop::collection::vec(
            prop::collection::vec(extra_halfspace(), 1..4),
            0..5,
        ),
    ) {
        let base = if use_triangle == 1 {
            triangle_base()
        } else {
            square_base()
        };
        let base = base.polytope();
        let full: Vec<Polytope> = cutout_extras.iter().map(|e| with_rows(base, e)).collect();
        let bare: Vec<Polytope> = cutout_extras
            .iter()
            .map(|e| with_rows(&Polytope::full(2), e))
            .collect();
        let ctx = LpCtx::new();
        let expected = every_row_difference_is_empty(&ctx, base, &full);
        prop_assert_eq!(
            difference_is_empty(&ctx, base, &full),
            expected,
            "cutouts with base rows {:?}",
            cutout_extras
        );
        prop_assert_eq!(
            difference_is_empty(&ctx, base, &bare),
            expected,
            "cutouts of extra rows only {:?}",
            cutout_extras
        );
    }

    #[test]
    fn emptiness_fast_path_agrees_with_lp(
        use_triangle in 0usize..2,
        sliver in 0usize..3,
        width_k in 0usize..8,
        sliver_x in 0.05..0.95f64,
        dir in -1.0..1.0f64,
        extras in prop::collection::vec(extra_halfspace(), 0..8),
    ) {
        let base = if use_triangle == 1 {
            triangle_base()
        } else {
            square_base()
        };
        // Thin shapes around the INTERIOR_TOL decision band, where the
        // stages differ: zero width is the sliver of two aligned,
        // adjacent regions.
        let width = [0.0, 1e-8, 1e-7, 1.5e-7, 3e-7, 1e-6, 1e-3, 2e-2][width_k];
        let mut all = Vec::new();
        match sliver {
            // A slab of exactly opposite rows along a random direction.
            1 => {
                let a = [dir, 1.0 - dir.abs()];
                let c = a[0] * sliver_x + a[1] * 0.5;
                all.push(Halfspace::proper(a.to_vec(), c + width));
                all.push(Halfspace::proper(vec![-a[0], -a[1]], -c));
            }
            // A thin wedge `x + s·y ≤ X ≤ x + width`: crossing rows, no
            // exactly opposite pair.
            2 => {
                all.push(Halfspace::proper(vec![1.0, 0.0], sliver_x + width));
                all.push(Halfspace::proper(vec![-1.0, dir.abs() * 1e-3], -sliver_x));
            }
            _ => {}
        }
        all.extend(extras);
        check_emptiness_against_lp(base.polytope(), &all)?;
    }

    /// Every redundancy verdict the fast path gives over an interval
    /// base — exact ties and LP-agreement-band offsets included — is the
    /// LP's verdict.
    #[test]
    fn interval_redundancy_fast_verdicts_agree_with_lp(
        cell in 0usize..3,
        extras in prop::collection::vec(tie_halfspace_1d(), 0..4),
        h in tie_halfspace_1d(),
    ) {
        let (lo, hi) = [(0.0, 1.0), (0.25, 0.5), (0.5, 0.75)][cell];
        let base = interval_base(lo, hi);
        let engine = RegionEngine::new(true, true, true);
        if let Some(fast) = engine.halfspace_covers_fast(&base, &extras, &h) {
            prop_assert_eq!(
                fast,
                lp_covers(&base, &extras, &h),
                "fast verdict differs from the LP's for {:?} over {:?} with {:?}",
                h,
                base.polytope().halfspaces(),
                extras
            );
        }
    }

    #[test]
    fn vertex_enumeration_bounds_agree_with_lp(
        use_triangle in 0usize..2,
        extras in prop::collection::vec(extra_halfspace(), 0..6),
        wk in 0usize..6,
    ) {
        let base = if use_triangle == 1 {
            triangle_base()
        } else {
            square_base()
        };
        let w = match wk {
            0 => vec![1.0, 0.0],
            1 => vec![0.0, -1.0],
            2 => vec![1.0, 1.0],
            3 => vec![-1.0, 1.0],
            4 => vec![0.6, -0.8],
            _ => vec![-0.7071067811865475, -0.7071067811865475],
        };
        check_bounds_against_lp(&base, &extras, &w)?;
    }

    #[test]
    fn vertex_enumeration_handles_duplicate_and_complement_extras(
        offset in 0.0..1.0f64,
        extras in prop::collection::vec(extra_halfspace(), 0..3),
    ) {
        // Exact duplicate of a base facet plus its exact complement: a
        // zero-width sliver at `x = offset` — the aligned-adjacency case.
        let base = square_base();
        let mut all = vec![
            Halfspace::proper(vec![1.0, 0.0], offset),
            Halfspace::proper(vec![-1.0, 0.0], -offset),
        ];
        all.extend(extras);
        for w in [[1.0, 0.0], [0.0, 1.0], [0.7071067811865475, -0.7071067811865475]] {
            check_bounds_against_lp(&base, &all, &w)?;
        }
    }
}
