//! Polytope set differences.
//!
//! Relevance regions are complements of unions of convex polytopes
//! (Theorem 4 of the MPQ paper). Deciding whether a relevance region is
//! empty amounts to deciding whether the union of its cutouts covers the
//! parameter space, and the Bemporad–Fukuda–Torrisi convexity check
//! (see [`crate::union_convex_polytope`]) needs the emptiness of
//! `envelope ∖ union`. Both reduce to the primitive implemented here:
//! subtracting a union of polytopes from a polytope by recursive
//! subdivision and testing what remains for (interior) emptiness.
//!
//! A subtracted row that the piece already carries verbatim yields no
//! piece and is not queried: `piece ∩ ¬h` lies in the hyperplane of `h`,
//! so it has no interior. A region-engine cutout is its base plus a few
//! extra rows, and every worklist piece carries the base rows, so the
//! engine hands the worklist only the extra rows.

use crate::{Halfspace, Polytope};
use mpq_lp::{FastPathSite, LpCtx};

/// Decomposes `base ∖ minus` into convex pieces with pairwise disjoint
/// interiors.
///
/// For constraints `c₁ … c_k` of `minus`, the classic decomposition is
///
/// ```text
/// base ∖ minus = ⋃ⱼ  base ∩ c₁ ∩ … ∩ c_{j−1} ∩ ¬c_j
/// ```
///
/// where `¬c_j` is the complementary closed halfspace. Pieces with empty
/// interior are dropped (see the crate-level emptiness discussion); a
/// `c_j` already among the rows of `base ∩ c₁ ∩ … ∩ c_{j−1}` yields no
/// piece without an emptiness query.
pub fn subtract(ctx: &LpCtx, base: &Polytope, minus: &Polytope) -> Vec<Polytope> {
    debug_assert_eq!(base.dim(), minus.dim());
    if base.is_empty_with_fastpath(ctx, &[], FastPathSite::Coverage) {
        return Vec::new();
    }
    if minus.is_trivially_empty() {
        return vec![base.clone()];
    }
    subtract_from_nonempty(ctx, base, minus.halfspaces())
}

/// [`subtract`] with `minus` given by its rows, for a `base` already
/// proven non-empty: worklist callers (the coverage machinery)
/// re-subtract from pieces whose non-emptiness was established by the
/// exact query that put them on the worklist, so re-running that check
/// would repeat a deterministic predicate verbatim.
///
/// A row `h` the running prefix already carries verbatim (a base row, or
/// a repeat within `minus`) is skipped: `prefix ∩ ¬h` lies in `h`'s
/// hyperplane, so its emptiness query could only answer "no interior",
/// and pushing `h` again would only duplicate a row.
pub(crate) fn subtract_from_nonempty(
    ctx: &LpCtx,
    base: &Polytope,
    minus: &[Halfspace],
) -> Vec<Polytope> {
    let mut pieces = Vec::new();
    let mut prefix = base.clone();
    prefix.halfspaces.reserve(minus.len());
    for h in minus {
        if prefix.halfspaces.contains(h) {
            continue;
        }
        // Test `prefix ∩ ¬h` in place (the same rows in the same order as
        // the materialised piece) and build the piece only when it stays:
        // most pieces of a coverage subtraction are empty.
        let comp = h.complement();
        if !prefix.is_empty_with_fastpath(ctx, std::slice::from_ref(&comp), FastPathSite::Coverage)
        {
            pieces.push(prefix.with(comp));
        }
        prefix.push(h.clone());
    }
    pieces
}

/// True iff `base ∖ ⋃ cutouts` has empty interior.
///
/// Maintains a worklist of convex pieces of the remaining region and
/// subtracts one cutout at a time; the difference is empty iff the worklist
/// drains. Runs in output-sensitive time: pieces that no cutout intersects
/// survive and cause an early `false`.
pub fn difference_is_empty(ctx: &LpCtx, base: &Polytope, cutouts: &[Polytope]) -> bool {
    difference_remainder(ctx, base, cutouts).is_empty()
}

/// Safety margin for reusable witnesses: a witness certifies later
/// non-emptiness verdicts only while its inscribed ball clears
/// [`crate::INTERIOR_TOL`] by at least this much, so a witness-based
/// verdict can never disagree with what the Chebyshev-radius LP (round-off
/// ≤ ~1e-7) would have concluded on a tolerance-band sliver.
pub const WITNESS_MARGIN: f64 = 1e-6;

/// One convex piece of a coverage worklist, carrying its **cached
/// Chebyshev verdict**: the margin-certified witness extraction of
/// `worklist_witness` is a pure function of the piece polytope, so a
/// piece that survives a resumed coverage check unchanged (the miss fast
/// path of `subtract_cutout_from_worklist` moves it verbatim) keeps
/// its verdict and never re-runs the `chebyshev_center` LP. Caching
/// changes only the LP *count* — verdicts, witnesses and therefore
/// retained plans are bit-identical to recomputation.
#[derive(Debug, Clone)]
pub struct CoveragePiece {
    poly: Polytope,
    /// Cached witness verdict: `None` = not yet computed; `Some(None)` =
    /// no ball above `INTERIOR_TOL + WITNESS_MARGIN`; `Some(Some(x))` =
    /// the certified ball centre.
    cheb: Option<Option<Vec<f64>>>,
}

impl CoveragePiece {
    /// Wraps a polytope piece with no verdict computed yet.
    pub fn new(poly: Polytope) -> Self {
        Self { poly, cheb: None }
    }

    /// The piece polytope.
    pub fn polytope(&self) -> &Polytope {
        &self.poly
    }
}

/// Subtracts one cutout from every piece of a coverage worklist — the
/// shared per-cutout step of the worklist decomposition, used by
/// [`difference_remainder`] **and** the region engine's incremental
/// coverage check, which resumes a cached worklist and must issue
/// bit-identical queries to a from-scratch run (keep this the single
/// copy of the loop body). Takes the worklist by value so survivors move
/// into the next one.
///
/// `cutout` is the cutout's rows, of which rows every piece already
/// carries may be left out (the region engine passes only the rows a
/// cutout adds to the base).
pub(crate) fn subtract_cutout_from_worklist(
    ctx: &LpCtx,
    remaining: Vec<CoveragePiece>,
    cutout: &[Halfspace],
) -> Vec<CoveragePiece> {
    let mut next = Vec::with_capacity(remaining.len());
    for piece in remaining {
        // Fast path: the cutout misses the piece entirely — the piece
        // survives verbatim, cached Chebyshev verdict included.
        if piece
            .poly
            .is_empty_with_fastpath(ctx, cutout, FastPathSite::Coverage)
        {
            next.push(piece);
        } else {
            // Worklist pieces are non-empty by construction (the check
            // that kept them), so the subtraction skips the duplicate
            // base check. Freshly cut pieces have no verdict yet.
            next.extend(
                subtract_from_nonempty(ctx, &piece.poly, cutout)
                    .into_iter()
                    .map(CoveragePiece::new),
            );
        }
    }
    next
}

/// Margin-certified interior witness from a worklist's surviving pieces:
/// the centre of the first piece admitting a ball comfortably above the
/// interior tolerance (the region engine's incremental coverage check).
///
/// Per-piece verdicts are **cached** on the pieces: a piece whose verdict
/// was computed by an earlier extraction (and survived resumption
/// unchanged) answers from the cache — counted as a
/// [`FastPathSite::Coverage`] fast-path hit, against the fallback counted
/// for each `chebyshev_center` LP actually run.
pub(crate) fn worklist_witness(ctx: &LpCtx, remaining: &mut [CoveragePiece]) -> Option<Vec<f64>> {
    for piece in remaining.iter_mut() {
        let verdict = match &piece.cheb {
            Some(v) => {
                ctx.fastpath_hit(FastPathSite::Coverage);
                v
            }
            None => {
                ctx.fastpath_fallback(FastPathSite::Coverage);
                let v = piece
                    .poly
                    .chebyshev_center(ctx)
                    .filter(|(_, r)| *r > crate::INTERIOR_TOL + WITNESS_MARGIN)
                    .map(|(x, _)| x);
                piece.cheb.insert(v)
            }
        };
        if let Some(w) = verdict {
            return Some(w.clone());
        }
    }
    None
}

/// The worklist decomposition of `base ∖ ⋃ cutouts` into convex pieces
/// with non-empty interior (empty iff the difference has empty interior).
fn difference_remainder(ctx: &LpCtx, base: &Polytope, cutouts: &[Polytope]) -> Vec<CoveragePiece> {
    if base.is_empty_with_fastpath(ctx, &[], FastPathSite::Coverage) {
        return Vec::new();
    }
    let mut remaining = vec![CoveragePiece::new(base.clone())];
    for cutout in cutouts {
        if remaining.is_empty() {
            return remaining;
        }
        if cutout.is_trivially_empty() {
            continue;
        }
        remaining = subtract_cutout_from_worklist(ctx, remaining, cutout.halfspaces());
    }
    remaining
}

/// True iff `⋃ polys ⊇ target` up to measure zero (the uncovered part has
/// empty interior).
pub fn union_covers(ctx: &LpCtx, polys: &[Polytope], target: &Polytope) -> bool {
    difference_is_empty(ctx, target, polys)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> LpCtx {
        LpCtx::new()
    }

    #[test]
    fn subtract_disjoint_returns_base() {
        let ctx = ctx();
        let base = Polytope::from_box(&[0.0], &[1.0]);
        let minus = Polytope::from_box(&[2.0], &[3.0]);
        let pieces = subtract(&ctx, &base, &minus);
        // The decomposition may return the base split by inactive
        // constraints, but its union must be the base: check via coverage.
        assert!(union_covers(&ctx, &pieces, &base));
        for p in &pieces {
            assert!(base.contains_polytope(&ctx, p));
        }
    }

    #[test]
    fn subtract_everything_returns_nothing() {
        let ctx = ctx();
        let base = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
        let minus = Polytope::from_box(&[-1.0, -1.0], &[2.0, 2.0]);
        assert!(subtract(&ctx, &base, &minus).is_empty());
    }

    #[test]
    fn subtract_half_interval() {
        let ctx = ctx();
        let base = Polytope::from_box(&[0.0], &[1.0]);
        let minus = Polytope::from_box(&[0.0], &[0.25]);
        let pieces = subtract(&ctx, &base, &minus);
        assert_eq!(pieces.len(), 1);
        assert!(pieces[0].contains_point(&[0.5]));
        assert!(!pieces[0].contains_point(&[0.1]));
        // Figure 7 of the paper: the relevance region left over is [0.25, 1].
        let (lo, hi) = pieces[0].bounding_box(&ctx).unwrap();
        assert!((lo[0] - 0.25).abs() < 1e-6 && (hi[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn difference_empty_when_tiled() {
        // Figure 10 of the paper: two cutouts tile the unit square.
        let ctx = ctx();
        let base = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
        let left = Polytope::from_box(&[0.0, 0.0], &[0.6, 1.0]);
        let right = Polytope::from_box(&[0.5, 0.0], &[1.0, 1.0]);
        assert!(difference_is_empty(
            &ctx,
            &base,
            &[left.clone(), right.clone()]
        ));
        // A single half does not cover.
        assert!(!difference_is_empty(&ctx, &base, &[left]));
    }

    #[test]
    fn difference_detects_uncovered_corner() {
        let ctx = ctx();
        let base = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
        // Cover all but the top-right quarter.
        let bottom = Polytope::from_box(&[0.0, 0.0], &[1.0, 0.5]);
        let left = Polytope::from_box(&[0.0, 0.0], &[0.5, 1.0]);
        assert!(!difference_is_empty(
            &ctx,
            &base,
            &[bottom.clone(), left.clone()]
        ));
        let quarter = Polytope::from_box(&[0.5, 0.5], &[1.0, 1.0]);
        assert!(difference_is_empty(&ctx, &base, &[bottom, left, quarter]));
    }

    #[test]
    fn boundary_slivers_do_not_block_coverage() {
        // Cutouts meeting exactly at x = 0.5 cover the interval despite the
        // shared measure-zero boundary.
        let ctx = ctx();
        let base = Polytope::from_box(&[0.0], &[1.0]);
        let a = Polytope::from_box(&[0.0], &[0.5]);
        let b = Polytope::from_box(&[0.5], &[1.0]);
        assert!(difference_is_empty(&ctx, &base, &[a, b]));
    }

    #[test]
    fn diagonal_cover_of_square() {
        // Two triangles splitting the square along the diagonal.
        let ctx = ctx();
        let base = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
        let lower = base
            .clone()
            .with(crate::Halfspace::proper(vec![-1.0, 1.0], 0.0)); // y <= x
        let upper = base
            .clone()
            .with(crate::Halfspace::proper(vec![1.0, -1.0], 0.0)); // y >= x
        assert!(difference_is_empty(&ctx, &base, &[lower, upper]));
    }

    #[test]
    fn union_covers_empty_target() {
        let ctx = ctx();
        assert!(union_covers(&ctx, &[], &Polytope::empty(2)));
    }

    #[test]
    fn no_cutouts_nonempty_base() {
        let ctx = ctx();
        let base = Polytope::from_box(&[0.0], &[1.0]);
        assert!(!difference_is_empty(&ctx, &base, &[]));
    }

    /// The per-piece Chebyshev cache: a second witness extraction over the
    /// same worklist answers every piece from its cached verdict — zero
    /// new LPs, bit-identical witness.
    #[test]
    fn witness_extraction_caches_per_piece_verdicts() {
        let ctx = ctx();
        // A sliver with no qualifying ball followed by a fat piece: the
        // extraction must compute (and cache) a verdict for both.
        let sliver = Polytope::from_box(&[0.0], &[1e-8]);
        let fat = Polytope::from_box(&[0.2], &[0.8]);
        let mut worklist = vec![CoveragePiece::new(sliver), CoveragePiece::new(fat)];
        let before = mpq_lp::thread_solved();
        let w1 = worklist_witness(&ctx, &mut worklist).expect("fat piece has interior");
        let first_cost = mpq_lp::thread_solved() - before;
        assert!(first_cost >= 2, "both pieces ran the chebyshev LP");
        let hits_before = ctx.fastpath_breakdown().fast[FastPathSite::Coverage as usize];
        let before = mpq_lp::thread_solved();
        let w2 = worklist_witness(&ctx, &mut worklist).expect("verdicts are cached");
        assert_eq!(
            mpq_lp::thread_solved() - before,
            0,
            "cached verdicts solve no LPs"
        );
        assert_eq!(w1, w2, "cached witness is bit-identical");
        let hits_after = ctx.fastpath_breakdown().fast[FastPathSite::Coverage as usize];
        assert_eq!(
            hits_after - hits_before,
            2,
            "both pieces counted as coverage hits"
        );
        // A piece surviving a disjoint-cutout subtraction keeps its
        // cached verdict (the miss fast path moves it verbatim).
        let disjoint = Polytope::from_box(&[0.9], &[1.0]);
        let mut survived = subtract_cutout_from_worklist(&ctx, worklist, disjoint.halfspaces());
        let before = mpq_lp::thread_solved();
        let w3 = worklist_witness(&ctx, &mut survived).expect("pieces survived");
        assert_eq!(
            mpq_lp::thread_solved() - before,
            0,
            "survivors reuse cached verdicts"
        );
        assert_eq!(w1, w3);
    }
}
