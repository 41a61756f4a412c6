//! Dense linear programming for multi-objective parametric query optimization.
//!
//! The MPQ paper (Trummer & Koch, VLDB 2014) implements PWL-RRPA on top of
//! Gurobi; every elementary operation of the algorithm — emptiness checks on
//! relevance regions, dominance-region construction, redundant-constraint
//! elimination — reduces to small linear programs over the parameter space,
//! and Figure 12 of the paper reports the *number of solved LPs* as one of
//! its three evaluation metrics.
//!
//! This crate provides the substitute substrate: a from-scratch dense
//! two-phase simplex solver ([`LpCtx::solve_staged`]) sized for the
//! problems PWL-RRPA produces (a handful of variables, tens of
//! constraints), a per-thread solve counter ([`thread_solved`]) that backs
//! the Figure 12 metric, a context ([`LpCtx`]) that counts where geometry
//! fast paths fell back to the solver, and a small dense linear-system
//! solver ([`dense::solve_linear_system`]) used to interpolate linear cost
//! functions on grid simplices.
//!
//! # Problem form
//!
//! All problems are stated as
//!
//! ```text
//! maximize  c · x
//! subject to  aᵢ · x ≤ bᵢ   for every constraint i
//! ```
//!
//! with `x ∈ Rⁿ` **free** (unrestricted in sign). Parameter-space polytopes
//! carry their own bound constraints, so no implicit non-negativity is
//! assumed. Callers write the rows straight into the solver's per-thread
//! scratch memory through a [`RowStage`]; no problem value is built.
//!
//! # Example
//!
//! ```
//! use mpq_lp::{LpCtx, LpOutcome};
//!
//! // maximize x + y s.t. x <= 2, y <= 3, x + y <= 4
//! let ctx = LpCtx::default();
//! let before = mpq_lp::thread_solved();
//! let outcome = ctx.solve_staged(&[1.0, 1.0], |rows| {
//!     rows.push_row(&[1.0, 0.0], 2.0);
//!     rows.push_row(&[0.0, 1.0], 3.0);
//!     rows.push_row(&[1.0, 1.0], 4.0);
//! });
//! match outcome {
//!     LpOutcome::Optimal(sol) => {
//!         assert!((sol.value - 4.0).abs() < 1e-9);
//!     }
//!     other => panic!("unexpected outcome {other:?}"),
//! }
//! assert_eq!(mpq_lp::thread_solved() - before, 1);
//! ```

pub mod dense;
mod simplex;

pub use simplex::RowStage;

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

thread_local! {
    /// LPs solved on this thread so far, through any [`LpCtx`].
    static THREAD_SOLVED: Cell<u64> = const { Cell::new(0) };
}

/// The number of LPs solved on the calling thread so far, through any
/// [`LpCtx`] — the workspace's one LP count. A unit of work that runs
/// start to finish on one thread gets its own exact count as the
/// difference of two readings, even when it shares its `LpCtx` with work
/// on other threads; totals are sums of such deltas.
pub fn thread_solved() -> u64 {
    THREAD_SOLVED.with(Cell::get)
}

/// One solve happened on this thread.
#[inline]
fn record_solve() {
    THREAD_SOLVED.with(|c| c.set(c.get() + 1));
}

/// Numerical tolerance used throughout the solver.
///
/// Row data produced by the geometry layer is normalised (unit-norm
/// constraint rows), which keeps a single absolute tolerance meaningful.
pub const EPS: f64 = 1e-9;

/// An optimal solution to a linear program.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// An optimal point.
    pub x: Vec<f64>,
    /// The optimal objective value `c · x`.
    pub value: f64,
}

/// Result of solving a linear program.
#[derive(Debug, Clone)]
pub enum LpOutcome {
    /// A finite optimum was found.
    Optimal(LpSolution),
    /// The constraint set is empty.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
}

impl LpOutcome {
    /// Returns the optimal solution, if any.
    pub fn optimal(self) -> Option<LpSolution> {
        match self {
            LpOutcome::Optimal(sol) => Some(sol),
            _ => None,
        }
    }

    /// True iff the problem is feasible (optimal or unbounded).
    pub fn is_feasible(&self) -> bool {
        !matches!(self, LpOutcome::Infeasible)
    }
}

/// Solves `maximize objective · x` subject to rows staged by `fill`,
/// without touching any statistics counter.
///
/// Rows are written directly into per-thread scratch memory.
/// Prefer [`LpCtx::solve_staged`] inside the optimizer so the solved-LP
/// count stays accurate.
pub fn solve_staged(objective: &[f64], fill: impl FnOnce(&mut RowStage)) -> LpOutcome {
    simplex::solve_staged(objective, fill)
}

/// The call sites whose exact geometric fast paths the context tracks:
/// each site answers a predicate either LP-free (a *hit*) or by falling
/// back to the solver (a *fallback*), and the per-site split tells future
/// optimization work where the remaining LP tail lives.
///
/// The sites themselves live in the geometry layer (`mpq-geometry`) and
/// the piecewise cost algebra (`mpq-cost`); the enum is defined here
/// because the shared `LpCtx` is the one object every such call site
/// already holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPathSite {
    /// Halfspace-coverage queries of the region engine's two cutout
    /// refinements (the LP-free `cover_fast_pass` and the `cover_lp_pass`
    /// of `mpq-geometry`'s `region` module), answered by exact vertex
    /// enumeration when decisive.
    CutoutRedundancy = 0,
    /// Cutout-emptiness prechecks when a multi-halfspace cutout is added
    /// (`RegionEngine::add_cutout`), answered by inscribed-ball
    /// certificates and exact interval/vertex emptiness.
    CutoutEmptiness = 1,
    /// Per-piece emptiness checks of the coverage (polytope-difference)
    /// machinery behind `IsEmpty`, plus per-piece Chebyshev witness
    /// verdicts in witness extraction (a cached-verdict reuse is a hit, a
    /// fresh `chebyshev_center` LP a fallback).
    Coverage = 2,
    /// Piecewise cost algebra (`combine` / `intersect_dedup` /
    /// `dominance_regions`): cross-pair and cut emptiness over piece
    /// regions.
    PieceAlgebra = 3,
}

impl FastPathSite {
    /// All sites, in counter order.
    pub const ALL: [FastPathSite; 4] = [
        FastPathSite::CutoutRedundancy,
        FastPathSite::CutoutEmptiness,
        FastPathSite::Coverage,
        FastPathSite::PieceAlgebra,
    ];

    /// Stable snake_case name (the `<site>` of the
    /// `lp_fastpath_<site>_{fast,lp}` registry counters).
    pub fn name(self) -> &'static str {
        match self {
            FastPathSite::CutoutRedundancy => "cutout_redundancy",
            FastPathSite::CutoutEmptiness => "cutout_emptiness",
            FastPathSite::Coverage => "coverage",
            FastPathSite::PieceAlgebra => "piece_algebra",
        }
    }
}

/// Snapshot of the per-site fast-path hit / LP-fallback counters of an
/// [`LpCtx`], indexed by `FastPathSite as usize`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathBreakdown {
    /// Queries answered without an LP, per site.
    pub fast: [u64; FastPathSite::ALL.len()],
    /// Queries that fell back to the LP solver, per site.
    pub lp: [u64; FastPathSite::ALL.len()],
}

impl FastPathBreakdown {
    /// Total LP-free answers across all sites.
    pub fn total_fast(&self) -> u64 {
        self.fast.iter().sum()
    }

    /// Total LP fallbacks across all sites.
    pub fn total_lp(&self) -> u64 {
        self.lp.iter().sum()
    }
}

/// Statistics-carrying solver context.
///
/// All geometry and cost-function operations route their solves through
/// a shared `LpCtx`. Each solve counts on the solving thread
/// ([`thread_solved`]); that count is the solved-LP metric of the MPQ
/// evaluation (Figure 12).
///
/// The context itself carries the per-site fast-path breakdown
/// ([`FastPathBreakdown`]): geometry predicates report whether they were
/// answered LP-free or fell back to the solver, giving the bench harness
/// an exact map of where the remaining LP tail lives. Its counters are
/// atomic, so one context can be shared across worker threads.
#[derive(Debug, Default)]
pub struct LpCtx {
    fastpath_fast: [AtomicU64; FastPathSite::ALL.len()],
    fastpath_lp: [AtomicU64; FastPathSite::ALL.len()],
    /// The breakdown as of the last [`Self::publish_to`], so each publish
    /// adds only the growth since.
    published: Mutex<FastPathBreakdown>,
}

impl LpCtx {
    /// Creates a fresh context with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves `maximize objective · x` subject to rows staged by `fill`,
    /// counting one solve on this thread. See [`solve_staged`].
    pub fn solve_staged(&self, objective: &[f64], fill: impl FnOnce(&mut RowStage)) -> LpOutcome {
        record_solve();
        simplex::solve_staged(objective, fill)
    }

    /// Records that `site` answered a predicate without an LP.
    #[inline]
    pub fn fastpath_hit(&self, site: FastPathSite) {
        self.fastpath_fast[site as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Records that `site` fell back to the LP solver for a predicate.
    #[inline]
    pub fn fastpath_fallback(&self, site: FastPathSite) {
        self.fastpath_lp[site as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the per-site fast-path breakdown.
    pub fn fastpath_breakdown(&self) -> FastPathBreakdown {
        let mut out = FastPathBreakdown::default();
        for i in 0..FastPathSite::ALL.len() {
            out.fast[i] = self.fastpath_fast[i].load(Ordering::Relaxed);
            out.lp[i] = self.fastpath_lp[i].load(Ordering::Relaxed);
        }
        out
    }

    /// Adds the per-site fast-path growth since the last publish to an
    /// observability registry's `lp_fastpath_<site>_{fast,lp}` counters.
    /// The idiom is to call this at the end of each unit of work (the
    /// optimizer does so per optimization when an [`mpq_obs::Obs`]
    /// handle is installed). Contexts sharing one registry add up, and
    /// two concurrent publishes of one context never count the same
    /// growth twice.
    pub fn publish_to(&self, registry: &mpq_obs::Registry) {
        let mut published = self
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let now = self.fastpath_breakdown();
        for site in FastPathSite::ALL {
            let i = site as usize;
            registry
                .counter(&format!("lp_fastpath_{}_fast", site.name()))
                .add(now.fast[i] - published.fast[i]);
            registry
                .counter(&format!("lp_fastpath_{}_lp", site.name()))
                .add(now.lp[i] - published.lp[i]);
        }
        *published = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row `a · x ≤ b`.
    type Row = (Vec<f64>, f64);

    fn c(a: Vec<f64>, b: f64) -> Row {
        (a, b)
    }

    /// Solves `maximize objective · x` over `rows` without counting.
    fn solve_rows(objective: &[f64], rows: &[Row]) -> LpOutcome {
        solve_staged(objective, |stage| {
            for (a, b) in rows {
                stage.push_row(a, *b);
            }
        })
    }

    /// The slack `b - a · x` of one row; non-negative iff `x` satisfies it.
    fn slack((a, b): &Row, x: &[f64]) -> f64 {
        b - a.iter().zip(x).map(|(ai, xi)| ai * xi).sum::<f64>()
    }

    #[test]
    fn maximize_simple_box() {
        let rows = [
            c(vec![1.0, 0.0], 4.0),
            c(vec![0.0, 1.0], 5.0),
            c(vec![-1.0, 0.0], 0.0),
            c(vec![0.0, -1.0], 0.0),
        ];
        let sol = solve_rows(&[3.0, 2.0], &rows).optimal().expect("optimal");
        assert!((sol.value - 22.0).abs() < 1e-7, "value = {}", sol.value);
        assert!((sol.x[0] - 4.0).abs() < 1e-7);
        assert!((sol.x[1] - 5.0).abs() < 1e-7);
    }

    #[test]
    fn free_variables_negative_optimum() {
        // maximize -x s.t. x >= 3  (i.e. -x <= -3); optimum at x = 3.
        let rows = [c(vec![-1.0], -3.0), c(vec![1.0], 10.0)];
        let sol = solve_rows(&[-1.0], &rows).optimal().expect("optimal");
        assert!((sol.value + 3.0).abs() < 1e-7);
        assert!((sol.x[0] - 3.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        // x <= 1 and x >= 2.
        let rows = [c(vec![1.0], 1.0), c(vec![-1.0], -2.0)];
        assert!(matches!(solve_rows(&[0.0], &rows), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        // maximize x s.t. x >= 0 — unbounded above.
        let rows = [c(vec![-1.0], 0.0)];
        assert!(matches!(solve_rows(&[1.0], &rows), LpOutcome::Unbounded));
    }

    #[test]
    fn feasibility_with_zero_objective_is_optimal() {
        let rows = [c(vec![1.0, 1.0], 1.0)];
        match solve_rows(&[0.0, 0.0], &rows) {
            LpOutcome::Optimal(sol) => assert!(sol.value.abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn degenerate_equality_via_two_inequalities() {
        // x + y <= 1 and x + y >= 1, maximize x with 0 <= x,y.
        let rows = [
            c(vec![1.0, 1.0], 1.0),
            c(vec![-1.0, -1.0], -1.0),
            c(vec![-1.0, 0.0], 0.0),
            c(vec![0.0, -1.0], 0.0),
        ];
        let sol = solve_rows(&[1.0, 0.0], &rows).optimal().expect("optimal");
        assert!((sol.value - 1.0).abs() < 1e-7);
    }

    #[test]
    fn no_constraints_zero_objective() {
        assert!(solve_rows(&[0.0, 0.0], &[]).is_feasible());
    }

    #[test]
    fn no_constraints_nonzero_objective_unbounded() {
        assert!(matches!(
            solve_rows(&[1.0, -1.0], &[]),
            LpOutcome::Unbounded
        ));
    }

    #[test]
    fn thread_solved_counts_only_this_threads_solves() {
        let ctx = LpCtx::new();
        let solve = || ctx.solve_staged(&[0.0], |stage| stage.push_row(&[1.0], 1.0));
        let before = thread_solved();
        solve();
        std::thread::scope(|s| {
            s.spawn(solve);
        });
        ctx.solve_staged(&[0.0], |_| {});
        assert_eq!(thread_solved() - before, 2);
    }

    #[test]
    fn fastpath_breakdown_counts_per_site() {
        let ctx = LpCtx::new();
        ctx.fastpath_hit(FastPathSite::Coverage);
        ctx.fastpath_hit(FastPathSite::Coverage);
        ctx.fastpath_fallback(FastPathSite::PieceAlgebra);
        let b = ctx.fastpath_breakdown();
        assert_eq!(b.fast[FastPathSite::Coverage as usize], 2);
        assert_eq!(b.lp[FastPathSite::PieceAlgebra as usize], 1);
        assert_eq!(b.total_fast(), 2);
        assert_eq!(b.total_lp(), 1);
    }

    #[test]
    fn publish_to_adds_growth_since_last_publish() {
        let (a, b) = (LpCtx::new(), LpCtx::new());
        a.fastpath_hit(FastPathSite::Coverage);
        a.fastpath_fallback(FastPathSite::Coverage);
        let registry = mpq_obs::Registry::new();
        a.publish_to(&registry);
        assert_eq!(registry.counter("lp_fastpath_coverage_fast").get(), 1);
        assert_eq!(registry.counter("lp_fastpath_coverage_lp").get(), 1);
        assert_eq!(registry.counter("lp_fastpath_piece_algebra_fast").get(), 0);
        // Republishing adds only the growth; a second context sharing the
        // registry adds to the same counters instead of overwriting them.
        a.fastpath_hit(FastPathSite::Coverage);
        a.publish_to(&registry);
        a.publish_to(&registry);
        b.fastpath_hit(FastPathSite::Coverage);
        b.publish_to(&registry);
        assert_eq!(registry.counter("lp_fastpath_coverage_fast").get(), 3);
        assert_eq!(registry.counter("lp_fastpath_coverage_lp").get(), 1);
    }

    #[test]
    fn negative_rhs_requires_phase_one() {
        // Feasible region: x >= 1, x <= 2 written with a negative RHS row.
        let rows = [c(vec![-1.0], -1.0), c(vec![1.0], 2.0)];
        let sol = solve_rows(&[1.0], &rows).optimal().expect("optimal");
        assert!((sol.value - 2.0).abs() < 1e-7);
    }

    #[test]
    fn solution_satisfies_all_constraints() {
        let rows = [
            c(vec![1.0, 1.0, 1.0], 6.0),
            c(vec![1.0, -1.0, 2.0], 4.0),
            c(vec![-1.0, 0.0, 0.0], 0.0),
            c(vec![0.0, -1.0, 0.0], 0.0),
            c(vec![0.0, 0.0, -1.0], 0.0),
        ];
        let sol = solve_rows(&[1.0, 2.0, -1.0], &rows)
            .optimal()
            .expect("optimal");
        for row in &rows {
            assert!(
                slack(row, &sol.x) >= -1e-7,
                "violated: {row:?} at {:?}",
                sol.x
            );
        }
    }
}
