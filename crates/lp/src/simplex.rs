//! Two-phase dense simplex over reusable flat scratch memory, with a
//! **folded tableau**: free decision variables are still modelled as
//! differences of non-negative variables (`x = u − v`), but the `v`
//! columns are not stored. While neither member of a `u/v` pair has ever
//! been pivoted on, the `v` column is the exact bitwise negation of the
//! `u` column — every tableau update preserves this (IEEE rounding is
//! symmetric under negation) — so reads resolve through a sign flip. The
//! first pivot on either member of a pair breaks the invariant (the
//! entering column is explicitly zeroed, its twin picks up elimination
//! round-off), so the twin column is **materialised** (appended as a real
//! column, as the exact negation it still is at that moment) immediately
//! before such a pivot. Pairs the optimum never touches — common for the
//! geometry layer's sign-mixed objectives — never pay for their `v`
//! column, shaving up to `n` of the `2n + m` tableau columns from every
//! elimination.
//!
//! Pivot selection (Dantzig with a Bland fallback), the ratio test, and
//! every arithmetic operation scan **logical** columns in the exact order
//! of the unfolded layout `[u | v | slack | artificial]`, and all stored
//! values equal the unfolded tableau's bit for bit (negation reads are
//! exact), so pivot sequences — and therefore every outcome, solution
//! vector and verdict — are bit-identical to the unfolded solver
//! (asserted against a reference implementation by
//! `tests/folded_proptest.rs`).
//!
//! Phase 1 maximizes the negated sum of artificials; phase 2 maximizes
//! the real objective. The Bland fallback after a fixed iteration budget
//! guarantees termination on degenerate problems.
//!
//! # Memory
//!
//! PWL-RRPA solves millions of tiny LPs per optimization (Figure 12 of the
//! paper); allocating a fresh tableau per solve dominated the profile. All
//! working storage — the staged constraint rows, the tableau (a flat
//! row-major matrix), right-hand sides, basis, reduced costs — lives in a
//! per-thread [`Scratch`] that is reused across solves, so the steady
//! state allocates only the returned solution vector. Callers stage
//! constraint rows directly into that scratch via [`solve_staged`], the
//! solver's one entry point.

use crate::{LpOutcome, LpSolution, EPS};
use std::cell::RefCell;

/// Feasibility tolerance for the phase-1 optimum (looser than [`EPS`] to
/// absorb accumulated floating-point error over many pivots).
const FEAS_EPS: f64 = 1e-7;

/// Minimum acceptable magnitude for a pivot element.
const PIVOT_EPS: f64 = 1e-11;

/// Reusable per-thread working memory for the solver.
#[derive(Default)]
struct Scratch {
    /// Staged constraint coefficients, row-major `m × n`.
    stage: Vec<f64>,
    /// Staged right-hand sides, length `m`.
    stage_rhs: Vec<f64>,
    /// Folded tableau `B⁻¹ A`, row-major `m × stride`.
    tab: Vec<f64>,
    /// `B⁻¹ b`, kept non-negative.
    rhs: Vec<f64>,
    /// **Logical** column index of the basic variable of each row.
    basis: Vec<usize>,
    /// Rows that received an artificial variable.
    art_rows: Vec<usize>,
    /// Reduced-cost row over **physical** columns.
    z: Vec<f64>,
    /// Logical columns excluded as reduced-cost noise (phase 1).
    skipped: Vec<bool>,
    /// Copy of the normalised pivot row during eliminations.
    pivot_buf: Vec<f64>,
    /// Physical column of each variable's materialised `v` twin
    /// (`usize::MAX` while folded).
    twin: Vec<usize>,
    /// Variable index owning each materialised twin, in append order.
    twin_owner: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Staging area for constraint rows, borrowed from the per-thread scratch.
///
/// Rows are `a · x ≤ b`; [`RowStage::push_row_aug`] appends one extra
/// trailing coefficient, which lets callers state augmented systems (e.g.
/// Chebyshev-radius LPs over `[x | t]`) without building temporary rows.
pub struct RowStage<'a> {
    coeffs: &'a mut Vec<f64>,
    rhs: &'a mut Vec<f64>,
    num_vars: usize,
}

impl RowStage<'_> {
    /// Stages the constraint `a · x ≤ b`.
    pub fn push_row(&mut self, a: &[f64], b: f64) {
        debug_assert_eq!(a.len(), self.num_vars);
        self.coeffs.extend_from_slice(a);
        self.rhs.push(b);
    }

    /// Stages `a · x + extra · x_last ≤ b` where `a` covers all variables
    /// but the last (an augmented system over `[x | t]`).
    pub fn push_row_aug(&mut self, a: &[f64], extra: f64, b: f64) {
        debug_assert_eq!(a.len() + 1, self.num_vars);
        self.coeffs.extend_from_slice(a);
        self.coeffs.push(extra);
        self.rhs.push(b);
    }
}

enum RunResult {
    Optimal,
    Unbounded,
}

/// The cost vector of the current phase, evaluated on demand over
/// logical columns (never materialised).
#[derive(Clone, Copy)]
enum Cost<'a> {
    /// Phase 1: `−1` on artificial columns (`art0_logical..`), `0`
    /// elsewhere.
    Phase1 { art0_logical: usize },
    /// Phase 2: the real objective over `u`/`v`, `0` on slacks.
    Phase2 { objective: &'a [f64] },
}

impl Cost<'_> {
    #[inline]
    fn at(&self, logical: usize, nvars: usize) -> f64 {
        match *self {
            Cost::Phase1 { art0_logical } => {
                if logical >= art0_logical {
                    -1.0
                } else {
                    0.0
                }
            }
            Cost::Phase2 { objective } => {
                if logical < nvars {
                    objective[logical]
                } else if logical < 2 * nvars {
                    -objective[logical - nvars]
                } else {
                    0.0
                }
            }
        }
    }
}

/// Folded tableau view over scratch storage.
///
/// Physical layout per row: `[x (nvars) | slack (nslack) | artificial
/// (nart) | twins (in materialisation order)]`, `stride` is the row
/// stride (the worst-case width), `active` the live physical width.
/// Logical columns keep the unfolded numbering `[u (nvars) | v (nvars) |
/// slack | artificial]`; [`Tableau::basis`] stores logical indices.
struct Tableau<'a> {
    tab: &'a mut Vec<f64>,
    rhs: &'a mut Vec<f64>,
    basis: &'a mut Vec<usize>,
    pivot_buf: &'a mut Vec<f64>,
    twin: &'a mut Vec<usize>,
    twin_owner: &'a mut Vec<usize>,
    stride: usize,
    active: usize,
    nvars: usize,
    nslack: usize,
    /// Physical artificial columns still present (zeroed after phase 1).
    nart: usize,
    /// Logical column count of the current phase.
    logical_ncols: usize,
}

impl Tableau<'_> {
    fn num_rows(&self) -> usize {
        self.rhs.len()
    }

    /// First physical twin column.
    #[inline]
    fn twin_base(&self) -> usize {
        self.nvars + self.nslack + self.nart
    }

    /// Resolves a logical column to `(physical column, negated)`.
    /// `negated` is only ever true for the `v` member of a still-folded
    /// pair.
    #[inline]
    fn resolve(&self, logical: usize) -> (usize, bool) {
        if logical < self.nvars {
            (logical, false)
        } else if logical < 2 * self.nvars {
            let j = logical - self.nvars;
            let t = self.twin[j];
            if t == usize::MAX {
                (j, true)
            } else {
                (t, false)
            }
        } else {
            // Slack and artificial columns sit right after the variables.
            (logical - self.nvars, false)
        }
    }

    /// The logical column a physical column currently represents.
    #[inline]
    fn logical_of(&self, phys: usize) -> usize {
        if phys < self.nvars {
            phys
        } else if phys < self.twin_base() {
            self.nvars + phys
        } else {
            self.nvars + self.twin_owner[phys - self.twin_base()]
        }
    }

    /// Tableau value of `(row, logical column)`, resolved through the
    /// fold (exact: negation is bitwise).
    #[inline]
    fn value(&self, row: usize, logical: usize) -> f64 {
        let (p, neg) = self.resolve(logical);
        let v = self.tab[row * self.stride + p];
        if neg {
            -v
        } else {
            v
        }
    }

    /// Reduced cost of a logical column.
    #[inline]
    fn z_at(&self, z: &[f64], logical: usize) -> f64 {
        let (p, neg) = self.resolve(logical);
        let v = z[p];
        if neg {
            -v
        } else {
            v
        }
    }

    /// Ensures the logical column can be pivoted on in place: pivoting on
    /// either member of a folded pair breaks the negation invariant, so
    /// the `v` twin is materialised first — appended as the exact
    /// negation it still is at this moment, after which both columns
    /// evolve independently exactly like the unfolded tableau's.
    fn unfold_for_pivot(&mut self, logical: usize, z: &mut Vec<f64>) -> usize {
        if logical >= 2 * self.nvars {
            return logical - self.nvars; // slack/artificial: direct
        }
        let j = if logical < self.nvars {
            logical
        } else {
            logical - self.nvars
        };
        if self.twin[j] == usize::MAX {
            let p = self.active;
            debug_assert!(p < self.stride);
            for i in 0..self.num_rows() {
                self.tab[i * self.stride + p] = -self.tab[i * self.stride + j];
            }
            if z.len() <= p {
                z.resize(p + 1, 0.0);
            }
            z[p] = -z[j];
            self.twin[j] = p;
            self.twin_owner.push(j);
            self.active += 1;
        }
        let (p, neg) = self.resolve(logical);
        debug_assert!(!neg);
        p
    }

    /// Pivots on `(row, logical column)`, updating the reduced-cost row.
    fn pivot(&mut self, row: usize, logical: usize, z: &mut Vec<f64>) {
        let col = self.unfold_for_pivot(logical, z);
        let stride = self.stride;
        let active = self.active;
        let pivot = self.tab[row * stride + col];
        debug_assert!(pivot.abs() > PIVOT_EPS);
        let inv = 1.0 / pivot;
        for v in &mut self.tab[row * stride..row * stride + active] {
            *v *= inv;
        }
        self.rhs[row] *= inv;
        // Copy the normalised pivot row out so other rows can be eliminated
        // against it without aliasing.
        self.pivot_buf.clear();
        self.pivot_buf
            .extend_from_slice(&self.tab[row * stride..row * stride + active]);
        let pivot_rhs = self.rhs[row];
        for i in 0..self.num_rows() {
            if i == row {
                continue;
            }
            let factor = self.tab[i * stride + col];
            if factor.abs() > PIVOT_EPS {
                let r = &mut self.tab[i * stride..i * stride + active];
                for (v, pv) in r.iter_mut().zip(self.pivot_buf.iter()) {
                    *v -= factor * pv;
                }
                r[col] = 0.0;
                self.rhs[i] -= factor * pivot_rhs;
                if self.rhs[i] < 0.0 && self.rhs[i] > -FEAS_EPS {
                    self.rhs[i] = 0.0;
                }
            }
        }
        let factor = z[col];
        if factor.abs() > PIVOT_EPS {
            for (v, pv) in z.iter_mut().zip(self.pivot_buf.iter()) {
                *v -= factor * pv;
            }
            z[col] = 0.0;
        }
        self.basis[row] = logical;
    }

    /// Runs the simplex method to optimality for the given cost vector
    /// (maximization), starting from the current basic feasible solution.
    ///
    /// With `bounded_objective`, the caller guarantees the objective is
    /// bounded above (true for phase 1, whose optimum is at most 0); an
    /// entering column without a valid ratio row is then floating-point
    /// noise in the reduced costs and is skipped rather than reported as
    /// unbounded.
    fn run(
        &mut self,
        cost: Cost<'_>,
        bounded_objective: bool,
        z: &mut Vec<f64>,
        skipped: &mut Vec<bool>,
    ) -> RunResult {
        // Reduced-cost row over physical columns:
        // z[p] = c_B · B⁻¹ A_p − c_p, accumulated row by row exactly like
        // the unfolded solver (folded `v` values are exact negations of
        // their `u` entries throughout, by symmetry of IEEE rounding).
        z.clear();
        for p in 0..self.active {
            z.push(-cost.at(self.logical_of(p), self.nvars));
        }
        for i in 0..self.num_rows() {
            let cb = cost.at(self.basis[i], self.nvars);
            if cb != 0.0 {
                let row = &self.tab[i * self.stride..i * self.stride + self.active];
                for (zj, rj) in z.iter_mut().zip(row) {
                    *zj += cb * rj;
                }
            }
        }
        let bland_after = 200 + 20 * (self.num_rows() + self.logical_ncols);
        let mut iter = 0usize;
        skipped.clear();
        skipped.resize(self.logical_ncols, false);
        let mut any_skipped = false;
        loop {
            let use_bland = iter > bland_after;
            // Entering column: most negative reduced cost (Dantzig) or the
            // first negative one (Bland, termination-safe), scanning
            // logical columns in unfolded order.
            let mut entering: Option<usize> = None;
            let mut best = -EPS;
            #[allow(clippy::needless_range_loop)] // z is indexed through the fold, not by j
            for j in 0..self.logical_ncols {
                let zj = self.z_at(z, j);
                if zj < best && !skipped[j] {
                    entering = Some(j);
                    if use_bland {
                        break;
                    }
                    best = zj;
                }
            }
            let Some(e) = entering else {
                return RunResult::Optimal;
            };
            // Ratio test; ties broken by smallest basis index (Bland-compatible).
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..self.num_rows() {
                let coeff = self.value(i, e);
                if coeff > EPS {
                    let ratio = self.rhs[i] / coeff;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leave.is_some_and(|l| self.basis[i] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(r) = leave else {
                if bounded_objective {
                    // Impossible ray for a bounded objective: reduced-cost
                    // noise. Exclude the column and continue.
                    skipped[e] = true;
                    any_skipped = true;
                    continue;
                }
                return RunResult::Unbounded;
            };
            // A pivot invalidates the noise exclusions (reduced costs are
            // recomputed implicitly through the eliminations).
            if any_skipped {
                skipped.fill(false);
                any_skipped = false;
            }
            self.pivot(r, e, z);
            iter += 1;
            assert!(
                iter < 1_000_000,
                "simplex failed to terminate (numerical issue)"
            );
        }
    }

    /// Current value of a logical column in the basic solution.
    fn column_value(&self, logical: usize) -> f64 {
        self.basis
            .iter()
            .position(|&b| b == logical)
            .map_or(0.0, |i| self.rhs[i])
    }
}

/// Solves `maximize objective · x` subject to the rows staged by `fill`,
/// using per-thread scratch memory (no steady-state allocation beyond the
/// returned solution).
pub(crate) fn solve_staged(objective: &[f64], fill: impl FnOnce(&mut RowStage)) -> LpOutcome {
    SCRATCH.with(|cell| {
        // Re-entrant callers (a `fill` that itself solves an LP) fall back
        // to fresh scratch; the hot paths never do this.
        match cell.try_borrow_mut() {
            Ok(mut scratch) => solve_in(&mut scratch, objective, fill),
            Err(_) => solve_in(&mut Scratch::default(), objective, fill),
        }
    })
}

fn solve_in(
    scratch: &mut Scratch,
    objective: &[f64],
    fill: impl FnOnce(&mut RowStage),
) -> LpOutcome {
    let n = objective.len();
    scratch.stage.clear();
    scratch.stage_rhs.clear();
    {
        let mut stage = RowStage {
            coeffs: &mut scratch.stage,
            rhs: &mut scratch.stage_rhs,
            num_vars: n,
        };
        fill(&mut stage);
    }
    let m = scratch.stage_rhs.len();

    // Trivial cases without constraints (or without variables).
    if m == 0 {
        return if objective.iter().all(|&c| c.abs() <= EPS) {
            LpOutcome::Optimal(LpSolution {
                x: vec![0.0; n],
                value: 0.0,
            })
        } else {
            LpOutcome::Unbounded
        };
    }
    if n == 0 {
        // Constraints read `0 ≤ b`.
        return if scratch.stage_rhs.iter().all(|&b| b >= -EPS) {
            LpOutcome::Optimal(LpSolution {
                x: vec![],
                value: 0.0,
            })
        } else {
            LpOutcome::Infeasible
        };
    }

    // Logical layout: [u (n) | v (n) | slack (m) | artificial (n_art)].
    let slack0 = 2 * n;
    scratch.art_rows.clear();
    for (i, &b) in scratch.stage_rhs.iter().enumerate() {
        if b < 0.0 {
            scratch.art_rows.push(i);
        }
    }
    let n_art = scratch.art_rows.len();
    let art0 = slack0 + m;
    let logical_ncols = art0 + n_art;
    // Physical layout: [x (n) | slack (m) | artificial (n_art) | up to n
    // lazily materialised twins]; stride is the worst-case width.
    let phys0 = n + m + n_art;
    let stride = phys0 + n;

    scratch.tab.clear();
    scratch.tab.resize(m * stride, 0.0);
    scratch.rhs.clear();
    scratch.basis.clear();
    scratch.twin.clear();
    scratch.twin.resize(n, usize::MAX);
    scratch.twin_owner.clear();
    for i in 0..m {
        let b = scratch.stage_rhs[i];
        let negate = b < 0.0;
        let sign = if negate { -1.0 } else { 1.0 };
        let row = &mut scratch.tab[i * stride..(i + 1) * stride];
        for (j, &aj) in scratch.stage[i * n..(i + 1) * n].iter().enumerate() {
            row[j] = sign * aj;
        }
        row[n + i] = sign;
        scratch.rhs.push(sign * b);
        scratch.basis.push(slack0 + i);
    }
    for (k, &i) in scratch.art_rows.iter().enumerate() {
        scratch.tab[i * stride + n + m + k] = 1.0;
        scratch.basis[i] = art0 + k;
    }

    let mut t = Tableau {
        tab: &mut scratch.tab,
        rhs: &mut scratch.rhs,
        basis: &mut scratch.basis,
        pivot_buf: &mut scratch.pivot_buf,
        twin: &mut scratch.twin,
        twin_owner: &mut scratch.twin_owner,
        stride,
        active: phys0,
        nvars: n,
        nslack: m,
        nart: n_art,
        logical_ncols,
    };
    let z = &mut scratch.z;
    let skipped = &mut scratch.skipped;

    // Phase 1: drive artificials to zero.
    if n_art > 0 {
        match t.run(Cost::Phase1 { art0_logical: art0 }, true, z, skipped) {
            RunResult::Unbounded => unreachable!("phase-1 objective is bounded above by 0"),
            RunResult::Optimal => {}
        }
        let art_sum: f64 = (art0..logical_ncols).map(|c| t.column_value(c)).sum();
        if art_sum > FEAS_EPS {
            return LpOutcome::Infeasible;
        }
        // Drive any degenerate artificial out of the basis, or drop its row.
        let mut i = 0;
        while i < t.num_rows() {
            if t.basis[i] >= art0 {
                let col = (0..art0).find(|&j| t.value(i, j).abs() > 1e-9);
                match col {
                    Some(j) => {
                        z.clear();
                        z.resize(t.active, 0.0);
                        t.pivot(i, j, z);
                        i += 1;
                    }
                    None => {
                        // Redundant row: remove it (move the last row in).
                        let last = t.num_rows() - 1;
                        if i != last {
                            let (head, tail) = t.tab.split_at_mut(last * stride);
                            head[i * stride..i * stride + stride].copy_from_slice(&tail[..stride]);
                        }
                        t.tab.truncate(last * stride);
                        t.rhs.swap_remove(i);
                        t.basis.swap_remove(i);
                    }
                }
            } else {
                i += 1;
            }
        }
        // Remove the artificial columns: compact each row so the twin
        // block moves down over the artificial block, and re-point the
        // twin map.
        let twin_count = t.twin_owner.len();
        let old_twin_base = t.twin_base();
        let rows = t.num_rows();
        for i in 0..rows {
            for k in 0..twin_count {
                t.tab[i * stride + n + m + k] = t.tab[i * stride + old_twin_base + k];
            }
        }
        for tw in t.twin.iter_mut() {
            if *tw != usize::MAX {
                *tw -= n_art;
            }
        }
        t.nart = 0;
        t.active -= n_art;
        t.logical_ncols = art0;
    }

    // Phase 2: the real objective over [u | v | slack].
    match t.run(Cost::Phase2 { objective }, false, z, skipped) {
        RunResult::Unbounded => LpOutcome::Unbounded,
        RunResult::Optimal => {
            let mut x = vec![0.0; n];
            for (i, &b) in t.basis.iter().enumerate() {
                if b < n {
                    x[b] += t.rhs[i];
                } else if b < 2 * n {
                    x[b - n] -= t.rhs[i];
                }
            }
            let value = objective.iter().zip(&x).map(|(c, xi)| c * xi).sum();
            LpOutcome::Optimal(LpSolution { x, value })
        }
    }
}
