//! Bit-identity of the folded simplex against the unfolded reference.
//!
//! The folded tableau (see `src/simplex.rs`) promises more than verdict
//! agreement: every pivot decision scans the same logical columns over
//! bit-equal values, so outcomes must be **bitwise identical** to the
//! classic `[u | v | slack | artificial]` layout. This test keeps a
//! self-contained copy of the unfolded solver (the pre-fold
//! implementation, verbatim modulo scratch reuse, which does not affect
//! arithmetic) and asserts exact equality of outcome kind, solution
//! vector bits and objective-value bits on randomized problems —
//! including degenerate rows, negative right-hand sides (phase-1
//! activity), ties and near-parallel constraints.

use mpq_lp::{LpCtx, LpOutcome};
use proptest::prelude::*;

/// The unfolded two-phase simplex, kept verbatim as the reference.
mod reference {
    use mpq_lp::{LpOutcome, LpSolution, EPS};

    const FEAS_EPS: f64 = 1e-7;
    const PIVOT_EPS: f64 = 1e-11;

    enum RunResult {
        Optimal,
        Unbounded,
    }

    struct Tableau {
        tab: Vec<f64>,
        rhs: Vec<f64>,
        basis: Vec<usize>,
        pivot_buf: Vec<f64>,
        ncols: usize,
    }

    impl Tableau {
        fn num_rows(&self) -> usize {
            self.rhs.len()
        }

        fn row(&self, i: usize) -> &[f64] {
            &self.tab[i * self.ncols..(i + 1) * self.ncols]
        }

        fn pivot(&mut self, row: usize, col: usize, z: &mut [f64]) {
            let nc = self.ncols;
            let pivot = self.tab[row * nc + col];
            debug_assert!(pivot.abs() > PIVOT_EPS);
            let inv = 1.0 / pivot;
            for v in &mut self.tab[row * nc..(row + 1) * nc] {
                *v *= inv;
            }
            self.rhs[row] *= inv;
            self.pivot_buf.clear();
            self.pivot_buf
                .extend_from_slice(&self.tab[row * nc..(row + 1) * nc]);
            let pivot_rhs = self.rhs[row];
            for i in 0..self.num_rows() {
                if i == row {
                    continue;
                }
                let factor = self.tab[i * nc + col];
                if factor.abs() > PIVOT_EPS {
                    let r = &mut self.tab[i * nc..(i + 1) * nc];
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
            self.basis[row] = col;
        }

        fn run(
            &mut self,
            cost: &[f64],
            bounded_objective: bool,
            z: &mut Vec<f64>,
            skipped: &mut Vec<bool>,
        ) -> RunResult {
            z.clear();
            z.extend(cost.iter().map(|c| -c));
            for i in 0..self.num_rows() {
                let cb = cost[self.basis[i]];
                if cb != 0.0 {
                    for (zj, rj) in z.iter_mut().zip(self.row(i)) {
                        *zj += cb * rj;
                    }
                }
            }
            let bland_after = 200 + 20 * (self.num_rows() + self.ncols);
            let mut iter = 0usize;
            skipped.clear();
            skipped.resize(self.ncols, false);
            let mut any_skipped = false;
            loop {
                let use_bland = iter > bland_after;
                let mut entering: Option<usize> = None;
                let mut best = -EPS;
                for (j, &zj) in z.iter().enumerate() {
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
                let mut leave: Option<usize> = None;
                let mut best_ratio = f64::INFINITY;
                for i in 0..self.num_rows() {
                    let coeff = self.tab[i * self.ncols + e];
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
                        skipped[e] = true;
                        any_skipped = true;
                        continue;
                    }
                    return RunResult::Unbounded;
                };
                if any_skipped {
                    skipped.fill(false);
                    any_skipped = false;
                }
                self.pivot(r, e, z);
                iter += 1;
                assert!(iter < 1_000_000, "reference simplex failed to terminate");
            }
        }

        fn column_value(&self, col: usize) -> f64 {
            self.basis
                .iter()
                .position(|&b| b == col)
                .map_or(0.0, |i| self.rhs[i])
        }
    }

    /// Solves with the unfolded `[u | v | slack | artificial]` layout.
    pub fn solve(objective: &[f64], rows: &[(Vec<f64>, f64)]) -> LpOutcome {
        let n = objective.len();
        let m = rows.len();
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
            return if rows.iter().all(|(_, b)| *b >= -EPS) {
                LpOutcome::Optimal(LpSolution {
                    x: vec![],
                    value: 0.0,
                })
            } else {
                LpOutcome::Infeasible
            };
        }
        let slack0 = 2 * n;
        let art0 = slack0 + m;
        let art_rows: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(_, (_, b))| *b < 0.0)
            .map(|(i, _)| i)
            .collect();
        let n_art = art_rows.len();
        let ncols = art0 + n_art;
        let mut t = Tableau {
            tab: vec![0.0; m * ncols],
            rhs: Vec::with_capacity(m),
            basis: Vec::with_capacity(m),
            pivot_buf: Vec::new(),
            ncols,
        };
        for (i, (a, b)) in rows.iter().enumerate() {
            let sign = if *b < 0.0 { -1.0 } else { 1.0 };
            let row = &mut t.tab[i * ncols..(i + 1) * ncols];
            for (j, &aj) in a.iter().enumerate() {
                row[j] = sign * aj;
                row[n + j] = -sign * aj;
            }
            row[slack0 + i] = sign;
            t.rhs.push(sign * b);
            t.basis.push(slack0 + i);
        }
        for (k, &i) in art_rows.iter().enumerate() {
            t.tab[i * ncols + art0 + k] = 1.0;
            t.basis[i] = art0 + k;
        }
        let mut z = Vec::new();
        let mut skipped = Vec::new();
        let mut cost = Vec::new();
        if n_art > 0 {
            cost.clear();
            cost.resize(ncols, 0.0);
            for c in cost.iter_mut().skip(art0) {
                *c = -1.0;
            }
            match t.run(&cost.clone(), true, &mut z, &mut skipped) {
                RunResult::Unbounded => unreachable!("phase-1 objective bounded"),
                RunResult::Optimal => {}
            }
            let art_sum: f64 = (art0..ncols).map(|c| t.column_value(c)).sum();
            if art_sum > FEAS_EPS {
                return LpOutcome::Infeasible;
            }
            let mut i = 0;
            while i < t.num_rows() {
                if t.basis[i] >= art0 {
                    let col = (0..art0).find(|&j| t.tab[i * ncols + j].abs() > 1e-9);
                    match col {
                        Some(j) => {
                            z.clear();
                            z.resize(ncols, 0.0);
                            t.pivot(i, j, &mut z);
                            i += 1;
                        }
                        None => {
                            let last = t.num_rows() - 1;
                            if i != last {
                                let (head, tail) = t.tab.split_at_mut(last * ncols);
                                head[i * ncols..(i + 1) * ncols].copy_from_slice(&tail[..ncols]);
                            }
                            t.tab.truncate(last * ncols);
                            t.rhs.swap_remove(i);
                            t.basis.swap_remove(i);
                        }
                    }
                } else {
                    i += 1;
                }
            }
            let rows_left = t.num_rows();
            for i in 0..rows_left {
                for j in 0..art0 {
                    t.tab[i * art0 + j] = t.tab[i * ncols + j];
                }
            }
            t.tab.truncate(rows_left * art0);
            t.ncols = art0;
        }
        let ncols2 = t.ncols;
        cost.clear();
        cost.resize(ncols2, 0.0);
        for (j, &cj) in objective.iter().enumerate() {
            cost[j] = cj;
            cost[n + j] = -cj;
        }
        match t.run(&cost.clone(), false, &mut z, &mut skipped) {
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
}

/// A coefficient pool that exercises ties, exact negations, degenerate
/// zero rows and awkward magnitudes.
fn coeff() -> impl Strategy<Value = f64> {
    (0usize..12, -4.0..4.0f64).prop_map(|(k, r)| match k {
        0 => 0.0,
        1 => 1.0,
        2 => -1.0,
        3 => 0.5,
        4 => -0.5,
        5 => 2.0,
        6 => -3.0,
        7 => 1e-7,
        8 => -1e-7,
        9 => 0.7071067811865475,
        10 => -0.7071067811865475,
        _ => r,
    })
}

fn assert_bit_identical(objective: &[f64], rows: &[(Vec<f64>, f64)]) -> Result<(), TestCaseError> {
    let folded = LpCtx::new().solve_staged(objective, |stage| {
        for (a, b) in rows {
            stage.push_row(a, *b);
        }
    });
    let unfolded = reference::solve(objective, rows);
    match (&folded, &unfolded) {
        (LpOutcome::Optimal(f), LpOutcome::Optimal(r)) => {
            prop_assert_eq!(
                f.value.to_bits(),
                r.value.to_bits(),
                "objective value bits diverged: {} vs {}",
                f.value,
                r.value
            );
            prop_assert_eq!(f.x.len(), r.x.len());
            for (i, (a, b)) in f.x.iter().zip(&r.x).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "x[{}] bits diverged: {} vs {}",
                    i,
                    a,
                    b
                );
            }
        }
        (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
        (LpOutcome::Unbounded, LpOutcome::Unbounded) => {}
        _ => prop_assert!(
            false,
            "outcome kind diverged: folded {:?} vs reference {:?}",
            folded,
            unfolded
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn folded_simplex_is_bit_identical_to_unfolded(
        n in 1usize..=4,
        rows in prop::collection::vec((prop::collection::vec(coeff(), 4), coeff()), 0..10),
    ) {
        let objective_pool = [1.0, -1.0, 0.5, -2.0, 0.0, 0.7071067811865475];
        // Derive the objective deterministically from the row data so the
        // case space stays wide without another generator dimension.
        let objective: Vec<f64> = (0..n)
            .map(|j| objective_pool[(rows.len() + j) % objective_pool.len()])
            .collect();
        let rows: Vec<(Vec<f64>, f64)> = rows
            .into_iter()
            .map(|(a, b)| (a[..n].to_vec(), b))
            .collect();
        assert_bit_identical(&objective, &rows)?;
    }

    #[test]
    fn folded_simplex_bit_identical_on_geometry_shaped_problems(
        lo in -1.0..0.5f64,
        width in 0.0..2.0f64,
        cuts in prop::collection::vec((coeff(), coeff(), coeff()), 0..6),
    ) {
        // Box rows plus arbitrary cuts — the shape every geometry
        // predicate stages (including exact-tie and negative-rhs rows).
        let mut rows: Vec<(Vec<f64>, f64)> = vec![
            (vec![1.0, 0.0], lo + width),
            (vec![-1.0, 0.0], -lo),
            (vec![0.0, 1.0], lo + width),
            (vec![0.0, -1.0], -lo),
        ];
        for (a0, a1, b) in cuts {
            rows.push((vec![a0, a1], b));
        }
        for objective in [[1.0, 1.0], [-1.0, 0.5], [0.0, -1.0]] {
            assert_bit_identical(&objective, &rows)?;
        }
    }
}
