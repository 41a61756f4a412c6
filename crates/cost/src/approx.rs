//! PWL approximation of arbitrary cost closures on a parameter grid.
//!
//! The paper (Sections 2 and 6.1, citing Hulgeri & Sudarshan) relies on the
//! fact that PWL functions approximate arbitrary cost functions to any
//! desired precision. This module realises that: a scalar closure is
//! evaluated at the grid vertices and linearly interpolated through the
//! vertices of each Kuhn simplex. The approximation is
//!
//! * **exact at every grid vertex**,
//! * **exact everywhere** when the closure is affine, and
//! * converging to the closure as the grid resolution grows (for
//!   continuous closures).
//!
//! Vertex evaluations are cached across simplices (each interior vertex is
//! shared by up to `2ᵈ · d!` simplices), and vector-valued closures are
//! evaluated **once per distinct vertex for all metrics**
//! ([`approximate_vector`]): a closure is evaluated exactly
//! `(resolution + 1)ᵈ` times per lift, however many metrics it prices.
//! Piece regions of general PWL liftings are the grid's interned
//! (`Arc`-shared) simplex polytopes, so lifting never clones simplex
//! geometry.

use crate::{CostVec, LinearFn, LinearPiece, MultiCostFn, PwlFn};
use mpq_geometry::grid::{GridSimplex, ParamGrid};
use std::collections::HashMap;
use std::sync::Arc;

/// Interpolates the unique linear function through the simplex vertices
/// with the given values (`values[i]` at `simplex.vertices[i]`).
///
/// Returns `None` if the simplex is degenerate (never the case for
/// [`ParamGrid`] simplices).
pub fn interpolate_simplex(simplex: &GridSimplex, values: &[f64]) -> Option<LinearFn> {
    let d = simplex.vertices[0].len();
    debug_assert_eq!(values.len(), d + 1);
    // Solve  [vᵢ 1] · [w; b] = valuesᵢ  for i = 0..d, staged as one flat
    // row-major matrix.
    let mut a = Vec::with_capacity((d + 1) * (d + 1));
    for v in &simplex.vertices {
        a.extend_from_slice(v);
        a.push(1.0);
    }
    let sol = mpq_lp::dense::solve_linear_system(a, values.to_vec())?;
    let (w, b) = sol.split_at(d);
    Some(LinearFn::new(w.to_vec(), b[0]))
}

/// Integer key for a grid vertex (exact within one grid).
fn vertex_key(grid: &ParamGrid, v: &[f64]) -> Vec<i64> {
    v.iter()
        .enumerate()
        .map(|(j, &x)| {
            let h = (grid.hi()[j] - grid.lo()[j]) / grid.resolution() as f64;
            ((x - grid.lo()[j]) / h).round() as i64
        })
        .collect()
}

/// Evaluates `f` once per distinct grid vertex and interpolates a linear
/// function on every simplex. Index `i` of the result corresponds to
/// simplex id `i`.
///
/// # Panics
/// Panics, naming the vertex, if `f` returns a non-finite value there: an
/// overflowed cost would otherwise interpolate to NaN pieces that every
/// dominance test silently misreads.
pub fn approximate_scalar(grid: &ParamGrid, mut f: impl FnMut(&[f64]) -> f64) -> Vec<LinearFn> {
    let mut cache: HashMap<Vec<i64>, f64> = HashMap::new();
    grid.simplices()
        .iter()
        .map(|s| {
            let values: Vec<f64> = s
                .vertices
                .iter()
                .map(|v| {
                    *cache.entry(vertex_key(grid, v)).or_insert_with(|| {
                        let c = f(v);
                        assert!(
                            c.is_finite(),
                            "non-finite cost {c} at parameter point {v:?}"
                        );
                        c
                    })
                })
                .collect();
            interpolate_simplex(s, &values).expect("grid simplices are non-degenerate")
        })
        .collect()
}

/// Evaluates the vector-valued closure `f` **once** per distinct grid
/// vertex and interpolates every metric's linear function on every
/// simplex. Returns one `Vec<LinearFn>` per metric, indexed by simplex id
/// — numerically identical to running [`approximate_scalar`] per metric,
/// with `num_metrics`× fewer closure evaluations.
///
/// # Panics
/// Panics, naming the vertex, if `f` returns a non-finite value there
/// (see [`approximate_scalar`]).
pub fn approximate_vector(
    grid: &ParamGrid,
    num_metrics: usize,
    mut f: impl FnMut(&[f64]) -> CostVec,
) -> Vec<Vec<LinearFn>> {
    // Vertex costs live in a flat store; the map resolves a vertex key to
    // its store index exactly once per (simplex, vertex) — metrics then
    // read the stored vector by index, so hashing does not scale with the
    // metric count.
    let mut ids: HashMap<Vec<i64>, usize> = HashMap::new();
    let mut store: Vec<CostVec> = Vec::new();
    let mut metrics: Vec<Vec<LinearFn>> = (0..num_metrics)
        .map(|_| Vec::with_capacity(grid.num_simplices()))
        .collect();
    let mut values = vec![0.0; grid.dim() + 1];
    let mut vertex_ids = vec![0usize; grid.dim() + 1];
    for s in grid.simplices() {
        for (slot, v) in vertex_ids.iter_mut().zip(&s.vertices) {
            *slot = *ids.entry(vertex_key(grid, v)).or_insert_with(|| {
                let c = f(v);
                debug_assert_eq!(c.len(), num_metrics);
                assert!(
                    c.iter().all(|x| x.is_finite()),
                    "non-finite cost {c:?} at parameter point {v:?}"
                );
                store.push(c);
                store.len() - 1
            });
        }
        for m in 0..num_metrics {
            for (slot, &id) in values.iter_mut().zip(&vertex_ids) {
                *slot = store[id][m];
            }
            metrics[m]
                .push(interpolate_simplex(s, &values).expect("grid simplices are non-degenerate"));
        }
    }
    metrics
}

/// Builds a general [`PwlFn`] approximating `f` on the grid. Piece regions
/// are the grid's interned simplex polytopes.
pub fn pwl_from_closure(grid: &ParamGrid, f: impl FnMut(&[f64]) -> f64) -> PwlFn {
    let fns = approximate_scalar(grid, f);
    PwlFn::new(grid.dim(), pieces_on_grid(grid, fns))
}

/// Pairs per-simplex linear functions with the grid's interned simplex
/// regions.
fn pieces_on_grid(grid: &ParamGrid, fns: Vec<LinearFn>) -> Vec<LinearPiece> {
    fns.into_iter()
        .enumerate()
        .map(|(s, lin)| LinearPiece {
            region: Arc::clone(grid.simplex_poly(s)),
            f: lin,
        })
        .collect()
}

/// Builds a [`MultiCostFn`] approximating the vector-valued closure `f`
/// (which must return `num_metrics` values) on the grid, evaluating `f`
/// once per distinct vertex for all metrics.
pub fn multi_from_closure(
    grid: &ParamGrid,
    num_metrics: usize,
    f: impl Fn(&[f64]) -> CostVec,
) -> MultiCostFn {
    let metrics = approximate_vector(grid, num_metrics, f)
        .into_iter()
        .map(|fns| PwlFn::new(grid.dim(), pieces_on_grid(grid, fns)))
        .collect();
    MultiCostFn::new(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_geometry::grid::lattice;

    #[test]
    fn affine_closures_are_exact_everywhere() {
        let grid = ParamGrid::new(&[0.0, 0.0], &[1.0, 1.0], 3).unwrap();
        let f = pwl_from_closure(&grid, |x| 2.0 * x[0] - 3.0 * x[1] + 1.0);
        for p in lattice(&[0.0, 0.0], &[1.0, 1.0], 9) {
            let expect = 2.0 * p[0] - 3.0 * p[1] + 1.0;
            let got = f.eval(&p).unwrap();
            assert!((got - expect).abs() < 1e-9, "at {p:?}: {got} vs {expect}");
        }
    }

    #[test]
    fn product_is_exact_at_vertices() {
        let grid = ParamGrid::new(&[0.0, 0.0], &[1.0, 1.0], 2).unwrap();
        let f = pwl_from_closure(&grid, |x| x[0] * x[1]);
        for v in grid.vertex_points() {
            let got = f.eval(&v).unwrap();
            assert!(
                (got - v[0] * v[1]).abs() < 1e-9,
                "vertex {v:?}: {got} vs {}",
                v[0] * v[1]
            );
        }
    }

    #[test]
    fn refinement_reduces_error() {
        let target = |x: &[f64]| x[0] * x[0];
        let err = |res: usize| {
            let grid = ParamGrid::new(&[0.0], &[1.0], res).unwrap();
            let f = pwl_from_closure(&grid, target);
            lattice(&[0.0], &[1.0], 101)
                .iter()
                .map(|p| (f.eval(p).unwrap() - target(p)).abs())
                .fold(0.0f64, f64::max)
        };
        let coarse = err(2);
        let fine = err(8);
        assert!(
            fine < coarse / 4.0,
            "expected ~quadratic error decay: {coarse} -> {fine}"
        );
    }

    #[test]
    #[should_panic(expected = "non-finite cost inf at parameter point [0.0]")]
    fn non_finite_vertex_cost_panics() {
        let grid = ParamGrid::new(&[0.0], &[1.0], 2).unwrap();
        pwl_from_closure(&grid, |x| 1.0 / x[0]);
    }

    #[test]
    fn multi_closure_builds_all_metrics() {
        let grid = ParamGrid::new(&[0.0], &[1.0], 2).unwrap();
        let mc = multi_from_closure(&grid, 2, |x| vec![x[0], 1.0 - x[0]]);
        assert_eq!(mc.num_metrics(), 2);
        let v = mc.eval(&[0.25]).unwrap();
        assert!((v[0] - 0.25).abs() < 1e-9 && (v[1] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn interpolation_matches_vertex_values() {
        let grid = ParamGrid::new(&[0.0, 0.0], &[2.0, 2.0], 2).unwrap();
        let s = grid.simplex(3);
        let values: Vec<f64> = s.vertices.iter().map(|v| v[0] * 7.0 + v[1]).collect();
        let lin = interpolate_simplex(s, &values).unwrap();
        for (v, val) in s.vertices.iter().zip(&values) {
            assert!((lin.eval(v) - val).abs() < 1e-9);
        }
    }
}
