//! Simplicial decomposition of the parameter space.
//!
//! The PWL-MPQ problem assumes every cost function is linear on convex
//! polytopes that partition the parameter space (Theorem 1 of the paper).
//! The optimizer realises this by fixing one **shared** partition up front:
//! a uniform grid over the parameter box whose cells are split into
//! simplices by the Kuhn (Freudenthal) triangulation. Arbitrary cost
//! closures are then approximated by linear interpolation through each
//! simplex's vertices — exact at all grid vertices, and exact everywhere
//! for functions that are already linear.
//!
//! Aligning every cost function on the same simplices means that
//!
//! * adding cost functions never multiplies piece counts (Figure 11 of the
//!   paper reduces to per-simplex weight addition), and
//! * every dominance region and relevance-region cutout is confined to a
//!   single simplex, which keeps emptiness checks local.

use crate::Polytope;
use std::sync::Arc;

/// One simplex of the triangulated parameter grid.
#[derive(Debug, Clone)]
pub struct GridSimplex {
    /// Index of this simplex in [`ParamGrid::simplices`].
    pub id: usize,
    /// The `dim + 1` vertices spanning the simplex.
    pub vertices: Vec<Vec<f64>>,
    /// H-representation of the simplex (cell box + ordering constraints).
    pub polytope: Polytope,
    /// The barycentre (used as a relevance point).
    pub centroid: Vec<f64>,
}

/// A uniform grid over a parameter box with Kuhn-triangulated cells.
///
/// With `d` parameters and `resolution` cells per axis the grid has
/// `resolutionᵈ · d!` simplices. The paper's experiments use one or two
/// parameters, where this stays tiny; dimensions up to [`MAX_DIM`] are
/// supported.
///
/// # Example
/// ```
/// use mpq_geometry::grid::ParamGrid;
/// let grid = ParamGrid::new(&[0.0, 0.0], &[1.0, 1.0], 2).unwrap();
/// assert_eq!(grid.num_simplices(), 2 * 2 * 2); // 4 cells × 2 triangles
/// let id = grid.locate(&[0.9, 0.1]);
/// assert!(grid.simplex(id).polytope.contains_point(&[0.9, 0.1]));
/// ```
#[derive(Debug)]
pub struct ParamGrid {
    lo: Vec<f64>,
    hi: Vec<f64>,
    resolution: usize,
    dim: usize,
    cell_size: Vec<f64>,
    perms: Vec<Vec<usize>>,
    simplices: Vec<GridSimplex>,
    /// Interned simplex polytopes, in simplex-id order: piecewise cost
    /// algebra holds piece regions behind these `Arc`s, so aligned
    /// decompositions share one polytope per simplex instead of cloning it
    /// per plan per metric.
    poly_arcs: Vec<Arc<Polytope>>,
}

/// Largest supported parameter dimension (`d!` growth caps practicality).
pub const MAX_DIM: usize = 5;

/// Errors from [`ParamGrid::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// The box bounds had different lengths or `lo ≥ hi` somewhere.
    InvalidBox,
    /// `resolution` was zero.
    ZeroResolution,
    /// The dimension was zero or exceeded [`MAX_DIM`].
    UnsupportedDimension,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::InvalidBox => write!(f, "parameter box must satisfy lo < hi"),
            GridError::ZeroResolution => write!(f, "grid resolution must be at least 1"),
            GridError::UnsupportedDimension => {
                write!(f, "parameter dimension must be between 1 and {MAX_DIM}")
            }
        }
    }
}

impl std::error::Error for GridError {}

fn permutations(d: usize) -> Vec<Vec<usize>> {
    fn rec(prefix: &mut Vec<usize>, remaining: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if remaining.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..remaining.len() {
            let v = remaining.remove(i);
            prefix.push(v);
            rec(prefix, remaining, out);
            prefix.pop();
            remaining.insert(i, v);
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut (0..d).collect(), &mut out);
    out
}

impl ParamGrid {
    /// Builds the triangulated grid over the box `[lo, hi]` with
    /// `resolution` cells per axis.
    pub fn new(lo: &[f64], hi: &[f64], resolution: usize) -> Result<Self, GridError> {
        let dim = lo.len();
        if hi.len() != dim || lo.iter().zip(hi).any(|(l, h)| l >= h) {
            return Err(GridError::InvalidBox);
        }
        if resolution == 0 {
            return Err(GridError::ZeroResolution);
        }
        if dim == 0 || dim > MAX_DIM {
            return Err(GridError::UnsupportedDimension);
        }
        let cell_size: Vec<f64> = lo
            .iter()
            .zip(hi)
            .map(|(l, h)| (h - l) / resolution as f64)
            .collect();
        let perms = permutations(dim);
        let num_cells = resolution.pow(dim as u32);
        let mut simplices = Vec::with_capacity(num_cells * perms.len());
        for cell in 0..num_cells {
            let coords = Self::cell_coords(cell, dim, resolution);
            let corner: Vec<f64> = (0..dim)
                .map(|j| lo[j] + coords[j] as f64 * cell_size[j])
                .collect();
            for perm in &perms {
                let id = simplices.len();
                simplices.push(Self::build_simplex(id, &corner, &cell_size, perm, dim));
            }
        }
        let poly_arcs = simplices
            .iter()
            .map(|s| Arc::new(s.polytope.clone()))
            .collect();
        Ok(Self {
            lo: lo.to_vec(),
            hi: hi.to_vec(),
            resolution,
            dim,
            cell_size,
            perms,
            simplices,
            poly_arcs,
        })
    }

    fn cell_coords(mut cell: usize, dim: usize, resolution: usize) -> Vec<usize> {
        let mut coords = vec![0; dim];
        for c in coords.iter_mut() {
            *c = cell % resolution;
            cell /= resolution;
        }
        coords
    }

    fn build_simplex(
        id: usize,
        corner: &[f64],
        cell_size: &[f64],
        perm: &[usize],
        dim: usize,
    ) -> GridSimplex {
        // Vertex chain: start at the cell corner and walk one axis at a
        // time in the order given by the permutation. The resulting simplex
        // contains exactly the points whose fractional cell coordinates
        // satisfy f_{perm[0]} ≥ f_{perm[1]} ≥ … ≥ f_{perm[d−1]}.
        let mut vertices = Vec::with_capacity(dim + 1);
        let mut v = corner.to_vec();
        vertices.push(v.clone());
        for &axis in perm {
            v[axis] += cell_size[axis];
            vertices.push(v.clone());
        }
        let mut polytope = Polytope::from_box(
            corner,
            &corner
                .iter()
                .zip(cell_size)
                .map(|(c, h)| c + h)
                .collect::<Vec<_>>(),
        );
        for pair in perm.windows(2) {
            let (hi_axis, lo_axis) = (pair[0], pair[1]);
            // f_hi ≥ f_lo  ⇔  −x_hi/h_hi + x_lo/h_lo ≤ −c_hi/h_hi + c_lo/h_lo.
            let mut a = vec![0.0; dim];
            a[hi_axis] = -1.0 / cell_size[hi_axis];
            a[lo_axis] = 1.0 / cell_size[lo_axis];
            let b = -corner[hi_axis] / cell_size[hi_axis] + corner[lo_axis] / cell_size[lo_axis];
            polytope.add_inequality(a, b);
        }
        let centroid: Vec<f64> = (0..dim)
            .map(|j| vertices.iter().map(|v| v[j]).sum::<f64>() / (dim + 1) as f64)
            .collect();
        GridSimplex {
            id,
            vertices,
            polytope,
            centroid,
        }
    }

    /// Parameter dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Cells per axis.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// Lower box corner.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper box corner.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Total number of simplices.
    pub fn num_simplices(&self) -> usize {
        self.simplices.len()
    }

    /// All simplices in id order.
    pub fn simplices(&self) -> &[GridSimplex] {
        &self.simplices
    }

    /// The simplex with the given id.
    pub fn simplex(&self, id: usize) -> &GridSimplex {
        &self.simplices[id]
    }

    /// The interned (`Arc`-shared) polytope of one simplex — identical
    /// content to [`GridSimplex::polytope`]; piece algebra shares these
    /// instead of cloning.
    pub fn simplex_poly(&self, id: usize) -> &Arc<Polytope> {
        &self.poly_arcs[id]
    }

    /// The whole parameter box as a polytope.
    pub fn box_polytope(&self) -> Polytope {
        Polytope::from_box(&self.lo, &self.hi)
    }

    /// Finds a simplex containing `x` (points are clamped into the box;
    /// points on shared faces belong to one of the adjacent simplices).
    pub fn locate(&self, x: &[f64]) -> usize {
        debug_assert_eq!(x.len(), self.dim);
        let mut cell_idx = 0usize;
        let mut stride = 1usize;
        let mut frac = vec![0.0; self.dim];
        for j in 0..self.dim {
            let t = ((x[j] - self.lo[j]) / self.cell_size[j])
                .clamp(0.0, self.resolution as f64 - 1e-12);
            let cell = (t.floor() as usize).min(self.resolution - 1);
            frac[j] = t - cell as f64;
            cell_idx += cell * stride;
            stride *= self.resolution;
        }
        // The containing Kuhn simplex sorts axes by descending fraction.
        let mut order: Vec<usize> = (0..self.dim).collect();
        order.sort_by(|&i, &j| frac[j].partial_cmp(&frac[i]).expect("finite fractions"));
        let perm_idx = self
            .perms
            .iter()
            .position(|p| p == &order)
            .expect("every axis ordering is a generated permutation");
        cell_idx * self.perms.len() + perm_idx
    }

    /// All grid vertices, `(resolution + 1)ᵈ` points. These are natural
    /// relevance points: PWL functions interpolated on the grid are exact
    /// there.
    pub fn vertex_points(&self) -> Vec<Vec<f64>> {
        lattice(&self.lo, &self.hi, self.resolution + 1)
    }
}

/// A uniform lattice of `points_per_axis ≥ 2` points per axis spanning the
/// box `[lo, hi]` (endpoints included).
pub fn lattice(lo: &[f64], hi: &[f64], points_per_axis: usize) -> Vec<Vec<f64>> {
    assert!(points_per_axis >= 2, "need at least the two endpoints");
    let dim = lo.len();
    let total = points_per_axis.pow(dim as u32);
    let mut out = Vec::with_capacity(total);
    for mut idx in 0..total {
        let mut p = Vec::with_capacity(dim);
        for j in 0..dim {
            let step = idx % points_per_axis;
            idx /= points_per_axis;
            let t = step as f64 / (points_per_axis - 1) as f64;
            p.push(lo[j] + t * (hi[j] - lo[j]));
        }
        out.push(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_dimensional_grid_is_segments() {
        let g = ParamGrid::new(&[0.0], &[1.0], 4).unwrap();
        assert_eq!(g.num_simplices(), 4);
        let s = g.simplex(g.locate(&[0.3]));
        assert!(s.polytope.contains_point(&[0.3]));
        assert_eq!(s.vertices.len(), 2);
    }

    #[test]
    fn two_dimensional_counts() {
        let g = ParamGrid::new(&[0.0, 0.0], &[1.0, 1.0], 3).unwrap();
        assert_eq!(g.num_simplices(), 9 * 2);
        assert_eq!(g.simplex(0).vertices.len(), 3);
    }

    #[test]
    fn three_dimensional_counts() {
        let g = ParamGrid::new(&[0.0; 3], &[1.0; 3], 2).unwrap();
        assert_eq!(g.num_simplices(), 8 * 6);
    }

    #[test]
    fn locate_agrees_with_polytope_membership() {
        let g = ParamGrid::new(&[0.0, 0.0], &[1.0, 2.0], 3).unwrap();
        for p in lattice(&[0.01, 0.01], &[0.99, 1.99], 7) {
            let id = g.locate(&p);
            assert!(
                g.simplex(id).polytope.contains_point(&p),
                "point {p:?} not in located simplex {id}"
            );
        }
    }

    #[test]
    fn locate_handles_boundary_and_outside_points() {
        let g = ParamGrid::new(&[0.0, 0.0], &[1.0, 1.0], 2).unwrap();
        for p in [
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![0.5, 0.5],
            vec![-0.3, 0.5],
            vec![0.5, 7.0],
        ] {
            let id = g.locate(&p);
            assert!(id < g.num_simplices());
            // Clamped point must be inside.
            let clamped: Vec<f64> = p
                .iter()
                .enumerate()
                .map(|(j, &v)| v.clamp(g.lo()[j], g.hi()[j]))
                .collect();
            assert!(g.simplex(id).polytope.contains_point(&clamped));
        }
    }

    #[test]
    fn simplices_tile_the_box() {
        let ctx = mpq_lp::LpCtx::new();
        let g = ParamGrid::new(&[0.0, 0.0], &[1.0, 1.0], 2).unwrap();
        let polys: Vec<Polytope> = g.simplices().iter().map(|s| s.polytope.clone()).collect();
        assert!(crate::difference_is_empty(&ctx, &g.box_polytope(), &polys));
    }

    #[test]
    fn simplex_interiors_are_disjoint() {
        let ctx = mpq_lp::LpCtx::new();
        let g = ParamGrid::new(&[0.0, 0.0], &[1.0, 1.0], 2).unwrap();
        let ss = g.simplices();
        for i in 0..ss.len() {
            for j in (i + 1)..ss.len() {
                assert!(
                    ss[i]
                        .polytope
                        .is_empty_with(&ctx, ss[j].polytope.halfspaces()),
                    "simplices {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn centroid_is_interior() {
        let g = ParamGrid::new(&[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0], 2).unwrap();
        for s in g.simplices() {
            assert!(s.polytope.contains_point(&s.centroid));
        }
    }

    #[test]
    fn vertex_points_count() {
        let g = ParamGrid::new(&[0.0, 0.0], &[1.0, 1.0], 3).unwrap();
        assert_eq!(g.vertex_points().len(), 16);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            ParamGrid::new(&[0.0], &[0.0], 2).unwrap_err(),
            GridError::InvalidBox
        );
        assert_eq!(
            ParamGrid::new(&[0.0], &[1.0], 0).unwrap_err(),
            GridError::ZeroResolution
        );
        assert_eq!(
            ParamGrid::new(&[0.0; 6], &[1.0; 6], 1).unwrap_err(),
            GridError::UnsupportedDimension
        );
    }

    #[test]
    fn lattice_endpoints() {
        let pts = lattice(&[0.0], &[1.0], 3);
        assert_eq!(pts, vec![vec![0.0], vec![0.5], vec![1.0]]);
    }
}
