//! The generic RRPA (Section 5) on a sampled parameter space.
//!
//! The paper's generic algorithm handles **arbitrary** cost functions; the
//! representation of regions and costs is left open. This space implements
//! the generic algorithm for any cost closure — including non-linear ones
//! that PWL spaces only approximate — by discretising the parameter space
//! into a finite sample set:
//!
//! * a cost function is its vector of values at the sample points (exact);
//! * a relevance region is the subset of sample points not yet dominated
//!   (a bitset);
//! * emptiness is a popcount; no LPs are ever solved.
//!
//! The result is a Pareto plan set **for the sampled problem**: the
//! completeness guarantee of Theorem 3 holds exactly at the sample points
//! and approximately in between (for continuous cost functions and a dense
//! enough sample).

use crate::space::MpqSpace;
use mpq_cost::{dominates, dominates_banded, strictly_dominates};
use mpq_geometry::grid::lattice;

/// Cost values at each sample point, flattened as
/// `values[point · m + metric]`.
#[derive(Debug, Clone)]
pub struct SampledCost {
    values: Vec<f64>,
}

/// The set of sample points where a plan is still relevant.
#[derive(Debug, Clone)]
pub struct SampledRegion {
    bits: Vec<u64>,
    alive: usize,
}

impl SampledRegion {
    fn contains(&self, idx: usize) -> bool {
        self.bits[idx / 64] & (1 << (idx % 64)) != 0
    }

    fn clear(&mut self, idx: usize) {
        let mask = 1u64 << (idx % 64);
        if self.bits[idx / 64] & mask != 0 {
            self.bits[idx / 64] &= !mask;
            self.alive -= 1;
        }
    }

    /// Number of surviving sample points.
    pub fn alive(&self) -> usize {
        self.alive
    }
}

/// Generic-RRPA space over a finite sample of the parameter space.
pub struct SampledSpace {
    points: Vec<Vec<f64>>,
    num_metrics: usize,
    dim: usize,
    tol: f64,
}

impl SampledSpace {
    /// A space over explicit sample points.
    ///
    /// # Panics
    /// Panics if `points` is empty or dimensions disagree.
    pub fn from_points(points: Vec<Vec<f64>>, num_metrics: usize) -> Self {
        assert!(!points.is_empty(), "need at least one sample point");
        let dim = points[0].len();
        assert!(points.iter().all(|p| p.len() == dim));
        Self {
            points,
            num_metrics,
            dim,
            tol: 1e-9,
        }
    }

    /// A uniform lattice over the box `[lo, hi]` with
    /// `points_per_axis` samples per axis.
    pub fn lattice(lo: &[f64], hi: &[f64], points_per_axis: usize, num_metrics: usize) -> Self {
        Self::from_points(lattice(lo, hi, points_per_axis), num_metrics)
    }

    /// The sample points.
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    fn value<'c>(&self, cost: &'c SampledCost, point: usize) -> &'c [f64] {
        let m = self.num_metrics;
        &cost.values[point * m..(point + 1) * m]
    }

    /// Index of the sample point nearest to `x` (Euclidean).
    pub fn nearest_point(&self, x: &[f64]) -> usize {
        let dist2 =
            |p: &[f64]| -> f64 { p.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() };
        (0..self.points.len())
            .min_by(|&i, &j| {
                dist2(&self.points[i])
                    .partial_cmp(&dist2(&self.points[j]))
                    .expect("finite distances")
            })
            .expect("non-empty sample set")
    }
}

impl MpqSpace for SampledSpace {
    type Cost = SampledCost;
    type Region = SampledRegion;

    fn num_metrics(&self) -> usize {
        self.num_metrics
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn lift(&self, f: &(dyn Fn(&[f64]) -> Vec<f64> + '_)) -> SampledCost {
        let mut values = Vec::with_capacity(self.points.len() * self.num_metrics);
        for p in &self.points {
            let v = f(p);
            debug_assert_eq!(v.len(), self.num_metrics);
            assert!(
                v.iter().all(|x| x.is_finite()),
                "non-finite cost {v:?} at parameter point {p:?}"
            );
            values.extend(v);
        }
        SampledCost { values }
    }

    fn add(&self, a: &SampledCost, b: &SampledCost) -> SampledCost {
        SampledCost {
            values: a.values.iter().zip(&b.values).map(|(x, y)| x + y).collect(),
        }
    }

    fn eval(&self, cost: &SampledCost, x: &[f64]) -> Vec<f64> {
        self.value(cost, self.nearest_point(x)).to_vec()
    }

    fn full_region(&self) -> SampledRegion {
        let n = self.points.len();
        let mut bits = vec![u64::MAX; n.div_ceil(64)];
        // Clear padding bits past `n`.
        if !n.is_multiple_of(64) {
            *bits.last_mut().expect("at least one word") = (1u64 << (n % 64)) - 1;
        }
        SampledRegion { bits, alive: n }
    }

    fn subtract_dominated(
        &self,
        region: &mut SampledRegion,
        own: &SampledCost,
        competitor: &SampledCost,
        strict: bool,
    ) -> bool {
        let mut changed = false;
        for idx in 0..self.points.len() {
            if !region.contains(idx) {
                continue;
            }
            let comp = self.value(competitor, idx);
            let mine = self.value(own, idx);
            // StD semantics when strict: equal-cost points are kept.
            let remove = if strict {
                strictly_dominates(comp, mine, self.tol)
            } else {
                dominates(comp, mine, self.tol)
            };
            if remove {
                region.clear(idx);
                changed = true;
            }
        }
        changed
    }

    fn region_is_empty(&self, region: &mut SampledRegion) -> bool {
        region.alive == 0
    }

    fn dominates_everywhere(
        &self,
        dominator: &SampledCost,
        dominated: &SampledCost,
        band: f64,
    ) -> bool {
        (0..self.points.len()).all(|idx| {
            dominates_banded(
                self.value(dominator, idx),
                self.value(dominated, idx),
                band,
                self.tol,
            )
        })
    }

    fn region_contains(&self, region: &SampledRegion, x: &[f64]) -> bool {
        region.contains(self.nearest_point(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SampledSpace {
        SampledSpace::lattice(&[0.0], &[1.0], 11, 2)
    }

    #[test]
    fn lift_is_exact_at_samples() {
        let s = space();
        // A genuinely non-linear cost: quadratic time, reciprocal-ish fees.
        let c = s.lift(&|x: &[f64]| vec![x[0] * x[0], 1.0 / (1.0 + x[0])]);
        let v = s.eval(&c, &[0.5]);
        assert!((v[0] - 0.25).abs() < 1e-12);
        assert!((v[1] - 1.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-finite cost [NaN, 1.0] at parameter point [0.0]")]
    fn non_finite_sample_cost_panics() {
        space().lift(&|x: &[f64]| vec![0.0 / x[0], 1.0]);
    }

    #[test]
    fn subtract_and_emptiness() {
        let s = space();
        let own = s.lift(&|x: &[f64]| vec![x[0], 1.0]);
        let comp = s.lift(&|_x: &[f64]| vec![0.5, 0.5]);
        // comp dominates own where 0.5 ≤ x and 0.5 ≤ 1 → x ≥ 0.5: 6 points.
        let mut rr = s.full_region();
        assert!(s.subtract_dominated(&mut rr, &own, &comp, false));
        assert_eq!(rr.alive(), 5);
        assert!(s.region_contains(&rr, &[0.0]));
        assert!(!s.region_contains(&rr, &[1.0]));
        assert!(!s.region_is_empty(&mut rr));
        // A universal dominator empties the region.
        let best = s.lift(&|_x: &[f64]| vec![0.0, 0.0]);
        s.subtract_dominated(&mut rr, &own, &best, false);
        assert!(s.region_is_empty(&mut rr));
        assert!(s.dominates_everywhere(&best, &own, 1.0));
    }

    #[test]
    fn padding_bits_do_not_leak() {
        // 11 points → one u64 word with 53 padding bits that must be zero.
        let s = space();
        let rr = s.full_region();
        assert_eq!(rr.alive(), 11);
        assert_eq!(rr.bits[0].count_ones(), 11);
    }

    #[test]
    fn two_dimensional_lattice() {
        let s = SampledSpace::lattice(&[0.0, 0.0], &[1.0, 1.0], 4, 1);
        assert_eq!(s.points().len(), 16);
        let c = s.lift(&|x: &[f64]| vec![x[0] + x[1]]);
        let v = s.eval(&c, &[1.0, 1.0]);
        assert!((v[0] - 2.0).abs() < 1e-12);
    }
}
