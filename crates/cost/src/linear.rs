//! Single linear cost pieces.

use mpq_lp::dense::dot;

/// A linear function `x ↦ b + w · x` on the parameter space.
///
/// This is one *piece* of a piecewise-linear cost function: the paper's
/// Figure 9 stores, per piece, a weight vector `w` (one weight per
/// parameter) and a scalar base cost `b`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearFn {
    /// Weight per parameter.
    pub w: Vec<f64>,
    /// Base cost.
    pub b: f64,
}

impl LinearFn {
    /// Creates `b + w · x`.
    pub fn new(w: Vec<f64>, b: f64) -> Self {
        Self { w, b }
    }

    /// Number of parameters.
    pub fn dim(&self) -> usize {
        self.w.len()
    }

    /// Evaluates the function at `x`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.b + dot(&self.w, x)
    }

    /// Component-wise sum (Figure 11 of the paper: weight vectors and base
    /// costs add within a shared linear region).
    pub fn add(&self, other: &LinearFn) -> LinearFn {
        debug_assert_eq!(self.dim(), other.dim());
        LinearFn {
            w: self.w.iter().zip(&other.w).map(|(a, b)| a + b).collect(),
            b: self.b + other.b,
        }
    }

    /// Parameter-value-independent dominance (§6.3 of the paper): true iff
    /// every weight and the base cost of `self` are ≤ those of `other`,
    /// which implies `self(x) ≤ other(x)` for all non-negative `x`.
    pub fn dominates_pvi(&self, other: &LinearFn, tol: f64) -> bool {
        self.b <= other.b + tol && self.w.iter().zip(&other.w).all(|(a, b)| *a <= *b + tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_and_add() {
        let f = LinearFn::new(vec![2.0, -1.0], 3.0);
        assert_eq!(f.eval(&[1.0, 1.0]), 4.0);
        let g = LinearFn::new(vec![1.0, 1.0], -1.0);
        let s = f.add(&g);
        assert_eq!(
            s.eval(&[1.0, 1.0]),
            f.eval(&[1.0, 1.0]) + g.eval(&[1.0, 1.0])
        );
    }

    #[test]
    fn pvi_dominance() {
        let cheap = LinearFn::new(vec![1.0, 1.0], 0.0);
        let pricey = LinearFn::new(vec![2.0, 1.0], 1.0);
        assert!(cheap.dominates_pvi(&pricey, 1e-9));
        assert!(!pricey.dominates_pvi(&cheap, 1e-9));
        // Crossing functions dominate p.v.i. in neither direction.
        let a = LinearFn::new(vec![1.0, 0.0], 1.0);
        let b = LinearFn::new(vec![0.0, 1.0], 1.0);
        assert!(!a.dominates_pvi(&b, 1e-9) && !b.dominates_pvi(&a, 1e-9));
        // The p.v.i. test is sufficient, not necessary: a larger weight
        // can be compensated by a larger base cost on a bounded box
        // (2x ≤ 1x + 5 on [0, 1]), which it does not see.
        let steep = LinearFn::new(vec![2.0], 0.0);
        let offset = LinearFn::new(vec![1.0], 5.0);
        assert!(!steep.dominates_pvi(&offset, 1e-9));
    }
}
