//! Modified nodal analysis (MNA) system assembly.
//!
//! The MNA unknown vector is `[v_1 … v_N, i_1 … i_M]` — one voltage per
//! non-ground node and one branch current per independent voltage source.
//! Elements *stamp* their constitutive relations into the system matrix
//! and right-hand side; this module provides the generic stamping
//! primitives shared by the DC (real) and AC (complex) engines.

use caffeine_linalg::{Lu, Matrix, Scalar};

use crate::netlist::NodeId;

/// An MNA system under assembly, generic over real (`f64`, DC) or complex
/// ([`caffeine_linalg::Complex64`], AC) arithmetic.
///
/// # Example
///
/// ```
/// use caffeine_circuit::mna::MnaSystem;
/// use caffeine_circuit::NodeId;
///
/// // A 1 V source driving a 2-resistor divider: 1k to mid, 1k to ground.
/// let mut sys: MnaSystem<f64> = MnaSystem::new(2, 1);
/// let (vin, mid) = (NodeId(1), NodeId(2));
/// sys.stamp_vsource(0, vin, NodeId::GROUND, 1.0);
/// sys.stamp_conductance(vin, mid, 1e-3);
/// sys.stamp_conductance(mid, NodeId::GROUND, 1e-3);
/// let x = sys.solve().unwrap();
/// assert!((x[1] - 0.5).abs() < 1e-12); // mid sits at 0.5 V
/// ```
#[derive(Debug, Clone)]
pub struct MnaSystem<T = f64> {
    n_nodes: usize,
    n_branches: usize,
    a: Matrix<T>,
    z: Vec<T>,
}

impl<T: Scalar> MnaSystem<T> {
    /// Creates an empty system for `n_nodes` non-ground nodes and
    /// `n_branches` voltage-source branches.
    pub fn new(n_nodes: usize, n_branches: usize) -> Self {
        let dim = n_nodes + n_branches;
        MnaSystem {
            n_nodes,
            n_branches,
            a: Matrix::zeros(dim, dim),
            z: vec![T::zero(); dim],
        }
    }

    /// Total system dimension.
    pub fn dim(&self) -> usize {
        self.n_nodes + self.n_branches
    }

    /// Number of non-ground nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    #[inline]
    fn idx(&self, n: NodeId) -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            debug_assert!(n.0 - 1 < self.n_nodes, "node id out of range");
            Some(n.0 - 1)
        }
    }

    /// Stamps a conductance `g` between nodes `a` and `b`.
    pub fn stamp_conductance(&mut self, a: NodeId, b: NodeId, g: T) {
        let (ia, ib) = (self.idx(a), self.idx(b));
        if let Some(i) = ia {
            self.a[(i, i)] += g;
        }
        if let Some(j) = ib {
            self.a[(j, j)] += g;
        }
        if let (Some(i), Some(j)) = (ia, ib) {
            self.a[(i, j)] -= g;
            self.a[(j, i)] -= g;
        }
    }

    /// Stamps an independent current: `i` amperes flow out of node `from`
    /// and into node `to`.
    pub fn stamp_current(&mut self, from: NodeId, to: NodeId, i: T) {
        if let Some(f) = self.idx(from) {
            self.z[f] -= i;
        }
        if let Some(t) = self.idx(to) {
            self.z[t] += i;
        }
    }

    /// Stamps a voltage-controlled current source: `gm·(v(cp) − v(cn))`
    /// flows out of `out_pos` and into `out_neg` *through the element*
    /// (i.e. it is drawn from `out_pos`'s node).
    pub fn stamp_vccs(&mut self, out_pos: NodeId, out_neg: NodeId, cp: NodeId, cn: NodeId, gm: T) {
        let (ip, ineg) = (self.idx(out_pos), self.idx(out_neg));
        let (icp, icn) = (self.idx(cp), self.idx(cn));
        if let Some(p) = ip {
            if let Some(c) = icp {
                self.a[(p, c)] += gm;
            }
            if let Some(c) = icn {
                self.a[(p, c)] -= gm;
            }
        }
        if let Some(n) = ineg {
            if let Some(c) = icp {
                self.a[(n, c)] -= gm;
            }
            if let Some(c) = icn {
                self.a[(n, c)] += gm;
            }
        }
    }

    /// Stamps an independent voltage source on branch `branch`
    /// (0-based among voltage sources): `v(pos) − v(neg) = v`.
    pub fn stamp_vsource(&mut self, branch: usize, pos: NodeId, neg: NodeId, v: T) {
        debug_assert!(branch < self.n_branches);
        let row = self.n_nodes + branch;
        if let Some(p) = self.idx(pos) {
            self.a[(row, p)] += T::one();
            self.a[(p, row)] += T::one();
        }
        if let Some(n) = self.idx(neg) {
            self.a[(row, n)] -= T::one();
            self.a[(n, row)] -= T::one();
        }
        self.z[row] += v;
    }

    /// Adds `g` from every node to ground (the classic `gmin` convergence
    /// aid for Newton homotopy).
    pub fn stamp_gmin(&mut self, g: T) {
        for i in 0..self.n_nodes {
            self.a[(i, i)] += g;
        }
    }

    /// Solves the assembled system, returning the raw unknown vector
    /// `[v_1 … v_N, i_1 … i_M]`. The matrix is factored in its own
    /// storage ([`Lu::factor`]): every analysis assembles a fresh
    /// system per solve.
    ///
    /// # Errors
    ///
    /// [`caffeine_linalg::LinalgError::Singular`] when the system is
    /// singular (floating node, voltage-source loop).
    pub fn solve(self) -> Result<Vec<T>, caffeine_linalg::LinalgError> {
        Lu::factor(self.a)?.solve(&self.z)
    }
}

/// Expands a raw MNA solution into per-node voltages indexed by `NodeId`
/// (ground included as entry 0).
pub fn node_voltages<T: Scalar>(solution: &[T], n_nodes: usize) -> Vec<T> {
    let mut v = Vec::with_capacity(n_nodes + 1);
    v.push(T::zero());
    v.extend_from_slice(&solution[..n_nodes]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use caffeine_linalg::Complex64;

    #[test]
    fn resistor_divider_solves() {
        let mut sys: MnaSystem<f64> = MnaSystem::new(2, 1);
        sys.stamp_vsource(0, NodeId(1), NodeId::GROUND, 10.0);
        sys.stamp_conductance(NodeId(1), NodeId(2), 1.0 / 1000.0);
        sys.stamp_conductance(NodeId(2), NodeId::GROUND, 1.0 / 3000.0);
        let x = sys.solve().unwrap();
        assert!((x[0] - 10.0).abs() < 1e-12);
        assert!((x[1] - 7.5).abs() < 1e-12);
        // Branch current: 10V over 4k total = 2.5 mA, flowing out of
        // the source's positive terminal (MNA sign: into the + node).
        assert!((x[2] + 2.5e-3).abs() < 1e-12);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut sys: MnaSystem<f64> = MnaSystem::new(1, 0);
        sys.stamp_current(NodeId::GROUND, NodeId(1), 1e-3);
        sys.stamp_conductance(NodeId(1), NodeId::GROUND, 1e-3);
        let x = sys.solve().unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vccs_acts_as_transconductor() {
        // v(1) set by source; vccs pulls gm*v(1) out of node 2 into ground;
        // node 2 loaded with 1k to ground -> v(2) = -gm*R*v(1).
        let mut sys: MnaSystem<f64> = MnaSystem::new(2, 1);
        sys.stamp_vsource(0, NodeId(1), NodeId::GROUND, 1.0);
        sys.stamp_vccs(NodeId(2), NodeId::GROUND, NodeId(1), NodeId::GROUND, 2e-3);
        sys.stamp_conductance(NodeId(2), NodeId::GROUND, 1e-3);
        let x = sys.solve().unwrap();
        assert!((x[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn gmin_regularizes_floating_node() {
        let mut sys: MnaSystem<f64> = MnaSystem::new(1, 0);
        // Node 1 floats: singular without gmin.
        assert!(sys.clone().solve().is_err());
        sys.stamp_gmin(1e-12);
        let x = sys.solve().unwrap();
        assert_eq!(x[0], 0.0);
    }

    #[test]
    fn complex_rc_divider_has_expected_phase() {
        // Series R, shunt C driven by 1 V AC at ω where ωRC = 1:
        // |H| = 1/√2, phase = −45°.
        let r = 1e3;
        let c = 1e-9;
        let omega = 1.0 / (r * c);
        let mut sys: MnaSystem<Complex64> = MnaSystem::new(2, 1);
        sys.stamp_vsource(0, NodeId(1), NodeId::GROUND, Complex64::ONE);
        sys.stamp_conductance(NodeId(1), NodeId(2), Complex64::from_real(1.0 / r));
        sys.stamp_conductance(NodeId(2), NodeId::GROUND, Complex64::new(0.0, omega * c));
        let x = sys.solve().unwrap();
        let h = x[1];
        assert!((h.abs() - 1.0 / 2.0_f64.sqrt()).abs() < 1e-9);
        assert!((h.arg() + std::f64::consts::FRAC_PI_4).abs() < 1e-9);
    }

    #[test]
    fn node_voltages_prepends_ground() {
        let v = node_voltages(&[1.0, 2.0, 9.0], 2);
        assert_eq!(v, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn two_sources_two_branches() {
        let mut sys: MnaSystem<f64> = MnaSystem::new(2, 2);
        sys.stamp_vsource(0, NodeId(1), NodeId::GROUND, 5.0);
        sys.stamp_vsource(1, NodeId(2), NodeId::GROUND, 3.0);
        sys.stamp_conductance(NodeId(1), NodeId(2), 1e-3);
        let x = sys.solve().unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        // 2 mA flows 1 -> 2.
        assert!((x[2] + 2e-3).abs() < 1e-12);
        assert!((x[3] - 2e-3).abs() < 1e-12);
    }
}
