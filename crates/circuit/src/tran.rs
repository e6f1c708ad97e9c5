//! Transient analysis: fixed-step implicit integration of the nonlinear
//! network.
//!
//! The paper's flow runs "three simulations" per sample (operating point,
//! small-signal, and a large-signal analysis). This module supplies the
//! third: capacitors are replaced by their backward-Euler companion model
//! (`i = C·(v_{n+1} − v_n)/Δt`, a conductance `C/Δt` in parallel with a
//! history current) and each time step is solved with the same damped
//! Newton iteration the DC engine uses. Backward Euler is
//! unconditionally stable and slightly dissipative — exactly what a
//! slew-rate measurement wants; use small `dt` when waveform fidelity
//! matters.
//!
//! Time-varying stimulus is injected through a closure overriding the DC
//! value of any voltage source, so netlists need no special source
//! elements:
//!
//! ```
//! use caffeine_circuit::dc::{solve_dc, DcOptions};
//! use caffeine_circuit::tran::{solve_tran, TranOptions};
//! use caffeine_circuit::{Element, Netlist, NodeId};
//!
//! # fn main() -> Result<(), caffeine_circuit::CircuitError> {
//! // RC low-pass driven by a step.
//! let mut nl = Netlist::new();
//! let vin = nl.node("in");
//! let out = nl.node("out");
//! nl.add(Element::VSource { pos: vin, neg: NodeId::GROUND, dc: 0.0, ac: 0.0 });
//! nl.add(Element::Resistor { a: vin, b: out, ohms: 1e3 });
//! nl.add(Element::Capacitor { a: out, b: NodeId::GROUND, farads: 1e-9 });
//! let dc = solve_dc(&nl, &DcOptions::default())?;
//! let opts = TranOptions { t_stop: 5e-6, dt: 10e-9, ..TranOptions::default() };
//! let tran = solve_tran(&nl, &dc, &opts, |branch, _t| {
//!     if branch == 0 { Some(1.0) } else { None } // 1 V step at t = 0
//! })?;
//! let v_end = *tran.voltages_of(out).last().unwrap();
//! assert!((v_end - 1.0).abs() < 0.01); // settled after 5 time constants
//! # Ok(())
//! # }
//! ```

use crate::dc::DcSolution;
use crate::mna::{node_voltages, MnaSystem};
use crate::mos::MosPolarity;
use crate::netlist::{Element, Netlist, NodeId};
use crate::CircuitError;

/// Transient analysis options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranOptions {
    /// End time, seconds.
    pub t_stop: f64,
    /// Fixed time step, seconds.
    pub dt: f64,
    /// Newton iteration budget per time step.
    pub max_newton: usize,
    /// Convergence threshold on the Newton update, volts.
    pub vtol: f64,
    /// gmin left in the circuit for conditioning, siemens.
    pub gmin: f64,
}

impl Default for TranOptions {
    fn default() -> Self {
        TranOptions {
            t_stop: 1e-6,
            dt: 1e-9,
            max_newton: 50,
            vtol: 1e-9,
            gmin: 1e-12,
        }
    }
}

/// A transient waveform set.
#[derive(Debug, Clone)]
pub struct TranResult {
    /// Time points (the initial point `t = 0` is the DC solution).
    pub times: Vec<f64>,
    /// Node voltages per time point, indexed by `NodeId.0` (ground first).
    pub node_voltages: Vec<Vec<f64>>,
}

impl TranResult {
    /// The waveform of one node across the sweep.
    pub fn voltages_of(&self, node: NodeId) -> Vec<f64> {
        self.node_voltages.iter().map(|v| v[node.0]).collect()
    }

    /// Maximum |dV/dt| of a node over the run — a direct slew-rate
    /// estimator for a full-swing transition.
    pub fn max_slope(&self, node: NodeId) -> f64 {
        let v = self.voltages_of(node);
        let mut best = 0.0f64;
        for i in 1..v.len() {
            let dt = self.times[i] - self.times[i - 1];
            if dt > 0.0 {
                best = best.max(((v[i] - v[i - 1]) / dt).abs());
            }
        }
        best
    }
}

/// Runs a transient analysis from a DC operating point.
///
/// `stimulus(branch, t)` may override the DC value of the `branch`-th
/// voltage source (netlist order) at time `t`; returning `None` keeps the
/// bias value. The initial condition is the provided DC solution.
///
/// # Errors
///
/// * [`CircuitError::InvalidDevice`] for a non-positive `dt`/`t_stop`.
/// * [`CircuitError::DcNoConvergence`] when a time step's Newton loop
///   fails (reported with the global iteration count).
/// * [`CircuitError::SingularSystem`] for structurally singular systems.
pub fn solve_tran(
    netlist: &Netlist,
    initial: &DcSolution,
    options: &TranOptions,
    stimulus: impl Fn(usize, f64) -> Option<f64>,
) -> Result<TranResult, CircuitError> {
    if !(options.dt > 0.0) || !(options.t_stop > 0.0) {
        return Err(CircuitError::InvalidDevice(
            "transient needs positive dt and t_stop".into(),
        ));
    }
    netlist.validate()?;
    let n_nodes = netlist.n_nodes() - 1;
    let n_branches = netlist.n_vsources();

    let mut volts = initial.node_voltages.clone();
    let mut times = vec![0.0];
    let mut waves = vec![volts.clone()];
    let mut total_newton = 0usize;

    let steps = (options.t_stop / options.dt).ceil() as usize;
    for step in 1..=steps {
        let t = step as f64 * options.dt;
        let prev = volts.clone();
        // Newton on the companion network.
        let mut converged = false;
        for _ in 0..options.max_newton {
            total_newton += 1;
            let sys = assemble_tran(
                netlist, n_nodes, n_branches, &volts, &prev, options, t, &stimulus,
            );
            let x = sys.solve().map_err(CircuitError::from)?;
            let new_v = node_voltages(&x, n_nodes);
            let mut max_dv = 0.0f64;
            for i in 0..netlist.n_nodes() {
                max_dv = max_dv.max((new_v[i] - volts[i]).abs());
            }
            // Damping mirrors the DC solver.
            let alpha = if max_dv > 0.5 { 0.5 / max_dv } else { 1.0 };
            for i in 0..netlist.n_nodes() {
                volts[i] += alpha * (new_v[i] - volts[i]);
            }
            if !volts.iter().all(|v| v.is_finite()) {
                return Err(CircuitError::DcNoConvergence {
                    iterations: total_newton,
                    residual: f64::INFINITY,
                });
            }
            if max_dv < options.vtol {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(CircuitError::DcNoConvergence {
                iterations: total_newton,
                residual: f64::NAN,
            });
        }
        times.push(t);
        waves.push(volts.clone());
    }
    Ok(TranResult {
        times,
        node_voltages: waves,
    })
}

/// Assembles the companion-model MNA system for one Newton iteration of
/// one time step.
#[allow(clippy::too_many_arguments)]
fn assemble_tran(
    netlist: &Netlist,
    n_nodes: usize,
    n_branches: usize,
    volts: &[f64],
    prev: &[f64],
    options: &TranOptions,
    t: f64,
    stimulus: &impl Fn(usize, f64) -> Option<f64>,
) -> MnaSystem<f64> {
    let mut sys = MnaSystem::new(n_nodes, n_branches);
    sys.stamp_gmin(options.gmin);
    let mut branch = 0usize;
    for e in netlist.elements() {
        match *e {
            Element::Resistor { a, b, ohms } => {
                sys.stamp_conductance(a, b, 1.0 / ohms);
            }
            Element::Capacitor { a, b, farads } => {
                // Backward Euler companion: geq = C/dt, history current
                // ieq = geq·(v_a − v_b)_prev flowing a→b internally.
                let geq = farads / options.dt;
                sys.stamp_conductance(a, b, geq);
                let v_prev = prev[a.0] - prev[b.0];
                // i = geq·v − geq·v_prev: the history term is a current
                // source pushing geq·v_prev INTO a (out of b).
                sys.stamp_current(b, a, geq * v_prev);
            }
            Element::VSource { pos, neg, dc, .. } => {
                let v = stimulus(branch, t).unwrap_or(dc);
                sys.stamp_vsource(branch, pos, neg, v);
                branch += 1;
            }
            Element::ISource { from, to, dc } => {
                sys.stamp_current(from, to, dc);
            }
            Element::Vccs {
                out_pos,
                out_neg,
                cp,
                cn,
                gm,
            } => {
                sys.stamp_vccs(out_pos, out_neg, cp, cn, gm);
            }
            Element::Mosfet { d, g, s, instance } => {
                let polarity = instance.process.polarity;
                let (vc, vo) = Netlist::mos_control_voltages(d, g, s, polarity, volts);
                let op = instance.evaluate(vc, vo);
                let ieq = op.id - op.gm * vc - op.gds * vo;
                match polarity {
                    MosPolarity::Nmos => {
                        sys.stamp_vccs(d, s, g, s, op.gm);
                        sys.stamp_conductance(d, s, op.gds);
                        sys.stamp_current(d, s, ieq);
                    }
                    MosPolarity::Pmos => {
                        sys.stamp_vccs(s, d, s, g, op.gm);
                        sys.stamp_conductance(s, d, op.gds);
                        sys.stamp_current(s, d, ieq);
                    }
                }
                // Device capacitances, backward-Euler companions around
                // the present bias.
                for (na, nb, c) in [(g, s, op.cgs), (g, d, op.cgd), (d, NodeId::GROUND, op.cdb)] {
                    if c > 0.0 {
                        let geq = c / options.dt;
                        sys.stamp_conductance(na, nb, geq);
                        let v_prev = prev[na.0] - prev[nb.0];
                        sys.stamp_current(nb, na, geq * v_prev);
                    }
                }
            }
        }
    }
    sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{solve_dc, DcOptions};

    /// A source at `dc` volts driving an RC low-pass.
    fn rc_step(dc: f64) -> (Netlist, NodeId) {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.add(Element::VSource {
            pos: vin,
            neg: NodeId::GROUND,
            dc,
            ac: 0.0,
        });
        nl.add(Element::Resistor {
            a: vin,
            b: out,
            ohms: 1e3,
        });
        nl.add(Element::Capacitor {
            a: out,
            b: NodeId::GROUND,
            farads: 1e-9,
        });
        (nl, out)
    }

    #[test]
    fn rc_step_matches_exponential() {
        let (nl, out) = rc_step(0.0);
        let dc = solve_dc(&nl, &DcOptions::default()).unwrap();
        let tau = 1e3 * 1e-9;
        let opts = TranOptions {
            t_stop: 5.0 * tau,
            dt: tau / 200.0,
            ..TranOptions::default()
        };
        let tran = solve_tran(
            &nl,
            &dc,
            &opts,
            |b, _| if b == 0 { Some(1.0) } else { None },
        )
        .unwrap();
        for (k, &t) in tran.times.iter().enumerate() {
            let expect = 1.0 - (-t / tau).exp();
            let got = tran.node_voltages[k][out.0];
            // Backward Euler at dt = tau/200: sub-1% local truncation.
            assert!((got - expect).abs() < 0.01, "t = {t}: {got} vs {expect}");
        }
    }

    #[test]
    fn constant_bias_stays_at_dc() {
        // Pre-charge: source at 0.7 V, start from its DC solution.
        let (nl2, out) = rc_step(0.7);
        let dc = solve_dc(&nl2, &DcOptions::default()).unwrap();
        let opts = TranOptions {
            t_stop: 1e-6,
            dt: 1e-8,
            ..TranOptions::default()
        };
        let tran = solve_tran(&nl2, &dc, &opts, |_, _| None).unwrap();
        for v in tran.voltages_of(out) {
            assert!((v - 0.7).abs() < 1e-6, "drifted to {v}");
        }
    }

    #[test]
    fn current_source_ramps_capacitor_linearly() {
        // I into C: dV/dt = I/C exactly (the slew-rate primitive).
        let mut nl = Netlist::new();
        let n = nl.node("n");
        nl.add(Element::ISource {
            from: NodeId::GROUND,
            to: n,
            dc: 1e-6,
        });
        nl.add(Element::Capacitor {
            a: n,
            b: NodeId::GROUND,
            farads: 1e-9,
        });
        nl.add(Element::Resistor {
            a: n,
            b: NodeId::GROUND,
            ohms: 1e12,
        });
        // Start from an artificial zero state (the true DC would be 1 MV).
        let dc = DcSolution {
            node_voltages: vec![0.0, 0.0],
            vsource_currents: vec![],
            mos_ops: vec![],
            iterations: 0,
        };
        let opts = TranOptions {
            t_stop: 1e-5,
            dt: 1e-8,
            gmin: 1e-15,
            ..TranOptions::default()
        };
        let tran = solve_tran(&nl, &dc, &opts, |_, _| None).unwrap();
        let slope = tran.max_slope(n);
        let expect = 1e-6 / 1e-9; // 1000 V/s
        assert!(
            (slope - expect).abs() / expect < 0.01,
            "slope {slope} vs {expect}"
        );
    }

    #[test]
    fn bad_options_rejected() {
        let (nl, _) = rc_step(0.0);
        let dc = solve_dc(&nl, &DcOptions::default()).unwrap();
        let bad = TranOptions {
            dt: 0.0,
            ..TranOptions::default()
        };
        assert!(solve_tran(&nl, &dc, &bad, |_, _| None).is_err());
    }

    #[test]
    fn time_varying_stimulus_is_applied_per_step() {
        let (nl, out) = rc_step(0.0);
        let dc = solve_dc(&nl, &DcOptions::default()).unwrap();
        let tau = 1e-6;
        let opts = TranOptions {
            t_stop: 4.0 * tau,
            dt: tau / 100.0,
            ..TranOptions::default()
        };
        // Square wave: 1 V for t < 2τ, back to 0 after.
        let tran = solve_tran(&nl, &dc, &opts, |b, t| {
            if b == 0 {
                Some(if t < 2.0 * tau { 1.0 } else { 0.0 })
            } else {
                None
            }
        })
        .unwrap();
        let v = tran.voltages_of(out);
        let mid = v[tran.times.iter().position(|&t| t >= 2.0 * tau).unwrap() - 1];
        assert!(mid > 0.8, "charged to {mid}");
        let end = *v.last().unwrap();
        assert!(end < 0.2, "discharged to {end}");
    }
}
