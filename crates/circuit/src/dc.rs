//! DC operating-point analysis: damped Newton–Raphson with gmin stepping.
//!
//! Each Newton iteration linearizes every MOSFET around the present node
//! voltages (companion model: `gm`, `gds`, and an equivalent current
//! source) and solves the resulting linear MNA system. Convergence is
//! helped by two standard techniques:
//!
//! * **voltage damping** — the update is scaled so no node moves more than
//!   [`DcOptions::max_step`] volts per iteration, and
//! * **gmin stepping** — a conductance ladder from every node to ground is
//!   swept from large to tiny, each rung warm-starting the next (a simple
//!   homotopy that tames the OTA's high-impedance nodes).

use caffeine_linalg::LinalgError;

use crate::mna::{node_voltages, MnaSystem};
use crate::mos::{MosOperatingPoint, MosPolarity};
use crate::netlist::{Element, Netlist, NodeId};
use crate::CircuitError;

/// Tuning knobs for the DC solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcOptions {
    /// Maximum Newton iterations per gmin rung.
    pub max_iterations: usize,
    /// Convergence threshold on the raw Newton update, volts.
    pub vtol: f64,
    /// Largest allowed per-iteration node-voltage change, volts.
    pub max_step: f64,
    /// First (largest) gmin value of the homotopy ladder, siemens.
    pub gmin_start: f64,
    /// Final gmin left in the circuit for numerical robustness, siemens.
    pub gmin_final: f64,
    /// Ladder reduction factor per rung (> 1).
    pub gmin_factor: f64,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            max_iterations: 200,
            vtol: 1e-9,
            max_step: 0.5,
            gmin_start: 1e-3,
            gmin_final: 1e-12,
            gmin_factor: 10.0,
        }
    }
}

/// The result of a DC operating-point analysis.
#[derive(Debug, Clone)]
pub struct DcSolution {
    /// Node voltages indexed by `NodeId.0` (ground = entry 0 = 0.0 V).
    pub node_voltages: Vec<f64>,
    /// Branch currents of the independent voltage sources, in netlist
    /// order. Positive current flows *into* the source's positive terminal
    /// (MNA convention).
    pub vsource_currents: Vec<f64>,
    /// Per-MOSFET operating points, `(element index, op)`, in the
    /// polarity-normalized convention of [`crate::mos`].
    pub mos_ops: Vec<(usize, MosOperatingPoint)>,
    /// Total Newton iterations across the whole homotopy.
    pub iterations: usize,
}

impl DcSolution {
    /// Voltage of a node.
    // lint: allow(test-only-api) — circuit integration and proptests read node voltages by id
    pub fn voltage(&self, n: NodeId) -> f64 {
        self.node_voltages[n.0]
    }

    /// Operating point of the MOSFET at element index `idx`, if that
    /// element is a MOSFET.
    pub fn mos_op(&self, idx: usize) -> Option<&MosOperatingPoint> {
        self.mos_ops
            .iter()
            .find(|(i, _)| *i == idx)
            .map(|(_, op)| op)
    }

    /// Branch current of the `k`-th voltage source (netlist order).
    pub fn vsource_current(&self, k: usize) -> f64 {
        self.vsource_currents[k]
    }
}

/// Solves the DC operating point of a netlist.
///
/// # Errors
///
/// * Netlist validation errors ([`CircuitError::UnknownNode`],
///   [`CircuitError::InvalidDevice`]).
/// * [`CircuitError::DcNoConvergence`] when Newton fails on the final rung.
/// * [`CircuitError::SingularSystem`] for structurally singular circuits.
pub fn solve_dc(netlist: &Netlist, options: &DcOptions) -> Result<DcSolution, CircuitError> {
    netlist.validate()?;
    let n_nodes = netlist.n_nodes() - 1;
    let n_branches = netlist.n_vsources();

    // Initial guess: propagate grounded voltage sources, everything else 0.
    let mut volts = vec![0.0; netlist.n_nodes()];
    for e in netlist.elements() {
        if let Element::VSource { pos, neg, dc, .. } = e {
            if neg.is_ground() && !pos.is_ground() {
                volts[pos.0] = *dc;
            } else if pos.is_ground() && !neg.is_ground() {
                volts[neg.0] = -*dc;
            }
        }
    }

    let mut total_iterations = 0usize;
    let mut gmin = options.gmin_start;
    loop {
        let converged = newton_loop(
            netlist,
            n_nodes,
            n_branches,
            gmin,
            options,
            &mut volts,
            &mut total_iterations,
        )?;
        if !converged && gmin <= options.gmin_final {
            return Err(CircuitError::DcNoConvergence {
                iterations: total_iterations,
                residual: residual_norm(netlist, &volts, gmin),
            });
        }
        if gmin <= options.gmin_final {
            break;
        }
        gmin = (gmin / options.gmin_factor).max(options.gmin_final);
    }

    // Final assembly at the converged point to extract branch currents.
    let sys = assemble(netlist, n_nodes, n_branches, &volts, options.gmin_final);
    let x = sys.solve().map_err(lift_singular)?;
    let node_v = node_voltages(&x, n_nodes);
    let vsource_currents = x[n_nodes..].to_vec();

    let mut mos_ops = Vec::new();
    for (idx, d, g, s, inst) in netlist.mosfets() {
        let (vgs, vds) = Netlist::mos_control_voltages(d, g, s, inst.process.polarity, &node_v);
        mos_ops.push((idx, inst.evaluate(vgs, vds)));
    }

    Ok(DcSolution {
        node_voltages: node_v,
        vsource_currents,
        mos_ops,
        iterations: total_iterations,
    })
}

fn lift_singular(e: LinalgError) -> CircuitError {
    match e {
        LinalgError::Singular { .. } => CircuitError::SingularSystem,
        other => CircuitError::Linalg(other),
    }
}

/// Runs damped Newton at one gmin rung. Returns whether it converged.
#[allow(clippy::too_many_arguments)]
fn newton_loop(
    netlist: &Netlist,
    n_nodes: usize,
    n_branches: usize,
    gmin: f64,
    options: &DcOptions,
    volts: &mut [f64],
    total_iterations: &mut usize,
) -> Result<bool, CircuitError> {
    for _ in 0..options.max_iterations {
        *total_iterations += 1;
        let sys = assemble(netlist, n_nodes, n_branches, volts, gmin);
        let x = sys.solve().map_err(lift_singular)?;
        let new_v = node_voltages(&x, n_nodes);

        let mut max_dv = 0.0f64;
        for i in 0..netlist.n_nodes() {
            max_dv = max_dv.max((new_v[i] - volts[i]).abs());
        }
        let alpha = if max_dv > options.max_step {
            options.max_step / max_dv
        } else {
            1.0
        };
        for i in 0..netlist.n_nodes() {
            volts[i] += alpha * (new_v[i] - volts[i]);
        }
        if max_dv < options.vtol {
            return Ok(true);
        }
        if !volts.iter().all(|v| v.is_finite()) {
            return Err(CircuitError::DcNoConvergence {
                iterations: *total_iterations,
                residual: f64::INFINITY,
            });
        }
    }
    Ok(false)
}

/// Assembles the linearized MNA system at the given node voltages.
fn assemble(
    netlist: &Netlist,
    n_nodes: usize,
    n_branches: usize,
    volts: &[f64],
    gmin: f64,
) -> MnaSystem<f64> {
    let mut sys = MnaSystem::new(n_nodes, n_branches);
    sys.stamp_gmin(gmin);
    let mut branch = 0usize;
    for e in netlist.elements() {
        match *e {
            Element::Resistor { a, b, ohms } => {
                sys.stamp_conductance(a, b, 1.0 / ohms);
            }
            Element::Capacitor { .. } => {} // open at DC
            Element::VSource { pos, neg, dc, .. } => {
                sys.stamp_vsource(branch, pos, neg, dc);
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
                        // i_d = gm·(vg−vs) + gds·(vd−vs) + ieq, leaves d.
                        sys.stamp_vccs(d, s, g, s, op.gm);
                        sys.stamp_conductance(d, s, op.gds);
                        sys.stamp_current(d, s, ieq);
                    }
                    MosPolarity::Pmos => {
                        // i_sd = gm·(vs−vg) + gds·(vs−vd) + ieq, leaves s.
                        sys.stamp_vccs(s, d, s, g, op.gm);
                        sys.stamp_conductance(s, d, op.gds);
                        sys.stamp_current(s, d, ieq);
                    }
                }
            }
        }
    }
    sys
}

/// Infinity norm of the KCL residual at the given voltages (diagnostic).
fn residual_norm(netlist: &Netlist, volts: &[f64], gmin: f64) -> f64 {
    let mut residual = vec![0.0f64; netlist.n_nodes()];
    for (i, r) in residual.iter_mut().enumerate().skip(1) {
        *r += gmin * volts[i];
    }
    for e in netlist.elements() {
        match *e {
            Element::Resistor { a, b, ohms } => {
                let i = (volts[a.0] - volts[b.0]) / ohms;
                residual[a.0] += i;
                residual[b.0] -= i;
            }
            Element::ISource { from, to, dc } => {
                residual[from.0] += dc;
                residual[to.0] -= dc;
            }
            Element::Vccs {
                out_pos,
                out_neg,
                cp,
                cn,
                gm,
            } => {
                let i = gm * (volts[cp.0] - volts[cn.0]);
                residual[out_pos.0] += i;
                residual[out_neg.0] -= i;
            }
            Element::Mosfet { d, g, s, instance } => {
                let polarity = instance.process.polarity;
                let (vc, vo) = Netlist::mos_control_voltages(d, g, s, polarity, volts);
                let op = instance.evaluate(vc, vo);
                match polarity {
                    MosPolarity::Nmos => {
                        residual[d.0] += op.id;
                        residual[s.0] -= op.id;
                    }
                    MosPolarity::Pmos => {
                        residual[s.0] += op.id;
                        residual[d.0] -= op.id;
                    }
                }
            }
            // Voltage sources enforce their own constraint rows.
            Element::VSource { .. } | Element::Capacitor { .. } => {}
        }
    }
    residual
        .iter()
        .skip(1)
        .fold(0.0f64, |acc, r| acc.max(r.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mos::MosProcess;

    #[test]
    fn linear_divider_operating_point() {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let mid = nl.node("mid");
        nl.add(Element::VSource {
            pos: vin,
            neg: NodeId::GROUND,
            dc: 5.0,
            ac: 0.0,
        });
        nl.add(Element::Resistor {
            a: vin,
            b: mid,
            ohms: 10e3,
        });
        nl.add(Element::Resistor {
            a: mid,
            b: NodeId::GROUND,
            ohms: 10e3,
        });
        let sol = solve_dc(&nl, &DcOptions::default()).unwrap();
        assert!((sol.voltage(mid) - 2.5).abs() < 1e-6);
        assert!((sol.vsource_current(0) + 0.25e-3).abs() < 1e-6);
    }

    #[test]
    fn diode_connected_nmos_settles_at_square_law_point() {
        // 5 V through 100k into a diode-connected NMOS sized for
        // 10 µA at vov = 0.3 → expect vgs ≈ 0.76 + vov with
        // i = (5 − vgs)/100k ≈ 42 µA ⇒ vov ≈ 0.3·sqrt(42/10/clm).
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let dnode = nl.node("d");
        nl.add(Element::VSource {
            pos: vdd,
            neg: NodeId::GROUND,
            dc: 5.0,
            ac: 0.0,
        });
        nl.add(Element::Resistor {
            a: vdd,
            b: dnode,
            ohms: 100e3,
        });
        let inst = MosProcess::nmos_07um()
            .size_for(10e-6, 0.3, 0.3, 1e-6)
            .unwrap();
        let midx = nl.add(Element::Mosfet {
            d: dnode,
            g: dnode,
            s: NodeId::GROUND,
            instance: inst,
        });
        let sol = solve_dc(&nl, &DcOptions::default()).unwrap();
        let vgs = sol.voltage(dnode);
        assert!(vgs > 0.8 && vgs < 2.0, "vgs = {vgs}");
        let op = sol.mos_op(midx).unwrap();
        let i_resistor = (5.0 - vgs) / 100e3;
        assert!(
            (op.id - i_resistor).abs() / i_resistor < 1e-6,
            "KCL violated: mos {} vs resistor {}",
            op.id,
            i_resistor
        );
        assert!(op.saturated); // diode-connected => vds = vgs > vov
    }

    #[test]
    fn nmos_common_source_amplifier_biases() {
        // NMOS with resistive load; gate driven at fixed bias.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let gate = nl.node("g");
        let drain = nl.node("d");
        nl.add(Element::VSource {
            pos: vdd,
            neg: NodeId::GROUND,
            dc: 5.0,
            ac: 0.0,
        });
        nl.add(Element::VSource {
            pos: gate,
            neg: NodeId::GROUND,
            dc: 1.06,
            ac: 1.0,
        });
        nl.add(Element::Resistor {
            a: vdd,
            b: drain,
            ohms: 100e3,
        });
        let inst = MosProcess::nmos_07um()
            .size_for(20e-6, 0.3, 2.0, 1e-6)
            .unwrap();
        nl.add(Element::Mosfet {
            d: drain,
            g: gate,
            s: NodeId::GROUND,
            instance: inst,
        });
        let sol = solve_dc(&nl, &DcOptions::default()).unwrap();
        let vd = sol.voltage(drain);
        // Sized for 20 µA at vds=2: drop ≈ 2 V ⇒ drain ≈ 3 V.
        assert!(vd > 2.0 && vd < 4.0, "drain = {vd}");
    }

    #[test]
    fn pmos_mirror_copies_current() {
        // Reference branch: vdd -> diode PMOS -> resistor to ground sets
        // ~10 µA; mirror output into a grounded resistor must carry a
        // matched current.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let dio = nl.node("dio");
        let out = nl.node("out");
        nl.add(Element::VSource {
            pos: vdd,
            neg: NodeId::GROUND,
            dc: 5.0,
            ac: 0.0,
        });
        let p = MosProcess::pmos_07um();
        let inst = p.size_for(10e-6, 0.35, 0.35, 1e-6).unwrap();
        nl.add(Element::Mosfet {
            d: dio,
            g: dio,
            s: vdd,
            instance: inst,
        });
        // (5 - (5 - vsg)) / R = vsg-dependent; pick R for ≈ 10 µA:
        // node dio sits at vdd − vsg ≈ 3.9 V ⇒ R ≈ 390 kΩ.
        nl.add(Element::Resistor {
            a: dio,
            b: NodeId::GROUND,
            ohms: 390e3,
        });
        let m_out = nl.add(Element::Mosfet {
            d: out,
            g: dio,
            s: vdd,
            instance: inst,
        });
        nl.add(Element::Resistor {
            a: out,
            b: NodeId::GROUND,
            ohms: 100e3,
        });
        let sol = solve_dc(&nl, &DcOptions::default()).unwrap();
        let i_ref = sol.voltage(dio) / 390e3;
        let i_out = sol.mos_op(m_out).unwrap().id;
        assert!(
            (i_out - i_ref).abs() / i_ref < 0.25,
            "mirror error too large: ref {i_ref}, out {i_out}"
        );
    }

    #[test]
    fn floating_node_reports_singular_or_invalid() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.add(Element::Resistor { a, b, ohms: 1e3 });
        // a-b pair floats relative to ground.
        assert!(solve_dc(&nl, &DcOptions::default()).is_err());
    }

    #[test]
    fn isource_polarity() {
        let mut nl = Netlist::new();
        let n = nl.node("n");
        nl.add(Element::ISource {
            from: NodeId::GROUND,
            to: n,
            dc: 2e-3,
        });
        nl.add(Element::Resistor {
            a: n,
            b: NodeId::GROUND,
            ohms: 1e3,
        });
        let sol = solve_dc(&nl, &DcOptions::default()).unwrap();
        assert!((sol.voltage(n) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn iterations_are_reported() {
        let mut nl = Netlist::new();
        let n = nl.node("n");
        nl.add(Element::Resistor {
            a: n,
            b: NodeId::GROUND,
            ohms: 1.0,
        });
        let sol = solve_dc(&nl, &DcOptions::default()).unwrap();
        assert!(sol.iterations >= 1);
    }
}
