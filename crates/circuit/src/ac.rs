//! AC small-signal analysis.
//!
//! Linearizes every device around a previously computed DC operating point
//! and solves the complex MNA system at each requested frequency. The
//! stimulus is taken from the `ac` magnitudes of the netlist's voltage
//! sources (phase 0 assumed).

use caffeine_linalg::Complex64;

use crate::dc::DcSolution;
use crate::mna::{node_voltages, MnaSystem};
use crate::mos::MosPolarity;
use crate::netlist::{Element, Netlist, NodeId};
use crate::CircuitError;

/// The complex node-voltage response at a set of frequencies.
#[derive(Debug, Clone)]
pub struct AcSweep {
    /// Analysis frequencies, Hz.
    pub frequencies: Vec<f64>,
    /// For each frequency: node voltages indexed by `NodeId.0`
    /// (ground = entry 0 = 0).
    pub node_voltages: Vec<Vec<Complex64>>,
}

impl AcSweep {
    /// The transfer response at one node across the sweep.
    pub fn response_at(&self, node: NodeId) -> Vec<Complex64> {
        self.node_voltages.iter().map(|v| v[node.0]).collect()
    }

    /// Magnitude in dB at `node` across the sweep.
    // lint: allow(test-only-api) — ac's roll-off test reads the Bode magnitude through it
    pub fn magnitude_db(&self, node: NodeId) -> Vec<f64> {
        self.response_at(node)
            .iter()
            .map(|h| 20.0 * h.abs().log10())
            .collect()
    }
}

/// Generates `points` logarithmically spaced frequencies over
/// `[f_start, f_stop]`, inclusive on both ends.
///
/// # Panics
///
/// Panics if the interval is not positive-increasing or `points < 2`.
pub fn log_frequencies(f_start: f64, f_stop: f64, points: usize) -> Vec<f64> {
    assert!(
        f_start > 0.0 && f_stop > f_start,
        "need 0 < f_start < f_stop"
    );
    assert!(points >= 2, "need at least two points");
    let l0 = f_start.log10();
    let l1 = f_stop.log10();
    (0..points)
        .map(|i| 10f64.powf(l0 + (l1 - l0) * i as f64 / (points - 1) as f64))
        .collect()
}

/// Runs an AC sweep of the netlist around the DC operating point `dc`.
///
/// # Errors
///
/// * [`CircuitError::SingularSystem`] if the small-signal system is
///   singular at some frequency.
/// * [`CircuitError::InvalidDevice`] for a negative frequency.
pub fn solve_ac(
    netlist: &Netlist,
    dc: &DcSolution,
    frequencies: &[f64],
) -> Result<AcSweep, CircuitError> {
    if frequencies.iter().any(|f| !(*f >= 0.0) || !f.is_finite()) {
        return Err(CircuitError::InvalidDevice(
            "frequencies must be finite and non-negative".into(),
        ));
    }
    let n_nodes = netlist.n_nodes() - 1;
    let n_branches = netlist.n_vsources();
    let mut out = Vec::with_capacity(frequencies.len());

    for &f in frequencies {
        let omega = 2.0 * std::f64::consts::PI * f;
        let mut sys: MnaSystem<Complex64> = MnaSystem::new(n_nodes, n_branches);
        // A tiny real gmin keeps high-impedance AC nodes well conditioned.
        sys.stamp_gmin(Complex64::from_real(1e-15));
        let mut branch = 0usize;
        for (idx, e) in netlist.elements().iter().enumerate() {
            match *e {
                Element::Resistor { a, b, ohms } => {
                    sys.stamp_conductance(a, b, Complex64::from_real(1.0 / ohms));
                }
                Element::Capacitor { a, b, farads } => {
                    sys.stamp_conductance(a, b, Complex64::new(0.0, omega * farads));
                }
                Element::VSource { pos, neg, ac, .. } => {
                    sys.stamp_vsource(branch, pos, neg, Complex64::from_real(ac));
                    branch += 1;
                }
                Element::ISource { .. } => {} // ideal bias: open at AC
                Element::Vccs {
                    out_pos,
                    out_neg,
                    cp,
                    cn,
                    gm,
                } => {
                    sys.stamp_vccs(out_pos, out_neg, cp, cn, Complex64::from_real(gm));
                }
                Element::Mosfet { d, g, s, instance } => {
                    let op = dc.mos_op(idx).ok_or_else(|| {
                        CircuitError::PerformanceExtraction(format!(
                            "no DC operating point for mosfet element {idx}"
                        ))
                    })?;
                    let gm = Complex64::from_real(op.gm);
                    let gds = Complex64::from_real(op.gds);
                    match instance.process.polarity {
                        MosPolarity::Nmos => {
                            sys.stamp_vccs(d, s, g, s, gm);
                            sys.stamp_conductance(d, s, gds);
                        }
                        MosPolarity::Pmos => {
                            sys.stamp_vccs(s, d, s, g, gm);
                            sys.stamp_conductance(s, d, gds);
                        }
                    }
                    // Device capacitances; bulk approximated as AC ground.
                    sys.stamp_conductance(g, s, Complex64::new(0.0, omega * op.cgs));
                    sys.stamp_conductance(g, d, Complex64::new(0.0, omega * op.cgd));
                    sys.stamp_conductance(d, NodeId::GROUND, Complex64::new(0.0, omega * op.cdb));
                }
            }
        }
        let x = sys.solve().map_err(CircuitError::from)?;
        out.push(node_voltages(&x, n_nodes));
    }

    Ok(AcSweep {
        frequencies: frequencies.to_vec(),
        node_voltages: out,
    })
}

/// Finds the unity-gain frequency of `|H|` at `node` by bisection on a log
/// grid, returning `(fu, phase_at_fu_degrees)`.
///
/// The search walks the `coarse_points` log-spaced frequencies upward,
/// solving one at a time, and stops at the first high-to-low crossing of
/// `|H| = 1`; it then refines that bracket with 40 bisection steps,
/// re-solving the AC system each time (cheap for our circuit sizes).
/// Nothing above the crossing is solved, so a system that is singular
/// only there does not fail the search.
///
/// # Errors
///
/// * [`CircuitError::PerformanceExtraction`] when `|H|` never crosses
///   unity inside the swept band.
/// * [`CircuitError::SingularSystem`] when the system is singular at a
///   frequency solved on the way.
pub fn unity_gain_crossing(
    netlist: &Netlist,
    dc: &DcSolution,
    node: NodeId,
    f_start: f64,
    f_stop: f64,
    coarse_points: usize,
) -> Result<(f64, f64), CircuitError> {
    let freqs = log_frequencies(f_start, f_stop, coarse_points);
    let mut mags: Vec<f64> = Vec::with_capacity(freqs.len());
    let mut bracket = None;
    for (i, &f) in freqs.iter().enumerate() {
        let mag = solve_ac(netlist, dc, &[f])?.node_voltages[0][node.0].abs();
        mags.push(mag);
        if i > 0 && mags[i - 1] >= 1.0 && mag < 1.0 {
            bracket = Some((freqs[i - 1], f));
            break;
        }
    }
    let (mut lo, mut hi) = bracket.ok_or_else(|| {
        CircuitError::PerformanceExtraction(format!(
            "gain never crosses unity in [{f_start:.3e}, {f_stop:.3e}] Hz \
             (|H| range {:.3e}..{:.3e})",
            mags.iter().cloned().fold(f64::INFINITY, f64::min),
            mags.iter().cloned().fold(0.0, f64::max),
        ))
    })?;

    let mut phase = 0.0;
    for _ in 0..40 {
        let mid = (lo * hi).sqrt(); // geometric midpoint on the log axis
        let s = solve_ac(netlist, dc, &[mid])?;
        let h = s.node_voltages[0][node.0];
        if h.abs() >= 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        phase = h.arg().to_degrees();
    }
    Ok(((lo * hi).sqrt(), phase))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{solve_dc, DcOptions};
    use crate::mos::MosProcess;

    fn rc_lowpass(r: f64, c: f64) -> (Netlist, NodeId) {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.add(Element::VSource {
            pos: vin,
            neg: NodeId::GROUND,
            dc: 0.0,
            ac: 1.0,
        });
        nl.add(Element::Resistor {
            a: vin,
            b: out,
            ohms: r,
        });
        nl.add(Element::Capacitor {
            a: out,
            b: NodeId::GROUND,
            farads: c,
        });
        (nl, out)
    }

    #[test]
    fn rc_pole_at_expected_frequency() {
        let (nl, out) = rc_lowpass(1e3, 1e-9);
        let dc = solve_dc(&nl, &DcOptions::default()).unwrap();
        let fpole = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let sweep = solve_ac(&nl, &dc, &[fpole]).unwrap();
        let h = sweep.response_at(out)[0];
        assert!((h.abs() - 1.0 / 2.0f64.sqrt()).abs() < 1e-6);
        assert!((h.arg().to_degrees() + 45.0).abs() < 1e-6);
    }

    #[test]
    fn magnitude_rolls_off_20db_per_decade() {
        let (nl, out) = rc_lowpass(1e3, 1e-9);
        let dc = solve_dc(&nl, &DcOptions::default()).unwrap();
        let fpole = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let sweep = solve_ac(&nl, &dc, &[fpole * 10.0, fpole * 100.0]).unwrap();
        let db = sweep.magnitude_db(out);
        assert!((db[0] - db[1] - 20.0).abs() < 0.5);
    }

    #[test]
    fn log_frequencies_are_geometric() {
        let f = log_frequencies(1.0, 1000.0, 4);
        assert_eq!(f.len(), 4);
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f[1] - 10.0).abs() < 1e-9);
        assert!((f[3] - 1000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "f_start")]
    fn log_frequencies_rejects_bad_interval() {
        let _ = log_frequencies(10.0, 1.0, 5);
    }

    #[test]
    fn common_source_gain_matches_gm_times_rout() {
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
        let rload = 50e3;
        nl.add(Element::Resistor {
            a: vdd,
            b: drain,
            ohms: rload,
        });
        let inst = MosProcess::nmos_07um()
            .size_for(20e-6, 0.3, 2.0, 1e-6)
            .unwrap();
        let midx = nl.add(Element::Mosfet {
            d: drain,
            g: gate,
            s: NodeId::GROUND,
            instance: inst,
        });
        let dc = solve_dc(&nl, &DcOptions::default()).unwrap();
        let op = dc.mos_op(midx).unwrap();
        let sweep = solve_ac(&nl, &dc, &[1.0]).unwrap();
        let gain = sweep.response_at(drain)[0].abs();
        let rout = 1.0 / (1.0 / rload + op.gds);
        let expect = op.gm * rout;
        assert!(
            (gain - expect).abs() / expect < 1e-3,
            "gain {gain} vs gm*rout {expect}"
        );
    }

    #[test]
    fn unity_gain_crossing_on_integrator_like_stage() {
        // gm stage into a capacitor: |H| = gm/(ωC) ⇒ fu = gm/(2πC).
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.add(Element::VSource {
            pos: vin,
            neg: NodeId::GROUND,
            dc: 0.0,
            ac: 1.0,
        });
        let gm = 1e-3;
        nl.add(Element::Vccs {
            out_pos: out,
            out_neg: NodeId::GROUND,
            cp: NodeId::GROUND,
            cn: vin,
            gm,
        });
        nl.add(Element::Resistor {
            a: out,
            b: NodeId::GROUND,
            ohms: 1e9,
        });
        let c = 1e-9;
        nl.add(Element::Capacitor {
            a: out,
            b: NodeId::GROUND,
            farads: c,
        });
        let dc = solve_dc(&nl, &DcOptions::default()).unwrap();
        let (fu, phase) = unity_gain_crossing(&nl, &dc, out, 1.0, 1e9, 61).unwrap();
        let expect = gm / (2.0 * std::f64::consts::PI * c);
        assert!((fu - expect).abs() / expect < 1e-3, "fu {fu} vs {expect}");
        // Pure integrator: -90 degrees.
        assert!((phase + 90.0).abs() < 1.0, "phase {phase}");
    }

    #[test]
    fn crossing_error_when_gain_below_unity() {
        let (nl, out) = rc_lowpass(1e3, 1e-9);
        // Passive RC never exceeds unity gain... it equals 1 at DC.
        // Restrict the band to far above the pole so |H| < 1 everywhere.
        let dc = solve_dc(&nl, &DcOptions::default()).unwrap();
        let err = unity_gain_crossing(&nl, &dc, out, 1e9, 1e12, 11);
        assert!(matches!(err, Err(CircuitError::PerformanceExtraction(_))));
    }

    #[test]
    fn negative_frequency_rejected() {
        let (nl, _) = rc_lowpass(1e3, 1e-9);
        let dc = solve_dc(&nl, &DcOptions::default()).unwrap();
        assert!(solve_ac(&nl, &dc, &[-1.0]).is_err());
    }
}
