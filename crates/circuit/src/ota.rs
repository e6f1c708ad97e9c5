//! The high-speed CMOS OTA testbench of the paper (Fig. 2), rebuilt as a
//! simulatable netlist.
//!
//! # Topology
//!
//! A symmetrical (current-mirror) OTA with a PMOS input pair and a cascoded
//! PMOS output branch:
//!
//! ```text
//!   VDD ──┬───────────────┬──────────────────┬─────────
//!         │               │                  │
//!        M5 (tail)       M3 (diode)         M4   (gate = c, level-shifted)
//!         │tail           │c ── shift ─────g4│
//!    ┌────┴─────┐         │                  │d4
//!  M1a(inn)  M1b(inp)     │                 M6   (cascode, gate bias g6)
//!    │a         │b        │                  │
//!   M2a(diode) M2b(diode) │                  │
//!    │g ──M2c─────────────┘                  │
//!    │     │g               M2d(gate = b) ───┤
//!   GND   GND                │               out ── CL
//!                           GND
//! ```
//!
//! Signal path: `inp` (gate of M1b) is the non-inverting input — its branch
//! current is mirrored by M2b→M2d which *sinks* from the output; `inn`
//! (gate of M1a) is inverting through the double mirror M2a→M2c→M3→M4→M6
//! which *sources* into the output. The mirror ratio `B = id2/id1`
//! multiplies the differential-pair current into the output branch.
//!
//! Two ideal bias details keep the operating-point formulation consistent
//! without a full bias synthesis (documented substitution, see DESIGN.md):
//! the gate of M4 is driven from the diode node `c` through an ideal level
//! shift of `vsg3 − vsg4` volts (zero at the nominal point), and the
//! cascode gate `g6` sits at `vdd − vsd4 − vsg6`.
//!
//! # Design variables (operating-point driven formulation, 13 of them)
//!
//! As in the paper (ref. \[13\]), branch currents and device drive voltages
//! are the design variables; widths are derived. See [`OtaDesign`].
//!
//! # Performance extraction
//!
//! * `voffset` — with the output *held* at its designed level `vds2`, a
//!   secant iteration finds the inverting-input voltage at which the
//!   held-output current is zero; the offset is the differential input at
//!   balance (includes the injected deterministic input-pair mismatch plus
//!   systematic mirror imbalance).
//! * `ALF`, `fu`, `PM` — open-loop AC around the balanced operating point.
//! * `SRp`, `SRn` — large-signal DC solves with the input overdriven and
//!   the output held; the held-node current divided by `CL` is the slew
//!   rate.

use serde::{Deserialize, Serialize};

use crate::ac::{solve_ac, unity_gain_crossing};
use crate::dc::{solve_dc, DcOptions, DcSolution};
use crate::mos::{MosInstance, MosProcess};
use crate::netlist::{Element, Netlist, NodeId};
use crate::CircuitError;

/// Names of the 13 design variables, in vector order.
///
/// The names match those appearing in the paper's Tables I and II
/// (`id1, id2, vsg1, vgs2, vds2, vsg3, vsg4, vsg5, vsd5, …`).
pub const OTA_VAR_NAMES: [&str; 13] = [
    "id1", "id2", "vsg1", "vds1", "vgs2", "vds2", "vsg3", "vsd3", "vsg4", "vsd4", "vsg5", "vsd5",
    "vsg6",
];

/// A design point of the OTA in the operating-point driven formulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OtaDesign {
    /// Differential-pair branch current (A).
    pub id1: f64,
    /// Output branch current (A); the mirror ratio is `B = id2/id1`.
    pub id2: f64,
    /// Source-gate drive of the PMOS input pair M1 (V).
    pub vsg1: f64,
    /// Sizing drain-source voltage of M1 (V).
    pub vds1: f64,
    /// Gate-source drive of the NMOS mirror family M2 (V).
    pub vgs2: f64,
    /// Designed drain-source voltage of the mirror output M2d (V);
    /// also the designed output DC level.
    pub vds2: f64,
    /// Source-gate drive of the PMOS mirror diode M3 (V); sets node `c`.
    pub vsg3: f64,
    /// Sizing source-drain voltage of M3 (V); the diode's actual `vsd`
    /// is `vsg3`, so this encodes design intent (small systematic error).
    pub vsd3: f64,
    /// Source-gate drive of the PMOS mirror output M4 (V); realised via an
    /// ideal level shift from the diode node.
    pub vsg4: f64,
    /// Designed source-drain voltage of M4 (V); places the cascode's
    /// source node at `vdd − vsd4`.
    pub vsd4: f64,
    /// Source-gate drive of the PMOS tail device M5 (V).
    pub vsg5: f64,
    /// Source-drain headroom of M5 (V); sets the tail node and thereby the
    /// input common mode.
    pub vsd5: f64,
    /// Source-gate drive of the PMOS cascode M6 (V).
    pub vsg6: f64,
}

impl OtaDesign {
    /// The nominal design point used by the experiments.
    pub fn nominal() -> Self {
        OtaDesign {
            id1: 10e-6,
            id2: 40e-6,
            vsg1: 1.10,
            vds1: 1.20,
            vgs2: 1.10,
            vds2: 2.20,
            vsg3: 1.20,
            vsd3: 1.20,
            vsg4: 1.20,
            vsd4: 1.00,
            vsg5: 1.10,
            vsd5: 0.50,
            vsg6: 1.10,
        }
    }

    /// The design as a vector in [`OTA_VAR_NAMES`] order.
    pub fn to_vec(self) -> Vec<f64> {
        vec![
            self.id1, self.id2, self.vsg1, self.vds1, self.vgs2, self.vds2, self.vsg3, self.vsd3,
            self.vsg4, self.vsd4, self.vsg5, self.vsd5, self.vsg6,
        ]
    }

    /// Builds a design from a vector in [`OTA_VAR_NAMES`] order.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidDevice`] when the slice does not have exactly
    /// 13 finite entries.
    pub fn from_slice(v: &[f64]) -> Result<Self, CircuitError> {
        if v.len() != 13 || !v.iter().all(|x| x.is_finite()) {
            return Err(CircuitError::InvalidDevice(format!(
                "OTA design needs 13 finite values, got {}",
                v.len()
            )));
        }
        Ok(OtaDesign {
            id1: v[0],
            id2: v[1],
            vsg1: v[2],
            vds1: v[3],
            vgs2: v[4],
            vds2: v[5],
            vsg3: v[6],
            vsd3: v[7],
            vsg4: v[8],
            vsd4: v[9],
            vsg5: v[10],
            vsd5: v[11],
            vsg6: v[12],
        })
    }
}

/// One of the six modeled circuit performances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PerfId {
    /// Low-frequency gain, dB.
    Alf,
    /// Unity-gain frequency, Hz (modeled in `log10`, as in the paper).
    Fu,
    /// Phase margin, degrees.
    Pm,
    /// Input-referred offset voltage, V.
    Voffset,
    /// Positive slew rate, V/s.
    Srp,
    /// Negative slew rate, V/s (negative-valued).
    Srn,
}

impl PerfId {
    /// All six performances in the paper's order.
    pub const ALL: [PerfId; 6] = [
        PerfId::Alf,
        PerfId::Fu,
        PerfId::Pm,
        PerfId::Voffset,
        PerfId::Srp,
        PerfId::Srn,
    ];

    /// The paper's name for the performance.
    pub fn name(self) -> &'static str {
        match self {
            PerfId::Alf => "ALF",
            PerfId::Fu => "fu",
            PerfId::Pm => "PM",
            PerfId::Voffset => "voffset",
            PerfId::Srp => "SRp",
            PerfId::Srn => "SRn",
        }
    }

    /// `true` when the paper log10-scales this performance before learning.
    pub fn log_scaled(self) -> bool {
        matches!(self, PerfId::Fu)
    }
}

impl std::fmt::Display for PerfId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The six simulated performances of one design point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OtaPerformance {
    /// Low-frequency gain, dB.
    pub alf: f64,
    /// Unity-gain frequency, Hz.
    pub fu: f64,
    /// Phase margin, degrees.
    pub pm: f64,
    /// Input-referred offset, V.
    pub voffset: f64,
    /// Positive slew rate, V/s.
    pub srp: f64,
    /// Negative slew rate, V/s.
    pub srn: f64,
}

impl OtaPerformance {
    /// The value of one performance.
    pub fn get(&self, id: PerfId) -> f64 {
        match id {
            PerfId::Alf => self.alf,
            PerfId::Fu => self.fu,
            PerfId::Pm => self.pm,
            PerfId::Voffset => self.voffset,
            PerfId::Srp => self.srp,
            PerfId::Srn => self.srn,
        }
    }
}

/// Technology and environment description for the testbench.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OtaTechnology {
    /// NMOS process corner.
    pub nmos: MosProcess,
    /// PMOS process corner.
    pub pmos: MosProcess,
    /// Supply voltage, V (paper: 5 V).
    pub vdd: f64,
    /// Load capacitance, F (paper: 10 pF).
    pub cl: f64,
    /// Channel length used for every device, m.
    pub length: f64,
    /// Deterministic input-pair threshold mismatch injected on M1a, V.
    pub input_mismatch: f64,
    /// Differential overdrive used for the slew-rate measurements, V.
    pub slew_overdrive: f64,
}

/// The OTA testbench: technology plus solver settings.
#[derive(Debug, Clone)]
pub struct OtaTestbench {
    /// Technology description.
    pub tech: OtaTechnology,
    /// DC solver options.
    pub dc_options: DcOptions,
}

/// The netlist roles needed by the measurement flows.
#[derive(Debug, Clone, Copy)]
struct OtaNodes {
    out: NodeId,
}

/// Which measurement configuration to build.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Config {
    /// Open loop with AC drive `inp = +0.5`, `inn = −0.5` (1 V differential).
    OpenLoopAc {
        /// DC bias for the inverting input (the balanced value).
        inn_dc: f64,
    },
    /// Large-signal / balance test: `inp = vcm + vdiff`, `inn` at `inn_dc`,
    /// output held at `vout` by an ideal source whose current is measured.
    HeldOutput {
        /// Differential drive on the non-inverting input, V.
        vdiff: f64,
        /// Inverting-input bias, V.
        inn_dc: f64,
        /// Output hold voltage, V.
        vout: f64,
    },
}

impl OtaTestbench {
    /// The default 0.7 µm / 5 V / 10 pF testbench matching the paper's
    /// stated environment (`Vth,nom = 0.76 / −0.75 V`).
    pub fn default_07um() -> Self {
        let mut nmos = MosProcess::nmos_07um();
        let mut pmos = MosProcess::pmos_07um();
        // High-voltage flavour: thicker oxide -> lower kp, larger overlap
        // and junction capacitances (devices are physically big).
        nmos.kp = 50e-6;
        pmos.kp = 20e-6;
        nmos.cov_per_m = 1.5e-9;
        pmos.cov_per_m = 1.5e-9;
        nmos.cj_per_m = 3.0e-9;
        pmos.cj_per_m = 3.5e-9;
        OtaTestbench {
            tech: OtaTechnology {
                nmos,
                pmos,
                vdd: 5.0,
                cl: 10e-12,
                length: 1.5e-6,
                input_mismatch: -5.0e-3,
                slew_overdrive: 0.6,
            },
            dc_options: DcOptions::default(),
        }
    }

    /// The input common-mode voltage implied by a design.
    pub fn vcm(&self, d: &OtaDesign) -> f64 {
        self.tech.vdd - d.vsd5 - d.vsg1
    }

    /// Sizes the ten devices of the OTA for a design point.
    fn size_devices(&self, d: &OtaDesign) -> Result<[MosInstance; 10], CircuitError> {
        let t = &self.tech;
        let vthn = t.nmos.vth;
        let vthp = t.pmos.vth;
        let ov = |v: f64, vth: f64, who: &str| -> Result<f64, CircuitError> {
            let vov = v - vth;
            if vov <= 0.02 {
                return Err(CircuitError::InvalidDevice(format!(
                    "{who}: drive {v} leaves no overdrive above vth {vth}"
                )));
            }
            Ok(vov)
        };
        // Input pair M1a/M1b (PMOS), with deterministic mismatch on M1a.
        let m1 = t
            .pmos
            .size_for(d.id1, ov(d.vsg1, vthp, "M1")?, d.vds1, t.length)?;
        let m1a = m1.with_vth_shift(t.input_mismatch);
        let m1b = m1;
        // NMOS mirror diodes M2a/M2b: vds = vgs (diode-connected).
        let vov2 = ov(d.vgs2, vthn, "M2")?;
        let m2_diode = t.nmos.size_for(d.id1, vov2, d.vgs2, t.length)?;
        // NMOS mirror outputs, each sized for id2 at its *designed*
        // operating vds: M2c sits under the PMOS diode (vds = vdd − vsg3),
        // M2d at the output level vds2.
        let m2c = t.nmos.size_for(d.id2, vov2, t.vdd - d.vsg3, t.length)?;
        let m2d = t.nmos.size_for(d.id2, vov2, d.vds2, t.length)?;
        // PMOS mirror diode M3 (actual vsd = vsg3; sizing intent vsd3).
        let m3 = t
            .pmos
            .size_for(d.id2, ov(d.vsg3, vthp, "M3")?, d.vsd3, t.length)?;
        // PMOS mirror output M4, operated at vsg4 via the level shift.
        let m4 = t
            .pmos
            .size_for(d.id2, ov(d.vsg4, vthp, "M4")?, d.vsd4, t.length)?;
        // Cascode M6 between M4 and the output.
        let vsd6_design = t.vdd - d.vsd4 - d.vds2;
        if vsd6_design <= 0.05 {
            return Err(CircuitError::InvalidDevice(format!(
                "cascode headroom vdd − vsd4 − vds2 = {vsd6_design:.3} V is not positive"
            )));
        }
        let m6 = t
            .pmos
            .size_for(d.id2, ov(d.vsg6, vthp, "M6")?, vsd6_design, t.length)?;
        // Tail M5 carries 2·id1.
        let m5 = t
            .pmos
            .size_for(2.0 * d.id1, ov(d.vsg5, vthp, "M5")?, d.vsd5, t.length)?;
        Ok([m1a, m1b, m2_diode, m2_diode, m2c, m2d, m3, m4, m6, m5])
    }

    /// Builds one measurement netlist. Mosfets are always elements 0..=9
    /// (M1a, M1b, M2a, M2b, M2c, M2d, M3, M4, M6, M5) so DC operating
    /// points transplant across configurations.
    fn build(
        &self,
        d: &OtaDesign,
        config: Config,
    ) -> Result<(Netlist, OtaNodes, Option<usize>), CircuitError> {
        let t = &self.tech;
        let devices = self.size_devices(d)?;
        let vcm = self.vcm(d);
        if vcm <= 0.2 || vcm >= t.vdd - 0.2 {
            return Err(CircuitError::InvalidDevice(format!(
                "input common mode {vcm:.3} V out of range"
            )));
        }

        let mut nl = Netlist::new();
        let gnd = NodeId::GROUND;
        let vdd = nl.node("vdd");
        let tail = nl.node("tail");
        let a = nl.node("a");
        let b = nl.node("b");
        let c = nl.node("c");
        let d4 = nl.node("d4");
        let out = nl.node("out");
        let inp = nl.node("inp");
        let inn = nl.node("inn");
        let g4 = nl.node("g4");
        let g5 = nl.node("g5");
        let g6 = nl.node("g6");

        let [m1a, m1b, m2a, m2b, m2c, m2d, m3, m4, m6, m5] = devices;
        // Elements 0..=9: the devices, in fixed order.
        nl.add(Element::Mosfet {
            d: a,
            g: inn,
            s: tail,
            instance: m1a,
        });
        nl.add(Element::Mosfet {
            d: b,
            g: inp,
            s: tail,
            instance: m1b,
        });
        nl.add(Element::Mosfet {
            d: a,
            g: a,
            s: gnd,
            instance: m2a,
        });
        nl.add(Element::Mosfet {
            d: b,
            g: b,
            s: gnd,
            instance: m2b,
        });
        nl.add(Element::Mosfet {
            d: c,
            g: a,
            s: gnd,
            instance: m2c,
        });
        nl.add(Element::Mosfet {
            d: out,
            g: b,
            s: gnd,
            instance: m2d,
        });
        nl.add(Element::Mosfet {
            d: c,
            g: c,
            s: vdd,
            instance: m3,
        });
        nl.add(Element::Mosfet {
            d: d4,
            g: g4,
            s: vdd,
            instance: m4,
        });
        nl.add(Element::Mosfet {
            d: out,
            g: g6,
            s: d4,
            instance: m6,
        });
        nl.add(Element::Mosfet {
            d: tail,
            g: g5,
            s: vdd,
            instance: m5,
        });

        // Load.
        nl.add(Element::Capacitor {
            a: out,
            b: gnd,
            farads: t.cl,
        });

        // Rails and bias. Voltage-source branch order: vdd=0, g5=1, g6=2,
        // shift(c→g4)=3, then config-specific sources (inp=4, inn=5,
        // hold=6).
        nl.add(Element::VSource {
            pos: vdd,
            neg: gnd,
            dc: t.vdd,
            ac: 0.0,
        });
        nl.add(Element::VSource {
            pos: g5,
            neg: gnd,
            dc: t.vdd - d.vsg5,
            ac: 0.0,
        });
        nl.add(Element::VSource {
            pos: g6,
            neg: gnd,
            dc: t.vdd - d.vsd4 - d.vsg6,
            ac: 0.0,
        });
        // Ideal level shift so M4 operates at its designed drive vsg4:
        // v(g4) = v(c) + (vsg3 − vsg4). Zero at the nominal point.
        nl.add(Element::VSource {
            pos: g4,
            neg: c,
            dc: d.vsg3 - d.vsg4,
            ac: 0.0,
        });

        let mut hold_branch = None;
        match config {
            Config::OpenLoopAc { inn_dc } => {
                nl.add(Element::VSource {
                    pos: inp,
                    neg: gnd,
                    dc: vcm,
                    ac: 0.5,
                });
                nl.add(Element::VSource {
                    pos: inn,
                    neg: gnd,
                    dc: inn_dc,
                    ac: -0.5,
                });
            }
            Config::HeldOutput {
                vdiff,
                inn_dc,
                vout,
            } => {
                nl.add(Element::VSource {
                    pos: inp,
                    neg: gnd,
                    dc: vcm + vdiff,
                    ac: 0.0,
                });
                nl.add(Element::VSource {
                    pos: inn,
                    neg: gnd,
                    dc: inn_dc,
                    ac: 0.0,
                });
                nl.add(Element::VSource {
                    pos: out,
                    neg: gnd,
                    dc: vout,
                    ac: 0.0,
                });
                hold_branch = Some(6);
            }
        }

        Ok((nl, OtaNodes { out }, hold_branch))
    }

    /// Solves the held-output configuration and returns `(solution,
    /// imbalance current)`: the current the circuit pushes into the held
    /// output node (positive = would charge `CL`).
    fn held_solve(
        &self,
        d: &OtaDesign,
        vdiff: f64,
        inn_dc: f64,
        vout: f64,
    ) -> Result<(DcSolution, f64), CircuitError> {
        let (nl, _, hold) = self.build(
            d,
            Config::HeldOutput {
                vdiff,
                inn_dc,
                vout,
            },
        )?;
        let sol = solve_dc(&nl, &self.dc_options)?;
        // MNA branch current convention: positive = flowing into the
        // source's positive terminal, i.e. the source absorbs circuit
        // current -> the circuit pushes it into the node.
        let i = sol.vsource_current(hold.expect("held config has hold branch"));
        Ok((sol, i))
    }

    /// Finds the inverting-input voltage that zeroes the output imbalance
    /// current at the designed output level (secant iteration). Returns
    /// `(balanced solution, inn*)`.
    fn balance(&self, d: &OtaDesign) -> Result<(DcSolution, f64), CircuitError> {
        let vcm = self.vcm(d);
        let vout = d.vds2;
        let mut x0 = vcm;
        let (mut sol0, mut g0) = self.held_solve(d, 0.0, x0, vout)?;
        if g0 == 0.0 {
            return Ok((sol0, x0));
        }
        let mut x1 = vcm + 5e-3;
        let (mut sol1, mut g1) = self.held_solve(d, 0.0, x1, vout)?;
        for _ in 0..60 {
            if (g1 - g0).abs() < 1e-18 {
                break;
            }
            // Secant step, clamped to ±100 mV to stay in the active region.
            let mut x2 = x1 - g1 * (x1 - x0) / (g1 - g0);
            let step = (x2 - x1).clamp(-0.1, 0.1);
            x2 = x1 + step;
            let (sol2, g2) = self.held_solve(d, 0.0, x2, vout)?;
            x0 = x1;
            g0 = g1;
            sol0 = sol1;
            x1 = x2;
            g1 = g2;
            sol1 = sol2;
            let gm_scale = (2.0 * d.id2 / 0.3).max(1e-9);
            if g1.abs() < 1e-9 * gm_scale.max(1.0) || (x1 - x0).abs() < 1e-12 {
                return Ok((sol1, x1));
            }
        }
        let _ = (&sol0, g0);
        // Accept the best point if the residual is small relative to the
        // output branch current.
        if g1.abs() < 1e-3 * d.id2 {
            return Ok((sol1, x1));
        }
        Err(CircuitError::PerformanceExtraction(format!(
            "offset balance did not converge (residual {g1:.3e} A at inn = {x1:.4} V)"
        )))
    }

    /// Simulates all six performances of a design point.
    ///
    /// This runs the full measurement flow: balance search (offset +
    /// operating point), open-loop AC (gain, bandwidth, phase margin), and
    /// two large-signal DC solves (slew rates). A design for which any
    /// stage fails (the paper: "some of which did not converge") yields an
    /// error; dataset builders convert that to a dropped sample.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidDevice`] for unphysical design points.
    /// * [`CircuitError::DcNoConvergence`] / [`CircuitError::SingularSystem`]
    ///   from the solvers.
    /// * [`CircuitError::PerformanceExtraction`] when balance or the
    ///   unity-gain search fails.
    pub fn simulate(&self, design: &OtaDesign) -> Result<OtaPerformance, CircuitError> {
        let vcm = self.vcm(design);

        // 1. Balanced operating point + offset.
        let (dc0, inn_star) = self.balance(design)?;
        let voffset = vcm - inn_star;

        // 2. Open-loop AC around the balanced point.
        let (ac_nl, ac_nodes, _) = self.build(design, Config::OpenLoopAc { inn_dc: inn_star })?;
        let low = solve_ac(&ac_nl, &dc0, &[1.0])?;
        let h0 = low.response_at(ac_nodes.out)[0];
        let alf = 20.0 * h0.abs().log10();
        if !alf.is_finite() || alf < 3.0 {
            return Err(CircuitError::PerformanceExtraction(format!(
                "low-frequency gain {alf:.2} dB is not an amplifier"
            )));
        }
        let (fu, phase_at_fu) = unity_gain_crossing(&ac_nl, &dc0, ac_nodes.out, 1e2, 1e10, 81)?;
        let pm = 180.0 + phase_at_fu;

        // 3. Slew rates: output held at the designed level, input
        //    overdriven either way; the hold-source current is what would
        //    charge/discharge CL.
        let vstep = self.tech.slew_overdrive;
        let (_, i_up) = self.held_solve(design, vstep, inn_star, design.vds2)?;
        let (_, i_dn) = self.held_solve(design, -vstep, inn_star, design.vds2)?;
        let srp = i_up / self.tech.cl;
        let srn = i_dn / self.tech.cl;

        Ok(OtaPerformance {
            alf,
            fu,
            pm,
            voffset,
            srp,
            srn,
        })
    }

    /// Measures the slew rates with a large-signal *transient* analysis
    /// (the third of the paper's "three simulations" per sample): the
    /// non-inverting input is stepped by ±[`OtaTechnology::slew_overdrive`]
    /// volts from the balanced state and the steepest output slope is
    /// reported as `(SRp, SRn)`.
    ///
    /// This cross-validates the held-output DC method used by
    /// [`OtaTestbench::simulate`]; the two agree to within the accuracy of
    /// the one-pole approximation (see the integration tests).
    ///
    /// # Errors
    ///
    /// Same conditions as [`OtaTestbench::simulate`], plus transient
    /// non-convergence.
    // lint: allow(test-only-api) — the slew integration test cross-checks the analytic slew rates
    pub fn simulate_slew_transient(&self, design: &OtaDesign) -> Result<(f64, f64), CircuitError> {
        use crate::tran::{solve_tran, TranOptions};

        let vcm = self.vcm(design);
        let (dc0, inn_star) = self.balance(design)?;
        // The AC configuration has independent inp/inn sources at branch
        // indices 4 and 5; its DC state equals the balanced solution.
        let (nl, nodes, _) = self.build(design, Config::OpenLoopAc { inn_dc: inn_star })?;
        let swing = 2.0 / (2.0 * design.id2 / self.tech.cl);
        let opts = TranOptions {
            t_stop: swing.clamp(1e-7, 1e-4),
            dt: swing.clamp(1e-7, 1e-4) / 400.0,
            ..TranOptions::default()
        };
        let step = self.tech.slew_overdrive;
        let mut rates = [0.0f64; 2];
        for (k, sign) in [1.0f64, -1.0].iter().enumerate() {
            let tran = solve_tran(&nl, &dc0, &opts, |branch, _t| {
                if branch == 4 {
                    Some(vcm + sign * step)
                } else {
                    None
                }
            })?;
            rates[k] = tran.max_slope(nodes.out);
        }
        Ok((rates[0], -rates[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_design_round_trips_through_vec() {
        let d = OtaDesign::nominal();
        let v = d.to_vec();
        assert_eq!(v.len(), 13);
        let d2 = OtaDesign::from_slice(&v).unwrap();
        assert_eq!(d, d2);
        assert!(OtaDesign::from_slice(&v[..12]).is_err());
        let mut bad = v.clone();
        bad[0] = f64::NAN;
        assert!(OtaDesign::from_slice(&bad).is_err());
    }

    #[test]
    fn perf_ids_cover_all_six() {
        assert_eq!(PerfId::ALL.len(), 6);
        assert_eq!(PerfId::Fu.name(), "fu");
        assert!(PerfId::Fu.log_scaled());
        assert!(!PerfId::Pm.log_scaled());
        assert_eq!(PerfId::Alf.to_string(), "ALF");
    }

    #[test]
    fn nominal_simulation_is_physically_sane() {
        let tb = OtaTestbench::default_07um();
        let perf = tb.simulate(&OtaDesign::nominal()).unwrap();
        // Gain: tens of dB.
        assert!(perf.alf > 15.0 && perf.alf < 80.0, "ALF = {} dB", perf.alf);
        // Unity-gain frequency in the 100 kHz .. 100 MHz band.
        assert!(perf.fu > 1e5 && perf.fu < 1e8, "fu = {} Hz", perf.fu);
        // Phase margin: a one-dominant-pole symmetric OTA is stable.
        assert!(perf.pm > 30.0 && perf.pm < 120.0, "PM = {} deg", perf.pm);
        // Offset: injected 2 mV mismatch dominates; systematic terms add mV.
        assert!(perf.voffset.abs() < 30e-3, "voffset = {} V", perf.voffset);
        // Slew rates: sign and magnitude 2·id2/CL ≈ 8 V/µs.
        assert!(perf.srp > 1e5, "SRp = {}", perf.srp);
        assert!(perf.srn < -1e5, "SRn = {}", perf.srn);
        assert!(perf.srp.abs() < 1e9 && perf.srn.abs() < 1e9);
    }

    #[test]
    fn slew_rate_tracks_output_branch_current() {
        let tb = OtaTestbench::default_07um();
        let d = OtaDesign::nominal();
        let perf = tb.simulate(&d).unwrap();
        // Fully switched: mirror pushes ~2·B·id1 = 2·id2 into CL.
        let expect = 2.0 * d.id2 / tb.tech.cl;
        assert!(
            perf.srp > 0.3 * expect && perf.srp < 3.0 * expect,
            "SRp {} vs first-order {}",
            perf.srp,
            expect
        );
        assert!(
            perf.srn < -0.3 * expect && perf.srn > -3.0 * expect,
            "SRn {} vs first-order {}",
            perf.srn,
            expect
        );
    }

    #[test]
    fn bandwidth_and_slew_rise_with_output_current() {
        let tb = OtaTestbench::default_07um();
        let lo = OtaDesign {
            id2: 32e-6,
            ..OtaDesign::nominal()
        };
        let hi = OtaDesign {
            id2: 48e-6,
            ..OtaDesign::nominal()
        };
        let p_lo = tb.simulate(&lo).unwrap();
        let p_hi = tb.simulate(&hi).unwrap();
        assert!(p_hi.fu > p_lo.fu, "fu: {} vs {}", p_lo.fu, p_hi.fu);
        assert!(p_hi.srp > p_lo.srp, "SRp: {} vs {}", p_lo.srp, p_hi.srp);
    }

    #[test]
    fn offset_scales_with_injected_mismatch() {
        let mut tb = OtaTestbench::default_07um();
        tb.tech.input_mismatch = 0.0;
        let p0 = tb.simulate(&OtaDesign::nominal()).unwrap();
        tb.tech.input_mismatch = -4.0e-3;
        let p4 = tb.simulate(&OtaDesign::nominal()).unwrap();
        assert!(
            (p4.voffset - p0.voffset).abs() > 2.0e-3,
            "mismatch injection must move the offset: {} vs {}",
            p0.voffset,
            p4.voffset
        );
    }

    #[test]
    fn unphysical_designs_are_rejected() {
        let tb = OtaTestbench::default_07um();
        // Drive below threshold: no overdrive.
        let bad = OtaDesign {
            vsg1: 0.5,
            ..OtaDesign::nominal()
        };
        assert!(tb.simulate(&bad).is_err());
        // Negative current.
        let bad = OtaDesign {
            id1: -1e-6,
            ..OtaDesign::nominal()
        };
        assert!(tb.simulate(&bad).is_err());
        // Common mode pushed out of range.
        let bad = OtaDesign {
            vsd5: 4.5,
            ..OtaDesign::nominal()
        };
        assert!(tb.simulate(&bad).is_err());
        // Cascode headroom collapsed.
        let bad = OtaDesign {
            vsd4: 3.0,
            vds2: 2.2,
            ..OtaDesign::nominal()
        };
        assert!(tb.simulate(&bad).is_err());
    }

    #[test]
    fn dx_perturbations_keep_the_testbench_alive() {
        // Every single-variable ±10% perturbation of the nominal design
        // must still simulate: the DOE sweep depends on it.
        let tb = OtaTestbench::default_07um();
        let nominal = OtaDesign::nominal().to_vec();
        for i in 0..13 {
            for sign in [-1.0, 1.0] {
                let mut v = nominal.clone();
                v[i] *= 1.0 + sign * 0.10;
                let d = OtaDesign::from_slice(&v).unwrap();
                let perf = tb.simulate(&d);
                assert!(
                    perf.is_ok(),
                    "perturbing {} by {:+.0}% failed: {:?}",
                    OTA_VAR_NAMES[i],
                    sign * 10.0,
                    perf.err()
                );
            }
        }
    }
}
