//! Level-1 (square-law) MOSFET model with channel-length modulation and
//! first-order mobility degradation.
//!
//! This is the device physics behind the OTA testbench. It deliberately
//! follows the classic SPICE level-1 equations — the same family of models
//! the posynomial paper's analytical reasoning assumes — plus two
//! second-order effects that give the response surfaces realistic
//! curvature for the symbolic-modeling experiments:
//!
//! * Early voltage proportional to channel length (`V_A = va_per_m · L`),
//!   so output conductance `g_ds = I_D / (V_A + V_DS)` varies with bias;
//! * mobility degradation `1 / (1 + θ·V_ov)`, which bends the square law
//!   at large overdrives.
//!
//! All terminal quantities are *polarity-normalized*: the model works in
//! `(vgs, vds)` for NMOS and `(vsg, vsd)` for PMOS, with the caller's
//! [`MosInstance::evaluate`] handling the sign conventions.

use serde::{Deserialize, Serialize};

use crate::CircuitError;

/// Transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MosPolarity {
    /// N-channel device: conducts for `vgs > vth`, current flows drain→source.
    Nmos,
    /// P-channel device: conducts for `vsg > |vth|`, current flows source→drain.
    Pmos,
}

/// Process parameters of a square-law MOSFET (one per polarity).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosProcess {
    /// Polarity of the devices this parameter set describes.
    pub polarity: MosPolarity,
    /// Threshold voltage magnitude in volts (paper: 0.76 V NMOS, 0.75 V PMOS).
    pub vth: f64,
    /// Transconductance parameter `k' = µ·C_ox` in A/V².
    pub kp: f64,
    /// Early voltage per meter of channel length, V/m.
    pub va_per_m: f64,
    /// Mobility degradation coefficient θ in 1/V.
    pub theta: f64,
    /// Gate-oxide capacitance per area, F/m².
    pub cox: f64,
    /// Gate-drain/source overlap capacitance per width, F/m.
    pub cov_per_m: f64,
    /// Junction capacitance per width at drain/source, F/m.
    pub cj_per_m: f64,
}

impl MosProcess {
    /// A 0.7 µm-class NMOS parameter set matching the paper's testbench
    /// (`Vth,nom = 0.76 V`).
    pub fn nmos_07um() -> Self {
        MosProcess {
            polarity: MosPolarity::Nmos,
            vth: 0.76,
            kp: 110e-6,
            va_per_m: 15e6, // 15 V per µm
            theta: 0.3,
            cox: 2.0e-3,
            cov_per_m: 0.25e-9,
            cj_per_m: 0.45e-9,
        }
    }

    /// A 0.7 µm-class PMOS parameter set (`Vth,nom = −0.75 V`).
    pub fn pmos_07um() -> Self {
        MosProcess {
            polarity: MosPolarity::Pmos,
            vth: 0.75,
            kp: 40e-6,
            va_per_m: 12e6,
            theta: 0.25,
            cox: 2.0e-3,
            cov_per_m: 0.25e-9,
            cj_per_m: 0.55e-9,
        }
    }

    /// Sizes a device for a target drain current at a given overdrive,
    /// in saturation at drain-source voltage `vds_sat_target`:
    /// `W/L = 2·I / (k'·V_ov²·(1 + V_DS/V_A)) · (1 + θ·V_ov)`.
    ///
    /// This is the *operating-point driven formulation* of the paper
    /// (ref. \[13\]): currents and drive voltages are the design variables,
    /// and widths follow from them.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidDevice`] when the current or overdrive is not
    /// positive, or the resulting width would be non-finite.
    pub fn size_for(
        &self,
        id: f64,
        vov: f64,
        vds_sat_target: f64,
        length: f64,
    ) -> Result<MosInstance, CircuitError> {
        if !(id > 0.0) || !id.is_finite() {
            return Err(CircuitError::InvalidDevice(format!(
                "drain current must be positive, got {id}"
            )));
        }
        if !(vov > 0.0) || !vov.is_finite() {
            return Err(CircuitError::InvalidDevice(format!(
                "overdrive must be positive, got {vov}"
            )));
        }
        if !(length > 0.0) {
            return Err(CircuitError::InvalidDevice(format!(
                "channel length must be positive, got {length}"
            )));
        }
        let va = self.va_per_m * length;
        let clm = 1.0 + vds_sat_target.max(0.0) / va;
        let mobility = 1.0 + self.theta * vov;
        let w_over_l = 2.0 * id * mobility / (self.kp * vov * vov * clm);
        let width = w_over_l * length;
        if !width.is_finite() || width <= 0.0 {
            return Err(CircuitError::InvalidDevice(format!(
                "computed width {width} is not physical"
            )));
        }
        Ok(MosInstance {
            process: *self,
            width,
            length,
            vth_shift: 0.0,
        })
    }
}

/// A sized MOSFET instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosInstance {
    /// Process parameters.
    pub process: MosProcess,
    /// Channel width in meters.
    pub width: f64,
    /// Channel length in meters.
    pub length: f64,
    /// Deterministic threshold shift in volts (mismatch injection for
    /// offset experiments; positive raises the magnitude of `vth`).
    pub vth_shift: f64,
}

/// The operating point of a MOSFET: current and small-signal parameters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosOperatingPoint {
    /// Drain current (drain→source for NMOS, source→drain for PMOS),
    /// in the *normalized* positive-conduction convention.
    pub id: f64,
    /// Transconductance ∂I/∂V_gs.
    pub gm: f64,
    /// Output conductance ∂I/∂V_ds.
    pub gds: f64,
    /// `true` when the device is in the saturation region.
    pub saturated: bool,
    /// Gate-source capacitance at this bias.
    pub cgs: f64,
    /// Gate-drain capacitance at this bias.
    pub cgd: f64,
    /// Drain-bulk junction capacitance.
    pub cdb: f64,
}

impl MosInstance {
    /// Scales the width by `factor` (current-mirror ratios).
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidDevice`] for a non-positive factor.
    // lint: allow(test-only-api) — the current-mirror integration test sizes its devices with it
    pub fn scaled_width(&self, factor: f64) -> Result<MosInstance, CircuitError> {
        if !(factor > 0.0) || !factor.is_finite() {
            return Err(CircuitError::InvalidDevice(format!(
                "width scale factor must be positive, got {factor}"
            )));
        }
        Ok(MosInstance {
            width: self.width * factor,
            ..*self
        })
    }

    /// Returns a copy with an added threshold shift (mismatch injection).
    pub fn with_vth_shift(&self, shift: f64) -> MosInstance {
        MosInstance {
            vth_shift: self.vth_shift + shift,
            ..*self
        }
    }

    /// Effective threshold magnitude including mismatch shift.
    #[inline]
    pub fn vth_eff(&self) -> f64 {
        self.process.vth + self.vth_shift
    }

    /// Evaluates the device at *polarity-normalized* terminal voltages.
    ///
    /// For NMOS pass `(vgs, vds)`; for PMOS pass `(vsg, vsd)`. Negative
    /// `vds` is handled by the source/drain symmetry of the square law.
    /// The returned operating point is in the same normalized convention;
    /// [`crate::netlist`] maps it back to node polarities.
    pub fn evaluate(&self, vgs: f64, vds: f64) -> MosOperatingPoint {
        // Source/drain swap for reverse conduction.
        if vds < 0.0 {
            // With terminals swapped the gate-source voltage becomes
            // vgd = vgs - vds.
            let swapped = self.evaluate(vgs - vds, -vds);
            return MosOperatingPoint {
                id: -swapped.id,
                gm: swapped.gm,
                // Chain rule through the swap keeps gds positive.
                gds: swapped.gds + swapped.gm,
                ..swapped
            };
        }
        let vth = self.vth_eff();
        let vov = vgs - vth;
        let beta0 = self.process.kp * self.width / self.length;
        let theta = self.process.theta;
        let va = self.process.va_per_m * self.length;

        let (id, gm, gds, saturated) = if vov <= 0.0 {
            // Cutoff: tiny leakage conductance keeps the Jacobian nonsingular.
            let gleak = 1e-12;
            (gleak * vds, 0.0, gleak, false)
        } else {
            // Mobility degradation enters both regions; its vgs-derivative
            // is carried exactly so Newton sees a consistent Jacobian.
            let mob = 1.0 + theta * vov;
            let clm = 1.0 + vds / va;
            if vds >= vov {
                // Saturation with channel-length modulation expressed
                // through a bias-dependent Early voltage.
                let isat = 0.5 * beta0 * vov * vov / mob;
                let id = isat * clm;
                // d/dvov of (vov²/mob) = vov(2 + θ·vov)/mob².
                let gm = 0.5 * beta0 * clm * vov * (2.0 + theta * vov) / (mob * mob);
                let gds = isat / va;
                (id, gm, gds, true)
            } else {
                // Triode region, with the same CLM factor so the current
                // and gds are continuous across vds = vov.
                let core = vov * vds - 0.5 * vds * vds;
                let id = beta0 * core * clm / mob;
                // d/dvgs: product rule over core/mob.
                let gm = beta0 * clm * (vds * mob - theta * core) / (mob * mob);
                let gds = beta0 * ((vov - vds) * clm + core / va) / mob + 1e-12;
                (id, gm, gds, false)
            }
        };

        // Bias-dependent capacitances (Meyer-style split).
        let area = self.width * self.length;
        let (cgs, cgd) = if vov <= 0.0 {
            let chalf = 0.5 * area * self.process.cox;
            (
                chalf * 0.0 + self.width * self.process.cov_per_m,
                chalf * 0.0 + self.width * self.process.cov_per_m,
            )
        } else if saturated {
            (
                (2.0 / 3.0) * area * self.process.cox + self.width * self.process.cov_per_m,
                self.width * self.process.cov_per_m,
            )
        } else {
            let chalf = 0.5 * area * self.process.cox;
            (
                chalf + self.width * self.process.cov_per_m,
                chalf + self.width * self.process.cov_per_m,
            )
        };
        let cdb = self.width * self.process.cj_per_m;

        MosOperatingPoint {
            id,
            gm,
            gds,
            saturated,
            cgs,
            cgd,
            cdb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos_unit() -> MosInstance {
        MosProcess::nmos_07um()
            .size_for(10e-6, 0.3, 1.0, 1e-6)
            .unwrap()
    }

    #[test]
    fn sized_device_carries_target_current() {
        let m = nmos_unit();
        let op = m.evaluate(0.76 + 0.3, 1.0);
        assert!(op.saturated);
        assert!(
            (op.id - 10e-6).abs() / 10e-6 < 1e-9,
            "sized current {} != 10 µA",
            op.id
        );
    }

    #[test]
    fn cutoff_has_negligible_current() {
        let m = nmos_unit();
        let op = m.evaluate(0.5, 1.0);
        assert!(!op.saturated);
        assert!(op.id.abs() < 1e-10);
        assert_eq!(op.gm, 0.0);
    }

    #[test]
    fn current_increases_with_overdrive_and_vds() {
        let m = nmos_unit();
        let i1 = m.evaluate(1.0, 1.0).id;
        let i2 = m.evaluate(1.2, 1.0).id;
        let i3 = m.evaluate(1.2, 2.0).id;
        assert!(i2 > i1);
        assert!(i3 > i2); // channel-length modulation
    }

    #[test]
    fn triode_saturation_boundary_is_continuous() {
        let m = nmos_unit();
        let vov: f64 = 0.3;
        let just_below = m.evaluate(0.76 + vov, vov - 1e-9).id;
        let just_above = m.evaluate(0.76 + vov, vov + 1e-9).id;
        assert!((just_below - just_above).abs() / just_above < 1e-3);
    }

    #[test]
    fn gm_matches_finite_difference() {
        let m = nmos_unit();
        let (vgs, vds) = (1.1, 1.5);
        let op = m.evaluate(vgs, vds);
        let h = 1e-7;
        let fd = (m.evaluate(vgs + h, vds).id - m.evaluate(vgs - h, vds).id) / (2.0 * h);
        assert!(
            (op.gm - fd).abs() / fd.abs() < 1e-4,
            "gm {} vs fd {}",
            op.gm,
            fd
        );
    }

    #[test]
    fn gds_matches_finite_difference_in_saturation() {
        let m = nmos_unit();
        let (vgs, vds) = (1.1, 2.0);
        let op = m.evaluate(vgs, vds);
        let h = 1e-7;
        let fd = (m.evaluate(vgs, vds + h).id - m.evaluate(vgs, vds - h).id) / (2.0 * h);
        // The level-1 CLM derivative neglects the isat·d(clm)/dvds ≈ isat/va
        // coupling with the vds-dependent mobility term; allow 1%.
        assert!(
            (op.gds - fd).abs() / fd.abs() < 1e-2,
            "gds {} vs fd {}",
            op.gds,
            fd
        );
    }

    #[test]
    fn reverse_conduction_is_antisymmetric() {
        let m = nmos_unit();
        // A symmetric device with swapped drain/source carries the negated
        // current of the forward configuration with gate at vgd.
        let fwd = m.evaluate(1.5, 0.8);
        let rev = m.evaluate(1.5 - 0.8, -0.8);
        assert!((fwd.id + rev.id).abs() / fwd.id < 1e-12);
    }

    #[test]
    fn vth_shift_moves_current() {
        let m = nmos_unit();
        let hi = m.with_vth_shift(-0.01).evaluate(1.06, 1.0).id;
        let lo = m.with_vth_shift(0.01).evaluate(1.06, 1.0).id;
        assert!(hi > lo);
        assert!((m.with_vth_shift(0.01).vth_eff() - 0.77).abs() < 1e-12);
    }

    #[test]
    fn mirror_scaling_scales_current() {
        let m = nmos_unit();
        let m4 = m.scaled_width(4.0).unwrap();
        let i1 = m.evaluate(1.1, 1.0).id;
        let i4 = m4.evaluate(1.1, 1.0).id;
        assert!((i4 / i1 - 4.0).abs() < 1e-12);
        assert!(m.scaled_width(0.0).is_err());
        assert!(m.scaled_width(-1.0).is_err());
    }

    #[test]
    fn sizing_rejects_unphysical_requests() {
        let p = MosProcess::nmos_07um();
        assert!(p.size_for(-1e-6, 0.3, 1.0, 1e-6).is_err());
        assert!(p.size_for(1e-6, 0.0, 1.0, 1e-6).is_err());
        assert!(p.size_for(1e-6, 0.3, 1.0, 0.0).is_err());
        assert!(p.size_for(f64::NAN, 0.3, 1.0, 1e-6).is_err());
    }

    #[test]
    fn capacitances_positive_and_bias_dependent() {
        let m = nmos_unit();
        let sat = m.evaluate(1.1, 2.0);
        let tri = m.evaluate(1.5, 0.1);
        assert!(sat.cgs > 0.0 && sat.cgd > 0.0 && sat.cdb > 0.0);
        // In triode the channel splits between source and drain sides.
        assert!(tri.cgd > sat.cgd);
    }

    #[test]
    fn pmos_process_sizes_devices_too() {
        let p = MosProcess::pmos_07um();
        let m = p.size_for(10e-6, 0.35, 1.0, 1e-6).unwrap();
        // Normalized convention: evaluate(vsg, vsd).
        let op = m.evaluate(0.75 + 0.35, 1.0);
        assert!(op.saturated);
        assert!((op.id - 10e-6).abs() / 10e-6 < 1e-9);
    }

    #[test]
    fn mobility_degradation_bends_square_law() {
        // At fixed geometry, doubling overdrive should give LESS than 4x
        // current because of the theta term.
        let p = MosProcess::nmos_07um();
        let m = MosInstance {
            process: p,
            width: 10e-6,
            length: 1e-6,
            vth_shift: 0.0,
        };
        let i1 = m.evaluate(p.vth + 0.2, 2.0).id;
        let i2 = m.evaluate(p.vth + 0.4, 2.0).id;
        assert!(i2 / i1 < 4.0);
        assert!(i2 / i1 > 3.0);
    }
}
