//! Circuit netlist representation.
//!
//! A [`Netlist`] is a list of [`Element`]s over named nodes. Node 0 is
//! always ground. The DC and AC engines consume netlists; the OTA
//! testbench builds them from operating-point design variables.

use serde::{Deserialize, Serialize};

use crate::mos::{MosInstance, MosPolarity};
use crate::CircuitError;

/// Identifier of a circuit node. `NodeId(0)` is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The ground node.
    pub const GROUND: NodeId = NodeId(0);

    /// `true` when this is the ground node.
    #[inline]
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// A circuit element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Element {
    /// Linear resistor between two nodes.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (must be positive).
        ohms: f64,
    },
    /// Linear capacitor between two nodes (open at DC).
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (must be non-negative).
        farads: f64,
    },
    /// Independent voltage source; contributes one MNA branch.
    VSource {
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// DC value in volts.
        dc: f64,
        /// AC magnitude in volts (phase 0); 0 for pure bias sources.
        ac: f64,
    },
    /// Independent current source: `dc` amperes flow *out of* `from` and
    /// *into* `to` (through the external circuit from `to` back to `from`).
    ISource {
        /// Node the current is drawn from.
        from: NodeId,
        /// Node the current is injected into.
        to: NodeId,
        /// DC value in amperes.
        dc: f64,
    },
    /// Voltage-controlled current source: `gm·(v(cp) − v(cn))` flows from
    /// `out_pos` to `out_neg` inside the element.
    Vccs {
        /// Output positive terminal (current leaves this node).
        out_pos: NodeId,
        /// Output negative terminal (current enters this node).
        out_neg: NodeId,
        /// Positive control node.
        cp: NodeId,
        /// Negative control node.
        cn: NodeId,
        /// Transconductance in siemens.
        gm: f64,
    },
    /// MOSFET (drain, gate, source; bulk tied to the supply rails
    /// implicitly by the level-1 model).
    Mosfet {
        /// Drain terminal.
        d: NodeId,
        /// Gate terminal.
        g: NodeId,
        /// Source terminal.
        s: NodeId,
        /// Sized device instance.
        instance: MosInstance,
    },
}

impl Element {
    /// All node ids referenced by this element.
    pub fn nodes(&self) -> Vec<NodeId> {
        match *self {
            Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => vec![a, b],
            Element::VSource { pos, neg, .. } => vec![pos, neg],
            Element::ISource { from, to, .. } => vec![from, to],
            Element::Vccs {
                out_pos,
                out_neg,
                cp,
                cn,
                ..
            } => vec![out_pos, out_neg, cp, cn],
            Element::Mosfet { d, g, s, .. } => vec![d, g, s],
        }
    }
}

/// A named-node circuit.
///
/// # Example
///
/// ```
/// use caffeine_circuit::{Element, Netlist, NodeId};
///
/// let mut nl = Netlist::new();
/// let vin = nl.node("in");
/// let out = nl.node("out");
/// nl.add(Element::VSource { pos: vin, neg: NodeId::GROUND, dc: 1.0, ac: 0.0 });
/// nl.add(Element::Resistor { a: vin, b: out, ohms: 1e3 });
/// nl.add(Element::Resistor { a: out, b: NodeId::GROUND, ohms: 1e3 });
/// assert_eq!(nl.n_nodes(), 3); // ground + 2
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Netlist {
    node_names: Vec<String>,
    elements: Vec<Element>,
}

impl Netlist {
    /// Creates an empty netlist containing only the ground node.
    pub fn new() -> Self {
        Netlist {
            node_names: vec!["0".to_string()],
            elements: Vec::new(),
        }
    }

    /// Returns the node with the given name, creating it if needed.
    /// The name `"0"` always maps to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(idx) = self.node_names.iter().position(|n| n == name) {
            NodeId(idx)
        } else {
            self.node_names.push(name.to_string());
            NodeId(self.node_names.len() - 1)
        }
    }

    /// Total node count including ground.
    pub fn n_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Adds an element and returns its index.
    pub fn add(&mut self, e: Element) -> usize {
        self.elements.push(e);
        self.elements.len() - 1
    }

    /// The elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Number of independent voltage sources (= extra MNA branches).
    pub fn n_vsources(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::VSource { .. }))
            .count()
    }

    /// Validates the netlist: node ids in range, element values physical,
    /// every non-ground node reachable from ground through element
    /// connectivity (no floating islands).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownNode`] for out-of-range node ids.
    /// * [`CircuitError::InvalidDevice`] for unphysical element values or
    ///   a floating node.
    pub fn validate(&self) -> Result<(), CircuitError> {
        for e in &self.elements {
            for n in e.nodes() {
                if n.0 >= self.node_names.len() {
                    return Err(CircuitError::UnknownNode { node: n.0 });
                }
            }
            match e {
                Element::Resistor { ohms, .. } if !(*ohms > 0.0) => {
                    return Err(CircuitError::InvalidDevice(format!(
                        "resistor must have positive resistance, got {ohms}"
                    )));
                }
                Element::Capacitor { farads, .. } if !(*farads >= 0.0) => {
                    return Err(CircuitError::InvalidDevice(format!(
                        "capacitor must be non-negative, got {farads}"
                    )));
                }
                Element::Mosfet { instance, .. }
                    if !(instance.width > 0.0 && instance.length > 0.0) =>
                {
                    return Err(CircuitError::InvalidDevice(
                        "mosfet with non-positive geometry".into(),
                    ));
                }
                _ => {}
            }
        }
        // Connectivity sweep from ground.
        let n = self.node_names.len();
        let mut reached = vec![false; n];
        reached[0] = true;
        let mut frontier = vec![NodeId::GROUND];
        while let Some(cur) = frontier.pop() {
            for e in &self.elements {
                let ns = e.nodes();
                if ns.contains(&cur) {
                    for m in ns {
                        if !reached[m.0] {
                            reached[m.0] = true;
                            frontier.push(m);
                        }
                    }
                }
            }
        }
        if let Some(idx) = reached.iter().position(|&r| !r) {
            return Err(CircuitError::InvalidDevice(format!(
                "node `{}` is not connected to ground",
                self.node_names[idx]
            )));
        }
        Ok(())
    }

    /// Iterates over MOSFET elements with their element indices.
    pub fn mosfets(&self) -> impl Iterator<Item = (usize, NodeId, NodeId, NodeId, &MosInstance)> {
        self.elements.iter().enumerate().filter_map(|(i, e)| {
            if let Element::Mosfet { d, g, s, instance } = e {
                Some((i, *d, *g, *s, instance))
            } else {
                None
            }
        })
    }

    /// Computes the polarity-normalized `(vgs, vds)` pair for a MOSFET
    /// given node voltages (`volts[i]` for node `i`, ground = 0).
    pub fn mos_control_voltages(
        d: NodeId,
        g: NodeId,
        s: NodeId,
        polarity: MosPolarity,
        volts: &[f64],
    ) -> (f64, f64) {
        let vd = volts[d.0];
        let vg = volts[g.0];
        let vs = volts[s.0];
        match polarity {
            MosPolarity::Nmos => (vg - vs, vd - vs),
            MosPolarity::Pmos => (vs - vg, vs - vd),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mos::MosProcess;

    #[test]
    fn node_interning_is_stable() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let a2 = nl.node("a");
        let b = nl.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(nl.node("0"), NodeId::GROUND);
    }

    #[test]
    fn validate_accepts_simple_divider() {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.add(Element::VSource {
            pos: vin,
            neg: NodeId::GROUND,
            dc: 1.0,
            ac: 0.0,
        });
        nl.add(Element::Resistor {
            a: vin,
            b: out,
            ohms: 1e3,
        });
        nl.add(Element::Resistor {
            a: out,
            b: NodeId::GROUND,
            ohms: 1e3,
        });
        assert!(nl.validate().is_ok());
        assert_eq!(nl.n_vsources(), 1);
    }

    #[test]
    fn validate_rejects_floating_node() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add(Element::Resistor {
            a,
            b: NodeId::GROUND,
            ohms: 1.0,
        });
        let b = nl.node("floating");
        let c = nl.node("floating2");
        nl.add(Element::Resistor {
            a: b,
            b: c,
            ohms: 1.0,
        });
        assert!(matches!(nl.validate(), Err(CircuitError::InvalidDevice(_))));
    }

    #[test]
    fn validate_rejects_bad_values() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add(Element::Resistor {
            a,
            b: NodeId::GROUND,
            ohms: -5.0,
        });
        assert!(nl.validate().is_err());

        let mut nl2 = Netlist::new();
        let a2 = nl2.node("a");
        nl2.add(Element::Capacitor {
            a: a2,
            b: NodeId::GROUND,
            farads: -1.0,
        });
        assert!(nl2.validate().is_err());
    }

    #[test]
    fn validate_rejects_unknown_node_id() {
        let mut nl = Netlist::new();
        nl.add(Element::Resistor {
            a: NodeId(99),
            b: NodeId::GROUND,
            ohms: 1.0,
        });
        assert!(matches!(
            nl.validate(),
            Err(CircuitError::UnknownNode { node: 99 })
        ));
    }

    #[test]
    fn mosfets_iterator_finds_devices() {
        let mut nl = Netlist::new();
        let d = nl.node("d");
        let g = nl.node("g");
        let inst = MosProcess::nmos_07um()
            .size_for(1e-5, 0.3, 1.0, 1e-6)
            .unwrap();
        nl.add(Element::Mosfet {
            d,
            g,
            s: NodeId::GROUND,
            instance: inst,
        });
        nl.add(Element::Resistor {
            a: d,
            b: NodeId::GROUND,
            ohms: 1e6,
        });
        nl.add(Element::Resistor {
            a: g,
            b: NodeId::GROUND,
            ohms: 1e6,
        });
        assert_eq!(nl.mosfets().count(), 1);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn control_voltage_polarity_mapping() {
        // volts indexed by node id; ground = 0.
        let volts = [0.0, 2.0, 1.0, 3.0]; // nodes 0..3
        let (vgs, vds) = Netlist::mos_control_voltages(
            NodeId(3),
            NodeId(1),
            NodeId(2),
            MosPolarity::Nmos,
            &volts,
        );
        assert_eq!(vgs, 1.0); // 2 - 1
        assert_eq!(vds, 2.0); // 3 - 1
        let (vsg, vsd) = Netlist::mos_control_voltages(
            NodeId(2),
            NodeId(1),
            NodeId(3),
            MosPolarity::Pmos,
            &volts,
        );
        assert_eq!(vsg, 1.0); // 3 - 2
        assert_eq!(vsd, 2.0); // 3 - 1
    }

    #[test]
    fn element_nodes_lists_all_terminals() {
        let e = Element::Vccs {
            out_pos: NodeId(1),
            out_neg: NodeId(2),
            cp: NodeId(3),
            cn: NodeId(4),
            gm: 1e-3,
        };
        assert_eq!(e.nodes().len(), 4);
    }
}
