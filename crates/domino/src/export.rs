//! Textual netlist export.
//!
//! Emits a human-readable, SPICE-flavoured transistor netlist of a
//! [`DominoCircuit`]: one subcircuit per domino gate, with the clock,
//! keeper, inverter and pre-discharge devices made explicit. Intended for
//! inspection and for diffing mapped circuits in tests, not for simulation
//! by an external tool.

use std::fmt::Write as _;

use crate::{DominoCircuit, PdnGraph, Signal};

/// Renders the circuit as a transistor-level netlist.
///
/// # Example
///
/// ```rust
/// use soi_domino_ir::{export, DominoCircuit, Pdn, Signal};
///
/// let c = DominoCircuit::single_gate(
///     vec!["a".into(), "b".into()],
///     Pdn::parallel(vec![
///         Pdn::transistor(Signal::input(0)),
///         Pdn::transistor(Signal::input(1)),
///     ]),
/// );
/// let text = export::netlist(&c);
/// assert!(text.contains("MPRE"));
/// assert!(text.contains("nmos"));
/// ```
pub fn netlist(circuit: &DominoCircuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "* domino circuit: {} gates", circuit.gate_count());
    let _ = writeln!(out, "* inputs: {}", circuit.input_names().join(" "));
    for (id, gate) in circuit.iter() {
        let graph = gate.pdn().flatten();
        let _ = writeln!(out, ".subckt gate{} dyn{id} out{id}", id.index());
        // Precharge pmos: dynamic node to vdd, gated by clk.
        let _ = writeln!(out, "MPRE{id} dyn{id} clk vdd vdd pmos");
        // Keeper pmos, gated by the gate output.
        let _ = writeln!(out, "MKEEP{id} dyn{id} out{id} vdd vdd pmos");
        // Output inverter.
        let _ = writeln!(out, "MINVP{id} out{id} dyn{id} vdd vdd pmos");
        let _ = writeln!(out, "MINVN{id} out{id} dyn{id} gnd gnd nmos");
        // PDN transistors.
        let net_name = |n: crate::NetId| -> String {
            if n == PdnGraph::TOP {
                format!("dyn{id}")
            } else if n == PdnGraph::FOOT {
                if gate.is_footed() {
                    format!("foot{id}")
                } else {
                    "gnd".to_string()
                }
            } else {
                format!("x{}_{}", id.index(), n.index())
            }
        };
        for (t, dev) in graph.transistors.iter().zip(0..) {
            let gate_net = match t.signal {
                Signal::Input { index, phase } => {
                    let name = &circuit.input_names()[index];
                    match phase {
                        crate::Phase::Pos => name.clone(),
                        crate::Phase::Neg => format!("{name}_b"),
                    }
                }
                Signal::Gate(g) => format!("out{g}"),
            };
            let _ = writeln!(
                out,
                "MN{}_{dev} {} {gate_net} {} gnd nmos",
                id.index(),
                net_name(t.upper),
                net_name(t.lower)
            );
        }
        // Foot n-clock.
        if gate.is_footed() {
            let _ = writeln!(out, "MFOOT{id} foot{id} clk gnd gnd nmos");
        }
        // Pre-discharge pmos devices connect their junction to ground when
        // clk is low (precharge phase).
        for (i, j) in gate.discharge().iter().enumerate() {
            let net = graph.junction_net(j).expect("validated junction");
            let _ = writeln!(
                out,
                "MDIS{}_{i} {} clk gnd gnd pmos",
                id.index(),
                net_name(net)
            );
        }
        let _ = writeln!(out, ".ends");
    }
    for binding in circuit.outputs() {
        let inv = if binding.inverted { " (inverted)" } else { "" };
        let _ = writeln!(
            out,
            "* output {} <- out{}{}",
            binding.name, binding.gate, inv
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DominoGate, JunctionRef, Pdn};

    #[test]
    fn netlist_mentions_every_device_class() {
        let mut c = DominoCircuit::new(vec!["a".into(), "b".into(), "c".into()]);
        let pdn = Pdn::series(vec![
            Pdn::parallel(vec![
                Pdn::transistor(Signal::input(0)),
                Pdn::transistor(Signal::input(1)),
            ]),
            Pdn::transistor(Signal::input(2)),
        ]);
        let mut gate = DominoGate::footed(pdn);
        gate.add_discharge(JunctionRef::new(0, 0));
        let g = c.add_gate(gate);
        c.add_output("f", g);
        let text = netlist(&c);
        for marker in ["MPRE", "MKEEP", "MINVP", "MINVN", "MFOOT", "MDIS", "MN0_2"] {
            assert!(text.contains(marker), "missing {marker} in:\n{text}");
        }
    }

    #[test]
    fn footless_gate_ties_pdn_to_ground() {
        let mut c = DominoCircuit::new(vec!["a".into()]);
        let g0 = c.add_gate(DominoGate::footed(Pdn::transistor(Signal::input(0))));
        let g1 = c.add_gate(DominoGate::footless(Pdn::transistor(Signal::Gate(g0))));
        c.add_output("f", g1);
        let text = netlist(&c);
        assert!(!text.contains("MFOOT1"));
        assert!(text.contains("MN1_0 dyng1 outg0 gnd gnd nmos"));
    }

    #[test]
    fn negative_literal_uses_complement_rail() {
        let c = DominoCircuit::single_gate(vec!["a".into()], Pdn::transistor(Signal::input_neg(0)));
        assert!(netlist(&c).contains("a_b"));
    }
}
