//! Lowering mapped domino circuits back to logic networks.
//!
//! Equivalence checking compares the *function* of a mapped
//! [`DominoCircuit`] against its source [`Network`]; this module produces
//! the network view of a circuit: each gate's pull-down network becomes
//! an AND/OR tree (series conducts = conjunction, parallel = disjunction)
//! over the primary inputs and previously lowered gate outputs, with
//! negative-phase input literals sharing one inverter per input and
//! output inversions applied at the bindings — exactly the boundary
//! inverters domino permits.

use soi_domino_ir::{DominoCircuit, PdnNode, PdnRef, Phase, Signal};
use soi_netlist::{Network, NodeId};

/// Lowers a mapped domino circuit into a plain logic network with the
/// same input names, output names, and function.
pub fn circuit_to_network(circuit: &DominoCircuit) -> Network {
    let mut n = Network::new("lowered");
    let inputs: Vec<NodeId> = circuit
        .input_names()
        .iter()
        .map(|name| n.add_input(name.clone()))
        .collect();
    let mut neg: Vec<Option<NodeId>> = vec![None; inputs.len()];
    let mut gate_out = Vec::with_capacity(circuit.gate_count());
    for (_, gate) in circuit.iter() {
        let root = lower_pdn(gate.pdn(), &mut n, &inputs, &mut neg, &gate_out);
        gate_out.push(root);
    }
    for binding in circuit.outputs() {
        let driver = gate_out[binding.gate.index()];
        let driver = if binding.inverted {
            n.inv(driver)
        } else {
            driver
        };
        n.add_output(binding.name.clone(), driver);
    }
    n
}

fn lower_pdn(
    pdn: PdnRef<'_>,
    n: &mut Network,
    inputs: &[NodeId],
    neg: &mut [Option<NodeId>],
    gate_out: &[NodeId],
) -> NodeId {
    match pdn.root() {
        PdnNode::Transistor(sig) => match sig {
            Signal::Input { index, phase } => match phase {
                Phase::Pos => inputs[index],
                Phase::Neg => *neg[index].get_or_insert_with(|| n.inv(inputs[index])),
            },
            Signal::Gate(g) => gate_out[g.index()],
        },
        PdnNode::Series(children) => {
            let parts: Vec<NodeId> = children
                .map(|c| lower_pdn(c, n, inputs, neg, gate_out))
                .collect();
            n.and_tree(&parts)
        }
        PdnNode::Parallel(children) => {
            let parts: Vec<NodeId> = children
                .map(|c| lower_pdn(c, n, inputs, neg, gate_out))
                .collect();
            n.or_tree(&parts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_domino_ir::{DominoGate, Pdn};

    fn t(i: usize) -> Pdn {
        Pdn::transistor(Signal::input(i))
    }

    /// `(a + b) * c` as one gate; the lowered network must compute it.
    #[test]
    fn single_gate_lowers_to_its_function() {
        let c = DominoCircuit::single_gate(
            vec!["a".into(), "b".into(), "c".into()],
            Pdn::series(vec![Pdn::parallel(vec![t(0), t(1)]), t(2)]),
        );
        let n = circuit_to_network(&c);
        assert_eq!(n.inputs().len(), 3);
        for bits in 0..8u32 {
            let vals: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let expect = (vals[0] || vals[1]) && vals[2];
            assert_eq!(n.simulate(&vals).unwrap(), vec![expect], "bits {bits:03b}");
        }
    }

    /// Negative-phase literals share one inverter per input, gate-output
    /// signals chain, and inverted output bindings invert.
    #[test]
    fn phases_and_gate_signals_lower_correctly() {
        let mut c = DominoCircuit::new(vec!["a".into(), "b".into()]);
        let g0 = c.add_gate(DominoGate::footed(Pdn::parallel(vec![
            Pdn::transistor(Signal::input_neg(0)),
            Pdn::transistor(Signal::input_neg(0)),
            t(1),
        ])));
        let g1 = c.add_gate(DominoGate::footed(Pdn::series(vec![
            Pdn::transistor(Signal::Gate(g0)),
            t(0),
        ])));
        c.bind_output("f", g1, true);
        let n = circuit_to_network(&c);
        // One shared inverter for a', not two.
        let inverters = n
            .iter()
            .filter(|(_, node)| matches!(node, soi_netlist::Node::Unary { op, .. } if *op == soi_netlist::UnOp::Inv))
            .count();
        // a' (shared) + the output inversion.
        assert_eq!(inverters, 2);
        for bits in 0..4u32 {
            let a = bits & 1 == 1;
            let b = bits & 2 == 2;
            let g0v = !a || b;
            let expect = !(g0v && a);
            assert_eq!(
                n.simulate(&[a, b]).unwrap(),
                vec![expect],
                "bits {bits:02b}"
            );
        }
    }
}
