use std::fmt;

use crate::{DominoError, DominoGate, Pdn, Signal, TransistorCounts};

/// Identifier of a gate inside a [`DominoCircuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(u32);

impl GateId {
    /// Creates a gate id from a raw index.
    pub fn from_index(index: usize) -> GateId {
        GateId(u32::try_from(index).expect("gate index exceeds u32 range"))
    }

    /// Dense index of the gate.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A named primary output of a [`DominoCircuit`].
///
/// `inverted` records an inversion applied at the output boundary — legal in
/// domino design and produced by the unate conversion when an output's
/// negative phase was cheaper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputBinding {
    /// Port name.
    pub name: String,
    /// Driving gate.
    pub gate: GateId,
    /// Whether a static inverter is placed at the boundary.
    pub inverted: bool,
}

/// A circuit of domino gates over named primary inputs.
///
/// Gates are stored in topological order: a gate's PDN may only reference
/// primary-input literals and gates with smaller ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DominoCircuit {
    input_names: Vec<String>,
    gates: Vec<DominoGate>,
    outputs: Vec<OutputBinding>,
    /// Claimed unate root per gate (see [`DominoCircuit::roots`]).
    roots: Vec<u32>,
}

impl DominoCircuit {
    /// Creates an empty circuit over the given primary inputs.
    pub fn new(input_names: Vec<String>) -> DominoCircuit {
        DominoCircuit {
            input_names,
            gates: Vec::new(),
            outputs: Vec::new(),
            roots: Vec::new(),
        }
    }

    /// Names of the primary inputs.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Adds a gate and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the gate references a gate id not yet defined or a primary
    /// input out of range.
    pub fn add_gate(&mut self, gate: DominoGate) -> GateId {
        for signal in gate.pdn().signals() {
            match signal {
                Signal::Input { index, .. } => assert!(
                    index < self.input_names.len(),
                    "input index {index} out of range"
                ),
                Signal::Gate(g) => assert!(
                    g.index() < self.gates.len(),
                    "gate {g} referenced before definition"
                ),
            }
        }
        let id = GateId::from_index(self.gates.len());
        self.gates.push(gate);
        id
    }

    /// Adds a gate together with the index of the unate-network node it
    /// was built from (see [`DominoCircuit::roots`]).
    ///
    /// # Panics
    ///
    /// As for [`DominoCircuit::add_gate`].
    pub fn add_rooted_gate(&mut self, gate: DominoGate, root: u32) -> GateId {
        let id = self.add_gate(gate);
        self.roots.push(root);
        id
    }

    /// The unate root of every gate, indexed by gate: the node of the
    /// unate network whose fanout-free cone the gate's PDN covers. A
    /// mapper records one per gate; a hand-built circuit has none (an
    /// empty slice).
    ///
    /// The table is an *untrusted claim*: nothing here checks it, and an
    /// equivalence checker that reads it must prove every entry it relies
    /// on — a table that is missing, of the wrong length or simply wrong
    /// may cost it a fast path, never a wrong verdict.
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// Replaces the root table with no checking at all.
    ///
    /// Fault-injection hook for `soi-guard::inject`: the table may be
    /// truncated or point anywhere.
    pub fn set_roots_unchecked(&mut self, roots: Vec<u32>) {
        self.roots = roots;
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate(&self, id: GateId) -> &DominoGate {
        &self.gates[id.index()]
    }

    /// Mutable access to a gate (used by discharge-insertion passes).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate_mut(&mut self, id: GateId) -> &mut DominoGate {
        &mut self.gates[id.index()]
    }

    /// Iterator over `(id, gate)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &DominoGate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId::from_index(i), g))
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// The output bindings.
    pub fn outputs(&self) -> &[OutputBinding] {
        &self.outputs
    }

    /// Binds a named output to a gate (non-inverted).
    pub fn add_output(&mut self, name: impl Into<String>, gate: GateId) {
        self.bind_output(name, gate, false);
    }

    /// Binds a named output with an explicit boundary inversion flag.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range.
    pub fn bind_output(&mut self, name: impl Into<String>, gate: GateId, inverted: bool) {
        assert!(gate.index() < self.gates.len(), "gate {gate} out of range");
        self.outputs.push(OutputBinding {
            name: name.into(),
            gate,
            inverted,
        });
    }

    /// Retargets an output binding's gate with no range checking.
    ///
    /// Fault-injection hook for `soi-guard::inject`: the target may dangle.
    /// A circuit touched by this method is untrusted until
    /// [`DominoCircuit::validate`] says otherwise.
    ///
    /// # Panics
    ///
    /// Panics only if `port` is not an existing output-binding index.
    pub fn set_output_gate_unchecked(&mut self, port: usize, gate: GateId) {
        self.outputs[port].gate = gate;
    }

    /// Sets an output binding's boundary inversion.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not an existing output-binding index.
    pub fn set_output_inverted(&mut self, port: usize, inverted: bool) {
        self.outputs[port].inverted = inverted;
    }

    /// Logic level of every gate: 1 for gates fed only by primary inputs,
    /// otherwise one more than the deepest feeding gate.
    pub fn gate_levels(&self) -> Vec<u32> {
        let mut levels = vec![0u32; self.gates.len()];
        for (id, gate) in self.iter() {
            let mut level = 1;
            for signal in gate.pdn().signals() {
                if let Signal::Gate(g) = signal {
                    level = level.max(levels[g.index()] + 1);
                }
            }
            levels[id.index()] = level;
        }
        levels
    }

    /// Depth of the circuit in domino-gate levels (the paper's `L`): the
    /// maximum gate level over all outputs. Zero for an empty circuit.
    pub fn levels(&self) -> u32 {
        let levels = self.gate_levels();
        self.outputs
            .iter()
            .map(|o| levels[o.gate.index()])
            .max()
            .unwrap_or(0)
    }

    /// The transistor accounting over the whole circuit.
    pub fn counts(&self) -> TransistorCounts {
        crate::count::collect(self)
    }

    /// Evaluates the circuit on one primary-input vector, returning the
    /// output values in binding order.
    ///
    /// Negative-phase literals read the complemented input, modelling the
    /// boundary inverters. This is the *functional* (evaluate-phase) view; it
    /// assumes PBE does not strike — use `soi-pbe`'s body simulator for the
    /// physical view.
    ///
    /// # Errors
    ///
    /// Returns [`DominoError::InputArity`] if `values` has the wrong length.
    pub fn evaluate(&self, values: &[bool]) -> Result<Vec<bool>, DominoError> {
        if values.len() != self.input_names.len() {
            return Err(DominoError::InputArity {
                expected: self.input_names.len(),
                got: values.len(),
            });
        }
        let mut gate_out = vec![false; self.gates.len()];
        for (id, gate) in self.iter() {
            let value_of = |s: Signal| match s {
                Signal::Input { index, phase } => phase.apply(values[index]),
                Signal::Gate(g) => gate_out[g.index()],
            };
            gate_out[id.index()] = gate.pdn().conducts(&value_of);
        }
        Ok(self
            .outputs
            .iter()
            .map(|o| gate_out[o.gate.index()] != o.inverted)
            .collect())
    }

    /// Checks structural invariants: topological gate order, in-range signal
    /// references, in-range outputs, and that every discharge junction
    /// resolves in its gate's PDN.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), DominoError> {
        for (id, gate) in self.iter() {
            for signal in gate.pdn().signals() {
                match signal {
                    Signal::Input { index, .. } => {
                        if index >= self.input_names.len() {
                            return Err(DominoError::BadSignal {
                                gate: id,
                                what: format!("input index {index} out of range"),
                            });
                        }
                    }
                    Signal::Gate(g) => {
                        if g.index() >= id.index() {
                            return Err(DominoError::BadSignal {
                                gate: id,
                                what: format!("reference to gate {g} is not topological"),
                            });
                        }
                    }
                }
            }
            let graph = gate.pdn().flatten();
            for j in gate.discharge() {
                if graph.junction_net(j).is_none() {
                    return Err(DominoError::BadSignal {
                        gate: id,
                        what: format!("discharge junction {j} does not resolve"),
                    });
                }
            }
        }
        for o in &self.outputs {
            if o.gate.index() >= self.gates.len() {
                return Err(DominoError::BadOutput {
                    name: o.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Convenience constructor: a circuit holding one footed gate over the
    /// given PDN with a single output.
    pub fn single_gate(input_names: Vec<String>, pdn: Pdn) -> DominoCircuit {
        let mut c = DominoCircuit::new(input_names);
        let g = c.add_gate(DominoGate::footed(pdn));
        c.add_output("f", g);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn or_and_circuit() -> DominoCircuit {
        // g0 = a + b; g1 = g0 * c
        let mut c = DominoCircuit::new(vec!["a".into(), "b".into(), "c".into()]);
        let g0 = c.add_gate(DominoGate::footed(Pdn::parallel(vec![
            Pdn::transistor(Signal::input(0)),
            Pdn::transistor(Signal::input(1)),
        ])));
        let g1 = c.add_gate(DominoGate::footed(Pdn::series(vec![
            Pdn::transistor(Signal::Gate(g0)),
            Pdn::transistor(Signal::input(2)),
        ])));
        c.add_output("f", g1);
        c
    }

    #[test]
    fn evaluate_two_level() {
        let c = or_and_circuit();
        assert_eq!(c.evaluate(&[true, false, true]).unwrap(), vec![true]);
        assert_eq!(c.evaluate(&[false, false, true]).unwrap(), vec![false]);
        assert_eq!(c.evaluate(&[true, true, false]).unwrap(), vec![false]);
    }

    #[test]
    fn levels_and_counts() {
        let c = or_and_circuit();
        assert_eq!(c.levels(), 2);
        let counts = c.counts();
        assert_eq!(counts.gates, 2);
        // g0: 2 + 5; g1: 2 + 5 (footed because c is primary)
        assert_eq!(counts.logic, 14);
        assert_eq!(counts.discharge, 0);
        assert_eq!(counts.total, 14);
    }

    #[test]
    fn inverted_output() {
        let mut c = or_and_circuit();
        let g = GateId::from_index(0);
        c.bind_output("nf", g, true);
        let out = c.evaluate(&[false, false, false]).unwrap();
        assert_eq!(out, vec![false, true]);
    }

    #[test]
    fn validate_passes_for_fresh_circuit() {
        or_and_circuit().validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "referenced before definition")]
    fn forward_gate_reference_panics() {
        let mut c = DominoCircuit::new(vec!["a".into()]);
        let _ = c.add_gate(DominoGate::footed(Pdn::transistor(Signal::Gate(
            GateId::from_index(7),
        ))));
    }

    #[test]
    fn roots_are_recorded_per_gate_and_only_when_given() {
        assert!(or_and_circuit().roots().is_empty());
        let mut c = DominoCircuit::new(vec!["a".into()]);
        let g0 = c.add_rooted_gate(DominoGate::footed(Pdn::transistor(Signal::input(0))), 0);
        let _ = c.add_rooted_gate(DominoGate::footed(Pdn::transistor(Signal::Gate(g0))), 7);
        assert_eq!(c.roots(), &[0, 7]);
        let mut forged = c.clone();
        forged.set_roots_unchecked(vec![7]);
        assert_eq!(forged.roots(), &[7]);
        assert_ne!(forged, c, "the root table takes part in equality");
    }

    #[test]
    fn wrong_arity_is_error() {
        let c = or_and_circuit();
        assert!(matches!(
            c.evaluate(&[true]),
            Err(DominoError::InputArity { .. })
        ));
    }

    #[test]
    fn single_gate_helper() {
        let c = DominoCircuit::single_gate(
            vec!["a".into(), "b".into()],
            Pdn::parallel(vec![
                Pdn::transistor(Signal::input(0)),
                Pdn::transistor(Signal::input(1)),
            ]),
        );
        assert_eq!(c.gate_count(), 1);
        assert_eq!(c.evaluate(&[false, true]).unwrap(), vec![true]);
    }
}
