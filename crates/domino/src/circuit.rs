use std::fmt;
use std::sync::Arc;

use soi_unate::UnateNetwork;

use crate::gate::check_discharge;
use crate::{
    DominoError, DominoGate, GateRef, JunctionRef, Pdn, PdnRef, PdnWord, Signal, TransistorCounts,
};

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
///
/// Storage is flat: the packed words of every gate's PDN sit in one array
/// (each gate a pre-order range of it), the discharge junctions of every
/// gate in another, and a gate itself is a fixed-size record of offsets.
/// Gates without discharge transistors allocate nothing; gates are read
/// through [`GateRef`] views and changed through per-gate setters.
#[derive(Clone)]
pub struct DominoCircuit {
    input_names: Vec<String>,
    /// Packed PDN words of every gate.
    words: Vec<PdnWord>,
    /// Discharge junctions of every gate.
    discharge: Vec<JunctionRef>,
    gates: Vec<Slot>,
    outputs: Vec<OutputBinding>,
    /// Claimed unate root per gate (see [`DominoCircuit::roots`]).
    roots: Vec<u32>,
    /// The unate conversion the roots index (see
    /// [`DominoCircuit::conversion`]).
    conversion: Option<Arc<UnateNetwork>>,
}

/// Where one gate lives in the circuit's arrays.
#[derive(Debug, Clone, Copy)]
struct Slot {
    pdn: u32,
    pdn_len: u32,
    discharge: u32,
    discharge_len: u32,
    footed: bool,
}

/// A `u32` offset into one of the circuit's arrays.
fn offset(len: usize, what: &'static str) -> Result<u32, DominoError> {
    u32::try_from(len).map_err(|_| DominoError::TooLarge {
        what,
        value: len,
        max: u32::MAX as usize,
    })
}

impl DominoCircuit {
    /// Creates an empty circuit over the given primary inputs.
    pub fn new(input_names: Vec<String>) -> DominoCircuit {
        DominoCircuit {
            input_names,
            words: Vec::new(),
            discharge: Vec::new(),
            gates: Vec::new(),
            outputs: Vec::new(),
            roots: Vec::new(),
            conversion: None,
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
        self.push_gate(gate.view(), None)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adds a gate from a view, copying its words and junctions into the
    /// circuit's arrays, and records `root` as its unate root when given.
    /// Junction offsets are taken from the root of `gate.pdn()`.
    ///
    /// # Errors
    ///
    /// [`DominoError::BadSignal`] when a transistor reads a primary input
    /// out of range or a gate not yet defined, or a discharge junction
    /// does not resolve or is listed twice; [`DominoError::TooLarge`] when
    /// the gate's id or the arrays outgrow their packed offsets.
    pub fn push_gate(
        &mut self,
        gate: GateRef<'_>,
        root: Option<u32>,
    ) -> Result<GateId, DominoError> {
        let index = self.gates.len();
        if index > PdnWord::MAX_PAYLOAD {
            return Err(DominoError::TooLarge {
                what: "gate id",
                value: index,
                max: PdnWord::MAX_PAYLOAD,
            });
        }
        let id = GateId::from_index(index);
        let words = gate.pdn().words();
        self.check_signals(id, words, "referenced before definition")?;
        check_discharge(PdnRef::trusted(words), gate.discharge())
            .map_err(|what| DominoError::BadSignal { gate: id, what })?;
        let slot = Slot {
            pdn: offset(self.words.len(), "PDN arena offset")?,
            pdn_len: offset(words.len(), "PDN length")?,
            discharge: offset(self.discharge.len(), "discharge arena offset")?,
            discharge_len: offset(gate.discharge().len(), "discharge count")?,
            footed: gate.is_footed(),
        };
        offset(self.words.len() + words.len(), "PDN arena offset")?;
        offset(
            self.discharge.len() + gate.discharge().len(),
            "discharge arena offset",
        )?;
        self.words.extend_from_slice(words);
        self.discharge.extend_from_slice(gate.discharge());
        self.gates.push(slot);
        if let Some(root) = root {
            self.roots.push(root);
        }
        Ok(id)
    }

    /// Checks every transistor of a gate's words: inputs in range, gate
    /// references below `id`.
    fn check_signals(
        &self,
        id: GateId,
        words: &[PdnWord],
        forward: &str,
    ) -> Result<(), DominoError> {
        for signal in words.iter().filter_map(|w| w.signal()) {
            let what = match signal {
                Signal::Input { index, .. } if index >= self.input_names.len() => {
                    format!("input index {index} out of range")
                }
                Signal::Gate(g) if g >= id => format!("gate {g} {forward}"),
                _ => continue,
            };
            return Err(DominoError::BadSignal { gate: id, what });
        }
        Ok(())
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

    /// The unate network the gates' roots index, as the mapper converted
    /// it from the source network, image table included
    /// ([`UnateNetwork::image`]); `None` for circuits mapped from an
    /// already-unate network and for hand-built ones.
    ///
    /// Like [`DominoCircuit::roots`], the attachment is an *untrusted
    /// claim*. It describes the source, not the gates, so cloning and
    /// every mutator keep it, and circuit equality and `Debug` leave it
    /// out: two circuits with the same gates are equal whichever
    /// conversion they carry. An equivalence checker that reads it must
    /// prove every image it relies on against the source.
    pub fn conversion(&self) -> Option<&Arc<UnateNetwork>> {
        self.conversion.as_ref()
    }

    /// Attaches (or with `None` removes) the unate conversion, with no
    /// checking at all.
    pub fn set_conversion(&mut self, conversion: Option<Arc<UnateNetwork>>) {
        self.conversion = conversion;
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate(&self, id: GateId) -> GateRef<'_> {
        let s = self.gates[id.index()];
        let pdn = s.pdn as usize..(s.pdn + s.pdn_len) as usize;
        let discharge = s.discharge as usize..(s.discharge + s.discharge_len) as usize;
        GateRef::new(
            PdnRef::trusted(&self.words[pdn]),
            s.footed,
            &self.discharge[discharge],
        )
    }

    /// Iterator over `(id, gate)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, GateRef<'_>)> {
        (0..self.gates.len()).map(move |i| {
            let id = GateId::from_index(i);
            (id, self.gate(id))
        })
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Replaces a gate's discharge set (used by discharge-insertion
    /// passes). Setting every gate's set in gate order costs linear time
    /// in total: a set that fits its gate's old range is written in place,
    /// a longer one is appended to the discharge array.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, or any junction does not exist in
    /// the gate's PDN or appears twice.
    pub fn set_discharge(&mut self, id: GateId, junctions: &[JunctionRef]) {
        if let Err(what) = check_discharge(self.gate(id).pdn(), junctions) {
            panic!("gate {id}: {what}");
        }
        self.store_discharge(id, junctions);
    }

    /// Attaches one pre-discharge transistor to a gate.
    ///
    /// # Panics
    ///
    /// Panics if the junction does not exist in the gate's PDN, or if it
    /// already carries a discharge transistor.
    pub fn add_discharge(&mut self, id: GateId, junction: JunctionRef) {
        let gate = self.gate(id);
        let mut junctions = gate.discharge().to_vec();
        junctions.push(junction);
        self.set_discharge(id, &junctions);
    }

    /// Replaces a gate's discharge set with no junction-resolution
    /// checking.
    ///
    /// Fault-injection hook for `soi-guard::inject`: the junctions may
    /// dangle or repeat. A circuit touched by this method is untrusted
    /// until [`DominoCircuit::validate`] says otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_discharge_unchecked(&mut self, id: GateId, junctions: &[JunctionRef]) {
        self.store_discharge(id, junctions);
    }

    fn store_discharge(&mut self, id: GateId, junctions: &[JunctionRef]) {
        let slot = &mut self.gates[id.index()];
        let (start, len) = (slot.discharge as usize, slot.discharge_len as usize);
        if junctions.len() <= len {
            self.discharge[start..start + junctions.len()].copy_from_slice(junctions);
        } else {
            if start + len != self.discharge.len() {
                slot.discharge = offset(self.discharge.len(), "discharge arena offset")
                    .unwrap_or_else(|e| panic!("{e}"));
            } else {
                self.discharge.truncate(start);
            }
            self.discharge.extend_from_slice(junctions);
            offset(self.discharge.len(), "discharge arena offset")
                .unwrap_or_else(|e| panic!("{e}"));
        }
        slot.discharge_len = junctions.len() as u32;
    }

    /// Replaces a gate's pull-down network, keeping its footing and
    /// dropping its discharge set (its junctions addressed the old tree).
    /// A network of the same length is written in place.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, or the new network reads a primary
    /// input out of range or a gate that is not earlier than `id`.
    pub fn set_pdn(&mut self, id: GateId, pdn: PdnRef<'_>) {
        if let Err(e) = self.check_signals(id, pdn.words(), "referenced before definition") {
            panic!("{e}");
        }
        self.store_pdn(id, pdn.words());
        self.store_discharge(id, &[]);
    }

    /// Replaces a gate's pull-down network, keeping the existing discharge
    /// set and footing — which may no longer make sense for the new PDN.
    ///
    /// Fault-injection hook for `soi-guard::inject`; see
    /// [`DominoCircuit::set_discharge_unchecked`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_pdn_unchecked(&mut self, id: GateId, pdn: PdnRef<'_>) {
        self.store_pdn(id, pdn.words());
    }

    /// Writes a gate's words: in place at the same length, otherwise by
    /// re-packing the word array in gate order.
    fn store_pdn(&mut self, id: GateId, words: &[PdnWord]) {
        let slot = self.gates[id.index()];
        if words.len() == slot.pdn_len as usize {
            let start = slot.pdn as usize;
            self.words[start..start + words.len()].copy_from_slice(words);
            return;
        }
        let total = self.words.len() - slot.pdn_len as usize + words.len();
        offset(total, "PDN arena offset").unwrap_or_else(|e| panic!("{e}"));
        let mut packed = Vec::with_capacity(total);
        for (i, slot) in self.gates.iter_mut().enumerate() {
            let own = slot.pdn as usize..(slot.pdn + slot.pdn_len) as usize;
            let src = if i == id.index() {
                words
            } else {
                &self.words[own]
            };
            slot.pdn = packed.len() as u32;
            slot.pdn_len = src.len() as u32;
            packed.extend_from_slice(src);
        }
        self.words = packed;
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
            for word in gate.pdn().words() {
                if let Some(Signal::Gate(g)) = word.signal() {
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
            self.check_signals(id, gate.pdn().words(), "is not topological")?;
            for j in gate.discharge() {
                if !gate.pdn().has_junction(*j) {
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

/// Two circuits are equal when they have the same inputs, gates, outputs
/// and roots — however their arrays happen to be laid out, and whatever
/// conversion they carry.
impl PartialEq for DominoCircuit {
    fn eq(&self, other: &DominoCircuit) -> bool {
        self.input_names == other.input_names
            && self.outputs == other.outputs
            && self.roots == other.roots
            && self.gates.len() == other.gates.len()
            && self.iter().zip(other.iter()).all(|((_, a), (_, b))| a == b)
    }
}

impl Eq for DominoCircuit {}

impl fmt::Debug for DominoCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DominoCircuit")
            .field("input_names", &self.input_names)
            .field("gates", &self.iter().map(|(_, g)| g).collect::<Vec<_>>())
            .field("outputs", &self.outputs)
            .field("roots", &self.roots)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(a + b) * c`: one committed-style junction at the root series.
    fn stack_on_top() -> Pdn {
        Pdn::series(vec![
            Pdn::parallel(vec![
                Pdn::transistor(Signal::input(0)),
                Pdn::transistor(Signal::input(1)),
            ]),
            Pdn::transistor(Signal::input(2)),
        ])
    }

    #[test]
    fn discharge_sets_are_written_in_place_or_appended_once() {
        let mut c = DominoCircuit::new(vec!["a".into(), "b".into(), "c".into()]);
        let ids: Vec<GateId> = (0..4)
            .map(|_| c.add_gate(DominoGate::footed(stack_on_top())))
            .collect();
        assert!(
            c.discharge.is_empty(),
            "gates without discharge allocate nothing"
        );
        let j = [JunctionRef::new(0, 0)];
        for &id in &ids {
            c.set_discharge(id, &j);
        }
        // Set in gate order, every set landed at the tail: no holes.
        assert_eq!(c.discharge.len(), ids.len());
        // Re-setting the same sets (an idempotent pass) writes in place.
        for &id in &ids {
            c.set_discharge(id, &j);
        }
        assert_eq!(c.discharge.len(), ids.len());
        c.set_discharge(ids[1], &[]);
        assert_eq!(c.counts().discharge, 3);
        c.add_discharge(ids[1], j[0]);
        assert_eq!(c.gate(ids[1]).discharge(), &j);
        c.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn set_discharge_checks_every_junction() {
        let mut c =
            DominoCircuit::single_gate(vec!["a".into(), "b".into(), "c".into()], stack_on_top());
        c.set_discharge(GateId::from_index(0), &[JunctionRef::new(1, 0)]);
    }

    #[test]
    #[should_panic(expected = "already has")]
    fn set_discharge_rejects_repeats() {
        let mut c =
            DominoCircuit::single_gate(vec!["a".into(), "b".into(), "c".into()], stack_on_top());
        let j = JunctionRef::new(0, 0);
        c.set_discharge(GateId::from_index(0), &[j, j]);
    }

    #[test]
    fn pdn_replacement_is_in_place_at_equal_length_and_repacks_otherwise() {
        let mut c = or_and_circuit();
        let g0 = GateId::from_index(0);
        let g1 = GateId::from_index(1);
        c.add_discharge(g1, JunctionRef::new(0, 0));
        let words = c.words.len();
        // Same length: swap the two parallel branches in place.
        let swapped = Pdn::parallel(vec![
            Pdn::transistor(Signal::input(1)),
            Pdn::transistor(Signal::input(0)),
        ]);
        c.set_pdn(g0, swapped.view());
        assert_eq!(c.words.len(), words);
        assert_eq!(c.gate(g0).pdn(), swapped);
        // A different length re-packs; the other gate is untouched.
        let single = Pdn::transistor(Signal::input(2));
        c.set_pdn_unchecked(g0, single.view());
        assert_eq!(c.words.len(), words - 2);
        assert_eq!(c.gate(g0).pdn(), single);
        assert_eq!(c.gate(g1).discharge(), &[JunctionRef::new(0, 0)]);
        assert_eq!(c.gate(g1).pdn().to_string(), "(g0 * i2)");
        // `set_pdn` drops the junctions of the old tree.
        c.set_pdn(g1, Pdn::transistor(Signal::Gate(g0)).view());
        assert!(c.gate(g1).discharge().is_empty());
        c.validate().unwrap();
    }

    #[test]
    fn equality_ignores_the_array_layout() {
        let mut a = or_and_circuit();
        let b = or_and_circuit();
        let g0 = GateId::from_index(0);
        let original = Pdn::from_words(a.gate(g0).pdn().words().to_vec()).unwrap();
        // Re-pack away and back: the same gates, different arrays.
        a.set_pdn_unchecked(g0, Pdn::transistor(Signal::input(0)).view());
        a.set_pdn_unchecked(g0, original.view());
        a.set_discharge_unchecked(g0, &[JunctionRef::new(0, 0)]);
        a.set_discharge_unchecked(g0, &[]);
        assert_eq!(a, b);
        a.set_discharge_unchecked(GateId::from_index(1), &[JunctionRef::new(0, 0)]);
        assert_ne!(a, b);
    }

    #[test]
    fn push_gate_reports_typed_errors() {
        let mut c = DominoCircuit::new(vec!["a".into()]);
        let pdn = Pdn::transistor(Signal::input(3));
        assert!(matches!(
            c.push_gate(GateRef::new(pdn.view(), true, &[]), None),
            Err(DominoError::BadSignal { .. })
        ));
        let pdn = Pdn::transistor(Signal::input(0));
        let dangling = [JunctionRef::new(0, 0)];
        assert!(matches!(
            c.push_gate(GateRef::new(pdn.view(), true, &dangling), None),
            Err(DominoError::BadSignal { .. })
        ));
        assert_eq!(c.gate_count(), 0, "a rejected gate leaves nothing behind");
        let id = c
            .push_gate(GateRef::new(pdn.view(), true, &[]), Some(5))
            .unwrap();
        assert_eq!(c.roots(), &[5]);
        assert_eq!(c.gate(id), DominoGate::footed(pdn).view());
    }

    #[test]
    fn validate_finds_dangling_junctions_and_forward_references() {
        let mut c = or_and_circuit();
        c.set_discharge_unchecked(GateId::from_index(1), &[JunctionRef::new(0, 1)]);
        assert!(matches!(c.validate(), Err(DominoError::BadSignal { .. })));
        let mut c = or_and_circuit();
        let forward = Pdn::transistor(Signal::Gate(GateId::from_index(1)));
        c.set_pdn_unchecked(GateId::from_index(0), forward.view());
        assert!(matches!(c.validate(), Err(DominoError::BadSignal { .. })));
    }

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
        let g0 = c
            .push_gate(
                DominoGate::footed(Pdn::transistor(Signal::input(0))).view(),
                Some(0),
            )
            .unwrap();
        let _ = c
            .push_gate(
                DominoGate::footed(Pdn::transistor(Signal::Gate(g0))).view(),
                Some(7),
            )
            .unwrap();
        assert_eq!(c.roots(), &[0, 7]);
        let mut forged = c.clone();
        forged.set_roots_unchecked(vec![7]);
        assert_eq!(forged.roots(), &[7]);
        assert_ne!(forged, c, "the root table takes part in equality");
    }

    /// The attached conversion survives cloning and every mutator, and
    /// neither equality nor `Debug` sees it.
    #[test]
    fn a_conversion_rides_along_outside_equality() {
        let plain = or_and_circuit();
        let mut c = plain.clone();
        assert!(c.conversion().is_none());
        let unate = Arc::new(UnateNetwork::new(vec!["x".into()]));
        c.set_conversion(Some(Arc::clone(&unate)));
        assert_eq!(c, plain, "equality ignores the conversion");
        assert_eq!(format!("{c:?}"), format!("{plain:?}"));
        let g0 = GateId::from_index(0);
        c.set_pdn(g0, Pdn::transistor(Signal::input(0)).view());
        c.set_discharge(g0, &[]);
        c.set_output_inverted(0, true);
        c.bind_output("g", g0, false);
        c.set_roots_unchecked(vec![1, 2]);
        let copy = c.clone();
        for circuit in [&c, &copy] {
            let kept = circuit.conversion().expect("kept");
            assert!(Arc::ptr_eq(kept, &unate));
        }
        c.set_conversion(None);
        assert!(c.conversion().is_none());
        assert_eq!(c, copy);
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
