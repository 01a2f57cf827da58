//! Two-phase switch-level simulation with floating-body state.
//!
//! This module *demonstrates* the parasitic bipolar effect dynamically, the
//! way §III-B of the paper describes it, instead of merely counting
//! susceptible nodes:
//!
//! * every clock cycle has a **precharge** phase (clk = 0: p-clock and
//!   pre-discharge pmos devices on, foot n-clock off) and an **evaluate**
//!   phase (clk = 1: the reverse);
//! * net voltages are resolved by conducting-path closure: ground drivers
//!   win, then actively driven high nets (the precharge device, or the
//!   keeper holding an undischarged dynamic node), and isolated nets float,
//!   retaining their charge;
//! * each PDN transistor carries a floating-body counter: sitting *off*
//!   with source and drain both **driven** high (a conducting path to a
//!   rail — floating charge is too small to feed body leakage) for
//!   [`BodySimConfig::charge_threshold`] phases charges the body. Gate
//!   switching dumps the body instantly (capacitive coupling); otherwise
//!   the body discharges gradually, one count per phase, through junction
//!   leakage — the timing-hysteresis memory the paper describes;
//! * during evaluate, an off transistor with a charged body whose source is
//!   low while its drain is high conducts through the lateral parasitic
//!   bipolar device — the simulator injects that conduction, iterates to a
//!   fixpoint, and reports a [`PbeEvent`]. If the dynamic node discharges
//!   where the boolean function says it should not, the cycle is flagged as
//!   **mis-evaluated**, and the wrong value propagates to downstream gates
//!   exactly as it would on silicon.
//!
//! The simulator is deliberately discrete (no currents, no capacitance
//! ratios): it encodes the paper's qualitative mechanism so that tests can
//! show `Domino_Map` output failing without discharge transistors and every
//! protected mapping running clean. See `DESIGN.md` §3 for the substitution
//! rationale.

use std::fmt;

use soi_domino_ir::{DominoCircuit, GateId, NetId, PdnGraph, Signal};

use crate::PbeError;

/// Configuration of the body-state simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodySimConfig {
    /// Number of consecutive phases a device must sit off with source and
    /// drain high before its body counts as charged. The default (3) means
    /// "more than one full clock cycle", matching the paper's "over a
    /// sufficiently large period of time".
    pub charge_threshold: u32,
    /// Model the bipolar conduction. With `false` the simulator becomes an
    /// ideal two-phase domino simulator (useful as a reference).
    pub model_bipolar: bool,
}

impl Default for BodySimConfig {
    fn default() -> BodySimConfig {
        BodySimConfig {
            charge_threshold: 3,
            model_bipolar: true,
        }
    }
}

/// A parasitic-bipolar conduction event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PbeEvent {
    /// Cycle in which the event fired.
    pub cycle: u64,
    /// Gate containing the device.
    pub gate: GateId,
    /// Index of the device within the gate's flattened PDN.
    pub transistor: usize,
}

impl fmt::Display for PbeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: bipolar conduction in gate {} device {}",
            self.cycle, self.gate, self.transistor
        )
    }
}

/// Result of simulating one clock cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleReport {
    /// The cycle index (starting at 0).
    pub cycle: u64,
    /// Circuit outputs as physically produced (PBE effects included).
    pub outputs: Vec<bool>,
    /// Circuit outputs of the ideal boolean evaluation.
    pub ideal_outputs: Vec<bool>,
    /// All bipolar conduction events this cycle.
    pub pbe_events: Vec<PbeEvent>,
    /// Number of precharge-phase contentions (a precharge path fighting a
    /// pre-discharge device) observed.
    pub contentions: u32,
}

impl CycleReport {
    /// Whether any output differed from the ideal evaluation.
    pub fn misevaluated(&self) -> bool {
        self.outputs != self.ideal_outputs
    }
}

#[derive(Debug, Clone)]
struct GateState {
    graph: PdnGraph,
    discharge_nets: Vec<NetId>,
    footed: bool,
    /// Current voltage per net (`true` = high).
    net_high: Vec<bool>,
    /// Whether the net was driven (connected to a rail) this phase, as
    /// opposed to floating on retained charge.
    net_driven: Vec<bool>,
    /// Per-device consecutive charging phases.
    body_count: Vec<u32>,
    body_charged: Vec<bool>,
    /// Previous gate-terminal value per device (for switch detection).
    prev_on: Vec<bool>,
    /// Current evaluate-phase output (physical).
    output: bool,
    /// Current evaluate-phase output (ideal).
    ideal_output: bool,
}

/// The simulator. Owns per-gate net and body state across cycles.
///
/// # Example
///
/// Reproduce §III-B: `(A+B+C)*D` without protection mis-evaluates.
///
/// ```rust
/// use soi_domino_ir::{DominoCircuit, Pdn, Signal};
/// use soi_pbe::bodysim::{BodySimConfig, BodySimulator};
///
/// # fn main() -> Result<(), soi_pbe::PbeError> {
/// let c = DominoCircuit::single_gate(
///     vec!["a".into(), "b".into(), "c".into(), "d".into()],
///     Pdn::series(vec![
///         Pdn::parallel(vec![
///             Pdn::transistor(Signal::input(0)),
///             Pdn::transistor(Signal::input(1)),
///             Pdn::transistor(Signal::input(2)),
///         ]),
///         Pdn::transistor(Signal::input(3)),
///     ]),
/// );
/// let mut sim = BodySimulator::new(&c, BodySimConfig::default())?;
/// // Hold A=1, D=0: node 1 charges high, bodies of B and C charge.
/// for _ in 0..3 {
///     sim.step(&[true, false, false, false])?;
/// }
/// // Drop A, then fire D: the parasitic devices discharge the dynamic node.
/// sim.step(&[false, false, false, false])?;
/// let report = sim.step(&[false, false, false, true])?;
/// assert!(!report.pbe_events.is_empty());
/// assert!(report.misevaluated());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BodySimulator<'c> {
    circuit: &'c DominoCircuit,
    cfg: BodySimConfig,
    gates: Vec<GateState>,
    cycle: u64,
    charged_phase_total: u64,
}

impl<'c> BodySimulator<'c> {
    /// Creates a simulator over the circuit. All nets start low and all
    /// bodies discharged (a cold power-up).
    ///
    /// # Errors
    ///
    /// Returns [`PbeError::BadDischargeJunction`] when a gate's
    /// pre-discharge transistor references a junction that does not exist in
    /// its pull-down network (a malformed circuit must not panic the
    /// simulator).
    pub fn new(
        circuit: &'c DominoCircuit,
        cfg: BodySimConfig,
    ) -> Result<BodySimulator<'c>, PbeError> {
        let mut gates = Vec::new();
        for (id, gate) in circuit.iter() {
            let graph = gate.pdn().flatten();
            let mut discharge_nets = Vec::with_capacity(gate.discharge().len());
            for j in gate.discharge() {
                let net = graph
                    .junction_net(j)
                    .ok_or_else(|| PbeError::BadDischargeJunction {
                        gate: id.index(),
                        junction: format!("{j:?}"),
                    })?;
                discharge_nets.push(net);
            }
            let nets = graph.net_count();
            let devices = graph.transistors.len();
            gates.push(GateState {
                graph,
                discharge_nets,
                footed: gate.is_footed(),
                net_high: vec![false; nets],
                net_driven: vec![false; nets],
                body_count: vec![0; devices],
                body_charged: vec![false; devices],
                prev_on: vec![false; devices],
                output: false,
                ideal_output: false,
            });
        }
        Ok(BodySimulator {
            circuit,
            cfg,
            gates,
            cycle: 0,
            charged_phase_total: 0,
        })
    }

    /// Runs one full clock cycle (precharge then evaluate) with the given
    /// primary-input values held throughout.
    ///
    /// # Errors
    ///
    /// Returns [`PbeError::InputArity`] if `inputs` has the wrong length.
    pub fn step(&mut self, inputs: &[bool]) -> Result<CycleReport, PbeError> {
        if inputs.len() != self.circuit.input_names().len() {
            return Err(PbeError::InputArity {
                expected: self.circuit.input_names().len(),
                got: inputs.len(),
            });
        }
        let mut contentions = 0;
        // ---- Precharge phase: all domino outputs are low. ----
        for idx in 0..self.gates.len() {
            let on: Vec<bool> = self.gates[idx]
                .graph
                .transistors
                .iter()
                .map(|t| match t.signal {
                    Signal::Input { index, phase } => phase.apply(inputs[index]),
                    Signal::Gate(_) => false,
                })
                .collect();
            contentions += self.resolve_precharge(idx, &on);
            self.update_bodies(idx, &on);
        }

        // ---- Evaluate phase: gates cascade in topological order. ----
        let mut events = Vec::new();
        for idx in 0..self.gates.len() {
            let (on, ideal_on): (Vec<bool>, Vec<bool>) = {
                let state = &self.gates[idx];
                let mut on = Vec::with_capacity(state.graph.transistors.len());
                let mut ideal = Vec::with_capacity(state.graph.transistors.len());
                for t in &state.graph.transistors {
                    match t.signal {
                        Signal::Input { index, phase } => {
                            let v = phase.apply(inputs[index]);
                            on.push(v);
                            ideal.push(v);
                        }
                        Signal::Gate(g) => {
                            on.push(self.gates[g.index()].output);
                            ideal.push(self.gates[g.index()].ideal_output);
                        }
                    }
                }
                (on, ideal)
            };
            let fired = self.resolve_evaluate(idx, &on);
            for dev in fired {
                events.push(PbeEvent {
                    cycle: self.cycle,
                    gate: GateId::from_index(idx),
                    transistor: dev,
                });
            }
            let state = &mut self.gates[idx];
            state.output = !state.net_high[PdnGraph::TOP.index()];
            // Ideal output via pure tree evaluation.
            let mut k = 0;
            let ideal = conducts_indexed(
                self.circuit.gate(GateId::from_index(idx)).pdn(),
                &ideal_on,
                &mut k,
            );
            state.ideal_output = ideal;
            let on_copy = on;
            self.update_bodies(idx, &on_copy);
        }

        let outputs = self
            .circuit
            .outputs()
            .iter()
            .map(|o| self.gates[o.gate.index()].output != o.inverted)
            .collect();
        let ideal_outputs = self
            .circuit
            .outputs()
            .iter()
            .map(|o| self.gates[o.gate.index()].ideal_output != o.inverted)
            .collect();
        let report = CycleReport {
            cycle: self.cycle,
            outputs,
            ideal_outputs,
            pbe_events: events,
            contentions,
        };
        self.cycle += 1;
        Ok(report)
    }

    /// Runs a sequence of cycles and returns all reports.
    ///
    /// # Errors
    ///
    /// Propagates the first [`PbeError`] from [`BodySimulator::step`].
    pub fn run(&mut self, sequence: &[Vec<bool>]) -> Result<Vec<CycleReport>, PbeError> {
        sequence.iter().map(|v| self.step(v)).collect()
    }

    /// Resolves precharge-phase net values. Returns contention count.
    fn resolve_precharge(&mut self, idx: usize, on: &[bool]) -> u32 {
        let state = &mut self.gates[idx];
        let nets = state.graph.net_count();
        let mut comp = components(&state.graph, on, nets);

        // Drivers: TOP high (p-clock), discharge nets low, foot low only for
        // footless gates (tied to ground).
        let mut comp_low = vec![false; nets];
        let mut comp_high = vec![false; nets];
        let top_c = comp[PdnGraph::TOP.index()];
        comp_high[top_c] = true;
        for net in &state.discharge_nets {
            comp_low[comp[net.index()]] = true;
        }
        if !state.footed {
            comp_low[comp[PdnGraph::FOOT.index()]] = true;
        }

        let mut contentions = 0;
        let prev = state.net_high.clone();
        for n in 0..nets {
            let c = comp[n];
            state.net_driven[n] = comp_low[c] || comp_high[c];
            state.net_high[n] = if comp_low[c] {
                if comp_high[c] {
                    contentions += 1;
                }
                false
            } else if comp_high[c] {
                true
            } else {
                prev[n]
            };
        }
        // Silence the unused-assignment lint on comp reuse.
        comp.clear();
        contentions
    }

    /// Resolves evaluate-phase net values, injecting bipolar conduction to a
    /// fixpoint. Returns the devices that fired.
    fn resolve_evaluate(&mut self, idx: usize, on: &[bool]) -> Vec<usize> {
        let mut fired = Vec::new();
        let mut conducting = on.to_vec();
        loop {
            let state = &mut self.gates[idx];
            let nets = state.graph.net_count();
            let comp = components(&state.graph, &conducting, nets);
            let mut comp_low = vec![false; nets];
            let mut comp_high = vec![false; nets];
            // Ground: the foot (n-clock on during evaluate, or footless tie).
            comp_low[comp[PdnGraph::FOOT.index()]] = true;
            // Keeper: holds TOP high unless grounded.
            let top_c = comp[PdnGraph::TOP.index()];
            if !comp_low[top_c] {
                comp_high[top_c] = true;
            }
            let prev = state.net_high.clone();
            for n in 0..nets {
                let c = comp[n];
                state.net_driven[n] = comp_low[c] || comp_high[c];
                state.net_high[n] = if comp_low[c] {
                    false
                } else if comp_high[c] {
                    true
                } else {
                    prev[n]
                };
            }
            if !self.cfg.model_bipolar {
                break;
            }
            // Find newly firing parasitic devices.
            let mut new_fire = Vec::new();
            for (dev, t) in state.graph.transistors.iter().enumerate() {
                if !conducting[dev]
                    && state.body_charged[dev]
                    && !state.net_high[t.lower.index()]
                    && state.net_high[t.upper.index()]
                {
                    new_fire.push(dev);
                }
            }
            if new_fire.is_empty() {
                break;
            }
            for &dev in &new_fire {
                conducting[dev] = true;
                // The bipolar action dumps the body charge.
                state.body_charged[dev] = false;
                state.body_count[dev] = 0;
            }
            fired.extend(new_fire);
        }
        fired
    }

    /// End-of-phase body bookkeeping.
    ///
    /// The body charges only while both junction terminals are *driven*
    /// high: sustained body leakage needs a DC path to a rail, and a
    /// floating node's stored charge is far too small (this is also what
    /// makes the paper's grounded-stack absolution valid). A gate switch
    /// dumps the body through capacitive coupling; otherwise the body
    /// discharges one count per phase — the hysteretic memory of §III-A.
    fn update_bodies(&mut self, idx: usize, on: &[bool]) {
        let cap = self.cfg.charge_threshold * 2;
        let state = &mut self.gates[idx];
        for (dev, t) in state.graph.transistors.iter().enumerate() {
            let switched = state.prev_on[dev] != on[dev];
            state.prev_on[dev] = on[dev];
            let charging = !on[dev]
                && state.net_high[t.upper.index()]
                && state.net_driven[t.upper.index()]
                && state.net_high[t.lower.index()]
                && state.net_driven[t.lower.index()];
            if switched || on[dev] {
                state.body_count[dev] = 0;
            } else if charging {
                state.body_count[dev] = (state.body_count[dev] + 1).min(cap);
            } else {
                state.body_count[dev] = state.body_count[dev].saturating_sub(1);
            }
            state.body_charged[dev] = state.body_count[dev] >= self.cfg.charge_threshold;
        }
        self.charged_phase_total += state.body_charged.iter().filter(|&&c| c).count() as u64;
    }

    /// Number of devices whose body is currently charged (introspection for
    /// tests and demos).
    pub fn charged_bodies(&self) -> usize {
        self.gates
            .iter()
            .map(|g| g.body_charged.iter().filter(|&&c| c).count())
            .sum()
    }

    /// Cumulative device-phases spent with a charged body since the
    /// simulation started — the *timing-hysteresis exposure* of §III-A:
    /// devices whose body floated high switch at a different speed than
    /// freshly-reset ones, so a mapping that keeps this number low has more
    /// predictable timing (one of the paper's stated side benefits).
    pub fn hysteresis_exposure(&self) -> u64 {
        self.charged_phase_total
    }
}

/// Union of nets through conducting devices; returns a component label per
/// net.
fn components(graph: &PdnGraph, conducting: &[bool], nets: usize) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..nets).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (dev, t) in graph.transistors.iter().enumerate() {
        if conducting[dev] {
            let a = find(&mut parent, t.upper.index());
            let b = find(&mut parent, t.lower.index());
            parent[a.max(b)] = a.min(b);
        }
    }
    (0..nets).map(|n| find(&mut parent, n)).collect()
}

/// Evaluates a PDN tree against a flat per-device conduction vector in tree
/// order (the same order as [`PdnRef::flatten`](soi_domino_ir::PdnRef::flatten)).
fn conducts_indexed(pdn: soi_domino_ir::PdnRef<'_>, on: &[bool], k: &mut usize) -> bool {
    match pdn.root() {
        soi_domino_ir::PdnNode::Transistor(_) => {
            let v = on[*k];
            *k += 1;
            v
        }
        soi_domino_ir::PdnNode::Series(children) => {
            let mut all = true;
            for c in children {
                all &= conducts_indexed(c, on, k);
            }
            all
        }
        soi_domino_ir::PdnNode::Parallel(children) => {
            let mut any = false;
            for c in children {
                any |= conducts_indexed(c, on, k);
            }
            any
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_domino_ir::{JunctionRef, Pdn};

    fn t(i: usize) -> Pdn {
        Pdn::transistor(Signal::input(i))
    }

    /// The paper's §III-B circuit: `(A+B+C)*D`, footed, unprotected.
    fn fig2a_circuit() -> DominoCircuit {
        DominoCircuit::single_gate(
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            Pdn::series(vec![Pdn::parallel(vec![t(0), t(1), t(2)]), t(3)]),
        )
    }

    fn paper_scenario(sim: &mut BodySimulator<'_>) -> CycleReport {
        for _ in 0..3 {
            sim.step(&[true, false, false, false]).unwrap();
        }
        sim.step(&[false, false, false, false]).unwrap();
        sim.step(&[false, false, false, true]).unwrap()
    }

    #[test]
    fn unprotected_gate_misevaluates() {
        let c = fig2a_circuit();
        let mut sim = BodySimulator::new(&c, BodySimConfig::default()).expect("valid circuit");
        let report = paper_scenario(&mut sim);
        assert!(!report.pbe_events.is_empty());
        assert!(report.misevaluated());
        // The wrong output is a 1 where a 0 belongs.
        assert_eq!(report.outputs, vec![true]);
        assert_eq!(report.ideal_outputs, vec![false]);
    }

    #[test]
    fn dangling_discharge_junction_is_a_typed_error() {
        let mut c = fig2a_circuit();
        // Inject a pre-discharge transistor aimed at a junction path that
        // does not exist in the pull-down network.
        c.set_discharge_unchecked(GateId::from_index(0), &[JunctionRef::new(77, 3)]);
        let Err(err) = BodySimulator::new(&c, BodySimConfig::default()) else {
            panic!("a dangling discharge junction must be rejected");
        };
        match err {
            PbeError::BadDischargeJunction { gate, .. } => assert_eq!(gate, 0),
            other => panic!("expected BadDischargeJunction, got {other}"),
        }
    }

    #[test]
    fn discharge_transistor_prevents_failure() {
        let mut c = fig2a_circuit();
        c.add_discharge(GateId::from_index(0), JunctionRef::new(0, 0));
        let mut sim = BodySimulator::new(&c, BodySimConfig::default()).expect("valid circuit");
        let report = paper_scenario(&mut sim);
        assert!(report.pbe_events.is_empty());
        assert!(!report.misevaluated());
    }

    #[test]
    fn reordered_stack_is_immune() {
        // D below the stack → sources of A,B,C sit at the foot; no charging.
        let c = DominoCircuit::single_gate(
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            Pdn::series(vec![t(3), Pdn::parallel(vec![t(0), t(1), t(2)])]),
        );
        let mut sim = BodySimulator::new(&c, BodySimConfig::default()).expect("valid circuit");
        let report = paper_scenario(&mut sim);
        assert!(report.pbe_events.is_empty());
        assert!(!report.misevaluated());
    }

    #[test]
    fn ideal_mode_never_fires() {
        let c = fig2a_circuit();
        let mut sim = BodySimulator::new(
            &c,
            BodySimConfig {
                model_bipolar: false,
                ..BodySimConfig::default()
            },
        )
        .expect("valid circuit");
        let report = paper_scenario(&mut sim);
        assert!(report.pbe_events.is_empty());
        assert!(!report.misevaluated());
    }

    #[test]
    fn bodies_charge_then_reset_on_switching() {
        let c = fig2a_circuit();
        let mut sim = BodySimulator::new(&c, BodySimConfig::default()).expect("valid circuit");
        for _ in 0..3 {
            sim.step(&[true, false, false, false]).unwrap();
        }
        assert!(sim.charged_bodies() >= 2); // B and C
                                            // Toggling B's input resets its body.
        sim.step(&[true, true, false, false]).unwrap();
        sim.step(&[true, false, false, false]).unwrap();
        // B was reset; C may remain charged.
        assert!(sim.charged_bodies() <= 2);
    }

    #[test]
    fn normal_operation_matches_ideal() {
        // Exercise the gate with benign vectors: no stale-high scenarios.
        let c = fig2a_circuit();
        let mut sim = BodySimulator::new(&c, BodySimConfig::default()).expect("valid circuit");
        let seq = [
            [false, false, false, false],
            [true, false, false, true],
            [false, true, false, true],
            [false, false, false, false],
            [true, true, true, true],
            [false, false, true, true],
        ];
        for v in seq {
            let r = sim.step(&v).unwrap();
            assert_eq!(r.outputs, r.ideal_outputs, "vector {v:?}");
        }
    }

    #[test]
    fn misevaluation_propagates_downstream() {
        // Gate 0 = (A+B+C)*D unprotected; gate 1 = gate0 * E.
        let mut c = DominoCircuit::new(["a", "b", "c", "d", "e"].map(String::from).to_vec());
        let g0 = c.add_gate(soi_domino_ir::DominoGate::footed(Pdn::series(vec![
            Pdn::parallel(vec![t(0), t(1), t(2)]),
            t(3),
        ])));
        let g1 = c.add_gate(soi_domino_ir::DominoGate::footed(Pdn::series(vec![
            t(4),
            Pdn::transistor(Signal::Gate(g0)),
        ])));
        c.add_output("f", g1);
        let mut sim = BodySimulator::new(&c, BodySimConfig::default()).expect("valid circuit");
        for _ in 0..3 {
            sim.step(&[true, false, false, false, true]).unwrap();
        }
        sim.step(&[false, false, false, false, true]).unwrap();
        let report = sim.step(&[false, false, false, true, true]).unwrap();
        assert!(report.misevaluated());
        assert_eq!(report.outputs, vec![true]);
    }

    #[test]
    fn arity_error() {
        let c = fig2a_circuit();
        let mut sim = BodySimulator::new(&c, BodySimConfig::default()).expect("valid circuit");
        assert!(matches!(
            sim.step(&[true]),
            Err(PbeError::InputArity { .. })
        ));
    }

    #[test]
    fn footless_second_level_gate_works() {
        // g0 footed at the PIs; g1 footless (fed only by g0): its PDN ties
        // straight to ground, so it evaluates correctly and its nodes are
        // drained every cycle.
        let mut c = DominoCircuit::new(vec!["a".into(), "b".into()]);
        let g0 = c.add_gate(soi_domino_ir::DominoGate::footed(Pdn::parallel(vec![
            t(0),
            t(1),
        ])));
        let g1 = c.add_gate(soi_domino_ir::DominoGate::footless(Pdn::transistor(
            Signal::Gate(g0),
        )));
        c.add_output("f", g1);
        let mut sim = BodySimulator::new(&c, BodySimConfig::default()).expect("valid circuit");
        for (a, b) in [(false, false), (true, false), (false, true), (true, true)] {
            let r = sim.step(&[a, b]).unwrap();
            assert_eq!(r.outputs, vec![a || b]);
            assert_eq!(r.outputs, r.ideal_outputs);
        }
    }

    #[test]
    fn hysteresis_exposure_accumulates_and_only_then() {
        let c = fig2a_circuit();
        let mut sim = BodySimulator::new(&c, BodySimConfig::default()).expect("valid circuit");
        // Benign toggling: nothing should charge.
        for i in 0..6 {
            sim.step(&[i % 2 == 0, false, false, true]).unwrap();
        }
        assert_eq!(sim.hysteresis_exposure(), 0);
        // Holding the §III-B pattern charges B and C, which then count
        // every phase.
        for _ in 0..4 {
            sim.step(&[true, false, false, false]).unwrap();
        }
        assert!(sim.hysteresis_exposure() > 0);
    }

    #[test]
    fn contention_is_counted() {
        // Discharge on node 1 of (A+B+C)*D with A held high during
        // precharge creates a precharge contention through A.
        let mut c = fig2a_circuit();
        c.add_discharge(GateId::from_index(0), JunctionRef::new(0, 0));
        let mut sim = BodySimulator::new(&c, BodySimConfig::default()).expect("valid circuit");
        let r = sim.step(&[true, false, false, false]).unwrap();
        assert!(r.contentions > 0);
        // With A low there is no contention.
        let r2 = sim.step(&[false, false, false, false]).unwrap();
        assert_eq!(r2.contentions, 0);
    }
}
