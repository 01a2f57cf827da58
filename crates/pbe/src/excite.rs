//! Excitability analysis — the paper's §VII future work, implemented.
//!
//! The mapping algorithms assume the worst case: every committed discharge
//! point *will* see the charge-then-yank input sequence that triggers the
//! parasitic bipolar effect. The paper closes by observing that "breakdown
//! will only occur for a particular sequence of input logic values" and
//! that using this could improve solutions. This module does exactly that:
//! given declared **input constraints** (mutually-exclusive signal groups
//! such as decoded one-hot selects, or inputs tied to a constant in mission
//! mode), it decides for each protected junction whether the charging
//! condition is *reachable* at all:
//!
//! > junction `J` is excitable iff some admissible input assignment
//! > connects `J` to the dynamic node through conducting devices without
//! > also connecting it to the foot (so it charges and holds high), and
//! > some admissible assignment later connects it to the foot (the yank).
//!
//! Junctions proven unexcitable can shed their pre-discharge transistor —
//! [`prune_discharge`] does so and reports the savings; everything is
//! conservative: when the gate has too many distinct input variables for
//! exhaustive enumeration, sampling may *find* a witness (keeping the
//! device is then clearly right), but absence of a sampled witness keeps
//! the device too.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use soi_domino_ir::{DominoCircuit, GateId, GateRef, JunctionRef, NetId, PdnGraph, Phase, Signal};

/// Declared knowledge about the circuit's inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InputConstraints {
    /// Groups of primary inputs of which at most one is high at any time
    /// (decoded one-hot selects, grant lines, ...).
    mutex_groups: Vec<Vec<usize>>,
    /// Primary inputs tied to a constant value.
    fixed: Vec<(usize, bool)>,
}

impl InputConstraints {
    /// No knowledge: every assignment is admissible (the paper's worst
    /// case).
    pub fn none() -> InputConstraints {
        InputConstraints::default()
    }

    /// Declares that at most one of the given primary inputs is ever high.
    #[must_use]
    pub fn with_mutex(mut self, inputs: Vec<usize>) -> InputConstraints {
        self.mutex_groups.push(inputs);
        self
    }

    /// Declares a primary input tied to a constant.
    #[must_use]
    pub fn with_fixed(mut self, input: usize, value: bool) -> InputConstraints {
        self.fixed.push((input, value));
        self
    }

    /// Whether an assignment (a predicate over primary-input indices) is
    /// admissible.
    pub fn admits(&self, value_of: &impl Fn(usize) -> bool) -> bool {
        for (input, v) in &self.fixed {
            if value_of(*input) != *v {
                return false;
            }
        }
        for group in &self.mutex_groups {
            if group.iter().filter(|&&i| value_of(i)).count() > 1 {
                return false;
            }
        }
        true
    }

    /// Whether any constraints were declared.
    pub fn is_empty(&self) -> bool {
        self.mutex_groups.is_empty() && self.fixed.is_empty()
    }

    /// The declared mutual-exclusion groups (for alternative solvers that
    /// re-encode the constraints, such as the SAT formulation in
    /// `soi-cec`).
    pub fn mutex_groups(&self) -> &[Vec<usize>] {
        &self.mutex_groups
    }

    /// The declared constant-tied inputs.
    pub fn fixed(&self) -> &[(usize, bool)] {
        &self.fixed
    }
}

/// Analysis effort bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExciteConfig {
    /// Exhaustive enumeration up to this many distinct variables per gate;
    /// beyond it, random sampling.
    pub exact_limit: usize,
    /// Number of random samples when enumeration is out of reach.
    pub samples: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for ExciteConfig {
    fn default() -> ExciteConfig {
        ExciteConfig {
            exact_limit: 16,
            samples: 4096,
            seed: 0x50_1D,
        }
    }
}

/// Verdict for one junction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Excitability {
    /// A witness assignment pair exists: the discharge device is needed.
    Excitable,
    /// Exhaustively proven unreachable under the constraints: the device
    /// can be removed.
    ProvenSafe,
    /// Sampling found no witness, but the space was too large to prove
    /// absence — treated as excitable.
    Unknown,
}

/// The distinct variables controlling a gate's PDN: primary inputs (both
/// phases collapse onto one variable) and feeding gate outputs (treated as
/// free, unconstrained variables — conservative).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Var {
    Input(usize),
    Gate(GateId),
}

struct GateModel {
    graph: PdnGraph,
    vars: Vec<Var>,
    /// Per transistor: (variable index, negated?).
    terms: Vec<(usize, bool)>,
}

impl GateModel {
    fn new(gate: GateRef<'_>) -> GateModel {
        let graph = gate.pdn().flatten();
        let mut vars: Vec<Var> = Vec::new();
        let mut terms = Vec::with_capacity(graph.transistors.len());
        for t in &graph.transistors {
            let (var, negated) = match t.signal {
                Signal::Input { index, phase } => (Var::Input(index), phase == Phase::Neg),
                Signal::Gate(g) => (Var::Gate(g), false),
            };
            let idx = match vars.iter().position(|v| *v == var) {
                Some(i) => i,
                None => {
                    vars.push(var);
                    vars.len() - 1
                }
            };
            terms.push((idx, negated));
        }
        GateModel { graph, vars, terms }
    }

    fn admissible(&self, constraints: &InputConstraints, bits: u64) -> bool {
        // Only input variables are constrained; an input not appearing in
        // this gate is free, so mutex groups are checked over the
        // appearing subset (sound: absent members can be 0).
        constraints.admits(&|input| {
            self.vars
                .iter()
                .position(|v| *v == Var::Input(input))
                .is_some_and(|i| bits >> i & 1 == 1)
        })
    }

    /// Net components under an assignment; returns the component labels.
    fn components(&self, bits: u64) -> Vec<usize> {
        let nets = self.graph.net_count();
        let mut parent: Vec<usize> = (0..nets).collect();
        fn find(p: &mut [usize], mut x: usize) -> usize {
            while p[x] != x {
                p[x] = p[p[x]];
                x = p[x];
            }
            x
        }
        for (t, &(var, neg)) in self.graph.transistors.iter().zip(&self.terms) {
            let on = (bits >> var & 1 == 1) != neg;
            if on {
                let a = find(&mut parent, t.upper.index());
                let b = find(&mut parent, t.lower.index());
                parent[a.max(b)] = a.min(b);
            }
        }
        (0..nets).map(|n| find(&mut parent, n)).collect()
    }

    /// The charging condition: junction held high — connected to the
    /// dynamic node, not connected to the foot.
    fn charges(&self, bits: u64, net: NetId) -> bool {
        let comp = self.components(bits);
        comp[net.index()] == comp[PdnGraph::TOP.index()]
            && comp[net.index()] != comp[PdnGraph::FOOT.index()]
    }

    /// The yank condition: junction pulled to the foot.
    fn yanks(&self, bits: u64, net: NetId) -> bool {
        let comp = self.components(bits);
        comp[net.index()] == comp[PdnGraph::FOOT.index()]
    }
}

/// Decides whether a junction of a gate is excitable under the constraints.
///
/// # Panics
///
/// Panics if the junction does not exist in the gate's PDN.
pub fn junction_excitability<'a>(
    gate: impl Into<GateRef<'a>>,
    junction: &JunctionRef,
    constraints: &InputConstraints,
    config: &ExciteConfig,
) -> Excitability {
    let model = GateModel::new(gate.into());
    let net = model
        .graph
        .junction_net(junction)
        .expect("junction exists in this PDN");
    let nvars = model.vars.len();

    if nvars <= config.exact_limit {
        let mut can_charge = false;
        let mut can_yank = false;
        for bits in 0..(1u64 << nvars) {
            if !model.admissible(constraints, bits) {
                continue;
            }
            can_charge |= model.charges(bits, net);
            can_yank |= model.yanks(bits, net);
            if can_charge && can_yank {
                return Excitability::Excitable;
            }
        }
        Excitability::ProvenSafe
    } else {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut can_charge = false;
        let mut can_yank = false;
        for _ in 0..config.samples {
            let bits: u64 = rng.gen::<u64>() & ((1u64 << nvars.min(63)) - 1);
            if !model.admissible(constraints, bits) {
                continue;
            }
            can_charge |= model.charges(bits, net);
            can_yank |= model.yanks(bits, net);
            if can_charge && can_yank {
                return Excitability::Excitable;
            }
        }
        Excitability::Unknown
    }
}

/// Removes every pre-discharge transistor that protects a junction proven
/// unexcitable under the constraints. Returns the number removed.
///
/// With [`InputConstraints::none`] this is a no-op on well-formed circuits:
/// committed junctions are excitable in the unconstrained worst case.
///
/// # Example
///
/// ```rust
/// use soi_domino_ir::{DominoCircuit, Pdn, Signal};
/// use soi_pbe::excite::{prune_discharge, ExciteConfig, InputConstraints};
/// use soi_pbe::postprocess;
///
/// // s0 and s1 in series above a stack: with one-hot selects, the inner
/// // junction can never charge (s0·s1 is inadmissible).
/// let mut c = DominoCircuit::single_gate(
///     vec!["s0".into(), "s1".into(), "a".into(), "b".into()],
///     Pdn::series(vec![
///         Pdn::transistor(Signal::input(0)),
///         Pdn::transistor(Signal::input(1)),
///         Pdn::parallel(vec![
///             Pdn::transistor(Signal::input(2)),
///             Pdn::transistor(Signal::input(3)),
///         ]),
///         Pdn::transistor(Signal::input(2)),
///     ]),
/// );
/// postprocess::insert_discharge(&mut c);
/// let before = c.counts().discharge;
/// let removed = prune_discharge(
///     &mut c,
///     &InputConstraints::none().with_mutex(vec![0, 1]),
///     &ExciteConfig::default(),
/// );
/// assert!(removed > 0);
/// assert_eq!(c.counts().discharge, before - removed);
/// ```
pub fn prune_discharge(
    circuit: &mut DominoCircuit,
    constraints: &InputConstraints,
    config: &ExciteConfig,
) -> u32 {
    prune_discharge_traced(circuit, constraints, config, soi_trace::TraceHandle::off())
}

/// [`prune_discharge`] with an instrumentation handle: reports the number
/// of removed devices through [`soi_trace::Counter::DischargesPruned`].
/// With `TraceHandle::off()` this is exactly `prune_discharge`.
pub fn prune_discharge_traced(
    circuit: &mut DominoCircuit,
    constraints: &InputConstraints,
    config: &ExciteConfig,
    trace: soi_trace::TraceHandle,
) -> u32 {
    let mut removed = 0;
    for idx in 0..circuit.gate_count() {
        let id = GateId::from_index(idx);
        let keep: Vec<JunctionRef> = circuit
            .gate(id)
            .discharge()
            .iter()
            .filter(|j| {
                let verdict = junction_excitability(circuit.gate(id), j, constraints, config);
                verdict != Excitability::ProvenSafe
            })
            .copied()
            .collect();
        removed += (circuit.gate(id).discharge().len() - keep.len()) as u32;
        circuit.set_discharge(id, &keep);
    }
    trace.count(soi_trace::Counter::DischargesPruned, u64::from(removed));
    removed
}

/// Checks that every *unprotected* committed junction in the circuit is
/// provably unexcitable — the safety criterion for a pruned circuit
/// (replaces [`hazard::is_safe`](crate::hazard::is_safe), which assumes the
/// worst case).
pub fn verify_safe(
    circuit: &DominoCircuit,
    constraints: &InputConstraints,
    config: &ExciteConfig,
) -> bool {
    let mut analyzer = crate::points::Analyzer::default();
    for (_, gate) in circuit.iter() {
        analyzer.run(gate.pdn());
        for junction in analyzer.committed() {
            if gate.discharge().contains(junction) {
                continue;
            }
            if junction_excitability(gate, junction, constraints, config)
                != Excitability::ProvenSafe
            {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postprocess;
    use soi_domino_ir::Pdn;

    fn t(i: usize) -> Pdn {
        Pdn::transistor(Signal::input(i))
    }

    /// `(A+B)*C` stack-on-top: the committed junction is excitable in the
    /// worst case (hold A, fire C).
    #[test]
    fn unconstrained_committed_point_is_excitable() {
        let gate = soi_domino_ir::DominoGate::footed(Pdn::series(vec![
            Pdn::parallel(vec![t(0), t(1)]),
            t(2),
        ]));
        let verdict = junction_excitability(
            &gate,
            &JunctionRef::new(0, 0),
            &InputConstraints::none(),
            &ExciteConfig::default(),
        );
        assert_eq!(verdict, Excitability::Excitable);
    }

    /// Two mutex signals in series guard the junction below them: it can
    /// never charge high.
    #[test]
    fn mutex_series_guard_is_proven_safe() {
        let gate = soi_domino_ir::DominoGate::footed(Pdn::series(vec![
            t(0),
            t(1),
            Pdn::parallel(vec![t(2), t(3)]),
            t(4),
        ]));
        // Junction below the parallel stack (index 2) is guarded by
        // s0·s1 which a mutex forbids.
        let constraints = InputConstraints::none().with_mutex(vec![0, 1]);
        let verdict = junction_excitability(
            &gate,
            &JunctionRef::new(0, 2),
            &constraints,
            &ExciteConfig::default(),
        );
        assert_eq!(verdict, Excitability::ProvenSafe);
        // Without the constraint it is excitable.
        let verdict = junction_excitability(
            &gate,
            &JunctionRef::new(0, 2),
            &InputConstraints::none(),
            &ExciteConfig::default(),
        );
        assert_eq!(verdict, Excitability::Excitable);
    }

    /// An input fixed low disconnects its whole region.
    #[test]
    fn fixed_input_disables_branch() {
        let gate = soi_domino_ir::DominoGate::footed(Pdn::series(vec![
            t(0),
            Pdn::parallel(vec![t(1), t(2)]),
            t(3),
        ]));
        // Junction 0 (below t0) charges only through t0; tie input 0 low.
        let constraints = InputConstraints::none().with_fixed(0, false);
        let verdict = junction_excitability(
            &gate,
            &JunctionRef::new(0, 0),
            &constraints,
            &ExciteConfig::default(),
        );
        assert_eq!(verdict, Excitability::ProvenSafe);
    }

    /// Pruning with no constraints removes nothing from a well-formed
    /// post-processed circuit.
    #[test]
    fn unconstrained_prune_is_noop() {
        let mut c = DominoCircuit::single_gate(
            (0..5).map(|i| format!("i{i}")).collect(),
            Pdn::series(vec![
                Pdn::parallel(vec![Pdn::series(vec![t(0), t(1)]), t(2)]),
                Pdn::parallel(vec![t(3), t(4)]),
            ]),
        );
        postprocess::insert_discharge(&mut c);
        let removed = prune_discharge(&mut c, &InputConstraints::none(), &ExciteConfig::default());
        assert_eq!(removed, 0);
    }

    /// End to end: insert, prune under constraints, verify safety under
    /// the same constraints.
    #[test]
    fn prune_then_verify() {
        let mut c = DominoCircuit::single_gate(
            (0..5).map(|i| format!("i{i}")).collect(),
            Pdn::series(vec![t(0), t(1), Pdn::parallel(vec![t(2), t(3)]), t(4)]),
        );
        postprocess::insert_discharge(&mut c);
        assert!(c.counts().discharge > 0);
        let constraints = InputConstraints::none().with_mutex(vec![0, 1]);
        let removed = prune_discharge(&mut c, &constraints, &ExciteConfig::default());
        assert!(removed > 0);
        assert!(verify_safe(&c, &constraints, &ExciteConfig::default()));
        // The worst-case checker now (rightly) complains.
        assert!(!crate::hazard::is_safe(&c));
        // And the unconstrained excitability checker does too.
        assert!(!verify_safe(
            &c,
            &InputConstraints::none(),
            &ExciteConfig::default()
        ));
    }

    /// Gate-output variables stay unconstrained even when constraints
    /// mention inputs of the same indices.
    #[test]
    fn gate_signals_are_free_variables() {
        let mut c = DominoCircuit::new((0..3).map(|i| format!("i{i}")).collect());
        let g0 = c.add_gate(soi_domino_ir::DominoGate::footed(Pdn::parallel(vec![
            t(0),
            t(1),
        ])));
        let pdn = Pdn::series(vec![
            Pdn::transistor(Signal::Gate(g0)),
            Pdn::parallel(vec![t(1), t(2)]),
            t(0),
        ]);
        let gate = soi_domino_ir::DominoGate::footed(pdn);
        // Junction 0 charges through the gate output, which no input
        // constraint can forbid; the yank path (i0 with one of i1/i2)
        // stays admissible under the mutex. (A mutex over all three
        // inputs would block the yank entirely and prove the point safe —
        // the analysis correctly reasons about both halves.)
        let constraints = InputConstraints::none().with_mutex(vec![1, 2]);
        let verdict = junction_excitability(
            &gate,
            &JunctionRef::new(0, 0),
            &constraints,
            &ExciteConfig::default(),
        );
        assert_eq!(verdict, Excitability::Excitable);
    }

    #[test]
    fn traced_prune_reports_the_removed_count() {
        let (rec, trace) = soi_trace::Recorder::install();
        let mut c = DominoCircuit::single_gate(
            (0..5).map(|i| format!("i{i}")).collect(),
            Pdn::series(vec![t(0), t(1), Pdn::parallel(vec![t(2), t(3)]), t(4)]),
        );
        postprocess::insert_discharge(&mut c);
        let constraints = InputConstraints::none().with_mutex(vec![0, 1]);
        let removed = prune_discharge_traced(&mut c, &constraints, &ExciteConfig::default(), trace);
        assert!(removed > 0);
        assert_eq!(
            rec.counter(soi_trace::Counter::DischargesPruned),
            u64::from(removed)
        );
    }

    #[test]
    fn admits_checks_both_kinds() {
        let c = InputConstraints::none()
            .with_mutex(vec![0, 1])
            .with_fixed(2, true);
        assert!(c.admits(&|i| i == 0 || i == 2));
        assert!(!c.admits(&|i| i == 0 || i == 1 || i == 2)); // mutex violated
        assert!(!c.admits(&|i| i == 0)); // fixed violated
        assert!(InputConstraints::none().is_empty());
        assert!(!c.is_empty());
    }
}
