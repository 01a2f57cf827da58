//! Excitability analysis — the paper's §VII future work.
//!
//! The mapping algorithms assume the worst case: every committed discharge
//! point *will* see the charge-then-yank input sequence that triggers the
//! parasitic bipolar effect. The paper closes by observing that "breakdown
//! will only occur for a particular sequence of input logic values" and
//! that using this could improve solutions. This module holds the pieces
//! of that idea that do not need a solver: declared **input constraints**
//! (mutually-exclusive signal groups such as decoded one-hot selects, or
//! inputs tied to a constant in mission mode) and the question they pose
//! for each protected junction:
//!
//! > junction `J` is excitable iff some admissible input assignment
//! > connects `J` to the dynamic node through conducting devices without
//! > also connecting it to the foot (so it charges and holds high), and
//! > some admissible assignment later connects it to the foot (the yank).
//!
//! The engine that answers it for a whole circuit is SAT, in `soi-cec`'s
//! `pbe_sat` module: `prune_discharge` drops every pre-discharge
//! transistor whose junction it proves unexcitable, and `verify_safe_sat`
//! proves the pruned circuit safe. [`junction_excitability`] here is the
//! bounded exact oracle those proofs are tested against: it enumerates
//! every assignment of a gate with at most [`EXACT_LIMIT`] distinct
//! variables and answers [`Excitability::Unknown`] beyond that. It shares
//! no code with the SAT model, so a bug in one shows up as a disagreement
//! with the other.

use std::error::Error;
use std::fmt;

use soi_domino_ir::{GateId, GateRef, JunctionRef, PdnGraph, Phase, Signal};

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

    /// Checks that some assignment of a circuit's `inputs` primary inputs
    /// satisfies every declaration. A set no assignment satisfies would
    /// make every junction vacuously unexcitable.
    ///
    /// # Errors
    ///
    /// Exactly the unsatisfiable sets are rejected — any other set is met
    /// by fixing the fixed inputs and setting every other input low:
    ///
    /// * [`ConstraintError::InputOutOfRange`]: an index ≥ `inputs`;
    /// * [`ConstraintError::FixedBothWays`]: an input fixed high and low;
    /// * [`ConstraintError::MutexFixedHigh`]: a mutex group with two or
    ///   more entries fixed high, counting repeated entries (as
    ///   [`admits`](InputConstraints::admits) does).
    pub fn check(&self, inputs: usize) -> Result<(), ConstraintError> {
        let named = self.fixed.iter().map(|&(i, _)| i);
        if let Some(input) = named
            .chain(self.mutex_groups.iter().flatten().copied())
            .find(|&i| i >= inputs)
        {
            return Err(ConstraintError::InputOutOfRange { input, inputs });
        }
        if let Some(&(input, _)) = self
            .fixed
            .iter()
            .find(|&&(i, v)| self.fixed.contains(&(i, !v)))
        {
            return Err(ConstraintError::FixedBothWays { input });
        }
        for (group, members) in self.mutex_groups.iter().enumerate() {
            let high = members
                .iter()
                .filter(|&&i| self.fixed.contains(&(i, true)))
                .count();
            if high > 1 {
                return Err(ConstraintError::MutexFixedHigh { group, high });
            }
        }
        Ok(())
    }
}

/// Why [`InputConstraints::check`] rejected a constraint set: no input
/// assignment satisfies it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConstraintError {
    /// A declaration names an input the circuit does not have.
    InputOutOfRange {
        /// The named input index.
        input: usize,
        /// The circuit's primary-input count.
        inputs: usize,
    },
    /// An input is fixed both high and low.
    FixedBothWays {
        /// The input index.
        input: usize,
    },
    /// A mutex group has two or more entries fixed high.
    MutexFixedHigh {
        /// Index of the group in declaration order.
        group: usize,
        /// Its entries fixed high, repeated entries counted each time.
        high: usize,
    },
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::InputOutOfRange { input, inputs } => {
                write!(f, "input {input} out of range for {inputs} inputs")
            }
            ConstraintError::FixedBothWays { input } => {
                write!(f, "input {input} is fixed both high and low")
            }
            ConstraintError::MutexFixedHigh { group, high } => {
                write!(f, "mutex group {group} has {high} entries fixed high")
            }
        }
    }
}

impl Error for ConstraintError {}

/// The most distinct variables [`junction_excitability`] enumerates.
pub const EXACT_LIMIT: usize = 16;

/// Verdict for one junction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Excitability {
    /// A witness assignment pair exists: the discharge device is needed.
    Excitable,
    /// Proven unreachable under the constraints: the device can be
    /// removed.
    ProvenSafe,
    /// Not decided — the gate has more than [`EXACT_LIMIT`] variables for
    /// the enumerator, or a SAT query ran out of budget. Treated as
    /// excitable.
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
        // An input this gate does not read takes its fixed value, or
        // `false` when it has none: `false` never violates a mutex, and a
        // tied-high input the gate ignores must not empty the space.
        constraints.admits(
            &|input| match self.vars.iter().position(|v| *v == Var::Input(input)) {
                Some(i) => bits >> i & 1 == 1,
                None => constraints
                    .fixed()
                    .iter()
                    .find(|&&(i, _)| i == input)
                    .is_some_and(|&(_, value)| value),
            },
        )
    }

    /// Whether `net` is joined to the dynamic node and to the foot while
    /// the transistors that assignment `bits` turns on conduct: union-find
    /// over the nets, in the caller's `parent` buffer.
    fn joins(&self, bits: u64, net: usize, parent: &mut Vec<usize>) -> (bool, bool) {
        fn find(p: &mut [usize], mut x: usize) -> usize {
            while p[x] != x {
                p[x] = p[p[x]];
                x = p[x];
            }
            x
        }
        parent.clear();
        parent.extend(0..self.graph.net_count());
        for (t, &(var, neg)) in self.graph.transistors.iter().zip(&self.terms) {
            let on = (bits >> var & 1 == 1) != neg;
            if on {
                let a = find(parent, t.upper.index());
                let b = find(parent, t.lower.index());
                parent[a.max(b)] = a.min(b);
            }
        }
        let root = find(parent, net);
        (
            root == find(parent, PdnGraph::TOP.index()),
            root == find(parent, PdnGraph::FOOT.index()),
        )
    }
}

/// Decides whether a junction of a gate is excitable under the
/// constraints by enumerating every assignment of the gate's distinct
/// variables, or answers [`Excitability::Unknown`] when there are more
/// than [`EXACT_LIMIT`] of them.
///
/// # Panics
///
/// Panics if the junction does not exist in the gate's PDN.
pub fn junction_excitability<'a>(
    gate: impl Into<GateRef<'a>>,
    junction: &JunctionRef,
    constraints: &InputConstraints,
) -> Excitability {
    let model = GateModel::new(gate.into());
    let net = model
        .graph
        .junction_net(junction)
        .expect("junction exists in this PDN")
        .index();
    let nvars = model.vars.len();
    if nvars > EXACT_LIMIT {
        return Excitability::Unknown;
    }
    let (mut can_charge, mut can_yank) = (false, false);
    let mut parent = Vec::new();
    for bits in 0..(1u64 << nvars) {
        if !model.admissible(constraints, bits) {
            continue;
        }
        let (at_top, at_foot) = model.joins(bits, net, &mut parent);
        // Charge: held high — joined to the dynamic node, not the foot.
        can_charge |= at_top && !at_foot;
        // Yank: pulled to the foot.
        can_yank |= at_foot;
        if can_charge && can_yank {
            return Excitability::Excitable;
        }
    }
    Excitability::ProvenSafe
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_domino_ir::{DominoGate, Pdn};

    fn t(i: usize) -> Pdn {
        Pdn::transistor(Signal::input(i))
    }

    /// `(A+B)*C` stack-on-top: the committed junction is excitable in the
    /// worst case (hold A, fire C).
    #[test]
    fn unconstrained_committed_point_is_excitable() {
        let gate = DominoGate::footed(Pdn::series(vec![Pdn::parallel(vec![t(0), t(1)]), t(2)]));
        let verdict =
            junction_excitability(&gate, &JunctionRef::new(0, 0), &InputConstraints::none());
        assert_eq!(verdict, Excitability::Excitable);
    }

    /// Two mutex signals in series guard the junction below them: it can
    /// never charge high.
    #[test]
    fn mutex_series_guard_is_proven_safe() {
        let gate = DominoGate::footed(Pdn::series(vec![
            t(0),
            t(1),
            Pdn::parallel(vec![t(2), t(3)]),
            t(4),
        ]));
        // Junction below the parallel stack (index 2) is guarded by
        // s0·s1 which a mutex forbids.
        let constraints = InputConstraints::none().with_mutex(vec![0, 1]);
        let j = JunctionRef::new(0, 2);
        assert_eq!(
            junction_excitability(&gate, &j, &constraints),
            Excitability::ProvenSafe
        );
        // Without the constraint it is excitable.
        assert_eq!(
            junction_excitability(&gate, &j, &InputConstraints::none()),
            Excitability::Excitable
        );
    }

    /// An input fixed low disconnects its whole region.
    #[test]
    fn fixed_input_disables_branch() {
        let gate = DominoGate::footed(Pdn::series(vec![
            t(0),
            Pdn::parallel(vec![t(1), t(2)]),
            t(3),
        ]));
        // Junction 0 (below t0) charges only through t0; tie input 0 low.
        let constraints = InputConstraints::none().with_fixed(0, false);
        let verdict = junction_excitability(&gate, &JunctionRef::new(0, 0), &constraints);
        assert_eq!(verdict, Excitability::ProvenSafe);
    }

    /// An input the gate does not read takes its fixed value: tying it
    /// high leaves the gate's own inputs free, and only a mutex it shares
    /// with one of them constrains the gate.
    #[test]
    fn absent_inputs_take_their_fixed_value() {
        let gate = DominoGate::footed(Pdn::series(vec![Pdn::parallel(vec![t(0), t(1)]), t(2)]));
        let j = JunctionRef::new(0, 0);
        for value in [false, true] {
            let tied = InputConstraints::none().with_fixed(3, value);
            assert_eq!(
                junction_excitability(&gate, &j, &tied),
                Excitability::Excitable,
                "input 3 tied {value}"
            );
        }
        // Input 3 high forces input 2, the yank device, low.
        let tied = InputConstraints::none()
            .with_fixed(3, true)
            .with_mutex(vec![2, 3]);
        assert_eq!(
            junction_excitability(&gate, &j, &tied),
            Excitability::ProvenSafe
        );
    }

    /// Gate-output variables stay unconstrained even when constraints
    /// mention inputs of the same indices.
    #[test]
    fn gate_signals_are_free_variables() {
        let pdn = Pdn::series(vec![
            Pdn::transistor(Signal::Gate(GateId::from_index(0))),
            Pdn::parallel(vec![t(1), t(2)]),
            t(0),
        ]);
        let gate = DominoGate::footed(pdn);
        // Junction 0 charges through the gate output, which no input
        // constraint can forbid; the yank path (i0 with one of i1/i2)
        // stays admissible under the mutex. (A mutex over all three
        // inputs would block the yank entirely and prove the point safe —
        // the analysis correctly reasons about both halves.)
        let constraints = InputConstraints::none().with_mutex(vec![1, 2]);
        let verdict = junction_excitability(&gate, &JunctionRef::new(0, 0), &constraints);
        assert_eq!(verdict, Excitability::Excitable);
    }

    /// Past the enumeration bound the oracle declines to answer.
    #[test]
    fn wide_gates_are_unknown() {
        let gate = DominoGate::footed(Pdn::series(vec![
            Pdn::parallel((0..=EXACT_LIMIT).map(t).collect()),
            t(EXACT_LIMIT + 1),
        ]));
        let verdict =
            junction_excitability(&gate, &JunctionRef::new(0, 0), &InputConstraints::none());
        assert_eq!(verdict, Excitability::Unknown);
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

    #[test]
    fn check_rejects_the_unsatisfiable_sets() {
        let none = InputConstraints::none();
        assert_eq!(
            none.clone().with_fixed(4, true).check(4),
            Err(ConstraintError::InputOutOfRange {
                input: 4,
                inputs: 4
            })
        );
        assert_eq!(
            none.clone().with_mutex(vec![0, 9]).check(4),
            Err(ConstraintError::InputOutOfRange {
                input: 9,
                inputs: 4
            })
        );
        assert_eq!(
            none.clone()
                .with_fixed(0, true)
                .with_fixed(0, false)
                .check(4),
            Err(ConstraintError::FixedBothWays { input: 0 })
        );
        assert_eq!(
            none.clone()
                .with_fixed(0, true)
                .with_fixed(1, true)
                .with_mutex(vec![0, 1])
                .check(4),
            Err(ConstraintError::MutexFixedHigh { group: 0, high: 2 })
        );
        // A repeated entry counts twice, as `admits` counts it.
        assert_eq!(
            none.clone()
                .with_mutex(vec![2, 3])
                .with_mutex(vec![1, 1])
                .with_fixed(1, true)
                .check(4),
            Err(ConstraintError::MutexFixedHigh { group: 1, high: 2 })
        );
    }

    #[test]
    fn check_accepts_satisfiable_sets() {
        let none = InputConstraints::none();
        assert_eq!(none.check(0), Ok(()));
        // One input of a group tied high.
        assert_eq!(
            none.clone()
                .with_mutex(vec![0, 1, 2])
                .with_fixed(1, true)
                .check(3),
            Ok(())
        );
        // The same tie twice, and a repeated entry nothing ties high.
        assert_eq!(
            none.clone()
                .with_fixed(0, false)
                .with_fixed(0, false)
                .with_mutex(vec![1, 1])
                .check(2),
            Ok(())
        );
    }

    /// `check` accepts a set exactly when some assignment of its inputs
    /// satisfies it, over every small set a seeded generator draws.
    #[test]
    fn check_agrees_with_enumeration() {
        const N: usize = 4;
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as usize
        };
        for _ in 0..2000 {
            let mut c = InputConstraints::none();
            for _ in 0..next(4) {
                c = c.with_fixed(next(N as u64), next(2) == 1);
            }
            for _ in 0..next(3) {
                let group = (0..1 + next(3)).map(|_| next(N as u64)).collect();
                c = c.with_mutex(group);
            }
            let satisfiable = (0..1u32 << N).any(|bits| c.admits(&|i| bits >> i & 1 == 1));
            assert_eq!(c.check(N).is_ok(), satisfiable, "{c:?}");
        }
    }
}
