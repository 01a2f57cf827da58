//! SAT-formulated PBE-safety checking and discharge pruning.
//!
//! The §VII extension asks, for each committed junction and declared
//! input constraints, two questions as CNF queries:
//!
//! * **charge**: is there an admissible assignment connecting the
//!   junction to the dynamic node (TOP) but not to the foot?
//! * **yank**: is there an admissible assignment connecting it to the
//!   foot?
//!
//! A junction is [`Excitable`](Excitability::Excitable) iff both are
//! satisfiable, [`ProvenSafe`](Excitability::ProvenSafe) if either is
//! unsatisfiable, and [`Unknown`](Excitability::Unknown) only when a
//! conflict budget runs out. Connectivity under an assignment is encoded
//! as unrolled reachability from the junction's net: layer `k+1` of net
//! `n` is layer `k` of `n` OR any incident conducting transistor whose
//! far end was reached at layer `k`; `net_count - 1` layers reach a
//! fixpoint. An input the gate does not read takes its fixed value, or
//! `false` when it has none, and every satisfying model is **replayed**
//! through a concrete union-find connectivity check before the witness
//! is believed.
//!
//! [`prune_discharge`] removes every pre-discharge transistor whose
//! junction is proven unexcitable; [`verify_safe_sat`] proves that every
//! junction left without one is. [`soi_pbe::excite::junction_excitability`]
//! is the independent, bounded enumeration both are tested against.

use soi_domino_ir::{DominoCircuit, GateId, GateRef, JunctionRef, PdnGraph, Phase, Signal};
use soi_pbe::excite::{ConstraintError, Excitability, InputConstraints};
use soi_pbe::points;
use soi_trace::{Counter, TraceHandle};

use crate::cnf::Lit;
use crate::encode::Encoder;
use crate::solver::SatResult;

/// What [`verify_safe_sat`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PbeSafetyReport {
    /// Whether every uncovered committed junction is provably
    /// unexcitable under the constraints.
    pub safe: bool,
    /// Uncovered committed junctions examined.
    pub junctions_checked: usize,
    /// Junctions with a replay-confirmed excitation witness pair.
    pub excitable: usize,
    /// Junctions whose proof exhausted the conflict budget (treated as
    /// unsafe, conservatively).
    pub unknown: usize,
    /// The first junction that failed the proof, if any.
    pub first_flagged: Option<(GateId, JunctionRef)>,
    /// SAT queries issued.
    pub sat_calls: u64,
    /// CDCL conflicts across all queries.
    pub conflicts: u64,
    /// Witness models replayed through the concrete connectivity check.
    pub cex_replays: u64,
}

/// The distinct PDN variables, deduplicated exactly as the enumerator
/// does: both phases of a primary input collapse onto one variable, and
/// feeding gate outputs are free variables.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Var {
    Input(usize),
    Gate(GateId),
}

struct SatModel {
    graph: PdnGraph,
    vars: Vec<Var>,
    /// Per transistor: (variable index, negated?).
    terms: Vec<(usize, bool)>,
}

impl SatModel {
    fn new(gate: GateRef<'_>) -> SatModel {
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
        SatModel { graph, vars, terms }
    }

    /// Encodes the admissibility constraints over the variable literals;
    /// an input this gate does not read is the constant
    /// [`absent_value`].
    fn assert_constraints(
        &self,
        enc: &mut Encoder,
        var_lits: &[Lit],
        constraints: &InputConstraints,
    ) {
        let lit_true = enc.constant(true);
        let lit_of = |input: usize| match self.vars.iter().position(|v| *v == Var::Input(input)) {
            Some(i) => var_lits[i],
            None => lit_true.xor_sign(!absent_value(constraints, input)),
        };
        for &(input, value) in constraints.fixed() {
            enc.add_clause(&[lit_of(input).xor_sign(!value)]);
        }
        for group in constraints.mutex_groups() {
            let members: Vec<Lit> = group
                .iter()
                .map(|&i| lit_of(i))
                .filter(|&l| l != !lit_true)
                .collect();
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    enc.add_clause(&[!a, !b]);
                }
            }
        }
    }

    /// Unrolled reachability from `src` through conducting transistors;
    /// returns the final-layer literal per net.
    fn reachability(&self, enc: &mut Encoder, var_lits: &[Lit], src: usize) -> Vec<Lit> {
        let nets = self.graph.net_count();
        let on: Vec<Lit> = self
            .terms
            .iter()
            .map(|&(var, neg)| var_lits[var].xor_sign(neg))
            .collect();
        let mut reach: Vec<Lit> = (0..nets).map(|n| enc.constant(n == src)).collect();
        for _ in 0..nets.saturating_sub(1) {
            let mut next = Vec::with_capacity(nets);
            for n in 0..nets {
                let mut ways = vec![reach[n]];
                for (t, &on_t) in self.graph.transistors.iter().zip(&on) {
                    let other = if t.upper.index() == n {
                        t.lower.index()
                    } else if t.lower.index() == n {
                        t.upper.index()
                    } else {
                        continue;
                    };
                    ways.push(enc.and(reach[other], on_t));
                }
                next.push(enc.or_all(&ways));
            }
            reach = next;
        }
        reach
    }

    /// Concrete replay of a model: union-find components under the
    /// assignment, exactly as the enumerator computes them.
    fn components(&self, bits: &[bool]) -> Vec<usize> {
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
            if bits[var] != neg {
                let a = find(&mut parent, t.upper.index());
                let b = find(&mut parent, t.lower.index());
                parent[a.max(b)] = a.min(b);
            }
        }
        (0..nets).map(|n| find(&mut parent, n)).collect()
    }

    /// Whether a model's assignment is admissible.
    fn admissible(&self, constraints: &InputConstraints, bits: &[bool]) -> bool {
        constraints.admits(
            &|input| match self.vars.iter().position(|v| *v == Var::Input(input)) {
                Some(i) => bits[i],
                None => absent_value(constraints, input),
            },
        )
    }
}

/// The value of an input a gate does not read: the constant it is fixed
/// to, or `false` when it is not fixed (`false` never violates a mutex).
fn absent_value(constraints: &InputConstraints, input: usize) -> bool {
    constraints
        .fixed()
        .iter()
        .find(|&&(i, _)| i == input)
        .is_some_and(|&(_, value)| value)
}

#[derive(Default)]
struct Stats {
    sat_calls: u64,
    conflicts: u64,
    cex_replays: u64,
}

/// Everything both excitability queries of one junction share: the
/// encoded gate, its replay model, and the running counters.
struct QueryCtx<'a> {
    enc: &'a mut Encoder,
    model: &'a SatModel,
    var_lits: &'a [Lit],
    constraints: &'a InputConstraints,
    stats: &'a mut Stats,
}

/// One excitability query (charge or yank) with model replay. Returns
/// `Some(true)` for a replay-confirmed witness, `Some(false)` for a
/// proof of absence, `None` for budget exhaustion *or* a witness that
/// failed replay (both conservatively `Unknown`).
fn query(
    ctx: &mut QueryCtx<'_>,
    assumptions: &[Lit],
    budget: u64,
    confirm: impl Fn(&[usize]) -> bool,
) -> Option<bool> {
    ctx.stats.sat_calls += 1;
    let before = ctx.enc.conflicts();
    let result = ctx.enc.solve(assumptions, budget);
    ctx.stats.conflicts += ctx.enc.conflicts() - before;
    match result {
        SatResult::Unsat => Some(false),
        SatResult::Unknown => None,
        SatResult::Sat => {
            ctx.stats.cex_replays += 1;
            let bits: Vec<bool> = ctx
                .var_lits
                .iter()
                .map(|&l| ctx.enc.model_value(l))
                .collect();
            if ctx.model.admissible(ctx.constraints, &bits) && confirm(&ctx.model.components(&bits))
            {
                Some(true)
            } else {
                // The model must replay; an encoding inconsistency is
                // never trusted as a witness.
                None
            }
        }
    }
}

/// Decides whether a junction of a gate is excitable under the
/// constraints, by SAT. Agrees with
/// [`soi_pbe::excite::junction_excitability`] wherever the latter
/// answers, and has no variable bound — `Unknown` here means a conflict
/// budget ran out.
///
/// # Panics
///
/// Panics if the junction does not exist in the gate's PDN.
pub fn junction_excitability_sat<'a>(
    gate: impl Into<GateRef<'a>>,
    junction: &JunctionRef,
    constraints: &InputConstraints,
    budget: u64,
) -> Excitability {
    let mut stats = Stats::default();
    excitability_with_stats(gate.into(), junction, constraints, budget, &mut stats)
}

fn excitability_with_stats(
    gate: GateRef<'_>,
    junction: &JunctionRef,
    constraints: &InputConstraints,
    budget: u64,
    stats: &mut Stats,
) -> Excitability {
    let model = SatModel::new(gate);
    let net = model
        .graph
        .junction_net(junction)
        .expect("junction exists in this PDN");

    let mut enc = Encoder::new();
    let var_lits: Vec<Lit> = (0..model.vars.len()).map(|_| enc.fresh()).collect();
    model.assert_constraints(&mut enc, &var_lits, constraints);
    let reach = model.reachability(&mut enc, &var_lits, net.index());
    let at_top = reach[PdnGraph::TOP.index()];
    let at_foot = reach[PdnGraph::FOOT.index()];

    let top = PdnGraph::TOP.index();
    let foot = PdnGraph::FOOT.index();
    let src = net.index();
    let mut ctx = QueryCtx {
        enc: &mut enc,
        model: &model,
        var_lits: &var_lits,
        constraints,
        stats,
    };
    let can_charge = query(&mut ctx, &[at_top, !at_foot], budget, |comp| {
        comp[src] == comp[top] && comp[src] != comp[foot]
    });
    // The charge proof alone settles safety; skip the yank query then.
    if can_charge == Some(false) {
        return Excitability::ProvenSafe;
    }
    let can_yank = query(&mut ctx, &[at_foot], budget, |comp| comp[src] == comp[foot]);
    match (can_charge, can_yank) {
        (Some(true), Some(true)) => Excitability::Excitable,
        (_, Some(false)) => Excitability::ProvenSafe,
        _ => Excitability::Unknown,
    }
}

/// Removes every pre-discharge transistor whose junction SAT proves
/// unexcitable under the constraints, and returns how many it removed. A
/// device whose proof runs out of `budget` stays.
///
/// With [`InputConstraints::none`] this removes nothing from a mapper's
/// output: committed junctions are excitable in the unconstrained worst
/// case.
///
/// # Errors
///
/// The [`ConstraintError`] of [`InputConstraints::check`] when no input
/// assignment satisfies the constraints (which would make every junction
/// vacuously unexcitable); the circuit is left untouched.
///
/// # Example
///
/// ```rust
/// use soi_cec::{prune_discharge, verify_safe_sat};
/// use soi_domino_ir::{DominoCircuit, Pdn, Signal};
/// use soi_pbe::excite::InputConstraints;
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
/// let one_hot = InputConstraints::none().with_mutex(vec![0, 1]);
/// let removed = prune_discharge(&mut c, &one_hot, 100_000).unwrap();
/// assert!(removed > 0);
/// assert_eq!(c.counts().discharge, before - removed);
/// assert!(verify_safe_sat(&c, &one_hot, 100_000).safe);
/// ```
pub fn prune_discharge(
    circuit: &mut DominoCircuit,
    constraints: &InputConstraints,
    budget: u64,
) -> Result<u32, ConstraintError> {
    constraints.check(circuit.input_names().len())?;
    let mut stats = Stats::default();
    let mut removed = 0;
    for idx in 0..circuit.gate_count() {
        let id = GateId::from_index(idx);
        let gate = circuit.gate(id);
        let keep: Vec<JunctionRef> = gate
            .discharge()
            .iter()
            .filter(|j| {
                excitability_with_stats(gate, j, constraints, budget, &mut stats)
                    != Excitability::ProvenSafe
            })
            .copied()
            .collect();
        let dropped = gate.discharge().len() - keep.len();
        if dropped > 0 {
            removed += dropped as u32;
            circuit.set_discharge(id, &keep);
        }
    }
    Ok(removed)
}

/// Checks that every committed junction *not* covered by a discharge
/// transistor is provably unexcitable under the constraints — the safety
/// criterion for a circuit [`prune_discharge`] pruned. Under constraints
/// that [`InputConstraints::check`] rejects, every such junction counts
/// as `unknown`: a contradiction never proves safety.
pub fn verify_safe_sat(
    circuit: &DominoCircuit,
    constraints: &InputConstraints,
    budget: u64,
) -> PbeSafetyReport {
    verify_safe_sat_traced(circuit, constraints, budget, TraceHandle::off())
}

/// [`verify_safe_sat`] with instrumentation: reports `cec_sat_calls`,
/// `conflicts`, and `cex_replays` counters.
pub fn verify_safe_sat_traced(
    circuit: &DominoCircuit,
    constraints: &InputConstraints,
    budget: u64,
    trace: TraceHandle,
) -> PbeSafetyReport {
    let mut stats = Stats::default();
    let mut report = PbeSafetyReport {
        safe: true,
        junctions_checked: 0,
        excitable: 0,
        unknown: 0,
        first_flagged: None,
        sat_calls: 0,
        conflicts: 0,
        cex_replays: 0,
    };
    let satisfiable = constraints.check(circuit.input_names().len()).is_ok();
    let mut analyzer = points::Analyzer::default();
    for (id, gate) in circuit.iter() {
        analyzer.run(gate.pdn());
        for &junction in analyzer.committed() {
            if gate.discharge().contains(&junction) {
                continue;
            }
            report.junctions_checked += 1;
            let verdict = if satisfiable {
                excitability_with_stats(gate, &junction, constraints, budget, &mut stats)
            } else {
                Excitability::Unknown
            };
            if verdict != Excitability::ProvenSafe {
                report.safe = false;
                match verdict {
                    Excitability::Excitable => report.excitable += 1,
                    Excitability::Unknown => report.unknown += 1,
                    Excitability::ProvenSafe => unreachable!(),
                }
                if report.first_flagged.is_none() {
                    report.first_flagged = Some((id, junction));
                }
            }
        }
    }
    report.sat_calls = stats.sat_calls;
    report.conflicts = stats.conflicts;
    report.cex_replays = stats.cex_replays;
    trace.count(Counter::CecSatCalls, report.sat_calls);
    trace.count(Counter::Conflicts, report.conflicts);
    trace.count(Counter::CexReplays, report.cex_replays);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_domino_ir::{DominoGate, Pdn};
    use soi_pbe::excite::junction_excitability;
    use soi_pbe::postprocess;

    fn t(i: usize) -> Pdn {
        Pdn::transistor(Signal::input(i))
    }

    const BUDGET: u64 = 100_000;

    /// `(A+B)*C` stack-on-top: the committed junction is excitable in
    /// the worst case (hold A, fire C).
    #[test]
    fn unconstrained_committed_point_is_excitable() {
        let gate = DominoGate::footed(Pdn::series(vec![Pdn::parallel(vec![t(0), t(1)]), t(2)]));
        let verdict = junction_excitability_sat(
            &gate,
            &JunctionRef::new(0, 0),
            &InputConstraints::none(),
            BUDGET,
        );
        assert_eq!(verdict, Excitability::Excitable);
    }

    /// Two mutex signals in series guard the junction below them: the
    /// charge condition is unsatisfiable.
    #[test]
    fn mutex_series_guard_is_proven_safe() {
        let gate = DominoGate::footed(Pdn::series(vec![
            t(0),
            t(1),
            Pdn::parallel(vec![t(2), t(3)]),
            t(4),
        ]));
        let constraints = InputConstraints::none().with_mutex(vec![0, 1]);
        let j = JunctionRef::new(0, 2);
        assert_eq!(
            junction_excitability_sat(&gate, &j, &constraints, BUDGET),
            Excitability::ProvenSafe
        );
        assert_eq!(
            junction_excitability_sat(&gate, &j, &InputConstraints::none(), BUDGET),
            Excitability::Excitable
        );
    }

    /// Fixed inputs: a present one asserts a unit clause; an absent one
    /// takes its fixed value, so tying it high leaves the gate's own
    /// inputs free, exactly as the enumerator reads it.
    #[test]
    fn fixed_inputs_match_enumeration_semantics() {
        let gate = DominoGate::footed(Pdn::series(vec![
            t(0),
            Pdn::parallel(vec![t(1), t(2)]),
            t(3),
        ]));
        let j = JunctionRef::new(0, 0);
        let low = InputConstraints::none().with_fixed(0, false);
        assert_eq!(
            junction_excitability_sat(&gate, &j, &low, BUDGET),
            Excitability::ProvenSafe
        );
        // Input 9 does not appear in the gate; tying it high constrains
        // nothing the gate reads, and the enumerator agrees.
        let absent = InputConstraints::none().with_fixed(9, true);
        assert_eq!(
            junction_excitability_sat(&gate, &j, &absent, BUDGET),
            Excitability::Excitable
        );
        assert_eq!(
            junction_excitability(&gate, &j, &absent),
            Excitability::Excitable
        );
        // Through a mutex it does: input 9 high forces input 0 low.
        let shared = absent.with_mutex(vec![0, 9]);
        assert_eq!(
            junction_excitability_sat(&gate, &j, &shared, BUDGET),
            Excitability::ProvenSafe
        );
        assert_eq!(
            junction_excitability(&gate, &j, &shared),
            Excitability::ProvenSafe
        );
    }

    /// A 4-input circuit whose one gate, `(i0 + i1)·i2`, never reads
    /// input 3: tying input 3 high must not prove the protected junction
    /// safe, whichever value it is tied to.
    #[test]
    fn an_unread_tied_input_prunes_nothing() {
        for value in [false, true] {
            let mut c = DominoCircuit::single_gate(
                (0..4).map(|i| format!("i{i}")).collect(),
                Pdn::series(vec![Pdn::parallel(vec![t(0), t(1)]), t(2)]),
            );
            postprocess::insert_discharge(&mut c);
            assert_eq!(c.counts().discharge, 1);
            let tied = InputConstraints::none().with_fixed(3, value);
            assert_eq!(
                prune_discharge(&mut c, &tied, BUDGET),
                Ok(0),
                "tied {value}"
            );
            assert!(soi_pbe::hazard::check(&c).is_empty());
            assert!(verify_safe_sat(&c, &tied, BUDGET).safe);

            c.set_discharge(GateId::from_index(0), &[]);
            assert_eq!(soi_pbe::hazard::check(&c).len(), 1);
            let stripped = verify_safe_sat(&c, &tied, BUDGET);
            assert!(!stripped.safe, "tied {value}: {stripped:?}");
            assert_eq!(stripped.excitable, 1);
        }
    }

    /// Every junction of a spread of gates: the SAT verdict equals the
    /// enumerator's exact verdict, across constraint shapes.
    #[test]
    fn agrees_with_exact_enumeration() {
        let gates = [
            DominoGate::footed(Pdn::series(vec![Pdn::parallel(vec![t(0), t(1)]), t(2)])),
            DominoGate::footed(Pdn::series(vec![
                t(0),
                t(1),
                Pdn::parallel(vec![t(2), t(3)]),
                t(4),
            ])),
            DominoGate::footed(Pdn::parallel(vec![
                Pdn::series(vec![t(0), t(1), t(2)]),
                Pdn::series(vec![t(3), Pdn::parallel(vec![t(4), t(5)])]),
            ])),
            DominoGate::footed(Pdn::series(vec![
                Pdn::parallel(vec![Pdn::series(vec![t(0), t(1)]), t(2)]),
                Pdn::parallel(vec![t(3), t(4)]),
            ])),
            // Gate-output signals and negative phases.
            DominoGate::footed(Pdn::series(vec![
                Pdn::transistor(Signal::Gate(GateId::from_index(0))),
                Pdn::parallel(vec![t(1), Pdn::transistor(Signal::input_neg(2))]),
                t(0),
            ])),
        ];
        let constraint_sets = [
            InputConstraints::none(),
            InputConstraints::none().with_mutex(vec![0, 1]),
            InputConstraints::none().with_mutex(vec![1, 2, 3]),
            InputConstraints::none().with_fixed(0, false),
            InputConstraints::none()
                .with_fixed(1, true)
                .with_mutex(vec![2, 3]),
        ];
        for (g, gate) in gates.iter().enumerate() {
            let graph = gate.pdn().flatten();
            for (c, constraints) in constraint_sets.iter().enumerate() {
                for (junction, _) in graph.junctions() {
                    let exact = junction_excitability(gate, junction, constraints);
                    let sat = junction_excitability_sat(gate, junction, constraints, BUDGET);
                    assert_eq!(sat, exact, "gate {g} constraints {c} junction {junction:?}");
                }
            }
        }
    }

    /// The budget caps *conflicts*: a starved run may still answer when
    /// the search never conflicts, but it must never contradict the
    /// exact verdict.
    #[test]
    fn zero_budget_never_claims_wrongly() {
        let gate = DominoGate::footed(Pdn::series(vec![Pdn::parallel(vec![t(0), t(1)]), t(2)]));
        let verdict =
            junction_excitability_sat(&gate, &JunctionRef::new(0, 0), &InputConstraints::none(), 0);
        // Exact verdict is Excitable; starvation may only weaken it.
        assert!(matches!(
            verdict,
            Excitability::Excitable | Excitability::Unknown
        ));
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
        assert!(c.counts().discharge > 0);
        assert_eq!(
            prune_discharge(&mut c, &InputConstraints::none(), BUDGET),
            Ok(0)
        );
    }

    /// End to end on a circuit: covered junctions are skipped; pruning
    /// under constraints stays provably safe under those constraints and
    /// provably unsafe without them.
    #[test]
    fn verify_safe_sat_mirrors_enumeration() {
        let mut c = DominoCircuit::single_gate(
            (0..5).map(|i| format!("i{i}")).collect(),
            Pdn::series(vec![t(0), t(1), Pdn::parallel(vec![t(2), t(3)]), t(4)]),
        );
        postprocess::insert_discharge(&mut c);
        let covered = verify_safe_sat(&c, &InputConstraints::none(), BUDGET);
        assert!(covered.safe);
        assert_eq!(covered.junctions_checked, 0);

        let constraints = InputConstraints::none().with_mutex(vec![0, 1]);
        let removed = prune_discharge(&mut c, &constraints, BUDGET).unwrap();
        assert!(removed > 0);
        let pruned = verify_safe_sat(&c, &constraints, BUDGET);
        assert!(pruned.safe, "{pruned:?}");
        // The worst-case checker now (rightly) complains.
        assert!(!soi_pbe::hazard::is_safe(&c));
        assert!(pruned.junctions_checked > 0);
        assert!(pruned.sat_calls > 0);

        let unconstrained = verify_safe_sat(&c, &InputConstraints::none(), BUDGET);
        assert!(!unconstrained.safe);
        assert!(unconstrained.excitable > 0);
        assert!(unconstrained.first_flagged.is_some());
        assert!(unconstrained.cex_replays > 0);
    }

    #[test]
    fn traced_verify_reports_counters() {
        let (rec, trace) = soi_trace::Recorder::install();
        let mut c = DominoCircuit::single_gate(
            (0..5).map(|i| format!("i{i}")).collect(),
            Pdn::series(vec![t(0), t(1), Pdn::parallel(vec![t(2), t(3)]), t(4)]),
        );
        postprocess::insert_discharge(&mut c);
        let constraints = InputConstraints::none().with_mutex(vec![0, 1]);
        prune_discharge(&mut c, &constraints, BUDGET).unwrap();
        let report = verify_safe_sat_traced(&c, &constraints, BUDGET, trace);
        assert_eq!(rec.counter(Counter::CecSatCalls), report.sat_calls);
        assert_eq!(rec.counter(Counter::Conflicts), report.conflicts);
        assert_eq!(rec.counter(Counter::CexReplays), report.cex_replays);
    }
}
