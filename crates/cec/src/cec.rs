//! Miter-based combinational equivalence checking.
//!
//! The checker is a SAT sweep over a shared-input miter, in four tiers
//! ordered cheapest first:
//!
//! 1. **Simulation filter.** Both networks run the guided + random word
//!    batches of [`crate::wordsim`] on shared input words. A lane where
//!    an output pair differs is a counterexample candidate: it is
//!    replayed through the scalar simulator on both networks, and only a
//!    confirmed mismatch is reported — the `cex_replays` discipline. The
//!    per-node signatures feed complement-aware candidate classes for
//!    the sweep.
//! 2. **Structural hashing.** Both networks encode into one
//!    [`Encoder`], sharing input literals positionally. Nodes of the
//!    right network whose fanins already collapsed onto left-network
//!    literals hash to the *same* literal, proving equivalence with zero
//!    solver effort; such a node skips the candidate search entirely.
//! 3. **Counterexample refinement.** Every satisfying model of an
//!    internal node-pair query is a real input vector on which the pair
//!    differs, and usually separates many more pairs that the random
//!    vectors could not: it becomes a new simulation lane on both
//!    networks before the next candidate is looked at (the SAT-sweeping
//!    refinement of Mishchenko et al., ICCAD 2006). Pending lanes are
//!    evaluated lazily, only over the fanin cones of a pair about to go
//!    to SAT and memoized per node, so a counterexample costs the cones
//!    it is asked about, not the networks; every 64 lanes the batch is
//!    re-simulated in full and folded into a per-node hash that filters
//!    candidates as cheaply as the signatures do.
//! 4. **SAT.** Remaining candidate pairs are closed with a *cone-local*
//!    query on their XOR miter under a small conflict budget:
//!    [`Encoder::solve_cone`] emits only the miter's transitive fanin
//!    into the encoder's one reusable cone solver, so each query costs
//!    its cone, not the whole two-network CNF, and reuses the previous
//!    queries' allocations. A
//!    proven pair substitutes the left literal for the right node,
//!    shrinking every downstream cone (and is memoized, so
//!    strash-shared right nodes never re-prove). Output miters get the
//!    large budget; a `Sat` answer yields a model whose input assignment
//!    is replayed through the scalar simulator before it is believed.
//!
//! Everything is counted: SAT calls, CDCL conflicts, simulation-filtered
//! candidates, refinement lanes and counterexample replays, surfaced
//! through [`soi_trace`] as `cec_sat_calls` / `conflicts` /
//! `cec_sim_filtered` / `cec_refinements` / `cex_replays`.

use std::error::Error;
use std::fmt;

use soi_netlist::fx::FxHashMap;
use soi_netlist::sim::SimBatch;
use soi_netlist::{Network, NetworkError, Node, NodeId};
use soi_trace::{Counter, TraceHandle};

use crate::cnf::Lit;
use crate::encode::Encoder;
use crate::solver::SatResult;
use crate::wordsim::{self, LaneSim};

/// Tuning knobs and budgets for one equivalence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CecOptions {
    /// Random 64-lane batches appended to the guided vectors.
    pub sim_rounds: usize,
    /// Seed for the random batches.
    pub seed: u64,
    /// Conflict budget per internal candidate-pair query. Exhaustion just
    /// skips the merge; correctness never depends on it.
    pub node_conflict_budget: u64,
    /// Conflict budget per output miter. Exhaustion leaves the output
    /// *unproven*, which [`CecVerdict::Undecided`] reports.
    pub output_conflict_budget: u64,
    /// Candidates tried per node from its signature class.
    pub max_candidates: usize,
}

impl Default for CecOptions {
    fn default() -> CecOptions {
        CecOptions {
            sim_rounds: 8,
            seed: 0xCEC,
            node_conflict_budget: 200,
            output_conflict_budget: 1_000_000,
            max_candidates: 4,
        }
    }
}

/// A confirmed distinguishing input assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The input assignment, ordered as the networks' primary inputs.
    pub inputs: Vec<bool>,
    /// Index of the first differing output port.
    pub output: usize,
    /// The left network's value at that port.
    pub lhs: bool,
    /// The right network's value at that port.
    pub rhs: bool,
}

/// The check's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CecVerdict {
    /// Every output pair proved equivalent.
    Equivalent,
    /// A replay-confirmed counterexample distinguishes the networks.
    NotEquivalent(Counterexample),
    /// Some output miters exhausted their conflict budget unproven.
    Undecided {
        /// Number of unproven output miters.
        unproven: usize,
    },
}

/// Which path decided a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CecPath {
    /// The mapped circuit's certificate: every gate proved equal to the
    /// unate root it records, with no SAT call (see
    /// [`check_mapped`](crate::check_mapped)).
    Certificate,
    /// The SAT sweep of [`check_networks`]: always for two networks, and
    /// for a mapped circuit whose certificate was absent or failed.
    Sweep,
}

/// Everything a check run reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CecReport {
    /// The verdict.
    pub verdict: CecVerdict,
    /// Output pairs proved equivalent.
    pub outputs_proved: usize,
    /// Total output pairs.
    pub outputs_total: usize,
    /// Internal right-network nodes merged onto left-network literals
    /// (by structural hashing or a SAT proof).
    pub internal_merges: usize,
    /// Candidates discharged by simulation alone: nodes whose signature
    /// matched no class, plus output mismatches settled by a simulated
    /// counterexample.
    pub sim_filtered: u64,
    /// SAT queries issued.
    pub sat_calls: u64,
    /// CDCL conflicts across all queries.
    pub conflicts: u64,
    /// Counterexamples replayed through the scalar simulator.
    pub cex_replays: u64,
    /// Counterexample lanes fed back into simulation: satisfying models
    /// of internal node-pair queries.
    pub refinements: u64,
    /// Which path decided the verdict.
    pub path: CecPath,
}

impl CecReport {
    /// A report with nothing counted yet: `Equivalent` until a check says
    /// otherwise, no output proved.
    pub(crate) fn new(outputs_total: usize, path: CecPath) -> CecReport {
        CecReport {
            verdict: CecVerdict::Equivalent,
            outputs_proved: 0,
            outputs_total,
            internal_merges: 0,
            sim_filtered: 0,
            sat_calls: 0,
            conflicts: 0,
            cex_replays: 0,
            refinements: 0,
            path,
        }
    }

    /// Unproven output miters (0 unless [`CecVerdict::Undecided`]).
    pub fn unproven(&self) -> usize {
        match self.verdict {
            CecVerdict::Undecided { unproven } => unproven,
            _ => 0,
        }
    }

    /// Whether the verdict is [`CecVerdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        self.verdict == CecVerdict::Equivalent
    }
}

/// Why a check could not run (distinct from a *negative* verdict, which
/// [`CecReport`] carries).
#[derive(Debug)]
#[non_exhaustive]
pub enum CecError {
    /// The networks have different primary-input counts.
    InputArity {
        /// Left input count.
        lhs: usize,
        /// Right input count.
        rhs: usize,
    },
    /// The networks have different output counts.
    OutputArity {
        /// Left output count.
        lhs: usize,
        /// Right output count.
        rhs: usize,
    },
    /// A network failed validation or simulation.
    Net(NetworkError),
    /// A SAT or simulation counterexample did not reproduce under scalar
    /// replay — an internal inconsistency that must never be reported as
    /// a verdict.
    UnverifiedCounterexample {
        /// Index of the output the unconfirmed model pointed at.
        output: usize,
    },
}

impl fmt::Display for CecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CecError::InputArity { lhs, rhs } => {
                write!(f, "input counts differ: {lhs} vs {rhs}")
            }
            CecError::OutputArity { lhs, rhs } => {
                write!(f, "output counts differ: {lhs} vs {rhs}")
            }
            CecError::Net(e) => write!(f, "{e}"),
            CecError::UnverifiedCounterexample { output } => write!(
                f,
                "counterexample for output {output} failed scalar replay (checker inconsistency)"
            ),
        }
    }
}

impl Error for CecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CecError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetworkError> for CecError {
    fn from(e: NetworkError) -> CecError {
        CecError::Net(e)
    }
}

/// Checks combinational equivalence of two networks (inputs and outputs
/// matched positionally) without instrumentation.
///
/// # Errors
///
/// See [`CecError`]; a *negative verdict* is not an error — it comes back
/// as [`CecVerdict::NotEquivalent`] inside the report.
pub fn check_networks(a: &Network, b: &Network, opts: &CecOptions) -> Result<CecReport, CecError> {
    check_networks_traced(a, b, opts, TraceHandle::off())
}

/// [`check_networks`] with a trace handle: reports `cec_sat_calls`,
/// `cec_sim_filtered`, `conflicts`, `cec_refinements` and `cex_replays`
/// counters.
pub fn check_networks_traced(
    a: &Network,
    b: &Network,
    opts: &CecOptions,
    trace: TraceHandle,
) -> Result<CecReport, CecError> {
    let mut chk = Checker::new(a, b, opts)?;
    let result = chk.run();
    trace.count(Counter::CecSatCalls, chk.report.sat_calls);
    trace.count(Counter::CecSimFiltered, chk.report.sim_filtered);
    trace.count(Counter::Conflicts, chk.report.conflicts);
    trace.count(Counter::CexReplays, chk.report.cex_replays);
    trace.count(Counter::CecRefinements, chk.report.refinements);
    result.map(|verdict| {
        chk.report.verdict = verdict;
        chk.report
    })
}

/// One signature-class entry: a left-network node and its canonical
/// phase.
type ClassEntry = (NodeId, bool);

/// Lanes per refinement batch: pending counterexamples are re-simulated
/// in full and folded once this many have accumulated.
const LANES: u32 = 64;

/// One network's side of the simulation state.
struct Side<'n> {
    net: &'n Network,
    /// Node-major guided + random signatures (see
    /// [`wordsim::node_signatures`]).
    sigs: Vec<u64>,
    /// Pending refinement lanes, evaluated lazily per fanin cone.
    lanes: LaneSim,
    /// Per-node hash of every folded refinement batch, each word taken in
    /// the node's canonical phase: nodes that agree on all folded lanes
    /// (up to their relative phase) hash alike, so unequal hashes prove a
    /// folded lane separates them.
    folded: Vec<u64>,
}

impl<'n> Side<'n> {
    fn new(net: &'n Network, batches: &[SimBatch]) -> Result<Side<'n>, CecError> {
        Ok(Side {
            net,
            sigs: wordsim::node_signatures(net, batches)?,
            lanes: LaneSim::new(net),
            folded: vec![0; net.len()],
        })
    }

    fn sig(&self, id: NodeId, rounds: usize) -> &[u64] {
        &self.sigs[id.index() * rounds..(id.index() + 1) * rounds]
    }

    /// Re-simulates the full lane batch and folds it into `folded`.
    fn fold(&mut self, batch: &SimBatch, rounds: usize) {
        let words = wordsim::node_signatures(self.net, std::slice::from_ref(batch))
            .expect("one lane word per primary input");
        for (n, h) in self.folded.iter_mut().enumerate() {
            // The canonical phase is the first signature word's lane 0.
            let flip = 0u64.wrapping_sub(self.sigs[n * rounds] & 1);
            *h = (*h ^ words[n] ^ flip).wrapping_mul(0x100_0000_01b3);
        }
    }
}

struct Checker<'n> {
    a: Side<'n>,
    b: Side<'n>,
    opts: CecOptions,
    batches: Vec<SimBatch>,
    rounds: usize,
    /// One word per primary input holding the pending refinement lanes;
    /// lanes at and above `pending` are unused.
    lane_inputs: Vec<u64>,
    pending: u32,
    report: CecReport,
}

impl<'n> Checker<'n> {
    fn new(a: &'n Network, b: &'n Network, opts: &CecOptions) -> Result<Checker<'n>, CecError> {
        a.validate()?;
        b.validate()?;
        if a.inputs().len() != b.inputs().len() {
            return Err(CecError::InputArity {
                lhs: a.inputs().len(),
                rhs: b.inputs().len(),
            });
        }
        if a.outputs().len() != b.outputs().len() {
            return Err(CecError::OutputArity {
                lhs: a.outputs().len(),
                rhs: b.outputs().len(),
            });
        }
        let batches = wordsim::batches(a.inputs().len(), opts.sim_rounds, opts.seed);
        Ok(Checker {
            a: Side::new(a, &batches)?,
            b: Side::new(b, &batches)?,
            opts: *opts,
            rounds: batches.len(),
            batches,
            lane_inputs: vec![0; a.inputs().len()],
            pending: 0,
            report: CecReport::new(a.outputs().len(), CecPath::Sweep),
        })
    }

    /// Replays a lane assignment through both scalar simulators and
    /// builds the confirmed counterexample, or fails the check if the
    /// mismatch does not reproduce.
    fn replay(&mut self, inputs: Vec<bool>, output: usize) -> Result<CecVerdict, CecError> {
        self.report.cex_replays += 1;
        let va = self.a.net.simulate(&inputs)?;
        let vb = self.b.net.simulate(&inputs)?;
        if va[output] != vb[output] {
            return Ok(CecVerdict::NotEquivalent(Counterexample {
                inputs,
                output,
                lhs: va[output],
                rhs: vb[output],
            }));
        }
        // Maybe the model distinguishes a *different* output.
        if let Some(o) = (0..va.len()).find(|&o| va[o] != vb[o]) {
            return Ok(CecVerdict::NotEquivalent(Counterexample {
                inputs,
                output: o,
                lhs: va[o],
                rhs: vb[o],
            }));
        }
        Err(CecError::UnverifiedCounterexample { output })
    }

    fn run(&mut self) -> Result<CecVerdict, CecError> {
        let (a, b) = (self.a.net, self.b.net);
        // Tier 1: direct output comparison on the simulated words.
        for o in 0..a.outputs().len() {
            let sa = self.a.sig(a.outputs()[o].driver, self.rounds);
            let sb = self.b.sig(b.outputs()[o].driver, self.rounds);
            if let Some(r) = (0..self.rounds).find(|&r| sa[r] != sb[r]) {
                self.report.sim_filtered += 1;
                let lane = (sa[r] ^ sb[r]).trailing_zeros();
                let inputs = wordsim::lane_assignment(&self.batches[r], lane);
                return self.replay(inputs, o);
            }
        }

        // Candidate classes over the left network's nodes.
        let mut classes: FxHashMap<u64, Vec<ClassEntry>> = FxHashMap::default();
        for (id, _) in a.iter() {
            let canon = wordsim::canonicalize(self.a.sig(id, self.rounds));
            classes
                .entry(canon.hash)
                .or_default()
                .push((id, canon.phase));
        }

        // Shared input literals; encode the left network wholesale.
        let mut enc = Encoder::new();
        let in_lits: Vec<Lit> = (0..a.inputs().len()).map(|_| enc.fresh()).collect();
        let lits_a = enc.encode_network(a, &in_lits)?.nodes;
        let left_vars = enc.num_vars();

        // Tiers 2-4: sweep the right network in topological order,
        // substituting proven-equivalent left literals as we go.
        let mut sweep = Sweep {
            enc,
            in_lits,
            lits_a,
            classes,
            proven: FxHashMap::default(),
            left_vars,
        };
        let mut lits_b: Vec<Lit> = Vec::with_capacity(b.len());
        let mut next_input = 0;
        for (id, node) in b.iter() {
            use soi_netlist::UnOp;
            let lit = match node {
                Node::Input { .. } => {
                    next_input += 1;
                    lits_b.push(sweep.in_lits[next_input - 1]);
                    continue;
                }
                Node::Const { value } => sweep.enc.constant(*value),
                Node::Unary { op, a } => match op {
                    UnOp::Inv => !lits_b[a.index()],
                    UnOp::Buf => lits_b[a.index()],
                },
                Node::Binary { op, a, b } => {
                    let (la, lb) = (lits_b[a.index()], lits_b[b.index()]);
                    sweep.enc.binary(*op, la, lb)
                }
            };
            lits_b.push(self.merge(&mut sweep, id, lit));
        }

        // Output miters.
        let enc = &mut sweep.enc;
        let mut unproven = 0;
        for o in 0..a.outputs().len() {
            let la = sweep.lits_a[a.outputs()[o].driver.index()];
            let lb = lits_b[b.outputs()[o].driver.index()];
            if la == lb {
                self.report.outputs_proved += 1;
                continue;
            }
            let miter = enc.xor(la, lb);
            if miter == enc.lit_false() {
                self.report.outputs_proved += 1;
                continue;
            }
            self.report.sat_calls += 1;
            let before = enc.conflicts();
            let result = enc.solve_cone(&[miter], self.opts.output_conflict_budget);
            self.report.conflicts += enc.conflicts() - before;
            match result {
                SatResult::Unsat => self.report.outputs_proved += 1,
                SatResult::Sat => {
                    // Inputs outside the miter's cone default to false;
                    // they cannot affect the differing output, and the
                    // scalar replay re-simulates the full networks.
                    let inputs: Vec<bool> = sweep
                        .in_lits
                        .iter()
                        .map(|&l| enc.cone_model_value(l))
                        .collect();
                    return self.replay(inputs, o);
                }
                SatResult::Unknown => unproven += 1,
            }
        }
        if unproven > 0 {
            return Ok(CecVerdict::Undecided { unproven });
        }
        Ok(CecVerdict::Equivalent)
    }

    /// Whether a pending refinement lane separates left node `aid` from
    /// right node `id` under the given relative phase.
    fn lanes_differ(&mut self, aid: NodeId, id: NodeId, relative: bool) -> bool {
        if self.pending == 0 {
            return false;
        }
        let wa = self.a.lanes.word(self.a.net, aid, &self.lane_inputs);
        let wb = self.b.lanes.word(self.b.net, id, &self.lane_inputs);
        let flip = if relative { u64::MAX } else { 0 };
        (wa ^ wb ^ flip) & ((1u64 << self.pending) - 1) != 0
    }

    /// Feeds the input assignment of the last satisfying cone query back
    /// as a new simulation lane on both networks.
    fn refine(&mut self, enc: &Encoder, in_lits: &[Lit]) {
        self.report.refinements += 1;
        for (w, &l) in self.lane_inputs.iter_mut().zip(in_lits) {
            *w |= u64::from(enc.cone_model_value(l)) << self.pending;
        }
        self.pending += 1;
        self.a.lanes.invalidate();
        self.b.lanes.invalidate();
        if self.pending == LANES {
            let batch = SimBatch::new(std::mem::replace(
                &mut self.lane_inputs,
                vec![0; self.a.net.inputs().len()],
            ));
            self.a.fold(&batch, self.rounds);
            self.b.fold(&batch, self.rounds);
            self.pending = 0;
        }
    }

    /// Tries to merge a right-network node onto a left-network literal
    /// via its signature class; returns the representative literal.
    fn merge(&mut self, sweep: &mut Sweep, id: NodeId, lit: Lit) -> Lit {
        // Structural hashing can hand distinct right-network nodes the
        // same literal; a var proved once never re-proves.
        if let Some(&rep) = sweep.proven.get(&(lit.var().index() as u32)) {
            self.report.internal_merges += 1;
            return rep.xor_sign(lit.is_negated());
        }
        // A literal that needed no new variable is already a left-network
        // signal: merged for free, with nothing to prove.
        if lit.var().index() < sweep.left_vars {
            self.report.internal_merges += 1;
            return lit;
        }
        let canon = wordsim::canonicalize(self.b.sig(id, self.rounds));
        let Some(cands) = sweep.classes.get(&canon.hash) else {
            // Simulation alone separated this node from every left node.
            self.report.sim_filtered += 1;
            return lit;
        };
        let mut tried = 0;
        for &(aid, phase_a) in cands {
            if tried >= self.opts.max_candidates {
                break;
            }
            let relative = phase_a ^ canon.phase;
            if self.a.folded[aid.index()] != self.b.folded[id.index()]
                || !wordsim::sigs_equal(
                    self.a.sig(aid, self.rounds),
                    self.b.sig(id, self.rounds),
                    relative,
                )
            {
                continue; // hash collision, or split by a folded lane
            }
            tried += 1;
            if self.lanes_differ(aid, id, relative) {
                continue; // refuted by a counterexample lane
            }
            let target = sweep.lits_a[aid.index()].xor_sign(relative);
            let enc = &mut sweep.enc;
            let miter = enc.xor(lit, target);
            self.report.sat_calls += 1;
            let before = enc.conflicts();
            let result = enc.solve_cone(&[miter], self.opts.node_conflict_budget);
            self.report.conflicts += enc.conflicts() - before;
            match result {
                SatResult::Unsat => {
                    // Equivalent: substitute the left literal everywhere
                    // downstream. No equality clause is needed — every
                    // later cone is built over the substituted literal.
                    sweep
                        .proven
                        .insert(lit.var().index() as u32, target.xor_sign(lit.is_negated()));
                    self.report.internal_merges += 1;
                    return target;
                }
                SatResult::Sat => self.refine(&sweep.enc, &sweep.in_lits),
                SatResult::Unknown => {}
            }
        }
        lit
    }
}

/// The encoding state of the sweep over the right network.
struct Sweep {
    enc: Encoder,
    /// Shared primary-input literals.
    in_lits: Vec<Lit>,
    /// Literal per left-network node.
    lits_a: Vec<Lit>,
    /// Left-network nodes by canonical signature hash.
    classes: FxHashMap<u64, Vec<ClassEntry>>,
    /// Right-network variables proved equal to a left literal.
    proven: FxHashMap<u32, Lit>,
    /// Variables allocated while encoding the left network: the
    /// constant, the inputs and the left nodes' literals.
    left_vars: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_net() -> Network {
        let mut n = Network::new("x");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.xor2(a, b);
        n.add_output("o", g);
        n
    }

    fn xor_as_aoi() -> Network {
        let mut n = Network::new("x2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let na = n.inv(a);
        let nb = n.inv(b);
        let t1 = n.and2(a, nb);
        let t2 = n.and2(na, b);
        let g = n.or2(t1, t2);
        n.add_output("o", g);
        n
    }

    #[test]
    fn equivalent_restructurings_prove() {
        let report = check_networks(&xor_net(), &xor_as_aoi(), &CecOptions::default()).unwrap();
        assert!(report.is_equivalent());
        assert_eq!(report.outputs_proved, 1);
        assert_eq!(report.unproven(), 0);
    }

    #[test]
    fn inequivalence_yields_a_confirmed_counterexample() {
        let mut n = Network::new("and");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.and2(a, b);
        n.add_output("o", g);
        let report = check_networks(&xor_net(), &n, &CecOptions::default()).unwrap();
        match report.verdict {
            CecVerdict::NotEquivalent(cex) => {
                assert_eq!(cex.output, 0);
                let va = xor_net().simulate(&cex.inputs).unwrap()[0];
                let vb = n.simulate(&cex.inputs).unwrap()[0];
                assert_eq!(cex.lhs, va);
                assert_eq!(cex.rhs, vb);
                assert_ne!(va, vb);
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
        assert!(report.cex_replays >= 1);
    }

    /// Disagreement only on one assignment of a wide AND — random
    /// vectors essentially never hit it, so the SAT tier must.
    #[test]
    fn needle_inequivalence_is_found_by_sat() {
        let width = 12;
        let mut a = Network::new("wide-and");
        let sigs: Vec<_> = (0..width).map(|i| a.add_input(format!("i{i}"))).collect();
        let root = a.and_tree(&sigs);
        a.add_output("o", root);

        let mut b = Network::new("never");
        for i in 0..width {
            b.add_input(format!("i{i}"));
        }
        let zero = b.add_const(false);
        b.add_output("o", zero);

        // Guided batches include the all-ones corner, so sim finds this;
        // force the SAT path by checking a *rotation* instead: AND of all
        // versus AND of all but with one input duplicated and one dropped.
        let mut c = Network::new("dropped");
        let csigs: Vec<_> = (0..width).map(|i| c.add_input(format!("i{i}"))).collect();
        let mut picked = csigs.clone();
        picked[0] = csigs[1]; // drop input 0 from the conjunction
        let croot = c.and_tree(&picked);
        c.add_output("o", croot);

        let ra = check_networks(&a, &b, &CecOptions::default()).unwrap();
        assert!(matches!(ra.verdict, CecVerdict::NotEquivalent(_)));
        let rc = check_networks(&a, &c, &CecOptions::default()).unwrap();
        match rc.verdict {
            CecVerdict::NotEquivalent(cex) => {
                // The distinguishing assignment must clear input 0 and
                // set every other input.
                assert!(!cex.inputs[0]);
                assert!(cex.inputs[1..].iter().all(|&v| v));
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn arity_mismatches_are_errors() {
        let mut one = Network::new("one");
        let a = one.add_input("a");
        one.add_output("o", a);
        assert!(matches!(
            check_networks(&xor_net(), &one, &CecOptions::default()),
            Err(CecError::InputArity { lhs: 2, rhs: 1 })
        ));
        let mut two = Network::new("two");
        let a = two.add_input("a");
        let b = two.add_input("b");
        two.add_output("o", a);
        two.add_output("p", b);
        assert!(matches!(
            check_networks(&xor_net(), &two, &CecOptions::default()),
            Err(CecError::OutputArity { lhs: 1, rhs: 2 })
        ));
    }

    #[test]
    fn traced_check_reports_counters() {
        let (left, right) = refinement_pair();
        let (rec, trace) = soi_trace::Recorder::install();
        let report = check_networks_traced(&left, &right, &refinement_opts(), trace).unwrap();
        assert!(report.is_equivalent());
        assert!(report.refinements > 0, "{report:?}");
        assert_eq!(rec.counter(Counter::CecSatCalls), report.sat_calls);
        assert_eq!(rec.counter(Counter::Conflicts), report.conflicts);
        assert_eq!(rec.counter(Counter::CecSimFiltered), report.sim_filtered);
        assert_eq!(rec.counter(Counter::CexReplays), report.cex_replays);
        assert_eq!(rec.counter(Counter::CecRefinements), report.refinements);
    }

    /// Guided vectors only, and room in the candidate budget for every
    /// member of the fixture's signature class.
    fn refinement_opts() -> CecOptions {
        CecOptions {
            sim_rounds: 0,
            max_candidates: 8,
            ..CecOptions::default()
        }
    }

    /// Inputs `x1..x4, y1..y4`. The right network computes
    /// `R = x1·x2·!x3·!x4`; the left computes the same function with
    /// another association (`R'`, its only output) and, before it, four
    /// dangling decoys `L_j = R·y_j`. Under the guided walking-one and
    /// walking-zero vectors all five left nodes and `R` are constant 0,
    /// so they share one signature class, with the decoys first — yet no
    /// decoy equals `R`: `L_j` differs from it exactly where `R = 1` and
    /// `y_j = 0`.
    fn refinement_pair() -> (Network, Network) {
        let mut left = Network::new("decoys");
        let x: Vec<_> = (1..=4).map(|i| left.add_input(format!("x{i}"))).collect();
        let y: Vec<_> = (1..=4).map(|i| left.add_input(format!("y{i}"))).collect();
        let (n3, n4) = (left.inv(x[2]), left.inv(x[3]));
        let x1n3 = left.and2(x[0], n3);
        for &yj in &y {
            let n4y = left.and2(n4, yj);
            let rest = left.and2(x[1], n4y);
            left.and2(x1n3, rest);
        }
        let x2n4 = left.and2(x[1], n4);
        let r = left.and2(x1n3, x2n4);
        left.add_output("r", r);

        let mut right = Network::new("r");
        let x: Vec<_> = (1..=4).map(|i| right.add_input(format!("x{i}"))).collect();
        for i in 1..=4 {
            right.add_input(format!("y{i}"));
        }
        let (n3, n4) = (right.inv(x[2]), right.inv(x[3]));
        let x1x2 = right.and2(x[0], x[1]);
        let n3n4 = right.and2(n3, n4);
        let r = right.and2(x1x2, n3n4);
        right.add_output("r", r);
        (left, right)
    }

    /// One SAT counterexample removes a whole class of decoys: the query
    /// `R` vs `L_1` is satisfiable only with `R = 1, y_1 = 0`, and the
    /// decoys' other `y_j` lie outside that query's cone and read false,
    /// so the fed-back lane has `L_2 = L_3 = L_4 = 0 != R`. Those three
    /// never reach SAT; the next SAT call proves `R ≡ R'` and merges it.
    /// Without the lane the sweep would have spent five SAT calls.
    #[test]
    fn one_counterexample_refutes_a_class_of_decoys() {
        let (left, right) = refinement_pair();
        let report = check_networks(&left, &right, &refinement_opts()).unwrap();
        assert!(report.is_equivalent(), "{report:?}");
        assert_eq!(report.refinements, 1, "{report:?}");
        assert_eq!(
            report.sat_calls, 2,
            "L_1 (sat) and R' (unsat) only: {report:?}"
        );
        assert_eq!(report.outputs_proved, 1);
        assert!(report.internal_merges >= 1, "R merges onto R': {report:?}");

        // The verdict does not depend on the lane: with a budget that
        // reaches only the first decoy, the output miter proves instead.
        let opts = CecOptions {
            max_candidates: 1,
            ..refinement_opts()
        };
        let report = check_networks(&left, &right, &opts).unwrap();
        assert!(report.is_equivalent(), "{report:?}");
        assert_eq!(report.refinements, 1, "{report:?}");
    }

    #[test]
    fn undecided_on_a_starved_budget() {
        // A 16-bit comparator-ish structure with zero budget cannot prove
        // its miter; the verdict must be Undecided, never a false claim.
        let mut a = Network::new("xa");
        let sa: Vec<_> = (0..16).map(|i| a.add_input(format!("i{i}"))).collect();
        let ra = a.xor_tree(&sa);
        a.add_output("o", ra);
        let mut b = Network::new("xb");
        let sb: Vec<_> = (0..16).map(|i| b.add_input(format!("i{i}"))).collect();
        let rev: Vec<_> = sb.iter().rev().copied().collect();
        let rb = b.xor_tree(&rev);
        b.add_output("o", rb);
        let opts = CecOptions {
            node_conflict_budget: 0,
            output_conflict_budget: 0,
            sim_rounds: 2,
            ..CecOptions::default()
        };
        let report = check_networks(&a, &b, &opts).unwrap();
        match report.verdict {
            CecVerdict::Undecided { unproven } => assert_eq!(unproven, 1),
            CecVerdict::Equivalent => {
                // Structural hashing may still close it outright; that is
                // also sound.
            }
            other => panic!("unexpected verdict {other:?}"),
        }
        // With real budgets the same pair proves.
        let report = check_networks(&a, &b, &CecOptions::default()).unwrap();
        assert!(report.is_equivalent());
    }
}
