//! Differential oracles for the `soi-cec` foundations: the CDCL solver
//! against exhaustive enumeration on random CNFs — fresh, under rounds
//! of assumptions, and as one instance reset between formulas the way
//! the equivalence sweep reuses its cone solver — and the 64-lane word
//! simulator against the scalar simulator on seeded random networks.
//! Every verdict, model, and lane value must agree — the solver and the
//! word evaluator are the two components everything in the equivalence
//! checker ultimately trusts.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use soi_domino::cec::{wordsim, Lit, SatResult, Solver};
use soi_domino::circuits::misc::random::{generate, RandomSpec};

/// A random CNF: `clauses[i]` is a list of `(variable, negated)` pairs.
struct RandomCnf {
    vars: usize,
    clauses: Vec<Vec<(usize, bool)>>,
}

fn random_cnf(rng: &mut SmallRng) -> RandomCnf {
    let vars = rng.gen_range(3..=12usize);
    // Around the satisfiability threshold for mixed-width clauses, so the
    // sample contains plenty of both verdicts.
    let nclauses = rng.gen_range(1..=(4 * vars));
    let clauses = (0..nclauses)
        .map(|_| {
            let width = rng.gen_range(1..=4usize);
            (0..width)
                .map(|_| (rng.gen_range(0..vars), rng.gen_bool(0.5)))
                .collect()
        })
        .collect();
    RandomCnf { vars, clauses }
}

/// Loads a CNF into a solver with no variables yet; returns the literal
/// of each CNF variable.
fn load(solver: &mut Solver, cnf: &RandomCnf) -> Vec<Lit> {
    let lits: Vec<Lit> = (0..cnf.vars)
        .map(|_| Lit::positive(solver.new_var()))
        .collect();
    for clause in &cnf.clauses {
        let cl: Vec<Lit> = clause
            .iter()
            .map(|&(v, neg)| lits[v].xor_sign(neg))
            .collect();
        solver.add_clause(&cl);
    }
    lits
}

fn model_bits(solver: &Solver, lits: &[Lit]) -> u64 {
    lits.iter()
        .enumerate()
        .map(|(v, &l)| u64::from(solver.model_value(l)) << v)
        .sum()
}

fn clause_satisfied(clause: &[(usize, bool)], bits: u64) -> bool {
    clause.iter().any(|&(v, neg)| (bits >> v & 1 == 1) != neg)
}

/// Exhaustive satisfiability under an assumption mask: `Some(bits)` for
/// the first satisfying assignment, `None` if unsat.
fn enumerate(cnf: &RandomCnf, forced: &[(usize, bool)]) -> Option<u64> {
    'assign: for bits in 0..(1u64 << cnf.vars) {
        for &(v, value) in forced {
            if (bits >> v & 1 == 1) != value {
                continue 'assign;
            }
        }
        if cnf.clauses.iter().all(|c| clause_satisfied(c, bits)) {
            return Some(bits);
        }
    }
    None
}

#[test]
fn solver_matches_exhaustive_enumeration_on_random_cnfs() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    let mut sat_seen = 0;
    let mut unsat_seen = 0;
    for case in 0..300 {
        let cnf = random_cnf(&mut rng);
        let mut solver = Solver::new();
        let lits = load(&mut solver, &cnf);
        let expect = enumerate(&cnf, &[]);
        let verdict = solver.solve(&[], 1_000_000);
        match (expect, verdict) {
            (Some(_), SatResult::Sat) => {
                sat_seen += 1;
                // The model must satisfy every clause — not merely agree
                // on the verdict.
                let bits = model_bits(&solver, &lits);
                for (i, clause) in cnf.clauses.iter().enumerate() {
                    assert!(
                        clause_satisfied(clause, bits),
                        "case {case}: model violates clause {i}"
                    );
                }
            }
            (None, SatResult::Unsat) => unsat_seen += 1,
            (e, v) => panic!("case {case}: enumeration {e:?} but solver {v:?}"),
        }
    }
    assert!(sat_seen > 20, "sample too easy: {sat_seen} sat");
    assert!(unsat_seen > 20, "sample too easy: {unsat_seen} unsat");
}

#[test]
fn assumption_queries_match_enumeration_and_stay_clean() {
    let mut rng = SmallRng::seed_from_u64(0xA55);
    for case in 0..150 {
        let cnf = random_cnf(&mut rng);
        let mut solver = Solver::new();
        let lits = load(&mut solver, &cnf);
        let base = enumerate(&cnf, &[]);
        // Several assumption sets against the same solver instance: the
        // incremental usage pattern of the sweep.
        for round in 0..4 {
            let nforce = rng.gen_range(0..=cnf.vars.min(4));
            let forced: Vec<(usize, bool)> = (0..nforce)
                .map(|_| (rng.gen_range(0..cnf.vars), rng.gen_bool(0.5)))
                .collect();
            let assumptions: Vec<Lit> = forced
                .iter()
                .map(|&(v, value)| lits[v].xor_sign(!value))
                .collect();
            let expect = enumerate(&cnf, &forced);
            let verdict = solver.solve(&assumptions, 1_000_000);
            match (expect, verdict) {
                (Some(_), SatResult::Sat) => {
                    for &(v, value) in &forced {
                        assert_eq!(
                            solver.model_value(lits[v]),
                            value,
                            "case {case} round {round}: assumption not honored"
                        );
                    }
                }
                (None, SatResult::Unsat) => {}
                (e, v) => panic!("case {case} round {round}: enumeration {e:?}, solver {v:?}"),
            }
        }
        // Assumption queries must not have polluted the clause database.
        let verdict = solver.solve(&[], 1_000_000);
        assert_eq!(
            verdict,
            if base.is_some() {
                SatResult::Sat
            } else {
                SatResult::Unsat
            },
            "case {case}: base verdict drifted after assumption rounds"
        );
    }
}

/// Pigeonhole: `n + 1` pigeons into `n` holes — unsatisfiable, and only
/// after many conflicts.
fn pigeonhole(n: usize) -> RandomCnf {
    let var = |pigeon: usize, hole: usize| pigeon * n + hole;
    let mut clauses: Vec<Vec<(usize, bool)>> = (0..=n)
        .map(|p| (0..n).map(|h| (var(p, h), false)).collect())
        .collect();
    for h in 0..n {
        for p1 in 0..=n {
            for p2 in p1 + 1..=n {
                clauses.push(vec![(var(p1, h), true), (var(p2, h), true)]);
            }
        }
    }
    RandomCnf {
        vars: (n + 1) * n,
        clauses,
    }
}

/// The sweep's usage pattern: one solver answers formula after formula,
/// reset in between. Every other instance is preceded by a pigeonhole
/// formula starved to a one-conflict budget, so it ends `Unknown` in
/// mid-search; the others follow an instance that ended `Sat` or
/// `Unsat`. Whatever the previous formula left behind — watches,
/// activities, phases, heap entries, level-0 units, a model — must not
/// leak into the next one: verdicts match enumeration, every model
/// satisfies its CNF and assumptions, and the reset solver answers every
/// query exactly as a fresh solver does (same verdict, same model, same
/// conflict count — the solver is deterministic, so any difference is
/// leaked search state).
#[test]
fn one_reset_solver_matches_enumeration_across_instances() {
    let mut rng = SmallRng::seed_from_u64(0x5E7);
    let mut solver = Solver::new();
    // Answers the solver held at each reset before a checked instance:
    // [Sat, Unsat, Unknown].
    let mut reset_after = [0usize; 3];
    let mut last = SatResult::Sat;
    for case in 0..300 {
        if case % 2 == 1 {
            solver.reset();
            load(&mut solver, &pigeonhole(3 + case % 3));
            last = solver.solve(&[], 1);
            assert_eq!(
                last,
                SatResult::Unknown,
                "case {case}: pigeonhole not starved"
            );
        }
        reset_after[match last {
            SatResult::Sat => 0,
            SatResult::Unsat => 1,
            SatResult::Unknown => 2,
        }] += 1;
        let cnf = random_cnf(&mut rng);
        solver.reset();
        let lits = load(&mut solver, &cnf);
        let mut fresh = Solver::new();
        load(&mut fresh, &cnf);
        // The full query first, then rounds of assumption queries.
        let mut queries: Vec<Vec<(usize, bool)>> = vec![Vec::new()];
        for _ in 0..3 {
            let nforce = rng.gen_range(1..=cnf.vars.min(4));
            queries.push(
                (0..nforce)
                    .map(|_| (rng.gen_range(0..cnf.vars), rng.gen_bool(0.5)))
                    .collect(),
            );
        }
        for (round, forced) in queries.iter().enumerate() {
            let assumptions: Vec<Lit> = forced
                .iter()
                .map(|&(v, value)| lits[v].xor_sign(!value))
                .collect();
            last = solver.solve(&assumptions, 1_000_000);
            assert_eq!(
                fresh.solve(&assumptions, 1_000_000),
                last,
                "case {case} round {round}: reset and fresh solvers disagree"
            );
            assert_eq!(
                solver.conflicts(),
                fresh.conflicts(),
                "case {case} round {round}: reset solver searched differently"
            );
            match (enumerate(&cnf, forced), last) {
                (Some(_), SatResult::Sat) => {
                    let bits = model_bits(&solver, &lits);
                    assert_eq!(
                        bits,
                        model_bits(&fresh, &lits),
                        "case {case} round {round}: reset solver found another model"
                    );
                    assert!(
                        cnf.clauses.iter().all(|c| clause_satisfied(c, bits))
                            && forced
                                .iter()
                                .all(|&(v, value)| (bits >> v & 1 == 1) == value),
                        "case {case} round {round}: model violates the CNF or assumptions"
                    );
                }
                (None, SatResult::Unsat) => {}
                (e, v) => panic!("case {case} round {round}: enumeration {e:?}, solver {v:?}"),
            }
        }
    }
    assert!(
        reset_after.iter().all(|&n| n > 20),
        "resets after [sat, unsat, unknown]: {reset_after:?}"
    );
}

#[test]
fn word_simulation_matches_scalar_on_seeded_networks() {
    for seed in 0..20u64 {
        let spec = RandomSpec::control(&format!("cec-oracle-{seed}"), 12, 5, 80, seed);
        let network = generate(&spec);
        let batches = wordsim::batches(network.inputs().len(), 4, seed ^ 0xBEEF);
        let sigs = wordsim::node_signatures(&network, &batches).expect("simulates");
        let rounds = batches.len();
        for (r, batch) in batches.iter().enumerate() {
            for lane in 0..64u32 {
                let vals = wordsim::lane_assignment(batch, lane);
                let expect = network.simulate(&vals).expect("scalar simulates");
                for (o, port) in network.outputs().iter().enumerate() {
                    let word = sigs[port.driver.index() * rounds + r];
                    assert_eq!(
                        word >> lane & 1 == 1,
                        expect[o],
                        "seed {seed} round {r} lane {lane} output {o}"
                    );
                }
            }
        }
    }
}

/// Internal nodes too, not only outputs — the signature classes the
/// sweep builds pair *internal* cones.
#[test]
fn internal_node_signatures_match_scalar_evaluation() {
    use soi_domino::netlist::Node;
    for seed in [3u64, 11, 17] {
        let spec = RandomSpec::control(&format!("cec-internal-{seed}"), 8, 3, 40, seed);
        let network = generate(&spec);
        let batches = wordsim::batches(network.inputs().len(), 2, seed);
        let sigs = wordsim::node_signatures(&network, &batches).expect("simulates");
        let rounds = batches.len();
        for (r, batch) in batches.iter().enumerate() {
            for lane in (0..64u32).step_by(7) {
                let vals = wordsim::lane_assignment(batch, lane);
                // Recompute every node scalar-style in topological order.
                let mut scalar: Vec<bool> = Vec::with_capacity(network.len());
                let mut next_input = 0;
                for (_, node) in network.iter() {
                    let v = match node {
                        Node::Input { .. } => {
                            let v = vals[next_input];
                            next_input += 1;
                            v
                        }
                        Node::Const { value } => *value,
                        Node::Unary { op, a } => op.eval(scalar[a.index()]),
                        Node::Binary { op, a, b } => op.eval(scalar[a.index()], scalar[b.index()]),
                    };
                    scalar.push(v);
                }
                for id in 0..network.len() {
                    let word = sigs[id * rounds + r];
                    assert_eq!(
                        word >> lane & 1 == 1,
                        scalar[id],
                        "seed {seed} round {r} lane {lane} node {id}"
                    );
                }
            }
        }
    }
}
