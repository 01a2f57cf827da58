//! Property-based checks of the equivalence checker against the scalar
//! simulator, the one source of truth everything else in the workspace
//! trusts. The Tseitin CNF encoder round-trips: a random network is
//! encoded, the solver is run with every primary input forced through
//! assumptions, and the decoded output literals must equal
//! `Network::simulate`, which pins the encoder's gate semantics (all
//! eight kinds, constants, strashed sharing). And the whole sweep agrees
//! with exhaustive simulation on random network pairs.

use proptest::prelude::*;
use soi_domino::cec::{check_networks, CecOptions, CecVerdict, Encoder, SatResult};
use soi_domino::netlist::{restructure, sim, BinOp, Network, NodeId};

/// A recipe for one random gate: operation selector and two fanin picks
/// (the same shape as `tests/properties.rs`, plus constant nodes so the
/// encoder's folding paths get exercised).
#[derive(Debug, Clone)]
struct GateRecipe {
    op: u8,
    a: prop::sample::Index,
    b: prop::sample::Index,
}

fn gate_recipe() -> impl Strategy<Value = GateRecipe> {
    (
        0u8..9,
        any::<prop::sample::Index>(),
        any::<prop::sample::Index>(),
    )
        .prop_map(|(op, a, b)| GateRecipe { op, a, b })
}

fn build_network(inputs: usize, recipes: &[GateRecipe], outputs: usize) -> Network {
    let mut n = Network::new("cec-prop");
    let mut pool: Vec<NodeId> = (0..inputs).map(|i| n.add_input(format!("i{i}"))).collect();
    for r in recipes {
        let a = pool[r.a.index(pool.len())];
        let b = pool[r.b.index(pool.len())];
        let id = match r.op {
            0 => n.binary(BinOp::And, a, b),
            1 => n.binary(BinOp::Or, a, b),
            2 => n.binary(BinOp::Nand, a, b),
            3 => n.binary(BinOp::Nor, a, b),
            4 => n.binary(BinOp::Xor, a, b),
            5 => n.binary(BinOp::Xnor, a, b),
            6 => n.inv(a),
            7 => n.add_const(r.b.index(2) == 1),
            _ => n.buf(a),
        };
        pool.push(id);
    }
    for k in 0..outputs {
        let driver = pool[pool.len() - 1 - (k * 3) % pool.len().min(17)];
        n.add_output(format!("o{k}"), driver);
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode → force every PI by assumption → decoded outputs equal the
    /// scalar simulation, on every assignment of a small input space.
    #[test]
    fn cnf_encoding_round_trips_through_the_solver(
        recipes in prop::collection::vec(gate_recipe(), 1..40),
        inputs in 1usize..6,
    ) {
        let network = build_network(inputs, &recipes, 2);
        let mut enc = Encoder::new();
        let in_lits: Vec<_> = (0..inputs).map(|_| enc.fresh()).collect();
        let lits = enc.encode_network(&network, &in_lits).expect("encodes");

        for bits in 0u32..(1 << inputs) {
            let vals: Vec<bool> = (0..inputs).map(|k| bits >> k & 1 == 1).collect();
            let assumptions: Vec<_> = in_lits
                .iter()
                .zip(&vals)
                .map(|(&l, &v)| l.xor_sign(!v))
                .collect();
            // The formula is a pure function of the PIs: with every PI
            // pinned it must be satisfiable, in exactly one way on the
            // output literals.
            let verdict = enc.solve(&assumptions, 1_000_000);
            prop_assert_eq!(verdict, SatResult::Sat, "inputs {:?} unexpectedly unsat", vals);
            let expect = network.simulate(&vals).expect("simulates");
            for (o, &lit) in lits.outputs.iter().enumerate() {
                prop_assert_eq!(
                    enc.model_value(lit),
                    expect[o],
                    "output {} differs on inputs {:?}",
                    o,
                    vals
                );
            }
        }
    }

    /// The dual direction: constraining an output to the *wrong* value
    /// while all PIs are pinned must be unsatisfiable — the encoding has
    /// no slack assignments.
    #[test]
    fn forced_miscompares_are_unsatisfiable(
        recipes in prop::collection::vec(gate_recipe(), 1..30),
        inputs in 1usize..6,
        bits in any::<u32>(),
    ) {
        let network = build_network(inputs, &recipes, 1);
        let mut enc = Encoder::new();
        let in_lits: Vec<_> = (0..inputs).map(|_| enc.fresh()).collect();
        let lits = enc.encode_network(&network, &in_lits).expect("encodes");

        let vals: Vec<bool> = (0..inputs).map(|k| bits >> k & 1 == 1).collect();
        let expect = network.simulate(&vals).expect("simulates");
        let mut assumptions: Vec<_> = in_lits
            .iter()
            .zip(&vals)
            .map(|(&l, &v)| l.xor_sign(!v))
            .collect();
        // Assume the output at the complement of its true value.
        assumptions.push(lits.outputs[0].xor_sign(expect[0]));
        prop_assert_eq!(enc.solve(&assumptions, 1_000_000), SatResult::Unsat);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `check_networks` says `Equivalent` exactly when exhaustive
    /// simulation does, and every counterexample it returns really
    /// distinguishes the pair. The pairs are equal by construction
    /// (a restructured copy), unequal by construction (an inverted
    /// output, or one output flipped on a single seeded assignment), or
    /// either (one gate's operation changed, or an unrelated network over
    /// the same inputs). Each pair is checked twice: with the default
    /// options, and with no random simulation rounds, so that a
    /// difference the guided vectors miss must be found by SAT.
    #[test]
    fn check_networks_agrees_with_exhaustive_simulation(
        recipes in prop::collection::vec(gate_recipe(), 1..40),
        other in prop::collection::vec(gate_recipe(), 1..40),
        inputs in 1usize..10,
        pairing in 0u8..5,
        seed in any::<u64>(),
    ) {
        let a = build_network(inputs, &recipes, 2);
        let b = match pairing {
            0 => restructure::reassociate(&a, seed),
            1 => {
                let mut b = build_network(inputs, &recipes, 2);
                let inverted = b.inv(b.outputs()[0].driver);
                b.set_output_driver_unchecked(0, inverted);
                b
            }
            2 => {
                let mut b = build_network(inputs, &recipes, 2);
                let ins = b.inputs().to_vec();
                let mut minterm = b.add_const(true);
                for (k, &i) in ins.iter().enumerate() {
                    let lit = if seed >> k & 1 == 1 { i } else { b.inv(i) };
                    minterm = b.and2(minterm, lit);
                }
                let port = (seed >> 32) as usize % 2;
                let flipped = b.xor2(b.outputs()[port].driver, minterm);
                b.set_output_driver_unchecked(port, flipped);
                b
            }
            3 => {
                let mut changed = recipes.clone();
                let k = seed as usize % changed.len();
                changed[k].op = (changed[k].op + 1) % 9;
                build_network(inputs, &changed, 2)
            }
            _ => build_network(inputs, &other, 2),
        };
        let exact = sim::exhaustive_equivalent(&a, &b).expect("same arity");
        let sat_heavy = CecOptions { sim_rounds: 0, ..CecOptions::default() };
        for opts in [CecOptions::default(), sat_heavy] {
            let report = check_networks(&a, &b, &opts).expect("comparable");
            match report.verdict {
                CecVerdict::Equivalent => prop_assert!(exact, "proved equal, simulation differs"),
                CecVerdict::NotEquivalent(cex) => {
                    prop_assert!(!exact, "refuted, simulation agrees everywhere");
                    let lhs = a.simulate(&cex.inputs).expect("simulates");
                    let rhs = b.simulate(&cex.inputs).expect("simulates");
                    prop_assert_eq!(lhs[cex.output], cex.lhs);
                    prop_assert_eq!(rhs[cex.output], cex.rhs);
                    prop_assert_ne!(cex.lhs, cex.rhs);
                }
                CecVerdict::Undecided { unproven } => {
                    prop_assert!(false, "{} output(s) unproven on a tiny pair", unproven);
                }
            }
        }
    }
}
