//! Property-based tests over the whole flow: random networks are converted,
//! mapped and verified; random pull-down structures obey the
//! discharge-point algebra's invariants.

use proptest::prelude::*;
use soi_domino::domino::{Pdn, Signal};
use soi_domino::mapper::{AndOrder, MapConfig, Mapper};
use soi_domino::netlist::{sim, BinOp, Network, NodeId};
use soi_domino::pbe::{hazard, points, rearrange};
use soi_domino::unate::{convert, Options};

/// A recipe for one random gate: operation selector and two fanin picks.
#[derive(Debug, Clone)]
struct GateRecipe {
    op: u8,
    a: prop::sample::Index,
    b: prop::sample::Index,
}

fn gate_recipe() -> impl Strategy<Value = GateRecipe> {
    (
        0u8..7,
        any::<prop::sample::Index>(),
        any::<prop::sample::Index>(),
    )
        .prop_map(|(op, a, b)| GateRecipe { op, a, b })
}

fn build_network(inputs: usize, recipes: &[GateRecipe], outputs: usize) -> Network {
    let mut n = Network::new("prop");
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
            _ => n.inv(a),
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

    /// The unate conversion is always inverter-free and functionally
    /// equivalent to the source network.
    #[test]
    fn unate_conversion_is_sound(
        recipes in prop::collection::vec(gate_recipe(), 1..60),
        inputs in 2usize..8,
        outputs in 1usize..4,
    ) {
        let n = build_network(inputs, &recipes, outputs);
        let u = convert(&n, &Options::default()).expect("converts");
        prop_assert!(u.is_inverter_free());
        prop_assert!(sim::exhaustive_equivalent(&n, &u.to_network()).expect("simulates"));
    }

    /// Every mapper produces a PBE-safe circuit that computes the same
    /// function as the source network.
    #[test]
    fn mapping_is_sound(
        recipes in prop::collection::vec(gate_recipe(), 1..40),
        inputs in 2usize..7,
        algorithm in 0u8..3,
        seed in any::<u64>(),
    ) {
        let n = build_network(inputs, &recipes, 2);
        let mapper = match algorithm {
            0 => Mapper::baseline(MapConfig::default()),
            1 => Mapper::rearrange_stacks(MapConfig::default()),
            _ => Mapper::soi(MapConfig::default()),
        };
        let result = mapper.run(&n).expect("maps");
        prop_assert!(hazard::is_safe(&result.circuit));
        result.circuit.validate().expect("valid");

        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for _ in 0..16 {
            let v: Vec<bool> = (0..inputs).map(|_| rng.gen()).collect();
            prop_assert_eq!(
                result.circuit.evaluate(&v).expect("evaluates"),
                n.simulate(&v).expect("simulates")
            );
        }
    }

    /// With the roomiest Pareto cap the default limits admit, the
    /// exhaustive AND order never does worse than the paper heuristic (its
    /// candidate sets are supersets at every node; a cap that binds can
    /// break this, which is why the cap is an ablation knob — on these
    /// small networks the largest admitted cap maps exactly as an
    /// unbounded one would).
    #[test]
    fn exhaustive_order_dominates_heuristic(
        recipes in prop::collection::vec(gate_recipe(), 1..30),
        inputs in 2usize..6,
    ) {
        let n = build_network(inputs, &recipes, 1);
        let base = MapConfig::default();
        let roomy = MapConfig {
            max_candidates: MapConfig::MAX_NODE_CANDIDATES / (base.w_max * base.h_max) as usize,
            ..base
        };
        let heuristic = Mapper::soi(roomy).run(&n).expect("maps");
        let exhaustive = Mapper::soi(MapConfig {
            and_order: AndOrder::Exhaustive,
            ..roomy
        })
        .run(&n)
        .expect("maps");
        prop_assert!(exhaustive.counts.total <= heuristic.counts.total);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Restructuring rewrites preserve the function on random networks.
    #[test]
    fn restructure_preserves_function(
        recipes in prop::collection::vec(gate_recipe(), 1..50),
        inputs in 2usize..7,
        seed in any::<u64>(),
        probability in 0.0f64..1.0,
    ) {
        use soi_domino::netlist::restructure;
        let n = build_network(inputs, &recipes, 2);
        let r = restructure::reassociate(&n, seed);
        prop_assert!(sim::random_equivalent(&n, &r, 4, seed).expect("arity"));
        let d = restructure::distribute(&n, probability, seed);
        prop_assert!(sim::random_equivalent(&n, &d, 4, seed ^ 1).expect("arity"));
        let s = restructure::synthesize_like(&n, probability, seed);
        prop_assert!(sim::random_equivalent(&n, &s, 4, seed ^ 2).expect("arity"));
    }
}

/// Strategy for random pull-down trees.
fn pdn_strategy() -> impl Strategy<Value = Pdn> {
    let leaf = (0usize..6).prop_map(|i| Pdn::transistor(Signal::input(i)));
    leaf.prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Pdn::series),
            prop::collection::vec(inner, 2..4).prop_map(Pdn::parallel),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Committed and potential points always partition the internal
    /// junction nets of a PDN.
    #[test]
    fn discharge_points_partition_junctions(pdn in pdn_strategy()) {
        let analysis = points::analyze(&pdn);
        let graph = pdn.flatten();
        let junctions = graph.junctions().count();
        prop_assert_eq!(
            analysis.committed.len() + analysis.potential.len(),
            junctions
        );
        for j in analysis.committed.iter().chain(&analysis.potential) {
            prop_assert!(graph.junction_net(j).is_some());
        }
    }

    /// Stack rearrangement never increases the grounded discharge count
    /// and preserves the boolean function.
    #[test]
    fn rearrange_is_sound(pdn in pdn_strategy(), bits in 0u64..64) {
        let before = points::analyze(&pdn).grounded_count();
        let better = rearrange::rearrange_pdn(&pdn, true);
        let after = points::analyze(&better).grounded_count();
        prop_assert!(after <= before);

        let value = |s: Signal| match s {
            Signal::Input { index, phase } => phase.apply(bits & (1 << index) != 0),
            Signal::Gate(_) => unreachable!(),
        };
        prop_assert_eq!(pdn.conducts(&value), better.conducts(&value));
    }

    /// Width, height and transistor count are invariant under
    /// rearrangement.
    #[test]
    fn rearrange_preserves_shape_metrics(pdn in pdn_strategy()) {
        let better = rearrange::rearrange_pdn(&pdn, true);
        prop_assert_eq!(pdn.transistor_count(), better.transistor_count());
        prop_assert_eq!(pdn.width(), better.width());
        prop_assert_eq!(pdn.height(), better.height());
    }

    /// `conducts` on the tree agrees with path connectivity on the
    /// flattened graph.
    #[test]
    fn flatten_preserves_conduction(pdn in pdn_strategy(), bits in 0u64..64) {
        let value = |s: Signal| match s {
            Signal::Input { index, phase } => phase.apply(bits & (1 << index) != 0),
            Signal::Gate(_) => unreachable!(),
        };
        let tree = pdn.conducts(&value);

        // Union-find over conducting devices on the flattened graph.
        let graph = pdn.flatten();
        let nets = graph.net_count();
        let mut parent: Vec<usize> = (0..nets).collect();
        fn find(p: &mut [usize], mut x: usize) -> usize {
            while p[x] != x {
                p[x] = p[p[x]];
                x = p[x];
            }
            x
        }
        for t in &graph.transistors {
            if value(t.signal) {
                let a = find(&mut parent, t.upper.index());
                let b = find(&mut parent, t.lower.index());
                parent[a.max(b)] = a.min(b);
            }
        }
        let connected = find(&mut parent, 0) == find(&mut parent, 1);
        prop_assert_eq!(tree, connected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Seeded byte- and line-level mutations of a well-formed BLIF file
    /// never panic the parser, and whenever the parser still says `Ok`,
    /// the network it hands back passes validation. (The same mutators are
    /// exercised deterministically in `tests/guard_injection.rs`; here the
    /// *inputs* are also randomized.)
    #[test]
    fn blif_parser_survives_mutation(
        inputs in 2usize..6,
        recipes in prop::collection::vec(gate_recipe(), 1..24),
        seed in any::<u64>(),
        mode in 0u8..4,
    ) {
        use soi_domino::guard::inject;
        use soi_domino::netlist::blif;

        let n = build_network(inputs, &recipes, 2);
        let bytes = blif::write(&n).into_bytes();
        let mutated = match mode {
            0 => inject::truncate_blif(&bytes, seed),
            1 => inject::garble_blif(&bytes, seed),
            2 => inject::drop_blif_line(&bytes, seed),
            _ => inject::swap_blif_lines(&bytes, seed),
        };
        if let Some(m) = mutated {
            prop_assert_ne!(&m, &bytes, "a mutator must change the bytes");
            let text = String::from_utf8_lossy(&m);
            if let Ok(parsed) = blif::parse(&text) {
                prop_assert!(parsed.validate().is_ok(),
                    "an Ok parse must be a valid network");
            }
        }
    }
}
