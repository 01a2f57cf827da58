//! Registry-wide equivalence sweeps and mutation-kill checks for the
//! `soi-cec` equivalence checker.
//!
//! Four claims, each over the whole `soi-circuits` registry:
//!
//! 1. every mapped circuit is provably equivalent to its source network,
//!    under the serial, parallel and memoized schedules, and its
//!    certificate decides it;
//! 2. `check_mapped` returns the SAT sweep's verdict under all three
//!    algorithms with duplication off and on, and on seeded networks;
//! 3. every structural netlist corruption from `guard::inject` is either
//!    rejected by the checker with a typed error, refuted with a
//!    confirmed counterexample, or proven a functional no-op — never
//!    silently accepted — and no forged certificate changes a verdict;
//! 4. the SAT formulation of PBE excitability agrees with the `pbe`
//!    crate's exact enumeration on every committed junction.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use soi_domino::cec::{
    check_mapped, check_networks, junction_excitability_sat, lower, verify_safe_sat, CecOptions,
    CecPath, CecVerdict,
};
use soi_domino::circuits::misc::random::{generate, RandomSpec};
use soi_domino::circuits::registry;
use soi_domino::domino::DominoCircuit;
use soi_domino::guard::inject;
use soi_domino::mapper::{MapConfig, Mapper, Parallelism};
use soi_domino::netlist::Network;
use soi_domino::pbe::excite::{
    junction_excitability, Excitability, ExciteConfig, InputConstraints,
};
use soi_domino::pbe::points;
use soi_domino::unate::OutputPhase;

fn schedules() -> [(&'static str, MapConfig); 3] {
    let base = MapConfig::default();
    [
        (
            "serial",
            MapConfig {
                parallelism: Parallelism::Serial,
                ..base
            },
        ),
        (
            "parallel",
            MapConfig {
                parallelism: Parallelism::Threads(2),
                ..base
            },
        ),
        (
            "memoized",
            MapConfig {
                parallelism: Parallelism::Threads(2),
                cone_cache_min_gates: 0,
                ..base
            },
        ),
    ]
}

/// Every registry circuit, mapped under every schedule, SAT-proves
/// equivalent to its source network with no unproven miters.
#[test]
fn registry_sweep_proves_mapped_equivalence_across_schedules() {
    let opts = CecOptions::default();
    for name in registry::names() {
        let network = registry::benchmark(name).expect("registry circuit exists");
        for (schedule, config) in schedules() {
            let result = Mapper::soi(config)
                .run(&network)
                .unwrap_or_else(|e| panic!("{name} maps under {schedule}: {e}"));
            let report = check_mapped(&network, &result.circuit, &opts)
                .unwrap_or_else(|e| panic!("{name} ({schedule}) checks: {e}"));
            assert!(
                report.is_equivalent(),
                "{name} ({schedule}): {:?}",
                report.verdict
            );
            assert_eq!(report.unproven(), 0, "{name} ({schedule}): unproven miters");
            assert_eq!(
                report.outputs_proved, report.outputs_total,
                "{name} ({schedule}): outputs not all proved"
            );
            assert_eq!(
                report.path,
                CecPath::Certificate,
                "{name} ({schedule}): the certificate did not decide"
            );
        }
    }
}

/// The three mapper constructors.
const MAPPERS: [fn(MapConfig) -> Mapper; 3] =
    [Mapper::baseline, Mapper::rearrange_stacks, Mapper::soi];

/// `check_mapped` and the SAT sweep on the lowered circuit agree on every
/// registry circuit and twenty seeded networks, under all three
/// algorithms with duplication off and on, and with the cheapest output
/// phases too; without duplication the certificate decides every one of
/// them.
#[test]
fn check_mapped_agrees_with_the_sweep() {
    let opts = CecOptions::default();
    let networks = registry::names()
        .into_iter()
        .map(|name| {
            let network = registry::benchmark(name).expect("registry circuit exists");
            (name.to_string(), network)
        })
        .chain((0..20u64).map(|seed| {
            let spec = RandomSpec::control(&format!("cert{seed}"), 16, 6, 160, seed);
            (format!("seed {seed}"), generate(&spec))
        }));
    let mut fallbacks = 0;
    for (name, network) in networks {
        let configs = [
            (false, OutputPhase::Positive),
            (true, OutputPhase::Positive),
        ]
        .into_iter()
        .chain([(false, OutputPhase::Cheapest)]);
        for make in MAPPERS {
            for (allow_duplication, output_phase) in configs.clone() {
                let result = make(MapConfig {
                    allow_duplication,
                    output_phase,
                    ..MapConfig::default()
                })
                .run(&network)
                .unwrap_or_else(|e| panic!("{name} maps: {e}"));
                let what = format!(
                    "{name} ({:?}, dup {allow_duplication}, {output_phase:?})",
                    result.algorithm
                );
                let report = check_mapped(&network, &result.circuit, &opts)
                    .unwrap_or_else(|e| panic!("{what} checks: {e}"));
                let lowered = lower::circuit_to_network(&result.circuit);
                let sweep = check_networks(&network, &lowered, &opts)
                    .unwrap_or_else(|e| panic!("{what} sweeps: {e}"));
                assert_eq!(report.verdict, sweep.verdict, "{what}: verdicts differ");
                assert!(report.is_equivalent(), "{what}: {:?}", report.verdict);
                assert_eq!(report.unproven(), 0, "{what}: unproven miters");
                if report.path == CecPath::Sweep {
                    assert!(allow_duplication, "{what}: default config fell back");
                    fallbacks += 1;
                }
            }
        }
    }
    // Duplication can splice a gate's cone into its consumer while the
    // consumer also reads that gate; the certificate cannot express this
    // and falls back. It does on a few registry mappings.
    assert!(
        fallbacks > 0,
        "no duplicated mapping exercised the fallback"
    );
}

type NetMutator = fn(&Network, u64) -> Option<Network>;

const NET_MUTATORS: [(&str, NetMutator); 5] = [
    ("dangling_fanin", inject::dangling_fanin),
    ("forward_fanin", inject::forward_fanin),
    ("dangling_output", inject::dangling_output),
    ("break_topo_order", inject::break_topo_order),
    ("duplicate_input_name", inject::duplicate_input_name),
];

/// Random input vectors for functional no-op proofs on circuits too wide
/// to enumerate.
fn sample_vectors(inputs: usize, samples: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..samples)
        .map(|_| (0..inputs).map(|_| rng.gen_bool(0.5)).collect())
        .collect()
}

/// Every netlist mutator's output is caught: by a typed validation error
/// from the checker, or by a confirmed counterexample — or, if the
/// checker calls it equivalent, the mutation is proven a functional
/// no-op by simulation. Silent acceptance of a real change is the only
/// losing outcome.
#[test]
fn netlist_mutations_are_caught_or_proven_noop() {
    let opts = CecOptions::default();
    let sources = ["count", "c8", "f51m", "9symml"];
    for source in sources {
        let network = registry::benchmark(source).expect("registry circuit exists");
        for (mutator_name, mutator) in NET_MUTATORS {
            let mut produced = 0;
            for seed in 0..8u64 {
                let Some(mutated) = mutator(&network, seed) else {
                    continue;
                };
                produced += 1;
                // The structural mutators all guarantee `validate()`
                // rejects their output, so the checker must refuse the
                // comparison rather than crash or mis-verdict.
                match check_networks(&network, &mutated, &opts) {
                    Err(_) => {}
                    Ok(report) => match report.verdict {
                        CecVerdict::NotEquivalent(_) => {}
                        CecVerdict::Equivalent => {
                            for vals in sample_vectors(network.inputs().len(), 64, seed) {
                                let lhs = network.simulate(&vals).expect("source simulates");
                                let rhs = mutated.simulate(&vals).expect("mutant simulates");
                                assert_eq!(
                                    lhs, rhs,
                                    "{source}/{mutator_name} seed {seed}: \
                                     claimed equivalent but differs"
                                );
                            }
                        }
                        CecVerdict::Undecided { unproven } => panic!(
                            "{source}/{mutator_name} seed {seed}: \
                             undecided with {unproven} open miters"
                        ),
                    },
                }
            }
            assert!(produced > 0, "{source}/{mutator_name}: mutator never fired");
        }
    }
}

type Forger = fn(&DominoCircuit, u64) -> Option<DominoCircuit>;

/// The certificate forgers: each corrupts a circuit's root table only.
const FORGERS: [(&str, Forger); 4] = [
    ("forge_root", inject::forge_root),
    ("swap_roots", inject::swap_roots),
    ("credit_root", inject::credit_root),
    ("truncate_roots", inject::truncate_roots),
];

/// `check_mapped` refutes `mutant` with a counterexample that really
/// distinguishes it from `network`, decided by the sweep.
fn assert_refuted(network: &Network, mutant: &DominoCircuit, what: &str) {
    let report = check_mapped(network, mutant, &CecOptions::default()).expect("comparable");
    match report.verdict {
        CecVerdict::NotEquivalent(ref cex) => {
            // The counterexample was already replay-confirmed inside the
            // checker; cross-check it against both sides anyway.
            let lhs = network.simulate(&cex.inputs).expect("simulates");
            let rhs = mutant.evaluate(&cex.inputs).expect("evaluates");
            assert_ne!(lhs, rhs, "{what}: cex does not distinguish");
        }
        ref v => panic!("{what}: not refuted: {v:?}"),
    }
    assert_eq!(report.path, CecPath::Sweep, "{what}: refuted off the sweep");
}

/// Circuit-level mutators: the fanin retarget and the flipped output
/// inversion are real functional changes and must be refuted with a
/// confirmed counterexample, whatever forged certificate rides along; the
/// protection-level mutators leave the logic function intact and the
/// checker must keep proving equivalence (they are caught by the PBE
/// safety stage, not by CEC), as it must for a correct circuit with a
/// forged certificate.
#[test]
fn circuit_mutations_are_refuted_or_proven_noop() {
    let opts = CecOptions::default();
    for source in ["count", "c8"] {
        circuit_mutations_on(source, &opts);
    }
}

fn circuit_mutations_on(source: &str, opts: &CecOptions) {
    let network = registry::benchmark(source).expect("registry circuit exists");
    let mapped = Mapper::soi(MapConfig {
        parallelism: Parallelism::Serial,
        ..MapConfig::default()
    })
    .run(&network)
    .expect("maps");

    let mut retargets = 0;
    for seed in 0..16u64 {
        let Some((mutant, witness)) = inject::retarget_fanin(&mapped.circuit, seed) else {
            continue;
        };
        retargets += 1;
        assert_refuted(
            &network,
            &mutant,
            &format!("{source} retarget_fanin seed {seed}"),
        );
        for (forger, forge) in FORGERS {
            if let Some(forged) = forge(&mutant, seed) {
                let what = format!("{source} retarget_fanin + {forger} seed {seed}");
                assert_refuted(&network, &forged, &what);
            }
        }
        // The injector's own witness vector must also distinguish.
        let lhs = network.simulate(&witness).expect("simulates");
        let rhs = mutant.evaluate(&witness).expect("evaluates");
        assert_ne!(
            lhs, rhs,
            "injector witness does not distinguish (seed {seed})"
        );
    }
    assert!(retargets > 0, "{source}: retarget_fanin never fired");

    for seed in 0..4u64 {
        let flipped = inject::flip_output_inversion(&mapped.circuit, seed).expect("has outputs");
        let what = format!("{source} flip_output_inversion seed {seed}");
        assert_refuted(&network, &flipped, &what);
    }

    // A correct circuit with a forged certificate still proves
    // equivalent, through the sweep.
    for (forger, forge) in FORGERS {
        for seed in 0..4u64 {
            let forged = forge(&mapped.circuit, seed).expect("mapped circuits carry roots");
            let report = check_mapped(&network, &forged, opts).expect("comparable");
            let what = format!("{source} {forger} seed {seed}");
            assert!(report.is_equivalent(), "{what}: {:?}", report.verdict);
            assert_eq!(
                report.path,
                CecPath::Sweep,
                "{what}: forged table certified"
            );
        }
    }

    let mut preserved: Vec<(&str, DominoCircuit)> = Vec::new();
    for seed in 0..8u64 {
        if let Some(c) = inject::drop_discharge(&mapped.circuit, seed) {
            preserved.push(("drop_discharge", c));
        }
        if let Some(c) = inject::retarget_discharge(&mapped.circuit, seed) {
            preserved.push(("retarget_discharge", c));
        }
    }
    if let Some(c) = inject::strip_protection(&mapped.circuit) {
        preserved.push(("strip_protection", c));
    }
    assert!(
        !preserved.is_empty(),
        "no protection-level mutants produced"
    );
    for (mutator_name, mutant) in &preserved {
        let report = check_mapped(&network, mutant, opts).expect("comparable");
        assert!(
            report.is_equivalent(),
            "{mutator_name}: protection change altered the logic function: {:?}",
            report.verdict
        );
    }
}

/// The SAT formulation of junction excitability agrees with the `pbe`
/// crate's verdicts on every committed junction of every mapped registry
/// circuit: exact-enumeration verdicts (`Excitable`/`ProvenSafe`) must
/// be reproduced verbatim, and sampling `Unknown`s may only be resolved,
/// never contradicted.
#[test]
fn pbe_sat_agrees_with_enumeration_on_every_registry_circuit() {
    let constraints = InputConstraints::none();
    let config = ExciteConfig::default();
    let budget = 1_000_000;
    let map_config = MapConfig {
        parallelism: Parallelism::Serial,
        ..MapConfig::default()
    };
    let mut junctions = 0usize;
    for name in registry::names() {
        let network = registry::benchmark(name).expect("registry circuit exists");
        let mapped = Mapper::soi(map_config)
            .run(&network)
            .unwrap_or_else(|e| panic!("{name} maps: {e}"));
        for (gate_id, gate) in mapped.circuit.iter() {
            for junction in points::analyze(gate.pdn()).committed {
                junctions += 1;
                let by_enum = junction_excitability(gate, &junction, &constraints, &config);
                let by_sat = junction_excitability_sat(gate, &junction, &constraints, budget);
                match by_enum {
                    Excitability::Excitable | Excitability::ProvenSafe => assert_eq!(
                        by_sat, by_enum,
                        "{name} gate {gate_id} junction {junction}: SAT diverges"
                    ),
                    // Sampling gave up; the complete method may answer
                    // either way but must not itself give up with this
                    // budget on gate-sized formulas.
                    Excitability::Unknown => assert_ne!(
                        by_sat,
                        Excitability::Unknown,
                        "{name} gate {gate_id} junction {junction}: SAT also unknown"
                    ),
                }
            }
        }
        // Circuit-level verdicts line up too (protected circuits: both
        // sides must call the mapped result safe).
        let by_enum = soi_domino::pbe::excite::verify_safe(&mapped.circuit, &constraints, &config);
        let by_sat = verify_safe_sat(&mapped.circuit, &constraints, budget);
        assert_eq!(
            by_enum, by_sat.safe,
            "{name}: circuit-level verdicts differ"
        );
        assert!(by_sat.safe, "{name}: mapped circuit flagged unsafe");
    }
    assert!(junctions > 0, "registry produced no committed junctions");
}
