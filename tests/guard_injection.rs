//! The fault-injection suite: seeded corruption of every representation in
//! the flow — netlist graphs, BLIF byte streams, mapped domino circuits —
//! across a spread of registry benchmarks and seeds. The property under
//! test is uniform: **every effective corruption is caught by a typed error
//! or by the cross-stage audit; nothing panics; nothing passes silently.**

use soi_domino::cec::{CecOptions, CecPath};
use soi_domino::circuits::registry;
use soi_domino::domino::DominoCircuit;
use soi_domino::guard::{check_partial, check_pipeline, inject, AuditError, Pipeline, Stage};
use soi_domino::mapper::{MapConfig, MapError, Mapper, MappingResult, Parallelism};
use soi_domino::netlist::{blif, Network};
use soi_domino::pbe::bodysim::{BodySimConfig, BodySimulator};
use soi_domino::pbe::hazard;
use soi_domino::unate::OutputPhase;

/// Registry circuits exercised by every mutator (≥ 5 as required).
const CIRCUITS: &[&str] = &["cm150", "mux", "z4ml", "cordic", "frg1", "b9"];
/// Seeds per mutator per circuit (≥ 20 as required).
const SEEDS: u64 = 20;

#[test]
fn corrupted_networks_are_rejected_by_the_validate_stage() {
    let pipeline = Pipeline::new(Mapper::soi(MapConfig::default()));
    let mut injected = 0u32;
    for &name in CIRCUITS {
        let network = registry::benchmark(name).expect("registered benchmark");
        for seed in 0..SEEDS {
            let mutants = [
                ("dangling_fanin", inject::dangling_fanin(&network, seed)),
                ("forward_fanin", inject::forward_fanin(&network, seed)),
                ("dangling_output", inject::dangling_output(&network, seed)),
                ("break_topo_order", inject::break_topo_order(&network, seed)),
                (
                    "duplicate_input_name",
                    inject::duplicate_input_name(&network, seed),
                ),
            ];
            for (mutator, mutated) in mutants {
                let Some(m) = mutated else { continue };
                injected += 1;
                let err = pipeline
                    .run(&m)
                    .expect_err("a corrupted netlist must not map");
                assert_eq!(
                    err.stage,
                    Stage::NetlistValidate,
                    "{name} seed {seed} {mutator}: wrong stage"
                );
            }
        }
    }
    // Every circuit admits every mutator: 6 circuits x 20 seeds x 5 faults.
    assert_eq!(injected, 600);
}

#[test]
fn mutated_blif_never_panics_the_parser() {
    let mut parses_survived = 0u32;
    for &name in CIRCUITS {
        let network = registry::benchmark(name).expect("registered benchmark");
        let bytes = blif::write(&network).into_bytes();
        for seed in 0..SEEDS {
            let mutants = [
                inject::truncate_blif(&bytes, seed),
                inject::garble_blif(&bytes, seed),
                inject::drop_blif_line(&bytes, seed),
                inject::swap_blif_lines(&bytes, seed),
            ];
            for mutated in mutants.into_iter().flatten() {
                parses_survived += 1;
                let text = String::from_utf8_lossy(&mutated);
                // Must not panic; an Ok parse must be a valid network.
                if let Ok(parsed) = blif::parse(&text) {
                    parsed
                        .validate()
                        .expect("the parser must only produce valid networks");
                }
            }
        }
    }
    assert_eq!(parses_survived, 480); // 6 circuits x 20 seeds x 4 mutators
}

/// Swaps a mutated circuit into a mapping result, keeping the originally
/// reported counts (a tamperer would not fix the books).
fn with_circuit(result: &MappingResult, circuit: DominoCircuit) -> MappingResult {
    let mut tampered = result.clone();
    tampered.circuit = circuit;
    tampered
}

/// Asserts that the audit refutes a functional mutant with a
/// counterexample that really distinguishes the source and the mutant.
/// The books are fixed (an output inverter is counted, and a rewired
/// fanin can change the depth), so the proof is what must trip.
fn assert_refuted(network: &Network, result: &MappingResult, mutant: DominoCircuit, what: &str) {
    let mut tampered = with_circuit(result, mutant);
    tampered.counts = tampered.circuit.counts();
    match check_pipeline(network, &tampered, &CecOptions::default()) {
        Err(AuditError::NotEquivalent(cex)) => {
            let source = network.simulate(&cex.inputs).expect("simulates");
            let mapped = tampered.circuit.evaluate(&cex.inputs).expect("evaluates");
            assert_eq!(source[cex.output], cex.lhs, "{what}");
            assert_eq!(mapped[cex.output], cex.rhs, "{what}");
            assert_ne!(
                source, mapped,
                "{what}: the counterexample does not distinguish"
            );
        }
        verdict => panic!("{what}: expected a refutation, got {verdict:?}"),
    }
}

#[test]
fn corrupted_circuits_are_caught_by_audit_or_validation() {
    let opts = CecOptions::default();
    let mut injected = 0u32;
    let mut refuted = [0u32; 2];
    for &name in CIRCUITS {
        let network = registry::benchmark(name).expect("registered benchmark");
        for mapper in [
            Mapper::baseline(MapConfig::default()),
            Mapper::soi(MapConfig::default()),
        ] {
            let result = mapper.run(&network).expect("registry circuits map");
            let clean = check_pipeline(&network, &result, &opts)
                .unwrap_or_else(|e| panic!("{name}: the untampered mapping fails its audit: {e}"));
            assert_eq!(clean.path, CecPath::Certificate, "{name}");
            for seed in 0..SEEDS {
                if let Some(m) = inject::drop_discharge(&result.circuit, seed) {
                    injected += 1;
                    let verdict = check_pipeline(&network, &with_circuit(&result, m), &opts);
                    assert!(
                        matches!(verdict, Err(AuditError::Hazards { .. })),
                        "{name} seed {seed} drop_discharge: {verdict:?}"
                    );
                }
                if let Some(m) = inject::retarget_discharge(&result.circuit, seed) {
                    injected += 1;
                    let verdict = check_pipeline(&network, &with_circuit(&result, m), &opts);
                    assert!(
                        matches!(verdict, Err(AuditError::CircuitInvalid(_))),
                        "{name} seed {seed} retarget_discharge: {verdict:?}"
                    );
                }
                if let Some(m) = inject::flip_pdn_junction(&result.circuit, seed) {
                    injected += 1;
                    let verdict = check_pipeline(&network, &with_circuit(&result, m), &opts);
                    assert!(
                        matches!(
                            verdict,
                            Err(AuditError::Hazards { .. }) | Err(AuditError::CircuitInvalid(_))
                        ),
                        "{name} seed {seed} flip_pdn_junction: {verdict:?}"
                    );
                }
                if let Some((m, _witness)) = inject::retarget_fanin(&result.circuit, seed) {
                    injected += 1;
                    refuted[0] += 1;
                    assert_refuted(
                        &network,
                        &result,
                        m,
                        &format!("{name} seed {seed} retarget_fanin"),
                    );
                }
                if let Some(m) = inject::flip_output_inversion(&result.circuit, seed) {
                    injected += 1;
                    refuted[1] += 1;
                    assert_refuted(
                        &network,
                        &result,
                        m,
                        &format!("{name} seed {seed} flip_output_inversion"),
                    );
                }
            }
            if let Some(m) = inject::strip_protection(&result.circuit) {
                injected += 1;
                let verdict = check_pipeline(&network, &with_circuit(&result, m), &opts);
                assert!(
                    matches!(verdict, Err(AuditError::Hazards { .. })),
                    "{name} strip_protection: {verdict:?}"
                );
            }
        }
    }
    // Not every circuit admits every fault (the SOI mapper often needs no
    // discharge transistors at all), but the harness must have exercised a
    // substantial population, and every circuit admits both functional
    // faults: 6 circuits x 2 mappers x 20 seeds each.
    assert!(injected >= 200, "only {injected} circuit faults injected");
    assert_eq!(refuted, [240, 240]);
}

/// Every untampered registry mapping, under all three algorithms, passes
/// the audit, and its certificate decides the proof.
#[test]
fn untampered_registry_mappings_pass_the_audit_by_certificate() {
    for name in registry::names() {
        let network = registry::benchmark(name).expect("registered benchmark");
        for mapper in [
            Mapper::baseline(MapConfig::default()),
            Mapper::rearrange_stacks(MapConfig::default()),
            Mapper::soi(MapConfig::default()),
        ] {
            let algorithm = mapper.algorithm();
            let report = Pipeline::new(mapper)
                .run(&network)
                .unwrap_or_else(|e| panic!("{name} {algorithm:?}: {e}"));
            assert_eq!(
                report.cec.path,
                CecPath::Certificate,
                "{name} {algorithm:?}"
            );
        }
    }
}

/// The pipeline converts with the mapper's own output-phase policy: under
/// `OutputPhase::Cheapest` every registry circuit maps to the same circuit
/// through `Pipeline::run` as through `Mapper::run`.
#[test]
fn the_pipeline_maps_like_the_mapper_under_cheapest_output_phases() {
    let config = MapConfig {
        output_phase: OutputPhase::Cheapest,
        ..MapConfig::default()
    };
    for name in registry::names() {
        let network = registry::benchmark(name).expect("registered benchmark");
        let direct = Mapper::soi(config).run(&network).expect("maps");
        let report = Pipeline::new(Mapper::soi(config))
            .run(&network)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(direct.counts, report.result.counts, "{name}");
        assert!(direct.circuit == report.result.circuit, "{name}");
    }
}

/// The mapper-level fault injection: a seeded poisoned cone unit always
/// surfaces as a contained, typed `WorkerPanicked` naming exactly that
/// unit — on serial and parallel schedules alike — with an auditable
/// salvage whose resume maps bit-identically to a clean run. Never a
/// hang, never an abort, never a silent pass.
#[test]
fn poisoned_cone_units_are_contained_on_every_schedule() {
    let mut injected = 0u32;
    for &name in CIRCUITS {
        let network = registry::benchmark(name).expect("registered benchmark");
        let base = MapConfig::default();
        let clean = Mapper::soi(base).run(&network).expect("clean maps");
        for seed in 0..SEEDS {
            let Some((poisoned, unit)) = inject::poison_unit(&base, &network, seed) else {
                continue;
            };
            injected += 1;
            for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
                let config = MapConfig {
                    parallelism,
                    ..poisoned
                };
                let err = Mapper::soi(config)
                    .run(&network)
                    .expect_err("a poisoned unit must fail the run");
                let MapError::WorkerPanicked {
                    unit: failed,
                    payload,
                    partial,
                } = err
                else {
                    panic!("{name} seed {seed}: expected WorkerPanicked, got {err:?}");
                };
                assert_eq!(failed, unit, "{name} seed {seed}: wrong unit blamed");
                assert!(payload.contains("injected fault"), "{payload}");
                let partial = partial.expect("contained panics carry salvage");
                if let Err(e) = check_partial(&partial) {
                    panic!("{name} seed {seed}: salvage fails its audit: {e}");
                }
                assert!(partial.completed_units() < partial.total_units());

                let resumed = Mapper::soi(MapConfig {
                    poison_node: None,
                    ..config
                })
                .with_salvage(partial)
                .run(&network)
                .expect("the resumed run maps");
                assert_eq!(clean.counts, resumed.counts, "{name} seed {seed}");
                assert_eq!(
                    clean.degraded_nodes, resumed.degraded_nodes,
                    "{name} seed {seed}"
                );
                assert_eq!(
                    clean.peak_candidates, resumed.peak_candidates,
                    "{name} seed {seed}"
                );
                assert_eq!(
                    clean.combine_steps, resumed.combine_steps,
                    "{name} seed {seed}"
                );
            }
        }
    }
    // Every registry circuit has cone units to poison.
    assert_eq!(injected, 120); // 6 circuits x 20 seeds
}

#[test]
fn degradation_recovers_tight_limits_and_passes_the_audit() {
    // H_max = 1 forbids every AND stack: strictly unmappable.
    let cramped = MapConfig {
        w_max: 2,
        h_max: 1,
        ..MapConfig::default()
    };
    for &name in &["cm150", "z4ml", "b9"] {
        let network = registry::benchmark(name).expect("registered benchmark");
        let strict = Pipeline::new(Mapper::soi(cramped));
        let err = strict.run(&network).expect_err("H_max = 1 cannot map ANDs");
        assert_eq!(err.stage, Stage::Map, "{name}");
        assert!(matches!(
            err.failure,
            soi_domino::guard::StageFailure::Map(MapError::Unmappable { .. })
        ));

        let report = strict
            .with_degradation(true)
            .run(&network)
            .expect("degradation must recover the flow");
        assert!(report.degraded, "{name}: degradation must be recorded");
        assert!(report.result.is_degraded());
        // The audit ran inside the pipeline: validity, PBE coverage and
        // accounting hold for the degraded mapping, and its certificate
        // proves it equivalent.
        assert_eq!(report.cec.path, CecPath::Certificate, "{name}");
    }
}

#[test]
fn stripped_protection_misevaluates_under_bodysim() {
    // The paper's running example (a+b+c)*d through Domino_Map: the
    // bulk-typical stack orientation plus a post-inserted pre-discharge
    // transistor (Fig. 2). Stripping that transistor must (1) be flagged
    // statically by the hazard checker and (2) demonstrably mis-evaluate
    // under the §III-B body-state scenario, while the protected mapping
    // runs clean — the differential oracle.
    let mut n = soi_domino::netlist::Network::new("fig2a");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let d = n.add_input("d");
    let t1 = n.or2(a, b);
    let t2 = n.or2(t1, c);
    let f = n.and2(t2, d);
    n.add_output("f", f);

    let result = Mapper::baseline(MapConfig::default())
        .run(&n)
        .expect("maps");
    assert!(
        result.counts.discharge > 0,
        "the bulk-typical mapping needs protection"
    );
    assert!(hazard::is_safe(&result.circuit));

    let stripped = inject::strip_protection(&result.circuit).expect("protection is load-bearing");
    assert!(!hazard::is_safe(&stripped), "static checker must flag it");

    // §III-B drive: hold A high with D low (charges the parallel bodies),
    // drop A (the junction floats high), then fire D.
    let scenario: Vec<Vec<bool>> = vec![
        vec![true, false, false, false],
        vec![true, false, false, false],
        vec![true, false, false, false],
        vec![false, false, false, false],
        vec![false, false, false, true],
    ];

    let mut sim = BodySimulator::new(&result.circuit, BodySimConfig::default()).expect("valid");
    let protected_reports = sim.run(&scenario).expect("simulates");
    assert!(
        protected_reports.iter().all(|r| !r.misevaluated()),
        "the protected mapping must run clean"
    );

    let mut sim = BodySimulator::new(&stripped, BodySimConfig::default()).expect("valid");
    let stripped_reports = sim.run(&scenario).expect("simulates");
    let last = stripped_reports.last().unwrap();
    assert!(
        !last.pbe_events.is_empty(),
        "the parasitic device must conduct"
    );
    assert!(
        last.misevaluated(),
        "the stripped circuit must produce the wrong output"
    );
}
