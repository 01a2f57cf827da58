//! Dynamic PBE validation: the body-state simulator must show unprotected
//! baseline circuits mis-evaluating under adversarial input sequences, and
//! every properly mapped circuit running clean under the same stress.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soi_domino::circuits::registry;
use soi_domino::domino::{DominoCircuit, GateId};
use soi_domino::mapper::{MapConfig, Mapper};
use soi_domino::pbe::bodysim::{BodySimConfig, BodySimulator};

/// Strips every pre-discharge transistor from a circuit (the "what if we
/// shipped the bulk mapping unprotected" scenario).
fn strip_protection(circuit: &DominoCircuit) -> DominoCircuit {
    let mut stripped = circuit.clone();
    for idx in 0..stripped.gate_count() {
        stripped.set_discharge(GateId::from_index(idx), &[]);
    }
    stripped
}

/// Drives a circuit with an adversarial pattern: hold each vector for
/// several cycles (letting bodies charge), drop everything low, then fire
/// a fresh vector. Returns whether any cycle mis-evaluated.
fn stress(circuit: &DominoCircuit, seed: u64, rounds: usize) -> (bool, usize) {
    let mut sim = BodySimulator::new(circuit, BodySimConfig::default()).expect("valid circuit");
    let inputs = circuit.input_names().len();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut misevaluated = false;
    let mut events = 0;
    for _ in 0..rounds {
        let hold: Vec<bool> = (0..inputs).map(|_| rng.gen_bool(0.4)).collect();
        for _ in 0..4 {
            let r = sim.step(&hold).expect("arity");
            misevaluated |= r.misevaluated();
            events += r.pbe_events.len();
        }
        let quiet: Vec<bool> = vec![false; inputs];
        let r = sim.step(&quiet).expect("arity");
        misevaluated |= r.misevaluated();
        events += r.pbe_events.len();
        let fire: Vec<bool> = (0..inputs).map(|_| rng.gen_bool(0.5)).collect();
        let r = sim.step(&fire).expect("arity");
        misevaluated |= r.misevaluated();
        events += r.pbe_events.len();
    }
    (misevaluated, events)
}

#[test]
fn unprotected_baseline_fails_somewhere() {
    // Over a handful of circuits and seeds, the stripped baseline must
    // show at least one bipolar event — otherwise the simulator (or the
    // hazard model) is vacuous.
    let mut total_events = 0;
    let mut any_misevaluation = false;
    for (name, seed) in [("cm150", 11u64), ("frg1", 12), ("b9", 13), ("c432", 14)] {
        let network = registry::benchmark(name).expect("registered");
        let mapped = Mapper::baseline(MapConfig::default())
            .run(&network)
            .expect("maps");
        let stripped = strip_protection(&mapped.circuit);
        let (bad, events) = stress(&stripped, seed, 12);
        total_events += events;
        any_misevaluation |= bad;
    }
    assert!(
        total_events > 0,
        "no bipolar events on any stripped circuit"
    );
    assert!(
        any_misevaluation,
        "bipolar events fired but never corrupted an output"
    );
}

#[test]
fn protected_circuits_run_clean() {
    for (name, seed) in [("cm150", 21u64), ("frg1", 22), ("b9", 23), ("c432", 24)] {
        let network = registry::benchmark(name).expect("registered");
        for mapper in [
            Mapper::baseline(MapConfig::default()),
            Mapper::rearrange_stacks(MapConfig::default()),
            Mapper::soi(MapConfig::default()),
        ] {
            let mapped = mapper.run(&network).expect("maps");
            let (bad, events) = stress(&mapped.circuit, seed, 12);
            assert!(
                !bad && events == 0,
                "{:?} on {name}: {events} events, misevaluated={bad}",
                mapper.algorithm()
            );
        }
    }
}

#[test]
fn protection_reduces_hysteresis_exposure() {
    // §III-A / §I: keeping body voltages low also narrows the timing
    // hysteresis. Measure cumulative charged-body phases under identical
    // stress, protected vs stripped.
    let network = registry::benchmark("frg1").expect("registered");
    let mapped = Mapper::baseline(MapConfig::default())
        .run(&network)
        .expect("maps");
    let stripped = strip_protection(&mapped.circuit);

    let exposure = |circuit: &DominoCircuit| -> u64 {
        let mut sim = BodySimulator::new(circuit, BodySimConfig::default()).expect("valid circuit");
        let mut rng = SmallRng::seed_from_u64(77);
        let inputs = circuit.input_names().len();
        for _ in 0..30 {
            let hold: Vec<bool> = (0..inputs).map(|_| rng.gen_bool(0.4)).collect();
            for _ in 0..4 {
                sim.step(&hold).expect("arity");
            }
        }
        sim.hysteresis_exposure()
    };

    let protected = exposure(&mapped.circuit);
    let unprotected = exposure(&stripped);
    assert!(
        protected < unprotected,
        "discharge transistors should reduce charged-body time: {protected} !< {unprotected}"
    );
}

#[test]
fn fewer_discharge_transistors_same_protection() {
    // The SOI mapping protects with far fewer clock-loading devices; the
    // simulator confirms the protection is equivalent under stress.
    let network = registry::benchmark("b9").expect("registered");
    let base = Mapper::baseline(MapConfig::default())
        .run(&network)
        .unwrap();
    let soi = Mapper::soi(MapConfig::default()).run(&network).unwrap();
    assert!(soi.counts.discharge < base.counts.discharge);
    let (bad_base, ev_base) = stress(&base.circuit, 31, 10);
    let (bad_soi, ev_soi) = stress(&soi.circuit, 31, 10);
    assert!(!bad_base && ev_base == 0);
    assert!(!bad_soi && ev_soi == 0);
}
