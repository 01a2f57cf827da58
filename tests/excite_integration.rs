//! Excitability pruning (the §VII future-work extension) applied to fully
//! mapped benchmark circuits: `soi_cec::prune_discharge` decides each
//! device by SAT and `verify_safe_sat` proves the result.

use soi_domino::cec::{check_mapped, prune_discharge, verify_safe_sat, CecOptions};
use soi_domino::circuits::registry;
use soi_domino::domino::GateId;
use soi_domino::mapper::{MapConfig, Mapper};
use soi_domino::pbe::excite::{ConstraintError, InputConstraints};

/// Conflict budget per excitability query: gate-sized formulas never
/// come near it.
const BUDGET: u64 = 1_000_000;

#[test]
fn tied_off_enable_prunes_everything_behind_it() {
    // cm150 is a 16:1 mux with an enable pin. If the design guarantees
    // `en` stays low (a disabled sub-block), no path from the dynamic node
    // through the enable can ever charge an internal junction of the
    // gated cone.
    let network = registry::benchmark("cm150").expect("registered");
    let mapped = Mapper::baseline(MapConfig::default())
        .run(&network)
        .unwrap();
    let mut circuit = mapped.circuit;
    let before = circuit.counts().discharge;
    assert!(before > 0, "baseline cm150 should need protection");

    let en_index = circuit
        .input_names()
        .iter()
        .position(|n| n == "en")
        .expect("cm150 has an enable input");
    let constraints = InputConstraints::none().with_fixed(en_index, false);
    let removed = prune_discharge(&mut circuit, &constraints, BUDGET).unwrap();
    assert!(removed > 0, "the enable gates protected junctions");
    let after = circuit.counts().discharge;
    assert_eq!(after, before - removed);
    let safety = verify_safe_sat(&circuit, &constraints, BUDGET);
    assert!(safety.safe, "{safety:?}");
}

#[test]
fn unconstrained_pruning_never_removes_needed_protection() {
    for name in ["cm150", "z4ml", "frg1", "c432"] {
        let network = registry::benchmark(name).expect("registered");
        for mapper in [
            Mapper::baseline(MapConfig::default()),
            Mapper::soi(MapConfig::default()),
        ] {
            let mapped = mapper.run(&network).unwrap();
            let mut circuit = mapped.circuit;
            let before = circuit.counts().discharge;
            let removed = prune_discharge(&mut circuit, &InputConstraints::none(), BUDGET).unwrap();
            // Worst-case committed points are excitable by construction;
            // pruning without knowledge must be a no-op.
            assert_eq!(removed, 0, "{name}: pruned {removed} of {before}");
        }
    }
}

#[test]
fn pruned_circuit_still_computes_the_function() {
    let network = registry::benchmark("cm150").expect("registered");
    let mapped = Mapper::baseline(MapConfig::default())
        .run(&network)
        .unwrap();
    let mut circuit = mapped.circuit;
    let en_index = circuit
        .input_names()
        .iter()
        .position(|n| n == "en")
        .expect("enable input");
    prune_discharge(
        &mut circuit,
        &InputConstraints::none().with_fixed(en_index, false),
        BUDGET,
    )
    .unwrap();
    circuit.validate().unwrap();
    // Discharge devices never affect the boolean function.
    let report = check_mapped(&network, &circuit, &CecOptions::default()).unwrap();
    assert!(report.is_equivalent(), "{:?}", report.verdict);
}

/// Constraint sets that no input assignment satisfies are rejected.
/// Pruning `cm150`'s `Domino_Map` devices under one removes nothing and
/// leaves the circuit untouched (before `InputConstraints::check`, an input
/// tied both ways and two tied-high inputs in one mutex each removed all
/// of them), and once the devices are stripped by hand, `verify_safe_sat`
/// counts every uncovered junction as unknown instead of proving it safe.
#[test]
fn unsatisfiable_constraints_prove_nothing() {
    let network = registry::benchmark("cm150").expect("registered");
    let mapped = Mapper::baseline(MapConfig::default())
        .run(&network)
        .unwrap();
    let devices = mapped.circuit.counts().discharge as usize;
    assert!(devices > 0, "baseline cm150 should need protection");
    let inputs = mapped.circuit.input_names().len();
    let mut stripped = mapped.circuit.clone();
    for idx in 0..stripped.gate_count() {
        stripped.set_discharge(GateId::from_index(idx), &[]);
    }
    let none = InputConstraints::none();
    for (constraints, error) in [
        (
            none.clone().with_fixed(0, true).with_fixed(0, false),
            ConstraintError::FixedBothWays { input: 0 },
        ),
        (
            none.clone()
                .with_fixed(0, true)
                .with_fixed(1, true)
                .with_mutex(vec![0, 1]),
            ConstraintError::MutexFixedHigh { group: 0, high: 2 },
        ),
        (
            none.clone().with_fixed(inputs, false),
            ConstraintError::InputOutOfRange {
                input: inputs,
                inputs,
            },
        ),
    ] {
        let mut circuit = mapped.circuit.clone();
        assert_eq!(
            prune_discharge(&mut circuit, &constraints, BUDGET),
            Err(error)
        );
        assert!(
            circuit == mapped.circuit,
            "a rejected set changed the circuit"
        );
        let safety = verify_safe_sat(&stripped, &constraints, BUDGET);
        assert!(!safety.safe, "{constraints:?}: {safety:?}");
        assert_eq!(safety.junctions_checked, devices);
        assert_eq!(safety.unknown, devices);
        assert_eq!(safety.sat_calls, 0);
    }

    // One input of a mutex tied high is satisfiable: pruning runs, and
    // what it leaves is proven safe.
    let one_high = none.with_fixed(0, true).with_mutex(vec![0, 1]);
    assert_eq!(one_high.check(inputs), Ok(()));
    let mut circuit = mapped.circuit.clone();
    let removed = prune_discharge(&mut circuit, &one_high, BUDGET).unwrap();
    assert_eq!(
        circuit.counts().discharge as usize,
        devices - removed as usize
    );
    assert!(verify_safe_sat(&circuit, &one_high, BUDGET).safe);
}
