//! Walks through the paper's §III-B failure scenario on the `(A+B+C)*D`
//! gate of Fig. 2(a), with the floating-body simulator narrating every
//! cycle — first unprotected (wrong output), then with the pre-discharge
//! transistor of Fig. 2(c) (clean), then with the reordered stack of
//! §III-C item 4 (clean without any extra device).
//!
//! Run with `cargo run --example pbe_demo`.

use soi_domino::domino::{DominoCircuit, GateId, JunctionRef, Pdn, Signal};
use soi_domino::pbe::bodysim::{BodySimConfig, BodySimulator};

fn fig2a(stack_on_top: bool) -> DominoCircuit {
    let stack = Pdn::parallel(vec![
        Pdn::transistor(Signal::input(0)),
        Pdn::transistor(Signal::input(1)),
        Pdn::transistor(Signal::input(2)),
    ]);
    let d = Pdn::transistor(Signal::input(3));
    let pdn = if stack_on_top {
        Pdn::series(vec![stack, d])
    } else {
        Pdn::series(vec![d, stack])
    };
    DominoCircuit::single_gate(vec!["a".into(), "b".into(), "c".into(), "d".into()], pdn)
}

fn drive(name: &str, circuit: &DominoCircuit) {
    println!("--- {name} ---");
    let mut sim = BodySimulator::new(circuit, BodySimConfig::default()).expect("valid circuit");
    // The §III-B sequence: hold A=1 with D=0 (node 1 charges, the bodies
    // of B and C float up), release A, then fire D alone.
    let script: &[(&str, [bool; 4])] = &[
        ("hold A=1, D=0", [true, false, false, false]),
        ("hold A=1, D=0", [true, false, false, false]),
        ("hold A=1, D=0", [true, false, false, false]),
        ("release A", [false, false, false, false]),
        ("fire D alone", [false, false, false, true]),
    ];
    for (label, inputs) in script {
        let report = sim.step(&inputs[..]).expect("input arity matches");
        let verdict = if report.misevaluated() {
            "WRONG (parasitic bipolar discharge!)"
        } else {
            "ok"
        };
        println!(
            "cycle {}: {label:16} out={} ideal={} events={} charged_bodies={} -> {verdict}",
            report.cycle,
            u8::from(report.outputs[0]),
            u8::from(report.ideal_outputs[0]),
            report.pbe_events.len(),
            sim.charged_bodies(),
        );
    }
    println!();
}

fn main() {
    println!("Parasitic Bipolar Effect demonstration (paper §III-B)\n");
    println!("Gate: f = (a + b + c) * d in SOI domino\n");

    // 1. The bulk-CMOS-typical structure, unprotected.
    let unprotected = fig2a(true);
    drive(
        "parallel stack on top, NO discharge transistor",
        &unprotected,
    );

    // 2. Same structure with the pre-discharge transistor of Fig. 2(c).
    let mut protected = fig2a(true);
    protected.add_discharge(GateId::from_index(0), JunctionRef::new(0, 0));
    drive("parallel stack on top + p-discharge on node 1", &protected);

    // 3. The reordering fix: stack at the bottom needs nothing.
    let reordered = fig2a(false);
    drive("parallel stack moved to ground (free fix)", &reordered);

    println!("This is exactly what the mappers automate: Domino_Map ships");
    println!("structure 2 (one extra clocked device per hazard), while");
    println!("SOI_Domino_Map finds structure 3 during technology mapping.");
}
