//! Netlists hundreds of thousands of logic levels deep: mapping, the
//! certificate proof and the PBE-safety proof all run on the test
//! harness's default 2 MB thread stack, because no stage recurses once
//! per netlist level.

use soi_domino::cec::{check_mapped, verify_safe_sat, CecOptions, CecPath};
use soi_domino::mapper::{MapConfig, Mapper, Parallelism};
use soi_domino::netlist::{BinOp, Network};
use soi_domino::pbe::excite::InputConstraints;

/// A chain `levels` gates deep over 8 inputs: every gate reads the
/// previous one and the next input in turn, its kind taken in turn from
/// `kinds`.
fn chain(levels: usize, kinds: &[BinOp]) -> Network {
    let mut n = Network::new("deep-chain");
    let inputs: Vec<_> = (0..8).map(|i| n.add_input(format!("x{i}"))).collect();
    let mut acc = inputs[0];
    for level in 0..levels {
        let x = inputs[(level + 1) % inputs.len()];
        acc = n.binary(kinds[level % kinds.len()], acc, x);
    }
    n.add_output("f", acc);
    n
}

/// A 200,000-level AND/OR chain, and a 50,000-level XOR/XNOR chain:
/// every XOR or XNOR level needs both phases of the level below, so the
/// conversion builds its 100,000 unate levels through XOR frames.
#[test]
fn deep_chains_map_and_prove_on_the_default_stack() {
    maps_and_proves(&chain(200_000, &[BinOp::And, BinOp::Or]));
    maps_and_proves(&chain(50_000, &[BinOp::Xor, BinOp::Xnor]));
}

/// A 10,000-level XOR/XNOR chain maps to the same circuit on the forced
/// 2-thread level schedule as serially. Its cone partition is about two
/// units wide, so the walk crosses a barrier for nearly every unit.
#[test]
fn a_deep_narrow_partition_maps_identically_on_two_threads() {
    let network = chain(10_000, &[BinOp::Xor, BinOp::Xnor]);
    let run = |parallelism| {
        Mapper::soi(MapConfig {
            parallelism,
            ..MapConfig::default()
        })
        .run(&network)
        .expect("the chain maps")
    };
    let serial = run(Parallelism::Serial);
    let parallel = run(Parallelism::Threads(2));
    assert_eq!(parallel.threads_used, 2);
    assert_eq!(serial.counts, parallel.counts);
    assert_eq!(serial.combine_steps, parallel.combine_steps);
    assert!(serial.circuit == parallel.circuit, "the circuits differ");
}

/// Maps `network` with the default config on one thread, proves the
/// mapping by its certificate and proves it PBE-safe.
fn maps_and_proves(network: &Network) {
    let result = Mapper::soi(MapConfig::default())
        .run(network)
        .expect("the chain maps");
    assert!(result.circuit.gate_count() > 10_000, "{result}");
    // `Parallelism::Auto` keeps a partition this deep and narrow serial:
    // it has too few cone units per level to share out between barriers.
    assert_eq!(result.threads_used, 1);

    let opts = CecOptions::default();
    let report = check_mapped(network, &result.circuit, &opts).expect("the check runs");
    assert!(report.is_equivalent(), "{report:?}");
    assert_eq!(
        report.path,
        CecPath::Certificate,
        "no fallback to the sweep"
    );

    let safety = verify_safe_sat(
        &result.circuit,
        &InputConstraints::none(),
        opts.output_conflict_budget,
    );
    assert!(safety.safe && safety.unknown == 0, "{safety:?}");
}
