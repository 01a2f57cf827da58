//! The hardened mapping flow: staged pipeline, typed stage errors, resource
//! guards, graceful degradation, and the cross-stage audit that proves
//! every mapping.
//!
//! Run with `cargo run --release --example hardened_flow`.

use soi_domino::circuits::registry;
use soi_domino::guard::{check_pipeline, inject, Pipeline, StageError};
use soi_domino::mapper::{Limits, MapConfig, Mapper};
use soi_domino::netlist::Network;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- 1. A healthy circuit sails through every stage, audited. --------
    let network = registry::benchmark("cm150").expect("registered benchmark");
    let pipeline = Pipeline::new(Mapper::soi(MapConfig::default()));
    let report = pipeline.run(&network)?;
    println!("cm150 through the hardened flow:");
    println!("  {}", report.result);
    println!(
        "  audit: valid, protected, counts consistent, proved equivalent via {:?} \
         ({} SAT calls)",
        report.cec.path, report.cec.sat_calls
    );

    // ---- 2. A corrupted netlist is rejected with a typed stage error. ----
    let corrupted = inject::dangling_fanin(&network, 42).expect("cm150 has gates");
    match pipeline.run(&corrupted) {
        Err(StageError { stage, failure, .. }) => {
            println!("\ninjected dangling fanin: rejected at stage `{stage}`: {failure}")
        }
        Ok(_) => unreachable!("a corrupted netlist must not map"),
    }

    // ---- 3. Resource guards: a deterministic budget trips, typed. --------
    let tiny_budget = MapConfig {
        limits: Limits {
            max_combine_steps: 10,
            ..Limits::default()
        },
        ..MapConfig::default()
    };
    match Pipeline::new(Mapper::soi(tiny_budget)).run(&network) {
        Err(e) => println!("\n10-step combine budget: {e}"),
        Ok(_) => unreachable!("cm150 needs more than 10 combine steps"),
    }

    // ---- 4. Graceful degradation recovers an unmappable configuration. ---
    let cramped = MapConfig {
        w_max: 2,
        h_max: 1, // an AND stack needs H >= 2: strictly unmappable
        ..MapConfig::default()
    };
    let strict = Pipeline::new(Mapper::soi(cramped));
    let err = strict.run(&network).expect_err("H_max = 1 cannot map ANDs");
    println!("\nstrict H_max = 1: {err}");
    let relaxed = strict.with_degradation(true).run(&network)?;
    println!(
        "degraded flow maps anyway: {} [forced boundaries at {} nodes, audit clean]",
        relaxed.result.counts,
        relaxed.result.degraded_nodes.len()
    );

    // ---- 5. The audit catches silent protection loss and wrong wires. ----
    // cm150's SOI mapping may need no protection at all, so strip the
    // baseline mapping's instead. The tampered results keep their books
    // in sync, so the check under test is what trips.
    let opts = pipeline.cec_options();
    let base = Pipeline::new(Mapper::baseline(MapConfig::default())).run(&network)?;
    let mut tampered = base.result.clone();
    tampered.circuit = inject::strip_protection(&tampered.circuit)
        .expect("the baseline mapping carries discharge transistors");
    tampered.counts = tampered.circuit.counts();
    let verdict = check_pipeline(&network, &tampered, &opts);
    println!(
        "\nstripped pre-discharge transistors: {}",
        verdict.unwrap_err()
    );
    let mut tampered = report.result.clone();
    (tampered.circuit, _) =
        inject::retarget_fanin(&tampered.circuit, 7).expect("cm150 has transistors to rewire");
    tampered.counts = tampered.circuit.counts();
    let verdict = check_pipeline(&network, &tampered, &opts);
    println!("rewired one transistor: {}", verdict.unwrap_err());

    // ---- 6. Everything composes on a hand-built netlist too. -------------
    let mut n = Network::new("demo");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let d = n.add_input("d");
    let t1 = n.or2(a, b);
    let t2 = n.or2(t1, c);
    let f = n.and2(t2, d);
    n.add_output("f", f);
    let demo = Pipeline::new(Mapper::soi(MapConfig::default())).run(&n)?;
    println!("\n(a+b+c)*d: {}", demo.result);
    Ok(())
}
