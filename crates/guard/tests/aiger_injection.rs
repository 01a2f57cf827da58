//! Fault-injection sweep over the AIGER front-end.
//!
//! Every corpus circuit is serialized to both AIGER flavors, corrupted by
//! each byte-stream mutator across a seed range, and fed back through
//! `aiger::parse_bytes` and the guard pipeline's `run_aiger` ingest stage.
//! The property: the parser never panics — each mutated stream either
//! yields a typed [`soi_netlist::NetworkError`] (surfaced by the pipeline
//! as a `parse`-stage [`StageError`]) or parses into a network that passes
//! its own validator.

use soi_circuits::corpus::{self, Source};
use soi_guard::inject;
use soi_guard::pipeline::{Pipeline, Stage};
use soi_mapper::{MapConfig, Mapper};
use soi_netlist::aiger;

/// Corpus payloads in both flavors, vendored entries only (the synthetic
/// tiers are far too large to sweep).
fn payloads() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for e in corpus::ENTRIES {
        if matches!(e.source, Source::Synthetic) {
            continue;
        }
        let net = corpus::load(e.name).expect("vendored entries parse");
        out.push((
            format!("{}.aag", e.name),
            aiger::write_ascii(&net).into_bytes(),
        ));
        out.push((format!("{}.aig", e.name), aiger::write_binary(&net)));
    }
    out
}

#[test]
fn mutated_aiger_streams_never_panic_and_errors_stay_typed() {
    type Mutator = fn(&[u8], u64) -> Option<Vec<u8>>;
    let mutators: [(&str, Mutator); 3] = [
        ("truncate", inject::truncate_aiger),
        ("garble", inject::garble_aiger),
        ("perturb-header", inject::perturb_aiger_header),
    ];
    let mut parsed_ok = 0usize;
    let mut rejected = 0usize;
    for (name, bytes) in payloads() {
        for (mutator_name, mutate) in mutators {
            for seed in 0..25u64 {
                let Some(corrupt) = mutate(&bytes, seed) else {
                    continue;
                };
                match aiger::parse_bytes(&corrupt) {
                    Ok(net) => {
                        // A stream that still parses must yield a coherent
                        // network — the mutation may be benign (e.g. a
                        // garbled symbol name).
                        net.validate().unwrap_or_else(|e| {
                            panic!("{name}/{mutator_name}/{seed}: parsed invalid network: {e}")
                        });
                        parsed_ok += 1;
                    }
                    Err(e) => {
                        // Typed and displayable, never a panic.
                        assert!(!e.to_string().is_empty());
                        rejected += 1;
                    }
                }
            }
        }
    }
    // The sweep must actually exercise both outcomes to mean anything.
    assert!(rejected > 0, "no mutation was ever rejected");
    assert!(
        parsed_ok + rejected > 100,
        "sweep too small: {parsed_ok} ok + {rejected} rejected"
    );
}

#[test]
fn pipeline_ingests_clean_aiger_and_rejects_corrupt_aiger_at_parse() {
    let pipeline = Pipeline::new(Mapper::soi(MapConfig::default()));

    let net = corpus::load("parity8").expect("vendored entry");
    let ascii = aiger::write_ascii(&net).into_bytes();
    let report = pipeline.run_aiger(&ascii).expect("clean .aag maps");
    assert!(report.cec.is_equivalent());
    let binary = aiger::write_binary(&net);
    pipeline.run_aiger(&binary).expect("clean .aig maps");

    let corrupt = inject::perturb_aiger_header(&ascii, 3).unwrap();
    match pipeline.run_aiger(&corrupt) {
        Ok(_) => {} // a benign perturbation can still parse; that's fine
        Err(err) => {
            assert_eq!(err.stage, Stage::Parse);
            assert_eq!(err.context, "<aiger>");
        }
    }
    // A guaranteed-fatal corruption: no header at all.
    let err = pipeline.run_aiger(b"garbage\n").unwrap_err();
    assert_eq!(err.stage, Stage::Parse);
    assert!(err.to_string().contains("parse"));
}
