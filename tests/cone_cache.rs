//! The DP's per-run gate memo is a pure scheduling optimization, checked
//! end to end:
//!
//! * Mapping with the memo on is **bit-identical** to mapping with it off
//!   — same transistor/discharge counts, same materialized domino netlist,
//!   same `peak_candidates` high-water mark — on
//!   seeded random networks, guard-mutated networks (where the mutation
//!   still yields a mappable graph, both modes map it the same; where it
//!   doesn't, both fail with the same error), and registry circuits.
//! * Repetitive circuits actually hit: the des rounds and the array
//!   multiplier replay more than half their gate solves from the memo.

use proptest::prelude::*;
use soi_domino::circuits::misc::random::{generate, RandomSpec};
use soi_domino::circuits::registry;
use soi_domino::guard::inject;
use soi_domino::mapper::{MapConfig, Mapper, MappingResult};
use soi_domino::netlist::Network;

/// The three mapper constructors under test.
const MAPPERS: [fn(MapConfig) -> Mapper; 3] =
    [Mapper::baseline, Mapper::rearrange_stacks, Mapper::soi];

fn spec(seed: u64) -> RandomSpec {
    RandomSpec::control(&format!("cc{seed}"), 14, 6, 90, seed)
}

fn with_cache(memo: bool, base: MapConfig) -> MapConfig {
    MapConfig {
        // These suites exercise circuits below the production size gate
        // (`cone_cache_min_gates`); "memo on" must actually build one.
        cone_cache_min_gates: if memo { 0 } else { usize::MAX },
        ..base
    }
}

fn assert_same_mapping(on: &MappingResult, off: &MappingResult, what: &str) {
    assert_eq!(on.counts, off.counts, "{what}: counts diverge");
    assert_eq!(
        on.circuit, off.circuit,
        "{what}: materialized netlists diverge"
    );
    assert_eq!(
        on.peak_candidates, off.peak_candidates,
        "{what}: peak candidates diverge"
    );
}

fn assert_cache_invisible(network: &Network, base: MapConfig, what: &str) {
    for make in MAPPERS {
        let on = make(with_cache(true, base)).run(network);
        let off = make(with_cache(false, base)).run(network);
        match (on, off) {
            (Ok(on), Ok(off)) => assert_same_mapping(&on, &off, what),
            (Err(e_on), Err(e_off)) => assert_eq!(
                e_on.to_string(),
                e_off.to_string(),
                "{what}: memo on/off fail differently"
            ),
            (on, off) => panic!(
                "{what}: memo on/off disagree on mappability (on: {}, off: {})",
                on.is_ok(),
                off.is_ok()
            ),
        }
    }
}

/// Twenty seeded random networks: every mapper, memo on vs off.
#[test]
fn cone_cache_is_bit_identical_on_seeded_networks() {
    for seed in 0..20u64 {
        let network = generate(&spec(seed));
        assert_cache_invisible(&network, MapConfig::default(), &format!("seed {seed}"));
    }
}

/// The same identity after guard-crate network mutators: whatever a
/// corruption does to mappability, the memo must not change it. (Most
/// mutants are rejected upstream of the DP — the point is that memo-on
/// and memo-off agree on *every* outcome, not just clean ones.)
#[test]
fn cone_cache_is_bit_identical_on_guard_mutants() {
    for seed in 0..20u64 {
        let network = generate(&spec(seed));
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
        for (mutator, mutant) in mutants {
            let Some(mutant) = mutant else { continue };
            assert_cache_invisible(
                &mutant,
                MapConfig::default(),
                &format!("seed {seed}, mutator {mutator}"),
            );
        }
    }
}

/// Registry circuits under both objectives, including the repetitive ones
/// where the memo actually fires.
#[test]
fn cone_cache_is_bit_identical_on_registry_circuits() {
    for name in ["cm150", "z4ml", "f51m", "b9", "c880", "des"] {
        let network = registry::benchmark(name).expect("registered");
        assert_cache_invisible(&network, MapConfig::default(), name);
        assert_cache_invisible(&network, MapConfig::depth(), &format!("{name} (depth)"));
    }
}

/// Repetitive structure pays off: the des rounds and the 3-bit array
/// multiplier replay more than half their gate solves from the memo.
#[test]
fn repetitive_circuits_hit_the_cache() {
    for name in ["des", "f51m"] {
        let network = registry::benchmark(name).expect("registered");
        let result = Mapper::soi(MapConfig {
            cone_cache_min_gates: 0,
            ..MapConfig::default()
        })
        .run(&network)
        .expect("maps");
        let rate = result
            .cone_cache_hit_rate()
            .expect("memo forced on, gates exist");
        assert!(
            rate > 0.5,
            "{name}: memo hit rate {:.1}% (hits {}, misses {})",
            rate * 100.0,
            result.cone_cache_hits,
            result.cone_cache_misses
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized sweep over size, seed, shape limits down to the
    /// smallest admitted 2 × 2, and duplication: memo on and off stay
    /// bit-identical, `peak_candidates` is invariant and within the bound
    /// `MapConfig::validate` admits.
    #[test]
    fn prop_cone_cache_invariants(
        seed in 0u64..10_000,
        gates in 20usize..140,
        w_max in 2u32..6,
        h_max in 2u32..9,
        allow_duplication in any::<bool>(),
    ) {
        let network = generate(&RandomSpec::control("ccprop", 12, 4, gates, seed));
        let config = MapConfig {
            w_max,
            h_max,
            allow_duplication,
            ..MapConfig::default()
        };
        let on = Mapper::soi(with_cache(true, config))
            .run(&network)
            .expect("memoized maps");
        let off = Mapper::soi(with_cache(false, config))
            .run(&network)
            .expect("unmemoized maps");
        prop_assert_eq!(on.counts, off.counts);
        prop_assert_eq!(&on.circuit, &off.circuit);
        prop_assert_eq!(on.peak_candidates, off.peak_candidates);
        let bound = (w_max * h_max) as usize * config.max_candidates + 1;
        prop_assert!(on.peak_candidates <= bound, "{} > {}", on.peak_candidates, bound);
    }
}
