//! PR 2 guarantees, checked end to end:
//!
//! * the parallel DP schedule is **bit-identical** to the serial one —
//!   same circuit (root table included), counts and candidate high-water
//!   mark, which stays within the bound `MapConfig::validate` admits — on
//!   seeded random networks and on registry benchmarks, and mapping a
//!   network equals mapping its unate conversion;
//! * the same holds through the gate memo's bypass latch: each worker
//!   keeps its own memo, and the latch one worker raises stops them all;
//! * with `allow_duplication`, the amortized gate export
//!   (`exported_gate_cand` materializing a shared child gate once while
//!   many consumers reference it) never makes the reported
//!   `TransistorCounts` disagree with an independent recount of the
//!   reconstructed circuit.

use proptest::prelude::*;
use soi_domino::circuits::misc::random::{generate, RandomSpec};
use soi_domino::circuits::registry;
use soi_domino::domino::{DominoCircuit, TransistorCounts};
use soi_domino::mapper::{MapConfig, Mapper, Parallelism};
use soi_domino::trace::{Counter, Recorder};
use soi_domino::unate;

/// The three mapper constructors under test.
const MAPPERS: [fn(MapConfig) -> Mapper; 3] =
    [Mapper::baseline, Mapper::rearrange_stacks, Mapper::soi];

fn spec(seed: u64) -> RandomSpec {
    RandomSpec::control(&format!("pd{seed}"), 14, 6, 90, seed)
}

fn with_parallelism(parallelism: Parallelism, base: MapConfig) -> MapConfig {
    MapConfig {
        parallelism,
        ..base
    }
}

/// Recounts transistors straight off the reconstructed circuit, without
/// going through `TransistorCounts::collect`'s per-gate helpers: PDN
/// transistors are counted by enumerating their signals.
fn recount(circuit: &DominoCircuit) -> TransistorCounts {
    let mut counts = TransistorCounts {
        gates: circuit.gate_count() as u32,
        levels: circuit.levels(),
        ..TransistorCounts::default()
    };
    for (_, gate) in circuit.iter() {
        let pdn_tx = gate.pdn().signals().count() as u32;
        let overhead = 4 + u32::from(gate.is_footed());
        counts.logic += pdn_tx + overhead;
        counts.discharge += gate.discharge().len() as u32;
        counts.clock += 1 + u32::from(gate.is_footed()) + gate.discharge().len() as u32;
    }
    counts.logic += 2 * circuit.outputs().iter().filter(|o| o.inverted).count() as u32;
    counts.total = counts.logic + counts.discharge;
    counts
}

fn assert_schedules_agree(network: &soi_domino::netlist::Network, base: MapConfig, what: &str) {
    let unate = unate::convert(
        network,
        &unate::Options {
            output_phase: base.output_phase,
        },
    )
    .expect("converts");
    for make in MAPPERS {
        let serial = make(with_parallelism(Parallelism::Serial, base))
            .run(network)
            .expect("serial maps");
        assert!(!serial.circuit.roots().is_empty(), "{what}: no root table");
        let bound = (base.w_max * base.h_max) as usize * base.max_candidates + 1;
        assert!(
            serial.peak_candidates <= bound,
            "{what}: {} candidates at one node, over the bound {bound}",
            serial.peak_candidates
        );
        let from_unate = make(with_parallelism(Parallelism::Serial, base))
            .run_unate(&unate)
            .expect("unate maps");
        assert!(
            serial.circuit == from_unate.circuit,
            "{what}: run and run_unate circuits diverge"
        );
        for threads in [2, 4] {
            let parallel = make(with_parallelism(Parallelism::Threads(threads), base))
                .run(network)
                .expect("parallel maps");
            assert!(
                serial.circuit == parallel.circuit,
                "{what}: circuits diverge at {threads} threads"
            );
            assert_eq!(
                serial.counts, parallel.counts,
                "{what}: counts diverge at {threads} threads"
            );
            assert_eq!(
                serial.peak_candidates, parallel.peak_candidates,
                "{what}: peak candidates diverge at {threads} threads"
            );
        }
    }
}

/// Twenty seeded random networks: every mapper, serial vs 2- and
/// 4-thread schedules.
#[test]
fn parallel_solve_matches_serial_on_seeded_networks() {
    for seed in 0..20u64 {
        let network = generate(&spec(seed));
        assert_schedules_agree(&network, MapConfig::default(), &format!("seed {seed}"));
    }
}

/// The same bit-identity on real registry circuits, including one past
/// the `Parallelism::Auto` size threshold, under both objectives.
#[test]
fn parallel_solve_matches_serial_on_registry_circuits() {
    for name in ["cm150", "frg1", "b9", "c880"] {
        let network = registry::benchmark(name).expect("registered");
        assert_schedules_agree(&network, MapConfig::default(), name);
        assert_schedules_agree(&network, MapConfig::depth(), &format!("{name} (depth)"));
    }
}

/// Control networks big enough for the gate memo's adaptive bypass to
/// judge and latch on every schedule — far more gates than 3 ×
/// `BYPASS_PROBE_WINDOW` (1,024), so even at four threads a worker closes
/// a window — with the memo forced on. Each worker keeps its own memo but
/// all share one latch: once it is up, solved nodes stop computing the
/// profiles probes read, so a worker that kept probing after another
/// latched would key on missing profiles and diverge. Traced, the bypass
/// fires exactly once per run.
#[test]
fn parallel_solve_matches_serial_through_the_memo_latch() {
    let (rec, trace) = Recorder::install();
    for seed in 0..2u64 {
        let network = generate(&RandomSpec::control(
            &format!("latch{seed}"),
            32,
            8,
            6_000,
            seed,
        ));
        let base = MapConfig {
            cone_cache_min_gates: 0,
            ..MapConfig::default()
        };
        let what = format!("latch seed {seed}");
        let gates = unate::convert(&network, &unate::Options::default())
            .expect("converts")
            .stats()
            .gates();
        assert!(gates >= 3 * 1024, "{what}: only {gates} gates");
        assert_schedules_agree(&network, base, &what);
        for threads in [1, 2, 4] {
            rec.reset();
            let parallelism = if threads == 1 {
                Parallelism::Serial
            } else {
                Parallelism::Threads(threads)
            };
            Mapper::soi(MapConfig {
                parallelism,
                trace,
                ..base
            })
            .run(&network)
            .expect("traced maps");
            let probes = rec.counter(Counter::NodeTierProbes);
            assert!(
                probes >= 1024,
                "{what}: {threads} threads probed only {probes} times"
            );
            assert_eq!(
                rec.counter(Counter::TierBypasses),
                1,
                "{what}: {threads} threads: the bypass must latch exactly once"
            );
        }
    }
}

/// With duplication on, the amortized export keeps the final accounting
/// honest for all three mappers across twenty seeds.
#[test]
fn duplication_export_counts_match_reconstruction() {
    let config = MapConfig {
        allow_duplication: true,
        ..MapConfig::default()
    };
    for seed in 0..20u64 {
        let network = generate(&spec(seed));
        for make in MAPPERS {
            let result = make(config).run(&network).expect("maps");
            assert_eq!(
                result.counts,
                recount(&result.circuit),
                "seed {seed}: reported counts disagree with circuit recount"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized sweep over network size, seed and shape limits down to
    /// the smallest admitted 2 × 2: serial and parallel SOI mapping stay
    /// bit-identical, `peak_candidates` stays within the bound
    /// `MapConfig::validate` admits, and the duplication recount holds.
    #[test]
    fn prop_parallel_and_duplication_invariants(
        seed in 0u64..10_000,
        gates in 20usize..140,
        w_max in 2u32..6,
        h_max in 2u32..9,
    ) {
        let network = generate(&RandomSpec::control("prop", 12, 4, gates, seed));
        let config = MapConfig {
            w_max,
            h_max,
            allow_duplication: true,
            ..MapConfig::default()
        };
        let serial = Mapper::soi(with_parallelism(Parallelism::Serial, config))
            .run(&network)
            .expect("serial maps");
        let parallel = Mapper::soi(with_parallelism(Parallelism::Threads(3), config))
            .run(&network)
            .expect("parallel maps");
        prop_assert_eq!(serial.counts, parallel.counts);
        prop_assert_eq!(&serial.circuit, &parallel.circuit);
        prop_assert_eq!(serial.peak_candidates, parallel.peak_candidates);
        let bound = (w_max * h_max) as usize * config.max_candidates + 1;
        prop_assert!(serial.peak_candidates <= bound, "{} > {}", serial.peak_candidates, bound);
        prop_assert_eq!(serial.counts, recount(&serial.circuit));
    }
}
