//! PR 6 job-control guarantees, checked end to end:
//!
//! * every interrupt — a tripped [`CancelToken`], an expired wall-clock
//!   deadline, a contained worker panic — surfaces as a **typed**
//!   [`MapError`] variant carrying a [`PartialMapping`], never a hang and
//!   never an abort;
//! * the salvaged partial is internally consistent
//!   ([`check_partial`]) and **resumable**: handing it to a fresh mapper
//!   (`Mapper::with_salvage`) seeds every completed unit — whatever its
//!   size — and maps the network bit-identically to an uninterrupted run
//!   (counts, circuit, degraded nodes, candidate high-water mark, combine
//!   steps);
//! * a partial only resumes its own network, algorithm and semantic
//!   configuration — anything else is a typed error, never a mapping —
//!   while scheduling knobs and the trace handle may change freely;
//! * the gate memo's size gate (`cone_cache_min_gates`) keeps the memo
//!   off for small circuits unless forced.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use soi_domino::circuits::misc::random::{generate, RandomSpec};
use soi_domino::circuits::registry;
use soi_domino::guard::check_partial;
use soi_domino::mapper::{
    CancelToken, Limits, MapConfig, MapError, Mapper, MappingResult, Parallelism, PartialMapping,
};
use soi_domino::netlist::{BinOp, Network};
use soi_domino::trace::{Counter, Recorder};
use soi_domino::unate::{convert, Options};

/// `base` under the serial, forced 2-thread and memo-forced 2-thread
/// schedules.
fn schedules(base: MapConfig) -> [MapConfig; 3] {
    let parallel = MapConfig {
        parallelism: Parallelism::Threads(2),
        ..base
    };
    [
        MapConfig {
            parallelism: Parallelism::Serial,
            ..base
        },
        parallel,
        MapConfig {
            cone_cache_min_gates: 0,
            ..parallel
        },
    ]
}

/// `interrupted` with every interrupt knob cleared.
fn resume_config(interrupted: MapConfig) -> MapConfig {
    MapConfig {
        poison_node: None,
        limits: Limits {
            deadline: None,
            cancel: CancelToken::none(),
            cancel_after_steps: None,
            ..interrupted.limits
        },
        ..interrupted
    }
}

/// Audits the salvage, clears every interrupt knob, resumes from the
/// salvage, and requires the resumed result to be bit-identical to
/// `clean`. Returns the resumed result for further inspection.
fn assert_resume_matches(
    clean: &MappingResult,
    partial: &Arc<PartialMapping>,
    interrupted: MapConfig,
    network: &Network,
    what: &str,
) -> MappingResult {
    if let Err(e) = check_partial(partial) {
        panic!("{what}: salvaged partial fails its audit: {e}");
    }
    let resumed = Mapper::soi(resume_config(interrupted))
        .with_salvage(Arc::clone(partial))
        .run(network)
        .unwrap_or_else(|e| panic!("{what}: resume fails: {e}"));
    assert_same(clean, &resumed, what);
    resumed
}

/// Requires `got` to be bit-identical to `clean`.
fn assert_same(clean: &MappingResult, got: &MappingResult, what: &str) {
    assert_eq!(clean.counts, got.counts, "{what}: counts diverge");
    assert!(clean.circuit == got.circuit, "{what}: circuits diverge");
    assert_eq!(
        clean.degraded_nodes, got.degraded_nodes,
        "{what}: degraded nodes diverge"
    );
    assert_eq!(
        clean.peak_candidates, got.peak_candidates,
        "{what}: peak candidates diverge"
    );
    assert_eq!(
        clean.combine_steps, got.combine_steps,
        "{what}: combine steps diverge"
    );
}

/// A token tripped before the run starts cancels at the first boundary
/// check: zero units complete, zero steps are charged, and the frontier
/// is exactly the partition's dependency-free units — on every schedule.
#[test]
fn pre_tripped_token_cancels_before_any_work() {
    let network = generate(&RandomSpec::control("jc-token", 14, 6, 90, 7));
    let clean = Mapper::soi(MapConfig::default())
        .run(&network)
        .expect("clean maps");
    let token = CancelToken::new();
    token.cancel();
    let base = MapConfig {
        limits: Limits {
            cancel: token,
            ..Limits::default()
        },
        ..MapConfig::default()
    };
    for config in schedules(base) {
        let err = Mapper::soi(config)
            .run(&network)
            .expect_err("a tripped token must cancel the run");
        let MapError::Cancelled { what, partial } = err else {
            panic!("expected Cancelled, got {err:?}");
        };
        assert!(what.contains("token"), "{what}");
        let partial = partial.expect("interrupts carry salvage");
        assert!(partial.is_empty());
        assert_eq!(partial.completed_units(), 0);
        assert_eq!(partial.combine_steps(), 0);

        let unate = convert(
            &network,
            &Options {
                output_phase: config.output_phase,
            },
        )
        .expect("converts");
        let partition = unate.cone_partition();
        assert_eq!(partial.total_units(), partition.units().len());
        let dep_free: Vec<usize> = partition
            .units()
            .iter()
            .enumerate()
            .filter(|(_, u)| u.deps().is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(partial.frontier(), &dep_free[..]);

        assert_resume_matches(&clean, &partial, config, &network, "tripped token");
    }
}

/// An expired deadline surfaces as `DeadlineExceeded` with the elapsed
/// time and the allowance, plus a resumable salvage — on every schedule.
/// The allowance is calibrated against the machine: fractions of the
/// measured clean wall time, largest first (fullest partial), with a zero
/// deadline as the guaranteed-trip fallback.
#[test]
fn deadline_trips_to_a_typed_error_with_salvage() {
    let network = generate(&RandomSpec::control("jc-deadline", 16, 8, 4000, 11));
    for base in schedules(MapConfig::default()) {
        deadline_trips_and_resumes(&network, base);
    }
}

fn deadline_trips_and_resumes(network: &Network, base: MapConfig) {
    let t0 = Instant::now();
    let clean = Mapper::soi(base).run(network).expect("clean maps");
    let clean_wall = t0.elapsed();

    let mut allowances: Vec<Duration> = [2u32, 4, 8, 16, 64]
        .iter()
        .map(|d| clean_wall / *d)
        .collect();
    allowances.push(Duration::ZERO);
    let mut tripped = None;
    for allowance in allowances {
        let config = MapConfig {
            limits: Limits {
                deadline: Some(allowance),
                ..base.limits
            },
            ..base
        };
        match Mapper::soi(config).run(network) {
            // The machine outran this allowance; tighten and retry.
            Ok(_) => continue,
            Err(e) => {
                tripped = Some((e, config));
                break;
            }
        }
    }
    let (err, config) = tripped.expect("a zero deadline always trips");
    let MapError::DeadlineExceeded {
        elapsed,
        deadline,
        partial,
    } = err
    else {
        panic!("expected DeadlineExceeded, got {err:?}");
    };
    assert!(elapsed >= deadline);
    let partial = partial.expect("interrupts carry salvage");
    // Only the zero-allowance fallback may legitimately salvage nothing.
    assert!(
        !partial.is_empty() || deadline == Duration::ZERO,
        "{partial}"
    );
    assert_resume_matches(&clean, &partial, config, network, "deadline");
}

/// A poisoned cone unit panics its worker; the panic is contained as a
/// typed `WorkerPanicked` naming the unit, the other workers drain
/// cleanly, and the completed units resume bit-identically — on every
/// schedule.
#[test]
fn poisoned_unit_is_contained_and_salvaged() {
    let network = generate(&RandomSpec::control("jc-poison", 14, 6, 120, 3));
    let base = MapConfig::default();
    let clean = Mapper::soi(base).run(&network).expect("clean maps");
    let unate = convert(
        &network,
        &Options {
            output_phase: base.output_phase,
        },
    )
    .expect("converts");
    let partition = unate.cone_partition();
    // Poison the last unit that has dependencies: its deps complete before
    // it is scheduled, so the salvage is non-empty under every schedule.
    let (target, unit) = partition
        .units()
        .iter()
        .enumerate()
        .rev()
        .find(|(_, u)| !u.deps().is_empty())
        .expect("a 120-gate network has dependent cone units");
    let poisoned = MapConfig {
        poison_node: Some(unit.root().index() as u32),
        ..base
    };
    for config in schedules(poisoned) {
        let err = Mapper::soi(config)
            .run(&network)
            .expect_err("a poisoned unit must fail the run");
        let MapError::WorkerPanicked {
            unit: failed,
            payload,
            partial,
        } = err
        else {
            panic!("expected WorkerPanicked, got {err:?}");
        };
        assert_eq!(failed, target, "the poisoned unit is the one that fails");
        assert!(payload.contains("injected fault"), "{payload}");
        let partial = partial.expect("contained panics carry salvage");
        assert!(!partial.is_empty(), "{partial}");
        assert!(partial.completed_units() < partial.total_units());
        assert_resume_matches(&clean, &partial, config, &network, "poison");
    }
}

/// Registry sweep: cancel each circuit halfway through its combine-step
/// budget, then resume from the salvage. The resumed run lands
/// bit-identical, and — traced — generates fewer candidates than the
/// clean run: the salvaged units are seeded, not solved again.
#[test]
fn registry_circuits_cancel_and_resume_bit_identically() {
    let (rec, trace) = Recorder::install();
    for name in ["cm150", "mux", "z4ml", "cordic", "frg1", "b9"] {
        let network = registry::benchmark(name).expect("registered benchmark");
        let base = MapConfig {
            parallelism: Parallelism::Serial,
            trace,
            ..MapConfig::default()
        };
        rec.reset();
        let clean = Mapper::soi(base).run(&network).expect("clean maps");
        let clean_generated = rec.counter(Counter::CandidatesGenerated);
        assert!(clean.combine_steps > 0, "{name}: no DP work to interrupt");
        let config = MapConfig {
            limits: Limits {
                cancel_after_steps: Some((clean.combine_steps / 2).max(1)),
                ..base.limits
            },
            ..base
        };
        let err = Mapper::soi(config)
            .run(&network)
            .expect_err("the halfway trip must fire");
        let MapError::Cancelled { partial, .. } = err else {
            panic!("{name}: expected Cancelled, got {err:?}");
        };
        let partial = partial.expect("interrupts carry salvage");
        assert!(partial.combine_steps() <= clean.combine_steps, "{name}");
        rec.reset();
        assert_resume_matches(&clean, &partial, config, &network, name);
        let resumed_generated = rec.counter(Counter::CandidatesGenerated);
        assert!(
            resumed_generated < clean_generated,
            "{name}: the resume generated {resumed_generated} candidates, the clean run \
             {clean_generated} — salvaged units were solved again ({partial})"
        );
    }
}

/// A 5,000-level XOR/XNOR chain under the forced 2-thread level schedule:
/// its cone partition is about two units wide and thousands of levels
/// deep, so the walk crosses a barrier for nearly every unit. An early
/// deterministic cancel returns a typed `Cancelled` with a partial, which
/// needs every worker to pass the remaining barriers after the abort
/// (CI runs this file under a hard timeout, so a barrier that never
/// releases fails the step), and resuming the partial gives the clean
/// mapping.
#[test]
fn a_deep_chain_cancels_through_the_level_barriers_and_resumes() {
    let mut network = Network::new("deep-xor-chain");
    let inputs: Vec<_> = (0..8).map(|i| network.add_input(format!("x{i}"))).collect();
    let mut acc = inputs[0];
    for level in 0..5_000 {
        let op = if level % 2 == 0 {
            BinOp::Xor
        } else {
            BinOp::Xnor
        };
        acc = network.binary(op, acc, inputs[(level + 1) % inputs.len()]);
    }
    network.add_output("f", acc);
    let base = MapConfig {
        parallelism: Parallelism::Threads(2),
        ..MapConfig::default()
    };
    let clean = Mapper::soi(base).run(&network).expect("clean maps");
    assert_eq!(clean.threads_used, 2);
    let config = MapConfig {
        limits: Limits {
            cancel_after_steps: Some(clean.combine_steps / 10),
            ..base.limits
        },
        ..base
    };
    let err = Mapper::soi(config)
        .run(&network)
        .expect_err("the early trip must fire");
    let MapError::Cancelled { partial, .. } = err else {
        panic!("expected Cancelled, got {err:?}");
    };
    let partial = partial.expect("interrupts carry salvage");
    assert!(
        partial.completed_units() > 0 && partial.completed_units() < partial.total_units(),
        "{partial}"
    );
    assert_resume_matches(&clean, &partial, config, &network, "deep chain");
}

/// A partial resumes only the run it was recorded for: a different
/// network, a different semantic config field (`w_max`) or a different
/// algorithm is a typed `InvalidConfig` error, never a mapping. Scheduling
/// knobs — parallelism, the memo's size gate — and the trace handle are
/// not part of that identity: resuming under them is accepted and
/// bit-identical.
#[test]
fn resume_rejects_foreign_partials_and_accepts_scheduling_changes() {
    let network = generate(&RandomSpec::control("jc-foreign", 14, 6, 120, 5));
    let base = MapConfig {
        parallelism: Parallelism::Serial,
        ..MapConfig::default()
    };
    let clean = Mapper::soi(base).run(&network).expect("clean maps");
    let interrupted = MapConfig {
        limits: Limits {
            cancel_after_steps: Some((clean.combine_steps / 2).max(1)),
            ..base.limits
        },
        ..base
    };
    let err = Mapper::soi(interrupted)
        .run(&network)
        .expect_err("the halfway trip must fire");
    let partial = Arc::clone(err.partial().expect("interrupts carry salvage"));
    assert!(!partial.is_empty(), "{partial}");

    let other = generate(&RandomSpec::control("jc-foreign", 14, 6, 120, 6));
    let foreign = [
        (
            "network",
            Mapper::soi(base)
                .with_salvage(Arc::clone(&partial))
                .run(&other),
        ),
        (
            "w_max",
            Mapper::soi(MapConfig { w_max: 4, ..base })
                .with_salvage(Arc::clone(&partial))
                .run(&network),
        ),
        (
            "algorithm",
            Mapper::baseline(base)
                .with_salvage(Arc::clone(&partial))
                .run(&network),
        ),
    ];
    for (what, outcome) in foreign {
        assert!(
            matches!(outcome, Err(MapError::InvalidConfig { .. })),
            "a partial resumed under a different {what} must be refused, got {outcome:?}"
        );
    }

    let (_, trace) = Recorder::install();
    let accepted = [
        (
            "parallelism",
            MapConfig {
                parallelism: Parallelism::Threads(2),
                ..base
            },
        ),
        (
            "memo gate",
            MapConfig {
                cone_cache_min_gates: 0,
                ..base
            },
        ),
        ("trace handle", MapConfig { trace, ..base }),
    ];
    for (what, config) in accepted {
        let resumed = Mapper::soi(config)
            .with_salvage(Arc::clone(&partial))
            .run(&network)
            .unwrap_or_else(|e| panic!("resume under a different {what} fails: {e}"));
        assert_same(&clean, &resumed, what);
    }
}

/// A completed fanout-free unit of more than 512 nodes is salvaged like
/// any other: the resume seeds it instead of solving it again. The resume
/// poisons a node of that unit — `poison_node` panics whichever worker
/// *solves* the unit containing it — so solving it again would fail the
/// run.
#[test]
fn oversized_completed_unit_is_not_solved_again() {
    // A balanced alternating AND/OR tree over 512 inputs (1,023 unate
    // nodes, one fanout-free unit), then a small cone over fresh inputs.
    let mut network = Network::new("jc-oversized");
    let tree = |network: &mut Network, prefix: &str, leaves: usize| {
        let mut level: Vec<_> = (0..leaves)
            .map(|i| network.add_input(format!("{prefix}{i}")))
            .collect();
        let mut and = true;
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|p| {
                    if and {
                        network.and2(p[0], p[1])
                    } else {
                        network.or2(p[0], p[1])
                    }
                })
                .collect();
            and = !and;
        }
        level[0]
    };
    let big = tree(&mut network, "x", 512);
    network.add_output("big", big);
    let small = tree(&mut network, "y", 8);
    network.add_output("small", small);

    let base = MapConfig {
        parallelism: Parallelism::Serial,
        ..MapConfig::default()
    };
    let unate = convert(
        &network,
        &Options {
            output_phase: base.output_phase,
        },
    )
    .expect("converts");
    let partition = unate.cone_partition();
    assert_eq!(partition.units().len(), 2, "one unit per tree");
    let big_unit = partition.unit(0);
    assert!(big_unit.nodes().len() > 512, "{}", big_unit.nodes().len());

    // The serial walk finishes the big unit first; tripping one step short
    // of the total interrupts the small one.
    let clean = Mapper::soi(base).run(&network).expect("clean maps");
    let interrupted = MapConfig {
        limits: Limits {
            cancel_after_steps: Some(clean.combine_steps - 1),
            ..base.limits
        },
        ..base
    };
    let err = Mapper::soi(interrupted)
        .run(&network)
        .expect_err("the trip must fire");
    let partial = err.partial().expect("interrupts carry salvage");
    assert_eq!(partial.completed_units(), 1, "{partial}");
    assert_eq!(partial.frontier(), &[1]);

    let resumed = Mapper::soi(MapConfig {
        poison_node: Some(big_unit.root().index() as u32),
        ..resume_config(interrupted)
    })
    .with_salvage(Arc::clone(partial))
    .run(&network)
    .unwrap_or_else(|e| panic!("the salvaged big unit was solved again: {e}"));
    assert_same(&clean, &resumed, "oversized unit");
}

/// The production default keeps the gate memo off below the size gate;
/// forcing the gate to zero builds one; `usize::MAX` keeps it off. All
/// three map bit-identically.
#[test]
fn memo_threshold_gates_small_runs() {
    let network = registry::benchmark("cm150").expect("registered benchmark");
    let base = MapConfig::default();
    let gated = Mapper::soi(base).run(&network).expect("maps");
    assert_eq!(
        gated.cone_cache_hits + gated.cone_cache_misses,
        0,
        "below cone_cache_min_gates no memo is built"
    );
    let forced = Mapper::soi(MapConfig {
        cone_cache_min_gates: 0,
        ..base
    })
    .run(&network)
    .expect("maps");
    assert!(forced.cone_cache_misses > 0, "a forced memo is exercised");
    let off = Mapper::soi(MapConfig {
        cone_cache_min_gates: usize::MAX,
        ..base
    })
    .run(&network)
    .expect("maps");
    assert_eq!(off.cone_cache_hits + off.cone_cache_misses, 0);
    assert_same(&gated, &forced, "forced");
    assert_same(&gated, &off, "off");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized sweep: cancelling at a random fraction of the clean
    /// run's combine-step budget — under serial, parallel and
    /// memo-forced schedules — always yields a salvage whose resume is
    /// bit-identical to the uninterrupted run.
    #[test]
    fn prop_cancel_salvage_resumes_bit_identically(
        seed in 0u64..10_000,
        gates in 20usize..140,
        frac in 10u64..90,
    ) {
        let network = generate(&RandomSpec::control("jc-prop", 12, 4, gates, seed));
        let base = MapConfig::default();
        let clean = Mapper::soi(base).run(&network).expect("clean maps");
        let trip_at = (clean.combine_steps * frac / 100).max(1);
        let tripped = MapConfig {
            limits: Limits {
                cancel_after_steps: Some(trip_at),
                ..base.limits
            },
            ..base
        };
        for config in schedules(tripped) {
            // The trip point is at or below the total budget, so the run
            // can never finish: the crossing charge observes the trip.
            let err = match Mapper::soi(config).run(&network) {
                Err(e) => e,
                Ok(_) => {
                    prop_assert!(false, "trip at {trip_at} of {} did not fire", clean.combine_steps);
                    unreachable!()
                }
            };
            prop_assert!(matches!(err, MapError::Cancelled { .. }), "{err:?}");
            let partial = err.partial().expect("interrupts carry salvage");
            assert_resume_matches(&clean, partial, config, &network, "prop");
        }
    }
}
