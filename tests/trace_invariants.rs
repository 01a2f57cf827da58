//! The observability layer's self-checking suite: every counter the
//! instrumentation emits is an *oracle* that must balance against the
//! mapper's own reported accounting, and attaching a recorder must never
//! change a mapping result.
//!
//! For every registry benchmark and twenty seeded random networks, the SOI
//! mapper runs four ways — untraced serial (the reference), traced serial,
//! traced forced-2-thread, and traced 2-thread + forced gate memo — and
//! the suite asserts:
//!
//! * **bit-identity**: counts, circuits, peak candidates and combine
//!   steps agree across all four runs (tracing is observational,
//!   scheduling and memoization are pure scheduling concerns);
//! * **candidate balance**: `candidates_generated ==
//!   candidates_pruned + candidates_exported` — the bare-tuple funnel
//!   loses nothing silently;
//! * **memo balance**: `node_tier_probes == node_tier_hits +
//!   node_tier_misses`, `node_tier_hits ==
//!   MappingResult::cone_cache_hits`, `node_tier_misses ==
//!   MappingResult::cone_cache_misses` — every memoized gate solve is
//!   counted exactly once;
//! * **scheduler conservation**: per-worker unit counts sum to the cone
//!   partition's unit count, every worker waits once at the barrier ending
//!   each level (`sched_parks == threads_used × levels`, and the per-worker
//!   waits sum to it), and nothing counts a steal;
//! * **discharge accounting**: `discharges_inserted` equals the circuit's
//!   `TransistorCounts::discharge` for all three algorithms;
//! * **gauges**: `peak_candidates` and `threads_used` read back exactly;
//! * **certificate accounting**: under the default configuration the
//!   equivalence check certifies every gate of every registry mapping
//!   (`cec_certified_gates` equals the gate count, `cec_fallbacks` is 0,
//!   no SAT call), and a rewired mutant counts exactly one fallback.

use soi_domino::cec::{check_mapped_traced, CecOptions, CecPath};
use soi_domino::circuits::misc::random::{generate, RandomSpec};
use soi_domino::circuits::registry;
use soi_domino::guard::inject;
use soi_domino::mapper::{Limits, MapConfig, MapError, Mapper, MappingResult, Parallelism};
use soi_domino::netlist::Network;
use soi_domino::trace::{Counter, Gauge, Recorder, Stage, TraceHandle};
use soi_domino::unate;

/// The three mapper constructors.
const MAPPERS: [fn(MapConfig) -> Mapper; 3] =
    [Mapper::baseline, Mapper::rearrange_stacks, Mapper::soi];

fn base_config() -> MapConfig {
    MapConfig {
        parallelism: Parallelism::Serial,
        cone_cache_min_gates: usize::MAX,
        ..MapConfig::default()
    }
}

fn assert_identical(reference: &MappingResult, got: &MappingResult, what: &str, mode: &str) {
    assert_eq!(
        reference.counts, got.counts,
        "{what}: {mode} counts diverge"
    );
    assert!(
        reference.circuit == got.circuit,
        "{what}: {mode} circuits diverge"
    );
    assert_eq!(
        reference.peak_candidates, got.peak_candidates,
        "{what}: {mode} peak candidates diverge"
    );
    assert_eq!(
        reference.combine_steps, got.combine_steps,
        "{what}: {mode} combine steps diverge"
    );
}

/// The per-run oracles every traced mode must satisfy.
fn assert_run_oracles(rec: &Recorder, result: &MappingResult, what: &str, mode: &str) {
    let generated = rec.counter(Counter::CandidatesGenerated);
    let pruned = rec.counter(Counter::CandidatesPruned);
    let exported = rec.counter(Counter::CandidatesExported);
    assert_eq!(
        generated,
        pruned + exported,
        "{what}: {mode} candidate funnel leaks ({generated} generated, {pruned} pruned, \
         {exported} exported)"
    );
    assert_eq!(
        rec.counter(Counter::CombineSteps),
        result.combine_steps,
        "{what}: {mode} combine-step counter disagrees with the result"
    );
    assert_eq!(
        rec.gauge(Gauge::PeakCandidates),
        result.peak_candidates as u64,
        "{what}: {mode} peak-candidates gauge disagrees with the result"
    );
    assert_eq!(
        rec.gauge(Gauge::ThreadsUsed),
        result.threads_used as u64,
        "{what}: {mode} threads-used gauge disagrees with the result"
    );
    assert_eq!(
        rec.counter(Counter::DischargesInserted),
        u64::from(result.counts.discharge),
        "{what}: {mode} discharge counter disagrees with the transistor accounting"
    );
    // Gate memo: probes split exactly into hits and misses, which are the
    // result's hit/miss totals.
    let probes = rec.counter(Counter::NodeTierProbes);
    let node_hits = rec.counter(Counter::NodeTierHits);
    let node_misses = rec.counter(Counter::NodeTierMisses);
    assert_eq!(
        probes,
        node_hits + node_misses,
        "{what}: {mode} memo probes don't split into hits + misses"
    );
    assert_eq!(
        node_hits, result.cone_cache_hits,
        "{what}: {mode} memo hits disagree with the result's cache hits"
    );
    assert_eq!(
        node_misses, result.cone_cache_misses,
        "{what}: {mode} memo misses disagree with the result's cache misses"
    );
    // Job control: a run that completed never observed an interrupt,
    // contained a panic, or salvaged anything.
    for quiet in [
        Counter::CancelsObserved,
        Counter::PanicsContained,
        Counter::UnitsSalvaged,
    ] {
        assert_eq!(
            rec.counter(quiet),
            0,
            "{what}: {mode} successful run recorded {quiet:?}"
        );
    }
}

/// Runs the four modes on one network and checks every oracle.
fn check_network(rec: &'static Recorder, trace: TraceHandle, network: &Network, what: &str) {
    let base = base_config();
    let reference = Mapper::soi(base)
        .run(network)
        .expect("untraced serial maps");

    // Traced serial: oracles + bit-identity with the untraced reference.
    rec.reset();
    let serial = Mapper::soi(MapConfig { trace, ..base })
        .run(network)
        .expect("traced serial maps");
    assert_identical(&reference, &serial, what, "traced serial");
    assert_run_oracles(rec, &serial, what, "traced serial");
    assert!(
        rec.stage_nanos(Stage::ConePartition).is_some()
            && rec.stage_nanos(Stage::Dp).is_some()
            && rec.stage_nanos(Stage::Reconstruct).is_some(),
        "{what}: traced serial run is missing a pipeline span"
    );
    // Serial, memo off: no scheduler or memo activity may be recorded.
    for quiet in [
        Counter::SchedSteals,
        Counter::SchedParks,
        Counter::NodeTierProbes,
    ] {
        assert_eq!(
            rec.counter(quiet),
            0,
            "{what}: serial unmemoized run recorded {quiet:?}"
        );
    }

    // Traced forced-2-thread: scheduler conservation on top.
    rec.reset();
    let parallel = Mapper::soi(MapConfig {
        trace,
        parallelism: Parallelism::Threads(2),
        ..base
    })
    .run(network)
    .expect("traced parallel maps");
    assert_identical(&reference, &parallel, what, "traced parallel");
    assert_run_oracles(rec, &parallel, what, "traced parallel");
    let workers = rec.workers();
    if parallel.threads_used > 1 {
        assert_eq!(
            workers.len(),
            parallel.threads_used,
            "{what}: worker stats don't cover every worker"
        );
        let partition = unate::convert(network, &unate::Options::default())
            .expect("unate converts")
            .cone_partition();
        assert_eq!(
            workers.iter().map(|w| w.units).sum::<u64>(),
            partition.units().len() as u64,
            "{what}: per-worker unit counts don't sum to the cone partition"
        );
        // Every worker waits once at the barrier ending each level.
        let parks = (parallel.threads_used * partition.levels().len()) as u64;
        assert_eq!(
            rec.counter(Counter::SchedParks),
            parks,
            "{what}: sched_parks is not threads_used × levels"
        );
        assert_eq!(
            workers.iter().map(|w| w.parks).sum::<u64>(),
            parks,
            "{what}: per-worker barrier waits don't sum to sched_parks"
        );
        assert_eq!(rec.counter(Counter::SchedSteals), 0, "{what}: a steal");
    }

    // Traced 2-thread + gate memo: the memo joins the balance.
    rec.reset();
    let memoized = Mapper::soi(MapConfig {
        trace,
        parallelism: Parallelism::Threads(2),
        // Every oracle circuit sits below the production size gate; force
        // the memo on so it is actually exercised.
        cone_cache_min_gates: 0,
        ..base
    })
    .run(network)
    .expect("traced memoized maps");
    assert_identical(&reference, &memoized, what, "traced memoized");
    assert_run_oracles(rec, &memoized, what, "traced memoized");
}

#[test]
fn registry_circuits_satisfy_every_metric_oracle() {
    let (rec, trace) = Recorder::install();
    for name in registry::names() {
        let network = registry::benchmark(name).expect("registered benchmark");
        check_network(rec, trace, &network, name);
    }
}

#[test]
fn seeded_random_networks_satisfy_every_metric_oracle() {
    let (rec, trace) = Recorder::install();
    for seed in 0..20u64 {
        let spec = RandomSpec::control(&format!("ti{seed}"), 14, 6, 90, seed);
        let network = generate(&spec);
        check_network(rec, trace, &network, &format!("seed {seed}"));
    }
}

/// The discharge and candidate balances hold for all three algorithms —
/// the baselines count through the PBE post-processing pass, the SOI
/// mapper through gate materialization.
#[test]
fn all_algorithms_balance_candidates_and_discharges() {
    let (rec, trace) = Recorder::install();
    let circuits: Vec<(String, Network)> = ["cm150", "b9", "9symml", "c432"]
        .iter()
        .map(|&n| (n.to_string(), registry::benchmark(n).expect("registered")))
        .chain((0..6u64).map(|seed| {
            let spec = RandomSpec::control(&format!("alg{seed}"), 12, 4, 70, seed);
            (format!("seed {seed}"), generate(&spec))
        }))
        .collect();
    for (what, network) in &circuits {
        for make in MAPPERS {
            rec.reset();
            let result = make(MapConfig {
                trace,
                ..base_config()
            })
            .run(network)
            .expect("maps");
            let generated = rec.counter(Counter::CandidatesGenerated);
            let pruned = rec.counter(Counter::CandidatesPruned);
            let exported = rec.counter(Counter::CandidatesExported);
            assert_eq!(
                generated,
                pruned + exported,
                "{what} ({:?}): candidate funnel leaks",
                result.algorithm
            );
            assert_eq!(
                rec.counter(Counter::DischargesInserted),
                u64::from(result.counts.discharge),
                "{what} ({:?}): discharge counter disagrees with the accounting",
                result.algorithm
            );
            assert!(
                rec.stage_nanos(Stage::Dp).is_some()
                    && rec.stage_nanos(Stage::Reconstruct).is_some(),
                "{what} ({:?}): missing pipeline span",
                result.algorithm
            );
        }
    }
}

/// The certificate check's counters balance against the circuit: every
/// gate of every default-config registry mapping is certified in a
/// `cec-certify` span with no fallback and no SAT call, that span holds
/// one span each for the re-conversion, claim 1, and claims 2 and 3, and
/// a rewired mutant falls back exactly once, certifying nothing.
#[test]
fn certificate_check_counts_every_gate_or_one_fallback() {
    let (rec, trace) = Recorder::install();
    let opts = CecOptions::default();
    for name in registry::names() {
        let network = registry::benchmark(name).expect("registered benchmark");
        for make in MAPPERS {
            let result = make(MapConfig::default()).run(&network).expect("maps");
            let what = format!("{name} ({:?})", result.algorithm);
            rec.reset();
            let report = check_mapped_traced(&network, &result.circuit, &opts, trace)
                .unwrap_or_else(|e| panic!("{what} checks: {e}"));
            let gates = result.circuit.gate_count() as u64;
            assert_eq!(report.path, CecPath::Certificate, "{what}");
            assert_eq!(
                rec.counter(Counter::CecCertifiedGates),
                gates,
                "{what}: certified gates disagree with the circuit"
            );
            assert_eq!(rec.counter(Counter::CecFallbacks), 0, "{what}: fell back");
            assert_eq!(rec.counter(Counter::CecSatCalls), 0, "{what}: SAT ran");
            let parent = rec
                .stage_nanos(Stage::CecCertify)
                .unwrap_or_else(|| panic!("{what}: no cec-certify span"));
            let children = [
                Stage::CecCertifyConvert,
                Stage::CecCertifySource,
                Stage::CecCertifyGates,
            ]
            .map(|stage| {
                rec.stage_nanos(stage)
                    .unwrap_or_else(|| panic!("{what}: no {stage} span"))
            });
            assert!(
                children.iter().sum::<u64>() <= parent,
                "{what}: the certificate's parts {children:?} outlast it ({parent} ns)"
            );
        }
    }

    let network = registry::benchmark("count").expect("registered");
    let mapped = Mapper::soi(MapConfig::default())
        .run(&network)
        .expect("maps");
    let (mutant, _) = inject::retarget_fanin(&mapped.circuit, 0).expect("rewires");
    rec.reset();
    let report = check_mapped_traced(&network, &mutant, &opts, trace).expect("comparable");
    assert_eq!(report.path, CecPath::Sweep);
    assert!(!report.is_equivalent(), "{:?}", report.verdict);
    assert_eq!(rec.counter(Counter::CecFallbacks), 1);
    assert_eq!(rec.counter(Counter::CecCertifiedGates), 0);
    assert_eq!(
        rec.counter(Counter::CexReplays),
        report.cex_replays,
        "the sweep's own counters follow the fallback"
    );
}

/// Interrupted runs balance the job-control counters: the trip is latched
/// (exactly one `cancels_observed` no matter how many workers see it),
/// `units_salvaged` equals the partial's completed units, and a contained
/// panic records exactly one `panics_contained` — plus a drain span when
/// workers had to be drained.
#[test]
fn interrupted_runs_balance_the_job_control_counters() {
    let (rec, trace) = Recorder::install();
    let network = registry::benchmark("frg1").expect("registered");
    let base = MapConfig {
        trace,
        ..base_config()
    };
    let clean = Mapper::soi(base).run(&network).expect("maps");

    // Deterministic halfway trip, serial and parallel.
    for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
        rec.reset();
        let config = MapConfig {
            parallelism,
            limits: Limits {
                cancel_after_steps: Some((clean.combine_steps / 2).max(1)),
                ..base.limits
            },
            ..base
        };
        let err = Mapper::soi(config)
            .run(&network)
            .expect_err("the halfway trip must fire");
        assert!(matches!(err, MapError::Cancelled { .. }), "{err:?}");
        let partial = err.partial().expect("interrupts carry salvage");
        assert_eq!(
            rec.counter(Counter::CancelsObserved),
            1,
            "{parallelism:?}: the trip must be latched exactly once"
        );
        assert_eq!(rec.counter(Counter::PanicsContained), 0);
        assert_eq!(
            rec.counter(Counter::UnitsSalvaged),
            partial.completed_units() as u64,
            "{parallelism:?}: salvage counter disagrees with the partial"
        );
    }

    // A poisoned cone unit, serial and parallel: contained exactly once,
    // never misreported as a cancellation, drain span in parallel mode.
    let partition_net = unate::convert(&network, &unate::Options::default()).expect("converts");
    let partition = partition_net.cone_partition();
    let (target, unit) = partition
        .units()
        .iter()
        .enumerate()
        .rev()
        .find(|(_, u)| !u.deps().is_empty())
        .expect("frg1 has dependent cone units");
    for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
        rec.reset();
        let config = MapConfig {
            parallelism,
            poison_node: Some(unit.root().index() as u32),
            ..base
        };
        let err = Mapper::soi(config)
            .run(&network)
            .expect_err("the poisoned unit must fail the run");
        let MapError::WorkerPanicked {
            unit: failed,
            partial,
            ..
        } = err
        else {
            panic!("expected WorkerPanicked, got {err:?}");
        };
        assert_eq!(failed, target);
        let partial = partial.expect("contained panics carry salvage");
        assert_eq!(
            rec.counter(Counter::PanicsContained),
            1,
            "{parallelism:?}: the panic must be contained exactly once"
        );
        assert_eq!(
            rec.counter(Counter::CancelsObserved),
            0,
            "{parallelism:?}: a contained panic is not a cancellation"
        );
        assert_eq!(
            rec.counter(Counter::UnitsSalvaged),
            partial.completed_units() as u64,
            "{parallelism:?}: salvage counter disagrees with the partial"
        );
        if matches!(parallelism, Parallelism::Threads(_)) {
            assert!(
                rec.stage_nanos(Stage::Drain).is_some(),
                "parallel containment must record a drain span"
            );
        }
    }
}
